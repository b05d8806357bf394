//! Fig. 9 — (a) preprocessing time (DPar2 vs RD-ALS: the only two methods
//! with a preprocessing phase) and (b) time per iteration (all methods),
//! plus the zero-copy-refactor memory columns: steady-state heap
//! **allocations per ALS iteration** (counted by a wrapping global
//! allocator) and process **peak RSS** after each method's fit.
//!
//! ```text
//! cargo run -p dpar2-bench --release --bin fig9_time -- --scale 0.5 --phase both
//! # --phase preprocess | iteration | both; --methods dpar2,rd-als,…
//! ```

use dpar2_baselines::{fit_with_observer, Method, RdAls};
use dpar2_bench::{
    alloc, dpar2_leads, fmt_secs, methods_arg, print_table, sweep_header, Args, HarnessConfig,
};
use dpar2_core::compress;
use dpar2_core::{FitOptions, IterationEvent, StopReason};
use dpar2_data::registry;
use dpar2_tensor::IrregularTensor;
use std::ops::ControlFlow;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

/// Peak resident set size (`VmHWM`) in kibibytes; 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One observed fit: mean seconds per iteration plus mean steady-state
/// allocations per ALS iteration (the first iteration — which warms the
/// `Workspace` arena — is excluded; `None` if fewer than two iterations
/// ran). A single fit feeds both columns, so the timing and the allocation
/// count describe the same run.
fn measure_observed(
    method: Method,
    tensor: &IrregularTensor,
    options: &FitOptions<'_>,
) -> (f64, Option<f64>) {
    let mut snapshots: Vec<u64> = Vec::with_capacity(64);
    let mut observer = |_e: &IterationEvent| {
        snapshots.push(alloc::calls());
        ControlFlow::<StopReason>::Continue(())
    };
    let fit = fit_with_observer(method, tensor, options, &mut observer).expect("method failed");
    let allocs = if snapshots.len() < 2 {
        None
    } else {
        let deltas: Vec<u64> = snapshots.windows(2).map(|w| w[1] - w[0]).collect();
        Some(deltas.iter().sum::<u64>() as f64 / deltas.len() as f64)
    };
    (fit.timing.mean_iteration_secs(), allocs)
}

fn main() {
    let args = Args::parse();
    let cfg = HarnessConfig::from_args(&args);
    let methods = methods_arg(&args);
    let phase = args.get_str("phase", "both");

    if phase == "preprocess" || phase == "both" {
        println!(
            "== Fig. 9(a): preprocessing time, DPar2 vs RD-ALS (scale {}, R={}) ==\n",
            cfg.scale, cfg.rank
        );
        let mut rows = Vec::new();
        for spec in registry() {
            let tensor = spec.generate_scaled(cfg.scale, cfg.seed);
            // DPar2: two-stage compression.
            let opts = cfg.fit_options();
            let t0 = Instant::now();
            let _ct = compress(&tensor, &opts).expect("compression failed");
            let dpar2_pre = t0.elapsed().as_secs_f64();
            // RD-ALS: concatenated truncated SVD.
            let t1 = Instant::now();
            let _ = RdAls.preprocess(&tensor, cfg.rank);
            let rd_pre = t1.elapsed().as_secs_f64();
            rows.push(vec![
                spec.name.to_string(),
                fmt_secs(dpar2_pre),
                fmt_secs(rd_pre),
                format!("{:.1}x", rd_pre / dpar2_pre.max(1e-12)),
            ]);
        }
        print_table(&["Dataset", "DPar2", "RD-ALS", "RD-ALS/DPar2"], &rows);
        println!("\nPaper shape: DPar2 preprocessing up to 10x faster; largest gaps on the");
        println!("large spectrogram tensors where RD-ALS's concatenated SVD dominates.\n");
    }

    if phase == "iteration" || phase == "both" {
        println!(
            "== Fig. 9(b): time per iteration + memory, all methods (scale {}, R={}) ==\n",
            cfg.scale, cfg.rank
        );
        let mut rows = Vec::new();
        for spec in registry() {
            let tensor = spec.generate_scaled(cfg.scale, cfg.seed);
            let mut cells = vec![spec.name.to_string()];
            let mut iter_times = Vec::new();
            let mut mem_cells = Vec::new();
            for &method in &methods {
                let (iter_secs, allocs) = measure_observed(method, &tensor, &cfg.fit_options());
                iter_times.push(iter_secs);
                cells.push(fmt_secs(iter_secs));
                // Memory columns: steady-state allocations per iteration
                // (zero for DPar2/RD-ALS at one thread — pinned by
                // tests/alloc_regression.rs) and peak RSS so far.
                let allocs = allocs.map_or_else(|| "n/a".to_string(), |a| format!("{a:.0}"));
                mem_cells.push(format!("{}|{}M", allocs, peak_rss_kb() / 1024));
            }
            if dpar2_leads(&methods) {
                // Speedup of DPar2 (index 0) vs the best competitor.
                let best_other = iter_times[1..].iter().cloned().fold(f64::INFINITY, f64::min);
                cells.push(format!("{:.1}x", best_other / iter_times[0].max(1e-12)));
            }
            cells.extend(mem_cells);
            rows.push(cells);
        }
        let mut header: Vec<String> =
            sweep_header(&["Dataset"], &methods).into_iter().map(str::to_string).collect();
        for &method in &methods {
            header.push(format!("{} alloc/it|peakRSS", method.name()));
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(&header_refs, &rows);
        println!("\nPaper shape: DPar2 fastest per iteration everywhere (up to 10.3x vs the");
        println!("second best); RD-ALS pays for its true-error convergence check. The memory");
        println!("columns pin the view refactor: DPar2 and RD-ALS run 0 alloc/iteration in");
        println!("steady state (single-threaded); peak RSS is cumulative for the process.");
    }
}
