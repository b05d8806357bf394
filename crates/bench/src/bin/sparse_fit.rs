//! Sparse vs densified PARAFAC2 fitting: time per iteration and peak
//! memory across densities — the acceptance benchmark behind
//! `BENCH_sparse.json`.
//!
//! For each density in `--densities`, a planted sparse PARAFAC2 model is
//! observed through a Bernoulli mask into CSR slices, then fitted three
//! ways:
//!
//! 1. **DPar2-sparse**: `Dpar2::fit` on the CSR tensor directly — the
//!    whole randomized compression stage runs at O(nnz) per pass, and the
//!    compressed ALS iterations are density-independent;
//! 2. **SPARTan-sparse**: `Spartan::fit` on the same CSR tensor, per-ALS
//!    iteration cost proportional to `nnz`;
//! 3. **DPar2 (dense)** on the densified tensor — the measured region
//!    includes the densification itself, because materializing the dense
//!    backing buffer *is* the cost the sparse subsystem exists to avoid.
//!
//! The rsvd oversample is pinned to 1 (rank 4 → sketch 5, on the naive
//! GEMM dispatch path), so runs 1 and 3 draw identical sketches and their
//! final fit criteria are asserted **bitwise equal** — the peak-memory
//! and timing gap is pure representation, not a different answer.
//!
//! A byte-exact peak-tracking allocator (same carve-out as `topk_index`)
//! measures each fit's peak live bytes; the acceptance criterion is a
//! ≥10× DPar2-dense/DPar2-sparse peak ratio at the lowest density (10⁻³
//! by default). Input-shape gauges (the `sparse_fit` prefix plus
//! `_input_nnz`, `_input_density_ppm` and `_sparse_dispatch`) and fit
//! counters/histograms are recorded through a `MetricsObserver`, and the
//! artifact embeds the registry snapshot only after round-tripping it
//! through the JSON exporter.
//!
//! ```text
//! cargo run -p dpar2-bench --release --bin sparse_fit
//! cargo run -p dpar2-bench --release --bin sparse_fit -- --rows 400 --densities 0.1,0.01
//! ```
//!
//! Flags: `--densities` (comma list, default `0.1,0.01,0.001`), `--slices`
//! (6), `--rows` (base slice height, 1200), `--j` (128), `--rank` (4),
//! `--iters` (8), `--seed` (0), `--out` (`BENCH_sparse.json` at the repo
//! root). The default shape is sized so the dense tensor dominates the
//! dense-side peak: both sparse-side peaks are small factor/SVD workspaces,
//! and the asymptotic dense/sparse ratio is ≈ 1/density at low density.

use dpar2_baselines::Spartan;
use dpar2_bench::alloc::{self, peak_during};
use dpar2_bench::Args;
use dpar2_core::{Dpar2, FitMetrics, FitOptions, MetricsObserver, Parafac2Fit, RsvdConfig};
use dpar2_data::planted_sparse;
use dpar2_obs::{export, MetricsRegistry, Snapshot};
use std::fmt::Write as _;

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

/// Round-trips a snapshot through the JSON exporter and returns the text —
/// the artifact embeds only JSON that is proven to parse back bit-exactly.
fn checked_json(snap: &Snapshot) -> String {
    let json = export::to_json(snap);
    let reparsed = export::from_json(&json).expect("exporter JSON must parse");
    assert_eq!(&reparsed, snap, "exporter JSON must round-trip exactly");
    json
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// One measured run, reduced to what the report needs.
struct RunStats {
    iter_s: f64,
    preprocess_s: f64,
    peak: usize,
    iterations: usize,
    final_criterion: f64,
}

impl RunStats {
    fn new(fit: &Parafac2Fit, peak: usize) -> RunStats {
        RunStats {
            iter_s: fit.timing.iterations_secs / fit.iterations.max(1) as f64,
            preprocess_s: fit.timing.preprocess_secs,
            peak,
            iterations: fit.iterations,
            final_criterion: fit.criterion_trace.last().copied().unwrap_or(f64::NAN),
        }
    }

    fn print(&self, label: &str) {
        println!(
            "   {label:14} {:9.3} ms/iter  preprocess {:8.3} ms  peak {:8.2} MiB  \
             final criterion {:.6e}",
            self.iter_s * 1e3,
            self.preprocess_s * 1e3,
            mib(self.peak),
            self.final_criterion
        );
    }

    fn json(&self) -> String {
        format!(
            "{{\"iter_seconds\": {:.6}, \"preprocess_seconds\": {:.6}, \"peak_bytes\": {}, \
             \"iterations\": {}, \"final_criterion\": {:.12e}}}",
            self.iter_s, self.preprocess_s, self.peak, self.iterations, self.final_criterion
        )
    }
}

fn main() {
    let args = Args::parse();
    let densities: Vec<f64> = args
        .get_str("densities", "0.1,0.01,0.001")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let slices = args.get("slices", 6usize).max(1);
    let rows = args.get("rows", 1200usize).max(8);
    let j = args.get("j", 128usize).max(2);
    let rank = args.get("rank", 4usize).clamp(1, j);
    let iters = args.get("iters", 8usize).max(1);
    let seed = args.get("seed", 0u64);
    let default_out = format!("{}/../../BENCH_sparse.json", env!("CARGO_MANIFEST_DIR"));
    let out_path = args.get_str("out", &default_out);

    // Irregular slice heights around the base, as in the paper's workloads.
    let row_dims: Vec<usize> = (0..slices).map(|k| rows + (k * 37) % (rows / 8 + 1)).collect();
    let total_rows: usize = row_dims.iter().sum();

    let registry = MetricsRegistry::new();
    let metrics = FitMetrics::register(&registry, "sparse_fit");

    println!(
        "== sparse_fit: {slices} slices x ~{rows} rows x {j} cols, rank {rank}, \
         {iters} iterations, single thread =="
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"sparse_fit\",\n");
    let _ = write!(
        json,
        "  \"config\": {{\"slices\": {slices}, \"rows\": {rows}, \"total_rows\": {total_rows}, \
         \"j\": {j}, \"rank\": {rank}, \"iters\": {iters}, \"seed\": {seed}}},\n  \"densities\": [\n"
    );

    let mut acceptance: Option<(f64, f64)> = None;
    let min_density = densities.iter().copied().fold(f64::INFINITY, f64::min);
    for (di, &density) in densities.iter().enumerate() {
        let tensor =
            planted_sparse(&row_dims, j, rank, density, 0.05, seed.wrapping_add(di as u64));
        let nnz = tensor.nnz();
        println!("\n-- density {density} ({nnz} nonzeros of {} cells) --", tensor.num_cells());

        // threads = 1: the comparison is serial-vs-serial (thread
        // invariance of the sparse paths is pinned by the test suite).
        // Oversample 1 → sketch = rank + 1 ≤ 5 stays on the naive GEMM
        // dispatch path, the regime where DPar2-sparse is bitwise the
        // dense run.
        let opts = FitOptions::new(rank)
            .with_seed(seed ^ 0x5EED)
            .with_rsvd(RsvdConfig { rank, oversample: 1, power_iterations: 1 })
            .with_max_iterations(iters)
            .with_tolerance(0.0)
            .with_threads(1);

        let mut observer = MetricsObserver::new(&metrics);
        let (dpar2_sparse_fit, dpar2_sparse_peak) = peak_during(|| {
            Dpar2.fit_observed(&tensor, &opts, &mut observer).expect("DPar2 sparse fit failed")
        });
        let dpar2_sparse = RunStats::new(&dpar2_sparse_fit, dpar2_sparse_peak);

        let (spartan_fit, spartan_peak) =
            peak_during(|| Spartan.fit(&tensor, &opts).expect("SPARTan sparse fit failed"));
        let spartan_sparse = RunStats::new(&spartan_fit, spartan_peak);

        // Dense DPar2: densification included in the measured region.
        let (dpar2_dense_fit, dpar2_dense_peak) = peak_during(|| {
            let dense = tensor.to_dense();
            Dpar2.fit(&dense, &opts).expect("DPar2 dense fit failed")
        });
        let dpar2_dense = RunStats::new(&dpar2_dense_fit, dpar2_dense_peak);

        // The sparse path must land on the *same answer*, bit for bit.
        assert_eq!(
            dpar2_sparse_fit.criterion_trace, dpar2_dense_fit.criterion_trace,
            "DPar2 sparse and dense criterion traces diverged at density {density}"
        );
        assert_eq!(
            dpar2_sparse.iterations, dpar2_dense.iterations,
            "DPar2 sparse and dense iteration counts diverged at density {density}"
        );

        let peak_ratio = dpar2_dense.peak as f64 / dpar2_sparse.peak.max(1) as f64;
        let spartan_peak_ratio = dpar2_dense.peak as f64 / spartan_sparse.peak.max(1) as f64;
        let iter_speedup = dpar2_dense.iter_s / dpar2_sparse.iter_s.max(1e-12);
        dpar2_sparse.print("DPar2-sparse:");
        spartan_sparse.print("SPARTan-sparse:");
        dpar2_dense.print("DPar2-dense:");
        println!(
            "   dense/sparse peak: DPar2 {peak_ratio:.1}x, SPARTan {spartan_peak_ratio:.1}x; \
             DPar2 time-per-iteration {iter_speedup:.2}x (criteria bitwise equal)"
        );

        json.push_str("    {");
        let _ = write!(
            json,
            "\"density\": {density}, \"nnz\": {nnz}, \
             \"dpar2_sparse\": {}, \"spartan_sparse\": {}, \"dpar2_dense\": {}, \
             \"peak_ratio\": {peak_ratio:.2}, \"spartan_peak_ratio\": {spartan_peak_ratio:.2}, \
             \"iter_speedup\": {iter_speedup:.3}, \"criteria_bitwise_equal\": true}}",
            dpar2_sparse.json(),
            spartan_sparse.json(),
            dpar2_dense.json()
        );
        json.push_str(if di + 1 < densities.len() { ",\n" } else { "\n" });

        if density == min_density {
            acceptance = Some((density, peak_ratio));
        }
    }
    json.push_str("  ],\n");

    if let Some((density, ratio)) = acceptance {
        let _ = writeln!(
            json,
            "  \"acceptance\": {{\"density\": {density}, \"peak_ratio\": {ratio:.2}, \
             \"solver\": \"dpar2\"}},"
        );
        println!("\n   acceptance @ density {density}: DPar2 dense/sparse peak ratio {ratio:.1}x");
        if density <= 2e-3 {
            assert!(
                ratio >= 10.0,
                "O(nnz) memory acceptance failed: DPar2 dense/sparse peak ratio {ratio:.1}x \
                 < 10x at density {density}"
            );
        }
    }

    // Telemetry snapshot (fit counters, iteration histograms, input-shape
    // and dispatch gauges), embedded only after the exporter round-trip
    // check.
    let snap = registry.snapshot();
    let _ = write!(json, "  \"metrics\": {}\n}}\n", checked_json(&snap));

    std::fs::write(&out_path, &json).expect("write BENCH_sparse.json");
    println!("   wrote {out_path}");
}
