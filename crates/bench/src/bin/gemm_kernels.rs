//! GEMM kernel-layer throughput: naive vs blocked vs pooled, GFLOP/s by
//! size and thread count.
//!
//! The kernel layer under `dpar2_linalg::gemm` is the innermost layer of the
//! whole reproduction — both compression stages, the compressed ALS
//! iterations, and every baseline run on it — so this binary is the ground
//! truth for "did the hot path get faster". It times square `n×n×n`
//! products on three paths:
//!
//! * `naive`   — the retained IEEE-faithful reference loops
//!   (`kernel::gemm_naive_into`), which are also the small-size dispatch
//!   target;
//! * `blocked` — the packed, register-tiled path on a one-thread pool
//!   (`kernel::gemm_blocked`);
//! * `pooled@T` — the same blocked path with row panels fanned out over a
//!   `ThreadPool` of `T` workers.
//!
//! Flags: `--sizes 128,256,512` `--threads 1,2,4` `--variant nn|tn|nt|tt`
//! `--seed N`. To see the end-to-end effect on the paper's headline
//! experiment, pair with a before/after run of
//! `cargo run --release -p dpar2-bench --bin fig9_time`.

use dpar2_bench::{print_table, Args};
use dpar2_linalg::kernel::{self, Trans};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::Mat;
use dpar2_parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Wall-clock per call, adaptively repeated so each measurement spends at
/// least ~0.2 s (one warm-up call first).
fn time_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warm-up: page in buffers, settle the CPU-feature dispatch
    let mut reps = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= 0.2 || reps >= 1 << 20 {
            return elapsed / reps as f64;
        }
        reps = (reps * (0.25 / elapsed.max(1e-9)).ceil() as usize).clamp(reps + 1, 1 << 20);
    }
}

fn parse_list(args: &Args, key: &str, default: &str) -> Vec<usize> {
    args.get_str(key, default)
        .split(',')
        .map(|t| t.trim().parse().unwrap_or_else(|e| panic!("bad --{key} entry {t:?}: {e}")))
        .collect()
}

fn main() {
    let args = Args::parse();
    let sizes = parse_list(&args, "sizes", "128,256,512");
    let thread_counts = parse_list(&args, "threads", "1,2,4");
    let seed: u64 = args.get("seed", 0);
    let (ta, tb) = match args.get_str("variant", "nn").as_str() {
        "nn" => (Trans::N, Trans::N),
        "tn" => (Trans::T, Trans::N),
        "nt" => (Trans::N, Trans::T),
        "tt" => (Trans::T, Trans::T),
        other => panic!("unknown --variant {other:?} (nn|tn|nt|tt)"),
    };

    println!("GEMM kernel layer: {:?}·{:?}, f64, GFLOP/s (higher is better)", ta, tb);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let a = gaussian_mat(n, n, &mut rng);
        let b = gaussian_mat(n, n, &mut rng);
        let gflop = 2.0 * (n as f64).powi(3) / 1e9;
        let mut c = Mat::zeros(n, n);

        let t_naive = time_per_call(|| {
            kernel::gemm_naive_into(ta, tb, &a, &b, &mut c);
            black_box(&c);
        });
        let serial = ThreadPool::new(1);
        let t_blocked = time_per_call(|| {
            kernel::gemm_blocked(ta, tb, &a, &b, &mut c, &serial);
            black_box(&c);
        });
        rows.push(vec![
            n.to_string(),
            "naive".into(),
            format!("{:.2}", gflop / t_naive),
            "1.00x".into(),
        ]);
        rows.push(vec![
            n.to_string(),
            "blocked".into(),
            format!("{:.2}", gflop / t_blocked),
            format!("{:.2}x", t_naive / t_blocked),
        ]);
        for &t in &thread_counts {
            let pool = ThreadPool::new(t);
            let t_pooled = time_per_call(|| {
                kernel::gemm_blocked(ta, tb, &a, &b, &mut c, &pool);
                black_box(&c);
            });
            rows.push(vec![
                n.to_string(),
                format!("pooled@{t}"),
                format!("{:.2}", gflop / t_pooled),
                format!("{:.2}x", t_naive / t_pooled),
            ]);
        }

        // Strided-view operands: the same n×n product read out of the
        // interior of a larger host (stride n+16), i.e. what a zero-copy
        // sub-block of a tensor backing buffer looks like to the kernel.
        // The packing layer absorbs the stride, so this should track the
        // contiguous blocked path closely — the win the view layer banks is
        // skipping the materialization copy entirely.
        let host_a = gaussian_mat(n + 16, n + 16, &mut rng);
        let host_b = gaussian_mat(n + 16, n + 16, &mut rng);
        let va = host_a.subview(8, 8 + n, 8, 8 + n);
        let vb = host_b.subview(8, 8 + n, 8, 8 + n);
        let t_view = time_per_call(|| {
            kernel::gemm_blocked(ta, tb, va, vb, &mut c, &serial);
            black_box(&c);
        });
        rows.push(vec![
            n.to_string(),
            "blocked/strided".into(),
            format!("{:.2}", gflop / t_view),
            format!("{:.2}x", t_naive / t_view),
        ]);
        // Materialize-then-multiply: the pre-view-layer cost model (copy the
        // block out, multiply the contiguous copy).
        let t_copy = time_per_call(|| {
            let (ca, cb) = (va.to_mat(), vb.to_mat());
            kernel::gemm_blocked(ta, tb, &ca, &cb, &mut c, &serial);
            black_box(&c);
        });
        rows.push(vec![
            n.to_string(),
            "copy+blocked".into(),
            format!("{:.2}", gflop / t_copy),
            format!("{:.2}x", t_naive / t_copy),
        ]);
    }
    print_table(&["n", "kernel", "GFLOP/s", "vs naive"], &rows);
    println!();
    println!(
        "note: pooled speedup tracks physical cores; correctness across paths is \
         pinned by crates/linalg/tests/gemm_differential.rs (pooled is bit-identical \
         to blocked for every thread count)."
    );
}
