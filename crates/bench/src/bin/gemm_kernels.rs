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
//! A second table times the Householder QR (`dpar2_linalg::qr_into`) on
//! the tall-and-thin shapes the randomized SVDs factor, in GFLOP/s of the
//! standard Householder count (factor plus thin `Q`). A third times the
//! small one-sided Jacobi SVDs in µs per group of `SVD_LANES` (eight)
//! matrices: the lane-native square kernel (`svd_square_lanes`, lane
//! stores in and out, as the `Q_k` step runs it) and the lane-batched
//! kernel on `Mat`s (`svd_thin_batch_into`) against one matrix at a time
//! (`svd_thin_into`), at the `R×R` size of the `Q_k` step (10) and the
//! sketch-core size of stage 1 (18). A fourth times one 8-slice group of
//! the `Q_k` step's `R×R` product chain in µs: one slice per lane through
//! `gemm_lanes` (interleaving included) against per-slice `gemm` calls,
//! at `R` ∈ {5, 10, 20}.
//!
//! Flags: `--sizes 128,256,512` `--threads 1,2,4` `--variant nn|tn|nt|tt`
//! `--seed N`. To see the end-to-end effect on the paper's headline
//! experiment, pair with a before/after run of
//! `cargo run --release -p dpar2-bench --bin fig9_time`.

use dpar2_bench::{print_table, Args, QkChain};
use dpar2_linalg::kernel::{self, Trans};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{
    interleave_lanes, qr_into, svd_square_lanes, svd_thin_batch_into, Mat, QrScratch,
    SvdBatchScratch, SvdFactors, SvdScratch, SVD_LANES,
};
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

/// Flops of a thin Householder QR of an `m×n` matrix, `k = min(m, n)`:
/// `2mn² − 2n³/3` to factor (`2nm² − 2m³/3` when wide) plus
/// `2mk² − 2k³/3` to form the thin `Q` from the `k` reflectors.
fn householder_qr_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    let k = m.min(n);
    2.0 * m.max(n) * k * k + 2.0 * m * k * k - 4.0 * k.powi(3) / 3.0
}

/// The shapes the pipeline factors: stage-1 sketches of tall and short
/// slices, and stage 2's tall factorization on many-slices.
const QR_SHAPES: [(usize, usize); 4] = [(790, 18), (88, 18), (48, 18), (15000, 18)];

/// Square sizes of the Jacobi table: the benchmarks' `R` and `R + s`.
const JACOBI_SIZES: [usize; 2] = [10, 18];

/// Matrices per Jacobi measurement (a multiple of [`SVD_LANES`]).
const JACOBI_BATCH: usize = 64;

/// Ranks of the `Q_k` product-chain table, all on `gemm`'s naive loops.
const CHAIN_RANKS: [usize; 3] = [5, 10, 20];

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

    println!("Householder QR (qr_into, thin Q and R), f64, GFLOP/s (higher is better)");
    let mut qr_rows: Vec<Vec<String>> = Vec::new();
    let (mut q, mut r, mut ws) = (Mat::default(), Mat::default(), QrScratch::default());
    for (m, n) in QR_SHAPES {
        let a = gaussian_mat(m, n, &mut StdRng::seed_from_u64(seed ^ (m * n) as u64));
        let t = time_per_call(|| {
            qr_into(&a, &mut q, &mut r, &mut ws);
            black_box((&q, &r));
        });
        qr_rows.push(vec![
            format!("{m}x{n}"),
            format!("{:.1}", t * 1e6),
            format!("{:.2}", householder_qr_flops(m, n) / t / 1e9),
        ]);
    }
    print_table(&["shape", "us/call", "GFLOP/s"], &qr_rows);
    println!();

    println!("One-sided Jacobi SVD, f64, us per {SVD_LANES}-matrix group (lower is better)");
    let mut svd_rows: Vec<Vec<String>> = Vec::new();
    let groups = (JACOBI_BATCH / SVD_LANES) as f64;
    for n in JACOBI_SIZES {
        let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8));
        let inputs: Vec<Mat> = (0..JACOBI_BATCH).map(|_| gaussian_mat(n, n, &mut rng)).collect();
        let stores: Vec<_> = inputs
            .chunks(SVD_LANES)
            .map(|group| {
                let mut a = Vec::new();
                interleave_lanes(group, n, &mut a);
                a
            })
            .collect();
        let mut out = vec![SvdFactors::default(); SVD_LANES];
        let (mut batch_ws, mut scalar_ws) = (SvdBatchScratch::default(), SvdScratch::default());
        let (mut u, mut s, mut v) = (Vec::new(), Vec::new(), Vec::new());
        let t_lanes = time_per_call(|| {
            for a in &stores {
                svd_square_lanes(n, SVD_LANES, a, &mut u, &mut s, &mut v, &mut batch_ws);
            }
            black_box((&u, &s, &v));
        }) / groups;
        let t_batch = time_per_call(|| {
            for group in inputs.chunks(SVD_LANES) {
                svd_thin_batch_into(group, &mut out[..group.len()], &mut batch_ws);
            }
            black_box(&out);
        }) / groups;
        let t_scalar = time_per_call(|| {
            for a in &inputs {
                svd_thin_into(a, &mut out[0], &mut scalar_ws);
            }
            black_box(&out);
        }) / groups;
        svd_rows.push(vec![
            format!("{n}x{n}"),
            format!("{:.2}", t_lanes * 1e6),
            format!("{:.2}", t_batch * 1e6),
            format!("{:.2}", t_scalar * 1e6),
            format!("{:.2}x", t_scalar / t_lanes),
        ]);
    }
    let header = ["shape", "lane-native", "batched", "one at a time", "speedup"];
    print_table(&header, &svd_rows);
    println!();

    println!("Q_k product chain, one {SVD_LANES}-slice group, us per group (lower is better)");
    let mut chain_rows: Vec<Vec<String>> = Vec::new();
    for r in CHAIN_RANKS {
        let mut chain = QkChain::new(r, seed ^ ((r as u64) << 16));
        let t_lanes = time_per_call(|| {
            chain.lanes();
            black_box(&chain);
        });
        let t_slices = time_per_call(|| {
            chain.per_slice();
            black_box(&chain);
        });
        chain_rows.push(vec![
            format!("{r}"),
            format!("{:.2}", t_lanes * 1e6),
            format!("{:.2}", t_slices * 1e6),
            format!("{:.2}x", t_slices / t_lanes),
        ]);
    }
    print_table(&["R", "lanes", "per-slice gemm", "speedup"], &chain_rows);
    println!();
    println!(
        "note: pooled speedup tracks physical cores; correctness across paths is \
         pinned by crates/linalg/tests/gemm_differential.rs (pooled is bit-identical \
         to blocked for every thread count)."
    );
}
