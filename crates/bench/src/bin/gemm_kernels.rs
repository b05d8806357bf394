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
//! * `blocked` — the register-tiled path on a one-thread pool
//!   (`kernel::gemm_blocked`; packed above `n = 96`, in place below);
//! * `pooled@T` — the same blocked path with row panels fanned out over a
//!   `ThreadPool` of `T` workers.
//!
//! The sketch-products table times `gemm_blocked` on one thread pinned to
//! read its operands in place and pinned to pack them (`kernel::pinned`;
//! both give the same bits), in µs per call and GFLOP/s: stage 1's five
//! products on a tall slice and three on a short one, stage 2's three on
//! a 48×15000 matrix, and the shapes around the crossover behind the
//! kernel's `min(m, n) ≤ 96` rule.
//!
//! Two tables time stage 1's small kernels on one thread. The Gram table
//! times `gram_into` on stage-1 slices of both workloads (and the outer
//! Grams of two wide ones), in µs and GFLOP/s counted on the upper
//! triangle, on the kernel this CPU runs (fused at 512 or 256 bits, or
//! unfused) and pinned to the unfused portable one. The small-products
//! table times `gemm` below its blocked threshold (the register-tiled
//! naive loops) at stage 1's sketch and lift shapes, against the
//! reference loops.
//!
//! A further table times the Householder QR (`dpar2_linalg::qr_into`) on
//! the tall-and-thin shapes the randomized SVDs factor, in GFLOP/s of the
//! standard Householder count (factor plus thin `Q`). Another times the
//! small one-sided Jacobi SVDs in µs per group of `SVD_LANES` (sixteen)
//! matrices: the lane-native square kernel (`svd_square_lanes`, lane
//! stores in and out, as the `Q_k` step runs it) and the lane-batched
//! kernel on `Mat`s (`svd_thin_batch_into`) against one matrix at a time
//! (`svd_thin_into`), at the `R×R` size of the `Q_k` step (10) and the
//! sketch-core size of stage 1 (18). The last times one 16-slice group of
//! the `Q_k` step's `R×R` product chain in µs: one slice per lane through
//! `gemm_lanes` (interleaving included) against per-slice `gemm` calls,
//! at `R` ∈ {5, 10, 20}.
//!
//! The compression-route table times one matrix's rank-10 factorization
//! (`R + s = 18`, one power iteration) in µs per call on one thread:
//! `rsvd` against the Gram route (`gram_into` or the `gemm` Gram, then
//! `dpar2_core::gram_svd`), and the Gram product alone, at stage 1's
//! tall-slices (540×88) and many-slices (60×48, and 30×48 on its row
//! side) shapes and stage 2's 48×15000; then the sweep over the short side
//! `m` of a 540-row slice that sets the route's κ.
//!
//! Flags: `--sizes 128,256,512` `--threads 1,2,4` `--variant nn|tn|nt|tt`
//! `--seed N`. To see the end-to-end effect on the paper's headline
//! experiment, pair with a before/after run of
//! `cargo run --release -p dpar2-bench --bin fig9_time`.

use dpar2_bench::{print_table, Args, QkChain};
use dpar2_core::{gram_svd, RsvdConfig};
use dpar2_linalg::kernel::{self, Pin, Trans};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{
    gemm, gram_into, interleave_lanes, qr_into, svd_square_lanes, svd_thin_batch_into, Mat,
    QrScratch, SvdBatchScratch, SvdFactors, SvdScratch, SVD_LANES,
};
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::rsvd;
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

/// The sketch-product table: the five stage-1 products on a tall-slices
/// slice (540×88, sketch width 18, rank 10), the three on a many-slices
/// slice (60×48), stage 2's three on many-slices' 48×15000 matrix, and the
/// shapes around the in-place/packed crossover: tall products of growing
/// width, then squares. Rows are `(label, ta, tb, m, n, k)`.
const SKETCH_SHAPES: [(&str, Trans, Trans, usize, usize, usize); 23] = [
    ("tall A·Ω", Trans::N, Trans::N, 540, 18, 88),
    ("tall Aᵀ·Q", Trans::T, Trans::N, 88, 18, 540),
    ("tall A·Q", Trans::N, Trans::N, 540, 18, 88),
    ("tall Qᵀ·A", Trans::T, Trans::N, 18, 88, 540),
    ("tall Q·Ũ", Trans::N, Trans::N, 540, 10, 18),
    ("many A·Ω", Trans::N, Trans::N, 60, 18, 48),
    ("many Aᵀ·Q", Trans::T, Trans::N, 48, 18, 60),
    ("many Qᵀ·A", Trans::T, Trans::N, 18, 48, 60),
    ("stage-2 A·Ω", Trans::N, Trans::N, 48, 18, 15000),
    ("stage-2 Aᵀ·Q", Trans::T, Trans::N, 15000, 18, 48),
    ("stage-2 Qᵀ·A", Trans::T, Trans::N, 18, 15000, 48),
    ("crossover", Trans::N, Trans::N, 540, 24, 88),
    ("crossover", Trans::N, Trans::N, 540, 32, 88),
    ("crossover", Trans::N, Trans::N, 540, 40, 88),
    ("crossover", Trans::N, Trans::N, 540, 48, 88),
    ("crossover", Trans::T, Trans::N, 32, 540, 540),
    ("crossover", Trans::T, Trans::N, 48, 540, 540),
    ("crossover", Trans::N, Trans::N, 64, 64, 64),
    ("crossover", Trans::N, Trans::N, 128, 128, 128),
    ("crossover", Trans::T, Trans::N, 128, 128, 128),
    ("crossover", Trans::N, Trans::N, 256, 256, 256),
    ("crossover", Trans::T, Trans::N, 384, 384, 384),
    ("crossover", Trans::N, Trans::N, 512, 512, 512),
];

/// The Gram table's matrices `(label, rows, cols, outer)`: stage-1 slices
/// of both workloads. An outer Gram is `X·Xᵀ` of a wide slice, which
/// stage 1 forms as `gram_into(Xᵀ)`.
const GRAM_SHAPES: [(&str, usize, usize, bool); 6] = [
    ("tall-slices", 300, 88, false),
    ("tall-slices", 491, 88, false),
    ("many-slices", 60, 48, false),
    ("many-slices", 96, 48, false),
    ("many-slices outer", 24, 48, true),
    ("many-slices outer", 40, 48, true),
];

/// The small-products table's shapes `(label, ta, m, n, k)` of `op(A)·B`,
/// all below the blocked threshold: stage 1's sketch and lift products on
/// short slices (`R = 10`, `R + s = 18`).
const SMALL_SHAPES: [(&str, Trans, usize, usize, usize); 7] = [
    ("G·Ω, m = 24", Trans::N, 24, 18, 24),
    ("PᵀY, m = 24", Trans::T, 18, 18, 24),
    ("P·V_T, m = 24", Trans::N, 24, 10, 18),
    ("P·V_T, m = 48", Trans::N, 48, 10, 18),
    ("AᵀA, 60 rows", Trans::T, 10, 10, 60),
    ("AᵀA, 96 rows", Trans::T, 10, 10, 96),
    ("W·L, m = 48", Trans::N, 48, 10, 10),
];

/// Square sizes of the Jacobi table: the benchmarks' `R` and `R + s`.
const JACOBI_SIZES: [usize; 2] = [10, 18];

/// Matrices per Jacobi measurement (a multiple of [`SVD_LANES`]).
const JACOBI_BATCH: usize = 64;

/// Ranks of the `Q_k` product-chain table, all on `gemm`'s naive loops.
const CHAIN_RANKS: [usize; 3] = [5, 10, 20];

/// The compression-route table's shapes `(label, rows, cols)`.
const ROUTE_SHAPES: [(&str, usize, usize); 4] = [
    ("tall-slices stage 1", 540, 88),
    ("many-slices stage 1", 60, 48),
    ("many-slices stage 1, wide", 30, 48),
    ("many-slices stage 2", 48, 15000),
];

/// Short sides `m` of the κ sweep, on 540-row slices (`R + s = 18`).
const ROUTE_SWEEP: [usize; 9] = [24, 48, 72, 96, 112, 126, 144, 162, 192];

/// One rank-10 factorization of `x` each way, µs per call on one thread:
/// `(rsvd, Gram route, the Gram product alone)`. Planted rank-10 data plus
/// noise, so the route never falls back.
fn route_times(rows: usize, cols: usize, seed: u64) -> (f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x =
        gaussian_mat(rows, 10, &mut rng).matmul_nt(gaussian_mat(cols, 10, &mut rng)).unwrap();
    x.axpy(0.1, &gaussian_mat(rows, cols, &mut rng));
    let (config, serial) = (RsvdConfig::new(10), ThreadPool::new(1));
    let xt = x.transpose();
    let mut g = Mat::default();
    // Stage 1 sums its Grams in naive order; stage 2's wide M takes `gemm`.
    let gram = |g: &mut Mat| match (rows < cols, cols > 4096) {
        (true, true) => gemm(Trans::N, Trans::T, &x, &x, g, &serial),
        (true, false) => gram_into(&xt, g),
        (false, _) => gram_into(&x, g),
    };
    let t_gram = time_per_call(|| {
        gram(&mut g);
        black_box(&g);
    });
    let t_route = time_per_call(|| {
        gram(&mut g);
        let f = gram_svd(&x, &mut g, &config, &mut StdRng::seed_from_u64(seed), &serial);
        black_box(f.expect("the route takes well-conditioned data"));
    });
    let t_rsvd = time_per_call(|| {
        black_box(rsvd(&x, &config, &mut StdRng::seed_from_u64(seed)));
    });
    (t_rsvd * 1e6, t_route * 1e6, t_gram * 1e6)
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
        "Sketch products (kernel::gemm_blocked, 1 thread), operands read in place vs packed, \
         us per call and GFLOP/s"
    );
    let mut sketch_rows: Vec<Vec<String>> = Vec::new();
    let serial = ThreadPool::new(1);
    for &(label, ta, tb, m, n, k) in &SKETCH_SHAPES {
        let mut rng = StdRng::seed_from_u64(seed ^ (m * n * k) as u64);
        let a = if ta == Trans::N {
            gaussian_mat(m, k, &mut rng)
        } else {
            gaussian_mat(k, m, &mut rng)
        };
        let b = if tb == Trans::N {
            gaussian_mat(k, n, &mut rng)
        } else {
            gaussian_mat(n, k, &mut rng)
        };
        let gflop = 2.0 * (m * n * k) as f64 / 1e9;
        let mut c = Mat::zeros(m, n);
        let mut time_with = |in_place| {
            kernel::pinned(Pin { in_place: Some(in_place), portable: false }, || {
                time_per_call(|| {
                    kernel::gemm_blocked(ta, tb, &a, &b, &mut c, &serial);
                    black_box(&c);
                })
            })
        };
        let (t_in_place, t_packed) = (time_with(true), time_with(false));
        sketch_rows.push(vec![
            label.into(),
            format!("{m}x{n}x{k} {ta:?}{tb:?}"),
            format!("{:.1}", t_in_place * 1e6),
            format!("{:.2}", gflop / t_in_place),
            format!("{:.1}", t_packed * 1e6),
            format!("{:.2}", gflop / t_packed),
            format!("{:.2}x", t_packed / t_in_place),
        ]);
    }
    let header =
        ["product", "m x n x k", "in place us", "GFLOP/s", "packed us", "GFLOP/s", "speedup"];
    print_table(&header, &sketch_rows);
    println!();

    println!(
        "Stage-1 Grams (gram_into, 1 thread), us per call and GFLOP/s of the upper \
         triangle (rows·n·(n+1) flops): the kernel this CPU runs, and the unfused \
         portable one (pinned)"
    );
    let mut gram_rows: Vec<Vec<String>> = Vec::new();
    for (label, rows, cols, outer) in GRAM_SHAPES {
        let x = gaussian_mat(rows, cols, &mut StdRng::seed_from_u64(seed ^ (rows * cols) as u64));
        let x = if outer { x.transpose() } else { x };
        let (depth, n) = x.shape();
        let gflop = (depth * n * (n + 1)) as f64 / 1e9;
        let mut g = Mat::default();
        let mut time_on = |portable| {
            kernel::pinned(Pin { in_place: None, portable }, || {
                let name = kernel::gram_kernel().name();
                let t = time_per_call(|| {
                    gram_into(&x, &mut g);
                    black_box(&g);
                });
                (name, t)
            })
        };
        let (own, unfused) = (time_on(false), time_on(true));
        for (name, t) in [own, unfused] {
            gram_rows.push(vec![
                label.into(),
                format!("{rows}x{cols}{}", if outer { " X·Xᵀ" } else { "" }),
                name.into(),
                format!("{:.2}", t * 1e6),
                format!("{:.2}", gflop / t),
                format!("{:.2}x", unfused.1 / t),
            ]);
        }
    }
    print_table(&["matrix", "shape", "kernel", "us", "GFLOP/s", "vs unfused"], &gram_rows);
    println!();

    println!(
        "Small products (gemm's naive path, 1 thread): the register-tiled loops against \
         the reference loops (kernel::gemm_naive_into), us per call and GFLOP/s"
    );
    let mut small_rows: Vec<Vec<String>> = Vec::new();
    for (label, ta, m, n, k) in SMALL_SHAPES {
        assert!(!kernel::use_blocked(m, n, k), "{label}: not on the naive path");
        let mut rng = StdRng::seed_from_u64(seed ^ (m * n * k) as u64);
        let a = if ta == Trans::N {
            gaussian_mat(m, k, &mut rng)
        } else {
            gaussian_mat(k, m, &mut rng)
        };
        let b = gaussian_mat(k, n, &mut rng);
        let gflop = 2.0 * (m * n * k) as f64 / 1e9;
        let mut c = Mat::default();
        let t_tiled = time_per_call(|| {
            gemm(ta, Trans::N, &a, &b, &mut c, &serial);
            black_box(&c);
        });
        let t_ref = time_per_call(|| {
            kernel::gemm_naive_into(ta, Trans::N, &a, &b, &mut c);
            black_box(&c);
        });
        small_rows.push(vec![
            label.into(),
            format!("{m}x{n}x{k} {ta:?}N"),
            format!("{:.3}", t_tiled * 1e6),
            format!("{:.2}", gflop / t_tiled),
            format!("{:.3}", t_ref * 1e6),
            format!("{:.2}", gflop / t_ref),
            format!("{:.2}x", t_ref / t_tiled),
        ]);
    }
    let header =
        ["product", "m x n x k", "tiled us", "GFLOP/s", "reference us", "GFLOP/s", "speedup"];
    print_table(&header, &small_rows);
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

    println!("Compression route, rank 10, R + s = 18, 1 thread, us per matrix (lower is better)");
    let mut route_rows: Vec<Vec<String>> = Vec::new();
    let shapes = ROUTE_SHAPES.iter().copied();
    let sweep = ROUTE_SWEEP.iter().map(|&m| ("kappa sweep", 540, m));
    for (label, rows, cols) in shapes.chain(sweep) {
        let (t_rsvd, t_route, t_gram) = route_times(rows, cols, seed ^ (rows * cols) as u64);
        route_rows.push(vec![
            label.into(),
            format!("{rows}x{cols}"),
            format!("{:.1}", rows.min(cols) as f64 / 18.0),
            format!("{t_rsvd:.1}"),
            format!("{t_route:.1}"),
            format!("{t_gram:.1}"),
            format!("{:.2}x", t_rsvd / t_route),
        ]);
    }
    let header = ["matrix", "shape", "m/(R+s)", "rsvd", "Gram route", "of which Gram", "speedup"];
    print_table(&header, &route_rows);
    println!();
    println!(
        "note: pooled speedup tracks physical cores; correctness across paths is \
         pinned by crates/linalg/tests/gemm_differential.rs (pooled is bit-identical \
         to blocked for every thread count)."
    );
}
