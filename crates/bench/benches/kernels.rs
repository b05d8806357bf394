//! Criterion microbenchmarks for the computational kernels behind the
//! paper's per-iteration and preprocessing claims, plus ablations (run them
//! as the "Benchmarks" section of README.md shows):
//!
//! * `rsvd_vs_exact` — Algorithm 1 vs full Jacobi SVD (compression cost).
//! * `rsvd_power_iters` — q ∈ {0, 1, 2} accuracy/cost ablation.
//! * `lemma_kernels` — Lemmas 1–3 vs naive MTTKRP on materialized Y (the
//!   O(JR²+KR³) vs O(JKR²) claim).
//! * `convergence` — compressed criterion vs true reconstruction error
//!   (§III-E).
//! * `partitioning` — greedy (Algorithm 4) vs round-robin.
//! * `gemm` — the base matmul kernels everything sits on.
//! * `gemm_sketch` — stage 1's sketch products on a tall-slices slice
//!   (`A·Ω`, `Aᵀ·Q`, `Qᵀ·A` at 540×88, sketch width 18), which read their
//!   operands in place.
//! * `qr` — the Householder QR behind every rSVD pass, on the shapes the
//!   pipeline factors (stage-1 sketches, stage 2's tall factorization).
//! * `svd_batch` — sixteen small Jacobi SVDs through the lane-batched kernel
//!   vs one at a time, at the `Q_k` step's `R×R` and stage 1's sketch
//!   shape.
//! * `qk_svd` — one 16-slice group of the `Q_k` step's `R×R` SVDs through
//!   the lane-native kernel, lane stores in and out.
//! * `qk_chain` — one 16-slice group of the `Q_k` step's `R×R` product
//!   chain, one slice per lane vs one `gemm` call per product.
//! * `two_stage_ablation` — two-stage compression vs stage-1-only.
//! * `compress_route` — one matrix's rank-10 factorization through the
//!   randomized SVD vs the Gram route (`gram_into` plus `gram_svd`), at
//!   stage 1's tall-slices (540×88) and many-slices (60×48) shapes and
//!   stage 2's 48×15000.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpar2_baselines::common::true_error_sq;
use dpar2_bench::QkChain;
use dpar2_core::compress::compress;
use dpar2_core::config::FitOptions;
use dpar2_core::convergence::compressed_criterion_ws;
use dpar2_core::lemmas::{g1_ws, g2_ws, g3_ws, materialize_y, naive_g1, naive_g2, naive_g3};
use dpar2_core::{gram_svd, Workspace};
use dpar2_data::planted_parafac2;
use dpar2_linalg::kernel::{self, Trans};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{
    gram_into, interleave_lanes, qr_into, svd_square_lanes, svd_thin_batch_into, svd_truncated,
    Mat, QrScratch, SvdBatchScratch, SvdFactors, SvdScratch, SVD_LANES,
};
use dpar2_parallel::{greedy_partition, round_robin_partition, ThreadPool};
use dpar2_rsvd::{rsvd, RsvdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_rsvd_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsvd_vs_exact");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(1);
    for &(m, n) in &[(400usize, 120usize), (800, 200)] {
        let a = {
            let u = gaussian_mat(m, 10, &mut rng);
            let v = gaussian_mat(n, 10, &mut rng);
            let mut x = u.matmul_nt(&v).unwrap();
            x.axpy(0.05, &gaussian_mat(m, n, &mut rng));
            x
        };
        group.bench_with_input(BenchmarkId::new("rsvd_q1", format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(2);
                black_box(rsvd(a, &RsvdConfig::new(10), &mut r))
            })
        });
        group.bench_with_input(BenchmarkId::new("exact_svd", format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| black_box(svd_truncated(a, 10)))
        });
    }
    group.finish();
}

fn bench_rsvd_power_iters(c: &mut Criterion) {
    let mut group = c.benchmark_group("rsvd_power_iters");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let a = {
        let u = gaussian_mat(600, 12, &mut rng);
        let v = gaussian_mat(150, 12, &mut rng);
        let mut x = u.matmul_nt(&v).unwrap();
        x.axpy(0.1, &gaussian_mat(600, 150, &mut rng));
        x
    };
    for q in [0usize, 1, 2] {
        group.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| {
                let mut r = StdRng::seed_from_u64(4);
                let cfg = RsvdConfig { rank: 10, oversample: 8, power_iterations: q };
                black_box(rsvd(&a, &cfg, &mut r))
            })
        });
    }
    group.finish();
}

/// Shared fixture for the iteration kernels: K factorized slices.
struct LemmaFixture {
    pzf: Vec<Mat>,
    edt: Mat,
    de: Mat,
    v: Mat,
    h: Mat,
    w: Mat,
    edtv: Mat,
}

fn lemma_fixture(k: usize, j: usize, r: usize) -> LemmaFixture {
    let mut rng = StdRng::seed_from_u64(5);
    let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
    let d = gaussian_mat(j, r, &mut rng);
    let e: Vec<f64> = (0..r).map(|i| 1.0 + i as f64).collect();
    let mut edt = d.transpose();
    for (row, &ev) in e.iter().enumerate() {
        for x in edt.row_mut(row) {
            *x *= ev;
        }
    }
    let mut de = d;
    for i in 0..j {
        let rr = de.row_mut(i);
        for (c, &ev) in e.iter().enumerate() {
            rr[c] *= ev;
        }
    }
    let v = gaussian_mat(j, r, &mut rng);
    let h = gaussian_mat(r, r, &mut rng);
    let w = gaussian_mat(k, r, &mut rng);
    let edtv = edt.matmul(&v).unwrap();
    LemmaFixture { pzf, edt, de, v, h, w, edtv }
}

fn bench_lemma_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma_kernels");
    group.sample_size(20);
    let fx = lemma_fixture(300, 256, 10);
    let pool = ThreadPool::new(1);
    let y = materialize_y(&fx.pzf, &fx.edt);
    let (mut g, mut ws) = (Mat::default(), Workspace::new());

    group.bench_function("g1_lemma", |b| {
        b.iter(|| g1_ws(&fx.pzf, &fx.w, &fx.edtv, &pool, black_box(&mut g), &mut ws))
    });
    group.bench_function("g1_naive", |b| b.iter(|| black_box(naive_g1(&y, &fx.v, &fx.w))));
    group.bench_function("g2_lemma", |b| {
        b.iter(|| g2_ws(&fx.pzf, &fx.w, &fx.h, &fx.de, &pool, black_box(&mut g), &mut ws))
    });
    group.bench_function("g2_naive", |b| b.iter(|| black_box(naive_g2(&y, &fx.h, &fx.w))));
    group.bench_function("g3_lemma", |b| {
        b.iter(|| g3_ws(&fx.pzf, &fx.edtv, &fx.h, &pool, black_box(&mut g), &mut ws))
    });
    group.bench_function("g3_naive", |b| b.iter(|| black_box(naive_g3(&y, &fx.h, &fx.v))));
    group.finish();
}

fn bench_convergence(c: &mut Criterion) {
    let mut group = c.benchmark_group("convergence");
    group.sample_size(10);
    // A real tensor + its compression so both criteria are meaningful.
    let t = planted_parafac2(&[200, 300, 150, 250], 128, 10, 0.1, 6);
    let cfg = FitOptions::new(10).with_seed(7);
    let ct = compress(&t, &cfg).unwrap();
    let fx = lemma_fixture(t.k(), t.j(), 10);
    let pool = ThreadPool::new(1);
    let edt = ct.edt();
    // Q_k for the true-error oracle: orthonormal bases from the compression.
    let qs: Vec<Mat> = ct.a;

    let mut ws = Workspace::new();
    group.bench_function("compressed_criterion", |b| {
        b.iter(|| {
            black_box(compressed_criterion_ws(&fx.pzf, &edt, &fx.h, &fx.w, &fx.v, &pool, &mut ws))
        })
    });
    group.bench_function("true_reconstruction_error", |b| {
        b.iter(|| black_box(true_error_sq(&t, &qs, &fx.h, &fx.w, &fx.v, &pool)))
    });
    group.finish();
}

fn bench_partitioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitioning");
    let weights: Vec<usize> = (1..=4000).map(|i| 5000 / i + 50).collect();
    group.bench_function("greedy", |b| b.iter(|| black_box(greedy_partition(&weights, 10))));
    group.bench_function("round_robin", |b| {
        b.iter(|| black_box(round_robin_partition(weights.len(), 10)))
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(8);
    let a = gaussian_mat(256, 256, &mut rng);
    let b_m = gaussian_mat(256, 256, &mut rng);
    // Public entry points (size-dispatched onto the blocked kernel layer).
    group.bench_function("matmul_256", |b| b.iter(|| black_box(a.matmul(&b_m).unwrap())));
    group.bench_function("matmul_tn_256", |b| b.iter(|| black_box(a.matmul_tn(&b_m).unwrap())));
    group.bench_function("matmul_nt_256", |b| b.iter(|| black_box(a.matmul_nt(&b_m).unwrap())));
    // The dispatch ablation: retained naive reference vs forced blocked vs
    // pooled (see `--bin gemm_kernels` for the full size/thread sweep).
    let mut out = Mat::zeros(256, 256);
    group.bench_function("naive_256", |b| {
        b.iter(|| {
            kernel::gemm_naive_into(Trans::N, Trans::N, &a, &b_m, &mut out);
            black_box(&out);
        })
    });
    let serial = ThreadPool::new(1);
    group.bench_function("blocked_256", |b| {
        b.iter(|| {
            kernel::gemm_blocked(Trans::N, Trans::N, &a, &b_m, &mut out, &serial);
            black_box(&out);
        })
    });
    let pool = ThreadPool::new(4);
    group.bench_function("pooled4_256", |b| {
        b.iter(|| {
            kernel::gemm_blocked(Trans::N, Trans::N, &a, &b_m, &mut out, &pool);
            black_box(&out);
        })
    });
    group.finish();
}

fn bench_gemm_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_sketch");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(9);
    let a = gaussian_mat(540, 88, &mut rng);
    let omega = gaussian_mat(88, 18, &mut rng);
    let q = gaussian_mat(540, 18, &mut rng);
    let serial = ThreadPool::new(1);
    let mut out = Mat::zeros(0, 0);
    let products: [(&str, Trans, &Mat, &Mat); 3] = [
        ("a_omega_540x88", Trans::N, &a, &omega),
        ("at_q_540x88", Trans::T, &a, &q),
        ("qt_a_540x88", Trans::T, &q, &a),
    ];
    for (name, ta, x, y) in products {
        group.bench_function(name, |b| {
            b.iter(|| {
                dpar2_linalg::gemm(ta, Trans::N, x, y, &mut out, &serial);
                black_box(&out);
            })
        });
    }
    group.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(12);
    let (mut q, mut r, mut ws) = (Mat::default(), Mat::default(), QrScratch::default());
    for &(m, n) in &[(790usize, 18usize), (88, 18), (48, 18), (15000, 18)] {
        let a = gaussian_mat(m, n, &mut rng);
        group.bench_function(BenchmarkId::from_parameter(format!("{m}x{n}")), |b| {
            b.iter(|| {
                qr_into(&a, &mut q, &mut r, &mut ws);
                black_box((&q, &r));
            })
        });
    }
    group.finish();
}

fn bench_svd_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd_batch");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(13);
    let mut out = vec![SvdFactors::default(); SVD_LANES];
    let (mut batch_ws, mut scalar_ws) = (SvdBatchScratch::default(), SvdScratch::default());
    for &(m, n) in &[(10usize, 10usize), (18, 18), (18, 48)] {
        let lanes: Vec<Mat> = (0..SVD_LANES).map(|_| gaussian_mat(m, n, &mut rng)).collect();
        group.bench_function(BenchmarkId::new("batched", format!("{m}x{n}")), |b| {
            b.iter(|| {
                svd_thin_batch_into(&lanes, &mut out, &mut batch_ws);
                black_box(&out);
            })
        });
        group.bench_function(BenchmarkId::new("one_at_a_time", format!("{m}x{n}")), |b| {
            b.iter(|| {
                for (a, o) in lanes.iter().zip(out.iter_mut()) {
                    svd_thin_into(a, o, &mut scalar_ws);
                }
                black_box(&out);
            })
        });
    }
    group.finish();
}

fn bench_qk_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("qk_svd");
    group.sample_size(20);
    let (n, mut rng) = (10, StdRng::seed_from_u64(15));
    let mats: Vec<Mat> = (0..SVD_LANES).map(|_| gaussian_mat(n, n, &mut rng)).collect();
    let mut a = Vec::new();
    interleave_lanes(&mats, n, &mut a);
    let (mut u, mut s, mut v, mut ws) =
        (Vec::new(), Vec::new(), Vec::new(), SvdBatchScratch::default());
    group.bench_function("lanes_10", |b| {
        b.iter(|| {
            svd_square_lanes(n, SVD_LANES, &a, &mut u, &mut s, &mut v, &mut ws);
            black_box((&u, &s, &v));
        })
    });
    group.finish();
}

fn bench_qk_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("qk_chain");
    group.sample_size(20);
    let mut chain = QkChain::new(10, 14);
    group.bench_function("lanes_10", |b| {
        b.iter(|| {
            chain.lanes();
            black_box(&chain);
        })
    });
    group.bench_function("per_slice_10", |b| {
        b.iter(|| {
            chain.per_slice();
            black_box(&chain);
        })
    });
    group.finish();
}

fn bench_two_stage_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("two_stage_ablation");
    group.sample_size(10);
    let t = planted_parafac2(&[150, 220, 180, 120, 200], 96, 10, 0.1, 9);
    let cfg = FitOptions::new(10).with_seed(10);
    group.bench_function("two_stage_compress", |b| {
        b.iter(|| black_box(compress(&t, &cfg).unwrap()))
    });
    // Stage-1 only: the per-slice rSVDs without the second concatenated SVD
    // (what a one-stage design would pay, leaving KR-wide intermediates).
    group.bench_function("stage1_only", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(11);
            let out: Vec<_> =
                t.slice_views().map(|x| rsvd(x, &RsvdConfig::new(10), &mut rng)).collect();
            black_box(out)
        })
    });
    group.finish();
}

fn bench_compress_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("compress_route");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(13);
    let (config, serial) = (RsvdConfig::new(10), ThreadPool::new(1));
    for &(m, n) in &[(540usize, 88usize), (60, 48), (48, 15000)] {
        let mut x = gaussian_mat(m, 10, &mut rng).matmul_nt(gaussian_mat(n, 10, &mut rng)).unwrap();
        x.axpy(0.1, &gaussian_mat(m, n, &mut rng));
        group.bench_function(BenchmarkId::new("rsvd", format!("{m}x{n}")), |b| {
            b.iter(|| black_box(rsvd(&x, &config, &mut StdRng::seed_from_u64(14))))
        });
        let mut g = Mat::default();
        group.bench_function(BenchmarkId::new("gram", format!("{m}x{n}")), |b| {
            b.iter(|| {
                if m < n {
                    dpar2_linalg::gemm(Trans::N, Trans::T, &x, &x, &mut g, &serial);
                } else {
                    gram_into(&x, &mut g);
                }
                black_box(gram_svd(&x, &mut g, &config, &mut StdRng::seed_from_u64(14), &serial))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rsvd_vs_exact,
    bench_rsvd_power_iters,
    bench_lemma_kernels,
    bench_convergence,
    bench_partitioning,
    bench_gemm,
    bench_gemm_sketch,
    bench_qr,
    bench_svd_batch,
    bench_qk_svd,
    bench_qk_chain,
    bench_two_stage_ablation,
    bench_compress_route
);
criterion_main!(benches);
