//! # dpar2-rsvd
//!
//! Randomized Singular Value Decomposition — Algorithm 1 of the DPar2 paper,
//! following Halko, Martinsson & Tropp, *"Finding Structure with
//! Randomness"*, SIAM Review 2011 (reference 20 of the paper).
//!
//! Given `A ∈ R^{I×J}` and a target rank `R`:
//!
//! 1. draw a Gaussian test matrix `Ω ∈ R^{J×(R+s)}`,
//! 2. form the sketch `Y = (A Aᵀ)^q A Ω`,
//! 3. orthonormalize `Q R ← Y` by QR,
//! 4. project `B = Qᵀ A ∈ R^{(R+s)×J}`,
//! 5. take the truncated exact SVD `Ũ Σ Vᵀ ← B` at rank `R`,
//! 6. return `U = Q Ũ`, `Σ`, `V`.
//!
//! The oversampling parameter `s` and the power-iteration exponent `q` trade
//! accuracy for time; the paper uses the rank of the randomized SVD equal to
//! the PARAFAC2 target rank (§IV-A "we set the rank of randomized SVD to
//! 10"), and our defaults (`s = 8`, `q = 1`) follow standard practice from
//! the Halko et al. recommendations.
//!
//! DPar2's two compression stages (each slice `X_k ≈ A_k B_k C_kᵀ`, then
//! the concatenated `M = ∥_k C_k B_k`) factor a matrix whose smaller side
//! is small through its Gram instead (`dpar2_core::gram_svd`); this is
//! their fallback — for a matrix whose smaller side is large, whose Gram
//! would leave the route's scale window, or that is rank-deficient. Stage 1
//! runs the halves separately — [`rsvd_sketch`] per slice, step 5 for a
//! group of slices at once, [`rsvd_lift`] per slice — which is the same
//! code path [`rsvd_pooled`] takes, split where the batch goes in.
//!
//! The pipeline is generic over a [`ProductOp`] operator (see [`ops`]):
//! dense [`dpar2_linalg::MatRef`] runs [`dpar2_linalg::gemm`] on the pool
//! (exactly the historical dense code), while a CSR
//! [`dpar2_linalg::sparse::SparseSlice`] runs the `spmm*_into` kernels at
//! O(nnz·(r+s)) per pass — the lever that makes DPar2's compression O(nnz)
//! on sparse tensors.

pub mod ops;

pub use ops::{ProductOp, SparseVStack};

use dpar2_linalg::{
    gaussian_mat, gemm, qr_into, svd::truncate, svd_thin, Mat, QrScratch, SvdFactors, Trans,
};
use dpar2_parallel::ThreadPool;
use rand::Rng;

/// Configuration for randomized SVD.
#[derive(Debug, Clone, Copy)]
pub struct RsvdConfig {
    /// Target rank `R` of the truncated factorization.
    pub rank: usize,
    /// Oversampling `s`: the sketch uses `R + s` random directions.
    pub oversample: usize,
    /// Power-iteration exponent `q` in `(A Aᵀ)^q A Ω`. Each unit sharpens
    /// the spectral decay of the sketch at the cost of two extra passes
    /// over `A`.
    pub power_iterations: usize,
}

impl RsvdConfig {
    /// Standard configuration used throughout the reproduction:
    /// oversampling 8, one power iteration.
    pub fn new(rank: usize) -> Self {
        RsvdConfig { rank, oversample: 8, power_iterations: 1 }
    }

    /// Configuration without power iterations (fastest, least accurate —
    /// the `q = 0` point of the ablation bench).
    pub fn without_power_iterations(rank: usize) -> Self {
        RsvdConfig { rank, oversample: 8, power_iterations: 0 }
    }
}

/// Randomized truncated SVD `A ≈ U Σ Vᵀ` at `config.rank`, serial form of
/// [`rsvd_pooled`].
///
/// Returns factors with `U ∈ R^{I×r}`, `V ∈ R^{J×r}`, `r = min(rank, I, J)`.
/// The sketch width is additionally capped at `min(I, J)` so tiny matrices
/// degrade gracefully to an exact (thin) SVD.
pub fn rsvd(op: impl ProductOp, config: &RsvdConfig, rng: &mut impl Rng) -> SvdFactors {
    rsvd_pooled(op, config, rng, &ThreadPool::new(1))
}

/// [`rsvd`] with every pass over `A` — the sketch `A·Ω`, the power
/// iterations `Aᵀ·Q` / `A·Qz`, the projection `Qᵀ·A`, and the final lift
/// `Q·Ũ` — running on `pool`. These chained tall-matrix products dominate
/// the rSVD cost, so this is where DPar2's compression stages spend their
/// threads when slices are too few (or too skewed) to saturate the
/// per-slice fan-out. Per pass the cost is one `mm`/`mm_t`/`proj` call on
/// the operator (O(nnz·(r+s)) for CSR) plus small dense QR/SVD work on the
/// sketch. Results are **bit-identical** for every pool size (both
/// operator families fix their reduction order), so `rsvd(a, c, rng)` and
/// `rsvd_pooled(a, c, rng, pool)` agree exactly given equal RNG streams.
///
/// It is [`rsvd_sketch`] (steps 1–4), the exact SVD of `B` (step 5) and
/// [`rsvd_lift`] (step 6); a caller with several sketches of one shape
/// can factor their `B`s together instead
/// ([`dpar2_linalg::svd_thin_batch_into`], bitwise the same factors).
pub fn rsvd_pooled(
    op: impl ProductOp,
    config: &RsvdConfig,
    rng: &mut impl Rng,
    pool: &ThreadPool,
) -> SvdFactors {
    match rsvd_sketch(op, config, rng, pool) {
        RsvdSketch::Exact(f) => f,
        RsvdSketch::Range { q, b, rank } => rsvd_lift(&q, &svd_thin(&b), rank, pool),
    }
}

/// What steps 1–4 of [`rsvd_pooled`] leave for the small exact SVD.
#[derive(Debug, Clone)]
pub enum RsvdSketch {
    /// No sketch was needed: an empty matrix, or one whose sketch would
    /// span the whole space — the exact thin SVD is both cheaper and more
    /// accurate there. These are the final factors.
    Exact(SvdFactors),
    /// The orthonormal range basis `Q` (`I × (R+s)`) and the projection
    /// `B = Qᵀ A` (`(R+s) × J`), to be factored and lifted at `rank`.
    Range {
        /// Orthonormal range basis.
        q: Mat,
        /// Projection `Qᵀ A`.
        b: Mat,
        /// Target rank `min(R, I, J)`.
        rank: usize,
    },
}

/// Steps 1–4 of Algorithm 1 on `pool`: the test matrix, the power
/// iterations, the range basis `Q` and the projection `B = Qᵀ A`.
///
/// All QR factorizations share one [`QrScratch`] and one pair of `Q`/`R`
/// buffers, so the power-iteration re-orthonormalizations stop allocating
/// fresh scratch every pass (repeated compressions — streaming refits —
/// no longer churn the allocator).
pub fn rsvd_sketch(
    op: impl ProductOp,
    config: &RsvdConfig,
    rng: &mut impl Rng,
    pool: &ThreadPool,
) -> RsvdSketch {
    let (i, j) = op.shape();
    let min_dim = i.min(j);
    if min_dim == 0 {
        return RsvdSketch::Exact(SvdFactors {
            u: Mat::zeros(i, 0),
            s: vec![],
            v: Mat::zeros(j, 0),
        });
    }
    let rank = config.rank.min(min_dim);
    let sketch = (config.rank + config.oversample).min(min_dim);
    if sketch >= min_dim {
        return RsvdSketch::Exact(truncate(&op.svd_exact(), rank));
    }

    // 1. Gaussian test matrix Ω ∈ R^{J×sketch}.
    let omega = gaussian_mat(j, sketch, rng);
    // 2. Y = (A Aᵀ)^q A Ω, re-orthonormalized between powers for stability.
    let mut y = Mat::zeros(0, 0);
    op.mm_into(&omega, &mut y, pool);
    let mut ws = QrScratch::default();
    let mut q = Mat::zeros(0, 0);
    let mut r = Mat::zeros(0, 0);
    let mut z = Mat::zeros(0, 0);
    for _ in 0..config.power_iterations {
        qr_into(&y, &mut q, &mut r, &mut ws);
        op.mm_t_into(&q, &mut z, pool); // J × sketch
        qr_into(&z, &mut q, &mut r, &mut ws);
        op.mm_into(&q, &mut y, pool);
    }
    // 3. Orthonormal range basis (I × sketch).
    qr_into(&y, &mut q, &mut r, &mut ws);
    // 4. Project: B = Qᵀ A (sketch × J).
    let mut b = Mat::zeros(0, 0);
    op.proj_into(&q, &mut b, pool);
    RsvdSketch::Range { q, b, rank }
}

/// Steps 5–6 of Algorithm 1 given the exact thin SVD `b_svd` of a
/// sketch's `B`: truncate it to `rank` and lift the left factor back,
/// `U = Q Ũ`, on `pool`.
pub fn rsvd_lift(q: &Mat, b_svd: &SvdFactors, rank: usize, pool: &ThreadPool) -> SvdFactors {
    let small = truncate(b_svd, rank);
    let mut u = Mat::zeros(0, 0);
    gemm(Trans::N, Trans::N, q, &small.u, &mut u, pool);
    SvdFactors { u, s: small.s, v: small.v }
}

/// Result of [`svd_truncated_energy_pooled`]: the energy-truncated factors plus
/// the bookkeeping needed to audit the cut.
#[derive(Debug, Clone)]
pub struct EnergyTruncation {
    /// `A ≈ U Σ Vᵀ` truncated at [`rank`](EnergyTruncation::rank).
    pub factors: SvdFactors,
    /// Smallest rank whose cumulative spectral energy `Σ_{i≤r} σ_i²`
    /// reaches `threshold · total_energy` (clamped to `1..=` the probed
    /// spectrum length).
    pub rank: usize,
    /// `Σ_{i≤rank} σ_i²` of the probed spectrum.
    pub captured_energy: f64,
    /// `‖A‖²_F`, computed exactly from the data — the correct denominator
    /// even when the probed spectrum misses tail energy (`max_rank` <
    /// numerical rank).
    pub total_energy: f64,
}

/// Adaptive-rank truncation: probes the spectrum with a rank-`config.rank`
/// randomized SVD and keeps the smallest leading block capturing at least
/// `threshold · ‖A‖²_F` of the spectral energy (the
/// truncation-by-relative-error rule of SVD-compression pipelines, e.g.
/// tensorly's `svd_compress_tensor_slices`).
///
/// `config.rank` acts as the **maximum** rank; the chosen rank is clamped
/// to `1..=` the probed spectrum length, so `threshold ≤ 0` keeps one
/// component and `threshold ≥ 1` keeps everything probed. The energy
/// denominator is the exact `‖A‖²_F` — if even the full probe can't reach
/// the threshold (the matrix has significant energy past `max_rank`), the
/// full probed rank is kept, which is the best this budget can do.
///
/// Runs on any [`ProductOp`] — a CSR slice, or a [`SparseVStack`] standing
/// in for a stacked sparse tensor, probes at O(nnz) per pass — with the
/// exact `‖A‖²_F` denominator from the operator itself. Deterministic for a
/// fixed RNG stream and bit-identical across pool sizes (inherits both
/// properties from [`rsvd_pooled`]).
pub fn svd_truncated_energy_pooled(
    op: impl ProductOp,
    config: &RsvdConfig,
    threshold: f64,
    rng: &mut impl Rng,
    pool: &ThreadPool,
) -> EnergyTruncation {
    let total_energy = op.fro_norm_sq();
    let probe = rsvd_pooled(&op, config, rng, pool);
    if probe.s.is_empty() {
        return EnergyTruncation { factors: probe, rank: 0, captured_energy: 0.0, total_energy };
    }
    let target = threshold * total_energy;
    let mut rank = probe.s.len();
    let mut cumulative = 0.0;
    for (i, &sigma) in probe.s.iter().enumerate() {
        cumulative += sigma * sigma;
        if cumulative >= target {
            rank = i + 1;
            break;
        }
    }
    let captured_energy: f64 = probe.s[..rank].iter().map(|&s| s * s).sum();
    let factors = truncate(&probe, rank);
    EnergyTruncation { factors, rank, captured_energy, total_energy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat as gmat;
    use dpar2_linalg::{product, qr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// [`svd_truncated_energy_pooled`] on a one-thread pool.
    fn serial_energy(
        a: impl ProductOp,
        config: &RsvdConfig,
        threshold: f64,
        rng: &mut impl Rng,
    ) -> EnergyTruncation {
        svd_truncated_energy_pooled(a, config, threshold, rng, &ThreadPool::new(1))
    }

    /// Low-rank-plus-noise matrix: rank `r` signal with noise at `eps`.
    fn low_rank_noisy(i: usize, j: usize, r: usize, eps: f64, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = gmat(i, r, &mut rng);
        let v = gmat(j, r, &mut rng);
        let mut m = product(Trans::N, Trans::T, &u, &v);
        let noise = gmat(i, j, &mut rng);
        m.axpy(eps, &noise);
        m
    }

    #[test]
    fn recovers_exact_low_rank() {
        let a = low_rank_noisy(60, 40, 5, 0.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let f = rsvd(&a, &RsvdConfig::new(5), &mut rng);
        let err = (&a - &f.reconstruct()).fro_norm() / a.fro_norm();
        assert!(err < 1e-9, "exact low-rank not recovered: rel err {err}");
    }

    #[test]
    fn near_optimal_on_noisy_low_rank() {
        let a = low_rank_noisy(80, 50, 6, 0.01, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let f = rsvd(&a, &RsvdConfig::new(6), &mut rng);
        let exact = dpar2_linalg::svd::svd_truncated(&a, 6);
        let err_r = (&a - &f.reconstruct()).fro_norm();
        let err_e = (&a - &exact.reconstruct()).fro_norm();
        // Within 5% of the optimal rank-6 error.
        assert!(err_r <= err_e * 1.05, "rsvd err {err_r} vs optimal {err_e}");
    }

    #[test]
    fn scaling_by_a_power_of_two_scales_only_s() {
        // Every step is scale-free under a power of two (the QRs build
        // their reflectors from scaled columns far from norm 1), so `U` and
        // `V` keep their bits and `s` scales exactly.
        let a = gmat(200, 40, &mut StdRng::seed_from_u64(13));
        let config = RsvdConfig::new(6);
        let base = rsvd(&a, &config, &mut StdRng::seed_from_u64(14));
        for k in [-900, -600, -540, 520, 600, 900] {
            let c = f64::from_bits(((k + 1023) as u64) << 52);
            let scaled = Mat::from_fn(200, 40, |i, j| a.at(i, j) * c);
            let f = rsvd(&scaled, &config, &mut StdRng::seed_from_u64(14));
            assert_eq!(f.u, base.u, "2^{k}: U");
            assert_eq!(f.v, base.v, "2^{k}: V");
            for (x, y) in f.s.iter().zip(&base.s) {
                assert_eq!(x.to_bits(), (y * c).to_bits(), "2^{k}: s");
            }
        }
    }

    #[test]
    fn factors_orthonormal() {
        let a = low_rank_noisy(50, 30, 4, 0.1, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let f = rsvd(&a, &RsvdConfig::new(4), &mut rng);
        assert!((&product(Trans::T, Trans::N, &f.u, &f.u) - &Mat::eye(4)).fro_norm() < 1e-10);
        assert!((&product(Trans::T, Trans::N, &f.v, &f.v) - &Mat::eye(4)).fro_norm() < 1e-10);
    }

    #[test]
    fn singular_values_sorted_and_close_to_exact() {
        let a = low_rank_noisy(70, 45, 8, 0.001, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let f = rsvd(&a, &RsvdConfig::new(8), &mut rng);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        let exact = dpar2_linalg::svd::svd_truncated(&a, 8);
        for (approx, truth) in f.s.iter().zip(&exact.s) {
            assert!((approx - truth).abs() < 1e-3 * truth.max(1.0));
        }
    }

    #[test]
    fn power_iterations_improve_accuracy() {
        // Slowly decaying spectrum: q=1 must beat q=0 (on average; the seed
        // is fixed so this is deterministic).
        let mut rng = StdRng::seed_from_u64(9);
        let i = 100;
        let j = 80;
        let u = qr(gmat(i, j, &mut rng)).q;
        let v = qr(gmat(j, j, &mut rng)).q;
        let s: Vec<f64> = (0..j).map(|idx| 1.0 / (1.0 + idx as f64).sqrt()).collect();
        let mut us = u;
        for row in 0..i {
            let r = us.row_mut(row);
            for (c, &sv) in s.iter().enumerate() {
                r[c] *= sv;
            }
        }
        let a = product(Trans::N, Trans::T, &us, &v);

        let mut rng0 = StdRng::seed_from_u64(10);
        let f0 = rsvd(&a, &RsvdConfig::without_power_iterations(10), &mut rng0);
        let mut rng1 = StdRng::seed_from_u64(10);
        let f1 = rsvd(&a, &RsvdConfig { rank: 10, oversample: 8, power_iterations: 2 }, &mut rng1);
        let e0 = (&a - &f0.reconstruct()).fro_norm();
        let e1 = (&a - &f1.reconstruct()).fro_norm();
        assert!(e1 <= e0 + 1e-12, "power iterations made things worse: {e1} > {e0}");
    }

    #[test]
    fn small_matrix_falls_back_to_exact() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let mut rng = StdRng::seed_from_u64(11);
        let f = rsvd(&a, &RsvdConfig::new(2), &mut rng);
        let err = (&a - &f.reconstruct()).fro_norm();
        assert!(err < 1e-10);
    }

    #[test]
    fn rank_capped_by_dimensions() {
        let a = gmat(5, 3, &mut StdRng::seed_from_u64(12));
        let mut rng = StdRng::seed_from_u64(13);
        let f = rsvd(&a, &RsvdConfig::new(10), &mut rng);
        assert_eq!(f.s.len(), 3);
    }

    #[test]
    fn pooled_bitwise_matches_serial_for_every_thread_count() {
        // Large enough that the blocked GEMM path engages inside rsvd.
        let a = low_rank_noisy(300, 120, 6, 0.05, 30);
        let serial = rsvd(&a, &RsvdConfig::new(6), &mut StdRng::seed_from_u64(31));
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let pooled =
                rsvd_pooled(&a, &RsvdConfig::new(6), &mut StdRng::seed_from_u64(31), &pool);
            assert_eq!(serial.s, pooled.s, "σ diverged at {threads} threads");
            assert_eq!(serial.u, pooled.u, "U diverged at {threads} threads");
            assert_eq!(serial.v, pooled.v, "V diverged at {threads} threads");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = low_rank_noisy(30, 20, 3, 0.05, 14);
        let f1 = rsvd(&a, &RsvdConfig::new(3), &mut StdRng::seed_from_u64(15));
        let f2 = rsvd(&a, &RsvdConfig::new(3), &mut StdRng::seed_from_u64(15));
        assert_eq!(f1.s, f2.s);
        assert!((&f1.u - &f2.u).fro_norm() < 1e-15);
    }

    #[test]
    fn wide_matrix() {
        let a = low_rank_noisy(20, 90, 4, 0.01, 16);
        let mut rng = StdRng::seed_from_u64(17);
        let f = rsvd(&a, &RsvdConfig::new(4), &mut rng);
        assert_eq!(f.u.shape(), (20, 4));
        assert_eq!(f.v.shape(), (90, 4));
        let exact = dpar2_linalg::svd::svd_truncated(&a, 4);
        let err_r = (&a - &f.reconstruct()).fro_norm();
        let err_e = (&a - &exact.reconstruct()).fro_norm();
        assert!(err_r <= err_e * 1.1);
    }

    #[test]
    fn empty_matrix() {
        let mut rng = StdRng::seed_from_u64(18);
        let f = rsvd(Mat::zeros(0, 5), &RsvdConfig::new(3), &mut rng);
        assert!(f.s.is_empty());
    }

    /// Matrix with a planted spectrum `σ = [10, 8, 6, 4, 2, 1]` (exactly
    /// rank 6): energy fractions are known in closed form.
    fn planted_spectrum(seed: u64) -> (Mat, Vec<f64>) {
        let sigmas = vec![10.0, 8.0, 6.0, 4.0, 2.0, 1.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let u = qr(gmat(40, 6, &mut rng)).q;
        let v = qr(gmat(30, 6, &mut rng)).q;
        let mut us = u;
        for row in 0..40 {
            let r = us.row_mut(row);
            for (c, &sv) in sigmas.iter().enumerate() {
                r[c] *= sv;
            }
        }
        (product(Trans::N, Trans::T, &us, &v), sigmas)
    }

    #[test]
    fn energy_truncation_matches_exact_spectrum_accounting() {
        let (a, sigmas) = planted_spectrum(40);
        let total: f64 = sigmas.iter().map(|s| s * s).sum();
        // Cross-check the energy bookkeeping against the exact spectrum
        // (svd_thin of the same matrix) at several thresholds. Expected
        // cumulative fractions: 0.452, 0.742, 0.905, 0.977, 0.995, 1.0.
        let exact = svd_thin(&a);
        for (threshold, want_rank) in
            [(0.10, 1usize), (0.452, 1), (0.50, 2), (0.80, 3), (0.95, 4), (0.99, 5), (0.999, 6)]
        {
            let mut rng = StdRng::seed_from_u64(41);
            let e = serial_energy(&a, &RsvdConfig::new(6), threshold, &mut rng);
            assert_eq!(e.rank, want_rank, "threshold {threshold}");
            assert_eq!(e.factors.s.len(), want_rank);
            assert!((e.total_energy - total).abs() < 1e-6 * total, "‖A‖²_F mismatch");
            let exact_captured: f64 = exact.s[..want_rank].iter().map(|s| s * s).sum();
            assert!(
                (e.captured_energy - exact_captured).abs() < 1e-6 * total,
                "captured energy {} vs exact spectrum {exact_captured} at threshold {threshold}",
                e.captured_energy
            );
            assert!(e.captured_energy >= threshold * total * (1.0 - 1e-9));
        }
    }

    #[test]
    fn energy_truncation_threshold_extremes() {
        let (a, _) = planted_spectrum(42);
        let low = serial_energy(&a, &RsvdConfig::new(6), 0.0, &mut StdRng::seed_from_u64(43));
        assert_eq!(low.rank, 1, "threshold 0 keeps exactly one component");
        let neg = serial_energy(&a, &RsvdConfig::new(6), -3.0, &mut StdRng::seed_from_u64(43));
        assert_eq!(neg.rank, 1);
        // threshold > 1 can never be met: keep the whole probed spectrum.
        let all = serial_energy(&a, &RsvdConfig::new(6), 1.5, &mut StdRng::seed_from_u64(43));
        assert_eq!(all.rank, 6);
    }

    #[test]
    fn energy_truncation_max_rank_caps_the_probe() {
        // max_rank 3 < numerical rank 6: even threshold 1.0 keeps only 3,
        // and the exact-‖A‖²_F denominator keeps captured < total honest.
        let (a, sigmas) = planted_spectrum(44);
        let total: f64 = sigmas.iter().map(|s| s * s).sum();
        let e = serial_energy(&a, &RsvdConfig::new(3), 1.0, &mut StdRng::seed_from_u64(45));
        assert_eq!(e.rank, 3);
        assert!(e.captured_energy < e.total_energy);
        let expect: f64 = sigmas[..3].iter().map(|s| s * s).sum();
        assert!((e.captured_energy - expect).abs() < 1e-3 * total);
    }

    #[test]
    fn energy_truncation_pooled_bitwise_matches_serial() {
        let (a, _) = planted_spectrum(46);
        let serial = serial_energy(&a, &RsvdConfig::new(6), 0.9, &mut StdRng::seed_from_u64(47));
        for threads in [2, 4] {
            let pool = ThreadPool::new(threads);
            let pooled = svd_truncated_energy_pooled(
                &a,
                &RsvdConfig::new(6),
                0.9,
                &mut StdRng::seed_from_u64(47),
                &pool,
            );
            assert_eq!(serial.rank, pooled.rank);
            assert_eq!(serial.factors.s, pooled.factors.s, "{threads} threads");
            assert_eq!(serial.factors.u, pooled.factors.u, "{threads} threads");
        }
    }

    #[test]
    fn energy_truncation_empty_matrix() {
        let e = serial_energy(
            Mat::zeros(0, 4),
            &RsvdConfig::new(3),
            0.9,
            &mut StdRng::seed_from_u64(48),
        );
        assert_eq!(e.rank, 0);
        assert_eq!(e.total_energy, 0.0);
    }
}
