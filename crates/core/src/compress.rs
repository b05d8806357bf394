//! Two-stage compression of an irregular tensor (§III-B, Fig. 4).
//!
//! **Stage 1** — a rank-`R` factorization of every slice,
//! `X_k ≈ A_k B_k C_kᵀ` with column-orthonormal `A_k ∈ R^{I_k×R}`; only
//! `A_k` and the product `C_k B_k ∈ R^{J×R}` are kept. Slices are
//! distributed over threads with the greedy partitioning of Algorithm 4.
//!
//! **Stage 2** — a rank-`R` factorization of the horizontal concatenation
//! `M = ∥_k (C_k B_k) ∈ R^{J×KR} ≈ D E Fᵀ` with `D ∈ R^{J×R}`, diagonal `E`,
//! `F ∈ R^{KR×R}`. Writing `F(k)` for the `k`-th `R×R` vertical block of `F`,
//! the slice re-expression used by every later step is
//!
//! ```text
//! X_k ≈ A_k B_k C_kᵀ = A_k (C_k B_k)ᵀ-block ≈ A_k F(k) E Dᵀ.
//! ```
//!
//! Only `{A_k}`, `{F(k)}`, `E`, `D` survive — `O(Σ_k I_k R + K R² + J R)`
//! floats (Theorem 2), which Fig. 10 of the paper shows is up to 201× smaller
//! than the input.
//!
//! **One `Mᵀ`.** Stage 1 writes each slice's `(C_k B_k)ᵀ` straight into
//! its `R` rows of one preallocated row-major `Mᵀ ∈ R^{KR×J}`, so no
//! slice's `C_k B_k` outlives it and `M` is never assembled from blocks.
//! Stage 2 reads `M` from that buffer in place, through [`gemm`]'s
//! transpose flags, with the bits a row-major `M` would give (see
//! `Transposed`), and frees it before it carves the `F(k)`. So compression
//! peaks at about `{A_k} + M`, plus one slice's stage-1 scratch per thread.
//!
//! **The Gram route.** Both stages factor a matrix `X` (`rows × cols`)
//! whose smaller side `m` is often small: `J = 88` on the stock data, and
//! `M` is `J × KR`. When `l = R + s < m ≤ κ·l` ([`gram_route_applies`]),
//! [`gram_svd`] works on the small side's Gram `G` (`XᵀX`, or `XXᵀ` when
//! `rows < cols`), formed in one pass over `X`, instead of sketching the
//! tall matrix: scale `G` by an even power of two, sketch
//! `Y = G^{q+1}·Ω` with an `m×l` Gaussian `Ω` (re-orthonormalized between
//! powers), take `P = qr(Y)` and the `l×l` `T = PᵀGP`, and factor `T`. The
//! Ritz vectors `W = P·V_T` (the Jacobi `V`, orthonormal to rounding) span
//! the same subspace as the randomized SVD's one-power-iteration sketch.
//! On the short side they are `A`, and `C = XᵀA`; on the long side
//! `A = X·W·Σ⁻¹`, made orthonormal by one CholeskyQR pass `A·Lᵀ`, and
//! `C = W·Σ·L` (`XᵀA` on `span(W)`). No `rows × l` QR, tall sketch product
//! or `cols`-wide `Ω` is left. A matrix outside the rule, one whose Gram
//! diagonal leaves `[2^-500, 2^500]`, a rank-deficient one
//! (`λ_R ≤ 10⁻¹⁰·λ_1`) and one whose Cholesky fails take the randomized SVD of
//! [`dpar2_rsvd::rsvd_pooled`] instead, on a fresh RNG stream. Stage 1
//! takes each thread's slices in groups of [`SVD_LANES`] (sixteen): it
//! sketches each one, factors the group's `T`s (and the fallback's
//! `(R+s)×J` projections) together with the lane-batched Jacobi SVD —
//! bitwise each alone — and lifts each slice's factors into its slot.
//!
//! **One `Ω` per stage 1.** The range finder's guarantee for a slice asks
//! only for a Gaussian `Ω` independent of that slice's data (Halko,
//! Martinsson & Tropp 2011), not for a fresh one per slice. So stage 1
//! draws one `m_max × l` `Ω` per call, before the fan-out, from a seed
//! derived from the base seed alone, and every route slice sketches its
//! `m × m` Gram against the top `m` rows, read in place. Only the
//! fallback draws per slice, from the stream seeded with slice `k`'s own
//! seed. A route slice's factors therefore do not depend on its place in
//! the tensor or on the schedule, and each bucket reuses one set of sketch
//! temporaries across its slices.
//! Stage 2 takes the route on `M`, with `F = C·E⁻¹`; its Gram `M·Mᵀ` is
//! `Mᵀ` against itself, of which the blocked GEMM computes one triangle.
//!
//! Every step of the route is homogeneous: the even power of two makes
//! `compress(2^k·X)` keep the bits of `A_k`, `D` and `F(k)` and scale `E`
//! by exactly `2^k` while the Grams stay in the window.

use crate::config::FitOptions;
use crate::error::Result;
use crate::slices::{validate, SliceTensor};
use dpar2_linalg::{
    gaussian_mat, gemm, pow2, product, qr_into, svd_thin, svd_thin_batch_into, Mat, MatRef,
    QrScratch, SvdBatchScratch, SvdFactors, Trans, SVD_LANES,
};
use dpar2_parallel::{greedy_partition, Bucket, ThreadPool};
use dpar2_rsvd::{rsvd_lift, rsvd_pooled, rsvd_sketch, ProductOp, RsvdConfig, RsvdSketch};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Gram route's κ: it takes matrices whose smaller side `m` is at most
/// `κ·(R + s)` (see the measured crossover in `CHANGES.md`).
const GRAM_KAPPA: usize = 6;

/// The Gram diagonals the route takes: inside the window no product of
/// the route overflows, and what underflows is below `2^-522` relative.
const GRAM_DIAG_MIN: f64 = pow2(-500);
const GRAM_DIAG_MAX: f64 = pow2(500);

/// A Gram whose `R`-th Ritz value is at most this fraction of the first is
/// rank-deficient for the route.
const GRAM_RANK_TOL: f64 = 1e-10;

/// The compressed representation `{A_k}, {F(k)}, E, D` of an irregular
/// tensor, produced once before the ALS iterations.
#[derive(Debug, Clone)]
pub struct CompressedTensor {
    /// Column-orthonormal stage-1 left factors `A_k ∈ R^{I_k×R}`.
    pub a: Vec<Mat>,
    /// Stage-2 left factor `D ∈ R^{J×R}` (column-orthonormal).
    pub d: Mat,
    /// Diagonal of the stage-2 singular-value matrix `E ∈ R^{R×R}`.
    pub e: Vec<f64>,
    /// Vertical blocks `F(k) ∈ R^{R×R}` of the stage-2 right factor
    /// `F ∈ R^{KR×R}`.
    pub f_blocks: Vec<Mat>,
    /// Target rank `R`.
    pub rank: usize,
    /// Shared column dimension `J` of the original tensor.
    pub j: usize,
}

impl CompressedTensor {
    /// Number of slices `K`.
    pub fn k(&self) -> usize {
        self.a.len()
    }

    /// `E Dᵀ ∈ R^{R×J}` — the product both Lemma kernels and the `Q_k`
    /// update consume. Materialized once; `E` is diagonal so this is just a
    /// row-scaled `Dᵀ`.
    pub fn edt(&self) -> Mat {
        let mut edt = self.d.transpose();
        for (r, &er) in self.e.iter().enumerate() {
            for v in edt.row_mut(r) {
                *v *= er;
            }
        }
        edt
    }

    /// Reconstructs slice `k` as `A_k F(k) E Dᵀ` (lossy; used by tests and
    /// the naive-update ablation, not by the solver).
    pub fn reconstruct_slice(&self, k: usize) -> Mat {
        let afe = product(Trans::N, Trans::N, &self.a[k], &self.f_blocks[k]);
        product(Trans::N, Trans::N, &afe, self.edt())
    }

    /// Total number of `f64` values retained — the "Size of Preprocessed
    /// Data" metric of Fig. 10 (Theorem 2: `O(Σ I_k R + K R² + J R)`).
    pub fn size_floats(&self) -> usize {
        let a: usize = self.a.iter().map(Mat::len).sum();
        let f: usize = self.f_blocks.iter().map(Mat::len).sum();
        a + f + self.d.len() + self.e.len()
    }

    /// Compression ratio versus the raw tensor
    /// (`Σ_k I_k J` / [`Self::size_floats`]).
    pub fn compression_ratio(&self, tensor: &IrregularTensor) -> f64 {
        tensor.num_entries() as f64 / self.size_floats() as f64
    }
}

/// A rank-`R` factorization `X ≈ A·Cᵀ` of one matrix: what each stage
/// keeps.
#[derive(Debug, Clone, Default)]
pub struct LowRank {
    /// Column-orthonormal left factor `A ∈ R^{rows×R}`.
    pub a: Mat,
    /// Right factor `C ∈ R^{cols×R}`, `XᵀA` or its part on the route's
    /// subspace (`C_k B_k` of stage 1, `F·E` of stage 2).
    pub c: Mat,
    /// The singular values `σ_1 ≥ … ≥ σ_R` (the columns of `C` have these
    /// norms, up to the sketch's accuracy).
    pub s: Vec<f64>,
}

impl LowRank {
    /// `A = U`, `C = V·Σ` of a truncated SVD.
    fn from_svd(f: SvdFactors) -> Self {
        let mut c = f.v;
        scale_columns(&mut c, &f.s, |x, s| x * s);
        LowRank { a: f.u, c, s: f.s }
    }
}

/// Whether a `rows × cols` matrix takes the Gram route at `config`:
/// `R + s < min(rows, cols) ≤ κ·(R + s)`. Below it the randomized SVD is
/// already an exact thin SVD; above it the Gram costs more than sketching.
pub fn gram_route_applies(rows: usize, cols: usize, config: &RsvdConfig) -> bool {
    let (m, l) = (rows.min(cols), config.rank + config.oversample);
    l < m && m <= GRAM_KAPPA * l
}

/// The rank-`config.rank` factorization of `op` through its small side's
/// Gram `g` — `opᵀop` if `rows ≥ cols`, else `op·opᵀ` — which it scales in
/// place (see the module docs). `None` if the route declines: the Gram's
/// largest diagonal lies outside `[2^-500, 2^500]`, the Ritz values are
/// rank-deficient, or the CholeskyQR pass fails. Draws the `m × (R+s)`
/// test matrix from `rng` once the scale window holds; bitwise the same
/// for every `pool` size.
pub fn gram_svd(
    op: impl ProductOp,
    g: &mut Mat,
    config: &RsvdConfig,
    rng: &mut impl Rng,
    pool: &ThreadPool,
) -> Option<LowRank> {
    let half = gram_scale(g)?;
    let (mut p, mut t) = (Mat::default(), Mat::default());
    {
        // Freed before the lift, whose `C` can be large (stage 2's is
        // `KR × R`).
        let omega = gaussian_mat(g.rows(), config.rank + config.oversample, rng);
        let ws = &mut SketchScratch::default();
        gram_sketch(g, omega.view(), config.power_iterations, &mut p, &mut t, ws, pool);
    }
    let (mut a, mut ws) = (Mat::default(), LiftScratch::default());
    let lifted = gram_lift(op, &p, half, &svd_thin(&t), config.rank, &mut a, &mut ws, pool);
    lifted.then_some(LowRank { a, c: ws.c, s: ws.s })
}

/// Scales `g` by an even power of two `2^(2·half)` and returns `half`;
/// `None`, leaving `g` as it is, if the largest diagonal of `g` is outside
/// the window.
fn gram_scale(g: &mut Mat) -> Option<i32> {
    let dmax = (0..g.rows()).fold(0.0f64, |d, i| d.max(g.at(i, i)));
    if !(GRAM_DIAG_MIN..=GRAM_DIAG_MAX).contains(&dmax) {
        return None;
    }
    let shift = ((dmax.to_bits() >> 52) as i32 - 1023) & !1;
    g.scale_mut(pow2(-shift));
    Some(shift / 2)
}

/// The sketch's temporaries that outlive no slice: `Y`, the QR's `R` and
/// its workspace. One per stage-1 bucket, reused across its slices.
#[derive(Debug, Default)]
struct SketchScratch {
    y: Mat,
    r: Mat,
    qr: QrScratch,
}

/// The basis `P` (`m × l`) of the sketch `G^{q+1}Ω` of the scaled Gram
/// `g` into `p`, and `T = PᵀGP` (`l × l`) into `t`, where `Ω` is the
/// `m × l` test matrix `omega` and `q` is `power_iterations`.
fn gram_sketch(
    g: &Mat,
    omega: MatRef<'_>,
    power_iterations: usize,
    p: &mut Mat,
    t: &mut Mat,
    ws: &mut SketchScratch,
    pool: &ThreadPool,
) {
    let SketchScratch { y, r, qr } = ws;
    gemm(Trans::N, Trans::N, g, omega, y, pool);
    for _ in 0..power_iterations {
        qr_into(&*y, p, r, qr);
        gemm(Trans::N, Trans::N, g, &*p, y, pool);
    }
    qr_into(&*y, p, r, qr);
    gemm(Trans::N, Trans::N, g, &*p, y, pool);
    gemm(Trans::T, Trans::N, &*p, &*y, t, pool);
}

/// The lift's temporaries besides `A`: `W` and its column-scaled copy,
/// `C`, the singular values, and the CholeskyQR pass's Gram and `L`. One
/// per stage-1 bucket, reused across its slices.
#[derive(Debug, Default)]
struct LiftScratch {
    w: Mat,
    w_scaled: Mat,
    c: Mat,
    s: Vec<f64>,
    gram: Mat,
    l: Mat,
}

/// The route's factors of `op` from its sketch's basis `p`, the Gram's
/// scale `2^(2·half)` and the SVD of `T`, at `rank`: `A` into `a`, `C` and
/// the singular values into `ws.c` and `ws.s`. `false` if the Ritz values
/// are rank-deficient or the CholeskyQR pass fails.
#[allow(clippy::too_many_arguments)]
fn gram_lift(
    op: impl ProductOp,
    p: &Mat,
    half: i32,
    t_svd: &SvdFactors,
    rank: usize,
    a: &mut Mat,
    ws: &mut LiftScratch,
    pool: &ThreadPool,
) -> bool {
    let lam = &t_svd.s[..rank];
    if lam[rank - 1] <= lam[0] * GRAM_RANK_TOL {
        return false;
    }
    let LiftScratch { w, w_scaled, c, s, gram, l } = ws;
    s.clear();
    s.extend(lam.iter().map(|&x| x.sqrt() * pow2(half)));
    let v_t = t_svd.v.view().submatrix(0, t_svd.v.rows(), 0, rank);
    let (rows, cols) = op.shape();
    if rows < cols {
        // G = XXᵀ: the Ritz vectors W are A, and C = XᵀA.
        gemm(Trans::N, Trans::N, p, v_t, a, pool);
        op.mm_t_into(a, c, pool);
        return true;
    }
    // G = XᵀX: A = X·W·Σ⁻¹ after one CholeskyQR pass A·Lᵀ. Then
    // Aᵀ·X·W = Lᵀ·Σ, so on span(W), C = XᵀA is W·Σ·L: no second pass over X.
    gemm(Trans::N, Trans::N, p, v_t, w, pool);
    w_scaled.copy_from(&*w);
    scale_columns(w_scaled, s, |x, s| x / s);
    op.mm_into(w_scaled, a, pool);
    if !cholesky_qr(a, gram, l, pool) {
        return false;
    }
    scale_columns(w, s, |x, s| x * s);
    gemm(Trans::N, Trans::N, &*w, &*l, c, pool);
    true
}

/// Replaces each entry `x` of column `j` of `m` with `f(x, s[j])`.
fn scale_columns(m: &mut Mat, s: &[f64], f: impl Fn(f64, f64) -> f64) {
    for i in 0..m.rows() {
        for (x, &sj) in m.row_mut(i).iter_mut().zip(s) {
            *x = f(*x, sj);
        }
    }
}

/// One CholeskyQR pass: `UᵀU = LLᵀ` (the Gram into `g`, `L` into `l`),
/// then `U ← U·L⁻ᵀ` by forward substitution, one column of `U` at a time
/// so that its rows' division chains are independent. `false` if a pivot
/// is not positive.
fn cholesky_qr(u: &mut Mat, g: &mut Mat, l: &mut Mat, pool: &ThreadPool) -> bool {
    gemm(Trans::T, Trans::N, &*u, &*u, g, pool);
    let r = g.rows();
    l.resize_zeroed(r, r);
    for j in 0..r {
        let d = (0..j).fold(g.at(j, j), |d, k| d - l.at(j, k) * l.at(j, k));
        if d <= 0.0 {
            return false;
        }
        l.set(j, j, d.sqrt());
        for i in j + 1..r {
            let v = (0..j).fold(g.at(i, j), |v, k| v - l.at(i, k) * l.at(j, k));
            l.set(i, j, v / l.at(j, j));
        }
    }
    for j in 0..r {
        let (lj, d) = (l.row(j), l.at(j, j));
        for row in u.data_mut().chunks_exact_mut(r) {
            let v = (0..j).fold(row[j], |v, k| v - row[k] * lj[k]);
            row[j] = v / d;
        }
    }
    true
}

/// Runs the two-stage compression (lines 2–6 of Algorithm 3) on dense or
/// CSR slices.
///
/// Stage 1 runs in parallel over `options.threads` threads, with slices
/// assigned by greedy number partitioning on their
/// [work](SliceTensor::work) — row counts for dense slices (Algorithm 4),
/// nonzeros for CSR ones. Every slice on the Gram route sketches against
/// the top rows of one Gaussian test matrix, drawn once, before the
/// fan-out, from a seed derived from `options.seed` alone; only a slice
/// that takes the randomized SVD (outside the route's rule, or declined by
/// it) draws from an independent RNG seeded with `options.seed ⊕ k`. So
/// results are identical for every thread count. A CSR tensor is never
/// densified: the Gram route's Gram costs
/// O(nnz·m) and every other pass O(nnz·(R+s)). Dense and CSR slices run
/// the same chain for every Gram entry (fused where the CPU has FMA, see
/// [`dpar2_linalg::gram_into`]), with the CSR one skipping structural
/// zeros exactly, so while every other product over a slice stays on the
/// dense naive dispatch path (`rank + oversample` below the blocked-GEMM
/// tile width) the result is **bitwise identical** to compressing
/// [`SparseIrregularTensor::to_dense`](dpar2_tensor::SparseIrregularTensor::to_dense).
///
/// # Errors
/// The [`validate`] contract: [`crate::Dpar2Error::RankTooLarge`] if
/// `R > min(I_k, J)` for any slice, [`crate::Dpar2Error::ZeroRank`] if
/// `R == 0`, [`crate::Dpar2Error::NonFinite`] if any slice stores a NaN or
/// ±∞.
pub fn compress<T: SliceTensor>(tensor: &T, options: &FitOptions<'_>) -> Result<CompressedTensor> {
    validate(tensor, options.rank)?;
    Ok(compress_valid(tensor, options))
}

/// [`compress`] on a tensor that already passed [`validate`] at
/// `options.rank`.
pub(crate) fn compress_valid<T: SliceTensor>(
    tensor: &T,
    options: &FitOptions<'_>,
) -> CompressedTensor {
    let r = options.rank;
    let pool = ThreadPool::new(options.threads.max(1));
    // The compression rank always follows `options.rank`; only the
    // oversampling/power-iteration knobs of `options.rsvd` apply.
    let config = RsvdConfig { rank: r, ..options.rsvd };
    let base_seed = options.seed;
    let mut mt = Mat::zeros(tensor.k() * r, tensor.j());
    let seed = |k| stage1_seed(base_seed, k);
    let a = stage1(tensor, &config, seed, omega_seed(base_seed), mt.data_mut(), &pool);
    let (d, e, f_blocks) = stage2(mt, r, &config, base_seed ^ 0xD1B5_4A32_D192_ED03, &pool);
    CompressedTensor { a, d, e, f_blocks, rank: r, j: tensor.j() }
}

/// One slice's place in stage 1's output: its `A_k`, and its `R` rows of
/// `Mᵀ`, which take `(C_k B_k)ᵀ`.
type Slot<'a> = (&'a mut Mat, &'a mut [f64]);

/// Stage 1 of every slice of `tensor`, greedy-partitioned over `pool`:
/// bitwise the same for every pool size. Every slice that takes the Gram
/// route sketches its Gram against the top rows of one Gaussian `Ω`, drawn
/// before the fan-out from the RNG seeded with `omega_seed`; every other
/// slice `k` takes the randomized SVD on the RNG seeded with `seed(k)`.
/// Returns each slice's `A_k` and writes `(C_k B_k)ᵀ` into rows
/// `kR..(k+1)R` of `mt`, the row-major `KR × J` matrix `Mᵀ`
/// (`R = config.rank`), so that no slice's `C_k B_k` outlives its slice.
///
/// # Panics
/// Panics if `mt` does not hold `K·R·J` entries.
pub(crate) fn stage1<T: SliceTensor>(
    tensor: &T,
    config: &RsvdConfig,
    seed: impl Fn(usize) -> u64 + Sync,
    omega_seed: u64,
    mt: &mut [f64],
    pool: &ThreadPool,
) -> Vec<Mat> {
    let rows = config.rank * tensor.j();
    assert_eq!(mt.len(), tensor.k() * rows, "stage 1: Mᵀ is not KR × J");
    let omega = shared_omega(tensor, config, omega_seed);
    let weights: Vec<usize> = (0..tensor.k()).map(|k| tensor.work(k)).collect();
    let partition = greedy_partition(&weights, pool.threads());
    // One slot per slice; each thread fills the slots of its bucket.
    let mut a = vec![Mat::default(); tensor.k()];
    let slots = a.iter_mut().zip(mt.chunks_mut(rows));
    let mut scratch = vec![(); partition.len()];
    pool.for_each_partitioned(&partition, slots, &mut scratch, |bucket, _| {
        stage1_bucket(tensor, bucket, config, &seed, omega.view());
    });
    a
}

/// The test matrix `Ω` every route slice of `tensor` shares: `m_max ×
/// (R+s)`, where `m_max` is the largest small side among the slices the
/// rule admits (at most `min(J, κ·(R+s))`); empty, and nothing drawn, if
/// no slice meets the rule. [`gaussian_mat`] fills it row by row, so its
/// top `m` rows are bitwise the `m × (R+s)` matrix [`gram_svd`] draws
/// from a fresh RNG of the same seed.
fn shared_omega<T: SliceTensor>(tensor: &T, config: &RsvdConfig, seed: u64) -> Mat {
    let j = tensor.j();
    let small_sides = tensor.dims().iter().filter(|&&i| gram_route_applies(i, j, config));
    small_sides.map(|&i| i.min(j)).max().map_or_else(Mat::default, |m_max| {
        gaussian_mat(m_max, config.rank + config.oversample, &mut StdRng::seed_from_u64(seed))
    })
}

/// Puts a slice's factors in its [`Slot`]: `A` as it is, `C` (`J × R`)
/// transposed.
fn keep((a, mt_rows): &mut Slot<'_>, f: LowRank) {
    keep_c(mt_rows, &f.c);
    **a = f.a;
}

/// Writes `C` (`J × R`) transposed into a slot's `R` rows of `Mᵀ`.
fn keep_c(mt_rows: &mut [f64], c: &Mat) {
    let (j, r) = c.shape();
    debug_assert_eq!(mt_rows.len(), r * j);
    for i in 0..j {
        for (col, &x) in c.row(i).iter().enumerate() {
            mt_rows[col * j + i] = x;
        }
    }
}

/// Stage 1 for one thread's slices, in groups of [`SVD_LANES`]: each
/// slice's Gram sketch (against the top `m` rows of the shared `omega`)
/// or randomized-SVD sketch (on its own RNG stream), then the group's
/// `T`s and `B`s factored together — bitwise each alone — and each
/// slice's factors lifted into its slot. Neither the schedule nor a
/// slice's place in the tensor changes a route slice's factorization.
/// Every slot ends bitwise equal to [`gram_svd`] of its slice on the RNG
/// of `omega`'s seed where the route applies and takes it, else to
/// [`dpar2_rsvd::rsvd`] of it on the RNG seeded with `seed(k)`. The
/// sketch's and the lift's temporaries and each lane's `P` and `T` are
/// reused across the bucket's slices, so a route slice allocates only its
/// `A_k`.
fn stage1_bucket<T: SliceTensor>(
    tensor: &T,
    bucket: &mut Bucket<'_, Slot<'_>>,
    config: &RsvdConfig,
    seed: &impl Fn(usize) -> u64,
    omega: MatRef<'_>,
) {
    let serial = ThreadPool::new(1);
    let mut ws = SvdBatchScratch::default();
    let mut sketch = SketchScratch::default();
    let mut lift = LiftScratch::default();
    let mut small: [SvdFactors; SVD_LANES] = Default::default();
    // The basis `P` and core `T` of the group's `n`-th route slice.
    let (mut ps, mut ts): ([Mat; SVD_LANES], [Mat; SVD_LANES]) = Default::default();
    let mut group = Vec::with_capacity(SVD_LANES);
    let (mut g, mut xt) = (Mat::default(), Mat::default());
    let mut routes = Vec::with_capacity(SVD_LANES);
    let (mut bs, mut lifts) = (Vec::with_capacity(SVD_LANES), Vec::with_capacity(SVD_LANES));
    let mut bucket = bucket.peekable();
    loop {
        group.clear();
        group.extend((&mut bucket).take(SVD_LANES));
        if group.is_empty() {
            break;
        }
        routes.clear();
        bs.clear();
        lifts.clear();
        for (i, (k, slot)) in group.iter_mut().enumerate() {
            let x = tensor.slice(*k);
            let (rows, cols) = x.shape();
            if gram_route_applies(rows, cols, config) {
                if rows < cols {
                    tensor.outer_gram_into(*k, &mut g, &mut xt);
                } else {
                    tensor.gram_into(*k, &mut g);
                }
                if let Some(half) = gram_scale(&mut g) {
                    let (n, omega) = (routes.len(), omega.submatrix(0, g.rows(), 0, omega.cols()));
                    let (p, t) = (&mut ps[n], &mut ts[n]);
                    gram_sketch(&g, omega, config.power_iterations, p, t, &mut sketch, &serial);
                    routes.push((i, half));
                    continue;
                }
            }
            let mut rng = StdRng::seed_from_u64(seed(*k));
            match rsvd_sketch(x, config, &mut rng, &serial) {
                RsvdSketch::Exact(f) => keep(slot, LowRank::from_svd(f)),
                RsvdSketch::Range { q, b, rank } => {
                    bs.push(b);
                    lifts.push((i, q, rank));
                }
            }
        }
        // The last group's lifts run at stage 1's peak, every `A_k` and
        // `Mᵀ` live: free the sketch's temporaries first, the batch
        // scratch and the `T`s once factored, and each `P` once lifted.
        let last = bucket.peek().is_none();
        if last {
            sketch = SketchScratch::default();
        }
        svd_thin_batch_into(&ts[..routes.len()], &mut small[..routes.len()], &mut ws);
        if last {
            ws = SvdBatchScratch::default();
            ts = Default::default();
        }
        for (((i, half), p), f) in routes.iter().zip(&mut ps).zip(&small) {
            let (k, slot) = &mut group[*i];
            let x = tensor.slice(*k);
            if gram_lift(&x, p, *half, f, config.rank, slot.0, &mut lift, &serial) {
                keep_c(slot.1, &lift.c);
            } else {
                let mut rng = StdRng::seed_from_u64(seed(*k));
                keep(slot, LowRank::from_svd(rsvd_pooled(&x, config, &mut rng, &serial)));
            }
            if last {
                *p = Mat::default();
            }
        }
        svd_thin_batch_into(&bs, &mut small[..bs.len()], &mut ws);
        for ((i, q, rank), f) in lifts.iter().zip(&small) {
            keep(&mut group[*i].1, LowRank::from_svd(rsvd_lift(q, f, *rank, &serial)));
        }
    }
}

/// Per-slice stage-1 RNG seed of the randomized SVD — one fixed formula
/// for every storage, so dense and CSR inputs consume identical Gaussian
/// streams.
#[inline]
fn stage1_seed(base_seed: u64, k: usize) -> u64 {
    base_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1))
}

/// The seed of stage 1's shared test matrix `Ω`, from the base seed alone.
#[inline]
pub(crate) fn omega_seed(base_seed: u64) -> u64 {
    base_seed ^ 0x2545_F491_4F6C_DD1D
}

/// Stage 2 on `M`, given as the `nR × J` matrix `mt = Mᵀ` that stage 1
/// filled: its factors `D`, `E` and the `n` `R×R` blocks of `F`, with
/// `M ≈ D E Fᵀ`, drawing from the RNG seeded with `seed`. Stage 1 already
/// reduced every slice to small dense factors, so from here on the
/// pipeline is dense and identical regardless of the input
/// representation; its products fan out over `pool`, bitwise the same for
/// every pool size. `mt` is freed before the blocks of `F` are carved.
pub(crate) fn stage2(
    mt: Mat,
    r: usize,
    config: &RsvdConfig,
    seed: u64,
    pool: &ThreadPool,
) -> (Mat, Vec<f64>, Vec<Mat>) {
    let n = mt.rows() / r;
    let m = Transposed(mt.view());
    let (rows, cols) = m.shape();
    let mut rng = StdRng::seed_from_u64(seed);
    let via_gram = if gram_route_applies(rows, cols, config) {
        let mut g = Mat::default();
        m.gram_into(&mut g, pool);
        gram_svd(m, &mut g, config, &mut rng, pool)
    } else {
        None
    };
    let (d, e, f) = match via_gram {
        Some(LowRank { a, c: mut f, s }) => {
            scale_columns(&mut f, &s, |x, e| x / e);
            (a, s, f)
        }
        None => {
            let f2 = rsvd_pooled(m, config, &mut StdRng::seed_from_u64(seed), pool);
            (f2.u, f2.s, f2.v)
        }
    };
    drop(mt);
    // F ∈ R^{nR×R}: carve out the n vertical R×R blocks.
    let f_blocks = (0..n).map(|k| f.block(k * r, (k + 1) * r, 0, r)).collect();
    (d, e, f_blocks)
}

/// `M` read from the `Mᵀ` stage 1 fills, in place: every product passes
/// `Mᵀ` to [`gemm`] with the transpose flags that make it `M`. Each such
/// product keeps the bits of the same product on a row-major `M`: the
/// blocked kernel sees the same values in the same order either way, and
/// below the blocked threshold every form sums each entry over ascending
/// depth from `+0.0`.
#[derive(Debug, Clone, Copy)]
struct Transposed<'a>(MatRef<'a>);

impl Transposed<'_> {
    /// The small side's Gram into `g`: `M·Mᵀ` if `M` is wide, else `MᵀM`.
    /// Both sides are `Mᵀ` itself, so the blocked kernel computes only the
    /// upper triangle and mirrors it.
    fn gram_into(self, g: &mut Mat, pool: &ThreadPool) {
        let (rows, cols) = self.shape();
        let (ta, tb) = if rows < cols { (Trans::T, Trans::N) } else { (Trans::N, Trans::T) };
        gemm(ta, tb, self.0, self.0, g, pool);
    }
}

impl ProductOp for Transposed<'_> {
    fn shape(&self) -> (usize, usize) {
        let (rows, cols) = self.0.shape();
        (cols, rows)
    }

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::T, Trans::N, self.0, b, c, pool);
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::N, Trans::N, self.0, b, c, pool);
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::T, Trans::T, q, self.0, c, pool);
    }

    fn fro_norm_sq(&self) -> f64 {
        // Summed in `Mᵀ`'s order; stage 2 truncates no energy, so it
        // never asks.
        self.0.fro_norm_sq()
    }

    fn svd_exact(&self) -> SvdFactors {
        svd_thin(self.0.transpose())
    }
}

/// The `J × R` blocks `C_k B_k` of `M`, read back from the rows of the
/// `Mᵀ` stage 1 wrote (a transpose is a copy: every bit kept).
#[cfg(test)]
pub(crate) fn blocks_of(mt: &Mat, r: usize) -> Vec<Mat> {
    (0..mt.rows() / r).map(|k| mt.block(k * r, (k + 1) * r, 0, mt.cols()).transpose()).collect()
}

/// Stage 2 as it ran before stage 1 wrote `Mᵀ`: the blocks concatenated
/// by [`Mat::hstack_all`] into a row-major `M`, whose Gram and products
/// [`gemm`] reads as stored. The oracle of [`stage2`].
#[cfg(test)]
pub(crate) fn stage2_hstack(
    blocks: &[Mat],
    r: usize,
    config: &RsvdConfig,
    seed: u64,
    pool: &ThreadPool,
) -> (Mat, Vec<f64>, Vec<Mat>) {
    let m = Mat::hstack_all(&blocks.iter().collect::<Vec<_>>());
    let (rows, cols) = m.shape();
    let mut g = Mat::default();
    let via_gram = if gram_route_applies(rows, cols, config) {
        if rows < cols {
            gemm(Trans::N, Trans::T, &m, &m, &mut g, pool);
        } else {
            gemm(Trans::T, Trans::N, &m, &m, &mut g, pool);
        }
        gram_svd(&m, &mut g, config, &mut StdRng::seed_from_u64(seed), pool)
    } else {
        None
    };
    let (d, e, f) = match via_gram {
        Some(LowRank { a, c: mut f, s }) => {
            scale_columns(&mut f, &s, |x, e| x / e);
            (a, s, f)
        }
        None => {
            let f2 = rsvd_pooled(&m, config, &mut StdRng::seed_from_u64(seed), pool);
            (f2.u, f2.s, f2.v)
        }
    };
    (d, e, (0..blocks.len()).map(|k| f.block(k * r, (k + 1) * r, 0, r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Dpar2Error;
    use dpar2_linalg::kernel::use_blocked;
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_tensor::SparseIrregularTensor;
    use rand::Rng;

    /// Irregular tensor with planted rank-`r` structure plus noise `eps`.
    fn planted(row_dims: &[usize], j: usize, r: usize, eps: f64, seed: u64) -> IrregularTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = gaussian_mat(j, r, &mut rng);
        let slices = row_dims
            .iter()
            .map(|&ik| {
                let u = gaussian_mat(ik, r, &mut rng);
                let mut x = product(Trans::N, Trans::T, &u, &v);
                if eps > 0.0 {
                    x.axpy(eps, &gaussian_mat(ik, j, &mut rng));
                }
                x
            })
            .collect();
        IrregularTensor::new(slices)
    }

    /// `U·diag(σ)·Vᵀ` with orthonormal `U`, `V` and the given spectrum,
    /// plus Gaussian noise at `eps`.
    fn spectrum(rows: usize, cols: usize, sigma: &[f64], eps: f64, seed: u64) -> Mat {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut u = dpar2_linalg::qr(gaussian_mat(rows, sigma.len(), &mut rng)).q;
        let v = dpar2_linalg::qr(gaussian_mat(cols, sigma.len(), &mut rng)).q;
        scale_columns(&mut u, sigma, |x, s| x * s);
        let mut x = product(Trans::N, Trans::T, &u, &v);
        x.axpy(eps, &gaussian_mat(rows, cols, &mut rng));
        x
    }

    /// The route on `x` through its small side's Gram.
    fn route(x: &Mat, config: &RsvdConfig, seed: u64) -> Option<LowRank> {
        let mut g = Mat::default();
        if x.rows() < x.cols() {
            dpar2_linalg::gram_into(x.transpose(), &mut g);
        } else {
            dpar2_linalg::gram_into(x, &mut g);
        }
        gram_svd(x, &mut g, config, &mut StdRng::seed_from_u64(seed), &ThreadPool::new(1))
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn orthonormality_error(a: &Mat) -> f64 {
        (&product(Trans::T, Trans::N, a, a) - &Mat::eye(a.cols())).fro_norm()
    }

    #[test]
    fn gram_route_matches_the_exact_and_randomized_svds() {
        // Well-conditioned slices, tall and wide, inside the rule at
        // R + s = 13: the route's σ are the exact top-R ones, its `A` is
        // orthonormal, and it truncates no worse than `rsvd`.
        let sigma = [9.0, 7.5, 6.0, 4.0, 3.0];
        let config = RsvdConfig::new(5);
        for (rows, cols, eps) in [(200, 40, 1e-3), (30, 60, 1e-3), (500, 72, 0.05), (60, 48, 0.1)] {
            assert!(gram_route_applies(rows, cols, &config));
            let x = spectrum(rows, cols, &sigma, eps, (rows * cols) as u64);
            let f = route(&x, &config, 7).expect("the route takes a well-conditioned slice");
            if eps < 0.01 {
                let exact = svd_thin(&x);
                for (got, want) in f.s.iter().zip(&exact.s) {
                    assert!((got - want).abs() <= 1e-10 * want, "{rows}x{cols}: σ {got} vs {want}");
                }
            }
            assert!(orthonormality_error(&f.a) <= 1e-13, "{rows}x{cols}: A not orthonormal");
            let residual = (&x - &product(Trans::N, Trans::T, &f.a, &f.c)).fro_norm();
            let r = dpar2_rsvd::rsvd(&x, &config, &mut StdRng::seed_from_u64(7));
            let rsvd_residual = (&x - &r.reconstruct()).fro_norm();
            assert!(
                residual <= rsvd_residual * (1.0 + 1e-6),
                "{rows}x{cols}: residual {residual} vs rsvd {rsvd_residual}"
            );
        }
    }

    /// Slices inside the rule on both sides (`J = 40`, `R + s = 13`).
    fn routed_tensor(seed: u64) -> IrregularTensor {
        planted(&[120, 45, 200, 30, 64, 22, 90, 150, 40, 75], 40, 4, 0.1, seed)
    }

    #[test]
    fn compressed_factors_are_orthonormal_on_the_route() {
        let t = routed_tensor(20);
        let options = FitOptions::new(5).with_seed(21);
        let c = compress(&t, &options).unwrap();
        for (k, a) in c.a.iter().enumerate() {
            assert!(gram_route_applies(t.i(k), t.j(), &options.rsvd));
            assert!(orthonormality_error(a) <= 1e-13, "A_{k}: {}", orthonormality_error(a));
        }
        assert!(orthonormality_error(&c.d) <= 1e-13, "D: {}", orthonormality_error(&c.d));
    }

    #[test]
    fn compression_scales_exactly_with_a_power_of_two() {
        let t = routed_tensor(22);
        let options = FitOptions::new(5).with_seed(23);
        let base = compress(&t, &options).unwrap();
        for k in [-200, -40, 130, 200] {
            let c = pow2(k);
            let scaled = IrregularTensor::new(
                t.to_slices()
                    .iter()
                    .map(|x| Mat::from_fn(x.rows(), x.cols(), |i, j| x.at(i, j) * c))
                    .collect(),
            );
            let got = compress(&scaled, &options).unwrap();
            assert_eq!(got.a, base.a, "2^{k}: A");
            assert_eq!(got.d, base.d, "2^{k}: D");
            assert_eq!(got.f_blocks, base.f_blocks, "2^{k}: F");
            for (x, y) in got.e.iter().zip(&base.e) {
                assert_eq!(x.to_bits(), (y * c).to_bits(), "2^{k}: E");
            }
        }
    }

    #[test]
    fn zero_and_rank_deficient_slices_fall_back_cleanly() {
        // The route declines both (a zero Gram is outside the scale
        // window, a rank-1 one is rank-deficient at R = 3); their factors
        // come from the randomized SVD, finite and orthonormal.
        let mut rng = StdRng::seed_from_u64(24);
        let rank_one = product(
            Trans::N,
            Trans::T,
            gaussian_mat(50, 1, &mut rng),
            gaussian_mat(30, 1, &mut rng),
        );
        let config = RsvdConfig::new(3);
        assert!(route(&Mat::zeros(50, 30), &config, 1).is_none());
        assert!(route(&rank_one, &config, 1).is_none());
        let mut slices = planted(&[40, 60], 30, 3, 0.1, 25).to_slices();
        slices.extend([Mat::zeros(50, 30), rank_one, Mat::zeros(20, 30)]);
        let c = compress(&IrregularTensor::new(slices), &FitOptions::new(3).with_seed(26)).unwrap();
        for (k, a) in c.a.iter().enumerate() {
            assert!(a.data().iter().all(|x| x.is_finite()), "A_{k} not finite");
            assert!(orthonormality_error(a) <= 1e-12, "A_{k}: {}", orthonormality_error(a));
        }
        assert!(c.e.iter().chain(c.d.data()).all(|x| x.is_finite()));
        assert!(c.f_blocks.iter().all(|f| f.data().iter().all(|x| x.is_finite())));
    }

    #[test]
    fn exact_on_planted_low_rank() {
        let t = planted(&[30, 50, 20, 40], 25, 3, 0.0, 1);
        let c = compress(&t, &FitOptions::new(3).with_seed(2)).unwrap();
        for k in 0..t.k() {
            let err = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(err < 1e-8, "slice {k} rel err {err}");
        }
    }

    #[test]
    fn a_factors_column_orthonormal() {
        let t = planted(&[40, 25], 20, 4, 0.1, 3);
        let c = compress(&t, &FitOptions::new(4).with_seed(4)).unwrap();
        for (k, a) in c.a.iter().enumerate() {
            let dev = (&product(Trans::T, Trans::N, a, a) - &Mat::eye(4)).fro_norm();
            assert!(dev < 1e-10, "A_{k} not orthonormal: {dev}");
        }
    }

    #[test]
    fn shapes_match_theorem_2() {
        let t = planted(&[15, 25, 35], 18, 5, 0.05, 5);
        let c = compress(&t, &FitOptions::new(5).with_seed(6)).unwrap();
        assert_eq!(c.k(), 3);
        assert_eq!(c.d.shape(), (18, 5));
        assert_eq!(c.e.len(), 5);
        assert_eq!(c.f_blocks.len(), 3);
        for f in &c.f_blocks {
            assert_eq!(f.shape(), (5, 5));
        }
        // Theorem 2: Σ I_k R + K R² + J R (+R for diagonal E).
        let expected = (15 + 25 + 35) * 5 + 3 * 25 + 18 * 5 + 5;
        assert_eq!(c.size_floats(), expected);
        assert!(c.compression_ratio(&t) > 1.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // In the second case stage 2's Gram M·Mᵀ (M is 130 × 140) spans two
        // 120-row panels of the blocked GEMM, and every slice (140–170 ×
        // 130) and M take the Gram route at R + s = 22.
        let dims = [140, 151, 162, 170, 145, 158, 166, 149, 143, 155];
        let cases = [
            (planted(&[30, 60, 10, 45, 22], 16, 3, 0.2, 7), FitOptions::new(3).with_seed(8)),
            (planted(&dims, 130, 14, 0.1, 31), FitOptions::new(14).with_seed(32)),
        ];
        assert!(dims.iter().all(|&i| gram_route_applies(i, 130, &cases[1].1.rsvd)));
        assert!(gram_route_applies(130, 14 * dims.len(), &cases[1].1.rsvd));
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (t, options) in cases {
            let c1 = compress(&t, &options.with_threads(1)).unwrap();
            for n in [2, 3, 4] {
                let c = compress(&t, &options.with_threads(n)).unwrap();
                for k in 0..t.k() {
                    assert_eq!(bits(c.a[k].data()), bits(c1.a[k].data()), "{n} threads: A_{k}");
                    let (f, f1) = (c.f_blocks[k].data(), c1.f_blocks[k].data());
                    assert_eq!(bits(f), bits(f1), "{n} threads: F({k})");
                }
                assert_eq!(bits(c.d.data()), bits(c1.d.data()), "{n} threads: D");
                assert_eq!(bits(&c.e), bits(&c1.e), "{n} threads: E");
            }
        }
    }

    #[test]
    fn stage2_on_mt_matches_the_hstack_oracle_bit_for_bit() {
        // Stage 2 reads `M` from the `Mᵀ` stage 1 filled, through `gemm`'s
        // transpose flags; the oracle concatenates the same blocks into a
        // row-major `M`. Cases (R + s, the Gram's side and depth): a
        // blocked `M·Mᵀ` (48 × 48 over 400, in place, one triangle), a
        // blocked `MᵀM` (120 × 120 over 150), and naive Grams on the tall
        // (`MᵀM`, 15 × 15 over 20) and wide (`M·Mᵀ`, 14 × 14 over 16) side,
        // which stage 2 forms on `Mᵀ` in place too.
        let wide: Vec<usize> = (0..40).map(|k| 30 + k % 17).collect();
        let tall: Vec<usize> = (0..10).map(|k| 150 + 3 * k).collect();
        let cases = [
            (planted(&wide, 48, 10, 0.1, 41), 10, true),
            (planted(&tall, 150, 12, 0.1, 42), 12, true),
            (planted(&[30, 22, 41, 25, 33], 20, 3, 0.1, 43), 3, false),
            (planted(&[30, 22, 41, 25, 33, 18, 27, 36], 14, 2, 0.1, 44), 2, false),
        ];
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (t, r, blocked) in cases {
            let options = FitOptions::new(r).with_seed(45);
            let (j, k) = (t.j(), t.k());
            let (rows, cols) = (j, k * r);
            let (side, depth) = (rows.min(cols), rows.max(cols));
            assert!(gram_route_applies(rows, cols, &options.rsvd), "J={j}: route");
            assert_eq!(use_blocked(side, side, depth), blocked, "J={j}: blocked Gram");
            let config = RsvdConfig { rank: r, ..options.rsvd };
            let seed2 = 45 ^ 0xD1B5_4A32_D192_ED03;
            for threads in [1, 2, 3] {
                let pool = ThreadPool::new(threads);
                let mut mt = Mat::zeros(k * r, j);
                stage1(&t, &config, |k| stage1_seed(45, k), omega_seed(45), mt.data_mut(), &pool);
                let (d, e, f) = stage2_hstack(&blocks_of(&mt, r), r, &config, seed2, &pool);
                let got = compress(&t, &options.with_threads(threads)).unwrap();
                let ctx = format!("J={j}, R={r}, {threads} threads");
                assert_eq!(bits(got.d.data()), bits(d.data()), "{ctx}: D");
                assert_eq!(bits(&got.e), bits(&e), "{ctx}: E");
                for (kk, (x, y)) in got.f_blocks.iter().zip(&f).enumerate() {
                    assert_eq!(bits(x.data()), bits(y.data()), "{ctx}: F({kk})");
                }
            }
        }
    }

    #[test]
    fn a_route_slice_factors_the_same_wherever_it_sits() {
        // Every route slice sketches its Gram against the top rows of the
        // one shared `Ω`, so its `A_k` keeps its bits when the slices are
        // permuted, dense and CSR, at 1–3 threads. Excluded: slices the
        // route does not factor, whose randomized SVD draws from the
        // stream seeded by their place `k` — in the first tensor the
        // rank-one and the zero slice, which the route declines, and the
        // 9-row slice, at most `R + s` rows (an exact SVD); in the second
        // the slices above `κ·(R + s)` = 66 rows, outside the rule.
        let options = FitOptions::new(3).with_seed(48);
        let mut rng = StdRng::seed_from_u64(49);
        let rank_one = product(
            Trans::N,
            Trans::T,
            gaussian_mat(50, 1, &mut rng),
            gaussian_mat(40, 1, &mut rng),
        );
        let mut near = planted(&[120, 45, 20, 30, 64, 9, 90, 15], 40, 3, 0.1, 50).to_slices();
        near.insert(3, rank_one);
        near.push(Mat::zeros(33, 40));
        let far = planted(&[120, 45, 200, 30, 64, 22, 90, 15, 40, 75], 90, 3, 0.1, 51);
        for (name, slices, excluded) in
            [("J=40", near, vec![3, 6, 9]), ("J=90", far.to_slices(), vec![0, 2, 6, 9])]
        {
            let k = slices.len();
            let perm: Vec<usize> = (0..k).map(|i| (3 * i + 2) % k).collect();
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().copied().eq(0..k), "{name}: not a permutation");
            let moved = IrregularTensor::new(perm.iter().map(|&p| slices[p].clone()).collect());
            let t = IrregularTensor::new(slices);
            let routed: Vec<usize> = (0..k)
                .filter(|&kk| {
                    let (rows, cols) = t.slice(kk).shape();
                    gram_route_applies(rows, cols, &options.rsvd)
                        && route(&t.slice(kk).to_mat(), &options.rsvd, omega_seed(48)).is_some()
                })
                .collect();
            let others: Vec<usize> = (0..k).filter(|kk| !routed.contains(kk)).collect();
            assert_eq!(others, excluded, "{name}: the slices the route does not factor");
            let (t_csr, moved_csr) =
                (SparseIrregularTensor::from_dense(&t), SparseIrregularTensor::from_dense(&moved));
            for threads in [1, 2, 3] {
                let opts = options.with_threads(threads);
                let dense = (compress(&t, &opts).unwrap(), compress(&moved, &opts).unwrap());
                let csr = (compress(&t_csr, &opts).unwrap(), compress(&moved_csr, &opts).unwrap());
                for (storage, (base, permuted)) in [("dense", dense), ("CSR", csr)] {
                    for (i, &p) in perm.iter().enumerate().filter(|(_, p)| routed.contains(p)) {
                        assert_eq!(
                            bits(permuted.a[i].data()),
                            bits(base.a[p].data()),
                            "{name}, {storage}, {threads} threads: A_{p} at place {i}"
                        );
                    }
                }
            }
        }
    }

    /// [`cholesky_qr`] as it substituted before, row by row: the oracle of
    /// its column sweep.
    fn cholesky_qr_by_rows(u: &mut Mat, pool: &ThreadPool) -> Option<Mat> {
        let mut g = Mat::default();
        gemm(Trans::T, Trans::N, &*u, &*u, &mut g, pool);
        let r = g.rows();
        let mut l = Mat::zeros(r, r);
        for j in 0..r {
            let d = (0..j).fold(g.at(j, j), |d, k| d - l.at(j, k) * l.at(j, k));
            if d <= 0.0 {
                return None;
            }
            l.set(j, j, d.sqrt());
            for i in j + 1..r {
                let v = (0..j).fold(g.at(i, j), |v, k| v - l.at(i, k) * l.at(j, k));
                l.set(i, j, v / l.at(j, j));
            }
        }
        for i in 0..u.rows() {
            let row = u.row_mut(i);
            for j in 0..r {
                let v = (0..j).fold(row[j], |v, k| v - row[k] * l.at(j, k));
                row[j] = v / l.at(j, j);
            }
        }
        Some(l)
    }

    #[test]
    fn cholesky_qr_by_columns_keeps_the_row_loops_bits() {
        let pool = ThreadPool::new(1);
        let mut rng = StdRng::seed_from_u64(52);
        // One Gram and `L` for every case, as a stage-1 bucket reuses them.
        let (mut g, mut l) = (Mat::default(), Mat::default());
        for (rows, r) in [(790, 10), (50, 10), (300, 18), (7, 3), (1, 1)] {
            let mut want = gaussian_mat(rows, r, &mut rng);
            for i in 0..rows {
                want.row_mut(i).iter_mut().enumerate().for_each(|(j, x)| *x *= (j + 1) as f64);
            }
            let mut got = want.clone();
            assert!(cholesky_qr(&mut got, &mut g, &mut l, &pool), "full column rank");
            let l_want = cholesky_qr_by_rows(&mut want, &pool).unwrap();
            assert_eq!(bits(l.data()), bits(l_want.data()), "{rows}x{r}: L");
            assert_eq!(bits(got.data()), bits(want.data()), "{rows}x{r}: U·L⁻ᵀ");
        }
        // A zero column has no positive pivot.
        let mut u = gaussian_mat(20, 4, &mut rng);
        (0..20).for_each(|i| u.set(i, 2, 0.0));
        assert!(!cholesky_qr(&mut u.clone(), &mut g, &mut l, &pool));
        assert!(cholesky_qr_by_rows(&mut u, &pool).is_none());
    }

    #[test]
    fn noisy_compression_near_optimal() {
        // With noise, compressed reconstruction should still capture the
        // signal: relative error about the noise floor, not worse.
        let eps = 0.05;
        let t = planted(&[50, 70], 30, 4, eps, 9);
        let c = compress(&t, &FitOptions::new(4).with_seed(10)).unwrap();
        for k in 0..t.k() {
            let rel = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(rel < 0.2, "slice {k} rel err {rel} too high");
        }
    }

    #[test]
    fn rank_too_large_rejected() {
        let t = planted(&[10, 4], 20, 2, 0.0, 11);
        let err = compress(&t, &FitOptions::new(5)).unwrap_err();
        assert!(matches!(err, Dpar2Error::RankTooLarge { slice: 1, limit: 4, .. }));
    }

    #[test]
    fn zero_rank_rejected() {
        let t = planted(&[10], 8, 2, 0.0, 12);
        assert_eq!(compress(&t, &FitOptions::new(0)).unwrap_err(), Dpar2Error::ZeroRank);
    }

    #[test]
    fn edt_matches_explicit_product() {
        let t = planted(&[20, 30], 15, 3, 0.1, 13);
        let c = compress(&t, &FitOptions::new(3).with_seed(14)).unwrap();
        let explicit = product(Trans::N, Trans::N, Mat::diag(&c.e), c.d.transpose());
        assert!((&c.edt() - &explicit).fro_norm() < 1e-12);
    }

    #[test]
    fn blockwise_equivalence_of_m_factorization() {
        // B_k C_kᵀ ≈ F(k) E Dᵀ (Equation 6's replacement step): verify the
        // products agree for noiseless low-rank input.
        let t = planted(&[25, 35], 12, 2, 0.0, 15);
        let cfg = FitOptions::new(2).with_seed(16);
        let c = compress(&t, &cfg).unwrap();
        // Reconstruct both sides through the slices: A_k B_k C_kᵀ == X_k
        // (noiseless) and A_k F(k) E Dᵀ == X_k.
        for k in 0..t.k() {
            let rel = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(rel < 1e-8);
        }
    }

    #[test]
    fn works_on_uniform_random_tensor() {
        // tenrand-style dense tensor — low fitness but valid shapes.
        let mut rng = StdRng::seed_from_u64(17);
        let slices = (0..4).map(|_| Mat::from_fn(22, 14, |_, _| rng.random())).collect();
        let t = IrregularTensor::new(slices);
        let c = compress(&t, &FitOptions::new(5).with_seed(18)).unwrap();
        assert_eq!(c.k(), 4);
        assert_eq!(c.rank, 5);
    }
}
