//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! Every PARAFAC2 solver in this repository leans on the SVD:
//!
//! * PARAFAC2-ALS updates `Q_k` from the truncated SVD of `X_k V S_k Hᵀ`
//!   (Algorithm 2, line 4),
//! * DPar2 takes the SVD of the tiny `R×R` matrix `F(k) E Dᵀ V S_k Hᵀ`
//!   (Algorithm 3, line 9),
//! * randomized SVD (Algorithm 1) finishes with an exact SVD of the small
//!   sketch `B = Qᵀ A`.
//!
//! We implement the *one-sided Jacobi* method: it orthogonalizes the columns
//! of the working matrix by plane rotations until convergence, at which point
//! column norms are the singular values. It is simple, unconditionally
//! convergent in practice, and delivers high relative accuracy — a good match
//! for the small/medium matrices these algorithms produce. Tall matrices are
//! QR-preconditioned first (`A = Q·R`, Jacobi on `R`); wide matrices are
//! transposed. One function, `Plan::new`, makes that choice for every
//! driver.
//!
//! The Jacobi core sweeps in *lane stores*: column-major arrays of
//! `[f64; L]`, one matrix per lane. One sweep body, `sweeps_portable`, is
//! generic over the width `L`. [`svd_thin_into`] runs it at width one on
//! its single core. DPar2's `Q_k` step factors `K` same-shape `R×R`
//! matrices per iteration, and stage 1 one `(R+s)×J` sketch `B` per slice;
//! one small Jacobi SVD is latency-bound: every pair `(p, q)` waits on a
//! dot-product chain, a square root and two divisions. The lane kernels
//! therefore factor up to [`SVD_LANES`] (sixteen) matrices of one shape in
//! lock step, one per lane. [`svd_thin_batch_into`] takes `Mat`s: each lane
//! is prepared as [`svd_thin_into`] prepares its input — a wide matrix is
//! transposed, a noticeably tall one QR-preconditioned — and the lanes'
//! Jacobi cores are then interleaved. [`svd_square_lanes`] takes square
//! matrices already in [`gemm_lanes`]' lane store and writes each lane's
//! sorted `U`, `s` and `V` straight into lane stores, so the `Q_k` step's
//! products read them without a round trip through `Mat`. At width sixteen
//! the sweeps take a SIMD kernel where the CPU has one. On a CPU with
//! AVX-512F and AVX-512DQ (detected once at runtime) they run on two
//! `__m512d` per lane group, each op on both halves, so two independent
//! rotation chains overlap: the three dot products, the skip test as `≤`
//! masks, `ζ`, `t`, `c`, `s` through packed `div`/`sqrt`, and the
//! rotations of `W` and `V`. On a CPU with AVX2 alone a second kernel runs
//! the same ops on four `__m256d`; elsewhere the portable body runs at
//! width sixteen. Every packed op is the portable op, correctly rounded, in
//! each lane (Rust never contracts `a*b + c` into a fused multiply-add),
//! each lane has its own tolerance and stops sweeping when its own sweep
//! makes no rotation. Every kernel tests the skip mask before it computes a
//! rotation, so at width one a pair that does not rotate costs its dot
//! products alone. A lane that does not rotate a pair keeps its values by
//! *select* (`blendv`, a masked blend, or an `if`), never by an identity
//! rotation `c = 1, s = 0`: that would still round, and turns `−0` into
//! `+0` (`(−0) − 0·(−x)` is `(−0) − (−0) = +0`). Every lane's factors are
//! therefore bitwise those of [`svd_thin_into`], on every kernel. Every
//! driver finishes a lane through the one shared finish, which sorts,
//! normalizes, completes a rank-deficient `U`'s basis and gives a zero core
//! arbitrary orthonormal factors; [`svd_square_lanes`] writes a full-rank
//! lane's factors to its stores directly. A scalar Jacobi loop is kept in
//! this module's tests as the oracle of the width-one sweep. The AVX-512
//! and AVX2 kernels are this crate's second and third contained `unsafe`
//! exceptions, of the same shape as the GEMM microkernel's in
//! [`crate::kernel`].
//!
//! The Jacobi loop is scale-invariant: its skip tolerance is relative to
//! the core's `‖·‖_F`, and a core whose norm lies outside
//! `[2^-25, 2^250]` — where `1e-15·‖A‖²` would be subnormal or the skip
//! test's `√(app·aqq)` could overflow — is scaled by an exact power of
//! two first, undone on `s`. `U` and `V` of `2^k·A` are then bitwise those
//! of `A`, and `s` is `2^k` times its `s`, while no entry of either leaves
//! the normal range. Only the Jacobi core is scaled: a tall input's QR
//! preconditioning squares its column norms unscaled.
//!
//! The products around the `Q_k` step's SVDs use the same lane layout:
//! [`gemm_lanes`] runs up to [`SVD_LANES`] small `n×n` products at once,
//! one per lane, in the operation order of [`crate::gemm`]'s naive loops,
//! so every lane holds that product's bits. Its body is one portable loop
//! over lane groups; on a CPU with AVX2 the same body runs compiled for it
//! (the fourth `unsafe` exception, with no intrinsics). A 512-bit build of
//! that body measured slower in the fit, so AVX-512 hosts run it too.

use crate::kernel::Trans;
use crate::mat::{gemm, product, Mat};
use crate::qr::{qr_into, QrScratch};
use crate::view::{AsMatRef, MatRef};
use dpar2_parallel::ThreadPool;

/// Maximum number of Jacobi sweeps before declaring non-convergence.
/// One-sided Jacobi converges quadratically; well-conditioned inputs finish
/// in < 10 sweeps, so 60 leaves a wide margin.
const MAX_SWEEPS: usize = 60;

/// A (thin) singular value decomposition `A ≈ U · diag(s) · Vᵀ`.
#[derive(Debug, Clone, Default)]
pub struct SvdFactors {
    /// Column-orthonormal left factor, `m × k`.
    pub u: Mat,
    /// Singular values in non-increasing order, length `k`.
    pub s: Vec<f64>,
    /// Column-orthonormal right factor, `n × k`.
    pub v: Mat,
}

impl SvdFactors {
    /// Reconstructs `U · diag(s) · Vᵀ`.
    pub fn reconstruct(&self) -> Mat {
        let us = scale_cols(&self.u, &self.s);
        product(Trans::N, Trans::T, &us, &self.v)
    }

    /// Numerical rank at relative tolerance `rel_tol` (fraction of `s[0]`).
    pub fn rank(&self, rel_tol: f64) -> usize {
        let cutoff = self.s.first().copied().unwrap_or(0.0) * rel_tol;
        self.s.iter().filter(|&&x| x > cutoff).count()
    }
}

/// Returns `m` with column `j` scaled by `s[j]`.
fn scale_cols(m: &Mat, s: &[f64]) -> Mat {
    let mut out = m.clone();
    let cols = m.cols();
    for i in 0..m.rows() {
        let row = out.row_mut(i);
        for (j, &sj) in s.iter().enumerate().take(cols) {
            row[j] *= sj;
        }
    }
    out
}

/// Reusable scratch for the in-place SVD entry points. One instance serves
/// any sequence of factorizations; buffers grow to the largest shape seen
/// and are then reused, so repeated same-shape factorizations (the per-slice
/// `R×R` SVDs of the ALS iterations) perform no heap allocations.
#[derive(Debug, Default)]
pub struct SvdScratch {
    /// The Jacobi core's stores, one lane wide: [`svd_thin_into`] sweeps
    /// them with the lane kernels' portable body at width one.
    jacobi: JacobiStores<1>,
    /// The `Q` of a QR-preconditioned input, kept from its preparation to
    /// its finish.
    q: Mat,
    /// The steps around the core: its preparation and its finish.
    core: CoreScratch,
}

/// A Jacobi core's stores, `L` lanes wide: lane `l` holds one matrix.
#[derive(Debug, Default)]
struct JacobiStores<const L: usize> {
    /// Column-major working store `W` (`cols` columns of length `rows`).
    w: Vec<[f64; L]>,
    /// Column-major rotation accumulator `V` (`cols×cols`).
    v: Vec<[f64; L]>,
}

impl<const L: usize> JacobiStores<L> {
    /// Zeroes `W` for a `rows×cols` core and sets `V` to the identity.
    fn reset(&mut self, rows: usize, cols: usize) {
        self.w.clear();
        self.w.resize(rows * cols, [0.0; L]);
        self.v.clear();
        self.v.resize(cols * cols, [0.0; L]);
        for j in 0..cols {
            self.v[j * cols + j] = [1.0; L];
        }
    }
}

/// Scratch of the steps around a Jacobi core: the transpose and QR that
/// prepare it ([`load_core`]), and the finish that sorts, normalizes and
/// lifts its factors ([`jacobi_finish`]).
#[derive(Debug, Default)]
struct CoreScratch {
    /// Transposed copy for wide inputs.
    trans: Mat,
    /// QR-preconditioning scratch (tall inputs).
    qr: QrScratch,
    /// The `R` of a tall input's QR.
    qr_r: Mat,
    /// Column norms (candidate singular values) before sorting.
    sigmas: Vec<f64>,
    /// Column permutation sorting the spectrum descending.
    order: Vec<usize>,
    /// Indices of numerically-null columns of `U` to re-orthonormalize.
    deficient: Vec<usize>,
    /// Gram–Schmidt candidate vector for basis completion.
    cand: Vec<f64>,
    /// Left factor of a preconditioned core, before its lift by `Q`.
    u_inner: Mat,
}

/// Number of matrices the lane kernels ([`svd_thin_batch_into`],
/// [`svd_square_lanes`], [`gemm_lanes`]) process in lock step: two
/// 512-bit `f64` vectors, so the AVX-512 sweeps run two independent
/// rotation chains side by side (the AVX2 ones run four 256-bit vectors).
pub const SVD_LANES: usize = 16;

/// One value per lane of the batched kernels: a lane group.
type Lanes = [f64; SVD_LANES];

/// Reusable scratch for [`svd_thin_batch_into`] and [`svd_square_lanes`];
/// like [`SvdScratch`], it grows to the largest shape seen and then
/// allocates nothing.
#[derive(Debug, Default)]
pub struct SvdBatchScratch {
    /// The lanes' Jacobi stores, [`SVD_LANES`] wide.
    jacobi: JacobiStores<SVD_LANES>,
    /// Each QR-preconditioned lane's `Q`, kept from its preparation to its
    /// finish.
    q: [Mat; SVD_LANES],
    /// Scalar scratch: its `core` prepares and finishes one lane at a time,
    /// and the whole runs [`svd_thin_into`] on a matrix of another shape.
    scalar: SvdScratch,
    /// The factors of a lane of [`svd_square_lanes`] that goes through the
    /// shared finish, before they are copied into the lane stores.
    lane_factors: SvdFactors,
}

/// How every driver factors an `m×n` input: Jacobi runs on a `rows×cols`
/// core, which is the input, its transpose if wide, and then the `R` of
/// its QR if noticeably tall.
#[derive(Debug, Clone, Copy)]
struct Plan {
    wide: bool,
    precondition: bool,
    rows: usize,
    cols: usize,
}

impl Plan {
    fn new(m: usize, n: usize) -> Self {
        let wide = m < n;
        let (tall, cols) = if wide { (n, m) } else { (m, n) };
        // QR preconditioning: Jacobi sweeps cost O(m n²) each, so shrinking
        // the row dimension to n first is a large win whenever m is even
        // modestly larger than n (and never hurts accuracy).
        let precondition = tall > cols + cols / 4;
        Plan { wide, precondition, rows: if precondition { cols } else { tall }, cols }
    }
}

/// `2^k`, for `-1022 ≤ k ≤ 1023`.
pub const fn pow2(k: i32) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// The core norms `‖A‖_F` the Jacobi loop takes unscaled: from `FRO_MIN`
/// the tolerance `1e-15·‖A‖²` is a normal number, and up to `FRO_MAX` the
/// skip test's `app·aqq ≤ ‖A‖⁴` cannot overflow. The range holds every
/// norm in `[3.2e-8, 1e75]`, so such inputs keep their bits.
const FRO_MIN: f64 = pow2(-25);
const FRO_MAX: f64 = pow2(250);

/// How the Jacobi loop takes a core of norm `fro` with entries `core`:
/// `None` if it is zero, else `(scale, unscale)`, the powers of two it is
/// scaled by and its singular values are scaled back by. A core outside
/// `[FRO_MIN, FRO_MAX]` — including one whose squares underflow to a zero
/// norm or overflow to `+∞` — is scaled so its largest entry lies in
/// `[1, 2)`; a non-finite one, and any other, is left as it is (`1, 1`).
fn core_scale(fro: f64, core: impl Iterator<Item = f64>) -> Option<(f64, f64)> {
    if fro.is_nan() || (FRO_MIN..=FRO_MAX).contains(&fro) {
        return Some((1.0, 1.0));
    }
    let amax = core.fold(0.0f64, |m, x| m.max(x.abs()));
    if amax == 0.0 {
        return None;
    }
    if amax.is_infinite() {
        return Some((1.0, 1.0));
    }
    // `amax`'s binary exponent, clamped so that both powers are normal (a
    // subnormal `amax` reads as `2^-1023`).
    let e = ((amax.to_bits() >> 52) as i32 - 1023).clamp(-1022, 1022);
    Some((pow2(-e), pow2(e)))
}

/// The skip test's tolerance, `1e-15·‖W‖²` for the core the loop sweeps:
/// `fro` if it runs unscaled, else the norm of its scaled entries
/// `scaled`, summed in column-major order.
fn jacobi_tol(fro: f64, scale: f64, scaled: impl Iterator<Item = f64>) -> f64 {
    let fro = if scale == 1.0 { fro } else { scaled.map(|x| x * x).sum::<f64>().sqrt() };
    1e-15 * fro * fro
}

/// [`core_scale`] and [`jacobi_tol`] for every lane of the lane-
/// interleaved cores `w` that is `live`, of norms `fro`: scales each in
/// place, clears `live` for a zero core, and returns the tolerances and
/// the powers of two that scale each lane's singular values back.
fn scale_lanes<const L: usize>(
    w: &mut [[f64; L]],
    fro: &[f64; L],
    live: &mut [bool; L],
) -> ([f64; L], [f64; L]) {
    let (mut tol, mut unscale) = ([0.0; L], [1.0; L]);
    for l in 0..L {
        if !live[l] {
            continue;
        }
        let Some((scale, back)) = core_scale(fro[l], w.iter().map(|x| x[l])) else {
            live[l] = false;
            continue;
        };
        if scale != 1.0 {
            w.iter_mut().for_each(|x| x[l] *= scale);
        }
        tol[l] = jacobi_tol(fro[l], scale, w.iter().map(|x| x[l]));
        unscale[l] = back;
    }
    (tol, unscale)
}

/// Thin SVD of an arbitrary dense matrix.
///
/// Strategy:
/// * `m ≥ n`: QR-precondition when noticeably tall, then one-sided Jacobi.
/// * `m < n`: factorize the transpose and swap `U`/`V`.
pub fn svd_thin(a: impl AsMatRef) -> SvdFactors {
    let mut out = SvdFactors::default();
    svd_thin_into(a, &mut out, &mut SvdScratch::default());
    out
}

/// [`svd_thin`] into a caller-owned [`SvdFactors`] with reusable scratch —
/// the allocation-free form the ALS hot loops run on. Bit-identical to
/// [`svd_thin`]. The Jacobi core sweeps in one-lane stores, through the
/// portable body of the lane kernels at width one.
pub fn svd_thin_into(a: impl AsMatRef, out: &mut SvdFactors, ws: &mut SvdScratch) {
    let a = a.as_mat_ref();
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        out.u.resize_zeroed(m, 0);
        out.s.clear();
        out.v.resize_zeroed(n, 0);
        return;
    }
    let plan = Plan::new(m, n);
    let SvdScratch { jacobi, q, core } = ws;
    jacobi.reset(plan.rows, plan.cols);
    let fro = load_core(plan, a, &mut jacobi.w, 0, q, core);
    let mut live = [true];
    let (tol, unscale) = scale_lanes(&mut jacobi.w, &[fro], &mut live);
    if live[0] {
        sweeps_portable(plan.rows, plan.cols, &mut jacobi.w, &mut jacobi.v, &tol, live);
    }
    let (back, lift) = (live[0].then_some(unscale[0]), plan.precondition.then_some(&*q));
    jacobi_finish(plan, jacobi, 0, back, lift, out, core);
}

/// Factors up to [`SVD_LANES`] matrices at once: `out[l]` is bitwise what
/// [`svd_thin_into`] writes for `a[l]`.
///
/// The matrices of the first lane's shape are prepared lane by lane as
/// [`svd_thin_into`] prepares its input — a wide one is transposed, a
/// noticeably tall one QR-preconditioned — and their Jacobi cores then
/// sweep in lock step, one lane each (see the module docs); each lane's
/// factors are lifted and swapped back on their own. A matrix of any other
/// shape goes through [`svd_thin_into`] alone.
///
/// # Panics
/// Panics if `a` and `out` differ in length or hold more than
/// [`SVD_LANES`] matrices.
pub fn svd_thin_batch_into(a: &[Mat], out: &mut [SvdFactors], ws: &mut SvdBatchScratch) {
    assert!(
        a.len() == out.len() && a.len() <= SVD_LANES,
        "svd_thin_batch_into: {} inputs, {} outputs, at most {SVD_LANES} lanes",
        a.len(),
        out.len()
    );
    let (m, n) = a.first().map_or((0, 0), Mat::shape);
    let plan = Plan::new(m, n);
    let SvdBatchScratch { jacobi, q, scalar, .. } = ws;
    jacobi.reset(plan.rows, plan.cols);
    // `loaded` lanes hold a core; those of them that are not zero are
    // `live` and take the batched sweeps.
    let (mut loaded, mut fro) = ([false; SVD_LANES], [0.0; SVD_LANES]);
    for (l, x) in a.iter().enumerate() {
        if plan.cols > 0 && x.shape() == (m, n) {
            fro[l] = load_core(plan, x.view(), &mut jacobi.w, l, &mut q[l], &mut scalar.core);
            loaded[l] = true;
        }
    }
    let mut live = loaded;
    let (tol, unscale) = scale_lanes(&mut jacobi.w, &fro, &mut live);
    if live.contains(&true) {
        jacobi_sweeps(plan.rows, plan.cols, &mut jacobi.w, &mut jacobi.v, &tol, live);
    }
    for (l, (x, o)) in a.iter().zip(out.iter_mut()).enumerate() {
        if loaded[l] {
            let (back, lift) = (live[l].then_some(unscale[l]), plan.precondition.then_some(&q[l]));
            jacobi_finish(plan, jacobi, l, back, lift, o, &mut scalar.core);
        } else {
            svd_thin_into(x, o, scalar);
        }
    }
}

/// Factors up to [`SVD_LANES`] square `n×n` matrices at once, read from
/// and written to lane stores: lane `l`'s entry `(i, j)` is at
/// `[i·n + j][l]`, as in [`gemm_lanes`]. For each of the first `live`
/// lanes, `u` and `v` (`n×n`) and `s` (`n`) get bitwise the `u`, `v` and
/// `s` of [`svd_thin_into`] on that lane's matrix; the other lanes hold
/// zeros.
///
/// The lanes' Jacobi cores sweep in lock step (see the module docs), and
/// each full-rank lane's sorted factors go straight into the output
/// stores. A lane that is zero, or whose `U` needs basis completion
/// (rank-deficient or non-finite), is finished alone from its own swept
/// columns by the finish every driver shares.
///
/// # Panics
/// Panics if `live > SVD_LANES` or `a` does not hold `n×n` entries.
pub fn svd_square_lanes(
    n: usize,
    live: usize,
    a: &[Lanes],
    u: &mut Vec<Lanes>,
    s: &mut Vec<Lanes>,
    v: &mut Vec<Lanes>,
    ws: &mut SvdBatchScratch,
) {
    assert!(live <= SVD_LANES, "svd_square_lanes: {live} live lanes, at most {SVD_LANES}");
    assert_eq!(a.len(), n * n, "svd_square_lanes: store is not {n}x{n}");
    for (x, len) in [(&mut *u, n * n), (&mut *s, n), (&mut *v, n * n)] {
        x.clear();
        x.resize(len, [0.0; SVD_LANES]);
    }
    if n == 0 {
        return;
    }
    let SvdBatchScratch { jacobi, scalar, lane_factors, .. } = ws;
    // `a` is row-major, so these sums run in `Mat::fro_norm`'s order.
    let mut fro = [0.0; SVD_LANES];
    for x in a {
        for l in 0..SVD_LANES {
            fro[l] += x[l] * x[l];
        }
    }
    let fro = fro.map(f64::sqrt);
    jacobi.reset(n, n);
    for (i, row) in a.chunks_exact(n).enumerate() {
        for (j, x) in row.iter().enumerate() {
            // Dead lanes stay zero, whatever `a` holds there.
            jacobi.w[j * n + i][..live].copy_from_slice(&x[..live]);
        }
    }
    let mut swept = [false; SVD_LANES];
    swept[..live].fill(true);
    let (tol, unscale) = scale_lanes(&mut jacobi.w, &fro, &mut swept);
    if swept.contains(&true) {
        jacobi_sweeps(n, n, &mut jacobi.w, &mut jacobi.v, &tol, swept);
        // Every lane's column norms at once, in `jacobi_finish`'s order; `s`
        // holds them unsorted until each lane's sort.
        for (sj, col) in s.iter_mut().zip(jacobi.w.chunks_exact(n)) {
            let mut sq = [0.0; SVD_LANES];
            for x in col {
                for l in 0..SVD_LANES {
                    sq[l] += x[l] * x[l];
                }
            }
            *sj = sq.map(f64::sqrt);
        }
    }
    let (w, rot) = (&jacobi.w, &jacobi.v);
    for l in 0..live {
        if swept[l] {
            // `jacobi_finish` for this lane, unless its `U` needs completion.
            let (sigmas, order) = (&mut scalar.core.sigmas, &mut scalar.core.order);
            sigmas.clear();
            sigmas.extend(s.iter().map(|x| x[l]));
            order.clear();
            order.extend(0..n);
            order.sort_by(|&i, &j| sigmas[j].total_cmp(&sigmas[i]));
            let rank_tol = sigmas[order[0]] * 1e-14;
            if sigmas.iter().all(|&sigma| sigma > rank_tol && sigma > 0.0) {
                for (new_j, &old_j) in order.iter().enumerate() {
                    let sigma = sigmas[old_j];
                    s[new_j][l] = sigma * unscale[l];
                    let inv = 1.0 / sigma;
                    for i in 0..n {
                        u[i * n + new_j][l] = w[old_j * n + i][l] * inv;
                        v[i * n + new_j][l] = rot[old_j * n + i][l];
                    }
                }
                continue;
            }
        }
        let back = swept[l].then_some(unscale[l]);
        jacobi_finish(Plan::new(n, n), jacobi, l, back, None, lane_factors, &mut scalar.core);
        let f = &*lane_factors;
        for (dst, src) in [(&mut *u, &f.u), (&mut *v, &f.v)] {
            for (x, &y) in dst.iter_mut().zip(src.data()) {
                x[l] = y;
            }
        }
        for (x, &y) in s.iter_mut().zip(&f.s) {
            x[l] = y;
        }
    }
}

/// Writes the Jacobi core of `x` under `plan` column-major into lane `l`
/// of `w` and returns its Frobenius norm: `x` itself, its transpose if
/// wide (in `ws`), then the `R` of its QR if noticeably tall (in `ws`, the
/// `Q` in `q`).
fn load_core<const L: usize>(
    plan: Plan,
    x: MatRef<'_>,
    w: &mut [[f64; L]],
    l: usize,
    q: &mut Mat,
    ws: &mut CoreScratch,
) -> f64 {
    let CoreScratch { trans, qr, qr_r, .. } = ws;
    let mut core = x;
    if plan.wide {
        x.transpose_into(trans);
        core = trans.view();
    }
    if plan.precondition {
        qr_into(core, q, qr_r, qr);
        core = qr_r.view();
    }
    for j in 0..plan.cols {
        for i in 0..plan.rows {
            w[j * plan.rows + i][l] = core.at(i, j);
        }
    }
    core.fro_norm()
}

/// The right operand of [`gemm_lanes`]: one `n×n` matrix read by every
/// lane, or a lane-interleaved store with one matrix per lane.
#[derive(Debug, Clone, Copy)]
pub enum LaneOperand<'a> {
    /// The same matrix in every lane.
    Shared(&'a Mat),
    /// Lane `l`'s entry `(i, j)` at `[i·n + j][l]`.
    PerLane(&'a [[f64; SVD_LANES]]),
}

/// `C = op(A)·op(B)` for up to [`SVD_LANES`] `n×n` products at once, one
/// per lane: lane `l` of `c` gets bitwise what [`crate::gemm`] computes
/// from lane `l` of `a` and of `b`, for any `n` where `gemm` takes its
/// register tiles (`!kernel::use_blocked(n, n, n)`).
///
/// `a` and `c` (and a [`LaneOperand::PerLane`] `b`) are lane-interleaved
/// row-major stores, lane `l`'s entry `(i, j)` at `[i·n + j][l]`
/// ([`interleave_lanes`] builds one, [`extract_lane`] reads one back).
/// Every form runs one loop: each output entry is one chain over
/// ascending depth from `+0.0`, one multiply and one add per step, never
/// fused, held in registers two entries at a time: the order of `gemm`'s
/// tiles and of [`crate::kernel::gemm_naive_into`].
/// On a CPU with AVX2 the same loop runs compiled for it, four 256-bit
/// vectors per lane group; both builds give the same bits. `c` is resized
/// and overwritten.
///
/// # Panics
/// Panics if an operand does not hold `n×n` entries.
pub fn gemm_lanes(
    ta: Trans,
    tb: Trans,
    n: usize,
    a: &[Lanes],
    b: LaneOperand<'_>,
    c: &mut Vec<Lanes>,
) {
    assert_eq!(a.len(), n * n, "gemm_lanes: A is not {n}x{n}");
    c.resize(n * n, [0.0; SVD_LANES]);
    match b {
        LaneOperand::Shared(b) => {
            assert_eq!(b.shape(), (n, n), "gemm_lanes: B is not {n}x{n}");
            lane_products_dispatch(ta, tb, n, a, b.data(), c);
        }
        LaneOperand::PerLane(b) => {
            assert_eq!(b.len(), n * n, "gemm_lanes: B is not {n}x{n}");
            lane_products_dispatch(ta, tb, n, a, b, c);
        }
    }
}

/// Interleaves up to [`SVD_LANES`] `n×n` matrices into the lane store
/// `dst` of [`gemm_lanes`], matrix `l` in lane `l`; lanes past the last
/// matrix hold zeros.
///
/// # Panics
/// Panics if a matrix is not `n×n` or there are more than [`SVD_LANES`].
pub fn interleave_lanes<'m>(
    mats: impl IntoIterator<Item = &'m Mat>,
    n: usize,
    dst: &mut Vec<Lanes>,
) {
    dst.clear();
    dst.resize(n * n, [0.0; SVD_LANES]);
    for (l, m) in mats.into_iter().enumerate() {
        assert!(l < SVD_LANES, "interleave_lanes: more than {SVD_LANES} matrices");
        assert_eq!(m.shape(), (n, n), "interleave_lanes: matrix {l} is not {n}x{n}");
        for (x, &y) in dst.iter_mut().zip(m.data()) {
            x[l] = y;
        }
    }
}

/// Copies lane `l` of the `n×n` lane store `src` into `dst`.
///
/// # Panics
/// Panics if `src` does not hold `n×n` entries or `l ≥ SVD_LANES`.
pub fn extract_lane(src: &[Lanes], n: usize, l: usize, dst: &mut Mat) {
    assert_eq!(src.len(), n * n, "extract_lane: store is not {n}x{n}");
    dst.resize_for_overwrite(n, n);
    for (y, x) in dst.data_mut().iter_mut().zip(src) {
        *y = x[l];
    }
}

/// A right-operand entry as a lane group: a shared entry splats.
trait AsLanes: Copy {
    fn lanes(self) -> Lanes;
}

impl AsLanes for f64 {
    #[inline(always)]
    fn lanes(self) -> Lanes {
        [self; SVD_LANES]
    }
}

impl AsLanes for Lanes {
    #[inline(always)]
    fn lanes(self) -> Lanes {
        self
    }
}

/// `acc += a·b` in every lane: one multiply, then one add.
#[inline(always)]
fn mul_add_lanes(acc: &mut Lanes, a: Lanes, b: Lanes) {
    for l in 0..SVD_LANES {
        acc[l] += a[l] * b[l];
    }
}

/// Takes the AVX2 build of [`lane_products`] when the CPU has it; both
/// builds give the same bits.
fn lane_products_dispatch<T: AsLanes>(
    ta: Trans,
    tb: Trans,
    n: usize,
    a: &[Lanes],
    b: &[T],
    c: &mut [Lanes],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::simd().avx2 {
        // SAFETY: `simd` verified AVX2 support on this CPU, which is the
        // only precondition of the `#[target_feature]` fn.
        #[allow(unsafe_code)]
        return unsafe { lane_products_avx2(ta, tb, n, a, b, c) };
    }
    lane_products(ta, tb, n, a, b, c);
}

/// [`lane_products`] compiled for AVX2: the same body, so the same
/// operations in the same order, each lane group in four 256-bit vectors.
///
/// # Safety
/// The CPU must support AVX2 (checked by [`lane_products_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn lane_products_avx2<T: AsLanes>(
    ta: Trans,
    tb: Trans,
    n: usize,
    a: &[Lanes],
    b: &[T],
    c: &mut [Lanes],
) {
    lane_products(ta, tb, n, a, b, c);
}

/// The portable lane loop of [`gemm_lanes`] on checked `n×n` operands:
/// one loop for every form, each scalar op widened to a lane group,
/// `op(A)` and `op(B)` read through their strides, each row of `C` in
/// pairs of entries (then a single one). The fallback on CPUs without
/// AVX2, and the oracle of its AVX2 build.
#[inline(always)]
fn lane_products<T: AsLanes>(
    ta: Trans,
    tb: Trans,
    n: usize,
    a: &[Lanes],
    b: &[T],
    c: &mut [Lanes],
) {
    // `chunks_exact_mut(0)` panics: an empty product has nothing to do.
    if n == 0 {
        return;
    }
    // Store steps of one row and one depth step of `op(A)`, and of one
    // depth step and one column of `op(B)`.
    let (a_row, a_depth) = if ta == Trans::N { (n, 1) } else { (1, n) };
    let (b_depth, b_col) = if tb == Trans::N { (n, 1) } else { (1, n) };
    for (i, ci) in c.chunks_exact_mut(n).enumerate() {
        let ai = &a[i * a_row..];
        let mut pairs = ci.chunks_exact_mut(2);
        for (jj, cj) in pairs.by_ref().enumerate() {
            lane_entries::<2, T>(n, (ai, a_depth), (&b[2 * jj * b_col..], b_col, b_depth), cj);
        }
        let rest = pairs.into_remainder();
        if !rest.is_empty() {
            lane_entries::<1, T>(n, (ai, a_depth), (&b[(n - 1) * b_col..], b_col, b_depth), rest);
        }
    }
}

/// `J` adjacent entries of one row of [`lane_products`]' `C`, each one
/// chain over the depth in registers: `ai[p·a_depth]` is `op(A)`'s entry
/// `(i, p)`, `bj[s·b_col + p·b_depth]` is `op(B)`'s `(p, j + s)`.
#[inline(always)]
fn lane_entries<const J: usize, T: AsLanes>(
    n: usize,
    (ai, a_depth): (&[Lanes], usize),
    (bj, b_col, b_depth): (&[T], usize, usize),
    out: &mut [Lanes],
) {
    let mut acc = [[0.0; SVD_LANES]; J];
    for p in 0..n {
        let aip = ai[p * a_depth];
        for (s, accs) in acc.iter_mut().enumerate() {
            mul_add_lanes(accs, aip, bj[s * b_col + p * b_depth].lanes());
        }
    }
    out.copy_from_slice(&acc);
}

/// Runs the one-sided Jacobi sweeps on the live lanes of the lane-
/// interleaved column-major `rows×cols` store `w`, [`SVD_LANES`] wide,
/// accumulating each lane's rotations into `v` (`cols×cols`). Returns how
/// many sweeps each lane ran. Takes the AVX-512 kernel when the CPU has
/// AVX-512F and AVX-512DQ, else the AVX2 kernel when it has AVX2, else the
/// portable body; every kernel gives the same bits.
fn jacobi_sweeps(
    rows: usize,
    cols: usize,
    w: &mut [Lanes],
    v: &mut [Lanes],
    tol: &Lanes,
    live: [bool; SVD_LANES],
) -> [usize; SVD_LANES] {
    #[cfg(target_arch = "x86_64")]
    {
        let simd = crate::kernel::simd();
        if simd.avx512 {
            // SAFETY: `simd` verified AVX-512F and AVX-512DQ support on this
            // CPU, which is the only precondition of the `#[target_feature]` fn.
            #[allow(unsafe_code)]
            return unsafe { sweeps_avx512(rows, cols, w, v, tol, live) };
        }
        if simd.avx2 {
            // SAFETY: `simd` verified AVX2 support on this CPU, which
            // is the only precondition of the `#[target_feature]` fn.
            #[allow(unsafe_code)]
            return unsafe { sweeps_avx2(rows, cols, w, v, tol, live) };
        }
    }
    sweeps_portable(rows, cols, w, v, tol, live)
}

/// The portable sweep kernel, `L` lanes wide: the one-sided Jacobi loop
/// with every scalar op widened to a lane array. [`svd_thin_into`] runs it
/// at width one; at width [`SVD_LANES`] it is the fallback on CPUs without
/// AVX2, and the oracle the SIMD kernels are tested against. As they do, it
/// tests the skip mask before it computes a rotation, so a pair no lane
/// rotates costs its dot products alone.
fn sweeps_portable<const L: usize>(
    rows: usize,
    cols: usize,
    w: &mut [[f64; L]],
    v: &mut [[f64; L]],
    tol: &[f64; L],
    live: [bool; L],
) -> [usize; L] {
    let mut sweeps = [0; L];
    let mut active = live;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = [false; L];
        for l in 0..L {
            sweeps[l] += usize::from(active[l]);
        }
        for p in 0..cols {
            for q in p + 1..cols {
                let (mut app, mut aqq, mut apq) = ([0.0; L], [0.0; L], [0.0; L]);
                for (wp, wq) in w[p * rows..(p + 1) * rows].iter().zip(&w[q * rows..(q + 1) * rows])
                {
                    for l in 0..L {
                        app[l] += wp[l] * wp[l];
                        aqq[l] += wq[l] * wq[l];
                        apq[l] += wp[l] * wq[l];
                    }
                }
                let mut rot = [false; L];
                for l in 0..L {
                    rot[l] = active[l]
                        && !(apq[l].abs() <= tol[l]
                            || apq[l].abs() <= 1e-15 * (app[l] * aqq[l]).sqrt());
                    rotated[l] |= rot[l];
                }
                if !rot.contains(&true) {
                    continue;
                }
                // Closed-form Jacobi rotation that zeroes the (p,q) entry of
                // the implicit Gram matrix WᵀW.
                let (mut c, mut s_rot) = ([0.0; L], [0.0; L]);
                for l in 0..L {
                    let zeta = (aqq[l] - app[l]) / (2.0 * apq[l]);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    c[l] = 1.0 / (1.0 + t * t).sqrt();
                    s_rot[l] = c[l] * t;
                }
                let (wp, wq) = pair_mut(w, rows, p, q);
                rotate_lanes(wp, wq, &rot, &c, &s_rot);
                let (vp, vq) = pair_mut(v, cols, p, q);
                rotate_lanes(vp, vq, &rot, &c, &s_rot);
            }
        }
        // A lane whose sweep made no rotation has converged.
        for l in 0..L {
            active[l] &= rotated[l];
        }
        if !active.contains(&true) {
            break;
        }
    }
    sweeps
}

/// Applies one pair's rotations to two lane-interleaved columns. A lane
/// that does not rotate keeps its values by select (see the module docs).
fn rotate_lanes<const L: usize>(
    xp: &mut [[f64; L]],
    xq: &mut [[f64; L]],
    rot: &[bool; L],
    c: &[f64; L],
    s: &[f64; L],
) {
    for (p, q) in xp.iter_mut().zip(xq) {
        for l in 0..L {
            let (a, b) = (p[l], q[l]);
            p[l] = if rot[l] { c[l] * a - s[l] * b } else { a };
            q[l] = if rot[l] { s[l] * a + c[l] * b } else { b };
        }
    }
}

/// [`sweeps_portable`] with four `__m256d` per lane group, every op run on
/// each quarter, so the quarters' dot-product and rotation chains overlap:
/// every packed op is the same correctly rounded IEEE op as the portable
/// kernel's in each lane, the skip test is a pair of `≤` masks (false on
/// NaN, as `<=` is), `signum` keeps `f64::signum`'s NaN, and a lane that
/// does not rotate keeps its bits through `blendv`.
///
/// # Safety
/// The CPU must support AVX2 (checked by [`jacobi_sweeps`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // contained SIMD exception; see the module docs
unsafe fn sweeps_avx2(
    rows: usize,
    cols: usize,
    w: &mut [Lanes],
    v: &mut [Lanes],
    tol: &Lanes,
    live: [bool; SVD_LANES],
) -> [usize; SVD_LANES] {
    use core::arch::x86_64::*;
    /// `__m256d` quarters per lane group.
    const H: usize = SVD_LANES / 4;
    let mut sweeps = [0; SVD_LANES];
    // SAFETY: every load and store below goes through `x[4 * h..]` of a
    // `&[f64; SVD_LANES]` or `&mut [f64; SVD_LANES]` borrowed from `w`, `v`,
    // `tol` or a local array, with `4 * h + 4 ≤ SVD_LANES`, so it stays in
    // bounds; the loadu/storeu intrinsics need no alignment.
    unsafe {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        let eps = _mm256_set1_pd(1e-15);
        let nan = _mm256_set1_pd(f64::NAN);
        let sign = _mm256_set1_pd(-0.0);
        let live = live.map(|b| f64::from_bits(if b { u64::MAX } else { 0 }));
        let (mut tolv, mut active) = ([zero; H], [zero; H]);
        for h in 0..H {
            tolv[h] = _mm256_loadu_pd(tol[4 * h..].as_ptr());
            active[h] = _mm256_loadu_pd(live[4 * h..].as_ptr());
        }
        // The lanes of a group of masks that are set, one bit each.
        macro_rules! bits {
            ($x:expr) => {{
                let mut b = 0;
                for h in 0..H {
                    b |= (_mm256_movemask_pd($x[h]) as usize) << (4 * h);
                }
                b
            }};
        }
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = [zero; H];
            let on = bits!(active);
            for (l, n) in sweeps.iter_mut().enumerate() {
                *n += (on >> l) & 1;
            }
            for p in 0..cols {
                for q in p + 1..cols {
                    let (mut app, mut aqq, mut apq) = ([zero; H], [zero; H], [zero; H]);
                    for (wp, wq) in
                        w[p * rows..(p + 1) * rows].iter().zip(&w[q * rows..(q + 1) * rows])
                    {
                        for h in 0..H {
                            let a = _mm256_loadu_pd(wp[4 * h..].as_ptr());
                            let b = _mm256_loadu_pd(wq[4 * h..].as_ptr());
                            app[h] = _mm256_add_pd(app[h], _mm256_mul_pd(a, a));
                            aqq[h] = _mm256_add_pd(aqq[h], _mm256_mul_pd(b, b));
                            apq[h] = _mm256_add_pd(apq[h], _mm256_mul_pd(a, b));
                        }
                    }
                    let mut rot = [zero; H];
                    for h in 0..H {
                        let abs_apq = _mm256_andnot_pd(sign, apq[h]);
                        let rel = _mm256_mul_pd(eps, _mm256_sqrt_pd(_mm256_mul_pd(app[h], aqq[h])));
                        let skip = _mm256_or_pd(
                            _mm256_cmp_pd::<_CMP_LE_OQ>(abs_apq, tolv[h]),
                            _mm256_cmp_pd::<_CMP_LE_OQ>(abs_apq, rel),
                        );
                        rot[h] = _mm256_andnot_pd(skip, active[h]);
                    }
                    if bits!(rot) == 0 {
                        continue;
                    }
                    let (mut c, mut s) = ([zero; H], [zero; H]);
                    for h in 0..H {
                        rotated[h] = _mm256_or_pd(rotated[h], rot[h]);
                        let zeta = _mm256_div_pd(
                            _mm256_sub_pd(aqq[h], app[h]),
                            _mm256_mul_pd(two, apq[h]),
                        );
                        let signum = _mm256_blendv_pd(
                            _mm256_or_pd(_mm256_and_pd(sign, zeta), one),
                            nan,
                            _mm256_cmp_pd::<_CMP_UNORD_Q>(zeta, zeta),
                        );
                        let hyp = _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(zeta, zeta)));
                        let t =
                            _mm256_div_pd(signum, _mm256_add_pd(_mm256_andnot_pd(sign, zeta), hyp));
                        c[h] = _mm256_div_pd(
                            one,
                            _mm256_sqrt_pd(_mm256_add_pd(one, _mm256_mul_pd(t, t))),
                        );
                        s[h] = _mm256_mul_pd(c[h], t);
                    }
                    for (x, m) in [(&mut *w, rows), (&mut *v, cols)] {
                        let (xp, xq) = pair_mut(x, m, p, q);
                        for (xp, xq) in xp.iter_mut().zip(xq) {
                            for h in 0..H {
                                let a = _mm256_loadu_pd(xp[4 * h..].as_ptr());
                                let b = _mm256_loadu_pd(xq[4 * h..].as_ptr());
                                let np =
                                    _mm256_sub_pd(_mm256_mul_pd(c[h], a), _mm256_mul_pd(s[h], b));
                                let nq =
                                    _mm256_add_pd(_mm256_mul_pd(s[h], a), _mm256_mul_pd(c[h], b));
                                _mm256_storeu_pd(
                                    xp[4 * h..].as_mut_ptr(),
                                    _mm256_blendv_pd(a, np, rot[h]),
                                );
                                _mm256_storeu_pd(
                                    xq[4 * h..].as_mut_ptr(),
                                    _mm256_blendv_pd(b, nq, rot[h]),
                                );
                            }
                        }
                    }
                }
            }
            for h in 0..H {
                active[h] = _mm256_and_pd(active[h], rotated[h]);
            }
            if bits!(active) == 0 {
                break;
            }
        }
    }
    sweeps
}

/// [`sweeps_avx2`] on two `__m512d` per lane group, every op run on both
/// halves: the same correctly rounded IEEE ops in each lane, the skip test
/// as a pair of `≤` compares into `__mmask8`s (false on NaN, as `<=` is),
/// `signum`'s NaN kept by a masked blend, and a lane that does not rotate
/// keeps its bits through `_mm512_mask_blend_pd`. The `and`/`andnot`/`or`
/// ops on `f64` vectors are AVX-512DQ's.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512DQ (checked by
/// [`jacobi_sweeps`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
#[allow(unsafe_code)] // contained SIMD exception; see the module docs
unsafe fn sweeps_avx512(
    rows: usize,
    cols: usize,
    w: &mut [Lanes],
    v: &mut [Lanes],
    tol: &Lanes,
    live: [bool; SVD_LANES],
) -> [usize; SVD_LANES] {
    use core::arch::x86_64::*;
    /// `__m512d` halves per lane group.
    const H: usize = SVD_LANES / 8;
    let mut sweeps = [0; SVD_LANES];
    // SAFETY: every load and store below goes through `x[8 * h..]` of a
    // `&[f64; SVD_LANES]` or `&mut [f64; SVD_LANES]` borrowed from `w`, `v`
    // or `tol`, with `8 * h + 8 ≤ SVD_LANES`, so it stays in bounds; the
    // loadu/storeu intrinsics need no alignment.
    unsafe {
        let zero = _mm512_setzero_pd();
        let one = _mm512_set1_pd(1.0);
        let two = _mm512_set1_pd(2.0);
        let eps = _mm512_set1_pd(1e-15);
        let nan = _mm512_set1_pd(f64::NAN);
        let sign = _mm512_set1_pd(-0.0);
        let (mut tolv, mut active) = ([zero; H], [0u8; H]);
        for h in 0..H {
            tolv[h] = _mm512_loadu_pd(tol[8 * h..].as_ptr());
            for (i, &on) in live[8 * h..8 * h + 8].iter().enumerate() {
                active[h] |= u8::from(on) << i;
            }
        }
        // The lanes of a mask pair that are set, one bit each.
        let bits = |x: [__mmask8; H]| (0..H).fold(0, |b, h| b | (x[h] as usize) << (8 * h));
        for _sweep in 0..MAX_SWEEPS {
            let mut rotated = [0u8; H];
            let on = bits(active);
            for (l, n) in sweeps.iter_mut().enumerate() {
                *n += (on >> l) & 1;
            }
            for p in 0..cols {
                for q in p + 1..cols {
                    let (mut app, mut aqq, mut apq) = ([zero; H], [zero; H], [zero; H]);
                    for (wp, wq) in
                        w[p * rows..(p + 1) * rows].iter().zip(&w[q * rows..(q + 1) * rows])
                    {
                        for h in 0..H {
                            let a = _mm512_loadu_pd(wp[8 * h..].as_ptr());
                            let b = _mm512_loadu_pd(wq[8 * h..].as_ptr());
                            app[h] = _mm512_add_pd(app[h], _mm512_mul_pd(a, a));
                            aqq[h] = _mm512_add_pd(aqq[h], _mm512_mul_pd(b, b));
                            apq[h] = _mm512_add_pd(apq[h], _mm512_mul_pd(a, b));
                        }
                    }
                    let mut rot = [0u8; H];
                    for h in 0..H {
                        let abs_apq = _mm512_andnot_pd(sign, apq[h]);
                        let rel = _mm512_mul_pd(eps, _mm512_sqrt_pd(_mm512_mul_pd(app[h], aqq[h])));
                        let skip = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(abs_apq, tolv[h])
                            | _mm512_cmp_pd_mask::<_CMP_LE_OQ>(abs_apq, rel);
                        rot[h] = !skip & active[h];
                    }
                    if bits(rot) == 0 {
                        continue;
                    }
                    let (mut c, mut s) = ([zero; H], [zero; H]);
                    for h in 0..H {
                        rotated[h] |= rot[h];
                        let zeta = _mm512_div_pd(
                            _mm512_sub_pd(aqq[h], app[h]),
                            _mm512_mul_pd(two, apq[h]),
                        );
                        let signum = _mm512_mask_blend_pd(
                            _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(zeta, zeta),
                            _mm512_or_pd(_mm512_and_pd(sign, zeta), one),
                            nan,
                        );
                        let hyp = _mm512_sqrt_pd(_mm512_add_pd(one, _mm512_mul_pd(zeta, zeta)));
                        let t =
                            _mm512_div_pd(signum, _mm512_add_pd(_mm512_andnot_pd(sign, zeta), hyp));
                        c[h] = _mm512_div_pd(
                            one,
                            _mm512_sqrt_pd(_mm512_add_pd(one, _mm512_mul_pd(t, t))),
                        );
                        s[h] = _mm512_mul_pd(c[h], t);
                    }
                    for (x, m) in [(&mut *w, rows), (&mut *v, cols)] {
                        let (xp, xq) = pair_mut(x, m, p, q);
                        for (xp, xq) in xp.iter_mut().zip(xq) {
                            for h in 0..H {
                                let a = _mm512_loadu_pd(xp[8 * h..].as_ptr());
                                let b = _mm512_loadu_pd(xq[8 * h..].as_ptr());
                                let np =
                                    _mm512_sub_pd(_mm512_mul_pd(c[h], a), _mm512_mul_pd(s[h], b));
                                let nq =
                                    _mm512_add_pd(_mm512_mul_pd(s[h], a), _mm512_mul_pd(c[h], b));
                                _mm512_storeu_pd(
                                    xp[8 * h..].as_mut_ptr(),
                                    _mm512_mask_blend_pd(rot[h], a, np),
                                );
                                _mm512_storeu_pd(
                                    xq[8 * h..].as_mut_ptr(),
                                    _mm512_mask_blend_pd(rot[h], b, nq),
                                );
                            }
                        }
                    }
                }
            }
            for h in 0..H {
                active[h] &= rotated[h];
            }
            if bits(active) == 0 {
                break;
            }
        }
    }
    sweeps
}

/// Rank-`r` truncated SVD: the leading `r` singular triplets of `a`.
///
/// This mirrors MATLAB's `svds(A, r)` as used throughout the paper's
/// pseudocode ("performing truncated SVD at rank R").
pub fn svd_truncated(a: impl AsMatRef, r: usize) -> SvdFactors {
    let f = svd_thin(a);
    truncate(&f, r)
}

/// [`svd_truncated`] into a caller-owned [`SvdFactors`]; `tmp` holds the
/// full factorization before truncation. Bit-identical to [`svd_truncated`].
pub fn svd_truncated_into(
    a: impl AsMatRef,
    r: usize,
    out: &mut SvdFactors,
    tmp: &mut SvdFactors,
    ws: &mut SvdScratch,
) {
    svd_thin_into(a, tmp, ws);
    let k = r.min(tmp.s.len());
    out.u.resize_zeroed(tmp.u.rows(), k);
    for i in 0..tmp.u.rows() {
        out.u.row_mut(i).copy_from_slice(&tmp.u.row(i)[..k]);
    }
    out.s.clear();
    out.s.extend_from_slice(&tmp.s[..k]);
    out.v.resize_zeroed(tmp.v.rows(), k);
    for i in 0..tmp.v.rows() {
        out.v.row_mut(i).copy_from_slice(&tmp.v.row(i)[..k]);
    }
}

/// Keeps the leading `r` triplets of an existing factorization.
pub fn truncate(f: &SvdFactors, r: usize) -> SvdFactors {
    let k = r.min(f.s.len());
    SvdFactors {
        u: f.u.block(0, f.u.rows(), 0, k),
        s: f.s[..k].to_vec(),
        v: f.v.block(0, f.v.rows(), 0, k),
    }
}

/// The finish every driver shares, for lane `l` of a core swept under
/// `plan`. The column norms of `W` are the singular values: sort them
/// descending, normalize the columns into `U`, permute the accumulated
/// rotations into `V`, complete `U`'s basis where columns are numerically
/// null, and scale `s` back by `unscale`. A zero core (`unscale` is `None`)
/// gets arbitrary orthonormal factors and a zero spectrum. `lift`, the `Q`
/// of a QR-preconditioned core, lifts its `U`; a wide input's `U` and `V`
/// swap.
fn jacobi_finish<const L: usize>(
    plan: Plan,
    jacobi: &JacobiStores<L>,
    l: usize,
    unscale: Option<f64>,
    lift: Option<&Mat>,
    out: &mut SvdFactors,
    ws: &mut CoreScratch,
) {
    let Plan { wide, rows: m, cols: n, .. } = plan;
    let SvdFactors { u, s, v: v_out } = out;
    let (u, v_out) = if wide { (v_out, u) } else { (u, v_out) };
    let CoreScratch { sigmas, order, deficient, cand, u_inner, .. } = ws;
    let u_core = if lift.is_some() { &mut *u_inner } else { &mut *u };
    u_core.resize_zeroed(m, n);
    s.clear();
    v_out.resize_zeroed(n, n);
    if let Some(unscale) = unscale {
        let (w, v) = (&jacobi.w, &jacobi.v);
        order.clear();
        order.extend(0..n);
        sigmas.clear();
        sigmas.extend(
            w.chunks_exact(m).map(|col| col.iter().map(|x| x[l] * x[l]).sum::<f64>().sqrt()),
        );
        // `total_cmp` is the IEEE order on these non-negative norms (never
        // `−0`: a sum of squares rounds to `+0`) and a total one, so a NaN
        // from a diverging input sorts instead of panicking.
        order.sort_by(|&i, &j| sigmas[j].total_cmp(&sigmas[i]));
        let rank_tol = sigmas[order[0]] * 1e-14;
        deficient.clear();
        for (new_j, &old_j) in order.iter().enumerate() {
            let sigma = sigmas[old_j];
            s.push(sigma * unscale);
            if sigma > rank_tol && sigma > 0.0 {
                let inv = 1.0 / sigma;
                for i in 0..m {
                    u_core.set(i, new_j, w[old_j * m + i][l] * inv);
                }
            } else {
                deficient.push(new_j);
            }
            for i in 0..n {
                v_out.set(i, new_j, v[old_j * n + i][l]);
            }
        }
        // Rank-deficient inputs leave null columns in U; PARAFAC2's Q_k
        // update needs a fully orthonormal U, so complete the basis
        // deterministically.
        if !deficient.is_empty() {
            complete_orthonormal_columns(u_core, deficient, cand);
        }
    } else {
        // Zero core: arbitrary orthonormal factors, zero spectrum.
        s.resize(n, 0.0);
        for j in 0..n {
            u_core.set(j, j, 1.0);
            v_out.set(j, j, 1.0);
        }
    }
    if let Some(q) = lift {
        gemm(Trans::N, Trans::N, q, &*u_inner, u, &ThreadPool::new(1));
    }
}

/// Borrows two distinct columns of a flat column-major store mutably.
fn pair_mut<T>(w: &mut [T], m: usize, p: usize, q: usize) -> (&mut [T], &mut [T]) {
    debug_assert!(p < q);
    let (lo, hi) = w.split_at_mut(q * m);
    (&mut lo[p * m..(p + 1) * m], &mut hi[..m])
}

/// Fills the given columns of `u` with vectors orthonormal to all other
/// columns, using modified Gram–Schmidt against deterministic seed vectors.
fn complete_orthonormal_columns(u: &mut Mat, targets: &[usize], cand: &mut Vec<f64>) {
    let m = u.rows();
    let n = u.cols();
    let mut next_seed = 0usize;
    for &col in targets {
        'seed: loop {
            // Try canonical basis vectors e_0, e_1, … as seeds.
            cand.clear();
            cand.resize(m, 0.0);
            if next_seed < m {
                cand[next_seed] = 1.0;
            } else {
                // Extremely unlikely fallback: pseudo-random deterministic fill.
                for (i, c) in cand.iter_mut().enumerate() {
                    *c = ((i * 2654435761 + next_seed) % 1000) as f64 / 1000.0 - 0.5;
                }
            }
            next_seed += 1;
            // Orthogonalize against every other column (twice for stability).
            for _ in 0..2 {
                for j in 0..n {
                    if j == col {
                        continue;
                    }
                    let proj: f64 = (0..m).map(|i| cand[i] * u.at(i, j)).sum();
                    for (i, c) in cand.iter_mut().enumerate() {
                        *c -= proj * u.at(i, j);
                    }
                }
            }
            let norm: f64 = cand.iter().map(|&x| x * x).sum::<f64>().sqrt();
            if norm > 1e-8 {
                let inv = 1.0 / norm;
                for (i, c) in cand.iter().enumerate() {
                    u.set(i, col, c * inv);
                }
                break 'seed;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_valid_svd(a: &Mat, f: &SvdFactors, tol: f64) {
        // Orthonormality.
        let iu = (&product(Trans::T, Trans::N, &f.u, &f.u) - &Mat::eye(f.u.cols())).fro_norm();
        let iv = (&product(Trans::T, Trans::N, &f.v, &f.v) - &Mat::eye(f.v.cols())).fro_norm();
        assert!(iu < tol, "U not orthonormal: {iu}");
        assert!(iv < tol, "V not orthonormal: {iv}");
        // Ordering.
        for wpair in f.s.windows(2) {
            assert!(wpair[0] >= wpair[1] - 1e-12, "singular values not sorted: {:?}", f.s);
        }
        // Reconstruction.
        let err = (a - &f.reconstruct()).fro_norm();
        assert!(err < tol * a.fro_norm().max(1.0), "reconstruction error {err}");
    }

    #[test]
    fn svd_known_2x2() {
        // A = [[3, 0], [0, -2]] has singular values {3, 2}.
        let a = Mat::from_rows(&[&[3.0, 0.0], &[0.0, -2.0]]);
        let f = svd_thin(&a);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert_valid_svd(&a, &f, 1e-10);
    }

    #[test]
    fn svd_square_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = gaussian_mat(12, 12, &mut rng);
        assert_valid_svd(&a, &svd_thin(&a), 1e-9);
    }

    #[test]
    fn svd_tall_random_uses_qr_path() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = gaussian_mat(60, 7, &mut rng);
        assert_valid_svd(&a, &svd_thin(&a), 1e-9);
    }

    #[test]
    fn svd_wide_random_transposes() {
        let mut rng = StdRng::seed_from_u64(23);
        let a = gaussian_mat(5, 40, &mut rng);
        let f = svd_thin(&a);
        assert_eq!(f.u.shape(), (5, 5));
        assert_eq!(f.v.shape(), (40, 5));
        assert_valid_svd(&a, &f, 1e-9);
    }

    #[test]
    fn svd_rank_deficient() {
        // rank 1: outer product.
        let u = Mat::col_vector(&[1.0, 2.0, 3.0, 4.0]);
        let v = Mat::row_vector(&[1.0, -1.0, 0.5]);
        let a = product(Trans::N, Trans::N, &u, &v);
        let f = svd_thin(&a);
        assert_valid_svd(&a, &f, 1e-9);
        assert_eq!(f.rank(1e-10), 1);
        assert!(f.s[1] < 1e-10);
        assert!(f.s[2] < 1e-10);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Mat::zeros(6, 3);
        let f = svd_thin(&a);
        assert_eq!(f.s, vec![0.0; 3]);
        let iu = (&product(Trans::T, Trans::N, &f.u, &f.u) - &Mat::eye(3)).fro_norm();
        assert!(iu < 1e-12);
    }

    #[test]
    fn svd_matches_frobenius_identity() {
        // ‖A‖²_F = Σ σᵢ².
        let mut rng = StdRng::seed_from_u64(24);
        let a = gaussian_mat(15, 9, &mut rng);
        let f = svd_thin(&a);
        let sum_sq: f64 = f.s.iter().map(|&x| x * x).sum();
        assert!((sum_sq - a.fro_norm_sq()).abs() < 1e-9 * a.fro_norm_sq());
    }

    #[test]
    fn truncated_svd_is_best_low_rank() {
        // Eckart–Young: truncation error equals the tail singular values.
        let mut rng = StdRng::seed_from_u64(25);
        let a = gaussian_mat(20, 10, &mut rng);
        let full = svd_thin(&a);
        let r = 4;
        let tr = svd_truncated(&a, r);
        assert_eq!(tr.s.len(), r);
        let err_sq = (&a - &tr.reconstruct()).fro_norm_sq();
        let tail_sq: f64 = full.s[r..].iter().map(|&x| x * x).sum();
        assert!((err_sq - tail_sq).abs() < 1e-8 * a.fro_norm_sq());
    }

    #[test]
    fn truncate_beyond_rank_is_identity() {
        let mut rng = StdRng::seed_from_u64(26);
        let a = gaussian_mat(6, 4, &mut rng);
        let f = svd_truncated(&a, 99);
        assert_eq!(f.s.len(), 4);
    }

    #[test]
    fn singular_values_invariant_under_orthogonal_transform() {
        let mut rng = StdRng::seed_from_u64(27);
        let a = gaussian_mat(10, 6, &mut rng);
        let q = crate::qr::qr(gaussian_mat(10, 10, &mut rng)).q;
        let qa = product(Trans::N, Trans::N, &q, &a);
        let s1 = svd_thin(&a).s;
        let s2 = svd_thin(&qa).s;
        for (x, y) in s1.iter().zip(&s2) {
            assert!((x - y).abs() < 1e-9 * s1[0]);
        }
    }

    #[test]
    fn empty_matrix() {
        let f = svd_thin(Mat::zeros(0, 0));
        assert!(f.s.is_empty());
    }

    #[test]
    fn non_finite_input_returns_instead_of_panicking() {
        // A diverging fit hands NaN/∞ to the small SVDs; they must return
        // (with non-finite factors) rather than panic in the sort. Square,
        // tall (QR path) and wide shapes.
        let mut rng = StdRng::seed_from_u64(28);
        for (m, n) in [(4, 4), (12, 3), (3, 8), (1, 1)] {
            for bad in [f64::NAN, f64::INFINITY, -f64::INFINITY] {
                let mut a = gaussian_mat(m, n, &mut rng);
                a.set(m / 2, n / 2, bad);
                let f = svd_thin(&a);
                assert_eq!(f.s.len(), m.min(n));
                assert!(f.s.iter().any(|s| !s.is_finite()), "{m}x{n} with {bad}: {:?}", f.s);
                let all_bad = Mat::from_fn(m, n, |_, _| bad);
                assert_eq!(svd_thin(&all_bad).s.len(), m.min(n));
            }
        }
    }

    #[test]
    fn reconstruct_diag() {
        let a = Mat::diag(&[5.0, 1.0, 3.0]);
        let f = svd_thin(&a);
        assert_eq!(f.s.len(), 3);
        assert!((f.s[0] - 5.0).abs() < 1e-12);
        assert!((f.s[1] - 3.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
        assert_valid_svd(&a, &f, 1e-10);
    }

    /// `2^k`, exactly.
    fn two_to(k: i32) -> f64 {
        f64::from_bits(((k + 1023) as u64) << 52)
    }

    #[test]
    fn scaling_by_a_power_of_two_scales_only_s() {
        // The tolerance is relative and a core far from norm 1 is scaled
        // by a power of two, so `U` and `V` keep their bits and `s` scales
        // exactly — where an absolute floor once skipped every rotation of
        // a small input, and `app·aqq` overflowed on a large one. Square,
        // wide (transposed), tall (QR-preconditioned) and rank-deficient
        // shapes at every `k`.
        let mut rng = StdRng::seed_from_u64(29);
        // Well-conditioned (Gaussian plus a dominant diagonal), so `U` is
        // orthonormal to a few ulps.
        let mut dominant = |m: usize, n: usize| {
            let g = gaussian_mat(m, n, &mut rng);
            Mat::from_fn(m, n, |i, j| g.at(i, j) + if i == j { 6.0 } else { 0.0 })
        };
        let cases = [
            Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]),
            dominant(6, 6),
            dominant(5, 6),
            dominant(12, 4),
            product(Trans::N, Trans::T, dominant(7, 2), dominant(7, 2)),
        ];
        for a in &cases {
            let base = svd_thin(a);
            for k in [-900, -100, -30, 30, 300, 900] {
                let c = two_to(k);
                let mut scaled = a.clone();
                scaled.data_mut().iter_mut().for_each(|x| *x *= c);
                let f = svd_thin(&scaled);
                let ctx = format!("{:?} times 2^{k}", a.shape());
                let iu =
                    (&product(Trans::T, Trans::N, &f.u, &f.u) - &Mat::eye(f.u.cols())).max_abs();
                assert!(iu < 1e-14, "{ctx}: U not orthonormal: {iu}");
                assert_eq!(f.u, base.u, "{ctx}: U");
                assert_eq!(f.v, base.v, "{ctx}: V");
                for (x, y) in f.s.iter().zip(&base.s) {
                    assert_eq!(x.to_bits(), (y * c).to_bits(), "{ctx}: s");
                }
            }
        }
    }

    #[test]
    fn tall_inputs_scale_by_a_power_of_two() {
        // A tall input is QR-preconditioned; its reflectors are built from
        // power-of-two-scaled columns when the squares would underflow or
        // overflow, so `U` and `V` keep their bits here too.
        let mut rng = StdRng::seed_from_u64(31);
        for (m, n) in [(40, 3), (88, 18), (300, 7)] {
            let a = gaussian_mat(m, n, &mut rng);
            let base = svd_thin(&a);
            for k in [-900, -540, 520, 900] {
                let c = two_to(k);
                let f = svd_thin(Mat::from_fn(m, n, |i, j| a.at(i, j) * c));
                let ctx = format!("{m}x{n} times 2^{k}");
                assert_eq!(f.u, base.u, "{ctx}: U");
                assert_eq!(f.v, base.v, "{ctx}: V");
                for (x, y) in f.s.iter().zip(&base.s) {
                    assert_eq!(x.to_bits(), (y * c).to_bits(), "{ctx}: s");
                }
            }
        }
    }

    #[test]
    fn tiny_and_huge_inputs_get_orthonormal_factors() {
        // Scales that are not powers of two, far outside the unscaled range.
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let base = svd_thin(&a);
        for c in [1e-17, 1e-300, 1e80, 1e300] {
            let scaled = Mat::from_fn(2, 2, |i, j| a.at(i, j) * c);
            let f = svd_thin(&scaled);
            for (name, m) in [("U", &f.u), ("V", &f.v)] {
                let dev = (&product(Trans::T, Trans::N, m, m) - &Mat::eye(2)).max_abs();
                assert!(dev < 1e-14, "c = {c:e}: {name}ᵀ{name} is off I by {dev}");
            }
            for (x, y) in f.s.iter().zip(&base.s) {
                assert!((x / c - y).abs() < 1e-14 * y, "c = {c:e}: s = {:?}", f.s);
            }
        }
    }

    /// A scalar one-sided Jacobi SVD, the oracle of the width-one sweep of
    /// `svd_thin_into`: its own driver (transpose if wide, QR-precondition
    /// if noticeably tall), its loop on a flat column-major store and a
    /// row-major `V`, and its own finish.
    mod scalar_reference {
        use super::super::{
            complete_orthonormal_columns, core_scale, jacobi_tol, pair_mut, SvdFactors, MAX_SWEEPS,
        };
        use crate::kernel::Trans;
        use crate::mat::{gemm, Mat};
        use crate::qr::{qr_into, QrScratch};
        use crate::view::MatRef;
        use dpar2_parallel::ThreadPool;

        /// The scalar driver's scratch.
        #[derive(Default)]
        struct SvdScratch {
            w: Vec<f64>,
            v: Mat,
            sigmas: Vec<f64>,
            order: Vec<usize>,
            deficient: Vec<usize>,
            cand: Vec<f64>,
            qr: QrScratch,
            qr_q: Mat,
            qr_r: Mat,
            u_inner: Mat,
            trans: Mat,
        }

        /// The scalar thin SVD of `a`.
        pub(super) fn svd_thin(a: MatRef<'_>) -> SvdFactors {
            let (mut out, ws) = (SvdFactors::default(), &mut SvdScratch::default());
            let (m, n) = a.shape();
            if m == 0 || n == 0 {
                out.u.resize_zeroed(m, 0);
                out.s.clear();
                out.v.resize_zeroed(n, 0);
                return out;
            }
            if m < n {
                // Wide: factorize the transpose with U/V output slots swapped.
                let mut t = std::mem::take(&mut ws.trans);
                a.transpose_into(&mut t);
                svd_tall_into(t.view(), &mut out.v, &mut out.s, &mut out.u, ws);
                ws.trans = t;
                return out;
            }
            svd_tall_into(a, &mut out.u, &mut out.s, &mut out.v, ws);
            out
        }

        /// Tall/square driver (`m ≥ n`): QR-precondition when noticeably tall.
        fn svd_tall_into(
            a: MatRef<'_>,
            u: &mut Mat,
            s: &mut Vec<f64>,
            v: &mut Mat,
            ws: &mut SvdScratch,
        ) {
            let (m, n) = a.shape();
            debug_assert!(m >= n);
            if m > n + n / 4 {
                qr_into(a, &mut ws.qr_q, &mut ws.qr_r, &mut ws.qr);
                let mut u_inner = std::mem::take(&mut ws.u_inner);
                let r = std::mem::take(&mut ws.qr_r);
                jacobi_svd_into(r.view(), &mut u_inner, s, v, ws);
                gemm(Trans::N, Trans::N, &ws.qr_q, &u_inner, u, &ThreadPool::new(1));
                ws.u_inner = u_inner;
                ws.qr_r = r;
                return;
            }
            jacobi_svd_into(a, u, s, v, ws);
        }

        /// One-sided Jacobi SVD for `m ≥ n`, writing into caller buffers.
        fn jacobi_svd_into(
            a: MatRef<'_>,
            u: &mut Mat,
            s: &mut Vec<f64>,
            v_out: &mut Mat,
            ws: &mut SvdScratch,
        ) {
            let (m, n) = a.shape();
            debug_assert!(m >= n);
            // Column-major working copy: rotations touch whole columns, so columns
            // must be contiguous for this loop to vectorize.
            let w = &mut ws.w;
            w.clear();
            w.reserve(n * m);
            for j in 0..n {
                for i in 0..m {
                    w.push(a.at(i, j));
                }
            }
            let v = &mut ws.v;
            v.resize_zeroed(n, n);
            for i in 0..n {
                v.set(i, i, 1.0);
            }

            let fro: f64 = a.fro_norm();
            let Some((scale, unscale)) = core_scale(fro, w.iter().copied()) else {
                // Zero matrix: arbitrary orthonormal factors, zero spectrum.
                u.resize_zeroed(m, n);
                for j in 0..n {
                    u.set(j, j, 1.0);
                }
                s.clear();
                s.resize(n, 0.0);
                v_out.copy_from(&*v);
                return;
            };
            if scale != 1.0 {
                w.iter_mut().for_each(|x| *x *= scale);
            }
            let tol = jacobi_tol(fro, scale, w.iter().copied());

            for _sweep in 0..MAX_SWEEPS {
                let mut rotated = false;
                for p in 0..n {
                    for q in p + 1..n {
                        let (col_p, col_q) = (&w[p * m..(p + 1) * m], &w[q * m..(q + 1) * m]);
                        let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                        for i in 0..m {
                            let wp = col_p[i];
                            let wq = col_q[i];
                            app += wp * wp;
                            aqq += wq * wq;
                            apq += wp * wq;
                        }
                        if apq.abs() <= tol || apq.abs() <= 1e-15 * (app * aqq).sqrt() {
                            continue;
                        }
                        rotated = true;
                        // Closed-form Jacobi rotation that zeroes the (p,q) entry of
                        // the implicit Gram matrix WᵀW.
                        let zeta = (aqq - app) / (2.0 * apq);
                        let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                        let c = 1.0 / (1.0 + t * t).sqrt();
                        let s_rot = c * t;
                        // Rotate columns p and q of W…
                        let (wp, wq) = pair_mut(w, m, p, q);
                        for i in 0..m {
                            let xp = wp[i];
                            let xq = wq[i];
                            wp[i] = c * xp - s_rot * xq;
                            wq[i] = s_rot * xp + c * xq;
                        }
                        // …and the same columns of V.
                        for i in 0..n {
                            let vp = v.at(i, p);
                            let vq = v.at(i, q);
                            v.set(i, p, c * vp - s_rot * vq);
                            v.set(i, q, s_rot * vp + c * vq);
                        }
                    }
                }
                if !rotated {
                    break;
                }
            }

            jacobi_finish(m, n, u, s, v_out, ws);
            s.iter_mut().for_each(|x| *x *= unscale);
        }

        /// The scalar finish: sort the column norms of `ws.w`, normalize
        /// the columns into `U`, permute `ws.v` into `V`, and complete
        /// `U`'s basis where columns are numerically null.
        fn jacobi_finish(
            m: usize,
            n: usize,
            u: &mut Mat,
            s: &mut Vec<f64>,
            v_out: &mut Mat,
            ws: &mut SvdScratch,
        ) {
            let SvdScratch { w, v, sigmas, order, deficient, cand, .. } = ws;
            order.clear();
            order.extend(0..n);
            sigmas.clear();
            sigmas.extend(
                w.chunks_exact(m.max(1)).map(|col| col.iter().map(|&x| x * x).sum::<f64>().sqrt()),
            );
            order.sort_by(|&i, &j| sigmas[j].total_cmp(&sigmas[i]));

            u.resize_zeroed(m, n);
            s.clear();
            v_out.resize_zeroed(n, n);
            let sigma_max = order.first().map(|&i| sigmas[i]).unwrap_or(0.0);
            let rank_tol = sigma_max * 1e-14;
            deficient.clear();
            for (new_j, &old_j) in order.iter().enumerate() {
                let sigma = sigmas[old_j];
                s.push(sigma);
                if sigma > rank_tol && sigma > 0.0 {
                    let inv = 1.0 / sigma;
                    let col = &w[old_j * m..(old_j + 1) * m];
                    for i in 0..m {
                        u.set(i, new_j, col[i] * inv);
                    }
                } else {
                    deficient.push(new_j);
                }
                for i in 0..n {
                    v_out.set(i, new_j, v.at(i, old_j));
                }
            }
            if !deficient.is_empty() {
                complete_orthonormal_columns(u, deficient, cand);
            }
        }
    }

    /// An `m×n` matrix of kind `kind`: the kinds of lane
    /// `tests/svd_lanes_differential.rs` mixes (Gaussian, zero,
    /// rank-deficient, NaN, ±∞, signed zeros, subnormal, `2^-600`, `1e200`,
    /// diagonal, a `−0` column), then one pair whose off-diagonal Gram
    /// entry is exactly the skip tolerance.
    fn kind_of(kind: usize, m: usize, n: usize, rng: &mut StdRng) -> Mat {
        let (k, last) = (m.min(n), (m - 1, n - 1));
        let mut a = gaussian_mat(m, n, rng);
        let scaled = |a: &Mat, c: f64| Mat::from_fn(m, n, |i, j| a.at(i, j) * c);
        match kind {
            0 => {}
            1 => a = Mat::zeros(m, n),
            2 => {
                let rank = k.div_ceil(2).min(k.saturating_sub(1)).max(1);
                a = product(
                    Trans::N,
                    Trans::T,
                    gaussian_mat(m, rank, rng),
                    gaussian_mat(n, rank, rng),
                );
            }
            3 => a.set(m / 2, last.1, f64::NAN),
            4 => a.set(0, n / 2, f64::INFINITY),
            5 => a.set(last.0, 0, f64::NEG_INFINITY),
            6 => a = Mat::from_fn(m, n, |i, j| if i == j { 2.0 + i as f64 } else { -0.0 }),
            7 => a = scaled(&a, 1e-310),
            8 => a = scaled(&a, two_to(-600)),
            9 => a = scaled(&a, 1e200),
            10 => a = Mat::from_fn(m, n, |i, j| if i == j { 1.0 + i as f64 } else { 0.0 }),
            11 => (0..m).for_each(|i| a.set(i, last.1, -0.0)),
            _ => {
                // Columns `(1, 0, …)` and `(1e-15, 0, …)` of the core (rows
                // of a wide input): `‖A‖_F` rounds to 1, so the tolerance
                // `1e-15·‖A‖²` is `1e-15`, exactly that pair's `apq`; `≤`
                // skips it, where `<` would rotate.
                a = Mat::zeros(m, n);
                a.set(0, 0, 1.0);
                if k > 1 {
                    let (i, j) = if m < n { (1, 0) } else { (0, 1) };
                    a.set(i, j, 1e-15);
                }
            }
        }
        a
    }

    #[test]
    fn width_one_sweep_matches_scalar_reference() {
        // Equal bits, except that any NaN equals any NaN.
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = StdRng::seed_from_u64(2801);
        // One scratch for every call, so stale state from another shape
        // would show.
        let (mut got, mut ws) = (SvdFactors::default(), SvdScratch::default());
        // Square; tall unpreconditioned and QR-preconditioned; wide through
        // both.
        let shapes = [
            (1, 1),
            (2, 2),
            (5, 5),
            (10, 10),
            (17, 17),
            (10, 8),
            (12, 3),
            (40, 7),
            (8, 10),
            (4, 9),
        ];
        for (m, n) in shapes {
            for kind in 0..13 {
                let a = kind_of(kind, m, n, &mut rng);
                svd_thin_into(&a, &mut got, &mut ws);
                let want = scalar_reference::svd_thin(a.view());
                let ctx = format!("{m}x{n} kind {kind}");
                assert_eq!(
                    (got.u.shape(), got.v.shape()),
                    (want.u.shape(), want.v.shape()),
                    "{ctx}"
                );
                assert_eq!(got.s.len(), want.s.len(), "{ctx}");
                for (name, x, y) in [
                    ("U", got.u.data(), want.u.data()),
                    ("s", &got.s[..], &want.s[..]),
                    ("V", got.v.data(), want.v.data()),
                ] {
                    for (i, (&x, &y)) in x.iter().zip(y).enumerate() {
                        assert!(same(x, y), "{ctx}: {name}[{i}]: {x:e} vs {y:e}");
                    }
                }
            }
        }
    }

    /// The sweep kernels, run directly on the same lane-interleaved
    /// inputs. On a SIMD host `svd_thin_batch_into` never runs the portable
    /// body at width sixteen, and on an AVX-512 host never the AVX2 kernel,
    /// so these tests are where each SIMD kernel meets the portable one.
    mod sweep_kernels {
        use super::super::*;
        use crate::random::gaussian_mat;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// Column-major `rows×cols` store of a matrix.
        fn col_major(a: &Mat) -> Vec<f64> {
            (0..a.cols()).flat_map(|j| (0..a.rows()).map(move |i| a.at(i, j))).collect()
        }

        /// The batched driver's tolerance for an unscaled lane.
        fn tolerance(a: &[f64]) -> f64 {
            let fro = a.iter().map(|x| x * x).sum::<f64>().sqrt();
            1e-15 * fro * fro
        }

        /// Each lane's tolerance.
        fn tolerances(lanes: &[Vec<f64>]) -> Lanes {
            core::array::from_fn(|l| tolerance(&lanes[l]))
        }

        /// Equal bits, except that any NaN equals any NaN: which NaN an
        /// operation returns for a NaN operand depends on how the compiler
        /// ordered a commutative op, in either kernel.
        fn same(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        /// A SIMD sweep kernel, with [`sweeps_portable`]'s signature at
        /// width sixteen.
        type Kernel = unsafe fn(
            usize,
            usize,
            &mut [Lanes],
            &mut [Lanes],
            &Lanes,
            [bool; SVD_LANES],
        ) -> [usize; SVD_LANES];

        /// The SIMD sweep kernels this CPU runs, each named; a kernel it
        /// cannot run is named on stderr, so no check passes unseen.
        fn simd_kernels() -> Vec<(&'static str, Kernel)> {
            let mut kernels: Vec<(&'static str, Kernel)> = Vec::new();
            #[cfg(target_arch = "x86_64")]
            {
                let simd = crate::kernel::simd();
                if simd.avx2 {
                    kernels.push(("AVX2", sweeps_avx2));
                }
                if simd.avx512 {
                    kernels.push(("AVX-512", sweeps_avx512));
                }
            }
            for name in ["AVX2", "AVX-512"] {
                if !kernels.iter().any(|&(k, _)| k == name) {
                    eprintln!("this CPU lacks {name}: the {name} sweep kernel did not run");
                }
            }
            kernels
        }

        /// Runs the portable kernel and every SIMD kernel this CPU has from
        /// the same start; asserts they agree on `W`, `V` and every lane's
        /// sweep count, and returns the portable kernel's `(W, V, sweeps)`.
        #[allow(clippy::type_complexity)]
        fn kernels(
            rows: usize,
            cols: usize,
            lanes: &[Vec<f64>],
            tol: Lanes,
            live: [bool; SVD_LANES],
        ) -> (Vec<Lanes>, Vec<Lanes>, [usize; SVD_LANES]) {
            let mut w = vec![[0.0; SVD_LANES]; rows * cols];
            for (l, lane) in lanes.iter().enumerate() {
                for (x, &y) in w.iter_mut().zip(lane) {
                    x[l] = y;
                }
            }
            let mut v = vec![[0.0; SVD_LANES]; cols * cols];
            for j in 0..cols {
                v[j * cols + j] = [1.0; SVD_LANES];
            }
            let (w0, v0) = (w.clone(), v.clone());
            let sweeps = sweeps_portable(rows, cols, &mut w, &mut v, &tol, live);
            for (kernel, run) in simd_kernels() {
                let (mut w2, mut v2) = (w0.clone(), v0.clone());
                // SAFETY: `simd_kernels` lists only the kernels whose CPU
                // features `simd` verified.
                #[allow(unsafe_code)]
                let sweeps2 = unsafe { run(rows, cols, &mut w2, &mut v2, &tol, live) };
                assert_eq!(sweeps, sweeps2, "{kernel}: sweep counts differ");
                for (name, a, b) in [("W", &w, &w2), ("V", &v, &v2)] {
                    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                        for l in 0..SVD_LANES {
                            assert!(
                                same(x[l], y[l]),
                                "{kernel}: {name}[{i}] lane {l}: {} vs {}",
                                x[l],
                                y[l]
                            );
                        }
                    }
                }
            }
            (w, v, sweeps)
        }

        fn gaussian_lanes(rows: usize, cols: usize, seed: u64) -> Vec<Vec<f64>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..SVD_LANES).map(|_| col_major(&gaussian_mat(rows, cols, &mut rng))).collect()
        }

        #[test]
        fn non_finite_lanes() {
            for (rows, cols) in [(5, 5), (7, 4)] {
                let mut lanes = gaussian_lanes(rows, cols, 1601);
                lanes[1][rows + 2] = f64::NAN;
                lanes[2][3] = f64::INFINITY;
                lanes[3][rows * cols - 1] = f64::NEG_INFINITY;
                lanes[SVD_LANES - 1][rows + 1] = f64::NAN;
                let tol = tolerances(&lanes);
                let (w, _, _) = kernels(rows, cols, &lanes, tol, [true; SVD_LANES]);
                assert!(w.iter().all(|x| x[0].is_finite()), "the finite lane stays finite");
                assert!(w.iter().any(|x| x[1].is_nan()));
            }
        }

        #[test]
        fn signed_zeros() {
            let (rows, cols) = (6, 6);
            let mut lanes = gaussian_lanes(rows, cols, 1602);
            // Lane 0: a column of −0. Lane 1: diagonal with −0 elsewhere,
            // so it never rotates and must keep every −0.
            for x in &mut lanes[0][2 * rows..3 * rows] {
                *x = -0.0;
            }
            for (i, x) in lanes[1].iter_mut().enumerate() {
                *x = if i % (rows + 1) == 0 { 2.0 + i as f64 } else { -0.0 };
            }
            lanes[2][0] = -0.0;
            lanes[SVD_LANES - 1] = lanes[1].clone();
            let start = lanes[1].clone();
            let tol = tolerances(&lanes);
            let (w, _, sweeps) = kernels(rows, cols, &lanes, tol, [true; SVD_LANES]);
            for l in [1, SVD_LANES - 1] {
                assert_eq!(sweeps[l], 1);
                for (x, y) in w.iter().zip(&start) {
                    assert_eq!(x[l].to_bits(), y.to_bits(), "non-rotating lane {l} lost a −0");
                }
            }
        }

        #[test]
        fn off_diagonal_exactly_at_the_tolerance() {
            // Columns p = (1, 0), q = (x, 1): apq = x exactly. A tolerance
            // of |x| skips (`≤`), one ulp below rotates, one above skips.
            let x: f64 = 0.375;
            // Every quad of lanes: at, below and above the tolerance, dead.
            let lanes = vec![vec![1.0, 0.0, x, 1.0]; SVD_LANES];
            let below = f64::from_bits(x.to_bits() - 1);
            let above = f64::from_bits(x.to_bits() + 1);
            let tol = core::array::from_fn(|l| [x, below, above, x][l % 4]);
            let live = core::array::from_fn(|l| l % 4 != 3);
            let (w, _, sweeps) = kernels(2, 2, &lanes, tol, live);
            assert_eq!(sweeps, core::array::from_fn(|l| [1, 2, 1, 0][l % 4]));
            for l in 0..SVD_LANES {
                let kept = w.iter().zip([1.0, 0.0, x, 1.0]).all(|(a, b)| a[l] == b);
                assert_eq!(kept, l % 4 != 1, "lane {l}");
                if l % 4 == 1 {
                    assert_ne!(w[2][l], x, "lane {l}, below the tolerance, rotated");
                }
            }
        }

        #[test]
        fn lanes_converging_on_different_sweeps() {
            let n = 9;
            let mut rng = StdRng::seed_from_u64(1603);
            let diag = col_major(&Mat::diag(&(0..n).map(|i| 1.0 + i as f64).collect::<Vec<_>>()));
            let mut ill = gaussian_mat(n, n, &mut rng);
            for i in 0..n {
                for x in ill.row_mut(i) {
                    *x *= 10f64.powi(-(i as i32));
                }
            }
            // The same four kinds of lane in each half, in another order.
            let kinds = [
                diag,
                col_major(&gaussian_mat(n, n, &mut rng)),
                col_major(&ill),
                col_major(&crate::qr::qr(gaussian_mat(n, n, &mut rng)).q),
            ];
            let kind = |l: usize| (l + l / 4) % 4;
            let lanes: Vec<Vec<f64>> = (0..SVD_LANES).map(|l| kinds[kind(l)].clone()).collect();
            let (_, _, sweeps) = kernels(n, n, &lanes, tolerances(&lanes), [true; SVD_LANES]);
            for l in 0..SVD_LANES {
                match kind(l) {
                    0 => assert_eq!(sweeps[l], 1, "a diagonal lane converges in its first sweep"),
                    1 | 2 => assert!(sweeps[l] > 2, "lane {l}: {sweeps:?}"),
                    _ => {}
                }
            }
        }
    }

    /// The AVX2 build of the lane products against the portable body,
    /// bit for bit, on every form and both kinds of right operand.
    #[cfg(target_arch = "x86_64")]
    mod lane_products_kernels {
        use super::super::*;
        use crate::random::gaussian_mat;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// Equal bits, except that any NaN equals any NaN.
        fn same(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        /// An `n×n` lane store of Gaussian entries, a fifth of them NaN,
        /// ±∞, `−0` or subnormal.
        fn store(n: usize, rng: &mut StdRng) -> Vec<Lanes> {
            const SPECIALS: [f64; 5] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 4e-320];
            let mats: Vec<Mat> = (0..SVD_LANES).map(|_| gaussian_mat(n, n, rng)).collect();
            let mut out = Vec::new();
            interleave_lanes(&mats, n, &mut out);
            for x in out.iter_mut().flatten() {
                if rng.random::<f64>() < 0.2 {
                    *x = SPECIALS[rng.random::<usize>() % SPECIALS.len()];
                }
            }
            out
        }

        /// Runs both builds on one case and asserts equal bits.
        fn both<T: AsLanes>(ta: Trans, tb: Trans, n: usize, a: &[Lanes], b: &[T]) {
            let (mut portable, mut avx2) =
                (vec![[1.0; SVD_LANES]; n * n], vec![[2.0; SVD_LANES]; n * n]);
            lane_products(ta, tb, n, a, b, &mut portable);
            // SAFETY: the caller checked AVX2 support.
            #[allow(unsafe_code)]
            unsafe {
                lane_products_avx2(ta, tb, n, a, b, &mut avx2)
            };
            for (i, (x, y)) in portable.iter().zip(&avx2).enumerate() {
                for l in 0..SVD_LANES {
                    assert!(
                        same(x[l], y[l]),
                        "{ta:?}{tb:?} n={n} [{i}] lane {l}: {} vs {}",
                        x[l],
                        y[l]
                    );
                }
            }
        }

        #[test]
        fn avx2_build_matches_portable_body() {
            if crate::kernel::simd().avx2 {
                let mut rng = StdRng::seed_from_u64(1806);
                for n in 1..=23 {
                    let (a, b) = (store(n, &mut rng), store(n, &mut rng));
                    let shared = gaussian_mat(n, n, &mut rng);
                    for (ta, tb) in [
                        (Trans::N, Trans::N),
                        (Trans::N, Trans::T),
                        (Trans::T, Trans::N),
                        (Trans::T, Trans::T),
                    ] {
                        both(ta, tb, n, &a, &b);
                        both(ta, tb, n, &a, shared.data());
                    }
                }
                return;
            }
            eprintln!("no AVX2 on this CPU: the AVX2 lane products are not tested");
        }
    }
}
