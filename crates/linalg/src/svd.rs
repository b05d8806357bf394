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
//! transposed.
//!
//! DPar2's `Q_k` step factors `K` same-shape `R×R` matrices per iteration,
//! and one small Jacobi SVD is latency-bound: every pair `(p, q)` waits on
//! a dot-product chain, a square root and two divisions. The lane-batched
//! kernel [`svd_thin_batch_into`] factors up to [`SVD_LANES`] square
//! matrices in lock step, one per lane of `[f64; SVD_LANES]` arrays, so the
//! lanes' chains overlap. Each lane runs exactly the scalar expressions
//! (Rust never contracts `a*b + c` into a fused multiply-add), has its own
//! tolerance and stops sweeping when its own sweep makes no rotation. A
//! lane that does not rotate a pair keeps its values by *select*, never by
//! an identity rotation `c = 1, s = 0`: that would still round, and turns
//! `−0` into `+0` (`(−0) − 0·(−x)` is `(−0) − (−0) = +0`). Every lane's
//! factors are therefore bitwise those of [`svd_thin_into`]. Both kernels
//! end in one shared finish step (sort, normalize, basis completion).

use crate::mat::Mat;
use crate::qr::{qr_into, QrScratch};
use crate::view::{AsMatRef, MatRef};

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
        us.matmul_nt(&self.v).expect("SvdFactors::reconstruct: shape mismatch")
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
    /// Column-major Jacobi working store (`n` columns of length `m`).
    w: Vec<f64>,
    /// Accumulated right-rotation matrix before sorting.
    v: Mat,
    /// Column norms (candidate singular values) before sorting.
    sigmas: Vec<f64>,
    /// Column permutation sorting the spectrum descending.
    order: Vec<usize>,
    /// Indices of numerically-null columns of `U` to re-orthonormalize.
    deficient: Vec<usize>,
    /// Gram–Schmidt candidate vector for basis completion.
    cand: Vec<f64>,
    /// QR-preconditioning scratch (tall inputs).
    qr: QrScratch,
    /// QR factors of tall inputs.
    qr_q: Mat,
    qr_r: Mat,
    /// Left factor of the preconditioned inner SVD.
    u_inner: Mat,
    /// Transposed copy for wide inputs.
    trans: Mat,
}

/// Number of matrices [`svd_thin_batch_into`] factors in lock step.
pub const SVD_LANES: usize = 4;

/// One value per lane of the batched kernel.
type Lanes = [f64; SVD_LANES];

/// Reusable scratch for [`svd_thin_batch_into`]; like [`SvdScratch`], it
/// grows to the largest shape seen and then allocates nothing.
#[derive(Debug, Default)]
pub struct SvdBatchScratch {
    /// Lane-interleaved column-major Jacobi working store (`n×n`).
    w: Vec<Lanes>,
    /// Lane-interleaved column-major rotation accumulator (`n×n`).
    v: Vec<Lanes>,
    /// Scalar scratch: one lane at a time through the shared finish step,
    /// and the lanes the batched sweeps do not take.
    scalar: SvdScratch,
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
/// [`svd_thin`].
pub fn svd_thin_into(a: impl AsMatRef, out: &mut SvdFactors, ws: &mut SvdScratch) {
    let a = a.as_mat_ref();
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        out.u.resize_zeroed(m, 0);
        out.s.clear();
        out.v.resize_zeroed(n, 0);
        return;
    }
    if m < n {
        // Wide: factorize the transpose with U/V output slots swapped.
        let mut t = std::mem::take(&mut ws.trans);
        a.transpose_into(&mut t);
        svd_tall_into(t.view(), &mut out.v, &mut out.s, &mut out.u, ws);
        ws.trans = t;
        return;
    }
    svd_tall_into(a, &mut out.u, &mut out.s, &mut out.v, ws);
}

/// Factors up to [`SVD_LANES`] matrices at once: `out[l]` is bitwise what
/// [`svd_thin_into`] writes for `a[l]`.
///
/// Non-zero square matrices of one shape (the first lane's) run the
/// one-sided Jacobi sweeps in lock step, one lane each (see the module
/// docs); any other shape, and an all-zero matrix, goes through
/// [`svd_thin_into`] on its own.
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
    let n = a.first().map_or(0, Mat::cols);
    // `live` lanes take the batched sweeps, with the scalar tolerance.
    let mut live = [false; SVD_LANES];
    let mut tol = [0.0; SVD_LANES];
    for (l, (x, o)) in a.iter().zip(out.iter_mut()).enumerate() {
        let fro = if n > 0 && x.shape() == (n, n) { x.fro_norm() } else { 0.0 };
        if fro == 0.0 {
            svd_thin_into(x, o, &mut ws.scalar);
        } else {
            live[l] = true;
            tol[l] = (1e-15 * fro * fro).max(1e-30);
        }
    }
    if !live.contains(&true) {
        return;
    }
    let SvdBatchScratch { w, v, scalar } = ws;
    w.clear();
    w.resize(n * n, [0.0; SVD_LANES]);
    for (l, x) in a.iter().enumerate().filter(|&(l, _)| live[l]) {
        for j in 0..n {
            for i in 0..n {
                w[j * n + i][l] = x.at(i, j);
            }
        }
    }
    v.clear();
    v.resize(n * n, [0.0; SVD_LANES]);
    for j in 0..n {
        v[j * n + j] = [1.0; SVD_LANES];
    }

    let mut active = live;
    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = [false; SVD_LANES];
        for p in 0..n {
            for q in p + 1..n {
                let (mut app, mut aqq, mut apq) =
                    ([0.0; SVD_LANES], [0.0; SVD_LANES], [0.0; SVD_LANES]);
                for (wp, wq) in w[p * n..(p + 1) * n].iter().zip(&w[q * n..(q + 1) * n]) {
                    for l in 0..SVD_LANES {
                        app[l] += wp[l] * wp[l];
                        aqq[l] += wq[l] * wq[l];
                        apq[l] += wp[l] * wq[l];
                    }
                }
                // The scalar skip test and rotation, lane by lane.
                let (mut rot, mut c, mut s_rot) =
                    ([false; SVD_LANES], [0.0; SVD_LANES], [0.0; SVD_LANES]);
                for l in 0..SVD_LANES {
                    rot[l] = active[l]
                        && !(apq[l].abs() <= tol[l]
                            || apq[l].abs() <= 1e-15 * (app[l] * aqq[l]).sqrt());
                    let zeta = (aqq[l] - app[l]) / (2.0 * apq[l]);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    c[l] = 1.0 / (1.0 + t * t).sqrt();
                    s_rot[l] = c[l] * t;
                    rotated[l] |= rot[l];
                }
                if !rot.contains(&true) {
                    continue;
                }
                let (wp, wq) = pair_mut(w, n, p, q);
                rotate_lanes(wp, wq, &rot, &c, &s_rot);
                let (vp, vq) = pair_mut(v, n, p, q);
                rotate_lanes(vp, vq, &rot, &c, &s_rot);
            }
        }
        // A lane whose sweep made no rotation has converged, as the scalar
        // loop's `break` says.
        for l in 0..SVD_LANES {
            active[l] &= rotated[l];
        }
        if !active.contains(&true) {
            break;
        }
    }

    for (l, o) in out.iter_mut().enumerate().filter(|&(l, _)| live[l]) {
        scalar.w.clear();
        scalar.w.extend(w.iter().map(|x| x[l]));
        scalar.v.resize_zeroed(n, n);
        for j in 0..n {
            for i in 0..n {
                scalar.v.set(i, j, v[j * n + i][l]);
            }
        }
        jacobi_finish(n, n, &mut o.u, &mut o.s, &mut o.v, scalar);
    }
}

/// Applies one pair's rotations to two lane-interleaved columns. A lane
/// that does not rotate keeps its values by select (see the module docs).
fn rotate_lanes(xp: &mut [Lanes], xq: &mut [Lanes], rot: &[bool; SVD_LANES], c: &Lanes, s: &Lanes) {
    for (p, q) in xp.iter_mut().zip(xq) {
        for l in 0..SVD_LANES {
            let (a, b) = (p[l], q[l]);
            p[l] = if rot[l] { c[l] * a - s[l] * b } else { a };
            q[l] = if rot[l] { s[l] * a + c[l] * b } else { b };
        }
    }
}

/// Tall/square driver (`m ≥ n`): QR-precondition when noticeably tall.
fn svd_tall_into(a: MatRef<'_>, u: &mut Mat, s: &mut Vec<f64>, v: &mut Mat, ws: &mut SvdScratch) {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    // QR preconditioning: Jacobi sweeps cost O(m n²) each, so shrinking the
    // row dimension to n first is a large win whenever m is even modestly
    // larger than n (and never hurts accuracy).
    if m > n + n / 4 {
        qr_into(a, &mut ws.qr_q, &mut ws.qr_r, &mut ws.qr);
        let mut u_inner = std::mem::take(&mut ws.u_inner);
        let r = std::mem::take(&mut ws.qr_r);
        jacobi_svd_into(r.view(), &mut u_inner, s, v, ws);
        ws.qr_q.matmul_into(&u_inner, u);
        ws.u_inner = u_inner;
        ws.qr_r = r;
        return;
    }
    jacobi_svd_into(a, u, s, v, ws);
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

/// One-sided Jacobi SVD for `m ≥ n`, writing into caller buffers.
///
/// Works on `W = A` column-wise: each rotation orthogonalizes one pair of
/// columns of `W` while accumulating the same rotation into `V`. On
/// convergence `W = U · diag(s)` and `A = W Vᵀ`. The working store is one
/// flat column-major buffer (column `j` at `w[j·m..(j+1)·m]`), so the
/// rotation loops stream contiguous memory.
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
    if fro == 0.0 {
        // Zero matrix: arbitrary orthonormal factors, zero spectrum.
        u.resize_zeroed(m, n);
        for j in 0..n {
            u.set(j, j, 1.0);
        }
        s.clear();
        s.resize(n, 0.0);
        v_out.copy_from(&*v);
        return;
    }
    let tol = 1e-15 * fro * fro;

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
                if apq.abs() <= tol.max(1e-30) || apq.abs() <= 1e-15 * (app * aqq).sqrt() {
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
}

/// The finish step both Jacobi kernels share: column norms of the
/// converged working store `ws.w` (column-major `m×n`) are the singular
/// values; sort them descending, normalize the columns into `U`, permute
/// the accumulated rotation `ws.v` into `V`, and complete `U`'s basis where
/// columns are numerically null.
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
    sigmas
        .extend(w.chunks_exact(m.max(1)).map(|col| col.iter().map(|&x| x * x).sum::<f64>().sqrt()));
    // `total_cmp` is the IEEE order on these non-negative norms (never
    // `−0`: a sum of squares rounds to `+0`) and a total one, so a NaN
    // from a diverging input sorts instead of panicking.
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
    // Rank-deficient inputs leave null columns in U; PARAFAC2's Q_k update
    // needs a fully orthonormal U, so complete the basis deterministically.
    if !deficient.is_empty() {
        complete_orthonormal_columns(u, deficient, cand);
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
        let iu = (&f.u.gram() - &Mat::eye(f.u.cols())).fro_norm();
        let iv = (&f.v.gram() - &Mat::eye(f.v.cols())).fro_norm();
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
        let a = u.matmul(&v).unwrap();
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
        let iu = (&f.u.gram() - &Mat::eye(3)).fro_norm();
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
        let qa = q.matmul(&a).unwrap();
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
}
