//! Householder QR factorization.
//!
//! The randomized SVD (Algorithm 1 of the paper, line 3) orthonormalizes the
//! sketch `Y = (AAᵀ)^q A Ω` with a QR factorization; this module provides the
//! thin (`economy-size`) variant `A = Q R` with `Q ∈ R^{m×k}`, `R ∈ R^{k×n}`,
//! `k = min(m, n)` via Householder reflections, which is unconditionally
//! numerically stable (unlike Gram–Schmidt).
//!
//! # Kernel layout
//!
//! Matrices are row-major, so the kernel never walks a column one entry at
//! a time. Each reflector `H = I − τ v vᵀ` is applied in two row sweeps
//! over the trailing columns (see `reflect`):
//!
//! 1. **Column sums.** `s_c = Σ_i v_i x_ic` for every trailing column at
//!    once, with the running sums of a tile of 8 adjacent columns (then 4,
//!    2, 1 for the tail) held in registers while the rows stream past. Rows
//!    are visited in blocks of `ROW_BLOCK`, and each tile's sums carry
//!    over from one block to the next, so every `s_c` is still one chain
//!    `((0 + v_0 x_0c) + v_1 x_1c) + …` in ascending row order, then scaled
//!    by `τ`: the exact sum the column-at-a-time loop formed.
//! 2. **Update.** `x_ic −= s_c v_i` row by row, over the runs of columns
//!    whose `s_c` is not exactly zero; a column with `s_c == ±0` is left as
//!    it is, which keeps its signed zeros.
//!
//! The tiles are fixed-width so both sweeps unroll into straight-line
//! vector code. Plain row loops of runtime length measured 1.3–2× slower
//! on the pipeline's shapes (790×18, 88×18, 48×18, 15000×18), for either
//! sweep.
//!
//! Every entry therefore sees the same operations in the same order as the
//! plain column loop, and `Q` and `R` come out bit for bit as before (the
//! differential suite `tests/qr_differential.rs` keeps that loop as its
//! oracle). Rust never contracts `a*b + c` into an FMA, so wider codegen
//! cannot move the bits either.
//!
//! # The skipped block of `Q`
//!
//! The thin `Q` is accumulated by applying `H_{k−1}, …, H_0` to the `m×k`
//! identity. Reflector `j` touches rows `≥ j` only, so when it runs, rows
//! `≥ j` of columns `< j` are still the identity's zeros: every earlier
//! reflector (`j' > j`) also skipped them. With `τ` and `v` finite, the
//! sum there is `τ·(+0 + Σ ±0) = +0`, and the update leaves the column
//! alone; skipping the block changes no bit. A non-finite `τ` or `v`
//! turns that sum into NaN, which the old loop wrote into the block, so
//! from the first such reflector on the kernel sweeps the full width and
//! reproduces NaN and ±∞ inputs exactly too.
//!
//! # Scale
//!
//! A reflector is built from `σ = Σ_{i>0} x_i²` and `α² + σ`, which
//! underflow for a column of norm below about `1e-154` and overflow above
//! about `1e154`: unscaled, every reflector of a tiny matrix would be
//! skipped (`Q = I`, `R` wrong), and a huge one would give a NaN `Q`.
//! When `α² + σ` leaves `[NORM_MIN², NORM_MAX²]` (`2^∓960`), the reflector
//! is built from the column scaled by the power of two that puts its
//! largest entry in `[1, 2)` instead. `v` and `τ` do not depend on the
//! column's scale, so a scaled column gets the reflector its unscaled copy
//! would, bit for bit, and `qr(2^k·A)` has the `Q` of `qr(A)` and `R`
//! exactly `2^k·R(A)` (unless the entries themselves under- or overflow).
//! Inside the range nothing is scaled. The reflections themselves are
//! linear and never square an entry. A NaN or infinite column is left
//! unscaled.

use crate::mat::Mat;
use crate::svd::pow2;
use crate::view::AsMatRef;
use std::ops::Range;

/// Result of a thin QR factorization `A = Q R`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    /// Column-orthonormal `m × k` factor, `k = min(m, n)`.
    pub q: Mat,
    /// Upper-triangular (trapezoidal when `m < n`) `k × n` factor.
    pub r: Mat,
}

/// Reusable scratch for [`qr_into`]: the full-size working copy of `A`,
/// the Householder vectors and the per-column sums. Holding one of these
/// across calls makes repeated factorizations of same-shaped inputs
/// allocation-free.
#[derive(Debug, Default)]
pub struct QrScratch {
    /// Working copy of `A` that the reflectors are applied to.
    work: Mat,
    /// Householder vectors back to back: reflector `j` has length `m − j`
    /// and a unit leading entry.
    vs: Vec<f64>,
    /// Per-column sums `τ·vᵀx_c` of the reflector being applied.
    s: Vec<f64>,
    /// Reflector scales, one per column.
    taus: Vec<f64>,
}

/// Computes the thin QR factorization of `a` using Householder reflections.
///
/// For each column `k`, a reflector `H_k = I − τ v vᵀ` annihilates the
/// entries below the diagonal; `Q` is accumulated by applying the reflectors
/// to the thin identity in reverse order.
pub fn qr(a: impl AsMatRef) -> QrFactors {
    let mut f = QrFactors { q: Mat::zeros(0, 0), r: Mat::zeros(0, 0) };
    qr_into(a, &mut f.q, &mut f.r, &mut QrScratch::default());
    f
}

/// [`qr`] into caller-owned output buffers (`q`, `r` resized in place) with
/// reusable scratch — the allocation-free form the per-iteration SVDs of
/// the ALS solvers run on. Bit-identical to [`qr`].
pub fn qr_into(a: impl AsMatRef, q: &mut Mat, r_thin: &mut Mat, ws: &mut QrScratch) {
    let a = a.as_mat_ref();
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let QrScratch { work, vs, s, taus } = ws;
    work.copy_from(a);
    vs.clear();
    // Exactly Σ_j (m − j) entries: growing by doubling could hold twice
    // the reflectors' size (a tall stage-2 factorization is megabytes).
    vs.reserve_exact(k * (2 * m + 1 - k) / 2);
    s.resize(n, 0.0);
    taus.clear();

    for j in 0..k {
        // Build the reflector from column j, rows j..m.
        let start = vs.len();
        vs.extend((j..m).map(|i| work.at(i, j)));
        let v = &mut vs[start..];
        let (mut alpha, mut sigma) = (v[0], sum_sq(&v[1..]));
        let scale = column_scale(alpha * alpha + sigma, v);
        if scale != 1.0 {
            // Only the reflector is built from the scaled column: `v` and
            // `τ` do not depend on its scale.
            v.iter_mut().for_each(|x| *x *= scale);
            (alpha, sigma) = (v[0], sum_sq(&v[1..]));
        }
        if sigma == 0.0 && alpha >= 0.0 {
            // Column already in upper-triangular form; identity reflector.
            taus.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + sigma).sqrt();
        // Choose the sign that avoids cancellation.
        let v0 = if alpha <= 0.0 { alpha - norm } else { -sigma / (alpha + norm) };
        let tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
        let inv_v0 = 1.0 / v0;
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv_v0;
        }

        // Apply H = I − τ v vᵀ to the trailing submatrix R[j.., j..].
        reflect(work.data_mut(), n, j, v, tau, j..n, s);
        taus.push(tau);
    }

    // Copy the upper trapezoid of the work matrix into the k × n R.
    r_thin.resize_zeroed(k, n);
    for i in 0..k {
        r_thin.row_mut(i)[i..].copy_from_slice(&work.row(i)[i..]);
    }

    // Accumulate the thin Q: apply H_0 H_1 … H_{k-1} to the m×k identity,
    // multiplying from the last reflector backwards. Rows ≥ j of columns
    // < j are still the identity's zeros, which a finite reflector leaves
    // untouched, so they are skipped until a non-finite one has been
    // applied across the full width.
    q.resize_zeroed(m, k);
    for i in 0..k {
        q.set(i, i, 1.0);
    }
    let mut full_width = false;
    let mut end = vs.len();
    for j in (0..k).rev() {
        let v = &vs[end - (m - j)..end];
        end -= m - j;
        let tau = taus[j];
        if tau == 0.0 {
            continue;
        }
        full_width = full_width || !tau.is_finite() || !v.iter().all(|x| x.is_finite());
        let c0 = if full_width { 0 } else { j };
        reflect(q.data_mut(), k, j, v, tau, c0..k, s);
    }
}

/// `Σ x²` in ascending order.
fn sum_sq(x: &[f64]) -> f64 {
    x.iter().map(|&x| x * x).sum()
}

/// The column norms a reflector is built from unscaled. From `NORM_MIN`
/// on, a square that underflows is below the rounding of `‖x‖²`; up to
/// `NORM_MAX`, `σ + v₀² ≤ 5‖x‖²` cannot overflow. The range holds every
/// norm in `[3.2e-145, 3.1e144]`, so such columns keep their bits.
const NORM_MIN: f64 = pow2(-480);
const NORM_MAX: f64 = pow2(480);

/// The power of two a column `x` of squared norm `norm_sq` is scaled by
/// before its reflector is built: `1` inside `[NORM_MIN², NORM_MAX²]`,
/// else (a norm whose square underflows, to zero too, or overflows to
/// `+∞`) the one that puts its largest entry in `[1, 2)`. A zero or
/// non-finite column is left as it is.
fn column_scale(norm_sq: f64, x: &[f64]) -> f64 {
    if norm_sq.is_nan() || (NORM_MIN * NORM_MIN..=NORM_MAX * NORM_MAX).contains(&norm_sq) {
        return 1.0;
    }
    let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if amax == 0.0 || amax.is_infinite() {
        return 1.0;
    }
    // `amax`'s binary exponent, clamped so the power is normal (a
    // subnormal `amax` reads as `2^-1023`).
    let e = ((amax.to_bits() >> 52) as i32 - 1023).clamp(-1022, 1022);
    pow2(-e)
}

/// Rows per block of the sweeps in [`reflect`]: a block of the trailing
/// columns stays in L1 while every column tile passes over it.
const ROW_BLOCK: usize = 64;

/// Applies `H = I − τ v vᵀ` to rows `r0..` of columns `cols` of the
/// row-major matrix `data` (row stride `ld`): `s_c = τ·Σ_i v_i x_ic`, then
/// `x_ic −= s_c v_i` in every column whose `s_c` is nonzero.
fn reflect(
    data: &mut [f64],
    ld: usize,
    r0: usize,
    v: &[f64],
    tau: f64,
    cols: Range<usize>,
    s: &mut [f64],
) {
    let rows = &mut data[r0 * ld..];
    s[cols.clone()].fill(0.0);
    for (block, vb) in rows.chunks(ROW_BLOCK * ld).zip(v.chunks(ROW_BLOCK)) {
        for (c, w) in tiles(cols.clone()) {
            let acc = &mut s[c..c + w];
            match w {
                8 => column_sums::<8>(block, ld, c, vb, acc),
                4 => column_sums::<4>(block, ld, c, vb, acc),
                2 => column_sums::<2>(block, ld, c, vb, acc),
                _ => column_sums::<1>(block, ld, c, vb, acc),
            }
        }
    }
    for x in &mut s[cols.clone()] {
        *x *= tau;
    }
    for (block, vb) in rows.chunks_mut(ROW_BLOCK * ld).zip(v.chunks(ROW_BLOCK)) {
        // A column whose sum is exactly zero is left as it is.
        let mut start = cols.start;
        for run in s[cols.clone()].split(|&x| x == 0.0) {
            for (c, w) in tiles(start..start + run.len()) {
                let sc = &s[c..c + w];
                match w {
                    8 => rank_one_update::<8>(block, ld, c, vb, sc),
                    4 => rank_one_update::<4>(block, ld, c, vb, sc),
                    2 => rank_one_update::<2>(block, ld, c, vb, sc),
                    _ => rank_one_update::<1>(block, ld, c, vb, sc),
                }
            }
            start += run.len() + 1;
        }
    }
}

/// Splits `cols` into `(start, width)` tiles: 8 wide, then 4, 2 and 1 for
/// the tail.
fn tiles(cols: Range<usize>) -> impl Iterator<Item = (usize, usize)> {
    let mut c = cols.start;
    std::iter::from_fn(move || {
        let w = [8, 4, 2, 1].into_iter().find(|&w| c + w <= cols.end)?;
        c += w;
        Some((c - w, w))
    })
}

/// `acc[l] += Σ_i v_i x_{i, c+l}` over the rows of `block`, in ascending
/// `i`, with the `W` running sums in registers.
#[inline(always)]
fn column_sums<const W: usize>(block: &[f64], ld: usize, c: usize, v: &[f64], acc: &mut [f64]) {
    let mut sums: [f64; W] = acc.try_into().unwrap();
    for (row, &vi) in block.chunks_exact(ld).zip(v) {
        let x: &[f64; W] = row[c..c + W].try_into().unwrap();
        for l in 0..W {
            sums[l] += vi * x[l];
        }
    }
    acc.copy_from_slice(&sums);
}

/// `x_{i, c+l} −= s_l v_i` over the rows of `block`.
#[inline(always)]
fn rank_one_update<const W: usize>(block: &mut [f64], ld: usize, c: usize, v: &[f64], s: &[f64]) {
    let s: &[f64; W] = s.try_into().unwrap();
    for (row, &vi) in block.chunks_exact_mut(ld).zip(v) {
        let x: &mut [f64; W] = (&mut row[c..c + W]).try_into().unwrap();
        for l in 0..W {
            x[l] -= s[l] * vi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Trans;
    use crate::mat::product;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_orthonormal_cols(q: &Mat, tol: f64) {
        let g = product(Trans::T, Trans::N, q, q);
        let eye = Mat::eye(q.cols());
        assert!(
            (&g - &eye).fro_norm() < tol,
            "columns not orthonormal: deviation {}",
            (&g - &eye).fro_norm()
        );
    }

    #[test]
    fn qr_reconstructs_tall() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = gaussian_mat(20, 5, &mut rng);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (20, 5));
        assert_eq!(f.r.shape(), (5, 5));
        assert_orthonormal_cols(&f.q, 1e-12);
        let recon = product(Trans::N, Trans::N, &f.q, &f.r);
        assert!((&a - &recon).fro_norm() < 1e-12 * a.fro_norm().max(1.0));
    }

    #[test]
    fn qr_reconstructs_square() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = gaussian_mat(9, 9, &mut rng);
        let f = qr(&a);
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!((&a - &product(Trans::N, Trans::N, &f.q, &f.r)).fro_norm() < 1e-11);
    }

    #[test]
    fn qr_reconstructs_wide() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = gaussian_mat(4, 11, &mut rng);
        let f = qr(&a);
        assert_eq!(f.q.shape(), (4, 4));
        assert_eq!(f.r.shape(), (4, 11));
        assert_orthonormal_cols(&f.q, 1e-12);
        assert!((&a - &product(Trans::N, Trans::N, &f.q, &f.r)).fro_norm() < 1e-11);
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = gaussian_mat(8, 6, &mut rng);
        let f = qr(&a);
        for i in 0..f.r.rows() {
            for j in 0..i.min(f.r.cols()) {
                assert_eq!(f.r.at(i, j), 0.0, "R({i},{j}) not zeroed");
            }
        }
    }

    #[test]
    fn qr_of_identity() {
        let f = qr(Mat::eye(5));
        assert!((&product(Trans::N, Trans::N, &f.q, &f.r) - &Mat::eye(5)).fro_norm() < 1e-14);
    }

    #[test]
    fn qr_rank_deficient_still_factorizes() {
        // Two identical columns.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let f = qr(&a);
        assert!((&a - &product(Trans::N, Trans::N, &f.q, &f.r)).fro_norm() < 1e-12);
    }

    #[test]
    fn qr_zero_matrix() {
        let a = Mat::zeros(4, 3);
        let f = qr(&a);
        assert!((&a - &product(Trans::N, Trans::N, &f.q, &f.r)).fro_norm() < 1e-15);
    }

    /// Equal bits, entry by entry, of same-shaped matrices.
    fn bits(m: &Mat) -> Vec<u64> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn scaling_by_a_power_of_two_keeps_q_and_scales_r() {
        // Outside [NORM_MIN, NORM_MAX] a column's squares underflow or
        // overflow; the reflector is built from the column scaled by a
        // power of two, so `Q` keeps its bits and `R` scales exactly. Tall,
        // square and wide shapes, and a first column `−e₀` (σ = 0 with
        // α < 0, whose `α²` underflows too).
        let mut rng = StdRng::seed_from_u64(12);
        let mut neg_e0 = gaussian_mat(6, 4, &mut rng);
        for i in 0..6 {
            neg_e0.set(i, 0, if i == 0 { -1.5 } else { 0.0 });
        }
        let cases = [
            gaussian_mat(7, 3, &mut rng),
            gaussian_mat(40, 3, &mut rng),
            gaussian_mat(88, 18, &mut rng),
            gaussian_mat(5, 5, &mut rng),
            gaussian_mat(4, 11, &mut rng),
            neg_e0,
        ];
        for a in &cases {
            let base = qr(a);
            for k in [-900, -540, 520, 900] {
                let c = pow2(k);
                let f = qr(Mat::from_fn(a.rows(), a.cols(), |i, j| a.at(i, j) * c));
                let ctx = format!("{:?} times 2^{k}", a.shape());
                assert_eq!(bits(&f.q), bits(&base.q), "{ctx}: Q");
                let r_want = Mat::from_fn(base.r.rows(), base.r.cols(), |i, j| base.r.at(i, j) * c);
                assert_eq!(bits(&f.r), bits(&r_want), "{ctx}: R");
            }
        }
    }
}
