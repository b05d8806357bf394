//! CP (CANDECOMP/PARAFAC) decomposition building blocks.
//!
//! The PARAFAC2-ALS inner step (Algorithm 2, lines 11–16) is "a single
//! iteration of CP-ALS" on the small tensor `Y ∈ R^{R×J×K}`. This module
//! provides that iteration's building blocks: the MTTKRP and column
//! normalization.
//!
//! [`mttkrp`] (matricized-tensor times Khatri-Rao product) is the
//! textbook formulation: it materializes `X_(n)` and the Khatri-Rao
//! product, for `O(I J K R)` time *and* `O(I J K)` transient memory — what
//! the plain PARAFAC2-ALS baseline pays. The SPARTan baseline accumulates
//! its MTTKRP slice by slice in its own code instead.

use crate::dense3::Dense3;
use crate::kron::khatri_rao_into;
use dpar2_linalg::{gemm, pow2, product, Mat, ThreadPool, Trans};

/// Reusable scratch for [`mttkrp_into`]: the materialized unfolding and
/// Khatri-Rao operands. Holding one across ALS iterations makes the
/// textbook MTTKRP allocation-free in steady state without changing a
/// single arithmetic operation.
#[derive(Debug, Default)]
pub struct MttkrpScratch {
    unfold: Mat,
    kr: Mat,
}

/// Factor matrices of a rank-`R` CP decomposition `[[A, B, C]]` of a tensor
/// `X ∈ R^{I×J×K}`: `A ∈ R^{I×R}`, `B ∈ R^{J×R}`, `C ∈ R^{K×R}`.
#[derive(Debug, Clone)]
pub struct CpFactors {
    /// Mode-1 factor (`I × R`).
    pub a: Mat,
    /// Mode-2 factor (`J × R`).
    pub b: Mat,
    /// Mode-3 factor (`K × R`).
    pub c: Mat,
}

impl CpFactors {
    /// Rank of the decomposition.
    pub fn rank(&self) -> usize {
        self.a.cols()
    }

    /// Reconstructs the full tensor `Σ_r a_r ∘ b_r ∘ c_r`.
    pub fn reconstruct(&self) -> Dense3 {
        let (i, j, k) = (self.a.rows(), self.b.rows(), self.c.rows());
        let mut slices = Vec::with_capacity(k);
        for kk in 0..k {
            // X(:,:,k) = A diag(C(k,:)) Bᵀ
            let mut scaled = self.a.clone();
            for row in 0..i {
                let r = scaled.row_mut(row);
                for (col, v) in r.iter_mut().enumerate() {
                    *v *= self.c.at(kk, col);
                }
            }
            slices.push(product(Trans::N, Trans::T, &scaled, &self.b));
        }
        let _ = (i, j);
        Dense3::from_frontal_slices(slices)
    }
}

/// Textbook MTTKRP: `X_(mode) · (⊙ of the other two factors)`.
///
/// `factors = (A, B, C)`; for `mode = 1` returns `X_(1)(C ⊙ B)`, for
/// `mode = 2` returns `X_(2)(C ⊙ A)`, for `mode = 3` returns `X_(3)(B ⊙ A)`.
///
/// # Panics
/// Panics if `mode ∉ {1,2,3}`.
pub fn mttkrp(t: &Dense3, a: &Mat, b: &Mat, c: &Mat, mode: usize) -> Mat {
    let mut out = Mat::zeros(0, 0);
    mttkrp_into(t, a, b, c, mode, &mut out, &mut MttkrpScratch::default());
    out
}

/// [`mttkrp`] into a pre-allocated output with reusable operand scratch —
/// bit-identical to [`mttkrp`] (same unfolding, same Khatri-Rao product,
/// same GEMM), but allocation-free once the scratch has warmed up.
///
/// # Panics
/// Panics if `mode ∉ {1,2,3}`.
pub fn mttkrp_into(
    t: &Dense3,
    a: &Mat,
    b: &Mat,
    c: &Mat,
    mode: usize,
    out: &mut Mat,
    ws: &mut MttkrpScratch,
) {
    match mode {
        1 => {
            t.unfold1_into(&mut ws.unfold);
            khatri_rao_into(c, b, &mut ws.kr);
        }
        2 => {
            t.unfold2_into(&mut ws.unfold);
            khatri_rao_into(c, a, &mut ws.kr);
        }
        3 => {
            t.unfold3_into(&mut ws.unfold);
            khatri_rao_into(b, a, &mut ws.kr);
        }
        _ => panic!("mttkrp: mode must be 1, 2, or 3 (got {mode})"),
    }
    gemm(Trans::N, Trans::N, &ws.unfold, &ws.kr, out, &ThreadPool::new(1));
}

/// Normalizes the columns of `m` to unit Euclidean norm, returning the
/// normalized matrix and the norms. Zero columns are left untouched with a
/// recorded norm of 0. PARAFAC2 implementations normalize `H` and `V` after
/// each update and absorb the scales into `W` (the `⊿ Normalize` marks in
/// Algorithm 3).
pub fn normalize_columns(m: &Mat) -> (Mat, Vec<f64>) {
    let mut out = m.clone();
    let mut norms = Vec::with_capacity(m.cols());
    normalize_columns_mut(&mut out, &mut norms);
    (out, norms)
}

/// In-place form of [`normalize_columns`]: normalizes `m`'s columns
/// directly and writes the norms into the reusable `norms` buffer —
/// bit-identical to [`normalize_columns`] (each column's norm is read
/// before that column is scaled), with zero allocations once `norms` has
/// capacity.
///
/// A column whose sum of squares leaves `[2^-960, 2^960]` (it underflows
/// or overflows, to zero or `+∞` too) is first scaled by the power of two
/// that puts its largest entry in `[1, 2)`, and its norm is scaled back.
/// The normalized column of `2^k·x` is then bitwise that of `x`, and its
/// norm exactly `2^k` times `x`'s; columns inside the range keep their
/// bits.
pub fn normalize_columns_mut(m: &mut Mat, norms: &mut Vec<f64>) {
    let sum_sq = |m: &Mat, c: usize| (0..m.rows()).map(|i| m.at(i, c) * m.at(i, c)).sum::<f64>();
    norms.clear();
    for c in 0..m.cols() {
        let mut ss = sum_sq(m, c);
        let mut back = 1.0;
        if !ss.is_nan() && !(pow2(-960)..=pow2(960)).contains(&ss) {
            let amax = (0..m.rows()).fold(0.0f64, |a, i| a.max(m.at(i, c).abs()));
            if amax > 0.0 && amax.is_finite() {
                // `amax`'s binary exponent, clamped so both powers are normal.
                let e = ((amax.to_bits() >> 52) as i32 - 1023).clamp(-1022, 1022);
                for i in 0..m.rows() {
                    m.set(i, c, m.at(i, c) * pow2(-e));
                }
                ss = sum_sq(m, c);
                back = pow2(e);
            }
        }
        let n = ss.sqrt();
        norms.push(n * back);
        if n > 0.0 {
            let inv = 1.0 / n;
            for i in 0..m.rows() {
                let v = m.at(i, c) * inv;
                m.set(i, c, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kron::khatri_rao;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_tensor(i: usize, j: usize, k: usize, seed: u64) -> Dense3 {
        let mut rng = StdRng::seed_from_u64(seed);
        Dense3::from_frontal_slices((0..k).map(|_| gaussian_mat(i, j, &mut rng)).collect())
    }

    fn random_factors(i: usize, j: usize, k: usize, r: usize, seed: u64) -> CpFactors {
        let mut rng = StdRng::seed_from_u64(seed);
        CpFactors {
            a: gaussian_mat(i, r, &mut rng),
            b: gaussian_mat(j, r, &mut rng),
            c: gaussian_mat(k, r, &mut rng),
        }
    }

    #[test]
    fn reconstruct_exact_cp_tensor() {
        // Build a tensor from known factors; reconstruction must be exact.
        let f = random_factors(4, 5, 3, 2, 83);
        let t = f.reconstruct();
        assert_eq!(t.dim_i(), 4);
        assert_eq!(t.dim_j(), 5);
        assert_eq!(t.dim_k(), 3);
        // Spot-check one entry against the explicit sum.
        let mut expected = 0.0;
        for r in 0..2 {
            expected += f.a.at(1, r) * f.b.at(2, r) * f.c.at(0, r);
        }
        assert!((t.at(1, 2, 0) - expected).abs() < 1e-12);
    }

    #[test]
    fn unfolding_identity_for_cp_tensor() {
        // X_(1) = A (C ⊙ B)ᵀ exactly for a CP tensor.
        let f = random_factors(4, 5, 3, 2, 84);
        let t = f.reconstruct();
        let lhs = t.unfold1();
        let rhs = product(Trans::N, Trans::T, &f.a, khatri_rao(&f.c, &f.b));
        assert!((&lhs - &rhs).fro_norm() < 1e-10 * (1.0 + lhs.fro_norm()));
        let lhs2 = t.unfold2();
        let rhs2 = product(Trans::N, Trans::T, &f.b, khatri_rao(&f.c, &f.a));
        assert!((&lhs2 - &rhs2).fro_norm() < 1e-10 * (1.0 + lhs2.fro_norm()));
        let lhs3 = t.unfold3();
        let rhs3 = product(Trans::N, Trans::T, &f.c, khatri_rao(&f.b, &f.a));
        assert!((&lhs3 - &rhs3).fro_norm() < 1e-10 * (1.0 + lhs3.fro_norm()));
    }

    #[test]
    fn normalize_columns_unit_norm() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        let (n, norms) = normalize_columns(&m);
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0);
        assert!((n.at(0, 0) - 0.6).abs() < 1e-12);
        assert!((n.at(1, 0) - 0.8).abs() < 1e-12);
        // zero column untouched
        assert_eq!(n.at(0, 1), 0.0);
    }

    #[test]
    fn normalize_columns_of_extreme_scale_keep_their_bits() {
        // Squares of 2^±600 and 2^±900 leave the f64 range; the column must
        // still come back unit-norm, bitwise the unscaled one, with its
        // norm scaled exactly.
        let x = Mat::from_rows(&[&[1.5], &[-0.75], &[0.3]]);
        let (base, base_norms) = normalize_columns(&x);
        for k in [-900, -600, 600, 900] {
            let c = pow2(k);
            let (n, norms) = normalize_columns(&Mat::from_fn(3, 1, |i, j| x.at(i, j) * c));
            assert_eq!(n, base, "2^{k}: normalized column");
            assert_eq!(norms[0].to_bits(), (base_norms[0] * c).to_bits(), "2^{k}: norm");
        }
    }

    #[test]
    #[should_panic(expected = "mode must be 1, 2, or 3")]
    fn mttkrp_bad_mode() {
        let t = random_tensor(2, 2, 2, 89);
        let f = random_factors(2, 2, 2, 1, 90);
        mttkrp(&t, &f.a, &f.b, &f.c, 0);
    }
}
