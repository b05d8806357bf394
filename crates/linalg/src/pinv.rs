//! Moore–Penrose pseudoinverse.
//!
//! The CP-ALS update rules in both PARAFAC2-ALS (Algorithm 2, lines 11–13)
//! and DPar2 (Algorithm 3, lines 15/17/19) post-multiply by
//! `(WᵀW ∗ VᵀV)†` — the pseudoinverse of a small `R×R` Hadamard product of
//! Gram matrices. The paper notes this is cheap because the operand is tiny;
//! we compute it through the SVD, zeroing singular values below a relative
//! tolerance, exactly as MATLAB's `pinv` does.

use crate::kernel::Trans;
use crate::mat::{gemm, Mat};
use crate::svd::{svd_thin_into, SvdFactors, SvdScratch};
use crate::view::AsMatRef;
use dpar2_parallel::ThreadPool;

/// Computes the Moore–Penrose pseudoinverse `A†` via the SVD.
///
/// Singular values `≤ max(m,n) · eps · σ₁` are treated as zero
/// (MATLAB-compatible default tolerance).
pub fn pinv(a: impl AsMatRef) -> Mat {
    let mut out = Mat::zeros(0, 0);
    pinv_into(a, &mut out, &mut SvdFactors::default(), &mut SvdScratch::default());
    out
}

/// [`pinv`] into a caller-owned output with reusable SVD scratch — the
/// allocation-free form of the `(WᵀW ∗ VᵀV)†` step of every ALS update.
/// Bit-identical to [`pinv`].
pub fn pinv_into(a: impl AsMatRef, out: &mut Mat, tmp: &mut SvdFactors, ws: &mut SvdScratch) {
    let a = a.as_mat_ref();
    let rel_tol = f64::EPSILON * a.rows().max(a.cols()) as f64;
    svd_thin_into(a, tmp, ws);
    let sigma_max = tmp.s.first().copied().unwrap_or(0.0);
    let cutoff = sigma_max * rel_tol;
    // A† = V Σ† Uᵀ, built as (V · Σ†) · Uᵀ; Σ† is applied to the scratch
    // copy of V in place.
    for i in 0..tmp.v.rows() {
        let row = tmp.v.row_mut(i);
        for (j, &sigma) in tmp.s.iter().enumerate() {
            row[j] = if sigma > cutoff && sigma > 0.0 { row[j] / sigma } else { 0.0 };
        }
    }
    gemm(Trans::N, Trans::T, &tmp.v, &tmp.u, out, &ThreadPool::new(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::product;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Mat::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let p = pinv(&a);
        let prod = product(Trans::N, Trans::N, &a, &p);
        assert!((&prod - &Mat::eye(2)).fro_norm() < 1e-10);
    }

    #[test]
    fn penrose_conditions_hold_for_rectangular() {
        let mut rng = StdRng::seed_from_u64(41);
        let a = gaussian_mat(9, 4, &mut rng);
        let p = pinv(&a);
        let ap = product(Trans::N, Trans::N, &a, &p);
        let pa = product(Trans::N, Trans::N, &p, &a);
        // 1. A A† A = A
        assert!((&product(Trans::N, Trans::N, &ap, &a) - &a).fro_norm() < 1e-9 * a.fro_norm());
        // 2. A† A A† = A†
        assert!((&product(Trans::N, Trans::N, &pa, &p) - &p).fro_norm() < 1e-9 * p.fro_norm());
        // 3. (A A†)ᵀ = A A†
        assert!((&ap.transpose() - &ap).fro_norm() < 1e-9);
        // 4. (A† A)ᵀ = A† A
        assert!((&pa.transpose() - &pa).fro_norm() < 1e-9);
    }

    #[test]
    fn pinv_rank_deficient() {
        // Rank-1 matrix: A = u vᵀ with ‖u‖, ‖v‖ known.
        let u = Mat::col_vector(&[1.0, 2.0]);
        let v = Mat::row_vector(&[3.0, 0.0, 4.0]);
        let a = product(Trans::N, Trans::N, &u, &v);
        let p = pinv(&a);
        // Penrose condition 1 suffices to validate handling of zero σ.
        let apa = product(Trans::N, Trans::N, product(Trans::N, Trans::N, &a, &p), &a);
        assert!((&apa - &a).fro_norm() < 1e-9 * a.fro_norm());
    }

    #[test]
    fn pinv_zero_matrix_is_zero() {
        let p = pinv(Mat::zeros(3, 2));
        assert_eq!(p.shape(), (2, 3));
        assert!(p.fro_norm() < 1e-300);
    }

    #[test]
    fn pinv_of_transpose_is_transpose_of_pinv() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = gaussian_mat(6, 3, &mut rng);
        let p1 = pinv(a.transpose());
        let p2 = pinv(&a).transpose();
        assert!((&p1 - &p2).fro_norm() < 1e-9 * p1.fro_norm());
    }

    #[test]
    fn pinv_hadamard_gram_psd() {
        // Exactly the shape used by the ALS update: (WᵀW ∗ VᵀV)†.
        let mut rng = StdRng::seed_from_u64(43);
        let w = gaussian_mat(30, 5, &mut rng);
        let v = gaussian_mat(20, 5, &mut rng);
        let mut g = product(Trans::T, Trans::N, &w, &w);
        g.hadamard_assign(product(Trans::T, Trans::N, &v, &v));
        let p = pinv(&g);
        let gpg = product(Trans::N, Trans::N, product(Trans::N, Trans::N, &g, &p), &g);
        assert!((&gpg - &g).fro_norm() < 1e-8 * g.fro_norm());
    }
}
