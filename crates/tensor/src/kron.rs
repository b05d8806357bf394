//! Khatri-Rao (`⊙`) products — Table I of the paper — and the vector
//! Kronecker (`⊗`) product behind them.

use dpar2_linalg::Mat;

/// Kronecker product of two vectors, `a ⊗ b` (length `|a|·|b|`, `b` varies
/// fastest). Used in Lemma 3's `E Dᵀ V(:,r) ⊗ H(:,r)` term.
pub fn kron_vec(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &av in a {
        for &bv in b {
            out.push(av * bv);
        }
    }
    out
}

/// Khatri-Rao (column-wise Kronecker) product `A ⊙ B`.
///
/// `A ∈ R^{m×r}` and `B ∈ R^{p×r}` give `(mp) × r` where column `c` is
/// `A(:,c) ⊗ B(:,c)`. The row ordering (`A`'s index varies slowest) matches
/// the matricization convention of [`crate::Dense3`], so
/// `X_(1) = A (C ⊙ B)ᵀ` holds for a CP decomposition `[[A, B, C]]`.
///
/// # Panics
/// Panics if the column counts differ.
pub fn khatri_rao(a: &Mat, b: &Mat) -> Mat {
    let mut out = Mat::zeros(0, 0);
    khatri_rao_into(a, b, &mut out);
    out
}

/// [`khatri_rao`] into a pre-allocated buffer (resized if needed) — the
/// allocation-free form the scratch-based MTTKRP kernels use.
///
/// # Panics
/// Panics if the column counts differ.
pub fn khatri_rao_into(a: &Mat, b: &Mat, out: &mut Mat) {
    assert_eq!(
        a.cols(),
        b.cols(),
        "khatri_rao: column count mismatch ({} vs {})",
        a.cols(),
        b.cols()
    );
    let r = a.cols();
    let (m, p) = (a.rows(), b.rows());
    out.resize_zeroed(m * p, r);
    for ia in 0..m {
        let arow = a.row(ia);
        for ib in 0..p {
            let brow = b.row(ib);
            let dst = out.row_mut(ia * p + ib);
            for c in 0..r {
                dst[c] = arow[c] * brow[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_linalg::{product, Trans};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kron_vec_ordering() {
        let v = kron_vec(&[1.0, 2.0], &[10.0, 20.0, 30.0]);
        assert_eq!(v, vec![10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn khatri_rao_is_columnwise_kron() {
        let mut rng = StdRng::seed_from_u64(73);
        let a = gaussian_mat(4, 3, &mut rng);
        let b = gaussian_mat(5, 3, &mut rng);
        let kr = khatri_rao(&a, &b);
        assert_eq!(kr.shape(), (20, 3));
        for c in 0..3 {
            let expected = kron_vec(&a.col(c), &b.col(c));
            let got = kr.col(c);
            for (x, y) in expected.iter().zip(&got) {
                assert!((x - y).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn khatri_rao_gram_identity() {
        // (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB — the identity making the ALS
        // normal equations cheap (used by Algorithm 2 lines 11–13).
        let mut rng = StdRng::seed_from_u64(74);
        let a = gaussian_mat(6, 4, &mut rng);
        let b = gaussian_mat(7, 4, &mut rng);
        let kr = khatri_rao(&a, &b);
        let lhs = product(Trans::T, Trans::N, &kr, &kr);
        let mut rhs = product(Trans::T, Trans::N, &a, &a);
        rhs.hadamard_assign(product(Trans::T, Trans::N, &b, &b));
        assert!((&lhs - &rhs).fro_norm() < 1e-10 * (1.0 + lhs.fro_norm()));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn khatri_rao_mismatch_panics() {
        khatri_rao(&Mat::zeros(2, 3), &Mat::zeros(2, 4));
    }
}
