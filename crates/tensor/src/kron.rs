//! Kronecker (`⊗`) and Khatri-Rao (`⊙`) products — Table I of the paper.

use dpar2_linalg::Mat;

/// Kronecker product `A ⊗ B`.
///
/// For `A ∈ R^{m×n}` and `B ∈ R^{p×q}` the result is `(mp) × (nq)` with
/// `(A ⊗ B)[(i_a p + i_b), (j_a q + j_b)] = A[i_a, j_a] · B[i_b, j_b]`.
pub fn kron(a: &Mat, b: &Mat) -> Mat {
    let (m, n) = a.shape();
    let (p, q) = b.shape();
    let mut out = Mat::zeros(m * p, n * q);
    for ia in 0..m {
        for ib in 0..p {
            let dst = out.row_mut(ia * p + ib);
            for ja in 0..n {
                let aval = a.at(ia, ja);
                if aval == 0.0 {
                    continue;
                }
                for jb in 0..q {
                    dst[ja * q + jb] = aval * b.at(ib, jb);
                }
            }
        }
    }
    out
}

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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kron_known_2x2() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 5.0], &[6.0, 7.0]]);
        let k = kron(&a, &b);
        assert_eq!(k.shape(), (4, 4));
        // Top-left block is 1·B.
        assert_eq!(k.at(0, 1), 5.0);
        assert_eq!(k.at(1, 0), 6.0);
        // Bottom-right block is 4·B.
        assert_eq!(k.at(3, 3), 28.0);
    }

    #[test]
    fn kron_identity_blocks() {
        let b = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let k = kron(&Mat::eye(2), &b);
        // Block-diagonal with two copies of B.
        assert_eq!(k.at(0, 0), 1.0);
        assert_eq!(k.at(2, 2), 1.0);
        assert_eq!(k.at(0, 2), 0.0);
        assert_eq!(k.at(3, 3), 4.0);
    }

    #[test]
    fn mixed_product_property() {
        // (A ⊗ B)(C ⊗ D) = (AC) ⊗ (BD) — the identity behind Lemma 1.
        let mut rng = StdRng::seed_from_u64(71);
        let a = gaussian_mat(3, 4, &mut rng);
        let b = gaussian_mat(2, 5, &mut rng);
        let c = gaussian_mat(4, 2, &mut rng);
        let d = gaussian_mat(5, 3, &mut rng);
        let lhs = kron(&a, &b).matmul(kron(&c, &d)).unwrap();
        let rhs = kron(&a.matmul(&c).unwrap(), &b.matmul(&d).unwrap());
        assert!((&lhs - &rhs).fro_norm() < 1e-10 * (1.0 + lhs.fro_norm()));
    }

    #[test]
    fn vectorization_identity() {
        // vec(A B) = (Bᵀ ⊗ I) vec(A) — used in the proof of Lemma 3.
        let mut rng = StdRng::seed_from_u64(72);
        let a = gaussian_mat(3, 4, &mut rng);
        let b = gaussian_mat(4, 5, &mut rng);
        let lhs = a.matmul(&b).unwrap().vec_colmajor();
        let rhs = kron(&b.transpose(), &Mat::eye(3)).matmul(Mat::col_vector(&a.vec_colmajor()));
        let rhs = rhs.unwrap().into_vec();
        assert_eq!(rhs.len(), lhs.len());
        for (x, y) in lhs.iter().zip(&rhs) {
            assert!((x - y).abs() < 1e-10);
        }
    }

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
        let lhs = kr.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        assert!((&lhs - &rhs).fro_norm() < 1e-10 * (1.0 + lhs.fro_norm()));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn khatri_rao_mismatch_panics() {
        khatri_rao(&Mat::zeros(2, 3), &Mat::zeros(2, 4));
    }
}
