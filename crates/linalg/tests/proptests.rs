//! Property-based tests for the linear-algebra substrate.
//!
//! These encode the algebraic identities the PARAFAC2 solvers silently rely
//! on; a violation here would surface as subtle fitness corruption rather
//! than a crash, so we check them over randomized shapes and contents.

use dpar2_linalg::{pinv, product, qr, svd_thin, Mat, Trans};
use proptest::prelude::*;

/// Strategy: a matrix with dimensions in [1, 12] and entries in [-100, 100].
fn small_mat() -> impl Strategy<Value = Mat> {
    (1usize..12, 1usize..12).prop_flat_map(|(r, c)| {
        prop::collection::vec(-100.0f64..100.0, r * c)
            .prop_map(move |data| Mat::from_vec(r, c, data))
    })
}

/// Strategy: a pair of multiplicable matrices (A: r×k, B: k×c).
fn mul_pair() -> impl Strategy<Value = (Mat, Mat)> {
    (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(r, k, c)| {
        let a =
            prop::collection::vec(-10.0f64..10.0, r * k).prop_map(move |d| Mat::from_vec(r, k, d));
        let b =
            prop::collection::vec(-10.0f64..10.0, k * c).prop_map(move |d| Mat::from_vec(k, c, d));
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution(a in small_mat()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_transpose_identity((a, b) in mul_pair()) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let ab_t = product(Trans::N, Trans::N, &a, &b).transpose();
        let bt_at = product(Trans::N, Trans::N, b.transpose(), a.transpose());
        prop_assert!((&ab_t - &bt_at).fro_norm() < 1e-9 * (1.0 + ab_t.fro_norm()));
    }

    #[test]
    fn matmul_tn_nt_consistency((a, b) in mul_pair()) {
        // Aᵀ·B through `product` equals the explicit transpose; A·Bᵀ likewise.
        let at = a.transpose();
        let tn = product(Trans::T, Trans::N, &at, &b); // (Aᵀ)ᵀ·B = A·B
        let plain = product(Trans::N, Trans::N, &a, &b);
        prop_assert!((&tn - &plain).fro_norm() < 1e-9 * (1.0 + plain.fro_norm()));

        let bt = b.transpose();
        let nt = product(Trans::N, Trans::T, &a, &bt); // A·(Bᵀ)ᵀ = A·B
        prop_assert!((&nt - &plain).fro_norm() < 1e-9 * (1.0 + plain.fro_norm()));
    }

    #[test]
    fn fro_norm_triangle_inequality(a in small_mat()) {
        let double = &a + &a;
        prop_assert!(double.fro_norm() <= 2.0 * a.fro_norm() + 1e-9);
    }

    #[test]
    fn qr_reconstructs(a in small_mat()) {
        let f = qr(&a);
        let recon = product(Trans::N, Trans::N, &f.q, &f.r);
        prop_assert!((&a - &recon).fro_norm() < 1e-8 * (1.0 + a.fro_norm()));
        // Q orthonormal columns.
        let k = f.q.cols();
        prop_assert!((&product(Trans::T, Trans::N, &f.q, &f.q) - &Mat::eye(k)).fro_norm() < 1e-9);
    }

    #[test]
    fn svd_reconstructs_and_is_sorted(a in small_mat()) {
        let f = svd_thin(&a);
        let recon = f.reconstruct();
        prop_assert!((&a - &recon).fro_norm() < 1e-7 * (1.0 + a.fro_norm()));
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-9);
        }
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn svd_frobenius_identity(a in small_mat()) {
        let f = svd_thin(&a);
        let sum_sq: f64 = f.s.iter().map(|&x| x * x).sum();
        prop_assert!((sum_sq - a.fro_norm_sq()).abs() < 1e-7 * (1.0 + a.fro_norm_sq()));
    }

    #[test]
    fn pinv_penrose_one(a in small_mat()) {
        // A A† A = A even for rank-deficient A.
        let p = pinv(&a);
        let apa = product(Trans::N, Trans::N, product(Trans::N, Trans::N, &a, &p), &a);
        prop_assert!((&apa - &a).fro_norm() < 1e-6 * (1.0 + a.fro_norm()));
    }

    #[test]
    fn hstack_then_block_roundtrip((a, b) in mul_pair()) {
        // hstack two same-row matrices then slice them back out.
        let bt = b.transpose();
        if a.rows() == bt.rows() {
            let h = Mat::hstack_all(&[&a, &bt]);
            prop_assert_eq!(h.block(0, a.rows(), 0, a.cols()), a);
            prop_assert_eq!(h.block(0, a.rows(), a.cols(), h.cols()), bt);
        }
    }

    #[test]
    fn vec_colmajor_preserves_norm(a in small_mat()) {
        let v = a.vec_colmajor();
        let norm_sq: f64 = v.iter().map(|x| x * x).sum();
        prop_assert!((norm_sq - a.fro_norm_sq()).abs() < 1e-9 * (1.0 + a.fro_norm_sq()));
    }
}
