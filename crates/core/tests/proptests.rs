//! Property-based tests for the DPar2 core: compression fidelity, lemma
//! kernel equivalence, and criterion consistency over randomized shapes.

use dpar2_core::compress::compress;
use dpar2_core::config::FitOptions;
use dpar2_core::convergence::{
    compressed_criterion_ws, criterion_from_byproducts, explicit_criterion,
};
use dpar2_core::lemmas::{g1_ws, g2_ws, g3_ws, materialize_y, naive_g1, naive_g2, naive_g3};
use dpar2_core::{Dpar2, StreamingDpar2, Workspace};
use dpar2_linalg::{gaussian_mat, qr, Mat};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::IrregularTensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Planted PARAFAC2 tensor with randomized shape.
fn planted(seed: u64, k: usize, j: usize, r: usize) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = gaussian_mat(r, r, &mut rng);
    let v = gaussian_mat(j, r, &mut rng);
    let slices = (0..k)
        .map(|i| {
            let ik = j + 3 + 7 * i; // varied, ≥ j ≥ r
            let q = qr::qr(gaussian_mat(ik, r, &mut rng)).q;
            q.matmul(&h).unwrap().matmul_nt(&v).unwrap()
        })
        .collect();
    IrregularTensor::new(slices)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-stage compression is lossless on exactly rank-R data, for any
    /// shape: ‖X_k − A_k F(k) E Dᵀ‖ ≈ 0.
    #[test]
    fn compression_lossless_on_planted(seed in 0u64..500, k in 2usize..6, j in 6usize..14, r in 1usize..4) {
        let t = planted(seed, k, j, r);
        let ct = compress(&t, &FitOptions::new(r).with_seed(seed ^ 1)).unwrap();
        for kk in 0..t.k() {
            let rel = (t.slice(kk) - &ct.reconstruct_slice(kk)).fro_norm()
                / t.slice(kk).fro_norm().max(1e-12);
            prop_assert!(rel < 1e-6, "slice {kk} rel err {rel}");
        }
    }

    /// Lemma kernels equal the naive MTTKRP on the materialized Y for
    /// arbitrary factor contents.
    #[test]
    fn lemmas_match_naive(seed in 0u64..500, k in 1usize..8, j in 2usize..12, r in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let de = edt.transpose();
        let v = gaussian_mat(j, r, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let edtv = edt.matmul(&v).unwrap();
        let pool = ThreadPool::new(1);
        let mut ws = Workspace::new();
        let y = materialize_y(&pzf, &edt);

        let mut f1 = Mat::default();
        g1_ws(&pzf, &w, &edtv, &pool, &mut f1, &mut ws);
        let n1 = naive_g1(&y, &v, &w);
        prop_assert!((&f1 - &n1).fro_norm() < 1e-8 * (1.0 + n1.fro_norm()));

        let mut f2 = Mat::default();
        g2_ws(&pzf, &w, &h, &de, &pool, &mut f2, &mut ws);
        let n2 = naive_g2(&y, &h, &w);
        prop_assert!((&f2 - &n2).fro_norm() < 1e-8 * (1.0 + n2.fro_norm()));

        let mut f3 = Mat::default();
        g3_ws(&pzf, &edtv, &h, &pool, &mut f3, &mut ws);
        let n3 = naive_g3(&y, &h, &v);
        prop_assert!((&f3 - &n3).fro_norm() < 1e-8 * (1.0 + n3.fro_norm()));
    }

    /// The compressed criterion equals the explicit residual on
    /// materialized Y slices.
    #[test]
    fn criterion_matches_explicit(seed in 0u64..500, k in 1usize..7, j in 2usize..10, r in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let pool = ThreadPool::new(1);
        let fast = compressed_criterion_ws(&pzf, &edt, &h, &w, &v, &pool, &mut Workspace::new());
        let y: Vec<Mat> = pzf.iter().map(|p| p.matmul(&edt).unwrap()).collect();
        let slow = explicit_criterion(&y, &h, &w, &v);
        prop_assert!((fast - slow).abs() < 1e-8 * (1.0 + slow));
    }

    /// The `O(K R²)` criterion from the W update's by-products equals the
    /// slice-by-slice reference for any `F(k)`, orthogonal `Z_k P_kᵀ`, `H`,
    /// `V` and `W`, with `G⁽³⁾` from the Lemma-3 kernel.
    #[test]
    fn byproduct_criterion_matches_reference(seed in 0u64..500, k in 1usize..9, j in 2usize..12, r in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        // PZF_k = P_k Z_kᵀ F(k) = (Z_k P_kᵀ)ᵀ F(k), Z_k P_kᵀ orthogonal.
        let pzf: Vec<Mat> =
            f.iter().map(|fk| qr::qr(gaussian_mat(r, r, &mut rng)).q.matmul_tn(fk).unwrap()).collect();
        let data_norm_sq: f64 = f.iter().map(|fk| fk.matmul(&edt).unwrap().fro_norm_sq()).sum();
        let pool = ThreadPool::new(1);
        let mut ws = Workspace::new();
        let mut g3 = Mat::default();
        g3_ws(&pzf, &edt.matmul(&v).unwrap(), &h, &pool, &mut g3, &mut ws);
        let mut gram = v.matmul_tn(&v).unwrap();
        gram.hadamard_assign(h.matmul_tn(&h).unwrap());
        let fast = criterion_from_byproducts(data_norm_sq, &w, &g3, &gram);
        let reference = compressed_criterion_ws(&pzf, &edt, &h, &w, &v, &pool, &mut ws);
        prop_assert!((fast - reference).abs() <= 1e-9 * reference, "{fast} vs {reference}");
    }

    /// Fitness is always in (−∞, 1] and the solver never panics across
    /// shapes; on planted data it is near 1.
    #[test]
    fn solver_fitness_bounds(seed in 0u64..200, k in 2usize..5, j in 6usize..12, r in 1usize..4) {
        let t = planted(seed, k, j, r);
        let fit = Dpar2
            .fit(&t, &FitOptions::new(r).with_seed(seed).with_max_iterations(8))
            .unwrap();
        let f = fit.fitness(&t);
        prop_assert!(f <= 1.0 + 1e-9);
        prop_assert!(f > 0.5, "planted-data fitness {f} too low");
    }

    /// Streaming ingestion in two batches reproduces batch compression
    /// fidelity on planted data.
    #[test]
    fn streaming_equals_batch_compression(seed in 0u64..200, j in 6usize..12, r in 1usize..4) {
        let t = planted(seed, 4, j, r);
        let slices = t.to_slices();
        let cfg = FitOptions::new(r).with_seed(seed ^ 7);
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(slices[..2].to_vec()).unwrap();
        stream.append(slices[2..].to_vec()).unwrap();
        let ct = stream.compressed().unwrap();
        for kk in 0..t.k() {
            let rel = (t.slice(kk) - &ct.reconstruct_slice(kk)).fro_norm()
                / t.slice(kk).fro_norm().max(1e-12);
            prop_assert!(rel < 1e-5, "slice {kk} rel err {rel}");
        }
    }
}
