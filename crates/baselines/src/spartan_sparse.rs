//! CSR-input tests for [`crate::Spartan`]: the sparse instantiation is
//! bit-identical to the dense one on naive-dispatch shapes and across
//! thread counts, and converges on sparse planted models.

#[cfg(test)]
mod tests {
    use crate::Spartan;
    use dpar2_core::{FitOptions, Parafac2Fit, Parafac2Solver};
    use dpar2_data::{planted_parafac2, planted_sparse};
    use dpar2_linalg::Mat;
    use dpar2_tensor::SparseIrregularTensor;

    fn assert_fit_bits_eq(a: &Parafac2Fit, b: &Parafac2Fit) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.stop_reason, b.stop_reason);
        assert_mat_bits(&a.h, &b.h, "H");
        assert_mat_bits(&a.v, &b.v, "V");
        for (k, (ua, ub)) in a.u.iter().zip(&b.u).enumerate() {
            assert_mat_bits(ua, ub, &format!("U[{k}]"));
        }
        assert_eq!(a.s, b.s);
        for (i, (ca, cb)) in a.criterion_trace.iter().zip(&b.criterion_trace).enumerate() {
            assert_eq!(ca.to_bits(), cb.to_bits(), "criterion_trace[{i}]: {ca} vs {cb}");
        }
    }

    fn assert_mat_bits(a: &Mat, b: &Mat, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what} shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what} entry {i}: {x} vs {y}");
        }
    }

    // J = 7, R = 3 keeps every dense product of a dense fit on the naive
    // dispatch path regardless of slice height (n = R < NR or n = J < NR or
    // m = R < MR throughout), which is the configuration where sparse↔dense
    // bit-identity is exact. See dpar2_linalg::kernel::use_blocked.
    const GOLDEN_J: usize = 7;
    const GOLDEN_R: usize = 3;

    #[test]
    fn matches_dense_spartan_bit_for_bit() {
        let dense = planted_parafac2(&[23, 31, 17, 26], GOLDEN_J, GOLDEN_R, 0.2, 811);
        let sparse = SparseIrregularTensor::from_dense(&dense);
        let cfg = FitOptions::new(GOLDEN_R).with_max_iterations(6).with_tolerance(0.0);
        let df = Spartan.fit(&dense, &cfg).unwrap();
        let sf = Spartan.fit(&sparse, &cfg).unwrap();
        assert_fit_bits_eq(&df, &sf);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let t = planted_sparse(&[40, 65, 28, 51], GOLDEN_J, GOLDEN_R, 0.3, 0.1, 812);
        let base = Spartan
            .fit(&t, &FitOptions::new(GOLDEN_R).with_threads(1).with_max_iterations(5))
            .unwrap();
        for threads in [2, 4] {
            let f = Spartan
                .fit(&t, &FitOptions::new(GOLDEN_R).with_threads(threads).with_max_iterations(5))
                .unwrap();
            assert_fit_bits_eq(&base, &f);
        }
    }

    #[test]
    fn fits_dense_planted_data_via_trait_path() {
        let t = planted_parafac2(&[25, 30, 18], 14, 3, 0.05, 813);
        let fit = Parafac2Solver::fit(&Spartan, &t, &FitOptions::new(3)).unwrap();
        assert!(fit.fitness(&t) > 0.95, "fitness {}", fit.fitness(&t));
    }

    #[test]
    fn converges_on_fully_observed_sparse_model() {
        // density 1, no noise: the CSR tensor IS an exact PARAFAC2 model.
        let t = planted_sparse(&[22, 28, 16], 9, 3, 1.0, 0.0, 814);
        let dense = t.to_dense();
        let fit = Spartan.fit(&t, &FitOptions::new(3)).unwrap();
        assert!(fit.fitness(&dense) > 0.999, "fitness {}", fit.fitness(&dense));
    }

    #[test]
    fn rejects_invalid_rank() {
        let t = planted_sparse(&[6, 30], 14, 2, 0.5, 0.0, 815);
        assert!(Spartan.fit(&t, &FitOptions::new(7)).is_err());
        assert!(Spartan.fit(&t, &FitOptions::new(0)).is_err());
    }

    #[test]
    fn zero_iteration_budget_yields_identity_model() {
        let t = planted_sparse(&[12, 15], 6, 2, 0.4, 0.0, 816);
        let fit = Spartan.fit(&t, &FitOptions::new(2).with_max_iterations(0)).unwrap();
        assert_eq!(fit.iterations, 0);
        assert_eq!(fit.u.len(), 2);
        assert_eq!(fit.u[0].shape(), (12, 2));
    }
}
