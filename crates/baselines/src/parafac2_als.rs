//! PARAFAC2-ALS — Algorithm 2 of the paper (Kiers, ten Berge & Bro 1999).
//!
//! The direct-fitting alternating least squares algorithm, implemented
//! faithfully to its textbook form:
//!
//! * `Q_k` updates via rank-`R` truncated SVD of `X_k V S_k Hᵀ` (lines 4–5),
//! * explicit `Y_k = Q_kᵀ X_k` and a materialized tensor `Y` (lines 8–10),
//! * naive MTTKRP — unfoldings times materialized Khatri-Rao products —
//!   for the single CP-ALS iteration (lines 11–16),
//! * convergence on the true reconstruction error (line 17).
//!
//! This is deliberately the expensive formulation that DPar2 improves on:
//! every iteration touches the raw slices (`O(Σ_k I_k J R)`) and pays the
//! `O(J K R²)` MTTKRP with `O(J K R)` intermediates.

use crate::common::{identity_qs, init_factors, scale_columns, true_error_sq, update_q};
use dpar2_core::{
    FitObserver, FitOptions, FitSession, NoopObserver, Parafac2Fit, Parafac2Solver, Result,
    TimingBreakdown,
};
use dpar2_linalg::{pinv, product, Mat, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::{mttkrp, normalize_columns, Dense3, IrregularTensor};
use std::time::Instant;

/// The classic PARAFAC2-ALS solver — a stateless [`Parafac2Solver`] handle;
/// all per-fit settings travel in [`FitOptions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Parafac2Als;

impl Parafac2Als {
    /// Fits the PARAFAC2 model by direct ALS (Algorithm 2).
    ///
    /// # Errors
    /// [`dpar2_core::Dpar2Error::RankTooLarge`] / `ZeroRank` on invalid
    /// rank; `WarmStart` on mismatched warm-start factors.
    pub fn fit(&self, tensor: &IrregularTensor, options: &FitOptions<'_>) -> Result<Parafac2Fit> {
        self.fit_observed(tensor, options, &mut NoopObserver)
    }

    /// [`Parafac2Als::fit`] with a [`FitObserver`] session.
    ///
    /// # Errors
    /// See [`Parafac2Als::fit`].
    pub fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        let t0 = Instant::now();
        let r = options.rank;
        dpar2_core::validate(tensor, r)?;
        let k_dim = tensor.k();
        // Pool for the per-iteration convergence check (the reconstruction
        // error costs as much as a compression pass). The ALS updates
        // themselves stay deliberately serial — they are the textbook
        // formulation DPar2 is compared against — but the *stopping rule*
        // shares the kernel-layer speedup so cross-method timings compare
        // algorithms, not thread budgets. `true_error_sq` is
        // bit-identical for every pool size.
        let pool = ThreadPool::new(options.threads.max(1));

        // Line 1 — initialization (or the caller's warm start).
        let (mut h, mut v, mut w) = init_factors(tensor, options)?;
        let mut qs: Vec<Mat> = Vec::with_capacity(k_dim);

        // Data norm for the absolute branch of the shared stopping rule.
        let x_norm_sq = tensor.fro_norm_sq();

        let mut session = FitSession::new(options, observer);
        for _iter in 0..options.max_iterations {
            session.start_iteration();

            // Lines 3–6: Q_k ← polar factor of X_k V S_k Hᵀ.
            qs.clear();
            for k in 0..k_dim {
                let mut vs = v.clone();
                scale_columns(&mut vs, w.row(k));
                // X_k · (V S_k Hᵀ) — build the J×R operand first.
                let vsh = product(Trans::N, Trans::T, &vs, &h);
                let target = product(Trans::N, Trans::N, tensor.slice(k), &vsh);
                qs.push(update_q(&target, r));
            }

            // Lines 7–10: materialize Y with frontal slices Q_kᵀ X_k.
            let yks: Vec<Mat> =
                (0..k_dim).map(|k| product(Trans::T, Trans::N, &qs[k], tensor.slice(k))).collect();
            let y = Dense3::from_frontal_slices(yks);

            // Lines 11–16: one naive CP-ALS iteration on Y.
            let g1 = mttkrp(&y, &h, &v, &w, 1);
            h = product(Trans::N, Trans::N, &g1, pinv(gram_hadamard(&w, &v)));
            let (hn, _) = normalize_columns(&h);
            h = hn;

            let g2 = mttkrp(&y, &h, &v, &w, 2);
            v = product(Trans::N, Trans::N, &g2, pinv(gram_hadamard(&w, &h)));
            let (vn, _) = normalize_columns(&v);
            v = vn;

            let g3 = mttkrp(&y, &h, &v, &w, 3);
            w = product(Trans::N, Trans::N, &g3, pinv(gram_hadamard(&v, &h)));

            // Line 17: true reconstruction error, then the session's shared
            // stopping rule (convergence / observer / time budget /
            // iteration budget).
            let err = true_error_sq(tensor, &qs, &h, &w, &v, &pool);
            if session.finish_iteration(err, x_norm_sq) {
                break;
            }
        }
        let outcome = session.finish();
        if qs.is_empty() {
            // Zero-iteration budget: identity-embedded Q_k keep the model
            // well-formed (see `common::identity_qs`).
            qs = identity_qs(tensor, r);
        }

        // Lines 18–20: U_k = Q_k H.
        let u: Vec<Mat> = qs.iter().map(|q| product(Trans::N, Trans::N, q, &h)).collect();
        let s: Vec<Vec<f64>> = (0..k_dim).map(|k| w.row(k).to_vec()).collect();

        Ok(Parafac2Fit {
            u,
            s,
            v,
            h,
            iterations: outcome.iterations(),
            stop_reason: outcome.stop_reason,
            timing: TimingBreakdown {
                preprocess_secs: 0.0,
                iterations_secs: outcome.iterations_secs(),
                per_iteration_secs: outcome.per_iteration_secs,
                total_secs: t0.elapsed().as_secs_f64(),
            },
            criterion_trace: outcome.criterion_trace,
        })
    }
}

impl Parafac2Solver for Parafac2Als {
    fn name(&self) -> &'static str {
        "PARAFAC2-ALS"
    }

    fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        Parafac2Als::fit_observed(self, tensor, options, observer)
    }
}

/// `XᵀX ∗ YᵀY`, the matrix a CP-ALS factor update inverts (Algorithm 2,
/// lines 11–16).
fn gram_hadamard(x: &Mat, y: &Mat) -> Mat {
    let mut g = product(Trans::T, Trans::N, x, x);
    g.hadamard_assign(product(Trans::T, Trans::N, y, y));
    g
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dpar2_linalg::qr;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub(crate) fn planted(
        row_dims: &[usize],
        j: usize,
        r: usize,
        noise: f64,
        seed: u64,
    ) -> IrregularTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let slices = row_dims
            .iter()
            .map(|&ik| {
                let q = qr::qr(gaussian_mat(ik, r, &mut rng)).q;
                let sk: Vec<f64> =
                    (0..r).map(|i| 1.0 + 0.3 * i as f64 + rng.random::<f64>()).collect();
                let mut qh = product(Trans::N, Trans::N, &q, &h);
                scale_columns(&mut qh, &sk);
                let mut x = product(Trans::N, Trans::T, &qh, &v);
                if noise > 0.0 {
                    let scale = noise * x.fro_norm() / ((ik * j) as f64).sqrt();
                    x.axpy(scale, &gaussian_mat(ik, j, &mut rng));
                }
                x
            })
            .collect();
        IrregularTensor::new(slices)
    }

    #[test]
    fn fits_planted_data() {
        let t = planted(&[20, 35, 15], 12, 3, 0.0, 601);
        let fit = Parafac2Als.fit(&t, &FitOptions::new(3)).unwrap();
        let f = fit.fitness(&t);
        assert!(f > 0.98, "PARAFAC2-ALS fitness {f}");
    }

    #[test]
    fn error_trace_nonincreasing() {
        let t = planted(&[25, 30, 20, 15], 10, 2, 0.3, 602);
        let fit = Parafac2Als
            .fit(&t, &FitOptions::new(2).with_tolerance(0.0).with_max_iterations(15))
            .unwrap();
        for pair in fit.criterion_trace.windows(2) {
            assert!(
                pair[1] <= pair[0] * (1.0 + 1e-9),
                "ALS error increased: {:?}",
                fit.criterion_trace
            );
        }
    }

    #[test]
    fn uk_cross_products_invariant() {
        let t = planted(&[30, 22], 14, 3, 0.05, 603);
        let fit = Parafac2Als.fit(&t, &FitOptions::new(3)).unwrap();
        let hth = product(Trans::T, Trans::N, &fit.h, &fit.h);
        for k in 0..2 {
            let utu = product(Trans::T, Trans::N, &fit.u[k], &fit.u[k]);
            assert!((&utu - &hth).fro_norm() < 1e-8 * (1.0 + hth.fro_norm()));
        }
    }

    #[test]
    fn rejects_invalid_rank() {
        let t = planted(&[5, 30], 14, 2, 0.0, 604);
        assert!(Parafac2Als.fit(&t, &FitOptions::new(9)).is_err());
    }

    #[test]
    fn respects_iteration_budget() {
        let t = planted(&[15, 15], 8, 2, 0.5, 605);
        let fit = Parafac2Als
            .fit(&t, &FitOptions::new(2).with_max_iterations(4).with_tolerance(0.0))
            .unwrap();
        assert_eq!(fit.iterations, 4);
    }
}
