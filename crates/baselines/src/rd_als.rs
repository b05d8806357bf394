//! RD-ALS — Cheng & Haardt, *"Efficient computation of the PARAFAC2
//! decomposition"*, Asilomar 2019 (reference 18 of the paper).
//!
//! RD-ALS ("Rank-reduction + Direct-fitting ALS") preprocesses the tensor
//! once: a rank-`R` truncated SVD of the column-wise concatenation
//!
//! ```text
//! [X_1ᵀ ∥ X_2ᵀ ∥ … ∥ X_Kᵀ] ∈ R^{J×(Σ_k I_k)} ≈ V_c Σ W ᵀ
//! ```
//!
//! yields a shared column basis `V_c ∈ R^{J×R}`; each slice is projected to
//! `X̃_k = X_k V_c ∈ R^{I_k×R}` and PARAFAC2-ALS runs on the *reduced*
//! slices (`J → R` columns). The full `V` is recovered as `V_c Ṽ`.
//!
//! Two properties the DPar2 paper calls out — and that this implementation
//! reproduces — limit RD-ALS:
//!
//! 1. the preprocessing SVD touches a `J × Σ I_k` matrix, costing
//!    `O(Σ_k I_k J²)`-ish work versus DPar2's `O(Σ_k I_k J R)`
//!    (Fig. 9(a): up to 10× slower preprocessing);
//! 2. convergence is checked on the **true** reconstruction error
//!    `Σ_k ‖X_k − Q_k H S_k Vᵀ‖²_F` against the raw slices every iteration
//!    (Fig. 9(b): up to 10.3× slower iterations than DPar2's compressed
//!    criterion).

use crate::common::{identity_qs, init_factors, scale_columns, true_error_sq_ws, update_q_into};
use dpar2_core::{
    FitObserver, FitOptions, FitPhase, FitSession, NoopObserver, Parafac2Fit, Parafac2Solver,
    Result, TimingBreakdown,
};
use dpar2_linalg::{gemm, pinv_into, product, svd::svd_truncated, Mat, Trans};
use dpar2_parallel::{greedy_partition, ThreadPool};
use dpar2_tensor::{mttkrp_into, normalize_columns_mut, Dense3, IrregularTensor};
use std::time::Instant;

/// The RD-ALS solver — a stateless [`Parafac2Solver`] handle; all per-fit
/// settings travel in [`FitOptions`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RdAls;

impl RdAls {
    /// Preprocesses the tensor: truncated SVD of the slice concatenation,
    /// returning `(V_c, {X̃_k})`. Exposed for the Fig. 9(a)/Fig. 10
    /// harness, which times and sizes preprocessing separately.
    pub fn preprocess(&self, tensor: &IrregularTensor, rank: usize) -> (Mat, Vec<Mat>) {
        // [X_1ᵀ ∥ … ∥ X_Kᵀ] = (vstack_k X_k)ᵀ; the tensor's contiguous
        // backing buffer *is* that vertical stack, so `stacked()` feeds the
        // SVD a zero-copy view (it transposes internally) and V_c is read
        // off the right factor of the stacked form.
        let f = svd_truncated(tensor.stacked(), rank);
        let v_c = f.v; // J×R
        let reduced: Vec<Mat> =
            tensor.slice_views().map(|x| product(Trans::N, Trans::N, x, &v_c)).collect();
        (v_c, reduced)
    }

    /// Size in `f64`s of RD-ALS's preprocessed data (`V_c` + reduced
    /// slices) — the Fig. 10 metric.
    pub fn preprocessed_size_floats(tensor: &IrregularTensor, rank: usize) -> usize {
        tensor.j() * rank + tensor.total_rows() * rank
    }

    /// Fits the PARAFAC2 model: rank-reduction preprocessing + ALS on the
    /// reduced slices with true-error convergence checks.
    ///
    /// # Errors
    /// [`dpar2_core::Dpar2Error::RankTooLarge`] / `ZeroRank` on invalid
    /// rank; `WarmStart` on mismatched warm-start factors.
    pub fn fit(&self, tensor: &IrregularTensor, options: &FitOptions<'_>) -> Result<Parafac2Fit> {
        self.fit_observed(tensor, options, &mut NoopObserver)
    }

    /// [`RdAls::fit`] with a [`FitObserver`] session.
    ///
    /// # Errors
    /// See [`RdAls::fit`].
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
        // Pool for the per-iteration true-error convergence check against
        // the raw slices — RD-ALS's per-iteration bottleneck (Fig. 9(b)).
        // Shared with the other baselines so method-comparison timings stay
        // about algorithmic cost; bit-identical for every pool size.
        let pool = ThreadPool::new(options.threads.max(1));
        let serial = ThreadPool::new(1);

        // ---- Preprocessing ----
        let (v_c, reduced) = self.preprocess(tensor, r);
        let reduced_tensor = IrregularTensor::new(reduced);
        let preprocess_secs = t0.elapsed().as_secs_f64();

        // ---- ALS on reduced slices ----
        // Kiers init in the reduced space, or the caller's warm start
        // projected onto the reduced column basis (`Ṽ = V_cᵀ V`, exact when
        // the warm `V` lies in span(V_c) — V_c is orthonormal).
        let (mut h, mut v_t, mut w) = match options.warm_start {
            None => init_factors(&reduced_tensor, options)?,
            Some(_) => {
                // Validation lives in init_factors (against the FULL
                // tensor's J); only the V_c-projection is RD-ALS-specific:
                // Ṽ = V_cᵀ V, exact when V lies in span(V_c) (V_c is
                // orthonormal).
                let (h, v_full, w) = init_factors(tensor, options)?;
                (h, product(Trans::T, Trans::N, &v_c, &v_full), w)
            }
        };
        // Q_k buffers, updated in place every iteration (no per-iteration
        // Vec churn); `Y` is a persistent R×R×K tensor whose slices are
        // overwritten in place.
        let mut qs: Vec<Mat> = (0..k_dim).map(|_| Mat::default()).collect();
        let mut y = Dense3::zeros(r, r, k_dim);

        // Data norm for the absolute branch of the shared stopping rule,
        // and the loop-invariant slice partition for the pooled error check.
        let x_norm_sq = tensor.fro_norm_sq();
        let partition = greedy_partition(&tensor.row_dims(), pool.threads());

        // Persistent staging buffers (grown once, reused every iteration).
        let mut vs_buf = Mat::default();
        let mut vsh = Mat::default();
        let mut target = Mat::default();
        let mut g_out = Mat::default();
        let mut gram_a = Mat::default();
        let mut gram_b = Mat::default();
        let mut pinv_buf = Mat::default();
        // One staging buffer per factor (capacities differ, and the swap
        // idiom would otherwise re-grow a shared buffer every iteration).
        let mut next_h = Mat::default();
        let mut next_v = Mat::default();
        let mut next_w = Mat::default();
        let mut v_full = Mat::default();

        let mut session = FitSession::new(options, observer);
        session.phase(FitPhase::Compress, preprocess_secs);
        for _iter in 0..options.max_iterations {
            session.start_iteration();
            let ws = session.workspace();

            for k in 0..k_dim {
                vs_buf.copy_from(&v_t);
                scale_columns(&mut vs_buf, w.row(k));
                gemm(Trans::N, Trans::T, &vs_buf, &h, &mut vsh, &serial); // Ṽ S_k Hᵀ
                                                                          // X̃_k·ṼSHᵀ
                gemm(Trans::N, Trans::N, reduced_tensor.slice(k), &vsh, &mut target, &serial);
                update_q_into(
                    &target,
                    r,
                    &mut qs[k],
                    &mut ws.svd_out,
                    &mut ws.svd_tmp,
                    &mut ws.svd,
                );
            }

            for k in 0..k_dim {
                // Q_kᵀX̃_k
                gemm(Trans::T, Trans::N, &qs[k], reduced_tensor.slice(k), y.slice_mut(k), &serial);
            }

            mttkrp_into(&y, &h, &v_t, &w, 1, &mut g_out, &mut ws.mttkrp);
            gemm(Trans::T, Trans::N, &w, &w, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &v_t, &v_t, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // WᵀW∗ṼᵀṼ
            pinv_into(&gram_a, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_h, &serial); // H update
            std::mem::swap(&mut h, &mut next_h);
            normalize_columns_mut(&mut h, &mut ws.norms);

            mttkrp_into(&y, &h, &v_t, &w, 2, &mut g_out, &mut ws.mttkrp);
            gemm(Trans::T, Trans::N, &w, &w, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &h, &h, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // WᵀW∗HᵀH
            pinv_into(&gram_a, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_v, &serial); // Ṽ update
            std::mem::swap(&mut v_t, &mut next_v);
            normalize_columns_mut(&mut v_t, &mut ws.norms);

            mttkrp_into(&y, &h, &v_t, &w, 3, &mut g_out, &mut ws.mttkrp);
            gemm(Trans::T, Trans::N, &v_t, &v_t, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &h, &h, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // ṼᵀṼ∗HᵀH
            pinv_into(&gram_a, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_w, &serial); // W update
            std::mem::swap(&mut w, &mut next_w);

            // The expensive part the paper highlights: the *true*
            // reconstruction error against the ORIGINAL slices.
            gemm(Trans::N, Trans::N, &v_c, &v_t, &mut v_full, &serial);
            let err = true_error_sq_ws(tensor, &qs, &h, &w, &v_full, &pool, &partition, ws);
            if session.finish_iteration(err, x_norm_sq) {
                break;
            }
        }
        let outcome = session.finish();
        if outcome.iterations() == 0 {
            // Zero-iteration budget: identity-embedded Q_k keep the model
            // well-formed (see `common::identity_qs`).
            qs = identity_qs(tensor, r);
        }

        let v = product(Trans::N, Trans::N, &v_c, &v_t);
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
                preprocess_secs,
                iterations_secs: outcome.iterations_secs(),
                per_iteration_secs: outcome.per_iteration_secs,
                total_secs: t0.elapsed().as_secs_f64(),
            },
            criterion_trace: outcome.criterion_trace,
        })
    }
}

impl Parafac2Solver for RdAls {
    fn name(&self) -> &'static str {
        "RD-ALS"
    }

    fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        RdAls::fit_observed(self, tensor, options, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parafac2_als::tests::planted;
    use crate::parafac2_als::Parafac2Als;

    #[test]
    fn fits_planted_data() {
        let t = planted(&[20, 30, 25], 12, 3, 0.0, 801);
        let fit = RdAls.fit(&t, &FitOptions::new(3)).unwrap();
        let f = fit.fitness(&t);
        assert!(f > 0.98, "RD-ALS fitness {f}");
    }

    #[test]
    fn projection_basis_is_orthonormal() {
        let t = planted(&[15, 22], 10, 2, 0.1, 802);
        let (v_c, reduced) = RdAls.preprocess(&t, 2);
        assert_eq!(v_c.shape(), (10, 2));
        assert!((&product(Trans::T, Trans::N, &v_c, &v_c) - &Mat::eye(2)).fro_norm() < 1e-9);
        assert_eq!(reduced.len(), 2);
        assert_eq!(reduced[0].shape(), (15, 2));
    }

    #[test]
    fn preprocessing_captures_dominant_subspace() {
        // On noiseless planted data the projection loses nothing: fitness
        // of RD-ALS must match plain PARAFAC2-ALS closely.
        let t = planted(&[25, 35, 20], 14, 3, 0.0, 803);
        let cfg = FitOptions::new(3).with_max_iterations(20);
        let rd = RdAls.fit(&t, &cfg).unwrap();
        let als = Parafac2Als.fit(&t, &cfg).unwrap();
        let (fr, fa) = (rd.fitness(&t), als.fitness(&t));
        assert!((fr - fa).abs() < 0.02, "RD-ALS {fr} vs ALS {fa}");
    }

    #[test]
    fn error_trace_nonincreasing() {
        let t = planted(&[25, 18, 30], 10, 2, 0.2, 804);
        let fit =
            RdAls.fit(&t, &FitOptions::new(2).with_tolerance(0.0).with_max_iterations(12)).unwrap();
        for pair in fit.criterion_trace.windows(2) {
            // The reduced-space ALS minimizes a projected objective, so the
            // true error can wobble at rounding scale but not diverge.
            assert!(pair[1] <= pair[0] * 1.01, "RD-ALS error diverged: {:?}", fit.criterion_trace);
        }
    }

    #[test]
    fn timing_separates_preprocessing() {
        let t = planted(&[30, 30], 12, 2, 0.1, 805);
        let fit = RdAls.fit(&t, &FitOptions::new(2)).unwrap();
        assert!(fit.timing.preprocess_secs > 0.0);
        assert!(fit.timing.iterations_secs > 0.0);
    }

    #[test]
    fn preprocessed_size_formula() {
        let t = planted(&[10, 20], 8, 2, 0.0, 806);
        // V_c: 8×2 + reduced slices: (10+20)×2 = 16 + 60.
        assert_eq!(RdAls::preprocessed_size_floats(&t, 2), 76);
    }

    #[test]
    fn rejects_invalid_rank() {
        let t = planted(&[6, 30], 14, 2, 0.0, 807);
        assert!(RdAls.fit(&t, &FitOptions::new(7)).is_err());
    }
}
