//! The PARAFAC2 model container and the paper's fitness metric (§IV-A).

use crate::session::{FitPhase, PhaseSpans, StopReason};
use dpar2_linalg::{gemm, Mat, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::IrregularTensor;

/// Wall-clock breakdown of a decomposition run, in the categories the
/// paper's evaluation reports (Fig. 9: preprocessing time and per-iteration
/// time; Fig. 1/11: total time).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingBreakdown {
    /// Seconds spent in preprocessing (DPar2: two-stage compression;
    /// RD-ALS: concatenated SVD; others: 0).
    pub preprocess_secs: f64,
    /// Seconds spent across all ALS iterations.
    pub iterations_secs: f64,
    /// Per-iteration wall-clock seconds.
    pub per_iteration_secs: Vec<f64>,
    /// Total seconds (preprocessing + iterations + factor recovery).
    pub total_secs: f64,
}

impl TimingBreakdown {
    /// Builds the breakdown as a view over a session's recorded
    /// [`PhaseSpans`]: `preprocess_secs` is the [`FitPhase::Compress`]
    /// span, `iterations_secs` the sum of the per-iteration wall-clocks.
    /// `total_secs` stays an explicit wall-clock measurement (it also
    /// covers setup that no span names).
    pub fn from_spans(
        phases: &PhaseSpans,
        per_iteration_secs: Vec<f64>,
        total_secs: f64,
    ) -> TimingBreakdown {
        TimingBreakdown {
            preprocess_secs: phases.get(FitPhase::Compress),
            iterations_secs: per_iteration_secs.iter().sum(),
            per_iteration_secs,
            total_secs,
        }
    }

    /// Mean seconds per iteration (0 if no iterations ran).
    pub fn mean_iteration_secs(&self) -> f64 {
        if self.per_iteration_secs.is_empty() {
            0.0
        } else {
            self.iterations_secs / self.per_iteration_secs.len() as f64
        }
    }
}

/// A fitted PARAFAC2 model `X_k ≈ U_k S_k Vᵀ` plus solver diagnostics.
///
/// Produced by [`crate::Dpar2`] and by every baseline solver in
/// `dpar2-baselines`, so harness code can treat all methods uniformly.
///
/// `PartialEq` compares every field with `f64` equality (so `NaN != NaN`
/// and `-0.0 == 0.0`, as usual for floats). The `dpar2-serve` persistence
/// layer preserves the underlying bits exactly, hence
/// `load(save(fit)) == fit` for any NaN-free fit — which every solver in
/// this workspace produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Parafac2Fit {
    /// Per-slice factor `U_k ∈ R^{I_k×R}` (`U_k = Q_k H`).
    pub u: Vec<Mat>,
    /// Per-slice diagonal weights `diag(S_k)`, each of length `R`.
    pub s: Vec<Vec<f64>>,
    /// Shared right factor `V ∈ R^{J×R}`.
    pub v: Mat,
    /// Shared `H ∈ R^{R×R}` (`U_k = Q_k H`); stored for analyses that need
    /// the `Q_k` (e.g. reconstructing orthonormal bases).
    pub h: Mat,
    /// Number of ALS iterations executed.
    pub iterations: usize,
    /// Convergence-criterion value after each iteration (whatever criterion
    /// the producing solver uses; DPar2: compressed residual).
    pub criterion_trace: Vec<f64>,
    /// Why the iteration loop ended (typed — convergence, iteration budget,
    /// observer cancellation, or wall-clock budget).
    pub stop_reason: StopReason,
    /// Wall-clock breakdown.
    pub timing: TimingBreakdown,
}

impl Parafac2Fit {
    /// Target rank `R`.
    pub fn rank(&self) -> usize {
        self.v.cols()
    }

    /// Number of slices `K`.
    pub fn k(&self) -> usize {
        self.u.len()
    }

    /// Reconstructs slice `k` as `U_k S_k Vᵀ`.
    pub fn reconstruct_slice(&self, k: usize) -> Mat {
        let mut out = Mat::default();
        self.reconstruct_slice_into(k, &mut Mat::default(), &mut out);
        out
    }

    /// [`Parafac2Fit::reconstruct_slice`] into caller-owned buffers:
    /// `scaled` receives `U_k S_k`, `out` the reconstruction — zero
    /// allocations once both have capacity (the fitness loop reuses one
    /// pair across all slices).
    pub fn reconstruct_slice_into(&self, k: usize, scaled: &mut Mat, out: &mut Mat) {
        scaled.copy_from(&self.u[k]);
        for i in 0..scaled.rows() {
            let row = scaled.row_mut(i);
            for (c, &sv) in self.s[k].iter().enumerate() {
                row[c] *= sv;
            }
        }
        gemm(Trans::N, Trans::T, &*scaled, &self.v, out, &ThreadPool::new(1));
    }

    /// The paper's fitness metric (§IV-A):
    ///
    /// ```text
    /// fitness = 1 − Σ_k ‖X_k − X̂_k‖²_F / Σ_k ‖X_k‖²_F
    /// ```
    ///
    /// 1.0 means perfect reconstruction.
    pub fn fitness(&self, tensor: &IrregularTensor) -> f64 {
        fitness(tensor, self)
    }

    /// Sum of squared reconstruction errors `Σ_k ‖X_k − X̂_k‖²_F`. Runs on
    /// two reused scratch buffers (one `U_k S_k`, one reconstruction) and
    /// zero-copy tensor slice views, so no factor matrix is cloned.
    pub fn reconstruction_error_sq(&self, tensor: &IrregularTensor) -> f64 {
        assert_eq!(tensor.k(), self.k(), "fit and tensor have different K");
        let mut scaled = Mat::default();
        let mut model = Mat::default();
        let mut total = 0.0;
        for k in 0..tensor.k() {
            self.reconstruct_slice_into(k, &mut scaled, &mut model);
            total += tensor.slice(k).diff_norm_sq(&model);
        }
        total
    }
}

/// Standalone fitness evaluation (see [`Parafac2Fit::fitness`]).
pub fn fitness(tensor: &IrregularTensor, fit: &Parafac2Fit) -> f64 {
    1.0 - fit.reconstruction_error_sq(tensor) / tensor.fro_norm_sq()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_linalg::{product, qr};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds an exact PARAFAC2 model and its tensor: fitness must be 1.
    fn exact_model(seed: u64) -> (IrregularTensor, Parafac2Fit) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = 3;
        let j = 10;
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let row_dims = [12usize, 20, 8];
        let mut u = Vec::new();
        let mut s = Vec::new();
        let mut slices = Vec::new();
        for &ik in &row_dims {
            let q = qr::qr(gaussian_mat(ik, r, &mut rng)).q;
            let uk = product(Trans::N, Trans::N, &q, &h);
            let sk: Vec<f64> = (0..r).map(|i| 1.0 + i as f64 * 0.5).collect();
            let mut us = uk.clone();
            for i in 0..ik {
                let row = us.row_mut(i);
                for (c, &sv) in sk.iter().enumerate() {
                    row[c] *= sv;
                }
            }
            slices.push(product(Trans::N, Trans::T, &us, &v));
            u.push(uk);
            s.push(sk);
        }
        let fit = Parafac2Fit {
            u,
            s,
            v,
            h,
            iterations: 0,
            criterion_trace: vec![],
            stop_reason: StopReason::Converged,
            timing: TimingBreakdown::default(),
        };
        (IrregularTensor::new(slices), fit)
    }

    #[test]
    fn fitness_of_exact_model_is_one() {
        let (t, fit) = exact_model(301);
        let f = fit.fitness(&t);
        assert!((f - 1.0).abs() < 1e-10, "fitness {f}");
    }

    #[test]
    fn fitness_decreases_with_perturbation() {
        let (t, mut fit) = exact_model(302);
        let base = fit.fitness(&t);
        // Perturb V.
        let mut rng = StdRng::seed_from_u64(303);
        fit.v.axpy(0.1, &gaussian_mat(fit.v.rows(), fit.v.cols(), &mut rng));
        let perturbed = fit.fitness(&t);
        assert!(perturbed < base, "perturbation should reduce fitness ({perturbed} vs {base})");
    }

    #[test]
    fn reconstruct_slice_shape() {
        let (t, fit) = exact_model(304);
        for k in 0..t.k() {
            assert_eq!(fit.reconstruct_slice(k).shape(), (t.i(k), t.j()));
        }
    }

    #[test]
    fn timing_mean() {
        let t = TimingBreakdown {
            preprocess_secs: 1.0,
            iterations_secs: 3.0,
            per_iteration_secs: vec![1.0, 1.0, 1.0],
            total_secs: 4.0,
        };
        assert!((t.mean_iteration_secs() - 1.0).abs() < 1e-12);
        assert_eq!(TimingBreakdown::default().mean_iteration_secs(), 0.0);
    }

    #[test]
    fn rank_and_k_accessors() {
        let (t, fit) = exact_model(305);
        assert_eq!(fit.rank(), 3);
        assert_eq!(fit.k(), t.k());
    }
}
