//! The compressed convergence criterion (§III-E, "Convergence Criterion").
//!
//! Measuring the true reconstruction error `Σ_k ‖X_k − X̂_k‖²_F` costs
//! `O(Σ_k I_k J R)` time per iteration — as much as the whole preprocessing.
//! The paper's trick: because the update process minimizes the distance to
//! the *compressed* slices, and `Q_k` has orthonormal columns, the residual
//!
//! ```text
//! Σ_k ‖P_k Z_kᵀ F(k) E Dᵀ − H S_k Vᵀ‖²_F
//!   = Σ_k ‖A_k F(k) E Dᵀ − Q_k H S_k Vᵀ‖²_F
//! ```
//!
//! involves only `R×J` matrices. (Unitary invariance of the Frobenius norm
//! plus `P_kᵀP_k = I`, `Z_k Z_kᵀ = I` gives the equality; see the
//! derivation in §III-E.) Expanding the square removes `J` altogether:
//!
//! ```text
//! Σ_k ‖Y_k − H S_k Vᵀ‖²_F = Σ_k ‖F(k) E Dᵀ‖²_F − 2⟨W, G⁽³⁾⟩ + Σ_k w_kᵀ (VᵀV ∗ HᵀH) w_k
//! ```
//!
//! with `Y_k = P_k Z_kᵀ F(k) E Dᵀ` and `w_k = W(k,:)`. The first term is
//! the compressed data norm, fixed for the whole fit because `P_k Z_kᵀ` is
//! orthogonal; `tr(Y_kᵀ H S_k Vᵀ) = Σ_r W(k,r)·H(:,r)ᵀ Y_k V(:,r)` is the
//! Lemma-3 product `G⁽³⁾(k,r)` weighted by `W`; and
//! `‖H S_k Vᵀ‖² = w_kᵀ(VᵀV ∗ HᵀH)w_k`. The `W` update has both `G⁽³⁾` and
//! `VᵀV ∗ HᵀH` at hand, so [`criterion_from_byproducts`] costs `O(K R²)`
//! time and no scratch. The price is cancellation: the error is a few ulps
//! of the largest terms of the sums, not of the residual. Those terms are
//! of the size of the data norm, or of `|W|²` when the ALS swamp drives
//! `W`'s entries large with cancelling signs. Against the reference
//! [`compressed_criterion_ws`], which evaluates the residual slice by slice
//! in `O(J K R²)` time, the benchmark fits (seeds 1–10, 32 iterations,
//! x86-64) differ by at most 1e-11 relative on tall-slices; on
//! many-slices by at most 2e-10 on eight seeds, 9e-9 on one, and 3e-6 on
//! one swamp iteration of the last. That is far below the stopping
//! tolerance: every one of those fits stops on the same iteration with
//! bit-identical factors.

use crate::session::Workspace;
use dpar2_linalg::{gemm, Mat, Trans};
use dpar2_parallel::{slots, ThreadPool};

/// One slice's compressed residual `‖PZF_k·EDᵀ − H S_k Vᵀ‖²_F`, computed
/// into caller-owned scratch buffers.
#[allow(clippy::too_many_arguments)]
fn slice_residual_sq(
    pzf_k: &Mat,
    edt: &Mat,
    h: &Mat,
    wrow: &[f64],
    v: &Mat,
    yk: &mut Mat,
    hs: &mut Mat,
    model: &mut Mat,
) -> f64 {
    // ŷ_k = PZF_k · E Dᵀ  (R×J)
    gemm(Trans::N, Trans::N, pzf_k, edt, yk, &ThreadPool::new(1));
    // H S_k: scale column c of H by W(k, c).
    hs.copy_from(h);
    for i in 0..hs.rows() {
        let row = hs.row_mut(i);
        for (c, &wv) in wrow.iter().enumerate() {
            row[c] *= wv;
        }
    }
    // model_k = H S_k Vᵀ (R×J), then the fused difference-norm
    // (`MatRef::diff_norm_sq` carries the bit-identity ordering guarantee).
    gemm(Trans::N, Trans::T, &*hs, v, model, &ThreadPool::new(1));
    yk.view().diff_norm_sq(&*model)
}

/// Evaluates the compressed residual
/// `Σ_k ‖PZF_k · E Dᵀ − H · diag(W(k,:)) · Vᵀ‖²_F` against a caller-owned
/// [`Workspace`].
///
/// * `pzf[k] = P_k Z_kᵀ F(k) ∈ R^{R×R}`
/// * `edt = E Dᵀ ∈ R^{R×J}`
/// * `h ∈ R^{R×R}`, `w ∈ R^{K×R}` (row `k` is `diag(S_k)`), `v ∈ R^{J×R}`
///
/// One body, whatever the pool: each slice's residual goes into the
/// arena's per-slice slots, computed on the owning worker's arena (a
/// one-thread pool runs inline, allocation-free), and the slots are summed
/// in ascending `k`, so the result is bit-identical for every thread count.
pub fn compressed_criterion_ws(
    pzf: &[Mat],
    edt: &Mat,
    h: &Mat,
    w: &Mat,
    v: &Mat,
    pool: &ThreadPool,
    ws: &mut Workspace,
) -> f64 {
    let Workspace { slice_vals, workers, .. } = ws;
    let residuals = slots(slice_vals, pzf.len());
    let scratch = slots(workers, pool.threads());
    pool.for_each_with(residuals.iter_mut(), scratch, |k, residual, worker| {
        let Workspace { crit_pred, crit_hs, crit_model, .. } = worker;
        *residual = slice_residual_sq(&pzf[k], edt, h, w.row(k), v, crit_pred, crit_hs, crit_model);
    });
    residuals.iter().fold(0.0, |total, r| total + r)
}

/// The compressed criterion from the by-products of the `W` update, in
/// `O(K R²)` time: `data_norm_sq − 2⟨W, G⁽³⁾⟩ + Σ_k w_kᵀ · gram · w_k`
/// (see the module docs).
///
/// * `data_norm_sq = Σ_k ‖F(k)·E Dᵀ‖²_F`, the compressed data norm
/// * `w ∈ R^{K×R}` (row `k` is `diag(S_k)`)
/// * `g3 = G⁽³⁾ ∈ R^{K×R}`, the Lemma-3 product for the current `H`, `V`
/// * `gram = VᵀV ∗ HᵀH ∈ R^{R×R}`
///
/// Serial and allocation-free, so the value cannot depend on a thread
/// count. It is not clamped at zero: cancellation may leave it slightly
/// below zero, which [`converged`] reads as converged, while a NaN must
/// stay NaN so the fit reports it as diverged.
pub fn criterion_from_byproducts(data_norm_sq: f64, w: &Mat, g3: &Mat, gram: &Mat) -> f64 {
    let (mut inner, mut quad) = (0.0, 0.0);
    for k in 0..w.rows() {
        let wk = w.row(k);
        for (r, (&wr, &gr)) in wk.iter().zip(g3.row(k)).enumerate() {
            inner += wr * gr;
            let gram_wk: f64 = gram.row(r).iter().zip(wk).map(|(&m, &ws)| m * ws).sum();
            quad += wr * gram_wk;
        }
    }
    data_norm_sq - 2.0 * inner + quad
}

/// The naive equivalent on explicit matrices — `Σ_k ‖Y_k − H S_k Vᵀ‖²_F`
/// with caller-materialized `Y_k`. Used as a test oracle and by the
/// RD-ALS-style baselines that keep explicit reduced slices.
pub fn explicit_criterion(y: &[Mat], h: &Mat, w: &Mat, v: &Mat) -> f64 {
    let r = h.rows();
    let mut total = 0.0;
    let mut hs = Mat::default();
    let mut model = Mat::default();
    for (k, yk) in y.iter().enumerate() {
        hs.copy_from(h);
        let wrow = w.row(k);
        for i in 0..r {
            let row = hs.row_mut(i);
            for (c, &wv) in wrow.iter().enumerate() {
                row[c] *= wv;
            }
        }
        gemm(Trans::N, Trans::T, &hs, v, &mut model, &ThreadPool::new(1));
        total += (yk - &model).fro_norm_sq();
    }
    total
}

/// Shared stopping rule for every ALS-family solver: stop when the squared
/// criterion `err` ceases to decrease relative to `prev` by more than `tol`,
/// or when it is already negligible against the data norm (`err ≤ tol·‖X‖²`,
/// i.e. fitness ≥ 1 − tol under this repo's `1 − residual²/‖X‖²` fitness
/// convention). Without the absolute test, ALS "swamps" that keep shaving
/// ~1% per iteration off an already-converged solution never terminate.
///
/// DPar2 applies this to the compressed criterion and the baselines to the
/// true reconstruction error (via [`crate::FitSession`]), so cross-method
/// timing comparisons measure algorithmic cost rather than differing
/// stopping rules.
pub fn converged(prev: Option<f64>, err: f64, data_norm_sq: f64, tol: f64) -> bool {
    err <= tol * data_norm_sq || prev.is_some_and(|p| (p - err) / p.max(1e-300) < tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::product;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converged_rule() {
        // Absolute branch: residual negligible against the data norm.
        assert!(converged(None, 1e-9, 1.0, 1e-4));
        // Relative branch: stalls by less than tol (absolute branch does
        // not fire: 9.9999 > 1e-4 · 1e4).
        assert!(converged(Some(10.0), 9.9999, 1.0e4, 1e-4));
        // Still making progress: keep going.
        assert!(!converged(Some(10.0), 8.0, 1.0e4, 1e-4));
        // First iteration with a non-negligible residual: keep going.
        assert!(!converged(None, 5.0, 1.0e4, 1e-4));
        // Zero tolerance only stops on an exactly-zero residual.
        assert!(!converged(Some(10.0), 9.9999, 1.0e4, 0.0));
        assert!(converged(None, 0.0, 1.0e4, 0.0));
    }

    #[test]
    fn matches_explicit_materialization() {
        let mut rng = StdRng::seed_from_u64(201);
        let (k, j, r) = (5, 9, 3);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let edt = gaussian_mat(r, j, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let pool = ThreadPool::new(1);
        let fast = compressed_criterion_ws(&pzf, &edt, &h, &w, &v, &pool, &mut Workspace::new());
        let y: Vec<Mat> = pzf.iter().map(|p| product(Trans::N, Trans::N, p, &edt)).collect();
        let slow = explicit_criterion(&y, &h, &w, &v);
        assert!((fast - slow).abs() < 1e-9 * (1.0 + slow));
    }

    #[test]
    fn zero_when_model_exact() {
        // Construct PZF_k·EDᵀ = H S_k Vᵀ exactly, criterion must be 0.
        let mut rng = StdRng::seed_from_u64(202);
        let (j, r) = (8, 3);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        // Choose edt = Vᵀ and PZF_k = H·S_k, then PZF_k·EDᵀ = H S_k Vᵀ.
        let edt = v.transpose();
        let w = Mat::from_rows(&[&[1.0, 2.0, 0.5], &[0.3, 1.5, 2.2]]);
        let pzf: Vec<Mat> = (0..2)
            .map(|k| {
                let mut hs = h.clone();
                for i in 0..r {
                    let row = hs.row_mut(i);
                    for (c, &wv) in w.row(k).iter().enumerate() {
                        row[c] *= wv;
                    }
                }
                hs
            })
            .collect();
        let crit = compressed_criterion_ws(
            &pzf,
            &edt,
            &h,
            &w,
            &v,
            &ThreadPool::new(2),
            &mut Workspace::new(),
        );
        assert!(crit < 1e-18, "criterion should vanish, got {crit}");
    }

    #[test]
    fn deterministic_across_threads() {
        // K = 17 gives the threads unequal shares of slices; K = 1 and
        // K = 3 leave threads without a slice; K = 16 and 32 split evenly.
        for k in [17, 1, 3, 16, 32] {
            let mut rng = StdRng::seed_from_u64(203);
            let (j, r) = (6, 4);
            let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
            let edt = gaussian_mat(r, j, &mut rng);
            let h = gaussian_mat(r, r, &mut rng);
            let w = gaussian_mat(k, r, &mut rng);
            let v = gaussian_mat(j, r, &mut rng);
            let criterion = |threads| {
                compressed_criterion_ws(
                    &pzf,
                    &edt,
                    &h,
                    &w,
                    &v,
                    &ThreadPool::new(threads),
                    &mut Workspace::new(),
                )
            };
            let c1 = criterion(1);
            for threads in [2, 3, 8] {
                let c = criterion(threads);
                assert!((c1 - c).abs() < 1e-9 * (1.0 + c1));
                assert_eq!(
                    c1.to_bits(),
                    c.to_bits(),
                    "criterion depends on the thread count (K = {k}, {threads} threads)"
                );
            }
        }
    }

    #[test]
    fn nonnegative() {
        let mut rng = StdRng::seed_from_u64(204);
        let pzf = vec![gaussian_mat(2, 2, &mut rng)];
        let edt = gaussian_mat(2, 5, &mut rng);
        let h = gaussian_mat(2, 2, &mut rng);
        let w = gaussian_mat(1, 2, &mut rng);
        let v = gaussian_mat(5, 2, &mut rng);
        assert!(
            compressed_criterion_ws(
                &pzf,
                &edt,
                &h,
                &w,
                &v,
                &ThreadPool::new(1),
                &mut Workspace::new()
            ) >= 0.0
        );
    }
}
