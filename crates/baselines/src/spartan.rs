//! SPARTan (Perros et al., KDD 2017) on dense or CSR irregular tensors.
//!
//! SPARTan's contribution is a parallel, slice-wise MTTKRP scheduling for
//! the PARAFAC2 inner step that avoids materializing unfoldings and
//! Khatri-Rao products, exploiting slice sparsity. On CSR slices (its
//! native workload) every product touching the data (`X_k·VS_kHᵀ`,
//! `Q_kᵀX_k`, the Gram init, the error term, `‖X‖²_F`) runs over nonzeros
//! only, so per-iteration cost and peak memory scale with `nnz`, not
//! `Σ_k I_k·J`. The DPar2 paper adapts it to dense inputs as a competitor
//! ("Although it targets on sparse irregular tensors, it can be adapted to
//! irregular dense tensors", §IV-A); without sparsity its per-slice work is
//! identical to dense PARAFAC2-ALS, which is why Fig. 9(b) shows little
//! advantage — the behaviour the dense instantiation reproduces.
//!
//! Differences from [`crate::Parafac2Als`]:
//! * `Q_k` updates and `Y_k = Q_kᵀX_k` run in parallel over slices
//!   (greedy-partitioned by slice work, the same Algorithm-4 policy DPar2
//!   uses);
//! * the CP-ALS step accumulates per-slice MTTKRP contributions without
//!   materializing unfoldings.
//!
//! ## Determinism and dense parity
//!
//! The sparse kernels preserve the dense naive accumulation order exactly
//! (see [`dpar2_linalg::sparse`]), and the cross-slice MTTKRP / error sums
//! run serially in ascending `k` regardless of the pool size. Two
//! consequences, both pinned by tests:
//!
//! * a fit is **bit-identical for every thread count**, dense or CSR, and
//! * on tensors whose dense products all take the naive dispatch path
//!   (small `J` and `R` — see `dpar2_linalg::kernel`), a CSR fit is
//!   **bit-identical** to the fit of the densified tensor.
//!
//! ## Allocation discipline
//!
//! At one thread the steady-state iteration runs entirely on the
//! [`Workspace`] arena plus factor-sized scratch allocated before the
//! loop: kernels write through `resize_zeroed` (capacity-reusing), SVD/pinv
//! use the `_into` forms, and factor swaps are `mem::swap` — zero heap
//! allocations per iteration for either storage, enforced by
//! `tests/alloc_regression.rs`. Multi-thread fits allocate per-slice
//! temporaries inside the pool (the same convention as the other
//! baselines).

use crate::common::{identity_qs, init_factors, scale_columns, true_error_sq_ws, update_q_into};
use dpar2_core::{
    validate, FitObserver, FitOptions, FitSession, NoopObserver, Parafac2Fit, Parafac2Solver,
    ProductOp, Result, SliceTensor, TimingBreakdown, Workspace,
};
use dpar2_linalg::{gemm, pinv_into, product, Mat, Trans};
use dpar2_parallel::{greedy_partition, slots, ThreadPool};
use dpar2_tensor::{normalize_columns_mut, IrregularTensor};
use std::time::Instant;

/// SPARTan PARAFAC2 solver — a stateless [`Parafac2Solver`] handle; all
/// per-fit settings travel in [`FitOptions`]. The inherent
/// [`Spartan::fit`] takes dense or CSR tensors; the trait impl is its dense
/// instantiation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spartan;

impl Spartan {
    /// Fits the PARAFAC2 model with slice-parallel scheduling.
    ///
    /// # Errors
    /// The [`dpar2_core::validate`] contract (invalid rank, non-finite
    /// input); `WarmStart` on mismatched warm-start factors.
    pub fn fit<T: SliceTensor>(&self, tensor: &T, options: &FitOptions<'_>) -> Result<Parafac2Fit> {
        self.fit_observed(tensor, options, &mut NoopObserver)
    }

    /// [`Spartan::fit`] with a [`FitObserver`] session.
    ///
    /// # Errors
    /// See [`Spartan::fit`].
    pub fn fit_observed<T: SliceTensor>(
        &self,
        tensor: &T,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        let t0 = Instant::now();
        let (nnz, cells, sparse) = tensor.input_shape();
        observer.on_input_shape(nnz, cells, sparse);
        let r = options.rank;
        validate(tensor, r)?;
        let k_dim = tensor.k();
        let j_dim = tensor.j();
        let pool = ThreadPool::new(options.threads.max(1));
        let serial = ThreadPool::new(1);
        // Slice-level parallelism is the winning axis for SPARTan: per-slice
        // work is proportional to the slice's rows (dense) or nnz (CSR).
        let weights: Vec<usize> = (0..k_dim).map(|k| tensor.work(k)).collect();
        let partition = greedy_partition(&weights, pool.threads());

        let (mut h, mut v, mut w) = init_factors(tensor, options)?;
        // Data norm for the absolute branch of the shared stopping rule.
        let x_norm_sq = tensor.fro_norm_sq();

        // Everything the steady-state iteration touches is allocated here
        // once; the loop body reuses capacity via `resize_zeroed`/`copy_from`
        // and the `_into` kernel forms.
        let mut ws = Workspace::new();
        let mut qs: Vec<Mat> = tensor.dims().iter().map(|&ik| Mat::zeros(ik, r)).collect();
        let mut yks: Vec<Mat> = (0..k_dim).map(|_| Mat::zeros(r, j_dim)).collect();
        let mut g1 = Mat::zeros(r, r);
        let mut g2 = Mat::zeros(j_dim, r);
        let mut g3 = Mat::zeros(k_dim, r);
        let mut gram_a = Mat::zeros(r, r);
        let mut gram_b = Mat::zeros(r, r);
        let mut pinv_out = Mat::zeros(r, r);
        let mut new_h = Mat::zeros(r, r);
        let mut new_v = Mat::zeros(j_dim, r);
        let mut new_w = Mat::zeros(k_dim, r);
        let mut populated = false;

        let mut session = FitSession::new(options, observer);
        for _iter in 0..options.max_iterations {
            session.start_iteration();

            // Q_k update + Y_k = Q_kᵀX_k, slice-parallel: each bucket writes
            // its slices' `Q_k`/`Y_k` in place on its own arena. Per-slice
            // results are independent of the schedule.
            let scratch = slots(&mut ws.workers, partition.len());
            let slices = qs.iter_mut().zip(&mut yks);
            pool.for_each_partitioned(&partition, slices, scratch, |bucket, worker| {
                for (k, (q, yk)) in bucket {
                    update_slice(tensor.slice(k), &v, &h, w.row(k), q, yk, worker, &serial);
                }
            });
            populated = true;

            // Slice-wise MTTKRP accumulation, serially in ascending k for
            // every pool size. The per-slice products are tiny (R×R / J×R)
            // next to the Y_k step, so serializing them costs nothing and
            // buys thread-count determinism.
            g1.resize_zeroed(r, r);
            for k in 0..k_dim {
                gemm(Trans::N, Trans::N, &yks[k], &v, &mut ws.lemma_tmp, &serial); // Y_k·V, R×R
                accumulate_weighted(&mut g1, &ws.lemma_tmp, w.row(k));
            }
            gemm(Trans::T, Trans::N, &w, &w, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &v, &v, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // WᵀW ∗ VᵀV
            pinv_into(&gram_a, &mut pinv_out, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g1, &pinv_out, &mut new_h, &serial);
            normalize_columns_mut(&mut new_h, &mut ws.norms);
            std::mem::swap(&mut h, &mut new_h);

            g2.resize_zeroed(j_dim, r);
            for k in 0..k_dim {
                gemm(Trans::T, Trans::N, &yks[k], &h, &mut ws.lemma_tmp, &serial); // Y_kᵀ·H, J×R
                accumulate_weighted(&mut g2, &ws.lemma_tmp, w.row(k));
            }
            gemm(Trans::T, Trans::N, &w, &w, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &h, &h, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // WᵀW ∗ HᵀH
            pinv_into(&gram_a, &mut pinv_out, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g2, &pinv_out, &mut new_v, &serial);
            normalize_columns_mut(&mut new_v, &mut ws.norms);
            std::mem::swap(&mut v, &mut new_v);

            g3.resize_zeroed(k_dim, r);
            for k in 0..k_dim {
                gemm(Trans::N, Trans::N, &yks[k], &v, &mut ws.lemma_tmp, &serial); // Y_k·V, R×R
                let grow = g3.row_mut(k);
                for i in 0..h.rows() {
                    let hrow = h.row(i);
                    let trow = ws.lemma_tmp.row(i);
                    for (c, val) in grow.iter_mut().enumerate() {
                        *val += hrow[c] * trow[c];
                    }
                }
            }
            gemm(Trans::T, Trans::N, &v, &v, &mut gram_a, &serial);
            gemm(Trans::T, Trans::N, &h, &h, &mut gram_b, &serial);
            gram_a.hadamard_assign(&gram_b); // VᵀV ∗ HᵀH
            pinv_into(&gram_a, &mut pinv_out, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g3, &pinv_out, &mut new_w, &serial);
            std::mem::swap(&mut w, &mut new_w);

            let err = true_error_sq_ws(tensor, &qs, &h, &w, &v, &pool, &partition, &mut ws);
            if session.finish_iteration(err, x_norm_sq) {
                break;
            }
        }
        let outcome = session.finish();
        if !populated {
            // Zero-iteration budget: identity-embedded Q_k keep the model
            // well-formed (see `common::identity_qs`).
            qs = identity_qs(tensor, r);
        }

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

impl Parafac2Solver for Spartan {
    fn name(&self) -> &'static str {
        "SPARTan"
    }

    fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        Spartan::fit_observed(self, tensor, options, observer)
    }
}

/// One slice's step on caller scratch: `Q_k` from the Procrustes target
/// `X_k·V S_k Hᵀ`, then `Y_k = Q_kᵀ X_k`.
#[allow(clippy::too_many_arguments)]
fn update_slice(
    x: impl ProductOp,
    v: &Mat,
    h: &Mat,
    w_row: &[f64],
    q: &mut Mat,
    yk: &mut Mat,
    ws: &mut Workspace,
    serial: &ThreadPool,
) {
    ws.tall_a.copy_from(v);
    scale_columns(&mut ws.tall_a, w_row);
    gemm(Trans::N, Trans::T, &ws.tall_a, h, &mut ws.tall_b, serial); // V S_k Hᵀ
    x.mm_into(&ws.tall_b, &mut ws.slice_a, serial); // X_k·VS_kHᵀ
    let rank = h.rows();
    update_q_into(&ws.slice_a, rank, q, &mut ws.svd_out, &mut ws.svd_tmp, &mut ws.svd);
    x.proj_into(q, yk, serial); // Q_kᵀX_k
}

/// `acc += tmp · diag(w_row)`, the per-slice MTTKRP weighting.
fn accumulate_weighted(acc: &mut Mat, tmp: &Mat, w_row: &[f64]) {
    for i in 0..acc.rows() {
        let arow = acc.row_mut(i);
        let trow = tmp.row(i);
        for (c, &wv) in w_row.iter().enumerate() {
            arow[c] += trow[c] * wv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parafac2_als::tests::planted;
    use crate::parafac2_als::Parafac2Als;

    #[test]
    fn matches_parafac2_als_exactly() {
        // Same math, different scheduling: traces must agree to rounding.
        let t = planted(&[18, 25, 12], 10, 3, 0.2, 701);
        let cfg = FitOptions::new(3).with_max_iterations(6).with_tolerance(0.0);
        let als = Parafac2Als.fit(&t, &cfg).unwrap();
        let sp = Spartan.fit(&t, &cfg).unwrap();
        assert_eq!(als.iterations, sp.iterations);
        for (a, b) in als.criterion_trace.iter().zip(&sp.criterion_trace) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a), "traces diverge: {a} vs {b}");
        }
        assert!((&als.v - &sp.v).fro_norm() < 1e-6);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let t = planted(&[20, 35, 15, 27], 12, 2, 0.1, 702);
        let cfg1 = FitOptions::new(2).with_threads(1).with_max_iterations(5);
        let cfg4 = FitOptions::new(2).with_threads(4).with_max_iterations(5);
        let f1 = Spartan.fit(&t, &cfg1).unwrap();
        let f4 = Spartan.fit(&t, &cfg4).unwrap();
        assert!((&f1.v - &f4.v).fro_norm() < 1e-9);
        for k in 0..t.k() {
            assert!((&f1.u[k] - &f4.u[k]).fro_norm() < 1e-9);
        }
    }

    #[test]
    fn dense_fit_bit_identical_across_thread_counts() {
        // Dense slices share the CSR path's serial ascending-k sums, so the
        // thread count only schedules; every bit of the fit is fixed.
        let t = planted(&[40, 65, 28, 51, 33], 12, 3, 0.2, 705);
        let cfg = FitOptions::new(3).with_max_iterations(5).with_tolerance(0.0);
        let base = Spartan.fit(&t, &cfg.with_threads(1)).unwrap();
        for threads in [2, 4] {
            let f = Spartan.fit(&t, &cfg.with_threads(threads)).unwrap();
            assert_eq!(f.criterion_trace, base.criterion_trace, "{threads} threads: trace");
            assert_eq!(f.h, base.h, "{threads} threads: H");
            assert_eq!(f.v, base.v, "{threads} threads: V");
            assert_eq!(f.s, base.s, "{threads} threads: S");
            assert_eq!(f.u, base.u, "{threads} threads: U");
        }
    }

    #[test]
    fn fits_planted_data() {
        let t = planted(&[25, 30, 18], 14, 3, 0.05, 703);
        let fit = Spartan.fit(&t, &FitOptions::new(3)).unwrap();
        assert!(fit.fitness(&t) > 0.95, "fitness {}", fit.fitness(&t));
    }

    #[test]
    fn rejects_invalid_rank() {
        let t = planted(&[6, 30], 14, 2, 0.0, 704);
        assert!(Spartan.fit(&t, &FitOptions::new(7)).is_err());
    }
}
