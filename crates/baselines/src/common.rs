//! Shared machinery for the ALS-family baselines.
//!
//! All baselines are configured through the workspace-wide
//! [`dpar2_core::FitOptions`] (the former baseline-local `AlsConfig` is
//! gone) and drive their loops through [`dpar2_core::FitSession`].

use dpar2_core::error::{Dpar2Error, Result};
use dpar2_core::{FitOptions, Parafac2Fit, SliceTensor, Workspace};
use dpar2_linalg::svd::{svd_truncated, svd_truncated_into};
use dpar2_linalg::{gemm, product, Mat, SvdFactors, SvdScratch, Trans};
use dpar2_parallel::{greedy_partition, slots, ThreadPool};

/// Initial `Q_k` for every slice: the identity embedding (first `R`
/// columns of `I_{I_k}`), a valid orthonormal basis. The first ALS
/// iteration overwrites these; they exist so a zero-iteration budget
/// still produces a well-formed model with full factor shapes, keeping
/// every solver uniform under the `Parafac2Solver` contract.
pub fn identity_qs(tensor: &impl SliceTensor, rank: usize) -> Vec<Mat> {
    tensor
        .dims()
        .iter()
        .map(|&ik| Mat::from_fn(ik, rank, |i, j| if i == j { 1.0 } else { 0.0 }))
        .collect()
}

/// Kiers-style initialization of `V`: the leading `R` eigenvectors of
/// `Σ_k X_kᵀ X_k` (computed via the SVD of the PSD Gram sum).
///
/// All baselines start from this `V` with `H = I`, `S_k = I`, matching the
/// classic direct-fitting algorithm and making cross-method fitness
/// comparisons meaningful. The Gram sum accumulates in ascending `k`, and
/// dense and CSR slices sum each Gram in the same order, so a CSR tensor
/// gives bitwise the `V` of its densified tensor.
pub fn init_v(tensor: &impl SliceTensor, rank: usize) -> Mat {
    let j = tensor.j();
    let mut gram_sum = Mat::zeros(j, j);
    let mut g = Mat::zeros(j, j);
    for k in 0..tensor.k() {
        tensor.gram_into(k, &mut g);
        gram_sum += &g;
    }
    svd_truncated(&gram_sum, rank).u
}

/// Scales the columns of `m` by the entries of `weights` (i.e. `m · diag(w)`),
/// in place. The `X_k V S_k Hᵀ` and `H S_k Vᵀ` products all reduce to this.
pub fn scale_columns(m: &mut Mat, weights: &[f64]) {
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        for (c, &w) in weights.iter().enumerate() {
            row[c] *= w;
        }
    }
}

/// Updates `Q_k` from the target `T = X_k V S_k Hᵀ ∈ R^{I_k×R}`:
/// truncated SVD `Z' Σ' P'ᵀ ← T` at rank `R`, then `Q_k = Z' P'ᵀ`
/// (Algorithm 2, lines 4–5). This is the polar-factor solution of the
/// orthogonal Procrustes problem `min_Q ‖X_k − Q H S_k Vᵀ‖_F`.
pub fn update_q(target: &Mat, rank: usize) -> Mat {
    let f = svd_truncated(target, rank);
    product(Trans::N, Trans::T, &f.u, &f.v)
}

/// [`update_q`] into a caller-owned `Q_k` with reusable SVD scratch — the
/// allocation-free form the RD-ALS steady-state loop runs on.
/// Bit-identical to [`update_q`].
pub fn update_q_into(
    target: &Mat,
    rank: usize,
    q_out: &mut Mat,
    f: &mut SvdFactors,
    tmp: &mut SvdFactors,
    ws: &mut SvdScratch,
) {
    svd_truncated_into(target, rank, f, tmp, ws);
    gemm(Trans::N, Trans::T, &f.u, &f.v, q_out, &ThreadPool::new(1));
}

/// True squared reconstruction error `Σ_k ‖X_k − Q_k H S_k Vᵀ‖²_F` given
/// explicit `Q_k` — what PARAFAC2-ALS, SPARTan, and RD-ALS use for their
/// convergence checks (and what DPar2 avoids; §III-E).
///
/// The per-slice reconstructions fan out over `pool` (a one-thread pool is
/// the serial path). This is the dominant per-iteration cost of every
/// explicit-factor baseline (`O(Σ_k I_k J R)` — as expensive as a whole
/// compression pass), so sharing the parallel treatment keeps
/// method-comparison timings about algorithmic cost, not about which
/// solver got threads. Slices are assigned by the same greedy partition
/// (Algorithm 4) the compression stage uses; each lands in its own slot
/// and the slots are summed in ascending `k`, making the result
/// bit-identical for every pool size.
pub fn true_error_sq<T: SliceTensor>(
    tensor: &T,
    qs: &[Mat],
    h: &Mat,
    w: &Mat,
    v: &Mat,
    pool: &ThreadPool,
) -> f64 {
    let weights: Vec<usize> = (0..tensor.k()).map(|k| tensor.work(k)).collect();
    let partition = greedy_partition(&weights, pool.threads());
    true_error_sq_ws(tensor, qs, h, w, v, pool, &partition, &mut Workspace::new())
}

/// [`true_error_sq`] against a caller-owned slice partition and
/// [`Workspace`]. One body, whatever the pool: each slice's error goes into
/// the arena's per-slice slots, computed on its bucket's arena in
/// [`Workspace::workers`] (a one-thread pool runs inline, allocation-free),
/// and the slots are summed in ascending `k`. Bit-identical to
/// [`true_error_sq`] for every pool size.
#[allow(clippy::too_many_arguments)]
pub fn true_error_sq_ws<T: SliceTensor>(
    tensor: &T,
    qs: &[Mat],
    h: &Mat,
    w: &Mat,
    v: &Mat,
    pool: &ThreadPool,
    partition: &[Vec<usize>],
    ws: &mut Workspace,
) -> f64 {
    let Workspace { slice_vals, workers, .. } = ws;
    let errors = slots(slice_vals, qs.len());
    let scratch = slots(workers, partition.len());
    pool.for_each_partitioned(partition, errors.iter_mut(), scratch, |bucket, worker| {
        let Workspace { crit_hs, tall_a, tall_b, .. } = worker;
        for (k, error) in bucket {
            *error = slice_error_sq(tensor, qs, h, w, v, k, crit_hs, tall_a, tall_b);
        }
    });
    errors.iter().fold(0.0, |total, e| total + e)
}

/// `‖X_k − Q_k H S_k Vᵀ‖²_F` for one slice, computed on caller scratch.
#[allow(clippy::too_many_arguments)]
fn slice_error_sq<T: SliceTensor>(
    tensor: &T,
    qs: &[Mat],
    h: &Mat,
    w: &Mat,
    v: &Mat,
    k: usize,
    hs: &mut Mat,
    qhs: &mut Mat,
    model: &mut Mat,
) -> f64 {
    hs.copy_from(h);
    scale_columns(hs, w.row(k));
    gemm(Trans::N, Trans::N, &qs[k], &*hs, qhs, &ThreadPool::new(1)); // Q_k·HS
    tensor.residual_sq(k, qhs, v, model) // ‖X_k − Q_k·HS·Vᵀ‖²
}

/// Cold- or warm-start factors `(H, V, W)` for the explicit-factor
/// baselines: Kiers init (`H = I`, `V` = [`init_v`], `W = 1`) unless the
/// options carry a warm start, in which case the previous fit's `H`, `V`,
/// and slice weights seed the iteration (slices beyond the warm fit's
/// coverage start at unit weights — the streaming semantics).
///
/// # Errors
/// [`Dpar2Error::WarmStart`] when the warm factors do not match the
/// tensor's rank/shape.
pub fn init_factors(
    tensor: &impl SliceTensor,
    options: &FitOptions<'_>,
) -> Result<(Mat, Mat, Mat)> {
    let (r, j, k) = (options.rank, tensor.j(), tensor.k());
    match options.warm_start {
        None => Ok((Mat::eye(r), init_v(tensor, r), Mat::ones(k, r))),
        Some(fit) => {
            let w = warm_weights(fit, k, r)?;
            if fit.h.shape() != (r, r) {
                return Err(Dpar2Error::WarmStart {
                    factor: "H",
                    expected: (r, r),
                    got: fit.h.shape(),
                });
            }
            if fit.v.shape() != (j, r) {
                return Err(Dpar2Error::WarmStart {
                    factor: "V",
                    expected: (j, r),
                    got: fit.v.shape(),
                });
            }
            Ok((fit.h.clone(), fit.v.clone(), w))
        }
    }
}

/// Warm-start slice weights: rows of `W` from the previous fit's
/// `diag(S_k)`, extended with unit rows for slices the fit does not cover.
///
/// # Errors
/// [`Dpar2Error::WarmStart`] when the fit's rank differs from `r` or it
/// covers more slices than the tensor.
pub fn warm_weights(fit: &Parafac2Fit, k: usize, r: usize) -> Result<Mat> {
    if fit.rank() != r || fit.k() > k {
        return Err(Dpar2Error::WarmStart {
            factor: "W",
            expected: (k, r),
            got: (fit.k(), fit.rank()),
        });
    }
    let mut w = Mat::ones(k, r);
    for (row, s) in fit.s.iter().enumerate() {
        w.set_row(row, s);
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_tensor::IrregularTensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_tensor(seed: u64) -> IrregularTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        IrregularTensor::new(vec![
            gaussian_mat(12, 8, &mut rng),
            gaussian_mat(20, 8, &mut rng),
            gaussian_mat(7, 8, &mut rng),
        ])
    }

    #[test]
    fn init_v_is_orthonormal() {
        let t = small_tensor(501);
        let v = init_v(&t, 3);
        assert_eq!(v.shape(), (8, 3));
        assert!((&product(Trans::T, Trans::N, &v, &v) - &Mat::eye(3)).fro_norm() < 1e-9);
    }

    #[test]
    fn init_v_spans_dominant_subspace() {
        // For a tensor with planted shared column space, init_v must
        // recover that space.
        let mut rng = StdRng::seed_from_u64(502);
        let v_true = dpar2_linalg::qr::qr(gaussian_mat(10, 2, &mut rng)).q;
        let slices: Vec<Mat> = (0..3)
            .map(|_| product(Trans::N, Trans::T, gaussian_mat(15, 2, &mut rng), &v_true))
            .collect();
        let t = IrregularTensor::new(slices);
        let v = init_v(&t, 2);
        // Projection of v_true onto span(v) should be identity-like.
        let proj = product(Trans::T, Trans::N, &v, &v_true);
        let f = svd_truncated(&proj, 2);
        for s in &f.s {
            assert!((s - 1.0).abs() < 1e-8, "principal angle not zero: σ = {s}");
        }
    }

    #[test]
    fn update_q_is_orthonormal_and_procrustes_optimal() {
        let mut rng = StdRng::seed_from_u64(503);
        let target = gaussian_mat(20, 4, &mut rng);
        let q = update_q(&target, 4);
        assert!((&product(Trans::T, Trans::N, &q, &q) - &Mat::eye(4)).fro_norm() < 1e-9);
        // Procrustes optimality: trace(QᵀT) ≥ trace(OᵀT) for any orthonormal O.
        let t_q: f64 = product(Trans::T, Trans::N, &q, &target).diagonal().iter().sum();
        for trial in 0..5 {
            let o =
                dpar2_linalg::qr::qr(gaussian_mat(20, 4, &mut StdRng::seed_from_u64(504 + trial)))
                    .q;
            let t_o: f64 = product(Trans::T, Trans::N, &o, &target).diagonal().iter().sum();
            assert!(t_q >= t_o - 1e-9, "Procrustes solution beaten by random Q");
        }
    }

    #[test]
    fn validate_rank_catches_bad_inputs() {
        let t = small_tensor(505);
        assert!(dpar2_core::validate(&t, 3).is_ok());
        assert!(dpar2_core::validate(&t, 0).is_err());
        assert!(dpar2_core::validate(&t, 8).is_err()); // slice 2 has I=7
    }

    #[test]
    fn scale_columns_matches_diag_product() {
        let mut rng = StdRng::seed_from_u64(506);
        let m = gaussian_mat(5, 3, &mut rng);
        let w = [2.0, 0.5, -1.0];
        let mut scaled = m.clone();
        scale_columns(&mut scaled, &w);
        let explicit = product(Trans::N, Trans::N, &m, Mat::diag(&w));
        assert!((&scaled - &explicit).fro_norm() < 1e-12);
    }

    #[test]
    fn pooled_error_bitwise_matches_serial() {
        let mut rng = StdRng::seed_from_u64(508);
        let r = 3;
        let t = small_tensor(509);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(8, r, &mut rng);
        let w = gaussian_mat(3, r, &mut rng);
        let qs: Vec<Mat> =
            (0..3).map(|k| dpar2_linalg::qr::qr(gaussian_mat(t.i(k), r, &mut rng)).q).collect();
        let serial = true_error_sq(&t, &qs, &h, &w, &v, &ThreadPool::new(1));
        for threads in [1, 2, 3, 4, 8] {
            let pooled = true_error_sq(&t, &qs, &h, &w, &v, &ThreadPool::new(threads));
            assert_eq!(serial.to_bits(), pooled.to_bits(), "diverged at {threads} threads");
        }
        // One slice for every pool size, and 16 or 32 slices of mixed
        // heights split evenly and unevenly.
        for k in [1, 16, 32] {
            let slices = (0..k).map(|i| gaussian_mat(4 + i % 9, 8, &mut rng)).collect();
            let t = IrregularTensor::new(slices);
            let qs: Vec<Mat> =
                (0..k).map(|i| dpar2_linalg::qr::qr(gaussian_mat(t.i(i), r, &mut rng)).q).collect();
            let w = gaussian_mat(k, r, &mut rng);
            let serial = true_error_sq(&t, &qs, &h, &w, &v, &ThreadPool::new(1));
            for threads in [2, 3, 4, 8] {
                let pooled = true_error_sq(&t, &qs, &h, &w, &v, &ThreadPool::new(threads));
                assert_eq!(serial.to_bits(), pooled.to_bits(), "K = {k}, {threads} threads");
            }
        }
    }

    #[test]
    fn true_error_zero_for_exact_model() {
        let mut rng = StdRng::seed_from_u64(507);
        let r = 2;
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(9, r, &mut rng);
        let w = Mat::from_rows(&[&[1.0, 2.0], &[0.5, 1.5]]);
        let mut qs = Vec::new();
        let mut slices = Vec::new();
        for k in 0..2 {
            let q = dpar2_linalg::qr::qr(gaussian_mat(14, r, &mut rng)).q;
            let mut hs = h.clone();
            scale_columns(&mut hs, w.row(k));
            slices.push(product(Trans::N, Trans::T, product(Trans::N, Trans::N, &q, &hs), &v));
            qs.push(q);
        }
        let t = IrregularTensor::new(slices);
        assert!(true_error_sq(&t, &qs, &h, &w, &v, &ThreadPool::new(1)) < 1e-18);
    }
}
