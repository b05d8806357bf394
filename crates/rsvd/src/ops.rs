//! The [`ProductOp`] operator abstraction the randomized SVD pipeline is
//! generic over.
//!
//! Every pass the rSVD makes over `A` is one of four primitives: the
//! sketch `A·Ω`, the power-iteration passes `Aᵀ·Q` / `A·Q_z`, the
//! projection `Qᵀ·A`, plus `‖A‖²_F` for energy truncation and an exact
//! thin-SVD escape hatch for matrices too small to sketch. Abstracting
//! those five behind a trait lets the same pipeline run on a dense
//! [`MatRef`] or [`Mat`] ([`gemm`] on the pool, exactly the pre-trait
//! code) and on a CSR [`SparseSlice`] (the `spmm*_into` kernel family,
//! O(nnz·s) per pass) — which is what makes DPar2's whole compression stage
//! O(nnz) on sparse inputs. References to operators are operators too, so
//! `rsvd(&mat, ..)`, `rsvd(mat.view(), ..)` and `rsvd(&csr, ..)` all work.
//!
//! Both implementations keep the workspace-wide determinism guarantees:
//! results are bit-identical for every pool size, and the sparse
//! implementation inherits the densify-oracle contract of
//! [`dpar2_linalg::sparse`] (each kernel accumulates in the dense naive
//! loop order with structural zeros skipped), so a sparse rSVD agrees
//! *bitwise* with the densified run whenever every product stays on the
//! dense naive dispatch path (sketch width below the blocked-GEMM tile
//! thresholds).

use dpar2_linalg::sparse::{spmm_into, spmm_t_into, spmm_tn_into, SparseSlice};
use dpar2_linalg::{gemm, svd_thin, Mat, MatRef, SvdFactors, Trans};
use dpar2_parallel::ThreadPool;

/// A matrix seen only through the products the randomized SVD needs.
///
/// Implementations must be deterministic and bit-identical across pool
/// sizes (both provided ones are). All `*_into` methods resize their
/// output buffer, so callers can reuse buffers across calls of different
/// shapes.
pub trait ProductOp {
    /// Logical `(rows, cols)` of `A`.
    fn shape(&self) -> (usize, usize);

    /// `C = A·B`.
    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool);

    /// `C = Aᵀ·B`.
    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool);

    /// `C = Qᵀ·A` — the projection step `B = Qᵀ A`.
    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool);

    /// Squared Frobenius norm `‖A‖²_F`, for energy-truncation accounting.
    fn fro_norm_sq(&self) -> f64;

    /// Exact thin SVD — the fallback when the sketch would span the whole
    /// space (`rank + oversample ≥ min(I, J)`), where sketching buys
    /// nothing. Sparse implementations may densify here: the fallback only
    /// triggers for matrices with a tiny short dimension.
    fn svd_exact(&self) -> SvdFactors;
}

/// Any borrowed operator is an operator (`&Mat`, `&SparseSlice`,
/// `&SparseVStack`, ...).
impl<T: ProductOp + ?Sized> ProductOp for &T {
    fn shape(&self) -> (usize, usize) {
        (**self).shape()
    }

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        (**self).mm_into(b, c, pool);
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        (**self).mm_t_into(b, c, pool);
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        (**self).proj_into(q, c, pool);
    }

    fn fro_norm_sq(&self) -> f64 {
        (**self).fro_norm_sq()
    }

    fn svd_exact(&self) -> SvdFactors {
        (**self).svd_exact()
    }
}

/// Dense operator: delegates to [`gemm`] on the pool — the exact call
/// sequence the pre-abstraction `rsvd_pooled` made, so the dense pipeline
/// is bit-for-bit the historical one.
impl ProductOp for MatRef<'_> {
    fn shape(&self) -> (usize, usize) {
        MatRef::shape(*self)
    }

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::N, Trans::N, *self, b, c, pool);
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::T, Trans::N, *self, b, c, pool);
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        gemm(Trans::T, Trans::N, q, *self, c, pool);
    }

    fn fro_norm_sq(&self) -> f64 {
        MatRef::fro_norm_sq(*self)
    }

    fn svd_exact(&self) -> SvdFactors {
        svd_thin(*self)
    }
}

/// An owned dense matrix runs exactly the [`MatRef`] operator on its view.
impl ProductOp for Mat {
    fn shape(&self) -> (usize, usize) {
        Mat::shape(self)
    }

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        self.view().mm_into(b, c, pool);
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        self.view().mm_t_into(b, c, pool);
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        self.view().proj_into(q, c, pool);
    }

    fn fro_norm_sq(&self) -> f64 {
        self.view().fro_norm_sq()
    }

    fn svd_exact(&self) -> SvdFactors {
        self.view().svd_exact()
    }
}

/// Sparse CSR operator: every pass touches nonzeros only, so a full rSVD
/// costs O(nnz·(r+s)) per pass over `A` instead of O(I·J·(r+s)).
impl ProductOp for SparseSlice {
    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        spmm_into(self, b, c, pool);
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        spmm_t_into(self, b, c, pool);
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        spmm_tn_into(q, self, c, pool);
    }

    fn fro_norm_sq(&self) -> f64 {
        SparseSlice::fro_norm_sq(self)
    }

    fn svd_exact(&self) -> SvdFactors {
        // Only reached when min(I, J) ≤ rank + oversample — the densified
        // matrix is tiny and the exact path is bitwise the dense one.
        svd_thin(self.to_dense())
    }
}

/// Vertical concatenation `[X_1; X_2; …; X_K]` of CSR slices sharing a
/// column dimension, seen as one `(Σ_k I_k) × J` operator — the sparse
/// counterpart of probing `IrregularTensor::stacked()` for adaptive-rank
/// energy truncation, without materializing the stack.
#[derive(Debug, Clone)]
pub struct SparseVStack<'a> {
    slices: Vec<&'a SparseSlice>,
    rows: usize,
    cols: usize,
}

impl<'a> SparseVStack<'a> {
    /// Builds the stacked operator.
    ///
    /// # Panics
    /// Panics if `slices` is empty or column counts differ.
    pub fn new(slices: impl IntoIterator<Item = &'a SparseSlice>) -> Self {
        let slices: Vec<&SparseSlice> = slices.into_iter().collect();
        assert!(!slices.is_empty(), "SparseVStack: need at least one slice");
        let cols = slices[0].cols();
        let mut rows = 0;
        for (k, s) in slices.iter().enumerate() {
            assert_eq!(
                s.cols(),
                cols,
                "SparseVStack: slice {k} has {} columns, expected {cols}",
                s.cols()
            );
            rows += s.rows();
        }
        SparseVStack { slices, rows, cols }
    }

    /// Total stored nonzeros across the stack.
    pub fn nnz(&self) -> usize {
        self.slices.iter().map(|s| s.nnz()).sum()
    }
}

impl ProductOp for SparseVStack<'_> {
    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    // The loops below replicate the per-slice kernels of
    // `dpar2_linalg::sparse` with a running row offset, preserving the
    // stacked dense naive accumulation order (slices ascending, rows
    // ascending within each, nonzeros ascending within each row).

    fn mm_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        let _ = pool; // row blocks are slice-grained; the probe is one-shot
        let n = b.cols();
        assert_eq!(b.rows(), self.cols, "SparseVStack mm: inner dimension mismatch");
        c.resize_zeroed(self.rows, n);
        let mut off = 0;
        for s in &self.slices {
            for i in 0..s.rows() {
                let (cols, vals) = s.row(i);
                let crow = c.row_mut(off + i);
                for (&j, &v) in cols.iter().zip(vals) {
                    for (cv, &bv) in crow.iter_mut().zip(b.row(j)) {
                        *cv += v * bv;
                    }
                }
            }
            off += s.rows();
        }
    }

    fn mm_t_into(&self, b: &Mat, c: &mut Mat, pool: &ThreadPool) {
        let _ = pool;
        let n = b.cols();
        assert_eq!(b.rows(), self.rows, "SparseVStack mm_t: row dimension mismatch");
        c.resize_zeroed(self.cols, n);
        let mut off = 0;
        for s in &self.slices {
            for i in 0..s.rows() {
                let (cols, vals) = s.row(i);
                let brow = b.row(off + i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let crow = c.row_mut(j);
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += v * bv;
                    }
                }
            }
            off += s.rows();
        }
    }

    fn proj_into(&self, q: &Mat, c: &mut Mat, pool: &ThreadPool) {
        let _ = pool;
        let (qm, qr) = q.shape();
        assert_eq!(qm, self.rows, "SparseVStack proj: Q rows must match stacked rows");
        c.resize_zeroed(qr, self.cols);
        let mut off = 0;
        for s in &self.slices {
            for i in 0..s.rows() {
                let (cols, vals) = s.row(i);
                for (r, &qir) in q.row(off + i).iter().enumerate() {
                    let crow = c.row_mut(r);
                    for (&j, &x) in cols.iter().zip(vals) {
                        crow[j] += qir * x;
                    }
                }
            }
            off += s.rows();
        }
    }

    fn fro_norm_sq(&self) -> f64 {
        // Flat accumulation continuing one accumulator across slices —
        // the stacked dense flat `Σ x²` order with structural zeros
        // skipped (exact identities; squares are never `-0.0`).
        self.slices.iter().fold(0.0, |acc, s| s.values().iter().fold(acc, |a, &v| a + v * v))
    }

    fn svd_exact(&self) -> SvdFactors {
        let mut d = Mat::zeros(self.rows, self.cols);
        let mut off = 0;
        for s in &self.slices {
            for (i, j, v) in s.iter() {
                d.set(off + i, j, v);
            }
            off += s.rows();
        }
        svd_thin(&d)
    }
}
