//! The slice-operator view of an irregular tensor: the one abstraction
//! compression, [`crate::Dpar2`], [`crate::StreamingDpar2`] and the SPARTan
//! baseline are written against.
//!
//! Algorithm 3 never cares how a slice is stored: every pass over `X_k` is
//! a product the randomized SVD already abstracts as a
//! [`dpar2_rsvd::ProductOp`]. [`SliceTensor`] hands out each slice as such
//! an operator, plus the handful of facts the solvers read directly
//! (shape, scheduling weight, the per-slice Gram and residual). The
//! implementations run their historical kernels, so the dense ones are
//! bitwise the dense code and the CSR one keeps the densify-oracle
//! contract of [`dpar2_linalg::sparse`]. [`StackedTensor`] adds the
//! stacked operator that only [`crate::Dpar2`]'s rank-energy probe reads.
//!
//! Dense slices come packed ([`IrregularTensor`]) or as the owned [`Mat`]s
//! a streaming batch arrives in ([`DenseBatch`]); both are [`DenseSlices`],
//! handing out [`MatRef`] views to the one dense implementation.

use crate::error::{Dpar2Error, Result};
use dpar2_linalg::sparse::{sparse_gram_into, sparse_outer_gram_into, SparseSlice};
use dpar2_linalg::{gram_into, Mat, MatRef};
use dpar2_rsvd::{ProductOp, SparseVStack};
use dpar2_tensor::{IrregularTensor, SparseIrregularTensor};

/// An irregular tensor `{X_k}` (shared column count `J`) whose slices are
/// product operators — implemented by every [`DenseSlices`] storage and the
/// CSR [`SparseIrregularTensor`].
pub trait SliceTensor: Sync {
    /// Slice `X_k` as an operator (`MatRef` or `&SparseSlice`).
    type Slice<'a>: ProductOp
    where
        Self: 'a;

    /// Row counts `[I_1, …, I_K]`.
    fn dims(&self) -> &[usize];

    /// Shared column dimension `J`.
    fn j(&self) -> usize;

    /// Slice `X_k`.
    fn slice(&self, k: usize) -> Self::Slice<'_>;

    /// Scheduling weight of slice `k` for `greedy_partition`: what a pass
    /// over it costs (rows for dense, nonzeros for CSR).
    fn work(&self, k: usize) -> usize;

    /// `(nnz, num_cells, sparse)` for [`crate::FitObserver::on_input_shape`].
    fn input_shape(&self) -> (u64, u64, bool);

    /// Index of the first slice storing a NaN or ±∞.
    fn first_non_finite(&self) -> Option<usize>;

    /// `G = X_kᵀ X_k` into `g` (resized), every entry summed over rows in
    /// ascending order: dense and CSR storage give the same bits.
    fn gram_into(&self, k: usize, g: &mut Mat);

    /// `G = X_k X_kᵀ` into `g` (resized), every entry summed over columns
    /// in ascending order: dense and CSR storage give the same bits. A
    /// dense slice is transposed into `xt` first (resized; CSR leaves it
    /// as it is), so a caller that reuses `xt` allocates nothing here.
    fn outer_gram_into(&self, k: usize, g: &mut Mat, xt: &mut Mat);

    /// `‖X_k − M Vᵀ‖²_F` for a model factor `M ∈ R^{I_k×R}`, summed in the
    /// dense row-major order on caller scratch.
    fn residual_sq(&self, k: usize, m: &Mat, v: &Mat, scratch: &mut Mat) -> f64;

    /// Number of slices `K`.
    fn k(&self) -> usize {
        self.dims().len()
    }

    /// `Σ_k ‖X_k‖²_F`, summed per slice in ascending `k`.
    fn fro_norm_sq(&self) -> f64 {
        (0..self.k()).map(|k| self.slice(k).fro_norm_sq()).sum()
    }
}

/// A [`SliceTensor`] that can also hand out the vertical stack `[X_1; …;
/// X_K]` as one operator, for the rank-energy probe of
/// [`crate::FitOptions::rank_energy`].
pub trait StackedTensor: SliceTensor {
    /// The stacked operator (`MatRef` or [`SparseVStack`]).
    type Stacked<'a>: ProductOp
    where
        Self: 'a;

    /// The vertical stack of all slices.
    fn stacked(&self) -> Self::Stacked<'_>;
}

/// Dense slice storage: whatever hands out its slices as [`MatRef`] views
/// is a [`SliceTensor`] through one set of dense kernels, so packed and
/// owned slices compress to the same bits.
pub trait DenseSlices: Sync {
    /// Row counts `[I_1, …, I_K]`.
    fn row_counts(&self) -> &[usize];

    /// Shared column dimension `J`.
    fn width(&self) -> usize;

    /// Slice `X_k`, where it lies.
    fn view(&self, k: usize) -> MatRef<'_>;
}

impl<T: DenseSlices> SliceTensor for T {
    type Slice<'a>
        = MatRef<'a>
    where
        T: 'a;

    fn dims(&self) -> &[usize] {
        self.row_counts()
    }

    fn j(&self) -> usize {
        self.width()
    }

    fn slice(&self, k: usize) -> MatRef<'_> {
        self.view(k)
    }

    fn work(&self, k: usize) -> usize {
        self.row_counts()[k]
    }

    fn input_shape(&self) -> (u64, u64, bool) {
        let cells = self.row_counts().iter().sum::<usize>() * self.width();
        (cells as u64, cells as u64, false)
    }

    fn first_non_finite(&self) -> Option<usize> {
        (0..self.k()).find(|&k| !all_finite(self.view(k).data()))
    }

    fn gram_into(&self, k: usize, g: &mut Mat) {
        gram_into(self.view(k), g);
    }

    fn outer_gram_into(&self, k: usize, g: &mut Mat, xt: &mut Mat) {
        self.view(k).transpose_into(xt);
        gram_into(&*xt, g);
    }

    fn residual_sq(&self, k: usize, m: &Mat, v: &Mat, scratch: &mut Mat) -> f64 {
        m.matmul_nt_into(v, scratch); // M·Vᵀ
        self.view(k).diff_norm_sq(&*scratch)
    }
}

impl DenseSlices for IrregularTensor {
    fn row_counts(&self) -> &[usize] {
        IrregularTensor::dims(self)
    }

    fn width(&self) -> usize {
        IrregularTensor::j(self)
    }

    fn view(&self, k: usize) -> MatRef<'_> {
        IrregularTensor::slice(self, k)
    }
}

impl StackedTensor for IrregularTensor {
    type Stacked<'a> = MatRef<'a>;

    fn stacked(&self) -> MatRef<'_> {
        IrregularTensor::stacked(self)
    }
}

/// A batch of dense slices in the [`Mat`]s they arrived in: the tensor of a
/// `Vec<Mat>` streaming batch, which compression reads where it lies.
#[derive(Debug)]
pub struct DenseBatch {
    slices: Vec<Mat>,
    dims: Vec<usize>,
}

impl DenseBatch {
    /// Takes the slices over, without copying them. Column counts are the
    /// caller's to check (see [`OwnedSlice::stack`]).
    pub fn new(slices: Vec<Mat>) -> Self {
        let dims = slices.iter().map(Mat::rows).collect();
        DenseBatch { slices, dims }
    }
}

impl DenseSlices for DenseBatch {
    fn row_counts(&self) -> &[usize] {
        &self.dims
    }

    fn width(&self) -> usize {
        self.slices.first().map_or(0, Mat::cols)
    }

    fn view(&self, k: usize) -> MatRef<'_> {
        self.slices[k].view()
    }
}

impl SliceTensor for SparseIrregularTensor {
    type Slice<'a> = &'a SparseSlice;

    fn dims(&self) -> &[usize] {
        SparseIrregularTensor::dims(self)
    }

    fn j(&self) -> usize {
        SparseIrregularTensor::j(self)
    }

    fn slice(&self, k: usize) -> &SparseSlice {
        SparseIrregularTensor::slice(self, k)
    }

    fn work(&self, k: usize) -> usize {
        self.slice(k).nnz()
    }

    fn input_shape(&self) -> (u64, u64, bool) {
        (self.nnz() as u64, self.num_cells() as u64, true)
    }

    fn first_non_finite(&self) -> Option<usize> {
        (0..self.k()).find(|&k| !all_finite(self.slice(k).values()))
    }

    fn gram_into(&self, k: usize, g: &mut Mat) {
        sparse_gram_into(self.slice(k), g);
    }

    fn outer_gram_into(&self, k: usize, g: &mut Mat, _xt: &mut Mat) {
        sparse_outer_gram_into(self.slice(k), g);
    }

    /// O(nnz + I_k·J·R): each model entry is summed over ascending depth
    /// from `+0.0`, one multiply and one add per step, never fused (the
    /// rule of every product below the blocked threshold, so of the dense
    /// `M·Vᵀ` there), and the subtract-square-accumulate walks columns
    /// `0..J` with a nonzero cursor — the exact flat order of the dense
    /// `diff_norm_sq`, so the result is bitwise the dense residual on the
    /// densified slice.
    fn residual_sq(&self, k: usize, m: &Mat, v: &Mat, scratch: &mut Mat) -> f64 {
        let x = self.slice(k);
        scratch.resize_zeroed(1, x.cols());
        let model = scratch.row_mut(0);
        let mut total = 0.0;
        for i in 0..x.rows() {
            let mrow = m.row(i);
            for (col, y) in model.iter_mut().enumerate() {
                *y = mrow.iter().zip(v.row(col)).fold(0.0, |acc, (&a, &b)| acc + a * b);
            }
            let (cols, vals) = x.row(i);
            let mut p = 0;
            for (col, &y) in model.iter().enumerate() {
                let xv = if p < cols.len() && cols[p] == col {
                    let val = vals[p];
                    p += 1;
                    val
                } else {
                    0.0
                };
                let d = xv - y;
                total += d * d;
            }
        }
        total
    }
}

impl StackedTensor for SparseIrregularTensor {
    type Stacked<'a> = SparseVStack<'a>;

    fn stacked(&self) -> SparseVStack<'_> {
        SparseVStack::new(self.slices())
    }
}

/// Whether every value is finite. Branch-free, so the scan vectorizes: it
/// runs once over the whole input of every fit.
fn all_finite(values: &[f64]) -> bool {
    values.iter().fold(true, |ok, x| ok & x.is_finite())
}

/// Owned slice storage a streaming batch arrives in: dense [`Mat`] or CSR
/// [`SparseSlice`].
pub trait OwnedSlice: Sized {
    /// The tensor a batch of these slices forms.
    type Tensor: SliceTensor;

    /// Column count `J` of this slice.
    fn cols(&self) -> usize;

    /// Forms the tensor of a batch whose column counts already agree. The
    /// slices move into it as they are: nothing is copied or repacked, so
    /// the batch is compressed in place.
    fn stack(batch: Vec<Self>) -> Self::Tensor;
}

impl OwnedSlice for Mat {
    type Tensor = DenseBatch;

    fn cols(&self) -> usize {
        Mat::cols(self)
    }

    fn stack(batch: Vec<Mat>) -> DenseBatch {
        DenseBatch::new(batch)
    }
}

impl OwnedSlice for SparseSlice {
    type Tensor = SparseIrregularTensor;

    fn cols(&self) -> usize {
        SparseSlice::cols(self)
    }

    fn stack(batch: Vec<SparseSlice>) -> SparseIrregularTensor {
        SparseIrregularTensor::new(batch)
    }
}

/// The input contract every solver entry point checks once, up front:
/// `0 < R ≤ min(I_k, J)` for every slice, and every stored value finite.
///
/// # Errors
/// [`Dpar2Error::ZeroRank`], [`Dpar2Error::RankTooLarge`] or
/// [`Dpar2Error::NonFinite`], with slice indices counted from 0.
pub fn validate(tensor: &impl SliceTensor, rank: usize) -> Result<()> {
    validate_from(tensor, rank, 0)
}

/// [`validate`] for slices that extend `first` already-ingested ones, so
/// errors name the slice's index in the whole stream.
pub(crate) fn validate_from(tensor: &impl SliceTensor, rank: usize, first: usize) -> Result<()> {
    if rank == 0 {
        return Err(Dpar2Error::ZeroRank);
    }
    for (k, &ik) in tensor.dims().iter().enumerate() {
        let limit = ik.min(tensor.j());
        if rank > limit {
            return Err(Dpar2Error::RankTooLarge { rank, slice: first + k, limit });
        }
    }
    match tensor.first_non_finite() {
        Some(k) => Err(Dpar2Error::NonFinite { slice: first + k }),
        None => Ok(()),
    }
}
