//! The irregular tensor `{X_k}_{k=1..K}` — the paper's central data type.
//!
//! Since the zero-copy view refactor, the slices live in **one contiguous
//! backing buffer**: slice `k` occupies `data[offsets[k]..offsets[k+1]]`
//! row-major. [`IrregularTensor::slice`] hands out borrowed
//! [`MatRef`] views into that buffer — no per-slice `Vec`s, no copies —
//! and [`IrregularTensor::stacked`] views the whole buffer as the
//! `(Σ_k I_k) × J` vertical concatenation `[X_1; …; X_K]` for free (the
//! matrix RD-ALS's preprocessing SVD consumes).

use dpar2_linalg::{Mat, MatRef};

/// An irregular dense tensor: `K` frontal slices `X_k ∈ R^{I_k×J}` whose
/// row counts `I_k` differ while the column dimension `J` is shared.
///
/// Examples from the paper: per-stock (time × feature) matrices with
/// different listing periods, per-song (time × frequency) spectrograms with
/// different durations.
#[derive(Debug, Clone, PartialEq)]
pub struct IrregularTensor {
    /// All slices, concatenated row-major: slice `k` starts at
    /// `offsets[k]` and holds `row_dims[k] * j` entries.
    data: Vec<f64>,
    /// Prefix offsets into `data`, length `K + 1`.
    offsets: Vec<usize>,
    /// Row count `I_k` per slice.
    row_dims: Vec<usize>,
    j: usize,
}

impl IrregularTensor {
    /// Builds an irregular tensor from slices, validating the shared `J`.
    /// The slices are copied once into the contiguous backing buffer.
    ///
    /// # Panics
    /// Panics if `slices` is empty or column counts differ.
    // Takes ownership by API contract (callers hand the slices over to the
    // tensor); the data is repacked, not borrowed, so the lint's
    // by-reference suggestion would only push a `.to_vec()` to call sites.
    #[allow(clippy::needless_pass_by_value)]
    pub fn new(slices: Vec<Mat>) -> Self {
        assert!(!slices.is_empty(), "IrregularTensor: need at least one slice");
        let j = slices[0].cols();
        let total: usize = slices.iter().map(Mat::len).sum();
        let mut data = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(slices.len() + 1);
        let mut row_dims = Vec::with_capacity(slices.len());
        offsets.push(0);
        for (k, s) in slices.iter().enumerate() {
            assert_eq!(
                s.cols(),
                j,
                "IrregularTensor: slice {k} has {} columns, expected {j}",
                s.cols()
            );
            data.extend_from_slice(s.data());
            offsets.push(data.len());
            row_dims.push(s.rows());
        }
        IrregularTensor { data, offsets, row_dims, j }
    }

    /// Builds a tensor directly from a packed backing buffer (row-major
    /// slices back to back) and the per-slice row counts — the zero-copy
    /// construction path for loaders that already own a flat buffer.
    ///
    /// # Panics
    /// Panics if `row_dims` is empty or `data.len() != Σ_k I_k · j`.
    pub fn from_packed(data: Vec<f64>, row_dims: Vec<usize>, j: usize) -> Self {
        assert!(!row_dims.is_empty(), "IrregularTensor: need at least one slice");
        let total: usize = row_dims.iter().map(|&i| i * j).sum();
        assert_eq!(
            data.len(),
            total,
            "IrregularTensor::from_packed: buffer length {} != expected {total}",
            data.len()
        );
        let mut offsets = Vec::with_capacity(row_dims.len() + 1);
        offsets.push(0);
        let mut acc = 0;
        for &i in &row_dims {
            acc += i * j;
            offsets.push(acc);
        }
        IrregularTensor { data, offsets, row_dims, j }
    }

    /// Wraps a regular tensor (equal `I_k`) in the irregular interface, as
    /// the paper does for the Traffic and PEMS-SF datasets.
    pub fn from_regular(t: crate::Dense3) -> Self {
        IrregularTensor::new(t.into_slices())
    }

    /// Number of slices `K`.
    pub fn k(&self) -> usize {
        self.row_dims.len()
    }

    /// Shared column dimension `J`.
    pub fn j(&self) -> usize {
        self.j
    }

    /// Row count `I_k` of slice `k`.
    pub fn i(&self, k: usize) -> usize {
        self.row_dims[k]
    }

    /// All slice row counts `[I_1, …, I_K]` as a borrowed slice.
    pub fn dims(&self) -> &[usize] {
        &self.row_dims
    }

    /// All slice row counts `[I_1, …, I_K]`, copied.
    pub fn row_dims(&self) -> Vec<usize> {
        self.row_dims.clone()
    }

    /// Largest slice row count, `max_k I_k` (the "Max Dim. I_k" column of
    /// Table II).
    pub fn max_i(&self) -> usize {
        self.row_dims.iter().copied().max().unwrap_or(0)
    }

    /// Total number of rows `Σ_k I_k`.
    pub fn total_rows(&self) -> usize {
        self.row_dims.iter().sum()
    }

    /// Total number of stored `f64` entries, `Σ_k I_k · J`.
    pub fn num_entries(&self) -> usize {
        self.data.len()
    }

    /// Number of nonzero entries across all slices — how many values
    /// [`crate::SparseIrregularTensor::from_dense`] would store. Exact
    /// zeros only; `-0.0` counts as zero.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Slice `X_k` as a zero-copy view into the backing buffer.
    pub fn slice(&self, k: usize) -> MatRef<'_> {
        MatRef::from_slice(
            self.row_dims[k],
            self.j,
            &self.data[self.offsets[k]..self.offsets[k + 1]],
        )
    }

    /// The whole tensor as the stacked matrix `[X_1; X_2; …; X_K] ∈
    /// R^{(Σ_k I_k)×J}` — a zero-copy reinterpretation of the backing
    /// buffer (this is RD-ALS's preprocessing operand, transposed).
    pub fn stacked(&self) -> MatRef<'_> {
        MatRef::from_slice(self.total_rows(), self.j, &self.data)
    }

    /// Iterator over all slice views in order.
    pub fn slice_views(&self) -> impl Iterator<Item = MatRef<'_>> + '_ {
        (0..self.k()).map(|k| self.slice(k))
    }

    /// Materializes the slices as owned matrices (one copy each), for a
    /// caller that needs `Vec<Mat>` and keeps the tensor too. A streaming
    /// append compresses owned slices where they lie, so slices that start
    /// out as `Mat`s are best handed to it directly, not packed here and
    /// copied back out.
    pub fn to_slices(&self) -> Vec<Mat> {
        self.slice_views().map(MatRef::to_mat).collect()
    }

    /// The raw backing buffer (row-major slices back to back).
    pub fn packed_data(&self) -> &[f64] {
        &self.data
    }

    /// Squared Frobenius norm `Σ_k ‖X_k‖²_F` — the denominator of the
    /// paper's fitness metric (§IV-A). Summed per slice in ascending `k`
    /// (the historical grouping, preserved bit-for-bit).
    pub fn fro_norm_sq(&self) -> f64 {
        self.slice_views().map(MatRef::fro_norm_sq).sum()
    }

    /// True if all slices have identical row counts (a regular tensor in
    /// the irregular representation).
    pub fn is_regular(&self) -> bool {
        self.row_dims.windows(2).all(|w| w[0] == w[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dense3;

    fn sample() -> IrregularTensor {
        IrregularTensor::new(vec![Mat::ones(2, 3), Mat::ones(5, 3), Mat::ones(1, 3)])
    }

    #[test]
    fn shape_queries() {
        let t = sample();
        assert_eq!(t.k(), 3);
        assert_eq!(t.j(), 3);
        assert_eq!(t.i(1), 5);
        assert_eq!(t.row_dims(), vec![2, 5, 1]);
        assert_eq!(t.dims(), &[2, 5, 1]);
        assert_eq!(t.max_i(), 5);
        assert_eq!(t.total_rows(), 8);
        assert_eq!(t.num_entries(), 24);
    }

    #[test]
    fn slices_are_zero_copy_views() {
        let slices = vec![
            Mat::from_fn(2, 3, |i, j| (i * 3 + j) as f64),
            Mat::from_fn(4, 3, |i, j| (100 + i * 3 + j) as f64),
        ];
        let t = IrregularTensor::new(slices.clone());
        for (k, s) in slices.iter().enumerate() {
            assert_eq!(t.slice(k), *s, "slice {k} differs");
            assert!(t.slice(k).is_contiguous());
        }
        // The backing buffer is exactly the slices back to back.
        assert_eq!(&t.packed_data()[..6], slices[0].data());
        assert_eq!(&t.packed_data()[6..], slices[1].data());
    }

    #[test]
    fn stacked_is_vstack() {
        let slices = vec![
            Mat::from_fn(2, 4, |i, j| (i + j) as f64),
            Mat::from_fn(3, 4, |i, j| (i * j) as f64),
        ];
        let t = IrregularTensor::new(slices.clone());
        let stacked = t.stacked();
        assert_eq!(stacked.shape(), (5, 4));
        let explicit = slices[0].vstack(&slices[1]).unwrap();
        assert_eq!(stacked.to_mat(), explicit);
    }

    #[test]
    fn from_packed_matches_new() {
        let slices = vec![Mat::ones(2, 3), Mat::zeros(4, 3)];
        let via_new = IrregularTensor::new(slices);
        let packed =
            IrregularTensor::from_packed(via_new.packed_data().to_vec(), via_new.row_dims(), 3);
        assert_eq!(via_new, packed);
    }

    #[test]
    fn to_slices_roundtrip() {
        let t = sample();
        let again = IrregularTensor::new(t.to_slices());
        assert_eq!(t, again);
    }

    #[test]
    fn fro_norm_sums_slices() {
        let t = sample();
        assert!((t.fro_norm_sq() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn regularity_detection() {
        assert!(!sample().is_regular());
        let reg = IrregularTensor::new(vec![Mat::ones(2, 3); 4]);
        assert!(reg.is_regular());
    }

    #[test]
    fn from_regular_tensor() {
        let d = Dense3::zeros(4, 5, 6);
        let t = IrregularTensor::from_regular(d);
        assert_eq!(t.k(), 6);
        assert_eq!(t.j(), 5);
        assert!(t.is_regular());
    }

    #[test]
    #[should_panic(expected = "slice 1 has 4 columns")]
    fn column_mismatch_panics() {
        IrregularTensor::new(vec![Mat::zeros(2, 3), Mat::zeros(2, 4)]);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn empty_panics() {
        IrregularTensor::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_packed_length_mismatch_panics() {
        IrregularTensor::from_packed(vec![0.0; 5], vec![2], 3);
    }
}
