//! Borrowed, stride-aware matrix views: [`MatRef`] and [`MatMut`].
//!
//! A view is `(rows, cols, row_stride)` over a borrowed `f64` slice: row `i`
//! starts at `data[i * row_stride]` and spans `cols` contiguous entries.
//! Views are the lingua franca of every hot path in this workspace — GEMM
//! kernels, factorizations, tensor slices, and the solvers' scratch
//! machinery all operate on views, so sub-blocks of one backing buffer
//! (e.g. the slices of a `dpar2_tensor::IrregularTensor`) flow through the
//! whole stack without a single copy.
//!
//! * [`MatRef`] is `Copy` — pass it by value, like a slice.
//! * [`MatMut`] is a unique borrow; reborrow with [`MatMut::as_mut`].
//! * [`AsMatRef`] is the conversion bound the public linalg entry points
//!   take (`&Mat`, `MatRef`, and `&MatMut` all satisfy it), which is what
//!   lets pre-view call sites keep compiling unchanged.
//!
//! A view with `row_stride == cols` is *contiguous*: its logical entries
//! occupy one gap-free slice, retrievable via [`MatRef::data`]. Strided
//! views (column sub-blocks) still expose contiguous rows via
//! [`MatRef::row`], which is what the kernels' packing routines consume.

use crate::mat::Mat;
use std::fmt;
use std::ops::Index;

/// A shared, possibly-strided view of a dense row-major `f64` matrix.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    row_stride: usize,
    data: &'a [f64],
}

/// A unique, possibly-strided mutable view of a dense row-major matrix.
pub struct MatMut<'a> {
    rows: usize,
    cols: usize,
    row_stride: usize,
    data: &'a mut [f64],
}

/// Checks the view invariant: every addressed entry lies inside `len`.
#[inline]
fn check_view(rows: usize, cols: usize, row_stride: usize, len: usize) {
    assert!(row_stride >= cols, "view: row_stride {row_stride} < cols {cols}");
    if rows > 0 && cols > 0 {
        let last = (rows - 1) * row_stride + cols;
        assert!(last <= len, "view: {rows}x{cols} (stride {row_stride}) exceeds buffer of {len}");
    }
}

impl<'a> MatRef<'a> {
    /// A contiguous `rows × cols` view over `data` (row `i` at
    /// `data[i * cols..]`).
    ///
    /// # Panics
    /// Panics if `data.len() < rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &'a [f64]) -> Self {
        Self::from_parts(rows, cols, cols, data)
    }

    /// A strided view: row `i` spans `data[i * row_stride..][..cols]`.
    ///
    /// # Panics
    /// Panics if `row_stride < cols` or the last addressed entry is out of
    /// bounds.
    pub fn from_parts(rows: usize, cols: usize, row_stride: usize, data: &'a [f64]) -> Self {
        check_view(rows, cols, row_stride, data.len());
        MatRef { rows, cols, row_stride, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Distance (in elements) between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(self) -> usize {
        self.row_stride
    }

    /// Total number of logical entries.
    #[inline]
    pub fn len(self) -> usize {
        self.rows * self.cols
    }

    /// True if the view has zero entries.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// True when the logical entries occupy one gap-free slice
    /// (`row_stride == cols`, or the view has at most one row).
    #[inline]
    pub fn is_contiguous(self) -> bool {
        self.row_stride == self.cols || self.rows <= 1 || self.cols == 0
    }

    /// The logical entries as one row-major slice.
    ///
    /// # Panics
    /// Panics if the view is strided (see [`MatRef::is_contiguous`]).
    #[inline]
    pub fn data(self) -> &'a [f64] {
        assert!(self.is_contiguous(), "MatRef::data: view is strided; use row-wise access");
        &self.data[..self.rows * self.cols]
    }

    /// Entry `(i, j)` (debug-asserted bounds).
    #[inline(always)]
    pub fn at(self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j]
    }

    /// Row `i` as a contiguous slice of length `cols`.
    #[inline]
    pub fn row(self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        if self.cols == 0 {
            return &[];
        }
        &self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// True when `self` and `other` view the same entries: the same start,
    /// shape and row stride (for the GEMM kernel's `XᵀX` / `XXᵀ` test).
    #[inline]
    pub(crate) fn same_view(self, other: MatRef<'_>) -> bool {
        std::ptr::eq(self.data.as_ptr(), other.data.as_ptr())
            && (self.rows, self.cols, self.row_stride) == (other.rows, other.cols, other.row_stride)
    }

    /// The backing entries from `(i, j)` on: entry `(i + r, j + c)` is at
    /// offset `r·row_stride + c` (for the GEMM kernel's in-place operand
    /// reads).
    #[inline]
    pub(crate) fn tail(self, i: usize, j: usize) -> &'a [f64] {
        &self.data[i * self.row_stride + j..]
    }

    /// Column `j` copied into a new vector.
    pub fn col(self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.at(i, j)).collect()
    }

    /// Zero-copy sub-block view of `rows r0..r1`, `cols c0..c1` (half-open);
    /// strided whenever `c1 - c0 < cols`.
    ///
    /// # Panics
    /// Panics if the block is out of bounds.
    pub fn submatrix(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatRef<'a> {
        assert!(
            r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols,
            "submatrix out of bounds"
        );
        // Empty blocks borrow an empty slice (their start offset may lie
        // past the parent's last addressed entry).
        let (start, end) = if r1 > r0 && c1 > c0 {
            let s = r0 * self.row_stride + c0;
            (s, s + (r1 - 1 - r0) * self.row_stride + (c1 - c0))
        } else {
            (0, 0)
        };
        MatRef {
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride: self.row_stride,
            data: &self.data[start..end],
        }
    }

    /// Materializes the view into an owned [`Mat`].
    pub fn to_mat(self) -> Mat {
        let mut m = Mat::zeros(0, 0);
        self.copy_into(&mut m);
        m
    }

    /// Copies the view into `out`, resizing it to match. Every destination
    /// entry is overwritten, so no zeroing pass runs; contiguous sources
    /// copy as one `memcpy`.
    pub fn copy_into(self, out: &mut Mat) {
        out.resize_for_overwrite(self.rows, self.cols);
        if self.is_contiguous() {
            out.data_mut().copy_from_slice(self.data());
            return;
        }
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(self.row(i));
        }
    }

    /// Returns the transpose as an owned matrix (blocked copy, same
    /// algorithm as [`Mat::transpose`]).
    pub fn transpose(self) -> Mat {
        let mut t = Mat::zeros(0, 0);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into `out` (resized to `cols × rows`).
    pub fn transpose_into(self, out: &mut Mat) {
        out.resize_zeroed(self.cols, self.rows);
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        out.set(j, i, self.at(i, j));
                    }
                }
            }
        }
    }

    /// Squared Frobenius norm. Iterates entries in row-major logical order,
    /// so the result is bit-identical to [`Mat::fro_norm_sq`] on the
    /// materialized view.
    pub fn fro_norm_sq(self) -> f64 {
        if self.is_contiguous() {
            return self.data().iter().map(|&x| x * x).sum();
        }
        let mut total = 0.0;
        for i in 0..self.rows {
            for &x in self.row(i) {
                total += x * x;
            }
        }
        total
    }

    /// Frobenius norm.
    pub fn fro_norm(self) -> f64 {
        self.fro_norm_sq().sqrt()
    }

    /// Fused squared Frobenius distance `‖self − other‖²_F` without
    /// materializing the difference. The subtract/square/accumulate
    /// sequence runs in row-major logical order — identical to
    /// `(self − other).fro_norm_sq()` bit for bit — and this is the single
    /// shared implementation every convergence/fitness check uses, so the
    /// ordering guarantee lives in exactly one place.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn diff_norm_sq(self, other: impl AsMatRef) -> f64 {
        let other = other.as_mat_ref();
        assert_eq!(self.shape(), other.shape(), "diff_norm_sq: shape mismatch");
        let mut total = 0.0;
        for i in 0..self.rows {
            for (&x, &y) in self.row(i).iter().zip(other.row(i)) {
                let d = x - y;
                total += d * d;
            }
        }
        total
    }

    /// Largest absolute entry (0 for empty views).
    pub fn max_abs(self) -> f64 {
        let mut best = 0.0f64;
        for i in 0..self.rows {
            for &x in self.row(i) {
                best = best.max(x.abs());
            }
        }
        best
    }

    /// Vector-matrix product `Aᵀ · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: length mismatch");
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        out
    }
}

impl<'a> MatMut<'a> {
    /// A contiguous `rows × cols` mutable view over `data`.
    ///
    /// # Panics
    /// Panics if `data.len() < rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &'a mut [f64]) -> Self {
        Self::from_parts(rows, cols, cols, data)
    }

    /// A strided mutable view: row `i` spans `data[i * row_stride..][..cols]`.
    ///
    /// # Panics
    /// Panics if `row_stride < cols` or the last addressed entry is out of
    /// bounds.
    pub fn from_parts(rows: usize, cols: usize, row_stride: usize, data: &'a mut [f64]) -> Self {
        check_view(rows, cols, row_stride, data.len());
        MatMut { rows, cols, row_stride, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Distance (in elements) between the starts of consecutive rows.
    #[inline]
    pub fn row_stride(&self) -> usize {
        self.row_stride
    }

    /// Shared view of the same block.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef { rows: self.rows, cols: self.cols, row_stride: self.row_stride, data: self.data }
    }

    /// Reborrows the view mutably (for passing to helpers without moving).
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut { rows: self.rows, cols: self.cols, row_stride: self.row_stride, data: self.data }
    }

    /// Entry `(i, j)` (debug-asserted bounds).
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j]
    }

    /// Writes entry `(i, j)` (debug-asserted bounds).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.row_stride + j] = v;
    }

    /// Row `i` as a contiguous mutable slice of length `cols`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        if self.cols == 0 {
            return &mut [];
        }
        &mut self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// Row `i` as a shared slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        if self.cols == 0 {
            return &[];
        }
        &self.data[i * self.row_stride..i * self.row_stride + self.cols]
    }

    /// Fills every logical entry with `v` (strided-safe).
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Copies `src` into this view.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn copy_from(&mut self, src: impl AsMatRef) {
        let src = src.as_mat_ref();
        assert_eq!(self.shape(), src.shape(), "MatMut::copy_from: shape mismatch");
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Zero-copy mutable sub-block of `rows r0..r1`, `cols c0..c1`.
    ///
    /// # Panics
    /// Panics if the block is out of bounds.
    pub fn submatrix_mut(self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'a> {
        assert!(
            r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols,
            "submatrix_mut out of bounds"
        );
        // Empty blocks borrow an empty slice (their start offset may lie
        // past the parent's last addressed entry).
        let (start, end) = if r1 > r0 && c1 > c0 {
            let s = r0 * self.row_stride + c0;
            (s, s + (r1 - 1 - r0) * self.row_stride + (c1 - c0))
        } else {
            (0, 0)
        };
        MatMut {
            rows: r1 - r0,
            cols: c1 - c0,
            row_stride: self.row_stride,
            data: &mut self.data[start..end],
        }
    }
}

/// Conversion bound accepted by every view-based linalg entry point.
///
/// `&Mat`, [`MatRef`] (by value — it is `Copy`), `&MatRef`, and `&MatMut`
/// all satisfy it, which is what lets pre-view call sites keep compiling
/// against the view-based signatures.
pub trait AsMatRef {
    /// The shared view of this matrix-like value.
    fn as_mat_ref(&self) -> MatRef<'_>;
}

impl AsMatRef for Mat {
    #[inline]
    fn as_mat_ref(&self) -> MatRef<'_> {
        self.view()
    }
}

impl AsMatRef for MatRef<'_> {
    #[inline]
    fn as_mat_ref(&self) -> MatRef<'_> {
        *self
    }
}

impl AsMatRef for MatMut<'_> {
    #[inline]
    fn as_mat_ref(&self) -> MatRef<'_> {
        self.as_ref()
    }
}

impl<T: AsMatRef + ?Sized> AsMatRef for &T {
    #[inline]
    fn as_mat_ref(&self) -> MatRef<'_> {
        (**self).as_mat_ref()
    }
}

// ----------------------------------------------------------------------
// Trait impls: Debug, Index, PartialEq, arithmetic
// ----------------------------------------------------------------------

impl fmt::Debug for MatRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatRef")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_stride", &self.row_stride)
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for MatMut<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatMut")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("row_stride", &self.row_stride)
            .finish_non_exhaustive()
    }
}

impl Index<(usize, usize)> for MatRef<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.row_stride + j]
    }
}

/// Logical (entry-wise) equality, stride-agnostic.
fn view_eq(a: MatRef<'_>, b: MatRef<'_>) -> bool {
    a.shape() == b.shape() && (0..a.rows()).all(|i| a.row(i) == b.row(i))
}

impl PartialEq for MatRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        view_eq(*self, *other)
    }
}

impl PartialEq<Mat> for MatRef<'_> {
    fn eq(&self, other: &Mat) -> bool {
        view_eq(*self, other.view())
    }
}

impl PartialEq<MatRef<'_>> for Mat {
    fn eq(&self, other: &MatRef<'_>) -> bool {
        view_eq(self.view(), *other)
    }
}

/// Element-wise combination of two equal-shape views into a fresh `Mat`.
fn zip_views(a: MatRef<'_>, b: MatRef<'_>, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Mat {
    assert_eq!(a.shape(), b.shape(), "{op}: shape mismatch");
    let mut out = Mat::zeros(a.rows(), a.cols());
    for i in 0..a.rows() {
        for ((o, &x), &y) in out.row_mut(i).iter_mut().zip(a.row(i)).zip(b.row(i)) {
            *o = f(x, y);
        }
    }
    out
}

impl std::ops::Sub for MatRef<'_> {
    type Output = Mat;
    fn sub(self, rhs: MatRef<'_>) -> Mat {
        zip_views(self, rhs, "sub", |x, y| x - y)
    }
}

impl std::ops::Sub<&Mat> for MatRef<'_> {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        zip_views(self, rhs.view(), "sub", |x, y| x - y)
    }
}

impl std::ops::Sub<MatRef<'_>> for &Mat {
    type Output = Mat;
    fn sub(self, rhs: MatRef<'_>) -> Mat {
        zip_views(self.view(), rhs, "sub", |x, y| x - y)
    }
}

impl std::ops::Add for MatRef<'_> {
    type Output = Mat;
    fn add(self, rhs: MatRef<'_>) -> Mat {
        zip_views(self, rhs, "add", |x, y| x + y)
    }
}

impl std::ops::Add<&Mat> for MatRef<'_> {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        zip_views(self, rhs.view(), "add", |x, y| x + y)
    }
}

impl std::ops::Add<MatRef<'_>> for &Mat {
    type Output = Mat;
    fn add(self, rhs: MatRef<'_>) -> Mat {
        zip_views(self.view(), rhs, "add", |x, y| x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Mat {
        Mat::from_fn(4, 5, |i, j| (i * 5 + j) as f64)
    }

    #[test]
    fn whole_matrix_view_roundtrip() {
        let m = sample();
        let v = m.view();
        assert_eq!(v.shape(), (4, 5));
        assert!(v.is_contiguous());
        assert_eq!(v.data(), m.data());
        assert_eq!(v.to_mat(), m);
        assert_eq!(v, m);
    }

    #[test]
    fn strided_submatrix_entries() {
        let m = sample();
        let v = m.subview(1, 3, 2, 5);
        assert_eq!(v.shape(), (2, 3));
        assert_eq!(v.row_stride(), 5);
        assert!(!v.is_contiguous());
        assert_eq!(v.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(v.row(1), &[12.0, 13.0, 14.0]);
        assert_eq!(v.at(1, 2), 14.0);
        assert_eq!(v[(0, 1)], 8.0);
        // Matches the copying `block` extractor bitwise.
        assert_eq!(v.to_mat(), m.block(1, 3, 2, 5));
    }

    #[test]
    fn nested_submatrix() {
        let m = sample();
        let v = m.subview(0, 4, 1, 5).submatrix(1, 3, 1, 3);
        assert_eq!(v.to_mat(), m.block(1, 3, 2, 4));
    }

    #[test]
    fn norms_match_materialized() {
        let m = sample();
        let v = m.subview(0, 3, 1, 4);
        let owned = v.to_mat();
        assert_eq!(v.fro_norm_sq().to_bits(), owned.fro_norm_sq().to_bits());
        assert_eq!(v.max_abs(), owned.max_abs());
    }

    #[test]
    fn transpose_matches_owned() {
        let m = sample();
        assert_eq!(m.view().transpose(), m.transpose());
        let v = m.subview(1, 4, 0, 3);
        assert_eq!(v.transpose(), v.to_mat().transpose());
    }

    #[test]
    fn matmut_write_through() {
        let mut m = Mat::zeros(3, 4);
        {
            let mut v = m.view_mut().submatrix_mut(1, 3, 1, 3);
            v.fill(2.0);
            v.set(0, 0, 9.0);
        }
        assert_eq!(m[(1, 1)], 9.0);
        assert_eq!(m[(2, 2)], 2.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 3)], 0.0);
    }

    #[test]
    fn matmut_copy_from_strided() {
        let src = sample();
        let mut dst = Mat::zeros(2, 3);
        dst.view_mut().copy_from(src.subview(1, 3, 2, 5));
        assert_eq!(dst, src.block(1, 3, 2, 5));
    }

    #[test]
    fn empty_views() {
        let m = Mat::zeros(0, 0);
        let v = m.view();
        assert!(v.is_empty());
        assert_eq!(v.fro_norm_sq(), 0.0);
        let s = sample();
        let e = s.subview(2, 2, 1, 4);
        assert_eq!(e.shape(), (0, 3));
        assert_eq!(e.to_mat(), Mat::zeros(0, 3));
    }

    #[test]
    fn add_sub_operators() {
        let m = sample();
        let a = m.subview(0, 2, 0, 3);
        let b = m.subview(2, 4, 2, 5);
        let sum = a + b;
        let diff = a - b;
        assert_eq!(&sum - b, a.to_mat());
        assert_eq!(&sum - &diff.map(|x| -x), &(a.to_mat()) + &a.to_mat());
        assert_eq!(a - &a.to_mat(), Mat::zeros(2, 3));
    }

    #[test]
    fn matvec_t_on_views() {
        let m = sample();
        let v = m.subview(1, 3, 1, 4);
        let y = [1.0, -1.0];
        assert_eq!(v.matvec_t(&y), v.to_mat().matvec_t(&y));
    }

    #[test]
    #[should_panic(expected = "strided")]
    fn data_on_strided_view_panics() {
        let m = sample();
        let _ = m.subview(0, 2, 0, 3).data();
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn oversized_view_panics() {
        let buf = vec![0.0; 5];
        let _ = MatRef::from_slice(2, 3, &buf);
    }
}
