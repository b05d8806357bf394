//! Row-major dense `f64` matrix.
//!
//! [`Mat`] is the single data type flowing through every algorithm in this
//! repository: tensor slices, factor matrices, compressed SVD factors. It is
//! deliberately plain — a `Vec<f64>` plus a shape — so the cost model of the
//! DPar2 paper (flop counts proportional to `I·J·R` etc.) maps directly onto
//! the loops here.
//!
//! Every dense product goes through one entry point, [`gemm`]
//! (`C = op(A)·op(B)` for any transpose pair, into a caller-owned output,
//! on a [`ThreadPool`]), or through [`product`], its serial allocating
//! form. Both panic on an inner-dimension mismatch.

use crate::error::{LinalgError, Result};
use crate::kernel::{self, Trans};
use crate::view::{AsMatRef, MatMut, MatRef};
use dpar2_parallel::ThreadPool;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Default for Mat {
    /// The empty `0 × 0` matrix — the canonical "unsized scratch buffer"
    /// starting state (every `_into` kernel resizes its output).
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

impl Mat {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix of ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square diagonal matrix from `d`.
    pub fn diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Mat::zeros(n, n);
        for (i, &v) in d.iter().enumerate() {
            m.data[i * n + i] = v;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Mat { rows, cols, data }
    }

    /// Builds a matrix from explicit rows. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "Mat::from_rows: row {i} has length {} != {cols}", r.len());
            data.extend_from_slice(r);
        }
        Mat { rows: rows.len(), cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Builds an `n × 1` column vector.
    pub fn col_vector(v: &[f64]) -> Self {
        Mat { rows: v.len(), cols: 1, data: v.to_vec() }
    }

    /// Builds a `1 × n` row vector.
    pub fn row_vector(v: &[f64]) -> Self {
        Mat { rows: 1, cols: v.len(), data: v.to_vec() }
    }

    // ------------------------------------------------------------------
    // Shape and raw access
    // ------------------------------------------------------------------

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

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has zero entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the row-major backing store.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the row-major backing store.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its backing store.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self.data[i * self.cols + j]).collect()
    }

    /// Overwrites row `i` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn set_row(&mut self, i: usize, v: &[f64]) {
        assert_eq!(v.len(), self.cols, "set_row: length mismatch");
        self.row_mut(i).copy_from_slice(v);
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Borrowed contiguous view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatRef<'_> {
        MatRef::from_slice(self.rows, self.cols, &self.data)
    }

    /// Borrowed mutable view of the whole matrix.
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_> {
        MatMut::from_slice(self.rows, self.cols, &mut self.data)
    }

    /// Zero-copy view of the block `rows r0..r1`, `cols c0..c1` (half-open,
    /// strided when the column range is narrower than the matrix). The
    /// borrowing counterpart of [`Mat::block`].
    ///
    /// # Panics
    /// Panics if the block is out of bounds.
    #[inline]
    pub fn subview(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatRef<'_> {
        self.view().submatrix(r0, r1, c0, c1)
    }

    /// Mutable zero-copy view of a block (see [`Mat::subview`]).
    ///
    /// # Panics
    /// Panics if the block is out of bounds.
    #[inline]
    pub fn subview_mut(&mut self, r0: usize, r1: usize, c0: usize, c1: usize) -> MatMut<'_> {
        self.view_mut().submatrix_mut(r0, r1, c0, c1)
    }

    /// Overwrites this matrix with `src`, resizing to match (reuses the
    /// allocation when capacity suffices — the scratch-buffer idiom).
    pub fn copy_from(&mut self, src: impl AsMatRef) {
        src.as_mat_ref().copy_into(self);
    }

    /// Unchecked entry read (debug-asserted). Prefer indexing in cold code.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Unchecked entry write (debug-asserted).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut t = Mat::zeros(self.cols, self.rows);
        // Blocked transpose keeps both source rows and destination rows in
        // cache for large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for i in ib..imax {
                    for j in jb..jmax {
                        t.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        t
    }

    /// Copies the rectangular block `rows r0..r1`, `cols c0..c1` (half-open).
    ///
    /// # Panics
    /// Panics if the block is out of bounds.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Mat {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols, "block out of bounds");
        let mut out = Mat::zeros(r1 - r0, c1 - c0);
        for i in r0..r1 {
            out.row_mut(i - r0).copy_from_slice(&self.row(i)[c0..c1]);
        }
        out
    }

    /// Horizontal concatenation of many matrices with equal row counts.
    ///
    /// This is the `∥` operator of the paper, used to form
    /// `M = ∥_k (C_k B_k)` in DPar2's second compression stage.
    ///
    /// # Panics
    /// Panics if `mats` is empty or row counts differ.
    pub fn hstack_all(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty(), "hstack_all: empty input");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        let mut out = Mat::zeros(rows, cols);
        for i in 0..rows {
            let dst = out.row_mut(i);
            let mut off = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack_all: row count mismatch");
                dst[off..off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
        out
    }

    /// Vertical concatenation of many matrices with equal column counts.
    ///
    /// # Panics
    /// Panics if `mats` is empty or column counts differ.
    pub fn vstack_all(mats: &[&Mat]) -> Mat {
        assert!(!mats.is_empty(), "vstack_all: empty input");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack_all: column count mismatch");
            data.extend_from_slice(&m.data);
        }
        Mat { rows, cols, data }
    }

    /// Column-major vectorization `vec(A)` (MATLAB convention), required by
    /// the identity `vec(AB) = (Bᵀ ⊗ I) vec(A)` used in Lemma 3 of the paper.
    pub fn vec_colmajor(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.len());
        for j in 0..self.cols {
            for i in 0..self.rows {
                v.push(self.data[i * self.cols + j]);
            }
        }
        v
    }

    /// The main diagonal as a vector.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Mat {
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Scales every entry by `s` in place.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Returns `s · self`.
    pub fn scaled(&self, s: f64) -> Mat {
        self.map(|x| x * s)
    }

    /// In-place Hadamard product `self ∗= other` — the allocation-free form
    /// the ALS normal equations use (`WᵀW ∗ VᵀV` on scratch Gram buffers).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn hadamard_assign(&mut self, other: impl AsMatRef) {
        let other = other.as_mat_ref();
        assert_eq!(self.shape(), other.shape(), "hadamard_assign: shape mismatch");
        for i in 0..self.rows {
            for (a, &b) in self.row_mut(i).iter_mut().zip(other.row(i)) {
                *a *= b;
            }
        }
    }

    /// `self += alpha * other` without allocating.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn fro_norm(&self) -> f64 {
        self.fro_norm_sq().sqrt()
    }

    /// Squared Frobenius norm (avoids the final `sqrt` in hot loops).
    pub fn fro_norm_sq(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum()
    }

    /// Largest absolute entry, `max_ij |a_ij|` (0 for empty matrices).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Vector-matrix product `Aᵀ · x` (equivalently `xᵀ A`).
    ///
    /// # Panics
    /// Panics if `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        self.view().matvec_t(x)
    }

    // ------------------------------------------------------------------
    // The benchmark's product shims
    //
    // Every product is [`gemm`] or [`product`]. These four shims over them
    // exist only because the committed benchmark calls them; they go with
    // the next change to the benchmark.
    // ------------------------------------------------------------------

    /// `A · B`, or a typed error on an inner-dimension mismatch. Call
    /// [`product`] instead: this shim exists only because the benchmark
    /// (`perfbench/`) calls it, and goes with the next change to it.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `A.cols != B.rows`.
    pub fn matmul(&self, b: impl AsMatRef) -> Result<Mat> {
        let b = b.as_mat_ref();
        if self.cols != b.rows() {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                left: self.shape(),
                right: b.shape(),
            });
        }
        Ok(product(Trans::N, Trans::N, self, b))
    }

    /// `A · B` into `c`: [`gemm`] on a one-thread pool. A benchmark shim, like
    /// [`Mat::matmul`].
    pub fn matmul_into(&self, b: impl AsMatRef, c: &mut Mat) {
        gemm(Trans::N, Trans::N, self, b, c, &ThreadPool::new(1));
    }

    /// `Aᵀ · B` into `c`: [`gemm`] on a one-thread pool. A benchmark shim, like
    /// [`Mat::matmul`].
    pub fn matmul_tn_into(&self, b: impl AsMatRef, c: &mut Mat) {
        gemm(Trans::T, Trans::N, self, b, c, &ThreadPool::new(1));
    }

    /// `A · Bᵀ` into `c`: [`gemm`] on a one-thread pool. A benchmark shim, like
    /// [`Mat::matmul`].
    pub fn matmul_nt_into(&self, b: impl AsMatRef, c: &mut Mat) {
        gemm(Trans::N, Trans::T, self, b, c, &ThreadPool::new(1));
    }

    /// Reshapes in place to `rows × cols` filled with zeros, reusing the
    /// existing allocation when possible.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshapes in place to `rows × cols` WITHOUT zeroing retained storage
    /// — only for buffers whose every entry is overwritten immediately
    /// after (the copy primitives), where the zero pass of
    /// [`Mat::resize_zeroed`] would double the memory traffic.
    pub(crate) fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let n = rows * cols;
        if self.data.len() != n {
            self.data.clear();
            self.data.resize(n, 0.0);
        }
    }
}

// ----------------------------------------------------------------------
// The dense multiply: one dispatched entry point, and its serial
// allocating form.
// ----------------------------------------------------------------------

/// `C = op(a)·op(b)`, where `op` is the identity or the transpose per
/// [`Trans`] — the one dispatched dense multiply every product in the
/// workspace runs through. `c` is resized and overwritten.
///
/// Products below the [`kernel::use_blocked`] threshold run stride-aware
/// register tiles, all four forms through one tile body. Every entry there
/// is summed over ascending depth from `+0.0`, one multiply and one add
/// per step, never fused: the bits of [`kernel::gemm_naive_into`], which
/// the CSR kernels and [`crate::gemm_lanes`] also give (IEEE-faithful: no
/// `== 0.0` shortcuts, so `0·∞` and `0·NaN` propagate NaN). Larger
/// products take the packed, register-tiled [`kernel::gemm_blocked`],
/// which fans `MC`-row panels of C out over `pool`. The result is
/// bit-identical for every pool size, and a one-thread pool
/// (`ThreadPool::new(1)`, which starts no threads) is the serial path.
///
/// # Panics
/// Panics if the inner dimensions of `op(a)` and `op(b)` differ.
pub fn gemm(
    ta: Trans,
    tb: Trans,
    a: impl AsMatRef,
    b: impl AsMatRef,
    c: &mut Mat,
    pool: &ThreadPool,
) {
    let (a, b) = (a.as_mat_ref(), b.as_mat_ref());
    let (m, kk) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(kk, kb, "gemm: inner dimension mismatch ({m}x{kk} · {kb}x{n})");
    if kernel::use_blocked(m, n, kk) {
        kernel::gemm_blocked(ta, tb, a, b, c, pool);
    } else {
        naive_tiles_dispatch(ta, tb, a, b, c);
    }
}

/// `op(a)·op(b)` in a new matrix: [`gemm`] on a one-thread pool, the same
/// bits. Reuse a buffer, or fan a large product out over a pool, with
/// [`gemm`] itself.
///
/// # Panics
/// Panics, with [`gemm`]'s message, if the inner dimensions of `op(a)` and
/// `op(b)` differ.
pub fn product(ta: Trans, tb: Trans, a: impl AsMatRef, b: impl AsMatRef) -> Mat {
    let mut c = Mat::default();
    gemm(ta, tb, a, b, &mut c, &ThreadPool::new(1));
    c
}

/// `G = XᵀX` (`n×n` for `m×n` `X`) into `g`. Each entry of the upper
/// triangle is one chain over the rows in ascending order from `+0.0`,
/// with no depth blocking: `acc = x_pi.mul_add(x_pj, acc)`, one fused
/// multiply-add per product, ended by `acc + 0.0`. The lower triangle is
/// mirrored (products commute exactly, fused or not). The closing
/// `+ 0.0` turns a `−0` (a negative product that underflowed while the
/// chain was still zero) into `+0` and leaves every other value as it is,
/// so skipping a structural zero stays exact and
/// [`crate::sparse::sparse_gram_into`], which runs the same chain over
/// stored entries, gives a CSR slice's Gram bitwise its densified one.
///
/// The chain runs in register tiles, `8×8` on AVX-512 and `4×8` on
/// AVX2+FMA (the same tile body compiled per width, no intrinsics); every
/// fused build gives the same bits, so the Gram's bits depend on FMA, as
/// the blocked [`gemm`]'s do. A CPU without FMA, and a call inside
/// [`kernel::pinned`] with `portable: true`, run the unfused chain
/// `acc + x_pi·x_pj` instead: the bits of the naive `Xᵀ·X` loops.
pub fn gram_into(x: impl AsMatRef, g: &mut Mat) {
    let x = x.as_mat_ref();
    let n = x.cols();
    g.resize_for_overwrite(n, n);
    gram_upper_dispatch(x, g);
    kernel::mirror_upper(g);
}

/// The upper triangle of [`gram_into`], on the build [`kernel::gram_kernel`]
/// picks.
fn gram_upper_dispatch(x: MatRef<'_>, g: &mut Mat) {
    // SAFETY: `gram_kernel` picks a fused build only after `simd`
    // verified its features on this CPU, the only precondition of the
    // `#[target_feature]` fns.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    match kernel::gram_kernel() {
        kernel::GramKernel::Fused512 => return unsafe { gram_upper_avx512(x, g) },
        kernel::GramKernel::Fused256 => return unsafe { gram_upper_fma(x, g) },
        kernel::GramKernel::Unfused => {}
    }
    tiled::<4, 8, 4, true, false, false>(x, x, g, true);
}

/// The fused [`gram_into`] tile loop compiled for AVX-512: `8×8` tiles,
/// one 512-bit accumulator per row. (The same body at `8×16` falls off
/// the SLP vectorizer and runs 15 times slower.)
///
/// # Safety
/// The CPU must support AVX-512F and FMA (see [`gram_upper_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn gram_upper_avx512(x: MatRef<'_>, g: &mut Mat) {
    tiled::<8, 8, 4, true, false, true>(x, x, g, true);
}

/// The fused [`gram_into`] tile loop compiled for AVX2+FMA: `4×8` tiles.
///
/// # Safety
/// The CPU must support AVX2 and FMA (see [`gram_upper_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn gram_upper_fma(x: MatRef<'_>, g: &mut Mat) {
    tiled::<4, 8, 4, true, false, true>(x, x, g, true);
}

/// One step of an entry's chain: `acc + a·b`, or `a.mul_add(b, acc)`
/// when `FUSED`. Shared by the dense and the CSR kernels, so their chains
/// agree term for term.
#[inline(always)]
pub(crate) fn chain_step<const FUSED: bool>(a: f64, b: f64, acc: f64) -> f64 {
    if FUSED {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The last step of an entry's chain: `+ 0.0` when `FUSED` (see
/// [`gram_into`]); an unfused chain from `+0.0` never reaches `−0`.
#[inline(always)]
pub(crate) fn chain_end<const FUSED: bool>(acc: f64) -> f64 {
    if FUSED {
        acc + 0.0
    } else {
        acc
    }
}

/// `C = op(A)·op(B)` in register tiles, `op(A) = Aᵀ` when `AT` and
/// `op(B) = Bᵀ` when `BT`: row bands of `H` (then single rows), each swept
/// by `W`-wide tiles, then `W2`-wide ones, then single columns. Every
/// entry is one chain over ascending depth from `+0.0` ([`chain_step`],
/// [`chain_end`]), so the tiling never moves a bit. With `upper`, each
/// band starts at the diagonal and `C` is square: its upper triangle (and
/// some entries below the diagonal in the diagonal tiles) are written, for
/// the caller to mirror; otherwise every entry is.
#[inline(always)]
fn tiled<
    const H: usize,
    const W: usize,
    const W2: usize,
    const AT: bool,
    const BT: bool,
    const FUSED: bool,
>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut Mat,
    upper: bool,
) {
    let m = c.rows();
    let mut i0 = 0;
    while i0 + H <= m {
        band::<H, W, W2, AT, BT, FUSED>(a, b, (i0, if upper { i0 } else { 0 }), c);
        i0 += H;
    }
    for i in i0..m {
        band::<1, W, W2, AT, BT, FUSED>(a, b, (i, if upper { i } else { 0 }), c);
    }
}

/// Rows `i0..i0 + H` of [`tiled`]'s `C`, from column `j0` on.
#[inline(always)]
fn band<
    const H: usize,
    const W: usize,
    const W2: usize,
    const AT: bool,
    const BT: bool,
    const FUSED: bool,
>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    (i0, mut j0): (usize, usize),
    c: &mut Mat,
) {
    let n = c.cols();
    while j0 + W <= n {
        tile::<H, W, AT, BT, FUSED>(a, b, (i0, j0), c);
        j0 += W;
    }
    while j0 + W2 <= n {
        tile::<H, W2, AT, BT, FUSED>(a, b, (i0, j0), c);
        j0 += W2;
    }
    for j in j0..n {
        tile::<H, 1, AT, BT, FUSED>(a, b, (i0, j), c);
    }
}

/// One `H×W` tile of [`tiled`]'s `C` at `(i0, j0)`, summed over the whole
/// depth in registers. Column `p` of `op(A)` is column `p` of `A`, or its
/// row `p` when `AT`; row `p` of `op(B)` is row `p` of `B`, or its column
/// `p` when `BT`.
#[inline(always)]
fn tile<const H: usize, const W: usize, const AT: bool, const BT: bool, const FUSED: bool>(
    a: MatRef<'_>,
    b: MatRef<'_>,
    (i0, j0): (usize, usize),
    c: &mut Mat,
) {
    let mut acc = [[0.0; W]; H];
    for p in 0..if BT { b.cols() } else { b.rows() } {
        let bp: [f64; W] = if BT {
            std::array::from_fn(|s| b.at(j0 + s, p))
        } else {
            b.row(p)[j0..j0 + W].try_into().unwrap()
        };
        let ap: [f64; H] = if AT {
            a.row(p)[i0..i0 + H].try_into().unwrap()
        } else {
            std::array::from_fn(|r| a.at(i0 + r, p))
        };
        for (accr, &ar) in acc.iter_mut().zip(&ap) {
            for (cv, &bv) in accr.iter_mut().zip(&bp) {
                *cv = chain_step::<FUSED>(ar, bv, *cv);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        for (cv, &v) in c.row_mut(i0 + r)[j0..j0 + W].iter_mut().zip(accr) {
            *cv = chain_end::<FUSED>(v);
        }
    }
}

/// The naive path of [`gemm`]: every form in [`tiled`] `4×8`, then `4×4`
/// tiles, then single columns, each entry summed over ascending depth from
/// `+0.0` with a separate multiply and add (the order of
/// [`kernel::gemm_naive_into`]), on the AVX2 build when the CPU has it,
/// else the portable one (same bits).
fn naive_tiles_dispatch(ta: Trans, tb: Trans, a: MatRef<'_>, b: MatRef<'_>, c: &mut Mat) {
    c.resize_for_overwrite(ta.dims(a).0, tb.dims(b).1);
    #[cfg(target_arch = "x86_64")]
    if kernel::simd().avx2 {
        // SAFETY: `simd` verified AVX2 support on this CPU, which is the
        // only precondition of the `#[target_feature]` fn.
        #[allow(unsafe_code)]
        unsafe {
            naive_tiles_avx2(ta, tb, a, b, c)
        };
        return;
    }
    naive_tiles(ta, tb, a, b, c);
}

/// [`naive_tiles`] compiled for AVX2 (no intrinsics: the same loop, four
/// lanes wide).
///
/// # Safety
/// The CPU must support AVX2 (see [`naive_tiles_dispatch`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn naive_tiles_avx2(ta: Trans, tb: Trans, a: MatRef<'_>, b: MatRef<'_>, c: &mut Mat) {
    naive_tiles(ta, tb, a, b, c);
}

/// The unfused tile loop of [`naive_tiles_dispatch`] on a `C` of the
/// product's shape.
#[inline(always)]
fn naive_tiles(ta: Trans, tb: Trans, a: MatRef<'_>, b: MatRef<'_>, c: &mut Mat) {
    match (ta, tb) {
        (Trans::N, Trans::N) => tiled::<4, 8, 4, false, false, false>(a, b, c, false),
        (Trans::T, Trans::N) => tiled::<4, 8, 4, true, false, false>(a, b, c, false),
        (Trans::N, Trans::T) => tiled::<4, 8, 4, false, true, false>(a, b, c, false),
        (Trans::T, Trans::T) => tiled::<4, 8, 4, true, true, false>(a, b, c, false),
    }
}

// ----------------------------------------------------------------------
// Operator impls
// ----------------------------------------------------------------------

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Mat {
    type Output = Mat;
    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "add: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }
}

impl Sub for &Mat {
    type Output = Mat;
    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(self.shape(), rhs.shape(), "sub: shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Mat { rows: self.rows, cols: self.cols, data }
    }
}

impl AddAssign<&Mat> for Mat {
    fn add_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Mat> for Mat {
    fn sub_assign(&mut self, rhs: &Mat) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Neg for &Mat {
    type Output = Mat;
    fn neg(self) -> Mat {
        self.map(|x| -x)
    }
}

impl Mul<f64> for &Mat {
    type Output = Mat;
    fn mul(self, s: f64) -> Mat {
        self.scaled(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abcd() -> Mat {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    /// Bitwise equal, or NaN where the oracle is NaN (a propagated NaN's
    /// sign and payload depend on the operand order the codegen picks).
    fn assert_same(got: &Mat, want: &Mat, ctx: &str) {
        assert_eq!(got.shape(), want.shape(), "{ctx}");
        for (idx, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan(),
                "{ctx}: [{idx}] {x:e} vs {y:e}"
            );
        }
    }

    /// The fused chain of [`gram_into`], one entry at a time: the oracle
    /// of its tiles.
    fn fused_gram_oracle(x: MatRef<'_>) -> Mat {
        Mat::from_fn(x.cols(), x.cols(), |i, j| {
            let (i, j) = (i.min(j), i.max(j));
            (0..x.rows()).fold(0.0, |acc: f64, p| x.at(p, i).mul_add(x.at(p, j), acc)) + 0.0
        })
    }

    /// `m × n` Gram inputs over `2^-9..2^9`, with `±0`, subnormals and
    /// `±2^-560` (whose products underflow, to `−0` when negative) mixed
    /// in; with `special`, also an `∞`, a `−∞` and a NaN.
    fn gram_input(m: usize, n: usize, special: bool) -> Mat {
        let mut x = Mat::from_fn(m, n, |i, j| {
            let t = i * 31 + j * 17;
            match t % 23 {
                0 => -0.0,
                1 => 0.0,
                2 => 5e-324,
                3 => -3.2e-310,
                4 => 2f64.powi(-560),
                5 => -(2f64.powi(-560)),
                _ => (t as f64).sin() * 2f64.powi(j as i32 % 19 - 9),
            }
        });
        if special {
            x.set(m / 2, n - 1, f64::INFINITY);
            x.set(m - 1, 0, f64::NEG_INFINITY);
            x.set(0, n / 2, f64::NAN);
        }
        x
    }

    /// The Gram cases: every column count `1..=40` (each ragged edge of
    /// the `8×8`, `4×8` and `4×4` tiles) at 0, 1, 7 and 300 rows, 88
    /// columns, and special values at a few shapes.
    fn gram_cases() -> Vec<Mat> {
        let mut cases = Vec::new();
        for n in 1..=40 {
            for m in [0, 1, 7, 300] {
                cases.push(gram_input(m, n, false));
            }
        }
        cases.push(gram_input(25, 88, false));
        for (m, n) in [(1, 3), (7, 17), (30, 40), (300, 24)] {
            cases.push(gram_input(m, n, true));
        }
        cases
    }

    /// The upper triangle of one tile loop's Gram, mirrored.
    fn gram_by(upper: impl Fn(MatRef<'_>, &mut Mat), x: MatRef<'_>) -> Mat {
        let mut g = Mat::zeros(x.cols(), x.cols());
        upper(x, &mut g);
        kernel::mirror_upper(&mut g);
        g
    }

    #[test]
    fn gram_kernels_match_the_naive_order() {
        // The dispatched Gram gives the fused chain's bits on an FMA CPU
        // and the naive `XᵀX` loops' bits without FMA or under the
        // portable pin, as does the unfused tile loop itself, across
        // ragged tile edges, special values and a strided view.
        let host = Mat::from_fn(20, 30, |i, j| ((i * 7 + j) as f64).cos());
        let view = host.view().submatrix(2, 19, 3, 24);
        for x in gram_cases().iter().map(Mat::view).chain([view]) {
            let ctx = format!("{}x{}", x.rows(), x.cols());
            let mut naive = Mat::default();
            kernel::gemm_naive_into(Trans::T, Trans::N, x, x, &mut naive);
            let mut got = Mat::default();
            gram_into(x, &mut got);
            if kernel::gram_kernel().fused() {
                assert_same(&got, &fused_gram_oracle(x), &format!("{ctx} dispatched"));
            } else {
                assert_same(&got, &naive, &format!("{ctx} dispatched"));
            }
            let portable = kernel::Pin { portable: true, ..Default::default() };
            kernel::pinned(portable, || gram_into(x, &mut got));
            assert_same(&got, &naive, &format!("{ctx} pinned portable"));
            let unfused = gram_by(|x, g| tiled::<4, 8, 4, true, false, false>(x, x, g, true), x);
            assert_same(&unfused, &naive, &format!("{ctx} unfused tiles"));
        }
    }

    #[test]
    fn fused_gram_builds_match_the_scalar_oracle() {
        // Every fused build the CPU has, and the fused tile body at both
        // tile shapes without them (`mul_add` then calls libm's `fma`:
        // the same bits), against the scalar `mul_add` chain.
        let host = Mat::from_fn(40, 60, |i, j| ((i * 3 + j * 5) as f64).sin());
        let view = host.view().submatrix(3, 38, 7, 44);
        let simd = kernel::simd();
        for x in gram_cases().iter().map(Mat::view).chain([view]) {
            let ctx = format!("{}x{}", x.rows(), x.cols());
            let want = fused_gram_oracle(x);
            let got = gram_by(|x, g| tiled::<8, 8, 4, true, false, true>(x, x, g, true), x);
            assert_same(&got, &want, &format!("{ctx} 8x8 body"));
            let got = gram_by(|x, g| tiled::<4, 8, 4, true, false, true>(x, x, g, true), x);
            assert_same(&got, &want, &format!("{ctx} 4x8 body"));
            #[cfg(target_arch = "x86_64")]
            {
                // SAFETY: each build runs only where `simd` verified its
                // features.
                #[allow(unsafe_code)]
                if simd.avx512 {
                    let got = gram_by(|x, g| unsafe { gram_upper_avx512(x, g) }, x);
                    assert_same(&got, &want, &format!("{ctx} AVX-512 build"));
                }
                #[allow(unsafe_code)]
                if simd.avx2 && simd.fma {
                    let got = gram_by(|x, g| unsafe { gram_upper_fma(x, g) }, x);
                    assert_same(&got, &want, &format!("{ctx} AVX2+FMA build"));
                }
            }
        }
        let _ = simd; // only read on x86-64
    }

    #[test]
    fn naive_product_tiles_match_the_reference() {
        // All four `(ta, tb)` forms in 4×8, 4×4 and single-column tiles, on
        // the portable and the AVX2 build and through `gemm`, against the
        // reference loops bit for bit: every row count around the 4-row
        // bands, column counts around the 8- and 4-wide tiles, depths 0 to
        // 25, a strided `B` (stored as is or transposed), and a 0·∞
        // product that must be NaN.
        let host = Mat::from_fn(30, 40, |i, j| ((i * 11 + j * 3) as f64).cos());
        let host_t = host.transpose();
        for m in [1, 2, 3, 4, 5, 7, 8, 9, 13] {
            for n in [1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 20] {
                for k in [0, 1, 2, 5, 24, 25] {
                    let mut a = Mat::from_fn(m, k, |i, p| ((i * 5 + p * 7) as f64).sin() * 3.0);
                    let mut b = host.view().submatrix(3, 3 + k, 2, 2 + n);
                    let mut bt = host_t.view().submatrix(2, 2 + n, 3, 3 + k);
                    let (mut special, special_t);
                    if k > 1 {
                        // A zero meeting an ∞ at depth 1 of entry (m-1, n-1).
                        a.set(m - 1, 1, 0.0);
                        special = b.to_mat();
                        special.set(1, n - 1, f64::INFINITY);
                        special_t = special.transpose();
                        (b, bt) = (special.view(), special_t.view());
                    }
                    let at = a.transpose();
                    for (ta, a) in [(Trans::N, a.view()), (Trans::T, at.view())] {
                        for (tb, b) in [(Trans::N, b), (Trans::T, bt)] {
                            let ctx = format!("{ta:?}{tb:?} {m}x{n}x{k}");
                            let mut want = Mat::default();
                            kernel::gemm_naive_into(ta, tb, a, b, &mut want);
                            if k > 1 {
                                assert!(want.at(m - 1, n - 1).is_nan(), "{ctx}: no 0·∞ cell");
                            }
                            let mut got = Mat::zeros(m, n);
                            naive_tiles(ta, tb, a, b, &mut got);
                            assert_same(&got, &want, &format!("{ctx} portable"));
                            #[cfg(target_arch = "x86_64")]
                            if kernel::simd().avx2 {
                                let mut got = Mat::zeros(m, n);
                                // SAFETY: `simd` verified AVX2 support.
                                #[allow(unsafe_code)]
                                unsafe {
                                    naive_tiles_avx2(ta, tb, a, b, &mut got)
                                };
                                assert_same(&got, &want, &format!("{ctx} AVX2"));
                            }
                            gemm(ta, tb, a, b, &mut got, &ThreadPool::new(1));
                            if !kernel::use_blocked(m, n, k) {
                                assert_same(&got, &want, &format!("{ctx} gemm"));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zeros_ones_eye_diag() {
        assert_eq!(Mat::zeros(2, 3).data(), &[0.0; 6]);
        assert_eq!(Mat::ones(1, 2).data(), &[1.0, 1.0]);
        let i = Mat::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Mat::diag(&[2.0, 5.0]);
        assert_eq!(d[(1, 1)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn from_fn_indexing() {
        let m = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
        assert_eq!(m.col(2), vec![2.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = abcd();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(7, 13, |i, j| (i * 100 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 5)], m[(5, 4)]);
    }

    #[test]
    fn transpose_blocked_large() {
        let m = Mat::from_fn(70, 41, |i, j| (i as f64).sin() + (j as f64).cos());
        let t = m.transpose();
        for i in 0..70 {
            for j in 0..41 {
                assert_eq!(t[(j, i)], m[(i, j)]);
            }
        }
    }

    #[test]
    fn matmul_small() {
        let a = abcd();
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = product(Trans::N, Trans::N, &a, &b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_fn(4, 4, |i, j| (i + j) as f64);
        let i = Mat::eye(4);
        assert_eq!(product(Trans::N, Trans::N, &a, &i), a);
        assert_eq!(product(Trans::N, Trans::N, &i, &a), a);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "gemm: inner dimension mismatch (2x3 · 2x3)")]
    fn product_panics_with_the_gemm_message_on_a_mismatch() {
        product(Trans::N, Trans::N, Mat::zeros(2, 3), Mat::zeros(2, 3));
    }

    #[test]
    fn benchmark_shims_give_the_gemm_bits() {
        // The four product methods the benchmark calls, on both sides of
        // the blocked threshold, against `gemm` into a buffer; and
        // `matmul`'s typed error on a mismatch.
        for (m, n, k) in [(9, 5, 7), (150, 50, 40)] {
            let a = Mat::from_fn(m, k, |i, j| ((i * 3 + j) as f64).sin());
            let b = Mat::from_fn(k, n, |i, j| ((i + 7 * j) as f64).cos());
            let (at, bt) = (a.transpose(), b.transpose());
            let mut got = a.matmul(&b).unwrap();
            assert_same(&got, &gemm_on(Trans::N, Trans::N, &a, &b, 1), "matmul");
            a.matmul_into(&b, &mut got);
            assert_same(&got, &gemm_on(Trans::N, Trans::N, &a, &b, 1), "matmul_into");
            at.matmul_tn_into(&b, &mut got);
            assert_same(&got, &gemm_on(Trans::T, Trans::N, &at, &b, 1), "matmul_tn_into");
            a.matmul_nt_into(&bt, &mut got);
            assert_same(&got, &gemm_on(Trans::N, Trans::T, &a, &bt, 1), "matmul_nt_into");
            let err = a.matmul(&a).unwrap_err();
            let want = LinalgError::DimensionMismatch { op: "matmul", left: (m, k), right: (m, k) };
            assert_eq!(err, want);
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Mat::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Mat::from_fn(5, 4, |i, j| (i + 2 * j) as f64);
        let expected = product(Trans::N, Trans::N, a.transpose(), &b);
        let got = product(Trans::T, Trans::N, &a, &b);
        assert!((&expected - &got).fro_norm() < 1e-12);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Mat::from_fn(4, 6, |i, j| ((i + 1) * (j + 2)) as f64);
        let b = Mat::from_fn(3, 6, |i, j| (i as f64) - (j as f64));
        let expected = product(Trans::N, Trans::N, &a, b.transpose());
        let got = product(Trans::N, Trans::T, &a, &b);
        assert!((&expected - &got).fro_norm() < 1e-12);
    }

    /// `C = op(a)·op(b)` through [`gemm`] on a fresh `threads`-worker pool.
    fn gemm_on(ta: Trans, tb: Trans, a: &Mat, b: &Mat, threads: usize) -> Mat {
        let mut c = Mat::default();
        gemm(ta, tb, a, b, &mut c, &ThreadPool::new(threads));
        c
    }

    #[test]
    fn matmul_tt_matches_explicit_transposes() {
        let a = Mat::from_fn(6, 4, |i, j| (i * 4 + j) as f64 * 0.25);
        let b = Mat::from_fn(5, 6, |i, j| (i as f64) - 0.5 * (j as f64));
        let expected = product(Trans::N, Trans::N, a.transpose(), b.transpose());
        let got = product(Trans::T, Trans::T, &a, &b);
        assert!((&expected - &got).fro_norm() < 1e-12);
        let mismatch =
            std::panic::catch_unwind(|| gemm_on(Trans::T, Trans::T, &a, &Mat::eye(3), 1));
        assert!(mismatch.is_err(), "gemm must reject an inner-dimension mismatch");
    }

    #[test]
    fn pooled_variants_bitwise_equal_serial() {
        // 150 output rows > the MC = 120 row-panel unit, so the pooled arm
        // genuinely fans out over multiple workers (not the serial
        // fallback) in every variant below.
        let a = Mat::from_fn(150, 40, |i, j| ((i * 3 + j) as f64).sin());
        let b = Mat::from_fn(40, 50, |i, j| ((i + 7 * j) as f64).cos());
        // Aᵀ·B with a 40×150 A: output 150×150.
        let at = a.transpose();
        let b2 = Mat::from_fn(50, 40, |i, j| ((2 * i + j) as f64).sin());
        let tall = Mat::from_fn(60, 150, |i, j| ((i + j) as f64).cos());
        let nn = product(Trans::N, Trans::N, &a, &b);
        let tn = product(Trans::T, Trans::N, &at, &b);
        let nt = product(Trans::N, Trans::T, &a, &a);
        let tt = gemm_on(Trans::T, Trans::T, &at, &b2, 1);
        let g = product(Trans::T, Trans::N, &tall, &tall);
        for threads in [1, 2, 3] {
            assert_eq!(nn, gemm_on(Trans::N, Trans::N, &a, &b, threads), "nn at {threads}");
            assert_eq!(tn, gemm_on(Trans::T, Trans::N, &at, &b, threads), "tn at {threads}");
            assert_eq!(nt, gemm_on(Trans::N, Trans::T, &a, &a, threads), "nt at {threads}");
            assert_eq!(tt, gemm_on(Trans::T, Trans::T, &at, &b2, threads), "tt at {threads}");
            assert_eq!(g, gemm_on(Trans::T, Trans::N, &tall, &tall, threads), "gram at {threads}");
        }
    }

    #[test]
    fn gram_bitwise_equals_matmul_tn() {
        // Shapes on both sides of the blocked-dispatch threshold, with
        // 0 and ±∞ entries so `0·∞ = NaN` cells are part of the pin.
        for (rows, cols, blocked) in [(3, 3, false), (9, 5, false), (30, 30, true), (150, 40, true)]
        {
            assert_eq!(kernel::use_blocked(cols, cols, rows), blocked, "{rows}x{cols} dispatch");
            let mut a = Mat::from_fn(rows, cols, |i, j| ((i * 5 + j * 3) as f64).sin());
            a.set(0, 0, 0.0);
            a.set(rows - 1, 1, f64::INFINITY);
            a.set(rows / 2, cols - 1, f64::NEG_INFINITY);
            a.set(rows - 1, cols - 1, 0.0);
            let g = product(Trans::T, Trans::N, &a, &a);
            let tn = gemm_on(Trans::T, Trans::N, &a, &a, 1);
            assert!(g.data().iter().any(|x| x.is_nan()), "{rows}x{cols}: no 0·∞ cell");
            assert_eq!(g.shape(), tn.shape());
            for (idx, (x, y)) in g.data().iter().zip(tn.data()).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{rows}x{cols}: entry {idx}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn ieee_zero_times_infinity_propagates_nan() {
        // Regression: the old kernels skipped `a == 0.0` multiplicands,
        // silently dropping the IEEE-mandated `0·∞ = NaN` / `0·NaN = NaN`.
        let a = Mat::from_rows(&[&[0.0, 1.0]]);
        let b_inf = Mat::from_rows(&[&[f64::INFINITY], &[2.0]]);
        let b_nan = Mat::from_rows(&[&[f64::NAN], &[2.0]]);
        assert!(product(Trans::N, Trans::N, &a, &b_inf)[(0, 0)].is_nan());
        assert!(product(Trans::N, Trans::N, &a, &b_nan)[(0, 0)].is_nan());

        // Same contract for the other variants.
        let at = a.transpose(); // 2×1
        assert!(product(Trans::T, Trans::N, &at, &b_inf)[(0, 0)].is_nan());
        assert!(product(Trans::N, Trans::T, &a, b_inf.transpose())[(0, 0)].is_nan());
        assert!(gemm_on(Trans::T, Trans::T, &at, &b_inf.transpose(), 1)[(0, 0)].is_nan());
        assert!(!a.matvec_t(&[0.0])[0].is_nan()); // 0·0 stays 0
        let inf_row = Mat::from_rows(&[&[f64::INFINITY, 1.0]]);
        assert!(inf_row.matvec_t(&[0.0])[0].is_nan());
    }

    #[test]
    fn ieee_gram_with_zero_and_infinity() {
        // A = [0  ∞]: AᵀA = [[0·0, 0·∞], [∞·0, ∞·∞]] = [[0, NaN], [NaN, ∞]].
        let a = Mat::from_rows(&[&[0.0, f64::INFINITY]]);
        let g = product(Trans::T, Trans::N, &a, &a);
        assert_eq!(g[(0, 0)], 0.0);
        assert!(g[(0, 1)].is_nan());
        assert!(g[(1, 0)].is_nan());
        assert_eq!(g[(1, 1)], f64::INFINITY);
    }

    #[test]
    fn matmul_into_reuses_buffer() {
        let a = abcd();
        let b = Mat::eye(2);
        let mut c = Mat::zeros(7, 9); // wrong shape on purpose
        gemm(Trans::N, Trans::N, &a, &b, &mut c, &ThreadPool::new(1));
        assert_eq!(c, a);
    }

    #[test]
    fn matvec_t_sums_scaled_rows() {
        let a = abcd();
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn gram_is_ata() {
        let a = Mat::from_fn(6, 3, |i, j| ((i * j) as f64).sin() + 1.0);
        let g = product(Trans::T, Trans::N, &a, &a);
        let explicit = product(Trans::N, Trans::N, a.transpose(), &a);
        assert!((&g - &explicit).fro_norm() < 1e-12);
        // symmetry
        assert!((&g - &g.transpose()).fro_norm() < 1e-12);
    }

    #[test]
    fn hstack_vstack() {
        let a = abcd();
        let b = Mat::from_rows(&[&[9.0], &[8.0]]);
        let h = Mat::hstack_all(&[&a, &b]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.row(0), &[1.0, 2.0, 9.0]);
        let v = Mat::vstack_all(&[&a, &Mat::from_rows(&[&[5.0, 6.0]])]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn hstack_all_matches_pairwise() {
        let a = abcd();
        let b = Mat::from_rows(&[&[0.5], &[0.25]]);
        let c = Mat::from_rows(&[&[7.0, 7.5], &[8.0, 8.5]]);
        let all = Mat::hstack_all(&[&a, &b, &c]);
        let pair = Mat::hstack_all(&[&Mat::hstack_all(&[&a, &b]), &c]);
        assert_eq!(all, pair);
    }

    #[test]
    fn vstack_all_matches_pairwise() {
        let a = abcd();
        let b = Mat::from_rows(&[&[0.0, 1.0]]);
        let all = Mat::vstack_all(&[&a, &b]);
        assert_eq!(all, Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[0.0, 1.0]]));
    }

    #[test]
    fn block_extraction() {
        let m = Mat::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let b = m.block(1, 3, 2, 5);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(b.row(1), &[12.0, 13.0, 14.0]);
    }

    #[test]
    fn vec_colmajor_matches_matlab_convention() {
        // MATLAB: A = [1 2; 3 4]; A(:) == [1; 3; 2; 4]
        let v = abcd().vec_colmajor();
        assert_eq!(v, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn hadamard_and_errors() {
        let a = abcd();
        let mut h = a.clone();
        h.hadamard_assign(&a);
        assert_eq!(h.data(), &[1.0, 4.0, 9.0, 16.0]);
        assert!(std::panic::catch_unwind(|| abcd().hadamard_assign(Mat::zeros(3, 3))).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = abcd();
        let b = Mat::ones(2, 2);
        a.axpy(2.0, &b);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn norms() {
        let a = Mat::from_rows(&[&[3.0, 4.0]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.fro_norm_sq(), 25.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(Mat::zeros(0, 0).max_abs(), 0.0);
    }

    #[test]
    fn operators() {
        let a = abcd();
        let sum = &a + &a;
        assert_eq!(sum.data(), &[2.0, 4.0, 6.0, 8.0]);
        let diff = &sum - &a;
        assert_eq!(diff, a);
        let neg = -&a;
        assert_eq!(neg[(0, 0)], -1.0);
        let prod = product(Trans::N, Trans::N, &a, Mat::eye(2));
        assert_eq!(prod, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled, sum);
        let mut acc = a.clone();
        acc += &a;
        assert_eq!(acc, sum);
        acc -= &a;
        assert_eq!(acc, a);
    }

    #[test]
    fn diagonal_of_rect() {
        let m = Mat::from_fn(3, 5, |i, j| if i == j { (i + 1) as f64 } else { 0.0 });
        assert_eq!(m.diagonal(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_row_set_col() {
        let mut m = Mat::zeros(2, 2);
        m.set_row(0, &[1.0, 2.0]);
        m.set_col(1, &[9.0, 8.0]);
        assert_eq!(m.data(), &[1.0, 9.0, 0.0, 8.0]);
    }
}
