//! Sparse CSR slices and the sparse kernel family — the substrate for
//! SPARTan-parity sparse PARAFAC2 workloads (EHR records, clickstreams,
//! user–item logs, where slices are >99% zeros and the dense backing
//! buffer of `dpar2_tensor` is millions of times too big to materialize).
//!
//! * [`SparseSlice`] — one frontal slice `X_k ∈ R^{I_k×J}` in compressed
//!   sparse row (CSR) form: `indptr` (length `I_k + 1`), per-row
//!   strictly-ascending column `indices`, and `values`.
//! * [`CooBuilder`] — coordinate-format ingestion with duplicate
//!   coalescing, the loader-facing construction path.
//! * Kernels — [`spmm_into`] (`A·B`), [`spmm_t_into`] (`Aᵀ·B`),
//!   [`spmm_tn_into`] (`Qᵀ·A`, the `Y_k = Q_kᵀX_k` product of SPARTan's
//!   inner step), [`sparse_gram_into`] (`AᵀA`), [`sparse_outer_gram_into`]
//!   (`AAᵀ`) and [`SparseSlice::fro_norm_sq`] — all touching nonzeros only
//!   and writing into a caller-owned output. The three products take a [`ThreadPool`]
//!   like the dense [`crate::gemm`]; a one-thread pool is the serial path.
//!   Together with the dense products they are exactly the pass set the
//!   randomized compression of DPar2 needs to run at O(nnz) per sketch
//!   pass.
//!
//! ## Ordering discipline (the bit-identity contract)
//!
//! Every kernel here accumulates in **exactly the order of the dense
//! naive loops** ([`crate::kernel::gemm_naive_into`], whose bits every
//! product below the blocked threshold gives) with the structural
//! zeros skipped, using a separate multiply and add — except the two
//! Grams, which run [`crate::gram_into`]'s chains: fused (one `mul_add`
//! per product, closed by `+ 0.0`) where the CPU has FMA. Skipping
//! a structural zero means skipping an addition of `±0.0`, which is an
//! exact identity on any IEEE-754 accumulator that is not `-0.0` — and
//! `+=` accumulators seeded by `resize_zeroed` can never become `-0.0`
//! (`+0.0 + -0.0 = +0.0` under round-to-nearest). A fused step can: a
//! negative product that underflows while the chain is still zero rounds
//! to `-0.0`, after which the dense chain's `0·x` steps and the skipped
//! ones may leave zeros of opposite signs. The closing `+ 0.0` maps both
//! to `+0.0` and changes no other value, so the Grams keep the
//! contract. Hence, whenever the
//! *dense* operand is finite, each kernel is **bitwise identical** to
//! densifying the slice and running the corresponding naive dense loop —
//! the property the differential suite (`tests/sparse_differential.rs`)
//! pins, and the reason SPARTan and DPar2 fits on CSR tensors match their
//! densified runs bit for bit. Non-finite *stored* values (NaN, ±∞)
//! propagate identically through both paths because they flow through the
//! same multiply-add sequence; only products of a structural zero with a
//! non-finite dense entry (which densification would turn into NaN)
//! are outside the contract.
//!
//! On a multi-thread pool the products partition the **output** into
//! fixed-size blocks (rows of [`SPMM_CHUNK_ROWS`], or whole rows for
//! [`spmm_tn_into`] — never thread-count-dependent), each block computed by
//! exactly one worker in the serial per-entry order — so every product is
//! bit-identical for every pool size, the same guarantee the dense
//! blocked-GEMM layer gives.

use crate::kernel::mirror_upper;
use crate::mat::{chain_end, chain_step, Mat};
use crate::view::AsMatRef;
use dpar2_parallel::ThreadPool;

/// Output rows per work item when a product fans out over a pool. A fixed constant —
/// chunk boundaries must depend only on the problem shape, never on the
/// thread count, so pooled results are bit-identical for every pool size.
pub const SPMM_CHUNK_ROWS: usize = 64;

/// One sparse frontal slice `X ∈ R^{rows×cols}` in CSR form.
///
/// Row `i`'s nonzeros live at `indptr[i]..indptr[i+1]` in `indices`
/// (strictly ascending columns) and `values`. Explicitly stored zeros are
/// permitted (e.g. duplicates that coalesced to zero); "structural zero"
/// below always means an entry with no stored value.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSlice {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseSlice {
    /// Builds a slice from raw CSR arrays, validating the invariants.
    ///
    /// # Panics
    /// Panics if `indptr.len() != rows + 1`, `indptr` is not monotone from
    /// 0 to `indices.len()`, `indices.len() != values.len()`, or any row's
    /// columns are not strictly ascending and `< cols`.
    pub fn new(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "SparseSlice: indptr length must be rows + 1");
        assert_eq!(indptr[0], 0, "SparseSlice: indptr must start at 0");
        assert_eq!(
            *indptr.last().expect("indptr is non-empty"),
            indices.len(),
            "SparseSlice: indptr must end at nnz"
        );
        assert_eq!(indices.len(), values.len(), "SparseSlice: indices/values length mismatch");
        for i in 0..rows {
            assert!(indptr[i] <= indptr[i + 1], "SparseSlice: indptr must be monotone");
            let row = &indices[indptr[i]..indptr[i + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "SparseSlice: row {i} columns must be strictly ascending");
            }
            if let Some(&last) = row.last() {
                assert!(
                    last < cols,
                    "SparseSlice: row {i} column {last} out of range (cols {cols})"
                );
            }
        }
        SparseSlice { rows, cols, indptr, indices, values }
    }

    /// A slice with no stored entries.
    pub fn empty(rows: usize, cols: usize) -> Self {
        SparseSlice {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Sparsifies a dense matrix, dropping exact zeros (`±0.0`; NaN is
    /// kept — it compares unequal to zero). Round-trips through
    /// [`SparseSlice::to_dense`] for any matrix without stored `-0.0`.
    pub fn from_dense(a: impl AsMatRef) -> Self {
        let a = a.as_mat_ref();
        let (rows, cols) = a.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (j, &x) in a.row(i).iter().enumerate() {
                if x != 0.0 {
                    indices.push(j);
                    values.push(x);
                }
            }
            indptr.push(indices.len());
        }
        SparseSlice { rows, cols, indptr, indices, values }
    }

    /// Densifies into a `rows × cols` matrix (structural zeros become
    /// `+0.0`).
    pub fn to_dense(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let orow = out.row_mut(i);
            for (&j, &v) in cols.iter().zip(vals) {
                orow[j] = v;
            }
        }
        out
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored fraction `nnz / (rows · cols)` (0 for a degenerate shape).
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols;
        if cells == 0 {
            0.0
        } else {
            self.nnz() as f64 / cells as f64
        }
    }

    /// Row `i`'s stored columns and values, in ascending column order.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// The CSR row-pointer array (length `rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// The stored column indices, row-major.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The stored values, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// COO iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Squared Frobenius norm over stored entries only. Bitwise identical
    /// to the dense flat `Σ x²` of the densified slice whenever the slice
    /// has at least one cell: squares are never `-0.0`, so the skipped
    /// structural terms are exact `+0.0` identities. (The accumulator is
    /// seeded at `+0.0` explicitly — `std`'s empty float `sum()` yields
    /// `-0.0` — so a fully degenerate 0-cell slice returns `+0.0` where
    /// the dense flat sum would give `-0.0`; the two compare numerically
    /// equal.)
    pub fn fro_norm_sq(&self) -> f64 {
        self.values.iter().fold(0.0, |acc, &v| acc + v * v)
    }
}

/// Coordinate-format (COO) construction buffer for a [`SparseSlice`].
///
/// `push` accepts triples in any order, including duplicates;
/// [`CooBuilder::build`] sorts them by `(row, col)` with a **stable** sort
/// and coalesces duplicates by summing values in push order, so repeated
/// entries accumulate deterministically. Entries that coalesce to exactly
/// zero are **kept** as explicit stored zeros (dropping them would make
/// the result depend on floating-point cancellation).
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// An empty builder for a `rows × cols` slice.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder { rows, cols, entries: Vec::new() }
    }

    /// Records one `(row, col, value)` triple.
    ///
    /// # Panics
    /// Panics if `row >= rows` or `col >= cols`.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "CooBuilder: row {row} out of range (rows {})", self.rows);
        assert!(col < self.cols, "CooBuilder: col {col} out of range (cols {})", self.cols);
        self.entries.push((row, col, value));
    }

    /// Number of recorded triples (before coalescing).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no triples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts, coalesces duplicates (summing in push order), and emits the
    /// CSR slice.
    pub fn build(mut self) -> SparseSlice {
        // Stable sort: duplicate (row, col) groups keep push order, so the
        // coalescing sum below is deterministic for any input order of
        // *distinct* coordinates.
        self.entries.sort_by_key(|&(i, j, _)| (i, j));
        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        let mut row = 0usize;
        for &(i, j, v) in &self.entries {
            while row < i {
                indptr.push(indices.len());
                row += 1;
            }
            if indices.len() > indptr[row] && *indices.last().expect("non-empty row") == j {
                *values.last_mut().expect("non-empty row") += v;
            } else {
                indices.push(j);
                values.push(v);
            }
        }
        while row < self.rows {
            indptr.push(indices.len());
            row += 1;
        }
        SparseSlice { rows: self.rows, cols: self.cols, indptr, indices, values }
    }

    /// Convenience: build directly from an iterator of triples.
    ///
    /// # Panics
    /// Panics if any triple is out of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> SparseSlice {
        let mut b = CooBuilder::new(rows, cols);
        for (i, j, v) in triplets {
            b.push(i, j, v);
        }
        b.build()
    }
}

/// `C = A·B` for CSR `A` (`m×k`) and dense `B` (`k×n`), into `c`.
///
/// Per output row `i`, nonzeros `(j, v)` are consumed in ascending column
/// order with `c.row(i) += v * b.row(j)` — exactly the dense naive `i-k-j`
/// loop with structural-zero terms skipped, so the result is bitwise equal
/// to `product(Trans::N, Trans::N, a.to_dense(), b)` on the naive dispatch
/// path (finite `b`). On a multi-thread `pool`, output rows are split into fixed
/// [`SPMM_CHUNK_ROWS`] blocks, each computed by one worker in the same
/// per-entry order, so the result is bitwise identical for every pool size.
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_into(a: &SparseSlice, b: impl AsMatRef, c: &mut Mat, pool: &ThreadPool) {
    let b = b.as_mat_ref();
    let n = b.cols();
    assert_eq!(b.rows(), a.cols(), "spmm: inner dimension mismatch");
    c.resize_zeroed(a.rows(), n);
    if n == 0 {
        return;
    }
    let row = |i: usize, crow: &mut [f64]| {
        let (cols, vals) = a.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            for (cv, &bv) in crow.iter_mut().zip(b.row(j)) {
                *cv += v * bv;
            }
        }
    };
    if pool.threads() == 1 || a.rows() <= SPMM_CHUNK_ROWS {
        for (i, crow) in c.data_mut().chunks_exact_mut(n).enumerate() {
            row(i, crow);
        }
        return;
    }
    pool.for_each_chunk_mut(c.data_mut(), SPMM_CHUNK_ROWS * n, |chunk_idx, chunk| {
        for (di, crow) in chunk.chunks_exact_mut(n).enumerate() {
            row(chunk_idx * SPMM_CHUNK_ROWS + di, crow);
        }
    });
}

/// `C = Aᵀ·B` for CSR `A` (`m×k`) and dense `B` (`m×n`), into `c` (`k×n`).
///
/// Scatter form: rows `i` ascending, nonzeros `(j, v)` ascending within the
/// row, `c.row(j) += v * b.row(i)` — exactly the dense naive `Aᵀ·B`
/// rank-1 outer loop with structural-zero terms skipped; bitwise equal to
/// `product(Trans::T, Trans::N, a.to_dense(), b)` on the naive path (finite
/// `b`). On a multi-thread `pool`, the output is split into fixed [`SPMM_CHUNK_ROWS`]
/// row blocks; every worker scans the full nonzero stream but scatters only
/// into its own block, preserving the per-cell accumulation order, so the
/// result is bitwise identical for every pool size. (This parallelizes the
/// flops of one product, not the CSR scan — slice-level fan-out remains the
/// solvers' primary axis.)
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_t_into(a: &SparseSlice, b: impl AsMatRef, c: &mut Mat, pool: &ThreadPool) {
    let b = b.as_mat_ref();
    let n = b.cols();
    assert_eq!(b.rows(), a.rows(), "spmm_t: row dimension mismatch");
    c.resize_zeroed(a.cols(), n);
    if n == 0 {
        return;
    }
    // Scatters every nonzero whose column lands in output rows
    // `row0..row0 + block.len() / n`.
    let scatter = |row0: usize, block: &mut [f64]| {
        let rows_here = block.len() / n;
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            let brow = b.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if j < row0 || j >= row0 + rows_here {
                    continue;
                }
                let crow = &mut block[(j - row0) * n..(j - row0 + 1) * n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += v * bv;
                }
            }
        }
    };
    if pool.threads() == 1 || a.cols() <= SPMM_CHUNK_ROWS {
        scatter(0, c.data_mut());
        return;
    }
    pool.for_each_chunk_mut(c.data_mut(), SPMM_CHUNK_ROWS * n, |chunk_idx, chunk| {
        scatter(chunk_idx * SPMM_CHUNK_ROWS, chunk);
    });
}

/// `C = Qᵀ·A` for dense `Q` (`m×r`) and CSR `A` (`m×n`), into `c` (`r×n`).
///
/// This is the `Y_k = Q_kᵀ X_k` product of SPARTan's inner step. Rows `i`
/// ascending; for each, `q.row(i)` entries `r` ascending scatter into
/// `c[r][j] += q[i][r] * x` over the row's nonzeros — the dense naive
/// `Aᵀ·B` order with structural zeros skipped; bitwise equal to
/// `product(Trans::T, Trans::N, q, a.to_dense())` on the naive path (finite
/// `q`). On a multi-thread `pool`, each worker owns whole output rows `r` and scans
/// the full nonzero stream, so the per-cell order (`i` ascending, then
/// nonzero order) and hence the result are the same for every pool size.
/// (This parallelizes the flops, not the CSR scan; it exists for very wide
/// single slices.)
///
/// # Panics
/// Panics on shape mismatch.
pub fn spmm_tn_into(q: impl AsMatRef, a: &SparseSlice, c: &mut Mat, pool: &ThreadPool) {
    let q = q.as_mat_ref();
    let (qm, qr) = q.shape();
    assert_eq!(qm, a.rows(), "spmm_tn: Q rows must match A rows");
    c.resize_zeroed(qr, a.cols());
    if pool.threads() == 1 || qr <= 1 || a.cols() == 0 {
        for i in 0..a.rows() {
            let (cols, vals) = a.row(i);
            for (r, &qir) in q.row(i).iter().enumerate() {
                let crow = c.row_mut(r);
                for (&j, &x) in cols.iter().zip(vals) {
                    crow[j] += qir * x;
                }
            }
        }
        return;
    }
    pool.for_each_chunk_mut(c.data_mut(), a.cols(), |r, crow| {
        for i in 0..a.rows() {
            let qir = q.row(i)[r];
            let (cols, vals) = a.row(i);
            for (&j, &x) in cols.iter().zip(vals) {
                crow[j] += qir * x;
            }
        }
    });
}

/// `G = AᵀA` (`n×n`) over stored entries, into `g`.
///
/// Row-outer form: for each row, every stored pair `(ja, jb)`, `ja ≤ jb`,
/// takes one step of `g[ja][jb]`'s chain, and the upper triangle is
/// mirrored. The chain is [`crate::gram_into`]'s, term for term with the
/// structural zeros skipped: fused (`va.mul_add(vb, acc)`, closed by
/// `+ 0.0`) where the CPU has FMA, a separate multiply and add on one
/// without FMA or inside [`crate::kernel::pinned`] with `portable: true`.
/// So it is bitwise equal to [`crate::gram_into`] of `a.to_dense()` on the
/// same CPU and pin, for **finite** stored values (a non-finite stored
/// value times a structural zero densifies to NaN, which the sparse path
/// cannot see).
///
/// # Panics
/// Panics on shape mismatch.
pub fn sparse_gram_into(a: &SparseSlice, g: &mut Mat) {
    g.resize_zeroed(a.cols(), a.cols());
    // SAFETY: a fused kernel is picked only after `simd` verified FMA
    // support on this CPU, the only precondition of the
    // `#[target_feature]` fn.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if crate::kernel::gram_kernel().fused() {
        unsafe { sparse_gram_fma(a, g) };
        return;
    }
    sparse_gram::<false>(a, g);
}

/// [`sparse_gram`] fused, compiled with FMA so `mul_add` is one instruction.
///
/// # Safety
/// The CPU must support FMA (see [`sparse_gram_into`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn sparse_gram_fma(a: &SparseSlice, g: &mut Mat) {
    sparse_gram::<true>(a, g);
}

/// The chains of [`sparse_gram_into`] on the zeroed `g`.
#[inline(always)]
fn sparse_gram<const FUSED: bool>(a: &SparseSlice, g: &mut Mat) {
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        for (t, (&ja, &va)) in cols.iter().zip(vals).enumerate() {
            let grow = g.row_mut(ja);
            for (&jb, &vb) in cols[t..].iter().zip(&vals[t..]) {
                grow[jb] = chain_step::<FUSED>(va, vb, grow[jb]);
            }
        }
    }
    for x in g.data_mut() {
        *x = chain_end::<FUSED>(*x);
    }
    mirror_upper(g);
}

/// `G = A·Aᵀ` (`m×m`) over stored entries, into `g`.
///
/// Each entry `g[i][j]` is one chain over the columns `p` the two rows
/// share, ascending: [`crate::gram_into`]'s chain on `Aᵀ` (fused where
/// the CPU has FMA, see [`sparse_gram_into`]) with structural-zero terms
/// skipped, so it is bitwise equal to [`crate::gram_into`] of the
/// densified slice's transpose for finite stored values. The upper
/// triangle is merged row pair by row pair and mirrored (products commute
/// exactly).
///
/// # Panics
/// Panics on shape mismatch.
pub fn sparse_outer_gram_into(a: &SparseSlice, g: &mut Mat) {
    g.resize_for_overwrite(a.rows(), a.rows());
    // SAFETY: as in `sparse_gram_into`.
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    if crate::kernel::gram_kernel().fused() {
        unsafe { sparse_outer_gram_fma(a, g) };
        return;
    }
    sparse_outer_gram::<false>(a, g);
}

/// [`sparse_outer_gram`] fused, compiled with FMA.
///
/// # Safety
/// The CPU must support FMA (see [`sparse_outer_gram_into`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
#[allow(unsafe_code)] // contained SIMD exception; see the crate docs
unsafe fn sparse_outer_gram_fma(a: &SparseSlice, g: &mut Mat) {
    sparse_outer_gram::<true>(a, g);
}

/// The chains of [`sparse_outer_gram_into`].
#[inline(always)]
fn sparse_outer_gram<const FUSED: bool>(a: &SparseSlice, g: &mut Mat) {
    let m = a.rows();
    for i in 0..m {
        let (ci, vi) = a.row(i);
        for j in i..m {
            let (cj, vj) = a.row(j);
            let (mut p, mut q, mut acc) = (0, 0, 0.0);
            while p < ci.len() && q < cj.len() {
                match ci[p].cmp(&cj[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc = chain_step::<FUSED>(vi[p], vj[q], acc);
                        p += 1;
                        q += 1;
                    }
                }
            }
            g.set(i, j, chain_end::<FUSED>(acc));
        }
    }
    mirror_upper(g);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Trans;
    use crate::mat::product;

    fn dense_fixture() -> Mat {
        Mat::from_vec(
            3,
            4,
            vec![
                1.0, 0.0, 2.0, 0.0, //
                0.0, 0.0, 0.0, 0.0, //
                -3.0, 4.0, 0.0, 5.0,
            ],
        )
    }

    /// Runs one product into a fresh output on a `threads`-worker pool.
    fn on(threads: usize, product: impl FnOnce(&mut Mat, &ThreadPool)) -> Mat {
        let mut c = Mat::default();
        product(&mut c, &ThreadPool::new(threads));
        c
    }

    #[test]
    fn from_dense_round_trips() {
        let d = dense_fixture();
        let s = SparseSlice::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        assert_eq!(s.to_dense(), d);
        assert!(s.row(1).0.is_empty() && s.row(1).1.is_empty());
        assert_eq!(s.row(2).0, &[0, 1, 3]);
    }

    #[test]
    fn coo_builder_coalesces_duplicates_in_push_order() {
        let mut b = CooBuilder::new(2, 3);
        b.push(1, 2, 1.0);
        b.push(0, 0, 2.0);
        b.push(1, 2, 0.5);
        b.push(1, 2, -1.5);
        let s = b.build();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.row(1), (&[2usize][..], &[0.0f64][..]));
        assert_eq!(s.row(0), (&[0usize][..], &[2.0f64][..]));
    }

    #[test]
    fn coo_keeps_explicit_zero_from_cancellation() {
        let s = CooBuilder::from_triplets(1, 2, [(0, 1, 3.0), (0, 1, -3.0)]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.values(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn new_rejects_unsorted_columns() {
        SparseSlice::new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coo_push_rejects_out_of_range() {
        CooBuilder::new(2, 2).push(0, 5, 1.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let d = dense_fixture();
        let s = SparseSlice::from_dense(&d);
        let b = Mat::from_vec(4, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let dense = product(Trans::N, Trans::N, &d, &b);
        for threads in [1, 2, 3] {
            assert_eq!(on(threads, |c, p| spmm_into(&s, &b, c, p)), dense, "{threads} threads");
        }
    }

    #[test]
    fn spmm_t_and_tn_match_dense() {
        let d = dense_fixture();
        let s = SparseSlice::from_dense(&d);
        let b = Mat::from_vec(3, 2, vec![1.0, -1.0, 2.0, 0.5, -0.25, 3.0]);
        let ta = product(Trans::T, Trans::N, &d, &b);
        let qta = product(Trans::T, Trans::N, &b, &d);
        for threads in [1, 2, 3] {
            assert_eq!(on(threads, |c, p| spmm_t_into(&s, &b, c, p)), ta, "{threads} threads");
            assert_eq!(on(threads, |c, p| spmm_tn_into(&b, &s, c, p)), qta, "{threads} threads");
        }
    }

    /// The scatter kernel must agree with its one-thread result bitwise on
    /// every pool size, even when the output spans several row chunks.
    #[test]
    fn pooled_t_bitwise_matches_serial_across_chunks() {
        // 300 columns so Aᵀ·B's output (cols × n) spans >4 chunks; values
        // and pattern vary per row so chunk mix-ups would show.
        let rows = 130;
        let cols = 300;
        let mut coo = CooBuilder::new(rows, cols);
        for i in 0..rows {
            for t in 0..7 {
                let j = (i * 31 + t * 43) % cols;
                coo.push(i, j, (i as f64 - 3.0) * 0.25 + t as f64);
            }
        }
        let a = coo.build();
        let b_t = Mat::from_fn(rows, 3, |i, j| ((i * 7 + j * 5) % 11) as f64 - 4.0);
        let serial_t = on(1, |c, p| spmm_t_into(&a, &b_t, c, p));
        for threads in [2, 3, 4] {
            let c = on(threads, |c, p| spmm_t_into(&a, &b_t, c, p));
            assert_eq!(c, serial_t, "spmm_t diverged at {threads} threads");
        }
    }

    #[test]
    fn gram_and_norm_match_dense() {
        let d = dense_fixture();
        let s = SparseSlice::from_dense(&d);
        assert_eq!(on(1, |g, _| sparse_gram_into(&s, g)), product(Trans::T, Trans::N, &d, &d));
        let dense_norm: f64 = d.data().iter().map(|&x| x * x).sum();
        assert_eq!(s.fro_norm_sq().to_bits(), dense_norm.to_bits());
    }

    #[test]
    fn empty_slice_kernels() {
        let s = SparseSlice::empty(4, 3);
        let b = Mat::from_vec(3, 2, vec![1.0; 6]);
        assert_eq!(on(2, |c, p| spmm_into(&s, &b, c, p)), Mat::zeros(4, 2));
        assert_eq!(on(1, |g, _| sparse_gram_into(&s, g)), Mat::zeros(3, 3));
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.fro_norm_sq(), 0.0);
    }
}
