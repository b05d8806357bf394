//! Differential test suite for the sparse kernel layer.
//!
//! Unlike the blocked-GEMM differential (`gemm_differential.rs`), which
//! can only require ulp-bounded agreement, every sparse kernel follows
//! the ordering discipline of `dpar2_linalg::sparse`: it accumulates in
//! exactly the order of the dense naive loops with the structural zeros
//! skipped. Skipping a structural zero skips an addition of `±0.0` —
//! an exact identity on any accumulator that is not `-0.0`, and `+=`
//! accumulators seeded at `+0.0` can never become `-0.0` under
//! round-to-nearest. So the oracle here is **bitwise**: densify the
//! slice, run `gemm_naive_into` (or the matching inline naive loop), and
//! require `to_bits()` equality, for every random sparsity pattern.
//! The Grams are the exception: on an FMA CPU they sum fused chains
//! (closed by `+ 0.0`, which turns the `−0` a fused step can reach back
//! into `+0`), so their oracle is the scalar `mul_add` chain there, and
//! the naive loops under the portable pin; both CSR Grams are checked
//! against the dense `gram_into` of the densified slice on both paths.
//!
//! Coverage, per the sparse-subsystem contract:
//! * all kernels — `spmm_into` (`A·B`), `spmm_t_into` (`Aᵀ·B`),
//!   `spmm_tn_into` (`Qᵀ·A`), `sparse_gram_into` (`AᵀA`, also against the
//!   dense `gram_into`), `sparse_outer_gram_into` (`AAᵀ`, also against the
//!   dense `gram_into` of the transpose), `fro_norm_sq`;
//! * proptest-generated patterns including empty slices, empty rows,
//!   all-zero columns, and duplicate COO entries (coalesced by the
//!   builder);
//! * NaN / ±∞ *stored* values — they flow through the same multiply-add
//!   sequence in both paths, so the same entries go non-finite with the
//!   same ±∞ signs; NaN entries match as NaN-to-NaN only, since IEEE-754
//!   leaves a propagated NaN's sign/payload unspecified and x86 codegen
//!   picks them per optimization level (the gram differential is
//!   restricted to finite stored values: a non-finite stored value times
//!   a structural zero densifies to NaN, which the sparse path cannot
//!   see — that boundary is pinned explicitly below);
//! * the three products must be **bit-identical** to their one-thread
//!   results on every pool size, across the `SPMM_CHUNK_ROWS` boundary.

use dpar2_linalg::kernel::{gemm_naive_into, gram_kernel, pinned, Pin, Trans};
use dpar2_linalg::sparse::{
    sparse_gram_into, sparse_outer_gram_into, spmm_into, spmm_t_into, spmm_tn_into, CooBuilder,
    SparseSlice, SPMM_CHUNK_ROWS,
};
use dpar2_linalg::{gram_into, Mat};
use dpar2_parallel::ThreadPool;
use proptest::prelude::*;
use proptest::strategy::Just;

/// Bitwise matrix comparison, including zero signs. NaN entries compare
/// as NaN-to-NaN rather than bit-to-bit: IEEE-754 leaves the sign and
/// payload of a propagated NaN unspecified, and on x86 they depend on
/// the operand order the optimizer picks for the commutative `mulsd`/
/// `addsd` (debug and release builds genuinely disagree here).
fn assert_mat_bits(reference: &Mat, got: &Mat, ctx: &str) {
    assert_eq!(reference.shape(), got.shape(), "{ctx}: shape mismatch");
    for (idx, (&r, &g)) in reference.data().iter().zip(got.data()).enumerate() {
        assert!(
            r.to_bits() == g.to_bits() || (r.is_nan() && g.is_nan()),
            "{ctx}: entry {idx} diverges bitwise: reference {r:?} ({:#018x}) vs got {g:?} ({:#018x})",
            r.to_bits(),
            g.to_bits()
        );
    }
}

/// Runs one product into a fresh output on a `threads`-worker pool.
fn on(threads: usize, product: impl FnOnce(&mut Mat, &ThreadPool)) -> Mat {
    let mut c = Mat::zeros(0, 0);
    product(&mut c, &ThreadPool::new(threads));
    c
}

/// Deterministic dense fill derived from a proptest seed (xorshift64,
/// same scheme as the GEMM differential).
fn filler(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state as f64 / u64::MAX as f64) * 2.0e3 - 1.0e3
    }
}

/// Runs one slice through every kernel against its densified naive
/// oracle, plus the every-pool-size bitwise pins. The dense operands are
/// always finite (the contract's requirement); stored values may be
/// anything. `finite_stored` gates the gram differential.
fn check_all_kernels(s: &SparseSlice, seed: u64, ctx: &str) {
    let d = s.to_dense();
    let finite_stored = s.values().iter().all(|v| v.is_finite());
    let mut next = filler(seed);
    let nrhs = 3;
    let rank = 2;
    let mut reference = Mat::zeros(0, 0);

    // spmm: A·B vs the naive i-p-j loop on the densified slice.
    let b = Mat::from_fn(s.cols(), nrhs, |_, _| next());
    gemm_naive_into(Trans::N, Trans::N, &d, &b, &mut reference);
    let c = on(1, |c, p| spmm_into(s, &b, c, p));
    assert_mat_bits(&reference, &c, &format!("{ctx} spmm"));

    // spmm pooled: bit-identical to serial for every pool size.
    for threads in [1, 2, 3, 4] {
        let pooled = on(threads, |c, p| spmm_into(s, &b, c, p));
        assert_mat_bits(&c, &pooled, &format!("{ctx} spmm_pooled t{threads}"));
    }

    // spmm_t: Aᵀ·B. Per output cell the accumulation runs over source
    // rows ascending in both paths, so the scatter form is still bitwise.
    let b2 = Mat::from_fn(s.rows(), nrhs, |_, _| next());
    gemm_naive_into(Trans::T, Trans::N, &d, &b2, &mut reference);
    let ct = on(1, |c, p| spmm_t_into(s, &b2, c, p));
    assert_mat_bits(&reference, &ct, &format!("{ctx} spmm_t"));
    for threads in [2, 3] {
        let pooled = on(threads, |c, p| spmm_t_into(s, &b2, c, p));
        assert_mat_bits(&ct, &pooled, &format!("{ctx} spmm_t_pooled t{threads}"));
    }

    // spmm_tn: Qᵀ·A (the Y_k product), serial and pooled.
    let q = Mat::from_fn(s.rows(), rank, |_, _| next());
    gemm_naive_into(Trans::T, Trans::N, &q, &d, &mut reference);
    let y = on(1, |c, p| spmm_tn_into(&q, s, c, p));
    assert_mat_bits(&reference, &y, &format!("{ctx} spmm_tn"));
    for threads in [1, 2, 3, 4] {
        let pooled = on(threads, |c, p| spmm_tn_into(&q, s, c, p));
        assert_mat_bits(&y, &pooled, &format!("{ctx} spmm_tn_pooled t{threads}"));
    }

    // gram: AᵀA — both operands are the slice, so a non-finite stored
    // value meets structural zeros of *other* columns (0·∞ densifies to
    // NaN); the bitwise contract only covers finite stored values.
    if finite_stored {
        check_grams(s, &d, ctx);
    }

    // fro_norm_sq: flat Σx² — squares are never -0.0, so this is bitwise
    // (non-finite stored values included, NaN matching NaN-to-NaN as
    // above) whenever the slice has at least one cell. A 0-cell slice is
    // the documented corner: the sparse side seeds at +0.0 where std's
    // empty `sum()` yields -0.0.
    if s.rows() * s.cols() > 0 {
        let dense_norm: f64 = d.data().iter().map(|&x| x * x).sum();
        let sparse_norm = s.fro_norm_sq();
        assert!(
            dense_norm.to_bits() == sparse_norm.to_bits()
                || (dense_norm.is_nan() && sparse_norm.is_nan()),
            "{ctx} fro_norm_sq: {dense_norm:?} vs {sparse_norm:?}"
        );
    } else {
        assert!(s.fro_norm_sq().to_bits() == 0.0f64.to_bits(), "{ctx} fro_norm_sq: 0-cell slice");
    }
}

/// The Gram `XᵀX` chain by chain, for `gram_into` and the CSR Grams: on
/// the fused path each entry is `acc = x_pi.mul_add(x_pj, acc)` over
/// ascending rows from `+0.0`, closed by `+ 0.0`; on the unfused one,
/// the naive `Xᵀ·X` loops.
fn gram_oracle(x: &Mat, fused: bool) -> Mat {
    let n = x.cols();
    if !fused {
        let mut g = Mat::zeros(0, 0);
        gemm_naive_into(Trans::T, Trans::N, x, x, &mut g);
        return g;
    }
    Mat::from_fn(n, n, |i, j| {
        let (i, j) = (i.min(j), i.max(j));
        (0..x.rows()).fold(0.0, |acc: f64, p| x[(p, i)].mul_add(x[(p, j)], acc)) + 0.0
    })
}

/// Both CSR Grams against their oracles and against the dense
/// `gram_into` of the densified slice (of its transpose for `A·Aᵀ`),
/// bit for bit, on the dispatched path (fused on an FMA CPU) and under
/// the portable pin (unfused: the naive loops' bits).
fn check_grams(s: &SparseSlice, d: &Mat, ctx: &str) {
    let dt = d.transpose();
    for portable in [false, true] {
        let pin = Pin { portable, ..Pin::default() };
        let fused = pinned(pin, gram_kernel).fused();
        let ctx = format!("{ctx} {}", if fused { "fused" } else { "unfused" });
        let reference = gram_oracle(d, fused);
        let g = pinned(pin, || on(1, |g, _| sparse_gram_into(s, g)));
        assert_mat_bits(&reference, &g, &format!("{ctx} gram"));
        let g = pinned(pin, || on(1, |g, _| gram_into(d, g)));
        assert_mat_bits(&reference, &g, &format!("{ctx} dense gram"));
        let reference = if fused {
            gram_oracle(&dt, true)
        } else {
            on(1, |g, _| gemm_naive_into(Trans::N, Trans::T, d, d, g))
        };
        let g = pinned(pin, || on(1, |g, _| sparse_outer_gram_into(s, g)));
        assert_mat_bits(&reference, &g, &format!("{ctx} outer gram"));
        let g = pinned(pin, || on(1, |g, _| gram_into(&dt, g)));
        assert_mat_bits(&reference, &g, &format!("{ctx} dense outer gram"));
    }
}

/// Builds a slice through the COO path from positional entries: `pos`
/// addresses a cell row-major, so collisions produce genuine duplicate
/// COO entries that `build` must coalesce.
fn slice_from_entries(rows: usize, cols: usize, entries: &[(usize, f64)]) -> SparseSlice {
    let mut b = CooBuilder::new(rows, cols);
    if rows > 0 && cols > 0 {
        for &(pos, v) in entries {
            let p = pos % (rows * cols);
            b.push(p / cols, p % cols, v);
        }
    }
    b.build()
}

/// Strategy: shapes up to 90×8 (straddling the 64-row pooled chunk) with
/// 0..200 finite entries, duplicates included.
fn finite_slice() -> impl Strategy<Value = (SparseSlice, u64)> {
    (0usize..91, 0usize..9)
        .prop_flat_map(|(rows, cols)| {
            let entries =
                prop::collection::vec((0usize..(rows * cols).max(1), -1.0e3f64..1.0e3), 0..200);
            (Just(rows), Just(cols), entries, 0u64..u64::MAX)
        })
        .prop_map(|(rows, cols, entries, seed)| (slice_from_entries(rows, cols, &entries), seed))
}

/// Maps a generated `(kind, magnitude)` pair to a stored value: kinds
/// 0..4 are the specials (NaN, ±∞, -0.0), the rest pass the finite
/// magnitude through — roughly 40% special density.
fn special_value(kind: usize, mag: f64) -> f64 {
    match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => mag,
    }
}

/// Strategy: like [`finite_slice`] but stored values drawn from a pool
/// that includes NaN, ±∞, and -0.0.
fn special_slice() -> impl Strategy<Value = (SparseSlice, u64)> {
    (1usize..41, 1usize..7)
        .prop_flat_map(|(rows, cols)| {
            let entries =
                prop::collection::vec((0usize..rows * cols, 0usize..10, -1.0e3f64..1.0e3), 1..80);
            (Just(rows), Just(cols), entries, 0u64..u64::MAX)
        })
        .prop_map(|(rows, cols, entries, seed)| {
            let mapped: Vec<(usize, f64)> =
                entries.into_iter().map(|(p, k, m)| (p, special_value(k, m))).collect();
            (slice_from_entries(rows, cols, &mapped), seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_dense_oracle_bitwise((s, seed) in finite_slice()) {
        check_all_kernels(&s, seed, &format!("{}x{} nnz={}", s.rows(), s.cols(), s.nnz()));
    }

    #[test]
    fn special_stored_values_propagate_bitwise((s, seed) in special_slice()) {
        check_all_kernels(&s, seed, &format!("special {}x{} nnz={}", s.rows(), s.cols(), s.nnz()));
    }

    #[test]
    fn coo_build_is_permutation_invariant_for_distinct_coords(
        rows in 1usize..21,
        cols in 1usize..7,
        entries in prop::collection::vec((0usize..120, -10.0f64..10.0), 0..60),
        rotation in 0usize..60,
    ) {
        // Deduplicate coordinates (keeping the first value per cell) so the
        // only degree of freedom is push order — build must not care.
        let mut seen = std::collections::BTreeMap::new();
        for &(pos, v) in &entries {
            seen.entry(pos % (rows * cols)).or_insert(v);
        }
        let distinct: Vec<(usize, f64)> = seen.into_iter().collect();
        let reference = slice_from_entries(rows, cols, &distinct);
        let mut rotated = distinct.clone();
        rotated.rotate_left(rotation.min(distinct.len().saturating_sub(1)));
        rotated.reverse();
        let permuted = slice_from_entries(rows, cols, &rotated);
        prop_assert_eq!(reference.indptr(), permuted.indptr());
        prop_assert_eq!(reference.indices(), permuted.indices());
        for (a, b) in reference.values().iter().zip(permuted.values()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn coo_duplicates_coalesce_in_push_order(
        pos in 0usize..12,
        dups in prop::collection::vec(-5.0f64..5.0, 2..8),
    ) {
        // Expected stored value: left-to-right sum in push order.
        let expected = dups.iter().fold(0.0f64, |acc, &v| acc + v);
        let entries: Vec<(usize, f64)> = dups.iter().map(|&v| (pos, v)).collect();
        let s = slice_from_entries(3, 4, &entries);
        prop_assert_eq!(s.nnz(), 1, "all entries share one coordinate");
        prop_assert_eq!(s.values()[0].to_bits(), expected.to_bits());
    }
}

// ----------------------------------------------------------------------
// Deterministic edge-case regressions
// ----------------------------------------------------------------------

#[test]
fn degenerate_shapes_and_empty_slices() {
    for (rows, cols) in [(0, 0), (0, 5), (5, 0), (1, 1), (7, 3)] {
        let s = SparseSlice::empty(rows, cols);
        check_all_kernels(&s, 17, &format!("empty {rows}x{cols}"));
    }
}

#[test]
fn empty_rows_and_all_zero_columns() {
    // Rows 1 and 3 empty; columns 0 and 4 never stored (all-zero columns
    // exercise the untouched-lane paths of spmm_t / gram outputs).
    let s = CooBuilder::from_triplets(
        5,
        5,
        [(0, 2, 1.5), (2, 1, -2.0), (2, 3, 4.0), (4, 2, 0.5), (4, 3, -1.0)],
    );
    check_all_kernels(&s, 23, "holes 5x5");
}

#[test]
fn grams_across_register_tile_edges() {
    // Column counts around `gram_into`'s 4×8 and 4×4 tiles and its single
    // entries, dense enough that every tile sums many stored terms.
    for cols in [1, 3, 4, 5, 8, 11, 12, 13, 19, 88] {
        let entries: Vec<(usize, f64)> =
            (0..30 * cols).map(|t| (t * 7 + 3, ((t % 17) as f64) - 8.25)).collect();
        let s = slice_from_entries(40, cols, &entries);
        check_all_kernels(&s, cols as u64, &format!("gram tiles cols={cols}"));
    }
}

#[test]
fn grams_equal_densified_through_underflow_and_signed_zeros() {
    // Stored ±0, subnormals and ±2^-560, whose products underflow. A
    // negative one, −2^-1120, rounds a fused chain still at +0 to −0; the
    // dense chain then adds the structural zeros the CSR one skips, and
    // `0·x + (−0)` is +0 for x > 0. The closing `+ 0.0` of every fused
    // chain keeps the two equal anyway; the unfused chain never reaches
    // −0.
    let tiny = 2f64.powi(-560);
    let s = CooBuilder::from_triplets(
        4,
        5,
        [
            (0, 0, -tiny),
            (0, 1, tiny),
            (0, 3, -0.0),
            (1, 1, 1.0),
            (1, 2, 5e-324),
            (1, 4, -3.0),
            (2, 0, 0.0),
            (2, 2, -2.5e-310),
            (2, 3, 7.0),
            (3, 1, -tiny),
            (3, 4, tiny),
        ],
    );
    check_all_kernels(&s, 29, "underflow 4x5");
    let d = s.to_dense();
    let mut oracle = Mat::zeros(0, 0);
    gemm_naive_into(Trans::T, Trans::N, &d, &d, &mut oracle);
    let fused = (0..d.rows()).fold(0.0, |acc: f64, p| d[(p, 0)].mul_add(d[(p, 1)], acc));
    assert!(fused == 0.0 && fused.is_sign_positive(), "the dense fused chain ends at +0 here");
    assert!((-tiny).mul_add(tiny, 0.0).is_sign_negative(), "the fused step rounds to −0");
}

#[test]
fn pooled_chunk_boundary_rows() {
    // One below, at, one past, and two chunks past SPMM_CHUNK_ROWS: the
    // pooled kernels must stay bitwise-serial across every boundary.
    for rows in [SPMM_CHUNK_ROWS - 1, SPMM_CHUNK_ROWS, SPMM_CHUNK_ROWS + 1, 2 * SPMM_CHUNK_ROWS + 5]
    {
        let entries: Vec<(usize, f64)> =
            (0..rows * 2).map(|t| (t * 3 + 1, ((t % 13) as f64) - 6.0)).collect();
        let s = slice_from_entries(rows, 6, &entries);
        check_all_kernels(&s, rows as u64, &format!("boundary rows={rows}"));
    }
}

#[test]
fn gram_contract_boundary_is_real() {
    // Documented boundary of the bitwise contract: an ∞ stored next to a
    // structural zero in another column densifies to 0·∞ = NaN in the
    // dense gram, which the sparse gram (touching stored pairs only)
    // cannot produce. This test pins that the *dense* side really does
    // produce NaN there — i.e. the contract's carve-out is not vacuous —
    // and that the sparse side stays finite-structured.
    let s = CooBuilder::from_triplets(2, 2, [(0, 0, f64::INFINITY), (1, 1, 2.0)]);
    let d = s.to_dense();
    let mut dense_gram = Mat::zeros(0, 0);
    gemm_naive_into(Trans::T, Trans::N, &d, &d, &mut dense_gram);
    assert!(dense_gram[(0, 1)].is_nan(), "dense 0·∞ cross-term must be NaN");
    let g = on(1, |g, _| sparse_gram_into(&s, g));
    assert_eq!(g[(0, 1)], 0.0, "sparse gram never touches structural-zero pairs");
    assert_eq!(g[(0, 0)], f64::INFINITY, "stored ∞² propagates");
    assert_eq!(g[(1, 1)], 4.0);
}
