//! Differential suite pinning the sparse randomized-SVD path to the
//! densified one.
//!
//! With a sketch width below the blocked-GEMM tile thresholds (every
//! product in the pipeline has one dimension equal to the sketch), the
//! dense pipeline stays on the naive loops and the sparse kernels'
//! densify-oracle contract makes the whole sparse `rsvd` run **bitwise
//! identical** to `rsvd` on `to_dense()` — including the exact-SVD
//! fallback, empty slices, all-zero columns, and duplicate-COO inputs.
//! At the default config (oversample 8) the products may take the blocked
//! path on the dense side, so equivalence is only up to reordering; a
//! loose-envelope test covers that regime.

use dpar2_linalg::{product, CooBuilder, Mat, SparseSlice, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::{rsvd, rsvd_pooled, svd_truncated_energy_pooled, RsvdConfig, SparseVStack};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sketch-5 configuration (`rank ≤ 3`): below both naive-dispatch tile
/// thresholds, the bit-identity regime.
fn small_sketch(rank: usize) -> RsvdConfig {
    assert!(rank <= 3);
    RsvdConfig { rank, oversample: 2, power_iterations: 1 }
}

/// Random CSR slice with duplicate COO pushes (coalesced by summing),
/// empty rows, and columns beyond `3/4 · cols` left structurally zero.
fn random_sparse(seed: u64, rows: usize, cols: usize, fill: f64) -> SparseSlice {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CooBuilder::new(rows, cols);
    let nnz = ((rows * cols) as f64 * fill) as usize;
    let jmax = (cols * 3 / 4).max(1);
    for _ in 0..nnz {
        let i = (rng.random::<u64>() % rows as u64) as usize;
        let j = (rng.random::<u64>() % jmax as u64) as usize;
        b.push(i, j, rng.random::<f64>() - 0.5);
    }
    // Deliberate duplicates, including a pair coalescing to exactly zero
    // (stored explicitly — `build` keeps explicit zeros).
    b.push(0, 0, 0.25);
    b.push(0, 0, -0.125);
    b.push(rows - 1, 0, 0.5);
    b.push(rows - 1, 0, -0.5);
    b.build()
}

fn assert_factors_bitwise(a: &dpar2_linalg::SvdFactors, b: &dpar2_linalg::SvdFactors, ctx: &str) {
    assert_eq!(a.u, b.u, "{ctx}: U diverged");
    assert_eq!(a.s, b.s, "{ctx}: Σ diverged");
    assert_eq!(a.v, b.v, "{ctx}: V diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole pin: `rsvd` on CSR is bit-identical to `rsvd` on
    /// the densified matrix at small sketch widths, across shapes that
    /// exercise the sketched path (`min_dim > 5`) and the exact fallback
    /// (`min_dim ≤ 5`), densities from empty to ~30%.
    #[test]
    fn sparse_rsvd_bitwise_matches_densified(
        seed in 0u64..1000,
        rows in 2usize..40,
        cols in 2usize..24,
        rank in 1usize..4,
        fill_pct in 0usize..30,
    ) {
        let s = random_sparse(seed, rows, cols, fill_pct as f64 / 100.0);
        let d = s.to_dense();
        let cfg = small_sketch(rank);
        let fs = rsvd(&s, &cfg, &mut StdRng::seed_from_u64(seed ^ 0xABCD));
        let fd = rsvd(&d, &cfg, &mut StdRng::seed_from_u64(seed ^ 0xABCD));
        prop_assert_eq!(&fs.u, &fd.u, "U diverged");
        prop_assert_eq!(&fs.s, &fd.s, "Σ diverged");
        prop_assert_eq!(&fs.v, &fd.v, "V diverged");
    }

    /// Same pin for the energy-truncation probe over a [`SparseVStack`]
    /// vs the densified stacked matrix (the adaptive-rank path of
    /// `Dpar2::fit` on a CSR tensor).
    #[test]
    fn sparse_vstack_energy_probe_bitwise_matches_dense_stack(
        seed in 0u64..500,
        k in 1usize..4,
        cols in 4usize..16,
        rank in 1usize..4,
    ) {
        let slices: Vec<SparseSlice> = (0..k)
            .map(|i| random_sparse(seed.wrapping_add(i as u64), 6 + 5 * i, cols, 0.2))
            .collect();
        let stack = SparseVStack::new(&slices);
        let total_rows: usize = slices.iter().map(SparseSlice::rows).sum();
        let mut dense = Mat::zeros(total_rows, cols);
        let mut off = 0;
        for s in &slices {
            for (i, j, v) in s.iter() {
                dense.set(off + i, j, dense.at(off + i, j) + v);
            }
            off += s.rows();
        }
        let cfg = small_sketch(rank);
        let pool = ThreadPool::new(1);
        let es = svd_truncated_energy_pooled(
            &stack, &cfg, 0.9, &mut StdRng::seed_from_u64(seed ^ 0x5ED), &pool,
        );
        let ed = svd_truncated_energy_pooled(
            &dense, &cfg, 0.9, &mut StdRng::seed_from_u64(seed ^ 0x5ED), &pool,
        );
        prop_assert_eq!(es.rank, ed.rank);
        prop_assert_eq!(es.total_energy, ed.total_energy, "exact ‖A‖²_F diverged");
        prop_assert_eq!(es.captured_energy, ed.captured_energy);
        prop_assert_eq!(&es.factors.u, &ed.factors.u);
        prop_assert_eq!(&es.factors.s, &ed.factors.s);
        prop_assert_eq!(&es.factors.v, &ed.factors.v);
    }
}

#[test]
fn pooled_sparse_rsvd_bitwise_matches_serial_for_every_pool_size() {
    // Big enough that both the row-chunked (rows > 64) and the
    // transposed (cols > 64) pooled kernels engage.
    let s = random_sparse(11, 200, 130, 0.04);
    let cfg = small_sketch(3);
    let serial = rsvd(&s, &cfg, &mut StdRng::seed_from_u64(42));
    for threads in [2usize, 3, 4, 8] {
        let pool = ThreadPool::new(threads);
        let pooled = rsvd_pooled(&s, &cfg, &mut StdRng::seed_from_u64(42), &pool);
        assert_factors_bitwise(&pooled, &serial, &format!("pool size {threads}"));
    }
}

#[test]
fn exact_fallback_is_bitwise_dense_on_tiny_matrices() {
    // min_dim ≤ rank + oversample → the pipeline returns the exact thin
    // SVD; the sparse side densifies, so both run the same code path.
    for (rows, cols) in [(4usize, 30usize), (30, 4), (5, 5), (1, 12)] {
        let s = random_sparse(rows as u64 * 31 + cols as u64, rows, cols, 0.4);
        let cfg = small_sketch(3);
        let fs = rsvd(&s, &cfg, &mut StdRng::seed_from_u64(9));
        let fd = rsvd(s.to_dense(), &cfg, &mut StdRng::seed_from_u64(9));
        assert_factors_bitwise(&fs, &fd, &format!("fallback {rows}×{cols}"));
    }
}

#[test]
fn empty_and_all_zero_slices_match_densified() {
    let cfg = small_sketch(2);
    // Structurally empty slice (zero nnz).
    let empty = SparseSlice::empty(20, 12);
    let fs = rsvd(&empty, &cfg, &mut StdRng::seed_from_u64(3));
    let fd = rsvd(empty.to_dense(), &cfg, &mut StdRng::seed_from_u64(3));
    assert_factors_bitwise(&fs, &fd, "structurally empty slice");

    // Explicit zeros only (duplicates coalescing to 0.0, kept stored).
    let mut b = CooBuilder::new(16, 10);
    for i in 0..16 {
        b.push(i, i % 10, 1.0);
        b.push(i, i % 10, -1.0);
    }
    let zeros = b.build();
    assert!(zeros.nnz() > 0, "explicit zeros must stay stored");
    let fs = rsvd(&zeros, &cfg, &mut StdRng::seed_from_u64(4));
    let fd = rsvd(zeros.to_dense(), &cfg, &mut StdRng::seed_from_u64(4));
    assert_factors_bitwise(&fs, &fd, "explicit-zero slice");

    // Zero-dimension operands degrade identically.
    let degenerate = SparseSlice::empty(0, 8);
    let f = rsvd(&degenerate, &cfg, &mut StdRng::seed_from_u64(5));
    assert_eq!(f.u.shape(), (0, 0));
    assert!(f.s.is_empty());
}

#[test]
fn sparse_vstack_shape_and_nnz_account_for_all_slices() {
    let a = random_sparse(21, 10, 8, 0.2);
    let b = random_sparse(22, 14, 8, 0.1);
    let stack = SparseVStack::new([&a, &b]);
    assert_eq!(stack.nnz(), a.nnz() + b.nnz());
    let f = rsvd(&stack, &small_sketch(2), &mut StdRng::seed_from_u64(6));
    assert_eq!(f.u.rows(), 24);
    assert_eq!(f.v.rows(), 8);
}

#[test]
fn default_config_sparse_rsvd_reconstructs_within_envelope() {
    // Default oversample (8) pushes the dense side onto the blocked GEMM
    // path, so bit-identity no longer holds — but the subspaces do: pin a
    // loose reconstruction envelope on a low-rank sparse matrix.
    let mut rng = StdRng::seed_from_u64(77);
    let u = dpar2_linalg::gaussian_mat(60, 2, &mut rng);
    let v = dpar2_linalg::gaussian_mat(40, 2, &mut rng);
    let mut b = CooBuilder::new(60, 40);
    // Rank-2 signal sampled on a sparse mask.
    for i in 0..60 {
        for _ in 0..6 {
            let j = (rng.random::<u64>() % 40) as usize;
            let x: f64 = (0..2).map(|r| u.at(i, r) * v.at(j, r)).sum();
            b.push(i, j, x);
        }
    }
    let s = b.build();
    let cfg = RsvdConfig::new(8);
    let f = rsvd(&s, &cfg, &mut StdRng::seed_from_u64(78));
    let dense = s.to_dense();
    let approx =
        product(Trans::N, Trans::T, product(Trans::N, Trans::N, &f.u, Mat::diag(&f.s)), &f.v);
    let rel = (&dense - &approx).fro_norm() / dense.fro_norm();
    // The sampled mask typically has rank well above 8; require the
    // leading subspace to capture most of the energy, not exactness.
    assert!(rel < 0.6, "default-config sparse rsvd rel err {rel}");

    // And the sparse run still matches its own densified run up to a
    // small ulp envelope (same arithmetic, different summation order).
    let fd = rsvd(&dense, &cfg, &mut StdRng::seed_from_u64(78));
    for (a, b) in f.s.iter().zip(&fd.s) {
        assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "σ drifted: {a} vs {b}");
    }
}
