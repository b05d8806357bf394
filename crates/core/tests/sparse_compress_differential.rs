//! Differential suite pinning `compress` / `Dpar2::fit` on CSR tensors to
//! the same entry points on the densified tensors.
//!
//! Both storages share the per-slice seed derivation and the stage-2 code,
//! so with a sketch width on the naive-dispatch regime (rank + oversample
//! ≤ 5) CSR compression is **bit-identical** to compressing `to_dense()` —
//! including empty slices, all-zero columns, and duplicate-COO inputs. The
//! whole downstream fit then agrees bitwise too, which is what the suite
//! pins end to end.

use dpar2_core::{compress, Dpar2, Dpar2Error, FitOptions, RsvdConfig};
use dpar2_linalg::{CooBuilder, SparseSlice};
use dpar2_tensor::SparseIrregularTensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options in the bit-identity regime: sketch = rank + 2 ≤ 5.
fn small_sketch_options(rank: usize, seed: u64) -> FitOptions<'static> {
    assert!(rank <= 3);
    FitOptions::new(rank)
        .with_seed(seed)
        .with_rsvd(RsvdConfig { rank, oversample: 2, power_iterations: 1 })
        .with_tolerance(0.0)
        .with_max_iterations(8)
}

/// Random sparse irregular tensor. Slice 0 gets duplicate COO pushes
/// (coalesced by summing, one pair to an explicit zero); when
/// `with_empty_slice` is set the last slice stores no entries at all; the
/// top quarter of columns stays structurally zero everywhere.
fn random_sparse_tensor(
    seed: u64,
    row_dims: &[usize],
    j: usize,
    fill: f64,
    with_empty_slice: bool,
) -> SparseIrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let jmax = (j * 3 / 4).max(1);
    let slices: Vec<SparseSlice> = row_dims
        .iter()
        .enumerate()
        .map(|(k, &ik)| {
            let mut b = CooBuilder::new(ik, j);
            if with_empty_slice && k == row_dims.len() - 1 {
                return b.build();
            }
            let nnz = ((ik * j) as f64 * fill) as usize;
            for _ in 0..nnz {
                let i = (rng.random::<u64>() % ik as u64) as usize;
                let col = (rng.random::<u64>() % jmax as u64) as usize;
                b.push(i, col, rng.random::<f64>() - 0.5);
            }
            if k == 0 {
                b.push(0, 0, 0.75);
                b.push(0, 0, -0.25);
                b.push(ik - 1, 1, 1.0);
                b.push(ik - 1, 1, -1.0);
            }
            b.build()
        })
        .collect();
    SparseIrregularTensor::new(slices)
}

fn assert_compressed_bitwise(
    s: &dpar2_core::CompressedTensor,
    d: &dpar2_core::CompressedTensor,
    ctx: &str,
) {
    assert_eq!(s.rank, d.rank, "{ctx}: rank");
    assert_eq!(s.j, d.j, "{ctx}: j");
    assert_eq!(s.a, d.a, "{ctx}: stage-1 A factors diverged");
    assert_eq!(s.d, d.d, "{ctx}: stage-2 D diverged");
    assert_eq!(s.e, d.e, "{ctx}: stage-2 E diverged");
    assert_eq!(s.f_blocks, d.f_blocks, "{ctx}: F-blocks diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole pin: CSR compression is bit-identical to compressing
    /// the densified tensor across shapes, densities,
    /// thread counts, and the empty-slice edge case.
    #[test]
    fn csr_compress_bitwise_matches_densified(
        seed in 0u64..500,
        k in 2usize..5,
        j in 8usize..16,
        rank in 1usize..4,
        fill_pct in 5usize..30,
        threads in 1usize..4,
        empty_sel in 0usize..2,
    ) {
        let with_empty = empty_sel == 1;
        let row_dims: Vec<usize> = (0..k).map(|i| j + 4 + 5 * i).collect();
        let sparse = random_sparse_tensor(seed, &row_dims, j, fill_pct as f64 / 100.0, with_empty);
        let dense = sparse.to_dense();
        let opts = small_sketch_options(rank, seed ^ 0xC0).with_threads(threads);
        let cs = compress(&sparse, &opts).unwrap();
        let cd = compress(&dense, &opts).unwrap();
        prop_assert_eq!(&cs.a, &cd.a, "stage-1 A factors diverged");
        prop_assert_eq!(&cs.d, &cd.d, "stage-2 D diverged");
        prop_assert_eq!(&cs.e, &cd.e, "stage-2 E diverged");
        prop_assert_eq!(&cs.f_blocks, &cd.f_blocks, "F-blocks diverged");
    }

    /// End-to-end: a CSR fit equals the fit of the densified tensor —
    /// factors, criterion trace, and iteration count, bit for bit.
    #[test]
    fn csr_fit_bitwise_matches_dense_fit(
        seed in 0u64..200,
        rank in 1usize..4,
        fill_pct in 8usize..25,
    ) {
        let sparse = random_sparse_tensor(seed, &[22, 30, 18], 12, fill_pct as f64 / 100.0, false);
        let dense = sparse.to_dense();
        let opts = small_sketch_options(rank, seed ^ 0xF1);
        let fs = Dpar2.fit(&sparse, &opts).unwrap();
        let fd = Dpar2.fit(&dense, &opts).unwrap();
        prop_assert_eq!(&fs.u, &fd.u, "U diverged");
        prop_assert_eq!(&fs.s, &fd.s, "S diverged");
        prop_assert_eq!(&fs.v, &fd.v, "V diverged");
        prop_assert_eq!(&fs.h, &fd.h, "H diverged");
        prop_assert_eq!(fs.iterations, fd.iterations);
        prop_assert_eq!(&fs.criterion_trace, &fd.criterion_trace);
    }
}

#[test]
fn csr_compress_multithreaded_is_bitwise_serial() {
    // nnz-weighted partitioning only schedules; values must not move.
    let sparse = random_sparse_tensor(9, &[40, 18, 55, 25, 33], 14, 0.1, false);
    let serial = compress(&sparse, &small_sketch_options(3, 10)).unwrap();
    for threads in [2usize, 3, 8] {
        let pooled = compress(&sparse, &small_sketch_options(3, 10).with_threads(threads)).unwrap();
        assert_compressed_bitwise(&pooled, &serial, &format!("threads {threads}"));
    }
}

#[test]
fn csr_fit_rank_energy_probe_matches_dense() {
    // The adaptive-rank probe runs through SparseVStack on CSR input; with matching seeds it must pick the same rank and produce
    // the same fit as the dense probe.
    let sparse = random_sparse_tensor(31, &[26, 20, 24], 10, 0.2, false);
    let dense = sparse.to_dense();
    let opts = small_sketch_options(3, 32).with_rank_energy(0.8);
    let fs = Dpar2.fit(&sparse, &opts).unwrap();
    let fd = Dpar2.fit(&dense, &opts).unwrap();
    assert_eq!(fs.rank(), fd.rank(), "adaptive rank diverged");
    assert_eq!(fs.u, fd.u);
    assert_eq!(fs.criterion_trace, fd.criterion_trace);
}

#[test]
fn csr_compress_rejects_invalid_ranks() {
    let sparse = random_sparse_tensor(41, &[12, 3], 10, 0.3, false);
    let err = compress(&sparse, &FitOptions::new(0)).unwrap_err();
    assert_eq!(err, Dpar2Error::ZeroRank);
    // Slice 1 has only 3 rows: rank 4 cannot be supported there.
    let err = compress(&sparse, &FitOptions::new(4)).unwrap_err();
    assert!(matches!(err, Dpar2Error::RankTooLarge { rank: 4, slice: 1, limit: 3 }), "got {err:?}");
}

#[test]
fn duplicate_coo_and_densify_round_trip_agree() {
    // Sanity check on the oracle itself: the densified tensor the dense
    // path sees carries the coalesced values (duplicates summed in push
    // order, explicit zeros preserved structurally).
    let sparse = random_sparse_tensor(51, &[16, 14], 8, 0.2, false);
    let dense = sparse.to_dense();
    assert_eq!(dense.k(), 2);
    let round_trip = SparseIrregularTensor::from_dense(&dense);
    // from_dense drops exact zeros, so nnz may shrink, but values match.
    for k in 0..2 {
        assert_eq!(round_trip.slice(k).to_dense(), sparse.slice(k).to_dense());
    }
    let opts = small_sketch_options(2, 52);
    let a = compress(&sparse, &opts).unwrap();
    let b = compress(&round_trip, &opts).unwrap();
    assert_compressed_bitwise(&a, &b, "explicit zeros must not affect results");
}
