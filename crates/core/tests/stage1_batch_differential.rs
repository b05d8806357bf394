//! Differential suite for stage-1 compression run in lane groups.
//!
//! `compress` sketches each slice on its own, factors the `B = QᵀX_k`
//! matrices of up to `SVD_LANES` slices together with
//! `svd_thin_batch_into`, and lifts each slice's factors into its own
//! slot. The promise is that nothing of this shows: every stage-1 factor
//! is bitwise what `rsvd` computes for that slice alone, and so is
//! everything stage 2 builds on them. The reference below is the
//! one-slice-at-a-time pipeline written out — the same per-slice seed
//! derivation and stage-2 seed as `compress` — and the suite compares
//! whole compressed tensors bit for bit, dense and CSR, at 1, 2 and 3
//! threads. `K` is not a multiple of the lane count, so the last group of
//! every thread is short, and some slices are short enough that their
//! sketch would span the whole space (`min(I_k, J) ≤ R + s`): those take
//! the exact-SVD path beside the sketched slices of their group.

use dpar2_core::{compress, CompressedTensor, FitOptions, RsvdConfig, SliceTensor};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::Mat;
use dpar2_rsvd::rsvd;
use dpar2_tensor::{IrregularTensor, SparseIrregularTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RANK: usize = 3;
const J: usize = 14;

/// Row counts: 11 slices (not a multiple of 8); 5, 7 and 9 rows put
/// `min(I_k, J) ≤ R + s = 9` on the exact path, the rest are sketched.
const ROWS: [usize; 11] = [40, 5, 23, 61, 7, 18, 9, 33, 12, 50, 27];

fn options(threads: usize) -> FitOptions<'static> {
    FitOptions::new(RANK).with_seed(1601).with_threads(threads).with_rsvd(RsvdConfig {
        rank: RANK,
        oversample: 6,
        power_iterations: 1,
    })
}

/// Low-rank-plus-noise slices, with a few explicit zeros for the CSR copy.
fn dense_tensor(seed: u64) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = gaussian_mat(J, RANK + 1, &mut rng);
    let slices = ROWS
        .iter()
        .map(|&ik| {
            let mut x = gaussian_mat(ik, RANK + 1, &mut rng).matmul_nt(&v).unwrap();
            x.axpy(0.1, &gaussian_mat(ik, J, &mut rng));
            for i in 0..ik {
                if rng.random::<f64>() < 0.3 {
                    x.set(i, (i * 5) % J, 0.0);
                }
            }
            x
        })
        .collect();
    IrregularTensor::new(slices)
}

/// Stage 1 one slice at a time through `rsvd`, then stage 2 — the
/// pipeline `compress` must reproduce bit for bit.
fn reference<T: SliceTensor>(tensor: &T, options: &FitOptions<'_>) -> CompressedTensor {
    let r = options.rank;
    let cfg = RsvdConfig { rank: r, ..options.rsvd };
    let stage1: Vec<_> = (0..tensor.k())
        .map(|k| {
            let seed = options.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1);
            rsvd(tensor.slice(k), &cfg, &mut StdRng::seed_from_u64(seed))
        })
        .collect();
    let cb: Vec<Mat> = stage1
        .iter()
        .map(|f| {
            let mut cb = f.v.clone();
            for i in 0..cb.rows() {
                for (x, &s) in cb.row_mut(i).iter_mut().zip(&f.s) {
                    *x *= s;
                }
            }
            cb
        })
        .collect();
    let m = Mat::hstack_all(&cb.iter().collect::<Vec<_>>());
    let f2 = rsvd(&m, &cfg, &mut StdRng::seed_from_u64(options.seed ^ 0xD1B5_4A32_D192_ED03));
    CompressedTensor {
        f_blocks: (0..tensor.k()).map(|k| f2.v.block(k * r, (k + 1) * r, 0, r)).collect(),
        a: stage1.into_iter().map(|f| f.u).collect(),
        d: f2.u,
        e: f2.s,
        rank: r,
        j: tensor.j(),
    }
}

fn bits(m: &Mat) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise(got: &CompressedTensor, want: &CompressedTensor, ctx: &str) {
    assert_eq!((got.rank, got.j, got.k()), (want.rank, want.j, want.k()), "{ctx}: shape");
    for k in 0..want.k() {
        assert_eq!(got.a[k].shape(), want.a[k].shape(), "{ctx}: A_{k} shape");
        assert!(bits(&got.a[k]) == bits(&want.a[k]), "{ctx}: A_{k} differs");
        assert!(bits(&got.f_blocks[k]) == bits(&want.f_blocks[k]), "{ctx}: F({k}) differs");
    }
    assert!(bits(&got.d) == bits(&want.d), "{ctx}: D differs");
    let e_bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(e_bits(&got.e), e_bits(&want.e), "{ctx}: E differs");
}

#[test]
fn dense_stage1_groups_equal_per_slice_rsvd() {
    let t = dense_tensor(1602);
    let want = reference(&t, &options(1));
    for threads in [1, 2, 3] {
        let got = compress(&t, &options(threads)).unwrap();
        assert_bitwise(&got, &want, &format!("dense, {threads} threads"));
    }
}

#[test]
fn csr_stage1_groups_equal_per_slice_rsvd() {
    let t = SparseIrregularTensor::from_dense(&dense_tensor(1603));
    let want = reference(&t, &options(1));
    for threads in [1, 2, 3] {
        let got = compress(&t, &options(threads)).unwrap();
        assert_bitwise(&got, &want, &format!("CSR, {threads} threads"));
    }
}

#[test]
fn every_slice_on_the_exact_path() {
    // All slices short: no group has a sketch to batch.
    let mut rng = StdRng::seed_from_u64(1604);
    let t = IrregularTensor::new((0..6).map(|k| gaussian_mat(4 + k % 3, J, &mut rng)).collect());
    let want = reference(&t, &options(1));
    for threads in [1, 2, 3] {
        let got = compress(&t, &options(threads)).unwrap();
        assert_bitwise(&got, &want, &format!("exact only, {threads} threads"));
    }
}
