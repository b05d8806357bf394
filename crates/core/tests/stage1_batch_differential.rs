//! Differential suite for stage 1 run in lane groups, on both routes.
//!
//! `compress` takes each slice either through the Gram route (when
//! `gram_route_applies`: the small side's Gram, an `m × (R+s)` sketch, an
//! `(R+s)×(R+s)` core) or through the randomized SVD (`B = QᵀX_k`), factors
//! the cores of up to `SVD_LANES` slices together with
//! `svd_thin_batch_into`, and lifts each slice's factors into its own
//! slot. The promise is that nothing of this shows: every stage-1 factor
//! is bitwise what the one-slice-at-a-time pipeline computes for that
//! slice alone, and so is everything stage 2 builds on them. The reference
//! below is that pipeline written out: the same rule, `gram_svd` on the
//! slice's own Gram where the rule holds and the route takes it, else
//! `rsvd` on a fresh stream of the same per-slice seed, then stage 2 the
//! same way on `M`. Every route slice's `gram_svd` draws its `Ω` from one
//! seed, derived from the base seed alone: `compress` draws one `Ω` per
//! call from it and hands each route slice its top `m` rows, which are
//! bitwise what `gram_svd` draws from a fresh RNG of that seed. The suite
//! compares whole compressed tensors bit for bit, dense and CSR (and
//! dense against CSR), at 1, 2 and 3 threads.
//!
//! With `R + s = 3` every sketch product of the randomized SVD and every
//! lift of the route stays on the naive dispatch path, and both storages
//! sum their Grams in the same order, so CSR equals densified throughout.
//! `K` is not a multiple of the lane count, so the last group of every
//! thread is short. The two tensors put slices on every path: the route
//! on the tall side (`G = XᵀX`) and on the wide side (`G = XXᵀ`), the
//! randomized SVD above the rule's `κ·(R+s)` on either side, the exact
//! SVD where `min(I_k, J) ≤ R + s`, a slice whose Gram lies below the
//! route's scale window and a rank-deficient one, both of which the route
//! hands back to the randomized SVD.

use dpar2_core::{
    compress, gram_route_applies, gram_svd, CompressedTensor, FitOptions, LowRank, RsvdConfig,
    SliceTensor,
};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::{gemm, Mat, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::{rsvd, ProductOp};
use dpar2_tensor::{IrregularTensor, SparseIrregularTensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RANK: usize = 2;

fn config() -> RsvdConfig {
    RsvdConfig { rank: RANK, oversample: 1, power_iterations: 1 }
}

fn options(threads: usize) -> FitOptions<'static> {
    FitOptions::new(RANK).with_seed(1601).with_threads(threads).with_rsvd(config())
}

/// How a slice of `tensor` is factored: `"gram"`, `"declined"` (the rule
/// holds, the route hands the slice back), `"rsvd"` or `"exact"`.
fn path<T: SliceTensor>(tensor: &T, k: usize) -> &'static str {
    let (rows, cols) = tensor.slice(k).shape();
    if rows.min(cols) <= RANK + config().oversample {
        "exact"
    } else if !gram_route_applies(rows, cols, &config()) {
        "rsvd"
    } else if route(tensor, k, &ThreadPool::new(1)).is_some() {
        "gram"
    } else {
        "declined"
    }
}

/// Low-rank-plus-noise slices of the given row counts, with a few explicit
/// zeros for the CSR copy; `rank_one` gets an exactly rank-1 slice and
/// `tiny` one scaled by `2^-300`, whose Gram lies below the scale window.
fn dense_tensor(
    seed: u64,
    j: usize,
    rows: &[usize],
    rank_one: usize,
    tiny: usize,
) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = gaussian_mat(j, RANK + 1, &mut rng);
    let slices = rows
        .iter()
        .enumerate()
        .map(|(k, &ik)| {
            if k == rank_one {
                return gaussian_mat(ik, 1, &mut rng)
                    .matmul_nt(gaussian_mat(j, 1, &mut rng))
                    .unwrap();
            }
            let mut x = gaussian_mat(ik, RANK + 1, &mut rng).matmul_nt(&v).unwrap();
            x.axpy(0.1, &gaussian_mat(ik, j, &mut rng));
            for i in 0..ik {
                if rng.random::<f64>() < 0.3 {
                    x.set(i, (i * 5) % j, 0.0);
                }
            }
            if k == tiny {
                x.scale_mut(2f64.powi(-300));
            }
            x
        })
        .collect();
    IrregularTensor::new(slices)
}

/// `J = 14`: every slice of at least 4 rows qualifies for the route, tall
/// or wide; slice 3 is rank 1 and slice 6 tiny, and 3-row slices are
/// exact. 11 slices.
fn tensor_a(seed: u64) -> IrregularTensor {
    dense_tensor(seed, 14, &[40, 5, 23, 61, 3, 18, 9, 33, 12, 3, 27], 3, 6)
}

/// `J = 30`: tall slices and the widest short ones are above the rule's
/// `κ·(R+s)` and take the randomized SVD; short slices below it take the
/// route on their row side. 9 slices.
fn tensor_b(seed: u64) -> IrregularTensor {
    dense_tensor(seed, 30, &[40, 8, 29, 61, 3, 12, 33, 17, 5], usize::MAX, usize::MAX)
}

fn stage1_seed(k: usize) -> u64 {
    1601 ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1)
}

/// The seed of the test matrix `Ω` every route slice shares.
const OMEGA_SEED: u64 = 1601 ^ 0x2545_F491_4F6C_DD1D;

/// The route on slice `k` alone, on its own small-side Gram, drawing its
/// `Ω` from the shared seed.
fn route<T: SliceTensor>(tensor: &T, k: usize, pool: &ThreadPool) -> Option<LowRank> {
    let x = tensor.slice(k);
    let (rows, cols) = x.shape();
    let mut g = Mat::default();
    if rows < cols {
        tensor.outer_gram_into(k, &mut g, &mut Mat::default());
    } else {
        tensor.gram_into(k, &mut g);
    }
    gram_svd(x, &mut g, &config(), &mut StdRng::seed_from_u64(OMEGA_SEED), pool)
}

/// `A = U`, `C = V·Σ` of an rSVD.
fn from_rsvd(op: impl ProductOp, seed: u64) -> LowRank {
    let f = rsvd(op, &config(), &mut StdRng::seed_from_u64(seed));
    let mut c = f.v;
    for i in 0..c.rows() {
        for (x, &s) in c.row_mut(i).iter_mut().zip(&f.s) {
            *x *= s;
        }
    }
    LowRank { a: f.u, c, s: f.s }
}

/// Stage 1 one slice at a time — the rule, then the route or `rsvd` —
/// then stage 2 the same way on `M`: the pipeline `compress` must
/// reproduce bit for bit.
fn reference<T: SliceTensor>(tensor: &T) -> CompressedTensor {
    let serial = ThreadPool::new(1);
    let cfg = config();
    let stage1: Vec<LowRank> = (0..tensor.k())
        .map(|k| {
            let (rows, cols) = tensor.slice(k).shape();
            let routed = gram_route_applies(rows, cols, &cfg).then(|| route(tensor, k, &serial));
            routed.flatten().unwrap_or_else(|| from_rsvd(tensor.slice(k), stage1_seed(k)))
        })
        .collect();
    let m = Mat::hstack_all(&stage1.iter().map(|f| &f.c).collect::<Vec<_>>());
    let (rows, cols) = m.shape();
    let seed2 = 1601 ^ 0xD1B5_4A32_D192_ED03;
    let routed = gram_route_applies(rows, cols, &cfg).then(|| {
        let mut g = Mat::default();
        if rows < cols {
            gemm(Trans::N, Trans::T, &m, &m, &mut g, &serial);
        } else {
            gemm(Trans::T, Trans::N, &m, &m, &mut g, &serial);
        }
        gram_svd(&m, &mut g, &cfg, &mut StdRng::seed_from_u64(seed2), &serial)
    });
    let (d, e, f) = match routed.flatten() {
        Some(LowRank { a, mut c, s }) => {
            for i in 0..c.rows() {
                for (x, &e) in c.row_mut(i).iter_mut().zip(&s) {
                    *x /= e;
                }
            }
            (a, s, c)
        }
        None => {
            let f2 = rsvd(&m, &cfg, &mut StdRng::seed_from_u64(seed2));
            (f2.u, f2.s, f2.v)
        }
    };
    CompressedTensor {
        f_blocks: (0..tensor.k()).map(|k| f.block(k * RANK, (k + 1) * RANK, 0, RANK)).collect(),
        a: stage1.into_iter().map(|f| f.a).collect(),
        d,
        e,
        rank: RANK,
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

/// Compresses `t` at 1, 2 and 3 threads against the reference.
fn check<T: SliceTensor>(t: &T, ctx: &str) -> CompressedTensor {
    let want = reference(t);
    for threads in [1, 2, 3] {
        let got = compress(t, &options(threads)).unwrap();
        assert_bitwise(&got, &want, &format!("{ctx}, {threads} threads"));
    }
    want
}

#[test]
fn the_tensors_cover_every_path() {
    let (a, b) = (tensor_a(1602), tensor_b(1602));
    let paths: Vec<_> = (0..a.k()).map(|k| path(&a, k)).collect();
    assert_eq!(
        paths,
        [
            "gram", "gram", "gram", "declined", "exact", "gram", "declined", "gram", "gram",
            "exact", "gram"
        ]
    );
    let paths: Vec<_> = (0..b.k()).map(|k| path(&b, k)).collect();
    assert_eq!(paths, ["rsvd", "gram", "rsvd", "rsvd", "exact", "gram", "rsvd", "gram", "gram"]);
    // The route ran on both sides.
    assert!(a.dims().iter().any(|&i| i >= a.j()) && b.dims().iter().any(|&i| i < b.j()));
}

#[test]
fn dense_stage1_groups_equal_per_slice_rsvd() {
    check(&tensor_a(1602), "dense A");
    check(&tensor_b(1602), "dense B");
}

#[test]
fn csr_stage1_groups_equal_per_slice_rsvd() {
    for (ctx, dense) in [("A", tensor_a(1603)), ("B", tensor_b(1603))] {
        let want = check(&dense, &format!("dense {ctx}"));
        let got = check(&SparseIrregularTensor::from_dense(&dense), &format!("CSR {ctx}"));
        assert_bitwise(&got, &want, &format!("CSR {ctx} against dense"));
    }
}

#[test]
fn every_slice_on_the_exact_path() {
    // All slices short: no group has a sketch to batch.
    let mut rng = StdRng::seed_from_u64(1604);
    let t = IrregularTensor::new((0..6).map(|k| gaussian_mat(2 + k % 2, 14, &mut rng)).collect());
    assert!((0..t.k()).all(|k| path(&t, k) == "exact"));
    check(&t, "exact only");
}
