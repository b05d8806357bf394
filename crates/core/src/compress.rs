//! Two-stage compression of an irregular tensor (§III-B, Fig. 4).
//!
//! **Stage 1** — randomized SVD of every slice at the target rank:
//! `X_k ≈ A_k B_k C_kᵀ` with column-orthonormal `A_k ∈ R^{I_k×R}`, diagonal
//! `B_k`, and `C_k ∈ R^{J×R}`. Slices are distributed over threads with the
//! greedy partitioning of Algorithm 4, because the rSVD cost is proportional
//! to `I_k`. Each thread takes its slices in groups of [`SVD_LANES`]
//! (eight): it sketches each one, factors the group's `(R+s)×J`
//! projections `B` together with the lane-batched Jacobi SVD (bitwise each
//! alone), and lifts each slice's factors into that slice's slot.
//!
//! **Stage 2** — randomized SVD of the horizontal concatenation
//! `M = ∥_k (C_k B_k) ∈ R^{J×KR} ≈ D E Fᵀ` with `D ∈ R^{J×R}`, diagonal `E`,
//! `F ∈ R^{KR×R}`. Writing `F(k)` for the `k`-th `R×R` vertical block of `F`,
//! the slice re-expression used by every later step is
//!
//! ```text
//! X_k ≈ A_k B_k C_kᵀ = A_k (C_k B_k)ᵀ-block ≈ A_k F(k) E Dᵀ.
//! ```
//!
//! Only `{A_k}`, `{F(k)}`, `E`, `D` survive — `O(Σ_k I_k R + K R² + J R)`
//! floats (Theorem 2), which Fig. 10 of the paper shows is up to 201× smaller
//! than the input.

use crate::config::FitOptions;
use crate::error::Result;
use crate::slices::{validate, SliceTensor};
use dpar2_linalg::{svd_thin_batch_into, Mat, SvdBatchScratch, SvdFactors, SVD_LANES};
use dpar2_parallel::{greedy_partition, Bucket, ThreadPool};
use dpar2_rsvd::{rsvd_lift, rsvd_pooled, rsvd_sketch, RsvdConfig, RsvdSketch};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The compressed representation `{A_k}, {F(k)}, E, D` of an irregular
/// tensor, produced once before the ALS iterations.
#[derive(Debug, Clone)]
pub struct CompressedTensor {
    /// Column-orthonormal stage-1 left factors `A_k ∈ R^{I_k×R}`.
    pub a: Vec<Mat>,
    /// Stage-2 left factor `D ∈ R^{J×R}` (column-orthonormal).
    pub d: Mat,
    /// Diagonal of the stage-2 singular-value matrix `E ∈ R^{R×R}`.
    pub e: Vec<f64>,
    /// Vertical blocks `F(k) ∈ R^{R×R}` of the stage-2 right factor
    /// `F ∈ R^{KR×R}`.
    pub f_blocks: Vec<Mat>,
    /// Target rank `R`.
    pub rank: usize,
    /// Shared column dimension `J` of the original tensor.
    pub j: usize,
}

impl CompressedTensor {
    /// Number of slices `K`.
    pub fn k(&self) -> usize {
        self.a.len()
    }

    /// `E Dᵀ ∈ R^{R×J}` — the product both Lemma kernels and the `Q_k`
    /// update consume. Materialized once; `E` is diagonal so this is just a
    /// row-scaled `Dᵀ`.
    pub fn edt(&self) -> Mat {
        let mut edt = self.d.transpose();
        for (r, &er) in self.e.iter().enumerate() {
            for v in edt.row_mut(r) {
                *v *= er;
            }
        }
        edt
    }

    /// Reconstructs slice `k` as `A_k F(k) E Dᵀ` (lossy; used by tests and
    /// the naive-update ablation, not by the solver).
    pub fn reconstruct_slice(&self, k: usize) -> Mat {
        let afe = self.a[k].matmul(&self.f_blocks[k]).expect("A_k · F(k)");
        afe.matmul(self.edt()).expect("· E Dᵀ")
    }

    /// Total number of `f64` values retained — the "Size of Preprocessed
    /// Data" metric of Fig. 10 (Theorem 2: `O(Σ I_k R + K R² + J R)`).
    pub fn size_floats(&self) -> usize {
        let a: usize = self.a.iter().map(Mat::len).sum();
        let f: usize = self.f_blocks.iter().map(Mat::len).sum();
        a + f + self.d.len() + self.e.len()
    }

    /// Compression ratio versus the raw tensor
    /// (`Σ_k I_k J` / [`Self::size_floats`]).
    pub fn compression_ratio(&self, tensor: &IrregularTensor) -> f64 {
        tensor.num_entries() as f64 / self.size_floats() as f64
    }
}

/// Runs the two-stage compression (lines 2–6 of Algorithm 3) on dense or
/// CSR slices.
///
/// Stage-1 per-slice randomized SVDs run in parallel over
/// `options.threads` threads, with slices assigned by greedy number
/// partitioning on their [work](SliceTensor::work) — row counts for dense
/// slices (Algorithm 4), nonzeros for CSR ones. Each slice draws from an
/// independent RNG seeded with `options.seed ⊕ k`, so results are identical
/// for every thread count. A CSR tensor is never densified: every pass
/// costs O(nnz·(R+s)), and while every sketch-width product stays on the
/// dense naive dispatch path (`rank + oversample` below the blocked-GEMM
/// tile width) the result is **bitwise identical** to compressing
/// [`SparseIrregularTensor::to_dense`](dpar2_tensor::SparseIrregularTensor::to_dense).
///
/// # Errors
/// The [`validate`] contract: [`crate::Dpar2Error::RankTooLarge`] if
/// `R > min(I_k, J)` for any slice, [`crate::Dpar2Error::ZeroRank`] if
/// `R == 0`, [`crate::Dpar2Error::NonFinite`] if any slice stores a NaN or
/// ±∞.
pub fn compress<T: SliceTensor>(tensor: &T, options: &FitOptions<'_>) -> Result<CompressedTensor> {
    validate(tensor, options.rank)?;
    Ok(compress_valid(tensor, options))
}

/// [`compress`] on a tensor that already passed [`validate`] at
/// `options.rank`.
pub(crate) fn compress_valid<T: SliceTensor>(
    tensor: &T,
    options: &FitOptions<'_>,
) -> CompressedTensor {
    let r = options.rank;
    // ---- Stage 1: per-slice rSVD, greedy-partitioned over threads ----
    let pool = ThreadPool::new(options.threads.max(1));
    let weights: Vec<usize> = (0..tensor.k()).map(|k| tensor.work(k)).collect();
    let partition = greedy_partition(&weights, pool.threads());
    // The compression rank always follows `options.rank`; only the
    // oversampling/power-iteration knobs of `options.rsvd` apply.
    let rsvd_cfg = RsvdConfig { rank: r, ..options.rsvd };
    let base_seed = options.seed;
    // One slot per slice; each thread fills the slots of its bucket.
    let mut stage1: Vec<SvdFactors> = vec![SvdFactors::default(); tensor.k()];
    let mut scratch = vec![(); partition.len()];
    pool.for_each_partitioned(&partition, stage1.iter_mut(), &mut scratch, |bucket, _| {
        stage1_bucket(tensor, bucket, &rsvd_cfg, base_seed);
    });

    stage2(stage1, r, tensor.j(), &rsvd_cfg, base_seed, &pool)
}

/// Stage 1 for one thread's slices, in groups of [`SVD_LANES`]: each
/// slice's sketch (its own RNG stream, so the schedule cannot change the
/// factorization), then the group's `B` matrices factored together —
/// bitwise each alone — and each slice's factors lifted into its slot.
/// Every slot ends bitwise equal to [`dpar2_rsvd::rsvd`] of its slice.
fn stage1_bucket<T: SliceTensor>(
    tensor: &T,
    bucket: &mut Bucket<'_, &mut SvdFactors>,
    rsvd_cfg: &RsvdConfig,
    base_seed: u64,
) {
    let serial = ThreadPool::new(1);
    let mut ws = SvdBatchScratch::default();
    let mut small: [SvdFactors; SVD_LANES] = Default::default();
    let mut group = Vec::with_capacity(SVD_LANES);
    let (mut bs, mut lifts) = (Vec::with_capacity(SVD_LANES), Vec::with_capacity(SVD_LANES));
    loop {
        group.clear();
        group.extend((&mut *bucket).take(SVD_LANES));
        if group.is_empty() {
            break;
        }
        bs.clear();
        lifts.clear();
        for (g, (k, slot)) in group.iter_mut().enumerate() {
            let mut rng = StdRng::seed_from_u64(stage1_seed(base_seed, *k));
            match rsvd_sketch(tensor.slice(*k), rsvd_cfg, &mut rng, &serial) {
                RsvdSketch::Exact(f) => **slot = f,
                RsvdSketch::Range { q, b, rank } => {
                    bs.push(b);
                    lifts.push((g, q, rank));
                }
            }
        }
        svd_thin_batch_into(&bs, &mut small[..bs.len()], &mut ws);
        for ((g, q, rank), f) in lifts.iter().zip(&small) {
            *group[*g].1 = rsvd_lift(q, f, *rank, &serial);
        }
    }
}

/// Per-slice stage-1 RNG seed — one fixed formula for every storage (and
/// mirrored by the rank-probe/streaming derivations), so dense and CSR
/// inputs consume identical Gaussian streams.
#[inline]
fn stage1_seed(base_seed: u64, k: usize) -> u64 {
    base_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1))
}

/// Stage 2 — rSVD of `M = ∥_k (C_k B_k) ∈ R^{J×KR}`: stage 1 already
/// reduced every slice to small dense factors, so from here on the pipeline
/// is dense and identical regardless of the input representation.
fn stage2(
    stage1: Vec<SvdFactors>,
    r: usize,
    j: usize,
    rsvd_cfg: &RsvdConfig,
    base_seed: u64,
    pool: &ThreadPool,
) -> CompressedTensor {
    // C_k B_k is C_k with column c scaled by B_k's c-th singular value.
    let cb: Vec<Mat> = stage1
        .iter()
        .map(|f| {
            let mut cb = f.v.clone();
            for i in 0..cb.rows() {
                let row = cb.row_mut(i);
                for (col, &s) in f.s.iter().enumerate() {
                    row[col] *= s;
                }
            }
            cb
        })
        .collect();
    let m = Mat::hstack_all(&cb.iter().collect::<Vec<_>>());
    let mut rng2 = StdRng::seed_from_u64(base_seed ^ 0xD1B5_4A32_D192_ED03);
    // Stage 2 is one big `J × KR` factorization with no slice-level
    // parallelism to exploit, so its GEMM chains fan out over the pool
    // instead (pooled GEMM is bit-identical for every thread count, which
    // keeps the whole compression schedule-independent).
    let f2 = rsvd_pooled(&m, rsvd_cfg, &mut rng2, pool);

    // F ∈ R^{KR×R} comes back as f2.v; carve out the K vertical R×R blocks.
    let f_blocks: Vec<Mat> =
        (0..stage1.len()).map(|k| f2.v.block(k * r, (k + 1) * r, 0, r)).collect();

    CompressedTensor {
        a: stage1.into_iter().map(|f| f.u).collect(),
        d: f2.u,
        e: f2.s,
        f_blocks,
        rank: r,
        j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Dpar2Error;
    use dpar2_linalg::random::gaussian_mat;
    use rand::Rng;

    /// Irregular tensor with planted rank-`r` structure plus noise `eps`.
    fn planted(row_dims: &[usize], j: usize, r: usize, eps: f64, seed: u64) -> IrregularTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let v = gaussian_mat(j, r, &mut rng);
        let slices = row_dims
            .iter()
            .map(|&ik| {
                let u = gaussian_mat(ik, r, &mut rng);
                let mut x = u.matmul_nt(&v).unwrap();
                if eps > 0.0 {
                    x.axpy(eps, &gaussian_mat(ik, j, &mut rng));
                }
                x
            })
            .collect();
        IrregularTensor::new(slices)
    }

    #[test]
    fn exact_on_planted_low_rank() {
        let t = planted(&[30, 50, 20, 40], 25, 3, 0.0, 1);
        let c = compress(&t, &FitOptions::new(3).with_seed(2)).unwrap();
        for k in 0..t.k() {
            let err = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(err < 1e-8, "slice {k} rel err {err}");
        }
    }

    #[test]
    fn a_factors_column_orthonormal() {
        let t = planted(&[40, 25], 20, 4, 0.1, 3);
        let c = compress(&t, &FitOptions::new(4).with_seed(4)).unwrap();
        for (k, a) in c.a.iter().enumerate() {
            let dev = (&a.gram() - &Mat::eye(4)).fro_norm();
            assert!(dev < 1e-10, "A_{k} not orthonormal: {dev}");
        }
    }

    #[test]
    fn shapes_match_theorem_2() {
        let t = planted(&[15, 25, 35], 18, 5, 0.05, 5);
        let c = compress(&t, &FitOptions::new(5).with_seed(6)).unwrap();
        assert_eq!(c.k(), 3);
        assert_eq!(c.d.shape(), (18, 5));
        assert_eq!(c.e.len(), 5);
        assert_eq!(c.f_blocks.len(), 3);
        for f in &c.f_blocks {
            assert_eq!(f.shape(), (5, 5));
        }
        // Theorem 2: Σ I_k R + K R² + J R (+R for diagonal E).
        let expected = (15 + 25 + 35) * 5 + 3 * 25 + 18 * 5 + 5;
        assert_eq!(c.size_floats(), expected);
        assert!(c.compression_ratio(&t) > 1.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let t = planted(&[30, 60, 10, 45, 22], 16, 3, 0.2, 7);
        let c1 = compress(&t, &FitOptions::new(3).with_seed(8).with_threads(1)).unwrap();
        let c4 = compress(&t, &FitOptions::new(3).with_seed(8).with_threads(4)).unwrap();
        for k in 0..t.k() {
            assert!((&c1.a[k] - &c4.a[k]).fro_norm() < 1e-14, "A_{k} differs across thread counts");
            assert!((&c1.f_blocks[k] - &c4.f_blocks[k]).fro_norm() < 1e-14);
        }
        assert_eq!(c1.e, c4.e);
    }

    #[test]
    fn noisy_compression_near_optimal() {
        // With noise, compressed reconstruction should still capture the
        // signal: relative error about the noise floor, not worse.
        let eps = 0.05;
        let t = planted(&[50, 70], 30, 4, eps, 9);
        let c = compress(&t, &FitOptions::new(4).with_seed(10)).unwrap();
        for k in 0..t.k() {
            let rel = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(rel < 0.2, "slice {k} rel err {rel} too high");
        }
    }

    #[test]
    fn rank_too_large_rejected() {
        let t = planted(&[10, 4], 20, 2, 0.0, 11);
        let err = compress(&t, &FitOptions::new(5)).unwrap_err();
        assert!(matches!(err, Dpar2Error::RankTooLarge { slice: 1, limit: 4, .. }));
    }

    #[test]
    fn zero_rank_rejected() {
        let t = planted(&[10], 8, 2, 0.0, 12);
        assert_eq!(compress(&t, &FitOptions::new(0)).unwrap_err(), Dpar2Error::ZeroRank);
    }

    #[test]
    fn edt_matches_explicit_product() {
        let t = planted(&[20, 30], 15, 3, 0.1, 13);
        let c = compress(&t, &FitOptions::new(3).with_seed(14)).unwrap();
        let explicit = Mat::diag(&c.e).matmul(c.d.transpose()).unwrap();
        assert!((&c.edt() - &explicit).fro_norm() < 1e-12);
    }

    #[test]
    fn blockwise_equivalence_of_m_factorization() {
        // B_k C_kᵀ ≈ F(k) E Dᵀ (Equation 6's replacement step): verify the
        // products agree for noiseless low-rank input.
        let t = planted(&[25, 35], 12, 2, 0.0, 15);
        let cfg = FitOptions::new(2).with_seed(16);
        let c = compress(&t, &cfg).unwrap();
        // Reconstruct both sides through the slices: A_k B_k C_kᵀ == X_k
        // (noiseless) and A_k F(k) E Dᵀ == X_k.
        for k in 0..t.k() {
            let rel = (t.slice(k) - &c.reconstruct_slice(k)).fro_norm() / t.slice(k).fro_norm();
            assert!(rel < 1e-8);
        }
    }

    #[test]
    fn works_on_uniform_random_tensor() {
        // tenrand-style dense tensor — low fitness but valid shapes.
        let mut rng = StdRng::seed_from_u64(17);
        let slices = (0..4).map(|_| Mat::from_fn(22, 14, |_, _| rng.random())).collect();
        let t = IrregularTensor::new(slices);
        let c = compress(&t, &FitOptions::new(5).with_seed(18)).unwrap();
        assert_eq!(c.k(), 4);
        assert_eq!(c.rank, 5);
    }
}
