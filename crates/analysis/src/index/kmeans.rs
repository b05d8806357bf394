//! Seeded, deterministic k-means partitioner over embedding rows.
//!
//! This is the build-time half of the pruned top-k index: it groups the
//! per-entity factor embeddings into compact partitions whose centroid /
//! radius / norm summaries drive the triangle-inequality pruning in
//! [`pruned`](super::pruned). Quality requirements are therefore modest —
//! any reasonable clustering prunes well — but **determinism is strict**:
//! the same `(points, partitions, seed)` must produce the same assignment on
//! every machine and at every thread count, because serve-side tests pin
//! `nprobe = num_partitions` to the exact engine bitwise. Every step below
//! is either serial or built on [`gemm`] over the pool, which is
//! bit-identical across pool sizes by construction.
//!
//! The assignment pass is the only O(n·p) part and is done in row blocks
//! through [`gemm`] on a reused output buffer, so the full `n × p` score
//! matrix (8 GB at n = 10⁶, p = 10³) is never materialized. A block whose
//! product is blocked either way round scores `X_block · Cᵀ` straight off
//! the points. Any other block scores `C · X_blockᵀ` on a reused transposed
//! block: `p` is often small (3–10 centroids over a few hundred dimensions
//! on small shape groups), and a product only a few columns wide leaves the
//! register tiles of [`gemm`] mostly idle. The blocked kernel sums each
//! entry in the same order in both orientations, so the choice moves no
//! bit.

use crate::similarity::squared_distance;
use dpar2_linalg::kernel::use_blocked;
use dpar2_linalg::{gemm, Mat, MatRef, Trans};
use dpar2_parallel::ThreadPool;

/// Result of [`partition_points`]: a flat assignment plus the centroids it
/// converged to.
#[derive(Debug, Clone)]
pub struct Partitioning {
    /// `assignments[i]` = partition of row `i`, in `0..centroids.rows()`.
    pub assignments: Vec<u32>,
    /// `p × dim` centroid matrix (empty partitions keep their last
    /// centroid, so every row is always a valid point in space).
    pub centroids: Mat,
    /// Lloyd iterations actually run (stops early once assignments are
    /// stable).
    pub iterations: usize,
}

/// Row block length for the blocked assignment GEMM: large enough that the
/// blocked kernel path engages and per-block overhead vanishes, small
/// enough that `p × block` stays a few MB for p ≈ √n at n = 10⁶.
const ASSIGN_BLOCK: usize = 2048;

/// SplitMix64 — tiny deterministic seed mixer (same generator the solver
/// crates use for per-stage seed derivation).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Clusters the rows of `points` (`n × dim`) into at most `partitions`
/// groups with seeded farthest-first initialization and blocked Lloyd
/// iterations. Deterministic for every thread count of `pool`.
///
/// The effective partition count is clamped to `1..=n` (one point cannot
/// fill two partitions); duplicate points may leave some partitions empty,
/// which is fine — empty partitions are skipped at query time.
///
/// # Panics
/// Panics if `n > u32::MAX` (assignments are stored as `u32`).
pub fn partition_points(
    points: MatRef<'_>,
    partitions: usize,
    max_iterations: usize,
    seed: u64,
    pool: &ThreadPool,
) -> Partitioning {
    let (n, dim) = points.shape();
    assert!(u32::try_from(n).is_ok(), "partition_points: too many rows for u32 assignments");
    let p = partitions.clamp(1, n.max(1));
    if n == 0 {
        return Partitioning {
            assignments: Vec::new(),
            centroids: Mat::zeros(0, dim),
            iterations: 0,
        };
    }

    let mut centroids = init_farthest_first(points, p, seed);
    let mut centroid_norms: Vec<f64> = (0..p).map(|c| sq_norm(centroids.row(c))).collect();
    let mut assignments: Vec<u32> = vec![0; n];
    // Reused `dim × block` transposed rows, and the first row of the block
    // it holds: the points never change, so a single block is transposed
    // once for every iteration.
    let (mut block_t, mut held) = (Mat::default(), usize::MAX);
    let mut scores = Mat::default(); // reused `block × p` or `p × block` GEMM output
    let mut iterations = 0;

    for _ in 0..max_iterations.max(1) {
        iterations += 1;
        let mut changed = 0usize;
        let mut r0 = 0;
        while r0 < n {
            let r1 = (r0 + ASSIGN_BLOCK).min(n);
            let by_row = use_blocked(r1 - r0, p, dim) && use_blocked(p, r1 - r0, dim);
            if by_row {
                let block = points.submatrix(r0, r1, 0, dim);
                gemm(Trans::N, Trans::T, block, &centroids, &mut scores, pool);
            } else {
                if held != r0 {
                    points.submatrix(r0, r1, 0, dim).transpose_into(&mut block_t);
                    held = r0;
                }
                gemm(Trans::N, Trans::N, &centroids, &block_t, &mut scores, pool);
            }
            // argmin over ‖x − c‖² = ‖x‖² − 2·x·c + ‖c‖²; the ‖x‖² term is
            // constant per row, so rank by ‖c‖² − 2·x·c, sweeping the
            // centroids in ascending order so ties break to the lower
            // partition id (strict `<`).
            for (i, slot) in assignments[r0..r1].iter_mut().enumerate() {
                let mut best = (0, f64::INFINITY);
                for (c, &norm) in centroid_norms.iter().enumerate() {
                    let dot = if by_row { scores.at(i, c) } else { scores.at(c, i) };
                    let score = norm - 2.0 * dot;
                    if c == 0 || score < best.1 {
                        #[allow(clippy::cast_possible_truncation)]
                        // p ≤ n ≤ u32::MAX asserted above
                        let c32 = c as u32;
                        best = (c32, score);
                    }
                }
                if *slot != best.0 {
                    *slot = best.0;
                    changed += 1;
                }
            }
            r0 = r1;
        }

        // Centroid update: ascending-row accumulation (deterministic sum
        // order). Empty partitions keep their previous centroid.
        let mut sums = Mat::zeros(p, dim);
        let mut counts = vec![0usize; p];
        for i in 0..n {
            let c = assignments[i] as usize;
            counts[c] += 1;
            let dst = sums.row_mut(c);
            for (d, &x) in points.row(i).iter().enumerate() {
                dst[d] += x;
            }
        }
        for c in 0..p {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f64;
                let src = sums.row(c);
                for d in 0..dim {
                    centroids.set(c, d, src[d] * inv);
                }
                centroid_norms[c] = sq_norm(centroids.row(c));
            }
        }

        if changed == 0 {
            break;
        }
    }

    Partitioning { assignments, centroids, iterations }
}

/// Farthest-first (k-center greedy) initialization on a deterministic
/// stride subsample. O(sample · p · dim), independent of thread count.
fn init_farthest_first(points: MatRef<'_>, p: usize, seed: u64) -> Mat {
    let (n, dim) = points.shape();
    // Subsample so init stays cheap at n = 10⁶: a fixed stride keeps the
    // choice deterministic while covering the whole row range.
    let sample_target = p.saturating_mul(16).max(1024).min(n.max(1));
    let stride = n.div_ceil(sample_target).max(1);
    let candidates: Vec<usize> = (0..n).step_by(stride).collect();
    let m = candidates.len();

    let mut centroids = Mat::zeros(p, dim);
    let first = candidates[(splitmix64(seed) % m as u64) as usize];
    centroids.row_mut(0).copy_from_slice(points.row(first));

    // min_d2[i] = distance² from candidate i to its nearest chosen center.
    let mut min_d2 = vec![f64::INFINITY; m];
    for c in 1..p {
        let last = centroids.row(c - 1).to_vec();
        let mut far = 0usize;
        let mut far_d2 = f64::NEG_INFINITY;
        for (i, &cand) in candidates.iter().enumerate() {
            let d2 = squared_distance(points.row(cand), &last).min(min_d2[i]);
            min_d2[i] = d2;
            if d2 > far_d2 {
                far = i;
                far_d2 = d2;
            }
        }
        // All-duplicate tails (far_d2 == 0) still pick a valid point;
        // the resulting duplicate centroids simply leave partitions empty.
        centroids.row_mut(c).copy_from_slice(points.row(candidates[far]));
    }
    centroids
}

fn sq_norm(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_points(per_cluster: usize, dim: usize) -> Mat {
        // Four well-separated blobs with deterministic intra-blob jitter.
        let centers = [-30.0, -10.0, 10.0, 30.0];
        Mat::from_fn(4 * per_cluster, dim, |i, j| {
            let blob = i / per_cluster;
            let jitter = (splitmix64((i * dim + j) as u64) % 1000) as f64 / 1000.0 - 0.5;
            centers[blob] + jitter + j as f64 * 0.01
        })
    }

    #[test]
    fn separated_blobs_land_in_distinct_partitions() {
        let pts = clustered_points(50, 3);
        let pool = ThreadPool::new(2);
        let part = partition_points(pts.view(), 4, 10, 7, &pool);
        assert_eq!(part.centroids.rows(), 4);
        // Points of one blob share a partition, different blobs differ.
        for blob in 0..4 {
            let first = part.assignments[blob * 50];
            assert!(
                part.assignments[blob * 50..(blob + 1) * 50].iter().all(|&a| a == first),
                "blob {blob} split across partitions"
            );
        }
        let mut seen: Vec<u32> = part.assignments.iter().step_by(50).copied().collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "blobs merged into one partition");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let pts = clustered_points(30, 4);
        let reference = partition_points(pts.view(), 7, 8, 42, &ThreadPool::new(1));
        for threads in [2, 3, 8] {
            let got = partition_points(pts.view(), 7, 8, 42, &ThreadPool::new(threads));
            assert_eq!(got.assignments, reference.assignments, "{threads} threads");
            assert_eq!(got.centroids, reference.centroids, "{threads} threads");
        }
    }

    #[test]
    fn blocked_orientations_score_the_same_bits() {
        let pool = ThreadPool::new(2);
        for (n, p, dim) in [(40, 10, 60), (8, 8, 400), (300, 17, 33)] {
            assert!(use_blocked(n, p, dim) && use_blocked(p, n, dim));
            let x = Mat::from_fn(n, dim, |i, j| (splitmix64((i * dim + j) as u64) % 997) as f64);
            let c = Mat::from_fn(p, dim, |i, j| 1.0 / (1.0 + (i * 7 + j) as f64));
            let (mut xct, mut cxt, mut xt) = (Mat::default(), Mat::default(), Mat::default());
            gemm(Trans::N, Trans::T, &x, &c, &mut xct, &pool);
            x.view().transpose_into(&mut xt);
            gemm(Trans::N, Trans::N, &c, &xt, &mut cxt, &pool);
            for i in 0..n {
                for k in 0..p {
                    assert_eq!(xct.at(i, k).to_bits(), cxt.at(k, i).to_bits(), "({n}, {p}, {dim})");
                }
            }
        }
    }

    #[test]
    fn more_partitions_than_points_is_clamped() {
        let pts = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let pool = ThreadPool::new(1);
        let part = partition_points(pts.view(), 10, 5, 0, &pool);
        assert_eq!(part.centroids.rows(), 3);
        assert!(part.assignments.iter().all(|&a| a < 3));
    }

    #[test]
    fn duplicate_points_converge_without_panic() {
        let pts = Mat::from_fn(20, 3, |_, j| j as f64); // all rows identical
        let pool = ThreadPool::new(2);
        let part = partition_points(pts.view(), 4, 10, 1, &pool);
        // Everyone ties; strict `<` argmin sends all rows to partition 0.
        assert!(part.assignments.iter().all(|&a| a == 0));
        assert!(part.iterations <= 10);
    }

    #[test]
    fn empty_input() {
        let pts = Mat::zeros(0, 5);
        let pool = ThreadPool::new(1);
        let part = partition_points(pts.view(), 4, 5, 0, &pool);
        assert!(part.assignments.is_empty());
        assert_eq!(part.centroids.shape(), (0, 5));
    }
}
