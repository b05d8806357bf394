//! Differential suite for the lane-batched Jacobi SVD.
//!
//! [`svd_thin_batch_into`] promises that every lane's factors are bitwise
//! what [`svd_thin_into`] computes for that matrix alone: same `u`, `s`
//! and `v` bits. DPar2's `Q_k` step relies on it for its output to stay
//! bit-identical to the per-slice scalar SVD. The cases cover every lane
//! count, sizes from `1×1` up past the `R` the benchmarks use, Gaussian
//! and rank-deficient inputs (so basis completion runs), signed zeros (the
//! select rule), all-zero and odd-shaped lanes (the scalar fallback) and
//! lanes that need very different sweep counts. One scratch and one set of
//! outputs serve every call, so stale state from a previous shape would
//! show too.

use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{svd_thin_batch_into, Mat, SvdBatchScratch, SvdFactors, SvdScratch, SVD_LANES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIZES: [usize; 5] = [1, 2, 3, 10, 17];

/// Bit patterns of a factorization: the shapes of `u` and `v`, then the
/// bits of `u`, `s` and `v`.
fn bits(f: &SvdFactors) -> Vec<u64> {
    let ((um, un), (vm, vn)) = (f.u.shape(), f.v.shape());
    let values = f.u.data().iter().chain(&f.s).chain(f.v.data());
    [um, un, vm, vn].map(|d| d as u64).into_iter().chain(values.map(|x| x.to_bits())).collect()
}

/// Runs the batch on `lanes` and asserts each lane equals the scalar
/// kernel bit for bit.
fn assert_batch_matches(
    lanes: &[Mat],
    out: &mut Vec<SvdFactors>,
    ws: &mut SvdBatchScratch,
    ctx: &str,
) {
    out.resize_with(lanes.len(), SvdFactors::default);
    svd_thin_batch_into(lanes, out, ws);
    for (l, (a, got)) in lanes.iter().zip(out.iter()).enumerate() {
        let mut want = SvdFactors::default();
        svd_thin_into(a, &mut want, &mut SvdScratch::default());
        assert!(bits(got) == bits(&want), "{ctx}: lane {l} of {} differs", lanes.len());
    }
}

/// Rank `rank` matrix `n×n` (a product of Gaussian factors).
fn low_rank(n: usize, rank: usize, rng: &mut StdRng) -> Mat {
    gaussian_mat(n, rank, rng).matmul_nt(gaussian_mat(n, rank, rng)).unwrap()
}

#[test]
fn gaussian_lanes_every_count_and_size() {
    let mut rng = StdRng::seed_from_u64(1401);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES {
        for count in 1..=SVD_LANES {
            let lanes: Vec<Mat> = (0..count).map(|_| gaussian_mat(n, n, &mut rng)).collect();
            assert_batch_matches(&lanes, &mut out, &mut ws, &format!("gaussian n={n}"));
        }
    }
}

#[test]
fn rank_deficient_lanes_complete_the_basis() {
    let mut rng = StdRng::seed_from_u64(1402);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES {
        for count in 1..=SVD_LANES {
            // Ranks 1, ⌈n/2⌉, n−1 and full: deficient lanes beside full ones.
            let lanes: Vec<Mat> = (0..count)
                .map(|l| {
                    let rank = [1, n.div_ceil(2), n.saturating_sub(1).max(1), n][l % 4];
                    low_rank(n, rank, &mut rng)
                })
                .collect();
            assert_batch_matches(&lanes, &mut out, &mut ws, &format!("rank-deficient n={n}"));
        }
    }
}

#[test]
fn zero_lanes_mixed_with_live_lanes() {
    let mut rng = StdRng::seed_from_u64(1403);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES {
        for zero_mask in 1u32..(1 << SVD_LANES) {
            let lanes: Vec<Mat> = (0..SVD_LANES)
                .map(|l| {
                    if zero_mask & (1 << l) != 0 {
                        Mat::zeros(n, n)
                    } else {
                        gaussian_mat(n, n, &mut rng)
                    }
                })
                .collect();
            assert_batch_matches(
                &lanes,
                &mut out,
                &mut ws,
                &format!("zeros {zero_mask:04b} n={n}"),
            );
        }
    }
}

#[test]
fn lanes_with_very_different_sweep_counts() {
    let mut rng = StdRng::seed_from_u64(1404);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES {
        // A diagonal lane converges in its first sweep; the random and the
        // ill-conditioned lanes keep sweeping beside it.
        let diag: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut ill = gaussian_mat(n, n, &mut rng);
        for i in 0..n {
            for x in ill.row_mut(i) {
                *x *= 10f64.powi(-(i as i32));
            }
        }
        let lanes = vec![Mat::diag(&diag), gaussian_mat(n, n, &mut rng), Mat::eye(n), ill];
        assert_batch_matches(&lanes, &mut out, &mut ws, &format!("sweep counts n={n}"));
    }
}

#[test]
fn signed_zeros_keep_their_sign() {
    // A lane that skips a pair must keep its `−0` entries: an identity
    // rotation would turn them into `+0`.
    let mut rng = StdRng::seed_from_u64(1405);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES[1..] {
        let mut signed = gaussian_mat(n, n, &mut rng);
        for i in 0..n {
            signed.set(i, n - 1, -0.0);
        }
        let mut diag = Mat::diag(&(0..n).map(|i| 2.0 + i as f64).collect::<Vec<_>>());
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    diag.set(i, j, -0.0);
                }
            }
        }
        let lanes = vec![signed, diag, gaussian_mat(n, n, &mut rng)];
        assert_batch_matches(&lanes, &mut out, &mut ws, &format!("signed zeros n={n}"));
    }
}

#[test]
fn other_shapes_fall_back_per_lane() {
    let mut rng = StdRng::seed_from_u64(1406);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    // Non-square first lane: everything goes through the scalar kernel.
    let lanes = vec![gaussian_mat(9, 4, &mut rng), gaussian_mat(9, 4, &mut rng)];
    assert_batch_matches(&lanes, &mut out, &mut ws, "tall lanes");
    let lanes = vec![gaussian_mat(3, 7, &mut rng), gaussian_mat(5, 5, &mut rng)];
    assert_batch_matches(&lanes, &mut out, &mut ws, "wide then square");
    // Square lanes of another size than the first one's.
    let lanes = vec![
        gaussian_mat(4, 4, &mut rng),
        gaussian_mat(6, 6, &mut rng),
        gaussian_mat(4, 4, &mut rng),
        Mat::zeros(0, 0),
    ];
    assert_batch_matches(&lanes, &mut out, &mut ws, "mixed square sizes");
    assert_batch_matches(&[], &mut out, &mut ws, "no lanes");
}

#[test]
fn a_non_finite_lane_leaves_the_others_alone() {
    let mut rng = StdRng::seed_from_u64(1407);
    let mut poisoned = gaussian_mat(5, 5, &mut rng);
    poisoned.set(2, 3, f64::NAN);
    let lanes = vec![gaussian_mat(5, 5, &mut rng), poisoned, gaussian_mat(5, 5, &mut rng)];
    let mut out = vec![SvdFactors::default(); 3];
    svd_thin_batch_into(&lanes, &mut out, &mut SvdBatchScratch::default());
    for l in [0, 2] {
        let mut want = SvdFactors::default();
        svd_thin_into(&lanes[l], &mut want, &mut SvdScratch::default());
        assert!(bits(&out[l]) == bits(&want), "lane {l} changed beside a NaN lane");
    }
    assert!(out[1].s.iter().all(|s| s.is_nan()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_batches_match_the_scalar_kernel(
        n in 1usize..12,
        count in 1usize..SVD_LANES + 1,
        deficient in 0usize..SVD_LANES,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes: Vec<Mat> = (0..count)
            .map(|l| if l == deficient { low_rank(n, n.div_ceil(2), &mut rng) } else { gaussian_mat(n, n, &mut rng) })
            .collect();
        let mut out = vec![SvdFactors::default(); count];
        svd_thin_batch_into(&lanes, &mut out, &mut SvdBatchScratch::default());
        for (a, got) in lanes.iter().zip(&out) {
            let mut want = SvdFactors::default();
            svd_thin_into(a, &mut want, &mut SvdScratch::default());
            prop_assert!(bits(got) == bits(&want));
        }
    }
}
