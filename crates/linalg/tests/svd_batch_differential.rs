//! Differential suite for the lane-batched Jacobi SVD.
//!
//! [`svd_thin_batch_into`] promises that every lane's factors are bitwise
//! what [`svd_thin_into`] computes for that matrix alone: same `u`, `s`
//! and `v` bits. DPar2's `Q_k` step relies on it for its output to stay
//! bit-identical to the per-slice scalar SVD. The cases cover every lane
//! count, sizes from `1×1` up past the `R` the benchmarks use, Gaussian
//! and rank-deficient inputs (so basis completion runs), signed zeros (the
//! select rule), all-zero and odd-shaped lanes (the scalar fallback),
//! lanes that need very different sweep counts, and same-shape rectangular
//! lanes (wide ones transposed, tall ones QR-preconditioned lane by lane). One scratch and one set of
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

/// The bits [`svd_thin_into`] gives `a` alone.
fn alone(a: &Mat) -> Vec<u64> {
    let mut f = SvdFactors::default();
    svd_thin_into(a, &mut f, &mut SvdScratch::default());
    bits(&f)
}

/// Zero lanes beside live ones, by structure: every mask of each half of
/// the lanes against the other half all live, all zero, or under the same
/// mask, at every size. Each size draws one matrix per lane and factors it
/// alone once, so the batch is the one SVD per mask. Every mask of all the
/// lanes is [`every_zero_lane_mask`], run in release only.
#[test]
fn zero_lanes_mixed_with_live_lanes() {
    const HALF: usize = SVD_LANES / 2;
    let full = (1u32 << HALF) - 1;
    let mut masks: Vec<u32> = (0..=full)
        .flat_map(|m| [m, m | full << HALF, m << HALF, full | m << HALF, m | m << HALF])
        .filter(|&mask| mask != 0)
        .collect();
    masks.sort_unstable();
    masks.dedup();
    let mut rng = StdRng::seed_from_u64(1405);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for &n in &SIZES {
        let live: Vec<Mat> = (0..SVD_LANES).map(|_| gaussian_mat(n, n, &mut rng)).collect();
        let zero = Mat::zeros(n, n);
        let (want_live, want_zero): (Vec<_>, _) = (live.iter().map(alone).collect(), alone(&zero));
        for &mask in &masks {
            let is_zero = |l: usize| mask & (1 << l) != 0;
            let lanes: Vec<Mat> =
                (0..SVD_LANES).map(|l| if is_zero(l) { &zero } else { &live[l] }.clone()).collect();
            out.resize_with(SVD_LANES, SvdFactors::default);
            svd_thin_batch_into(&lanes, &mut out, &mut ws);
            for (l, got) in out.iter().enumerate() {
                let want = if is_zero(l) { &want_zero } else { &want_live[l] };
                assert!(bits(got) == *want, "zeros {mask:0SVD_LANES$b} n={n}: lane {l} differs");
            }
        }
    }
}

/// Every mask of zero lanes, `1..2^SVD_LANES`, at every size: 327,675
/// batches at 16 lanes, about two minutes in release and far longer in
/// debug, so it runs on request
/// (`cargo test --release --test svd_batch_differential -- --ignored`).
#[test]
#[ignore = "exhaustive: about two minutes in release; run with --ignored"]
fn every_zero_lane_mask() {
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
                &format!("zeros {zero_mask:0SVD_LANES$b} n={n}"),
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
        let kinds = [Mat::diag(&diag), gaussian_mat(n, n, &mut rng), Mat::eye(n), ill];
        // Every kind in each half of the lanes, in another order.
        let lanes: Vec<Mat> = (0..SVD_LANES).map(|l| kinds[(l + l / 4) % 4].clone()).collect();
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

/// Rectangular shapes: stage 1's sketch `B` (`18×48`, `18×88` wide) and
/// their transposes, a QR-preconditioned tall lane (`88×18`, `5×3`), and
/// tall shapes just inside and outside the `m > n + n/4` rule.
const RECT: [(usize, usize); 8] =
    [(18, 48), (48, 18), (88, 18), (18, 88), (5, 3), (3, 5), (12, 10), (13, 10)];

#[test]
fn same_shape_rectangular_lanes() {
    let mut rng = StdRng::seed_from_u64(1408);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for (m, n) in RECT {
        for count in 1..=SVD_LANES {
            let lanes: Vec<Mat> = (0..count)
                .map(|l| match l {
                    // A rank-deficient lane beside full-rank ones.
                    2 => gaussian_mat(m, 1, &mut rng).matmul(gaussian_mat(1, n, &mut rng)).unwrap(),
                    _ => gaussian_mat(m, n, &mut rng),
                })
                .collect();
            assert_batch_matches(&lanes, &mut out, &mut ws, &format!("{m}x{n}, {count} lanes"));
        }
    }
}

#[test]
fn rectangular_lanes_with_zero_and_odd_lanes() {
    let mut rng = StdRng::seed_from_u64(1409);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    for (m, n) in RECT {
        // A zero lane, a lane of another shape, and signed zeros.
        let mut signed = gaussian_mat(m, n, &mut rng);
        for i in 0..m {
            signed.set(i, 0, -0.0);
        }
        // The four kinds in both halves of the lanes.
        let lanes: Vec<Mat> = (0..SVD_LANES)
            .map(|l| match l % 4 {
                0 => gaussian_mat(m, n, &mut rng),
                1 => Mat::zeros(m, n),
                2 => gaussian_mat(n, m + 1, &mut rng),
                _ => signed.clone(),
            })
            .collect();
        assert_batch_matches(&lanes, &mut out, &mut ws, &format!("{m}x{n} mixed"));
    }
}

#[test]
fn other_shapes_fall_back_per_lane() {
    let mut rng = StdRng::seed_from_u64(1406);
    let (mut out, mut ws) = (Vec::new(), SvdBatchScratch::default());
    // Lanes of the first lane's shape batch; the others go alone.
    let lanes = vec![gaussian_mat(9, 4, &mut rng), gaussian_mat(9, 4, &mut rng)];
    assert_batch_matches(&lanes, &mut out, &mut ws, "tall lanes");
    let lanes = vec![gaussian_mat(3, 7, &mut rng), gaussian_mat(5, 5, &mut rng)];
    assert_batch_matches(&lanes, &mut out, &mut ws, "wide then square");
    // Square lanes of another size than the first one's.
    let lanes: Vec<Mat> = (0..SVD_LANES)
        .map(|l| match l % 4 {
            1 => gaussian_mat(6, 6, &mut rng),
            3 => Mat::zeros(0, 0),
            _ => gaussian_mat(4, 4, &mut rng),
        })
        .collect();
    assert_batch_matches(&lanes, &mut out, &mut ws, "mixed square sizes");
    assert_batch_matches(&[], &mut out, &mut ws, "no lanes");
}

#[test]
fn a_non_finite_lane_leaves_the_others_alone() {
    let mut rng = StdRng::seed_from_u64(1407);
    let mut poisoned = gaussian_mat(5, 5, &mut rng);
    poisoned.set(2, 3, f64::NAN);
    // The poisoned lane in the first half, finite lanes in both.
    let lanes: Vec<Mat> = (0..SVD_LANES)
        .map(|l| if l == 1 { poisoned.clone() } else { gaussian_mat(5, 5, &mut rng) })
        .collect();
    let mut out = vec![SvdFactors::default(); SVD_LANES];
    svd_thin_batch_into(&lanes, &mut out, &mut SvdBatchScratch::default());
    for l in (0..SVD_LANES).filter(|&l| l != 1) {
        let mut want = SvdFactors::default();
        svd_thin_into(&lanes[l], &mut want, &mut SvdScratch::default());
        assert!(bits(&out[l]) == bits(&want), "lane {l} changed beside a NaN lane");
    }
    assert!(out[1].s.iter().all(|s| s.is_nan()));
    // The same beside a wide lane whose QR core carries the NaN.
    let mut poisoned = gaussian_mat(4, 11, &mut rng);
    poisoned.set(1, 7, f64::INFINITY);
    let lanes = vec![gaussian_mat(4, 11, &mut rng), poisoned];
    let mut out = vec![SvdFactors::default(); 2];
    svd_thin_batch_into(&lanes, &mut out, &mut SvdBatchScratch::default());
    let mut want = SvdFactors::default();
    svd_thin_into(&lanes[0], &mut want, &mut SvdScratch::default());
    assert!(bits(&out[0]) == bits(&want), "wide lane changed beside a non-finite lane");
    assert!(out[1].s.iter().any(|s| !s.is_finite()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_rectangular_batches_match_the_scalar_kernel(
        m in 1usize..40,
        n in 1usize..40,
        count in 1usize..SVD_LANES + 1,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes: Vec<Mat> = (0..count).map(|_| gaussian_mat(m, n, &mut rng)).collect();
        let mut out = vec![SvdFactors::default(); count];
        svd_thin_batch_into(&lanes, &mut out, &mut SvdBatchScratch::default());
        for (a, got) in lanes.iter().zip(&out) {
            let mut want = SvdFactors::default();
            svd_thin_into(a, &mut want, &mut SvdScratch::default());
            prop_assert!(bits(got) == bits(&want));
        }
    }

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
