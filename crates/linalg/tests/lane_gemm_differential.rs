//! Differential suite for the lane-batched small products.
//!
//! [`gemm_lanes`] promises that every lane of its output is bitwise what
//! [`gemm`] computes for that lane's operands alone, wherever `gemm` runs
//! its register tiles (`R ≤ 23` for `R×R` products). DPar2's `Q_k` step
//! relies on it for its factors to stay bit-identical to per-slice
//! products. The cases cover all four forms (`A·B`, `A·Bᵀ`, `Aᵀ·B`,
//! `Aᵀ·Bᵀ`) with a shared and a per-lane right operand, sizes around the
//! tiles' 4- and 8-wide edges, every live-lane count, and entries that
//! include NaN, ±∞, `−0.0` and subnormals. A fused multiply-add, or
//! partial sums added in another order, changes bits on these inputs.

use dpar2_linalg::kernel::use_blocked;
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::{
    extract_lane, gemm, gemm_lanes, interleave_lanes, LaneOperand, Mat, Trans, SVD_LANES,
};
use dpar2_parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sizes on both sides of the tiles' 4- and 8-wide edges, up to the
/// largest size `gemm` runs in its register tiles.
const SIZES: [usize; 10] = [1, 2, 3, 4, 5, 7, 8, 10, 13, 23];

/// The four forms: `A·B`, `A·Bᵀ`, `Aᵀ·B`, `Aᵀ·Bᵀ`.
const FORMS: [(Trans, Trans); 4] =
    [(Trans::N, Trans::N), (Trans::N, Trans::T), (Trans::T, Trans::N), (Trans::T, Trans::T)];

/// Entries that are not plain numbers: NaN, ±∞, signed zeros, subnormals.
const SPECIALS: [f64; 7] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 5e-324, -2.5e-310];

/// Equal bits, except that any NaN equals any NaN: which NaN an operation
/// returns for two NaN operands depends on how the compiler ordered a
/// commutative op.
fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A Gaussian `n×n` matrix with roughly `special_share` of its entries
/// replaced by [`SPECIALS`].
fn matrix(n: usize, special_share: f64, rng: &mut StdRng) -> Mat {
    let mut m = gaussian_mat(n, n, rng);
    for x in m.data_mut() {
        if rng.random::<f64>() < special_share {
            *x = SPECIALS[rng.random::<usize>() % SPECIALS.len()];
        }
    }
    m
}

/// The right operand of a case: one matrix for every lane, or one each.
#[derive(Clone, Copy)]
enum Right<'a> {
    Shared(&'a Mat),
    PerLane(&'a [Mat]),
}

/// Runs [`gemm_lanes`] on `left` (one matrix per live lane) and `right`
/// and asserts every live lane equals [`gemm`] on that lane's operands,
/// bit for bit. `out` is reused across calls, so stale entries from
/// another size would show.
fn assert_lanes_match(
    (ta, tb): (Trans, Trans),
    left: &[Mat],
    right: Right<'_>,
    out: &mut Vec<[f64; SVD_LANES]>,
    ctx: &str,
) {
    let n = left[0].rows();
    assert!(!use_blocked(n, n, n), "{ctx}: n = {n} is past the naive loops");
    let (mut a, mut b) = (Vec::new(), Vec::new());
    interleave_lanes(left, n, &mut a);
    let (operand, rights) = match right {
        Right::Shared(m) => (LaneOperand::Shared(m), vec![m; left.len()]),
        Right::PerLane(ms) => {
            interleave_lanes(ms, n, &mut b);
            (LaneOperand::PerLane(&b), ms.iter().collect())
        }
    };
    gemm_lanes(ta, tb, n, &a, operand, out);
    let (mut got, mut want) = (Mat::default(), Mat::default());
    let pool = ThreadPool::new(1);
    for (l, x) in left.iter().enumerate() {
        extract_lane(out, n, l, &mut got);
        gemm(ta, tb, x, rights[l], &mut want, &pool);
        assert_eq!(got.shape(), want.shape(), "{ctx}: lane {l} shape");
        for (i, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(same(g, w), "{ctx}: lane {l} entry {i}: {g:e} vs gemm {w:e}");
        }
    }
}

/// Every form, both kinds of right operand, every size and live-lane
/// count, with `special_share` of the entries special.
fn sweep(special_share: f64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for form in FORMS {
        for n in SIZES {
            for live in 1..=SVD_LANES {
                let left: Vec<Mat> =
                    (0..live).map(|_| matrix(n, special_share, &mut rng)).collect();
                let per_lane: Vec<Mat> =
                    (0..live).map(|_| matrix(n, special_share, &mut rng)).collect();
                let shared = matrix(n, special_share, &mut rng);
                let ctx = format!("{form:?} n={n} live={live}");
                let (sh, pl) = (Right::Shared(&shared), Right::PerLane(&per_lane));
                assert_lanes_match(form, &left, sh, &mut out, &format!("{ctx} shared"));
                assert_lanes_match(form, &left, pl, &mut out, &format!("{ctx} per-lane"));
            }
        }
    }
}

#[test]
fn gaussian_entries_every_form_size_and_lane_count() {
    sweep(0.0, 1801);
}

#[test]
fn special_entries_every_form_size_and_lane_count() {
    // A low share keeps most outputs finite, so reordered or fused sums
    // still show; a high one mixes NaN, ±∞ and signed zeros in every sum.
    sweep(0.05, 1802);
    sweep(0.5, 1803);
}

#[test]
fn signed_zero_sums_start_from_positive_zero() {
    // Every product is `−0`: a sum started from `+0` gives `+0`, one
    // started from the first product keeps `−0`.
    let mut out = Vec::new();
    for n in SIZES {
        let neg = Mat::from_fn(n, n, |_, _| -0.0);
        let pos = Mat::from_fn(n, n, |_, _| 1.0);
        for form in FORMS {
            let ctx = format!("{form:?} n={n} −0");
            let left = [neg.clone(), pos.clone(), neg.clone()];
            assert_lanes_match(form, &left, Right::Shared(&pos), &mut out, &ctx);
            assert_lanes_match(form, &left, Right::PerLane(&left), &mut out, &ctx);
        }
    }
}

#[test]
fn subnormal_products_keep_their_bits() {
    // Products that underflow to subnormals or to zero, beside normal
    // ones: flushing subnormals, or a fused multiply-add, changes them.
    let mut rng = StdRng::seed_from_u64(1804);
    let mut out = Vec::new();
    for n in SIZES {
        let tiny = Mat::from_fn(n, n, |i, j| 1e-160 * (1.0 + (i * n + j) as f64 / 7.0));
        let left = vec![tiny.clone(), gaussian_mat(n, n, &mut rng), tiny.clone()];
        for form in FORMS {
            let ctx = format!("{form:?} n={n} subnormal");
            assert_lanes_match(form, &left, Right::Shared(&tiny), &mut out, &ctx);
            assert_lanes_match(form, &left, Right::PerLane(&left), &mut out, &ctx);
        }
    }
}

#[test]
fn lanes_round_trip_and_dead_lanes_are_zero() {
    let mut rng = StdRng::seed_from_u64(1805);
    let mats: Vec<Mat> = (0..3).map(|_| gaussian_mat(6, 6, &mut rng)).collect();
    let mut store = vec![[f64::NAN; SVD_LANES]; 2];
    interleave_lanes(&mats, 6, &mut store);
    assert_eq!(store.len(), 36);
    let mut back = Mat::default();
    for (l, m) in mats.iter().enumerate() {
        extract_lane(&store, 6, l, &mut back);
        assert_eq!(&back, m);
    }
    for l in 3..SVD_LANES {
        assert!(store.iter().all(|x| x[l].to_bits() == 0), "dead lane {l} not +0");
    }
}

#[test]
fn empty_products_leave_an_empty_store() {
    // `n = 0` in every form, over a store left from a larger product.
    for form in FORMS {
        let mut out = vec![[1.0; SVD_LANES]; 4];
        gemm_lanes(form.0, form.1, 0, &[], LaneOperand::PerLane(&[]), &mut out);
        assert!(out.is_empty(), "{form:?}: per-lane");
        gemm_lanes(form.0, form.1, 0, &[], LaneOperand::Shared(&Mat::zeros(0, 0)), &mut out);
        assert!(out.is_empty(), "{form:?}: shared");
    }
}

#[test]
#[should_panic(expected = "B is not 3x3")]
fn shared_operand_of_another_size_is_rejected() {
    let a = vec![[0.0; SVD_LANES]; 9];
    gemm_lanes(Trans::N, Trans::N, 3, &a, LaneOperand::Shared(&Mat::eye(4)), &mut Vec::new());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_lane_products_match_gemm(
        n in 1usize..24,
        form in 0usize..FORMS.len(),
        live in 1usize..SVD_LANES + 1,
        shared in 0usize..2,
        specials in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let share = [0.0, 0.1, 0.6][specials];
        let left: Vec<Mat> = (0..live).map(|_| matrix(n, share, &mut rng)).collect();
        let right: Vec<Mat> = (0..live).map(|_| matrix(n, share, &mut rng)).collect();
        let right = if shared == 1 { Right::Shared(&right[0]) } else { Right::PerLane(&right) };
        assert_lanes_match(FORMS[form], &left, right, &mut Vec::new(), "proptest");
    }
}
