//! Differential suite for the lane-native square SVD.
//!
//! [`svd_square_lanes`] reads up to [`SVD_LANES`] square matrices from a
//! lane store and writes each lane's `U`, `s` and `V` into lane stores;
//! it promises that every live lane holds bitwise what [`svd_thin_into`]
//! computes for that matrix alone, and that the other lanes hold zeros.
//! DPar2's `Q_k` step relies on it for its factors to stay bit-identical
//! to per-slice SVDs. The cases cover 1–8 live lanes, the sizes the `Q_k`
//! step meets (`R` up to 23 in lane products, larger through the
//! per-slice path), lanes that are zero, rank-deficient, NaN, ±∞, signed
//! zero, subnormal or far from norm 1 (the scaled Jacobi core), and such
//! lanes mixed with Gaussian ones. One scratch and one set of output
//! stores serve every call, so stale state from a previous size would
//! show.

use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{
    interleave_lanes, product, svd_square_lanes, Mat, SvdBatchScratch, SvdFactors, SvdScratch,
    Trans, SVD_LANES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Lanes = [f64; SVD_LANES];

const SIZES: [usize; 8] = [1, 2, 3, 5, 8, 10, 13, 23];

/// The output stores of one call: `U`, `s`, `V`.
#[derive(Default)]
struct Out {
    u: Vec<Lanes>,
    s: Vec<Lanes>,
    v: Vec<Lanes>,
}

/// Runs [`svd_square_lanes`] on `mats` (one `n×n` matrix per live lane)
/// and asserts every live lane equals [`svd_thin_into`] bit for bit and
/// every other lane is `+0`.
fn assert_lanes_match(mats: &[Mat], out: &mut Out, ws: &mut SvdBatchScratch, ctx: &str) {
    let n = mats[0].rows();
    let mut a = Vec::new();
    interleave_lanes(mats, n, &mut a);
    svd_square_lanes(n, mats.len(), &a, &mut out.u, &mut out.s, &mut out.v, ws);
    assert_eq!((out.u.len(), out.s.len(), out.v.len()), (n * n, n, n * n), "{ctx}: store sizes");
    let mut want = SvdFactors::default();
    for l in 0..SVD_LANES {
        let Some(m) = mats.get(l) else {
            let mut stores = out.u.iter().chain(&out.s).chain(&out.v);
            assert!(stores.all(|x| x[l].to_bits() == 0), "{ctx}: dead lane {l} is not +0");
            continue;
        };
        svd_thin_into(m, &mut want, &mut SvdScratch::default());
        for (name, got, want) in
            [("U", &out.u, want.u.data()), ("s", &out.s, &want.s[..]), ("V", &out.v, want.v.data())]
        {
            for (i, (g, &w)) in got.iter().zip(want).enumerate() {
                assert!(
                    g[l].to_bits() == w.to_bits(),
                    "{ctx}: lane {l} of {}, {name}[{i}]: {:e} vs {w:e}",
                    mats.len(),
                    g[l]
                );
            }
        }
    }
}

/// Rank `rank` `n×n` matrix (a product of Gaussian factors).
fn low_rank(n: usize, rank: usize, rng: &mut StdRng) -> Mat {
    product(Trans::N, Trans::T, gaussian_mat(n, rank, rng), gaussian_mat(n, rank, rng))
}

/// `m` with every entry times `c`.
fn scaled(m: &Mat, c: f64) -> Mat {
    Mat::from_fn(m.rows(), m.cols(), |i, j| m.at(i, j) * c)
}

/// The kinds of lane the suite mixes, by index.
const KINDS: usize = 12;

/// A lane of kind `kind`: Gaussian, zero, rank-deficient, NaN, ±∞,
/// signed zeros, subnormal, tiny, huge, diagonal, or with a `−0` column.
fn lane(kind: usize, n: usize, rng: &mut StdRng) -> Mat {
    let mut m = gaussian_mat(n, n, rng);
    match kind {
        0 => {}
        1 => m = Mat::zeros(n, n),
        2 => m = low_rank(n, n.div_ceil(2).min(n.saturating_sub(1)).max(1), rng),
        3 => m.set(n / 2, n - 1, f64::NAN),
        4 => m.set(0, n / 2, f64::INFINITY),
        5 => m.set(n - 1, 0, f64::NEG_INFINITY),
        6 => m = Mat::from_fn(n, n, |i, j| if i == j { 2.0 + i as f64 } else { -0.0 }),
        7 => m = scaled(&m, 1e-310),
        8 => m = scaled(&m, 2f64.powi(-600)),
        9 => m = scaled(&m, 1e200),
        10 => m = Mat::diag(&(0..n).map(|i| 1.0 + i as f64).collect::<Vec<_>>()),
        _ => {
            for i in 0..n {
                m.set(i, n - 1, -0.0);
            }
        }
    }
    m
}

#[test]
fn gaussian_lanes_every_live_count_and_size() {
    let mut rng = StdRng::seed_from_u64(1901);
    let (mut out, mut ws) = (Out::default(), SvdBatchScratch::default());
    for n in SIZES {
        for live in 1..=SVD_LANES {
            let mats: Vec<Mat> = (0..live).map(|_| gaussian_mat(n, n, &mut rng)).collect();
            assert_lanes_match(&mats, &mut out, &mut ws, &format!("gaussian n={n}"));
        }
    }
}

#[test]
fn every_kind_of_lane_beside_gaussian_lanes() {
    // Each kind alone in lane `l` of a full group of Gaussian lanes, at
    // every position, so both halves of the AVX2 kernel meet it.
    let mut rng = StdRng::seed_from_u64(1902);
    let (mut out, mut ws) = (Out::default(), SvdBatchScratch::default());
    for n in SIZES {
        for kind in 1..KINDS {
            for at in 0..SVD_LANES {
                let mats: Vec<Mat> = (0..SVD_LANES)
                    .map(|l| lane(if l == at { kind } else { 0 }, n, &mut rng))
                    .collect();
                assert_lanes_match(&mats, &mut out, &mut ws, &format!("kind {kind} n={n}"));
            }
        }
    }
}

#[test]
fn mixed_lanes_every_live_count() {
    let mut rng = StdRng::seed_from_u64(1903);
    let (mut out, mut ws) = (Out::default(), SvdBatchScratch::default());
    for n in SIZES {
        for live in 1..=SVD_LANES {
            for shift in 0..KINDS {
                let mats: Vec<Mat> =
                    (0..live).map(|l| lane((l + shift) % KINDS, n, &mut rng)).collect();
                assert_lanes_match(&mats, &mut out, &mut ws, &format!("mixed n={n} {shift}"));
            }
        }
    }
}

#[test]
fn all_special_groups() {
    // Groups with no Gaussian lane at all: every lane zero, every lane
    // non-finite, every lane scaled.
    let mut rng = StdRng::seed_from_u64(1904);
    let (mut out, mut ws) = (Out::default(), SvdBatchScratch::default());
    for n in SIZES {
        for kind in [1, 3, 4, 7, 8, 9] {
            let mats: Vec<Mat> = (0..SVD_LANES).map(|_| lane(kind, n, &mut rng)).collect();
            assert_lanes_match(&mats, &mut out, &mut ws, &format!("all kind {kind} n={n}"));
        }
    }
}

#[test]
fn no_live_lanes_and_empty_matrices() {
    let mut ws = SvdBatchScratch::default();
    let mut out = Out::default();
    let a = vec![[1.0; SVD_LANES]; 9];
    svd_square_lanes(3, 0, &a, &mut out.u, &mut out.s, &mut out.v, &mut ws);
    let stores = out.u.iter().chain(&out.s).chain(&out.v);
    assert!(stores.flatten().all(|x| x.to_bits() == 0), "no live lane: all zero");
    // Lanes past `live` are zero in the outputs, whatever the input holds
    // there (here a rank-one matrix, so the live lanes run alone).
    svd_square_lanes(3, 2, &a, &mut out.u, &mut out.s, &mut out.v, &mut ws);
    for x in out.u.iter().chain(&out.s).chain(&out.v) {
        assert!(x[2..].iter().all(|y| y.to_bits() == 0), "dead lanes: {x:?}");
    }
    svd_square_lanes(0, SVD_LANES, &[], &mut out.u, &mut out.s, &mut out.v, &mut ws);
    assert!(out.u.is_empty() && out.s.is_empty() && out.v.is_empty());
}

#[test]
#[should_panic(expected = "store is not 3x3")]
fn a_store_of_another_size_is_rejected() {
    let a = vec![[0.0; SVD_LANES]; 8];
    let mut out = Out::default();
    svd_square_lanes(3, 1, &a, &mut out.u, &mut out.s, &mut out.v, &mut SvdBatchScratch::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_groups_match_the_scalar_kernel(
        n in 1usize..24,
        live in 1usize..SVD_LANES + 1,
        special_share in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let share = [0.0, 0.25, 0.75][special_share];
        let mats: Vec<Mat> = (0..live)
            .map(|_| {
                let kind = if rng.random::<f64>() < share { 1 + rng.random::<usize>() % (KINDS - 1) } else { 0 };
                lane(kind, n, &mut rng)
            })
            .collect();
        assert_lanes_match(&mats, &mut Out::default(), &mut SvdBatchScratch::default(), "proptest");
    }
}
