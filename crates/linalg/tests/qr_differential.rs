//! Differential suite for the Householder QR kernel.
//!
//! [`qr_into`] sweeps rows with tiled column accumulators and skips the
//! part of the `Q` accumulation that is still exactly zero. It promises
//! the same `Q` and `R` bits as the straightforward column-at-a-time
//! kernel it replaced, which is kept below as the oracle: verbatim, but
//! for the scale step both now take (a column whose squared norm underflows
//! or overflows builds its reflector from a power-of-two-scaled copy). NaN
//! compares equal to NaN (payloads aside); every other bit must match.
//!
//! The shapes cross every tile edge (tall, square and wide), and the
//! special inputs reach each branch of the reflector construction: zero
//! and `−0` columns, already-triangular columns of either sign, identity
//! reflectors between active ones, rank deficiency, and NaN, ±∞ and
//! overflowing entries. One scratch serves most calls, so stale state from
//! a previous shape would show too.

use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::{qr_into, Mat, QrScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// The oracle: the column-at-a-time kernel, verbatim but for the scale
// step of the reflector construction.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct OracleScratch {
    work: Mat,
    vs: Vec<Vec<f64>>,
    taus: Vec<f64>,
}

fn oracle_qr_into(a: &Mat, q: &mut Mat, r_thin: &mut Mat, ws: &mut OracleScratch) {
    let m = a.rows();
    let n = a.cols();
    let k = m.min(n);
    let r = &mut ws.work;
    r.copy_from(a);
    // Householder vectors, one per reflected column. v[j] has length m - j.
    while ws.vs.len() < k {
        ws.vs.push(Vec::new());
    }
    ws.taus.clear();

    for j in 0..k {
        // Build the reflector from column j, rows j..m.
        let v = &mut ws.vs[j];
        v.clear();
        v.extend((j..m).map(|i| r.at(i, j)));
        let alpha = v[0];
        let sigma: f64 = v[1..].iter().map(|&x| x * x).sum();
        // Scale step (added with the kernel's): a column whose squared
        // norm leaves [2^-960, 2^960] builds its reflector from the column
        // scaled so its largest entry lies in [1, 2).
        let (alpha, sigma) = match oracle_column_scale(alpha * alpha + sigma, v) {
            1.0 => (alpha, sigma),
            c => {
                for x in v.iter_mut() {
                    *x *= c;
                }
                (v[0], v[1..].iter().map(|&x| x * x).sum())
            }
        };
        if sigma == 0.0 && alpha >= 0.0 {
            // Column already in upper-triangular form; identity reflector.
            ws.taus.push(0.0);
            continue;
        }
        let norm = (alpha * alpha + sigma).sqrt();
        // Choose the sign that avoids cancellation.
        let v0 = if alpha <= 0.0 { alpha - norm } else { -sigma / (alpha + norm) };
        let tau = 2.0 * v0 * v0 / (sigma + v0 * v0);
        let inv_v0 = 1.0 / v0;
        v[0] = 1.0;
        for x in &mut v[1..] {
            *x *= inv_v0;
        }

        // Apply H = I − τ v vᵀ to the trailing submatrix R[j.., j..].
        for col in j..n {
            let mut s = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                s += vi * r.at(j + idx, col);
            }
            s *= tau;
            if s != 0.0 {
                for (idx, &vi) in v.iter().enumerate() {
                    let cur = r.at(j + idx, col);
                    r.set(j + idx, col, cur - s * vi);
                }
            }
        }
        ws.taus.push(tau);
    }

    // Zero the subdiagonal of R explicitly and truncate to k rows.
    r_thin.resize_zeroed(k, n);
    for i in 0..k {
        for j in i..n {
            r_thin.set(i, j, r.at(i, j));
        }
    }

    // Accumulate the thin Q: apply H_0 H_1 … H_{k-1} to the m×k identity,
    // multiplying from the last reflector backwards.
    q.resize_zeroed(m, k);
    for i in 0..k {
        q.set(i, i, 1.0);
    }
    for j in (0..k).rev() {
        let v = &ws.vs[j];
        let tau = ws.taus[j];
        if tau == 0.0 {
            continue;
        }
        for col in 0..k {
            let mut s = 0.0;
            for (idx, &vi) in v.iter().enumerate() {
                s += vi * q.at(j + idx, col);
            }
            s *= tau;
            if s != 0.0 {
                for (idx, &vi) in v.iter().enumerate() {
                    let cur = q.at(j + idx, col);
                    q.set(j + idx, col, cur - s * vi);
                }
            }
        }
    }
}

/// The scale step's power of two: `1` for a squared norm inside
/// `[2^-960, 2^960]`, a NaN one, or a zero or infinite column; else
/// `2^-e` for the binary exponent `e` of the largest `|x|` (`-1023` when
/// it is subnormal), clamped to `±1022`.
fn oracle_column_scale(norm_sq: f64, x: &[f64]) -> f64 {
    let (lo, hi) = (2f64.powi(-960), 2f64.powi(960));
    if norm_sq.is_nan() || (lo..=hi).contains(&norm_sq) {
        return 1.0;
    }
    let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    if amax == 0.0 || amax.is_infinite() {
        return 1.0;
    }
    let e = ((amax.to_bits() >> 52) as i32 - 1023).clamp(-1022, 1022);
    2f64.powi(-e)
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

const ROWS: [usize; 8] = [1, 2, 5, 18, 24, 48, 88, 300];

/// Column counts: every width up to 21 (each tail of the 8-wide tiles,
/// twice over) and one well past it.
fn col_counts() -> impl Iterator<Item = usize> {
    (1..=21).chain([33])
}

/// The shape, then the bits of every entry, with every NaN mapped to one
/// pattern.
fn bits(m: &Mat) -> Vec<u64> {
    let (r, c) = m.shape();
    let canon = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
    [r as u64, c as u64].into_iter().chain(m.data().iter().map(|&x| canon(x))).collect()
}

/// Factors `a` with both kernels and asserts `Q` and `R` agree bit for bit.
fn assert_matches_oracle(a: &Mat, ws: &mut QrScratch, ctx: &str) {
    let (mut q, mut r) = (Mat::default(), Mat::default());
    qr_into(a, &mut q, &mut r, ws);
    let (mut q_want, mut r_want) = (Mat::default(), Mat::default());
    oracle_qr_into(a, &mut q_want, &mut r_want, &mut OracleScratch::default());
    assert!(bits(&r) == bits(&r_want), "{ctx} ({}×{}): R differs", a.rows(), a.cols());
    assert!(bits(&q) == bits(&q_want), "{ctx} ({}×{}): Q differs", a.rows(), a.cols());
}

/// Gaussian `m×n` with each entry replaced by `special(rng)` with
/// probability `p`.
fn sprinkled(
    m: usize,
    n: usize,
    p: f64,
    rng: &mut StdRng,
    special: impl Fn(&mut StdRng) -> f64,
) -> Mat {
    let mut a = gaussian_mat(m, n, rng);
    for x in a.data_mut() {
        if rng.random::<f64>() < p {
            *x = special(rng);
        }
    }
    a
}

// ---------------------------------------------------------------------
// Cases
// ---------------------------------------------------------------------

#[test]
fn gaussian_every_shape() {
    let mut rng = StdRng::seed_from_u64(1501);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in col_counts() {
            assert_matches_oracle(&gaussian_mat(m, n, &mut rng), &mut ws, "gaussian");
        }
    }
}

#[test]
fn zero_columns_and_negative_zeros() {
    let mut rng = StdRng::seed_from_u64(1502);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in col_counts() {
            let mut a = sprinkled(m, n, 0.2, &mut rng, |_| -0.0);
            // Every third column all zero, alternating the zero's sign.
            for c in (1..n).step_by(3) {
                let z = if c % 2 == 0 { 0.0 } else { -0.0 };
                for i in 0..m {
                    a.set(i, c, z);
                }
            }
            assert_matches_oracle(&a, &mut ws, "zero columns");
        }
    }
}

#[test]
fn triangular_column_with_negative_diagonal() {
    // Column 0 is −3·e₀: σ = 0 with α < 0, a reflector whose v is all
    // signed zeros below the unit entry, and τ = 2.
    let mut rng = StdRng::seed_from_u64(1503);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in [1, 2, 5, 18, 33] {
            let mut a = gaussian_mat(m, n, &mut rng);
            for i in 0..m {
                a.set(i, 0, if i == 0 { -3.0 } else { 0.0 });
            }
            assert_matches_oracle(&a, &mut ws, "negative-diagonal column");
            // The same with the diagonal positive: the identity reflector.
            a.set(0, 0, 3.0);
            assert_matches_oracle(&a, &mut ws, "positive-diagonal column");
        }
    }
}

#[test]
fn identity_reflector_between_active_ones() {
    // Column 0 is zero in row 1 and column 1 is (0, z, 0, …)ᵀ with z > 0,
    // so H₀ leaves column 1 alone and reflector 1 is the identity (τ = 0);
    // columns 2.. are Gaussian and reflect as usual.
    let mut rng = StdRng::seed_from_u64(1504);
    let mut ws = QrScratch::default();
    for &m in &[5, 18, 24, 48, 88, 300] {
        for n in [3, 4, 6, 9, 18, 21] {
            let mut a = gaussian_mat(m, n, &mut rng);
            a.set(1, 0, 0.0);
            for i in 0..m {
                a.set(i, 1, if i == 1 { 2.5 } else { 0.0 });
            }
            let (mut q, mut r) = (Mat::default(), Mat::default());
            qr_into(&a, &mut q, &mut r, &mut ws);
            assert_eq!(r.at(1, 1), 2.5, "reflector 1 must be the identity");
            assert_matches_oracle(&a, &mut ws, "identity reflector");
        }
    }
}

#[test]
fn rank_deficient_and_identity_inputs() {
    let mut rng = StdRng::seed_from_u64(1505);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in col_counts() {
            let rank = (m.min(n) / 2).max(1);
            let a = gaussian_mat(m, rank, &mut rng).matmul_nt(gaussian_mat(n, rank, &mut rng));
            assert_matches_oracle(&a.unwrap(), &mut ws, "rank-deficient");
            assert_matches_oracle(&Mat::from_fn(m, n, |i, j| f64::from(i == j)), &mut ws, "eye");
        }
    }
    // Two identical columns, and the all-zero matrix.
    let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
    assert_matches_oracle(&a, &mut ws, "repeated column");
    assert_matches_oracle(&Mat::zeros(6, 4), &mut ws, "zero matrix");
}

#[test]
fn non_finite_and_overflowing_entries() {
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200, -1e200];
    let mut rng = StdRng::seed_from_u64(1506);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in col_counts() {
            let a =
                sprinkled(m, n, 0.03, &mut rng, |r| specials[r.random::<usize>() % specials.len()]);
            assert_matches_oracle(&a, &mut ws, "sprinkled non-finite");
            for &x in &specials {
                // One special entry at the far corner: every reflector but
                // the last stays finite, and the last one must poison the
                // columns that the finite ones before it would skip.
                let mut a = gaussian_mat(m, n, &mut rng);
                a.set(m - 1, n - 1, x);
                assert_matches_oracle(&a, &mut ws, &format!("corner {x}"));
                // And at the top left, so the first reflector carries it.
                let mut a = gaussian_mat(m, n, &mut rng);
                a.set(0, 0, x);
                assert_matches_oracle(&a, &mut ws, &format!("origin {x}"));
            }
        }
    }
}

#[test]
fn poison_from_the_last_reflector_outlives_the_finite_ones() {
    // A special entry at the end of the diagonal makes only the last
    // reflector non-finite. Applied first, over the full width of `Q`, it
    // poisons the block the finite reflectors after it would skip, so they
    // must sweep the full width too. Column 0 is already triangular, so
    // reflector 0 is the identity and no full-width step at j = 0 covers
    // for a skip that ended too early.
    let mut rng = StdRng::seed_from_u64(1508);
    let mut ws = QrScratch::default();
    for &m in &[3, 5, 18, 48] {
        for n in [3, 4, 9, 18, 21] {
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = gaussian_mat(m, n, &mut rng);
                for i in 0..m {
                    a.set(i, 0, if i == 0 { 2.0 } else { 0.0 });
                }
                let k = m.min(n);
                a.set(k - 1, k - 1, x);
                assert_matches_oracle(&a, &mut ws, &format!("diagonal end {x}"));
            }
        }
    }
}

#[test]
fn tiny_trailing_entries_underflow_the_reflector() {
    // σ is positive but so much smaller than α that v₀ = −σ/(α + ‖x‖)
    // underflows to −0: τ = 0 and v is non-finite in the same reflector.
    // With α = 1e100 the squared norm is in range; with α = 1e300 it
    // overflows, and the scaled column's σ underflows to 0 instead (an
    // identity reflector).
    let mut ws = QrScratch::default();
    for (big, small) in [(1e100, 1e-160), (1e300, 1e-150)] {
        for n in [1, 2, 3, 5, 9] {
            let a = Mat::from_fn(4, n, |i, j| match (i, j) {
                (0, 0) => big,
                (_, 0) => small,
                _ => (i * n + j) as f64 - 3.5,
            });
            assert_matches_oracle(&a, &mut ws, &format!("underflowing v0 at {big:e}"));
        }
    }
}

/// `2^k` for `-1074 ≤ k ≤ 1023`, subnormal below `-1022`.
fn two_to(k: i32) -> f64 {
    if k < -1022 {
        f64::from_bits(1 << (k + 1074))
    } else {
        f64::from_bits(((k + 1023) as u64) << 52)
    }
}

#[test]
fn columns_whose_squares_underflow_or_overflow() {
    // Whole matrices (every other entry zero) and single columns far
    // outside the unscaled range, the latter next to ordinary columns and
    // with an entry that underflows when its column is scaled down;
    // against the oracle's scale step.
    let mut rng = StdRng::seed_from_u64(1510);
    let mut ws = QrScratch::default();
    for &m in &ROWS {
        for n in [1, 3, 8, 18] {
            for k in [-1074, -1040, -900, -540, -481, 481, 520, 900, 1000] {
                let c = two_to(k);
                let g = gaussian_mat(m, n, &mut rng);
                let a = Mat::from_fn(m, n, |i, j| g.at(i, j) * c * ((i + j) % 2) as f64);
                assert_matches_oracle(&a, &mut ws, &format!("2^{k}"));
                let mut a = gaussian_mat(m, n, &mut rng);
                for i in 0..m {
                    a.set(i, n / 2, a.at(i, n / 2) * c);
                }
                a.set(m - 1, n / 2, 1e-300);
                assert_matches_oracle(&a, &mut ws, &format!("column times 2^{k}"));
            }
        }
    }
}

#[test]
fn one_scratch_across_shrinking_and_growing_shapes() {
    let mut rng = StdRng::seed_from_u64(1507);
    let mut ws = QrScratch::default();
    let shapes =
        [(300, 21), (5, 3), (88, 33), (1, 1), (48, 18), (2, 21), (300, 33), (18, 18), (24, 5)];
    for _ in 0..2 {
        for &(m, n) in &shapes {
            assert_matches_oracle(&gaussian_mat(m, n, &mut rng), &mut ws, "reused scratch");
            let a = sprinkled(m, n, 0.05, &mut rng, |_| f64::NAN);
            assert_matches_oracle(&a, &mut ws, "reused scratch, NaN");
        }
    }
}

/// Pins the order of the column sums and the zero test of the update.
///
/// Column 0 is `(−1, 2, 2)` on three pattern rows and zero elsewhere, so
/// reflector 0 is exactly `v = (1, −½, −½)` there (and `−0` elsewhere).
/// Column 2 is `(1, 2⁵⁵, −2⁵⁵)` on the same rows: its sum `1 − 2⁵⁴ + 2⁵⁴`
/// is exactly 0 in ascending row order and 1 in any order that adds the
/// 1 last, so a reordered sum updates the column and `R[0][2]` shows it.
/// Column 1 is `−0` everywhere: its sum is `+0` and the update must leave
/// it alone, while an update without the zero test computes
/// `−0 − (+0·(−½)) = +0` in `R[1][1]`. The pattern rows sit in different
/// row blocks when `m` is large, and the pattern columns inside tiles of
/// every width.
#[test]
fn sum_order_and_zero_select_are_pinned() {
    let big = 2f64.powi(55);
    let mut rng = StdRng::seed_from_u64(1509);
    for m in [3, 4, 70, 130] {
        let rows = [0, m / 2, m - 1];
        for n in [3, 5, 11] {
            let mut a = gaussian_mat(m, n, &mut rng);
            for i in 0..m {
                let p = rows.iter().position(|&r| r == i);
                a.set(i, 0, p.map_or(0.0, |p| [-1.0, 2.0, 2.0][p]));
                a.set(i, 1, -0.0);
                a.set(i, 2, p.map_or(0.0, |p| [1.0, big, -big][p]));
            }
            let (mut q, mut r) = (Mat::default(), Mat::default());
            qr_into(&a, &mut q, &mut r, &mut QrScratch::default());
            assert_eq!(r.at(0, 2).to_bits(), 1f64.to_bits(), "column 2 must not be updated");
            assert_eq!(r.at(1, 1).to_bits(), (-0f64).to_bits(), "column 1 must keep its −0");
            assert_matches_oracle(&a, &mut QrScratch::default(), "order/select pin");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_shapes_match_the_oracle(
        m in 1usize..120,
        n in 1usize..40,
        special in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = match special {
            0 => gaussian_mat(m, n, &mut rng),
            1 => sprinkled(m, n, 0.3, &mut rng, |_| -0.0),
            2 => sprinkled(m, n, 0.02, &mut rng, |_| f64::NAN),
            _ => sprinkled(m, n, 0.5, &mut rng, |_| 0.0),
        };
        let (mut q, mut r) = (Mat::default(), Mat::default());
        qr_into(&a, &mut q, &mut r, &mut QrScratch::default());
        let (mut q_want, mut r_want) = (Mat::default(), Mat::default());
        oracle_qr_into(&a, &mut q_want, &mut r_want, &mut OracleScratch::default());
        prop_assert!(bits(&r) == bits(&r_want), "R differs");
        prop_assert!(bits(&q) == bits(&q_want), "Q differs");
    }
}
