//! Differential test suite for the GEMM kernel layer.
//!
//! The blocked and pooled paths in `dpar2_linalg::kernel` re-group the
//! per-element summation into `KC`-deep register-accumulated partials, so
//! they cannot be bit-equal to the flat naive loops — but they compute the
//! *same multiset of products in a fixed order per group*, so they must
//! agree with the IEEE-faithful naive reference to a summation-length-
//! scaled ulp bound, and must classify non-finite results identically
//! (every product term is identical; NaN-ness and signed-infinity of a sum
//! of a fixed term multiset are order-independent absent overflow).
//!
//! Coverage, per the kernel-layer contract:
//! * all four transpose variants (`N·N`, `T·N`, `N·T`, `T·T`) plus the Gram
//!   `Aᵀ·A` through `product`;
//! * proptest-generated shapes including empty, `1×N`, `N×1`, non-square,
//!   and sizes straddling every tile/panel boundary;
//! * NaN / ±∞ injections (the IEEE-propagation regression class);
//! * the blocked path on a multi-thread pool is additionally required to be
//!   **bit-identical** to the one-thread blocked path, and the dispatched
//!   [`gemm`] bit-identical to whichever path its size selects, for every
//!   thread count — that equality is the foundation of `Dpar2::fit`'s
//!   cross-thread determinism.

use dpar2_linalg::kernel::{gemm_blocked, gemm_naive_into, use_blocked, Trans};
use dpar2_linalg::{gemm, product, Mat};
use dpar2_parallel::ThreadPool;
use proptest::prelude::*;

const VARIANTS: [(Trans, Trans); 4] =
    [(Trans::N, Trans::N), (Trans::T, Trans::N), (Trans::N, Trans::T), (Trans::T, Trans::T)];

/// Logical operand shapes for `op(A) ∈ R^{m×k}`, `op(B) ∈ R^{k×n}`.
fn operand_shapes(
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
) -> ((usize, usize), (usize, usize)) {
    let a_shape = match ta {
        Trans::N => (m, k),
        Trans::T => (k, m),
    };
    let b_shape = match tb {
        Trans::N => (k, n),
        Trans::T => (n, k),
    };
    (a_shape, b_shape)
}

/// Asserts `got` agrees with the naive `reference` under the differential
/// contract: identical NaN classification, identical infinities, and for
/// finite entries an error bounded by `(k+2)·4·ε` times the magnitude
/// envelope `Σ_p |a_ip||b_pj|` (each path's compensated error is at most
/// `~k·ε·envelope`; the factor 4 absorbs the FMA-vs-separate-rounding
/// difference between microkernel builds).
fn assert_differential(reference: &Mat, got: &Mat, envelope: &Mat, k: usize, ctx: &str) {
    assert_eq!(reference.shape(), got.shape(), "{ctx}: shape mismatch");
    let tol_scale = 4.0 * (k as f64 + 2.0) * f64::EPSILON;
    for (idx, ((&r, &g), &env)) in
        reference.data().iter().zip(got.data()).zip(envelope.data()).enumerate()
    {
        if r.is_nan() || g.is_nan() {
            assert!(
                r.is_nan() && g.is_nan(),
                "{ctx}: NaN classification mismatch at {idx}: reference {r}, got {g}"
            );
        } else if r.is_infinite() || g.is_infinite() {
            assert_eq!(r, g, "{ctx}: infinity mismatch at {idx}");
        } else {
            let tol = tol_scale * env;
            assert!(
                (r - g).abs() <= tol,
                "{ctx}: entry {idx} deviates: reference {r}, got {g}, |diff| {} > tol {tol}",
                (r - g).abs()
            );
        }
    }
}

/// Runs one (A, B) pair through every kernel path and variant-appropriate
/// oracle comparison. `k` is the summation length.
fn check_all_paths(a: &Mat, b: &Mat, ta: Trans, tb: Trans, k: usize, ctx: &str) {
    let mut reference = Mat::zeros(0, 0);
    gemm_naive_into(ta, tb, a, b, &mut reference);

    // Magnitude envelope for the ulp bound: naive |op(A)|·|op(B)|.
    let abs_a = a.map(f64::abs);
    let abs_b = b.map(f64::abs);
    let mut envelope = Mat::zeros(0, 0);
    gemm_naive_into(ta, tb, &abs_a, &abs_b, &mut envelope);

    let mut blocked = Mat::zeros(0, 0);
    gemm_blocked(ta, tb, a, b, &mut blocked, &ThreadPool::new(1));
    assert_differential(&reference, &blocked, &envelope, k, &format!("{ctx} blocked"));

    // The dispatched entry point: within the differential bound on one
    // thread, bitwise the blocked path when its size selects it, and
    // bitwise its own one-thread result on every pool.
    let mut dispatched = Mat::zeros(0, 0);
    gemm(ta, tb, a, b, &mut dispatched, &ThreadPool::new(1));
    assert_differential(&reference, &dispatched, &envelope, k, &format!("{ctx} gemm"));
    if use_blocked(reference.rows(), reference.cols(), k) {
        assert_bitwise(&blocked, &dispatched, &format!("{ctx}: gemm vs blocked"));
    }
    for threads in [1, 2, 3] {
        let pool = ThreadPool::new(threads);
        let mut pooled = Mat::zeros(0, 0);
        gemm_blocked(ta, tb, a, b, &mut pooled, &pool);
        // Pooled must agree with serial blocked *bitwise*, not just in ulp.
        assert_bitwise(&blocked, &pooled, &format!("{ctx}: blocked at {threads} threads"));
        let mut via_gemm = Mat::zeros(0, 0);
        gemm(ta, tb, a, b, &mut via_gemm, &pool);
        assert_bitwise(&dispatched, &via_gemm, &format!("{ctx}: gemm at {threads} threads"));
    }
}

/// Bitwise equality via `to_bits`, so identical NaNs count as equal.
fn assert_bitwise(want: &Mat, got: &Mat, ctx: &str) {
    assert_eq!(want.shape(), got.shape(), "{ctx}: shape");
    for (idx, (&x, &y)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: diverged at entry {idx}: {x} vs {y}");
    }
}

/// Strategy: shapes around tile/panel boundaries plus the degenerate ones
/// the kernel must survive (empty, vectors, extreme aspect ratios).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..26, 0usize..26, 0usize..26)
}

/// Strategy: matrix data of the given length with magnitudes spread over
/// many orders but bounded far from overflow (the finite-entry ulp bound
/// assumes no intermediate overflow).
fn finite_data(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0e12f64..1.0e12, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_and_pooled_match_naive_all_variants(
        (m, n, k) in dims(),
        seed in 0u64..1_000_000,
    ) {
        for (ta, tb) in VARIANTS {
            let ((ar, ac), (br, bc)) = operand_shapes(m, n, k, ta, tb);
            // Deterministic fill from the proptest seed; cheap and
            // shape-independent.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) * 2.0e6 - 1.0e6
            };
            let a = Mat::from_fn(ar, ac, |_, _| next());
            let b = Mat::from_fn(br, bc, |_, _| next());
            check_all_paths(&a, &b, ta, tb, k, &format!("{m}x{n}x{k} {ta:?}{tb:?}"));
        }
    }

    #[test]
    fn gram_matches_naive_tn_reference(
        rows in 0usize..40,
        cols in 0usize..20,
        data in finite_data(40 * 20),
    ) {
        let a = Mat::from_fn(rows, cols, |i, j| data[i * 20 + j]);
        let mut reference = Mat::zeros(0, 0);
        gemm_naive_into(Trans::T, Trans::N, &a, &a, &mut reference);
        let abs_a = a.map(f64::abs);
        let mut envelope = Mat::zeros(0, 0);
        gemm_naive_into(Trans::T, Trans::N, &abs_a, &abs_a, &mut envelope);

        let g = product(Trans::T, Trans::N, &a, &a);
        assert_differential(&reference, &g, &envelope, rows, "gram dispatch");
        for threads in [1, 2, 3, 4] {
            let mut gp = Mat::zeros(0, 0);
            gemm(Trans::T, Trans::N, &a, &a, &mut gp, &ThreadPool::new(threads));
            prop_assert_eq!(&g, &gp, "pooled gram diverged at {} threads", threads);
        }
        // The blocked Gram must stay exactly symmetric: entries (i, j) and
        // (j, i) run the same product sequence in the same order.
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                prop_assert_eq!(g[(i, j)].to_bits(), g[(j, i)].to_bits());
            }
        }
    }

    #[test]
    fn special_values_classify_identically(
        (m, n, k) in (1usize..14, 1usize..14, 1usize..14),
        data in finite_data(14 * 14 * 2),
        specials in prop::collection::vec((0usize..14 * 14 * 2, 0usize..5), 1..6),
    ) {
        for (ta, tb) in VARIANTS {
            let ((ar, ac), (br, bc)) = operand_shapes(m, n, k, ta, tb);
            let mut a_data: Vec<f64> = data[..ar * ac].to_vec();
            let mut b_data: Vec<f64> = data[14 * 14..14 * 14 + br * bc].to_vec();
            // Inject NaN / ±∞ / ±0 at pseudo-random positions of A and B.
            for &(pos, kind) in &specials {
                let val = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0][kind];
                if pos % 2 == 0 {
                    if !a_data.is_empty() {
                        let p = pos / 2 % a_data.len();
                        a_data[p] = val;
                    }
                } else if !b_data.is_empty() {
                    let p = pos / 2 % b_data.len();
                    b_data[p] = val;
                }
            }
            let a = Mat::from_vec(ar, ac, a_data);
            let b = Mat::from_vec(br, bc, b_data);
            check_all_paths(&a, &b, ta, tb, k, &format!("specials {ta:?}{tb:?}"));
        }
    }
}

// ----------------------------------------------------------------------
// Deterministic edge-case regressions
// ----------------------------------------------------------------------

#[test]
fn empty_one_row_one_col_shapes() {
    for (m, n, k) in [
        (0, 0, 0),
        (0, 7, 3),
        (7, 0, 3),
        (7, 3, 0),
        (1, 17, 9), // 1×N
        (17, 1, 9), // N×1
        (1, 1, 300),
        (300, 1, 1),
    ] {
        for (ta, tb) in VARIANTS {
            let ((ar, ac), (br, bc)) = operand_shapes(m, n, k, ta, tb);
            let a = Mat::from_fn(ar, ac, |i, j| (i * 31 + j) as f64 * 0.5 - 3.0);
            let b = Mat::from_fn(br, bc, |i, j| (i as f64) - (j as f64) * 0.25);
            check_all_paths(&a, &b, ta, tb, k, &format!("edge {m}x{n}x{k} {ta:?}{tb:?}"));
        }
    }
}

#[test]
fn boundary_straddling_shapes() {
    // Exactly at / one past the microkernel tile (6×8), the row-panel unit
    // (120), and the depth block (256) — swept over every transpose
    // variant, since each has its own packing index arithmetic that only
    // gets exercised past the first panel/depth block.
    for (m, n, k) in [(6, 8, 256), (7, 9, 257), (120, 8, 16), (121, 16, 255), (12, 24, 512)] {
        for (ta, tb) in VARIANTS {
            let ((ar, ac), (br, bc)) = operand_shapes(m, n, k, ta, tb);
            let a = Mat::from_fn(ar, ac, |i, j| ((i * 13 + j * 7) as f64).sin() * 100.0);
            let b = Mat::from_fn(br, bc, |i, j| ((i + 5 * j) as f64).cos() * 100.0);
            check_all_paths(&a, &b, ta, tb, k, &format!("boundary {m}x{n}x{k} {ta:?}{tb:?}"));
        }
    }
}

/// The IEEE-propagation regression the kernel layer pins (satellite of the
/// kernel-layer issue): the old naive loops skipped `a == 0.0`
/// multiplicands, silently replacing `0·∞` and `0·NaN` (both NaN under
/// IEEE 754) with an additive identity. All paths must now propagate.
#[test]
fn zero_times_special_propagates_nan_through_every_path() {
    // A's zero row meets B's ∞/NaN column head-on.
    let a = Mat::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
    let b = Mat::from_rows(&[&[f64::INFINITY, 1.0], &[3.0, f64::NAN]]);
    let mut c = Mat::zeros(0, 0);

    gemm_naive_into(Trans::N, Trans::N, &a, &b, &mut c);
    assert!(c[(0, 0)].is_nan(), "0·∞ + 2·3 must be NaN, got {}", c[(0, 0)]);
    assert!(c[(0, 1)].is_nan(), "0·1 + 2·NaN must be NaN");
    assert!(c[(1, 0)].is_infinite() && c[(1, 0)] > 0.0);
    assert!(c[(1, 1)].is_nan());

    let mut blocked = Mat::zeros(0, 0);
    gemm_blocked(Trans::N, Trans::N, &a, &b, &mut blocked, &ThreadPool::new(1));
    let mut pooled = Mat::zeros(0, 0);
    gemm_blocked(Trans::N, Trans::N, &a, &b, &mut pooled, &ThreadPool::new(2));
    for (idx, (&n_v, (&b_v, &p_v))) in
        c.data().iter().zip(blocked.data().iter().zip(pooled.data())).enumerate()
    {
        assert_eq!(n_v.is_nan(), b_v.is_nan(), "blocked NaN divergence at {idx}");
        assert_eq!(n_v.is_nan(), p_v.is_nan(), "pooled NaN divergence at {idx}");
        if !n_v.is_nan() {
            assert_eq!(n_v, b_v);
            assert_eq!(n_v, p_v);
        }
    }
}

#[test]
fn matmul_dispatch_consistent_with_direct_kernels() {
    // `gemm` and `product` dispatch by size; both sides of the
    // threshold must satisfy the same differential contract.
    for (m, n, k) in [(8, 9, 10), (90, 80, 70)] {
        let a = Mat::from_fn(m, k, |i, j| ((i + 2 * j) as f64).sin());
        let b = Mat::from_fn(k, n, |i, j| ((3 * i + j) as f64).cos());
        let mut reference = Mat::zeros(0, 0);
        gemm_naive_into(Trans::N, Trans::N, &a, &b, &mut reference);
        let abs_prod = {
            let mut e = Mat::zeros(0, 0);
            gemm_naive_into(Trans::N, Trans::N, a.map(f64::abs), b.map(f64::abs), &mut e);
            e
        };
        let via_mat = product(Trans::N, Trans::N, &a, &b);
        assert_differential(&reference, &via_mat, &abs_prod, k, "matmul dispatch");

        let tn = product(Trans::T, Trans::N, a.transpose(), &b);
        assert_differential(&reference, &tn, &abs_prod, k, "matmul_tn dispatch");
        let nt = product(Trans::N, Trans::T, &a, b.transpose());
        assert_differential(&reference, &nt, &abs_prod, k, "matmul_nt dispatch");
        let mut tt = Mat::zeros(0, 0);
        gemm(Trans::T, Trans::T, a.transpose(), b.transpose(), &mut tt, &ThreadPool::new(1));
        assert_differential(&reference, &tt, &abs_prod, k, "Aᵀ·Bᵀ dispatch");
    }
}

/// `XᵀX` and `XXᵀ` with the same operand on both sides run only the
/// register tiles on or above the diagonal and mirror the rest. They must
/// give the full product's bits, computed here against a copy of `X`
/// (which the kernel does not recognise as the same operand), on both
/// microkernels, packed or in place, at 1–3 threads. The shapes are
/// stage 2's Grams of the benchmark workloads (`Mᵀ` is `15000 × 48` and
/// `2400 × 88`), two row panels (`130 × 130`), two column blocks
/// (`530 × 530`) and a small Gram just past the dispatch threshold.
#[test]
fn aliased_gram_products_equal_the_full_product_bit_for_bit() {
    use dpar2_linalg::kernel::{pinned, Pin};
    let cases = [
        (15000, 48, Trans::T, Trans::N),
        (2400, 88, Trans::T, Trans::N),
        (140, 130, Trans::T, Trans::N),
        (130, 140, Trans::N, Trans::T),
        (30, 530, Trans::T, Trans::N),
        (20, 40, Trans::N, Trans::T),
        (40, 20, Trans::T, Trans::N),
    ];
    for (rows, cols, ta, tb) in cases {
        let x = Mat::from_fn(rows, cols, |i, j| ((i * 7 + j * 13) as f64 * 0.37).sin() + 0.01);
        let copy = x.clone();
        let n = if ta == Trans::T { cols } else { rows };
        assert!(use_blocked(n, n, rows + cols - n), "{rows}x{cols}: not on the blocked path");
        for pin in [Pin::default(), Pin { in_place: Some(false), portable: true }] {
            let ctx = format!("{rows}x{cols} {ta:?}{tb:?} {pin:?}");
            let mut full = Mat::zeros(0, 0);
            pinned(pin, || gemm(ta, tb, &x, &copy, &mut full, &ThreadPool::new(1)));
            for i in 0..n {
                for j in 0..i {
                    assert_eq!(
                        full.at(i, j).to_bits(),
                        full.at(j, i).to_bits(),
                        "{ctx}: asymmetric"
                    );
                }
            }
            for threads in [1, 2, 3] {
                let mut got = Mat::from_fn(n, n, |_, _| f64::NAN);
                pinned(pin, || gemm(ta, tb, &x, &x, &mut got, &ThreadPool::new(threads)));
                assert_bitwise(&full, &got, &format!("{ctx}, {threads} threads"));
            }
        }
    }
}
