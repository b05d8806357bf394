//! Differential suite for the blocked GEMM's in-place operand reads.
//!
//! `kernel::gemm_blocked` reads full `MR`-row tiles of `op(A)` and full
//! `NR`-column panels of an untransposed `B` where they are stored, and
//! copies only a ragged edge tile into a pad; it packs both operands when
//! a side is wide. Both ways feed each register tile the same values in
//! the same order, so every output bit must match. Each case here runs the
//! same product twice, pinned to read in place and pinned to pack
//! (`kernel::pinned`), and compares the bits, for:
//!
//! * all four transpose pairs;
//! * `m, n ∈ {1–9, 17, 18, 23–25, 88}` and `k ∈ {1, 255, 256, 257, 540}`,
//!   which put ragged tiles on either side and cross the `KC = 256` depth
//!   blocks;
//! * strided views, whose hosts hold NaN around the view;
//! * NaN, ±∞ and −0 in the last live row and column, next to the ragged
//!   edge;
//! * the portable and the AVX2+FMA microkernels (the latter where the CPU
//!   has it);
//! * pools of 1, 2 and 3 threads, with enough rows for the pooled path;
//! * and a proptest over all of it.

use dpar2_linalg::kernel::{gemm_blocked, pinned, Pin, Trans};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::{gemm, Mat, MatRef};
use dpar2_parallel::ThreadPool;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PAIRS: [(Trans, Trans); 4] =
    [(Trans::N, Trans::N), (Trans::T, Trans::N), (Trans::N, Trans::T), (Trans::T, Trans::T)];

/// Row and column counts of the output.
const DIMS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 18, 23, 24, 25, 88];

/// Depths.
const DEPTHS: [usize; 5] = [1, 255, 256, 257, 540];

/// Stored shape of an operand whose `op` is `rows × cols`.
fn stored(t: Trans, rows: usize, cols: usize) -> (usize, usize) {
    match t {
        Trans::N => (rows, cols),
        Trans::T => (cols, rows),
    }
}

/// A Gaussian `rows × cols` matrix stored inside a NaN-filled host with
/// `pad` extra rows and columns on every side, as a strided view (or the
/// contiguous matrix itself when `pad` is 0).
struct Operand {
    host: Mat,
    pad: usize,
    rows: usize,
    cols: usize,
}

impl Operand {
    fn new(rows: usize, cols: usize, pad: usize, rng: &mut StdRng) -> Self {
        let g = gaussian_mat(rows, cols, rng);
        let host = Mat::from_fn(rows + 2 * pad, cols + 2 * pad, |i, j| {
            let inside = (pad..pad + rows).contains(&i) && (pad..pad + cols).contains(&j);
            if inside {
                g.at(i - pad, j - pad)
            } else {
                f64::NAN
            }
        });
        Operand { host, pad, rows, cols }
    }

    fn view(&self) -> MatRef<'_> {
        let p = self.pad;
        self.host.subview(p, p + self.rows, p, p + self.cols)
    }

    fn set(&mut self, i: usize, j: usize, x: f64) {
        self.host.set(self.pad + i, self.pad + j, x);
    }
}

/// Equal bits, with every NaN mapped to one pattern (which NaN an FMA of
/// two NaN operands returns is the hardware's choice, the same either way).
fn bits(m: &Mat) -> Vec<u64> {
    let canon = |x: f64| if x.is_nan() { f64::NAN.to_bits() } else { x.to_bits() };
    [m.rows() as u64, m.cols() as u64]
        .into_iter()
        .chain(m.data().iter().map(|&x| canon(x)))
        .collect()
}

/// `Pin::portable` for each microkernel: the portable one, then the fused
/// one (which the plan only picks on a CPU with AVX2 and FMA; elsewhere
/// this runs the portable one twice).
const KERNELS: [bool; 2] = [true, false];

/// Runs `op(a)·op(b)` pinned to pack on one thread and pinned in place on
/// every pool, on both kernels, and asserts the bits agree.
fn assert_in_place_matches_packed(
    ta: Trans,
    tb: Trans,
    a: MatRef<'_>,
    b: MatRef<'_>,
    pools: &[ThreadPool],
    ctx: &str,
) {
    for portable in KERNELS {
        let run = |in_place: bool, pool: &ThreadPool| {
            let mut c = Mat::zeros(3, 3);
            pinned(Pin { in_place: Some(in_place), portable }, || {
                gemm_blocked(ta, tb, a, b, &mut c, pool);
            });
            c
        };
        let packed = bits(&run(false, &pools[0]));
        for pool in pools {
            let got = bits(&run(true, pool));
            assert!(
                got == packed,
                "{ctx} {ta:?}{tb:?} portable={portable} threads={}: in place differs from packed",
                pool.threads()
            );
        }
    }
}

#[test]
fn every_shape_and_transpose_pair() {
    let pools = [ThreadPool::new(1)];
    let mut rng = StdRng::seed_from_u64(2001);
    for (ta, tb) in PAIRS {
        for &m in &DIMS {
            for &n in &DIMS {
                for &k in &DEPTHS {
                    let (ar, ac) = stored(ta, m, k);
                    let (br, bc) = stored(tb, k, n);
                    let a = gaussian_mat(ar, ac, &mut rng);
                    let b = gaussian_mat(br, bc, &mut rng);
                    let ctx = format!("{m}x{n}x{k}");
                    assert_in_place_matches_packed(ta, tb, a.view(), b.view(), &pools, &ctx);
                }
            }
        }
    }
}

#[test]
fn strided_views_with_poisoned_hosts() {
    // The hosts hold NaN all around each view: a read past the view's
    // rows or columns would poison the product.
    let pools = [ThreadPool::new(1)];
    let mut rng = StdRng::seed_from_u64(2002);
    for (ta, tb) in PAIRS {
        for &(m, n, k) in &[(7, 9, 255), (18, 17, 257), (25, 23, 540), (88, 18, 88), (6, 8, 1)] {
            let (ar, ac) = stored(ta, m, k);
            let (br, bc) = stored(tb, k, n);
            let a = Operand::new(ar, ac, 3, &mut rng);
            let b = Operand::new(br, bc, 2, &mut rng);
            let ctx = format!("strided {m}x{n}x{k}");
            assert_in_place_matches_packed(ta, tb, a.view(), b.view(), &pools, &ctx);
            let mut c = Mat::zeros(0, 0);
            gemm_blocked(ta, tb, a.view(), b.view(), &mut c, &pools[0]);
            assert!(c.data().iter().all(|x| x.is_finite()), "{ctx}: the host leaked in");
        }
    }
}

#[test]
fn specials_next_to_ragged_edges() {
    // NaN, ±∞ and −0 in the last row of op(A) and the last column of
    // op(B): the live lanes of the ragged tile and panel that an in-place
    // read copies into its pad.
    let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let pools = [ThreadPool::new(1)];
    let mut rng = StdRng::seed_from_u64(2003);
    for (ta, tb) in PAIRS {
        for &(m, n, k) in &[(7, 9, 5), (13, 17, 256), (25, 18, 257), (5, 3, 540)] {
            for &x in &specials {
                let (ar, ac) = stored(ta, m, k);
                let (br, bc) = stored(tb, k, n);
                let mut a = Operand::new(ar, ac, 1, &mut rng);
                let mut b = Operand::new(br, bc, 1, &mut rng);
                for p in [0, k / 2, k - 1] {
                    let (i, j) = if ta == Trans::N { (m - 1, p) } else { (p, m - 1) };
                    a.set(i, j, x);
                    let (i, j) = if tb == Trans::N { (p, n - 1) } else { (n - 1, p) };
                    b.set(i, j, -x);
                }
                let ctx = format!("special {x} at {m}x{n}x{k}");
                assert_in_place_matches_packed(ta, tb, a.view(), b.view(), &pools, &ctx);
            }
        }
    }
}

#[test]
fn pools_of_one_two_and_three_threads() {
    // More than one 120-row panel, so pools of 2 and 3 take the pooled
    // path, which reads in place without packing anything up front.
    let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(3)];
    let mut rng = StdRng::seed_from_u64(2004);
    for (ta, tb) in PAIRS {
        for &(m, n, k) in &[(121, 18, 88), (250, 9, 257), (540, 25, 40), (241, 88, 256)] {
            let (ar, ac) = stored(ta, m, k);
            let (br, bc) = stored(tb, k, n);
            let a = Operand::new(ar, ac, 1, &mut rng);
            let b = Operand::new(br, bc, 0, &mut rng);
            let ctx = format!("pooled {m}x{n}x{k}");
            assert_in_place_matches_packed(ta, tb, a.view(), b.view(), &pools, &ctx);
        }
    }
}

#[test]
fn the_size_rule_gives_the_pinned_bits() {
    // Unpinned, `gemm` takes one of the two ways by the size rule; either
    // way it gives the pinned bits.
    let pool = ThreadPool::new(1);
    let mut rng = StdRng::seed_from_u64(2005);
    for &(m, n, k) in &[(540, 18, 88), (18, 88, 540), (300, 300, 40)] {
        let a = gaussian_mat(m, k, &mut rng);
        let b = gaussian_mat(k, n, &mut rng);
        let mut auto = Mat::zeros(0, 0);
        gemm(Trans::N, Trans::N, &a, &b, &mut auto, &pool);
        let mut c = Mat::zeros(0, 0);
        pinned(Pin { in_place: Some(false), portable: false }, || {
            gemm_blocked(Trans::N, Trans::N, &a, &b, &mut c, &pool);
        });
        assert!(bits(&auto) == bits(&c), "{m}x{n}x{k}: the size rule moved a bit");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_products_match_packed(
        m in 1usize..140,
        n in 1usize..40,
        k in 1usize..300,
        pair in 0usize..4,
        pad in 0usize..3,
        special in 0usize..5,
        at in (0usize..1 << 20, 0usize..1 << 20),
        seed in 0u64..1_000_000,
    ) {
        let (ta, tb) = PAIRS[pair];
        let mut rng = StdRng::seed_from_u64(seed);
        let (ar, ac) = stored(ta, m, k);
        let (br, bc) = stored(tb, k, n);
        let mut a = Operand::new(ar, ac, pad, &mut rng);
        let b = Operand::new(br, bc, pad, &mut rng);
        if special > 0 {
            let x = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][special - 1];
            a.set(at.0 % ar, at.1 % ac, x);
        }
        let pools = [ThreadPool::new(1), ThreadPool::new(2)];
        for portable in KERNELS {
            let run = |in_place: bool, pool: &ThreadPool| {
                let mut c = Mat::zeros(0, 0);
                pinned(Pin { in_place: Some(in_place), portable }, || {
                    gemm_blocked(ta, tb, a.view(), b.view(), &mut c, pool);
                });
                bits(&c)
            };
            let packed = run(false, &pools[0]);
            for pool in &pools {
                prop_assert!(run(true, pool) == packed, "{ta:?}{tb:?} portable={portable}");
            }
        }
    }
}
