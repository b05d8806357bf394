//! Blocked, register-tiled GEMM kernels — the workspace's innermost layer.
//!
//! Every hot path of the DPar2 reproduction (both compression stages, the
//! compressed ALS iterations, the rSVD power iterations, and all three ALS
//! baselines) is a chain of dense matrix products, so the throughput of this
//! module bounds the throughput of the whole system. The naive i-k-j loops
//! behind [`crate::gemm`] stream the full `B` operand through cache once
//! per output row; past L1-sized operands they are memory-bound. This
//! module replaces them — above a size threshold — with the classic
//! three-level blocked scheme (Goto & van de Geijn; the BLIS "five loops
//! around the microkernel"):
//!
//! ```text
//! one-thread pool:                         multi-thread pool:
//! for pc in 0..K step KC:                  pack ALL op(B) blocks (shared)
//!   for jc in 0..N step NC:                for ic in 0..M step MC:  ∥ pool
//!     pack op(B)[pc.., jc..]  (reused buf)   for pc in 0..K step KC:
//!     for ic in 0..M step MC:                  pack op(A)[ic.., pc..]
//!       pack op(A)[ic.., pc..] (reused buf)    for jc in 0..N step NC:
//!       macro-kernel (MR×NR tiles)               macro-kernel (MR×NR tiles)
//! ```
//!
//! The serial path keeps exactly one `KC×NC` packed B block and one
//! `MC×KC` packed A block alive (Goto's bounded-workspace scheme); the
//! pooled path pre-packs all of `op(B)` once because every row-panel
//! worker sweeps every block. Both accumulate each C entry over ascending
//! depth blocks with identical tile arithmetic, so they are bit-identical.
//!
//! * **Packing**: `op(A)` blocks are repacked into contiguous `MR`-row
//!   panels (`panel[p*MR + r]`), `op(B)` blocks into `NR`-column panels
//!   (`panel[p*NR + c]`), so the microkernel reads both operands with unit
//!   stride regardless of the transpose variant. Ragged edges are
//!   zero-padded up to the register tile; padded lanes are never written
//!   back, so NaN/∞ inputs cannot leak outside the logical output.
//! * **Microkernel**: an `MR×NR = 6×8` f64 accumulator tile held in
//!   registers (twelve 4-lane YMM accumulators), updated with fused
//!   multiply-adds down the packed depth. At runtime, if the CPU supports
//!   AVX2+FMA the tile runs as explicit `vfmadd231pd` intrinsics;
//!   otherwise a portable auto-vectorized `a*b + c` fallback is used
//!   (plain `mul_add` without hardware FMA lowers to a slow libm call).
//!   The SIMD tile plus its `#[target_feature]` call is one of the crate's
//!   three narrowly-scoped `unsafe` exceptions (see the crate docs), all
//!   guarded by one cached CPU probe.
//! * **Parallelism**: [`gemm_blocked`] row-partitions C into `MC`-row
//!   panels and, on a pool of more than one thread, fans them out over
//!   [`dpar2_parallel::ThreadPool::for_each_chunk_mut`]. Each panel is
//!   computed by exactly one worker with a fixed depth-block order, so the
//!   result is **bit-identical** for every thread count — a one-thread pool
//!   runs the serial loop nest above, which performs the same per-panel
//!   arithmetic.
//!
//! Reduction order (for reasoning about reproducibility): entry `C[i][j]`
//! accumulates its `K` products in ascending-`k` order *within* each `KC`
//! block (single rounding per step, in registers), and the per-block
//! partial sums are added to `C` in ascending block order. This differs
//! from the naive kernels' flat ascending-`k` order only in rounding, which
//! is why the differential suite (`tests/gemm_differential.rs`) compares
//! the two to summation-length-scaled ulp bounds rather than bit equality.
//!
//! The naive loops are retained as [`gemm_naive_into`] — the IEEE-faithful
//! reference oracle (no `x == 0.0` shortcuts: `0·∞` and `0·NaN` must yield
//! NaN). The size dispatch itself (naive loops below [`use_blocked`],
//! [`gemm_blocked`] above) lives in [`crate::gemm`]. Most `R×R` products of
//! the compressed iterations fall below it and run the naive loops one at
//! a time; the DPar2 `Q_k` step's per-slice products instead go through
//! [`crate::gemm_lanes`], eight slices at once, one per vector lane, in the
//! naive loops' operation order and so with their bits.

use crate::mat::Mat;
use crate::view::{AsMatRef, MatMut, MatRef};
use dpar2_parallel::ThreadPool;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing buffers for the serial blocked path (one `MC×KC`
    /// A block, one `KC×NC` B block). Reusing them across calls makes the
    /// blocked GEMM allocation-free in steady state — the property the
    /// solvers' zero-allocation ALS iterations (tests/alloc_regression.rs)
    /// rest on.
    static PACK_BUFS: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Rows per register tile (microkernel height).
pub const MR: usize = 6;
/// Columns per register tile (microkernel width).
pub const NR: usize = 8;
/// Rows of C per packed A block — also the parallel fan-out unit.
const MC: usize = 120;
/// Depth (inner dimension) per packed block; `KC·NR` doubles fit in L1.
const KC: usize = 256;
/// Columns of C per packed B block; `KC·NC` doubles stay L2-resident.
const NC: usize = 512;

/// Transpose marker for one GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the operand transposed (without materializing the transpose).
    T,
}

impl Trans {
    /// Logical `(rows, cols)` of `op(m)`.
    #[inline]
    pub(crate) fn dims(self, m: MatRef<'_>) -> (usize, usize) {
        match self {
            Trans::N => (m.rows(), m.cols()),
            Trans::T => (m.cols(), m.rows()),
        }
    }
}

/// Element `op(m)[i, j]` (debug-asserted bounds via `MatRef::at`).
#[inline(always)]
fn at(m: MatRef<'_>, t: Trans, i: usize, j: usize) -> f64 {
    match t {
        Trans::N => m.at(i, j),
        Trans::T => m.at(j, i),
    }
}

// ----------------------------------------------------------------------
// Dispatch threshold
// ----------------------------------------------------------------------

/// Minimum `m·n·k` product for the blocked path. Below this the packing
/// and buffer setup cost more than they save; the `R×R` products of the
/// compressed ALS iterations (`R ≤ 23`) take the naive loops' order, on
/// the naive loops or in lanes ([`crate::gemm_lanes`]).
const BLOCKED_MIN_FLOPS: usize = 24 * 24 * 24;

/// True when `(m, n, k)` is large enough that the blocked path wins.
/// Narrow outputs (`n < NR`) stay naive: the register tile would spend
/// most of its lanes on padding.
#[inline]
pub fn use_blocked(m: usize, n: usize, k: usize) -> bool {
    m >= MR && n >= NR && m * n * k >= BLOCKED_MIN_FLOPS
}

// ----------------------------------------------------------------------
// Microkernel
// ----------------------------------------------------------------------

/// Portable tile body: `acc[r][c] += ap[p·MR+r] · bp[p·NR+c]` for
/// `p < kcb`, with separate multiply and add (plain `mul_add` without
/// hardware FMA lowers to a slow libm call) — the auto-vectorized
/// fallback for CPUs without AVX2+FMA.
#[inline(always)]
fn micro_portable(kcb: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kcb) {
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] += ar * bv[c];
            }
        }
    }
}

/// AVX2+FMA instantiation of the tile, written with explicit 256-bit
/// intrinsics: the 6×8 accumulator lives in twelve YMM registers, each
/// depth step broadcasts six A values and streams two B vectors through
/// `vfmadd231pd` — one fused multiply-add per element per depth step, in
/// ascending-`k` order, so vector width never changes which *sequence* of
/// operations produces an output entry, only how many lanes execute at
/// once (the fusion itself does round differently from the portable
/// `a·b + c` path, which is machine-dependent and covered by the
/// differential suite's ulp bounds).
/// (Explicit intrinsics because LLVM's SLP pass does not reliably fuse
/// the scalar `mul_add` tile into packed FMAs.) Only called after a
/// runtime CPU check (see [`run_micro`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)] // contained SIMD exception; see module docs
unsafe fn micro_fma(kcb: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::{_mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd};
    // Uphold the pointer arithmetic below even if a caller passes short
    // panels; the packing layer always provides exactly kcb·MR / kcb·NR.
    assert!(ap.len() >= kcb * MR && bp.len() >= kcb * NR, "micro_fma: short panels");
    let (a_ptr, b_ptr) = (ap.as_ptr(), bp.as_ptr());
    // SAFETY: all loads/stores below stay within the asserted panel bounds
    // and the fixed-size `acc` tile; f64 reads/writes are unaligned-safe
    // via the loadu/storeu intrinsics.
    unsafe {
        let mut t = core::array::from_fn::<_, MR, _>(|r| {
            [_mm256_loadu_pd(acc[r].as_ptr()), _mm256_loadu_pd(acc[r].as_ptr().add(4))]
        });
        for p in 0..kcb {
            let b0 = _mm256_loadu_pd(b_ptr.add(p * NR));
            let b1 = _mm256_loadu_pd(b_ptr.add(p * NR + 4));
            for (r, tr) in t.iter_mut().enumerate() {
                let a = _mm256_set1_pd(*a_ptr.add(p * MR + r));
                tr[0] = _mm256_fmadd_pd(a, b0, tr[0]);
                tr[1] = _mm256_fmadd_pd(a, b1, tr[1]);
            }
        }
        for (r, tr) in t.iter().enumerate() {
            _mm256_storeu_pd(acc[r].as_mut_ptr(), tr[0]);
            _mm256_storeu_pd(acc[r].as_mut_ptr().add(4), tr[1]);
        }
    }
}

/// The CPU's SIMD features, probed once: the one cached runtime check
/// behind every `#[target_feature]` dispatch in this crate (the fused GEMM
/// microkernel here, the Jacobi sweeps and the lane products in
/// [`crate::svd`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Simd {
    /// 256-bit integer and float vectors.
    pub(crate) avx2: bool,
    /// Fused multiply-add.
    pub(crate) fma: bool,
}

/// The cached [`Simd`] probe; all `false` off x86-64.
#[inline]
pub(crate) fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static PROBE: OnceLock<Simd> = OnceLock::new();
        *PROBE.get_or_init(|| Simd {
            avx2: std::arch::is_x86_feature_detected!("avx2"),
            fma: std::arch::is_x86_feature_detected!("fma"),
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd { avx2: false, fma: false }
    }
}

/// Runs one register tile through the best available microkernel.
#[inline]
fn run_micro(kcb: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if matches!(simd(), Simd { avx2: true, fma: true }) {
        // SAFETY: `simd` verified AVX2 and FMA support on this CPU,
        // which is the only precondition of the `#[target_feature]` fn.
        #[allow(unsafe_code)]
        unsafe {
            micro_fma(kcb, ap, bp, acc)
        };
        return;
    }
    micro_portable(kcb, ap, bp, acc);
}

// ----------------------------------------------------------------------
// Packing
// ----------------------------------------------------------------------

/// Packs the `mcb × kcb` block of `op(a)` starting at `(ic, pc)` into
/// `MR`-row panels: `buf[panel·(MR·kcb) + p·MR + r] = op(a)[ic+panel·MR+r,
/// pc+p]`, zero-padding rows past `mcb`.
fn pack_a(
    a: MatRef<'_>,
    ta: Trans,
    ic: usize,
    mcb: usize,
    pc: usize,
    kcb: usize,
    buf: &mut Vec<f64>,
) {
    let panels = mcb.div_ceil(MR);
    buf.clear();
    buf.reserve(panels * MR * kcb);
    for panel in 0..panels {
        let row0 = ic + panel * MR;
        let live = MR.min(ic + mcb - row0);
        for p in 0..kcb {
            for r in 0..MR {
                buf.push(if r < live { at(a, ta, row0 + r, pc + p) } else { 0.0 });
            }
        }
    }
}

/// Packs the `kcb × ncb` block of `op(b)` starting at `(pc, jc)` into
/// `NR`-column panels: `buf[panel·(NR·kcb) + p·NR + c] = op(b)[pc+p,
/// jc+panel·NR+c]`, zero-padding columns past `ncb`.
fn pack_b(
    b: MatRef<'_>,
    tb: Trans,
    pc: usize,
    kcb: usize,
    jc: usize,
    ncb: usize,
    buf: &mut Vec<f64>,
) {
    let panels = ncb.div_ceil(NR);
    buf.clear();
    buf.reserve(panels * NR * kcb);
    for panel in 0..panels {
        let col0 = jc + panel * NR;
        let live = NR.min(jc + ncb - col0);
        for p in 0..kcb {
            for c in 0..NR {
                buf.push(if c < live { at(b, tb, pc + p, col0 + c) } else { 0.0 });
            }
        }
    }
}

// ----------------------------------------------------------------------
// Macro kernel and drivers
// ----------------------------------------------------------------------

/// Sweeps the packed panels with register tiles, accumulating into
/// `c_panel` — the `mcb × ncb` destination sub-block of C, handed in as a
/// (generally strided) [`MatMut`] view.
fn macro_kernel(kcb: usize, apack: &[f64], bpack: &[f64], mut c_panel: MatMut<'_>) {
    let (mcb, ncb) = c_panel.shape();
    for (jp, bp) in bpack.chunks_exact(NR * kcb).enumerate() {
        let jr = jp * NR;
        let nrb = NR.min(ncb - jr);
        for (ip, ap) in apack.chunks_exact(MR * kcb).enumerate() {
            let ir = ip * MR;
            let mrb = MR.min(mcb - ir);
            let mut acc = [[0.0f64; NR]; MR];
            run_micro(kcb, ap, bp, &mut acc);
            for (r, acc_row) in acc.iter().enumerate().take(mrb) {
                let crow = &mut c_panel.row_mut(ir + r)[jr..jr + nrb];
                for (cv, &av) in crow.iter_mut().zip(&acc_row[..nrb]) {
                    *cv += av;
                }
            }
        }
    }
}

/// `C = op(a)·op(b)` via the blocked path, at any size (no dispatch —
/// [`crate::gemm`] is the size-dispatched entry point). `c` is resized and
/// overwritten. When `pool` has more than one thread and C has more than
/// one `MC`-row panel, the panels fan out over it; the result is
/// bit-identical for every thread count (each panel runs the same code on
/// one worker; panel boundaries do not depend on the pool). Operands are
/// anything view-convertible ([`AsMatRef`]): `&Mat`, [`MatRef`], strided
/// sub-blocks.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn gemm_blocked(
    ta: Trans,
    tb: Trans,
    a: impl AsMatRef,
    b: impl AsMatRef,
    c: &mut Mat,
    pool: &ThreadPool,
) {
    let (a, b) = (a.as_mat_ref(), b.as_mat_ref());
    let (m, kk) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(kk, kb, "gemm: inner dimension mismatch ({m}x{kk} · {kb}x{n})");
    c.resize_zeroed(m, n);
    if m == 0 || n == 0 || kk == 0 {
        return;
    }

    let n_pc = kk.div_ceil(KC);
    let n_jc = n.div_ceil(NC);

    // Both branches below accumulate every C entry over ascending depth
    // blocks (`pc`), with identical per-block tile arithmetic — only the
    // loop nesting around that order differs — so the serial and pooled
    // paths are bit-identical for any thread count.
    if pool.threads() > 1 && m > MC {
        // Pack every (jc, pc) block of op(B) once, shared read-only by
        // all row-panel workers (each worker sweeps every block, so
        // per-worker packing would multiply that work by the panel
        // count); indexed [jci * n_pc + pci].
        let bpacks: Vec<Vec<f64>> = (0..n_jc * n_pc)
            .map(|idx| {
                let (jci, pci) = (idx / n_pc, idx % n_pc);
                let (jc, pc) = (jci * NC, pci * KC);
                let mut buf = Vec::new();
                pack_b(b, tb, pc, KC.min(kk - pc), jc, NC.min(n - jc), &mut buf);
                buf
            })
            .collect();
        // One MC-row panel of C: repack the matching A rows per depth
        // block and sweep. Each worker's chunk is reinterpreted as a
        // row-panel view; the `jc` column window is a strided
        // `MatMut` sub-block of it.
        let process_panel = |blk: usize, crows: &mut [f64]| {
            let ic = blk * MC;
            let mcb = MC.min(m - ic);
            let mut apack = Vec::new();
            for pci in 0..n_pc {
                let pc = pci * KC;
                let kcb = KC.min(kk - pc);
                pack_a(a, ta, ic, mcb, pc, kcb, &mut apack);
                for jci in 0..n_jc {
                    let jc = jci * NC;
                    let ncb = NC.min(n - jc);
                    let panel =
                        MatMut::from_parts(mcb, n, n, crows).submatrix_mut(0, mcb, jc, jc + ncb);
                    macro_kernel(kcb, &apack, &bpacks[jci * n_pc + pci], panel);
                }
            }
        };
        pool.for_each_chunk_mut(c.data_mut(), MC * n, process_panel);
    } else {
        // Serial: bounded transient memory — exactly one KC×NC packed B
        // block and one MC×KC packed A block live at a time (the classic
        // Goto scheme), instead of a full padded copy of op(B). The two
        // buffers are thread-local and reused across calls, so the
        // serial blocked path performs no allocations in steady state.
        let cdata = c.data_mut();
        PACK_BUFS.with(|bufs| {
            let (apack, bpack) = &mut *bufs.borrow_mut();
            for pci in 0..n_pc {
                let pc = pci * KC;
                let kcb = KC.min(kk - pc);
                for jci in 0..n_jc {
                    let jc = jci * NC;
                    let ncb = NC.min(n - jc);
                    pack_b(b, tb, pc, kcb, jc, ncb, bpack);
                    for (blk, crows) in cdata.chunks_mut(MC * n).enumerate() {
                        let ic = blk * MC;
                        let mcb = MC.min(m - ic);
                        pack_a(a, ta, ic, mcb, pc, kcb, apack);
                        let panel = MatMut::from_parts(mcb, n, n, crows).submatrix_mut(
                            0,
                            mcb,
                            jc,
                            jc + ncb,
                        );
                        macro_kernel(kcb, apack, bpack, panel);
                    }
                }
            }
        });
    }
}

/// IEEE-faithful naive reference: flat i-k-j triple loop, ascending-`k`
/// accumulation, no zero shortcuts (`0·∞ = NaN` propagates). This is the
/// oracle the differential suite compares the blocked paths against, and
/// the small-size path behind the [`crate::gemm`] dispatch.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn gemm_naive_into(ta: Trans, tb: Trans, a: impl AsMatRef, b: impl AsMatRef, c: &mut Mat) {
    let (a, b) = (a.as_mat_ref(), b.as_mat_ref());
    let (m, kk) = ta.dims(a);
    let (kb, n) = tb.dims(b);
    assert_eq!(kk, kb, "gemm: inner dimension mismatch ({m}x{kk} · {kb}x{n})");
    c.resize_zeroed(m, n);
    for i in 0..m {
        for p in 0..kk {
            let aip = at(a, ta, i, p);
            let crow = c.row_mut(i);
            match tb {
                Trans::N => {
                    for (cv, &bv) in crow.iter_mut().zip(b.row(p)) {
                        *cv += aip * bv;
                    }
                }
                Trans::T => {
                    for (j, cv) in crow.iter_mut().enumerate() {
                        *cv += aip * b.at(j, p);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Mat {
        Mat::from_fn(rows, cols, f)
    }

    fn assert_close(a: &Mat, b: &Mat, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let dev = (a - b).max_abs();
        assert!(dev <= tol, "kernels deviate by {dev}");
    }

    #[test]
    fn blocked_matches_naive_across_block_boundaries() {
        // Sizes straddling MR/NR/MC/KC edges exercise every padding path.
        for &(m, n, k) in
            &[(1, 8, 1), (4, 8, 5), (5, 9, 7), (63, 65, 255), (64, 8, 256), (65, 17, 257)]
        {
            let a = mat_fn(m, k, |i, j| ((i * 7 + j * 3) as f64).sin());
            let b = mat_fn(k, n, |i, j| ((i * 5 + j * 11) as f64).cos());
            let mut naive = Mat::zeros(0, 0);
            let mut blocked = Mat::zeros(0, 0);
            gemm_naive_into(Trans::N, Trans::N, &a, &b, &mut naive);
            gemm_blocked(Trans::N, Trans::N, &a, &b, &mut blocked, &ThreadPool::new(1));
            assert_close(&naive, &blocked, 1e-12 * k as f64);
        }
    }

    #[test]
    fn all_transpose_variants_agree_with_materialized_transpose() {
        let a = mat_fn(13, 21, |i, j| (i as f64) - 0.5 * j as f64);
        let b = mat_fn(21, 9, |i, j| ((i + j) as f64).sqrt());
        let expected = a.matmul(&b).unwrap();
        let at_m = a.transpose();
        let bt_m = b.transpose();
        for (ta, tb, x, y) in [
            (Trans::N, Trans::N, &a, &b),
            (Trans::T, Trans::N, &at_m, &b),
            (Trans::N, Trans::T, &a, &bt_m),
            (Trans::T, Trans::T, &at_m, &bt_m),
        ] {
            let mut c = Mat::zeros(0, 0);
            gemm_blocked(ta, tb, x, y, &mut c, &ThreadPool::new(1));
            assert_close(&expected, &c, 1e-11);
        }
    }

    #[test]
    fn pooled_bitwise_equals_serial_blocked() {
        let a = mat_fn(130, 70, |i, j| ((i * 13 + j) as f64).sin());
        let b = mat_fn(70, 90, |i, j| ((i + 17 * j) as f64).cos());
        let mut serial = Mat::zeros(0, 0);
        gemm_blocked(Trans::N, Trans::N, &a, &b, &mut serial, &ThreadPool::new(1));
        for threads in [1, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let mut pooled = Mat::zeros(0, 0);
            gemm_blocked(Trans::N, Trans::N, &a, &b, &mut pooled, &pool);
            assert_eq!(serial, pooled, "pooled GEMM diverged at {threads} threads");
        }
    }

    #[test]
    fn empty_operands() {
        for &(m, n, k) in &[(0, 5, 3), (5, 0, 3), (5, 3, 0), (0, 0, 0)] {
            let a = Mat::zeros(m, k);
            let b = Mat::zeros(k, n);
            let mut c = Mat::ones(7, 7);
            gemm_blocked(Trans::N, Trans::N, &a, &b, &mut c, &ThreadPool::new(1));
            assert_eq!(c.shape(), (m, n));
            assert!(c.data().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn padding_lanes_do_not_leak_specials() {
        // 5×9 output: the ragged tile edges sit next to NaN/∞ entries; the
        // pad lanes compute garbage but must never be written back.
        let mut a = mat_fn(5, 3, |i, j| (i + j) as f64);
        let mut b = mat_fn(3, 9, |i, j| (i * 9 + j) as f64);
        a.set(4, 2, f64::INFINITY);
        b.set(2, 8, f64::NAN);
        let mut naive = Mat::zeros(0, 0);
        let mut blocked = Mat::zeros(0, 0);
        gemm_naive_into(Trans::N, Trans::N, &a, &b, &mut naive);
        gemm_blocked(Trans::N, Trans::N, &a, &b, &mut blocked, &ThreadPool::new(1));
        for (x, y) in naive.data().iter().zip(blocked.data()) {
            assert_eq!(x.is_nan(), y.is_nan());
            if !x.is_nan() {
                assert!((x - y).abs() < 1e-9 || x.is_infinite() && *x == *y);
            }
        }
    }

    #[test]
    fn dispatch_threshold_shape() {
        assert!(!use_blocked(3, 100, 100)); // too few rows for a tile
        assert!(!use_blocked(100, 4, 100)); // narrower than one tile
        assert!(!use_blocked(10, 10, 10)); // tiny
        assert!(use_blocked(64, 64, 64));
        assert!(use_blocked(512, 512, 512));
    }
}
