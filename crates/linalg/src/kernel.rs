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
//! for pc in 0..K step KC:                  pack ALL op(B) blocks (shared)¹
//!   for jc in 0..N step NC:                for ic in 0..M step MC:  ∥ pool
//!     pack op(B)[pc.., jc..]¹ (reused buf)   for pc in 0..K step KC:
//!     for ic in 0..M step MC:                  pack op(A)[ic.., pc..]¹
//!       pack op(A)[ic.., pc..]¹(reused buf)    for jc in 0..N step NC:
//!       macro-kernel (MR×NR tiles)               macro-kernel (MR×NR tiles)
//!
//! ¹ only when the product is wide; a narrow one reads op(A) and op(B) in place
//! ```
//!
//! The serial path keeps at most one `KC×NC` packed B block and one
//! `MC×KC` packed A block alive (Goto's bounded-workspace scheme); the
//! pooled path pre-packs all of `op(B)` once because every row-panel
//! worker sweeps every block. Both accumulate each C entry over ascending
//! depth blocks with identical tile arithmetic, so they are bit-identical.
//!
//! * **Packing, or reading in place**: the microkernel reads an `A` tile
//!   as `a[r·lane + p·depth]` and a `B` tile as `b[p·depth + c]`, so it
//!   takes `op(A)` and an untransposed `B` where they are stored (`A`:
//!   strides `(ld, 1)`, or `(1, ld)` transposed; `B`: `ld`) as readily as
//!   packed panels (`(1, MR)` and `NR`). Packing copies `op(A)` blocks
//!   into contiguous `MR`-row panels (`panel[p*MR + r]`) and `op(B)` blocks
//!   into `NR`-column panels (`panel[p*NR + c]`), zero-padded up to the
//!   register tile; it pays off only when each panel is reused many times.
//!   So a product with `min(m, n) ≤ 96` (stage 1's and stage 2's sketch
//!   products, 18 wide) reads both operands in place, and only its ragged
//!   last tile and panel are copied, zero-padded, into stack pads; a wider
//!   one, and a transposed `B`, are packed. Padded lanes are never written
//!   back, so NaN/∞ inputs cannot leak outside the logical output, and
//!   either way every tile sees the same values in the same order: the
//!   choice never moves a bit (`tests/gemm_operands_differential.rs`).
//! * **Microkernel**: an `MR×NR = 6×8` f64 accumulator tile held in
//!   registers (twelve 4-lane YMM accumulators), updated with fused
//!   multiply-adds down the depth. At runtime, if the CPU supports
//!   AVX2+FMA the tile runs as explicit `vfmadd231pd` intrinsics;
//!   otherwise a portable auto-vectorized `a*b + c` fallback is used
//!   (plain `mul_add` without hardware FMA lowers to a slow libm call).
//!   The SIMD tile plus its `#[target_feature]` call is one of the crate's
//!   narrowly-scoped `unsafe` exceptions (see the crate docs), all
//!   guarded by one cached CPU probe; it asserts that its strided reads
//!   stay inside the operand slices it is handed.
//! * **Parallelism**: [`gemm_blocked`] row-partitions C into `MC`-row
//!   panels and, on a pool of more than one thread, fans them out over
//!   [`dpar2_parallel::ThreadPool::for_each_chunk_mut`]. Each panel is
//!   computed by exactly one worker with a fixed depth-block order, so the
//!   result is **bit-identical** for every thread count — a one-thread pool
//!   runs the serial loop nest above, which performs the same per-panel
//!   arithmetic.
//!
//! * **Symmetric products**: when `B` is `A` itself and exactly one side
//!   is transposed (`XᵀX` or `XXᵀ`, stage 2's Gram of `M`), only the
//!   blocks and register tiles on or above the diagonal run, and the
//!   strict lower triangle is mirrored from the upper one. Entries `(i, j)`
//!   and `(j, i)` run the same products in the same order, so the full
//!   product is bitwise symmetric and the mirror moves no bit (for NaN
//!   operands only the payload a NaN carries may differ).
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
//! NaN). The size dispatch itself (register tiles below [`use_blocked`],
//! [`gemm_blocked`] above) lives in [`crate::gemm`]. One rule holds below
//! the threshold: every product, dense, CSR or in lanes, sums each entry in
//! ascending depth from `+0.0`, one multiply and one add per step, never
//! fused, which gives [`gemm_naive_into`]'s bits. Most `R×R` products of
//! the compressed iterations fall below it and run one at a time in
//! [`crate::gemm`]'s tiles; the DPar2 `Q_k` step's per-slice products
//! instead go through [`crate::gemm_lanes`], sixteen slices at once, one
//! per vector lane.

use crate::mat::Mat;
use crate::view::{AsMatRef, MatMut, MatRef};
use dpar2_parallel::ThreadPool;
use std::cell::{Cell, RefCell};
use std::ops::Range;

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
/// compressed ALS iterations (`R ≤ 23`) take the naive loops' order, in
/// [`crate::gemm`]'s register tiles or in lanes ([`crate::gemm_lanes`]).
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

/// Portable tile body: `acc[r][c] += a[r·a.lane + p·a.depth] ·
/// b[p·b.depth + c]` for `p < kcb` (`b.lane` is 1), with separate multiply
/// and add (plain `mul_add` without hardware FMA lowers to a slow libm
/// call) — the auto-vectorized fallback for CPUs without AVX2+FMA.
#[inline(always)]
fn micro_portable(kcb: usize, a: Tile<'_>, b: Tile<'_>, acc: &mut [[f64; NR]; MR]) {
    for p in 0..kcb {
        let bv: &[f64; NR] = b.data[p * b.depth..p * b.depth + NR].try_into().unwrap();
        for r in 0..MR {
            let ar = a.data[p * a.depth + r * a.lane];
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
/// differential suite's ulp bounds). The operands are read as in
/// [`micro_portable`].
/// (Explicit intrinsics because LLVM's SLP pass does not reliably fuse
/// the scalar `mul_add` tile into packed FMAs.) Only called after a
/// runtime CPU check (see [`run_micro`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(unsafe_code)] // contained SIMD exception; see module docs
unsafe fn micro_fma(kcb: usize, a: Tile<'_>, b: Tile<'_>, acc: &mut [[f64; NR]; MR]) {
    use core::arch::x86_64::{_mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd};
    // Uphold the pointer arithmetic below even if a caller passes short
    // operands: the last entries read are `a[(MR−1)·lane + (kcb−1)·depth]`
    // and `b[(kcb−1)·depth + NR − 1]`.
    assert!(
        kcb == 0
            || a.data.len() > (MR - 1) * a.lane + (kcb - 1) * a.depth
                && b.data.len() >= (kcb - 1) * b.depth + NR,
        "micro_fma: short operands"
    );
    let (a_ptr, b_ptr) = (a.data.as_ptr(), b.data.as_ptr());
    // SAFETY: all loads/stores below stay within the asserted operand
    // bounds and the fixed-size `acc` tile; f64 reads/writes are
    // unaligned-safe via the loadu/storeu intrinsics.
    unsafe {
        let mut t = core::array::from_fn::<_, MR, _>(|r| {
            [_mm256_loadu_pd(acc[r].as_ptr()), _mm256_loadu_pd(acc[r].as_ptr().add(4))]
        });
        for p in 0..kcb {
            let (ap, bp) = (a_ptr.add(p * a.depth), b_ptr.add(p * b.depth));
            let b0 = _mm256_loadu_pd(bp);
            let b1 = _mm256_loadu_pd(bp.add(4));
            for (r, tr) in t.iter_mut().enumerate() {
                let ar = _mm256_set1_pd(*ap.add(r * a.lane));
                tr[0] = _mm256_fmadd_pd(ar, b0, tr[0]);
                tr[1] = _mm256_fmadd_pd(ar, b1, tr[1]);
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
/// microkernel here, the Jacobi sweeps — 512-bit, else 256-bit — and the
/// lane products in [`crate::svd`], the Gram kernels ([`gram_kernel`])
/// and the naive products' tile loop in [`crate::mat`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Simd {
    /// 256-bit integer and float vectors.
    pub(crate) avx2: bool,
    /// Fused multiply-add.
    pub(crate) fma: bool,
    /// 512-bit float vectors with their `and`/`andnot`/`or` ops: AVX-512F
    /// and AVX-512DQ both.
    pub(crate) avx512: bool,
}

/// The cached [`Simd`] probe; all `false` off x86-64.
#[inline]
pub(crate) fn simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        use std::sync::OnceLock;
        static PROBE: OnceLock<Simd> = OnceLock::new();
        *PROBE.get_or_init(|| Simd {
            avx2: has!("avx2"),
            fma: has!("fma"),
            avx512: has!("avx512f") && has!("avx512dq"),
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Simd { avx2: false, fma: false, avx512: false }
    }
}

/// Which build of the Gram kernels ([`crate::gram_into`] and the two CSR
/// Grams) runs on this thread. Every fused build gives the same bits, so
/// a Gram's bits depend only on whether the CPU has FMA (and on the test
/// pin).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GramKernel {
    /// One fused multiply-add per product, `8×8` tiles (AVX-512F+DQ).
    Fused512,
    /// One fused multiply-add per product, `4×8` tiles (AVX2+FMA).
    Fused256,
    /// A separate multiply and add per product: CPUs without FMA, and
    /// any call inside [`pinned`] with `portable: true`.
    Unfused,
}

impl GramKernel {
    /// The kernel's name in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            GramKernel::Fused512 => "fused 512",
            GramKernel::Fused256 => "fused 256",
            GramKernel::Unfused => "unfused portable",
        }
    }

    /// Whether each product is fused into its sum.
    pub fn fused(self) -> bool {
        self != GramKernel::Unfused
    }
}

/// The Gram kernel this thread runs: fused where the CPU has FMA, unless
/// inside [`pinned`] with `portable: true`. For the kernels, tests and the
/// kernel benchmark.
#[doc(hidden)]
pub fn gram_kernel() -> GramKernel {
    match simd() {
        _ if PIN.get().portable => GramKernel::Unfused,
        Simd { avx512: true, .. } => GramKernel::Fused512,
        Simd { avx2: true, fma: true, .. } => GramKernel::Fused256,
        _ => GramKernel::Unfused,
    }
}

/// Runs one register tile through the microkernel the call's [`Plan`]
/// picked (`fma` is only ever true on a CPU with AVX2 and FMA).
#[inline]
fn run_micro(fma: bool, kcb: usize, a: Tile<'_>, b: Tile<'_>, acc: &mut [[f64; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if fma {
        // SAFETY: `Plan::new` sets `fma` only after `simd` verified AVX2
        // and FMA support on this CPU, which is the only precondition of
        // the `#[target_feature]` fn.
        #[allow(unsafe_code)]
        unsafe {
            micro_fma(kcb, a, b, acc)
        };
        return;
    }
    let _ = fma; // only read on x86-64
    micro_portable(kcb, a, b, acc);
}

// ----------------------------------------------------------------------
// Operand blocks: packed or in place
// ----------------------------------------------------------------------

/// The widest `min(m, n)` at which [`gemm_blocked`] reads its operands in
/// place instead of packing them. Packing pays off only once each packed
/// `A` tile is reused by many `NR`-column panels of `B` and each packed `B`
/// panel by many `MR`-row tiles. Measured on one x86-64 thread
/// (AVX2+FMA): in place wins 1.0–2.3× up to `min(m, n) = 96`, is a coin
/// toss at 128–192 and loses from 256 (0.64× at 512², where `B`'s 4 KiB
/// row stride thrashes L1).
const IN_PLACE_MAX: usize = 96;

/// One register tile's operand as the microkernel reads it: lane `l`
/// (row `l` of an `A` tile, column `l` of a `B` panel) at depth `p` is
/// `data[l·lane + p·depth]`. A `B` tile always has `lane = 1`; a packed
/// tile has `(lane, depth) = (1, MR)` or `(1, NR)`.
#[derive(Clone, Copy)]
struct Tile<'a> {
    data: &'a [f64],
    lane: usize,
    depth: usize,
}

/// One `KC`-deep block of `op(A)` rows or `op(B)` columns, cut into tiles
/// `width` (`MR` or `NR`) lanes wide: tile `t` starts at `data[t·tile]`.
/// Either packed (every tile whole, ragged lanes zero-padded) or the
/// operand in place, whose ragged last tile is read from a pad.
#[derive(Clone, Copy)]
struct Block<'a> {
    data: &'a [f64],
    width: usize,
    tile: usize,
    lane: usize,
    depth: usize,
    /// Lanes that can be read in place: the block's rows of `op(A)` or
    /// columns of `op(B)`, rounded up to whole tiles when packed.
    len: usize,
}

impl<'a> Block<'a> {
    /// Panels packed by [`pack_a`] or [`pack_b`], `width` lanes by `kcb`.
    fn packed(buf: &'a [f64], width: usize, kcb: usize, len: usize) -> Self {
        let len = len.next_multiple_of(width);
        Block { data: buf, width, tile: width * kcb, lane: 1, depth: width, len }
    }

    /// Rows `ic..ic + mcb` of `op(a)` from depth `pc` on, in place.
    fn a_in_place(a: MatRef<'a>, ta: Trans, ic: usize, mcb: usize, pc: usize) -> Self {
        let ld = a.row_stride();
        let (data, lane, depth) = match ta {
            Trans::N => (a.tail(ic, pc), ld, 1),
            Trans::T => (a.tail(pc, ic), 1, ld),
        };
        Block { data, width: MR, tile: MR * lane, lane, depth, len: mcb }
    }

    /// Columns `jc..jc + ncb` of `b` from row `pc` on, in place (`op(b) =
    /// b`: a transposed `B` is packed).
    fn b_in_place(b: MatRef<'a>, pc: usize, jc: usize, ncb: usize) -> Self {
        let data = b.tail(pc, jc);
        Block { data, width: NR, tile: NR, lane: 1, depth: b.row_stride(), len: ncb }
    }

    /// Copies the ragged last tile of an in-place block, `kcb` deep, into
    /// the zeroed `pad` in the packed layout (its dead lanes stay zero);
    /// no-op when every tile is whole.
    fn fill_pad(&self, kcb: usize, pad: &mut [f64]) {
        let (w, live) = (self.width, self.len % self.width);
        if live == 0 {
            return;
        }
        let base = self.len / w * self.tile;
        for (p, lanes) in pad.chunks_exact_mut(w).take(kcb).enumerate() {
            for (l, x) in lanes.iter_mut().enumerate().take(live) {
                *x = self.data[base + l * self.lane + p * self.depth];
            }
        }
    }

    /// Tile `t`: in place, or from `pad` ([`Block::fill_pad`]) if it is
    /// the ragged last tile of an in-place block.
    fn tile<'s>(&'s self, t: usize, pad: &'s [f64]) -> Tile<'s> {
        if (t + 1) * self.width > self.len {
            Tile { data: pad, lane: 1, depth: self.width }
        } else {
            Tile { data: &self.data[t * self.tile..], lane: self.lane, depth: self.depth }
        }
    }
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

/// Sweeps the `kcb`-deep blocks `a` and `b` with register tiles,
/// accumulating into `c_panel` — the `mcb × ncb` destination sub-block of
/// C, handed in as a (generally strided) [`MatMut`] view. A ragged last
/// tile read in place is copied once into a stack pad. The panel sits at
/// `(i0, j0)` in C; under [`Plan::upper`], tiles wholly below C's
/// diagonal are skipped.
fn macro_kernel(
    plan: Plan,
    kcb: usize,
    a: Block<'_>,
    b: Block<'_>,
    mut c_panel: MatMut<'_>,
    (i0, j0): (usize, usize),
) {
    let (mcb, ncb) = c_panel.shape();
    let (mut apad, mut bpad) = ([0.0; MR * KC], [0.0; NR * KC]);
    a.fill_pad(kcb, &mut apad);
    b.fill_pad(kcb, &mut bpad);
    for jr in (0..ncb).step_by(NR) {
        let nrb = NR.min(ncb - jr);
        let bt = b.tile(jr / NR, &bpad);
        for ir in (0..mcb).step_by(MR) {
            let mrb = MR.min(mcb - ir);
            if plan.upper && below_diagonal(i0 + ir, j0 + jr, nrb) {
                continue;
            }
            let mut acc = [[0.0f64; NR]; MR];
            run_micro(plan.fma, kcb, a.tile(ir / MR, &apad), bt, &mut acc);
            for (r, acc_row) in acc.iter().enumerate().take(mrb) {
                let crow = &mut c_panel.row_mut(ir + r)[jr..jr + nrb];
                for (cv, &av) in crow.iter_mut().zip(&acc_row[..nrb]) {
                    *cv += av;
                }
            }
        }
    }
}

/// True when the block of C at `(row, col)`, `cols` columns wide, lies
/// wholly below the diagonal: its last column is left of its first row.
#[inline]
fn below_diagonal(row: usize, col: usize, cols: usize) -> bool {
    col + cols <= row
}

/// How one [`gemm_blocked`] call reads its operands and which microkernel
/// runs its tiles, decided once on the calling thread.
#[derive(Clone, Copy)]
struct Plan {
    a_in_place: bool,
    b_in_place: bool,
    fma: bool,
    /// The product is `XᵀX` or `XXᵀ` of one operand: only the blocks and
    /// tiles on or above the diagonal run, and the rest is mirrored.
    /// Entry `(i, j)` sums `x_pi·x_pj` over the same depth blocks, in the
    /// same order and with the same roundings as `(j, i)` (products
    /// commute exactly, fused or not), so the full product is bitwise
    /// symmetric and the mirror keeps every bit.
    upper: bool,
}

impl Plan {
    /// Operands in place when `min(m, n) ≤ IN_PLACE_MAX` (`B` only when
    /// not transposed), the fused kernel when the CPU has it — unless this
    /// thread is inside [`pinned`]. `upper` when `b` is `a` and exactly one
    /// side is transposed.
    fn new(m: usize, n: usize, (a, ta): (MatRef<'_>, Trans), (b, tb): (MatRef<'_>, Trans)) -> Self {
        let pin = PIN.get();
        let in_place = pin.in_place.unwrap_or(m.min(n) <= IN_PLACE_MAX);
        let fma = matches!(simd(), Simd { avx2: true, fma: true, .. }) && !pin.portable;
        let upper = ta != tb && a.same_view(b);
        Plan { a_in_place: in_place, b_in_place: in_place && tb == Trans::N, fma, upper }
    }

    /// Rows `rows` of `op(a)` at depths `depth`: in place, or packed into
    /// `buf`.
    fn a_block<'a>(
        self,
        a: MatRef<'a>,
        ta: Trans,
        rows: Range<usize>,
        depth: Range<usize>,
        buf: &'a mut Vec<f64>,
    ) -> Block<'a> {
        if self.a_in_place {
            return Block::a_in_place(a, ta, rows.start, rows.len(), depth.start);
        }
        pack_a(a, ta, rows.start, rows.len(), depth.start, depth.len(), buf);
        Block::packed(buf, MR, depth.len(), rows.len())
    }

    /// Columns `cols` of `op(b)` at depths `depth`: in place, or packed
    /// into `buf`.
    fn b_block<'a>(
        self,
        b: MatRef<'a>,
        tb: Trans,
        depth: Range<usize>,
        cols: Range<usize>,
        buf: &'a mut Vec<f64>,
    ) -> Block<'a> {
        if self.b_in_place {
            return Block::b_in_place(b, depth.start, cols.start, cols.len());
        }
        pack_b(b, tb, depth.start, depth.len(), cols.start, cols.len(), buf);
        Block::packed(buf, NR, depth.len(), cols.len())
    }
}

/// A pinned [`gemm_blocked`] plan and Gram kernel, for tests and the
/// kernel benchmark only: both `in_place` choices give the same bits (the
/// unfused Gram does not), and production code never pins.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct Pin {
    /// `Some(true)`: read the operands in place (`B` only when not
    /// transposed); `Some(false)`: pack both; `None`: the size rule.
    pub in_place: Option<bool>,
    /// Run the portable microkernel even on an AVX2+FMA CPU, and the
    /// unfused Gram kernels ([`GramKernel::Unfused`]) even on an FMA one.
    pub portable: bool,
}

thread_local! {
    /// The pin [`Plan::new`] reads; default outside [`pinned`].
    static PIN: Cell<Pin> = const { Cell::new(Pin { in_place: None, portable: false }) };
}

/// Runs `f` with every [`gemm_blocked`] call it makes on this thread
/// planned by `pin` (the pooled path's workers follow the calling
/// thread's plan); the previous pin is restored afterwards, also on
/// unwind. For tests and the kernel benchmark only.
#[doc(hidden)]
pub fn pinned<R>(pin: Pin, f: impl FnOnce() -> R) -> R {
    struct Restore(Pin);
    impl Drop for Restore {
        fn drop(&mut self) {
            PIN.set(self.0);
        }
    }
    let _restore = Restore(PIN.replace(pin));
    f()
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
    let plan = Plan::new(m, n, (a, ta), (b, tb));
    // Both branches below accumulate every C entry over ascending depth
    // blocks (`pc`), with identical per-block tile arithmetic — only the
    // loop nesting around that order differs — so the serial and pooled
    // paths are bit-identical for any thread count. Reading an operand in
    // place or packed feeds the tiles the same values, so that choice
    // cannot move a bit either.
    if pool.threads() > 1 && m > MC {
        // Pack every (jc, pc) block of op(B) once, shared read-only by
        // all row-panel workers (each worker sweeps every block, so
        // per-worker packing would multiply that work by the panel
        // count); indexed [jci * n_pc + pci]. Nothing is packed when B is
        // read in place.
        let n_packs = if plan.b_in_place { 0 } else { n_jc * n_pc };
        let bpacks: Vec<Vec<f64>> = (0..n_packs)
            .map(|idx| {
                let (jci, pci) = (idx / n_pc, idx % n_pc);
                let (jc, pc) = (jci * NC, pci * KC);
                let mut buf = Vec::new();
                pack_b(b, tb, pc, KC.min(kk - pc), jc, NC.min(n - jc), &mut buf);
                buf
            })
            .collect();
        // One MC-row panel of C: take the matching A rows per depth
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
                let ablk = plan.a_block(a, ta, ic..ic + mcb, pc..pc + kcb, &mut apack);
                for jci in 0..n_jc {
                    let jc = jci * NC;
                    let ncb = NC.min(n - jc);
                    if plan.upper && below_diagonal(ic, jc, ncb) {
                        continue;
                    }
                    let bblk = if plan.b_in_place {
                        Block::b_in_place(b, pc, jc, ncb)
                    } else {
                        Block::packed(&bpacks[jci * n_pc + pci], NR, kcb, ncb)
                    };
                    let panel =
                        MatMut::from_parts(mcb, n, n, crows).submatrix_mut(0, mcb, jc, jc + ncb);
                    macro_kernel(plan, kcb, ablk, bblk, panel, (ic, jc));
                }
            }
        };
        pool.for_each_chunk_mut(c.data_mut(), MC * n, process_panel);
    } else {
        // Serial: bounded transient memory — at most one KC×NC packed B
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
                    let bblk = plan.b_block(b, tb, pc..pc + kcb, jc..jc + ncb, bpack);
                    for (blk, crows) in cdata.chunks_mut(MC * n).enumerate() {
                        let ic = blk * MC;
                        if plan.upper && below_diagonal(ic, jc, ncb) {
                            break;
                        }
                        let mcb = MC.min(m - ic);
                        let ablk = plan.a_block(a, ta, ic..ic + mcb, pc..pc + kcb, apack);
                        let panel = MatMut::from_parts(mcb, n, n, crows).submatrix_mut(
                            0,
                            mcb,
                            jc,
                            jc + ncb,
                        );
                        macro_kernel(plan, kcb, ablk, bblk, panel, (ic, jc));
                    }
                }
            }
        });
    }
    if plan.upper {
        mirror_upper(c);
    }
}

/// Copies the strict upper triangle of the square `c` onto the lower one.
pub(crate) fn mirror_upper(c: &mut Mat) {
    for i in 1..c.rows() {
        for j in 0..i {
            let v = c.at(j, i);
            c.set(i, j, v);
        }
    }
}

/// IEEE-faithful naive reference: flat i-k-j triple loop, ascending-`k`
/// accumulation, no zero shortcuts (`0·∞ = NaN` propagates). This is the
/// oracle the differential suite compares the blocked paths against, and
/// the order every product below [`use_blocked`] keeps bit for bit:
/// [`crate::gemm`]'s register tiles, [`crate::gemm_lanes`] and the CSR
/// residual.
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
    use crate::mat::product;

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
        let expected = product(Trans::N, Trans::N, &a, &b);
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
