//! Allocation-regression suite: proves the zero-copy view refactor's core
//! claim — after a one-iteration warmup, a steady-state single-threaded ALS
//! iteration of DPar2, RD-ALS and SPARTan (dense or CSR) performs **zero
//! heap allocations** (every temporary comes from the `Workspace` arena via
//! `*_into` kernels), and the remaining baselines stay under a generous
//! allocation ceiling.
//!
//! Method: a counting `#[global_allocator]` increments a **thread-local**
//! counter on every `alloc`/`realloc` (thread-local so concurrently running
//! tests in this binary cannot pollute each other's counts; at one solver
//! thread, all fit work runs on the calling thread). A `FitObserver`
//! snapshots the counter at every iteration boundary into a pre-reserved
//! buffer; the deltas between consecutive snapshots are the per-iteration
//! allocation counts. The same allocator tracks the thread's live heap
//! bytes and their peak, which pins how much a one-thread DPar2 fit holds
//! at once.

// The counting allocator is the one place this workspace's `deny(unsafe_code)`
// is relaxed outside the SIMD kernel: `GlobalAlloc` is an unsafe trait.
#![allow(unsafe_code)]

use dpar2_repro::baselines::{NaiveCompressedAls, Parafac2Als, RdAls, Spartan};
use dpar2_repro::core::{
    Dpar2, FitObserver, FitOptions, FitPhase, IterationEvent, Parafac2Solver, StopReason,
};
use dpar2_repro::data::{planted_parafac2, planted_sparse};
use dpar2_repro::tensor::IrregularTensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

thread_local! {
    /// Allocations observed on this thread since program start.
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (memory freed by
    /// another thread than the one that allocated it skews both threads).
    static TL_LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest `TL_LIVE` since the last [`reset_peak`].
    static TL_PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live bytes and raises its peak.
fn track(delta: i64) {
    let _ = TL_LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = TL_PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// System allocator wrapper that counts `alloc`/`realloc` calls per thread
/// and tracks the thread's live and peak bytes. (`Cell`s have no
/// destructor, so the TLS access is safe even during thread teardown.)
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    TL_ALLOCS.with(Cell::get)
}

/// Restarts this thread's peak from its live bytes, and returns them.
fn reset_peak() -> i64 {
    let live = TL_LIVE.with(Cell::get);
    TL_PEAK.with(|peak| peak.set(live));
    live
}

/// This thread's peak live bytes since the last [`reset_peak`].
fn peak_now() -> i64 {
    TL_PEAK.with(Cell::get)
}

fn fixture() -> IrregularTensor {
    planted_parafac2(&[25, 40, 18, 32], 14, 3, 0.3, 9001)
}

fn options() -> FitOptions<'static> {
    // tolerance 0 + modest budget: several full-work iterations, one thread
    // (multi-threaded fits allocate inside the fan-out by design).
    FitOptions::new(3).with_seed(9002).with_threads(1).with_tolerance(0.0).with_max_iterations(6)
}

/// Runs one observed fit and returns the allocation count between each pair
/// of consecutive iteration boundaries (`deltas[i]` covers iteration `i+2`,
/// i.e. everything *after* the warmup iteration's boundary).
fn steady_state_deltas(
    solver: &dyn Parafac2Solver,
    tensor: &IrregularTensor,
    options: &FitOptions<'_>,
) -> Vec<u64> {
    let mut snapshots: Vec<u64> = Vec::with_capacity(64);
    let mut observer = |_e: &IterationEvent| {
        snapshots.push(allocs_now());
        ControlFlow::<StopReason>::Continue(())
    };
    let fit = solver.fit_observed(tensor, options, &mut observer).expect("fit failed");
    assert!(
        fit.iterations >= 3,
        "{}: need ≥3 iterations to observe steady state, got {}",
        solver.name(),
        fit.iterations
    );
    snapshots.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Tentpole pin: DPar2's steady-state iterations are allocation-free, on
/// partial lane groups of the `Q_k` step (K = 4 and 6) and on one full
/// group plus a partial one (K = 9).
#[test]
fn dpar2_steady_state_iterations_allocate_nothing() {
    let nine = planted_parafac2(&[25, 40, 18, 32, 21, 36, 27, 19, 30], 14, 3, 0.3, 9006);
    for t in [fixture(), planted_parafac2(&[25, 40, 18, 32, 21, 36], 14, 3, 0.3, 9005), nine] {
        let deltas = steady_state_deltas(&Dpar2, &t, &options());
        assert!(
            deltas.iter().all(|&d| d == 0),
            "DPar2 allocated in steady state at K = {}: per-iteration counts after warmup = \
             {deltas:?}",
            t.k()
        );
    }
}

/// DPar2 at the many-slices benchmark's shape (K = 300, R = 10, J = 48):
/// there the lemma products `WᵀP` and `P·(H ⊙ E Dᵀ V)` run on the blocked
/// GEMM, which the pins above (K ≤ 9, R = 3) keep on the naive loops.
/// Its steady-state iterations allocate nothing either.
#[test]
fn dpar2_steady_state_allocates_nothing_on_the_blocked_lemma_path() {
    let rows: Vec<usize> = (0..300).map(|k| 12 + k % 9).collect();
    let t = planted_parafac2(&rows, 48, 10, 0.3, 9007);
    let opts = FitOptions::new(10)
        .with_seed(9008)
        .with_threads(1)
        .with_tolerance(0.0)
        .with_max_iterations(4);
    let deltas = steady_state_deltas(&Dpar2, &t, &opts);
    assert!(
        deltas.iter().all(|&d| d == 0),
        "DPar2 allocated in steady state at K = 300, R = 10: per-iteration counts after \
         warmup = {deltas:?}"
    );
}

/// Tentpole pin: RD-ALS's steady-state iterations are allocation-free too
/// (its Q-updates run tall QR-preconditioned SVDs — all on scratch).
#[test]
fn rd_als_steady_state_iterations_allocate_nothing() {
    let t = fixture();
    let deltas = steady_state_deltas(&RdAls, &t, &options());
    assert!(
        deltas.iter().all(|&d| d == 0),
        "RD-ALS allocated in steady state: per-iteration counts after warmup = {deltas:?}"
    );
}

/// SPARTan's steady-state iterations over dense slices are allocation-free:
/// it runs the same arena-backed loop as on CSR slices.
#[test]
fn spartan_dense_steady_state_iterations_allocate_nothing() {
    let t = fixture();
    let deltas = steady_state_deltas(&Spartan, &t, &options());
    assert!(
        deltas.iter().all(|&d| d == 0),
        "SPARTan allocated in steady state: per-iteration counts after warmup = {deltas:?}"
    );
}

/// The remaining baselines keep their textbook allocating formulations, but
/// pin a generous ceiling so an accidental per-entry allocation regression
/// (e.g. a clone inside an inner loop) still fails loudly.
#[test]
fn other_baselines_stay_under_allocation_ceiling() {
    const CEILING: u64 = 50_000;
    let t = fixture();
    let solvers: [&dyn Parafac2Solver; 2] = [&Parafac2Als, &NaiveCompressedAls];
    for solver in solvers {
        let deltas = steady_state_deltas(solver, &t, &options());
        let worst = deltas.iter().copied().max().unwrap_or(0);
        assert!(
            worst < CEILING,
            "{}: {worst} allocations in one steady-state iteration (ceiling {CEILING}); \
             deltas = {deltas:?}",
            solver.name()
        );
    }
}

/// Sparse-subsystem pin: `Spartan` steady-state ALS iterations over
/// CSR slices are allocation-free, like DPar2's and RD-ALS's — the
/// sparse kernels write into the `Workspace` arena and per-slice scratch
/// sized during the warmup iteration. The J = 7, R = 3 configuration
/// keeps every dense product on the naive (non-packing) path.
#[test]
fn spartan_sparse_steady_state_iterations_allocate_nothing() {
    let t = planted_sparse(&[30, 45, 22, 38], 7, 3, 0.3, 0.1, 9003);
    let mut snapshots: Vec<u64> = Vec::with_capacity(64);
    let mut observer = |_e: &IterationEvent| {
        snapshots.push(allocs_now());
        ControlFlow::<StopReason>::Continue(())
    };
    let fit = Spartan.fit_observed(&t, &options(), &mut observer).expect("fit failed");
    assert!(
        fit.iterations >= 3,
        "need ≥3 iterations to observe steady state, got {}",
        fit.iterations
    );
    let deltas: Vec<u64> = snapshots.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.iter().all(|&d| d == 0),
        "SPARTan-sparse allocated in steady state: per-iteration counts after warmup = {deltas:?}"
    );
}

/// Sparse-subsystem pin: DPar2 fit from a CSR tensor keeps the
/// allocation-free steady state. The O(nnz) work all lives in the
/// compression stage — stages 2+ are the same compressed ALS the dense
/// pin covers — so this guards the CSR entry point against anyone
/// threading a per-iteration allocation through the CSR instantiation.
#[test]
fn dpar2_sparse_steady_state_iterations_allocate_nothing() {
    let t = planted_sparse(&[30, 45, 22, 38], 7, 3, 0.3, 0.1, 9004);
    let mut snapshots: Vec<u64> = Vec::with_capacity(64);
    let mut observer = |_e: &IterationEvent| {
        snapshots.push(allocs_now());
        ControlFlow::<StopReason>::Continue(())
    };
    let fit = Dpar2.fit_observed(&t, &options(), &mut observer).expect("fit failed");
    assert!(
        fit.iterations >= 3,
        "need ≥3 iterations to observe steady state, got {}",
        fit.iterations
    );
    let deltas: Vec<u64> = snapshots.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.iter().all(|&d| d == 0),
        "sparse DPar2 allocated in steady state: per-iteration counts after warmup = {deltas:?}"
    );
}

/// Serving pin: a steady-state probe of the pruned top-k index allocates
/// nothing. The first search grows the caller's scratch (partition order,
/// candidate heap) and output vector to their high-water marks; every
/// repeat search — across different targets, probe depths, and k — must
/// reuse them outright. This is the property that keeps the indexed query
/// path allocation-free per probe in `dpar2-serve`.
#[test]
fn index_search_steady_state_allocates_nothing() {
    use dpar2_repro::analysis::{EmbeddingIndex, IndexOptions, SearchScratch};
    use dpar2_repro::linalg::Mat;
    use dpar2_repro::parallel::ThreadPool;

    let n = 600usize;
    let dim = 12usize;
    let points = Mat::from_fn(n, dim, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.125);
    let pool = ThreadPool::new(1);
    let index = EmbeddingIndex::build(points.view(), &IndexOptions::default(), &pool);

    let mut scratch = SearchScratch::default();
    let mut out = Vec::new();
    // Warmup at the *largest* probe depth and k used below, so every later
    // call fits in the warmed capacities.
    index.top_k_similar_into(
        points.row(0),
        0.01,
        16,
        index.num_partitions(),
        Some(0),
        &mut scratch,
        &mut out,
    );

    let before = allocs_now();
    for t in 1..64usize {
        let probe = 1 + t % index.num_partitions();
        index.top_k_similar_into(
            points.row(t),
            0.01,
            1 + t % 16,
            probe,
            Some(t),
            &mut scratch,
            &mut out,
        );
    }
    let after = allocs_now();
    assert_eq!(
        after - before,
        0,
        "pruned index search allocated in steady state ({} allocations over 63 probes)",
        after - before
    );
}

/// Telemetry pin: wrapping the fit in a `MetricsObserver` (counters,
/// per-iteration and per-phase histograms recording into a
/// `MetricsRegistry`) must not cost a single steady-state allocation — the
/// obs record path is handle-based atomics only.
#[test]
fn instrumented_dpar2_steady_state_allocates_nothing() {
    use dpar2_repro::core::{FitMetrics, MetricsObserver};
    use dpar2_repro::obs::MetricsRegistry;

    let t = fixture();
    let registry = MetricsRegistry::new();
    let metrics = FitMetrics::register(&registry, "fit");

    let mut snapshots: Vec<u64> = Vec::with_capacity(64);
    let mut inner = |_e: &IterationEvent| {
        snapshots.push(allocs_now());
        ControlFlow::<StopReason>::Continue(())
    };
    let mut observer = MetricsObserver::wrap(&metrics, &mut inner);
    let fit = Dpar2.fit_observed(&t, &options(), &mut observer).expect("fit failed");
    assert!(fit.iterations >= 3, "need ≥3 iterations, got {}", fit.iterations);
    let deltas: Vec<u64> = snapshots.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        deltas.iter().all(|&d| d == 0),
        "instrumented DPar2 allocated in steady state: {deltas:?}"
    );
    // The telemetry really recorded the fit it watched.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("fit_iterations_total"), Some(fit.iterations as u64));
    assert_eq!(snap.counter("fit_fits_total"), Some(1));
}

/// Telemetry pin: a steady-state *instrumented* index probe — the pruned
/// search plus folding its `SearchStats` into pruning counters and its
/// latency into a log₂ histogram — allocates nothing, so the serve
/// engine's metered query path costs what the plain one does.
#[test]
fn instrumented_index_search_steady_state_allocates_nothing() {
    use dpar2_repro::analysis::{EmbeddingIndex, IndexOptions, SearchScratch};
    use dpar2_repro::linalg::Mat;
    use dpar2_repro::obs::MetricsRegistry;
    use dpar2_repro::parallel::ThreadPool;

    let n = 600usize;
    let dim = 12usize;
    let points = Mat::from_fn(n, dim, |i, j| ((i * 29 + j * 11) % 89) as f64 * 0.25);
    let pool = ThreadPool::new(1);
    let index = EmbeddingIndex::build(points.view(), &IndexOptions::default(), &pool);

    let registry = MetricsRegistry::new();
    let probed = registry.counter("probe_partitions_probed_total");
    let scanned = registry.counter("probe_candidates_scanned_total");
    let latency = registry.histogram("probe_latency_ns");

    let mut scratch = SearchScratch::default();
    let mut out = Vec::new();
    index.top_k_similar_into(
        points.row(0),
        0.01,
        16,
        index.num_partitions(),
        Some(0),
        &mut scratch,
        &mut out,
    );

    let before = allocs_now();
    for t in 1..64usize {
        let span = latency.start_span();
        index.top_k_similar_into(
            points.row(t),
            0.01,
            1 + t % 16,
            1 + t % index.num_partitions(),
            Some(t),
            &mut scratch,
            &mut out,
        );
        let stats = scratch.stats();
        probed.add(stats.partitions_probed as u64);
        scanned.add(stats.candidates_scanned as u64);
        drop(span);
    }
    let after = allocs_now();
    assert_eq!(after - before, 0, "instrumented index probe allocated in steady state");
    assert_eq!(latency.count(), 63);
    assert!(probed.get() >= 63);
}

/// Stage 1's sketch products on a tall slice (540×88, sketch width 18)
/// read their operands in place: after one call has sized the output, a
/// second one-thread `gemm` of each allocates nothing.
#[test]
fn stage1_sketch_products_allocate_nothing() {
    use dpar2_repro::linalg::{gaussian_mat, gemm, Mat, Trans};
    use dpar2_repro::parallel::ThreadPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(9010);
    let (a, omega, q) = (
        gaussian_mat(540, 88, &mut rng),
        gaussian_mat(88, 18, &mut rng),
        gaussian_mat(540, 18, &mut rng),
    );
    let pool = ThreadPool::new(1);
    let mut c = Mat::zeros(0, 0);
    let products: [(&str, Trans, &Mat, &Mat); 3] =
        [("A·Ω", Trans::N, &a, &omega), ("Aᵀ·Q", Trans::T, &a, &q), ("Qᵀ·A", Trans::T, &q, &a)];
    for (name, ta, x, y) in products {
        gemm(ta, Trans::N, x, y, &mut c, &pool);
        let before = allocs_now();
        gemm(ta, Trans::N, x, y, &mut c, &pool);
        assert_eq!(allocs_now() - before, 0, "second {name} allocated");
    }
}

/// A second one-thread `compress` of the same shapes allocates at most a
/// pinned number of times per slice. Stage 1 draws one `Ω` per call, and
/// the Gram route's sketch temporaries (`Y`, `P`, `R`, `T` and the QR's
/// scratch) live in one scratch per stage-1 bucket, reused across its
/// slices; what a route slice still allocates is its lift (`W`, `A_k`,
/// `C_k`, the singular values, the CholeskyQR Gram and `L`). Shapes of
/// both benchmark workloads: short planted slices of 24–96 rows over
/// `J = 48`, and tall ones of 100–491 rows over `J = 88`, at `R = 10`.
/// They make 750 and 314 allocations (7.81 and 13.08 per slice).
#[test]
fn second_compress_allocates_a_pinned_count_per_slice() {
    use dpar2_repro::core::compress;
    use dpar2_repro::data::planted::powerlaw_row_dims;

    let short = powerlaw_row_dims(96, 24, 96, 9013);
    let tall: Vec<usize> = (0..24).map(|k| 100 + 17 * k).collect();
    for (what, rows, j, limit) in [("short", short, 48, 7.82), ("tall", tall, 88, 13.09)] {
        let t = planted_parafac2(&rows, j, 10, 0.1, 9014);
        let opts = FitOptions::new(10).with_seed(9015).with_threads(1);
        compress(&t, &opts).expect("compress failed");
        let before = allocs_now();
        let c = compress(&t, &opts).expect("compress failed");
        let per_slice = (allocs_now() - before) as f64 / rows.len() as f64;
        eprintln!("{what}: {per_slice:.4} allocations per slice, K = {}", c.k());
        assert!(
            per_slice <= limit,
            "{what}: {per_slice:.2} allocations per slice, pinned at {limit}"
        );
    }
}

/// The peak live bytes of each phase of a fit, above the live bytes when
/// the fit began: each phase's span ends at its `on_phase` report, where
/// the peak restarts.
struct PhasePeaks {
    base: i64,
    peaks: [i64; FitPhase::COUNT],
}

impl FitObserver for PhasePeaks {
    fn on_iteration(&mut self, _event: &IterationEvent) -> ControlFlow<StopReason> {
        ControlFlow::Continue(())
    }

    fn on_phase(&mut self, phase: FitPhase, _secs: f64) {
        self.peaks[phase.index()] = peak_now() - self.base;
        reset_peak();
    }
}

/// A one-thread DPar2 fit holds each of its large arrays once: the
/// `U_k` are written over the `A_k` they come from, and stage 1 writes
/// straight into `Mᵀ` (`J × KR` floats). So the fit's heap peaks below
/// `bytes(U) + bytes(M)` plus a slack for two `K × R²` stores and the
/// small factors. Holding a second copy of either large array (all
/// `U_k` next to all `A_k`, or the `C_k B_k` blocks next to `M`) breaks
/// the bound. One fixture is dominated by the `A_k`, the other by `M`.
#[test]
fn dpar2_fit_holds_each_large_array_once() {
    let (j, r) = (40, 10);
    let tall: Vec<usize> = (0..24).map(|k| 600 + 9 * k).collect();
    let short: Vec<usize> = (0..400).map(|k| 12 + k % 9).collect();
    for (what, rows) in [("A_k-dominated", tall), ("M-dominated", short)] {
        let k = rows.len();
        let t = planted_parafac2(&rows, j, r, 0.2, 9011);
        let opts = FitOptions::new(r).with_seed(9012).with_threads(1).with_max_iterations(3);
        let f64s = |n: usize| (n * std::mem::size_of::<f64>()) as i64;
        let u_bytes = f64s(rows.iter().sum::<usize>() * r);
        let m_bytes = f64s(j * k * r);
        // Two `K × R²` stores at a time (`F` and its blocks, or the
        // `Z_k P_kᵀ` and `PZF_k` rows), and the small factors and scratch.
        let slack = 2 * f64s(k * r * r) + (256 << 10);
        let mut obs = PhasePeaks { base: reset_peak(), peaks: [0; FitPhase::COUNT] };
        let fit = Dpar2.fit_observed(&t, &opts, &mut obs).expect("fit failed");
        let tail = peak_now() - obs.base;
        let peak = obs.peaks.iter().copied().max().unwrap().max(tail);
        let mib = |b: i64| b as f64 / (1 << 20) as f64;
        eprintln!(
            "{what}: U {:.3} MiB, M {:.3} MiB, slack {:.3} MiB; peaks (MiB) compress {:.3}, init \
             {:.3}, iterate {:.3}, finalize {:.3}",
            mib(u_bytes),
            mib(m_bytes),
            mib(slack),
            mib(obs.peaks[0]),
            mib(obs.peaks[1]),
            mib(obs.peaks[2]),
            mib(obs.peaks[3]),
        );
        assert!(
            peak < u_bytes + m_bytes + slack,
            "{what}: the fit peaked at {peak} bytes, above U {u_bytes} + M {m_bytes} + slack \
             {slack}; per phase {:?}",
            obs.peaks
        );
        assert_eq!(fit.u.len(), k);
    }
}

/// Guard for the measurement itself: the thread-local counter observes this
/// thread's allocations (so the zero assertions above are meaningful).
#[test]
fn counter_observes_this_threads_allocations() {
    let before = allocs_now();
    let base = reset_peak();
    let v: Vec<u64> = Vec::with_capacity(32);
    let after = allocs_now();
    assert!(after > before, "counting allocator not engaged");
    assert!(peak_now() - base >= 256, "peak tracking not engaged");
    drop(v);
    assert_eq!(reset_peak(), base, "live bytes not released");
}
