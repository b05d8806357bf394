//! The unified solver surface: the [`Parafac2Solver`] trait, the
//! [`FitObserver`] callback API, and the per-fit loop controller
//! ([`FitSession`]) every ALS loop in this workspace drives its iterations
//! through.
//!
//! The paper's whole evaluation (Figs. 5–9, Table III) sweeps one algorithm
//! against three baselines under identical rank/iteration/tolerance
//! settings; streaming and constrained PARAFAC2 follow-ups assume a solver
//! abstraction with per-iteration hooks. This module is that abstraction:
//!
//! * every solver takes the same [`crate::FitOptions`] and produces the
//!   same [`crate::Parafac2Fit`];
//! * an observer sees one [`IterationEvent`] per completed iteration (live
//!   criterion/fitness traces, wall-clock) and can cancel cooperatively by
//!   returning [`ControlFlow::Break`];
//! * fits stop for a *typed* reason ([`StopReason`]) instead of silently
//!   truncating: convergence, divergence, iteration budget, observer
//!   cancellation, or wall-clock budget.

use crate::config::FitOptions;
use crate::convergence::converged;
use crate::error::Result;
use crate::fitness::Parafac2Fit;
use dpar2_linalg::{Mat, SvdFactors, SvdScratch};
use dpar2_tensor::{IrregularTensor, MttkrpScratch};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reusable scratch arena for one fit: every temporary an ALS iteration
/// needs — SVD working stores, lemma-kernel accumulators, criterion
/// buffers, factor-update staging — lives here as a named slot, sized
/// lazily on first use and reused verbatim afterwards.
///
/// The contract the allocation-regression suite (`tests/alloc_regression.rs`)
/// pins: after the first (warm-up) iteration has exercised every slot, a
/// steady-state single-threaded ALS iteration of DPar2 or RD-ALS performs
/// **zero heap allocations** — all arithmetic runs through `*_into` kernels
/// against these buffers (multi-threaded fits still allocate inside the
/// fan-out, which thread spawning makes unavoidable).
///
/// [`FitSession::workspace`] hands the arena to the solver loop; solvers
/// borrow individual fields when a helper needs several slots at once
/// (field-disjoint borrows keep the borrow checker happy without `RefCell`).
#[derive(Debug, Default)]
pub struct Workspace {
    /// Jacobi/QR working stores shared by every small SVD of the iteration.
    pub svd: SvdScratch,
    /// Primary SVD output slot (per-slice factors, `pinv` internals).
    pub svd_out: SvdFactors,
    /// Secondary SVD slot (full factorization before truncation).
    pub svd_tmp: SvdFactors,
    /// Unfolding/Khatri-Rao scratch for the textbook MTTKRP baselines.
    pub mttkrp: MttkrpScratch,
    /// Per-slice product scratch (`R×R` or `I_k×R` scale).
    pub slice_a: Mat,
    /// Criterion scratch: the model row-block `H S_k Vᵀ` (or `Q_k H S_k`).
    pub crit_hs: Mat,
    /// Criterion scratch: the predicted slice.
    pub crit_pred: Mat,
    /// Criterion scratch: the reconstructed slice.
    pub crit_model: Mat,
    /// Lemma-kernel running totals (one `R×R` accumulator per column).
    pub lemma_acc: Vec<Mat>,
    /// Lemma-kernel per-chunk partial sums.
    pub lemma_chunk: Vec<Mat>,
    /// Lemma-kernel dense temporary (`PZF_kᵀH`-sized).
    pub lemma_tmp: Mat,
    /// Column gather buffer (input side).
    pub col_in: Vec<f64>,
    /// Column result buffer (output side).
    pub col_out: Vec<f64>,
    /// Column norms from `normalize_columns_mut`.
    pub norms: Vec<f64>,
    /// Baseline scratch at `I_k×R` / `I_k×J` scale (targets, models).
    pub tall_a: Mat,
    /// Second tall baseline scratch.
    pub tall_b: Mat,
    /// DPar2's `Q_k` step: one lane group of `R×R` SVDs.
    pub qk: crate::solver::QkScratch,
}

impl Workspace {
    /// A fresh, empty arena (all buffers zero-sized until first use).
    pub fn new() -> Self {
        Self::default()
    }
}

// Per-factor staging buffers (Gram operands, pseudoinverse outputs, the
// next factor value swapped in) deliberately live as solver locals, not
// arena slots: their shapes differ per factor, and a shared slot would
// re-grow as it ping-pongs between shapes (see the solvers' `next_h` /
// `next_v` / `next_w` trio).

/// Why a fit's iteration loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The convergence criterion ceased to decrease (or the residual is
    /// negligible against the data norm). "Ceased to decrease" is the
    /// paper's rule: a criterion that stalls — or wobbles *up* at rounding
    /// scale, as ALS traces do on converged swamps — reports this reason
    /// even at `tolerance = 0.0`.
    Converged,
    /// The iteration budget ([`FitOptions::max_iterations`]) was exhausted
    /// first. Also reported for a zero-iteration budget.
    MaxIterations,
    /// An observer returned [`ControlFlow::Break`].
    Cancelled,
    /// The wall-clock budget ([`FitOptions::time_budget`]) ran out.
    TimeBudget,
    /// The criterion came out NaN or infinite (an overflowing input or a
    /// diverging update). The fit stops at once; its factors are those of
    /// the diverged iteration and should not be published.
    Diverged,
}

/// The phases a fit reports wall-clock for, refining the paper's timing
/// breakdown (Fig. 9: preprocessing vs. iterations) into the four spans a
/// telemetry consumer wants separated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitPhase {
    /// Compression/preprocessing: DPar2's two-stage compression, RD-ALS's
    /// concatenated SVD, the naive ablation's compress-and-reconstruct.
    Compress,
    /// Setup between compression and the first iteration: factor
    /// initialization (or warm-start validation), static precomputations,
    /// data-norm evaluation.
    Init,
    /// The ALS iteration loop (reported once, after the loop ends).
    Iterate,
    /// Post-loop factor recovery (`U_k = A_k Z_k P_kᵀ H` for DPar2).
    Finalize,
}

impl FitPhase {
    /// Number of phases (the length of [`FitPhase::ALL`]).
    pub const COUNT: usize = 4;

    /// All phases in execution order.
    pub const ALL: [FitPhase; FitPhase::COUNT] =
        [FitPhase::Compress, FitPhase::Init, FitPhase::Iterate, FitPhase::Finalize];

    /// Dense index in `0..COUNT` (execution order).
    pub fn index(self) -> usize {
        match self {
            FitPhase::Compress => 0,
            FitPhase::Init => 1,
            FitPhase::Iterate => 2,
            FitPhase::Finalize => 3,
        }
    }

    /// Lower-case phase name, used as a metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            FitPhase::Compress => "compress",
            FitPhase::Init => "init",
            FitPhase::Iterate => "iterate",
            FitPhase::Finalize => "finalize",
        }
    }
}

/// Accumulated wall-clock per [`FitPhase`], recorded by a [`FitSession`]
/// as phases complete. [`crate::TimingBreakdown`] is a view over these
/// spans (see [`crate::TimingBreakdown::from_spans`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSpans {
    secs: [f64; FitPhase::COUNT],
}

impl PhaseSpans {
    /// No recorded spans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `secs` to `phase`'s accumulated time.
    pub fn record(&mut self, phase: FitPhase, secs: f64) {
        self.secs[phase.index()] += secs;
    }

    /// Accumulated seconds for `phase`.
    pub fn get(&self, phase: FitPhase) -> f64 {
        self.secs[phase.index()]
    }

    /// Total seconds across all phases.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Snapshot handed to [`FitObserver::on_iteration`] after each completed
/// ALS iteration.
#[derive(Debug, Clone)]
pub struct IterationEvent {
    /// 1-based index of the iteration that just completed.
    pub iteration: usize,
    /// Convergence-criterion value after this iteration (DPar2: compressed
    /// residual; baselines: true squared reconstruction error).
    pub criterion: f64,
    /// Squared norm the criterion is measured against (DPar2: compressed
    /// data norm; baselines: `‖X‖²_F`).
    pub data_norm_sq: f64,
    /// Wall-clock seconds of this iteration.
    pub iteration_secs: f64,
    /// Wall-clock seconds since the iteration loop started.
    pub elapsed_secs: f64,
}

impl IterationEvent {
    /// Live fitness under this repo's `1 − criterion/‖X‖²` convention
    /// (compressed fitness for DPar2, true fitness for the baselines).
    pub fn fitness(&self) -> f64 {
        1.0 - self.criterion / self.data_norm_sq
    }
}

/// Per-iteration callback threaded through every solver's ALS loop.
///
/// Observers see every completed iteration — including the one the solver
/// converges on — and may stop the fit cooperatively by returning
/// `ControlFlow::Break(reason)`; the fit then records that reason (unless
/// the same iteration also converged, in which case
/// [`StopReason::Converged`] wins) and returns the factors computed so far.
///
/// Closures work directly: any
/// `FnMut(&IterationEvent) -> ControlFlow<StopReason>` is an observer.
pub trait FitObserver {
    /// Called after each completed iteration.
    fn on_iteration(&mut self, event: &IterationEvent) -> ControlFlow<StopReason>;

    /// Called when a timed phase completes (preprocessing, iteration loop).
    /// Default: ignore.
    fn on_phase(&mut self, phase: FitPhase, secs: f64) {
        let _ = (phase, secs);
    }

    /// Called once at fit entry by every solver that takes CSR input
    /// (DPar2, SPARTan), describing the input tensor: `nnz` stored entries
    /// out of `num_cells` addressable cells (`nnz == num_cells` for dense
    /// fits), and whether the input was CSR (`sparse_path`). Default:
    /// ignore.
    fn on_input_shape(&mut self, nnz: u64, num_cells: u64, sparse_path: bool) {
        let _ = (nnz, num_cells, sparse_path);
    }
}

impl<F> FitObserver for F
where
    F: FnMut(&IterationEvent) -> ControlFlow<StopReason>,
{
    fn on_iteration(&mut self, event: &IterationEvent) -> ControlFlow<StopReason> {
        self(event)
    }
}

/// The do-nothing observer behind [`Parafac2Solver::fit`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl FitObserver for NoopObserver {
    fn on_iteration(&mut self, _event: &IterationEvent) -> ControlFlow<StopReason> {
        ControlFlow::Continue(())
    }
}

/// Shared cancellation flag usable as an observer.
///
/// Clone the token, hand one clone to the fit (it is itself a
/// [`FitObserver`]), keep the other; [`CancelToken::cancel`] from any
/// thread stops the fit at the next iteration boundary with
/// [`StopReason::Cancelled`]. `dpar2-serve`'s ingest worker uses this so a
/// shutdown never waits for a full refit.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

impl FitObserver for CancelToken {
    fn on_iteration(&mut self, _event: &IterationEvent) -> ControlFlow<StopReason> {
        if self.is_cancelled() {
            ControlFlow::Break(StopReason::Cancelled)
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// The uniform fitting interface implemented by DPar2 and every baseline
/// solver in `dpar2-baselines`.
///
/// Implementations are stateless handles — all per-fit settings travel in
/// [`FitOptions`] — so `Box<dyn Parafac2Solver>` registries (see
/// `dpar2_baselines::Method`) and sweep harnesses treat every method
/// identically. Conformance contract: for a fixed seed, fitting through a
/// trait object is bit-identical to calling the solver's inherent `fit`.
pub trait Parafac2Solver {
    /// Display name matching the paper's figures (e.g. `"DPar2"`).
    fn name(&self) -> &'static str;

    /// Fits the PARAFAC2 model, reporting each iteration to `observer`.
    ///
    /// # Errors
    /// Rank validation ([`crate::Dpar2Error::RankTooLarge`] / `ZeroRank`)
    /// and warm-start shape mismatches ([`crate::Dpar2Error::WarmStart`]).
    fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit>;

    /// Fits without observation (a [`NoopObserver`] session).
    ///
    /// # Errors
    /// See [`Parafac2Solver::fit_observed`].
    fn fit(&self, tensor: &IrregularTensor, options: &FitOptions<'_>) -> Result<Parafac2Fit> {
        self.fit_observed(tensor, options, &mut NoopObserver)
    }
}

/// Loop controller for one fit: owns the criterion/timing traces and the
/// stopping decision (convergence, observer, time budget, iteration
/// budget), so every solver shares one implementation of the session
/// semantics.
///
/// Usage inside a solver:
///
/// ```text
/// let mut session = FitSession::new(&options, observer);
/// for _ in 0..options.max_iterations {
///     session.start_iteration();
///     /* ... one ALS iteration ... */
///     if session.finish_iteration(criterion, data_norm_sq) { break; }
/// }
/// let outcome = session.finish();
/// ```
pub struct FitSession<'o> {
    max_iterations: usize,
    tolerance: f64,
    time_budget: Option<Duration>,
    observer: &'o mut dyn FitObserver,
    t_loop: Instant,
    t_iter: Instant,
    criterion_trace: Vec<f64>,
    per_iteration_secs: Vec<f64>,
    stop: Option<StopReason>,
    workspace: Workspace,
    spans: PhaseSpans,
}

/// What a completed [`FitSession`] hands back to the solver.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Criterion value after each iteration.
    pub criterion_trace: Vec<f64>,
    /// Wall-clock seconds of each iteration.
    pub per_iteration_secs: Vec<f64>,
    /// Why the loop ended ([`StopReason::MaxIterations`] when the budget —
    /// possibly zero — ran out without any other stop).
    pub stop_reason: StopReason,
    /// Wall-clock recorded per phase (everything reported through
    /// [`FitSession::phase`], plus the [`FitPhase::Iterate`] span stamped
    /// by [`FitSession::finish`]). Solvers append post-loop spans (e.g.
    /// [`FitPhase::Finalize`]) before building the timing view.
    pub phases: PhaseSpans,
}

impl SessionOutcome {
    /// Number of iterations executed.
    pub fn iterations(&self) -> usize {
        self.criterion_trace.len()
    }

    /// Total seconds across all iterations.
    pub fn iterations_secs(&self) -> f64 {
        self.per_iteration_secs.iter().sum()
    }
}

impl<'o> FitSession<'o> {
    /// Opens a session for one fit.
    pub fn new(options: &FitOptions<'_>, observer: &'o mut dyn FitObserver) -> FitSession<'o> {
        let now = Instant::now();
        // Pre-reserve the traces so per-iteration pushes never reallocate
        // (capped: an absurd iteration budget must not pre-commit memory).
        let reserve = options.max_iterations.min(4096);
        FitSession {
            max_iterations: options.max_iterations,
            tolerance: options.tolerance,
            time_budget: options.time_budget,
            observer,
            t_loop: now,
            t_iter: now,
            criterion_trace: Vec::with_capacity(reserve),
            per_iteration_secs: Vec::with_capacity(reserve),
            stop: None,
            workspace: Workspace::new(),
            spans: PhaseSpans::new(),
        }
    }

    /// The session's scratch arena — the solver loop borrows it each
    /// iteration and runs its `*_into` kernels against the named slots.
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Records a completed timed phase (accumulated into the session's
    /// [`PhaseSpans`]) and reports it to the observer.
    pub fn phase(&mut self, phase: FitPhase, secs: f64) {
        self.spans.record(phase, secs);
        self.observer.on_phase(phase, secs);
    }

    /// Stamps the start of an iteration (for per-iteration wall-clock).
    pub fn start_iteration(&mut self) {
        self.t_iter = Instant::now();
    }

    /// Records a completed iteration and decides whether to stop.
    ///
    /// Order of precedence when several conditions trip on the same
    /// iteration: divergence (a non-finite criterion), convergence, then
    /// observer cancellation, then the time budget, then the iteration
    /// budget. Returns `true` when the solver should leave its loop.
    pub fn finish_iteration(&mut self, criterion: f64, data_norm_sq: f64) -> bool {
        let iteration_secs = self.t_iter.elapsed().as_secs_f64();
        let prev = self.criterion_trace.last().copied();
        self.per_iteration_secs.push(iteration_secs);
        self.criterion_trace.push(criterion);

        let event = IterationEvent {
            iteration: self.criterion_trace.len(),
            criterion,
            data_norm_sq,
            iteration_secs,
            elapsed_secs: self.t_loop.elapsed().as_secs_f64(),
        };
        let observer_stop = match self.observer.on_iteration(&event) {
            ControlFlow::Break(reason) => Some(reason),
            ControlFlow::Continue(()) => None,
        };

        if !criterion.is_finite() {
            self.stop = Some(StopReason::Diverged);
        } else if converged(prev, criterion, data_norm_sq, self.tolerance) {
            self.stop = Some(StopReason::Converged);
        } else if let Some(reason) = observer_stop {
            self.stop = Some(reason);
        } else if self.time_budget.is_some_and(|b| self.t_loop.elapsed() >= b) {
            self.stop = Some(StopReason::TimeBudget);
        } else if self.criterion_trace.len() >= self.max_iterations {
            self.stop = Some(StopReason::MaxIterations);
        }
        self.stop.is_some()
    }

    /// Iterations recorded so far.
    pub fn iterations(&self) -> usize {
        self.criterion_trace.len()
    }

    /// Closes the session: stamps the [`FitPhase::Iterate`] span (wall
    /// time since the session opened), reports it to the observer, and
    /// returns the traces, recorded spans and the typed stop reason.
    pub fn finish(self) -> SessionOutcome {
        let Self { observer, t_loop, criterion_trace, per_iteration_secs, stop, mut spans, .. } =
            self;
        let iterate_secs = t_loop.elapsed().as_secs_f64();
        spans.record(FitPhase::Iterate, iterate_secs);
        observer.on_phase(FitPhase::Iterate, iterate_secs);
        SessionOutcome {
            criterion_trace,
            per_iteration_secs,
            stop_reason: stop.unwrap_or(StopReason::MaxIterations),
            phases: spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> FitOptions<'static> {
        FitOptions::new(2).with_tolerance(0.0).with_max_iterations(5)
    }

    /// Drives a fake loop of decreasing criteria through a session.
    fn drive(
        opts: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
        crits: &[f64],
    ) -> SessionOutcome {
        let mut session = FitSession::new(opts, observer);
        for &c in crits.iter().take(opts.max_iterations) {
            session.start_iteration();
            if session.finish_iteration(c, 100.0) {
                break;
            }
        }
        session.finish()
    }

    #[test]
    fn exhausting_the_budget_is_max_iterations() {
        let out = drive(&options(), &mut NoopObserver, &[5.0, 4.0, 3.0, 2.0, 1.0, 0.5]);
        assert_eq!(out.stop_reason, StopReason::MaxIterations);
        assert_eq!(out.iterations(), 5);
        assert_eq!(out.criterion_trace, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(out.per_iteration_secs.len(), 5);
    }

    #[test]
    fn zero_iteration_budget_never_enters_the_loop() {
        let opts = options().with_max_iterations(0);
        let out = drive(&opts, &mut NoopObserver, &[5.0, 4.0]);
        assert_eq!(out.stop_reason, StopReason::MaxIterations);
        assert_eq!(out.iterations(), 0);
    }

    #[test]
    fn relative_stall_is_converged() {
        let opts = options().with_tolerance(1e-3);
        let out = drive(&opts, &mut NoopObserver, &[5.0, 5.0, 4.0]);
        assert_eq!(out.stop_reason, StopReason::Converged);
        assert_eq!(out.iterations(), 2);
    }

    #[test]
    fn observer_break_is_cancelled_with_exact_count() {
        let mut calls = 0usize;
        let mut obs = |_e: &IterationEvent| {
            calls += 1;
            if calls == 3 {
                ControlFlow::Break(StopReason::Cancelled)
            } else {
                ControlFlow::Continue(())
            }
        };
        let out = drive(&options(), &mut obs, &[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert_eq!(out.iterations(), 3);
    }

    #[test]
    fn convergence_beats_observer_break_on_the_same_iteration() {
        let opts = options().with_tolerance(1e-2);
        let mut obs = |_e: &IterationEvent| ControlFlow::Break(StopReason::Cancelled);
        // First iteration: criterion 0 ≤ tol·norm → absolute convergence.
        let out = drive(&opts, &mut obs, &[0.0]);
        assert_eq!(out.stop_reason, StopReason::Converged);
    }

    #[test]
    fn non_finite_criterion_is_diverged_before_anything_else() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // The observer asks to stop on the same iteration, and −∞ would
            // pass the absolute convergence test: divergence wins both.
            let mut obs = |e: &IterationEvent| {
                if e.iteration == 2 {
                    ControlFlow::Break(StopReason::Cancelled)
                } else {
                    ControlFlow::Continue(())
                }
            };
            let out = drive(&options().with_tolerance(1e-2), &mut obs, &[5.0, bad, 1.0]);
            assert_eq!(out.stop_reason, StopReason::Diverged, "criterion {bad}");
            assert_eq!(out.iterations(), 2);
        }
    }

    #[test]
    fn zero_time_budget_stops_after_first_iteration() {
        let opts = options().with_time_budget(Duration::ZERO);
        let out = drive(&opts, &mut NoopObserver, &[5.0, 4.0, 3.0]);
        assert_eq!(out.stop_reason, StopReason::TimeBudget);
        assert_eq!(out.iterations(), 1);
    }

    #[test]
    fn observer_sees_every_iteration_with_live_fitness() {
        let mut events: Vec<(usize, f64)> = Vec::new();
        let mut obs = |e: &IterationEvent| {
            events.push((e.iteration, e.fitness()));
            ControlFlow::Continue(())
        };
        let out = drive(&options().with_max_iterations(3), &mut obs, &[50.0, 40.0, 30.0]);
        assert_eq!(out.iterations(), 3);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], (1, 1.0 - 50.0 / 100.0));
        assert_eq!(events[2], (3, 1.0 - 30.0 / 100.0));
    }

    #[test]
    fn cancel_token_stops_a_session() {
        let token = CancelToken::new();
        let mut obs = token.clone();
        token.cancel();
        let out = drive(&options(), &mut obs, &[5.0, 4.0, 3.0]);
        assert_eq!(out.stop_reason, StopReason::Cancelled);
        assert_eq!(out.iterations(), 1);
        assert!(token.is_cancelled());
    }

    #[test]
    fn phases_reach_the_observer() {
        struct PhaseLog(Vec<FitPhase>);
        impl FitObserver for PhaseLog {
            fn on_iteration(&mut self, _e: &IterationEvent) -> ControlFlow<StopReason> {
                ControlFlow::Continue(())
            }
            fn on_phase(&mut self, phase: FitPhase, _secs: f64) {
                self.0.push(phase);
            }
        }
        let mut log = PhaseLog(Vec::new());
        let opts = options();
        let mut session = FitSession::new(&opts, &mut log);
        session.phase(FitPhase::Compress, 0.01);
        session.phase(FitPhase::Init, 0.02);
        let outcome = session.finish();
        assert_eq!(log.0, vec![FitPhase::Compress, FitPhase::Init, FitPhase::Iterate]);
        assert_eq!(outcome.phases.get(FitPhase::Compress), 0.01);
        assert_eq!(outcome.phases.get(FitPhase::Init), 0.02);
        assert!(outcome.phases.get(FitPhase::Iterate) >= 0.0);
        assert_eq!(outcome.phases.get(FitPhase::Finalize), 0.0);
    }

    #[test]
    fn phase_spans_accumulate_and_total() {
        let mut spans = PhaseSpans::new();
        spans.record(FitPhase::Compress, 1.0);
        spans.record(FitPhase::Compress, 0.5);
        spans.record(FitPhase::Finalize, 0.25);
        assert_eq!(spans.get(FitPhase::Compress), 1.5);
        assert_eq!(spans.total(), 1.75);
        for (i, phase) in FitPhase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }
}
