//! Bridging the solver surface to `dpar2-obs`: a pre-registered handle
//! bundle ([`FitMetrics`]) and a [`FitObserver`] adapter
//! ([`MetricsObserver`]) that streams every phase span and iteration
//! event into it.
//!
//! Registration happens once, up front (it allocates metric names); the
//! observer's record path is lock-free and allocation-free, so fits driven
//! through a `MetricsObserver` keep the workspace's zero-allocation
//! steady-state guarantee (`tests/alloc_regression.rs`).

use std::ops::ControlFlow;

use dpar2_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::session::{FitObserver, FitPhase, IterationEvent, StopReason};

/// Converts observer wall-clock seconds to whole nanoseconds for the
/// log₂-bucket histograms.
#[inline]
fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).min(u64::MAX as f64) as u64
    }
}

/// Handle bundle for solver telemetry, registered under a common prefix:
///
/// * `{prefix}_fits_total` — completed fits (counted when the
///   [`FitPhase::Iterate`] span closes, which every solver emits once).
/// * `{prefix}_iterations_total` — ALS iterations across all fits.
/// * `{prefix}_iteration_ns` — per-iteration wall-clock histogram.
/// * `{prefix}_phase_{compress,init,iterate,finalize}_ns` — per-phase
///   span histograms.
/// * `{prefix}_input_nnz` / `{prefix}_input_density_ppm` — gauges
///   describing the most recent fit's input tensor (see
///   [`FitMetrics::record_input_shape`]).
/// * `{prefix}_sparse_dispatch` — 1 when the most recent fit's input was
///   a CSR tensor, 0 for a dense fit.
#[derive(Debug, Clone)]
pub struct FitMetrics {
    /// Completed fits.
    pub fits: Counter,
    /// ALS iterations across all fits.
    pub iterations: Counter,
    /// Per-iteration wall-clock (ns).
    pub iteration_ns: Histogram,
    /// Per-phase span wall-clock (ns), indexed by [`FitPhase::index`].
    pub phase_ns: [Histogram; FitPhase::COUNT],
    /// Stored nonzeros of the most recent fit's input tensor (total cells
    /// for dense fits).
    pub nnz: Gauge,
    /// Density of the most recent fit's input, in parts per million
    /// (1_000_000 for dense fits).
    pub density_ppm: Gauge,
    /// 1 when the most recent fit ran a sparse path, 0 when dense.
    pub sparse_dispatch: Gauge,
}

impl FitMetrics {
    /// Registers (or looks up) the bundle's metrics in `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> FitMetrics {
        FitMetrics {
            fits: registry.counter(&format!("{prefix}_fits_total")),
            iterations: registry.counter(&format!("{prefix}_iterations_total")),
            iteration_ns: registry.histogram(&format!("{prefix}_iteration_ns")),
            phase_ns: FitPhase::ALL
                .map(|p| registry.histogram(&format!("{prefix}_phase_{}_ns", p.name()))),
            nnz: registry.gauge(&format!("{prefix}_input_nnz")),
            density_ppm: registry.gauge(&format!("{prefix}_input_density_ppm")),
            sparse_dispatch: registry.gauge(&format!("{prefix}_sparse_dispatch")),
        }
    }

    /// Stamps the input-shape gauges for a fit over a tensor with `nnz`
    /// stored entries out of `num_cells` addressable cells.
    ///
    /// Dense fits pass `nnz == num_cells` (density 1_000_000 ppm); sparse
    /// fits pass the CSR nonzero count. An empty tensor (`num_cells == 0`)
    /// records density 0. Values saturate at `i64::MAX`.
    pub fn record_input_shape(&self, nnz: u64, num_cells: u64) {
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        self.nnz.set(clamp(nnz));
        let ppm =
            if num_cells == 0 { 0 } else { ((nnz as f64 / num_cells as f64) * 1e6).round() as i64 };
        self.density_ppm.set(ppm);
    }
}

/// A [`FitObserver`] that records every event into a [`FitMetrics`]
/// bundle, optionally forwarding to an inner observer (whose stop
/// decisions are preserved).
pub struct MetricsObserver<'a> {
    metrics: &'a FitMetrics,
    inner: Option<&'a mut dyn FitObserver>,
}

impl std::fmt::Debug for MetricsObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsObserver")
            .field("metrics", self.metrics)
            .field("inner", &self.inner.is_some())
            .finish()
    }
}

impl<'a> MetricsObserver<'a> {
    /// Record-only observer (never cancels).
    pub fn new(metrics: &'a FitMetrics) -> MetricsObserver<'a> {
        MetricsObserver { metrics, inner: None }
    }

    /// Records into `metrics` and forwards every event to `inner`.
    pub fn wrap(metrics: &'a FitMetrics, inner: &'a mut dyn FitObserver) -> MetricsObserver<'a> {
        MetricsObserver { metrics, inner: Some(inner) }
    }
}

impl FitObserver for MetricsObserver<'_> {
    fn on_iteration(&mut self, event: &IterationEvent) -> ControlFlow<StopReason> {
        self.metrics.iterations.inc();
        self.metrics.iteration_ns.record(secs_to_ns(event.iteration_secs));
        match self.inner.as_deref_mut() {
            Some(inner) => inner.on_iteration(event),
            None => ControlFlow::Continue(()),
        }
    }

    fn on_phase(&mut self, phase: FitPhase, secs: f64) {
        self.metrics.phase_ns[phase.index()].record(secs_to_ns(secs));
        if phase == FitPhase::Iterate {
            // Every solver closes exactly one Iterate span per fit (the
            // session stamps it in `finish`), so it doubles as the
            // completed-fit marker.
            self.metrics.fits.inc();
        }
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_phase(phase, secs);
        }
    }

    fn on_input_shape(&mut self, nnz: u64, num_cells: u64, sparse_path: bool) {
        self.metrics.record_input_shape(nnz, num_cells);
        self.metrics.sparse_dispatch.set(i64::from(sparse_path));
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.on_input_shape(nnz, num_cells, sparse_path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CancelToken;

    #[test]
    fn records_iterations_and_phases() {
        let registry = MetricsRegistry::new();
        let metrics = FitMetrics::register(&registry, "fit");
        let mut obs = MetricsObserver::new(&metrics);
        let event = IterationEvent {
            iteration: 1,
            criterion: 1.0,
            data_norm_sq: 2.0,
            iteration_secs: 0.5,
            elapsed_secs: 0.5,
        };
        assert!(obs.on_iteration(&event).is_continue());
        obs.on_phase(FitPhase::Compress, 0.25);
        obs.on_phase(FitPhase::Iterate, 0.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("fit_iterations_total"), Some(1));
        assert_eq!(snap.counter("fit_fits_total"), Some(1), "Iterate span marks the fit");
        let iter_ns = snap.histogram("fit_iteration_ns").unwrap();
        assert_eq!(iter_ns.count, 1);
        assert_eq!(iter_ns.max, 500_000_000);
        assert_eq!(snap.histogram("fit_phase_compress_ns").unwrap().count, 1);
        assert_eq!(snap.histogram("fit_phase_finalize_ns").unwrap().count, 0);
    }

    #[test]
    fn wrap_preserves_inner_stop_decision() {
        let registry = MetricsRegistry::new();
        let metrics = FitMetrics::register(&registry, "fit");
        let mut inner = CancelToken::new();
        inner.cancel();
        let mut obs = MetricsObserver::wrap(&metrics, &mut inner);
        let event = IterationEvent {
            iteration: 1,
            criterion: 1.0,
            data_norm_sq: 2.0,
            iteration_secs: 0.1,
            elapsed_secs: 0.1,
        };
        assert_eq!(obs.on_iteration(&event), ControlFlow::Break(StopReason::Cancelled));
        // The metric still recorded the iteration that was cancelled.
        assert_eq!(metrics.iterations.get(), 1);
    }

    #[test]
    fn input_shape_gauges_record_nnz_and_density() {
        let registry = MetricsRegistry::new();
        let metrics = FitMetrics::register(&registry, "fit");
        metrics.record_input_shape(250, 1_000_000);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("fit_input_nnz"), Some(250));
        assert_eq!(snap.gauge("fit_input_density_ppm"), Some(250));

        // Dense fits report full density; empty tensors report zero.
        metrics.record_input_shape(42, 42);
        assert_eq!(registry.snapshot().gauge("fit_input_density_ppm"), Some(1_000_000));
        metrics.record_input_shape(0, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("fit_input_nnz"), Some(0));
        assert_eq!(snap.gauge("fit_input_density_ppm"), Some(0));

        // Counts beyond i64 saturate instead of wrapping.
        metrics.record_input_shape(u64::MAX, u64::MAX);
        assert_eq!(registry.snapshot().gauge("fit_input_nnz"), Some(i64::MAX));
    }

    #[test]
    fn input_shape_hook_records_dispatch_decision() {
        let registry = MetricsRegistry::new();
        let metrics = FitMetrics::register(&registry, "solver");
        let mut obs = MetricsObserver::new(&metrics);
        obs.on_input_shape(17, 1_000, true);
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("solver_input_nnz"), Some(17));
        assert_eq!(snap.gauge("solver_input_density_ppm"), Some(17_000));
        assert_eq!(snap.gauge("solver_sparse_dispatch"), Some(1));
        obs.on_input_shape(1_000, 1_000, false);
        assert_eq!(registry.snapshot().gauge("solver_sparse_dispatch"), Some(0));
    }

    #[test]
    fn secs_to_ns_saturates_sanely() {
        assert_eq!(secs_to_ns(-1.0), 0);
        assert_eq!(secs_to_ns(0.0), 0);
        assert_eq!(secs_to_ns(1e-9), 1);
        assert!(secs_to_ns(f64::MAX) == u64::MAX);
    }
}
