//! Background ingest: streaming appends that publish new model versions.
//!
//! The dual-way streaming PARAFAC2 follow-up (Jang et al., 2023) frames the
//! serving problem this layer closes: models are *appended to* over time
//! while queries keep flowing. `dpar2_core::streaming` implements the
//! append half — incremental two-stage compression plus warm-started
//! refits — and [`IngestWorker`] consumes it as a service:
//!
//! * a dedicated worker thread owns the [`StreamingDpar2`] state;
//! * producers hand it slice batches over a crossbeam channel and return
//!   immediately ([`IngestWorker::append`]);
//! * for each batch the worker runs `append` + `decompose` (one
//!   [`StreamingDpar2::append_and_decompose_observed`] call) and publishes
//!   the refreshed model into the shared [`ModelRegistry`] as a brand-new
//!   version — queries never see a half-updated model, they observe either
//!   the old version or the new one (the registry's atomic swap);
//! * [`IngestWorker::flush`] barriers on everything enqueued so far, and
//!   append errors (inconsistent column counts, undersized slices) are
//!   collected per batch rather than killing the worker;
//! * refits are bounded: the stream options' `time_budget` caps each
//!   refit's wall-clock (the published fit records
//!   [`StopReason::TimeBudget`](dpar2_core::StopReason)), and a shared
//!   [`dpar2_core::CancelToken`] observes every refit so a
//!   shutdown never waits on a full ALS run — in-flight and drained refits
//!   break at the next iteration boundary and publish whatever they have
//!   ([`StopReason::Cancelled`](dpar2_core::StopReason));
//! * a refit that diverges ([`StopReason::Diverged`]: a non-finite
//!   criterion, e.g. from a finite batch whose products overflow) is not
//!   published — the previous version stays served and the batch is
//!   recorded as [`IngestEvent::RefitDiverged`]. The stream rolls the
//!   batch back, so it does not poison later refits: the next good batch
//!   publishes as if the diverged one had never been sent.

use crate::engine::ServedModel;
use crate::index::IndexBuilder;
use crate::metrics::IngestMetrics;
use crate::model::ModelMeta;
use crate::registry::ModelRegistry;
use crossbeam::channel::{self, Sender};
use dpar2_analysis::IndexOptions;
use dpar2_core::{CancelToken, StopReason, StreamingDpar2};
use dpar2_linalg::Mat;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

enum Msg {
    Append(Vec<Mat>),
    /// Barrier: acknowledged once every earlier message is processed.
    Flush(Sender<()>),
    Shutdown,
}

/// Typed record of one ingest outcome, in arrival order — the test- and
/// dashboard-visible trail that used to be only a `Vec<String>` of append
/// errors (successful publishes and a dead worker left no trace at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestEvent {
    /// A non-empty batch was appended, refit, and published.
    Published {
        /// 1-based ordinal of the non-empty batch that produced this.
        batch: u64,
        /// The registry version the refit published as.
        version: u64,
        /// Entity count of the published model.
        entities: usize,
    },
    /// A batch whose append failed; the worker keeps running.
    AppendFailed {
        /// 1-based ordinal of the failing non-empty batch.
        batch: u64,
        /// The append error's message.
        error: String,
    },
    /// A batch whose refit stopped with [`StopReason::Diverged`]. Nothing
    /// was published, so the previous version stays served, and the batch
    /// was rolled back out of the stream, so later batches refit without
    /// it. The worker keeps running.
    RefitDiverged {
        /// 1-based ordinal of the non-empty batch whose refit diverged.
        batch: u64,
    },
    /// [`IngestWorker::append`] found the worker thread gone (it panicked
    /// — normal shutdown goes through `shutdown`/`Drop`), so the batch was
    /// dropped without processing.
    WorkerUnavailable,
}

/// Appends one event to the shared ingest log.
fn record_event(events: &Mutex<Vec<IngestEvent>>, event: IngestEvent) {
    events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(event);
}

/// Records a batch that published nothing: bumps the error counter and
/// the last-error-batch gauge, then logs `event`.
fn record_failure(
    metrics: Option<&IngestMetrics>,
    events: &Mutex<Vec<IngestEvent>>,
    batch: u64,
    event: IngestEvent,
) {
    if let Some(m) = metrics {
        m.errors.inc();
        #[allow(clippy::cast_possible_wrap)] // batch ≪ i64::MAX
        m.last_error_batch.set(batch as i64);
    }
    record_event(events, event);
}

/// Keeps the labels-per-slice invariant (`entity_labels` empty or exactly
/// one per entity) as the entity count grows across appends: newcomers get
/// placeholder `entity-<i>` labels, surplus labels are dropped.
fn reconcile_labels(meta: &mut ModelMeta, entities: usize) {
    if meta.entity_labels.is_empty() {
        return;
    }
    while meta.entity_labels.len() < entities {
        meta.entity_labels.push(format!("entity-{}", meta.entity_labels.len()));
    }
    meta.entity_labels.truncate(entities);
}

/// Handle to the background ingest thread.
///
/// Dropping the handle shuts the worker down cleanly (pending batches are
/// still drained and published first).
#[derive(Debug)]
pub struct IngestWorker {
    tx: Sender<Msg>,
    handle: Option<JoinHandle<()>>,
    events: Arc<Mutex<Vec<IngestEvent>>>,
    metrics: Option<IngestMetrics>,
    cancel: CancelToken,
    /// Present for [`IngestWorker::spawn_indexed`] workers. `Drop` joins
    /// the ingest thread first (releasing its clone of this `Arc`), so the
    /// builder's own drain-and-join runs last, after every publish had its
    /// chance to enqueue.
    indexer: Option<Arc<IndexBuilder>>,
}

impl IngestWorker {
    /// Spawns the worker.
    ///
    /// `stream` may already hold slices (e.g. the batches a loaded model
    /// was fitted on, re-appended by the caller) — the worker continues
    /// from that state. Each processed non-empty batch publishes a new
    /// version of `meta.name` into `registry`; empty batches are no-ops.
    /// If `meta` carries entity labels, newly appended entities get
    /// `entity-<i>` placeholder labels so the labels-per-slice invariant
    /// holds on every published version.
    pub fn spawn(stream: StreamingDpar2, meta: ModelMeta, registry: Arc<ModelRegistry>) -> Self {
        Self::spawn_inner(stream, meta, registry, None, None)
    }

    /// [`spawn`](IngestWorker::spawn) recording telemetry into `metrics`:
    /// per-batch drain-to-publish latency, refit duration, queue depth,
    /// and — closing the old silent-drop gap — an error counter plus
    /// last-error-batch gauge for failed appends.
    pub fn spawn_observed(
        stream: StreamingDpar2,
        meta: ModelMeta,
        registry: Arc<ModelRegistry>,
        metrics: IngestMetrics,
    ) -> Self {
        Self::spawn_inner(stream, meta, registry, None, Some(metrics))
    }

    /// [`spawn`](IngestWorker::spawn) plus background indexing: every
    /// published version is handed to a dedicated [`IndexBuilder`] thread
    /// (with its own `index_threads`-wide pool) that builds and installs
    /// its pruned top-k index. Publishes never wait on a build — queries
    /// against a version whose index is still in flight silently use the
    /// exact scan — and when appends outrun builds, the builder coalesces
    /// to the newest queued version per model name.
    pub fn spawn_indexed(
        stream: StreamingDpar2,
        meta: ModelMeta,
        registry: Arc<ModelRegistry>,
        index_options: IndexOptions,
        index_threads: usize,
    ) -> Self {
        let builder = Arc::new(IndexBuilder::spawn(index_options, index_threads));
        Self::spawn_inner(stream, meta, registry, Some(builder), None)
    }

    /// [`spawn_indexed`](IngestWorker::spawn_indexed) with telemetry: the
    /// ingest instrumentation of
    /// [`spawn_observed`](IngestWorker::spawn_observed), and the builder
    /// additionally records each version's publish→index-ready staleness
    /// window into `metrics.staleness_ns`.
    pub fn spawn_indexed_observed(
        stream: StreamingDpar2,
        meta: ModelMeta,
        registry: Arc<ModelRegistry>,
        index_options: IndexOptions,
        index_threads: usize,
        metrics: IngestMetrics,
    ) -> Self {
        let builder = Arc::new(IndexBuilder::spawn_observed(
            index_options,
            index_threads,
            metrics.staleness_ns.clone(),
        ));
        Self::spawn_inner(stream, meta, registry, Some(builder), Some(metrics))
    }

    fn spawn_inner(
        mut stream: StreamingDpar2,
        meta: ModelMeta,
        registry: Arc<ModelRegistry>,
        indexer: Option<Arc<IndexBuilder>>,
        metrics: Option<IngestMetrics>,
    ) -> Self {
        let (tx, rx) = channel::unbounded::<Msg>();
        let events = Arc::new(Mutex::new(Vec::new()));
        let events_in_worker = events.clone();
        let metrics_in_worker = metrics.clone();
        let cancel = CancelToken::new();
        let mut cancel_in_worker = cancel.clone();
        let indexer_in_worker = indexer.clone();
        let handle = std::thread::spawn(move || {
            // 1-based ordinal of non-empty batches — the `batch` field of
            // every event and the value of the last-error gauge.
            let mut batch: u64 = 0;
            for msg in rx {
                match msg {
                    Msg::Append(slices) => {
                        if let Some(m) = &metrics_in_worker {
                            m.queue_depth.sub(1);
                        }
                        // An empty batch changes nothing: skip the refit
                        // and the version bump (a spurious publish would
                        // cold-start every cached result for the model).
                        if slices.is_empty() {
                            continue;
                        }
                        batch += 1;
                        let t_batch = Instant::now();
                        if let Some(m) = &metrics_in_worker {
                            m.appends_total.inc();
                        }
                        // The cancel token observes the refit: a shutdown
                        // breaks it at the next iteration boundary (the
                        // partial fit still publishes), and the stream
                        // options' time_budget bounds it regardless. A
                        // diverged refit rolls the batch back inside the
                        // stream, so the next batch refits cleanly.
                        match stream.append_and_decompose_observed(slices, &mut cancel_in_worker) {
                            Ok(fit) => {
                                if let Some(m) = &metrics_in_worker {
                                    m.refit_ns.record_duration(Duration::from_secs_f64(
                                        fit.timing.total_secs,
                                    ));
                                }
                                if fit.stop_reason == StopReason::Diverged {
                                    // Publishing would replace the served
                                    // model with a NaN one: keep the
                                    // previous version.
                                    record_failure(
                                        metrics_in_worker.as_ref(),
                                        &events_in_worker,
                                        batch,
                                        IngestEvent::RefitDiverged { batch },
                                    );
                                    continue;
                                }
                                let entities = fit.u.len();
                                let mut now = meta.clone();
                                reconcile_labels(&mut now, entities);
                                let version = registry
                                    .publish_arc(&meta.name, ServedModel::from_parts(now, fit));
                                if let Some(m) = &metrics_in_worker {
                                    m.append_ns.record_duration(t_batch.elapsed());
                                }
                                record_event(
                                    &events_in_worker,
                                    IngestEvent::Published {
                                        batch,
                                        version: version.version,
                                        entities,
                                    },
                                );
                                // Indexing happens off this thread too: the
                                // publish above already made the version
                                // servable (exact scan), the enqueue just
                                // upgrades it to indexed when the build
                                // lands.
                                if let Some(builder) = &indexer_in_worker {
                                    builder.enqueue(version);
                                }
                            }
                            // An append error, or a refit error (unreachable
                            // after a successful non-empty append, but it
                            // must never kill the worker either).
                            Err(e) => record_failure(
                                metrics_in_worker.as_ref(),
                                &events_in_worker,
                                batch,
                                IngestEvent::AppendFailed { batch, error: e.to_string() },
                            ),
                        }
                    }
                    Msg::Flush(ack) => {
                        // Receiving the barrier means everything before it
                        // was processed; the ack may race a dropped flusher.
                        let _ = ack.send(());
                    }
                    Msg::Shutdown => break,
                }
            }
        });
        IngestWorker { tx, handle: Some(handle), events, metrics, cancel, indexer }
    }

    /// Requests cooperative cancellation of the current and all subsequent
    /// refits: each breaks at its next iteration boundary with
    /// [`StopReason::Cancelled`](dpar2_core::StopReason) and still
    /// publishes. Appends keep flowing; use this to bound refit latency
    /// ahead of a shutdown or failover. Irreversible for this worker.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Enqueues a batch of new slices and returns immediately. The worker
    /// will append, re-decompose, and publish a new model version.
    ///
    /// Returns `false` if the worker thread is gone (only after a panic —
    /// normal shutdown goes through [`IngestWorker::shutdown`]/`Drop`);
    /// the dropped batch is recorded as
    /// [`IngestEvent::WorkerUnavailable`], so even this failure leaves a
    /// trace in [`events`](IngestWorker::events).
    pub fn append(&self, slices: Vec<Mat>) -> bool {
        if let Some(m) = &self.metrics {
            m.queue_depth.add(1);
        }
        if self.tx.send(Msg::Append(slices)).is_ok() {
            return true;
        }
        if let Some(m) = &self.metrics {
            m.queue_depth.sub(1);
        }
        record_event(&self.events, IngestEvent::WorkerUnavailable);
        false
    }

    /// Blocks until every batch enqueued before this call has been
    /// processed (published or recorded as an error). Index builds keep
    /// running in the background — use
    /// [`flush_indexes`](IngestWorker::flush_indexes) to barrier on those
    /// too.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = channel::unbounded::<()>();
        if self.tx.send(Msg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// [`flush`](IngestWorker::flush), then additionally blocks until the
    /// index of every version published so far is installed (no-op beyond
    /// the plain flush for workers spawned without indexing). Tests and
    /// drain-before-snapshot callers use this; serving paths never need
    /// it — queries fall back to the exact scan until a build lands.
    pub fn flush_indexes(&self) {
        self.flush();
        if let Some(builder) = &self.indexer {
            builder.flush();
        }
    }

    /// Every [`IngestEvent`] so far, in arrival order — publishes, append
    /// failures, diverged refits, and batches dropped because the worker
    /// was gone.
    pub fn events(&self) -> Vec<IngestEvent> {
        self.events.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Messages of batches that published nothing, in arrival order — the
    /// [`IngestEvent::AppendFailed`] and [`IngestEvent::RefitDiverged`]
    /// subset of [`events`](IngestWorker::events), one entry per bump of
    /// the `errors_total` counter. Successful batches leave no trace here.
    pub fn errors(&self) -> Vec<String> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .filter_map(|e| match e {
                IngestEvent::AppendFailed { error, .. } => Some(error.clone()),
                IngestEvent::RefitDiverged { batch } => {
                    Some(format!("batch {batch}: refit diverged; batch rolled back"))
                }
                _ => None,
            })
            .collect()
    }

    /// Drains pending work, then stops and joins the worker thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // Cancel first so an in-flight refit (and any queued batches
            // drained before the Shutdown message) cannot block the join
            // for a full ALS run — a publish never blocks a shutdown.
            self.cancel.cancel();
            let _ = self.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for IngestWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_core::{FitOptions, StopReason};
    use dpar2_data::planted_parafac2;
    use std::time::Duration;

    fn config() -> FitOptions<'static> {
        FitOptions::new(2).with_seed(11).with_max_iterations(8)
    }

    #[test]
    fn appends_publish_new_versions() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(config()),
            ModelMeta::new("live").with_dataset("planted"),
            registry.clone(),
        );
        let t = planted_parafac2(&[20, 20, 20, 20], 10, 2, 0.05, 3);
        assert!(worker.append(t.to_slices()[..2].to_vec()));
        worker.flush();
        assert_eq!(registry.version("live"), Some(1));
        assert_eq!(registry.get("live").unwrap().model.entities(), 2);

        assert!(worker.append(t.to_slices()[2..].to_vec()));
        worker.flush();
        assert_eq!(registry.version("live"), Some(2));
        assert_eq!(registry.get("live").unwrap().model.entities(), 4);
        assert!(worker.errors().is_empty());
        worker.shutdown();
    }

    #[test]
    fn refits_honor_a_time_budget_with_typed_stop_reason() {
        // A zero budget stops every refit after its first iteration — the
        // deadline-bounded publish path: the model still publishes, and the
        // typed reason is visible on the served fit.
        let registry = Arc::new(ModelRegistry::new());
        let opts = config().with_tolerance(0.0).with_time_budget(Duration::ZERO);
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(opts),
            ModelMeta::new("budgeted"),
            registry.clone(),
        );
        let t = planted_parafac2(&[20, 20, 20], 10, 2, 0.3, 41);
        assert!(worker.append(t.to_slices()));
        worker.flush();
        let served = registry.get("budgeted").unwrap();
        let fit = served.model.fit();
        assert_eq!(fit.stop_reason, StopReason::TimeBudget);
        assert_eq!(fit.iterations, 1);
        worker.shutdown();
    }

    #[test]
    fn cancellation_bounds_refits_but_still_publishes() {
        let registry = Arc::new(ModelRegistry::new());
        let opts = config().with_tolerance(0.0).with_max_iterations(32);
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(opts),
            ModelMeta::new("cancelled"),
            registry.clone(),
        );
        let t = planted_parafac2(&[20, 20, 20, 20], 10, 2, 0.3, 42);
        // Cancel before the batch: the refit breaks at its first iteration
        // boundary with a typed reason, and the publish still happens.
        worker.cancel();
        assert!(worker.append(t.to_slices()));
        worker.flush();
        let served = registry.get("cancelled").unwrap();
        let fit = served.model.fit();
        assert_eq!(fit.stop_reason, StopReason::Cancelled);
        assert_eq!(fit.iterations, 1);
        assert_eq!(registry.version("cancelled"), Some(1));
        worker.shutdown();
    }

    #[test]
    fn bad_batch_is_recorded_not_fatal() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(config()),
            ModelMeta::new("live"),
            registry.clone(),
        );
        let t = planted_parafac2(&[16, 16], 10, 2, 0.0, 4);
        worker.append(t.to_slices());
        // Wrong column count: append fails, worker keeps running.
        worker.append(vec![Mat::zeros(12, 7)]);
        worker.flush();
        assert_eq!(registry.version("live"), Some(1), "bad batch must not publish");
        let errors = worker.errors();
        assert_eq!(errors.len(), 1);
        // The worker is still alive and can publish after the failure.
        let more = planted_parafac2(&[14, 18, 16], 10, 2, 0.0, 4);
        worker.append(vec![more.slice(2).to_mat()]);
        worker.flush();
        assert_eq!(registry.version("live"), Some(2));
        worker.shutdown();
    }

    #[test]
    fn non_finite_batch_is_recorded_and_the_next_batch_publishes() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(config()),
            ModelMeta::new("live"),
            registry.clone(),
        );
        let t = planted_parafac2(&[16, 16, 16], 10, 2, 0.0, 15);
        let mut slices = t.to_slices();
        let mut poisoned = slices[2].clone();
        poisoned.set(5, 5, f64::NAN);
        worker.append(slices.drain(..2).collect());
        worker.append(vec![poisoned]);
        worker.append(slices);
        worker.flush();
        let events = worker.events();
        assert_eq!(events.len(), 3, "got {events:?}");
        assert!(matches!(events[0], IngestEvent::Published { batch: 1, version: 1, .. }));
        assert!(
            matches!(&events[1], IngestEvent::AppendFailed { batch: 2, error }
                if error.contains("non-finite")),
            "got {:?}",
            events[1]
        );
        assert!(
            matches!(events[2], IngestEvent::Published { batch: 3, version: 2, entities: 3 }),
            "got {:?}",
            events[2]
        );
        assert_eq!(registry.version("live"), Some(2));
        worker.shutdown();
    }

    #[test]
    fn diverged_refit_is_recorded_and_not_published() {
        use dpar2_obs::MetricsRegistry;

        let obs = MetricsRegistry::new();
        let metrics = crate::metrics::IngestMetrics::register(&obs, "ing");
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn_observed(
            StreamingDpar2::new(config()),
            ModelMeta::new("live"),
            registry.clone(),
            metrics,
        );
        let t = planted_parafac2(&[16, 16, 16], 10, 2, 0.0, 16);
        let mut slices = t.to_slices();
        // Finite, so it passes validation, but its products overflow.
        let mut huge = slices.pop().unwrap();
        huge.scale_mut(1e300);
        worker.append(slices);
        worker.flush();
        let served = registry.get("live").unwrap();
        worker.append(vec![huge]);
        worker.flush();
        assert_eq!(registry.version("live"), Some(1), "a diverged refit must not publish");
        let still = registry.get("live").unwrap();
        assert!(Arc::ptr_eq(&served, &still), "the previous version stays served");
        assert!(still.model.fit().criterion_trace.iter().all(|c| c.is_finite()));
        let events = worker.events();
        assert_eq!(events.len(), 2, "got {events:?}");
        assert_eq!(events[1], IngestEvent::RefitDiverged { batch: 2 });
        assert_eq!(worker.errors().len(), 1, "errors() agrees with errors_total");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("ing_errors_total"), Some(1));
        assert_eq!(snap.gauge("ing_last_error_batch"), Some(2));
        assert_eq!(snap.histogram("ing_refit_ns").unwrap().count, 2, "diverged refits are timed");
        // The diverged batch was rolled back, so it does not poison the
        // stream: the next good batch publishes over the two original
        // slices and itself, without the overflowing one.
        let more = planted_parafac2(&[16], 10, 2, 0.0, 17);
        assert!(worker.append(more.to_slices()));
        worker.flush();
        assert_eq!(
            worker.events()[2],
            IngestEvent::Published { batch: 3, version: 2, entities: 3 },
            "the stream recovers after a diverged batch"
        );
        worker.shutdown();
    }

    #[test]
    fn degenerate_batches_never_kill_the_worker() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(config()),
            ModelMeta::new("live"),
            registry.clone(),
        );
        // Empty batch on a fresh stream: nothing to decompose or publish.
        worker.append(vec![]);
        worker.flush();
        assert_eq!(registry.version("live"), None);
        // Mixed column counts *within* one batch: rejected as an error.
        worker.append(vec![Mat::zeros(8, 5), Mat::zeros(8, 6)]);
        worker.flush();
        assert_eq!(worker.errors().len(), 1);
        // The worker is still alive and serves the next good batch.
        let t = planted_parafac2(&[16, 16], 10, 2, 0.0, 6);
        assert!(worker.append(t.to_slices()));
        worker.flush();
        assert_eq!(registry.version("live"), Some(1));
        // An empty batch *after* data: still a no-op — no refit, no
        // version bump (a spurious publish would cold-start the caches).
        worker.append(vec![]);
        worker.flush();
        assert_eq!(registry.version("live"), Some(1));
        worker.shutdown();
    }

    #[test]
    fn labels_extend_with_the_entity_count() {
        let registry = Arc::new(ModelRegistry::new());
        let t = planted_parafac2(&[14, 14, 14], 10, 2, 0.0, 7);
        let mut stream = StreamingDpar2::new(config());
        stream.append(t.to_slices()[..2].to_vec()).unwrap();
        let meta = ModelMeta::new("labeled").with_entity_labels(vec!["A".into(), "B".into()]);
        let worker = IngestWorker::spawn(stream, meta, registry.clone());
        worker.append(vec![t.slice(2).to_mat()]);
        worker.flush();
        let published = registry.get("labeled").unwrap();
        assert_eq!(published.model.entities(), 3);
        assert_eq!(published.model.label(0), Some("A"));
        assert_eq!(published.model.label(2), Some("entity-2"));
        // The invariant holds, so the published model is persistable.
        let saved = crate::model::SavedModel::new(
            published.model.meta().clone(),
            published.model.fit().clone(),
        );
        assert!(saved.to_bytes().is_ok());
        worker.shutdown();
    }

    #[test]
    fn spawn_indexed_installs_an_index_per_publish() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn_indexed(
            StreamingDpar2::new(config()),
            ModelMeta::new("indexed"),
            registry.clone(),
            IndexOptions::default(),
            1,
        );
        let t = planted_parafac2(&[16, 16, 16, 16], 10, 2, 0.05, 8);
        worker.append(t.to_slices()[..2].to_vec());
        worker.append(t.to_slices()[2..].to_vec());
        worker.flush_indexes();
        let served = registry.get("indexed").unwrap();
        assert_eq!(served.version, 2);
        let set = served.index().expect("current version indexed after flush_indexes");
        assert_eq!(set.entities(), 4);
        // Indexed answers agree with the exact scan at full probe depth.
        let exact = served.model.top_k(0, 3).unwrap();
        let indexed = set.top_k(&served.model, 0, 3, set.num_partitions_for(0)).unwrap();
        assert_eq!(indexed, exact);
        assert!(worker.errors().is_empty());
        worker.shutdown();
    }

    #[test]
    fn plain_spawn_never_indexes_and_flush_indexes_is_safe() {
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn(
            StreamingDpar2::new(config()),
            ModelMeta::new("plain"),
            registry.clone(),
        );
        let t = planted_parafac2(&[16, 16], 10, 2, 0.0, 9);
        worker.append(t.to_slices());
        worker.flush_indexes();
        assert!(registry.get("plain").unwrap().index().is_none());
        worker.shutdown();
    }

    #[test]
    fn events_trace_publishes_and_failures_in_order() {
        let registry = Arc::new(ModelRegistry::new());
        let worker =
            IngestWorker::spawn(StreamingDpar2::new(config()), ModelMeta::new("traced"), registry);
        let t = planted_parafac2(&[16, 16], 10, 2, 0.0, 12);
        worker.append(t.to_slices());
        worker.append(vec![Mat::zeros(12, 7)]); // wrong column count
        worker.append(vec![]); // no-op: no event, no batch ordinal
        let more = planted_parafac2(&[14, 18], 10, 2, 0.0, 12);
        worker.append(vec![more.slice(1).to_mat()]);
        worker.flush();
        let events = worker.events();
        assert_eq!(events.len(), 3);
        assert!(
            matches!(events[0], IngestEvent::Published { batch: 1, version: 1, entities: 2 }),
            "got {:?}",
            events[0]
        );
        assert!(
            matches!(&events[1], IngestEvent::AppendFailed { batch: 2, .. }),
            "got {:?}",
            events[1]
        );
        assert!(
            matches!(events[2], IngestEvent::Published { batch: 3, version: 2, entities: 3 }),
            "got {:?}",
            events[2]
        );
        // errors() is exactly the AppendFailed projection.
        assert_eq!(worker.errors().len(), 1);
        worker.shutdown();
    }

    #[test]
    fn observed_worker_records_ingest_metrics() {
        use dpar2_obs::MetricsRegistry;

        let obs = MetricsRegistry::new();
        let metrics = crate::metrics::IngestMetrics::register(&obs, "ing");
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn_observed(
            StreamingDpar2::new(config()),
            ModelMeta::new("metered"),
            registry,
            metrics,
        );
        let t = planted_parafac2(&[16, 16], 10, 2, 0.0, 13);
        worker.append(t.to_slices());
        worker.append(vec![Mat::zeros(12, 7)]); // fails: wrong column count
        worker.flush();
        let snap = obs.snapshot();
        assert_eq!(snap.counter("ing_appends_total"), Some(2));
        assert_eq!(snap.counter("ing_errors_total"), Some(1));
        assert_eq!(snap.gauge("ing_last_error_batch"), Some(2));
        assert_eq!(snap.gauge("ing_queue_depth"), Some(0), "drained queue reads zero");
        let append = snap.histogram("ing_append_ns").unwrap();
        assert_eq!(append.count, 1, "only the published batch records latency");
        let refit = snap.histogram("ing_refit_ns").unwrap();
        assert_eq!(refit.count, 1);
        assert!(refit.max <= append.max, "refit is a sub-span of the batch");
        worker.shutdown();
    }

    #[test]
    fn observed_indexed_worker_records_staleness() {
        use dpar2_obs::MetricsRegistry;

        let obs = MetricsRegistry::new();
        let metrics = crate::metrics::IngestMetrics::register(&obs, "ing");
        let registry = Arc::new(ModelRegistry::new());
        let worker = IngestWorker::spawn_indexed_observed(
            StreamingDpar2::new(config()),
            ModelMeta::new("stale"),
            registry.clone(),
            IndexOptions::default(),
            1,
            metrics,
        );
        let t = planted_parafac2(&[16, 16, 16, 16], 10, 2, 0.05, 14);
        worker.append(t.to_slices()[..2].to_vec());
        worker.append(t.to_slices()[2..].to_vec());
        worker.flush_indexes();
        assert!(registry.get("stale").unwrap().index().is_some());
        let staleness = obs.snapshot().histogram("ing_staleness_ns").unwrap().clone();
        // Both publishes were indexed (no coalescing pressure at this
        // pace is not guaranteed, so at least the surviving newest one).
        assert!(staleness.count >= 1, "publish→index-ready window must be recorded");
        assert!(staleness.min > 0, "the window is a real elapsed duration");
        worker.shutdown();
    }

    #[test]
    fn drop_joins_cleanly_with_pending_work() {
        let registry = Arc::new(ModelRegistry::new());
        let t = planted_parafac2(&[18, 18], 9, 2, 0.0, 5);
        {
            let worker = IngestWorker::spawn(
                StreamingDpar2::new(config()),
                ModelMeta::new("drop-test"),
                registry.clone(),
            );
            worker.append(t.to_slices());
            // No flush: Drop must still drain and join without deadlock.
        }
        assert_eq!(registry.version("drop-test"), Some(1));
    }
}
