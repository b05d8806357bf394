//! Pre-registered `dpar2-obs` handle bundles for the serve stack.
//!
//! One [`ServeMetrics`] covers the whole online half: the query engine's
//! per-path latency histograms and cache/pruning counters
//! ([`QueryMetrics`]), the ingest worker's append/refit/staleness
//! instrumentation ([`IngestMetrics`]), and the engine thread pool's
//! [`dpar2_parallel::PoolMetrics`]. Registration happens once (it
//! allocates metric names); every record on the query path afterwards is a
//! handful of relaxed atomic ops — the steady-state query stays
//! allocation-free with metrics attached (pinned by the root
//! `alloc_regression` suite).

use dpar2_analysis::SearchStats;
use dpar2_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use dpar2_parallel::PoolMetrics;

/// Query-engine handles, registered under `{prefix}_…`:
///
/// * `{prefix}_queries_total` — answered queries (errors not counted).
/// * `{prefix}_cache_hits_total` / `{prefix}_cache_misses_total` — result
///   cache outcome per answered query.
/// * `{prefix}_latency_cache_hit_ns` / `…_indexed_ns` / `…_exact_ns` —
///   end-to-end latency split by how the answer was produced (a cache hit
///   is its own class regardless of the path that originally computed it).
/// * `{prefix}_partitions_probed_total` / `{prefix}_partitions_total` and
///   `{prefix}_candidates_scanned_total` / `{prefix}_candidates_total` —
///   pruning efficiency of indexed answers: each indexed query adds its
///   probe work to `…_probed`/`…_scanned` and the full-scan equivalent to
///   the `…_total` pair, so `1 − scanned/total` is the fraction of work
///   the index pruned away.
#[derive(Debug, Clone)]
pub struct QueryMetrics {
    /// Answered queries.
    pub queries_total: Counter,
    /// Queries answered from the result cache.
    pub cache_hits: Counter,
    /// Queries that had to compute.
    pub cache_misses: Counter,
    /// Latency of cache-hit answers (ns).
    pub latency_cache_hit_ns: Histogram,
    /// Latency of computed indexed answers (ns).
    pub latency_indexed_ns: Histogram,
    /// Latency of computed exact-scan answers (ns), including indexed
    /// requests that fell back while the build was in flight.
    pub latency_exact_ns: Histogram,
    /// Partitions scanned by indexed answers.
    pub partitions_probed: Counter,
    /// Partitions those answers would scan unpruned.
    pub partitions_total: Counter,
    /// Candidate rows scored by indexed answers.
    pub candidates_scanned: Counter,
    /// Candidate rows the exact scan would score.
    pub candidates_total: Counter,
}

impl QueryMetrics {
    /// Registers (or looks up) the bundle in `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> QueryMetrics {
        QueryMetrics {
            queries_total: registry.counter(&format!("{prefix}_queries_total")),
            cache_hits: registry.counter(&format!("{prefix}_cache_hits_total")),
            cache_misses: registry.counter(&format!("{prefix}_cache_misses_total")),
            latency_cache_hit_ns: registry.histogram(&format!("{prefix}_latency_cache_hit_ns")),
            latency_indexed_ns: registry.histogram(&format!("{prefix}_latency_indexed_ns")),
            latency_exact_ns: registry.histogram(&format!("{prefix}_latency_exact_ns")),
            partitions_probed: registry.counter(&format!("{prefix}_partitions_probed_total")),
            partitions_total: registry.counter(&format!("{prefix}_partitions_total")),
            candidates_scanned: registry.counter(&format!("{prefix}_candidates_scanned_total")),
            candidates_total: registry.counter(&format!("{prefix}_candidates_total")),
        }
    }

    /// Folds one indexed answer's [`SearchStats`] into the pruning
    /// counters.
    pub fn record_search(&self, stats: &SearchStats) {
        self.partitions_probed.add(stats.partitions_probed as u64);
        self.partitions_total.add(stats.partitions_total as u64);
        self.candidates_scanned.add(stats.candidates_scanned as u64);
        self.candidates_total.add(stats.candidates_total as u64);
    }
}

/// Ingest-worker handles, registered under `{prefix}_…`:
///
/// * `{prefix}_appends_total` — batches processed (including failed ones).
/// * `{prefix}_append_ns` — drain-to-publish latency per non-empty batch.
/// * `{prefix}_refit_ns` — the refit (decompose) portion alone, diverged
///   refits included.
/// * `{prefix}_queue_depth` — batches enqueued but not yet drained.
/// * `{prefix}_errors_total` — batches whose append failed or whose
///   refit diverged (and so published nothing); each also leaves one
///   entry in [`IngestWorker::errors`](crate::IngestWorker::errors).
/// * `{prefix}_last_error_batch` — 1-based ordinal of the most recent
///   failed batch (0 = no failure yet), so a dashboard can tell *when* in
///   the stream the last failure happened.
/// * `{prefix}_staleness_ns` — publish→index-ready window per indexed
///   version (recorded by the
///   [`IndexBuilder`](crate::index::IndexBuilder) at install time).
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// Batches processed.
    pub appends_total: Counter,
    /// Drain-to-publish latency per non-empty batch (ns).
    pub append_ns: Histogram,
    /// Refit (decompose) duration per published or diverged batch (ns).
    pub refit_ns: Histogram,
    /// Batches enqueued but not yet drained.
    pub queue_depth: Gauge,
    /// Batches whose append failed or whose refit diverged.
    pub errors: Counter,
    /// 1-based ordinal of the most recent failed batch (0 = none).
    pub last_error_batch: Gauge,
    /// Publish→index-ready staleness per indexed version (ns).
    pub staleness_ns: Histogram,
}

impl IngestMetrics {
    /// Registers (or looks up) the bundle in `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> IngestMetrics {
        IngestMetrics {
            appends_total: registry.counter(&format!("{prefix}_appends_total")),
            append_ns: registry.histogram(&format!("{prefix}_append_ns")),
            refit_ns: registry.histogram(&format!("{prefix}_refit_ns")),
            queue_depth: registry.gauge(&format!("{prefix}_queue_depth")),
            errors: registry.counter(&format!("{prefix}_errors_total")),
            last_error_batch: registry.gauge(&format!("{prefix}_last_error_batch")),
            staleness_ns: registry.histogram(&format!("{prefix}_staleness_ns")),
        }
    }
}

/// The whole serve stack's bundle: query engine + ingest worker + engine
/// thread pool, registered under the `serve_query_…` / `serve_ingest_…` /
/// `serve_pool_…` prefixes.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Query-engine handles (`serve_query_…`).
    pub query: QueryMetrics,
    /// Ingest-worker handles (`serve_ingest_…`).
    pub ingest: IngestMetrics,
    /// Engine thread-pool handles (`serve_pool_…`).
    pub pool: PoolMetrics,
}

impl ServeMetrics {
    /// Registers (or looks up) all serve-stack metrics in `registry`.
    pub fn register(registry: &MetricsRegistry) -> ServeMetrics {
        ServeMetrics {
            query: QueryMetrics::register(registry, "serve_query"),
            ingest: IngestMetrics::register(registry, "serve_ingest"),
            pool: PoolMetrics::register(registry, "serve_pool"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_per_registry() {
        let registry = MetricsRegistry::new();
        let a = ServeMetrics::register(&registry);
        let b = ServeMetrics::register(&registry);
        a.query.queries_total.inc();
        b.query.queries_total.inc();
        assert_eq!(a.query.queries_total.get(), 2, "same name must share one cell");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve_query_queries_total"), Some(2));
        assert_eq!(snap.gauge("serve_ingest_queue_depth"), Some(0));
        assert_eq!(snap.counter("serve_pool_tasks_total"), Some(0));
    }

    #[test]
    fn record_search_folds_all_four_counters() {
        let registry = MetricsRegistry::new();
        let m = QueryMetrics::register(&registry, "q");
        m.record_search(&SearchStats {
            partitions_total: 10,
            partitions_probed: 3,
            candidates_scanned: 40,
            candidates_total: 200,
        });
        m.record_search(&SearchStats {
            partitions_total: 10,
            partitions_probed: 2,
            candidates_scanned: 25,
            candidates_total: 200,
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("q_partitions_probed_total"), Some(5));
        assert_eq!(snap.counter("q_partitions_total"), Some(20));
        assert_eq!(snap.counter("q_candidates_scanned_total"), Some(65));
        assert_eq!(snap.counter("q_candidates_total"), Some(400));
    }
}
