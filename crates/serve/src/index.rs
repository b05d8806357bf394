//! Serving-side wrapper of the pruned top-k index, plus the off-thread
//! builder that keeps published versions indexed.
//!
//! A [`ServedModel`] can hold entities of several factor shapes, and Eq. 10
//! only compares equal shapes (§IV-E2) — so one
//! [`dpar2_analysis::EmbeddingIndex`] per shape group, bundled as a
//! [`ModelIndexSet`]. Group-local row ids are assigned in ascending entity
//! order, which makes the local→entity mapping strictly monotone: the
//! index's `(similarity desc, local id asc)` ranking maps verbatim onto the
//! exact engine's `(similarity desc, entity id asc)` ranking, preserving
//! the bitwise-exactness contract end to end.
//!
//! [`IndexBuilder`] is the incremental half: a dedicated thread that
//! receives freshly published [`ModelVersion`]s, builds their index sets,
//! and installs them via [`ModelVersion::install_index`]. Publishes never
//! wait on a build, and queries against a version whose build is still in
//! flight silently use the exact scan — correct answers always, faster
//! answers as soon as the index lands. When several versions of one model
//! queue up faster than they can be indexed (a busy ingest stream), the
//! builder coalesces: only the newest queued version of each name is
//! built, because the older ones can no longer be served from the registry
//! anyway.

use crate::engine::ServedModel;
use crate::error::{Result, ServeError};
use crate::registry::ModelVersion;
use dpar2_analysis::{EmbeddingIndex, IndexOptions, SearchStats};
use dpar2_linalg::MatRef;
use dpar2_obs::Histogram;
use dpar2_parallel::ThreadPool;
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-shape-group pruned index over a [`ServedModel`]'s factor
/// embeddings.
#[derive(Debug, Clone)]
pub struct ModelIndexSet {
    groups: Vec<IndexedGroup>,
    /// `entity → (group, local row within the group)`.
    membership: Vec<(u32, u32)>,
}

#[derive(Debug, Clone)]
struct IndexedGroup {
    /// Group-local row id → entity id, strictly ascending.
    entities: Vec<u32>,
    index: EmbeddingIndex,
}

impl ModelIndexSet {
    /// Builds the index set for `model`. Deterministic for every thread
    /// count of `pool` (inherits the partitioner's guarantee).
    ///
    /// # Panics
    /// Panics if the model has more than `u32::MAX` entities.
    pub fn build(model: &ServedModel, options: &IndexOptions, pool: &ThreadPool) -> Self {
        let fit = model.fit();
        let n = fit.u.len();
        assert!(u32::try_from(n).is_ok(), "ModelIndexSet: too many entities for u32 ids");
        // BTreeMap: deterministic group order; entity ids within a group
        // arrive ascending because the scan below is ascending.
        let mut by_shape: BTreeMap<(usize, usize), Vec<u32>> = BTreeMap::new();
        for (i, u) in fit.u.iter().enumerate() {
            #[allow(clippy::cast_possible_truncation)] // n ≤ u32::MAX asserted above
            by_shape.entry(u.shape()).or_default().push(i as u32);
        }
        let mut membership = vec![(0u32, 0u32); n];
        let mut groups = Vec::with_capacity(by_shape.len());
        for (g, ((rows, cols), entities)) in by_shape.into_iter().enumerate() {
            let dim = rows * cols;
            let mut data = Vec::with_capacity(entities.len() * dim);
            for (local, &e) in entities.iter().enumerate() {
                #[allow(clippy::cast_possible_truncation)] // bounded by n and by_shape sizes
                {
                    membership[e as usize] = (g as u32, local as u32);
                }
                // Verbatim copy of the factor buffer: the index scores the
                // same bytes in the same order as the exact path.
                data.extend_from_slice(fit.u[e as usize].data());
            }
            let points = MatRef::from_slice(entities.len(), dim, &data);
            groups.push(IndexedGroup {
                entities,
                index: EmbeddingIndex::build(points, options, pool),
            });
        }
        ModelIndexSet { groups, membership }
    }

    /// Number of entities covered (must equal the model's entity count —
    /// the set is stored on the version it was built from).
    pub fn entities(&self) -> usize {
        self.membership.len()
    }

    /// Number of shape groups (= underlying indexes).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Partition count of `target`'s shape group — probing this many is
    /// bitwise-exact for queries about `target`.
    pub fn num_partitions_for(&self, target: usize) -> Option<usize> {
        let &(g, _) = self.membership.get(target)?;
        Some(self.groups[g as usize].index.num_partitions())
    }

    /// The `k` entities most similar to `target`, probing `nprobe`
    /// partitions of its shape group (`None` ⇒ the group's default).
    /// Matches [`ServedModel::top_k`] semantics: candidates share the
    /// target's shape, the ranking is `(similarity desc, entity asc)`, and
    /// `nprobe ≥` the group's partition count reproduces the exact answer
    /// bitwise.
    ///
    /// # Errors
    /// [`ServeError::EntityOutOfRange`] exactly when the exact path errors.
    pub fn top_k(
        &self,
        model: &ServedModel,
        target: usize,
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<Vec<(usize, f64)>> {
        Ok(self.top_k_with_stats(model, target, k, nprobe)?.0)
    }

    /// [`top_k`](ModelIndexSet::top_k) additionally returning the probe's
    /// work counters ([`SearchStats`], scoped to the target's shape group)
    /// — what the query engine folds into its pruning-efficiency metrics.
    ///
    /// # Errors
    /// As [`top_k`](ModelIndexSet::top_k).
    pub fn top_k_with_stats(
        &self,
        model: &ServedModel,
        target: usize,
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<(Vec<(usize, f64)>, SearchStats)> {
        let n = model.entities();
        debug_assert_eq!(n, self.entities(), "index set used with a different model");
        if target >= n {
            return Err(ServeError::EntityOutOfRange { entity: target, count: n });
        }
        let (g, local) = self.membership[target];
        let group = &self.groups[g as usize];
        let nprobe = nprobe.unwrap_or_else(|| group.index.default_nprobe());
        let query = model.fit().u[target].data();
        let (hits, stats) = group.index.top_k_similar_with_stats(
            query,
            model.meta().gamma,
            k,
            nprobe,
            Some(local as usize),
        );
        // Monotone local→entity mapping keeps the ranking's tie-break
        // order intact.
        Ok((
            hits.into_iter().map(|(local, sim)| (group.entities[local] as usize, sim)).collect(),
            stats,
        ))
    }
}

/// Builds `version`'s index synchronously and installs it. Returns `false`
/// if the version already had one. The blocking counterpart of
/// [`IndexBuilder`] for offline callers and tests.
pub fn build_and_install(
    version: &ModelVersion,
    options: &IndexOptions,
    pool: &ThreadPool,
) -> bool {
    if version.index().is_some() {
        return false;
    }
    version.install_index(ModelIndexSet::build(&version.model, options, pool))
}

enum Job {
    Build(Arc<ModelVersion>),
    /// Barrier: acknowledged once every earlier job is processed.
    Flush(Sender<()>),
    Shutdown,
}

/// Dedicated index-build thread (see the module docs).
///
/// Dropping the handle finishes the queued builds, then joins the thread.
#[derive(Debug)]
pub struct IndexBuilder {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

impl IndexBuilder {
    /// Spawns the builder thread with its own `threads`-wide GEMM pool.
    pub fn spawn(options: IndexOptions, threads: usize) -> Self {
        Self::spawn_inner(options, threads, None)
    }

    /// [`spawn`](IndexBuilder::spawn) that additionally records the
    /// publish→index-ready staleness window of every version it installs
    /// into `staleness_ns` (measured from
    /// [`ModelVersion::published_at`] to the moment the index becomes
    /// visible to queries).
    pub fn spawn_observed(options: IndexOptions, threads: usize, staleness_ns: Histogram) -> Self {
        Self::spawn_inner(options, threads, Some(staleness_ns))
    }

    fn spawn_inner(options: IndexOptions, threads: usize, staleness_ns: Option<Histogram>) -> Self {
        let (tx, rx) = mpsc::channel::<Job>();
        let handle = std::thread::spawn(move || {
            let pool = ThreadPool::new(threads.max(1));
            while let Ok(first) = rx.recv() {
                // Coalesce the backlog: drain whatever queued up during
                // the last build, then build only the newest version per
                // model name (older ones were already replaced in the
                // registry — their index could never be queried).
                let mut batch = vec![first];
                while let Ok(more) = rx.try_recv() {
                    batch.push(more);
                }
                let mut newest: HashMap<String, usize> = HashMap::new();
                for (i, job) in batch.iter().enumerate() {
                    if let Job::Build(version) = job {
                        newest.insert(version.name.clone(), i);
                    }
                }
                for (i, job) in batch.into_iter().enumerate() {
                    match job {
                        Job::Build(version) => {
                            if newest.get(&version.name) == Some(&i) {
                                let installed = build_and_install(&version, &options, &pool);
                                if installed {
                                    if let Some(hist) = &staleness_ns {
                                        hist.record_duration(version.published_at.elapsed());
                                    }
                                }
                            }
                        }
                        // A flush drained behind builds acks only after
                        // they completed — the barrier callers expect.
                        Job::Flush(ack) => {
                            let _ = ack.send(());
                        }
                        Job::Shutdown => return,
                    }
                }
            }
        });
        IndexBuilder { tx, handle: Some(handle) }
    }

    /// Enqueues a freshly published version for indexing and returns
    /// immediately. Returns `false` if the builder thread is gone (only
    /// after a panic — normal shutdown goes through
    /// [`IndexBuilder::shutdown`]/`Drop`).
    pub fn enqueue(&self, version: Arc<ModelVersion>) -> bool {
        self.tx.send(Job::Build(version)).is_ok()
    }

    /// Blocks until every build enqueued before this call has completed
    /// (or been coalesced away by a newer version of the same model).
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = mpsc::channel::<()>();
        if self.tx.send(Job::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Finishes queued builds, then stops and joins the builder thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(Job::Shutdown);
            let _ = handle.join();
        }
    }
}

impl Drop for IndexBuilder {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelMeta;
    use crate::registry::ModelRegistry;
    use dpar2_core::{Parafac2Fit, StopReason, TimingBreakdown};
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_linalg::Mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_with_shapes(shapes: &[(usize, usize)], seed: u64, gamma: f64) -> ServedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let u: Vec<Mat> = shapes.iter().map(|&(r, c)| gaussian_mat(r, c, &mut rng)).collect();
        let r = shapes.first().map_or(1, |&(_, c)| c);
        let fit = Parafac2Fit {
            s: vec![vec![1.0; r]; shapes.len()],
            v: gaussian_mat(5, r, &mut rng),
            h: gaussian_mat(r, r, &mut rng),
            u,
            iterations: 0,
            criterion_trace: vec![],
            stop_reason: StopReason::Converged,
            timing: TimingBreakdown::default(),
        };
        ServedModel::from_parts(ModelMeta::new("idx").with_gamma(gamma), fit)
    }

    #[test]
    fn full_probe_matches_exact_engine_bitwise() {
        let shapes: Vec<(usize, usize)> = (0..60).map(|_| (9, 3)).collect();
        let model = model_with_shapes(&shapes, 61, 0.05);
        let pool = ThreadPool::new(2);
        let set = ModelIndexSet::build(&model, &IndexOptions::default(), &pool);
        for target in [0usize, 17, 59] {
            let exact = model.top_k(target, 8).unwrap();
            let nprobe = set.num_partitions_for(target);
            let indexed = set.top_k(&model, target, 8, nprobe).unwrap();
            assert_eq!(indexed, exact, "target {target}");
        }
    }

    #[test]
    fn mixed_shapes_keep_group_discipline() {
        // Entities 0,2,4 share one shape; 1,3 another — interleaved so the
        // local→entity mapping is exercised.
        let shapes = [(8, 2), (5, 2), (8, 2), (5, 2), (8, 2)];
        let model = model_with_shapes(&shapes, 62, 0.02);
        let pool = ThreadPool::new(1);
        let set = ModelIndexSet::build(&model, &IndexOptions::default(), &pool);
        assert_eq!(set.num_groups(), 2);
        assert_eq!(set.entities(), 5);
        for target in 0..5 {
            let exact = model.top_k(target, 10).unwrap();
            let indexed = set.top_k(&model, target, 10, set.num_partitions_for(target)).unwrap();
            assert_eq!(indexed, exact, "target {target}");
        }
    }

    #[test]
    fn out_of_range_matches_exact_error() {
        let model = model_with_shapes(&[(6, 2); 4], 63, 0.01);
        let pool = ThreadPool::new(1);
        let set = ModelIndexSet::build(&model, &IndexOptions::default(), &pool);
        assert!(matches!(
            set.top_k(&model, 4, 2, None),
            Err(ServeError::EntityOutOfRange { entity: 4, count: 4 })
        ));
        assert!(set.num_partitions_for(4).is_none());
    }

    #[test]
    fn builder_installs_index_and_flush_barriers() {
        let registry = Arc::new(ModelRegistry::new());
        let version = registry.publish_arc("m", model_with_shapes(&[(7, 2); 30], 64, 0.03));
        assert!(version.index().is_none(), "publish must not block on indexing");
        let builder = IndexBuilder::spawn(IndexOptions::default(), 1);
        assert!(builder.enqueue(Arc::clone(&version)));
        builder.flush();
        let set = version.index().expect("index installed after flush");
        assert_eq!(set.entities(), 30);
        builder.shutdown();
    }

    #[test]
    fn builder_coalesces_but_newest_version_always_indexed() {
        let registry = Arc::new(ModelRegistry::new());
        let builder = IndexBuilder::spawn(IndexOptions::default(), 1);
        let mut versions = Vec::new();
        for seed in 0..6 {
            let v = registry.publish_arc("hot", model_with_shapes(&[(6, 2); 20], seed, 0.02));
            builder.enqueue(Arc::clone(&v));
            versions.push(v);
        }
        builder.flush();
        assert!(
            versions.last().unwrap().index().is_some(),
            "the registry's current version must end up indexed"
        );
        builder.shutdown();
    }

    #[test]
    fn double_install_keeps_the_first() {
        let registry = Arc::new(ModelRegistry::new());
        let version = registry.publish_arc("m", model_with_shapes(&[(6, 2); 10], 65, 0.02));
        let pool = ThreadPool::new(1);
        assert!(build_and_install(&version, &IndexOptions::default(), &pool));
        assert!(!build_and_install(&version, &IndexOptions::default(), &pool));
    }

    #[test]
    fn drop_finishes_queued_builds() {
        let registry = Arc::new(ModelRegistry::new());
        let version = registry.publish_arc("m", model_with_shapes(&[(6, 2); 25], 66, 0.02));
        {
            let builder = IndexBuilder::spawn(IndexOptions::default(), 1);
            builder.enqueue(Arc::clone(&version));
            // No flush: Drop must drain and join without deadlock.
        }
        assert!(version.index().is_some());
    }
}
