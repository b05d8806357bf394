//! Minimal scoped thread pool: every fan-out is written once, over one
//! spawn site.
//!
//! DPar2 parallelizes two kinds of work (§III-F):
//!
//! 1. the stage-1 compression, where slices are assigned to threads by
//!    [`crate::greedy_partition`] because costs are proportional to `I_k`;
//! 2. the per-iteration `R×R` SVDs and Lemma 1–3 accumulations, where work
//!    per slice is uniform and a static chunking suffices.
//!
//! [`ThreadPool::for_each_partitioned`] covers the first case,
//! [`ThreadPool::for_each_with`] the second, and
//! [`ThreadPool::for_each_chunk_mut`] and [`ThreadPool::map`] are short
//! forms of the second. All four deal their items to workers by a fixed
//! static plan and run through one private routine. Workers write
//! disjoint slots the caller sized in advance, each with its own scratch,
//! so no result travels through a channel or gets sorted back into order.
//! One body serves every pool size: a one-thread pool (or a single busy
//! worker) runs it inline on the calling thread and allocates nothing.

use dpar2_obs::{Counter, MetricsRegistry};
use std::time::Instant;

/// Telemetry handles for a [`ThreadPool`]: how many work items it ran and
/// how long its workers were busy, accumulated across every fan-out. Both
/// are monotone counters, so rates and utilization fall out of snapshot
/// deltas. Recording is lock-free and allocation-free.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Work items executed (one per item/chunk, across all calls).
    pub tasks: Counter,
    /// Cumulative worker busy time in nanoseconds (sums across workers, so
    /// it can exceed wall clock on a multi-threaded pool).
    pub busy_ns: Counter,
}

impl PoolMetrics {
    /// Registers `{prefix}_tasks_total` and `{prefix}_busy_ns_total` in
    /// `registry`.
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> PoolMetrics {
        PoolMetrics {
            tasks: registry.counter(&format!("{prefix}_tasks_total")),
            busy_ns: registry.counter(&format!("{prefix}_busy_ns_total")),
        }
    }
}

/// A lightweight parallel executor with a fixed thread count.
///
/// Threads are spawned per call inside one `std::thread::scope` —
/// for the granularity of PARAFAC2 work items (matrix factorizations),
/// spawn overhead is negligible, and scoping lets closures borrow from the
/// caller's stack without `'static` bounds.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
    metrics: Option<PoolMetrics>,
}

/// One worker's share of a fan-out: its `(item index, item)` pairs in
/// ascending index order.
pub type Bucket<'b, I> = dyn Iterator<Item = (usize, I)> + 'b;

/// How the private fan-out deals items to workers. Every plan is static —
/// which worker runs an item never depends on timing — and items are
/// independent, so results are the same for every pool size.
#[derive(Clone, Copy)]
enum Plan<'p> {
    /// Item `i` to worker `i % workers` (uniform chunks).
    RoundRobin,
    /// One contiguous run of `⌈n / threads⌉` items per worker.
    Runs,
    /// The caller's buckets, one worker each.
    Buckets(&'p [Vec<usize>]),
}

impl ThreadPool {
    /// Creates a pool configuration with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "ThreadPool: need at least one thread");
        ThreadPool { threads, metrics: None }
    }

    /// Attaches telemetry: every subsequent call records its item count
    /// and worker busy time into `metrics`. Without this the pool is
    /// entirely uninstrumented (no clocks read on the work path).
    pub fn with_metrics(mut self, metrics: PoolMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(bucket, &mut scratch[b])` once for every bucket `b` of
    /// `partition` (one worker each), where `bucket` yields `(k, item k)`
    /// for the item indices `k` the bucket holds. The items are the
    /// caller's pre-sized result slots, typically `slots.iter_mut()`.
    ///
    /// `f` sees a whole bucket, not single items, so a worker can batch
    /// its items (stage 1 factors its slices in lane groups). A one-thread
    /// pool, or a partition with one non-empty bucket, runs all items in
    /// ascending order as one bucket on `scratch[0]`, inline and
    /// allocation-free.
    ///
    /// # Panics
    /// Panics if the partition does not cover the `items.len()` items
    /// exactly once (the threaded split catches every duplicate; the inline
    /// path checks the count and range), if `scratch` has fewer entries than
    /// the partition has buckets, or with a worker's own panic payload.
    pub fn for_each_partitioned<I, S, F>(
        &self,
        partition: &[Vec<usize>],
        items: impl ExactSizeIterator<Item = I>,
        scratch: &mut [S],
        f: F,
    ) where
        I: Send,
        S: Send,
        F: Fn(&mut Bucket<'_, I>, &mut S) + Sync,
    {
        self.fan_out(items, Plan::Buckets(partition), scratch, f);
    }

    /// Runs `f(i, item i, scratch)` for every item, dealing items
    /// round-robin over the pool's threads; each worker passes its own
    /// `scratch` entry (a one-thread pool uses `scratch[0]`, inline and
    /// allocation-free).
    ///
    /// Items are typically disjoint result slots (`slots.iter_mut()`,
    /// `data.chunks_mut(len)`), so workers write them without locks. The
    /// item boundaries are the caller's, never the thread count's, and
    /// each item is processed by exactly one call — so any per-item
    /// computation that is itself deterministic yields results that are
    /// bit-identical for every pool size.
    ///
    /// # Panics
    /// Panics if `scratch` has fewer entries than there are workers with
    /// items (`min(threads, items.len())`), or with a worker's own panic
    /// payload.
    pub fn for_each_with<I, S, F>(
        &self,
        items: impl ExactSizeIterator<Item = I>,
        scratch: &mut [S],
        f: F,
    ) where
        I: Send,
        S: Send,
        F: Fn(usize, I, &mut S) + Sync,
    {
        self.fan_out(items, Plan::RoundRobin, scratch, |bucket, s| {
            for (i, item) in bucket {
                f(i, item, s);
            }
        });
    }

    /// Splits `data` into disjoint consecutive chunks of `chunk_len`
    /// elements (the last chunk may be shorter) and runs `f(chunk_index,
    /// chunk)` on every chunk: [`ThreadPool::for_each_with`] without
    /// scratch. The blocked GEMM layer fans its row panels out this way.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0` (with non-empty data), or with a worker's
    /// own panic payload.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        assert!(chunk_len > 0, "for_each_chunk_mut: chunk_len must be positive");
        self.for_each_with(data.chunks_mut(chunk_len), &mut self.no_scratch(), |i, chunk, _| {
            f(i, chunk)
        });
    }

    /// Applies `f(index, item)` to every element of `items`, one contiguous
    /// run of items per thread; results in input order.
    ///
    /// # Panics
    /// Panics with a worker's own panic payload.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
        self.fan_out(out.iter_mut().zip(items), Plan::Runs, &mut self.no_scratch(), |run, _| {
            for (i, (slot, item)) in run {
                *slot = Some(f(i, item));
            }
        });
        out.into_iter().map(|r| r.expect("fan-out fills every slot")).collect()
    }

    /// One `()` scratch per thread, for fan-outs that need none (a
    /// zero-sized `Vec` never allocates).
    fn no_scratch(&self) -> Vec<()> {
        vec![(); self.threads]
    }

    /// The pool's one fan-out: deals the `n` items to workers by `plan`
    /// and runs `work(bucket, scratch)` once per worker with items,
    /// `bucket` yielding that worker's `(index, item)` pairs in ascending
    /// index order. With one busy worker (a one-thread pool, a single
    /// item) the whole range runs inline as one bucket on `scratch[0]`,
    /// allocation-free; otherwise each bucket gets its own scoped thread,
    /// and every worker is joined before the first worker panic is
    /// re-raised with its own payload.
    fn fan_out<I, S, W>(
        &self,
        items: impl ExactSizeIterator<Item = I>,
        plan: Plan<'_>,
        scratch: &mut [S],
        work: W,
    ) where
        I: Send,
        S: Send,
        W: Fn(&mut Bucket<'_, I>, &mut S) + Sync,
    {
        let n = items.len();
        if let Plan::Buckets(partition) = plan {
            check_cover(partition, n);
        }
        if n == 0 {
            return;
        }
        let metrics = self.metrics.as_ref();
        if let Some(m) = metrics {
            m.tasks.add(n as u64);
        }
        let one_busy = match plan {
            Plan::Buckets(partition) => partition.iter().filter(|b| !b.is_empty()).count() == 1,
            Plan::RoundRobin | Plan::Runs => n == 1,
        };
        if self.threads == 1 || one_busy {
            let busy = metrics.map(|_| Instant::now());
            work(&mut items.enumerate(), &mut scratch[0]);
            record_busy(metrics, busy);
            return;
        }

        let run = n.div_ceil(self.threads);
        let (workers, owner): (usize, Vec<usize>) = match plan {
            Plan::RoundRobin => (self.threads.min(n), (0..n).map(|i| i % self.threads).collect()),
            Plan::Runs => (n.div_ceil(run), (0..n).map(|i| i / run).collect()),
            Plan::Buckets(partition) => (partition.len(), owners(partition, n)),
        };
        assert!(
            scratch.len() >= workers,
            "fan-out: {} scratch entries for {workers} workers",
            scratch.len()
        );
        let mut buckets: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
        for ((i, item), &w) in items.enumerate().zip(&owner) {
            buckets[w].push((i, item));
        }
        let work = &work;
        let first_panic = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .zip(scratch)
                .filter(|(bucket, _)| !bucket.is_empty())
                .map(|(bucket, s)| {
                    scope.spawn(move || {
                        let busy = metrics.map(|_| Instant::now());
                        work(&mut bucket.into_iter(), s);
                        record_busy(metrics, busy);
                    })
                })
                .collect();
            // Join every worker before re-raising, keeping the first panic.
            handles.into_iter().map(|h| h.join()).fold(Ok(()), Result::and)
        });
        if let Err(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Checks that `partition` holds `n` item indices, all below `n` — with
/// the duplicate check in [`owners`], exactly-once coverage of `0..n`.
fn check_cover(partition: &[Vec<usize>], n: usize) {
    let total: usize = partition.iter().map(Vec::len).sum();
    assert_eq!(total, n, "partition did not cover all items exactly once");
    if let Some(k) = partition.iter().flatten().find(|&&k| k >= n) {
        panic!("partition contains duplicate or out-of-range index {k}");
    }
}

/// The bucket of every item of a partition of `0..n` that passed
/// [`check_cover`].
///
/// # Panics
/// Panics if an index appears twice.
fn owners(partition: &[Vec<usize>], n: usize) -> Vec<usize> {
    let mut owner = vec![usize::MAX; n];
    for (b, bucket) in partition.iter().enumerate() {
        for &k in bucket {
            assert!(
                owner[k] == usize::MAX,
                "partition contains duplicate or out-of-range index {k}"
            );
            owner[k] = b;
        }
    }
    owner
}

/// Adds the elapsed time since `busy` (worker start) to the pool's
/// busy-time counter. Both options are `Some` exactly when the pool has
/// metrics attached.
#[inline]
fn record_busy(metrics: Option<&PoolMetrics>, busy: Option<Instant>) {
    if let (Some(m), Some(t)) = (metrics, busy) {
        m.busy_ns.add(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// Grows a caller-owned slot vector to at least `n` entries (never
/// shrinking it, so its buffers keep their capacity across calls) and
/// returns the first `n`: the pre-sized result slots and per-worker
/// scratch a fan-out writes into.
pub fn slots<T: Default>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize_with(n, T::default);
    }
    &mut buf[..n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::greedy_partition;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `for_each_partitioned` writing `f(k)` into one slot per item.
    fn partitioned<R: Default + Send>(
        pool: &ThreadPool,
        partition: &[Vec<usize>],
        n: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        let mut out: Vec<R> = (0..n).map(|_| R::default()).collect();
        let mut scratch = vec![(); partition.len()];
        pool.for_each_partitioned(partition, out.iter_mut(), &mut scratch, |bucket, _| {
            for (k, slot) in bucket {
                *slot = f(k);
            }
        });
        out
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload.downcast::<&str>().map(|s| s.to_string()).unwrap_or_default(),
        }
    }

    #[test]
    fn partitioned_fills_slots_in_item_order() {
        let weights = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let pool = ThreadPool::new(3);
        let partition = greedy_partition(&weights, 3);
        let results = partitioned(&pool, &partition, 8, |k| k * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn partitioned_single_thread_path() {
        let partition = vec![vec![1, 0, 2]];
        let pool = ThreadPool::new(1);
        let results = partitioned(&pool, &partition, 3, |k| k as f64 + 0.5);
        assert_eq!(results, vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn partitioned_executes_each_item_once() {
        let counter = AtomicUsize::new(0);
        let weights = vec![1usize; 100];
        let partition = greedy_partition(&weights, 4);
        partitioned(&ThreadPool::new(4), &partition, 100, |_k| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<i64> = (0..57).collect();
        let out = ThreadPool::new(4).map(&items, |i, &x| x * 2 + i as i64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as i64 * 3);
        }
    }

    #[test]
    fn map_empty_and_singleton() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u8> = vec![];
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u8], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Determinism requirement: the parallel schedule must not affect
        // the results (only the wall clock).
        let items: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let reference = ThreadPool::new(1).map(&items, |_, &x| (x.sin() * 1e6).round());
        for threads in [2, 3, 8] {
            let got = ThreadPool::new(threads).map(&items, |_, &x| (x.sin() * 1e6).round());
            assert_eq!(got, reference, "thread count {threads} changed results");
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_all_chunks() {
        // 10 elements, chunk_len 3 -> chunks [0..3, 3..6, 6..9, 9..10].
        let mut data = vec![0usize; 10];
        ThreadPool::new(3).for_each_chunk_mut(&mut data, 3, |i, chunk| {
            for x in chunk.iter_mut() {
                *x = i + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn for_each_chunk_mut_identical_across_thread_counts() {
        let reference: Vec<f64> = {
            let mut d = vec![1.0f64; 64];
            ThreadPool::new(1).for_each_chunk_mut(&mut d, 5, |i, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ((i * 31 + off) as f64).sin();
                }
            });
            d
        };
        for threads in [2, 3, 8] {
            let mut d = vec![1.0f64; 64];
            ThreadPool::new(threads).for_each_chunk_mut(&mut d, 5, |i, chunk| {
                for (off, x) in chunk.iter_mut().enumerate() {
                    *x = ((i * 31 + off) as f64).sin();
                }
            });
            assert_eq!(d, reference, "thread count {threads} changed chunk results");
        }
    }

    #[test]
    fn for_each_chunk_mut_empty_is_noop() {
        let mut data: Vec<u8> = vec![];
        ThreadPool::new(4).for_each_chunk_mut(&mut data, 0, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn for_each_chunk_mut_zero_chunk_len_panics() {
        let mut data = vec![1u8];
        ThreadPool::new(2).for_each_chunk_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn for_each_with_gives_each_worker_its_scratch() {
        // Each worker counts its items in its own scratch entry; the counts
        // add up to the item total and no worker beyond min(threads, n)
        // is used.
        for (threads, n) in [(1, 5), (3, 10), (4, 2), (8, 8)] {
            let mut slots = vec![0usize; n];
            let mut scratch = vec![0usize; threads];
            ThreadPool::new(threads).for_each_with(slots.iter_mut(), &mut scratch, |i, slot, s| {
                *slot = i * i;
                *s += 1;
            });
            assert_eq!(slots, (0..n).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(scratch.iter().sum::<usize>(), n, "threads={threads} n={n}");
            assert!(scratch[threads.min(n)..].iter().all(|&c| c == 0));
        }
    }

    #[test]
    #[should_panic(expected = "scratch entries")]
    fn for_each_with_needs_scratch_per_worker() {
        let mut slots = [0u8; 4];
        ThreadPool::new(2).for_each_with(slots.iter_mut(), &mut [0u8], |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_worker_panic_keeps_its_message() {
        ThreadPool::new(2).map(&[0u8, 1], |i, _| assert!(i == 0, "boom"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn for_each_chunk_mut_worker_panic_keeps_its_message() {
        let mut data = vec![0u8; 4];
        ThreadPool::new(2).for_each_chunk_mut(&mut data, 1, |i, _| assert!(i != 3, "boom"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn for_each_with_worker_panic_keeps_its_message() {
        let mut slots = [0u8; 4];
        ThreadPool::new(2)
            .for_each_with(slots.iter_mut(), &mut [(), ()], |i, _, _| assert!(i != 1, "boom"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn for_each_partitioned_worker_panic_keeps_its_message() {
        partitioned(&ThreadPool::new(2), &[vec![0], vec![1]], 2, |k| assert!(k != 1, "boom"));
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        ThreadPool::new(0);
    }

    #[test]
    #[should_panic(expected = "duplicate or out-of-range")]
    fn bad_partition_detected() {
        let pool = ThreadPool::new(2);
        // Index 1 missing.
        let msg = panic_message(|| drop(partitioned(&pool, &[vec![0], vec![2]], 3, |k| k)));
        assert!(msg.contains("did not cover all items exactly once"), "{msg}");
        // Index 5 of 2 items: out of range.
        let msg = panic_message(|| drop(partitioned(&pool, &[vec![0], vec![5]], 2, |k| k)));
        assert!(msg.contains("duplicate or out-of-range index 5"), "{msg}");
        // Index 1 appears twice, index 0 missing.
        partitioned(&pool, &[vec![1], vec![1]], 2, |k| k);
    }

    #[test]
    fn metrics_count_tasks_and_busy_time() {
        let registry = MetricsRegistry::new();
        let metrics = PoolMetrics::register(&registry, "pool");
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads).with_metrics(metrics.clone());
            let before = metrics.tasks.get();
            let items: Vec<u64> = (0..10).collect();
            let _ = pool.map(&items, |_, &x| x + 1);
            let mut data = vec![0u8; 9];
            pool.for_each_chunk_mut(&mut data, 4, |_, c| c.fill(1)); // 3 chunks
            let _ = partitioned(&pool, &[vec![0, 1], vec![2]], 3, |k| k);
            assert_eq!(metrics.tasks.get() - before, 10 + 3 + 3, "threads={threads}");
        }
        assert!(metrics.busy_ns.get() > 0, "busy time accumulated");
        // The same results come back instrumented or not.
        let plain = ThreadPool::new(3).map(&[1u64, 2, 3], |i, &x| x * i as u64);
        let metered =
            ThreadPool::new(3).with_metrics(metrics).map(&[1u64, 2, 3], |i, &x| x * i as u64);
        assert_eq!(plain, metered);
    }

    #[test]
    fn slots_grow_and_never_shrink() {
        let mut buf: Vec<Vec<u8>> = Vec::new();
        slots(&mut buf, 3)[2].push(7);
        assert_eq!(slots(&mut buf, 1).len(), 1);
        assert_eq!(buf.len(), 3);
        assert_eq!(slots(&mut buf, 3)[2], vec![7]);
    }
}
