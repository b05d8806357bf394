//! Serve phase: the workload's model published, indexed and answered over
//! the wire. An open loop at a fixed offered rate while ingest appends new
//! slices, the same open loop without ingest, a closed loop that finds the
//! capacity, and appends timed with nothing else running.

use crate::report::{median, quantile, time_median, Report};
use crate::workload::{Input, OFFERED_QPS, RANK};
use dpar2_core::{FitOptions, StreamingDpar2};
use dpar2_linalg::Mat;
use dpar2_net::protocol::{decode_request, decode_response, encode_request, encode_response};
use dpar2_net::WireMode;
use dpar2_net::{ErrorCode, NetClient, NetServer, Request, Response, ServerConfig, TopKAnswer};
use dpar2_obs::{HistogramSnapshot, MetricsRegistry};
use dpar2_parallel::ThreadPool;
use dpar2_serve::{
    build_and_install, IndexOptions, IngestEvent, IngestWorker, ModelIndexSet, ModelMeta,
    ModelRegistry, ModelVersion, QueryEngine, QueryMode, ServedModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODEL: &str = "bench";
/// Neighbors per query.
const TOP_K: usize = 10;
/// Warm-started refits chained to fit the initial model: 4 × 4 iterations.
const INITIAL_REFITS: usize = 4;
/// Iterations of every ingest refit.
const REFIT_ITERATIONS: usize = 4;
/// Closed-loop throughput is counted per window of this many seconds.
const CAPACITY_WINDOW: f64 = 0.1;
/// Open-loop windows with fewer answers than this are not summarized.
const MIN_WINDOW_SAMPLES: usize = 200;
/// Largest share of empty answers a run accepts: the seed code answers
/// under 1% empty at full size and about a third at the self-test size.
const MAX_EMPTY_SHARE: f64 = 0.5;
/// A reply slower than this counts as a failed query.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A running serving stack over one workload's model.
pub struct Serving {
    registry: Arc<ModelRegistry>,
    engine: Arc<QueryEngine>,
    server: NetServer,
    worker: IngestWorker,
    obs: Option<Arc<MetricsRegistry>>,
    /// The ingest stream as it was before any append (traced runs only).
    probe: Option<StreamingDpar2>,
    /// Query targets in popularity order (entities whose shape group has
    /// more than `TOP_K` members, shuffled by the seed).
    targets: Vec<usize>,
    /// Row count of every entity, arriving ones included: answers may only
    /// name entities of the target's shape.
    rows: Vec<usize>,
}

/// Fits the initial model through the ingest stream, publishes and indexes
/// it, and starts the wire server and the ingest worker.
pub fn setup(input: &Input, seed: u64, nproc: usize, trace: bool) -> Serving {
    // No tolerance: every refit runs its iterations, so freshness does not
    // depend on how soon a seed's data happens to converge.
    let opts = FitOptions::new(RANK)
        .with_seed(seed)
        .with_max_iterations(REFIT_ITERATIONS)
        .with_tolerance(0.0);
    let mut stream = StreamingDpar2::new(opts);
    stream.append(input.tensor.to_slices()).expect("the initial slices support the rank");
    let mut fit = stream.decompose().expect("the stream holds slices");
    for _ in 1..INITIAL_REFITS {
        fit = stream.decompose().expect("the stream holds slices");
    }
    let registry = Arc::new(ModelRegistry::new());
    let meta = ModelMeta::new(MODEL);
    let version = registry.publish_arc(MODEL, ServedModel::from_parts(meta.clone(), fit));
    build_and_install(&version, &IndexOptions::default(), &ThreadPool::new(nproc));

    let engine = Arc::new(QueryEngine::new(Arc::clone(&registry), nproc));
    let config = ServerConfig { workers: nproc, ..ServerConfig::default() };
    let obs = trace.then(|| Arc::new(MetricsRegistry::new()));
    let server = match &obs {
        Some(obs) => {
            NetServer::start_observed(Arc::clone(&engine), "127.0.0.1:0", config, Arc::clone(obs))
        }
        None => NetServer::start(Arc::clone(&engine), "127.0.0.1:0", config),
    }
    .expect("bind a loopback port");
    let probe = trace.then(|| stream.clone());
    let worker = IngestWorker::spawn_indexed(
        stream,
        meta,
        Arc::clone(&registry),
        IndexOptions::default(),
        1,
    );

    let mut rows = input.tensor.row_dims();
    rows.extend(input.batches.iter().flatten().map(Mat::rows));
    // Targets come from shape groups with more than TOP_K members, or —
    // where no group is that large — with any other member at all.
    let initial = &rows[..input.tensor.k()];
    let mut group_size = BTreeMap::new();
    for &r in initial {
        *group_size.entry(r).or_insert(0usize) += 1;
    }
    let with_more_than = |n: usize| -> Vec<usize> {
        (0..initial.len()).filter(|&i| group_size[&initial[i]] > n).collect()
    };
    let mut targets = with_more_than(TOP_K);
    if targets.is_empty() {
        targets = with_more_than(1);
    }
    assert!(!targets.is_empty(), "no entity has a comparable neighbor");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A26_E7A2);
    for i in (1..targets.len()).rev() {
        targets.swap(i, (rng.random::<u64>() % (i as u64 + 1)) as usize);
    }
    Serving { registry, engine, server, worker, obs, probe, targets, rows }
}

impl Serving {
    pub fn shutdown(self) {
        self.worker.shutdown();
        self.server.shutdown();
    }
}

/// `n` query targets drawn Zipf(1) over the popularity order.
fn zipf_targets(targets: &[usize], n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut cdf = Vec::with_capacity(targets.len());
    let mut acc = 0.0;
    for rank in 0..targets.len() {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.random::<f64>() * acc;
            targets[cdf.partition_point(|&c| c < u).min(targets.len() - 1)]
        })
        .collect()
}

/// Why a wire answer is malformed, if it is: it must name at most `TOP_K`
/// distinct entities of the target's shape, not the target itself, with
/// similarities in `[0, 1]` that never increase. The indexed path names
/// fewer than `TOP_K` (even none) when the probed partitions hold fewer
/// candidates, so short answers are well-formed; they are counted apart,
/// and the share of empty ones is bounded.
fn malformed(answer: &TopKAnswer, target: usize, rows: &[usize]) -> Option<String> {
    let n = &answer.neighbors;
    if n.len() > TOP_K {
        return Some(format!("{} neighbors for top-{TOP_K}", n.len()));
    }
    for (i, &(id, sim)) in n.iter().enumerate() {
        let id = id as usize;
        if id == target || id >= rows.len() || rows[id] != rows[target] {
            return Some(format!("neighbor {id} is not a candidate for {target}"));
        }
        if n[..i].iter().any(|&(other, _)| other as usize == id) {
            return Some(format!("neighbor {id} repeated"));
        }
        if !(0.0..=1.0).contains(&sim) || (i > 0 && sim > n[i - 1].1) {
            return Some(format!("similarity {sim} out of order or range"));
        }
    }
    None
}

/// Why an answer from `version` disagrees with the exact scan, if it does:
/// every neighbor it names must carry its exact similarity, and probing
/// every partition of the target's group must reproduce the exact
/// top-`TOP_K`.
fn disagrees_with_exact(
    version: &ModelVersion,
    target: usize,
    answer: &TopKAnswer,
) -> Option<String> {
    let model = &version.model;
    let exact = model.top_k(target, model.entities()).expect("target in range");
    let bits: BTreeMap<usize, u64> = exact.iter().map(|&(id, sim)| (id, sim.to_bits())).collect();
    if answer.version != version.version {
        return Some(format!("answer for {target} from version {}", answer.version));
    }
    for &(id, sim) in &answer.neighbors {
        if bits.get(&(id as usize)) != Some(&sim.to_bits()) {
            return Some(format!("neighbor {id} of {target} is not in the exact ranking"));
        }
    }
    if let Some(index) = version.index() {
        let full = index.num_partitions_for(target);
        let probed = index.top_k(model, target, TOP_K, full).expect("target in range");
        if probed[..] != exact[..exact.len().min(TOP_K)] {
            return Some(format!("full-probe answer for {target} differs from the exact scan"));
        }
    }
    None
}

/// Sleeps until shortly before `due`, then yields the rest of the way.
fn wait_until(due: Instant) {
    let slack = Duration::from_micros(80);
    let now = Instant::now();
    if due > now + slack {
        std::thread::sleep(due - now - slack);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// What one load-generator connection saw.
#[derive(Default)]
struct ClientLog {
    /// `(window, latency)` of every well-formed answer.
    samples: Vec<(u32, f64)>,
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The first few failure reasons.
    failures: Vec<String>,
    overloaded: u64,
    /// Well-formed answers with fewer than `TOP_K` neighbors.
    short: u64,
    /// Well-formed answers with no neighbor at all.
    empty: u64,
    /// `(target, answer)` pairs kept for the bitwise comparison.
    kept: Vec<(usize, TopKAnswer)>,
}

impl ClientLog {
    /// Sends one query and records its outcome; `due` is when it was
    /// scheduled (latency counts from there).
    #[allow(clippy::too_many_arguments)]
    fn query(
        &mut self,
        client: &mut Option<NetClient>,
        addr: SocketAddr,
        target: usize,
        due: Instant,
        window: u32,
        rows: &[usize],
        keep: bool,
    ) {
        self.attempted += 1;
        if client.is_none() {
            *client = connect(addr);
        }
        let Some(c) = client.as_mut() else {
            self.fail("connect failed".to_string());
            return;
        };
        let reply = c.top_k_with_mode(MODEL, target as u32, TOP_K as u32, WireMode::Default);
        let took = due.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok(Ok(answer)) => match malformed(&answer, target, rows) {
                None => {
                    self.samples.push((window, took));
                    self.short += u64::from(answer.neighbors.len() < TOP_K);
                    self.empty += u64::from(answer.neighbors.is_empty());
                    if keep {
                        self.kept.push((target, answer));
                    }
                }
                Some(why) => self.fail(why),
            },
            Ok(Err(e)) => {
                if e.code == ErrorCode::Overloaded {
                    self.overloaded += 1;
                }
                self.fail(format!("typed error {e}"));
            }
            Err(e) => {
                self.fail(format!("transport error {e}"));
                *client = None;
            }
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

fn connect(addr: SocketAddr) -> Option<NetClient> {
    let mut c = NetClient::connect(addr).ok()?;
    c.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
    Some(c)
}

fn merge(logs: Vec<ClientLog>) -> ClientLog {
    let mut all = ClientLog::default();
    for l in logs {
        all.samples.extend(l.samples);
        all.lag_us.extend(l.lag_us);
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.failures.extend(l.failures);
        all.overloaded += l.overloaded;
        all.short += l.short;
        all.empty += l.empty;
        all.kept.extend(l.kept);
    }
    all
}

fn account(rep: &mut Report, log: &ClientLog) {
    rep.attempts("queries", log.attempted);
    rep.fails("queries", log.failed, &log.failures);
    rep.note_add("short_answers", log.short as f64);
}

/// One open loop of `duration`: queries at `OFFERED_QPS` from `nproc`
/// connections, each taking every nproc-th scheduled query of `stream`,
/// while the calling thread appends one of `batches` per second and waits
/// until it is published with its index installed (the returned times).
fn open_loop(
    s: &Serving,
    stream: &[usize],
    batches: &[Vec<Mat>],
    duration: Duration,
    nproc: usize,
    rep: &mut Report,
) -> (ClientLog, Vec<f64>) {
    let addr = s.server.local_addr();
    let rows = &s.rows;
    let interval = 1.0 / OFFERED_QPS;
    let n = ((OFFERED_QPS * duration.as_secs_f64()) as usize).clamp(1, stream.len());
    let start = Instant::now() + Duration::from_millis(20);
    let mut fresh_ms = Vec::new();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut client = connect(addr);
                    for q in (c..n).step_by(nproc) {
                        let due = start + Duration::from_secs_f64(q as f64 * interval);
                        wait_until(due);
                        log.lag_us.push(due.elapsed().as_secs_f64() * 1e6);
                        let window = (q as f64 * interval) as u32;
                        log.query(&mut client, addr, stream[q], due, window, rows, false);
                    }
                    log
                })
            })
            .collect();
        let first = Duration::from_millis(250).min(duration / 4);
        for (b, batch) in batches.iter().enumerate() {
            let due = start + first + Duration::from_secs(b as u64);
            if due >= start + duration {
                break;
            }
            wait_until(due);
            if let Some(ms) = append_fresh(s, batch, rep) {
                fresh_ms.push(ms);
            }
        }
        handles.into_iter().map(|h| h.join().expect("load generator thread")).collect()
    });
    let log = merge(logs);
    account(rep, &log);
    (log, fresh_ms)
}

/// Appends `batch` through the ingest worker and returns the milliseconds
/// until its version is published with the index installed.
fn append_fresh(s: &Serving, batch: &[Mat], rep: &mut Report) -> Option<f64> {
    rep.attempt("appends");
    let t0 = Instant::now();
    if !s.worker.append(batch.to_vec()) {
        rep.fail("appends", "ingest worker unavailable".to_string());
        return None;
    }
    s.worker.flush_indexes();
    Some(t0.elapsed().as_secs_f64() * 1e3)
}

/// Batches the serve phase appends after its timed loops (quiet appends).
pub const QUIET_APPENDS: usize = 5;

/// The serve phase over `serve` seconds: an open loop while ingest appends
/// one batch per second, an open loop without ingest, a closed loop, and
/// `QUIET_APPENDS` appends with no queries running.
pub fn phase(
    s: &Serving,
    batches: &[Vec<Mat>],
    seed: u64,
    nproc: usize,
    serve: Duration,
    trace: bool,
    rep: &mut Report,
) {
    let (live, quiet, closed) = (serve.mul_f64(0.45), serve.mul_f64(0.3), serve.mul_f64(0.25));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2F0A_D0A5);
    let mut stream = |d: Duration| {
        zipf_targets(&s.targets, (OFFERED_QPS * d.as_secs_f64()) as usize + 1, &mut rng)
    };
    let (live_stream, quiet_stream, closed_stream) = (stream(live), stream(quiet), stream(closed));
    let (to_live, rest) = batches.split_at(batches.len().saturating_sub(QUIET_APPENDS + 1));

    // Live: queries while writes arrive.
    let cache_before = s.engine.cache_stats();
    let (live_log, fresh_load_ms) = open_loop(s, &live_stream, to_live, live, nproc, rep);
    let cache_after = s.engine.cache_stats();

    // Quiet: the same offered rate against one indexed version.
    s.worker.flush_indexes();
    let (quiet_log, _) = open_loop(s, &quiet_stream, &[], quiet, nproc, rep);

    // Closed loop, reads only: every connection sends its next query as
    // soon as the previous answer arrives.
    let addr = s.server.local_addr();
    let rows = &s.rows;
    let t0 = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nproc)
            .map(|c| {
                let stream = &closed_stream;
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut client = connect(addr);
                    let mut q = c;
                    while t0.elapsed() < closed {
                        let keep = log.kept.len() < 64;
                        let window = (t0.elapsed().as_secs_f64() / CAPACITY_WINDOW) as u32;
                        let target = stream[q % stream.len()];
                        log.query(&mut client, addr, target, Instant::now(), window, rows, keep);
                        q += nproc;
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop thread")).collect()
    });
    let full_windows = (t0.elapsed().as_secs_f64() / CAPACITY_WINDOW) as usize;
    let closed_log = merge(logs);
    account(rep, &closed_log);

    // Closed-loop answers must equal in-process answers bit for bit and
    // agree with the exact scan.
    let reference = QueryEngine::with_cache_capacity(Arc::clone(&s.registry), 1, 0);
    let version = s.registry.get(MODEL).expect("published");
    for (target, answer) in &closed_log.kept {
        if let Some(why) = disagrees_with_exact(&version, *target, answer) {
            rep.check(false, || why);
            continue;
        }
        let same =
            reference.top_k_with_mode(MODEL, *target, TOP_K, QueryMode::default()).is_ok_and(|r| {
                r.version == answer.version
                    && r.indexed() == answer.indexed
                    && r.neighbors.len() == answer.neighbors.len()
                    && r.neighbors
                        .iter()
                        .zip(&answer.neighbors)
                        .all(|(a, b)| a.0 == b.0 as usize && a.1.to_bits() == b.1.to_bits())
            });
        rep.check(same, || format!("wire answer for {target} differs from the engine's"));
    }
    // Every target has a comparable entity, so an empty answer is a miss
    // of the index. The default probe misses on small shape groups; an
    // index that answers nothing misses always.
    let empty = live_log.empty + quiet_log.empty + closed_log.empty;
    let answered_all = live_log.samples.len() + quiet_log.samples.len() + closed_log.samples.len();
    let empty_share = empty as f64 / answered_all.max(1) as f64;
    rep.check(empty_share <= MAX_EMPTY_SHARE, || {
        format!("{empty} of {answered_all} answers are empty")
    });
    rep.note("empty_answers", empty as f64);

    // Quiet appends: freshness with nothing else running.
    let fresh_ms: Vec<f64> =
        rest.iter().take(QUIET_APPENDS).filter_map(|b| append_fresh(s, b, rep)).collect();
    for e in s.worker.events() {
        if let IngestEvent::AppendFailed { batch, error } = e {
            rep.fail("appends", format!("batch {batch}: {error}"));
        }
    }

    let attempted = (live_log.attempted + quiet_log.attempted).max(1) as f64;
    let answered = (live_log.samples.len() + quiet_log.samples.len()) as f64;
    rep.both("query_p50_us", windowed(&quiet_log.samples, |v| quantile(v, 0.5)));
    rep.metric("query_ok_rate", answered / attempted);
    rep.both("fresh_ms", median(&fresh_ms));
    rep.both("query_live_p50_us", windowed(&live_log.samples, |v| quantile(v, 0.5)));
    rep.both("query_p99_us", windowed(&live_log.samples, |v| quantile(v, 0.99)));
    rep.both("fresh_load_ms", median(&fresh_load_ms));
    let mut per_window = vec![0.0; full_windows.max(1)];
    for &(w, _) in &closed_log.samples {
        if let Some(n) = per_window.get_mut(w as usize) {
            *n += 1.0 / CAPACITY_WINDOW;
        }
    }
    rep.both("capacity_qps", median(&per_window));
    rep.note("query_samples", answered);
    rep.note("query_quiet_p99_us", windowed(&quiet_log.samples, |v| quantile(v, 0.99)));
    rep.note("query_error_rate", (live_log.failed + quiet_log.failed) as f64 / attempted);
    rep.note("appends_under_load", fresh_load_ms.len() as f64);

    if trace {
        let hits = (cache_after.hits - cache_before.hits) as f64;
        let misses = (cache_after.misses - cache_before.misses) as f64;
        rep.layer("engine.cache_hit_rate", hits / (hits + misses).max(1.0));
        let overloaded = live_log.overloaded + quiet_log.overloaded;
        rep.layer("net.admit_rate", 1.0 - overloaded as f64 / attempted);
        rep.layer("loadgen.lag_us", median(&live_log.lag_us));
        if let Some(obs) = &s.obs {
            let snap = obs.snapshot();
            let b =
                snap.histogram("net_batch_size").cloned().unwrap_or_else(HistogramSnapshot::empty);
            rep.layer("net.batch_mean", b.sum as f64 / b.count.max(1) as f64);
        }
        replay_layers(s, batches, &closed_stream, rep);
    }
}

/// Median over the open loop's one-second windows of `stat` of each
/// window's latencies. Each window holds one ingest batch, so this is the
/// typical value over an ingest cycle; one stalled window moves it less
/// than it moves the statistic of the pooled samples.
fn windowed(samples: &[(u32, f64)], stat: impl Fn(&[f64]) -> f64) -> f64 {
    let windows = samples.iter().map(|s| s.0 as usize + 1).max().unwrap_or(0);
    let mut per = vec![Vec::new(); windows];
    for &(w, latency) in samples {
        per[w as usize].push(latency);
    }
    let full: Vec<f64> =
        per.iter().filter(|v| v.len() >= MIN_WINDOW_SAMPLES).map(|v| stat(v)).collect();
    if full.is_empty() {
        stat(&samples.iter().map(|s| s.1).collect::<Vec<_>>())
    } else {
        median(&full)
    }
}

/// Replays the serving layers in process on the final model version and
/// the same target stream: wire codec, engine paths, index probe and
/// build, and one streaming append and refit.
fn replay_layers(s: &Serving, batches: &[Vec<Mat>], stream: &[usize], rep: &mut Report) {
    let targets = &stream[..stream.len().min(512)];
    let answer = TopKAnswer {
        version: 1,
        indexed: true,
        cache_hit: false,
        neighbors: (0..TOP_K as u32).map(|i| (i, 1.0 / f64::from(i + 1))).collect(),
    };
    let request = Request::TopK {
        model: MODEL.to_string(),
        target: 7,
        k: TOP_K as u32,
        mode: WireMode::Default,
    };
    let response = Response::TopK(answer);
    let codec = time_median(2001, || {
        let req = encode_request(black_box(&request));
        black_box(decode_request(&req[4..]).expect("decodes"));
        let resp = encode_response(black_box(&response));
        black_box(decode_response(&resp[4..]).expect("decodes"));
    });
    rep.layer("net.codec_ns", codec * 1e9);

    let per_query = |engine: &QueryEngine, mode: QueryMode| {
        let mut t = Vec::with_capacity(targets.len());
        for &target in targets {
            let t0 = Instant::now();
            black_box(engine.top_k_with_mode(MODEL, target, TOP_K, mode).expect("in range"));
            t.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        median(&t)
    };
    let uncached = QueryEngine::with_cache_capacity(Arc::clone(&s.registry), 1, 0);
    rep.layer("engine.indexed_us", per_query(&uncached, QueryMode::default()));
    rep.layer("engine.exact_us", per_query(&uncached, QueryMode::Exact));
    let cached = QueryEngine::new(Arc::clone(&s.registry), 1);
    per_query(&cached, QueryMode::default());
    rep.layer("engine.hit_us", per_query(&cached, QueryMode::default()));

    let version = s.registry.get(MODEL).expect("published");
    if let Some(index) = version.index() {
        let (mut scanned, mut total) = (0usize, 0usize);
        for &target in targets {
            let (_, stats) = index
                .top_k_with_stats(&version.model, target, TOP_K, None)
                .expect("target in range");
            scanned += stats.candidates_scanned;
            total += stats.candidates_total;
        }
        rep.layer("index.scan_frac", scanned as f64 / total.max(1) as f64);
    }
    let pool = ThreadPool::new(1);
    let build = time_median(3, || {
        black_box(ModelIndexSet::build(&version.model, &IndexOptions::default(), &pool));
    });
    rep.layer("index.build_ms", build * 1e3);

    if let (Some(probe), Some(batch)) = (&s.probe, batches.first()) {
        let (mut append, mut refit) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let mut stream = probe.clone();
            let t0 = Instant::now();
            stream.append(batch.clone()).expect("batch appends");
            append.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            black_box(stream.decompose().expect("stream holds slices"));
            refit.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        rep.layer("streaming.append_ms", median(&append));
        rep.layer("streaming.refit_ms", median(&refit));
    }
}
