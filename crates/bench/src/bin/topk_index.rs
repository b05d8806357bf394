//! Exact vs indexed top-k serving latency, recall@k, and peak memory —
//! the acceptance benchmark behind `BENCH_topk.json`.
//!
//! Three experiments over clustered single-row factor embeddings (the
//! Eq. 10 serving geometry):
//!
//! 1. **Latency percentiles, open loop.** For each `n` in `--n-list` the
//!    exact brute-force scan and the pruned [`EmbeddingIndex`] are driven
//!    by an *open-loop* arrival schedule: arrivals tick at a fixed rate
//!    (0.7× the mode's calibrated service rate, so the queue is stable but
//!    genuinely nonempty at times), and each query's latency is measured
//!    from its *scheduled arrival*, not from when the server got to it —
//!    queueing delay counts, as it does in a real service.
//! 2. **`nprobe` sweep.** The exactness knob's trade-off curve: recall@k
//!    and latency at probe depths from 1 to every partition (where the
//!    answer is bitwise-exact by construction).
//! 3. **Peak memory, `similarity_graph` vs `similarity_topk`.** The dense
//!    graph materializes two n×n matrices; the streaming top-k keeps
//!    O(n·k). A byte-exact peak-tracking allocator proves the ratio.
//!
//! ```text
//! cargo run -p dpar2-bench --release --bin topk_index
//! cargo run -p dpar2-bench --release --bin topk_index -- --n-list 10000 --queries 100
//! ```
//!
//! Flags: `--n-list` (comma list, default `10000,100000,1000000`), `--dim`
//! (10), `--k` (10), `--queries` (200), `--centers` (200), `--threads`
//! (number the index build may use, default 6), `--seed` (0),
//! `--mem-n` (3000), `--out` (`BENCH_topk.json` at the repo root).

use dpar2_analysis::{
    select_top_k, similarity_graph, similarity_topk, squared_distance, EmbeddingIndex, IndexOptions,
};
use dpar2_bench::alloc::{self, peak_during};
use dpar2_bench::Args;
use dpar2_linalg::{Mat, MatRef};
use dpar2_parallel::ThreadPool;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Tracking = alloc::Tracking;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
}

/// `centers` Gaussian-ish blobs, `n` points total, row-major `n × dim` —
/// the clustered geometry the k-means partitioner targets (entities in
/// Eq. 10 workloads are far from uniform: similar stocks cluster).
fn clustered_points(n: usize, dim: usize, centers: usize, seed: u64) -> Vec<f64> {
    let mut state = seed ^ 0x1DE2_0000_BEEF;
    let centroids: Vec<f64> =
        (0..centers * dim).map(|_| uniform(&mut state, -10.0, 10.0)).collect();
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = i % centers;
        for j in 0..dim {
            data.push(centroids[c * dim + j] + uniform(&mut state, -0.5, 0.5));
        }
    }
    data
}

/// Exact Eq. 10 top-k by brute-force scan — the reference both for
/// latency (the "exact" serving mode) and for recall ground truth.
fn exact_top_k(
    points: &[f64],
    dim: usize,
    query: &[f64],
    gamma: f64,
    k: usize,
    exclude: usize,
) -> Vec<(usize, f64)> {
    let n = points.len() / dim;
    let pairs: Vec<(usize, f64)> = (0..n)
        .filter(|&i| i != exclude)
        .map(|i| (i, (-gamma * squared_distance(query, &points[i * dim..(i + 1) * dim])).exp()))
        .collect();
    select_top_k(pairs, k)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

struct LatencyStats {
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Runs `queries` executions of `serve` under an open-loop arrival
/// schedule at 0.7× the calibrated service rate. Latencies are measured
/// from scheduled arrival to completion.
fn open_loop(queries: usize, targets: &[usize], mut serve: impl FnMut(usize)) -> LatencyStats {
    // Calibrate the mean service time on a small closed-loop prefix.
    let calibrate = queries.clamp(1, 20);
    let t0 = Instant::now();
    for q in 0..calibrate {
        serve(targets[q % targets.len()]);
    }
    let service = t0.elapsed().as_secs_f64() / calibrate as f64;
    let interarrival = Duration::from_secs_f64((service / 0.7).max(1e-7));

    let mut lat_us = Vec::with_capacity(queries);
    let start = Instant::now();
    for q in 0..queries {
        let arrival = interarrival * q as u32;
        // Open loop: the next arrival is scheduled regardless of whether
        // the previous query finished; if the server ran ahead, idle.
        while start.elapsed() < arrival {
            std::hint::spin_loop();
        }
        serve(targets[q % targets.len()]);
        lat_us.push((start.elapsed() - arrival).as_secs_f64() * 1e6);
    }
    let mean_us = lat_us.iter().sum::<f64>() / lat_us.len() as f64;
    lat_us.sort_unstable_by(f64::total_cmp);
    LatencyStats {
        mean_us,
        p50_us: percentile(&lat_us, 0.50),
        p95_us: percentile(&lat_us, 0.95),
        p99_us: percentile(&lat_us, 0.99),
    }
}

fn json_latency(out: &mut String, label: &str, s: &LatencyStats) {
    let _ = write!(
        out,
        "\"{label}\": {{\"mean_us\": {:.2}, \"p50_us\": {:.2}, \"p95_us\": {:.2}, \
         \"p99_us\": {:.2}}}",
        s.mean_us, s.p50_us, s.p95_us, s.p99_us
    );
}

fn main() {
    let args = Args::parse();
    let n_list: Vec<usize> = args
        .get_str("n-list", "10000,100000,1000000")
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let dim = args.get("dim", 10usize).max(1);
    let k = args.get("k", 10usize).max(1);
    let queries = args.get("queries", 200usize).max(1);
    let centers = args.get("centers", 200usize).max(1);
    let threads = args.get("threads", 6usize).max(1);
    let seed = args.get("seed", 0u64);
    let mem_n = args.get("mem-n", 3000usize).max(2);
    let default_out = format!("{}/../../BENCH_topk.json", env!("CARGO_MANIFEST_DIR"));
    let out_path = args.get_str("out", &default_out);
    let gamma = 0.01f64;

    let pool = ThreadPool::new(threads);
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"topk_index\",\n");
    let _ = write!(
        json,
        "  \"config\": {{\"dim\": {dim}, \"k\": {k}, \"queries\": {queries}, \
         \"centers\": {centers}, \"threads\": {threads}, \"gamma\": {gamma}, \
         \"seed\": {seed}}},\n  \"scales\": [\n"
    );

    println!("== topk_index: exact vs pruned-index serving, dim {dim}, top-{k}, gamma {gamma} ==");
    let mut acceptance: Option<(usize, f64, f64)> = None;
    for (ni, &n) in n_list.iter().enumerate() {
        println!("\n-- n = {n} --");
        let points = clustered_points(n, dim, centers, seed);
        let row = |i: usize| &points[i * dim..(i + 1) * dim];

        let t_build = Instant::now();
        let index = EmbeddingIndex::build(
            MatRef::from_slice(n, dim, &points),
            &IndexOptions::default(),
            &pool,
        );
        let build_s = t_build.elapsed().as_secs_f64();
        println!(
            "   build: {:.2}s  ({} partitions, default nprobe {})",
            build_s,
            index.num_partitions(),
            index.default_nprobe()
        );

        // Deterministic query targets spread across the blobs.
        let mut state = seed ^ (n as u64).wrapping_mul(0x9E37);
        let targets: Vec<usize> =
            (0..queries).map(|_| (splitmix64(&mut state) % n as u64) as usize).collect();

        // Ground truth for recall on a fixed subset of the targets.
        let recall_queries: Vec<usize> = targets.iter().copied().take(50).collect();
        let truth: Vec<Vec<(usize, f64)>> = recall_queries
            .iter()
            .map(|&t| exact_top_k(&points, dim, row(t), gamma, k, t))
            .collect();
        let recall_at = |nprobe: usize| -> f64 {
            let mut total = 0.0;
            for (qi, &t) in recall_queries.iter().enumerate() {
                let approx = index.top_k_similar(row(t), gamma, k, nprobe, Some(t));
                let hit =
                    truth[qi].iter().filter(|(id, _)| approx.iter().any(|(a, _)| a == id)).count();
                total += hit as f64 / truth[qi].len().max(1) as f64;
            }
            total / recall_queries.len() as f64
        };

        let exact_stats = open_loop(queries, &targets, |t| {
            std::hint::black_box(exact_top_k(&points, dim, row(t), gamma, k, t));
        });
        println!(
            "   exact:   p50 {:9.1}us  p95 {:9.1}us  p99 {:9.1}us",
            exact_stats.p50_us, exact_stats.p95_us, exact_stats.p99_us
        );

        // nprobe sweep: 1 … num_partitions, log-spaced, always including
        // the default (the serving operating point) and full probe depth
        // (the bitwise-exact setting).
        let mut sweep: Vec<usize> = vec![1];
        let mut p = 1usize;
        while p < index.num_partitions() {
            p = (p * 4).min(index.num_partitions());
            sweep.push(p);
        }
        sweep.push(index.default_nprobe());
        sweep.sort_unstable();
        sweep.dedup();

        let _ = write!(
            json,
            "    {{\"n\": {n}, \"build_seconds\": {build_s:.3}, \"partitions\": {}, \
             \"default_nprobe\": {}, ",
            index.num_partitions(),
            index.default_nprobe()
        );
        json_latency(&mut json, "exact", &exact_stats);
        json.push_str(", \"nprobe_sweep\": [\n");

        for (si, &nprobe) in sweep.iter().enumerate() {
            let stats = open_loop(queries, &targets, |t| {
                std::hint::black_box(index.top_k_similar(row(t), gamma, k, nprobe, Some(t)));
            });
            let rec = recall_at(nprobe);
            let speedup = exact_stats.mean_us / stats.mean_us;
            let is_default = nprobe == index.default_nprobe();
            println!(
                "   nprobe {nprobe:5}: p50 {:9.1}us  p95 {:9.1}us  p99 {:9.1}us  \
                 recall@{k} {rec:.3}  speedup {speedup:5.1}x{}",
                stats.p50_us,
                stats.p95_us,
                stats.p99_us,
                if is_default { "  <- default" } else { "" }
            );
            json.push_str("      {");
            let _ = write!(json, "\"nprobe\": {nprobe}, \"recall_at_k\": {rec:.4}, ");
            json_latency(&mut json, "latency", &stats);
            let _ = write!(json, ", \"speedup_vs_exact\": {speedup:.2}}}");
            json.push_str(if si + 1 < sweep.len() { ",\n" } else { "\n" });
            if is_default && n >= *n_list.iter().max().unwrap_or(&0) {
                acceptance = Some((n, speedup, rec));
            }
        }
        json.push_str("    ]}");
        json.push_str(if ni + 1 < n_list.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");

    // Peak-memory differential: dense similarity graph (two n×n matrices)
    // vs streaming top-k (O(n·k) output, one reused candidate buffer).
    println!("\n-- peak memory at n = {mem_n} (similarity_graph vs similarity_topk) --");
    let factors: Vec<Mat> = {
        let pts = clustered_points(mem_n, dim, centers, seed ^ 0xFEED);
        (0..mem_n).map(|i| Mat::from_fn(1, dim, |_, j| pts[i * dim + j])).collect()
    };
    let refs: Vec<&Mat> = factors.iter().collect();
    let (graph, graph_peak) = peak_during(|| similarity_graph(&refs, gamma));
    drop(graph);
    let (topk, topk_peak) = peak_during(|| similarity_topk(&refs, gamma, k));
    let ratio = graph_peak as f64 / topk_peak.max(1) as f64;
    println!(
        "   graph: {:.1} MiB   topk: {:.3} MiB   ratio {ratio:.0}x",
        graph_peak as f64 / (1 << 20) as f64,
        topk_peak as f64 / (1 << 20) as f64
    );
    assert_eq!(topk.len(), mem_n, "similarity_topk must rank every entity");
    drop(topk);
    let _ = write!(
        json,
        "  \"peak_memory\": {{\"n\": {mem_n}, \"k\": {k}, \"graph_bytes\": {graph_peak}, \
         \"topk_bytes\": {topk_peak}, \"ratio\": {ratio:.1}}}"
    );

    if let Some((n, speedup, rec)) = acceptance {
        let _ = write!(
            json,
            ",\n  \"acceptance\": {{\"n\": {n}, \"speedup_at_default_nprobe\": {speedup:.2}, \
             \"recall_at_default_nprobe\": {rec:.4}}}"
        );
        println!(
            "\n   acceptance @ n={n}: {speedup:.1}x speedup, recall@{k} {rec:.3} at default nprobe"
        );
    }
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_topk.json");
    println!("\n   wrote {out_path}");
}
