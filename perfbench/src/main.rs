//! The repository benchmark: one run of one workload.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload tall-slices --seed 1 --seconds 40 --trace 0
//! ```
//!
//! A run generates its inputs from the seed, times full fits for a share of
//! `--seconds` with nothing else running, sets the serving stack up three
//! times (`setup_s` is the median), then serves the fitted model over
//! loopback while ingest appends new slices, and checks every output on the
//! way. With `--trace 1` it also replays each layer from outside and prints
//! the per-layer metrics instead of the end-to-end ones. The last line of
//! standard output is the result; the lines before it carry the provenance
//! and the per-kind accounting of attempted and failed operations.

mod alloc;
mod calib;
mod fit;
mod report;
mod serve;
mod workload;

use report::{json_number, median, Report};
use std::time::{Duration, Instant};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Tracking = alloc::Tracking;

/// Share of `--seconds` spent timing full fits; the rest serves.
const FIT_SHARE: f64 = 0.7;

const USAGE: &str = "usage: perfbench --workload <tall-slices|many-slices> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Shrinks every input to the self-test size (set by the self-test
    /// only).
    tiny: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(workload::find(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, tiny: false })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs one workload into `rep`.
fn run(args: &Args, rep: &mut Report) {
    let w = &args.workload;
    let nproc = nproc();
    let serve = Duration::from_secs_f64(args.seconds * (1.0 - FIT_SHARE));
    // One batch per second of serving (more than the live open loop needs),
    // the quiet appends, and one for the replays.
    let batches = serve.as_secs() as usize + serve::QUIET_APPENDS + 2;

    // Fits first, while no serving thread exists.
    let input = workload::generate(w, args.seed, args.tiny, batches);
    let fit_budget = Duration::from_secs_f64(args.seconds * FIT_SHARE);
    let min_pairs = if args.tiny { 1 } else { 3 };
    let fitted =
        fit::phase(w, &input.tensor, args.seed, nproc, fit_budget, min_pairs, args.trace, rep);
    if args.trace {
        fit::replay_layers(&input.tensor, args.seed, &fitted, rep);
    }

    // Each setup generates the inputs again (the same for the seed) and
    // starts a serving stack; the last one stays up for the serve phase.
    // Setups are in reference seconds (see `calib`): the probe runs before
    // each, with the previous stack shut down, and after it, with the new
    // stack idle.
    let (mut setups, mut setups_wall) = (Vec::new(), Vec::new());
    let mut current = None;
    for _ in 0..if args.tiny { 2 } else { 3 } {
        if let Some(serving) = current.take() {
            serve::Serving::shutdown(serving);
        }
        let before = calib::factor();
        let t0 = Instant::now();
        let generated = workload::generate(w, args.seed, args.tiny, batches);
        current = Some(serve::setup(&generated, args.seed, nproc, args.trace));
        let wall = t0.elapsed().as_secs_f64();
        setups.push(wall * (before * calib::factor()).sqrt());
        setups_wall.push(wall);
    }
    rep.metric("setup_s", median(&setups));
    rep.note("setup_wall_s", median(&setups_wall));
    let serving = current.expect("at least one setup ran");

    serve::phase(&serving, &input.batches, args.seed, nproc, serve, args.trace, rep);
    serving.shutdown();
}

/// Host, build and run settings every result is tied to.
fn provenance(args: &Args) -> String {
    let mut simd = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            simd.push("avx2");
        }
        if is_x86_feature_detected!("fma") {
            simd.push("fma");
        }
        if is_x86_feature_detected!("avx512f") {
            simd.push("avx512f");
        }
    }
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"simd\": \"{}\", \"git_rev\": \"{}\", \"rustc\": \"{}\", \
         \"offered_qps\": {}}}",
        args.workload.name,
        args.seed,
        json_number(args.seconds),
        args.trace,
        nproc(),
        simd.join(","),
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_RUSTC"),
        json_number(workload::OFFERED_QPS),
    )
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    run(&args, &mut rep);
    let result = rep.result_line(args.trace);
    for why in rep.failures() {
        eprintln!("perfbench: failed: {why}");
    }
    println!("# provenance {}", provenance(&args));
    println!("# accounting {}", rep.accounting());
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at the self-test size, untraced and traced: no
    /// operation fails and every named metric is printed with its unit and
    /// a finite value.
    #[test]
    fn tiny_runs_emit_every_metric() {
        for w in workload::WORKLOADS {
            for trace in [false, true] {
                let args = Args { workload: w, seed: 3, seconds: 1.0, trace, tiny: true };
                let mut rep = Report::default();
                run(&args, &mut rep);
                let line = rep.result_line(trace);
                assert_eq!(rep.failed(), 0, "{} trace={trace}: {:?}", w.name, rep.failures());
                let names = if trace { report::PER_LAYER } else { report::END_TO_END };
                for (name, unit) in names {
                    let key = format!("\"{name}\": {{\"value\": ");
                    let at = line.find(&key).unwrap_or_else(|| panic!("{name} missing"));
                    let rest = &line[at + key.len()..];
                    let value: f64 = rest[..rest.find(',').expect("unit follows")]
                        .parse()
                        .unwrap_or_else(|_| panic!("{name} is not a number in {line}"));
                    assert!(value.is_finite(), "{name}");
                    assert!(rest.contains(&format!("\"unit\": \"{unit}\"")), "{name} unit");
                }
            }
        }
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program runs and prints.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closed")])
            .collect();
        let mut expected: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        expected.extend(report::END_TO_END.iter().map(|m| m.0));
        expected.extend(report::PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, expected);
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        assert!(parse("--workload many-slices --seed 4 --seconds 3 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload tall-slices --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload tall-slices --seconds").is_err());
        assert!(parse("--workload tall-slices --tiny").is_err());
    }
}
