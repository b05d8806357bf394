//! Metric names and units, the result record of one run, and the result
//! line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, printed by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("fit_1t_s", "s"),
    ("preprocess_s", "s"),
    ("iter_ms", "ms"),
    ("fitness", "ratio"),
    ("peak_heap_mb", "MiB"),
    ("query_ok_rate", "ratio"),
];

/// `(name, unit)` of every per-layer metric, printed by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Serving latencies, freshness and capacity: their run-to-run spread on
    // a small shared host is too wide to bound, so the traced run reports
    // them.
    ("query_p50_us", "us"),
    ("query_live_p50_us", "us"),
    ("query_p99_us", "us"),
    ("fresh_ms", "ms"),
    ("fresh_load_ms", "ms"),
    ("capacity_qps", "1/s"),
    ("fit_s", "s"),
    ("compress.stage1_s", "s"),
    ("compress.stage2_s", "s"),
    ("compress.share", "ratio"),
    ("rsvd.stage1_gflops", "GFLOP/s"),
    ("compress.ratio", "ratio"),
    ("solver.init_s", "s"),
    ("solver.finalize_s", "s"),
    ("solver.iterations", "count"),
    ("solver.iterate_share", "ratio"),
    ("solver.qk_update_ms", "ms"),
    ("lemmas.g1_us", "us"),
    ("lemmas.g2_us", "us"),
    ("lemmas.g3_us", "us"),
    ("convergence.criterion_ms", "ms"),
    ("solver.allocs_per_iter_1t", "count"),
    ("solver.allocs_per_iter_2t", "count"),
    ("parallel.dispatch_us", "us"),
    ("parallel.speedup", "ratio"),
    ("net.codec_ns", "ns"),
    ("net.batch_mean", "count"),
    ("net.admit_rate", "ratio"),
    ("engine.hit_us", "us"),
    ("engine.indexed_us", "us"),
    ("engine.exact_us", "us"),
    ("engine.cache_hit_rate", "ratio"),
    ("index.scan_frac", "ratio"),
    ("index.build_ms", "ms"),
    ("streaming.append_ms", "ms"),
    ("streaming.refit_ms", "ms"),
    ("loadgen.lag_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Median of `v` (the mean of the two middle values for even lengths);
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated `q`-quantile of `v`; `NaN` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median seconds of `reps` calls of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Attempts and failures of one kind of operation.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, f64>,
    tallies: BTreeMap<&'static str, Tally>,
    failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// A figure every run measures that is printed as a layer metric.
    pub fn both(&mut self, name: &'static str, value: f64) {
        self.layer(name, value);
        self.note(name, value);
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.get(name).copied()
    }

    /// A figure printed with the run's accounting but not a named metric.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// Adds `value` to a note.
    pub fn note_add(&mut self, name: &'static str, value: f64) {
        *self.notes.entry(name).or_default() += value;
    }

    pub fn attempt(&mut self, kind: &'static str) {
        self.attempts(kind, 1);
    }

    pub fn attempts(&mut self, kind: &'static str, n: u64) {
        self.tallies.entry(kind).or_default().attempted += n;
    }

    /// One failed operation of `kind`; the first few reasons are kept.
    pub fn fail(&mut self, kind: &'static str, why: String) {
        self.fails(kind, 1, &[why]);
    }

    /// `n` failed operations of `kind`, with some of their reasons.
    pub fn fails(&mut self, kind: &'static str, n: u64, reasons: &[String]) {
        self.tallies.entry(kind).or_default().failed += n;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(reasons.iter().take(room).cloned());
    }

    /// A failed check that is not one operation (counts under `checks`).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempt("checks");
        if !ok {
            self.fail("checks", why());
        }
    }

    pub fn failed(&self) -> u64 {
        self.tallies.values().map(|t| t.failed).sum()
    }

    /// The per-kind accounting line: attempted and failed fits, queries,
    /// appends and checks, plus the run's notes.
    pub fn accounting(&self) -> String {
        let mut out = String::from("{");
        for (i, (kind, t)) in self.tallies.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{kind}\": {{\"attempted\": {}, \"failed\": {}}}",
                t.attempted, t.failed
            );
        }
        for (name, v) in &self.notes {
            let _ = write!(out, ", \"{name}\": {}", json_number(*v));
        }
        out.push('}');
        out
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The result line: every metric of the run's kind by name with its
    /// unit. A metric that is missing or not finite makes the run incorrect.
    pub fn result_line(&mut self, trace: bool) -> String {
        let (names, values) =
            if trace { (PER_LAYER, &self.layers) } else { (END_TO_END, &self.metrics) };
        let mut body = String::new();
        let mut missing = Vec::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = values.get(name).copied().filter(|v| v.is_finite());
            if v.is_none() {
                missing.push(*name);
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v.unwrap_or(-1.0))
            );
        }
        for name in missing {
            self.check(false, || format!("metric {name} missing or not finite"));
        }
        let attempted: u64 = self.tallies.values().map(|t| t.attempted).sum();
        let failed = self.failed();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            failed == 0,
            attempted.max(1),
        )
    }
}

/// A finite `f64` as JSON (full precision, never an exponent form JSON
/// rejects); non-finite values print as `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_numbers_are_valid() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
