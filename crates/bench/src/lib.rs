//! # dpar2-bench
//!
//! Harness utilities shared by the figure/table binaries in `src/bin/`.
//! Each binary regenerates one figure or table of the DPar2 paper's
//! evaluation section; see the "Benchmarks" section of `README.md` for how
//! to run them.
//!
//! Common CLI flags (hand-rolled parser, no external deps):
//!
//! * `--scale <f64>`   — dataset scale factor (default 1.0; 0.25 ≈ smoke run)
//! * `--rank <usize>`  — target rank `R` (default 10, as in the paper)
//! * `--iters <usize>` — max ALS iterations (default 32, as in the paper)
//! * `--threads <usize>` — worker threads (default 1 on this 1-core host)
//! * `--seed <u64>`    — RNG seed (default 0)
//! * `--methods <list>` — comma-separated solver names (`dpar2,rd-als,…`
//!   via `Method::from_str`; default `all` = the paper's four)

use dpar2_baselines::{fit_with, Method};
use dpar2_core::{FitOptions, Parafac2Fit, Result};
use dpar2_linalg::random::gaussian_mat;
use dpar2_linalg::{
    extract_lane, gemm_lanes, interleave_lanes, LaneOperand, Mat, Trans, SVD_LANES,
};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Parsed command-line options: `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()` into `--key value` pairs.
    ///
    /// # Panics
    /// Panics on a dangling `--key` without a value.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit token stream (testable entry point).
    ///
    /// # Panics
    /// Panics on a dangling `--key` without a value.
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut map = HashMap::new();
        let mut iter = tokens.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let val = iter.next().unwrap_or_else(|| panic!("missing value for --{key}"));
                map.insert(key.to_string(), val);
            }
        }
        Args { map }
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        match self.map.get(key) {
            Some(v) => v.parse().unwrap_or_else(|e| panic!("bad value for --{key}: {e:?}")),
            None => default,
        }
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map.get(key).cloned().unwrap_or_else(|| default.to_string())
    }
}

/// The standard experiment parameters shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Target rank.
    pub rank: usize,
    /// Max ALS iterations.
    pub iters: usize,
    /// Worker threads.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads the standard flags from parsed [`Args`].
    pub fn from_args(args: &Args) -> Self {
        HarnessConfig {
            scale: args.get("scale", 1.0),
            rank: args.get("rank", 10),
            iters: args.get("iters", 32),
            threads: args.get("threads", 1),
            seed: args.get("seed", 0),
        }
    }

    /// The matching solver options.
    pub fn fit_options(&self) -> FitOptions<'static> {
        FitOptions::new(self.rank)
            .with_max_iterations(self.iters)
            .with_threads(self.threads)
            .with_seed(self.seed)
    }
}

/// Parses `--methods` into solver selections by name (`gemm_kernels`-style
/// comma lists, via `Method::from_str`). `all` (the default) is the
/// paper's four-method figure set; `with-ablation` adds the §III-C naive
/// strawman.
///
/// # Panics
/// Panics with the parse error's message (listing valid names) on an
/// unknown method.
pub fn methods_arg(args: &Args) -> Vec<Method> {
    match args.get_str("methods", "all").as_str() {
        "all" => Method::ALL.to_vec(),
        "with-ablation" => Method::WITH_ABLATION.to_vec(),
        list => list
            .split(',')
            .map(|tok| tok.trim().parse().unwrap_or_else(|e| panic!("--methods: {e}")))
            .collect(),
    }
}

/// Whether a sweep's table gets the `best-other/DPar2` ratio column:
/// DPar2 must lead the selection and have at least one competitor.
pub fn dpar2_leads(methods: &[Method]) -> bool {
    methods.first() == Some(&Method::Dpar2) && methods.len() > 1
}

/// Table header for a method sweep: label column(s), one column per
/// selected method, plus the DPar2-vs-best-other ratio when
/// [`dpar2_leads`].
pub fn sweep_header(labels: &[&'static str], methods: &[Method]) -> Vec<&'static str> {
    let mut header: Vec<&'static str> = labels.to_vec();
    header.extend(methods.iter().map(Method::name));
    if dpar2_leads(methods) {
        header.push("best-other/DPar2");
    }
    header
}

/// One measured run: method × dataset × rank with timing and fitness.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Method display name.
    pub method: &'static str,
    /// Dataset display name.
    pub dataset: String,
    /// Target rank.
    pub rank: usize,
    /// Total wall-clock seconds.
    pub total_secs: f64,
    /// Preprocessing seconds (0 when the method has no such phase).
    pub preprocess_secs: f64,
    /// Mean seconds per ALS iteration.
    pub iter_secs: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Fitness (§IV-A) on the input tensor.
    pub fitness: f64,
}

/// Runs one method on one tensor and packages the measurement.
///
/// # Errors
/// Propagates solver errors (invalid rank).
pub fn measure(
    method: Method,
    dataset: &str,
    tensor: &IrregularTensor,
    options: &FitOptions<'_>,
) -> Result<RunRecord> {
    let fit: Parafac2Fit = fit_with(method, tensor, options)?;
    Ok(RunRecord {
        method: method.name(),
        dataset: dataset.to_string(),
        rank: options.rank,
        total_secs: fit.timing.total_secs,
        preprocess_secs: fit.timing.preprocess_secs,
        iter_secs: fit.timing.mean_iteration_secs(),
        iterations: fit.iterations,
        fitness: fit.fitness(tensor),
    })
}

/// Renders records as an aligned text table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
        println!("  {}", joined.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Formats seconds for tables to three significant digits (`5.00ms`,
/// `22.4ms`, `500ms`, `2.00s`), so a 1% change shows at every scale.
pub fn fmt_secs(s: f64) -> String {
    let ms = s * 1e3;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 10.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{ms:.2}ms")
    }
}

/// Formats byte counts (8 bytes per f64) for the Fig. 10 table.
pub fn fmt_bytes(floats: usize) -> String {
    let bytes = floats as f64 * 8.0;
    if bytes >= 1e9 {
        format!("{:.2}GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2}MB", bytes / 1e6)
    } else {
        format!("{:.1}KB", bytes / 1e3)
    }
}

/// Sparkline-style ASCII bar for quick visual comparison in terminals.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs() {
        let a = Args::from_tokens(["--scale", "0.5", "--rank", "15"].iter().map(|s| s.to_string()));
        assert_eq!(a.get("scale", 1.0), 0.5);
        assert_eq!(a.get("rank", 10usize), 15);
        assert_eq!(a.get("iters", 32usize), 32); // default
        assert_eq!(a.get_str("axis", "size"), "size");
    }

    #[test]
    #[should_panic(expected = "missing value")]
    fn dangling_flag_panics() {
        Args::from_tokens(["--rank"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn harness_config_defaults() {
        let c = HarnessConfig::from_args(&Args::default());
        assert_eq!(c.rank, 10);
        assert_eq!(c.iters, 32);
        assert_eq!(c.scale, 1.0);
    }

    #[test]
    fn measure_runs_every_method() {
        let t = dpar2_data::planted_parafac2(&[20, 30, 16], 12, 3, 0.1, 5);
        let cfg = FitOptions::new(3).with_max_iterations(3);
        for m in Method::ALL {
            let rec = measure(m, "test", &t, &cfg).unwrap();
            assert!(rec.fitness > 0.5, "{} fitness {}", rec.method, rec.fitness);
            assert!(rec.total_secs > 0.0);
        }
    }

    #[test]
    fn methods_arg_selects_by_name() {
        let default = methods_arg(&Args::default());
        assert_eq!(default, Method::ALL.to_vec());
        let a = Args::from_tokens(["--methods", "dpar2, spartan"].iter().map(|s| s.to_string()));
        assert_eq!(methods_arg(&a), vec![Method::Dpar2, Method::Spartan]);
        let all = Args::from_tokens(["--methods", "with-ablation"].iter().map(|s| s.to_string()));
        assert_eq!(methods_arg(&all), Method::WITH_ABLATION.to_vec());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.005), "5.00ms");
        assert_eq!(fmt_secs(0.5), "500ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert_eq!(fmt_secs(0.00999), "9.99ms");
        assert_eq!(fmt_secs(0.01), "10.0ms");
        assert_eq!(fmt_secs(0.02244), "22.4ms");
        assert_eq!(fmt_secs(0.999), "999ms");
        assert_eq!(fmt_secs(1.0), "1.00s");
        assert_eq!(fmt_bytes(1000), "8.0KB");
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}

/// One lane group of the DPar2 `Q_k` step's `R×R` product chain, for the
/// `gemm_kernels` table and the `qk_chain` criterion case: per slice
/// `F(k)·(E Dᵀ V)`, `·Hᵀ`, then `U Vᵀ` and `(Z_k P_kᵀ)ᵀ F(k)` from given
/// SVD factors. [`QkChain::lanes`] runs it the way the solver does (one
/// slice per lane, `gemm_lanes`, `F(k)` interleaved and the results
/// extracted; the SVD inputs stay in a lane store and the factors arrive
/// in lane stores, as `svd_square_lanes` reads and writes them);
/// [`QkChain::per_slice`] with one `gemm` call per product on `Mat`s.
#[derive(Debug)]
pub struct QkChain {
    r: usize,
    f: Vec<Mat>,
    edtv: Mat,
    h: Mat,
    u: Vec<Mat>,
    v: Vec<Mat>,
    /// Outputs: SVD inputs, `Z_k P_kᵀ`, `PZF_k`.
    out: [Vec<Mat>; 3],
    /// `F(k)·(E Dᵀ V)` of one slice.
    prod: Mat,
    /// Lane stores: `F(k)`, two products, `Z_k P_kᵀ`, and the factors'
    /// `U` and `V`.
    lanes: [Vec<[f64; SVD_LANES]>; 6],
}

impl QkChain {
    /// Gaussian operands for one group of [`SVD_LANES`] slices at rank `r`.
    pub fn new(r: usize, seed: u64) -> QkChain {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mats = |n: usize| (0..n).map(|_| gaussian_mat(r, r, &mut rng)).collect::<Vec<_>>();
        let (f, u, v, shared) = (mats(SVD_LANES), mats(SVD_LANES), mats(SVD_LANES), mats(2));
        let [edtv, h] = <[Mat; 2]>::try_from(shared).expect("two shared operands");
        let out = [(); 3].map(|_| vec![Mat::default(); SVD_LANES]);
        let mut lanes: [Vec<[f64; SVD_LANES]>; 6] = Default::default();
        interleave_lanes(&u, r, &mut lanes[4]);
        interleave_lanes(&v, r, &mut lanes[5]);
        QkChain { r, f, edtv, h, u, v, out, prod: Mat::default(), lanes }
    }

    /// The chain with one `gemm` call per product and slice.
    pub fn per_slice(&mut self) {
        let [inputs, zpt, pzf] = &mut self.out;
        for l in 0..SVD_LANES {
            self.f[l].matmul_into(&self.edtv, &mut self.prod);
            self.prod.matmul_nt_into(&self.h, &mut inputs[l]);
            self.u[l].matmul_nt_into(&self.v[l], &mut zpt[l]);
            zpt[l].matmul_tn_into(&self.f[l], &mut pzf[l]);
        }
    }

    /// The chain one slice per lane through `gemm_lanes`, with the
    /// solver's interleaving; the results leave the lane stores into
    /// per-slice `Mat`s (the solver copies them into the rows of its
    /// `K × R²` stores instead).
    pub fn lanes(&mut self) {
        let (r, [f, a, b, zp, u, v]) = (self.r, &mut self.lanes);
        let [_, zpt, pzf] = &mut self.out;
        interleave_lanes(&self.f, r, f);
        gemm_lanes(Trans::N, Trans::N, r, f, LaneOperand::Shared(&self.edtv), a);
        gemm_lanes(Trans::N, Trans::T, r, a, LaneOperand::Shared(&self.h), b);
        gemm_lanes(Trans::N, Trans::T, r, u, LaneOperand::PerLane(v), zp);
        gemm_lanes(Trans::T, Trans::N, r, zp, LaneOperand::PerLane(f), a);
        for (l, (z, p)) in zpt.iter_mut().zip(pzf.iter_mut()).enumerate() {
            extract_lane(zp, r, l, z);
            extract_lane(a, r, l, p);
        }
    }
}
