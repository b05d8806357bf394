//! Fit phase: full `Dpar2::fit_observed` runs at nproc threads and at one
//! thread, and — in a traced run — replays of each layer of the fit on the
//! same tensor.

use crate::report::{median, time_median, Report};
use crate::workload::{Workload, RANK};
use crate::{alloc, calib};
use dpar2_core::convergence::compressed_criterion_ws;
use dpar2_core::lemmas::{g1_ws, g2_ws, g3_ws};
use dpar2_core::{
    compress, Dpar2, FitObserver, FitOptions, FitPhase, IterationEvent, NoopObserver, Parafac2Fit,
    RsvdConfig, StopReason, Workspace,
};
use dpar2_linalg::svd::svd_thin_into;
use dpar2_linalg::{Mat, SvdFactors, SvdScratch};
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::{rsvd, rsvd_pooled};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Records what a traced fit reports: phase spans and the allocation
/// counter at the start of the loop and after every iteration.
#[derive(Default)]
struct Tracer {
    phases: [f64; FitPhase::COUNT],
    allocs_at_loop: u64,
    allocs_after: Vec<u64>,
}

impl FitObserver for Tracer {
    fn on_iteration(&mut self, _event: &IterationEvent) -> ControlFlow<StopReason> {
        self.allocs_after.push(alloc::allocs());
        ControlFlow::Continue(())
    }

    fn on_phase(&mut self, phase: FitPhase, secs: f64) {
        if phase == FitPhase::Init {
            self.allocs_at_loop = alloc::allocs();
        }
        self.phases[phase.index()] += secs;
    }
}

impl Tracer {
    /// Mean allocations per iteration, the first (arena-warming) iteration
    /// included, and the steady-state mean over the later iterations.
    fn allocs_per_iter(&self) -> (f64, f64) {
        let n = self.allocs_after.len();
        let (Some(&first), Some(&last)) = (self.allocs_after.first(), self.allocs_after.last())
        else {
            return (0.0, 0.0);
        };
        let all = (last - self.allocs_at_loop) as f64 / n as f64;
        let steady = if n > 1 { (last - first) as f64 / (n - 1) as f64 } else { 0.0 };
        (all, steady)
    }
}

/// The options every full fit uses: the paper's settings.
pub fn options(seed: u64, threads: usize) -> FitOptions<'static> {
    FitOptions::new(RANK)
        .with_seed(seed)
        .with_threads(threads)
        .with_max_iterations(32)
        .with_tolerance(1e-4)
}

struct Timed {
    fit: Parafac2Fit,
    wall: f64,
}

fn run_fit(
    tensor: &IrregularTensor,
    opts: &FitOptions<'_>,
    observer: &mut dyn FitObserver,
) -> Option<Timed> {
    let t0 = Instant::now();
    let fit = Dpar2.fit_observed(black_box(tensor), opts, observer).ok()?;
    Some(Timed { fit, wall: t0.elapsed().as_secs_f64() })
}

/// What the fit phase hands to the traced replays.
pub struct FitOutcome {
    /// Median seconds of the 1-thread fits.
    pub fit_1t_s: f64,
}

/// Times full fits until `budget` is spent (at least `min_pairs` rounds of
/// one nproc-thread and one 1-thread fit; untraced runs skip the nproc fit
/// after the first round) and gates each on the fitness floor and on
/// bitwise-equal criterion traces across thread counts. The bounded
/// metrics come from the 1-thread fits, in reference seconds (see
/// [`calib`]), with their wall medians as notes: on a small shared host the nproc fit's speed depends on how busy the other
/// cores are (the same seed ran 0.59 s and 1.04 s on two vCPUs), so
/// `fit_s` is a layer metric.
#[allow(clippy::too_many_arguments)]
pub fn phase(
    w: &Workload,
    tensor: &IrregularTensor,
    seed: u64,
    nproc: usize,
    budget: Duration,
    min_pairs: usize,
    trace: bool,
    rep: &mut Report,
) -> FitOutcome {
    let (mut fit_s, mut fit_1t_s, mut pre_s, mut iter_ms, mut peak_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // The same 1-thread figures in reference seconds (see [`calib`]).
    let (mut ref_1t, mut ref_pre, mut ref_iter) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_1t, mut plain_1t) = (Vec::new(), Vec::new());
    let (mut allocs_1t, mut allocs_nt) = (Vec::new(), Vec::new());
    let mut tracer_1t = Tracer::default();
    let mut reference: Option<Vec<u64>> = None;
    let mut fitness = f64::NAN;
    let mut iterations = Vec::new();
    let mut speeds = Vec::new();
    let t_phase = Instant::now();
    let mut pair = 0;
    while pair < min_pairs || t_phase.elapsed() < budget {
        pair += 1;
        // An untraced run needs one nproc fit, for the criterion check and
        // the `fit_s` note; the rest of its budget buys 1-thread samples.
        let thread_counts: &[usize] = if trace || pair == 1 { &[nproc, 1] } else { &[1] };
        for &threads in thread_counts {
            let opts = options(seed, threads);
            // In a traced run every other 1-thread fit goes unobserved, so
            // the observer's own cost shows as `trace.overhead`.
            let observe = trace && (threads != 1 || pair % 2 == 1);
            let mut tracer = Tracer::default();
            let observer: &mut dyn FitObserver =
                if observe { &mut tracer } else { &mut NoopObserver };
            let before = calib::factor();
            let base = alloc::reset_peak();
            rep.attempt("fits");
            let Some(t) = run_fit(tensor, &opts, observer) else {
                rep.fail("fits", format!("{} fit at {threads} threads returned an error", w.name));
                continue;
            };
            // The host's speed over the fit: the probe right before and
            // right after it, geometric mean.
            let speed = (before * calib::factor()).sqrt();
            speeds.push(speed);
            let peak = (alloc::peak() - base) as f64 / (1024.0 * 1024.0);
            let f = t.fit.fitness(tensor);
            fitness = f;
            if f.is_nan() || f < w.fitness_floor {
                rep.fail("fits", format!("fitness {f} below the floor {}", w.fitness_floor));
                continue;
            }
            let bits: Vec<u64> = t.fit.criterion_trace.iter().map(|c| c.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) if *r != bits => {
                    rep.fail("fits", format!("criterion trace at {threads} threads differs"));
                    continue;
                }
                Some(_) => {}
            }
            if threads == nproc {
                fit_s.push(t.wall);
                if observe && threads != 1 {
                    allocs_nt.push(tracer.allocs_per_iter());
                }
            }
            if threads == 1 {
                fit_1t_s.push(t.wall);
                iterations.push(t.fit.iterations as f64);
                pre_s.push(t.fit.timing.preprocess_secs);
                iter_ms.push(median(&t.fit.timing.per_iteration_secs) * 1e3);
                ref_1t.push(t.wall * speed);
                ref_pre.push(t.fit.timing.preprocess_secs * speed);
                ref_iter.push(median(&t.fit.timing.per_iteration_secs) * 1e3 * speed);
                peak_mb.push(peak);
                if observe {
                    traced_1t.push(t.wall);
                    allocs_1t.push(tracer.allocs_per_iter());
                    tracer_1t = tracer;
                } else {
                    plain_1t.push(t.wall);
                }
            }
        }
    }
    let fit_1t = median(&fit_1t_s);
    if trace {
        let phases = tracer_1t.phases;
        rep.layer("compress.share", phases[FitPhase::Compress.index()] / fit_1t);
        rep.layer("solver.iterate_share", phases[FitPhase::Iterate.index()] / fit_1t);
        rep.layer("solver.init_s", phases[FitPhase::Init.index()]);
        rep.layer("solver.finalize_s", phases[FitPhase::Finalize.index()]);
        rep.layer("solver.iterations", tracer_1t.allocs_after.len() as f64);
        // With one core the nproc fit is the 1-thread fit.
        let nt = if nproc == 1 { &allocs_1t } else { &allocs_nt };
        let mean_of = |v: &[(f64, f64)], pick: fn(&(f64, f64)) -> f64| {
            median(&v.iter().map(pick).collect::<Vec<_>>())
        };
        rep.layer("solver.allocs_per_iter_1t", mean_of(&allocs_1t, |a| a.0));
        rep.layer("solver.allocs_per_iter_2t", mean_of(nt, |a| a.0));
        rep.note("solver.steady_allocs_per_iter_1t", mean_of(&allocs_1t, |a| a.1));
        rep.note("solver.steady_allocs_per_iter_nt", mean_of(nt, |a| a.1));
        rep.layer("fit_s", median(&fit_s));
        rep.layer("parallel.speedup", fit_1t / median(&fit_s));
        let plain = if plain_1t.is_empty() { fit_1t } else { median(&plain_1t) };
        rep.layer("trace.overhead", median(&traced_1t) / plain);
    } else {
        rep.note("fit_s", median(&fit_s));
        rep.metric("fit_1t_s", median(&ref_1t));
        rep.metric("preprocess_s", median(&ref_pre));
        rep.metric("iter_ms", median(&ref_iter));
        rep.note("fit_1t_wall_s", fit_1t);
        rep.note("preprocess_wall_s", median(&pre_s));
        rep.note("iter_wall_ms", median(&iter_ms));
        rep.metric("fitness", fitness);
        rep.metric("peak_heap_mb", median(&peak_mb));
    }
    rep.note("fit_pairs", pair as f64);
    rep.note("fit_iterations", median(&iterations));
    rep.note("host_speed", median(&speeds));
    FitOutcome { fit_1t_s: fit_1t }
}

/// Per-slice stage-1 seed, mirroring the compression's own derivation (the
/// stage-2 seed below mirrors it too).
fn stage1_seed(base: u64, k: usize) -> u64 {
    base ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1)
}

/// Replays every layer of one 1-thread fit on `tensor` from outside the
/// solver and records its time: stage-1 and stage-2 compression, then one
/// iteration's `Q_k` update, Lemma 1–3 kernels and criterion on the first
/// iteration's inputs. `trace.coverage` is the replayed total over the
/// measured 1-thread fit.
pub fn replay_layers(tensor: &IrregularTensor, seed: u64, fit: &FitOutcome, rep: &mut Report) {
    let opts = options(seed, 1);
    let r = RANK;
    let cfg = RsvdConfig { rank: r, ..opts.rsvd };
    let pool = ThreadPool::new(1);

    // Stage 1: the per-slice randomized SVDs.
    let t0 = Instant::now();
    let stage1: Vec<SvdFactors> = (0..tensor.k())
        .map(|k| rsvd(tensor.slice(k), &cfg, &mut StdRng::seed_from_u64(stage1_seed(seed, k))))
        .collect();
    let stage1_s = t0.elapsed().as_secs_f64();
    // GEMM passes over each slice: the sketch, two per power iteration and
    // the projection, each 2·I·J·l flops (QR and small SVDs not counted).
    let l = (r + cfg.oversample).min(tensor.j());
    let passes = 2 + 2 * cfg.power_iterations;
    let flops: f64 =
        (0..tensor.k()).map(|k| (2 * tensor.i(k) * tensor.j() * l * passes) as f64).sum();

    // Stage 2: the randomized SVD of the J × KR concatenation of C_k B_k.
    let cb: Vec<Mat> = stage1
        .iter()
        .map(|f| {
            let mut cb = f.v.clone();
            for i in 0..cb.rows() {
                for (x, &s) in cb.row_mut(i).iter_mut().zip(&f.s) {
                    *x *= s;
                }
            }
            cb
        })
        .collect();
    let m = Mat::hstack_all(&cb.iter().collect::<Vec<_>>());
    let mut rng2 = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let t0 = Instant::now();
    black_box(rsvd_pooled(&m, &cfg, &mut rng2, &pool));
    let stage2_s = t0.elapsed().as_secs_f64();

    let ct = compress(tensor, &opts).expect("the fit phase compressed this tensor");
    rep.layer("compress.stage1_s", stage1_s);
    rep.layer("compress.stage2_s", stage2_s);
    rep.layer("rsvd.stage1_gflops", flops / stage1_s / 1e9);
    rep.layer("compress.ratio", ct.compression_ratio(tensor));

    // First-iteration inputs, as the solver builds them on a cold start.
    let k_dim = ct.k();
    let edt = ct.edt();
    let mut de = ct.d.clone();
    for i in 0..de.rows() {
        for (x, &e) in de.row_mut(i).iter_mut().zip(&ct.e) {
            *x *= e;
        }
    }
    let h = Mat::eye(r);
    let v = ct.d.clone();
    let wm = Mat::ones(k_dim, r);
    let edtv = edt.matmul(&v).expect("EDᵀ·V");
    let mut zp = vec![Mat::default(); k_dim];
    let mut pzf = vec![Mat::default(); k_dim];
    let (mut t1, mut t2) = (Mat::default(), Mat::default());
    let mut svd_out = SvdFactors::default();
    let mut svd_ws = SvdScratch::default();
    let qk = time_median(5, || {
        for k in 0..k_dim {
            let f_k = &ct.f_blocks[k];
            f_k.matmul_into(&edtv, &mut t1);
            for i in 0..t1.rows() {
                for (x, &s) in t1.row_mut(i).iter_mut().zip(wm.row(k)) {
                    *x *= s;
                }
            }
            t1.matmul_nt_into(&h, &mut t2);
            svd_thin_into(&t2, &mut svd_out, &mut svd_ws);
            svd_out.u.matmul_nt_into(&svd_out.v, &mut zp[k]);
            zp[k].matmul_tn_into(f_k, &mut pzf[k]);
        }
    });
    let mut ws = Workspace::new();
    let mut g = Mat::default();
    let reps = 21;
    let g1 = time_median(reps, || g1_ws(&pzf, &wm, &edtv, &pool, &mut g, &mut ws));
    let g2 = time_median(reps, || g2_ws(&pzf, &wm, &h, &de, &pool, &mut g, &mut ws));
    let g3 = time_median(reps, || g3_ws(&pzf, &edtv, &h, &pool, &mut g, &mut ws));
    let crit = time_median(reps, || {
        black_box(compressed_criterion_ws(&pzf, &edt, &h, &wm, &v, &pool, &mut ws));
    });
    rep.layer("solver.qk_update_ms", qk * 1e3);
    rep.layer("lemmas.g1_us", g1 * 1e6);
    rep.layer("lemmas.g2_us", g2 * 1e6);
    rep.layer("lemmas.g3_us", g3 * 1e6);
    rep.layer("convergence.criterion_ms", crit * 1e3);

    // One 2-thread fan-out over trivial items: the fixed cost every
    // parallel region of a multi-threaded fit pays.
    let two = ThreadPool::new(2);
    let items = [0u64; 2];
    let dispatch = time_median(201, || {
        black_box(two.map(&items, |i, &x| x + i as u64));
    });
    rep.layer("parallel.dispatch_us", dispatch * 1e6);

    let iterations = rep.layer_value("solver.iterations").unwrap_or(0.0);
    let init = rep.layer_value("solver.init_s").unwrap_or(0.0);
    let fin = rep.layer_value("solver.finalize_s").unwrap_or(0.0);
    let replayed = stage1_s + stage2_s + init + fin + iterations * (qk + g1 + g2 + g3 + crit);
    rep.layer("trace.coverage", replayed / fit.fit_1t_s);
}
