//! Cross-crate integration tests: the full pipeline from data generation
//! through decomposition to analysis, plus cross-method validation.

use dpar2_repro::baselines::{fit_with, Method, Spartan};
use dpar2_repro::core::{Dpar2, FitOptions, IterationEvent, StopReason};
use dpar2_repro::data::{planted_parafac2, planted_sparse, registry, tenrand_irregular};
use std::ops::ControlFlow;

/// All four solvers must reach comparable fitness on planted data — the
/// paper's "comparable accuracy" claim (Fig. 1).
#[test]
fn all_methods_agree_on_planted_data() {
    let tensor = planted_parafac2(&[40, 60, 35, 50], 24, 4, 0.1, 1001);
    let config = FitOptions::new(4).with_max_iterations(20).with_seed(7);
    let mut fitnesses = Vec::new();
    for method in Method::ALL {
        let fit = fit_with(method, &tensor, &config).expect("solver failed");
        let f = fit.fitness(&tensor);
        assert!(f > 0.9, "{} fitness {f}", method.name());
        fitnesses.push((method.name(), f));
    }
    let max = fitnesses.iter().map(|&(_, f)| f).fold(f64::MIN, f64::max);
    let min = fitnesses.iter().map(|&(_, f)| f).fold(f64::MAX, f64::min);
    assert!(max - min < 0.05, "methods disagree beyond tolerance: {fitnesses:?}");
}

/// DPar2 runs on every Table II dataset stand-in at smoke scale.
#[test]
fn dpar2_runs_on_every_registry_dataset() {
    for spec in registry() {
        let tensor = spec.generate_scaled(0.1, 5);
        let fit = Dpar2
            .fit(&tensor, &FitOptions::new(6).with_seed(6).with_max_iterations(8))
            .unwrap_or_else(|e| panic!("{} failed: {e}", spec.name));
        let f = fit.fitness(&tensor);
        assert!((0.0..=1.0 + 1e-9).contains(&f), "{}: fitness {f} out of range", spec.name);
        assert!(f > 0.3, "{}: implausibly low fitness {f}", spec.name);
        assert_eq!(fit.v.shape(), (tensor.j(), 6), "{}: V shape", spec.name);
    }
}

/// Rank sweep: higher rank must never reduce achievable fitness on the
/// same data (more expressive model).
#[test]
fn fitness_monotone_in_rank() {
    let tensor = planted_parafac2(&[50, 70, 40], 30, 6, 0.2, 1002);
    let mut last = 0.0;
    for rank in [2usize, 4, 6] {
        let fit = Dpar2
            .fit(&tensor, &FitOptions::new(rank).with_seed(8).with_max_iterations(20))
            .expect("fit failed");
        let f = fit.fitness(&tensor);
        assert!(f > last - 0.02, "fitness dropped from {last} to {f} at rank {rank}");
        last = f;
    }
}

/// The compressed convergence criterion must track the true reconstruction
/// error: when DPar2 says it converged, the true fitness must be stable too.
#[test]
fn compressed_criterion_tracks_true_error() {
    let tensor = planted_parafac2(&[45, 55, 60], 20, 3, 0.15, 1003);
    let short = Dpar2
        .fit(&tensor, &FitOptions::new(3).with_seed(9).with_max_iterations(6).with_tolerance(0.0))
        .unwrap();
    let long = Dpar2
        .fit(&tensor, &FitOptions::new(3).with_seed(9).with_max_iterations(30).with_tolerance(0.0))
        .unwrap();
    // More iterations → criterion and true error both improve (or hold).
    assert!(long.criterion_trace.last().unwrap() <= short.criterion_trace.last().unwrap());
    assert!(long.fitness(&tensor) >= short.fitness(&tensor) - 1e-6);
}

/// tenrand tensors (the paper's scalability workload) have no low-rank
/// structure: fitness is low but everything must still be well-behaved.
#[test]
fn tenrand_low_fitness_but_valid() {
    let tensor = tenrand_irregular(40, 30, 12, 1004);
    let fit = Dpar2.fit(&tensor, &FitOptions::new(5).with_seed(10).with_max_iterations(8)).unwrap();
    let f = fit.fitness(&tensor);
    // Uniform[0,1) tensors have a large rank-1 "DC" component, so fitness
    // is meaningful but far from 1.
    assert!(f > 0.5 && f < 0.99, "unexpected tenrand fitness {f}");
    for k in 0..tensor.k() {
        assert_eq!(fit.u[k].shape(), (40, 5));
    }
}

/// `Dpar2::fit` must be **bit-identical** across thread counts, not merely
/// close: the pooled GEMM layer fixes its reduction order (row panels of C
/// with ascending depth blocks), the lemma kernels reduce over fixed-width
/// slice chunks, and every per-slice fan-out preserves item order — so no
/// floating-point grouping anywhere depends on the schedule. This pins the
/// whole chain at once.
#[test]
fn fit_bit_identical_across_thread_counts() {
    let tensor = planted_parafac2(&[40, 65, 25, 55, 30, 45], 24, 4, 0.1, 1006);
    let reference = Dpar2.fit(&tensor, &FitOptions::new(4).with_seed(12).with_threads(1)).unwrap();
    for threads in [2, 4] {
        let fit =
            Dpar2.fit(&tensor, &FitOptions::new(4).with_seed(12).with_threads(threads)).unwrap();
        assert_eq!(fit.iterations, reference.iterations, "{threads} threads: iteration count");
        // Mat/Vec equality here is exact f64 comparison — any reduction
        // reordering would trip it.
        assert_eq!(fit.h, reference.h, "{threads} threads: H differs");
        assert_eq!(fit.v, reference.v, "{threads} threads: V differs");
        assert_eq!(fit.s, reference.s, "{threads} threads: S differs");
        assert_eq!(fit.u, reference.u, "{threads} threads: U differs");
        assert_eq!(
            fit.criterion_trace, reference.criterion_trace,
            "{threads} threads: criterion trace differs"
        );
    }
}

/// PARAFAC2 constraint: the cross-product U_kᵀU_k is slice-invariant for
/// every solver.
#[test]
fn cross_product_invariance_all_methods() {
    let tensor = planted_parafac2(&[30, 45, 25], 18, 3, 0.1, 1005);
    let config = FitOptions::new(3).with_max_iterations(10).with_seed(11);
    for method in Method::ALL {
        let fit = fit_with(method, &tensor, &config).expect("solver failed");
        let reference = fit.u[0].gram();
        for k in 1..tensor.k() {
            let dev = (&fit.u[k].gram() - &reference).fro_norm() / (1.0 + reference.fro_norm());
            assert!(dev < 1e-6, "{}: U_kᵀU_k varies across slices ({dev})", method.name());
        }
    }
}

/// Acceptance fixture for the observer API: on the fixed-seed end-to-end
/// tensor, the live criterion trace an observer sees is exactly the fit's
/// recorded trace and is monotonically non-increasing for DPar2.
#[test]
fn observer_trace_monotone_on_fixed_seed_fixture() {
    let tensor = planted_parafac2(&[40, 60, 35, 50], 24, 4, 0.1, 1001);
    let mut live: Vec<f64> = Vec::new();
    let mut fitness_trace: Vec<f64> = Vec::new();
    let mut observer = |e: &IterationEvent| {
        live.push(e.criterion);
        fitness_trace.push(e.fitness());
        ControlFlow::<StopReason>::Continue(())
    };
    let options = FitOptions::new(4).with_seed(7).with_max_iterations(20).with_tolerance(0.0);
    let fit = Dpar2.fit_observed(&tensor, &options, &mut observer).unwrap();
    assert_eq!(live, fit.criterion_trace, "observer must see the recorded trace, live");
    assert!(!live.is_empty());
    for pair in live.windows(2) {
        assert!(pair[1] <= pair[0] * (1.0 + 1e-9), "DPar2 observer trace increased: {live:?}");
    }
    // The live compressed fitness mirrors the criterion, so it must be
    // non-decreasing to the same tolerance.
    for pair in fitness_trace.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-9, "live fitness decreased: {fitness_trace:?}");
    }
}

/// Sparse end-to-end: a fully observed planted sparse model (density 1,
/// no noise) is recovered by `Spartan` through both entry points — the
/// CSR tensor directly and the registry's dense `fit` on its densified
/// form — and the two land on the same fit bit for bit. `J = 7` keeps
/// every dense product on the naive dispatch path, where the sparse
/// kernels' ordering discipline guarantees exact agreement.
#[test]
fn sparse_pipeline_recovers_planted_model_through_both_entry_points() {
    let sparse = planted_sparse(&[50, 70, 40, 60], 7, 3, 1.0, 0.0, 1007);
    let dense = sparse.to_dense();
    let config = FitOptions::new(3).with_max_iterations(25).with_seed(13).with_threads(1);

    let native = Spartan.fit(&sparse, &config).expect("sparse fit failed");
    let f = native.fitness(&dense);
    assert!(f > 0.99, "sparse fit missed the planted model: fitness {f}");

    let via_registry = fit_with(Method::Spartan, &dense, &config).expect("registry fit");
    assert_eq!(via_registry.iterations, native.iterations, "iteration count");
    assert_eq!(via_registry.stop_reason, native.stop_reason, "stop reason");
    assert_eq!(via_registry.h, native.h, "H differs between entry points");
    assert_eq!(via_registry.v, native.v, "V differs between entry points");
    assert_eq!(via_registry.s, native.s, "S differs between entry points");
    assert_eq!(via_registry.u, native.u, "U differs between entry points");
    assert_eq!(via_registry.criterion_trace, native.criterion_trace, "criterion trace");
}

/// The typed stop reason is consistent across every solver in the
/// registry: with a generous tolerance the solvers report Converged or
/// MaxIterations, never a cancellation they did not receive.
#[test]
fn stop_reasons_are_typed_for_every_method() {
    let tensor = planted_parafac2(&[30, 45, 25], 18, 3, 0.1, 1005);
    let config = FitOptions::new(3).with_max_iterations(10).with_seed(11);
    for method in Method::WITH_ABLATION {
        let fit = fit_with(method, &tensor, &config).expect("solver failed");
        assert!(
            matches!(fit.stop_reason, StopReason::Converged | StopReason::MaxIterations),
            "{}: unexpected stop reason {:?}",
            method.name(),
            fit.stop_reason
        );
        assert_eq!(fit.iterations, fit.criterion_trace.len(), "{}: trace length", method.name());
    }
}

/// Stage 1 sketches every route slice against one shared Gaussian `Ω`.
/// The randomized range finder asks only for an `Ω` independent of each
/// slice's data, so sharing it must cost no accuracy: the stage-1 energy
/// `Σ_k ‖A_kᵀX_k‖²` that `compress` captures stays within 1e-4 relative of
/// the pipeline that draws a fresh `Ω` per slice (`gram_svd` on the
/// per-slice stream `seed ⊕ φ·(k+1)`, written out below), on a planted
/// tensor of 240 route slices (noise 0.3) and on a small US-Stock-sim.
#[test]
fn shared_test_matrix_costs_no_stage1_accuracy() {
    use dpar2_repro::core::{compress, gram_route_applies, gram_svd, SliceTensor};
    use dpar2_repro::data::planted::powerlaw_row_dims;
    use dpar2_repro::linalg::Mat;
    use dpar2_repro::parallel::ThreadPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let stock = registry().into_iter().find(|s| s.name == "US-Stock-sim").unwrap();
    let dims = powerlaw_row_dims(240, 24, 96, 1007);
    let cases = [
        ("planted", planted_parafac2(&dims, 48, 10, 0.3, 1007)),
        ("US-Stock-sim", stock.generate_scaled(0.25, 1008)),
    ];
    let serial = ThreadPool::new(1);
    let seed = 13;
    let options = FitOptions::new(10).with_seed(seed);
    for (name, t) in cases {
        let energy = |k: usize, a: &Mat| a.matmul_tn(t.slice(k)).unwrap().fro_norm_sq();
        let c = compress(&t, &options).unwrap();
        let shared: f64 = (0..t.k()).map(|k| energy(k, &c.a[k])).sum();
        let fresh: f64 = (0..t.k())
            .map(|k| {
                let (rows, cols) = t.slice(k).shape();
                assert!(gram_route_applies(rows, cols, &options.rsvd), "{name}: slice {k}");
                let mut g = Mat::default();
                if rows < cols {
                    t.outer_gram_into(k, &mut g, &mut Mat::default());
                } else {
                    t.gram_into(k, &mut g);
                }
                let stream = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1);
                let mut rng = StdRng::seed_from_u64(stream);
                let f = gram_svd(t.slice(k), &mut g, &options.rsvd, &mut rng, &serial);
                energy(k, &f.expect("the route takes every slice").a)
            })
            .sum();
        let rel = (shared - fresh).abs() / fresh;
        eprintln!("{name}: K = {}, captured energy {shared} vs {fresh}, relative {rel:.2e}", t.k());
        assert!(rel <= 1e-4, "{name}: shared Ω captured {shared}, a fresh Ω per slice {fresh}");
    }
}
