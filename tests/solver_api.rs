//! Conformance and session-control tests for the unified `Parafac2Solver`
//! surface:
//!
//! * **trait-object conformance** — for every registered solver, fitting
//!   through `Box<dyn Parafac2Solver>` (the `Method` registry) is
//!   bit-identical to the direct inherent call on a fixed-seed tensor;
//! * **cancellation** — an observer that breaks at iteration `k` yields
//!   `StopReason::Cancelled` with exactly `k` recorded iterations, on
//!   every solver;
//! * **time budget** — a zero time budget stops after the first iteration
//!   with `StopReason::TimeBudget` and never panics, on every solver;
//! * **warm starts** — `FitOptions::with_warm_start` is honored and
//!   shape-checked uniformly.

use dpar2_repro::baselines::{
    fit_with, fit_with_observer, Method, NaiveCompressedAls, Parafac2Als, RdAls, Spartan,
};
use dpar2_repro::core::{
    CancelToken, Dpar2, Dpar2Error, FitOptions, IterationEvent, Parafac2Fit, Parafac2Solver,
    RsvdConfig, StopReason,
};
use dpar2_repro::data::planted_parafac2;
use dpar2_repro::tensor::{IrregularTensor, SparseIrregularTensor};
use std::ops::ControlFlow;
use std::time::Duration;

fn fixture() -> IrregularTensor {
    planted_parafac2(&[22, 30, 18, 26], 14, 3, 0.2, 2001)
}

fn options() -> FitOptions<'static> {
    FitOptions::new(3).with_seed(2002).with_max_iterations(8)
}

/// Everything deterministic in a fit, compared bitwise (timing excluded —
/// wall-clock is never reproducible).
fn assert_bit_identical(a: &Parafac2Fit, b: &Parafac2Fit, label: &str) {
    assert_eq!(a.iterations, b.iterations, "{label}: iterations");
    assert_eq!(a.stop_reason, b.stop_reason, "{label}: stop reason");
    assert_eq!(a.h, b.h, "{label}: H differs");
    assert_eq!(a.v, b.v, "{label}: V differs");
    assert_eq!(a.s, b.s, "{label}: S differs");
    assert_eq!(a.u, b.u, "{label}: U differs");
    assert_eq!(a.criterion_trace, b.criterion_trace, "{label}: criterion trace differs");
}

/// Satellite: trait-object dispatch is bit-identical to the inherent call
/// for each of the five solvers.
#[test]
fn trait_object_fit_bit_identical_to_inherent_call() {
    let t = fixture();
    let opts = options();
    let direct: Vec<(&str, Parafac2Fit)> = vec![
        ("DPar2", Dpar2.fit(&t, &opts).unwrap()),
        ("RD-ALS", RdAls.fit(&t, &opts).unwrap()),
        ("PARAFAC2-ALS", Parafac2Als.fit(&t, &opts).unwrap()),
        ("SPARTan", Spartan.fit(&t, &opts).unwrap()),
        ("NaiveCompressed", NaiveCompressedAls.fit(&t, &opts).unwrap()),
    ];
    for (method, (name, inherent)) in Method::WITH_ABLATION.iter().zip(&direct) {
        assert_eq!(method.name(), *name);
        let boxed: Box<dyn Parafac2Solver> = method.solver();
        let via_trait = boxed.fit(&t, &opts).unwrap();
        assert_bit_identical(&via_trait, inherent, name);
        // And through the registry veneer too.
        let via_registry = fit_with(*method, &t, &opts).unwrap();
        assert_bit_identical(&via_registry, inherent, name);
    }
}

/// Satellite: an observer that breaks at iteration k cancels with exactly
/// k recorded iterations — uniformly across solvers.
#[test]
fn observer_break_at_k_cancels_with_k_iterations() {
    let t = fixture();
    // tolerance 0 so no solver converges before the break point.
    let opts = options().with_tolerance(0.0);
    for method in Method::WITH_ABLATION {
        for k in [1usize, 3] {
            let mut obs = |e: &IterationEvent| {
                if e.iteration == k {
                    ControlFlow::Break(StopReason::Cancelled)
                } else {
                    ControlFlow::Continue(())
                }
            };
            let fit = fit_with_observer(method, &t, &opts, &mut obs).unwrap();
            assert_eq!(
                fit.stop_reason,
                StopReason::Cancelled,
                "{}: break at {k} not typed as cancellation",
                method.name()
            );
            assert_eq!(fit.iterations, k, "{}: iteration count at break {k}", method.name());
            assert_eq!(fit.criterion_trace.len(), k, "{}: trace length", method.name());
            assert_eq!(fit.timing.per_iteration_secs.len(), k, "{}: timing length", method.name());
        }
    }
}

/// Satellite: a zero time budget stops every solver after exactly one
/// iteration — the first iteration always runs, nothing panics, and the
/// partial factors have full shapes.
#[test]
fn zero_time_budget_stops_after_first_iteration_never_panics() {
    let t = fixture();
    let opts = options().with_tolerance(0.0).with_time_budget(Duration::ZERO);
    for method in Method::WITH_ABLATION {
        let fit = fit_with(method, &t, &opts)
            .unwrap_or_else(|e| panic!("{}: zero budget errored: {e}", method.name()));
        assert_eq!(fit.stop_reason, StopReason::TimeBudget, "{}", method.name());
        assert_eq!(fit.iterations, 1, "{}: must run exactly one iteration", method.name());
        assert_eq!(fit.v.shape(), (t.j(), opts.rank), "{}: V shape", method.name());
        assert_eq!(fit.u.len(), t.k(), "{}: U count", method.name());
    }
}

/// A zero *iteration* budget is uniform too: no solver panics, the loop
/// never runs, and the initial factors come back well-formed with
/// `StopReason::MaxIterations`.
#[test]
fn zero_iteration_budget_returns_initial_factors_everywhere() {
    let t = fixture();
    let opts = options().with_max_iterations(0);
    for method in Method::WITH_ABLATION {
        let fit = fit_with(method, &t, &opts)
            .unwrap_or_else(|e| panic!("{}: zero iterations errored: {e}", method.name()));
        assert_eq!(fit.stop_reason, StopReason::MaxIterations, "{}", method.name());
        assert_eq!(fit.iterations, 0, "{}", method.name());
        assert!(fit.criterion_trace.is_empty(), "{}", method.name());
        assert_eq!(fit.v.shape(), (t.j(), opts.rank), "{}: V shape", method.name());
        for k in 0..t.k() {
            assert_eq!(fit.u[k].shape(), (t.i(k), opts.rank), "{}: U_{k} shape", method.name());
        }
        // The (unoptimized) model is still evaluable.
        let f = fit.fitness(&t);
        assert!(f.is_finite(), "{}: fitness {f}", method.name());
    }
}

/// A generous (non-zero) budget on a tiny problem lets fits converge
/// normally — the budget only caps, it never truncates early.
#[test]
fn generous_time_budget_does_not_perturb_convergence() {
    let t = fixture();
    let unbudgeted = Dpar2.fit(&t, &options()).unwrap();
    let budgeted = Dpar2.fit(&t, &options().with_time_budget(Duration::from_secs(3600))).unwrap();
    assert_bit_identical(&budgeted, &unbudgeted, "DPar2 with generous budget");
}

/// A `CancelToken` cancelled before the fit stops every solver at its
/// first iteration boundary (the serving shutdown path).
#[test]
fn pre_cancelled_token_stops_every_solver_at_first_boundary() {
    let t = fixture();
    let opts = options().with_tolerance(0.0);
    for method in Method::WITH_ABLATION {
        let token = CancelToken::new();
        token.cancel();
        let mut obs = token.clone();
        let fit = fit_with_observer(method, &t, &opts, &mut obs).unwrap();
        assert_eq!(fit.stop_reason, StopReason::Cancelled, "{}", method.name());
        assert_eq!(fit.iterations, 1, "{}", method.name());
    }
}

/// Warm starts flow through the shared options for every solver: correct
/// shapes are accepted, wrong ranks are a typed error (never a panic).
#[test]
fn warm_start_accepted_and_shape_checked_everywhere() {
    let t = fixture();
    let opts = options();
    let cold = Dpar2.fit(&t, &opts).unwrap();
    let small = Dpar2.fit(&t, &FitOptions::new(2).with_seed(2002)).unwrap();
    for method in Method::WITH_ABLATION {
        let warm = fit_with(method, &t, &opts.with_warm_start(&cold))
            .unwrap_or_else(|e| panic!("{}: warm start rejected: {e}", method.name()));
        assert_eq!(warm.v.shape(), (t.j(), 3), "{}", method.name());
        let err = fit_with(method, &t, &opts.with_warm_start(&small)).unwrap_err();
        assert!(
            matches!(err, Dpar2Error::WarmStart { .. }),
            "{}: expected WarmStart error, got {err:?}",
            method.name()
        );
    }
}

/// Dense-vs-sparse fit equivalence: `Spartan` on the CSR form of a tensor
/// produces factors **bit-identical** to `Spartan` on the dense original,
/// and so does `Dpar2`. The column/rank configuration (J = 7, R = 3, and a
/// sketch of rank + 2 for DPar2) keeps every dense product on the naive
/// dispatch path, where the sparse kernels' ordering discipline guarantees
/// exact agreement.
#[test]
fn sparse_fit_bit_identical_to_densified_dense_fit() {
    let t = planted_parafac2(&[24, 31, 19, 27], 7, 3, 0.2, 2003);
    let sparse = SparseIrregularTensor::from_dense(&t);
    let opts = FitOptions::new(3)
        .with_seed(2004)
        .with_max_iterations(6)
        .with_threads(1)
        .with_rsvd(RsvdConfig { rank: 3, oversample: 2, power_iterations: 1 });
    let dense_fit = Spartan.fit(&t, &opts).unwrap();
    let sparse_fit = Spartan.fit(&sparse, &opts).unwrap();
    assert_bit_identical(&sparse_fit, &dense_fit, "SPARTan on CSR vs densified");
    // The registry's dense entry point lands on the exact same fit.
    let via_registry = fit_with(Method::Spartan, &t, &opts).unwrap();
    assert_bit_identical(&via_registry, &dense_fit, "SPARTan registry entry point");
    let dpar2_dense = Dpar2.fit(&t, &opts).unwrap();
    let dpar2_sparse = Dpar2.fit(&sparse, &opts).unwrap();
    assert_bit_identical(&dpar2_sparse, &dpar2_dense, "DPar2 on CSR vs densified");
}

/// Method parses from its display name and the bench-style aliases, and
/// every registry entry produces a solver whose name round-trips.
#[test]
fn method_names_round_trip_through_the_registry() {
    for method in Method::WITH_ABLATION {
        let parsed: Method = method.to_string().parse().unwrap();
        assert_eq!(parsed, method);
        assert_eq!(method.solver().name(), method.name());
    }
    assert!("not-a-method".parse::<Method>().is_err());
}
