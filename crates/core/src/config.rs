//! The shared fit configuration for every PARAFAC2 solver.
//!
//! [`FitOptions`] is the single builder driving DPar2 **and** all baseline
//! solvers (`dpar2-baselines`), defaulted to the paper's experimental
//! settings (§IV-A): maximum 32 iterations, 1e-4 tolerance, randomized-SVD
//! rank equal to the PARAFAC2 target rank. It replaces the former
//! `Dpar2Config` / `AlsConfig` pair; see the README's "Solver API" section
//! for the call-site mapping.

use crate::fitness::Parafac2Fit;
use dpar2_rsvd::RsvdConfig;
use std::time::Duration;

/// Configuration for a single fit, shared by every
/// [`crate::Parafac2Solver`] implementation.
///
/// The lifetime `'a` only constrains the optional [warm
/// start](FitOptions::warm_start); options without one are `'static` and
/// can be stored freely (e.g. inside [`crate::StreamingDpar2`]).
#[derive(Debug, Clone, Copy)]
pub struct FitOptions<'a> {
    /// Target rank `R` of the PARAFAC2 decomposition.
    pub rank: usize,
    /// Upper bound on ALS iterations (paper: 32).
    pub max_iterations: usize,
    /// Relative-change convergence threshold on the solver's criterion
    /// (DPar2: the compressed residual; baselines: the true reconstruction
    /// error). Iteration stops when the criterion "ceases to decrease" by
    /// more than this fraction, or is already ≤ `tolerance · ‖X‖²`.
    pub tolerance: f64,
    /// Worker threads for compression, per-slice updates, and the pooled
    /// convergence checks (paper: 6).
    pub threads: usize,
    /// RNG seed — drives the Gaussian test matrices of the randomized
    /// pieces; fixing it makes a deterministic solver fully reproducible.
    pub seed: u64,
    /// Randomized-SVD parameters (oversampling, power iterations). The
    /// rank used by the compression stages always follows
    /// [`FitOptions::rank`]; only the other knobs of this struct apply.
    pub rsvd: RsvdConfig,
    /// Optional wall-clock budget for the iteration phase. Checked after
    /// every completed iteration: the first iteration always runs (a zero
    /// budget yields exactly one iteration), then the fit stops with
    /// [`crate::StopReason::TimeBudget`] once the budget is exhausted.
    pub time_budget: Option<Duration>,
    /// Optional warm start: initialize `H`, `V`, and the slice weights from
    /// a previous fit instead of the solver's cold-start rule. The fit may
    /// cover fewer slices than the tensor (newcomers start at unit
    /// weights — the streaming semantics); rank and column dimension must
    /// match or the fit returns [`crate::Dpar2Error::WarmStart`].
    pub warm_start: Option<&'a Parafac2Fit>,
    /// Adaptive-rank escape hatch: when set to a fraction in `(0, 1]`,
    /// [`crate::Dpar2`] probes the spectrum of the stacked tensor before
    /// compression and **lowers** [`rank`](FitOptions::rank) to the
    /// smallest value capturing that fraction of the spectral energy
    /// (never raising it — `rank` stays the cap). Trades `R` for speed on
    /// tensors whose energy concentrates in few components; see
    /// `dpar2_rsvd::svd_truncated_energy_pooled`.
    ///
    /// Honored by `Dpar2::fit` / `fit_observed` only. The baselines and
    /// `StreamingDpar2` (whose rank is fixed by the compressed state it
    /// extends) ignore it. A warm start fixes the rank too, so
    /// combining it with `rank_energy` returns
    /// [`crate::Dpar2Error::WarmStart`] if the adapted rank diverges from
    /// the warm fit's.
    pub rank_energy: Option<f64>,
}

impl FitOptions<'static> {
    /// Default options for a given target rank: 32 max iterations, 1e-4
    /// relative tolerance, single-threaded, seed 0, no time budget, no
    /// warm start.
    pub fn new(rank: usize) -> Self {
        FitOptions {
            rank,
            max_iterations: 32,
            tolerance: 1e-4,
            threads: 1,
            seed: 0,
            rsvd: RsvdConfig::new(rank),
            time_budget: None,
            warm_start: None,
            rank_energy: None,
        }
    }
}

impl<'a> FitOptions<'a> {
    /// Sets the target rank (keeps the randomized-SVD rank in sync).
    pub fn with_rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self.rsvd = RsvdConfig { rank, ..self.rsvd };
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Sets the convergence tolerance.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the randomized-SVD parameters (oversampling, power iterations).
    pub fn with_rsvd(mut self, rsvd: RsvdConfig) -> Self {
        self.rsvd = rsvd;
        self
    }

    /// Sets a wall-clock budget for the iteration phase.
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Warm-starts the fit from a previous model's factors.
    pub fn with_warm_start(self, fit: &Parafac2Fit) -> FitOptions<'_> {
        FitOptions { warm_start: Some(fit), ..self }
    }

    /// Enables adaptive rank selection at the given spectral-energy
    /// fraction (see [`FitOptions::rank_energy`]).
    pub fn with_rank_energy(mut self, threshold: f64) -> Self {
        self.rank_energy = Some(threshold);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = FitOptions::new(10);
        assert_eq!(o.rank, 10);
        assert_eq!(o.max_iterations, 32);
        assert_eq!(o.rsvd.rank, 10);
        assert_eq!(o.threads, 1);
        assert!(o.time_budget.is_none());
        assert!(o.warm_start.is_none());
    }

    #[test]
    fn builder_chain() {
        let o = FitOptions::new(5)
            .with_threads(6)
            .with_seed(42)
            .with_max_iterations(10)
            .with_tolerance(1e-6)
            .with_time_budget(Duration::from_millis(250));
        assert_eq!(o.threads, 6);
        assert_eq!(o.seed, 42);
        assert_eq!(o.max_iterations, 10);
        assert_eq!(o.tolerance, 1e-6);
        assert_eq!(o.time_budget, Some(Duration::from_millis(250)));
    }

    #[test]
    fn with_rank_keeps_rsvd_in_sync() {
        let o = FitOptions::new(5).with_rank(8);
        assert_eq!(o.rank, 8);
        assert_eq!(o.rsvd.rank, 8);
    }

    #[test]
    fn rank_energy_defaults_off_and_chains() {
        assert!(FitOptions::new(5).rank_energy.is_none());
        let o = FitOptions::new(5).with_rank_energy(0.95);
        assert_eq!(o.rank_energy, Some(0.95));
    }
}
