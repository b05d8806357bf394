//! # dpar2-core
//!
//! The DPar2 algorithm — *"DPar2: Fast and Scalable PARAFAC2 Decomposition
//! for Irregular Dense Tensors"* (Jang & Kang, ICDE 2022), Algorithm 3.
//!
//! Given an irregular tensor `{X_k}` and target rank `R`, DPar2 computes the
//! PARAFAC2 model `X_k ≈ U_k S_k Vᵀ` (`U_k = Q_k H`, `Q_k` column-orthonormal)
//! in three phases:
//!
//! 1. **Two-stage compression** ([`mod@compress`]): a rank-`R` factorization
//!    of each slice (`X_k ≈ A_k B_k C_kᵀ`), then of the concatenation
//!    `M = ∥_k C_k B_k ≈ D E Fᵀ`, after which `X_k ≈ A_k F(k) E Dᵀ` and the
//!    original tensor is never touched again. Each stage factors the small
//!    side's Gram where the route applies and falls back to the randomized
//!    SVD otherwise.
//! 2. **Compressed ALS iterations** ([`solver`]): tiny `R×R` SVDs produce
//!    `Q_k = A_k Z_k P_kᵀ` implicitly; the CP-ALS step runs through the
//!    Lemma 1–3 kernels ([`lemmas`]) in `O(JR² + KR³)` per iteration; the
//!    convergence check ([`convergence`]) uses the compressed residual.
//! 3. **Factor recovery**: `U_k = A_k Z_k P_kᵀ H` after convergence.
//!
//! Dense ([`dpar2_tensor::IrregularTensor`]) and CSR
//! ([`dpar2_tensor::SparseIrregularTensor`]) inputs go through the same
//! entry points: both implement [`SliceTensor`], which hands each slice's
//! Grams and products to the compression.
//!
//! ## Quickstart
//!
//! Every solver in this workspace — [`Dpar2`] here, the baselines in
//! `dpar2-baselines` — implements the [`Parafac2Solver`] trait and is
//! driven by one shared [`FitOptions`] builder:
//!
//! ```
//! use dpar2_core::{Dpar2, FitOptions, Parafac2Solver, StopReason};
//! use dpar2_linalg::Mat;
//! use dpar2_tensor::IrregularTensor;
//! use rand::{rngs::StdRng, Rng, SeedableRng};
//!
//! // A small irregular tensor with K = 3 slices, J = 12 columns.
//! let mut rng = StdRng::seed_from_u64(0);
//! let slices = [20, 35, 15]
//!     .iter()
//!     .map(|&ik| Mat::from_fn(ik, 12, |_, _| rng.random::<f64>()))
//!     .collect();
//! let tensor = IrregularTensor::new(slices);
//!
//! let fit = Dpar2.fit(&tensor, &FitOptions::new(4)).unwrap();
//! assert_eq!(fit.v.shape(), (12, 4));
//! assert!(fit.fitness(&tensor) > 0.0);
//! assert!(matches!(fit.stop_reason, StopReason::Converged | StopReason::MaxIterations));
//! ```
//!
//! For live traces and cooperative cancellation, pass a [`FitObserver`]
//! (any `FnMut(&IterationEvent) -> ControlFlow<StopReason>` works):
//!
//! ```
//! use dpar2_core::{Dpar2, FitOptions, IterationEvent, StopReason};
//! use std::ops::ControlFlow;
//! # use dpar2_linalg::Mat;
//! # use dpar2_tensor::IrregularTensor;
//! # use rand::{rngs::StdRng, Rng, SeedableRng};
//! # let mut rng = StdRng::seed_from_u64(1);
//! # let tensor = IrregularTensor::new(
//! #     [14usize, 10].iter().map(|&ik| Mat::from_fn(ik, 8, |_, _| rng.random::<f64>())).collect(),
//! # );
//! let mut trace = Vec::new();
//! let mut observer = |e: &IterationEvent| {
//!     trace.push(e.criterion);
//!     if e.iteration >= 2 { ControlFlow::Break(StopReason::Cancelled) } else { ControlFlow::Continue(()) }
//! };
//! let fit = Dpar2.fit_observed(&tensor, &FitOptions::new(2).with_tolerance(0.0), &mut observer).unwrap();
//! assert_eq!(fit.stop_reason, StopReason::Cancelled);
//! assert_eq!(trace, fit.criterion_trace);
//! ```

pub mod compress;
pub mod config;
pub mod convergence;
pub mod error;
pub mod fitness;
pub mod lemmas;
pub mod metrics;
pub mod session;
pub mod slices;
pub mod solver;
pub mod streaming;

pub use compress::{compress, gram_route_applies, gram_svd, CompressedTensor, LowRank};
pub use config::FitOptions;
pub use error::{Dpar2Error, Result};
pub use fitness::{fitness, Parafac2Fit, TimingBreakdown};
pub use metrics::{FitMetrics, MetricsObserver};
pub use session::{
    CancelToken, FitObserver, FitPhase, FitSession, IterationEvent, NoopObserver, Parafac2Solver,
    PhaseSpans, SessionOutcome, StopReason, Workspace,
};
pub use slices::{validate, DenseBatch, DenseSlices, OwnedSlice, SliceTensor, StackedTensor};
pub use solver::{Dpar2, WarmStart};
pub use streaming::StreamingDpar2;

// `FitOptions::rsvd` and the slice type of `SliceTensor` are part of this
// crate's public surface; re-export their types so downstream crates can
// use them without a direct rsvd dep.
pub use dpar2_rsvd::{ProductOp, RsvdConfig};
