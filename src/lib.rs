//! # dpar2-repro
//!
//! Umbrella crate for the Rust reproduction of *"DPar2: Fast and Scalable
//! PARAFAC2 Decomposition for Irregular Dense Tensors"* (Jang & Kang,
//! ICDE 2022).
//!
//! This crate re-exports every sub-crate of the workspace so that examples,
//! integration tests, and downstream users can depend on a single package:
//!
//! * [`linalg`] — dense linear algebra (gemm, QR, SVD, pinv) plus CSR
//!   sparse kernels (`sparse::SparseSlice`, SpMM/Gram) that are
//!   bit-identical to their densified naive counterparts.
//! * [`tensor`] — regular/irregular tensors (dense and CSR-sparse),
//!   matricization, ⊗/⊙/∗ products.
//! * [`rsvd`] — randomized SVD (Algorithm 1).
//! * [`parallel`] — thread pool + greedy slice partitioning (Algorithm 4).
//! * [`core`] — the DPar2 solver (Algorithm 3), on dense or CSR slices.
//! * [`baselines`] — PARAFAC2-ALS, RD-ALS and SPARTan (Algorithm 2 & §V),
//!   the last on dense or CSR slices at O(nnz) per iteration.
//! * [`data`] — synthetic stand-ins for the paper's eight datasets, plus
//!   Bernoulli-observed planted sparse models.
//! * [`analysis`] — feature correlations, stock similarity, k-NN, RWR (§IV-E).
//! * [`obs`] — lock-free metrics registry (counters, gauges, log₂-bucket
//!   latency histograms, RAII spans) plus Prometheus-text and JSON export.
//! * [`serve`] — model persistence, versioned registry, concurrent query
//!   engine, streaming ingest (the online half of the system).
//! * [`net`] — wire-protocol TCP front-end over the query engine:
//!   length-prefixed binary protocol + curl-able HTTP text mode, bounded
//!   admission queues, request batching, graceful shutdown.
//!
//! See `README.md` for a quickstart and its "Workspace layout" section for
//! the full system inventory.

pub use dpar2_analysis as analysis;
pub use dpar2_baselines as baselines;
pub use dpar2_core as core;
pub use dpar2_data as data;
pub use dpar2_linalg as linalg;
pub use dpar2_net as net;
pub use dpar2_obs as obs;
pub use dpar2_parallel as parallel;
pub use dpar2_rsvd as rsvd;
pub use dpar2_serve as serve;
pub use dpar2_tensor as tensor;
