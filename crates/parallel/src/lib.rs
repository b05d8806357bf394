//! # dpar2-parallel
//!
//! Work distribution for DPar2 (§III-F of the paper).
//!
//! The expensive phase of DPar2 is the stage-1 randomized SVD of every
//! slice, whose cost is proportional to the slice's row count `I_k`. Because
//! irregular tensors have wildly varying `I_k` (Fig. 8 of the paper shows
//! power-law-like listing lengths for stock data), naive round-robin
//! assignment leaves threads idle. Algorithm 4 of the paper fixes this with
//! *greedy number partitioning*: sort slices by row count descending and
//! repeatedly give the next slice to the least-loaded thread.
//!
//! This crate provides:
//!
//! * [`greedy_partition`] — Algorithm 4 verbatim (plus a baseline
//!   [`round_robin_partition`] for the ablation benches).
//! * [`imbalance`] — the makespan ratio used to quantify partition quality.
//! * [`ThreadPool`] — a minimal scoped executor whose fan-outs (greedy
//!   buckets, round-robin items, per-thread runs) share one spawn site and
//!   write caller-sized result [`slots`] with per-worker scratch. One body
//!   serves every pool size: a one-thread pool runs it inline, without
//!   allocating.

pub mod partition;
pub mod pool;

pub use partition::{greedy_partition, imbalance, round_robin_partition};
pub use pool::{slots, Bucket, PoolMetrics, ThreadPool};
