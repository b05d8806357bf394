//! # dpar2-linalg
//!
//! Dense linear-algebra substrate for the DPar2 reproduction.
//!
//! The DPar2 paper (Jang & Kang, ICDE 2022) was evaluated on MATLAB, which
//! delegates to LAPACK/BLAS. This crate provides the subset of that
//! functionality the paper's algorithms need, implemented from scratch in
//! safe Rust on `f64`:
//!
//! * [`gemm`] — the one dense multiply: `C = op(A)·op(B)` for any
//!   transpose pair ([`Trans`]), written into a caller-owned output, on a
//!   [`dpar2_parallel::ThreadPool`] (a one-thread pool is the serial path;
//!   every pool size gives bit-identical results).
//! * [`Mat`] — a row-major dense matrix with the usual arithmetic, slicing
//!   helpers, and serial multiply conveniences over [`gemm`] (`matmul`,
//!   `matmul_tn`, `matmul_nt`, their `_into` forms, and `gram`).
//! * [`kernel`] — the blocked, register-tiled GEMM layer under [`gemm`]:
//!   `MR×NR` microkernel tiles (AVX2+FMA when the CPU has them, detected
//!   at runtime) that read a narrow product's operands in place and pack
//!   a wide one's, and row-panel fan-out over the pool; small products
//!   stay on the naive loops.
//! * [`gemm_lanes`] — up to eight small `n×n` products at once, one per
//!   vector lane, each bitwise what [`gemm`]'s naive loops give (the
//!   DPar2 `Q_k` step's per-slice products).
//! * [`mod@qr`] — Householder thin-QR factorization.
//! * [`svd`] — one-sided Jacobi singular value decomposition (with QR
//!   preconditioning for tall matrices; scale-invariant), plus
//!   rank-truncated variants and two lane kernels that factor up to eight
//!   small same-shape matrices in lock step (AVX2 when the CPU has it),
//!   bitwise equal to factoring each alone: [`svd_thin_batch_into`] on
//!   `Mat`s of any shape, and [`svd_square_lanes`] on square matrices in
//!   [`gemm_lanes`]' lane stores, in and out.
//! * [`eig`] — cyclic Jacobi eigendecomposition of symmetric matrices.
//! * [`mod@pinv`] — Moore–Penrose pseudoinverse via the SVD, as required by the
//!   CP-ALS update rules (the `†` operator in Algorithm 2/3 of the paper).
//! * [`solve`] — LU and triangular solves (used by tests and baselines).
//! * [`random`] — seeded Gaussian/uniform matrix generation (Box–Muller), the
//!   `Ω` test matrices of randomized SVD.
//! * [`sparse`] — CSR slices ([`SparseSlice`], [`CooBuilder`]) and the
//!   sparse kernel family (the four SpMM products on a pool, Gram, mode-3
//!   MTTKRP, norms over nonzeros), each bitwise identical to densifying and
//!   running the corresponding naive dense loop.
//!
//! Everything is deterministic given a seed and needs no external BLAS.
//! The crate is safe Rust except for three narrowly-scoped exceptions of
//! one shape — a `#[target_feature]` function (`unsafe` to call) and its
//! call site, guarded by one cached `is_x86_feature_detected!` probe:
//!
//! 1. [`kernel`]: the AVX2/FMA GEMM microkernel;
//! 2. [`svd`]: the AVX2 Jacobi sweep kernel behind
//!    [`svd_thin_batch_into`] and [`svd_square_lanes`], bitwise equal to
//!    its portable fallback;
//! 3. [`svd`]: the AVX2 build of [`gemm_lanes`]' portable lane loop (the
//!    same body compiled a second time, no intrinsics), bitwise equal to
//!    it.
//!
//! ## Example
//!
//! ```
//! use dpar2_linalg::{Mat, svd::svd_thin};
//!
//! let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 3.0], &[0.0, 2.0]]);
//! let f = svd_thin(&a);
//! let reconstructed = &(&f.u * &Mat::diag(&f.s)) * &f.v.transpose();
//! assert!((&a - &reconstructed).fro_norm() < 1e-10);
//! ```

// Dense factorization kernels (Householder updates, Jacobi rotations,
// triangular solves) index several arrays in lock-step along computed
// ranges; explicit index loops are the clearest and fastest expression.
#![allow(clippy::needless_range_loop)]

pub mod eig;
pub mod error;
pub mod kernel;
pub mod mat;
pub mod norms;
pub mod pinv;
pub mod qr;
pub mod random;
pub mod solve;
pub mod sparse;
pub mod svd;
pub mod view;

pub use error::{LinalgError, Result};
pub use kernel::Trans;
pub use mat::{gemm, Mat};
pub use pinv::{pinv, pinv_into};
pub use qr::{qr, qr_into, QrFactors, QrScratch};
pub use random::{gaussian_mat, uniform_mat};
pub use sparse::{CooBuilder, SparseSlice};
pub use svd::{
    extract_lane, gemm_lanes, interleave_lanes, svd_square_lanes, svd_thin, svd_thin_batch_into,
    svd_truncated, LaneOperand, SvdBatchScratch, SvdFactors, SvdScratch, SVD_LANES,
};
pub use view::{AsMatRef, MatMut, MatRef};

/// Machine-epsilon-scale tolerance used across factorization routines when
/// deciding whether a value is numerically zero.
pub const EPS: f64 = 1e-12;
