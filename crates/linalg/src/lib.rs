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
//! * [`gemm_lanes`] — up to sixteen small `n×n` products at once, one per
//!   vector lane, each bitwise what [`gemm`]'s naive loops give (the
//!   DPar2 `Q_k` step's per-slice products).
//! * [`gram_into`] — the Gram `XᵀX`, every entry one chain over the rows in
//!   ascending order, one fused multiply-add per product where the CPU has
//!   FMA (the naive loops' separate multiply and add without it), in
//!   register tiles over the upper triangle. A CSR slice's Grams
//!   ([`sparse::sparse_gram_into`], [`sparse::sparse_outer_gram_into`])
//!   run the same chains over stored entries, so they are bitwise their
//!   densified ones. Below the blocked threshold, [`gemm`]'s `A·B` and
//!   `Aᵀ·B` run in register tiles too, with the naive loops' bits.
//! * [`mod@qr`] — Householder thin-QR factorization.
//! * [`svd`] — one-sided Jacobi singular value decomposition (with QR
//!   preconditioning for tall matrices; scale-invariant), plus
//!   rank-truncated variants and two lane kernels that factor up to sixteen
//!   small same-shape matrices in lock step (AVX-512 or AVX2 when the CPU
//!   has it). One sweep body, generic over its lane width, serves both:
//!   [`svd::svd_thin_into`] runs it one lane wide, so the lane kernels are
//!   bitwise equal to factoring each matrix alone: [`svd_thin_batch_into`]
//!   on `Mat`s of any shape, and [`svd_square_lanes`] on square matrices in
//!   [`gemm_lanes`]' lane stores, in and out.
//! * [`mod@pinv`] — Moore–Penrose pseudoinverse via the SVD, as required by the
//!   CP-ALS update rules (the `†` operator in Algorithm 2/3 of the paper).
//! * [`random`] — seeded Gaussian matrix generation (Box–Muller), the
//!   `Ω` test matrices of randomized SVD.
//! * [`sparse`] — CSR slices ([`SparseSlice`], [`CooBuilder`]) and the
//!   sparse kernel family (the three SpMM products on a pool, both Grams,
//!   norms over nonzeros), each bitwise identical to densifying and
//!   running the corresponding naive dense loop.
//!
//! Everything is deterministic given a seed and needs no external BLAS.
//! The crate is safe Rust except for seven narrowly-scoped exceptions of
//! one shape — a `#[target_feature]` function (`unsafe` to call) and its
//! call site, guarded by one cached `is_x86_feature_detected!` probe:
//!
//! 1. [`kernel`]: the AVX2/FMA GEMM microkernel;
//! 2. [`svd`]: the AVX-512 Jacobi sweep kernel behind
//!    [`svd_thin_batch_into`] and [`svd_square_lanes`] (AVX-512F and
//!    AVX-512DQ), bitwise equal to the portable sweep body at the same
//!    width;
//! 3. [`svd`]: the AVX2 Jacobi sweep kernel, taken where AVX-512 is
//!    missing, likewise bitwise equal to it;
//! 4. [`svd`]: the AVX2 build of [`gemm_lanes`]' portable lane loop (the
//!    same body compiled a second time, no intrinsics), bitwise equal to
//!    it;
//! 5. [`mat`]: the fused builds of [`gram_into`]'s tile loop, for
//!    AVX-512 (`8×8` tiles) and for AVX2+FMA (`4×8`): one generic body, no
//!    intrinsics, bitwise equal to each other and to the scalar `mul_add`
//!    chain;
//! 6. [`mat`]: the AVX2 build of the naive `A·B` and `Aᵀ·B` tile loop
//!    behind [`gemm`] (likewise), bitwise equal to the portable one;
//! 7. [`sparse`]: the FMA builds of the two CSR Grams, so `mul_add` is one
//!    instruction, bitwise equal to [`gram_into`]'s fused chains.
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

// Dense factorization kernels (Householder updates, Jacobi rotations)
// index several arrays in lock-step along computed ranges; explicit index
// loops are the clearest and fastest expression.
#![allow(clippy::needless_range_loop)]

pub mod error;
pub mod kernel;
pub mod mat;
pub mod pinv;
pub mod qr;
pub mod random;
pub mod sparse;
pub mod svd;
pub mod view;

pub use error::{LinalgError, Result};
pub use kernel::Trans;
pub use mat::{gemm, gram_into, Mat};
pub use pinv::{pinv, pinv_into};
pub use qr::{qr, qr_into, QrFactors, QrScratch};
pub use random::gaussian_mat;
pub use sparse::{CooBuilder, SparseSlice};
pub use svd::{
    extract_lane, gemm_lanes, interleave_lanes, pow2, svd_square_lanes, svd_thin,
    svd_thin_batch_into, svd_truncated, LaneOperand, SvdBatchScratch, SvdFactors, SvdScratch,
    SVD_LANES,
};
pub use view::{AsMatRef, MatMut, MatRef};

/// Machine-epsilon-scale tolerance used across factorization routines when
/// deciding whether a value is numerically zero.
pub const EPS: f64 = 1e-12;
