//! # dpar2-tensor
//!
//! Tensor types and multilinear-algebra operations for the DPar2
//! reproduction — the functionality the paper obtains from the MATLAB
//! Tensor Toolbox, rebuilt on top of [`dpar2_linalg`]:
//!
//! * [`Dense3`] — a regular third-order tensor with frontal-slice storage
//!   and mode-`n` matricization in the Kolda–Bader convention.
//! * [`IrregularTensor`] — the paper's `{X_k}_{k=1..K}`: a collection of
//!   dense slices `X_k ∈ R^{I_k×J}` sharing the column dimension `J`.
//! * [`SparseIrregularTensor`] — the same collection with CSR slices
//!   ([`SparseSlice`]), for SPARTan-parity workloads that are >99% zeros.
//! * [`mod@kron`] ([`khatri_rao`], [`kron::kron_vec`]) — the ⊙ and vector ⊗ products of
//!   Table I.
//! * [`cp`] — CP-ALS building blocks (MTTKRP, factor updates) used by the
//!   inner loop of PARAFAC2-ALS (Algorithm 2, lines 11–16).
//!
//! ## Conventions
//!
//! For `X ∈ R^{I×J×K}` with entries `x_{ijk}`, the matricizations are
//!
//! * `X_(1) ∈ R^{I×JK}` with column `j + kJ`,
//! * `X_(2) ∈ R^{J×IK}` with column `i + kI`,
//! * `X_(3) ∈ R^{K×IJ}` with column `i + jI`,
//!
//! so that `X_(1) = A (C ⊙ B)ᵀ` etc. hold exactly for a CP decomposition
//! `[[A, B, C]]` — matching Kolda & Bader, "Tensor Decompositions and
//! Applications", SIAM Review 2009 (reference 19 of the paper).

pub mod cp;
pub mod dense3;
pub mod irregular;
pub mod kron;
pub mod sparse;

pub use cp::{
    mttkrp, mttkrp_into, normalize_columns, normalize_columns_mut, CpFactors, MttkrpScratch,
};
pub use dense3::Dense3;
pub use dpar2_linalg::sparse::{CooBuilder, SparseSlice};
pub use irregular::IrregularTensor;
pub use kron::{khatri_rao, khatri_rao_into};
pub use sparse::SparseIrregularTensor;
