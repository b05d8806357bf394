//! # dpar2-baselines
//!
//! The three PARAFAC2 solvers the DPar2 paper compares against (§IV-A
//! "Competitors"), implemented from their algorithm descriptions — exactly
//! as the authors did for RD-ALS ("Since there is no public code, we
//! implement it … based on its paper"):
//!
//! * [`Parafac2Als`] — the classic direct-fitting ALS of Kiers, ten Berge &
//!   Bro (1999); Algorithm 2 of the paper. Materializes `Y` and the
//!   Khatri-Rao products (`O(JKR²)` per iteration) and checks convergence
//!   on the true reconstruction error.
//! * [`RdAls`] — Cheng & Haardt (2019): preprocesses with one truncated SVD
//!   of the column-wise concatenation `[X_1ᵀ ∥ … ∥ X_Kᵀ] ∈ R^{J×ΣI_k}`,
//!   iterates on rank-reduced slices, but (as the paper stresses) still
//!   evaluates the *true* reconstruction error each iteration.
//! * [`Spartan`] — SPARTan (Perros et al., 2017): identical maths to
//!   PARAFAC2-ALS but with slice-parallel `Q_k` updates and an MTTKRP that
//!   accumulates per-slice contributions without materializing unfoldings.
//!   It takes dense slices (the paper's adaptation, which loses SPARTan's
//!   main advantage without sparsity — Fig. 9 of the paper) or CSR slices
//!   (its native workload, with per-iteration cost and memory proportional
//!   to `nnz`), and its fits are bit-identical for every thread count.
//!
//! Plus the §III-C ablation [`NaiveCompressedAls`] (compress, reconstruct,
//! iterate at full cost).
//!
//! Every solver — including `dpar2_core::Dpar2` — implements
//! [`Parafac2Solver`], takes the same [`FitOptions`], and produces the
//! shared [`dpar2_core::Parafac2Fit`], so harness code treats all methods
//! uniformly. [`Method`] (with `FromStr`/`Display`) plus [`fit_with`] give
//! a dynamic, name-addressable registry for sweeps.

pub mod common;
pub mod naive_compressed;
pub mod parafac2_als;
pub mod rd_als;
pub mod spartan;
#[cfg(test)]
mod spartan_sparse;

pub use naive_compressed::NaiveCompressedAls;
pub use parafac2_als::Parafac2Als;
pub use rd_als::RdAls;
pub use spartan::Spartan;

use dpar2_core::{Dpar2, FitObserver, FitOptions, Parafac2Fit, Parafac2Solver, Result};
use dpar2_tensor::IrregularTensor;
use std::fmt;
use std::str::FromStr;

/// The solver registry: the four methods of the paper's evaluation plus
/// the §III-C naive-compression ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// DPar2 (the paper's contribution, from `dpar2-core`).
    Dpar2,
    /// RD-ALS (Cheng & Haardt 2019).
    RdAls,
    /// PARAFAC2-ALS (Kiers et al. 1999).
    Parafac2Als,
    /// SPARTan (Perros et al. 2017).
    Spartan,
    /// Compress-reconstruct-iterate ablation (§III-C).
    NaiveCompressed,
}

impl Method {
    /// The paper's four evaluated methods, in the order its figures list
    /// them (the ablation is not part of the figure set; see
    /// [`Method::WITH_ABLATION`]).
    pub const ALL: [Method; 4] =
        [Method::Dpar2, Method::RdAls, Method::Parafac2Als, Method::Spartan];

    /// Every registered solver, including the §III-C ablation.
    pub const WITH_ABLATION: [Method; 5] = [
        Method::Dpar2,
        Method::RdAls,
        Method::Parafac2Als,
        Method::Spartan,
        Method::NaiveCompressed,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Dpar2 => "DPar2",
            Method::RdAls => "RD-ALS",
            Method::Parafac2Als => "PARAFAC2-ALS",
            Method::Spartan => "SPARTan",
            Method::NaiveCompressed => "NaiveCompressed",
        }
    }

    /// Constructs the solver behind this name.
    pub fn solver(&self) -> Box<dyn Parafac2Solver> {
        match self {
            Method::Dpar2 => Box::new(Dpar2),
            Method::RdAls => Box::new(RdAls),
            Method::Parafac2Als => Box::new(Parafac2Als),
            Method::Spartan => Box::new(Spartan),
            Method::NaiveCompressed => Box::new(NaiveCompressedAls),
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error for an unrecognized method name (lists the valid spellings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMethodError {
    /// The string that failed to parse.
    pub input: String,
}

impl fmt::Display for ParseMethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown method {:?} (expected one of: dpar2, rd-als, parafac2-als, spartan, \
             naive-compressed)",
            self.input
        )
    }
}

impl std::error::Error for ParseMethodError {}

impl FromStr for Method {
    type Err = ParseMethodError;

    /// Case-insensitive; accepts the paper display names plus short
    /// aliases (`als` for PARAFAC2-ALS, `rdals`, `naive`).
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "dpar2" => Ok(Method::Dpar2),
            "rd-als" | "rdals" | "rd_als" => Ok(Method::RdAls),
            "parafac2-als" | "parafac2als" | "parafac2_als" | "als" => Ok(Method::Parafac2Als),
            "spartan" => Ok(Method::Spartan),
            "naive-compressed" | "naivecompressed" | "naive_compressed" | "naive" => {
                Ok(Method::NaiveCompressed)
            }
            _ => Err(ParseMethodError { input: s.to_string() }),
        }
    }
}

/// Runs the chosen method on `tensor` with the shared fit options — a thin
/// veneer over `method.solver().fit(...)`. For a CSR tensor, call
/// [`Dpar2::fit`] or [`Spartan::fit`] directly: both take either storage.
///
/// # Errors
/// Propagates validation and warm-start errors (identical across
/// methods).
pub fn fit_with(
    method: Method,
    tensor: &IrregularTensor,
    options: &FitOptions<'_>,
) -> Result<Parafac2Fit> {
    fit_with_observer(method, tensor, options, &mut dpar2_core::NoopObserver)
}

/// [`fit_with`] with a [`FitObserver`] session.
///
/// # Errors
/// See [`fit_with`].
pub fn fit_with_observer(
    method: Method,
    tensor: &IrregularTensor,
    options: &FitOptions<'_>,
    observer: &mut dyn FitObserver,
) -> Result<Parafac2Fit> {
    method.solver().fit_observed(tensor, options, observer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_str_round_trips_display() {
        for m in Method::WITH_ABLATION {
            assert_eq!(m.name().parse::<Method>().unwrap(), m, "{m} display must parse back");
            assert_eq!(m.to_string(), m.name());
        }
    }

    #[test]
    fn from_str_is_case_insensitive_with_aliases() {
        assert_eq!("DPAR2".parse::<Method>().unwrap(), Method::Dpar2);
        assert_eq!("rdals".parse::<Method>().unwrap(), Method::RdAls);
        assert_eq!("als".parse::<Method>().unwrap(), Method::Parafac2Als);
        assert_eq!("Spartan".parse::<Method>().unwrap(), Method::Spartan);
        assert_eq!("naive".parse::<Method>().unwrap(), Method::NaiveCompressed);
        let err = "pca".parse::<Method>().unwrap_err();
        assert!(err.to_string().contains("pca"));
    }

    #[test]
    fn registry_names_match_solvers() {
        for m in Method::WITH_ABLATION {
            assert_eq!(m.solver().name(), m.name());
        }
    }
}
