//! Error type for the DPar2 solver.

use std::fmt;

/// Errors produced by the DPar2 pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dpar2Error {
    /// The target rank exceeds what a slice can support
    /// (`R > min(I_k, J)` for some `k`). The two-stage compression needs
    /// every `A_k` to have exactly `R` orthonormal columns.
    RankTooLarge {
        /// Requested target rank.
        rank: usize,
        /// Index of the offending slice.
        slice: usize,
        /// `min(I_k, J)` of that slice.
        limit: usize,
    },
    /// A zero target rank was requested.
    ZeroRank,
    /// A decomposition was requested before any data was ingested
    /// (e.g. [`StreamingDpar2::decompose`](crate::StreamingDpar2) with no
    /// appended slices). Long-lived serving workers treat this as a
    /// recoverable caller-ordering error, never a panic.
    Empty,
    /// A warm-start factor does not fit the tensor being decomposed
    /// (wrong rank, column dimension, or more slices than the data).
    WarmStart {
        /// Which factor is inconsistent (`"H"`, `"V"`, or `"W"`).
        factor: &'static str,
        /// Shape the solver needs.
        expected: (usize, usize),
        /// Shape the warm start carries.
        got: (usize, usize),
    },
    /// The input stores a NaN or ±∞ — rejected before any arithmetic, so
    /// one poisoned entry is a typed error instead of a panic deep inside
    /// an SVD (or a NaN model).
    NonFinite {
        /// Index of the first slice holding a non-finite value.
        slice: usize,
    },
    /// An underlying linear-algebra routine failed.
    Linalg(dpar2_linalg::LinalgError),
}

impl fmt::Display for Dpar2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dpar2Error::RankTooLarge { rank, slice, limit } => {
                write!(f, "target rank {rank} exceeds min(I_k, J) = {limit} of slice {slice}")
            }
            Dpar2Error::ZeroRank => write!(f, "target rank must be positive"),
            Dpar2Error::Empty => write!(f, "no slices ingested yet (nothing to decompose)"),
            Dpar2Error::WarmStart { factor, expected, got } => write!(
                f,
                "warm-start factor {factor} has shape {}x{}, expected {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            Dpar2Error::NonFinite { slice } => {
                write!(f, "slice {slice} holds a non-finite value (NaN or infinity)")
            }
            Dpar2Error::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for Dpar2Error {}

impl From<dpar2_linalg::LinalgError> for Dpar2Error {
    fn from(e: dpar2_linalg::LinalgError) -> Self {
        Dpar2Error::Linalg(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, Dpar2Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Dpar2Error::RankTooLarge { rank: 10, slice: 3, limit: 8 };
        assert_eq!(e.to_string(), "target rank 10 exceeds min(I_k, J) = 8 of slice 3");
        assert_eq!(Dpar2Error::ZeroRank.to_string(), "target rank must be positive");
        assert_eq!(Dpar2Error::Empty.to_string(), "no slices ingested yet (nothing to decompose)");
        let w = Dpar2Error::WarmStart { factor: "V", expected: (12, 3), got: (10, 3) };
        assert_eq!(w.to_string(), "warm-start factor V has shape 10x3, expected 12x3");
        assert_eq!(
            Dpar2Error::NonFinite { slice: 2 }.to_string(),
            "slice 2 holds a non-finite value (NaN or infinity)"
        );
    }

    #[test]
    fn from_linalg_error() {
        let le = dpar2_linalg::LinalgError::DimensionMismatch {
            op: "matmul",
            left: (2, 3),
            right: (4, 5),
        };
        let e: Dpar2Error = le.clone().into();
        assert_eq!(e, Dpar2Error::Linalg(le));
    }
}
