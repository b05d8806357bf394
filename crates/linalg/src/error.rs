//! Error type shared by the factorization routines.

use std::fmt;

/// Errors produced by linear-algebra routines.
///
/// Dimension mismatches in *user-facing* entry points are reported through
/// this type; internal kernels use debug assertions because their callers
/// have already validated shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Two operands had incompatible shapes. The payload carries
    /// `(left_rows, left_cols, right_rows, right_cols)`.
    DimensionMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// A routine that requires a square matrix received a rectangular one.
    NotSquare {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// The offending shape.
        shape: (usize, usize),
    },
    /// An iterative routine failed to converge within its iteration budget.
    NoConvergence {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The matrix was singular (or numerically singular) where a
    /// non-singular one was required.
    Singular {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "{op}: dimension mismatch ({}x{} vs {}x{})",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(f, "{op}: expected square matrix, got {}x{}", shape.0, shape.1)
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::Singular { op } => write!(f, "{op}: matrix is singular"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results of linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch { op: "matmul", left: (2, 3), right: (4, 5) };
        assert_eq!(e.to_string(), "matmul: dimension mismatch (2x3 vs 4x5)");
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare { op: "lu", shape: (2, 3) };
        assert_eq!(e.to_string(), "lu: expected square matrix, got 2x3");
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence { op: "jacobi_svd", iterations: 64 };
        assert_eq!(e.to_string(), "jacobi_svd: no convergence after 64 iterations");
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular { op: "lu_solve" };
        assert_eq!(e.to_string(), "lu_solve: matrix is singular");
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::Singular { op: "x" });
    }
}
