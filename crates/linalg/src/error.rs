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
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "{op}: dimension mismatch ({}x{} vs {}x{})",
                left.0, left.1, right.0, right.1
            ),
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
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LinalgError::DimensionMismatch { op: "x", left: (1, 2), right: (3, 4) });
    }
}
