//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! A general-purpose routine of this crate: the PARAFAC2 solvers and
//! analyses run on the SVD and do not call it. Only symmetric input is
//! supported.

use crate::error::{LinalgError, Result};
use crate::mat::Mat;

/// Maximum Jacobi sweeps; symmetric Jacobi converges quadratically.
const MAX_SWEEPS: usize = 64;

/// Eigendecomposition `A = Q Λ Qᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in non-increasing order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Mat,
}

/// Computes all eigenpairs of a symmetric matrix with cyclic Jacobi
/// rotations.
///
/// # Errors
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NonFinite`] if an entry is NaN or infinite.
/// * [`LinalgError::NoConvergence`] if the off-diagonal mass fails to vanish
///   in `MAX_SWEEPS` (64) sweeps (does not happen for symmetric input in
///   practice).
///
/// Symmetry is *assumed*: only the upper triangle is read.
pub fn eig_sym(a: &Mat) -> Result<SymEig> {
    let (m, n) = a.shape();
    if m != n {
        return Err(LinalgError::NotSquare { op: "eig_sym", shape: (m, n) });
    }
    if !a.data().iter().all(|x| x.is_finite()) {
        return Err(LinalgError::NonFinite { op: "eig_sym" });
    }
    if n == 0 {
        return Ok(SymEig { values: vec![], vectors: Mat::zeros(0, 0) });
    }

    // Work on a symmetrized copy so tiny asymmetries in the input do not
    // leak into the iteration.
    let mut w = Mat::from_fn(n, n, |i, j| 0.5 * (a.at(i, j) + a.at(j, i)));
    let mut q = Mat::eye(n);
    let tol = 1e-14 * w.fro_norm().max(1.0);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += w.at(i, j) * w.at(i, j);
            }
        }
        if off.sqrt() <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for qi in p + 1..n {
                let apq = w.at(p, qi);
                if apq.abs() <= tol * 1e-2 {
                    continue;
                }
                let app = w.at(p, p);
                let aqq = w.at(qi, qi);
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Update rows/columns p and q of the symmetric working copy.
                for k in 0..n {
                    let wkp = w.at(k, p);
                    let wkq = w.at(k, qi);
                    w.set(k, p, c * wkp - s * wkq);
                    w.set(k, qi, s * wkp + c * wkq);
                }
                for k in 0..n {
                    let wpk = w.at(p, k);
                    let wqk = w.at(qi, k);
                    w.set(p, k, c * wpk - s * wqk);
                    w.set(qi, k, s * wpk + c * wqk);
                }
                // Accumulate the rotation into Q.
                for k in 0..n {
                    let qkp = q.at(k, p);
                    let qkq = q.at(k, qi);
                    q.set(k, p, c * qkp - s * qkq);
                    q.set(k, qi, s * qkp + c * qkq);
                }
            }
        }
    }
    if !converged {
        // One final check: the last sweep may have converged exactly.
        let mut off = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                off += w.at(i, j) * w.at(i, j);
            }
        }
        if off.sqrt() > tol * 10.0 {
            return Err(LinalgError::NoConvergence { op: "eig_sym", iterations: MAX_SWEEPS });
        }
    }

    // Sort eigenpairs by descending eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| w.at(i, i)).collect();
    order.sort_by(|&i, &j| diag[j].total_cmp(&diag[i]));
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = Mat::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        for i in 0..n {
            vectors.set(i, new_j, q.at(i, old_j));
        }
    }
    Ok(SymEig { values, vectors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn eig_diagonal() {
        let e = eig_sym(&Mat::diag(&[1.0, 5.0, 3.0])).unwrap();
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eig_sym(&a).unwrap();
        assert!((e.values[0] - 3.0).abs() < 1e-12);
        assert!((e.values[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_reconstructs_random_symmetric() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = gaussian_mat(10, 10, &mut rng);
        let a = &g + &g.transpose();
        let e = eig_sym(&a).unwrap();
        // Q Λ Qᵀ == A
        let ql = {
            let mut m = e.vectors.clone();
            for i in 0..m.rows() {
                for (j, &lambda) in e.values.iter().enumerate() {
                    let v = m.at(i, j) * lambda;
                    m.set(i, j, v);
                }
            }
            m
        };
        let recon = ql.matmul_nt(&e.vectors).unwrap();
        assert!((&a - &recon).fro_norm() < 1e-9 * a.fro_norm());
        // Orthonormal eigenvectors.
        assert!((&e.vectors.gram() - &Mat::eye(10)).fro_norm() < 1e-10);
    }

    #[test]
    fn eig_gram_matches_svd_squared() {
        let mut rng = StdRng::seed_from_u64(32);
        let a = gaussian_mat(12, 5, &mut rng);
        let g = a.gram();
        let e = eig_sym(&g).unwrap();
        let s = crate::svd::svd_thin(&a).s;
        for (lambda, sigma) in e.values.iter().zip(&s) {
            assert!((lambda - sigma * sigma).abs() < 1e-8 * s[0] * s[0]);
        }
    }

    #[test]
    fn eig_rejects_rectangular() {
        assert!(matches!(eig_sym(&Mat::zeros(2, 3)), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn eig_rejects_non_finite_entries() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (i, j) in [(0, 0), (1, 1), (0, 2), (2, 1)] {
                let mut a = Mat::eye(3);
                a.set(i, j, bad);
                assert_eq!(
                    eig_sym(&a).unwrap_err(),
                    LinalgError::NonFinite { op: "eig_sym" },
                    "{bad} at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn eig_empty() {
        let e = eig_sym(&Mat::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }

    #[test]
    fn eigenvalues_of_psd_nonnegative() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = gaussian_mat(8, 8, &mut rng);
        let g = a.gram();
        let e = eig_sym(&g).unwrap();
        assert!(e.values.iter().all(|&v| v > -1e-9));
    }
}
