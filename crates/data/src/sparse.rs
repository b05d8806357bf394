//! Seeded sparse planted tensors — the SPARTan-parity workload generator.
//!
//! Real sparse PARAFAC2 data (EHR encounter records, clickstreams,
//! user–item logs) is a low-rank interaction signal observed through a
//! sparse sampling mask. [`planted_sparse`] reproduces exactly that: an
//! exact PARAFAC2 model `X_k = Q_k H S_k Vᵀ` (the same construction as
//! [`crate::planted_parafac2`]) observed at a Bernoulli(`density`) subset
//! of cells, optionally with relative per-entry noise. Memory is O(nnz) —
//! the dense slices are never materialized; each stored value is computed
//! from its factor rows on the fly.

use dpar2_linalg::sparse::SparseSlice;
use dpar2_linalg::{product, qr, random::gaussian_mat, Trans};
use dpar2_tensor::SparseIrregularTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a sparse irregular tensor with an exact planted PARAFAC2
/// structure observed through a Bernoulli(`density`) mask.
///
/// * `row_dims`, `j`, `rank`, `seed` — as in [`crate::planted_parafac2`].
/// * `density` — probability each cell `(i, j)` of each slice is stored;
///   expected nnz is `density · Σ_k I_k · J`. Must be in `[0, 1]`.
/// * `noise` — relative per-entry noise: each stored value is
///   `signal · (1 + noise · g)` with `g ~ N(0, 1)` (0 → exact low-rank
///   values at the observed cells).
///
/// Cells are visited in row-major `(i, j)` order per slice, so the CSR
/// arrays are built directly without a sort, and the whole construction
/// is deterministic given the seed. A sampled cell whose model value is
/// exactly `0.0` is still stored (the mask, not the value, decides
/// storage — as in real interaction logs where an observed zero is data).
///
/// # Panics
/// Panics if `density` is not within `[0, 1]`.
pub fn planted_sparse(
    row_dims: &[usize],
    j: usize,
    rank: usize,
    density: f64,
    noise: f64,
    seed: u64,
) -> SparseIrregularTensor {
    assert!((0.0..=1.0).contains(&density), "planted_sparse: density {density} not in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let h = gaussian_mat(rank, rank, &mut rng);
    let v = gaussian_mat(j, rank, &mut rng);
    let slices = row_dims
        .iter()
        .map(|&ik| {
            let q = qr::qr(gaussian_mat(ik, rank, &mut rng)).q;
            let sk: Vec<f64> =
                (0..rank).map(|i| 1.0 + 0.3 * i as f64 + rng.random::<f64>()).collect();
            // Left factor Q_k·H·S_k (I_k × R) — the only dense intermediate;
            // slice values are dotted against V rows on demand.
            let mut qhs = product(Trans::N, Trans::N, &q, &h);
            for row in 0..ik {
                let r = qhs.row_mut(row);
                for (c, &sv) in sk.iter().enumerate() {
                    r[c] *= sv;
                }
            }
            let expected = (density * (ik * j) as f64).ceil() as usize;
            let mut indptr = Vec::with_capacity(ik + 1);
            let mut indices = Vec::with_capacity(expected);
            let mut values = Vec::with_capacity(expected);
            indptr.push(0);
            for i in 0..ik {
                let lrow = qhs.row(i);
                for col in 0..j {
                    if rng.random::<f64>() < density {
                        let mut x: f64 = lrow.iter().zip(v.row(col)).map(|(&a, &b)| a * b).sum();
                        if noise > 0.0 {
                            // Box–Muller via two uniforms, matching the
                            // seeded-Gaussian style of dpar2_linalg::random.
                            let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                            let u2: f64 = rng.random();
                            let g =
                                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                            x *= 1.0 + noise * g;
                        }
                        indices.push(col);
                        values.push(x);
                    }
                }
                indptr.push(indices.len());
            }
            SparseSlice::new(ik, j, indptr, indices, values)
        })
        .collect();
    SparseIrregularTensor::new(slices)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a = planted_sparse(&[30, 20], 8, 3, 0.2, 0.1, 42);
        let b = planted_sparse(&[30, 20], 8, 3, 0.2, 0.1, 42);
        assert_eq!(a, b);
        let c = planted_sparse(&[30, 20], 8, 3, 0.2, 0.1, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn density_controls_nnz() {
        let t = planted_sparse(&[200, 300], 40, 3, 0.05, 0.0, 7);
        let expected = 0.05 * t.num_cells() as f64;
        let nnz = t.nnz() as f64;
        // Binomial concentration: 3σ band around the mean.
        let sigma = (t.num_cells() as f64 * 0.05 * 0.95).sqrt();
        assert!((nnz - expected).abs() < 3.0 * sigma, "nnz {nnz} vs expected {expected}");
    }

    #[test]
    fn extreme_densities() {
        let full = planted_sparse(&[10, 12], 6, 2, 1.0, 0.0, 1);
        assert_eq!(full.nnz(), full.num_cells());
        let empty = planted_sparse(&[10, 12], 6, 2, 0.0, 0.0, 1);
        assert_eq!(empty.nnz(), 0);
    }

    #[test]
    fn stored_values_are_low_rank_consistent() {
        // At density 1 with no noise, the densified tensor has numerical
        // rank ≤ rank per slice (same planted construction as the dense
        // generator).
        let t = planted_sparse(&[20, 15], 10, 3, 1.0, 0.0, 9).to_dense();
        for k in 0..t.k() {
            let s = dpar2_linalg::svd::svd_thin(t.slice(k)).s;
            assert!(s[3] < 1e-9 * s[0], "slice {k} rank exceeds 3: {:?}", &s[..5]);
        }
    }

    #[test]
    #[should_panic(expected = "density")]
    fn rejects_bad_density() {
        planted_sparse(&[5], 4, 2, 1.5, 0.0, 0);
    }
}
