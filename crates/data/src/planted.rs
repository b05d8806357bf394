//! Ground-truth tensors: exact PARAFAC2 models and `tenrand` equivalents.

use dpar2_linalg::{product, qr, random::gaussian_mat, Mat, Trans};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds an irregular tensor with an *exact* planted PARAFAC2 structure
/// `X_k = Q_k H S_k Vᵀ` plus relative Gaussian noise of magnitude `noise`
/// (0 → exact model; 0.1 → noise Frobenius mass ≈ 10% of the signal's).
///
/// Used by correctness tests across the workspace: any PARAFAC2 solver must
/// reach high fitness on `noise = 0` instances.
pub fn planted_parafac2(
    row_dims: &[usize],
    j: usize,
    rank: usize,
    noise: f64,
    seed: u64,
) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = gaussian_mat(rank, rank, &mut rng);
    let v = gaussian_mat(j, rank, &mut rng);
    let slices = row_dims
        .iter()
        .map(|&ik| {
            let q = qr::qr(gaussian_mat(ik, rank, &mut rng)).q;
            let sk: Vec<f64> =
                (0..rank).map(|i| 1.0 + 0.3 * i as f64 + rng.random::<f64>()).collect();
            let mut qh = product(Trans::N, Trans::N, &q, &h);
            for row in 0..ik {
                let r = qh.row_mut(row);
                for (c, &sv) in sk.iter().enumerate() {
                    r[c] *= sv;
                }
            }
            let mut x = product(Trans::N, Trans::T, &qh, &v);
            if noise > 0.0 {
                let scale = noise * x.fro_norm() / ((ik * j) as f64).sqrt();
                x.axpy(scale, &gaussian_mat(ik, j, &mut rng));
            }
            x
        })
        .collect();
    IrregularTensor::new(slices)
}

/// The paper's synthetic-scalability tensors (§IV-C): uniform `U[0,1)`
/// entries via Tensor Toolbox's `tenrand(I, J, K)`, wrapped in the
/// irregular interface with `I_1 = … = I_K = i`.
pub fn tenrand_irregular(i: usize, j: usize, k: usize, seed: u64) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let slices = (0..k).map(|_| Mat::from_fn(i, j, |_, _| rng.random::<f64>())).collect();
    IrregularTensor::new(slices)
}

/// Draws `k` slice row counts from a truncated power-law profile shaped
/// like Fig. 8's sorted listing lengths: a few slices near `max_len`, a
/// long tail near `min_len`.
pub fn powerlaw_row_dims(k: usize, min_len: usize, max_len: usize, seed: u64) -> Vec<usize> {
    assert!(min_len <= max_len, "powerlaw_row_dims: min_len > max_len");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            let u: f64 = rng.random();
            // u^1.5 skews mass toward short slices, matching the convex
            // decay of the paper's sorted-length curves.
            min_len + ((max_len - min_len) as f64 * u.powf(1.5)).round() as usize
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_is_exact_rank() {
        let t = planted_parafac2(&[20, 15], 10, 3, 0.0, 1);
        // Each noiseless slice has numerical rank ≤ 3.
        for k in 0..t.k() {
            let s = dpar2_linalg::svd::svd_thin(t.slice(k)).s;
            assert!(s[3] < 1e-9 * s[0], "slice {k} rank exceeds 3: {:?}", &s[..5]);
        }
    }

    #[test]
    fn planted_noise_scales() {
        let clean = planted_parafac2(&[25], 12, 2, 0.0, 2);
        let noisy = planted_parafac2(&[25], 12, 2, 0.3, 2);
        // Same seed → same signal; difference is pure noise at ~30% mass.
        let d = (clean.slice(0) - noisy.slice(0)).fro_norm() / clean.slice(0).fro_norm();
        assert!(d > 0.1 && d < 0.6, "noise mass {d} out of range");
    }

    #[test]
    fn tenrand_properties() {
        let t = tenrand_irregular(6, 5, 4, 3);
        assert_eq!(t.k(), 4);
        assert!(t.is_regular());
        assert!(t.packed_data().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn powerlaw_dims_within_bounds_and_skewed() {
        let dims = powerlaw_row_dims(500, 50, 2000, 4);
        assert_eq!(dims.len(), 500);
        assert!(dims.iter().all(|&d| (50..=2000).contains(&d)));
        // Skew check: median well below the midpoint.
        let mut sorted = dims;
        sorted.sort_unstable();
        let median = sorted[250];
        assert!(median < 1025, "median {median} suggests no skew");
    }

    #[test]
    fn deterministic() {
        assert_eq!(powerlaw_row_dims(10, 5, 50, 9), powerlaw_row_dims(10, 5, 50, 9));
        let a = tenrand_irregular(3, 3, 2, 10);
        let b = tenrand_irregular(3, 3, 2, 10);
        assert_eq!(a.slice(0), b.slice(0));
    }
}
