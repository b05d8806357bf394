//! Seeded random matrix generation.
//!
//! Randomized SVD (Algorithm 1 of the paper) draws a Gaussian test matrix
//! `Ω ∈ R^{J×(R+s)}`. The `rand` crate in our offline dependency set ships
//! only uniform sampling, so standard normals are produced with the
//! Box–Muller transform — two uniforms per pair of normals, no rejection
//! loop, fully deterministic under a seeded [`rand::Rng`].

use crate::mat::Mat;
use rand::Rng;

/// Draws one standard normal sample using the Box–Muller transform.
///
/// Consumes exactly two uniforms from `rng` and discards the second normal
/// of the pair. Slightly wasteful, but keeps sampling stateless, which
/// matters for reproducibility of the parallel compression stage.
#[inline]
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    // Guard against log(0).
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > 1e-300 {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates a `rows × cols` matrix with i.i.d. `N(0, 1)` entries.
pub fn gaussian_mat(rows: usize, cols: usize, rng: &mut impl Rng) -> Mat {
    let data = (0..rows * cols).map(|_| standard_normal(rng)).collect();
    Mat::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_given_seed() {
        let a = gaussian_mat(4, 4, &mut StdRng::seed_from_u64(99));
        let b = gaussian_mat(4, 4, &mut StdRng::seed_from_u64(99));
        assert_eq!(a, b);
        let c = gaussian_mat(4, 4, &mut StdRng::seed_from_u64(100));
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_moments_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = gaussian_mat(200, 200, &mut rng);
        let n = m.len() as f64;
        let mean: f64 = m.data().iter().sum::<f64>() / n;
        let var: f64 = m.data().iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.02, "sample mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "sample variance {var} too far from 1");
    }

    #[test]
    fn gaussian_tail_behaviour() {
        // ~99.7% of mass within 3σ; check we are not producing wild values.
        let mut rng = StdRng::seed_from_u64(10);
        let v = gaussian_mat(1, 10_000, &mut rng).into_vec();
        let outliers = v.iter().filter(|x| x.abs() > 4.0).count();
        assert!(outliers < 20, "too many >4σ samples: {outliers}");
    }
}
