//! Video-feature-track simulator — the stand-in for the Activity and
//! Action datasets (frame × feature × video tensors of motion features).
//!
//! Motion-feature time series are smooth (features evolve continuously
//! between frames) and approximately low-rank within a clip (a few latent
//! motion modes drive many correlated features). We model each clip as
//! `smooth latent tracks × feature loadings + noise`.

use dpar2_linalg::random::{gaussian_mat, standard_normal};
use dpar2_linalg::{product, Mat, Trans};
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the feature-track corpus.
#[derive(Debug, Clone)]
pub struct FeatureTracksConfig {
    /// Number of clips `K`.
    pub n_clips: usize,
    /// Feature dimension `J`.
    pub n_features: usize,
    /// Maximum frames per clip.
    pub max_frames: usize,
    /// Minimum frames per clip.
    pub min_frames: usize,
    /// Number of latent motion modes.
    pub latent_dims: usize,
    /// Relative measurement-noise amplitude.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl FeatureTracksConfig {
    /// Defaults sized like the Activity/Action datasets (scaled).
    pub fn new(n_clips: usize, n_features: usize, max_frames: usize, seed: u64) -> Self {
        FeatureTracksConfig {
            n_clips,
            n_features,
            max_frames,
            min_frames: (max_frames / 3).max(4),
            latent_dims: 8,
            noise: 0.1,
            seed,
        }
    }
}

/// Generates the corpus: one `(frames × features)` slice per clip.
pub fn generate(config: &FeatureTracksConfig) -> IrregularTensor {
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Feature loadings shared across clips (same sensor space), per-clip
    // latent trajectories (different motions).
    let loadings = gaussian_mat(config.n_features, config.latent_dims, &mut rng);
    let slices: Vec<Mat> = (0..config.n_clips)
        .map(|_| {
            let frames = config.min_frames
                + (rng.random::<f64>() * (config.max_frames - config.min_frames) as f64) as usize;
            let latent = smooth_tracks(frames, config.latent_dims, &mut rng);
            let mut x = product(Trans::N, Trans::T, &latent, &loadings);
            let scale = config.noise * x.fro_norm() / (x.len() as f64).sqrt();
            let noise = gaussian_mat(frames, config.n_features, &mut rng);
            x.axpy(scale, &noise);
            x
        })
        .collect();
    IrregularTensor::new(slices)
}

/// Smooth latent trajectories: cumulative random walks passed through a
/// width-5 moving average, one column per latent mode.
fn smooth_tracks(frames: usize, dims: usize, rng: &mut StdRng) -> Mat {
    let mut m = Mat::zeros(frames, dims);
    for d in 0..dims {
        let mut walk = Vec::with_capacity(frames);
        let mut acc = 0.0;
        for _ in 0..frames {
            acc += standard_normal(rng) * 0.3;
            walk.push(acc);
        }
        // Moving-average smoothing.
        for i in 0..frames {
            let lo = i.saturating_sub(2);
            let hi = (i + 3).min(frames);
            let mean: f64 = walk[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            m.set(i, d, mean);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::svd::svd_thin;

    fn tiny() -> FeatureTracksConfig {
        FeatureTracksConfig::new(5, 20, 30, 11)
    }

    #[test]
    fn shapes() {
        let t = generate(&tiny());
        assert_eq!(t.k(), 5);
        assert_eq!(t.j(), 20);
        for k in 0..5 {
            assert!(t.i(k) >= 10 && t.i(k) <= 30);
        }
    }

    #[test]
    fn slices_are_approximately_low_rank() {
        let t = generate(&tiny());
        let s = svd_thin(t.slice(0)).s;
        // Energy of the top-8 (latent_dims) singular values dominates.
        let head: f64 = s[..8.min(s.len())].iter().map(|x| x * x).sum();
        let total: f64 = s.iter().map(|x| x * x).sum();
        assert!(head / total > 0.9, "head energy only {}", head / total);
    }

    #[test]
    fn tracks_are_smooth() {
        // Frame-to-frame differences must be much smaller than the track
        // amplitude (smoothness = temporal coherence of motion features).
        let t = generate(&tiny());
        let s = t.slice(1);
        let mut diff_sq = 0.0;
        let mut amp_sq = 0.0;
        for i in 1..s.rows() {
            for j in 0..s.cols() {
                let d = s.at(i, j) - s.at(i - 1, j);
                diff_sq += d * d;
                amp_sq += s.at(i, j) * s.at(i, j);
            }
        }
        assert!(diff_sq < 0.5 * amp_sq, "tracks not smooth: {diff_sq} vs {amp_sq}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(&tiny()).slice(3), generate(&tiny()).slice(3));
    }
}
