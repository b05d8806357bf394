//! Stock-pair similarity from temporal factors — Eq. 10 & 11 of the paper.

use crate::knn::select_top_k;
use dpar2_linalg::Mat;

/// Eq. 10: `sim(s_i, s_j) = exp(−γ ‖U_i − U_j‖²_F)`.
///
/// `U_i` are the temporal latent factors of the two stocks, which must have
/// identical shape ("we use only the stocks that have the same target
/// range since `U_i − U_j` is defined only when the two matrices are of the
/// same size", §IV-E2). The paper uses `γ = 0.01`.
///
/// # Panics
/// Panics if the shapes differ.
pub fn stock_similarity(u_i: &Mat, u_j: &Mat, gamma: f64) -> f64 {
    (-gamma * dist_sq(u_i, u_j)).exp()
}

/// `‖U_i − U_j‖²_F` accumulated directly over the two backing stores —
/// no `U_i − U_j` temporary. Same element order as
/// `(u_i - u_j).fro_norm_sq()`, so the result is bit-identical to the
/// allocating formulation.
///
/// # Panics
/// Panics if the shapes differ (see [`stock_similarity`]).
fn dist_sq(u_i: &Mat, u_j: &Mat) -> f64 {
    assert_eq!(u_i.shape(), u_j.shape(), "stock_similarity: factors must share the time range");
    squared_distance(u_i.data(), u_j.data())
}

/// `‖a − b‖²` in one fused pass over two equal-length buffers.
///
/// This is **the** distance kernel of every Eq. 10 path — offline
/// ([`stock_similarity`]), exact serving, and the pruned index — so all of
/// them produce bit-identical similarities for the same inputs. Unlike the
/// Gram expansion `‖a‖² + ‖b‖² − 2·a·b`, the fused form cannot go negative
/// through catastrophic cancellation: each addend is a square, so the
/// result is exactly `0.0` for bit-identical buffers and `> 0` otherwise.
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "squared_distance: buffer lengths differ");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Streaming per-row top-k over Eq. 10 similarities: for every factor `i`,
/// the `k` most similar other factors as `(index, similarity)` pairs,
/// descending with ties broken by lower index — row `i` of the ranking that
/// `similarity_graph` + [`top_k_neighbors`](crate::knn::top_k_neighbors)
/// would produce, **without** materializing the O(n²) similarity matrix.
///
/// One row of `n − 1` candidate pairs is scored at a time and immediately
/// reduced through [`select_top_k`]; the candidate buffer is reused across
/// rows, so peak extra memory is O(n + n·k) instead of O(n²) (pinned by
/// the `topk_index` bench's peak-allocation probe). Use this when only the
/// rankings are needed; RWR-style consumers that genuinely need the dense
/// matrix keep using [`similarity_graph`].
///
/// Factors whose shape differs from row `i`'s are skipped for that row
/// (Eq. 10 is defined only on equal shapes, §IV-E2) — unlike
/// [`similarity_graph`], which panics on mixed shapes.
pub fn similarity_topk(factors: &[&Mat], gamma: f64, k: usize) -> Vec<Vec<(usize, f64)>> {
    let n = factors.len();
    let mut out: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
    let mut pairs: Vec<(usize, f64)> = Vec::with_capacity(n.saturating_sub(1));
    for i in 0..n {
        pairs.clear();
        pairs.extend(
            (0..n)
                .filter(|&j| j != i && factors[j].shape() == factors[i].shape())
                .map(|j| (j, stock_similarity(factors[i], factors[j], gamma))),
        );
        // `select_top_k` consumes and returns the buffer with capacity
        // intact: keep the k survivors for the caller, hand the n-capacity
        // allocation back for the next row.
        let top = select_top_k(std::mem::take(&mut pairs), k);
        out.push(top.as_slice().to_vec());
        pairs = top;
        pairs.clear();
    }
    out
}

/// Builds the symmetric similarity matrix over a set of stocks, and — per
/// Eq. 11 — the graph adjacency with zeroed self-loops.
///
/// Returns `(S, A)` where `S(i,j) = sim(s_i, s_j)` (unit diagonal) and
/// `A = S` with `A(i,i) = 0`.
///
/// # Panics
/// Panics if factor shapes differ (see [`stock_similarity`]).
pub fn similarity_graph(factors: &[&Mat], gamma: f64) -> (Mat, Mat) {
    let n = factors.len();
    let mut s = Mat::zeros(n, n);
    for i in 0..n {
        s.set(i, i, 1.0);
        for j in i + 1..n {
            let v = stock_similarity(factors[i], factors[j], gamma);
            s.set(i, j, v);
            s.set(j, i, v);
        }
    }
    let mut a = s.clone();
    for i in 0..n {
        a.set(i, i, 0.0);
    }
    (s, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn self_similarity_is_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = gaussian_mat(10, 3, &mut rng);
        assert_eq!(stock_similarity(&u, &u, 0.01), 1.0);
    }

    #[test]
    fn similarity_decays_with_distance() {
        let mut rng = StdRng::seed_from_u64(2);
        let u = gaussian_mat(10, 3, &mut rng);
        let mut near = u.clone();
        near.axpy(0.1, &gaussian_mat(10, 3, &mut rng));
        let mut far = u.clone();
        far.axpy(2.0, &gaussian_mat(10, 3, &mut rng));
        let s_near = stock_similarity(&u, &near, 0.01);
        let s_far = stock_similarity(&u, &far, 0.01);
        assert!(s_near > s_far, "near {s_near} vs far {s_far}");
        assert!((0.0..=1.0).contains(&s_near) && (0.0..=1.0).contains(&s_far));
    }

    #[test]
    fn gamma_sharpens() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = gaussian_mat(8, 2, &mut rng);
        let v = gaussian_mat(8, 2, &mut rng);
        assert!(stock_similarity(&u, &v, 0.1) < stock_similarity(&u, &v, 0.001));
    }

    #[test]
    fn dist_sq_matches_allocating_formulation() {
        let mut rng = StdRng::seed_from_u64(6);
        let u = gaussian_mat(12, 4, &mut rng);
        let v = gaussian_mat(12, 4, &mut rng);
        assert_eq!(dist_sq(&u, &v), (&u - &v).fro_norm_sq());
    }

    #[test]
    fn graph_symmetric_no_self_loops() {
        let mut rng = StdRng::seed_from_u64(4);
        let us: Vec<Mat> = (0..5).map(|_| gaussian_mat(6, 2, &mut rng)).collect();
        let refs: Vec<&Mat> = us.iter().collect();
        let (s, a) = similarity_graph(&refs, 0.01);
        assert!((&s - &s.transpose()).fro_norm() < 1e-15);
        for i in 0..5 {
            assert_eq!(s.at(i, i), 1.0);
            assert_eq!(a.at(i, i), 0.0);
        }
        // Off-diagonal entries agree between S and A.
        assert!((s.at(1, 3) - a.at(1, 3)).abs() < 1e-15);
    }

    #[test]
    fn topk_matches_graph_plus_knn() {
        use crate::knn::top_k_neighbors;
        let mut rng = StdRng::seed_from_u64(9);
        let us: Vec<Mat> = (0..12).map(|_| gaussian_mat(7, 3, &mut rng)).collect();
        let refs: Vec<&Mat> = us.iter().collect();
        let (s, _) = similarity_graph(&refs, 0.03);
        let streamed = similarity_topk(&refs, 0.03, 4);
        for i in 0..12 {
            assert_eq!(streamed[i], top_k_neighbors(&s, i, 4), "row {i}");
        }
    }

    #[test]
    fn topk_skips_incomparable_shapes() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = gaussian_mat(6, 2, &mut rng);
        let b = gaussian_mat(6, 2, &mut rng);
        let odd = gaussian_mat(9, 2, &mut rng); // different time range
        let streamed = similarity_topk(&[&a, &b, &odd], 0.01, 5);
        assert_eq!(streamed[0].len(), 1);
        assert_eq!(streamed[0][0].0, 1);
        assert_eq!(streamed[2], vec![], "no comparable partner for the odd shape");
    }

    #[test]
    fn topk_empty_and_k_zero() {
        assert!(similarity_topk(&[], 0.01, 3).is_empty());
        let mut rng = StdRng::seed_from_u64(11);
        let a = gaussian_mat(4, 2, &mut rng);
        let b = gaussian_mat(4, 2, &mut rng);
        let streamed = similarity_topk(&[&a, &b], 0.01, 0);
        assert!(streamed.iter().all(Vec::is_empty));
    }

    #[test]
    fn squared_distance_identical_buffers_is_exact_zero() {
        // The fused form cannot cancel catastrophically; the Gram
        // expansion this replaces could return tiny negative values here.
        let xs: Vec<f64> = (0..64).map(|i| 1e8 + i as f64 * 1e-8).collect();
        assert_eq!(squared_distance(&xs, &xs), 0.0);
    }

    #[test]
    #[should_panic(expected = "share the time range")]
    fn shape_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = gaussian_mat(6, 2, &mut rng);
        let v = gaussian_mat(7, 2, &mut rng);
        stock_similarity(&u, &v, 0.01);
    }
}
