//! The Lemma 1–3 MTTKRP kernels (§III-E of the paper).
//!
//! After the `Q_k` update, PARAFAC2-ALS runs one CP-ALS iteration on the
//! small tensor `Y` whose frontal slices are `Y_k = Q_kᵀ X_k ∈ R^{R×J}`.
//! DPar2 keeps `Y_k` in factorized form
//!
//! ```text
//! Y_k = P_k Z_kᵀ F(k) E Dᵀ = PZF_k · (E Dᵀ),     PZF_k := P_k Z_kᵀ F(k) ∈ R^{R×R}
//! ```
//!
//! and evaluates the three matricized-tensor-times-Khatri-Rao products
//! without ever materializing `Y`:
//!
//! * **Lemma 1**: `G⁽¹⁾(:,r) = (Σ_k W(k,r) · PZF_k) · (E Dᵀ V)(:,r)`
//! * **Lemma 2**: `G⁽²⁾(:,r) = D E · Σ_k W(k,r) · PZF_kᵀ H(:,r)`
//! * **Lemma 3**: `G⁽³⁾(k,r) = vec(PZF_k)ᵀ (E Dᵀ V(:,r) ⊗ H(:,r))
//!                            = H(:,r)ᵀ · PZF_k · (E Dᵀ V)(:,r)`
//!
//! The closed form used for Lemma 3 follows from column-major vectorization:
//! `vec(M)ᵀ (a ⊗ b) = Σ_{ij} M(i,j)·a(j)·b(i) = bᵀ M a`.
//!
//! The kernels read every `PZF_k` as row `k` of one stacked matrix
//! `P ∈ R^{K×R²}` (row-major: `P[k, i·R + j] = PZF_k(i,j)`), which the
//! solver's `Q_k` step writes in place. The sums over `k` then become two
//! dense products, each one pooled [`gemm`] call:
//!
//! * `T = Wᵀ·P ∈ R^{R×R²}` ([`weighted_sums`]): row `r` of `T`, read as
//!   `R×R`, is `T_r = Σ_k W(k,r)·PZF_k`. Lemma 1 is
//!   `G⁽¹⁾(:,r) = T_r·(E Dᵀ V)(:,r)` ([`g1_from_sums`]), and Lemma 2
//!   `G⁽²⁾ = D E·[T_rᵀ·H(:,r)]_r` ([`g2_from_sums`]) from the same `T`:
//!   neither `W` nor any `PZF_k` changes between the two updates.
//! * `G⁽³⁾ = P·(H ⊙ E Dᵀ V)` ([`g3_stacked`]), the Khatri–Rao product
//!   `R² × R` with row `i·R + j` equal to `H(i,:) ∗ (E Dᵀ V)(j,:)`.
//!
//! `T` costs `O(K R³)` and `G⁽³⁾` `O(K R³)`, both in the blocked kernel
//! at `R ≥ 8` once `K R³` passes `24³` (`K ≥ 14` at `R = 10`), on the
//! naive loops below; Lemma 1 then costs `O(R³)` more and
//! Lemma 2 `O(R³ + J R²)` — against the naive `O(J K R²)`, the paper's
//! headline per-iteration improvement. The naive forms (used by the plain
//! PARAFAC2-ALS baseline and as test oracles) are provided alongside.
//!
//! Every product is [`gemm`], whose bits are the same for every pool size,
//! so all three lemmas are bit-identical for every thread count — the
//! property `Dpar2::fit`'s determinism contract rests on. No multiplicand
//! is skipped for being zero: a non-finite `PZF_k` reaches every output
//! that IEEE arithmetic says it reaches, whatever its weight.
//!
//! `G⁽³⁾` serves twice: the `W` update solves against it, and the
//! convergence criterion reads `⟨W, G⁽³⁾⟩` off it afterwards
//! ([`crate::convergence::criterion_from_byproducts`]), since
//! `G⁽³⁾(k,r) = H(:,r)ᵀ Y_k V(:,r)` is the model–data cross term.
//!
//! [`g1_ws`], [`g2_ws`] and [`g3_ws`] take the slices as separate `R×R`
//! matrices: they stack them into the [`Workspace`] and run the same
//! kernels.

use crate::session::Workspace;
use dpar2_linalg::{gemm, product, Mat, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::{khatri_rao_into, mttkrp, Dense3};

/// The sums Lemmas 1 and 2 share: `T = Wᵀ·P ∈ R^{R×R²}` into `t`, where
/// `p` holds `PZF_k` as row `k` (`K × R²`) and `w ∈ R^{K×R}`. Row `r`,
/// read as a row-major `R×R`, is `T_r = Σ_k W(k,r)·PZF_k`.
pub fn weighted_sums(p: &Mat, w: &Mat, pool: &ThreadPool, t: &mut Mat) {
    gemm(Trans::T, Trans::N, w, p, t, pool);
}

/// Lemma 1 from the sums `t` of [`weighted_sums`]: `G⁽¹⁾ = Y_(1)(W ⊙ V)
/// ∈ R^{R×R}` into `out`, column `r` being `T_r · edtv(:,r)`, where
/// `edtv = E Dᵀ V ∈ R^{R×R}`.
pub fn g1_from_sums(t: &Mat, edtv: &Mat, out: &mut Mat) {
    let r = edtv.rows();
    out.resize_zeroed(r, r);
    for (col, t_r) in t.data().chunks_exact((r * r).max(1)).enumerate() {
        for (i, t_row) in t_r.chunks_exact(r).enumerate() {
            let mut sum = 0.0;
            for (j, &x) in t_row.iter().enumerate() {
                sum += x * edtv.at(j, col);
            }
            out.set(i, col, sum);
        }
    }
}

/// Lemma 2 from the sums `t` of [`weighted_sums`]: `G⁽²⁾ = Y_(2)(W ⊙ H)
/// ∈ R^{J×R}` into `out`, as `D E · M` with `M(:,r) = T_rᵀ · H(:,r)`
/// (`R×R`, formed in `m`). `de = D E ∈ R^{J×R}` is the stage-2 left factor,
/// columns scaled by the singular values; `D E · M` is one pooled [`gemm`].
pub fn g2_from_sums(t: &Mat, h: &Mat, de: &Mat, pool: &ThreadPool, out: &mut Mat, m: &mut Mat) {
    let r = h.rows();
    m.resize_zeroed(r, r);
    for (col, t_r) in t.data().chunks_exact((r * r).max(1)).enumerate() {
        for (i, t_row) in t_r.chunks_exact(r).enumerate() {
            let hic = h.at(i, col);
            for (j, &x) in t_row.iter().enumerate() {
                m.row_mut(j)[col] += x * hic;
            }
        }
    }
    gemm(Trans::N, Trans::N, de, &*m, out, pool);
}

/// Lemma 3 over the stacked slices `p` (`K × R²`): `G⁽³⁾ = Y_(3)(V ⊙ H)
/// = P · (H ⊙ edtv) ∈ R^{K×R}` into `out`, the Khatri–Rao operand formed
/// in `kr` (`R² × R`). One pooled [`gemm`].
pub fn g3_stacked(p: &Mat, edtv: &Mat, h: &Mat, pool: &ThreadPool, out: &mut Mat, kr: &mut Mat) {
    khatri_rao_into(h, edtv, kr);
    gemm(Trans::N, Trans::N, p, &*kr, out, pool);
}

/// Stacks the `R×R` slices `pzf` as the rows of `p` (`K × R²`).
fn stack(pzf: &[Mat], r: usize, p: &mut Mat) {
    p.resize_zeroed(pzf.len(), r * r);
    for (row, pzf_k) in p.data_mut().chunks_exact_mut((r * r).max(1)).zip(pzf) {
        row.copy_from_slice(pzf_k.data());
    }
}

/// Lemma 1 from separate slices `pzf[k] = PZF_k`, into `out`: stacks them
/// into `ws.lemma_p`, then [`weighted_sums`] and [`g1_from_sums`].
pub fn g1_ws(
    pzf: &[Mat],
    w: &Mat,
    edtv: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    stack(pzf, edtv.rows(), &mut ws.lemma_p);
    weighted_sums(&ws.lemma_p, w, pool, &mut ws.lemma_t);
    g1_from_sums(&ws.lemma_t, edtv, out);
}

/// Lemma 2 from separate slices `pzf[k] = PZF_k`, into `out`: stacks them
/// into `ws.lemma_p`, then [`weighted_sums`] and [`g2_from_sums`].
pub fn g2_ws(
    pzf: &[Mat],
    w: &Mat,
    h: &Mat,
    de: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    stack(pzf, h.rows(), &mut ws.lemma_p);
    weighted_sums(&ws.lemma_p, w, pool, &mut ws.lemma_t);
    g2_from_sums(&ws.lemma_t, h, de, pool, out, &mut ws.lemma_tmp);
}

/// Lemma 3 from separate slices `pzf[k] = PZF_k`, into `out`: stacks them
/// into `ws.lemma_p`, then [`g3_stacked`].
pub fn g3_ws(
    pzf: &[Mat],
    edtv: &Mat,
    h: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    stack(pzf, h.rows(), &mut ws.lemma_p);
    g3_stacked(&ws.lemma_p, edtv, h, pool, out, &mut ws.lemma_kr);
}

/// Materializes the frontal slices `Y_k = PZF_k · E Dᵀ` — the explicit
/// tensor the naive kernels and the convergence oracle operate on.
pub fn materialize_y(pzf: &[Mat], edt: &Mat) -> Dense3 {
    let slices: Vec<Mat> = pzf.iter().map(|p| product(Trans::N, Trans::N, p, edt)).collect();
    Dense3::from_frontal_slices(slices)
}

/// Naive `Y_(1)(W ⊙ V)` on the materialized `Y` — `O(J K R²)` time and
/// `O(J K R)` memory. Test oracle and ablation baseline for [`g1_ws`].
pub fn naive_g1(y: &Dense3, v: &Mat, w: &Mat) -> Mat {
    let dummy = Mat::zeros(y.dim_i(), v.cols());
    mttkrp(y, &dummy, v, w, 1)
}

/// Naive `Y_(2)(W ⊙ H)`. Test oracle and ablation baseline for [`g2_ws`].
pub fn naive_g2(y: &Dense3, h: &Mat, w: &Mat) -> Mat {
    let dummy = Mat::zeros(y.dim_j(), h.cols());
    let _ = &dummy;
    mttkrp(y, h, &dummy, w, 2)
}

/// Naive `Y_(3)(V ⊙ H)`. Test oracle and ablation baseline for [`g3_ws`].
pub fn naive_g3(y: &Dense3, h: &Mat, v: &Mat) -> Mat {
    let dummy = Mat::zeros(y.dim_k(), h.cols());
    let _ = &dummy;
    mttkrp(y, h, v, &dummy, 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpar2_linalg::random::gaussian_mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Setup {
        pzf: Vec<Mat>,
        edt: Mat,
        de: Mat,
        v: Mat,
        h: Mat,
        w: Mat,
        edtv: Mat,
    }

    fn setup(k: usize, j: usize, r: usize, seed: u64) -> Setup {
        let mut rng = StdRng::seed_from_u64(seed);
        let pzf: Vec<Mat> = (0..k).map(|_| gaussian_mat(r, r, &mut rng)).collect();
        let d = gaussian_mat(j, r, &mut rng);
        let e: Vec<f64> = (0..r).map(|i| 1.0 + i as f64).collect();
        // edt = E Dᵀ, de = D E.
        let mut edt = d.transpose();
        for (row, &ev) in e.iter().enumerate() {
            for x in edt.row_mut(row) {
                *x *= ev;
            }
        }
        let mut de = d;
        for i in 0..j {
            let rr = de.row_mut(i);
            for (c, &ev) in e.iter().enumerate() {
                rr[c] *= ev;
            }
        }
        let v = gaussian_mat(j, r, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let w = gaussian_mat(k, r, &mut rng);
        let edtv = product(Trans::N, Trans::N, &edt, &v);
        Setup { pzf, edt, de, v, h, w, edtv }
    }

    impl Setup {
        /// `(G⁽¹⁾, G⁽²⁾, G⁽³⁾)` through the workspace kernels on `pool`,
        /// sharing one [`Workspace`] the way a fit's iteration does.
        fn lemmas(&self, pool: &ThreadPool) -> (Mat, Mat, Mat) {
            let mut ws = Workspace::new();
            let (mut a, mut b, mut c) = (Mat::default(), Mat::default(), Mat::default());
            g1_ws(&self.pzf, &self.w, &self.edtv, pool, &mut a, &mut ws);
            g2_ws(&self.pzf, &self.w, &self.h, &self.de, pool, &mut b, &mut ws);
            g3_ws(&self.pzf, &self.edtv, &self.h, pool, &mut c, &mut ws);
            (a, b, c)
        }
    }

    #[test]
    fn lemma1_matches_naive() {
        let s = setup(7, 11, 4, 101);
        let pool = ThreadPool::new(1);
        let fast = s.lemmas(&pool).0;
        let y = materialize_y(&s.pzf, &s.edt);
        let naive = naive_g1(&y, &s.v, &s.w);
        assert!(
            (&fast - &naive).fro_norm() < 1e-9 * (1.0 + naive.fro_norm()),
            "Lemma 1 mismatch: {}",
            (&fast - &naive).fro_norm()
        );
    }

    #[test]
    fn lemma2_matches_naive() {
        let s = setup(6, 9, 3, 102);
        let pool = ThreadPool::new(1);
        let fast = s.lemmas(&pool).1;
        let y = materialize_y(&s.pzf, &s.edt);
        let naive = naive_g2(&y, &s.h, &s.w);
        assert!(
            (&fast - &naive).fro_norm() < 1e-9 * (1.0 + naive.fro_norm()),
            "Lemma 2 mismatch: {}",
            (&fast - &naive).fro_norm()
        );
    }

    #[test]
    fn lemma3_matches_naive() {
        let s = setup(8, 10, 5, 103);
        let pool = ThreadPool::new(1);
        let fast = s.lemmas(&pool).2;
        let y = materialize_y(&s.pzf, &s.edt);
        let naive = naive_g3(&y, &s.h, &s.v);
        assert!(
            (&fast - &naive).fro_norm() < 1e-9 * (1.0 + naive.fro_norm()),
            "Lemma 3 mismatch: {}",
            (&fast - &naive).fro_norm()
        );
    }

    #[test]
    fn kernels_bit_identical_across_thread_counts() {
        // R = 4: K = 1 and 3 keep every product on the naive loops, K = 16,
        // 32 and 53 put `P·KR` on the blocked kernel in one row panel.
        // R = 10, K = 300: both `WᵀP` and `P·KR` take the blocked kernel,
        // and `P·KR` spans three 120-row panels, which fan out over the
        // pool. `gemm` is bit-identical for every pool size, and so is
        // every kernel.
        let cases = [(53, 4), (1, 4), (3, 4), (16, 4), (32, 4), (300, 10)];
        for (k, r) in cases {
            let s = setup(k, 13, r, 104);
            let (a1, b1, c1) = s.lemmas(&ThreadPool::new(1));
            for threads in [2, 3, 4, 8] {
                let (a, b, c) = s.lemmas(&ThreadPool::new(threads));
                assert_eq!(a1, a, "g1 diverged at {threads} threads, K = {k}, R = {r}");
                assert_eq!(b1, b, "g2 diverged at {threads}, K = {k}, R = {r}");
                assert_eq!(c1, c, "g3 diverged at {threads}, K = {k}, R = {r}");
            }
        }
    }

    #[test]
    fn stacked_kernels_match_the_slice_wrappers_bit_for_bit() {
        // The fit runs the kernels on the `P` its `Q_k` step writes, with
        // Lemma 2 reading Lemma 1's sums; the wrappers stack their slices
        // and recompute the sums. Both must give the same bits.
        for (k, r) in [(7, 4), (300, 10)] {
            let s = setup(k, 17, r, 107);
            let mut p = Mat::zeros(k, r * r);
            for (row, pzf_k) in p.data_mut().chunks_exact_mut(r * r).zip(&s.pzf) {
                row.copy_from_slice(pzf_k.data());
            }
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                let (mut t, mut m, mut kr) = (Mat::default(), Mat::default(), Mat::default());
                let (mut a, mut b, mut c) = (Mat::default(), Mat::default(), Mat::default());
                weighted_sums(&p, &s.w, &pool, &mut t);
                g1_from_sums(&t, &s.edtv, &mut a);
                g2_from_sums(&t, &s.h, &s.de, &pool, &mut b, &mut m);
                g3_stacked(&p, &s.edtv, &s.h, &pool, &mut c, &mut kr);
                let (a1, b1, c1) = s.lemmas(&pool);
                assert_eq!(a, a1, "g1, K = {k}, {threads} threads");
                assert_eq!(b, b1, "g2, K = {k}, {threads} threads");
                assert_eq!(c, c1, "g3, K = {k}, {threads} threads");
            }
        }
    }

    #[test]
    fn non_finite_slice_with_zero_weight_reaches_every_lemma() {
        // A NaN in PZF_k(i, j) with W(k,:) = 0: `0·NaN` is NaN, so the NaN
        // reaches every T_r at (i, j), hence row i of G⁽¹⁾, every entry of
        // G⁽²⁾ = D E·M (row j of M is NaN) and row k of G⁽³⁾. Nothing else
        // is touched. Once, G⁽¹⁾ skipped zero weights and stayed finite.
        for (k_dim, r, k, i, j) in [(7, 4, 2, 1, 3), (300, 10, 123, 4, 7)] {
            let mut s = setup(k_dim, 11, r, 108);
            s.pzf[k].set(i, j, f64::NAN);
            s.w.set_row(k, &vec![0.0; r]);
            for threads in [1, 2] {
                let (g1, g2, g3) = s.lemmas(&ThreadPool::new(threads));
                for row in 0..r {
                    let nan = row == i;
                    assert!(g1.row(row).iter().all(|x| x.is_nan() == nan), "G1 row {row}");
                }
                assert!(g2.data().iter().all(|x| x.is_nan()), "G2 K = {k_dim}");
                for row in 0..k_dim {
                    let nan = row == k;
                    assert!(g3.row(row).iter().all(|x| x.is_nan() == nan), "G3 row {row}");
                }
            }
        }
    }

    #[test]
    fn shapes() {
        let s = setup(5, 12, 3, 105);
        let pool = ThreadPool::new(2);
        let (a, b, c) = s.lemmas(&pool);
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(b.shape(), (12, 3));
        assert_eq!(c.shape(), (5, 3));
    }

    #[test]
    fn single_slice() {
        let s = setup(1, 6, 2, 106);
        let pool = ThreadPool::new(3);
        let y = materialize_y(&s.pzf, &s.edt);
        let fast = s.lemmas(&pool).0;
        let naive = naive_g1(&y, &s.v, &s.w);
        assert!((&fast - &naive).fro_norm() < 1e-10 * (1.0 + naive.fro_norm()));
    }
}
