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
//! each costing `O(J R² + K R³)` versus the naive `O(J K R²)` — the paper's
//! headline per-iteration improvement. The naive forms (used by the plain
//! PARAFAC2-ALS baseline and as test oracles) are provided alongside.
//!
//! The closed form used for Lemma 3 follows from column-major vectorization:
//! `vec(M)ᵀ (a ⊗ b) = Σ_{ij} M(i,j)·a(j)·b(i) = bᵀ M a`.
//!
//! `G⁽³⁾` serves twice: the `W` update solves against it, and the
//! convergence criterion reads `⟨W, G⁽³⁾⟩` off it afterwards
//! ([`crate::convergence::criterion_from_byproducts`]), since
//! `G⁽³⁾(k,r) = H(:,r)ᵀ Y_k V(:,r)` is the model–data cross term.

use crate::session::Workspace;
use dpar2_linalg::{gemm, Mat, Trans};
use dpar2_parallel::{slots, ThreadPool};
use dpar2_tensor::{mttkrp, Dense3};
use std::ops::Range;

/// Width of one reduction chunk over the slice index `k`.
///
/// Fixed (instead of `K / threads`) so the *grouping* of the floating-point
/// partial sums never depends on the pool size: partial sums are formed per
/// chunk and then added in ascending chunk order, which makes `g1`/`g2`
/// bit-identical for every thread count — the property `Dpar2::fit`'s
/// determinism contract rests on. Work per chunk is `CHUNK` dense `R×R`
/// accumulations, comfortably above scheduling overhead.
const K_CHUNK: usize = 16;

/// The slices of reduction chunk `c` over `0..k`: [`K_CHUNK`] of them
/// from `c · K_CHUNK` (the last chunk may be shorter).
fn k_chunk(c: usize, k: usize) -> Range<usize> {
    c * K_CHUNK..((c + 1) * K_CHUNK).min(k)
}

/// Lemma 1: `G⁽¹⁾ = Y_(1)(W ⊙ V) ∈ R^{R×R}` from the factorized slices,
/// into `out`.
///
/// `pzf[k] = P_k Z_kᵀ F(k)`, `w ∈ R^{K×R}`, `edtv = E Dᵀ V ∈ R^{R×R}`.
/// One body, whatever the pool: each chunk's partial sums
/// `T_r = Σ_k W(k,r)·PZF_k` go into the [`Workspace`]'s result slots
/// through the pool (a one-thread pool runs inline, allocation-free), then
/// add up in ascending chunk order, so the result is bit-identical for
/// every thread count.
pub fn g1_ws(
    pzf: &[Mat],
    w: &Mat,
    edtv: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    let r = edtv.rows();
    let k_total = pzf.len();
    let Workspace { lemma_acc, lemma_chunk, col_in, col_out, .. } = ws;
    // `r` partial sums per chunk, one per column of G⁽¹⁾.
    let partials = slots(lemma_chunk, k_total.div_ceil(K_CHUNK) * r);
    pool.for_each_chunk_mut(partials, r.max(1), |c, sums| {
        for s in sums.iter_mut() {
            s.resize_zeroed(r, r);
        }
        for k in k_chunk(c, k_total) {
            for (col, &wkr) in w.row(k).iter().enumerate() {
                if wkr != 0.0 {
                    sums[col].axpy(wkr, &pzf[k]);
                }
            }
        }
    });
    let totals = slots(lemma_acc, r);
    for t in totals.iter_mut() {
        t.resize_zeroed(r, r);
    }
    for part in partials.chunks(r.max(1)) {
        for (t, p) in totals.iter_mut().zip(part) {
            *t += p;
        }
    }
    // The columns G⁽¹⁾(:,r) = T_r · edtv(:,r).
    out.resize_zeroed(r, r);
    for (col, t_r) in totals.iter().enumerate() {
        col_in.clear();
        col_in.extend((0..r).map(|i| edtv.at(i, col)));
        t_r.view().matvec_into(col_in, col_out);
        out.set_col(col, col_out);
    }
}

/// Lemma 2: `G⁽²⁾ = Y_(2)(W ⊙ H) ∈ R^{J×R}` from the factorized slices,
/// into `out` against a reusable [`Workspace`].
///
/// `de = D E ∈ R^{J×R}` (stage-2 left factor, columns scaled by the
/// singular values). Accumulates `ACC(:,r) = Σ_k W(k,r) · (PZF_kᵀ H)(:,r)`
/// per chunk into result slots, each pool worker on its own arena (one
/// body; a one-thread pool runs inline), sums the chunks in ascending
/// order and writes `D E · ACC`. Bit-identical for every thread count.
pub fn g2_ws(
    pzf: &[Mat],
    w: &Mat,
    h: &Mat,
    de: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    let r = h.rows();
    let k_total = pzf.len();
    let Workspace { lemma_chunk, lemma_tmp, workers, .. } = ws;
    let partials = slots(lemma_chunk, k_total.div_ceil(K_CHUNK));
    let scratch = slots(workers, pool.threads());
    pool.for_each_with(partials.iter_mut(), scratch, |c, acc, worker| {
        acc.resize_zeroed(r, r);
        let pth = &mut worker.lemma_tmp;
        for k in k_chunk(c, k_total) {
            // PZF_kᵀ · H in one shot, then scale column r by W(k,r).
            pzf[k].matmul_tn_into(h, pth);
            let wrow = w.row(k);
            for i in 0..r {
                let acc_row = acc.row_mut(i);
                let pth_row = pth.row(i);
                for (col, &wkr) in wrow.iter().enumerate() {
                    acc_row[col] += wkr * pth_row[col];
                }
            }
        }
    });
    lemma_tmp.resize_zeroed(r, r);
    for p in partials.iter() {
        *lemma_tmp += p;
    }
    // J×R product — the only lemma-kernel GEMM that grows with J, so it
    // fans out over the pool (bit-identical for every pool size).
    gemm(Trans::N, Trans::N, de, &*lemma_tmp, out, pool);
}

/// Lemma 3: `G⁽³⁾ = Y_(3)(V ⊙ H) ∈ R^{K×R}` from the factorized slices,
/// into `out` against a reusable [`Workspace`].
///
/// Row `k` is computed via the bilinear form
/// `G⁽³⁾(k,r) = H(:,r)ᵀ · PZF_k · edtv(:,r)`, written straight into its
/// chunk of `out`'s rows by whichever pool worker owns the chunk (one
/// body; a one-thread pool runs inline). Bit-identical for every thread
/// count.
pub fn g3_ws(
    pzf: &[Mat],
    edtv: &Mat,
    h: &Mat,
    pool: &ThreadPool,
    out: &mut Mat,
    ws: &mut Workspace,
) {
    let r = h.rows();
    let k_total = pzf.len();
    out.resize_zeroed(k_total, r);
    let rows = out.data_mut().chunks_mut((K_CHUNK * r).max(1));
    let scratch = slots(&mut ws.workers, pool.threads());
    pool.for_each_with(rows, scratch, |c, rows, worker| {
        let t = &mut worker.lemma_tmp;
        for (row, k) in rows.chunks_mut(r).zip(k_chunk(c, k_total)) {
            // T = PZF_k · edtv, then G⁽³⁾(k,r) = Σ_i H(i,r) T(i,r).
            pzf[k].matmul_into(edtv, t);
            for i in 0..r {
                let hrow = h.row(i);
                let trow = t.row(i);
                for (col, v) in row.iter_mut().enumerate() {
                    *v += hrow[col] * trow[col];
                }
            }
        }
    });
}

/// Materializes the frontal slices `Y_k = PZF_k · E Dᵀ` — the explicit
/// tensor the naive kernels and the convergence oracle operate on.
pub fn materialize_y(pzf: &[Mat], edt: &Mat) -> Dense3 {
    let slices: Vec<Mat> = pzf.iter().map(|p| p.matmul(edt).expect("materialize_y")).collect();
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
        let edtv = edt.matmul(&v).unwrap();
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
        // K = 53 spans multiple K_CHUNK reduction chunks; K = 1 and K = 3
        // leave threads without a chunk; K = 16 and 32 end on a full chunk.
        // The fixed chunk grouping makes every kernel exactly
        // schedule-independent.
        for k in [53, 1, 3, K_CHUNK, 2 * K_CHUNK] {
            let s = setup(k, 13, 4, 104);
            let (a1, b1, c1) = s.lemmas(&ThreadPool::new(1));
            for threads in [2, 3, 4, 8] {
                let (a, b, c) = s.lemmas(&ThreadPool::new(threads));
                assert_eq!(a1, a, "g1 diverged at {threads} threads, K = {k}");
                assert_eq!(b1, b, "g2 diverged at {threads}, K = {k}");
                assert_eq!(c1, c, "g3 diverged at {threads}, K = {k}");
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

    #[test]
    fn k_chunks_cover_range() {
        for k in [1, 7, K_CHUNK, K_CHUNK + 1, 100] {
            let mut covered = vec![false; k];
            for c in 0..k.div_ceil(K_CHUNK) {
                for i in k_chunk(c, k) {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "k={k} left gaps");
        }
        assert!(k_chunk(0, 0).is_empty());
    }
}
