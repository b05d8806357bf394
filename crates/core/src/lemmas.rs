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

use crate::session::Workspace;
use dpar2_linalg::{gemm, Mat, Trans};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::{mttkrp, Dense3};

/// Width of one reduction chunk over the slice index `k`.
///
/// Fixed (instead of `K / threads`) so the *grouping* of the floating-point
/// partial sums never depends on the pool size: partial sums are formed per
/// chunk and then added in ascending chunk order, which makes `g1`/`g2`
/// bit-identical for every thread count — the property `Dpar2::fit`'s
/// determinism contract rests on. Work per chunk is `CHUNK` dense `R×R`
/// accumulations, comfortably above scheduling overhead.
const K_CHUNK: usize = 16;

/// Splits `0..k` into contiguous ranges of [`K_CHUNK`] slices (the last
/// range may be shorter) for parallel reduction.
fn k_chunks(k: usize) -> Vec<std::ops::Range<usize>> {
    (0..k.div_ceil(K_CHUNK)).map(|c| c * K_CHUNK..((c + 1) * K_CHUNK).min(k)).collect()
}

/// Lemma 1: `G⁽¹⁾ = Y_(1)(W ⊙ V) ∈ R^{R×R}` from the factorized slices,
/// into `out`.
///
/// `pzf[k] = P_k Z_kᵀ F(k)`, `w ∈ R^{K×R}`, `edtv = E Dᵀ V ∈ R^{R×R}`.
/// Single-threaded pools run the chunked reduction allocation-free on the
/// [`Workspace`]'s accumulator slots; larger pools fan chunks out. The
/// result is bit-identical for every thread count (same `K_CHUNK`
/// grouping, same ascending-chunk reduction).
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
    if pool.threads() == 1 {
        let Workspace { lemma_acc, lemma_chunk, col_in, col_out, .. } = ws;
        while lemma_acc.len() < r {
            lemma_acc.push(Mat::default());
        }
        while lemma_chunk.len() < r {
            lemma_chunk.push(Mat::default());
        }
        for t in &mut lemma_acc[..r] {
            t.resize_zeroed(r, r);
        }
        for range in
            (0..k_total.div_ceil(K_CHUNK)).map(|c| c * K_CHUNK..((c + 1) * K_CHUNK).min(k_total))
        {
            for s in &mut lemma_chunk[..r] {
                s.resize_zeroed(r, r);
            }
            for k in range {
                let wrow = w.row(k);
                for (col, &wkr) in wrow.iter().enumerate() {
                    if wkr != 0.0 {
                        lemma_chunk[col].axpy(wkr, &pzf[k]);
                    }
                }
            }
            for (t, p) in lemma_acc[..r].iter_mut().zip(&lemma_chunk[..r]) {
                *t += p;
            }
        }
        out.resize_zeroed(r, r);
        for (col, t_r) in lemma_acc[..r].iter().enumerate() {
            col_in.clear();
            col_in.extend((0..edtv.rows()).map(|i| edtv.at(i, col)));
            t_r.view().matvec_into(col_in, col_out);
            out.set_col(col, col_out);
        }
        return;
    }

    // Per-chunk partial sums T_r = Σ_k W(k,r)·PZF_k, then the columns
    // G⁽¹⁾(:,r) = T_r · edtv(:,r).
    let chunks = k_chunks(k_total);
    let partials: Vec<Vec<Mat>> = pool.map(&chunks, |_, range| {
        let mut sums = vec![Mat::zeros(r, r); r];
        for k in range.clone() {
            let wrow = w.row(k);
            for (col, &wkr) in wrow.iter().enumerate() {
                if wkr != 0.0 {
                    sums[col].axpy(wkr, &pzf[k]);
                }
            }
        }
        sums
    });
    out.resize_zeroed(r, r);
    let mut total = vec![Mat::zeros(r, r); r];
    for part in &partials {
        for (t, p) in total.iter_mut().zip(part) {
            *t += p;
        }
    }
    for (col, t_r) in total.iter().enumerate() {
        let gcol = t_r.matvec(&edtv.col(col));
        out.set_col(col, &gcol);
    }
}

/// Lemma 2: `G⁽²⁾ = Y_(2)(W ⊙ H) ∈ R^{J×R}` from the factorized slices,
/// into `out` against a reusable [`Workspace`].
///
/// `de = D E ∈ R^{J×R}` (stage-2 left factor, columns scaled by the
/// singular values). Internally accumulates
/// `ACC(:,r) = Σ_k W(k,r) · (PZF_kᵀ H)(:,r)` and writes `D E · ACC`.
/// Bit-identical for every thread count.
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
    if pool.threads() == 1 {
        let Workspace { lemma_acc, lemma_chunk, lemma_tmp, .. } = ws;
        if lemma_acc.is_empty() {
            lemma_acc.push(Mat::default());
        }
        if lemma_chunk.is_empty() {
            lemma_chunk.push(Mat::default());
        }
        let total = &mut lemma_acc[0];
        let chunk_acc = &mut lemma_chunk[0];
        let pth = lemma_tmp;
        total.resize_zeroed(r, r);
        for range in
            (0..k_total.div_ceil(K_CHUNK)).map(|c| c * K_CHUNK..((c + 1) * K_CHUNK).min(k_total))
        {
            chunk_acc.resize_zeroed(r, r);
            pth.resize_zeroed(r, r);
            for k in range {
                // PZF_kᵀ · H in one shot, then scale column r by W(k,r).
                pzf[k].matmul_tn_into(h, pth);
                let wrow = w.row(k);
                for i in 0..r {
                    let acc_row = chunk_acc.row_mut(i);
                    let pth_row = pth.row(i);
                    for (col, &wkr) in wrow.iter().enumerate() {
                        acc_row[col] += wkr * pth_row[col];
                    }
                }
            }
            *total += &*chunk_acc;
        }
        // J×R product on the one-thread pool (the serial dispatch).
        gemm(Trans::N, Trans::N, de, &*total, out, pool);
        return;
    }

    let chunks = k_chunks(k_total);
    let partials: Vec<Mat> = pool.map(&chunks, |_, range| {
        let mut acc = Mat::zeros(r, r);
        let mut pth = Mat::zeros(r, r);
        for k in range.clone() {
            // PZF_kᵀ · H in one shot, then scale column r by W(k,r).
            pzf[k].matmul_tn_into(h, &mut pth);
            let wrow = w.row(k);
            for i in 0..r {
                let acc_row = acc.row_mut(i);
                let pth_row = pth.row(i);
                for (col, &wkr) in wrow.iter().enumerate() {
                    acc_row[col] += wkr * pth_row[col];
                }
            }
        }
        acc
    });
    let mut acc = Mat::zeros(r, r);
    for p in &partials {
        acc += p;
    }
    // J×R product — the only lemma-kernel GEMM that grows with J, so it
    // fans out over the pool (bit-identical for every pool size).
    gemm(Trans::N, Trans::N, de, &acc, out, pool);
}

/// Lemma 3: `G⁽³⁾ = Y_(3)(V ⊙ H) ∈ R^{K×R}` from the factorized slices,
/// into `out` against a reusable [`Workspace`].
///
/// Row `k` is computed via the bilinear form
/// `G⁽³⁾(k,r) = H(:,r)ᵀ · PZF_k · edtv(:,r)`. Bit-identical for every
/// thread count.
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
    if pool.threads() == 1 {
        let Workspace { lemma_tmp, col_out, .. } = ws;
        out.resize_zeroed(k_total, r);
        for (k, pzf_k) in pzf.iter().enumerate() {
            // T = PZF_k · edtv, then G⁽³⁾(k,r) = Σ_i H(i,r) T(i,r).
            pzf_k.matmul_into(edtv, lemma_tmp);
            col_out.clear();
            col_out.resize(r, 0.0);
            for i in 0..r {
                let hrow = h.row(i);
                let trow = lemma_tmp.row(i);
                for (col, v) in col_out.iter_mut().enumerate() {
                    *v += hrow[col] * trow[col];
                }
            }
            out.set_row(k, col_out);
        }
        return;
    }

    let rows: Vec<Vec<f64>> = pool.map(pzf, |_, pzf_k| {
        // T = PZF_k · edtv, then G⁽³⁾(k,r) = Σ_i H(i,r) T(i,r).
        let t = pzf_k.matmul(edtv).expect("g3: PZF_k · edtv");
        let mut row = vec![0.0; r];
        for i in 0..r {
            let hrow = h.row(i);
            let trow = t.row(i);
            for (col, v) in row.iter_mut().enumerate() {
                *v += hrow[col] * trow[col];
            }
        }
        row
    });
    out.resize_zeroed(k_total, r);
    for (k, row) in rows.iter().enumerate() {
        out.set_row(k, row);
    }
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
        // K = 53 spans multiple K_CHUNK reduction chunks; the fixed chunk
        // grouping makes every kernel exactly schedule-independent.
        let s = setup(53, 13, 4, 104);
        let (a1, b1, c1) = s.lemmas(&ThreadPool::new(1));
        for threads in [2, 3, 4] {
            let (a, b, c) = s.lemmas(&ThreadPool::new(threads));
            assert_eq!(a1, a, "g1 diverged at {threads} threads");
            assert_eq!(b1, b, "g2 diverged at {threads}");
            assert_eq!(c1, c, "g3 diverged at {threads}");
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
            let chunks = k_chunks(k);
            let mut covered = vec![false; k];
            for c in &chunks {
                for i in c.clone() {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "k={k} left gaps");
        }
        assert!(k_chunks(0).is_empty());
    }
}
