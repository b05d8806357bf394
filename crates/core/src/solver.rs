//! The DPar2 solver — Algorithm 3 of the paper.

use crate::compress::{compress_valid, CompressedTensor};
use crate::config::FitOptions;
use crate::convergence::criterion_from_byproducts;
use crate::error::{Dpar2Error, Result};
use crate::fitness::{Parafac2Fit, TimingBreakdown};
use crate::lemmas::{g1_from_sums, g2_from_sums, g3_stacked, weighted_sums};
use crate::session::{
    FitObserver, FitPhase, FitSession, NoopObserver, Parafac2Solver, SessionOutcome,
};
use crate::slices::{validate, StackedTensor};
use dpar2_linalg::kernel::use_blocked;
use dpar2_linalg::{
    extract_lane, gemm, gemm_lanes, interleave_lanes, pinv_into, product, svd_square_lanes,
    LaneOperand, Mat, MatRef, SvdBatchScratch, Trans, SVD_LANES,
};
use dpar2_parallel::ThreadPool;
use dpar2_tensor::normalize_columns_mut;
use dpar2_tensor::IrregularTensor;
use rand::SeedableRng;
use std::time::Instant;

/// Initial factors for warm-started iterations (see
/// [`Dpar2::fit_compressed_with_init`]).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Shared `H ∈ R^{R×R}`.
    pub h: Mat,
    /// Shared `V ∈ R^{J×R}`.
    pub v: Mat,
    /// Slice weights `W ∈ R^{K×R}` (row `k` = `diag(S_k)`).
    pub w: Mat,
}

impl WarmStart {
    /// Extracts warm-start factors from a previous fit (`W` row `k` is
    /// `diag(S_k)`). The usual path is [`FitOptions::with_warm_start`],
    /// which performs this conversion internally.
    pub fn from_fit(fit: &Parafac2Fit) -> WarmStart {
        let r = fit.rank();
        let mut w = Mat::zeros(fit.k(), r);
        for (k, s) in fit.s.iter().enumerate() {
            w.set_row(k, s);
        }
        WarmStart { h: fit.h.clone(), v: fit.v.clone(), w }
    }

    /// Validates this warm start against a compressed tensor and extends
    /// `W` with unit rows for slices beyond its coverage (the streaming
    /// semantics: newcomers start at unit weights).
    ///
    /// # Errors
    /// [`Dpar2Error::WarmStart`] on a rank/shape mismatch or when the warm
    /// start covers more slices than the data.
    fn conform(mut self, ct: &CompressedTensor) -> Result<WarmStart> {
        let r = ct.rank;
        let k = ct.k();
        if self.h.shape() != (r, r) {
            return Err(Dpar2Error::WarmStart {
                factor: "H",
                expected: (r, r),
                got: self.h.shape(),
            });
        }
        if self.v.shape() != (ct.j, r) {
            return Err(Dpar2Error::WarmStart {
                factor: "V",
                expected: (ct.j, r),
                got: self.v.shape(),
            });
        }
        if self.w.cols() != r || self.w.rows() > k {
            return Err(Dpar2Error::WarmStart {
                factor: "W",
                expected: (k, r),
                got: self.w.shape(),
            });
        }
        if self.w.rows() < k {
            let mut w = Mat::ones(k, r);
            for i in 0..self.w.rows() {
                w.set_row(i, self.w.row(i));
            }
            self.w = w;
        }
        Ok(self)
    }
}

/// Fast and scalable PARAFAC2 decomposition for irregular dense tensors.
///
/// A stateless solver handle: all per-fit settings (rank, seed, threads,
/// iteration/time budgets, warm start) travel in [`FitOptions`], so the
/// same value serves every fit and the type slots into
/// `Box<dyn Parafac2Solver>` registries.
///
/// ```text
/// Algorithm 3 (paper):
///   1  initialize H, V, S_k
///   2-4  compress slices in parallel:  X_k ≈ A_k B_k C_kᵀ       (stage 1)
///   5-6  M ← ∥_k C_k B_k;  D E Fᵀ ← rSVD(M)                     (stage 2)
///   7  repeat
///   8-10   Z_k Σ_k P_kᵀ ← SVD(F(k) E Dᵀ V S_k Hᵀ)   (R×R SVDs, 8 at once,
///          and their products, one slice per lane, in lane stores)
///   11-13  Y_k kept factorized as P_k Z_kᵀ F(k) E Dᵀ
///   14-15  G⁽¹⁾ ← Lemma 1;  H ← G⁽¹⁾(WᵀW ∗ VᵀV)†;  normalize H
///   16-17  G⁽²⁾ ← Lemma 2;  V ← G⁽²⁾(WᵀW ∗ HᵀH)†;  normalize V
///   18-19  G⁽³⁾ ← Lemma 3;  W ← G⁽³⁾(VᵀV ∗ HᵀH)†
///   20-22  S_k ← diag(W(k,:))
///   23 until converged / diverged / iteration budget / observer break /
///      time budget  (criterion from G⁽³⁾ and VᵀV ∗ HᵀH, O(KR²))
///   24-26  U_k ← A_k Z_k P_kᵀ H
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Dpar2;

impl Dpar2 {
    /// Decomposes an irregular tensor — dense [`IrregularTensor`] or CSR
    /// [`dpar2_tensor::SparseIrregularTensor`]: compression + iterations +
    /// recovery. A CSR tensor is never densified: stage-1 compression forms
    /// each slice's small-side Gram, and the fallback randomized SVD its
    /// sketch products, from the nonzeros alone (see [`crate::compress()`]),
    /// and stages 2+ are the same dense pipeline on the already-compressed
    /// `R`-dimensional factors. With the sketch width on the naive-dispatch
    /// path a CSR fit is bitwise identical to the fit of its densified
    /// tensor.
    ///
    /// Each `U_k` reuses the storage of the `A_k` it is computed from, so
    /// a fit never holds both: its heap peaks at about the larger of
    /// `{A_k} + M` (compression, `M` being `J × KR`) and `{U_k}` plus a few
    /// `K × R²` stores (the iterations).
    ///
    /// # Errors
    /// The [`crate::validate`] contract (invalid rank, non-finite input)
    /// and warm-start validation.
    pub fn fit<T: StackedTensor>(
        &self,
        tensor: &T,
        options: &FitOptions<'_>,
    ) -> Result<Parafac2Fit> {
        self.fit_observed(tensor, options, &mut NoopObserver)
    }

    /// [`Dpar2::fit`] with a [`FitObserver`] session: the observer sees the
    /// input shape, the preprocessing phase and every ALS iteration, and
    /// can cancel cooperatively.
    ///
    /// # Errors
    /// See [`Dpar2::fit`].
    pub fn fit_observed<T: StackedTensor>(
        &self,
        tensor: &T,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        let t0 = Instant::now();
        let (nnz, cells, sparse) = tensor.input_shape();
        observer.on_input_shape(nnz, cells, sparse);
        validate(tensor, options.rank)?;
        // The probe only ever lowers a valid rank, so the input stays valid.
        let options = &self.resolve_rank_energy(tensor, options);
        let compressed = compress_valid(tensor, options);
        let preprocess_secs = t0.elapsed().as_secs_f64();
        observer.on_phase(FitPhase::Compress, preprocess_secs);
        // The compressed tensor is this fit's own: finalize writes the U_k
        // over its A_k.
        let iterated = self.iterate(&compressed, None, options, observer)?;
        let mut fit = iterated.finalize(compressed.a, observer);
        fit.timing.preprocess_secs = preprocess_secs;
        fit.timing.total_secs += preprocess_secs;
        Ok(fit)
    }

    /// Applies the [`FitOptions::rank_energy`] escape hatch: probes the
    /// spectrum of the stacked tensor `[X_1; …; X_K]` (a zero-copy view, or
    /// a [`dpar2_rsvd::SparseVStack`] for CSR — one rank-`R` randomized
    /// SVD, the same probe seed for both) and lowers the target rank to the
    /// smallest value capturing the requested spectral-energy fraction. The
    /// probe runs at a *uniform* reduced rank applied before compression —
    /// both compression stages and the ALS assume one rank `R` throughout
    /// (`F_k ∈ R^{R×R}`, `Z = I_R`), so per-stage heterogeneous ranks are
    /// not representable.
    fn resolve_rank_energy<'a, T: StackedTensor>(
        &self,
        tensor: &T,
        options: &FitOptions<'a>,
    ) -> FitOptions<'a> {
        let Some(threshold) = options.rank_energy else {
            return *options;
        };
        let pool = ThreadPool::new(options.threads.max(1));
        // Fixed offset keeps the probe's RNG stream independent of the
        // compression stages' (same idiom as their per-stage seeds).
        let mut rng = rand::rngs::StdRng::seed_from_u64(options.seed ^ 0xAD4A_9F1E_5EED_0C47);
        let cfg = dpar2_rsvd::RsvdConfig { rank: options.rank, ..options.rsvd };
        let probe = dpar2_rsvd::svd_truncated_energy_pooled(
            tensor.stacked(),
            &cfg,
            threshold,
            &mut rng,
            &pool,
        );
        options.with_rank(probe.rank.clamp(1, options.rank.max(1)))
    }

    /// Runs the ALS iterations on an already-compressed tensor (lines 7–26).
    ///
    /// Exposed separately so the benchmark harness can time preprocessing
    /// and iterations independently (Fig. 9 of the paper). `ct` stays the
    /// caller's, so recovery clones its `A_k` and each `U_k` reuses the
    /// clone's storage, as in [`Dpar2::fit`]: the same finalize, the same
    /// bits.
    ///
    /// # Errors
    /// [`Dpar2Error::WarmStart`] if `options.warm_start` does not match the
    /// compressed tensor's rank/shape; [`Dpar2Error::ZeroRank`] or
    /// [`Dpar2Error::Linalg`] (a dimension mismatch) if a hand-built
    /// compressed tensor's own shapes disagree.
    pub fn fit_compressed(
        &self,
        ct: &CompressedTensor,
        options: &FitOptions<'_>,
    ) -> Result<Parafac2Fit> {
        self.fit_compressed_observed(ct, options, &mut NoopObserver)
    }

    /// [`Dpar2::fit_compressed`] with an observer session.
    ///
    /// # Errors
    /// See [`Dpar2::fit_compressed`].
    pub fn fit_compressed_observed(
        &self,
        ct: &CompressedTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        // `fit_compressed_with_init` owns the warm-start rule (explicit
        // factors win, else `options.warm_start`).
        self.fit_compressed_with_init(ct, None, options, observer)
    }

    /// Like [`Dpar2::fit_compressed_observed`] but warm-started from
    /// explicit factors — the entry point of the streaming extension
    /// ([`crate::streaming`]), where factors from the previous window seed
    /// the next decomposition. An explicit `warm` takes precedence over
    /// `options.warm_start`.
    ///
    /// # Errors
    /// [`Dpar2Error::WarmStart`] if warm-start factor shapes do not match
    /// the compressed tensor (`H: R×R`, `V: J×R`, `W: at most K×R` — `W`
    /// with fewer than `K` rows is extended with unit rows).
    pub fn fit_compressed_with_init(
        &self,
        ct: &CompressedTensor,
        warm: Option<WarmStart>,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        let iterated = self.iterate(ct, warm, options, observer)?;
        Ok(iterated.finalize(ct.a.clone(), observer))
    }

    /// Initialization and the ALS iterations (lines 1 and 7–23) on `ct`,
    /// warm-started from `warm`, or else from `options.warm_start`.
    ///
    /// # Errors
    /// See [`Dpar2::fit_compressed_with_init`].
    fn iterate(
        &self,
        ct: &CompressedTensor,
        warm: Option<WarmStart>,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Iterated> {
        let t_start = Instant::now();
        // Doc contract: an explicit warm start wins, otherwise fall back
        // to the one carried in the options.
        let warm = warm.or_else(|| options.warm_start.map(WarmStart::from_fit));
        // The compressed tensor's rank governs the iteration; `compress`
        // already enforced `0 < R ≤ min(I_k, J)`, but a hand-built
        // CompressedTensor (the fields are public) gets the same typed
        // rejection instead of a downstream panic.
        check_compressed(ct)?;
        let r = ct.rank;
        let k_dim = ct.k();
        let pool = ThreadPool::new(options.threads.max(1));
        let serial = ThreadPool::new(1);

        // Static precomputations: E Dᵀ (R×J) and D E (J×R).
        let edt = ct.edt();
        let mut de = ct.d.clone();
        for i in 0..de.rows() {
            let row = de.row_mut(i);
            for (c, &ev) in ct.e.iter().enumerate() {
                row[c] *= ev;
            }
        }

        // Line 1 — initialization: H = I, V = D (orthonormal, spans the
        // compressed column space), S_k = I (W = all-ones); or the caller's
        // warm start, validated and W-extended to the current slice count.
        let (mut h, mut v, mut w) = match warm {
            Some(ws) => {
                let ws = ws.conform(ct)?;
                (ws.h, ws.v, ws.w)
            }
            None => (Mat::eye(r), ct.d.clone(), Mat::ones(k_dim, r)),
        };

        // Squared norm of the compressed data: `P_k Z_kᵀ` is orthogonal, so
        // ‖PZF_k·EDᵀ‖ = ‖F(k)·EDᵀ‖ for every iteration — computed once and
        // used for the absolute ("residual is already tiny") stop test.
        // Slice-parallel; the ascending-k summation keeps the value
        // bit-identical for every thread count.
        let mut slice_norms = vec![0.0; k_dim];
        let mut prods = vec![Mat::default(); pool.threads().min(k_dim).max(1)];
        let slices = slice_norms.iter_mut().zip(&ct.f_blocks);
        pool.for_each_with(slices, &mut prods, |_, (norm, f_k), prod| {
            gemm(Trans::N, Trans::N, f_k, &edt, prod, &serial);
            *norm = prod.fro_norm_sq();
        });
        let data_norm_sq: f64 = slice_norms.iter().sum();
        // The criterion is a difference of squared norms. Data whose squared
        // norm underflows (to a subnormal, or to zero while the data is not
        // zero) leaves it no precision to stop on, so such a fit stops
        // diverged, as one whose squares overflow does.
        let unmeasurable = data_norm_sq < f64::MIN_POSITIVE
            && ct.f_blocks.iter().any(|f| f.data().iter().any(|&x| x != 0.0));

        let mut edtv = product(Trans::N, Trans::N, &edt, &v);
        // Every slice's `Z_k P_kᵀ` and `PZF_k`, each as row `k` of a
        // `K × R²` store, which the `Q_k` step writes in place: `P` is what
        // the lemma kernels read (see [`crate::lemmas`]), and `Z_k P_kᵀ` is
        // kept for the final U_k recovery (`I` if no iteration runs).
        let mut zpt = Mat::zeros(k_dim, r * r);
        for row in zpt.data_mut().chunks_exact_mut(r * r) {
            row.iter_mut().step_by(r + 1).for_each(|x| *x = 1.0);
        }
        let mut p = Mat::zeros(k_dim, r * r);
        let mut qk = QkStep::new(k_dim, &pool);

        // Factor-update staging buffers, persistent across iterations so
        // the steady-state loop allocates nothing. `WᵀW` serves the H and V
        // updates and `HᵀH` the V and W updates, each formed once.
        let mut g_out = Mat::default();
        let (mut wtw, mut vtv, mut hth) = (Mat::default(), Mat::default(), Mat::default());
        let mut gram = Mat::default();
        let mut pinv_buf = Mat::default();
        // One staging buffer per factor: capacities differ (H is R×R, V is
        // J×R, W is K×R), so a shared buffer would re-grow as it ping-pongs
        // between shapes via the swaps below.
        let mut next_h = Mat::default();
        let mut next_v = Mat::default();
        let mut next_w = Mat::default();

        let mut session = FitSession::new(options, observer);
        // Everything since `t_start` was initialization: warm-start
        // conformance, static precomputations, the data norm.
        session.phase(FitPhase::Init, t_start.elapsed().as_secs_f64());
        for _iter in 0..options.max_iterations {
            session.start_iteration();
            let ws = session.workspace();

            // Lines 8–13: the R×R SVDs of F(k)·(E Dᵀ V)·S_k·Hᵀ and the
            // products around them.
            qk.run(&pool, (&ct.f_blocks[..], &edtv, &w, &h), &mut zpt, &mut p);

            // Lines 14–15: H update, from the sums `T = WᵀP`, which the V
            // update reads too: neither W nor P changes in between.
            weighted_sums(&p, &w, &pool, &mut ws.lemma_t);
            g1_from_sums(&ws.lemma_t, &edtv, &mut g_out);
            gemm(Trans::T, Trans::N, &w, &w, &mut wtw, &serial);
            gemm(Trans::T, Trans::N, &v, &v, &mut vtv, &serial);
            gram.copy_from(&wtw);
            gram.hadamard_assign(&vtv); // WᵀW ∗ VᵀV
            pinv_into(&gram, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_h, &serial);
            std::mem::swap(&mut h, &mut next_h);
            normalize_columns_mut(&mut h, &mut ws.norms);

            // Lines 16–17: V update (edtv refreshed afterwards).
            g2_from_sums(&ws.lemma_t, &h, &de, &pool, &mut g_out, &mut ws.lemma_tmp);
            gemm(Trans::T, Trans::N, &h, &h, &mut hth, &serial);
            gram.copy_from(&wtw);
            gram.hadamard_assign(&hth); // WᵀW ∗ HᵀH
            pinv_into(&gram, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_v, &serial);
            std::mem::swap(&mut v, &mut next_v);
            normalize_columns_mut(&mut v, &mut ws.norms);
            gemm(Trans::N, Trans::N, &edt, &v, &mut edtv, &serial);

            // Lines 18–19: W update.
            g3_stacked(&p, &edtv, &h, &pool, &mut g_out, &mut ws.lemma_kr);
            gemm(Trans::T, Trans::N, &v, &v, &mut vtv, &serial);
            gram.copy_from(&vtv);
            gram.hadamard_assign(&hth); // VᵀV ∗ HᵀH
            pinv_into(&gram, &mut pinv_buf, &mut ws.svd_tmp, &mut ws.svd);
            gemm(Trans::N, Trans::N, &g_out, &pinv_buf, &mut next_w, &serial);
            std::mem::swap(&mut w, &mut next_w);

            // Line 23: the compressed criterion from the W update's
            // by-products (G⁽³⁾ is still in `g_out`, VᵀV ∗ HᵀH in `gram`),
            // then the session's shared stopping rule (divergence /
            // convergence / observer / time budget / iteration budget).
            let crit = if unmeasurable {
                f64::NAN
            } else {
                criterion_from_byproducts(data_norm_sq, &w, &g_out, &gram)
            };
            if session.finish_iteration(crit, data_norm_sq) {
                break;
            }
        }
        let outcome = session.finish();
        Ok(Iterated { h, v, w, zpt, outcome, pool, t_start })
    }
}

/// What the iterations leave for recovery (lines 24–26).
struct Iterated {
    h: Mat,
    v: Mat,
    w: Mat,
    /// Every slice's `Z_k P_kᵀ`, as row `k` of a `K × R²` store.
    zpt: Mat,
    outcome: SessionOutcome,
    pool: ThreadPool,
    /// When the fit's iterations began (initialization included).
    t_start: Instant,
}

impl Iterated {
    /// Lines 24–26: `U_k = A_k·(Z_k P_kᵀ H)` for every slice `a[k] = A_k`,
    /// written over `A_k`'s own storage. Each pool thread computes its
    /// slices' products into one `max I_k × R` scratch — the same `gemm`
    /// call on the whole slice as an allocating product, so the same bits —
    /// and copies each back.
    fn finalize(self, mut a: Vec<Mat>, observer: &mut dyn FitObserver) -> Parafac2Fit {
        let Iterated { h, v, w, zpt, mut outcome, pool, t_start } = self;
        let serial = ThreadPool::new(1);
        let t_final = Instant::now();
        let r = h.rows();
        let max_rows = a.iter().map(Mat::rows).max().unwrap_or(0);
        let mut scratch: Vec<(Mat, Mat)> = (0..pool.threads().min(a.len()).max(1))
            .map(|_| (Mat::zeros(r, r), Mat::zeros(max_rows, r)))
            .collect();
        pool.for_each_with(a.iter_mut(), &mut scratch, |k, a_k, (zph, u)| {
            gemm(Trans::N, Trans::N, MatRef::from_slice(r, r, zpt.row(k)), &h, zph, &serial);
            gemm(Trans::N, Trans::N, &*a_k, &*zph, u, &serial);
            a_k.data_mut().copy_from_slice(u.data());
        });
        let s: Vec<Vec<f64>> = (0..w.rows()).map(|k| w.row(k).to_vec()).collect();
        let finalize_secs = t_final.elapsed().as_secs_f64();
        outcome.phases.record(FitPhase::Finalize, finalize_secs);
        observer.on_phase(FitPhase::Finalize, finalize_secs);

        Parafac2Fit {
            u: a,
            s,
            v,
            h,
            iterations: outcome.iterations(),
            stop_reason: outcome.stop_reason,
            timing: TimingBreakdown::from_spans(
                &outcome.phases,
                outcome.per_iteration_secs,
                t_start.elapsed().as_secs_f64(),
            ),
            criterion_trace: outcome.criterion_trace,
        }
    }
}

/// The shapes a hand-built [`CompressedTensor`] (its fields are public)
/// must have for the iterations to run: a non-zero `R`, `K` blocks `F(k)`
/// of `R×R`, `D` of `J×R`, `E` of length `R` and `K` factors `A_k` of `R`
/// columns. Checked up front, so a bad shape is a typed error rather than
/// a panic in the first product — or in finalize, after every iteration.
fn check_compressed(ct: &CompressedTensor) -> Result<()> {
    let r = ct.rank;
    if r == 0 {
        return Err(Dpar2Error::ZeroRank);
    }
    let mismatch = |op, left, right| {
        Err(Dpar2Error::Linalg(dpar2_linalg::LinalgError::DimensionMismatch { op, left, right }))
    };
    if ct.f_blocks.len() != ct.a.len() {
        return mismatch(
            "fit_compressed: F-blocks vs A-factors",
            (ct.f_blocks.len(), r),
            (ct.a.len(), r),
        );
    }
    if let Some(f) = ct.f_blocks.iter().find(|f| f.shape() != (r, r)) {
        return mismatch("fit_compressed: F(k) vs R×R", f.shape(), (r, r));
    }
    if ct.d.shape() != (ct.j, r) {
        return mismatch("fit_compressed: D vs J×R", ct.d.shape(), (ct.j, r));
    }
    if ct.e.len() != r {
        return mismatch("fit_compressed: E vs R", (ct.e.len(), 1), (r, 1));
    }
    if let Some(a) = ct.a.iter().find(|a| a.cols() != r) {
        return mismatch("fit_compressed: A_k vs R columns", a.shape(), (a.rows(), r));
    }
    Ok(())
}

/// The `Q_k` step (lines 8–13) of every iteration of one fit: each pool
/// thread takes one run of whole lane groups of [`SVD_LANES`] slices (a
/// one-thread pool: one run of every slice), with its own scratch. The
/// groups, and so every bit, are the same for every thread count.
#[derive(Debug)]
struct QkStep {
    /// Slices per run, a multiple of [`SVD_LANES`].
    run: usize,
    scratch: Vec<QkScratch>,
}

impl QkStep {
    fn new(k_dim: usize, pool: &ThreadPool) -> QkStep {
        // `max` keeps the run non-zero at K = 0.
        let run = k_dim.div_ceil(pool.threads()).next_multiple_of(SVD_LANES).max(SVD_LANES);
        let scratch = (0..k_dim.div_ceil(run).max(1)).map(|_| QkScratch::default()).collect();
        QkStep { run, scratch }
    }

    /// Writes every slice's `Z_k P_kᵀ` into row `k` of `zpt` and `PZF_k`
    /// into row `k` of `p` (both `K × R²`), each run in place on its own
    /// scratch. `fit` is `({F(k)}, E Dᵀ V, W, H)`.
    fn run(
        &mut self,
        pool: &ThreadPool,
        fit: (&[Mat], &Mat, &Mat, &Mat),
        zpt: &mut Mat,
        p: &mut Mat,
    ) {
        let run = self.run;
        let len = run * zpt.cols();
        let runs = zpt.data_mut().chunks_mut(len).zip(p.data_mut().chunks_mut(len));
        pool.for_each_with(runs, &mut self.scratch, |i, (zpt, pzf), scratch| {
            qk_update(i * run, fit, zpt, pzf, scratch);
        });
    }
}

/// Scratch for the `Q_k` step of one run of lane groups; the fit keeps
/// one per run, so steady-state iterations allocate nothing per slice.
/// The lane stores hold one slice per lane (see [`gemm_lanes`]).
#[derive(Debug, Default)]
pub(crate) struct QkScratch {
    /// The group's `F(k)`, read twice: into the SVD inputs and into `PZF_k`.
    f: Vec<[f64; SVD_LANES]>,
    /// `W(k,:)`, the diagonal of `S_k`.
    s: Vec<[f64; SVD_LANES]>,
    /// `F(k)·(E Dᵀ V)·S_k`, then the factors' `U`, then `PZF_k`.
    a: Vec<[f64; SVD_LANES]>,
    /// The SVD inputs `F(k)·(E Dᵀ V)·S_k·Hᵀ`, then `Z_k P_kᵀ`.
    b: Vec<[f64; SVD_LANES]>,
    /// The factors' `V`.
    v: Vec<[f64; SVD_LANES]>,
    /// The singular values, which the step does not use.
    sigma: Vec<[f64; SVD_LANES]>,
    /// Where `R` is past the lane products: one slice's
    /// `F(k)·(E Dᵀ V)·S_k`, then its `U`.
    u: Mat,
    /// There, one slice's `V`.
    v_k: Mat,
    /// There, one slice's SVD input, `Z_k P_kᵀ` and `PZF_k`, on their way
    /// to a lane store or a row.
    out: Mat,
    svd: SvdBatchScratch,
}

/// The `Q_k` step (lines 8–13) for the slices from `k0` whose rows
/// (`R²` entries each) `zpt` and `pzf` hold, in groups of [`SVD_LANES`]
/// from `k0`: the `R×R` SVDs of `F(k)·(E Dᵀ V)·S_k·Hᵀ` through the
/// lane-native kernel ([`svd_square_lanes`]), then `Z_k P_kᵀ` into its row
/// of `zpt` and `PZF_k = (Z_k P_kᵀ)ᵀ F(k)` into its row of `pzf`. `fit` is
/// `({F(k)}, E Dᵀ V, W, H)`.
///
/// Where `gemm` runs `R×R` products on its naive loops, a group's products
/// run one slice per lane through [`gemm_lanes`], in the same order, so
/// the bits are those of the per-slice products. Larger `R` keeps the
/// per-slice `gemm` calls, whose blocked kernel rounds differently.
fn qk_update(
    k0: usize,
    fit: (&[Mat], &Mat, &Mat, &Mat),
    zpt: &mut [f64],
    pzf: &mut [f64],
    g: &mut QkScratch,
) {
    let r = fit.3.rows();
    let group = if use_blocked(r, r, r) { qk_group_per_slice } else { qk_group_lanes };
    let len = SVD_LANES * r * r;
    let groups = zpt.chunks_mut(len).zip(pzf.chunks_mut(len));
    for (first, (zpt, pzf)) in (k0..).step_by(SVD_LANES).zip(groups) {
        group(first, fit, zpt, pzf, g);
    }
}

/// One lane group of [`qk_update`] in lanes: each `F(k)` is interleaved
/// once and read by the first and the last product, the SVDs read and
/// write lane stores, and only the results leave them, straight into
/// their rows.
fn qk_group_lanes(
    first: usize,
    (f_blocks, edtv, w, h): (&[Mat], &Mat, &Mat, &Mat),
    zpt: &mut [f64],
    pzf: &mut [f64],
    g: &mut QkScratch,
) {
    let r = h.rows();
    let lanes = zpt.len() / (r * r);
    let ks = first..first + lanes;
    interleave_lanes(ks.clone().map(|k| &f_blocks[k]), r, &mut g.f);
    gemm_lanes(Trans::N, Trans::N, r, &g.f, LaneOperand::Shared(edtv), &mut g.a);
    // · S_k (diagonal, scale columns by W(k,:)), then · Hᵀ.
    g.s.clear();
    g.s.resize(r, [0.0; SVD_LANES]);
    for (l, k) in ks.enumerate() {
        for (s, &wv) in g.s.iter_mut().zip(w.row(k)) {
            s[l] = wv;
        }
    }
    for row in g.a.chunks_exact_mut(r) {
        for (x, s) in row.iter_mut().zip(&g.s) {
            for l in 0..SVD_LANES {
                x[l] *= s[l];
            }
        }
    }
    gemm_lanes(Trans::N, Trans::T, r, &g.a, LaneOperand::Shared(h), &mut g.b);
    svd_square_lanes(r, lanes, &g.b, &mut g.a, &mut g.sigma, &mut g.v, &mut g.svd);
    gemm_lanes(Trans::N, Trans::T, r, &g.a, LaneOperand::PerLane(&g.v), &mut g.b);
    gemm_lanes(Trans::T, Trans::N, r, &g.b, LaneOperand::PerLane(&g.f), &mut g.a);
    let rows = zpt.chunks_exact_mut(r * r).zip(pzf.chunks_exact_mut(r * r));
    for (l, (zp, pzf_k)) in rows.enumerate() {
        lane_into(&g.b, l, zp);
        lane_into(&g.a, l, pzf_k);
    }
}

/// Copies lane `l` of a lane store into `row`.
fn lane_into(src: &[[f64; SVD_LANES]], l: usize, row: &mut [f64]) {
    for (y, x) in row.iter_mut().zip(src) {
        *y = x[l];
    }
}

/// One lane group of [`qk_update`] with per-slice `gemm` products, for
/// `R` past the naive-loop sizes; the SVDs still run in lanes.
fn qk_group_per_slice(
    first: usize,
    (f_blocks, edtv, w, h): (&[Mat], &Mat, &Mat, &Mat),
    zpt: &mut [f64],
    pzf: &mut [f64],
    g: &mut QkScratch,
) {
    let r = h.rows();
    let lanes = zpt.len() / (r * r);
    let serial = ThreadPool::new(1);
    g.b.clear();
    g.b.resize(r * r, [0.0; SVD_LANES]);
    for (l, k) in (first..first + lanes).enumerate() {
        gemm(Trans::N, Trans::N, &f_blocks[k], edtv, &mut g.u, &serial);
        for i in 0..r {
            for (x, &wv) in g.u.row_mut(i).iter_mut().zip(w.row(k)) {
                *x *= wv;
            }
        }
        gemm(Trans::N, Trans::T, &g.u, h, &mut g.out, &serial);
        for (x, &y) in g.b.iter_mut().zip(g.out.data()) {
            x[l] = y;
        }
    }
    svd_square_lanes(r, lanes, &g.b, &mut g.a, &mut g.sigma, &mut g.v, &mut g.svd);
    let rows = zpt.chunks_exact_mut(r * r).zip(pzf.chunks_exact_mut(r * r));
    for (l, (k, (zp, pzf_k))) in (first..).zip(rows).enumerate() {
        extract_lane(&g.a, r, l, &mut g.u);
        extract_lane(&g.v, r, l, &mut g.v_k);
        gemm(Trans::N, Trans::T, &g.u, &g.v_k, &mut g.out, &serial);
        zp.copy_from_slice(g.out.data());
        gemm(Trans::T, Trans::N, MatRef::from_slice(r, r, zp), &f_blocks[k], &mut g.out, &serial);
        pzf_k.copy_from_slice(g.out.data());
    }
}

impl Parafac2Solver for Dpar2 {
    fn name(&self) -> &'static str {
        "DPar2"
    }

    fn fit_observed(
        &self,
        tensor: &IrregularTensor,
        options: &FitOptions<'_>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        Dpar2::fit_observed(self, tensor, options, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::session::{IterationEvent, StopReason};
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_linalg::svd::svd_thin_into;
    use dpar2_linalg::{qr, LinalgError, SvdFactors, SvdScratch};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::ops::ControlFlow;

    /// Irregular tensor with an exact PARAFAC2 structure
    /// `X_k = Q_k H S_k Vᵀ` plus optional noise.
    fn planted_parafac2(
        row_dims: &[usize],
        j: usize,
        r: usize,
        noise: f64,
        seed: u64,
    ) -> IrregularTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = gaussian_mat(r, r, &mut rng);
        let v = gaussian_mat(j, r, &mut rng);
        let slices = row_dims
            .iter()
            .map(|&ik| {
                let q = qr::qr(gaussian_mat(ik, r, &mut rng)).q;
                let sk: Vec<f64> =
                    (0..r).map(|i| 1.0 + 0.3 * i as f64 + rng.random::<f64>()).collect();
                let mut qh = product(Trans::N, Trans::N, &q, &h);
                for row in 0..ik {
                    let rr = qh.row_mut(row);
                    for (c, &sv) in sk.iter().enumerate() {
                        rr[c] *= sv;
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

    #[test]
    fn recovers_noiseless_planted_model() {
        // Note: ALS-family solvers converge through a slow "swamp" on this
        // instance — a reference (uncompressed) PARAFAC2-ALS reaches the
        // same 0.9985 fitness plateau at 32 iterations. DPar2 must match
        // that reference behaviour, not exceed it.
        let t = planted_parafac2(&[25, 40, 30, 20], 15, 3, 0.0, 401);
        let fit = Dpar2.fit(&t, &FitOptions::new(3).with_seed(402)).unwrap();
        let f = fit.fitness(&t);
        assert!(f > 0.99, "fitness on noiseless planted data: {f}");
    }

    #[test]
    fn high_fitness_on_noisy_planted_model() {
        let t = planted_parafac2(&[35, 50, 25], 20, 4, 0.1, 403);
        let fit = Dpar2.fit(&t, &FitOptions::new(4).with_seed(404)).unwrap();
        let f = fit.fitness(&t);
        assert!(f > 0.9, "fitness on lightly-noisy planted data: {f}");
    }

    #[test]
    fn criterion_trace_is_monotone_decreasing() {
        let t = planted_parafac2(&[30, 45, 25, 35], 18, 3, 0.3, 405);
        let fit = Dpar2
            .fit(&t, &FitOptions::new(3).with_seed(406).with_tolerance(0.0).with_max_iterations(12))
            .unwrap();
        // ALS on a fixed objective should not increase the criterion
        // (tiny numerical wobble tolerated).
        for pair in fit.criterion_trace.windows(2) {
            assert!(
                pair[1] <= pair[0] * (1.0 + 1e-6),
                "criterion increased: {:?}",
                fit.criterion_trace
            );
        }
    }

    #[test]
    fn last_criterion_is_the_residual_of_the_returned_factors() {
        // The trace comes from the W update's by-products; recompute its
        // last entry from the fit itself:
        // Σ_k ‖F(k)·EDᵀ − A_kᵀU_k·diag(s_k)·Vᵀ‖², where A_kᵀU_k = Z_kP_kᵀH.
        for (noise, iters) in [(0.3, 6), (0.05, 20)] {
            let t = planted_parafac2(&[30, 45, 25, 35, 20], 18, 3, noise, 433);
            let opts =
                FitOptions::new(3).with_seed(434).with_tolerance(0.0).with_max_iterations(iters);
            let ct = compress(&t, &opts).unwrap();
            let fit = Dpar2.fit_compressed(&ct, &opts).unwrap();
            let edt = ct.edt();
            let mut residual = 0.0;
            for k in 0..ct.k() {
                let mut core = product(Trans::T, Trans::N, &ct.a[k], &fit.u[k]);
                for i in 0..core.rows() {
                    for (x, &sv) in core.row_mut(i).iter_mut().zip(&fit.s[k]) {
                        *x *= sv;
                    }
                }
                let model = product(Trans::N, Trans::T, &core, &fit.v);
                residual +=
                    (&product(Trans::N, Trans::N, &ct.f_blocks[k], &edt) - &model).fro_norm_sq();
            }
            let last = *fit.criterion_trace.last().unwrap();
            assert!(
                (last - residual).abs() <= 1e-9 * residual,
                "noise {noise}: trace ends at {last}, the factors give {residual}"
            );
        }
    }

    #[test]
    fn underflowing_data_norms_stop_as_diverged() {
        // At 2^-540 the data's squared norm is subnormal and at 2^-600 it is
        // zero: the criterion has no precision left, and the fit must stop
        // diverged instead of reporting convergence after one iteration.
        let t = planted_parafac2(&[30, 45, 25, 35, 20], 18, 3, 0.1, 437);
        let opts = FitOptions::new(3).with_seed(438);
        for k in [-540, -600] {
            let c = 2f64.powi(k);
            let scaled = IrregularTensor::new(
                t.to_slices()
                    .into_iter()
                    .map(|x| Mat::from_fn(x.rows(), x.cols(), |i, j| x.at(i, j) * c))
                    .collect(),
            );
            for threads in [1, 2] {
                let fit = Dpar2.fit(&scaled, &opts.with_threads(threads)).unwrap();
                assert_eq!(fit.stop_reason, StopReason::Diverged, "2^{k}, {threads} threads");
                assert_eq!(fit.iterations, 1);
            }
        }
    }

    #[test]
    fn overflowing_products_stop_as_diverged() {
        // Scaled F blocks overflow every product of the iteration: the fit
        // must come back `Ok` with a typed stop, not panic or report
        // convergence, serial and pooled.
        let t = planted_parafac2(&[16, 20, 12, 18, 14], 10, 2, 0.1, 435);
        let opts = FitOptions::new(2).with_seed(436);
        let mut ct = compress(&t, &opts).unwrap();
        for f in &mut ct.f_blocks {
            for i in 0..f.rows() {
                for x in f.row_mut(i) {
                    *x *= 1e300;
                }
            }
        }
        for threads in [1, 2] {
            let fit = Dpar2.fit_compressed(&ct, &opts.with_threads(threads)).unwrap();
            assert_eq!(fit.stop_reason, StopReason::Diverged, "{threads} threads");
            assert_eq!(fit.iterations, 1);
            assert!(!fit.criterion_trace[0].is_finite());
        }
    }

    #[test]
    fn fit_is_invariant_to_the_scale_of_the_data() {
        // Every step is homogeneous in `X`, and the small SVDs (the Gram
        // pseudoinverses and the `Q_k` inputs, whose norms go as `c²`)
        // scale exactly; an absolute tolerance floor once stopped a small
        // input early at a worse fitness, and an overflowing skip test
        // left a large one at half the fitness.
        let t = planted_parafac2(&[30, 45, 25, 35, 20], 18, 3, 0.1, 437);
        let opts = FitOptions::new(3).with_seed(438);
        let base = Dpar2.fit(&t, &opts).unwrap();
        for k in [-40, -27, 130] {
            let c = 2f64.powi(k);
            let scaled = IrregularTensor::new(
                t.to_slices()
                    .into_iter()
                    .map(|x| Mat::from_fn(x.rows(), x.cols(), |i, j| x.at(i, j) * c))
                    .collect(),
            );
            let fit = Dpar2.fit(&scaled, &opts).unwrap();
            assert_eq!(fit.iterations, base.iterations, "2^{k}: iterations");
            assert_eq!(fit.stop_reason, base.stop_reason, "2^{k}: stop reason");
            let (f, f0) = (fit.fitness(&scaled), base.fitness(&t));
            assert!((f - f0).abs() <= 1e-9, "2^{k}: fitness {f} vs {f0}");
        }
    }

    #[test]
    fn factor_shapes() {
        let t = planted_parafac2(&[12, 22, 9], 11, 2, 0.2, 407);
        let fit = Dpar2.fit(&t, &FitOptions::new(2).with_seed(408)).unwrap();
        assert_eq!(fit.u.len(), 3);
        assert_eq!(fit.u[0].shape(), (12, 2));
        assert_eq!(fit.u[1].shape(), (22, 2));
        assert_eq!(fit.v.shape(), (11, 2));
        assert_eq!(fit.h.shape(), (2, 2));
        assert_eq!(fit.s.len(), 3);
        assert_eq!(fit.s[0].len(), 2);
    }

    #[test]
    fn rank_energy_lowers_rank_to_planted_signal() {
        // True rank 2, fit requested at rank 6 with an energy threshold:
        // the probe should land on (about) the planted rank, never above
        // the cap, and the fit still explains the data.
        let t = planted_parafac2(&[30, 40, 25], 16, 2, 0.0, 440);
        let opts = FitOptions::new(6).with_seed(441).with_rank_energy(0.999);
        let fit = Dpar2.fit(&t, &opts).unwrap();
        assert_eq!(fit.rank(), 2, "energy probe should find the planted rank");
        assert!(fit.fitness(&t) > 0.98);
        // A fully-demanding threshold keeps the requested rank.
        let full = Dpar2.fit(&t, &FitOptions::new(6).with_seed(441).with_rank_energy(2.0)).unwrap();
        assert_eq!(full.rank(), 6);
    }

    #[test]
    fn rank_energy_none_is_bit_identical_to_default() {
        let t = planted_parafac2(&[20, 25], 10, 3, 0.1, 442);
        let base = Dpar2.fit(&t, &FitOptions::new(3).with_seed(443)).unwrap();
        // threshold that keeps everything the cap allows ⇒ same rank ⇒ the
        // same compression seeds ⇒ identical factors.
        let adapted =
            Dpar2.fit(&t, &FitOptions::new(3).with_seed(443).with_rank_energy(2.0)).unwrap();
        assert_eq!(base.rank(), adapted.rank());
        assert_eq!(base.v, adapted.v);
    }

    #[test]
    fn u_k_has_orthonormal_core() {
        // U_k = Q_k H with Q_k orthonormal: U_kᵀ U_k = Hᵀ H for all k
        // (the PARAFAC2 cross-product invariance constraint).
        let t = planted_parafac2(&[30, 40], 14, 3, 0.05, 409);
        let fit = Dpar2.fit(&t, &FitOptions::new(3).with_seed(410)).unwrap();
        let hth = product(Trans::T, Trans::N, &fit.h, &fit.h);
        for k in 0..2 {
            let utu = product(Trans::T, Trans::N, &fit.u[k], &fit.u[k]);
            assert!(
                (&utu - &hth).fro_norm() < 1e-8 * (1.0 + hth.fro_norm()),
                "U_{k}ᵀU_{k} deviates from HᵀH"
            );
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let t = planted_parafac2(&[20, 35, 15, 28, 40], 12, 3, 0.2, 411);
        let fit1 = Dpar2.fit(&t, &FitOptions::new(3).with_seed(412).with_threads(1)).unwrap();
        let fit4 = Dpar2.fit(&t, &FitOptions::new(3).with_seed(412).with_threads(4)).unwrap();
        assert_eq!(fit1.iterations, fit4.iterations);
        assert_eq!(fit1.v, fit4.v);
        assert_eq!(fit1.h, fit4.h);
        assert_eq!(fit1.s, fit4.s);
        assert_eq!(fit1.u, fit4.u);
        assert_eq!(fit1.criterion_trace, fit4.criterion_trace);
    }

    /// The `Q_k` step as it ran before the lane kernels: every product a
    /// per-slice `gemm` call and every SVD a per-slice `svd_thin_into`.
    /// The oracle of [`qk_update`].
    fn qk_update_per_slice_reference(
        (f_blocks, edtv, w, h): (&[Mat], &Mat, &Mat, &Mat),
        zpt: &mut [Mat],
        pzf: &mut [Mat],
    ) {
        let (mut prod, mut input) = (Mat::default(), Mat::default());
        let (mut f, mut svd) = (SvdFactors::default(), SvdScratch::default());
        for (k, (zp, pzf_k)) in zpt.iter_mut().zip(pzf).enumerate() {
            gemm(Trans::N, Trans::N, &f_blocks[k], edtv, &mut prod, &ThreadPool::new(1));
            for i in 0..prod.rows() {
                for (x, &wv) in prod.row_mut(i).iter_mut().zip(w.row(k)) {
                    *x *= wv;
                }
            }
            gemm(Trans::N, Trans::T, &prod, h, &mut input, &ThreadPool::new(1));
            svd_thin_into(&input, &mut f, &mut svd);
            gemm(Trans::N, Trans::T, &f.u, &f.v, zp, &ThreadPool::new(1));
            gemm(Trans::T, Trans::N, &*zp, &f_blocks[k], pzf_k, &ThreadPool::new(1));
        }
    }

    /// The bit patterns of a run of entries.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn qk_update_matches_per_slice_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(431);
        // R = 3 and 10 take the lane products, R = 24 the per-slice
        // fallback; K covers partial groups, one full group, a full group
        // plus one slice and plus a partial half, and many groups, at
        // eight lanes and at sixteen.
        for r in [3, 10, 24] {
            for k_dim in [1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 40] {
                let mut f_blocks: Vec<Mat> =
                    (0..k_dim).map(|_| gaussian_mat(r, r, &mut rng)).collect();
                // A zero slice and a rank-one slice (their SVDs run alone)
                // and signed zeros.
                if k_dim > 2 {
                    f_blocks[2] = Mat::zeros(r, r);
                    f_blocks[1].set(0, r - 1, -0.0);
                }
                if k_dim > 6 {
                    f_blocks[6] =
                        product(Trans::N, Trans::T, gaussian_mat(r, 1, &mut rng), Mat::ones(r, 1));
                }
                let (edtv, h) = (gaussian_mat(r, r, &mut rng), gaussian_mat(r, r, &mut rng));
                let w = gaussian_mat(k_dim, r, &mut rng);
                let fit = (&f_blocks[..], &edtv, &w, &h);
                let (mut zpt_ref, mut pzf_ref) =
                    (vec![Mat::eye(r); k_dim], vec![Mat::default(); k_dim]);
                qk_update_per_slice_reference(fit, &mut zpt_ref, &mut pzf_ref);
                // Row k of each `K × R²` store against slice k of the
                // reference. The stores start as NaN, so a row left
                // unwritten fails too.
                let check = |zpt: &Mat, pzf: &Mat, ctx: &str| {
                    for k in 0..k_dim {
                        let what = format!("R={r} K={k_dim} {ctx}, slice {k}");
                        assert_eq!(bits(zpt.row(k)), bits(zpt_ref[k].data()), "{what}: Z_k P_kᵀ");
                        assert_eq!(bits(pzf.row(k)), bits(pzf_ref[k].data()), "{what}: PZF_k");
                    }
                };
                let stores = || [(); 2].map(|_| Mat::from_fn(k_dim, r * r, |_, _| f64::NAN));
                // One run, then runs of one lane group each, on one reused
                // scratch.
                let mut g = QkScratch::default();
                for run in [k_dim, SVD_LANES] {
                    let [mut zpt, mut pzf] = stores();
                    let len = run * r * r;
                    let runs = zpt.data_mut().chunks_mut(len).zip(pzf.data_mut().chunks_mut(len));
                    for (i, (zpt, pzf)) in runs.enumerate() {
                        qk_update(i * run, fit, zpt, pzf, &mut g);
                    }
                    check(&zpt, &pzf, &format!("run={run}"));
                }
                // The fit's step on a pool, twice on the same scratch.
                for threads in [1, 2] {
                    let pool = ThreadPool::new(threads);
                    let mut step = QkStep::new(k_dim, &pool);
                    let [mut zpt, mut pzf] = stores();
                    for _ in 0..2 {
                        step.run(&pool, fit, &mut zpt, &mut pzf);
                        check(&zpt, &pzf, &format!("{threads} threads"));
                    }
                }
            }
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let t = planted_parafac2(&[15, 25], 10, 2, 0.5, 413);
        let fit = Dpar2
            .fit(&t, &FitOptions::new(2).with_seed(414).with_max_iterations(3).with_tolerance(0.0))
            .unwrap();
        assert_eq!(fit.iterations, 3);
        assert_eq!(fit.criterion_trace.len(), 3);
        assert_eq!(fit.timing.per_iteration_secs.len(), 3);
        assert_eq!(fit.stop_reason, StopReason::MaxIterations);
    }

    #[test]
    fn early_stop_on_converged_input() {
        let t = planted_parafac2(&[30, 30], 12, 2, 0.0, 415);
        let fit = Dpar2.fit(&t, &FitOptions::new(2).with_seed(416).with_tolerance(1e-2)).unwrap();
        assert!(
            fit.iterations < 32,
            "noiseless input should converge early, ran {} iterations",
            fit.iterations
        );
        assert_eq!(fit.stop_reason, StopReason::Converged);
    }

    #[test]
    fn timing_populated() {
        let t = planted_parafac2(&[20, 20], 10, 2, 0.1, 417);
        let fit = Dpar2.fit(&t, &FitOptions::new(2).with_seed(418)).unwrap();
        assert!(fit.timing.total_secs > 0.0);
        assert!(fit.timing.preprocess_secs > 0.0);
        assert!(fit.timing.iterations_secs > 0.0);
    }

    #[test]
    fn rank_one_tensor() {
        let t = planted_parafac2(&[10, 14, 8], 9, 1, 0.0, 419);
        let fit = Dpar2.fit(&t, &FitOptions::new(1).with_seed(420)).unwrap();
        assert!(fit.fitness(&t) > 0.999);
    }

    #[test]
    fn fit_compressed_matches_fit() {
        // `fit` writes the U_k over its own A_k, `fit_compressed` over a
        // clone of the caller's; both run one finalize, so every factor
        // and the criterion trace keep their bits, and the caller's
        // compressed tensor is left as it was.
        let t = planted_parafac2(&[18, 26, 150, 40], 12, 3, 0.1, 421);
        for threads in [1, 2, 3] {
            let opts = FitOptions::new(3).with_seed(422).with_threads(threads);
            let via_fit = Dpar2.fit(&t, &opts).unwrap();
            let ct = compress(&t, &opts).unwrap();
            let via_compressed = Dpar2.fit_compressed(&ct, &opts).unwrap();
            assert_eq!(via_fit.iterations, via_compressed.iterations);
            let pairs = via_fit.u.iter().zip(&via_compressed.u);
            for (k, (x, y)) in pairs.enumerate() {
                assert_eq!(bits(x.data()), bits(y.data()), "{threads} threads: U_{k}");
            }
            for (k, (x, y)) in via_fit.s.iter().zip(&via_compressed.s).enumerate() {
                assert_eq!(bits(x), bits(y), "{threads} threads: S_{k}");
            }
            assert_eq!(bits(via_fit.v.data()), bits(via_compressed.v.data()), "V");
            assert_eq!(bits(via_fit.h.data()), bits(via_compressed.h.data()), "H");
            let trace = |f: &Parafac2Fit| bits(&f.criterion_trace);
            assert_eq!(trace(&via_fit), trace(&via_compressed), "{threads} threads: trace");
            assert_eq!(ct.a, compress(&t, &opts).unwrap().a, "the caller's A_k changed");
        }
    }

    #[test]
    fn finalize_writes_each_u_k_over_its_a_k_bit_for_bit() {
        // U_k = A_k·(Z_k P_kᵀ H) as two allocating products, against the
        // in-place finalize, with I_k on both sides of the blocked GEMM's
        // threshold at R = 10 (I_k·R² ≥ 24³ from I_k = 139), at 1–3
        // threads; the U_k keep the A_k's buffers.
        let r = 10;
        let mut rng = StdRng::seed_from_u64(439);
        let rows = [12, 138, 139, 400, 7, 260, 90];
        assert!(!use_blocked(138, r, r) && use_blocked(139, r, r));
        let a: Vec<Mat> = rows.iter().map(|&i| gaussian_mat(i, r, &mut rng)).collect();
        let zpt = gaussian_mat(rows.len(), r * r, &mut rng);
        let h = gaussian_mat(r, r, &mut rng);
        let want: Vec<Mat> = (0..rows.len())
            .map(|k| {
                let zph = product(Trans::N, Trans::N, MatRef::from_slice(r, r, zpt.row(k)), &h);
                product(Trans::N, Trans::N, &a[k], &zph)
            })
            .collect();
        for threads in [1, 2, 3] {
            let outcome = SessionOutcome {
                criterion_trace: Vec::new(),
                per_iteration_secs: Vec::new(),
                stop_reason: StopReason::MaxIterations,
                phases: crate::session::PhaseSpans::new(),
            };
            let iterated = Iterated {
                h: h.clone(),
                v: Mat::zeros(3, r),
                w: gaussian_mat(rows.len(), r, &mut rng),
                zpt: zpt.clone(),
                outcome,
                pool: ThreadPool::new(threads),
                t_start: Instant::now(),
            };
            let a_k = a.clone();
            let buffers: Vec<*const f64> = a_k.iter().map(|x| x.data().as_ptr()).collect();
            let fit = iterated.finalize(a_k, &mut NoopObserver);
            for (k, u) in fit.u.iter().enumerate() {
                assert_eq!(u.shape(), want[k].shape(), "{threads} threads: U_{k} shape");
                assert_eq!(bits(u.data()), bits(want[k].data()), "{threads} threads: U_{k}");
                assert_eq!(u.data().as_ptr(), buffers[k], "{threads} threads: U_{k} buffer");
            }
        }
    }

    #[test]
    fn fit_compressed_rejects_degenerate_compressed_tensors() {
        let t = planted_parafac2(&[16, 20], 10, 2, 0.1, 430);
        let opts = FitOptions::new(2).with_seed(431);
        let mut ct = compress(&t, &opts).unwrap();
        ct.rank = 0;
        assert_eq!(Dpar2.fit_compressed(&ct, &opts).unwrap_err(), Dpar2Error::ZeroRank);
        // Each bad shape is a typed error up front: a count mismatch, an
        // F(k) that is not R×R, a D without R columns, an E shorter than R
        // (once accepted silently) and an A_k without R columns (once a
        // panic in finalize, after every iteration had run).
        let base = compress(&t, &opts).unwrap();
        let corrupt = |f: fn(&mut CompressedTensor)| {
            let mut ct = base.clone();
            f(&mut ct);
            ct
        };
        let cases = [
            ("missing F-block", corrupt(|ct| ct.f_blocks.truncate(1))),
            ("F(k) not R×R", corrupt(|ct| ct.f_blocks[1] = Mat::zeros(2, 3))),
            ("D without R columns", corrupt(|ct| ct.d = Mat::zeros(10, 3))),
            ("D without J rows", corrupt(|ct| ct.d = Mat::zeros(9, 2))),
            ("E shorter than R", corrupt(|ct| ct.e.truncate(1))),
            ("A_k without R columns", corrupt(|ct| ct.a[0] = Mat::zeros(16, 1))),
        ];
        for (what, ct) in &cases {
            let err = Dpar2.fit_compressed(ct, &opts).unwrap_err();
            assert!(
                matches!(err, Dpar2Error::Linalg(LinalgError::DimensionMismatch { .. })),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn observer_trace_matches_fit_trace() {
        let t = planted_parafac2(&[20, 28, 16], 12, 3, 0.2, 423);
        let mut seen: Vec<f64> = Vec::new();
        let mut obs = |e: &IterationEvent| {
            seen.push(e.criterion);
            ControlFlow::<StopReason>::Continue(())
        };
        let opts = FitOptions::new(3).with_seed(424).with_max_iterations(8).with_tolerance(0.0);
        let fit = Dpar2.fit_observed(&t, &opts, &mut obs).unwrap();
        assert_eq!(seen, fit.criterion_trace, "observer must see the exact criterion trace");
    }

    #[test]
    fn observer_cancellation_is_typed() {
        let t = planted_parafac2(&[20, 28], 12, 2, 0.3, 425);
        let mut obs = |e: &IterationEvent| {
            if e.iteration == 2 {
                ControlFlow::Break(StopReason::Cancelled)
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = FitOptions::new(2).with_seed(426).with_tolerance(0.0);
        let fit = Dpar2.fit_observed(&t, &opts, &mut obs).unwrap();
        assert_eq!(fit.stop_reason, StopReason::Cancelled);
        assert_eq!(fit.iterations, 2);
    }

    #[test]
    fn non_finite_input_is_a_typed_error_for_dense_and_csr() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut slices = planted_parafac2(&[12, 15, 10], 8, 2, 0.1, 432).to_slices();
            slices[1].set(3, 4, bad);
            let t = IrregularTensor::new(slices);
            // With and without the rank-energy probe, which also reads X.
            for opts in [FitOptions::new(2), FitOptions::new(2).with_rank_energy(0.9)] {
                let err = Dpar2.fit(&t, &opts).unwrap_err();
                assert_eq!(err, Dpar2Error::NonFinite { slice: 1 }, "dense, value {bad}");
                let csr = dpar2_tensor::SparseIrregularTensor::from_dense(&t);
                let err = Dpar2.fit(&csr, &opts).unwrap_err();
                assert_eq!(err, Dpar2Error::NonFinite { slice: 1 }, "CSR, value {bad}");
            }
        }
    }

    #[test]
    fn warm_start_from_options_accepted_and_validated() {
        let t = planted_parafac2(&[22, 30, 18], 12, 3, 0.1, 427);
        let opts = FitOptions::new(3).with_seed(428).with_tolerance(1e-6);
        let cold = Dpar2.fit(&t, &opts).unwrap();
        // Warm-started refit converges at least as fast as the cold fit.
        let warm = Dpar2.fit(&t, &opts.with_warm_start(&cold)).unwrap();
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        // A rank-mismatched warm start is a typed error, not a panic.
        let bad = Dpar2.fit(&t, &FitOptions::new(2).with_seed(428).with_warm_start(&cold));
        assert!(matches!(bad.unwrap_err(), Dpar2Error::WarmStart { .. }));
    }
}
