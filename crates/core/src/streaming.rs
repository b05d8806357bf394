//! Streaming DPar2 — the extension the paper names as future work
//! (§VI: *"Future work includes devising an efficient PARAFAC2
//! decomposition method in a streaming setting"*), in the spirit of SPADE
//! (Gujral et al., SDM 2020, reference 48 of the paper).
//!
//! New slices arrive over time (new stocks listing, new songs ingested).
//! Rather than recompressing everything, [`StreamingDpar2`] maintains the
//! two-stage compressed representation incrementally:
//!
//! 1. **Stage 1** runs only on the *new* slices: `X_k ≈ A_k B_k C_kᵀ`, in
//!    the same lane groups and on the same Gram route as
//!    [`compress`](crate::compress()). The batch's route slices share one
//!    Gaussian test matrix, drawn from the batch's base seed. The batch is
//!    compressed in place: its slices are read where the caller built
//!    them ([`OwnedSlice::stack`] moves them into a
//!    [`DenseBatch`](crate::DenseBatch) or a CSR tensor) and never
//!    repacked, so an arriving batch costs its compression and no copy.
//! 2. **Stage 2** is updated without touching old data. With the current
//!    factorization `M ≈ D E Fᵀ`, the extended matrix is
//!    `M' = [D E Fᵀ ∥ M_new]`. Its column space lies inside
//!    `span([D ∥ M_new])`, so we factorize the small matrix
//!
//!    ```text
//!    G = [D·E ∥ M_new] ∈ R^{J×(R + K_new·R)} ≈ D' E' G'ᵀ
//!    ```
//!
//!    and rewrite both block families against the new basis:
//!    * old slices:  `D E F(k)ᵀ = (D E) F(k)ᵀ ≈ D' E' (F(k) G'_top)ᵀ`,
//!      so `F'(k) = F(k) · G'_top` where `G'_top` is the first `R` rows
//!      of `G'`;
//!    * new slice `j`: `F'(K+j)` is the `j`-th `R×R` block of `G'` below
//!      the top.
//!
//!    This is [`compress`](crate::compress())'s stage 2 on `G`; on its Gram
//!    route it costs `O(J²·K_new·R)` — independent of the number of *old*
//!    slices and of `Σ I_k`.
//! 3. Decompositions warm-start from the previous window's factors
//!    (`H`, `V`, and `W` extended with unit rows for the newcomers), which
//!    empirically cuts the iterations to re-converge.

use crate::compress::{compress, omega_seed, stage1, stage2, CompressedTensor};
use crate::config::FitOptions;
use crate::error::{Dpar2Error, Result};
use crate::fitness::Parafac2Fit;
use crate::session::{FitObserver, NoopObserver, StopReason};
use crate::slices::{validate_from, OwnedSlice, SliceTensor};
use crate::solver::{Dpar2, WarmStart};
use dpar2_linalg::Mat;
use dpar2_parallel::ThreadPool;
use dpar2_rsvd::RsvdConfig;

/// Derives the per-slice seed of a slice's randomized SVD (a slice the
/// Gram route does not take) from `(base, k)` with a splitmix64-style
/// finalizer. A plain `base.wrapping_mul(k + 1)` collides badly: any even
/// `base` sheds low-bit entropy and `base = 0` hands every slice the
/// identical RNG stream, correlating the sketches across slices.
fn stream_seed(base: u64, k: usize) -> u64 {
    let mut z = base.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental PARAFAC2 over a growing collection of slices.
#[derive(Debug, Clone)]
pub struct StreamingDpar2 {
    options: FitOptions<'static>,
    ct: Option<CompressedTensor>,
    warm: Option<WarmStart>,
    appended_batches: usize,
}

impl StreamingDpar2 {
    /// Creates an empty streaming decomposer. The options' `time_budget`
    /// applies to every [`StreamingDpar2::decompose`] refit (warm starts are
    /// managed internally, so only `'static` options are accepted).
    pub fn new(options: FitOptions<'static>) -> Self {
        StreamingDpar2 { options, ct: None, warm: None, appended_batches: 0 }
    }

    /// Number of slices ingested so far.
    pub fn k(&self) -> usize {
        self.ct.as_ref().map_or(0, CompressedTensor::k)
    }

    /// The current compressed representation (None before the first batch).
    pub fn compressed(&self) -> Option<&CompressedTensor> {
        self.ct.as_ref()
    }

    /// Ingests a batch of new slices — dense [`Mat`]s or CSR
    /// [`SparseSlice`](dpar2_linalg::SparseSlice)s — updating the
    /// compressed representation incrementally (see the module docs for the
    /// algebra). The batch is compressed in place, never copied into a
    /// packed tensor, and dropped once compressed; a first batch costs what
    /// [`compress`] of the same slices costs. CSR slices are never
    /// densified: stage 1 runs the O(nnz) randomized SVD on them, and the
    /// seed derivation does not depend on the storage, so interleaving dense
    /// and CSR appends of the same data (with the sketch on the
    /// naive-dispatch path) produces bit-identical compressed state.
    ///
    /// A rejected batch leaves the ingested state untouched and does not
    /// shift the seed stream (long-lived serving ingest keeps going after a
    /// bad batch).
    ///
    /// # Errors
    /// [`Dpar2Error::RankTooLarge`] if a new slice cannot support the rank;
    /// [`Dpar2Error::NonFinite`] if it stores a NaN or ±∞;
    /// [`Dpar2Error::Linalg`] on dimension mismatches (inconsistent `J`).
    pub fn append<S: OwnedSlice>(&mut self, slices: Vec<S>) -> Result<()> {
        if !slices.is_empty() {
            self.ct = Some(self.ingest(slices)?);
            // Count the batch only once it is ingested: a rejected batch
            // must not shift the rsvd seed stream, or the same good batches
            // would produce different factors depending on whether a bad
            // batch was ever submitted.
            self.appended_batches += 1;
        }
        Ok(())
    }

    /// [`append`](StreamingDpar2::append) then
    /// [`decompose_observed`](StreamingDpar2::decompose_observed), with the
    /// batch committed only if the refit does not stop with
    /// [`StopReason::Diverged`] (a non-finite criterion, e.g. from a finite
    /// batch whose products overflow). A diverged refit rolls the batch
    /// back: the ingested state, the warm start and the seed stream are
    /// what they were before the call, so later batches refit as if it had
    /// never been sent. The diverged fit is still returned, for the caller
    /// to report. An empty batch just refits the current state.
    ///
    /// # Errors
    /// Whatever [`append`](StreamingDpar2::append) or the refit reports;
    /// the state is then unchanged too.
    pub fn append_and_decompose_observed<S: OwnedSlice>(
        &mut self,
        slices: Vec<S>,
        observer: &mut dyn FitObserver,
    ) -> Result<Parafac2Fit> {
        if slices.is_empty() {
            return self.decompose_observed(observer);
        }
        let updated = self.ingest(slices)?;
        let (ct, warm) = (self.ct.replace(updated), self.warm.clone());
        let fit = self.decompose_observed(observer);
        if matches!(&fit, Ok(f) if f.stop_reason != StopReason::Diverged) {
            self.appended_batches += 1;
        } else {
            (self.ct, self.warm) = (ct, warm);
        }
        fit
    }

    /// The compressed representation with a non-empty batch ingested,
    /// leaving `self` untouched.
    fn ingest<S: OwnedSlice>(&self, slices: Vec<S>) -> Result<CompressedTensor> {
        // Validate column consistency up front (within the batch and
        // against the ingested state) so a malformed batch is an `Err`,
        // never a panic — long-lived ingest loops depend on this.
        let j = self.ct.as_ref().map_or(slices[0].cols(), |ct| ct.j);
        if let Some(bad) = slices.iter().find(|s| s.cols() != j) {
            return Err(Dpar2Error::Linalg(dpar2_linalg::LinalgError::DimensionMismatch {
                op: "streaming append",
                left: (j, self.options.rank),
                right: (bad.cols(), self.options.rank),
            }));
        }
        let batch = S::stack(slices);
        match &self.ct {
            // First batch: plain two-stage compression.
            None => compress(&batch, &self.options),
            Some(old) => self.extend(old, &batch),
        }
    }

    /// Incremental update with a batch: stage 1 of the new slices, then
    /// stage 2 on `G = [D·E ∥ C_1B_1 ∥ … ∥ C_newB_new]` (the module-docs
    /// algebra) — the same two stages [`compress`] runs, on one `Gᵀ` that
    /// stage 1 writes into below `(D·E)ᵀ`.
    fn extend<T: SliceTensor>(
        &self,
        old: &CompressedTensor,
        batch: &T,
    ) -> Result<CompressedTensor> {
        let r = self.options.rank;
        validate_from(batch, r, old.k())?;
        let (base_seed, config) = self.batch_stage1_params(r);
        let pool = ThreadPool::new(self.options.threads.max(1));
        // `Gᵀ`: `(D·E)ᵀ = E·Dᵀ` in the first `R` rows, then stage 1 writes
        // each new slice's `(C_k B_k)ᵀ` below it.
        let mut gt = Mat::zeros((1 + batch.k()) * r, old.j);
        let (top, rest) = gt.data_mut().split_at_mut(r * old.j);
        top.copy_from_slice(old.edt().data());
        let seed = |k| stream_seed(base_seed, k);
        let new_a = stage1(batch, &config, seed, omega_seed(base_seed), rest, &pool);
        let (d, e, mut g_blocks) = stage2(gt, r, &config, base_seed ^ 0x0B5E55ED, &pool);
        // Rewrite old F-blocks against the new basis: F'(k) = F(k)·G'_top;
        // the new blocks come straight from G' below the top rows.
        let g_top = g_blocks.remove(0);
        let mut f_blocks: Vec<Mat> =
            old.f_blocks.iter().map(|fk| fk.matmul(&g_top).expect("F(k)·G'_top")).collect();
        f_blocks.extend(g_blocks);
        let mut a = old.a.clone();
        a.extend(new_a);
        Ok(CompressedTensor { a, d, e, f_blocks, rank: r, j: old.j })
    }

    /// Seed base and rsvd configuration for the batch currently being
    /// ingested. `appended_batches` counts only *successful* appends, so
    /// the ordinal of the batch being ingested is one past it (this keeps
    /// clean-history seed streams identical to what they were when the
    /// counter was bumped up front).
    fn batch_stage1_params(&self, r: usize) -> (u64, RsvdConfig) {
        let ordinal = self.appended_batches as u64 + 1;
        let base_seed = self.options.seed.wrapping_add(0x5EED_0000 + ordinal);
        (base_seed, RsvdConfig { rank: r, ..self.options.rsvd })
    }

    /// Decomposes the current collection, warm-starting from the previous
    /// call's factors, and caches the new factors for the next call.
    ///
    /// # Errors
    /// [`Dpar2Error::Empty`] if called before any slices were appended —
    /// a misordered caller (e.g. a serving ingest worker asked to refit
    /// before its first batch landed) gets a typed error, not a panic.
    pub fn decompose(&mut self) -> Result<Parafac2Fit> {
        self.decompose_observed(&mut NoopObserver)
    }

    /// [`StreamingDpar2::decompose`] with a [`FitObserver`] session: the
    /// observer sees every refit iteration and can cancel cooperatively —
    /// together with the options' `time_budget`, this is what lets a
    /// serving ingest loop bound refit latency and shut down promptly
    /// (see `dpar2_serve::ingest`).
    ///
    /// # Errors
    /// [`Dpar2Error::Empty`] if called before any slices were appended;
    /// otherwise whatever the warm-started refit reports.
    pub fn decompose_observed(&mut self, observer: &mut dyn FitObserver) -> Result<Parafac2Fit> {
        let Some(ct) = self.ct.as_ref() else { return Err(Dpar2Error::Empty) };
        // Extend the cached W with unit rows for slices added since the
        // last decomposition; H and V carry over unchanged. A stale warm
        // start with more rows than the current slice count (impossible
        // through the public API, but cheap to guard) is discarded.
        let warm = self.warm.take().filter(|ws| ws.w.rows() <= ct.k()).map(|ws| {
            let mut w = Mat::ones(ct.k(), ct.rank);
            for i in 0..ws.w.rows() {
                w.set_row(i, ws.w.row(i));
            }
            WarmStart { h: ws.h, v: ws.v, w }
        });
        let fit = Dpar2.fit_compressed_with_init(ct, warm, &self.options, observer)?;
        self.warm = Some(WarmStart {
            h: fit.h.clone(),
            v: fit.v.clone(),
            w: {
                let mut w = Mat::zeros(ct.k(), ct.rank);
                for (k, s) in fit.s.iter().enumerate() {
                    w.set_row(k, s);
                }
                w
            },
        });
        Ok(fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{blocks_of, stage2_hstack};
    use dpar2_linalg::kernel::use_blocked;
    use dpar2_linalg::random::gaussian_mat;
    use dpar2_linalg::{qr, SparseSlice};
    use dpar2_tensor::IrregularTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Planted PARAFAC2 slices sharing H and V so that streaming batches
    /// stay mutually consistent.
    struct Planted {
        h: Mat,
        v: Mat,
        rng: StdRng,
        rank: usize,
    }

    impl Planted {
        fn new(j: usize, rank: usize, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            let h = gaussian_mat(rank, rank, &mut rng);
            let v = gaussian_mat(j, rank, &mut rng);
            Planted { h, v, rng, rank }
        }

        fn slice(&mut self, ik: usize, noise: f64) -> Mat {
            let q = qr::qr(gaussian_mat(ik, self.rank, &mut self.rng)).q;
            let sk: Vec<f64> = (0..self.rank).map(|_| 0.5 + self.rng.random::<f64>()).collect();
            let mut qh = q.matmul(&self.h).unwrap();
            for row in 0..ik {
                let r = qh.row_mut(row);
                for (c, &sv) in sk.iter().enumerate() {
                    r[c] *= sv;
                }
            }
            let mut x = qh.matmul_nt(&self.v).unwrap();
            if noise > 0.0 {
                let scale = noise * x.fro_norm() / ((ik * self.v.rows()) as f64).sqrt();
                x.axpy(scale, &gaussian_mat(ik, self.v.rows(), &mut self.rng));
            }
            x
        }
    }

    #[test]
    fn streaming_matches_batch_fitness() {
        let mut gen = Planted::new(16, 3, 71);
        let all: Vec<Mat> =
            [30usize, 45, 25, 38, 28, 33].iter().map(|&ik| gen.slice(ik, 0.05)).collect();
        let tensor = IrregularTensor::new(all.clone());

        // Batch run.
        let cfg = FitOptions::new(3).with_seed(72).with_max_iterations(24);
        let batch_fit = Dpar2.fit(&tensor, &cfg).unwrap();

        // Streaming run: two batches of three.
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(all[..3].to_vec()).unwrap();
        let _ = stream.decompose().unwrap();
        stream.append(all[3..].to_vec()).unwrap();
        let stream_fit = stream.decompose().unwrap();

        let fb = batch_fit.fitness(&tensor);
        let fs = stream_fit.fitness(&tensor);
        assert!((fb - fs).abs() < 0.02, "streaming fitness {fs} deviates from batch {fb}");
    }

    #[test]
    fn incremental_compression_reconstructs_new_and_old() {
        let mut gen = Planted::new(14, 2, 73);
        let first: Vec<Mat> = (0..3).map(|_| gen.slice(30, 0.0)).collect();
        let second: Vec<Mat> = (0..2).map(|_| gen.slice(24, 0.0)).collect();
        let all: Vec<Mat> = first.iter().chain(&second).cloned().collect();

        let cfg = FitOptions::new(2).with_seed(74);
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(first).unwrap();
        stream.append(second).unwrap();
        let ct = stream.compressed().unwrap();
        assert_eq!(ct.k(), 5);
        for (k, x) in all.iter().enumerate() {
            let rel = (x - &ct.reconstruct_slice(k)).fro_norm() / x.fro_norm();
            assert!(rel < 1e-6, "slice {k} rel err {rel} after incremental update");
        }
    }

    #[test]
    fn extend_on_gt_matches_the_hstack_oracle_bit_for_bit() {
        // `extend` writes `(D·E)ᵀ` and stage 1's `(C_k B_k)ᵀ` into one
        // `Gᵀ`; the oracle concatenates `D·E` and the same blocks into a
        // row-major `G`. A blocked `G·Gᵀ` (48 × 48 over 130) and a naive
        // `GᵀG` (12 × 12 over 14).
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (j, r, first, second) in [(48, 10, 20, 12), (14, 2, 3, 5)] {
            let mut gen = Planted::new(j, r, 108);
            let mut batch =
                |n: usize| -> Vec<Mat> { (0..n).map(|k| gen.slice(r + 12 + 5 * k, 0.1)).collect() };
            let (b1, b2) = (batch(first), batch(second));
            for threads in [1, 2, 3] {
                let ctx = format!("J={j}, R={r}, {threads} threads");
                let mut stream =
                    StreamingDpar2::new(FitOptions::new(r).with_seed(109).with_threads(threads));
                stream.append(b1.clone()).unwrap();
                let old = stream.compressed().unwrap().clone();
                let (base_seed, config) = stream.batch_stage1_params(r);
                stream.append(b2.clone()).unwrap();
                let got = stream.compressed().unwrap();

                let pool = ThreadPool::new(threads);
                let new = IrregularTensor::new(b2.clone());
                let mut mt = Mat::zeros(second * r, j);
                let seed = |k| stream_seed(base_seed, k);
                stage1(&new, &config, seed, omega_seed(base_seed), mt.data_mut(), &pool);
                let mut de = old.d.clone();
                for i in 0..j {
                    for (x, &e) in de.row_mut(i).iter_mut().zip(&old.e) {
                        *x *= e;
                    }
                }
                let blocks: Vec<Mat> = std::iter::once(de).chain(blocks_of(&mt, r)).collect();
                assert_eq!(
                    use_blocked(j, j, blocks.len() * r),
                    j == 48,
                    "{ctx}: the Gram's dispatch"
                );
                let seed = base_seed ^ 0x0B5E55ED;
                let (d, e, mut g) = stage2_hstack(&blocks, r, &config, seed, &pool);
                let g_top = g.remove(0);
                let f = old.f_blocks.iter().map(|fk| fk.matmul(&g_top).unwrap()).chain(g);
                assert_eq!(bits(got.d.data()), bits(d.data()), "{ctx}: D");
                assert_eq!(bits(&got.e), bits(&e), "{ctx}: E");
                assert_eq!(got.k(), first + second);
                for (k, (x, y)) in got.f_blocks.iter().zip(f).enumerate() {
                    assert_eq!(bits(x.data()), bits(y.data()), "{ctx}: F({k})");
                }
            }
        }
    }

    #[test]
    fn warm_start_accelerates_convergence() {
        let mut gen = Planted::new(18, 3, 75);
        let first: Vec<Mat> = (0..4).map(|_| gen.slice(35, 0.1)).collect();
        let second: Vec<Mat> = (0..2).map(|_| gen.slice(30, 0.1)).collect();

        let cfg = FitOptions::new(3).with_seed(76).with_tolerance(1e-5);
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(first.clone()).unwrap();
        let _ = stream.decompose().unwrap();
        stream.append(second.clone()).unwrap();
        let warm_fit = stream.decompose().unwrap();

        // Cold baseline on the same 6 slices.
        let mut cold_slices = first;
        cold_slices.extend(second);
        let ct = compress(&IrregularTensor::new(cold_slices), &cfg).unwrap();
        let cold_fit = Dpar2.fit_compressed(&ct, &cfg).unwrap();

        assert!(
            warm_fit.iterations <= cold_fit.iterations,
            "warm start took {} iterations vs cold {}",
            warm_fit.iterations,
            cold_fit.iterations
        );
    }

    #[test]
    fn rejects_inconsistent_columns() {
        let cfg = FitOptions::new(2).with_seed(77);
        let mut stream = StreamingDpar2::new(cfg);
        let mut rng = StdRng::seed_from_u64(78);
        stream.append(vec![gaussian_mat(10, 8, &mut rng)]).unwrap();
        let err = stream.append(vec![gaussian_mat(10, 9, &mut rng)]).unwrap_err();
        assert!(matches!(err, Dpar2Error::Linalg(_)));
    }

    #[test]
    fn rejects_mixed_columns_within_batch() {
        // Inconsistent columns inside one batch must be an Err, not the
        // IrregularTensor constructor panic (serving ingest loops rely on
        // append never panicking on malformed input).
        let cfg = FitOptions::new(2).with_seed(88);
        let mut stream = StreamingDpar2::new(cfg);
        let mut rng = StdRng::seed_from_u64(89);
        let err = stream
            .append(vec![gaussian_mat(10, 8, &mut rng), gaussian_mat(10, 9, &mut rng)])
            .unwrap_err();
        assert!(matches!(err, Dpar2Error::Linalg(_)));
        assert_eq!(stream.k(), 0);
        // Same check against already-ingested state.
        stream.append(vec![gaussian_mat(10, 8, &mut rng)]).unwrap();
        let err = stream
            .append(vec![gaussian_mat(10, 8, &mut rng), gaussian_mat(10, 7, &mut rng)])
            .unwrap_err();
        assert!(matches!(err, Dpar2Error::Linalg(_)));
        assert_eq!(stream.k(), 1);
    }

    #[test]
    fn rejects_undersized_new_slice() {
        let cfg = FitOptions::new(5).with_seed(79);
        let mut stream = StreamingDpar2::new(cfg);
        let mut rng = StdRng::seed_from_u64(80);
        stream.append(vec![gaussian_mat(12, 10, &mut rng)]).unwrap();
        let err = stream.append(vec![gaussian_mat(3, 10, &mut rng)]).unwrap_err();
        assert!(matches!(err, Dpar2Error::RankTooLarge { .. }));
    }

    #[test]
    fn failed_append_preserves_state() {
        let cfg = FitOptions::new(2).with_seed(85);
        let mut stream = StreamingDpar2::new(cfg);
        let mut gen = Planted::new(12, 2, 86);
        stream.append(vec![gen.slice(20, 0.0), gen.slice(18, 0.0)]).unwrap();
        let _ = stream.decompose().unwrap();
        let mut rng = StdRng::seed_from_u64(87);
        // Wrong column count: rejected, but the two ingested slices (and the
        // cached warm start) must survive for the next good batch.
        assert!(stream.append(vec![gaussian_mat(10, 9, &mut rng)]).is_err());
        assert_eq!(stream.k(), 2, "failed append lost ingested slices");
        stream.append(vec![gen.slice(16, 0.0)]).unwrap();
        let fit = stream.decompose().unwrap();
        assert_eq!(fit.u.len(), 3);
    }

    #[test]
    fn failed_append_does_not_shift_seed_stream() {
        // A rejected batch must leave subsequent fits bit-identical to a
        // history that never saw the bad batch: the seed stream depends on
        // the number of *ingested* batches, not submission attempts.
        let mut gen = Planted::new(12, 2, 90);
        let good1 = vec![gen.slice(20, 0.02), gen.slice(18, 0.02)];
        let good2 = vec![gen.slice(16, 0.02), gen.slice(22, 0.02)];
        let cfg = FitOptions::new(2).with_seed(91).with_max_iterations(12);

        let mut with_failure = StreamingDpar2::new(cfg);
        with_failure.append(good1.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        assert!(with_failure.append(vec![gaussian_mat(10, 9, &mut rng)]).is_err());
        with_failure.append(good2.clone()).unwrap();
        let fit_a = with_failure.decompose().unwrap();

        let mut clean = StreamingDpar2::new(cfg);
        clean.append(good1).unwrap();
        clean.append(good2).unwrap();
        let fit_b = clean.decompose().unwrap();

        // Everything but the wall-clock timing must be bit-identical
        // (timing is the one legitimately non-deterministic field).
        assert_eq!(fit_a.u, fit_b.u, "rejected batch shifted the rsvd seed stream (U)");
        assert_eq!(fit_a.s, fit_b.s, "rejected batch shifted the rsvd seed stream (S)");
        assert_eq!(fit_a.v, fit_b.v, "rejected batch shifted the rsvd seed stream (V)");
        assert_eq!(fit_a.h, fit_b.h, "rejected batch shifted the rsvd seed stream (H)");
        assert_eq!(fit_a.iterations, fit_b.iterations);
        assert_eq!(fit_a.criterion_trace, fit_b.criterion_trace);
    }

    #[test]
    fn non_finite_append_preserves_state_and_seed_stream() {
        // A NaN entry is rejected before any arithmetic — dense or CSR, on
        // the first batch or a later one — and the stream behaves exactly
        // as if the batch had never been offered.
        let mut gen = Planted::new(12, 2, 104);
        let good1 = vec![gen.slice(20, 0.02), gen.slice(18, 0.02)];
        let good2 = vec![gen.slice(16, 0.02), gen.slice(22, 0.02)];
        let mut poisoned = vec![gen.slice(15, 0.02), gen.slice(17, 0.02)];
        poisoned[1].set(2, 3, f64::NAN);
        let poisoned_csr: Vec<SparseSlice> = poisoned.iter().map(SparseSlice::from_dense).collect();
        let cfg = FitOptions::new(2).with_seed(105).with_max_iterations(12);

        let mut with_failure = StreamingDpar2::new(cfg);
        let err = with_failure.append(poisoned.clone()).unwrap_err();
        assert_eq!(err, Dpar2Error::NonFinite { slice: 1 });
        assert!(with_failure.compressed().is_none(), "first-batch rejection ingested state");
        with_failure.append(good1.clone()).unwrap();
        let before = with_failure.compressed().unwrap().clone();
        let err = with_failure.append(poisoned).unwrap_err();
        assert_eq!(err, Dpar2Error::NonFinite { slice: 3 }, "index counts ingested slices");
        let err = with_failure.append(poisoned_csr).unwrap_err();
        assert_eq!(err, Dpar2Error::NonFinite { slice: 3 });
        let after = with_failure.compressed().unwrap();
        assert_eq!((&after.a, &after.d, &after.e), (&before.a, &before.d, &before.e));
        assert_eq!(after.f_blocks, before.f_blocks);
        with_failure.append(good2.clone()).unwrap();
        let fit_a = with_failure.decompose().unwrap();

        let mut clean = StreamingDpar2::new(cfg);
        clean.append(good1).unwrap();
        clean.append(good2).unwrap();
        let fit_b = clean.decompose().unwrap();
        assert_eq!(fit_a.u, fit_b.u, "rejected NaN batch shifted the seed stream");
        assert_eq!(fit_a.v, fit_b.v);
        assert_eq!(fit_a.criterion_trace, fit_b.criterion_trace);
    }

    #[test]
    fn diverged_refit_rolls_the_batch_back() {
        // A finite batch passes validation, but its products overflow and
        // the refit diverges. The batch must not stay ingested: the next
        // good batch refits exactly as if it had never been sent.
        let mut gen = Planted::new(12, 2, 106);
        let good1 = vec![gen.slice(20, 0.02), gen.slice(18, 0.02)];
        let good2 = vec![gen.slice(16, 0.02), gen.slice(22, 0.02)];
        let mut huge = gen.slice(15, 0.02);
        huge.scale_mut(1e300);
        let cfg = FitOptions::new(2).with_seed(107).with_max_iterations(12);

        let mut stream = StreamingDpar2::new(cfg);
        let mut observer = NoopObserver;
        stream.append_and_decompose_observed(good1.clone(), &mut observer).unwrap();
        let before = stream.compressed().unwrap().clone();
        let fit = stream.append_and_decompose_observed(vec![huge], &mut observer).unwrap();
        assert_eq!(fit.stop_reason, StopReason::Diverged);
        let after = stream.compressed().unwrap();
        assert_eq!((&after.a, &after.d, &after.e), (&before.a, &before.d, &before.e));
        assert_eq!(after.f_blocks, before.f_blocks);
        let fit_a = stream.append_and_decompose_observed(good2.clone(), &mut observer).unwrap();
        assert_ne!(fit_a.stop_reason, StopReason::Diverged);

        let mut clean = StreamingDpar2::new(cfg);
        clean.append(good1).unwrap();
        let _ = clean.decompose().unwrap();
        clean.append(good2).unwrap();
        let fit_b = clean.decompose().unwrap();
        assert_eq!(fit_a.u, fit_b.u, "the diverged batch left a trace");
        assert_eq!(fit_a.v, fit_b.v);
        assert_eq!(fit_a.criterion_trace, fit_b.criterion_trace);
    }

    #[test]
    fn distinct_slices_get_distinct_seed_streams() {
        use std::collections::HashSet;
        // Adversarial bases: zero and even values used to collapse the old
        // `base.wrapping_mul(k + 1)` derivation into colliding (or for
        // base = 0, identical) streams.
        for base in [0u64, 2, 4, 1 << 32, u64::MAX - 1, 0x5EED_0000] {
            let mut seen = HashSet::new();
            for k in 0..64 {
                assert!(
                    seen.insert(stream_seed(base, k)),
                    "seed collision for base {base} at slice {k}"
                );
            }
        }
        // The derived RNG streams themselves must differ, not just the seeds.
        let firsts: HashSet<u64> =
            (0..16).map(|k| StdRng::seed_from_u64(stream_seed(0, k)).random::<u64>()).collect();
        assert_eq!(firsts.len(), 16, "distinct slices drew identical first values");
    }

    #[test]
    fn decompose_before_append_is_typed_error() {
        let mut stream = StreamingDpar2::new(FitOptions::new(2).with_seed(93));
        assert_eq!(stream.decompose().unwrap_err(), Dpar2Error::Empty);
        // Still usable afterwards.
        let mut gen = Planted::new(10, 2, 94);
        stream.append(vec![gen.slice(15, 0.0)]).unwrap();
        assert_eq!(stream.decompose().unwrap().u.len(), 1);
    }

    #[test]
    fn empty_append_is_noop() {
        let cfg = FitOptions::new(2).with_seed(81);
        let mut stream = StreamingDpar2::new(cfg);
        stream.append(Vec::<Mat>::new()).unwrap();
        assert_eq!(stream.k(), 0);
        assert!(stream.compressed().is_none());
    }

    /// Random CSR slices for the sparse-append suite (~30% fill keeps the
    /// rsvd well-conditioned at rank 3 while exercising real sparsity).
    fn sparse_batch(seed: u64, dims: &[usize], j: usize) -> Vec<SparseSlice> {
        let mut rng = StdRng::seed_from_u64(seed);
        dims.iter()
            .map(|&ik| {
                let mut b = dpar2_linalg::CooBuilder::new(ik, j);
                for i in 0..ik {
                    for _ in 0..j / 3 {
                        let col = (rng.random::<u64>() % j as u64) as usize;
                        b.push(i, col, rng.random::<f64>() - 0.5);
                    }
                }
                b.build()
            })
            .collect()
    }

    #[test]
    fn sparse_append_bitwise_matches_dense_append() {
        // rank 3 + oversample 2 → sketch 5, below the blocked-GEMM tile
        // height: every sparse product stays on the naive dispatch path,
        // so the sparse and dense ingest histories must agree *bitwise* —
        // including interleaving (dense batch, then sparse batch).
        let cfg = FitOptions::new(3)
            .with_seed(95)
            .with_rsvd(dpar2_rsvd::RsvdConfig { rank: 3, oversample: 2, power_iterations: 1 })
            .with_max_iterations(8)
            .with_tolerance(0.0);
        let b1 = sparse_batch(96, &[28, 35], 20);
        let b2 = sparse_batch(97, &[30, 26, 22], 20);

        let mut sparse = StreamingDpar2::new(cfg);
        sparse.append(b1.clone()).unwrap();
        sparse.append(b2.clone()).unwrap();
        let fit_s = sparse.decompose().unwrap();

        let mut dense = StreamingDpar2::new(cfg);
        dense.append(b1.iter().map(SparseSlice::to_dense).collect()).unwrap();
        dense.append(b2.iter().map(SparseSlice::to_dense).collect()).unwrap();
        let fit_d = dense.decompose().unwrap();

        assert_eq!(fit_s.u, fit_d.u, "sparse append diverged from dense (U)");
        assert_eq!(fit_s.s, fit_d.s, "sparse append diverged from dense (S)");
        assert_eq!(fit_s.v, fit_d.v, "sparse append diverged from dense (V)");
        assert_eq!(fit_s.h, fit_d.h, "sparse append diverged from dense (H)");
        assert_eq!(fit_s.criterion_trace, fit_d.criterion_trace);

        let mut mixed = StreamingDpar2::new(cfg);
        mixed.append(b1.iter().map(SparseSlice::to_dense).collect()).unwrap();
        mixed.append(b2).unwrap();
        let fit_m = mixed.decompose().unwrap();
        assert_eq!(fit_m.u, fit_d.u, "interleaved dense/sparse ingest diverged");
        assert_eq!(fit_m.criterion_trace, fit_d.criterion_trace);
    }

    #[test]
    fn failed_sparse_append_preserves_state_and_seed_stream() {
        let cfg = FitOptions::new(2).with_seed(98).with_max_iterations(10);
        let good1 = sparse_batch(99, &[24, 20], 12);
        let good2 = sparse_batch(100, &[18, 26], 12);

        let mut with_failure = StreamingDpar2::new(cfg);
        with_failure.append(good1.clone()).unwrap();
        // Wrong column count: typed error, state untouched.
        let err = with_failure.append(sparse_batch(101, &[10], 9)).unwrap_err();
        assert!(matches!(err, Dpar2Error::Linalg(_)));
        assert_eq!(with_failure.k(), 2, "failed sparse append lost ingested slices");
        // Undersized slice for the rank: same contract through extend.
        let err = with_failure.append(sparse_batch(102, &[1], 12)).unwrap_err();
        assert!(matches!(err, Dpar2Error::RankTooLarge { .. }));
        with_failure.append(good2.clone()).unwrap();
        let fit_a = with_failure.decompose().unwrap();

        let mut clean = StreamingDpar2::new(cfg);
        clean.append(good1).unwrap();
        clean.append(good2).unwrap();
        let fit_b = clean.decompose().unwrap();
        assert_eq!(fit_a.u, fit_b.u, "rejected sparse batch shifted the seed stream");
        assert_eq!(fit_a.criterion_trace, fit_b.criterion_trace);
    }

    #[test]
    fn empty_sparse_append_is_noop() {
        let mut stream = StreamingDpar2::new(FitOptions::new(2).with_seed(103));
        stream.append(Vec::<SparseSlice>::new()).unwrap();
        assert_eq!(stream.k(), 0);
        assert!(stream.compressed().is_none());
    }
}
