//! Stock-market simulator — the stand-in for the paper's US Stock and
//! Korea Stock datasets.
//!
//! Each stock is a `(days × 88-features)` slice; listing periods differ per
//! stock (the irregularity of Fig. 8), and all listings end at the present
//! day. Prices follow a factor model (market + sector + idiosyncratic
//! returns) so that sector structure is discoverable from the factors
//! (Table III), and an optional crash-recovery event models the COVID-19
//! window the paper analyzes.
//!
//! Two market profiles reproduce the Fig. 12 contrast:
//!
//! * [`StockMarketConfig::us_like`] — multiplicative (GBM) dynamics: the
//!   daily trading range scales with the price level, so ATR tracks price;
//!   volume concentrates on up-days, so OBV tracks price. Both indicators
//!   then correlate positively with the price features, as the paper found
//!   on the US market.
//! * [`StockMarketConfig::kr_like`] — additive dynamics with
//!   price-independent range and down-day-skewed volume: ATR and OBV
//!   decouple from the price level, as the paper found on the Korean
//!   market.

use crate::indicators::{feature_matrix, feature_names};
use crate::planted::powerlaw_row_dims;
use dpar2_linalg::random::standard_normal;
use dpar2_tensor::IrregularTensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sector labels used by the simulator (first `n_sectors` are active).
pub const SECTOR_NAMES: [&str; 8] = [
    "Technology",
    "Financial Services",
    "Consumer Cyclical",
    "Communication Services",
    "Healthcare",
    "Energy",
    "Industrials",
    "Utilities",
];

/// Configuration of the market simulator.
#[derive(Debug, Clone)]
pub struct StockMarketConfig {
    /// Number of stocks `K`.
    pub n_stocks: usize,
    /// Number of sectors (≤ 8).
    pub n_sectors: usize,
    /// Length of the full market history in days (`max I_k`).
    pub max_days: usize,
    /// Shortest allowed listing period.
    pub min_days: usize,
    /// Fraction of stocks listed for the whole history (needed by
    /// similarity analyses that require a common time range).
    pub full_history_fraction: f64,
    /// 1.0 → multiplicative/GBM dynamics (range ∝ price, US-like);
    /// 0.0 → additive dynamics (range constant, KR-like).
    pub vol_price_coupling: f64,
    /// Positive → volume concentrates on up-days (OBV tracks price,
    /// US-like); negative → volume concentrates on down-days (OBV
    /// decouples, KR-like).
    pub volume_trend_coupling: f64,
    /// Optional crash-and-recovery event `(start_day, end_day)` modelling
    /// the COVID-19 window of §IV-E2.
    pub crash_window: Option<(usize, usize)>,
    /// Z-score each feature column per stock (recommended: raw feature
    /// scales differ by orders of magnitude).
    pub normalize: bool,
    /// RNG seed.
    pub seed: u64,
}

impl StockMarketConfig {
    /// US-market-like profile (multiplicative dynamics, up-day volume,
    /// crash event in the last third of the history).
    pub fn us_like(n_stocks: usize, max_days: usize, seed: u64) -> Self {
        StockMarketConfig {
            n_stocks,
            n_sectors: 8,
            max_days,
            min_days: (max_days / 8).max(70),
            full_history_fraction: 0.4,
            vol_price_coupling: 1.0,
            volume_trend_coupling: 1.0,
            crash_window: Some((max_days * 2 / 3, max_days * 5 / 6)),
            normalize: true,
            seed,
        }
    }

    /// Korean-market-like profile (additive dynamics, down-day-skewed
    /// volume). No crash event: market-wide crashes couple *every*
    /// indicator to prices and would mask the decoupling this profile
    /// models; the crash belongs to the US/COVID analysis (Table III).
    pub fn kr_like(n_stocks: usize, max_days: usize, seed: u64) -> Self {
        StockMarketConfig {
            n_stocks,
            n_sectors: 8,
            max_days,
            min_days: (max_days / 8).max(70),
            full_history_fraction: 0.4,
            vol_price_coupling: 0.0,
            volume_trend_coupling: -2.0,
            crash_window: None,
            normalize: true,
            seed,
        }
    }
}

/// Per-stock metadata.
#[derive(Debug, Clone)]
pub struct StockMeta {
    /// Synthetic ticker, e.g. `TECH-003`.
    pub ticker: String,
    /// Sector index into [`SECTOR_NAMES`].
    pub sector: usize,
    /// Listing length in days (`I_k`).
    pub days: usize,
}

/// A generated market: the irregular tensor plus everything needed for the
/// §IV-E discovery analyses.
#[derive(Debug, Clone)]
pub struct StockDataset {
    /// `(days × 88)` slices, one per stock, listings ending "today".
    pub tensor: IrregularTensor,
    /// Ticker/sector/length per stock, aligned with tensor slices.
    pub meta: Vec<StockMeta>,
    /// The 88 feature column names.
    pub feature_names: Vec<String>,
    /// Active sector names.
    pub sector_names: Vec<String>,
    /// Full history length (day indices run `0..max_days`).
    pub max_days: usize,
}

impl StockDataset {
    /// Restricts the dataset to the day window `[start, end)`, keeping only
    /// stocks whose listing covers the whole window — the construction used
    /// for the COVID-19 analysis ("constructing the tensor included in the
    /// range", §IV-E2, which also needs equal-size `U_k` for Eq. 10).
    ///
    /// # Panics
    /// Panics if the window is empty or extends beyond the history.
    pub fn window(&self, start: usize, end: usize) -> StockDataset {
        assert!(start < end && end <= self.max_days, "invalid window [{start}, {end})");
        let j = self.tensor.j();
        let mut data = Vec::new();
        let mut meta = Vec::new();
        for (k, m) in self.meta.iter().enumerate() {
            let first_day = self.max_days - m.days;
            if first_day > start {
                continue; // not yet listed at window start
            }
            let rows = self.tensor.slice(k).data();
            data.extend_from_slice(&rows[(start - first_day) * j..(end - first_day) * j]);
            meta.push(StockMeta { ticker: m.ticker.clone(), sector: m.sector, days: end - start });
        }
        StockDataset {
            tensor: IrregularTensor::from_packed(data, vec![end - start; meta.len()], j),
            meta,
            feature_names: self.feature_names.clone(),
            sector_names: self.sector_names.clone(),
            max_days: end - start,
        }
    }
}

/// Runs the market simulation.
pub fn generate(config: &StockMarketConfig) -> StockDataset {
    assert!(config.n_sectors >= 1 && config.n_sectors <= SECTOR_NAMES.len());
    assert!(config.min_days >= 65, "need ≥65 days for the 60-day indicator warm-up");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let t_max = config.max_days;

    // --- Market and sector factor returns over the full history ---
    let market: Vec<f64> = (0..t_max)
        .map(|t| {
            let mut r = 0.0003 + 0.008 * standard_normal(&mut rng);
            if let Some((cs, ce)) = config.crash_window {
                if t >= cs && t < ce {
                    let phase = (t - cs) as f64 / (ce - cs) as f64;
                    // Sharp drawdown for the first third, strong recovery after.
                    r += if phase < 0.33 { -0.02 } else { 0.012 };
                }
            }
            r
        })
        .collect();
    let sector_factors: Vec<Vec<f64>> = (0..config.n_sectors)
        .map(|s| {
            // Each sector gets a distinct low-frequency return cycle: this
            // is what makes same-sector price paths co-move beyond the
            // market factor, so sector membership is discoverable from the
            // temporal factors U_k (Table III).
            let period = 40.0 + 80.0 * rng.random::<f64>();
            let phase = rng.random::<f64>() * std::f64::consts::TAU;
            (0..t_max)
                .map(|t| {
                    let cycle = 0.010 * (std::f64::consts::TAU * t as f64 / period + phase).sin();
                    let mut r = cycle + 0.004 * standard_normal(&mut rng);
                    if let Some((cs, ce)) = config.crash_window {
                        // Technology (sector 0) rebounds hardest — the
                        // pattern behind Table III's tech-heavy top-10.
                        if s == 0 && t >= cs && t < ce {
                            let phase = (t - cs) as f64 / (ce - cs) as f64;
                            if phase >= 0.33 {
                                r += 0.008;
                            }
                        }
                    }
                    r
                })
                .collect()
        })
        .collect();

    // --- Listing lengths: Fig. 8-style power-law tail + full-history head ---
    let n_full = ((config.n_stocks as f64 * config.full_history_fraction).ceil() as usize)
        .min(config.n_stocks);
    let mut days = vec![t_max; n_full];
    days.extend(powerlaw_row_dims(
        config.n_stocks - n_full,
        config.min_days,
        t_max,
        config.seed ^ 0xABCD,
    ));

    // --- Per-stock price/volume paths and feature slices, each written
    // straight into the tensor's packed row-major buffer ---
    let names = feature_names();
    let j = names.len();
    let mut data = Vec::with_capacity(days.iter().sum::<usize>() * j);
    let mut meta = Vec::with_capacity(config.n_stocks);
    let mut sector_counter = vec![0usize; config.n_sectors];
    for (k, &d) in days.iter().enumerate() {
        let sector = k % config.n_sectors;
        let beta = 0.5 + rng.random::<f64>();
        let gamma = 0.7 + 0.8 * rng.random::<f64>();
        let idio = 0.005 + 0.006 * rng.random::<f64>();
        let p0 = 20.0 + 180.0 * rng.random::<f64>();
        let base_vol = 1e5 * (1.0 + 9.0 * rng.random::<f64>());
        let c = config.vol_price_coupling;

        let first_day = t_max - d;
        let mut close = Vec::with_capacity(d);
        let mut open = Vec::with_capacity(d);
        let mut high = Vec::with_capacity(d);
        let mut low = Vec::with_capacity(d);
        let mut volume = Vec::with_capacity(d);
        let mut price = p0;
        for t in first_day..t_max {
            let r = beta * market[t]
                + gamma * sector_factors[sector][t]
                + idio * standard_normal(&mut rng);
            // Blend multiplicative (price-proportional) and additive
            // (price-independent) dynamics.
            let mult_step = price * (r.exp() - 1.0);
            let add_step = p0 * r;
            price = (price + c * mult_step + (1.0 - c) * add_step).max(0.5);

            let prev_close = close.last().copied().unwrap_or(price);
            let range_base = 0.004 + 0.8 * r.abs();
            // Range ∝ price (US) vs ∝ p0 (KR): this is what couples or
            // decouples ATR from the price level.
            let range = (c * price + (1.0 - c) * p0) * range_base;
            let o = prev_close + 0.2 * range * standard_normal(&mut rng);
            let hi = price.max(o) + range * rng.random::<f64>();
            let lo = (price.min(o) - range * rng.random::<f64>()).max(0.1);
            // Volume: log-normal around base, skewed toward up-days (+v)
            // or down-days (−v).
            let v_dir = config.volume_trend_coupling * r.signum();
            let vol = base_vol * (0.25 * standard_normal(&mut rng) + v_dir * 12.0 * r.abs()).exp();

            open.push(o);
            high.push(hi);
            low.push(lo);
            close.push(price);
            volume.push(vol);
        }

        let cols = feature_matrix(&open, &high, &low, &close, &volume);
        let first = data.len();
        data.resize(first + d * j, 0.0);
        let slice = &mut data[first..];
        for (i, row) in slice.chunks_exact_mut(j).enumerate() {
            for (x, col) in row.iter_mut().zip(&cols) {
                *x = col[i];
            }
        }
        if config.normalize {
            zscore_columns(slice, j);
        }
        let idx = sector_counter[sector];
        sector_counter[sector] += 1;
        let prefix: String = SECTOR_NAMES[sector].chars().take(4).collect();
        meta.push(StockMeta {
            ticker: format!("{}-{idx:03}", prefix.to_uppercase()),
            sector,
            days: d,
        });
    }

    StockDataset {
        tensor: IrregularTensor::from_packed(data, days, j),
        meta,
        feature_names: names,
        sector_names: SECTOR_NAMES[..config.n_sectors].iter().map(|s| s.to_string()).collect(),
        max_days: t_max,
    }
}

/// Z-scores each column of a row-major block `j` wide, in place;
/// near-constant columns become zeros. The sums run over the rows in
/// ascending order with one accumulator per column.
fn zscore_columns(block: &mut [f64], j: usize) {
    let rows = (block.len() / j) as f64;
    let mut mean = vec![0.0; j];
    for row in block.chunks_exact(j) {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x;
        }
    }
    mean.iter_mut().for_each(|m| *m /= rows);
    let mut var = vec![0.0; j];
    for row in block.chunks_exact(j) {
        for ((v, &x), &m) in var.iter_mut().zip(row).zip(&mean) {
            let d = x - m;
            *v += d * d;
        }
    }
    let sd: Vec<f64> = var.iter().map(|v| (v / rows).sqrt()).collect();
    for row in block.chunks_exact_mut(j) {
        for ((x, &m), &sd) in row.iter_mut().zip(&mean).zip(&sd) {
            *x = if sd < 1e-9 { 0.0 } else { (*x - m) / sd };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(seed: u64) -> StockMarketConfig {
        let mut c = StockMarketConfig::us_like(12, 150, seed);
        c.n_sectors = 3;
        c
    }

    #[test]
    fn shapes_and_metadata() {
        let ds = generate(&tiny_config(1));
        assert_eq!(ds.tensor.k(), 12);
        assert_eq!(ds.tensor.j(), 88);
        assert_eq!(ds.meta.len(), 12);
        assert_eq!(ds.feature_names.len(), 88);
        for (k, m) in ds.meta.iter().enumerate() {
            assert_eq!(ds.tensor.i(k), m.days);
            assert!(m.days >= 70 && m.days <= 150);
            assert!(m.sector < 3);
        }
    }

    #[test]
    fn full_history_head_exists() {
        let ds = generate(&tiny_config(2));
        let full = ds.meta.iter().filter(|m| m.days == 150).count();
        assert!(full >= 5, "expected ≥40% full-history stocks, got {full}");
    }

    #[test]
    fn normalized_columns_are_zscored() {
        let ds = generate(&tiny_config(3));
        let s = ds.tensor.slice(0);
        for j in 0..s.cols() {
            let col = s.col(j);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            assert!(mean.abs() < 1e-8, "column {j} mean {mean}");
        }
    }

    #[test]
    fn all_entries_finite() {
        for seed in [4, 5] {
            let ds = generate(&tiny_config(seed));
            for k in 0..ds.tensor.k() {
                assert!(ds.tensor.slice(k).data().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = generate(&tiny_config(6));
        let b = generate(&tiny_config(6));
        assert_eq!(a.tensor.slice(0), b.tensor.slice(0));
        assert_eq!(a.meta[3].ticker, b.meta[3].ticker);
    }

    #[test]
    fn window_selects_covering_stocks() {
        let ds = generate(&tiny_config(7));
        let w = ds.window(100, 150);
        // Only stocks listed at day ≤ 100 survive, all with 50 rows.
        assert!(w.tensor.k() >= 5);
        for k in 0..w.tensor.k() {
            assert_eq!(w.tensor.i(k), 50);
        }
        assert!(w.tensor.k() <= ds.tensor.k());
    }

    #[test]
    fn window_rows_align_with_source() {
        let ds = {
            let mut c = tiny_config(8);
            c.normalize = false; // align raw values
            generate(&c)
        };
        let w = ds.window(120, 150);
        // First windowed stock is a full-history stock: rows 120..150.
        let src = ds.tensor.slice(0);
        let dst = w.tensor.slice(0);
        for i in 0..30 {
            assert_eq!(src.at(120 + i, 3), dst.at(i, 3)); // CLOSING column
        }
    }

    #[test]
    #[should_panic(expected = "invalid window")]
    fn bad_window_panics() {
        generate(&tiny_config(9)).window(140, 130);
    }

    #[test]
    fn us_and_kr_profiles_differ() {
        let us = generate(&StockMarketConfig {
            n_stocks: 6,
            n_sectors: 2,
            ..StockMarketConfig::us_like(6, 150, 10)
        });
        let kr = generate(&StockMarketConfig {
            n_stocks: 6,
            n_sectors: 2,
            ..StockMarketConfig::kr_like(6, 150, 10)
        });
        assert_ne!(us.tensor.slice(0).data()[0], kr.tensor.slice(0).data()[0]);
    }
}
