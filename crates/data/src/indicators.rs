//! Technical indicators for the stock-market simulator.
//!
//! The paper's stock tensors have 88 features per day: 5 basic (open, high,
//! low, close prices and trading volume) and 83 technical indicators
//! "calculated based on the basic features" (§IV-A). This module implements
//! the standard indicator families — including the four the paper analyzes
//! in Fig. 12 (OBV, ATR, MACD, STOCH) with their textbook definitions — and
//! a parameter grid that yields exactly 83 derived columns.
//!
//! All functions take day-indexed series and return a series of equal
//! length; warm-up prefixes (before a window fills) fall back to the
//! partial-window value so no NaNs enter the tensors.
//!
//! The stochastic family costs O(n) per window: %K takes its trailing
//! highs and lows from block prefix and suffix extremes (van Herk /
//! Gil-Werman), and %D and Williams %R are derived from one %K. Max and
//! min are exact, so these are the values a scan of every window gives.

/// Simple moving average over a trailing `window`.
pub fn sma(x: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "sma: window must be positive");
    let mut out = Vec::with_capacity(x.len());
    let mut sum = 0.0;
    for i in 0..x.len() {
        sum += x[i];
        if i >= window {
            sum -= x[i - window];
        }
        let n = (i + 1).min(window) as f64;
        out.push(sum / n);
    }
    out
}

/// Exponential moving average with smoothing `α = 2/(window+1)`.
pub fn ema(x: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "ema: window must be positive");
    let alpha = 2.0 / (window as f64 + 1.0);
    let mut out = Vec::with_capacity(x.len());
    let mut prev = match x.first() {
        Some(&v) => v,
        None => return out,
    };
    for &v in x {
        prev = alpha * v + (1.0 - alpha) * prev;
        out.push(prev);
    }
    out
}

/// Relative Strength Index (Wilder): `100 − 100/(1 + avg_gain/avg_loss)`.
pub fn rsi(close: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "rsi: window must be positive");
    let mut out = Vec::with_capacity(close.len());
    let (mut avg_gain, mut avg_loss) = (0.0f64, 0.0f64);
    for i in 0..close.len() {
        if i == 0 {
            out.push(50.0);
            continue;
        }
        let change = close[i] - close[i - 1];
        let (gain, loss) = if change >= 0.0 { (change, 0.0) } else { (0.0, -change) };
        // Wilder smoothing.
        let n = window as f64;
        avg_gain = (avg_gain * (n - 1.0) + gain) / n;
        avg_loss = (avg_loss * (n - 1.0) + loss) / n;
        if avg_loss < 1e-12 {
            out.push(if avg_gain < 1e-12 { 50.0 } else { 100.0 });
        } else {
            out.push(100.0 - 100.0 / (1.0 + avg_gain / avg_loss));
        }
    }
    out
}

/// True range of day `i`: `max(high−low, |high−prev_close|, |low−prev_close|)`.
fn true_range(high: &[f64], low: &[f64], close: &[f64], i: usize) -> f64 {
    let hl = high[i] - low[i];
    if i == 0 {
        return hl;
    }
    let hc = (high[i] - close[i - 1]).abs();
    let lc = (low[i] - close[i - 1]).abs();
    hl.max(hc).max(lc)
}

/// Average True Range (Wilder) — the volatility indicator of Fig. 12.
pub fn atr(high: &[f64], low: &[f64], close: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "atr: window must be positive");
    let n = window as f64;
    let mut out = Vec::with_capacity(close.len());
    let mut prev = 0.0;
    for i in 0..close.len() {
        let tr = true_range(high, low, close, i);
        prev = if i == 0 { tr } else { (prev * (n - 1.0) + tr) / n };
        out.push(prev);
    }
    out
}

/// On-Balance Volume: cumulative volume signed by the day's close-to-close
/// direction — the accumulation indicator of Fig. 12.
pub fn obv(close: &[f64], volume: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(close.len());
    let mut acc = 0.0;
    for i in 0..close.len() {
        if i > 0 {
            if close[i] > close[i - 1] {
                acc += volume[i];
            } else if close[i] < close[i - 1] {
                acc -= volume[i];
            }
        }
        out.push(acc);
    }
    out
}

/// MACD line: `EMA_fast(close) − EMA_slow(close)` (Appel's 12/26 default).
pub fn macd(close: &[f64], fast: usize, slow: usize) -> Vec<f64> {
    let ef = ema(close, fast);
    let es = ema(close, slow);
    ef.iter().zip(&es).map(|(f, s)| f - s).collect()
}

/// MACD signal line: 9-period EMA of the MACD line.
pub fn macd_signal(close: &[f64], fast: usize, slow: usize, signal: usize) -> Vec<f64> {
    ema(&macd(close, fast, slow), signal)
}

/// MACD histogram: MACD line minus its signal line.
pub fn macd_histogram(close: &[f64], fast: usize, slow: usize, signal: usize) -> Vec<f64> {
    let line = macd(close, fast, slow);
    let sig = ema(&line, signal);
    line.iter().zip(&sig).map(|(l, s)| l - s).collect()
}

/// `pick` (max or min) over each trailing `window` of `x`, in O(n): the
/// series splits into blocks of `window` days, and a window that does not
/// start a block spans the suffix of one block and the prefix of the next.
fn trailing(x: &[f64], window: usize, pick: fn(f64, f64) -> f64) -> Vec<f64> {
    let mut prefix = x.to_vec();
    let mut suffix = x.to_vec();
    for start in (0..x.len()).step_by(window) {
        let end = (start + window).min(x.len());
        for i in start + 1..end {
            prefix[i] = pick(prefix[i - 1], x[i]);
        }
        for i in (start..end - 1).rev() {
            suffix[i] = pick(suffix[i + 1], x[i]);
        }
    }
    for i in 0..x.len() {
        let start = (i + 1).saturating_sub(window);
        if start % window != 0 {
            prefix[i] = pick(suffix[start], prefix[i]);
        }
    }
    prefix
}

/// Stochastic oscillator %K (Lane): position of the close within the
/// trailing `window` high-low range, in [0, 100] — Fig. 12's momentum
/// indicator.
pub fn stoch_k(high: &[f64], low: &[f64], close: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "stoch_k: window must be positive");
    let (hh, ll) = (trailing(high, window, f64::max), trailing(low, window, f64::min));
    (0..close.len())
        .map(|i| {
            let denom = hh[i] - ll[i];
            if denom < 1e-12 {
                50.0
            } else {
                100.0 * (close[i] - ll[i]) / denom
            }
        })
        .collect()
}

/// Stochastic %D: 3-period SMA of %K.
pub fn stoch_d(k: &[f64]) -> Vec<f64> {
    sma(k, 3)
}

/// Rate of change: `100 · (close_t − close_{t−w}) / close_{t−w}`.
pub fn roc(close: &[f64], window: usize) -> Vec<f64> {
    (0..close.len())
        .map(|i| {
            let past = close[i.saturating_sub(window)];
            if past.abs() < 1e-12 {
                0.0
            } else {
                100.0 * (close[i] - past) / past
            }
        })
        .collect()
}

/// Momentum: `close_t − close_{t−w}`.
pub fn momentum(close: &[f64], window: usize) -> Vec<f64> {
    (0..close.len()).map(|i| close[i] - close[i.saturating_sub(window)]).collect()
}

/// Bollinger band width: `2 · 2σ_w / SMA_w` (normalized band spread).
pub fn bollinger_width(close: &[f64], window: usize) -> Vec<f64> {
    let mid = sma(close, window);
    (0..close.len())
        .map(|i| {
            let start = (i + 1).saturating_sub(window);
            let seg = &close[start..=i];
            let m = mid[i];
            let var = seg.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / seg.len() as f64;
            let sd = var.sqrt();
            if m.abs() < 1e-12 {
                0.0
            } else {
                4.0 * sd / m
            }
        })
        .collect()
}

/// Williams %R: `−100 · (HH − close)/(HH − LL)` over the trailing window,
/// which is %K shifted down by 100.
pub fn williams_r(k: &[f64]) -> Vec<f64> {
    k.iter().map(|k| k - 100.0).collect()
}

/// Commodity Channel Index: `(TP − SMA(TP)) / (0.015 · mean|TP − SMA|)`
/// on the typical price `TP = (H+L+C)/3`.
pub fn cci(high: &[f64], low: &[f64], close: &[f64], window: usize) -> Vec<f64> {
    let tp: Vec<f64> = (0..close.len()).map(|i| (high[i] + low[i] + close[i]) / 3.0).collect();
    let mid = sma(&tp, window);
    (0..tp.len())
        .map(|i| {
            let start = (i + 1).saturating_sub(window);
            let seg = &tp[start..=i];
            let mean_dev = seg.iter().map(|&x| (x - mid[i]).abs()).sum::<f64>() / seg.len() as f64;
            if mean_dev < 1e-12 {
                0.0
            } else {
                (tp[i] - mid[i]) / (0.015 * mean_dev)
            }
        })
        .collect()
}

/// Disparity index: `100 · close / SMA_w(close) − 100`.
pub fn disparity(close: &[f64], window: usize) -> Vec<f64> {
    let m = sma(close, window);
    close
        .iter()
        .zip(&m)
        .map(|(c, s)| if s.abs() < 1e-12 { 0.0 } else { 100.0 * c / s - 100.0 })
        .collect()
}

/// The window grid shared by all windowed indicator families.
pub const WINDOWS: [usize; 6] = [5, 10, 14, 20, 30, 60];

/// Names of the 88 feature columns in tensor order: the 5 basic features
/// followed by the 83 technical indicators.
pub fn feature_names() -> Vec<String> {
    let mut names: Vec<String> = ["OPENING", "HIGHEST", "LOWEST", "CLOSING", "VOLUME"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    for family in [
        "SMA", "EMA", "RSI", "ATR", "STOCH_K", "STOCH_D", "ROC", "MOM", "BBW", "WILLR", "CCI",
        "DISP",
    ] {
        for w in WINDOWS {
            names.push(format!("{family}_{w}"));
        }
    }
    names.push("MACD".to_string());
    names.push("MACD_SIGNAL".to_string());
    names.push("MACD_HIST".to_string());
    names.push("OBV".to_string());
    for w in WINDOWS {
        names.push(format!("VOL_SMA_{w}"));
    }
    names.push("OBV_ROC_10".to_string());
    names
}

/// Builds the full `T × 88` feature matrix from OHLCV series.
///
/// Column order matches [`feature_names`].
///
/// # Panics
/// Panics if the series lengths differ.
pub fn feature_matrix(
    open: &[f64],
    high: &[f64],
    low: &[f64],
    close: &[f64],
    volume: &[f64],
) -> Vec<Vec<f64>> {
    let t = close.len();
    assert!(
        [open.len(), high.len(), low.len(), volume.len()].iter().all(|&l| l == t),
        "feature_matrix: series length mismatch"
    );
    let mut cols: Vec<Vec<f64>> =
        vec![open.to_vec(), high.to_vec(), low.to_vec(), close.to_vec(), volume.to_vec()];
    for w in WINDOWS {
        cols.push(sma(close, w));
    }
    for w in WINDOWS {
        cols.push(ema(close, w));
    }
    for w in WINDOWS {
        cols.push(rsi(close, w));
    }
    for w in WINDOWS {
        cols.push(atr(high, low, close, w));
    }
    let stoch: Vec<Vec<f64>> = WINDOWS.iter().map(|&w| stoch_k(high, low, close, w)).collect();
    cols.extend(stoch.iter().cloned());
    cols.extend(stoch.iter().map(|k| stoch_d(k)));
    for w in WINDOWS {
        cols.push(roc(close, w));
    }
    for w in WINDOWS {
        cols.push(momentum(close, w));
    }
    for w in WINDOWS {
        cols.push(bollinger_width(close, w));
    }
    cols.extend(stoch.iter().map(|k| williams_r(k)));
    for w in WINDOWS {
        cols.push(cci(high, low, close, w));
    }
    for w in WINDOWS {
        cols.push(disparity(close, w));
    }
    cols.push(macd(close, 12, 26));
    cols.push(macd_signal(close, 12, 26, 9));
    cols.push(macd_histogram(close, 12, 26, 9));
    cols.push(obv(close, volume));
    for w in WINDOWS {
        cols.push(sma(volume, w));
    }
    cols.push(roc(&obv(close, volume).iter().map(|x| x + 1.0).collect::<Vec<_>>(), 10));
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)] // (open, high, low, close, volume) fixture
    fn rising() -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let close: Vec<f64> = (1..=50).map(|i| 100.0 + i as f64).collect();
        let high: Vec<f64> = close.iter().map(|c| c + 1.0).collect();
        let low: Vec<f64> = close.iter().map(|c| c - 1.0).collect();
        let open: Vec<f64> = close.iter().map(|c| c - 0.5).collect();
        let volume = vec![1000.0; 50];
        (open, high, low, close, volume)
    }

    #[test]
    fn sma_constant_series() {
        let out = sma(&[3.0; 10], 4);
        assert!(out.iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn sma_window_one_is_identity() {
        let x = [1.0, 5.0, 2.0];
        assert_eq!(sma(&x, 1), x.to_vec());
    }

    #[test]
    fn ema_converges_to_constant() {
        let mut x = vec![0.0; 5];
        x.extend(vec![10.0; 200]);
        let out = ema(&x, 10);
        assert!((out.last().unwrap() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn rsi_rising_series_saturates_high() {
        let (_, _, _, close, _) = rising();
        let out = rsi(&close, 14);
        assert!(*out.last().unwrap() > 95.0, "RSI of monotone rise: {}", out.last().unwrap());
    }

    #[test]
    fn rsi_bounded() {
        let close: Vec<f64> = (0..100).map(|i| 100.0 + (i as f64 * 0.7).sin() * 10.0).collect();
        assert!(rsi(&close, 14).iter().all(|&v| (0.0..=100.0).contains(&v)));
    }

    #[test]
    fn atr_reflects_range() {
        let (_, high, low, close, _) = rising();
        let out = atr(&high, &low, &close, 14);
        // high−low = 2 and |high_t − close_{t−1}| = 2 (the +1 band absorbs
        // the unit drift), so the true range is exactly 2 every day.
        let last = *out.last().unwrap();
        assert!((last - 2.0).abs() < 0.2, "ATR {last}");
    }

    #[test]
    fn obv_rising_accumulates() {
        let (_, _, _, close, volume) = rising();
        let out = obv(&close, &volume);
        assert_eq!(*out.last().unwrap(), 49.0 * 1000.0);
    }

    #[test]
    fn obv_flat_is_zero() {
        let out = obv(&[5.0; 10], &[100.0; 10]);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn macd_zero_for_constant() {
        let out = macd(&[50.0; 100], 12, 26);
        assert!(out.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn macd_positive_in_uptrend() {
        let (_, _, _, close, _) = rising();
        assert!(*macd(&close, 12, 26).last().unwrap() > 0.0);
    }

    #[test]
    fn stoch_k_bounds_and_position() {
        let (_, high, low, close, _) = rising();
        let out = stoch_k(&high, &low, &close, 14);
        assert!(out.iter().all(|&v| (0.0..=100.0).contains(&v)));
        // Close sits near the top of a rising window.
        assert!(*out.last().unwrap() > 80.0);
    }

    /// The O(w)-per-day scan the block extremes replaced, kept as their
    /// oracle.
    fn stoch_k_scan(high: &[f64], low: &[f64], close: &[f64], window: usize) -> Vec<f64> {
        (0..close.len())
            .map(|i| {
                let start = (i + 1).saturating_sub(window);
                let hh = high[start..=i].iter().copied().fold(f64::MIN, f64::max);
                let ll = low[start..=i].iter().copied().fold(f64::MAX, f64::min);
                let denom = hh - ll;
                if denom < 1e-12 {
                    50.0
                } else {
                    100.0 * (close[i] - ll) / denom
                }
            })
            .collect()
    }

    #[test]
    fn block_extremes_match_the_window_scan_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for n in [0usize, 1, 7, 100] {
            let close: Vec<f64> = (0..n).map(|_| 100.0 + 10.0 * rng.random::<f64>()).collect();
            let high: Vec<f64> = close.iter().map(|c| c + 5.0 * rng.random::<f64>()).collect();
            let low: Vec<f64> = close.iter().map(|c| c - 5.0 * rng.random::<f64>()).collect();
            for window in [1, 2, 5, n.max(1), n + 3] {
                let fast = stoch_k(&high, &low, &close, window);
                let scan = stoch_k_scan(&high, &low, &close, window);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&scan), "n = {n}, window = {window}");
            }
        }
    }

    #[test]
    fn williams_is_shifted_stoch() {
        let (_, high, low, close, _) = rising();
        let k = stoch_k(&high, &low, &close, 14);
        let w = williams_r(&k);
        for (kv, wv) in k.iter().zip(&w) {
            assert!((wv - (kv - 100.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn roc_and_momentum_linear_series() {
        let close: Vec<f64> = (0..30).map(|i| 100.0 + i as f64).collect();
        let m = momentum(&close, 10);
        assert_eq!(m[29], 10.0);
        let r = roc(&close, 10);
        assert!((r[29] - 100.0 * 10.0 / 119.0).abs() < 1e-9);
    }

    #[test]
    fn bollinger_width_nonnegative() {
        let close: Vec<f64> = (0..60).map(|i| 100.0 + (i as f64).sin() * 5.0).collect();
        assert!(bollinger_width(&close, 20).iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cci_centered_for_oscillation() {
        let high: Vec<f64> = (0..200).map(|i| 101.0 + (i as f64 * 0.5).sin()).collect();
        let low: Vec<f64> = (0..200).map(|i| 99.0 + (i as f64 * 0.5).sin()).collect();
        let close: Vec<f64> = (0..200).map(|i| 100.0 + (i as f64 * 0.5).sin()).collect();
        let out = cci(&high, &low, &close, 20);
        let mean: f64 = out[50..].iter().sum::<f64>() / 150.0;
        assert!(mean.abs() < 30.0, "CCI mean {mean} not centered");
    }

    #[test]
    fn feature_matrix_is_88_wide() {
        let (open, high, low, close, volume) = rising();
        let cols = feature_matrix(&open, &high, &low, &close, &volume);
        assert_eq!(cols.len(), 88);
        assert_eq!(feature_names().len(), 88);
        assert!(cols.iter().all(|c| c.len() == close.len()));
        // No NaN/inf anywhere (warm-up handling).
        for (ci, col) in cols.iter().enumerate() {
            assert!(col.iter().all(|v| v.is_finite()), "column {ci} has non-finite values");
        }
    }

    #[test]
    fn feature_names_match_fig12_selection() {
        // Fig. 12 uses OPENING/HIGHEST/LOWEST/CLOSING + ATR/STOCH/OBV/MACD;
        // all must exist in the registry.
        let names = feature_names();
        for needed in
            ["OPENING", "HIGHEST", "LOWEST", "CLOSING", "ATR_14", "STOCH_K_14", "OBV", "MACD"]
        {
            assert!(names.iter().any(|n| n == needed), "missing feature {needed}");
        }
    }
}
