//! Host-speed calibration. On a shared host the speed of one core drifts by
//! a quarter or more over minutes, which would swamp the run-to-run spread
//! of the fit timings. A fixed kernel that is part of the benchmark — not
//! of the code under test, so no change to the repository can speed it up —
//! runs right before and right after each timed fit and setup, with no
//! other work of the benchmark running, and the bounded times are reported
//! in seconds of the reference host: the measured time scaled by the
//! kernel's time on the reference host over its time now. The measured
//! wall times are printed beside them as notes.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Typical calibration seconds on the reference host: the 2-vCPU, 2.1 GHz
/// machine the bounds were set on.
const REFERENCE_SECS: f64 = 0.0006;
/// Side of the square matrices the compute half multiplies.
const N: usize = 64;
/// `f64`s the memory half streams through (32 MiB, beyond the caches).
const STREAM: usize = 4 << 20;
/// Passes per probe; the probe takes their median.
const PASSES: usize = 5;

/// One pass: a naive `N × N` matrix product (compute) and a strided sum
/// over a buffer larger than the caches (memory); the geometric mean of
/// their seconds.
fn pass(buf: &[f64]) -> f64 {
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.25).collect();
    let mut c = vec![0.0; N * N];
    let t0 = Instant::now();
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let aik = black_box(&a)[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
    }
    black_box(&c);
    let compute = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sum: f64 = black_box(buf).iter().step_by(8).sum();
    black_box(sum);
    let memory = t0.elapsed().as_secs_f64();
    (compute * memory).sqrt()
}

/// The factor that converts seconds measured now into reference seconds:
/// the reference kernel time over the median of `PASSES` passes now.
pub fn factor() -> f64 {
    static BUF: OnceLock<Vec<f64>> = OnceLock::new();
    let buf = BUF.get_or_init(|| (0..STREAM).map(|i| i as f64).collect());
    let mut t = [0.0; PASSES];
    for x in &mut t {
        *x = pass(buf);
    }
    t.sort_by(f64::total_cmp);
    REFERENCE_SECS / t[PASSES / 2]
}
