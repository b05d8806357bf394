//! Binary persistence for fitted PARAFAC2 models.
//!
//! A fitted model ([`Parafac2Fit`]) plus its dataset metadata
//! ([`ModelMeta`]) round-trips through a versioned, checksummed,
//! little-endian binary format:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DPAR2MDL"
//! 8       4     format version (u32 LE, currently 2)
//! 12      8     payload length in bytes (u64 LE)
//! 20      8     FNV-1a 64 checksum of the payload (u64 LE)
//! 28      …     payload
//! ```
//!
//! The payload serializes, in order: the metadata (`name`, `dataset`,
//! `gamma`, entity labels), the factor shapes (`R`, `J`, `K`), the shared
//! factors `H` and `V`, then per slice the row count, `U_k`, and
//! `diag(S_k)`, and finally the solver diagnostics (iterations, the typed
//! stop reason as one byte, criterion trace, timing). Strings are `u64`
//! length + UTF-8 bytes; `f64`s are raw IEEE-754 little-endian bits, so a
//! round-trip is bit-exact. (Format 2 added the stop-reason byte; format-1
//! files are rejected as [`ServeError::UnsupportedVersion`].)
//!
//! Everything is hand-rolled over [`std::io`] — this workspace builds
//! offline with no serde — and the reader is defensive: bad magic, an
//! unknown version, a truncated file, a corrupted payload, or structurally
//! impossible lengths all surface as [`ServeError`] values, never panics.

use crate::error::{Result, ServeError};
use dpar2_core::{Parafac2Fit, StopReason, TimingBreakdown};
use dpar2_linalg::Mat;
use std::io::{Read, Write};
use std::path::Path;

/// File magic: identifies a DPar2 model file.
pub const MAGIC: [u8; 8] = *b"DPAR2MDL";
/// Current format version written by [`SavedModel::write_to`].
pub const FORMAT_VERSION: u32 = 2;
/// Fixed header size (magic + version + payload length + checksum).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Dataset metadata persisted alongside the factors.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Model name — the default registry key.
    pub name: String,
    /// Provenance tag for the dataset the model was fitted on.
    pub dataset: String,
    /// Similarity bandwidth `γ` of Eq. 10 used when serving this model.
    pub gamma: f64,
    /// Optional per-entity labels (tickers, song ids, …). Either empty or
    /// exactly one label per slice.
    pub entity_labels: Vec<String>,
}

impl ModelMeta {
    /// Metadata with the paper's default `γ = 0.01`, no labels.
    pub fn new(name: impl Into<String>) -> Self {
        ModelMeta { name: name.into(), dataset: String::new(), gamma: 0.01, entity_labels: vec![] }
    }

    /// Sets the dataset provenance tag.
    pub fn with_dataset(mut self, dataset: impl Into<String>) -> Self {
        self.dataset = dataset.into();
        self
    }

    /// Sets the Eq. 10 similarity bandwidth.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets per-entity labels.
    pub fn with_entity_labels(mut self, labels: Vec<String>) -> Self {
        self.entity_labels = labels;
        self
    }
}

/// A fitted model plus metadata, as persisted on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedModel {
    /// Dataset metadata.
    pub meta: ModelMeta,
    /// The fitted PARAFAC2 factors and solver diagnostics.
    pub fit: Parafac2Fit,
}

impl SavedModel {
    /// Bundles a fit with its metadata.
    pub fn new(meta: ModelMeta, fit: Parafac2Fit) -> Self {
        SavedModel { meta, fit }
    }

    /// Serializes into any writer (header + checksummed payload).
    ///
    /// # Errors
    /// [`ServeError::Malformed`] if the fit's factor shapes are mutually
    /// inconsistent; [`ServeError::Io`] on write failure.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let payload = self.encode_payload()?;
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&fnv1a64(&payload).to_le_bytes())?;
        w.write_all(&payload)?;
        Ok(())
    }

    /// Deserializes from any reader, verifying magic, version, length, and
    /// checksum before decoding.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`ServeError`] variant — see the
    /// module docs; this function never panics on untrusted bytes.
    pub fn read_from<R: Read>(r: &mut R) -> Result<SavedModel> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(ServeError::BadMagic);
        }
        let mut v4 = [0u8; 4];
        r.read_exact(&mut v4)?;
        let version = u32::from_le_bytes(v4);
        if version != FORMAT_VERSION {
            return Err(ServeError::UnsupportedVersion(version));
        }
        let mut v8 = [0u8; 8];
        r.read_exact(&mut v8)?;
        let payload_len = u64::from_le_bytes(v8);
        r.read_exact(&mut v8)?;
        let expected_sum = u64::from_le_bytes(v8);

        // `take` bounds the allocation by the bytes actually present, so a
        // corrupted (huge) length cannot OOM the reader.
        let mut payload = Vec::new();
        r.take(payload_len).read_to_end(&mut payload)?;
        if (payload.len() as u64) < payload_len {
            return Err(ServeError::Truncated {
                expected: payload_len,
                actual: payload.len() as u64,
            });
        }
        let actual_sum = fnv1a64(&payload);
        if actual_sum != expected_sum {
            return Err(ServeError::ChecksumMismatch {
                expected: expected_sum,
                actual: actual_sum,
            });
        }
        Self::decode_payload(&payload)
    }

    /// Serializes to an in-memory buffer.
    ///
    /// # Errors
    /// [`ServeError::Malformed`] if the fit's shapes are inconsistent.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.write_to(&mut buf)?;
        Ok(buf)
    }

    /// Deserializes from an in-memory buffer (see [`SavedModel::read_from`]).
    ///
    /// # Errors
    /// See [`SavedModel::read_from`].
    pub fn from_bytes(mut bytes: &[u8]) -> Result<SavedModel> {
        Self::read_from(&mut bytes)
    }

    /// Saves to a file path.
    ///
    /// # Errors
    /// [`ServeError::Io`] on filesystem failure; [`ServeError::Malformed`]
    /// on inconsistent factor shapes.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_to(&mut f)?;
        f.flush()?;
        Ok(())
    }

    /// Loads from a file path (see [`SavedModel::read_from`]).
    ///
    /// # Errors
    /// See [`SavedModel::read_from`].
    pub fn load(path: impl AsRef<Path>) -> Result<SavedModel> {
        let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
        Self::read_from(&mut f)
    }

    // ------------------------------------------------------------------
    // Payload encoding
    // ------------------------------------------------------------------

    fn encode_payload(&self) -> Result<Vec<u8>> {
        let fit = &self.fit;
        let r = fit.v.cols();
        let j = fit.v.rows();
        let k = fit.u.len();
        if fit.h.shape() != (r, r)
            || fit.s.len() != k
            || fit.u.iter().any(|u| u.cols() != r)
            || fit.s.iter().any(|s| s.len() != r)
        {
            return Err(ServeError::Malformed("inconsistent factor shapes in fit"));
        }
        if !self.meta.entity_labels.is_empty() && self.meta.entity_labels.len() != k {
            return Err(ServeError::Malformed("entity label count differs from slice count"));
        }

        let mut p = Vec::new();
        put_str(&mut p, &self.meta.name);
        put_str(&mut p, &self.meta.dataset);
        put_f64(&mut p, self.meta.gamma);
        put_u64(&mut p, self.meta.entity_labels.len() as u64);
        for label in &self.meta.entity_labels {
            put_str(&mut p, label);
        }

        put_u64(&mut p, r as u64);
        put_u64(&mut p, j as u64);
        put_u64(&mut p, k as u64);
        put_f64s(&mut p, fit.h.data());
        put_f64s(&mut p, fit.v.data());
        for (u_k, s_k) in fit.u.iter().zip(&fit.s) {
            put_u64(&mut p, u_k.rows() as u64);
            put_f64s(&mut p, u_k.data());
            put_f64s(&mut p, s_k);
        }
        put_u64(&mut p, fit.iterations as u64);
        p.push(stop_reason_code(fit.stop_reason));
        put_u64(&mut p, fit.criterion_trace.len() as u64);
        put_f64s(&mut p, &fit.criterion_trace);
        put_f64(&mut p, fit.timing.preprocess_secs);
        put_f64(&mut p, fit.timing.iterations_secs);
        put_u64(&mut p, fit.timing.per_iteration_secs.len() as u64);
        put_f64s(&mut p, &fit.timing.per_iteration_secs);
        put_f64(&mut p, fit.timing.total_secs);
        Ok(p)
    }

    fn decode_payload(payload: &[u8]) -> Result<SavedModel> {
        let mut c = Cursor { buf: payload, pos: 0 };
        let name = c.string()?;
        let dataset = c.string()?;
        let gamma = c.f64()?;
        let label_count = c.len()?;
        let mut entity_labels = Vec::with_capacity(label_count.min(1024));
        for _ in 0..label_count {
            entity_labels.push(c.string()?);
        }

        let r = c.len()?;
        let j = c.len()?;
        let k = c.len()?;
        if !entity_labels.is_empty() && entity_labels.len() != k {
            return Err(ServeError::Malformed("entity label count differs from slice count"));
        }
        let h = c.mat(r, r)?;
        let v = c.mat(j, r)?;
        let mut u = Vec::with_capacity(k.min(4096));
        let mut s = Vec::with_capacity(k.min(4096));
        for _ in 0..k {
            let rows = c.len()?;
            u.push(c.mat(rows, r)?);
            s.push(c.f64_vec(r)?);
        }
        let iterations = c.len()?;
        let stop_reason = stop_reason_from_code(c.u8()?)?;
        let trace_len = c.len()?;
        let criterion_trace = c.f64_vec(trace_len)?;
        let preprocess_secs = c.f64()?;
        let iterations_secs = c.f64()?;
        let per_iter_len = c.len()?;
        let per_iteration_secs = c.f64_vec(per_iter_len)?;
        let total_secs = c.f64()?;
        if !c.finished() {
            return Err(ServeError::Malformed("trailing bytes after payload"));
        }

        Ok(SavedModel {
            meta: ModelMeta { name, dataset, gamma, entity_labels },
            fit: Parafac2Fit {
                u,
                s,
                v,
                h,
                iterations,
                criterion_trace,
                stop_reason,
                timing: TimingBreakdown {
                    preprocess_secs,
                    iterations_secs,
                    per_iteration_secs,
                    total_secs,
                },
            },
        })
    }
}

/// One-byte wire code for [`StopReason`].
fn stop_reason_code(reason: StopReason) -> u8 {
    match reason {
        StopReason::Converged => 0,
        StopReason::MaxIterations => 1,
        StopReason::Cancelled => 2,
        StopReason::TimeBudget => 3,
        StopReason::Diverged => 4,
    }
}

/// Decodes a [`StopReason`] wire code; unknown codes are corruption.
fn stop_reason_from_code(code: u8) -> Result<StopReason> {
    match code {
        0 => Ok(StopReason::Converged),
        1 => Ok(StopReason::MaxIterations),
        2 => Ok(StopReason::Cancelled),
        3 => Ok(StopReason::TimeBudget),
        4 => Ok(StopReason::Diverged),
        _ => Err(ServeError::Malformed("unknown stop-reason code")),
    }
}

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for detecting
/// accidental corruption (this is an integrity check, not authentication).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    buf.reserve(vs.len() * 8);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over the in-memory payload. Every
/// length that drives an allocation is validated against the remaining
/// bytes first, so corrupted lengths fail cleanly instead of allocating.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(ServeError::Malformed("length exceeds payload"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length/count field: `u64` narrowed to `usize` with overflow check.
    fn len(&mut self) -> Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| ServeError::Malformed("count exceeds usize"))
    }

    fn f64_vec(&mut self, n: usize) -> Result<Vec<f64>> {
        let bytes = n.checked_mul(8).ok_or(ServeError::Malformed("f64 count overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8B"))).collect())
    }

    fn mat(&mut self, rows: usize, cols: usize) -> Result<Mat> {
        let n = rows.checked_mul(cols).ok_or(ServeError::Malformed("matrix shape overflows"))?;
        Ok(Mat::from_vec(rows, cols, self.f64_vec(n)?))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.len()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ServeError::Malformed("invalid UTF-8 string"))
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-built fit with irregular slices.
    fn sample_fit() -> Parafac2Fit {
        let r = 2;
        Parafac2Fit {
            u: vec![
                Mat::from_fn(3, r, |i, j| (i * 10 + j) as f64 * 0.5),
                Mat::from_fn(5, r, |i, j| (i + j) as f64 - 1.25),
            ],
            s: vec![vec![1.5, 0.25], vec![2.0, -0.5]],
            v: Mat::from_fn(4, r, |i, j| (i as f64).sin() + j as f64),
            h: Mat::from_fn(r, r, |i, j| if i == j { 1.0 } else { 0.125 }),
            iterations: 7,
            criterion_trace: vec![3.0, 1.0, 0.5],
            stop_reason: StopReason::Converged,
            timing: TimingBreakdown {
                preprocess_secs: 0.01,
                iterations_secs: 0.05,
                per_iteration_secs: vec![0.02, 0.02, 0.01],
                total_secs: 0.06,
            },
        }
    }

    fn sample() -> SavedModel {
        SavedModel::new(
            ModelMeta::new("stocks-us")
                .with_dataset("us-stock simulated")
                .with_gamma(0.01)
                .with_entity_labels(vec!["MSFT".into(), "AAPL".into()]),
            sample_fit(),
        )
    }

    #[test]
    fn round_trip_in_memory_is_bit_exact() {
        let m = sample();
        let bytes = m.to_bytes().unwrap();
        let back = SavedModel::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn every_stop_reason_round_trips() {
        for reason in [
            StopReason::Converged,
            StopReason::MaxIterations,
            StopReason::Cancelled,
            StopReason::TimeBudget,
            StopReason::Diverged,
        ] {
            let mut m = sample();
            m.fit.stop_reason = reason;
            let back = SavedModel::from_bytes(&m.to_bytes().unwrap()).unwrap();
            assert_eq!(back.fit.stop_reason, reason);
        }
    }

    #[test]
    fn unknown_stop_reason_code_is_malformed() {
        // Round-trip through the codec directly: codes 0..=4 are the only
        // valid wire values.
        for code in 0u8..=4 {
            assert!(stop_reason_from_code(code).is_ok());
        }
        for code in [5, 9] {
            assert!(matches!(stop_reason_from_code(code), Err(ServeError::Malformed(_))));
        }
    }

    #[test]
    fn round_trip_through_file() {
        let m = sample();
        let path = std::env::temp_dir().join("dpar2_serve_model_roundtrip_test.dpar2");
        m.save(&path).unwrap();
        let back = SavedModel::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_magic_is_error() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(SavedModel::from_bytes(&bytes), Err(ServeError::BadMagic)));
    }

    #[test]
    fn unknown_version_is_error() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(SavedModel::from_bytes(&bytes), Err(ServeError::UnsupportedVersion(99))));
    }

    #[test]
    fn truncation_is_error() {
        let bytes = sample().to_bytes().unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, HEADER_LEN + 3] {
            let err = SavedModel::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ServeError::Truncated { .. }),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn header_truncation_is_io_error_not_panic() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 0..HEADER_LEN {
            assert!(SavedModel::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn payload_corruption_is_checksum_error() {
        let mut bytes = sample().to_bytes().unwrap();
        let mid = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(SavedModel::from_bytes(&bytes), Err(ServeError::ChecksumMismatch { .. })));
    }

    #[test]
    fn inconsistent_fit_refused_at_write_time() {
        let mut m = sample();
        m.fit.s[0].pop(); // S_0 now shorter than the rank
        assert!(matches!(m.to_bytes(), Err(ServeError::Malformed(_))));
        let mut m2 = sample();
        m2.meta.entity_labels.push("GHOST".into()); // 3 labels, 2 slices
        assert!(matches!(m2.to_bytes(), Err(ServeError::Malformed(_))));
    }

    #[test]
    fn special_float_values_round_trip() {
        let mut m = sample();
        m.fit.v.set(0, 0, f64::INFINITY);
        m.fit.v.set(1, 0, f64::NEG_INFINITY);
        m.fit.v.set(2, 0, -0.0);
        m.fit.v.set(3, 0, f64::MIN_POSITIVE / 2.0); // subnormal
        let back = SavedModel::from_bytes(&m.to_bytes().unwrap()).unwrap();
        // Compare raw bits: -0.0 == 0.0 under PartialEq, bits distinguish.
        for (a, b) in m.fit.v.data().iter().zip(back.fit.v.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_model_round_trips() {
        let m = SavedModel::new(
            ModelMeta::new(""),
            Parafac2Fit {
                u: vec![],
                s: vec![],
                v: Mat::zeros(0, 0),
                h: Mat::zeros(0, 0),
                iterations: 0,
                criterion_trace: vec![],
                stop_reason: StopReason::MaxIterations,
                timing: TimingBreakdown::default(),
            },
        );
        let back = SavedModel::from_bytes(&m.to_bytes().unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
