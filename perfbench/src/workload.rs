//! The workloads: what each generates from the seed, and its correctness
//! floor. Both fit at rank `RANK`, serve the fitted model and ingest new
//! slices; they differ in the shape of the data, which decides the layer a
//! fit spends its time in.

use dpar2_data::{planted, registry};
use dpar2_linalg::Mat;
use dpar2_tensor::IrregularTensor;

/// Target rank `R` of every fit, refit and served model (the paper's 10).
pub const RANK: usize = 10;
/// Slices per ingest batch.
pub const BATCH: usize = 7;
/// Open-loop offered query rate (queries per second).
pub const OFFERED_QPS: f64 = 1000.0;

/// Which dataset a workload fits and serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TallSlices,
    ManySlices,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Lowest accepted `Parafac2Fit::fitness` of a full fit (the seed code
    /// reaches about 0.92 and 0.987).
    pub fitness_floor: f64,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "tall-slices", kind: Kind::TallSlices, fitness_floor: 0.90 },
    Workload { name: "many-slices", kind: Kind::ManySlices, fitness_floor: 0.97 },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The generated inputs of one run.
pub struct Input {
    /// The tensor every full fit decomposes and the served model starts from.
    pub tensor: IrregularTensor,
    /// Slices that arrive later through ingest, `BATCH` at a time.
    pub batches: Vec<Vec<Mat>>,
}

/// Generates the workload's inputs from `seed`. `tiny` shrinks every
/// dimension so the whole benchmark runs in seconds (the self-test size).
pub fn generate(w: &Workload, seed: u64, tiny: bool, batches: usize) -> Input {
    let extra = batches * BATCH;
    let (tensor, arriving) = match w.kind {
        Kind::TallSlices => {
            // US-Stock-sim from the dataset registry; stocks listing later
            // come from the same generator under a derived seed.
            let spec = registry()
                .into_iter()
                .find(|s| s.name == "US-Stock-sim")
                .expect("US-Stock-sim is a registry dataset");
            let scale = if tiny { 0.2 } else { 1.0 };
            let tensor = spec.generate_scaled(scale, seed);
            let (max_i, _, _) = spec.scaled_dims(scale);
            let cfg = dpar2_data::StockMarketConfig::us_like(extra.max(1), max_i, seed ^ 0x5EED);
            (tensor, dpar2_data::stock::generate(&cfg).tensor.to_slices())
        }
        Kind::ManySlices => {
            // One planted model; the first K slices are fitted, the rest
            // arrive later.
            let k = if tiny { 120 } else { 1500 };
            let dims = planted::powerlaw_row_dims(k + extra, 24, 96, seed);
            let mut all = planted::planted_parafac2(&dims, 48, RANK, 0.1, seed).to_slices();
            let later = all.split_off(k);
            (IrregularTensor::new(all), later)
        }
    };
    let batches = arriving.chunks(BATCH).take(batches).map(<[Mat]>::to_vec).collect();
    Input { tensor, batches }
}
