//! Quickstart: decompose a small irregular tensor with DPar2 and inspect
//! the PARAFAC2 factors.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dpar2_repro::core::{Dpar2, FitOptions};
use dpar2_repro::data::planted_parafac2;
use dpar2_repro::linalg::{product, Trans};

fn main() {
    // An irregular tensor: 6 slices with different row counts, J = 30
    // shared columns, a planted rank-5 PARAFAC2 structure + 10% noise.
    let tensor = planted_parafac2(&[80, 120, 60, 150, 95, 110], 30, 5, 0.1, 42);
    println!(
        "tensor: K = {} slices, J = {}, I_k = {:?}",
        tensor.k(),
        tensor.j(),
        tensor.row_dims()
    );

    // Configure DPar2 exactly like the paper's experiments: target rank,
    // 32 max iterations, seeded for reproducibility.
    let config = FitOptions::new(5).with_seed(7).with_max_iterations(32);
    let fit = Dpar2.fit(&tensor, &config).expect("decomposition failed");

    println!("\nPARAFAC2 model  X_k ≈ U_k S_k Vᵀ");
    println!("  V: {}x{} (shared)", fit.v.rows(), fit.v.cols());
    println!("  H: {}x{} (shared; U_k = Q_k H)", fit.h.rows(), fit.h.cols());
    for k in 0..tensor.k() {
        println!(
            "  U_{k}: {}x{}   diag(S_{k}) = {:?}",
            fit.u[k].rows(),
            fit.u[k].cols(),
            fit.s[k].iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }

    println!("\nsolver diagnostics:");
    println!("  iterations          : {}", fit.iterations);
    println!("  preprocessing       : {:.1} ms", fit.timing.preprocess_secs * 1e3);
    println!("  mean iteration time : {:.2} ms", fit.timing.mean_iteration_secs() * 1e3);
    println!("  fitness             : {:.4}  (1.0 = perfect reconstruction)", fit.fitness(&tensor));

    // The PARAFAC2 invariant: U_kᵀ U_k is the same matrix for every slice.
    let ref_gram = product(Trans::T, Trans::N, &fit.u[0], &fit.u[0]);
    let max_dev = (1..tensor.k())
        .map(|k| (&product(Trans::T, Trans::N, &fit.u[k], &fit.u[k]) - &ref_gram).fro_norm())
        .fold(0.0f64, f64::max);
    println!("  max deviation of U_kᵀU_k across slices: {max_dev:.2e} (PARAFAC2 constraint)");
}
