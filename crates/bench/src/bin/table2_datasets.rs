//! Table II — description of the (simulated) real-world tensor datasets.
//!
//! ```text
//! cargo run -p dpar2-bench --release --bin table2_datasets -- --scale 1.0
//! ```

use dpar2_bench::{print_table, Args, HarnessConfig};
use dpar2_data::registry;

fn main() {
    let args = Args::parse();
    let cfg = HarnessConfig::from_args(&args);
    println!(
        "== Table II: dataset description (paper dims vs simulated dims at scale {}) ==\n",
        cfg.scale
    );

    let mut rows = Vec::new();
    for spec in registry() {
        let t = spec.generate_scaled(cfg.scale, cfg.seed);
        let (pi, pj, pk) = spec.paper_dims;
        rows.push(vec![
            spec.name.to_string(),
            format!("{pi}"),
            format!("{pj}"),
            format!("{pk}"),
            format!("{}", t.max_i()),
            format!("{}", t.j()),
            format!("{}", t.k()),
            format!("{:.1}M", t.num_entries() as f64 / 1e6),
            spec.summary.to_string(),
        ]);
    }
    print_table(
        &[
            "Dataset",
            "paper max I_k",
            "paper J",
            "paper K",
            "sim max I_k",
            "sim J",
            "sim K",
            "entries",
            "summary",
        ],
        &rows,
    );
    println!("\nAll eight datasets are synthetic stand-ins (dpar2-data; see \"Workspace");
    println!("layout\" in README.md) that keep the paper's shape ratios: tall-J");
    println!("spectrograms, tall-I stock histories, mid-size feature tensors, and regular");
    println!("traffic tensors.");
}
