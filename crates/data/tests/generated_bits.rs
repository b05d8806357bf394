//! The generated stock tensors, pinned bit for bit.
//!
//! Each tensor is hashed with 64-bit FNV-1a over the `f64::to_bits` of its
//! packed buffer, one word per entry (`x ^= bits; x *= 0x100000001b3` from
//! `0xcbf29ce484222325`). A change to the generator or its indicators that
//! moves any bit of any entry changes the hash. The scale-0.25 pins run in
//! every test run; the full-size US-Stock-sim pin takes seconds in release
//! and is `#[ignore]`d (`cargo test -p dpar2-data --release -- --ignored`).

use dpar2_data::registry;
use dpar2_tensor::IrregularTensor;

fn fnv1a(tensor: &IrregularTensor) -> u64 {
    tensor
        .packed_data()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |x, v| (x ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3))
}

fn hash_of(name: &str, scale: f64, seed: u64) -> u64 {
    let spec = registry().into_iter().find(|s| s.name == name).expect("a registry dataset");
    fnv1a(&spec.generate_scaled(scale, seed))
}

fn check(name: &str, scale: f64, pins: &[(u64, u64)]) {
    for &(seed, want) in pins {
        let got = hash_of(name, scale, seed);
        assert_eq!(got, want, "{name} at scale {scale}, seed {seed}: {got:016x} != {want:016x}");
    }
}

#[test]
fn us_stock_sim_keeps_its_bits() {
    check("US-Stock-sim", 0.25, &[(1, 0x3609_303b_0582_1bd8), (91, 0x580f_11a2_d028_d470)]);
}

#[test]
fn kr_stock_sim_keeps_its_bits() {
    check("KR-Stock-sim", 0.25, &[(1, 0x1252_6b81_f81d_f662), (91, 0x7e5a_ce5d_0be8_eba7)]);
}

#[test]
#[ignore = "full-size generation; run in release with --ignored"]
fn full_size_us_stock_sim_keeps_its_bits() {
    check("US-Stock-sim", 1.0, &[(1, 0xab6f_7b69_aa53_073a), (91, 0x5d82_d33d_df93_27d5)]);
}
