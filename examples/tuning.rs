//! Filling the gap: sweeping the base b between HyperLogLog and MinHash.
//!
//! SetSketch's base parameter continuously trades memory (larger b needs
//! fewer register bits) against joint-estimation accuracy (smaller b
//! approaches MinHash). This example records the same pair of sets at
//! several bases and prints, per base: packed sketch size, cardinality
//! error, and Jaccard estimation error — the "gap" between HLL and
//! MinHash made visible (paper §1.1, §2.3, Figure 2).
//!
//! Run with `cargo run --release --example tuning`.

use minhash::MinHash;
use setsketch::{SetSketch1, SetSketchConfig};

fn main() {
    const N: u64 = 50_000;
    const OVERLAP: u64 = 25_000; // J = 1/3
    let true_jaccard = OVERLAP as f64 / (2 * N - OVERLAP) as f64;
    let runs = 15u64;

    println!("true jaccard = {true_jaccard:.4}, m = 4096 registers everywhere\n");
    println!(
        "{:<22} {:>12} {:>14} {:>14}",
        "configuration", "bytes", "card. RMSE", "jaccard RMSE"
    );

    // Sweep bases from HLL-like to MinHash-like; q chosen per Lemma 5 for
    // n_max = 1e12.
    for &b in &[2.0f64, 1.2, 1.05, 1.02, 1.001] {
        let config =
            SetSketchConfig::recommended(4096, b, 1e12, 1e-6).expect("valid configuration");
        let (mut card_se, mut jac_se) = (0.0f64, 0.0f64);
        for seed in 0..runs {
            let offset = seed * 1_000_000_000;
            let mut u = SetSketch1::new(config, seed);
            let mut v = SetSketch1::new(config, seed);
            u.extend(offset..offset + N);
            v.extend(offset + N - OVERLAP..offset + 2 * N - OVERLAP);
            let joint = u.estimate_joint(&v).expect("compatible");
            card_se += ((u.estimate_cardinality() - N as f64) / N as f64).powi(2);
            jac_se += ((joint.jaccard - true_jaccard) / true_jaccard).powi(2);
        }
        println!(
            "SetSketch b={b:<10} {:>12} {:>13.2}% {:>13.2}%",
            config.packed_bytes(),
            (card_se / runs as f64).sqrt() * 100.0,
            (jac_se / runs as f64).sqrt() * 100.0,
        );
    }

    // MinHash reference: same m, 8-byte components.
    let (mut card_se, mut jac_se) = (0.0f64, 0.0f64);
    for seed in 0..runs {
        let offset = seed * 1_000_000_000;
        let mut u = MinHash::new(4096, seed);
        let mut v = MinHash::new(4096, seed);
        u.extend(offset..offset + N);
        v.extend(offset + N - OVERLAP..offset + 2 * N - OVERLAP);
        let joint = u.estimate_joint(&v).expect("compatible");
        card_se += ((u.estimate_cardinality() - N as f64) / N as f64).powi(2);
        jac_se += ((joint.jaccard - true_jaccard) / true_jaccard).powi(2);
    }
    println!(
        "{:<22} {:>12} {:>13.2}% {:>13.2}%",
        "MinHash (64-bit)",
        4096 * 8,
        (card_se / runs as f64).sqrt() * 100.0,
        (jac_se / runs as f64).sqrt() * 100.0,
    );

    println!(
        "\nb -> 1 approaches MinHash's similarity accuracy at 1/4 of its size;\n\
         b = 2 matches HyperLogLog's footprint (6-bit registers)."
    );
}
