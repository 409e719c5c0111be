//! Database-style approximate distinct counting across partitions.
//!
//! The workload the paper's introduction motivates: a table is split over
//! many partitions; each partition maintains a small sketch of a column's
//! values, and `COUNT(DISTINCT ...)` queries over arbitrary partition
//! subsets are answered by merging sketches — no rescan of the data.
//!
//! The example contrasts two SetSketch configurations (HLL-like `b = 2`
//! and similarity-grade `b = 1.001`) and a classic HyperLogLog on the same
//! data, printing estimate quality and memory footprint.
//!
//! Run with `cargo run --release --example distinct_count`.

use hyperloglog::{GhllConfig, GhllSketch};
use setsketch::{SetSketch2, SetSketchConfig};
use sketch_rand::mix64;

/// Synthetic partition: `rows` values drawn from a key space of
/// `key_space` distinct keys (so partitions overlap realistically).
fn partition_values(partition: u64, rows: u64, key_space: u64) -> impl Iterator<Item = u64> {
    // Duplicate keys across rows and partitions are the point.
    (0..rows).map(move |i| mix64(partition.wrapping_mul(0x9e37).wrapping_add(i)) % key_space)
}

fn main() {
    const PARTITIONS: u64 = 16;
    const ROWS_PER_PARTITION: u64 = 50_000;
    const KEY_SPACE: u64 = 300_000;

    // Ground truth for the full table.
    let mut truth = std::collections::HashSet::new();
    for p in 0..PARTITIONS {
        truth.extend(partition_values(p, ROWS_PER_PARTITION, KEY_SPACE));
    }
    println!(
        "table: {PARTITIONS} partitions x {ROWS_PER_PARTITION} rows, true distinct = {}",
        truth.len()
    );

    // Configuration A: HLL-like SetSketch (b = 2, 6-bit registers).
    let compact = SetSketchConfig::new(4096, 2.0, 20.0, 62).expect("valid");
    // Configuration B: similarity-grade SetSketch (b = 1.001, 16-bit).
    let precise = SetSketchConfig::example_16bit();
    // Baseline: classic HyperLogLog with the same register count.
    let hll_cfg = GhllConfig::hyperloglog(4096).expect("valid");

    let mut compact_shards: Vec<SetSketch2> = Vec::new();
    let mut precise_shards: Vec<SetSketch2> = Vec::new();
    let mut hll_shards: Vec<GhllSketch> = Vec::new();
    for p in 0..PARTITIONS {
        let mut c = SetSketch2::new(compact, 7);
        let mut f = SetSketch2::new(precise, 7);
        let mut h = GhllSketch::new(hll_cfg, 7);
        for value in partition_values(p, ROWS_PER_PARTITION, KEY_SPACE) {
            c.insert_u64(value);
            f.insert_u64(value);
            h.insert_u64(value);
        }
        compact_shards.push(c);
        precise_shards.push(f);
        hll_shards.push(h);
    }

    // Merge all partitions (any subset works the same way).
    let compact_all = compact_shards
        .iter()
        .skip(1)
        .fold(compact_shards[0].clone(), |acc, s| {
            acc.merged(s).expect("same config")
        });
    let precise_all = precise_shards
        .iter()
        .skip(1)
        .fold(precise_shards[0].clone(), |acc, s| {
            acc.merged(s).expect("same config")
        });
    let hll_all = hll_shards
        .iter()
        .skip(1)
        .fold(hll_shards[0].clone(), |acc, s| {
            acc.merged(s).expect("same config")
        });

    let truth_n = truth.len() as f64;
    let report = |label: &str, estimate: f64, bytes: usize| {
        println!(
            "{label:<26} estimate {estimate:>9.0}  error {:>6.2}%  sketch {bytes} bytes/partition",
            (estimate - truth_n) / truth_n * 100.0
        );
    };
    report(
        "SetSketch b=2 (6-bit)",
        compact_all.estimate_cardinality(),
        compact.packed_bytes(),
    );
    report(
        "SetSketch b=1.001 (16-bit)",
        precise_all.estimate_cardinality(),
        precise.packed_bytes(),
    );
    report(
        "HyperLogLog (6-bit)",
        hll_all.estimate_cardinality(),
        (4096usize * 6).div_ceil(8),
    );

    // Partition-subset query: distinct keys in partitions 0..4.
    let mut subset_truth = std::collections::HashSet::new();
    for p in 0..4 {
        subset_truth.extend(partition_values(p, ROWS_PER_PARTITION, KEY_SPACE));
    }
    let subset = precise_shards[..4]
        .iter()
        .skip(1)
        .fold(precise_shards[0].clone(), |acc, s| {
            acc.merged(s).expect("same config")
        });
    println!(
        "partitions 0..4: estimate {:.0}, true {}",
        subset.estimate_cardinality(),
        subset_truth.len()
    );

    // Bonus unique to SetSketch with small b: how similar are two
    // partitions' key sets?
    let joint = precise_shards[0]
        .estimate_joint(&precise_shards[1])
        .expect("same config");
    println!(
        "partition 0 vs 1: jaccard ~ {:.3}, shared keys ~ {:.0}",
        joint.jaccard, joint.intersection
    );
}
