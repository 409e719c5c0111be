//! Quickstart: counting, similarity and distributed merging with SetSketch.
//!
//! Run with `cargo run --release --example quickstart`.

use setsketch::{SetSketch1, SetSketchConfig};

fn main() {
    // The paper's §2.3 example configuration: 4096 two-byte registers
    // (8 kB), base b = 1.001, good for cardinalities up to 1e18 with
    // ~1.56 % standard error and MinHash-grade similarity estimation.
    let config = SetSketchConfig::example_16bit();
    println!(
        "config: m={} b={} q={} -> {} bytes packed, expected error {:.2}%",
        config.m(),
        config.b(),
        config.q(),
        config.packed_bytes(),
        config.cardinality_rsd() * 100.0
    );

    // Two shards of one logical stream; the same seed makes them mergeable.
    let mut shard_a = SetSketch1::new(config, 42);
    let mut shard_b = SetSketch1::new(config, 42);

    // Record 60k user ids on shard A and 60k on shard B with 20k overlap.
    for user in 0..60_000u64 {
        shard_a.insert_u64(user);
    }
    for user in 40_000..100_000u64 {
        shard_b.insert_u64(user);
    }

    // Cardinality per shard.
    println!(
        "shard A ~ {:.0} distinct (true 60000)",
        shard_a.estimate_cardinality()
    );
    println!(
        "shard B ~ {:.0} distinct (true 60000)",
        shard_b.estimate_cardinality()
    );

    // Joint quantities straight from the two sketch states.
    let joint = shard_a.estimate_joint(&shard_b).expect("same config");
    println!(
        "jaccard ~ {:.4} (true {:.4})",
        joint.jaccard,
        20_000.0 / 100_000.0
    );
    println!(
        "intersection ~ {:.0} (true 20000), union ~ {:.0} (true 100000)",
        joint.intersection, joint.union_size
    );

    // Distributed union: merge the shards.
    let global = shard_a.merged(&shard_b).expect("same config");
    println!(
        "global ~ {:.0} distinct (true 100000)",
        global.estimate_cardinality()
    );

    // Inserts are idempotent: replaying a shard changes nothing.
    let mut replayed = global.clone();
    for user in 0..60_000u64 {
        replayed.insert_u64(user);
    }
    assert_eq!(replayed, global);
    println!("replaying shard A left the merged state unchanged (idempotent)");
}
