//! Distributed aggregation pipeline with binary sketch shipping.
//!
//! A realistic deployment shape: worker shards consume partial streams,
//! periodically ship their *binary* sketch states to a coordinator, which
//! merges them and answers global queries. Demonstrates the compact codec
//! (paper §2.3 memory footprint), merge-from-bytes, and that estimation
//! quality is unaffected by the number of checkpoints or the sharding.
//!
//! Run with `cargo run --release --example streaming_shards`.

use setsketch::{SetSketch2, SetSketchConfig};
use sketch_rand::mix64;

/// One worker shard: records its slice of the stream and emits binary
/// checkpoints.
struct Shard {
    sketch: SetSketch2,
    recorded: u64,
}

impl Shard {
    fn new(config: SetSketchConfig) -> Self {
        Self {
            // All shards share seed 7 so the coordinator can merge them.
            sketch: SetSketch2::new(config, 7),
            recorded: 0,
        }
    }

    /// Consumes a batch of events and returns a binary checkpoint.
    fn consume_and_checkpoint(&mut self, events: impl Iterator<Item = u64>) -> Vec<u8> {
        for event in events {
            self.sketch.insert_u64(event);
            self.recorded += 1;
        }
        self.sketch.to_bytes()
    }
}

fn main() {
    let config = SetSketchConfig::example_16bit();
    const SHARDS: usize = 8;
    const ROUNDS: u64 = 5;
    const EVENTS_PER_ROUND: u64 = 20_000;

    let mut shards: Vec<Shard> = (0..SHARDS).map(|_| Shard::new(config)).collect();
    let mut coordinator = SetSketch2::new(config, 7);
    let mut shipped_bytes = 0usize;

    // Events are user ids; each id hashes to a home shard, but 30 % of
    // traffic is duplicated onto a random second shard (at-least-once
    // delivery) — idempotent inserts absorb the duplication.
    let mut true_users = std::collections::HashSet::new();
    for round in 0..ROUNDS {
        for (index, shard) in shards.iter_mut().enumerate() {
            let base = round * EVENTS_PER_ROUND;
            let events = (0..EVENTS_PER_ROUND).filter_map(|i| {
                let user = mix64(base + i) % 500_000;
                let home = (mix64(user) % SHARDS as u64) as usize;
                let duplicate = (mix64(user ^ 0xABCD) % 10 < 3)
                    && (mix64(user ^ 0x1234) % SHARDS as u64) as usize == index;
                (home == index || duplicate).then_some(user)
            });
            let checkpoint = shard.consume_and_checkpoint(events);
            shipped_bytes += checkpoint.len();
            // Coordinator merges the restored checkpoint.
            let restored = SetSketch2::from_bytes(&checkpoint).expect("valid checkpoint");
            coordinator.merge(&restored).expect("same config and seed");
        }
        for i in 0..EVENTS_PER_ROUND {
            true_users.insert(mix64(round * EVENTS_PER_ROUND + i) % 500_000);
        }
        println!(
            "round {round}: coordinator sees ~{:.0} distinct users (true {})",
            coordinator.estimate_cardinality(),
            true_users.len()
        );
    }

    let estimate = coordinator.estimate_cardinality();
    let truth = true_users.len() as f64;
    println!(
        "\nfinal: estimate {estimate:.0}, true {truth}, error {:+.2}%",
        (estimate - truth) / truth * 100.0
    );
    println!(
        "shipped {} checkpoints totalling {} kB ({} bytes per checkpoint)",
        SHARDS * ROUNDS as usize,
        shipped_bytes / 1024,
        config.packed_bytes() + 41,
    );
    assert!(((estimate - truth) / truth).abs() < 0.05);

    // Per-shard traffic overlap, a query only joint estimation answers.
    let a = &shards[0].sketch;
    let b = &shards[1].sketch;
    let joint = a.estimate_joint(b).expect("compatible");
    println!(
        "shard 0 vs shard 1: ~{:.0} users in common (duplicated traffic), jaccard {:.3}",
        joint.intersection, joint.jaccard
    );
}
