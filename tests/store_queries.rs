//! Property-based tests (proptest) pinning the LSH-pruned similarity
//! query engine to its exhaustive reference.
//!
//! * A flat-strategy `all_pairs_with(0.0, ..)` must equal the
//!   `IndexStrategy::Exhaustive` one — same pairs, same
//!   `JointQuantities` bit for bit: at threshold 0 every pair must be
//!   reported, no banding can promise that recall, and the engine is
//!   required to degrade to the exhaustive candidate set.
//! * For *any* threshold, every pair the pruned sweep reports must
//!   appear in the exhaustive sweep with identical quantities — the LSH
//!   stage may only prune, never alter verification.
//! * `similar_keys_with(key, k, 0.0, ..)` must equal the brute-force
//!   top-k computed from per-pair `joint` calls (descending Jaccard,
//!   ties by ascending key), including tie-heavy stores with duplicated
//!   states.

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SketchStore};

/// The default operating point: flat index, exact verification.
fn flat() -> QueryOptions {
    QueryOptions::default()
}

/// The reference sweep: every pair.
fn exhaustive() -> QueryOptions {
    flat().index(IndexStrategy::Exhaustive)
}

/// Batches of elements: one store key per batch. Small domains produce
/// overlapping (sometimes identical) sets, so ties and high-similarity
/// pairs are common.
fn keyed_batches() -> impl Strategy<Value = Vec<Vec<u64>>> {
    vec(vec(0u64..400, 0..60), 0..10)
}

fn setsketch_store(shards: usize) -> SketchStore<SetSketch1> {
    let cfg = SetSketchConfig::new(64, 1.001, 20.0, (1 << 16) - 2).unwrap();
    SketchStore::builder(move || SetSketch1::new(cfg, 11))
        .shards(shards)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn pruned_all_pairs_at_threshold_zero_equals_exhaustive(
        batches in keyed_batches(),
        shards in 1usize..6,
    ) {
        let store = setsketch_store(shards);
        for (i, batch) in batches.iter().enumerate() {
            store.ingest(&format!("key-{i:02}"), batch);
        }
        let pruned = store.all_pairs_with(0.0, &flat()).expect("compatible by construction");
        let exhaustive = store
            .all_pairs_with(0.0, &exhaustive())
            .expect("compatible by construction");
        // Same pairs, same order, identical JointQuantities.
        prop_assert_eq!(pruned, exhaustive);
    }

    #[test]
    fn pruned_pairs_always_verify_identically(
        batches in keyed_batches(),
        threshold in 0.0f64..1.0,
    ) {
        let store = setsketch_store(4);
        for (i, batch) in batches.iter().enumerate() {
            store.ingest(&format!("key-{i:02}"), batch);
        }
        let pruned = store.all_pairs_with(threshold, &flat()).expect("compatible");
        let exhaustive = store.all_pairs_with(threshold, &exhaustive()).expect("compatible");
        for pair in &pruned {
            let reference = exhaustive
                .iter()
                .find(|p| p.left == pair.left && p.right == pair.right);
            prop_assert_eq!(
                Some(&pair.quantities),
                reference.map(|p| &p.quantities),
                "pair ({}, {}) diverged from the exhaustive sweep",
                pair.left,
                pair.right
            );
        }
    }

    #[test]
    fn top_k_matches_brute_force_with_ties(
        batches in keyed_batches(),
        k in 0usize..8,
    ) {
        let store = setsketch_store(4);
        for (i, batch) in batches.iter().enumerate() {
            store.ingest(&format!("key-{i:02}"), batch);
            // Every third key is duplicated under another name, making
            // exact Jaccard ties against any query commonplace.
            if i % 3 == 0 {
                store.ingest(&format!("dup-{i:02}"), batch);
            }
        }
        let keys = store.keys();
        let Some(query_key) = keys.first().cloned() else {
            // Empty store: no key to query.
            return Ok(());
        };

        // Threshold 0 forces the exhaustive candidate path, so the
        // result must be the *exact* top-k, ties included.
        let got = store
            .similar_keys_with(&query_key, k, 0.0, &flat())
            .expect("key exists");

        let mut expected: Vec<(String, sketch_store::JointQuantities)> = keys
            .iter()
            .filter(|key| **key != query_key)
            .map(|key| {
                let joint = store.joint(&query_key, key).expect("compatible");
                (key.clone(), joint)
            })
            .collect();
        expected.sort_by(|a, b| {
            b.1.jaccard
                .total_cmp(&a.1.jaccard)
                .then_with(|| a.0.cmp(&b.0))
        });
        expected.truncate(k);

        prop_assert_eq!(got.len(), expected.len());
        for (neighbor, (key, quantities)) in got.iter().zip(&expected) {
            prop_assert_eq!(&neighbor.key, key);
            prop_assert_eq!(&neighbor.quantities, quantities);
        }
    }
}
