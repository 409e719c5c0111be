//! Integration tests of the clustered ANN index: equivalence against
//! the flat engine and the exhaustive reference, cutover hysteresis,
//! incremental maintenance, budget accounting, diagnostics, and the
//! index cache.
//!
//! The central contracts:
//!
//! * at threshold `0.0` a clustered sweep is **bit-for-bit** equal to
//!   an [`IndexStrategy::Exhaustive`] sweep (no banding tunes there, so
//!   both strategies fall to the identical exhaustive path);
//! * at any threshold, every pair a clustered sweep reports also
//!   appears in the exhaustive sweep **with identical quantities** —
//!   pruning may only remove pairs, never change a survivor's verified
//!   numbers;
//! * both hold across arbitrary interleavings of ingest, remove and
//!   sweep (the proptest op-script driver).

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SimilarPair, SketchStore, DEFAULT_FLAT_CUTOVER};

/// Fine register scale (b = 1.001): register collision probability ≈ J,
/// so banding tunes sharply (paper §3.3, Figure 3 right panel).
fn config() -> SetSketchConfig {
    SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).unwrap()
}

fn build_store(shards: usize) -> SketchStore<SetSketch1> {
    let cfg = config();
    SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(shards)
        .build()
}

fn elements(start: u64, count: u64) -> Vec<u64> {
    (start..start + count).collect()
}

/// Clustered strategy with the flat cutover disabled, so even tiny test
/// stores exercise the clustered machinery.
fn clustered_now() -> IndexStrategy {
    IndexStrategy::Clustered {
        memory_budget_bytes: None,
        recall_target: 0.95,
        clusters: None,
        flat_cutover: 0,
    }
}

/// Three similarity groups plus background noise — enough structure for
/// k-center to separate and per-cluster tuning to differ.
fn grouped_store() -> SketchStore<SetSketch1> {
    let store = build_store(8);
    store.ingest("alpha-1", &elements(0, 3000));
    store.ingest("alpha-2", &elements(500, 3000));
    store.ingest("alpha-3", &elements(100, 3000));
    store.ingest("beta-1", &elements(1_000_000, 3000));
    store.ingest("beta-2", &elements(1_000_100, 3000));
    store.ingest("noise-1", &elements(5_000_000, 3000));
    store.ingest("noise-2", &elements(9_000_000, 3000));
    store
}

/// Every clustered-sweep pair must appear in the exhaustive sweep with
/// identical quantities (the pruned path may only *miss* pairs).
fn assert_subset_with_identical_quantities(pruned: &[SimilarPair], exhaustive: &[SimilarPair]) {
    for pair in pruned {
        let reference = exhaustive
            .iter()
            .find(|p| p.left == pair.left && p.right == pair.right)
            .unwrap_or_else(|| {
                panic!(
                    "({}, {}) not in the exhaustive sweep",
                    pair.left, pair.right
                )
            });
        assert_eq!(
            pair.quantities, reference.quantities,
            "({}, {}) verified differently under the clustered path",
            pair.left, pair.right
        );
    }
}

#[test]
fn clustered_sweep_at_zero_is_bitwise_equal_to_exhaustive() {
    let store = grouped_store();
    let options = QueryOptions::default().index(clustered_now());
    let clustered = store.all_pairs_with(0.0, &options).unwrap();
    let exhaustive = store
        .all_pairs_with(
            0.0,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .unwrap();
    assert_eq!(clustered, exhaustive);
    assert_eq!(clustered.len(), 7 * 6 / 2);
}

#[test]
fn clustered_sweep_finds_the_similar_pairs() {
    let store = grouped_store();
    let options = QueryOptions::default().index(clustered_now());
    let clustered = store.all_pairs_with(0.4, &options).unwrap();
    let exhaustive = store
        .all_pairs_with(
            0.4,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .unwrap();

    let pair_keys: Vec<(&str, &str)> = clustered
        .iter()
        .map(|p| (p.left.as_str(), p.right.as_str()))
        .collect();
    assert!(pair_keys.contains(&("alpha-1", "alpha-2")), "{pair_keys:?}");
    assert!(pair_keys.contains(&("beta-1", "beta-2")), "{pair_keys:?}");
    assert!(!pair_keys
        .iter()
        .any(|(a, b)| a.starts_with("noise") && b.starts_with("noise")));
    assert_subset_with_identical_quantities(&clustered, &exhaustive);

    // Canonical output: left < right, sorted, deduplicated.
    assert!(clustered.iter().all(|p| p.left < p.right));
    let mut sorted = pair_keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(pair_keys, sorted);
}

#[test]
fn clustered_topk_matches_the_flat_engine() {
    let store = grouped_store();
    let clustered = store
        .similar_keys_with(
            "alpha-1",
            3,
            0.4,
            &QueryOptions::default().index(clustered_now()),
        )
        .unwrap();
    let flat = store
        .similar_keys_with("alpha-1", 3, 0.4, &QueryOptions::default())
        .unwrap();
    // The near-duplicates dominate both rankings with exact-identical
    // quantities (verification is shared; only candidate routing
    // differs).
    assert_eq!(clustered[0].key, flat[0].key);
    assert_eq!(clustered[0].quantities, flat[0].quantities);
    let clustered_keys: Vec<&str> = clustered.iter().map(|n| n.key.as_str()).collect();
    assert!(clustered_keys.contains(&"alpha-2"));
    assert!(clustered_keys.contains(&"alpha-3"));
}

#[test]
fn clustered_info_reports_histogram_layouts_and_probes() {
    let store = grouped_store();
    let options = QueryOptions::default().index(clustered_now());
    let _ = store.all_pairs_with(0.5, &options).unwrap();
    let info = store.similarity_index_info().expect("state exists");
    assert_eq!(info.threshold, 0.5);
    // Clustered states report per-cluster layouts, not a global one.
    assert_eq!(info.banding, None);
    assert_eq!(info.indexed_keys, 7);
    let clustered = info.clustered.expect("clustered backend");
    assert!(clustered.clusters >= 2, "{clustered:?}");
    assert_eq!(clustered.key_histogram.len(), clustered.clusters);
    assert_eq!(clustered.key_histogram.iter().sum::<usize>(), 7);
    assert_eq!(clustered.bandings.len(), clustered.clusters);
    assert_eq!(clustered.planned_recalls.len(), clustered.clusters);
    assert!(clustered
        .bandings
        .iter()
        .all(|b| b.bands >= 1 && b.rows >= 1 && b.registers() <= 256));
    assert_eq!(clustered.probe_stats.sweeps, 1);

    let _ = store.similar_keys_with("beta-1", 2, 0.5, &options).unwrap();
    let probe_stats = store
        .similarity_index_info()
        .unwrap()
        .clustered
        .unwrap()
        .probe_stats;
    assert_eq!(probe_stats.topk_queries, 1);
    assert!(probe_stats.clusters_probed >= 1);
    // Routing probed a strict subset of the store for the top-k query.
    assert!(probe_stats.clusters_probed < 7);
}

#[test]
fn flat_cutover_promotes_and_demotes_with_hysteresis() {
    let store = build_store(4);
    let options = QueryOptions::default().index(IndexStrategy::Clustered {
        memory_budget_bytes: None,
        recall_target: 0.95,
        clusters: None,
        flat_cutover: 8,
    });
    for key in 0..6u64 {
        store.ingest(&format!("k{key}"), &elements(key * 10_000, 500));
    }
    // Below the cutover: the strategy answers from the flat backend.
    let _ = store.all_pairs_with(0.5, &options).unwrap();
    let info = store.similarity_index_info().unwrap();
    assert!(info.clustered.is_none());
    assert!(info.banding.is_some(), "flat backend stays tuned");

    // Past the cutover: promoted to the clustered backend.
    for key in 6..12u64 {
        store.ingest(&format!("k{key}"), &elements(key * 10_000, 500));
    }
    let _ = store.all_pairs_with(0.5, &options).unwrap();
    assert!(store.similarity_index_info().unwrap().clustered.is_some());

    // Shrinking to half the cutover does NOT demote yet — hysteresis,
    // so a store hovering at the cutover never alternates backends.
    for key in 4..12u64 {
        store.remove(&format!("k{key}"));
    }
    let _ = store.all_pairs_with(0.5, &options).unwrap();
    assert!(store.similarity_index_info().unwrap().clustered.is_some());

    // Strictly below half: demoted back to the flat backend.
    store.remove("k3");
    let _ = store.all_pairs_with(0.5, &options).unwrap();
    assert!(store.similarity_index_info().unwrap().clustered.is_none());
}

#[test]
fn clustered_index_follows_ingest_and_removals() {
    let store = grouped_store();
    let options = QueryOptions::default().index(clustered_now());
    let _ = store.all_pairs_with(0.5, &options).unwrap();

    // A new near-duplicate appears after the state is built: only the
    // moved key re-bands, and the next sweep reports it.
    store.ingest("alpha-4", &elements(200, 3000));
    let pairs = store.all_pairs_with(0.5, &options).unwrap();
    assert!(pairs
        .iter()
        .any(|p| p.left == "alpha-1" && p.right == "alpha-4"));
    assert_eq!(store.similarity_index_info().unwrap().indexed_keys, 8);

    // Removal: the key leaves the index and its pairs disappear.
    store.remove("alpha-4");
    let pairs = store.all_pairs_with(0.5, &options).unwrap();
    assert!(!pairs.iter().any(|p| p.right == "alpha-4"));
    assert_eq!(store.similarity_index_info().unwrap().indexed_keys, 7);

    // The sweeps above stayed equivalent throughout.
    let exhaustive = store
        .all_pairs_with(
            0.5,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .unwrap();
    assert_subset_with_identical_quantities(&pairs, &exhaustive);
}

#[test]
fn memory_budget_shrinks_layouts_and_keeps_zero_threshold_equivalence() {
    let store = grouped_store();
    let unbudgeted = QueryOptions::default().index(clustered_now());
    let _ = store.all_pairs_with(0.5, &unbudgeted).unwrap();
    let free = store.similarity_index_info().unwrap().clustered.unwrap();
    let free_bands: usize = free
        .bandings
        .iter()
        .zip(&free.key_histogram)
        .map(|(b, keys)| b.bands * keys)
        .sum();

    let budget = free_bands * lsh::BAND_ENTRY_BYTES / 3;
    let budgeted = QueryOptions::default().index(IndexStrategy::Clustered {
        memory_budget_bytes: Some(budget),
        recall_target: 0.95,
        clusters: None,
        flat_cutover: 0,
    });
    let _ = store.all_pairs_with(0.5, &budgeted).unwrap();
    let tight = store.similarity_index_info().unwrap().clustered.unwrap();
    let tight_cost: usize = tight
        .bandings
        .iter()
        .zip(&tight.key_histogram)
        .map(|(b, keys)| b.bands * keys * lsh::BAND_ENTRY_BYTES)
        .sum();
    assert!(
        tight_cost <= budget,
        "modeled cost {tight_cost} exceeds budget {budget}"
    );
    // Degraded recall is reported, not hidden.
    assert!(tight
        .planned_recalls
        .iter()
        .zip(&free.planned_recalls)
        .all(|(t, f)| t <= f));

    // Budget pressure never touches the threshold-0 contract.
    let clustered = store.all_pairs_with(0.0, &budgeted).unwrap();
    assert_eq!(
        clustered,
        store
            .all_pairs_with(
                0.0,
                &QueryOptions::default().index(IndexStrategy::Exhaustive)
            )
            .unwrap()
    );
}

#[test]
fn near_identical_recall_targets_share_one_cached_state() {
    let store = grouped_store();
    // Alternating routing recall targets that differ only past display
    // precision must hit one cached state, not re-tune per query
    // (regression: the cache used exact f64 equality).
    let routed = |recall_target| {
        QueryOptions::default().index(IndexStrategy::Clustered {
            memory_budget_bytes: None,
            recall_target,
            clusters: None,
            flat_cutover: DEFAULT_FLAT_CUTOVER,
        })
    };
    for _ in 0..3 {
        let _ = store.all_pairs_with(0.5, &routed(0.95)).unwrap();
        let _ = store.all_pairs_with(0.5, &routed(0.950_000_1)).unwrap();
    }
    let info = store.similarity_index_info().unwrap();
    assert_eq!(info.cache_misses, 1, "{info:?}");
    assert_eq!(info.cache_hits, 5, "{info:?}");
}

#[test]
fn index_cache_holds_four_operating_points() {
    let store = build_store(4);
    store.ingest("a", &elements(0, 1000));
    store.ingest("b", &elements(100, 1000));
    // Two operating points coexist: alternating never re-tunes.
    for _ in 0..2 {
        let _ = store.all_pairs_with(0.5, &QueryOptions::default()).unwrap();
        let _ = store.all_pairs_with(0.7, &QueryOptions::default()).unwrap();
    }
    let info = store.similarity_index_info().unwrap();
    assert_eq!((info.cache_misses, info.cache_hits), (2, 2), "{info:?}");

    // The cache is bounded: three more points push 0.5 (the least
    // recently used) out, so coming back to it tunes afresh; 0.9 — the
    // most recent — is still there.
    for threshold in [0.6, 0.8, 0.9, 0.5, 0.9] {
        let _ = store
            .all_pairs_with(threshold, &QueryOptions::default())
            .unwrap();
    }
    let info = store.similarity_index_info().unwrap();
    assert_eq!((info.cache_misses, info.cache_hits), (6, 3), "{info:?}");
}

#[test]
#[should_panic(expected = "routing recall target")]
fn bad_clustered_recall_target_is_rejected() {
    let store = build_store(2);
    store.ingest("a", &elements(0, 100));
    let options = QueryOptions::default().index(IndexStrategy::Clustered {
        memory_budget_bytes: None,
        recall_target: 0.0,
        clusters: None,
        flat_cutover: 0,
    });
    let _ = store.all_pairs_with(0.5, &options);
}

// ---------------------------------------------------------------------
// Proptest op-script driver: arbitrary interleavings of ingest, remove
// and sweep must keep the clustered path equivalent to the references.
// ---------------------------------------------------------------------

/// One step of an interleaved index workload over an 8-key space.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest `len` consecutive elements starting at `start` into key
    /// number `key` (keys re-use overlapping ranges, so similarity
    /// structure emerges and shifts as the script runs).
    Ingest { key: usize, start: u64, len: u64 },
    /// Remove key number `key` (no-op when absent).
    Remove { key: usize },
    /// Sweep at threshold 0.0 and assert bitwise equality with the
    /// exhaustive reference.
    SweepZero,
    /// Sweep at threshold 0.5 and assert every reported pair verifies
    /// identically to the exhaustive reference (and to the flat path).
    SweepHalf,
}

fn decode_op((kind, key, start, len): (u8, usize, u64, u64)) -> Op {
    match kind {
        0..=3 => Op::Ingest {
            key,
            // Three overlapping neighborhoods, so some keys cluster.
            start: (start % 3) * 2_000 + start,
            len,
        },
        4 => Op::Remove { key },
        5 => Op::SweepZero,
        _ => Op::SweepHalf,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..7, 0usize..8, 0u64..5_000, 100u64..1_500), 1..20)
        .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

fn drive(ops: &[Op], flat_cutover: usize) -> Result<(), TestCaseError> {
    let store = build_store(4);
    let clustered_options = QueryOptions::default().index(IndexStrategy::Clustered {
        memory_budget_bytes: None,
        recall_target: 0.95,
        clusters: None,
        flat_cutover,
    });
    for op in ops {
        match op {
            Op::Ingest { key, start, len } => {
                store.ingest(&format!("k{key}"), &elements(*start, *len));
            }
            Op::Remove { key } => {
                store.remove(&format!("k{key}"));
            }
            Op::SweepZero => {
                let clustered = store
                    .all_pairs_with(0.0, &clustered_options)
                    .expect("sweep");
                let exhaustive = store
                    .all_pairs_with(
                        0.0,
                        &QueryOptions::default().index(IndexStrategy::Exhaustive),
                    )
                    .expect("sweep");
                prop_assert_eq!(clustered, exhaustive);
            }
            Op::SweepHalf => {
                let clustered = store
                    .all_pairs_with(0.5, &clustered_options)
                    .expect("sweep");
                let exhaustive = store
                    .all_pairs_with(
                        0.5,
                        &QueryOptions::default().index(IndexStrategy::Exhaustive),
                    )
                    .expect("sweep");
                for pair in &clustered {
                    let reference = exhaustive
                        .iter()
                        .find(|p| p.left == pair.left && p.right == pair.right);
                    prop_assert!(
                        reference.is_some_and(|p| p.quantities == pair.quantities),
                        "({}, {}) missing or diverged in the exhaustive sweep",
                        pair.left,
                        pair.right
                    );
                }
            }
        }
    }
    // Final states agree regardless of what the script did.
    let clustered = store
        .all_pairs_with(0.0, &clustered_options)
        .expect("sweep");
    let exhaustive = store
        .all_pairs_with(
            0.0,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .expect("sweep");
    prop_assert_eq!(clustered, exhaustive);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clustered_matches_references_under_op_scripts(ops in ops_strategy()) {
        drive(&ops, 0)?;
    }

    #[test]
    fn cutover_hopping_matches_references_under_op_scripts(ops in ops_strategy()) {
        // A cutover inside the script's population range, so scripts
        // cross it in both directions mid-run.
        drive(&ops, 5)?;
    }
}
