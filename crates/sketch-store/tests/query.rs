//! Integration tests of the similarity query engine behind its two
//! entry points.

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SketchStore, StoreError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The default operating point: the flat index.
fn flat() -> QueryOptions {
    QueryOptions::default()
}

/// The reference sweep: every key, every pair.
fn exhaustive() -> QueryOptions {
    flat().index(IndexStrategy::Exhaustive)
}

/// Fine register scale (b = 1.001): register collision probability ≈ J,
/// so banding tunes sharply (paper §3.3, Figure 3 right panel).
fn config() -> SetSketchConfig {
    SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).unwrap()
}

fn store_with_shards(shards: usize) -> SketchStore<SetSketch1> {
    let cfg = config();
    SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(shards)
        .build()
}

/// `count` elements of a deterministic stream starting at `start`.
fn elements(start: u64, count: u64) -> Vec<u64> {
    (start..start + count).collect()
}

/// A store with two similar clusters and background keys.
fn clustered_store() -> SketchStore<SetSketch1> {
    let store = store_with_shards(8);
    // Cluster 1: ~2/3 Jaccard overlap.
    store.ingest("alpha-1", &elements(0, 3000));
    store.ingest("alpha-2", &elements(500, 3000));
    // Cluster 2: near-duplicates.
    store.ingest("beta-1", &elements(1_000_000, 3000));
    store.ingest("beta-2", &elements(1_000_100, 3000));
    // Unrelated background.
    store.ingest("noise-1", &elements(5_000_000, 3000));
    store.ingest("noise-2", &elements(9_000_000, 3000));
    store
}

#[test]
fn pruned_sweep_finds_similar_pairs_with_exact_quantities() {
    let store = clustered_store();
    let pruned = store.all_pairs_with(0.4, &flat()).unwrap();
    let exhaustive = store.all_pairs_with(0.4, &exhaustive()).unwrap();

    let pair_keys: Vec<(&str, &str)> = pruned
        .iter()
        .map(|p| (p.left.as_str(), p.right.as_str()))
        .collect();
    assert!(pair_keys.contains(&("alpha-1", "alpha-2")), "{pair_keys:?}");
    assert!(pair_keys.contains(&("beta-1", "beta-2")), "{pair_keys:?}");
    assert!(!pair_keys
        .iter()
        .any(|(a, b)| a.starts_with("noise") && b.starts_with("noise")));

    // Every reported pair carries exactly the quantities the exhaustive
    // sweep computes (verification always runs the exact kernel).
    for pair in &pruned {
        let reference = exhaustive
            .iter()
            .find(|p| p.left == pair.left && p.right == pair.right)
            .expect("pruned pair must exist in the exhaustive sweep");
        assert_eq!(pair.quantities, reference.quantities);
        // ... and matches the store's one-pair query on the same states.
        let joint = store.joint(&pair.left, &pair.right).unwrap();
        assert_eq!(pair.quantities, joint);
    }

    // Output is canonical: left < right, sorted, no duplicates.
    assert!(pruned.iter().all(|p| p.left < p.right));
    let mut sorted = pair_keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(pair_keys, sorted);
}

#[test]
fn threshold_zero_falls_back_to_exhaustive_and_matches_exactly() {
    let store = clustered_store();
    let pruned = store.all_pairs_with(0.0, &flat()).unwrap();
    let exhaustive = store.all_pairs_with(0.0, &exhaustive()).unwrap();
    assert_eq!(pruned, exhaustive);
    assert_eq!(pruned.len(), 6 * 5 / 2, "threshold 0 reports every pair");
    // No banding reaches the recall target at threshold 0.
    let info = store.similarity_index_info().expect("index state exists");
    assert_eq!(info.banding, None);
    assert_eq!(
        (info.cache_hits, info.cache_misses),
        (0, 1),
        "the exhaustive strategy builds and caches no index state"
    );
}

#[test]
fn index_is_tuned_and_reused_across_queries() {
    let store = clustered_store();
    let first = store.all_pairs_with(0.5, &flat()).unwrap();
    let info = store.similarity_index_info().expect("index built");
    assert_eq!(info.threshold, 0.5);
    let banding = info.banding.expect("threshold 0.5 is tunable at b=1.001");
    assert!(banding.rows >= 2, "{banding:?}");
    assert!(banding.registers() <= 256);
    assert_eq!(info.indexed_keys, 6);

    // A same-threshold query keeps the tuned index (no rebuild).
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), first);
    let info = store.similarity_index_info().unwrap();
    assert_eq!(info.banding, Some(banding));
    assert_eq!((info.cache_hits, info.cache_misses), (1, 1));
}

#[test]
fn index_follows_ingest_updates_and_removals() {
    let store = clustered_store();
    let _ = store.all_pairs_with(0.5, &flat()).unwrap();

    // A new near-duplicate of alpha-1 appears after the index is built:
    // only the changed key gets re-banded, and the sweep sees it.
    store.ingest("alpha-3", &elements(100, 3000));
    let pairs = store.all_pairs_with(0.5, &flat()).unwrap();
    assert!(pairs
        .iter()
        .any(|p| p.left == "alpha-1" && p.right == "alpha-3"));
    assert_eq!(store.similarity_index_info().unwrap().indexed_keys, 7);

    // Removing a key drops it from the index and from results.
    store.remove("alpha-3");
    let pairs = store.all_pairs_with(0.5, &flat()).unwrap();
    assert!(!pairs
        .iter()
        .any(|p| p.left == "alpha-3" || p.right == "alpha-3"));
    assert_eq!(store.similarity_index_info().unwrap().indexed_keys, 6);
}

#[test]
fn reingested_key_after_remove_is_reindexed() {
    // Regression test: version stamps are store-global, so a key that
    // is removed and later re-created under new content must not be
    // mistaken for its already-indexed former self.
    let store = store_with_shards(4);
    store.ingest("x", &elements(0, 3000));
    store.ingest("k", &elements(5_000_000, 3000)); // unrelated to x
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), vec![]);

    store.remove("k");
    store.ingest("k", &elements(100, 3000)); // now a near-duplicate of x
    let pairs = store.all_pairs_with(0.5, &flat()).unwrap();
    assert!(
        pairs.iter().any(|p| p.left == "k" && p.right == "x"),
        "re-ingested key must be re-banded, got {pairs:?}"
    );

    // Same through put(): replacing the state re-bands it.
    let fresh = store_with_shards(4).get("nope").is_none();
    assert!(fresh);
    let unrelated = {
        let cfg = config();
        let mut s = setsketch::SetSketch1::new(cfg, 42);
        s.extend(9_000_000..9_003_000);
        s
    };
    store.put("k", unrelated);
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), vec![]);
}

#[test]
fn alternating_thresholds_reuse_cached_indexes() {
    let store = clustered_store();
    let first = store.all_pairs_with(0.5, &flat()).unwrap();
    let other = store.all_pairs_with(0.7, &flat()).unwrap();
    // Back to the first threshold: the cached state answers (and stays
    // correct after more ingest).
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), first);
    assert_eq!(store.similarity_index_info().unwrap().threshold, 0.5);
    store.ingest("alpha-3", &elements(100, 3000));
    assert!(store
        .all_pairs_with(0.5, &flat())
        .unwrap()
        .iter()
        .any(|p| p.right == "alpha-3"));
    assert_eq!(store.all_pairs_with(0.7, &flat()).unwrap().len(), {
        let reference = store.all_pairs_with(0.7, &exhaustive()).unwrap();
        assert!(reference.len() >= other.len());
        reference.len()
    });
}

#[test]
fn index_cache_holds_four_operating_points() {
    let store = store_with_shards(4);
    store.ingest("a", &elements(0, 1000));
    store.ingest("b", &elements(100, 1000));
    // Two operating points coexist: alternating never re-tunes.
    for _ in 0..2 {
        let _ = store.all_pairs_with(0.5, &flat()).unwrap();
        let _ = store.all_pairs_with(0.7, &flat()).unwrap();
    }
    let info = store.similarity_index_info().unwrap();
    assert_eq!((info.cache_misses, info.cache_hits), (2, 2), "{info:?}");

    // The cache is bounded: three more points push 0.5 (the least
    // recently used) out, so coming back to it tunes afresh; 0.9 — the
    // most recent — is still there.
    for threshold in [0.6, 0.8, 0.9, 0.5, 0.9] {
        let _ = store.all_pairs_with(threshold, &flat()).unwrap();
    }
    let info = store.similarity_index_info().unwrap();
    assert_eq!((info.cache_misses, info.cache_hits), (6, 3), "{info:?}");
}

#[test]
fn similar_keys_ranks_by_jaccard() {
    let store = clustered_store();
    let neighbors = store.similar_keys_with("alpha-1", 2, 0.5, &flat()).unwrap();
    assert_eq!(neighbors.len(), 2);
    assert_eq!(neighbors[0].key, "alpha-2");
    assert!(neighbors[0].quantities.jaccard > neighbors[1].quantities.jaccard);
    // The quantities match the store's pairwise query, query side first.
    assert_eq!(
        neighbors[0].quantities,
        store.joint("alpha-1", "alpha-2").unwrap()
    );
}

#[test]
fn similar_keys_breaks_ties_by_key() {
    let store = store_with_shards(4);
    store.ingest("query", &elements(0, 2000));
    // Two identical sketches: equal Jaccard against the query.
    store.ingest("twin-b", &elements(500, 2000));
    store.ingest("twin-a", &elements(500, 2000));
    let neighbors = store.similar_keys_with("query", 2, 0.5, &flat()).unwrap();
    assert_eq!(neighbors.len(), 2);
    assert_eq!(neighbors[0].key, "twin-a", "ties break by ascending key");
    assert_eq!(neighbors[1].key, "twin-b");
    assert_eq!(neighbors[0].quantities, neighbors[1].quantities);
}

#[test]
fn similar_keys_edge_cases() {
    let store = store_with_shards(4);
    // Empty store: the query key does not exist.
    assert!(matches!(
        store.similar_keys_with("missing", 3, 0.5, &flat()),
        Err(StoreError::KeyNotFound(_))
    ));
    // Single-key store: no neighbors.
    store.ingest("only", &elements(0, 1000));
    assert_eq!(
        store.similar_keys_with("only", 5, 0.5, &flat()).unwrap(),
        vec![]
    );
    // k = 0: empty result.
    store.ingest("other", &elements(100, 1000));
    assert_eq!(
        store.similar_keys_with("only", 0, 0.5, &flat()).unwrap(),
        vec![]
    );
    // k larger than the store: every other key, ranked.
    let neighbors = store.similar_keys_with("only", 10, 0.5, &flat()).unwrap();
    assert_eq!(neighbors.len(), 1);
    assert_eq!(neighbors[0].key, "other");
    // The exhaustive strategy answers the same edge cases.
    assert_eq!(
        store
            .similar_keys_with("only", 10, 0.5, &exhaustive())
            .unwrap(),
        neighbors
    );
    assert!(matches!(
        store.similar_keys_with("missing", 3, 0.5, &exhaustive()),
        Err(StoreError::KeyNotFound(_))
    ));
    assert_eq!(
        store
            .similar_keys_with("only", 0, 0.5, &exhaustive())
            .unwrap(),
        vec![]
    );
    // k = usize::MAX (a node passes a wire `u32` on unchecked): every
    // other key, ranked, under both strategies.
    store.ingest("third", &elements(500, 1000));
    for options in [flat(), exhaustive()] {
        let every = store
            .similar_keys_with("only", usize::MAX, 0.5, &options)
            .unwrap();
        let keys: Vec<&str> = every.iter().map(|n| n.key.as_str()).collect();
        assert_eq!(keys, ["other", "third"], "{options:?}");
        for neighbor in &every {
            assert_eq!(
                neighbor.quantities,
                store.joint("only", &neighbor.key).unwrap()
            );
        }
    }
}

#[test]
fn empty_store_sweeps_are_empty() {
    let store = store_with_shards(4);
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), vec![]);
    assert_eq!(store.all_pairs_with(0.5, &exhaustive()).unwrap(), vec![]);
    store.ingest("solo", &elements(0, 100));
    assert_eq!(store.all_pairs_with(0.5, &flat()).unwrap(), vec![]);
}

#[test]
fn keys_order_is_sorted_for_any_shard_count() {
    for shards in [1, 3, 16] {
        let store = store_with_shards(shards);
        for key in ["zeta", "alpha", "mid", "beta", "omega"] {
            store.ingest(key, &elements(0, 50));
        }
        let keys = store.keys();
        assert_eq!(keys, vec!["alpha", "beta", "mid", "omega", "zeta"]);
    }
}

#[test]
#[should_panic(expected = "similarity threshold")]
fn rejects_out_of_range_threshold() {
    let store = clustered_store();
    let _ = store.all_pairs_with(1.5, &flat());
}

// ---------------------------------------------------------------------
// One engine: every strategy × worker count × tiering combination must
// answer from the same pair universe.
// ---------------------------------------------------------------------

/// 40 families of three keys sharing ≈ 82 % of their elements (planted
/// pairs well above the 0.5 threshold) plus 30 unrelated singletons.
fn plant_corpus(store: &SketchStore<SetSketch1>) {
    for family in 0..40u64 {
        let base = family * 1_000_000;
        for member in 0..3u64 {
            store.ingest(
                &format!("fam{family:02}-{member}"),
                &elements(base + member * 100, 2000),
            );
        }
    }
    for single in 0..30u64 {
        store.ingest(
            &format!("solo{single:02}"),
            &elements(500_000_000 + single * 1_000_000, 2000),
        );
    }
}

#[test]
fn every_strategy_answers_from_the_exhaustive_pair_set() {
    const THRESHOLD: f64 = 0.5;
    let strategies = [
        ("flat", IndexStrategy::Flat),
        ("clustered()", IndexStrategy::clustered()),
        ("exhaustive", IndexStrategy::Exhaustive),
    ];
    let worker_counts = [flat(), flat().threads(1)];

    for tiered in [false, true] {
        let cfg = config();
        let builder = SketchStore::builder(move || SetSketch1::new(cfg, 42)).shards(8);
        let store = if tiered {
            // Room for eight resident sketches out of 150 keys.
            let resident = sketch_core::Sketch::resident_bytes(&SetSketch1::new(cfg, 42));
            builder.memory_budget_bytes(8 * resident).build()
        } else {
            builder.build()
        };
        plant_corpus(&store);
        let census = store.tier_stats();
        if tiered {
            assert!(
                census.warm_keys + census.frozen_keys > 100,
                "the budget must leave most keys cold: {census:?}"
            );
        }

        for base in worker_counts {
            let label = |name: &str| format!("{name}/{:?}/tiered={tiered}", base.threads);
            let reference = store
                .all_pairs_with(THRESHOLD, &base.index(IndexStrategy::Exhaustive))
                .unwrap();
            assert!(
                reference.len() >= 3 * 40,
                "planted pairs: {}",
                reference.len()
            );

            let mut flat_pairs = Vec::new();
            for (name, strategy) in strategies {
                let options = base.index(strategy);
                let pairs = store.all_pairs_with(THRESHOLD, &options).unwrap();
                match name {
                    "flat" => flat_pairs.clone_from(&pairs),
                    // The alias is the flat index under another name.
                    "clustered()" => {
                        assert_eq!(pairs, flat_pairs, "{}", label(name));
                        let info = store.similarity_index_info().unwrap();
                        assert!(info.clustered.is_none(), "{}: {info:?}", label(name));
                    }
                    _ => {}
                }
                // Reported ⊆ exhaustive, with the same quantities.
                for pair in &pairs {
                    let same = reference
                        .iter()
                        .find(|p| p.left == pair.left && p.right == pair.right)
                        .unwrap_or_else(|| {
                            panic!("{}: {pair:?} not in the reference", label(name))
                        });
                    assert_eq!(pair.quantities, same.quantities, "{}", label(name));
                }
                let recall = pairs.len() as f64 / reference.len() as f64;
                assert!(recall >= 0.95, "{}: pair recall {recall}", label(name));

                // Threshold 0 has no locality signal: the flat strategy
                // must equal the exhaustive one bit for bit.
                if strategy == IndexStrategy::Flat {
                    let everything = base.index(IndexStrategy::Exhaustive);
                    assert_eq!(
                        store.all_pairs_with(0.0, &options).unwrap(),
                        store.all_pairs_with(0.0, &everything).unwrap(),
                        "{}",
                        label(name)
                    );
                }
                assert_eq!(
                    store.tier_stats(),
                    census,
                    "{}: a sweep must not move a slot between tiers",
                    label(name)
                );
            }
        }

        // The quantities are what a point query computes on the same
        // keys. Checked last: `joint` is a point read and promotes.
        let exact = store.all_pairs_with(THRESHOLD, &exhaustive()).unwrap();
        for pair in &exact {
            let joint = store.joint(&pair.left, &pair.right).unwrap();
            assert_eq!(pair.quantities, joint, "tiered={tiered}: {pair:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Index freshness: every mutator moves its shard's mark, so the first
// flat query after it answers exactly what the exhaustive strategy does.
// ---------------------------------------------------------------------

type Store = SketchStore<SetSketch1>;

/// The top-k query key of the freshness tests (a member of `fam00`).
const QUERY: &str = "fam00-0";
const K: usize = 2;
const THRESHOLD: f64 = 0.5;

fn sketch_of(elements: &[u64]) -> SetSketch1 {
    let mut sketch = SetSketch1::new(config(), 42);
    sketch.extend(elements.iter().copied());
    sketch
}

/// A near-duplicate of [`QUERY`] (Jaccard ≈ 0.95): it must enter the
/// query's top-k and the sweep the moment it lands in the store.
fn near_query() -> Vec<u64> {
    elements(50, 2000)
}

/// A scratch directory removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        Scratch(std::env::temp_dir().join(format!("sketch-query-{tag}-{}", std::process::id())))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A store over eight shards, durable in `dir` when given, holding 20
/// families of three keys (Jaccard ≥ 0.82 within a family), 15
/// unrelated singletons and `grow`, a tenth of [`QUERY`]'s elements.
fn freshness_store(dir: Option<&Path>) -> Arc<Store> {
    let cfg = config();
    let builder = SketchStore::builder(move || SetSketch1::new(cfg, 42)).shards(8);
    let store = match dir {
        Some(dir) => builder.durable_dir(dir).build_shared(),
        None => builder.build_shared(),
    };
    for family in 0..20u64 {
        for member in 0..3u64 {
            store.ingest(
                &format!("fam{family:02}-{member}"),
                &elements(family * 1_000_000 + member * 100, 2000),
            );
        }
    }
    for single in 0..15u64 {
        store.ingest(
            &format!("solo{single:02}"),
            &elements(500_000_000 + single * 1_000_000, 2000),
        );
    }
    store.ingest("grow", &elements(0, 200));
    store
}

/// The flat strategy's top-k and 0.5 sweep equal the exhaustive ones,
/// keys and quantities, the index bands exactly the live keys, and
/// every reported quantity is what a point query computes on the same
/// keys — so no cached cardinality outlives a write.
fn assert_fresh(label: &str, store: &Store) {
    let top_k = store
        .similar_keys_with(QUERY, K, THRESHOLD, &flat())
        .unwrap();
    let pairs = store.all_pairs_with(THRESHOLD, &flat()).unwrap();
    assert_eq!(
        top_k,
        store
            .similar_keys_with(QUERY, K, THRESHOLD, &exhaustive())
            .unwrap(),
        "{label}: top-k"
    );
    assert_eq!(
        pairs,
        store.all_pairs_with(THRESHOLD, &exhaustive()).unwrap(),
        "{label}: sweep"
    );
    let info = store.similarity_index_info().unwrap();
    assert_eq!(info.indexed_keys, store.len(), "{label}: indexed keys");
    for neighbor in &top_k {
        let joint = store.joint(QUERY, &neighbor.key).unwrap();
        assert_eq!(neighbor.quantities, joint, "{label}: {}", neighbor.key);
    }
    for pair in &pairs {
        let joint = store.joint(&pair.left, &pair.right).unwrap();
        assert_eq!(pair.quantities, joint, "{label}: {pair:?}");
    }
}

/// One mutator under test: what it does to a warm store, returning the
/// store the queries then run on (a rebuilt one for the restore rows).
struct Mutation {
    name: &'static str,
    durable: bool,
    apply: fn(Arc<Store>, &Path) -> Arc<Store>,
}

#[test]
fn index_freshness_after_every_mutator() {
    let rows = [
        Mutation {
            name: "ingest",
            durable: false,
            apply: |store, _| {
                store.ingest("dup", &near_query());
                store
            },
        },
        Mutation {
            // The "before" queries cached fam00-1's cardinality; the
            // write must drop it.
            name: "ingest into a verified key",
            durable: false,
            apply: |store, _| {
                store.ingest("fam00-1", &elements(2100, 500));
                store
            },
        },
        Mutation {
            name: "ingest of an identical pair",
            durable: false,
            apply: |store, _| {
                let items = elements(900_000_000, 2000);
                store.ingest("twin-a", &items);
                store.ingest("twin-b", &items);
                store
            },
        },
        Mutation {
            name: "put over an unrelated key",
            durable: false,
            apply: |store, _| {
                store.put("solo00", sketch_of(&near_query()));
                store
            },
        },
        Mutation {
            name: "merge_in, changing",
            durable: false,
            apply: |store, _| {
                assert!(store
                    .merge_in("grow", &sketch_of(&elements(0, 2000)))
                    .unwrap());
                assert!(store.merge_in("merged", &sketch_of(&near_query())).unwrap());
                store
            },
        },
        Mutation {
            name: "merge_in, no-op",
            durable: false,
            apply: |store, _| {
                let version = store.version_of("fam00-1");
                let same = store.get("fam00-1").unwrap();
                assert!(!store.merge_in("fam00-1", &same).unwrap());
                assert_eq!(store.version_of("fam00-1"), version);
                store
            },
        },
        Mutation {
            name: "remove",
            durable: false,
            apply: |store, _| {
                assert!(store.remove("fam00-1").is_some());
                store
            },
        },
        Mutation {
            name: "clear",
            durable: false,
            apply: |store, _| {
                store.clear();
                store.ingest(QUERY, &elements(0, 2000));
                for single in 0..3u64 {
                    store.ingest(
                        &format!("after{single}"),
                        &elements(single * 7_000_000, 2000),
                    );
                }
                store
            },
        },
        Mutation {
            name: "pipeline ingest + flush",
            durable: false,
            apply: |store, _| {
                let pipeline = store.clone().pipeline();
                pipeline.ingest("piped", &near_query());
                pipeline.flush();
                store
            },
        },
        Mutation {
            name: "rebuild from durable_dir",
            durable: true,
            apply: |store, dir| {
                // Most keys come back from the checkpoint, `dup` from the
                // log tail.
                store.checkpoint().unwrap();
                store.ingest("dup", &near_query());
                drop(store);
                let cfg = config();
                SketchStore::builder(move || SetSketch1::new(cfg, 42))
                    .shards(8)
                    .durable_dir(dir)
                    .build_shared()
            },
        },
    ];
    for row in rows {
        let scratch = Scratch::new("freshness");
        let store = freshness_store(row.durable.then_some(scratch.0.as_path()));
        // Warm: the flat state exists and is current before the write.
        assert_fresh(&format!("{} (before)", row.name), &store);
        let store = (row.apply)(store, &scratch.0);
        assert_fresh(row.name, &store);
    }
}

/// Two query threads and two writer threads (seeded ingest/remove
/// scripts, released together by a barrier) run at once; once they are
/// joined, the next flat top-k and sweep equal the exhaustive ones.
#[test]
fn index_freshness_after_concurrent_readers_and_writers() {
    let store = freshness_store(None);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for reader in 0..2 {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..40 {
                    if (round + reader) % 4 == 0 {
                        store.all_pairs_with(THRESHOLD, &flat()).unwrap();
                    } else {
                        store
                            .similar_keys_with(QUERY, K, THRESHOLD, &flat())
                            .unwrap();
                    }
                }
            });
        }
        for writer in 0..2u64 {
            let (store, start) = (&store, &start);
            scope.spawn(move || {
                start.wait();
                let mut state = 0x9e37_79b9_7f4a_7c15 ^ writer;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..150 {
                    let key = format!("w{}", next() % 24);
                    match next() % 3 {
                        0 => store.ingest(&key, &elements(next() % 200, 2000)),
                        1 => store
                            .ingest(&key, &elements(900_000_000 + next() % 5 * 10_000_000, 2000)),
                        _ => {
                            store.remove(&key);
                        }
                    }
                }
            });
        }
    });
    assert_fresh("after the concurrent phase", &store);
}

// ---------------------------------------------------------------------
// Proptest op-script driver: arbitrary interleavings of ingest, remove
// and sweep must keep the flat index equivalent to the exhaustive
// reference.
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
    /// identically to the exhaustive reference.
    SweepHalf,
}

fn decode_op((kind, key, start, len): (u8, usize, u64, u64)) -> Op {
    match kind {
        0..=3 => Op::Ingest {
            key,
            // Three overlapping neighborhoods, so some keys are similar.
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

fn drive(ops: &[Op]) -> Result<(), TestCaseError> {
    let store = store_with_shards(4);
    for op in ops {
        match op {
            Op::Ingest { key, start, len } => {
                store.ingest(&format!("k{key}"), &elements(*start, *len));
            }
            Op::Remove { key } => {
                store.remove(&format!("k{key}"));
            }
            Op::SweepZero => {
                let pruned = store.all_pairs_with(0.0, &flat()).expect("sweep");
                let reference = store.all_pairs_with(0.0, &exhaustive()).expect("sweep");
                prop_assert_eq!(pruned, reference);
            }
            Op::SweepHalf => {
                let pruned = store.all_pairs_with(0.5, &flat()).expect("sweep");
                let reference = store.all_pairs_with(0.5, &exhaustive()).expect("sweep");
                for pair in &pruned {
                    let same = reference
                        .iter()
                        .find(|p| p.left == pair.left && p.right == pair.right);
                    prop_assert!(
                        same.is_some_and(|p| p.quantities == pair.quantities),
                        "({}, {}) missing or diverged in the exhaustive sweep",
                        pair.left,
                        pair.right
                    );
                }
            }
        }
    }
    // Final states agree regardless of what the script did.
    let pruned = store.all_pairs_with(0.0, &flat()).expect("sweep");
    let reference = store.all_pairs_with(0.0, &exhaustive()).expect("sweep");
    prop_assert_eq!(pruned, reference);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flat_matches_references_under_op_scripts(ops in ops_strategy()) {
        drive(&ops)?;
    }
}
