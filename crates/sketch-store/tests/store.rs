//! Integration tests of the sharded sketch store against real sketches.

use hyperloglog::{GhllConfig, GhllSketch};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_store::{SketchStore, StoreError};

fn config() -> SetSketchConfig {
    SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap()
}

fn setsketch_store(shards: usize) -> SketchStore<SetSketch2> {
    let cfg = config();
    SketchStore::builder(move || SetSketch2::new(cfg, 11))
        .shards(shards)
        .build()
}

#[test]
fn ingest_creates_and_fills_keys() {
    let store = setsketch_store(4);
    assert!(store.is_empty());
    store.ingest("a", &(0..1_000).collect::<Vec<_>>());
    store.insert("b", 1);
    store.ingest("c", &[2, 3]);
    assert_eq!(store.len(), 3);
    assert!(store.contains_key("a") && !store.contains_key("d"));
    assert_eq!(store.keys(), vec!["a", "b", "c"]);
    let card = store.cardinality("a").unwrap();
    assert!((card - 1_000.0).abs() / 1_000.0 < 0.2, "estimate {card}");
    assert!(matches!(
        store.cardinality("missing"),
        Err(StoreError::KeyNotFound(_))
    ));
}

#[test]
fn ingest_equals_per_element_insertion() {
    let store = setsketch_store(8);
    let elements: Vec<u64> = (0..5_000).map(|i| i % 4_000).collect();
    store.ingest("batched", &elements);
    let mut reference = SetSketch2::new(config(), 11);
    for &e in &elements {
        reference.insert_u64(e);
    }
    assert_eq!(store.get("batched").unwrap(), reference);
}

#[test]
fn joint_queries_across_shards() {
    // Many keys over few shards: pairs land in the same and in different
    // shards; all must answer.
    let store = setsketch_store(2);
    for k in 0..6 {
        let base = k * 5_000;
        store.ingest(
            &format!("set{k}"),
            &(base..base + 10_000).collect::<Vec<_>>(),
        );
    }
    for k in 0..5usize {
        let a = format!("set{k}");
        let b = format!("set{}", k + 1);
        // True Jaccard between consecutive sets: 5000/15000 = 1/3.
        let joint = store.joint(&a, &b).unwrap();
        assert!(
            (joint.jaccard - 1.0 / 3.0).abs() < 0.12,
            "{a}/{b}: {}",
            joint.jaccard
        );
        let inter = store.intersection_cardinality(&a, &b).unwrap();
        assert!((inter - 5_000.0).abs() / 5_000.0 < 0.35, "{a}/{b}: {inter}");
    }
    // Self-join is exact similarity 1.
    assert!((store.jaccard("set0", "set0").unwrap() - 1.0).abs() < 1e-9);
}

#[test]
fn union_and_merge_down() {
    let store = setsketch_store(4);
    store.ingest("a", &(0..4_000).collect::<Vec<_>>());
    store.ingest("b", &(2_000..6_000).collect::<Vec<_>>());
    store.ingest("c", &(5_000..8_000).collect::<Vec<_>>());
    let union_ab = store.union_cardinality(&["a", "b"]).unwrap();
    assert!((union_ab - 6_000.0).abs() / 6_000.0 < 0.2, "{union_ab}");
    let all = store.merge_down().unwrap().unwrap();
    let mut reference = SetSketch2::new(config(), 11);
    reference.extend(0..8_000);
    assert_eq!(all, reference);
    assert!(matches!(
        store.merge_keys(&[]),
        Err(StoreError::EmptySelection)
    ));
    let empty: SketchStore<SetSketch2> = setsketch_store(4);
    assert!(empty.merge_down().unwrap().is_none());
}

#[test]
fn incompatible_put_surfaces_detailed_error() {
    let store = setsketch_store(4);
    store.ingest("ours", &(0..100).collect::<Vec<_>>());
    // A sketch from elsewhere with a different hash seed.
    let mut foreign = SetSketch2::new(config(), 999);
    foreign.extend(0..100);
    store.put("theirs", foreign);
    let err = store.merge_keys(&["ours", "theirs"]).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("seeds differ (left: 11, right: 999)"),
        "store error must surface the seed mismatch detail, got: {message}"
    );
    // The typed source is preserved for programmatic inspection.
    let source = std::error::Error::source(&err).expect("boxed source");
    let detail = source
        .downcast_ref::<setsketch::IncompatibleSketches>()
        .expect("SetSketch incompatibility");
    assert_eq!(detail.seeds, Some((11, 999)));
    assert!(detail.configs.is_none());
}

#[test]
fn remove_and_clear() {
    let store = setsketch_store(4);
    store.ingest("a", &[1, 2, 3]);
    store.ingest("b", &[4, 5, 6]);
    assert!(store.remove("a").is_some());
    assert!(store.remove("a").is_none());
    assert_eq!(store.len(), 1);
    store.clear();
    assert!(store.is_empty());
}

#[test]
fn works_with_other_sketch_families() {
    // GHLL (HyperLogLog).
    let ghll_cfg = GhllConfig::hyperloglog(256).unwrap();
    let store = SketchStore::builder(move || GhllSketch::new(ghll_cfg, 5)).build();
    store.ingest("big", &(0..50_000).collect::<Vec<_>>());
    store.ingest("other", &(25_000..75_000).collect::<Vec<_>>());
    let card = store.cardinality("big").unwrap();
    assert!((card - 50_000.0).abs() / 50_000.0 < 0.33, "{card}");
    assert!(store.jaccard("big", "other").is_ok());

    // MinHash.
    let store = SketchStore::builder(|| MinHash::new(512, 9)).build();
    store.ingest("u", &(0..2_000).collect::<Vec<_>>());
    store.ingest("v", &(1_000..3_000).collect::<Vec<_>>());
    let j = store.jaccard("u", "v").unwrap();
    assert!((j - 1.0 / 3.0).abs() < 0.1, "{j}");

    // SetSketch1 too (the other register-value construction).
    let cfg = config();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 13)).build();
    store.ingest("s", &(0..1_000).collect::<Vec<_>>());
    assert!(store.cardinality("s").is_ok());
}

#[test]
fn concurrent_ingest_from_many_threads() {
    // 8 threads, overlapping keys and overlapping element ranges; the
    // result must equal single-threaded insertion exactly.
    let store = setsketch_store(4);
    let keys = ["k0", "k1", "k2"];
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let store = &store;
            scope.spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    let base = (t % 4) * 1_000 + i as u64 * 10_000;
                    let batch: Vec<u64> = (base..base + 1_500).collect();
                    store.ingest(key, &batch);
                }
            });
        }
    });
    for (i, key) in keys.iter().enumerate() {
        let mut reference = SetSketch2::new(config(), 11);
        for t in 0..4u64 {
            let base = t * 1_000 + i as u64 * 10_000;
            reference.extend(base..base + 1_500);
        }
        assert_eq!(store.get(key).unwrap(), reference, "key {key}");
    }
}

#[test]
fn insert_mirrors_ingest() {
    let store = setsketch_store(4);
    let elements: Vec<u64> = (0..200).map(|i| i * 7_919).collect();
    store.ingest("batched", &elements);

    let looped = setsketch_store(4);
    for &element in &elements {
        looped.insert("looped", element);
    }
    assert_eq!(store.get("batched"), looped.get("looped"));

    // Empty batches still create the key: creating it is a change.
    let version = store.write_epoch();
    store.ingest("empty", &[]);
    assert!(store.contains_key("empty"));
    assert!(store.version_of("empty") > Some(version));
}
