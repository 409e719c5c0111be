//! Integration tests of the serving stack: the one sketch trait +
//! sharded concurrent store, driven with both SetSketch variants.
//!
//! The central acceptance check lives here: ≥ 4 threads ingesting into
//! *overlapping* keys must produce exactly the state single-threaded
//! insertion produces, and the merged-down cardinality / Jaccard
//! estimates must match the single-threaded reference within estimator
//! tolerance.

use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::Sketch;
use sketch_store::{SketchStore, StoreError};

const THREADS: u64 = 6;
const KEYS: [&str; 3] = ["alpha", "beta", "gamma"];

/// Elements thread `t` contributes to key `k`: overlapping ranges so
/// every pair of threads collides on shared elements *and* shared keys.
fn thread_elements(t: u64, k: usize) -> Vec<u64> {
    let key_base = k as u64 * 1_000_000;
    // Each thread covers [t*600, t*600 + 2000): heavy overlap between
    // neighboring threads.
    (key_base + t * 600..key_base + t * 600 + 2_000).collect()
}

/// Single-threaded reference state for key `k`.
fn reference<S: Sketch>(mut sketch: S, k: usize) -> S {
    for t in 0..THREADS {
        sketch.insert_batch(&thread_elements(t, k));
    }
    sketch
}

/// Runs the concurrent-vs-sequential check for one sketch type: the
/// store is fed by `THREADS` threads over overlapping keys, then every
/// key's state must equal the single-threaded reference exactly.
fn assert_concurrent_matches_sequential<S>(factory: impl Fn() -> S + Clone + Send + Sync + 'static)
where
    S: Sketch + std::fmt::Debug,
{
    let store = SketchStore::builder(factory.clone()).shards(4).build();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for (k, key) in KEYS.iter().enumerate() {
                    store.ingest(key, &thread_elements(t, k));
                }
            });
        }
    });
    for (k, key) in KEYS.iter().enumerate() {
        let expected = reference(factory(), k);
        let actual = store.get(key).expect("key was ingested");
        assert_eq!(actual, expected, "key {key} diverged from reference");
    }
    // Merge-down across keys equals merging the references.
    let mut expected_all = reference(factory(), 0);
    for k in 1..KEYS.len() {
        expected_all
            .merge_from(&reference(factory(), k))
            .expect("compatible by construction");
    }
    let merged = store.merge_down().expect("mergeable").expect("non-empty");
    assert_eq!(merged, expected_all, "merge-down diverged from reference");
}

#[test]
fn concurrent_ingest_setsketch1() {
    let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    assert_concurrent_matches_sequential(move || SetSketch1::new(cfg, 1));
}

#[test]
fn concurrent_ingest_setsketch2() {
    let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    assert_concurrent_matches_sequential(move || SetSketch2::new(cfg, 2));
}

/// The acceptance-criteria scenario in one test: ≥ 4 threads, overlapping
/// keys, and the *estimates* (not just states) checked against the
/// single-threaded reference within estimator tolerance.
#[test]
fn concurrent_estimates_match_reference_within_tolerance() {
    let cfg = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
    let factory = move || SetSketch2::new(cfg, 9);
    let store = SketchStore::builder(factory).shards(8).build();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = &store;
            scope.spawn(move || {
                for (k, key) in KEYS.iter().enumerate() {
                    store.ingest(key, &thread_elements(t, k));
                }
            });
        }
    });

    // Per-key truth: union of [t*600, t*600+2000) over t = 0..6 is
    // [0, 5000) shifted by the key base → 5000 distinct elements.
    let true_card = 5_000.0;
    for key in KEYS {
        let estimate = store.cardinality(key).expect("present");
        let rel = (estimate - true_card) / true_card;
        // RSD ≈ 1.04/sqrt(1024) ≈ 3.3 %; allow 5 sigma.
        assert!(rel.abs() < 0.17, "key {key}: estimate {estimate}");
    }

    // Jaccard of two keys with disjoint element spaces is 0; of a key
    // with itself 1. Also check against a single-threaded twin store.
    let twin = SketchStore::builder(factory).shards(8).build();
    for (k, key) in KEYS.iter().enumerate() {
        for t in 0..THREADS {
            twin.ingest(key, &thread_elements(t, k));
        }
    }
    for key in KEYS {
        let concurrent = store.get(key).unwrap();
        let sequential = twin.get(key).unwrap();
        // Deterministic states → identical estimates, not just close.
        assert_eq!(concurrent, sequential);
    }
    let j = store.jaccard("alpha", "beta").expect("present");
    assert!(j.abs() < 0.02, "disjoint keys: jaccard {j}");

    // Merged-down union: 3 disjoint blocks of 5000 → 15000.
    let union = store
        .union_cardinality(&["alpha", "beta", "gamma"])
        .expect("mergeable");
    let rel = (union - 15_000.0) / 15_000.0;
    assert!(rel.abs() < 0.17, "union estimate {union}");
}

/// A generic pipeline written once against the one trait runs on both
/// SetSketch variants and produces sane joint estimates.
#[test]
fn generic_pipeline_over_families() {
    fn jaccard_of_ranges<S: Sketch>(factory: impl Fn() -> S) -> f64 {
        let mut a = factory();
        let mut b = factory();
        a.insert_batch(&(0..3_000).collect::<Vec<_>>());
        b.insert_batch(&(1_500..4_500).collect::<Vec<_>>());
        a.joint(&b).expect("compatible").jaccard
    }

    let cfg = SetSketchConfig::new(1024, 1.5, 20.0, 100).unwrap();
    // True Jaccard: 1500 / 4500 = 1/3.
    let truth = 1.0 / 3.0;
    assert!((jaccard_of_ranges(move || SetSketch1::new(cfg, 1)) - truth).abs() < 0.1);
    assert!((jaccard_of_ranges(move || SetSketch2::new(cfg, 2)) - truth).abs() < 0.1);
}

/// The store surfaces the detailed SetSketch incompatibility through its
/// merge errors (the satellite fix of this PR, end to end).
#[test]
fn store_surfaces_mismatch_details() {
    let cfg = SetSketchConfig::new(128, 2.0, 20.0, 62).unwrap();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 10)).build();
    store.ingest("local", &(0..500).collect::<Vec<_>>());

    let other_cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let mut foreign = SetSketch1::new(other_cfg, 77);
    foreign.extend(0..500);
    store.put("foreign", foreign);

    let err = store.union_cardinality(&["local", "foreign"]).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("configurations differ") && message.contains("m=128"),
        "missing config detail: {message}"
    );
    assert!(
        message.contains("seeds differ (left: 10, right: 77)"),
        "missing seed detail: {message}"
    );
    assert!(matches!(err, StoreError::Incompatible(_)));
}
