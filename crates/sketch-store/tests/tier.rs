//! Integration tests for the hot / warm / frozen memory tiers.
//!
//! * A tiered store under maximal demotion pressure must be
//!   indistinguishable from a plain store across interleaved inserts,
//!   merges, point queries and whole-store transfers — for both
//!   SetSketch variants (demote → promote is bit-for-bit), and paging a
//!   transfer out of it must not move a single key between tiers.
//! * A budget-capped store must ingest 10× more keys than its budget
//!   holds without errors or data loss.
//! * A warm SetSketch (m = 4096) must occupy under half of its resident
//!   footprint (one byte per register) and less than the paper's 6-bit
//!   packing, and rehydrate with a bit-identical estimate.
//! * Frozen segment files must never leak: they vanish when the store
//!   drops (or is cleared).

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::Sketch;
use sketch_store::SketchStore;

/// One step of an interleaved tier workload over a small key space.
#[derive(Debug, Clone)]
enum Op {
    /// Ingest `len` consecutive elements starting at `start` into key
    /// number `key`.
    Ingest { key: usize, start: u64, len: u64 },
    /// Merge key `src` into key `dst` (skipped unless both exist).
    Merge { dst: usize, src: usize },
    /// Compare the tiered store's view of `key` against the reference.
    Query { key: usize },
    /// Page the tiered store from version 0 into a freshly built one
    /// and carry on with the copy.
    TransferRestore,
}

fn key_name(key: usize) -> String {
    format!("k{key}")
}

fn decode_op((kind, pair, start, len): (u8, usize, u64, u64)) -> Op {
    // `pair` packs two key indices over a 5-key space: dst = pair / 5,
    // src = pair % 5 (the vendored proptest shim caps tuples at four
    // elements, so the two indices travel in one value).
    let (a, b) = (pair / 5, pair % 5);
    match kind {
        0..=2 => Op::Ingest { key: a, start, len },
        3 | 4 => Op::Merge { dst: a, src: b },
        5 | 6 => Op::Query { key: a },
        _ => Op::TransferRestore,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..8, 0usize..25, 0u64..1_000, 1u64..40), 1..30)
        .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

/// Runs `ops` against a maximally tiered store (a 1-byte budget, so
/// every write runs a demotion scan) and a plain store side by side,
/// asserting they agree at every query and at the end.
fn drive<S>(
    factory: impl Fn() -> S + Clone + Send + Sync + 'static,
    ops: &[Op],
) -> Result<(), TestCaseError>
where
    S: Sketch + std::fmt::Debug,
{
    let build_tiered = || {
        SketchStore::builder(factory.clone())
            .shards(4)
            .memory_budget_bytes(1)
            .build()
    };
    let mut tiered = build_tiered();
    let plain = SketchStore::builder(factory.clone()).shards(4).build();

    for op in ops {
        match op {
            Op::Ingest { key, start, len } => {
                let batch: Vec<u64> = (*start..start + len).collect();
                let name = key_name(*key);
                tiered.ingest(&name, &batch);
                plain.ingest(&name, &batch);
            }
            Op::Merge { dst, src } => {
                let (dst, src) = (key_name(*dst), key_name(*src));
                if dst != src && plain.contains_key(&dst) && plain.contains_key(&src) {
                    let merged = plain.merge_keys(&[&dst, &src]).expect("keys exist");
                    plain.put(&dst, merged);
                    let merged = tiered.merge_keys(&[&dst, &src]).expect("keys exist");
                    tiered.put(&dst, merged);
                }
            }
            Op::Query { key } => {
                let name = key_name(*key);
                prop_assert_eq!(
                    tiered.get(&name),
                    plain.get(&name),
                    "query {} diverged",
                    &name
                );
            }
            Op::TransferRestore => {
                let census = tiered.tier_stats();
                let copy = build_tiered();
                let prototype = copy.empty_sketch();
                let mut after = 0;
                loop {
                    // A small budget: most transfers take several pages.
                    let page = tiered.delta_since(after, 256);
                    for entry in &page.entries {
                        let sketch =
                            S::decompress(&prototype, &entry.payload).expect("payload decodes");
                        copy.merge_in(&entry.key, &sketch).expect("same factory");
                    }
                    after = page.up_to;
                    if page.complete {
                        break;
                    }
                }
                prop_assert_eq!(
                    tiered.tier_stats(),
                    census,
                    "a transfer reads the source, it never promotes"
                );
                tiered = copy;
            }
        }
    }

    let mut expected_keys = plain.keys();
    expected_keys.sort_unstable();
    let mut tiered_keys = tiered.keys();
    tiered_keys.sort_unstable();
    prop_assert_eq!(&tiered_keys, &expected_keys, "key sets diverged");
    for key in &expected_keys {
        prop_assert_eq!(
            tiered.get(key),
            plain.get(key),
            "final state of {} diverged",
            key
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn tiered_matches_plain_setsketch2(ops in ops_strategy()) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        drive(move || SetSketch2::new(cfg, 2), &ops)?;
    }
}

/// A fixed op script exercising every transition at least once: insert,
/// re-insert after demotion, merge of cold keys, queries, and two
/// whole-store transfers.
fn fixed_script() -> Vec<Op> {
    use Op::*;
    vec![
        Ingest {
            key: 0,
            start: 0,
            len: 30,
        },
        Ingest {
            key: 1,
            start: 10,
            len: 30,
        },
        Query { key: 0 },
        Ingest {
            key: 2,
            start: 50,
            len: 5,
        },
        Merge { dst: 0, src: 1 },
        TransferRestore,
        Query { key: 1 },
        Ingest {
            key: 0,
            start: 100,
            len: 20,
        },
        Query { key: 0 },
        Ingest {
            key: 3,
            start: 0,
            len: 64,
        },
        Merge { dst: 2, src: 3 },
        TransferRestore,
        Query { key: 2 },
        Ingest {
            key: 4,
            start: 7,
            len: 9,
        },
        Query { key: 4 },
        Query { key: 3 },
    ]
}

/// Demote → promote must be bit-for-bit for both SetSketch variants,
/// the two register-value constructions the store serves.
#[test]
fn all_families_roundtrip_through_tiers() {
    let ops = fixed_script();
    let ss_cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    drive(move || SetSketch1::new(ss_cfg, 1), &ops).unwrap();
    drive(move || SetSketch2::new(ss_cfg, 2), &ops).unwrap();
}

/// A store capped at 10 sketches' worth of memory must absorb 100 keys
/// without errors, keep every key queryable, and stay near its budget.
#[test]
fn budget_capped_store_ingests_ten_times_budget() {
    let config = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
    let factory = move || SetSketch2::new(config, 9);
    let one_sketch = factory().resident_bytes();
    let budget = 10 * one_sketch;
    let store = SketchStore::builder(factory)
        .shards(8)
        .memory_budget_bytes(budget)
        .build();

    let keys = 100usize;
    for i in 0..keys {
        let base = i as u64 * 1_000;
        let batch: Vec<u64> = (base..base + 200).collect();
        store.ingest(&format!("key-{i}"), &batch);
    }

    let stats = store.tier_stats();
    assert_eq!(stats.total_keys(), keys, "no key may be dropped: {stats:?}");
    assert!(
        stats.warm_keys + stats.frozen_keys > 0,
        "10× overcommit must force demotions: {stats:?}"
    );
    assert!(
        stats.resident_bytes() <= budget + one_sketch,
        "resident {} exceeds budget {} by more than one in-flight sketch: {stats:?}",
        stats.resident_bytes(),
        budget
    );

    // No data loss: sampled keys rehydrate to exactly the reference
    // sketch built from the same elements.
    for i in (0..keys).step_by(7) {
        let base = i as u64 * 1_000;
        let batch: Vec<u64> = (base..base + 200).collect();
        let mut reference = factory();
        reference.insert_batch(&batch);
        assert_eq!(
            store.get(&format!("key-{i}")).expect("key survived"),
            reference,
            "key-{i} lost data through the tiers"
        );
    }
}

/// The warm encoding of a dense m = 4096 SetSketch must be under half
/// of the resident footprint — byte-wide registers, so the bar is 4 bits
/// per register — and under the paper's fixed 6-bit packing, and
/// rehydrate to a bit-identical sketch and cardinality estimate.
#[test]
fn warm_slot_is_under_half_of_resident() {
    let config = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
    let factory = move || SetSketch2::new(config, 11);
    let batch: Vec<u64> = (0..20_000).collect();
    let mut reference = factory();
    reference.insert_batch(&batch);
    let resident = reference.resident_bytes();

    // One byte short of the key's resident footprint: the write's scan
    // clears "dense"'s second-chance bit, then compresses it, which
    // brings the store back under budget.
    let store = SketchStore::builder(factory)
        .shards(1)
        .memory_budget_bytes(resident - 1)
        .build();
    store.ingest("dense", &batch);

    let stats = store.tier_stats();
    assert_eq!(
        stats.warm_keys, 1,
        "dense must have been demoted: {stats:?}"
    );

    // A full-store delta page carries the warm payload as stored,
    // without promoting.
    let compact = store
        .delta_since(0, usize::MAX)
        .entries
        .iter()
        .find(|entry| entry.key == "dense")
        .expect("key present")
        .payload
        .len();
    assert_eq!(store.tier_stats(), stats, "the page must not promote");
    assert!(
        compact * 2 < resident,
        "warm payload {compact} B is not under half of resident {resident} B"
    );
    assert!(
        compact < config.packed_bytes(),
        "warm payload {compact} B does not beat 6-bit packing"
    );

    // Promotion restores the registers bit for bit.
    assert_eq!(store.get("dense").expect("key present"), reference);
    let expected = reference.cardinality();
    let actual = store.cardinality("dense").expect("key present");
    assert!(
        actual == expected,
        "estimate drifted through the warm tier: {actual} != {expected}"
    );
}

/// `TierStats::hot_bytes` is the sketches' own resident footprint — heap
/// registers included — on every kind of store: plain, budgeted (with
/// room for every key, so all stay hot) and durable.
#[test]
fn hot_bytes_are_the_hot_sketches_resident_bytes() {
    let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let factory = move || SetSketch2::new(config, 5);
    let dir = std::env::temp_dir().join(format!("tier-hot-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stores = [
        ("plain", SketchStore::builder(factory).build()),
        (
            "budgeted",
            SketchStore::builder(factory)
                .memory_budget_bytes(1 << 20)
                .build(),
        ),
        (
            "durable",
            SketchStore::builder(factory).durable_dir(&dir).build(),
        ),
    ];
    for (kind, store) in &stores {
        for i in 0..12u64 {
            store.ingest(
                &format!("k{i}"),
                &(i * 100..i * 100 + 50 * i).collect::<Vec<_>>(),
            );
        }
        let stats = store.tier_stats();
        assert_eq!(stats.hot_keys, store.len(), "{kind}: every key is hot");
        let expected: usize = store
            .keys()
            .iter()
            .map(|key| {
                store
                    .with_sketch(key, |sketch| sketch.resident_bytes())
                    .unwrap()
            })
            .sum();
        assert_eq!(stats.hot_bytes, expected, "{kind}: hot bytes");
    }
    drop(stores);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Frozen segment files live under a private spill directory that is
/// removed when the store drops — and when it is cleared.
#[test]
fn frozen_segments_never_leak() {
    let parent = std::env::temp_dir().join(format!("tier-leak-test-{}", std::process::id()));
    std::fs::create_dir_all(&parent).unwrap();
    let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let build = |seed: u64| {
        SketchStore::builder(move || SetSketch2::new(config, seed))
            .shards(2)
            .memory_budget_bytes(1)
            .spill_dir(&parent)
            .build()
    };

    // Store dropped → spill directory removed.
    let store = build(3);
    for i in 0..20u64 {
        store.ingest(&format!("k{i}"), &[i, i + 1, i + 2]);
    }
    let stats = store.tier_stats();
    assert!(
        stats.frozen_keys > 0,
        "1-byte budget must freeze entries: {stats:?}"
    );
    let spill = store.spill_path().expect("segments were created");
    assert!(spill.starts_with(&parent), "spill dir must honour the knob");
    assert!(spill.exists());
    assert!(store.get("k0").is_some(), "frozen keys must rehydrate");
    drop(store);
    assert!(!spill.exists(), "spill dir must be removed on drop");

    // Store cleared → spill directory removed while the store lives on.
    let store = build(4);
    for i in 0..20u64 {
        store.ingest(&format!("k{i}"), &[i, i + 1, i + 2]);
    }
    let spill = store.spill_path().expect("segments were created");
    assert!(spill.exists());
    store.clear();
    assert!(!spill.exists(), "spill dir must be removed on clear");
    assert!(store.is_empty());

    assert_eq!(
        std::fs::read_dir(&parent).unwrap().count(),
        0,
        "no segment files may leak into the parent directory"
    );
    std::fs::remove_dir_all(&parent).unwrap();
}

/// Bit rot in a spill segment must surface as a typed
/// [`StoreError::CorruptSlot`] — the slot is quarantined, bulk sweeps
/// skip it, and the next write heals the key with a fresh sketch.
#[test]
fn corrupt_spill_record_quarantines_and_heals() {
    use sketch_store::StoreError;

    let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let store = SketchStore::builder(move || SetSketch2::new(config, 11))
        .shards(2)
        .memory_budget_bytes(1)
        .build();
    for i in 0..20u64 {
        store.ingest(&format!("k{i}"), &[i, i + 100, i + 200]);
    }
    let stats = store.tier_stats();
    assert!(
        stats.frozen_keys > 0,
        "1-byte budget must freeze: {stats:?}"
    );
    assert_eq!(stats.spill_append_failures, 0);
    assert_eq!(stats.quarantined_keys, 0);

    // Rot every byte of every spill segment.
    let spill = store.spill_path().expect("segments exist");
    for entry in std::fs::read_dir(&spill).unwrap().flatten() {
        let path = entry.path();
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        std::fs::write(&path, vec![0xFF; len]).unwrap();
    }

    // Every key frozen at corruption time now fails typed; nothing
    // panics, nothing decodes garbage.
    let mut corrupt = Vec::new();
    for i in 0..20u64 {
        let key = format!("k{i}");
        match store.cardinality(&key) {
            Err(StoreError::CorruptSlot { key: k, .. }) => {
                assert_eq!(k, key);
                corrupt.push(key);
            }
            Ok(_) => {}
            Err(other) => panic!("unexpected error for {key}: {other}"),
        }
    }
    assert!(!corrupt.is_empty(), "some frozen key must have rotted");
    let stats = store.tier_stats();
    assert!(
        stats.quarantined_keys >= corrupt.len(),
        "every corrupt read quarantines: {stats:?}"
    );
    // A quarantined key is still a key of the store.
    assert_eq!(stats.total_keys(), store.len(), "{stats:?}");

    // `with_sketch` folds corruption into None; `get` likewise.
    assert!(store.get(&corrupt[0]).is_none());
    // Quarantined slots are skipped by delta pages instead of aborting
    // them.
    let page = store.delta_since(0, usize::MAX);
    assert!(page.complete);
    assert!(page.entries.iter().all(|entry| entry.key != corrupt[0]));

    // A write heals the key: fresh sketch, usable again.
    store.ingest(&corrupt[0], &[1, 2, 3]);
    let healed = store.cardinality(&corrupt[0]).expect("healed by write");
    assert!(healed > 0.0);
    assert!(store.tier_stats().quarantined_keys < stats.quarantined_keys);
}

/// A spill directory that cannot be created must not lose writes
/// silently: entries stay warm, the failure is counted in
/// [`TierStats::spill_append_failures`] and the cause is surfaced.
#[test]
fn failed_spill_appends_are_counted_and_surfaced() {
    // A regular file where the spill parent should be: creating the
    // per-store subdirectory fails on every append attempt.
    let bogus = std::env::temp_dir().join(format!("tier-spill-blocked-{}", std::process::id()));
    std::fs::write(&bogus, b"file, not a directory").unwrap();

    let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let store = SketchStore::builder(move || SetSketch2::new(config, 12))
        .shards(2)
        .memory_budget_bytes(1)
        .spill_dir(&bogus)
        .build();
    for i in 0..20u64 {
        store.ingest(&format!("k{i}"), &[i, i + 1, i + 2]);
    }

    let stats = store.tier_stats();
    assert!(
        stats.spill_append_failures > 0,
        "blocked spills must be counted: {stats:?}"
    );
    // One scan per write, and a scan stops spilling after its first
    // failed append instead of retrying every warm key.
    assert!(
        stats.spill_append_failures <= 20,
        "a scan must not retry a broken spill dir per key: {stats:?}"
    );
    assert_eq!(stats.frozen_keys, 0, "nothing can freeze: {stats:?}");
    assert_eq!(
        stats.total_keys(),
        20,
        "failed spills must not lose keys: {stats:?}"
    );
    let error = store.last_spill_error().expect("cause surfaced");
    assert!(!error.is_empty());

    // Data intact: entries stayed warm/hot and remain readable.
    for i in 0..20u64 {
        assert!(store.cardinality(&format!("k{i}")).unwrap() > 0.0);
    }
    std::fs::remove_file(&bogus).unwrap();
}
