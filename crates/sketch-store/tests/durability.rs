//! Integration tests for the crash-safe durability layer.
//!
//! * A durable store rebuilt from its directory must be
//!   indistinguishable from a reference store that saw the same ops —
//!   for both SetSketch variants, across random op scripts, and with checkpoints cutting the log at aggressive
//!   thresholds (so recovery exercises checkpoint + tail replay, not
//!   just pure replay).
//! * Truncating the log at an arbitrary byte (a torn write) must
//!   recover exactly the operations whose records survived whole, and
//!   report the torn tail instead of panicking.
//! * Flipping one bit anywhere in the log (bit rot) must quarantine at
//!   most the damaged region: every key the recovered store *does*
//!   hold is bit-for-bit correct, and everything before the damage
//!   survives.
//! * Remove and clear must replay — a deleted key stays deleted across
//!   the restart — and in the order they were applied, also when they
//!   race an ingest of the same key.

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::Sketch;
use sketch_store::{FsyncPolicy, SketchStore};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory under the OS temp dir; removed by
/// [`Scratch::drop`].
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "sketch-durability-{tag}-{}-{unique}",
            std::process::id()
        ));
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The WAL segment files under a durable dir, ascending.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("durable dir exists")
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("wal-") && name.ends_with(".log"))
        })
        .collect();
    segments.sort();
    segments
}

// --- Scripted equivalence across both SetSketch variants -------------

/// One step of a durable workload over a small key space.
#[derive(Debug, Clone)]
enum Op {
    Ingest { key: usize, start: u64, len: u64 },
    MergeIn { dst: usize, start: u64, len: u64 },
    Put { key: usize, start: u64, len: u64 },
    Remove { key: usize },
    Clear,
}

fn key_name(key: usize) -> String {
    format!("k{key}")
}

fn decode_op((kind, key, start, len): (u8, usize, u64, u64)) -> Op {
    let key = key % 5;
    match kind {
        0..=3 => Op::Ingest { key, start, len },
        4 | 5 => Op::MergeIn {
            dst: key,
            start,
            len,
        },
        6 => Op::Put { key, start, len },
        7 => Op::Remove { key },
        _ => Op::Clear,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    // Clear is rare (kind 8 of 0..9) but present, so scripts exercise
    // whole-store deletion replay too.
    vec((0u8..9, 0usize..5, 0u64..1_000, 1u64..40), 1..40)
        .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

/// Applies one op to a store (any store — durable and reference get the
/// identical call sequence).
fn apply<S>(store: &SketchStore<S>, sketch_of: &impl Fn(u64, u64) -> S, op: &Op)
where
    S: Sketch,
{
    match op {
        Op::Ingest { key, start, len } => {
            let batch: Vec<u64> = (*start..start + len).collect();
            store.ingest(&key_name(*key), &batch);
        }
        Op::MergeIn { dst, start, len } => {
            let incoming = sketch_of(*start, *len);
            store
                .merge_in(&key_name(*dst), &incoming)
                .expect("same-factory sketches merge");
        }
        Op::Put { key, start, len } => {
            store.put(&key_name(*key), sketch_of(*start, *len));
        }
        Op::Remove { key } => {
            store.remove(&key_name(*key));
        }
        Op::Clear => store.clear(),
    }
}

/// Drives `ops` into a durable store and a plain reference store,
/// drops the durable one, rebuilds it from its directory and asserts
/// the recovered store matches the reference key for key,
/// bit for bit. `checkpoint_after` tunes how aggressively the log is
/// checkpointed mid-script (tiny values force checkpoint + tail
/// recovery).
fn drive_durable<S>(
    factory: impl Fn() -> S + Clone + Send + Sync + 'static,
    ops: &[Op],
    checkpoint_after: u64,
) -> Result<(), TestCaseError>
where
    S: Sketch + std::fmt::Debug,
{
    let scratch = Scratch::new("script");
    let sketch_of = {
        let factory = factory.clone();
        move |start: u64, len: u64| {
            let mut sketch = factory();
            sketch.insert_batch(&(start..start + len).collect::<Vec<u64>>());
            sketch
        }
    };

    let reference = SketchStore::builder(factory.clone()).shards(4).build();
    let epoch_before;
    {
        let durable = SketchStore::builder(factory.clone())
            .shards(4)
            .durable_dir(scratch.path())
            .checkpoint_after_bytes(checkpoint_after)
            .build();
        for op in ops {
            apply(&durable, &sketch_of, op);
            apply(&reference, &sketch_of, op);
        }
        epoch_before = durable.write_epoch();
    }

    let recovered = SketchStore::builder(factory)
        .shards(4)
        .durable_dir(scratch.path())
        .build();
    let report = recovered.recovery_report().expect("durable store");
    prop_assert!(
        report.is_clean(),
        "no crash, so recovery must be clean: {report:?}"
    );
    prop_assert_eq!(
        recovered.keys(),
        reference.keys(),
        "recovered key census diverged"
    );
    for key in reference.keys() {
        prop_assert_eq!(
            recovered.get(&key),
            reference.get(&key),
            "key {} diverged after recovery",
            key
        );
    }
    prop_assert!(
        recovered.write_epoch() >= epoch_before,
        "write epoch went backwards: {} < {epoch_before}",
        recovered.write_epoch()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn recovered_matches_reference_setsketch2(ops in ops_strategy()) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        drive_durable(move || SetSketch2::new(cfg, 2), &ops, u64::MAX)?;
    }

    /// Tiny checkpoint threshold: nearly every op cuts a checkpoint, so
    /// recovery is dominated by checkpoint loading, not replay — and
    /// must still match pure replay's result.
    #[test]
    fn checkpointed_matches_reference_setsketch2(ops in ops_strategy()) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        drive_durable(move || SetSketch2::new(cfg, 2), &ops, 256)?;
    }
}

/// A fixed script touching every record type (ingest, merge-in, put,
/// remove, clear) for both SetSketch variants.
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
        MergeIn {
            dst: 0,
            start: 50,
            len: 20,
        },
        Put {
            key: 2,
            start: 100,
            len: 40,
        },
        Remove { key: 1 },
        Ingest {
            key: 1,
            start: 500,
            len: 10,
        },
        Clear,
        Ingest {
            key: 3,
            start: 7,
            len: 25,
        },
        MergeIn {
            dst: 4,
            start: 0,
            len: 15,
        },
        Put {
            key: 3,
            start: 300,
            len: 5,
        },
        Remove { key: 4 },
        Ingest {
            key: 4,
            start: 40,
            len: 8,
        },
    ]
}

/// WAL replay must reproduce the reference bit-for-bit for both
/// SetSketch variants — with pure replay and through a mid-script
/// checkpoint.
#[test]
fn all_families_recover_bit_for_bit() {
    let ops = fixed_script();
    for checkpoint_after in [u64::MAX, 128] {
        let ss_cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        drive_durable(move || SetSketch1::new(ss_cfg, 1), &ops, checkpoint_after).unwrap();
        drive_durable(move || SetSketch2::new(ss_cfg, 2), &ops, checkpoint_after).unwrap();
    }
}

// --- Crash-shaped damage ---------------------------------------------

/// Fixed-width keys make every WAL record the same size, so tests can
/// reason about frame boundaries: payload = tag(1) + key(4 + 7) +
/// count(4) + element(8) = 24 bytes, framed to 32.
const FRAME: usize = 32;

fn fixed_key(i: usize) -> String {
    format!("key-{i:03}")
}

fn one_op_per_key_store(dir: &Path, ops: usize) -> SketchStore<SetSketch2> {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .shards(4)
        .durable_dir(dir)
        .build();
    for i in 0..ops {
        store.ingest(&fixed_key(i), &[i as u64]);
    }
    store
}

fn reference_sketch(i: usize) -> SetSketch2 {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let mut sketch = SetSketch2::new(cfg, 2);
    sketch.insert_batch(&[i as u64]);
    sketch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating the log at an arbitrary byte — what a crash mid-write
    /// leaves behind — must recover exactly the fully-written records
    /// and report (not panic on) the torn tail.
    #[test]
    fn torn_tail_recovers_every_whole_record(ops in 1usize..40, cut_back in 0usize..200) {
        let scratch = Scratch::new("torn");
        drop(one_op_per_key_store(scratch.path(), ops));

        let segments = segment_files(scratch.path());
        prop_assert_eq!(segments.len(), 1, "small log stays in one segment");
        let total = std::fs::metadata(&segments[0]).unwrap().len() as usize;
        prop_assert_eq!(total, ops * FRAME, "frame-size arithmetic drifted");
        let cut = total.saturating_sub(cut_back % (total + 1));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&segments[0])
            .unwrap()
            .set_len(cut as u64)
            .unwrap();

        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let recovered = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(4)
            .durable_dir(scratch.path())
            .build();
        let report = recovered.recovery_report().unwrap().clone();

        let whole = cut / FRAME;
        prop_assert_eq!(report.records_replayed, whole);
        prop_assert_eq!(report.torn_tail, cut % FRAME != 0, "torn iff the cut split a frame");
        prop_assert_eq!(recovered.len(), whole);
        for i in 0..ops {
            prop_assert_eq!(
                recovered.get(&fixed_key(i)),
                (i < whole).then(|| reference_sketch(i)),
                "key {} after cut at {}",
                i,
                cut
            );
        }
        drop(recovered);

        // The torn tail was truncated away: a second recovery is clean.
        let second = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(4)
            .durable_dir(scratch.path())
            .build();
        prop_assert!(second.recovery_report().unwrap().is_clean());
        prop_assert_eq!(second.len(), whole);
    }

    /// Flipping one bit anywhere in the log — disk bit rot — must
    /// quarantine at most the damaged region: everything before it
    /// survives, and every recovered key is bit-for-bit correct.
    #[test]
    fn bit_flip_quarantines_at_most_the_damage(ops in 1usize..40, flip in 0usize..1280) {
        let scratch = Scratch::new("flip");
        drop(one_op_per_key_store(scratch.path(), ops));

        let segments = segment_files(scratch.path());
        let path = &segments[0];
        let mut bytes = std::fs::read(path).unwrap();
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(path, &bytes).unwrap();
        let damaged_frame = bit / 8 / FRAME;

        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let recovered = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(4)
            .durable_dir(scratch.path())
            .build();
        let report = recovered.recovery_report().unwrap().clone();

        prop_assert!(
            !report.is_clean(),
            "a flipped bit cannot go unnoticed: {report:?}"
        );
        prop_assert!(
            report.records_replayed < ops,
            "the damaged record cannot replay"
        );
        for i in 0..damaged_frame {
            prop_assert_eq!(
                recovered.get(&fixed_key(i)),
                Some(reference_sketch(i)),
                "key {} precedes the damage and must survive",
                i
            );
        }
        // Nothing the store holds may be wrong — damaged records are
        // dropped, never misapplied.
        for i in 0..ops {
            if let Some(found) = recovered.get(&fixed_key(i)) {
                prop_assert_eq!(found, reference_sketch(i), "key {} corrupted silently", i);
            }
        }
    }
}

// --- Directed edges --------------------------------------------------

/// Checkpoints must delete the segments they cover, and a recovery
/// straddling checkpoint + tail must see both sides.
#[test]
fn checkpoint_truncates_log_and_recovers_with_tail() {
    let scratch = Scratch::new("checkpoint");
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    {
        let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(4)
            .durable_dir(scratch.path())
            .build();
        for i in 0..20 {
            store.ingest(&fixed_key(i), &[i as u64]);
        }
        store.remove(&fixed_key(7));
        store.checkpoint().unwrap();
        let after = store.wal_bytes_since_checkpoint().unwrap();
        assert_eq!(after, 0, "checkpoint resets the log-growth counter");
        // Tail ops after the checkpoint.
        store.ingest(&fixed_key(7), &[700]);
        store.ingest(&fixed_key(20), &[20]);
    }

    let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .shards(4)
        .durable_dir(scratch.path())
        .build();
    let report = store.recovery_report().unwrap();
    assert!(report.checkpoint_loaded, "checkpoint exists: {report:?}");
    assert_eq!(report.checkpoint_entries, 19, "20 keys minus one removed");
    assert_eq!(report.records_replayed, 2, "only the tail replays");
    assert_eq!(store.len(), 21);
    let mut rebuilt = SetSketch2::new(cfg, 2);
    rebuilt.insert_batch(&[700]);
    assert_eq!(store.get(&fixed_key(7)), Some(rebuilt), "tail op applied");
    assert_eq!(store.get(&fixed_key(20)), Some(reference_sketch(20)));
    assert_eq!(store.get(&fixed_key(3)), Some(reference_sketch(3)));
}

/// A removed key must stay removed across recovery (replay is ordered),
/// and a cleared store must come back empty.
#[test]
fn remove_and_clear_replay_in_order() {
    let scratch = Scratch::new("remove");
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    {
        let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .durable_dir(scratch.path())
            .build();
        store.ingest("a", &[1, 2, 3]);
        store.ingest("b", &[4]);
        store.remove("a");
    }
    let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .durable_dir(scratch.path())
        .build();
    assert!(!store.contains_key("a"), "removed key resurrected");
    assert!(store.contains_key("b"));
    drop(store);

    let scratch = Scratch::new("clear");
    {
        let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .durable_dir(scratch.path())
            .build();
        store.ingest("a", &[1]);
        store.ingest("b", &[2]);
        store.clear();
        store.ingest("c", &[3]);
    }
    let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .durable_dir(scratch.path())
        .build();
    assert_eq!(store.keys(), vec!["c".to_owned()], "clear must replay");
}

/// A merge refused as incompatible changes nothing, so it logs
/// nothing: a restart must not bring it back. (A record of it would
/// replay under the *local* seed, succeed, and resurrect the refused
/// state.)
#[test]
fn refused_merge_in_stays_refused_after_restart() {
    let scratch = Scratch::new("refused");
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let build = || {
        SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .durable_dir(scratch.path())
            .build()
    };
    let mut reference = SetSketch2::new(cfg, 2);
    reference.insert_batch(&[1, 2, 3]);
    {
        let store = build();
        store.ingest("a", &[1, 2, 3]);
        let mut foreign = SetSketch2::new(cfg, 99);
        foreign.insert_batch(&(100..200).collect::<Vec<u64>>());
        assert!(store.merge_in("a", &foreign).is_err());
        assert!(store.merge_in("b", &foreign).is_err());
        assert!(!store.contains_key("b"));
        assert_eq!(store.get("a"), Some(reference.clone()));
    }
    let store = build();
    let report = store.recovery_report().expect("durable store");
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.records_replayed, 1,
        "only the ingest was logged: {report}"
    );
    assert!(!store.contains_key("b"), "a refused merge created a key");
    assert_eq!(store.get("a"), Some(reference), "a refused merge changed a");
}

/// A reset racing an ingest of the same key is logged in the order the
/// two were applied, so the store rebuilt from its directory equals the
/// live one. That needs the reset's record appended under the shard
/// lock that applies it: an ingest landing between an early append and
/// the apply is logged after the reset but applied before it, and
/// replay keeps elements the live store dropped.
#[test]
fn racing_writes_on_one_key_replay_in_apply_order() {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    race_on_one_key(move || SetSketch1::new(cfg, 1));
    race_on_one_key(move || SetSketch2::new(cfg, 2));
}

/// The writes raced against an ingest in
/// [`racing_writes_on_one_key_replay_in_apply_order`].
#[derive(Debug, Clone, Copy)]
enum Reset {
    Remove,
    Put,
    Clear,
}

fn race_on_one_key<S>(factory: impl Fn() -> S + Clone + Send + Sync + 'static)
where
    S: Sketch + PartialEq + std::fmt::Debug + Send + Sync,
{
    const TRIALS: usize = 200;
    for reset in [Reset::Remove, Reset::Put, Reset::Clear] {
        let mut diverged = 0;
        for _ in 0..TRIALS {
            let scratch = Scratch::new("race");
            let build = || {
                SketchStore::builder(factory.clone())
                    .shards(1)
                    .durable_dir(scratch.path())
                    .build()
            };
            let store = build();
            store.ingest("k", &[0]);
            let mut replacement = factory();
            replacement.insert_batch(&[u64::MAX]);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    // Single fresh elements: nearly every one raises a
                    // register, so nearly every one is logged.
                    for element in 1..=32u64 {
                        store.ingest("k", &[element]);
                    }
                });
                start.wait();
                match reset {
                    Reset::Remove => drop(store.remove("k")),
                    Reset::Put => drop(store.put("k", replacement)),
                    Reset::Clear => store.clear(),
                }
            });
            let live = store.get("k");
            drop(store);
            let rebuilt = build();
            let report = rebuilt.recovery_report().expect("durable store");
            assert!(report.is_clean(), "{reset:?}: {report}");
            if rebuilt.get("k") != live {
                diverged += 1;
            }
        }
        assert_eq!(
            diverged, 0,
            "{reset:?}: the rebuilt key differed from the live one in {diverged} of {TRIALS} trials"
        );
    }
}

/// Every fsync policy must produce an equally recoverable log (they
/// differ only in when bytes reach the platter, which a plain process
/// exit cannot observe).
#[test]
fn all_fsync_policies_roundtrip() {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    for policy in [FsyncPolicy::Os, FsyncPolicy::EveryN(3), FsyncPolicy::Always] {
        let scratch = Scratch::new("fsync");
        {
            let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
                .durable_dir(scratch.path())
                .fsync_policy(policy)
                .build();
            for i in 0..10 {
                store.ingest(&fixed_key(i), &[i as u64]);
            }
        }
        let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .durable_dir(scratch.path())
            .build();
        assert_eq!(store.len(), 10, "policy {policy:?} lost records");
        for i in 0..10 {
            assert_eq!(store.get(&fixed_key(i)), Some(reference_sketch(i)));
        }
    }
}

/// `try_build` surfaces an unusable durable directory as a typed error
/// (`build` would panic), and a non-durable store reports no recovery.
#[test]
fn unusable_dir_is_a_typed_error() {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let scratch = Scratch::new("file-not-dir");
    std::fs::create_dir_all(scratch.path().parent().unwrap()).unwrap();
    std::fs::write(scratch.path(), b"not a directory").unwrap();
    let result = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .durable_dir(scratch.path())
        .try_build();
    assert!(
        matches!(result, Err(sketch_store::StoreError::Durability(_))),
        "a file where the durable dir should be must fail typed"
    );

    let plain = SketchStore::builder(move || SetSketch2::new(cfg, 2)).build();
    assert!(plain.recovery_report().is_none());
    assert_eq!(plain.wal_failures(), 0);
    assert!(plain.last_wal_error().is_none());
    plain.checkpoint().unwrap(); // no-op, not an error
}

/// Durability composes with the memory tiers: a budget-starved durable
/// store (every key demoted aggressively) must still recover
/// bit-for-bit.
#[test]
fn durable_tiered_store_recovers() {
    let scratch = Scratch::new("tiered");
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    {
        let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(4)
            .memory_budget_bytes(1)
            .durable_dir(scratch.path())
            .checkpoint_after_bytes(256)
            .build();
        for i in 0..15 {
            store.ingest(&fixed_key(i), &[i as u64]);
        }
    }
    let store = SketchStore::builder(move || SetSketch2::new(cfg, 2))
        .shards(4)
        .durable_dir(scratch.path())
        .build();
    assert_eq!(store.len(), 15);
    for i in 0..15 {
        assert_eq!(store.get(&fixed_key(i)), Some(reference_sketch(i)));
    }
}

/// An ingest batch larger than one log record can hold (64 MiB of
/// payload) is logged as several records, each readable on replay —
/// not as one frame the recovery scan takes for a torn tail and drops
/// together with everything logged after it.
#[test]
fn oversize_ingest_survives_restart() {
    let scratch = Scratch::new("oversize");
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let build = || {
        SketchStore::builder(move || SetSketch2::new(cfg, 2))
            .shards(2)
            .durable_dir(scratch.path())
            .checkpoint_after_bytes(1 << 30) // recovery must come from the log
            .build()
    };
    let elements: Vec<u64> = (0..9_000_000).collect(); // 72 MB of payload
    {
        let store = build();
        store.ingest("before", &[1, 2, 3]);
        store.ingest("big", &elements);
        store.ingest("after", &[4, 5, 6]);
        assert_eq!(store.wal_failures(), 0, "{:?}", store.last_wal_error());
    }
    let store = build();
    let report = store.recovery_report().expect("durable store");
    assert!(report.is_clean(), "{report}");
    assert_eq!(
        report.records_replayed, 4,
        "the big batch spans two records"
    );
    let mut reference = SetSketch2::new(cfg, 2);
    reference.insert_batch(&elements);
    assert_eq!(store.get("big"), Some(reference));
    assert!(store.contains_key("before") && store.contains_key("after"));
}

/// A directory written by the binary that kept `u32` resident registers
/// (checkpoint + log tail holding ingest, merge-in, put and remove
/// records — every payload a durable directory can contain) recovers
/// under natural-width registers to exactly the sketches a replay of the
/// same operations builds. The fixture was generated by the op sequence
/// below with `checkpoint_after_bytes(1500)`.
#[test]
fn directory_written_with_u32_registers_recovers_bit_for_bit() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable-dir-u32-registers");
    let scratch = Scratch::new("fixture");
    std::fs::create_dir_all(scratch.path()).unwrap();
    for entry in std::fs::read_dir(&fixture)
        .expect("fixture directory")
        .flatten()
    {
        std::fs::copy(entry.path(), scratch.path().join(entry.file_name())).unwrap();
    }

    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let factory = move || SetSketch2::new(cfg, 2);
    let sketch_of = |start: u64, len: u64| {
        let mut sketch = factory();
        sketch.insert_batch(&(start..start + len).collect::<Vec<u64>>());
        sketch
    };
    let reference = SketchStore::builder(factory).shards(4).build();
    for step in 0..12u64 {
        let key = format!("k{}", step % 5);
        match step % 4 {
            0 | 1 => {
                reference.ingest(&key, &(step * 100..step * 100 + 30).collect::<Vec<u64>>());
            }
            2 => {
                reference
                    .merge_in(&key, &sketch_of(step * 1_000, 50_000))
                    .unwrap();
            }
            _ => {
                reference.put(&key, sketch_of(step * 7, 40));
            }
        }
    }
    reference.remove("k4");
    reference.ingest("k4", &[1, 2, 3]);

    let recovered = SketchStore::builder(factory)
        .shards(4)
        .durable_dir(scratch.path())
        .build();
    let report = recovered.recovery_report().expect("durable store");
    assert!(report.is_clean(), "{report}");
    assert!(
        report.checkpoint_entries > 0 && report.records_replayed > 0,
        "the fixture exercises checkpoint load and tail replay: {report}"
    );
    assert_eq!(recovered.keys(), reference.keys());
    for key in reference.keys() {
        assert_eq!(recovered.get(&key), reference.get(&key), "key {key}");
    }
}
