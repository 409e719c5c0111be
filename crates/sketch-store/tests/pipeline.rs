//! Integration tests of the pipelined ingest front: equivalence with
//! synchronous ingest under arbitrary interleavings, bounded-memory
//! backpressure, and flush/drop semantics.

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch2, SetSketchConfig};
use sketch_store::SketchStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

fn config() -> SetSketchConfig {
    SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap()
}

fn shared_store(shards: usize, depth: usize, writers: usize) -> Arc<SketchStore<SetSketch2>> {
    let cfg = config();
    SketchStore::builder(move || SetSketch2::new(cfg, 11))
        .shards(shards)
        .queue_depth(depth)
        .writer_threads(writers)
        .build_shared()
}

/// One generated ingest: a key out of four and a batch of 0, 1 or up
/// to 12 elements.
fn op_strategy() -> impl Strategy<Value = (String, Vec<u64>)> {
    (0u8..4, 0u8..3, vec(0u64..1_000, 2..=12)).prop_map(|(key, size, mut batch)| {
        batch.truncate(if size < 2 { size as usize } else { batch.len() });
        (format!("key-{key}"), batch)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Four pipeline handles over one store, driven concurrently from
    /// four threads with arbitrary interleavings (tiny queues force
    /// backpressure), must produce a final store state identical to
    /// sequential synchronous ingest of the same batches — exactly, not
    /// within tolerance: inserts are idempotent and commutative.
    #[test]
    fn interleaved_pipelines_match_sequential(
        plans in vec(vec(op_strategy(), 0..24), 4),
    ) {
        let store = shared_store(4, 2, 2);
        {
            let pipelines: Vec<_> = (0..4).map(|_| store.clone().pipeline()).collect();
            std::thread::scope(|scope| {
                for (plan, pipeline) in plans.iter().zip(&pipelines) {
                    scope.spawn(move || {
                        for (key, batch) in plan {
                            pipeline.ingest(key, batch);
                        }
                    });
                }
            });
            for pipeline in &pipelines {
                pipeline.flush();
            }
        } // handles dropped: queues drained, writers joined

        let reference = SketchStore::builder(move || SetSketch2::new(config(), 11))
            .shards(4)
            .build();
        for (key, batch) in plans.iter().flatten() {
            reference.ingest(key, batch);
        }

        prop_assert_eq!(store.keys(), reference.keys());
        for key in reference.keys() {
            prop_assert_eq!(store.get(&key), reference.get(&key), "key {} diverged", key);
        }
    }
}

/// A full queue must make producers block (bounded memory), not grow:
/// with the single writer wedged behind a held shard lock, exactly
/// `queue_depth` further batches are accepted, the next one parks, and
/// everything applies after the lock is released.
#[test]
fn full_queue_blocks_instead_of_growing() {
    let depth = 4;
    let store = shared_store(1, depth, 1);
    store.insert("k", 0); // the key exists before the lock is taken
    let pipeline = store.clone().pipeline();

    // Wedge the writer: hold the only shard's read lock hostage so the
    // writer's ingest (which needs the write lock) cannot finish.
    let (locked_tx, locked_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = {
        let store = store.clone();
        std::thread::spawn(move || {
            store.with_sketch("k", |_| {
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        })
    };
    locked_rx.recv().unwrap();

    // Submit one batch; once the idle writer takes it (single-batch
    // burst) it wedges mid-apply on the held shard lock, so nothing else
    // can drain and the fill below is deterministic. The writer's
    // wake-up latency is microseconds; the sleep makes the ordering
    // safe.
    pipeline.ingest("k", &[1]);
    std::thread::sleep(Duration::from_millis(200));

    let (accepted_tx, accepted_rx) = mpsc::channel::<u64>();
    std::thread::scope(|scope| {
        let pipeline = &pipeline;
        scope.spawn(move || {
            for e in 2..=depth as u64 + 2 {
                pipeline.ingest("k", &[e]);
                accepted_tx.send(e).unwrap();
            }
        });
        // Exactly `depth` more batches are accepted promptly...
        for e in 2..depth as u64 + 2 {
            let accepted = accepted_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("batch {e} refused while the queue had room"));
            assert_eq!(accepted, e);
        }
        // ...and the next one parks rather than returning...
        assert_eq!(
            accepted_rx.recv_timeout(Duration::from_millis(200)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "ingest returned while the queue was full"
        );
        // ...until the writer unwedges and drains the queue.
        release_tx.send(()).unwrap();
        assert_eq!(
            accepted_rx.recv_timeout(Duration::from_secs(10)),
            Ok(depth as u64 + 2),
            "parked ingest completed after release"
        );
    });
    holder.join().unwrap();
    pipeline.flush();

    // Every accepted element (0..=depth+2) reached the store.
    let mut reference = SetSketch2::new(config(), 11);
    sketch_core::Sketch::insert_batch(&mut reference, &(0..=depth as u64 + 2).collect::<Vec<_>>());
    assert_eq!(store.get("k").unwrap(), reference);
}

/// Dropping the pipeline drains accepted batches without an explicit
/// flush.
#[test]
fn drop_drains_accepted_operations() {
    let store = shared_store(4, 64, 2);
    {
        let pipeline = store.clone().pipeline();
        for e in 0..500u64 {
            pipeline.ingest("events", &[e]);
        }
        pipeline.ingest("events", &(500..600).collect::<Vec<_>>());
    } // no flush: Drop must drain
    let mut reference = SetSketch2::new(config(), 11);
    sketch_core::Sketch::insert_batch(&mut reference, &(0..600).collect::<Vec<_>>());
    assert_eq!(store.get("events").unwrap(), reference);
}

/// A flush on an idle pipeline returns at once, and a flush after a
/// submission makes it visible.
#[test]
fn flush_covers_only_prior_submissions() {
    let store = shared_store(2, 8, 1);
    let pipeline = store.clone().pipeline();
    pipeline.flush(); // idle: returns immediately
    pipeline.ingest("k", &[1]);
    pipeline.flush();
    assert!(store.contains_key("k"));
}

/// A flush waits only for what was submitted before it: producers that
/// never stop ingesting cannot starve it.
#[test]
fn flush_returns_while_producers_keep_ingesting() {
    let store = shared_store(4, 8, 2);
    let pipeline = store.clone().pipeline();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for producer in 0..2u64 {
            let (pipeline, done) = (&pipeline, &done);
            scope.spawn(move || {
                let mut e = 0;
                while !done.load(Ordering::Relaxed) {
                    pipeline.ingest(&format!("p{producer}-{}", e % 8), &[e]);
                    e += 1;
                }
            });
        }
        scope.spawn(|| {
            for _ in 0..100 {
                pipeline.flush();
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    pipeline.flush();
    assert!(store.contains_key("p0-0") && store.contains_key("p1-0"));
}

/// A sketch update that panics on a writer thread must not wedge the
/// pipeline: flushes and producers still complete, and the panic
/// resurfaces when the pipeline is dropped.
#[test]
fn writer_panic_wakes_flush_and_resurfaces_on_drop() {
    #[derive(Clone, Default, PartialEq)]
    struct Panicky;
    // A stateless sketch: merging and the codec are trivial, and no
    // query reaches it.
    impl sketch_core::Sketch for Panicky {
        type Incompatible = std::convert::Infallible;
        type DecodeError = std::convert::Infallible;
        fn insert_batch_changed(&mut self, elements: &[u64]) -> bool {
            assert!(!elements.contains(&42), "poison pill");
            false
        }
        fn insert_bytes(&mut self, _bytes: &[u8]) {}
        fn merge_from(&mut self, _other: &Self) -> Result<bool, Self::Incompatible> {
            Ok(false)
        }
        fn merge_many<'a, I>(&mut self, _others: I) -> Result<(), Self::Incompatible>
        where
            I: IntoIterator<Item = &'a Self>,
        {
            Ok(())
        }
        fn compress(&self) -> Vec<u8> {
            Vec::new()
        }
        fn decompress(_prototype: &Self, _bytes: &[u8]) -> Result<Self, Self::DecodeError> {
            Ok(Panicky)
        }
        fn resident_bytes(&self) -> usize {
            0
        }
        fn cardinality(&self) -> f64 {
            unreachable!()
        }
        fn joint(&self, _other: &Self) -> Result<sketch_core::JointQuantities, Self::Incompatible> {
            unreachable!()
        }
        fn joint_with_cardinalities(
            &self,
            _other: &Self,
            _n_u: f64,
            _n_v: f64,
        ) -> Result<sketch_core::JointQuantities, Self::Incompatible> {
            unreachable!()
        }
        fn signature_len(&self) -> usize {
            unreachable!()
        }
        fn signature_into(&self, _out: &mut Vec<u32>) {
            unreachable!()
        }
        fn register_collision_probability(&self, _jaccard: f64) -> f64 {
            unreachable!()
        }
        fn ordinal_registers(&self) -> bool {
            unreachable!()
        }
    }

    let store = SketchStore::builder(Panicky::default)
        .shards(1)
        .queue_depth(4)
        .writer_threads(1)
        .build_shared();
    let pipeline = store.clone().pipeline();
    pipeline.ingest("k", &[42]);
    pipeline.flush(); // must not hang on the dead burst
    pipeline.ingest("k", &[1]); // the writer survives and keeps applying
    pipeline.flush();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(pipeline)));
    assert!(outcome.is_err(), "drop must resurface the sketch panic");
}
