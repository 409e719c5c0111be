//! Property-based tests (proptest) of the store's concurrency
//! invariant: shard-parallel `ingest` followed by merge-down must equal
//! single-threaded insertion — for both SetSketch variants, the sketches
//! the store serves (the inserts are idempotent and commutative, so
//! thread interleaving must be invisible).

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::Sketch;
use sketch_store::SketchStore;

/// One generated workload: four "threads" worth of element batches.
type Batches = Vec<Vec<u64>>;

fn batches_strategy() -> impl Strategy<Value = Batches> {
    vec(vec(0u64..2_000, 0..80), 4)
}

/// Ingests the four batches from four real threads into two overlapping
/// keys, then checks key states and the merged-down union against
/// single-threaded references.
fn parallel_matches_sequential<S>(
    factory: impl Fn() -> S + Clone + Send + Sync + 'static,
    batches: &Batches,
) -> Result<(), TestCaseError>
where
    S: Sketch + std::fmt::Debug,
{
    // Thread t writes key "k{t % 2}": threads 0/2 and 1/3 collide.
    let store = SketchStore::builder(factory.clone()).shards(4).build();
    std::thread::scope(|scope| {
        for (t, batch) in batches.iter().enumerate() {
            let store = &store;
            scope.spawn(move || store.ingest(&format!("k{}", t % 2), batch));
        }
    });

    for key_index in 0..2usize {
        let mut expected = factory();
        for (t, batch) in batches.iter().enumerate() {
            if t % 2 == key_index {
                expected.insert_batch(batch);
            }
        }
        let ingested_any = batches.iter().enumerate().any(|(t, _)| t % 2 == key_index);
        if ingested_any {
            let actual = store
                .get(&format!("k{key_index}"))
                .expect("key was ingested");
            prop_assert_eq!(actual, expected, "key k{} diverged", key_index);
        }
    }

    let mut expected_union = factory();
    for batch in batches {
        expected_union.insert_batch(batch);
    }
    if let Some(merged) = store.merge_down().expect("compatible by construction") {
        prop_assert_eq!(merged, expected_union, "merge-down diverged");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_ingest_setsketch1(batches in batches_strategy()) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        parallel_matches_sequential(move || SetSketch1::new(cfg, 1), &batches)?;
    }

    #[test]
    fn parallel_ingest_setsketch2(batches in batches_strategy()) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        parallel_matches_sequential(move || SetSketch2::new(cfg, 2), &batches)?;
    }

}
