//! Paged delta extraction: whatever the page size, and with a writer
//! stamping keys while the pages are cut, paging a store from version
//! 0 ships exactly what one unbounded sweep ships, and a page's
//! `up_to` never claims a key it did not carry.

use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_core::CompactSketch;
use sketch_store::SketchStore;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

fn store() -> SketchStore<SetSketch1> {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    SketchStore::builder(move || SetSketch1::new(config, 3))
        .shards(4)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn paging_from_zero_ships_what_one_sweep_ships(
        keys in 1usize..40,
        page_pick in 0usize..6,
        page_size in 65usize..2_000,
        writes in 0u64..300,
    ) {
        let page_bytes = [0, 64, usize::MAX].get(page_pick).copied().unwrap_or(page_size);
        let source = store();
        for key in 0..keys {
            let elements: Vec<u64> = (0..50).map(|j| (key * 1_000 + j) as u64).collect();
            source.ingest(&format!("key-{key}"), &elements);
        }
        let receiver = store();
        let prototype = receiver.empty_sketch();
        // The newest version each key was shipped at.
        let mut shipped: HashMap<String, u64> = HashMap::new();
        let mut after = 0u64;
        let mut stalled = 0;
        let writer_done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            // Restamps existing keys and creates new ones while the
            // pages are being cut.
            scope.spawn(|| {
                for write in 0..writes {
                    let key = if write % 3 == 0 {
                        format!("late-{write}")
                    } else {
                        format!("key-{}", write as usize % keys)
                    };
                    source.ingest(&key, &[1_000_000 + write]);
                }
                writer_done.store(true, Ordering::Release);
            });

            loop {
                // Read before the call, so the last page is cut from a
                // store the writer has left alone.
                let quiet = writer_done.load(Ordering::Acquire);
                let page = source.delta_since(after, page_bytes);

                // The page is bounded: without its last entry it fits
                // the budget. An unfinished page carries something.
                let costs: Vec<usize> = page
                    .entries
                    .iter()
                    .map(|entry| entry.key.len() + entry.payload.len() + 16)
                    .collect();
                if let Some(last) = costs.last() {
                    prop_assert!(costs.iter().sum::<usize>() - last < page_bytes.max(1));
                }
                prop_assert!(page.complete || !page.is_empty());
                prop_assert!(page.up_to <= source.write_epoch());

                for entry in &page.entries {
                    prop_assert!(entry.version > after);
                    let sketch = SetSketch1::decompress(&prototype, &entry.payload).unwrap();
                    receiver.merge_in(&entry.key, &sketch).unwrap();
                    let newest = shipped.entry(entry.key.clone()).or_insert(0);
                    *newest = (*newest).max(entry.version);
                }
                // No key stamped at or below `up_to` is missing: what
                // the store holds there now, some page has carried at
                // that version or a later one.
                for key in source.keys() {
                    let Some(version) = source.version_of(&key) else {
                        continue;
                    };
                    if version <= page.up_to {
                        prop_assert!(
                            shipped.get(&key).is_some_and(|&newest| newest >= version),
                            "page up_to {} covers {key:?}@{version}, never shipped",
                            page.up_to
                        );
                    }
                }

                if page.up_to > after {
                    after = page.up_to;
                    stalled = 0;
                } else if !page.complete {
                    // Every key of the page was stamped during its own
                    // sweep; the next sweep's epoch is past them.
                    stalled += 1;
                    prop_assert!(stalled < 1_000, "paging stopped advancing at {after}");
                }
                if page.complete && quiet {
                    prop_assert_eq!(page.up_to, source.write_epoch());
                    break;
                }
            }
            Ok(())
        })?;

        // The union of the pages is the unpaged sweep: same keys, and
        // the receiver holds the same registers bit for bit.
        let whole = source.delta_since(0, usize::MAX);
        prop_assert!(whole.complete);
        prop_assert_eq!(whole.up_to, source.write_epoch());
        let mut unpaged: Vec<&str> = whole.entries.iter().map(|e| e.key.as_str()).collect();
        unpaged.sort_unstable();
        let mut paged: Vec<&str> = shipped.keys().map(String::as_str).collect();
        paged.sort_unstable();
        prop_assert_eq!(paged, unpaged);
        prop_assert!(whole.entries.windows(2).all(|pair| pair[0].version < pair[1].version));
        for entry in &whole.entries {
            prop_assert_eq!(receiver.get(&entry.key), source.get(&entry.key));
        }
    }
}
