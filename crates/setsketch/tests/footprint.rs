//! The self-reported memory metric, pinned to the allocator.
//!
//! `resident_bytes()` / `memory_footprint()` is what the store's memory
//! budget and the benchmark ledger's `mem_bytes_per_key` read, so it must
//! be what a resident sketch actually holds. This binary installs a
//! counting global allocator and checks, at every register width, that a
//! filled sketch's live heap bytes equal `resident_bytes() −
//! size_of::<Self>()`, that a clone allocates exactly that much, and
//! that further inserts allocate nothing per key (the shuffle and the
//! hash buffer live in one per-thread scratch).
//!
//! Own test binary: a `#[global_allocator]` is process-wide.

#![allow(unsafe_code)]

use hyperloglog::{GhllConfig, GhllSketch};
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::{BatchInsert, CompactSketch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not yet freed (tests run on
    /// parallel threads; each measures only its own).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// Allocation calls this thread has made.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only const-initialized thread-locals without destructors, which
// neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|live| live.set(live.get() + layout.size() as isize));
        CALLS.with(|calls| calls.set(calls.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|live| live.set(live.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(live bytes retained, allocation calls made)` by `f` on this thread;
/// whatever `f` returns is kept alive across the measurement.
fn measure<R>(f: impl FnOnce() -> R) -> (R, isize, usize) {
    let (live, calls) = (LIVE.get(), CALLS.get());
    let result = f();
    (result, LIVE.get() - live, CALLS.get() - calls)
}

/// The footprint contract for one sketch family and configuration.
/// `prototype` owns the configuration-level shared state (power table,
/// interval boundaries), so clones of it allocate per-key state only.
fn check_footprint<S>(prototype: &S, lane_bytes: usize, m: usize, label: &str)
where
    S: BatchInsert + CompactSketch + Clone,
{
    // Warm this thread's insert scratch (shuffle domain, hash buffer) on
    // a sketch and a batch of the sizes measured below.
    let elements: Vec<u64> = (0..50_000).collect();
    prototype.clone().insert_batch(&elements);

    let (mut sketch, live, _) = measure(|| {
        let mut sketch = prototype.clone();
        sketch.insert_batch(&elements);
        sketch
    });
    let heap = sketch.resident_bytes() - std::mem::size_of::<S>();
    assert_eq!(live as usize, heap, "{label}: live heap of a filled sketch");
    assert!(
        heap >= m * lane_bytes && heap < m * lane_bytes + 4 * 1024,
        "{label}: {heap} heap bytes is not {lane_bytes} B/register (+ histogram) at m = {m}"
    );

    let (clone, live, _) = measure(|| sketch.clone());
    assert_eq!(live as usize, heap, "{label}: bytes a clone allocates");
    drop(clone);

    // Steady ingest: single inserts and batches, 100k further elements.
    let more: Vec<u64> = (1_000_000..1_050_000).collect();
    let ((), live, calls) = measure(|| {
        for e in 2_000_000..2_050_000u64 {
            sketch.insert_u64(e);
        }
        sketch.insert_batch(&more);
    });
    assert_eq!((live, calls), (0, 0), "{label}: inserts allocated");

    // A decoded sketch holds exactly what the original does.
    let bytes = sketch.compress();
    let (restored, live, _) = measure(|| S::decompress(prototype, &bytes).expect("round trip"));
    assert_eq!(live as usize, heap, "{label}: bytes a decoded sketch holds");
    assert_eq!(restored.resident_bytes(), sketch.resident_bytes());
}

#[test]
fn setsketch_resident_bytes_are_the_live_heap_bytes() {
    // (m, b, q, bytes per register): the paper's b = 2 configuration on
    // byte lanes, its two-byte b = 1.001 example, and a scale past both.
    for (m, b, q, lane_bytes) in [
        (4096, 2.0, 62, 1),
        (256, 1.001, 65_534, 2),
        (256, 1.001, 65_535, 4),
        (256, 1.0005, 131_070, 4),
    ] {
        let config = SetSketchConfig::new(m, b, 20.0, q).unwrap();
        let label = format!("m={m} b={b} q={q}");
        check_footprint(
            &SetSketch1::new(config, 5),
            lane_bytes,
            m,
            &format!("SetSketch1 {label}"),
        );
        check_footprint(
            &SetSketch2::new(config, 5),
            lane_bytes,
            m,
            &format!("SetSketch2 {label}"),
        );
    }
    // The headline: 4 096 one-byte registers + the 64-bucket histogram.
    let config = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
    let sketch = SetSketch2::new(config, 5);
    assert_eq!(
        sketch.resident_bytes(),
        4096 + 64 * 4 + std::mem::size_of::<SetSketch2>()
    );
}

#[test]
fn ghll_resident_bytes_are_the_live_heap_bytes() {
    let config = GhllConfig::new(4096, 2.0, 62).unwrap();
    check_footprint(&GhllSketch::new(config, 5), 1, 4096, "GHLL q=62");
    check_footprint(
        &GhllSketch::with_lower_bound_tracking(config, 5),
        1,
        4096,
        "GHLL q=62 tracked",
    );
    assert_eq!(
        GhllSketch::new(config, 5).resident_bytes(),
        4096 + std::mem::size_of::<GhllSketch>()
    );
}
