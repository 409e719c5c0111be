//! Throughput of the sharded sketch store and its pipelined ingest
//! front.
//!
//! Criterion micro-benchmarks measure the serving-layer costs the store
//! adds on top of the raw sketches:
//!
//! * batched ingest vs per-element insert (one lock acquisition per
//!   batch, plus SetSketch's deduplicated value-order fill);
//! * multi-threaded ingest scaling across shards;
//! * cross-key joint queries (lock + estimator).
//!
//! Two custom-timed series follow:
//!
//! * **sync vs pipelined ingest** — one caller streaming 256-element
//!   batches synchronously, against the same caller enqueueing into an
//!   `IngestPipeline` drained by 1 / 2 / 4 dedicated writer threads,
//!   recorded into `BENCH_pipeline.json` at the workspace root;
//! * **warm all-pairs** — the LSH-pruned similarity sweep at N keys
//!   over an index a first query already tuned and filled (printed
//!   only).
//!
//! Passing `--test` (i.e. `cargo bench --bench store_throughput --
//! --test`) or setting `STORE_THROUGHPUT_SMOKE=1` runs small smoke
//! corpora instead — every code path exercised in seconds, JSON
//! untouched.

use bench::bench_elements;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_store::{QueryOptions, SketchStore};
use std::sync::Arc;
use std::time::Instant;

/// True when the bench should run the tiny smoke corpora.
fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("STORE_THROUGHPUT_SMOKE").is_some()
}

fn store_config() -> SetSketchConfig {
    SetSketchConfig::new(256, 2.0, 20.0, 62).expect("valid")
}

fn new_store(shards: usize) -> SketchStore<SetSketch2> {
    let config = store_config();
    SketchStore::builder(move || SetSketch2::new(config, 7))
        .shards(shards)
        .build()
}

fn bench_ingest(c: &mut Criterion) {
    const BATCH: u64 = 10_000;
    let elements: Vec<u64> = bench_elements(1, BATCH).collect();
    let mut group = c.benchmark_group("store_throughput");
    group.throughput(Throughput::Elements(BATCH));

    group.bench_function("ingest_batched", |bencher| {
        let store = new_store(16);
        bencher.iter(|| store.ingest("key", black_box(&elements)));
    });

    group.bench_function("insert_per_element", |bencher| {
        let store = new_store(16);
        bencher.iter(|| {
            for &e in &elements {
                store.insert("key", black_box(e));
            }
        });
    });

    // The same batch recorded into a bare sketch: the store's overhead
    // is the difference to ingest_batched.
    group.bench_function("bare_sketch_batched", |bencher| {
        let mut sketch = SetSketch2::new(store_config(), 7);
        bencher.iter(|| sketch_core::BatchInsert::insert_batch(&mut sketch, black_box(&elements)));
    });

    group.finish();
}

fn bench_parallel_ingest(c: &mut Criterion) {
    const THREADS: u64 = 4;
    const BATCH: u64 = 5_000;
    let mut group = c.benchmark_group("store_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(THREADS * BATCH));

    // Disjoint keys: each thread owns a key; shards absorb the traffic.
    group.bench_function(
        format!("parallel_ingest/{THREADS}threads_disjoint_keys"),
        |bencher| {
            let store = new_store(16);
            let batches: Vec<Vec<u64>> = (0..THREADS)
                .map(|t| bench_elements(t, BATCH).collect())
                .collect();
            bencher.iter(|| {
                std::thread::scope(|scope| {
                    for (t, batch) in batches.iter().enumerate() {
                        let store = &store;
                        scope.spawn(move || store.ingest(&format!("key{t}"), black_box(batch)));
                    }
                });
            });
        },
    );

    // One hot key: all threads contend on a single shard lock.
    group.bench_function(
        format!("parallel_ingest/{THREADS}threads_hot_key"),
        |bencher| {
            let store = new_store(16);
            let batches: Vec<Vec<u64>> = (0..THREADS)
                .map(|t| bench_elements(t, BATCH).collect())
                .collect();
            bencher.iter(|| {
                std::thread::scope(|scope| {
                    for batch in &batches {
                        let store = &store;
                        scope.spawn(move || store.ingest("hot", black_box(batch)));
                    }
                });
            });
        },
    );

    group.finish();
}

fn bench_queries(c: &mut Criterion) {
    let store = new_store(16);
    for k in 0..8u64 {
        let elements: Vec<u64> = bench_elements(k, 20_000)
            .chain(bench_elements(100, 20_000))
            .collect();
        store.ingest(&format!("key{k}"), &elements);
    }
    let mut group = c.benchmark_group("store_queries");
    group.bench_function("cardinality", |bencher| {
        bencher.iter(|| store.cardinality(black_box("key0")).expect("present"))
    });
    group.bench_function("jaccard", |bencher| {
        bencher.iter(|| {
            store
                .jaccard(black_box("key0"), black_box("key5"))
                .expect("present")
        })
    });
    group.bench_function("union_cardinality/4keys", |bencher| {
        bencher.iter(|| {
            store
                .union_cardinality(&["key0", "key1", "key2", "key3"])
                .expect("present")
        })
    });
    group.finish();
}

// --- Sync vs pipelined ingest ---------------------------------------

/// Keys the pipelined workload fans across (spread over shards, so
/// every writer thread sees traffic).
const PIPE_KEYS: u64 = 16;

/// Elements per pipeline submission (the acceptance operating point is
/// ≥ 256).
const PIPE_BATCH: u64 = 256;

struct PipelineSeries {
    writers: usize,
    millis: f64,
    /// Versus the single caller doing one synchronous `insert` per
    /// event (the request-thread serving pattern the pipeline
    /// replaces: a sync caller cannot batch without stalling its
    /// requests, the pipeline batches off the request path).
    speedup_vs_per_event: f64,
    /// Versus the single caller doing synchronous 256-element `ingest`
    /// calls — isolates queue/writer overhead and multi-core writer
    /// scaling from the batching win.
    speedup_vs_batched: f64,
}

struct PipelineReport {
    events: u64,
    cpus: usize,
    sync_per_event_millis: f64,
    sync_batched_millis: f64,
    series: Vec<PipelineSeries>,
}

/// One caller streaming events: synchronously (per event, and in
/// 256-element batches), then enqueueing 256-element batches into
/// pipelines with 1 / 2 / 4 writer threads (writers coalesce each
/// burst per key into large batched applies).
fn run_pipeline_comparison(smoke: bool) -> PipelineReport {
    let rounds: u64 = if smoke { 10 } else { 400 };
    let events = PIPE_KEYS * rounds * PIPE_BATCH;
    let names: Vec<String> = (0..PIPE_KEYS).map(|k| format!("key{k:03}")).collect();
    // Per-key event streams, pre-generated so every series pays the
    // same (zero) generation cost inside its timed region.
    let streams: Vec<Vec<u64>> = (0..PIPE_KEYS)
        .map(|key| bench_elements(1_000 + key, rounds * PIPE_BATCH).collect())
        .collect();

    // Baseline 1: one synchronous insert per event (shard lock +
    // version stamp + register update on the caller, per event).
    let per_event_store = new_store(16);
    let start = Instant::now();
    for (key, stream) in names.iter().zip(&streams) {
        for &event in stream {
            per_event_store.insert(key, event);
        }
    }
    let sync_per_event_millis = start.elapsed().as_secs_f64() * 1e3;

    // Baseline 2: synchronous 256-element batched ingest.
    let sync_store = new_store(16);
    let start = Instant::now();
    for round in 0..rounds as usize {
        for (key, stream) in names.iter().zip(&streams) {
            let at = round * PIPE_BATCH as usize;
            sync_store.ingest(key, &stream[at..at + PIPE_BATCH as usize]);
        }
    }
    let sync_batched_millis = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        sync_store.get(&names[0]),
        per_event_store.get(&names[0]),
        "batched and per-event ingest must agree"
    );

    let mut series = Vec::new();
    for writers in [1usize, 2, 4] {
        let config = store_config();
        let store: Arc<SketchStore<SetSketch2>> =
            SketchStore::builder(move || SetSketch2::new(config, 7))
                .shards(16)
                .queue_depth(1024)
                .writer_threads(writers)
                .build_shared();
        let pipeline = store.clone().pipeline();
        let start = Instant::now();
        for round in 0..rounds as usize {
            for (key, stream) in names.iter().zip(&streams) {
                let at = round * PIPE_BATCH as usize;
                pipeline.ingest(key, &stream[at..at + PIPE_BATCH as usize]);
            }
        }
        pipeline.flush();
        let millis = start.elapsed().as_secs_f64() * 1e3;

        // Pipelined ingest must reproduce the synchronous state.
        for key in [0u64, PIPE_KEYS - 1] {
            assert_eq!(
                store.get(&names[key as usize]),
                sync_store.get(&names[key as usize]),
                "pipelined state diverged"
            );
        }
        series.push(PipelineSeries {
            writers,
            millis,
            speedup_vs_per_event: sync_per_event_millis / millis,
            speedup_vs_batched: sync_batched_millis / millis,
        });
    }

    PipelineReport {
        events,
        cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sync_per_event_millis,
        sync_batched_millis,
        series,
    }
}

// --- Warm all-pairs sweep --------------------------------------------

fn sweep_config() -> SetSketchConfig {
    // m = 256 at b = 1.001: register collision probability ≈ J, the
    // same corpus shape as the lsh_queries headline sweep.
    SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).expect("valid")
}

/// The sweep corpus of `lsh_queries`: near-duplicate key pairs with
/// target Jaccard cycling through 0.30..0.95, plus a small shared core.
fn build_sweep_store(n: usize) -> SketchStore<SetSketch1> {
    const ELEMENTS_PER_KEY: u64 = 2000;
    let cfg = sweep_config();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(16)
        .build();
    let mut batch: Vec<u64> = Vec::new();
    for key in 0..n {
        let pair = (key / 2) as u64;
        let target_j = 0.30 + 0.65 * (pair % 100) as f64 / 99.0;
        let shared = (2.0 * ELEMENTS_PER_KEY as f64 * target_j / (1.0 + target_j)).round() as u64;
        batch.clear();
        batch.extend(bench_elements(10_000_000 + pair, shared));
        batch.extend(bench_elements(
            20_000_000 + key as u64,
            ELEMENTS_PER_KEY - shared,
        ));
        batch.extend(bench_elements(30_000_000, 100)); // global core
        store.ingest(&format!("key-{key:05}"), &batch);
    }
    store
}

struct SweepReport {
    n: usize,
    threshold: f64,
    millis: f64,
    pairs: usize,
}

/// The median of three warm all-pairs sweeps at `threshold`: an
/// untimed first query takes tuning and banding off the timings.
fn run_warm_sweep(n: usize) -> SweepReport {
    let threshold = 0.5;
    let store = build_sweep_store(n);
    let sweep = || {
        store
            .all_pairs_with(threshold, &QueryOptions::default())
            .expect("compatible")
    };
    let pairs = sweep().len();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let repeat = sweep();
            let millis = start.elapsed().as_secs_f64() * 1e3;
            assert_eq!(repeat.len(), pairs, "a warm sweep must repeat its answer");
            millis
        })
        .collect();
    times.sort_by(f64::total_cmp);
    SweepReport {
        n,
        threshold,
        millis: times[1],
        pairs,
    }
}

// --- Reporting ------------------------------------------------------

fn print_reports(pipeline: &PipelineReport, sweep: &SweepReport) {
    let line = |name: &str, value: String| println!("{name:<60} {value}");
    line(
        &format!("pipeline/sync_insert_per_event/{}keys", PIPE_KEYS),
        format!(
            "time: [{:.1} ms]  ({:.1} Mevent/s)",
            pipeline.sync_per_event_millis,
            pipeline.events as f64 / pipeline.sync_per_event_millis / 1e3
        ),
    );
    line(
        &format!("pipeline/sync_ingest_batch{}/{}keys", PIPE_BATCH, PIPE_KEYS),
        format!(
            "time: [{:.1} ms]  ({:.1} Mevent/s)",
            pipeline.sync_batched_millis,
            pipeline.events as f64 / pipeline.sync_batched_millis / 1e3
        ),
    );
    for series in &pipeline.series {
        line(
            &format!(
                "pipeline/pipelined_batch{}/{}writers",
                PIPE_BATCH, series.writers
            ),
            format!(
                "time: [{:.1} ms]  ({:.1} Mevent/s, {:.2}x vs per-event, {:.2}x vs batched sync)",
                series.millis,
                pipeline.events as f64 / series.millis / 1e3,
                series.speedup_vs_per_event,
                series.speedup_vs_batched
            ),
        );
    }
    println!(
        "pipeline: {} cpus available (writer-thread scaling needs > 1)",
        pipeline.cpus
    );
    line(
        &format!("queries/all_pairs_warm/{}", sweep.n),
        format!(
            "time: [{:.1} ms]  ({} pairs at J >= {})",
            sweep.millis, sweep.pairs, sweep.threshold
        ),
    );
}

fn write_json(pipeline: &PipelineReport) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    let series: Vec<String> = pipeline
        .series
        .iter()
        .map(|s| {
            format!(
                "{{\"writers\": {}, \"millis\": {:.1}, \"speedup_vs_sync_per_event\": {:.2}, \
                 \"speedup_vs_sync_batched\": {:.2}}}",
                s.writers, s.millis, s.speedup_vs_per_event, s.speedup_vs_batched
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"note\": \"one caller streaming one event stream over {keys} keys: \
         synchronous per-event insert (the request-thread pattern) and synchronous \
         {batch}-element ingest, vs enqueueing {batch}-element batches into the bounded \
         pipeline drained by dedicated writer threads that coalesce each burst per key \
         (flush included in the timing); speedup_vs_sync_per_event is the serving-pattern \
         claim, speedup_vs_sync_batched isolates queue overhead and multi-core writer \
         scaling (needs cpus > 1)\",\n  \
         \"pipeline\": {{\n    \"config\": {{\"keys\": {keys}, \"batch\": {batch}, \
         \"events\": {events}, \"shards\": 16, \"queue_depth\": 1024, \"m\": 256, \
         \"b\": 2.0, \"cpus\": {cpus}}},\n    \
         \"sync_per_event_millis\": {sync_pe:.1},\n    \
         \"sync_batched_millis\": {sync_b:.1},\n    \
         \"pipelined\": [{series}]\n  }}\n}}\n",
        keys = PIPE_KEYS,
        batch = PIPE_BATCH,
        events = pipeline.events,
        cpus = pipeline.cpus,
        sync_pe = pipeline.sync_per_event_millis,
        sync_b = pipeline.sync_batched_millis,
        series = series.join(", "),
    );
    if let Err(error) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {error}");
    } else {
        println!("recorded pipeline measurements into {path}");
    }
}

fn bench_pipeline_and_sweep(_c: &mut Criterion) {
    let smoke = smoke_mode();
    let pipeline = run_pipeline_comparison(smoke);
    let sweep = run_warm_sweep(if smoke { 400 } else { 10_000 });
    print_reports(&pipeline, &sweep);
    if !smoke {
        write_json(&pipeline);
    }
}

criterion_group!(
    benches,
    bench_ingest,
    bench_parallel_ingest,
    bench_queries,
    bench_pipeline_and_sweep
);
criterion_main!(benches);
