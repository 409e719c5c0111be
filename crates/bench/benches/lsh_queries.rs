//! LSH query benchmarks (paper §3.3 use case), from index micro-costs
//! to the store's batched similarity query engine.
//!
//! The headline comparison is **LSH-pruned vs exhaustive all-pairs**
//! over a [`SketchStore`] of `N` keys: the pruned sweep generates
//! candidates through the auto-tuned banding index over SetSketch
//! registers and verifies only survivors with the exact joint
//! estimator, while the exhaustive reference verifies all N·(N−1)/2
//! pairs. Both return identical quantities for every reported pair, so
//! the comparison also measures recall (similar pairs the pruning
//! missed).
//!
//! The sweep results are printed in the criterion shim's format and
//! recorded into `BENCH_queries.json` at the workspace root.
//!
//! Passing `--test` (i.e. `cargo bench --bench lsh_queries -- --test`)
//! or setting `LSH_QUERIES_SMOKE=1` runs a small smoke corpus instead —
//! every code path exercised in seconds, JSON untouched.

use bench::bench_elements;
use criterion::{criterion_group, criterion_main, Criterion};
use lsh::LshIndex;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SketchStore};
use std::time::Instant;

/// Jaccard threshold of the headline sweep (matches the recorded claim:
/// recall ≥ 0.95 for pairs at J ≥ 0.5, speedup ≥ 10×).
const THRESHOLD: f64 = 0.5;

/// Elements recorded per key.
const ELEMENTS_PER_KEY: u64 = 2000;

/// True when the bench should run the tiny smoke corpus.
fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("LSH_QUERIES_SMOKE").is_some()
}

fn sweep_config() -> SetSketchConfig {
    // m = 256 at b = 1.001: fine register scale, P(register equal) ≈ J
    // (Figure 3 right panel), the sharpest banding input SetSketch has.
    SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).expect("valid")
}

/// Builds the sweep corpus: `n` keys in near-duplicate pairs
/// (key 2p with key 2p+1) whose target Jaccard cycles through
/// 0.30..0.95, plus a small core shared by every key so dissimilar
/// pairs are not trivially disjoint.
fn build_store(n: usize) -> SketchStore<SetSketch1> {
    let cfg = sweep_config();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(16)
        .build();
    let mut batch: Vec<u64> = Vec::new();
    for key in 0..n {
        let pair = (key / 2) as u64;
        // Solve J = s / (2L − s) for the shared prefix length s.
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

/// One timed run of `op`, in milliseconds.
fn time_millis<R>(op: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = op();
    (start.elapsed().as_secs_f64() * 1e3, result)
}

struct SweepReport {
    n: usize,
    exhaustive_ms: f64,
    exhaustive_pairs: usize,
    pruned_cold_ms: f64,
    pruned_warm_ms: f64,
    pruned_pairs: usize,
    recall: f64,
    bands: usize,
    rows: usize,
    top_k_ms: f64,
}

/// Runs the pruned-vs-exhaustive comparison once at corpus size `n`.
fn run_sweep(n: usize) -> SweepReport {
    let store = build_store(n);
    let flat = QueryOptions::default();
    let reference = flat.index(IndexStrategy::Exhaustive);
    let sweep = |options| {
        store
            .all_pairs_with(THRESHOLD, options)
            .expect("compatible")
    };

    // Cold pruned sweep: pays banding auto-tune + full initial indexing.
    let (pruned_cold_ms, pruned) = time_millis(|| sweep(&flat));
    // Warm: index already maintained, median of three runs.
    let mut warm: Vec<f64> = (0..3).map(|_| time_millis(|| sweep(&flat)).0).collect();
    warm.sort_by(f64::total_cmp);
    let pruned_warm_ms = warm[1];

    let (exhaustive_ms, exhaustive) = time_millis(|| sweep(&reference));

    // The pruned sweep must be a subset with identical quantities —
    // recall is then a plain count ratio.
    let mut exhaustive_iter = exhaustive.iter();
    for pair in &pruned {
        let reference = exhaustive_iter
            .by_ref()
            .find(|p| p.left == pair.left && p.right == pair.right)
            .expect("pruned sweep reported a pair the exhaustive sweep did not");
        assert_eq!(
            pair.quantities, reference.quantities,
            "verification diverged"
        );
    }
    let recall = if exhaustive.is_empty() {
        1.0
    } else {
        pruned.len() as f64 / exhaustive.len() as f64
    };

    let info = store
        .similarity_index_info()
        .expect("sweeps build the index");
    let banding = info.banding.expect("threshold 0.5 is tunable at b=1.001");

    let (top_k_ms, neighbors) = time_millis(|| {
        store
            .similar_keys_with("key-00000", 10, THRESHOLD, &flat)
            .expect("key exists")
    });
    assert!(!neighbors.is_empty(), "the paired key must be found");

    SweepReport {
        n,
        exhaustive_ms,
        exhaustive_pairs: exhaustive.len(),
        pruned_cold_ms,
        pruned_warm_ms,
        pruned_pairs: pruned.len(),
        recall,
        bands: banding.bands,
        rows: banding.rows,
        top_k_ms,
    }
}

fn print_report(report: &SweepReport) {
    let line = |name: &str, value: String| println!("{name:<60} {value}");
    line(
        &format!("queries/all_pairs_exhaustive/{}", report.n),
        format!(
            "time: [{:.1} ms]  ({} pairs)",
            report.exhaustive_ms, report.exhaustive_pairs
        ),
    );
    line(
        &format!("queries/all_pairs_pruned_cold/{}", report.n),
        format!(
            "time: [{:.1} ms]  ({} pairs, {} bands x {} rows)",
            report.pruned_cold_ms, report.pruned_pairs, report.bands, report.rows
        ),
    );
    line(
        &format!("queries/all_pairs_pruned_warm/{}", report.n),
        format!("time: [{:.1} ms]", report.pruned_warm_ms),
    );
    line(
        &format!("queries/similar_keys_top10/{}", report.n),
        format!("time: [{:.2} ms]", report.top_k_ms),
    );
    println!(
        "queries: speedup cold {:.1}x, warm {:.1}x, recall {:.4} at J >= {THRESHOLD}",
        report.exhaustive_ms / report.pruned_cold_ms,
        report.exhaustive_ms / report.pruned_warm_ms,
        report.recall
    );
}

fn write_json(report: &SweepReport) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_queries.json");
    let json = format!(
        "{{\n  \"note\": \"LSH-pruned vs exhaustive all-pairs sweep over a SketchStore; \
         both sweeps verify with the exact joint estimator, so reported quantities are \
         identical and recall is the fraction of exhaustive pairs the pruning kept\",\n  \
         \"config\": {{\"n_keys\": {n}, \"m\": 256, \"b\": 1.001, \"threshold\": {THRESHOLD}, \
         \"elements_per_key\": {epk}, \"seed\": 42}},\n  \
         \"banding\": {{\"bands\": {bands}, \"rows\": {rows}}},\n  \
         \"exhaustive\": {{\"millis\": {ex:.1}, \"pairs\": {exp}}},\n  \
         \"pruned_cold\": {{\"millis\": {pc:.1}, \"pairs\": {pp}}},\n  \
         \"pruned_warm\": {{\"millis\": {pw:.1}}},\n  \
         \"similar_keys_top10_millis\": {tk:.2},\n  \
         \"speedup_cold\": {sc:.1},\n  \
         \"speedup_warm\": {sw:.1},\n  \
         \"recall_at_threshold\": {recall:.4}\n}}\n",
        n = report.n,
        epk = ELEMENTS_PER_KEY,
        bands = report.bands,
        rows = report.rows,
        ex = report.exhaustive_ms,
        exp = report.exhaustive_pairs,
        pc = report.pruned_cold_ms,
        pp = report.pruned_pairs,
        pw = report.pruned_warm_ms,
        tk = report.top_k_ms,
        sc = report.exhaustive_ms / report.pruned_cold_ms,
        sw = report.exhaustive_ms / report.pruned_warm_ms,
        recall = report.recall,
    );
    if let Err(error) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {error}");
    } else {
        println!("recorded query sweep measurements into {path}");
    }
}

fn bench_query_engine(_c: &mut Criterion) {
    let smoke = smoke_mode();
    let n = if smoke { 400 } else { 10_000 };
    let report = run_sweep(n);
    print_report(&report);
    if !smoke {
        write_json(&report);
    }
}

fn corpus(count: u64) -> Vec<SetSketch1> {
    let cfg = sweep_config();
    (0..count)
        .map(|doc| {
            let mut s = SetSketch1::new(cfg, 42);
            s.extend(bench_elements(doc, 2000));
            s.extend(bench_elements(1_000_000, 1000)); // shared core
            s
        })
        .collect()
}

fn bench_lsh_index(c: &mut Criterion) {
    let sketches = corpus(if smoke_mode() { 64 } else { 256 });
    // The index takes `u32` signatures; widen each register array once.
    let signatures: Vec<Vec<u32>> = sketches.iter().map(|s| s.registers().to_vec()).collect();
    let mut group = c.benchmark_group("lsh");
    group.sample_size(20);

    group.bench_function("insert_docs", |bencher| {
        bencher.iter(|| {
            let index: LshIndex<u64> = LshIndex::new(32, 8).expect("valid");
            for (doc, signature) in signatures.iter().enumerate() {
                index.insert(doc as u64, signature);
            }
            index.len()
        });
    });

    let index: LshIndex<u64> = LshIndex::new(32, 8).expect("valid");
    let mut band_hashes = Vec::new();
    for (doc, signature) in signatures.iter().enumerate() {
        index.band_hashes_into(signature, &mut band_hashes);
        index.insert_hashed(doc as u64, &band_hashes);
    }
    group.bench_function("query", |bencher| {
        bencher.iter(|| index.query(&signatures[17]));
    });
    group.bench_function("query_multiprobe", |bencher| {
        bencher.iter(|| index.query_multiprobe(&signatures[17]));
    });
    group.bench_function("candidate_pairs", |bencher| {
        bencher.iter(|| index.candidate_pairs().len());
    });

    group.bench_function("query_with_precise_filter", |bencher| {
        bencher.iter(|| {
            let candidates = index.query(&signatures[17]);
            let mut best = (u64::MAX, -1.0f64);
            for id in candidates {
                let joint = sketches[17]
                    .estimate_joint(&sketches[id as usize])
                    .expect("compatible");
                if joint.jaccard > best.1 {
                    best = (id, joint.jaccard);
                }
            }
            best
        });
    });
    group.finish();
}

criterion_group!(benches, bench_lsh_index, bench_query_engine);
criterion_main!(benches);
