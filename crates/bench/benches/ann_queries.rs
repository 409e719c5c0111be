//! Clustered ANN index benchmarks: recall vs clusters probed on a
//! Zipf-clustered keyset, against the flat single-banding baseline.
//!
//! The corpus models the skewed workload the clustered index exists
//! for: keys form tight 8-member **families** (mutual J ≈ 0.85 — the
//! true pairs), families group into **topics** whose sizes follow a
//! Zipf distribution (one huge head topic, a long tail of single-family
//! topics), and same-topic keys across families sit at J ≈ 0.42 — just
//! below the query threshold of 0.5. That sub-threshold density is
//! poison for one global layout: the flat banding tuned at 0.5 (4 rows
//! per band) collides ~90 % of those non-pairs into candidates, so the
//! head topic floods the verifier quadratically. Per-cluster tuning
//! sees each family's density (effective threshold ≈ 0.8, ~8 rows per
//! band) and prunes the same-topic noise structurally.
//!
//! For each routing recall target the sweep records warm all-pairs
//! time, pair recall relative to the flat baseline (matched pairs are
//! asserted bit-for-bit identical — both paths verify with the exact
//! joint estimator), top-k latency over family representatives, and
//! the mean number of clusters a top-k query probed — the knob-to-work
//! curve.
//!
//! Results go to `BENCH_ann.json` at the workspace root. Passing
//! `--test` (i.e. `cargo bench --bench ann_queries -- --test`) or
//! setting `ANN_QUERIES_SMOKE=1` runs a small smoke corpus instead —
//! every code path exercised in seconds, JSON untouched.

use bench::bench_elements;
use criterion::{criterion_group, criterion_main, Criterion};
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SimilarPair, SketchStore};
use std::collections::HashMap;
use std::time::Instant;

/// Jaccard threshold of every sweep and top-k query.
const THRESHOLD: f64 = 0.5;

/// Elements recorded per key (before the shared global core).
const ELEMENTS_PER_KEY: u64 = 2000;

/// Global core shared by every key, so dissimilar pairs are not
/// trivially disjoint.
const CORE_ELEMENTS: u64 = 100;

/// Keys per family — the store's natural clusters; every intra-family
/// pair is a true pair.
const FAMILY_SIZE: u64 = 8;

/// Mutual Jaccard of family members (true pairs, above threshold).
const FAMILY_JACCARD: f64 = 0.85;

/// Jaccard between same-topic keys of different families — just below
/// the threshold, the flat layout's false-candidate fodder.
const TOPIC_JACCARD: f64 = 0.40;

/// Neighbors requested per top-k query. Kept below `FAMILY_SIZE − 1`
/// so the query engine's `< k` exhaustive fallback never masks the
/// routing under test.
const TOP_K: usize = 5;

/// At most this many family representatives probed per top-k series.
const MAX_PROBES: usize = 128;

/// Routing recall targets swept for the knob-to-work curve.
const RECALL_TARGETS: [f64; 4] = [0.5, 0.8, 0.95, 1.0];

/// True when the bench should run the tiny smoke corpus.
fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("ANN_QUERIES_SMOKE").is_some()
}

fn sweep_config() -> SetSketchConfig {
    // m = 256 at b = 1.001: fine register scale, P(register equal) ≈ J
    // (Figure 3 right panel), the sharpest banding input SetSketch has.
    SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).expect("valid")
}

/// Solves J = s / (2L − s) for the shared prefix length s.
fn shared_for_jaccard(j: f64) -> u64 {
    (2.0 * ELEMENTS_PER_KEY as f64 * j / (1.0 + j)).round() as u64
}

struct Corpus {
    store: SketchStore<SetSketch1>,
    /// One representative key per family, stride-sampled to
    /// [`MAX_PROBES`] across the whole Zipf range.
    probes: Vec<String>,
    /// Total families — the natural cluster count handed to the
    /// clustered strategy.
    families: usize,
}

/// Builds the Zipf-clustered corpus: topic `t` (1-based) holds
/// `head / t` families (floored at one) of [`FAMILY_SIZE`] keys each,
/// until `n` keys are allocated. Each key = topic base (J ≈ 0.40 with
/// same-topic keys) + family extra (lifting family mates to J ≈ 0.85)
/// + unique tail + global core.
fn build_corpus(n: u64, head: u64) -> Corpus {
    let cfg = sweep_config();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(16)
        .build();
    let shared_topic = shared_for_jaccard(TOPIC_JACCARD);
    let shared_family = shared_for_jaccard(FAMILY_JACCARD) - shared_topic;
    let unique = ELEMENTS_PER_KEY - shared_topic - shared_family;

    let mut family_heads: Vec<String> = Vec::new();
    let mut families = 0u64;
    let mut key_id = 0u64;
    let mut batch: Vec<u64> = Vec::new();
    let mut topic = 1u64;
    while key_id < n {
        for _ in 0..(head / topic).max(1) {
            if key_id >= n {
                break;
            }
            family_heads.push(format!("key-{key_id:05}"));
            for _ in 0..FAMILY_SIZE.min(n - key_id) {
                batch.clear();
                batch.extend(bench_elements(1_000 + topic, shared_topic));
                batch.extend(bench_elements(100_000 + families, shared_family));
                batch.extend(bench_elements(1_000_000 + key_id, unique));
                batch.extend(bench_elements(42, CORE_ELEMENTS));
                store.ingest(&format!("key-{key_id:05}"), &batch);
                key_id += 1;
            }
            families += 1;
        }
        topic += 1;
    }

    let stride = (family_heads.len() / MAX_PROBES).max(1);
    let probes = family_heads.into_iter().step_by(stride).collect();
    Corpus {
        store,
        probes,
        families: families as usize,
    }
}

/// One timed run of `op`, in milliseconds.
fn time_millis<R>(op: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = op();
    (start.elapsed().as_secs_f64() * 1e3, result)
}

/// Median of three timed runs of `op`, in milliseconds.
fn warm_millis<R>(mut op: impl FnMut() -> R) -> f64 {
    let mut runs: Vec<f64> = (0..3).map(|_| time_millis(&mut op).0).collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

struct Baseline {
    cold_ms: f64,
    warm_ms: f64,
    pairs: Vec<SimilarPair>,
    topk_ms_per_query: f64,
    topk: Vec<Vec<String>>,
}

/// Flat single-banding baseline: all-pairs sweep plus top-k over the
/// probe keys, default engine all the way.
fn run_flat(corpus: &Corpus) -> Baseline {
    let store = &corpus.store;
    let options = QueryOptions::default();
    let sweep = || {
        store
            .all_pairs_with(THRESHOLD, &options)
            .expect("compatible")
    };
    let (cold_ms, pairs) = time_millis(sweep);
    let warm_ms = warm_millis(sweep);
    let mut topk = Vec::new();
    let (topk_ms, ()) = time_millis(|| {
        for key in &corpus.probes {
            let neighbors = store
                .similar_keys_with(key, TOP_K, THRESHOLD, &options)
                .expect("key exists");
            topk.push(neighbors.into_iter().map(|n| n.key).collect());
        }
    });
    Baseline {
        cold_ms,
        warm_ms,
        pairs,
        topk_ms_per_query: topk_ms / corpus.probes.len() as f64,
        topk,
    }
}

struct CurvePoint {
    routing_recall: f64,
    cold_ms: f64,
    warm_ms: f64,
    pairs: usize,
    pair_recall_vs_flat: f64,
    topk_ms_per_query: f64,
    topk_recall_vs_flat: f64,
    clusters: usize,
    mean_clusters_probed: f64,
}

/// One clustered run at routing recall target `target`: sweep, top-k
/// over the probe keys, recall and probe-width accounting.
fn run_clustered(corpus: &Corpus, flat: &Baseline, target: f64) -> CurvePoint {
    let store = &corpus.store;
    let options = QueryOptions::default().index(IndexStrategy::Clustered {
        memory_budget_bytes: None,
        recall_target: target,
        clusters: Some(corpus.families),
        flat_cutover: sketch_store::DEFAULT_FLAT_CUTOVER,
    });
    let (cold_ms, pairs) = time_millis(|| {
        store
            .all_pairs_with(THRESHOLD, &options)
            .expect("compatible")
    });
    let warm_ms = warm_millis(|| {
        store
            .all_pairs_with(THRESHOLD, &options)
            .expect("compatible")
    });

    // Matched pairs must verify bit-for-bit identically; recall is
    // counted against the flat baseline (each path may also find pairs
    // the other's banding missed, so this is subset-checked per pair,
    // not wholesale).
    let flat_pairs: HashMap<(&str, &str), _> = flat
        .pairs
        .iter()
        .map(|p| ((p.left.as_str(), p.right.as_str()), &p.quantities))
        .collect();
    let mut matched = 0usize;
    for pair in &pairs {
        if let Some(quantities) = flat_pairs.get(&(pair.left.as_str(), pair.right.as_str())) {
            assert_eq!(
                &&pair.quantities, quantities,
                "clustered verification diverged on ({}, {})",
                pair.left, pair.right
            );
            matched += 1;
        }
    }
    let pair_recall = if flat.pairs.is_empty() {
        1.0
    } else {
        matched as f64 / flat.pairs.len() as f64
    };

    let mut topk: Vec<Vec<String>> = Vec::new();
    let (topk_ms, ()) = time_millis(|| {
        for key in &corpus.probes {
            let neighbors = store
                .similar_keys_with(key, TOP_K, THRESHOLD, &options)
                .expect("key exists");
            topk.push(neighbors.into_iter().map(|n| n.key).collect());
        }
    });
    let (mut found, mut expected) = (0usize, 0usize);
    for (mine, reference) in topk.iter().zip(&flat.topk) {
        expected += reference.len();
        found += reference.iter().filter(|k| mine.contains(k)).count();
    }
    let topk_recall = if expected == 0 {
        1.0
    } else {
        found as f64 / expected as f64
    };

    let info = store
        .similarity_index_info()
        .expect("queries build the index");
    let clustered = info.clustered.expect("the corpus is past the flat cutover");
    let stats = clustered.probe_stats;
    let mean_probed = if stats.topk_queries == 0 {
        0.0
    } else {
        stats.clusters_probed as f64 / stats.topk_queries as f64
    };

    CurvePoint {
        routing_recall: target,
        cold_ms,
        warm_ms,
        pairs: pairs.len(),
        pair_recall_vs_flat: pair_recall,
        topk_ms_per_query: topk_ms / corpus.probes.len() as f64,
        topk_recall_vs_flat: topk_recall,
        clusters: clustered.clusters,
        mean_clusters_probed: mean_probed,
    }
}

fn print_report(n: u64, flat: &Baseline, curve: &[CurvePoint]) {
    let line = |name: &str, value: String| println!("{name:<60} {value}");
    line(
        &format!("ann/flat_all_pairs_warm/{n}"),
        format!(
            "time: [{:.1} ms]  (cold {:.1} ms, {} pairs)",
            flat.warm_ms,
            flat.cold_ms,
            flat.pairs.len()
        ),
    );
    line(
        &format!("ann/flat_topk/{n}"),
        format!("time: [{:.2} ms/query]", flat.topk_ms_per_query),
    );
    for point in curve {
        line(
            &format!(
                "ann/clustered_all_pairs_warm/r{:.2}/{n}",
                point.routing_recall
            ),
            format!(
                "time: [{:.1} ms]  (cold {:.1} ms, {} pairs, recall {:.4})",
                point.warm_ms, point.cold_ms, point.pairs, point.pair_recall_vs_flat
            ),
        );
        line(
            &format!("ann/clustered_topk/r{:.2}/{n}", point.routing_recall),
            format!(
                "time: [{:.2} ms/query]  (probed {:.1} of {} clusters, recall {:.4})",
                point.topk_ms_per_query,
                point.mean_clusters_probed,
                point.clusters,
                point.topk_recall_vs_flat
            ),
        );
    }
    if let Some(headline) = curve.iter().find(|p| p.routing_recall == 0.95) {
        println!(
            "ann: at routing recall 0.95 — warm sweep {:.1}x vs flat, pair recall {:.4}, \
             top-k {:.1}x vs flat probing {:.1}/{} clusters",
            flat.warm_ms / headline.warm_ms,
            headline.pair_recall_vs_flat,
            flat.topk_ms_per_query / headline.topk_ms_per_query,
            headline.mean_clusters_probed,
            headline.clusters,
        );
    }
}

fn write_json(n: u64, head: u64, corpus: &Corpus, flat: &Baseline, curve: &[CurvePoint]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ann.json");
    let points: Vec<String> = curve
        .iter()
        .map(|p| {
            format!(
                "    {{\"routing_recall\": {:.2}, \"all_pairs_cold_millis\": {:.1}, \
                 \"all_pairs_warm_millis\": {:.1}, \"pairs\": {}, \
                 \"pair_recall_vs_flat\": {:.4}, \"topk_millis_per_query\": {:.3}, \
                 \"topk_recall_vs_flat\": {:.4}, \"clusters\": {}, \
                 \"mean_clusters_probed\": {:.1}}}",
                p.routing_recall,
                p.cold_ms,
                p.warm_ms,
                p.pairs,
                p.pair_recall_vs_flat,
                p.topk_ms_per_query,
                p.topk_recall_vs_flat,
                p.clusters,
                p.mean_clusters_probed,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"note\": \"clustered ANN index vs the flat single-banding baseline on a \
         Zipf-clustered keyset (tight 8-key families at J=0.85 inside Zipf-sized topics \
         whose cross-family similarity 0.42 sits just below the 0.5 threshold); matched \
         pairs verify bit-for-bit identically, recall is relative to the flat sweep, and \
         mean_clusters_probed is the routed top-k probe width\",\n  \
         \"config\": {{\"n_keys\": {n}, \"zipf_head_families\": {head}, \
         \"family_size\": {fam}, \"families\": {families}, \"m\": 256, \"b\": 1.001, \
         \"threshold\": {THRESHOLD}, \"elements_per_key\": {epk}, \"top_k\": {TOP_K}, \
         \"probe_keys\": {probes}, \"seed\": 42}},\n  \
         \"flat\": {{\"all_pairs_cold_millis\": {fc:.1}, \"all_pairs_warm_millis\": {fw:.1}, \
         \"pairs\": {fp}, \"topk_millis_per_query\": {ft:.3}}},\n  \
         \"clustered\": [\n{points}\n  ]\n}}\n",
        fam = FAMILY_SIZE,
        families = corpus.families,
        epk = ELEMENTS_PER_KEY,
        probes = corpus.probes.len(),
        fc = flat.cold_ms,
        fw = flat.warm_ms,
        fp = flat.pairs.len(),
        ft = flat.topk_ms_per_query,
        points = points.join(",\n"),
    );
    if let Err(error) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {error}");
    } else {
        println!("recorded clustered ANN measurements into {path}");
    }
}

fn bench_ann_queries(_c: &mut Criterion) {
    let smoke = smoke_mode();
    let (n, head) = if smoke { (400, 16) } else { (10_000, 128) };
    let corpus = build_corpus(n, head);
    let flat = run_flat(&corpus);
    let curve: Vec<CurvePoint> = RECALL_TARGETS
        .iter()
        .map(|&target| run_clustered(&corpus, &flat, target))
        .collect();
    print_report(n, &flat, &curve);
    if !smoke {
        write_json(n, head, &corpus, &flat, &curve);
    }
}

criterion_group!(benches, bench_ann_queries);
criterion_main!(benches);
