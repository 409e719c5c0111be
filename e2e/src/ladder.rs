//! The traced run's per-layer numbers, measured from outside by a
//! ladder replay.
//!
//! A fixed sample of the workload's ops is re-executed at successive
//! rungs: bare sketch, plain `SketchStore`, the workload's store
//! configuration, `ClusterNode::handle`, wire encode/decode around
//! `handle`, the full client call. Every call is a span (op id, name,
//! parent, start, end) kept in memory and written out when the run
//! ends; the spans of one op share its id. A rung's self time is its
//! span minus the rung below. Spans inside the product are a later
//! change; nothing here needs the product's cooperation.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sketch_cluster::ClusterSketch;

use crate::report::Metric;
use crate::run::{
    clients, execute, fast_low, kind_index, median, quantile_us, AnySystem, Inputs, Measured, Op,
    OpList, Verdict,
};
use crate::sut::{self, BareLsh, CountingTransport, Factory, StoreKind, System};
use crate::workloads::{Kind, SystemKind, THRESHOLD, TOP_K};

/// Per-layer metrics: `(name, unit, lower is better)`. A layer is a
/// module of the product; a metric a workload's path does not touch
/// reads 0. Mirrors `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str, bool); 67] = [
    ("setsketch.insert_ns_per_elem_steady", "ns", true),
    ("setsketch.insert_ns_per_elem_fresh", "ns", true),
    ("setsketch.cardinality_ns", "ns", true),
    ("setsketch.joint_us", "us", true),
    ("setsketch.codec_compress_us", "us", true),
    ("setsketch.codec_decompress_us", "us", true),
    ("setsketch.codec_bytes", "B", true),
    ("store.ingest_us", "us", true),
    ("store.cardinality_us", "us", true),
    ("store.jaccard_us", "us", true),
    ("store.ingest_2c_over_1c", "ratio", false),
    ("wal.append_us", "us", true),
    ("wal.bytes_per_op", "B", true),
    ("wal.checkpoints", "count", true),
    ("wal.checkpoint_s", "s", true),
    ("wal.replay_records_per_s", "1/s", false),
    ("wal.durable_2c_over_1c", "ratio", false),
    ("pipeline.ops_per_s", "1/s", false),
    ("pipeline.enqueue_p50_us", "us", true),
    ("pipeline.flush_s", "s", true),
    ("tier.cold_touch_share", "ratio", true),
    ("tier.first_touch_us", "us", true),
    ("tier.second_touch_us", "us", true),
    ("tier.hot_keys", "count", false),
    ("tier.warm_keys", "count", true),
    ("tier.frozen_keys", "count", true),
    ("tier.spilled_bytes", "B", true),
    ("tier.spill_append_failures", "count", true),
    ("query.topk_us", "us", true),
    ("query.candidates_per_topk", "count", true),
    ("query.verified_per_topk", "count", true),
    ("query.verify_us_est", "us", true),
    ("query.probe_us_est", "us", true),
    ("query.index_cache_hits", "count", false),
    ("query.index_cache_misses", "count", true),
    ("query.refresh_after_writes_us", "us", true),
    ("query.topk_2c_over_1c", "ratio", false),
    ("query.verify_threads_speedup", "ratio", false),
    ("query.pair_recall", "ratio", false),
    ("ann.topk_us", "us", true),
    ("ann.all_pairs_s", "s", true),
    ("ann.clusters_probed", "count", true),
    ("ann.pair_recall_vs_flat", "ratio", false),
    ("node.handle_ingest_us", "us", true),
    ("node.handle_read_us", "us", true),
    ("node.sync_round_ms", "ms", true),
    ("delta.keys_shipped", "count", true),
    ("delta.bytes_shipped", "B", true),
    ("wire.encode_us", "us", true),
    ("wire.decode_us", "us", true),
    ("wire.bytes_per_op", "B", true),
    ("tcp.roundtrip_self_us", "us", true),
    ("tcp.connects_per_op", "count", true),
    ("client.requests_per_topk", "count", true),
    ("client.write_p50_us", "us", true),
    ("client.read_p50_us", "us", true),
    ("client.write_p99_us", "us", true),
    ("client.read_p99_us", "us", true),
    ("client.write_samples", "count", false),
    ("client.read_samples", "count", false),
    ("ladder.unattributed_us", "us", true),
    ("ladder.unattributed_pct", "%", true),
    ("host.cpus", "count", false),
    ("host.spin_mops_p10", "1/us", false),
    ("host.spin_mops_p90", "1/us", false),
    ("host.peak_rss_mb", "MB", true),
    ("trace_overhead_pct", "%", true),
];

struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        *slot = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                value: self.0[name],
                unit,
            })
            .collect()
    }
}

struct Span {
    op: u64,
    level: &'static str,
    parent: &'static str,
    kind: Kind,
    start_ns: u64,
    nanos: u32,
}

/// Spans of the run, in memory until the end.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let kind = span.kind.name();
            let parent = if span.parent.is_empty() {
                String::new()
            } else {
                format!("{}.{kind}", span.parent)
            };
            writeln!(
                out,
                "{{\"op\": {}, \"name\": \"{}.{kind}\", \"parent\": \"{parent}\", \"start_ns\": {}, \"end_ns\": {}}}",
                span.op,
                span.level,
                span.start_ns,
                span.start_ns + span.nanos as u64
            )?;
        }
        out.flush()
    }
}

/// What one rung measured over the sample.
struct Rung {
    /// p50 per op kind, 0 for a kind the sample does not hold.
    p50_us: [f64; 4],
    ops_per_s: f64,
}

impl Rung {
    fn p50(&self, kind: Kind) -> f64 {
        self.p50_us[kind_index(kind)]
    }
}

/// One rung: every op of `lists` (one list per thread, all threads at
/// once) goes through the calls `make(thread)` returns, a span per
/// call. The lists run twice and the second pass is the one recorded,
/// so every rung is measured equally warm.
fn climb<G: FnMut(&OpList, &Op)>(
    trace: &mut Trace,
    level: &'static str,
    parent: &'static str,
    lists: &[&OpList],
    make: impl Fn(usize) -> G + Sync,
) -> Rung {
    let barrier = Barrier::new(lists.len());
    let origin = trace.origin;
    let per_thread: Vec<(Vec<Span>, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(thread, list)| {
                let (barrier, make) = (&barrier, &make);
                scope.spawn(move || {
                    let mut call = make(thread);
                    for op in &list.ops {
                        call(list, op);
                    }
                    let mut spans = Vec::with_capacity(list.ops.len());
                    barrier.wait();
                    let started = Instant::now();
                    for (index, op) in list.ops.iter().enumerate() {
                        let start = Instant::now();
                        call(list, op);
                        let nanos = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
                        spans.push(Span {
                            op: (thread * 1_000_000 + index) as u64,
                            level,
                            parent,
                            kind: op.kind,
                            start_ns: (start - origin).as_nanos() as u64,
                            nanos,
                        });
                    }
                    (spans, started, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("ladder thread panicked"))
            .collect()
    });
    let started = per_thread.iter().map(|t| t.1).min().expect("threads");
    let ended = per_thread.iter().map(|t| t.2).max().expect("threads");
    let mut nanos: [Vec<u32>; 4] = Default::default();
    let mut ops = 0;
    for (spans, _, _) in per_thread {
        ops += spans.len();
        for span in &spans {
            nanos[kind_index(span.kind)].push(span.nanos);
        }
        trace.spans.extend(spans);
    }
    Rung {
        ops_per_s: ops as f64 / (ended - started).as_secs_f64(),
        p50_us: std::array::from_fn(|kind| quantile_us(&mut nanos[kind], 0.5)),
    }
}

fn micros(duration: Duration) -> f64 {
    duration.as_nanos() as f64 / 1000.0
}

fn median_us(durations: &[Duration]) -> f64 {
    median(&mut durations.iter().map(|&d| micros(d)).collect::<Vec<f64>>())
}

/// Ops the ladder replays: blocks numbered past any measured block, so
/// their first-time elements are new to the system as well.
const LADDER_BLOCK: usize = 1000;

fn sample_lists(inputs: &Inputs, pattern: &[Kind], per_thread: usize, round: usize) -> Vec<OpList> {
    (0..clients())
        .map(|thread| {
            inputs.op_list_with(
                pattern,
                LADDER_BLOCK + round,
                thread,
                per_thread,
                &mut Vec::new(),
            )
        })
        .collect()
}

/// Steps per microsecond of a hash-and-table-walk kernel over short
/// windows: the host's speed, and how unsteady it is, while nothing
/// else runs. The walk stays in a 256 KiB table because it is the
/// cache a co-tenant on the sibling hyperthread takes away; a pure
/// register loop barely notices one.
fn spin_mops() -> (f64, f64) {
    let table: Vec<u64> = (0..(256usize << 10) / 8)
        .map(|i| crate::gen::mix(i as u64))
        .collect();
    let mask = table.len() - 1;
    let mut rates = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..25 {
        let start = Instant::now();
        let mut steps = 0u64;
        while start.elapsed() < Duration::from_millis(20) {
            for _ in 0..500 {
                x = table[x as usize & mask] ^ crate::gen::mix(x);
            }
            steps += 500;
        }
        rates.push(steps as f64 / micros(start.elapsed()));
    }
    std::hint::black_box(x);
    rates.sort_by(|a, b| a.total_cmp(b));
    (rates[rates.len() / 10], rates[rates.len() * 9 / 10])
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[allow(clippy::too_many_arguments)]
pub fn per_layer<S: ClusterSketch>(
    system: &mut AnySystem<S>,
    inputs: &Inputs,
    factory: &Factory<S>,
    scratch: &Path,
    results: &Path,
    origin: Instant,
    measured: &mut Measured,
    verdict: &Verdict,
) -> Result<Vec<Metric>, String> {
    let spec = &inputs.spec;
    let corpus = &inputs.corpus;
    let keys = &corpus.keys;
    let mut layers = Layers::new();
    let mut trace = Trace {
        origin,
        spans: Vec::new(),
    };

    // --- The measured blocks: client spans, tails, tracing overhead.
    let (mut traced_rates, mut plain_rates) = (Vec::new(), Vec::new());
    let mut pooled: [Vec<u32>; 4] = Default::default();
    let (mut block_write_p50, mut block_read_p50) = (Vec::new(), Vec::new());
    for block in &mut measured.blocks {
        if block.spans.is_empty() {
            plain_rates.push(block.ops_per_s());
        } else {
            traced_rates.push(block.ops_per_s());
        }
        block_write_p50.push(block.p50_us(Kind::Ingest));
        block_read_p50.push(block.p50_us(spec.read));
        for (kind, start_ns, nanos) in block.spans.drain(..) {
            trace.spans.push(Span {
                op: 1 << 40 | trace.spans.len() as u64,
                level: "client",
                parent: "",
                kind,
                start_ns,
                nanos,
            });
        }
        for (pool, latencies) in pooled.iter_mut().zip(&block.latencies) {
            pool.extend(latencies);
        }
    }
    let client_write_p50 = fast_low(&mut block_write_p50);
    layers.set("client.write_p50_us", client_write_p50);
    layers.set("client.read_p50_us", fast_low(&mut block_read_p50));
    let writes = &mut pooled[kind_index(Kind::Ingest)];
    layers.set("client.write_samples", writes.len() as f64);
    layers.set("client.write_p99_us", quantile_us(writes, 0.99));
    let reads = &mut pooled[kind_index(spec.read)];
    layers.set("client.read_samples", reads.len() as f64);
    layers.set("client.read_p99_us", quantile_us(reads, 0.99));
    if !traced_rates.is_empty() && !plain_rates.is_empty() {
        let overhead = median(&mut plain_rates) / median(&mut traced_rates) - 1.0;
        layers.set("trace_overhead_pct", overhead * 100.0);
    }
    layers.set("query.pair_recall", verdict.pair_recall);

    // --- Tiers: census, then what touching a cold key costs. Before
    // anything else reads the store and warms it.
    let stats = system.primary_store().tier_stats();
    layers.set("tier.hot_keys", stats.hot_keys as f64);
    layers.set("tier.warm_keys", stats.warm_keys as f64);
    layers.set("tier.frozen_keys", stats.frozen_keys as f64);
    layers.set("tier.spilled_bytes", stats.spilled_bytes as f64);
    layers.set(
        "tier.spill_append_failures",
        stats.spill_append_failures as f64,
    );
    if spec.system == SystemKind::Tiered {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        // The least popular keys are the ones the clock has demoted.
        for rank in (corpus.len() - corpus.len() / 4..corpus.len()).rev() {
            let key = &keys[inputs.popularity.key_at_rank(rank)];
            let start = Instant::now();
            system.cardinality(key)?;
            first.push(start.elapsed());
            let start = Instant::now();
            system.cardinality(key)?;
            second.push(start.elapsed());
        }
        let (first, second) = (median_us(&first), median_us(&second));
        layers.set("tier.first_touch_us", first);
        layers.set("tier.second_touch_us", second);
        // Two populations a factor of a hundred apart: split them at
        // the geometric mean.
        let split = (first * second).sqrt() * 1000.0;
        let cold = reads.iter().filter(|&&nanos| nanos as f64 > split).count();
        layers.set(
            "tier.cold_touch_share",
            cold as f64 / reads.len().max(1) as f64,
        );
    }

    // --- The plain twin: same sketches, same keys, no log, no tiers,
    // no sockets. Preloaded like the system itself.
    let twin = Arc::new(sut::build_store(factory, &StoreKind::Plain));
    std::thread::scope(|scope| {
        for client in 0..clients() {
            let twin = &twin;
            scope.spawn(move || {
                for key in (client..corpus.len()).step_by(clients()) {
                    for chunk in corpus.universe[key].chunks(spec.preload_batch) {
                        twin.ingest(&keys[key], chunk);
                    }
                }
            });
        }
    });
    let bare: Vec<S> = keys
        .iter()
        .map(|key| {
            twin.with_sketch(key, |sketch| sketch.clone())
                .expect("preloaded")
        })
        .collect();

    // Samples: the three store-level ops for the lower rungs, ingests
    // alone for the scaling ratios, the workload's own mix on top.
    let heavy = spec.sketch == crate::workloads::Sketch::Two4096;
    let per_thread = if heavy { 2000 } else { 4000 };
    let store_ops = [Kind::Ingest, Kind::Cardinality, Kind::Ingest, Kind::Jaccard];
    let lists = sample_lists(inputs, &store_ops, per_thread, 0);
    let lists: Vec<&OpList> = lists.iter().collect();
    let ingests = sample_lists(inputs, &[Kind::Ingest], per_thread / 2, 1);
    let ingests: Vec<&OpList> = ingests.iter().collect();
    let mix = sample_lists(
        inputs,
        &spec.pattern(),
        spec.ops_per_block / clients() / 2,
        2,
    );
    let mix: Vec<&OpList> = mix.iter().collect();

    // --- The top rung is the full client call on the workload's own mix,
    // so that ops disturb each other as they do in the measured blocks.
    // It is climbed three times across the ladder and the fastest pass
    // kept: the same fast-side reading the blocks' p50 gets.
    let on_system = |list: &OpList, op: &Op| {
        let _ = execute(&**system, corpus, list, op);
    };
    let mut top_passes = vec![climb(&mut trace, "client", "", &mix, |_| on_system)];

    // --- Bare sketches: clones out of the twin, one set per thread.
    let rung = climb(&mut trace, "setsketch", "store", &lists, |_| {
        let mut own = bare.clone();
        move |list: &OpList, op: &Op| match op.kind {
            Kind::Ingest => own[op.key as usize].insert_batch(list.elements(op)),
            Kind::Cardinality => {
                std::hint::black_box(own[op.key as usize].cardinality());
            }
            Kind::Jaccard => {
                std::hint::black_box(own[op.key as usize].joint(&own[op.other as usize]).is_ok());
            }
            Kind::TopK => {}
        }
    });
    layers.set(
        "setsketch.insert_ns_per_elem_steady",
        rung.p50(Kind::Ingest) * 1000.0 / spec.batch as f64,
    );
    layers.set(
        "setsketch.cardinality_ns",
        rung.p50(Kind::Cardinality) * 1000.0,
    );
    layers.set("setsketch.joint_us", rung.p50(Kind::Jaccard));
    {
        // First-time fill and the register codec, on a few keys.
        let sample = corpus.len().min(8);
        let start = Instant::now();
        for universe in &corpus.universe[..sample] {
            let mut sketch = factory();
            for chunk in universe.chunks(spec.preload_batch) {
                sketch.insert_batch(chunk);
            }
            std::hint::black_box(&sketch);
        }
        let elements: usize = corpus.universe[..sample].iter().map(Vec::len).sum();
        layers.set(
            "setsketch.insert_ns_per_elem_fresh",
            start.elapsed().as_nanos() as f64 / elements as f64,
        );
        let prototype = factory();
        let (mut compress, mut decompress, mut bytes) = (Vec::new(), Vec::new(), 0usize);
        for sketch in bare.iter().take(64) {
            let start = Instant::now();
            let payload = sketch.compress();
            compress.push(start.elapsed());
            bytes += payload.len();
            let start = Instant::now();
            let restored = S::decompress(&prototype, &payload).map_err(|e| e.to_string())?;
            decompress.push(start.elapsed());
            if &restored != sketch {
                return Err("codec round trip changed the registers".to_owned());
            }
        }
        layers.set("setsketch.codec_compress_us", median_us(&compress));
        layers.set("setsketch.codec_decompress_us", median_us(&decompress));
        layers.set(
            "setsketch.codec_bytes",
            bytes as f64 / compress.len() as f64,
        );
    }

    // --- The plain store.
    let on_store = |store: &sketch_store::SketchStore<S>, list: &OpList, op: &Op| {
        let key = &keys[op.key as usize];
        match op.kind {
            Kind::Ingest => store.ingest(key, list.elements(op)),
            Kind::Cardinality => {
                std::hint::black_box(store.cardinality(key).is_ok());
            }
            Kind::Jaccard => {
                std::hint::black_box(store.jaccard(key, &keys[op.other as usize]).is_ok());
            }
            Kind::TopK => {}
        }
    };
    let plain = climb(&mut trace, "store", "config", &lists, |_| {
        |list: &OpList, op: &Op| on_store(&twin, list, op)
    });
    layers.set("store.ingest_us", plain.p50(Kind::Ingest));
    layers.set("store.cardinality_us", plain.p50(Kind::Cardinality));
    layers.set("store.jaccard_us", plain.p50(Kind::Jaccard));
    let together = climb(&mut trace, "store.all_clients", "", &ingests, |_| {
        |list: &OpList, op: &Op| on_store(&twin, list, op)
    });
    let alone = climb(&mut trace, "store.one_client", "", &ingests[..1], |_| {
        |list: &OpList, op: &Op| on_store(&twin, list, op)
    });
    layers.set(
        "store.ingest_2c_over_1c",
        together.ops_per_s / alone.ops_per_s,
    );

    // --- The pipelined front, on the twin.
    {
        let list = ingests[0];
        let ops: Vec<(&str, &[u64])> = list
            .ops
            .iter()
            .map(|op| (keys[op.key as usize].as_str(), list.elements(op)))
            .collect();
        let (enqueue, enqueued, flush) = sut::pipeline_replay(Arc::clone(&twin), &ops);
        layers.set(
            "pipeline.ops_per_s",
            ops.len() as f64 / (enqueued + flush).as_secs_f64(),
        );
        layers.set("pipeline.enqueue_p50_us", median_us(&enqueue));
        layers.set("pipeline.flush_s", flush.as_secs_f64());
    }

    // --- The workload's store configuration. A cluster's is a node's
    // durable store without the node around it: a durable twin.
    let durable_kind = StoreKind::Durable {
        dir: scratch.join("ladder-durable"),
        checkpoint_after_bytes: spec.checkpoint_after_bytes,
    };
    let durable_twin = match system {
        AnySystem::Cluster(_) => {
            let store = sut::build_store(factory, &durable_kind);
            for (key, universe) in keys.iter().zip(&corpus.universe) {
                store.ingest(key, universe);
            }
            Some(store)
        }
        AnySystem::Embedded(_) => None,
    };
    let config_store = durable_twin
        .as_ref()
        .unwrap_or_else(|| system.primary_store());
    let config = climb(&mut trace, "config", "node", &lists, |_| {
        |list: &OpList, op: &Op| on_store(config_store, list, op)
    });
    if spec.checkpoint_after_bytes > 0 {
        layers.set(
            "wal.append_us",
            config.p50(Kind::Ingest) - plain.p50(Kind::Ingest),
        );
        let together = climb(&mut trace, "config.all_clients", "", &ingests, |_| {
            |list: &OpList, op: &Op| on_store(config_store, list, op)
        });
        let alone = climb(&mut trace, "config.one_client", "", &ingests[..1], |_| {
            |list: &OpList, op: &Op| on_store(config_store, list, op)
        });
        layers.set(
            "wal.durable_2c_over_1c",
            together.ops_per_s / alone.ops_per_s,
        );
        wal_counters(
            &mut layers,
            config_store,
            corpus,
            ingests[0],
            measured,
            spec,
        )?;
    }
    if let Some(store) = durable_twin {
        // Its cold restart stands for a node's.
        drop(store);
        let start = Instant::now();
        let reopened = sut::build_store(factory, &durable_kind);
        let elapsed = start.elapsed();
        let replayed = reopened
            .recovery_report()
            .map_or(0, |report| report.records_replayed);
        layers.set(
            "wal.replay_records_per_s",
            replayed as f64 / elapsed.as_secs_f64(),
        );
    } else if spec.system == SystemKind::Durable {
        let replay = &measured.last_bulk;
        layers.set(
            "wal.replay_records_per_s",
            replay.replayed_records as f64 / replay.elapsed.as_secs_f64(),
        );
    }

    // --- Node and wire, on the same mix as the top rung.
    top_passes.push(climb(&mut trace, "client", "", &mix, |_| on_system));
    let top_ingest = |passes: &[Rung]| {
        let fastest = passes.iter().map(|pass| pass.p50(Kind::Ingest));
        fastest.fold(f64::INFINITY, f64::min)
    };
    let wire_ingest = match &*system {
        AnySystem::Cluster(cluster) => Some(cluster_layers(
            &mut layers,
            &mut trace,
            cluster,
            inputs,
            factory,
            &mix,
        )?),
        AnySystem::Embedded(_) => None,
    };
    top_passes.push(climb(&mut trace, "client", "", &mix, |_| on_system));
    let top_ingest = top_ingest(&top_passes);
    if let Some(wire_ingest) = wire_ingest {
        layers.set("tcp.roundtrip_self_us", top_ingest - wire_ingest);
    }
    let unattributed = client_write_p50 - top_ingest;
    layers.set("ladder.unattributed_us", unattributed);
    layers.set(
        "ladder.unattributed_pct",
        unattributed / client_write_p50 * 100.0,
    );

    // --- The query path: on the system itself when it is an embedded
    // plain store, else on the twin (a node's replica holds the same
    // keys and sketches).
    if spec.mix[kind_index(Kind::TopK)] > 0 {
        let store = match &*system {
            AnySystem::Embedded(embedded) if spec.system == SystemKind::Plain => {
                embedded.primary_store()
            }
            _ => &*twin,
        };
        query_layers(&mut layers, &mut trace, store, inputs)?;
        if spec.system == SystemKind::Plain {
            ann_layers(&mut layers, &mut trace, store, inputs)?;
        }
    }

    layers.set(
        "host.cpus",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    let (p10, p90) = spin_mops();
    layers.set("host.spin_mops_p10", p10);
    layers.set("host.spin_mops_p90", p90);
    layers.set("host.peak_rss_mb", peak_rss_mb());

    let path = results.join(format!("trace_{}.jsonl", spec.name));
    trace
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(layers.into_metrics())
}

/// Node, wire and socket layers of a cluster, on the same mix as the
/// top rung. Returns the wire rung's ingest p50, the floor under the
/// client call.
fn cluster_layers<S: ClusterSketch>(
    layers: &mut Layers,
    trace: &mut Trace,
    cluster: &sut::Cluster<S>,
    inputs: &Inputs,
    factory: &Factory<S>,
    mix: &[&OpList],
) -> Result<f64, String> {
    let keys = &inputs.corpus.keys;
    let message = |list: &OpList, op: &Op| {
        let key = &keys[op.key as usize];
        match op.kind {
            Kind::Ingest => sut::ingest_message(key, list.elements(op)),
            Kind::Cardinality => sut::cardinality_message(key),
            Kind::Jaccard => sut::jaccard_message(key, &keys[op.other as usize]),
            Kind::TopK => sut::similar_keys_message(key, TOP_K, THRESHOLD),
        }
    };
    let targets = |op: &Op| cluster.targets(&keys[op.key as usize], op.kind == Kind::TopK);
    let node = climb(trace, "node", "wire", mix, |_| {
        |list: &OpList, op: &Op| {
            for node in targets(op) {
                std::hint::black_box(node.handle(message(list, op)));
            }
        }
    });
    layers.set("node.handle_ingest_us", node.p50(Kind::Ingest));
    layers.set("node.handle_read_us", node.p50(inputs.spec.read));

    // Stage times of the wire rung, collected beside its spans.
    let stages = std::sync::Mutex::new((Vec::new(), Vec::new(), 0usize, 0usize));
    let wire = climb(trace, "wire", "client", mix, |_| {
        let stages = &stages;
        move |list: &OpList, op: &Op| {
            for node in targets(op) {
                let trip = sut::wire_trip(node, &message(list, op));
                if op.kind == Kind::Ingest {
                    let mut stages = stages.lock().expect("no panics hold this lock");
                    stages.0.push(trip.encode);
                    stages.1.push(trip.decode);
                    stages.2 += trip.bytes;
                    stages.3 += sut::is_failure(&trip.response) as usize;
                }
            }
        }
    });
    let (encode, decode, bytes, failures) = stages.into_inner().expect("threads joined");
    if failures > 0 {
        return Err(format!("{failures} ingests failed in the wire rung"));
    }
    layers.set("wire.encode_us", median_us(&encode));
    layers.set("wire.decode_us", median_us(&decode));
    layers.set("wire.bytes_per_op", bytes as f64 / encode.len() as f64);
    // Requests per op, counted on the way to the sockets.
    let counting = CountingTransport::new(&cluster.transport);
    let counted = sut::counting_client(&counting, factory());
    let list = mix[0];
    let (mut ops, mut top_ks, mut top_k_requests) = (0u64, 0u64, 0u64);
    for op in list.ops.iter().take(400) {
        let key = &keys[op.key as usize];
        let before = counting.requests();
        let outcome = match op.kind {
            Kind::Ingest => counted.ingest(key, list.elements(op)),
            Kind::Cardinality => counted.cardinality(key).map(|_| ()),
            Kind::Jaccard => counted.jaccard(key, &keys[op.other as usize]).map(|_| ()),
            Kind::TopK => counted.similar_keys(key, TOP_K, THRESHOLD).map(|_| ()),
        };
        outcome.map_err(|e| e.to_string())?;
        ops += 1;
        if op.kind == Kind::TopK {
            top_ks += 1;
            top_k_requests += counting.requests() - before;
        }
    }
    layers.set(
        "tcp.connects_per_op",
        counting.requests() as f64 / ops as f64,
    );
    layers.set(
        "client.requests_per_topk",
        top_k_requests as f64 / top_ks.max(1) as f64,
    );

    // Delta rounds after a batch of writes, as between blocks.
    let (mut rounds, mut shipped, mut bytes) = (Vec::new(), 0usize, 0u64);
    for round in 0..5 {
        for op in list.ops.iter().skip(round * 100).take(100) {
            if op.kind == Kind::Ingest {
                cluster.ingest(&keys[op.key as usize], list.elements(op))?;
            }
        }
        let counting = CountingTransport::new(&cluster.transport);
        let start = Instant::now();
        shipped += cluster.delta_sync(&counting)?;
        rounds.push(start.elapsed());
        bytes += counting.reply_bytes();
    }
    layers.set(
        "node.sync_round_ms",
        median_us(&rounds) / 1000.0 / sut::NODES as f64,
    );
    layers.set("delta.keys_shipped", shipped as f64 / rounds.len() as f64);
    layers.set("delta.bytes_shipped", bytes as f64 / rounds.len() as f64);
    Ok(wire.p50(Kind::Ingest))
}

/// Log bytes per ingest, the cost of one explicit checkpoint, and how
/// many checkpoints the measured blocks' log volume implies.
fn wal_counters<S: ClusterSketch>(
    layers: &mut Layers,
    store: &sketch_store::SketchStore<S>,
    corpus: &crate::gen::Corpus,
    list: &OpList,
    measured: &Measured,
    spec: &crate::workloads::Spec,
) -> Result<(), String> {
    let start = Instant::now();
    store.checkpoint().map_err(|e| e.to_string())?;
    layers.set("wal.checkpoint_s", start.elapsed().as_secs_f64());
    let before = store
        .wal_bytes_since_checkpoint()
        .ok_or("store has no log")?;
    let mut ingests = 0u64;
    for op in list.ops.iter().take(500) {
        store.ingest(&corpus.keys[op.key as usize], list.elements(op));
        ingests += 1;
    }
    let after = store
        .wal_bytes_since_checkpoint()
        .ok_or("store has no log")?;
    let bytes_per_op = after.saturating_sub(before) as f64 / ingests as f64;
    layers.set("wal.bytes_per_op", bytes_per_op);
    let logged_ingests: usize = measured
        .blocks
        .iter()
        .map(|block| block.latencies[kind_index(Kind::Ingest)].len())
        .sum();
    // A cluster spreads its ingests over the nodes' logs.
    let logs = if spec.system == SystemKind::Cluster {
        sut::NODES
    } else {
        1
    };
    let per_log = logged_ingests as f64 * bytes_per_op / logs as f64;
    layers.set(
        "wal.checkpoints",
        (per_log / spec.checkpoint_after_bytes as f64).floor() * logs as f64,
    );
    Ok(())
}

fn query_layers<S: ClusterSketch>(
    layers: &mut Layers,
    trace: &mut Trace,
    store: &sketch_store::SketchStore<S>,
    inputs: &Inputs,
) -> Result<(), String> {
    let corpus = &inputs.corpus;
    let options = sketch_store::QueryOptions::default();
    let top_k = |key: &str| sut::top_k_store(store, key, TOP_K, THRESHOLD, &options);
    top_k(&corpus.keys[0])?;
    let lists = sample_lists(inputs, &[Kind::TopK], 250, 3);
    let lists: Vec<&OpList> = lists.iter().collect();
    let together = climb(trace, "query", "client", &lists, |_| {
        |_: &OpList, op: &Op| {
            std::hint::black_box(top_k(&corpus.keys[op.key as usize]).is_ok());
        }
    });
    let alone = climb(trace, "query.one_client", "", &lists[..1], |_| {
        |_: &OpList, op: &Op| {
            std::hint::black_box(top_k(&corpus.keys[op.key as usize]).is_ok());
        }
    });
    layers.set("query.topk_us", together.p50(Kind::TopK));
    layers.set(
        "query.topk_2c_over_1c",
        together.ops_per_s / alone.ops_per_s,
    );

    // The bare candidate stage, mirrored outside the store.
    if let Some(bare) = BareLsh::mirror(store, &corpus.keys) {
        let (mut candidates, mut probes) = (0usize, Vec::new());
        for op in &lists[0].ops {
            let start = Instant::now();
            candidates += bare.candidates(op.key as usize);
            probes.push(start.elapsed());
        }
        let per_query = candidates as f64 / probes.len() as f64;
        // Fewer candidates than k fall back to verifying every key.
        let verified = if per_query < TOP_K as f64 {
            (corpus.len() - 1) as f64
        } else {
            per_query
        };
        layers.set("query.candidates_per_topk", per_query);
        layers.set("query.verified_per_topk", verified);
        layers.set(
            "query.verify_us_est",
            verified * layers.get("setsketch.joint_us"),
        );
        layers.set("query.probe_us_est", median_us(&probes));
    }

    // What the first query after writes pays to re-band the moved keys.
    let writes = sample_lists(inputs, &[Kind::Ingest], 64, 4);
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for round in 0..10 {
        let list = &writes[round % writes.len()];
        for op in &list.ops {
            store.ingest(&corpus.keys[op.key as usize], list.elements(op));
        }
        let key = &corpus.keys[lists[0].ops[round].key as usize];
        let start = Instant::now();
        top_k(key)?;
        first.push(start.elapsed());
        let start = Instant::now();
        top_k(key)?;
        second.push(start.elapsed());
    }
    layers.set(
        "query.refresh_after_writes_us",
        median_us(&first) - median_us(&second),
    );

    let start = Instant::now();
    sut::all_pairs_store(store, THRESHOLD, &options)?;
    let parallel = start.elapsed();
    let start = Instant::now();
    sut::all_pairs_store(store, THRESHOLD, &sut::options_with_threads(1))?;
    layers.set(
        "query.verify_threads_speedup",
        start.elapsed().as_secs_f64() / parallel.as_secs_f64(),
    );
    let (hits, misses) = sut::index_cache_counters(store);
    layers.set("query.index_cache_hits", hits as f64);
    layers.set("query.index_cache_misses", misses as f64);
    Ok(())
}

/// The clustered index on the same corpus and probes: the evidence for
/// keeping or deleting it.
fn ann_layers<S: ClusterSketch>(
    layers: &mut Layers,
    trace: &mut Trace,
    store: &sketch_store::SketchStore<S>,
    inputs: &Inputs,
) -> Result<(), String> {
    let corpus = &inputs.corpus;
    let clustered = sut::clustered_options();
    let flat = sut::all_pairs_store(store, THRESHOLD, &sketch_store::QueryOptions::default())?;
    sut::all_pairs_store(store, THRESHOLD, &clustered)?; // builds the clusters
    let start = Instant::now();
    let pairs = sut::all_pairs_store(store, THRESHOLD, &clustered)?;
    layers.set("ann.all_pairs_s", start.elapsed().as_secs_f64());
    let found: std::collections::HashSet<(&str, &str)> = pairs
        .iter()
        .map(|(l, r, _)| (l.as_str(), r.as_str()))
        .collect();
    let kept = flat
        .iter()
        .filter(|(l, r, _)| found.contains(&(l.as_str(), r.as_str())))
        .count();
    layers.set(
        "ann.pair_recall_vs_flat",
        kept as f64 / flat.len().max(1) as f64,
    );

    let lists = sample_lists(inputs, &[Kind::TopK], 250, 3);
    let lists: Vec<&OpList> = lists.iter().collect();
    let rung = climb(trace, "ann", "client", &lists, |_| {
        |_: &OpList, op: &Op| {
            let key = &corpus.keys[op.key as usize];
            std::hint::black_box(
                sut::top_k_store(store, key, TOP_K, THRESHOLD, &clustered).is_ok(),
            );
        }
    });
    layers.set("ann.topk_us", rung.p50(Kind::TopK));
    layers.set("ann.clusters_probed", sut::clusters_probed_per_query(store));
    Ok(())
}
