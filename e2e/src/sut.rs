//! The one adapter file: every call into the product lives here.
//!
//! Product surface used (keep this list in step with `e2e/README.md`):
//! `SketchStore::builder` + builder knobs, `ingest`, `cardinality`,
//! `jaccard`, `similar_keys_with`, `all_pairs_with`, `merge_down`,
//! `with_sketch`, `tier_stats`, `similarity_index_info`, `pipeline`,
//! `checkpoint`, `recovery_report`, `wal_bytes_since_checkpoint`;
//! `ClusterNode::{new, handle, sync_round,
//! full_sync_with, store}`, `TcpServer::serve`, `TcpTransport`,
//! `ClusterClient::{ingest, cardinality, jaccard, similar_keys, owner}`,
//! `Message::{encode, decode}`; the sketch traits of `sketch-core`, and
//! `lsh::LshIndex` as the bare candidate-stage rung.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::workloads::THRESHOLD;
use lsh::LshIndex;
use setsketch::sequence::ValueSequence;
use setsketch::{SetSketch, SetSketchConfig};
use sketch_cluster::{
    ClusterClient, ClusterNode, ClusterSketch, HashRing, Message, NodeId, TcpServer, TcpTransport,
    Transport,
};
use sketch_store::{FsyncPolicy, IndexStrategy, QueryOptions, SketchStore, StoreBuilder};

/// Hash seed shared by every sketch of a run (sketches must share it to
/// merge); the workload seed never reaches the product.
const SKETCH_SEED: u64 = 0x5E75_4B37;

pub type Factory<S> = Arc<dyn Fn() -> S + Send + Sync>;

/// A factory of empty SetSketches sharing one power table, the way a
/// service holding many sketches of one configuration builds them.
pub fn setsketch_factory<V: ValueSequence + 'static>(
    m: usize,
    b: f64,
    q: u32,
) -> Factory<SetSketch<V>>
where
    SetSketch<V>: ClusterSketch,
{
    let config = SetSketchConfig::new(m, b, 20.0, q).expect("workload configs are valid");
    let table = Arc::clone(SetSketch::<V>::new(config, SKETCH_SEED).power_table());
    Arc::new(move || SetSketch::with_shared_table(config, SKETCH_SEED, Arc::clone(&table)))
}

/// How a workload's store is configured on top of the plain store. The
/// configuration also fixes the whole-store operation an embedded
/// workload times as `bulk_s`: a warm all-pairs sweep of a plain store,
/// a cold restart of a durable one, `merge_down` of a tiered one.
#[derive(Clone)]
pub enum StoreKind {
    Plain,
    Durable {
        dir: PathBuf,
        checkpoint_after_bytes: u64,
    },
    Tiered {
        memory_budget_bytes: usize,
        spill_dir: PathBuf,
    },
}

pub const SHARDS: usize = 16;

pub fn build_store<S: ClusterSketch>(factory: &Factory<S>, kind: &StoreKind) -> SketchStore<S> {
    let factory = Arc::clone(factory);
    let builder: StoreBuilder<S> = SketchStore::builder(move || factory()).shards(SHARDS);
    match kind {
        StoreKind::Plain => builder.build(),
        StoreKind::Durable {
            dir,
            checkpoint_after_bytes,
        } => builder
            .durable_dir(dir)
            .fsync_policy(FsyncPolicy::Os)
            .checkpoint_after_bytes(*checkpoint_after_bytes)
            .build(),
        StoreKind::Tiered {
            memory_budget_bytes,
            spill_dir,
        } => builder
            .memory_budget_bytes(*memory_budget_bytes)
            .spill_dir(spill_dir)
            .build(),
    }
}

/// Result of one whole-store operation.
#[derive(Default)]
pub struct Bulk {
    /// Time of the operation proper (a restart times only `build`).
    pub elapsed: Duration,
    /// `(left, right, jaccard)` of an all-pairs sweep.
    pub pairs: Vec<(String, String, f64)>,
    /// Log records a cold restart replayed.
    pub replayed_records: usize,
}

/// What the closed-loop clients and the checks need from a system,
/// embedded store or cluster alike. Errors are strings: the harness
/// only counts and prints them.
pub trait System<S>: Sync {
    fn ingest(&self, key: &str, elements: &[u64]) -> Result<(), String>;
    fn cardinality(&self, key: &str) -> Result<f64, String>;
    fn jaccard(&self, left: &str, right: &str) -> Result<f64, String>;
    /// Jaccard estimates of the top-`k` neighbours, best first.
    fn top_k(&self, key: &str, k: usize, threshold: f64) -> Result<Vec<f64>, String>;
    /// Untimed housekeeping between blocks (replication catch-up).
    fn after_block(&self) -> Result<(), String>;
    /// Cuts a checkpoint now, where the system has a log of its own.
    fn checkpoint(&self) -> Result<(), String>;
    /// The workload's whole-store operation.
    fn bulk(&mut self) -> Result<Bulk, String>;
    /// Resident register bytes per key.
    fn mem_bytes_per_key(&self) -> f64;
    /// True when every replica holds exactly `reference` under `key`.
    fn registers_equal(&self, key: &str, reference: &S) -> bool;
    /// The store whose tiers and log the per-layer counters read.
    fn primary_store(&self) -> &SketchStore<S>;
}

pub fn top_k_store<S: ClusterSketch>(
    store: &SketchStore<S>,
    key: &str,
    k: usize,
    threshold: f64,
    options: &QueryOptions,
) -> Result<Vec<f64>, String> {
    store
        .similar_keys_with(key, k, threshold, options)
        .map(|neighbors| neighbors.iter().map(|n| n.quantities.jaccard).collect())
        .map_err(|e| e.to_string())
}

pub fn all_pairs_store<S: ClusterSketch>(
    store: &SketchStore<S>,
    threshold: f64,
    options: &QueryOptions,
) -> Result<Vec<(String, String, f64)>, String> {
    store
        .all_pairs_with(threshold, options)
        .map(|pairs| {
            pairs
                .into_iter()
                .map(|p| (p.left, p.right, p.quantities.jaccard))
                .collect()
        })
        .map_err(|e| e.to_string())
}

pub fn clustered_options() -> QueryOptions {
    QueryOptions::default().index(IndexStrategy::clustered())
}

pub fn options_with_threads(threads: usize) -> QueryOptions {
    QueryOptions::default().threads(threads)
}

/// Resident bytes per key: the tier census when the store is tiered,
/// else the sketches' own footprint summed over `keys`.
pub fn store_mem_bytes_per_key<S: ClusterSketch>(
    store: &SketchStore<S>,
    tiered: bool,
    keys: &[String],
) -> f64 {
    let total = if tiered {
        store.tier_stats().resident_bytes()
    } else {
        keys.iter()
            .filter_map(|key| store.with_sketch(key, |sketch| sketch.resident_bytes()))
            .sum()
    };
    total as f64 / keys.len() as f64
}

/// An embedded store under one of the three store configurations.
pub struct Embedded<S: ClusterSketch> {
    store: Option<SketchStore<S>>,
    factory: Factory<S>,
    kind: StoreKind,
    keys: Vec<String>,
}

impl<S: ClusterSketch> Embedded<S> {
    pub fn start(factory: &Factory<S>, kind: StoreKind, keys: &[String]) -> Self {
        Embedded {
            store: Some(build_store(factory, &kind)),
            factory: Arc::clone(factory),
            kind,
            keys: keys.to_vec(),
        }
    }

    fn store(&self) -> &SketchStore<S> {
        self.store
            .as_ref()
            .expect("store is only absent mid-restart")
    }
}

impl<S: ClusterSketch> System<S> for Embedded<S> {
    fn ingest(&self, key: &str, elements: &[u64]) -> Result<(), String> {
        self.store().ingest(key, elements);
        Ok(())
    }

    fn cardinality(&self, key: &str) -> Result<f64, String> {
        self.store().cardinality(key).map_err(|e| e.to_string())
    }

    fn jaccard(&self, left: &str, right: &str) -> Result<f64, String> {
        self.store().jaccard(left, right).map_err(|e| e.to_string())
    }

    fn top_k(&self, key: &str, k: usize, threshold: f64) -> Result<Vec<f64>, String> {
        top_k_store(self.store(), key, k, threshold, &QueryOptions::default())
    }

    fn after_block(&self) -> Result<(), String> {
        Ok(())
    }

    fn checkpoint(&self) -> Result<(), String> {
        self.store().checkpoint().map_err(|e| e.to_string())
    }

    fn bulk(&mut self) -> Result<Bulk, String> {
        match self.kind {
            StoreKind::Durable { .. } => {
                // Everything acknowledged so far must come back from
                // the directory alone: checkpoint + log tail.
                drop(self.store.take());
                let start = Instant::now();
                let store = build_store(&self.factory, &self.kind);
                let elapsed = start.elapsed();
                let report = store
                    .recovery_report()
                    .ok_or("restart of a non-durable store")?;
                if !report.is_clean() {
                    return Err(format!("unclean recovery: {report}"));
                }
                let replayed_records = report.records_replayed;
                self.store = Some(store);
                Ok(Bulk {
                    elapsed,
                    replayed_records,
                    ..Bulk::default()
                })
            }
            StoreKind::Plain => {
                let start = Instant::now();
                let pairs = all_pairs_store(self.store(), THRESHOLD, &QueryOptions::default())?;
                Ok(Bulk {
                    elapsed: start.elapsed(),
                    pairs,
                    ..Bulk::default()
                })
            }
            StoreKind::Tiered { .. } => {
                let start = Instant::now();
                let merged = self.store().merge_down().map_err(|e| e.to_string())?;
                let elapsed = start.elapsed();
                merged.ok_or("merge_down of an empty store")?;
                Ok(Bulk {
                    elapsed,
                    ..Bulk::default()
                })
            }
        }
    }

    fn mem_bytes_per_key(&self) -> f64 {
        let tiered = matches!(self.kind, StoreKind::Tiered { .. });
        store_mem_bytes_per_key(self.store(), tiered, &self.keys)
    }

    fn registers_equal(&self, key: &str, reference: &S) -> bool {
        self.store().with_sketch(key, |sketch| sketch == reference) == Some(true)
    }

    fn primary_store(&self) -> &SketchStore<S> {
        self.store()
    }
}

/// Three durable nodes behind real loopback sockets and a routing client.
pub struct Cluster<S: ClusterSketch> {
    pub nodes: Vec<Arc<ClusterNode<S>>>,
    pub transport: Arc<TcpTransport>,
    pub client: ClusterClient<S, Arc<TcpTransport>>,
    keys: Vec<String>,
    // Dropped last: stops the accept threads and joins them.
    _servers: Vec<TcpServer>,
}

pub const NODES: usize = 3;

impl<S: ClusterSketch> Cluster<S> {
    /// Starts the nodes, each with a durable store under `dir/node<i>`.
    pub fn start(
        factory: &Factory<S>,
        dir: &Path,
        checkpoint_after_bytes: u64,
        keys: &[String],
    ) -> Result<Self, String> {
        let ids: Vec<NodeId> = (0..NODES as NodeId).collect();
        let transport = Arc::new(TcpTransport::new());
        let mut nodes = Vec::new();
        let mut servers = Vec::new();
        for &id in &ids {
            let kind = StoreKind::Durable {
                dir: dir.join(format!("node{id}")),
                checkpoint_after_bytes,
            };
            let node = Arc::new(ClusterNode::new(
                id,
                ids.iter().copied(),
                build_store(factory, &kind),
            ));
            let loopback: SocketAddr = ([127, 0, 0, 1], 0).into();
            let server =
                TcpServer::serve(Arc::clone(&node), loopback).map_err(|e| e.to_string())?;
            transport.add_peer(id, server.local_addr());
            nodes.push(node);
            servers.push(server);
        }
        let client = ClusterClient::new(Arc::clone(&transport), HashRing::new(&ids), factory());
        Ok(Cluster {
            nodes,
            transport,
            client,
            keys: keys.to_vec(),
            _servers: servers,
        })
    }

    /// One full anti-entropy round: every node pulls every peer's whole
    /// state. Returns the keys shipped.
    pub fn full_sync(&self) -> Result<usize, String> {
        let mut shipped = 0;
        for node in &self.nodes {
            for peer in 0..NODES as NodeId {
                if peer != node.id() {
                    let report = node
                        .full_sync_with(&*self.transport, peer)
                        .map_err(|e| e.to_string())?;
                    shipped += report.keys_received;
                }
            }
        }
        Ok(shipped)
    }

    /// The nodes a client sends a request about `key` to: its ring
    /// owner, or every node for a fan-out query.
    pub fn targets(&self, key: &str, fan_out: bool) -> &[Arc<ClusterNode<S>>] {
        if fan_out {
            &self.nodes
        } else {
            let owner = self.client.owner(key) as usize;
            &self.nodes[owner..=owner]
        }
    }

    /// One delta round on every node. Returns the keys shipped.
    pub fn delta_sync(&self, transport: &impl Transport) -> Result<usize, String> {
        let mut shipped = 0;
        for node in &self.nodes {
            for (_, report) in node.sync_round(transport) {
                shipped += report.map_err(|e| e.to_string())?.keys_received;
            }
        }
        Ok(shipped)
    }
}

impl<S: ClusterSketch> System<S> for Cluster<S> {
    fn ingest(&self, key: &str, elements: &[u64]) -> Result<(), String> {
        self.client.ingest(key, elements).map_err(|e| e.to_string())
    }

    fn cardinality(&self, key: &str) -> Result<f64, String> {
        self.client.cardinality(key).map_err(|e| e.to_string())
    }

    fn jaccard(&self, left: &str, right: &str) -> Result<f64, String> {
        self.client.jaccard(left, right).map_err(|e| e.to_string())
    }

    fn top_k(&self, key: &str, k: usize, threshold: f64) -> Result<Vec<f64>, String> {
        self.client
            .similar_keys(key, k, threshold)
            .map(|neighbors| neighbors.iter().map(|n| n.jaccard()).collect())
            .map_err(|e| e.to_string())
    }

    fn after_block(&self) -> Result<(), String> {
        self.delta_sync(&*self.transport).map(|_| ())
    }

    fn checkpoint(&self) -> Result<(), String> {
        Ok(()) // the nodes' logs checkpoint on their own schedule
    }

    fn bulk(&mut self) -> Result<Bulk, String> {
        let start = Instant::now();
        self.full_sync()?;
        Ok(Bulk {
            elapsed: start.elapsed(),
            ..Bulk::default()
        })
    }

    fn mem_bytes_per_key(&self) -> f64 {
        let per_node = self
            .nodes
            .iter()
            .map(|node| store_mem_bytes_per_key(node.store(), false, &self.keys));
        per_node.sum::<f64>() / NODES as f64
    }

    fn registers_equal(&self, key: &str, reference: &S) -> bool {
        self.nodes
            .iter()
            .all(|node| node.store().with_sketch(key, |sketch| sketch == reference) == Some(true))
    }

    fn primary_store(&self) -> &SketchStore<S> {
        self.nodes[0].store()
    }
}

/// Wire round trip around `node.handle`, each stage timed: what a
/// request costs between the socket and the store.
pub struct WireTrip {
    pub encode: Duration,
    pub decode: Duration,
    pub bytes: usize,
    pub response: Message,
}

pub fn wire_trip<S: ClusterSketch>(node: &ClusterNode<S>, request: &Message) -> WireTrip {
    let t0 = Instant::now();
    let request_bytes = request.encode();
    let t1 = Instant::now();
    let decoded = Message::decode(&request_bytes).expect("own encoding decodes");
    let t2 = Instant::now();
    let response = node.handle(decoded);
    let t3 = Instant::now();
    let response_bytes = response.encode();
    let t4 = Instant::now();
    let response = Message::decode(&response_bytes).expect("own encoding decodes");
    let t5 = Instant::now();
    WireTrip {
        encode: (t1 - t0) + (t4 - t3),
        decode: (t2 - t1) + (t5 - t4),
        bytes: request_bytes.len() + response_bytes.len(),
        response,
    }
}

pub fn ingest_message(key: &str, elements: &[u64]) -> Message {
    Message::Ingest {
        key: key.to_owned(),
        elements: elements.to_vec(),
    }
}

pub fn cardinality_message(key: &str) -> Message {
    Message::Cardinality {
        key: key.to_owned(),
    }
}

pub fn jaccard_message(left: &str, right: &str) -> Message {
    Message::Jaccard {
        left: left.to_owned(),
        right: right.to_owned(),
    }
}

pub fn similar_keys_message(key: &str, k: usize, threshold: f64) -> Message {
    Message::SimilarKeys {
        key: key.to_owned(),
        k: k as u32,
        threshold_bits: threshold.to_bits(),
    }
}

pub fn is_failure(response: &Message) -> bool {
    matches!(response, Message::Error { .. })
}

/// A transport that counts requests and reply bytes on their way to the
/// real one: connects per op, requests per top-k, delta bytes shipped.
pub struct CountingTransport<'a> {
    inner: &'a TcpTransport,
    requests: std::sync::atomic::AtomicU64,
    reply_bytes: std::sync::atomic::AtomicU64,
}

impl<'a> CountingTransport<'a> {
    pub fn new(inner: &'a TcpTransport) -> Self {
        CountingTransport {
            inner,
            requests: Default::default(),
            reply_bytes: Default::default(),
        }
    }

    pub fn requests(&self) -> u64 {
        self.requests.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub fn reply_bytes(&self) -> u64 {
        self.reply_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Transport for CountingTransport<'_> {
    fn request(
        &self,
        peer: NodeId,
        message: &Message,
    ) -> Result<Message, sketch_cluster::ClusterError> {
        use std::sync::atomic::Ordering::Relaxed;
        let reply = self.inner.request(peer, message)?;
        self.requests.fetch_add(1, Relaxed);
        self.reply_bytes
            .fetch_add(reply.encode().len() as u64, Relaxed);
        Ok(reply)
    }
}

/// A routing client over a counting transport, for per-op request counts.
pub fn counting_client<'a, S: ClusterSketch>(
    transport: &'a CountingTransport<'a>,
    prototype: S,
) -> ClusterClient<S, &'a CountingTransport<'a>> {
    let ids: Vec<NodeId> = (0..NODES as NodeId).collect();
    ClusterClient::new(transport, HashRing::new(&ids), prototype)
}

/// The bare candidate stage: an `lsh` index over the same signatures
/// and banding the store's flat index uses, probed the same way.
pub struct BareLsh {
    index: LshIndex<u32>,
    signatures: Vec<Vec<u32>>,
    multiprobe: bool,
}

impl BareLsh {
    /// `None` when the store has no tuned flat banding to mirror.
    pub fn mirror<S: ClusterSketch>(store: &SketchStore<S>, keys: &[String]) -> Option<Self> {
        let banding = store.similarity_index_info()?.banding?;
        let index = LshIndex::new(banding.bands, banding.rows).ok()?;
        let mut signatures = Vec::with_capacity(keys.len());
        let mut multiprobe = false;
        for (id, key) in keys.iter().enumerate() {
            let signature = store.with_sketch(key, |sketch| {
                multiprobe = sketch.ordinal_registers();
                sketch.signature()
            })?;
            index.insert(id as u32, &signature);
            signatures.push(signature);
        }
        Some(BareLsh {
            index,
            signatures,
            multiprobe,
        })
    }

    /// Candidates of `key`'s top-k probe, the key itself excluded.
    pub fn candidates(&self, key: usize) -> usize {
        let signature = &self.signatures[key];
        let found = if self.multiprobe {
            self.index.query_multiprobe(signature)
        } else {
            self.index.query(signature)
        };
        found.iter().filter(|&&id| id as usize != key).count()
    }
}

/// Index-cache counters `(hits, misses)` of the store's query engine.
pub fn index_cache_counters<S: ClusterSketch>(store: &SketchStore<S>) -> (u64, u64) {
    store
        .similarity_index_info()
        .map_or((0, 0), |info| (info.cache_hits, info.cache_misses))
}

/// Clusters probed per query so far by the clustered index, if active.
pub fn clusters_probed_per_query<S: ClusterSketch>(store: &SketchStore<S>) -> f64 {
    store
        .similarity_index_info()
        .and_then(|info| info.clustered)
        .map_or(0.0, |clustered| {
            let stats = clustered.probe_stats;
            stats.clusters_probed as f64 / (stats.topk_queries as f64).max(1.0)
        })
}

/// One ingest list replayed through the pipelined front of `store`:
/// `(enqueue latencies, enqueue phase, flush)`.
pub fn pipeline_replay<S: ClusterSketch>(
    store: Arc<SketchStore<S>>,
    ops: &[(&str, &[u64])],
) -> (Vec<Duration>, Duration, Duration) {
    let pipeline = store.pipeline();
    let start = Instant::now();
    let mut enqueue = Vec::with_capacity(ops.len());
    for (key, elements) in ops {
        let t = Instant::now();
        pipeline.ingest(key, elements);
        enqueue.push(t.elapsed());
    }
    let enqueued = start.elapsed();
    let t = Instant::now();
    pipeline.flush();
    (enqueue, enqueued, t.elapsed())
}
