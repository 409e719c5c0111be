//! The four workloads: sizes, op mixes and the reason each exists.
//!
//! Everything here is fixed by the benchmark, never a per-run option:
//! a run is `(workload, seed, seconds)` and nothing else.

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Ingest,
    Cardinality,
    Jaccard,
    TopK,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Cardinality => "cardinality",
            Kind::Jaccard => "jaccard",
            Kind::TopK => "top_k",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// Three durable `TcpServer` nodes on loopback and a routing client.
    /// `bulk_s` is one full anti-entropy round.
    Cluster,
    /// Embedded durable store; `bulk_s` is a cold restart from its directory.
    Durable,
    /// Embedded plain store; `bulk_s` is a warm all-pairs sweep.
    Plain,
    /// Embedded store under a memory budget; `bulk_s` is `merge_down`.
    Tiered,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sketch {
    /// `SetSketch1`, m = 256, b = 1.001, 16-bit registers.
    One256,
    /// `SetSketch2`, m = 256, b = 1.001, 16-bit registers.
    Two256,
    /// `SetSketch2`, m = 4096, b = 2, q = 62.
    Two4096,
}

/// Blocks per second of `--seconds`: a block is sized to about half a
/// second on the reference box, so 10 s measure 21 blocks.
pub const BLOCKS_PER_SECOND: usize = 2;
/// A whole-store sample follows every third block.
pub const BULK_EVERY: usize = 3;
/// Times the set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
pub const TOP_K: usize = 5;
pub const THRESHOLD: f64 = 0.5;

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub system: SystemKind,
    pub sketch: Sketch,
    pub keys: usize,
    /// Elements in each key's fixed universe, all preloaded in set-up.
    pub per_key: usize,
    /// Elements per preload ingest.
    pub preload_batch: usize,
    /// Zipf exponent of key popularity.
    pub zipf: f64,
    /// Ops of each kind per 20: ingest, cardinality, jaccard, top-k.
    pub mix: [usize; 4],
    /// Elements per measured ingest, of which `fresh` are first-time.
    pub batch: usize,
    pub fresh: usize,
    /// The op whose latency is `read_p50_us`.
    pub read: Kind,
    /// Ops per block over all clients (about half a second of work).
    pub ops_per_block: usize,
    /// Whole-store operations timed back to back after every third
    /// block (about 0.3 s of them), each its own `bulk_s` sample.
    pub bulk_iters: usize,
    pub checkpoint_after_bytes: u64,
    /// Ops written after a forced checkpoint and before each timed cold
    /// restart, so that every restart replays a log tail of one length
    /// (0: the workload's whole-store operation is not a restart).
    pub restart_tail_ops: usize,
    /// Resident sketches the tiered store's memory budget allows.
    pub budget_sketches: usize,
}

pub const KINDS: [Kind; 4] = [Kind::Ingest, Kind::Cardinality, Kind::Jaccard, Kind::TopK];

pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "serve_mixed",
            why: "the whole path: socket, wire, route, WAL, shard lock, registers and back; \
                  tcp, wire and client do most of the work here and none elsewhere",
            system: SystemKind::Cluster,
            sketch: Sketch::Two256,
            keys: 1536,
            per_key: 2100,
            preload_batch: 2100,
            zipf: 0.99,
            mix: [10, 7, 2, 1],
            batch: 64,
            fresh: 0,
            read: Kind::Cardinality,
            ops_per_block: 2000,
            bulk_iters: 3,
            checkpoint_after_bytes: 32 << 20,
            restart_tail_ops: 0,
            budget_sketches: 0,
        },
        Spec {
            name: "ingest_durable",
            why: "the paper's recording path at n >> m plus the write-ahead log; \
                  two writers contend for the log, which a single client never shows",
            system: SystemKind::Durable,
            sketch: Sketch::Two4096,
            keys: 192,
            per_key: 32_768,
            preload_batch: 4096,
            zipf: 0.99,
            mix: [15, 0, 5, 0],
            batch: 128,
            fresh: 1,
            read: Kind::Jaccard,
            ops_per_block: 36_000,
            bulk_iters: 3,
            checkpoint_after_bytes: 32 << 20,
            restart_tail_ops: 8000,
            budget_sketches: 0,
        },
        Spec {
            name: "query_similarity",
            why: "lsh, query and joint estimation do all the work, wal, tier and tcp none; \
                  the write trickle keeps incremental re-banding on the path",
            system: SystemKind::Plain,
            sketch: Sketch::One256,
            keys: 3200,
            per_key: 2100,
            preload_batch: 2100,
            zipf: 0.99,
            mix: [2, 0, 0, 18],
            batch: 64,
            fresh: 0,
            read: Kind::TopK,
            ops_per_block: 800,
            bulk_iters: 1,
            checkpoint_after_bytes: 0,
            restart_tail_ops: 0,
            budget_sketches: 0,
        },
        Spec {
            name: "tiered_churn",
            why: "8x overcommitted memory budget: most ops rehydrate a cold key and demote \
                  another, so tier and the register codec do most of the work",
            system: SystemKind::Tiered,
            sketch: Sketch::Two4096,
            keys: 512,
            per_key: 2048,
            preload_batch: 2048,
            zipf: 0.5,
            mix: [10, 10, 0, 0],
            batch: 64,
            fresh: 0,
            read: Kind::Cardinality,
            ops_per_block: 9600,
            bulk_iters: 10,
            checkpoint_after_bytes: 0,
            restart_tail_ops: 0,
            budget_sketches: 64,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|spec| spec.name == name)
}

impl Spec {
    /// The same workload at a fraction of its size, for the smoke run.
    pub fn shrunk(&self, divisor: usize) -> Spec {
        let mut spec = self.clone();
        let families = (self.keys / crate::gen::FAMILY / divisor).max(4);
        spec.keys = families * crate::gen::FAMILY;
        spec.ops_per_block = (self.ops_per_block / divisor).max(40);
        spec.restart_tail_ops = self.restart_tail_ops / divisor;
        if self.budget_sketches > 0 {
            spec.budget_sketches = (self.budget_sketches / divisor).max(8);
        }
        spec
    }

    /// The 20-slot op pattern, kinds spread evenly over the slots.
    pub fn pattern(&self) -> Vec<Kind> {
        let total: usize = self.mix.iter().sum();
        let mut slots: Vec<(f64, Kind)> = Vec::with_capacity(total);
        for (&count, kind) in self.mix.iter().zip(KINDS) {
            for j in 0..count {
                slots.push(((j as f64 + 0.5) / count as f64, kind));
            }
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0));
        slots.into_iter().map(|(_, kind)| kind).collect()
    }
}
