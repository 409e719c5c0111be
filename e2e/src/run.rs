//! The closed-loop runner: set-up, measured blocks, whole-store samples,
//! and the end-of-run correctness replay.
//!
//! Load comes from exactly `clients()` threads in this process, each
//! issuing its next op when the previous one returns. Work is a fixed op
//! count drawn from the seed (blocks of `ops_per_block`, two blocks per
//! second of `--seconds`), never a time box, so two runs of one seed do
//! the same work and a faster program finishes sooner.

use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sketch_cluster::ClusterSketch;

use crate::gen::{Corpus, Rng, Zipf};
use crate::sut::{Cluster, Embedded, Factory, StoreKind, System};
use crate::workloads::{
    Kind, Spec, SystemKind, BLOCKS_PER_SECOND, BULK_EVERY, KINDS, THRESHOLD, TOP_K,
};

/// Closed-loop client threads: one per CPU, so no sibling hyperthread
/// idles in and out of the measurement (capped so a big box does not
/// turn the workloads into lock-contention tests).
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 8)
}

/// Share of a run's samples that a timing metric leaves on its fast
/// side: it reads the fast quartile. Co-tenants of the host only ever
/// slow a block down, for seconds at a time, so the fast side of the
/// distribution repeats far better than its middle; the few fastest
/// blocks are left out because a lucky interleaving of the clients can
/// make a handful of them a quarter faster than the rest (see
/// `e2e/README.md` for the measurements).
pub const FAST_SHARE: f64 = 0.25;

/// The fast-side quantile of durations or latencies (lower is faster).
pub fn fast_low(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    values[(values.len() as f64 * FAST_SHARE) as usize]
}

/// The fast-side quantile of rates (higher is faster).
pub fn fast_high(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    values.sort_by(|a, b| b.total_cmp(a));
    values[(values.len() as f64 * FAST_SHARE) as usize]
}

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `q`-quantile (nearest rank) of latencies in nanoseconds, as µs.
pub fn quantile_us(latencies: &mut [u32], q: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let rank = ((latencies.len() as f64 * q) as usize).min(latencies.len() - 1);
    let (_, value, _) = latencies.select_nth_unstable(rank);
    *value as f64 / 1000.0
}

/// Key popularity: Zipf ranks mapped through a seeded permutation, so
/// the popular keys are spread over families and shards.
pub struct Popularity {
    zipf: Zipf,
    rank_to_key: Vec<u32>,
}

impl Popularity {
    pub fn new(seed: u64, keys: usize, exponent: f64) -> Self {
        let mut rank_to_key: Vec<u32> = (0..keys as u32).collect();
        let mut rng = Rng::derive(seed, 2, 0);
        for i in (1..keys).rev() {
            rank_to_key.swap(i, rng.below(i + 1));
        }
        Popularity {
            zipf: Zipf::new(keys, exponent),
            rank_to_key,
        }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        self.key_at_rank(self.zipf.sample(rng))
    }

    /// The key of popularity rank `rank` (0 is the most popular).
    pub fn key_at_rank(&self, rank: usize) -> usize {
        self.rank_to_key[rank] as usize
    }
}

#[derive(Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub key: u32,
    /// Second key of a Jaccard read.
    pub other: u32,
    /// Offset of an ingest's elements in the list's pool.
    pub elements: u32,
}

/// One client's ops for one block.
pub struct OpList {
    pub ops: Vec<Op>,
    pub pool: Vec<u64>,
    pub batch: usize,
}

impl OpList {
    pub fn elements(&self, op: &Op) -> &[u64] {
        &self.pool[op.elements as usize..op.elements as usize + self.batch]
    }
}

/// Everything a run draws ops from.
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub corpus: Corpus,
    pub popularity: Popularity,
    pattern: Vec<Kind>,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Inputs {
            corpus: Corpus::generate(seed, spec.keys, spec.per_key),
            popularity: Popularity::new(seed, spec.keys, spec.zipf),
            pattern: spec.pattern(),
            spec: spec.clone(),
            seed,
        }
    }

    /// The fixed op list of `(block, client)`. First-time elements it
    /// writes are appended to `fresh` as `(key, element)`.
    pub fn op_list(
        &self,
        block: usize,
        client: usize,
        count: usize,
        fresh: &mut Vec<(u32, u64)>,
    ) -> OpList {
        self.op_list_with(&self.pattern, block, client, count, fresh)
    }

    /// [`op_list`](Self::op_list) over another op pattern (the ladder
    /// replays kinds a workload's own mix may not contain).
    pub fn op_list_with(
        &self,
        pattern: &[Kind],
        block: usize,
        client: usize,
        count: usize,
        fresh: &mut Vec<(u32, u64)>,
    ) -> OpList {
        let spec = &self.spec;
        let cell = (block * clients() + client) as u64;
        let mut rng = Rng::derive(self.seed, 3, cell);
        let mut ops = Vec::with_capacity(count);
        let mut pool = Vec::new();
        for index in 0..count {
            // Clients start at different slots so the mix is even
            // within a block, not only across it.
            let kind = pattern[(index + client * 7) % pattern.len()];
            let key = self.popularity.draw(&mut rng);
            let mut op = Op {
                kind,
                key: key as u32,
                other: 0,
                elements: 0,
            };
            match kind {
                Kind::Ingest => {
                    op.elements = pool.len() as u32;
                    let universe = &self.corpus.universe[key];
                    for _ in 0..spec.batch - spec.fresh {
                        pool.push(universe[rng.below(universe.len())]);
                    }
                    for j in 0..spec.fresh {
                        let counter = ((cell << 24) + index as u64) * spec.fresh as u64 + j as u64;
                        let element = self.corpus.fresh_element(self.seed, key, counter);
                        pool.push(element);
                        fresh.push((key as u32, element));
                    }
                }
                Kind::Jaccard => op.other = self.corpus.sibling(key, &mut rng) as u32,
                Kind::Cardinality | Kind::TopK => {}
            }
            ops.push(op);
        }
        OpList {
            ops,
            pool,
            batch: spec.batch,
        }
    }
}

/// What one client saw in one block.
pub struct ClientResult {
    /// Latencies in ns per op kind, in issue order.
    pub latencies: [Vec<u32>; 4],
    /// `(kind, start ns since the run's origin, duration ns)` per op,
    /// kept only in a traced block.
    pub spans: Vec<(Kind, u64, u32)>,
    pub failed: u64,
    pub first_error: Option<String>,
    pub started: Instant,
    pub ended: Instant,
}

pub fn kind_index(kind: Kind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("listed kind")
}

/// Runs one op and checks its answer is inside its domain.
pub fn execute<S>(
    system: &dyn System<S>,
    corpus: &Corpus,
    list: &OpList,
    op: &Op,
) -> Result<(), String> {
    let key = &corpus.keys[op.key as usize];
    match op.kind {
        Kind::Ingest => system.ingest(key, list.elements(op)),
        Kind::Cardinality => system.cardinality(key).and_then(|value| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                Err(format!("cardinality({key}) = {value}"))
            }
        }),
        Kind::Jaccard => {
            let other = &corpus.keys[op.other as usize];
            system.jaccard(key, other).and_then(|value| {
                if (0.0..=1.0).contains(&value) {
                    Ok(())
                } else {
                    Err(format!("jaccard({key}, {other}) = {value}"))
                }
            })
        }
        Kind::TopK => system.top_k(key, TOP_K, THRESHOLD).and_then(|found| {
            // A key's family alone holds FAMILY - 1 > TOP_K neighbours
            // well above the threshold.
            if found.len() == TOP_K && found.iter().all(|j| (0.0..=1.0).contains(j)) {
                Ok(())
            } else {
                Err(format!("top_k({key}) returned {found:?}"))
            }
        }),
    }
}

fn run_client<S>(
    system: &dyn System<S>,
    corpus: &Corpus,
    list: &OpList,
    barrier: &Barrier,
    origin: Option<Instant>,
) -> ClientResult {
    let mut latencies: [Vec<u32>; 4] = Default::default();
    let mut spans = Vec::new();
    let mut failed = 0;
    let mut first_error = None;
    barrier.wait();
    let started = Instant::now();
    for op in &list.ops {
        let start = Instant::now();
        let outcome = execute(system, corpus, list, op);
        let nanos = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        latencies[kind_index(op.kind)].push(nanos);
        if let Some(origin) = origin {
            spans.push((op.kind, (start - origin).as_nanos() as u64, nanos));
        }
        if let Err(error) = outcome {
            failed += 1;
            first_error.get_or_insert(error);
        }
    }
    ClientResult {
        latencies,
        spans,
        failed,
        first_error,
        started,
        ended: Instant::now(),
    }
}

/// One block's outcome over all clients.
pub struct Block {
    pub ops: usize,
    pub wall: Duration,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Pooled latencies per kind.
    pub latencies: [Vec<u32>; 4],
    pub spans: Vec<(Kind, u64, u32)>,
}

impl Block {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }

    pub fn p50_us(&mut self, kind: Kind) -> f64 {
        quantile_us(&mut self.latencies[kind_index(kind)], 0.5)
    }
}

/// Generates block `block`'s op lists (`ops` ops over all clients) on
/// the client threads, untimed, then runs them closed-loop. `origin`
/// switches span recording on.
pub fn run_block<S>(
    system: &dyn System<S>,
    inputs: &Inputs,
    block: usize,
    ops: usize,
    origin: Option<Instant>,
    fresh: &mut Vec<(u32, u64)>,
) -> Block {
    let clients = clients();
    let per_client = ops / clients;
    let barrier = Barrier::new(clients);
    let results: Vec<(ClientResult, Vec<(u32, u64)>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut fresh = Vec::new();
                    let list = inputs.op_list(block, client, per_client, &mut fresh);
                    let result = run_client(system, &inputs.corpus, &list, barrier, origin);
                    (result, fresh)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let started = results
        .iter()
        .map(|(r, _)| r.started)
        .min()
        .expect("clients");
    let ended = results.iter().map(|(r, _)| r.ended).max().expect("clients");
    let mut out = Block {
        ops: per_client * clients,
        wall: ended - started,
        failed: 0,
        first_error: None,
        latencies: Default::default(),
        spans: Vec::new(),
    };
    for (result, client_fresh) in results {
        out.failed += result.failed;
        if out.first_error.is_none() {
            out.first_error = result.first_error;
        }
        for (pooled, own) in out.latencies.iter_mut().zip(result.latencies) {
            pooled.extend(own);
        }
        out.spans.extend(result.spans);
        fresh.extend(client_fresh);
    }
    out
}

/// Scratch directory of a run, removed on success and on failure alike
/// (including a panic unwinding through its owner).
pub struct Scratch(pub std::path::PathBuf);

impl Scratch {
    pub fn create(parent: &Path, label: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = parent.join(format!("e2e-tmp-{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the workload's system under `dir` and preloads every key's
/// universe from the client threads, then builds the similarity index
/// cold if the workload queries it. The returned duration is `setup_s`:
/// from nothing to the first measured op being issuable.
pub fn set_up<S: ClusterSketch>(
    inputs: &Inputs,
    factory: &Factory<S>,
    dir: &Path,
) -> Result<(AnySystem<S>, Duration), String> {
    let spec = &inputs.spec;
    let start = Instant::now();
    let mut system = AnySystem::start(spec, factory, dir, &inputs.corpus.keys)?;
    preload(&*system, inputs)?;
    if let AnySystem::Cluster(cluster) = &mut system {
        // Replicate the preload everywhere, as a served cluster would
        // have before taking reads.
        cluster.full_sync()?;
    }
    if spec.mix[kind_index(Kind::TopK)] > 0 {
        system.top_k(&inputs.corpus.keys[0], TOP_K, THRESHOLD)?;
    }
    Ok((system, start.elapsed()))
}

/// Ingests every key's whole universe, keys split over the clients.
fn preload<S>(system: &dyn System<S>, inputs: &Inputs) -> Result<(), String> {
    let clients = clients();
    let batch = inputs.spec.preload_batch;
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    for key in (client..inputs.corpus.len()).step_by(clients) {
                        for chunk in inputs.corpus.universe[key].chunks(batch) {
                            system.ingest(&inputs.corpus.keys[key], chunk)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("preload thread panicked"))
            .collect()
    });
    outcomes.into_iter().collect()
}

/// The system of a workload: a cluster or an embedded store. An enum so
/// the runner stays one generic function per sketch type.
#[allow(clippy::large_enum_variant)] // one value per run
pub enum AnySystem<S: ClusterSketch> {
    Cluster(Cluster<S>),
    Embedded(Embedded<S>),
}

impl<S: ClusterSketch> AnySystem<S> {
    fn start(
        spec: &Spec,
        factory: &Factory<S>,
        dir: &Path,
        keys: &[String],
    ) -> Result<Self, String> {
        let embedded = |kind| Ok(AnySystem::Embedded(Embedded::start(factory, kind, keys)));
        match spec.system {
            SystemKind::Cluster => Cluster::start(factory, dir, spec.checkpoint_after_bytes, keys)
                .map(AnySystem::Cluster),
            SystemKind::Durable => embedded(StoreKind::Durable {
                dir: dir.join("store"),
                checkpoint_after_bytes: spec.checkpoint_after_bytes,
            }),
            SystemKind::Plain => embedded(StoreKind::Plain),
            SystemKind::Tiered => {
                let resident = factory().resident_bytes();
                std::fs::create_dir_all(dir.join("spill")).map_err(|e| e.to_string())?;
                embedded(StoreKind::Tiered {
                    memory_budget_bytes: spec.budget_sketches * resident,
                    spill_dir: dir.join("spill"),
                })
            }
        }
    }
}

impl<S: ClusterSketch> std::ops::Deref for AnySystem<S> {
    type Target = dyn System<S>;

    fn deref(&self) -> &Self::Target {
        match self {
            AnySystem::Cluster(cluster) => cluster,
            AnySystem::Embedded(embedded) => embedded,
        }
    }
}

impl<S: ClusterSketch> std::ops::DerefMut for AnySystem<S> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            AnySystem::Cluster(cluster) => cluster,
            AnySystem::Embedded(embedded) => embedded,
        }
    }
}

/// Number of measured blocks for `--seconds`: two per second, rounded
/// up to whole groups of three so that every group ends in a
/// whole-store sample (10 s: 21 blocks, 7 samples).
pub fn blocks_for(seconds: u64) -> usize {
    (seconds as usize * BLOCKS_PER_SECOND)
        .clamp(1, 120)
        .div_ceil(BULK_EVERY)
        * BULK_EVERY
}

/// Block ids of the log tails written before restarts, clear of the
/// measured blocks' ids so that their first-time elements stay unique.
const TAIL_BLOCK: usize = 500;

/// The measured phase of a run.
pub struct Measured {
    pub blocks: Vec<Block>,
    /// `bulk_iters` samples of the whole-store operation after every
    /// third block.
    pub bulk_s: Vec<f64>,
    /// The last whole-store result (pairs of the last sweep, records of
    /// the last replay).
    pub last_bulk: crate::sut::Bulk,
    /// `mem_bytes_per_key` sampled after every block.
    pub mem_samples: Vec<f64>,
    pub fresh: Vec<(u32, u64)>,
    pub errors: Vec<String>,
    pub bulk_failed: u64,
}

/// Runs one warm-up block, then `blocks` measured blocks with a
/// whole-store sample after every third. With `origin` set, odd blocks
/// record spans (even ones do not, which gives the tracing overhead).
pub fn measure<S: ClusterSketch>(
    system: &mut AnySystem<S>,
    inputs: &Inputs,
    blocks: usize,
    origin: Option<Instant>,
) -> Measured {
    let mut out = Measured {
        blocks: Vec::with_capacity(blocks),
        bulk_s: Vec::new(),
        last_bulk: Default::default(),
        mem_samples: Vec::new(),
        fresh: Vec::new(),
        errors: Vec::new(),
        bulk_failed: 0,
    };
    // Block 0 is the warm-up: same code, not reported.
    for block in 0..=blocks {
        let traced = origin.filter(|_| block % 2 == 1);
        let ops = inputs.spec.ops_per_block;
        let result = run_block(&**system, inputs, block, ops, traced, &mut out.fresh);
        if let Err(error) = system.after_block() {
            out.errors.push(format!("after block {block}: {error}"));
            out.bulk_failed += 1;
        }
        if block == 0 {
            out.errors.extend(result.first_error);
            out.bulk_failed += result.failed;
            continue;
        }
        out.mem_samples.push(system.mem_bytes_per_key());
        out.errors.extend(result.first_error.clone());
        out.blocks.push(result);
        if block % BULK_EVERY == 0 {
            if inputs.spec.restart_tail_ops > 0 {
                // Every restart replays the same length of log: cut a
                // checkpoint, then write a fixed tail, both untimed.
                let tail = system.checkpoint().map(|()| {
                    let ops = inputs.spec.restart_tail_ops;
                    run_block(
                        &**system,
                        inputs,
                        TAIL_BLOCK + block,
                        ops,
                        None,
                        &mut out.fresh,
                    )
                });
                match tail {
                    Ok(tail) if tail.failed == 0 => {}
                    Ok(tail) => {
                        out.bulk_failed += tail.failed;
                        out.errors.extend(tail.first_error);
                    }
                    Err(error) => {
                        out.bulk_failed += 1;
                        out.errors
                            .push(format!("checkpoint after block {block}: {error}"));
                    }
                }
            }
            for _ in 0..inputs.spec.bulk_iters {
                match system.bulk() {
                    Ok(bulk) => {
                        out.bulk_s.push(bulk.elapsed.as_secs_f64());
                        out.last_bulk = bulk;
                    }
                    Err(error) => {
                        out.errors
                            .push(format!("bulk after block {block}: {error}"));
                        out.bulk_failed += 1;
                    }
                }
            }
        }
    }
    out
}

/// End-of-run answers checked against the generator's exact sets.
pub struct Verdict {
    /// RMS relative error of the run's answers (see `answer_err`).
    pub answer_err: f64,
    /// Keys whose final registers differ from the reference replay, or
    /// whose answer could not be read.
    pub failed: u64,
    pub checked: u64,
    pub errors: Vec<String>,
    /// Share of the construction-known family pairs the last all-pairs
    /// sweep reported (1 when the workload has no sweep).
    pub pair_recall: f64,
}

/// Replays the run's writes into plain reference sketches (order-free:
/// inserts are idempotent and commutative) and requires bit-for-bit
/// equal registers for every key on every replica; then scores the
/// answers. For a cluster, call after syncing to convergence.
pub fn verify<S: ClusterSketch>(
    system: &AnySystem<S>,
    inputs: &Inputs,
    factory: &Factory<S>,
    measured: &Measured,
) -> Verdict {
    let corpus = &inputs.corpus;
    let mut fresh_of: Vec<Vec<u64>> = vec![Vec::new(); corpus.len()];
    for &(key, element) in &measured.fresh {
        fresh_of[key as usize].push(element);
    }
    let clients = clients();
    let fresh_of = &fresh_of;
    // (mismatches, squared relative cardinality errors, error texts)
    let parts: Vec<(u64, f64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let (mut bad, mut squares, mut errors) = (0, 0.0, Vec::new());
                    for key in (client..corpus.len()).step_by(clients) {
                        let mut reference = factory();
                        reference.insert_batch(&corpus.universe[key]);
                        reference.insert_batch(&fresh_of[key]);
                        let name = &corpus.keys[key];
                        if !system.registers_equal(name, &reference) {
                            bad += 1;
                            errors.push(format!("registers of {name} differ from the replay"));
                        }
                        let exact = (corpus.universe[key].len() + fresh_of[key].len()) as f64;
                        match system.cardinality(name) {
                            Ok(estimate) => squares += ((estimate - exact) / exact).powi(2),
                            Err(error) => {
                                bad += 1;
                                errors.push(format!("final cardinality({name}): {error}"));
                            }
                        }
                    }
                    (bad, squares, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("verify thread panicked"))
            .collect()
    });
    let mut verdict = Verdict {
        answer_err: 0.0,
        failed: 0,
        checked: corpus.len() as u64,
        errors: Vec::new(),
        pair_recall: 1.0,
    };
    let mut squares = 0.0;
    for (bad, part, errors) in parts {
        verdict.failed += bad;
        squares += part;
        verdict.errors.extend(errors);
    }
    verdict.answer_err = (squares / corpus.len() as f64).sqrt();

    if inputs.spec.system == SystemKind::Plain {
        // The similarity workload is scored on what its sweep reports:
        // Jaccard error over the family pairs it found, and how many of
        // them it found at all.
        let exact = corpus.family_jaccard;
        let family = |key: &str| key[1..].parse::<usize>().map(|k| k / crate::gen::FAMILY);
        let (mut found, mut squares) = (0u64, 0.0);
        for (left, right, jaccard) in &measured.last_bulk.pairs {
            if family(left) == family(right) {
                found += 1;
                squares += ((jaccard - exact) / exact).powi(2);
            }
        }
        let expected =
            (corpus.len() / crate::gen::FAMILY) * crate::gen::FAMILY * (crate::gen::FAMILY - 1) / 2;
        verdict.pair_recall = found as f64 / expected as f64;
        verdict.answer_err = (squares / (found as f64).max(1.0)).sqrt();
        if verdict.pair_recall < 0.95 {
            verdict.failed += 1;
            verdict.errors.push(format!(
                "all-pairs recall {:.4} below 0.95",
                verdict.pair_recall
            ));
        }
    }
    verdict
}
