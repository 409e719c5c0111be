//! The sharded concurrent sketch registry.

use crate::builder::StoreBuilder;
use crate::error::StoreError;
use crate::pipeline::PipelineDefaults;
use crate::query::SimilarityIndex;
use crate::tier::{TierPolicy, TierRuntime, TierSlot};
use crate::wal::Durability;
use parking_lot::RwLock;
use sketch_core::{JointQuantities, Sketch};
use sketch_rand::hash_bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A stored sketch together with its write version and tier state.
///
/// Every access that raises a register of the key — an ingest or
/// merge-in that raised one, the write that created the key, a put —
/// stamps the slot with a fresh value of the store's monotonic write
/// counter and raises its shard's mutation mark
/// ([`SketchStore::mark_dirty`]) — together all the bookkeeping ingest
/// pays for similarity-index maintenance: the query engine sweeps only
/// the shards whose mark moved since it last looked, and re-bands
/// exactly the keys of those shards whose version moved. A write that
/// raised nothing left the registers as they were, so it stamps
/// nothing: it costs what a read costs. The counter is store-global, so
/// a key removed and later re-created never repeats an old version (the
/// index relies on inequality to detect staleness).
///
/// Tier moves (hot ↔ warm ↔ frozen) do **not** bump the version — the
/// registers are unchanged, so index entries and the cached cardinality
/// stay valid. The `touched` bit is the clock scan's second chance: set
/// by every read and write, cleared on the scan's first encounter,
/// demoted on its second.
#[derive(Debug)]
pub(crate) struct Slot<S> {
    pub(crate) state: TierSlot<S>,
    pub(crate) version: u64,
    pub(crate) touched: AtomicBool,
    /// Cardinality estimate of the registers at `version` as `f64`
    /// bits, or [`NO_CARDINALITY`]. Filled by similarity verification
    /// under the shard's read lock; [`restamp`](Self::restamp) empties
    /// it under the write lock, so a stale figure is never served.
    cardinality: AtomicU64,
}

/// Bit pattern of an empty slot cardinality cache. It is a NaN, which
/// no estimator reports; if one ever did, the figure would merely be
/// recomputed on every use.
const NO_CARDINALITY: u64 = u64::MAX;

impl<S> Slot<S> {
    /// A slot in tier `state` at `version`, with an empty cardinality
    /// cache.
    pub(crate) fn new(state: TierSlot<S>, version: u64, touched: bool) -> Self {
        Slot {
            state,
            version,
            touched: AtomicBool::new(touched),
            cardinality: AtomicU64::new(NO_CARDINALITY),
        }
    }

    /// A freshly resident slot (touched, so the next clock pass spares
    /// it).
    pub(crate) fn hot(sketch: S, version: u64) -> Self {
        Self::new(TierSlot::Hot(sketch, None), version, true)
    }

    /// A slot restored compressed from a checkpoint (untouched: it
    /// stays warm until first used).
    pub(crate) fn warm(payload: Vec<u8>, version: u64) -> Self {
        Self::new(TierSlot::Warm(payload.into_boxed_slice()), version, false)
    }

    /// Stamps a write of the slot's registers: the new version, and an
    /// empty cardinality cache. Every version bump of a live slot goes
    /// through here, by way of [`SketchStore::restamp`], which releases
    /// a clean slot's spill record in the same step.
    pub(crate) fn restamp(&mut self, version: u64) {
        self.version = version;
        *self.cardinality.get_mut() = NO_CARDINALITY;
    }

    /// The cached cardinality of the current registers, computed by
    /// `estimate` and cached on a miss. Callers hold the shard's lock.
    /// `Relaxed` suffices: the value publishes no other data, and the
    /// shard lock orders every fill and read (read lock) against the
    /// reset in [`restamp`](Self::restamp) (write lock); two readers
    /// racing on a miss store the same figure.
    pub(crate) fn cardinality_or(&self, estimate: impl FnOnce() -> f64) -> f64 {
        let bits = self.cardinality.load(Ordering::Relaxed);
        if bits != NO_CARDINALITY {
            return f64::from_bits(bits);
        }
        let cardinality = estimate();
        self.cardinality
            .store(cardinality.to_bits(), Ordering::Relaxed);
        cardinality
    }

    /// Marks the slot recently used (second-chance bit).
    pub(crate) fn touch(&self) {
        self.touched.store(true, Ordering::Relaxed);
    }

    /// The resident sketch; callers must have promoted first.
    pub(crate) fn hot_ref(&self) -> &S {
        match &self.state {
            TierSlot::Hot(sketch, _) => sketch,
            _ => unreachable!("slot not resident after promotion"),
        }
    }

    /// Mutable resident sketch; callers must have promoted first.
    pub(crate) fn hot_mut(&mut self) -> &mut S {
        match &mut self.state {
            TierSlot::Hot(sketch, _) => sketch,
            _ => unreachable!("slot not resident after promotion"),
        }
    }
}

/// One shard: a lock-guarded map from key to its versioned slot.
pub(crate) type Shard<S> = RwLock<HashMap<String, Slot<S>>>;

/// The guards of two keys' shards, from
/// [`SketchStore::lock_pair`]: `first` over the lower shard index
/// `lo`, `second` over the higher one unless both keys share a shard.
struct LockedPair<G> {
    lo: usize,
    first: G,
    second: Option<G>,
}

impl<G> LockedPair<G> {
    /// The guard over shard `index` (one of the pair's two).
    fn shard(&self, index: usize) -> &G {
        match &self.second {
            Some(second) if index != self.lo => second,
            _ => &self.first,
        }
    }

    fn shard_mut(&mut self, index: usize) -> &mut G {
        match &mut self.second {
            Some(second) if index != self.lo => second,
            _ => &mut self.first,
        }
    }
}

/// Seed of the key-routing hash (independent of any sketch's seed).
const ROUTING_SEED: u64 = 0x5354_4f52_4b45_5953; // "STORKEYS"

/// Default shard count of [`StoreBuilder`]-constructed stores.
pub const DEFAULT_SHARDS: usize = 16;

/// A concurrent registry mapping string keys to sketches of one type.
///
/// The key space is split across `N` shards, each guarded by its own
/// `parking_lot::RwLock` over a hash map, so writers to different keys
/// rarely contend and readers never block each other. All operations
/// take `&self`; share the store across threads with
/// [`Arc`](std::sync::Arc) or scoped threads.
///
/// Sketches are created on first ingest by the store's *factory*
/// closure, which fixes the configuration and hash seed — everything the
/// store creates is therefore mutually compatible, and cross-key queries
/// ([`joint`](Self::joint), [`merge_keys`](Self::merge_keys)) work by
/// construction. Externally built sketches can still be injected with
/// [`put`](Self::put) (e.g. states shipped from another process); if
/// their parameters differ, combining queries surface the sketch
/// family's detailed incompatibility error through
/// [`StoreError::Incompatible`].
///
/// With a [`memory_budget_bytes`](StoreBuilder::memory_budget_bytes)
/// the store additionally manages *where* each key's registers live:
/// while over budget, cold keys are compressed in place (warm) and then
/// spilled to disk (frozen), while reads and writes transparently
/// rehydrate them — see [`tier_stats`](Self::tier_stats) and the
/// memory-tiers section of the crate overview.
///
/// ```
/// use setsketch::{SetSketch2, SetSketchConfig};
/// use sketch_store::SketchStore;
///
/// let config = SetSketchConfig::example_16bit();
/// let store = SketchStore::builder(move || SetSketch2::new(config, 42)).build();
///
/// store.ingest("paris", &(0..10_000).collect::<Vec<u64>>());
/// store.ingest("london", &(5_000..15_000).collect::<Vec<u64>>());
///
/// let paris = store.cardinality("paris").unwrap();
/// assert!((paris - 10_000.0).abs() / 10_000.0 < 0.1);
///
/// // True Jaccard: 5000 / 15000 = 1/3.
/// let joint = store.joint("paris", "london").unwrap();
/// assert!((joint.jaccard - 1.0 / 3.0).abs() < 0.05);
///
/// let global = store.union_cardinality(&["paris", "london"]).unwrap();
/// assert!((global - 15_000.0).abs() / 15_000.0 < 0.1);
/// ```
pub struct SketchStore<S> {
    shards: Box<[Shard<S>]>,
    /// One mutation mark per shard, index-aligned with `shards`: raised
    /// under the shard's write lock by every insert, removal, clear and
    /// version re-stamp ([`mark_dirty`](Self::mark_dirty)), never by a
    /// tier move or a write that raised no register. A similarity index state that swept a
    /// shard at mark `x` is current for it while the mark still reads
    /// `x`.
    marks: Box<[AtomicU64]>,
    factory: Box<dyn Fn() -> S + Send + Sync>,
    /// Monotonic write counter feeding the slots' version stamps.
    write_epoch: AtomicU64,
    /// Tiering state: decoding prototype, policy, the budget counter,
    /// clock hand and spill segments (see [`crate::tier`], which makes
    /// every slot state change).
    pub(crate) tier: TierRuntime<S>,
    /// Pipeline knobs fixed at construction ([`StoreBuilder`]); applied
    /// by every [`pipeline`](Self::pipeline) handle the store hands out.
    pub(crate) pipeline_defaults: PipelineDefaults,
    /// Lazily built banding LSH indexes (one per queried threshold,
    /// each with a last-used stamp) over the stored sketches'
    /// signatures, maintained incrementally by the similarity query
    /// engine (see [`crate::query`]). Queries on a current state share
    /// the read lock; only tuning and refreshing a state whose shards
    /// moved take the write lock.
    pub(crate) similarity: RwLock<Vec<SimilarityIndex>>,
    /// Index-cache lookups so far (diagnostics, reported by
    /// [`similarity_index_info`](Self::similarity_index_info)); each
    /// lookup's count is the last-used stamp of the state it lands on.
    pub(crate) index_lookups: AtomicU64,
    /// Lookups that tuned a fresh index state (the rest were hits).
    pub(crate) index_cache_misses: AtomicU64,
    /// Write-ahead log and checkpoint runtime, present when the builder
    /// set a [`durable_dir`](StoreBuilder::durable_dir) (see
    /// [`crate::wal`]). Installed by the builder before the store is
    /// shared.
    pub(crate) durability: Option<Durability>,
}

impl<S: Sketch> SketchStore<S> {
    /// Starts building a store around `factory`, the closure that builds
    /// the empty sketch for every new key (fixing configuration and hash
    /// seed). This is the one construction entry point; shard count,
    /// ingest-pipeline depth and writer threads, memory-tier knobs and
    /// future options hang off the returned [`StoreBuilder`].
    ///
    /// ```
    /// use setsketch::{SetSketch2, SetSketchConfig};
    /// use sketch_store::SketchStore;
    ///
    /// let config = SetSketchConfig::example_16bit();
    /// let store = SketchStore::builder(move || SetSketch2::new(config, 42))
    ///     .shards(32)
    ///     .queue_depth(512)
    ///     .writer_threads(4)
    ///     .build();
    /// assert_eq!(store.shard_count(), 32);
    /// ```
    pub fn builder(factory: impl Fn() -> S + Send + Sync + 'static) -> StoreBuilder<S> {
        StoreBuilder::new(factory)
    }

    /// Assembles the store from validated [`StoreBuilder`] parts.
    pub(crate) fn from_parts(
        shards: usize,
        factory: Box<dyn Fn() -> S + Send + Sync>,
        pipeline_defaults: PipelineDefaults,
        tier_policy: TierPolicy,
    ) -> Self {
        debug_assert!(shards > 0, "builder validates the shard count");
        let marks = (0..shards).map(|_| AtomicU64::new(0)).collect();
        let shards = (0..shards)
            .map(|_| RwLock::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        // The codec decompresses against an empty factory sketch; build
        // it once so promotions never call the factory.
        let prototype = factory();
        Self {
            shards,
            marks,
            factory,
            write_epoch: AtomicU64::new(0),
            tier: TierRuntime::new(tier_policy, prototype),
            pipeline_defaults,
            similarity: RwLock::new(Vec::new()),
            index_lookups: AtomicU64::new(0),
            index_cache_misses: AtomicU64::new(0),
            durability: None,
        }
    }

    /// A fresh, never-repeated version stamp for a mutated slot.
    #[inline]
    pub(crate) fn next_version(&self) -> u64 {
        self.write_epoch.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Raises shard `index`'s mutation mark. The one place the marks
    /// move: every path that inserts, removes, clears or re-stamps a
    /// slot calls it while holding that shard's write lock, so a reader
    /// that loads the mark under the shard's read lock has seen every
    /// change the mark counts. `Relaxed` suffices: the mark publishes no
    /// data (sweeps read slots under the shard lock, which orders them),
    /// and a query ordered after a write — by program order or any
    /// synchronization — reads the raised mark by coherence.
    #[inline]
    pub(crate) fn mark_dirty(&self, index: usize) {
        self.marks[index].fetch_add(1, Ordering::Relaxed);
    }

    /// Shard `index`'s current mutation mark (see
    /// [`mark_dirty`](Self::mark_dirty)).
    #[inline]
    pub(crate) fn shard_mark(&self, index: usize) -> u64 {
        self.marks[index].load(Ordering::Relaxed)
    }

    /// Current write-counter value, for the delta module's sweeps.
    #[inline]
    pub(crate) fn write_epoch_load(&self) -> u64 {
        self.write_epoch.load(Ordering::Relaxed)
    }

    /// Restores the write counter from a recovered checkpoint, so
    /// version stamps issued after a restart stay above everything
    /// replicas have already seen (recovery only — the store is not
    /// shared yet).
    pub(crate) fn set_write_epoch(&self, value: u64) {
        self.write_epoch.store(value, Ordering::Relaxed);
    }

    /// Builds an empty sketch through the store's factory (the
    /// configuration every stored sketch shares).
    pub(crate) fn make_sketch(&self) -> S {
        (self.factory)()
    }

    /// The shard array, for the query engine's version sweep and the
    /// tier manager's clock scan.
    pub(crate) fn shards(&self) -> &[Shard<S>] {
        &self.shards
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a key routes to (multiply-shift over the routing
    /// hash; uniform for any shard count). Also the pipeline's routing
    /// function, so one writer thread owns each shard's traffic.
    #[inline]
    pub(crate) fn shard_index(&self, key: &str) -> usize {
        let hash = hash_bytes(key.as_bytes(), ROUTING_SEED);
        (((hash as u128) * (self.shards.len() as u128)) >> 64) as usize
    }

    #[inline]
    pub(crate) fn shard(&self, key: &str) -> &Shard<S> {
        &self.shards[self.shard_index(key)]
    }

    /// Number of stored sketches (locks each shard briefly; the count is
    /// approximate while writers are active).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if no key holds a sketch.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// True if `key` holds a sketch (in any tier).
    pub fn contains_key(&self, key: &str) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// All keys in **ascending lexicographic order** (point-in-time per
    /// shard).
    ///
    /// Internally keys live in hash-ordered shard maps, so the raw
    /// iteration order would vary with the shard count and hasher; this
    /// method sorts before returning, and the order is guaranteed —
    /// callers may rely on it for deterministic sweeps and diffs.
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().cloned().collect::<Vec<_>>())
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Runs a closure against the sketch under `key` without cloning it.
    ///
    /// A point read **promotes**: if the key's registers are compressed
    /// (warm) or spilled (frozen), they are rehydrated to a resident
    /// sketch under the shard's write lock first; hot keys take the
    /// original read-lock fast path. A corrupt payload behaves like a
    /// missing key here; [`cardinality`](Self::cardinality) tells the
    /// two apart ([`StoreError::CorruptSlot`]).
    pub fn with_sketch<R>(&self, key: &str, op: impl FnOnce(&S) -> R) -> Option<R> {
        self.try_with_sketch(key, op).ok().flatten()
    }

    /// Like [`with_sketch`](Self::with_sketch), but a warm/frozen
    /// payload that fails its checksum or codec round-trip surfaces as
    /// [`StoreError::CorruptSlot`] (and the slot is quarantined)
    /// instead of folding into `None`.
    fn try_with_sketch<R>(
        &self,
        key: &str,
        op: impl FnOnce(&S) -> R,
    ) -> Result<Option<R>, StoreError> {
        {
            let shard = self.shard(key).read();
            match shard.get(key) {
                None => return Ok(None),
                Some(slot) => {
                    if let TierSlot::Hot(sketch, _) = &slot.state {
                        slot.touch();
                        return Ok(Some(op(sketch)));
                    }
                }
            }
        }
        // Cold key: promote under the write lock (the key can vanish in
        // the unlocked window, hence the re-check).
        let result = {
            let mut shard = self.shard(key).write();
            let Some(slot) = shard.get_mut(key) else {
                return Ok(None);
            };
            self.promote(key, slot)?;
            Some(op(slot.hot_ref()))
        };
        self.maintain();
        Ok(result)
    }

    /// Stores `sketch` under `key`, replacing and returning any previous
    /// sketch. This bypasses the factory — use it to inject states built
    /// elsewhere (e.g. states shipped from worker processes). The new
    /// entry starts hot; a replaced warm/frozen entry is rehydrated on
    /// the way out.
    pub fn put(&self, key: &str, sketch: S) -> Option<S> {
        // Compress before entering the logged section so the record
        // closure does not contend with the apply closure for `sketch`.
        let compact = self.durability.is_some().then(|| sketch.compress());
        self.log_then_apply(
            move || crate::wal::encode_put(key, &compact.expect("compressed when durable")),
            move |store| {
                let previous = {
                    // Stamped under the shard lock, like every other
                    // write: a delta sweep that read the counter past
                    // this version must find the slot.
                    let index = store.shard_index(key);
                    let mut shard = store.shards[index].write();
                    let version = store.next_version();
                    store.mark_dirty(index);
                    store.insert_slot(&mut shard, key.to_owned(), Slot::hot(sketch, version))
                };
                store.maintain();
                previous
            },
        )
    }

    /// Removes and returns the sketch under `key` (rehydrating it if it
    /// was warm or frozen; `None` is also returned for a quarantined
    /// slot, whose registers are unrecoverable — the entry is removed
    /// either way).
    pub fn remove(&self, key: &str) -> Option<S> {
        self.log_then_apply(
            || crate::wal::encode_remove(key),
            |store| {
                let index = store.shard_index(key);
                let mut shard = store.shards[index].write();
                let removed = store.remove_slot(&mut shard, key)?;
                store.mark_dirty(index);
                removed
            },
        )
    }

    /// Removes every sketch (and drops any spill segments).
    ///
    /// Atomic against concurrent writers: every shard stays locked
    /// until the whole store and its memory tiers are empty, so a write
    /// racing the clear lands either wholly before it (and is cleared)
    /// or wholly after it.
    pub fn clear(&self) {
        self.log_then_apply(crate::wal::encode_clear, |store| store.clear_slots());
    }

    /// Locks the shards of two keys (by `lock`) in ascending shard
    /// order, the store's only nesting order, so no two lockers
    /// deadlock. Two keys of one shard share one guard.
    fn lock_pair<'a, G>(
        &'a self,
        ia: usize,
        ib: usize,
        lock: impl Fn(&'a Shard<S>) -> G,
    ) -> LockedPair<G> {
        let lo = ia.min(ib);
        let first = lock(&self.shards[lo]);
        let second = (ia != ib).then(|| lock(&self.shards[ia.max(ib)]));
        LockedPair { lo, first, second }
    }

    /// Runs `op` on the sketches of two keys, promoting either to hot
    /// if needed; when both are already resident only read locks are
    /// taken.
    fn with_pair<R>(
        &self,
        key_a: &str,
        key_b: &str,
        op: impl FnOnce(&S, &S) -> R,
    ) -> Result<R, StoreError> {
        let not_found = |key: &str| StoreError::KeyNotFound(key.to_owned());
        let (ia, ib) = (self.shard_index(key_a), self.shard_index(key_b));
        // Fast path: both resident — read locks only.
        {
            let pair = self.lock_pair(ia, ib, |shard| shard.read());
            let slot = |index, key| pair.shard(index).get(key).ok_or_else(|| not_found(key));
            let (a, b) = (slot(ia, key_a)?, slot(ib, key_b)?);
            if let (TierSlot::Hot(sa, _), TierSlot::Hot(sb, _)) = (&a.state, &b.state) {
                a.touch();
                b.touch();
                return Ok(op(sa, sb));
            }
        }
        // Slow path: at least one side is cold — retake the locks as
        // write locks (same ascending order) and promote both.
        let mut pair = self.lock_pair(ia, ib, |shard| shard.write());
        let mut promote = |index, key| {
            let slot = pair.shard_mut(index).get_mut(key);
            self.promote(key, slot.ok_or_else(|| not_found(key))?)
        };
        let result = promote(ia, key_a)
            .and_then(|()| promote(ib, key_b))
            .map(|()| {
                op(
                    pair.shard(ia)[key_a].hot_ref(),
                    pair.shard(ib)[key_b].hot_ref(),
                )
            });
        drop(pair);
        self.maintain();
        result
    }

    /// Write-locks the key's shard and applies `op` to its sketch,
    /// creating it through the factory on first use and promoting it to
    /// hot if it was compressed or spilled (a no-op write to a cold key
    /// still promotes). The existing-key fast path avoids allocating an
    /// owned key string; every tier move goes through [`crate::tier`].
    ///
    /// `op` answers whether it changed the sketch. Only a change — or
    /// the key's creation, or a restart over a corrupt slot — counts as
    /// a write: the slot is restamped, the shard marked dirty and
    /// `on_change` run, all before the shard lock is released, so the
    /// similarity index re-bands exactly the keys whose registers
    /// moved. A write that changed nothing is a read. An `op` error
    /// leaves the key as it was (a key it would have created is not).
    ///
    /// This is the **unlogged** write path: ingest and merge-in pass
    /// the WAL append as `on_change`
    /// ([`apply_then_log`](Self::apply_then_log)), and WAL replay,
    /// which runs before the log is installed, passes nothing.
    pub(crate) fn with_entry<E>(
        &self,
        key: &str,
        op: impl FnOnce(&mut S) -> Result<bool, E>,
        on_change: impl FnOnce(),
    ) -> Result<bool, E> {
        let index = self.shard_index(key);
        let mut shard = self.shards[index].write();
        let result = match shard.get_mut(key) {
            Some(slot) => {
                let result = if self.promote(key, slot).is_ok() {
                    op(slot.hot_mut())
                } else {
                    // A corrupt slot's registers are gone; a write
                    // starts the key over from a fresh factory sketch
                    // (in a replicated deployment anti-entropy re-fills
                    // the rest).
                    let mut sketch = (self.factory)();
                    op(&mut sketch).map(|_| {
                        self.set_state(slot, TierSlot::Hot(sketch, None));
                        true
                    })
                };
                if let Ok(true) = result {
                    self.restamp(slot);
                }
                result
            }
            None => {
                let mut sketch = (self.factory)();
                op(&mut sketch).map(|_| {
                    let slot = Slot::hot(sketch, self.next_version());
                    self.insert_slot(&mut shard, key.to_owned(), slot);
                    true
                })
            }
        };
        if let Ok(true) = result {
            self.mark_dirty(index);
            on_change();
        }
        drop(shard);
        self.maintain();
        result
    }

    /// Records one element under `key`, creating the sketch on first
    /// use — [`ingest`](Self::ingest) of a one-element batch.
    pub fn insert(&self, key: &str, element: u64) {
        self.ingest(key, std::slice::from_ref(&element));
    }

    /// Records a batch of elements under `key`, creating the sketch on
    /// first use. One lock acquisition per log record — the whole batch
    /// unless it outgrows the 64 MiB record limit (≈ 8.4 M elements),
    /// applied through [`Sketch::insert_batch_changed`] (SetSketch's
    /// deduplicated value-order fill).
    ///
    /// The batch is applied first; only when it raised a register (or
    /// created the key) is the key restamped and, on a durable store,
    /// the batch logged. A batch of elements the key already holds —
    /// almost every batch once n ≫ m — costs what a read costs.
    pub fn ingest(&self, key: &str, elements: &[u64]) {
        let per_record = crate::wal::ingest_elements_per_record(key);
        let mut rest = elements;
        loop {
            let (chunk, tail) = rest.split_at(rest.len().min(per_record));
            let Ok(_) = self.apply_then_log(
                key,
                |sketch| Ok::<_, std::convert::Infallible>(sketch.insert_batch_changed(chunk)),
                || crate::wal::encode_ingest(key, chunk),
            );
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
    }

    /// Clones the sketch under `key` out of the store (promoting it to
    /// hot if it was compressed or spilled — a point read).
    pub fn get(&self, key: &str) -> Option<S> {
        self.with_sketch(key, |sketch| sketch.clone())
    }

    /// Estimated distinct count recorded under `key`.
    ///
    /// # Errors
    /// [`StoreError::KeyNotFound`] when the key holds no sketch;
    /// [`StoreError::CorruptSlot`] when its warm/frozen payload failed
    /// a checksum or codec round-trip (the slot is quarantined).
    pub fn cardinality(&self, key: &str) -> Result<f64, StoreError> {
        self.try_with_sketch(key, |sketch| sketch.cardinality())?
            .ok_or_else(|| StoreError::KeyNotFound(key.to_owned()))
    }

    /// Union sketch of the listed keys (each shard locked one at a time;
    /// per-key point-in-time). Cold keys are promoted — merging a
    /// selection is a point read of each member.
    ///
    /// Fails with [`StoreError::EmptySelection`] for an empty list,
    /// [`StoreError::KeyNotFound`] for a missing key, and
    /// [`StoreError::Incompatible`] — carrying the sketch family's
    /// detailed error — when states injected via [`put`](Self::put) do
    /// not match.
    pub fn merge_keys(&self, keys: &[&str]) -> Result<S, StoreError> {
        let (&first, rest) = keys.split_first().ok_or(StoreError::EmptySelection)?;
        let mut merged = self
            .get(first)
            .ok_or_else(|| StoreError::KeyNotFound(first.to_owned()))?;
        for &key in rest {
            self.with_sketch(key, |sketch| merged.merge_from(sketch))
                .ok_or_else(|| StoreError::KeyNotFound(key.to_owned()))?
                .map_err(StoreError::incompatible)?;
        }
        Ok(merged)
    }

    /// Merges every sketch in the store down to a single union sketch
    /// (`None` when the store is empty).
    ///
    /// Each shard is absorbed through one
    /// [`merge_many`](Sketch::merge_many) call under its read lock,
    /// so sketches with batched register kernels (SetSketch) amortize
    /// their per-merge bookkeeping across the whole shard. Cold entries
    /// are decompressed into temporaries and **not** promoted — a
    /// whole-store fold must not blow the residency budget.
    pub fn merge_down(&self) -> Result<Option<S>, StoreError> {
        let mut merged: Option<S> = None;
        for shard in self.shards.iter() {
            let guard = shard.read();
            // Corrupt cold entries are skipped: a whole-store fold over
            // the surviving keys beats refusing to answer at all.
            let temps: Vec<S> = guard
                .values()
                .filter(|slot| !slot.state.is_hot())
                .filter_map(|slot| self.try_materialize_cold(&slot.state).ok())
                .collect();
            let hot = guard.values().filter_map(|slot| match &slot.state {
                TierSlot::Hot(sketch, _) => Some(sketch),
                _ => None,
            });
            let mut sketches = hot.chain(temps.iter());
            let acc = match &mut merged {
                Some(acc) => acc,
                None => match sketches.next() {
                    Some(first) => {
                        merged = Some(first.clone());
                        merged.as_mut().expect("just inserted")
                    }
                    None => continue,
                },
            };
            acc.merge_many(sketches).map_err(StoreError::incompatible)?;
        }
        Ok(merged)
    }

    /// Estimated cardinality of the union of the listed keys.
    pub fn union_cardinality(&self, keys: &[&str]) -> Result<f64, StoreError> {
        Ok(self.merge_keys(keys)?.cardinality())
    }

    /// Joint estimation (Jaccard, intersection, union, differences, …)
    /// between the sketches under two keys, without cloning either.
    pub fn joint(&self, key_a: &str, key_b: &str) -> Result<JointQuantities, StoreError> {
        self.with_pair(key_a, key_b, |a, b| a.joint(b))?
            .map_err(StoreError::incompatible)
    }

    /// Estimated Jaccard similarity between two keys.
    pub fn jaccard(&self, key_a: &str, key_b: &str) -> Result<f64, StoreError> {
        Ok(self.joint(key_a, key_b)?.jaccard)
    }

    /// Estimated intersection cardinality between two keys.
    pub fn intersection_cardinality(&self, key_a: &str, key_b: &str) -> Result<f64, StoreError> {
        Ok(self.joint(key_a, key_b)?.intersection)
    }
}

impl<S> std::fmt::Debug for SketchStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SketchStore")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use setsketch::{SetSketch2, SetSketchConfig};
    use std::path::{Path, PathBuf};

    const KEYS: [&str; 3] = ["a", "b", "c"];

    /// One step of a seeded write script on a durable store.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// `seen` elements the key already holds (a window of them, from
        /// `at`) followed by `fresh` never-seen ones.
        Ingest {
            key: usize,
            at: usize,
            seen: usize,
            fresh: usize,
        },
        /// A sketch of a window of the key's elements (dominated), of
        /// that window plus fresh elements (overlapping), or under a
        /// foreign seed (refused).
        MergeIn {
            key: usize,
            kind: u8,
            at: usize,
            len: usize,
        },
        Checkpoint,
        /// Drop the store and rebuild it from its directory.
        Restart,
    }

    fn decode((kind, key, at, len): (u8, usize, usize, usize)) -> Step {
        let key = key % KEYS.len();
        match kind {
            0..=5 => Step::Ingest {
                key,
                at,
                seen: len,
                // Mostly re-observed batches, as at n ≫ m.
                fresh: if kind == 0 { len % 4 } else { 0 },
            },
            6..=8 => Step::MergeIn {
                key,
                kind: kind - 6,
                at,
                len,
            },
            9 => Step::Checkpoint,
            _ => Step::Restart,
        }
    }

    fn config() -> SetSketchConfig {
        SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap()
    }

    fn durable(dir: &Path, checkpoint_after: u64) -> SketchStore<SetSketch2> {
        let config = config();
        SketchStore::builder(move || SetSketch2::new(config, 2))
            .shards(2)
            .durable_dir(dir)
            .checkpoint_after_bytes(checkpoint_after)
            .build()
    }

    /// The element-loop reference of everything recorded under a key.
    fn reference(elements: &[u64]) -> SetSketch2 {
        let mut sketch = SetSketch2::new(config(), 2);
        for &element in elements {
            sketch.insert_u64(element);
        }
        sketch
    }

    /// Up to `len` of the key's elements, cyclically from `at`.
    fn window(held: &[u64], at: usize, len: usize) -> Vec<u64> {
        if held.is_empty() {
            return Vec::new();
        }
        (0..len.min(held.len()))
            .map(|i| held[(at + i) % held.len()])
            .collect()
    }

    /// What a test observes of a key: its registers, version and shard
    /// mark, and the log bytes since the last checkpoint.
    fn observe(
        store: &SketchStore<SetSketch2>,
        key: &str,
    ) -> (Option<SetSketch2>, Option<u64>, u64, u64) {
        (
            store.get(key),
            store.version_of(key),
            store.shard_mark(store.shard_index(key)),
            store.wal_bytes_since_checkpoint().unwrap(),
        )
    }

    /// Runs a script and checks, after every write, that the version
    /// and shard mark moved exactly when the registers did, that a
    /// write which moved nothing appended nothing to the log, and that
    /// the key equals the element-loop reference; after every restart,
    /// that every recovered key does.
    fn drive(steps: &[Step], checkpoint_after: u64) -> Result<(), TestCaseError> {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "sketch-store-noop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let result = drive_in(&dir, steps, checkpoint_after);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    fn drive_in(dir: &Path, steps: &[Step], checkpoint_after: u64) -> Result<(), TestCaseError> {
        let mut store = durable(dir, checkpoint_after);
        let mut held: [Vec<u64>; KEYS.len()] = Default::default();
        let mut created = [false; KEYS.len()];
        let mut next_fresh = 1_000_000u64;
        let mut fresh = |count: usize| -> Vec<u64> {
            let start = next_fresh;
            next_fresh += count as u64;
            (start..next_fresh).collect()
        };
        for &step in steps {
            let key = match step {
                Step::Ingest { key, .. } | Step::MergeIn { key, .. } => key,
                Step::Checkpoint => {
                    store.checkpoint().unwrap();
                    continue;
                }
                Step::Restart => {
                    drop(store);
                    store = durable(dir, checkpoint_after);
                    let report = store.recovery_report().unwrap();
                    prop_assert!(report.is_clean(), "{report}");
                    for (index, name) in KEYS.iter().enumerate() {
                        let expected = created[index].then(|| reference(&held[index]));
                        prop_assert_eq!(store.get(name), expected, "{} after restart", name);
                    }
                    continue;
                }
            };
            let name = KEYS[key];
            let before = observe(&store, name);
            match step {
                Step::Ingest {
                    at, seen, fresh: n, ..
                } => {
                    let mut batch = window(&held[key], at, seen);
                    batch.extend(fresh(n));
                    store.ingest(name, &batch);
                    held[key].extend(batch);
                    created[key] = true;
                }
                Step::MergeIn { kind, at, len, .. } => {
                    let mut elements = window(&held[key], at, len);
                    if kind == 1 {
                        elements.extend(fresh(1 + len % 3));
                    }
                    let seed = if kind == 2 { 99 } else { 2 };
                    let mut incoming = SetSketch2::new(config(), seed);
                    incoming.insert_batch(&elements);
                    let answer = store.merge_in(name, &incoming);
                    if kind == 2 {
                        prop_assert!(answer.is_err(), "a foreign seed must be refused");
                    } else {
                        held[key].extend(elements);
                        created[key] = true;
                        let after = store.get(name);
                        prop_assert_eq!(answer.unwrap(), after != before.0, "merge_in's answer");
                    }
                }
                Step::Checkpoint | Step::Restart => unreachable!("handled above"),
            }
            let after = observe(&store, name);
            let changed = after.0 != before.0;
            prop_assert_eq!(after.1 != before.1, changed, "{:?}: version", step);
            prop_assert_eq!(after.2 != before.2, changed, "{:?}: shard mark", step);
            if !changed {
                prop_assert_eq!(after.3, before.3, "{:?}: a no-op logged", step);
            }
            let expected = created[key].then(|| reference(&held[key]));
            prop_assert_eq!(after.0, expected, "{:?}: registers", step);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A slot's version and shard mark move if and only if its
        /// registers do, no-op writes log nothing, and every recovery
        /// rebuilds the element-loop reference bit for bit.
        #[test]
        fn version_moves_iff_a_register_does(
            raw in prop::collection::vec((0u8..11, 0usize..3, 0usize..64, 0usize..24), 1..48),
            tight in 0u8..2,
        ) {
            let steps: Vec<Step> = raw.into_iter().map(decode).collect();
            drive(&steps, if tight == 1 { 512 } else { u64::MAX })?;
        }
    }
}
