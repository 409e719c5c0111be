//! The sharded concurrent sketch registry.

use crate::builder::StoreBuilder;
use crate::error::StoreError;
use crate::pipeline::PipelineDefaults;
use crate::query::SimilarityIndex;
use crate::tier::{TierCodec, TierPolicy, TierRuntime, TierSlot};
use crate::wal::Durability;
use parking_lot::RwLock;
use sketch_core::{
    BatchInsert, CardinalityEstimator, JointEstimator, JointQuantities, Mergeable, Sketch,
};
use sketch_rand::hash_bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A stored sketch together with its write version and tier state.
///
/// Every mutating access to the key (ingest, insert, put, merge-in)
/// stamps the slot with a fresh value of the store's monotonic write
/// counter and raises its shard's mutation mark
/// ([`SketchStore::mark_dirty`]) — together all the bookkeeping ingest
/// pays for similarity-index maintenance: the query engine sweeps only
/// the shards whose mark moved since it last looked, and re-bands
/// exactly the keys of those shards whose version moved. The counter is
/// store-global, so a key removed and later re-created never repeats an
/// old version (the index relies on inequality to detect staleness).
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
        Self::new(TierSlot::Hot(sketch), version, true)
    }

    /// Stamps a write of the slot's registers: the new version, and an
    /// empty cardinality cache. Every version bump of a live slot goes
    /// through here.
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
            TierSlot::Hot(sketch) => sketch,
            _ => unreachable!("slot not resident after promotion"),
        }
    }

    /// Mutable resident sketch; callers must have promoted first.
    pub(crate) fn hot_mut(&mut self) -> &mut S {
        match &mut self.state {
            TierSlot::Hot(sketch) => sketch,
            _ => unreachable!("slot not resident after promotion"),
        }
    }
}

/// One shard: a lock-guarded map from key to its versioned slot.
pub(crate) type Shard<S> = RwLock<HashMap<String, Slot<S>>>;

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
    /// tier move or a no-op merge. A similarity index state that swept a
    /// shard at mark `x` is current for it while the mark still reads
    /// `x`.
    marks: Box<[AtomicU64]>,
    factory: Box<dyn Fn() -> S + Send + Sync>,
    /// Monotonic write counter feeding the slots' version stamps.
    write_epoch: AtomicU64,
    /// Tiering state: codec, policy, byte accounting, clock hand and
    /// spill segments (see [`crate::tier`]).
    pub(crate) tier: TierRuntime<S>,
    /// Pipeline knobs fixed at construction ([`StoreBuilder`]); applied
    /// by every [`pipeline`](Self::pipeline) handle the store hands out.
    pub(crate) pipeline_defaults: PipelineDefaults,
    /// Lazily built banding LSH indexes (one per queried operating
    /// point, each with a last-used stamp) over the stored sketches'
    /// signatures, maintained incrementally by the similarity query
    /// engine (see [`crate::query`]). Queries on a current flat state
    /// share the read lock; only tuning, refreshing a state whose shards
    /// moved, and the clustered strategy take the write lock.
    pub(crate) similarity: RwLock<Vec<SimilarityIndex>>,
    /// Index-cache lookups so far (diagnostics, reported by
    /// [`similarity_index_info`](Self::similarity_index_info)); each
    /// lookup's count is the last-used stamp of the state it lands on.
    pub(crate) index_lookups: AtomicU64,
    /// Lookups that tuned a fresh index state (the rest were hits).
    pub(crate) index_cache_misses: AtomicU64,
    /// Lazily computed inverse of the factory configuration's
    /// register-collision-probability curve, tabulated over all
    /// `m + 1` possible D₀ values — shared by every clustered index
    /// state's distance lookups (the curve is a configuration property,
    /// so the table never changes for the store's lifetime).
    pub(crate) collision_inverse: std::sync::OnceLock<std::sync::Arc<[f64]>>,
    /// Write-ahead log and checkpoint runtime, present when the builder
    /// set a [`durable_dir`](StoreBuilder::durable_dir) (see
    /// [`crate::wal`]). Installed by the builder before the store is
    /// shared.
    pub(crate) durability: Option<Durability<S>>,
}

impl<S> SketchStore<S> {
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
        tier_codec: Option<TierCodec<S>>,
    ) -> Self {
        debug_assert!(shards > 0, "builder validates the shard count");
        let marks = (0..shards).map(|_| AtomicU64::new(0)).collect();
        let shards = (0..shards)
            .map(|_| RwLock::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        // The codec decompresses against an empty factory sketch; build
        // it once so promotions never call the factory.
        let prototype = if tier_codec.is_some() {
            Some(factory())
        } else {
            None
        };
        Self {
            shards,
            marks,
            factory,
            write_epoch: AtomicU64::new(0),
            tier: TierRuntime::new(tier_policy, tier_codec, prototype),
            pipeline_defaults,
            similarity: RwLock::new(Vec::new()),
            index_lookups: AtomicU64::new(0),
            index_cache_misses: AtomicU64::new(0),
            collision_inverse: std::sync::OnceLock::new(),
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
    /// missing key here — use [`try_with_sketch`](Self::try_with_sketch)
    /// to tell the two apart.
    pub fn with_sketch<R>(&self, key: &str, op: impl FnOnce(&S) -> R) -> Option<R> {
        self.try_with_sketch(key, op).ok().flatten()
    }

    /// Like [`with_sketch`](Self::with_sketch), but a warm/frozen
    /// payload that fails its checksum or codec round-trip surfaces as
    /// [`StoreError::CorruptSlot`] (and the slot is quarantined)
    /// instead of folding into `None`.
    pub fn try_with_sketch<R>(
        &self,
        key: &str,
        op: impl FnOnce(&S) -> R,
    ) -> Result<Option<R>, StoreError> {
        {
            let shard = self.shard(key).read();
            match shard.get(key) {
                None => return Ok(None),
                Some(slot) => {
                    if let TierSlot::Hot(sketch) = &slot.state {
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
            self.ensure_hot_slot(key, slot)?;
            slot.touch();
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
        let compact = self
            .durability
            .as_ref()
            .map(|durability| (durability.codec.compress)(&sketch));
        self.logged(
            move |_| crate::wal::encode_put(key, &compact.expect("compressed when durable")),
            move |store| store.put_unlogged(key, sketch),
        )
    }

    pub(crate) fn put_unlogged(&self, key: &str, sketch: S) -> Option<S> {
        self.tier.account_insert_hot(&sketch);
        let previous = {
            // Stamped under the shard lock, like every other write: a
            // delta sweep that read the counter past this version must
            // find the slot.
            let index = self.shard_index(key);
            let mut shard = self.shards[index].write();
            let version = self.next_version();
            self.mark_dirty(index);
            shard.insert(key.to_owned(), Slot::hot(sketch, version))
        };
        let previous = previous.and_then(|slot| self.take_sketch(slot));
        self.maintain();
        previous
    }

    /// Removes and returns the sketch under `key` (rehydrating it if it
    /// was warm or frozen; `None` is also returned for a quarantined
    /// slot, whose registers are unrecoverable — the entry is removed
    /// either way).
    pub fn remove(&self, key: &str) -> Option<S> {
        self.logged(
            |_| crate::wal::encode_remove(key),
            |store| store.remove_unlogged(key),
        )
    }

    pub(crate) fn remove_unlogged(&self, key: &str) -> Option<S> {
        let index = self.shard_index(key);
        let slot = {
            let mut shard = self.shards[index].write();
            let slot = shard.remove(key)?;
            self.mark_dirty(index);
            slot
        };
        self.take_sketch(slot)
    }

    /// Removes every sketch (and drops any spill segments).
    pub fn clear(&self) {
        self.logged(
            |_| crate::wal::encode_clear(),
            |store| store.clear_unlogged(),
        );
    }

    pub(crate) fn clear_unlogged(&self) {
        for (index, shard) in self.shards.iter().enumerate() {
            let mut shard = shard.write();
            shard.clear();
            self.mark_dirty(index);
        }
        self.tier.reset();
    }

    /// Acquires the shard(s) of two keys deadlock-free (ascending shard
    /// order) and runs `op` on the two sketches. Both keys are promoted
    /// to hot if needed; when both are already resident only read locks
    /// are taken.
    fn with_pair<R>(
        &self,
        key_a: &str,
        key_b: &str,
        op: impl FnOnce(&S, &S) -> R,
    ) -> Result<R, StoreError> {
        let not_found = |key: &str| StoreError::KeyNotFound(key.to_owned());
        let (ia, ib) = (self.shard_index(key_a), self.shard_index(key_b));
        // Fast path: both resident — read locks only.
        if ia == ib {
            let shard = self.shards[ia].read();
            let a = shard.get(key_a).ok_or_else(|| not_found(key_a))?;
            let b = shard.get(key_b).ok_or_else(|| not_found(key_b))?;
            if let (TierSlot::Hot(sa), TierSlot::Hot(sb)) = (&a.state, &b.state) {
                a.touch();
                b.touch();
                return Ok(op(sa, sb));
            }
        } else {
            // Lock in ascending shard order; shard locks are only ever
            // nested in this order, so the nesting cannot deadlock.
            let (lo, hi) = (ia.min(ib), ia.max(ib));
            let shard_lo = self.shards[lo].read();
            let shard_hi = self.shards[hi].read();
            let (shard_a, shard_b) = if ia < ib {
                (&shard_lo, &shard_hi)
            } else {
                (&shard_hi, &shard_lo)
            };
            let a = shard_a.get(key_a).ok_or_else(|| not_found(key_a))?;
            let b = shard_b.get(key_b).ok_or_else(|| not_found(key_b))?;
            if let (TierSlot::Hot(sa), TierSlot::Hot(sb)) = (&a.state, &b.state) {
                a.touch();
                b.touch();
                return Ok(op(sa, sb));
            }
        }
        // Slow path: at least one side is cold — retake the locks as
        // write locks (same ascending order) and promote both.
        let result = if ia == ib {
            let mut shard = self.shards[ia].write();
            if !shard.contains_key(key_a) {
                return Err(not_found(key_a));
            }
            if !shard.contains_key(key_b) {
                return Err(not_found(key_b));
            }
            for key in [key_a, key_b] {
                let slot = shard.get_mut(key).expect("checked above");
                self.ensure_hot_slot(key, slot)?;
                slot.touch();
            }
            let a = shard.get(key_a).expect("checked above");
            let b = shard.get(key_b).expect("checked above");
            op(a.hot_ref(), b.hot_ref())
        } else {
            let (lo, hi) = (ia.min(ib), ia.max(ib));
            let mut shard_lo = self.shards[lo].write();
            let mut shard_hi = self.shards[hi].write();
            let (shard_a, shard_b) = if ia < ib {
                (&mut shard_lo, &mut shard_hi)
            } else {
                (&mut shard_hi, &mut shard_lo)
            };
            let slot_a = shard_a.get_mut(key_a).ok_or_else(|| not_found(key_a))?;
            self.ensure_hot_slot(key_a, slot_a)?;
            slot_a.touch();
            let slot_b = shard_b.get_mut(key_b).ok_or_else(|| not_found(key_b))?;
            self.ensure_hot_slot(key_b, slot_b)?;
            slot_b.touch();
            op(
                shard_a.get(key_a).expect("just promoted").hot_ref(),
                shard_b.get(key_b).expect("just promoted").hot_ref(),
            )
        };
        self.maintain();
        Ok(result)
    }
}

impl<S> SketchStore<S> {
    /// Write-locks the key's shard and runs `op` on its sketch, creating
    /// it through the factory on first use and promoting it to hot if it
    /// was compressed or spilled. The existing-key fast path avoids
    /// allocating an owned key string. Every call restamps the slot's
    /// version so the similarity index can re-band exactly the keys that
    /// changed, and feeds the tier manager's byte accounting.
    ///
    /// This is the **unlogged** write path — the public mutators wrap it
    /// in [`logged`](Self::logged), and WAL replay calls it directly.
    pub(crate) fn with_entry(&self, key: &str, op: impl FnOnce(&mut S)) {
        {
            let index = self.shard_index(key);
            let mut shard = self.shards[index].write();
            if !shard.contains_key(key) {
                let sketch = (self.factory)();
                self.tier.account_insert_hot(&sketch);
                shard.insert(key.to_owned(), Slot::hot(sketch, 0));
            }
            let slot = shard.get_mut(key).expect("present or just inserted");
            if self.ensure_hot_slot(key, slot).is_err() {
                // A corrupt slot's registers are gone; a write starts
                // the key over from a fresh factory sketch (in a
                // replicated deployment anti-entropy re-fills the rest).
                let sketch = (self.factory)();
                self.tier.account_insert_hot(&sketch);
                slot.state = TierSlot::Hot(sketch);
            }
            slot.restamp(self.next_version());
            self.mark_dirty(index);
            slot.touch();
            self.tier.account_write(slot.hot_mut(), op);
        }
        self.maintain();
    }
}

impl<S: Sketch> SketchStore<S> {
    /// Records one element under `key`, creating the sketch on first
    /// use.
    pub fn insert(&self, key: &str, element: u64) {
        self.logged(
            |_| crate::wal::encode_ingest(key, std::slice::from_ref(&element)),
            |store| store.with_entry(key, |sketch| sketch.insert_u64(element)),
        );
    }

    /// Records a byte-string element under `key`.
    pub fn insert_bytes(&self, key: &str, element: &[u8]) {
        self.logged(
            |_| crate::wal::encode_ingest_bytes(key, &[element]),
            |store| store.with_entry(key, |sketch| sketch.insert_bytes(element)),
        );
    }

    /// Records a batch of byte-string elements under `key`, creating the
    /// sketch on first use — the byte-side mirror of
    /// [`ingest`](Self::ingest): one lock acquisition (and one version
    /// stamp) per log record, which is the whole batch unless it
    /// outgrows the 64 MiB record limit.
    pub fn ingest_bytes(&self, key: &str, elements: &[&[u8]]) {
        let mut rest = elements;
        loop {
            let (chunk, tail) = rest.split_at(crate::wal::ingest_bytes_per_record(key, rest));
            self.logged(
                |_| crate::wal::encode_ingest_bytes(key, chunk),
                |store| {
                    store.with_entry(key, |sketch| {
                        for &element in chunk {
                            sketch.insert_bytes(element);
                        }
                    });
                },
            );
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
    }
}

impl<S: BatchInsert> SketchStore<S> {
    /// Records a batch of elements under `key`, creating the sketch on
    /// first use. One lock acquisition per log record — the whole batch
    /// unless it outgrows the 64 MiB record limit (≈ 8.4 M elements),
    /// in which case each record is applied after it is logged;
    /// sketches with a specialized [`BatchInsert`] (SetSketch's
    /// deduplicated value-order fill) get their fast path.
    pub fn ingest(&self, key: &str, elements: &[u64]) {
        let per_record = crate::wal::ingest_elements_per_record(key);
        let mut rest = elements;
        loop {
            let (chunk, tail) = rest.split_at(rest.len().min(per_record));
            self.logged(
                |_| crate::wal::encode_ingest(key, chunk),
                |store| store.with_entry(key, |sketch| sketch.insert_batch(chunk)),
            );
            rest = tail;
            if rest.is_empty() {
                break;
            }
        }
    }
}

impl<S: Clone> SketchStore<S> {
    /// Clones the sketch under `key` out of the store (promoting it to
    /// hot if it was compressed or spilled — a point read).
    pub fn get(&self, key: &str) -> Option<S> {
        self.with_sketch(key, |sketch| sketch.clone())
    }
}

impl<S: CardinalityEstimator> SketchStore<S> {
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
}

impl<S: Mergeable + Clone> SketchStore<S> {
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
    /// [`merge_many`](Mergeable::merge_many) call under its read lock,
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
                TierSlot::Hot(sketch) => Some(sketch),
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
}

impl<S: Mergeable + CardinalityEstimator + Clone> SketchStore<S> {
    /// Estimated cardinality of the union of the listed keys.
    pub fn union_cardinality(&self, keys: &[&str]) -> Result<f64, StoreError> {
        Ok(self.merge_keys(keys)?.cardinality())
    }
}

impl<S: JointEstimator> SketchStore<S> {
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
