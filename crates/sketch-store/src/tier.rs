//! Tiered register storage behind the store: hot, warm (compressed in
//! memory) and frozen (spilled to disk) slots, plus the clock-hand
//! demotion scan that moves cold keys down the ladder.
//!
//! The tiers are invisible to callers — every public store operation
//! behaves as if all sketches were resident. What changes is *where a
//! key's registers live*:
//!
//! * **Hot** — the sketch struct itself, the unchanged fast path;
//! * **Warm** — the registers compressed through the sketch's
//!   [`compress`](Sketch::compress) codec (SetSketch packs offsets from
//!   a shared base plus a sparse exception list), held in memory;
//! * **Frozen** — the same compressed bytes appended to a spill segment
//!   file on disk, with only the `(segment, offset, len)` location kept
//!   in the shard map.
//!
//! Point reads and writes *promote*: touching a warm or frozen key
//! rehydrates it to hot under the shard's write lock. Bulk extractions
//! (similarity sweeps, merge-down) *peek*: they decompress into
//! temporaries and leave the slot in its tier, so a full-store query
//! cannot blow the residency budget it was meant to respect. Exports
//! (delta pages, checkpoints) ship cold payloads as stored, without
//! decompressing them at all.
//!
//! Demotion runs on a second-chance clock: every slot carries a
//! `touched` bit set by reads and writes; the scan clears the bit on
//! first encounter and demotes on second, so the working set survives
//! while cold keys sink. The memory budget is the only trigger: a write
//! or promoting read that leaves residency over budget runs the scan,
//! which piggybacks on the existing shard write locks (one shard per
//! step, hand advancing round-robin) — there is no background thread.

use crate::error::StoreError;
use crate::frame::{self, Frame};
use crate::store::{SketchStore, Slot};
use parking_lot::Mutex;
use sketch_core::Sketch;
use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};

/// Where a key's registers currently live.
#[derive(Debug)]
pub(crate) enum TierSlot<S> {
    /// Resident sketch — the unchanged fast path.
    Hot(S),
    /// Registers compressed in memory through the sketch's
    /// [`compress`](Sketch::compress) codec.
    Warm(Box<[u8]>),
    /// Compressed bytes spilled to an append-only segment file; only
    /// the location stays in memory.
    Frozen {
        /// Index of the segment file holding the bytes.
        segment: u32,
        /// Byte offset of the compressed record within the segment.
        offset: u64,
        /// Length of the compressed record.
        len: u32,
    },
    /// A slot whose payload failed its checksum or codec round-trip.
    /// The registers are unrecoverable; the reason is kept for
    /// diagnostics. Reads fail with [`StoreError::CorruptSlot`]; the
    /// next write replaces the slot with a fresh factory sketch (in a
    /// replicated deployment anti-entropy then re-fills it from a
    /// healthy peer).
    Quarantined(Box<str>),
}

impl<S> TierSlot<S> {
    /// True for resident slots.
    pub(crate) fn is_hot(&self) -> bool {
        matches!(self, TierSlot::Hot(_))
    }
}

/// Point-in-time census of the store's memory tiers, from
/// [`SketchStore::tier_stats`].
///
/// Byte figures are as the tier manager accounts them: `hot_bytes` is
/// the sketches' own resident-footprint estimate
/// ([`Sketch::resident_bytes`]), `warm_bytes` the compressed
/// in-memory payloads, `spilled_bytes` the live compressed records on
/// disk (superseded records in the append-only segments are not
/// counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Keys whose sketch is resident.
    pub hot_keys: usize,
    /// Keys compressed in memory.
    pub warm_keys: usize,
    /// Keys spilled to segment files.
    pub frozen_keys: usize,
    /// Keys quarantined after a failed checksum or codec round-trip
    /// (their registers are unrecoverable until the next write or
    /// replica merge replaces them).
    pub quarantined_keys: usize,
    /// Estimated resident bytes of the hot sketches.
    pub hot_bytes: usize,
    /// Compressed in-memory bytes of the warm entries.
    pub warm_bytes: usize,
    /// Live compressed bytes in the spill segments.
    pub spilled_bytes: usize,
    /// Cumulative count of failed spill appends (the affected entries
    /// stayed warm); see [`SketchStore::last_spill_error`] for the most
    /// recent cause.
    pub spill_append_failures: usize,
}

impl TierStats {
    /// Total number of keys across all tiers, quarantined ones included
    /// (they still count in [`SketchStore::len`]).
    pub fn total_keys(&self) -> usize {
        self.hot_keys + self.warm_keys + self.frozen_keys + self.quarantined_keys
    }

    /// Bytes counted against the store's memory budget (hot + warm;
    /// frozen entries cost no memory).
    pub fn resident_bytes(&self) -> usize {
        self.hot_bytes + self.warm_bytes
    }
}

/// Builder-set tiering knobs (see [`crate::StoreBuilder`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct TierPolicy {
    /// Ceiling on hot + warm bytes; exceeding it triggers demotion.
    pub(crate) memory_budget_bytes: Option<usize>,
    /// Parent directory for spill segments (default: the OS temp dir).
    pub(crate) spill_dir: Option<PathBuf>,
}

/// Per-store tiering state: decoding prototype, policy, byte
/// accounting, the clock hand and the lazily created spill segments.
pub(crate) struct TierRuntime<S> {
    /// Empty factory sketch every compact payload decompresses against
    /// (fixes configuration and seed): cold slots, checkpoint entries
    /// and put/merge-in records.
    prototype: S,
    pub(crate) policy: TierPolicy,
    /// Budget accounting, kept only when a budget is set — nothing else
    /// reads it (signed: concurrent deltas may transiently cross zero).
    /// Exact figures come from [`SketchStore::tier_stats`].
    hot_bytes: AtomicIsize,
    warm_bytes: AtomicIsize,
    /// Guards the clock scan: at most one maintainer runs (set by
    /// compare-exchange), everyone else skips.
    scanning: AtomicBool,
    /// Clock hand (next shard to scan); only the thread holding
    /// `scanning` moves it.
    hand: AtomicUsize,
    segments: Mutex<Option<SegmentStore>>,
    /// Count of failed spill appends (entries stayed warm).
    spill_failures: AtomicUsize,
    /// The most recent spill-append failure, for diagnostics.
    last_spill_error: Mutex<Option<String>>,
}

impl<S: Sketch> TierRuntime<S> {
    pub(crate) fn new(policy: TierPolicy, prototype: S) -> Self {
        TierRuntime {
            prototype,
            policy,
            hot_bytes: AtomicIsize::new(0),
            warm_bytes: AtomicIsize::new(0),
            scanning: AtomicBool::new(false),
            hand: AtomicUsize::new(0),
            segments: Mutex::new(None),
            spill_failures: AtomicUsize::new(0),
            last_spill_error: Mutex::new(None),
        }
    }

    /// True when a memory budget is set: the byte accounting exists for
    /// [`over_budget`](Self::over_budget) alone, so without a budget
    /// every `account_*` call is a no-op.
    fn budgeted(&self) -> bool {
        self.policy.memory_budget_bytes.is_some()
    }

    /// Bytes currently counted against the budget (hot + warm).
    pub(crate) fn resident_total(&self) -> usize {
        let total =
            self.hot_bytes.load(Ordering::Relaxed) + self.warm_bytes.load(Ordering::Relaxed);
        total.max(0) as usize
    }

    pub(crate) fn over_budget(&self) -> bool {
        self.policy
            .memory_budget_bytes
            .is_some_and(|budget| self.resident_total() > budget)
    }

    fn add_hot(&self, delta: isize) {
        self.hot_bytes.fetch_add(delta, Ordering::Relaxed);
    }

    fn add_warm(&self, delta: isize) {
        self.warm_bytes.fetch_add(delta, Ordering::Relaxed);
    }

    /// A new hot slot entered the store.
    pub(crate) fn account_insert_hot(&self, sketch: &S) {
        if self.budgeted() {
            self.add_hot(sketch.resident_bytes() as isize);
        }
    }

    /// A new warm slot entered the store (checkpoint recovery).
    pub(crate) fn account_insert_warm(&self, len: usize) {
        if self.budgeted() {
            self.add_warm(len as isize);
        }
    }

    /// A slot left the store (remove / replace) or was quarantined; a
    /// frozen slot's spill record is released with it, so read the
    /// record first if it is still wanted. (Only a budget's scan
    /// freezes, so an unbudgeted store has no records to release.)
    pub(crate) fn account_remove(&self, state: &TierSlot<S>) {
        if !self.budgeted() {
            return;
        }
        match state {
            TierSlot::Hot(sketch) => self.add_hot(-(sketch.resident_bytes() as isize)),
            TierSlot::Warm(bytes) => self.add_warm(-(bytes.len() as isize)),
            TierSlot::Frozen { segment, .. } => self.release_frozen(*segment),
            TierSlot::Quarantined(_) => {}
        }
    }

    /// Runs a write against a hot sketch in place, accounting how much
    /// it grew (or shrank) when a budget is set.
    pub(crate) fn account_write<R>(&self, sketch: &mut S, op: impl FnOnce(&mut S) -> R) -> R {
        if !self.budgeted() {
            return op(sketch);
        }
        let before = sketch.resident_bytes();
        let result = op(sketch);
        self.add_hot(sketch.resident_bytes() as isize - before as isize);
        result
    }

    /// A cold slot rehydrated to `hot`: its warm bytes are freed, or
    /// its spill record released.
    pub(crate) fn account_promote(&self, cold: &TierSlot<S>, hot: &S) {
        if !self.budgeted() {
            return;
        }
        match cold {
            TierSlot::Warm(bytes) => self.add_warm(-(bytes.len() as isize)),
            TierSlot::Frozen { segment, .. } => self.release_frozen(*segment),
            TierSlot::Hot(_) | TierSlot::Quarantined(_) => {}
        }
        self.add_hot(hot.resident_bytes() as isize);
    }

    /// One record of `segment` is no longer referenced by any slot.
    fn release_frozen(&self, segment: u32) {
        if let Some(segments) = self.segments.lock().as_mut() {
            segments.release(segment);
        }
    }

    /// A hot sketch compressed down to warm bytes.
    pub(crate) fn account_demote_to_warm(&self, resident: usize, len: usize) {
        self.add_hot(-(resident as isize));
        self.add_warm(len as isize);
    }

    /// Warm bytes spilled to a segment file.
    pub(crate) fn account_demote_to_frozen(&self, len: usize) {
        self.add_warm(-(len as isize));
    }

    /// Drops all accounting and spill segments (store cleared).
    pub(crate) fn reset(&self) {
        self.hot_bytes.store(0, Ordering::Relaxed);
        self.warm_bytes.store(0, Ordering::Relaxed);
        *self.segments.lock() = None;
    }

    /// Rehydrates compressed bytes through the codec. A failure means
    /// the payload was corrupted underneath us (bit rot in memory or on
    /// disk) — the caller quarantines the slot.
    pub(crate) fn try_decode(&self, bytes: &[u8]) -> Result<S, String> {
        S::decompress(&self.prototype, bytes).map_err(|error| error.to_string())
    }

    /// Appends compressed bytes to the spill segments, creating them on
    /// first use. Returns `None` when the spill directory cannot be
    /// created or written — the caller leaves the entry warm, and the
    /// failure is counted in [`TierStats::spill_append_failures`] with
    /// the cause kept for [`SketchStore::last_spill_error`].
    pub(crate) fn append_frozen(&self, bytes: &[u8]) -> Option<(u32, u64, u32)> {
        let result = {
            let mut guard = self.segments.lock();
            match guard.as_mut() {
                Some(segments) => segments.append(bytes),
                None => {
                    SegmentStore::create(self.policy.spill_dir.as_deref(), SEGMENT_ROTATE_BYTES)
                        .and_then(|created| guard.insert(created).append(bytes))
                }
            }
        };
        match result {
            Ok(location) => Some(location),
            Err(error) => {
                self.spill_failures.fetch_add(1, Ordering::Relaxed);
                *self.last_spill_error.lock() = Some(error.to_string());
                None
            }
        }
    }

    /// Number of spill appends that have failed so far.
    pub(crate) fn spill_failure_count(&self) -> usize {
        self.spill_failures.load(Ordering::Relaxed)
    }

    /// The most recent spill-append failure.
    pub(crate) fn last_spill_failure(&self) -> Option<String> {
        self.last_spill_error.lock().clone()
    }

    /// Reads a frozen record back, verifying its checksum. An error
    /// means the registers are lost (missing, truncated or bit-rotted
    /// segment) — the caller quarantines the slot.
    pub(crate) fn read_frozen(
        &self,
        segment: u32,
        offset: u64,
        len: u32,
    ) -> Result<Vec<u8>, String> {
        self.segments
            .lock()
            .as_mut()
            .ok_or_else(|| "frozen slot without spill segments".to_owned())?
            .read(segment, offset, len)
            .map_err(|error| format!("spill segment unreadable: {error}"))
    }

    /// The spill directory, if segments have been created (tests assert
    /// it disappears with the store).
    pub(crate) fn spill_path(&self) -> Option<PathBuf> {
        self.segments.lock().as_ref().map(|s| s.dir.clone())
    }

    /// Claims the single-maintainer scan slot; `false` means another
    /// thread is already scanning and the caller should skip.
    pub(crate) fn begin_scan(&self) -> bool {
        self.scanning
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the scan slot.
    pub(crate) fn end_scan(&self) {
        self.scanning.store(false, Ordering::Release);
    }
}

/// Segment files rotate once they reach this size.
const SEGMENT_ROTATE_BYTES: u64 = 64 << 20;

/// Process-wide counter making concurrent stores' spill dirs distinct.
static SPILL_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Append-only spill segments: `seg-N.bin` files under a per-store
/// temp directory, deleted (with the directory) on drop. Records are
/// never rewritten; a superseded record (a frozen key promoted,
/// replaced or removed) is dead bytes in its segment. Each segment
/// counts the records slots still reference, and a sealed segment whose
/// count reaches zero is deleted — so disk use is bounded by the
/// segments that still hold a frozen key, not by how often keys
/// churned through the tier. A segment with even one live record stays
/// whole: nothing is compacted.
///
/// Records are [`crate::frame`] frames; the checksum is verified on
/// every read, so bit rot in a spill file surfaces as a typed error
/// instead of garbage registers decoded into a sketch.
struct SegmentStore {
    dir: PathBuf,
    /// Indexed by segment number; `None` once the segment is deleted.
    /// The last entry is the segment being appended to.
    segments: Vec<Option<Segment>>,
    current_len: u64,
    rotate_bytes: u64,
}

struct Segment {
    file: File,
    /// Records some frozen slot still points at.
    live: usize,
}

impl SegmentStore {
    fn create(parent: Option<&Path>, rotate_bytes: u64) -> io::Result<Self> {
        let parent = parent
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let dir = parent.join(format!(
            "sketch-store-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        let mut store = SegmentStore {
            dir,
            segments: Vec::new(),
            current_len: 0,
            rotate_bytes,
        };
        store.rotate()?;
        Ok(store)
    }

    fn segment_path(&self, segment: usize) -> PathBuf {
        self.dir.join(format!("seg-{segment}.bin"))
    }

    /// Opens the next segment and seals the current one (deleting it if
    /// every record in it was already released).
    fn rotate(&mut self) -> io::Result<()> {
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(self.segment_path(self.segments.len()))?;
        if let Some(sealed) = self.segments.len().checked_sub(1) {
            self.delete_if_dead(sealed);
        }
        self.segments.push(Some(Segment { file, live: 0 }));
        self.current_len = 0;
        Ok(())
    }

    /// Appends one framed record; the returned location's `len` is the
    /// payload length (the frame header is an internal detail).
    fn append(&mut self, bytes: &[u8]) -> io::Result<(u32, u64, u32)> {
        let mut record = Vec::new();
        frame::push(&mut record, bytes)?;
        if self.current_len >= self.rotate_bytes {
            self.rotate()?;
        }
        let index = self.segments.len() - 1;
        let offset = self.current_len;
        let segment = self.segments[index]
            .as_mut()
            .expect("the current segment is never deleted");
        segment.file.seek(SeekFrom::Start(offset))?;
        segment.file.write_all(&record)?;
        segment.live += 1;
        self.current_len += record.len() as u64;
        Ok((index as u32, offset, bytes.len() as u32))
    }

    /// Reads one record back and verifies its frame; a mismatch is
    /// reported as [`io::ErrorKind::InvalidData`].
    fn read(&mut self, segment: u32, offset: u64, len: u32) -> io::Result<Vec<u8>> {
        let file = match self.segments.get_mut(segment as usize) {
            Some(Some(segment)) => &mut segment.file,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    "spill segment missing or already deleted",
                ))
            }
        };
        file.seek(SeekFrom::Start(offset))?;
        let mut record = vec![0u8; frame::HEADER_BYTES + len as usize];
        file.read_exact(&mut record)?;
        match frame::next(&record, 0) {
            Frame::Good(payload, _) if payload.len() == len as usize => {
                record.drain(..frame::HEADER_BYTES);
                Ok(record)
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "spill record fails its length or checksum",
            )),
        }
    }

    /// Drops one reference to a record of `segment`; the last one out
    /// of a sealed segment deletes its file. (The segment still being
    /// appended to is checked when it is sealed.)
    fn release(&mut self, segment: u32) {
        let index = segment as usize;
        if let Some(Some(segment)) = self.segments.get_mut(index) {
            segment.live = segment.live.saturating_sub(1);
        }
        if index + 1 < self.segments.len() {
            self.delete_if_dead(index);
        }
    }

    fn delete_if_dead(&mut self, index: usize) {
        if self.segments[index]
            .as_ref()
            .is_some_and(|segment| segment.live == 0)
        {
            self.segments[index] = None; // closes the handle first
            let _ = fs::remove_file(self.segment_path(index));
        }
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        // Close handles first, then remove everything; best-effort.
        self.segments.clear();
        let _ = fs::remove_dir_all(&self.dir);
    }
}

impl<S: Sketch> SketchStore<S> {
    /// Counts keys and bytes per memory tier (exact: scans every shard
    /// under its read lock).
    ///
    /// ```
    /// use setsketch::{SetSketch2, SetSketchConfig};
    /// use sketch_store::SketchStore;
    ///
    /// let config = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
    /// let store = SketchStore::builder(move || SetSketch2::new(config, 1))
    ///     .memory_budget_bytes(16 * 1024)
    ///     .build();
    /// for key in 0..32 {
    ///     store.ingest(&format!("k{key}"), &[1, 2, 3]);
    /// }
    /// let stats = store.tier_stats();
    /// assert_eq!(stats.total_keys(), 32);
    /// assert!(stats.warm_keys + stats.frozen_keys > 0, "the budget demoted cold keys");
    /// ```
    pub fn tier_stats(&self) -> TierStats {
        let mut stats = TierStats {
            spill_append_failures: self.tier.spill_failure_count(),
            ..TierStats::default()
        };
        for shard in self.shards() {
            for slot in shard.read().values() {
                match &slot.state {
                    TierSlot::Hot(sketch) => {
                        stats.hot_keys += 1;
                        stats.hot_bytes += sketch.resident_bytes();
                    }
                    TierSlot::Warm(bytes) => {
                        stats.warm_keys += 1;
                        stats.warm_bytes += bytes.len();
                    }
                    TierSlot::Frozen { len, .. } => {
                        stats.frozen_keys += 1;
                        stats.spilled_bytes += *len as usize;
                    }
                    TierSlot::Quarantined(_) => stats.quarantined_keys += 1,
                }
            }
        }
        stats
    }

    /// The most recent spill-append failure, if any — the entries whose
    /// spill failed stayed warm (counted in
    /// [`TierStats::spill_append_failures`]).
    pub fn last_spill_error(&self) -> Option<String> {
        self.tier.last_spill_failure()
    }

    /// The directory holding this store's spill segments — `None`
    /// until the first key freezes. The directory and every segment
    /// file in it are removed when the store drops (or on
    /// [`clear`](Self::clear)).
    pub fn spill_path(&self) -> Option<std::path::PathBuf> {
        self.tier.spill_path()
    }

    /// Rehydrates a slot to hot in place (no-op when already hot).
    /// Caller holds the shard's write lock. Promotion does **not** bump
    /// the slot's version: the registers are unchanged, so similarity
    /// index entries stay valid.
    ///
    /// A payload that fails its checksum or codec round-trip
    /// **quarantines** the slot (its byte accounting is unwound) and
    /// returns [`StoreError::CorruptSlot`]; read paths surface the
    /// error, write paths replace the quarantined slot with a fresh
    /// factory sketch.
    pub(crate) fn ensure_hot_slot(&self, key: &str, slot: &mut Slot<S>) -> Result<(), StoreError> {
        if slot.state.is_hot() {
            return Ok(());
        }
        match self.try_materialize_cold(&slot.state) {
            Ok(sketch) => {
                self.tier.account_promote(&slot.state, &sketch);
                slot.state = TierSlot::Hot(sketch);
                Ok(())
            }
            Err(detail) => {
                self.tier.account_remove(&slot.state);
                slot.state = TierSlot::Quarantined(detail.clone().into_boxed_str());
                Err(StoreError::CorruptSlot {
                    key: key.to_owned(),
                    detail,
                })
            }
        }
    }

    /// Runs `op` against the slot's sketch **without promoting**: hot
    /// slots are borrowed, cold slots are decompressed into a temporary
    /// that is dropped afterwards. This is the bulk-extraction path of
    /// similarity sweeps — a full-store query must not blow the
    /// residency budget it runs under. Returns `None`
    /// for quarantined or corrupt slots: bulk sweeps skip them (the
    /// slot is formally quarantined the next time a promoting path
    /// touches it — a peek holds only the shard's read lock).
    pub(crate) fn peek_slot<R>(&self, slot: &Slot<S>, op: impl FnOnce(&S) -> R) -> Option<R> {
        match &slot.state {
            TierSlot::Hot(sketch) => Some(op(sketch)),
            state => self.try_materialize_cold(state).ok().map(|s| op(&s)),
        }
    }

    /// A cold slot's compressed payload, read without promoting it;
    /// the error carries the corruption detail (quarantine reason or
    /// unreadable spill record).
    ///
    /// # Panics
    /// Panics on hot states (callers dispatch those separately).
    fn cold_bytes<'a>(&self, state: &'a TierSlot<S>) -> Result<Cow<'a, [u8]>, String> {
        match state {
            TierSlot::Hot(_) => unreachable!("cold_bytes on a resident slot"),
            TierSlot::Quarantined(reason) => Err(reason.to_string()),
            TierSlot::Warm(bytes) => Ok(Cow::Borrowed(bytes)),
            TierSlot::Frozen {
                segment,
                offset,
                len,
            } => self
                .tier
                .read_frozen(*segment, *offset, *len)
                .map(Cow::Owned),
        }
    }

    /// Any slot's registers as a compact payload, read without
    /// promoting — what checkpoints and delta pages carry: a hot sketch
    /// is compressed, a warm payload is borrowed as stored and a frozen
    /// one read back from its spill segment. `None` for quarantined
    /// slots and unreadable spill records: their registers are
    /// unrecoverable, so exports skip them.
    pub(crate) fn slot_payload<'a>(&self, state: &'a TierSlot<S>) -> Option<Cow<'a, [u8]>> {
        match state {
            TierSlot::Hot(sketch) => Some(Cow::Owned(sketch.compress())),
            cold => self.cold_bytes(cold).ok(),
        }
    }

    /// Decompresses a warm or frozen state into an owned sketch.
    pub(crate) fn try_materialize_cold(&self, state: &TierSlot<S>) -> Result<S, String> {
        self.cold_bytes(state)
            .and_then(|bytes| self.tier.try_decode(&bytes))
    }

    /// Converts a removed slot into its sketch, unwinding the byte
    /// accounting. `None` when the payload was corrupt — the registers
    /// are unrecoverable, and the slot has already left the map.
    pub(crate) fn take_sketch(&self, slot: Slot<S>) -> Option<S> {
        // Read a cold payload before the accounting releases it.
        let cold = match &slot.state {
            TierSlot::Hot(_) => None,
            state => self.try_materialize_cold(state).ok(),
        };
        self.tier.account_remove(&slot.state);
        match slot.state {
            TierSlot::Hot(sketch) => Some(sketch),
            _ => cold,
        }
    }

    /// The tier manager's one maintenance hook, run after every write
    /// and every promoting read (promotions grow residency too): when
    /// residency is over the memory budget, runs a clock scan unless
    /// another thread already is. Call with no shard lock held.
    pub(crate) fn maintain(&self) {
        if self.tier.over_budget() && self.tier.begin_scan() {
            self.clock_scan();
            self.tier.end_scan();
        }
    }

    /// The second-chance clock scan. One shard per step, hand advancing
    /// round-robin; slots touched since the last encounter get their
    /// bit cleared and survive, untouched hot slots compress to warm and
    /// untouched warm slots spill to frozen. It runs up to two
    /// revolutions (the first may only clear bits) and stops as soon as
    /// residency is back under budget. After the first failed spill
    /// append it stops spilling for the rest of the scan — a broken
    /// spill directory fails every append alike — but keeps compressing.
    fn clock_scan(&self) {
        let shard_count = self.shards().len();
        let mut spill = true;
        for _ in 0..shard_count * 2 {
            if !self.tier.over_budget() {
                return;
            }
            let index = self.tier.hand.load(Ordering::Relaxed) % shard_count;
            self.tier
                .hand
                .store((index + 1) % shard_count, Ordering::Relaxed);
            let mut shard = self.shards()[index].write();
            for slot in shard.values_mut() {
                if !self.tier.over_budget() {
                    return;
                }
                if slot.touched.swap(false, Ordering::Relaxed) {
                    continue; // second chance
                }
                let next = match &slot.state {
                    TierSlot::Hot(sketch) => {
                        let resident = sketch.resident_bytes();
                        let bytes = sketch.compress().into_boxed_slice();
                        self.tier.account_demote_to_warm(resident, bytes.len());
                        Some(TierSlot::Warm(bytes))
                    }
                    TierSlot::Warm(bytes) if spill => {
                        let frozen = self.tier.append_frozen(bytes);
                        spill = frozen.is_some();
                        frozen.map(|(segment, offset, len)| {
                            self.tier.account_demote_to_frozen(bytes.len());
                            TierSlot::Frozen {
                                segment,
                                offset,
                                len,
                            }
                        })
                    }
                    _ => None,
                };
                if let Some(state) = next {
                    slot.state = state;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_roundtrip_and_rotate() {
        let mut segments = SegmentStore::create(None, 64).unwrap();
        let dir = segments.dir.clone();
        assert!(dir.is_dir());
        let a = segments.append(&[1u8; 40]).unwrap();
        let b = segments.append(&[2u8; 40]).unwrap();
        // 40 + 40 crosses the 64-byte rotation threshold.
        let c = segments.append(&[3u8; 8]).unwrap();
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 0);
        assert_eq!(c.0, 1, "third record lands in a rotated segment");
        assert_eq!(segments.read(a.0, a.1, a.2).unwrap(), vec![1u8; 40]);
        assert_eq!(segments.read(b.0, b.1, b.2).unwrap(), vec![2u8; 40]);
        assert_eq!(segments.read(c.0, c.1, c.2).unwrap(), vec![3u8; 8]);
        drop(segments);
        assert!(!dir.exists(), "drop removes the spill directory");
    }

    #[test]
    fn fully_released_segment_is_deleted() {
        // 32-byte payloads + 8-byte headers: two records seal a segment.
        let mut segments = SegmentStore::create(None, 64).unwrap();
        let payload = |tag: u8| vec![tag; 32];
        let records: Vec<_> = (0..5u8)
            .map(|tag| segments.append(&payload(tag)).unwrap())
            .collect();
        assert_eq!(
            records.iter().map(|r| r.0).collect::<Vec<_>>(),
            [0, 0, 1, 1, 2]
        );
        let [seg0, seg1, seg2] = [0, 1, 2].map(|segment| segments.segment_path(segment));

        // One of two records released: the segment stays whole.
        segments.release(0);
        assert!(seg0.is_file(), "a segment holding a live record stays");
        assert_eq!(segments.read(0, records[1].1, 32).unwrap(), payload(1));

        // Both released: the sealed segment's file goes, the others
        // still read back through their checksums.
        segments.release(0);
        assert!(!seg0.exists(), "fully superseded segment is deleted");
        assert!(segments.read(0, records[0].1, 32).is_err());
        for (tag, record) in records.iter().enumerate().skip(2) {
            assert_eq!(
                segments.read(record.0, record.1, record.2).unwrap(),
                payload(tag as u8)
            );
        }

        // The segment being appended to is only deleted once sealed.
        segments.release(2);
        assert!(seg2.is_file());
        segments.append(&payload(5)).unwrap(); // still fits segment 2
        let sealed_by = segments.append(&payload(6)).unwrap();
        assert_eq!(sealed_by.0, 3);
        assert!(seg2.is_file(), "record 5 keeps segment 2 alive");
        assert!(seg1.is_file());
    }

    #[test]
    fn segment_read_rejects_bad_location() {
        let mut segments = SegmentStore::create(None, 1024).unwrap();
        segments.append(&[9u8; 16]).unwrap();
        assert!(segments.read(7, 0, 4).is_err(), "unknown segment");
        assert!(segments.read(0, 12, 16).is_err(), "truncated read");
    }
}
