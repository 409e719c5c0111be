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
//!
//! Insert and merge are register-wise maxima, so a touch usually leaves
//! the registers as they were. A frozen key promoted by such a touch is
//! *clean*: its spill record still holds its registers bit for bit, so
//! the hot state keeps the record, and demotion returns the slot to it —
//! no encode, no checksum, no segment write. The write that raises a
//! register releases the record in the same call that restamps the slot
//! ([`restamp`](SketchStore::restamp)); a dirty slot goes hot → warm →
//! frozen through the codec. A warm promotion keeps no bytes, since
//! held bytes would count against the budget.
//!
//! This module owns every change of a slot's tier state, and each
//! change charges the memory budget in the same call, under the slot's
//! shard write lock: creation and replacement
//! ([`insert_slot`](SketchStore::insert_slot)), removal
//! ([`remove_slot`](SketchStore::remove_slot)), promotion and
//! quarantine ([`promote`](SketchStore::promote)), a write's restart
//! over a corrupt slot ([`set_state`](SketchStore::set_state)), a
//! raising write's release of a clean record
//! ([`restamp`](SketchStore::restamp)), the demotions (the clock scan)
//! and [`clear_slots`](SketchStore::clear_slots). Each spill record is
//! referenced by one slot and counted once in its segment until that
//! slot lets go of it. The budget is one counter,
//! [`TierRuntime`]'s `charged`: the resident footprint of every hot
//! slot plus the payload length of every warm one (frozen and
//! quarantined slots cost no memory). It is exact whenever no
//! transition is in flight: it then equals
//! [`TierStats::resident_bytes`].

use crate::error::StoreError;
use crate::frame::{self, Frame};
use crate::store::{SketchStore, Slot};
use parking_lot::Mutex;
use sketch_core::Sketch;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};

/// Where a key's registers currently live.
#[derive(Debug)]
pub(crate) enum TierSlot<S> {
    /// Resident sketch — the unchanged fast path. A key promoted from
    /// frozen whose registers have not risen since is *clean*: it keeps
    /// the spill record that still holds its registers, and demotion
    /// returns it there with no encode and no write.
    Hot(S, Option<SpillRecord>),
    /// Registers compressed in memory through the sketch's
    /// [`compress`](Sketch::compress) codec.
    Warm(Box<[u8]>),
    /// Compressed bytes spilled to an append-only segment file; only
    /// the location stays in memory.
    Frozen(SpillRecord),
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
        matches!(self, TierSlot::Hot(..))
    }

    /// The spill record the state holds a reference to: a frozen
    /// slot's, or a clean hot slot's.
    fn record(&self) -> Option<SpillRecord> {
        match self {
            TierSlot::Hot(_, record) => *record,
            TierSlot::Frozen(record) => Some(*record),
            _ => None,
        }
    }
}

/// The location of one compressed record in the spill segments. Each
/// record is referenced by exactly one slot — frozen, or clean hot — and
/// counted once in its segment's `live` count until that slot lets go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpillRecord {
    /// Index of the segment file holding the bytes.
    segment: u32,
    /// Byte offset of the framed record within the segment.
    offset: u64,
    /// Length of the compressed payload.
    len: u32,
}

/// Point-in-time census of the store's memory tiers, from
/// [`SketchStore::tier_stats`].
///
/// Byte figures are as the tier manager accounts them: `hot_bytes` is
/// the sketches' own resident-footprint estimate
/// ([`Sketch::resident_bytes`]), `warm_bytes` the compressed
/// in-memory payloads, `spilled_bytes` the live compressed records on
/// disk: every frozen key's, and the record a clean hot key (promoted
/// from frozen, registers unchanged since) still holds and will be
/// demoted back to. Superseded records in the append-only segments are
/// not counted.
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
    /// Live compressed bytes in the spill segments (frozen keys' and
    /// clean hot keys' records).
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

/// Per-store tiering state: decoding prototype, policy, the budget
/// counter, the clock hand and the lazily created spill segments.
pub(crate) struct TierRuntime<S> {
    /// Empty factory sketch every compact payload decompresses against
    /// (fixes configuration and seed): cold slots, checkpoint entries
    /// and put/merge-in records.
    prototype: S,
    pub(crate) policy: TierPolicy,
    /// Bytes charged against the memory budget: hot slots' resident
    /// footprint plus warm slots' payload lengths. Kept only when a
    /// budget is set (nothing but [`over_budget`](Self::over_budget)
    /// reads it) and moved only by [`charge`](Self::charge) and
    /// [`reset`](Self::reset), which every slot transition calls under
    /// the slot's shard write lock, so it equals the exact
    /// [`SketchStore::tier_stats`] figure between transitions. Signed so
    /// that a charge is one `fetch_add` of the difference either way.
    charged: AtomicIsize,
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
            charged: AtomicIsize::new(0),
            scanning: AtomicBool::new(false),
            hand: AtomicUsize::new(0),
            segments: Mutex::new(None),
            spill_failures: AtomicUsize::new(0),
            last_spill_error: Mutex::new(None),
        }
    }

    fn over_budget(&self) -> bool {
        self.policy
            .memory_budget_bytes
            .is_some_and(|budget| self.charged.load(Ordering::Relaxed).max(0) as usize > budget)
    }

    /// The one budget charge: a slot moved from state `old` to state
    /// `new` (`None`: no slot). The counter moves by the difference of
    /// their costs in one step, and a spill record `old` held (frozen,
    /// or clean hot) is released unless `new` carries it on — read the
    /// record first if it is still wanted. Without a budget nothing is
    /// counted, and no record exists to release (only a budget's scan
    /// freezes).
    fn charge(&self, old: Option<&TierSlot<S>>, new: Option<&TierSlot<S>>) {
        if self.policy.memory_budget_bytes.is_none() {
            return;
        }
        let cost = |state: Option<&TierSlot<S>>| match state {
            Some(TierSlot::Hot(sketch, _)) => sketch.resident_bytes() as isize,
            Some(TierSlot::Warm(bytes)) => bytes.len() as isize,
            _ => 0,
        };
        let held = old.and_then(TierSlot::record);
        if held != new.and_then(TierSlot::record) {
            if let Some(record) = held {
                self.release(record);
            }
        }
        let delta = cost(new) - cost(old);
        if delta != 0 {
            self.charged.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Drops one slot's reference to `record`; the last reference out of
    /// a sealed segment deletes its file.
    fn release(&self, record: SpillRecord) {
        if let Some(segments) = self.segments.lock().as_mut() {
            segments.release(record.segment);
        }
    }

    /// Drops the whole charge and every spill segment (store cleared,
    /// with every shard write-locked and emptied).
    fn reset(&self) {
        self.charged.store(0, Ordering::Relaxed);
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
    fn append_frozen(&self, bytes: &[u8]) -> Option<SpillRecord> {
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
            Ok((segment, offset, len)) => Some(SpillRecord {
                segment,
                offset,
                len,
            }),
            Err(error) => {
                self.spill_failures.fetch_add(1, Ordering::Relaxed);
                *self.last_spill_error.lock() = Some(error.to_string());
                None
            }
        }
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
    /// Records some slot (frozen, or clean hot) still points at.
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
            spill_append_failures: self.tier.spill_failures.load(Ordering::Relaxed),
            ..TierStats::default()
        };
        for shard in self.shards() {
            for slot in shard.read().values() {
                match &slot.state {
                    TierSlot::Hot(sketch, record) => {
                        stats.hot_keys += 1;
                        stats.hot_bytes += sketch.resident_bytes();
                        stats.spilled_bytes += record.map_or(0, |record| record.len as usize);
                    }
                    TierSlot::Warm(bytes) => {
                        stats.warm_keys += 1;
                        stats.warm_bytes += bytes.len();
                    }
                    TierSlot::Frozen(record) => {
                        stats.frozen_keys += 1;
                        stats.spilled_bytes += record.len as usize;
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
        self.tier.last_spill_error.lock().clone()
    }

    /// The directory holding this store's spill segments — `None`
    /// until the first key freezes. The directory and every segment
    /// file in it are removed when the store drops (or on
    /// [`clear`](Self::clear)).
    pub fn spill_path(&self) -> Option<std::path::PathBuf> {
        self.tier.segments.lock().as_ref().map(|s| s.dir.clone())
    }

    /// The one in-place slot transition: moves `slot` to `next` and
    /// charges the change (a spill record the old state held is
    /// released unless `next` keeps it). Promotion, quarantine, the
    /// demotions and a write's restart over a corrupt slot all go
    /// through here. Caller holds the slot's shard write lock.
    pub(crate) fn set_state(&self, slot: &mut Slot<S>, next: TierSlot<S>) {
        self.tier.charge(Some(&slot.state), Some(&next));
        slot.state = next;
    }

    /// Touches `key`'s slot and rehydrates it to hot in place (no-op
    /// when already hot) — the promote-on-touch step of every point
    /// read and write. Caller holds the shard's write lock. Promotion
    /// does **not** bump the slot's version: the registers are
    /// unchanged, so similarity index entries stay valid.
    ///
    /// A frozen slot comes back **clean**: it keeps its spill record,
    /// which still holds its registers bit for bit, and the clock scan
    /// demotes it straight back there (no encode, no checksum, no
    /// write). The first write that raises a register releases the
    /// record ([`restamp`](Self::restamp)); so do removal, replacement
    /// and clear. A warm slot comes back with no record: holding its
    /// bytes would count against the budget.
    ///
    /// A payload that fails its checksum or codec round-trip
    /// **quarantines** the slot and returns
    /// [`StoreError::CorruptSlot`]; read paths surface the error, write
    /// paths restart the slot from a fresh factory sketch.
    pub(crate) fn promote(&self, key: &str, slot: &mut Slot<S>) -> Result<(), StoreError> {
        slot.touch();
        if slot.state.is_hot() {
            return Ok(());
        }
        match self.try_materialize_cold(&slot.state) {
            Ok(sketch) => {
                let record = slot.state.record();
                self.set_state(slot, TierSlot::Hot(sketch, record));
                Ok(())
            }
            Err(detail) => {
                self.set_state(slot, TierSlot::Quarantined(detail.clone().into_boxed_str()));
                Err(StoreError::CorruptSlot {
                    key: key.to_owned(),
                    detail,
                })
            }
        }
    }

    /// Stamps a write that raised a register of `slot` (hot, its shard
    /// write-locked by the caller) with a fresh version. A clean slot's
    /// spill record no longer holds its registers, so it is released in
    /// the same step: the next demotion re-encodes the slot.
    pub(crate) fn restamp(&self, slot: &mut Slot<S>) {
        if let TierSlot::Hot(_, record) = &mut slot.state {
            if let Some(stale) = record.take() {
                self.tier.release(stale);
            }
        }
        slot.restamp(self.next_version());
    }

    /// Creates `key`'s slot in `shard` (write-locked by the caller),
    /// charging it, and returns the registers of the slot it replaced
    /// (`None` when there was none, or its payload was corrupt).
    pub(crate) fn insert_slot(
        &self,
        shard: &mut HashMap<String, Slot<S>>,
        key: String,
        slot: Slot<S>,
    ) -> Option<S> {
        self.tier.charge(None, Some(&slot.state));
        let replaced = shard.insert(key, slot)?;
        self.take_sketch(replaced)
    }

    /// Removes `key`'s slot from `shard` (write-locked by the caller),
    /// uncharging it. `None` when the key held no slot; `Some(None)`
    /// when its payload was corrupt — the registers are unrecoverable,
    /// and the slot is gone all the same.
    pub(crate) fn remove_slot(
        &self,
        shard: &mut HashMap<String, Slot<S>>,
        key: &str,
    ) -> Option<Option<S>> {
        shard.remove(key).map(|slot| self.take_sketch(slot))
    }

    /// Removes every slot and the tier state with it, and logs the
    /// clear, atomically against concurrent writers: every shard's
    /// write lock is held, in ascending order (the store's only nesting
    /// order), across the sweep, the reset and the append. Otherwise a
    /// key written into an already cleared shard would lose its charge
    /// to the reset, or its spill segment if the clock scan froze it in
    /// between, or be logged before a clear that erased it.
    pub(crate) fn clear_slots(&self) {
        let mut shards: Vec<_> = self.shards().iter().map(|shard| shard.write()).collect();
        for (index, shard) in shards.iter_mut().enumerate() {
            shard.clear();
            self.mark_dirty(index);
        }
        self.tier.reset();
        self.log(crate::wal::encode_clear);
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
            TierSlot::Hot(sketch, _) => Some(op(sketch)),
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
            TierSlot::Hot(..) => unreachable!("cold_bytes on a resident slot"),
            TierSlot::Quarantined(reason) => Err(reason.to_string()),
            TierSlot::Warm(bytes) => Ok(Cow::Borrowed(bytes)),
            TierSlot::Frozen(record) => self
                .tier
                .segments
                .lock()
                .as_mut()
                .ok_or_else(|| "frozen slot without spill segments".to_owned())?
                .read(record.segment, record.offset, record.len)
                .map(Cow::Owned)
                .map_err(|error| format!("spill segment unreadable: {error}")),
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
            TierSlot::Hot(sketch, _) => Some(Cow::Owned(sketch.compress())),
            cold => self.cold_bytes(cold).ok(),
        }
    }

    /// Decompresses a warm or frozen state into an owned sketch.
    pub(crate) fn try_materialize_cold(&self, state: &TierSlot<S>) -> Result<S, String> {
        self.cold_bytes(state)
            .and_then(|bytes| self.tier.try_decode(&bytes))
    }

    /// Converts a slot that left its shard map into its sketch,
    /// uncharging it. `None` when the payload was corrupt.
    fn take_sketch(&self, slot: Slot<S>) -> Option<S> {
        // Read a cold payload before the charge releases it.
        let cold = match &slot.state {
            TierSlot::Hot(..) => None,
            state => self.try_materialize_cold(state).ok(),
        };
        self.tier.charge(Some(&slot.state), None);
        match slot.state {
            TierSlot::Hot(sketch, _) => Some(sketch),
            _ => cold,
        }
    }

    /// The tier manager's one maintenance hook, run after every write
    /// and every promoting read (promotions grow residency too): when
    /// residency is over the memory budget, runs a clock scan unless
    /// another thread already is. Call with no shard lock held.
    pub(crate) fn maintain(&self) {
        let scanning = &self.tier.scanning;
        if self.tier.over_budget()
            && scanning
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            self.clock_scan();
            scanning.store(false, Ordering::Release);
        }
    }

    /// The second-chance clock scan. One shard per step, hand advancing
    /// round-robin; slots touched since the last encounter get their
    /// bit cleared and survive, untouched clean hot slots return to
    /// frozen at the spill record they kept, other untouched hot slots
    /// compress to warm and untouched warm slots spill to frozen. It
    /// runs up to two
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
                    TierSlot::Hot(_, Some(record)) => Some(TierSlot::Frozen(*record)),
                    TierSlot::Hot(sketch, None) => {
                        Some(TierSlot::Warm(sketch.compress().into_boxed_slice()))
                    }
                    TierSlot::Warm(bytes) if spill => {
                        let frozen = self.tier.append_frozen(bytes);
                        spill = frozen.is_some();
                        frozen.map(TierSlot::Frozen)
                    }
                    _ => None,
                };
                if let Some(state) = next {
                    self.set_state(slot, state);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsketch::{SetSketch2, SetSketchConfig};
    use std::time::{Duration, Instant};

    fn config() -> SetSketchConfig {
        SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap()
    }

    /// A fresh directory under the temp dir, unique per test and process.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sketch-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Asserts that the budget counter equals the exact tier scan.
    fn assert_charged_exactly(store: &SketchStore<SetSketch2>, after: &str) {
        let charged = store.tier.charged.load(Ordering::Relaxed);
        let exact = store.tier_stats().resident_bytes() as isize;
        assert_eq!(charged, exact, "budget counter vs exact scan after {after}");
    }

    /// Asserts that every spill segment's `live` count equals the number
    /// of slots — frozen, or clean hot — whose record points into it,
    /// and that no slot points into a deleted segment: a leaked or
    /// double-released record fails at the step that caused it.
    fn assert_records_counted(store: &SketchStore<SetSketch2>, after: &str) {
        let mut pointing: HashMap<u32, usize> = HashMap::new();
        for shard in store.shards() {
            for slot in shard.read().values() {
                if let Some(record) = slot.state.record() {
                    *pointing.entry(record.segment).or_default() += 1;
                }
            }
        }
        let live: HashMap<u32, usize> = store
            .tier
            .segments
            .lock()
            .iter()
            .flat_map(|segments| segments.segments.iter().enumerate())
            .filter_map(|(index, segment)| Some((index as u32, segment.as_ref()?.live)))
            .filter(|&(_, live)| live > 0)
            .collect();
        assert_eq!(
            live, pointing,
            "segment live counts vs slot records after {after}"
        );
    }

    /// A clean hot slot's key (promoted from frozen, registers unchanged
    /// since), if any.
    fn clean_hot_key(store: &SketchStore<SetSketch2>) -> Option<String> {
        store.shards().iter().find_map(|shard| {
            shard
                .read()
                .iter()
                .find(|(_, slot)| matches!(slot.state, TierSlot::Hot(_, Some(_))))
                .map(|(key, _)| key.clone())
        })
    }

    /// Overwrites the first payload byte of a frozen slot's spill
    /// record and returns the slot's key; `None` when no slot is frozen.
    fn rot_one_spill_record(store: &SketchStore<SetSketch2>) -> Option<String> {
        let (key, segment, offset) = store.shards().iter().find_map(|shard| {
            shard
                .read()
                .iter()
                .find_map(|(key, slot)| match slot.state {
                    TierSlot::Frozen(record) => Some((key.clone(), record.segment, record.offset)),
                    _ => None,
                })
        })?;
        let path = store
            .spill_path()
            .unwrap()
            .join(format!("seg-{segment}.bin"));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let at = offset + frame::HEADER_BYTES as u64;
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(at)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[!byte[0]]).unwrap();
        Some(key)
    }

    /// A seeded single-threaded script over every slot transition on a
    /// budgeted, spilling, durable store: after each step the budget
    /// counter must equal the exact scan of the tiers, and every spill
    /// segment must count exactly the records slots point at. Puts and
    /// removals land on a clean hot slot whenever one exists and `b` is
    /// even.
    #[test]
    fn budget_counter_matches_the_exact_scan_after_every_op() {
        let dir = scratch_dir("charge-script");
        let (durable, spill) = (dir.join("wal"), dir.join("spill"));
        let one_sketch = SetSketch2::new(config(), 5).resident_bytes();
        let open = || {
            SketchStore::builder(|| SetSketch2::new(config(), 5))
                .shards(4)
                .memory_budget_bytes(3 * one_sketch)
                .spill_dir(&spill)
                .durable_dir(&durable)
                .checkpoint_after_bytes(16 << 10)
                .build()
        };
        let mut store = open();
        let key = |n: u64| format!("k{}", n % 12);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut rotted, mut restored, mut over_clean) = (0, 0, 0);
        for step in 0..600 {
            let (kind, a, b) = (next() % 20, next(), next());
            let op = match kind {
                0..=5 => {
                    let fresh: Vec<u64> = (0..1 + b % 40).map(|_| next() | 1 << 63).collect();
                    store.ingest(&key(a), &fresh);
                    "ingest of fresh elements"
                }
                6..=7 => {
                    // Element ids below 64 recur across the script.
                    store.ingest(&key(a), &[b % 64, (b + 1) % 64]);
                    "ingest of seen elements"
                }
                8 | 9 => {
                    let clean = clean_hot_key(&store).filter(|_| b % 2 == 0);
                    over_clean += usize::from(clean.is_some());
                    let name = clean.unwrap_or_else(|| key(a));
                    if kind == 8 {
                        let mut sketch = SetSketch2::new(config(), 5);
                        sketch.insert_batch(&[a, b]);
                        store.put(&name, sketch);
                        "put"
                    } else {
                        store.remove(&name);
                        "remove"
                    }
                }
                10..=11 => {
                    let cold = store.keys().into_iter().find(|name| {
                        let shard = store.shard(name).read();
                        shard.get(name).is_some_and(|slot| !slot.state.is_hot())
                    });
                    let _ = store.cardinality(&cold.unwrap_or_else(|| key(a)));
                    "read of a cold key"
                }
                12 => {
                    let _ = store.jaccard(&key(a), &key(b));
                    "jaccard"
                }
                13..=14 => {
                    let mut incoming = SetSketch2::new(config(), 5);
                    incoming.insert_batch(&[a % 97, b % 97]);
                    store.merge_in(&key(a), &incoming).unwrap();
                    "merge_in"
                }
                15 => {
                    store.clear();
                    "clear"
                }
                16..=17 => {
                    store.checkpoint().unwrap();
                    drop(store);
                    store = open();
                    restored += store.recovery_report().unwrap().checkpoint_entries;
                    "restart from a checkpoint"
                }
                _ => {
                    if let Some(name) = rot_one_spill_record(&store) {
                        let read = store.cardinality(&name);
                        assert!(matches!(read, Err(StoreError::CorruptSlot { .. })));
                        rotted += 1;
                    }
                    "a rotted spill record"
                }
            };
            let after = format!("step {step}: {op}");
            assert_charged_exactly(&store, &after);
            assert_records_counted(&store, &after);
        }
        assert!(rotted > 0, "the script rotted no spill record");
        assert!(over_clean > 0, "no put or remove hit a clean hot slot");
        assert!(restored > 0, "no restart restored a checkpoint entry");
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The record a slot of `store` holds, and whether the slot is
    /// frozen.
    fn record_of(store: &SketchStore<SetSketch2>, key: &str) -> (Option<SpillRecord>, bool) {
        let shard = store.shard(key).read();
        let state = &shard[key].state;
        (state.record(), matches!(state, TierSlot::Frozen(_)))
    }

    /// Runs the clock scan until no slot is hot or warm (the store's
    /// 1-byte budget keeps it over budget until then).
    fn freeze_all(store: &SketchStore<SetSketch2>) {
        for _ in 0..4 {
            let stats = store.tier_stats();
            if stats.hot_keys + stats.warm_keys == 0 {
                return;
            }
            store.maintain();
        }
        panic!("keys still resident: {:?}", store.tier_stats());
    }

    /// A clean eviction returns a promoted frozen key to its own spill
    /// record, and only while its registers are unchanged: a no-op
    /// ingest re-freezes it at the same `(segment, offset)` without
    /// growing the segment, and an ingest that raises a register
    /// re-freezes it at a fresh record that reads back the raised
    /// registers, bit for bit against a plain store.
    #[test]
    fn a_clean_slot_refreezes_at_its_record_and_a_raised_one_does_not() {
        let dir = scratch_dir("clean-eviction");
        let build = |budget: Option<usize>| {
            let builder = SketchStore::builder(|| SetSketch2::new(config(), 7)).shards(1);
            match budget {
                Some(bytes) => builder.memory_budget_bytes(bytes).spill_dir(&dir),
                None => builder,
            }
            .build()
        };
        let (tiered, plain) = (build(Some(1)), build(None));
        let ingest = |key: &str, elements: &[u64]| {
            tiered.ingest(key, elements);
            plain.ingest(key, elements);
        };
        let keys = ["a", "b", "c"];
        for (n, key) in (0u64..).zip(keys) {
            ingest(key, &(n * 100..n * 100 + 40).collect::<Vec<_>>());
        }
        freeze_all(&tiered);
        let segment_len = |record: SpillRecord| {
            let path = tiered.spill_path().unwrap();
            fs::metadata(path.join(format!("seg-{}.bin", record.segment)))
                .unwrap()
                .len()
        };

        // No-op ingest: elements "a" already holds.
        let (Some(before), true) = record_of(&tiered, "a") else {
            panic!("a is not frozen");
        };
        let grown_to = segment_len(before);
        ingest("a", &[0, 1, 2]);
        freeze_all(&tiered);
        assert_eq!(
            record_of(&tiered, "a"),
            (Some(before), true),
            "re-frozen in place"
        );
        assert_eq!(
            segment_len(before),
            grown_to,
            "a clean eviction writes nothing"
        );
        assert_records_counted(&tiered, "a clean eviction");

        // Raising ingest: the old record no longer holds "a".
        ingest("a", &(1_000..1_040).collect::<Vec<_>>());
        freeze_all(&tiered);
        let (Some(after), true) = record_of(&tiered, "a") else {
            panic!("a is not frozen");
        };
        assert_ne!(after, before, "a raised slot is written to a fresh record");
        assert_records_counted(&tiered, "a dirty eviction");
        for key in keys {
            assert_eq!(tiered.get(key), plain.get(key), "{key} read cold");
        }
        assert_charged_exactly(&tiered, "the script");
        drop(tiered);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `clear` against a concurrent writer on a store whose 1-byte
    /// budget freezes almost every key. Each round clears once while a
    /// second thread is midway through a burst of fresh-key ingests,
    /// then checks that no surviving key lost its spill record (it
    /// would be quarantined on its next read) and that the budget
    /// counter is exact.
    #[test]
    fn clear_is_atomic_against_concurrent_writers() {
        let store = SketchStore::builder(|| SetSketch2::new(config(), 3))
            .shards(64)
            .memory_budget_bytes(1)
            .build();
        let deadline = Instant::now() + Duration::from_millis(600);
        let mut next_key = 0u64;
        for round in 0.. {
            if Instant::now() >= deadline {
                break;
            }
            let written = AtomicUsize::new(0);
            let keys = next_key..next_key + 32;
            next_key = keys.end;
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for key in keys {
                        store.ingest(&format!("k{key}"), &[key, key + 1]);
                        written.fetch_add(1, Ordering::Relaxed);
                    }
                });
                while written.load(Ordering::Relaxed) < 8 {
                    std::hint::spin_loop();
                }
                store.clear();
            });
            for key in store.keys() {
                let _ = store.cardinality(&key);
            }
            assert_eq!(store.tier_stats().quarantined_keys, 0, "round {round}");
            assert_charged_exactly(&store, &format!("round {round} of racing clears"));
        }
    }

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
