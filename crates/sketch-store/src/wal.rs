//! Crash-safe durability: a segment-rotated write-ahead log with
//! checkpoints, and the recovery machinery that rebuilds a store from
//! them after `kill -9`.
//!
//! With [`StoreBuilder::durable_dir`](crate::StoreBuilder::durable_dir)
//! set, every operation that changes the store appends one record to
//! the current WAL segment before the caller sees it returned. Two
//! orders are used:
//!
//! * **Apply, then log** — ingest (and insert) and merge-in learn their
//!   effect only by applying. They apply under the shard write lock
//!   and, only when a register rose (or the key was created), restamp
//!   the slot and append their record *before that lock is released*,
//!   so no reader and no later writer sees a register whose record is
//!   not yet in the log. A write that raised nothing is a read: no
//!   record, no version bump. Dropping it loses nothing — a sketch's
//!   state is the register-wise maximum over its elements, so replay
//!   without the no-op records rebuilds the same registers.
//! * **Log, then apply** — put, remove and clear always change state;
//!   they append first and apply afterwards.
//!
//! Under [`FsyncPolicy::Always`] an acknowledged change is therefore on
//! disk before the caller sees it; for ingest and merge-in that fsync
//! runs under the shard lock, so a no-op that relies on registers a
//! concurrent write just raised waits until that write's record is
//! durable. Each record is framed as `[u32 length][u32 CRC32][payload]`
//! by [`crate::frame`], which refuses a payload the scanner would not
//! read back — so an ingest batch is split into as many records as the
//! frame limit needs, and an oversize put/merge-in payload is a counted
//! append failure.
//!
//! Replay time is bounded by **checkpoints**: once the log grows past
//! the configured threshold, the store sweeps every slot's compact
//! payload (the same [`Sketch::compress`] codec the tiers and the wire
//! use) into `checkpoint-N.ckpt` — written to a temp file, fsynced and
//! atomically renamed — after which all WAL segments below `N` are
//! deleted. Recovery loads the newest checkpoint and replays only the
//! remaining tail.
//!
//! Recovery never panics on bad bytes. A record whose frame runs past
//! the end of its segment is a **torn tail** (the crash interrupted the
//! write): the tail is truncated and everything before it survives. A
//! fully framed record whose checksum mismatches is **mid-log
//! corruption** (bit rot): the record is quarantined — counted and
//! skipped — and scanning continues at the next frame. Both outcomes
//! are reported in the typed [`RecoveryReport`] available from
//! [`SketchStore::recovery_report`].

use crate::error::StoreError;
use crate::frame::{self, Frame};
use crate::store::{SketchStore, Slot};
use crate::tier::TierSlot;
use parking_lot::{Mutex, RwLock};
use sketch_core::Sketch;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// When WAL appends reach the operating system's disk.
///
/// The policy trades ingest latency against the window of acknowledged
/// writes a power loss can lose; a plain process crash (`kill -9`)
/// loses nothing under any policy, because the records are already in
/// the OS page cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: an acknowledged write survives even
    /// power loss. The slowest option by orders of magnitude. An ingest
    /// or merge-in that raised a register fsyncs while it still holds
    /// its shard's write lock, so writers to that shard wait for the
    /// disk too.
    Always,
    /// `fsync` after every `n` records: bounds the power-loss window to
    /// `n` records while amortizing the sync cost. Writes that raised
    /// no register write no record; such a write's acknowledgement
    /// rides on the records that made it a no-op, and is lost to power
    /// loss only together with them.
    EveryN(u64),
    /// Never `fsync` explicitly; the OS flushes on its own schedule.
    /// Survives process crashes, not power loss. The default.
    Os,
}

/// What recovery found while rebuilding a durable store — returned by
/// [`SketchStore::recovery_report`] after
/// [`StoreBuilder::build`](crate::StoreBuilder::build) replayed the
/// directory.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// True when a checkpoint was loaded (replay started from it
    /// instead of an empty store).
    pub checkpoint_loaded: bool,
    /// Keys restored from the checkpoint.
    pub checkpoint_entries: usize,
    /// WAL segments scanned after the checkpoint.
    pub segments_scanned: usize,
    /// Tail records replayed on top of the checkpoint.
    pub records_replayed: usize,
    /// Fully framed records skipped because their checksum mismatched
    /// or their payload failed to decode (mid-log corruption).
    pub records_quarantined: usize,
    /// Human-readable causes for the quarantined records, in scan
    /// order.
    pub quarantine_details: Vec<String>,
    /// True when the last segment ended in a partial frame (the crash
    /// tore the final write) and the tail was truncated.
    pub torn_tail: bool,
    /// Bytes dropped as torn or unparseable trailing data.
    pub dropped_bytes: u64,
}

impl RecoveryReport {
    /// True when recovery found nothing wrong: no torn tail, no
    /// quarantined records.
    pub fn is_clean(&self) -> bool {
        !self.torn_tail && self.records_quarantined == 0 && self.dropped_bytes == 0
    }
}

impl std::fmt::Display for RecoveryReport {
    /// One operator-readable line: what replay started from, how much
    /// it replayed, and whether anything was lost on the way.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.checkpoint_loaded {
            write!(f, "checkpoint loaded ({} entries)", self.checkpoint_entries)?;
        } else {
            write!(f, "no checkpoint")?;
        }
        write!(
            f,
            ", {} segments scanned, {} records replayed",
            self.segments_scanned, self.records_replayed
        )?;
        if self.is_clean() {
            write!(f, ", clean")
        } else {
            write!(
                f,
                ", {} quarantined, torn tail: {}, {} bytes dropped",
                self.records_quarantined, self.torn_tail, self.dropped_bytes
            )
        }
    }
}

/// WAL segments rotate once they reach this many bytes; smaller
/// segments mean finer-grained deletion after a checkpoint.
const WAL_SEGMENT_ROTATE_BYTES: u64 = 16 << 20;

/// Default checkpoint threshold: log bytes appended since the last
/// checkpoint before the next one is cut.
pub(crate) const DEFAULT_CHECKPOINT_AFTER_BYTES: u64 = 8 << 20;

/// Magic prefix of a checkpoint file (`SKCK`).
const CHECKPOINT_MAGIC: u32 = 0x534B_434B;
/// Checkpoint format version.
const CHECKPOINT_FORMAT: u8 = 1;
/// Bytes of the magic + format + write-epoch header before the entries.
const CHECKPOINT_HEADER_BYTES: usize = 4 + 1 + 8;

/// Record tags.
const TAG_INGEST: u8 = 1;
const TAG_INGEST_BYTES: u8 = 2;
const TAG_PUT: u8 = 3;
const TAG_MERGE_IN: u8 = 4;
const TAG_REMOVE: u8 = 5;
const TAG_CLEAR: u8 = 6;

// --- Record encoding -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, value: &[u8]) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value);
}

/// Most `u64` elements one ingest record under `key` carries within
/// the frame limit (at least one: a key too long to log fails at the
/// append, where it is counted).
pub(crate) fn ingest_elements_per_record(key: &str) -> usize {
    let fixed = 1 + 4 + key.len() + 4;
    (frame::MAX_PAYLOAD_BYTES.saturating_sub(fixed) / 8).max(1)
}

/// Encodes an ingest record (covers single inserts too).
pub(crate) fn encode_ingest(key: &str, elements: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + key.len() + 8 * elements.len());
    out.push(TAG_INGEST);
    put_str(&mut out, key);
    put_u32(&mut out, elements.len() as u32);
    for &element in elements {
        put_u64(&mut out, element);
    }
    out
}

/// Encodes a byte-element ingest record. Stores no longer write them;
/// replay still reads them.
#[cfg(test)]
pub(crate) fn encode_ingest_bytes(key: &str, elements: &[&[u8]]) -> Vec<u8> {
    let total: usize = elements.iter().map(|e| e.len() + 4).sum();
    let mut out = Vec::with_capacity(1 + 8 + key.len() + total);
    out.push(TAG_INGEST_BYTES);
    put_str(&mut out, key);
    put_u32(&mut out, elements.len() as u32);
    for element in elements {
        put_bytes(&mut out, element);
    }
    out
}

/// Encodes a put record carrying the sketch's compact payload.
pub(crate) fn encode_put(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + key.len() + payload.len());
    out.push(TAG_PUT);
    put_str(&mut out, key);
    put_bytes(&mut out, payload);
    out
}

/// Encodes a merge-in record carrying the incoming compact payload.
pub(crate) fn encode_merge_in(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + key.len() + payload.len());
    out.push(TAG_MERGE_IN);
    put_str(&mut out, key);
    put_bytes(&mut out, payload);
    out
}

/// Encodes a remove record.
pub(crate) fn encode_remove(key: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 + key.len());
    out.push(TAG_REMOVE);
    put_str(&mut out, key);
    out
}

/// Encodes a clear record.
pub(crate) fn encode_clear() -> Vec<u8> {
    vec![TAG_CLEAR]
}

// --- Record decoding -------------------------------------------------

/// A decoded WAL record, owning its fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord {
    /// `u64` elements recorded under a key.
    Ingest {
        /// The target key.
        key: String,
        /// The recorded elements.
        elements: Vec<u64>,
    },
    /// Byte-string elements recorded under a key.
    IngestBytes {
        /// The target key.
        key: String,
        /// The recorded byte strings.
        elements: Vec<Vec<u8>>,
    },
    /// A whole sketch stored under a key (compact payload).
    Put {
        /// The target key.
        key: String,
        /// The sketch's compact payload.
        payload: Vec<u8>,
    },
    /// A replica state merged into a key (compact payload).
    MergeIn {
        /// The target key.
        key: String,
        /// The incoming compact payload.
        payload: Vec<u8>,
    },
    /// A key removed.
    Remove {
        /// The removed key.
        key: String,
    },
    /// The whole store cleared.
    Clear,
}

/// Bounded little-endian reader over a record payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| "record truncated".to_owned())?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "key is not UTF-8".to_owned())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, String> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes after record".to_owned())
        }
    }
}

/// Decodes one record payload (the CRC has already been verified).
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut reader = Reader::new(payload);
    let record = match reader.u8()? {
        TAG_INGEST => {
            let key = reader.str()?;
            let count = reader.u32()? as usize;
            // Bounded: each element needs 8 bytes of payload.
            if count > payload.len() / 8 + 1 {
                return Err("element count exceeds record size".to_owned());
            }
            let mut elements = Vec::with_capacity(count);
            for _ in 0..count {
                elements.push(reader.u64()?);
            }
            WalRecord::Ingest { key, elements }
        }
        TAG_INGEST_BYTES => {
            let key = reader.str()?;
            let count = reader.u32()? as usize;
            if count > payload.len() / 4 + 1 {
                return Err("element count exceeds record size".to_owned());
            }
            let mut elements = Vec::with_capacity(count);
            for _ in 0..count {
                elements.push(reader.bytes()?);
            }
            WalRecord::IngestBytes { key, elements }
        }
        TAG_PUT => WalRecord::Put {
            key: reader.str()?,
            payload: reader.bytes()?,
        },
        TAG_MERGE_IN => WalRecord::MergeIn {
            key: reader.str()?,
            payload: reader.bytes()?,
        },
        TAG_REMOVE => WalRecord::Remove { key: reader.str()? },
        TAG_CLEAR => WalRecord::Clear,
        tag => return Err(format!("unknown record tag {tag}")),
    };
    reader.done()?;
    Ok(record)
}

// --- The log itself --------------------------------------------------

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

fn checkpoint_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("checkpoint-{seq:010}.ckpt"))
}

/// Best-effort directory fsync, so renames and new files survive power
/// loss on filesystems that need it.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// The open write-ahead log: the current segment file plus rotation and
/// fsync bookkeeping. Lives behind a mutex in [`Durability`]; appends
/// are serialized (the write-ahead ordering guarantee needs them to
/// be).
pub(crate) struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    seq: u64,
    file: File,
    segment_bytes: u64,
    appends_since_sync: u64,
    bytes_since_checkpoint: u64,
}

impl Wal {
    /// Opens a fresh segment `seq` under `dir` for appending.
    fn create(dir: &Path, seq: u64, fsync: FsyncPolicy) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(segment_path(dir, seq))?;
        sync_dir(dir);
        Ok(Wal {
            dir: dir.to_path_buf(),
            fsync,
            seq,
            file,
            segment_bytes: 0,
            appends_since_sync: 0,
            bytes_since_checkpoint: 0,
        })
    }

    /// Appends one CRC-framed record and applies the fsync policy. A
    /// payload over the frame limit is refused before anything is
    /// written.
    pub(crate) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut record = Vec::new();
        frame::push(&mut record, payload)?;
        if self.segment_bytes >= WAL_SEGMENT_ROTATE_BYTES {
            self.rotate()?;
        }
        self.file.write_all(&record)?;
        self.segment_bytes += record.len() as u64;
        self.bytes_since_checkpoint += record.len() as u64;
        self.appends_since_sync += 1;
        let sync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Os => false,
        };
        if sync {
            self.file.sync_data()?;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Closes the current segment and opens the next one.
    fn rotate(&mut self) -> io::Result<()> {
        let _ = self.file.sync_data();
        let next = Wal::create(&self.dir, self.seq + 1, self.fsync)?;
        let bytes_since_checkpoint = self.bytes_since_checkpoint;
        *self = next;
        self.bytes_since_checkpoint = bytes_since_checkpoint;
        Ok(())
    }

    /// Rotates for a checkpoint and returns the new segment's sequence
    /// number: the checkpoint will cover every segment *below* it.
    fn rotate_for_checkpoint(&mut self) -> io::Result<u64> {
        self.rotate()?;
        Ok(self.seq)
    }

    /// Log bytes appended since the last checkpoint (or open).
    pub(crate) fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint
    }

    fn note_checkpointed(&mut self) {
        self.bytes_since_checkpoint = 0;
    }
}

// --- Store-side runtime ----------------------------------------------

/// Per-store durability state, present when the builder set a durable
/// directory.
pub(crate) struct Durability {
    /// Logged operations hold this as readers across their log and
    /// apply steps (either order); the checkpoint sweep holds it as a
    /// writer, so every record in the segments it covers has also been
    /// applied to the shards it sweeps — without this barrier a record
    /// could be logged below the checkpoint but applied after the
    /// sweep, and replay would lose it.
    pub(crate) gate: RwLock<()>,
    pub(crate) wal: Mutex<Wal>,
    /// What recovery found when this store was built.
    pub(crate) report: RecoveryReport,
    /// Cut a checkpoint once this many log bytes accumulate.
    pub(crate) checkpoint_after_bytes: u64,
    /// Single-flight latch for checkpointing.
    checkpointing: AtomicBool,
    /// Appends that failed (the write went ahead un-logged; see
    /// [`SketchStore::wal_failures`]).
    wal_failures: AtomicUsize,
    last_wal_error: Mutex<Option<String>>,
}

impl Durability {
    /// Appends one record; a failure is counted and the write goes
    /// ahead un-logged.
    fn append(&self, record: &[u8]) {
        if let Err(error) = self.wal.lock().append(record) {
            self.wal_failures.fetch_add(1, Ordering::Relaxed);
            *self.last_wal_error.lock() = Some(error.to_string());
        }
    }
}

impl<S: Sketch> SketchStore<S> {
    /// What recovery found when this store was built from a durable
    /// directory; `None` for non-durable stores.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.durability.as_ref().map(|d| &d.report)
    }

    /// Number of WAL appends that have failed since the store was
    /// built (the writes themselves still applied — a full disk
    /// degrades durability, not availability). See
    /// [`last_wal_error`](Self::last_wal_error) for the latest cause.
    pub fn wal_failures(&self) -> usize {
        self.durability
            .as_ref()
            .map_or(0, |d| d.wal_failures.load(Ordering::Relaxed))
    }

    /// The most recent WAL append failure, if any.
    pub fn last_wal_error(&self) -> Option<String> {
        self.durability
            .as_ref()
            .and_then(|d| d.last_wal_error.lock().clone())
    }

    /// Log bytes appended since the last checkpoint; `None` for
    /// non-durable stores.
    pub fn wal_bytes_since_checkpoint(&self) -> Option<u64> {
        self.durability
            .as_ref()
            .map(|d| d.wal.lock().bytes_since_checkpoint())
    }

    /// Runs `apply` — a put, remove or clear, which always changes the
    /// store — under the durability protocol: when the store is
    /// durable, `record`'s bytes are appended to the WAL first
    /// (write-ahead), both steps under the checkpoint gate; afterwards
    /// a checkpoint is cut if the log has grown past the threshold.
    /// Non-durable stores skip straight to `apply`.
    pub(crate) fn log_then_apply<R>(
        &self,
        record: impl FnOnce() -> Vec<u8>,
        apply: impl FnOnce(&Self) -> R,
    ) -> R {
        let Some(durability) = self.durability.as_ref() else {
            return apply(self);
        };
        let result = {
            let _gate = durability.gate.read();
            durability.append(&record());
            apply(self)
        };
        self.checkpoint_if_due(durability);
        result
    }

    /// Runs an ingest or merge-in — `op` on `key`'s sketch, which
    /// answers whether it changed anything — under the durability
    /// protocol: applied first, under the checkpoint gate; only when
    /// the write counts ([`with_entry`](Self::with_entry): a register
    /// rose or the key was created) is `record`'s bytes appended,
    /// while the shard write lock is still held. A no-op writes no
    /// record and triggers no checkpoint. Non-durable stores only
    /// apply.
    pub(crate) fn apply_then_log<E>(
        &self,
        key: &str,
        op: impl FnOnce(&mut S) -> Result<bool, E>,
        record: impl FnOnce() -> Vec<u8>,
    ) -> Result<bool, E> {
        let Some(durability) = self.durability.as_ref() else {
            return self.with_entry(key, op, || {});
        };
        let result = {
            let _gate = durability.gate.read();
            self.with_entry(key, op, || durability.append(&record()))
        };
        if let Ok(true) = result {
            self.checkpoint_if_due(durability);
        }
        result
    }

    /// Cuts a checkpoint once the log has grown past the threshold.
    fn checkpoint_if_due(&self, durability: &Durability) {
        if durability.wal.lock().bytes_since_checkpoint() >= durability.checkpoint_after_bytes {
            // Best-effort: a failed checkpoint only delays log
            // truncation; the next write retries.
            let _ = self.checkpoint();
        }
    }

    /// Cuts a checkpoint now: sweeps every slot's compact payload into
    /// a new checkpoint file and deletes the WAL segments it covers.
    /// No-op on non-durable stores and when another thread is already
    /// checkpointing.
    ///
    /// Durable stores checkpoint automatically once the log outgrows
    /// the builder's
    /// [`checkpoint_after_bytes`](crate::StoreBuilder::checkpoint_after_bytes);
    /// call this to bound replay time manually (e.g. before a planned
    /// restart).
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let Some(durability) = self.durability.as_ref() else {
            return Ok(());
        };
        if durability.checkpointing.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        let result = self.checkpoint_inner(durability);
        durability.checkpointing.store(false, Ordering::Release);
        result.map_err(|error| StoreError::Durability(error.to_string()))
    }

    fn checkpoint_inner(&self, durability: &Durability) -> io::Result<()> {
        // Writer side of the gate: every logged record below the
        // rotation point has finished applying once this is held.
        let _gate = durability.gate.write();
        let mut wal = durability.wal.lock();
        let seq = wal.rotate_for_checkpoint()?;
        let dir = wal.dir.clone();
        let epoch = self.write_epoch_load();

        let tmp_path = dir.join(format!("checkpoint-{seq:010}.tmp"));
        let out = self.checkpoint_image(epoch);
        let mut file = File::create(&tmp_path)?;
        file.write_all(&out)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp_path, checkpoint_path(&dir, seq))?;
        sync_dir(&dir);
        wal.note_checkpointed();
        drop(wal);

        // The checkpoint covers every segment below `seq`; delete them
        // and any superseded checkpoints (best-effort — stale files are
        // also cleaned during the next recovery).
        for (kind, old) in list_dir(&dir) {
            let stale = match kind {
                DirEntryKind::Segment => old < seq,
                DirEntryKind::Checkpoint => old < seq,
            };
            if stale {
                let path = match kind {
                    DirEntryKind::Segment => segment_path(&dir, old),
                    DirEntryKind::Checkpoint => checkpoint_path(&dir, old),
                };
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    /// Sweeps the store into a checkpoint image — header, then one
    /// framed `(key, version, compact payload)` entry per key — one
    /// shard read lock at a time, never promoting. Quarantined slots,
    /// unreadable spill records and entries over the frame limit are
    /// skipped: the image carries the keys a loader can read.
    fn checkpoint_image(&self, epoch: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_FORMAT);
        put_u64(&mut out, epoch);
        let mut entry = Vec::new();
        for shard in self.shards() {
            for (key, slot) in shard.read().iter() {
                let Some(payload) = self.slot_payload(&slot.state) else {
                    continue;
                };
                entry.clear();
                put_str(&mut entry, key);
                put_u64(&mut entry, slot.version);
                put_bytes(&mut entry, &payload);
                // An entry over the frame limit is left out.
                let _ = frame::push(&mut out, &entry);
            }
        }
        out
    }
}

/// Parses a checkpoint image's header, returning the write epoch it
/// records; entries start at [`CHECKPOINT_HEADER_BYTES`].
fn checkpoint_epoch(bytes: &[u8]) -> Result<u64, String> {
    let mut header = Reader::new(bytes);
    if header.u32().map_err(|_| "missing magic".to_owned())? != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic".to_owned());
    }
    let format = header.u8().map_err(|_| "missing format".to_owned())?;
    if format != CHECKPOINT_FORMAT {
        return Err(format!("unsupported checkpoint format {format}"));
    }
    header.u64().map_err(|_| "missing epoch".to_owned())
}

/// Parses one verified checkpoint entry frame into
/// `(key, version, compact payload)`.
fn checkpoint_entry(frame: &[u8]) -> Result<(String, u64, Vec<u8>), String> {
    let mut entry = Reader::new(frame);
    let parsed = (entry.str()?, entry.u64()?, entry.bytes()?);
    entry.done()?;
    Ok(parsed)
}

// --- Recovery --------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirEntryKind {
    Segment,
    Checkpoint,
}

/// Parses the durable directory into (kind, sequence) pairs.
fn list_dir(dir: &Path) -> Vec<(DirEntryKind, u64)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".log"))
            .and_then(|digits| digits.parse().ok())
        {
            found.push((DirEntryKind::Segment, seq));
        } else if let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".ckpt"))
            .and_then(|digits| digits.parse().ok())
        {
            found.push((DirEntryKind::Checkpoint, seq));
        }
    }
    found
}

/// Rebuilds `store` from the durable directory and opens a fresh WAL
/// segment for new appends. Called by the builder before the store is
/// shared, so direct shard access needs no coordination.
pub(crate) fn recover<S: Sketch>(
    store: &SketchStore<S>,
    dir: &Path,
    fsync: FsyncPolicy,
) -> Result<(Wal, RecoveryReport), StoreError> {
    let durability_error = |error: io::Error| StoreError::Durability(error.to_string());
    fs::create_dir_all(dir).map_err(durability_error)?;
    let mut report = RecoveryReport::default();

    let listing = list_dir(dir);
    let mut checkpoints: Vec<u64> = listing
        .iter()
        .filter(|(kind, _)| *kind == DirEntryKind::Checkpoint)
        .map(|&(_, seq)| seq)
        .collect();
    checkpoints.sort_unstable();

    // Load the newest checkpoint whose header parses; fall back to
    // older ones rather than losing everything to one bad file.
    let mut floor = 0u64;
    for &seq in checkpoints.iter().rev() {
        match load_checkpoint(store, &checkpoint_path(dir, seq), &mut report) {
            Ok(()) => {
                report.checkpoint_loaded = true;
                floor = seq;
                break;
            }
            Err(detail) => {
                report
                    .quarantine_details
                    .push(format!("checkpoint {seq}: {detail}"));
            }
        }
    }

    // Replay the tail segments in order.
    let mut segments: Vec<u64> = listing
        .iter()
        .filter(|(kind, _)| *kind == DirEntryKind::Segment)
        .map(|&(_, seq)| seq)
        .collect();
    segments.sort_unstable();
    let mut next_seq = floor.max(segments.last().map_or(0, |&s| s + 1));
    for &seq in &segments {
        if seq < floor {
            // Fully covered by the checkpoint; delete (also handles a
            // crash between checkpoint rename and segment deletion).
            let _ = fs::remove_file(segment_path(dir, seq));
            continue;
        }
        next_seq = next_seq.max(seq + 1);
        report.segments_scanned += 1;
        let path = segment_path(dir, seq);
        let bytes = fs::read(&path).map_err(durability_error)?;
        let last_segment = Some(seq) == segments.last().copied();
        let mut at = 0usize;
        loop {
            match frame::next(&bytes, at) {
                Frame::End => break,
                Frame::Torn => {
                    report.torn_tail = true;
                    report.dropped_bytes += (bytes.len() - at) as u64;
                    if last_segment {
                        // Truncate so the tail never resurfaces.
                        let _ = OpenOptions::new()
                            .write(true)
                            .open(&path)
                            .and_then(|file| file.set_len(at as u64));
                    }
                    break;
                }
                Frame::Corrupt(end) => {
                    report.records_quarantined += 1;
                    report
                        .quarantine_details
                        .push(format!("segment {seq} offset {at}: checksum mismatch"));
                    at = end;
                }
                Frame::Good(payload, end) => {
                    match decode_record(payload).map(|record| apply(store, record)) {
                        Ok(Ok(())) => report.records_replayed += 1,
                        Ok(Err(detail)) | Err(detail) => {
                            report.records_quarantined += 1;
                            report
                                .quarantine_details
                                .push(format!("segment {seq} offset {at}: {detail}"));
                        }
                    }
                    at = end;
                }
            }
        }
    }

    let wal = Wal::create(dir, next_seq, fsync).map_err(durability_error)?;
    Ok((wal, report))
}

/// Applies one replayed record. Recovery runs before the store's log is
/// installed, so the public write paths apply without logging; a
/// replayed record that raises nothing (its registers are already in
/// the checkpoint) stamps nothing.
fn apply<S: Sketch>(store: &SketchStore<S>, record: WalRecord) -> Result<(), String> {
    match record {
        WalRecord::Ingest { key, elements } => {
            store.ingest(&key, &elements);
            Ok(())
        }
        // Byte-ingest records, which stores no longer write but older
        // directories hold: `insert_bytes` gives no change signal, so
        // the write always counts.
        WalRecord::IngestBytes { key, elements } => {
            let Ok(_) = store.with_entry(
                &key,
                |sketch| {
                    for element in &elements {
                        sketch.insert_bytes(element);
                    }
                    Ok::<_, std::convert::Infallible>(true)
                },
                || {},
            );
            Ok(())
        }
        WalRecord::Put { key, payload } => {
            store.put_unlogged(&key, store.tier.try_decode(&payload)?);
            Ok(())
        }
        WalRecord::MergeIn { key, payload } => {
            let incoming = store.tier.try_decode(&payload)?;
            store
                .merge_in(&key, &incoming)
                .map(|_| ())
                .map_err(|error| error.to_string())
        }
        WalRecord::Remove { key } => {
            store.remove_unlogged(&key);
            Ok(())
        }
        WalRecord::Clear => {
            store.clear_unlogged();
            Ok(())
        }
    }
}

/// Loads one checkpoint file into the store (entries restore warm and
/// stay compressed until first touched). Entry-level corruption is
/// quarantined; a bad header fails the whole file so the caller can
/// fall back.
fn load_checkpoint<S: Sketch>(
    store: &SketchStore<S>,
    path: &Path,
    report: &mut RecoveryReport,
) -> Result<(), String> {
    let bytes = fs::read(path).map_err(|error| error.to_string())?;
    let epoch = checkpoint_epoch(&bytes)?;
    let mut at = CHECKPOINT_HEADER_BYTES;
    let mut max_version = 0u64;
    loop {
        match frame::next(&bytes, at) {
            Frame::End => break,
            Frame::Torn => {
                report.dropped_bytes += (bytes.len() - at) as u64;
                report
                    .quarantine_details
                    .push(format!("checkpoint offset {at}: torn entry"));
                break;
            }
            Frame::Corrupt(end) => {
                report.records_quarantined += 1;
                report
                    .quarantine_details
                    .push(format!("checkpoint offset {at}: checksum mismatch"));
                at = end;
            }
            Frame::Good(frame, end) => {
                match checkpoint_entry(frame) {
                    Ok((key, version, payload)) => {
                        max_version = max_version.max(version);
                        store.install_recovered_entry(key, version, payload);
                        report.checkpoint_entries += 1;
                    }
                    Err(detail) => {
                        report.records_quarantined += 1;
                        report
                            .quarantine_details
                            .push(format!("checkpoint offset {at}: {detail}"));
                    }
                }
                at = end;
            }
        }
    }
    // Restore the write counter so replicas' high-water marks stay
    // meaningful across the restart; versions in the file never exceed
    // the swept epoch, but guard anyway.
    store.set_write_epoch(epoch.max(max_version));
    Ok(())
}

impl<S: Sketch> SketchStore<S> {
    /// Installs one checkpoint entry as a warm slot with its original
    /// version stamp (recovery only — the store is not shared yet).
    pub(crate) fn install_recovered_entry(&self, key: String, version: u64, payload: Vec<u8>) {
        self.tier.account_insert_warm(payload.len());
        let index = self.shard_index(&key);
        let mut shard = self.shards()[index].write();
        shard.insert(
            key,
            Slot::new(TierSlot::Warm(payload.into_boxed_slice()), version, false),
        );
        self.mark_dirty(index);
    }
}

/// Assembles the durability runtime after recovery.
pub(crate) fn durability_runtime(
    wal: Wal,
    report: RecoveryReport,
    checkpoint_after_bytes: u64,
) -> Durability {
    Durability {
        gate: RwLock::new(()),
        wal: Mutex::new(wal),
        report,
        checkpoint_after_bytes,
        checkpointing: AtomicBool::new(false),
        wal_failures: AtomicUsize::new(0),
        last_wal_error: Mutex::new(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let records = [
            encode_ingest("k", &[1, 2, 3]),
            encode_ingest_bytes("k", &[b"ab".as_slice(), b"".as_slice()]),
            encode_put("p", &[9, 9, 9]),
            encode_merge_in("m", &[1]),
            encode_remove("r"),
            encode_clear(),
        ];
        let decoded: Vec<WalRecord> = records
            .iter()
            .map(|payload| decode_record(payload).expect("roundtrip"))
            .collect();
        assert_eq!(
            decoded[0],
            WalRecord::Ingest {
                key: "k".into(),
                elements: vec![1, 2, 3]
            }
        );
        assert_eq!(
            decoded[1],
            WalRecord::IngestBytes {
                key: "k".into(),
                elements: vec![b"ab".to_vec(), Vec::new()]
            }
        );
        assert_eq!(decoded[4], WalRecord::Remove { key: "r".into() });
        assert_eq!(decoded[5], WalRecord::Clear);
    }

    /// Stores no longer write byte-ingest records, but a directory
    /// written before still replays them.
    #[test]
    fn byte_ingest_records_still_replay() {
        use setsketch::{SetSketch2, SetSketchConfig};

        let dir = std::env::temp_dir().join(format!("sketch-wal-bytes-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let mut log = Vec::new();
        let record = encode_ingest_bytes("k", &[b"ab".as_slice(), b"cd".as_slice()]);
        frame::push(&mut log, &record).unwrap();
        fs::write(segment_path(&dir, 0), &log).unwrap();

        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let factory = move || SetSketch2::new(cfg, 2);
        let store = SketchStore::builder(factory).durable_dir(&dir).build();
        let report = store.recovery_report().unwrap();
        assert!(
            report.is_clean() && report.records_replayed == 1,
            "{report}"
        );
        let mut reference = factory();
        reference.insert_bytes(b"ab");
        reference.insert_bytes(b"cd");
        assert_eq!(store.get("k"), Some(reference));
        drop(store);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err(), "unknown tag");
        let mut truncated = encode_ingest("key", &[1, 2, 3]);
        truncated.pop();
        assert!(decode_record(&truncated).is_err());
        let mut trailing = encode_remove("key");
        trailing.push(0);
        assert!(decode_record(&trailing).is_err());
    }
}
