//! Crash-safe durability: a segment-rotated write-ahead log with
//! checkpoints, and the recovery machinery that rebuilds a store from
//! them after `kill -9`.
//!
//! With [`StoreBuilder::durable_dir`](crate::StoreBuilder::durable_dir)
//! set, every operation that changes the store appends one record to
//! the current WAL segment before the caller sees it returned. One
//! order serves every write: it applies under its shard write lock (or,
//! for clear, every shard's), and appends its record *before that lock
//! is released*. So each key's log order is its apply order, and no
//! reader and no later writer sees a register whose record is not yet
//! in the log. A write that changed nothing — an ingest or merge-in
//! that raised no register, the removal of a missing key — is a read:
//! no record, no version bump. Dropping it loses nothing — a sketch's
//! state is the register-wise maximum over its elements, so replay
//! without the no-op records rebuilds the same registers.
//!
//! Under [`FsyncPolicy::Always`] an acknowledged change is therefore on
//! disk before the caller sees it; that fsync runs under the shard
//! lock, so a no-op that relies on registers a concurrent write just
//! raised waits until that write's record is durable. Each record is
//! framed as `[u32 length][u32 CRC32][payload]` by [`crate::frame`],
//! which refuses a payload the scanner would not read back — so an
//! ingest batch is split into as many records as the frame limit needs,
//! and an oversize put/merge-in payload is a counted append failure.
//! Record and checkpoint fields are written and read by the same
//! module's field codec, the one the cluster's wire uses; a checkpoint
//! entry is a [`DeltaEntry`](crate::DeltaEntry) in its delta-page
//! encoding.
//!
//! Replay time is bounded by **checkpoints**: once the log grows past
//! the configured threshold, the store sweeps every slot's compact
//! payload (the same [`Sketch::compress`] codec the tiers and the wire
//! use) into `checkpoint-N.ckpt` — written to a temp file, fsynced and
//! atomically renamed — after which all WAL segments below `N` are
//! deleted. Recovery loads the newest checkpoint and replays only the
//! remaining tail. The sweep is fuzzy: it holds the log only to rotate
//! it, then one shard read lock at a time, so writers keep going while
//! a checkpoint runs (why that is sound is written at
//! `checkpoint_inner`).
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
use crate::frame::{
    self, put_bytes, put_entry, put_list, put_str, put_u32, put_u64, Frame, Reader,
};
use crate::store::{SketchStore, Slot};
use parking_lot::Mutex;
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
    put_list(&mut out, elements, |out, &element| put_u64(out, element));
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
    put_list(&mut out, elements, |out, element| put_bytes(out, element));
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

/// Decodes one record payload (the CRC has already been verified).
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut reader = Reader::new(payload);
    let record = match reader.u8()? {
        TAG_INGEST => WalRecord::Ingest {
            key: reader.string()?,
            elements: reader.list(8, Reader::u64)?,
        },
        TAG_INGEST_BYTES => WalRecord::IngestBytes {
            key: reader.string()?,
            elements: reader.list(4, Reader::bytes)?,
        },
        TAG_PUT => WalRecord::Put {
            key: reader.string()?,
            payload: reader.bytes()?,
        },
        TAG_MERGE_IN => WalRecord::MergeIn {
            key: reader.string()?,
            payload: reader.bytes()?,
        },
        TAG_REMOVE => WalRecord::Remove {
            key: reader.string()?,
        },
        TAG_CLEAR => WalRecord::Clear,
        tag => return Err(format!("unknown record tag {tag}")),
    };
    reader.finish()?;
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
/// fsync bookkeeping. Lives behind a mutex in [`Durability`]. Writers
/// append while holding the shard lock that applied the record, so the
/// lock order is shard → log: whoever holds the log mutex takes no
/// shard lock.
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

    /// Log bytes no checkpoint covers yet: appended since the last
    /// checkpoint's rotation (or since open).
    pub(crate) fn bytes_since_checkpoint(&self) -> u64 {
        self.bytes_since_checkpoint
    }
}

// --- Store-side runtime ----------------------------------------------

/// Per-store durability state, present when the builder set a durable
/// directory.
pub(crate) struct Durability {
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

    /// Log bytes appended since the last checkpoint rotated the log
    /// (records appended while it ran count); `None` for non-durable
    /// stores.
    pub fn wal_bytes_since_checkpoint(&self) -> Option<u64> {
        self.durability
            .as_ref()
            .map(|d| d.wal.lock().bytes_since_checkpoint())
    }

    /// Appends a write's record to the log — the one append site. Every
    /// write that changed the store calls it while still holding the
    /// shard write lock (or locks) that applied the change, so each
    /// key's log order is its apply order. A failure is counted and the
    /// write stands un-logged. Non-durable stores, and a store being
    /// recovered (its log is installed only afterwards), never build the
    /// record. Call [`checkpoint_if_due`](Self::checkpoint_if_due) once
    /// the locks are released.
    pub(crate) fn log(&self, record: impl FnOnce() -> Vec<u8>) {
        let Some(durability) = self.durability.as_ref() else {
            return;
        };
        if let Err(error) = durability.wal.lock().append(&record()) {
            durability.wal_failures.fetch_add(1, Ordering::Relaxed);
            *durability.last_wal_error.lock() = Some(error.to_string());
        }
    }

    /// Cuts a checkpoint once the log has grown past the threshold.
    /// Writers call it after a logged write, with no shard lock held:
    /// the sweep takes them.
    pub(crate) fn checkpoint_if_due(&self) {
        let Some(durability) = self.durability.as_ref() else {
            return;
        };
        if durability.wal.lock().bytes_since_checkpoint() >= durability.checkpoint_after_bytes {
            // Best-effort: a failed checkpoint only delays log
            // truncation; the next write retries.
            let _ = self.checkpoint();
        }
    }

    /// Cuts a checkpoint now: sweeps every slot's compact payload into
    /// a new checkpoint file and deletes the WAL segments it covers.
    /// Writers keep going while it runs, except on the one shard being
    /// swept. No-op on non-durable stores
    /// and when another thread is already checkpointing.
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
        // The log mutex is held across the rotation and the epoch read
        // only. Writers take it under their shard lock, so holding it
        // into the sweep would invert the shard → log order.
        let (seq, covered, dir, epoch) = {
            let mut wal = durability.wal.lock();
            wal.rotate()?;
            let epoch = self.write_epoch_load();
            (wal.seq, wal.bytes_since_checkpoint, wal.dir.clone(), epoch)
        };

        // The sweep is fuzzy — writers run while it does — and still
        // loses nothing:
        // * every record in a segment below `seq` was appended under
        //   its key's shard lock after the write applied, so the sweep,
        //   which takes that lock after the rotation, sees it applied;
        // * every later record replays onto whatever state the sweep
        //   caught. Each write either joins (ingest and merge-in: a
        //   register-wise max, idempotent and commutative) or resets
        //   (put, remove, clear), so replaying the suffix from any
        //   state between a key's pre- and post-image ends in the same
        //   state;
        // * a swept version may exceed `epoch`; recovery restores the
        //   counter as max(header epoch, largest entry version).
        // Every new kind of write must join or reset to stay sound here.
        let tmp_path = dir.join(format!("checkpoint-{seq:010}.tmp"));
        let out = self.checkpoint_image(epoch);
        let mut file = File::create(&tmp_path)?;
        file.write_all(&out)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp_path, checkpoint_path(&dir, seq))?;
        sync_dir(&dir);
        // Records appended while the checkpoint ran are not covered.
        durability.wal.lock().bytes_since_checkpoint -= covered;

        // The checkpoint covers every segment below `seq`; delete them
        // and any superseded checkpoints (best-effort — stale files are
        // also cleaned during the next recovery).
        for (kind, old) in list_dir(&dir) {
            if old < seq {
                let _ = fs::remove_file(match kind {
                    DirEntryKind::Segment => segment_path(&dir, old),
                    DirEntryKind::Checkpoint => checkpoint_path(&dir, old),
                });
            }
        }
        Ok(())
    }

    /// Sweeps the store into a checkpoint image — header, then one
    /// framed `(key, version, compact payload)` entry per key — one
    /// shard read lock at a time, never promoting. Quarantined slots,
    /// unreadable spill records and entries over the frame limit are
    /// skipped: the image carries the keys a loader can read.
    #[cfg_attr(not(test), allow(clippy::unused_enumerate_index))]
    fn checkpoint_image(&self, epoch: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_FORMAT);
        put_u64(&mut out, epoch);
        let mut entry = Vec::new();
        for (_index, shard) in self.shards().iter().enumerate() {
            for (key, slot) in shard.read().iter() {
                let Some(payload) = self.slot_payload(&slot.state) else {
                    continue;
                };
                entry.clear();
                put_entry(&mut entry, key, slot.version, &payload);
                // An entry over the frame limit is left out.
                let _ = frame::push(&mut out, &entry);
            }
            #[cfg(test)]
            tests::after_swept_shard(_index);
        }
        out
    }
}

/// Parses a checkpoint image's header, returning the write epoch it
/// records; entries start at [`CHECKPOINT_HEADER_BYTES`].
fn checkpoint_epoch(bytes: &[u8]) -> Result<u64, String> {
    let mut header = Reader::new(bytes);
    if header.u32()? != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic".to_owned());
    }
    let format = header.u8()?;
    if format != CHECKPOINT_FORMAT {
        return Err(format!("unsupported checkpoint format {format}"));
    }
    Ok(header.u64()?)
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

/// Applies one replayed record through the public write paths.
/// Recovery runs before the builder installs the store's log, so they
/// apply without logging; a replayed record that raises nothing (its
/// registers are already in the checkpoint) stamps nothing.
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
                Vec::new,
            );
            Ok(())
        }
        WalRecord::Put { key, payload } => {
            store.put(&key, store.tier.try_decode(&payload)?);
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
            store.remove(&key);
            Ok(())
        }
        WalRecord::Clear => {
            store.clear();
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
                // Each entry frame holds exactly one entry.
                let mut reader = Reader::new(frame);
                match reader
                    .entry()
                    .and_then(|entry| reader.finish().map(|()| entry))
                {
                    Ok(entry) => {
                        max_version = max_version.max(entry.version);
                        store.install_recovered_entry(entry.key, entry.version, entry.payload);
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
        let index = self.shard_index(&key);
        let mut shard = self.shards()[index].write();
        self.insert_slot(&mut shard, key, Slot::warm(payload, version));
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
    use std::cell::RefCell;

    /// Called with the index of the shard the sweep just finished.
    type SweepHook = Box<dyn FnMut(usize)>;

    thread_local! {
        /// Runs on the checkpointing thread after the sweep finished a
        /// shard, with no lock held: the pause point of
        /// [`writes_during_a_paused_sweep_recover_bit_for_bit`].
        static AFTER_SWEPT_SHARD: RefCell<Option<SweepHook>> = const { RefCell::new(None) };
    }

    /// Called by the checkpoint sweep once shard `index` is swept.
    pub(super) fn after_swept_shard(index: usize) {
        AFTER_SWEPT_SHARD.with(|hook| {
            if let Some(hook) = hook.borrow_mut().as_mut() {
                hook(index);
            }
        });
    }

    /// The checkpoint sweep stops no writer, and loses nothing to one:
    /// while the sweep is paused after shard `i`, a writer thread runs
    /// ingest, put, remove, merge-in and (in half the runs) clear on
    /// keys of shards already swept and not yet swept. For every `i`
    /// the store, dropped without another checkpoint, recovers every
    /// key's registers bit for bit, and the log still counts the
    /// records appended during the pause.
    #[test]
    fn writes_during_a_paused_sweep_recover_bit_for_bit() {
        use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};

        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        paused_sweep_loses_nothing("ss1", move || SetSketch1::new(cfg, 3));
        paused_sweep_loses_nothing("ss2", move || SetSketch2::new(cfg, 3));
    }

    fn paused_sweep_loses_nothing<S>(
        tag: &str,
        factory: impl Fn() -> S + Clone + Send + Sync + 'static,
    ) where
        S: Sketch + PartialEq + std::fmt::Debug + Send + Sync,
    {
        use std::sync::mpsc;

        const SHARDS: usize = 4;
        let sketch_of = |elements: std::ops::Range<u64>| {
            let mut sketch = factory();
            sketch.insert_batch(&elements.collect::<Vec<_>>());
            sketch
        };
        for pause in 0..SHARDS {
            for clear in [false, true] {
                let dir = std::env::temp_dir().join(format!(
                    "sketch-wal-pause-{tag}-{}-{pause}-{clear}",
                    std::process::id()
                ));
                let _ = fs::remove_dir_all(&dir);
                let build = |dir: Option<&Path>| {
                    let builder = SketchStore::builder(factory.clone()).shards(SHARDS);
                    match dir {
                        Some(dir) => builder.durable_dir(dir).build(),
                        None => builder.build(),
                    }
                };
                let (store, model) = (build(Some(&dir)), build(None));
                // Four keys per shard: ingest, put, remove and merge-in
                // targets.
                let mut targets: Vec<Vec<String>> = vec![Vec::new(); SHARDS];
                for i in 0.. {
                    let key = format!("k{i}");
                    let shard = &mut targets[store.shard_index(&key)];
                    if shard.len() < 4 {
                        shard.push(key);
                    }
                    if targets.iter().all(|keys| keys.len() == 4) {
                        break;
                    }
                }
                for (i, key) in targets.iter().flatten().enumerate() {
                    let start = 1_000 * i as u64;
                    for target in [&store, &model] {
                        target.ingest(key, &(start..start + 40).collect::<Vec<_>>());
                    }
                }

                let (go, wait_go) = mpsc::channel::<()>();
                let (done, wait_done) = mpsc::channel::<()>();
                AFTER_SWEPT_SHARD.with(|hook| {
                    *hook.borrow_mut() = Some(Box::new(move |index| {
                        if index == pause {
                            go.send(()).unwrap();
                            wait_done.recv().unwrap();
                        }
                    }))
                });
                let (store_ref, model_ref, targets_ref) = (&store, &model, &targets);
                let appended = std::thread::scope(|scope| {
                    let writer = scope.spawn(move || {
                        wait_go.recv().unwrap();
                        let before = store_ref.wal_bytes_since_checkpoint().unwrap();
                        for target in [store_ref, model_ref] {
                            for (s, keys) in targets_ref.iter().enumerate() {
                                let fresh = 1_000_000 + 100 * s as u64;
                                let elements: Vec<u64> = (fresh..fresh + 20).collect();
                                target.ingest(&keys[0], &elements);
                                target.put(&keys[1], sketch_of(fresh + 20..fresh + 50));
                                target.remove(&keys[2]);
                                target
                                    .merge_in(&keys[3], &sketch_of(fresh + 50..fresh + 70))
                                    .unwrap();
                            }
                            if clear {
                                target.clear();
                                for (s, keys) in targets_ref.iter().enumerate() {
                                    let fresh = 2_000_000 + 100 * s as u64;
                                    target.ingest(&keys[0], &[fresh, fresh + 1]);
                                    target.put(&keys[1], sketch_of(fresh + 2..fresh + 9));
                                }
                            }
                        }
                        done.send(()).unwrap();
                        store_ref.wal_bytes_since_checkpoint().unwrap() - before
                    });
                    store_ref.checkpoint().unwrap();
                    // Drops the hook's channel ends, so a sweep that
                    // never reached the pause fails the writer instead
                    // of hanging it.
                    AFTER_SWEPT_SHARD.with(|hook| hook.borrow_mut().take());
                    writer.join().expect("writer ran during the pause")
                });
                assert!(appended > 0, "pause {pause}: the writer logged nothing");
                assert_eq!(
                    store.wal_bytes_since_checkpoint(),
                    Some(appended),
                    "pause {pause}, clear {clear}: the pause's records count toward the next checkpoint"
                );

                drop(store);
                let recovered = build(Some(&dir));
                let report = recovered.recovery_report().unwrap();
                assert!(
                    report.is_clean() && report.checkpoint_loaded && report.records_replayed > 0,
                    "pause {pause}, clear {clear}: {report}"
                );
                assert_eq!(
                    recovered.keys(),
                    model.keys(),
                    "pause {pause}, clear {clear}"
                );
                for key in model.keys() {
                    assert_eq!(
                        recovered.get(&key),
                        model.get(&key),
                        "pause {pause}, clear {clear}: {key}"
                    );
                }
                drop(recovered);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

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
