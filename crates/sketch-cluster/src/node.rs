//! One replica: a [`SketchStore`] plus the replication state machine.
//!
//! A [`ClusterNode`] answers protocol requests ([`ClusterNode::handle`])
//! and *pulls* deltas from its peers ([`ClusterNode::sync_with`]):
//!
//! * each node tracks, per peer, the **high-water version** it has
//!   applied from that peer's write counter;
//! * a sync round asks every peer for "keys whose version moved past my
//!   high-water mark" and union-merges the answers into the local
//!   store — versions only advance locally when registers actually
//!   change, so a mesh of mutually syncing replicas quiesces once
//!   everyone holds everything;
//! * a periodic **anti-entropy** pull re-fetches one peer's *full*
//!   state (high-water 0), healing whatever individual delta exchanges
//!   lost to drops, crashes or partitions.
//!
//! The state machine performs no I/O of its own: every exchange goes
//! through a caller-supplied [`Transport`], so the same node code runs
//! over real TCP sockets, the deterministic in-memory network, or the
//! fault-injecting wrapper — which is what makes convergence and
//! partition tests exact instead of timing-dependent.

use crate::bootstrap::{BootstrapReport, MAX_SNAPSHOT_CHUNK_BYTES};
use crate::error::ClusterError;
use crate::transport::Transport;
use crate::wire::{ErrorCode, Message, NodeId, WireEntry, WireNeighbor};
use parking_lot::Mutex;
use sketch_core::{
    BatchInsert, CardinalityEstimator, CompactSketch, JointEstimator, Mergeable, Signature,
};
use sketch_math::crc32;
use sketch_store::{QueryOptions, SketchStore, StoreError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The trait bundle a sketch family needs to serve in a cluster:
/// batched recording, union merging, joint + cardinality estimation,
/// register signatures (similarity queries), a compact wire codec, and
/// value semantics. Implemented automatically for every type with the
/// parts — all eight families in this workspace qualify.
pub trait ClusterSketch:
    BatchInsert
    + Mergeable
    + JointEstimator
    + CardinalityEstimator
    + Signature
    + CompactSketch
    + Clone
    + PartialEq
    + Send
    + Sync
    + 'static
{
}

impl<T> ClusterSketch for T where
    T: BatchInsert
        + Mergeable
        + JointEstimator
        + CardinalityEstimator
        + Signature
        + CompactSketch
        + Clone
        + PartialEq
        + Send
        + Sync
        + 'static
{
}

/// What one delta exchange with a peer accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// The peer the delta was pulled from.
    pub peer: NodeId,
    /// Keys the peer shipped (entries in the delta frame).
    pub keys_received: usize,
    /// Keys whose local registers actually changed when merged.
    pub keys_changed: usize,
    /// The peer's write-counter value the sweep covered — the new
    /// high-water mark.
    pub up_to: u64,
}

/// How often a gossip tick upgrades one peer's delta pull to a full
/// anti-entropy pull (every N-th tick, rotating through peers).
pub const DEFAULT_FULL_SYNC_EVERY: u64 = 8;

/// How many snapshot exports a donor keeps alive at once. Two is
/// enough for one in-flight bootstrap plus one straggler resuming a
/// superseded stream; anything older re-exports on demand.
const MAX_CACHED_EXPORTS: usize = 2;

/// One cached checkpoint image being streamed to bootstrappers. The
/// image is immutable once exported; chunks are sliced out of it on
/// demand, so a resume after transport failure re-reads the same
/// bytes.
struct SnapshotExport {
    id: u64,
    epoch: u64,
    image: Arc<[u8]>,
}

/// One replica of the cluster: a node id, the local store, and the
/// per-peer replication bookkeeping.
pub struct ClusterNode<S> {
    id: NodeId,
    peers: Vec<NodeId>,
    store: SketchStore<S>,
    /// Decoding prototype for compact payloads shipped by peers (same
    /// factory configuration cluster-wide).
    prototype: S,
    /// Per-peer high-water mark: the highest write-counter value of
    /// that peer whose keys have all been applied here.
    high_water: Mutex<HashMap<NodeId, u64>>,
    /// Gossip tick counter; drives the anti-entropy rotation.
    ticks: AtomicU64,
    full_sync_every: u64,
    /// Donor side of node bootstrap: cached checkpoint images being
    /// streamed out, newest last.
    exports: Mutex<Vec<SnapshotExport>>,
    /// Export id allocator (ids start at 1; 0 on the wire means
    /// "start a fresh stream").
    export_ids: AtomicU64,
    /// The report of the last completed bootstrap of *this* node, if
    /// any — kept for operators ([`last_bootstrap`](Self::last_bootstrap)).
    last_bootstrap: Mutex<Option<BootstrapReport>>,
}

impl<S: ClusterSketch> ClusterNode<S> {
    /// Wraps a store as cluster node `id` with the given peer set
    /// (`id` itself is filtered out defensively).
    ///
    /// The store's factory fixes the sketch configuration and hash
    /// seed; **every node of one cluster must be built from the same
    /// factory**, or shipped payloads will be rejected as
    /// incompatible.
    pub fn new(id: NodeId, peers: impl IntoIterator<Item = NodeId>, store: SketchStore<S>) -> Self {
        let prototype = store.empty_sketch();
        let peers: Vec<NodeId> = peers.into_iter().filter(|&peer| peer != id).collect();
        ClusterNode {
            id,
            peers,
            store,
            prototype,
            high_water: Mutex::new(HashMap::new()),
            ticks: AtomicU64::new(0),
            full_sync_every: DEFAULT_FULL_SYNC_EVERY,
            exports: Mutex::new(Vec::new()),
            export_ids: AtomicU64::new(0),
            last_bootstrap: Mutex::new(None),
        }
    }

    /// Overrides how often a gossip tick runs a full anti-entropy pull
    /// (default [`DEFAULT_FULL_SYNC_EVERY`]; `0` disables them).
    pub fn full_sync_every(mut self, every: u64) -> Self {
        self.full_sync_every = every;
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The peers this node syncs from.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// The local store.
    pub fn store(&self) -> &SketchStore<S> {
        &self.store
    }

    /// The high-water mark currently held for `peer` (0 when no delta
    /// has been applied yet).
    pub fn high_water(&self, peer: NodeId) -> u64 {
        self.high_water.lock().get(&peer).copied().unwrap_or(0)
    }

    /// Answers one protocol request. Never panics on request content:
    /// malformed parameters and store failures come back as
    /// [`Message::Error`].
    pub fn handle(&self, request: Message) -> Message {
        match request {
            Message::DeltaRequest { after } => {
                let delta = self.store.delta_since(after);
                Message::Delta {
                    up_to: delta.up_to,
                    entries: delta
                        .entries
                        .into_iter()
                        .map(|entry| WireEntry {
                            key: entry.key,
                            version: entry.version,
                            payload: entry.payload,
                        })
                        .collect(),
                }
            }
            // A pushed delta (duplicated or relayed frame): merging is
            // idempotent, so applying it unconditionally is safe. No
            // high-water bookkeeping — only pulls advance marks.
            Message::Delta { entries, .. } => match self.apply_entries(&entries) {
                Ok(_) => Message::Ack,
                Err(error) => error_message(&error),
            },
            Message::Ingest { key, elements } => {
                self.store.ingest(&key, &elements);
                Message::Ack
            }
            Message::Cardinality { key } => match self.store.cardinality(&key) {
                Ok(value) => Message::Value {
                    bits: value.to_bits(),
                },
                Err(error) => store_error_message(&error),
            },
            Message::Jaccard { left, right } => match self.store.jaccard(&left, &right) {
                Ok(value) => Message::Value {
                    bits: value.to_bits(),
                },
                Err(error) => store_error_message(&error),
            },
            Message::SimilarKeys {
                key,
                k,
                threshold_bits,
            } => {
                let threshold = f64::from_bits(threshold_bits);
                if !(0.0..=1.0).contains(&threshold) {
                    return Message::Error {
                        code: ErrorCode::BadRequest,
                        detail: format!("similarity threshold {threshold} outside [0, 1]"),
                    };
                }
                let options = QueryOptions::default();
                match self
                    .store
                    .similar_keys_with(&key, k as usize, threshold, &options)
                {
                    Ok(neighbors) => Message::Neighbors {
                        items: neighbors
                            .into_iter()
                            .map(|n| WireNeighbor::new(n.key, n.quantities.jaccard))
                            .collect(),
                    },
                    Err(error) => store_error_message(&error),
                }
            }
            Message::UnionSketch { keys } => {
                let present: Vec<&str> = keys
                    .iter()
                    .map(String::as_str)
                    .filter(|key| self.store.contains_key(key))
                    .collect();
                if present.is_empty() {
                    return Message::Error {
                        code: ErrorCode::KeyNotFound,
                        detail: "none of the requested keys is present".to_owned(),
                    };
                }
                match self.store.merge_keys(&present) {
                    Ok(merged) => Message::Payload {
                        bytes: merged.compress(),
                    },
                    Err(error) => store_error_message(&error),
                }
            }
            Message::SnapshotRequest {
                snapshot_id,
                chunk,
                chunk_bytes,
                max_lag,
            } => self.serve_snapshot_chunk(snapshot_id, chunk, chunk_bytes, max_lag),
            // Shutdown is transport-level: the serving loop intercepts
            // it; a node reached in-process just acknowledges.
            Message::Shutdown => Message::Ack,
            other => Message::Error {
                code: ErrorCode::Unsupported,
                detail: format!("not a request message: {other:?}"),
            },
        }
    }

    /// Merges a batch of shipped entries into the local store.
    /// Returns `(keys_received, keys_changed)`.
    fn apply_entries(&self, entries: &[WireEntry]) -> Result<(usize, usize), ClusterError> {
        let mut changed = 0;
        for entry in entries {
            let sketch = S::decompress(&self.prototype, &entry.payload)
                .map_err(|error| ClusterError::BadPayload(error.to_string()))?;
            if self.store.merge_in(&entry.key, &sketch)? {
                changed += 1;
            }
        }
        Ok((entries.len(), changed))
    }

    /// Pulls one delta from `peer` over `transport`: asks for
    /// everything past the current high-water mark, merges the
    /// entries, and advances the mark (monotonically — a reordered
    /// stale response can never regress it).
    pub fn sync_with(
        &self,
        transport: &impl Transport,
        peer: NodeId,
    ) -> Result<SyncReport, ClusterError> {
        self.pull_from(transport, peer, self.high_water(peer))
    }

    /// Anti-entropy pull: fetches `peer`'s **full** state regardless
    /// of the high-water mark. Heals any divergence left behind by
    /// dropped frames or partitions, at full-transfer cost.
    pub fn full_sync_with(
        &self,
        transport: &impl Transport,
        peer: NodeId,
    ) -> Result<SyncReport, ClusterError> {
        self.pull_from(transport, peer, 0)
    }

    fn pull_from(
        &self,
        transport: &impl Transport,
        peer: NodeId,
        after: u64,
    ) -> Result<SyncReport, ClusterError> {
        let response = transport.request(peer, &Message::DeltaRequest { after })?;
        match response {
            Message::Delta { up_to, entries } => {
                let (keys_received, keys_changed) = self.apply_entries(&entries)?;
                let mut marks = self.high_water.lock();
                let mark = marks.entry(peer).or_insert(0);
                *mark = (*mark).max(up_to);
                let up_to = *mark;
                drop(marks);
                Ok(SyncReport {
                    peer,
                    keys_received,
                    keys_changed,
                    up_to,
                })
            }
            Message::Error { code, detail } => Err(ClusterError::from_remote(code, detail)),
            other => Err(ClusterError::Protocol(format!(
                "expected Delta, got {other:?}"
            ))),
        }
    }

    /// One delta pull from every peer. Per-peer failures are returned,
    /// not raised — a down peer must not stop the others from syncing.
    pub fn sync_round(
        &self,
        transport: &impl Transport,
    ) -> Vec<(NodeId, Result<SyncReport, ClusterError>)> {
        self.peers
            .iter()
            .map(|&peer| (peer, self.sync_with(transport, peer)))
            .collect()
    }

    /// One gossip tick: a delta pull from every peer, plus — every
    /// [`full_sync_every`](Self::full_sync_every)-th tick — a full
    /// anti-entropy pull from one peer, rotating through the peer set.
    /// This is what the TCP server's gossip thread runs on its timer;
    /// tests drive it directly for determinism.
    pub fn gossip_tick(
        &self,
        transport: &impl Transport,
    ) -> Vec<(NodeId, Result<SyncReport, ClusterError>)> {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut reports = self.sync_round(transport);
        if self.full_sync_every > 0 && !self.peers.is_empty() && tick % self.full_sync_every == 0 {
            let peer = self.peers[(tick / self.full_sync_every) as usize % self.peers.len()];
            reports.push((peer, self.full_sync_with(transport, peer)));
        }
        reports
    }

    /// The report of the last bootstrap this node completed, if any.
    pub fn last_bootstrap(&self) -> Option<BootstrapReport> {
        self.last_bootstrap.lock().clone()
    }

    pub(crate) fn set_last_bootstrap(&self, report: BootstrapReport) {
        *self.last_bootstrap.lock() = Some(report);
    }

    /// Advances the high-water mark held for `peer` to at least
    /// `up_to` (monotonic — a stale value can never regress it).
    pub(crate) fn advance_high_water(&self, peer: NodeId, up_to: u64) {
        let mut marks = self.high_water.lock();
        let mark = marks.entry(peer).or_insert(0);
        *mark = (*mark).max(up_to);
    }

    /// Donor side of node bootstrap: serves one CRC-framed chunk of a
    /// checkpoint image.
    ///
    /// `snapshot_id == 0` (or an id this donor no longer caches)
    /// starts a fresh export and answers with **chunk 0** of the new
    /// stream regardless of the requested index — the requester
    /// detects the id change and restarts accumulation, so a donor
    /// restart mid-stream cannot splice two different images together.
    fn serve_snapshot_chunk(
        &self,
        snapshot_id: u64,
        chunk: u32,
        chunk_bytes: u32,
        max_lag: u64,
    ) -> Message {
        let chunk_len = (chunk_bytes as usize).min(MAX_SNAPSHOT_CHUNK_BYTES);
        if chunk_len == 0 {
            return Message::Error {
                code: ErrorCode::BadRequest,
                detail: "snapshot chunk_bytes must be at least 1".to_owned(),
            };
        }
        let mut exports = self.exports.lock();
        let cached = (snapshot_id != 0)
            .then(|| exports.iter().find(|export| export.id == snapshot_id))
            .flatten();
        let (id, epoch, image, chunk) = match cached {
            Some(export) => (export.id, export.epoch, Arc::clone(&export.image), chunk),
            None => {
                // Unknown stream: refuse if there is nothing to ship,
                // otherwise export fresh and restart at chunk 0.
                if self.store.is_empty() {
                    return Message::Error {
                        code: ErrorCode::Unavailable,
                        detail: "nothing to bootstrap from: store is empty".to_owned(),
                    };
                }
                let exported = self.store.export_checkpoint(max_lag);
                let id = self.export_ids.fetch_add(1, Ordering::Relaxed) + 1;
                let image: Arc<[u8]> = exported.bytes.into();
                exports.push(SnapshotExport {
                    id,
                    epoch: exported.write_epoch,
                    image: Arc::clone(&image),
                });
                if exports.len() > MAX_CACHED_EXPORTS {
                    exports.remove(0);
                }
                (id, exported.write_epoch, image, 0)
            }
        };
        drop(exports);
        let total_chunks = image.len().div_ceil(chunk_len).max(1) as u32;
        if chunk >= total_chunks {
            return Message::Error {
                code: ErrorCode::BadRequest,
                detail: format!("snapshot chunk {chunk} out of range (total {total_chunks})"),
            };
        }
        let start = chunk as usize * chunk_len;
        let end = (start + chunk_len).min(image.len());
        let data = image[start..end].to_vec();
        Message::SnapshotChunk {
            snapshot_id: id,
            epoch,
            total_bytes: image.len() as u64,
            chunk,
            total_chunks,
            crc: crc32(&data),
            data,
        }
    }
}

/// Encodes a [`ClusterError`] as a wire error frame.
fn error_message(error: &ClusterError) -> Message {
    let (code, detail) = match error {
        ClusterError::KeyNotFound(key) => (ErrorCode::KeyNotFound, key.clone()),
        ClusterError::Incompatible(detail) => (ErrorCode::Incompatible, detail.clone()),
        ClusterError::BadPayload(detail) => (ErrorCode::BadPayload, detail.clone()),
        other => (ErrorCode::Unsupported, other.to_string()),
    };
    Message::Error { code, detail }
}

/// Encodes a [`StoreError`] as a wire error frame.
fn store_error_message(error: &StoreError) -> Message {
    let (code, detail) = match error {
        StoreError::KeyNotFound(key) => (ErrorCode::KeyNotFound, key.clone()),
        StoreError::Incompatible(source) => (ErrorCode::Incompatible, source.to_string()),
        other => (ErrorCode::BadRequest, other.to_string()),
    };
    Message::Error { code, detail }
}
