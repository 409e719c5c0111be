//! One replica: a [`SketchStore`] plus the replication state machine.
//!
//! A [`ClusterNode`] answers protocol requests ([`ClusterNode::handle`])
//! and *pulls* deltas from its peers ([`ClusterNode::sync_with`]):
//!
//! * each node tracks, per peer, the **high-water version** it has
//!   applied from that peer's write counter;
//! * a pull asks a peer for "keys whose version moved past my
//!   high-water mark" and union-merges the answers into the local
//!   store, one bounded page at a time until the peer says that was
//!   all. Every page advances the mark, so the mark is also the resume
//!   cursor: whatever a failed pull had applied stays applied, and the
//!   next pull asks from there. Versions only advance locally when
//!   registers actually change, so a mesh of mutually syncing replicas
//!   quiesces once everyone holds everything;
//! * a periodic **anti-entropy** pull re-fetches one peer's *full*
//!   state (from version 0), healing whatever individual delta
//!   exchanges lost to drops, crashes or partitions;
//! * a node with an empty store does the same full pull from **one**
//!   peer — the first of its peer list that delivers — and adopts the
//!   others' current marks ([`ClusterNode::bootstrap`]) instead of
//!   pulling everything from everyone.
//!
//! The state machine performs no I/O of its own: every exchange goes
//! through a caller-supplied [`Transport`], so the same node code runs
//! over real TCP sockets, the deterministic in-memory network, or the
//! fault-injecting wrapper — which is what makes convergence and
//! partition tests exact instead of timing-dependent.

use crate::bootstrap::BootstrapReport;
use crate::error::ClusterError;
use crate::transport::Transport;
use crate::wire::{DeltaEntry, ErrorCode, Message, NodeId, WireNeighbor};
use parking_lot::Mutex;
use sketch_core::Sketch;
use sketch_store::{QueryOptions, SketchStore, StoreError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one delta pull from a peer accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// The peer the delta was pulled from.
    pub peer: NodeId,
    /// Pages the pull took (request/response exchanges that shipped
    /// state); 1 unless the peer was more than a page budget ahead.
    pub pages: usize,
    /// Keys the peer shipped (entries across all pages).
    pub keys_received: usize,
    /// Keys whose local registers actually changed when merged.
    pub keys_changed: usize,
    /// Compact payload bytes the peer shipped.
    pub payload_bytes: u64,
    /// The high-water mark held for the peer after the pull.
    pub up_to: u64,
}

/// How often a gossip tick upgrades one peer's delta pull to a full
/// anti-entropy pull (every N-th tick, rotating through peers).
const FULL_SYNC_EVERY: u64 = 8;

/// Most bytes of entries one [`Message::Delta`] page carries (it may
/// run over by one entry). Small against the wire's frame limit and
/// against a node's memory, large enough that a pull of a few thousand
/// sketches is still one exchange.
const PAGE_BUDGET_BYTES: u32 = 4 << 20;

/// Consecutive replies a pull tolerates that move its cursor nowhere:
/// answers to some other request (a duplicated or reordered frame), or
/// pages that cover nothing yet.
const MAX_STALLED_PAGES: u32 = 4;

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
    /// The report of the last completed bootstrap of *this* node, if
    /// any — kept for operators ([`last_bootstrap`](Self::last_bootstrap)).
    last_bootstrap: Mutex<Option<BootstrapReport>>,
}

impl<S: Sketch> ClusterNode<S> {
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
            last_bootstrap: Mutex::new(None),
        }
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
            Message::DeltaRequest { after, page_bytes } => {
                let delta = self
                    .store
                    .delta_since(after, page_bytes.min(PAGE_BUDGET_BYTES) as usize);
                Message::Delta {
                    after,
                    up_to: delta.up_to,
                    complete: delta.complete,
                    entries: delta.entries,
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
    /// Returns how many changed local registers.
    fn apply_entries(&self, entries: &[DeltaEntry]) -> Result<usize, ClusterError> {
        let mut changed = 0;
        for entry in entries {
            let sketch = S::decompress(&self.prototype, &entry.payload)
                .map_err(|error| ClusterError::BadPayload(error.to_string()))?;
            if self.store.merge_in(&entry.key, &sketch)? {
                changed += 1;
            }
        }
        Ok(changed)
    }

    /// Pulls a delta from `peer` over `transport`: asks for
    /// everything past the current high-water mark, page by page,
    /// merges the entries, and advances the mark with every page
    /// (monotonically — a reordered stale response can never regress
    /// it). A pull that fails part-way keeps what it applied; the next
    /// one resumes from the mark.
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

    /// The one path replica state takes between nodes: requests pages
    /// past `after` until the peer reports the last one.
    fn pull_from(
        &self,
        transport: &impl Transport,
        peer: NodeId,
        after: u64,
    ) -> Result<SyncReport, ClusterError> {
        let mut cursor = after;
        let mut stalled = 0;
        let mut report = SyncReport {
            peer,
            pages: 0,
            keys_received: 0,
            keys_changed: 0,
            payload_bytes: 0,
            up_to: 0,
        };
        loop {
            let request = Message::DeltaRequest {
                after: cursor,
                page_bytes: PAGE_BUDGET_BYTES,
            };
            let reached = match transport.request(peer, &request)? {
                Message::Delta {
                    after,
                    up_to,
                    complete,
                    entries,
                } if after == cursor => {
                    report.pages += 1;
                    report.keys_received += entries.len();
                    report.keys_changed += self.apply_entries(&entries)?;
                    report.payload_bytes += entries
                        .iter()
                        .map(|entry| entry.payload.len() as u64)
                        .sum::<u64>();
                    self.advance_high_water(peer, up_to);
                    if complete {
                        break;
                    }
                    up_to
                }
                // The answer to some other request — a duplicated or
                // reordered frame. Its `up_to` is relative to a cursor
                // that is not ours, so nothing is learnt from it.
                Message::Delta { .. } => cursor,
                Message::Error { code, detail } => {
                    return Err(ClusterError::from_remote(code, detail))
                }
                other => {
                    return Err(ClusterError::Protocol(format!(
                        "expected Delta, got {other:?}"
                    )))
                }
            };
            if reached > cursor {
                cursor = reached;
                stalled = 0;
            } else {
                // Ask again from the same cursor. (A genuine page can
                // stall too: one whose keys were all stamped during the
                // peer's sweep covers nothing until its next sweep.)
                stalled += 1;
                if stalled > MAX_STALLED_PAGES {
                    return Err(ClusterError::Protocol(format!(
                        "node {peer} sent {stalled} replies in a row that reach no further than {cursor}"
                    )));
                }
            }
        }
        report.up_to = self.high_water(peer);
        Ok(report)
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
    /// eighth tick — a full anti-entropy pull from one peer, rotating
    /// through the peer set.
    /// A node whose store is empty first catches up from one donor
    /// ([`bootstrap`](Self::bootstrap), peers in order), so the
    /// pulls that follow start from fresh marks instead of shipping
    /// every peer's whole state; if no donor delivers, they do that
    /// anyway.
    /// This is what the TCP server's gossip thread runs on its timer;
    /// tests drive it directly for determinism.
    pub fn gossip_tick(
        &self,
        transport: &impl Transport,
    ) -> Vec<(NodeId, Result<SyncReport, ClusterError>)> {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let caught_up = self.needs_bootstrap() && self.bootstrap(transport).is_ok();
        let mut reports = self.sync_round(transport);
        // A node that just pulled one peer's whole state has nothing
        // for a second full pull to repair yet.
        if !caught_up && !self.peers.is_empty() && tick % FULL_SYNC_EVERY == 0 {
            let peer = self.peers[(tick / FULL_SYNC_EVERY) as usize % self.peers.len()];
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
