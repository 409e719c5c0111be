//! Replicated sketch-store service: wire protocol, paged delta sync,
//! anti-entropy.
//!
//! This crate turns a set of [`sketch_store::SketchStore`]s into one
//! logical, eventually-consistent service. It leans entirely on what
//! makes sketches special: **union merge is commutative, associative
//! and idempotent**, so replication needs no coordination, no
//! consensus, and no tombstones — ship registers, merge on receipt,
//! and every delivery order converges to the same state.
//!
//! The moving parts, bottom up:
//!
//! * [`wire`] — a length-prefixed binary frame protocol over plain
//!   byte streams. Compressed register payloads
//!   ([`ClusterSketch::compress`]) ride inside delta frames;
//!   decoding is hostile-input safe (lengths validated before any
//!   allocation, typed errors, no panics).
//! * [`HashRing`] — consistent-hash routing: each key's writes go to
//!   one home node, so ingest load spreads without coordination.
//! * [`ClusterNode`] — one replica: answers protocol requests over its
//!   store and *pulls* deltas from peers. Sync rides the store's
//!   per-key version stamps: each node remembers a per-peer high-water
//!   mark and asks only for keys that moved past it, so a quiescent
//!   cluster exchanges near-empty frames. Deltas travel as bounded,
//!   checksummed pages in version order, each advancing the mark, so a
//!   peer any number of bytes behind catches up without either side
//!   holding more than a page, and an interrupted pull resumes where
//!   it stopped. A rotating full pull (anti-entropy) heals whatever
//!   individual exchanges lose. This is the only path replica state
//!   takes between nodes.
//! * [`Transport`] — the seam that makes all of this testable: the
//!   same node code runs over [`TcpTransport`] sockets (persistent and
//!   pooled per peer, every one under connect/read/write deadlines —
//!   [`TcpTimeouts`]; a kept-alive socket found dead is redialed once,
//!   which idempotent insert and merge make safe), the deterministic
//!   in-process [`MemNetwork`], or a seeded [`FaultyTransport`] that
//!   drops, replays and partitions. [`TcpServer`] is the serving half:
//!   a worker per live connection, capped, with stalled and idle peers
//!   disconnected.
//! * [`Resilient`] — a transport wrapper adding bounded retries with
//!   jittered backoff and per-peer suspicion with half-open probes, so
//!   gossip skips a dead peer ([`ClusterError::Suspect`]) instead of
//!   re-spending its deadline budget on it every tick.
//! * **Bootstrap** — a node with *no* state (fresh machine, wiped
//!   disk) runs that same full pull against **one** healthy peer
//!   ([`ClusterNode::bootstrap`]; a gossiping node does it on its
//!   first tick) and adopts the other peers' current marks, instead of
//!   re-pulling full state from every peer. There is no separate
//!   transfer protocol: pages already applied stay applied, a donor
//!   that dies is abandoned for the next one, and delta sync carries
//!   on from the marks — the [`BootstrapReport`] says what happened.
//! * [`ClusterClient`] — routes writes by the ring and fans reads out
//!   across replicas (top-k similarity and union cardinality merge
//!   answers from every node); the `*_detailed` variants report
//!   [`FanOut::degraded`] when unreachable nodes were skipped.
//!
//! ```
//! use sketch_cluster::{ClusterClient, ClusterNode, HashRing, MemNetwork};
//! use sketch_store::SketchStore;
//! use std::sync::Arc;
//!
//! # use setsketch::{SetSketch1, SetSketchConfig};
//! // Every node shares one factory (same parameters + seed).
//! let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
//! let factory = move || SketchStore::builder(move || SetSketch1::new(config, 1)).build();
//! let ids = [0u32, 1, 2];
//! let net = Arc::new(MemNetwork::new());
//! let nodes: Vec<_> = ids
//!     .iter()
//!     .map(|&id| Arc::new(ClusterNode::new(id, ids, factory())))
//!     .collect();
//! for node in &nodes {
//!     net.register(Arc::clone(node));
//! }
//!
//! // Route writes through the ring, then let the replicas sync.
//! let client = ClusterClient::new(
//!     Arc::clone(&net),
//!     HashRing::new(&ids),
//!     nodes[0].store().empty_sketch(),
//! );
//! for user in 0..3000u64 {
//!     client.ingest("active-users", &[user]).unwrap();
//! }
//! for node in &nodes {
//!     node.sync_round(&net);
//! }
//!
//! // Now any replica answers.
//! for node in &nodes {
//!     let estimate = node.store().cardinality("active-users").unwrap();
//!     assert!((estimate / 3000.0 - 1.0).abs() < 0.2);
//! }
//! ```

mod bootstrap;
mod client;
mod error;
mod fault;
mod health;
mod node;
mod ring;
mod tcp;
mod transport;
pub mod wire;

pub use bootstrap::BootstrapReport;
pub use client::{ClusterClient, FanOut};
pub use error::ClusterError;
pub use fault::{FaultPlan, FaultyTransport};
pub use health::{HealthPolicy, Resilient, RetryPolicy};
pub use node::{ClusterNode, SyncReport};
pub use ring::{HashRing, DEFAULT_VNODES};
/// The sketch a cluster serves: the store's one trait under the name
/// cluster code has always used.
pub use sketch_core::Sketch as ClusterSketch;
pub use tcp::{TcpServer, TcpTimeouts, TcpTransport};
pub use transport::{MemNetwork, TrafficStats, Transport};
pub use wire::{ErrorCode, FrameError, Message, NodeId, WireEntry, WireError, WireNeighbor};
