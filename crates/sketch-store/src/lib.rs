//! # sketch-store
//!
//! A concurrent, sharded registry of named sketches — the serving layer
//! between the sketch crates and a production workload.
//!
//! A [`SketchStore`] holds millions of keyed sketches (one per user
//! segment, page, shard, …) behind an `N`-way shard map of
//! `parking_lot::RwLock`-guarded hash tables. It is generic over the one
//! trait [`Sketch`], which SetSketch1 and SetSketch2 implement: one
//! SetSketch answers both the cardinality questions of HyperLogLog and
//! the similarity questions of MinHash, so the paper's other families
//! stay baselines outside the store:
//!
//! * **builder construction** — [`SketchStore::builder`] is the single
//!   front door: shard count, pipeline queue depth and writer threads
//!   (and future knobs) are configured fluently;
//! * **batched ingest** — [`SketchStore::ingest`] records a whole batch
//!   under one lock acquisition through
//!   [`Sketch::insert_batch_changed`] (SetSketch's deduplicated
//!   value-order fill); a batch that raises no register — almost every
//!   batch once n ≫ m — is a read: no version bump, no log record;
//! * **pipelined ingest** — [`SketchStore::pipeline`] returns an
//!   [`IngestPipeline`] routing batches into bounded per-writer
//!   channels drained by dedicated threads that coalesce each burst
//!   per key; `ingest` blocks while its channel is full and `flush`
//!   waits for everything submitted before it;
//! * **cross-key queries** — [`SketchStore::joint`],
//!   [`SketchStore::jaccard`],
//!   [`SketchStore::intersection_cardinality`] and
//!   [`SketchStore::union_cardinality`] answer set-relationship
//!   questions between keys via the family's joint estimators;
//! * **merge-down** — [`SketchStore::merge_keys`] /
//!   [`SketchStore::merge_down`] fold selections (or everything) into
//!   one union sketch;
//! * **delta sync** — [`SketchStore::delta_since`] ships the keys whose
//!   version stamp moved past a floor as compact payloads, one bounded
//!   page at a time in version order ([`StoreDelta`]), and
//!   [`SketchStore::merge_in`] applies shipped states with idempotent
//!   union-merge semantics, bumping the version only when the registers
//!   actually changed. This is the one way state moves between stores:
//!   a pull from version 0 is a whole-store transfer, and because the
//!   merge is idempotent no replica ever needs an atomic image — the
//!   replication substrate the `sketch-cluster` crate builds on. Apart
//!   from the on-disk checkpoint (below), pages are the only way state
//!   leaves a store; cold keys ship their compressed bytes without
//!   being rehydrated;
//! * **memory tiers** — with [`StoreBuilder::memory_budget_bytes`],
//!   whenever residency exceeds the budget a second-chance clock scan
//!   demotes cold keys from **hot** (resident sketch) to **warm**
//!   (registers compressed in memory through the sketch's
//!   [`compress`](Sketch::compress) codec) to **frozen**
//!   (compressed bytes spilled to temp segment files, removed when the
//!   store drops). Point reads and writes transparently rehydrate; bulk
//!   sweeps (similarity queries, merge-down, delta pages, checkpoints)
//!   peek without promoting. [`SketchStore::tier_stats`] reports the
//!   census;
//! * **crash-safe durability** — with [`StoreBuilder::durable_dir`],
//!   every change appends a CRC-framed record to a segment-rotated
//!   write-ahead log before the call returns ([`FsyncPolicy`] picks the
//!   latency/durability trade-off). One rule serves every write: it
//!   applies under its shard lock and appends its record before
//!   releasing it, so each key's log order is its apply order; a write
//!   that changed nothing logs nothing. Periodic checkpoints, which
//!   hold each shard only while sweeping it, bound replay time, and
//!   rebuilding from the
//!   same directory replays the store back bit-for-bit — truncating
//!   torn tails and quarantining bit-rotted records into a typed
//!   [`RecoveryReport`] instead of panicking;
//! * **one byte codec** — [`frame`] owns the little-endian field
//!   writers, the bounded [`frame::Reader`] and the [`DeltaEntry`]
//!   encoding; WAL records, checkpoints and the `sketch-cluster` wire
//!   all go through it, so a checkpoint entry and a delta-page entry
//!   are the same bytes;
//! * **similarity queries at scale** — two entry points over one
//!   engine: [`SketchStore::similar_keys_with`] (top-k) and
//!   [`SketchStore::all_pairs_with`] (threshold sweep).
//!   [`QueryOptions::index`] picks where candidates come from —
//!   [`IndexStrategy::Flat`], an incrementally maintained banding LSH
//!   index over the sketches' own registers (paper §3.3), or
//!   [`IndexStrategy::Exhaustive`], every key or pair, the reference
//!   the flat index is measured against — and survivors are
//!   verified in parallel by the family's exact joint estimator:
//!   sub-quadratic where N·(N−1)/2 [`joint`](SketchStore::joint) calls
//!   are not, with the same quantities. The other option,
//!   [`QueryOptions::threads`], caps the verification workers.
//!
//! ## Concurrent ingest
//!
//! All operations take `&self`; scoped threads (or an [`Arc`]) share the
//! store directly. Inserts are idempotent and commutative, so ingest
//! order — and any interleaving across threads or pipeline handles —
//! cannot change the final state:
//!
//! ```
//! use setsketch::{SetSketch2, SetSketchConfig};
//! use sketch_store::SketchStore;
//!
//! let config = SetSketchConfig::example_16bit();
//! let store = SketchStore::builder(move || SetSketch2::new(config, 7)).build();
//!
//! std::thread::scope(|scope| {
//!     for worker in 0..4u64 {
//!         let store = &store;
//!         scope.spawn(move || {
//!             let batch: Vec<u64> = (worker * 500..(worker + 1) * 500 + 250).collect();
//!             store.ingest("events", &batch); // overlapping ranges: fine
//!         });
//!     }
//! });
//!
//! let count = store.cardinality("events").unwrap();
//! assert!((count - 2250.0).abs() / 2250.0 < 0.1);
//! ```
//!
//! The same workload through the pipelined front — callers only enqueue;
//! dedicated writer threads apply the updates (see [`IngestPipeline`]):
//!
//! ```
//! use setsketch::{SetSketch2, SetSketchConfig};
//! use sketch_store::SketchStore;
//!
//! let config = SetSketchConfig::example_16bit();
//! let store = SketchStore::builder(move || SetSketch2::new(config, 7)).build_shared();
//!
//! let pipeline = store.clone().pipeline();
//! for worker in 0..4u64 {
//!     let batch: Vec<u64> = (worker * 500..(worker + 1) * 500 + 250).collect();
//!     pipeline.ingest("events", &batch);
//! }
//! pipeline.flush();
//!
//! let count = store.cardinality("events").unwrap();
//! assert!((count - 2250.0).abs() / 2250.0 < 0.1);
//! ```
//!
//! [`Arc`]: std::sync::Arc

#![warn(missing_docs)]

mod builder;
mod delta;
mod error;
pub mod frame;
mod pipeline;
mod query;
mod store;
mod tier;
mod wal;

pub use builder::StoreBuilder;
pub use delta::{DeltaEntry, StoreDelta};
pub use error::StoreError;
pub use pipeline::{IngestPipeline, DEFAULT_QUEUE_DEPTH, DEFAULT_WRITER_THREADS};
pub use query::{
    ClusteredIndexInfo, IndexStrategy, Neighbor, ProbeStats, QueryOptions, SimilarPair,
    SimilarityIndexInfo,
};
pub use store::{SketchStore, DEFAULT_SHARDS};
pub use tier::TierStats;
pub use wal::{FsyncPolicy, RecoveryReport};

// Downstream convenience: the trait a stored sketch implements, the
// joint-estimation result type, and the banding layout the similarity
// index reports.
pub use lsh::Banding;
pub use sketch_core::{JointQuantities, Sketch};
