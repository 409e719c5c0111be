//! Fluent construction of a [`SketchStore`].
//!
//! [`SketchStore::builder`] is the store's single construction entry
//! point: the factory closure is mandatory (it fixes configuration and
//! hash seed for every sketch the store creates), everything else is an
//! optional knob with a production-minded default. Centralizing the
//! knobs here keeps the store's constructor surface stable as new ones
//! arrive: they become builder methods instead of constructor variants.
//!
//! The memory budget ([`memory_budget_bytes`]) is the tier manager's
//! only input: it turns demotion through the sketch's
//! [`compress`](Sketch::compress) codec on ([`spill_dir`] says where
//! frozen keys go). A store built without a budget keeps every sketch
//! resident and pays nothing.
//!
//! [`memory_budget_bytes`]: StoreBuilder::memory_budget_bytes
//! [`spill_dir`]: StoreBuilder::spill_dir

use crate::error::StoreError;
use crate::pipeline::{PipelineDefaults, DEFAULT_QUEUE_DEPTH, DEFAULT_WRITER_THREADS};
use crate::store::{SketchStore, DEFAULT_SHARDS};
use crate::tier::TierPolicy;
use crate::wal::{self, FsyncPolicy, DEFAULT_CHECKPOINT_AFTER_BYTES};
use sketch_core::Sketch;
use std::path::PathBuf;
use std::sync::Arc;

/// Configures and builds a [`SketchStore`].
///
/// Returned by [`SketchStore::builder`]; every knob has a default, so
/// `SketchStore::builder(factory).build()` is the minimal form.
///
/// ```
/// use setsketch::{SetSketch2, SetSketchConfig};
/// use sketch_store::SketchStore;
///
/// let config = SetSketchConfig::example_16bit();
/// let store = SketchStore::builder(move || SetSketch2::new(config, 42))
///     .shards(8)            // write-contention granularity
///     .queue_depth(256)     // per-writer pipeline backlog bound
///     .writer_threads(2)    // dedicated pipeline writer threads
///     .build();
/// store.ingest("key", &[1, 2, 3]);
/// assert_eq!(store.len(), 1);
/// ```
///
/// With a memory budget — cold keys compress in place, and spill to
/// disk when the budget is still exceeded:
///
/// ```
/// use setsketch::{SetSketch2, SetSketchConfig};
/// use sketch_store::SketchStore;
///
/// let config = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
/// let store = SketchStore::builder(move || SetSketch2::new(config, 42))
///     .memory_budget_bytes(256 * 1024) // hot + warm ceiling
///     .build();
/// for key in 0..100 {
///     store.ingest(&format!("key-{key}"), &(0..50).collect::<Vec<u64>>());
/// }
/// let stats = store.tier_stats();
/// assert_eq!(stats.total_keys(), 100);
/// assert!(stats.resident_bytes() <= 2 * 256 * 1024);
/// ```
pub struct StoreBuilder<S> {
    shards: usize,
    pipeline: PipelineDefaults,
    tier: TierPolicy,
    factory: Box<dyn Fn() -> S + Send + Sync>,
    durable_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint_after_bytes: u64,
}

impl<S: Sketch> StoreBuilder<S> {
    /// Starts a builder around the store's sketch factory.
    pub(crate) fn new(factory: impl Fn() -> S + Send + Sync + 'static) -> Self {
        StoreBuilder {
            shards: DEFAULT_SHARDS,
            pipeline: PipelineDefaults {
                queue_depth: DEFAULT_QUEUE_DEPTH,
                writer_threads: DEFAULT_WRITER_THREADS,
            },
            tier: TierPolicy::default(),
            factory: Box::new(factory),
            durable_dir: None,
            fsync: FsyncPolicy::Os,
            checkpoint_after_bytes: DEFAULT_CHECKPOINT_AFTER_BYTES,
        }
    }

    /// Number of lock shards the key space is split across (default
    /// [`DEFAULT_SHARDS`]). More shards reduce write contention; the
    /// key→shard mapping is stable for a given count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Bound on the number of operations each pipeline writer queues
    /// before producers block — the backpressure knob of
    /// [`SketchStore::pipeline`] (default
    /// [`DEFAULT_QUEUE_DEPTH`](crate::DEFAULT_QUEUE_DEPTH)).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.pipeline.queue_depth = depth;
        self
    }

    /// Number of dedicated writer threads each
    /// [`SketchStore::pipeline`] handle spawns (default
    /// [`DEFAULT_WRITER_THREADS`](crate::DEFAULT_WRITER_THREADS)).
    /// Shards are partitioned across writers, so counts beyond the
    /// shard count cannot add parallelism.
    pub fn writer_threads(mut self, writers: usize) -> Self {
        self.pipeline.writer_threads = writers;
        self
    }

    /// Ceiling on the store's resident bytes (hot sketches plus warm
    /// compressed payloads). Exceeding it triggers the second-chance
    /// clock scan, which compresses cold keys in place and — while
    /// still over budget — spills them to disk. The ceiling is a
    /// target, not a hard cap: a burst of writes can transiently
    /// overshoot until the next scan catches up.
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    pub fn memory_budget_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "memory budget must be at least one byte");
        self.tier.memory_budget_bytes = Some(bytes);
        self
    }

    /// Parent directory for the store's spill segments (default: the OS
    /// temp directory). The store creates a uniquely named subdirectory
    /// on first spill and removes it — with every segment file — when
    /// dropped. Only consulted when a memory budget is set.
    pub fn spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.tier.spill_dir = Some(dir.into());
        self
    }

    /// Makes the store **durable**: every change appends a CRC-framed
    /// record to a write-ahead log under `dir` before the call returns
    /// (every write applies under its shard lock and appends its record
    /// before releasing it; a write that changed nothing — an ingest or
    /// merge-in that raised no register, removing a missing key — is a
    /// read and writes nothing), and building from the same directory
    /// later recovers the store — loading the newest checkpoint,
    /// replaying the log tail, truncating a torn final record and
    /// quarantining bit-rotted ones (what was found is reported by
    /// [`SketchStore::recovery_report`] as a
    /// [`RecoveryReport`](crate::RecoveryReport)).
    ///
    /// The directory is created if absent and must be private to this
    /// store. Pair with [`fsync_policy`](Self::fsync_policy) to choose
    /// what survives power loss, and
    /// [`checkpoint_after_bytes`](Self::checkpoint_after_bytes) to bound
    /// replay time.
    pub fn durable_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durable_dir = Some(dir.into());
        self
    }

    /// When WAL appends reach the disk (default [`FsyncPolicy::Os`]).
    /// Only consulted when a [`durable_dir`](Self::durable_dir) is set.
    ///
    /// # Panics
    /// Panics if the policy is `EveryN(0)`.
    pub fn fsync_policy(mut self, policy: FsyncPolicy) -> Self {
        if let FsyncPolicy::EveryN(n) = policy {
            assert!(n > 0, "fsync period must be at least one record");
        }
        self.fsync = policy;
        self
    }

    /// Log bytes to accumulate before the store cuts the next
    /// checkpoint (default 8 MiB). Smaller values bound recovery replay
    /// tighter at the cost of more frequent full-store sweeps. Only
    /// consulted when a [`durable_dir`](Self::durable_dir) is set.
    ///
    /// # Panics
    /// Panics if `bytes == 0`.
    pub fn checkpoint_after_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "checkpoint threshold must be at least one byte");
        self.checkpoint_after_bytes = bytes;
        self
    }

    /// Builds the store.
    ///
    /// # Panics
    /// Panics if `shards`, `queue_depth` or `writer_threads` was set to
    /// zero, or if a [`durable_dir`](Self::durable_dir) was set and the
    /// durability layer fails to initialize (directory not creatable,
    /// log not writable) — use [`try_build`](Self::try_build) to handle
    /// that case. Recovering from a *corrupt* log is not a panic: bad
    /// records are quarantined into the [`RecoveryReport`].
    ///
    /// [`RecoveryReport`]: crate::RecoveryReport
    pub fn build(self) -> SketchStore<S> {
        match self.try_build() {
            Ok(store) => store,
            Err(error) => panic!("store construction failed: {error}"),
        }
    }

    /// Builds the store, surfacing durability initialization failures
    /// as [`StoreError::Durability`] instead of panicking.
    ///
    /// # Errors
    /// [`StoreError::Durability`] when the durable directory cannot be
    /// created or its write-ahead log cannot be opened or scanned.
    ///
    /// # Panics
    /// As [`build`](Self::build) for the zero-value knob asserts.
    pub fn try_build(self) -> Result<SketchStore<S>, StoreError> {
        assert!(self.shards > 0, "store needs at least one shard");
        assert!(
            self.pipeline.queue_depth > 0,
            "pipeline queues need depth of at least one operation"
        );
        assert!(
            self.pipeline.writer_threads > 0,
            "pipelines need at least one writer thread"
        );
        let mut store =
            SketchStore::from_parts(self.shards, self.factory, self.pipeline, self.tier);
        if let Some(dir) = self.durable_dir {
            let (wal, report) = wal::recover(&store, &dir, self.fsync)?;
            store.durability = Some(wal::durability_runtime(
                wal,
                report,
                self.checkpoint_after_bytes,
            ));
        }
        Ok(store)
    }

    /// Builds the store behind an [`Arc`] — the shape
    /// [`SketchStore::pipeline`] and multi-threaded servers want.
    ///
    /// # Panics
    /// As [`build`](Self::build).
    pub fn build_shared(self) -> Arc<SketchStore<S>> {
        Arc::new(self.build())
    }
}

impl<S> std::fmt::Debug for StoreBuilder<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBuilder")
            .field("shards", &self.shards)
            .field("queue_depth", &self.pipeline.queue_depth)
            .field("writer_threads", &self.pipeline.writer_threads)
            .field("memory_budget_bytes", &self.tier.memory_budget_bytes)
            .finish_non_exhaustive()
    }
}
