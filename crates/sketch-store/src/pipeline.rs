//! Pipelined ingest: bounded per-writer channels drained by dedicated
//! writer threads, with blocking backpressure.
//!
//! The store's synchronous [`ingest`](SketchStore::ingest) blocks the
//! caller on a shard lock for the duration of the sketch update. That
//! is the right shape for batch jobs, but a server's request threads
//! should not pay sketch-update latency per request.
//! [`SketchStore::pipeline`] returns an [`IngestPipeline`] that
//! decouples the two sides:
//!
//! * **Routing and coalescing** — every batch is routed by the store's
//!   key→shard function to one of `writer_threads` bounded channels,
//!   each drained by a dedicated writer thread. A shard's traffic always
//!   lands on the same writer, so writers never contend on a shard
//!   lock. Writers drain their channel in bursts and coalesce each burst
//!   **per key**: many small batches submitted between two wake-ups
//!   become one batched sketch update (one lock acquisition, one version
//!   stamp, one sorted batch that also deduplicates across
//!   producers). Inserts are idempotent and commutative, so coalescing
//!   cannot change the final state.
//! * **Backpressure** — each channel holds at most `queue_depth`
//!   batches ([`StoreBuilder::queue_depth`](crate::StoreBuilder::queue_depth));
//!   [`ingest`](IngestPipeline::ingest) blocks while its channel is
//!   full. Memory stays bounded no matter how far producers outrun the
//!   writers: per writer, `queue_depth` queued batches plus one
//!   in-flight burst of at most `queue_depth + 1`.
//! * **Flush** — [`flush`](IngestPipeline::flush) waits until every
//!   batch submitted *before the call* has been applied to the store.
//!   Dropping the pipeline drains all channels and joins the writers,
//!   so no accepted batch is ever lost.
//! * **Tiering** — writers apply updates through the store's ordinary
//!   [`ingest`](SketchStore::ingest), so pipelined writes promote warm
//!   or frozen keys and drive demotion scans exactly like direct ones.
//!
//! ```
//! use setsketch::{SetSketch2, SetSketchConfig};
//! use sketch_store::SketchStore;
//!
//! let config = SetSketchConfig::example_16bit();
//! let store = SketchStore::builder(move || SetSketch2::new(config, 42))
//!     .queue_depth(128)
//!     .writer_threads(2)
//!     .build_shared();
//!
//! let pipeline = store.clone().pipeline();
//! pipeline.ingest("paris", &(0..1000).collect::<Vec<u64>>());
//! pipeline.ingest("paris", &[1000]);
//! pipeline.flush();
//! assert!((store.cardinality("paris").unwrap() - 1001.0).abs() / 1001.0 < 0.15);
//! ```

use crate::store::SketchStore;
use sketch_core::Sketch;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Default bound on queued batches per pipeline writer
/// ([`StoreBuilder::queue_depth`](crate::StoreBuilder::queue_depth)).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Default number of dedicated pipeline writer threads
/// ([`StoreBuilder::writer_threads`](crate::StoreBuilder::writer_threads)).
pub const DEFAULT_WRITER_THREADS: usize = 2;

/// Pipeline knobs fixed by the [`StoreBuilder`](crate::StoreBuilder) and
/// stored on the [`SketchStore`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PipelineDefaults {
    pub(crate) queue_depth: usize,
    pub(crate) writer_threads: usize,
}

/// A caught panic payload.
type Panic = Box<dyn Any + Send>;

/// One message on a writer's channel (owned: the pipeline outlives the
/// caller's borrows).
enum Op {
    Ingest(String, Vec<u64>),
    /// Acknowledged once the burst carrying it has been applied.
    Flush(Sender<()>),
}

/// The writer thread of one channel: block for a message, take whatever
/// else is queued (at most `depth` more), coalesce the burst per key
/// into one [`ingest`](SketchStore::ingest) per key, acknowledge the
/// burst's flush markers, repeat — until every sender has hung up and
/// the channel is drained.
///
/// The sketch update is user code (`S` is any [`Sketch`]), so it
/// runs under `catch_unwind`: a panic must not kill the writer, which
/// would turn every later `ingest` and `flush` into an error. The first
/// payload is returned as the thread's result and resurfaced by the
/// pipeline's `Drop`.
fn writer_loop<S: Sketch>(
    store: &SketchStore<S>,
    queue: Receiver<Op>,
    depth: usize,
) -> Option<Panic> {
    let mut first_panic = None;
    let mut groups: HashMap<String, Vec<u64>> = HashMap::new();
    let mut acks = Vec::new();
    while let Ok(first) = queue.recv() {
        for op in std::iter::once(first).chain(queue.try_iter().take(depth)) {
            match op {
                Op::Ingest(key, mut elements) => {
                    let group = groups.entry(key).or_default();
                    if group.is_empty() {
                        std::mem::swap(group, &mut elements);
                    } else {
                        group.append(&mut elements);
                    }
                }
                Op::Flush(ack) => acks.push(ack),
            }
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for (key, elements) in groups.drain() {
                store.ingest(&key, &elements);
            }
        }));
        if let Err(payload) = outcome {
            // Scrap the burst's unapplied remainder so it cannot leak
            // into a later burst.
            groups.clear();
            first_panic.get_or_insert(payload);
        }
        for ack in acks.drain(..) {
            // The flushing caller may have unwound already.
            let _ = ack.send(());
        }
    }
    first_panic
}

/// A pipelined, backpressured front door for store ingest: bounded
/// per-writer channels routed by the store's key→shard function,
/// drained by dedicated writer threads that coalesce each burst per key.
///
/// Obtained from [`SketchStore::pipeline`]. Both methods take `&self`;
/// share one pipeline across request threads, or create several
/// handles over the same store — writes land in the same shard maps
/// either way, and inserts are idempotent and commutative, so any
/// interleaving of handles produces the state sequential ingest would.
///
/// Dropping the pipeline drains every accepted batch into the store,
/// joins the writer threads, and resurfaces the first panic a sketch
/// update raised on a writer.
pub struct IngestPipeline<S: Sketch> {
    store: Arc<SketchStore<S>>,
    queues: Vec<SyncSender<Op>>,
    writers: Vec<JoinHandle<Option<Panic>>>,
}

impl<S: Sketch> SketchStore<S> {
    /// Opens a pipelined ingest front over this store, spawning the
    /// writer threads configured at build time
    /// ([`StoreBuilder::writer_threads`](crate::StoreBuilder::writer_threads),
    /// [`StoreBuilder::queue_depth`](crate::StoreBuilder::queue_depth)).
    ///
    /// The receiver is an owned [`Arc`] because the writer threads keep
    /// the store alive independently of the caller; clone the `Arc` to
    /// keep using the store directly:
    ///
    /// ```
    /// use setsketch::{SetSketch2, SetSketchConfig};
    /// use sketch_store::SketchStore;
    ///
    /// let config = SetSketchConfig::example_16bit();
    /// let store = SketchStore::builder(move || SetSketch2::new(config, 42)).build_shared();
    ///
    /// let pipeline = store.clone().pipeline();
    /// pipeline.ingest("events", &[1, 2, 3]);
    /// pipeline.flush();
    /// assert!(store.contains_key("events"));
    /// ```
    pub fn pipeline(self: Arc<Self>) -> IngestPipeline<S> {
        let depth = self.pipeline_defaults.queue_depth;
        let (queues, writers) = (0..self.pipeline_defaults.writer_threads)
            .map(|_| {
                let (sender, queue) = mpsc::sync_channel(depth);
                let store = Arc::clone(&self);
                (
                    sender,
                    std::thread::spawn(move || writer_loop(&store, queue, depth)),
                )
            })
            .unzip();
        IngestPipeline {
            store: self,
            queues,
            writers,
        }
    }
}

impl<S: Sketch> IngestPipeline<S> {
    /// Queues a batch for `key` (applied through the store's batched
    /// [`ingest`](SketchStore::ingest)), blocking while the key's
    /// channel is full.
    pub fn ingest(&self, key: &str, elements: &[u64]) {
        let queue = &self.queues[self.store.shard_index(key) % self.queues.len()];
        queue
            .send(Op::Ingest(key.to_owned(), elements.to_vec()))
            .expect("pipeline writers outlive the pipeline");
    }

    /// Blocks until every batch submitted before this call has been
    /// applied to the store. Batches submitted concurrently with the
    /// flush (by other threads) may or may not be covered.
    pub fn flush(&self) {
        let (ack, acked) = mpsc::channel();
        for queue in &self.queues {
            queue
                .send(Op::Flush(ack.clone()))
                .expect("pipeline writers outlive the pipeline");
        }
        drop(ack);
        for _ in &self.queues {
            acked.recv().expect("every writer acknowledges its marker");
        }
    }
}

impl<S: Sketch> Drop for IngestPipeline<S> {
    /// Hangs up the channels (each writer drains what it accepted and
    /// exits), joins the writers, and resurfaces the first panic a
    /// sketch update raised on one of them.
    fn drop(&mut self) {
        self.queues.clear();
        // `or` takes its argument eagerly: every writer is joined.
        let first_panic = self.writers.drain(..).fold(None, |first, writer| {
            first.or(writer.join().unwrap_or_else(Some))
        });
        if let Some(payload) = first_panic {
            if !std::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}
