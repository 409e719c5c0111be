//! How frames travel between nodes.
//!
//! [`Transport`] is the single seam between the replication state
//! machine and the outside world: one blocking request/response
//! exchange per call. Three implementations exist —
//!
//! * [`MemNetwork`] (here): an in-process network for deterministic
//!   tests and benchmarks. It still runs every message through the
//!   real frame codec, so the bytes counted are the bytes a socket
//!   would carry;
//! * [`TcpTransport`](crate::TcpTransport): real sockets;
//! * [`FaultyTransport`](crate::FaultyTransport): a wrapper injecting
//!   drops, replays and partitions into either of the above.

use crate::error::ClusterError;
use crate::node::{ClusterNode, ClusterSketch};
use crate::wire::{read_frame, Message, NodeId};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// A blocking request/response exchange with one peer.
///
/// Implementations must be usable from multiple threads (`&self`
/// receiver); sharing between nodes is the normal case.
pub trait Transport {
    /// Sends `message` to `peer` and returns the peer's response.
    ///
    /// # Errors
    /// [`ClusterError::UnknownPeer`] when no route to `peer` exists,
    /// [`ClusterError::Transport`] for delivery failures, and codec
    /// errors when a frame is malformed.
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError>;
}

impl<T: Transport + ?Sized> Transport for &T {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        (**self).request(peer, message)
    }
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        (**self).request(peer, message)
    }
}

/// Byte and frame counters of a [`MemNetwork`] — what the benchmark
/// and the delta-pruning tests measure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Completed request/response exchanges.
    pub exchanges: u64,
    /// Encoded request bytes, including the 4-byte length prefixes.
    pub request_bytes: u64,
    /// Encoded response bytes, including the 4-byte length prefixes.
    pub response_bytes: u64,
}

impl TrafficStats {
    /// Total bytes that crossed the network in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }
}

/// A request handler registered under a node id.
type Handler = Arc<dyn Fn(Message) -> Message + Send + Sync>;

/// Deterministic in-process network: requests are dispatched
/// synchronously to the registered node's [`ClusterNode::handle`] on
/// the caller's thread, in the caller's order.
///
/// Every exchange is encoded to a real length-prefixed frame and
/// decoded back on both legs, so (a) the codec is exercised by every
/// cluster test, and (b) [`TrafficStats`] reports exactly the bytes a
/// TCP deployment would move.
#[derive(Default)]
pub struct MemNetwork {
    handlers: RwLock<HashMap<NodeId, Handler>>,
    stats: Mutex<TrafficStats>,
}

impl MemNetwork {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `node` as the handler for its id. A second
    /// registration under the same id replaces the first.
    pub fn register<S: ClusterSketch>(&self, node: Arc<ClusterNode<S>>) {
        let id = node.id();
        let handler: Handler = Arc::new(move |message| node.handle(message));
        self.handlers.write().insert(id, handler);
    }

    /// Traffic counters since construction or the last
    /// [`reset_stats`](Self::reset_stats).
    pub fn stats(&self) -> TrafficStats {
        *self.stats.lock()
    }

    /// Zeroes the traffic counters.
    pub fn reset_stats(&self) {
        *self.stats.lock() = TrafficStats::default();
    }
}

impl Transport for MemNetwork {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let handler = self
            .handlers
            .read()
            .get(&peer)
            .cloned()
            .ok_or(ClusterError::UnknownPeer(peer))?;
        // Round-trip the request through the real frame codec — a
        // message a socket would refuse to send is refused here too.
        let request_frame = message.encode_frame()?;
        let delivered = read_frame(&mut request_frame.as_slice())?;
        let response = handler(delivered);
        let response_frame = response.encode_frame()?;
        let returned = read_frame(&mut response_frame.as_slice())?;
        let mut stats = self.stats.lock();
        stats.exchanges += 1;
        stats.request_bytes += request_frame.len() as u64;
        stats.response_bytes += response_frame.len() as u64;
        drop(stats);
        Ok(returned)
    }
}
