//! The client's view of the cluster: route writes by the ring, fan
//! reads out across replicas.
//!
//! Writes go to the key's ring owner so ingest load spreads ~1/N per
//! node; replication then carries every key everywhere, so reads can
//! be served by any replica. Point reads try the owner first (it has
//! the freshest registers for its own keys) and fall back to the other
//! replicas; set-wide queries — top-k similarity, union cardinality —
//! fan out to **all** nodes and merge, because between sync rounds a
//! freshly written key may exist only on its owner.

use crate::error::ClusterError;
use crate::ring::HashRing;
use crate::transport::Transport;
use crate::wire::{Message, NodeId, WireNeighbor};
use sketch_core::Sketch;

/// A fan-out query's answer plus its coverage: which nodes could not
/// be reached (suspect, partitioned, timed out) and had to be skipped.
///
/// A degraded answer is still *correct over the replicas that
/// answered* — replication means skipped nodes usually hold nothing
/// unique — but a caller that needs full coverage can branch on
/// [`degraded`](Self::degraded) and retry later.
#[derive(Debug, Clone, PartialEq)]
pub struct FanOut<V> {
    /// The merged answer from every node that responded.
    pub value: V,
    /// True when at least one node was skipped.
    pub degraded: bool,
    /// The nodes that could not be reached, ascending.
    pub skipped: Vec<NodeId>,
}

/// A routing client over any [`Transport`].
///
/// `prototype` is an empty sketch from the cluster's shared factory;
/// it decodes the compact payloads that
/// [`union_cardinality`](ClusterClient::union_cardinality) merges
/// client-side.
pub struct ClusterClient<S, T> {
    transport: T,
    ring: HashRing,
    prototype: S,
}

impl<S, T> ClusterClient<S, T>
where
    S: Sketch,
    T: Transport,
{
    /// Builds a client over `transport` routing across `ring`.
    pub fn new(transport: T, ring: HashRing, prototype: S) -> Self {
        ClusterClient {
            transport,
            ring,
            prototype,
        }
    }

    /// The transport the client routes through — handy for inspecting
    /// wrapper state ([`Resilient`](crate::Resilient) suspicion, fault
    /// injection in tests).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The node `key`'s writes are routed to.
    pub fn owner(&self, key: &str) -> NodeId {
        self.ring.owner(key)
    }

    /// Records `elements` into `key`'s sketch on its owner node.
    pub fn ingest(&self, key: &str, elements: &[u64]) -> Result<(), ClusterError> {
        let response = self.transport.request(
            self.ring.owner(key),
            &Message::Ingest {
                key: key.to_owned(),
                elements: elements.to_vec(),
            },
        )?;
        expect_ack(response)
    }

    /// Estimated distinct count under `key`. Tries the owner, then the
    /// remaining replicas (a key can be momentarily absent from nodes
    /// the last sync round has not reached).
    pub fn cardinality(&self, key: &str) -> Result<f64, ClusterError> {
        self.first_value(
            self.nodes_owner_first(key),
            &Message::Cardinality {
                key: key.to_owned(),
            },
        )
    }

    /// Estimated Jaccard similarity of two keys, owner of `left`
    /// first.
    pub fn jaccard(&self, left: &str, right: &str) -> Result<f64, ClusterError> {
        self.first_value(
            self.nodes_owner_first(left),
            &Message::Jaccard {
                left: left.to_owned(),
                right: right.to_owned(),
            },
        )
    }

    /// The `k` keys most similar to `key` across the **whole**
    /// cluster: every node answers from its replica, and the answers
    /// are merged — best Jaccard per key wins, descending, truncated
    /// to `k`. Nodes that do not hold `key` (or are unreachable) are
    /// skipped; the query fails only when *no* node can answer.
    pub fn similar_keys(
        &self,
        key: &str,
        k: usize,
        threshold: f64,
    ) -> Result<Vec<WireNeighbor>, ClusterError> {
        self.similar_keys_detailed(key, k, threshold)
            .map(|fan_out| fan_out.value)
    }

    /// [`similar_keys`](Self::similar_keys) with coverage reporting:
    /// the result is marked [`degraded`](FanOut::degraded) when any
    /// node was unreachable and had to be skipped.
    pub fn similar_keys_detailed(
        &self,
        key: &str,
        k: usize,
        threshold: f64,
    ) -> Result<FanOut<Vec<WireNeighbor>>, ClusterError> {
        let request = Message::SimilarKeys {
            key: key.to_owned(),
            k: k as u32,
            threshold_bits: threshold.to_bits(),
        };
        let mut best: Vec<WireNeighbor> = Vec::new();
        let mut answered = false;
        let mut skipped = Vec::new();
        let mut last_error = None;
        for &node in self.ring.nodes() {
            match self.transport.request(node, &request) {
                Ok(Message::Neighbors { items }) => {
                    answered = true;
                    for item in items {
                        match best.iter_mut().find(|have| have.key == item.key) {
                            Some(have) => {
                                if item.jaccard() > have.jaccard() {
                                    have.jaccard_bits = item.jaccard_bits;
                                }
                            }
                            None => best.push(item),
                        }
                    }
                }
                Ok(Message::Error { code, detail }) => {
                    last_error = Some(ClusterError::from_remote(code, detail));
                }
                Ok(other) => {
                    last_error = Some(ClusterError::Protocol(format!(
                        "expected Neighbors, got {other:?}"
                    )));
                }
                Err(error) => {
                    if error.is_transient() {
                        skipped.push(node);
                    }
                    last_error = Some(error);
                }
            }
        }
        if !answered {
            return Err(
                last_error.unwrap_or_else(|| ClusterError::Protocol("empty cluster".to_owned()))
            );
        }
        best.sort_by(|a, b| {
            b.jaccard()
                .partial_cmp(&a.jaccard())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
        });
        best.truncate(k);
        skipped.sort_unstable();
        Ok(FanOut {
            value: best,
            degraded: !skipped.is_empty(),
            skipped,
        })
    }

    /// Estimated cardinality of the union of `keys`, cluster-wide:
    /// every node ships the compact union of the keys it holds, and
    /// the client merges those payloads into one sketch. Because
    /// merging is idempotent, replicas holding overlapping key subsets
    /// cannot inflate the estimate.
    pub fn union_cardinality(&self, keys: &[&str]) -> Result<f64, ClusterError> {
        self.union_cardinality_detailed(keys)
            .map(|fan_out| fan_out.value)
    }

    /// [`union_cardinality`](Self::union_cardinality) with coverage
    /// reporting: the result is marked [`degraded`](FanOut::degraded)
    /// when any node was unreachable and had to be skipped.
    pub fn union_cardinality_detailed(&self, keys: &[&str]) -> Result<FanOut<f64>, ClusterError> {
        let request = Message::UnionSketch {
            keys: keys.iter().map(|&key| key.to_owned()).collect(),
        };
        let mut merged: Option<S> = None;
        let mut skipped = Vec::new();
        let mut last_error = None;
        for &node in self.ring.nodes() {
            match self.transport.request(node, &request) {
                Ok(Message::Payload { bytes }) => {
                    let shipped = S::decompress(&self.prototype, &bytes)
                        .map_err(|error| ClusterError::BadPayload(error.to_string()))?;
                    match merged.as_mut() {
                        None => merged = Some(shipped),
                        Some(have) => {
                            have.merge_from(&shipped)
                                .map_err(|error| ClusterError::Incompatible(error.to_string()))?;
                        }
                    }
                }
                Ok(Message::Error { code, detail }) => {
                    let error = ClusterError::from_remote(code, detail);
                    // "I hold none of these keys" is a valid answer.
                    if !error.is_key_not_found() {
                        last_error = Some(error);
                    }
                }
                Ok(other) => {
                    last_error = Some(ClusterError::Protocol(format!(
                        "expected Payload, got {other:?}"
                    )));
                }
                Err(error) => {
                    if error.is_transient() {
                        skipped.push(node);
                    }
                    last_error = Some(error);
                }
            }
        }
        match merged {
            Some(sketch) => {
                skipped.sort_unstable();
                Ok(FanOut {
                    value: sketch.cardinality(),
                    degraded: !skipped.is_empty(),
                    skipped,
                })
            }
            None => Err(last_error.unwrap_or_else(|| ClusterError::KeyNotFound(keys.join(", ")))),
        }
    }

    /// Asks `node` to shut down (TCP servers stop serving; in-process
    /// nodes just acknowledge).
    pub fn shutdown_node(&self, node: NodeId) -> Result<(), ClusterError> {
        expect_ack(self.transport.request(node, &Message::Shutdown)?)
    }

    /// The current value of `node`'s store-global write counter,
    /// fetched without transferring any state. Useful for operators
    /// watching a bootstrapped node catch up: once the local
    /// high-water mark reaches this, the node has everything the peer
    /// has written.
    pub fn node_write_epoch(&self, node: NodeId) -> Result<u64, ClusterError> {
        crate::bootstrap::probe_write_epoch(&self.transport, node)
    }

    /// All nodes, with `key`'s ring owner moved to the front.
    fn nodes_owner_first(&self, key: &str) -> Vec<NodeId> {
        let owner = self.ring.owner(key);
        let mut nodes = vec![owner];
        nodes.extend(self.ring.nodes().iter().copied().filter(|&n| n != owner));
        nodes
    }

    /// Sends `request` to each node in order; returns the first
    /// numeric answer, or the last failure when every node refuses.
    fn first_value(&self, nodes: Vec<NodeId>, request: &Message) -> Result<f64, ClusterError> {
        let mut last_error = None;
        for node in nodes {
            match self.transport.request(node, request) {
                Ok(Message::Value { bits }) => return Ok(f64::from_bits(bits)),
                Ok(Message::Error { code, detail }) => {
                    last_error = Some(ClusterError::from_remote(code, detail));
                }
                Ok(other) => {
                    last_error = Some(ClusterError::Protocol(format!(
                        "expected Value, got {other:?}"
                    )));
                }
                Err(error) => last_error = Some(error),
            }
        }
        Err(last_error.unwrap_or_else(|| ClusterError::Protocol("empty cluster".to_owned())))
    }
}

fn expect_ack(response: Message) -> Result<(), ClusterError> {
    match response {
        Message::Ack => Ok(()),
        Message::Error { code, detail } => Err(ClusterError::from_remote(code, detail)),
        other => Err(ClusterError::Protocol(format!(
            "expected Ack, got {other:?}"
        ))),
    }
}
