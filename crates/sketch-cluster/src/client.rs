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
    /// node was unreachable and had to be skipped. A node whose answer
    /// holds a Jaccard outside [0, 1] has sent a bad answer
    /// ([`ClusterError::Protocol`]): it contributes nothing, like a
    /// node that answered with an error frame.
    pub fn similar_keys_detailed(
        &self,
        key: &str,
        k: usize,
        threshold: f64,
    ) -> Result<FanOut<Vec<WireNeighbor>>, ClusterError> {
        let request = Message::SimilarKeys {
            key: key.to_owned(),
            // Saturated, not truncated: `1 << 32` must not ask for 0.
            k: u32::try_from(k).unwrap_or(u32::MAX),
            threshold_bits: threshold.to_bits(),
        };
        let mut best: Vec<WireNeighbor> = Vec::new();
        let skipped = self.fan_out(&request, |reply| {
            let Message::Neighbors { items } = reply else {
                return Err(unexpected("Neighbors", &reply));
            };
            if let Some(bad) = items
                .iter()
                .find(|item| !(0.0..=1.0).contains(&item.jaccard()))
            {
                return Err(ClusterError::Protocol(format!(
                    "neighbor {:?} has Jaccard {} outside [0, 1]",
                    bad.key,
                    bad.jaccard()
                )));
            }
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
            Ok(())
        })?;
        best.sort_by(|a, b| {
            b.jaccard()
                .total_cmp(&a.jaccard())
                .then_with(|| a.key.cmp(&b.key))
        });
        best.truncate(k);
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
        let mut merged = self.prototype.clone();
        let skipped = self
            .fan_out(&request, |reply| {
                let Message::Payload { bytes } = reply else {
                    return Err(unexpected("Payload", &reply));
                };
                let shipped = S::decompress(&self.prototype, &bytes)
                    .map_err(|error| ClusterError::BadPayload(error.to_string()))?;
                merged
                    .merge_from(&shipped)
                    .map(drop)
                    .map_err(|error| ClusterError::Incompatible(error.to_string()))
            })
            .map_err(|error| match error {
                // Every node that answered holds none of the keys.
                ClusterError::KeyNotFound(_) => ClusterError::KeyNotFound(keys.join(", ")),
                other => other,
            })?;
        Ok(FanOut {
            value: merged.cardinality(),
            degraded: !skipped.is_empty(),
            skipped,
        })
    }

    /// Asks `node` to shut down (TCP servers stop serving; in-process
    /// nodes just acknowledge).
    pub fn shutdown_node(&self, node: NodeId) -> Result<(), ClusterError> {
        expect_ack(self.transport.request(node, &Message::Shutdown)?)
    }

    /// Sends `request` to every node and hands each reply to `absorb`,
    /// which folds it into the caller's answer or refuses it with the
    /// reason. A node that cannot be reached, answers with an error
    /// frame, or whose reply is refused has not answered; one that
    /// could not be reached for a transient reason is also skipped.
    ///
    /// Returns the skipped nodes, ascending, once any node has answered.
    /// Otherwise fails with the last node's failure — except that a
    /// node holding none of the keys never hides another node's failure.
    fn fan_out(
        &self,
        request: &Message,
        mut absorb: impl FnMut(Message) -> Result<(), ClusterError>,
    ) -> Result<Vec<NodeId>, ClusterError> {
        let mut answered = false;
        let mut skipped = Vec::new();
        let mut last_error: Option<ClusterError> = None;
        for &node in self.ring.nodes() {
            let outcome = match self.transport.request(node, request) {
                Ok(Message::Error { code, detail }) => Err(ClusterError::from_remote(code, detail)),
                Ok(reply) => absorb(reply),
                Err(error) => {
                    if error.is_transient() {
                        skipped.push(node);
                    }
                    Err(error)
                }
            };
            match outcome {
                Ok(()) => answered = true,
                Err(error) if error.is_key_not_found() && last_error.is_some() => {}
                Err(error) => last_error = Some(error),
            }
        }
        if !answered {
            return Err(
                last_error.unwrap_or_else(|| ClusterError::Protocol("empty cluster".to_owned()))
            );
        }
        skipped.sort_unstable();
        Ok(skipped)
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
                Ok(other) => last_error = Some(unexpected("Value", &other)),
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
        other => Err(unexpected("Ack", &other)),
    }
}

/// A reply of the wrong kind for its request.
fn unexpected(expected: &str, got: &Message) -> ClusterError {
    ClusterError::Protocol(format!("expected {expected}, got {got:?}"))
}
