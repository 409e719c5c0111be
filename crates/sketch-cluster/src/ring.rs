//! Consistent-hash key routing across the cluster's nodes.
//!
//! Clients route each key's *writes* to one home node so ingest load
//! spreads evenly, while replication (delta sync + anti-entropy)
//! spreads every key's state to all replicas — reads can then fan out
//! to any of them. The ring is the classic construction: each node
//! projects 64 points onto the `u64` hash circle, and a key is
//! owned by the node whose point follows the key's hash clockwise.
//! Adding or removing one node therefore only moves the keys adjacent
//! to its points — ~1/N of the key space — instead of reshuffling
//! everything, which is what keeps warm sketches on their home nodes
//! across membership changes.

use crate::wire::NodeId;
use sketch_rand::{hash_bytes, hash_u64};

/// Seed of the ring's hash points (fixed: every client and node must
/// agree on the mapping).
const RING_SEED: u64 = 0x5249_4e47_5345_4544; // "RINGSEED"

/// Virtual nodes per member — enough that the largest partition stays
/// within a few percent of 1/N for small clusters.
const VNODES: usize = 64;

/// A consistent-hash ring over the cluster's node ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` pairs sorted by point.
    points: Vec<(u64, NodeId)>,
    nodes: Vec<NodeId>,
}

impl HashRing {
    /// Builds a ring with 64 virtual nodes per member.
    ///
    /// # Panics
    /// Panics when `nodes` is empty.
    pub fn new(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "a ring needs at least one node");
        let mut points = Vec::with_capacity(nodes.len() * VNODES);
        for &node in nodes {
            for vnode in 0..VNODES {
                let point = hash_u64(((node as u64) << 32) | vnode as u64, RING_SEED);
                points.push((point, node));
            }
        }
        // Ties (astronomically unlikely) resolve to the lower node id,
        // deterministically on every participant.
        points.sort_unstable();
        let mut nodes = nodes.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        HashRing { points, nodes }
    }

    /// The node owning `key`: the first ring point at or after the
    /// key's hash, wrapping around the circle.
    pub fn owner(&self, key: &str) -> NodeId {
        let hash = hash_bytes(key.as_bytes(), RING_SEED);
        let index = self.points.partition_point(|&(point, _)| point < hash);
        let (_, node) = self.points[index % self.points.len()];
        node
    }

    /// The distinct member node ids, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let ring = HashRing::new(&[0, 1, 2]);
        let again = HashRing::new(&[2, 0, 1]);
        for i in 0..200 {
            let key = format!("key-{i}");
            let owner = ring.owner(&key);
            assert!(owner < 3);
            assert_eq!(owner, again.owner(&key), "member order must not matter");
        }
    }

    #[test]
    fn load_spreads_across_nodes() {
        let ring = HashRing::new(&[0, 1, 2]);
        let mut counts: HashMap<NodeId, usize> = HashMap::new();
        for i in 0..3000 {
            *counts.entry(ring.owner(&format!("user-{i}"))).or_default() += 1;
        }
        for node in 0..3 {
            let share = counts[&node] as f64 / 3000.0;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.15,
                "node {node} owns {share:.2} of keys"
            );
        }
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(&[7]);
        assert_eq!(ring.owner("anything"), 7);
        assert_eq!(ring.nodes(), &[7]);
    }

    #[test]
    fn removing_a_node_only_moves_its_keys() {
        let full = HashRing::new(&[0, 1, 2]);
        let reduced = HashRing::new(&[0, 1]);
        let mut moved = 0;
        let total = 2000;
        for i in 0..total {
            let key = format!("k{i}");
            let before = full.owner(&key);
            let after = reduced.owner(&key);
            if before != 2 {
                assert_eq!(before, after, "surviving nodes keep their keys");
            } else if before != after {
                moved += 1;
            }
        }
        assert!(moved > 0, "node 2's keys must be redistributed");
    }
}
