//! Deterministic convergence: an in-process cluster fed disjoint
//! streams must end up, on **every** replica, bit-for-bit identical to
//! one store fed the full stream — and once converged, delta sync must
//! go quiet (no echo ping-pong, nothing re-shipped for tier moves,
//! exactly one key shipped after one key changes).

use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_cluster::{ClusterClient, ClusterNode, HashRing, MemNetwork, NodeId};
use sketch_core::Sketch;
use sketch_store::SketchStore;
use std::sync::Arc;

/// Rounds of all-pairs delta sync after which a healthy cluster must
/// be quiescent (information needs ≤ diameter rounds to reach
/// everyone; versions settle one round later).
const MAX_ROUNDS: usize = 8;

fn setsketch_factory() -> impl Fn() -> SetSketch1 + Clone + Send + Sync + 'static {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    move || SetSketch1::new(config, 7)
}

/// Builds `n` nodes over one in-memory network, all from one factory.
fn cluster<S, F>(n: u32, factory: F) -> (Arc<MemNetwork>, Vec<Arc<ClusterNode<S>>>)
where
    S: Sketch,
    F: Fn() -> S + Clone + Send + Sync + 'static,
{
    let ids: Vec<NodeId> = (0..n).collect();
    let net = Arc::new(MemNetwork::new());
    let nodes: Vec<_> = ids
        .iter()
        .map(|&id| {
            let store = SketchStore::builder(factory.clone()).shards(4).build();
            Arc::new(ClusterNode::new(id, ids.iter().copied(), store))
        })
        .collect();
    for node in &nodes {
        net.register(Arc::clone(node));
    }
    (net, nodes)
}

/// Runs all-pairs sync rounds until a full round ships zero keys;
/// returns how many rounds that took. Panics (test failure) if the
/// cluster is still chattering after [`MAX_ROUNDS`].
fn sync_until_quiescent<S>(net: &Arc<MemNetwork>, nodes: &[Arc<ClusterNode<S>>]) -> usize
where
    S: sketch_cluster::ClusterSketch,
{
    for round in 1..=MAX_ROUNDS {
        let mut shipped = 0usize;
        for node in nodes {
            for (peer, report) in node.sync_round(&**net) {
                let report = report.unwrap_or_else(|e| panic!("sync with node {peer} failed: {e}"));
                shipped += report.keys_received;
            }
        }
        if shipped == 0 {
            return round;
        }
    }
    panic!("cluster still shipping keys after {MAX_ROUNDS} all-pairs rounds");
}

/// Asserts every replica holds exactly the reference's keys with
/// bit-for-bit identical sketch state.
fn assert_replicas_match_reference<S>(nodes: &[Arc<ClusterNode<S>>], reference: &SketchStore<S>)
where
    S: sketch_cluster::ClusterSketch + std::fmt::Debug,
{
    let mut expected = reference.keys();
    expected.sort_unstable();
    for node in nodes {
        let mut keys = node.store().keys();
        keys.sort_unstable();
        assert_eq!(keys, expected, "node {} key set diverged", node.id());
        for key in &expected {
            assert_eq!(
                node.store().get(key),
                reference.get(key),
                "node {} state of {key:?} diverged from the reference",
                node.id()
            );
        }
    }
}

/// Three nodes ingest disjoint thirds of one stream into the same key;
/// after sync every replica is register-identical to a single store
/// fed the whole stream.
#[test]
fn disjoint_streams_converge_bit_for_bit() {
    let factory = setsketch_factory();
    let (net, nodes) = cluster(3, factory.clone());
    let reference = SketchStore::builder(factory).shards(4).build();

    let per_node = 4_000u64;
    for (i, node) in nodes.iter().enumerate() {
        let slice: Vec<u64> = (i as u64 * per_node..(i as u64 + 1) * per_node).collect();
        node.store().ingest("events", &slice);
        reference.ingest("events", &slice);
    }

    let rounds = sync_until_quiescent(&net, &nodes);
    assert!(rounds <= MAX_ROUNDS);
    assert_replicas_match_reference(&nodes, &reference);

    // Convergence is semantic too: every replica answers the full
    // stream's cardinality with the reference's exact estimate.
    let expected = reference.cardinality("events").unwrap();
    for node in &nodes {
        assert_eq!(node.store().cardinality("events").unwrap(), expected);
    }
}

/// Client-routed ingest (consistent-hash owner per key) plus sync
/// converges every replica onto the reference, and fan-out queries
/// answer cluster-wide.
#[test]
fn routed_ingest_replicates_everywhere() {
    let factory = setsketch_factory();
    let (net, nodes) = cluster(3, factory.clone());
    let reference = SketchStore::builder(factory).shards(4).build();
    let ring = HashRing::new(&[0, 1, 2]);
    let client = ClusterClient::new(Arc::clone(&net), ring, nodes[0].store().empty_sketch());

    for user in 0..300u64 {
        let key = format!("cohort-{}", user % 7);
        client.ingest(&key, &[user]).unwrap();
        reference.ingest(&key, &[user]);
    }
    // Writes spread across owners: no node holds all 7 keys yet.
    assert!(nodes.iter().all(|n| n.store().len() < 7));

    sync_until_quiescent(&net, &nodes);
    assert_replicas_match_reference(&nodes, &reference);

    // Point reads, fan-out similarity and fan-out union all answer.
    let expected = reference.cardinality("cohort-0").unwrap();
    assert_eq!(client.cardinality("cohort-0").unwrap(), expected);
    let neighbors = client.similar_keys("cohort-0", 3, 0.0).unwrap();
    assert_eq!(neighbors.len(), 3);
    let expected_union = reference
        .merge_keys(&["cohort-0", "cohort-1", "cohort-2"])
        .unwrap()
        .cardinality();
    let union = client
        .union_cardinality(&["cohort-0", "cohort-1", "cohort-2"])
        .unwrap();
    assert_eq!(union, expected_union);
}

/// After convergence a second sync ships nothing, and mutating exactly
/// one key ships exactly that one key — the version floor prunes the
/// rest. This is the wire-cost contract the benchmark measures.
#[test]
fn delta_sync_ships_only_what_moved() {
    let factory = setsketch_factory();
    let (net, nodes) = cluster(2, factory);
    for k in 0..20u64 {
        nodes[0]
            .store()
            .ingest(&format!("key-{k}"), &[k * 100, k * 100 + 1]);
    }

    // First pull: everything ships.
    let report = nodes[1].sync_with(&*net, 0).unwrap();
    assert_eq!(report.keys_received, 20);
    assert_eq!(report.keys_changed, 20);

    // Node 0 pulls back: node 1's merges created fresh local versions,
    // so the keys ship once more — but change nothing on node 0 ...
    let echo = nodes[0].sync_with(&*net, 1).unwrap();
    assert_eq!(echo.keys_received, 20);
    assert_eq!(echo.keys_changed, 0);
    // ... and because unchanged merges do NOT bump versions, the echo
    // dies immediately: both directions are now silent.
    assert_eq!(nodes[1].sync_with(&*net, 0).unwrap().keys_received, 0);
    assert_eq!(nodes[0].sync_with(&*net, 1).unwrap().keys_received, 0);

    // One key moves; exactly one key ships.
    nodes[0].store().ingest("key-7", &[999_999]);
    let delta = nodes[1].sync_with(&*net, 0).unwrap();
    assert_eq!(delta.keys_received, 1);
    assert_eq!(delta.keys_changed, 1);
    assert_eq!(nodes[1].sync_with(&*net, 0).unwrap().keys_received, 0);
}

/// Tier demotions/promotions rearrange how registers are stored, not
/// what they say — so a store under heavy tier churn ships nothing
/// new after convergence.
#[test]
fn tier_churn_ships_nothing() {
    let factory = setsetch_tiered_factory();
    let ids = [0u32, 1];
    let net = Arc::new(MemNetwork::new());
    // Node 0 runs under maximal demotion pressure; node 1 is plain.
    let store0 = SketchStore::builder(factory.clone())
        .shards(4)
        .memory_budget_bytes(1)
        .build();
    let store1 = SketchStore::builder(factory).shards(4).build();
    let node0 = Arc::new(ClusterNode::new(0, ids, store0));
    let node1 = Arc::new(ClusterNode::new(1, ids, store1));
    net.register(Arc::clone(&node0));
    net.register(Arc::clone(&node1));

    for k in 0..12u64 {
        node0
            .store()
            .ingest(&format!("cold-{k}"), &[k, k + 50, k + 500]);
    }
    let first = node1.sync_with(&*net, 0).unwrap();
    assert_eq!(first.keys_received, 12);

    // Force tier churn on node 0: reads promote cold slots back to
    // hot, maintenance demotes them again. No register changes.
    for k in 0..12u64 {
        let key = format!("cold-{k}");
        let _ = node0.store().get(&key);
        let _ = node0.store().cardinality(&key);
    }

    let after_churn = node1.sync_with(&*net, 0).unwrap();
    assert_eq!(
        after_churn.keys_received, 0,
        "tier moves must not re-ship keys"
    );
}

fn setsetch_tiered_factory() -> impl Fn() -> SetSketch1 + Clone + Send + Sync + 'static {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    move || SetSketch1::new(config, 11)
}

/// One step of a generated cluster workload.
#[derive(Debug, Clone)]
enum Op {
    /// Node `node` locally ingests `len` elements from `start` into
    /// key number `key`.
    Ingest {
        node: usize,
        key: usize,
        start: u64,
        len: u64,
    },
    /// One all-pairs sync round, mid-stream.
    SyncRound,
}

fn decode_op((kind, packed, start, len): (u8, usize, u64, u64)) -> Op {
    // `packed` carries node (÷5) and key (%5) in one value: the
    // vendored proptest shim caps tuples at four elements.
    match kind {
        0..=5 => Op::Ingest {
            node: (packed / 5) % 3,
            key: packed % 5,
            start,
            len,
        },
        _ => Op::SyncRound,
    }
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec((0u8..8, 0usize..15, 0u64..10_000, 1u64..60), 1..40)
        .prop_map(|raw| raw.into_iter().map(decode_op).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of per-node ingests and mid-stream sync rounds
    /// converges every replica onto the single-store reference,
    /// bit-for-bit, for every generated script.
    #[test]
    fn generated_workloads_converge(ops in ops_strategy()) {
        let factory = setsketch_factory();
        let (net, nodes) = cluster(3, factory.clone());
        let reference = SketchStore::builder(factory).shards(4).build();

        for op in &ops {
            match op {
                Op::Ingest { node, key, start, len } => {
                    let batch: Vec<u64> = (*start..start + len).collect();
                    let name = format!("k{key}");
                    nodes[*node].store().ingest(&name, &batch);
                    reference.ingest(&name, &batch);
                }
                Op::SyncRound => {
                    for node in &nodes {
                        for (_, report) in node.sync_round(&*net) {
                            prop_assert!(report.is_ok());
                        }
                    }
                }
            }
        }

        sync_until_quiescent(&net, &nodes);

        let mut expected = reference.keys();
        expected.sort_unstable();
        for node in &nodes {
            let mut keys = node.store().keys();
            keys.sort_unstable();
            prop_assert_eq!(&keys, &expected);
            for key in &expected {
                prop_assert_eq!(
                    node.store().get(key),
                    reference.get(key),
                    "node {} state of {} diverged",
                    node.id(),
                    key
                );
            }
        }
    }
}
