//! State transfer between nodes. There is one path — paged delta
//! pulls — so one driver runs it under a table of faults, at 64-byte
//! pages (a key or two each) and at the default page budget
//! (everything in one page). Every cell ends in bit-for-bit store
//! equality across the cluster and high-water marks that never moved
//! backwards.

use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_cluster::{
    ClusterError, ClusterNode, ClusterSketch, FaultPlan, FaultyTransport, HealthPolicy, MemNetwork,
    Message, NodeId, Resilient, RetryPolicy, Transport,
};
use sketch_store::SketchStore;
use std::sync::Arc;
use std::time::Duration;

/// The product's page budget (`PAGE_BUDGET_BYTES` in `node.rs`, private
/// there because nothing may set it).
const DEFAULT_PAGE_BYTES: usize = 4 << 20;

/// What one shipped entry costs a page: key, payload and 16 bytes of
/// fixed fields.
fn entry_cost(key: &str, payload: &[u8]) -> usize {
    key.len() + payload.len() + 16
}

type Node = Arc<ClusterNode<SetSketch1>>;

/// Shrinks the page budget of every pull passing through — the product
/// has no knob for it, so a test rewrites the request — and notes, per
/// delta reply, its entries' bytes and the last entry's share of them.
struct Pages<T> {
    inner: T,
    page_bytes: u32,
    seen: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl<T> Pages<T> {
    fn new(inner: T, page_bytes: u32) -> Self {
        Pages {
            inner,
            page_bytes,
            seen: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The effective budget: what was asked for, capped by the donor.
    fn budget(&self) -> usize {
        (self.page_bytes as usize).min(DEFAULT_PAGE_BYTES)
    }

    /// Panics unless every reply stayed within the budget plus one
    /// entry. Returns how many replies carried entries.
    fn assert_bounded(&self) -> usize {
        let seen = self.seen.lock().unwrap();
        for &(bytes, last) in seen.iter() {
            assert!(
                bytes - last < self.budget(),
                "a {bytes}-byte page (last entry {last}) overran the {}-byte budget by more than one entry",
                self.budget()
            );
        }
        seen.len()
    }
}

impl<T: Transport> Transport for Pages<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let response = match message {
            Message::DeltaRequest { after, page_bytes } => self.inner.request(
                peer,
                &Message::DeltaRequest {
                    after: *after,
                    page_bytes: (*page_bytes).min(self.page_bytes),
                },
            )?,
            other => self.inner.request(peer, other)?,
        };
        if let Message::Delta { entries, .. } = &response {
            if let Some(last) = entries.last() {
                let bytes = entries
                    .iter()
                    .map(|entry| entry_cost(&entry.key, &entry.payload))
                    .sum();
                self.seen
                    .lock()
                    .unwrap()
                    .push((bytes, entry_cost(&last.key, &last.payload)));
            }
        }
        Ok(response)
    }
}

/// Flips one bit in the middle of every delta page with entries that
/// `peer` sends, on the encoded bytes — damage in flight, as the frame
/// decoder sees it.
struct BitFlip<T> {
    inner: T,
    peer: NodeId,
}

impl<T: Transport> Transport for BitFlip<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let response = self.inner.request(peer, message)?;
        match &response {
            Message::Delta { entries, .. } if peer == self.peer && !entries.is_empty() => {
                let mut bytes = response.encode();
                let middle = bytes.len() / 2;
                bytes[middle] ^= 0x10;
                Ok(Message::decode(&bytes)?)
            }
            _ => Ok(response),
        }
    }
}

/// `count` nodes on one in-memory network. Nodes 0 and 1 carry the
/// same seven keys (synced with each other); the rest start empty.
fn seeded_cluster(count: u32) -> (Arc<MemNetwork>, Vec<Node>) {
    let ids: Vec<NodeId> = (0..count).collect();
    let net = Arc::new(MemNetwork::new());
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let nodes: Vec<Node> = ids
        .iter()
        .map(|&id| {
            let store = SketchStore::builder(move || SetSketch1::new(config, 5))
                .shards(4)
                .build();
            Arc::new(ClusterNode::new(id, ids.iter().copied(), store))
        })
        .collect();
    for node in &nodes {
        net.register(Arc::clone(node));
    }
    for key in 0..6u64 {
        let name = format!("stream-{key}");
        let elements: Vec<u64> = (0..400).map(|j| key * 1_000 + j).collect();
        nodes[0].store().ingest(&name, &elements);
    }
    nodes[1].store().ingest("solo-1", &[7, 8, 9]);
    nodes[0].sync_with(&net, 1).unwrap();
    nodes[1].sync_with(&net, 0).unwrap();
    (net, nodes)
}

fn assert_same_state<S: ClusterSketch + std::fmt::Debug>(a: &ClusterNode<S>, b: &ClusterNode<S>) {
    let mut left = a.store().keys();
    left.sort_unstable();
    let mut right = b.store().keys();
    right.sort_unstable();
    assert_eq!(left, right, "key sets diverged");
    for key in &left {
        assert_eq!(
            a.store().get(key),
            b.store().get(key),
            "state of {key:?} diverged"
        );
    }
}

fn marks(node: &Node) -> Vec<u64> {
    node.peers()
        .iter()
        .map(|&peer| node.high_water(peer))
        .collect()
}

/// A retrying transport that never sleeps.
fn retrying<T: Transport>(inner: T) -> Resilient<T> {
    let retry = RetryPolicy {
        base_backoff: Duration::ZERO,
        ..RetryPolicy::default()
    };
    Resilient::with_policies(inner, retry, HealthPolicy::default())
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// Nothing goes wrong.
    Clean,
    /// One page is lost; the retry asks for it again from the mark.
    PageDropped,
    /// Requests are delivered twice and old replies come back in place
    /// of fresh ones.
    PageDuplicatedOrStale,
    /// Donor 0's pages arrive with a flipped bit.
    PageBitFlipped,
    /// Donor 0 stops answering after its second page.
    DonorDies,
    /// The receiver already holds state of its own.
    NonEmptyReceiver,
}

/// Node 2 catches up from its peers `[0, 1]`, in that order, under
/// `fault`, once per page
/// size, and the cluster must end identical.
fn transfer(fault: Fault) {
    for page_bytes in [64, u32::MAX] {
        let small = page_bytes == 64;
        let (net, nodes) = seeded_cluster(3);
        let joiner = &nodes[2];
        if fault == Fault::NonEmptyReceiver {
            joiner.store().ingest("local-only", &[42, 43]);
            joiner.store().ingest("stream-0", &[900_001, 900_002]);
            assert!(!joiner.needs_bootstrap());
        } else {
            assert!(joiner.needs_bootstrap());
        }
        let before = marks(joiner);
        let pages = Pages::new(Arc::clone(&net), page_bytes);
        let plan = match fault {
            Fault::PageDuplicatedOrStale => FaultPlan {
                drop: 0.0,
                stale_replay: 0.3,
                duplicate: 0.3,
            },
            _ => FaultPlan::none(),
        };
        let faulty = FaultyTransport::new(&pages, plan, 0x57A1E);
        if matches!(fault, Fault::PageDropped | Fault::DonorDies) {
            faulty.cut_after(0, if small { 2 } else { 0 });
        }

        let report = match fault {
            // The retry asks for the lost page again; without one the
            // same loss costs the donor (`DonorDies`).
            Fault::PageDropped => joiner.bootstrap(&retrying(&faulty)),
            Fault::PageBitFlipped => {
                let damaged = BitFlip {
                    inner: &faulty,
                    peer: 0,
                };
                // The checksum refuses the page before anything is
                // merged: nothing lands, the mark does not move.
                let error = joiner.sync_with(&damaged, 0).unwrap_err();
                assert!(matches!(error, ClusterError::Wire(_)), "{error}");
                assert!(joiner.store().is_empty());
                assert_eq!(marks(joiner), before);
                assert!(joiner.last_bootstrap().is_none());
                joiner.bootstrap(&damaged)
            }
            _ => joiner.bootstrap(&faulty),
        };
        let report = report.unwrap_or_else(|error| panic!("{fault:?}/{page_bytes}: {error}"));
        if matches!(fault, Fault::PageDropped | Fault::DonorDies) {
            assert_eq!(faulty.faults_injected(), 1);
        }

        let replies = pages.assert_bounded();
        match fault {
            Fault::PageBitFlipped | Fault::DonorDies => {
                assert_eq!(report.donor, 1, "{fault:?}: {report}");
                assert_eq!(report.failed_donors, vec![0]);
            }
            _ => {
                assert_eq!(report.donor, 0, "{fault:?}: {report}");
                assert!(report.failed_donors.is_empty(), "{report}");
            }
        }
        assert!(report.keys >= 7, "{fault:?}: {report}");
        if small {
            assert!(
                report.pages > 2,
                "a cut after page 2 must be mid-transfer: {report}"
            );
            assert!(replies > 2);
        } else {
            assert_eq!(report.pages, 1, "{fault:?}: {report}");
        }
        assert_eq!(joiner.last_bootstrap(), Some(report.clone()));
        assert_eq!(joiner.high_water(report.donor), report.donor_epoch);
        // The other peer's mark was fast-forwarded to its epoch.
        let other = 1 - report.donor;
        assert_eq!(
            joiner.high_water(other),
            nodes[other as usize].store().write_epoch()
        );

        if fault == Fault::PageDuplicatedOrStale {
            // Keep pulling through the same confusion: later rounds
            // have a history of old replies to be handed.
            for round in 0..6u64 {
                nodes[0]
                    .store()
                    .ingest(&format!("late-{round}"), &[round, round + 1]);
                nodes[1].sync_with(&net, 0).unwrap();
                for (peer, outcome) in joiner.sync_round(&faulty) {
                    outcome.unwrap_or_else(|error| panic!("pull from {peer}: {error}"));
                }
            }
            assert!(faulty.faults_injected() > 0);
        }

        // Writes after the catch-up arrive through ordinary delta
        // sync, and whatever the joiner held flows back the same way.
        nodes[0].store().ingest("post-transfer", &[1, 2, 3]);
        for _ in 0..2 {
            for node in &nodes {
                for (peer, outcome) in node.sync_round(&net) {
                    outcome.unwrap_or_else(|error| panic!("pull from {peer}: {error}"));
                }
            }
        }
        assert_same_state(&nodes[0], &nodes[1]);
        assert_same_state(&nodes[0], &nodes[2]);
        if fault == Fault::NonEmptyReceiver {
            assert!(nodes[0].store().contains_key("local-only"));
        }
        for (now, was) in marks(joiner).iter().zip(&before) {
            assert!(now >= was, "{fault:?}: a mark moved backwards");
        }
    }
}

#[test]
fn cold_node_bootstraps_and_converges() {
    transfer(Fault::Clean);
}

#[test]
fn bootstrap_resumes_after_midstream_cut() {
    transfer(Fault::PageDropped);
}

#[test]
fn duplicated_and_stale_pages_are_asked_for_again() {
    transfer(Fault::PageDuplicatedOrStale);
}

#[test]
fn corrupt_snapshot_rolls_back_and_fails_over() {
    transfer(Fault::PageBitFlipped);
}

#[test]
fn donor_failover_midstream() {
    transfer(Fault::DonorDies);
}

#[test]
fn bootstrap_merges_into_nonempty_store() {
    transfer(Fault::NonEmptyReceiver);
}

/// Notes the peer of every request that reaches the network.
struct Tally<T> {
    inner: T,
    requests: std::sync::Mutex<Vec<NodeId>>,
}

impl<T: Transport> Transport for Tally<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        self.requests.lock().unwrap().push(peer);
        self.inner.request(peer, message)
    }
}

/// Bootstrap asks its peers in list order, and under `Resilient` a peer
/// that just failed is suspect: until its half-open probe is due it
/// fails locally, so the catch-up comes from the next peer and the
/// suspect sees no request at all — the donor choice a health ranking
/// would make, without one.
#[test]
fn suspect_donor_is_passed_over_without_a_request() {
    let (net, nodes) = seeded_cluster(3);
    let joiner = &nodes[2];
    assert_eq!(joiner.peers(), &[0, 1]);
    let tally = Tally {
        inner: Arc::clone(&net),
        requests: std::sync::Mutex::new(Vec::new()),
    };
    let faulty = FaultyTransport::new(&tally, FaultPlan::none(), 7);
    let resilient = Resilient::with_policies(
        &faulty,
        RetryPolicy::none(),
        HealthPolicy {
            suspect_after: 1,
            probe_after: Duration::from_secs(3600),
        },
    );

    // Peer 0 times out once and is suspect; then it is reachable again,
    // but its probe is an hour away.
    faulty.partition(0);
    let probe = Message::DeltaRequest {
        after: u64::MAX,
        page_bytes: 0,
    };
    assert!(resilient.request(0, &probe).is_err());
    assert!(resilient.is_suspect(0));
    faulty.heal_all();
    tally.requests.lock().unwrap().clear();

    let report = joiner.bootstrap(&resilient).unwrap();
    assert_eq!(report.donor, 1, "{report}");
    assert_eq!(report.failed_donors, vec![0]);
    let requests = tally.requests.lock().unwrap().clone();
    assert!(!requests.is_empty());
    assert!(
        requests.iter().all(|&peer| peer == 1),
        "the suspect peer was asked: {requests:?}"
    );
    assert_eq!(joiner.last_bootstrap(), Some(report));
    assert_same_state(&nodes[1], joiner);
}

fn wide_store() -> SketchStore<SetSketch2> {
    let config = SetSketchConfig::example_16bit();
    SketchStore::builder(move || SetSketch2::new(config, 9)).build()
}

/// One well-filled sketch of [`wide_store`]'s configuration. Tests that
/// need kilobytes per key `put` clones of it: filling every key by
/// ingest would take far longer than the transfer under test.
fn filled_sketch() -> SetSketch2 {
    let mut sketch = SetSketch2::new(SetSketchConfig::example_16bit(), 9);
    for element in 0..20_000u64 {
        sketch.insert_u64(element);
    }
    sketch
}

/// The point of catching up from one donor: the joiner receives about
/// that donor's compact state once, where a gossip-only rejoin pulls
/// the full state from every peer. A gossiping node does it by itself
/// on its first tick.
#[test]
fn bootstrap_beats_full_pull_on_bytes() {
    let ids: [NodeId; 4] = [0, 1, 2, 3];
    let net = Arc::new(MemNetwork::new());
    let nodes: Vec<Arc<ClusterNode<SetSketch2>>> = ids
        .iter()
        .map(|&id| Arc::new(ClusterNode::new(id, ids, wide_store())))
        .collect();
    for node in &nodes {
        net.register(Arc::clone(node));
    }
    let filled = filled_sketch();
    for key in 0..12u64 {
        nodes[0]
            .store()
            .put(&format!("stream-{key}"), filled.clone());
    }
    nodes[1].sync_with(&net, 0).unwrap();
    let compact_state = 12 * filled.compress().len() as u64;

    // A gossip tick on an empty node: one donor's state, the other
    // peers' marks adopted, no second full pull.
    net.reset_stats();
    for (peer, outcome) in nodes[2].gossip_tick(&net) {
        let pull = outcome.unwrap_or_else(|error| panic!("pull from {peer}: {error}"));
        assert_eq!(
            pull.keys_received, 0,
            "the round after catch-up ships nothing"
        );
    }
    let report = nodes[2]
        .last_bootstrap()
        .expect("the first tick bootstraps");
    assert_eq!((report.donor, report.keys), (0, 12));
    assert_eq!(report.bytes, compact_state);
    let received = net.stats().response_bytes;
    assert!(
        received * 100 <= compact_state * 105,
        "an empty node received {received} bytes for {compact_state} bytes of donor state"
    );
    for peer in [1, 3] {
        assert_eq!(
            nodes[2].high_water(peer),
            nodes[peer as usize].store().write_epoch()
        );
    }
    assert_same_state(&nodes[2], &nodes[0]);

    // A gossip-only rejoin: a plain sync round on a fresh node pulls
    // everything from every peer that has it.
    net.reset_stats();
    for (peer, outcome) in nodes[3].sync_round(&net) {
        outcome.unwrap_or_else(|error| panic!("pull from {peer}: {error}"));
    }
    let gossip_bytes = net.stats().response_bytes;
    assert_same_state(&nodes[3], &nodes[0]);
    assert!(
        received * 2 < gossip_bytes,
        "one-donor catch-up moved {received} bytes, full-pull rejoin {gossip_bytes}"
    );
}

/// A donor holding more than one page budget of state is pulled in at
/// least two exchanges, no reply exceeds the budget by more than one
/// entry, and the receiver still ends bit-for-bit equal. (With one
/// unbounded frame per pull this is a single exchange, and past the
/// frame limit one that can never be read.)
#[test]
fn more_than_one_page_takes_more_than_one_exchange() {
    let net = Arc::new(MemNetwork::new());
    let donor = Arc::new(ClusterNode::new(0, [0, 1], wide_store()));
    let receiver = Arc::new(ClusterNode::new(1, [0, 1], wide_store()));
    net.register(Arc::clone(&donor));
    net.register(Arc::clone(&receiver));

    let filled = filled_sketch();
    let per_key = entry_cost("key-0000", &filled.compress());
    let keys = DEFAULT_PAGE_BYTES / per_key + 40;
    for key in 0..keys {
        donor.store().put(&format!("key-{key:04}"), filled.clone());
    }

    let pages = Pages::new(Arc::clone(&net), u32::MAX);
    let pull = receiver.sync_with(&pages, 0).unwrap();
    assert_eq!(pull.keys_received, keys);
    assert_eq!(pull.pages, 2, "{pull:?}");
    assert_eq!(pages.assert_bounded(), 2);
    assert_eq!(net.stats().exchanges, 2);
    assert_eq!(pull.up_to, donor.store().write_epoch());
    assert_same_state(&receiver, &donor);
    // Caught up: the next pull is one empty page.
    let echo = receiver.sync_with(&pages, 0).unwrap();
    assert_eq!((echo.pages, echo.keys_received), (1, 0));
}
