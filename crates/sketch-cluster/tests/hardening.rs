//! Failure-hardened I/O: socket deadlines against stalled peers,
//! bounded retries, suspicion with half-open probes, degraded fan-out,
//! and the protocol-version handshake on real sockets.

use parking_lot::Mutex;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_cluster::wire::{write_frame, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use sketch_cluster::{
    ClusterClient, ClusterError, ClusterNode, ErrorCode, FaultPlan, FaultyTransport, HashRing,
    HealthPolicy, MemNetwork, Message, NodeId, Resilient, RetryPolicy, TcpServer, TcpTransport,
    Transport, WireNeighbor,
};
use sketch_rand::{Rng64, WyRand};
use sketch_store::SketchStore;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn factory() -> impl Fn() -> SetSketch1 + Clone + Send + Sync + 'static {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    move || SetSketch1::new(config, 13)
}

fn node(id: u32, ids: [u32; 3]) -> Arc<ClusterNode<SetSketch1>> {
    let store = SketchStore::builder(factory()).shards(4).build();
    Arc::new(ClusterNode::new(id, ids, store))
}

/// The acceptance bound: a listener that accepts connections and then
/// never answers must delay a gossip tick by at most the configured
/// socket deadlines, not wedge it forever.
#[test]
fn stalled_listener_delays_a_tick_by_at_most_the_deadline() {
    // A black hole: accepts every connection, reads nothing, writes
    // nothing, keeps the sockets open so the client blocks in read.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stalled_addr = listener.local_addr().unwrap();
    let park = Arc::new(AtomicBool::new(true));
    let park_flag = Arc::clone(&park);
    let hole = std::thread::spawn(move || {
        listener.set_nonblocking(true).unwrap();
        let mut held = Vec::new();
        while park_flag.load(Ordering::Acquire) {
            if let Ok((stream, _)) = listener.accept() {
                held.push(stream);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    });

    let deadline = Duration::from_millis(300);
    let transport = TcpTransport::with_deadline(deadline);
    transport.add_peer(9, stalled_addr);

    let gossiper = node(0, [0, 0, 9]);
    let started = Instant::now();
    let results = gossiper.sync_round(&transport);
    let elapsed = started.elapsed();

    let (_, outcome) = results.into_iter().find(|&(peer, _)| peer == 9).unwrap();
    let error = outcome.expect_err("a stalled peer cannot answer");
    assert!(error.is_transient(), "stall surfaced as {error}");
    // One exchange = connect + write + read, each bounded by
    // `deadline`; generous slack for a loaded CI box.
    assert!(
        elapsed < deadline * 3 + Duration::from_secs(1),
        "gossip tick took {elapsed:?} against a stalled listener (deadline {deadline:?})"
    );

    park.store(false, Ordering::Release);
    hole.join().unwrap();
}

/// A transport that fails a scripted number of times, then answers.
struct Flaky {
    failures_left: Mutex<u32>,
    calls: AtomicU32,
}

impl Flaky {
    fn failing(times: u32) -> Self {
        Flaky {
            failures_left: Mutex::new(times),
            calls: AtomicU32::new(0),
        }
    }
}

impl Transport for Flaky {
    fn request(&self, _peer: u32, _message: &Message) -> Result<Message, ClusterError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut left = self.failures_left.lock();
        if *left > 0 {
            *left -= 1;
            return Err(ClusterError::Transport("injected".into()));
        }
        Ok(Message::Ack)
    }
}

#[test]
fn retries_absorb_transient_blips() {
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 7,
    };
    let resilient = Resilient::with_policies(Flaky::failing(2), retry, HealthPolicy::default());

    // Two failures fit inside a three-attempt budget: the caller never
    // sees them, and the peer's health is untouched.
    let response = resilient.request(1, &Message::Shutdown).unwrap();
    assert_eq!(response, Message::Ack);
    assert_eq!(resilient.inner().calls.load(Ordering::SeqCst), 3);
    assert_eq!(resilient.consecutive_failures(1), 0);
    assert!(!resilient.is_suspect(1));
}

#[test]
fn exhausted_retries_surface_the_transport_error() {
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        jitter_seed: 7,
    };
    let resilient =
        Resilient::with_policies(Flaky::failing(u32::MAX), retry, HealthPolicy::default());

    let error = resilient.request(1, &Message::Shutdown).unwrap_err();
    assert!(matches!(error, ClusterError::Transport(_)));
    assert_eq!(resilient.inner().calls.load(Ordering::SeqCst), 2);
    // The whole exchange counts as ONE failure toward suspicion, not
    // one per attempt.
    assert_eq!(resilient.consecutive_failures(1), 1);
}

/// A transport that is down until flipped up, counting inner calls so
/// the test can prove fail-fast requests never touch the network.
struct Switchable {
    up: AtomicBool,
    calls: AtomicU32,
}

impl Transport for Switchable {
    fn request(&self, _peer: u32, _message: &Message) -> Result<Message, ClusterError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.up.load(Ordering::SeqCst) {
            Ok(Message::Ack)
        } else {
            Err(ClusterError::Transport("down".into()))
        }
    }
}

#[test]
fn suspicion_fails_fast_and_half_open_probes_recover() {
    let retry = RetryPolicy::none();
    let health = HealthPolicy {
        suspect_after: 2,
        probe_after: Duration::from_millis(50),
    };
    let resilient = Resilient::with_policies(
        Switchable {
            up: AtomicBool::new(false),
            calls: AtomicU32::new(0),
        },
        retry,
        health,
    );
    let calls = || resilient.inner().calls.load(Ordering::SeqCst);

    // Two consecutive failures arm suspicion.
    assert!(resilient.request(4, &Message::Shutdown).is_err());
    assert!(resilient.request(4, &Message::Shutdown).is_err());
    assert!(resilient.is_suspect(4));
    assert_eq!(resilient.suspects(), vec![4]);
    assert_eq!(calls(), 2);

    // While suspect, requests are refused locally — no network I/O.
    match resilient.request(4, &Message::Shutdown) {
        Err(ClusterError::Suspect(peer)) => assert_eq!(peer, 4),
        other => panic!("expected fail-fast Suspect, got {other:?}"),
    }
    assert_eq!(calls(), 2, "suspect request touched the network");

    // After the probe window one half-open attempt goes through; the
    // peer is still down, so suspicion re-arms.
    std::thread::sleep(Duration::from_millis(60));
    assert!(matches!(
        resilient.request(4, &Message::Shutdown),
        Err(ClusterError::Transport(_))
    ));
    assert_eq!(calls(), 3);
    assert!(matches!(
        resilient.request(4, &Message::Shutdown),
        Err(ClusterError::Suspect(_))
    ));
    assert_eq!(calls(), 3);

    // Peer comes back: the next probe succeeds and clears suspicion.
    resilient.inner().up.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(
        resilient.request(4, &Message::Shutdown).unwrap(),
        Message::Ack
    );
    assert!(!resilient.is_suspect(4));
    assert_eq!(resilient.consecutive_failures(4), 0);

    // Healthy again: full-speed exchanges, no probe gating.
    assert_eq!(
        resilient.request(4, &Message::Shutdown).unwrap(),
        Message::Ack
    );
}

#[test]
fn gossip_skips_suspect_peers_instead_of_wedging() {
    let ids = [0u32, 1, 2];
    let net = Arc::new(MemNetwork::new());
    let nodes: Vec<_> = ids.iter().map(|&id| node(id, ids)).collect();
    for n in &nodes {
        net.register(Arc::clone(n));
    }

    // Node 0 reaches the network through fault injection (node 2
    // partitioned away) under a Resilient wrapper that suspects after
    // two consecutive failures.
    let faulty = FaultyTransport::new(Arc::clone(&net), FaultPlan::none(), 11);
    faulty.partition(2);
    let resilient = Resilient::with_policies(
        faulty,
        RetryPolicy::none(),
        HealthPolicy {
            suspect_after: 2,
            probe_after: Duration::from_secs(3600),
        },
    );

    nodes[0].store().ingest("events", &[1, 2, 3]);
    for _ in 0..2 {
        let _ = nodes[0].gossip_tick(&resilient);
    }
    assert!(resilient.is_suspect(2), "partitioned peer never suspected");

    // Subsequent ticks fail the dead peer fast (Suspect, no network
    // attempt) while the live peer still syncs.
    let results = nodes[0].sync_round(&resilient);
    for (peer, outcome) in results {
        match (peer, outcome) {
            (1, Ok(_)) => {}
            (2, Err(ClusterError::Suspect(suspect))) => assert_eq!(suspect, 2),
            (peer, outcome) => panic!("peer {peer}: unexpected outcome {outcome:?}"),
        }
    }
}

#[test]
fn degraded_fanout_reports_the_skipped_nodes() {
    let ids = [0u32, 1, 2];
    let net = Arc::new(MemNetwork::new());
    let nodes: Vec<_> = ids.iter().map(|&id| node(id, ids)).collect();
    for n in &nodes {
        net.register(Arc::clone(n));
    }
    for n in &nodes {
        for user in 0..500u64 {
            n.store().ingest("events", &[user]);
            n.store().ingest("sessions", &[user / 2]);
        }
    }

    let faulty = FaultyTransport::new(Arc::clone(&net), FaultPlan::none(), 5);
    let client = ClusterClient::new(faulty, HashRing::new(&ids), nodes[0].store().empty_sketch());

    // Full coverage first: nothing skipped.
    let full = client
        .union_cardinality_detailed(&["events", "sessions"])
        .unwrap();
    assert!(!full.degraded);
    assert!(full.skipped.is_empty());

    // Partition one replica: the fan-out still answers (every node
    // holds every key) but flags the hole in coverage.
    client.transport().partition(2);
    let partial = client
        .union_cardinality_detailed(&["events", "sessions"])
        .unwrap();
    assert!(partial.degraded);
    assert_eq!(partial.skipped, vec![2]);
    assert!((partial.value / full.value - 1.0).abs() < 1e-9);

    let neighbors = client.similar_keys_detailed("events", 4, 0.0).unwrap();
    assert!(neighbors.degraded);
    assert_eq!(neighbors.skipped, vec![2]);
    assert!(neighbors.value.iter().any(|n| n.key == "sessions"));

    // Healed: coverage is whole again.
    client.transport().heal_all();
    let healed = client
        .union_cardinality_detailed(&["events", "sessions"])
        .unwrap();
    assert!(!healed.degraded);
}

/// A `k` beyond `u32::MAX` saturates on the wire instead of wrapping:
/// a truncating cast turned `1 << 32` into 0 and every node answered
/// with no neighbours. Saturated, each node is asked for `u32::MAX`,
/// which it must serve without sizing a buffer by it.
#[cfg(target_pointer_width = "64")]
#[test]
fn a_k_beyond_u32_saturates_on_the_wire() {
    let ids = [0u32, 1, 2];
    let net = Arc::new(MemNetwork::new());
    let nodes: Vec<_> = ids.iter().map(|&id| node(id, ids)).collect();
    for n in &nodes {
        net.register(Arc::clone(n));
        for user in 0..300u64 {
            n.store().ingest("events", &[user]);
            n.store().ingest("sessions", &[user / 2]);
            n.store().ingest("orders", &[user + 100]);
        }
    }
    let client = ClusterClient::new(
        Arc::clone(&net),
        HashRing::new(&ids),
        nodes[0].store().empty_sketch(),
    );
    let every = client
        .similar_keys_detailed("events", 1 << 32, 0.0)
        .unwrap();
    assert!(!every.degraded);
    let ranked = client.similar_keys("events", 2, 0.0).unwrap();
    assert_eq!(ranked.len(), 2, "both other keys rank");
    assert_eq!(every.value, ranked);
}

/// A transport whose nodes answer every request with one fixed reply.
struct Canned(Vec<(NodeId, Message)>);

impl Transport for Canned {
    fn request(&self, peer: NodeId, _: &Message) -> Result<Message, ClusterError> {
        self.0
            .iter()
            .find(|&&(node, _)| node == peer)
            .map(|(_, reply)| reply.clone())
            .ok_or(ClusterError::UnknownPeer(peer))
    }
}

/// 32 neighbors with seeded Jaccards in [0, 1), about one in four NaN.
/// Seed 0's list is one that a merge sorting by
/// `partial_cmp(..).unwrap_or(Equal)` panics on ("does not implement a
/// total order") rather than merely misorders.
fn neighbors_with_nans(seed: u64) -> Vec<WireNeighbor> {
    let mut rng = WyRand::new(seed);
    (0..32)
        .map(|i| {
            let jaccard = if rng.next_u64() % 4 == 0 {
                f64::NAN
            } else {
                rng.unit_exclusive()
            };
            WireNeighbor::new(format!("key-{i:02}"), jaccard)
        })
        .collect()
}

/// A peer's Jaccard is decoded from raw bits, so it can be anything. A
/// neighbor outside [0, 1] makes that node's answer a protocol error:
/// it contributes nothing to the top-k and, like an error frame, is not
/// a skip.
#[test]
fn a_neighbor_outside_the_unit_interval_is_a_bad_answer() {
    let prototype = || SetSketch1::new(SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap(), 13);

    // The only node answers NaNs: nobody answered, and the query fails
    // typed instead of panicking in the merge.
    let alone = ClusterClient::new(
        Canned(vec![(
            0,
            Message::Neighbors {
                items: neighbors_with_nans(0),
            },
        )]),
        HashRing::new(&[0]),
        prototype(),
    );
    match alone.similar_keys_detailed("query", 32, 0.0) {
        Err(ClusterError::Protocol(detail)) => {
            assert!(detail.contains("outside [0, 1]"), "{detail}")
        }
        other => panic!("a NaN answer surfaced as {other:?}"),
    }

    // Beside a sound node, the bad answer is dropped whole — including
    // its better score for "a" — and the sound answer is ranked by
    // Jaccard, ties by key.
    let sound = vec![
        WireNeighbor::new("b".into(), 0.5),
        WireNeighbor::new("a".into(), 0.5),
        WireNeighbor::new("c".into(), 0.9),
    ];
    for bad in [f64::NAN, 1.5, -0.25, f64::INFINITY] {
        let client = ClusterClient::new(
            Canned(vec![
                (
                    0,
                    Message::Neighbors {
                        items: vec![
                            WireNeighbor::new("a".into(), 1.0),
                            WireNeighbor::new("d".into(), bad),
                        ],
                    },
                ),
                (
                    1,
                    Message::Neighbors {
                        items: sound.clone(),
                    },
                ),
            ]),
            HashRing::new(&[0, 1]),
            prototype(),
        );
        let answer = client.similar_keys_detailed("query", 8, 0.0).unwrap();
        assert!(!answer.degraded, "{bad}: a bad answer is not a skip");
        assert!(answer.skipped.is_empty());
        let ranked: Vec<(&str, f64)> = answer
            .value
            .iter()
            .map(|n| (n.key.as_str(), n.jaccard()))
            .collect();
        assert_eq!(ranked, [("c", 0.9), ("a", 0.5), ("b", 0.5)], "{bad}");
    }
}

/// Old-format and future-version frames get a typed `Unsupported`
/// refusal from a live server instead of a hang or a reset.
#[test]
fn version_mismatch_gets_a_typed_refusal_over_tcp() {
    let server_node = node(0, [0, 0, 0]);
    let server = TcpServer::serve(Arc::clone(&server_node), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // A pre-handshake client: bare [len][payload] framing.
    let payload = Message::Cardinality {
        key: "events".into(),
    }
    .encode();
    let mut old_style = (payload.len() as u32).to_le_bytes().to_vec();
    old_style.extend_from_slice(&payload);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&old_style).unwrap();
    match sketch_cluster::wire::read_frame(&mut stream) {
        Ok(Message::Error { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported refusal, got {other:?}"),
    }

    // A same-magic, future-version client.
    let mut future = Message::Ack.encode_frame().unwrap();
    assert_eq!(&future[..2], &PROTOCOL_MAGIC[..]);
    future[2] = PROTOCOL_VERSION + 1;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&future).unwrap();
    match sketch_cluster::wire::read_frame(&mut stream) {
        Ok(Message::Error { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported refusal, got {other:?}"),
    }

    // A current-version client still gets real answers afterwards.
    let transport = TcpTransport::new();
    transport.add_peer(0, addr);
    server_node.store().ingest("events", &[1, 2, 3]);
    match transport.request(
        0,
        &Message::Cardinality {
            key: "events".into(),
        },
    ) {
        Ok(Message::Value { bits }) => assert!(f64::from_bits(bits) > 0.0),
        other => panic!("expected Value, got {other:?}"),
    }

    server.shutdown();
}

/// The server answers a handshake refusal with a frame the *current*
/// protocol can read — pinned so refusals stay machine-readable.
#[test]
fn refusal_frames_are_current_version() {
    let server_node = node(0, [0, 0, 0]);
    let server = TcpServer::serve(Arc::clone(&server_node), "127.0.0.1:0").unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut bad = Message::Ack.encode_frame().unwrap();
    bad[0] = b'X';
    stream.write_all(&bad).unwrap();
    // Also prove it at the byte level: first three reply bytes are the
    // magic + current version.
    let mut header = [0u8; 3];
    stream.read_exact(&mut header).unwrap();
    assert_eq!(&header[..2], &PROTOCOL_MAGIC[..]);
    assert_eq!(header[2], PROTOCOL_VERSION);

    server.shutdown();
}

/// `write_frame` and raw `encode_frame` bytes agree — the two send
/// paths cannot drift apart on the handshake prologue.
#[test]
fn write_frame_emits_the_handshake_prologue() {
    let message = Message::DeltaRequest {
        after: 17,
        page_bytes: 4096,
    };
    let mut sent = Vec::new();
    write_frame(&mut sent, &message).unwrap();
    assert_eq!(sent, message.encode_frame().unwrap());
    assert_eq!(&sent[..2], &PROTOCOL_MAGIC[..]);
    assert_eq!(sent[2], PROTOCOL_VERSION);
}
