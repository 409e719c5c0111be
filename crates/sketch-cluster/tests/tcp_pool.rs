//! Persistent pooled connections, both halves: a [`TcpTransport`]
//! reuses sockets instead of dialing per request, redials exactly once
//! when a kept-alive socket turns out dead, never reuses a socket that
//! saw an error; a [`TcpServer`] stays safe to hold open — prompt
//! shutdown with idle clients attached, stalled peers disconnected,
//! live connections capped with a typed refusal.
//!
//! Each test serves a node with its own id: worker threads are named
//! `cluster-conn-<id>`, which is how the tests count one server's live
//! connections from outside (tests share the process).

use setsketch::{SetSketch1, SetSketchConfig};
use sketch_cluster::wire::{read_frame, write_frame, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use sketch_cluster::{
    ClusterError, ClusterNode, ErrorCode, HealthPolicy, Message, Resilient, RetryPolicy, TcpServer,
    TcpTransport, Transport,
};
use sketch_store::SketchStore;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The server's cap on live connections and its per-frame read
/// deadline — constants of `tcp.rs`, restated because they are not
/// public knobs.
const MAX_LIVE_CONNECTIONS: usize = 128;
const SERVE_IO_DEADLINE: Duration = Duration::from_secs(5);

fn node(id: u32) -> Arc<ClusterNode<SetSketch1>> {
    let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let store = SketchStore::builder(move || SetSketch1::new(config, 3))
        .shards(2)
        .build();
    store.ingest("events", &[1, 2, 3]);
    Arc::new(ClusterNode::new(id, [id], store))
}

fn serve(id: u32) -> TcpServer {
    TcpServer::serve(node(id), "127.0.0.1:0").expect("bind loopback")
}

fn probe() -> Message {
    Message::Cardinality {
        key: "events".into(),
    }
}

fn assert_answers(transport: &impl Transport, peer: u32) {
    match transport.request(peer, &probe()) {
        Ok(Message::Value { bits }) => assert!(f64::from_bits(bits) > 0.0),
        other => panic!("expected a Value from node {peer}, got {other:?}"),
    }
}

/// Live connection workers of the server for node `id` (`None` where
/// `/proc` does not list thread names).
fn conn_threads(id: u32) -> Option<usize> {
    let name = format!("cluster-conn-{id}\n");
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm")).is_ok_and(|comm| comm == name)
            })
            .count(),
    )
}

/// Waits (bounded) for node `id`'s worker count to reach `expected` —
/// workers start and exit asynchronously to the sockets they serve.
fn await_conn_threads(id: u32, expected: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while let Some(count) = conn_threads(id) {
        if count == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node {id} has {count} connection workers, expected {expected}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// (a) A thousand sequential requests ride one connection.
#[test]
fn sequential_requests_dial_once() {
    let server = serve(11);
    let transport = TcpTransport::new();
    transport.add_peer(11, server.local_addr());
    for _ in 0..1_000 {
        assert_answers(&transport, 11);
    }
    assert_eq!(transport.dials(), 1);
    await_conn_threads(11, 1);
    server.shutdown();
}

/// (b) The pool grows to the callers' concurrency and no further.
#[test]
fn concurrent_callers_dial_at_most_once_each() {
    const CALLERS: usize = 8;
    let server = serve(12);
    let transport = TcpTransport::new();
    transport.add_peer(12, server.local_addr());
    let start = Barrier::new(CALLERS);
    std::thread::scope(|scope| {
        for _ in 0..CALLERS {
            scope.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    assert_answers(&transport, 12);
                }
            });
        }
    });
    let dials = transport.dials();
    assert!(
        (1..=CALLERS as u64).contains(&dials),
        "{dials} dials for {CALLERS} callers"
    );
    server.shutdown();
}

/// (c) A node that comes back on another port is reached through the
/// new address at once: `add_peer` discards the old address's sockets,
/// and nothing surfaces to the caller.
#[test]
fn readvertised_peer_is_redialed_transparently() {
    let transport = TcpTransport::new();
    let first = serve(13);
    transport.add_peer(13, first.local_addr());
    assert_answers(&transport, 13);
    drop(first);

    let second = serve(13);
    transport.add_peer(13, second.local_addr());
    assert_answers(&transport, 13);
    assert_eq!(transport.dials(), 2);
    // Only the new address's socket is pooled.
    assert_answers(&transport, 13);
    assert_eq!(transport.dials(), 2);
    second.shutdown();
}

/// Satellite: a server restarted on the *same* address kills the
/// pooled socket silently. The transport's one redial absorbs that
/// below [`Resilient`]: with a single-attempt budget the request still
/// succeeds, and no failure is recorded against the peer.
#[test]
fn stale_redial_is_invisible_to_resilient() {
    let first = serve(14);
    let addr = first.local_addr();
    let transport = TcpTransport::new();
    transport.add_peer(14, addr);
    let health = HealthPolicy {
        suspect_after: 1,
        ..HealthPolicy::default()
    };
    let resilient = Resilient::with_policies(transport, RetryPolicy::none(), health);
    assert_answers(&resilient, 14);

    drop(first);
    let second = TcpServer::serve(node(14), addr).expect("rebind the same port");
    assert_answers(&resilient, 14);
    assert_eq!(resilient.inner().dials(), 2, "one dial per server life");
    assert_eq!(resilient.consecutive_failures(14), 0);
    assert!(!resilient.is_suspect(14));
    second.shutdown();
}

/// (d) Local shutdown returns promptly while clients hold idle pooled
/// connections — the workers parked on them are closed, not awaited.
#[test]
fn shutdown_is_prompt_with_idle_pooled_clients() {
    let server = serve(15);
    let clients: Vec<TcpTransport> = (0..3).map(|_| TcpTransport::new()).collect();
    for client in &clients {
        client.add_peer(15, server.local_addr());
        assert_answers(client, 15);
    }
    await_conn_threads(15, clients.len());

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "shutdown took {elapsed:?}"
    );
    await_conn_threads(15, 0);
    // The pooled sockets are dead and the listener is gone: the redial
    // is refused and the failure surfaces.
    let error = clients[0].request(15, &probe()).expect_err("server gone");
    assert!(error.is_transient(), "{error}");
}

/// (d) The same for a remote `Shutdown` frame and `wait()`.
#[test]
fn remote_shutdown_is_prompt_with_idle_pooled_clients() {
    let server = serve(16);
    let holder = TcpTransport::new();
    holder.add_peer(16, server.local_addr());
    assert_answers(&holder, 16);
    let operator = TcpTransport::new();
    operator.add_peer(16, server.local_addr());
    assert_answers(&operator, 16);
    await_conn_threads(16, 2);

    let started = Instant::now();
    match operator.request(16, &Message::Shutdown) {
        Ok(Message::Ack) => {}
        other => panic!("expected Ack, got {other:?}"),
    }
    server.wait();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "remote shutdown took {elapsed:?}"
    );
    await_conn_threads(16, 0);
}

/// (e) A reply that does not decode, or ends early, poisons its
/// socket: the next request goes out on a new connection. The fake
/// server answers exactly one request per accepted connection, so a
/// reused socket would never be answered.
#[test]
fn undecodable_reply_poisons_the_socket() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut garbage = PROTOCOL_MAGIC.to_vec();
    garbage.push(PROTOCOL_VERSION);
    garbage.extend_from_slice(&1u32.to_le_bytes());
    garbage.push(0xFF); // no such message tag
    let mut truncated = Message::Ack.encode_frame().unwrap();
    truncated[3..7].copy_from_slice(&100u32.to_le_bytes());
    // (reply bytes, keep the connection open afterwards)
    let replies = [
        (garbage, true),
        (truncated, false),
        (Message::Ack.encode_frame().unwrap(), true),
    ];
    let fake = std::thread::spawn(move || {
        let mut held = Vec::new();
        for (reply, keep_open) in replies {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).expect("a well-formed request");
            stream.write_all(&reply).unwrap();
            if keep_open {
                held.push(stream);
            }
        }
        held
    });

    let transport = TcpTransport::with_deadline(Duration::from_secs(2));
    transport.add_peer(17, addr);
    match transport.request(17, &probe()) {
        Err(ClusterError::Wire(_)) => {}
        other => panic!("garbage reply surfaced as {other:?}"),
    }
    match transport.request(17, &probe()) {
        Err(ClusterError::Transport(_)) => {}
        other => panic!("truncated reply surfaced as {other:?}"),
    }
    match transport.request(17, &probe()) {
        Ok(Message::Ack) => {}
        other => panic!("expected Ack on the third connection, got {other:?}"),
    }
    assert_eq!(transport.dials(), 3);
    fake.join().unwrap();
}

/// (f) A client that sends part of a frame and stalls is disconnected
/// within the server's per-frame read deadline, and its worker exits.
#[test]
fn mid_frame_stall_is_disconnected_within_the_read_deadline() {
    let server = serve(18);
    let frame = probe().encode_frame().unwrap();
    // Once with the header cut short, once with the body cut short.
    let mut stalled: Vec<TcpStream> = [5, frame.len() - 2]
        .into_iter()
        .map(|sent| {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(SERVE_IO_DEADLINE * 2))
                .unwrap();
            stream.write_all(&frame[..sent]).unwrap();
            stream
        })
        .collect();
    await_conn_threads(18, stalled.len());

    let started = Instant::now();
    for stream in &mut stalled {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {}
            other => panic!("expected the server to hang up, got {other:?}"),
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < SERVE_IO_DEADLINE + Duration::from_secs(2),
        "stalled peers held their workers for {elapsed:?}"
    );
    await_conn_threads(18, 0);
    server.shutdown();
}

/// (g) Connections past the cap get a typed refusal and no thread; a
/// closed connection frees its slot.
#[test]
fn connections_past_the_cap_are_refused_without_a_thread() {
    let server = serve(19);
    let held: Vec<TcpStream> = (0..MAX_LIVE_CONNECTIONS)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    await_conn_threads(19, MAX_LIVE_CONNECTIONS);

    for _ in 0..3 {
        let mut extra = TcpStream::connect(server.local_addr()).unwrap();
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match read_frame(&mut extra) {
            Ok(Message::Error { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
            other => panic!("expected an Overloaded refusal, got {other:?}"),
        }
    }
    if let Some(count) = conn_threads(19) {
        assert_eq!(count, MAX_LIVE_CONNECTIONS, "a refusal cost a thread");
    }

    // A held connection still works, and hanging one up makes room.
    let mut first = &held[0];
    write_frame(&mut first, &probe()).unwrap();
    assert!(matches!(read_frame(&mut first), Ok(Message::Value { .. })));
    drop(held);
    await_conn_threads(19, 0);
    let transport = TcpTransport::new();
    transport.add_peer(19, server.local_addr());
    assert_answers(&transport, 19);
    server.shutdown();
}
