//! The whole-system durability story: a live TCP node is SIGKILLed
//! mid-ingest, restarted from its write-ahead log, and the three-node
//! cluster reconverges bit-for-bit. The disk-loss variants go further:
//! the durable directory itself is destroyed between kill and restart,
//! so the WAL has nothing to say and the node must rebuild by pulling a
//! peer's whole state in delta pages — including surviving its donor
//! being SIGKILLed mid-transfer.
//!
//! The victim runs as a real OS process (this test binary re-executes
//! itself — see [`crash_child_serve`]) so the kill is a genuine
//! `SIGKILL`: no destructors, no flushes, nothing but what the WAL's
//! fsync discipline already put on disk. The parent keeps ingesting
//! through the kill, so some requests die on the wire; every op the
//! victim *acknowledged* must survive (it runs
//! [`FsyncPolicy::Always`]), and every op that errored is re-sent
//! after restart — at-least-once delivery, which idempotent sketch
//! merging absorbs.

use setsketch::{SetSketch2, SetSketchConfig};
use sketch_cluster::{ClusterNode, Message, NodeId, Resilient, TcpServer, TcpTransport, Transport};
use sketch_core::Sketch;
use sketch_rand::mix64;
use sketch_store::{FsyncPolicy, SketchStore};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const IDS: [NodeId; 3] = [0, 1, 2];
const VICTIM: NodeId = 2;
const OPS: u64 = 240;
const KILL_AT: u64 = 120;
const KEYS: u64 = 8;
const GOSSIP_EVERY: Duration = Duration::from_millis(50);

fn config() -> SetSketchConfig {
    SetSketchConfig::example_16bit()
}

fn plain_store() -> SketchStore<SetSketch2> {
    let config = config();
    SketchStore::builder(move || SetSketch2::new(config, 42))
        .shards(4)
        .build()
}

fn durable_store(dir: &Path) -> SketchStore<SetSketch2> {
    let config = config();
    SketchStore::builder(move || SetSketch2::new(config, 42))
        .shards(4)
        .durable_dir(dir)
        .fsync_policy(FsyncPolicy::Always)
        .build()
}

fn op_key(op: u64) -> String {
    format!("key-{}", op % KEYS)
}

fn op_elements(op: u64) -> Vec<u64> {
    (0..32).map(|i| mix64(op * 64 + i) % 100_000).collect()
}

/// Scratch durable directory, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sketch-crash-recovery-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// --- Child half: one durable TCP replica, run via self-exec. ---------

/// When `CRASH_CHILD_DIR` is set, this "test" is actually the victim
/// node's serving process: recover the durable store from that
/// directory, serve on an ephemeral port, print `PORT <n>` and
/// `RECOVERED <records>` lines, learn peers from one `PEERS` stdin
/// line, gossip until a Shutdown frame (or a SIGKILL) arrives. With
/// `CRASH_CHILD_BOOTSTRAP` also set, it waits for the gossip thread's
/// first tick — which catches an empty store up from one peer — and
/// reports the shipped key count on a `BOOTSTRAP <keys>` line.
/// With the variables unset — the normal test run — it does nothing.
#[test]
fn crash_child_serve() {
    let Ok(dir) = std::env::var("CRASH_CHILD_DIR") else {
        return;
    };
    let store = durable_store(Path::new(&dir));
    let report = store.recovery_report().expect("durable store has a report");
    let recovered = report.checkpoint_entries + report.records_replayed;
    let node = Arc::new(ClusterNode::new(VICTIM, IDS, store));
    let mut server = TcpServer::serve(Arc::clone(&node), "127.0.0.1:0").expect("bind loopback");

    println!("PORT {}", server.local_addr().port());
    println!("RECOVERED {recovered}");
    std::io::stdout().flush().expect("flush handshake");

    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .expect("read peer map");
    let transport = Arc::new(TcpTransport::new());
    for pair in line
        .trim()
        .strip_prefix("PEERS ")
        .expect("PEERS line")
        .split(' ')
    {
        let (peer, port) = pair.split_once(':').expect("id:port");
        transport.add_peer(
            peer.parse().expect("peer id"),
            format!("127.0.0.1:{port}").parse().expect("addr"),
        );
    }
    server.start_gossip(
        Arc::clone(&node),
        Arc::new(Resilient::new(transport)),
        GOSSIP_EVERY,
    );
    if std::env::var("CRASH_CHILD_BOOTSTRAP").is_ok() {
        // Report once the gossip thread's catch-up lands (the store
        // recovered empty, so its first ticks attempt one).
        let report = loop {
            match node.last_bootstrap() {
                Some(report) => break report,
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        println!("BOOTSTRAP {}", report.keys);
        std::io::stdout().flush().expect("flush bootstrap line");
    }
    server.wait();
}

/// Spawns the victim process against `dir` and parses its handshake:
/// (child, port, records recovered at startup).
fn spawn_victim(dir: &Path) -> (Child, u16, u64) {
    spawn_victim_with(dir, false)
}

/// [`spawn_victim`], optionally in bootstrap mode
/// (`CRASH_CHILD_BOOTSTRAP`): the child will print a `BOOTSTRAP <keys>`
/// line once its one-donor catch-up lands (read it with
/// [`read_bootstrap_keys`] after sending the peer map).
fn spawn_victim_with(dir: &Path, bootstrap: bool) -> (Child, u16, u64) {
    let exe = std::env::current_exe().expect("own path");
    let mut command = Command::new(&exe);
    command
        .args(["crash_child_serve", "--exact", "--nocapture"])
        .env("CRASH_CHILD_DIR", dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    if bootstrap {
        command.env("CRASH_CHILD_BOOTSTRAP", "1");
    }
    let mut child = command.spawn().expect("spawn victim process");
    let stdout = child.stdout.as_mut().expect("victim stdout");
    let mut reader = BufReader::new(stdout);
    let port = handshake_value(&mut reader, "PORT ").parse().expect("port");
    let recovered = handshake_value(&mut reader, "RECOVERED ")
        .parse()
        .expect("recovered count");
    (child, port, recovered)
}

/// Reads lines until one carries `marker`, returning what follows it.
/// The marker may land mid-line: the child's libtest harness prints
/// `test crash_child_serve ... ` without a newline before the test
/// body's own output starts.
fn handshake_value(reader: &mut BufReader<&mut ChildStdout>, marker: &str) -> String {
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("victim stdout line") > 0,
            "victim exited before printing {marker:?}"
        );
        if let Some(at) = line.find(marker) {
            return line[at + marker.len()..].trim().to_owned();
        }
    }
}

/// Reads the `BOOTSTRAP <keys>` line a bootstrap-mode child prints
/// after its catch-up pull lands. Safe to call with a fresh reader:
/// the line is only emitted after the peer map is sent, so the spawn
/// handshake's reader cannot have buffered past it.
fn read_bootstrap_keys(child: &mut Child) -> u64 {
    let stdout = child.stdout.as_mut().expect("victim stdout");
    let mut reader = BufReader::new(stdout);
    handshake_value(&mut reader, "BOOTSTRAP ")
        .parse()
        .expect("bootstrap key count")
}

fn send_peer_map(child: &mut Child, ports: &BTreeMap<NodeId, u16>) {
    let map: Vec<String> = ports
        .iter()
        .map(|(id, port)| format!("{id}:{port}"))
        .collect();
    child
        .stdin
        .as_mut()
        .expect("victim stdin")
        .write_all(format!("PEERS {}\n", map.join(" ")).as_bytes())
        .expect("send peer map");
}

/// One node's full state as key → compact payload, pulled over TCP
/// page by page.
fn full_state(transport: &TcpTransport, node: NodeId) -> Option<BTreeMap<String, Vec<u8>>> {
    let mut state = BTreeMap::new();
    let mut after = 0;
    loop {
        let request = Message::DeltaRequest {
            after,
            page_bytes: u32::MAX,
        };
        match transport.request(node, &request) {
            Ok(Message::Delta {
                up_to,
                complete,
                entries,
                ..
            }) => {
                state.extend(entries.into_iter().map(|entry| (entry.key, entry.payload)));
                if complete {
                    return Some(state);
                }
                after = after.max(up_to);
            }
            _ => return None,
        }
    }
}

// --- Parent half: the actual scenario. -------------------------------

#[test]
fn sigkill_mid_ingest_then_restart_reconverges_bit_for_bit() {
    if std::env::var("CRASH_CHILD_DIR").is_ok() {
        // This process IS a victim child; only crash_child_serve runs.
        return;
    }
    let scratch = Scratch::new();
    let transport = Arc::new(TcpTransport::new());

    // Two in-process survivor nodes with live TCP servers + gossip.
    let survivors: Vec<Arc<ClusterNode<SetSketch2>>> = [0, 1]
        .iter()
        .map(|&id| Arc::new(ClusterNode::new(id, IDS, plain_store())))
        .collect();
    let mut servers: Vec<TcpServer> = survivors
        .iter()
        .map(|node| TcpServer::serve(Arc::clone(node), "127.0.0.1:0").expect("bind survivor"))
        .collect();
    let mut ports: BTreeMap<NodeId, u16> = BTreeMap::new();
    for (node, server) in survivors.iter().zip(&servers) {
        ports.insert(node.id(), server.local_addr().port());
        transport.add_peer(node.id(), server.local_addr());
    }

    // The victim: a durable child process, killed without warning.
    let (mut victim, victim_port, recovered) = spawn_victim(&scratch.0);
    assert_eq!(recovered, 0, "fresh durable dir must recover nothing");
    ports.insert(VICTIM, victim_port);
    transport.add_peer(VICTIM, format!("127.0.0.1:{victim_port}").parse().unwrap());
    send_peer_map(&mut victim, &ports);
    for (node, server) in survivors.iter().zip(servers.iter_mut()) {
        server.start_gossip(Arc::clone(node), Arc::clone(&transport), GOSSIP_EVERY);
    }

    // Ingest straight at the victim; SIGKILL it mid-stream. Every op
    // it acked is fsynced; every op that failed is remembered.
    let reference = plain_store();
    let mut unacked: Vec<u64> = Vec::new();
    for op in 0..OPS {
        if op == KILL_AT {
            victim.kill().expect("SIGKILL victim");
        }
        reference.ingest(&op_key(op), &op_elements(op));
        let request = Message::Ingest {
            key: op_key(op),
            elements: op_elements(op),
        };
        match transport.request(VICTIM, &request) {
            Ok(Message::Ack) => {}
            _ => unacked.push(op),
        }
    }
    victim.wait().expect("reap killed victim");
    assert!(
        !unacked.is_empty() && unacked.len() < OPS as usize,
        "kill landed outside the ingest window ({} unacked)",
        unacked.len()
    );

    // Restart from the same durable directory: the WAL replays the
    // acked ops, the node re-advertises under its new port, and the
    // parent re-sends everything that was never acknowledged.
    let (mut victim, victim_port, recovered) = spawn_victim(&scratch.0);
    assert!(
        recovered > 0,
        "restart must replay the pre-crash log (got {recovered} records)"
    );
    ports.insert(VICTIM, victim_port);
    transport.add_peer(VICTIM, format!("127.0.0.1:{victim_port}").parse().unwrap());
    send_peer_map(&mut victim, &ports);
    for &op in &unacked {
        let request = Message::Ingest {
            key: op_key(op),
            elements: op_elements(op),
        };
        match transport.request(VICTIM, &request) {
            Ok(Message::Ack) => {}
            other => panic!("re-sent op {op} refused: {other:?}"),
        }
    }

    // Reconvergence: all three nodes byte-identical to the reference.
    let expected: BTreeMap<String, Vec<u8>> = reference
        .keys()
        .into_iter()
        .map(|key| {
            let payload = reference.get(&key).expect("reference key").compress();
            (key, payload)
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let converged = IDS
            .iter()
            .all(|&node| full_state(&transport, node).as_ref() == Some(&expected));
        if converged {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "cluster failed to reconverge after SIGKILL + restart"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Clean teardown: Shutdown frame to the victim, join everything.
    match transport.request(VICTIM, &Message::Shutdown) {
        Ok(Message::Ack) => {}
        other => panic!("victim refused shutdown: {other:?}"),
    }
    let status = victim.wait().expect("victim exits");
    assert!(status.success(), "victim exited with {status}");
    for server in servers {
        server.shutdown();
    }
}

/// Expected full state of `reference` as key → compact payload.
fn expected_state(reference: &SketchStore<SetSketch2>) -> BTreeMap<String, Vec<u8>> {
    reference
        .keys()
        .into_iter()
        .map(|key| {
            let payload = reference.get(&key).expect("reference key").compress();
            (key, payload)
        })
        .collect()
}

/// Polls until every node in `nodes` reports exactly `expected`.
fn await_convergence(
    transport: &TcpTransport,
    nodes: &[NodeId],
    expected: &BTreeMap<String, Vec<u8>>,
    what: &str,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if nodes
            .iter()
            .all(|&node| full_state(transport, node).as_ref() == Some(expected))
        {
            return;
        }
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Total node loss, not just a crash: the victim is SIGKILLed **and
/// its durable directory destroyed**, so restart recovers nothing and
/// the WAL cannot help. The replacement node must rebuild itself by
/// pulling one survivor's whole state (bootstrap), then catch the tail
/// through delta sync — no client replays anything.
#[test]
fn disk_loss_then_bootstrap_reconverges_bit_for_bit() {
    if std::env::var("CRASH_CHILD_DIR").is_ok() {
        return;
    }
    let scratch = Scratch::new();
    let transport = Arc::new(TcpTransport::new());

    let survivors: Vec<Arc<ClusterNode<SetSketch2>>> = [0, 1]
        .iter()
        .map(|&id| Arc::new(ClusterNode::new(id, IDS, plain_store())))
        .collect();
    let mut servers: Vec<TcpServer> = survivors
        .iter()
        .map(|node| TcpServer::serve(Arc::clone(node), "127.0.0.1:0").expect("bind survivor"))
        .collect();
    let mut ports: BTreeMap<NodeId, u16> = BTreeMap::new();
    for (node, server) in survivors.iter().zip(&servers) {
        ports.insert(node.id(), server.local_addr().port());
        transport.add_peer(node.id(), server.local_addr());
    }

    let (mut victim, victim_port, recovered) = spawn_victim(&scratch.0);
    assert_eq!(recovered, 0, "fresh durable dir must recover nothing");
    ports.insert(VICTIM, victim_port);
    transport.add_peer(VICTIM, format!("127.0.0.1:{victim_port}").parse().unwrap());
    send_peer_map(&mut victim, &ports);
    for (node, server) in survivors.iter().zip(servers.iter_mut()) {
        server.start_gossip(Arc::clone(node), Arc::clone(&transport), GOSSIP_EVERY);
    }

    // Ingest at the victim; every op must ack (no kill yet).
    let reference = plain_store();
    for op in 0..OPS {
        reference.ingest(&op_key(op), &op_elements(op));
        let request = Message::Ingest {
            key: op_key(op),
            elements: op_elements(op),
        };
        match transport.request(VICTIM, &request) {
            Ok(Message::Ack) => {}
            other => panic!("op {op} refused: {other:?}"),
        }
    }
    let expected = expected_state(&reference);
    // Wait until the survivors replicated everything — they are about
    // to become the only copy in existence.
    await_convergence(
        &transport,
        &[0, 1],
        &expected,
        "survivors failed to replicate before the disk loss",
    );

    // SIGKILL, then destroy the durable directory outright.
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("reap killed victim");
    std::fs::remove_dir_all(&scratch.0).expect("wipe durable dir");
    std::fs::create_dir_all(&scratch.0).expect("recreate durable dir");

    // The replacement recovers nothing and must bootstrap.
    let (mut victim, victim_port, recovered) = spawn_victim_with(&scratch.0, true);
    assert_eq!(recovered, 0, "wiped dir must recover nothing");
    ports.insert(VICTIM, victim_port);
    transport.add_peer(VICTIM, format!("127.0.0.1:{victim_port}").parse().unwrap());
    send_peer_map(&mut victim, &ports);
    let bootstrapped = read_bootstrap_keys(&mut victim);
    assert_eq!(
        bootstrapped, KEYS,
        "bootstrap must ship every key the survivors hold"
    );

    // Bit-for-bit reconvergence of all three replicas, with no client
    // re-sending a single op.
    await_convergence(
        &transport,
        &IDS,
        &expected,
        "cluster failed to reconverge after total disk loss",
    );

    match transport.request(VICTIM, &Message::Shutdown) {
        Ok(Message::Ack) => {}
        other => panic!("victim refused shutdown: {other:?}"),
    }
    let status = victim.wait().expect("victim exits");
    assert!(status.success(), "victim exited with {status}");
    for server in servers {
        server.shutdown();
    }
}

/// A transport wrapper that asks for small pages and SIGKILLs the donor
/// process after a fixed number of them have arrived — a genuinely
/// dead donor mid-transfer, not a simulated error.
struct KillSwitch {
    inner: Arc<TcpTransport>,
    donor: NodeId,
    child: Mutex<Child>,
    page_bytes: u32,
    kill_after: u32,
    pages_seen: AtomicU32,
}

impl Transport for KillSwitch {
    fn request(
        &self,
        peer: NodeId,
        message: &Message,
    ) -> Result<Message, sketch_cluster::ClusterError> {
        let response = match message {
            Message::DeltaRequest { after, .. } => self.inner.request(
                peer,
                &Message::DeltaRequest {
                    after: *after,
                    page_bytes: self.page_bytes,
                },
            )?,
            other => self.inner.request(peer, other)?,
        };
        if peer == self.donor && matches!(response, Message::Delta { .. }) {
            let seen = self.pages_seen.fetch_add(1, Ordering::SeqCst) + 1;
            if seen == self.kill_after {
                let mut child = self.child.lock().expect("kill switch lock");
                child.kill().expect("SIGKILL donor mid-transfer");
                // Reaped here, so the next request meets a closed
                // socket rather than racing the kernel's teardown.
                child.wait().expect("reap killed donor");
            }
        }
        Ok(response)
    }
}

/// Donor failover under real process death: a wiped node starts
/// bootstrapping from the durable child, the child is SIGKILLed
/// after its second page, and the bootstrap completes from the second
/// donor —
/// ending bit-for-bit on the surviving replica's state.
#[test]
fn donor_sigkill_mid_stream_fails_over() {
    if std::env::var("CRASH_CHILD_DIR").is_ok() {
        return;
    }
    let scratch = Scratch::new();
    let transport = Arc::new(TcpTransport::new());

    // One in-process survivor (the fallback donor) and the durable
    // child (the first donor).
    let survivor = Arc::new(ClusterNode::new(0, IDS, plain_store()));
    let server = TcpServer::serve(Arc::clone(&survivor), "127.0.0.1:0").expect("bind survivor");
    let mut ports: BTreeMap<NodeId, u16> = BTreeMap::new();
    ports.insert(0, server.local_addr().port());
    transport.add_peer(0, server.local_addr());

    let (mut victim, victim_port, _) = spawn_victim(&scratch.0);
    ports.insert(VICTIM, victim_port);
    transport.add_peer(VICTIM, format!("127.0.0.1:{victim_port}").parse().unwrap());
    send_peer_map(&mut victim, &ports);

    // Both donors must hold the full state before the transfer starts.
    for op in 0..OPS {
        let request = Message::Ingest {
            key: op_key(op),
            elements: op_elements(op),
        };
        match transport.request(VICTIM, &request) {
            Ok(Message::Ack) => {}
            other => panic!("op {op} refused: {other:?}"),
        }
    }
    let expected = match full_state(&transport, VICTIM) {
        Some(state) => state,
        None => panic!("donor state unreadable"),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while survivor
        .sync_with(transport.as_ref(), VICTIM)
        .map(|report| report.keys_received)
        .unwrap_or(usize::MAX)
        != 0
    {
        assert!(Instant::now() < deadline, "survivor never caught up");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The replacement node bootstraps in-process from its peers in
    // list order, so the doomed child ships first, in pages of about
    // one key each.
    let replacement = ClusterNode::new(1, [VICTIM, 0], plain_store());
    let kill_switch = KillSwitch {
        inner: Arc::clone(&transport),
        donor: VICTIM,
        child: Mutex::new(victim),
        page_bytes: 4096,
        kill_after: 2,
        pages_seen: AtomicU32::new(0),
    };
    let report = replacement.bootstrap(&kill_switch).unwrap();
    assert_eq!(report.donor, 0, "bootstrap must fail over to the survivor");
    assert_eq!(report.failed_donors, vec![VICTIM]);
    assert_eq!(
        kill_switch.pages_seen.load(Ordering::SeqCst),
        2,
        "the donor died before shipping the expected pages"
    );
    assert!(
        replacement.high_water(VICTIM) > 0,
        "the dead donor's pages stay applied and its mark keeps their progress"
    );

    // The installed state matches the reference bit-for-bit.
    let installed: BTreeMap<String, Vec<u8>> = replacement
        .store()
        .keys()
        .into_iter()
        .map(|key| {
            let payload = replacement
                .store()
                .get(&key)
                .expect("installed key")
                .compress();
            (key, payload)
        })
        .collect();
    assert_eq!(installed, expected);

    server.shutdown();
}
