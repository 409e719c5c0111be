//! A replicated sketch service: three OS processes, one logical store.
//!
//! Run with `cargo run --release --example store_service`. The parent
//! process re-spawns itself three times (`store_service node <id>`);
//! each child recovers a durable store from its own scratch directory
//! (logging the [`sketch_store::RecoveryReport`] to stderr on
//! startup), binds a TCP server on an ephemeral loopback port, prints
//! `PORT <n>`, learns its peers' addresses over stdin, and gossips:
//! version-pruned delta pulls plus a rotating full anti-entropy pull,
//! every 50 ms. A node that comes up *empty* spends its first tick
//! pulling one peer's whole state (the same paged delta pull, from
//! version 0) and logs the resulting
//! [`sketch_cluster::BootstrapReport`] — the same path a wiped
//! replacement node takes in production. The parent then acts
//! as the client:
//!
//! 1. **Routed writes** — each tenant's events go to the tenant's
//!    consistent-hash owner only, as length-prefixed `Ingest` frames.
//!    A local reference store is fed the identical stream.
//! 2. **Convergence check, bit-for-bit** — the parent polls each node
//!    with `DeltaRequest`s from version 0 and compares every key's compact
//!    register payload against the reference store's. Replication is
//!    done when all three replicas ship byte-identical registers.
//! 3. **Cluster queries** — cardinality and Jaccard answered by single
//!    replicas; top-k similarity and union cardinality fanned out over
//!    all of them and merged client-side.
//! 4. **Clean shutdown** — a `Shutdown` frame per node; every child
//!    joins its threads and exits 0.
//!
//! Tenant t records users divisible by t + 1, so the expected overlap
//! structure is known exactly: J(search, tenant_t) = 1 / (t + 1).

use setsketch::{SetSketch2, SetSketchConfig};
use sketch_cluster::{
    ClusterClient, ClusterNode, HashRing, Message, NodeId, Resilient, TcpServer, TcpTransport,
    Transport,
};
use sketch_core::CompactSketch;
use sketch_rand::mix64;
use sketch_store::{IndexStrategy, QueryOptions, SketchStore};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: [&str; 4] = ["search", "ads", "mail", "maps"];
const NODES: u32 = 3;
const EVENTS: u64 = 40_000;
const GOSSIP_EVERY: Duration = Duration::from_millis(50);

fn config() -> SetSketchConfig {
    SetSketchConfig::example_16bit()
}

fn store() -> SketchStore<SetSketch2> {
    let config = config();
    SketchStore::builder(move || SetSketch2::new(config, 42))
        .shards(8)
        .build()
}

/// A durable replica store: write-ahead logged into `dir`, recovered
/// from whatever the directory already holds.
fn durable_store(dir: &Path) -> SketchStore<SetSketch2> {
    let config = config();
    SketchStore::builder(move || SetSketch2::new(config, 42))
        .shards(8)
        .durable_dir(dir)
        .build()
}

/// Tenant t records users whose id is divisible by (t + 1): nested
/// subsets with known overlaps.
fn tenant_events(tenant: usize, range: std::ops::Range<u64>) -> Vec<u64> {
    range
        .map(|i| mix64(i) % 1_000_000)
        .filter(|user| user % (tenant as u64 + 1) == 0)
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("node") => run_node(args[2].parse().expect("node id")),
        _ => run_cluster(),
    }
}

// --- Child: one replica process. ------------------------------------

fn run_node(id: NodeId) {
    // Each replica owns a scratch durable directory; a restart from
    // the same directory would replay the log, a wiped one bootstraps.
    let dir =
        std::env::temp_dir().join(format!("sketch-store-service-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create durable dir");
    let store = durable_store(&dir);
    let report = store
        .recovery_report()
        .expect("durable store has a report")
        .clone();
    eprintln!("node {id}: recovery: {report}");

    let peers: Vec<NodeId> = (0..NODES).collect();
    let node = Arc::new(ClusterNode::new(id, peers, store));
    let mut server = TcpServer::serve(Arc::clone(&node), "127.0.0.1:0").expect("bind loopback");

    // Handshake: tell the parent our port, learn everyone else's.
    println!("PORT {}", server.local_addr().port());
    std::io::stdout().flush().expect("flush port line");
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
        let peer: NodeId = peer.parse().expect("peer id");
        let addr: SocketAddr = format!("127.0.0.1:{port}").parse().expect("addr");
        transport.add_peer(peer, addr);
    }

    // Gossip in the background — an empty store spends its first tick
    // catching up from one peer — and park until a Shutdown frame
    // arrives. A watcher logs the bootstrap report once there is one.
    let resilient = Arc::new(Resilient::new(transport));
    server.start_gossip(Arc::clone(&node), resilient, GOSSIP_EVERY);
    let watched = Arc::clone(&node);
    std::thread::spawn(move || loop {
        if let Some(report) = watched.last_bootstrap() {
            eprintln!("node {id}: {report}");
            return;
        }
        std::thread::sleep(GOSSIP_EVERY);
    });
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// --- Parent: spawn, ingest, verify, query, shut down. ---------------

fn spawn_nodes() -> (Vec<Child>, Vec<u16>) {
    let exe = std::env::current_exe().expect("own path");
    let mut children = Vec::new();
    let mut ports = Vec::new();
    for id in 0..NODES {
        let mut child = Command::new(&exe)
            .args(["node", &id.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn node process");
        let stdout = child.stdout.as_mut().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("PORT line");
        let port: u16 = line
            .trim()
            .strip_prefix("PORT ")
            .expect("PORT line")
            .parse()
            .expect("port number");
        children.push(child);
        ports.push(port);
    }
    // Everyone knows everyone: ship the full peer map to each child.
    let map: Vec<String> = (0..NODES as usize)
        .map(|i| format!("{i}:{}", ports[i]))
        .collect();
    let map = format!("PEERS {}\n", map.join(" "));
    for child in &mut children {
        child
            .stdin
            .as_mut()
            .expect("child stdin")
            .write_all(map.as_bytes())
            .expect("send peer map");
    }
    (children, ports)
}

/// One node's full state as key → compact payload, pulled page by
/// page from version 0.
fn full_state(transport: &TcpTransport, node: NodeId) -> Option<BTreeMap<String, Vec<u8>>> {
    let mut state = BTreeMap::new();
    let mut after = 0;
    loop {
        let request = Message::DeltaRequest {
            after,
            page_bytes: u32::MAX,
        };
        let Ok(Message::Delta {
            up_to,
            complete,
            entries,
            ..
        }) = transport.request(node, &request)
        else {
            return None;
        };
        state.extend(entries.into_iter().map(|entry| (entry.key, entry.payload)));
        if complete {
            return Some(state);
        }
        after = after.max(up_to);
    }
}

/// True when all three replicas hold exactly the reference's keys,
/// each with a byte-identical compact payload.
fn replicas_match(transport: &TcpTransport, reference: &BTreeMap<String, Vec<u8>>) -> bool {
    (0..NODES).all(|node| full_state(transport, node).as_ref() == Some(reference))
}

fn run_cluster() {
    let (mut children, ports) = spawn_nodes();
    let transport = Arc::new(TcpTransport::new());
    for (id, &port) in ports.iter().enumerate() {
        transport.add_peer(id as NodeId, format!("127.0.0.1:{port}").parse().unwrap());
    }
    let ids: Vec<NodeId> = (0..NODES).collect();
    let ring = HashRing::new(&ids);
    let reference = store();
    let client = ClusterClient::new(Arc::clone(&transport), ring, reference.empty_sketch());

    // --- Routed ingest: each tenant lives on its ring owner. ---------
    let started = Instant::now();
    for (t, tenant) in TENANTS.iter().enumerate() {
        println!("tenant {tenant:<8} -> node {}", client.owner(tenant));
        // Ship in batches, as a real event pipeline would.
        for chunk_start in (0..EVENTS).step_by(8_000) {
            let events = tenant_events(t, chunk_start..(chunk_start + 8_000).min(EVENTS));
            client.ingest(tenant, &events).expect("routed ingest");
            reference.ingest(tenant, &events);
        }
    }
    println!(
        "ingested {} tenants across {NODES} processes in {:.0} ms",
        TENANTS.len(),
        started.elapsed().as_secs_f64() * 1e3,
    );

    // --- Wait for gossip to replicate everything, bit-for-bit. ------
    let expected: BTreeMap<String, Vec<u8>> = TENANTS
        .iter()
        .map(|&tenant| {
            let sketch = reference.get(tenant).expect("tenant ingested");
            (tenant.to_owned(), sketch.compress())
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    let converge = Instant::now();
    while !replicas_match(&transport, &expected) {
        assert!(
            Instant::now() < deadline,
            "cluster failed to converge in 30 s"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    println!(
        "all {NODES} replicas byte-identical to the reference after {:.0} ms of gossip",
        converge.elapsed().as_secs_f64() * 1e3,
    );
    println!();

    // --- Queries against the cluster. --------------------------------
    println!("{:<8} {:>12} {:>12}", "tenant", "cluster", "reference");
    for tenant in TENANTS {
        let remote = client.cardinality(tenant).expect("replica answers");
        let local = reference.cardinality(tenant).expect("tenant exists");
        assert_eq!(remote, local, "replicated estimate must match exactly");
        println!("{tenant:<8} {remote:>12.0} {local:>12.0}");
    }
    println!();
    for (t, tenant) in TENANTS.iter().enumerate().skip(1) {
        let j = client.jaccard("search", tenant).expect("pair answers");
        println!(
            "J(search, {tenant}) = {j:.3}   (expected {:.3})",
            1.0 / (t as f64 + 1.0)
        );
    }
    let neighbors = client.similar_keys("search", 3, 0.3).expect("fan-out");
    let ranked: Vec<String> = neighbors
        .iter()
        .map(|n| format!("{} ({:.3})", n.key, n.jaccard()))
        .collect();
    println!(
        "top-3 neighbors of search, merged from all replicas: {}",
        ranked.join(", ")
    );
    // The replicas answered from their banding indexes; the reference
    // store's exhaustive scan (every key verified) names the same keys.
    let scan = QueryOptions::default().index(IndexStrategy::Exhaustive);
    let exact = reference
        .similar_keys_with("search", 3, 0.3, &scan)
        .expect("tenant exists");
    assert!(
        neighbors
            .iter()
            .map(|n| &n.key)
            .eq(exact.iter().map(|n| &n.key)),
        "cluster top-3 must match the exhaustive reference"
    );
    let union = client.union_cardinality(&TENANTS).expect("union fan-out");
    let search = client.cardinality("search").expect("tenant exists");
    println!("union of all tenants: {union:.0} (search alone: {search:.0})");
    println!();

    // --- Clean shutdown: one frame per node, children exit 0. --------
    for node in 0..NODES {
        client.shutdown_node(node).expect("shutdown frame");
    }
    for (id, mut child) in children.drain(..).enumerate() {
        let status = child.wait().expect("child exits");
        assert!(status.success(), "node {id} exited with {status}");
    }
    println!("all {NODES} node processes shut down cleanly");
}
