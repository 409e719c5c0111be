//! Real sockets: a frame-serving TCP server per node, and a
//! [`Transport`] that reaches peers over pooled, persistent
//! connections.
//!
//! Both sides speak the length-prefixed frame format from
//! [`wire`](crate::wire) over plain `std::net` TCP — no async runtime,
//! no external dependencies — and both keep a connection open across
//! exchanges. The end-to-end ledger (`e2e/`) is why: with a dial, a
//! thread spawn and a hang-up per request, the socket was 166–192 µs
//! of a 172–230 µs routed write and every sketch layer together the
//! rest.
//!
//! **Client half.** [`TcpTransport`] keeps, per peer, a LIFO stack of
//! idle sockets. A request pops one (or dials), writes one frame,
//! reads one frame, and pushes the socket back only after the reply
//! decoded in full — a socket that saw any error is closed, never
//! pooled. The pool lock covers the pop and the push, never I/O, so
//! the pool grows to the caller's own concurrency and no further.
//!
//! **The one-redial rule.** A kept-alive socket can be dead without
//! the client knowing: the peer restarted, was SIGKILLed, reaped the
//! connection as idle, or served a `Shutdown`. So a non-timeout I/O
//! failure (EOF, reset, broken pipe) on a *reused* socket is answered
//! by sending the same request once more on a freshly dialed one.
//! That blind re-send is safe because every request this protocol
//! carries is idempotent: inserting an element twice, or merging a
//! delta twice, leaves the registers exactly as once (SetSketch
//! insert and merge are commutative and idempotent), and reads and
//! delta pulls change nothing. A timeout, and any failure on a
//! fresh socket, surface to the caller unchanged.
//!
//! **Deadline.** Every socket the transport opens carries one deadline
//! ([`TcpTransport::with_deadline`]): connect, each read and each write
//! time out after it instead of blocking forever. A redial happens only
//! after a failure that is *not* a timeout, so the worst case against
//! an unresponsive peer (a SIGSTOPped process, a blackholed route, a
//! listener that accepts and then stalls) is still three deadlines —
//! connect, write, read — and it cannot wedge the gossip loop. (Only a
//! peer that dies in the middle of an exchange, with a successor that
//! then stalls, can add the part of one read deadline already spent on
//! the dead socket.) Layer
//! [`Resilient`](crate::Resilient) on top for retries and suspicion
//! tracking; it sees only the final outcome of a request, never the
//! internal redial.
//!
//! **Server half.** [`TcpServer`] runs one worker thread per live
//! connection and holds each connection open until the client hangs
//! up, stays silent for [`SERVE_IDLE_MAX`], or stalls inside a frame
//! for [`SERVE_IO_DEADLINE`]. Live connections are registered so that
//! shutdown can close them — workers parked on idle pooled sockets
//! return at once instead of being joined forever — and capped at
//! [`MAX_LIVE_CONNECTIONS`]: one more gets an
//! [`ErrorCode::Overloaded`] frame and no thread.

use crate::error::ClusterError;
use crate::node::ClusterNode;
use crate::transport::Transport;
use crate::wire::{read_frame, write_frame, ErrorCode, FrameError, Message, NodeId};
use parking_lot::Mutex;
use sketch_core::Sketch;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{self, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client: an idle pooled socket older than this is closed at
/// checkout instead of reused. Half of [`SERVE_IDLE_MAX`], so a client
/// normally retires a socket before the server reaps it.
const POOL_IDLE_MAX: Duration = Duration::from_secs(30);

/// Server: bound on each blocking read inside a frame and on each
/// reply write, so neither a peer that stalls mid-frame nor one that
/// never drains its replies pins a worker thread.
const SERVE_IO_DEADLINE: Duration = Duration::from_secs(5);

/// Server: a connection that carried no request for this long is
/// closed.
const SERVE_IDLE_MAX: Duration = Duration::from_secs(60);

/// Server: live connections — and so worker threads — are capped here;
/// the next one is refused with [`ErrorCode::Overloaded`]. A client
/// pools one socket per concurrent caller, so this bounds concurrent
/// callers per node, not clients.
const MAX_LIVE_CONNECTIONS: usize = 128;

fn is_timeout(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Default socket deadline of a [`TcpTransport`]: generous against
/// loaded peers, still bounded against dead ones.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// One peer's address and the idle sockets connected to it.
struct Peer {
    addr: SocketAddr,
    /// Idle sockets with the time each was returned, most recent last.
    idle: Vec<(BufReader<TcpStream>, Instant)>,
}

/// A [`Transport`] that reaches peers over persistent TCP connections,
/// pooled per peer, every socket under one connect/read/write deadline.
///
/// A request reuses the most recently returned idle socket of its peer
/// or dials a new one, and returns the socket to the pool only after a
/// fully decoded reply. If a *reused* socket fails with anything but a
/// timeout — the peer hung up while it sat idle — the request is sent
/// once more on a fresh socket; every request of the protocol is
/// idempotent, so the re-send cannot change the outcome. Timeouts and
/// failures on a fresh socket surface as they are, which keeps the
/// worst-case delay against a dead peer at three deadlines: connect,
/// write, read.
pub struct TcpTransport {
    peers: Mutex<HashMap<NodeId, Peer>>,
    deadline: Duration,
    dials: AtomicU64,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::with_deadline(DEFAULT_DEADLINE)
    }
}

impl TcpTransport {
    /// An empty address book with a five-second socket deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty address book whose sockets time out after `deadline`
    /// when connecting, on each read and on each write.
    pub fn with_deadline(deadline: Duration) -> Self {
        TcpTransport {
            peers: Mutex::new(HashMap::new()),
            deadline,
            dials: AtomicU64::new(0),
        }
    }

    /// Adds (or replaces) the address of `peer` — replacement is how a
    /// restarted node re-advertises itself under a new port, and it
    /// closes the idle sockets connected to the old address.
    pub fn add_peer(&self, peer: NodeId, addr: SocketAddr) {
        let mut peers = self.peers.lock();
        if peers.get(&peer).is_some_and(|known| known.addr == addr) {
            return;
        }
        let replaced = peers.insert(
            peer,
            Peer {
                addr,
                idle: Vec::new(),
            },
        );
        drop(peers);
        // The old address's sockets close outside the lock.
        drop(replaced);
    }

    /// The known address of `peer`, if any.
    pub fn peer_addr(&self, peer: NodeId) -> Option<SocketAddr> {
        self.peers.lock().get(&peer).map(|known| known.addr)
    }

    /// TCP connections opened since construction. With pooling this
    /// tracks caller concurrency and peer restarts, not request count.
    pub fn dials(&self) -> u64 {
        self.dials.load(Ordering::Relaxed)
    }

    /// The address of `peer` and its most recently used idle socket,
    /// if one is young enough to trust.
    fn checkout(
        &self,
        peer: NodeId,
    ) -> Result<(SocketAddr, Option<BufReader<TcpStream>>), ClusterError> {
        let mut peers = self.peers.lock();
        let known = peers
            .get_mut(&peer)
            .ok_or(ClusterError::UnknownPeer(peer))?;
        let conn = match known.idle.pop() {
            Some((conn, since)) if since.elapsed() <= POOL_IDLE_MAX => Some(conn),
            // The stack is ordered by return time: when the newest is
            // too old, so is every socket below it.
            Some(_) => {
                known.idle.clear();
                None
            }
            None => None,
        };
        Ok((known.addr, conn))
    }

    /// Returns a socket whose exchange completed to the pool — unless
    /// the peer moved to another address meanwhile.
    fn checkin(&self, peer: NodeId, addr: SocketAddr, conn: BufReader<TcpStream>) {
        if let Some(known) = self.peers.lock().get_mut(&peer) {
            if known.addr == addr {
                known.idle.push((conn, Instant::now()));
            }
        }
    }

    fn dial(&self, addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
        let stream = TcpStream::connect_timeout(&addr, self.deadline)?;
        stream.set_read_timeout(Some(self.deadline))?;
        stream.set_write_timeout(Some(self.deadline))?;
        stream.set_nodelay(true).ok();
        self.dials.fetch_add(1, Ordering::Relaxed);
        Ok(BufReader::new(stream))
    }
}

/// One request frame out, one response frame back. The buffered reader
/// takes a small reply in a single `read`.
fn exchange(conn: &mut BufReader<TcpStream>, message: &Message) -> Result<Message, FrameError> {
    write_frame(conn.get_mut(), message)?;
    read_frame(conn)
}

impl Transport for TcpTransport {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let (addr, pooled) = self.checkout(peer)?;
        if let Some(mut conn) = pooled {
            match exchange(&mut conn, message) {
                Ok(reply) => {
                    self.checkin(peer, addr, conn);
                    return Ok(reply);
                }
                // The peer hung up while the socket sat idle. Requests
                // are idempotent: send this one again, once, on a
                // fresh socket.
                Err(FrameError::Io(error)) if !is_timeout(&error) => {}
                Err(error) => return Err(error.into()),
            }
        }
        let mut conn = self.dial(addr)?;
        let reply = exchange(&mut conn, message)?;
        self.checkin(peer, addr, conn);
        Ok(reply)
    }
}

/// What the accept loop, the connection workers, the gossip thread and
/// the owning [`TcpServer`] share.
struct Shared {
    local_addr: SocketAddr,
    stop: AtomicBool,
    /// Live connections by accept sequence number. A worker removes
    /// its own entry on exit; stopping closes every socket here so no
    /// worker stays parked on an idle one.
    live: Mutex<HashMap<usize, Arc<TcpStream>>>,
}

impl Shared {
    /// Raises the stop flag, closes every live connection and wakes
    /// the accept loop so it observes the flag.
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::Release);
        self.close_live();
        let _ = TcpStream::connect(self.local_addr);
    }

    fn close_live(&self) {
        for stream in self.live.lock().values() {
            let _ = stream.shutdown(net::Shutdown::Both);
        }
    }
}

/// A live connection's entry in [`Shared::live`], removed on drop —
/// when the worker returns, panics, or never starts.
struct Registration {
    shared: Arc<Shared>,
    seq: usize,
    stream: Arc<TcpStream>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.shared.live.lock().remove(&self.seq);
    }
}

/// A node's serving half: accepts connections, answers request frames
/// with [`ClusterNode::handle`], and optionally runs the gossip timer.
///
/// Connections are persistent: one worker thread serves each until the
/// client hangs up, goes a minute without a request, or stalls for
/// five seconds in the middle of a frame. At most 128 are live at
/// once; a further connection is answered with one
/// [`ErrorCode::Overloaded`] frame and closed, without a thread.
///
/// Drop or [`shutdown`](Self::shutdown) stops the accept loop and the
/// gossip thread and closes every live connection, so it returns
/// promptly even while clients hold idle pooled sockets; a
/// [`Message::Shutdown`] frame from any client does the same remotely
/// (the demo and CI use it to stop nodes cleanly).
pub struct TcpServer {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    gossip_handle: Option<JoinHandle<()>>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port — see
    /// [`local_addr`](Self::local_addr)) and serves `node` on a
    /// background accept thread.
    pub fn serve<S: Sketch>(
        node: Arc<ClusterNode<S>>,
        addr: impl ToSocketAddrs,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            local_addr: listener.local_addr()?,
            stop: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name(format!("cluster-accept-{}", node.id()))
            .spawn(move || accept_loop(listener, node, accept_shared))?;
        Ok(TcpServer {
            shared,
            accept_handle: Some(accept_handle),
            gossip_handle: None,
        })
    }

    /// Starts the gossip thread: every `interval`, one
    /// [`gossip_tick`](ClusterNode::gossip_tick) over `transport` —
    /// any [`Transport`], so a [`TcpTransport`] can be wrapped in
    /// [`Resilient`](crate::Resilient) for retries and suspicion
    /// tracking. Transient per-peer failures are expected and ignored
    /// — the next tick retries. A node that comes up empty (a cold
    /// replacement) spends its first ticks catching up from one donor
    /// ([`ClusterNode::bootstrap`]) — peers may still be coming up
    /// when a replaced node starts, so "no donor yet" is waited out
    /// tick by tick, not an error.
    pub fn start_gossip<S: Sketch, T: Transport + Send + Sync + 'static>(
        &mut self,
        node: Arc<ClusterNode<S>>,
        transport: Arc<T>,
        interval: Duration,
    ) {
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("cluster-gossip-{}", node.id()))
            .spawn(move || {
                while !shared.stop.load(Ordering::Acquire) {
                    std::thread::sleep(interval);
                    if shared.stop.load(Ordering::Acquire) {
                        break;
                    }
                    let _ = node.gossip_tick(&*transport);
                }
            })
            .expect("spawn gossip thread");
        self.gossip_handle = Some(handle);
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Stops the gossip and accept threads, closes every live
    /// connection, and waits for all of them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    /// Blocks until the server stops on its own — i.e. until some
    /// client sends a [`Message::Shutdown`] frame. This is how a node
    /// process parks its main thread while the accept and gossip
    /// threads do the work.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.gossip_handle.take() {
            let _ = handle.join();
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        if let Some(handle) = self.gossip_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<S: Sketch>(listener: TcpListener, node: Arc<ClusterNode<S>>, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    for (seq, stream) in listener.incoming().enumerate() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        workers.retain(|handle| !handle.is_finished());
        if shared.live.lock().len() >= MAX_LIVE_CONNECTIONS {
            refuse(stream);
            continue;
        }
        let stream = Arc::new(stream);
        shared.live.lock().insert(seq, Arc::clone(&stream));
        let registration = Registration {
            shared: Arc::clone(&shared),
            seq,
            stream,
        };
        let node = Arc::clone(&node);
        if let Ok(handle) = std::thread::Builder::new()
            .name(format!("cluster-conn-{}", node.id()))
            .spawn(move || serve_connection(&registration.stream, &node, &registration.shared))
        {
            workers.push(handle);
        }
    }
    // A connection registered after `begin_stop` swept the registry is
    // closed here, before its worker is joined.
    shared.close_live();
    for handle in workers {
        let _ = handle.join();
    }
}

/// Answers a connection past the cap with a typed refusal, from the
/// accept thread: one small frame into an empty send buffer, under a
/// write deadline so that accepting cannot hang on it.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(SERVE_IO_DEADLINE));
    let reply = Message::Error {
        code: ErrorCode::Overloaded,
        detail: format!("{MAX_LIVE_CONNECTIONS} connections already live"),
    };
    let _ = write_frame(&mut stream, &reply);
}

/// Serves one connection until the client hangs up or stalls, a frame
/// is unrecoverable, the server stops, or a [`Message::Shutdown`]
/// arrives (which also stops the whole server).
fn serve_connection<S: Sketch>(stream: &TcpStream, node: &ClusterNode<S>, shared: &Shared) {
    stream.set_nodelay(true).ok();
    if stream.set_read_timeout(Some(SERVE_IO_DEADLINE)).is_err()
        || stream.set_write_timeout(Some(SERVE_IO_DEADLINE)).is_err()
    {
        return;
    }
    // Buffered, so a small request is one `read`, header and body.
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let mut idle = Duration::ZERO;
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Wait for the first byte of the next frame. The socket's read
        // deadline is the per-frame one, so the idle wait is a run of
        // timed-out polls; once a byte is here, the same deadline
        // bounds every read of the rest of the frame.
        match reader.fill_buf() {
            // Clean EOF: the client is done (or shutdown closed us).
            Ok([]) => return,
            Ok(_) => idle = Duration::ZERO,
            Err(error) if is_timeout(&error) => {
                idle += SERVE_IO_DEADLINE;
                if idle >= SERVE_IDLE_MAX {
                    return;
                }
                continue;
            }
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let request = match read_frame(&mut reader) {
            Ok(message) => message,
            // Reset, EOF or a stall in the middle of a frame.
            Err(FrameError::Io(_)) => return,
            // Malformed frame: report it and hang up — framing is
            // unrecoverable once the byte stream is off the rails. A
            // handshake mismatch (wrong magic, other protocol version)
            // gets the dedicated Unsupported code so old clients see a
            // typed refusal rather than a generic parse failure.
            Err(FrameError::Wire(error)) => {
                let code = if error.is_handshake_mismatch() {
                    ErrorCode::Unsupported
                } else {
                    ErrorCode::BadRequest
                };
                let reply = Message::Error {
                    code,
                    detail: error.to_string(),
                };
                let _ = write_frame(&mut writer, &reply);
                return;
            }
        };
        if matches!(request, Message::Shutdown) {
            let _ = write_frame(&mut writer, &Message::Ack);
            shared.begin_stop();
            return;
        }
        let response = node.handle(request);
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}
