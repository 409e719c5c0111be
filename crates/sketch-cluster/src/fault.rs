//! Fault injection for convergence tests.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and, driven by a seeded
//! [`WyRand`], makes exchanges fail the ways real networks do:
//!
//! * **drop** — the exchange errors; the caller saw nothing;
//! * **stale replay** — a previously recorded response *to the same
//!   kind of request* for the same peer is returned instead of a
//!   fresh one. From the caller's view this is a duplicated or
//!   reordered frame arriving late: it must be absorbed by idempotent
//!   merging, the monotonic high-water mark, or the request echo a
//!   delta page carries;
//! * **duplicate** — the request is delivered twice (the peer handles
//!   it both times), modeling a retransmitted request frame;
//! * **partition** — a peer set is unreachable until healed, modeling
//!   a network split;
//! * **mid-transfer cut** — a one-shot, counter-armed failure
//!   ([`cut_after`](FaultyTransport::cut_after)): the next N exchanges
//!   with a peer pass, then one fails, modeling a connection dying
//!   partway through a paged pull.
//!
//! The wrapper is deterministic for a fixed seed and call sequence:
//! every `request` consumes exactly the same number of values from
//! the random stream whatever verdict falls, so the fault schedule
//! depends only on the *order and count* of exchanges — adding new
//! message types to the protocol, or changing which faults a plan
//! enables, cannot shift the decisions made for later exchanges.
//! Rerunning a failing test replays the identical schedule.

use crate::error::ClusterError;
use crate::transport::Transport;
use crate::wire::{Message, NodeId};
use parking_lot::Mutex;
use sketch_rand::{Rng64, WyRand};
use std::collections::{HashMap, HashSet};

/// Per-fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Chance an exchange is dropped entirely.
    pub drop: f64,
    /// Chance a recorded earlier response is replayed instead of
    /// performing a fresh exchange.
    pub stale_replay: f64,
    /// Chance the request is delivered to the peer twice.
    pub duplicate: f64,
}

impl FaultPlan {
    /// A plan that never injects anything (partitions and armed cuts
    /// still work).
    pub fn none() -> Self {
        FaultPlan {
            drop: 0.0,
            stale_replay: 0.0,
            duplicate: 0.0,
        }
    }

    /// A lossy-but-livable mix: 20% drops, 10% stale replays, 10%
    /// duplicated deliveries.
    pub fn lossy() -> Self {
        FaultPlan {
            drop: 0.20,
            stale_replay: 0.10,
            duplicate: 0.10,
        }
    }
}

struct FaultState {
    rng: WyRand,
    /// Last few responses per (peer, request kind), fodder for stale
    /// replays. Keying by request kind keeps a replay *plausible* —
    /// a delta page is never replayed to a cardinality request —
    /// which models frame reordering within one exchange type rather
    /// than protocol corruption.
    recorded: HashMap<(NodeId, &'static str), Vec<Message>>,
    /// Peers currently unreachable through this transport.
    partitioned: HashSet<NodeId>,
    /// Armed one-shot cuts: peer → how many more exchanges pass
    /// before one fails.
    cuts: HashMap<NodeId, u32>,
    injected: u64,
}

/// How many old responses per (peer, kind) are kept for stale replays.
const REPLAY_DEPTH: usize = 4;

/// A [`Transport`] wrapper that injects faults per [`FaultPlan`].
///
/// Each node under test gets its **own** wrapper around the shared
/// inner network, so partitions can be asymmetric and fault schedules
/// independent per node.
pub struct FaultyTransport<T> {
    inner: T,
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner`, drawing fault decisions from `seed`.
    pub fn new(inner: T, plan: FaultPlan, seed: u64) -> Self {
        FaultyTransport {
            inner,
            plan,
            state: Mutex::new(FaultState {
                rng: WyRand::new(seed),
                recorded: HashMap::new(),
                partitioned: HashSet::new(),
                cuts: HashMap::new(),
                injected: 0,
            }),
        }
    }

    /// Makes `peer` unreachable until [`heal_all`](Self::heal_all).
    pub fn partition(&self, peer: NodeId) {
        self.state.lock().partitioned.insert(peer);
    }

    /// Restores reachability of every peer.
    pub fn heal_all(&self) {
        self.state.lock().partitioned.clear();
    }

    /// Arms a one-shot cut against `peer`: the next `exchanges`
    /// exchanges with it pass through cleanly, then exactly one fails
    /// with a transport error — the connection dying partway through a
    /// paged pull — after which traffic flows again. Counter-based, not
    /// random, so tests cut at an exact page boundary.
    pub fn cut_after(&self, peer: NodeId, exchanges: u32) {
        self.state.lock().cuts.insert(peer, exchanges);
    }

    /// How many faults (drops, replays, duplicates, cuts)
    /// have fired so far — lets tests assert the schedule actually
    /// injected something.
    pub fn faults_injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        enum Verdict {
            Partitioned,
            Cut,
            Drop,
            Replay(Message),
            Duplicate,
            Clean,
        }
        let kind = message.kind();
        let verdict = {
            let mut state = self.state.lock();
            // Fixed draw discipline: exactly three unit rolls and one
            // index draw per request, whatever the verdict — see the
            // module docs for why.
            let drop_roll = state.rng.unit_exclusive();
            let replay_roll = state.rng.unit_exclusive();
            let duplicate_roll = state.rng.unit_exclusive();
            let pick = state.rng.next_u64() as usize;
            if state.partitioned.contains(&peer) {
                Verdict::Partitioned
            } else if let Some(remaining) = state.cuts.get_mut(&peer) {
                // An armed cut overrides the random schedule: pass
                // deterministically until the counter runs out, then
                // fail exactly once.
                if *remaining == 0 {
                    state.cuts.remove(&peer);
                    state.injected += 1;
                    Verdict::Cut
                } else {
                    *remaining -= 1;
                    Verdict::Clean
                }
            } else if drop_roll < self.plan.drop {
                state.injected += 1;
                Verdict::Drop
            } else if replay_roll < self.plan.stale_replay {
                // Replay only if something was recorded for this peer
                // and request kind; otherwise run the exchange
                // cleanly.
                let replay = state
                    .recorded
                    .get(&(peer, kind))
                    .filter(|history| !history.is_empty())
                    .map(|history| history[pick % history.len()].clone());
                match replay {
                    Some(message) => {
                        state.injected += 1;
                        Verdict::Replay(message)
                    }
                    None => Verdict::Clean,
                }
            } else if duplicate_roll < self.plan.duplicate {
                state.injected += 1;
                Verdict::Duplicate
            } else {
                Verdict::Clean
            }
        };
        match verdict {
            Verdict::Partitioned => Err(ClusterError::Transport(format!(
                "partitioned from node {peer}"
            ))),
            Verdict::Cut => Err(ClusterError::Transport(format!(
                "connection to node {peer} cut mid-transfer"
            ))),
            Verdict::Drop => Err(ClusterError::Transport(format!(
                "frame to node {peer} dropped"
            ))),
            Verdict::Replay(message) => Ok(message),
            Verdict::Duplicate => {
                // The peer sees the request twice; the caller gets the
                // second response.
                let _ = self.inner.request(peer, message)?;
                let response = self.inner.request(peer, message)?;
                self.record(peer, kind, &response);
                Ok(response)
            }
            Verdict::Clean => {
                let response = self.inner.request(peer, message)?;
                self.record(peer, kind, &response);
                Ok(response)
            }
        }
    }
}

impl<T: Transport> FaultyTransport<T> {
    fn record(&self, peer: NodeId, kind: &'static str, response: &Message) {
        let mut state = self.state.lock();
        let history = state.recorded.entry((peer, kind)).or_default();
        if history.len() == REPLAY_DEPTH {
            history.remove(0);
        }
        history.push(response.clone());
    }
}
