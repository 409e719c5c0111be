//! Failure-hardened transport: bounded retries with jittered backoff,
//! and per-peer health tracking with half-open probes. [`Resilient`]
//! carries the full story.

use crate::error::ClusterError;
use crate::transport::Transport;
use crate::wire::{Message, NodeId};
use parking_lot::Mutex;
use sketch_rand::{Rng64, WyRand};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Retry behavior for transport-level failures.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per exchange (1 = no retries). Clamped to at
    /// least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep (before jitter).
    pub max_backoff: Duration,
    /// Seed for the jitter stream — fixed seed, reproducible schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 20 ms base backoff capped at 500 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (useful where the caller has its
    /// own retry loop, e.g. anti-entropy).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }
}

/// When a peer becomes suspect and how often it is re-probed.
#[derive(Debug, Clone, Copy)]
pub struct HealthPolicy {
    /// Consecutive failed exchanges before the peer is suspect.
    /// Clamped to at least 1.
    pub suspect_after: u32,
    /// How long suspect requests fail fast before one half-open probe
    /// is allowed through.
    pub probe_after: Duration,
}

impl Default for HealthPolicy {
    /// Suspect after 3 consecutive failures, probe every 2 s.
    fn default() -> Self {
        HealthPolicy {
            suspect_after: 3,
            probe_after: Duration::from_secs(2),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PeerState {
    Healthy,
    /// Fail fast until `retry_at`, then let one probe through.
    Suspect {
        retry_at: Instant,
    },
}

struct PeerHealth {
    consecutive_failures: u32,
    state: PeerState,
}

/// How a request was admitted past the health gate.
enum Admission {
    /// Peer healthy: full retry budget.
    Open,
    /// Half-open probe: single attempt, no retries.
    Probe,
    /// Suspect and not yet due for a probe: refuse locally.
    Refuse,
}

/// A [`Transport`] wrapper adding the two behaviors a real network
/// needs that a bare transport does not have:
///
/// * **bounded retries** — a transport-level failure (refused
///   connection, reset, timeout) is retried up to
///   [`RetryPolicy::max_attempts`] times with exponential backoff and
///   seeded jitter, so a blip does not surface to callers and a
///   thundering herd of peers does not re-dial in lockstep;
/// * **suspicion** — after [`HealthPolicy::suspect_after`]
///   *consecutive* failed exchanges, the peer is marked suspect and
///   further requests fail **immediately** with
///   [`ClusterError::Suspect`], without touching the network. Every
///   [`HealthPolicy::probe_after`], one half-open probe is let
///   through; if it succeeds the peer is healthy again, if it fails
///   the suspicion window re-arms. That is what keeps a gossip tick
///   from spending its whole deadline budget on a peer that has been
///   dead for minutes.
///
/// Only transport-level failures count against health: a peer that
/// *answers* — even with an error frame — is alive, and its counter
/// resets. [`ClusterError::UnknownPeer`] (no route configured)
/// neither counts nor retries; it is an address-book problem, not a
/// link problem. What the wrapped transport absorbs itself is not seen
/// here at all: the one redial a [`TcpTransport`](crate::TcpTransport)
/// makes when a kept-alive socket turns out dead spends no attempt and
/// counts no failure — only the request's final outcome does.
///
/// The wrapper composes with everything that takes a [`Transport`]:
/// gossip loops, [`ClusterClient`](crate::ClusterClient), fault
/// injection in tests.
pub struct Resilient<T> {
    inner: T,
    retry: RetryPolicy,
    health: HealthPolicy,
    peers: Mutex<HashMap<NodeId, PeerHealth>>,
    rng: Mutex<WyRand>,
}

impl<T: Transport> Resilient<T> {
    /// Wraps `inner` with the default policies.
    pub fn new(inner: T) -> Self {
        Self::with_policies(inner, RetryPolicy::default(), HealthPolicy::default())
    }

    /// Wraps `inner` with explicit retry and health policies.
    pub fn with_policies(inner: T, retry: RetryPolicy, health: HealthPolicy) -> Self {
        Resilient {
            inner,
            retry,
            health,
            peers: Mutex::new(HashMap::new()),
            rng: Mutex::new(WyRand::new(retry.jitter_seed)),
        }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// True when `peer` is currently suspected down.
    pub fn is_suspect(&self, peer: NodeId) -> bool {
        matches!(
            self.peers.lock().get(&peer).map(|h| h.state),
            Some(PeerState::Suspect { .. })
        )
    }

    /// Every currently suspect peer, ascending.
    pub fn suspects(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .peers
            .lock()
            .iter()
            .filter(|(_, h)| matches!(h.state, PeerState::Suspect { .. }))
            .map(|(&peer, _)| peer)
            .collect();
        out.sort_unstable();
        out
    }

    /// Current consecutive-failure count for `peer` (0 when unknown or
    /// healthy since its last success).
    pub fn consecutive_failures(&self, peer: NodeId) -> u32 {
        self.peers
            .lock()
            .get(&peer)
            .map(|h| h.consecutive_failures)
            .unwrap_or(0)
    }

    /// Consults (and updates) the health gate for one exchange.
    fn admit(&self, peer: NodeId) -> Admission {
        let mut peers = self.peers.lock();
        let Some(entry) = peers.get_mut(&peer) else {
            return Admission::Open;
        };
        match entry.state {
            PeerState::Healthy => Admission::Open,
            PeerState::Suspect { retry_at } => {
                let now = Instant::now();
                if now < retry_at {
                    Admission::Refuse
                } else {
                    // Re-arm the window immediately so concurrent
                    // callers keep failing fast while this one probes.
                    entry.state = PeerState::Suspect {
                        retry_at: now + self.health.probe_after,
                    };
                    Admission::Probe
                }
            }
        }
    }

    fn record_success(&self, peer: NodeId) {
        let mut peers = self.peers.lock();
        if let Some(entry) = peers.get_mut(&peer) {
            entry.consecutive_failures = 0;
            entry.state = PeerState::Healthy;
        }
    }

    fn record_failure(&self, peer: NodeId) {
        let mut peers = self.peers.lock();
        let entry = peers.entry(peer).or_insert(PeerHealth {
            consecutive_failures: 0,
            state: PeerState::Healthy,
        });
        entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
        if entry.consecutive_failures >= self.health.suspect_after.max(1) {
            entry.state = PeerState::Suspect {
                retry_at: Instant::now() + self.health.probe_after,
            };
        }
    }

    /// Jittered exponential backoff before attempt `attempt + 1`
    /// (`attempt` counts from 1): `base · 2^(attempt−1)` capped at
    /// `max_backoff`, scaled by a factor in `[0.5, 1.5)`.
    fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .retry
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let capped = doubled.min(self.retry.max_backoff);
        let jitter = 0.5 + self.rng.lock().unit_exclusive();
        capped.mul_f64(jitter)
    }
}

impl<T: Transport> Transport for Resilient<T> {
    fn request(&self, peer: NodeId, message: &Message) -> Result<Message, ClusterError> {
        let budget = match self.admit(peer) {
            Admission::Refuse => return Err(ClusterError::Suspect(peer)),
            Admission::Probe => 1,
            Admission::Open => self.retry.max_attempts.max(1),
        };
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.inner.request(peer, message) {
                // Only link-level failures retry and count against
                // health; anything else means the exchange reached a
                // live peer.
                Err(ClusterError::Transport(detail)) => {
                    if attempt < budget {
                        std::thread::sleep(self.backoff(attempt));
                        continue;
                    }
                    self.record_failure(peer);
                    return Err(ClusterError::Transport(detail));
                }
                Err(ClusterError::UnknownPeer(peer)) => {
                    return Err(ClusterError::UnknownPeer(peer));
                }
                outcome => {
                    self.record_success(peer);
                    return outcome;
                }
            }
        }
    }
}
