//! Node bootstrap: one-donor catch-up for total-state loss.
//!
//! A replaced node — wiped disk, fresh container, new machine under an
//! old identity — has nothing, and a plain gossip round would pull a
//! full state transfer **per peer**. Bootstrap is the same paged delta
//! pull every sync uses ([`ClusterNode::full_sync_with`]), aimed at
//! one peer:
//!
//! 1. **detect** — [`ClusterNode::needs_bootstrap`] is true when the
//!    local store is empty (cold start, or recovery found nothing);
//! 2. **pick a donor** — [`ClusterNode::bootstrap`] tries the peers in
//!    list order. Under [`Resilient`](crate::Resilient) a peer that just
//!    timed out is suspect and fails locally, without a request, until
//!    its half-open probe is due, so the next peer is asked at once;
//! 3. **pull** — the donor's state arrives from version 0 in bounded,
//!    checksummed pages, each merged as it lands and each advancing
//!    the donor's high-water mark. Nothing is staged: a donor that
//!    dies mid-transfer is abandoned for the next one, and what it
//!    already shipped stays merged (union merge is idempotent, so the
//!    next donor re-shipping it changes nothing);
//! 4. **hand off** — every other peer's current write epoch is probed
//!    and adopted as its high-water mark, so the first sync rounds
//!    ship only writes newer than the catch-up. Keys that *only* a
//!    non-donor peer holds arrive through the rotating anti-entropy
//!    full pull — the standing repair channel, now doing bounded
//!    catch-up work instead of the whole transfer.
//!
//! Because sketch union merge is idempotent and commutative, none of
//! this needs coordination: catching up from a stale donor and then
//! delta-syncing converges to the same state as any other order —
//! which is also why donors need no ranking beyond the peer list.

use crate::error::ClusterError;
use crate::node::ClusterNode;
use crate::transport::Transport;
use crate::wire::{ErrorCode, Message, NodeId};
use sketch_core::Sketch;

/// What one completed bootstrap accomplished — the replacement-node
/// counterpart of [`sketch_store::RecoveryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootstrapReport {
    /// The peer whose state was pulled.
    pub donor: NodeId,
    /// Peers tried before `donor` that failed (unreachable, refused,
    /// died mid-transfer, or had nothing to ship), in trial order.
    pub failed_donors: Vec<NodeId>,
    /// Delta pages the donor shipped.
    pub pages: usize,
    /// Keys the donor shipped.
    pub keys: usize,
    /// Compact payload bytes the donor shipped.
    pub bytes: u64,
    /// The donor's write-counter value the pull covers — held as the
    /// donor's high-water mark.
    pub donor_epoch: u64,
}

impl std::fmt::Display for BootstrapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bootstrapped from node {}: {} keys ({} bytes, {} pages) at donor epoch {}",
            self.donor, self.keys, self.bytes, self.pages, self.donor_epoch,
        )?;
        if !self.failed_donors.is_empty() {
            write!(f, ", failed donors: {:?}", self.failed_donors)?;
        }
        Ok(())
    }
}

/// Asks `peer` for its current write epoch without transferring any
/// state: a `DeltaRequest` past any possible version returns an empty
/// delta stamped with the peer's write counter.
fn probe_write_epoch(transport: &impl Transport, peer: NodeId) -> Result<u64, ClusterError> {
    let request = Message::DeltaRequest {
        after: u64::MAX,
        page_bytes: 0,
    };
    match transport.request(peer, &request)? {
        Message::Delta { up_to, .. } => Ok(up_to),
        Message::Error { code, detail } => Err(ClusterError::from_remote(code, detail)),
        other => Err(ClusterError::Protocol(format!(
            "expected Delta, got {other:?}"
        ))),
    }
}

impl<S: Sketch> ClusterNode<S> {
    /// True when this node has no state and should bootstrap from a
    /// peer before pulling from all of them: a brand-new node, or one
    /// whose durable directory was lost entirely (recovery found
    /// nothing to replay).
    pub fn needs_bootstrap(&self) -> bool {
        self.store().is_empty()
    }

    /// Bootstraps this node from the first of its
    /// [`peers`](Self::peers), in list order, that delivers its whole
    /// state; earlier failures are recorded in
    /// [`BootstrapReport::failed_donors`] and the next peer is tried —
    /// mid-transfer donor death is survived by moving on, not by giving
    /// up. A donor with nothing to ship counts as failed: its silence
    /// says nothing about what the other peers hold. Wrap the transport
    /// in [`Resilient`](crate::Resilient) to retry each page exchange
    /// and to pass over suspect peers without a request.
    ///
    /// On success the pull has left the donor's epoch as its
    /// high-water mark, every other peer's current epoch is adopted as
    /// its mark, and the report is retained
    /// ([`last_bootstrap`](Self::last_bootstrap)). A non-empty store
    /// is merged into, never replaced.
    pub fn bootstrap(&self, transport: &impl Transport) -> Result<BootstrapReport, ClusterError> {
        let mut failed_donors: Vec<NodeId> = Vec::new();
        let mut last_error: Option<ClusterError> = None;
        for &donor in self.peers() {
            let pull = match self.full_sync_with(transport, donor) {
                Ok(pull) if pull.keys_received > 0 => pull,
                Ok(_) => {
                    failed_donors.push(donor);
                    last_error = Some(ClusterError::Remote {
                        code: ErrorCode::Unavailable,
                        detail: format!("node {donor} has nothing to bootstrap from"),
                    });
                    continue;
                }
                Err(error) => {
                    failed_donors.push(donor);
                    last_error = Some(error);
                    continue;
                }
            };
            self.fast_forward_marks(transport, donor);
            let report = BootstrapReport {
                donor,
                failed_donors,
                pages: pull.pages,
                keys: pull.keys_received,
                bytes: pull.payload_bytes,
                donor_epoch: pull.up_to,
            };
            self.set_last_bootstrap(report.clone());
            return Ok(report);
        }
        Err(last_error
            .unwrap_or_else(|| ClusterError::Transport("no bootstrap donor available".to_owned())))
    }

    /// Adopts every non-donor peer's *current* write epoch as its
    /// high-water mark, so post-bootstrap delta sync ships only
    /// writes newer than the catch-up. Probe failures are ignored —
    /// an unreachable peer keeps its mark and is delta-pulled from
    /// there once it returns.
    fn fast_forward_marks(&self, transport: &impl Transport, donor: NodeId) {
        for &peer in self.peers() {
            if peer == donor {
                continue;
            }
            if let Ok(epoch) = probe_write_epoch(transport, peer) {
                self.advance_high_water(peer, epoch);
            }
        }
    }
}
