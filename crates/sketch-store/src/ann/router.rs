//! Budgeted query routing over the clustered state.
//!
//! Routing never touches member signatures — only centroids. A
//! neighbor of query `q` at Jaccard ≥ `t` sits within `1 − t` of `q`,
//! so by the triangle inequality it can only live in a cluster whose
//! centroid is within `(1 − t) + radius` of `q` (plus
//! [`ROUTE_SLACK`] for estimation noise — with m = 256 registers the
//! collision-fraction estimate has σ ≈ 0.03, so 0.1 covers ≈ 3σ).
//! Eligible clusters are probed **best-first by centroid distance**
//! until the probed member mass covers the routing recall target of
//! everything eligible; the remaining tail mass is the recall the
//! caller chose to trade for latency. All-pairs sweeps apply the same
//! bound symmetrically to *cluster pairs*: within-cluster candidates
//! come straight from each cluster's banding buckets, and only cluster
//! pairs whose centroid distance clears `(1 − t) + rᵢ + rⱼ + slack`
//! are probed for boundary pairs (smaller side's signatures queried
//! against the bigger side's banding index).

use super::index::ClusteredState;
use crate::store::SketchStore;
use sketch_core::centroid::signature_distance;
use sketch_core::{CardinalityEstimator, JointEstimator, Signature};

/// Estimation-noise slack added to every triangle-inequality
/// eligibility bound: signature distances are D₀-based estimates, not
/// exact metrics, so bounds are widened by ≈ 3σ of the m = 256
/// collision-fraction estimator before a cluster is ruled out.
pub(crate) const ROUTE_SLACK: f64 = 0.1;

/// Clusters a top-k query must probe, best-first by centroid distance:
/// metrically eligible clusters are accumulated until they cover
/// `routing_recall` of the eligible member mass. Empty when no cluster
/// is eligible (the query engine's `< k` fallback then verifies
/// exhaustively, so a query far from every centroid still completes).
pub(crate) fn route_clusters(
    state: &ClusteredState,
    signature: &[u32],
    threshold: f64,
) -> Vec<usize> {
    let reach = (1.0 - threshold) + ROUTE_SLACK;
    let mut eligible: Vec<(f64, usize)> = state
        .clusters
        .iter()
        .enumerate()
        .filter(|(_, cluster)| cluster.members > 0)
        .filter_map(|(at, cluster)| {
            let distance = signature_distance(signature, &cluster.centroid, &state.jaccard_by_d0);
            (distance <= reach + cluster.radius).then_some((distance, at))
        })
        .collect();
    eligible.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let total_mass: usize = eligible
        .iter()
        .map(|&(_, at)| state.clusters[at].members)
        .sum();
    let target_mass = (total_mass as f64 * state.params.routing_recall).ceil() as usize;
    let mut picked = Vec::new();
    let mut mass = 0usize;
    for (_, at) in eligible {
        picked.push(at);
        mass += state.clusters[at].members;
        if mass >= target_mass {
            break;
        }
    }
    picked
}

/// Candidate keys of one routed top-k query: the union of banding
/// lookups in every probed cluster (multi-probed on ordinal register
/// scales, mirroring the flat engine's policy).
pub(crate) fn query_candidates(
    state: &mut ClusteredState,
    signature: &[u32],
    threshold: f64,
    multiprobe: bool,
) -> Vec<String> {
    let routed = route_clusters(state, signature, threshold);
    state.probe_stats.topk_queries += 1;
    state.probe_stats.clusters_probed += routed.len() as u64;
    let mut candidates = Vec::new();
    for at in routed {
        let lsh = &state.clusters[at].lsh;
        if multiprobe {
            candidates.extend(lsh.query_multiprobe(signature));
        } else {
            candidates.extend(lsh.query(signature));
        }
    }
    candidates
}

impl<S> SketchStore<S>
where
    S: Signature + JointEstimator + CardinalityEstimator + Clone + Send + Sync,
{
    /// Candidate pairs of a clustered all-pairs sweep, sorted and
    /// deduplicated with `left < right` (the flat engine's
    /// `candidate_pairs` contract).
    ///
    /// Within-cluster pairs come from each cluster's own banding
    /// buckets. Boundary pairs come from probing eligible cluster
    /// pairs: the smaller cluster's members are queried against the
    /// larger cluster's banding index, so a probe costs
    /// `min(|i|, |j|) · bands` lookups instead of `|i| · |j|`
    /// comparisons. Eligibility is resolved first (pure centroid
    /// geometry); each probing member's signature is then peeked from
    /// the store exactly once per sweep (never promoting) and hashed
    /// once per distinct target layout, no matter how many cluster
    /// pairs it participates in.
    pub(crate) fn clustered_candidate_pairs(
        &self,
        state: &mut ClusteredState,
        threshold: f64,
    ) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        for cluster in &state.clusters {
            pairs.extend(cluster.lsh.candidate_pairs());
        }

        // Geometry pass: for each cluster, the larger clusters its
        // members must probe for boundary pairs.
        let reach = (1.0 - threshold) + ROUTE_SLACK;
        let mut probed_pairs = 0u64;
        let mut targets: Vec<Vec<usize>> = vec![Vec::new(); state.clusters.len()];
        for i in 0..state.clusters.len() {
            for j in i + 1..state.clusters.len() {
                let (a, b) = (&state.clusters[i], &state.clusters[j]);
                if a.members == 0 || b.members == 0 {
                    continue;
                }
                let distance = signature_distance(&a.centroid, &b.centroid, &state.jaccard_by_d0);
                if distance > reach + a.radius + b.radius {
                    continue; // no cross pair can clear the threshold
                }
                probed_pairs += 1;
                let (from, to) = if a.members <= b.members {
                    (i, j)
                } else {
                    (j, i)
                };
                targets[from].push(to);
            }
        }

        // Probe pass, one store peek per participating member.
        let mut signature: Vec<u32> = Vec::new();
        let mut layouts: Vec<(usize, usize)> = Vec::new();
        let mut layout_hashes: Vec<Vec<u64>> = Vec::new();
        let mut hits: Vec<String> = Vec::new();
        for (key, entry) in &state.keys {
            let probe_list = &targets[entry.cluster];
            if probe_list.is_empty() {
                continue;
            }
            let peeked = {
                let shard = self.shards()[self.shard_index(key)].read();
                shard.get(key).and_then(|slot| {
                    self.peek_slot(slot, |sketch| sketch.signature_into(&mut signature))
                })
            };
            if peeked.is_none() {
                continue; // vanished or corrupt mid-sweep
            }
            layouts.clear();
            layout_hashes.clear();
            for &to in probe_list {
                let target = &state.clusters[to].lsh;
                let layout = (target.bands(), target.rows());
                let at = layouts
                    .iter()
                    .position(|l| *l == layout)
                    .unwrap_or_else(|| {
                        let mut hashes = Vec::new();
                        target.band_hashes_into(&signature, &mut hashes);
                        layouts.push(layout);
                        layout_hashes.push(hashes);
                        layouts.len() - 1
                    });
                hits.clear();
                target.query_hashed_into(&layout_hashes[at], &mut hits);
                for other in hits.drain(..) {
                    let pair = if *key < other {
                        (key.clone(), other)
                    } else {
                        (other, key.clone())
                    };
                    pairs.push(pair);
                }
            }
        }
        state.probe_stats.sweeps += 1;
        state.probe_stats.cluster_pairs_probed += probed_pairs;
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}
