//! The clustered index state: per-cluster tuned bandings plus the
//! incremental maintenance that keeps them aligned with the store.
//!
//! Each cluster owns a centroid signature, a radius, and a small
//! [`LshIndex`] whose layout was tuned to the cluster's *effective*
//! threshold — the query threshold raised to the similarity floor its
//! member density implies (members within distance `d` of the centroid
//! pair up within `2d` by the triangle inequality, so dense clusters
//! afford far more selective layouts than the global tuning would
//! dare). Maintenance is a version sweep of every shard (the flat index
//! sweeps only shards whose mutation mark moved): it re-bands exactly
//! the moved keys, assigning each to its nearest centroid and widening
//! that cluster's radius; a rebuild (fresh k-center pass) is
//! triggered only when radii drift past their built values or the
//! population doubles/halves, so steady traffic never re-clusters.

use super::cluster::k_center;
use super::ProbeStats;
use crate::query::BANDING_RECALL;
use crate::store::SketchStore;
use lsh::{plan_bandings, Banding, ClusterLoad, LshIndex};
use sketch_core::centroid::signature_distance;
use sketch_core::{invert_collision_probability, Sketch};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A cluster's radius may exceed its built value by this factor (plus
/// [`REBUILD_RADIUS_SLACK`]) before the state is re-centered: drifted
/// centroids weaken the routing bound and the density the bandings were
/// tuned to.
const REBUILD_RADIUS_FACTOR: f64 = 1.5;

/// Absolute radius slack of the drift trigger, so clusters built with
/// near-zero radius (duplicates) tolerate a little spread before
/// forcing a rebuild.
const REBUILD_RADIUS_SLACK: f64 = 0.05;

/// Cap on the density-derived effective tuning threshold: even a
/// cluster of near-duplicates keeps a banding that can still see pairs
/// at 0.95 Jaccard, bounding how much recall the density heuristic can
/// spend.
const MAX_EFFECTIVE_THRESHOLD: f64 = 0.95;

/// The clustered strategy's knobs, validated and unpacked from
/// [`super::IndexStrategy::Clustered`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ClusteredParams {
    pub(crate) memory_budget_bytes: Option<usize>,
    pub(crate) routing_recall: f64,
    pub(crate) clusters: Option<usize>,
    pub(crate) flat_cutover: usize,
}

/// One cluster of the index: routing geometry plus its tuned banding.
pub(crate) struct Cluster {
    /// Per-register mode of the members at build time (the routing
    /// anchor).
    pub(crate) centroid: Vec<u32>,
    /// The cluster's banding layout (always concrete: the state only
    /// exists at operating points where the global tuner succeeds, and
    /// per-cluster collision probabilities are at least the global
    /// one).
    pub(crate) banding: Banding,
    /// Candidate recall the layout delivers at the cluster's effective
    /// collision probability (below the target only under budget
    /// pressure).
    pub(crate) planned_recall: f64,
    /// The cluster's banding index over member signatures.
    pub(crate) lsh: LshIndex<String>,
    /// Live members currently banded into `lsh`.
    pub(crate) members: usize,
    /// Current max member→centroid distance (grows as moved keys join;
    /// never shrinks until a rebuild).
    pub(crate) radius: f64,
    /// Radius at build time — the drift baseline.
    pub(crate) built_radius: f64,
}

/// Per-key bookkeeping of the clustered index: the store version that
/// was banded, the cluster it went to, and the band bucket ids for
/// O(bands) removal.
pub(crate) struct ClusteredKey {
    pub(crate) version: u64,
    pub(crate) cluster: usize,
    pub(crate) band_hashes: Box<[u64]>,
}

/// One clustered index state — the `Backend::Clustered` payload of a
/// cached similarity index.
pub(crate) struct ClusteredState {
    pub(crate) params: ClusteredParams,
    /// Inverse collision-probability table shared with the store
    /// (distance lookups).
    pub(crate) jaccard_by_d0: Arc<[f64]>,
    pub(crate) clusters: Vec<Cluster>,
    pub(crate) keys: HashMap<String, ClusteredKey>,
    /// Live keys at build time — the population-change baseline.
    pub(crate) built_keys: usize,
    /// Cumulative probe counters (carried across rebuilds by the
    /// caller).
    pub(crate) probe_stats: ProbeStats,
}

/// Nearest cluster (by centroid distance) among those of `clusters`,
/// with the distance; `None` when there are no clusters.
pub(crate) fn nearest_cluster(
    clusters: &[Cluster],
    signature: &[u32],
    jaccard_by_d0: &[f64],
) -> Option<(usize, f64)> {
    clusters
        .iter()
        .enumerate()
        .map(|(at, cluster)| {
            (
                at,
                signature_distance(signature, &cluster.centroid, jaccard_by_d0),
            )
        })
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
}

/// The threshold a cluster's banding is tuned at: the query threshold,
/// raised to the pair-similarity floor the cluster's density implies.
/// With `d_hi` the members' upper-quartile centroid distance, 75 % of
/// members sit within `d_hi`, and any two of those pair up within
/// `2·d_hi` (triangle inequality) — i.e. at Jaccard ≥ `1 − 2·d_hi`.
/// Tuning at that floor (capped at [`MAX_EFFECTIVE_THRESHOLD`], never
/// below the query threshold) gives dense clusters more selective
/// layouts without losing the pairs they actually hold.
fn effective_threshold(threshold: f64, member_distances: &[f64]) -> f64 {
    if member_distances.is_empty() {
        return threshold;
    }
    let mut sorted = member_distances.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let d_hi = sorted[(sorted.len() * 3 / 4).min(sorted.len() - 1)];
    let pair_floor = 1.0 - 2.0 * d_hi;
    threshold.max(pair_floor.min(MAX_EFFECTIVE_THRESHOLD))
}

impl<S: Sketch> SketchStore<S> {
    /// Inverse of the family's register-collision-probability curve at
    /// every possible equal-register count `d0 ∈ 0..=m`, probed on an
    /// empty factory sketch — the table centroid distances are looked
    /// up in. The curve is a configuration property, so the table is
    /// computed once per store and shared (by `Arc`) with every
    /// clustered state.
    fn collision_inverse_table(&self) -> Arc<[f64]> {
        self.collision_inverse
            .get_or_init(|| {
                let probe = self.make_sketch();
                let m = probe.signature_len();
                (0..=m)
                    .map(|d0| {
                        invert_collision_probability(d0 as f64 / m.max(1) as f64, |jaccard| {
                            probe.register_collision_probability(jaccard)
                        })
                    })
                    .collect()
            })
            .clone()
    }

    /// Sweeps every live key's `(key, version, signature)` out of the
    /// store (peeking, never promoting), sorted by key — shard maps are
    /// hash-ordered, and the k-center seeding must see a deterministic
    /// order.
    fn sweep_signatures(&self) -> (Vec<String>, Vec<u64>, Vec<Vec<u32>>) {
        let mut rows: Vec<(String, u64, Vec<u32>)> = Vec::new();
        for shard in self.shards() {
            let guard = shard.read();
            for (key, slot) in guard.iter() {
                // Corrupt cold slots stay unindexed until a write heals
                // them (same policy as the flat refresh).
                let signature = self.peek_slot(slot, |sketch| {
                    let mut signature = Vec::new();
                    sketch.signature_into(&mut signature);
                    signature
                });
                if let Some(signature) = signature {
                    rows.push((key.clone(), slot.version, signature));
                }
            }
        }
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut keys = Vec::with_capacity(rows.len());
        let mut versions = Vec::with_capacity(rows.len());
        let mut signatures = Vec::with_capacity(rows.len());
        for (key, version, signature) in rows {
            keys.push(key);
            versions.push(version);
            signatures.push(signature);
        }
        (keys, versions, signatures)
    }

    /// Builds a clustered state from scratch: sweep, k-center, density
    /// measurement, budgeted banding plan, member insertion.
    ///
    /// Only called at operating points where the **global** tuner
    /// succeeds (`Banding::tune` at the query threshold) — per-cluster
    /// effective thresholds are at least the query threshold, so every
    /// cluster then tunes too; the global layout backstops the
    /// (unreachable in practice) `None` plan.
    pub(crate) fn build_clustered_state(
        &self,
        threshold: f64,
        params: ClusteredParams,
    ) -> ClusteredState {
        let jaccard_by_d0 = self.collision_inverse_table();
        let probe = self.make_sketch();
        let m = probe.signature_len();
        let (keys, versions, signatures) = self.sweep_signatures();
        let mut state = ClusteredState {
            params,
            jaccard_by_d0: jaccard_by_d0.clone(),
            clusters: Vec::new(),
            keys: HashMap::with_capacity(keys.len()),
            built_keys: keys.len(),
            probe_stats: ProbeStats::default(),
        };
        if keys.is_empty() {
            return state;
        }

        let k = params
            .clusters
            .unwrap_or_else(|| (keys.len() as f64).sqrt().ceil() as usize)
            .max(1);
        let clustering = k_center(&signatures, k, &jaccard_by_d0);

        // Per-cluster member distances drive the density measurement.
        let cluster_count = clustering.centroids.len();
        let mut member_distances: Vec<Vec<f64>> = vec![Vec::new(); cluster_count];
        for (at, &cluster) in clustering.assignment.iter().enumerate() {
            member_distances[cluster].push(clustering.distance[at]);
        }
        let loads: Vec<ClusterLoad> = member_distances
            .iter()
            .map(|distances| ClusterLoad {
                keys: distances.len(),
                collision_p: probe
                    .register_collision_probability(effective_threshold(threshold, distances)),
            })
            .collect();
        let plans = plan_bandings(m, BANDING_RECALL, params.memory_budget_bytes, &loads);

        let global = Banding::tune(
            m,
            probe.register_collision_probability(threshold),
            BANDING_RECALL,
        )
        .expect("clustered states are only built at tunable operating points");
        state.clusters = clustering
            .centroids
            .into_iter()
            .zip(&plans)
            .zip(&clustering.radius)
            .map(|((centroid, plan), &radius)| {
                let banding = plan.banding.unwrap_or(global);
                Cluster {
                    centroid,
                    banding,
                    planned_recall: plan.recall,
                    lsh: LshIndex::new(banding.bands, banding.rows)
                        .expect("planned banding has bands, rows >= 1"),
                    members: 0,
                    radius,
                    built_radius: radius,
                }
            })
            .collect();

        let mut band_hashes: Vec<u64> = Vec::new();
        for ((key, version), (signature, &cluster)) in keys
            .into_iter()
            .zip(versions)
            .zip(signatures.iter().zip(&clustering.assignment))
        {
            let target = &mut state.clusters[cluster];
            target.lsh.band_hashes_into(signature, &mut band_hashes);
            target.lsh.insert_hashed(key.clone(), &band_hashes);
            target.members += 1;
            state.keys.insert(
                key,
                ClusteredKey {
                    version,
                    cluster,
                    band_hashes: band_hashes.clone().into_boxed_slice(),
                },
            );
        }
        state
    }

    /// Re-bands exactly the keys whose version stamp moved (assigning
    /// each to its nearest centroid and widening that cluster's
    /// radius), drops entries for removed keys, and reports whether the
    /// state has degraded enough — radius drift past the built
    /// baseline, or a doubled/halved population — that the caller
    /// should rebuild it from scratch.
    pub(crate) fn refresh_clustered(&self, state: &mut ClusteredState) -> bool {
        let ClusteredState {
            clusters,
            keys,
            jaccard_by_d0,
            ..
        } = state;
        let mut live_count = 0usize;
        let mut signature: Vec<u32> = Vec::new();
        let mut band_hashes: Vec<u64> = Vec::new();
        for shard in self.shards() {
            let guard = shard.read();
            live_count += guard.len();
            for (key, slot) in guard.iter() {
                if keys.get(key).is_some_and(|e| e.version == slot.version) {
                    continue;
                }
                if self
                    .peek_slot(slot, |sketch| sketch.signature_into(&mut signature))
                    .is_none()
                {
                    continue;
                }
                // A state built on an empty store has no centroids yet;
                // the rebuild trigger below picks the keys up.
                let Some((cluster, distance)) =
                    nearest_cluster(clusters, &signature, jaccard_by_d0)
                else {
                    continue;
                };
                if let Some(old) = keys.get(key) {
                    clusters[old.cluster]
                        .lsh
                        .remove_hashed(key, &old.band_hashes);
                    clusters[old.cluster].members -= 1;
                }
                let target = &mut clusters[cluster];
                target.lsh.band_hashes_into(&signature, &mut band_hashes);
                target.lsh.insert_hashed(key.clone(), &band_hashes);
                target.members += 1;
                target.radius = target.radius.max(distance);
                keys.insert(
                    key.clone(),
                    ClusteredKey {
                        version: slot.version,
                        cluster,
                        band_hashes: band_hashes.clone().into_boxed_slice(),
                    },
                );
            }
        }
        // Counts only disagree when keys were removed (or never indexed
        // because no centroid existed), so the warm path clones no key
        // string for removal detection.
        if keys.len() != live_count {
            let mut live: HashSet<String> = HashSet::with_capacity(live_count);
            for shard in self.shards() {
                live.extend(shard.read().keys().cloned());
            }
            keys.retain(|key, entry| {
                live.contains(key) || {
                    clusters[entry.cluster]
                        .lsh
                        .remove_hashed(key, &entry.band_hashes);
                    clusters[entry.cluster].members -= 1;
                    false
                }
            });
        }

        if state.built_keys == 0 {
            return live_count > 0;
        }
        if live_count > state.built_keys.saturating_mul(2)
            || live_count.saturating_mul(2) < state.built_keys
        {
            return true;
        }
        state.clusters.iter().any(|cluster| {
            cluster.radius > cluster.built_radius * REBUILD_RADIUS_FACTOR + REBUILD_RADIUS_SLACK
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threshold_raises_for_dense_clusters() {
        // All members within 0.01 of the centroid: pair floor 0.98,
        // capped at 0.95.
        let dense = vec![0.01, 0.005, 0.0, 0.01];
        assert_eq!(effective_threshold(0.5, &dense), MAX_EFFECTIVE_THRESHOLD);
        // Loose cluster: floor below the query threshold, which wins.
        let loose = vec![0.4, 0.45, 0.3, 0.5];
        assert_eq!(effective_threshold(0.5, &loose), 0.5);
        // Moderate density: upper-quartile distance 0.1 => floor 0.8.
        let moderate = vec![0.1, 0.1, 0.1, 0.1];
        assert!((effective_threshold(0.5, &moderate) - 0.8).abs() < 1e-12);
        // No members: the query threshold passes through.
        assert_eq!(effective_threshold(0.7, &[]), 0.7);
    }
}
