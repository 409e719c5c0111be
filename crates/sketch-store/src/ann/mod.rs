//! Clustered ANN index: per-cluster tuned banding with budgeted query
//! routing.
//!
//! The flat similarity index ([`crate::query`]) tunes **one** banding
//! layout from the family's collision-probability curve at the query
//! threshold. That is the right shape when key similarities are
//! homogeneous — and the wrong one when they are not: a skewed
//! workload's dense regions flood the fixed layout's buckets with
//! near-duplicate candidates (over-probing), while its sparse regions
//! see no locality at all. This module family replaces the single
//! layout with a PUFFINN-style two-level structure:
//!
//! 1. **Clustering** ([`cluster`]) — keys are grouped by greedy
//!    farthest-point k-center over their register signatures, in the
//!    estimated Jaccard distance the §3.3 locality property induces
//!    ([`sketch_core::centroid`]). Jaccard distance is a true metric,
//!    so every cluster has a meaningful radius and routing can use
//!    triangle-inequality bounds.
//! 2. **Per-cluster tuned banding** ([`index`]) — each cluster gets a
//!    small [`lsh::LshIndex`] whose layout is tuned to the cluster's
//!    *observed* similarity density (dense clusters afford more rows
//!    per band, i.e. far fewer false candidates), with the fleet of
//!    layouts planned under one total memory budget
//!    ([`lsh::plan_bandings`]).
//! 3. **Budgeted routing** ([`router`]) — queries are compared against
//!    cluster centroids only, then probe the few metrically eligible
//!    clusters best-first until the routed member mass reaches the
//!    recall target. Top-k therefore scales with the clusters
//!    probed, not the candidate keys stored.
//!
//! The user-facing knobs are `memory_budget_bytes` and `recall_target`
//! — bands × rows never appear in the clustered API. The index is
//! maintained incrementally off the store's per-key version stamps
//! (only moved keys re-assign and re-band; radius drift or a 2×
//! population change triggers a re-center), and stores below
//! [`flat_cutover`](IndexStrategy::Clustered::flat_cutover) keys
//! transparently fall back to the flat index, where one layout is
//! cheaper than centroids plus routing.

pub(crate) mod cluster;
pub(crate) mod index;
pub(crate) mod router;

/// Default routing recall target of
/// [`IndexStrategy::clustered`]: the probed clusters cover at least
/// this fraction of the metrically eligible member mass.
pub const DEFAULT_CLUSTERED_RECALL: f64 = 0.95;

/// Default [`IndexStrategy::Clustered::flat_cutover`]: below this many
/// keys the flat single-banding index answers clustered-strategy
/// queries (centroid routing cannot pay for itself on tiny stores).
pub const DEFAULT_FLAT_CUTOVER: usize = 256;

/// Where a similarity query's candidates come from
/// ([`crate::QueryOptions::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexStrategy {
    /// One global banding auto-tuned at the query threshold (the
    /// original engine). The default.
    #[default]
    Flat,
    /// The clustered ANN index: k-center clusters over register
    /// signatures, per-cluster tuned bandings under a shared memory
    /// budget, and best-first centroid routing toward a recall target.
    Clustered {
        /// Ceiling on the modeled index memory across all clusters
        /// (`None` = unbudgeted). Under pressure the planner walks the
        /// most expensive clusters down to fewer bands, trading their
        /// banding recall for memory ([`lsh::plan_bandings`]).
        memory_budget_bytes: Option<usize>,
        /// Routing recall target in `(0, 1]`: probe clusters
        /// best-first until they cover this fraction of the eligible
        /// member mass ([`DEFAULT_CLUSTERED_RECALL`]).
        recall_target: f64,
        /// Number of clusters (`None` = automatic, ≈ √n at build
        /// time).
        clusters: Option<usize>,
        /// Below this many live keys the strategy serves from the flat
        /// index instead ([`DEFAULT_FLAT_CUTOVER`]); the clustered
        /// structure is (re)built once the store grows past it.
        flat_cutover: usize,
    },
    /// No index: a top-k query verifies every key, a sweep every pair.
    /// The complete reference the other strategies' recall is measured
    /// against, and the right tool when completeness matters more than
    /// latency. It builds, refreshes and caches no index state.
    Exhaustive,
}

impl IndexStrategy {
    /// The clustered strategy with every knob at its default
    /// (unbudgeted, recall [`DEFAULT_CLUSTERED_RECALL`], automatic
    /// cluster count, cutover [`DEFAULT_FLAT_CUTOVER`]).
    pub fn clustered() -> Self {
        IndexStrategy::Clustered {
            memory_budget_bytes: None,
            recall_target: DEFAULT_CLUSTERED_RECALL,
            clusters: None,
            flat_cutover: DEFAULT_FLAT_CUTOVER,
        }
    }
}

/// Cumulative probe counters of one clustered index state — how much
/// of the store routing actually touched, reported through
/// [`crate::SimilarityIndexInfo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeStats {
    /// Routed top-k queries answered.
    pub topk_queries: u64,
    /// Clusters probed across all top-k queries (`/ topk_queries` =
    /// mean probe width; the flat index always "probes" the whole
    /// store).
    pub clusters_probed: u64,
    /// All-pairs sweeps answered.
    pub sweeps: u64,
    /// Cross-cluster pairs close enough (centroid distance within the
    /// triangle-inequality bound) to be probed for boundary candidates,
    /// across all sweeps.
    pub cluster_pairs_probed: u64,
}

/// Clustered-index diagnostics, reported through
/// [`crate::SimilarityIndexInfo::clustered`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredIndexInfo {
    /// Number of clusters.
    pub clusters: usize,
    /// Keys per cluster (index = cluster id; the skew the per-cluster
    /// tuning adapts to).
    pub key_histogram: Vec<usize>,
    /// Banding layout per cluster (index = cluster id) — denser
    /// clusters carry more rows per band.
    pub bandings: Vec<lsh::Banding>,
    /// Candidate recall each cluster's layout delivers at its effective
    /// collision probability (below the banding recall target only
    /// under memory-budget pressure).
    pub planned_recalls: Vec<f64>,
    /// Cumulative probe counters at this operating point (carried
    /// across drift-triggered rebuilds).
    pub probe_stats: ProbeStats,
}
