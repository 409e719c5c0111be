//! Batched cross-key similarity queries: one engine behind two entry
//! points, with typed per-query options.
//!
//! Answering "which of my N keys are similar?" with per-pair
//! [`joint`](SketchStore::joint) calls costs `O(N²·m)` register
//! comparisons plus two shard-lock acquisitions per pair. The entry
//! points here share one three-stage engine instead:
//!
//! * [`SketchStore::similar_keys_with`] — the `k` keys most similar to
//!   one key;
//! * [`SketchStore::all_pairs_with`] — every pair at or above a
//!   threshold.
//!
//! 1. **Candidate generation** — picked by [`QueryOptions::index`].
//!    [`IndexStrategy::Flat`] (the default) keeps the stored sketches'
//!    locality-sensitive register signatures
//!    ([`Sketch::signature_into`], paper §3.3) in one banding
//!    [`LshIndex`] whose band/row layout is auto-tuned from the
//!    family's collision-probability bound at the query threshold
//!    ([`Banding::tune`], at [`BANDING_RECALL`]); only keys sharing a
//!    bucket become candidates. [`IndexStrategy::Clustered`] swaps in
//!    the clustered ANN index ([`crate::ann`]).
//!    [`IndexStrategy::Exhaustive`] skips the index: every key (top-k)
//!    or every pair (sweep) is a candidate — the ground-truth reference
//!    the pruned strategies' recall is measured against.
//! 2. **Incremental maintenance** — every store write stamps the key's
//!    slot with a fresh version and raises its shard's mutation mark;
//!    each cached index state records the mark it last swept every
//!    shard at. Before a query only the shards whose mark moved are
//!    swept: their keys whose version moved are re-banded (removed
//!    under their stored band hashes, re-inserted under the new ones)
//!    and their removed keys dropped — so a quiet query does no refresh
//!    work, and the first query after a write trickle pays for the
//!    shards it touched, not for the store. A flat state current for
//!    every shard is probed under the shared read lock, so concurrent
//!    top-k queries do not serialize; only a missing or stale state (and
//!    the clustered strategy, whose probes update routing counters)
//!    takes the write lock. Steady query traffic never pays a full index
//!    rebuild.
//! 3. **Exact verification** — every candidate pair is verified over a
//!    point-in-time extraction (cold slots are peeked, never promoted),
//!    fanned out across worker threads with per-worker result buffers.
//!    Each key's cardinality estimate is computed once per version and
//!    cached in its slot, not once per pair. The verifier is the
//!    family's exact joint estimator (the `compare_counts` register
//!    kernel feeding the paper's §3.2 likelihood maximization) through
//!    [`Sketch::joint_with_cardinalities`], so a reported pair's
//!    quantities equal [`SketchStore::joint`] on the same keys whichever
//!    strategy made it a candidate.
//!
//! The exhaustive strategy is not a second code path: it is the two
//! fallbacks the indexed strategies already need. When the threshold
//! carries no locality signal (e.g. `0.0`, where every pair must be
//! reported), [`Banding::tune`] reports that no banding can reach the
//! recall target and a sweep verifies the full pair triangle; when a
//! top-k probe yields fewer than `k` candidates it verifies every key.
//! `Exhaustive` takes those branches unconditionally.

use crate::ann::index::{ClusteredParams, ClusteredState};
use crate::ann::{router, ClusteredIndexInfo, IndexStrategy};
use crate::error::StoreError;
use crate::store::SketchStore;
use lsh::{Banding, LshIndex};
use sketch_core::{JointQuantities, Sketch};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Banding recall: every banding (the flat index's, and each cluster's
/// of the clustered index) is laid out so that a pair *at* the query
/// threshold still becomes a candidate with this probability (more
/// similar pairs exceed it).
pub(crate) const BANDING_RECALL: f64 = 0.98;

/// Candidate pairs handed to one worker at a time during verification.
const VERIFY_CHUNK: usize = 256;

/// Bound on cached index states, one per distinct (threshold, strategy)
/// operating point (the least recently used is evicted first). Bounding
/// the cache keeps a service that sweeps many thresholds from hoarding
/// band tables; alternating between a few operating points never
/// re-tunes or re-bands.
const INDEX_CACHE_CAPACITY: usize = 4;

/// Typed per-query options of the similarity engine, accepted by
/// [`SketchStore::similar_keys_with`] and [`SketchStore::all_pairs_with`].
///
/// The struct is plain data with a [`Default`]; build it with struct
/// update syntax or the fluent helpers:
///
/// ```
/// use sketch_store::{IndexStrategy, QueryOptions};
///
/// let options = QueryOptions::default()
///     .index(IndexStrategy::Exhaustive) // verify every pair
///     .threads(2);                      // cap verification workers
/// assert_eq!(options.index, IndexStrategy::Exhaustive);
/// assert_eq!(options.threads, Some(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Worker threads that verify candidates; `None` (default) uses the
    /// machine's available parallelism.
    pub threads: Option<usize>,
    /// Where candidates come from (default [`IndexStrategy::Flat`]):
    /// the flat banding index, the clustered ANN index
    /// ([`IndexStrategy::Clustered`]) or no index at all
    /// ([`IndexStrategy::Exhaustive`]).
    pub index: IndexStrategy,
}

impl QueryOptions {
    /// Caps the verification worker count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Selects the candidate-generation strategy.
    pub fn index(mut self, strategy: IndexStrategy) -> Self {
        self.index = strategy;
        self
    }
}

/// One of the store's lazily built, incrementally maintained similarity
/// index states.
pub(crate) struct SimilarityIndex {
    /// Jaccard threshold the banding was tuned for.
    threshold: f64,
    /// Strategy the state was requested under (part of the cache key;
    /// the backend may lag it across the flat↔clustered cutover).
    strategy: IndexStrategy,
    /// Index-cache lookup count of the state's latest use: the eviction
    /// order and the state [`SketchStore::similarity_index_info`]
    /// reports. Atomic so the shared read path can stamp it.
    last_used: AtomicU64,
    /// The candidate-generation machinery behind this operating point.
    backend: Backend,
}

impl SimilarityIndex {
    /// True when this state answers the operating point
    /// `(threshold, strategy)`.
    fn serves(&self, threshold: f64, strategy: IndexStrategy) -> bool {
        self.threshold == threshold && strategies_match(self.strategy, strategy)
    }
}

/// The candidate-generation backend of one cached index state. Under
/// [`IndexStrategy::Clustered`] the backend starts [`Backend::Flat`]
/// and is promoted once the store clears the strategy's cutover (and
/// demoted below half of it) — the strategy is a request, the backend
/// is what currently answers it.
enum Backend {
    Flat(FlatIndex),
    Clustered(Box<ClusteredState>),
}

/// The single-banding index over the whole store. Keys are banded under
/// dense `u32` ids, so a probe deduplicates integers and a sweep builds
/// integer pairs; names are resolved once per candidate.
struct FlatIndex {
    /// The effective layout; `None` when no banding reaches the recall
    /// target at the threshold (queries then run exhaustively).
    banding: Option<Banding>,
    /// The banding index itself (`None` exactly when `banding` is).
    lsh: Option<LshIndex<u32>>,
    /// Per store shard, index-aligned with the store's shards: the mark
    /// it was last swept at and the keys banded from it.
    shards: Vec<IndexedShard>,
    /// The key name of every id in use; `None` for free ids.
    names: Vec<Option<String>>,
    /// Ids released by removed keys, reused before `names` grows.
    free: Vec<u32>,
}

/// The flat index's view of one store shard.
#[derive(Default)]
struct IndexedShard {
    /// The shard's mutation mark when it was last swept. A fresh state
    /// starts at 0, the mark of a never-written shard, so its first
    /// refresh sweeps exactly the shards that ever held a key.
    mark: u64,
    /// Per-key bookkeeping of the shard's banded keys.
    keys: HashMap<String, IndexedKey>,
}

/// One banded key: its id, the store version that was banded and the
/// band bucket ids it was inserted under (for O(bands) removal).
struct IndexedKey {
    id: u32,
    version: u64,
    band_hashes: Box<[u64]>,
}

impl FlatIndex {
    /// Number of keys currently banded.
    fn indexed_keys(&self) -> usize {
        self.shards.iter().map(|shard| shard.keys.len()).sum()
    }

    /// Top-k candidates of a query signature by name — multi-probed
    /// (±1 register perturbations) — or `None` when the state has no
    /// banding (the caller then verifies every key).
    fn probe(&self, signature: &[u32]) -> Option<Vec<String>> {
        let lsh = self.lsh.as_ref()?;
        Some(
            lsh.query_multiprobe(signature)
                .into_iter()
                .filter_map(|id| self.names[id as usize].clone())
                .collect(),
        )
    }

    /// The sweep's candidate pairs, or `None` when the state has no
    /// banding (the caller then verifies the full triangle).
    fn candidate_pairs(&self) -> Option<SweepCandidates> {
        let lsh = self.lsh.as_ref()?;
        Some(SweepCandidates {
            names: self.names.clone(),
            pairs: lsh.candidate_pairs(),
        })
    }
}

/// Candidate pairs of a sweep as index pairs into a name table, so
/// generating them never clones a key per bucket hit. A pair's order is
/// arbitrary; the sweep normalises it by name.
struct SweepCandidates {
    names: Vec<Option<String>>,
    pairs: Vec<(u32, u32)>,
}

impl SweepCandidates {
    /// Interns named pairs (the clustered backend's output).
    fn from_named(named: Vec<(String, String)>) -> Self {
        let mut ids: HashMap<String, u32> = HashMap::new();
        let mut names = Vec::new();
        let mut id_of = |name: String| {
            *ids.entry(name).or_insert_with_key(|name| {
                names.push(Some(name.clone()));
                u32::try_from(names.len() - 1).expect("sweeps beyond u32 keys are unsupported")
            })
        };
        let pairs = named
            .into_iter()
            .map(|(a, b)| (id_of(a), id_of(b)))
            .collect();
        SweepCandidates { names, pairs }
    }
}

/// A pair of store keys whose verified similarity cleared the sweep
/// threshold, with its joint estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarPair {
    /// Lexicographically smaller key (the `U` side of `quantities`).
    pub left: String,
    /// Lexicographically larger key (the `V` side of `quantities`).
    pub right: String,
    /// Joint estimate of the pair, identical to [`SketchStore::joint`]
    /// on the same states.
    pub quantities: JointQuantities,
}

/// One result of a top-k query: a neighboring key and the joint
/// estimate against the query key (query on the `U` side).
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The neighboring key.
    pub key: String,
    /// Joint estimate for (query key, this key).
    pub quantities: JointQuantities,
}

/// Diagnostics of the current similarity index state.
#[derive(Debug, Clone, PartialEq)]
pub struct SimilarityIndexInfo {
    /// Threshold the index is tuned for.
    pub threshold: f64,
    /// Effective global banding, or `None` when queries at this
    /// threshold run exhaustively — and also `None` for clustered
    /// states, whose per-cluster layouts are summarized by `clustered`
    /// instead.
    pub banding: Option<Banding>,
    /// Number of keys currently banded into the index.
    pub indexed_keys: usize,
    /// Operating points served from the index cache since the store was
    /// built (across all cached states).
    pub cache_hits: u64,
    /// Operating points that had to tune a fresh index state since the
    /// store was built.
    pub cache_misses: u64,
    /// Clustered-backend diagnostics: cluster count, per-cluster key
    /// histogram and probe counters. `None` while the state answers
    /// from a flat backend.
    pub clustered: Option<ClusteredIndexInfo>,
}

impl<S: Sketch> SketchStore<S> {
    /// Reports the similarity index state with the **latest last-used
    /// stamp** — the one the most recent index-using query landed on —
    /// with its tuned banding and coverage, or `None` if no similarity
    /// query has run yet. (The store caches one state per queried
    /// operating point, four at most; the `cache_hits` / `cache_misses`
    /// counters cover all of them. [`IndexStrategy::Exhaustive`] queries
    /// use no index and leave the cache alone.)
    pub fn similarity_index_info(&self) -> Option<SimilarityIndexInfo> {
        let cache = self.similarity.read();
        let latest = cache
            .iter()
            .max_by_key(|index| index.last_used.load(Ordering::Relaxed));
        latest.map(|index| {
            let (banding, indexed_keys, clustered) = match &index.backend {
                Backend::Flat(flat) => (flat.banding, flat.indexed_keys(), None),
                Backend::Clustered(state) => (
                    None,
                    state.keys.len(),
                    Some(ClusteredIndexInfo {
                        clusters: state.clusters.len(),
                        key_histogram: state.clusters.iter().map(|c| c.members).collect(),
                        bandings: state.clusters.iter().map(|c| c.banding).collect(),
                        planned_recalls: state.clusters.iter().map(|c| c.planned_recall).collect(),
                        probe_stats: state.probe_stats,
                    }),
                ),
            };
            let cache_misses = self.index_cache_misses.load(Ordering::Relaxed);
            SimilarityIndexInfo {
                threshold: index.threshold,
                banding,
                indexed_keys,
                cache_hits: self
                    .index_lookups
                    .load(Ordering::Relaxed)
                    .saturating_sub(cache_misses),
                cache_misses,
                clustered,
            }
        })
    }

    /// The `k` keys most similar to `key`, with joint estimates (query
    /// on the `U` side).
    ///
    /// Candidates come from the index `options.index` selects, tuned
    /// for `threshold` — a banding query, multi-probed (±1 register
    /// perturbations: SetSketch registers are ordinal, so a near-miss
    /// state differs by one in a register). Every candidate
    /// is then verified against extractions of just the query and
    /// candidate sketches (the whole store is never copied). If the
    /// index yields fewer than `k` candidates — always, under
    /// [`IndexStrategy::Exhaustive`] — every key is verified, so a
    /// small store still produces a complete top-k.
    ///
    /// Results are sorted by descending Jaccard, ties broken by
    /// ascending key; neighbors *below* the tuned threshold are
    /// returned on a best-effort basis (the recall guarantee of the
    /// banding only covers pairs at or above it).
    ///
    /// # Panics
    /// Panics if `threshold` is outside `[0, 1]`.
    ///
    /// # Errors
    /// [`StoreError::KeyNotFound`] if `key` holds no sketch,
    /// [`StoreError::Incompatible`] if verification meets a sketch
    /// injected with mismatched parameters.
    pub fn similar_keys_with(
        &self,
        key: &str,
        k: usize,
        threshold: f64,
        options: &QueryOptions,
    ) -> Result<Vec<Neighbor>, StoreError> {
        check_threshold(threshold);
        let not_found = || StoreError::KeyNotFound(key.to_owned());
        // `None` means no index answered: exhaustive strategy, or no
        // banding tunes at this threshold.
        let probed = if options.index == IndexStrategy::Exhaustive {
            None
        } else {
            // Extracted before either index lock, so no query waits on
            // another's shard lock while holding the index.
            let signature = self
                .with_sketch(key, |sketch| sketch.signature())
                .ok_or_else(not_found)?;
            self.with_index(
                threshold,
                options,
                |flat| flat.probe(&signature),
                |state| Some(router::query_candidates(state, &signature, threshold)),
            )
        };

        let mut candidates = probed.unwrap_or_default();
        candidates.retain(|candidate| candidate != key);
        candidates.sort_unstable();
        if candidates.len() < k {
            // Too few index candidates to fill the top-k: verify every
            // other key — still complete, just unpruned.
            candidates = self.keys();
            candidates.retain(|candidate| candidate != key);
        }

        // The verification inputs cover only the query key (first) and
        // the candidates, never the whole store.
        candidates.insert(0, key.to_owned());
        let entries = self.verify_entries(candidates);
        if entries.keys.first().map(String::as_str) != Some(key) {
            return Err(not_found());
        }

        let pairs: Vec<(u32, u32)> = (1..entries.keys.len() as u32).map(|i| (0, i)).collect();
        // No threshold filter: top-k keeps its best-effort tail below
        // the tuned threshold.
        let mut hits = verify_candidates(&entries, Candidates::List(&pairs), 0.0, options)?;
        hits.sort_unstable_by(|a, b| {
            b.2.jaccard
                .total_cmp(&a.2.jaccard)
                .then_with(|| entries.keys[a.1 as usize].cmp(&entries.keys[b.1 as usize]))
        });
        hits.truncate(k);
        Ok(hits
            .into_iter()
            .map(|(_, i, quantities)| Neighbor {
                key: entries.keys[i as usize].clone(),
                quantities,
            })
            .collect())
    }

    /// Every pair of keys whose verified Jaccard similarity is at least
    /// `threshold`, with joint estimates.
    ///
    /// Candidate pairs are keys co-located in at least one band bucket
    /// of the (incrementally refreshed) index `options.index` selects;
    /// each is then verified over a point-in-time extraction, in
    /// parallel. An index can only *miss* pairs, with probability
    /// bounded by the tuned recall (98 % at the threshold, higher above
    /// it); what it reports is a subset of the
    /// [`IndexStrategy::Exhaustive`] sweep with the same quantities.
    /// At thresholds where no banding meets the recall target (e.g.
    /// `0.0`) every strategy verifies the full pair triangle.
    ///
    /// Results are sorted by `(left, right)`; each pair appears once
    /// with `left < right`.
    ///
    /// # Panics
    /// Panics if `threshold` is outside `[0, 1]`.
    ///
    /// # Errors
    /// [`StoreError::Incompatible`] if verification meets a sketch
    /// injected with mismatched parameters.
    pub fn all_pairs_with(
        &self,
        threshold: f64,
        options: &QueryOptions,
    ) -> Result<Vec<SimilarPair>, StoreError> {
        check_threshold(threshold);
        // `None` means no index answered (see `similar_keys_with`).
        let candidates = if options.index == IndexStrategy::Exhaustive {
            None
        } else {
            self.with_index(threshold, options, FlatIndex::candidate_pairs, |state| {
                Some(SweepCandidates::from_named(
                    self.clustered_candidate_pairs(state, threshold),
                ))
            })
        };

        let entries = self.verify_entries(self.keys());
        let hits = match candidates {
            Some(candidates) => {
                let position: HashMap<&str, u32> = (0u32..)
                    .zip(&entries.keys)
                    .map(|(i, key)| (key.as_str(), i))
                    .collect();
                // Keys can vanish between index refresh and extraction;
                // verification only sees live pairs.
                let entry_of: Vec<Option<u32>> = candidates
                    .names
                    .iter()
                    .map(|name| position.get(name.as_deref()?).copied())
                    .collect();
                // Entries are in key order, so the smaller entry index
                // is the smaller name — the pair's `U` side.
                let pairs: Vec<(u32, u32)> = candidates
                    .pairs
                    .iter()
                    .filter_map(|&(a, b)| {
                        let (a, b) = (entry_of[a as usize]?, entry_of[b as usize]?);
                        Some((a.min(b), a.max(b)))
                    })
                    .collect();
                verify_candidates(&entries, Candidates::List(&pairs), threshold, options)?
            }
            None => {
                let n = u32::try_from(entries.keys.len())
                    .expect("store sizes beyond u32 keys are unsupported in sweeps");
                verify_candidates(&entries, Candidates::Triangle(n), threshold, options)?
            }
        };
        Ok(hits
            .into_iter()
            .map(|(a, b, quantities)| SimilarPair {
                left: entries.keys[a as usize].clone(),
                right: entries.keys[b as usize].clone(),
                quantities,
            })
            .collect())
    }

    /// Point-in-time verification inputs for `names`, in that order: a
    /// sketch clone and a cardinality estimate per key. Each key is
    /// peeked under its shard's read lock — cold (warm/frozen) slots are
    /// decompressed into a temporary and **not promoted**, so a sweep
    /// cannot blow the residency budget it runs under. Keys that
    /// vanished since `names` was gathered, and corrupt cold slots,
    /// contribute no entry: the query answers from what survives.
    ///
    /// Cardinalities come from the slot's cache, which every version
    /// bump clears under the shard's write lock
    /// ([`Slot::restamp`](crate::store::Slot::restamp)), so a stale
    /// figure is never served.
    fn verify_entries(&self, names: Vec<String>) -> VerifyEntries<S> {
        let mut keys = Vec::with_capacity(names.len());
        let mut cardinalities = Vec::with_capacity(names.len());
        let mut sketches = Vec::with_capacity(names.len());
        for name in names {
            let shard = self.shard(&name).read();
            let Some(slot) = shard.get(&name) else {
                continue;
            };
            let extracted = self.peek_slot(slot, |sketch| {
                sketches.push(sketch.clone());
                slot.cardinality_or(|| sketch.cardinality())
            });
            let Some(cardinality) = extracted else {
                continue;
            };
            drop(shard);
            cardinalities.push(cardinality);
            keys.push(name);
        }
        VerifyEntries {
            keys,
            cardinalities,
            sketches,
        }
    }

    /// Runs one probe against the up-to-date index state of the
    /// operating point `(threshold, options.index)`: `flat` on a flat
    /// backend, `clustered` on a clustered one.
    ///
    /// A flat-strategy state that is current for every shard is probed
    /// under the shared read lock, so concurrent queries on a quiet
    /// store run in parallel and touch nothing but the state's last-used
    /// stamp. A missing or stale state — and every clustered-strategy
    /// state, whose probes update routing counters — is tuned or
    /// refreshed and probed under the write lock.
    fn with_index<R>(
        &self,
        threshold: f64,
        options: &QueryOptions,
        flat: impl FnOnce(&FlatIndex) -> R,
        clustered: impl FnOnce(&mut ClusteredState) -> R,
    ) -> R {
        if options.index == IndexStrategy::Flat {
            let cache = self.similarity.read();
            let current = cache
                .iter()
                .find(|index| index.serves(threshold, options.index))
                .and_then(|index| match &index.backend {
                    Backend::Flat(state) if self.is_current(state) => Some((index, state)),
                    _ => None,
                });
            if let Some((index, state)) = current {
                let stamp = self.index_lookups.fetch_add(1, Ordering::Relaxed) + 1;
                index.last_used.fetch_max(stamp, Ordering::Relaxed);
                return flat(state);
            }
        }
        let mut cache = self.similarity.write();
        match &mut self.fresh_index(&mut cache, threshold, options).backend {
            Backend::Flat(state) => flat(state),
            Backend::Clustered(state) => clustered(state),
        }
    }

    /// True when no shard moved since `flat` last swept it (always, for
    /// a state without banding: it has nothing to maintain).
    fn is_current(&self, flat: &FlatIndex) -> bool {
        flat.lsh.is_none()
            || (flat.shards.iter().enumerate()).all(|(at, shard)| shard.mark == self.shard_mark(at))
    }

    /// Returns the cached index state for the operating point
    /// `(threshold, options.index)` — created and tuned on first use, then
    /// brought up to date with the store. At most
    /// [`INDEX_CACHE_CAPACITY`] states are kept, the least recently
    /// used evicted first, so callers alternating between a few
    /// operating points — e.g. a 0.7 sweep interleaved with 0.5 top-k
    /// lookups — never tear down and re-band the whole index on a
    /// threshold switch.
    fn fresh_index<'a>(
        &self,
        cache: &'a mut Vec<SimilarityIndex>,
        threshold: f64,
        options: &QueryOptions,
    ) -> &'a mut SimilarityIndex {
        check_strategy(&options.index);
        let stamp = self.index_lookups.fetch_add(1, Ordering::Relaxed) + 1;
        let at = match cache
            .iter()
            .position(|index| index.serves(threshold, options.index))
        {
            Some(at) => at,
            None => {
                self.index_cache_misses.fetch_add(1, Ordering::Relaxed);
                if cache.len() == INDEX_CACHE_CAPACITY {
                    let oldest = (0..cache.len())
                        .min_by_key(|&at| cache[at].last_used.load(Ordering::Relaxed))
                        .expect("the cache is full");
                    cache.swap_remove(oldest);
                }
                // Every state starts on the flat backend; the refresh
                // step promotes clustered-strategy states once the store
                // clears their cutover (so tiny stores never pay for
                // centroids).
                cache.push(SimilarityIndex {
                    threshold,
                    strategy: options.index,
                    last_used: AtomicU64::new(stamp),
                    backend: Backend::Flat(self.flat_backend(threshold)),
                });
                cache.len() - 1
            }
        };
        let index = &mut cache[at];
        *index.last_used.get_mut() = stamp;
        self.refresh_index(index);
        index
    }

    /// Tunes a fresh flat backend for an operating point: the banding
    /// from the family's locality bound at the threshold, probed on an
    /// empty factory sketch (the collision probability is a
    /// configuration property, not a state one).
    fn flat_backend(&self, threshold: f64) -> FlatIndex {
        let probe = self.make_sketch();
        let p = probe.register_collision_probability(threshold);
        let banding = Banding::tune(probe.signature_len(), p, BANDING_RECALL);
        let lsh = banding
            .map(|b| LshIndex::new(b.bands, b.rows).expect("tuned banding has bands, rows >= 1"));
        FlatIndex {
            banding,
            lsh,
            shards: (0..self.shard_count())
                .map(|_| IndexedShard::default())
                .collect(),
            names: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Brings a cached index state up to date with the store: applies
    /// the clustered strategy's cutover hysteresis (promote at
    /// `flat_cutover` live keys, demote below half of it), then
    /// incrementally re-bands moved keys — rebuilding the clustered
    /// state outright when its refresh reports drift.
    fn refresh_index(&self, index: &mut SimilarityIndex) {
        if let IndexStrategy::Clustered {
            memory_budget_bytes,
            recall_target,
            clusters,
            flat_cutover,
        } = index.strategy
        {
            let params = ClusteredParams {
                memory_budget_bytes,
                routing_recall: recall_target,
                clusters,
                flat_cutover,
            };
            let live = self.len();
            match &index.backend {
                // Promotion additionally requires a tunable global
                // banding: at thresholds where no layout reaches the
                // recall target (e.g. 0.0) the flat backend's
                // exhaustive fallback is already the right answer.
                Backend::Flat(flat) if flat.banding.is_some() && live >= flat_cutover => {
                    index.backend = Backend::Clustered(Box::new(
                        self.build_clustered_state(index.threshold, params),
                    ));
                    return; // freshly built — nothing to refresh
                }
                Backend::Clustered(_) if live.saturating_mul(2) < flat_cutover => {
                    index.backend = Backend::Flat(self.flat_backend(index.threshold));
                    // Fall through: the flat refresh below fills it.
                }
                _ => {}
            }
        }
        match &mut index.backend {
            Backend::Flat(flat) => self.refresh_flat(flat),
            Backend::Clustered(state) => {
                if self.refresh_clustered(state) {
                    let stats = state.probe_stats;
                    let params = state.params;
                    **state = self.build_clustered_state(index.threshold, params);
                    state.probe_stats = stats;
                }
            }
        }
    }

    /// Sweeps the shards whose mutation mark moved since the state last
    /// looked: re-bands exactly their keys whose version stamp moved and
    /// drops their removed keys. Quiet shards cost one atomic load.
    fn refresh_flat(&self, flat: &mut FlatIndex) {
        let FlatIndex {
            lsh,
            shards: indexed_shards,
            names,
            free,
            ..
        } = flat;
        let Some(lsh) = lsh.as_ref() else {
            return; // exhaustive mode: nothing to maintain
        };
        let mut signature: Vec<u32> = Vec::new();
        let mut band_hashes: Vec<u64> = Vec::new();
        for (at, (shard, indexed)) in self.shards().iter().zip(indexed_shards).enumerate() {
            if indexed.mark == self.shard_mark(at) {
                continue;
            }
            let guard = shard.read();
            // Loaded under the read lock: every change the mark counts
            // is in `guard`, and any later one raises it past this.
            indexed.mark = self.shard_mark(at);
            let keys = &mut indexed.keys;
            // Live keys of the shard that end the sweep indexed; fewer
            // than `keys` holds means some indexed keys were removed.
            let mut live_indexed = 0usize;
            for (key, slot) in guard.iter() {
                let entry = keys.get_mut(key);
                if entry.as_ref().is_some_and(|e| e.version == slot.version) {
                    live_indexed += 1;
                    continue;
                }
                // Peek, don't promote: index refresh sweeps whole shards
                // and must leave cold slots in their tier. Corrupt slots
                // stay unindexed until a write heals them (which bumps
                // their version and re-enters this sweep).
                if self
                    .peek_slot(slot, |sketch| sketch.signature_into(&mut signature))
                    .is_none()
                {
                    live_indexed += usize::from(entry.is_some());
                    continue;
                }
                lsh.band_hashes_into(&signature, &mut band_hashes);
                live_indexed += 1;
                match entry {
                    Some(entry) => {
                        lsh.remove_hashed(&entry.id, &entry.band_hashes);
                        lsh.insert_hashed(entry.id, &band_hashes);
                        entry.version = slot.version;
                        entry.band_hashes = band_hashes.as_slice().into();
                    }
                    None => {
                        let id = match free.pop() {
                            Some(id) => {
                                names[id as usize] = Some(key.clone());
                                id
                            }
                            None => {
                                names.push(Some(key.clone()));
                                u32::try_from(names.len() - 1)
                                    .expect("flat indexes beyond u32 keys are unsupported")
                            }
                        };
                        lsh.insert_hashed(id, &band_hashes);
                        keys.insert(
                            key.clone(),
                            IndexedKey {
                                id,
                                version: slot.version,
                                band_hashes: band_hashes.as_slice().into(),
                            },
                        );
                    }
                }
            }
            if keys.len() != live_indexed {
                keys.retain(|key, entry| {
                    guard.contains_key(key) || {
                        lsh.remove_hashed(&entry.id, &entry.band_hashes);
                        names[entry.id as usize] = None;
                        free.push(entry.id);
                        false
                    }
                });
            }
        }
    }
}

/// Validates a similarity threshold.
fn check_threshold(threshold: f64) {
    assert!(
        (0.0..=1.0).contains(&threshold),
        "similarity threshold must be within [0, 1], got {threshold}"
    );
}

/// Validates the knobs of a clustered strategy request.
fn check_strategy(strategy: &IndexStrategy) {
    if let IndexStrategy::Clustered {
        recall_target,
        clusters,
        ..
    } = strategy
    {
        assert!(
            *recall_target > 0.0 && *recall_target <= 1.0,
            "clustered routing recall target must be within (0, 1], got {recall_target}"
        );
        assert!(
            clusters.map_or(true, |k| k >= 1),
            "clustered strategy needs at least one cluster"
        );
    }
}

/// Quantizes a recall target for cache-key matching (micro-recall
/// units). Recall is a tuning knob, not a precise quantity: exact f64
/// equality would let two values differing only past display precision
/// (0.98 vs 0.9800001) alternate into distinct cache slots and re-band
/// the store on every query.
fn quantize_recall(target: f64) -> u64 {
    (target * 1e6).round() as u64
}

/// Cache-key equality of two strategy requests, with recall targets
/// compared in quantized form (see [`quantize_recall`]).
fn strategies_match(a: IndexStrategy, b: IndexStrategy) -> bool {
    match (a, b) {
        (IndexStrategy::Flat, IndexStrategy::Flat) => true,
        (
            IndexStrategy::Clustered {
                memory_budget_bytes: budget_a,
                recall_target: recall_a,
                clusters: clusters_a,
                flat_cutover: cutover_a,
            },
            IndexStrategy::Clustered {
                memory_budget_bytes: budget_b,
                recall_target: recall_b,
                clusters: clusters_b,
                flat_cutover: cutover_b,
            },
        ) => {
            budget_a == budget_b
                && quantize_recall(recall_a) == quantize_recall(recall_b)
                && clusters_a == clusters_b
                && cutover_a == cutover_b
        }
        _ => false,
    }
}

/// The candidate set of a verification run: an explicit pair list (the
/// pruned path) or the implicit triangle of all `(i, j)`, `i < j` pairs
/// over `n` entries (the exhaustive path, never materialized — at
/// N = 10k the explicit list would be ~50M tuples).
#[derive(Clone, Copy)]
enum Candidates<'a> {
    List(&'a [(u32, u32)]),
    Triangle(u32),
}

impl Candidates<'_> {
    /// Number of work units handed out to verification workers: chunks
    /// of the list, or one triangle row (`(i, i+1..n)`) each.
    fn units(&self) -> usize {
        match *self {
            Candidates::List(pairs) => pairs.len().div_ceil(VERIFY_CHUNK),
            Candidates::Triangle(n) => (n as usize).saturating_sub(1),
        }
    }

    /// Runs `visit` on every pair of one work unit, stopping early on
    /// error.
    fn for_each_in_unit(
        &self,
        unit: usize,
        visit: &mut impl FnMut(u32, u32) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        match *self {
            Candidates::List(pairs) => {
                let start = unit * VERIFY_CHUNK;
                for &(a, b) in &pairs[start..(start + VERIFY_CHUNK).min(pairs.len())] {
                    visit(a, b)?;
                }
            }
            Candidates::Triangle(n) => {
                let a = unit as u32;
                for b in a + 1..n {
                    visit(a, b)?;
                }
            }
        }
        Ok(())
    }
}

/// Point-in-time verification inputs of one query: the extracted keys
/// and, index-aligned with them, each key's cardinality estimate and a
/// clone of its sketch (so the sweep never holds shard locks).
struct VerifyEntries<S> {
    keys: Vec<String>,
    cardinalities: Vec<f64>,
    sketches: Vec<S>,
}

impl<S: Sketch> VerifyEntries<S> {
    /// The joint estimate of entry pair `(a, b)`.
    fn verify(&self, a: u32, b: u32) -> Result<JointQuantities, StoreError> {
        let (a, b) = (a as usize, b as usize);
        self.sketches[a]
            .joint_with_cardinalities(
                &self.sketches[b],
                self.cardinalities[a],
                self.cardinalities[b],
            )
            .map_err(StoreError::incompatible)
    }
}

/// Verifies candidate pairs and keeps those at or above `threshold`,
/// fanned out across worker threads.
///
/// Workers claim work units from an atomic cursor and collect hits into
/// per-worker buffers, so there is no shared mutable state on the hot
/// path; results are merged and sorted by index pair afterwards, making
/// the output deterministic regardless of scheduling. The estimator is
/// the family's exact one — the same code path as
/// [`SketchStore::joint`] — so a pair's reported quantities are
/// independent of how it became a candidate.
fn verify_candidates<S: Sketch>(
    entries: &VerifyEntries<S>,
    candidates: Candidates<'_>,
    threshold: f64,
    options: &QueryOptions,
) -> Result<Vec<(u32, u32, JointQuantities)>, StoreError> {
    let verify_into =
        |a: u32, b: u32, hits: &mut Vec<(u32, u32, JointQuantities)>| -> Result<(), StoreError> {
            let quantities = entries.verify(a, b)?;
            if quantities.jaccard >= threshold {
                hits.push((a, b, quantities));
            }
            Ok(())
        };

    let units = candidates.units();
    let workers = options
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(units);

    let mut hits = if workers <= 1 {
        let mut hits = Vec::new();
        for unit in 0..units {
            candidates.for_each_in_unit(unit, &mut |a, b| verify_into(a, b, &mut hits))?;
        }
        hits
    } else {
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        // Per-worker scratch: hits accumulate locally and
                        // are merged once at the end.
                        let mut local = Vec::new();
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let unit = cursor.fetch_add(1, Ordering::Relaxed);
                            if unit >= units {
                                break;
                            }
                            let run = candidates
                                .for_each_in_unit(unit, &mut |a, b| verify_into(a, b, &mut local));
                            if let Err(error) = run {
                                failed.store(true, Ordering::Relaxed);
                                return Err(error);
                            }
                        }
                        Ok(local)
                    })
                })
                .collect();
            let mut hits = Vec::new();
            let mut first_error = None;
            for handle in handles {
                match handle.join().expect("verification worker panicked") {
                    Ok(local) => hits.extend(local),
                    Err(error) => first_error = first_error.or(Some(error)),
                }
            }
            match first_error {
                None => Ok(hits),
                Some(error) => Err(error),
            }
        })?
    };
    hits.sort_unstable_by_key(|&(a, b, _)| (a, b));
    Ok(hits)
}
