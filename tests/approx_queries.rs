//! Accuracy and agreement tests of the §3.3 D₀-based approximate
//! query mode (`Verification::Approximate`) against the exact joint
//! estimator, plus coverage of the typed [`QueryOptions`] knobs.
//!
//! The corpus plants key pairs at known true Jaccard similarities
//! (disjoint suffixes around a shared prefix), so estimates can be
//! checked against ground truth, not just against each other:
//!
//! * approximate estimates stay within the §3.3 RMSE envelope of
//!   eq. (15) (`setsketch::locality::jaccard_upper_rmse`, Figure 4);
//! * at a threshold well separated from the planted similarity levels,
//!   the approximate sweep reports *exactly* the same pair membership
//!   as the exact sweep;
//! * at the degenerate threshold 0.0 (exhaustive fallback) both modes
//!   agree pair-for-pair on membership.

use setsketch::locality::jaccard_upper_rmse;
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_store::{IndexStrategy, QueryOptions, SketchStore, Verification};

const M: usize = 256;
const B: f64 = 1.001;
const ELEMENTS_PER_KEY: u64 = 1500;

fn config() -> SetSketchConfig {
    // Fine register scale: collision probability ≈ J (Figure 3 right),
    // the regime where Ĵ_up's RMSE matches MinHash (Figure 4).
    SetSketchConfig::new(M, B, 20.0, (1 << 16) - 2).unwrap()
}

/// Builds `pairs_per_level` planted key pairs per similarity level:
/// pair `p` shares a prefix sized for its level's Jaccard, with
/// disjoint per-key suffixes. Keys are `key-{index:04}`; pair `p` is
/// keys `2p` and `2p + 1`.
fn planted_store(levels: &[f64], pairs_per_level: usize) -> SketchStore<SetSketch1> {
    let cfg = config();
    let store = SketchStore::builder(move || SetSketch1::new(cfg, 42))
        .shards(8)
        .build();
    let mut batch: Vec<u64> = Vec::new();
    for (level_index, &jaccard) in levels.iter().enumerate() {
        for p in 0..pairs_per_level {
            let pair = (level_index * pairs_per_level + p) as u64;
            // Solve J = s / (2L − s) for the shared prefix length s.
            let shared = (2.0 * ELEMENTS_PER_KEY as f64 * jaccard / (1.0 + jaccard)).round() as u64;
            for side in 0..2u64 {
                let key = 2 * pair + side;
                batch.clear();
                batch.extend(10_000_000 * (pair + 1)..10_000_000 * (pair + 1) + shared);
                batch.extend(
                    1_000_000_000 + 10_000_000 * key
                        ..1_000_000_000 + 10_000_000 * key + (ELEMENTS_PER_KEY - shared),
                );
                store.ingest(&format!("key-{key:04}"), &batch);
            }
        }
    }
    store
}

fn key(index: usize) -> String {
    format!("key-{index:04}")
}

/// Approximate estimates of planted pairs stay within the §3.3 RMSE
/// envelope (with slack for the finite pair sample and estimated
/// cardinalities), per planted similarity level.
#[test]
fn approximate_estimates_within_section33_rmse_envelope() {
    let levels = [0.4, 0.6, 0.8];
    let pairs_per_level = 16;
    let store = planted_store(&levels, pairs_per_level);

    // Sweep low enough that every planted pair is reported.
    let approx = store
        .all_pairs_with(0.2, &QueryOptions::default().approximate())
        .expect("compatible");
    let lookup = |left: &str, right: &str| {
        approx
            .iter()
            .find(|p| p.left == left && p.right == right)
            .map(|p| p.quantities.jaccard)
    };

    for (level_index, &jaccard) in levels.iter().enumerate() {
        let envelope = jaccard_upper_rmse(B, M, jaccard);
        let mut squared_error_sum = 0.0;
        for p in 0..pairs_per_level {
            let pair = level_index * pairs_per_level + p;
            let estimate = lookup(&key(2 * pair), &key(2 * pair + 1))
                .unwrap_or_else(|| panic!("planted pair {pair} at J={jaccard} not reported"));
            let error = estimate - jaccard;
            assert!(
                error.abs() < 6.0 * envelope,
                "pair {pair}: estimate {estimate} vs J={jaccard} (envelope {envelope})"
            );
            squared_error_sum += error * error;
        }
        let rmse = (squared_error_sum / pairs_per_level as f64).sqrt();
        assert!(
            rmse < 2.0 * envelope,
            "J={jaccard}: RMSE {rmse} exceeds twice the §3.3 envelope {envelope}"
        );
    }
}

/// With planted levels far from the threshold, the approximate sweep
/// must agree with the exact sweep pair for pair — same membership,
/// same order — and report only the high-similarity pairs.
#[test]
fn approximate_membership_matches_exact_at_separated_threshold() {
    let store = planted_store(&[0.3, 0.75], 12);
    let exact = store
        .all_pairs_with(0.5, &QueryOptions::default())
        .expect("compatible");
    let approx = store
        .all_pairs_with(0.5, &QueryOptions::default().approximate())
        .expect("compatible");

    // 12 planted pairs at J = 0.75 clear the threshold; the 0.3 level
    // sits ~7 RMSE below it.
    assert_eq!(exact.len(), 12, "exact sweep reported unexpected pairs");
    let memberships = |pairs: &[sketch_store::SimilarPair]| {
        pairs
            .iter()
            .map(|p| (p.left.clone(), p.right.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        memberships(&exact),
        memberships(&approx),
        "approximate and exact sweeps disagree on membership"
    );
    // Same pairs, different estimators: approximate quantities must
    // still be close to the exact ones.
    for (e, a) in exact.iter().zip(&approx) {
        assert!(
            (e.quantities.jaccard - a.quantities.jaccard).abs() < 0.1,
            "pair ({}, {}): exact {} vs approximate {}",
            e.left,
            e.right,
            e.quantities.jaccard,
            a.quantities.jaccard
        );
    }
}

/// At threshold 0.0 no banding reaches the recall target, both modes
/// fall back to the exhaustive candidate set, and every pair must be
/// reported by both — pair-for-pair identical membership.
#[test]
fn degenerate_threshold_agrees_pair_for_pair() {
    let store = planted_store(&[0.5], 4); // 8 keys -> 28 pairs
    let exact = store
        .all_pairs_with(
            0.0,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .expect("compatible");
    let approx = store
        .all_pairs_with(0.0, &QueryOptions::default().approximate())
        .expect("compatible");
    assert_eq!(exact.len(), 28, "every pair qualifies at threshold 0");
    assert_eq!(approx.len(), 28);
    for (e, a) in exact.iter().zip(&approx) {
        assert_eq!((&e.left, &e.right), (&a.left, &a.right));
    }
    // The exhaustive strategy agrees as well.
    let approx_exhaustive = store
        .all_pairs_with(
            0.0,
            &QueryOptions::default()
                .approximate()
                .index(IndexStrategy::Exhaustive),
        )
        .expect("compatible");
    assert_eq!(approx, approx_exhaustive);
}

/// Approximate top-k ranks the planted partner first, like exact mode.
#[test]
fn approximate_top_k_finds_the_planted_partner() {
    let store = planted_store(&[0.7], 8);
    let options = QueryOptions::default().approximate();
    let neighbors = store
        .similar_keys_with(&key(0), 3, 0.5, &options)
        .expect("key exists");
    assert_eq!(neighbors[0].key, key(1), "partner must rank first");
    assert!(
        (neighbors[0].quantities.jaccard - 0.7).abs() < 0.1,
        "approximate Jaccard {}",
        neighbors[0].quantities.jaccard
    );
}

/// The remaining QueryOptions knobs: worker cap and candidate strategy
/// leave a complete result unchanged; the recall target is reflected in
/// the index state diagnostics.
#[test]
fn query_options_knobs_behave() {
    let store = planted_store(&[0.3, 0.75], 6);

    // A single-threaded verification pass returns identical results.
    let default_run = store
        .all_pairs_with(0.5, &QueryOptions::default())
        .expect("compatible");
    let single = store
        .all_pairs_with(0.5, &QueryOptions::default().threads(1))
        .expect("compatible");
    assert_eq!(default_run, single);

    // The candidate strategy cannot change a complete top-k (only
    // candidate generation differs; the exhaustive floor fills the rest).
    let flat = store
        .similar_keys_with(&key(0), 2, 0.5, &QueryOptions::default())
        .expect("key exists");
    let exhaustive = store
        .similar_keys_with(
            &key(0),
            2,
            0.5,
            &QueryOptions::default().index(IndexStrategy::Exhaustive),
        )
        .expect("key exists");
    assert_eq!(flat, exhaustive);

    // A lower recall target re-tunes the banding to more rows (more
    // selective) and is recorded in the index diagnostics.
    store.build_similarity_index_with(0.5, &QueryOptions::default().recall_target(0.5));
    let info = store.similarity_index_info().expect("index built");
    assert_eq!(info.recall_target, 0.5);
    let loose_rows = info.banding.expect("tunable at J=0.5").rows;
    store.build_similarity_index_with(0.5, &QueryOptions::default());
    let tight_rows = store
        .similarity_index_info()
        .expect("index built")
        .banding
        .expect("tunable")
        .rows;
    assert!(
        loose_rows >= tight_rows,
        "recall 0.5 banding ({loose_rows} rows) must be at least as selective as 0.98 ({tight_rows} rows)"
    );

    // Verification::Exact is the default and the fluent exact() resets.
    assert_eq!(
        QueryOptions::default().approximate().exact().verification,
        Verification::Exact
    );
}

/// An invalid (NaN) recall target must be rejected up front — silently
/// missing the index cache's operating-point match would re-band the
/// whole store on every query.
#[test]
#[should_panic(expected = "recall target")]
fn nan_recall_target_is_rejected() {
    let store = planted_store(&[0.5], 1);
    store.build_similarity_index_with(0.5, &QueryOptions::default().recall_target(f64::NAN));
}
