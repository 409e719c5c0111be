//! Property-based tests (proptest) of the core invariants.
//!
//! These complement the example-based unit tests with randomized checks
//! of the laws that must hold for *every* input: set-semantics of the
//! insert/merge algebra, estimator feasibility ranges, codec losslessness
//! and workload-generator consistency.

use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{
    ExponentialSpacings, IntervalSampling, SetSketch, SetSketch1, SetSketch2, SetSketchConfig,
    ValueSequence,
};
use simulation::workload::SetPair;
use sketch_core::Sketch;
use sketch_math::bitpack::{pack_bits, unpack_bits};
use sketch_math::{inclusion_exclusion_jaccard, ml_jaccard, ml_jaccard_b1, JointCounts};

fn small_config() -> SetSketchConfig {
    SetSketchConfig::new(32, 2.0, 20.0, 62).unwrap()
}

/// Register scales covering the three lane widths: `u8` (b = 2,
/// q = 62), `u16` (b = 1.001, q = 65 534) and `u32` (b = 1.0001,
/// q = 200 000).
const LANE_SCALES: [(f64, u32); 3] = [(2.0, 62), (1.001, 65_534), (1.0001, 200_000)];

/// A sketch of `config` holding `fill` distinct elements, inserted one
/// by one.
fn primed<S: ValueSequence>(config: SetSketchConfig, seed: u64, fill: u64) -> SetSketch<S> {
    let mut sketch = SetSketch::new(config, seed);
    for e in 0..fill {
        sketch.insert_u64(e | 1 << 40);
    }
    sketch
}

/// Inserts `batch` into three copies of `prior` — element by element,
/// through `insert_batch` and through `extend` — and checks that the two
/// batch paths leave exactly the loop's registers, histogram and bytes.
/// Only `K_low` may differ (a batch may leave it tighter), so it is
/// checked as a bound.
fn batch_paths_agree<S: ValueSequence>(
    prior: &SetSketch<S>,
    batch: &[u64],
) -> Result<(), TestCaseError> {
    let mut looped = prior.clone();
    for &e in batch {
        looped.insert_u64(e);
    }
    let mut batched = prior.clone();
    batched.insert_batch(batch);
    let mut extended = prior.clone();
    extended.extend(batch.iter().copied());
    for (path, sketch) in [("insert_batch", &batched), ("extend", &extended)] {
        let context = format!("{path}, {}, {} elements", S::NAME, batch.len());
        prop_assert!(sketch == &looped, "{context}: registers differ");
        prop_assert_eq!(
            sketch.register_histogram(),
            looped.register_histogram(),
            "{context}: histograms differ"
        );
        prop_assert!(
            sketch.compress() == looped.compress(),
            "{context}: compressed bytes differ"
        );
        let min = sketch.registers().iter().min().unwrap();
        prop_assert!(
            sketch.k_low() <= min,
            "{context}: K_low {} above the minimum register {min}",
            sketch.k_low()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sketch state depends only on the *set* of inserted elements:
    /// order and multiplicity never matter.
    #[test]
    fn state_is_a_function_of_the_set(
        mut elements in vec(0u64..1000, 1..60),
        seed in 0u64..8,
    ) {
        let mut in_order = SetSketch1::new(small_config(), seed);
        for &e in &elements {
            in_order.insert_u64(e);
        }
        elements.sort_unstable();
        elements.dedup();
        elements.reverse();
        let mut deduped_reversed = SetSketch1::new(small_config(), seed);
        for &e in &elements {
            deduped_reversed.insert_u64(e);
            deduped_reversed.insert_u64(e);
        }
        prop_assert_eq!(in_order, deduped_reversed);
    }

    /// merge(sketch(A), sketch(B)) == sketch(A ∪ B), for SetSketch2.
    #[test]
    fn merge_is_union(
        a in vec(0u64..500, 0..40),
        b in vec(0u64..500, 0..40),
    ) {
        let cfg = small_config();
        let mut sa = SetSketch2::new(cfg, 1);
        let mut sb = SetSketch2::new(cfg, 1);
        let mut sab = SetSketch2::new(cfg, 1);
        for &e in &a {
            sa.insert_u64(e);
            sab.insert_u64(e);
        }
        for &e in &b {
            sb.insert_u64(e);
            sab.insert_u64(e);
        }
        prop_assert_eq!(sa.merged(&sb).unwrap(), sab);
    }

    /// Register values never decrease as more elements arrive, and K_low
    /// stays a valid lower bound throughout.
    #[test]
    fn registers_grow_and_bound_stays_valid(
        batches in vec(vec(0u64..10_000, 1..50), 1..6),
    ) {
        // The element loop and the value-order batch path, side by side.
        let mut looped = SetSketch1::new(small_config(), 3);
        let mut batched = looped.clone();
        let mut previous = looped.registers().to_vec();
        for batch in &batches {
            for &e in batch {
                looped.insert_u64(e);
            }
            batched.insert_batch(batch);
            for sketch in [&looped, &batched] {
                let current = sketch.registers().to_vec();
                for (p, c) in previous.iter().zip(&current) {
                    prop_assert!(c >= p);
                }
                let min = current.iter().copied().min().unwrap();
                prop_assert!(sketch.k_low() <= min);
            }
            previous = looped.registers().to_vec();
        }
    }

    /// `insert_batch` and `extend` apply a chunk in value order — passes
    /// under a doubling bound — yet leave exactly what inserting each
    /// element does: for both families, all three lane widths, an empty,
    /// a partly filled and a saturated (q = 2) prior state, and batches
    /// of 1 to 3 m elements with duplicates.
    #[test]
    fn batch_insert_equals_the_element_loop(
        m in 8usize..97,
        size in 0usize..288,
        pool in vec(0u64..192, 288),
        seed in 0u64..4,
    ) {
        let batch = &pool[..1 + size % (3 * m)];
        let m64 = m as u64;
        for (b, q) in LANE_SCALES {
            for (q, fill) in [(q, 0), (q, 2 * m64), (2, 8 * m64)] {
                let config = SetSketchConfig::new(m, b, 20.0, q).unwrap();
                let spacings = primed::<ExponentialSpacings>(config, seed, fill);
                let intervals = primed::<IntervalSampling>(config, seed, fill);
                if q == 2 {
                    prop_assert!(spacings.registers().iter().all(|k| k == 3));
                    prop_assert!(intervals.registers().iter().all(|k| k == 3));
                }
                batch_paths_agree(&spacings, batch)?;
                batch_paths_agree(&intervals, batch)?;
            }
        }
    }

    /// Cardinality estimates are finite, nonnegative, and zero exactly for
    /// the empty sketch (in unsaturated configurations).
    #[test]
    fn cardinality_estimates_are_feasible(elements in vec(0u64..100_000, 0..100)) {
        let mut sketch = SetSketch1::new(small_config(), 4);
        for &e in &elements {
            sketch.insert_u64(e);
        }
        let estimate = sketch.estimate_cardinality();
        if elements.is_empty() {
            prop_assert_eq!(estimate, 0.0);
        } else {
            prop_assert!(estimate.is_finite());
            prop_assert!(estimate > 0.0);
        }
    }

    /// The ML Jaccard estimate always lies in the feasible interval
    /// [0, min(u/v, v/u)] for arbitrary counts.
    #[test]
    fn ml_jaccard_stays_feasible(
        d_plus in 0u32..200,
        d_minus in 0u32..200,
        d0 in 0u32..200,
        n_u in 1.0f64..1e6,
        n_v in 1.0f64..1e6,
        b in 1.0001f64..2.7,
    ) {
        let counts = JointCounts::new(d_plus, d_minus, d0);
        let total = n_u + n_v;
        let (u, v) = (n_u / total, n_v / total);
        let j = ml_jaccard(counts, b, u, v);
        let j_max = (u / v).min(v / u);
        prop_assert!((0.0..=j_max + 1e-9).contains(&j), "j = {j}, max {j_max}");
    }

    /// The closed form (17) agrees with Brent maximization near b = 1.
    #[test]
    fn closed_form_matches_numerical_ml(
        d_plus in 0u32..500,
        d_minus in 0u32..500,
        d0 in 0u32..500,
        u_scaled in 1u32..99,
    ) {
        prop_assume!(d_plus + d_minus + d0 > 0);
        let u = u_scaled as f64 / 100.0;
        let v = 1.0 - u;
        let counts = JointCounts::new(d_plus, d_minus, d0);
        let closed = ml_jaccard_b1(counts, u, v);
        let numerical = ml_jaccard(counts, 1.0 + 1e-9, u, v);
        prop_assert!((closed - numerical).abs() < 1e-4,
            "closed {closed} vs numerical {numerical}");
    }

    /// Inclusion-exclusion output is always inside the feasible range.
    #[test]
    fn inclusion_exclusion_stays_feasible(
        n_u in 0.0f64..1e9,
        n_v in 0.0f64..1e9,
        n_union in 0.0f64..2e9,
    ) {
        let j = inclusion_exclusion_jaccard(n_u, n_v, n_union);
        prop_assert!(j >= 0.0);
        prop_assert!(j <= 1.0 + 1e-12);
    }

    /// Bit-packing roundtrips for arbitrary register contents at every
    /// width, with values across the whole width.
    #[test]
    fn codec_roundtrips(
        raw in vec(any::<u32>(), 0..200),
        bits in 1u32..=32,
    ) {
        let mask = u32::MAX >> (32 - bits);
        let values: Vec<u32> = raw.iter().map(|&v| v & mask).collect();
        let packed = pack_bits(&values, bits);
        prop_assert_eq!(packed.len(), (values.len() * bits as usize).div_ceil(8));
        let unpacked = unpack_bits::<u32>(&packed, values.len(), bits, mask).unwrap();
        prop_assert_eq!(values, unpacked);
    }

    /// The pair workload solver conserves the union cardinality and keeps
    /// component sizes consistent.
    #[test]
    fn set_pair_solver_is_consistent(
        union in 1u64..1_000_000,
        j_scaled in 0u32..=100,
        ratio_exp in -30i32..=30,
    ) {
        let jaccard = j_scaled as f64 / 100.0;
        let ratio = 10f64.powf(ratio_exp as f64 / 10.0);
        let pair = SetPair::from_union_jaccard_ratio(union, jaccard, ratio);
        prop_assert_eq!(pair.union(), union);
        prop_assert_eq!(pair.n_u() + pair.n2, union);
        prop_assert_eq!(pair.n_v() + pair.n1, union);
        prop_assert!((pair.jaccard() - jaccard).abs() <= 1.0 / union as f64);
    }

    /// Binary state encoding roundtrips for random register contents.
    #[test]
    fn sketch_binary_state_roundtrips(elements in vec(0u64..100_000, 0..80)) {
        let mut sketch = SetSketch1::new(small_config(), 11);
        for &e in &elements {
            sketch.insert_u64(e);
        }
        let restored = SetSketch1::from_bytes(&sketch.to_bytes()).unwrap();
        prop_assert_eq!(sketch, restored);
    }

    /// GHLL merge equals recording the union, for arbitrary overlapping
    /// element sets, and the binary codec roundtrips the result.
    #[test]
    fn ghll_merge_is_union_and_codec_roundtrips(
        a in vec(0u64..400, 0..40),
        b in vec(0u64..400, 0..40),
    ) {
        let cfg = GhllConfig::hyperloglog(32).unwrap();
        let mut sa = GhllSketch::new(cfg, 1);
        let mut sb = GhllSketch::new(cfg, 1);
        let mut sab = GhllSketch::new(cfg, 1);
        for &e in &a {
            sa.insert_u64(e);
            sab.insert_u64(e);
        }
        for &e in &b {
            sb.insert_u64(e);
            sab.insert_u64(e);
        }
        let merged = sa.merged(&sb).unwrap();
        prop_assert_eq!(&merged, &sab);
        let restored = GhllSketch::from_bytes(&merged.to_bytes()).unwrap();
        prop_assert_eq!(restored, merged);
    }

    /// HyperMinHash merge equals recording the union.
    #[test]
    fn hyperminhash_merge_is_union(
        a in vec(0u64..400, 0..40),
        b in vec(0u64..400, 0..40),
    ) {
        let cfg = HyperMinHashConfig::new(32, 6).unwrap();
        let mut sa = HyperMinHash::new(cfg, 1);
        let mut sb = HyperMinHash::new(cfg, 1);
        let mut sab = HyperMinHash::new(cfg, 1);
        for &e in &a {
            sa.insert_u64(e);
            sab.insert_u64(e);
        }
        for &e in &b {
            sb.insert_u64(e);
            sab.insert_u64(e);
        }
        prop_assert_eq!(sa.merged(&sb).unwrap(), sab);
    }

    /// Dice, overlap and cosine derived from a joint estimate are always
    /// inside [0, 1], whatever the estimated inputs.
    #[test]
    fn similarity_coefficients_stay_normalized(
        n_u in 0.1f64..1e9,
        n_v in 0.1f64..1e9,
        j_scaled in 0u32..=100,
    ) {
        let j_max = (n_u / n_v).min(n_v / n_u);
        let j = j_max * j_scaled as f64 / 100.0;
        let q = sketch_math::JointQuantities::new(n_u, n_v, j);
        for value in [q.dice, q.overlap, q.cosine, q.inclusion_u, q.inclusion_v] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&value), "{value}");
        }
    }
}
