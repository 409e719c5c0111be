//! Property tests for the incremental estimator state.
//!
//! `SetSketch` maintains a `q + 2`-bucket register histogram on every
//! register write so cardinality estimation is O(q) instead of O(m).
//! These tests drive sketches through arbitrary interleavings of the
//! operations that touch registers — single inserts, batched inserts,
//! merges, and compact and binary round trips — and verify after every step
//! that the maintained histogram equals a fresh scalar
//! [`kernels::scalar::histogram_counts`] scan of the widened registers
//! (independent of the lane width they are held at), that the tracked
//! `K_low` stays a valid lower bound, and that the O(q) estimator agrees
//! with the full register-scan formula.

use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_core::CompactSketch;
use sketch_math::{kernels, sigma_b, tau_b};

/// The corrected estimator (18) computed the pre-kernel way: a full
/// register scan, no maintained state.
fn full_scan_estimate(
    registers: &[u32],
    config: &SetSketchConfig,
    pow_neg: impl Fn(u32) -> f64,
) -> f64 {
    let m = config.m() as f64;
    let b = config.b();
    let limit = config.q() + 1;
    let mut c0 = 0usize;
    let mut c_limit = 0usize;
    let mut sum = 0.0f64;
    for &k in registers {
        if k == 0 {
            c0 += 1;
        } else if k == limit {
            c_limit += 1;
        } else {
            sum += pow_neg(k);
        }
    }
    let low_term = m * sigma_b(b, c0 as f64 / m);
    if low_term.is_infinite() {
        return 0.0;
    }
    let high_term = m * pow_neg(config.q()) * tau_b(b, 1.0 - c_limit as f64 / m);
    m * (1.0 - 1.0 / b) / (config.a() * b.ln() * (low_term + sum + high_term))
}

/// Asserts every invariant between registers and incremental state.
fn check_state<S: setsketch::ValueSequence>(
    sketch: &setsketch::SetSketch<S>,
) -> Result<(), TestCaseError> {
    // A histogram is maintained exactly for dense scales, and when
    // maintained it equals a fresh kernel scan of the registers.
    let registers = sketch.registers().to_vec();
    let dense = sketch.config().q() as usize + 2 <= 4 * sketch.config().m();
    prop_assert_eq!(sketch.register_histogram().is_some(), dense);
    if let Some(histogram) = sketch.register_histogram() {
        let mut fresh = vec![0u32; sketch.config().q() as usize + 2];
        kernels::scalar::histogram_counts(&registers, &mut fresh);
        prop_assert_eq!(histogram, fresh.as_slice());
    }
    // K_low is a lower bound.
    let min = kernels::scalar::min_scan(&registers);
    prop_assert!(
        sketch.k_low() <= min,
        "k_low {} > min {}",
        sketch.k_low(),
        min
    );
    // O(q) estimator == full-scan estimator (same inputs, reordered
    // floating-point sums).
    let table = sketch.power_table().clone();
    let reference = full_scan_estimate(&registers, sketch.config(), |k| table.pow_neg(k));
    let estimate = sketch.estimate_cardinality();
    if reference.is_finite() && reference > 0.0 {
        prop_assert!(
            ((estimate - reference) / reference).abs() < 1e-9,
            "estimate {estimate} vs full-scan {reference}"
        );
    } else {
        prop_assert_eq!(estimate, reference);
    }
    Ok(())
}

/// One step of the interleaving: `(selector, payload)` decodes into an
/// insert, batch insert, merge, or round trip.
type Op = (u8, Vec<u64>);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..5, proptest::collection::vec(0u64..5_000, 0..60)),
        1..8,
    )
}

fn apply_ops<S: setsketch::ValueSequence>(
    sketch: &mut setsketch::SetSketch<S>,
    ops: &[Op],
    config: SetSketchConfig,
    seed: u64,
) -> Result<(), TestCaseError> {
    for (selector, payload) in ops {
        match selector % 5 {
            0 => {
                for &e in payload {
                    sketch.insert_u64(e);
                }
            }
            1 => {
                sketch.insert_batch(payload);
            }
            2 => {
                // Merge with an independently built sketch of the same
                // configuration and seed.
                let mut other = setsketch::SetSketch::<S>::new(config, seed);
                other.insert_batch(payload);
                sketch.merge(&other).expect("compatible by construction");
            }
            3 => {
                // Compact round trip against an empty prototype rebuilds
                // the histogram.
                let prototype = setsketch::SetSketch::<S>::new(config, seed);
                *sketch = setsketch::SetSketch::<S>::decompress(&prototype, &sketch.compress())
                    .expect("own payload");
            }
            _ => {
                // Binary round trip (bit-packed registers).
                *sketch =
                    setsketch::SetSketch::<S>::from_bytes(&sketch.to_bytes()).expect("own bytes");
            }
        }
        check_state(sketch)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SetSketch1, wide register range (no clipping in practice).
    #[test]
    fn incremental_state_stays_consistent_sketch1(ops in ops()) {
        let config = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let mut sketch = SetSketch1::new(config, 7);
        apply_ops(&mut sketch, &ops, config, 7)?;
    }

    /// SetSketch2 with a tiny q, so registers clip at 0 and q+1 and the
    /// σ/τ range corrections engage.
    #[test]
    fn incremental_state_stays_consistent_clipped(ops in ops()) {
        let config = SetSketchConfig::new(32, 2.0, 20.0, 3).unwrap();
        let mut sketch = SetSketch2::new(config, 11);
        apply_ops(&mut sketch, &ops, config, 11)?;
    }

    /// A small-base configuration (b = 1.02, q ≫ m): the sparse regime
    /// where no histogram is maintained and estimation falls back to
    /// scanning the registers.
    #[test]
    fn incremental_state_stays_consistent_small_base(ops in ops()) {
        let config = SetSketchConfig::new(16, 1.02, 20.0, 2000).unwrap();
        let mut sketch = SetSketch1::new(config, 3);
        apply_ops(&mut sketch, &ops, config, 3)?;
    }
}
