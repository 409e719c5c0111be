//! Failure injection and adversarial-input robustness.
//!
//! Decoders must never panic on garbage; estimators must stay total
//! (finite or documented ±∞/0) on extreme register patterns that can
//! arise from misconfiguration or corrupted state.

use hyperloglog::{GhllDecodeError, GhllSketch};
use proptest::collection::vec;
use proptest::prelude::*;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig, StateError};
use sketch_core::Sketch;
use sketch_math::bitpack::pack_offsets;

/// A SetSketch1 with the given registers, loaded through the validated
/// decompression path the store uses.
fn sketch_with_registers(cfg: SetSketchConfig, registers: &[u32]) -> SetSketch1 {
    SetSketch1::decompress(&SetSketch1::new(cfg, 1), &pack_offsets(registers)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic the SetSketch binary decoder.
    #[test]
    fn setsketch_decoder_handles_garbage(bytes in vec(any::<u8>(), 0..256)) {
        let _ = SetSketch1::from_bytes(&bytes);
        let _ = SetSketch2::from_bytes(&bytes);
    }

    /// Arbitrary bytes never panic the GHLL binary decoder.
    #[test]
    fn ghll_decoder_handles_garbage(bytes in vec(any::<u8>(), 0..256)) {
        let _ = GhllSketch::from_bytes(&bytes);
    }

    /// Truncations and single-byte corruptions of a valid sketch either
    /// decode to *some* valid sketch or fail cleanly — never panic.
    #[test]
    fn setsketch_decoder_handles_corruption(
        flip_at in 0usize..300,
        truncate_to in 0usize..300,
    ) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let mut sketch = SetSketch1::new(cfg, 1);
        sketch.extend(0..500);
        let bytes = sketch.to_bytes();

        let mut flipped = bytes.clone();
        let index = flip_at % flipped.len();
        flipped[index] ^= 0x55;
        let _ = SetSketch1::from_bytes(&flipped);

        let cut = truncate_to.min(bytes.len());
        let _ = SetSketch1::from_bytes(&bytes[..cut]);
    }

    /// Estimators stay total for arbitrary in-range register patterns
    /// loaded through the public decompression API.
    #[test]
    fn estimators_are_total_on_arbitrary_registers(
        registers in vec(0u32..=63, 64..=64),
    ) {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let sketch = sketch_with_registers(cfg, &registers);
        let simple = sketch.estimate_cardinality_simple();
        let corrected = sketch.estimate_cardinality();
        prop_assert!(!simple.is_nan());
        prop_assert!(!corrected.is_nan());
        prop_assert!(corrected >= 0.0);
        // Joint estimation against itself must report high similarity.
        let joint = sketch.estimate_joint(&sketch).unwrap();
        prop_assert!(!joint.quantities.jaccard.is_nan());
    }
}

/// Extreme register patterns exercised explicitly.
#[test]
fn estimators_on_extreme_patterns() {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let patterns: [(&str, Vec<u32>); 4] = [
        ("all zero", vec![0; 64]),
        ("all saturated", vec![63; 64]),
        (
            "alternating",
            (0..64).map(|i| if i % 2 == 0 { 0 } else { 63 }).collect(),
        ),
        ("single spike", {
            let mut v = vec![0; 64];
            v[0] = 63;
            v
        }),
    ];
    for (label, registers) in patterns {
        let sketch = sketch_with_registers(cfg, &registers);
        let estimate = sketch.estimate_cardinality();
        assert!(!estimate.is_nan(), "{label}: NaN estimate");
        assert!(estimate >= 0.0, "{label}: negative estimate");
    }
}

/// A merged saturated + empty sketch still estimates.
#[test]
fn merge_of_extremes_estimates() {
    let cfg = SetSketchConfig::new(32, 2.0, 20.0, 5).unwrap();
    let mut saturated = SetSketch1::new(cfg, 1);
    saturated.extend(0..100_000);
    let empty = SetSketch1::new(cfg, 1);
    let merged = saturated.merged(&empty).unwrap();
    assert_eq!(merged, saturated);
    // Fully saturated small-q sketch diverges by design; never NaN.
    assert!(!merged.estimate_cardinality().is_nan());
}

/// Headers that name q = u32::MAX − 1 with a single 32-bit register pass
/// configuration validation, yet building the sketch would allocate a
/// (q + 2) × 8 B power table; both decoders refuse them up front.
#[test]
fn hostile_limit_headers_are_rejected() {
    let mut setsketch = Vec::new();
    setsketch.extend_from_slice(b"SSK1");
    setsketch.push(1);
    setsketch.extend_from_slice(&1u64.to_be_bytes()); // m
    setsketch.extend_from_slice(&2.0f64.to_be_bytes()); // b
    setsketch.extend_from_slice(&20.0f64.to_be_bytes()); // a
    setsketch.extend_from_slice(&(u32::MAX - 1).to_be_bytes()); // q
    setsketch.extend_from_slice(&7u64.to_be_bytes()); // seed
    setsketch.extend_from_slice(&[0; 4]); // one 32-bit register
    assert_eq!(setsketch.len(), 45);
    assert_eq!(
        SetSketch1::from_bytes(&setsketch),
        Err(StateError::UnsupportedLimit(u32::MAX - 1))
    );

    let mut ghll = Vec::new();
    ghll.extend_from_slice(b"GHL1");
    ghll.extend_from_slice(&1u64.to_be_bytes()); // m
    ghll.extend_from_slice(&2.0f64.to_be_bytes()); // b
    ghll.extend_from_slice(&(u32::MAX - 1).to_be_bytes()); // q
    ghll.extend_from_slice(&7u64.to_be_bytes()); // seed
    ghll.push(0); // lower bound tracking
    ghll.extend_from_slice(&[0; 4]); // one 32-bit register
    assert_eq!(ghll.len(), 37);
    assert_eq!(
        GhllSketch::from_bytes(&ghll),
        Err(GhllDecodeError::UnsupportedLimit(u32::MAX - 1))
    );
}
