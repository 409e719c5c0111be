//! Serialization integration tests: the self-describing binary form
//! (`to_bytes` / `from_bytes`) roundtrips, stays compact, enforces its
//! variant tag and validates registers, and restored sketches keep
//! working (insert, merge, estimate).

use setsketch::{SetSketch1, SetSketch2, SetSketchConfig, StateError};
use sketch_rand::mix64;

fn elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

#[test]
fn setsketch_binary_roundtrip_continues_working() {
    let cfg = SetSketchConfig::example_16bit();
    let mut original = SetSketch1::new(cfg, 1);
    original.extend(elements(1, 10_000));

    let mut restored = SetSketch1::from_bytes(&original.to_bytes()).unwrap();
    assert_eq!(original, restored);

    // The restored sketch accepts further inserts identically.
    let mut reference = original.clone();
    for e in elements(2, 1000) {
        reference.insert_u64(e);
        restored.insert_u64(e);
    }
    assert_eq!(reference, restored);
    // And merges with pre-serialization sketches.
    assert_eq!(
        reference.merged(&original).unwrap(),
        restored.merged(&original).unwrap()
    );
}

#[test]
fn setsketch_binary_roundtrip_is_compact() {
    let cfg = SetSketchConfig::example_16bit();
    let mut sketch = SetSketch2::new(cfg, 2);
    sketch.extend(elements(3, 50_000));

    let bytes = sketch.to_bytes();
    // Header (41 bytes) + 4096 registers x 16 bits.
    assert_eq!(bytes.len(), 41 + cfg.packed_bytes());
    let restored = SetSketch2::from_bytes(&bytes).unwrap();
    assert_eq!(sketch, restored);
    assert!((restored.estimate_cardinality() - sketch.estimate_cardinality()).abs() < 1e-9);
}

#[test]
fn setsketch_binary_is_header_plus_packed_registers() {
    let cfg = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
    let mut sketch = SetSketch1::new(cfg, 3);
    sketch.extend(elements(4, 5000));
    // 41-byte header + 1024 registers x 6 bits.
    assert_eq!(sketch.to_bytes().len(), 41 + 768);
}

#[test]
fn cross_variant_deserialization_fails_loudly() {
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
    let mut s1 = SetSketch1::new(cfg, 7);
    s1.extend(elements(9, 100));
    let as_s2 = SetSketch2::from_bytes(&s1.to_bytes());
    assert!(
        matches!(as_s2, Err(StateError::VariantMismatch { .. })),
        "variant tags must be enforced"
    );
}

#[test]
fn tampered_payloads_are_rejected() {
    // q = 60 packs into 6 bits, so a register can be tampered above
    // q + 1 = 61.
    let cfg = SetSketchConfig::new(64, 2.0, 20.0, 60).unwrap();
    let mut sketch = SetSketch1::new(cfg, 8);
    sketch.extend(elements(10, 1000));
    let bytes = sketch.to_bytes();
    // Register value above q + 1.
    let mut out_of_range = bytes.clone();
    out_of_range[41] |= 0x3f;
    assert!(SetSketch1::from_bytes(&out_of_range).is_err());
    // Wrong register count: the header claims more than the payload holds.
    let mut wrong_count = bytes;
    wrong_count[5..13].copy_from_slice(&65u64.to_be_bytes());
    assert!(SetSketch1::from_bytes(&wrong_count).is_err());
}
