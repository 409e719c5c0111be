//! Cross-crate integration tests of the algebraic merge/insert laws
//! shared by every sketch family (idempotency, commutativity,
//! associativity — the properties §1 of the paper singles out as the
//! reason MinHash and HLL dominate practice).

use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_rand::mix64;

fn elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

/// Exercises the three-way merge laws on an arbitrary mergeable sketch.
macro_rules! check_merge_laws {
    ($make:expr, $insert:ident, $merge:ident) => {{
        let mut a = $make;
        let mut b = $make;
        let mut c = $make;
        for e in elements(1, 500) {
            a.$insert(e);
        }
        for e in elements(2, 700) {
            b.$insert(e);
        }
        for e in elements(3, 300) {
            c.$insert(e);
        }
        // Commutativity.
        assert_eq!(a.$merge(&b).unwrap(), b.$merge(&a).unwrap());
        // Associativity.
        let ab_c = a.$merge(&b).unwrap().$merge(&c).unwrap();
        let a_bc = a.$merge(&b.$merge(&c).unwrap()).unwrap();
        assert_eq!(ab_c, a_bc);
        // Idempotency.
        assert_eq!(a.$merge(&a).unwrap(), a);
        // Merge with the empty sketch is the identity.
        let empty = $make;
        assert_eq!(a.$merge(&empty).unwrap(), a);
    }};
}

#[test]
fn setsketch1_merge_laws() {
    let cfg = SetSketchConfig::new(128, 2.0, 20.0, 62).unwrap();
    check_merge_laws!(SetSketch1::new(cfg, 9), insert_u64, merged);
}

#[test]
fn setsketch2_merge_laws() {
    let cfg = SetSketchConfig::new(128, 1.02, 20.0, 4000).unwrap();
    check_merge_laws!(SetSketch2::new(cfg, 9), insert_u64, merged);
}

#[test]
fn ghll_merge_laws() {
    let cfg = GhllConfig::hyperloglog(128).unwrap();
    check_merge_laws!(GhllSketch::new(cfg, 9), insert_u64, merged);
}

#[test]
fn minhash_merge_laws() {
    check_merge_laws!(MinHash::new(128, 9), insert_u64, merged);
}

#[test]
fn hyperminhash_merge_laws() {
    let cfg = HyperMinHashConfig::new(128, 8).unwrap();
    check_merge_laws!(HyperMinHash::new(cfg, 9), insert_u64, merged);
}

/// Merging n shards equals inserting the union, for every family at once.
#[test]
fn sharded_recording_equals_global_recording() {
    let cfg = SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).unwrap();
    let shards = 8u64;
    let per_shard = 2000u64;

    let mut global = SetSketch2::new(cfg, 3);
    let mut merged: Option<SetSketch2> = None;
    for shard in 0..shards {
        let mut local = SetSketch2::new(cfg, 3);
        // Overlapping shard contents: elements are shared across shards.
        for e in elements(shard / 2, per_shard) {
            local.insert_u64(e);
            global.insert_u64(e);
        }
        merged = Some(match merged {
            None => local,
            Some(acc) => acc.merged(&local).unwrap(),
        });
    }
    assert_eq!(merged.unwrap(), global);
}

/// The estimate of a union never falls below the estimate of a part
/// (registers only grow under merging).
#[test]
fn union_estimates_are_monotone() {
    let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let mut a = SetSketch1::new(cfg, 5);
    let mut b = SetSketch1::new(cfg, 5);
    for e in elements(10, 5000) {
        a.insert_u64(e);
    }
    for e in elements(11, 5000) {
        b.insert_u64(e);
    }
    let union = a.merged(&b).unwrap();
    let sum_a: f64 = a
        .registers()
        .iter()
        .zip(union.registers())
        .map(|(x, y)| y as f64 - x as f64)
        .sum();
    assert!(sum_a >= 0.0, "union registers must dominate");
    assert!(union.estimate_cardinality() >= a.estimate_cardinality() * 0.999);
    assert!(union.estimate_cardinality() >= b.estimate_cardinality() * 0.999);
}
