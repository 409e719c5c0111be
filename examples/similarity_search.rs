//! Near-duplicate search with SetSketch signatures and banding LSH.
//!
//! Paper §3.3: SetSketch registers are locality-sensitive, so they can
//! replace MinHash in LSH indexes at a fraction of the space (2-byte
//! registers at b = 1.001 versus 8-byte MinHash components). This example
//! builds a small corpus of shingled "documents", indexes their sketches,
//! and answers nearest-neighbor queries with LSH candidate retrieval plus
//! precise joint-estimation filtering.
//!
//! Run with `cargo run --release --example similarity_search`.

use lsh::{collision_curve, LshIndex};
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_rand::mix64;

/// A synthetic document: a set of shingle hashes. Documents within one
/// "family" share a fraction of shingles with the family prototype.
fn document(family: u64, member: u64, shingles: u64, mutation: f64) -> Vec<u64> {
    (0..shingles)
        .map(|i| {
            let mutated =
                mix64(family * 1000 + member * 31 + i) % 1000 < (mutation * 1000.0) as u64;
            if mutated {
                mix64((family << 40) ^ (member << 20) ^ i ^ 0xabcdef)
            } else {
                mix64((family << 40) | i)
            }
        })
        .collect()
}

fn main() {
    let config = SetSketchConfig::example_16bit();
    const FAMILIES: u64 = 40;
    const MEMBERS: u64 = 5;
    const SHINGLES: u64 = 3000;

    // Banding: 512 bands x 8 rows over the 4096 registers. The S-curve
    // threshold sits near (1/512)^(1/8) ~ 0.46 register-collision rate.
    let index: LshIndex<(u64, u64)> = LshIndex::new(512, 8).expect("valid banding");
    println!(
        "S-curve: P(candidate | J=0.1) ~ {:.3}, P(candidate | J=0.8) ~ {:.3}",
        collision_curve(0.1, 512, 8),
        collision_curve(0.8, 512, 8)
    );

    // Index the corpus.
    let mut sketches = std::collections::HashMap::new();
    for family in 0..FAMILIES {
        for member in 0..MEMBERS {
            let mut sketch = SetSketch1::new(config, 99);
            for shingle in document(family, member, SHINGLES, 0.15) {
                sketch.insert_u64(shingle);
            }
            index.insert((family, member), &sketch.registers().to_vec());
            sketches.insert((family, member), sketch);
        }
    }
    println!("indexed {} documents", FAMILIES * MEMBERS);

    // Query: a fresh mutation of family 7.
    let mut query = SetSketch1::new(config, 99);
    for shingle in document(7, 999, SHINGLES, 0.2) {
        query.insert_u64(shingle);
    }

    let candidates = index.query(&query.registers().to_vec());
    println!("LSH returned {} candidates", candidates.len());

    // Filter candidates with the precise joint estimator (paper §3.3:
    // "for filtering, the presented more precise joint estimation approach
    // can be used ... to reduce the false positive rate").
    let mut scored: Vec<((u64, u64), f64)> = candidates
        .iter()
        .map(|id| {
            let joint = query
                .estimate_joint(&sketches[id])
                .expect("compatible sketches");
            (*id, joint.jaccard)
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));

    println!("top matches:");
    for (id, jaccard) in scored.iter().take(5) {
        println!(
            "  family {:>2} member {}: jaccard ~ {:.3}",
            id.0, id.1, jaccard
        );
    }

    // All top hits must come from family 7.
    let false_family = scored
        .iter()
        .take(MEMBERS as usize)
        .filter(|((family, _), _)| *family != 7)
        .count();
    assert_eq!(false_family, 0, "query family should dominate the top hits");
    println!("all top-{MEMBERS} hits are from the query's family");
}
