//! [`sketch_core`] trait implementations for the MinHash family.
//!
//! [`MinHash`] and [`SuperMinHash`] implement the full trait set
//! (insert, batch insert, merge, cardinality, joint estimation);
//! [`OnePermutationHashing`] implements recording and merging but no
//! estimators — its raw Jaccard estimator is biased for small sets
//! (§1.2), so it is deliberately kept off the unified estimator surface.
//! [`crate::BBitSignature`] is a derived, non-insertable signature and
//! stays outside the trait layer entirely.
//!
//! All three insertable sketches implement [`Signature`] — their
//! components fold to 32-bit LSH registers with the classic MinHash
//! collision probability `P(equal) ≈ J`.

use crate::classic::{IncompatibleMinHash, MinHash};
use crate::oph::{IncompatibleOph, OnePermutationHashing};
use crate::superminhash::{IncompatibleSuperMinHash, SuperMinHash};
use sketch_core::{
    BatchInsert, CardinalityEstimator, JointEstimator, JointQuantities, Mergeable, Signature,
    Sketch,
};
use sketch_rand::hash_bytes;

/// Folds a 64-bit component value to a 32-bit signature register.
///
/// Equal components stay equal; unequal components collide with
/// probability 2⁻³² — negligible against the Jaccard-driven collision
/// rates banding LSH operates on, so `P(register equal) ≈ J` still holds
/// for the folded signature.
#[inline]
fn fold_component(value: u64) -> u32 {
    (value ^ (value >> 32)) as u32
}

impl Sketch for MinHash {
    fn insert_u64(&mut self, element: u64) {
        MinHash::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        let hash = hash_bytes(bytes, self.seed());
        self.insert_hash(hash);
    }
}

impl BatchInsert for MinHash {}

impl Mergeable for MinHash {
    type MergeError = IncompatibleMinHash;

    fn is_compatible(&self, other: &Self) -> bool {
        MinHash::is_compatible(self, other)
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleMinHash> {
        self.merge(other)
    }
}

impl CardinalityEstimator for MinHash {
    fn cardinality(&self) -> f64 {
        self.estimate_cardinality()
    }
}

impl JointEstimator for MinHash {
    type JointError = IncompatibleMinHash;

    /// The paper's new closed-form estimator (17) with cardinalities
    /// from (16).
    fn joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleMinHash> {
        self.estimate_joint(other)
    }

    fn joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleMinHash> {
        self.estimate_joint_with_cardinalities(other, n_u, n_v)
    }
}

impl Signature for MinHash {
    fn signature_len(&self) -> usize {
        self.m()
    }

    /// Each 64-bit component folds to one 32-bit register; `u64::MAX`
    /// (never updated) folds consistently, so two empty sketches still
    /// agree everywhere.
    fn signature_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.values().iter().map(|&v| fold_component(v)));
    }

    // Default `register_collision_probability` (P = J) is the exact
    // MinHash collision probability.
}

impl Sketch for SuperMinHash {
    fn insert_u64(&mut self, element: u64) {
        SuperMinHash::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        let hash = hash_bytes(bytes, self.seed());
        self.insert_hash(hash);
    }
}

impl BatchInsert for SuperMinHash {}

impl Mergeable for SuperMinHash {
    type MergeError = IncompatibleSuperMinHash;

    fn is_compatible(&self, other: &Self) -> bool {
        SuperMinHash::is_compatible(self, other)
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleSuperMinHash> {
        self.merge(other)
    }
}

impl CardinalityEstimator for SuperMinHash {
    fn cardinality(&self) -> f64 {
        self.estimate_cardinality()
    }
}

impl JointEstimator for SuperMinHash {
    type JointError = IncompatibleSuperMinHash;

    /// Classic fraction-of-equal-components Jaccard combined with the
    /// uniform-marginal cardinality estimator (16).
    fn joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleSuperMinHash> {
        let jaccard = self.jaccard_classic(other)?;
        Ok(JointQuantities::new(
            self.estimate_cardinality(),
            other.estimate_cardinality(),
            jaccard,
        ))
    }
}

impl Signature for SuperMinHash {
    fn signature_len(&self) -> usize {
        self.m()
    }

    /// Components are `f64` ranks-plus-fractions; equal sets produce
    /// bit-identical values, so folding the IEEE-754 bits preserves the
    /// `P(register equal) ≈ J` collision behavior.
    fn signature_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.values().iter().map(|&v| fold_component(v.to_bits())));
    }
}

impl Sketch for OnePermutationHashing {
    fn insert_u64(&mut self, element: u64) {
        OnePermutationHashing::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        // OPH has no raw-hash entry point; route the byte digest through
        // the element path (one extra cheap hash).
        let hash = hash_bytes(bytes, self.seed());
        OnePermutationHashing::insert_u64(self, hash);
    }
}

impl BatchInsert for OnePermutationHashing {}

impl Mergeable for OnePermutationHashing {
    type MergeError = IncompatibleOph;

    fn is_compatible(&self, other: &Self) -> bool {
        OnePermutationHashing::is_compatible(self, other)
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleOph> {
        self.merge(other)
    }
}

impl Signature for OnePermutationHashing {
    fn signature_len(&self) -> usize {
        self.m()
    }

    /// Raw (non-densified) bins; empty bins (`u64::MAX`) fold
    /// consistently. For small sets many bins are empty on both sides,
    /// which *raises* register agreement — harmless for candidate
    /// generation, where extra collisions only add verification work.
    fn signature_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend(self.values().iter().map(|&v| fold_component(v)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minhash_trait_surface_matches_inherent() {
        let mut a = MinHash::new(512, 7);
        let mut b = MinHash::new(512, 7);
        a.insert_batch(&(0..1_000).collect::<Vec<_>>());
        b.insert_batch(&(500..1_500).collect::<Vec<_>>());
        assert_eq!(a.cardinality(), a.estimate_cardinality());
        assert_eq!(
            JointEstimator::joint(&a, &b).unwrap(),
            a.estimate_joint(&b).unwrap()
        );
        let merged = Mergeable::merged_with(&a, &b).unwrap();
        assert_eq!(merged, a.merged(&b).unwrap());
    }

    #[test]
    fn superminhash_joint_estimates_similarity() {
        let mut a = SuperMinHash::new(1024, 3);
        let mut b = SuperMinHash::new(1024, 3);
        a.extend(0..2_000);
        b.extend(1_000..3_000);
        let joint = JointEstimator::joint(&a, &b).unwrap();
        // True Jaccard: 1000 / 3000 = 1/3.
        assert!(
            (joint.jaccard - 1.0 / 3.0).abs() < 0.08,
            "{}",
            joint.jaccard
        );
    }

    #[test]
    fn oph_merges_through_trait() {
        let mut a = OnePermutationHashing::new(256, 5);
        let mut b = OnePermutationHashing::new(256, 5);
        a.extend(0..5_000);
        b.extend(2_500..7_500);
        let merged = Mergeable::merged_with(&a, &b).unwrap();
        assert_eq!(merged, a.merged(&b).unwrap());
        let incompatible = OnePermutationHashing::new(256, 6);
        assert!(Mergeable::merge_from(&mut a, &incompatible).is_err());
    }

    #[test]
    fn insert_bytes_distinguishes_elements() {
        let mut a = MinHash::new(64, 1);
        let mut b = MinHash::new(64, 1);
        Sketch::insert_bytes(&mut a, b"left");
        Sketch::insert_bytes(&mut b, b"right");
        assert_ne!(a.values(), b.values());
    }
}
