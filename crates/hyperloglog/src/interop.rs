//! [`sketch_core`] trait implementations for the GHLL sketch.
//!
//! Joint estimation is total: the order-based ML estimator (paper §4.2)
//! is used whenever its applicability condition holds, and the always-
//! applicable inclusion–exclusion estimator (13) is the fallback — so a
//! generic caller never sees the `NotApplicable` refusal of the inherent
//! [`GhllSketch::estimate_joint`].

use crate::ghll::{GhllSketch, IncompatibleGhll};
use sketch_core::{
    BatchInsert, CardinalityEstimator, CompactSketch, JointEstimator, JointQuantities, Mergeable,
    Signature, Sketch,
};
use sketch_math::{BitPackError, Registers};
use sketch_rand::hash_bytes;

impl CompactSketch for GhllSketch {
    type CompactError = BitPackError;

    /// Registers as offsets from their minimum plus a sparse exception
    /// list ([`sketch_math::bitpack::pack_offsets`]), packed straight
    /// from the resident lanes — for classic HLL configurations (b = 2,
    /// q = 62) registers concentrate in a narrow band: at m = 4096,
    /// filled with 10⁴ or 10⁶ elements, the codec picks 4-bit offsets
    /// with no exception, about 4 bits each against the resident byte.
    fn compress(&self) -> Vec<u8> {
        self.registers().pack_offsets()
    }

    /// Decodes straight into a register array of the prototype's lane
    /// width — validating each value against `q + 1` while narrowing —
    /// and builds the sketch around it with the prototype's
    /// configuration, seed, shared power table and
    /// lower-bound-tracking mode; the tracked bound is the decoded
    /// minimum.
    fn decompress(prototype: &Self, bytes: &[u8]) -> Result<Self, BitPackError> {
        let config = prototype.config();
        let registers = Registers::unpack_offsets(bytes, config.m(), config.q() + 1)?;
        Ok(prototype.with_registers(registers))
    }

    fn resident_bytes(&self) -> usize {
        self.memory_footprint()
    }
}

impl Sketch for GhllSketch {
    fn insert_u64(&mut self, element: u64) {
        GhllSketch::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        let hash = hash_bytes(bytes, self.seed());
        self.insert_hash(hash);
    }
}

impl BatchInsert for GhllSketch {}

impl Mergeable for GhllSketch {
    type MergeError = IncompatibleGhll;

    fn is_compatible(&self, other: &Self) -> bool {
        GhllSketch::is_compatible(self, other)
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleGhll> {
        self.merge(other)
    }
}

impl CardinalityEstimator for GhllSketch {
    fn cardinality(&self) -> f64 {
        self.estimate_cardinality()
    }
}

impl Signature for GhllSketch {
    fn signature_len(&self) -> usize {
        self.config().m()
    }

    /// GHLL registers are used directly as the LSH signature, widened
    /// to `u32`.
    fn signature_into(&self, out: &mut Vec<u32>) {
        self.registers().widen_into(out);
    }

    /// The SetSketch §3.3 lower collision-probability bound
    /// `log_b(1 + J(b−1))` with GHLL's base. GHLL registers follow the
    /// same per-register value distribution as SetSketch (stochastic
    /// averaging changes variance, not the agreement bound's direction),
    /// so the bound remains a conservative tuning input. Note that for
    /// b = 2 (classic HyperLogLog) registers of *unrelated* sets already
    /// agree with probability ≈ ln(1.25)/ln 2 ≈ 0.32, so HLL banding
    /// prunes far less sharply than SetSketch at b close to 1.
    fn register_collision_probability(&self, jaccard: f64) -> f64 {
        let b = self.config().b();
        (1.0 + jaccard * (b - 1.0)).ln() / b.ln()
    }

    /// GHLL registers are ordinal scale values; ±1 multi-probing is
    /// meaningful.
    fn ordinal_registers(&self) -> bool {
        true
    }
}

impl JointEstimator for GhllSketch {
    type JointError = IncompatibleGhll;

    fn joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleGhll> {
        if self.joint_ml_applicable(other)? {
            self.estimate_joint_ml_unchecked(other)
        } else {
            self.estimate_joint_inclusion_exclusion(other)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghll::GhllConfig;

    #[test]
    fn trait_surface_matches_inherent() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let mut a = GhllSketch::new(cfg, 1);
        let mut b = GhllSketch::new(cfg, 1);
        a.insert_batch(&(0..40_000).collect::<Vec<_>>());
        b.insert_batch(&(20_000..60_000).collect::<Vec<_>>());
        assert_eq!(a.cardinality(), a.estimate_cardinality());
        let merged = Mergeable::merged_with(&a, &b).unwrap();
        assert_eq!(merged, a.merged(&b).unwrap());
    }

    #[test]
    fn joint_falls_back_when_ml_not_applicable() {
        // Tiny sets leave registers zero in both sketches, so the ML
        // estimator refuses; the trait impl must fall back instead.
        let cfg = GhllConfig::hyperloglog(1024).unwrap();
        let mut a = GhllSketch::new(cfg, 2);
        let mut b = GhllSketch::new(cfg, 2);
        a.extend(0..50);
        b.extend(25..75);
        assert!(a.estimate_joint(&b).is_err(), "ML should refuse here");
        let joint = JointEstimator::joint(&a, &b).unwrap();
        assert!(joint.jaccard.is_finite());
        // True Jaccard: 25/75 = 1/3; inclusion-exclusion is noisy on tiny
        // sets, so only sanity-check the range.
        assert!((0.0..=1.0).contains(&joint.jaccard));
    }

    #[test]
    fn joint_uses_ml_when_applicable() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let mut a = GhllSketch::new(cfg, 3);
        let mut b = GhllSketch::new(cfg, 3);
        a.extend(0..100_000);
        b.extend(50_000..150_000);
        let inherent = a.estimate_joint(&b).unwrap();
        let through_trait = JointEstimator::joint(&a, &b).unwrap();
        assert_eq!(inherent, through_trait);
    }
}
