//! [`sketch_core`] trait implementations for HyperMinHash.

use crate::sketch::{HyperMinHash, IncompatibleHyperMinHash};
use sketch_core::{
    BatchInsert, CardinalityEstimator, JointEstimator, JointQuantities, Mergeable, Signature,
    Sketch,
};
use sketch_rand::hash_bytes;

impl Sketch for HyperMinHash {
    fn insert_u64(&mut self, element: u64) {
        HyperMinHash::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        let hash = hash_bytes(bytes, self.seed());
        self.insert_hash(hash);
    }
}

impl BatchInsert for HyperMinHash {}

impl Mergeable for HyperMinHash {
    type MergeError = IncompatibleHyperMinHash;

    fn is_compatible(&self, other: &Self) -> bool {
        HyperMinHash::is_compatible(self, other)
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleHyperMinHash> {
        self.merge(other)
    }
}

impl CardinalityEstimator for HyperMinHash {
    fn cardinality(&self) -> f64 {
        self.estimate_cardinality()
    }
}

impl Signature for HyperMinHash {
    fn signature_len(&self) -> usize {
        self.config().m()
    }

    /// The combined HLL-exponent + minwise-cell registers are the LSH
    /// signature directly.
    fn signature_into(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(self.registers());
    }

    /// The §3.3 lower bound evaluated at HyperMinHash's effective base
    /// `b = 2^(2^{-r})` (§4.3) — for the usual r ≥ 4 this is within a
    /// fraction of a percent of the MinHash identity `P = J`.
    fn register_collision_probability(&self, jaccard: f64) -> f64 {
        let b = self.config().equivalent_base();
        (1.0 + jaccard * (b - 1.0)).ln() / b.ln()
    }

    /// Combined HLL-exponent + cell registers are ordinal (larger means
    /// a smaller minwise hash), so ±1 names the nearest miss.
    fn ordinal_registers(&self) -> bool {
        true
    }
}

impl JointEstimator for HyperMinHash {
    type JointError = IncompatibleHyperMinHash;

    /// The SetSketch paper's order-based ML estimator with the effective
    /// base `b = 2^(2^{-r})` (§4.3).
    fn joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        self.estimate_joint(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::HyperMinHashConfig;

    #[test]
    fn trait_surface_matches_inherent() {
        let cfg = HyperMinHashConfig::new(512, 10).unwrap();
        let mut a = HyperMinHash::new(cfg, 1);
        let mut b = HyperMinHash::new(cfg, 1);
        a.insert_batch(&(0..30_000).collect::<Vec<_>>());
        b.insert_batch(&(10_000..40_000).collect::<Vec<_>>());
        assert_eq!(a.cardinality(), a.estimate_cardinality());
        assert_eq!(
            JointEstimator::joint(&a, &b).unwrap(),
            a.estimate_joint(&b).unwrap()
        );
        let merged = Mergeable::merged_with(&a, &b).unwrap();
        assert_eq!(merged, a.merged(&b).unwrap());
    }
}
