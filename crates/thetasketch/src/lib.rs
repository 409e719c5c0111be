//! Theta sketch baseline (Dasgupta, Lang, Rhodes & Thaler, ICDT 2016).
//!
//! The SetSketch paper's related work (§1.5) calls the Theta sketch
//! "probably the best alternative to MinHash and HLL which also works for
//! distributed data and which even supports binary set operations", while
//! noting its downsides: significantly worse memory efficiency than HLL
//! for cardinality estimation, and no locality sensitivity. This crate
//! implements the k-minimum-values form with a threshold θ so those
//! trade-offs can be measured against SetSketch directly:
//!
//! * unbiased cardinality estimation `(|samples|) / θ`,
//! * union, intersection and difference as *sketch-level* binary
//!   operations (not just estimates) — the feature SetSketch lacks,
//! * mergeability with the usual idempotent/commutative laws.
//!
//! ```
//! use thetasketch::ThetaSketch;
//!
//! let mut a = ThetaSketch::new(1024, 7);
//! let mut b = ThetaSketch::new(1024, 7);
//! for e in 0..30_000u64 {
//!     a.insert_u64(e);
//! }
//! for e in 20_000..50_000u64 {
//!     b.insert_u64(e);
//! }
//! let inter = a.intersect(&b).unwrap();
//! assert!((inter.estimate() - 10_000.0).abs() / 10_000.0 < 0.2);
//! ```

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use sketch_rand::{hash_of, hash_u64};
use std::collections::BTreeSet;

/// Error raised when sketches with different seeds are combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncompatibleTheta;

impl std::fmt::Display for IncompatibleTheta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "theta sketches differ in hash seed")
    }
}

impl std::error::Error for IncompatibleTheta {}

/// A KMV-style theta sketch over 64-bit hash values.
///
/// Keeps the `k` smallest distinct hash values; the threshold θ is the
/// (k+1)-smallest seen value (or 1.0 while fewer than k values are
/// retained). Binary operations produce derived sketches whose θ is the
/// minimum of the operands' θ, as in the Theta sketch framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct ThetaSketch {
    k: usize,
    seed: u64,
    /// Retained hash values, all strictly below `theta_bits`.
    samples: BTreeSet<u64>,
    /// θ scaled to the u64 hash domain; `u64::MAX` plays the role of 1.0.
    theta_bits: u64,
}

impl ThetaSketch {
    /// Creates an empty sketch retaining at most `k` hash values.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "theta sketch needs k > 0");
        Self {
            k,
            seed,
            samples: BTreeSet::new(),
            theta_bits: u64::MAX,
        }
    }

    /// Retention capacity k.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// θ as a fraction of the hash domain.
    pub fn theta(&self) -> f64 {
        self.theta_bits as f64 / u64::MAX as f64
    }

    /// Number of retained samples.
    pub fn retained(&self) -> usize {
        self.samples.len()
    }

    /// Inserts any hashable element.
    pub fn insert<T: std::hash::Hash + ?Sized>(&mut self, element: &T) {
        self.insert_raw(hash_of(element, self.seed));
    }

    /// Inserts a 64-bit element.
    #[inline]
    pub fn insert_u64(&mut self, element: u64) {
        self.insert_raw(hash_u64(element, self.seed));
    }

    /// Inserts all elements of an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, elements: I) {
        for e in elements {
            self.insert_u64(e);
        }
    }

    fn insert_raw(&mut self, hash: u64) {
        if hash >= self.theta_bits {
            return;
        }
        if self.samples.insert(hash) && self.samples.len() > self.k {
            // Evict the largest retained value; it becomes the new θ.
            let largest = *self.samples.iter().next_back().expect("non-empty");
            self.samples.remove(&largest);
            self.theta_bits = largest;
        }
    }

    /// Unbiased cardinality estimate `retained / θ`.
    pub fn estimate(&self) -> f64 {
        self.samples.len() as f64 / self.theta()
    }

    /// Relative standard deviation of the estimate: ~`1/sqrt(k - 1)` once
    /// the sketch is in estimation mode.
    pub fn relative_standard_deviation(&self) -> f64 {
        1.0 / ((self.k.max(2) - 1) as f64).sqrt()
    }

    /// Checks seed compatibility.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.seed == other.seed
    }

    fn binary_op<F>(&self, other: &Self, keep: F) -> Result<Self, IncompatibleTheta>
    where
        F: Fn(bool, bool) -> bool,
    {
        if !self.is_compatible(other) {
            return Err(IncompatibleTheta);
        }
        let theta_bits = self.theta_bits.min(other.theta_bits);
        let mut samples = BTreeSet::new();
        for &h in self.samples.iter().chain(&other.samples) {
            if h < theta_bits && keep(self.samples.contains(&h), other.samples.contains(&h)) {
                samples.insert(h);
            }
        }
        let k = self.k.min(other.k);
        let mut result = Self {
            k,
            seed: self.seed,
            samples,
            theta_bits,
        };
        // Re-trim if the union overflowed k (keeps the bound tight).
        while result.samples.len() > k {
            let largest = *result.samples.iter().next_back().expect("non-empty");
            result.samples.remove(&largest);
            result.theta_bits = largest;
        }
        Ok(result)
    }

    /// Sketch of the set union.
    pub fn union(&self, other: &Self) -> Result<Self, IncompatibleTheta> {
        self.binary_op(other, |a, b| a || b)
    }

    /// Sketch of the set intersection — a *sketch*, so it can participate
    /// in further operations (the §1.5 capability SetSketch lacks).
    pub fn intersect(&self, other: &Self) -> Result<Self, IncompatibleTheta> {
        self.binary_op(other, |a, b| a && b)
    }

    /// Sketch of the set difference `self \ other`.
    pub fn difference(&self, other: &Self) -> Result<Self, IncompatibleTheta> {
        self.binary_op(other, |a, b| a && !b)
    }

    /// Jaccard similarity estimate via union and intersection sketches.
    pub fn jaccard(&self, other: &Self) -> Result<f64, IncompatibleTheta> {
        let union = self.union(other)?;
        let inter = self.intersect(other)?;
        let u = union.estimate();
        if u <= 0.0 {
            return Ok(0.0);
        }
        Ok((inter.estimate() / u).clamp(0.0, 1.0))
    }
}

// ---------------------------------------------------------------------------
// sketch-core trait implementations.
// ---------------------------------------------------------------------------

impl sketch_core::Sketch for ThetaSketch {
    fn insert_u64(&mut self, element: u64) {
        ThetaSketch::insert_u64(self, element);
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        self.insert_raw(sketch_rand::hash_bytes(bytes, self.seed));
    }
}

impl sketch_core::BatchInsert for ThetaSketch {}

impl sketch_core::Mergeable for ThetaSketch {
    type MergeError = IncompatibleTheta;

    fn is_compatible(&self, other: &Self) -> bool {
        ThetaSketch::is_compatible(self, other)
    }

    /// Union merge via the sketch-level binary union (the merged sketch
    /// keeps the tighter θ of the two operands).
    fn merge_from(&mut self, other: &Self) -> Result<(), IncompatibleTheta> {
        *self = self.union(other)?;
        Ok(())
    }
}

impl sketch_core::CardinalityEstimator for ThetaSketch {
    fn cardinality(&self) -> f64 {
        self.estimate()
    }
}

impl sketch_core::JointEstimator for ThetaSketch {
    type JointError = IncompatibleTheta;

    /// Joint quantities via the sketch-level union/intersection algebra.
    fn joint(&self, other: &Self) -> Result<sketch_core::JointQuantities, IncompatibleTheta> {
        let jaccard = self.jaccard(other)?;
        Ok(sketch_core::JointQuantities::new(
            self.estimate(),
            other.estimate(),
            jaccard,
        ))
    }
}

#[cfg(test)]
mod interop_tests {
    use super::*;
    use sketch_core::{BatchInsert, CardinalityEstimator, JointEstimator, Mergeable};

    #[test]
    fn trait_surface_matches_inherent() {
        let mut a = ThetaSketch::new(1024, 7);
        let mut b = ThetaSketch::new(1024, 7);
        a.insert_batch(&(0..30_000).collect::<Vec<_>>());
        b.insert_batch(&(20_000..50_000).collect::<Vec<_>>());
        assert_eq!(a.cardinality(), a.estimate());
        let merged = Mergeable::merged_with(&a, &b).unwrap();
        assert_eq!(merged, a.union(&b).unwrap());
        let joint = JointEstimator::joint(&a, &b).unwrap();
        assert_eq!(joint.jaccard, a.jaccard(&b).unwrap());
        // Intersection from the joint quantities tracks the true overlap.
        let rel = (joint.intersection - 10_000.0) / 10_000.0;
        assert!(rel.abs() < 0.25, "relative error {rel}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(range: std::ops::Range<u64>, k: usize) -> ThetaSketch {
        let mut s = ThetaSketch::new(k, 11);
        s.extend(range);
        s
    }

    #[test]
    fn small_sets_are_exact() {
        let s = sketch_of(0..100, 1024);
        assert_eq!(s.retained(), 100);
        assert_eq!(s.theta(), 1.0);
        assert_eq!(s.estimate(), 100.0);
    }

    #[test]
    fn large_sets_are_estimated_accurately() {
        let n = 200_000u64;
        let s = sketch_of(0..n, 4096);
        assert_eq!(s.retained(), 4096);
        let rel = (s.estimate() - n as f64) / n as f64;
        // RSD ~ 1/sqrt(4095) ~ 1.6 %; allow 5 sigma.
        assert!(rel.abs() < 0.08, "relative error {rel}");
    }

    #[test]
    fn insert_is_idempotent_and_commutative() {
        let mut a = ThetaSketch::new(64, 1);
        let mut b = ThetaSketch::new(64, 1);
        for e in 0..5000u64 {
            a.insert_u64(e);
        }
        for e in (0..5000u64).rev() {
            b.insert_u64(e);
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn union_estimates_the_union() {
        let a = sketch_of(0..30_000, 1024);
        let b = sketch_of(20_000..50_000, 1024);
        let u = a.union(&b).unwrap();
        let rel = (u.estimate() - 50_000.0) / 50_000.0;
        assert!(rel.abs() < 0.15, "relative error {rel}");
    }

    #[test]
    fn intersection_estimates_the_overlap() {
        let a = sketch_of(0..30_000, 4096);
        let b = sketch_of(20_000..50_000, 4096);
        let inter = a.intersect(&b).unwrap();
        let rel = (inter.estimate() - 10_000.0) / 10_000.0;
        assert!(rel.abs() < 0.25, "relative error {rel}");
    }

    #[test]
    fn difference_estimates_the_difference() {
        let a = sketch_of(0..30_000, 4096);
        let b = sketch_of(20_000..50_000, 4096);
        let diff = a.difference(&b).unwrap();
        let rel = (diff.estimate() - 20_000.0) / 20_000.0;
        assert!(rel.abs() < 0.25, "relative error {rel}");
    }

    #[test]
    fn composed_operations_work() {
        // (A ∪ B) ∩ C as pure sketch algebra.
        let a = sketch_of(0..10_000, 2048);
        let b = sketch_of(10_000..20_000, 2048);
        let c = sketch_of(5_000..15_000, 2048);
        let composed = a.union(&b).unwrap().intersect(&c).unwrap();
        let rel = (composed.estimate() - 10_000.0) / 10_000.0;
        assert!(rel.abs() < 0.25, "relative error {rel}");
    }

    #[test]
    fn jaccard_estimate_is_reasonable() {
        let a = sketch_of(0..30_000, 4096);
        let b = sketch_of(15_000..45_000, 4096);
        // J = 15000/45000 = 1/3.
        let j = a.jaccard(&b).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.08, "jaccard {j}");
    }

    #[test]
    fn empty_sketch_behavior() {
        let empty = ThetaSketch::new(64, 11);
        assert_eq!(empty.estimate(), 0.0);
        let other = sketch_of(0..1000, 64); // seed 11 as well
        assert_eq!(empty.intersect(&other).unwrap().estimate(), 0.0);
        assert_eq!(empty.jaccard(&other).unwrap(), 0.0);
    }

    #[test]
    fn union_laws() {
        let a = sketch_of(0..8000, 256);
        let b = sketch_of(4000..12_000, 256);
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
        assert_eq!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn incompatible_seeds_are_rejected() {
        let a = ThetaSketch::new(64, 1);
        let b = ThetaSketch::new(64, 2);
        assert!(a.union(&b).is_err());
        assert!(a.intersect(&b).is_err());
        assert!(a.jaccard(&b).is_err());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_roundtrip() {
        let s = sketch_of(0..10_000, 512);
        let json = serde_json::to_string(&s).unwrap();
        let back: ThetaSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn memory_efficiency_is_worse_than_hll_as_paper_states() {
        // §1.5: theta sketches need ~64 bits per retained value versus
        // HLL's 6 bits per register for comparable accuracy — an order of
        // magnitude. This is a documentation-level sanity check.
        let k = 4096;
        let theta_bytes = k * 8;
        let hll_bytes = (4096 * 6) / 8;
        assert!(theta_bytes > 10 * hll_bytes);
    }
}
