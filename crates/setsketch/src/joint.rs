//! Joint estimation from two SetSketches (paper §3.2).
//!
//! Given two compatible sketches, the number of registers where one sketch
//! exceeds, trails or equals the other (D⁺, D⁻, D₀) is approximately
//! multinomial with probabilities (14) parameterized by the cardinalities
//! and the Jaccard similarity. With cardinality estimates from §3.1 the
//! similarity is found by maximizing the likelihood (strictly concave for
//! b ≤ e, Lemma 14); all other joint quantities follow algebraically.

use crate::sequence::ValueSequence;
use crate::sketch::{IncompatibleSketches, SetSketch};
use sketch_math::{
    inclusion_exclusion_jaccard, ml_jaccard, ml_jaccard_may_reach, JointCounts, JointQuantities,
};

impl<S: ValueSequence> SetSketch<S> {
    /// Register comparison counts against a compatible sketch (one pass
    /// of the vectorized three-way comparison kernel).
    pub fn joint_counts(&self, other: &Self) -> Result<JointCounts, IncompatibleSketches> {
        self.check_compatible(other)?;
        let (d_plus, d_minus, d0) = self.registers().compare_counts(other.registers());
        Ok(JointCounts::new(d_plus, d_minus, d0))
    }

    /// Joint estimation with cardinalities estimated from the sketches
    /// (the paper's "new" estimator).
    pub fn estimate_joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleSketches> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        self.estimate_joint_with_cardinalities(other, n_u, n_v)
    }

    /// Joint estimation with externally known (true) cardinalities
    /// (the paper's "new (cardinalities known)" series).
    pub fn estimate_joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleSketches> {
        let counts = self.joint_counts(other)?;
        Ok(self
            .estimate_joint_from_counts(counts, n_u, n_v, 0.0)
            .expect("a zero floor rules nothing out"))
    }

    /// Joint estimation from the pair's comparison counts
    /// ([`joint_counts`](Self::joint_counts)) and cardinalities, solving
    /// the likelihood only if its maximiser may reach `floor`
    /// ([`ml_jaccard_may_reach`]): `None` means the Jaccard is provably
    /// below `floor`. `Some` is the exact estimate, equal bit for bit to
    /// [`estimate_joint_with_cardinalities`](Self::estimate_joint_with_cardinalities)
    /// on the same pair.
    pub fn estimate_joint_from_counts(
        &self,
        counts: JointCounts,
        n_u: f64,
        n_v: f64,
        floor: f64,
    ) -> Option<JointQuantities> {
        if n_u <= 0.0 || n_v <= 0.0 {
            // One side is empty: the overlap is empty as well.
            return Some(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let total = n_u + n_v;
        let u = n_u / total;
        let v = n_v / total;
        let b = self.config().b();
        ml_jaccard_may_reach(counts, b, u, v, floor)
            .then(|| JointQuantities::new(n_u, n_v, ml_jaccard(counts, b, u, v)))
    }

    /// Joint estimation through the inclusion–exclusion principle (13):
    /// estimates |U|, |V| and |U ∪ V| (via merging) separately.
    pub fn estimate_joint_inclusion_exclusion(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleSketches> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        let union = self.merged(other)?;
        let n_union = union.estimate_cardinality();
        let jaccard = inclusion_exclusion_jaccard(n_u, n_v, n_union);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SetSketchConfig;
    use crate::sketch::{SetSketch1, SetSketch2};

    /// Builds sketches of U and V with |U \ V| = n1, |V \ U| = n2 and
    /// |U ∩ V| = n3 from disjoint integer ranges.
    fn sketch_pair(
        cfg: SetSketchConfig,
        seed: u64,
        n1: u64,
        n2: u64,
        n3: u64,
    ) -> (SetSketch1, SetSketch1) {
        let mut u = SetSketch1::new(cfg, seed);
        let mut v = SetSketch1::new(cfg, seed);
        u.extend(0..n1);
        v.extend(1_000_000_000..1_000_000_000 + n2);
        for e in 2_000_000_000..2_000_000_000 + n3 {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        (u, v)
    }

    #[test]
    fn estimates_jaccard_of_identical_sets() {
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let (u, v) = sketch_pair(cfg, 1, 0, 0, 10_000);
        let est = u.estimate_joint(&v).unwrap();
        assert!(est.jaccard > 0.99, "jaccard {}", est.jaccard);
    }

    #[test]
    fn estimates_jaccard_of_disjoint_sets() {
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let (u, v) = sketch_pair(cfg, 2, 10_000, 10_000, 0);
        let est = u.estimate_joint(&v).unwrap();
        // With m = 256 the estimator noise floor is a few percent.
        assert!(est.jaccard < 0.05, "jaccard {}", est.jaccard);
    }

    #[test]
    fn estimates_intermediate_jaccard() {
        // J = n3/(n1+n2+n3) = 5000/15000 = 1/3.
        let cfg = SetSketchConfig::new(4096, 1.001, 20.0, (1 << 16) - 2).unwrap();
        let (u, v) = sketch_pair(cfg, 3, 5000, 5000, 5000);
        let est = u.estimate_joint(&v).unwrap();
        let j = est.jaccard;
        assert!((j - 1.0 / 3.0).abs() < 0.05, "jaccard {j}");
        // Intersection ~ 5000, union ~ 15000.
        assert!((est.intersection - 5000.0).abs() < 600.0);
        assert!((est.union_size - 15_000.0).abs() < 1200.0);
    }

    #[test]
    fn known_cardinalities_improve_or_match() {
        let cfg = SetSketchConfig::new(1024, 1.02, 20.0, 4000).unwrap();
        let (u, v) = sketch_pair(cfg, 4, 2000, 6000, 2000);
        let known = u
            .estimate_joint_with_cardinalities(&v, 4000.0, 8000.0)
            .unwrap();
        let j_true = 2000.0 / 10_000.0;
        assert!(
            (known.jaccard - j_true).abs() < 0.05,
            "jaccard {}",
            known.jaccard
        );
    }

    #[test]
    fn inclusion_exclusion_is_consistent() {
        let cfg = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
        let (u, v) = sketch_pair(cfg, 5, 3000, 3000, 4000);
        let inex = u.estimate_joint_inclusion_exclusion(&v).unwrap();
        let j_true = 0.4;
        assert!(
            (inex.jaccard - j_true).abs() < 0.15,
            "jaccard {}",
            inex.jaccard
        );
    }

    #[test]
    fn joint_rejects_incompatible_sketches() {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let u = SetSketch1::new(cfg, 1);
        let v = SetSketch1::new(cfg, 2);
        assert!(u.estimate_joint(&v).is_err());
    }

    #[test]
    fn empty_sketches_estimate_zero_overlap() {
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let u = SetSketch1::new(cfg, 1);
        let mut v = SetSketch1::new(cfg, 1);
        v.extend(0..100);
        let est = u.estimate_joint(&v).unwrap();
        assert_eq!(est.jaccard, 0.0);
        assert_eq!(est.intersection, 0.0);
    }

    #[test]
    fn setsketch2_joint_estimation_works() {
        let cfg = SetSketchConfig::new(1024, 1.001, 20.0, (1 << 16) - 2).unwrap();
        let mut u = SetSketch2::new(cfg, 6);
        let mut v = SetSketch2::new(cfg, 6);
        // Small sets: SetSketch2's correlation should not break estimation.
        u.extend(0..300);
        v.extend(150..450);
        for e in 0..150u64 {
            v.insert_u64(e);
        }
        // V = 0..450, U = 0..300 -> J = 300/450 = 2/3.
        let est = u.estimate_joint(&v).unwrap();
        assert!(
            (est.jaccard - 2.0 / 3.0).abs() < 0.08,
            "jaccard {}",
            est.jaccard
        );
    }

    #[test]
    fn asymmetric_pairs_estimate_inclusion_coefficients() {
        let cfg = SetSketchConfig::new(4096, 1.001, 20.0, (1 << 16) - 2).unwrap();
        // U subset of V: U = intersection, inclusion_u = 1.
        let (u, v) = sketch_pair(cfg, 8, 0, 9000, 1000);
        let est = u.estimate_joint(&v).unwrap();
        assert!(est.inclusion_u > 0.9, "inclusion_u {}", est.inclusion_u);
        assert!(
            (est.inclusion_v - 0.1).abs() < 0.03,
            "inclusion_v {}",
            est.inclusion_v
        );
    }
}
