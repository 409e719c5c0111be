//! Joint estimation from GHLL sketches (paper §4.2).
//!
//! The SetSketch joint estimator relies only on the relative order of
//! register values, so it carries over to GHLL *provided* no register is
//! clipped in both sketches simultaneously: a register that is 0 in both
//! or q+1 in both carries order information the multinomial model cannot
//! see. Registers stuck at zero are expected while the union cardinality
//! is below m·H_m (coupon collector); in that regime the inclusion–
//! exclusion principle (13) remains the fallback.

use crate::ghll::{GhllSketch, IncompatibleGhll};
use sketch_math::{
    harmonic, inclusion_exclusion_jaccard, ml_jaccard, JointCounts, JointQuantities,
};

/// Why the ML joint estimator refused to run.
#[derive(Debug, Clone, PartialEq)]
pub enum GhllJointError {
    /// Sketches are not compatible (configuration or seed mismatch).
    Incompatible,
    /// A register is clipped (0 or q+1) in both sketches; the order-based
    /// estimator is not applicable (paper §4.2).
    NotApplicable,
}

impl std::fmt::Display for GhllJointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhllJointError::Incompatible => {
                write!(f, "GHLL sketches differ in configuration or hash seed")
            }
            GhllJointError::NotApplicable => write!(
                f,
                "registers clipped in both sketches; use inclusion-exclusion"
            ),
        }
    }
}

impl std::error::Error for GhllJointError {}

impl From<IncompatibleGhll> for GhllJointError {
    fn from(_: IncompatibleGhll) -> Self {
        GhllJointError::Incompatible
    }
}

impl GhllSketch {
    /// Register comparison counts against a compatible sketch (one pass
    /// of the vectorized three-way comparison kernel).
    fn joint_counts(&self, other: &Self) -> Result<JointCounts, IncompatibleGhll> {
        if !self.is_compatible(other) {
            return Err(IncompatibleGhll);
        }
        let (d_plus, d_minus, d0) = self.registers().compare_counts(other.registers());
        Ok(JointCounts::new(d_plus, d_minus, d0))
    }

    /// Checks the §4.2 applicability condition: no register may be 0 or
    /// q+1 in *both* sketches simultaneously.
    pub fn joint_ml_applicable(&self, other: &Self) -> Result<bool, IncompatibleGhll> {
        if !self.is_compatible(other) {
            return Err(IncompatibleGhll);
        }
        let limit = self.config().q() + 1;
        Ok(self
            .registers()
            .iter()
            .zip(other.registers())
            .all(|(a, b)| !((a == 0 && b == 0) || (a == limit && b == limit))))
    }

    /// Union cardinality below which zero registers are expected in both
    /// sketches: `m · H_m` (coupon collector, paper §4.2).
    pub fn joint_ml_cardinality_threshold(&self) -> f64 {
        let m = self.config().m();
        m as f64 * harmonic(m)
    }

    /// Joint estimation with the paper's order-based ML estimator,
    /// validating the applicability condition first.
    pub fn estimate_joint(&self, other: &Self) -> Result<JointQuantities, GhllJointError> {
        if !self.joint_ml_applicable(other)? {
            return Err(GhllJointError::NotApplicable);
        }
        Ok(self.estimate_joint_ml_unchecked(other)?)
    }

    /// Order-based ML estimation *without* the applicability check — used
    /// by the experiment harness to reproduce the failure mode of paper
    /// Figure 16.
    pub fn estimate_joint_ml_unchecked(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleGhll> {
        let counts = self.joint_counts(other)?;
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        if n_u <= 0.0 || n_v <= 0.0 {
            return Ok(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let total = n_u + n_v;
        let jaccard = ml_jaccard(counts, self.config().b(), n_u / total, n_v / total);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }

    /// Order-based ML estimation with externally known cardinalities.
    pub fn estimate_joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleGhll> {
        let counts = self.joint_counts(other)?;
        if n_u <= 0.0 || n_v <= 0.0 {
            return Ok(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let total = n_u + n_v;
        let jaccard = ml_jaccard(counts, self.config().b(), n_u / total, n_v / total);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }

    /// Inclusion–exclusion joint estimation (13): always applicable, the
    /// pre-SetSketch state of the art for HLL.
    pub fn estimate_joint_inclusion_exclusion(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleGhll> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        let n_union = self.merged(other)?.estimate_cardinality();
        let jaccard = inclusion_exclusion_jaccard(n_u, n_v, n_union);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }
}

#[cfg(test)]
mod tests {
    use crate::ghll::{GhllConfig, GhllSketch};

    fn pair(m: usize, seed: u64, n1: u64, n2: u64, n3: u64) -> (GhllSketch, GhllSketch) {
        let cfg = GhllConfig::hyperloglog(m).unwrap();
        let mut u = GhllSketch::new(cfg, seed);
        let mut v = GhllSketch::new(cfg, seed);
        u.extend(0..n1);
        v.extend(10_000_000..10_000_000 + n2);
        for e in 20_000_000..20_000_000 + n3 {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        (u, v)
    }

    #[test]
    fn large_union_is_applicable_and_accurate() {
        // |U ∪ V| = 1e6 >> m·H_m for m = 256: ML estimation applies.
        let (u, v) = pair(256, 1, 300_000, 300_000, 400_000);
        assert!(u.joint_ml_applicable(&v).unwrap());
        let q = u.estimate_joint(&v).unwrap();
        assert!((q.jaccard - 0.4).abs() < 0.12, "jaccard {}", q.jaccard);
    }

    #[test]
    fn small_union_is_rejected() {
        // |U ∪ V| = 1000 << m·H_m for m = 4096: zero registers overlap.
        let (u, v) = pair(4096, 2, 300, 300, 400);
        assert!(!u.joint_ml_applicable(&v).unwrap());
        assert_eq!(
            u.estimate_joint(&v),
            Err(super::GhllJointError::NotApplicable)
        );
    }

    #[test]
    fn threshold_matches_coupon_collector() {
        let cfg = GhllConfig::hyperloglog(4096).unwrap();
        let s = GhllSketch::new(cfg, 1);
        let threshold = s.joint_ml_cardinality_threshold();
        // m H_m for m = 4096 ~ 4096 * 8.9 ~ 36k.
        assert!(threshold > 30_000.0 && threshold < 45_000.0);
    }

    #[test]
    fn inclusion_exclusion_works_for_small_sets() {
        let (u, v) = pair(4096, 3, 300, 300, 400);
        let q = u.estimate_joint_inclusion_exclusion(&v).unwrap();
        assert!((q.jaccard - 0.4).abs() < 0.1, "jaccard {}", q.jaccard);
    }

    #[test]
    fn known_cardinalities_improve_estimates() {
        let (u, v) = pair(256, 4, 200_000, 600_000, 200_000);
        let q = u
            .estimate_joint_with_cardinalities(&v, 400_000.0, 800_000.0)
            .unwrap();
        let j_true = 200_000.0 / 1_000_000.0;
        assert!((q.jaccard - j_true).abs() < 0.08, "jaccard {}", q.jaccard);
    }

    #[test]
    fn incompatible_sketches_are_rejected() {
        let cfg = GhllConfig::hyperloglog(64).unwrap();
        let u = GhllSketch::new(cfg, 1);
        let v = GhllSketch::new(cfg, 2);
        assert!(u.joint_counts(&v).is_err());
        assert_eq!(
            u.estimate_joint(&v),
            Err(super::GhllJointError::Incompatible)
        );
    }

    #[test]
    fn identical_large_sets_estimate_high_jaccard() {
        let (u, v) = pair(256, 5, 0, 0, 500_000);
        let q = u.estimate_joint(&v).unwrap();
        assert!(q.jaccard > 0.95, "jaccard {}", q.jaccard);
    }
}
