//! Classic MinHash (Broder 1997; paper §1.2, §4.1).
//!
//! MinHash maps a set to m components `K_i = min_{d ∈ S} h_i(d)` with
//! independent hash functions h_i. Insertion costs O(m) per element —
//! exactly the cost the paper's Figure 10 contrasts against SetSketch.
//!
//! Besides the classic Jaccard estimator (fraction of equal components)
//! this module implements the paper's *new* closed-form joint estimator
//! (eq. (17)), which dominates the classic one, and the MinHash
//! cardinality estimator (eq. (16)).

use sketch_math::{inclusion_exclusion_jaccard, ml_jaccard_b1, JointCounts, JointQuantities};
use sketch_rand::{hash_u64, Rng64, WyRand};

/// Error raised when two sketches with different size or seed are combined.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompatibleMinHash;

impl std::fmt::Display for IncompatibleMinHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MinHash sketches differ in size or hash seed")
    }
}

impl std::error::Error for IncompatibleMinHash {}

/// Classic m-component MinHash signature over 64-bit hash values.
#[derive(Debug, Clone, PartialEq)]
pub struct MinHash {
    seed: u64,
    /// Components; `u64::MAX` marks a never-updated component.
    values: Vec<u64>,
}

impl MinHash {
    /// Creates an empty MinHash with `m` components.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m > 0, "MinHash needs at least one component");
        Self {
            seed,
            values: vec![u64::MAX; m],
        }
    }

    /// Number of components m.
    #[inline]
    pub(crate) fn m(&self) -> usize {
        self.values.len()
    }

    /// The hash seed.
    #[inline]
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Read-only view of the component values.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Inserts a 64-bit element.
    #[inline]
    pub fn insert_u64(&mut self, element: u64) {
        self.insert_hash(hash_u64(element, self.seed));
    }

    /// Inserts all elements of an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, elements: I) {
        for e in elements {
            self.insert_u64(e);
        }
    }

    /// Inserts an already hashed element: one pseudorandom value per
    /// component, O(m).
    pub fn insert_hash(&mut self, hash: u64) {
        let mut rng = WyRand::new(hash);
        for slot in &mut self.values {
            let h = rng.next_u64();
            if h < *slot {
                *slot = h;
            }
        }
    }

    /// Checks mergeability with another sketch.
    fn is_compatible(&self, other: &Self) -> bool {
        self.seed == other.seed && self.values.len() == other.values.len()
    }

    /// Returns the union sketch (component-wise minimum).
    pub fn merged(&self, other: &Self) -> Result<Self, IncompatibleMinHash> {
        if !self.is_compatible(other) {
            return Err(IncompatibleMinHash);
        }
        let values = self.values.iter().zip(&other.values);
        Ok(Self {
            seed: self.seed,
            values: values.map(|(&a, &b)| a.min(b)).collect(),
        })
    }

    /// Component value mapped to the open unit interval.
    #[inline]
    fn unit_value(v: u64) -> f64 {
        // (v + 0.5) / 2^64: strictly inside (0, 1) even for v = u64::MAX.
        (v as f64 + 0.5) * 5.421_010_862_427_522e-20
    }

    /// Cardinality estimator (16): `n̂ = m / Σ_i −ln(1 − K'_i)`.
    pub fn estimate_cardinality(&self) -> f64 {
        let sum: f64 = self
            .values
            .iter()
            .map(|&v| {
                if v == u64::MAX {
                    // An untouched component contributes -ln(0) = inf,
                    // driving the estimate to 0 for empty sketches.
                    f64::INFINITY
                } else {
                    -(-Self::unit_value(v)).ln_1p()
                }
            })
            .sum();
        if sum.is_infinite() {
            0.0
        } else {
            self.m() as f64 / sum
        }
    }

    /// Comparison counts in the max-sketch convention of
    /// [`JointCounts`]: MinHash uses the minimum, so dominance flips
    /// (paper §4.1: `D⁺ = |{i : K'_Ui < K'_Vi}|`).
    fn joint_counts(&self, other: &Self) -> Result<JointCounts, IncompatibleMinHash> {
        if !self.is_compatible(other) {
            return Err(IncompatibleMinHash);
        }
        let mut counts = JointCounts::new(0, 0, 0);
        for (a, b) in self.values.iter().zip(&other.values) {
            match a.cmp(b) {
                std::cmp::Ordering::Less => counts.d_plus += 1,
                std::cmp::Ordering::Greater => counts.d_minus += 1,
                std::cmp::Ordering::Equal => counts.d0 += 1,
            }
        }
        Ok(counts)
    }

    /// Classic Jaccard estimator: fraction of equal components, with RMSE
    /// `sqrt(J(1−J)/m)`.
    pub fn jaccard_classic(&self, other: &Self) -> Result<f64, IncompatibleMinHash> {
        let counts = self.joint_counts(other)?;
        Ok(counts.d0 as f64 / self.m() as f64)
    }

    /// The paper's new closed-form joint estimator (17) with cardinalities
    /// estimated by (16).
    pub fn estimate_joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        self.estimate_joint_with_cardinalities(other, n_u, n_v)
    }

    /// New joint estimator (17) with known cardinalities.
    pub fn estimate_joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleMinHash> {
        let counts = self.joint_counts(other)?;
        if n_u <= 0.0 || n_v <= 0.0 {
            return Ok(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let total = n_u + n_v;
        let jaccard = ml_jaccard_b1(counts, n_u / total, n_v / total);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }

    /// Classic ("original") joint estimation: Ĵ = D₀/m combined with
    /// cardinalities estimated by (16) (or pass known values through
    /// [`estimate_joint_classic_with_cardinalities`](Self::estimate_joint_classic_with_cardinalities)).
    pub fn estimate_joint_classic(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        self.estimate_joint_classic_with_cardinalities(other, n_u, n_v)
    }

    /// Classic joint estimation with known cardinalities.
    pub fn estimate_joint_classic_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleMinHash> {
        let jaccard = self.jaccard_classic(other)?;
        let feasible = if n_u > 0.0 && n_v > 0.0 {
            (n_u / n_v).min(n_v / n_u)
        } else {
            0.0
        };
        Ok(JointQuantities::new(n_u, n_v, jaccard.min(feasible)))
    }

    /// Inclusion–exclusion joint estimation (13) via the merged sketch.
    pub fn estimate_joint_inclusion_exclusion(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        let n_union = self.merged(other)?.estimate_cardinality();
        let jaccard = inclusion_exclusion_jaccard(n_u, n_v, n_union);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(m: usize, seed: u64, n1: u64, n2: u64, n3: u64) -> (MinHash, MinHash) {
        let mut u = MinHash::new(m, seed);
        let mut v = MinHash::new(m, seed);
        u.extend(0..n1);
        v.extend(1_000_000..1_000_000 + n2);
        for e in 2_000_000..2_000_000 + n3 {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        (u, v)
    }

    #[test]
    fn insert_is_idempotent_and_commutative() {
        let mut a = MinHash::new(64, 1);
        let mut b = MinHash::new(64, 1);
        for e in 0..100u64 {
            a.insert_u64(e);
        }
        for e in (0..100u64).rev() {
            b.insert_u64(e);
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = MinHash::new(64, 2);
        let mut b = MinHash::new(64, 2);
        let mut ab = MinHash::new(64, 2);
        a.extend(0..500);
        b.extend(300..800);
        ab.extend(0..800);
        assert_eq!(a.merged(&b).unwrap(), ab);
    }

    #[test]
    fn merge_rejects_incompatible() {
        let a = MinHash::new(64, 1);
        let b = MinHash::new(64, 2);
        let c = MinHash::new(32, 1);
        assert!(a.merged(&b).is_err());
        assert!(a.merged(&c).is_err());
    }

    #[test]
    fn classic_jaccard_matches_truth() {
        // J = 4000/12000 = 1/3 with m = 4096: RMSE ~ 0.007.
        let (u, v) = pair(4096, 3, 4000, 4000, 4000);
        let j = u.jaccard_classic(&v).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.03, "jaccard {j}");
    }

    #[test]
    fn new_estimator_matches_truth() {
        let (u, v) = pair(4096, 4, 4000, 4000, 4000);
        let q = u.estimate_joint(&v).unwrap();
        assert!(
            (q.jaccard - 1.0 / 3.0).abs() < 0.03,
            "jaccard {}",
            q.jaccard
        );
        assert!((q.intersection - 4000.0).abs() < 400.0);
    }

    #[test]
    fn cardinality_estimator_is_accurate() {
        let mut s = MinHash::new(1024, 5);
        let n = 20_000u64;
        s.extend(0..n);
        let est = s.estimate_cardinality();
        // RSD = 1/sqrt(m) ~ 3.1 %; allow 5 sigma.
        assert!(((est - n as f64) / n as f64).abs() < 0.16, "estimate {est}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = MinHash::new(64, 1);
        assert!(s.values().iter().all(|&v| v == u64::MAX));
        assert_eq!(s.estimate_cardinality(), 0.0);
    }

    #[test]
    fn identical_sets_have_jaccard_one() {
        let (u, v) = pair(256, 6, 0, 0, 5000);
        assert_eq!(u.jaccard_classic(&v).unwrap(), 1.0);
        let q = u.estimate_joint(&v).unwrap();
        assert!(q.jaccard > 0.99);
    }

    #[test]
    fn disjoint_sets_have_jaccard_near_zero() {
        let (u, v) = pair(1024, 7, 5000, 5000, 0);
        assert!(u.jaccard_classic(&v).unwrap() < 0.01);
        let q = u.estimate_joint(&v).unwrap();
        assert!(q.jaccard < 0.02);
    }

    #[test]
    fn joint_counts_flip_dominance() {
        // U = {small hashes win}: if U has many extra elements its values
        // are smaller, so d_plus (U dominance) must exceed d_minus.
        let (u, v) = pair(1024, 8, 9000, 500, 500);
        let counts = u.joint_counts(&v).unwrap();
        assert!(counts.d_plus > counts.d_minus);
    }

    #[test]
    fn inclusion_exclusion_is_sane() {
        let (u, v) = pair(4096, 9, 3000, 3000, 4000);
        let q = u.estimate_joint_inclusion_exclusion(&v).unwrap();
        assert!((q.jaccard - 0.4).abs() < 0.1, "jaccard {}", q.jaccard);
    }
}
