//! One-permutation hashing with optimal densification
//! (Li, Owen & Zhang, NIPS 2012; Shrivastava, ICML 2017; paper §1.2).
//!
//! OPH reduces MinHash's O(m) insert to O(1) by hashing each element once
//! and routing it into one of m bins. The price, as the SetSketch paper
//! recounts, is "a high probability of uninitialized components for small
//! sets leading to large estimation errors", remedied by a *densification*
//! finalization step that copies values from non-empty bins — after which
//! the signature "cannot be further aggregated or merged". Both the raw
//! mergeable sketch and the densified signature are implemented here so
//! the trade-off SetSketch eliminates can be measured directly.

use sketch_rand::{hash_u64, mix64};

/// Error raised when incompatible sketches are combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncompatibleOph;

impl std::fmt::Display for IncompatibleOph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OPH sketches differ in size or hash seed")
    }
}

impl std::error::Error for IncompatibleOph {}

/// One-permutation hashing sketch: m bins, each holding the minimum value
/// hash routed into it; `u64::MAX` marks an empty bin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnePermutationHashing {
    seed: u64,
    values: Vec<u64>,
}

impl OnePermutationHashing {
    /// Creates an empty sketch with `m` bins.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn new(m: usize, seed: u64) -> Self {
        assert!(m > 0, "OPH needs at least one bin");
        Self {
            seed,
            values: vec![u64::MAX; m],
        }
    }

    /// Number of bins m.
    #[inline]
    pub fn m(&self) -> usize {
        self.values.len()
    }

    /// The hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw bin values (`u64::MAX` = empty).
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of empty bins.
    pub fn empty_bins(&self) -> usize {
        self.values.iter().filter(|&&v| v == u64::MAX).count()
    }

    /// Inserts a 64-bit element: exactly one hash evaluation, O(1).
    #[inline]
    pub fn insert_u64(&mut self, element: u64) {
        let h = hash_u64(element, self.seed);
        let bin = (((h as u128) * (self.values.len() as u128)) >> 64) as usize;
        // Independent within-bin value; u64::MAX - 1 cap keeps MAX as the
        // empty marker.
        let value = mix64(h).min(u64::MAX - 1);
        if value < self.values[bin] {
            self.values[bin] = value;
        }
    }

    /// Inserts all elements of an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, elements: I) {
        for e in elements {
            self.insert_u64(e);
        }
    }

    /// Checks mergeability.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.seed == other.seed && self.values.len() == other.values.len()
    }

    /// Merges `other` into `self` (bin-wise minimum) and returns whether
    /// any bin fell. Only the *raw* sketch merges; densified signatures
    /// do not.
    pub fn merge(&mut self, other: &Self) -> Result<bool, IncompatibleOph> {
        if !self.is_compatible(other) {
            return Err(IncompatibleOph);
        }
        let mut changed = false;
        for (a, &b) in self.values.iter_mut().zip(&other.values) {
            if b < *a {
                *a = b;
                changed = true;
            }
        }
        Ok(changed)
    }

    /// Returns the union sketch.
    pub fn merged(&self, other: &Self) -> Result<Self, IncompatibleOph> {
        let mut out = self.clone();
        out.merge(other)?;
        Ok(out)
    }

    /// Raw OPH Jaccard estimator: matches over bins that are non-empty in
    /// at least one sketch, `Ĵ = N_match / (m − N_both_empty)`.
    /// Unbiased only when empty bins coincide — the small-set weakness.
    pub fn jaccard_raw(&self, other: &Self) -> Result<f64, IncompatibleOph> {
        if !self.is_compatible(other) {
            return Err(IncompatibleOph);
        }
        let mut matches = 0usize;
        let mut both_empty = 0usize;
        for (&a, &b) in self.values.iter().zip(&other.values) {
            if a == u64::MAX && b == u64::MAX {
                both_empty += 1;
            } else if a == b {
                matches += 1;
            }
        }
        let usable = self.values.len() - both_empty;
        if usable == 0 {
            return Ok(0.0);
        }
        Ok(matches as f64 / usable as f64)
    }

    /// Finalizes into a densified signature (optimal densification: each
    /// empty bin copies the value of a uniformly re-hashed non-empty bin).
    /// The result supports Jaccard estimation but no further updates.
    pub fn densify(&self) -> DensifiedOph {
        let m = self.values.len();
        let mut signature = self.values.clone();
        if self.empty_bins() == m {
            // Fully empty sketch: leave the markers in place.
            return DensifiedOph {
                seed: self.seed,
                signature,
            };
        }
        for (bin, slot) in signature.iter_mut().enumerate() {
            if *slot != u64::MAX {
                continue;
            }
            // Probe chain seeded by (bin, attempt); terminates because at
            // least one bin is occupied.
            let mut attempt = 0u64;
            loop {
                let key = ((bin as u64) << 32) | attempt;
                let probe = (hash_u64(key, self.seed ^ 0xD15C) as u128 * m as u128) >> 64;
                let source = probe as usize;
                if self.values[source] != u64::MAX {
                    *slot = self.values[source];
                    break;
                }
                attempt += 1;
            }
        }
        DensifiedOph {
            seed: self.seed,
            signature,
        }
    }
}

/// A densified OPH signature: complete, comparable, no longer updatable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensifiedOph {
    seed: u64,
    signature: Vec<u64>,
}

impl DensifiedOph {
    /// Number of components.
    pub fn m(&self) -> usize {
        self.signature.len()
    }

    /// Jaccard estimate: fraction of equal components.
    ///
    /// # Panics
    /// Panics if the signatures differ in seed or length.
    pub fn jaccard(&self, other: &Self) -> f64 {
        assert_eq!(self.seed, other.seed, "signature seed mismatch");
        assert_eq!(
            self.signature.len(),
            other.signature.len(),
            "signature length mismatch"
        );
        let equal = self
            .signature
            .iter()
            .zip(&other.signature)
            .filter(|(a, b)| a == b && **a != u64::MAX)
            .count();
        equal as f64 / self.signature.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(
        m: usize,
        seed: u64,
        n1: u64,
        n2: u64,
        n3: u64,
    ) -> (OnePermutationHashing, OnePermutationHashing) {
        let mut u = OnePermutationHashing::new(m, seed);
        let mut v = OnePermutationHashing::new(m, seed);
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
        let mut a = OnePermutationHashing::new(64, 1);
        let mut b = OnePermutationHashing::new(64, 1);
        for e in 0..500u64 {
            a.insert_u64(e);
        }
        for e in (0..500u64).rev() {
            b.insert_u64(e);
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn raw_merge_equals_union() {
        let mut a = OnePermutationHashing::new(64, 2);
        let mut b = OnePermutationHashing::new(64, 2);
        let mut ab = OnePermutationHashing::new(64, 2);
        a.extend(0..400);
        b.extend(200..600);
        ab.extend(0..600);
        assert_eq!(a.merged(&b).unwrap(), ab);
    }

    #[test]
    fn large_sets_leave_no_empty_bins() {
        let (u, _) = pair(256, 3, 50_000, 0, 0);
        assert_eq!(u.empty_bins(), 0);
    }

    #[test]
    fn small_sets_leave_many_empty_bins() {
        // n = 100 over m = 1024 bins: at least ~90 % empty.
        let (u, _) = pair(1024, 4, 100, 0, 0);
        assert!(u.empty_bins() > 850, "{} empty", u.empty_bins());
    }

    #[test]
    fn raw_estimator_works_for_large_sets() {
        let (u, v) = pair(1024, 5, 20_000, 20_000, 20_000);
        let j = u.jaccard_raw(&v).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.06, "jaccard {j}");
    }

    #[test]
    fn densified_estimator_works_for_small_sets() {
        // The headline purpose of densification: small sets.
        let (u, v) = pair(1024, 6, 200, 200, 200);
        let j = u.densify().jaccard(&v.densify());
        assert!((j - 1.0 / 3.0).abs() < 0.12, "jaccard {j}");
    }

    #[test]
    fn densification_fills_every_bin() {
        let (u, _) = pair(512, 7, 50, 0, 0);
        let d = u.densify();
        assert!(d.signature.iter().all(|&v| v != u64::MAX));
    }

    #[test]
    fn densification_is_deterministic() {
        let (u, _) = pair(256, 8, 30, 0, 0);
        assert_eq!(u.densify(), u.densify());
    }

    #[test]
    fn empty_sketch_densifies_to_empty_markers() {
        let empty = OnePermutationHashing::new(32, 9);
        let d = empty.densify();
        assert!(d.signature.iter().all(|&v| v == u64::MAX));
        // Two empty signatures do not count markers as matches.
        assert_eq!(d.jaccard(&empty.densify()), 0.0);
    }

    #[test]
    fn identical_sets_give_jaccard_one() {
        let (u, v) = pair(256, 10, 0, 0, 10_000);
        assert_eq!(u.jaccard_raw(&v).unwrap(), 1.0);
        assert_eq!(u.densify().jaccard(&v.densify()), 1.0);
    }

    #[test]
    fn incompatible_sketches_rejected() {
        let a = OnePermutationHashing::new(64, 1);
        let b = OnePermutationHashing::new(64, 2);
        let c = OnePermutationHashing::new(32, 1);
        assert!(a.merged(&b).is_err());
        assert!(a.jaccard_raw(&c).is_err());
    }
}
