//! The HyperMinHash data structure.
//!
//! Registers store a combined value `v = (p − 1)·2^r + idx + 1` where
//! `p = ⌊1 − log₂ u⌋` is the HLL exponent of the uniform hash value u and
//! `idx` counts 2^r equal-width cells of the dyadic interval
//! `(2^{-p}, 2^{1-p}]` **from the top**, so that smaller u (the minwise
//! winner) always maps to a larger v and the max-merge of the combined
//! value is exactly HyperMinHash's min-merge of u. `v = 0` marks an
//! untouched register.
//!
//! The sketch exposes three joint estimators: the SetSketch paper's
//! order-based ML estimator with effective base `b = 2^(2^{-r})` (§4.3),
//! the original HyperMinHash collision estimator (equal registers with an
//! expected-random-collision correction), and inclusion–exclusion.

use sketch_math::{
    inclusion_exclusion_jaccard, ml_jaccard, sigma_b, tau_b, JointCounts, JointQuantities,
};
use sketch_rand::{hash_u64, mix64};

/// Errors raised by invalid HyperMinHash configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HyperMinHashConfigError {
    /// m must be at least 1.
    ZeroRegisters,
    /// r must be at most 16 (register must fit u32 together with the
    /// exponent part).
    MantissaTooWide,
}

impl std::fmt::Display for HyperMinHashConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HyperMinHashConfigError::ZeroRegisters => write!(f, "m must be at least 1"),
            HyperMinHashConfigError::MantissaTooWide => write!(f, "r must be at most 16"),
        }
    }
}

impl std::error::Error for HyperMinHashConfigError {}

/// Maximum HLL exponent stored in a register (6-bit HLL part, as in the
/// original HyperMinHash layout).
const P_MAX: u32 = 63;

/// Validated HyperMinHash parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperMinHashConfig {
    m: usize,
    r: u32,
}

impl HyperMinHashConfig {
    /// Validates and creates a configuration with `m` registers and `r`
    /// mantissa bits per register.
    pub fn new(m: usize, r: u32) -> Result<Self, HyperMinHashConfigError> {
        if m == 0 {
            return Err(HyperMinHashConfigError::ZeroRegisters);
        }
        if r > 16 {
            return Err(HyperMinHashConfigError::MantissaTooWide);
        }
        Ok(Self { m, r })
    }

    /// Number of registers.
    #[inline]
    fn m(&self) -> usize {
        self.m
    }

    /// The equivalent GHLL base `b = 2^(2^{-r})` (paper §1.4).
    pub fn equivalent_base(&self) -> f64 {
        2.0f64.powf(2.0f64.powi(-(self.r as i32)))
    }

    /// Largest storable combined register value.
    fn max_register(&self) -> u32 {
        P_MAX * (1 << self.r)
    }
}

/// Error raised when two sketches with different configuration or seed
/// are combined.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompatibleHyperMinHash;

impl std::fmt::Display for IncompatibleHyperMinHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HyperMinHash sketches differ in configuration or seed")
    }
}

impl std::error::Error for IncompatibleHyperMinHash {}

/// A HyperMinHash sketch with stochastic averaging.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperMinHash {
    config: HyperMinHashConfig,
    seed: u64,
    registers: Vec<u32>,
}

impl HyperMinHash {
    /// Creates an empty sketch.
    pub fn new(config: HyperMinHashConfig, seed: u64) -> Self {
        Self {
            registers: vec![0; config.m()],
            config,
            seed,
        }
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

    /// Computes the combined register update value for a uniform `u` in
    /// (0, 1]: exponent `p` and top-down cell index within the interval.
    fn combined_value(&self, u: f64) -> u32 {
        let r = self.config.r;
        // p = floor(1 - log2 u) >= 1 for u in (0, 1].
        let p = ((1.0 - u.log2()).floor() as i64).clamp(1, P_MAX as i64) as u32;
        let cell_count = 1u64 << r;
        // Interval (2^{-p}, 2^{1-p}]; index cells from the top so that
        // smaller u gives a larger index.
        let top = (2.0f64).powi(1 - p as i32);
        let width = (2.0f64).powi(-(p as i32) - r as i32);
        let idx = (((top - u) / width) as u64).min(cell_count - 1) as u32;
        (p - 1) * (1 << r) + idx + 1
    }

    /// Inserts an already hashed element.
    fn insert_hash(&mut self, hash: u64) {
        let index = (((hash as u128) * (self.config.m() as u128)) >> 64) as usize;
        let u = ((mix64(hash) >> 11) + 1) as f64 * 1.110_223_024_625_156_5e-16;
        let v = self.combined_value(u);
        if v > self.registers[index] {
            self.registers[index] = v;
        }
    }

    /// Checks configuration and seed compatibility.
    fn is_compatible(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed
    }

    /// Returns the union sketch: the element-wise maximum of the
    /// combined values through the vectorized merge kernel, equivalent to
    /// HyperMinHash's minwise merge.
    pub fn merged(&self, other: &Self) -> Result<Self, IncompatibleHyperMinHash> {
        if !self.is_compatible(other) {
            return Err(IncompatibleHyperMinHash);
        }
        let mut out = self.clone();
        sketch_math::kernels::max_merge(&mut out.registers, &other.registers);
        Ok(out)
    }

    /// The HLL exponent part of a combined register value.
    #[inline]
    fn exponent_part(&self, v: u32) -> u32 {
        if v == 0 {
            0
        } else {
            (v - 1) / (1 << self.config.r) + 1
        }
    }

    /// Cardinality estimate from the HLL part of the registers, using the
    /// corrected base-2 estimator (SetSketch paper eq. (18) with a = 1/m).
    pub fn estimate_cardinality(&self) -> f64 {
        let m = self.config.m() as f64;
        let b = 2.0f64;
        let q_limit = P_MAX; // exponent part saturates at P_MAX
        let mut c0 = 0usize;
        let mut c_limit = 0usize;
        let mut sum = 0.0f64;
        for &v in &self.registers {
            let p = self.exponent_part(v);
            if p == 0 {
                c0 += 1;
            } else if p >= q_limit {
                c_limit += 1;
            } else {
                sum += (2.0f64).powi(-(p as i32));
            }
        }
        let low_term = m * sigma_b(b, c0 as f64 / m);
        if low_term.is_infinite() {
            return 0.0;
        }
        let high_term =
            m * (2.0f64).powi(-(q_limit as i32 - 1)) * tau_b(b, 1.0 - c_limit as f64 / m);
        let denom = low_term + sum + high_term;
        m * m * (1.0 - 1.0 / b) / (b.ln() * denom)
    }

    /// Register comparison counts against a compatible sketch (one pass
    /// of the vectorized three-way comparison kernel; HyperMinHash's
    /// packed exponent-plus-fingerprint registers compare with the same
    /// order as the underlying hash values).
    fn joint_counts(&self, other: &Self) -> Result<JointCounts, IncompatibleHyperMinHash> {
        if !self.is_compatible(other) {
            return Err(IncompatibleHyperMinHash);
        }
        Ok(JointCounts::from_u32(&self.registers, &other.registers))
    }

    /// The SetSketch paper's order-based joint estimator (§4.3) with the
    /// effective base `b = 2^(2^{-r})` and estimated cardinalities.
    pub fn estimate_joint(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        self.estimate_joint_with_cardinalities(other, n_u, n_v)
    }

    /// Order-based joint estimation with known cardinalities.
    pub fn estimate_joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        let counts = self.joint_counts(other)?;
        if n_u <= 0.0 || n_v <= 0.0 {
            return Ok(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let total = n_u + n_v;
        let b = self.config.equivalent_base();
        let jaccard = ml_jaccard(counts, b, n_u / total, n_v / total);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }

    /// The original HyperMinHash estimator: collision fraction with a
    /// correction for the expected number of *random* collisions between
    /// independent sets of the estimated cardinalities.
    pub fn estimate_joint_original(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        self.estimate_joint_original_with_cardinalities(other, n_u, n_v)
    }

    /// Original estimator with known cardinalities.
    pub fn estimate_joint_original_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        let counts = self.joint_counts(other)?;
        if n_u <= 0.0 || n_v <= 0.0 {
            return Ok(JointQuantities::new(n_u.max(0.0), n_v.max(0.0), 0.0));
        }
        let m = self.config.m() as f64;
        let collision_fraction = counts.d0 as f64 / m;
        let expected = self.expected_random_collision_fraction(n_u, n_v);
        let raw = if expected < 1.0 {
            (collision_fraction - expected) / (1.0 - expected)
        } else {
            0.0
        };
        let feasible = (n_u / n_v).min(n_v / n_u);
        Ok(JointQuantities::new(n_u, n_v, raw.clamp(0.0, feasible)))
    }

    /// Inclusion–exclusion joint estimation (always applicable).
    pub fn estimate_joint_inclusion_exclusion(
        &self,
        other: &Self,
    ) -> Result<JointQuantities, IncompatibleHyperMinHash> {
        let n_u = self.estimate_cardinality();
        let n_v = other.estimate_cardinality();
        let n_union = self.merged(other)?.estimate_cardinality();
        let jaccard = inclusion_exclusion_jaccard(n_u, n_v, n_union);
        Ok(JointQuantities::new(n_u, n_v, jaccard))
    }

    /// Expected fraction of registers that collide by chance between two
    /// *independent* sets of the given cardinalities (Poisson model over
    /// the dyadic pmf; evaluated numerically).
    fn expected_random_collision_fraction(&self, n_u: f64, n_v: f64) -> f64 {
        let m = self.config.m() as f64;
        let r = self.config.r;
        let lambda_u = n_u / m;
        let lambda_v = n_v / m;
        // P(register <= v) = exp(-lambda (1 - CDF(v))) with the dyadic
        // update-value CDF; collide when both registers take the same v.
        let cdf = |v: u32| -> f64 {
            // CDF of the combined value: v = (p-1)2^r + idx + 1.
            if v == 0 {
                return 0.0;
            }
            let p = (v - 1) / (1 << r) + 1;
            let idx = (v - 1) % (1 << r);
            // Full intervals below p plus idx+1 cells of interval p.
            let below: f64 = 1.0 - (2.0f64).powi(-(p as i32 - 1));
            below + (idx as f64 + 1.0) * (2.0f64).powi(-(p as i32)) / (1u64 << r) as f64
        };
        let state_cdf_u = |v: u32| (-lambda_u * (1.0 - cdf(v))).exp();
        let state_cdf_v = |v: u32| (-lambda_v * (1.0 - cdf(v))).exp();
        let v_max = self.config.max_register();
        let mut expected = state_cdf_u(0) * state_cdf_v(0); // both empty
        let mut prev_u = state_cdf_u(0);
        let mut prev_v = state_cdf_v(0);
        for v in 1..=v_max {
            let cu = state_cdf_u(v);
            let cv = state_cdf_v(v);
            expected += (cu - prev_u) * (cv - prev_v);
            prev_u = cu;
            prev_v = cv;
            if cu > 1.0 - 1e-15 && cv > 1.0 - 1e-15 {
                break;
            }
        }
        expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(
        m: usize,
        r: u32,
        seed: u64,
        n1: u64,
        n2: u64,
        n3: u64,
    ) -> (HyperMinHash, HyperMinHash) {
        let cfg = HyperMinHashConfig::new(m, r).unwrap();
        let mut u = HyperMinHash::new(cfg, seed);
        let mut v = HyperMinHash::new(cfg, seed);
        u.extend(0..n1);
        v.extend(10_000_000..10_000_000 + n2);
        for e in 20_000_000..20_000_000 + n3 {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        (u, v)
    }

    #[test]
    fn equivalent_base_matches_paper() {
        // §1.4: r = 1 -> b = sqrt(2); r = 3 -> b = 2^(1/8); r = 10 -> ~1.000677.
        let c1 = HyperMinHashConfig::new(16, 1).unwrap();
        assert!((c1.equivalent_base() - 2.0f64.sqrt()).abs() < 1e-12);
        let c3 = HyperMinHashConfig::new(16, 3).unwrap();
        assert!((c3.equivalent_base() - 2.0f64.powf(0.125)).abs() < 1e-12);
        let c10 = HyperMinHashConfig::new(16, 10).unwrap();
        assert!((c10.equivalent_base() - 1.000_677).abs() < 1e-6);
    }

    #[test]
    fn insert_is_idempotent_and_commutative() {
        let cfg = HyperMinHashConfig::new(256, 4).unwrap();
        let mut a = HyperMinHash::new(cfg, 1);
        let mut b = HyperMinHash::new(cfg, 1);
        for e in 0..2000u64 {
            a.insert_u64(e);
        }
        for e in (0..2000u64).rev() {
            b.insert_u64(e);
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_union() {
        let cfg = HyperMinHashConfig::new(128, 6).unwrap();
        let mut a = HyperMinHash::new(cfg, 2);
        let mut b = HyperMinHash::new(cfg, 2);
        let mut ab = HyperMinHash::new(cfg, 2);
        a.extend(0..3000);
        b.extend(2000..5000);
        ab.extend(0..5000);
        assert_eq!(a.merged(&b).unwrap(), ab);
    }

    #[test]
    fn combined_value_is_monotone_in_u() {
        let cfg = HyperMinHashConfig::new(16, 8).unwrap();
        let s = HyperMinHash::new(cfg, 1);
        let mut prev = 0u32;
        let mut u = 1.0f64;
        for _ in 0..2000 {
            let v = s.combined_value(u);
            assert!(v >= prev, "combined value must grow as u shrinks");
            prev = v;
            u *= 0.99;
        }
        assert!(prev > 1);
    }

    #[test]
    fn combined_value_boundaries() {
        let cfg = HyperMinHashConfig::new(16, 2).unwrap();
        let s = HyperMinHash::new(cfg, 1);
        // u = 1 -> p = 1, top cell index 0 -> v = 1.
        assert_eq!(s.combined_value(1.0), 1);
        // u slightly above 0.5 -> p = 1, idx = 3 -> v = 4.
        assert_eq!(s.combined_value(0.5 + 1e-12), 4);
        // u = 0.5 -> p = 2 interval top -> v = 5.
        assert_eq!(s.combined_value(0.5), 5);
    }

    #[test]
    fn cardinality_estimation_is_accurate() {
        let cfg = HyperMinHashConfig::new(1024, 10).unwrap();
        let n = 100_000u64;
        let mut s = HyperMinHash::new(cfg, 3);
        s.extend(0..n);
        let est = s.estimate_cardinality();
        assert!(((est - n as f64) / n as f64).abs() < 0.17, "estimate {est}");
    }

    #[test]
    fn joint_estimation_large_sets() {
        let (u, v) = pair(1024, 10, 4, 300_000, 300_000, 400_000);
        let q = u.estimate_joint(&v).unwrap();
        assert!((q.jaccard - 0.4).abs() < 0.07, "jaccard {}", q.jaccard);
    }

    #[test]
    fn original_estimator_large_sets() {
        let (u, v) = pair(1024, 10, 5, 300_000, 300_000, 400_000);
        let q = u.estimate_joint_original(&v).unwrap();
        assert!((q.jaccard - 0.4).abs() < 0.07, "jaccard {}", q.jaccard);
    }

    #[test]
    fn expected_collision_fraction_bounds() {
        let cfg = HyperMinHashConfig::new(256, 4).unwrap();
        let s = HyperMinHash::new(cfg, 1);
        let ec = s.expected_random_collision_fraction(1e6, 1e6);
        assert!(ec > 0.0 && ec < 0.2, "expected collisions {ec}");
        // More mantissa bits -> fewer random collisions.
        let cfg_fine = HyperMinHashConfig::new(256, 12).unwrap();
        let s_fine = HyperMinHash::new(cfg_fine, 1);
        let ec_fine = s_fine.expected_random_collision_fraction(1e6, 1e6);
        assert!(ec_fine < ec);
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let (u, v) = pair(1024, 10, 6, 200_000, 200_000, 0);
        let q = u.estimate_joint(&v).unwrap();
        assert!(q.jaccard < 0.03, "jaccard {}", q.jaccard);
        let q0 = u.estimate_joint_original(&v).unwrap();
        assert!(q0.jaccard < 0.03, "original jaccard {}", q0.jaccard);
    }

    #[test]
    fn config_validation() {
        assert!(HyperMinHashConfig::new(0, 4).is_err());
        assert!(HyperMinHashConfig::new(16, 17).is_err());
        assert!(HyperMinHashConfig::new(16, 10).is_ok());
    }
}
