//! SetSketch parameter configuration (paper §2.3).
//!
//! A SetSketch has four parameters: the number of registers `m` (accuracy),
//! the base `b > 1` (trade-off between space efficiency and joint-estimation
//! accuracy), the rate `a > 0` (lower end of the usable cardinality range)
//! and the register limit `q` (upper end: registers hold values
//! `0 ..= q+1`). Lemmas 4 and 5 of the paper bound the probability that the
//! clipping at 0 or q+1 is ever observed; [`SetSketchConfig::recommended`]
//! picks `a` and `q` from those bounds.

/// Errors raised by invalid sketch configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The number of registers must be at least 1.
    ZeroRegisters,
    /// The base must satisfy `b > 1`.
    InvalidBase,
    /// The rate parameter must satisfy `a > 0`.
    InvalidRate,
    /// `q + 1` must fit the register representation.
    InvalidLimit,
    /// Register counts beyond u32::MAX - 1 are not supported.
    TooManyRegisters,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRegisters => write!(f, "m must be at least 1"),
            ConfigError::InvalidBase => write!(f, "base b must be finite and > 1"),
            ConfigError::InvalidRate => write!(f, "rate a must be finite and > 0"),
            ConfigError::InvalidLimit => write!(f, "q + 1 must fit into u32"),
            ConfigError::TooManyRegisters => write!(f, "m exceeds the supported maximum"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated SetSketch parameters (paper §2.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetSketchConfig {
    m: usize,
    b: f64,
    a: f64,
    q: u32,
}

impl SetSketchConfig {
    /// Validates and creates a configuration.
    pub fn new(m: usize, b: f64, a: f64, q: u32) -> Result<Self, ConfigError> {
        if m == 0 {
            return Err(ConfigError::ZeroRegisters);
        }
        if m > (u32::MAX - 1) as usize {
            return Err(ConfigError::TooManyRegisters);
        }
        if !(b.is_finite() && b > 1.0) {
            return Err(ConfigError::InvalidBase);
        }
        if !(a.is_finite() && a > 0.0) {
            return Err(ConfigError::InvalidRate);
        }
        if q == u32::MAX {
            return Err(ConfigError::InvalidLimit);
        }
        Ok(Self { m, b, a, q })
    }

    /// Derives `a` and `q` from the desired cardinality range following
    /// Lemmas 4 and 5: clipping probabilities stay below `epsilon` for all
    /// cardinalities in `[1, n_max]`.
    ///
    /// The paper recommends `a = 20` as a default ("a good choice in most
    /// cases"); this constructor uses `max(20, log(m/ε)/b)` so that the
    /// Lemma 4 guarantee holds even for extreme `m` and `ε`.
    pub fn recommended(m: usize, b: f64, n_max: f64, epsilon: f64) -> Result<Self, ConfigError> {
        if !(b.is_finite() && b > 1.0) {
            return Err(ConfigError::InvalidBase);
        }
        if m == 0 {
            return Err(ConfigError::ZeroRegisters);
        }
        let a = ((m as f64 / epsilon).ln() / b).max(20.0);
        // Lemma 5: q >= floor(log_b(m * n_max * a / epsilon)).
        let q = (m as f64 * n_max * a / epsilon).ln() / b.ln();
        let q = q.floor().max(0.0);
        if q >= u32::MAX as f64 {
            return Err(ConfigError::InvalidLimit);
        }
        Self::new(m, b, a, q as u32)
    }

    /// The paper's §2.3 example configuration: m = 4096, b = 1.001, a = 20,
    /// q = 2¹⁶ − 2, suitable for cardinalities up to 10¹⁸ with two-byte
    /// registers (8 kB sketch) and ~1.56 % cardinality error.
    pub fn example_16bit() -> Self {
        Self::new(4096, 1.001, 20.0, (1 << 16) - 2).expect("example config is valid")
    }

    /// Number of registers.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The base b of the register scale.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The rate parameter a.
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Register limit parameter: registers hold values `0 ..= q+1`.
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Bits needed per register without special encoding:
    /// `ceil(log2(q + 2))` (paper §2.3).
    pub fn register_bits(&self) -> u32 {
        let states = self.q as u64 + 2;
        64 - (states - 1).leading_zeros()
    }

    /// Memory footprint of the packed representation in bytes.
    pub fn packed_bytes(&self) -> usize {
        (self.m * self.register_bits() as usize).div_ceil(8)
    }

    /// Lemma 4 bound: `P(min K_i < 0) <= m e^{-a b}` for any non-empty set.
    pub fn negative_value_bound(&self) -> f64 {
        (self.m as f64) * (-self.a * self.b).exp()
    }

    /// Exact probability that a single-element SetSketch1 would need a
    /// register value below 0: `1 − (1 − e^{-a b})^m` (proof of Lemma 4).
    pub fn negative_value_probability(&self) -> f64 {
        // 1 - (1-p)^m = -expm1(m * ln_1p(-p)) with p = e^{-ab}.
        let p = (-self.a * self.b).exp();
        -((self.m as f64) * (-p).ln_1p()).exp_m1()
    }

    /// Lemma 5 bound: `P(max K_i > q+1) <= n_max · m · a · b^{-q-1}`.
    pub fn overflow_bound(&self, n_max: f64) -> f64 {
        n_max * self.m as f64 * self.a * (-(self.q as f64 + 1.0) * self.b.ln()).exp()
    }

    /// Exact probability that a SetSketch1 of cardinality `n` has any
    /// register update value above `q + 1`: `1 − e^{-n m a b^{-q-1}}`.
    pub fn overflow_probability(&self, n: f64) -> f64 {
        let rate = n * self.m as f64 * self.a * (-(self.q as f64 + 1.0) * self.b.ln()).exp();
        -(-rate).exp_m1()
    }

    /// Theoretical relative standard deviation of the cardinality
    /// estimator (12): `sqrt(((b+1)/(b-1)·ln b − 1) / m)` (paper §3.1).
    pub fn cardinality_rsd(&self) -> f64 {
        (((self.b + 1.0) / (self.b - 1.0) * self.b.ln() - 1.0) / self.m as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_probabilities() {
        // §2.3: "The probability that there is at least one register with
        // negative value is 8.28e-6 for a set with just a single element.
        // Furthermore, the probability that any register value is greater
        // than q+1 is 2.93e-6 for n = 1e18."
        let cfg = SetSketchConfig::example_16bit();
        let p_neg = cfg.negative_value_probability();
        assert!(
            (p_neg - 8.28e-6).abs() < 0.02e-6,
            "negative-value probability {p_neg}"
        );
        let p_over = cfg.overflow_probability(1e18);
        assert!(
            (p_over - 2.93e-6).abs() < 0.03e-6,
            "overflow probability {p_over}"
        );
    }

    #[test]
    fn paper_example_memory_and_error() {
        let cfg = SetSketchConfig::example_16bit();
        // Two bytes per register, 8 kB total.
        assert_eq!(cfg.register_bits(), 16);
        assert_eq!(cfg.packed_bytes(), 8192);
        // Expected cardinality error ~ 1/sqrt(m) = 1.56 %.
        assert!((cfg.cardinality_rsd() - 0.015_6).abs() < 2e-4);
    }

    #[test]
    fn rsd_for_base_two() {
        // §3.1: RSD = sqrt(3 ln 2 - 1)/sqrt(m) ≈ 1.04/sqrt(m) for b = 2.
        let cfg = SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap();
        let expected = (3.0 * 2.0f64.ln() - 1.0).sqrt() / 64.0;
        assert!((cfg.cardinality_rsd() - expected).abs() < 1e-12);
        assert!((cfg.cardinality_rsd() * 64.0 - 1.04).abs() < 0.01);
    }

    #[test]
    fn register_bits_for_hll_like_config() {
        // b = 2, q = 62: values 0..=63 fit 6 bits (like HLL).
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        assert_eq!(cfg.register_bits(), 6);
        assert_eq!(cfg.packed_bytes(), 192);
    }

    #[test]
    fn recommended_respects_lemmas() {
        let cfg = SetSketchConfig::recommended(4096, 1.001, 1e18, 1e-5).unwrap();
        assert!(cfg.negative_value_bound() <= 1e-5 * 1.01);
        assert!(cfg.overflow_bound(1e18) <= 1e-5 * (cfg.b()));
        // Defaults keep a at the paper's recommendation.
        assert_eq!(cfg.a(), 20.0);
    }

    #[test]
    fn recommended_uses_larger_a_when_needed() {
        // Extreme m with tiny epsilon forces a > 20 per Lemma 4.
        let cfg = SetSketchConfig::recommended(1 << 20, 1.001, 1e6, 1e-12).unwrap();
        assert!(cfg.a() > 20.0);
        assert!(cfg.negative_value_bound() <= 1e-12 * 1.01);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert_eq!(
            SetSketchConfig::new(0, 2.0, 20.0, 62),
            Err(ConfigError::ZeroRegisters)
        );
        assert_eq!(
            SetSketchConfig::new(16, 1.0, 20.0, 62),
            Err(ConfigError::InvalidBase)
        );
        assert_eq!(
            SetSketchConfig::new(16, f64::NAN, 20.0, 62),
            Err(ConfigError::InvalidBase)
        );
        assert_eq!(
            SetSketchConfig::new(16, 2.0, 0.0, 62),
            Err(ConfigError::InvalidRate)
        );
        assert_eq!(
            SetSketchConfig::new(16, 2.0, 20.0, u32::MAX),
            Err(ConfigError::InvalidLimit)
        );
    }

    #[test]
    fn errors_display() {
        let e = SetSketchConfig::new(0, 2.0, 20.0, 62).unwrap_err();
        assert!(e.to_string().contains("m must be"));
    }
}
