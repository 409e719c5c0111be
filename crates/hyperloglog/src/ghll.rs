//! Generalized HyperLogLog with stochastic averaging (paper §1.3, §4.2).
//!
//! GHLL registers hold `K_i = max ⌊1 − log_b h₂(d)⌋` over the elements
//! routed to register i by stochastic averaging; `b = 2` is classic
//! HyperLogLog. Under the Poisson model the register values are
//! distributed like a SetSketch with `a = 1/m` (Lemma 20), so the
//! SetSketch estimators carry over: the corrected cardinality estimator
//! (18) — for `b = 2` exactly the Redis-adopted estimator of Ertl — and
//! the joint ML estimator of §3.2 (subject to the §4.2 applicability
//! condition).
//!
//! The optional *lower bound tracking* (paper §2.2 applied to HLL, §5.4)
//! skips the register access entirely when an update value cannot exceed
//! the current minimum register value, which speeds up recording of large
//! sets without changing the state.

use sketch_math::{brent, kernels, sigma_b, tau_b, PowerTable, Registers, MAX_DECODED_Q};
use sketch_rand::{hash_of, hash_u64, mix64};
use std::sync::Arc;

/// Errors raised by invalid GHLL configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GhllConfigError {
    /// m must be at least 1.
    ZeroRegisters,
    /// b must be finite and greater than 1.
    InvalidBase,
    /// q + 1 must fit into u32.
    InvalidLimit,
}

impl std::fmt::Display for GhllConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhllConfigError::ZeroRegisters => write!(f, "m must be at least 1"),
            GhllConfigError::InvalidBase => write!(f, "base b must be finite and > 1"),
            GhllConfigError::InvalidLimit => write!(f, "q + 1 must fit into u32"),
        }
    }
}

impl std::error::Error for GhllConfigError {}

/// Validated GHLL parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GhllConfig {
    m: usize,
    b: f64,
    q: u32,
}

impl GhllConfig {
    /// Validates and creates a configuration.
    pub fn new(m: usize, b: f64, q: u32) -> Result<Self, GhllConfigError> {
        if m == 0 {
            return Err(GhllConfigError::ZeroRegisters);
        }
        if !(b.is_finite() && b > 1.0) {
            return Err(GhllConfigError::InvalidBase);
        }
        if q == u32::MAX {
            return Err(GhllConfigError::InvalidLimit);
        }
        Ok(Self { m, b, q })
    }

    /// Classic HyperLogLog: base 2 with 6-bit registers (q = 62), as used
    /// throughout the paper's experiments.
    pub fn hyperloglog(m: usize) -> Result<Self, GhllConfigError> {
        Self::new(m, 2.0, 62)
    }

    /// Number of registers.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The base b.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Register limit parameter (registers hold `0..=q+1`).
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Bits per register without special encoding.
    pub fn register_bits(&self) -> u32 {
        let states = self.q as u64 + 2;
        64 - (states - 1).leading_zeros()
    }
}

/// Error raised when two sketches with incompatible configurations or
/// seeds are combined.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompatibleGhll;

impl std::fmt::Display for IncompatibleGhll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GHLL sketches differ in configuration or hash seed")
    }
}

impl std::error::Error for IncompatibleGhll {}

/// A GHLL sketch with stochastic averaging.
///
/// The register array — held at its natural lane width
/// ([`Registers`]: one byte per register for classic HLL's q = 62) — is
/// the sketch's only heap state.
#[derive(Debug, Clone)]
pub struct GhllSketch {
    config: GhllConfig,
    seed: u64,
    registers: Registers,
    table: Arc<PowerTable>,
    /// Lower-bound tracking switch (paper §5.4 optimization).
    lower_bound_tracking: bool,
    k_low: u32,
    modifications: u32,
}

impl GhllSketch {
    /// Creates an empty sketch (lower-bound tracking disabled).
    pub fn new(config: GhllConfig, seed: u64) -> Self {
        let registers = Registers::zeroed(config.m(), config.q() + 1);
        Self::from_registers(config, seed, false, registers)
    }

    /// A sketch holding `registers` (m values in `0..=q+1`) under a
    /// fresh power table for `config`.
    fn from_registers(
        config: GhllConfig,
        seed: u64,
        lower_bound_tracking: bool,
        registers: Registers,
    ) -> Self {
        let table = Arc::new(PowerTable::new(config.b(), config.q()));
        Self::assemble(config, seed, table, lower_bound_tracking, registers)
    }

    /// Builds the sketch around its register array, the one allocation;
    /// with tracking on, the lower bound is the array's minimum.
    fn assemble(
        config: GhllConfig,
        seed: u64,
        table: Arc<PowerTable>,
        lower_bound_tracking: bool,
        registers: Registers,
    ) -> Self {
        debug_assert_eq!(registers.len(), config.m());
        Self {
            k_low: if lower_bound_tracking {
                registers.min()
            } else {
                0
            },
            registers,
            table,
            config,
            seed,
            lower_bound_tracking,
            modifications: 0,
        }
    }

    /// Creates an empty sketch with lower-bound tracking enabled: large
    /// streams record faster, the resulting state is identical.
    pub fn with_lower_bound_tracking(config: GhllConfig, seed: u64) -> Self {
        let mut sketch = Self::new(config, seed);
        sketch.lower_bound_tracking = true;
        sketch
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &GhllConfig {
        &self.config
    }

    /// The hash seed.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Read-only, width-erased view of the registers: `len`, `get`,
    /// `iter` and `to_vec` yield the values as `u32` whatever lane width
    /// the array is held at.
    #[inline]
    pub fn registers(&self) -> &Registers {
        &self.registers
    }

    /// True if no register was ever updated.
    pub fn is_unused(&self) -> bool {
        self.registers.iter().all(|k| k == 0)
    }

    /// Inserts any hashable element.
    pub fn insert<T: std::hash::Hash + ?Sized>(&mut self, element: &T) {
        self.insert_hash(hash_of(element, self.seed));
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

    /// Inserts an already hashed element: stochastic averaging routes it to
    /// one register, whose update value is `⌊1 − log_b u⌋` for a uniform u.
    pub fn insert_hash(&mut self, hash: u64) {
        // Multiply-shift range reduction for the register index.
        let index = (((hash as u128) * (self.config.m() as u128)) >> 64) as usize;
        // An independent second value in (0, 1] from the bijective mixer.
        let u = ((mix64(hash) >> 11) + 1) as f64 * 1.110_223_024_625_156_5e-16;
        let k = if self.lower_bound_tracking {
            match self.table.update_value_above(u, self.k_low) {
                Some(k) => k,
                None => return,
            }
        } else {
            self.table.update_value(u)
        };
        if self.registers.raise(index, k) && self.lower_bound_tracking {
            self.modifications += 1;
            if self.modifications >= self.config.m() as u32 {
                self.rescan_lower_bound();
            }
        }
    }

    #[cold]
    fn rescan_lower_bound(&mut self) {
        self.k_low = self.registers.min();
        self.modifications = 0;
    }

    /// Current tracked lower bound (0 when tracking is disabled).
    #[inline]
    pub fn k_low(&self) -> u32 {
        self.k_low
    }

    /// Bytes this sketch keeps resident in memory: the inline struct
    /// plus the register array at its lane width (m, 2 m or 4 m bytes).
    /// The `Arc`'d power table is excluded (shared across every sketch
    /// of a configuration).
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>() + self.registers.heap_bytes()
    }

    /// Checks configuration and seed compatibility.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed
    }

    /// Merges `other` into `self` (element-wise maximum through the
    /// fused [`kernels::max_merge_min`] register kernel; the merged
    /// lower bound falls out of the same pass) and returns whether any
    /// register rose.
    pub fn merge(&mut self, other: &Self) -> Result<bool, IncompatibleGhll> {
        if !self.is_compatible(other) {
            return Err(IncompatibleGhll);
        }
        let raised = if self.lower_bound_tracking {
            let (k_low, raised) = self.registers.max_merge_min(&other.registers);
            self.k_low = k_low;
            self.modifications = 0;
            raised
        } else {
            self.registers.max_merge(&other.registers)
        };
        Ok(raised)
    }

    /// Returns the union sketch.
    pub fn merged(&self, other: &Self) -> Result<Self, IncompatibleGhll> {
        let mut out = self.clone();
        out.merge(other)?;
        Ok(out)
    }

    /// Boundary histogram counts and interior estimator sum.
    ///
    /// Small bucket ranges (`q + 2 ≤ 128`, covering classic HLL's
    /// q = 62) are counted into a stack buffer — allocation-free, one
    /// power-table lookup per *occupied bucket* instead of per
    /// register. Larger-but-dense ranges go through the heap-backed
    /// [`kernels::histogram_counts`] pass; sparse configurations
    /// (q ≫ m, e.g. 16-bit registers on a small sketch) keep the direct
    /// per-register scan.
    fn histogram_sum(&self) -> (usize, f64, usize) {
        /// Bucket capacity of the stack-allocated counting path.
        const STACK_BUCKETS: usize = 128;
        let limit = self.config.q() as usize + 1;
        if limit < STACK_BUCKETS {
            let mut counts = [0u32; STACK_BUCKETS];
            let counts = &mut counts[..limit + 1];
            self.registers.histogram_into(counts);
            return kernels::fold_histogram(counts, &self.table);
        }
        if limit <= self.registers.len() {
            let mut counts = vec![0u32; limit + 1];
            self.registers.histogram_into(&mut counts);
            return kernels::fold_histogram(&counts, &self.table);
        }
        let limit = limit as u32;
        let mut c0 = 0usize;
        let mut c_limit = 0usize;
        let mut sum = 0.0f64;
        for k in &self.registers {
            if k == 0 {
                c0 += 1;
            } else if k == limit {
                c_limit += 1;
            } else {
                sum += self.table.pow_neg(k);
            }
        }
        (c0, sum, c_limit)
    }

    /// Corrected cardinality estimator (paper eq. (18) with `a = 1/m`):
    /// `n̂ = m² (1−1/b) / (ln b · (m σ_b(C₀/m) + Σ C_k b^{-k} + m b^{-q} τ_b(1−C_{q+1}/m)))`.
    ///
    /// For b = 2 this is the calibration-free HyperLogLog estimator of
    /// Ertl (arXiv:1702.01284) used in production systems such as Redis.
    pub fn estimate_cardinality(&self) -> f64 {
        let m = self.config.m() as f64;
        let b = self.config.b();
        let (c0, mid_sum, c_limit) = self.histogram_sum();
        let low_term = m * sigma_b(b, c0 as f64 / m);
        if low_term.is_infinite() {
            return 0.0;
        }
        let high_term =
            m * self.table.pow_neg(self.config.q()) * tau_b(b, 1.0 - c_limit as f64 / m);
        let denom = low_term + mid_sum + high_term;
        m * m * (1.0 - 1.0 / b) / (b.ln() * denom)
    }

    /// Uncorrected estimator (12) with `a = 1/m`; biased for small and huge
    /// cardinalities, listed for completeness and ablations.
    pub fn estimate_cardinality_simple(&self) -> f64 {
        let m = self.config.m() as f64;
        let b = self.config.b();
        let sum: f64 = self.registers.iter().map(|k| self.table.pow_neg(k)).sum();
        m * m * (1.0 - 1.0 / b) / (b.ln() * sum)
    }

    /// Maximum-likelihood estimate under the Poisson model (paper Fig. 12),
    /// solved by Brent's method over log-cardinality.
    pub fn estimate_cardinality_ml(&self) -> f64 {
        let start = self.estimate_cardinality();
        if start <= 0.0 {
            return 0.0;
        }
        let m = self.config.m() as f64;
        let b = self.config.b();
        let q_limit = self.config.q() + 1;
        let table = self.table.clone();
        let registers = &self.registers;
        let log_likelihood = |ln_n: f64| {
            let lambda = ln_n.exp() / m; // per-register Poisson rate factor
            let mut ll = 0.0f64;
            for k in registers {
                if k == 0 {
                    ll += -lambda;
                } else if k == q_limit {
                    let rate = lambda * table.pow_neg(q_limit - 1);
                    ll += (-(-rate).exp_m1()).ln();
                } else {
                    let rate = lambda * table.pow_neg(k);
                    ll += -rate + (-(-rate * (b - 1.0)).exp_m1()).ln();
                }
            }
            ll
        };
        let center = start.ln();
        brent::maximize(log_likelihood, center - 3.0, center + 3.0, 1e-10)
            .x
            .exp()
    }
}

/// Errors raised when decoding a binary GHLL state.
#[derive(Debug, Clone, PartialEq)]
pub enum GhllDecodeError {
    /// Bad magic bytes or short header.
    MalformedHeader,
    /// The embedded configuration is invalid.
    Config(GhllConfigError),
    /// The header's q exceeds [`MAX_DECODED_Q`].
    UnsupportedLimit(u32),
    /// The packed register payload is invalid.
    Registers(sketch_math::BitPackError),
}

impl std::fmt::Display for GhllDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhllDecodeError::MalformedHeader => write!(f, "malformed binary header"),
            GhllDecodeError::Config(e) => write!(f, "invalid configuration: {e}"),
            GhllDecodeError::UnsupportedLimit(q) => {
                write!(f, "q = {q} exceeds the decoder limit {MAX_DECODED_Q}")
            }
            GhllDecodeError::Registers(e) => write!(f, "invalid register payload: {e}"),
        }
    }
}

impl std::error::Error for GhllDecodeError {}

/// Magic bytes of the GHLL binary representation ("GHL1").
const GHLL_MAGIC: u32 = 0x4748_4c31;

impl GhllSketch {
    /// Compact binary representation: fixed header plus registers packed
    /// to `config.register_bits()` bits each (e.g. 6 bits for HLL).
    pub fn to_bytes(&self) -> Vec<u8> {
        let cfg = &self.config;
        let packed = self.registers.pack_bits(cfg.register_bits());
        let mut out = Vec::with_capacity(33 + packed.len());
        out.extend_from_slice(&GHLL_MAGIC.to_be_bytes());
        out.extend_from_slice(&(cfg.m() as u64).to_be_bytes());
        out.extend_from_slice(&cfg.b().to_be_bytes());
        out.extend_from_slice(&cfg.q().to_be_bytes());
        out.extend_from_slice(&self.seed.to_be_bytes());
        out.push(self.lower_bound_tracking as u8);
        out.extend_from_slice(&packed);
        out
    }

    /// Restores a sketch from the binary representation.
    ///
    /// A header whose q exceeds [`MAX_DECODED_Q`] is rejected with
    /// [`GhllDecodeError::UnsupportedLimit`] before anything is built:
    /// the sketch's power table grows with q, not with the input length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GhllDecodeError> {
        if bytes.len() < 33 {
            return Err(GhllDecodeError::MalformedHeader);
        }
        let magic = u32::from_be_bytes(bytes[0..4].try_into().expect("length checked"));
        if magic != GHLL_MAGIC {
            return Err(GhllDecodeError::MalformedHeader);
        }
        let m = u64::from_be_bytes(bytes[4..12].try_into().expect("length checked")) as usize;
        let b = f64::from_be_bytes(bytes[12..20].try_into().expect("length checked"));
        let q = u32::from_be_bytes(bytes[20..24].try_into().expect("length checked"));
        let seed = u64::from_be_bytes(bytes[24..32].try_into().expect("length checked"));
        let tracking = bytes[32] != 0;
        if q > MAX_DECODED_Q {
            return Err(GhllDecodeError::UnsupportedLimit(q));
        }
        let config = GhllConfig::new(m, b, q).map_err(GhllDecodeError::Config)?;
        let registers = Registers::unpack_bits(&bytes[33..], m, config.register_bits(), q + 1)
            .map_err(GhllDecodeError::Registers)?;
        Ok(Self::from_registers(config, seed, tracking, registers))
    }
}

impl PartialEq for GhllSketch {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed && self.registers == other.registers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent_and_commutative() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let mut a = GhllSketch::new(cfg, 1);
        let mut b = GhllSketch::new(cfg, 1);
        for e in 0..1000u64 {
            a.insert_u64(e);
        }
        for e in (0..1000u64).rev() {
            b.insert_u64(e);
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_union() {
        let cfg = GhllConfig::hyperloglog(128).unwrap();
        let mut a = GhllSketch::new(cfg, 2);
        let mut b = GhllSketch::new(cfg, 2);
        let mut ab = GhllSketch::new(cfg, 2);
        a.extend(0..3000);
        b.extend(2000..5000);
        ab.extend(0..5000);
        assert_eq!(a.merged(&b).unwrap(), ab);
    }

    #[test]
    fn hll_cardinality_mid_range() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let n = 100_000u64;
        for seed in 0..3 {
            let mut s = GhllSketch::new(cfg, seed);
            s.extend(0..n);
            let est = s.estimate_cardinality();
            // RSD ~ 1.04/sqrt(256) = 6.5 %; allow 5 sigma.
            assert!(
                ((est - n as f64) / n as f64).abs() < 0.33,
                "seed {seed}: estimate {est}"
            );
        }
    }

    #[test]
    fn hll_cardinality_small_range() {
        // The corrected estimator must handle n << m without bias blowup
        // (this is the regime where the original HLL estimator needed
        // linear counting).
        let cfg = GhllConfig::hyperloglog(4096).unwrap();
        let mut total = 0.0;
        let n = 100u64;
        let runs = 20;
        for seed in 0..runs {
            let mut s = GhllSketch::new(cfg, seed);
            s.extend(0..n);
            total += s.estimate_cardinality();
        }
        let mean = total / runs as f64;
        assert!((mean - n as f64).abs() / (n as f64) < 0.05, "mean {mean}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let cfg = GhllConfig::hyperloglog(64).unwrap();
        let s = GhllSketch::new(cfg, 1);
        assert_eq!(s.estimate_cardinality(), 0.0);
        assert_eq!(s.estimate_cardinality_ml(), 0.0);
    }

    #[test]
    fn small_base_ghll_works() {
        let cfg = GhllConfig::new(256, 1.001, (1 << 16) - 2).unwrap();
        let n = 10_000u64;
        let mut s = GhllSketch::new(cfg, 3);
        s.extend(0..n);
        let est = s.estimate_cardinality();
        assert!(((est - n as f64) / n as f64).abs() < 0.33, "estimate {est}");
    }

    #[test]
    fn lower_bound_tracking_preserves_state() {
        // The §5.4 optimization must be an exact no-op on the final state.
        let cfg = GhllConfig::hyperloglog(128).unwrap();
        let mut plain = GhllSketch::new(cfg, 4);
        let mut tracked = GhllSketch::with_lower_bound_tracking(cfg, 4);
        for e in 0..200_000u64 {
            plain.insert_u64(e);
            tracked.insert_u64(e);
        }
        assert_eq!(plain.registers(), tracked.registers());
        assert!(tracked.k_low() > 0, "tracking should have engaged");
    }

    #[test]
    fn ml_estimate_agrees_with_corrected() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        for &n in &[500u64, 50_000] {
            let mut s = GhllSketch::new(cfg, 5);
            s.extend(0..n);
            let corrected = s.estimate_cardinality();
            let ml = s.estimate_cardinality_ml();
            assert!(
                ((corrected - ml) / corrected).abs() < 0.06,
                "n={n}: {corrected} vs {ml}"
            );
        }
    }

    #[test]
    fn stochastic_averaging_touches_many_registers() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let mut s = GhllSketch::new(cfg, 6);
        s.extend(0..10_000);
        let untouched = s.registers().iter().filter(|&k| k == 0).count();
        assert_eq!(untouched, 0, "all registers should be touched at n=10k");
    }

    #[test]
    fn config_validation() {
        assert!(GhllConfig::new(0, 2.0, 62).is_err());
        assert!(GhllConfig::new(16, 1.0, 62).is_err());
        assert!(GhllConfig::new(16, 2.0, u32::MAX).is_err());
        assert_eq!(GhllConfig::hyperloglog(64).unwrap().register_bits(), 6);
    }

    #[test]
    fn binary_roundtrip() {
        let cfg = GhllConfig::hyperloglog(256).unwrap();
        let mut s = GhllSketch::with_lower_bound_tracking(cfg, 8);
        s.extend(0..200_000);
        let bytes = s.to_bytes();
        // 33-byte header + 256 registers * 6 bits = 192 bytes.
        assert_eq!(bytes.len(), 33 + 192);
        let restored = GhllSketch::from_bytes(&bytes).unwrap();
        assert_eq!(s, restored);
        assert!(restored.k_low() > 0, "tracking bound restored");
        // The restored bound is the exact minimum, which may exceed the
        // original's amortized (stale) bound — both are valid lower bounds.
        assert!(restored.k_low() >= s.k_low());
        assert!(restored.k_low() <= restored.registers().iter().min().unwrap());
    }

    #[test]
    fn binary_rejects_corruption() {
        let cfg = GhllConfig::hyperloglog(64).unwrap();
        let mut s = GhllSketch::new(cfg, 9);
        s.extend(0..1000);
        let bytes = s.to_bytes();
        assert!(GhllSketch::from_bytes(&bytes[..10]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(GhllSketch::from_bytes(&bad_magic).is_err());
        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            GhllSketch::from_bytes(truncated),
            Err(super::GhllDecodeError::Registers(_))
        ));
        // q = 60 packs into 6 bits, so a packed 63 exceeds q + 1 = 61.
        let mut out_of_range = GhllSketch::new(GhllConfig::new(4, 2.0, 60).unwrap(), 1).to_bytes();
        out_of_range[33] |= 0x3f;
        assert_eq!(
            GhllSketch::from_bytes(&out_of_range),
            Err(super::GhllDecodeError::Registers(
                sketch_math::BitPackError::ValueOutOfRange
            ))
        );
    }
}
