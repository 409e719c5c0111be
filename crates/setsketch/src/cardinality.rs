//! Cardinality estimation from a SetSketch (paper §3.1, eq. (12), (18)).
//!
//! Three estimators are provided:
//!
//! * [`SetSketch::estimate_cardinality_simple`] — the closed form (12),
//!   valid while no register is clipped at 0 or q+1;
//! * [`SetSketch::estimate_cardinality`] — the corrected estimator (18)
//!   with the σ_b/τ_b range corrections (Appendix B); this is the robust
//!   default and requires no empirical calibration;
//! * [`SetSketch::estimate_cardinality_ml`] — maximum likelihood under the
//!   register value distribution (4), used by the paper (Figure 12) to
//!   verify that (12)/(18) lose essentially no efficiency.

use crate::sequence::ValueSequence;
use crate::sketch::SetSketch;
use sketch_math::{brent, sigma_b, tau_b};

impl<S: ValueSequence> SetSketch<S> {
    /// Closed-form estimator (12): `n̂ = m (1−1/b) / (a ln b Σ_i b^{-K_i})`.
    ///
    /// Fast and accurate while register values are strictly inside
    /// `(0, q+1)`; use [`estimate_cardinality`](Self::estimate_cardinality)
    /// when small or huge sets may clip the register range.
    ///
    /// Reads the maintained register histogram where one is kept
    /// (O(q) instead of O(m)); sparse scales scan the registers.
    pub fn estimate_cardinality_simple(&self) -> f64 {
        let table = self.power_table();
        let sum: f64 = match self.register_histogram() {
            Some(histogram) => histogram
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(k, &count)| count as f64 * table.pow_neg(k as u32))
                .sum(),
            None => self.registers().iter().map(|k| table.pow_neg(k)).sum(),
        };
        let cfg = self.config();
        cfg.m() as f64 * (1.0 - 1.0 / cfg.b()) / (cfg.a() * cfg.b().ln() * sum)
    }

    /// Corrected estimator (18) handling registers clipped at 0 and q+1
    /// (paper Appendix B). Returns 0 for an unused sketch.
    pub fn estimate_cardinality(&self) -> f64 {
        let cfg = self.config();
        let m = cfg.m() as f64;
        let b = cfg.b();
        let (c0, mid_sum, c_limit) = self.histogram_sum();
        let low_term = m * sigma_b(b, c0 as f64 / m);
        if low_term.is_infinite() {
            // All registers zero: the sketch is empty.
            return 0.0;
        }
        let high_term =
            m * self.power_table().pow_neg(cfg.q()) * tau_b(b, 1.0 - c_limit as f64 / m);
        let denom = low_term + mid_sum + high_term;
        m * (1.0 - 1.0 / b) / (cfg.a() * b.ln() * denom)
    }

    /// Maximum-likelihood cardinality estimate under distribution (4) with
    /// range clipping (19)/(20) of Appendix B, solved by Brent's method
    /// over log-cardinality.
    ///
    /// The likelihood is evaluated over the *occupied value buckets*:
    /// registers sharing a value contribute one transcendental
    /// evaluation weighted by their count, so each Brent iteration costs
    /// O(min(m, q)) instead of O(m) exp/ln calls. The buckets come from
    /// the maintained histogram where one is kept, or from run-length
    /// encoding the sorted registers on sparse scales.
    pub fn estimate_cardinality_ml(&self) -> f64 {
        let start = self.estimate_cardinality();
        if start <= 0.0 {
            return 0.0;
        }
        let cfg = self.config();
        let a = cfg.a();
        let b = cfg.b();
        let q_limit = cfg.q() + 1;
        let table = self.power_table().clone();
        let occupied: Vec<(u32, f64)> = match self.register_histogram() {
            Some(histogram) => histogram
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .map(|(k, &count)| (k as u32, count as f64))
                .collect(),
            None => {
                let mut registers = self.registers().to_vec();
                registers.sort_unstable();
                let mut runs: Vec<(u32, f64)> = Vec::new();
                for &k in &registers {
                    match runs.last_mut() {
                        Some((value, count)) if *value == k => *count += 1.0,
                        _ => runs.push((k, 1.0)),
                    }
                }
                runs
            }
        };
        let log_likelihood = |ln_n: f64| {
            let n = ln_n.exp();
            let mut ll = 0.0f64;
            for &(k, count) in &occupied {
                if k == 0 {
                    // P(K <= 0) = e^{-n a}
                    ll += count * (-n * a);
                } else if k == q_limit {
                    // P(K >= q+1) = 1 - e^{-n a b^{-q}}
                    let rate = n * a * table.pow_neg(q_limit - 1);
                    ll += count * (-(-rate).exp_m1()).ln();
                } else {
                    // P(K = k) = e^{-A}(1 - e^{-A(b-1)}), A = n a b^{-k}
                    let rate = n * a * table.pow_neg(k);
                    ll += count * (-rate + (-(-rate * (b - 1.0)).exp_m1()).ln());
                }
            }
            ll
        };
        // The likelihood is unimodal in ln n; bracket generously around the
        // corrected estimate.
        let center = start.ln();
        let result = brent::maximize(log_likelihood, center - 3.0, center + 3.0, 1e-10);
        result.x.exp()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SetSketchConfig;
    use crate::sketch::{SetSketch1, SetSketch2};

    #[test]
    fn empty_sketch_estimates_zero() {
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let sketch = SetSketch1::new(cfg, 1);
        assert_eq!(sketch.estimate_cardinality(), 0.0);
        assert_eq!(sketch.estimate_cardinality_ml(), 0.0);
    }

    #[test]
    fn single_element_is_estimated_accurately() {
        // With m = 256 the RSD is ~6.5 %; average over seeds to verify the
        // estimator is centered at 1.
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let mut sum = 0.0;
        let runs = 50;
        for seed in 0..runs {
            let mut sketch = SetSketch2::new(cfg, seed);
            sketch.insert_u64(42);
            sum += sketch.estimate_cardinality();
        }
        let mean = sum / runs as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean estimate {mean}");
    }

    #[test]
    fn mid_range_cardinality_within_expected_error() {
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let n = 100_000u64;
        for seed in 0..3 {
            let mut sketch = SetSketch1::new(cfg, seed);
            sketch.extend(0..n);
            let est = sketch.estimate_cardinality();
            let rel = (est - n as f64) / n as f64;
            // 5 sigma of the theoretical 1.04/sqrt(256) = 6.5 % RSD.
            assert!(rel.abs() < 0.33, "seed {seed}: relative error {rel}");
        }
    }

    #[test]
    fn simple_and_corrected_agree_in_mid_range() {
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        let mut sketch = SetSketch1::new(cfg, 7);
        sketch.extend(0..50_000);
        let simple = sketch.estimate_cardinality_simple();
        let corrected = sketch.estimate_cardinality();
        assert!(
            ((simple - corrected) / corrected).abs() < 1e-6,
            "{simple} vs {corrected}"
        );
    }

    #[test]
    fn ml_agrees_with_corrected_estimator() {
        // Figure 12 vs Figure 5: the two estimators are nearly equivalent.
        let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
        for &n in &[100u64, 10_000] {
            let mut sketch = SetSketch1::new(cfg, 3);
            sketch.extend(0..n);
            let corrected = sketch.estimate_cardinality();
            let ml = sketch.estimate_cardinality_ml();
            assert!(
                ((corrected - ml) / corrected).abs() < 0.05,
                "n={n}: corrected {corrected} vs ml {ml}"
            );
        }
    }

    #[test]
    fn small_base_configuration_estimates_well() {
        let cfg = SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).unwrap();
        let n = 10_000u64;
        let mut sketch = SetSketch1::new(cfg, 11);
        sketch.extend(0..n);
        let est = sketch.estimate_cardinality();
        let rel = (est - n as f64) / n as f64;
        assert!(rel.abs() < 0.33, "relative error {rel}");
    }

    #[test]
    fn fully_saturated_sketch_estimates_infinity() {
        // When every register is clipped at q+1 the sketch carries no
        // information beyond "cardinality exceeds the configured range":
        // τ_b(0) = 0 makes the denominator vanish and (18) diverges.
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 3).unwrap();
        let mut sketch = SetSketch1::new(cfg, 1);
        sketch.extend(0..100_000);
        assert!(sketch.registers().iter().all(|k| k == 4));
        assert!(sketch.estimate_cardinality().is_infinite());
    }

    #[test]
    fn partially_saturated_registers_use_high_range_correction() {
        use sketch_math::Registers;
        // Hand-craft a mix of interior and clipped registers: the
        // corrected estimator must exceed the naive (12), which treats
        // clipped registers as ordinary values.
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 3).unwrap();
        let mut registers = vec![4u32; 32];
        registers.extend(vec![3u32; 32]);
        let registers = Registers::narrowed(&registers, cfg.q() + 1).unwrap();
        let sketch = SetSketch1::from_registers(cfg, 1, registers);
        let corrected = sketch.estimate_cardinality();
        let simple = sketch.estimate_cardinality_simple();
        assert!(corrected.is_finite() && corrected > 0.0);
        assert!(corrected > simple, "{corrected} vs {simple}");
    }

    #[test]
    fn estimates_scale_with_cardinality() {
        let cfg = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
        let mut sketch = SetSketch2::new(cfg, 13);
        let mut previous = 0.0;
        for &n in &[100u64, 1000, 10_000, 100_000] {
            let mut s = sketch.clone();
            s.extend(0..n);
            let est = s.estimate_cardinality();
            assert!(est > previous, "estimate must grow with n");
            previous = est;
        }
        sketch.extend(0..10);
        let _ = sketch;
    }
}
