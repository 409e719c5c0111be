//! Analytic register-update-value distribution (paper Figure 1).
//!
//! For GHLL the update value `k = ⌊1 − log_b u⌋` of a uniform u in (0, 1]
//! has the geometric-like pmf `P(k) = (b − 1) b^{-k}` for k ≥ 1. Figure 1
//! of the paper compares this against HyperMinHash's dyadic approximation
//! (see the `hyperminhash` crate).

/// pmf of the GHLL register update value: `(b − 1) · b^{-k}` for `k >= 1`,
/// zero otherwise.
///
/// # Panics
/// Panics if `b <= 1`.
pub fn update_value_pmf(b: f64, k: i64) -> f64 {
    assert!(b > 1.0, "update_value_pmf requires b > 1");
    if k < 1 {
        return 0.0;
    }
    (b - 1.0) * (-(k as f64) * b.ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for &b in &[2.0, 2.0f64.sqrt(), 2.0f64.powf(0.125)] {
            let total: f64 = (1..10_000).map(|k| update_value_pmf(b, k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "b={b}: total {total}");
        }
    }

    #[test]
    fn pmf_is_zero_below_one() {
        assert_eq!(update_value_pmf(2.0, 0), 0.0);
        assert_eq!(update_value_pmf(2.0, -5), 0.0);
    }

    #[test]
    fn base2_pmf_is_dyadic() {
        // Classic HLL: P(k) = 2^{-k}.
        for k in 1..20 {
            let p = update_value_pmf(2.0, k);
            assert!((p - (0.5f64).powi(k as i32)).abs() < 1e-15);
        }
    }

    #[test]
    fn pmf_decays_geometrically() {
        let b = 2.0f64.sqrt();
        for k in 1..30 {
            let ratio = update_value_pmf(b, k + 1) / update_value_pmf(b, k);
            assert!((ratio - 1.0 / b).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_register_values_match_model() {
        // Record exactly m elements into a GHLL (per-register counts are
        // Binomial(m, 1/m) ~ Poisson(1)) and check the two sharpest
        // predictions of the register distribution:
        //   P(K = 0) = (1 - 1/m)^m ~ e^{-1}
        //   P(K = 1) = (1 - 1/(2m))^m - (1 - 1/m)^m ~ e^{-1/2} - e^{-1}
        // This doubles as a uniformity test of the stochastic-averaging
        // index derivation.
        use crate::ghll::{GhllConfig, GhllSketch};
        let m = 4096usize;
        let cfg = GhllConfig::hyperloglog(m).unwrap();
        let (mut zeros, mut ones) = (0usize, 0usize);
        let seeds = 8u64;
        for seed in 0..seeds {
            let mut s = GhllSketch::new(cfg, seed);
            s.extend(0..m as u64);
            zeros += s.registers().iter().filter(|&k| k == 0).count();
            ones += s.registers().iter().filter(|&k| k == 1).count();
        }
        let total = (m as f64) * seeds as f64;
        let p0 = zeros as f64 / total;
        let p1 = ones as f64 / total;
        let p0_expected = (1.0 - 1.0 / m as f64).powi(m as i32);
        let p1_expected = (1.0 - 0.5 / m as f64).powi(m as i32) - p0_expected;
        assert!(
            (p0 - p0_expected).abs() < 0.01,
            "P(0) {p0} vs {p0_expected}"
        );
        assert!(
            (p1 - p1_expected).abs() < 0.01,
            "P(1) {p1} vs {p1_expected}"
        );
    }
}
