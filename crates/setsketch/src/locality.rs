//! Locality sensitivity of SetSketch registers (paper §3.3).
//!
//! The probability that a register is equal in two SetSketches is bounded
//! by monotonic functions of the Jaccard similarity:
//!
//! log_b(1 + J(b−1)) ≲ P(K_Ui = K_Vi) ≲ log_b(1 + J(b−1) + (1−J)²(b−1)²/4b)
//!
//! which makes SetSketch usable for locality-sensitive hashing. Inverting
//! the bounds at the observed fraction of equal registers D₀/m yields the
//! estimators Ĵ_low and Ĵ_up of eq. (15). The exact RMSE of Ĵ_up in the
//! worst case (equal cardinalities maximize the collision probability) is
//! computed by [`jaccard_upper_rmse`], reproducing Figure 4.

use sketch_math::{p_b, BinomialPmf};

/// Exact collision probability approximation of §3.3 for relative
/// cardinalities `u + v = 1`:
/// `P(K_Ui = K_Vi) ≈ log_b(1 + J(b−1) + (b−1)²/b · (u−vJ)(v−uJ))`.
pub fn collision_probability(b: f64, j: f64, u: f64, v: f64) -> f64 {
    debug_assert!((u + v - 1.0).abs() < 1e-9);
    let x = 1.0 + j * (b - 1.0) + (b - 1.0) * (b - 1.0) / b * (u - v * j) * (v - u * j);
    x.ln() / b.ln()
}

/// Lower and upper bounds of the collision probability over all cardinality
/// ratios (paper §3.3, Figure 3).
pub fn collision_probability_bounds(b: f64, j: f64) -> (f64, f64) {
    let lower = (1.0 + j * (b - 1.0)).ln() / b.ln();
    let upper = (1.0 + j * (b - 1.0) + (1.0 - j) * (1.0 - j) * (b - 1.0) * (b - 1.0) / (4.0 * b))
        .ln()
        / b.ln();
    (lower, upper)
}

/// Lower-bound estimator Ĵ_low of eq. (15) from the number of equal
/// registers `d0` out of `m`.
pub fn jaccard_lower_estimate(b: f64, d0: usize, m: usize) -> f64 {
    let p = d0 as f64 / m as f64;
    let value = 2.0 * (b.powf((p + 1.0) / 2.0) - 1.0) / (b - 1.0) - 1.0;
    value.max(0.0)
}

/// Upper-bound estimator Ĵ_up of eq. (15).
pub fn jaccard_upper_estimate(b: f64, d0: usize, m: usize) -> f64 {
    let p = d0 as f64 / m as f64;
    (b.powf(p) - 1.0) / (b - 1.0)
}

/// Exact RMSE of Ĵ_up for the worst case n_U = n_V (paper Figure 4).
///
/// D₀ is binomial with the §3.3 collision probability at u = v = 1/2; the
/// RMSE is evaluated by exact summation over the binomial distribution.
pub fn jaccard_upper_rmse(b: f64, m: usize, j: f64) -> f64 {
    // P(K_U = K_V) = 1 - 2 p_b((1-J)/2) for equal cardinalities (eq. 14).
    let p0 = 1.0 - 2.0 * p_b(b, (1.0 - j) / 2.0);
    let pmf = BinomialPmf::new(m);
    let mse = pmf.expectation(m, p0, |d0| {
        let est = jaccard_upper_estimate(b, d0, m);
        (est - j) * (est - j)
    });
    mse.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SetSketchConfig;
    use crate::sketch::SetSketch1;

    #[test]
    fn bounds_bracket_exact_probability() {
        for &b in &[1.001, 1.2, 2.0] {
            for &j in &[0.0, 0.3, 0.7, 1.0] {
                let (lo, hi) = collision_probability_bounds(b, j);
                assert!(lo <= hi + 1e-12);
                for &(u, v) in &[(0.5, 0.5), (0.2, 0.8), (0.05, 0.95)] {
                    if j > (u / v * 1.0f64).min(v / u) {
                        continue;
                    }
                    let p = collision_probability(b, j, u, v);
                    assert!(
                        p >= lo - 1e-9 && p <= hi + 1e-9,
                        "b={b} j={j} u={u}: p={p} not in [{lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn bounds_converge_to_jaccard_as_b_to_one() {
        // Figure 3 right panel: both bounds approach J for b = 1.001.
        for &j in &[0.1, 0.5, 0.9] {
            let (lo, hi) = collision_probability_bounds(1.001, j);
            assert!((lo - j).abs() < 1e-3, "lo {lo} vs {j}");
            assert!((hi - j).abs() < 1e-3, "hi {hi} vs {j}");
        }
    }

    #[test]
    fn bounds_endpoints_are_exact() {
        for &b in &[1.2, 2.0] {
            let (lo0, _hi0) = collision_probability_bounds(b, 0.0);
            let (lo1, hi1) = collision_probability_bounds(b, 1.0);
            assert!(lo0.abs() < 1e-12);
            assert!((lo1 - 1.0).abs() < 1e-12);
            assert!((hi1 - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn estimators_invert_their_bounds() {
        let (b, m) = (2.0, 4096);
        for &j in &[0.2, 0.5, 0.9] {
            // Feed the estimator the exact bound value as collision rate.
            let (lo, hi) = collision_probability_bounds(b, j);
            let d0_lo = (lo * m as f64).round() as usize;
            let d0_hi = (hi * m as f64).round() as usize;
            // Ĵ_up inverts the lower bound; Ĵ_low inverts the upper bound.
            assert!((jaccard_upper_estimate(b, d0_lo, m) - j).abs() < 0.01);
            assert!((jaccard_lower_estimate(b, d0_hi, m) - j).abs() < 0.01);
        }
    }

    #[test]
    fn lower_estimate_is_clamped_at_zero() {
        assert_eq!(jaccard_lower_estimate(2.0, 0, 4096), 0.0);
    }

    #[test]
    fn upper_rmse_matches_minhash_for_small_b() {
        // Figure 4: for b = 1.001 the RMSE of Ĵ_up almost matches MinHash.
        let m = 4096;
        for &j in &[0.3, 0.6, 0.9] {
            let rmse = jaccard_upper_rmse(1.001, m, j);
            let minhash = (j * (1.0 - j) / m as f64).sqrt();
            assert!(
                (rmse / minhash - 1.0).abs() < 0.05,
                "j={j}: ratio {}",
                rmse / minhash
            );
        }
    }

    #[test]
    fn upper_rmse_ratio_small_for_high_similarity_b2() {
        // Figure 4: for b = 2, m = 4096 the RMSE is less than 20 % above
        // MinHash for J > 0.9.
        let m = 4096;
        let j = 0.95;
        let rmse = jaccard_upper_rmse(2.0, m, j);
        let minhash = (j * (1.0 - j) / m as f64).sqrt();
        assert!(rmse / minhash < 1.2, "ratio {}", rmse / minhash);
        // ... but grows for low similarities.
        let j_low = 0.1;
        let ratio_low =
            jaccard_upper_rmse(2.0, m, j_low) / (j_low * (1.0 - j_low) / m as f64).sqrt();
        assert!(ratio_low > rmse / minhash);
    }

    #[test]
    fn equal_register_fraction_tracks_similarity() {
        let cfg = SetSketchConfig::new(4096, 1.001, 20.0, (1 << 16) - 2).unwrap();
        let mut u = SetSketch1::new(cfg, 1);
        let mut v = SetSketch1::new(cfg, 1);
        // J = 0.5: U = 0..20k, V = 10k..30k.
        u.extend(0..20_000);
        v.extend(10_000..30_000);
        let counts = u.joint_counts(&v).unwrap();
        let d0 = counts.d0 as usize;
        let j_up = jaccard_upper_estimate(cfg.b(), d0, cfg.m());
        let j_true = 10_000.0 / 30_000.0;
        assert!((j_up - j_true).abs() < 0.04, "estimate {j_up}");
    }
}
