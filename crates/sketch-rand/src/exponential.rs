//! Exponentially distributed random values.
//!
//! SetSketch needs exponential variates in two places (paper §2.1):
//! the exponential *spacings* of SetSketch1, eq. (7), and the *truncated*
//! exponential distribution of SetSketch2, eq. (8). The reference
//! implementation uses the ziggurat method for the former (§5.1) and the
//! ProbMinHash-style inverse-CDF sampler for the latter. Both are
//! implemented here: [`ExpZiggurat`] is a 256-layer ziggurat for the
//! standard exponential distribution whose tables are computed once at
//! startup, and [`truncated_exp`] samples `Exp(rate)` conditioned on an
//! interval `[lo, hi)` in a numerically careful way (`ln_1p`/`exp_m1`).

use crate::Rng64;
use std::sync::OnceLock;

/// Number of ziggurat layers.
const LAYERS: usize = 256;

/// Standard exponential variate from a uniform `u` in `(0, 1]`.
#[inline]
pub fn exp_inverse_cdf(u: f64) -> f64 {
    debug_assert!(u > 0.0 && u <= 1.0);
    -u.ln()
}

/// Samples `Exp(rate)` conditioned on the interval `[lo, hi)`.
///
/// `hi` may be `f64::INFINITY`, in which case this is a shifted exponential.
/// The implementation evaluates the inverse CDF of the truncated
/// distribution as `lo - ln(1 + u * expm1(-rate * (hi - lo))) / rate`, which
/// is accurate for both very short and very long intervals.
#[inline]
pub fn truncated_exp<R: Rng64>(rng: &mut R, rate: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(rate > 0.0);
    debug_assert!(lo >= 0.0 && hi > lo);
    let u = rng.unit_exclusive();
    let span = (hi - lo) * rate;
    // 1 - u*(1 - e^{-span}) = 1 + u*expm1(-span); expm1(-inf) == -1.
    let x = lo - (u * (-span).exp_m1()).ln_1p() / rate;
    // Guard against the open upper bound under rounding.
    if x >= hi {
        // Only reachable through floating point rounding at the boundary.
        lo + (hi - lo) * 0.5
    } else {
        x
    }
}

/// Precomputed ziggurat tables for the standard exponential density.
struct Tables {
    /// Rightmost finite layer edge (start of the tail).
    r: f64,
    /// Horizontal layer edges; `x[0]` is the virtual bottom-layer width,
    /// `x[1] == r`, `x[LAYERS] == 0`.
    x: [f64; LAYERS + 1],
    /// `f[i] = exp(-x[i])`.
    f: [f64; LAYERS + 1],
}

/// Computes the common layer area for a candidate tail edge `r`.
#[inline]
fn layer_area(r: f64) -> f64 {
    (-r).exp() * (r + 1.0)
}

/// Runs the layer recursion for a candidate `r`.
///
/// Returns `Err(k)` if the recursion leaves the valid density range at layer
/// `k` (meaning `r` is too large), otherwise the value `f(x[LAYERS])` that
/// should equal exactly 1 for the correct `r`.
fn closing_value(r: f64) -> Result<f64, usize> {
    let area = layer_area(r);
    let mut x = r;
    let mut fx = (-r).exp();
    // The geometry has LAYERS - 1 rectangles above the base strip, so the
    // density value is incremented LAYERS - 1 times in total: LAYERS - 2
    // inside the loop and once by the returned closing value.
    for k in 1..LAYERS - 1 {
        fx += area / x;
        if fx >= 1.0 {
            return Err(k);
        }
        x = -fx.ln();
    }
    Ok(fx + area / x)
}

fn build_tables() -> Tables {
    // Bisect the tail edge r so the topmost layer closes at the mode.
    let mut lo = 5.0f64;
    let mut hi = 10.0f64;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // Larger r means smaller common layer area, so the recursion closes
        // below 1; overshooting (Err or > 1) means r is still too small.
        let too_small = match closing_value(mid) {
            Err(_) => true,
            Ok(v) => v > 1.0,
        };
        if too_small {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let r = 0.5 * (lo + hi);
    let area = layer_area(r);

    let mut x = [0.0f64; LAYERS + 1];
    let mut f = [0.0f64; LAYERS + 1];
    x[1] = r;
    f[1] = (-r).exp();
    x[0] = area / f[1];
    f[0] = (-x[0]).exp();
    for k in 1..LAYERS {
        f[k + 1] = (f[k] + area / x[k]).min(1.0);
        x[k + 1] = -f[k + 1].ln();
    }
    // Force exact closure at the mode.
    x[LAYERS] = 0.0;
    f[LAYERS] = 1.0;
    Tables { r, x, f }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// 256-layer ziggurat sampler for the standard exponential distribution
/// (Marsaglia & Tsang, J. Statistical Software 2000).
///
/// The common case consumes a single 64-bit word: 8 bits select the layer
/// and 53 bits place the point horizontally; roughly 98.5 % of draws accept
/// immediately.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpZiggurat;

impl ExpZiggurat {
    /// Creates the sampler (tables are shared and built once per process).
    #[inline]
    pub fn new() -> Self {
        Self
    }

    /// Draws one standard exponential variate.
    #[inline]
    pub fn sample<R: Rng64>(&self, rng: &mut R) -> f64 {
        let t = tables();
        loop {
            let bits = rng.next_u64();
            let i = (bits & (LAYERS as u64 - 1)) as usize;
            let u = (bits >> 11) as f64 * 1.110_223_024_625_156_5e-16;
            let x = u * t.x[i];
            if x < t.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Tail: memoryless property gives r + Exp(1).
                return t.r + exp_inverse_cdf(rng.unit_positive());
            }
            // Wedge between the rectangle and the density.
            let y = t.f[i] + rng.unit_exclusive() * (t.f[i + 1] - t.f[i]);
            if y < (-x).exp() {
                return x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WyRand;

    #[test]
    fn tail_edge_matches_literature() {
        // Marsaglia & Tsang report r = 7.69711747013104972 for 256 layers.
        let r = tables().r;
        assert!((r - 7.697_117_470_131_05).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn layer_tables_are_monotonic() {
        let t = super::tables();
        for k in 0..LAYERS {
            assert!(t.x[k] > t.x[k + 1], "x not strictly decreasing at {k}");
            assert!(t.f[k] < t.f[k + 1], "f not strictly increasing at {k}");
        }
        assert_eq!(t.x[LAYERS], 0.0);
        assert_eq!(t.f[LAYERS], 1.0);
    }

    #[test]
    fn ziggurat_matches_moments() {
        let z = ExpZiggurat::new();
        let mut rng = WyRand::new(17);
        let n = 400_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = z.sample(&mut rng);
            assert!(x >= 0.0);
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn ziggurat_matches_inverse_cdf_quantiles() {
        // Empirical CDF of ziggurat samples evaluated at analytic quantiles.
        let z = ExpZiggurat::new();
        let mut rng = WyRand::new(23);
        let n = 200_000usize;
        let mut samples: Vec<f64> = (0..n).map(|_| z.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &p in &[0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let q = -(1.0f64 - p).ln();
            let idx = samples.partition_point(|&x| x < q);
            let empirical = idx as f64 / n as f64;
            assert!((empirical - p).abs() < 0.01, "p={p} empirical={empirical}");
        }
    }

    #[test]
    fn truncated_exp_stays_in_interval() {
        let mut rng = WyRand::new(31);
        for _ in 0..10_000 {
            let x = truncated_exp(&mut rng, 3.0, 0.25, 0.75);
            assert!((0.25..0.75).contains(&x));
        }
    }

    #[test]
    fn truncated_exp_with_infinite_upper_bound_is_shifted_exponential() {
        let mut rng = WyRand::new(37);
        let n = 200_000;
        let rate = 2.0;
        let lo = 1.5;
        let mean: f64 = (0..n)
            .map(|_| truncated_exp(&mut rng, rate, lo, f64::INFINITY))
            .sum::<f64>()
            / n as f64;
        // Memorylessness: E[X | X >= lo] = lo + 1/rate.
        assert!((mean - (lo + 1.0 / rate)).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn truncated_exp_matches_conditional_mean() {
        let mut rng = WyRand::new(41);
        let (rate, lo, hi) = (1.0, 0.0, 1.0);
        let n = 400_000;
        let mean: f64 = (0..n)
            .map(|_| truncated_exp(&mut rng, rate, lo, hi))
            .sum::<f64>()
            / n as f64;
        // E[X | X < 1] for Exp(1): (1 - 2/e) / (1 - 1/e).
        let e = std::f64::consts::E;
        let expected = (1.0 - 2.0 / e) / (1.0 - 1.0 / e);
        assert!((mean - expected).abs() < 0.002, "mean {mean} vs {expected}");
    }

    #[test]
    fn truncated_exp_handles_tiny_intervals() {
        let mut rng = WyRand::new(43);
        let lo = 5.0;
        let hi = 5.0 + 1e-12;
        for _ in 0..1000 {
            let x = truncated_exp(&mut rng, 20.0, lo, hi);
            assert!((lo..hi).contains(&x));
        }
    }
}
