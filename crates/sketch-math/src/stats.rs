//! Streaming moment statistics for the experiment harness.
//!
//! Figure 5 (and 12) of the paper report the relative bias, the relative
//! RMSE and the *kurtosis* of cardinality estimates over thousands of
//! simulation cycles. [`RunningMoments`] accumulates the first four central
//! moments in one pass (Pébay's update formulas), and [`ErrorStats`] wraps
//! it with error measures relative to a known ground truth.

/// Single-pass accumulator for mean and 2nd–4th central moments.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningMoments {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl RunningMoments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Non-excess kurtosis μ₄/σ⁴ (3 for a normal distribution); `NaN` when
    /// the variance is zero.
    pub fn kurtosis(&self) -> f64 {
        if self.n == 0 || self.m2 == 0.0 {
            f64::NAN
        } else {
            self.n as f64 * self.m4 / (self.m2 * self.m2)
        }
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;
        let mean = self.mean + delta * n2 / n;
        let m2 = self.m2 + other.m2 + delta2 * n1 * n2 / n;
        let m3 = self.m3
            + other.m3
            + delta3 * n1 * n2 * (n1 - n2) / (n * n)
            + 3.0 * delta * (n1 * other.m2 - n2 * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + delta4 * n1 * n2 * (n1 * n1 - n1 * n2 + n2 * n2) / (n * n * n)
            + 6.0 * delta2 * (n1 * n1 * other.m2 + n2 * n2 * self.m2) / (n * n)
            + 4.0 * delta * (n1 * other.m3 - n2 * self.m3) / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
    }
}

/// Error statistics of estimates against a known ground truth.
#[derive(Debug, Clone, Copy)]
pub struct ErrorStats {
    truth: f64,
    moments: RunningMoments,
    sum_sq_err: f64,
}

impl ErrorStats {
    /// Creates an accumulator for estimates of the given true value.
    ///
    /// # Panics
    /// Panics if `truth` is not finite.
    pub fn new(truth: f64) -> Self {
        assert!(truth.is_finite(), "ground truth must be finite");
        Self {
            truth,
            moments: RunningMoments::new(),
            sum_sq_err: 0.0,
        }
    }

    /// Adds one estimate.
    pub fn push(&mut self, estimate: f64) {
        self.moments.push(estimate);
        let err = estimate - self.truth;
        self.sum_sq_err += err * err;
    }

    /// Number of estimates recorded.
    pub fn count(&self) -> u64 {
        self.moments.count()
    }

    /// The ground-truth value the errors refer to.
    pub fn truth(&self) -> f64 {
        self.truth
    }

    /// Mean of the estimates.
    pub fn mean(&self) -> f64 {
        self.moments.mean()
    }

    /// Relative bias `(mean − truth) / truth`.
    pub fn relative_bias(&self) -> f64 {
        (self.moments.mean() - self.truth) / self.truth
    }

    /// Root-mean-square error about the *truth* (not the mean).
    pub fn rmse(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            (self.sum_sq_err / self.count() as f64).sqrt()
        }
    }

    /// RMSE divided by the true value.
    pub fn relative_rmse(&self) -> f64 {
        self.rmse() / self.truth.abs()
    }

    /// Kurtosis of the estimate distribution (paper Figure 5 bottom rows).
    pub fn kurtosis(&self) -> f64 {
        self.moments.kurtosis()
    }

    /// Merges another accumulator for the same truth.
    ///
    /// # Panics
    /// Panics if the truths differ.
    pub fn merge(&mut self, other: &ErrorStats) {
        assert_eq!(
            self.truth.to_bits(),
            other.truth.to_bits(),
            "cannot merge error stats of different ground truths"
        );
        self.moments.merge(&other.moments);
        self.sum_sq_err += other.sum_sq_err;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_of_constant_sequence() {
        let mut m = RunningMoments::new();
        for _ in 0..10 {
            m.push(4.0);
        }
        assert_eq!(m.mean(), 4.0);
        assert_eq!(m.variance(), 0.0);
        assert!(m.kurtosis().is_nan());
    }

    #[test]
    fn moments_match_two_point_distribution() {
        // Half -1, half +1: mean 0, variance 1, kurtosis 1.
        let mut m = RunningMoments::new();
        for i in 0..1000 {
            m.push(if i % 2 == 0 { -1.0 } else { 1.0 });
        }
        assert!(m.mean().abs() < 1e-12);
        assert!((m.variance() - 1.0).abs() < 1e-12);
        assert!((m.kurtosis() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kurtosis_of_uniform_grid() {
        // Continuous uniform kurtosis is 1.8; a fine grid approximates it.
        let mut m = RunningMoments::new();
        let n = 100_001;
        for i in 0..n {
            m.push(i as f64 / (n - 1) as f64);
        }
        assert!((m.kurtosis() - 1.8).abs() < 0.001, "{}", m.kurtosis());
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64 / 7.0).collect();
        let mut all = RunningMoments::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = RunningMoments::new();
        let mut right = RunningMoments::new();
        for &x in &data[..200] {
            left.push(x);
        }
        for &x in &data[200..] {
            right.push(x);
        }
        left.merge(&right);
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance() - all.variance()).abs() < 1e-8);
        assert!((left.kurtosis() - all.kurtosis()).abs() < 1e-8);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut m = RunningMoments::new();
        m.push(1.0);
        m.push(2.0);
        let before = (m.mean(), m.variance());
        m.merge(&RunningMoments::new());
        assert_eq!((m.mean(), m.variance()), before);

        let mut empty = RunningMoments::new();
        empty.merge(&m);
        assert_eq!(empty.mean(), m.mean());
    }

    #[test]
    fn error_stats_bias_and_rmse() {
        let mut e = ErrorStats::new(100.0);
        for &x in &[90.0, 110.0, 95.0, 105.0] {
            e.push(x);
        }
        assert!(e.relative_bias().abs() < 1e-12);
        // RMSE = sqrt((100 + 100 + 25 + 25)/4) = sqrt(62.5)
        assert!((e.rmse() - 62.5f64.sqrt()).abs() < 1e-12);
        assert!((e.relative_rmse() - 62.5f64.sqrt() / 100.0).abs() < 1e-12);
    }

    #[test]
    fn error_stats_detect_bias() {
        let mut e = ErrorStats::new(10.0);
        for _ in 0..100 {
            e.push(11.0);
        }
        assert!((e.relative_bias() - 0.1).abs() < 1e-12);
        assert!((e.relative_rmse() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn error_stats_merge() {
        let mut a = ErrorStats::new(50.0);
        let mut b = ErrorStats::new(50.0);
        a.push(40.0);
        b.push(60.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.relative_bias().abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different ground truths")]
    fn error_stats_merge_rejects_mismatched_truth() {
        let mut a = ErrorStats::new(1.0);
        let b = ErrorStats::new(2.0);
        a.merge(&b);
    }
}
