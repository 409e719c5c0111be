//! Ascending register-value point sequences (paper §2.1).
//!
//! Algorithm 1 replaces the m independent exponential hash values of
//! definition (6) by an *ascending* random sequence 0 < x₁ < x₂ < ... < x_m
//! whose values are assigned to registers by random shuffling. Two
//! constructions yield the correct marginal distribution:
//!
//! * **SetSketch1** (eq. (7)): exponential spacings
//!   `x_j = x_{j-1} + Exp(a)/(m+1-j)`, which makes the final hash values
//!   statistically *independent*;
//! * **SetSketch2** (eq. (8)): one point per interval `[γ_{j-1}, γ_j)` of
//!   the equal-probability partition `γ_j = ln(1 + j/(m-j))/a`, which makes
//!   them *dependent* (negatively correlated) — an advantage for small sets.

use sketch_rand::{truncated_exp, ExpZiggurat, Rng64};
use std::sync::Arc;

/// Strategy producing the j-th smallest of m exponential(a) values.
///
/// [`start`](Self::start) resets per element; [`next`](Self::next) must be
/// called at most `m` times per element and returns a strictly increasing
/// sequence. Strategies are plain data (`Send + Sync + 'static`), so a
/// SetSketch of either variant can be shared by a concurrent store.
pub trait ValueSequence: Clone + Send + Sync + 'static {
    /// Short tag identifying the variant in serialized states.
    const NAME: &'static str;

    /// Creates the strategy for `m` registers and rate `a`.
    fn create(m: usize, a: f64) -> Self;

    /// Resets the sequence for a new element.
    fn start(&mut self);

    /// Returns the next (j-th smallest) value.
    fn next<R: Rng64>(&mut self, rng: &mut R) -> f64;
}

/// SetSketch1 strategy: exponential spacings (paper eq. (7)).
#[derive(Debug, Clone)]
pub struct ExponentialSpacings {
    a: f64,
    m: usize,
    x: f64,
    j: usize,
    ziggurat: ExpZiggurat,
}

impl ValueSequence for ExponentialSpacings {
    const NAME: &'static str = "setsketch1";

    fn create(m: usize, a: f64) -> Self {
        Self {
            a,
            m,
            x: 0.0,
            j: 0,
            ziggurat: ExpZiggurat::new(),
        }
    }

    #[inline]
    fn start(&mut self) {
        self.x = 0.0;
        self.j = 0;
    }

    #[inline]
    fn next<R: Rng64>(&mut self, rng: &mut R) -> f64 {
        debug_assert!(self.j < self.m, "sequence exhausted");
        self.j += 1;
        // x_j = x_{j-1} + Exp(a) / (m + 1 - j)
        let denom = (self.m + 1 - self.j) as f64;
        self.x += self.ziggurat.sample(rng) / (self.a * denom);
        self.x
    }
}

/// SetSketch2 strategy: one truncated-exponential point per interval of the
/// equal-probability partition (paper eq. (8), Lemma 3).
#[derive(Debug, Clone)]
pub struct IntervalSampling {
    a: f64,
    /// Interval boundaries γ_0 = 0 .. γ_m = ∞, shared between clones.
    gammas: Arc<[f64]>,
    j: usize,
}

impl ValueSequence for IntervalSampling {
    const NAME: &'static str = "setsketch2";

    fn create(m: usize, a: f64) -> Self {
        let mut gammas = Vec::with_capacity(m + 1);
        gammas.push(0.0);
        for j in 1..m {
            // γ_j = ln(1 + j/(m-j)) / a; written via ln_1p for accuracy.
            gammas.push((j as f64 / (m - j) as f64).ln_1p() / a);
        }
        gammas.push(f64::INFINITY);
        Self {
            a,
            gammas: gammas.into(),
            j: 0,
        }
    }

    #[inline]
    fn start(&mut self) {
        self.j = 0;
    }

    #[inline]
    fn next<R: Rng64>(&mut self, rng: &mut R) -> f64 {
        debug_assert!(self.j + 1 < self.gammas.len(), "sequence exhausted");
        self.j += 1;
        truncated_exp(rng, self.a, self.gammas[self.j - 1], self.gammas[self.j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketch_rand::WyRand;

    fn collect_sequence<S: ValueSequence>(m: usize, a: f64, seed: u64) -> Vec<f64> {
        let mut seq = S::create(m, a);
        let mut rng = WyRand::new(seed);
        seq.start();
        (0..m).map(|_| seq.next(&mut rng)).collect()
    }

    #[test]
    fn spacings_are_strictly_increasing() {
        for seed in 0..20 {
            let xs = collect_sequence::<ExponentialSpacings>(64, 20.0, seed);
            for w in xs.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn intervals_are_strictly_increasing() {
        for seed in 0..20 {
            let xs = collect_sequence::<IntervalSampling>(64, 20.0, seed);
            for w in xs.windows(2) {
                assert!(w[0] < w[1], "{xs:?}");
            }
        }
    }

    /// The j-th interval boundary splits Exp(a) into equal-probability
    /// cells (Lemma 3).
    #[test]
    fn gamma_partition_has_equal_probability() {
        let a = 3.0;
        let m = 10;
        let seq = IntervalSampling::create(m, a);
        for j in 1..m {
            let lo = seq.gammas[j - 1];
            let hi = seq.gammas[j];
            let p = (-a * lo).exp() - (-a * hi).exp();
            assert!((p - 1.0 / m as f64).abs() < 1e-12, "j={j} p={p}");
        }
        // Last interval [γ_{m-1}, ∞).
        let p_last = (-a * seq.gammas[m - 1]).exp();
        assert!((p_last - 1.0 / m as f64).abs() < 1e-12);
    }

    /// SetSketch1: the minimum of the m values is the first spacing and
    /// must be distributed like the minimum of m iid Exp(a), i.e. Exp(m·a).
    #[test]
    fn spacings_minimum_is_exp_of_rate_ma() {
        let (m, a) = (16usize, 2.0);
        let trials = 100_000;
        let mut seq = ExponentialSpacings::create(m, a);
        let mut rng = WyRand::new(1234);
        let mut sum = 0.0;
        for _ in 0..trials {
            seq.start();
            sum += seq.next(&mut rng);
        }
        let mean = sum / trials as f64;
        let expected = 1.0 / (m as f64 * a);
        assert!(
            ((mean - expected) / expected).abs() < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    /// SetSketch2: the minimum is Exp(a) *conditioned* on the first
    /// equal-probability cell [0, γ₁) — this is exactly the correlation
    /// that distinguishes it from SetSketch1. Its conditional mean is
    /// m · (1 − (1 + aγ₁)e^{-aγ₁}) / a.
    #[test]
    fn intervals_minimum_matches_truncated_mean() {
        let (m, a) = (16usize, 2.0);
        let trials = 100_000;
        let mut seq = IntervalSampling::create(m, a);
        let gamma1 = seq.gammas[1];
        let mut rng = WyRand::new(1234);
        let mut sum = 0.0;
        for _ in 0..trials {
            seq.start();
            sum += seq.next(&mut rng);
        }
        let mean = sum / trials as f64;
        let ag = a * gamma1;
        let expected = m as f64 * (1.0 - (1.0 + ag) * (-ag).exp()) / a;
        assert!(
            ((mean - expected) / expected).abs() < 0.02,
            "mean {mean} vs {expected}"
        );
    }

    /// Marginally, each of the m hash values must be Exp(a): the average of
    /// all m values per element equals the exponential mean 1/a.
    #[test]
    fn values_have_exponential_mean() {
        fn check<S: ValueSequence>(label: &str) {
            let (m, a) = (8usize, 5.0);
            let trials = 40_000;
            let mut seq = S::create(m, a);
            let mut rng = WyRand::new(99);
            let mut sum = 0.0;
            for _ in 0..trials {
                seq.start();
                for _ in 0..m {
                    sum += seq.next(&mut rng);
                }
            }
            let mean = sum / (trials * m) as f64;
            assert!(
                ((mean - 1.0 / a) / (1.0 / a)).abs() < 0.02,
                "{label}: mean {mean}"
            );
        }
        check::<ExponentialSpacings>("setsketch1");
        check::<IntervalSampling>("setsketch2");
    }

    /// The maximum x_m of SetSketch1 must look like the maximum of m iid
    /// Exp(a): E[max] = H_m / a.
    #[test]
    fn spacings_maximum_matches_order_statistic() {
        let (m, a) = (16usize, 2.0);
        let trials = 60_000;
        let mut seq = ExponentialSpacings::create(m, a);
        let mut rng = WyRand::new(7);
        let mut sum = 0.0;
        for _ in 0..trials {
            seq.start();
            let mut last = 0.0;
            for _ in 0..m {
                last = seq.next(&mut rng);
            }
            sum += last;
        }
        let mean = sum / trials as f64;
        let h_m: f64 = (1..=m).map(|i| 1.0 / i as f64).sum();
        let expected = h_m / a;
        assert!(((mean - expected) / expected).abs() < 0.02, "mean {mean}");
    }
}
