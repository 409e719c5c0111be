//! Exact binomial probability computations.
//!
//! Figure 4 of the paper plots the *theoretical* RMSE of the
//! collision-count estimator Ĵ_up, whose input D₀ is binomially distributed.
//! Rather than simulating, the experiment harness computes the exact
//! expectation over the binomial distribution; this module supplies the
//! log-space pmf built on a cached log-factorial table.

/// Binomial pmf evaluator with a precomputed log-factorial table.
#[derive(Debug, Clone)]
pub struct BinomialPmf {
    /// `ln_fact[i] = ln(i!)`.
    ln_fact: Vec<f64>,
}

impl BinomialPmf {
    /// Prepares tables for evaluating pmfs with `n <= n_max`.
    pub fn new(n_max: usize) -> Self {
        let mut ln_fact = Vec::with_capacity(n_max + 1);
        ln_fact.push(0.0);
        let mut acc = 0.0f64;
        for i in 1..=n_max {
            acc += (i as f64).ln();
            ln_fact.push(acc);
        }
        Self { ln_fact }
    }

    /// Natural log of the binomial coefficient `C(n, k)`.
    ///
    /// # Panics
    /// Panics if `k > n` or `n` exceeds the table size.
    fn ln_choose(&self, n: usize, k: usize) -> f64 {
        assert!(k <= n, "k must not exceed n");
        self.ln_fact[n] - self.ln_fact[k] - self.ln_fact[n - k]
    }

    /// pmf of `Binomial(n, p)` at `k`.
    pub fn pmf(&self, n: usize, k: usize, p: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&p));
        if p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if p == 1.0 {
            return if k == n { 1.0 } else { 0.0 };
        }
        let ln_p =
            self.ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln_1p_off();
        ln_p.exp()
    }

    /// Expectation `E[f(K)]` for `K ~ Binomial(n, p)` by direct summation.
    pub fn expectation<F: Fn(usize) -> f64>(&self, n: usize, p: f64, f: F) -> f64 {
        (0..=n).map(|k| self.pmf(n, k, p) * f(k)).sum()
    }
}

/// Helper: `ln(x)` written as `ln_1p(x - 1)` for better accuracy when x is
/// near 1 (the common case for `1 - p` with small `p`).
trait Ln1pOff {
    fn ln_1p_off(self) -> f64;
}

impl Ln1pOff for f64 {
    #[inline]
    fn ln_1p_off(self) -> f64 {
        (self - 1.0).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        let pmf = BinomialPmf::new(4096);
        for &(n, p) in &[(10usize, 0.3), (100, 0.01), (4096, 0.5), (4096, 0.999)] {
            let total = pmf.expectation(n, p, |_| 1.0);
            assert!((total - 1.0).abs() < 1e-10, "n={n} p={p}: {total}");
        }
    }

    #[test]
    fn pmf_matches_small_cases() {
        let pmf = BinomialPmf::new(16);
        // Binomial(4, 0.5): pmf = C(4,k)/16.
        let expected = [1.0, 4.0, 6.0, 4.0, 1.0];
        for (k, &e) in expected.iter().enumerate() {
            assert!((pmf.pmf(4, k, 0.5) - e / 16.0).abs() < 1e-12);
        }
    }

    #[test]
    fn expectation_matches_mean_and_variance() {
        let pmf = BinomialPmf::new(512);
        let (n, p) = (512usize, 0.37);
        let mean = pmf.expectation(n, p, |k| k as f64);
        let var = pmf.expectation(n, p, |k| {
            let d = k as f64 - n as f64 * p;
            d * d
        });
        assert!((mean - n as f64 * p).abs() < 1e-8);
        assert!((var - n as f64 * p * (1.0 - p)).abs() < 1e-6);
    }

    #[test]
    fn degenerate_probabilities() {
        let pmf = BinomialPmf::new(8);
        assert_eq!(pmf.pmf(8, 0, 0.0), 1.0);
        assert_eq!(pmf.pmf(8, 3, 0.0), 0.0);
        assert_eq!(pmf.pmf(8, 8, 1.0), 1.0);
        assert_eq!(pmf.pmf(8, 7, 1.0), 0.0);
    }

    #[test]
    fn ln_choose_symmetry() {
        let pmf = BinomialPmf::new(100);
        for k in 0..=100 {
            let a = pmf.ln_choose(100, k);
            let b = pmf.ln_choose(100, 100 - k);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "k must not exceed n")]
    fn rejects_k_above_n() {
        BinomialPmf::new(10).ln_choose(5, 6);
    }
}
