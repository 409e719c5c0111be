//! Sketch-agnostic joint estimation machinery (paper §3.2, §4.1–4.3).
//!
//! The paper's joint estimator only needs, from any pair of sketches,
//!
//! 1. the comparison counts `D⁺`, `D⁻`, `D₀` of their register arrays,
//! 2. cardinality estimates (or true cardinalities) of both sets, and
//! 3. the base `b` of the register scale.
//!
//! This module hosts the estimator itself so that SetSketch, MinHash, GHLL
//! and HyperMinHash can all share one implementation: the log-likelihood
//! maximization via Brent's method, the closed form (17) for the b → 1
//! (MinHash) limit, the inclusion–exclusion fallback (13), and the algebra
//! that turns `(n_U, n_V, J)` into every other joint quantity (§3.2).

use crate::brent::maximize;
use crate::pb::{p_b, p_b_derivative};

/// Register comparison counts between two sketches of equal size.
///
/// The convention is *max-sketch* oriented: `d_plus` counts registers where
/// the U-side dominates in the direction caused by elements of `U \ V`.
/// For max-based sketches (SetSketch, GHLL, HyperMinHash) that is
/// `K_Ui > K_Vi`; min-based MinHash must count `K_Ui < K_Vi` instead
/// (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JointCounts {
    /// Registers where the sketch of U dominates.
    pub d_plus: u32,
    /// Registers where the sketch of V dominates.
    pub d_minus: u32,
    /// Equal registers.
    pub d0: u32,
}

impl JointCounts {
    /// Creates counts; `m()` is their sum.
    pub fn new(d_plus: u32, d_minus: u32, d0: u32) -> Self {
        Self {
            d_plus,
            d_minus,
            d0,
        }
    }

    /// Builds counts from two register slices of equal length.
    ///
    /// For `u32` registers — every register-array sketch in this
    /// workspace — prefer [`from_u32`](Self::from_u32), which runs the
    /// vectorized comparison kernel instead of this element-wise loop.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_registers<T: Ord>(u: &[T], v: &[T]) -> Self {
        assert_eq!(u.len(), v.len(), "register arrays must have equal length");
        let mut counts = Self::new(0, 0, 0);
        for (a, b) in u.iter().zip(v) {
            match a.cmp(b) {
                std::cmp::Ordering::Greater => counts.d_plus += 1,
                std::cmp::Ordering::Less => counts.d_minus += 1,
                std::cmp::Ordering::Equal => counts.d0 += 1,
            }
        }
        counts
    }

    /// Builds counts from two `u32` register arrays through the
    /// vectorized [`compare_counts`](crate::kernels::compare_counts)
    /// kernel; semantically identical to
    /// [`from_registers`](Self::from_registers).
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn from_u32(u: &[u32], v: &[u32]) -> Self {
        let (d_plus, d_minus, d0) = crate::kernels::compare_counts(u, v);
        Self::new(d_plus, d_minus, d0)
    }

    /// Total number of compared registers.
    pub fn m(&self) -> u32 {
        self.d_plus + self.d_minus + self.d0
    }

    /// Swaps the roles of U and V.
    pub fn swapped(&self) -> Self {
        Self {
            d_plus: self.d_minus,
            d_minus: self.d_plus,
            d0: self.d0,
        }
    }
}

/// Upper limit of the Jaccard similarity given relative cardinalities:
/// `min(u/v, v/u)` (paper §3.2).
#[inline]
fn jaccard_upper_limit(u: f64, v: f64) -> f64 {
    (u / v).min(v / u)
}

/// Maximum-likelihood estimate of the Jaccard similarity (paper §3.2).
///
/// `u` and `v` are relative cardinalities with `u + v = 1` (estimates or
/// true values); `b` is the register base (`> 1`; use [`ml_jaccard_b1`] for
/// the MinHash limit). The log-likelihood is strictly concave for
/// `b <= e` (Lemma 14), so Brent's method converges to the global maximum.
pub fn ml_jaccard(counts: JointCounts, b: f64, u: f64, v: f64) -> f64 {
    assert!(b > 1.0, "ml_jaccard requires b > 1; see ml_jaccard_b1");
    if let Some(j) = ml_jaccard_closed_form(counts, u, v) {
        return j;
    }
    let j_max = jaccard_upper_limit(u, v);
    let d_plus = counts.d_plus as f64;
    let d_minus = counts.d_minus as f64;
    let d0 = counts.d0 as f64;
    let log_likelihood = |j: f64| {
        let p_plus = p_b(b, (u - v * j).max(0.0));
        let p_minus = p_b(b, (v - u * j).max(0.0));
        let p_zero = 1.0 - p_plus - p_minus;
        let mut ll = 0.0;
        if d_plus > 0.0 {
            ll += d_plus * p_plus.ln();
        }
        if d_minus > 0.0 {
            ll += d_minus * p_minus.ln();
        }
        if d0 > 0.0 {
            ll += d0 * p_zero.ln();
        }
        ll
    };
    let result = maximize(log_likelihood, 0.0, j_max, 1e-12);
    result.x.clamp(0.0, j_max)
}

/// [`ml_jaccard`]'s answer where it needs no solve, `None` elsewhere.
#[inline]
fn ml_jaccard_closed_form(counts: JointCounts, u: f64, v: f64) -> Option<f64> {
    if counts.m() == 0 || u <= 0.0 || v <= 0.0 {
        return Some(0.0);
    }
    if counts.d_plus == 0 && counts.d_minus == 0 {
        // All registers equal: the likelihood increases monotonically in J.
        return Some(jaccard_upper_limit(u, v));
    }
    if counts.d0 == 0 && (counts.d_plus == 0 || counts.d_minus == 0) {
        // One sketch dominates everywhere: no overlap evidence at all.
        return Some(0.0);
    }
    None
}

/// How far below its target [`ml_jaccard_may_reach`] tests the slope.
///
/// Brent's method is derivative-free: near the maximum the
/// log-likelihood is flat to within rounding, so [`ml_jaccard`] may stop
/// up to about √ε ≈ 1e-8 from the true maximiser, on either side. A
/// slope test at the target itself, or above it, could then rule out a
/// pair whose [`ml_jaccard`] lands exactly on the target; a test this
/// far below it cannot.
const MAY_REACH_MARGIN: f64 = 1e-6;

/// Whether [`ml_jaccard`] on the same inputs may return at least
/// `target`: `false` only when it provably returns less, so a caller
/// that only wants estimates at or above a floor can skip the solve.
///
/// Where [`ml_jaccard`] needs no solve (m = 0 or an empty side gives 0,
/// all registers equal give the upper limit `min(u/v, v/u)`, one side
/// dominating everywhere gives 0) the answer is exact, as it is for a
/// target above the upper limit. Otherwise the log-likelihood is
/// strictly concave for `b ≤ e` (Lemma 14), so a negative slope at
/// `target − margin` puts the maximiser below it: one evaluation of the
/// analytic derivative instead of a Brent solve. For `b > e`, a NaN
/// slope or `target − margin ≤ 0` the answer is `true`: nothing can be
/// ruled out.
#[inline]
pub fn ml_jaccard_may_reach(counts: JointCounts, b: f64, u: f64, v: f64, target: f64) -> bool {
    // False when either side is NaN: a NaN rules nothing out.
    let below = |estimate: f64| estimate < target;
    if let Some(j) = ml_jaccard_closed_form(counts, u, v) {
        return !below(j);
    }
    let j_max = jaccard_upper_limit(u, v);
    if below(j_max) {
        return false;
    }
    let j = target - MAY_REACH_MARGIN;
    if !(1.0 < b && b <= std::f64::consts::E) || j <= 0.0 || j.is_nan() {
        return true;
    }
    // L(j) = D⁺ ln p⁺ + D⁻ ln p⁻ + D₀ ln(1 − p⁺ − p⁻), with
    // p⁺ = p_b(u − vj) and p⁻ = p_b(v − uj); j < j_max keeps both
    // arguments positive.
    let (x_plus, x_minus) = (u - v * j, v - u * j);
    let p_plus = p_b(b, x_plus);
    let p_minus = p_b(b, x_minus);
    let p_zero = 1.0 - p_plus - p_minus;
    let dp_plus = -v * p_b_derivative(b, x_plus);
    let dp_minus = -u * p_b_derivative(b, x_minus);
    let mut slope = 0.0;
    if counts.d_plus > 0 {
        slope += counts.d_plus as f64 * dp_plus / p_plus;
    }
    if counts.d_minus > 0 {
        slope += counts.d_minus as f64 * dp_minus / p_minus;
    }
    if counts.d0 > 0 {
        slope -= counts.d0 as f64 * (dp_plus + dp_minus) / p_zero;
    }
    slope >= 0.0 || slope.is_nan()
}

/// Closed-form ML estimate for the b → 1 limit (paper eq. (17), Lemma 18).
///
/// This is the new MinHash joint estimator that dominates the classic
/// equal-component estimator.
pub fn ml_jaccard_b1(counts: JointCounts, u: f64, v: f64) -> f64 {
    let m = counts.m();
    if m == 0 || u <= 0.0 || v <= 0.0 {
        return 0.0;
    }
    let d_plus = counts.d_plus as f64;
    let d_minus = counts.d_minus as f64;
    let d0 = counts.d0 as f64;
    let a = u * u * (d0 + d_minus);
    let c = v * v * (d0 + d_plus);
    let discriminant = (a - c) * (a - c) + 4.0 * d_minus * d_plus * u * u * v * v;
    let j = (a + c - discriminant.sqrt()) / (2.0 * m as f64 * u * v);
    j.clamp(0.0, jaccard_upper_limit(u, v))
}

/// Inclusion–exclusion estimate of the Jaccard similarity (paper eq. (13)),
/// trimmed to the feasible range `[0, min(n_u/n_v, n_v/n_u)]`.
pub fn inclusion_exclusion_jaccard(n_u: f64, n_v: f64, n_union: f64) -> f64 {
    if n_union <= 0.0 || n_u <= 0.0 || n_v <= 0.0 {
        return 0.0;
    }
    let j = (n_u + n_v - n_union) / n_union;
    j.clamp(0.0, (n_u / n_v).min(n_v / n_u))
}

/// All joint quantities of paper §3.2, derived from `(n_U, n_V, J)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointQuantities {
    /// Cardinality of U.
    pub n_u: f64,
    /// Cardinality of V.
    pub n_v: f64,
    /// Jaccard similarity J = |U ∩ V| / |U ∪ V|.
    pub jaccard: f64,
    /// |U ∪ V| = (n_U + n_V) / (1 + J).
    pub union_size: f64,
    /// |U ∩ V| = (n_U + n_V) J / (1 + J).
    pub intersection: f64,
    /// |U \ V| = (n_U − n_V J) / (1 + J).
    pub difference_uv: f64,
    /// |V \ U| = (n_V − n_U J) / (1 + J).
    pub difference_vu: f64,
    /// |U ∩ V| / sqrt(|U| |V|).
    pub cosine: f64,
    /// |U ∩ V| / |U|.
    pub inclusion_u: f64,
    /// |U ∩ V| / |V|.
    pub inclusion_v: f64,
    /// Sørensen–Dice coefficient 2|U ∩ V| / (|U| + |V|) = 2J/(1+J).
    ///
    /// The paper's conclusion notes the estimation approach extends to
    /// "other set similarity measures"; Dice and overlap are the two most
    /// common ones and are plain functions of (n_U, n_V, J).
    pub dice: f64,
    /// Overlap (Szymkiewicz–Simpson) coefficient |U ∩ V| / min(|U|, |V|).
    pub overlap: f64,
}

impl JointQuantities {
    /// Derives every joint quantity from cardinalities and Jaccard
    /// similarity. Negative derived sizes (possible with estimated inputs)
    /// are clamped to zero.
    pub fn new(n_u: f64, n_v: f64, jaccard: f64) -> Self {
        let total = n_u + n_v;
        let denom = 1.0 + jaccard;
        let union_size = total / denom;
        let intersection = (total * jaccard / denom).max(0.0);
        let difference_uv = ((n_u - n_v * jaccard) / denom).max(0.0);
        let difference_vu = ((n_v - n_u * jaccard) / denom).max(0.0);
        let cosine = if n_u > 0.0 && n_v > 0.0 {
            intersection / (n_u * n_v).sqrt()
        } else {
            0.0
        };
        let inclusion_u = if n_u > 0.0 { intersection / n_u } else { 0.0 };
        let inclusion_v = if n_v > 0.0 { intersection / n_v } else { 0.0 };
        let dice = if total > 0.0 {
            2.0 * intersection / total
        } else {
            0.0
        };
        let smaller = n_u.min(n_v);
        let overlap = if smaller > 0.0 {
            (intersection / smaller).min(1.0)
        } else {
            0.0
        };
        Self {
            n_u,
            n_v,
            jaccard,
            union_size,
            intersection,
            difference_uv,
            difference_vu,
            cosine,
            inclusion_u,
            inclusion_v,
            dice,
            overlap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pb::p_b;

    /// Expected comparison counts for exact parameters, rounded to the
    /// nearest integers for an m large enough that rounding is negligible.
    fn expected_counts(m: u32, b: f64, u: f64, v: f64, j: f64) -> JointCounts {
        let p_plus = p_b(b, u - v * j);
        let p_minus = p_b(b, v - u * j);
        let d_plus = (m as f64 * p_plus).round() as u32;
        let d_minus = (m as f64 * p_minus).round() as u32;
        JointCounts::new(d_plus, d_minus, m - d_plus - d_minus)
    }

    #[test]
    fn ml_recovers_jaccard_from_expected_counts() {
        let m = 1 << 20;
        for &b in &[1.001, 1.2, 2.0] {
            for &j in &[0.05, 0.3, 0.6] {
                for &(u, v) in &[(0.5, 0.5), (0.4, 0.6)] {
                    if j >= (u / v_f(u, v)).min(v / u) {
                        continue;
                    }
                    let counts = expected_counts(m, b, u, v, j);
                    let est = ml_jaccard(counts, b, u, v);
                    assert!((est - j).abs() < 5e-3, "b={b} j={j} u={u}: est={est}");
                }
            }
        }
        fn v_f(_u: f64, v: f64) -> f64 {
            v
        }
    }

    #[test]
    fn closed_form_matches_brent_for_small_b() {
        let counts = JointCounts::new(700, 500, 2896);
        for &(u, v) in &[(0.5, 0.5), (0.35, 0.65)] {
            let brent = ml_jaccard(counts, 1.0 + 1e-9, u, v);
            let closed = ml_jaccard_b1(counts, u, v);
            assert!(
                (brent - closed).abs() < 1e-5,
                "u={u}: brent={brent} closed={closed}"
            );
        }
    }

    #[test]
    fn closed_form_matches_lemma18_stationarity() {
        // The closed form must zero the derivative of the b->1 likelihood.
        let counts = JointCounts::new(311, 177, 1560);
        let (u, v) = (0.45, 0.55);
        let j = ml_jaccard_b1(counts, u, v);
        let ll_prime = counts.d_plus as f64 * v / (v * j - u)
            + counts.d_minus as f64 * u / (u * j - v)
            + counts.d0 as f64 / j;
        assert!(ll_prime.abs() < 1e-6, "derivative {ll_prime}");
    }

    #[test]
    fn all_equal_registers_give_maximal_jaccard() {
        let counts = JointCounts::new(0, 0, 4096);
        assert_eq!(ml_jaccard(counts, 2.0, 0.5, 0.5), 1.0);
        assert_eq!(ml_jaccard_b1(counts, 0.5, 0.5), 1.0);
        // Asymmetric cardinalities cap J at min(u/v, v/u).
        let j = ml_jaccard(counts, 2.0, 0.25, 0.75);
        assert!((j - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fully_disjoint_registers_give_zero() {
        let counts = JointCounts::new(2048, 2048, 0);
        assert!(ml_jaccard(counts, 2.0, 0.5, 0.5) < 1e-6);
        assert!(ml_jaccard_b1(counts, 0.5, 0.5) < 1e-9);
    }

    #[test]
    fn empty_counts_are_handled() {
        let counts = JointCounts::new(0, 0, 0);
        assert_eq!(ml_jaccard(counts, 2.0, 0.5, 0.5), 0.0);
        assert_eq!(ml_jaccard_b1(counts, 0.5, 0.5), 0.0);
    }

    #[test]
    fn from_registers_counts_correctly() {
        let u = [5u32, 3, 7, 7, 1];
        let v = [4u32, 3, 9, 7, 2];
        let counts = JointCounts::from_registers(&u, &v);
        assert_eq!(counts, JointCounts::new(1, 2, 2));
        assert_eq!(counts.swapped(), JointCounts::new(2, 1, 2));
        assert_eq!(counts.m(), 5);
    }

    #[test]
    fn inclusion_exclusion_is_trimmed() {
        // Estimates implying negative intersections trim to 0.
        assert_eq!(inclusion_exclusion_jaccard(10.0, 10.0, 25.0), 0.0);
        // Estimates above the feasible range trim to min ratio.
        let j = inclusion_exclusion_jaccard(10.0, 30.0, 28.0);
        assert!((j - 10.0 / 30.0).abs() < 1e-12);
        // Interior case.
        let j = inclusion_exclusion_jaccard(100.0, 100.0, 150.0);
        assert!((j - 50.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn joint_quantities_match_set_algebra() {
        // |U| = 60, |V| = 90, |U ∩ V| = 30 -> union 120, J = 0.25.
        let q = JointQuantities::new(60.0, 90.0, 0.25);
        assert!((q.union_size - 120.0).abs() < 1e-9);
        assert!((q.intersection - 30.0).abs() < 1e-9);
        assert!((q.difference_uv - 30.0).abs() < 1e-9);
        assert!((q.difference_vu - 60.0).abs() < 1e-9);
        assert!((q.cosine - 30.0 / (60.0f64 * 90.0).sqrt()).abs() < 1e-12);
        assert!((q.inclusion_u - 0.5).abs() < 1e-12);
        assert!((q.inclusion_v - 1.0 / 3.0).abs() < 1e-12);
        // Dice = 2*30/150; overlap = 30/min(60, 90).
        assert!((q.dice - 60.0 / 150.0).abs() < 1e-12);
        assert!((q.overlap - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dice_and_jaccard_are_consistent() {
        // Dice = 2J/(1+J) must hold for any inputs.
        for &(n_u, n_v, j) in &[(10.0, 20.0, 0.3), (5.0, 5.0, 1.0), (100.0, 1.0, 0.0)] {
            let q = JointQuantities::new(n_u, n_v, j);
            assert!((q.dice - 2.0 * j / (1.0 + j)).abs() < 1e-12);
        }
    }

    #[test]
    fn joint_quantities_clamp_negative_differences() {
        // An overestimated J may imply negative difference sizes.
        let q = JointQuantities::new(10.0, 100.0, 0.5);
        assert_eq!(q.difference_uv, 0.0);
        assert!(q.difference_vu > 0.0);
    }

    #[test]
    fn symmetric_counts_give_symmetric_estimates() {
        let counts = JointCounts::new(500, 300, 3296);
        let j1 = ml_jaccard(counts, 2.0, 0.4, 0.6);
        let j2 = ml_jaccard(counts.swapped(), 2.0, 0.6, 0.4);
        assert!((j1 - j2).abs() < 1e-9);
    }
}
