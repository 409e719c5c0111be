//! Precomputed base-b register scales (paper §5.1).
//!
//! All sketches in this workspace map a uniform or exponential hash value
//! `x` to a register update value `k = max(0, min(q+1, ⌊1 − log_b x⌋))`.
//! Following the paper's reference implementation, the relevant powers of
//! b are precomputed in a sorted array and the update value is their
//! partition point around `x`, so rounding in a logarithm can never put a
//! value on the wrong side of a power; the search can be restricted to
//! values greater than the current lower bound `K_low`, "which further
//! saves time with increasing cardinality". The search starts at the
//! logarithm's estimate and steps to the exact partition point, reading
//! one or two adjacent entries instead of a binary search's `log₂ q`
//! scattered ones — which matters on fine scales such as b = 1.001, whose
//! 65 536-entry table does not stay in cache between inserts. For b = 2 a
//! floating-point exponent fast path avoids the table entirely.

/// Largest `q` the binary decoders (`SetSketch::from_bytes`,
/// `GhllSketch::from_bytes`) accept from a header. The table a sketch
/// builds holds `q + 2` eight-byte powers, so a header naming
/// `q = u32::MAX − 1` would otherwise demand 32 GiB before a register is
/// read; at this limit the table is 8 MiB. The finest configuration in
/// the workspace (b = 1.0005, q = 2¹⁷ − 2) is well inside it.
pub const MAX_DECODED_Q: u32 = 1 << 20;

/// Precomputed powers `b^{-k}` for `k ∈ {0, ..., q+1}` with search helpers.
#[derive(Debug, Clone)]
pub struct PowerTable {
    b: f64,
    q: u32,
    /// `pow_neg[k] = b^{-k}` for `k = 0..=q+1`.
    pow_neg: Vec<f64>,
    base2: bool,
    /// `ln b`, for the search's starting estimate.
    ln_b: f64,
}

impl PowerTable {
    /// Builds the table for base `b > 1` and maximum register value `q + 1`.
    ///
    /// # Panics
    /// Panics if `b <= 1` or if `q + 1` would overflow `u32`.
    pub fn new(b: f64, q: u32) -> Self {
        assert!(b > 1.0, "PowerTable requires b > 1");
        assert!(q < u32::MAX, "q + 1 must fit into u32");
        let ln_b = b.ln();
        // exp per entry (rather than iterated multiplication) keeps the
        // relative error independent of k.
        let pow_neg: Vec<f64> = (0..=q as u64 + 1)
            .map(|k| (-(k as f64) * ln_b).exp())
            .collect();
        Self {
            b,
            q,
            pow_neg,
            base2: b == 2.0,
            ln_b,
        }
    }

    /// The base b.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// The register value limit parameter q (registers hold `0..=q+1`).
    #[inline]
    pub fn q(&self) -> u32 {
        self.q
    }

    /// `b^{-k}` for `k ∈ {0, ..., q+1}`.
    #[inline]
    pub fn pow_neg(&self, k: u32) -> f64 {
        self.pow_neg[k as usize]
    }

    /// Register update value `max(0, min(q+1, ⌊1 − log_b x⌋))` for `x > 0`.
    #[inline]
    pub fn update_value(&self, x: f64) -> u32 {
        debug_assert!(x > 0.0);
        if self.base2 {
            return self.update_value_base2(x);
        }
        self.partition_point(x, 0)
    }

    /// Like [`update_value`](Self::update_value) but returns `None` without
    /// a full search when the result would not exceed `k_low` (and hence
    /// could not modify any register).
    #[inline]
    pub fn update_value_above(&self, x: f64, k_low: u32) -> Option<u32> {
        debug_assert!(x > 0.0);
        if k_low > self.q {
            return None;
        }
        // k > k_low requires x <= b^{-k_low}.
        if x > self.pow_neg[k_low as usize] {
            return None;
        }
        if self.base2 {
            let k = self.update_value_base2(x);
            return (k > k_low).then_some(k);
        }
        let k = self.partition_point(x, k_low);
        (k > k_low).then_some(k)
    }

    /// `from + #{ j in from..=q : x <= b^{-j} }` — the partition point
    /// of the decreasing table on entries `from..=q`, for callers that
    /// know `x <= b^{-from}` or `from == 0`. Starts at the logarithm's
    /// estimate `⌊−ln x / ln b⌋ + 1`, off by at most a step or two, and
    /// walks to the first entry below `x`: the same answer as a binary
    /// search over the table, from one or two adjacent reads.
    ///
    /// Kept out of line: inlined into the insert loop, its logarithm
    /// call cost the b = 2 fast path ≈ 4 % per element.
    #[inline(never)]
    fn partition_point(&self, x: f64, from: u32) -> u32 {
        let limit = self.q + 1;
        let estimate = (-x.ln() / self.ln_b).floor() + 1.0;
        let mut k = estimate.clamp(from as f64, limit as f64) as u32;
        while k > from && self.pow_neg[k as usize - 1] < x {
            k -= 1;
        }
        while k < limit && self.pow_neg[k as usize] >= x {
            k += 1;
        }
        k
    }

    /// Exponent-extraction fast path for b = 2: `⌊1 − log₂ x⌋` from the
    /// IEEE 754 representation.
    #[inline]
    fn update_value_base2(&self, x: f64) -> u32 {
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7ff) as i64;
        if biased == 0 {
            // Subnormal inputs cannot be produced by the unit-interval
            // samplers; fall back to the exact computation defensively.
            let k = 1.0 - x.log2();
            return (k.floor().max(0.0) as u64).min(self.q as u64 + 1) as u32;
        }
        let exponent = biased - 1023; // floor(log2 x) for non-powers of two
        let mantissa_zero = bits & 0x000f_ffff_ffff_ffff == 0;
        // x = 2^e * m with 1 <= m < 2: floor(1 - log2 x) = -e unless m == 1,
        // in which case it is 1 - e.
        let k = if mantissa_zero {
            1 - exponent
        } else {
            -exponent
        };
        k.clamp(0, self.q as i64 + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(b: f64, q: u32, x: f64) -> u32 {
        let raw = (1.0 - x.ln() / b.ln()).floor();
        raw.clamp(0.0, q as f64 + 1.0) as u32
    }

    #[test]
    fn matches_direct_logarithm_generic_base() {
        for &b in &[1.001f64, 1.2, 2.5] {
            let q = 200;
            let table = PowerTable::new(b, q);
            let mut x = 1.5;
            for _ in 0..2000 {
                x *= 0.99;
                let got = table.update_value(x);
                let want = reference(b, q, x);
                // The table search avoids the rounding hazards of log; allow
                // the reference to differ only at exact power boundaries.
                assert!(
                    got == want || (got as i64 - want as i64).abs() <= 1,
                    "b={b} x={x}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn exact_powers_belong_to_upper_interval() {
        // x = b^{-j} must map to k = j + 1 (the interval (b^{-k}, b^{1-k}]
        // is right-closed).
        let b = 1.5f64;
        let q = 50;
        let table = PowerTable::new(b, q);
        for j in 0..10u32 {
            let x = table.pow_neg(j);
            assert_eq!(table.update_value(x), j + 1, "j={j}");
        }
    }

    #[test]
    fn base2_fast_path_matches_generic() {
        let q = 62;
        let fast = PowerTable::new(2.0, q);
        // Build a non-fast-path table with nearly identical base.
        let slow = PowerTable::new(2.0 + 1e-13, q);
        let mut x = 1.9;
        for _ in 0..5000 {
            x *= 0.993;
            assert_eq!(fast.update_value(x), slow.update_value(x), "x={x}");
        }
        // Powers of two exactly.
        for e in 0..40 {
            let x = (2.0f64).powi(-e);
            assert_eq!(fast.update_value(x), (e as u32 + 1).min(q + 1), "e={e}");
        }
    }

    #[test]
    fn clamps_to_range() {
        let table = PowerTable::new(2.0, 10);
        assert_eq!(table.update_value(100.0), 0);
        assert_eq!(table.update_value(1e-30), 11);
        let table = PowerTable::new(1.001, 20);
        assert_eq!(table.update_value(2.0), 0);
        assert_eq!(table.update_value(1e-30), 21);
    }

    #[test]
    fn update_value_above_agrees_with_full_search() {
        for &b in &[1.02f64, 2.0] {
            let q = 300;
            let table = PowerTable::new(b, q);
            let mut x = 1.2;
            for i in 0..3000 {
                x *= 0.995;
                let k_low = (i / 40) as u32;
                let full = table.update_value(x);
                let fast = table.update_value_above(x, k_low);
                if full > k_low {
                    assert_eq!(fast, Some(full), "b={b} x={x} k_low={k_low}");
                } else {
                    assert_eq!(fast, None, "b={b} x={x} k_low={k_low}");
                }
            }
        }
    }

    #[test]
    fn estimate_guided_search_is_the_binary_search() {
        // The table's own partition point, found by bisection.
        let bisect = |table: &PowerTable, x: f64, from: u32| {
            let head = &table.pow_neg[from as usize..=table.q as usize];
            from + head.partition_point(|&t| t >= x) as u32
        };
        for (b, q) in [
            (1.001f64, (1 << 16) - 2),
            (1.02, 3000),
            (1.2, 4000),
            (2.5, 60),
        ] {
            let table = PowerTable::new(b, q);
            let mut probes = Vec::new();
            // Every table entry, exactly and one ulp to either side —
            // where a logarithm's rounding would land on the wrong side.
            for k in (0..=q + 1).step_by(7) {
                let t = table.pow_neg(k);
                probes.extend([
                    t,
                    f64::from_bits(t.to_bits() + 1),
                    f64::from_bits(t.to_bits() - 1),
                ]);
            }
            // Geometric sweep well past both ends of the scale.
            let mut x = 4.0;
            while x > 1e-300 {
                probes.push(x);
                x *= 0.9137;
            }
            for &x in &probes {
                assert_eq!(table.update_value(x), bisect(&table, x, 0), "b={b} x={x:e}");
                for from in [1, q / 3, q] {
                    if x <= table.pow_neg(from) {
                        let k = bisect(&table, x, from);
                        assert_eq!(
                            table.update_value_above(x, from),
                            (k > from).then_some(k),
                            "b={b} x={x:e} k_low={from}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn update_value_above_saturated_lower_bound() {
        let table = PowerTable::new(2.0, 10);
        assert_eq!(table.update_value_above(1e-30, 11), None);
        assert_eq!(table.update_value_above(1e-30, 10), Some(11));
    }

    #[test]
    fn pow_neg_is_accurate() {
        let table = PowerTable::new(1.001, 1000);
        for &k in &[0u32, 1, 10, 500, 1001] {
            let want = (1.001f64).powi(-(k as i32));
            let got = table.pow_neg(k);
            assert!(((got - want) / want).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "b > 1")]
    fn rejects_base_one() {
        PowerTable::new(1.0, 10);
    }
}
