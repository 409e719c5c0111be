//! Direct numerical verification of the paper's lemmas that admit
//! grid-checking (the structural lemmas are enforced by the unit tests of
//! the modules that rely on them).

use sketch_math::{fisher, ml_jaccard, ml_jaccard_may_reach, p_b, xi, zeta, JointCounts};

/// Lemma 13: 1 − p_b(u−vJ) − p_b(v−uJ) > 0 on the feasible domain.
#[test]
fn lemma13_equal_probability_is_positive() {
    for &b in &[1.001f64, 1.2, 2.0, 2.7] {
        for ui in 1..50 {
            let u = ui as f64 / 50.0;
            let v = 1.0 - u;
            let j_max = (u / v).min(v / u);
            for ji in 0..=20 {
                let j = j_max * ji as f64 / 20.0;
                let p0 = 1.0 - p_b(b, u - v * j) - p_b(b, v - u * j);
                assert!(p0 > 0.0, "b={b} u={u} j={j}: p0={p0}");
            }
        }
    }
}

/// The neighbouring `f64` above `x` (finite `x`).
fn ulp_up(x: f64) -> f64 {
    if x == 0.0 {
        f64::from_bits(1)
    } else if x > 0.0 {
        f64::from_bits(x.to_bits() + 1)
    } else {
        f64::from_bits(x.to_bits() - 1)
    }
}

/// The neighbouring `f64` below `x` (finite `x`).
fn ulp_down(x: f64) -> f64 {
    -ulp_up(-x)
}

/// Lemma 14 makes the slope test of `ml_jaccard_may_reach` sound: over a
/// seeded grid of bases, balanced and skewed cardinalities, every zero
/// pattern of (D⁺, D⁻, D₀) and m up to 4 096, it never rules out a
/// target that `ml_jaccard` reaches — at the estimate itself, one ulp
/// and 1e-9 either side of it. It must also rule out most targets
/// clearly above the estimate, or it would prune nothing.
#[test]
fn lemma14_may_reach_never_rules_out_a_reached_target() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(bound)) as u32
    };
    let (mut checked, mut far_targets, mut far_pruned) = (0u32, 0u32, 0u32);
    for &b in &[1.001f64, 1.2, 2.0, std::f64::consts::E] {
        for &u in &[0.5f64, 0.4, 0.6, 0.1, 0.9, 0.01, 0.99] {
            let v = 1.0 - u;
            for &m in &[1u32, 2, 3, 16, 64, 256, 1000, 4096] {
                for pattern in 0u32..8 {
                    let nonzero = [pattern & 1 != 0, pattern & 2 != 0, pattern & 4 != 0];
                    let parts = nonzero.iter().filter(|&&on| on).count() as u32;
                    // Pattern 0 is m = 0, whatever `m` says.
                    if parts > m {
                        continue;
                    }
                    for _ in 0..6 {
                        // Split m over the nonzero components, each ≥ 1.
                        let mut counts = [0u32; 3];
                        if parts > 0 {
                            let mut left = m - parts;
                            let mut seen = 0;
                            for (slot, &on) in counts.iter_mut().zip(&nonzero) {
                                if !on {
                                    continue;
                                }
                                seen += 1;
                                let extra = if seen == parts { left } else { next(left + 1) };
                                *slot = 1 + extra;
                                left -= extra;
                            }
                        }
                        let counts = JointCounts::new(counts[0], counts[1], counts[2]);
                        let estimate = ml_jaccard(counts, b, u, v);
                        let reached = [
                            estimate,
                            ulp_down(estimate),
                            ulp_up(estimate),
                            estimate - 1e-9,
                            estimate + 1e-9,
                        ];
                        for target in reached {
                            if estimate >= target {
                                checked += 1;
                                assert!(
                                    ml_jaccard_may_reach(counts, b, u, v, target),
                                    "b={b} u={u} {counts:?}: ml_jaccard {estimate} reaches {target}"
                                );
                            }
                        }
                        let far = estimate + 1e-3;
                        if parts > 1 && far < (u / v).min(v / u) {
                            far_targets += 1;
                            far_pruned += u32::from(!ml_jaccard_may_reach(counts, b, u, v, far));
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 10_000, "{checked} reached targets checked");
    assert!(
        far_pruned * 10 >= far_targets * 9,
        "only {far_pruned} of {far_targets} targets 1e-3 above the estimate ruled out"
    );
}

/// Lemma 16: 0 <= (u−vJ)(v−uJ) <= (1−J)²/4, with equality at u=v=1/2.
#[test]
fn lemma16_product_bounds() {
    for ui in 1..100 {
        let u = ui as f64 / 100.0;
        let v = 1.0 - u;
        let j_max = (u / v).min(v / u);
        for ji in 0..=20 {
            let j = j_max * ji as f64 / 20.0;
            let product = (u - v * j) * (v - u * j);
            let upper = (1.0 - j) * (1.0 - j) / 4.0;
            assert!(product >= -1e-15, "u={u} j={j}");
            assert!(product <= upper + 1e-12, "u={u} j={j}: {product} > {upper}");
        }
    }
    // Right equality at u = v = 1/2.
    let j = 0.3f64;
    let product = (0.5 - 0.5 * j) * (0.5 - 0.5 * j);
    assert!((product - (1.0 - j) * (1.0 - j) / 4.0).abs() < 1e-15);
}

/// Lemma 17: p_b(x) -> x as b -> 1, uniformly on [0, 1].
#[test]
fn lemma17_p_b_limit() {
    for xi_ in 0..=20 {
        let x = xi_ as f64 / 20.0;
        let mut prev_gap = f64::INFINITY;
        for &b in &[1.5f64, 1.1, 1.01, 1.001, 1.0001] {
            let gap = (p_b(b, x) - x).abs();
            assert!(gap <= prev_gap + 1e-12, "convergence not monotone at x={x}");
            prev_gap = gap;
        }
        assert!(prev_gap < 1e-4, "x={x}: gap {prev_gap}");
    }
}

/// Lemma 11 (via ζ): the relative error of ζ_b(x1,x2) ≈ x2−x1 is below
/// the Lemma 8 bound — down to f64 rounding noise, below which the
/// analytic bound (e.g. ~1e-47 at b = 1.2) cannot be observed.
#[test]
fn lemma11_zeta_error_bound() {
    let (x1, x2) = (0.35, 1.9);
    let noise_floor = 1e-13;
    for &b in &[2.0f64, 1.5, 1.2] {
        let rel = ((zeta(b, x1, x2) - (x2 - x1)) / (x2 - x1)).abs();
        let bound = xi::xi1_deviation_bound(b).max(noise_floor);
        assert!(
            rel <= bound * (1.0 + 1e-9),
            "b={b}: rel {rel} > bound {bound}"
        );
    }
    // The bound itself decreases sharply with b.
    assert!(xi::xi1_deviation_bound(1.5) < xi::xi1_deviation_bound(2.0) * 1e-3);
}

/// Lemma 19 consistency: the b → 1 Fisher information dominates (is never
/// below) the b > 1 information for equal cardinalities — smaller b means
/// more extractable joint information.
#[test]
fn lemma19_information_ordering() {
    let m = 4096;
    for ji in 1..10 {
        let j = ji as f64 / 10.0;
        let i_b1 = fisher::fisher_information_b1(m, 0.5, 0.5, j);
        let i_12 = fisher::fisher_information(m, 1.2, 0.5, 0.5, j);
        let i_20 = fisher::fisher_information(m, 2.0, 0.5, 0.5, j);
        assert!(i_b1 >= i_12 * 0.999, "j={j}: {i_b1} < {i_12}");
        assert!(i_12 >= i_20 * 0.999, "j={j}: {i_12} < {i_20}");
    }
}

/// §3.1: the RSD formula is minimized as b → 1 where it equals 1/sqrt(m),
/// and equals ~1.04/sqrt(m) at b = 2.
#[test]
fn rsd_limits() {
    let rsd = |b: f64, m: f64| (((b + 1.0) / (b - 1.0) * b.ln() - 1.0) / m).sqrt();
    let m = 4096.0;
    assert!((rsd(1.0001, m) - 1.0 / m.sqrt()).abs() < 1e-6);
    assert!((rsd(2.0, m) * m.sqrt() - 1.04).abs() < 0.01);
    // Monotone increasing in b.
    assert!(rsd(1.5, m) < rsd(2.0, m));
    assert!(rsd(1.1, m) < rsd(1.5, m));
}
