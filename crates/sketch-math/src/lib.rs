//! Numerical substrate for the SetSketch reproduction.
//!
//! The estimators of the paper (Ertl, VLDB 2021) are built from a small set
//! of mathematical components, all implemented here from scratch:
//!
//! * the periodic special functions ξ¹_b, ξ²_b and ζ_b (paper eqs. (9),
//!   (10), Lemmas 6–11) that quantify the quality of the estimator
//!   approximations,
//! * the converging series σ_b and τ_b of the small/large-range corrected
//!   cardinality estimator (paper eq. (18), Appendix B),
//! * the function p_b and its derivative appearing in the register-order
//!   probabilities (paper eq. (14)),
//! * Brent's derivative-free univariate optimizer used to maximize the
//!   joint log-likelihood (paper §3.2),
//! * the Fisher information of the Jaccard similarity (Lemmas 15 and 19),
//! * the sketch-agnostic joint estimation machinery (maximum-likelihood,
//!   closed form for b → 1, inclusion–exclusion) shared by SetSketch,
//!   MinHash, GHLL and HyperMinHash,
//! * base-b register scale tables ([`power_table::PowerTable`]),
//! * the register array at its natural lane width ([`Registers`]) and the
//!   vectorization-friendly register-plane kernels ([`kernels`]) all
//!   scan-heavy sketch hot paths (merge, `K_low` rescans, histogram
//!   builds, joint comparison counts) are built on,
//! * exact binomial error analysis and running moment statistics used by
//!   the experiment harness.

pub mod binomial;
pub mod bitpack;
pub mod brent;
pub mod crc32;
pub mod fisher;
pub mod joint;
pub mod kernels;
pub mod pb;
pub mod power_table;
pub mod registers;
pub mod sigma_tau;
pub mod stats;
pub mod xi;
pub mod zeta;

pub use binomial::BinomialPmf;
pub use bitpack::{pack_bits, pack_offsets, unpack_bits, unpack_offsets, BitPackError};
pub use brent::{maximize, minimize, Extremum};
pub use crc32::crc32;
pub use fisher::{fisher_information, fisher_information_b1, jaccard_rmse_theory};
pub use joint::{
    inclusion_exclusion_jaccard, ml_jaccard, ml_jaccard_b1, ml_jaccard_may_reach, JointCounts,
    JointQuantities,
};
pub use kernels::Lane;
pub use pb::{log_b, p_b, p_b_derivative};
pub use power_table::{PowerTable, MAX_DECODED_Q};
pub use registers::{LanesMut, Registers};
pub use sigma_tau::{sigma_b, tau_b};
pub use stats::{ErrorStats, RunningMoments};
pub use xi::{xi, xi_max_deviation};
pub use zeta::zeta;

/// The m-th harmonic number H_m = Σ_{i=1..m} 1/i.
///
/// Appears in the applicability condition for joint estimation from GHLL
/// sketches (paper §4.2): registers untouched in both sketches are expected
/// while the union cardinality is below `m · H_m` (coupon collector).
pub fn harmonic(m: usize) -> f64 {
    // Direct summation is exact enough for every m used by sketches; sum
    // small terms first to limit rounding error.
    (1..=m).rev().map(|i| 1.0 / i as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn harmonic_matches_asymptotic() {
        // H_m ~ ln m + gamma + 1/(2m)
        let m = 1_000_000;
        let gamma = 0.577_215_664_901_532_9;
        let approx = (m as f64).ln() + gamma + 1.0 / (2.0 * m as f64);
        assert!((harmonic(m) - approx).abs() < 1e-9);
    }
}
