//! HyperMinHash baseline (Yu & Weber, IEEE TKDE 2020; paper §1.4, §4.3).
//!
//! HyperMinHash extends each HLL register by `r` extra mantissa bits: the
//! register value encodes both the HLL exponent `p = ⌊1 − log₂ u⌋` and the
//! position of u inside the dyadic interval `(2^{-p}, 2^{1-p}]`, quantized
//! into 2^r equal cells. All register-state probabilities are therefore
//! powers of 1/2, which makes HyperMinHash a dyadic *approximation* of a
//! GHLL with base `b = 2^(2^{-r})` — the correspondence Figure 1 of the
//! SetSketch paper visualizes and §4.3 exploits: the SetSketch joint
//! estimator applies directly to HyperMinHash registers with that
//! effective base.
//!
//! ```
//! use hyperminhash::{HyperMinHash, HyperMinHashConfig};
//!
//! let config = HyperMinHashConfig::new(1024, 10).unwrap();
//! let mut a = HyperMinHash::new(config, 5);
//! let mut b = HyperMinHash::new(config, 5);
//! a.extend(0..200_000);
//! b.extend(100_000..300_000);
//! let joint = a.estimate_joint(&b).unwrap();
//! assert!((joint.jaccard - 1.0 / 3.0).abs() < 0.1);
//! ```

pub mod pmf;
pub mod sketch;

pub use pmf::update_value_pmf;
pub use sketch::{
    HyperMinHash, HyperMinHashConfig, HyperMinHashConfigError, IncompatibleHyperMinHash,
};
