//! HyperLogLog and generalized HyperLogLog (GHLL) baselines.
//!
//! GHLL with stochastic averaging is the paper's §1.3/§4.2 baseline; the
//! classic HyperLogLog is its `b = 2` special case. The implementation
//! includes the calibration-free corrected cardinality estimator (eq. (18)
//! with `a = 1/m`; for `b = 2` exactly the estimator used by Redis), the
//! optional lower-bound-tracking recording optimization of §5.4, and the
//! joint estimation adapter of §4.2 with its applicability condition.
//!
//! ```
//! use hyperloglog::{GhllConfig, GhllSketch};
//!
//! let config = GhllConfig::hyperloglog(1024).unwrap();
//! let mut sketch = GhllSketch::new(config, 99);
//! for event in 0..50_000u64 {
//!     sketch.insert_u64(event);
//! }
//! let estimate = sketch.estimate_cardinality();
//! assert!((estimate - 50_000.0).abs() / 50_000.0 < 0.2);
//! ```

pub mod ghll;
pub mod joint;
pub mod pmf;

pub use ghll::{GhllConfig, GhllConfigError, GhllDecodeError, GhllSketch, IncompatibleGhll};
pub use joint::GhllJointError;
pub use pmf::update_value_pmf;
