//! # SetSketch
//!
//! A from-scratch Rust implementation of **SetSketch** (Otmar Ertl,
//! *SetSketch: Filling the Gap between MinHash and HyperLogLog*, VLDB
//! 2021), a mergeable data sketch for sets that continuously interpolates
//! between HyperLogLog (space-efficient cardinality estimation) and MinHash
//! (accurate joint estimation and locality sensitivity) through its base
//! parameter `b`:
//!
//! * `b = 2` with 6-bit registers behaves like HyperLogLog,
//! * `b = 1.001` with 2-byte registers gives MinHash-grade similarity
//!   estimation in a fraction of MinHash's space,
//! * everything in between trades space for joint-estimation accuracy.
//!
//! ## Quick start
//!
//! ```
//! use setsketch::{SetSketch1, SetSketchConfig};
//!
//! // The paper's example configuration: 8 kB, cardinalities up to 1e18.
//! let config = SetSketchConfig::example_16bit();
//! let mut paris = SetSketch1::new(config, 42);
//! let mut london = SetSketch1::new(config, 42); // same seed => mergeable
//!
//! for user in 0..10_000u64 {
//!     paris.insert_u64(user);
//! }
//! for user in 5_000..15_000u64 {
//!     london.insert_u64(user);
//! }
//!
//! let cardinality = paris.estimate_cardinality();
//! assert!((cardinality - 10_000.0).abs() / 10_000.0 < 0.1);
//!
//! let joint = paris.estimate_joint(&london).unwrap();
//! // True Jaccard similarity: 5000 / 15000 = 1/3.
//! assert!((joint.quantities.jaccard - 1.0 / 3.0).abs() < 0.05);
//!
//! // Distributed union: merge the two sketches.
//! let global = paris.merged(&london).unwrap();
//! assert!((global.estimate_cardinality() - 15_000.0).abs() / 15_000.0 < 0.1);
//! ```
//!
//! ## Variants
//!
//! [`SetSketch1`] generates statistically independent register values
//! (exponential spacings, eq. (7) of the paper); [`SetSketch2`] uses one
//! point per probability interval (eq. (8)), which correlates registers and
//! *reduces* estimation error for sets smaller than m. Their APIs are
//! identical.
//!
//! ## Module map
//!
//! * [`config`] — parameter selection and the Lemma 4/5 range guarantees;
//! * [`sequence`] — the two ascending register-value constructions;
//! * [`sketch`] — the data structure and Algorithm 1 with lower-bound
//!   tracking;
//! * [`cardinality`] — estimators (12), (18) and maximum likelihood;
//! * [`joint`] — joint estimation (Jaccard, intersection, differences,
//!   cosine, inclusion coefficients);
//! * [`locality`] — collision probabilities and the LSH estimators (15);
//! * [`state`] — the self-describing binary representation;
//! * [`interop`] — the implementation of [`sketch_core::Sketch`], the one
//!   trait the sketch store and cluster serve through.

#![warn(missing_docs)]

pub mod cardinality;
pub mod config;
pub mod interop;
pub mod joint;
pub mod locality;
pub mod sequence;
pub mod sketch;
pub mod state;

pub use config::{ConfigError, SetSketchConfig};
pub use joint::{JointEstimate, JointMethod};
pub use locality::{
    collision_probability, collision_probability_bounds, jaccard_lower_estimate,
    jaccard_upper_estimate, jaccard_upper_rmse,
};
pub use sequence::{ExponentialSpacings, IntervalSampling, ValueSequence};
pub use sketch::{IncompatibleSketches, SetSketch, SetSketch1, SetSketch2};
pub use state::StateError;

// Re-exported for downstream convenience: joint estimation results embed
// these types.
pub use sketch_math::{JointCounts, JointQuantities};
