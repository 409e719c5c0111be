//! Locality-sensitive hashing over sketch register signatures.
//!
//! Paper §3.3: SetSketch registers collide with a probability that is a
//! monotonic function of the Jaccard similarity, so they can replace
//! MinHash components in the classic banding LSH scheme — at a fraction
//! of the memory. This crate provides a thread-safe banding index over any
//! integer register signature (SetSketch registers, MinHash components
//! reduced to b bits, HyperMinHash registers, ...), plus the analytic
//! S-curve used for band/row tuning.
//!
//! ```
//! use lsh::LshIndex;
//! use setsketch::{SetSketch1, SetSketchConfig};
//!
//! let config = SetSketchConfig::example_16bit();
//! let index: LshIndex<u64> = LshIndex::new(256, 16).unwrap(); // 256 bands x 16 rows = 4096
//!
//! let mut query = SetSketch1::new(config, 1);
//! query.extend(0..1000);
//! for doc in 0..20u64 {
//!     let mut sketch = SetSketch1::new(config, 1);
//!     sketch.extend(doc * 50..doc * 50 + 1000); // increasingly dissimilar
//!     index.insert(doc, &sketch.registers().to_vec());
//! }
//! let candidates = index.query(&query.registers().to_vec());
//! assert!(candidates.contains(&0)); // the near-duplicate is found
//! ```

pub mod banding;
pub mod index;

pub use banding::Banding;
pub use index::{collision_curve, LshConfigError, LshIndex};
