//! Umbrella crate of the SetSketch reproduction workspace.
//!
//! Re-exports every member crate so the runnable examples and the
//! cross-crate integration tests have a single dependency root. Library
//! users should depend on the individual crates directly:
//!
//! * [`setsketch`] — the paper's contribution;
//! * [`minhash`], [`hyperloglog`], [`hyperminhash`] — the baselines
//!   the paper evaluates against;
//! * [`sketch_core`] — the one sketch trait the store and cluster serve
//!   through, implemented by SetSketch;
//! * [`sketch_store`] — the concurrent sharded registry of named sketches;
//! * [`lsh`] — similarity search on sketch signatures;
//! * [`sketch_rand`], [`sketch_math`] — the substrates;
//! * [`simulation`] — the figure-regeneration harness.
//!
//! The README below is included verbatim so its quick-start snippet is
//! compiled and run as a doctest.
#![doc = include_str!("../README.md")]

pub use hyperloglog;
pub use hyperminhash;
pub use lsh;
pub use minhash;
pub use setsketch;
pub use simulation;
pub use sketch_core;
pub use sketch_math;
pub use sketch_rand;
pub use sketch_store;
