//! # sketch-core
//!
//! The one trait the serving path programs against.
//!
//! The paper's point is that one structure does all of it: Algorithm 1
//! records elements, the register-wise maximum merges, §3.1 and §3.2
//! estimate cardinality and joint quantities, and §3.3's registers are
//! locality-sensitive signatures. [`Sketch`] is that surface — what the
//! sharded `sketch-store` registry, the cluster and the end-to-end
//! benchmark call without naming the type. `SetSketch1`/`SetSketch2`
//! implement it; the paper's other families (GHLL, the MinHash
//! variants, HyperMinHash) stay baselines behind their own inherent
//! APIs and do not depend on this crate.
//!
//! [`centroid`] holds the signature-space geometry (estimated Jaccard
//! distance between register signatures, per-register-mode centroids)
//! under the store's clustered ANN index.
//!
//! ```
//! use setsketch::{SetSketch1, SetSketchConfig};
//! use sketch_core::Sketch;
//!
//! /// Union cardinality of partial sketches, for any implementor.
//! fn distributed_count<S: Sketch>(partials: &[S]) -> Result<f64, S::Incompatible> {
//!     let mut union = partials[0].clone();
//!     union.merge_many(&partials[1..])?;
//!     Ok(union.cardinality())
//! }
//!
//! let config = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
//! let mut a = SetSketch1::new(config, 7);
//! let mut b = SetSketch1::new(config, 7);
//! Sketch::insert_batch(&mut a, &(0..6_000).collect::<Vec<u64>>());
//! Sketch::insert_batch(&mut b, &(4_000..10_000).collect::<Vec<u64>>());
//! let estimate = distributed_count(&[a, b]).unwrap();
//! assert!((estimate / 10_000.0 - 1.0).abs() < 0.1);
//! ```

#![warn(missing_docs)]

pub mod centroid;

pub use centroid::{collision_fraction, estimated_jaccard, signature_distance};
// Re-exported so downstream code can name the joint-estimation result
// and register-comparison types without depending on sketch-math
// directly.
pub use sketch_math::{invert_collision_probability, JointCounts, JointQuantities};

/// A mergeable set sketch: record, merge, estimate, sign and compress.
///
/// Laws every implementation keeps:
///
/// * **Set semantics** — recording is idempotent and commutative, and
///   merging is union: the merged state equals the state built from the
///   union of both operands' streams. Merge is therefore idempotent,
///   associative and commutative, the algebra replication relies on.
/// * **Exact change signals** — [`insert_batch_changed`] and
///   [`merge_from`] answer `true` exactly when the state changed. A
///   store treats a write that changed nothing as a read (no log
///   record, no version bump), and a replication mesh quiesces because
///   echoes of state a node already holds answer `false`.
/// * **Faithful codec** — `decompress(&prototype, &s.compress())`
///   rebuilds a state equal to `s` in every observable way; the bytes
///   may omit configuration and seed, which `decompress` takes from a
///   `prototype` built by the same factory, and malformed bytes are an
///   error, never a panic.
///
/// ```
/// use setsketch::{SetSketch2, SetSketchConfig};
/// use sketch_core::Sketch;
///
/// let config = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
/// let prototype = SetSketch2::new(config, 3);
/// let mut sketch = prototype.clone();
/// assert!(sketch.insert_batch_changed(&[1, 2, 3]));
/// assert!(!sketch.insert_batch_changed(&[3, 2, 1]), "a repeat changes nothing");
/// let restored = SetSketch2::decompress(&prototype, &sketch.compress()).unwrap();
/// assert_eq!(restored, sketch);
/// ```
///
/// [`insert_batch_changed`]: Self::insert_batch_changed
/// [`merge_from`]: Self::merge_from
pub trait Sketch: Clone + PartialEq + Send + Sync + 'static {
    /// Error for operands that cannot be merged or jointly estimated
    /// (configuration or hash-seed mismatch).
    type Incompatible: std::error::Error + Send + Sync + 'static;

    /// Error for malformed compressed bytes.
    type DecodeError: std::error::Error + Send + Sync + 'static;

    /// Records every element of the batch and returns whether the state
    /// changed (exactly — see the trait laws).
    fn insert_batch_changed(&mut self, elements: &[u64]) -> bool;

    /// Records every element of the batch.
    fn insert_batch(&mut self, elements: &[u64]) {
        self.insert_batch_changed(elements);
    }

    /// Records an arbitrary byte string, hashed with the sketch's seed.
    /// `insert_bytes(b"x")` and a batch holding `b'x' as u64` record
    /// different elements.
    fn insert_bytes(&mut self, bytes: &[u8]);

    /// Merges `other` into `self` (union) and returns whether `self`
    /// changed (exactly — see the trait laws).
    fn merge_from(&mut self, other: &Self) -> Result<bool, Self::Incompatible>;

    /// Merges every sketch of the iterator into `self` (union). On an
    /// error, operands already absorbed stay merged and `self` stays
    /// internally consistent.
    fn merge_many<'a, I>(&mut self, others: I) -> Result<(), Self::Incompatible>
    where
        I: IntoIterator<Item = &'a Self>;

    /// Estimated number of distinct recorded elements (0 when empty).
    fn cardinality(&self) -> f64;

    /// Estimates the joint quantities (Jaccard, intersection, union,
    /// differences, …) of the pair `(self, other)`.
    fn joint(&self, other: &Self) -> Result<JointQuantities, Self::Incompatible>;

    /// [`joint`](Self::joint) with the pair's cardinalities supplied:
    /// given `n_u = self.cardinality()` and `n_v = other.cardinality()`
    /// the result is `joint`'s bit for bit, so a caller verifying many
    /// pairs over few sketches estimates each cardinality once.
    fn joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, Self::Incompatible>;

    /// Number of `u32` registers in the LSH signature (constant per
    /// configuration).
    fn signature_len(&self) -> usize;

    /// Writes the register signature into `out` (cleared first, then
    /// filled with exactly [`signature_len`](Self::signature_len)
    /// values). Equal states give equal signatures.
    fn signature_into(&self, out: &mut Vec<u32>);

    /// The register signature as a freshly allocated vector.
    fn signature(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.signature_into(&mut out);
        out
    }

    /// Probability, or a lower bound of it, that one signature register
    /// of two compatible sketches is equal when their sets have Jaccard
    /// similarity `jaccard`. Banding tuners translate thresholds with it;
    /// a lower bound keeps the tuned recall conservative.
    fn register_collision_probability(&self, jaccard: f64) -> f64;

    /// True when signature registers are ordinal scale values, so a ±1
    /// perturbation names a plausible near-miss register state. The
    /// store always multi-probes; the end-to-end benchmark reads this to
    /// mirror that probe in a bare LSH index.
    fn ordinal_registers(&self) -> bool;

    /// Encodes the state into compressed bytes.
    fn compress(&self) -> Vec<u8>;

    /// Rebuilds a state from [`compress`](Self::compress) output, taking
    /// configuration, seed and shared tables from `prototype`.
    fn decompress(prototype: &Self, bytes: &[u8]) -> Result<Self, Self::DecodeError>;

    /// Bytes this state keeps resident, heap allocations included — what
    /// a memory budget counts.
    fn resident_bytes(&self) -> usize;
}
