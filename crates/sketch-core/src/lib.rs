//! # sketch-core
//!
//! The unifying trait layer over the workspace's sketch families.
//!
//! The SetSketch paper positions its data structure on a continuum with
//! MinHash and HyperLogLog (and HyperMinHash in between), yet every
//! sketch family historically grows its own ad-hoc insert/merge/estimate
//! API. This crate defines the common vocabulary so that anything built
//! on top — the sharded `sketch-store` registry, benchmarks, simulation
//! drivers — can treat sketches interchangeably:
//!
//! * [`Sketch`] — element recording ([`insert_u64`](Sketch::insert_u64),
//!   [`insert_bytes`](Sketch::insert_bytes)); object safe, so
//!   `Box<dyn Sketch>` collections work;
//! * [`BatchInsert`] — batched recording with a default per-element loop
//!   that concrete sketches can override (SetSketch sorts and
//!   deduplicates the batch so Algorithm 1's `K_low` lower-bound early
//!   exit tightens as the batch proceeds);
//! * [`Mergeable`] — distributed aggregation: compatibility checking and
//!   idempotent, commutative union merging;
//! * [`CardinalityEstimator`] — distinct-count estimation;
//! * [`JointEstimator`] — two-sketch joint estimation (Jaccard,
//!   intersection, union, …) returning the full [`JointQuantities`];
//! * [`CompactSketch`] — lossless compressed byte representations, the
//!   contract behind the sketch store's warm/frozen memory tiers
//!   ([`compact`] module);
//! * [`centroid`] — signature-space geometry (estimated Jaccard
//!   distance between register signatures, per-register-mode
//!   centroids), the substrate of the store's clustered ANN index.
//!
//! The traits are implemented by `SetSketch1`/`SetSketch2`, the GHLL
//! sketch (HyperLogLog), the MinHash family (`MinHash`, `SuperMinHash`,
//! `OnePermutationHashing`) and `HyperMinHash` in their respective
//! crates.
//!
//! ## Example
//!
//! The traits carry enough structure to write estimation pipelines that
//! are generic over the sketch family:
//!
//! ```
//! use sketch_core::{CardinalityEstimator, Mergeable, Sketch};
//!
//! /// An exact "sketch" for illustration: a plain hash set.
//! #[derive(Clone, Default)]
//! struct Exact(std::collections::HashSet<u64>);
//!
//! impl Sketch for Exact {
//!     fn insert_u64(&mut self, element: u64) {
//!         self.0.insert(element);
//!     }
//!     fn insert_bytes(&mut self, bytes: &[u8]) {
//!         // A toy 64-bit digest; real sketches use their seeded hash.
//!         let mut h = 0xcbf2_9ce4_8422_2325u64;
//!         for &b in bytes {
//!             h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
//!         }
//!         self.0.insert(h);
//!     }
//! }
//!
//! impl Mergeable for Exact {
//!     type MergeError = std::convert::Infallible;
//!     fn is_compatible(&self, _other: &Self) -> bool {
//!         true
//!     }
//!     fn merge_from(&mut self, other: &Self) -> Result<bool, Self::MergeError> {
//!         let before = self.0.len();
//!         self.0.extend(&other.0);
//!         Ok(self.0.len() > before)
//!     }
//! }
//!
//! impl CardinalityEstimator for Exact {
//!     fn cardinality(&self) -> f64 {
//!         self.0.len() as f64
//!     }
//! }
//!
//! /// Works for Exact above and for every real sketch in the workspace.
//! fn distributed_count<S: Mergeable + CardinalityEstimator + Clone>(
//!     partials: &[S],
//! ) -> Result<f64, S::MergeError> {
//!     let mut iter = partials.iter();
//!     let Some(first) = iter.next() else {
//!         return Ok(0.0);
//!     };
//!     let mut merged = first.clone();
//!     for partial in iter {
//!         merged.merge_from(partial)?;
//!     }
//!     Ok(merged.cardinality())
//! }
//!
//! let mut a = Exact::default();
//! let mut b = Exact::default();
//! a.insert_u64(1);
//! a.insert_u64(2);
//! b.insert_u64(2);
//! b.insert_u64(3);
//! assert_eq!(distributed_count(&[a, b]).unwrap(), 3.0);
//! ```

#![warn(missing_docs)]

pub mod centroid;
pub mod compact;

pub use centroid::{collision_fraction, estimated_jaccard, signature_distance};
pub use compact::CompactSketch;
// Re-exported so downstream code can name the joint-estimation result
// and register-comparison types without depending on sketch-math
// directly.
pub use sketch_math::{invert_collision_probability, JointCounts, JointQuantities};

/// A mutable data sketch over a stream of set elements.
///
/// Inserts must be **idempotent** (recording an element twice equals
/// recording it once) and **commutative** (the final state does not
/// depend on insertion order). Every sketch in this workspace satisfies
/// both laws; they are what make sketches mergeable and safe to feed
/// from at-least-once delivery pipelines.
///
/// The trait is object safe: heterogeneous `Vec<Box<dyn Sketch>>`
/// collections work.
///
/// ```
/// use sketch_core::Sketch;
///
/// fn record_user(sketches: &mut [Box<dyn Sketch>], user_id: u64) {
///     for sketch in sketches {
///         sketch.insert_u64(user_id);
///     }
/// }
/// ```
pub trait Sketch {
    /// Records a 64-bit element (hashed internally with the sketch's own
    /// seed).
    fn insert_u64(&mut self, element: u64);

    /// Records an arbitrary byte string (hashed internally with the
    /// sketch's own seed).
    ///
    /// Note: `insert_bytes(b"x")` and `insert_u64(b'x' as u64)` record
    /// *different* elements — the two entry points hash into disjoint
    /// streams and must not be mixed for the same logical element.
    fn insert_bytes(&mut self, bytes: &[u8]);

    /// Records a string element; equivalent to inserting its UTF-8 bytes.
    fn insert_str(&mut self, element: &str) {
        self.insert_bytes(element.as_bytes());
    }
}

/// Batched element recording.
///
/// The default implementation loops [`Sketch::insert_u64`]. Sketches
/// with sub-linear per-element behavior override
/// [`insert_batch_changed`](Self::insert_batch_changed): `SetSketch`
/// hashes the whole batch up front, sorts and deduplicates the hashes
/// (repeated elements are dropped before touching Algorithm 1), and then
/// relies on its `K_low` lower-bound early exit — which only tightens as
/// the batch proceeds — to discard most remaining elements after one
/// comparison.
pub trait BatchInsert: Sketch {
    /// Records every element of the batch.
    ///
    /// Semantically identical to inserting each element individually —
    /// overrides may only change the cost, never the resulting state.
    /// The default runs [`insert_batch_changed`](Self::insert_batch_changed)
    /// and drops its answer.
    fn insert_batch(&mut self, elements: &[u64]) {
        self.insert_batch_changed(elements);
    }

    /// Records every element of the batch, like
    /// [`insert_batch`](Self::insert_batch), and returns whether the
    /// state changed. `false` must be exact — the batch left the sketch
    /// as it was, so a store may treat the write as a read (no log
    /// record, no version bump); `true` is always safe. The default
    /// loops [`Sketch::insert_u64`] and answers `true`; SetSketch answers
    /// exactly, from the register raises Algorithm 1 already branches on.
    fn insert_batch_changed(&mut self, elements: &[u64]) -> bool {
        for &element in elements {
            self.insert_u64(element);
        }
        true
    }
}

/// A sketch state that supports union merging.
///
/// Merging must implement *set union* semantics: the merged state equals
/// the state produced by inserting the union of both operands' streams.
/// Together with insert idempotency this makes merging idempotent,
/// associative and commutative — the algebra distributed aggregation
/// relies on.
pub trait Mergeable: Sized {
    /// Error returned when the operands cannot be combined (configuration
    /// or hash-seed mismatch, typically).
    type MergeError: std::error::Error + Send + Sync + 'static;

    /// True if `self` and `other` can be merged or jointly estimated.
    fn is_compatible(&self, other: &Self) -> bool;

    /// Merges `other` into `self` (union semantics) and returns whether
    /// `self` changed. The answer must be exact both ways: a store keeps
    /// a key's version when a merge changed nothing, and a replication
    /// mesh quiesces only because echoes of state a node already holds
    /// answer `false`.
    fn merge_from(&mut self, other: &Self) -> Result<bool, Self::MergeError>;

    /// Returns the union sketch of `self` and `other`, leaving both
    /// operands untouched.
    fn merged_with(&self, other: &Self) -> Result<Self, Self::MergeError>
    where
        Self: Clone,
    {
        let mut merged = self.clone();
        merged.merge_from(other)?;
        Ok(merged)
    }

    /// Merges every sketch of the iterator into `self` (union
    /// semantics).
    ///
    /// The default loops [`merge_from`](Self::merge_from); sketches with
    /// batched register kernels override it to amortize per-merge
    /// bookkeeping across the whole batch (SetSketch runs one fused
    /// max-merge pass per operand and rebuilds its estimator histogram
    /// once at the end). On an incompatibility error, operands already
    /// absorbed stay merged — union semantics make partial application
    /// harmless, and implementations must leave `self` internally
    /// consistent.
    fn merge_many<'a, I>(&mut self, others: I) -> Result<(), Self::MergeError>
    where
        I: IntoIterator<Item = &'a Self>,
        Self: 'a,
    {
        for other in others {
            self.merge_from(other)?;
        }
        Ok(())
    }
}

/// Extraction of a locality-sensitive register signature from a sketch
/// state, for use as banding-LSH input (paper §3.3).
///
/// The SetSketch paper shows that register *equality* between two
/// sketches happens with a probability that is a monotonic function of
/// the Jaccard similarity of the underlying sets — the defining property
/// of a locality-sensitive hash family. Any sketch whose state is (or
/// reduces to) a fixed-length array of values with that property can
/// implement this trait and plug into the `lsh` banding index and the
/// sketch store's similarity query engine without materializing a
/// separate MinHash signature.
///
/// Implementations must be **deterministic** (equal states produce equal
/// signatures) and **state-faithful**: two compatible sketches built from
/// the same element stream produce identical signatures. The signature
/// length must be constant for a given sketch configuration.
pub trait Signature {
    /// Number of `u32` registers in the extracted signature (constant
    /// per configuration; typically the sketch's `m`).
    fn signature_len(&self) -> usize;

    /// Writes the signature into `out` (cleared first, then filled with
    /// exactly [`signature_len`](Self::signature_len) registers). Taking
    /// a caller-owned buffer lets bulk extraction over many sketches
    /// reuse one allocation.
    fn signature_into(&self, out: &mut Vec<u32>);

    /// The extracted signature as a freshly allocated vector.
    fn signature(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.signature_into(&mut out);
        out
    }

    /// Probability (or a conservative lower bound) that one signature
    /// register of two compatible sketches is equal, as a function of the
    /// Jaccard similarity `jaccard` of the underlying sets.
    ///
    /// Banding auto-tuners use this to translate a Jaccard threshold
    /// into band/row counts; returning a *lower* bound keeps the tuned
    /// recall conservative. The default is the exact MinHash collision
    /// probability `P = J`; register-scale sketches override it with
    /// their family's bound (SetSketch: paper §3.3, eq. (14)).
    fn register_collision_probability(&self, jaccard: f64) -> f64 {
        jaccard
    }

    /// True when signature registers are small *ordinal* scale values —
    /// SetSketch/GHLL-style `⌊1 − log_b h⌋` registers — where a ±1
    /// perturbation names a plausible near-miss register state.
    /// Multi-probe LSH queries are only worthwhile for such signatures;
    /// for folded-hash registers (the MinHash family) a perturbed value
    /// is just another random hash and probing it is wasted work, so
    /// the default is `false`.
    fn ordinal_registers(&self) -> bool {
        false
    }
}

/// Distinct-count estimation from a sketch state.
pub trait CardinalityEstimator {
    /// Estimated number of distinct inserted elements.
    ///
    /// Implementations use their family's best calibration-free
    /// estimator (e.g. the corrected estimator (18) for SetSketch and
    /// GHLL); an empty sketch estimates 0.
    fn cardinality(&self) -> f64;
}

/// Joint (two-sketch) estimation: Jaccard similarity, intersection and
/// union sizes, set differences, cosine, inclusion coefficients.
pub trait JointEstimator: Mergeable {
    /// Error returned when the pair cannot be jointly estimated.
    type JointError: std::error::Error + Send + Sync + 'static;

    /// Estimates all joint quantities for the pair `(self, other)`.
    ///
    /// Implementations use their family's best total estimator — e.g.
    /// the paper's order-based maximum-likelihood estimator for
    /// SetSketch, falling back to inclusion–exclusion where the ML
    /// applicability condition fails (GHLL, §4.2).
    fn joint(&self, other: &Self) -> Result<JointQuantities, Self::JointError>;

    /// [`joint`](Self::joint) with the pair's cardinality estimates
    /// supplied by the caller: `n_u` and `n_v` must be the family's
    /// [`CardinalityEstimator::cardinality`] of `self` and `other`, and
    /// the result is then `joint`'s bit for bit. Callers that estimate
    /// many pairs over few sketches (a store's similarity verification)
    /// compute each sketch's cardinality once instead of once per pair.
    ///
    /// The default ignores the supplied values and calls `joint`;
    /// families whose joint estimator begins by estimating both
    /// cardinalities (SetSketch, MinHash) override it.
    fn joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, Self::JointError> {
        let _ = (n_u, n_v);
        self.joint(other)
    }

    /// Estimated Jaccard similarity `|A ∩ B| / |A ∪ B|`.
    fn jaccard(&self, other: &Self) -> Result<f64, Self::JointError> {
        Ok(self.joint(other)?.jaccard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic sketch for exercising the default methods.
    #[derive(Debug, Clone, PartialEq, Default)]
    struct Toy {
        elements: std::collections::BTreeSet<u64>,
    }

    impl Sketch for Toy {
        fn insert_u64(&mut self, element: u64) {
            self.elements.insert(element);
        }
        fn insert_bytes(&mut self, bytes: &[u8]) {
            let mut h = 0u64;
            for &b in bytes {
                h = h.wrapping_mul(31).wrapping_add(b as u64);
            }
            self.elements.insert(h | 1 << 63);
        }
    }

    impl BatchInsert for Toy {}

    impl Mergeable for Toy {
        type MergeError = std::convert::Infallible;
        fn is_compatible(&self, _other: &Self) -> bool {
            true
        }
        fn merge_from(&mut self, other: &Self) -> Result<bool, Self::MergeError> {
            let before = self.elements.len();
            self.elements.extend(&other.elements);
            Ok(self.elements.len() > before)
        }
    }

    impl CardinalityEstimator for Toy {
        fn cardinality(&self) -> f64 {
            self.elements.len() as f64
        }
    }

    impl JointEstimator for Toy {
        type JointError = std::convert::Infallible;
        fn joint(&self, other: &Self) -> Result<JointQuantities, Self::JointError> {
            let inter = self.elements.intersection(&other.elements).count() as f64;
            let union = self.elements.union(&other.elements).count() as f64;
            let jaccard = if union > 0.0 { inter / union } else { 0.0 };
            Ok(JointQuantities::new(
                self.cardinality(),
                other.cardinality(),
                jaccard,
            ))
        }
    }

    impl Signature for Toy {
        fn signature_len(&self) -> usize {
            4
        }
        fn signature_into(&self, out: &mut Vec<u32>) {
            out.clear();
            out.resize(4, 0);
            for &e in &self.elements {
                out[(e % 4) as usize] ^= e as u32;
            }
        }
    }

    #[test]
    fn signature_default_allocates_and_matches_into() {
        let mut toy = Toy::default();
        toy.insert_batch(&[1, 2, 3, 9]);
        let mut scratch = vec![99; 16]; // stale contents must be cleared
        toy.signature_into(&mut scratch);
        assert_eq!(scratch.len(), toy.signature_len());
        assert_eq!(toy.signature(), scratch);
        // MinHash-style default collision probability: identity in J.
        assert_eq!(toy.register_collision_probability(0.37), 0.37);
    }

    #[test]
    fn default_batch_insert_loops() {
        let mut batched = Toy::default();
        let mut looped = Toy::default();
        batched.insert_batch(&[3, 1, 2, 1]);
        for e in [3, 1, 2, 1] {
            looped.insert_u64(e);
        }
        assert_eq!(batched, looped);
        // Without an override the change signal is conservative.
        assert!(batched.insert_batch_changed(&[3]));
        assert_eq!(batched, looped);
    }

    #[test]
    fn insert_str_routes_through_bytes() {
        let mut a = Toy::default();
        let mut b = Toy::default();
        a.insert_str("hello");
        b.insert_bytes(b"hello");
        assert_eq!(a, b);
    }

    #[test]
    fn merged_with_leaves_operands_untouched() {
        let mut a = Toy::default();
        let mut b = Toy::default();
        a.insert_u64(1);
        b.insert_u64(2);
        let (a0, b0) = (a.clone(), b.clone());
        let merged = a.merged_with(&b).unwrap();
        assert_eq!(merged.cardinality(), 2.0);
        assert!(
            !a.clone().merge_from(&a0).unwrap(),
            "self-merge changes nothing"
        );
        assert_eq!(a, a0);
        assert_eq!(b, b0);
    }

    #[test]
    fn jaccard_default_reads_joint() {
        let mut a = Toy::default();
        let mut b = Toy::default();
        a.insert_batch(&[1, 2, 3]);
        b.insert_batch(&[2, 3, 4]);
        assert!((a.jaccard(&b).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sketch_is_object_safe() {
        let mut sketches: Vec<Box<dyn Sketch>> = vec![Box::new(Toy::default())];
        for sketch in &mut sketches {
            sketch.insert_u64(7);
            sketch.insert_str("seven");
        }
    }
}
