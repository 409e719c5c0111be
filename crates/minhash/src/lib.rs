//! MinHash-family baselines for the SetSketch reproduction.
//!
//! The paper compares SetSketch against minwise-hashing sketches and also
//! *contributes* a new closed-form joint estimator for them (eq. (17),
//! §4.1) that dominates the classic fraction-of-equal-components
//! estimator. This crate implements:
//!
//! * [`MinHash`] — the classic m-hash-function signature (O(m) insert)
//!   with the cardinality estimator (16), the classic and the new joint
//!   estimators, and inclusion–exclusion;
//! * [`BBitSignature`] — b-bit minwise hashing, the space-reduction
//!   finalization the paper positions SetSketch against (§3.3).
//!
//! ```
//! use minhash::MinHash;
//!
//! let mut doc_a = MinHash::new(1024, 7);
//! let mut doc_b = MinHash::new(1024, 7);
//! doc_a.extend(0..1000);           // shingles of document A
//! doc_b.extend(500..1500);         // shingles of document B
//!
//! let joint = doc_a.estimate_joint(&doc_b).unwrap();
//! assert!((joint.jaccard - 1.0 / 3.0).abs() < 0.06);
//! ```

mod bbit;
mod classic;

pub use bbit::BBitSignature;
pub use classic::{IncompatibleMinHash, MinHash};
