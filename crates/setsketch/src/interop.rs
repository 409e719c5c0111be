//! The [`sketch_core::Sketch`] implementation for SetSketch.
//!
//! It lets SetSketch serve from code written against the serving path's
//! one trait (the sharded sketch store, the cluster, the benchmarks)
//! without giving up any of the inherent API. SetSketch1/2 are its only
//! implementations.

use crate::locality::collision_probability_bounds;
use crate::sequence::ValueSequence;
use crate::sketch::{IncompatibleSketches, SetSketch};
use sketch_core::{JointQuantities, Sketch};
use sketch_math::{BitPackError, Registers};
use sketch_rand::hash_bytes;

impl<S: ValueSequence> Sketch for SetSketch<S> {
    type Incompatible = IncompatibleSketches;
    type DecodeError = BitPackError;

    /// Batched Algorithm 1 (the inherent [`SetSketch::insert_batch`]):
    /// the batch is sorted and deduplicated, so repeated elements never
    /// touch the registers, and applied in value order — passes that
    /// apply only hash values below a bound doubling up to `b^{−K_low}`
    /// (paper §2.2) — so filling an empty sketch costs a few register
    /// steps per element, and a batch into a filled sketch is one pass
    /// with the per-element early exit. The answer is exact: `true`
    /// exactly when a register rose.
    fn insert_batch_changed(&mut self, elements: &[u64]) -> bool {
        SetSketch::insert_batch(self, elements)
    }

    fn insert_bytes(&mut self, bytes: &[u8]) {
        let hash = hash_bytes(bytes, self.seed());
        self.insert_hash(hash);
    }

    fn merge_from(&mut self, other: &Self) -> Result<bool, IncompatibleSketches> {
        self.merge(other)
    }

    /// Batched union over the register kernels: every operand runs the
    /// fused max-merge pass, the estimator histogram is rebuilt once at
    /// the end ([`SetSketch::merge_all`]).
    fn merge_many<'a, I>(&mut self, others: I) -> Result<(), IncompatibleSketches>
    where
        I: IntoIterator<Item = &'a Self>,
    {
        self.merge_all(others)
    }

    fn cardinality(&self) -> f64 {
        self.estimate_cardinality()
    }

    fn joint(&self, other: &Self) -> Result<JointQuantities, IncompatibleSketches> {
        Ok(self.estimate_joint(other)?.quantities)
    }

    fn joint_with_cardinalities(
        &self,
        other: &Self,
        n_u: f64,
        n_v: f64,
    ) -> Result<JointQuantities, IncompatibleSketches> {
        Ok(self
            .estimate_joint_with_cardinalities(other, n_u, n_v)?
            .quantities)
    }

    fn signature_len(&self) -> usize {
        self.m()
    }

    /// SetSketch registers *are* the LSH signature (paper §3.3): no
    /// reduction step, the m registers are widened to `u32` as-is.
    fn signature_into(&self, out: &mut Vec<u32>) {
        self.registers().widen_into(out);
    }

    /// The §3.3 *lower* collision-probability bound
    /// `log_b(1 + J(b−1))`, valid for every cardinality ratio — using
    /// the lower bound keeps banding auto-tuners conservative (the true
    /// register agreement, and hence recall, can only be higher).
    fn register_collision_probability(&self, jaccard: f64) -> f64 {
        collision_probability_bounds(self.config().b(), jaccard).0
    }

    /// Registers are ordinal `⌊1 − log_b h⌋` values: ±1 is the nearest
    /// miss, which is why the store's query engine always multi-probes.
    fn ordinal_registers(&self) -> bool {
        true
    }

    /// Registers as offsets from the tight minimum (the `K_low` bound
    /// the sketch already maintains incrementally, §2.2) plus a sparse
    /// exception list — the [`sketch_math::bitpack::pack_offsets`] layout,
    /// packed straight from the resident lanes. For base-2
    /// configurations registers concentrate within a few values of
    /// `K_low`: at m = 4096, q = 62, filled with 10⁴ or 10⁶ elements,
    /// the codec picks 4-bit offsets with at most one exception (about 4
    /// bits per register), two thirds of the paper's 6-bit packing and
    /// half of the resident byte lanes.
    fn compress(&self) -> Vec<u8> {
        self.registers().pack_offsets()
    }

    /// Decodes straight into a register array of the prototype's lane
    /// width — validating each value against `q + 1` while narrowing —
    /// and builds the sketch around it with the prototype's
    /// configuration, seed, power table and value sequence (shared, not
    /// rebuilt); the estimator histogram and `K_low` are recomputed from
    /// the decoded registers, so the result is indistinguishable from
    /// the never-compressed state.
    fn decompress(prototype: &Self, bytes: &[u8]) -> Result<Self, BitPackError> {
        let registers =
            Registers::unpack_offsets(bytes, prototype.m(), prototype.config().q() + 1)?;
        Ok(prototype.with_registers(registers))
    }

    fn resident_bytes(&self) -> usize {
        self.memory_footprint()
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SetSketchConfig;
    use crate::sketch::{SetSketch1, SetSketch2};
    use sketch_core::Sketch;

    fn config() -> SetSketchConfig {
        SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap()
    }

    #[test]
    fn compact_roundtrip_is_bit_identical() {
        for config in [config(), SetSketchConfig::example_16bit()] {
            let prototype = SetSketch2::new(config, 11);
            let mut sketch = SetSketch2::new(config, 11);
            sketch.insert_batch(&(0..10_000u64).collect::<Vec<_>>());
            let bytes = sketch.compress();
            let restored = SetSketch2::decompress(&prototype, &bytes).unwrap();
            assert_eq!(restored, sketch);
            // The live k_low is a lazily-raised lower bound; the rescan
            // on decompress may only tighten it, never loosen it.
            assert!(restored.k_low() >= sketch.k_low());
            assert_eq!(
                restored.estimate_cardinality().to_bits(),
                sketch.estimate_cardinality().to_bits()
            );
            assert!(SetSketch2::decompress(&prototype, &bytes[..bytes.len() - 1]).is_err());
        }
        // On the dense base-2 configuration the offset codec must beat
        // both the resident byte lanes (by 2×) and the paper's fixed
        // 6-bit packing, or the warm tier has nothing to offer.
        let mut dense = SetSketch1::new(SetSketchConfig::new(4096, 2.0, 20.0, 62).unwrap(), 11);
        dense.insert_batch(&(0..100_000u64).collect::<Vec<_>>());
        let packed = dense.compress();
        assert!(packed.len() * 2 < dense.memory_footprint());
        assert!(packed.len() < dense.config().packed_bytes());
    }

    #[test]
    fn batch_insert_equals_loop() {
        let elements: Vec<u64> = (0..5_000).map(|i| i % 3_000).collect();
        let mut batched = SetSketch1::new(config(), 3);
        let mut looped = SetSketch1::new(config(), 3);
        // Through the trait, which must route to the inherent fast path.
        Sketch::insert_batch(&mut batched, &elements);
        for &e in &elements {
            looped.insert_u64(e);
        }
        assert_eq!(batched, looped);
        assert_eq!(batched.register_histogram(), looped.register_histogram());

        let mut batched2 = SetSketch2::new(config(), 3);
        let mut looped2 = SetSketch2::new(config(), 3);
        batched2.insert_batch(&elements);
        for &e in &elements {
            looped2.insert_u64(e);
        }
        assert_eq!(batched2, looped2);
        assert_eq!(batched2.register_histogram(), looped2.register_histogram());
    }

    #[test]
    fn signature_default_allocates_and_matches_into() {
        let mut sketch = SetSketch1::new(config(), 3);
        sketch.insert_batch(&[1, 2, 3, 9]);
        let mut scratch = vec![99; 1024]; // stale contents must be cleared
        sketch.signature_into(&mut scratch);
        assert_eq!(scratch.len(), sketch.signature_len());
        assert_eq!(sketch.signature(), scratch);
        assert_eq!(scratch, sketch.registers().to_vec());
    }

    #[test]
    fn batch_insert_is_incremental() {
        // Splitting a stream into batches must give the same state as one
        // big batch (the override may not depend on seeing everything).
        let elements: Vec<u64> = (0..4_000).collect();
        let mut whole = SetSketch1::new(config(), 5);
        whole.insert_batch(&elements);
        let mut chunked = SetSketch1::new(config(), 5);
        for chunk in elements.chunks(700) {
            chunked.insert_batch(chunk);
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn trait_estimators_match_inherent() {
        let mut a = SetSketch1::new(config(), 1);
        let mut b = SetSketch1::new(config(), 1);
        a.insert_batch(&(0..10_000).collect::<Vec<_>>());
        b.insert_batch(&(5_000..15_000).collect::<Vec<_>>());
        assert_eq!(a.cardinality(), a.estimate_cardinality());
        let joint = Sketch::joint(&a, &b).unwrap();
        assert_eq!(joint, a.estimate_joint(&b).unwrap().quantities);
        let mut merged = a.clone();
        assert!(Sketch::merge_from(&mut merged, &b).unwrap());
        assert_eq!(merged, a.merged(&b).unwrap());
    }

    #[test]
    fn merge_many_equals_sequential_merges() {
        let partials: Vec<SetSketch1> = (0..5u64)
            .map(|i| {
                let mut s = SetSketch1::new(config(), 9);
                s.extend(i * 800..(i + 1) * 800 + 300);
                s
            })
            .collect();
        let mut batched = partials[0].clone();
        batched.merge_many(&partials[1..]).unwrap();
        let mut sequential = partials[0].clone();
        for p in &partials[1..] {
            sequential.merge_from(p).unwrap();
        }
        assert_eq!(batched, sequential);
        assert_eq!(batched.k_low(), sequential.k_low());
        assert_eq!(
            batched.register_histogram(),
            sequential.register_histogram()
        );
    }

    #[test]
    fn merge_many_error_leaves_consistent_state() {
        let mut target = SetSketch1::new(config(), 9);
        target.extend(0..500);
        let mut good = SetSketch1::new(config(), 9);
        good.extend(500..1000);
        let mut bad = SetSketch1::new(config(), 10); // wrong seed
        bad.extend(0..100);
        assert!(target.merge_many([&good, &bad]).is_err());
        // The compatible operand was absorbed and the histogram matches
        // the registers.
        let expected = {
            let mut s = SetSketch1::new(config(), 9);
            s.extend(0..1000);
            s
        };
        assert_eq!(target, expected);
        assert_eq!(target.register_histogram(), expected.register_histogram());
    }

    #[test]
    fn insert_bytes_is_deterministic_and_distinct() {
        let mut a = SetSketch1::new(config(), 1);
        let mut b = SetSketch1::new(config(), 1);
        Sketch::insert_bytes(&mut a, b"alpha");
        Sketch::insert_bytes(&mut b, b"alpha");
        assert_eq!(a, b);
        Sketch::insert_bytes(&mut b, b"beta");
        assert_ne!(a, b);
    }
}
