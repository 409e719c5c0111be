//! b-bit minwise hashing (Li & König 2010; paper §1.2).
//!
//! A finalization step that keeps only the lowest `bits` bits of each
//! MinHash component. The collision probability of a b-bit component is
//! approximately `J + (1 − J)·2^{-bits}` (for sets of comparable size whose
//! cardinality is much larger than m), so the Jaccard similarity can still
//! be estimated after shrinking the signature by an order of magnitude —
//! at the price of losing mergeability, exactly as the paper describes.

use crate::classic::MinHash;
use sketch_math::{pack_bits, unpack_bits};

/// A finalized b-bit signature. It can be compared but no longer updated
/// or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BBitSignature {
    bits: u32,
    seed: u64,
    /// Component remainders packed `bits` bits each by
    /// [`sketch_math::pack_bits`].
    packed: Vec<u8>,
    m: usize,
}

impl BBitSignature {
    /// Finalizes a MinHash signature to `bits`-bit components.
    ///
    /// # Panics
    /// Panics if `bits` is not in `1..=16`.
    pub fn from_minhash(minhash: &MinHash, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        let mask = (1u64 << bits) - 1;
        let remainders: Vec<u16> = minhash
            .values()
            .iter()
            .map(|&v| (v & mask) as u16)
            .collect();
        Self {
            bits,
            seed: minhash.seed(),
            packed: pack_bits(&remainders, bits),
            m: minhash.m(),
        }
    }

    /// Size of the packed signature in bytes.
    #[cfg(test)]
    fn packed_bytes(&self) -> usize {
        self.packed.len()
    }

    /// The `bits`-bit components.
    fn components(&self) -> Vec<u16> {
        unpack_bits(&self.packed, self.m, self.bits, (1 << self.bits) - 1)
            .expect("packed by from_minhash")
    }

    /// Reads component `i`.
    #[cfg(test)]
    fn component(&self, i: usize) -> u64 {
        u64::from(self.components()[i])
    }

    /// Fraction of equal components.
    ///
    /// # Panics
    /// Panics if the signatures differ in length, width or seed.
    fn collision_fraction(&self, other: &Self) -> f64 {
        assert_eq!(self.m, other.m, "signature length mismatch");
        assert_eq!(self.bits, other.bits, "signature width mismatch");
        assert_eq!(self.seed, other.seed, "signature seed mismatch");
        let equal = self
            .components()
            .iter()
            .zip(other.components())
            .filter(|&(&a, b)| a == b)
            .count();
        equal as f64 / self.m as f64
    }

    /// Jaccard estimate with the accidental-collision correction
    /// `Ĵ = (E − C)/(1 − C)` with `C = 2^{-bits}`.
    pub fn estimate_jaccard(&self, other: &Self) -> f64 {
        let e = self.collision_fraction(other);
        let c = (0.5f64).powi(self.bits as i32);
        ((e - c) / (1.0 - c)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minhash_pair(m: usize, n1: u64, n2: u64, n3: u64) -> (MinHash, MinHash) {
        let mut u = MinHash::new(m, 11);
        let mut v = MinHash::new(m, 11);
        u.extend(0..n1);
        v.extend(1_000_000..1_000_000 + n2);
        for e in 2_000_000..2_000_000 + n3 {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        (u, v)
    }

    #[test]
    fn identical_signatures_estimate_one() {
        let (u, _) = minhash_pair(256, 0, 0, 1000);
        let a = BBitSignature::from_minhash(&u, 4);
        let b = BBitSignature::from_minhash(&u, 4);
        assert_eq!(a.collision_fraction(&b), 1.0);
        assert_eq!(a.estimate_jaccard(&b), 1.0);
    }

    #[test]
    fn estimates_high_similarity_accurately() {
        // b-bit hashing shines for high similarities: J = 0.9.
        let (u, v) = minhash_pair(4096, 500, 500, 9000);
        let a = BBitSignature::from_minhash(&u, 2);
        let b = BBitSignature::from_minhash(&v, 2);
        let j = a.estimate_jaccard(&b);
        assert!((j - 0.9).abs() < 0.04, "jaccard {j}");
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let (u, v) = minhash_pair(4096, 5000, 5000, 0);
        let a = BBitSignature::from_minhash(&u, 8);
        let b = BBitSignature::from_minhash(&v, 8);
        assert!(a.estimate_jaccard(&b) < 0.03);
    }

    #[test]
    fn collision_floor_matches_bit_width() {
        // Unrelated signatures collide with probability ~2^-bits.
        let (u, v) = minhash_pair(8192, 20_000, 20_000, 0);
        for bits in [1u32, 2, 4] {
            let a = BBitSignature::from_minhash(&u, bits);
            let b = BBitSignature::from_minhash(&v, bits);
            let e = a.collision_fraction(&b);
            let c = (0.5f64).powi(bits as i32);
            assert!((e - c).abs() < 0.03, "bits={bits}: fraction {e} vs {c}");
        }
    }

    #[test]
    fn packing_is_lossless() {
        let (u, _) = minhash_pair(257, 300, 0, 0);
        for bits in [1u32, 3, 5, 7, 11, 16] {
            let sig = BBitSignature::from_minhash(&u, bits);
            let mask = (1u64 << bits) - 1;
            for (i, &v) in u.values().iter().enumerate() {
                assert_eq!(sig.component(i), v & mask, "bits={bits} i={i}");
            }
        }
    }

    #[test]
    fn signature_is_much_smaller_than_minhash() {
        let (u, _) = minhash_pair(4096, 1000, 0, 0);
        let sig = BBitSignature::from_minhash(&u, 2);
        // 4096 components * 2 bits = 1 kB versus 32 kB of 64-bit values.
        assert_eq!(sig.packed_bytes(), 1024);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=16")]
    fn rejects_zero_bits() {
        let (u, _) = minhash_pair(16, 10, 0, 0);
        BBitSignature::from_minhash(&u, 0);
    }
}
