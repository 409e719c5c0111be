//! Wy-style 64-bit hashing of elements.
//!
//! Sketches summarize *hashed* elements: the paper relies on the observation
//! that the output of a high-quality hash function is indistinguishable from
//! uniform random values (§5). This module provides
//!
//! * [`hash_u64`]: a keyed permutation-quality hash for 64-bit elements
//!   (the common case in the experiments),
//! * [`hash_bytes`]: a keyed hash for arbitrary byte strings, following the
//!   wyhash construction of 128-bit multiply-folds over 16-byte stripes,
//! * [`WyHasher`]: a [`std::hash::Hasher`] so that any `T: Hash` can be
//!   inserted into the sketches.

/// First wyhash secret constant.
const S0: u64 = 0xa076_1d64_78bd_642f;
/// Second wyhash secret constant.
const S1: u64 = 0xe703_7ed1_a0b4_28db;
/// Third wyhash secret constant.
const S2: u64 = 0x8ebc_6af0_9c88_c6e3;
/// Fourth wyhash secret constant.
const S3: u64 = 0x5899_65cc_7537_4cc3;

/// 64x64 -> 128 bit multiply folded to 64 bits by xoring both halves.
#[inline]
fn mum(a: u64, b: u64) -> u64 {
    let t = (a as u128).wrapping_mul(b as u128);
    ((t >> 64) ^ t) as u64
}

/// Hashes a 64-bit value with a 64-bit seed (keyed avalanche mix).
///
/// A single multiply-fold is not enough here: sketches feed *sequential*
/// counters through this function and extract index bits from the result,
/// which exposes the structure a one-round `mum` leaves in place. The
/// SplitMix64 finalizer is built for counter inputs; keying it with a
/// mixed seed and folding once more gives seed-dependent, structure-free
/// output.
#[inline]
pub fn hash_u64(x: u64, seed: u64) -> u64 {
    let key = crate::splitmix64::mix64(seed ^ S0);
    mum(crate::splitmix64::mix64(x ^ key), key | 1)
}

/// Reads up to eight little-endian bytes as a `u64`.
#[inline]
fn read_partial(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(buf)
}

/// Reads exactly eight little-endian bytes as a `u64`.
#[inline]
fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("caller guarantees 8 bytes"))
}

/// Hashes an arbitrary byte string with a 64-bit seed.
///
/// The construction processes 16-byte stripes through alternating
/// multiply-folds (as in wyhash) and finalizes with the total length, so
/// strings that are prefixes of each other hash differently.
pub fn hash_bytes(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut a = seed ^ S0;
    let mut b = seed ^ S1;
    let mut rest = data;
    while rest.len() >= 16 {
        a = mum(read_u64(rest) ^ S2, a ^ S3);
        b = mum(read_u64(&rest[8..]) ^ S3, b ^ S2);
        rest = &rest[16..];
    }
    let (tail_a, tail_b) = if rest.len() > 8 {
        (read_u64(rest), read_partial(&rest[8..]))
    } else {
        (read_partial(rest), 0)
    };
    a = mum(tail_a ^ S2, a ^ (len as u64));
    b = mum(tail_b ^ S3, b ^ S1);
    mum(a ^ b, S0)
}

/// A [`std::hash::Hasher`] producing the same digests as [`hash_bytes`]
/// for a single `write` call; multiple writes are chained. The default
/// hasher is keyed with seed 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct WyHasher {
    state: u64,
}

impl std::hash::Hasher for WyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.state = hash_bytes(bytes, self.state);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.state = hash_u64(x, self.state);
    }
}

/// Hashes any `T: Hash` value to 64 bits with the given seed.
#[inline]
pub fn hash_of<T: std::hash::Hash + ?Sized>(value: &T, seed: u64) -> u64 {
    use std::hash::Hasher;
    let mut hasher = WyHasher { state: seed };
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_u64_is_seed_sensitive() {
        assert_ne!(hash_u64(1, 0), hash_u64(1, 1));
        assert_ne!(hash_u64(1, 0), hash_u64(2, 0));
    }

    #[test]
    fn hash_bytes_distinguishes_prefixes() {
        assert_ne!(hash_bytes(b"abc", 0), hash_bytes(b"abcd", 0));
        assert_ne!(hash_bytes(b"", 0), hash_bytes(b"\0", 0));
        assert_ne!(hash_bytes(b"\0\0", 0), hash_bytes(b"\0\0\0", 0));
    }

    #[test]
    fn hash_bytes_covers_all_tail_lengths() {
        // Exercise every code path: empty, < 8, == 8, 9..=15, 16, 17..
        let data: Vec<u8> = (0..64u8).collect();
        let mut digests = std::collections::HashSet::new();
        for len in 0..=64 {
            assert!(digests.insert(hash_bytes(&data[..len], 7)));
        }
    }

    #[test]
    fn hash_u64_avalanches() {
        let mut total = 0u32;
        let trials = 64 * 64;
        for i in 0..64u64 {
            let x = hash_u64(i, 0xabcdef);
            for j in 0..64 {
                total += (hash_u64(x, 5) ^ hash_u64(x ^ (1 << j), 5)).count_ones();
            }
        }
        let avg = total as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 1.5, "avalanche average {avg}");
    }

    #[test]
    fn hash_bytes_output_bits_are_balanced() {
        let mut ones = 0u64;
        let words = 4096u64;
        for i in 0..words {
            ones += hash_bytes(&i.to_le_bytes(), 3).count_ones() as u64;
        }
        let fraction = ones as f64 / (words * 64) as f64;
        assert!((fraction - 0.5).abs() < 0.01, "one-bit fraction {fraction}");
    }

    #[test]
    fn hasher_trait_hashes_strings() {
        let a = hash_of("hello world", 1);
        let b = hash_of("hello world", 1);
        let c = hash_of("hello worle", 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hasher_trait_separates_seeds() {
        assert_ne!(hash_of(&12345u64, 1), hash_of(&12345u64, 2));
    }

    #[test]
    fn hash_u64_of_counters_has_uniform_high_bits() {
        // Regression test: stochastic averaging extracts the register
        // index as mulhi(hash, m); sequential element ids must produce
        // uniform buckets. A one-round multiply-fold fails this badly.
        let m = 64usize;
        let n = 64_000u64;
        for seed in [0u64, 1, 0xdead_beef] {
            let mut buckets = vec![0u32; m];
            for x in 0..n {
                let h = hash_u64(x, seed);
                let idx = (((h as u128) * (m as u128)) >> 64) as usize;
                buckets[idx] += 1;
            }
            let expected = n as f64 / m as f64;
            for (i, &c) in buckets.iter().enumerate() {
                let deviation = (c as f64 - expected).abs() / expected;
                assert!(
                    deviation < 0.15,
                    "seed {seed} bucket {i}: deviation {deviation}"
                );
            }
        }
    }

    #[test]
    fn hash_u64_of_counters_avalanches() {
        // Consecutive counters must produce ~32 differing output bits.
        let mut total = 0u32;
        let trials = 4096u64;
        for x in 0..trials {
            total += (hash_u64(x, 7) ^ hash_u64(x + 1, 7)).count_ones();
        }
        let avg = total as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 1.0, "avalanche average {avg}");
    }
}
