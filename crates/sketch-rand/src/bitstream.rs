//! Economical consumption of random bits.
//!
//! The paper's implementation notes (§5.1) stress that random bits are used
//! "very economically": a new 64-bit word is generated only after all 64
//! bits of the previous word have been consumed. [`BitStream`] wraps any
//! [`Rng64`] and serves bit-granular requests from an internal
//! buffer, which measurably speeds up the inner loop of Algorithm 1 where
//! single random bits and small bounded integers dominate.

use crate::Rng64;

/// A buffered, bit-granular view over a 64-bit generator.
#[derive(Debug, Clone)]
pub struct BitStream<R> {
    rng: R,
    buffer: u64,
    /// Number of unconsumed bits remaining in `buffer`.
    available: u32,
}

impl<R: Rng64> BitStream<R> {
    /// Wraps a generator; no random word is drawn until the first request.
    #[inline]
    pub fn new(rng: R) -> Self {
        Self {
            rng,
            buffer: 0,
            available: 0,
        }
    }

    /// Returns the next `n` random bits (`1 <= n <= 64`) in the low bits of
    /// the result.
    #[inline]
    pub fn next_bits(&mut self, n: u32) -> u64 {
        debug_assert!((1..=64).contains(&n));
        if n == 64 {
            // Serve whole words directly; mixing two partial words would
            // not preserve the buffer invariant cheaply.
            return self.rng.next_u64();
        }
        if self.available < n {
            self.buffer = self.rng.next_u64();
            self.available = 64;
        }
        let out = self.buffer & ((1u64 << n) - 1);
        self.buffer >>= n;
        self.available -= n;
        out
    }
}

impl<R: Rng64> Rng64 for BitStream<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_bits(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WyRand;

    #[test]
    fn bits_are_within_requested_width() {
        let mut bs = BitStream::new(WyRand::new(1));
        for n in 1..=63 {
            for _ in 0..100 {
                assert!(bs.next_bits(n) < (1u64 << n));
            }
        }
    }

    #[test]
    fn consumes_one_word_per_64_single_bits() {
        // 64 single-bit requests must consume exactly one word: the second
        // batch of 64 bits must reassemble the generator's second word.
        let mut reference = WyRand::new(9);
        let w0 = reference.next_u64();
        let w1 = reference.next_u64();

        let mut bs = BitStream::new(WyRand::new(9));
        let mut got0 = 0u64;
        for i in 0..64 {
            got0 |= bs.next_bits(1) << i;
        }
        let mut got1 = 0u64;
        for i in 0..64 {
            got1 |= bs.next_bits(1) << i;
        }
        assert_eq!(got0, w0);
        assert_eq!(got1, w1);
    }

    #[test]
    fn single_bits_are_balanced() {
        let mut bs = BitStream::new(WyRand::new(11));
        let n = 100_000;
        let ones = (0..n).filter(|_| bs.next_bits(1) == 1).count();
        let fraction = ones as f64 / n as f64;
        assert!((fraction - 0.5).abs() < 0.01);
    }

    #[test]
    fn full_words_bypass_buffer() {
        let mut reference = WyRand::new(13);
        let mut bs = BitStream::new(WyRand::new(13));
        let _ = bs.next_bits(3);
        // The partial request consumed word 0; a full word request must
        // return word 1 unchanged.
        let w0 = reference.next_u64();
        let w1 = reference.next_u64();
        let _ = w0;
        assert_eq!(bs.next_bits(64), w1);
    }
}
