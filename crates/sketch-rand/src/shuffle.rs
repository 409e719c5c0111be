//! Incremental Fisher–Yates shuffling (sampling without replacement).
//!
//! Algorithm 1 of the paper draws register indices "from {1, 2, ..., m}
//! without replacement" — one index per ascending hash point, usually only
//! a few per element. Allocating and shuffling a full m-element permutation
//! per element would defeat the O(1) insert cost, so the reference
//! implementation (and [`IncrementalShuffle`] here) uses the lazily
//! initialized Fisher–Yates scheme of BagMinHash/ProbMinHash: a slot array
//! whose entries are valid only when their *generation stamp* matches the
//! current generation, making reset an O(1) operation.

use crate::Rng64;

/// Lazily initialized Fisher–Yates permutation sampler over `0..m`.
///
/// After [`reset`](Self::reset), successive calls to [`next`](Self::next)
/// return the elements of a fresh uniformly distributed permutation of
/// `0..m`, each call in O(1) time. At most `m` calls are allowed per
/// generation.
#[derive(Debug, Clone)]
pub struct IncrementalShuffle {
    /// Slot values, valid only where `stamp` equals `generation`.
    slots: Vec<u32>,
    /// Generation stamp per slot.
    stamp: Vec<u32>,
    generation: u32,
    m: u32,
    drawn: u32,
}

impl IncrementalShuffle {
    /// Creates a sampler over the index range `0..m`.
    ///
    /// # Panics
    /// Panics if `m == 0` or `m > u32::MAX as usize`.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "shuffle domain must be non-empty");
        let m = u32::try_from(m).expect("shuffle domain too large");
        Self {
            slots: vec![0; m as usize],
            // Stamps start at 0 and the generation at 1, so no slot is
            // considered initialized before its first write.
            stamp: vec![0; m as usize],
            generation: 1,
            m,
            drawn: 0,
        }
    }

    /// Size of the index domain.
    #[inline]
    pub fn len(&self) -> usize {
        self.m as usize
    }

    /// Always false; the domain is validated non-empty at construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of indices drawn in the current generation.
    #[inline]
    pub fn drawn(&self) -> u32 {
        self.drawn
    }

    /// Starts a new permutation in O(1) (amortized; the stamp array is
    /// cleared only when the 32-bit generation counter wraps).
    #[inline]
    pub fn reset(&mut self) {
        self.drawn = 0;
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Starts a new permutation over `0..m`, where `m` may differ from
    /// the previous domain: the slot arrays grow to the largest domain
    /// seen and never shrink, so one sampler can serve sketches of
    /// different sizes. Stale slots need no clearing — the generation
    /// bump of [`reset`](Self::reset) invalidates them all.
    ///
    /// # Panics
    /// Panics if `m == 0` or `m > u32::MAX as usize`.
    #[inline]
    pub fn reset_with_domain(&mut self, m: usize) {
        if m != self.m as usize {
            assert!(m > 0, "shuffle domain must be non-empty");
            self.m = u32::try_from(m).expect("shuffle domain too large");
            if m > self.slots.len() {
                self.slots.resize(m, 0);
                self.stamp.resize(m, 0);
            }
        }
        self.reset();
    }

    #[inline]
    fn slot(&self, i: u32) -> u32 {
        if self.stamp[i as usize] == self.generation {
            self.slots[i as usize]
        } else {
            i
        }
    }

    #[inline]
    fn set_slot(&mut self, i: u32, value: u32) {
        self.slots[i as usize] = value;
        self.stamp[i as usize] = self.generation;
    }

    /// Draws the next index of the current permutation.
    ///
    /// # Panics
    /// Panics if more than `m` indices are requested per generation.
    #[inline]
    pub fn next<R: Rng64>(&mut self, rng: &mut R) -> u32 {
        assert!(self.drawn < self.m, "permutation exhausted; call reset()");
        let j = self.drawn;
        let k = j + rng.next_below((self.m - j) as u64) as u32;
        let vj = self.slot(j);
        let vk = self.slot(k);
        self.set_slot(k, vj);
        // Slot j will never be revisited this generation, so storing back is
        // only needed for k; still record it to keep the invariant simple.
        self.set_slot(j, vk);
        self.drawn += 1;
        vk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WyRand;

    #[test]
    fn produces_a_permutation() {
        let mut shuffle = IncrementalShuffle::new(100);
        let mut rng = WyRand::new(1);
        let mut seen = [false; 100];
        for _ in 0..100 {
            let v = shuffle.next(&mut rng) as usize;
            assert!(!seen[v], "duplicate index {v}");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn reset_produces_fresh_permutations() {
        let mut shuffle = IncrementalShuffle::new(16);
        let mut rng = WyRand::new(2);
        for _ in 0..50 {
            shuffle.reset();
            let mut seen = 0u32;
            for _ in 0..16 {
                let v = shuffle.next(&mut rng);
                assert_eq!(seen & (1 << v), 0);
                seen |= 1 << v;
            }
            assert_eq!(seen, 0xFFFF);
        }
    }

    #[test]
    fn partial_draws_are_uniform() {
        // Drawing only the first element many times must hit every index
        // with probability 1/m.
        let m = 8;
        let mut shuffle = IncrementalShuffle::new(m);
        let mut rng = WyRand::new(3);
        let mut counts = vec![0u32; m];
        let trials = 80_000;
        for _ in 0..trials {
            shuffle.reset();
            counts[shuffle.next(&mut rng) as usize] += 1;
        }
        let expected = trials as f64 / m as f64;
        for &c in &counts {
            assert!(((c as f64 - expected) / expected).abs() < 0.05);
        }
    }

    #[test]
    fn pairs_are_uniform() {
        // The first two draws must be uniform over ordered pairs, which
        // detects the classic Fisher-Yates off-by-one biases.
        let m = 4;
        let mut shuffle = IncrementalShuffle::new(m);
        let mut rng = WyRand::new(5);
        let mut counts = vec![0u32; m * m];
        let trials = 120_000;
        for _ in 0..trials {
            shuffle.reset();
            let a = shuffle.next(&mut rng) as usize;
            let b = shuffle.next(&mut rng) as usize;
            counts[a * m + b] += 1;
        }
        let expected = trials as f64 / (m * (m - 1)) as f64;
        for a in 0..m {
            for b in 0..m {
                let c = counts[a * m + b];
                if a == b {
                    assert_eq!(c, 0);
                } else {
                    assert!(((c as f64 - expected) / expected).abs() < 0.06);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "permutation exhausted")]
    fn panics_when_exhausted() {
        let mut shuffle = IncrementalShuffle::new(3);
        let mut rng = WyRand::new(7);
        for _ in 0..4 {
            shuffle.next(&mut rng);
        }
    }

    #[test]
    fn redomained_sampler_draws_like_a_fresh_one() {
        // One sampler walked through growing and shrinking domains must
        // produce, for each, exactly what a sampler built for that
        // domain produces from the same random stream.
        let mut shared = IncrementalShuffle::new(1);
        for (round, m) in [7usize, 64, 3, 64, 1, 200].into_iter().enumerate() {
            let mut fresh = IncrementalShuffle::new(m);
            fresh.reset();
            shared.reset_with_domain(m);
            assert_eq!(shared.len(), m);
            let mut rng_shared = WyRand::new(round as u64);
            let mut rng_fresh = WyRand::new(round as u64);
            let drawn: Vec<u32> = (0..m).map(|_| shared.next(&mut rng_shared)).collect();
            let expect: Vec<u32> = (0..m).map(|_| fresh.next(&mut rng_fresh)).collect();
            assert_eq!(drawn, expect, "domain {m}");
            let mut sorted = drawn;
            sorted.sort_unstable();
            assert_eq!(sorted, (0..m as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn single_element_domain() {
        let mut shuffle = IncrementalShuffle::new(1);
        let mut rng = WyRand::new(11);
        for _ in 0..10 {
            shuffle.reset();
            assert_eq!(shuffle.next(&mut rng), 0);
        }
    }
}
