//! Seeded input generation: the only source of randomness in a run.
//!
//! The program under test receives only what is generated here; the
//! same `--seed` gives the same corpus and the same op lists.

/// SplitMix64: small, fast, and good enough to draw workloads from.
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(stream, index)` cell of a run, so every
    /// block and client draws from its own reproducible stream.
    pub fn derive(seed: u64, stream: u64, index: u64) -> Self {
        Rng(mix(
            seed ^ mix(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index)
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); multiply-shift, bias below 2⁻³².
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`, so distinct inputs
/// give distinct element ids.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf sampler over ranks `0..n` with exponent `s` (inverse CDF table).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Keys per family; family members share most of their elements.
pub const FAMILY: usize = 8;
/// Families per topic pool. Topics are all one size on purpose: a
/// top-k probe verifies roughly its whole topic, so skewed topic sizes
/// made the cost of an op depend on the drawn key by a factor of ten and
/// on the seed through the draw of the sizes.
const FAMILIES_PER_TOPIC: usize = 16;
/// Share of a key's universe drawn from its topic pool: two keys of one
/// topic but different families have J = t / (2 − t) ≈ 0.40.
const TOPIC_SHARE: f64 = 0.5714;
/// Share drawn from topic + family pools: two keys of one family have
/// J = s / (2 − s) ≈ 0.85.
const FAMILY_SHARE: f64 = 0.919;

/// The key corpus of one run: every key's fixed element universe, with
/// similarity structure known by construction.
pub struct Corpus {
    pub keys: Vec<String>,
    /// Distinct elements of each key (`universe[k].len()` is the exact
    /// cardinality after preload).
    pub universe: Vec<Vec<u64>>,
    /// Exact Jaccard similarity of two distinct keys of one family.
    pub family_jaccard: f64,
}

impl Corpus {
    /// `keys` keys (a multiple of [`FAMILY`]) of `per_key` elements each.
    pub fn generate(seed: u64, keys: usize, per_key: usize) -> Corpus {
        assert!(
            keys > 0 && keys.is_multiple_of(FAMILY),
            "keys come in whole families"
        );
        let families = keys / FAMILY;
        let topic_len = (per_key as f64 * TOPIC_SHARE).round() as usize;
        let family_len = (per_key as f64 * FAMILY_SHARE).round() as usize - topic_len;
        let own_len = per_key - topic_len - family_len;

        // Pool ids are disjoint by construction: tag in the top bits,
        // pool number below it, element index in the low 24 bits.
        let element = |tag: u64, pool: usize, index: usize| {
            mix(seed ^ (tag << 60) ^ ((pool as u64) << 24) ^ index as u64)
        };
        let mut universe = Vec::with_capacity(keys);
        for family in 0..families {
            let topic = family / FAMILIES_PER_TOPIC;
            for member in 0..FAMILY {
                let key = family * FAMILY + member;
                let mut elements = Vec::with_capacity(per_key);
                elements.extend((0..topic_len).map(|i| element(1, topic, i)));
                elements.extend((0..family_len).map(|i| element(2, family, i)));
                elements.extend((0..own_len).map(|i| element(3, key, i)));
                universe.push(elements);
            }
        }
        let shared = (topic_len + family_len) as f64;
        Corpus {
            keys: (0..keys).map(|k| format!("k{k:05}")).collect(),
            universe,
            family_jaccard: shared / (per_key + own_len) as f64,
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Another key of `key`'s family.
    pub fn sibling(&self, key: usize, rng: &mut Rng) -> usize {
        let base = key - key % FAMILY;
        let other = base + rng.below(FAMILY - 1);
        if other >= key {
            other + 1
        } else {
            other
        }
    }

    /// An element never in any universe and never repeated: the
    /// `counter`-th first-time element of `key`.
    pub fn fresh_element(&self, seed: u64, key: usize, counter: u64) -> u64 {
        mix(seed ^ (4u64 << 60) ^ ((key as u64) << 40) ^ counter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_corpus_and_exact_similarity() {
        let a = Corpus::generate(7, 64, 500);
        let b = Corpus::generate(7, 64, 500);
        assert_eq!(a.universe, b.universe);
        let set = |k: usize| a.universe[k].iter().copied().collect::<HashSet<u64>>();
        assert_eq!(set(0).len(), 500, "universe elements are distinct");
        let (x, y) = (set(0), set(1));
        let jaccard = x.intersection(&y).count() as f64 / x.union(&y).count() as f64;
        assert!((jaccard - a.family_jaccard).abs() < 1e-12);
        assert!((0.83..0.87).contains(&jaccard));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 0.99);
        let mut rng = Rng::derive(1, 0, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 5 * counts[50]);
    }
}
