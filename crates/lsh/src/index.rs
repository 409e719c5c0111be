//! The banding LSH index.
//!
//! A signature of `bands × rows` registers is cut into `bands` slices; each
//! slice hashes to a bucket in its own table. Two signatures become
//! candidates if at least one band matches exactly, which happens with
//! probability `1 − (1 − p^rows)^bands` for per-register collision
//! probability `p` — the classic S-curve. For SetSketch signatures `p` is
//! bounded by the paper's §3.3 inequalities, so the curve can be tuned in
//! terms of the Jaccard similarity.

use parking_lot::RwLock;
use sketch_rand::hash_u64;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Errors raised by invalid banding configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LshConfigError {
    /// Both bands and rows must be at least 1.
    EmptyBands,
}

impl std::fmt::Display for LshConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bands and rows must both be at least 1")
    }
}

impl std::error::Error for LshConfigError {}

/// Probability that at least one of `bands` bands of `rows` registers
/// matches when each register collides independently with probability `p`:
/// `1 − (1 − p^rows)^bands`.
pub fn collision_curve(p: f64, bands: usize, rows: usize) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p));
    let band_match = p.powi(rows as i32);
    -((bands as f64) * (-band_match).ln_1p()).exp_m1()
}

/// A thread-safe banding LSH index mapping signatures to caller keys.
///
/// Keys are deduplicated per bucket; queries return the distinct keys of
/// all matching buckets. Reads and writes take per-band reader/writer
/// locks, so concurrent insert/query mixes scale across bands.
#[derive(Debug)]
pub struct LshIndex<K> {
    bands: usize,
    rows: usize,
    tables: Vec<RwLock<HashMap<u64, Vec<K>>>>,
}

impl<K: Clone + Eq + Hash> LshIndex<K> {
    /// Creates an index with the given banding; signatures passed to
    /// [`insert`](Self::insert) and [`query`](Self::query) must contain at
    /// least `bands * rows` registers (extra registers are ignored).
    pub fn new(bands: usize, rows: usize) -> Result<Self, LshConfigError> {
        if bands == 0 || rows == 0 {
            return Err(LshConfigError::EmptyBands);
        }
        Ok(Self {
            bands,
            rows,
            tables: (0..bands).map(|_| RwLock::new(HashMap::new())).collect(),
        })
    }

    /// Number of bands.
    #[inline]
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows (registers) per band.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total number of stored (band, key) entries; `len / bands` is the
    /// number of inserted signatures if every key was inserted once.
    pub fn len(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.read().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(|t| t.read().is_empty())
    }

    /// Seed of one band's prefix-hash chain.
    #[inline]
    fn band_seed(band: usize) -> u64 {
        band as u64 ^ 0x9e37_79b9_7f4a_7c15
    }

    /// Hashes one band slice into a bucket id (full prefix chain).
    fn band_hash(&self, band: usize, signature: &[u32]) -> u64 {
        let start = band * self.rows;
        let mut acc = Self::band_seed(band);
        for &r in &signature[start..start + self.rows] {
            acc = hash_u64(r as u64, acc);
        }
        acc
    }

    /// Computes every band's bucket id into `out` (cleared first; one
    /// `u64` per band). The per-band prefix-hash chains run over the
    /// signature in place — reusing `out` across signatures makes bulk
    /// indexing and re-banding allocation-free.
    ///
    /// # Panics
    /// Panics if the signature is shorter than `bands * rows`.
    pub fn band_hashes_into(&self, signature: &[u32], out: &mut Vec<u64>) {
        self.check_signature(signature);
        out.clear();
        out.extend((0..self.bands).map(|band| self.band_hash(band, signature)));
    }

    /// Fills `prefixes` with the `rows + 1` prefix states of one band's
    /// hash chain: `prefixes[i]` is the accumulator after hashing the
    /// first `i` rows, `prefixes[rows]` is the bucket id. Multi-probe
    /// perturbations of row `i` restart the chain from `prefixes[i]` and
    /// only re-hash the suffix.
    fn band_prefixes(&self, band: usize, signature: &[u32], prefixes: &mut Vec<u64>) {
        let start = band * self.rows;
        prefixes.clear();
        let mut acc = Self::band_seed(band);
        prefixes.push(acc);
        for &r in &signature[start..start + self.rows] {
            acc = hash_u64(r as u64, acc);
            prefixes.push(acc);
        }
    }

    /// Bucket id of `band` with row `row` replaced by `value`, resuming
    /// the chain from the stored prefix (hashes `rows − row` registers
    /// instead of `rows`).
    fn band_hash_substituted(
        &self,
        band: usize,
        signature: &[u32],
        prefixes: &[u64],
        row: usize,
        value: u32,
    ) -> u64 {
        let start = band * self.rows;
        let mut acc = hash_u64(value as u64, prefixes[row]);
        for &r in &signature[start + row + 1..start + self.rows] {
            acc = hash_u64(r as u64, acc);
        }
        acc
    }

    /// Validates the signature length.
    fn check_signature(&self, signature: &[u32]) {
        assert!(
            signature.len() >= self.bands * self.rows,
            "signature has {} registers, need at least {}",
            signature.len(),
            self.bands * self.rows
        );
    }

    /// Inserts a key under its signature.
    ///
    /// # Panics
    /// Panics if the signature is shorter than `bands * rows`.
    pub fn insert(&self, key: K, signature: &[u32]) {
        self.check_signature(signature);
        for band in 0..self.bands {
            let bucket = self.band_hash(band, signature);
            self.insert_bucket(band, bucket, &key);
        }
    }

    /// Inserts a key under precomputed band bucket ids (from
    /// [`band_hashes_into`](Self::band_hashes_into)). Storing the bucket
    /// ids — `bands` times `u64` — lets an incrementally maintained
    /// index re-band a changed key without keeping its old signature
    /// around.
    ///
    /// # Panics
    /// Panics if `band_hashes.len() != bands`.
    pub fn insert_hashed(&self, key: K, band_hashes: &[u64]) {
        self.check_band_hashes(band_hashes);
        for (band, &bucket) in band_hashes.iter().enumerate() {
            self.insert_bucket(band, bucket, &key);
        }
    }

    fn insert_bucket(&self, band: usize, bucket: u64, key: &K) {
        let mut table = self.tables[band].write();
        let entries = table.entry(bucket).or_default();
        if !entries.contains(key) {
            entries.push(key.clone());
        }
    }

    /// Returns the distinct keys sharing at least one band with the
    /// signature.
    ///
    /// A key stored in several matching bands is reported **once** —
    /// candidates are deduplicated at the source, so callers never pay
    /// repeated verification for multi-band collisions.
    ///
    /// # Panics
    /// Panics if the signature is shorter than `bands * rows`.
    pub fn query(&self, signature: &[u32]) -> Vec<K> {
        self.check_signature(signature);
        let mut result = Vec::new();
        let mut seen = HashSet::new();
        for band in 0..self.bands {
            let bucket = self.band_hash(band, signature);
            if let Some(entries) = self.tables[band].read().get(&bucket) {
                push_unseen(entries, &mut seen, &mut result);
            }
        }
        result
    }

    /// Multi-probe query: besides each band's exact bucket, probes the
    /// buckets reached by perturbing a single register of the band by
    /// ±1 — the nearest-miss buckets for register-valued signatures,
    /// where near-duplicate sets differ by one register increment.
    /// Probing trades `2 × rows` extra bucket lookups per band for
    /// recall without growing the index.
    ///
    /// Perturbed bucket ids resume the band's prefix-hash chain at the
    /// perturbed row, so a probe costs `rows − row` register hashes, not
    /// a full band rehash. Results are deduplicated at the source.
    ///
    /// # Panics
    /// Panics if the signature is shorter than `bands * rows`.
    pub fn query_multiprobe(&self, signature: &[u32]) -> Vec<K> {
        self.check_signature(signature);
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut prefixes = Vec::with_capacity(self.rows + 1);
        for band in 0..self.bands {
            self.band_prefixes(band, signature, &mut prefixes);
            let table = self.tables[band].read();
            let mut probe = |bucket: u64| {
                if let Some(entries) = table.get(&bucket) {
                    push_unseen(entries, &mut seen, &mut out);
                }
            };
            probe(prefixes[self.rows]);
            let start = band * self.rows;
            for row in 0..self.rows {
                let value = signature[start + row];
                if let Some(upper) = value.checked_add(1) {
                    probe(self.band_hash_substituted(band, signature, &prefixes, row, upper));
                }
                if let Some(lower) = value.checked_sub(1) {
                    probe(self.band_hash_substituted(band, signature, &prefixes, row, lower));
                }
            }
        }
        out
    }

    /// Removes a key from the buckets named by precomputed band hashes
    /// (the ids it was [`insert_hashed`](Self::insert_hashed) under).
    /// Returns true if anything was removed.
    ///
    /// # Panics
    /// Panics if `band_hashes.len() != bands`.
    pub fn remove_hashed(&self, key: &K, band_hashes: &[u64]) -> bool {
        self.check_band_hashes(band_hashes);
        let mut removed = false;
        for (band, &bucket) in band_hashes.iter().enumerate() {
            removed |= self.remove_bucket(band, bucket, key);
        }
        removed
    }

    fn remove_bucket(&self, band: usize, bucket: u64, key: &K) -> bool {
        let mut table = self.tables[band].write();
        let Some(entries) = table.get_mut(&bucket) else {
            return false;
        };
        let before = entries.len();
        entries.retain(|k| k != key);
        let removed = entries.len() != before;
        if entries.is_empty() {
            table.remove(&bucket);
        }
        removed
    }

    /// Validates a precomputed band-hash slice.
    fn check_band_hashes(&self, band_hashes: &[u64]) {
        assert!(
            band_hashes.len() == self.bands,
            "got {} band hashes, index has {} bands",
            band_hashes.len(),
            self.bands
        );
    }
}

/// Appends the keys of one bucket not yet in `seen` to `out`, cloning
/// each key only on first sight (a key met again in a later band costs
/// one hash lookup, no allocation).
fn push_unseen<K: Clone + Eq + Hash>(entries: &[K], seen: &mut HashSet<K>, out: &mut Vec<K>) {
    for key in entries {
        if !seen.contains(key) {
            seen.insert(key.clone());
            out.push(key.clone());
        }
    }
}

impl<K: Clone + Eq + Hash + Ord> LshIndex<K> {
    /// All distinct key pairs sharing at least one bucket — the LSH
    /// candidate set of an all-pairs similarity sweep, generated in one
    /// pass over the bucket tables instead of one query per key.
    ///
    /// Pairs are unordered, reported once (`left < right`), and sorted
    /// for deterministic downstream verification. The cost is
    /// `Σ bucket_len²` over all buckets; a well-tuned banding keeps
    /// buckets near-singleton for dissimilar keys.
    pub fn candidate_pairs(&self) -> Vec<(K, K)> {
        let mut pairs = HashSet::new();
        for table in self.tables.iter() {
            let table = table.read();
            for entries in table.values() {
                for (i, a) in entries.iter().enumerate() {
                    for b in &entries[i + 1..] {
                        let pair = if a < b {
                            (a.clone(), b.clone())
                        } else {
                            (b.clone(), a.clone())
                        };
                        pairs.insert(pair);
                    }
                }
            }
        }
        let mut pairs: Vec<(K, K)> = pairs.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setsketch::{SetSketch1, SetSketchConfig};

    /// The register signature of a SetSketch of `range`.
    fn signature_of(range: std::ops::Range<u64>) -> Vec<u32> {
        let cfg = SetSketchConfig::new(256, 1.001, 20.0, (1 << 16) - 2).unwrap();
        let mut s = SetSketch1::new(cfg, 77);
        s.extend(range);
        s.registers().to_vec()
    }

    #[test]
    fn collision_curve_shape() {
        // S-curve: monotone in p, steeper with more rows.
        assert_eq!(collision_curve(0.0, 16, 8), 0.0);
        assert!((collision_curve(1.0, 16, 8) - 1.0).abs() < 1e-12);
        let mut prev = 0.0;
        for i in 1..=10 {
            let p = i as f64 / 10.0;
            let c = collision_curve(p, 16, 8);
            assert!(c >= prev);
            prev = c;
        }
        // Threshold ~ (1/bands)^(1/rows).
        let threshold = (1.0f64 / 16.0).powf(1.0 / 8.0);
        assert!(collision_curve(threshold * 0.6, 16, 8) < 0.1);
        assert!(collision_curve(threshold * 1.3, 16, 8) > 0.5);
    }

    #[test]
    fn near_duplicates_are_found() {
        let index: LshIndex<&str> = LshIndex::new(32, 8).unwrap();
        index.insert("original", &signature_of(0..10_000));
        index.insert("unrelated", &signature_of(1_000_000..1_010_000));
        // 95 % overlapping query.
        let candidates = index.query(&signature_of(500..10_500));
        assert!(candidates.contains(&"original"));
        assert!(!candidates.contains(&"unrelated"));
    }

    #[test]
    fn dissimilar_signatures_rarely_collide() {
        let index: LshIndex<u64> = LshIndex::new(16, 16).unwrap();
        for doc in 0..50u64 {
            let base = 10_000_000 + doc * 1_000_000;
            index.insert(doc, &signature_of(base..base + 5000));
        }
        let candidates = index.query(&signature_of(0..5000));
        assert!(
            candidates.len() <= 2,
            "unrelated candidates: {candidates:?}"
        );
    }

    #[test]
    fn insert_is_idempotent() {
        let index: LshIndex<u32> = LshIndex::new(8, 4).unwrap();
        let s = signature_of(0..100);
        index.insert(1, &s);
        index.insert(1, &s);
        assert_eq!(index.query(&s), vec![1]);
        assert_eq!(index.len(), 8);
    }

    #[test]
    fn remove_works() {
        let index: LshIndex<u32> = LshIndex::new(8, 4).unwrap();
        let s = signature_of(0..100);
        let mut hashes = Vec::new();
        index.band_hashes_into(&s, &mut hashes);
        index.insert(1, &s);
        assert!(index.remove_hashed(&1, &hashes));
        assert!(index.query(&s).is_empty());
        assert!(index.is_empty());
        assert!(!index.remove_hashed(&1, &hashes));
    }

    #[test]
    fn concurrent_inserts_and_queries() {
        let index: LshIndex<u64> = LshIndex::new(16, 8).unwrap();
        let sketches: Vec<_> = (0..32u64)
            .map(|i| signature_of(i * 1000..i * 1000 + 2000))
            .collect();
        std::thread::scope(|scope| {
            for (i, sketch) in sketches.iter().enumerate() {
                let index = &index;
                scope.spawn(move || {
                    index.insert(i as u64, sketch);
                    // Interleave queries with inserts.
                    let _ = index.query(sketch);
                });
            }
        });
        for (i, sketch) in sketches.iter().enumerate() {
            let candidates = index.query(sketch);
            assert!(candidates.contains(&(i as u64)), "doc {i} lost");
        }
    }

    #[test]
    fn query_deduplicates_multi_band_collisions() {
        // Regression test: identical signatures collide in *every* band,
        // so without source-level dedup each key would be reported once
        // per band. Every query path must return it exactly once.
        let index: LshIndex<u32> = LshIndex::new(16, 4).unwrap();
        let s = signature_of(0..500);
        index.insert(7, &s);
        assert_eq!(index.len(), 16, "stored in all 16 bands");
        assert_eq!(index.query(&s), vec![7]);
        assert_eq!(index.query_multiprobe(&s), vec![7]);
    }

    #[test]
    fn hashed_paths_match_signature_paths() {
        let index: LshIndex<u32> = LshIndex::new(8, 8).unwrap();
        let a = signature_of(0..1000);
        let b = signature_of(100..1100);
        let mut hashes = Vec::new();
        index.band_hashes_into(&a, &mut hashes);
        index.insert_hashed(1, &hashes);
        index.insert(2, &b);
        // A hashed insert is indistinguishable from a signature insert.
        let signed: LshIndex<u32> = LshIndex::new(8, 8).unwrap();
        signed.insert(1, &a);
        signed.insert(2, &b);
        assert_eq!(index.query(&a), signed.query(&a));
        assert!(index.query(&a).contains(&1));
        // Hashed removal under the same bucket ids.
        assert!(index.remove_hashed(&1, &hashes));
        assert!(!index.query(&a).contains(&1));
        assert!(!index.remove_hashed(&1, &hashes));
    }

    #[test]
    fn multiprobe_recovers_single_register_near_miss() {
        // One band over all registers: any register mismatch kills the
        // exact query, but a single ±1 register difference is exactly
        // what one multi-probe perturbation reaches.
        let index: LshIndex<&str> = LshIndex::new(1, 256).unwrap();
        let stored = signature_of(0..10_000);
        index.insert("doc", &stored);
        let mut probe_sig = stored.clone();
        probe_sig[17] += 1;
        assert!(index.query(&probe_sig).is_empty(), "exact match must miss");
        assert_eq!(index.query_multiprobe(&probe_sig), vec!["doc"]);
        // And the unperturbed signature still matches via the base probe.
        assert_eq!(index.query_multiprobe(&stored), vec!["doc"]);
    }

    #[test]
    fn candidate_pairs_covers_bucket_cohabitants() {
        let index: LshIndex<u32> = LshIndex::new(32, 8).unwrap();
        // Two near-duplicate clusters and one isolated key.
        for (key, range) in [
            (0u32, 0..10_000u64),
            (1, 500..10_500),
            (10, 5_000_000..5_010_000),
            (11, 5_000_500..5_010_500),
            (99, 900_000_000..900_010_000),
        ] {
            index.insert(key, &signature_of(range));
        }
        let pairs = index.candidate_pairs();
        assert!(pairs.contains(&(0, 1)), "pairs: {pairs:?}");
        assert!(pairs.contains(&(10, 11)), "pairs: {pairs:?}");
        assert!(!pairs.contains(&(0, 10)));
        // Deduplicated (each pair once, canonical order) and sorted.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert!(pairs.iter().all(|(a, b)| a < b));
    }

    #[test]
    fn rejects_empty_banding() {
        assert!(LshIndex::<u32>::new(0, 4).is_err());
        assert!(LshIndex::<u32>::new(4, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "signature has")]
    fn rejects_short_signatures() {
        let index: LshIndex<u32> = LshIndex::new(64, 8).unwrap(); // needs 512
        index.insert(1, &signature_of(0..10)); // only 256
    }
}
