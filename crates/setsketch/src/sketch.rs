//! The SetSketch data structure (paper §2, Algorithm 1).
//!
//! A SetSketch maps a set to m registers
//! `K_i = max_{d ∈ S} ⌊1 − log_b h_i(d)⌋` with exponentially distributed
//! hash values `h_i(d) ~ Exp(a)` (eq. (6)). The insert operation is
//! idempotent and commutative, and the state of the union of two sets is the
//! element-wise register maximum (mergeability).
//!
//! Algorithm 1 computes per element only the *ascending* sequence of its m
//! hash values and stops as soon as a value can no longer affect any
//! register — tracked through the lower bound `K_low` (§2.2) — giving an
//! amortized O(1) insert for sets much larger than m.
//!
//! Below n ≈ m that bound has not risen yet and every element walks most
//! of its m values, so batches are applied in *value order* instead (the
//! whole-batch form of the early exit, after Dahlgaard, Knudsen & Thorup's
//! fast similarity sketching): passes over the deduplicated batch apply
//! only values `x ≤ τ`, doubling τ until `τ ≥ b^{−K_low}`. This is exact:
//! a value `x > b^{−K_low}` has update value `k ≤ K_low`, and `K_low` is at
//! most every register, so the values the last pass skips change nothing.
//! A single element is the same loop started at `τ = b^{−K_low}`: one
//! pass, Algorithm 1 itself.

use crate::config::SetSketchConfig;
use crate::sequence::{ExponentialSpacings, IntervalSampling, ValueSequence};
use sketch_math::{kernels, Lane, LanesMut, PowerTable, Registers};
use sketch_rand::{hash_of, hash_u64, IncrementalShuffle, WyRand};
use std::cell::RefCell;
use std::sync::Arc;

/// SetSketch1: independent register values via exponential spacings.
pub type SetSketch1 = SetSketch<ExponentialSpacings>;

/// SetSketch2: correlated register values via interval sampling; same
/// estimators, smaller errors for small sets (paper §5.2, §5.3).
pub type SetSketch2 = SetSketch<IntervalSampling>;

/// Error raised when two sketches with incompatible configurations or
/// hash seeds are combined.
///
/// Carries exactly which part mismatched, so that a failed merge deep in
/// an aggregation pipeline (or a sketch store) reports something
/// actionable instead of a bare "incompatible".
#[derive(Debug, Clone, PartialEq)]
pub struct IncompatibleSketches {
    /// The two configurations, when they differ (`(left, right)`).
    pub configs: Option<(SetSketchConfig, SetSketchConfig)>,
    /// The two hash seeds, when they differ (`(left, right)`).
    pub seeds: Option<(u64, u64)>,
}

impl IncompatibleSketches {
    /// Checks two sketches' parameters, returning the detailed mismatch
    /// as an error and `Ok(())` when they are compatible.
    pub fn check(
        left_config: &SetSketchConfig,
        right_config: &SetSketchConfig,
        left_seed: u64,
        right_seed: u64,
    ) -> Result<(), Self> {
        let configs = (left_config != right_config).then_some((*left_config, *right_config));
        let seeds = (left_seed != right_seed).then_some((left_seed, right_seed));
        if configs.is_none() && seeds.is_none() {
            Ok(())
        } else {
            Err(IncompatibleSketches { configs, seeds })
        }
    }
}

impl std::fmt::Display for IncompatibleSketches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Guard the degenerate all-`None` state (constructible because the
        // fields are public) against rendering a dangling message.
        if self.configs.is_none() && self.seeds.is_none() {
            return write!(f, "sketches are incompatible");
        }
        write!(f, "sketches are incompatible:")?;
        if let Some((left, right)) = &self.configs {
            write!(
                f,
                " configurations differ (left: m={}, b={}, a={}, q={}; right: m={}, b={}, a={}, q={})",
                left.m(), left.b(), left.a(), left.q(),
                right.m(), right.b(), right.a(), right.q(),
            )?;
            if self.seeds.is_some() {
                write!(f, " and")?;
            }
        }
        if let Some((left, right)) = self.seeds {
            write!(f, " hash seeds differ (left: {left}, right: {right})")?;
        }
        Ok(())
    }
}

impl std::error::Error for IncompatibleSketches {}

/// A SetSketch instance (paper Algorithm 1).
///
/// The type parameter selects the register-value construction; use the
/// aliases [`SetSketch1`] and [`SetSketch2`].
///
/// The only per-sketch heap state is the register array, held at its
/// natural lane width ([`Registers`]: one byte per register when
/// `q + 1 ≤ 255`, two when `≤ 65 535`), and — on dense scales — the
/// `q + 2`-bucket histogram. What an insert needs beyond that (the index
/// shuffle, the batch hash buffer) carries no state between calls and
/// lives in one thread-local scratch, so `clone`, `merge`, decoding and
/// [`memory_footprint`](Self::memory_footprint) pay for registers only.
#[derive(Debug, Clone)]
pub struct SetSketch<S: ValueSequence> {
    config: SetSketchConfig,
    seed: u64,
    registers: Registers,
    table: Arc<PowerTable>,
    sequence: S,
    /// Lower bound K_low <= min(K_1..K_m) (paper §2.2).
    k_low: u32,
    /// Register modifications since the last K_low rescan (w in Alg. 1).
    modifications: u32,
    /// Incremental estimator state: `histogram[k]` counts the registers
    /// currently holding value `k` (`q + 2` buckets). Maintained on every
    /// register write, rebuilt from the registers after merges and
    /// deserialization, so cardinality estimation reads O(q) buckets
    /// instead of rescanning all m registers.
    ///
    /// Only kept for *dense* register scales (`q + 2 ≤ 4 m`, covering
    /// the paper's b = 2 configurations); for sparse scales (b close to
    /// 1, where q ≫ m) the bucket array would dwarf the registers and
    /// the O(m) register scan is the cheaper estimator, so the vector
    /// stays empty and estimation falls back to scanning.
    histogram: Vec<u32>,
}

/// What Algorithm 1 needs per insert besides the sketch: the lazily
/// reset index permutation (re-domained to the inserting sketch's m,
/// growing only) and the hash buffer of the batched paths (at most
/// [`SetSketch::EXTEND_CHUNK`] elements). Neither carries state from one
/// insert to the next, so one instance per thread serves every sketch.
struct InsertScratch {
    shuffle: IncrementalShuffle,
    hashes: Vec<u64>,
}

thread_local! {
    static INSERT_SCRATCH: RefCell<InsertScratch> = RefCell::new(InsertScratch {
        shuffle: IncrementalShuffle::new(1),
        hashes: Vec::new(),
    });
}

/// Algorithm 1 for a run of distinct hashed elements, applied in value
/// order: each pass regenerates every element's ascending sequence and
/// applies only the values `x ≤ τ`, then rescans `K_low` and doubles τ
/// until `τ ≥ b^{−K_low}`. Written once over the lane type and
/// dispatched on the register width once per run — outside the pass,
/// per-element and per-register loops. Returns whether any register
/// rose: a run that raised none left the sketch exactly as it was.
struct InsertHashes<'a, S> {
    hashes: &'a [u64],
    /// The first pass's bound before it is capped at `b^{−K_low}`;
    /// infinite for a single streamed element, whose one pass is
    /// Algorithm 1 exactly.
    start: f64,
    table: &'a PowerTable,
    sequence: &'a mut S,
    shuffle: &'a mut IncrementalShuffle,
    histogram: &'a mut [u32],
    k_low: &'a mut u32,
    modifications: &'a mut u32,
}

impl<S: ValueSequence> LanesMut for InsertHashes<'_, S> {
    type Output = bool;

    fn run<L: Lane>(self, registers: &mut [L]) -> bool {
        let m = registers.len();
        let mut k_low = *self.k_low;
        let mut modifications = *self.modifications;
        let mut raised = false;
        let mut bound = self.start.min(self.table.pow_neg(k_low));
        loop {
            // A pass at b^{-K_low} skips only values that cannot raise a
            // register: it is Algorithm 1 itself and the last pass.
            let exact = bound >= self.table.pow_neg(k_low);
            for &hash in self.hashes {
                let mut rng = WyRand::new(hash);
                self.sequence.start();
                self.shuffle.reset_with_domain(m);
                for _ in 0..m {
                    let x = self.sequence.next(&mut rng);
                    // Combined check of Algorithm 1: stop when x exceeds
                    // the pass bound or b^{-K_low}, or the clamped update
                    // value k would satisfy k <= K_low. The shuffle index
                    // is drawn only for values that pass, so every pass
                    // replays the same random stream.
                    if x > bound {
                        break;
                    }
                    let Some(k) = self.table.update_value_above(x, k_low) else {
                        break;
                    };
                    let i = self.shuffle.next(&mut rng) as usize;
                    let old = registers[i].widen();
                    if k > old {
                        raised = true;
                        registers[i] = L::narrow(k).expect("update values are at most q + 1");
                        if !self.histogram.is_empty() {
                            self.histogram[old as usize] -= 1;
                            self.histogram[k as usize] += 1;
                        }
                        modifications += 1;
                        if modifications >= m as u32 {
                            // Rescan to raise K_low (amortized O(1) per
                            // register increment, §2.2).
                            k_low = kernels::min_scan(registers);
                            modifications = 0;
                        }
                    }
                }
            }
            if exact {
                break;
            }
            k_low = match self.histogram.iter().position(|&count| count != 0) {
                Some(k) => k as u32,
                None => kernels::min_scan(registers),
            };
            modifications = 0;
            let limit = self.table.pow_neg(k_low);
            if bound >= limit {
                break;
            }
            // Doubling, never a jump to the limit: K_low stays 0 until
            // the last register is covered, so b^{-K_low} is far too
            // loose a bound until the fill is nearly done.
            bound = (2.0 * bound).min(limit);
        }
        *self.k_low = k_low;
        *self.modifications = modifications;
        raised
    }
}

/// True when a configuration's register scale is dense enough that the
/// maintained histogram (`q + 2` buckets) pays for itself against the m
/// registers it summarizes.
fn maintains_histogram(config: &SetSketchConfig) -> bool {
    config.q() as usize + 2 <= 4 * config.m()
}

impl<S: ValueSequence> SetSketch<S> {
    /// Creates an empty sketch with the given configuration and hash seed.
    ///
    /// Two sketches can only be merged or jointly estimated when both their
    /// configuration and their seed match.
    pub fn new(config: SetSketchConfig, seed: u64) -> Self {
        Self::from_registers(config, seed, Self::empty_registers(&config))
    }

    /// Creates an empty sketch reusing a prepared power table (avoids
    /// rebuilding the table when many sketches share one configuration).
    ///
    /// # Panics
    /// Panics if the table was built for a different base or limit.
    pub fn with_shared_table(config: SetSketchConfig, seed: u64, table: Arc<PowerTable>) -> Self {
        assert_eq!(table.b(), config.b(), "power table base mismatch");
        assert_eq!(table.q(), config.q(), "power table limit mismatch");
        let sequence = S::create(config.m(), config.a());
        Self::assemble(
            config,
            seed,
            table,
            sequence,
            Self::empty_registers(&config),
        )
    }

    fn empty_registers(config: &SetSketchConfig) -> Registers {
        Registers::zeroed(config.m(), config.q() + 1)
    }

    /// A sketch holding decoded `registers` — m values in `0..=q+1`, which
    /// the decoders validate while narrowing — under a fresh power table
    /// and value sequence for `config`.
    pub(crate) fn from_registers(config: SetSketchConfig, seed: u64, registers: Registers) -> Self {
        let table = Arc::new(PowerTable::new(config.b(), config.q()));
        let sequence = S::create(config.m(), config.a());
        Self::assemble(config, seed, table, sequence, registers)
    }

    /// A sketch holding decoded `registers` that shares this sketch's
    /// configuration, seed, power table and value sequence.
    pub(crate) fn with_registers(&self, registers: Registers) -> Self {
        Self::assemble(
            self.config,
            self.seed,
            Arc::clone(&self.table),
            self.sequence.clone(),
            registers,
        )
    }

    /// Builds the sketch around its register array — the one
    /// allocation besides the histogram: one histogram pass, and the
    /// tight `K_low` from one minimum scan.
    fn assemble(
        config: SetSketchConfig,
        seed: u64,
        table: Arc<PowerTable>,
        sequence: S,
        registers: Registers,
    ) -> Self {
        debug_assert_eq!(registers.len(), config.m());
        let histogram = if maintains_histogram(&config) {
            vec![0u32; config.q() as usize + 2]
        } else {
            Vec::new()
        };
        let mut sketch = Self {
            config,
            seed,
            k_low: registers.min(),
            registers,
            table,
            sequence,
            modifications: 0,
            histogram,
        };
        sketch.rebuild_histogram();
        sketch
    }

    /// The configuration of this sketch.
    #[inline]
    pub fn config(&self) -> &SetSketchConfig {
        &self.config
    }

    /// The hash seed of this sketch.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of registers m.
    #[inline]
    pub fn m(&self) -> usize {
        self.config.m()
    }

    /// Read-only, width-erased view of the register values: `len`,
    /// `get`, `iter` and `to_vec` yield them as `u32` whatever lane width
    /// the array is held at.
    #[inline]
    pub fn registers(&self) -> &Registers {
        &self.registers
    }

    /// The tracked lower bound K_low (for tests and diagnostics): at most
    /// every register, and possibly below their minimum. Only a rescan
    /// raises it, so its value depends on the insert path — a batch
    /// rescans at the end of each pass and may leave it tighter than
    /// the same elements inserted one by one.
    #[inline]
    pub fn k_low(&self) -> u32 {
        self.k_low
    }

    /// The maintained register value histogram, when one is kept:
    /// `register_histogram().unwrap()[k]` is the number of registers
    /// currently equal to `k`, for `k ∈ 0..=q+1`, exactly in sync with
    /// [`registers`](Self::registers) across inserts, merges and state
    /// restores — this is what makes cardinality estimation O(q).
    ///
    /// Returns `None` for sparse register scales (`q + 2 > 4 m`, i.e. b
    /// close to 1 on a small sketch), where the bucket array would dwarf
    /// the registers and estimation scans the m registers directly.
    #[inline]
    pub fn register_histogram(&self) -> Option<&[u32]> {
        (!self.histogram.is_empty()).then_some(self.histogram.as_slice())
    }

    /// The shared power table of this sketch's scale.
    #[inline]
    pub fn power_table(&self) -> &Arc<PowerTable> {
        &self.table
    }

    /// Bytes this sketch keeps resident in memory: the inline struct
    /// plus its two per-sketch heap allocations — the registers at their
    /// lane width (m, 2 m or 4 m bytes against the paper's
    /// `m · ⌈log₂(q+2)⌉` bits) and, on dense scales, the `q + 2`-bucket
    /// estimator histogram. Configuration-level state shared across
    /// sketches — the `Arc`'d power table and interval boundaries — and
    /// the per-thread insert scratch are excluded, so demoting a sketch
    /// to a compressed tier reclaims exactly this many bytes.
    pub fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.registers.heap_bytes()
            + std::mem::size_of::<u32>() * self.histogram.capacity()
    }

    /// True if no register has ever been modified (O(1) when the
    /// histogram is maintained).
    pub fn is_unused(&self) -> bool {
        match self.register_histogram() {
            Some(histogram) => histogram[0] as usize == self.config.m(),
            None => self.registers.iter().all(|k| k == 0),
        }
    }

    /// Inserts any hashable element.
    #[inline]
    pub fn insert<T: std::hash::Hash + ?Sized>(&mut self, element: &T) {
        self.insert_hash(hash_of(element, self.seed));
    }

    /// Inserts a 64-bit element (hashed with the sketch seed).
    #[inline]
    pub fn insert_u64(&mut self, element: u64) {
        self.insert_hash(hash_u64(element, self.seed));
    }

    /// Inserts all elements of an iterator through the batched fast
    /// path: elements are hashed, sorted and deduplicated in bounded
    /// chunks, so within each chunk duplicates never reach Algorithm 1,
    /// and each chunk is applied in value order — passes that apply only
    /// hash values below a doubling bound, stopping once the bound
    /// reaches `b^{−K_low}` — so filling an empty sketch costs a few
    /// register steps per element instead of most of its m values.
    ///
    /// The stream is consumed in fixed-size chunks
    /// ([`EXTEND_CHUNK`](Self::EXTEND_CHUNK) elements), keeping peak
    /// memory constant for arbitrarily large iterators while retaining
    /// almost all of the batch speedup (chunks are much larger than m).
    /// The chunk buffer is the thread's reusable scratch allocation, so
    /// steady batched ingest does not allocate per call.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, elements: I) {
        self.extend_raising(elements);
    }

    /// [`extend`](Self::extend), returning whether any register rose.
    fn extend_raising<I: IntoIterator<Item = u64>>(&mut self, elements: I) -> bool {
        let seed = self.seed;
        let mut raised = false;
        let mut elements = elements.into_iter();
        // The buffer is taken out of the scratch while the caller's
        // iterator runs (it may itself insert into a sketch) and goes
        // back — empty, capacity retained — when the stream is drained.
        let mut hashes =
            INSERT_SCRATCH.with(|scratch| std::mem::take(&mut scratch.borrow_mut().hashes));
        loop {
            hashes.clear();
            hashes.extend(
                elements
                    .by_ref()
                    .take(Self::EXTEND_CHUNK)
                    .map(|e| hash_u64(e, seed)),
            );
            if hashes.is_empty() {
                break;
            }
            hashes.sort_unstable();
            hashes.dedup();
            raised |= self.insert_hashes(&hashes, self.first_bound(hashes.len()));
        }
        hashes.clear();
        // Amortized growth may have overshot the chunk size; the
        // retained buffer never exceeds one chunk.
        hashes.shrink_to(Self::EXTEND_CHUNK);
        INSERT_SCRATCH.with(|scratch| scratch.borrow_mut().hashes = hashes);
        raised
    }

    /// Chunk size of the batched insert paths (elements buffered,
    /// hashed, and sorted at a time) — and the bound on the hash buffer
    /// a thread retains between calls.
    pub const EXTEND_CHUNK: usize = 1 << 16;

    /// Inserts a batch of 64-bit elements (batched Algorithm 1).
    ///
    /// Leaves registers bit-identical to inserting each element
    /// individually, but each [`EXTEND_CHUNK`](Self::EXTEND_CHUNK)-element
    /// chunk of the batch is hashed up front, sorted and deduplicated, so
    /// repeated elements never reach the registers, and then applied in
    /// value order: each pass regenerates every element's sequence and
    /// applies only values below a bound that doubles, from an upper
    /// quantile of where the chunk's fill should end, until it reaches
    /// `b^{−K_low}` (the module docs give the exactness argument). A
    /// batch into a filled sketch is one pass at `b^{−K_low}` — the
    /// paper §2.2 early exit, element by element.
    ///
    /// Returns whether any register rose. Once n ≫ m almost no batch
    /// raises one, and a batch that raised none left the sketch exactly
    /// as it was — what lets a store treat such a write as a read.
    pub fn insert_batch(&mut self, elements: &[u64]) -> bool {
        self.extend_raising(elements.iter().copied())
    }

    /// Inserts an already fully hashed element (Algorithm 1).
    ///
    /// The 64-bit value seeds the per-element pseudorandom generator; equal
    /// values leave the state unchanged (idempotency).
    pub fn insert_hash(&mut self, hash: u64) {
        self.insert_hashes(&[hash], f64::INFINITY);
    }

    /// Where the first pass over `n` distinct hashes stops (before the
    /// cap at `b^{−K_low}`): an upper quantile of where the batch's
    /// bound ends. Each register's smallest value among n elements is
    /// Exp(n·a), so the last register is covered near
    /// `(ln m + G)/(n·a)` with G Gumbel-distributed; `3 ≈ −ln(−ln 0.95)`
    /// is G's 95 % point, and the factor b adds one register step of
    /// headroom. A lower start costs tiny batches extra passes; a higher
    /// one walks values no register needs.
    ///
    /// Never zero (n·a overflows for extreme rates a): doubling could
    /// not lift a zero bound.
    fn first_bound(&self, n: usize) -> f64 {
        let (b, a) = (self.config.b(), self.config.a());
        (b * ((self.m() as f64).ln() + 3.0) / (n as f64 * a)).max(f64::MIN_POSITIVE)
    }

    /// Algorithm 1 for distinct hashes in value order (see
    /// [`InsertHashes`]), its first pass bounded by `start`, under one
    /// borrow of the thread's insert scratch and one dispatch on the
    /// register width. Returns whether any register rose.
    fn insert_hashes(&mut self, hashes: &[u64], start: f64) -> bool {
        INSERT_SCRATCH.with(|scratch| {
            self.registers.with_lanes_mut(InsertHashes {
                hashes,
                start,
                table: &self.table,
                sequence: &mut self.sequence,
                shuffle: &mut scratch.borrow_mut().shuffle,
                histogram: &mut self.histogram,
                k_low: &mut self.k_low,
                modifications: &mut self.modifications,
            })
        })
    }

    /// Recomputes the maintained histogram (if any) from the registers
    /// in one kernel pass.
    fn rebuild_histogram(&mut self) {
        if !self.histogram.is_empty() {
            self.registers.histogram_into(&mut self.histogram);
        }
    }

    /// Checks configuration and seed compatibility with another sketch.
    pub fn is_compatible(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed
    }

    /// Like [`is_compatible`](Self::is_compatible), but reports *which*
    /// of configuration and seed mismatched on failure.
    pub fn check_compatible(&self, other: &Self) -> Result<(), IncompatibleSketches> {
        IncompatibleSketches::check(&self.config, &other.config, self.seed, other.seed)
    }

    /// Merges `other` into `self` (union semantics): element-wise register
    /// maximum, which is idempotent, associative and commutative.
    ///
    /// Runs the fused [`kernels::max_merge_min`] register kernel — the
    /// merged `K_low` and whether any register rose fall out of the same
    /// pass, so no separate rescan is needed — and rebuilds the
    /// estimator histogram only when a register rose. Returns whether
    /// one did: `Ok(false)` means `other` held nothing `self` lacked.
    pub fn merge(&mut self, other: &Self) -> Result<bool, IncompatibleSketches> {
        self.check_compatible(other)?;
        let raised = self.absorb(other);
        if raised {
            self.rebuild_histogram();
        }
        Ok(raised)
    }

    /// The register half of a merge: the fused kernel, the exact new
    /// `K_low`, and whether any register rose (the histogram is the
    /// caller's to rebuild).
    fn absorb(&mut self, other: &Self) -> bool {
        let (k_low, raised) = self.registers.max_merge_min(&other.registers);
        self.k_low = k_low;
        self.modifications = 0;
        raised
    }

    /// Merges every sketch of the iterator into `self`, running the
    /// register kernel per operand but rebuilding the estimator
    /// histogram only once at the end, and only if a register rose (the
    /// batched form behind `Mergeable::merge_many`).
    ///
    /// On an incompatibility error the registers already absorbed stay
    /// merged (union semantics make partial application harmless) and
    /// all internal state is left consistent.
    pub fn merge_all<'a, I>(&mut self, others: I) -> Result<(), IncompatibleSketches>
    where
        I: IntoIterator<Item = &'a Self>,
        S: 'a,
    {
        let mut raised = false;
        let result = others.into_iter().try_for_each(|other| {
            self.check_compatible(other)?;
            raised |= self.absorb(other);
            Ok(())
        });
        if raised {
            // One histogram rebuild covers every operand that raised a
            // register — also on the error path, so the sketch stays
            // internally consistent when a later operand is incompatible.
            self.rebuild_histogram();
        }
        result
    }

    /// Returns the union sketch of two compatible sketches.
    ///
    /// Starts from a clone of the side with the higher tracked `K_low`
    /// (the "larger" sketch): merging is commutative, and the
    /// better-filled side gives the result the tighter lower bound with
    /// fewer register overwrites.
    pub fn merged(&self, other: &Self) -> Result<Self, IncompatibleSketches> {
        let (base, addend) = if other.k_low > self.k_low {
            (other, self)
        } else {
            (self, other)
        };
        let mut result = base.clone();
        result.merge(addend)?;
        Ok(result)
    }

    /// Register histogram boundary counts and the estimator sum:
    /// `(C_0, Σ_{0<k<q+1} C_k b^{-k}, C_{q+1})`.
    ///
    /// Read from the maintained histogram in O(q) — independent of m —
    /// when one is kept; sparse scales (q ≫ m) scan the m registers
    /// directly instead.
    pub(crate) fn histogram_sum(&self) -> (usize, f64, usize) {
        let limit = self.config.q() as usize + 1;
        let Some(histogram) = self.register_histogram() else {
            let limit = limit as u32;
            return self
                .registers
                .iter()
                .fold((0, 0.0, 0), |(c0, sum, c_limit), k| {
                    if k == 0 {
                        (c0 + 1, sum, c_limit)
                    } else if k == limit {
                        (c0, sum, c_limit + 1)
                    } else {
                        (c0, sum + self.table.pow_neg(k), c_limit)
                    }
                });
        };
        kernels::fold_histogram(histogram, &self.table)
    }
}

impl<S: ValueSequence> PartialEq for SetSketch<S> {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config && self.seed == other.seed && self.registers == other.registers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_small() -> SetSketchConfig {
        SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap()
    }

    #[test]
    fn empty_sketch_has_zero_registers() {
        let sketch = SetSketch1::new(config_small(), 1);
        assert!(sketch.is_unused());
        assert_eq!(sketch.registers().len(), 64);
        assert_eq!(sketch.k_low(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        for seed in 0..4 {
            let mut a = SetSketch1::new(config_small(), seed);
            let mut b = SetSketch1::new(config_small(), seed);
            for e in 0..200u64 {
                a.insert_u64(e);
                b.insert_u64(e);
                b.insert_u64(e); // duplicate inserts
            }
            for e in 0..200u64 {
                b.insert_u64(e); // full replay
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn insert_is_commutative() {
        let mut a = SetSketch2::new(config_small(), 7);
        let mut b = SetSketch2::new(config_small(), 7);
        let elements: Vec<u64> = (0..500).collect();
        for &e in &elements {
            a.insert_u64(e);
        }
        for &e in elements.iter().rev() {
            b.insert_u64(e);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_inserting_union() {
        let cfg = config_small();
        let mut left = SetSketch1::new(cfg, 3);
        let mut right = SetSketch1::new(cfg, 3);
        let mut both = SetSketch1::new(cfg, 3);
        for e in 0..300u64 {
            left.insert_u64(e);
            both.insert_u64(e);
        }
        for e in 200..600u64 {
            right.insert_u64(e);
            both.insert_u64(e);
        }
        let merged = left.merged(&right).unwrap();
        assert_eq!(merged, both);
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let cfg = config_small();
        let mut a = SetSketch2::new(cfg, 9);
        let mut b = SetSketch2::new(cfg, 9);
        a.extend(0..100);
        b.extend(50..150);
        let ab = a.merged(&b).unwrap();
        let ba = b.merged(&a).unwrap();
        assert_eq!(ab, ba);
        let aa = a.merged(&a).unwrap();
        assert_eq!(aa, a);
    }

    #[test]
    fn merge_rejects_incompatible() {
        let a = SetSketch1::new(config_small(), 1);
        let b = SetSketch1::new(config_small(), 2);
        let err = a.merged(&b).unwrap_err();
        assert_eq!(err.seeds, Some((1, 2)));
        assert_eq!(err.configs, None);
        assert!(err.to_string().contains("seeds differ (left: 1, right: 2)"));
        let c_config = SetSketchConfig::new(32, 2.0, 20.0, 62).unwrap();
        let c = SetSketch1::new(c_config, 1);
        let err = a.merged(&c).unwrap_err();
        assert_eq!(err.configs, Some((*a.config(), c_config)));
        assert_eq!(err.seeds, None);
        assert!(err.to_string().contains("configurations differ"));
        // Both mismatched at once: both details are reported.
        let d = SetSketch1::new(c_config, 9);
        let err = a.merged(&d).unwrap_err();
        assert!(err.configs.is_some() && err.seeds.is_some());
        let message = err.to_string();
        assert!(message.contains("configurations differ") && message.contains("seeds differ"));
    }

    #[test]
    fn large_batch_leaves_a_bounded_scratch_and_equals_per_element_inserts() {
        // One huge batch must not pin a batch-sized buffer on the thread:
        // it goes through the same chunk loop as `extend`, and what the
        // thread retains afterwards is at most one chunk.
        let elements: Vec<u64> = (0..1_000_000).collect();
        let mut batched = SetSketch1::new(config_small(), 1);
        batched.insert_batch(&elements);
        let retained = INSERT_SCRATCH.with(|scratch| {
            let scratch = scratch.borrow();
            assert!(scratch.hashes.is_empty());
            scratch.hashes.capacity()
        });
        assert!(retained > 0, "the buffer is kept for the next batch");
        assert!(
            retained <= SetSketch1::EXTEND_CHUNK,
            "retained {retained} hashes after a {}-element batch",
            elements.len()
        );
        // A stream without a size hint grows the buffer by doubling from
        // whatever an earlier, smaller batch left; it is trimmed back.
        let mut streamed = SetSketch1::new(config_small(), 1);
        streamed.insert_batch(&elements[..1000]);
        streamed.extend(elements[1000..].iter().copied().filter(|_| true));
        let retained = INSERT_SCRATCH.with(|scratch| scratch.borrow().hashes.capacity());
        assert!(retained <= SetSketch1::EXTEND_CHUNK, "retained {retained}");

        let mut looped = SetSketch1::new(config_small(), 1);
        for &e in &elements {
            looped.insert_u64(e);
        }
        assert_eq!(batched, looped);
        assert_eq!(streamed, looped);
        assert_eq!(batched.register_histogram(), looped.register_histogram());
    }

    #[test]
    fn value_order_is_exact_from_any_start_bound() {
        // The start bound decides only how many passes a batch takes:
        // from far too low (dozens of doublings, each closed by a
        // rescan) to unbounded (one pass), into an empty and into a
        // partly filled sketch, the registers are the element loop's.
        fn check<S: ValueSequence>(b: f64, q: u32) {
            let config = SetSketchConfig::new(64, b, 20.0, q).unwrap();
            let hashes: Vec<u64> = (0..150).map(|e| hash_u64(e, 1)).collect();
            for prior in [0, 40] {
                let mut base = SetSketch::<S>::new(config, 1);
                base.extend(1_000..1_000 + prior);
                let mut looped = base.clone();
                for &hash in &hashes {
                    looped.insert_hash(hash);
                }
                for start in [1e-12, 1e-5, 1e-3, 0.1, f64::INFINITY] {
                    let mut batched = base.clone();
                    batched.insert_hashes(&hashes, start);
                    let label = format!("{} b={b} prior={prior} start={start}", S::NAME);
                    assert!(batched == looped, "{label}");
                    assert_eq!(batched.histogram, looped.histogram, "{label}");
                    let min = batched.registers().iter().min().unwrap();
                    assert!(batched.k_low() <= min, "{label}");
                }
            }
        }
        for (b, q) in [(2.0, 62), (1.001, 65_534)] {
            check::<ExponentialSpacings>(b, q);
            check::<IntervalSampling>(b, q);
        }
    }

    #[test]
    fn batch_with_an_overflowing_rate_terminates() {
        // 20 · 1e307 overflows, so the start bound's denominator is
        // infinite; a zero bound would double forever.
        let config = SetSketchConfig::new(8, 2.0, 1e307, 62).unwrap();
        let mut batched = SetSketch1::new(config, 1);
        batched.extend(0..20);
        let mut looped = SetSketch1::new(config, 1);
        for e in 0..20 {
            looped.insert_u64(e);
        }
        assert_eq!(batched, looped);
    }

    #[test]
    fn one_scratch_serves_sketches_of_different_sizes() {
        // Interleaved inserts into sketches with different m re-domain
        // the thread's shuffle back and forth; each must end up exactly
        // where a sketch inserting alone does.
        let sizes = [64usize, 7, 300, 64];
        let fresh = |m: usize| SetSketch2::new(SetSketchConfig::new(m, 2.0, 20.0, 62).unwrap(), 3);
        let mut interleaved: Vec<SetSketch2> = sizes.iter().map(|&m| fresh(m)).collect();
        for e in 0..2_000u64 {
            for sketch in &mut interleaved {
                sketch.insert_u64(e);
            }
        }
        for (sketch, &m) in interleaved.iter().zip(&sizes) {
            let mut alone = fresh(m);
            alone.extend(0..2_000);
            assert_eq!(sketch, &alone, "m = {m}");
        }
    }

    #[test]
    fn inserting_from_inside_an_extend_iterator_is_allowed() {
        // The caller's iterator runs while `extend` fills its chunk; it
        // may itself insert into another sketch on the same thread.
        let mut inner = SetSketch1::new(config_small(), 1);
        let mut outer = SetSketch1::new(config_small(), 1);
        outer.extend((0..500u64).inspect(|&e| inner.extend([e, e + 1_000])));
        let mut expect_outer = SetSketch1::new(config_small(), 1);
        expect_outer.extend(0..500);
        let mut expect_inner = SetSketch1::new(config_small(), 1);
        expect_inner.extend((0..500).chain(1_000..1_500));
        assert_eq!(outer, expect_outer);
        assert_eq!(inner, expect_inner);
    }

    #[test]
    fn lower_bound_rises_with_cardinality() {
        let mut sketch = SetSketch1::new(config_small(), 5);
        sketch.extend(0..50_000);
        assert!(sketch.k_low() > 0, "K_low should have risen");
        let min = sketch.registers().iter().min().unwrap();
        assert!(sketch.k_low() <= min, "K_low must be a lower bound");
    }

    #[test]
    fn registers_grow_monotonically() {
        let mut sketch = SetSketch2::new(config_small(), 11);
        let mut previous = sketch.registers().to_vec();
        for chunk in 0..20u64 {
            sketch.extend(chunk * 100..(chunk + 1) * 100);
            let current = sketch.registers().to_vec();
            for (p, c) in previous.iter().zip(&current) {
                assert!(c >= p);
            }
            previous = current;
        }
    }

    #[test]
    fn registers_saturate_at_q_plus_one() {
        // Tiny q forces saturation quickly.
        let cfg = SetSketchConfig::new(16, 2.0, 20.0, 3).unwrap();
        let mut sketch = SetSketch1::new(cfg, 1);
        sketch.extend(0..10_000);
        assert!(sketch.registers().iter().all(|k| k <= 4));
        assert!(sketch.registers().iter().any(|k| k == 4));
        // Saturated sketch: further inserts are no-ops.
        let snapshot = sketch.clone();
        sketch.extend(10_000..11_000);
        assert_eq!(sketch, snapshot);
    }

    #[test]
    fn different_seeds_give_different_states() {
        let mut a = SetSketch1::new(config_small(), 1);
        let mut b = SetSketch1::new(config_small(), 2);
        a.extend(0..100);
        b.extend(0..100);
        assert_ne!(a.registers(), b.registers());
    }

    #[test]
    fn insert_of_hashable_types() {
        let mut sketch = SetSketch1::new(config_small(), 1);
        sketch.insert("hello");
        sketch.insert(&("tuple", 42u32));
        sketch.insert(&12345u64);
        assert!(!sketch.is_unused());
        // Same element again: no change.
        let snapshot = sketch.clone();
        sketch.insert("hello");
        assert_eq!(sketch, snapshot);
    }

    #[test]
    fn histogram_sum_matches_registers() {
        let cfg = SetSketchConfig::new(32, 2.0, 20.0, 5).unwrap();
        let mut sketch = SetSketch1::new(cfg, 1);
        sketch.extend(0..1000);
        let (c0, sum, climit) = sketch.histogram_sum();
        let mut expect_c0 = 0;
        let mut expect_climit = 0;
        let mut expect_sum = 0.0;
        for k in sketch.registers() {
            match k {
                0 => expect_c0 += 1,
                6 => expect_climit += 1,
                _ => expect_sum += 2.0f64.powi(-(k as i32)),
            }
        }
        assert_eq!(c0, expect_c0);
        assert_eq!(climit, expect_climit);
        assert!((sum - expect_sum).abs() < 1e-12);
    }

    #[test]
    fn sketch1_and_sketch2_states_differ() {
        let cfg = config_small();
        let mut s1 = SetSketch1::new(cfg, 1);
        let mut s2 = SetSketch2::new(cfg, 1);
        s1.extend(0..100);
        s2.extend(0..100);
        assert_ne!(s1.registers(), s2.registers());
    }
}
