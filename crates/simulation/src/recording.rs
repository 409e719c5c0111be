//! Recording speed experiment (paper Figure 10).
//!
//! Measures the average wall-clock time per inserted element as a function
//! of the set cardinality for every structure the paper benchmarks:
//! SetSketch1/2 (whose amortized cost falls towards the HLL level as the
//! tracked lower bound rises), GHLL and HLL with and without lower-bound
//! tracking (flat, fast), and MinHash (flat, O(m) per element — orders of
//! magnitude slower, capped at 10⁵ elements like in the paper).
//!
//! As in the paper, elements are generated on the fly from a fast
//! pseudorandom source, so measured times emphasize the data-structure
//! cost rather than the input pipeline.

use hyperloglog::{GhllConfig, GhllSketch};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_rand::mix64;
use std::time::Instant;

/// Structures measured by the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordingStructure {
    /// SetSketch1 with the experiment's (b, a, q).
    SetSketch1,
    /// SetSketch2 with the experiment's (b, a, q).
    SetSketch2,
    /// GHLL with the experiment's (b, q); `tracking` enables §5.4
    /// lower-bound tracking.
    Ghll {
        /// Lower-bound tracking on/off.
        tracking: bool,
    },
    /// Classic MinHash (O(m) insert); measured only up to 10⁵ elements.
    MinHash,
}

impl RecordingStructure {
    /// Display label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            RecordingStructure::SetSketch1 => "setsketch1",
            RecordingStructure::SetSketch2 => "setsketch2",
            RecordingStructure::Ghll { tracking: false } => "ghll",
            RecordingStructure::Ghll { tracking: true } => "ghll_lbt",
            RecordingStructure::MinHash => "minhash",
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct RecordingExperiment {
    /// Structure under test.
    pub structure: RecordingStructure,
    /// Number of registers/components m.
    pub m: usize,
    /// Base b (ignored for MinHash).
    pub b: f64,
    /// Register limit q (ignored for MinHash).
    pub q: u32,
    /// SetSketch rate a.
    pub a: f64,
    /// Cardinalities to measure.
    pub cardinalities: Vec<u64>,
    /// Measurement repetitions per cardinality.
    pub runs: u32,
}

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingPoint {
    /// Structure label.
    pub structure: &'static str,
    /// Registers m.
    pub m: usize,
    /// Base b.
    pub b: f64,
    /// Recorded cardinality.
    pub n: u64,
    /// Average nanoseconds per inserted element.
    pub nanos_per_element: f64,
}

impl RecordingExperiment {
    /// Runs the measurement; one point per configured cardinality.
    pub fn run(&self) -> Vec<RecordingPoint> {
        self.cardinalities
            .iter()
            .map(|&n| {
                let mut capped = n;
                if self.structure == RecordingStructure::MinHash {
                    // The paper caps MinHash at 1e5 elements (Fig. 10).
                    capped = capped.min(100_000);
                }
                let nanos = self.measure(capped);
                RecordingPoint {
                    structure: self.structure.label(),
                    m: self.m,
                    b: self.b,
                    n: capped,
                    nanos_per_element: nanos,
                }
            })
            .collect()
    }

    fn measure(&self, n: u64) -> f64 {
        // One warmup run, then `runs` timed repetitions.
        self.record_once(n, u64::MAX);
        let mut total = std::time::Duration::ZERO;
        for run in 0..self.runs {
            let start = Instant::now();
            self.record_once(n, run as u64);
            total += start.elapsed();
        }
        total.as_nanos() as f64 / (self.runs as u64 * n.max(1)) as f64
    }

    /// Builds a fresh sketch and records n on-the-fly elements.
    fn record_once(&self, n: u64, run: u64) {
        let base = run.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        match self.structure {
            RecordingStructure::SetSketch1 => {
                let cfg = SetSketchConfig::new(self.m, self.b, self.a, self.q)
                    .expect("invalid configuration");
                let mut sketch = SetSketch1::new(cfg, run);
                for i in 0..n {
                    sketch.insert_hash(mix64(base.wrapping_add(i)));
                }
                std::hint::black_box(sketch.registers().get(0));
            }
            RecordingStructure::SetSketch2 => {
                let cfg = SetSketchConfig::new(self.m, self.b, self.a, self.q)
                    .expect("invalid configuration");
                let mut sketch = SetSketch2::new(cfg, run);
                for i in 0..n {
                    sketch.insert_hash(mix64(base.wrapping_add(i)));
                }
                std::hint::black_box(sketch.registers().get(0));
            }
            RecordingStructure::Ghll { tracking } => {
                let cfg = GhllConfig::new(self.m, self.b, self.q).expect("invalid configuration");
                let mut sketch = if tracking {
                    GhllSketch::with_lower_bound_tracking(cfg, run)
                } else {
                    GhllSketch::new(cfg, run)
                };
                for i in 0..n {
                    sketch.insert_hash(mix64(base.wrapping_add(i)));
                }
                std::hint::black_box(sketch.registers().get(0));
            }
            RecordingStructure::MinHash => {
                let mut sketch = MinHash::new(self.m, run);
                for i in 0..n {
                    sketch.insert_hash(mix64(base.wrapping_add(i)));
                }
                std::hint::black_box(sketch.values().first().copied());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(structure: RecordingStructure) -> RecordingExperiment {
        RecordingExperiment {
            structure,
            m: 256,
            b: 2.0,
            q: 62,
            a: 20.0,
            cardinalities: vec![100, 100_000],
            runs: 1,
        }
    }

    #[test]
    fn produces_one_point_per_cardinality() {
        let points = quick(RecordingStructure::Ghll { tracking: false }).run();
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.nanos_per_element > 0.0));
    }

    #[test]
    fn minhash_is_capped_and_slower() {
        let minhash = quick(RecordingStructure::MinHash).run();
        assert_eq!(minhash.last().unwrap().n, 100_000);
        let ghll = quick(RecordingStructure::Ghll { tracking: false }).run();
        // MinHash O(m) insert must be far slower than GHLL O(1).
        assert!(
            minhash.last().unwrap().nanos_per_element
                > 5.0 * ghll.last().unwrap().nanos_per_element,
            "minhash {} vs ghll {}",
            minhash.last().unwrap().nanos_per_element,
            ghll.last().unwrap().nanos_per_element
        );
    }

    #[test]
    fn setsketch_speeds_up_with_cardinality() {
        // Figure 10: the amortized insert cost falls as K_low rises.
        let mut exp = quick(RecordingStructure::SetSketch1);
        exp.cardinalities = vec![100, 1_000_000];
        let points = exp.run();
        assert!(
            points[1].nanos_per_element < points[0].nanos_per_element,
            "large-n {} should beat small-n {}",
            points[1].nanos_per_element,
            points[0].nanos_per_element
        );
    }
}
