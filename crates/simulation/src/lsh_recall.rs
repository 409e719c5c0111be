//! LSH retrieval-probability experiment (extension; paper §3.3 use case).
//!
//! §3.3 argues SetSketch registers can replace MinHash components in
//! banding LSH because their collision probability is a tight monotonic
//! function of the Jaccard similarity. This experiment validates the full
//! chain empirically: for pairs of prescribed similarity, the fraction of
//! pairs sharing at least one LSH band must fall between the S-curves
//! induced by the §3.3 collision-probability bounds.

use crate::workload::SetPair;
use lsh::{collision_curve, LshIndex};
use setsketch::{collision_probability_bounds, SetSketch1, SetSketchConfig};
use sketch_math::ErrorStats;

/// Parameters of the retrieval experiment.
#[derive(Debug, Clone)]
pub struct LshRecallExperiment {
    /// Registers per sketch (must be >= bands * rows).
    pub m: usize,
    /// Base b of the sketch.
    pub b: f64,
    /// Register limit q.
    pub q: u32,
    /// LSH bands.
    pub bands: usize,
    /// Rows per band.
    pub rows: usize,
    /// Cardinality of each set.
    pub set_cardinality: u64,
    /// Jaccard similarities to probe.
    pub jaccards: Vec<f64>,
    /// Pairs per similarity.
    pub pairs: u64,
}

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct LshRecallPoint {
    /// Probed Jaccard similarity (exact, after rounding set sizes).
    pub jaccard: f64,
    /// Fraction of pairs retrieved as candidates.
    pub retrieval_rate: f64,
    /// S-curve lower bound from the §3.3 collision bounds.
    pub predicted_low: f64,
    /// S-curve upper bound.
    pub predicted_high: f64,
    /// Mean fraction of equal registers (the collision probability).
    pub register_collision_rate: f64,
}

impl LshRecallExperiment {
    /// Runs the experiment; one point per configured similarity.
    pub fn run(&self) -> Vec<LshRecallPoint> {
        assert!(
            self.m >= self.bands * self.rows,
            "signature too short for the banding"
        );
        let cfg = SetSketchConfig::new(self.m, self.b, 20.0, self.q).expect("valid configuration");
        self.jaccards
            .iter()
            .enumerate()
            .map(|(j_index, &jaccard)| {
                // Equal-size pair with the prescribed similarity.
                let union = (2.0 * self.set_cardinality as f64 / (1.0 + jaccard)).round() as u64;
                let pair = SetPair::from_union_jaccard_ratio(union, jaccard, 1.0);
                let exact_j = pair.jaccard();
                let mut retrieved = 0u64;
                let mut collisions = ErrorStats::new(0.0);
                for index in 0..self.pairs {
                    // Streams carry at most 24 bits; give each similarity
                    // its own block of pair streams.
                    let stream = (j_index as u64) * 1_000_000 + index * 3;
                    let mut u = SetSketch1::new(cfg, 9);
                    let mut v = SetSketch1::new(cfg, 9);
                    u.extend(pair.u_elements(stream));
                    v.extend(pair.v_elements(stream));
                    let index_structure: LshIndex<u8> =
                        LshIndex::new(self.bands, self.rows).expect("valid banding");
                    index_structure.insert(1, &u.registers().to_vec());
                    if index_structure.query(&v.registers().to_vec()).contains(&1) {
                        retrieved += 1;
                    }
                    let equal = u
                        .registers()
                        .iter()
                        .zip(v.registers())
                        .filter(|(a, b)| a == b)
                        .count();
                    collisions.push(equal as f64 / self.m as f64);
                }
                let (p_low, p_high) = collision_probability_bounds(self.b, exact_j);
                LshRecallPoint {
                    jaccard: exact_j,
                    retrieval_rate: retrieved as f64 / self.pairs as f64,
                    predicted_low: collision_curve(p_low, self.bands, self.rows),
                    predicted_high: collision_curve(p_high, self.bands, self.rows),
                    register_collision_rate: collisions.mean(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn experiment() -> LshRecallExperiment {
        LshRecallExperiment {
            m: 256,
            b: 1.001,
            q: (1 << 16) - 2,
            bands: 32,
            rows: 8,
            set_cardinality: 2000,
            jaccards: vec![0.2, 0.5, 0.8, 0.95],
            pairs: 40,
        }
    }

    #[test]
    fn retrieval_follows_the_s_curve() {
        let points = experiment().run();
        for p in &points {
            // Binomial noise of the retrieval rate over `pairs` trials.
            let sigma = (p.predicted_high * (1.0 - p.predicted_high) / 40.0)
                .sqrt()
                .max(0.02);
            assert!(
                p.retrieval_rate >= p.predicted_low - 4.0 * sigma
                    && p.retrieval_rate <= p.predicted_high + 4.0 * sigma,
                "J={}: rate {} outside [{}, {}]",
                p.jaccard,
                p.retrieval_rate,
                p.predicted_low,
                p.predicted_high
            );
        }
        // The S-curve must actually separate low from high similarity.
        assert!(points[0].retrieval_rate < 0.5);
        assert!(points.last().unwrap().retrieval_rate > 0.9);
    }

    #[test]
    fn register_collision_rate_is_inside_the_bounds() {
        let points = experiment().run();
        for p in &points {
            let (lo, hi) = collision_probability_bounds(1.001, p.jaccard);
            let sigma = (hi * (1.0 - hi) / (256.0 * 40.0)).sqrt().max(1e-3);
            assert!(
                p.register_collision_rate > lo - 5.0 * sigma
                    && p.register_collision_rate < hi + 5.0 * sigma,
                "J={}: collision rate {} outside [{lo}, {hi}]",
                p.jaccard,
                p.register_collision_rate
            );
        }
    }

    #[test]
    #[should_panic(expected = "signature too short")]
    fn rejects_oversized_banding() {
        let mut exp = experiment();
        exp.bands = 64;
        exp.rows = 8; // needs 512 > m = 256
        exp.run();
    }
}
