//! Joint estimation experiments (paper Figures 6–9 and 13–18).
//!
//! Pairs of sets with prescribed union cardinality, Jaccard similarity and
//! difference ratio are recorded into a pair of sketches; five joint
//! quantities (Jaccard, cosine, inclusion coefficient, intersection size,
//! difference size) are estimated with up to five strategies (the new ML
//! estimator with estimated and with known cardinalities, the structure's
//! original estimator where one exists, and inclusion–exclusion), and the
//! relative RMSE against the exact quantities is reported per ratio point —
//! exactly the series of the paper's joint-estimation figures.

use crate::workload::SetPair;
use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_math::{fisher, ErrorStats, JointQuantities};

/// Which sketch family the experiment uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JointSketchKind {
    /// SetSketch1 with parameters (b, a, q).
    SetSketch1,
    /// SetSketch2 with parameters (b, a, q).
    SetSketch2,
    /// GHLL with parameters (b, q); evaluated without the applicability
    /// check to reproduce the Figure 16 failure mode.
    Ghll,
    /// Classic MinHash (parameters b, a, q ignored; effective b = 1).
    MinHash,
    /// HyperMinHash with mantissa width r (effective b = 2^(2^-r)).
    HyperMinHash {
        /// Mantissa bits per register.
        r: u32,
    },
}

impl JointSketchKind {
    /// Display label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            JointSketchKind::SetSketch1 => "setsketch1",
            JointSketchKind::SetSketch2 => "setsketch2",
            JointSketchKind::Ghll => "ghll",
            JointSketchKind::MinHash => "minhash",
            JointSketchKind::HyperMinHash { .. } => "hyperminhash",
        }
    }

    /// The base used by the theory series.
    fn effective_base(&self, b: f64) -> f64 {
        match self {
            JointSketchKind::MinHash => 1.0,
            JointSketchKind::HyperMinHash { r } => 2.0f64.powf(2.0f64.powi(-(*r as i32))),
            _ => b,
        }
    }
}

/// Estimation strategies evaluated per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JointEstimatorKind {
    /// New ML estimator with cardinalities estimated from the sketches.
    New,
    /// New ML estimator with the true cardinalities.
    NewKnown,
    /// Inclusion–exclusion (13).
    InclusionExclusion,
    /// The structure's original estimator (MinHash: fraction of equal
    /// components; HyperMinHash: collision correction).
    Original,
    /// Original estimator with the true cardinalities.
    OriginalKnown,
}

impl JointEstimatorKind {
    /// Display label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            JointEstimatorKind::New => "new",
            JointEstimatorKind::NewKnown => "new_known",
            JointEstimatorKind::InclusionExclusion => "inclusion_exclusion",
            JointEstimatorKind::Original => "original",
            JointEstimatorKind::OriginalKnown => "original_known",
        }
    }
}

/// The five joint quantities tracked by the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantityKind {
    /// Jaccard similarity.
    Jaccard,
    /// Cosine similarity.
    Cosine,
    /// Inclusion coefficient |U ∩ V| / |U|.
    InclusionU,
    /// Intersection size.
    Intersection,
    /// Difference size |U \ V|.
    DifferenceUv,
}

impl QuantityKind {
    /// All quantities in figure order.
    pub const ALL: [QuantityKind; 5] = [
        QuantityKind::Jaccard,
        QuantityKind::Cosine,
        QuantityKind::InclusionU,
        QuantityKind::Intersection,
        QuantityKind::DifferenceUv,
    ];

    /// Display label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            QuantityKind::Jaccard => "jaccard",
            QuantityKind::Cosine => "cosine",
            QuantityKind::InclusionU => "inclusion_u",
            QuantityKind::Intersection => "intersection",
            QuantityKind::DifferenceUv => "difference_uv",
        }
    }

    /// Extracts the quantity from an estimate.
    pub fn extract(&self, q: &JointQuantities) -> f64 {
        match self {
            QuantityKind::Jaccard => q.jaccard,
            QuantityKind::Cosine => q.cosine,
            QuantityKind::InclusionU => q.inclusion_u,
            QuantityKind::Intersection => q.intersection,
            QuantityKind::DifferenceUv => q.difference_uv,
        }
    }

    /// |dg/dJ| at fixed cardinalities, for the theory series
    /// (`RMSE(g) = I^{-1/2}(J) · |g'(J)|` as m → ∞, paper §5.3).
    pub fn derivative_magnitude(&self, n_u: f64, n_v: f64, j: f64) -> f64 {
        let total = n_u + n_v;
        let denom = (1.0 + j) * (1.0 + j);
        match self {
            QuantityKind::Jaccard => 1.0,
            QuantityKind::Cosine => total / ((n_u * n_v).sqrt() * denom),
            QuantityKind::InclusionU => total / (n_u * denom),
            QuantityKind::Intersection => total / denom,
            QuantityKind::DifferenceUv => total / denom,
        }
    }
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct JointExperiment {
    /// Sketch family.
    pub kind: JointSketchKind,
    /// Number of registers/components m.
    pub m: usize,
    /// Base b (SetSketch/GHLL).
    pub b: f64,
    /// Register limit q (SetSketch/GHLL).
    pub q: u32,
    /// SetSketch rate a.
    pub a: f64,
    /// Union cardinality |U ∪ V|.
    pub union_cardinality: u64,
    /// Prescribed Jaccard similarity.
    pub jaccard: f64,
    /// Difference ratios |U \ V| / |V \ U| to sweep.
    pub ratios: Vec<f64>,
    /// Pairs evaluated per ratio point (the paper uses 1000).
    pub pairs: u64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Stream id offset separating experiments.
    pub stream_offset: u64,
}

/// One result point.
#[derive(Debug, Clone, PartialEq)]
pub struct JointPoint {
    /// Difference ratio of this point.
    pub ratio: f64,
    /// Estimator that produced the estimate.
    pub estimator: JointEstimatorKind,
    /// Which joint quantity.
    pub quantity: QuantityKind,
    /// Relative RMSE against the exact value.
    pub relative_rmse: f64,
}

/// Per-pair estimates of every applicable strategy.
struct PairEstimates {
    new: JointQuantities,
    new_known: JointQuantities,
    inclusion_exclusion: JointQuantities,
    original: Option<JointQuantities>,
    original_known: Option<JointQuantities>,
}

impl JointExperiment {
    /// The default ratio grid of the paper's figures: log-spaced over
    /// `[1e-3, 1e3]`.
    pub fn paper_ratios(points_per_side: usize) -> Vec<f64> {
        let mut ratios = Vec::new();
        for i in -(points_per_side as i64)..=(points_per_side as i64) {
            ratios.push(10.0f64.powf(3.0 * i as f64 / points_per_side as f64));
        }
        ratios
    }

    /// Theoretical relative RMSE for the known-cardinality ML estimator
    /// (the "theory" series of the figures).
    pub fn theory_relative_rmse(&self, ratio: f64, quantity: QuantityKind) -> f64 {
        let pair = SetPair::from_union_jaccard_ratio(self.union_cardinality, self.jaccard, ratio);
        let truth = pair.true_quantities();
        let (n_u, n_v) = (truth.n_u, truth.n_v);
        let total = n_u + n_v;
        let (u, v) = (n_u / total, n_v / total);
        let b = self.kind.effective_base(self.b);
        let j = truth.jaccard;
        let rmse_j = fisher::jaccard_rmse_theory(self.m, b, u, v, j);
        let g = quantity.extract(&truth);
        if g == 0.0 {
            return f64::NAN;
        }
        rmse_j * quantity.derivative_magnitude(n_u, n_v, j) / g.abs()
    }

    /// Runs the experiment; returns one row per (ratio, estimator,
    /// quantity).
    pub fn run(&self) -> Vec<JointPoint> {
        let estimators = self.estimators();
        let mut points = Vec::new();
        for (ratio_index, &ratio) in self.ratios.iter().enumerate() {
            let stats = self.run_ratio(ratio_index, ratio, &estimators);
            for ((estimator, quantity), stat) in estimators
                .iter()
                .flat_map(|&e| QuantityKind::ALL.iter().map(move |&q| (e, q)))
                .zip(stats.iter())
            {
                points.push(JointPoint {
                    ratio,
                    estimator,
                    quantity,
                    relative_rmse: if stat.truth() == 0.0 {
                        f64::NAN
                    } else {
                        stat.relative_rmse()
                    },
                });
            }
        }
        points
    }

    /// Strategies applicable to the configured sketch family.
    pub fn estimators(&self) -> Vec<JointEstimatorKind> {
        match self.kind {
            JointSketchKind::MinHash | JointSketchKind::HyperMinHash { .. } => vec![
                JointEstimatorKind::New,
                JointEstimatorKind::NewKnown,
                JointEstimatorKind::InclusionExclusion,
                JointEstimatorKind::Original,
                JointEstimatorKind::OriginalKnown,
            ],
            _ => vec![
                JointEstimatorKind::New,
                JointEstimatorKind::NewKnown,
                JointEstimatorKind::InclusionExclusion,
            ],
        }
    }

    fn run_ratio(
        &self,
        ratio_index: usize,
        ratio: f64,
        estimators: &[JointEstimatorKind],
    ) -> Vec<ErrorStats> {
        let pair = SetPair::from_union_jaccard_ratio(self.union_cardinality, self.jaccard, ratio);
        let truth = pair.true_quantities();
        let threads = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        let worker_stats = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for worker in 0..threads {
                // SetPair and JointQuantities are Copy; the move closure
                // captures per-worker copies.
                handles.push(scope.spawn(move || {
                    let mut stats: Vec<ErrorStats> = estimators
                        .iter()
                        .flat_map(|_| {
                            QuantityKind::ALL
                                .iter()
                                .map(|q| ErrorStats::new(q.extract(&truth)))
                        })
                        .collect();
                    let mut index = worker as u64;
                    while index < self.pairs {
                        let stream_base =
                            self.stream_offset + (ratio_index as u64 * self.pairs + index) * 3;
                        let estimates = self.evaluate_pair(&pair, &truth, stream_base, index);
                        self.accumulate(estimators, &estimates, &mut stats);
                        index += threads as u64;
                    }
                    stats
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        worker_stats
            .into_iter()
            .reduce(|mut acc, other| {
                for (a, b) in acc.iter_mut().zip(&other) {
                    a.merge(b);
                }
                acc
            })
            .expect("at least one worker")
    }

    fn accumulate(
        &self,
        estimators: &[JointEstimatorKind],
        estimates: &PairEstimates,
        stats: &mut [ErrorStats],
    ) {
        let mut slot = 0usize;
        for &estimator in estimators {
            let quantities = match estimator {
                JointEstimatorKind::New => Some(&estimates.new),
                JointEstimatorKind::NewKnown => Some(&estimates.new_known),
                JointEstimatorKind::InclusionExclusion => Some(&estimates.inclusion_exclusion),
                JointEstimatorKind::Original => estimates.original.as_ref(),
                JointEstimatorKind::OriginalKnown => estimates.original_known.as_ref(),
            };
            for quantity in QuantityKind::ALL {
                if let Some(q) = quantities {
                    stats[slot].push(quantity.extract(q));
                }
                slot += 1;
            }
        }
    }

    fn evaluate_pair(
        &self,
        pair: &SetPair,
        truth: &JointQuantities,
        stream_base: u64,
        pair_index: u64,
    ) -> PairEstimates {
        let seed = pair_index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.stream_offset;
        match self.kind {
            JointSketchKind::SetSketch1 => {
                let cfg = SetSketchConfig::new(self.m, self.b, self.a, self.q)
                    .expect("invalid SetSketch configuration");
                let mut u = SetSketch1::new(cfg, seed);
                let mut v = SetSketch1::new(cfg, seed);
                u.extend(pair.u_elements(stream_base));
                v.extend(pair.v_elements(stream_base));
                PairEstimates {
                    new: u.estimate_joint(&v).expect("compatible"),
                    new_known: u
                        .estimate_joint_with_cardinalities(&v, truth.n_u, truth.n_v)
                        .expect("compatible"),
                    inclusion_exclusion: u
                        .estimate_joint_inclusion_exclusion(&v)
                        .expect("compatible"),
                    original: None,
                    original_known: None,
                }
            }
            JointSketchKind::SetSketch2 => {
                let cfg = SetSketchConfig::new(self.m, self.b, self.a, self.q)
                    .expect("invalid SetSketch configuration");
                let mut u = SetSketch2::new(cfg, seed);
                let mut v = SetSketch2::new(cfg, seed);
                u.extend(pair.u_elements(stream_base));
                v.extend(pair.v_elements(stream_base));
                PairEstimates {
                    new: u.estimate_joint(&v).expect("compatible"),
                    new_known: u
                        .estimate_joint_with_cardinalities(&v, truth.n_u, truth.n_v)
                        .expect("compatible"),
                    inclusion_exclusion: u
                        .estimate_joint_inclusion_exclusion(&v)
                        .expect("compatible"),
                    original: None,
                    original_known: None,
                }
            }
            JointSketchKind::Ghll => {
                let cfg =
                    GhllConfig::new(self.m, self.b, self.q).expect("invalid GHLL configuration");
                let mut u = GhllSketch::new(cfg, seed);
                let mut v = GhllSketch::new(cfg, seed);
                u.extend(pair.u_elements(stream_base));
                v.extend(pair.v_elements(stream_base));
                PairEstimates {
                    // Unchecked on purpose: Figure 16 documents the failure
                    // below the applicability threshold.
                    new: u.estimate_joint_ml_unchecked(&v).expect("compatible"),
                    new_known: u
                        .estimate_joint_with_cardinalities(&v, truth.n_u, truth.n_v)
                        .expect("compatible"),
                    inclusion_exclusion: u
                        .estimate_joint_inclusion_exclusion(&v)
                        .expect("compatible"),
                    original: None,
                    original_known: None,
                }
            }
            JointSketchKind::MinHash => {
                let mut u = MinHash::new(self.m, seed);
                let mut v = MinHash::new(self.m, seed);
                u.extend(pair.u_elements(stream_base));
                v.extend(pair.v_elements(stream_base));
                PairEstimates {
                    new: u.estimate_joint(&v).expect("compatible"),
                    new_known: u
                        .estimate_joint_with_cardinalities(&v, truth.n_u, truth.n_v)
                        .expect("compatible"),
                    inclusion_exclusion: u
                        .estimate_joint_inclusion_exclusion(&v)
                        .expect("compatible"),
                    original: Some(u.estimate_joint_classic(&v).expect("compatible")),
                    original_known: Some(
                        u.estimate_joint_classic_with_cardinalities(&v, truth.n_u, truth.n_v)
                            .expect("compatible"),
                    ),
                }
            }
            JointSketchKind::HyperMinHash { r } => {
                let cfg =
                    HyperMinHashConfig::new(self.m, r).expect("invalid HyperMinHash configuration");
                let mut u = HyperMinHash::new(cfg, seed);
                let mut v = HyperMinHash::new(cfg, seed);
                u.extend(pair.u_elements(stream_base));
                v.extend(pair.v_elements(stream_base));
                PairEstimates {
                    new: u.estimate_joint(&v).expect("compatible"),
                    new_known: u
                        .estimate_joint_with_cardinalities(&v, truth.n_u, truth.n_v)
                        .expect("compatible"),
                    inclusion_exclusion: u
                        .estimate_joint_inclusion_exclusion(&v)
                        .expect("compatible"),
                    original: Some(u.estimate_joint_original(&v).expect("compatible")),
                    original_known: Some(
                        u.estimate_joint_original_with_cardinalities(&v, truth.n_u, truth.n_v)
                            .expect("compatible"),
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(kind: JointSketchKind) -> JointExperiment {
        JointExperiment {
            kind,
            m: 256,
            b: 2.0,
            q: 62,
            a: 20.0,
            union_cardinality: 20_000,
            jaccard: 0.5,
            ratios: vec![1.0],
            pairs: 20,
            threads: 0,
            stream_offset: 0,
        }
    }

    fn rmse_of(
        points: &[JointPoint],
        estimator: JointEstimatorKind,
        quantity: QuantityKind,
    ) -> f64 {
        points
            .iter()
            .find(|p| p.estimator == estimator && p.quantity == quantity)
            .expect("point exists")
            .relative_rmse
    }

    #[test]
    fn setsketch1_new_beats_inclusion_exclusion() {
        let mut exp = base(JointSketchKind::SetSketch1);
        exp.jaccard = 0.1;
        let points = exp.run();
        let new = rmse_of(&points, JointEstimatorKind::New, QuantityKind::Jaccard);
        let inex = rmse_of(
            &points,
            JointEstimatorKind::InclusionExclusion,
            QuantityKind::Jaccard,
        );
        assert!(
            new < inex,
            "new {new} should beat inclusion-exclusion {inex}"
        );
    }

    #[test]
    fn known_cardinalities_match_theory() {
        let exp = base(JointSketchKind::SetSketch1);
        let points = exp.run();
        let known = rmse_of(&points, JointEstimatorKind::NewKnown, QuantityKind::Jaccard);
        let theory = exp.theory_relative_rmse(1.0, QuantityKind::Jaccard);
        // 20 pairs: the empirical RMSE itself has ~16 % relative noise.
        assert!(
            (known / theory - 1.0).abs() < 0.6,
            "known {known} vs theory {theory}"
        );
    }

    #[test]
    fn minhash_new_beats_original_overall() {
        let mut exp = base(JointSketchKind::MinHash);
        exp.union_cardinality = 4000;
        exp.jaccard = 0.1;
        exp.pairs = 30;
        let points = exp.run();
        let new = rmse_of(&points, JointEstimatorKind::New, QuantityKind::Jaccard);
        let original = rmse_of(&points, JointEstimatorKind::Original, QuantityKind::Jaccard);
        // §4.1: the new estimator dominates (allow noise slack).
        assert!(new < original * 1.15, "new {new} vs original {original}");
    }

    #[test]
    fn estimator_lists_match_sketch_family() {
        assert_eq!(base(JointSketchKind::SetSketch1).estimators().len(), 3);
        assert_eq!(base(JointSketchKind::MinHash).estimators().len(), 5);
        assert_eq!(
            base(JointSketchKind::HyperMinHash { r: 10 })
                .estimators()
                .len(),
            5
        );
    }

    #[test]
    fn paper_ratios_are_symmetric() {
        let ratios = JointExperiment::paper_ratios(3);
        assert_eq!(ratios.len(), 7);
        assert!((ratios[0] - 1e-3).abs() < 1e-12);
        assert!((ratios[3] - 1.0).abs() < 1e-12);
        assert!((ratios[6] - 1e3).abs() < 1e-9);
    }

    #[test]
    fn theory_rmse_is_finite_and_positive() {
        let exp = base(JointSketchKind::SetSketch1);
        for &ratio in &[0.001, 1.0, 1000.0] {
            for quantity in QuantityKind::ALL {
                let v = exp.theory_relative_rmse(ratio, quantity);
                assert!(v.is_nan() || v > 0.0, "ratio {ratio} {quantity:?}: {v}");
            }
        }
    }

    #[test]
    fn results_cover_all_combinations() {
        let mut exp = base(JointSketchKind::SetSketch2);
        exp.pairs = 5;
        exp.ratios = vec![0.1, 1.0, 10.0];
        let points = exp.run();
        assert_eq!(points.len(), 3 * 3 * 5); // ratios x estimators x quantities
    }
}
