//! Equal-memory comparison (extension experiment).
//!
//! The paper's pitch condensed into one table: at a *fixed byte budget*,
//! which sketch estimates the Jaccard similarity best? SetSketch with
//! b = 1.001 spends 16 bits per register and still fits 4× more registers
//! than 64-bit MinHash, so its estimator noise is ~½ of MinHash's at the
//! same memory — while a same-budget HLL must fall back to
//! inclusion–exclusion. b-bit MinHash is the strongest space-reduction
//! competitor but loses mergeability.

use crate::workload::SetPair;
use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use minhash::{BBitSignature, MinHash};
use setsketch::{SetSketch1, SetSketchConfig};
use sketch_math::ErrorStats;

/// Contenders in the equal-memory shootout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryContender {
    /// SetSketch1, b = 1.001, 16-bit registers.
    SetSketchSmallBase,
    /// SetSketch1, b = 2, 6-bit registers.
    SetSketchBase2,
    /// Classic MinHash, 64-bit components.
    MinHash64,
    /// b-bit MinHash finalization, 4-bit components.
    BBitMinHash4,
    /// HLL (b = 2, 6 bit) with inclusion–exclusion.
    HllInclusionExclusion,
    /// HyperMinHash, r = 10 (16-bit registers).
    HyperMinHashR10,
}

impl MemoryContender {
    /// All contenders in display order.
    pub const ALL: [MemoryContender; 6] = [
        MemoryContender::SetSketchSmallBase,
        MemoryContender::SetSketchBase2,
        MemoryContender::MinHash64,
        MemoryContender::BBitMinHash4,
        MemoryContender::HllInclusionExclusion,
        MemoryContender::HyperMinHashR10,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MemoryContender::SetSketchSmallBase => "setsketch_b1.001_16bit",
            MemoryContender::SetSketchBase2 => "setsketch_b2_6bit",
            MemoryContender::MinHash64 => "minhash_64bit",
            MemoryContender::BBitMinHash4 => "bbit_minhash_4bit",
            MemoryContender::HllInclusionExclusion => "hll_inclusion_exclusion",
            MemoryContender::HyperMinHashR10 => "hyperminhash_r10",
        }
    }

    /// Number of registers/components that fit the byte budget.
    pub fn m_for_budget(&self, budget_bytes: usize) -> usize {
        let bits = budget_bytes * 8;
        match self {
            MemoryContender::SetSketchSmallBase | MemoryContender::HyperMinHashR10 => bits / 16,
            MemoryContender::SetSketchBase2 | MemoryContender::HllInclusionExclusion => bits / 6,
            MemoryContender::MinHash64 => bits / 64,
            MemoryContender::BBitMinHash4 => bits / 4,
        }
    }
}

/// Parameters of the shootout.
#[derive(Debug, Clone)]
pub struct MemoryExperiment {
    /// Byte budget per sketch.
    pub budget_bytes: usize,
    /// Union cardinality of each pair.
    pub union_cardinality: u64,
    /// Target Jaccard similarity (n_U = n_V).
    pub jaccard: f64,
    /// Number of evaluated pairs.
    pub pairs: u64,
}

/// One result row.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPoint {
    /// Contender label.
    pub contender: &'static str,
    /// Registers/components used.
    pub m: usize,
    /// Relative RMSE of the Jaccard estimate.
    pub relative_rmse: f64,
}

impl MemoryExperiment {
    /// Runs all contenders on identical pair workloads.
    pub fn run(&self) -> Vec<MemoryPoint> {
        let pair = SetPair::from_union_jaccard_ratio(self.union_cardinality, self.jaccard, 1.0);
        let j_true = pair.jaccard();
        MemoryContender::ALL
            .iter()
            .map(|&contender| {
                let m = contender.m_for_budget(self.budget_bytes);
                let mut stats = ErrorStats::new(j_true);
                for index in 0..self.pairs {
                    let stream = index * 3;
                    let estimate = self.estimate_one(contender, m, index, &pair, stream);
                    stats.push(estimate);
                }
                MemoryPoint {
                    contender: contender.label(),
                    m,
                    relative_rmse: stats.relative_rmse(),
                }
            })
            .collect()
    }

    fn estimate_one(
        &self,
        contender: MemoryContender,
        m: usize,
        seed: u64,
        pair: &SetPair,
        stream: u64,
    ) -> f64 {
        match contender {
            MemoryContender::SetSketchSmallBase => {
                let cfg = SetSketchConfig::new(m, 1.001, 20.0, (1 << 16) - 2).expect("valid");
                let mut u = SetSketch1::new(cfg, seed);
                let mut v = SetSketch1::new(cfg, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                u.estimate_joint(&v).expect("compatible").jaccard
            }
            MemoryContender::SetSketchBase2 => {
                let cfg = SetSketchConfig::new(m, 2.0, 20.0, 62).expect("valid");
                let mut u = SetSketch1::new(cfg, seed);
                let mut v = SetSketch1::new(cfg, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                u.estimate_joint(&v).expect("compatible").jaccard
            }
            MemoryContender::MinHash64 => {
                let mut u = MinHash::new(m, seed);
                let mut v = MinHash::new(m, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                u.estimate_joint(&v).expect("compatible").jaccard
            }
            MemoryContender::BBitMinHash4 => {
                let mut u = MinHash::new(m, seed);
                let mut v = MinHash::new(m, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                BBitSignature::from_minhash(&u, 4)
                    .estimate_jaccard(&BBitSignature::from_minhash(&v, 4))
            }
            MemoryContender::HllInclusionExclusion => {
                let cfg = GhllConfig::new(m, 2.0, 62).expect("valid");
                let mut u = GhllSketch::new(cfg, seed);
                let mut v = GhllSketch::new(cfg, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                u.estimate_joint_inclusion_exclusion(&v)
                    .expect("compatible")
                    .jaccard
            }
            MemoryContender::HyperMinHashR10 => {
                let cfg = HyperMinHashConfig::new(m, 10).expect("valid");
                let mut u = HyperMinHash::new(cfg, seed);
                let mut v = HyperMinHash::new(cfg, seed);
                u.extend(pair.u_elements(stream));
                v.extend(pair.v_elements(stream));
                u.estimate_joint(&v).expect("compatible").jaccard
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_are_respected() {
        let budget = 8192usize;
        assert_eq!(
            MemoryContender::SetSketchSmallBase.m_for_budget(budget),
            4096
        );
        assert_eq!(MemoryContender::MinHash64.m_for_budget(budget), 1024);
        assert_eq!(MemoryContender::BBitMinHash4.m_for_budget(budget), 16384);
        assert_eq!(MemoryContender::SetSketchBase2.m_for_budget(budget), 10922);
    }

    #[test]
    fn small_budget_shootout_favors_small_base_setsketch_over_minhash() {
        let exp = MemoryExperiment {
            budget_bytes: 1024,
            union_cardinality: 5000,
            jaccard: 0.2,
            pairs: 12,
        };
        let points = exp.run();
        assert_eq!(points.len(), MemoryContender::ALL.len());
        let get = |label: &str| {
            points
                .iter()
                .find(|p| p.contender == label)
                .expect("present")
                .relative_rmse
        };
        // 4x more registers => ~2x smaller RMSE; allow generous noise.
        assert!(
            get("setsketch_b1.001_16bit") < get("minhash_64bit") * 1.05,
            "setsketch {} vs minhash {}",
            get("setsketch_b1.001_16bit"),
            get("minhash_64bit")
        );
        // Inclusion-exclusion from HLL is far worse than order-based
        // estimation at the same budget.
        assert!(get("hll_inclusion_exclusion") > get("setsketch_b2_6bit"));
    }
}
