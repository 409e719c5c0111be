//! End-to-end accuracy integration tests: empirical estimation errors of
//! every sketch family must match the paper's theoretical predictions
//! within sampling tolerance.

use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_math::fisher;
use sketch_rand::mix64;

fn elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

/// Empirical relative RMSE of cardinality estimates over several seeds.
fn cardinality_rmse<F: Fn(u64) -> f64>(truth: u64, runs: u64, estimate: F) -> f64 {
    let se: f64 = (0..runs)
        .map(|seed| {
            let e = estimate(seed);
            ((e - truth as f64) / truth as f64).powi(2)
        })
        .sum();
    (se / runs as f64).sqrt()
}

#[test]
fn setsketch1_cardinality_error_matches_rsd() {
    let cfg = SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap();
    let n = 30_000u64;
    let rmse = cardinality_rmse(n, 30, |seed| {
        let mut s = SetSketch1::new(cfg, seed);
        s.extend(elements(seed, n));
        s.estimate_cardinality()
    });
    let rsd = cfg.cardinality_rsd(); // 1.04/sqrt(256) ~ 6.5 %
    assert!(
        rmse < rsd * 1.45 && rmse > rsd * 0.6,
        "rmse {rmse} vs theoretical {rsd}"
    );
}

#[test]
fn setsketch2_small_set_error_beats_asymptote() {
    // Paper Fig. 5: SetSketch2's correlation helps below n = m.
    let cfg = SetSketchConfig::new(1024, 2.0, 20.0, 62).unwrap();
    let n = 50u64;
    let rmse = cardinality_rmse(n, 60, |seed| {
        let mut s = SetSketch2::new(cfg, seed);
        s.extend(elements(seed, n));
        s.estimate_cardinality()
    });
    assert!(
        rmse < cfg.cardinality_rsd() * 0.7,
        "rmse {rmse} should beat the asymptote {}",
        cfg.cardinality_rsd()
    );
}

#[test]
fn hyperloglog_error_matches_104_over_sqrt_m() {
    let cfg = GhllConfig::hyperloglog(256).unwrap();
    let n = 50_000u64;
    let rmse = cardinality_rmse(n, 30, |seed| {
        let mut s = GhllSketch::new(cfg, seed);
        s.extend(elements(seed + 100, n));
        s.estimate_cardinality()
    });
    let rsd = 1.04 / 16.0;
    assert!(
        rmse < rsd * 1.45 && rmse > rsd * 0.6,
        "rmse {rmse} vs theoretical {rsd}"
    );
}

#[test]
fn minhash_error_matches_one_over_sqrt_m() {
    let n = 20_000u64;
    let m = 1024usize;
    let rmse = cardinality_rmse(n, 25, |seed| {
        let mut s = MinHash::new(m, seed);
        s.extend(elements(seed + 200, n));
        s.estimate_cardinality()
    });
    let rsd = 1.0 / (m as f64).sqrt();
    assert!(
        rmse < rsd * 1.5 && rmse > rsd * 0.55,
        "rmse {rmse} vs theoretical {rsd}"
    );
}

/// Build a (U, V) pair with the prescribed structure on any sketch.
fn record_pair<S>(mut u: S, mut v: S, n1: u64, n2: u64, n3: u64, tag: u64) -> (S, S)
where
    S: SketchLike,
{
    for e in elements(tag * 3, n1) {
        u.add(e);
    }
    for e in elements(tag * 3 + 1, n2) {
        v.add(e);
    }
    for e in elements(tag * 3 + 2, n3) {
        u.add(e);
        v.add(e);
    }
    (u, v)
}

trait SketchLike {
    fn add(&mut self, e: u64);
}

impl SketchLike for SetSketch1 {
    fn add(&mut self, e: u64) {
        self.insert_u64(e);
    }
}

impl SketchLike for MinHash {
    fn add(&mut self, e: u64) {
        self.insert_u64(e);
    }
}

impl SketchLike for HyperMinHash {
    fn add(&mut self, e: u64) {
        self.insert_u64(e);
    }
}

#[test]
fn setsketch_jaccard_error_matches_fisher_information() {
    // b = 1.001, equal set sizes: the asymptotic RMSE equals the MinHash
    // bound sqrt(J(1-J)/m) (paper Fig. 2).
    let cfg = SetSketchConfig::new(1024, 1.001, 20.0, (1 << 16) - 2).unwrap();
    let (n1, n2, n3) = (10_000u64, 10_000, 5_000);
    let j_true = n3 as f64 / (n1 + n2 + n3) as f64;
    let runs = 30;
    let se: f64 = (0..runs)
        .map(|seed| {
            let (u, v) = record_pair(
                SetSketch1::new(cfg, seed),
                SetSketch1::new(cfg, seed),
                n1,
                n2,
                n3,
                seed + 500,
            );
            let est = u.estimate_joint(&v).unwrap().jaccard;
            (est - j_true) * (est - j_true)
        })
        .sum();
    let rmse = (se / runs as f64).sqrt();
    let theory = fisher::jaccard_rmse_theory(1024, 1.001, 0.5, 0.5, j_true);
    assert!(
        rmse < theory * 1.6 && rmse > theory * 0.5,
        "rmse {rmse} vs theory {theory}"
    );
}

#[test]
fn minhash_new_estimator_beats_classic_for_asymmetric_sets() {
    // Paper §4.1: for very different set sizes the new estimator's
    // advantage is largest.
    let (n1, n2, n3) = (20_000u64, 200, 300);
    let j_true = n3 as f64 / (n1 + n2 + n3) as f64;
    let runs = 40;
    let (mut se_new, mut se_classic) = (0.0f64, 0.0);
    for seed in 0..runs {
        let (u, v) = record_pair(
            MinHash::new(1024, seed),
            MinHash::new(1024, seed),
            n1,
            n2,
            n3,
            seed + 900,
        );
        let new = u.estimate_joint(&v).unwrap().jaccard;
        let classic = u.estimate_joint_classic(&v).unwrap().jaccard;
        se_new += (new - j_true) * (new - j_true);
        se_classic += (classic - j_true) * (classic - j_true);
    }
    assert!(
        se_new < se_classic,
        "new {se_new} should beat classic {se_classic}"
    );
}

#[test]
fn hyperminhash_matches_setsketch_accuracy_for_large_sets() {
    // Paper §5.3: for large sets HyperMinHash encodes joint information
    // as well as a SetSketch with the corresponding base.
    let cfg = HyperMinHashConfig::new(1024, 10).unwrap();
    let (n1, n2, n3) = (100_000u64, 100_000, 100_000);
    let j_true = n3 as f64 / 300_000.0;
    let runs = 15;
    let se: f64 = (0..runs)
        .map(|seed| {
            let (u, v) = record_pair(
                HyperMinHash::new(cfg, seed),
                HyperMinHash::new(cfg, seed),
                n1,
                n2,
                n3,
                seed + 1300,
            );
            let est = u.estimate_joint(&v).unwrap().jaccard;
            (est - j_true) * (est - j_true)
        })
        .sum();
    let rmse = (se / runs as f64).sqrt();
    let theory = fisher::jaccard_rmse_theory(1024, cfg.equivalent_base(), 0.5, 0.5, j_true);
    assert!(
        rmse < theory * 1.7,
        "rmse {rmse} should be near theory {theory}"
    );
}
