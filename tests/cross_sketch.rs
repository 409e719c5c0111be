//! Cross-family consistency: the correspondences the paper proves between
//! SetSketch, MinHash, GHLL and HyperMinHash must show up empirically.

use hyperloglog::{GhllConfig, GhllSketch};
use hyperminhash::{HyperMinHash, HyperMinHashConfig};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_rand::mix64;

fn elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

/// All four families estimate the same cardinality for the same set,
/// within their respective error bounds.
#[test]
fn all_families_agree_on_cardinality() {
    let n = 80_000u64;
    let m = 1024usize;

    let sscfg = SetSketchConfig::new(m, 2.0, 20.0, 62).unwrap();
    let mut ss = SetSketch1::new(sscfg, 1);
    let mut mh = MinHash::new(m, 1);
    let ghllcfg = GhllConfig::hyperloglog(m).unwrap();
    let mut hll = GhllSketch::new(ghllcfg, 1);
    let hmhcfg = HyperMinHashConfig::new(m, 10).unwrap();
    let mut hmh = HyperMinHash::new(hmhcfg, 1);

    for e in elements(42, n) {
        ss.insert_u64(e);
        mh.insert_u64(e);
        hll.insert_u64(e);
        hmh.insert_u64(e);
    }

    for (label, estimate) in [
        ("setsketch", ss.estimate_cardinality()),
        ("minhash", mh.estimate_cardinality()),
        ("hll", hll.estimate_cardinality()),
        ("hyperminhash", hmh.estimate_cardinality()),
    ] {
        let rel = (estimate - n as f64) / n as f64;
        assert!(
            rel.abs() < 0.2,
            "{label}: estimate {estimate} deviates {rel}"
        );
    }
}

/// GHLL register values follow the SetSketch distribution with a = 1/m
/// (Lemma 20): the mean register value of a GHLL at cardinality n matches
/// a SetSketch1 configured with a = 1/m at the same n, up to stochastic-
/// averaging noise.
#[test]
fn ghll_matches_setsketch_with_a_one_over_m() {
    let m = 512usize;
    let n = 200_000u64;
    let ghll_cfg = GhllConfig::hyperloglog(m).unwrap();
    let ss_cfg = SetSketchConfig::new(m, 2.0, 1.0 / m as f64, 62).unwrap();

    let mut mean_ghll = 0.0f64;
    let mut mean_ss = 0.0f64;
    let runs = 5;
    for seed in 0..runs {
        let mut ghll = GhllSketch::new(ghll_cfg, seed);
        let mut ss = SetSketch1::new(ss_cfg, seed);
        for e in elements(seed + 50, n) {
            ghll.insert_u64(e);
            ss.insert_u64(e);
        }
        mean_ghll += ghll.registers().iter().map(|k| k as f64).sum::<f64>();
        mean_ss += ss.registers().iter().map(|k| k as f64).sum::<f64>();
    }
    mean_ghll /= (runs as usize * m) as f64;
    mean_ss /= (runs as usize * m) as f64;
    assert!(
        (mean_ghll - mean_ss).abs() < 0.1,
        "mean registers: ghll {mean_ghll} vs setsketch(a=1/m) {mean_ss}"
    );
}

/// SetSketch with b = 1.001 must reach the classic MinHash Jaccard
/// accuracy (paper Fig. 2): compare squared errors over multiple runs.
#[test]
fn small_base_setsketch_matches_minhash_jaccard_accuracy() {
    let m = 1024usize;
    let cfg = SetSketchConfig::new(m, 1.001, 20.0, (1 << 16) - 2).unwrap();
    let (n1, n2, n3) = (2000u64, 2000, 1000);
    let j_true = n3 as f64 / 5000.0;
    let runs = 100;
    let (mut se_ss, mut se_mh) = (0.0f64, 0.0);
    for seed in 0..runs {
        let mut ss_u = SetSketch1::new(cfg, seed);
        let mut ss_v = SetSketch1::new(cfg, seed);
        let mut mh_u = MinHash::new(m, seed);
        let mut mh_v = MinHash::new(m, seed);
        for e in elements(seed * 3 + 600, n1) {
            ss_u.insert_u64(e);
            mh_u.insert_u64(e);
        }
        for e in elements(seed * 3 + 601, n2) {
            ss_v.insert_u64(e);
            mh_v.insert_u64(e);
        }
        for e in elements(seed * 3 + 602, n3) {
            ss_u.insert_u64(e);
            ss_v.insert_u64(e);
            mh_u.insert_u64(e);
            mh_v.insert_u64(e);
        }
        let j_ss = ss_u.estimate_joint(&ss_v).unwrap().jaccard;
        let j_mh = mh_u.jaccard_classic(&mh_v).unwrap();
        se_ss += (j_ss - j_true) * (j_ss - j_true);
        se_mh += (j_mh - j_true) * (j_mh - j_true);
    }
    // SetSketch at b = 1.001 should be comparable to the dedicated MinHash
    // estimator, using a quarter of the memory (paper Fig. 2). Squared
    // errors are chi-square with ~100 degrees of freedom; 1.8x covers
    // ~4 sigma of that ratio noise.
    assert!(
        se_ss < se_mh * 1.8,
        "setsketch SE {se_ss} vs minhash SE {se_mh}"
    );
}

/// The equal-register fraction of two SetSketches stays inside the §3.3
/// collision probability bounds.
#[test]
fn collision_rate_respects_bounds() {
    let cfg = SetSketchConfig::new(4096, 1.2, 20.0, 4000).unwrap();
    for (seed, j_target) in [(1u64, 0.2f64), (2, 0.5), (3, 0.8)] {
        let union = 30_000u64;
        let n3 = (union as f64 * j_target) as u64;
        let half = (union - n3) / 2;
        let mut u = SetSketch1::new(cfg, seed);
        let mut v = SetSketch1::new(cfg, seed);
        for e in elements(seed * 3 + 700, half) {
            u.insert_u64(e);
        }
        for e in elements(seed * 3 + 701, half) {
            v.insert_u64(e);
        }
        for e in elements(seed * 3 + 702, n3) {
            u.insert_u64(e);
            v.insert_u64(e);
        }
        let equal = u
            .registers()
            .iter()
            .zip(v.registers())
            .filter(|(a, b)| a == b)
            .count() as f64
            / 4096.0;
        let j_exact = n3 as f64 / (2 * half + n3) as f64;
        let (lo, hi) = setsketch::collision_probability_bounds(1.2, j_exact);
        // Allow 4-sigma binomial noise around the bounds.
        let sigma = (hi * (1.0 - hi) / 4096.0).sqrt().max(1e-3);
        assert!(
            equal > lo - 4.0 * sigma && equal < hi + 4.0 * sigma,
            "j={j_exact}: equal fraction {equal} outside [{lo}, {hi}]"
        );
    }
}

/// One family's joint estimator with supplied cardinalities, fed the
/// sketches' own cardinality estimates, is its plain joint estimator bit
/// for bit — the same quantities or the same error — on seeded fills,
/// empty sketches, mismatched sizes and mismatched seeds.
/// `make(size, seed)` builds an empty sketch; the other arguments are the
/// family's inherent methods.
fn assert_supplied_cardinalities_are_joint<S, R: std::fmt::Debug>(
    family: &str,
    make: impl Fn(usize, u64) -> S,
    insert: impl Fn(&mut S, u64),
    cardinality: impl Fn(&S) -> f64,
    joint: impl Fn(&S, &S) -> R,
    joint_with_cardinalities: impl Fn(&S, &S, f64, f64) -> R,
) {
    let filled = |size: usize, seed: u64, streams: &[(u64, u64)]| {
        let mut sketch = make(size, seed);
        for &(stream, n) in streams {
            elements(stream, n).for_each(|e| insert(&mut sketch, e));
        }
        sketch
    };
    let u = filled(256, 5, &[(80, 3_000), (82, 2_000)]);
    let v = filled(256, 5, &[(81, 6_000), (82, 2_000)]);
    let small = filled(256, 5, &[(83, 40)]);
    let empty = make(256, 5);
    let other_size = filled(512, 5, &[(80, 3_000)]);
    let other_seed = filled(256, 6, &[(80, 3_000)]);
    let pairs = [
        ("filled", &u, &v),
        ("filled, swapped", &v, &u),
        ("small", &small, &u),
        ("empty left", &empty, &u),
        ("empty right", &u, &empty),
        ("both empty", &empty, &empty),
        ("mismatched size", &u, &other_size),
        ("mismatched seed", &u, &other_seed),
    ];
    for (case, a, b) in pairs {
        let plain = joint(a, b);
        let supplied = joint_with_cardinalities(a, b, cardinality(a), cardinality(b));
        // Debug renders every f64 in round-trip form and names the
        // error variant, so equal strings are equal results.
        assert_eq!(
            format!("{plain:?}"),
            format!("{supplied:?}"),
            "{family}, {case}"
        );
    }
}

#[test]
fn supplied_cardinalities_reproduce_joint_for_every_family() {
    assert_supplied_cardinalities_are_joint(
        "SetSketch1",
        |m, seed| SetSketch1::new(SetSketchConfig::new(m, 2.0, 20.0, 62).unwrap(), seed),
        SetSketch1::insert_u64,
        SetSketch1::estimate_cardinality,
        SetSketch1::estimate_joint,
        SetSketch1::estimate_joint_with_cardinalities,
    );
    assert_supplied_cardinalities_are_joint(
        "SetSketch2",
        |m, seed| {
            let config = SetSketchConfig::new(m, 1.001, 20.0, (1 << 16) - 2).unwrap();
            SetSketch2::new(config, seed)
        },
        SetSketch2::insert_u64,
        SetSketch2::estimate_cardinality,
        SetSketch2::estimate_joint,
        SetSketch2::estimate_joint_with_cardinalities,
    );
    assert_supplied_cardinalities_are_joint(
        "GHLL",
        |m, seed| GhllSketch::new(GhllConfig::hyperloglog(m).unwrap(), seed),
        GhllSketch::insert_u64,
        GhllSketch::estimate_cardinality,
        GhllSketch::estimate_joint_ml_unchecked,
        GhllSketch::estimate_joint_with_cardinalities,
    );
    assert_supplied_cardinalities_are_joint(
        "HyperMinHash",
        |m, seed| HyperMinHash::new(HyperMinHashConfig::new(m, 10).unwrap(), seed),
        HyperMinHash::insert_u64,
        HyperMinHash::estimate_cardinality,
        HyperMinHash::estimate_joint,
        HyperMinHash::estimate_joint_with_cardinalities,
    );
    assert_supplied_cardinalities_are_joint(
        "MinHash",
        MinHash::new,
        MinHash::insert_u64,
        MinHash::estimate_cardinality,
        MinHash::estimate_joint,
        MinHash::estimate_joint_with_cardinalities,
    );
}
