//! Ablation benchmarks for the design choices called out in DESIGN.md.
//!
//! * lower-bound tracking on/off for GHLL recording (paper §5.4: a
//!   significant speedup for b = 2 at large cardinalities, no effect on
//!   the state);
//! * register update values via the precomputed-powers binary search
//!   (paper §5.1) versus direct logarithm evaluation;
//! * SetSketch1 (ziggurat spacings) versus SetSketch2 (truncated
//!   exponential intervals) insert cost;
//! * economical bit consumption ([`sketch_rand::BitStream`]) versus one
//!   generator word per request.

use bench::{bench_elements, BENCH_M};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperloglog::{GhllConfig, GhllSketch};
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};
use sketch_math::PowerTable;
use sketch_rand::{BitStream, Rng64, WyRand};

fn bench_lower_bound_tracking(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_lower_bound_tracking");
    group.sample_size(10);
    let n = 1_000_000u64;
    group.throughput(Throughput::Elements(n));
    for &b in &[2.0f64, 1.001] {
        let q = if b == 2.0 { 62 } else { (1 << 16) - 2 };
        let cfg = GhllConfig::new(BENCH_M, b, q).expect("valid");
        group.bench_with_input(
            BenchmarkId::new("off", format!("b{b}")),
            &n,
            |bencher, &n| {
                bencher.iter(|| {
                    let mut sketch = GhllSketch::new(cfg, 1);
                    sketch.extend(bench_elements(1, n));
                    sketch.registers().get(0)
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("on", format!("b{b}")),
            &n,
            |bencher, &n| {
                bencher.iter(|| {
                    let mut sketch = GhllSketch::with_lower_bound_tracking(cfg, 1);
                    sketch.extend(bench_elements(1, n));
                    sketch.registers().get(0)
                });
            },
        );
    }
    group.finish();
}

fn bench_update_value_computation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_update_value");
    let q = (1u32 << 16) - 2;
    let b = 1.001f64;
    let table = PowerTable::new(b, q);
    let inputs: Vec<f64> = {
        let mut rng = WyRand::new(3);
        (0..4096).map(|_| rng.unit_positive()).collect()
    };
    group.bench_function("binary_search", |bencher| {
        bencher.iter(|| {
            let mut acc = 0u64;
            for &x in &inputs {
                acc += table.update_value(x) as u64;
            }
            acc
        });
    });
    let ln_b = b.ln();
    group.bench_function("logarithm", |bencher| {
        bencher.iter(|| {
            let mut acc = 0u64;
            for &x in &inputs {
                let k = (1.0 - x.ln() / ln_b).floor().clamp(0.0, q as f64 + 1.0) as u64;
                acc += k;
            }
            acc
        });
    });
    group.finish();
}

fn bench_sequence_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sequences");
    group.sample_size(10);
    let cfg = SetSketchConfig::new(BENCH_M, 1.001, 20.0, (1 << 16) - 2).expect("valid");
    let n = 100_000u64;
    group.throughput(Throughput::Elements(n));
    group.bench_function("setsketch1_spacings", |bencher| {
        bencher.iter(|| {
            let mut sketch = SetSketch1::new(cfg, 1);
            sketch.extend(bench_elements(1, n));
            sketch.registers().get(0)
        });
    });
    group.bench_function("setsketch2_intervals", |bencher| {
        bencher.iter(|| {
            let mut sketch = SetSketch2::new(cfg, 1);
            sketch.extend(bench_elements(1, n));
            sketch.registers().get(0)
        });
    });
    group.finish();
}

fn bench_bit_economy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bit_economy");
    group.bench_function("bitstream_3bit_draws", |bencher| {
        bencher.iter(|| {
            let mut bits = BitStream::new(WyRand::new(1));
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc += bits.next_bits(3);
            }
            acc
        });
    });
    group.bench_function("full_word_3bit_draws", |bencher| {
        bencher.iter(|| {
            let mut rng = WyRand::new(1);
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc += rng.next_u64() & 0x7;
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lower_bound_tracking,
    bench_update_value_computation,
    bench_sequence_variants,
    bench_bit_economy
);
criterion_main!(benches);
