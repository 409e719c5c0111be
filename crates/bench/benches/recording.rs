//! Recording-speed benchmarks (paper Figure 10).
//!
//! Measures the amortized insert cost per element at several set
//! cardinalities for SetSketch1/2, GHLL (with and without lower-bound
//! tracking) and MinHash. The paper's qualitative expectations:
//! GHLL flat and fast; MinHash flat and ~m times slower; SetSketch slow
//! for tiny sets and approaching GHLL speed as the lower bound rises.
//!
//! The SetSketch figures use an explicit per-element `insert_u64` loop
//! so they measure *streaming* Algorithm 1 — comparable with the
//! GHLL/MinHash curves. `insert_batch` and `extend` apply a batch in
//! value order instead (passes under a doubling bound), which fills a
//! sketch below n ≈ m a few register steps per element instead of most
//! of its m values; that path is benchmarked separately as
//! `setsketch{1,2}_batched`.
//!
//! The `small_batch` group checks the other side of that trade: batches
//! of 1, 2, 8 and 64 elements into an empty and into an n = 2 048
//! sketch, `insert_batch` (`batched`) against the `insert_u64` loop
//! (`looped`). Each iteration starts from a clone of the prior sketch,
//! so both columns include one clone.

use bench::{bench_elements, BENCH_CARDINALITIES, BENCH_M};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hyperloglog::{GhllConfig, GhllSketch};
use minhash::MinHash;
use setsketch::{SetSketch1, SetSketch2, SetSketchConfig};

fn setsketch_config(b: f64) -> SetSketchConfig {
    let q = if b == 2.0 { 62 } else { (1 << 16) - 2 };
    SetSketchConfig::new(BENCH_M, b, 20.0, q).expect("valid configuration")
}

fn bench_recording(c: &mut Criterion) {
    let mut group = c.benchmark_group("recording");
    group.sample_size(10);

    for &n in &BENCH_CARDINALITIES {
        group.throughput(Throughput::Elements(n));
        for &b in &[2.0f64, 1.001] {
            group.bench_with_input(
                BenchmarkId::new(format!("setsketch1/b{b}"), n),
                &n,
                |bencher, &n| {
                    let cfg = setsketch_config(b);
                    bencher.iter(|| {
                        let mut sketch = SetSketch1::new(cfg, 1);
                        for e in bench_elements(1, n) {
                            sketch.insert_u64(e);
                        }
                        sketch.registers().get(0)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("setsketch1_batched/b{b}"), n),
                &n,
                |bencher, &n| {
                    let cfg = setsketch_config(b);
                    let elements: Vec<u64> = bench_elements(1, n).collect();
                    bencher.iter(|| {
                        let mut sketch = SetSketch1::new(cfg, 1);
                        sketch.insert_batch(&elements);
                        sketch.registers().get(0)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("setsketch2_batched/b{b}"), n),
                &n,
                |bencher, &n| {
                    let cfg = setsketch_config(b);
                    let elements: Vec<u64> = bench_elements(1, n).collect();
                    bencher.iter(|| {
                        let mut sketch = SetSketch2::new(cfg, 1);
                        sketch.insert_batch(&elements);
                        sketch.registers().get(0)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("setsketch2/b{b}"), n),
                &n,
                |bencher, &n| {
                    let cfg = setsketch_config(b);
                    bencher.iter(|| {
                        let mut sketch = SetSketch2::new(cfg, 1);
                        for e in bench_elements(1, n) {
                            sketch.insert_u64(e);
                        }
                        sketch.registers().get(0)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("ghll/b{b}"), n),
                &n,
                |bencher, &n| {
                    let q = if b == 2.0 { 62 } else { (1 << 16) - 2 };
                    let cfg = GhllConfig::new(BENCH_M, b, q).expect("valid");
                    bencher.iter(|| {
                        let mut sketch = GhllSketch::new(cfg, 1);
                        sketch.extend(bench_elements(1, n));
                        sketch.registers().get(0)
                    });
                },
            );
        }
        // MinHash has no base parameter; cap at 1e5 like the paper.
        if n <= 100_000 {
            group.bench_with_input(BenchmarkId::new("minhash", n), &n, |bencher, &n| {
                bencher.iter(|| {
                    let mut sketch = MinHash::new(BENCH_M, 1);
                    sketch.extend(bench_elements(1, n));
                    sketch.values()[0]
                });
            });
        }
    }
    group.finish();
}

/// Batch sizes of the small-batch series.
const SMALL_BATCHES: [usize; 4] = [1, 2, 8, 64];

fn bench_small_batches(c: &mut Criterion) {
    let mut group = c.benchmark_group("small_batch");
    group.sample_size(10);
    for &b in &[2.0f64, 1.001] {
        for prior_n in [0u64, 2_048] {
            let mut prior = SetSketch1::new(setsketch_config(b), 1);
            prior.insert_batch(&bench_elements(2, prior_n).collect::<Vec<_>>());
            for &size in &SMALL_BATCHES {
                let batch: Vec<u64> = bench_elements(3, size as u64).collect();
                group.throughput(Throughput::Elements(size as u64));
                let id = |path: &str| BenchmarkId::new(format!("n{prior_n}/b{b}/{path}"), size);
                group.bench_with_input(id("batched"), &batch, |bencher, batch| {
                    bencher.iter(|| {
                        let mut sketch = prior.clone();
                        sketch.insert_batch(batch);
                        sketch.registers().get(0)
                    });
                });
                group.bench_with_input(id("looped"), &batch, |bencher, batch| {
                    bencher.iter(|| {
                        let mut sketch = prior.clone();
                        for &e in batch {
                            sketch.insert_u64(e);
                        }
                        sketch.registers().get(0)
                    });
                });
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_recording, bench_small_batches);
criterion_main!(benches);
