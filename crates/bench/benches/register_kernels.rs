//! Register-kernel microbenchmarks and end-to-end hot-path timings.
//!
//! Times the scalar `u32` reference kernels against the dispatched
//! (chunked, auto-vectorized) implementations at every lane width —
//! `u8`, `u16` and `u32`, one 32-byte chunk of 32 / 16 / 8 registers per
//! iteration — and the sketch-level operations built on them at the
//! configuration each width serves: clone, merge, compress, decompress,
//! the 6-bit `pack_bits`/`unpack_bits` form of `to_bytes`,
//! warm-sketch cardinality estimation (which must *not* scale with m on
//! dense scales thanks to the maintained histogram) and joint
//! estimation.
//!
//! Every routine is timed exactly once, by this file's [`measure`]
//! (same scheme as the vendored criterion shim: ~1 ms batches, median
//! of the samples). Each measurement is both printed in the shim's
//! output format and recorded into `BENCH_kernels.json` at the
//! workspace root, so the speedups are checked into the repository next
//! to the claims README makes about them. (The shim's `Bencher` does
//! not expose its result, so reusing it would force every routine to
//! run under two independent harnesses.)

use bench::bench_elements;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use setsketch::{SetSketch2, SetSketchConfig};
use sketch_core::Sketch;
use sketch_math::bitpack;
use sketch_math::kernels::{self, scalar, Lane};
use std::time::Instant;

/// Register counts probed by every benchmark: the ledger's two sketch
/// sizes.
const SIZES: [usize; 2] = [256, 4096];

/// Register histogram buckets (q = 62 as in the paper's experiments).
const BUCKETS: usize = 64;

/// Timing samples per measurement.
const SAMPLES: usize = 40;

/// `(row suffix, b, q)` of the sketch configuration each lane width
/// serves: the paper's b = 2 scale on byte lanes, its two-byte
/// b = 1.001 example, and a 17-bit scale past both.
const WIDTHS: [(&str, f64, u32); 3] = [
    ("u8", 2.0, 62),
    ("u16", 1.001, 65_534),
    ("u32", 1.0005, 131_070),
];

/// Deterministic register-like contents (values in `0..BUCKETS`).
fn registers(stream: u64, len: usize) -> Vec<u32> {
    bench_elements(stream, len as u64)
        .map(|x| (x % BUCKETS as u64) as u32)
        .collect()
}

fn narrowed<L: Lane>(values: &[u32]) -> Vec<L> {
    values
        .iter()
        .map(|&v| L::narrow(v).expect("bucket values fit every lane"))
        .collect()
}

/// Median nanoseconds per call of `routine` (batch sized to ~1 ms,
/// median of [`SAMPLES`] batches).
fn measure<R>(mut routine: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    black_box(routine());
    let once = start.elapsed().max(std::time::Duration::from_nanos(1));
    let batch = (1_000_000 / once.as_nanos().max(1)).clamp(1, 1_000_000) as usize;
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            start.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// One measurement: printed criterion-style and recorded for the JSON.
struct Record {
    name: String,
    m: usize,
    nanos: f64,
}

fn record(records: &mut Vec<Record>, group: &str, name: &str, m: usize, nanos: f64) {
    let display = if nanos < 1e3 {
        format!("{nanos:.2} ns")
    } else if nanos < 1e6 {
        format!("{:.2} µs", nanos / 1e3)
    } else {
        format!("{:.2} ms", nanos / 1e6)
    };
    println!("{:<60} time: [{display}]", format!("{group}/{name}/{m}"));
    records.push(Record {
        name: name.to_owned(),
        m,
        nanos,
    });
}

/// `(D⁺, D⁻, D₀)`.
type CompareCounts = (u32, u32, u32);

/// One implementation of the five kernels over lanes of type `L`.
struct KernelSet<L: 'static> {
    max_merge_min: fn(&mut [L], &[L]) -> (u32, bool),
    max_merge: fn(&mut [L], &[L]) -> bool,
    min_scan: fn(&[L]) -> u32,
    histogram: fn(&[L], &mut [u32]),
    compare: fn(&[L], &[L]) -> CompareCounts,
}

/// The scalar `u32` reference.
const SCALAR: KernelSet<u32> = KernelSet {
    max_merge_min: scalar::max_merge_min,
    max_merge: scalar::max_merge,
    min_scan: scalar::min_scan,
    histogram: scalar::histogram_counts,
    compare: scalar::compare_counts,
};

/// The chunked kernels the sketches call, at lane width `L`.
fn chunked<L: Lane>() -> KernelSet<L> {
    KernelSet {
        max_merge_min: kernels::max_merge_min,
        max_merge: kernels::max_merge,
        min_scan: kernels::min_scan,
        histogram: kernels::histogram_counts,
        compare: kernels::compare_counts,
    }
}

/// Times one kernel set at one size; rows are `{kernel}_{suffix}`.
fn bench_set<L: Lane>(records: &mut Vec<Record>, set: &KernelSet<L>, suffix: &str, m: usize) {
    const GROUP: &str = "register_kernels";
    let u = narrowed::<L>(&registers(1, m));
    let v = narrowed::<L>(&registers(2, m));
    let mut row = |kernel: &str, nanos: f64| {
        record(records, GROUP, &format!("{kernel}_{suffix}"), m, nanos);
    };
    // The merge kernels write their destination; the copy that resets it
    // is timed alone and subtracted.
    let copy_nanos = measure(|| black_box(u.clone()));
    let nanos = measure(|| {
        let mut dst = black_box(u.clone());
        (set.max_merge_min)(&mut dst, black_box(&v))
    });
    row("max_merge_min", (nanos - copy_nanos).max(0.1));
    let nanos = measure(|| {
        let mut dst = black_box(u.clone());
        (set.max_merge)(&mut dst, black_box(&v));
        dst
    });
    row("max_merge", (nanos - copy_nanos).max(0.1));
    row("min_scan", measure(|| (set.min_scan)(black_box(&u))));
    let mut counts = vec![0u32; BUCKETS];
    row(
        "histogram",
        measure(|| (set.histogram)(black_box(&u), &mut counts)),
    );
    row(
        "compare",
        measure(|| (set.compare)(black_box(&u), black_box(&v))),
    );
}

fn bench_kernels(records: &mut Vec<Record>) {
    for &m in &SIZES {
        bench_set(records, &SCALAR, "scalar", m);
        bench_set(records, &chunked::<u8>(), "u8", m);
        bench_set(records, &chunked::<u16>(), "u16", m);
        bench_set(records, &chunked::<u32>(), "u32", m);
    }
}

/// A sketch of `stream` (100 000 elements) sharing `prototype`'s
/// configuration-level state.
fn warm_sketch(prototype: &SetSketch2, stream: u64) -> SetSketch2 {
    let mut sketch = prototype.clone();
    sketch.extend(bench_elements(stream, 100_000));
    sketch
}

fn bench_end_to_end(records: &mut Vec<Record>) {
    const GROUP: &str = "register_kernels_e2e";
    for &m in &SIZES {
        for (suffix, b, q) in WIDTHS {
            let cfg = SetSketchConfig::new(m, b, 20.0, q).expect("valid");
            let prototype = SetSketch2::new(cfg, 1);
            let left = warm_sketch(&prototype, 9);
            let right = warm_sketch(&prototype, 11);
            let mut row = |name: &str, nanos: f64| {
                record(records, GROUP, &format!("{name}_{suffix}"), m, nanos);
            };

            let clone_nanos = measure(|| black_box(&left).clone());
            row("clone", clone_nanos);
            let nanos = measure(|| {
                let mut dst = black_box(&left).clone();
                dst.merge(black_box(&right)).expect("compatible");
                dst
            });
            row("merge", (nanos - clone_nanos).max(0.1));

            let packed = left.compress();
            row("compress", measure(|| black_box(&left).compress()));
            row(
                "decompress",
                measure(|| SetSketch2::decompress(&prototype, black_box(&packed)).expect("valid")),
            );

            // Warm-sketch estimation: O(q) from the maintained histogram
            // on the dense b = 2 scale, so flat across m there.
            row(
                "estimate_cardinality",
                measure(|| black_box(&left).estimate_cardinality()),
            );
            row(
                "estimate_joint",
                measure(|| {
                    black_box(&left)
                        .estimate_joint(black_box(&right))
                        .expect("compatible")
                }),
            );
        }

        // Batched ingest through the sorted-dedup fast path, into a cold
        // sketch each iteration so the K_low early exit does not
        // trivialize repeated runs; the construction baseline is
        // subtracted.
        let cfg = SetSketchConfig::new(m, 2.0, 20.0, 62).expect("valid");
        let prototype = SetSketch2::new(cfg, 1);
        let elements: Vec<u64> = bench_elements(13, 10_000).collect();
        let batch_nanos = measure(|| {
            let mut sketch = prototype.clone();
            sketch.insert_batch(black_box(&elements));
            sketch
        });
        let new_nanos = measure(|| prototype.clone());
        record(
            records,
            GROUP,
            "insert_batch_10k_u8",
            m,
            (batch_nanos - new_nanos).max(0.1),
        );
    }

    // The `to_bytes` register form: 6 bits per register (q = 62) from and
    // into byte lanes.
    const M: usize = 4096;
    let values = narrowed::<u8>(&registers(17, M));
    let packed = bitpack::pack_bits(&values, 6);
    record(
        records,
        GROUP,
        "pack_bits_u8",
        M,
        measure(|| bitpack::pack_bits(black_box(&values), 6)),
    );
    record(
        records,
        GROUP,
        "unpack_bits_u8",
        M,
        measure(|| bitpack::unpack_bits::<u8>(black_box(&packed), M, 6, 63).expect("valid")),
    );
}

/// Writes the records as JSON by hand (flat schema, no dependencies)
/// and derives the headline speedups the acceptance criteria track.
fn write_json(records: &[Record]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let lookup = |name: &str, m: usize| {
        records
            .iter()
            .find(|r| r.name == name && r.m == m)
            .map_or(0.0, |r| r.nanos)
    };
    let ratio = |over: f64, under: f64| if under > 0.0 { over / under } else { 0.0 };
    let mut out = String::from("{\n  \"note\": \"median ns per op; kernel rows: scalar = u32 reference, u8/u16/u32 = dispatched chunked kernel at that lane width (32 B per chunk); e2e rows: SetSketch2 at b=2 q=62 (u8), b=1.001 q=65534 (u16), b=1.0005 q=131070 (u32); estimate_cardinality_u8 is O(q) via the maintained histogram, so its time must stay flat in m\",\n  \"measurements\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"m\": {}, \"ns\": {:.1}}}{}\n",
            r.name,
            r.m,
            r.nanos,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"speedups_at_m4096\": {\n");
    let kernels = [
        "max_merge_min",
        "max_merge",
        "min_scan",
        "histogram",
        "compare",
    ];
    for (i, kernel) in kernels.iter().enumerate() {
        let at = |suffix: &str| lookup(&format!("{kernel}_{suffix}"), 4096);
        out.push_str(&format!(
            "    \"{kernel}\": {{\"scalar_over_u32\": {:.2}, \"u32_over_u16\": {:.2}, \"u32_over_u8\": {:.2}}}{}\n",
            ratio(at("scalar"), at("u32")),
            ratio(at("u32"), at("u16")),
            ratio(at("u32"), at("u8")),
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  }},\n  \"estimate_cardinality_u8_ns_by_m\": {{\"256\": {:.1}, \"4096\": {:.1}}}\n}}\n",
        lookup("estimate_cardinality_u8", 256),
        lookup("estimate_cardinality_u8", 4096),
    ));
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("wrote {path}");
    }
}

fn run(_c: &mut Criterion) {
    let mut records = Vec::new();
    bench_kernels(&mut records);
    bench_end_to_end(&mut records);
    write_json(&records);
}

criterion_group!(register_kernels, run);
criterion_main!(register_kernels);
