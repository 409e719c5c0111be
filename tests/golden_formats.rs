//! Golden byte formats: `to_bytes()` and `compress()` of SetSketch1,
//! SetSketch2 and GHLL are pinned by CRC-32 for
//! seeded fills at the three register widths (one-byte, two-byte and
//! four-byte lanes). The constants were captured before registers moved
//! to their natural width, so "every byte format and every register
//! value at a fixed seed is unchanged" is checked rather than asserted —
//! and since WAL merge records, checkpoints, spill segments and delta
//! pages carry exactly `compress()` payloads, a directory written by an
//! older binary decodes to the same registers.

use hyperloglog::{GhllConfig, GhllSketch};
use setsketch::{ExponentialSpacings, IntervalSampling};
use setsketch::{SetSketch, SetSketchConfig, ValueSequence};
use sketch_core::CompactSketch;
use sketch_math::crc32;
use sketch_rand::mix64;

/// `(m, b, q)` per register width: q + 1 ≤ 255 (the paper's b = 2
/// configuration), q + 1 = 65 535 (its two-byte b = 1.001 example), and
/// a 17-bit scale beyond both.
const WIDTHS: [(usize, f64, u32); 3] = [
    (4096, 2.0, 62),
    (256, 1.001, 65_534),
    (256, 1.0005, 131_070),
];

const FILLS: [u64; 2] = [10_000, 1_000_000];

fn elements(stream: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| mix64((stream << 40) | i))
}

/// `[to_bytes, compress]` checksums of one filled sketch.
type Golden = [u32; 2];

fn setsketch_golden<S: ValueSequence + std::fmt::Debug>(
    m: usize,
    b: f64,
    q: u32,
    n: u64,
) -> Golden {
    let config = SetSketchConfig::new(m, b, 20.0, q).unwrap();
    let mut sketch = SetSketch::<S>::new(config, 42);
    sketch.extend(elements(7, n));
    // The formats round-trip to an equal sketch, so the checksums pin
    // the decoders as well as the encoders.
    assert_eq!(
        SetSketch::<S>::from_bytes(&sketch.to_bytes()).unwrap(),
        sketch
    );
    assert_eq!(
        SetSketch::decompress(&sketch, &sketch.compress()).unwrap(),
        sketch
    );
    [crc32(&sketch.to_bytes()), crc32(&sketch.compress())]
}

fn ghll_golden(m: usize, b: f64, q: u32, n: u64) -> Golden {
    let config = GhllConfig::new(m, b, q).unwrap();
    let mut sketch = GhllSketch::with_lower_bound_tracking(config, 42);
    sketch.extend(elements(7, n));
    assert_eq!(GhllSketch::from_bytes(&sketch.to_bytes()).unwrap(), sketch);
    assert_eq!(
        GhllSketch::decompress(&sketch, &sketch.compress()).unwrap(),
        sketch
    );
    [crc32(&sketch.to_bytes()), crc32(&sketch.compress())]
}

/// Rows in `WIDTHS` × `FILLS` order.
fn check(family: &str, golden: impl Fn(usize, f64, u32, u64) -> Golden, expected: [Golden; 6]) {
    let mut rows = expected.iter();
    for (m, b, q) in WIDTHS {
        for n in FILLS {
            let got = golden(m, b, q, n);
            println!(
                "{family} m={m} b={b} q={q} n={n}: [{:#010x}, {:#010x}],",
                got[0], got[1]
            );
            assert_eq!(
                &got,
                rows.next().unwrap(),
                "{family} m={m} b={b} q={q} n={n}: [to_bytes, compress]"
            );
        }
    }
}

#[test]
fn setsketch1_formats_are_unchanged() {
    check(
        "setsketch1",
        setsketch_golden::<ExponentialSpacings>,
        [
            [0x67e574cb, 0x337be747],
            [0x292e635b, 0x967098fd],
            [0x2fd9cd4a, 0x714a9f7f],
            [0x9a3fa94c, 0x743a538b],
            [0x0fb470f6, 0x8a5a7c9b],
            [0x26d010f0, 0x1a203c44],
        ],
    );
}

#[test]
fn setsketch2_formats_are_unchanged() {
    check(
        "setsketch2",
        setsketch_golden::<IntervalSampling>,
        [
            [0x2356c9b3, 0x6ddc26b0],
            [0xf34d0a6c, 0xdb55831d],
            [0xb6a4a7a3, 0xb9241bbd],
            [0x4d18fe6d, 0x9461a07e],
            [0x38c02c4b, 0x73051fce],
            [0x0c677b48, 0x1e95624d],
        ],
    );
}

#[test]
fn ghll_formats_are_unchanged() {
    check(
        "ghll",
        ghll_golden,
        [
            [0x70a0317b, 0x1b2e409a],
            [0x2e7e84fc, 0x80472e85],
            [0x53fd54d0, 0xe7445d83],
            [0x736e7632, 0x5b66ca62],
            [0xb387bf82, 0xe8edf69a],
            [0x37505e48, 0x90918610],
        ],
    );
}
