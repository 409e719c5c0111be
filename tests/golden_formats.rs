//! Golden byte formats: `to_bytes()` and `compress()` of SetSketch1 and
//! SetSketch2 are pinned by CRC-32 for seeded fills at the three register
//! widths (one-byte, two-byte and four-byte lanes). The constants were
//! captured before registers moved to their natural width, so "every
//! byte format and every register value at a fixed seed is unchanged" is
//! checked rather than asserted — and since WAL merge records,
//! checkpoints, spill segments and delta pages carry exactly
//! `compress()` payloads, a directory written by an older binary decodes
//! to the same registers.
//!
//! The containers around those payloads are pinned the same way: one
//! wire frame of each of the 13 message kinds, the WAL segment a durable
//! store writes for a fixed script of every logged operation, and the
//! checkpoint file of a one-key store (a checkpoint of more keys is not
//! byte-stable: shards iterate in hash-map order).

use setsketch::{ExponentialSpacings, IntervalSampling};
use setsketch::{SetSketch, SetSketchConfig, ValueSequence};
use sketch_cluster::{DeltaEntry, ErrorCode, Message, WireNeighbor};
use sketch_core::Sketch;
use sketch_math::crc32;
use sketch_rand::mix64;
use sketch_store::SketchStore;
use std::path::{Path, PathBuf};

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

fn setsketch_golden<S: ValueSequence + std::fmt::Debug>(
    m: usize,
    b: f64,
    q: u32,
    n: u64,
) -> [u32; 2] {
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

/// Rows in `WIDTHS` × `FILLS` order; each row holds the checksums of
/// `[to_bytes, compress]`.
fn check(family: &str, golden: impl Fn(usize, f64, u32, u64) -> [u32; 2], expected: [[u32; 2]; 6]) {
    let mut rows = expected.iter();
    for (m, b, q) in WIDTHS {
        for n in FILLS {
            let got = golden(m, b, q, n);
            println!("{family} m={m} b={b} q={q} n={n}: {got:#010x?},");
            assert_eq!(
                &got,
                rows.next().unwrap(),
                "{family} m={m} b={b} q={q} n={n}"
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

/// One message of every kind, with fixed field values; the `Delta`
/// carries three entries (one with an empty key and payload).
fn one_message_of_each_kind() -> Vec<Message> {
    let entry = |key: &str, version, payload: &[u8]| DeltaEntry {
        key: key.to_owned(),
        version,
        payload: payload.to_vec(),
    };
    vec![
        Message::DeltaRequest {
            after: 0x0102_0304_0506_0708,
            page_bytes: 256 << 10,
        },
        Message::Delta {
            after: 17,
            up_to: 42,
            complete: false,
            entries: vec![
                entry("users:eu", 18, &[1, 2, 3, 4, 5]),
                entry("", 30, &[]),
                entry("pages/ß", 42, &[0xff; 9]),
            ],
        },
        Message::Ingest {
            key: "events".to_owned(),
            elements: vec![0, 1, u64::MAX, 0xdead_beef],
        },
        Message::Cardinality {
            key: "events".to_owned(),
        },
        Message::Jaccard {
            left: "a".to_owned(),
            right: "bc".to_owned(),
        },
        Message::SimilarKeys {
            key: "q".to_owned(),
            k: 10,
            threshold_bits: 0.5f64.to_bits(),
        },
        Message::UnionSketch {
            keys: vec!["x".to_owned(), String::new(), "yz".to_owned()],
        },
        Message::Shutdown,
        Message::Ack,
        Message::Value {
            bits: 1234.5f64.to_bits(),
        },
        Message::Neighbors {
            items: vec![
                WireNeighbor::new("n1".to_owned(), 0.75),
                WireNeighbor::new("n2".to_owned(), 0.125),
            ],
        },
        Message::Payload {
            bytes: vec![9, 8, 7, 6],
        },
        Message::Error {
            code: ErrorCode::Overloaded,
            detail: "busy".to_owned(),
        },
    ]
}

#[test]
fn wire_frames_are_unchanged() {
    let expected: [(&str, u32); 13] = [
        ("delta_request", 0x9199b4c9),
        ("delta", 0x098f011b),
        ("ingest", 0xd6542812),
        ("cardinality", 0xf7a93908),
        ("jaccard", 0xa904afa8),
        ("similar_keys", 0x1571df37),
        ("union_sketch", 0x0c7bac9a),
        ("shutdown", 0x86f40a46),
        ("ack", 0x95989210),
        ("value", 0x95d8e268),
        ("neighbors", 0xa27e8916),
        ("payload", 0xbbe0798b),
        ("error", 0x3e4c1870),
    ];
    let messages = one_message_of_each_kind();
    assert_eq!(messages.len(), expected.len());
    let got: Vec<(&str, u32)> = messages
        .iter()
        .map(|message| {
            let frame = message.encode_frame().unwrap();
            // The frame decodes back to the message it was built from.
            assert_eq!(&Message::decode(&frame[7..]).unwrap(), message);
            let got = (message.kind(), crc32(&frame));
            println!("(\"{}\", {:#010x}),", got.0, got.1);
            got
        })
        .collect();
    assert_eq!(got, expected);
}

/// A fresh durable directory for one golden test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("golden-formats-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn small_sketch() -> SetSketch<IntervalSampling> {
    SetSketch::new(SetSketchConfig::new(256, 2.0, 20.0, 62).unwrap(), 42)
}

fn durable_store(dir: &Path) -> SketchStore<SetSketch<IntervalSampling>> {
    SketchStore::builder(small_sketch).durable_dir(dir).build()
}

/// The single file of `dir` whose name ends in `suffix`.
fn only_file(dir: &Path, suffix: &str) -> Vec<u8> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.to_string_lossy().ends_with(suffix))
        .collect();
    assert_eq!(found.len(), 1, "one {suffix} file in {dir:?}");
    std::fs::read(found.pop().unwrap()).unwrap()
}

#[test]
fn wal_segment_is_unchanged() {
    let scratch = Scratch::new("wal");
    {
        let store = durable_store(&scratch.0);
        store.ingest("a", &elements(1, 300).collect::<Vec<_>>());
        let mut shipped = small_sketch();
        shipped.extend(elements(2, 200));
        store.put("b", shipped);
        let mut incoming = small_sketch();
        incoming.extend(elements(3, 500));
        assert!(store.merge_in("a", &incoming).unwrap());
        store.remove("b");
        store.clear();
        assert_eq!(store.wal_failures(), 0);
    }
    let segment = only_file(&scratch.0, ".log");
    println!(
        "wal segment: {} bytes, crc {:#010x}",
        segment.len(),
        crc32(&segment)
    );
    assert_eq!((segment.len(), crc32(&segment)), (2751, 0x51b8320f));
    // The segment replays record for record.
    let report = durable_store(&scratch.0).recovery_report().unwrap().clone();
    assert!(
        report.is_clean() && report.records_replayed == 5,
        "{report}"
    );
}

#[test]
fn one_key_checkpoint_is_unchanged() {
    let scratch = Scratch::new("ckpt");
    let expected = {
        let store = durable_store(&scratch.0);
        store.ingest("only", &elements(4, 1_000).collect::<Vec<_>>());
        store.checkpoint().unwrap();
        store.get("only").unwrap()
    };
    let image = only_file(&scratch.0, ".ckpt");
    println!(
        "checkpoint: {} bytes, crc {:#010x}",
        image.len(),
        crc32(&image)
    );
    assert_eq!((image.len(), crc32(&image)), (178, 0x617e040b));
    // The image recovers to the registers it was cut from.
    let recovered = durable_store(&scratch.0);
    assert!(recovered.recovery_report().unwrap().checkpoint_loaded);
    assert_eq!(recovered.get("only").unwrap(), expected);
}
