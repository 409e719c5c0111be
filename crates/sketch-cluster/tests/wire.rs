//! Property tests of the wire codec: every message round-trips
//! bit-for-bit, and no mangled input — truncated, oversized,
//! bit-flipped or plain random — can panic the decoder or make it
//! allocate beyond the bytes actually present.

use proptest::collection::vec;
use proptest::prelude::*;
use sketch_cluster::wire::{
    read_frame, DeltaEntry, Message, NodeId, WireNeighbor, MAX_FRAME_BYTES, PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
};
use sketch_cluster::{ErrorCode, FrameError, WireError};

/// Builds a printable key from raw generator bytes, so string fields
/// see arbitrary lengths and characters without a string strategy.
fn key_from(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|&b| char::from_u32(0x20 + (b as u32) % 0x5f).unwrap())
        .collect()
}

/// Decodes one generated tuple into a message, cycling through every
/// variant of the protocol (`kind` selects, the rest parameterize).
fn message_from((kind, words, bytes, extra): (u8, Vec<u64>, Vec<u8>, u64)) -> Message {
    let key = key_from(&bytes);
    match kind % 13 {
        0 => Message::DeltaRequest {
            after: extra,
            page_bytes: extra.rotate_left(9) as u32,
        },
        1 => Message::Delta {
            after: extra.rotate_left(31),
            up_to: extra,
            complete: extra % 2 == 0,
            entries: words
                .iter()
                .enumerate()
                .map(|(i, &version)| DeltaEntry {
                    key: format!("{key}-{i}"),
                    version,
                    payload: bytes.clone(),
                })
                .collect(),
        },
        2 => Message::Ingest {
            key,
            elements: words,
        },
        3 => Message::Cardinality { key },
        4 => Message::Jaccard {
            left: key,
            right: key_from(&bytes.iter().rev().copied().collect::<Vec<_>>()),
        },
        5 => Message::SimilarKeys {
            key,
            k: extra as u32,
            threshold_bits: extra.rotate_left(17),
        },
        6 => Message::UnionSketch {
            keys: words.iter().map(|w| format!("{key}-{w}")).collect(),
        },
        7 => Message::Shutdown,
        8 => Message::Ack,
        9 => Message::Value { bits: extra },
        10 => Message::Neighbors {
            items: words
                .iter()
                .enumerate()
                .map(|(i, &jaccard_bits)| WireNeighbor {
                    key: format!("{key}-{i}"),
                    jaccard_bits,
                })
                .collect(),
        },
        11 => Message::Payload { bytes },
        _ => Message::Error {
            code: match extra % 5 {
                0 => ErrorCode::KeyNotFound,
                1 => ErrorCode::Incompatible,
                2 => ErrorCode::BadPayload,
                3 => ErrorCode::BadRequest,
                _ => ErrorCode::Unsupported,
            },
            detail: key,
        },
    }
}

fn message_strategy() -> impl Strategy<Value = Message> {
    (
        0u8..13,
        vec(0u64..u64::MAX, 0..8),
        vec(0u8..=255, 0..48),
        0u64..u64::MAX,
    )
        .prop_map(message_from)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity, and the framed form
    /// (length prefix + payload) round-trips through the reader too.
    #[test]
    fn roundtrip_is_bit_for_bit(message in message_strategy()) {
        let encoded = message.encode();
        let decoded = Message::decode(&encoded).expect("own encoding must decode");
        prop_assert_eq!(&decoded, &message);
        // Bit-for-bit: re-encoding the decoded message reproduces the
        // exact byte string, f64 payloads included.
        prop_assert_eq!(decoded.encode(), encoded);

        let frame = message.encode_frame().unwrap();
        let framed = read_frame(&mut frame.as_slice()).expect("framed form must decode");
        prop_assert_eq!(&framed, &message);
    }

    /// Every strict prefix of a valid encoding is rejected with a
    /// typed error — the decoder never "completes" a cut-off message.
    #[test]
    fn truncation_is_always_detected(message in message_strategy(), cut in 0usize..10_000) {
        let encoded = message.encode();
        prop_assume!(encoded.len() > 1);
        let cut = 1 + cut % (encoded.len() - 1);
        let truncated = &encoded[..encoded.len() - cut];
        prop_assert!(Message::decode(truncated).is_err());
    }

    /// A frame whose length prefix is cut off, or whose body ends
    /// early, fails with an I/O-style frame error instead of hanging
    /// or panicking.
    #[test]
    fn truncated_frames_fail_cleanly(message in message_strategy(), cut in 1usize..10_000) {
        let frame = message.encode_frame().unwrap();
        let cut = cut % frame.len();
        let short = &frame[..frame.len() - cut.max(1)];
        match read_frame(&mut &short[..]) {
            Err(FrameError::Io(_)) => {}
            other => prop_assert!(false, "expected Io error, got {:?}", other),
        }
    }

    /// Flipping any single bit of an encoding must never panic the
    /// decoder: it either decodes to some message (the flip landed in
    /// a value) or fails with a typed error.
    #[test]
    fn bit_flips_never_panic(
        message in message_strategy(),
        byte_pick in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut encoded = message.encode();
        let index = byte_pick % encoded.len();
        encoded[index] ^= 1 << bit;
        match Message::decode(&encoded) {
            Ok(mutated) => {
                // Whatever decoded must itself round-trip.
                let reencoded = mutated.encode();
                prop_assert_eq!(Message::decode(&reencoded).unwrap(), mutated);
            }
            Err(
                WireError::Truncated
                | WireError::BadMagic { .. }
                | WireError::UnsupportedVersion { .. }
                | WireError::UnknownTag(_)
                | WireError::UnknownErrorCode(_)
                | WireError::BadUtf8
                | WireError::TrailingBytes { .. }
                | WireError::LengthMismatch
                | WireError::BadChecksum
                | WireError::OversizedFrame { .. },
            ) => {}
        }
    }

    /// Completely random byte soup never panics the decoder, and a
    /// declared count can never exceed the bytes present — so no
    /// hostile input can trigger an allocation larger than itself.
    #[test]
    fn random_bytes_never_panic(bytes in vec(0u8..=255, 0..512)) {
        let _ = Message::decode(&bytes);
    }

    /// Frame headers declaring more than [`MAX_FRAME_BYTES`] are
    /// rejected from the header bytes alone — before any buffer for
    /// the body is allocated.
    #[test]
    fn oversized_frames_rejected_from_header(excess in 1u32..1_000_000) {
        let declared = MAX_FRAME_BYTES as u32 + excess;
        let mut frame = PROTOCOL_MAGIC.to_vec();
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&declared.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Wire(WireError::OversizedFrame { declared: d })) => {
                prop_assert_eq!(d, declared as u64);
            }
            other => prop_assert!(false, "expected OversizedFrame, got {:?}", other),
        }
    }

    /// Every valid frame opens with the magic and the current protocol
    /// version, and **any** other version byte is refused as a
    /// handshake mismatch — for every message shape, before the length
    /// field is even consulted.
    #[test]
    fn handshake_version_is_enforced(message in message_strategy(), wrong in any::<u8>()) {
        let mut frame = message.encode_frame().unwrap();
        prop_assert_eq!(&frame[..2], &PROTOCOL_MAGIC[..]);
        prop_assert_eq!(frame[2], PROTOCOL_VERSION);

        prop_assume!(wrong != PROTOCOL_VERSION);
        frame[2] = wrong;
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Wire(error @ WireError::UnsupportedVersion { found })) => {
                prop_assert_eq!(found, wrong);
                prop_assert!(error.is_handshake_mismatch());
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other),
        }
    }

    /// A frame whose opening bytes are not the magic is refused as
    /// "not this protocol" — in particular any pre-handshake
    /// `[len][payload]` frame, whose first bytes are a length field.
    #[test]
    fn handshake_magic_is_enforced(message in message_strategy(), a in any::<u8>(), b in any::<u8>()) {
        prop_assume!([a, b] != PROTOCOL_MAGIC);
        let mut frame = message.encode_frame().unwrap();
        frame[0] = a;
        frame[1] = b;
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Wire(error @ WireError::BadMagic { found })) => {
                prop_assert_eq!(found, [a, b]);
                prop_assert!(error.is_handshake_mismatch());
            }
            other => prop_assert!(false, "expected BadMagic, got {:?}", other),
        }
    }
}

/// The `NodeId` alias stays a plain `u32` — pinned here because ring
/// points pack `(node << 32) | vnode` into a `u64`.
#[test]
fn node_id_is_u32() {
    let id: NodeId = u32::MAX;
    assert_eq!(id as u64, 0xffff_ffff);
}
