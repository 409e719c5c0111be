//! The cluster's length-prefixed binary wire protocol.
//!
//! Every frame on a connection is `[2-byte magic "SK"][u8 protocol
//! version][u32 LE payload length][payload]`; the payload is one
//! [`Message`], encoded as a one-byte tag followed by its fields in
//! little-endian order. Variable-length fields (strings, byte buffers,
//! lists) carry a `u32` length/count prefix.
//!
//! The magic + version prologue is the protocol handshake: a reader
//! can tell "not my protocol" ([`WireError::BadMagic`]) from "my
//! protocol, a revision I don't speak"
//! ([`WireError::UnsupportedVersion`]) from the first three bytes,
//! before trusting any length field. Servers answer either with an
//! [`ErrorCode::Unsupported`] frame so old clients get a typed refusal
//! instead of a hang.
//!
//! The decoder is written for hostile input: every declared length is
//! validated against the bytes actually present **before** any
//! allocation is sized from it, so a malicious or corrupted length
//! field can neither panic the process nor balloon memory — it fails
//! with a typed [`WireError`]. [`MAX_FRAME_BYTES`] is enforced on both
//! sides: the one frame encoder refuses a payload over it, and readers
//! cap the declared length at it before reading the body — so a frame
//! that was sent can always be read.
//!
//! The fields are written and read by the store's one byte codec,
//! [`sketch_store::frame`] — the same writers and bounded reader as the
//! write-ahead log and checkpoints. Its [`FieldError`] maps onto
//! [`WireError::Truncated`], [`WireError::LengthMismatch`],
//! [`WireError::BadUtf8`] and [`WireError::TrailingBytes`].
//!
//! Sketch registers travel as
//! [`Sketch::compress`](sketch_core::Sketch::compress) payloads inside
//! [`Message::Delta`] entries — warm and frozen store tiers ship their
//! already-compressed bytes end to end, and hot sketches are
//! compressed once at the sending edge. A delta entry is a store
//! [`DeltaEntry`], encoded exactly as a checkpoint entry is. A delta is
//! one bounded page and carries a CRC-32 over its body, verified before
//! any entry is handed to the caller.

use sketch_math::crc32;
use sketch_store::frame::{
    self, put_bytes, put_entry, put_list, put_str, put_u16, put_u32, put_u64, FieldError, Reader,
    ENTRY_FIXED_BYTES,
};
use std::io::{self, Read, Write};

pub use sketch_store::DeltaEntry;

/// Identifier of one cluster node (also the consistent-hash ring's
/// member key).
pub type NodeId = u32;

/// Hard ceiling on a frame's payload length — the store's frame limit
/// ([`frame::MAX_PAYLOAD_BYTES`]). A message that encodes to more is
/// refused by [`Message::encode_frame`], and a header declaring more is
/// rejected before the body is read or any buffer is allocated.
pub const MAX_FRAME_BYTES: usize = frame::MAX_PAYLOAD_BYTES;

/// The two magic bytes opening every frame — `"SK"`. A connection that
/// does not start with them is not speaking this protocol at all.
pub const PROTOCOL_MAGIC: [u8; 2] = *b"SK";

/// The protocol revision this build speaks. Bumped on any change to
/// frame layout or message encodings; a reader refuses other versions
/// with [`WireError::UnsupportedVersion`] rather than misparsing.
pub const PROTOCOL_VERSION: u8 = 2;

/// Typed decoding failures. Decoding never panics and never allocates
/// more than the input's own length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a declared field did.
    Truncated,
    /// The frame does not open with [`PROTOCOL_MAGIC`] — the peer is
    /// not speaking this protocol (or is a pre-handshake build whose
    /// first frame bytes are a length field).
    BadMagic {
        /// The two bytes found where the magic should be.
        found: [u8; 2],
    },
    /// The frame's version byte names a protocol revision this build
    /// does not speak.
    UnsupportedVersion {
        /// The version byte found on the wire.
        found: u8,
    },
    /// A frame header declared a payload larger than
    /// [`MAX_FRAME_BYTES`].
    OversizedFrame {
        /// The declared payload length.
        declared: u64,
    },
    /// The leading tag byte names no known message.
    UnknownTag(u8),
    /// The trailing error-code byte names no known [`ErrorCode`].
    UnknownErrorCode(u16),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the message's last field.
    TrailingBytes {
        /// How many undecoded bytes were left over.
        extra: usize,
    },
    /// A declared element count cannot fit in the remaining bytes.
    LengthMismatch,
    /// A [`Message::Delta`]'s checksum does not match its body: the
    /// page was damaged in flight and none of it may be merged.
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-field"),
            WireError::BadMagic { found } => {
                write!(
                    f,
                    "frame magic {found:02x?} is not {PROTOCOL_MAGIC:02x?} — not this protocol"
                )
            }
            WireError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "protocol version {found} not supported (this build speaks {PROTOCOL_VERSION})"
                )
            }
            WireError::OversizedFrame { declared } => {
                write!(
                    f,
                    "frame declares {declared} payload bytes (max {MAX_FRAME_BYTES})"
                )
            }
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::UnknownErrorCode(code) => write!(f, "unknown error code {code}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
            WireError::LengthMismatch => {
                write!(f, "declared length exceeds the bytes present")
            }
            WireError::BadChecksum => {
                write!(f, "delta page checksum mismatch")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FieldError> for WireError {
    fn from(error: FieldError) -> Self {
        match error {
            FieldError::Truncated => WireError::Truncated,
            FieldError::LengthMismatch => WireError::LengthMismatch,
            FieldError::BadUtf8 => WireError::BadUtf8,
            FieldError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
        }
    }
}

impl WireError {
    /// True when the failure is a protocol-handshake mismatch (wrong
    /// magic or an unsupported version) rather than a malformed body —
    /// servers answer these with [`ErrorCode::Unsupported`].
    pub fn is_handshake_mismatch(&self) -> bool {
        matches!(
            self,
            WireError::BadMagic { .. } | WireError::UnsupportedVersion { .. }
        )
    }
}

/// Why a remote node refused a request ([`Message::Error`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// A named key holds no sketch on the answering node.
    KeyNotFound = 1,
    /// The shipped state's configuration or seed does not match.
    Incompatible = 2,
    /// A compact payload failed to decompress.
    BadPayload = 3,
    /// The request carried an out-of-range parameter.
    BadRequest = 4,
    /// The node cannot serve this message type.
    Unsupported = 5,
    /// The node cannot serve the request *right now* (e.g. a bootstrap
    /// donor that holds nothing yet) — try another peer.
    Unavailable = 6,
    /// The node already serves its maximum number of live connections
    /// and refused this one before reading any request from it.
    Overloaded = 7,
}

impl ErrorCode {
    fn from_u16(code: u16) -> Result<Self, WireError> {
        Ok(match code {
            1 => ErrorCode::KeyNotFound,
            2 => ErrorCode::Incompatible,
            3 => ErrorCode::BadPayload,
            4 => ErrorCode::BadRequest,
            5 => ErrorCode::Unsupported,
            6 => ErrorCode::Unavailable,
            7 => ErrorCode::Overloaded,
            other => return Err(WireError::UnknownErrorCode(other)),
        })
    }
}

/// One ranked neighbor inside a [`Message::Neighbors`] response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireNeighbor {
    /// The neighboring key.
    pub key: String,
    /// Estimated Jaccard similarity, as IEEE-754 bits (bit-exact on
    /// the wire).
    pub jaccard_bits: u64,
}

impl WireNeighbor {
    /// Builds a neighbor from a key and its Jaccard estimate.
    pub fn new(key: String, jaccard: f64) -> Self {
        WireNeighbor {
            key,
            jaccard_bits: jaccard.to_bits(),
        }
    }

    /// The Jaccard estimate as a float.
    pub fn jaccard(&self) -> f64 {
        f64::from_bits(self.jaccard_bits)
    }
}

/// Every message of the cluster protocol. Requests and responses share
/// one enum — the protocol is strict request/response, one frame each
/// way per exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Pull request: "ship me the next page of keys whose version
    /// exceeds `after`" (in the answering store's write-counter
    /// domain). `after = 0` starts a full-state transfer — the
    /// anti-entropy and bootstrap path.
    DeltaRequest {
        /// High-water version the requester has already applied.
        after: u64,
        /// Most bytes of entries the requester wants in the reply; the
        /// answering node caps it at its own page budget and may
        /// exceed it by one entry.
        page_bytes: u32,
    },
    /// One page of a delta: changed keys with compact payloads in
    /// ascending version order, and how far the page reaches. On the
    /// wire the body is followed by its CRC-32, which [`Message::decode`]
    /// verifies before building any entry.
    Delta {
        /// The `after` of the request this page answers. A requester
        /// that finds another value is looking at a duplicated or
        /// reordered frame, and `up_to` says nothing about its cursor.
        after: u64,
        /// The highest version the page fully covers — the requester's
        /// next high-water mark, and the `after` of its next request.
        up_to: u64,
        /// True when no key past `after` was left out of the page.
        complete: bool,
        /// The page's keys.
        entries: Vec<DeltaEntry>,
    },
    /// Record a batch of elements under a key.
    Ingest {
        /// Target key.
        key: String,
        /// The elements to record.
        elements: Vec<u64>,
    },
    /// Ask for a key's estimated distinct count.
    Cardinality {
        /// The key to estimate.
        key: String,
    },
    /// Ask for the Jaccard similarity of two keys.
    Jaccard {
        /// First key.
        left: String,
        /// Second key.
        right: String,
    },
    /// Ask for the top-`k` most similar keys to `key` at a threshold.
    SimilarKeys {
        /// The query key.
        key: String,
        /// Maximum number of neighbors to return.
        k: u32,
        /// Similarity threshold to tune the candidate stage for, as
        /// IEEE-754 bits.
        threshold_bits: u64,
    },
    /// Ask for the union sketch over the listed keys (those present on
    /// the answering node), as a compact payload.
    UnionSketch {
        /// Keys to fold together.
        keys: Vec<String>,
    },
    /// Ask the serving process to stop accepting connections and exit
    /// its serve loop.
    Shutdown,
    /// Positive acknowledgement with no payload.
    Ack,
    /// A scalar response (cardinality, Jaccard), as IEEE-754 bits.
    Value {
        /// The float result's bits.
        bits: u64,
    },
    /// Ranked neighbors for a [`Message::SimilarKeys`] request.
    Neighbors {
        /// Neighbors in descending-similarity order.
        items: Vec<WireNeighbor>,
    },
    /// A compact sketch payload (union sketch response).
    Payload {
        /// The compressed registers.
        bytes: Vec<u8>,
    },
    /// The request failed on the remote node.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

// Message tags. Gaps left between request and response ranges for
// future messages.
const TAG_DELTA_REQUEST: u8 = 1;
const TAG_DELTA: u8 = 2;
const TAG_INGEST: u8 = 3;
const TAG_CARDINALITY: u8 = 4;
const TAG_JACCARD: u8 = 5;
const TAG_SIMILAR_KEYS: u8 = 6;
const TAG_UNION_SKETCH: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;
const TAG_ACK: u8 = 16;
const TAG_VALUE: u8 = 17;
const TAG_NEIGHBORS: u8 = 18;
const TAG_PAYLOAD: u8 = 19;
const TAG_ERROR: u8 = 20;

impl Message {
    /// Encodes the message payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the message payload to `buf` — the one encoder behind
    /// both [`encode`](Self::encode) and
    /// [`encode_frame`](Self::encode_frame), so a frame is built in
    /// the buffer that is sent.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::DeltaRequest { after, page_bytes } => {
                buf.push(TAG_DELTA_REQUEST);
                put_u64(buf, *after);
                put_u32(buf, *page_bytes);
            }
            Message::Delta {
                after,
                up_to,
                complete,
                entries,
            } => {
                let body = buf.len();
                buf.push(TAG_DELTA);
                put_u64(buf, *after);
                put_u64(buf, *up_to);
                buf.push(u8::from(*complete));
                put_list(buf, entries, |buf, entry| {
                    put_entry(buf, &entry.key, entry.version, &entry.payload);
                });
                let crc = crc32(&buf[body..]);
                put_u32(buf, crc);
            }
            Message::Ingest { key, elements } => {
                buf.push(TAG_INGEST);
                put_str(buf, key);
                put_list(buf, elements, |buf, &element| put_u64(buf, element));
            }
            Message::Cardinality { key } => {
                buf.push(TAG_CARDINALITY);
                put_str(buf, key);
            }
            Message::Jaccard { left, right } => {
                buf.push(TAG_JACCARD);
                put_str(buf, left);
                put_str(buf, right);
            }
            Message::SimilarKeys {
                key,
                k,
                threshold_bits,
            } => {
                buf.push(TAG_SIMILAR_KEYS);
                put_str(buf, key);
                put_u32(buf, *k);
                put_u64(buf, *threshold_bits);
            }
            Message::UnionSketch { keys } => {
                buf.push(TAG_UNION_SKETCH);
                put_list(buf, keys, |buf, key| put_str(buf, key));
            }
            Message::Shutdown => buf.push(TAG_SHUTDOWN),
            Message::Ack => buf.push(TAG_ACK),
            Message::Value { bits } => {
                buf.push(TAG_VALUE);
                put_u64(buf, *bits);
            }
            Message::Neighbors { items } => {
                buf.push(TAG_NEIGHBORS);
                put_list(buf, items, |buf, item| {
                    put_str(buf, &item.key);
                    put_u64(buf, item.jaccard_bits);
                });
            }
            Message::Payload { bytes } => {
                buf.push(TAG_PAYLOAD);
                put_bytes(buf, bytes);
            }
            Message::Error { code, detail } => {
                buf.push(TAG_ERROR);
                put_u16(buf, *code as u16);
                put_str(buf, detail);
            }
        }
    }

    /// Decodes a message payload (the bytes after the frame length
    /// prefix). Rejects trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut cursor = Reader::new(bytes);
        let tag = cursor.u8()?;
        let message = match tag {
            TAG_DELTA_REQUEST => Message::DeltaRequest {
                after: cursor.u64()?,
                page_bytes: cursor.u32()?,
            },
            TAG_DELTA => {
                // The checksum trails the body; check it before any
                // field of the body is believed.
                let fields_len = cursor
                    .remaining()
                    .checked_sub(4)
                    .ok_or(WireError::Truncated)?;
                let (body, trailer) = bytes.split_at(1 + fields_len);
                if crc32(body) != u32::from_le_bytes(trailer.try_into().expect("4")) {
                    return Err(WireError::BadChecksum);
                }
                cursor = Reader::new(&body[1..]);
                Message::Delta {
                    after: cursor.u64()?,
                    up_to: cursor.u64()?,
                    complete: cursor.u8()? != 0,
                    entries: cursor.list(ENTRY_FIXED_BYTES, Reader::entry)?,
                }
            }
            TAG_INGEST => Message::Ingest {
                key: cursor.string()?,
                elements: cursor.list(8, Reader::u64)?,
            },
            TAG_CARDINALITY => Message::Cardinality {
                key: cursor.string()?,
            },
            TAG_JACCARD => Message::Jaccard {
                left: cursor.string()?,
                right: cursor.string()?,
            },
            TAG_SIMILAR_KEYS => Message::SimilarKeys {
                key: cursor.string()?,
                k: cursor.u32()?,
                threshold_bits: cursor.u64()?,
            },
            TAG_UNION_SKETCH => Message::UnionSketch {
                keys: cursor.list(4, Reader::string)?,
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_ACK => Message::Ack,
            TAG_VALUE => Message::Value {
                bits: cursor.u64()?,
            },
            TAG_NEIGHBORS => Message::Neighbors {
                items: cursor.list(12, |cursor| {
                    Ok(WireNeighbor {
                        key: cursor.string()?,
                        jaccard_bits: cursor.u64()?,
                    })
                })?,
            },
            TAG_PAYLOAD => Message::Payload {
                bytes: cursor.bytes()?,
            },
            TAG_ERROR => {
                let code = ErrorCode::from_u16(cursor.u16()?)?;
                let detail = cursor.string()?;
                Message::Error { code, detail }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        cursor.finish()?;
        Ok(message)
    }

    /// A stable, human-readable name of the message's variant — the
    /// key for per-kind traffic accounting and kind-plausible fault
    /// replay.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::DeltaRequest { .. } => "delta_request",
            Message::Delta { .. } => "delta",
            Message::Ingest { .. } => "ingest",
            Message::Cardinality { .. } => "cardinality",
            Message::Jaccard { .. } => "jaccard",
            Message::SimilarKeys { .. } => "similar_keys",
            Message::UnionSketch { .. } => "union_sketch",
            Message::Shutdown => "shutdown",
            Message::Ack => "ack",
            Message::Value { .. } => "value",
            Message::Neighbors { .. } => "neighbors",
            Message::Payload { .. } => "payload",
            Message::Error { .. } => "error",
        }
    }

    /// Bytes of the variable-size fields that dominate a large frame —
    /// the capacity hint that keeps [`encode_frame`](Self::encode_frame)
    /// at one allocation (small fields fit the fixed slack).
    fn bulk_bytes(&self) -> usize {
        match self {
            Message::Ingest { key, elements } => key.len() + 8 * elements.len(),
            Message::Delta { entries, .. } => entries.iter().map(DeltaEntry::encoded_len).sum(),
            Message::Payload { bytes } => bytes.len(),
            _ => 0,
        }
    }

    /// Encodes the message as a complete frame: magic, version byte,
    /// `u32` LE payload length, then the payload. Every frame that is
    /// sent — over a socket or through the in-process network — is
    /// built here, so the limit is enforced in one place.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidInput`] when the payload exceeds
    /// [`MAX_FRAME_BYTES`] — a frame no reader would accept (and whose
    /// length could wrap the `u32` field) is never produced.
    pub fn encode_frame(&self) -> io::Result<Vec<u8>> {
        let mut frame = Vec::with_capacity(64 + self.bulk_bytes());
        frame.extend_from_slice(&PROTOCOL_MAGIC);
        frame.push(PROTOCOL_VERSION);
        // Length placeholder, patched once the payload is in place.
        frame.extend_from_slice(&[0; 4]);
        self.encode_into(&mut frame);
        let payload_len = frame.len() - FRAME_HEADER_BYTES;
        if payload_len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} message of {payload_len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
                    self.kind()
                ),
            ));
        }
        frame[3..FRAME_HEADER_BYTES].copy_from_slice(&(payload_len as u32).to_le_bytes());
        Ok(frame)
    }
}

/// Bytes before the payload: magic (2) + version (1) + length (4).
const FRAME_HEADER_BYTES: usize = 7;

/// Writes one framed message — or nothing at all, when the message is
/// over the frame limit (see [`Message::encode_frame`]).
pub fn write_frame(writer: &mut impl Write, message: &Message) -> io::Result<()> {
    writer.write_all(&message.encode_frame()?)?;
    writer.flush()
}

/// A framed read's failure: transport-level I/O or payload decoding.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed (includes clean EOF between
    /// frames, surfaced as `UnexpectedEof`).
    Io(io::Error),
    /// The payload did not decode.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(error) => write!(f, "frame I/O failed: {error}"),
            FrameError::Wire(error) => write!(f, "frame payload invalid: {error}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(error) => Some(error),
            FrameError::Wire(error) => Some(error),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(error: io::Error) -> Self {
        FrameError::Io(error)
    }
}

impl From<WireError> for FrameError {
    fn from(error: WireError) -> Self {
        FrameError::Wire(error)
    }
}

/// Reads one framed message. The magic and version are validated
/// before the length field is trusted, and the declared payload length
/// is validated against [`MAX_FRAME_BYTES`] **before** the body buffer
/// is allocated.
pub fn read_frame(reader: &mut impl Read) -> Result<Message, FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    reader.read_exact(&mut header)?;
    if header[..2] != PROTOCOL_MAGIC {
        return Err(WireError::BadMagic {
            found: [header[0], header[1]],
        }
        .into());
    }
    if header[2] != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion { found: header[2] }.into());
    }
    let declared = u32::from_le_bytes(header[3..7].try_into().expect("4")) as usize;
    if declared > MAX_FRAME_BYTES {
        return Err(WireError::OversizedFrame {
            declared: declared as u64,
        }
        .into());
    }
    let mut payload = vec![0u8; declared];
    reader.read_exact(&mut payload)?;
    Ok(Message::decode(&payload)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let message = Message::Delta {
            after: 3,
            up_to: 42,
            complete: false,
            entries: vec![DeltaEntry {
                key: "k1".into(),
                version: 7,
                payload: vec![1, 2, 3],
            }],
        };
        let frame = message.encode_frame().unwrap();
        let mut reader = frame.as_slice();
        assert_eq!(read_frame(&mut reader).unwrap(), message);
    }

    #[test]
    fn damaged_delta_page_is_refused_whole() {
        let message = Message::Delta {
            after: 0,
            up_to: 9,
            complete: true,
            entries: vec![DeltaEntry {
                key: "k".into(),
                version: 9,
                payload: vec![0xAB; 32],
            }],
        };
        let clean = message.encode();
        // Header fields, entry bytes and the checksum itself are all
        // covered: no single flipped bit decodes.
        for bit in 0..clean.len() * 8 {
            let mut damaged = clean.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                Message::decode(&damaged).is_err(),
                "bit {bit} went unnoticed"
            );
        }
        assert_eq!(
            Message::decode(&clean[..clean.len() - 1]).map_err(|_| ()),
            Err(())
        );
        assert_eq!(
            Message::decode(&[TAG_DELTA, 0, 0]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn writer_and_reader_share_one_limit() {
        // Fixed fields of an Ingest payload: tag, key length, count.
        let fixed = 1 + 4 + 4;
        let at_limit = Message::Ingest {
            key: String::new(),
            elements: vec![0; (MAX_FRAME_BYTES - fixed) / 8],
        };
        let mut sent = Vec::new();
        write_frame(&mut sent, &at_limit).unwrap();
        assert!(matches!(
            read_frame(&mut sent.as_slice()),
            Ok(Message::Ingest { .. })
        ));

        let over_limit = Message::Ingest {
            key: String::new(),
            elements: vec![0; (MAX_FRAME_BYTES - fixed) / 8 + 1],
        };
        let mut sent = vec![7u8];
        let error = write_frame(&mut sent, &over_limit).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(sent, [7u8], "a refused frame writes nothing");
    }

    #[test]
    fn oversized_header_rejected_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&PROTOCOL_MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        let mut reader = frame.as_slice();
        match read_frame(&mut reader) {
            Err(FrameError::Wire(WireError::OversizedFrame { declared })) => {
                assert_eq!(declared, u32::MAX as u64);
            }
            other => panic!("expected oversized-frame error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_magic_rejected_before_the_length_is_trusted() {
        // A pre-handshake frame: bare [len][payload]. The length bytes
        // land where the magic belongs and must be refused as such.
        let payload = Message::Ack.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&[0u8; 8]); // enough bytes for the header read
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Wire(error @ WireError::BadMagic { .. })) => {
                assert!(error.is_handshake_mismatch());
            }
            other => panic!("expected bad-magic error, got {other:?}"),
        }
    }

    #[test]
    fn future_version_rejected_as_unsupported() {
        let mut frame = Message::Ack.encode_frame().unwrap();
        frame[2] = PROTOCOL_VERSION + 1;
        match read_frame(&mut frame.as_slice()) {
            Err(FrameError::Wire(error @ WireError::UnsupportedVersion { found })) => {
                assert_eq!(found, PROTOCOL_VERSION + 1);
                assert!(error.is_handshake_mismatch());
            }
            other => panic!("expected unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_count_is_bounded_by_input_length() {
        // A Delta claiming u32::MAX entries but carrying none: the
        // count validation must fail before any capacity is reserved.
        // (The checksum is valid — a hostile sender computes it too.)
        let mut payload = vec![TAG_DELTA];
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        payload.push(1);
        put_u32(&mut payload, u32::MAX);
        let crc = crc32(&payload);
        put_u32(&mut payload, crc);
        assert_eq!(Message::decode(&payload), Err(WireError::LengthMismatch));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Ack.encode();
        payload.push(0);
        assert_eq!(
            Message::decode(&payload),
            Err(WireError::TrailingBytes { extra: 1 })
        );
    }
}
