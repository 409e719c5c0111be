//! The one byte framing of the store's files:
//! `[u32 length LE][u32 CRC32 LE][payload]`.
//!
//! Write-ahead-log records, checkpoint entries and spill records are
//! all written by [`push`] and read back by [`next`], so the limit the
//! writer enforces is by construction the limit the scanner accepts: a
//! payload [`push`] takes can always be scanned, and one it refuses is
//! never on disk looking like a torn write. The checksum
//! ([`sketch_math::crc32`]) is what lets a scan tell a torn write from
//! a bit-rotted one.

use sketch_math::crc32::crc32;
use std::io;

/// Upper bound on one frame's payload. A length field beyond it is
/// treated as unparseable (torn or corrupted framing), not as a request
/// to allocate gigabytes — which is why the writer must refuse such a
/// payload instead of producing a frame no scan will ever read.
pub(crate) const MAX_PAYLOAD_BYTES: usize = 64 << 20;

/// Bytes of the length + checksum prefix.
pub(crate) const HEADER_BYTES: usize = 8;

/// Appends one frame around `payload` to `out`.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`] when `payload` exceeds
/// [`MAX_PAYLOAD_BYTES`]; `out` is untouched.
pub(crate) fn push(out: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte frame limit",
                payload.len()
            ),
        ));
    }
    out.reserve(HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// One scan step's outcome over a framed byte stream.
pub(crate) enum Frame<'a> {
    /// A verified payload and the offset just past its frame.
    Good(&'a [u8], usize),
    /// A fully present frame whose checksum mismatched; skip to the
    /// offset.
    Corrupt(usize),
    /// The remaining bytes cannot be a frame (torn write or corrupted
    /// length field); scanning stops here.
    Torn,
    /// Clean end of data.
    End,
}

/// Reads the frame starting at `at`.
pub(crate) fn next(bytes: &[u8], at: usize) -> Frame<'_> {
    if at == bytes.len() {
        return Frame::End;
    }
    if bytes.len() - at < HEADER_BYTES {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Frame::Torn;
    }
    let Some(end) = at
        .checked_add(HEADER_BYTES + len)
        .filter(|&end| end <= bytes.len())
    else {
        return Frame::Torn;
    };
    let expected = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
    let payload = &bytes[at + HEADER_BYTES..end];
    if crc32(payload) != expected {
        return Frame::Corrupt(end);
    }
    Frame::Good(payload, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_classifies() {
        let payload = b"some payload".as_slice();
        let mut bytes = Vec::new();
        push(&mut bytes, payload).unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES + payload.len());
        match next(&bytes, 0) {
            Frame::Good(found, end) => {
                assert_eq!(found, payload);
                assert_eq!(end, bytes.len());
            }
            _ => panic!("expected a good frame"),
        }
        // Flip a payload bit: corrupt, frame boundary preserved.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(next(&flipped, 0), Frame::Corrupt(end) if end == bytes.len()));
        // Drop trailing bytes: torn.
        assert!(matches!(next(&bytes[..bytes.len() - 1], 0), Frame::Torn));
        assert!(matches!(next(&bytes[..4], 0), Frame::Torn));
        // Implausible length field: torn, not an allocation attempt.
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(next(&huge, 0), Frame::Torn));
        assert!(matches!(next(&bytes, bytes.len()), Frame::End));
    }

    #[test]
    fn writer_and_scanner_share_one_limit() {
        let mut out = vec![7u8];
        let at_limit = vec![0u8; MAX_PAYLOAD_BYTES];
        push(&mut out, &at_limit).unwrap();
        assert!(matches!(next(&out, 1), Frame::Good(found, _) if found.len() == MAX_PAYLOAD_BYTES));

        let mut out = vec![7u8];
        let over_limit = vec![0u8; MAX_PAYLOAD_BYTES + 1];
        let error = push(&mut out, &over_limit).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, [7u8], "a refused payload leaves the buffer alone");
    }
}
