//! The one byte codec for bytes at rest and in flight.
//!
//! **Fields.** WAL records, checkpoints and every cluster message are
//! little-endian fields written by the `put_*` functions (a `u32`
//! length or count prefixes variable-length fields) and read back by
//! one bounded [`Reader`], which checks every length and count against
//! the bytes remaining **before** it allocates. A checkpoint entry and
//! a delta-page entry are the same [`DeltaEntry`] bytes
//! ([`put_entry`], [`Reader::entry`]).
//!
//! **Files.** Each record of the store's files (WAL, checkpoint
//! entries, spill) is framed as `[u32 length LE][u32 CRC32 LE][payload]`
//! by one writer and one scanner, so a payload the writer takes can
//! always be scanned, and one it refuses is never on disk looking like
//! a torn write. The checksum tells a torn write from a bit-rotted one.

use crate::delta::DeltaEntry;
use sketch_math::crc32::crc32;
use std::io;

/// Upper bound on one frame's payload, on disk and on the wire. A
/// length field beyond it is treated as unparseable (torn or corrupted
/// framing), not as a request to allocate gigabytes — which is why the
/// writer must refuse such a payload instead of producing a frame no
/// reader will ever accept.
pub const MAX_PAYLOAD_BYTES: usize = 64 << 20;

// --- Fields ----------------------------------------------------------
//
// The wire encodes and decodes through these from another crate on
// every request; `#[inline]` lets them inline there.

/// Appends a `u16`, little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u32`, little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u64`, little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `u32` count, then each item through `put`.
pub fn put_list<T>(out: &mut Vec<u8>, items: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// Appends a `u32` length, then the bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends a string as [`put_bytes`] of its UTF-8.
#[inline]
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_bytes(out, value.as_bytes());
}

/// Bytes an encoded [`DeltaEntry`] takes beyond its key and payload:
/// the key's length prefix (4), the version (8) and the payload's
/// length prefix (4).
pub const ENTRY_FIXED_BYTES: usize = 16;

/// Appends one `(key, version, payload)` entry: the encoding of a
/// [`DeltaEntry`], shared by checkpoint entries and delta pages.
#[inline]
pub fn put_entry(out: &mut Vec<u8>, key: &str, version: u64, payload: &[u8]) {
    put_str(out, key);
    put_u64(out, version);
    put_bytes(out, payload);
}

impl DeltaEntry {
    /// Bytes of this entry's encoding ([`put_entry`]).
    #[inline]
    pub fn encoded_len(&self) -> usize {
        ENTRY_FIXED_BYTES + self.key.len() + self.payload.len()
    }
}

/// Why a field failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// The bytes ended before a declared field did.
    Truncated,
    /// A declared element count cannot fit in the remaining bytes.
    LengthMismatch,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Bytes remained after the last field.
    TrailingBytes {
        /// How many undecoded bytes were left over.
        extra: usize,
    },
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::Truncated => write!(f, "truncated mid-field"),
            FieldError::LengthMismatch => write!(f, "declared count exceeds the bytes present"),
            FieldError::BadUtf8 => write!(f, "string field is not UTF-8"),
            FieldError::TrailingBytes { extra } => write!(f, "{extra} trailing bytes"),
        }
    }
}

impl From<FieldError> for String {
    fn from(error: FieldError) -> Self {
        error.to_string()
    }
}

/// Bounded little-endian reader over one record or message. Every
/// length and count is checked against the bytes actually remaining
/// before any buffer is sized from it.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// Takes `len` raw bytes; fails (without allocating) when fewer
    /// remain.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], FieldError> {
        if len > self.bytes.len() {
            return Err(FieldError::Truncated);
        }
        let (head, tail) = self.bytes.split_at(len);
        self.bytes = tail;
        Ok(head)
    }

    /// Reads a byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, FieldError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, FieldError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, FieldError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, FieldError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u32` element count and validates it against the
    /// remaining bytes at `min_element_bytes` apiece, so
    /// `Vec::with_capacity(count)` is bounded by the input's own size.
    #[inline]
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, FieldError> {
        let count = self.u32()? as usize;
        let need = count
            .checked_mul(min_element_bytes)
            .ok_or(FieldError::LengthMismatch)?;
        if need > self.remaining() {
            return Err(FieldError::LengthMismatch);
        }
        Ok(count)
    }

    /// Reads what [`put_list`] wrote: a [`count`](Self::count) of
    /// items of at least `min_item_bytes` each, each through `read`.
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, FieldError>,
    ) -> Result<Vec<T>, FieldError> {
        let count = self.count(min_item_bytes)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// Reads what [`put_bytes`] wrote. The length is validated by
    /// [`take`](Self::take) before the copy allocates.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>, FieldError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads what [`put_str`] wrote.
    #[inline]
    pub fn string(&mut self) -> Result<String, FieldError> {
        String::from_utf8(self.bytes()?).map_err(|_| FieldError::BadUtf8)
    }

    /// Reads what [`put_entry`] wrote.
    #[inline]
    pub fn entry(&mut self) -> Result<DeltaEntry, FieldError> {
        Ok(DeltaEntry {
            key: self.string()?,
            version: self.u64()?,
            payload: self.bytes()?,
        })
    }

    /// Checks that every byte was read.
    #[inline]
    pub fn finish(self) -> Result<(), FieldError> {
        match self.bytes.len() {
            0 => Ok(()),
            extra => Err(FieldError::TrailingBytes { extra }),
        }
    }
}

// --- Files -----------------------------------------------------------

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
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
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
    let mut reader = Reader::new(&bytes[at..]);
    let (Ok(len), Ok(expected)) = (reader.u32(), reader.u32()) else {
        return Frame::Torn;
    };
    let len = len as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Frame::Torn;
    }
    let Ok(payload) = reader.take(len) else {
        return Frame::Torn;
    };
    let end = at + HEADER_BYTES + len;
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
