//! Fixed-width bit packing of register arrays.
//!
//! Sketch memory-footprint claims (paper §2.3) assume registers stored in
//! `⌈log₂(q+2)⌉` bits each. This module is the shared packing substrate
//! used by the SetSketch and GHLL binary codecs: little-endian bit order,
//! widths 1..=32. Every function is generic over the [`Lane`] type of the
//! register array, so a narrow resident array is packed from and unpacked
//! into directly, without a widened temporary.

use crate::kernels::{self, Lane};

/// Errors raised when unpacking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitPackError {
    /// Fewer input bytes than `ceil(m * bits / 8)`.
    Truncated,
    /// A decoded value exceeds the allowed maximum.
    ValueOutOfRange,
    /// Width outside 1..=32.
    InvalidBitWidth,
    /// An offset-codec header is malformed (impossible width or
    /// exception count).
    MalformedHeader,
    /// An offset-codec exception names a position outside `0..m`, or
    /// repeats a position.
    IndexOutOfRange,
}

impl std::fmt::Display for BitPackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BitPackError::Truncated => write!(f, "packed buffer is truncated"),
            BitPackError::ValueOutOfRange => write!(f, "decoded value exceeds maximum"),
            BitPackError::InvalidBitWidth => write!(f, "bit width must be between 1 and 32"),
            BitPackError::MalformedHeader => write!(f, "offset codec header is malformed"),
            BitPackError::IndexOutOfRange => {
                write!(
                    f,
                    "offset codec exception index is out of range or repeated"
                )
            }
        }
    }
}

impl std::error::Error for BitPackError {}

/// Mask of the low `bits` bits (`bits ≤ 32`).
fn low_mask(bits: u32) -> u32 {
    if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// Little-endian bit stream writer (values of up to 32 bits each),
/// flushing whole 32-bit words.
struct BitWriter {
    out: Vec<u8>,
    buffer: u64,
    filled: u32,
}

impl BitWriter {
    /// Appends to `out`, reserving room for `count` values of `bits` bits.
    fn appending(mut out: Vec<u8>, count: usize, bits: u32) -> Self {
        out.reserve((count * bits as usize).div_ceil(8));
        Self {
            out,
            buffer: 0,
            filled: 0,
        }
    }

    #[inline]
    fn push(&mut self, value: u32, bits: u32) {
        // `filled < 32` on entry, so the shifted value fits the buffer.
        self.buffer |= (value as u64) << self.filled;
        self.filled += bits;
        if self.filled >= 32 {
            self.out
                .extend_from_slice(&(self.buffer as u32).to_le_bytes());
            self.buffer >>= 32;
            self.filled -= 32;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let tail = self.buffer.to_le_bytes();
        self.out
            .extend_from_slice(&tail[..(self.filled as usize).div_ceil(8)]);
        self.out
    }
}

/// Little-endian bit stream reader over a buffer already checked to
/// hold every value that will be read, refilling whole 32-bit words
/// (zero-extended at the end of the buffer, which the length check
/// keeps out of every value).
struct BitReader<'a> {
    bytes: &'a [u8],
    buffer: u64,
    filled: u32,
    bits: u32,
    mask: u64,
}

impl<'a> BitReader<'a> {
    /// A reader of `m` values of `bits` bits each.
    fn new(bytes: &'a [u8], m: usize, bits: u32) -> Result<Self, BitPackError> {
        if !(1..=32).contains(&bits) {
            return Err(BitPackError::InvalidBitWidth);
        }
        if bytes.len() < (m * bits as usize).div_ceil(8) {
            return Err(BitPackError::Truncated);
        }
        Ok(Self {
            bytes,
            buffer: 0,
            filled: 0,
            bits,
            mask: low_mask(bits) as u64,
        })
    }

    #[inline]
    fn next(&mut self) -> u32 {
        if self.filled < self.bits {
            let taken = self.bytes.len().min(4);
            let (head, rest) = self.bytes.split_at(taken);
            let mut word = [0u8; 4];
            word[..taken].copy_from_slice(head);
            self.bytes = rest;
            // `filled < bits ≤ 32`, so the word fits above the buffer.
            self.buffer |= (u32::from_le_bytes(word) as u64) << self.filled;
            self.filled += 32;
        }
        let value = (self.buffer & self.mask) as u32;
        self.buffer >>= self.bits;
        self.filled -= self.bits;
        value
    }
}

/// Narrows a decoded value to the lane type, after checking it against
/// the caller's maximum — so a value is never validated *after* a
/// truncating cast.
#[inline]
fn checked_lane<L: Lane>(value: u64, max_value: u32) -> Result<L, BitPackError> {
    if value > max_value as u64 {
        return Err(BitPackError::ValueOutOfRange);
    }
    L::narrow(value as u32).ok_or(BitPackError::ValueOutOfRange)
}

/// Packs `values` into `bits` bits each.
///
/// # Panics
/// Panics if `bits` is outside `1..=32` or any value does not fit.
pub fn pack_bits<L: Lane>(values: &[L], bits: u32) -> Vec<u8> {
    assert!((1..=32).contains(&bits), "bit width must be 1..=32");
    let mask = low_mask(bits);
    let mut writer = BitWriter::appending(Vec::new(), values.len(), bits);
    for &v in values {
        let v = v.widen();
        assert!(v <= mask, "value {v} exceeds {bits} bits");
        writer.push(v, bits);
    }
    writer.finish()
}

/// Unpacks `m` values of `bits` bits each into lanes of type `L`,
/// validating each against `max_value` (and the lane range).
pub fn unpack_bits<L: Lane>(
    bytes: &[u8],
    m: usize,
    bits: u32,
    max_value: u32,
) -> Result<Vec<L>, BitPackError> {
    let mut reader = BitReader::new(bytes, m, bits)?;
    let mut values = vec![L::ZERO; m];
    for slot in &mut values {
        *slot = checked_lane(reader.next() as u64, max_value)?;
    }
    Ok(values)
}

/// Size in bytes of the offset-codec header: base (u32), inline bit
/// width (u8), exception count (u32).
const OFFSET_HEADER: usize = 9;

/// Wire size in bytes of one exception entry: position (u32) + value
/// (u32).
const EXCEPTION_BYTES: usize = 8;

/// Compresses `values` as offsets from their minimum plus a sparse
/// exception list — the HyperLogLogLog-style layout the SetSketch warm
/// tier uses, with the sketch's `K_low` lower bound as the shared base.
///
/// The codec picks the inline bit width `w` that minimizes total size:
/// values whose offset from the base fits in `w` bits are stored inline
/// at `w` bits each; the rest become `(position, value)` exception
/// entries. For concentrated register distributions (base-2 SetSketch,
/// HyperLogLog) offsets span a handful of bits, so the packed form runs
/// 2–3 bits per register against the 8 of a resident byte lane.
///
/// Layout: `base: u32 LE | w: u8 | exceptions: u32 LE |`
/// `exceptions × (position: u32 LE, value: u32 LE) | inline offsets`
/// (`w` bits each, little-endian bit order; absent when `w == 0`).
/// Exception positions hold the placeholder `2^w − 1` inline.
///
/// Round-trips bit-for-bit through [`unpack_offsets`] for any input.
pub fn pack_offsets<L: Lane>(values: &[L]) -> Vec<u8> {
    let base = kernels::min_scan(values);
    // Histogram of offset bit lengths; cumulative counts give the
    // exception count at every candidate width in one pass.
    let mut by_bits = [0usize; 33];
    for &v in values {
        by_bits[(32 - (v.widen() - base).leading_zeros()) as usize] += 1;
    }
    let mut width = 0u32;
    let mut best_cost = usize::MAX;
    let mut exception_count = 0usize;
    let mut inline = 0usize;
    for (w, &bucket) in by_bits.iter().enumerate() {
        inline += bucket;
        let exceptions = values.len() - inline;
        let cost = EXCEPTION_BYTES * exceptions + (values.len() * w).div_ceil(8);
        if cost < best_cost {
            best_cost = cost;
            width = w as u32;
            exception_count = exceptions;
        }
        if exceptions == 0 {
            break; // wider widths only grow the inline section
        }
    }
    let mask = low_mask(width);
    let mut out = Vec::with_capacity(OFFSET_HEADER + best_cost);
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width as u8);
    out.extend_from_slice(&(exception_count as u32).to_le_bytes());
    if exception_count > 0 {
        for (i, &v) in values.iter().enumerate() {
            let v = v.widen();
            if v - base > mask {
                out.extend_from_slice(&(i as u32).to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    if width == 0 {
        return out;
    }
    let mut writer = BitWriter::appending(out, values.len(), width);
    for &v in values {
        writer.push((v.widen() - base).min(mask), width);
    }
    writer.finish()
}

/// Decompresses a [`pack_offsets`] buffer back into `m` lanes of type
/// `L`, validating every reconstructed value against `max_value` (and
/// the lane range) before it is narrowed.
pub fn unpack_offsets<L: Lane>(
    bytes: &[u8],
    m: usize,
    max_value: u32,
) -> Result<Vec<L>, BitPackError> {
    let header = bytes.get(..OFFSET_HEADER).ok_or(BitPackError::Truncated)?;
    let base = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    let width = header[4] as u32;
    let exception_count = u32::from_le_bytes(header[5..9].try_into().expect("4-byte slice"));
    if width > 32 || exception_count as usize > m {
        return Err(BitPackError::MalformedHeader);
    }
    let exception_end = OFFSET_HEADER + EXCEPTION_BYTES * exception_count as usize;
    let exception_bytes = bytes
        .get(OFFSET_HEADER..exception_end)
        .ok_or(BitPackError::Truncated)?;
    let mut values: Vec<L> = if width == 0 {
        vec![checked_lane(base as u64, max_value)?; m]
    } else {
        let mut reader = BitReader::new(&bytes[exception_end..], m, width)?;
        let mut values = vec![L::ZERO; m];
        for slot in &mut values {
            *slot = checked_lane(base as u64 + reader.next() as u64, max_value)?;
        }
        values
    };
    let mut last_position: Option<u32> = None;
    for entry in exception_bytes.chunks_exact(EXCEPTION_BYTES) {
        let position = u32::from_le_bytes(entry[0..4].try_into().expect("4-byte slice"));
        let value = u32::from_le_bytes(entry[4..8].try_into().expect("4-byte slice"));
        // Encoded positions are strictly ascending; enforcing that
        // rejects duplicates and keeps decoding order-insensitive.
        if position as usize >= m || last_position.is_some_and(|p| position <= p) {
            return Err(BitPackError::IndexOutOfRange);
        }
        values[position as usize] = checked_lane(value as u64, max_value)?;
        last_position = Some(position);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        for bits in [1u32, 5, 6, 8, 16, 31, 32] {
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let values: Vec<u32> = (0..100u32)
                .map(|i| i.wrapping_mul(2_654_435_761) & mask)
                .collect();
            let packed = pack_bits(&values, bits);
            assert_eq!(
                unpack_bits::<u32>(&packed, 100, bits, mask).unwrap(),
                values
            );
        }
    }

    #[test]
    fn size_formula() {
        assert_eq!(pack_bits(&[0u8; 4096], 6).len(), 3072);
        assert_eq!(pack_bits(&[0u16; 5], 3).len(), 2);
        assert!(pack_bits::<u32>(&[], 7).is_empty());
    }

    #[test]
    fn offsets_roundtrip_shapes() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![5; 100],                                 // all equal: w = 0
            (0..4096u32).map(|i| 40 + (i % 7)).collect(), // tight band
            (0..100u32).map(|i| i * i).collect(),         // wide spread
            vec![0, u32::MAX, 0, 3],                      // extreme outlier
            (0..257u32)
                .map(|i| {
                    1000 + (i.wrapping_mul(2_654_435_761) % 5) + if i % 97 == 0 { 900 } else { 0 }
                })
                .collect(), // base + sparse exceptions
        ];
        for values in cases {
            let packed = pack_offsets(&values);
            let unpacked = unpack_offsets::<u32>(&packed, values.len(), u32::MAX).unwrap();
            assert_eq!(values, unpacked);
        }
    }

    #[test]
    fn offsets_compress_concentrated_registers() {
        // Base-2 SetSketch-like registers: m = 4096 values within a
        // ~6-value band around K_low pack to 3 bits each — under half of
        // the one byte per register a resident sketch holds.
        let values: Vec<u8> = (0..4096u32).map(|i| 30 + (i % 6) as u8).collect();
        let packed = pack_offsets(&values);
        assert!(
            packed.len() * 2 < 4096,
            "{} bytes is not under half of {}",
            packed.len(),
            4096
        );
    }

    #[test]
    fn offsets_error_cases() {
        let values: Vec<u32> = (0..64u32).map(|i| 10 + i % 4).collect();
        let packed = pack_offsets(&values);
        assert_eq!(
            unpack_offsets::<u32>(&packed[..OFFSET_HEADER - 1], 64, u32::MAX),
            Err(BitPackError::Truncated)
        );
        assert_eq!(
            unpack_offsets::<u32>(&packed[..packed.len() - 1], 64, u32::MAX),
            Err(BitPackError::Truncated)
        );
        assert_eq!(
            unpack_offsets::<u32>(&packed, 64, 11),
            Err(BitPackError::ValueOutOfRange)
        );
        let mut bad_width = packed.clone();
        bad_width[4] = 33;
        assert_eq!(
            unpack_offsets::<u32>(&bad_width, 64, u32::MAX),
            Err(BitPackError::MalformedHeader)
        );
        let mut bad_count = packed.clone();
        bad_count[5..9].copy_from_slice(&65u32.to_le_bytes());
        assert_eq!(
            unpack_offsets::<u32>(&bad_count, 64, u32::MAX),
            Err(BitPackError::MalformedHeader)
        );
        // An exception whose position is out of range.
        let with_exception = pack_offsets(&[0u32, 0, 0, 1 << 20]);
        let mut bad_index = with_exception.clone();
        bad_index[OFFSET_HEADER..OFFSET_HEADER + 4].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            unpack_offsets::<u32>(&bad_index, 4, u32::MAX),
            Err(BitPackError::IndexOutOfRange)
        );
        let mut bad_value = with_exception;
        bad_value[OFFSET_HEADER + 4..OFFSET_HEADER + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            unpack_offsets::<u32>(&bad_value, 4, 1 << 21),
            Err(BitPackError::ValueOutOfRange)
        );
    }

    #[test]
    fn error_cases() {
        let packed = pack_bits(&[3u32; 10], 6);
        assert_eq!(
            unpack_bits::<u32>(&packed[..packed.len() - 1], 10, 6, 63),
            Err(BitPackError::Truncated)
        );
        assert_eq!(
            unpack_bits::<u32>(&packed, 10, 6, 2),
            Err(BitPackError::ValueOutOfRange)
        );
        for bits in [0, 33] {
            assert_eq!(
                unpack_bits::<u32>(&packed, 10, bits, 63),
                Err(BitPackError::InvalidBitWidth)
            );
        }
        // A value wider than the bit width is a caller bug, not input.
        assert!(std::panic::catch_unwind(|| pack_bits(&[64u32], 6)).is_err());
    }
}
