//! Fixed-width bit packing of register arrays.
//!
//! Sketch memory-footprint claims (paper §2.3) assume registers stored in
//! `⌈log₂(q+2)⌉` bits each. This module is the shared packing substrate
//! used by the SetSketch and GHLL binary codecs: little-endian bit order,
//! widths 1..=32. Every function is generic over the [`Lane`] type of the
//! register array, so a narrow resident array is packed from and unpacked
//! into directly, without a widened temporary.
//!
//! # Group layout
//!
//! Value `i` of a `w`-bit packing occupies bits `i·w .. (i+1)·w` of the
//! buffer, least significant bit first. Eight values therefore fill
//! exactly `w` bytes, and a packed array is a run of independent `w`-byte
//! groups; a short last group of `t < 8` values takes `⌈t·w/8⌉` bytes,
//! its padding bits zero. One kernel moves a group between its eight
//! values and its `w` bytes through a `u64` carry. It is monomorphized
//! for each width behind one `match` over `w = 1..=32`, so every shift
//! and byte offset in it is a constant. Both codecs run on it:
//! [`pack_bits`]/[`unpack_bits`] (the `to_bytes` form) and the inline
//! section of [`pack_offsets`]/[`unpack_offsets`] (the `compress` form).
//! Decoding checks every value against the caller's maximum with one
//! branch-free flag over the whole array.
//!
//! # Width search
//!
//! [`pack_offsets`] stores each value's offset from the minimum inline in
//! `w` bits, and every value whose offset needs more bits as an 8-byte
//! exception, choosing the `w` that minimizes
//! `8·exceptions(w) + ⌈m·w/8⌉`. With `top` the bit length of the largest
//! offset, `w = top` has no exceptions and every wider width only costs
//! more, so the search starts at `top` and walks down, counting the
//! values above `min + 2^w − 1` with one compare-and-count pass per
//! width. Exceptions only grow as `w` falls, so the walk stops once
//! `8·exceptions(w)` alone exceeds the best cost. Ties keep the narrower
//! width.

use crate::kernels::Lane;

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

/// Values per packing group: eight `w`-bit values fill exactly `w` bytes.
const GROUP: usize = 8;

/// Values per chunk of the min/max and exception scans.
const CHUNK: usize = 32;

/// Mask of the low `bits` bits (`bits ≤ 32`).
fn low_mask(bits: u32) -> u32 {
    if bits == 32 {
        u32::MAX
    } else {
        (1u32 << bits) - 1
    }
}

/// Bytes holding `count` values of `bits` bits each.
fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Calls `kernel::<_, W>(args)` with `W` the constant equal to `width`,
/// which must lie in `1..=32`.
macro_rules! at_width {
    ($width:expr, $kernel:ident $args:tt) => {
        at_width!(@arms $width, $kernel $args;
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
            17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32)
    };
    (@arms $width:expr, $kernel:ident $args:tt; $($w:literal)*) => {
        match $width {
            $($w => $kernel::<_, $w> $args,)*
            width => unreachable!("bit width {width} outside 1..=32"),
        }
    };
}

/// Packs one group of eight values, each below `2^W`, into its `W` bytes.
/// The carry holds fewer than 32 pending bits when a value is added, so
/// with `W ≤ 32` it never needs more than its 64.
#[inline(always)]
fn pack_group<const W: usize>(values: [u32; GROUP], out: &mut [u8; W]) {
    let mut carry = 0u64;
    let mut filled = 0;
    let mut at = 0;
    for value in values {
        carry |= u64::from(value) << filled;
        filled += W;
        if filled >= 32 {
            out[at..at + 4].copy_from_slice(&(carry as u32).to_le_bytes());
            carry >>= 32;
            filled -= 32;
            at += 4;
        }
    }
    // Eight values are whole bytes: `filled / 8` of them remain.
    out[at..].copy_from_slice(&carry.to_le_bytes()[..filled / 8]);
}

/// Unpacks the eight values of one `W`-byte group. The carry is refilled
/// (up to four bytes) only when it holds fewer than `W ≤ 32` bits, so it
/// never needs more than its 64.
#[inline(always)]
fn unpack_group<const W: usize>(bytes: &[u8; W]) -> [u32; GROUP] {
    let mask = u64::from(low_mask(W as u32));
    let mut carry = 0u64;
    let mut filled = 0;
    let mut at = 0;
    let mut values = [0u32; GROUP];
    for value in &mut values {
        if filled < W {
            let take = (W - at).min(4);
            let mut word = [0u8; 4];
            word[..take].copy_from_slice(&bytes[at..at + take]);
            carry |= u64::from(u32::from_le_bytes(word)) << filled;
            filled += 8 * take;
            at += take;
        }
        *value = (carry & mask) as u32;
        carry >>= W;
        filled -= W;
    }
    values
}

/// Packs each value's offset from `base`, clamped to `2^W − 1`, into
/// `out`, which holds exactly `⌈len·W/8⌉` bytes.
fn pack_groups<L: Lane, const W: usize>(values: &[L], base: u32, out: &mut [u8]) {
    let mask = low_mask(W as u32);
    let offset = |v: &L| (v.widen() - base).min(mask);
    let groups = values.chunks_exact(GROUP);
    let (whole, rest) = out.split_at_mut(values.len() / GROUP * W);
    let tail = groups.remainder();
    for (group, dst) in groups.zip(whole.chunks_exact_mut(W)) {
        let dst = dst.try_into().expect("chunk of W bytes");
        pack_group::<W>(std::array::from_fn(|i| offset(&group[i])), dst);
    }
    if !tail.is_empty() {
        let mut padded = [0u32; GROUP];
        for (slot, v) in padded.iter_mut().zip(tail) {
            *slot = offset(v);
        }
        let mut last = [0u8; W];
        pack_group::<W>(padded, &mut last);
        rest.copy_from_slice(&last[..rest.len()]);
    }
}

/// Unpacks `out.len()` offsets of `W` bits from `bytes` (exactly
/// `⌈len·W/8⌉` of them) and stores `base + offset` in each lane; returns
/// whether any offset exceeded `span`, the lanes then being unspecified.
fn unpack_groups<L: Lane, const W: usize>(
    bytes: &[u8],
    base: u32,
    span: u32,
    out: &mut [L],
) -> bool {
    // The largest offset, compared once after the loop: the branch-free
    // range flag over the whole array.
    let mut largest = 0;
    let mut store = |lanes: &mut [L], offsets: [u32; GROUP]| {
        for (lane, offset) in lanes.iter_mut().zip(offsets) {
            largest = offset.max(largest);
            *lane = L::truncate(base.wrapping_add(offset));
        }
    };
    let (whole, rest) = bytes.split_at(out.len() / GROUP * W);
    let mut groups = out.chunks_exact_mut(GROUP);
    for (lanes, group) in (&mut groups).zip(whole.chunks_exact(W)) {
        store(
            lanes,
            unpack_group::<W>(group.try_into().expect("chunk of W bytes")),
        );
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        let mut last = [0u8; W];
        last[..rest.len()].copy_from_slice(rest);
        store(tail, unpack_group::<W>(&last));
    }
    largest > span
}

/// The `⌈m·bits/8⌉` bytes at the front of `bytes` that hold `m` values of
/// `bits` bits each.
fn packed_section(bytes: &[u8], m: usize, bits: u32) -> Result<&[u8], BitPackError> {
    if !(1..=32).contains(&bits) {
        return Err(BitPackError::InvalidBitWidth);
    }
    bytes
        .get(..packed_len(m, bits))
        .ok_or(BitPackError::Truncated)
}

/// Decodes `out.len()` values of `bits` bits from `packed` as
/// `base + offset`, each checked against `max_value` and the lane range.
fn unpack_into<L: Lane>(
    packed: &[u8],
    bits: u32,
    base: u32,
    max_value: u32,
    out: &mut [L],
) -> Result<(), BitPackError> {
    let limit = max_value.min(L::MAX.widen());
    let over = match limit.checked_sub(base) {
        Some(span) => at_width!(bits, unpack_groups(packed, base, span, out)),
        None => !out.is_empty(),
    };
    if over {
        Err(BitPackError::ValueOutOfRange)
    } else {
        Ok(())
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

/// Minimum and maximum of `values` (`(0, 0)` for an empty slice).
fn min_max<L: Lane>(values: &[L]) -> (u32, u32) {
    if values.is_empty() {
        return (0, 0);
    }
    let mut mins = [L::MAX; CHUNK];
    let mut maxs = [L::ZERO; CHUNK];
    let mut chunks = values.chunks_exact(CHUNK);
    for chunk in &mut chunks {
        for lane in 0..CHUNK {
            mins[lane] = mins[lane].min(chunk[lane]);
            maxs[lane] = maxs[lane].max(chunk[lane]);
        }
    }
    for (lane, &v) in chunks.remainder().iter().enumerate() {
        mins[lane] = mins[lane].min(v);
        maxs[lane] = maxs[lane].max(v);
    }
    let min = mins.into_iter().fold(L::MAX, L::min);
    let max = maxs.into_iter().fold(L::ZERO, L::max);
    (min.widen(), max.widen())
}

/// Number of values above `limit`, counted in a lane-width counter per
/// run of 255 values, so that even a `u8` counter cannot wrap.
fn count_above<L: Lane>(values: &[L], limit: L) -> usize {
    values
        .chunks(255)
        .map(|run| {
            let count = run
                .iter()
                .fold(L::ZERO, |count, &v| count.wrapping_count(v > limit));
            count.widen() as usize
        })
        .sum()
}

/// The inline width [`pack_offsets`] stores `values` at, given their
/// minimum `base` and maximum `max`, and the number of exceptions it
/// leaves: the cheapest width, the narrower one on a tie.
fn choose_width<L: Lane>(values: &[L], base: u32, max: u32) -> (u32, usize) {
    let top = 32 - (max - base).leading_zeros();
    let mut best = (top, 0);
    let mut best_cost = packed_len(values.len(), top);
    for width in (0..top).rev() {
        // `width < top`, so the limit lies below `max` and fits a lane.
        let limit = L::narrow(base + low_mask(width)).expect("below the maximum");
        let exceptions = count_above(values, limit);
        if EXCEPTION_BYTES * exceptions > best_cost {
            break; // no narrower width can cost as little
        }
        let cost = EXCEPTION_BYTES * exceptions + packed_len(values.len(), width);
        if cost <= best_cost {
            best = (width, exceptions);
            best_cost = cost;
        }
    }
    best
}

/// Packs `values` into `bits` bits each.
///
/// # Panics
/// Panics if `bits` is outside `1..=32` or any value does not fit.
pub fn pack_bits<L: Lane>(values: &[L], bits: u32) -> Vec<u8> {
    assert!((1..=32).contains(&bits), "bit width must be 1..=32");
    let (_, max) = min_max(values);
    assert!(max <= low_mask(bits), "value {max} exceeds {bits} bits");
    let mut out = vec![0; packed_len(values.len(), bits)];
    at_width!(bits, pack_groups(values, 0, &mut out));
    out
}

/// Unpacks `m` values of `bits` bits each into lanes of type `L`,
/// validating each against `max_value` (and the lane range).
pub fn unpack_bits<L: Lane>(
    bytes: &[u8],
    m: usize,
    bits: u32,
    max_value: u32,
) -> Result<Vec<L>, BitPackError> {
    let packed = packed_section(bytes, m, bits)?;
    let mut values = vec![L::ZERO; m];
    unpack_into(packed, bits, 0, max_value, &mut values)?;
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
/// The codec picks the inline bit width `w` that minimizes total size
/// (see the module docs): values whose offset from the base fits in `w`
/// bits are stored inline at `w` bits each; the rest become
/// `(position, value)` exception entries. For concentrated register
/// distributions offsets span a handful of bits: a base-2 SetSketch or
/// GHLL (m = 4096, q = 62) filled with 10⁴ or 10⁶ elements packs at
/// `w = 4` with at most one exception — 2 057 to 2 065 bytes, about 4
/// bits per register against the 8 of a resident byte lane.
///
/// Layout: `base: u32 LE | w: u8 | exceptions: u32 LE |`
/// `exceptions × (position: u32 LE, value: u32 LE) | inline offsets`
/// (`w` bits each, little-endian bit order; absent when `w == 0`).
/// Exception positions hold the placeholder `2^w − 1` inline.
///
/// Round-trips bit-for-bit through [`unpack_offsets`] for any input.
pub fn pack_offsets<L: Lane>(values: &[L]) -> Vec<u8> {
    let (base, max) = min_max(values);
    let (width, exception_count) = choose_width(values, base, max);
    let inline_len = packed_len(values.len(), width);
    let mut out =
        Vec::with_capacity(OFFSET_HEADER + EXCEPTION_BYTES * exception_count + inline_len);
    out.extend_from_slice(&base.to_le_bytes());
    out.push(width as u8);
    out.extend_from_slice(&(exception_count as u32).to_le_bytes());
    if exception_count > 0 {
        // `width < top`, so the limit lies below the maximum.
        let limit = L::narrow(base + low_mask(width)).expect("below the maximum");
        for (c, chunk) in values.chunks(CHUNK).enumerate() {
            if chunk.iter().fold(L::ZERO, |m, &v| m.max(v)) <= limit {
                continue;
            }
            for (i, &v) in chunk.iter().enumerate() {
                if v > limit {
                    out.extend_from_slice(&((c * CHUNK + i) as u32).to_le_bytes());
                    out.extend_from_slice(&v.widen().to_le_bytes());
                }
            }
        }
    }
    if width > 0 {
        let start = out.len();
        out.resize(start + inline_len, 0);
        at_width!(width, pack_groups(values, base, &mut out[start..]));
    }
    out
}

/// Decompresses a [`pack_offsets`] buffer back into `m` lanes of type
/// `L`, validating every reconstructed value against `max_value` (and
/// the lane range) before it is narrowed. Header and truncation errors
/// come first, then an inline value out of range, then the exceptions
/// in position order.
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
        let packed = packed_section(&bytes[exception_end..], m, width)?;
        let mut values = vec![L::ZERO; m];
        unpack_into(packed, width, base, max_value, &mut values)?;
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

/// The bit-at-a-time implementation the group kernel replaced, kept
/// verbatim as the oracle of the differential tests: packed bytes and
/// decode results (values or error variant) must match it exactly.
#[cfg(test)]
mod reference {
    use super::{checked_lane, low_mask, BitPackError, EXCEPTION_BYTES, OFFSET_HEADER};
    use crate::kernels::{self, Lane};

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// SplitMix64: the deterministic value source of the differential
    /// tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Array lengths of the differential tests: 0..=17 covers every tail
    /// length mod 8 twice, anything above stands for a whole sketch.
    fn length(pick: usize) -> usize {
        if pick <= 17 {
            pick
        } else {
            4096
        }
    }

    /// A value in `low..=high`, drawn at either end one time in four.
    fn draw(state: &mut u64, low: u32, high: u32) -> u32 {
        let r = splitmix(state);
        match r % 8 {
            0 => low,
            1 => high,
            _ => low + ((r >> 3) % (u64::from(high - low) + 1)) as u32,
        }
    }

    /// Buffers to decode: the packed one, one with a single bit flipped,
    /// one cut short and one with a trailing byte.
    fn variants(packed: &[u8], state: &mut u64) -> Vec<Vec<u8>> {
        let mut buffers = vec![packed.to_vec()];
        if !packed.is_empty() {
            let bit = splitmix(state) as usize % (packed.len() * 8);
            let mut flipped = packed.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            buffers.push(flipped);
            buffers.push(packed[..splitmix(state) as usize % packed.len()].to_vec());
        }
        let mut longer = packed.to_vec();
        longer.push(0xA5);
        buffers.push(longer);
        buffers
    }

    /// Maxima to decode against: above, at and just below the largest
    /// packed value, the smallest one, and the `u8` lane range.
    fn maxima(values: &[u32]) -> Vec<u32> {
        let low = values.iter().copied().min().unwrap_or(0);
        let high = values.iter().copied().max().unwrap_or(0);
        vec![u32::MAX, high, high.saturating_sub(1), low, 255]
    }

    /// Every decode of `buffer` — into each lane type, at `m` and one
    /// more, against each maximum — equals the reference's.
    fn decodes_match(
        buffer: &[u8],
        m: usize,
        bits: Option<u32>,
        maxima: &[u32],
    ) -> Result<(), TestCaseError> {
        fn at_lane<L: Lane>(
            buffer: &[u8],
            m: usize,
            bits: Option<u32>,
            max_value: u32,
        ) -> Result<(), TestCaseError> {
            match bits {
                Some(bits) => prop_assert_eq!(
                    unpack_bits::<L>(buffer, m, bits, max_value),
                    reference::unpack_bits::<L>(buffer, m, bits, max_value),
                    "unpack_bits m = {} bits = {} max = {}",
                    m,
                    bits,
                    max_value
                ),
                None => prop_assert_eq!(
                    unpack_offsets::<L>(buffer, m, max_value),
                    reference::unpack_offsets::<L>(buffer, m, max_value),
                    "unpack_offsets m = {} max = {}",
                    m,
                    max_value
                ),
            }
            Ok(())
        }
        for m in [m, m + 1] {
            for &max_value in maxima {
                at_lane::<u8>(buffer, m, bits, max_value)?;
                at_lane::<u16>(buffer, m, bits, max_value)?;
                at_lane::<u32>(buffer, m, bits, max_value)?;
            }
        }
        Ok(())
    }

    fn narrowed<L: Lane>(values: &[u32]) -> Vec<L> {
        values
            .iter()
            .map(|&v| L::narrow(v).expect("drawn within the lane"))
            .collect()
    }

    /// `pack_bits` at `bits` over lanes `L` equals the reference, and
    /// so does every decode of its output and of damaged copies.
    fn bits_match<L: Lane>(len: usize, bits: u32, seed: u64) -> Result<(), TestCaseError> {
        let mut state = seed;
        let high = low_mask(bits).min(L::MAX.widen());
        let values: Vec<u32> = (0..len).map(|_| draw(&mut state, 0, high)).collect();
        let lanes = narrowed::<L>(&values);
        let packed = pack_bits(&lanes, bits);
        prop_assert_eq!(&packed, &reference::pack_bits(&lanes, bits));
        prop_assert_eq!(packed.len(), packed_len(len, bits));
        let maxima = maxima(&values);
        for buffer in variants(&packed, &mut state) {
            decodes_match(&buffer, len, Some(bits), &maxima)?;
        }
        // Widths next to the packed one, and the two invalid ones.
        for other in [bits - 1, bits + 1, 33] {
            decodes_match(&packed, len, Some(other), &maxima)?;
        }
        Ok(())
    }

    /// Register-like contents for the offset codec over lanes `L`: a
    /// random base, offsets spanning `spread` bits and `exceptions`
    /// (0 = none, 1 = one, 2 = many) values, each drawn anywhere in the
    /// lane or placed just above the spread, the smallest exception.
    fn offsets_input<L: Lane>(len: usize, spread: u32, exceptions: usize, seed: u64) -> Vec<u32> {
        let mut state = seed;
        let lane_max = L::MAX.widen();
        let base = draw(&mut state, 0, lane_max);
        let high = base.saturating_add(low_mask(spread)).min(lane_max);
        let mut values: Vec<u32> = (0..len).map(|_| draw(&mut state, base, high)).collect();
        let planted = match exceptions {
            0 => 0,
            1 => 1,
            _ => len / 4 + 2,
        };
        for _ in 0..planted.min(len) {
            let at = splitmix(&mut state) as usize % len;
            values[at] = if splitmix(&mut state) % 2 == 0 {
                draw(&mut state, 0, lane_max)
            } else {
                high.saturating_add(1).min(lane_max)
            };
        }
        values
    }

    /// `pack_offsets` over lanes `L` equals the reference, and so does
    /// every decode of its output and of damaged copies.
    fn offsets_match<L: Lane>(values: &[u32], seed: u64) -> Result<(), TestCaseError> {
        let lanes = narrowed::<L>(values);
        let packed = pack_offsets(&lanes);
        prop_assert_eq!(&packed, &reference::pack_offsets(&lanes));
        let mut state = seed;
        let maxima = maxima(values);
        for buffer in variants(&packed, &mut state) {
            decodes_match(&buffer, values.len(), None, &maxima)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The group kernel packs and unpacks exactly as the bit-stream
        /// reference at every width, lane type and tail length.
        #[test]
        fn pack_bits_matches_reference(
            pick in 0usize..19,
            bits in 1u32..=32,
            seed in any::<u64>(),
        ) {
            let len = length(pick);
            bits_match::<u8>(len, bits, seed)?;
            bits_match::<u16>(len, bits, seed)?;
            bits_match::<u32>(len, bits, seed)?;
        }

        /// The width search and the offset kernel encode exactly as the
        /// histogram reference, and every decode agrees with it.
        #[test]
        fn pack_offsets_matches_reference(
            pick in 0usize..19,
            spread in 0u32..=32,
            exceptions in 0usize..3,
            seed in any::<u64>(),
        ) {
            let len = length(pick);
            offsets_match::<u8>(&offsets_input::<u8>(len, spread, exceptions, seed), seed)?;
            offsets_match::<u16>(&offsets_input::<u16>(len, spread, exceptions, seed), seed)?;
            offsets_match::<u32>(&offsets_input::<u32>(len, spread, exceptions, seed), seed)?;
        }
    }

    #[test]
    fn offsets_reach_every_inline_width() {
        for width in 0..=32u32 {
            let base = if width == 32 { 0 } else { 7 };
            let mask = low_mask(width);
            let values: Vec<u32> = (0..4096u32)
                .map(|i| base + (i.wrapping_mul(2_654_435_761) & mask))
                .chain([base + mask])
                .collect();
            let packed = pack_offsets(&values);
            assert_eq!(packed[4] as u32, width, "no exceptions at width {width}");
            assert_eq!(packed, reference::pack_offsets(&values));
            offsets_match::<u32>(&values, u64::from(width)).unwrap();
            // One and many outliers on top of the same spread.
            for planted in [1, 300] {
                let mut values = values.clone();
                for i in 0..planted {
                    values[i * 13] = u32::MAX - i as u32;
                }
                offsets_match::<u32>(&values, u64::from(width)).unwrap();
            }
        }
    }

    #[test]
    fn width_ties_keep_the_narrower_width() {
        // Width 0 (one 8-byte exception) and width 8 (eight 1-byte
        // values) cost the same, so width 0 wins: the walk down from 8
        // must not stop while 8·exceptions only equals the best cost.
        let values = [5u32, 5, 5, 5, 5, 5, 5, 5 + 255];
        let packed = pack_offsets(&values);
        assert_eq!(packed[4], 0);
        assert_eq!(packed, reference::pack_offsets(&values));
    }

    #[test]
    fn every_width_packs_as_the_reference() {
        for bits in 1..=32u32 {
            for len in 0..=17 {
                for seed in 0..4 {
                    bits_match::<u8>(len, bits, seed).unwrap();
                    bits_match::<u16>(len, bits, seed).unwrap();
                    bits_match::<u32>(len, bits, seed).unwrap();
                }
            }
            // A whole sketch: the bytes and the round trip only (the
            // proptests decode damaged copies at this length).
            let mut state = u64::from(bits);
            let values: Vec<u32> = (0..4096)
                .map(|_| draw(&mut state, 0, low_mask(bits)))
                .collect();
            let packed = pack_bits(&values, bits);
            assert_eq!(packed, reference::pack_bits(&values, bits));
            assert_eq!(
                unpack_bits::<u32>(&packed, 4096, bits, u32::MAX).unwrap(),
                values
            );
        }
    }
}
