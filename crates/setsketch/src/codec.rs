//! Bit-packed register codec.
//!
//! The paper's memory footprint claims (§2.3) refer to registers stored in
//! `⌈log₂(q+2)⌉` bits each: the example configuration with q = 2¹⁶ − 2 uses
//! two bytes per register, and HLL-like configurations (q = 62) use 6 bits.
//! In RAM the sketches keep registers at the next whole lane width — one
//! byte for q = 62, two for q = 2¹⁶ − 2 ([`sketch_math::Registers`]) — and
//! encode from and decode into that array directly
//! (`SetSketch::{to_bytes, from_bytes}`, `CompactSketch::{compress,
//! decompress}`). The functions here are the same packed wire/disk
//! layouts over plain `u32` slices, for callers holding register values
//! outside a sketch. The actual bit shuffling lives in
//! [`sketch_math::bitpack`], shared with the GHLL codec.

use bytes::Bytes;
use sketch_math::bitpack;

/// Errors raised when decoding packed registers.
///
/// The one bit-packing error type of the workspace: the codec is a thin
/// wrapper over [`sketch_math::bitpack`], so its error *is*
/// [`BitPackError`](sketch_math::bitpack::BitPackError) rather than a
/// mirrored enum needing lossy conversion.
pub type CodecError = bitpack::BitPackError;

/// Packs register values into `bits` bits each (little-endian bit order).
///
/// # Panics
/// Panics if `bits` is not in `1..=32` or any value needs more bits.
pub fn pack_registers(values: &[u32], bits: u32) -> Bytes {
    Bytes::from(bitpack::pack_bits(values, bits))
}

/// Unpacks `m` register values of `bits` bits each, validating them against
/// `max_value`.
pub fn unpack_registers(
    bytes: &[u8],
    m: usize,
    bits: u32,
    max_value: u32,
) -> Result<Vec<u32>, CodecError> {
    bitpack::unpack_bits(bytes, m, bits, max_value)
}

/// Compresses registers as offsets from their minimum — the sketch's
/// `K_low` lower bound (paper §4) — plus a sparse exception list for
/// outliers, after HyperLogLogLog. This is the warm-tier representation
/// of stored SetSketches: for base-2 configurations registers
/// concentrate within a few values of `K_low`, so offsets pack into 2–4
/// bits each against the 8 of a resident byte lane.
///
/// Round-trips bit-for-bit through [`decompress_registers`]. The byte
/// layout is [`sketch_math::bitpack::pack_offsets`]'s.
pub fn compress_registers(values: &[u32]) -> Bytes {
    Bytes::from(bitpack::pack_offsets(values))
}

/// Decompresses a [`compress_registers`] buffer back into `m` register
/// values, validating each against `max_value` (`q + 1` for a SetSketch
/// configuration).
pub fn decompress_registers(
    bytes: &[u8],
    m: usize,
    max_value: u32,
) -> Result<Vec<u32>, CodecError> {
    bitpack::unpack_offsets(bytes, m, max_value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for bits in [1u32, 3, 6, 8, 13, 16, 24, 32] {
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            let values: Vec<u32> = (0..257u32)
                .map(|i| i.wrapping_mul(2_654_435_761).wrapping_add(i) & mask)
                .collect();
            let packed = pack_registers(&values, bits);
            let unpacked = unpack_registers(&packed, values.len(), bits, mask).unwrap();
            assert_eq!(values, unpacked, "bits = {bits}");
        }
    }

    #[test]
    fn packed_size_matches_formula() {
        let values = vec![0u32; 4096];
        assert_eq!(pack_registers(&values, 6).len(), 3072); // 4096 * 6 / 8
        assert_eq!(pack_registers(&values, 16).len(), 8192);
        let values = vec![0u32; 7];
        assert_eq!(pack_registers(&values, 6).len(), 6); // ceil(42/8)
    }

    #[test]
    fn detects_truncation() {
        let values = vec![1u32; 100];
        let packed = pack_registers(&values, 6);
        let err = unpack_registers(&packed[..packed.len() - 1], 100, 6, 63);
        assert_eq!(err, Err(CodecError::Truncated));
    }

    #[test]
    fn detects_out_of_range_values() {
        let values = vec![63u32; 8];
        let packed = pack_registers(&values, 6);
        let err = unpack_registers(&packed, 8, 6, 62);
        assert_eq!(err, Err(CodecError::ValueOutOfRange));
    }

    #[test]
    fn rejects_invalid_bit_width() {
        assert_eq!(
            unpack_registers(&[0], 1, 0, 0),
            Err(CodecError::InvalidBitWidth)
        );
        assert_eq!(
            unpack_registers(&[0], 1, 33, 0),
            Err(CodecError::InvalidBitWidth)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn pack_rejects_oversized_values() {
        pack_registers(&[64], 6);
    }

    #[test]
    fn empty_input() {
        let packed = pack_registers(&[], 6);
        assert!(packed.is_empty());
        assert_eq!(unpack_registers(&packed, 0, 6, 63), Ok(vec![]));
    }

    #[test]
    fn codec_error_is_the_bitpack_error() {
        // One packing substrate, one error type: the codec's error is
        // sketch_math's, not a mirrored enum.
        fn take(e: sketch_math::bitpack::BitPackError) -> CodecError {
            e
        }
        assert_eq!(
            take(sketch_math::bitpack::BitPackError::Truncated),
            CodecError::Truncated
        );
    }

    #[test]
    fn offset_compression_roundtrips() {
        let values: Vec<u32> = (0..4096u32)
            .map(|i| 37 + (i % 5) + if i % 211 == 0 { 40 } else { 0 })
            .collect();
        let packed = compress_registers(&values);
        assert_eq!(
            decompress_registers(&packed, values.len(), 100).unwrap(),
            values
        );
        // Under half a byte per register: the warm tier's margin over
        // resident byte lanes.
        assert!(packed.len() * 2 < values.len());
        assert_eq!(
            decompress_registers(&packed, values.len(), 50),
            Err(CodecError::ValueOutOfRange)
        );
    }
}
