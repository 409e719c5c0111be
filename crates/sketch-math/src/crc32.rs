//! CRC-32 (IEEE 802.3) checksums for on-disk and on-wire framing.
//!
//! The durability layer frames every write-ahead-log record, checkpoint
//! entry and frozen-tier spill record with a CRC so that torn writes and
//! bit rot are *detected* instead of decoded into garbage registers. The
//! polynomial is the reflected IEEE one (`0xEDB88320`) — the same CRC as
//! zlib, PNG and Ethernet — so the vectors are easy to cross-check, and
//! the tables are built in a `const` context so the lookup costs nothing
//! at startup.

/// Slicing-by-8 lookup tables for the reflected polynomial
/// `0xEDB88320`: `TABLES[0]` is the classic byte-at-a-time table, and
/// `TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes —
/// what lets [`update`] fold eight input bytes per step with eight
/// independent lookups instead of eight dependent ones.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut index = 0;
    while index < 256 {
        let mut crc = index as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][index] = crc;
        index += 1;
    }
    let mut slice = 1;
    while slice < 8 {
        let mut index = 0;
        while index < 256 {
            let shorter = tables[slice - 1][index];
            tables[slice][index] = (shorter >> 8) ^ tables[0][(shorter & 0xFF) as usize];
            index += 1;
        }
        slice += 1;
    }
    tables
}

/// The CRC-32/IEEE checksum of `bytes`.
///
/// Matches zlib's `crc32(0, bytes)`: initial value `0xFFFF_FFFF`, final
/// XOR `0xFFFF_FFFF`, reflected input and output.
pub fn crc32(bytes: &[u8]) -> u32 {
    finish(update(START, bytes))
}

/// The initial accumulator for an incremental CRC (see [`update`]).
pub const START: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a running CRC accumulator started at [`START`];
/// feed successive chunks, then call [`finish`]. Streaming the frame
/// header and payload separately avoids concatenating them just to
/// checksum the pair.
pub fn update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let low = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let high = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][(high & 0xFF) as usize]
            ^ TABLES[2][((high >> 8) & 0xFF) as usize]
            ^ TABLES[1][((high >> 16) & 0xFF) as usize]
            ^ TABLES[0][(high >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// Finalizes a running accumulator into the checksum value.
pub fn finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_vector() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_strings() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time definition the sliced loop must agree with.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = START;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        finish(crc)
    }

    #[test]
    fn sliced_loop_matches_bytewise_at_every_length_and_offset() {
        let bytes: Vec<u8> = (0u32..200).map(|i| (i * 131 % 251) as u8).collect();
        for start in 0..9 {
            for end in start..bytes.len() {
                assert_eq!(crc32(&bytes[start..end]), bytewise(&bytes[start..end]));
            }
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let bytes: Vec<u8> = (0u32..1000).map(|i| (i * 31 % 251) as u8).collect();
        for split in [0, 1, 7, 500, 999, 1000] {
            let state = update(update(START, &bytes[..split]), &bytes[split..]);
            assert_eq!(finish(state), crc32(&bytes));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let bytes: Vec<u8> = (0u32..64).map(|i| i as u8).collect();
        let clean = crc32(&bytes);
        for position in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[position] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {position}:{bit}");
            }
        }
    }
}
