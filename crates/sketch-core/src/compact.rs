//! Compact (compressed) sketch representations for tiered storage.
//!
//! The sketch store's warm and frozen tiers hold sketches as opaque
//! byte buffers instead of resident register arrays. [`CompactSketch`]
//! is the contract those tiers program against: a lossless,
//! bit-for-bit round-trip between the resident state and a compressed
//! byte form, plus an honest accounting of the resident footprint so
//! memory budgets mean something.
//!
//! Families with structured register arrays implement the trait
//! natively — SetSketch and GHLL pack registers as small offsets from
//! their shared `K_low` lower bound with a sparse exception list
//! (`sketch_math::pack_offsets`): about 4 bits per register at the
//! paper's b = 2, q = 62 configuration (4-bit offsets and at most one
//! exception at m = 4096 after 10⁴ or 10⁶ elements), against one
//! resident byte. Families without a packed register form (the MinHash
//! variants, HyperMinHash) do not implement the trait: a JSON encoding
//! of a MinHash is about twice its resident size, so "demoting" one
//! would raise memory. They serve from plain, non-tiered, non-durable
//! stores.

/// A sketch state with a lossless compressed byte representation.
///
/// The contract the sketch store's tier manager relies on:
///
/// * **Round-trip fidelity** — `decompress(&p, &s.compress())` must
///   reconstruct a state equal to `s` in every observable way: equal
///   registers, equal estimates, equal merge behavior. Demoting and
///   rehydrating a sketch must be invisible to queries.
/// * **Prototype-keyed decoding** — the compressed form may omit
///   configuration, seed, and shared lookup tables; `decompress`
///   receives a `prototype` built by the same factory as the encoded
///   sketch (the store guarantees this) and takes those from it.
/// * **Self-contained validation** — `decompress` must reject
///   malformed or truncated bytes with an error, never panic or
///   produce an inconsistent state.
pub trait CompactSketch: Sized {
    /// Error returned for malformed compressed bytes.
    type CompactError: std::error::Error + Send + Sync + 'static;

    /// Encodes the state into a compressed byte buffer.
    fn compress(&self) -> Vec<u8>;

    /// Reconstructs a state from [`compress`](Self::compress) output,
    /// taking configuration, seed and shared tables from `prototype`.
    fn decompress(prototype: &Self, bytes: &[u8]) -> Result<Self, Self::CompactError>;

    /// Bytes this state keeps resident in memory (heap allocations
    /// included). Memory-budget accounting uses this; the default only
    /// counts the inline struct, so container-holding sketches should
    /// override it.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy fixed-width sketch exercising the trait contract.
    #[derive(Debug, Clone, PartialEq)]
    struct Grid {
        seed: u64,
        cells: Vec<u32>,
    }

    #[derive(Debug)]
    struct BadBytes;

    impl std::fmt::Display for BadBytes {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "bad bytes")
        }
    }

    impl std::error::Error for BadBytes {}

    impl CompactSketch for Grid {
        type CompactError = BadBytes;

        fn compress(&self) -> Vec<u8> {
            self.cells.iter().flat_map(|c| c.to_le_bytes()).collect()
        }

        fn decompress(prototype: &Self, bytes: &[u8]) -> Result<Self, BadBytes> {
            if bytes.len() != prototype.cells.len() * 4 {
                return Err(BadBytes);
            }
            Ok(Grid {
                seed: prototype.seed,
                cells: bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect(),
            })
        }

        fn resident_bytes(&self) -> usize {
            std::mem::size_of::<Self>() + 4 * self.cells.len()
        }
    }

    #[test]
    fn roundtrip_through_prototype() {
        let prototype = Grid {
            seed: 7,
            cells: vec![0; 4],
        };
        let sketch = Grid {
            seed: 7,
            cells: vec![9, 0, 3, 1],
        };
        let restored = Grid::decompress(&prototype, &sketch.compress()).unwrap();
        assert_eq!(restored, sketch);
        assert!(Grid::decompress(&prototype, &[1, 2, 3]).is_err());
        assert_eq!(sketch.resident_bytes(), std::mem::size_of::<Grid>() + 16);
    }
}
