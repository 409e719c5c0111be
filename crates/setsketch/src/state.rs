//! Self-describing binary sketch state.
//!
//! Distributed aggregation (the paper's headline use case) requires moving
//! sketch states between processes. [`SetSketch::to_bytes`] is the
//! self-describing form: a fixed header with the variant, configuration
//! and hash seed, followed by the registers bit-packed to
//! `config.register_bits()` bits each. The prototype-relative form for
//! sketches that share a configuration is
//! [`Sketch::compress`](sketch_core::Sketch::compress).

use crate::config::{ConfigError, SetSketchConfig};
use crate::sequence::ValueSequence;
use crate::sketch::SetSketch;
use sketch_math::{BitPackError, Registers, MAX_DECODED_Q};

/// Errors raised when restoring a sketch from its binary representation.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The state's variant tag does not match the requested sketch type.
    VariantMismatch {
        /// Tag found in the state.
        found: String,
        /// Tag expected by the target type.
        expected: &'static str,
    },
    /// The embedded configuration is invalid.
    Config(ConfigError),
    /// The header's q exceeds [`MAX_DECODED_Q`].
    UnsupportedLimit(u32),
    /// Binary decoding failed.
    Codec(BitPackError),
    /// The binary header is malformed.
    MalformedHeader,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::VariantMismatch { found, expected } => {
                write!(f, "state is for variant {found:?}, expected {expected:?}")
            }
            StateError::Config(e) => write!(f, "invalid configuration: {e}"),
            StateError::UnsupportedLimit(q) => {
                write!(f, "q = {q} exceeds the decoder limit {MAX_DECODED_Q}")
            }
            StateError::Codec(e) => write!(f, "binary decoding failed: {e}"),
            StateError::MalformedHeader => write!(f, "malformed binary header"),
        }
    }
}

impl std::error::Error for StateError {}

impl From<ConfigError> for StateError {
    fn from(e: ConfigError) -> Self {
        StateError::Config(e)
    }
}

impl From<BitPackError> for StateError {
    fn from(e: BitPackError) -> Self {
        StateError::Codec(e)
    }
}

/// Magic bytes of the binary representation ("SSK1").
const MAGIC: u32 = 0x5353_4b31;

/// Header bytes: magic, variant, m, b, a, q, seed.
const HEADER: usize = 41;

impl<S: ValueSequence> SetSketch<S> {
    /// Compact binary representation: fixed header plus bit-packed
    /// registers (`config.register_bits()` bits each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let cfg = self.config();
        let packed = self.registers().pack_bits(cfg.register_bits());
        let mut out = Vec::with_capacity(HEADER + packed.len());
        out.extend_from_slice(&MAGIC.to_be_bytes());
        out.push(Self::variant_tag());
        out.extend_from_slice(&(cfg.m() as u64).to_be_bytes());
        out.extend_from_slice(&cfg.b().to_be_bytes());
        out.extend_from_slice(&cfg.a().to_be_bytes());
        out.extend_from_slice(&cfg.q().to_be_bytes());
        out.extend_from_slice(&self.seed().to_be_bytes());
        out.extend_from_slice(&packed);
        out
    }

    /// Restores a sketch from the binary representation.
    ///
    /// A header whose q exceeds [`MAX_DECODED_Q`] is rejected with
    /// [`StateError::UnsupportedLimit`] before anything is built: the
    /// sketch's power table grows with q, not with the input length.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StateError> {
        if bytes.len() < HEADER {
            return Err(StateError::MalformedHeader);
        }
        let magic = u32::from_be_bytes(bytes[0..4].try_into().expect("length checked"));
        if magic != MAGIC {
            return Err(StateError::MalformedHeader);
        }
        let variant = bytes[4];
        if variant != Self::variant_tag() {
            return Err(StateError::VariantMismatch {
                found: format!("setsketch{variant}"),
                expected: S::NAME,
            });
        }
        let m = u64::from_be_bytes(bytes[5..13].try_into().expect("length checked")) as usize;
        let b = f64::from_be_bytes(bytes[13..21].try_into().expect("length checked"));
        let a = f64::from_be_bytes(bytes[21..29].try_into().expect("length checked"));
        let q = u32::from_be_bytes(bytes[29..33].try_into().expect("length checked"));
        let seed = u64::from_be_bytes(bytes[33..41].try_into().expect("length checked"));
        if q > MAX_DECODED_Q {
            return Err(StateError::UnsupportedLimit(q));
        }
        let config = SetSketchConfig::new(m, b, a, q)?;
        let registers = Registers::unpack_bits(&bytes[HEADER..], m, config.register_bits(), q + 1)?;
        Ok(Self::from_registers(config, seed, registers))
    }

    /// The header's variant byte.
    fn variant_tag() -> u8 {
        if S::NAME == "setsketch1" {
            1
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::{SetSketch1, SetSketch2};

    fn populated_sketch() -> SetSketch1 {
        let cfg = SetSketchConfig::new(128, 2.0, 20.0, 62).unwrap();
        let mut s = SetSketch1::new(cfg, 42);
        s.extend(0..5000);
        s
    }

    #[test]
    fn state_roundtrip_preserves_equality_and_behavior() {
        let original = populated_sketch();
        let restored = SetSketch1::from_bytes(&original.to_bytes()).unwrap();
        assert_eq!(original, restored);
        // The restored sketch continues to work identically.
        let mut a = original.clone();
        let mut b = restored;
        a.insert_u64(999_999);
        b.insert_u64(999_999);
        assert_eq!(a, b);
        assert!((a.estimate_cardinality() - b.estimate_cardinality()).abs() < 1e-12);
    }

    #[test]
    fn state_variant_is_checked() {
        let bytes = populated_sketch().to_bytes();
        let err = SetSketch2::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, StateError::VariantMismatch { .. }));
    }

    #[test]
    fn state_register_validation() {
        // q = 60 packs into 6 bits, so a packed 63 exceeds q + 1 = 61.
        let cfg = SetSketchConfig::new(128, 2.0, 20.0, 60).unwrap();
        let mut bytes = SetSketch1::new(cfg, 42).to_bytes();
        bytes[HEADER] |= 0x3f;
        assert_eq!(
            SetSketch1::from_bytes(&bytes),
            Err(StateError::Codec(BitPackError::ValueOutOfRange))
        );
        // One register short of m.
        let bytes = populated_sketch().to_bytes();
        assert_eq!(
            SetSketch1::from_bytes(&bytes[..bytes.len() - 1]),
            Err(StateError::Codec(BitPackError::Truncated))
        );
    }

    #[test]
    fn binary_roundtrip() {
        let original = populated_sketch();
        let bytes = original.to_bytes();
        let restored = SetSketch1::from_bytes(&bytes).unwrap();
        assert_eq!(original, restored);
    }

    #[test]
    fn binary_size_matches_packed_footprint() {
        let original = populated_sketch();
        let bytes = original.to_bytes();
        // 41-byte header + 128 registers * 6 bits = 96 bytes.
        assert_eq!(bytes.len(), 41 + 96);
    }

    #[test]
    fn binary_rejects_corruption() {
        let original = populated_sketch();
        let bytes = original.to_bytes();
        assert!(SetSketch1::from_bytes(&bytes[..10]).is_err());
        let mut corrupted = bytes.clone();
        corrupted[0] ^= 0xff;
        assert!(SetSketch1::from_bytes(&corrupted).is_err());
        assert!(SetSketch2::from_bytes(&bytes).is_err());
    }

    #[test]
    fn restored_sketch_tracks_lower_bound() {
        // from_bytes must recompute K_low so inserts stay efficient and
        // correct.
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let mut s = SetSketch1::new(cfg, 7);
        s.extend(0..100_000);
        let restored = SetSketch1::from_bytes(&s.to_bytes()).unwrap();
        assert!(restored.k_low() > 0);
        assert_eq!(restored.k_low(), restored.registers().iter().min().unwrap());
    }
}
