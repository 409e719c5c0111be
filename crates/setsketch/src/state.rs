//! Serializable sketch state.
//!
//! Distributed aggregation (the paper's headline use case) requires moving
//! sketch states between processes. [`SketchState`] is the portable
//! representation: it carries the configuration, the hash seed, a variant
//! tag, and the raw register values; [`SetSketch::to_state`] and
//! [`SetSketch::from_state`] convert losslessly, and serde implementations
//! on the sketch types delegate to it. [`SetSketch::to_bytes`] additionally
//! provides the compact bit-packed binary representation.

use crate::codec::CodecError;
use crate::config::{ConfigError, SetSketchConfig};
use crate::sequence::ValueSequence;
use crate::sketch::SetSketch;
use bytes::{Buf, BufMut, Bytes, BytesMut};
#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};
use sketch_math::Registers;

/// Portable SetSketch state.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct SketchState {
    /// Variant tag: `"setsketch1"` or `"setsketch2"`.
    pub variant: String,
    /// Configuration parameters.
    pub config: SetSketchConfig,
    /// Hash seed.
    pub seed: u64,
    /// Raw register values (length `config.m()`, values `0..=q+1`).
    pub registers: Vec<u32>,
}

/// Errors raised when restoring a sketch from external state.
#[derive(Debug, Clone, PartialEq)]
pub enum StateError {
    /// The state's variant tag does not match the requested sketch type.
    VariantMismatch {
        /// Tag found in the state.
        found: String,
        /// Tag expected by the target type.
        expected: &'static str,
    },
    /// The register array length differs from the configured m.
    WrongRegisterCount,
    /// A register value exceeds q + 1.
    RegisterOutOfRange,
    /// The embedded configuration is invalid.
    Config(ConfigError),
    /// Binary decoding failed.
    Codec(CodecError),
    /// The binary header is malformed.
    MalformedHeader,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::VariantMismatch { found, expected } => {
                write!(f, "state is for variant {found:?}, expected {expected:?}")
            }
            StateError::WrongRegisterCount => write!(f, "register count does not match m"),
            StateError::RegisterOutOfRange => write!(f, "register value exceeds q + 1"),
            StateError::Config(e) => write!(f, "invalid configuration: {e}"),
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

impl From<CodecError> for StateError {
    fn from(e: CodecError) -> Self {
        StateError::Codec(e)
    }
}

/// Magic bytes of the binary representation ("SSK1").
const MAGIC: u32 = 0x5353_4b31;

impl<S: ValueSequence> SetSketch<S> {
    /// Extracts the portable state of this sketch.
    pub fn to_state(&self) -> SketchState {
        SketchState {
            variant: S::NAME.to_owned(),
            config: *self.config(),
            seed: self.seed(),
            registers: self.registers().to_vec(),
        }
    }

    /// Restores a sketch from portable state, validating variant,
    /// configuration and register range.
    pub fn from_state(state: SketchState) -> Result<Self, StateError> {
        if state.variant != S::NAME {
            return Err(StateError::VariantMismatch {
                found: state.variant,
                expected: S::NAME,
            });
        }
        let config = SetSketchConfig::new(
            state.config.m(),
            state.config.b(),
            state.config.a(),
            state.config.q(),
        )?;
        if state.registers.len() != config.m() {
            return Err(StateError::WrongRegisterCount);
        }
        let registers = Registers::narrowed(&state.registers, config.q() + 1)
            .ok_or(StateError::RegisterOutOfRange)?;
        Ok(Self::from_registers(config, state.seed, registers))
    }

    /// Compact binary representation: fixed header plus bit-packed
    /// registers (`config.register_bits()` bits each).
    pub fn to_bytes(&self) -> Bytes {
        let cfg = self.config();
        let mut out = BytesMut::with_capacity(48 + cfg.packed_bytes());
        out.put_u32(MAGIC);
        out.put_u8(if S::NAME == "setsketch1" { 1 } else { 2 });
        out.put_u64(cfg.m() as u64);
        out.put_f64(cfg.b());
        out.put_f64(cfg.a());
        out.put_u32(cfg.q());
        out.put_u64(self.seed());
        out.extend_from_slice(&self.registers().pack_bits(cfg.register_bits()));
        out.freeze()
    }

    /// Restores a sketch from the binary representation.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, StateError> {
        if bytes.len() < 41 {
            return Err(StateError::MalformedHeader);
        }
        if bytes.get_u32() != MAGIC {
            return Err(StateError::MalformedHeader);
        }
        let variant = bytes.get_u8();
        let expected = if S::NAME == "setsketch1" { 1 } else { 2 };
        if variant != expected {
            return Err(StateError::VariantMismatch {
                found: format!("setsketch{variant}"),
                expected: S::NAME,
            });
        }
        let m = bytes.get_u64() as usize;
        let b = bytes.get_f64();
        let a = bytes.get_f64();
        let q = bytes.get_u32();
        let seed = bytes.get_u64();
        let config = SetSketchConfig::new(m, b, a, q)?;
        let registers = Registers::unpack_bits(bytes, m, config.register_bits(), q + 1)?;
        Ok(Self::from_registers(config, seed, registers))
    }
}

#[cfg(feature = "serde")]
impl<S: ValueSequence> Serialize for SetSketch<S> {
    fn serialize<Ser: serde::Serializer>(&self, serializer: Ser) -> Result<Ser::Ok, Ser::Error> {
        self.to_state().serialize(serializer)
    }
}

#[cfg(feature = "serde")]
impl<'de, S: ValueSequence> Deserialize<'de> for SetSketch<S> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let state = SketchState::deserialize(deserializer)?;
        SetSketch::from_state(state).map_err(serde::de::Error::custom)
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
        let restored = SetSketch1::from_state(original.to_state()).unwrap();
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
        let original = populated_sketch();
        let state = original.to_state();
        let err = SetSketch2::from_state(state).unwrap_err();
        assert!(matches!(err, StateError::VariantMismatch { .. }));
    }

    #[test]
    fn state_register_validation() {
        let original = populated_sketch();
        let mut state = original.to_state();
        state.registers[0] = 64; // q + 1 = 63 is the maximum
        assert_eq!(
            SetSketch1::from_state(state),
            Err(StateError::RegisterOutOfRange)
        );
        let mut state = original.to_state();
        state.registers.pop();
        assert_eq!(
            SetSketch1::from_state(state),
            Err(StateError::WrongRegisterCount)
        );
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_roundtrip() {
        let original = populated_sketch();
        let json = serde_json::to_string(&original).unwrap();
        let restored: SetSketch1 = serde_json::from_str(&json).unwrap();
        assert_eq!(original, restored);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_rejects_wrong_variant() {
        let original = populated_sketch();
        let json = serde_json::to_string(&original).unwrap();
        let result: Result<SetSketch2, _> = serde_json::from_str(&json);
        assert!(result.is_err());
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
        let mut corrupted = bytes.to_vec();
        corrupted[0] ^= 0xff;
        assert!(SetSketch1::from_bytes(&corrupted).is_err());
        assert!(SetSketch2::from_bytes(&bytes).is_err());
    }

    #[test]
    fn restored_sketch_tracks_lower_bound() {
        // from_state must recompute K_low so inserts stay efficient and
        // correct.
        let cfg = SetSketchConfig::new(64, 2.0, 20.0, 62).unwrap();
        let mut s = SetSketch1::new(cfg, 7);
        s.extend(0..100_000);
        let restored = SetSketch1::from_state(s.to_state()).unwrap();
        assert!(restored.k_low() > 0);
        assert_eq!(restored.k_low(), restored.registers().iter().min().unwrap());
    }
}
