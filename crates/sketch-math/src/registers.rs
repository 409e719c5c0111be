//! The one representation of a sketch's register array.
//!
//! The paper charges a sketch `m · ⌈log₂(q+2)⌉` bits (§2.3): 6-bit
//! registers at b = 2, q = 62; two bytes at b = 1.001. [`Registers`] keeps
//! the resident array no wider than its value range `0..=q+1` needs —
//! `u8` lanes when `q + 1 ≤ 255`, `u16` when `≤ 65 535`, `u32` otherwise,
//! chosen from the configuration alone — so a resident sketch is 4×
//! (2×) smaller than a `u32` array and every [`kernels`] pass moves 4×
//! (2×) the registers per vector.
//!
//! The lane width is private to this type and the kernels: callers see
//! values as `u32` ([`get`](Registers::get), [`iter`](Registers::iter),
//! [`to_vec`](Registers::to_vec)), run whole-array operations through
//! the methods here, and reach the typed lanes only through code generic
//! over [`Lane`] ([`LanesMut`]). The packed byte formats
//! ([`pack_bits`](Registers::pack_bits),
//! [`pack_offsets`](Registers::pack_offsets)) do not depend on the lane
//! width.

use crate::bitpack::{self, BitPackError};
use crate::kernels::{self, Lane};

/// A register array at its natural lane width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registers(Repr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    U8(Box<[u8]>),
    U16(Box<[u16]>),
    U32(Box<[u32]>),
}

/// Runs `$body` with `$lanes` bound to the typed lane slice.
macro_rules! each_width {
    ($repr:expr, $lanes:ident => $body:expr) => {
        match $repr {
            Repr::U8($lanes) => $body,
            Repr::U16($lanes) => $body,
            Repr::U32($lanes) => $body,
        }
    };
}

/// Runs `$body` with both operands' typed lanes bound; operands built for
/// different value ranges are a caller bug (sketches check configuration
/// compatibility first).
macro_rules! same_width {
    ($left:expr, $right:expr, ($a:ident, $b:ident) => $body:expr) => {
        match ($left, $right) {
            (Repr::U8($a), Repr::U8($b)) => $body,
            (Repr::U16($a), Repr::U16($b)) => $body,
            (Repr::U32($a), Repr::U32($b)) => $body,
            _ => panic!("register arrays must have equal lane width"),
        }
    };
}

/// Builds the representation `$build` yields at the lane width that
/// holds `0..=$max_value`.
macro_rules! at_width_for {
    ($max_value:expr, $build:expr) => {
        if $max_value <= u8::MAX as u32 {
            Repr::U8($build)
        } else if $max_value <= u16::MAX as u32 {
            Repr::U16($build)
        } else {
            Repr::U32($build)
        }
    };
}

/// A register update written once, generically over the lane type, and
/// run on the array at whatever width it is held —
/// [`Registers::with_lanes_mut`] dispatches on the width once, outside
/// the update's own loops.
pub trait LanesMut {
    /// What the update returns.
    type Output;

    /// Runs the update on the typed lanes.
    fn run<L: Lane>(self, lanes: &mut [L]) -> Self::Output;
}

impl Registers {
    /// `len` zero registers wide enough for values `0..=max_value`.
    pub fn zeroed(len: usize, max_value: u32) -> Self {
        fn zeros<L: Lane>(len: usize) -> Box<[L]> {
            vec![L::ZERO; len].into_boxed_slice()
        }
        Registers(at_width_for!(max_value, zeros(len)))
    }

    /// Narrows `values` to the lane width for `0..=max_value`; `None`
    /// when a value exceeds `max_value`.
    pub fn narrowed(values: &[u32], max_value: u32) -> Option<Self> {
        fn narrow<L: Lane>(values: &[u32], max_value: u32) -> Option<Box<[L]>> {
            values
                .iter()
                .map(|&v| if v > max_value { None } else { L::narrow(v) })
                .collect()
        }
        Some(Registers(at_width_for!(
            max_value,
            narrow(values, max_value)?
        )))
    }

    /// Decodes `m` registers of `bits` bits each
    /// ([`bitpack::unpack_bits`]) straight into the lane width for
    /// `0..=max_value`, validating every value against `max_value`.
    pub fn unpack_bits(
        bytes: &[u8],
        m: usize,
        bits: u32,
        max_value: u32,
    ) -> Result<Self, BitPackError> {
        Ok(Registers(at_width_for!(
            max_value,
            bitpack::unpack_bits(bytes, m, bits, max_value)?.into_boxed_slice()
        )))
    }

    /// Decodes an offset-compressed buffer ([`bitpack::unpack_offsets`])
    /// straight into the lane width for `0..=max_value`, validating every
    /// value against `max_value`.
    pub fn unpack_offsets(bytes: &[u8], m: usize, max_value: u32) -> Result<Self, BitPackError> {
        Ok(Registers(at_width_for!(
            max_value,
            bitpack::unpack_offsets(bytes, m, max_value)?.into_boxed_slice()
        )))
    }

    /// Number of registers.
    #[inline]
    pub fn len(&self) -> usize {
        each_width!(&self.0, lanes => lanes.len())
    }

    /// True for a zero-length array.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the array occupies: its length times the lane size.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        each_width!(&self.0, lanes => std::mem::size_of_val::<[_]>(lanes))
    }

    /// The value of register `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn get(&self, index: usize) -> u32 {
        each_width!(&self.0, lanes => lanes[index].widen())
    }

    /// Raises register `index` to `value` if that is an increase;
    /// returns whether the register changed.
    ///
    /// # Panics
    /// Panics if `index` is out of bounds or `value` exceeds the range
    /// the array was built for.
    #[inline]
    pub fn raise(&mut self, index: usize, value: u32) -> bool {
        fn raise<L: Lane>(lane: &mut L, value: u32) -> bool {
            let raised = value > lane.widen();
            if raised {
                *lane = L::narrow(value).expect("register value fits the lane width");
            }
            raised
        }
        each_width!(&mut self.0, lanes => raise(&mut lanes[index], value))
    }

    /// The register values in order, widened to `u32`.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter(match &self.0 {
            Repr::U8(lanes) => IterRepr::U8(lanes.iter()),
            Repr::U16(lanes) => IterRepr::U16(lanes.iter()),
            Repr::U32(lanes) => IterRepr::U32(lanes.iter()),
        })
    }

    /// The register values as a fresh `Vec<u32>`.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.widen_into(&mut out);
        out
    }

    /// Replaces the contents of `out` with the widened register values
    /// (reusing its allocation).
    pub fn widen_into(&self, out: &mut Vec<u32>) {
        out.clear();
        each_width!(&self.0, lanes => out.extend(lanes.iter().map(|lane| lane.widen())))
    }

    /// Minimum register value ([`kernels::min_scan`]).
    #[inline]
    pub fn min(&self) -> u32 {
        each_width!(&self.0, lanes => kernels::min_scan(lanes))
    }

    /// Element-wise maximum with `other`, returning the minimum of the
    /// merged result and whether any register rose
    /// ([`kernels::max_merge_min`]).
    ///
    /// # Panics
    /// Panics if the arrays differ in length or lane width.
    #[inline]
    pub fn max_merge_min(&mut self, other: &Self) -> (u32, bool) {
        same_width!(&mut self.0, &other.0, (dst, src) => kernels::max_merge_min(dst, src))
    }

    /// Element-wise maximum with `other`, returning whether any
    /// register rose ([`kernels::max_merge`]).
    ///
    /// # Panics
    /// Panics if the arrays differ in length or lane width.
    #[inline]
    pub fn max_merge(&mut self, other: &Self) -> bool {
        same_width!(&mut self.0, &other.0, (dst, src) => kernels::max_merge(dst, src))
    }

    /// Counts the register values into `counts`
    /// ([`kernels::histogram_counts`]).
    ///
    /// # Panics
    /// Panics if a register value is out of range for `counts`.
    #[inline]
    pub fn histogram_into(&self, counts: &mut [u32]) {
        each_width!(&self.0, lanes => kernels::histogram_counts(lanes, counts))
    }

    /// Three-way comparison counts `(D⁺, D⁻, D₀)` against `other`
    /// ([`kernels::compare_counts`]).
    ///
    /// # Panics
    /// Panics if the arrays differ in length or lane width.
    #[inline]
    pub fn compare_counts(&self, other: &Self) -> (u32, u32, u32) {
        same_width!(&self.0, &other.0, (u, v) => kernels::compare_counts(u, v))
    }

    /// Packs the registers into `bits` bits each ([`bitpack::pack_bits`]).
    ///
    /// # Panics
    /// Panics if `bits` is outside `1..=32` or a value does not fit.
    pub fn pack_bits(&self, bits: u32) -> Vec<u8> {
        each_width!(&self.0, lanes => bitpack::pack_bits(lanes, bits))
    }

    /// Compresses the registers as offsets from their minimum plus a
    /// sparse exception list ([`bitpack::pack_offsets`]).
    pub fn pack_offsets(&self) -> Vec<u8> {
        each_width!(&self.0, lanes => bitpack::pack_offsets(lanes))
    }

    /// Runs a lane-generic update on the typed lanes.
    #[inline]
    pub fn with_lanes_mut<U: LanesMut>(&mut self, update: U) -> U::Output {
        each_width!(&mut self.0, lanes => update.run(lanes))
    }
}

/// Iterator over register values widened to `u32`
/// ([`Registers::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    U8(std::slice::Iter<'a, u8>),
    U16(std::slice::Iter<'a, u16>),
    U32(std::slice::Iter<'a, u32>),
}

impl Iterator for Iter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            IterRepr::U8(lanes) => lanes.next().map(|lane| lane.widen()),
            IterRepr::U16(lanes) => lanes.next().map(|lane| lane.widen()),
            IterRepr::U32(lanes) => lanes.next().copied(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IterRepr::U8(lanes) => lanes.size_hint(),
            IterRepr::U16(lanes) => lanes.size_hint(),
            IterRepr::U32(lanes) => lanes.size_hint(),
        }
    }

    /// Dispatches on the width once, so `sum`, `for_each` and friends
    /// run a plain slice loop.
    #[inline]
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        match self.0 {
            IterRepr::U8(lanes) => lanes.fold(init, |acc, lane| f(acc, lane.widen())),
            IterRepr::U16(lanes) => lanes.fold(init, |acc, lane| f(acc, lane.widen())),
            IterRepr::U32(lanes) => lanes.fold(init, |acc, lane| f(acc, *lane)),
        }
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Registers {
    type Item = u32;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(max_value, expected heap bytes per register)`.
    const WIDTHS: [(u32, usize); 6] = [
        (63, 1),
        (255, 1),
        (256, 2),
        (65_535, 2),
        (65_536, 4),
        (u32::MAX, 4),
    ];

    #[test]
    fn width_follows_the_value_range() {
        for (max_value, lane_bytes) in WIDTHS {
            let registers = Registers::zeroed(100, max_value);
            assert_eq!(registers.len(), 100);
            assert_eq!(registers.heap_bytes(), 100 * lane_bytes, "{max_value}");
            assert_eq!(registers.min(), 0);
            assert!(registers.iter().all(|k| k == 0));
        }
    }

    #[test]
    fn every_width_behaves_like_the_u32_vector() {
        for (max_value, _) in WIDTHS {
            let left: Vec<u32> = (0..77u32)
                .map(|i| (i * 37 + 5) % (max_value.min(500) + 1))
                .collect();
            let right: Vec<u32> = (0..77u32)
                .map(|i| (i * 91 + 2) % (max_value.min(500) + 1))
                .collect();
            let mut registers = Registers::narrowed(&left, max_value).unwrap();
            let other = Registers::narrowed(&right, max_value).unwrap();
            assert_eq!(registers.to_vec(), left);
            assert_eq!(registers.iter().collect::<Vec<_>>(), left);
            assert_eq!(registers.iter().sum::<u32>(), left.iter().sum::<u32>());
            assert_eq!(registers.get(3), left[3]);
            assert_eq!(registers.min(), *left.iter().min().unwrap());
            assert_eq!(
                registers.compare_counts(&other),
                kernels::scalar::compare_counts(&left, &right)
            );

            let mut counts = vec![0u32; 502];
            let mut expect_counts = vec![0u32; 502];
            registers.histogram_into(&mut counts);
            kernels::scalar::histogram_counts(&left, &mut expect_counts);
            assert_eq!(counts, expect_counts);

            // Both packed formats are width-independent and decode back.
            assert_eq!(registers.pack_bits(9), bitpack::pack_bits(&left, 9));
            assert_eq!(registers.pack_offsets(), bitpack::pack_offsets(&left));
            let unpacked = Registers::unpack_bits(&registers.pack_bits(9), 77, 9, max_value);
            assert_eq!(unpacked.as_ref(), Ok(&registers));
            let unpacked = Registers::unpack_offsets(&registers.pack_offsets(), 77, max_value);
            assert_eq!(unpacked.as_ref(), Ok(&registers));

            let mut expect = left.clone();
            let expect_min = kernels::scalar::max_merge_min(&mut expect, &right);
            let mut plain = registers.clone();
            assert_eq!(plain.max_merge(&other), expect_min.1);
            assert_eq!(registers.max_merge_min(&other), expect_min);
            assert_eq!(registers.to_vec(), expect);
            assert_eq!(plain, registers);

            assert!(!registers.raise(0, expect[0]));
            assert!(registers.raise(0, expect[0] + 1));
            assert_eq!(registers.get(0), expect[0] + 1);
        }
    }

    #[test]
    fn out_of_range_values_are_rejected_before_narrowing() {
        // 256 would truncate to 0 in a byte lane: it must be refused,
        // not wrapped, by every constructor that takes outside values.
        assert_eq!(Registers::narrowed(&[1, 256], 255), None);
        assert_eq!(Registers::narrowed(&[1, 64], 63), None);
        assert!(Registers::narrowed(&[1, 63], 63).is_some());
        let packed = bitpack::pack_bits(&[1u32, 256], 9);
        assert_eq!(
            Registers::unpack_bits(&packed, 2, 9, 255),
            Err(BitPackError::ValueOutOfRange)
        );
        let packed = bitpack::pack_offsets(&[1u32, 256, 7, 300]);
        assert_eq!(
            Registers::unpack_offsets(&packed, 4, 255),
            Err(BitPackError::ValueOutOfRange)
        );
        let exception = bitpack::pack_offsets(&[0u32, 0, 0, 0, 0, 0, 0, 0, 0, 1 << 20]);
        assert_eq!(
            Registers::unpack_offsets(&exception, 10, 65_535),
            Err(BitPackError::ValueOutOfRange)
        );
    }

    #[test]
    #[should_panic(expected = "equal lane width")]
    fn mixed_widths_do_not_merge() {
        let mut narrow = Registers::zeroed(8, 63);
        narrow.max_merge(&Registers::zeroed(8, 65_534));
    }

    #[test]
    fn lane_generic_updates_see_the_typed_array() {
        struct SetAll(u32);
        impl LanesMut for SetAll {
            type Output = usize;
            fn run<L: Lane>(self, lanes: &mut [L]) -> usize {
                lanes.fill(L::narrow(self.0).unwrap());
                std::mem::size_of::<L>()
            }
        }
        for (max_value, lane_bytes) in WIDTHS {
            let mut registers = Registers::zeroed(5, max_value);
            assert_eq!(registers.with_lanes_mut(SetAll(9)), lane_bytes);
            assert_eq!(registers.to_vec(), vec![9; 5]);
        }
    }
}
