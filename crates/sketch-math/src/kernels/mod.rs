//! Vectorization-friendly register-plane kernels.
//!
//! Every scan-heavy hot path of the workspace's sketches reduces to one of
//! five primitives over register arrays of any [`Lane`] width — `u8`,
//! `u16` or `u32`, whichever the sketch's value range `0..=q+1` needs
//! (see [`Registers`](crate::Registers)):
//!
//! * [`max_merge_min`] — element-wise maximum of two register arrays (the
//!   union merge of every max-based sketch), fused with a minimum scan of
//!   the result so the merged sketch's `K_low` lower bound comes out of
//!   the same pass instead of a separate rescan, and with whether any
//!   register rose (if none did, the merge changed nothing);
//! * [`max_merge`] — the same merge and answer for consumers with no
//!   lower bound to maintain;
//! * [`min_scan`] — minimum register value (the `K_low` rescan of paper
//!   §2.2);
//! * [`histogram_counts`] — the full register value histogram
//!   (`C_0`, the bucketed interior counts, and `C_{q+1}`) in one pass,
//!   feeding the corrected cardinality estimator (18) and the incremental
//!   estimator state kept by `SetSketch`;
//! * [`compare_counts`] — the three-way `D⁺`/`D⁻`/`D₀` register
//!   comparison of the joint estimator (paper §3.2).
//!
//! Each primitive exists in two semantically identical implementations:
//! a plain [`scalar`] reference over `u32`, and the [`chunked`] variant
//! re-exported at this level, which processes one 32-byte chunk —
//! [`Lane::LANES`] registers: 32 `u8`s, 16 `u16`s or 8 `u32`s — per loop
//! iteration with a scalar tail. The chunked form is written so LLVM's
//! auto-vectorizer turns the lane loop into SIMD on every target with
//! 128/256-bit vectors — no target features, no `unsafe` — and a narrow
//! lane puts 4× (2×) the registers into every vector.

pub mod chunked;
pub mod scalar;

pub use chunked::{compare_counts, histogram_counts, max_merge, max_merge_min, min_scan};

mod sealed {
    pub trait Sealed {}
}

/// An unsigned register integer the kernels run on: `u8`, `u16` or
/// `u32`. Sealed — the lane widths are a closed set chosen by
/// [`Registers`](crate::Registers) from a sketch's value range.
pub trait Lane:
    Copy
    + Ord
    + std::fmt::Debug
    + std::ops::BitOr<Output = Self>
    + std::ops::BitXor<Output = Self>
    + sealed::Sealed
    + 'static
{
    /// Registers per 32-byte chunk of the [`chunked`] kernels (one AVX2
    /// vector, two NEON/SSE vectors).
    const LANES: usize = 32 / std::mem::size_of::<Self>();
    /// The largest lane value.
    const MAX: Self;
    /// The zero lane value.
    const ZERO: Self;

    /// The value as a `u32` (lossless).
    fn widen(self) -> u32;

    /// The `u32` as a lane value, `None` when it does not fit.
    fn narrow(value: u32) -> Option<Self>;

    /// The low bits of `value` as a lane value — the branch-free
    /// narrowing of a value already known to fit.
    fn truncate(value: u32) -> Self;

    /// `self + 1` when `condition` holds, wrapping at [`MAX`](Self::MAX) —
    /// the branch-free counter step of [`compare_counts`].
    fn wrapping_count(self, condition: bool) -> Self;
}

macro_rules! impl_lane {
    ($($lane:ty),*) => {$(
        impl sealed::Sealed for $lane {}

        impl Lane for $lane {
            const MAX: Self = <$lane>::MAX;
            const ZERO: Self = 0;

            #[inline]
            fn widen(self) -> u32 {
                u32::from(self)
            }

            #[inline]
            fn narrow(value: u32) -> Option<Self> {
                <$lane>::try_from(value).ok()
            }

            #[inline]
            fn truncate(value: u32) -> Self {
                value as $lane
            }

            #[inline]
            fn wrapping_count(self, condition: bool) -> Self {
                self.wrapping_add(condition as $lane)
            }
        }
    )*};
}

impl_lane!(u8, u16, u32);

/// Folds a `q + 2`-bucket register value histogram (as produced by
/// [`histogram_counts`]) into the corrected estimator's inputs
/// `(C_0, Σ_{0<k<q+1} C_k b^{-k}, C_{q+1})`, with one power-table lookup
/// per *occupied* interior bucket.
///
/// # Panics
/// Panics if `counts` has fewer than two buckets or the table does not
/// cover its range.
pub fn fold_histogram(
    counts: &[u32],
    table: &crate::power_table::PowerTable,
) -> (usize, f64, usize) {
    let limit = counts.len() - 1;
    let mut sum = 0.0f64;
    for (k, &count) in counts[1..limit].iter().enumerate() {
        if count > 0 {
            sum += count as f64 * table.pow_neg(k as u32 + 1);
        }
    }
    (counts[0] as usize, sum, counts[limit] as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, modulus: u32) -> Vec<u32> {
        // Deterministic pseudo-random register contents.
        (0..len as u64)
            .map(|i| {
                let x = i
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(17)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (x % modulus as u64) as u32
            })
            .collect()
    }

    fn narrowed<L: Lane>(values: &[u32]) -> Vec<L> {
        values
            .iter()
            .map(|&v| L::narrow(v).expect("sample fits every lane"))
            .collect()
    }

    fn widened<L: Lane>(values: &[L]) -> Vec<u32> {
        values.iter().map(|v| v.widen()).collect()
    }

    /// Every chunked kernel at lane width `L` against the scalar `u32`
    /// reference.
    fn agree_at_width<L: Lane>() {
        // Cover the empty slice, sub-lane lengths, exact multiples of the
        // lane count, and lengths with every possible tail size.
        for len in (0..=2 * L::LANES + 1).chain([64, 255, 256, 1000]) {
            let u = sample(len, 23);
            let v = sample(len.wrapping_mul(7) % 1001, 23);
            let v = {
                let mut v = v;
                v.resize(len, 3);
                v
            };
            let (lanes_u, lanes_v) = (narrowed::<L>(&u), narrowed::<L>(&v));

            assert_eq!(
                scalar::min_scan(&u),
                chunked::min_scan(&lanes_u),
                "len {len}"
            );

            let mut dst_scalar = u.clone();
            let mut dst_chunked = lanes_u.clone();
            let min_scalar = scalar::max_merge_min(&mut dst_scalar, &v);
            let min_chunked = chunked::max_merge_min(&mut dst_chunked, &lanes_v);
            assert_eq!(dst_scalar, widened(&dst_chunked), "len {len}");
            assert_eq!(min_scalar, min_chunked, "len {len}");

            let mut plain_scalar = u.clone();
            let mut plain_chunked = lanes_u.clone();
            assert_eq!(scalar::max_merge(&mut plain_scalar, &v), min_scalar.1);
            assert_eq!(min_scalar.1, u.iter().zip(&v).any(|(a, b)| b > a));
            assert_eq!(
                chunked::max_merge(&mut plain_chunked, &lanes_v),
                min_scalar.1
            );
            assert_eq!(plain_scalar, dst_scalar, "len {len}");
            assert_eq!(widened(&plain_chunked), dst_scalar, "len {len}");

            assert_eq!(
                scalar::compare_counts(&u, &v),
                chunked::compare_counts(&lanes_u, &lanes_v),
                "len {len}"
            );

            let mut counts_scalar = vec![0u32; 23];
            let mut counts_chunked = vec![u32::MAX; 23]; // must be zeroed
            scalar::histogram_counts(&u, &mut counts_scalar);
            chunked::histogram_counts(&lanes_u, &mut counts_chunked);
            assert_eq!(counts_scalar, counts_chunked, "len {len}");
        }
    }

    #[test]
    fn implementations_agree_on_representative_lengths() {
        agree_at_width::<u8>();
        agree_at_width::<u16>();
        agree_at_width::<u32>();
    }

    #[test]
    fn max_merge_min_merges_and_returns_minimum() {
        let mut dst = vec![3u32, 0, 7, 2];
        let src = vec![1u32, 5, 6, 2];
        let (min, raised) = max_merge_min(&mut dst, &src);
        assert_eq!(dst, vec![3, 5, 7, 2]);
        assert_eq!((min, raised), (2, true));
        assert_eq!(
            max_merge_min(&mut dst, &src),
            (2, false),
            "a repeat raises nothing"
        );
    }

    #[test]
    fn empty_slices_are_handled() {
        assert_eq!(max_merge_min::<u8>(&mut [], &[]), (0, false));
        assert_eq!(min_scan::<u16>(&[]), 0);
        assert_eq!(compare_counts::<u32>(&[], &[]), (0, 0, 0));
        let mut counts = [7u32; 4];
        histogram_counts::<u8>(&[], &mut counts);
        assert_eq!(counts, [0; 4]);
    }

    #[test]
    fn compare_counts_matches_manual() {
        let u = [5u32, 3, 7, 7, 1];
        let v = [4u32, 3, 9, 7, 2];
        assert_eq!(compare_counts(&u, &v), (1, 2, 2));
    }

    #[test]
    fn histogram_counts_sums_to_length() {
        let values = sample(777, 16);
        let mut counts = vec![0u32; 16];
        histogram_counts(&values, &mut counts);
        assert_eq!(counts.iter().sum::<u32>(), 777);
        for (k, &c) in counts.iter().enumerate() {
            let expect = values.iter().filter(|&&x| x == k as u32).count() as u32;
            assert_eq!(c, expect, "bucket {k}");
        }
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn max_merge_min_rejects_length_mismatch() {
        max_merge_min(&mut [1u8, 2], &[1]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn compare_counts_rejects_length_mismatch() {
        compare_counts(&[1u16], &[1, 2]);
    }
}
