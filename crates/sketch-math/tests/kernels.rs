//! Property tests pinning the vectorized register kernels to the scalar
//! `u32` reference implementation — at every lane width.
//!
//! The observable behavior of the chunked kernels must be bit-identical
//! to the scalar loops for arbitrary register contents, in particular
//! for lengths that are not multiples of the chunk width (where the tail
//! handling lives) and for lengths beyond what a lane-width counter can
//! hold (where `compare_counts` must have flushed).

use proptest::prelude::*;
use sketch_math::kernels::{self, scalar, Lane};

/// Register-like values: small enough for histogram buckets and every
/// lane type, with ties made likely so all three comparison branches are
/// exercised.
fn registers(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..64, 0..max_len)
}

/// Two register arrays cut to a common length.
fn register_pairs(max_len: usize) -> impl Strategy<Value = (Vec<u32>, Vec<u32>)> {
    (registers(max_len), registers(max_len)).prop_map(|(mut u, mut v)| {
        let len = u.len().min(v.len());
        u.truncate(len);
        v.truncate(len);
        (u, v)
    })
}

fn narrowed<L: Lane>(values: &[u32]) -> Vec<L> {
    values
        .iter()
        .map(|&v| L::narrow(v).expect("test values fit every lane"))
        .collect()
}

fn widened<L: Lane>(values: &[L]) -> Vec<u32> {
    values.iter().map(|v| v.widen()).collect()
}

/// Runs a lane-generic check at all three widths.
macro_rules! at_every_width {
    ($check:ident($($arg:expr),*)) => {{
        $check::<u8>($($arg),*)?;
        $check::<u16>($($arg),*)?;
        $check::<u32>($($arg),*)?;
    }};
}

fn merge_matches<L: Lane>(u: &[u32], v: &[u32]) -> Result<(), TestCaseError> {
    let mut expect = u.to_vec();
    let expect_min = scalar::max_merge_min(&mut expect, v);
    let lanes_v = narrowed::<L>(v);
    // The plain (no fused minimum) variants produce the same merge.
    let mut plain = narrowed::<L>(u);
    prop_assert_eq!(kernels::max_merge(&mut plain, &lanes_v), expect_min.1);
    prop_assert_eq!(&widened(&plain), &expect);
    let mut plain_scalar = u.to_vec();
    prop_assert_eq!(scalar::max_merge(&mut plain_scalar, v), expect_min.1);
    prop_assert_eq!(&plain_scalar, &expect);
    let mut merged = narrowed::<L>(u);
    let got_min = kernels::max_merge_min(&mut merged, &lanes_v);
    prop_assert_eq!(&widened(&merged), &expect);
    prop_assert_eq!(got_min, expect_min);
    // The fused minimum is the real minimum of the merged output, and
    // the merge raised a register iff `v` exceeded `u` somewhere.
    prop_assert_eq!(got_min.0, expect.iter().copied().min().unwrap_or(0));
    prop_assert_eq!(got_min.1, u.iter().zip(v).any(|(a, b)| b > a));
    Ok(())
}

fn min_matches<L: Lane>(values: &[u32]) -> Result<(), TestCaseError> {
    let lanes = narrowed::<L>(values);
    prop_assert_eq!(kernels::min_scan(&lanes), scalar::min_scan(values));
    Ok(())
}

fn histogram_matches<L: Lane>(values: &[u32]) -> Result<(), TestCaseError> {
    let lanes = narrowed::<L>(values);
    let mut expect = vec![0u32; 64];
    scalar::histogram_counts(values, &mut expect);
    // A dirty output buffer: the kernel must zero it.
    let mut got = vec![u32::MAX; 64];
    kernels::histogram_counts(&lanes, &mut got);
    prop_assert_eq!(&got, &expect);
    Ok(())
}

fn compare_matches<L: Lane>(u: &[u32], v: &[u32]) -> Result<(), TestCaseError> {
    let (lanes_u, lanes_v) = (narrowed::<L>(u), narrowed::<L>(v));
    let expect = scalar::compare_counts(u, v);
    let got = kernels::compare_counts(&lanes_u, &lanes_v);
    prop_assert_eq!(got, expect);
    let (d_plus, d_minus, d0) = got;
    prop_assert_eq!(d_plus + d_minus + d0, u.len() as u32);
    Ok(())
}

proptest! {
    /// The merge kernels match the scalar merge and return the exact
    /// post-merge minimum for arbitrary lengths.
    #[test]
    fn max_merge_min_matches_scalar((u, v) in register_pairs(200)) {
        at_every_width!(merge_matches(&u, &v));
    }

    /// Minimum scans agree for arbitrary contents and lengths.
    #[test]
    fn min_scan_matches_scalar(values in registers(300)) {
        at_every_width!(min_matches(&values));
    }

    /// Histogram counting agrees bucket-for-bucket.
    #[test]
    fn histogram_matches_scalar(values in registers(300)) {
        at_every_width!(histogram_matches(&values));
    }

    /// Three-way comparison counts agree and always sum to the length.
    #[test]
    fn compare_counts_matches_scalar((u, v) in register_pairs(300)) {
        at_every_width!(compare_matches(&u, &v));
    }

    /// `JointCounts::from_u32` (the kernel-backed fast path) equals the
    /// generic `from_registers`.
    #[test]
    fn joint_counts_fast_path_matches_generic((u, v) in register_pairs(300)) {
        let generic = sketch_math::JointCounts::from_registers(&u, &v);
        let fast = sketch_math::JointCounts::from_u32(&u, &v);
        prop_assert_eq!(fast, generic);
    }
}

/// Around the flush boundary of the byte and two-byte lanes — a
/// lane-width counter holds `Lane::MAX` increments, so one element past
/// that many chunks starts a second block and one whole chunk past it
/// is the first to wrap an unflushed counter — and one plain long array.
const OVERFLOW_LENGTHS: [usize; 5] = [
    255 * 32 + 1,
    256 * 32,
    65_535 * 16 + 1,
    65_536 * 16,
    100_000,
];

fn counts_survive_long_arrays<L: Lane>() {
    for len in OVERFLOW_LENGTHS {
        let high = vec![L::narrow(9).unwrap(); len];
        let low = vec![L::narrow(4).unwrap(); len];
        let len = len as u32;
        // Every lane counter is incremented in every chunk: a counter
        // that is never flushed wraps and these totals come out short.
        assert_eq!(kernels::compare_counts(&high, &low), (len, 0, 0));
        assert_eq!(kernels::compare_counts(&low, &high), (0, len, 0));
        assert_eq!(kernels::compare_counts(&high, &high), (0, 0, len));

        // The other kernels carry no counters, but the same lengths pin
        // their chunk/tail split far from the proptested range.
        assert_eq!(kernels::min_scan(&high), 9);
        let mut merged = low.clone();
        assert_eq!(kernels::max_merge_min(&mut merged, &high), (9, true));
        assert_eq!(merged, high);
        let mut merged = low.clone();
        assert!(kernels::max_merge(&mut merged, &high));
        assert_eq!(merged, high);
        let mut counts = [0u32; 16];
        kernels::histogram_counts(&high, &mut counts);
        assert_eq!(counts[9], len);
        assert_eq!(counts.iter().sum::<u32>(), len);
    }
}

#[test]
fn lane_width_counters_are_flushed_before_they_wrap() {
    counts_survive_long_arrays::<u8>();
    counts_survive_long_arrays::<u16>();
    counts_survive_long_arrays::<u32>();
}
