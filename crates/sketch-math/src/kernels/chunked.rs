//! Auto-vectorization-friendly chunked implementations.
//!
//! Each primitive processes one 32-byte chunk — [`Lane::LANES`]
//! registers — per loop iteration over independent per-lane accumulators
//! and handles the remainder with a scalar loop. The lane loops are
//! branch-free (`max`/`min`/bool-to-int arithmetic instead of
//! compares-and-jumps), so LLVM lowers them to packed SIMD instructions
//! on x86-64 and AArch64 without any target-feature or `unsafe` code.
//!
//! The accumulators are arrays of the *lane* type: a `u32` accumulator
//! over `u8` lanes would force a widening in every iteration and
//! de-vectorize the loop. The minimum/maximum kernels need nothing more;
//! [`compare_counts`] counts in lane-width counters and flushes them into
//! `u32` totals before they can wrap (every [`Lane::MAX`] chunks).
//!
//! The histogram kernel is the exception: its scatter increment is
//! inherently serial, so the chunked form "only" splits the counting
//! across four interleaved accumulator stripes to break the
//! store-to-load dependency chain between equal adjacent values — the
//! dominant stall of a naive histogram loop on repetitive register
//! contents. The stripes live in one flat buffer sized from the caller's
//! `counts` length, so the optimization is applied exactly when the
//! bucket range is small (the `q + 2` buckets of real sketch configs).

use super::Lane;

/// Lane count of the narrowest lane type; accumulator arrays are this
/// long and a kernel uses their first [`Lane::LANES`] entries.
const MAX_LANES: usize = 32;

/// Threshold (in buckets) below which the histogram kernel uses
/// interleaved accumulator stripes; larger ranges fall back to the
/// single-stripe scalar loop to keep the working set small.
const HISTOGRAM_STRIPE_LIMIT: usize = 1 << 10;

/// Number of interleaved histogram accumulator stripes.
const STRIPES: usize = 4;

fn assert_equal_length<L>(u: &[L], v: &[L]) {
    assert_eq!(u.len(), v.len(), "register arrays must have equal length");
}

/// Minimum over the first [`Lane::LANES`] accumulators.
fn fold_min<L: Lane>(mins: &[L; MAX_LANES]) -> L {
    mins[..L::LANES].iter().copied().fold(L::MAX, L::min)
}

/// Merges `src` into `dst` by element-wise maximum and returns
/// `(min, raised)`: the minimum register value of the merged result (0
/// for empty arrays) and whether the merge raised any register.
///
/// The fused minimum makes the separate `K_low` rescan after a merge
/// unnecessary: the returned value *is* the exact new lower bound. The
/// raise answer tells a store whether the merge changed anything at
/// all; it ORs each lane's `merged ^ old` into a lane-width
/// accumulator, two branch-free vector operations per chunk.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn max_merge_min<L: Lane>(dst: &mut [L], src: &[L]) -> (u32, bool) {
    assert_equal_length(dst, src);
    if dst.is_empty() {
        return (0, false);
    }
    let mut mins = [L::MAX; MAX_LANES];
    let mut changed = [L::ZERO; MAX_LANES];
    let mut dst_chunks = dst.chunks_exact_mut(L::LANES);
    let mut src_chunks = src.chunks_exact(L::LANES);
    for (d, s) in (&mut dst_chunks).zip(&mut src_chunks) {
        for lane in 0..L::LANES {
            let merged = d[lane].max(s[lane]);
            changed[lane] = changed[lane] | (merged ^ d[lane]);
            d[lane] = merged;
            mins[lane] = mins[lane].min(merged);
        }
    }
    let mut min = fold_min(&mins);
    let mut raised = changed[..L::LANES].iter().any(|&c| c != L::ZERO);
    for (d, &s) in dst_chunks
        .into_remainder()
        .iter_mut()
        .zip(src_chunks.remainder())
    {
        raised |= s > *d;
        *d = (*d).max(s);
        min = min.min(*d);
    }
    (min.widen(), raised)
}

/// Merges `src` into `dst` by element-wise maximum and returns whether
/// any register rose — [`max_merge_min`] without the minimum, for
/// consumers with no lower bound to maintain (HyperMinHash, GHLL
/// without `K_low` tracking).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn max_merge<L: Lane>(dst: &mut [L], src: &[L]) -> bool {
    max_merge_min(dst, src).1
}

/// Minimum register value of `values` (0 for an empty slice).
pub fn min_scan<L: Lane>(values: &[L]) -> u32 {
    if values.is_empty() {
        return 0;
    }
    let mut mins = [L::MAX; MAX_LANES];
    let mut chunks = values.chunks_exact(L::LANES);
    for chunk in &mut chunks {
        for lane in 0..L::LANES {
            mins[lane] = mins[lane].min(chunk[lane]);
        }
    }
    let mut min = fold_min(&mins);
    for &v in chunks.remainder() {
        min = min.min(v);
    }
    min.widen()
}

/// Bucket capacity of the stack-allocated stripe buffer; ranges between
/// this and [`HISTOGRAM_STRIPE_LIMIT`] fall back to a heap buffer.
const STACK_STRIPE_BUCKETS: usize = 256;

/// Counts register values into `counts`: afterwards `counts[k]` is the
/// number of entries of `values` equal to `k`. The buffer is zeroed
/// first; its length must cover every occurring value (`q + 2` buckets
/// for a sketch with registers in `0..=q+1`, so `counts[0] = C_0` and
/// `counts[q + 1] = C_{q+1}`).
///
/// # Panics
/// Panics if a value of `values` is out of range for `counts`.
pub fn histogram_counts<L: Lane>(values: &[L], counts: &mut [u32]) {
    if counts.len() > HISTOGRAM_STRIPE_LIMIT || values.len() < 4 * STRIPES {
        counts.fill(0);
        for &v in values {
            counts[v.widen() as usize] += 1;
        }
        return;
    }
    if counts.len() <= STACK_STRIPE_BUCKETS {
        // The common case (q = 62 → 64 buckets) stays allocation-free:
        // merge and deserialize rebuild histograms through this path.
        let mut stripes = [0u32; STRIPES * STACK_STRIPE_BUCKETS];
        striped_counts(values, counts, &mut stripes[..STRIPES * counts.len()]);
    } else {
        let mut stripes = vec![0u32; STRIPES * counts.len()];
        striped_counts(values, counts, &mut stripes);
    }
}

/// Counts `values` into `counts` using four interleaved accumulator
/// stripes (`stripes.len() == 4 * counts.len()`, zeroed).
fn striped_counts<L: Lane>(values: &[L], counts: &mut [u32], stripes: &mut [u32]) {
    let buckets = counts.len();
    let (s0, rest) = stripes.split_at_mut(buckets);
    let (s1, rest) = rest.split_at_mut(buckets);
    let (s2, s3) = rest.split_at_mut(buckets);
    let mut chunks = values.chunks_exact(STRIPES);
    for chunk in &mut chunks {
        // Four independent counter arrays: equal adjacent register values
        // hit different cache lines' counters, so the increments pipeline
        // instead of serializing on store-to-load forwarding.
        s0[chunk[0].widen() as usize] += 1;
        s1[chunk[1].widen() as usize] += 1;
        s2[chunk[2].widen() as usize] += 1;
        s3[chunk[3].widen() as usize] += 1;
    }
    for &v in chunks.remainder() {
        s0[v.widen() as usize] += 1;
    }
    for (k, count) in counts.iter_mut().enumerate() {
        *count = s0[k] + s1[k] + s2[k] + s3[k];
    }
}

/// Three-way register comparison `(D⁺, D⁻, D₀)`: the number of positions
/// where `u` exceeds, trails, or equals `v` (paper §3.2/§4.1).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn compare_counts<L: Lane>(u: &[L], v: &[L]) -> (u32, u32, u32) {
    assert_equal_length(u, v);
    // A lane-width counter takes at most `L::MAX` increments before it
    // would wrap, so the arrays are walked in blocks of that many chunks
    // and the counters flushed into the `u32` totals after each block.
    let block = L::LANES.saturating_mul(L::MAX.widen() as usize);
    let mut d_plus = 0u32;
    let mut d_minus = 0u32;
    for (u_block, v_block) in u.chunks(block).zip(v.chunks(block)) {
        let mut plus = [L::ZERO; MAX_LANES];
        let mut minus = [L::ZERO; MAX_LANES];
        let mut u_chunks = u_block.chunks_exact(L::LANES);
        let mut v_chunks = v_block.chunks_exact(L::LANES);
        for (a, b) in (&mut u_chunks).zip(&mut v_chunks) {
            for lane in 0..L::LANES {
                plus[lane] = plus[lane].wrapping_count(a[lane] > b[lane]);
                minus[lane] = minus[lane].wrapping_count(a[lane] < b[lane]);
            }
        }
        d_plus += plus[..L::LANES].iter().map(|c| c.widen()).sum::<u32>();
        d_minus += minus[..L::LANES].iter().map(|c| c.widen()).sum::<u32>();
        for (&a, &b) in u_chunks.remainder().iter().zip(v_chunks.remainder()) {
            d_plus += (a > b) as u32;
            d_minus += (a < b) as u32;
        }
    }
    (d_plus, d_minus, u.len() as u32 - d_plus - d_minus)
}
