//! Scalar reference implementations of the register kernels.
//!
//! These are the semantics ground truth: one plain loop per primitive,
//! over `u32`, written for clarity rather than speed. Property tests pin
//! the [`chunked`](super::chunked) kernels at every lane width against
//! these, and the `register_kernels` benchmark reports the speedup of the
//! vectorized forms relative to them.

/// Element-wise maximum of `src` into `dst`; returns the minimum of the
/// merged result (0 when empty) and whether any register rose. See
/// [`super::max_merge_min`].
pub fn max_merge_min(dst: &mut [u32], src: &[u32]) -> (u32, bool) {
    let raised = max_merge(dst, src);
    (dst.iter().copied().min().unwrap_or(0), raised)
}

/// Element-wise maximum of `src` into `dst` without the minimum scan;
/// returns whether any register rose. See [`super::max_merge`].
pub fn max_merge(dst: &mut [u32], src: &[u32]) -> bool {
    assert_eq!(
        dst.len(),
        src.len(),
        "register arrays must have equal length"
    );
    let mut raised = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s > *d {
            *d = s;
            raised = true;
        }
    }
    raised
}

/// Minimum register value (0 when empty). See [`super::min_scan`].
pub fn min_scan(values: &[u32]) -> u32 {
    values.iter().copied().min().unwrap_or(0)
}

/// Register value histogram. See [`super::histogram_counts`].
pub fn histogram_counts(values: &[u32], counts: &mut [u32]) {
    counts.fill(0);
    for &v in values {
        counts[v as usize] += 1;
    }
}

/// Three-way comparison counts `(D⁺, D⁻, D₀)`. See
/// [`super::compare_counts`].
pub fn compare_counts(u: &[u32], v: &[u32]) -> (u32, u32, u32) {
    assert_eq!(u.len(), v.len(), "register arrays must have equal length");
    let mut d_plus = 0u32;
    let mut d_minus = 0u32;
    let mut d0 = 0u32;
    for (&a, &b) in u.iter().zip(v) {
        match a.cmp(&b) {
            std::cmp::Ordering::Greater => d_plus += 1,
            std::cmp::Ordering::Less => d_minus += 1,
            std::cmp::Ordering::Equal => d0 += 1,
        }
    }
    (d_plus, d_minus, d0)
}
