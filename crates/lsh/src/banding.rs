//! Band/row auto-tuning from a per-register collision probability.
//!
//! Banding turns a per-register collision probability `p` into a
//! candidate probability `1 − (1 − p^rows)^bands` (the S-curve). For a
//! target similarity threshold, the tuner picks the *most selective*
//! banding — maximum rows per band — that still clears a recall target
//! at that threshold, so the downstream verification stage sees as few
//! false candidates as possible while true positives keep their recall
//! guarantee. The `p` input comes from the sketch family's locality
//! analysis (`sketch_core::Sketch::register_collision_probability`,
//! e.g. SetSketch's §3.3 bounds).

use crate::index::collision_curve;

/// A banding layout: `bands` bands of `rows` registers each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Banding {
    /// Number of bands (hash tables).
    pub bands: usize,
    /// Registers hashed per band.
    pub rows: usize,
}

impl Banding {
    /// Creates an explicit banding layout.
    ///
    /// Most callers let [`tune`](Self::tune) derive the layout from the
    /// sketch family's collision probability; an explicit layout is for
    /// overriding the tuner (e.g. through a query-options struct) when
    /// the operating point is known from offline analysis. Use
    /// [`recall_at`](Self::recall_at) to check what recall a hand-picked
    /// layout delivers at a given collision probability.
    ///
    /// # Panics
    /// Panics if `bands` or `rows` is zero.
    pub fn new(bands: usize, rows: usize) -> Self {
        assert!(bands > 0 && rows > 0, "banding needs bands, rows >= 1");
        Banding { bands, rows }
    }

    /// Registers consumed by this banding (`bands * rows`).
    #[inline]
    pub fn registers(&self) -> usize {
        self.bands * self.rows
    }

    /// Candidate probability of this banding at per-register collision
    /// probability `p`.
    pub fn recall_at(&self, p: f64) -> f64 {
        collision_curve(p, self.bands, self.rows)
    }

    /// Picks the most selective banding over at most `m` registers that
    /// reaches `target_recall` when each register collides independently
    /// with probability `p` (the sketch family's collision probability
    /// at the similarity threshold of interest).
    ///
    /// Rows are maximized — each extra row per band multiplies the
    /// false-candidate rate by roughly `p_background < 1` — subject to
    /// `collision_curve(p, m / rows, rows) ≥ target_recall`. Returns
    /// `None` when even the most permissive banding (1 row, m bands)
    /// misses the target; callers should then skip LSH pruning and fall
    /// back to an exhaustive sweep. This happens exactly when the
    /// threshold carries no locality signal (e.g. threshold 0, where
    /// *every* pair must be reported).
    pub fn tune(m: usize, p: f64, target_recall: f64) -> Option<Banding> {
        if m == 0 || !(0.0..=1.0).contains(&p) {
            return None;
        }
        for rows in (1..=m).rev() {
            let banding = Banding {
                bands: m / rows,
                rows,
            };
            if banding.recall_at(p) >= target_recall {
                return Some(banding);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_maximizes_rows_under_recall() {
        // p = 0.5 over 256 registers: 4 rows x 64 bands reaches 98 %
        // (1 - (1 - 0.0625)^64 ≈ 0.984), 5 rows does not.
        let banding = Banding::tune(256, 0.5, 0.98).expect("tunable");
        assert_eq!(banding, Banding { bands: 64, rows: 4 });
        assert!(banding.recall_at(0.5) >= 0.98);
        let five = Banding { bands: 51, rows: 5 };
        assert!(five.recall_at(0.5) < 0.98);
    }

    #[test]
    fn tune_uses_at_most_m_registers() {
        for &(m, p) in &[(7usize, 0.4f64), (64, 0.9), (100, 0.2), (4096, 0.6)] {
            if let Some(banding) = Banding::tune(m, p, 0.95) {
                assert!(banding.registers() <= m, "m={m} p={p}: {banding:?}");
                assert!(banding.recall_at(p) >= 0.95);
            }
        }
    }

    #[test]
    fn tune_falls_back_to_none_without_signal() {
        // Threshold 0 (p = 0): no banding can reach any positive recall.
        assert_eq!(Banding::tune(256, 0.0, 0.95), None);
        // Tiny p on few registers: still unreachable.
        assert_eq!(Banding::tune(4, 0.01, 0.95), None);
        // Degenerate inputs.
        assert_eq!(Banding::tune(0, 0.5, 0.95), None);
        assert_eq!(Banding::tune(256, f64::NAN, 0.95), None);
    }

    #[test]
    fn higher_p_allows_more_rows() {
        let lo = Banding::tune(1024, 0.3, 0.95).expect("tunable");
        let hi = Banding::tune(1024, 0.8, 0.95).expect("tunable");
        assert!(hi.rows > lo.rows, "lo {lo:?} hi {hi:?}");
    }

    #[test]
    fn perfect_collision_saturates() {
        let banding = Banding::tune(64, 1.0, 0.999).expect("tunable");
        assert_eq!(banding, Banding { bands: 1, rows: 64 });
    }
}
