//! Per-site fence-strength overrides and synthesis search statistics.
//!
//! A [`SiteMask`] covers a contiguous range of *static fence sites*
//! (raw `u32` ids; the cpu crate wraps them in its `FenceSite` newtype)
//! and says, bit by bit, which of them are weak. When a machine config
//! carries a mask, the core consults it at fence dispatch **before** the
//! design's role rule; sites outside the range — and every anonymous
//! site — fall through to the role rule, so an absent mask reproduces
//! the role-only behaviour bit for bit.
//!
//! A mask is plain `Copy` data, so it also serves as the synthesis
//! engine's memo key for scoring runs.
//!
//! # Examples
//!
//! ```
//! use asymfence_common::assign::SiteMask;
//!
//! let m = SiteMask::hand(3, 0b101);
//! assert_eq!(m.weak_at(0), Some(true));
//! assert_eq!(m.weak_at(1), Some(false));
//! assert_eq!(m.weak_at(9), None, "uncovered sites use the role rule");
//! ```

/// First site id reserved for *synthetic* fence sites — program points
/// the analyzer invents when inferring a placement. Hand-annotated
/// kernels number their sites from 0, so the two ranges never collide:
/// a hand mask and a synthetic mask never cover the same site.
pub const SYNTHETIC_BASE: u32 = 0x8000_0000;

/// The `i`-th synthetic site id ([`SYNTHETIC_BASE`]` + i`).
///
/// # Panics
///
/// Panics if the id would wrap past `u32::MAX` (which the cpu crate
/// reserves for anonymous fences).
pub const fn synthetic_site(i: u32) -> u32 {
    assert!(i < u32::MAX - SYNTHETIC_BASE, "synthetic site id overflow");
    SYNTHETIC_BASE + i
}

/// Whether `site` is in the synthetic (analyzer-placed) range.
pub const fn is_synthetic(site: u32) -> bool {
    site >= SYNTHETIC_BASE && site != u32::MAX
}

/// A per-site fence-strength override as plain `Copy` data: bit `i` of
/// `weak` makes site `base + i` weak (wf), a clear bit keeps it strong
/// (sf). Hand-annotated benchmarks number their sites contiguously from
/// 0 ([`SiteMask::hand`]); analyzer placements use the synthetic id
/// range ([`SiteMask::synthetic`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiteMask {
    /// Number of fence sites covered by the mask (at most 64).
    pub n_sites: u32,
    /// Bit `i` set ⇒ site `base + i` resolves to the design's weak fence.
    pub weak: u64,
    /// First site id the mask covers.
    pub base: u32,
}

impl SiteMask {
    /// A mask over the hand-annotated site range `0..n_sites`.
    ///
    /// # Panics
    ///
    /// Panics if `n_sites` exceeds 64.
    pub fn hand(n_sites: u32, weak: u64) -> Self {
        assert!(n_sites <= 64, "a mask covers at most 64 sites");
        SiteMask {
            n_sites,
            weak,
            base: 0,
        }
    }

    /// A mask over the analyzer's synthetic site range
    /// (`SYNTHETIC_BASE..SYNTHETIC_BASE + n_sites`).
    ///
    /// # Panics
    ///
    /// Panics if `n_sites` exceeds 64.
    pub fn synthetic(n_sites: u32, weak: u64) -> Self {
        SiteMask {
            base: SYNTHETIC_BASE,
            ..SiteMask::hand(n_sites, weak)
        }
    }

    /// Whether `site` is weak (`Some(true)`) or strong (`Some(false)`)
    /// under the mask, or `None` when the mask does not cover it.
    pub fn weak_at(self, site: u32) -> Option<bool> {
        let i = site.wrapping_sub(self.base);
        (i < self.n_sites).then(|| (self.weak >> i) & 1 != 0)
    }

    /// The mask itself. Kept only for the benchmark package, which
    /// still calls it; drop it with the next change to the benchmark.
    pub fn to_assignment(self) -> SiteMask {
        self
    }
}

/// Counters describing one synthesis search (per workload × design).
///
/// Merged across parallel evaluation batches; all fields are
/// order-independent sums, so reports are identical at any worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidate assignments enumerated.
    pub enumerated: u64,
    /// Candidates rejected by the design's structural constraint.
    pub pruned: u64,
    /// Candidates the SC oracle rejected under some perturbation seed.
    pub oracle_rejected: u64,
    /// Candidates that passed the oracle and were scored.
    pub valid: u64,
    /// Evaluations answered from the score memo.
    pub memo_hits: u64,
    /// Serial-equivalent simulator runs charged (oracle + scoring).
    pub runs: u64,
}

impl SearchStats {
    /// Accumulates another batch of counters.
    pub fn merge(&mut self, other: &SearchStats) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        self.oracle_rejected += other.oracle_rejected;
        self.valid += other.valid;
        self.memo_hits += other.memo_hits;
        self.runs += other.runs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_at_covers_the_mask_range_at_both_bases() {
        for (m, base) in [
            (SiteMask::hand(3, 0b101), 0),
            (SiteMask::synthetic(3, 0b101), SYNTHETIC_BASE),
        ] {
            assert_eq!(m.base, base);
            assert_eq!(m.weak_at(base), Some(true));
            assert_eq!(m.weak_at(base + 1), Some(false));
            assert_eq!(m.weak_at(base + 2), Some(true));
            assert_eq!(m.weak_at(base + 3), None, "past the range");
            assert_eq!(m.weak_at(base.wrapping_sub(1)), None, "below the range");
        }
        assert_eq!(SiteMask::hand(3, 0b111).weak_at(SYNTHETIC_BASE), None);
        assert_eq!(SiteMask::synthetic(3, 0b111).weak_at(0), None);
        assert_eq!(SiteMask::synthetic(3, 0b111).weak_at(u32::MAX), None);
        let wide = SiteMask::hand(64, 1 << 63);
        assert_eq!(wide.weak_at(63), Some(true));
        assert_eq!(wide.weak_at(62), Some(false));
        assert_eq!(wide.weak_at(64), None);
    }

    #[test]
    #[should_panic(expected = "at most 64 sites")]
    fn masks_cover_at_most_64_sites() {
        SiteMask::synthetic(65, 0);
    }

    #[test]
    fn synthetic_ids_are_disjoint_from_hand_sites() {
        assert!(is_synthetic(synthetic_site(0)));
        assert!(is_synthetic(synthetic_site(15)));
        assert!(!is_synthetic(0));
        assert!(!is_synthetic(63));
        assert!(!is_synthetic(u32::MAX), "anonymous site is not synthetic");
        assert_eq!(synthetic_site(3), SYNTHETIC_BASE + 3);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = SearchStats {
            enumerated: 4,
            pruned: 1,
            oracle_rejected: 1,
            valid: 2,
            memo_hits: 0,
            runs: 20,
        };
        let b = SearchStats {
            enumerated: 2,
            pruned: 0,
            oracle_rejected: 0,
            valid: 2,
            memo_hits: 1,
            runs: 8,
        };
        a.merge(&b);
        assert_eq!(a.enumerated, 6);
        assert_eq!(a.valid, 4);
        assert_eq!(a.runs, 28);
        assert_eq!(a.memo_hits, 1);
    }
}
