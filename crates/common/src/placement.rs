//! Inferred fence placements: *where* fences go, not just how strong.
//!
//! The analyzer (crate `asymfence-analyze`) recovers store→load delay
//! windows from an unannotated program and condenses them into a
//! [`Placement`]: one [`PlacedFence`] per program point that must carry
//! a fence, each owning the set of *trigger* store lines whose delayed
//! write-backs it cuts. The simulator side consumes the compact
//! [`PlacementSpec`] (plain `Copy` data, embeddable in a `RunSpec`),
//! while the synthesis side reads the rich per-site footprints to build
//! conflict groups exactly as it does for hand-annotated sites.
//!
//! Placed sites use *synthetic* ids from [`assign::SYNTHETIC_BASE`]
//! upward so they can never collide with hand-annotated `FenceSite`
//! numbering.
//!
//! [`assign::SYNTHETIC_BASE`]: crate::assign::SYNTHETIC_BASE
//!
//! # Examples
//!
//! ```
//! use asymfence_common::placement::{PlacedFence, Placement};
//! use asymfence_common::assign::synthetic_site;
//!
//! let p = Placement {
//!     fences: vec![PlacedFence {
//!         site: synthetic_site(0),
//!         thread: 0,
//!         label: "t0@0x40".to_string(),
//!         load_line: 1,
//!         triggers: vec![0],
//!         pre_writes: vec![],
//!         post_reads: vec![],
//!     }],
//!     line_bytes: 64,
//! };
//! let spec = p.spec();
//! assert_eq!(spec.len(), 1);
//! assert_eq!(p.site_ids(), vec![synthetic_site(0)]);
//! ```

use crate::ids::Addr;

/// Maximum store→load window patterns a [`PlacementSpec`] can carry.
///
/// Generous relative to the five study kernels (the largest, bakery at
/// three threads, needs well under half); the analyzer asserts against
/// it so an overflowing program fails loudly instead of truncating.
pub const MAX_PLACED: usize = 48;

/// One store→load window pattern a placed fence must cut: thread
/// `thread` stores to `store_line` and later loads from `load_line`
/// with no intervening fence. Lines are raw indexes (`addr /
/// line_bytes`). Plain `Copy` data for embedding in run specs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PlacedWindow {
    /// Synthetic site id of the fence cutting this window.
    pub site: u32,
    /// Thread (program index) both accesses belong to.
    pub thread: u32,
    /// Cache-line index of the delayed store.
    pub store_line: u64,
    /// Cache-line index of the early load; the fence fires immediately
    /// before a load of this line when a trigger store is dirty.
    pub load_line: u64,
}

/// Compact `Copy` encoding of a [`Placement`]: the window patterns,
/// fixed-capacity so a run spec stays plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlacementSpec {
    len: u32,
    windows: [PlacedWindow; MAX_PLACED],
}

impl Default for PlacementSpec {
    fn default() -> Self {
        PlacementSpec {
            len: 0,
            windows: [PlacedWindow::default(); MAX_PLACED],
        }
    }
}

impl PlacementSpec {
    /// Builds a spec from window patterns.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_PLACED`] windows are given.
    pub fn from_windows(windows: &[PlacedWindow]) -> Self {
        assert!(
            windows.len() <= MAX_PLACED,
            "placement has {} windows, max {MAX_PLACED}",
            windows.len()
        );
        let mut spec = PlacementSpec {
            len: windows.len() as u32,
            ..Default::default()
        };
        spec.windows[..windows.len()].copy_from_slice(windows);
        spec
    }

    /// The live window patterns.
    pub fn windows(&self) -> &[PlacedWindow] {
        &self.windows[..self.len as usize]
    }

    /// Number of window patterns.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the placement is empty (no fences needed).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct site ids, ascending.
    pub fn site_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.windows().iter().map(|w| w.site).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// One inferred fence point with its full analysis footprint.
///
/// The simulator only needs the window patterns; the synthesis layer
/// reads `pre_writes`/`post_reads` (word addresses the fence orders) to
/// build the cross-thread conflict digraph and its fence groups, the
/// same grouping it applies to hand-annotated `SiteSpec`s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacedFence {
    /// Synthetic site id ([`assign::synthetic_site`]).
    ///
    /// [`assign::synthetic_site`]: crate::assign::synthetic_site
    pub site: u32,
    /// Thread (program index) the fence is inserted into.
    pub thread: usize,
    /// Human label, e.g. `t0@0x40` (thread 0, before loads of the line
    /// holding address 0x40).
    pub label: String,
    /// Cache-line index the anchoring load reads.
    pub load_line: u64,
    /// Cache-line indexes of trigger stores (dirty lines that arm the
    /// fence), ascending.
    pub triggers: Vec<u64>,
    /// Word addresses written before the fence point (trigger stores).
    pub pre_writes: Vec<Addr>,
    /// Word addresses read at/after the fence point.
    pub post_reads: Vec<Addr>,
}

/// A whole-program fence placement: the minimal fence points the
/// analyzer found, with enough footprint to drive both simulation and
/// strength synthesis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Placement {
    /// Placed fences, ordered by (thread, load line) — the analyzer's
    /// deterministic numbering order.
    pub fences: Vec<PlacedFence>,
    /// Cache-line size the line indexes were computed with.
    pub line_bytes: u64,
}

impl Placement {
    /// Number of placed fences.
    pub fn len(&self) -> usize {
        self.fences.len()
    }

    /// Whether the program needs no fences.
    pub fn is_empty(&self) -> bool {
        self.fences.is_empty()
    }

    /// Site ids in placement order.
    pub fn site_ids(&self) -> Vec<u32> {
        self.fences.iter().map(|f| f.site).collect()
    }

    /// Flattens to the `Copy` window-pattern encoding the simulator
    /// executes.
    ///
    /// # Panics
    ///
    /// Panics if the placement exceeds [`MAX_PLACED`] window patterns.
    pub fn spec(&self) -> PlacementSpec {
        let mut windows = Vec::new();
        for f in &self.fences {
            for &t in &f.triggers {
                windows.push(PlacedWindow {
                    site: f.site,
                    thread: f.thread as u32,
                    store_line: t,
                    load_line: f.load_line,
                });
            }
        }
        PlacementSpec::from_windows(&windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::synthetic_site;

    fn fence(i: u32, thread: usize, load_line: u64, triggers: &[u64]) -> PlacedFence {
        PlacedFence {
            site: synthetic_site(i),
            thread,
            label: format!("t{thread}@{load_line:#x}"),
            load_line,
            triggers: triggers.to_vec(),
            pre_writes: vec![],
            post_reads: vec![],
        }
    }

    #[test]
    fn spec_flattens_triggers_to_windows() {
        let p = Placement {
            fences: vec![fence(0, 0, 1, &[0, 2]), fence(1, 1, 0, &[1])],
            line_bytes: 64,
        };
        let spec = p.spec();
        assert_eq!(spec.len(), 3);
        assert_eq!(spec.site_ids(), vec![synthetic_site(0), synthetic_site(1)]);
        assert_eq!(spec.windows()[0].store_line, 0);
        assert_eq!(spec.windows()[1].store_line, 2);
        assert_eq!(spec.windows()[2].thread, 1);
    }

    #[test]
    fn empty_placement_is_empty_spec() {
        let p = Placement::default();
        assert!(p.is_empty());
        assert!(p.spec().is_empty());
        assert_eq!(p.spec().site_ids(), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "max")]
    fn spec_overflow_panics() {
        let p = Placement {
            fences: vec![fence(
                0,
                0,
                99,
                &(0..MAX_PLACED as u64 + 1).collect::<Vec<_>>(),
            )],
            line_bytes: 64,
        };
        let _ = p.spec();
    }

    #[test]
    fn specs_compare_by_value() {
        let p = Placement {
            fences: vec![fence(0, 0, 1, &[0])],
            line_bytes: 64,
        };
        assert_eq!(p.spec(), p.spec());
        assert_ne!(p.spec(), PlacementSpec::default());
    }
}
