//! Fence-pair strategies: how a protocol's critical/non-critical fence
//! sites map onto real fences.
//!
//! The simulated designs annotate every static fence site with a role
//! ([the hot, critical side vs the rare, non-critical
//! side](crate#design-correspondence)); a [`FencePair`] decides what each
//! role costs on silicon. Parameterizing the native kernels over the
//! pair is the hardware analogue of re-running a simulated workload
//! under a different fence design.

use crate::backend::{heavy_fence, light_fence};
use std::sync::atomic::{compiler_fence, fence, Ordering};

/// A strategy assigning real fences to the two roles of an asymmetric
/// pair. Implementors are zero-sized markers; the kernels monomorphize
/// over them so the fence choice inlines into the hot loop.
///
/// ```
/// use asymfence_native::{Asymmetric, FencePair};
/// use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
///
/// static FLAG: AtomicUsize = AtomicUsize::new(0);
/// static PEER: AtomicUsize = AtomicUsize::new(0);
///
/// fn hot_side<P: FencePair>(pair: P) -> usize {
///     FLAG.store(1, Relaxed);
///     pair.critical(); // wf: free under the membarrier backend
///     PEER.load(Relaxed)
/// }
///
/// let _ = hot_side(Asymmetric);
/// ```
pub trait FencePair: Copy + Send + Sync + 'static {
    /// Stable lowercase label for reports.
    fn name(self) -> &'static str;
    /// The simulated fence design this pair corresponds to (`S+`, `W+`,
    /// …) for sim-vs-silicon cross-validation.
    fn sim_design(self) -> &'static str;
    /// Fence for critical (hot-side) sites — the paper's wf.
    fn critical(self);
    /// Fence for non-critical (rare-side) sites — the paper's sf.
    fn noncritical(self);
}

/// Every site gets the heavy fence — the silicon analogue of the
/// all-strong S+ design (every static fence is the strong one of the
/// pair). Correct everywhere, and the baseline the asymmetric pair must
/// beat on read/owner-dominated kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllHeavy;

impl FencePair for AllHeavy {
    fn name(self) -> &'static str {
        "all-heavy"
    }
    fn sim_design(self) -> &'static str {
        "S+"
    }
    fn critical(self) {
        heavy_fence();
    }
    fn noncritical(self) {
        heavy_fence();
    }
}

/// Critical sites get [`light_fence`], non-critical sites get
/// [`heavy_fence`] — the silicon analogue of the W+/WS+ designs, where
/// the hot side runs weak fences and the rare side absorbs the ordering
/// cost. Only sound when every racing access pair is fenced with
/// matching roles (the same group invariant the simulated designs
/// enforce per fence group).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Asymmetric;

impl FencePair for Asymmetric {
    fn name(self) -> &'static str {
        "asymmetric"
    }
    fn sim_design(self) -> &'static str {
        "W+"
    }
    fn critical(self) {
        light_fence();
    }
    fn noncritical(self) {
        heavy_fence();
    }
}

/// Control: every site is a plain hardware `fence(SeqCst)` regardless of
/// backend — what a portable library without membarrier would ship.
/// Separates the cost of the membarrier *mechanism* (visible in
/// [`AllHeavy`]) from the win of the *asymmetry*.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HwSeqCst;

impl FencePair for HwSeqCst {
    fn name(self) -> &'static str {
        "seqcst"
    }
    fn sim_design(self) -> &'static str {
        "S+"
    }
    fn critical(self) {
        fence(Ordering::SeqCst);
    }
    fn noncritical(self) {
        fence(Ordering::SeqCst);
    }
}

/// One C11-expressible fence, as named by an inferred-placement
/// lowering (`asymfence-analyze`'s `C11Lower` labels). This is the
/// native half of the analyze → lower → run pipeline: the analyzer
/// decides the strength symbolically, this enum issues it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum C11Fence {
    /// `atomic_signal_fence(seq_cst)`: compiler-only.
    Compiler,
    /// `atomic_thread_fence(seq_cst)`: the portable strong fence.
    #[default]
    SeqCst,
    /// Asymmetric light side ([`light_fence`]).
    Light,
    /// Asymmetric heavy side ([`heavy_fence`]).
    Heavy,
}

impl C11Fence {
    /// Parses a lowering label (`compiler`, `seq_cst`, `light`,
    /// `heavy`) as emitted by the analyzer's C11 lowering.
    pub fn from_label(label: &str) -> Option<C11Fence> {
        match label {
            "compiler" => Some(C11Fence::Compiler),
            "seq_cst" => Some(C11Fence::SeqCst),
            "light" => Some(C11Fence::Light),
            "heavy" => Some(C11Fence::Heavy),
            _ => None,
        }
    }

    /// Issues the fence.
    #[inline]
    pub fn issue(self) {
        match self {
            C11Fence::Compiler => compiler_fence(Ordering::SeqCst),
            C11Fence::SeqCst => fence(Ordering::SeqCst),
            C11Fence::Light => light_fence(),
            C11Fence::Heavy => heavy_fence(),
        }
    }
}

/// A [`FencePair`] assembled at runtime from an inferred placement's
/// C11 lowering: the analyzer's synthesized weak site maps to
/// `critical`, its strong partner to `noncritical`. Unlike the built-in
/// marker pairs this carries data, so the fence dispatch is a jump
/// rather than an inlined constant — the price of running a placement
/// that was *computed*, not hand-written. Deliberately not part of
/// [`PairKind::ALL`]: the report grid stays the three fixed strategies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct C11Pair {
    /// Fence for critical (hot-side) sites.
    pub critical: C11Fence,
    /// Fence for non-critical (rare-side) sites.
    pub noncritical: C11Fence,
}

impl FencePair for C11Pair {
    fn name(self) -> &'static str {
        "c11"
    }
    fn sim_design(self) -> &'static str {
        // A light/heavy split is the asymmetric WS+ shape; anything
        // else degenerates to the all-strong baseline.
        if self.critical == C11Fence::Light && self.noncritical == C11Fence::Heavy {
            "WS+"
        } else {
            "S+"
        }
    }
    fn critical(self) {
        self.critical.issue();
    }
    fn noncritical(self) {
        self.noncritical.issue();
    }
}

/// Runtime selector over the three built-in pairs, for CLIs and report
/// loops; dispatch to the monomorphized kernels with a `match`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairKind {
    /// [`AllHeavy`].
    AllHeavy,
    /// [`Asymmetric`].
    Asymmetric,
    /// [`HwSeqCst`].
    HwSeqCst,
}

impl PairKind {
    /// All pairs, in report order.
    pub const ALL: [PairKind; 3] = [PairKind::AllHeavy, PairKind::Asymmetric, PairKind::HwSeqCst];

    /// The pair's stable label (matches [`FencePair::name`]).
    pub fn name(self) -> &'static str {
        match self {
            PairKind::AllHeavy => AllHeavy.name(),
            PairKind::Asymmetric => Asymmetric.name(),
            PairKind::HwSeqCst => HwSeqCst.name(),
        }
    }

    /// The simulated design label (matches [`FencePair::sim_design`]).
    pub fn sim_design(self) -> &'static str {
        match self {
            PairKind::AllHeavy => AllHeavy.sim_design(),
            PairKind::Asymmetric => Asymmetric.sim_design(),
            PairKind::HwSeqCst => HwSeqCst.sim_design(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_fences_run() {
        let mut seen = Vec::new();
        for kind in PairKind::ALL {
            assert!(!seen.contains(&kind.name()));
            seen.push(kind.name());
        }
        AllHeavy.critical();
        AllHeavy.noncritical();
        Asymmetric.critical();
        Asymmetric.noncritical();
        HwSeqCst.critical();
        HwSeqCst.noncritical();
    }

    #[test]
    fn sim_design_mapping() {
        assert_eq!(PairKind::Asymmetric.sim_design(), "W+");
        assert_eq!(PairKind::AllHeavy.sim_design(), "S+");
        assert_eq!(PairKind::HwSeqCst.sim_design(), "S+");
    }

    #[test]
    fn c11_labels_round_trip_and_issue() {
        for (label, f) in [
            ("compiler", C11Fence::Compiler),
            ("seq_cst", C11Fence::SeqCst),
            ("light", C11Fence::Light),
            ("heavy", C11Fence::Heavy),
        ] {
            assert_eq!(C11Fence::from_label(label), Some(f));
            f.issue();
        }
        assert_eq!(C11Fence::from_label("mfence"), None);
    }

    #[test]
    fn c11_pair_design_mapping_tracks_asymmetry() {
        let asym = C11Pair {
            critical: C11Fence::Light,
            noncritical: C11Fence::Heavy,
        };
        assert_eq!(asym.sim_design(), "WS+");
        let sym = C11Pair {
            critical: C11Fence::SeqCst,
            noncritical: C11Fence::SeqCst,
        };
        assert_eq!(sym.sim_design(), "S+");
        asym.critical();
        asym.noncritical();
    }

    #[test]
    fn c11_pair_stays_out_of_the_report_grid() {
        assert!(PairKind::ALL
            .iter()
            .all(|k| k.name() != C11Pair::default().name()));
    }
}
