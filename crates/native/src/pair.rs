//! The fence pair: how a protocol's critical/non-critical fence sites
//! map onto real fences.
//!
//! The simulated designs annotate every static fence site with a role
//! ([the hot, critical side vs the rare, non-critical
//! side](crate#design-correspondence)); a [`FencePair`] decides what each
//! role costs on silicon. Running a native kernel under a different pair
//! is the hardware analogue of re-running a simulated workload under a
//! different fence design.

use crate::backend::{heavy_fence, light_fence};
use std::sync::atomic::{compiler_fence, fence, Ordering};

/// One C11-expressible fence: the vocabulary both the analyzer's
/// lowering (`asymfence-analyze`'s `lower`) and the native kernels
/// speak. The analyzer decides the strength symbolically, this enum
/// issues it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum C11Fence {
    /// `atomic_signal_fence(seq_cst)`: compiler-only.
    Compiler,
    /// `atomic_thread_fence(seq_cst)`: the portable strong fence.
    #[default]
    SeqCst,
    /// Asymmetric light side ([`light_fence`]): a compiler barrier whose
    /// strength the heavy partner's process-wide barrier supplies.
    Light,
    /// Asymmetric heavy side ([`heavy_fence`]): `membarrier()`, or
    /// `fence(SeqCst)` on the fallback backend.
    Heavy,
}

impl C11Fence {
    /// The C expression a lowering names for this fence.
    pub fn c_expr(self) -> &'static str {
        match self {
            C11Fence::Compiler => "atomic_signal_fence(memory_order_seq_cst)",
            C11Fence::SeqCst => "atomic_thread_fence(memory_order_seq_cst)",
            C11Fence::Light => "asf_light() /* compiler barrier + heavy partner */",
            C11Fence::Heavy => "asf_heavy() /* membarrier or shootdown */",
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

/// The fences a protocol's two roles issue: `critical` at hot-side sites
/// (the paper's wf), `noncritical` at rare-side sites (its sf). The
/// report grid is [`FencePair::ALL`]; a pair an analyzer lowering
/// computes is built from its two per-site fences.
///
/// ```
/// use asymfence_native::FencePair;
/// use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
///
/// static FLAG: AtomicUsize = AtomicUsize::new(0);
/// static PEER: AtomicUsize = AtomicUsize::new(0);
///
/// fn hot_side(pair: FencePair) -> usize {
///     FLAG.store(1, Relaxed);
///     pair.critical.issue(); // wf: free under the membarrier backend
///     PEER.load(Relaxed)
/// }
///
/// let _ = hot_side(FencePair::ASYMMETRIC);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FencePair {
    /// Fence for critical (hot-side) sites.
    pub critical: C11Fence,
    /// Fence for non-critical (rare-side) sites.
    pub noncritical: C11Fence,
}

impl FencePair {
    /// Every site gets the heavy fence: the silicon analogue of the
    /// all-strong S+ design. Correct everywhere, and the baseline the
    /// asymmetric pair must beat on read/owner-dominated kernels.
    pub const ALL_HEAVY: FencePair = FencePair {
        critical: C11Fence::Heavy,
        noncritical: C11Fence::Heavy,
    };

    /// Critical sites get [`light_fence`], non-critical sites get
    /// [`heavy_fence`]: the silicon analogue of the W+/WS+ designs, where
    /// the hot side runs weak fences and the rare side absorbs the
    /// ordering cost. Only sound when every racing access pair is fenced
    /// with matching roles (the group invariant the simulated designs
    /// enforce).
    pub const ASYMMETRIC: FencePair = FencePair {
        critical: C11Fence::Light,
        noncritical: C11Fence::Heavy,
    };

    /// Control: every site is a plain hardware `fence(SeqCst)` whatever
    /// the backend, as a portable library without membarrier would ship.
    /// Separates the cost of the membarrier *mechanism* (visible in
    /// [`FencePair::ALL_HEAVY`]) from the win of the *asymmetry*.
    pub const SEQCST: FencePair = FencePair {
        critical: C11Fence::SeqCst,
        noncritical: C11Fence::SeqCst,
    };

    /// The report grid, in report order.
    pub const ALL: [FencePair; 3] = [
        FencePair::ALL_HEAVY,
        FencePair::ASYMMETRIC,
        FencePair::SEQCST,
    ];

    /// Stable lowercase label for reports; `mixed` for a pair outside
    /// the grid.
    pub fn name(self) -> &'static str {
        match (self.critical, self.noncritical) {
            (C11Fence::Heavy, C11Fence::Heavy) => "all-heavy",
            (C11Fence::Light, C11Fence::Heavy) => "asymmetric",
            (C11Fence::SeqCst, C11Fence::SeqCst) => "seqcst",
            _ => "mixed",
        }
    }

    /// The simulated fence design this pair corresponds to, for
    /// sim-vs-silicon cross-validation: a light hot side is the weak
    /// design W+, anything else the all-strong S+.
    pub fn sim_design(self) -> &'static str {
        if self.critical == C11Fence::Light {
            "W+"
        } else {
            "S+"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_labels_and_designs() {
        let rows: Vec<_> = FencePair::ALL
            .iter()
            .map(|p| (p.name(), p.sim_design()))
            .collect();
        assert_eq!(
            rows,
            [("all-heavy", "S+"), ("asymmetric", "W+"), ("seqcst", "S+")]
        );
        let off_grid = FencePair {
            critical: C11Fence::Compiler,
            noncritical: C11Fence::SeqCst,
        };
        assert_eq!((off_grid.name(), off_grid.sim_design()), ("mixed", "S+"));
    }

    #[test]
    fn every_fence_issues_and_names_a_distinct_c_expr() {
        let fences = [
            C11Fence::Compiler,
            C11Fence::SeqCst,
            C11Fence::Light,
            C11Fence::Heavy,
        ];
        let exprs: std::collections::HashSet<&str> = fences.iter().map(|f| f.c_expr()).collect();
        assert_eq!(exprs.len(), 4);
        for f in fences {
            f.issue();
        }
    }
}
