//! Lowering an inferred placement to C11 for the native runtime.
//!
//! The simulator validates a placement against an idealized machine;
//! shipping it means choosing a real barrier per site. C11 offers a
//! compiler-only and a full `seq_cst` fence, and the asymmetric runtime
//! (`asymfence-native`) adds the membarrier pair the paper's designs
//! model: a *light* side (compiler barrier only — the kernel IPIs make
//! it strong on demand) and a *heavy* side (`membarrier()`, or
//! `fence(SeqCst)` on the fallback backend). The lowering names them in
//! the runtime's own vocabulary, [`C11Fence`], so a lowered site runs as
//! it is.
//!
//! The mapping is per fence group, driven by the synthesized strength
//! assignment:
//!
//! * **Mixed group** (some weak, some strong): the asymmetric win. Weak
//!   sites lower to [`C11Fence::Light`], strong partners to
//!   [`C11Fence::Heavy`] — exactly the native `FencePair` contract.
//! * **All-strong group**: no asymmetry to exploit; every site is an
//!   `atomic_thread_fence(seq_cst)`.
//! * **All-weak group**: only safe under rollback-capable designs (W+,
//!   Wee), which C11 cannot express — lowered conservatively to
//!   SeqCst on every site.
//! * **Ungrouped site**: on no critical cycle reachable from another
//!   thread's windows; a compiler barrier pins program order and
//!   documents the point without hardware cost.

use asymfence_common::placement::Placement;
use asymfence_native::C11Fence;

/// One site's lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredFence {
    /// Synthetic site id (matches the placement).
    pub site: u32,
    /// The placement label (`t0@0x40`).
    pub label: String,
    /// The chosen barrier.
    pub lower: C11Fence,
}

/// A whole placement lowered to C11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lowering {
    /// Per-site choices, in placement order.
    pub fences: Vec<LoweredFence>,
    /// Whether any group lowered asymmetrically (a light/heavy native
    /// `FencePair`, which needs the membarrier backend to pay off).
    pub asymmetric: bool,
}

/// Lowers a placement given its fence groups (indices into
/// `placement.fences`) and the synthesized weak-site mask over the same
/// indices. `mask` bit `i` set means site `i` was proven safe as a weak
/// fence under the searched design.
pub fn lower(placement: &Placement, groups: &[Vec<usize>], mask: u64) -> Lowering {
    let n = placement.len();
    let grouped: Vec<bool> = (0..n)
        .map(|i| groups.iter().any(|g| g.contains(&i)))
        .collect();
    let mut fences = Vec::with_capacity(n);
    let mut asymmetric = false;
    for (i, f) in placement.fences.iter().enumerate() {
        let weak = mask & (1 << i) != 0;
        let lower = if !grouped[i] {
            C11Fence::Compiler
        } else {
            let group = groups.iter().find(|g| g.contains(&i)).unwrap();
            let weak_bits = group.iter().filter(|&&j| mask & (1 << j) != 0).count();
            if weak_bits == 0 || weak_bits == group.len() {
                // All-strong (no asymmetry) or all-weak (needs rollback,
                // inexpressible in C11): SeqCst everywhere.
                C11Fence::SeqCst
            } else if weak {
                asymmetric = true;
                C11Fence::Light
            } else {
                asymmetric = true;
                C11Fence::Heavy
            }
        };
        fences.push(LoweredFence {
            site: f.site,
            label: f.label.clone(),
            lower,
        });
    }
    Lowering { fences, asymmetric }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::assign::synthetic_site;
    use asymfence_common::placement::PlacedFence;

    fn placement(n: usize) -> Placement {
        Placement {
            fences: (0..n)
                .map(|i| PlacedFence {
                    site: synthetic_site(i as u32),
                    thread: i,
                    label: format!("t{i}@0x0"),
                    load_line: 0,
                    triggers: vec![1],
                    pre_writes: vec![],
                    post_reads: vec![],
                })
                .collect(),
            line_bytes: 64,
        }
    }

    #[test]
    fn mixed_group_lowers_asymmetrically() {
        let l = lower(&placement(2), &[vec![0, 1]], 0b01);
        assert!(l.asymmetric);
        assert_eq!(l.fences[0].lower, C11Fence::Light);
        assert_eq!(l.fences[1].lower, C11Fence::Heavy);
    }

    #[test]
    fn all_strong_group_lowers_to_seqcst() {
        let l = lower(&placement(2), &[vec![0, 1]], 0);
        assert!(!l.asymmetric);
        assert!(l.fences.iter().all(|f| f.lower == C11Fence::SeqCst));
    }

    #[test]
    fn all_weak_group_is_conservative_seqcst() {
        let l = lower(&placement(2), &[vec![0, 1]], 0b11);
        assert!(!l.asymmetric);
        assert!(l.fences.iter().all(|f| f.lower == C11Fence::SeqCst));
    }

    #[test]
    fn ungrouped_site_needs_only_a_compiler_barrier() {
        let l = lower(&placement(3), &[vec![0, 1]], 0b001);
        assert_eq!(l.fences[2].lower, C11Fence::Compiler);
    }
}
