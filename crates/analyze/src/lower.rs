//! Lowering an inferred placement to C11 for the native runtime.
//!
//! The simulator validates a placement against an idealized machine;
//! shipping it means choosing a real barrier per site. C11 gives four
//! useful strengths, and the asymmetric runtime
//! (`asymfence-native`) adds the membarrier pair the paper's designs
//! model: a *light* side (compiler barrier only — the kernel IPIs make
//! it strong on demand) and a *heavy* side (`membarrier()` or the
//! fallback mprotect shootdown).
//!
//! The mapping is per fence group, driven by the synthesized strength
//! assignment:
//!
//! * **Mixed group** (some weak, some strong): the asymmetric win. Weak
//!   sites lower to [`C11Lower::Light`], strong partners to
//!   [`C11Lower::Heavy`] — exactly the native `FencePair` contract.
//! * **All-strong group**: no asymmetry to exploit; every site is an
//!   `atomic_thread_fence(seq_cst)`.
//! * **All-weak group**: only safe under rollback-capable designs (W+,
//!   Wee), which C11 cannot express — lowered conservatively to
//!   SeqCst on every site.
//! * **Ungrouped site**: on no critical cycle reachable from another
//!   thread's windows; a compiler barrier pins program order and
//!   documents the point without hardware cost.

use asymfence_common::placement::Placement;

/// A C11-expressible barrier choice for one placed fence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum C11Lower {
    /// `atomic_signal_fence(memory_order_seq_cst)` — compiler-only.
    Compiler,
    /// `atomic_thread_fence(memory_order_seq_cst)`.
    SeqCst,
    /// Asymmetric light side: compiler barrier, strength supplied by the
    /// heavy partner's process-wide barrier.
    Light,
    /// Asymmetric heavy side: `membarrier()` (or the fallback shootdown).
    Heavy,
}

impl C11Lower {
    /// The C expression the lowering names.
    pub fn c_expr(self) -> &'static str {
        match self {
            C11Lower::Compiler => "atomic_signal_fence(memory_order_seq_cst)",
            C11Lower::SeqCst => "atomic_thread_fence(memory_order_seq_cst)",
            C11Lower::Light => "asf_light() /* compiler barrier + heavy partner */",
            C11Lower::Heavy => "asf_heavy() /* membarrier or shootdown */",
        }
    }

    /// Short report label.
    pub fn label(self) -> &'static str {
        match self {
            C11Lower::Compiler => "compiler",
            C11Lower::SeqCst => "seq_cst",
            C11Lower::Light => "light",
            C11Lower::Heavy => "heavy",
        }
    }
}

/// One site's lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoweredFence {
    /// Synthetic site id (matches the placement).
    pub site: u32,
    /// The placement label (`t0@0x40`).
    pub label: String,
    /// The chosen barrier.
    pub lower: C11Lower,
}

/// A whole placement lowered to C11.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lowering {
    /// Per-site choices, in placement order.
    pub fences: Vec<LoweredFence>,
    /// Whether any group lowered asymmetrically (drives the native
    /// `C11Pair` choice: asymmetric pairs need the membarrier backend).
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
            C11Lower::Compiler
        } else {
            let group = groups.iter().find(|g| g.contains(&i)).unwrap();
            let weak_bits = group.iter().filter(|&&j| mask & (1 << j) != 0).count();
            if weak_bits == 0 || weak_bits == group.len() {
                // All-strong (no asymmetry) or all-weak (needs rollback,
                // inexpressible in C11): SeqCst everywhere.
                C11Lower::SeqCst
            } else if weak {
                asymmetric = true;
                C11Lower::Light
            } else {
                asymmetric = true;
                C11Lower::Heavy
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
        assert_eq!(l.fences[0].lower, C11Lower::Light);
        assert_eq!(l.fences[1].lower, C11Lower::Heavy);
    }

    #[test]
    fn all_strong_group_lowers_to_seqcst() {
        let l = lower(&placement(2), &[vec![0, 1]], 0);
        assert!(!l.asymmetric);
        assert!(l.fences.iter().all(|f| f.lower == C11Lower::SeqCst));
    }

    #[test]
    fn all_weak_group_is_conservative_seqcst() {
        let l = lower(&placement(2), &[vec![0, 1]], 0b11);
        assert!(!l.asymmetric);
        assert!(l.fences.iter().all(|f| f.lower == C11Lower::SeqCst));
    }

    #[test]
    fn ungrouped_site_needs_only_a_compiler_barrier() {
        let l = lower(&placement(3), &[vec![0, 1]], 0b001);
        assert_eq!(l.fences[2].lower, C11Lower::Compiler);
    }

    #[test]
    fn c_exprs_are_distinct() {
        let exprs: std::collections::HashSet<&str> = [
            C11Lower::Compiler,
            C11Lower::SeqCst,
            C11Lower::Light,
            C11Lower::Heavy,
        ]
        .iter()
        .map(|l| l.c_expr())
        .collect();
        assert_eq!(exprs.len(), 4);
    }
}
