//! Fence-group discovery and per-design structural pruning.
//!
//! The paper's designs constrain the *weak* fences of a **fence group**:
//! the set of fences that can participate in one Shasha–Snir cycle. Two
//! sites interact when one thread's post-fence reads conflict (same
//! cache line) with another thread's pre-fence writes — that is exactly
//! the `st → FENCE → ld` pattern whose reordering the fence exists to
//! forbid. We build that conflict digraph over the static footprints of
//! [`SiteSpec`]s and take its strongly connected components: an SCC of
//! size ≥ 2 is a fence group (a single site can never complete a cycle
//! by itself).
//!
//! With the groups in hand, a candidate weak-site mask can be rejected
//! *before* any simulation:
//!
//! * `S+` has no weak fence at all — any set bit is out.
//! * `WS+` allows **at most one** weak fence per group (Order protocol).
//! * `SW+` needs **at least one** strong fence per group (Conditional
//!   Order).
//! * `W+` and `Wee` accept any mask (rollback / GRT recovery).
//!
//! Sites outside every group are unconstrained under the asymmetric
//! designs: no cycle can pass through them, so their fence may always be
//! weak.

use asymfence::prelude::FenceDesign;
use asymfence_common::ids::Addr;
use asymfence_common::placement::PlacedFence;
use asymfence_workloads::sites::SiteSpec;

/// Two addresses conflict when they fall on the same cache line.
fn same_line(a: u64, b: u64, line_bytes: u64) -> bool {
    a / line_bytes == b / line_bytes
}

/// The static footprint of one fence site, however it was produced:
/// hand-annotated [`SiteSpec`]s and analyzer-placed
/// [`PlacedFence`]s group identically through this lens.
pub trait Footprint {
    /// Thread (program index) the fence executes on.
    fn thread(&self) -> usize;
    /// Word addresses written before the fence.
    fn pre_writes(&self) -> &[Addr];
    /// Word addresses read at/after the fence.
    fn post_reads(&self) -> &[Addr];
}

impl Footprint for SiteSpec {
    fn thread(&self) -> usize {
        self.thread
    }
    fn pre_writes(&self) -> &[Addr] {
        &self.pre_writes
    }
    fn post_reads(&self) -> &[Addr] {
        &self.post_reads
    }
}

impl Footprint for PlacedFence {
    fn thread(&self) -> usize {
        self.thread
    }
    fn pre_writes(&self) -> &[Addr] {
        &self.pre_writes
    }
    fn post_reads(&self) -> &[Addr] {
        &self.post_reads
    }
}

/// The conflict digraph over arbitrary footprints: `adj[i]` holds every
/// `j` with an edge `i → j`, meaning a post-fence read of site `i` may
/// observe (or race with) a pre-fence write of site `j` on another
/// thread.
pub fn conflict_edges_of<F: Footprint>(sites: &[F], line_bytes: u64) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); sites.len()];
    for (i, a) in sites.iter().enumerate() {
        for (j, b) in sites.iter().enumerate() {
            if a.thread() == b.thread() {
                continue;
            }
            let hit = a.post_reads().iter().any(|r| {
                b.pre_writes()
                    .iter()
                    .any(|w| same_line(r.raw(), w.raw(), line_bytes))
            });
            if hit {
                adj[i].push(j);
            }
        }
    }
    adj
}

/// [`conflict_edges_of`] over hand-annotated sites.
pub fn conflict_edges(sites: &[SiteSpec], line_bytes: u64) -> Vec<Vec<usize>> {
    conflict_edges_of(sites, line_bytes)
}

/// Strongly connected components of `adj` (Kosaraju), smallest member
/// first inside each component, components ordered by smallest member.
/// Deterministic for a given graph.
pub fn sccs(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = adj.len();
    // Pass 1: finish-order DFS (iterative, explicit stack).
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let w = adj[v][*next];
                *next += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph, peel components in reverse finish order.
    let mut radj = vec![Vec::new(); n];
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = n_comp;
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = n_comp;
                    stack.push(w);
                }
            }
        }
        n_comp += 1;
    }
    let mut groups = vec![Vec::new(); n_comp];
    for (v, &c) in comp.iter().enumerate() {
        groups[c].push(v);
    }
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_unstable();
    groups
}

/// Fence groups of arbitrary footprints: SCCs of the conflict digraph
/// with at least two members, each sorted ascending, ordered by
/// smallest member.
pub fn fence_groups_of<F: Footprint>(sites: &[F], line_bytes: u64) -> Vec<Vec<usize>> {
    sccs(&conflict_edges_of(sites, line_bytes))
        .into_iter()
        .filter(|g| g.len() >= 2)
        .collect()
}

/// [`fence_groups_of`] over hand-annotated sites.
pub fn fence_groups(sites: &[SiteSpec], line_bytes: u64) -> Vec<Vec<usize>> {
    fence_groups_of(sites, line_bytes)
}

/// Checks a weak-site mask against a design's structural constraint.
/// Bit `i` of `weak_mask` refers to `sites[i]` (the index the groups use,
/// not the site id). Returns the static reject reason, or `None` when
/// the candidate is structurally admissible.
pub fn structural_reject(
    design: FenceDesign,
    groups: &[Vec<usize>],
    weak_mask: u64,
) -> Option<&'static str> {
    match design {
        FenceDesign::SPlus => (weak_mask != 0).then_some("s+:wf"),
        FenceDesign::WsPlus => groups
            .iter()
            .any(|g| g.iter().filter(|&&i| weak_mask & (1 << i) != 0).count() > 1)
            .then_some("ws+:>1wf"),
        FenceDesign::SwPlus => groups
            .iter()
            .any(|g| g.iter().all(|&i| weak_mask & (1 << i) != 0))
            .then_some("sw+:0sf"),
        FenceDesign::WPlus | FenceDesign::Wee | FenceDesign::WfOnlyUnsafe => None,
    }
}

/// The paper's hand annotation as a weak-site mask for `design`: the
/// role-to-strength mapping the simulator applies when no per-site
/// assignment is installed.
pub fn paper_mask(sites: &[SiteSpec], design: FenceDesign) -> u64 {
    let mut mask = 0;
    for (i, s) in sites.iter().enumerate() {
        let weak = match s.paper_role {
            asymfence::prelude::FenceRole::Critical => design.critical_is_weak(),
            asymfence::prelude::FenceRole::NonCritical => design.noncritical_is_weak(),
        };
        if weak {
            mask |= 1 << i;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::MachineConfig;
    use asymfence_workloads::sites::SiteBench;

    fn groups_of(bench: SiteBench) -> Vec<Vec<usize>> {
        let cfg = MachineConfig::builder().cores(bench.cores()).build();
        fence_groups(&bench.sites(&cfg), cfg.line_bytes)
    }

    #[test]
    fn sb_sites_form_one_pair_group() {
        assert_eq!(groups_of(SiteBench::Sb), vec![vec![0, 1]]);
    }

    #[test]
    fn dekker_fences_form_one_group() {
        // The two entry fences close the paper's Figure 1a cycle through
        // the flags; the backoff fences join the same group through the
        // turn word (retraction store vs turn-wait loads).
        assert_eq!(groups_of(SiteBench::Dekker), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn wsq_owner_and_thief_form_one_pair_group() {
        assert_eq!(groups_of(SiteBench::Wsq), vec![vec![0, 1]]);
    }

    #[test]
    fn bakery_fences_form_one_all_thread_group() {
        // Figure 6: every participant's doorway and ticket fence falls in
        // one group — doorways reach tickets through N[j], tickets reach
        // doorways through E[j].
        assert_eq!(groups_of(SiteBench::Bakery), vec![vec![0, 1, 2, 3, 4, 5]]);
    }

    #[test]
    fn dcl_groups_only_the_init_fences() {
        // Reader fences have no pre-fence store on their path, so under
        // TSO they can anchor no st→ld cycle: only the two initializer
        // fences (site indices 1 and 3 in ascending site order) group.
        assert_eq!(groups_of(SiteBench::Dcl), vec![vec![1, 3]]);
    }

    #[test]
    fn sccs_handle_chains_and_self_contained_cycles() {
        // 0 → 1 → 2 → 0 is one SCC; 3 → 0 is a lone node.
        let adj = vec![vec![1], vec![2], vec![0], vec![0]];
        assert_eq!(sccs(&adj), vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn structural_rules_match_the_designs() {
        let groups = vec![vec![0, 1], vec![2, 3]];
        // S+ admits only the all-strong mask.
        assert_eq!(structural_reject(FenceDesign::SPlus, &groups, 0), None);
        assert!(structural_reject(FenceDesign::SPlus, &groups, 0b0001).is_some());
        // WS+: at most one weak per group; ungrouped bits are free.
        assert_eq!(
            structural_reject(FenceDesign::WsPlus, &groups, 0b0101),
            None
        );
        assert!(structural_reject(FenceDesign::WsPlus, &groups, 0b0011).is_some());
        assert_eq!(
            structural_reject(FenceDesign::WsPlus, &[vec![0, 1]], 0b1100),
            None,
            "sites outside every group are unconstrained"
        );
        // SW+: at least one strong per group.
        assert_eq!(
            structural_reject(FenceDesign::SwPlus, &groups, 0b0101),
            None
        );
        assert!(structural_reject(FenceDesign::SwPlus, &groups, 0b0011).is_some());
        // W+ and Wee admit everything.
        assert_eq!(structural_reject(FenceDesign::WPlus, &groups, 0b1111), None);
        assert_eq!(structural_reject(FenceDesign::Wee, &groups, 0b1111), None);
    }
}
