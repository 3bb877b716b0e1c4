//! Property tests of the synthesis engine's static half: fence-group
//! discovery (SCCs of the conflict digraph) and the per-design
//! structural pruning rules.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_synth.seeds`
//! and replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use asymfence::prelude::FenceDesign;
use asymfence_common::prop::{check, pairs, u64s, usizes, vecs, Config};
use asymfence_synth::groups::{sccs, structural_reject};

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_synth.seeds")
}

/// Builds a digraph on `n` nodes from raw edge pairs (reduced mod `n`).
fn digraph(n: usize, raw_edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in raw_edges {
        let (a, b) = (a % n, b % n);
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
        }
    }
    adj
}

/// Brute-force transitive closure of `adj`.
fn reach(adj: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = adj.len();
    let mut r = vec![vec![false; n]; n];
    for (v, outs) in adj.iter().enumerate() {
        r[v][v] = true;
        for &w in outs {
            r[v][w] = true;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                r[i][j] |= r[i][k] && r[k][j];
            }
        }
    }
    r
}

/// The Kosaraju SCCs agree with the definition: two nodes share a
/// component exactly when each reaches the other, and the output is a
/// partition in canonical order.
#[test]
fn sccs_match_brute_force_mutual_reachability() {
    let gen = pairs(
        usizes(1, 8),
        vecs(pairs(usizes(0, 63), usizes(0, 63)), 0, 28),
    );
    check(
        "sccs_match_brute_force_mutual_reachability",
        &prop_cfg(64),
        &gen,
        |(n, raw_edges)| {
            let adj = digraph(*n, raw_edges);
            let groups = sccs(&adj);
            let r = reach(&adj);

            let mut comp = vec![usize::MAX; *n];
            for (c, g) in groups.iter().enumerate() {
                for w in g.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("group {g:?} not ascending"));
                    }
                }
                for &v in g {
                    if comp[v] != usize::MAX {
                        return Err(format!("node {v} in two groups"));
                    }
                    comp[v] = c;
                }
            }
            if comp.contains(&usize::MAX) {
                return Err("not a partition: node missing".into());
            }
            for i in 0..*n {
                for j in 0..*n {
                    let together = comp[i] == comp[j];
                    let mutual = r[i][j] && r[j][i];
                    if together != mutual {
                        return Err(format!(
                            "nodes {i},{j}: same-scc={together} mutual-reach={mutual}"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// WS+ admits a mask exactly when every fence group carries at most one
/// weak fence, and weakening is monotone: clearing any bit of an
/// admissible mask stays admissible.
#[test]
fn ws_plus_prunes_exactly_masks_with_two_weak_in_a_group() {
    let gen = pairs(
        pairs(
            usizes(1, 6),
            vecs(pairs(usizes(0, 63), usizes(0, 63)), 0, 18),
        ),
        u64s(0, u64::MAX),
    );
    check(
        "ws_plus_prunes_exactly_masks_with_two_weak_in_a_group",
        &prop_cfg(64),
        &gen,
        |((n, raw_edges), mask_bits)| {
            let adj = digraph(*n, raw_edges);
            let groups: Vec<Vec<usize>> = sccs(&adj).into_iter().filter(|g| g.len() >= 2).collect();
            let mask = mask_bits & ((1u64 << *n) - 1);

            let over = groups
                .iter()
                .any(|g| g.iter().filter(|&&i| mask & (1 << i) != 0).count() > 1);
            let rejected = structural_reject(FenceDesign::WsPlus, &groups, mask).is_some();
            if rejected != over {
                return Err(format!(
                    "WS+ mask {mask:#b} over groups {groups:?}: rejected={rejected}, >1wf={over}"
                ));
            }
            if !rejected {
                for bit in 0..*n {
                    let sub = mask & !(1u64 << bit);
                    if structural_reject(FenceDesign::WsPlus, &groups, sub).is_some() {
                        return Err(format!(
                            "WS+ not monotone: {mask:#b} ok but submask {sub:#b} rejected"
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// The remaining designs' rules, against their definitions on the same
/// random groups: S+ admits only the empty mask, SW+ admits a mask
/// exactly when every group keeps a strong member, W+/Wee admit all.
#[test]
fn remaining_designs_prune_per_their_definitions() {
    let gen = pairs(
        pairs(
            usizes(1, 6),
            vecs(pairs(usizes(0, 63), usizes(0, 63)), 0, 18),
        ),
        u64s(0, u64::MAX),
    );
    check(
        "remaining_designs_prune_per_their_definitions",
        &prop_cfg(64),
        &gen,
        |((n, raw_edges), mask_bits)| {
            let adj = digraph(*n, raw_edges);
            let groups: Vec<Vec<usize>> = sccs(&adj).into_iter().filter(|g| g.len() >= 2).collect();
            let mask = mask_bits & ((1u64 << *n) - 1);

            let s_plus = structural_reject(FenceDesign::SPlus, &groups, mask).is_some();
            if s_plus != (mask != 0) {
                return Err(format!("S+ mask {mask:#b}: rejected={s_plus}"));
            }
            let all_weak = groups
                .iter()
                .any(|g| g.iter().all(|&i| mask & (1 << i) != 0));
            let sw_plus = structural_reject(FenceDesign::SwPlus, &groups, mask).is_some();
            if sw_plus != all_weak {
                return Err(format!(
                    "SW+ mask {mask:#b} over {groups:?}: rejected={sw_plus}, all-weak-group={all_weak}"
                ));
            }
            for free in [FenceDesign::WPlus, FenceDesign::Wee] {
                if structural_reject(free, &groups, mask).is_some() {
                    return Err(format!(
                        "{free:?} must admit every mask, rejected {mask:#b}"
                    ));
                }
            }
            Ok(())
        },
    );
}
