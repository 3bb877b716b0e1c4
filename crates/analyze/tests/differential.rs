//! Differential validation of the analyzer against the paper's hand
//! annotations, plus pinned regressions.
//!
//! Five of the six unannotated kernels have hand-annotated twins in
//! `asymfence_workloads::sites`. The analyzer never reads those — so
//! agreement between the structure it *recovers* (conflict digraph,
//! fence groups) and the structure the paper *wrote down* is real
//! evidence the recovery works. Peterson, the sixth, has no twin by
//! design and is covered by the property sweep.

use std::collections::BTreeSet;

use asymfence::prelude::MachineConfig;
use asymfence_analyze::{analyze, Analysis};
use asymfence_synth::groups;
use asymfence_workloads::unannot::InferredKernel;

/// Canonical group shape: the sorted multiset of per-group sorted
/// thread lists (labels differ between hand and inferred sites; the
/// thread structure is what must agree).
fn group_shape(threads_per_site: &[usize], groups: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut shape: Vec<Vec<usize>> = groups
        .iter()
        .map(|g| {
            let mut t: Vec<usize> = g.iter().map(|&i| threads_per_site[i]).collect();
            t.sort();
            t
        })
        .collect();
    shape.sort();
    shape
}

/// Unordered cross-thread pairs carrying at least one conflict edge.
fn edge_shape(threads_per_site: &[usize], adj: &[Vec<usize>]) -> BTreeSet<(usize, usize)> {
    let mut pairs = BTreeSet::new();
    for (i, out) in adj.iter().enumerate() {
        for &j in out {
            let (a, b) = (threads_per_site[i], threads_per_site[j]);
            pairs.insert((a.min(b), a.max(b)));
        }
    }
    pairs
}

fn twins() -> Vec<InferredKernel> {
    InferredKernel::ALL
        .into_iter()
        .filter(|k| k.site_bench().is_some())
        .collect()
}

#[test]
fn inferred_groups_match_hand_annotation_structure_on_all_twins() {
    for k in twins() {
        let a = analyze(k, asymfence_bench::SEED);
        let bench = k.site_bench().unwrap();
        let cfg = MachineConfig::builder().cores(bench.cores()).build();
        let hand = bench.sites(&cfg);

        let it: Vec<usize> = a.placement.fences.iter().map(|f| f.thread).collect();
        let ht: Vec<usize> = hand.iter().map(|s| s.thread).collect();
        let ig = groups::fence_groups_of(&a.placement.fences, a.placement.line_bytes);
        let hg = groups::fence_groups(&hand, cfg.line_bytes);
        assert_eq!(
            group_shape(&it, &ig),
            group_shape(&ht, &hg),
            "{}: inferred fence-group thread structure diverges from the hand annotation",
            k.name()
        );

        let ie = groups::conflict_edges_of(&a.placement.fences, a.placement.line_bytes);
        let he = groups::conflict_edges(&hand, cfg.line_bytes);
        assert_eq!(
            edge_shape(&it, &ie),
            edge_shape(&ht, &he),
            "{}: inferred conflict-digraph thread pairs diverge from the hand annotation",
            k.name()
        );
    }
}

/// Every site the analyzer places must exist in the hand annotation's
/// thread census: same number of fenced threads, and never more sites
/// on a thread than the hand annotation uses (the analyzer is minimal;
/// the paper's placement is the generous upper bound).
#[test]
fn inferred_sites_never_exceed_the_hand_annotation_per_thread() {
    for k in twins() {
        let a = analyze(k, asymfence_bench::SEED);
        let bench = k.site_bench().unwrap();
        let cfg = MachineConfig::builder().cores(bench.cores()).build();
        let hand = bench.sites(&cfg);
        for t in 0..k.cores() {
            let inferred = a.placement.fences.iter().filter(|f| f.thread == t).count();
            let handed = hand.iter().filter(|s| s.thread == t).count();
            assert!(
                inferred <= handed,
                "{} thread {t}: {inferred} inferred sites vs {handed} hand sites",
                k.name()
            );
        }
    }
}

/// Property sweep over seeds and every kernel (Peterson included):
/// the analysis is a pure function of the kernel (seed-invariant for
/// the study kernels), every critical window's trigger store is owned
/// by some same-thread fence, and sites are canonically sorted.
#[test]
fn analysis_properties_hold_across_seeds() {
    for k in InferredKernel::ALL {
        let baseline = analyze(k, asymfence_bench::SEED);
        assert!(!baseline.placement.is_empty(), "{}", k.name());
        for seed in 0..8u64 {
            let a = analyze(k, seed);
            assert_eq!(
                a.placement,
                baseline.placement,
                "{} placement must not depend on the data seed",
                k.name()
            );
            for &i in &a.critical {
                let w = &a.windows[i];
                assert!(
                    a.placement
                        .fences
                        .iter()
                        .any(|f| f.thread == w.thread && f.triggers.contains(&w.store_line)),
                    "{}: critical window (t{} st{} ld{}) not owned by any fence",
                    k.name(),
                    w.thread,
                    w.store_line,
                    w.load_line
                );
            }
            let keys: Vec<(usize, u64)> = a
                .placement
                .fences
                .iter()
                .map(|f| (f.thread, f.load_line))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(
                keys,
                sorted,
                "{}: sites must be canonically sorted",
                k.name()
            );
        }
    }
}

/// Pinned regressions: `tests/regressions/seeds.txt` freezes the
/// placement (labels + cycle count) for every kernel under the seeds
/// that mattered while developing the liveness filter and the coverage
/// fixpoint. Any drift is a behavior change that needs a deliberate
/// re-pin.
#[test]
fn pinned_regression_seeds_reproduce_exactly() {
    let pins = include_str!("regressions/seeds.txt");
    let mut checked = 0;
    for line in pins.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kernel = InferredKernel::from_name(parts.next().unwrap())
            .unwrap_or_else(|| panic!("bad kernel in pin: {line}"));
        let seed: u64 = parts.next().unwrap().parse().unwrap();
        let cycles: u64 = parts.next().unwrap().parse().unwrap();
        let labels = parts.next().unwrap();
        let a: Analysis = analyze(kernel, seed);
        let got: Vec<&str> = a
            .placement
            .fences
            .iter()
            .map(|f| f.label.as_str())
            .collect();
        assert_eq!(
            got.join(","),
            labels,
            "{} seed {seed}: placement drifted",
            kernel.name()
        );
        assert_eq!(
            a.cycles,
            cycles,
            "{} seed {seed}: cycle count drifted",
            kernel.name()
        );
        checked += 1;
    }
    assert!(checked >= 24, "pin file lost lines: {checked}");
}
