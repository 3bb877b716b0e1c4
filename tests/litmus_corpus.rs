//! Tier-1 litmus corpus: every canned litmus scenario, explored
//! bounded-exhaustively under every safe fence design, must land on the
//! verdict the design taxonomy guarantees.
//!
//! The corpus covers the classic shapes — store buffering (unfenced,
//! fenced, half-fenced, double-fenced), message passing, load buffering,
//! IRIW, the paper's three-thread fence cycle — and the walk runs at
//! reorder bound 2, the smallest bound at which every expected violation
//! (notably half-fenced SB, which needs two cooperating delays) is
//! reachable. A clean *complete* walk is a proof of SC up to the bound,
//! not a sampling claim.

use asymfence::prelude::FenceDesign;
use asymfence_explore::{DporConfig, Explorer, Failure, Scenario, ALL_DESIGNS};

fn dcfg(bound: usize) -> DporConfig {
    DporConfig::from_explore(&Explorer::default().cfg, bound)
}

/// Every (scenario, design) pair in the corpus matches its expected SC
/// verdict at bound 2, and every walk covers the whole bounded tree (so
/// the clean rows are proofs, not lucky samples).
#[test]
fn corpus_verdicts_match_design_guarantees() {
    let ex = Explorer::default();
    let dcfg = dcfg(2);
    for (sc, expect_sc) in Scenario::litmus_corpus() {
        for &design in &ALL_DESIGNS {
            let rep = ex.explore_exhaustive(&sc.clone().with_roles_for(design), design, &dcfg);
            assert!(
                rep.complete,
                "{}/{design:?}: walk did not cover the bounded tree",
                sc.name
            );
            assert_eq!(
                rep.clean(),
                expect_sc,
                "{}/{design:?}: expected {} at bound {}, got {}{}",
                sc.name,
                if expect_sc {
                    "SC (proof)"
                } else {
                    "a violation"
                },
                rep.bound,
                if rep.clean() { "clean" } else { "a violation" },
                rep.violation
                    .as_ref()
                    .map(|v| format!(":\n{v}"))
                    .unwrap_or_default()
            );
        }
    }
}

/// ISSUE acceptance criterion: the all-weak Dekker that SW+ cannot
/// protect (both fences weak, so neither side's pre-set is enforced) is
/// reproduced by the exhaustive walk — already at bound 1, with a
/// replayable scripted schedule attached.
#[test]
fn all_weak_dekker_violates_under_sw_plus() {
    let ex = Explorer::default();
    let rep = ex.explore_exhaustive(
        &Scenario::store_buffering_all_weak(),
        FenceDesign::SwPlus,
        &dcfg(1),
    );
    let cex = rep
        .violation
        .expect("all-weak Dekker must violate under SW+ at bound 1");
    assert!(
        matches!(cex.failure, Failure::Scv { .. }),
        "{:?}",
        cex.failure
    );
    let script = cex
        .schedule
        .expect("exhaustive counterexamples carry a script");
    assert!(
        script.cost() >= 1,
        "the violation needs at least one delayed choice"
    );
    // The reported schedule really does reproduce the failure.
    assert!(ex
        .run_script(&cex.scenario, FenceDesign::SwPlus, &script)
        .failure
        .is_some());
}

/// The same all-weak grouping is exactly what W+ and Wee are built for:
/// the walk that convicts SW+ proves them SC up to the bound.
#[test]
fn all_weak_dekker_is_proven_sc_under_w_plus_and_wee() {
    let ex = Explorer::default();
    for design in [FenceDesign::WPlus, FenceDesign::Wee] {
        let rep = ex.explore_exhaustive(&Scenario::store_buffering_all_weak(), design, &dcfg(2));
        assert!(
            rep.proven(),
            "{design:?} must prove the all-weak Dekker SC up to bound 2{}",
            rep.violation
                .as_ref()
                .map(|v| format!(":\n{v}"))
                .unwrap_or_default()
        );
    }
}
