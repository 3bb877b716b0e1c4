//! Acceptance tests for the schedule-exploration engine: known-bad
//! scenarios must be found and shrunk to a minimal core within a bounded
//! budget; known-good scenarios must survive a full sweep under every
//! fence design.

use asymfence::prelude::FenceDesign;
use asymfence_explore::{ExploreConfig, Explorer, Failure, Scenario, ALL_DESIGNS};

/// The unfenced Dekker core must trip the Shasha–Snir oracle within a
/// small seed budget and shrink to the textbook two-thread, two-op form.
#[test]
fn unfenced_sb_is_found_and_shrunk_to_minimal_core() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 64,
        ..Default::default()
    });
    let report = ex.sweep(&Scenario::store_buffering(false), FenceDesign::SPlus);
    let cex = report.violation.expect("unfenced SB must violate SC");
    assert!(cex.scenario.threads.len() <= 2);
    for t in &cex.scenario.threads {
        assert!(t.ops.len() <= 3, "thread not minimal: {:?}", t.ops);
    }
    match &cex.failure {
        Failure::Scv { report } => assert!(report.contains("SC-violation cycle")),
        other => panic!("expected an SCV cycle, got {other:?}"),
    }
}

/// The obfuscated variant — padding, scratch stores, a bystander thread —
/// must boil down to the same minimal core.
#[test]
fn padded_sb_shrinks_away_the_noise() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 64,
        ..Default::default()
    });
    let report = ex.sweep(&Scenario::store_buffering_padded(), FenceDesign::SPlus);
    let cex = report
        .violation
        .expect("padded unfenced SB must violate SC");
    assert!(
        cex.scenario.threads.len() <= 2,
        "bystander thread survived shrinking: {}",
        cex.scenario
    );
    for t in &cex.scenario.threads {
        assert!(
            t.ops.len() <= 3,
            "padding survived shrinking: {}",
            cex.scenario
        );
    }
    assert!(matches!(cex.failure, Failure::Scv { .. }));
}

/// A full counterexample report names the design, the seed, and walks the
/// cycle in human-readable form.
#[test]
fn counterexample_report_is_reproducible_and_readable() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 64,
        ..Default::default()
    });
    let report = ex.sweep(&Scenario::store_buffering(false), FenceDesign::SPlus);
    let cex = report.violation.expect("unfenced SB must violate SC");
    let text = cex.to_string();
    assert!(text.contains("SPlus"));
    assert!(text.contains(&format!("seed {}", cex.seed)));
    assert!(text.contains("SC-violation cycle"));
    assert!(text.contains("reproduce"));
    // The reported seed really does reproduce the failure.
    assert!(ex.run_seed(&cex.scenario, cex.design, cex.seed).is_some());
}

/// Exploration is a pure function of the config: two sweeps agree on the
/// minimized counterexample bit-for-bit.
#[test]
fn sweeps_are_deterministic() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 64,
        ..Default::default()
    });
    let sc = Scenario::store_buffering(false);
    let a = ex
        .sweep(&sc, FenceDesign::WPlus)
        .violation
        .expect("violates");
    let b = ex
        .sweep(&sc, FenceDesign::WPlus)
        .violation
        .expect("violates");
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.found_seed, b.found_seed);
    assert_eq!(a.scenario, b.scenario);
    assert_eq!(a.failure, b.failure);
}

/// The parallel sweep is observationally identical to the serial scan:
/// same minimized counterexample, same serial-equivalent run count, at
/// any worker count. (This is the explorer half of the run-engine
/// determinism guarantee; the figure half lives in
/// `crates/bench/tests/runner_determinism.rs`.)
#[test]
fn parallel_sweep_matches_serial_sweep_bit_for_bit() {
    let cfg = ExploreConfig {
        seeds: 48,
        ..Default::default()
    };
    for scenario in [
        Scenario::store_buffering(false),
        Scenario::store_buffering(true),
    ] {
        for &design in &[FenceDesign::SPlus, FenceDesign::WPlus] {
            let sc = scenario.clone().with_roles_for(design);
            let serial = Explorer::new(cfg).with_jobs(1).sweep(&sc, design);
            let parallel = Explorer::new(cfg).with_jobs(8).sweep(&sc, design);
            assert_eq!(serial.runs, parallel.runs, "{design:?}");
            match (&serial.violation, &parallel.violation) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.seed, b.seed);
                    assert_eq!(a.found_seed, b.found_seed);
                    assert_eq!(a.scenario, b.scenario);
                    assert_eq!(a.failure, b.failure);
                    // The rendered report (what the CLI prints) matches too.
                    assert_eq!(a.to_string(), b.to_string());
                }
                (a, b) => panic!("{design:?}: serial={a:?} parallel={b:?}"),
            }
        }
    }
}

/// Known-good: the fenced Dekker idiom survives a 1000-seed perturbation
/// sweep under every safe design (ISSUE acceptance bound).
#[test]
fn fenced_sb_survives_1000_seed_sweep_under_every_design() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 1000,
        ..Default::default()
    });
    for report in ex.sweep_all_designs(&Scenario::store_buffering(true)) {
        assert!(
            report.clean(),
            "design {:?} violated SC:\n{}",
            report.design,
            report.violation.unwrap()
        );
        assert_eq!(report.runs, 1000);
    }
}

/// Known-good: the three-thread fence cycle (paper Fig. 1e/3c) stays SC
/// under every design across a perturbation sweep.
#[test]
fn three_thread_cycle_survives_sweep_under_every_design() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 200,
        ..Default::default()
    });
    for report in ex.sweep_all_designs(&Scenario::three_thread_cycle()) {
        assert!(
            report.clean(),
            "design {:?} violated SC:\n{}",
            report.design,
            report.violation.unwrap()
        );
    }
}

/// The deliberately broken design (weak fences with no safety net) is
/// caught by the same sweep that certifies the safe designs — the oracle
/// itself is live.
#[test]
fn broken_design_is_caught_by_the_same_sweep() {
    let ex = Explorer::new(ExploreConfig {
        seeds: 64,
        ..Default::default()
    });
    let sc = Scenario::store_buffering(true).with_roles_for(FenceDesign::WfOnlyUnsafe);
    let report = ex.sweep(&sc, FenceDesign::WfOnlyUnsafe);
    assert!(
        !report.clean(),
        "wf-only design must fail a perturbation sweep"
    );
}

/// All five safe designs are covered by `ALL_DESIGNS` (guards against the
/// list drifting when designs are added).
#[test]
fn all_designs_covers_the_paper_taxonomy() {
    assert_eq!(ALL_DESIGNS.len(), 5);
    assert!(ALL_DESIGNS.contains(&FenceDesign::SPlus));
    assert!(ALL_DESIGNS.contains(&FenceDesign::WsPlus));
    assert!(ALL_DESIGNS.contains(&FenceDesign::SwPlus));
    assert!(ALL_DESIGNS.contains(&FenceDesign::WPlus));
    assert!(ALL_DESIGNS.contains(&FenceDesign::Wee));
}
