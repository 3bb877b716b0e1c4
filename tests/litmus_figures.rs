//! Integration tests reproducing the paper's figures 1, 3 and 4 across
//! the whole stack (machine + coherence + fence designs + SCV checker).

use asymfence_suite::prelude::*;
use asymfence_suite::workloads::litmus::{self, observed, LitmusSetup};
use FenceRole::{Critical, NonCritical};

fn machine_for(setup: &LitmusSetup, design: FenceDesign) -> MachineConfig {
    MachineConfig::builder()
        .cores(setup.0.len().max(2))
        .fence_design(design)
        .watchdog_cycles(30_000)
        .record_scv_log(true)
        .build()
}

fn run(design: FenceDesign, setup: LitmusSetup, max: u64) -> (RunOutcome, Vec<u64>, bool) {
    let cfg = machine_for(&setup, design);
    let mut m = Machine::new(&cfg);
    let (progs, regs) = setup;
    for p in progs {
        m.add_thread(p);
    }
    let outcome = m.run(max);
    let scv = m.scv_log().map(scv::has_violation).unwrap_or(false);
    (outcome, regs.iter().map(observed).collect(), scv)
}

#[test]
fn fig1b_unfenced_store_buffering_is_an_scv() {
    let (outcome, vals, scv) = run(
        FenceDesign::SPlus,
        litmus::store_buffering(None),
        10_000_000,
    );
    assert_eq!(outcome, RunOutcome::Finished);
    assert_eq!(vals, vec![0, 0], "TSO reorders the unfenced SB pattern");
    assert!(scv, "the checker must report the Shasha-Snir cycle");
}

#[test]
fn fig1d_fenced_store_buffering_is_sc_under_every_design() {
    for design in [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ] {
        let (outcome, vals, scv) = run(
            design,
            litmus::store_buffering(Some((Critical, NonCritical))),
            30_000_000,
        );
        assert_eq!(outcome, RunOutcome::Finished, "{design}");
        assert_ne!(vals, vec![0, 0], "{design}");
        assert!(!scv, "{design} preserved SC");
    }
}

#[test]
fn fig1f_three_fences_prevent_the_three_thread_cycle() {
    for (design, roles) in [
        (FenceDesign::SPlus, [NonCritical; 3]),
        (FenceDesign::WsPlus, [Critical, NonCritical, NonCritical]),
        (FenceDesign::SwPlus, [Critical, Critical, NonCritical]),
        (FenceDesign::WPlus, [Critical; 3]),
        (FenceDesign::Wee, [Critical; 3]),
    ] {
        let (outcome, vals, scv) = run(design, litmus::three_thread_cycle(roles), 60_000_000);
        assert_eq!(outcome, RunOutcome::Finished, "{design}");
        assert_ne!(vals, vec![0, 0, 0], "{design}");
        assert!(!scv, "{design}");
    }
}

#[test]
fn fig3a_unprotected_weak_fences_deadlock() {
    let setup = litmus::store_buffering(Some((Critical, Critical)));
    let mut m = Machine::new(&machine_for(&setup, FenceDesign::WfOnlyUnsafe));
    for p in setup.0 {
        m.add_thread(p);
    }
    assert_eq!(m.run(10_000_000), RunOutcome::Deadlocked);
    // A genuine deadlock has no progress steps, so the store-drain check
    // never runs and the watchdog fires at its exact horizon.
    assert_eq!(m.now(), 30_846);
}

/// Dekker under SW+ with both entry fences weak (mask `0b101` over
/// `t0.entry, t0.backoff, t1.entry, t1.backoff`): both cores keep
/// retiring spin loads while their flag stores bounce off each other's
/// Bypass Sets forever (SW+ has no W+ timeout). The synthesis oracle
/// builds exactly this machine; the watchdog must stop it near its
/// horizon instead of simulating to the explorer's 1M-cycle budget.
#[test]
fn sw_plus_store_bounce_livelock_stops_at_the_watchdog() {
    use asymfence_suite::workloads::sites::SiteBench;
    let bench = SiteBench::Dekker;
    let watchdog = 20_000;
    let mut cfg = MachineConfig::builder()
        .cores(bench.cores())
        .fence_design(FenceDesign::SwPlus)
        .seed(0)
        .record_scv_log(true)
        .watchdog_cycles(watchdog)
        .build();
    let sites: Vec<u32> = bench.sites(&cfg).iter().map(|s| s.site.raw()).collect();
    cfg.fence_assignment = Some(FenceAssignment::from_weak_mask(&sites, 0b101));
    let mut m = Machine::new(&cfg);
    for p in bench.programs(&cfg, 0) {
        m.add_thread(p);
    }
    assert_eq!(m.run(1_000_000), RunOutcome::Deadlocked);
    assert!(m.stats().deadlocked);
    assert!(m.now() < 2 * watchdog, "stopped at cycle {}", m.now());
}

#[test]
fn fig3b_one_conventional_fence_avoids_the_deadlock() {
    // Same crossed pattern, but one side uses a strong fence: under
    // WS+/SW+ the group is asymmetric and must complete.
    for design in [FenceDesign::WsPlus, FenceDesign::SwPlus] {
        let (outcome, vals, scv) = run(
            design,
            litmus::store_buffering(Some((Critical, NonCritical))),
            30_000_000,
        );
        assert_eq!(outcome, RunOutcome::Finished, "{design}");
        assert!(!scv);
        assert_ne!(vals, vec![0, 0]);
    }
}

#[test]
fn fig4b_false_sharing_cycle_is_resolved_without_deadlock() {
    for design in [FenceDesign::WsPlus, FenceDesign::SwPlus, FenceDesign::WPlus] {
        let (outcome, _, scv) = run(
            design,
            litmus::false_sharing_pair(Critical, Critical),
            60_000_000,
        );
        assert_eq!(outcome, RunOutcome::Finished, "{design}");
        assert!(!scv, "{design}: false sharing is not an SCV");
    }
}

#[test]
fn w_plus_recovery_counts_are_visible_in_stats() {
    let setup = litmus::store_buffering(Some((Critical, Critical)));
    let cfg = machine_for(&setup, FenceDesign::WPlus);
    let mut m = Machine::new(&cfg);
    let (progs, regs) = setup;
    for p in progs {
        m.add_thread(p);
    }
    assert_eq!(m.run(30_000_000), RunOutcome::Finished);
    let stats = m.stats();
    assert!(
        stats.aggregate().recoveries >= 1,
        "the all-weak SB group forces at least one rollback"
    );
    assert_ne!(
        regs.iter().map(observed).collect::<Vec<_>>(),
        vec![0, 0],
        "recovery preserves SC"
    );
}

#[test]
fn message_passing_needs_no_fence_under_tso() {
    let (progs, regs) = litmus::message_passing();
    let cfg = MachineConfig::builder().cores(2).build();
    let mut m = Machine::new(&cfg);
    for p in progs {
        m.add_thread(p);
    }
    assert_eq!(m.run(10_000_000), RunOutcome::Finished);
    let flag = *regs[1].borrow().get(&2).unwrap();
    if flag == 1 {
        assert_eq!(observed(&regs[1]), 1, "no store-store reordering under TSO");
    }
}
