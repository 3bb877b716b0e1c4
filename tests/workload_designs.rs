//! Cross-crate integration tests: every workload group under every fence
//! design must terminate, preserve its correctness invariant, and show
//! the paper's performance ordering.

use asymfence_suite::prelude::*;
use asymfence_suite::workloads::bakery::{self, RoleAssign};
use asymfence_suite::workloads::cilk::{self, CilkApp, CilkWorker};
use asymfence_suite::workloads::stamp::{self, StampApp};
use asymfence_suite::workloads::tlrw;
use asymfence_suite::workloads::ustm::{self, UstmBench};

const ALL_DESIGNS: [FenceDesign; 5] = [
    FenceDesign::SPlus,
    FenceDesign::WsPlus,
    FenceDesign::SwPlus,
    FenceDesign::WPlus,
    FenceDesign::Wee,
];

fn cfg(design: FenceDesign, cores: usize) -> MachineConfig {
    MachineConfig::builder()
        .cores(cores)
        .fence_design(design)
        .seed(99)
        .build()
}

#[test]
fn cilk_every_design_executes_every_task_exactly_once() {
    for design in ALL_DESIGNS {
        let c = cfg(design, 4);
        let mut m = Machine::new(&c);
        for p in cilk::programs(CilkApp::Knapsack, &c, 5) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished, "{design}");
        let executed: u64 = m.threads_of::<CilkWorker>().map(|w| w.executed).sum();
        assert_eq!(
            executed,
            CilkApp::Knapsack.profile().total_tasks(4),
            "{design}: lost or duplicated tasks"
        );
    }
}

#[test]
fn cilk_weak_designs_never_run_slower_than_s_plus() {
    let base = {
        let c = cfg(FenceDesign::SPlus, 4);
        let mut m = Machine::new(&c);
        for p in cilk::programs(CilkApp::Fib, &c, 1) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
        m.now()
    };
    for design in [FenceDesign::WsPlus, FenceDesign::SwPlus, FenceDesign::WPlus] {
        let c = cfg(design, 4);
        let mut m = Machine::new(&c);
        for p in cilk::programs(CilkApp::Fib, &c, 1) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
        assert!(
            m.now() as f64 <= base as f64 * 1.05,
            "{design} regressed fib: {} vs {base}",
            m.now()
        );
    }
}

#[test]
fn ustm_counter_is_exactly_serialized() {
    // The Counter benchmark increments a single location; committed
    // transactions must serialize, so throughput still must be positive
    // and no design may deadlock.
    for design in ALL_DESIGNS {
        let c = cfg(design, 4);
        let mut m = Machine::new(&c);
        for p in ustm::programs(UstmBench::Counter, &c, 3, Some(15)) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished, "{design}");
        let (commits, _) = tlrw::tally(&m);
        assert_eq!(commits, 60, "{design}");
    }
}

#[test]
fn ustm_throughput_ordering_matches_figure9() {
    // W+ >= WS+ >= S+ on a fence-bound microbenchmark (allowing noise).
    let commits = |design| {
        let c = cfg(design, 8);
        let mut m = Machine::new(&c);
        for p in ustm::programs(UstmBench::ReadNWrite1, &c, 7, None) {
            m.add_thread(p);
        }
        m.run(600_000);
        tlrw::tally(&m).0 as f64
    };
    let s = commits(FenceDesign::SPlus);
    let ws = commits(FenceDesign::WsPlus);
    let w = commits(FenceDesign::WPlus);
    assert!(ws > 0.95 * s, "WS+ at least matches S+: {ws} vs {s}");
    assert!(w > 0.95 * ws, "W+ at least matches WS+: {w} vs {ws}");
    assert!(
        w > 1.02 * s,
        "W+ beats S+ on a fence-bound load: {w} vs {s}"
    );
}

#[test]
fn stamp_apps_run_under_weak_designs() {
    for design in [FenceDesign::WsPlus, FenceDesign::WPlus, FenceDesign::Wee] {
        let c = cfg(design, 2);
        let mut m = Machine::new(&c);
        for p in stamp::programs(StampApp::Kmeans, &c, 11) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished, "{design}");
        let (commits, _) = tlrw::tally(&m);
        assert_eq!(
            commits,
            2 * StampApp::Kmeans.commits_per_thread(),
            "{design}"
        );
    }
}

#[test]
fn bakery_mutual_exclusion_across_designs_and_roles() {
    for (design, roles) in [
        (FenceDesign::SPlus, RoleAssign::PriorityThread0),
        (FenceDesign::WsPlus, RoleAssign::PriorityThread0),
        (FenceDesign::SwPlus, RoleAssign::PriorityThread0),
        (FenceDesign::WPlus, RoleAssign::AllCritical),
        (FenceDesign::Wee, RoleAssign::AllCritical),
    ] {
        let c = cfg(design, 3);
        let mut m = Machine::new(&c);
        for p in bakery::programs(&c, roles, 5, 13) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished, "{design}");
        let (entries, violations) = bakery::tally(&m);
        assert_eq!(entries, 15, "{design}");
        assert_eq!(violations, 0, "{design}: mutual exclusion broken");
    }
}

#[test]
fn deterministic_full_stack_runs() {
    let fingerprint = || {
        let c = cfg(FenceDesign::WPlus, 4);
        let mut m = Machine::new(&c);
        for p in ustm::programs(UstmBench::Mcas, &c, 21, Some(25)) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
        let s = m.stats();
        (s.cycles, s.aggregate(), tlrw::tally(&m))
    };
    assert_eq!(fingerprint(), fingerprint(), "cycle-exact reproducibility");
}

#[test]
fn scalability_machines_build_at_all_core_counts() {
    for cores in [4, 8, 16, 32] {
        let c = cfg(FenceDesign::WsPlus, cores);
        let mut m = Machine::new(&c);
        for p in cilk::programs(CilkApp::Bucket, &c, 2) {
            m.add_thread(p);
        }
        assert_eq!(m.run(2_000_000_000), RunOutcome::Finished, "{cores} cores");
        let stats = m.stats();
        assert_eq!(stats.cores.len(), cores);
    }
}

#[test]
fn cycle_accounting_is_exact() {
    // Every core cycle lands in exactly one bucket.
    let c = cfg(FenceDesign::WsPlus, 4);
    let mut m = Machine::new(&c);
    for p in cilk::programs(CilkApp::Bucket, &c, 3) {
        m.add_thread(p);
    }
    assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
    let stats = m.stats();
    for (i, core) in stats.cores.iter().enumerate() {
        assert_eq!(
            core.total_cycles(),
            stats.cycles,
            "core {i}: buckets must sum to the run length"
        );
    }
}

#[test]
fn idioms_biased_and_dcl_work_under_asymmetric_fences() {
    use asymfence_suite::workloads::{biased, dcl};
    let c = cfg(FenceDesign::WsPlus, 3);
    let mut m = Machine::new(&c);
    for p in biased::programs(&c, 20, 2, 1) {
        m.add_thread(p);
    }
    assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
    let (entries, violations) = biased::tally(&m);
    assert_eq!(entries, 20 + 2 * 2);
    assert_eq!(violations, 0);

    let mut m = Machine::new(&c);
    for p in dcl::programs(&c, 10, 2) {
        m.add_thread(p);
    }
    assert_eq!(m.run(2_000_000_000), RunOutcome::Finished);
    let (_, inits, torn) = dcl::tally(&m);
    assert_eq!(inits, 1);
    assert_eq!(torn, 0);
}

#[test]
fn inferred_placement_fences_exactly_the_litmus_cycles() {
    use asymfence_suite::unfenced::{fences_per_thread, keeps_sc, programs, SHAPES};
    let expected = [vec![1, 1], vec![0, 0], vec![1, 1, 1], vec![0, 0]];
    for (shape, per_thread) in SHAPES.into_iter().zip(expected) {
        let cfg = MachineConfig::builder().cores(per_thread.len()).build();
        let placement = asymfence_analyze::infer_placement(|_| programs(shape), &cfg);
        assert_eq!(
            fences_per_thread(&placement, per_thread.len()),
            per_thread,
            "{shape}"
        );
        for design in [FenceDesign::SPlus, FenceDesign::WsPlus] {
            assert!(
                keeps_sc(shape, Some(&placement), design),
                "{shape} fenced, {design}"
            );
        }
    }
    assert!(
        !keeps_sc("store buffering", None, FenceDesign::SPlus),
        "unfenced store buffering must violate SC"
    );
}
