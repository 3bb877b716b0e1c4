//! Litmus matrix: run the paper's figure scenarios under every design and
//! verify SC with the Shasha–Snir cycle checker — including the Figure 3a
//! deadlock of unprotected weak fences and its W+ recovery.
//!
//! Run with: `cargo run --example litmus_scv`

use asymfence_suite::prelude::*;
use asymfence_suite::workloads::litmus;

fn run_case(name: &str, design: FenceDesign, setup: litmus::LitmusSetup, expect_deadlock: bool) {
    let (progs, _regs) = setup;
    let cfg = MachineConfig::builder()
        .cores(progs.len().max(2))
        .fence_design(design)
        .watchdog_cycles(30_000)
        .record_scv_log(true)
        .build();
    let mut m = Machine::new(&cfg);
    for p in progs {
        m.add_thread(p);
    }
    let outcome = m.run(50_000_000);
    let verdict = match outcome {
        RunOutcome::Deadlocked if expect_deadlock => "deadlock (expected)".to_string(),
        RunOutcome::Deadlocked => "DEADLOCK (unexpected!)".to_string(),
        RunOutcome::Finished => {
            let log = m.scv_log().expect("scv log enabled");
            match scv::find_cycle(log) {
                None => format!("SC preserved ({} accesses checked)", log.len()),
                Some(c) => format!("SC VIOLATION!\n{}", scv::describe_cycle(log, &c)),
            }
        }
        RunOutcome::CycleLimit => "cycle limit".to_string(),
    };
    println!("  {:<14} {:>5}: {}", name, design.label(), verdict);
}

fn main() {
    use FenceRole::{Critical, NonCritical};
    println!("litmus matrix (paper figures 1, 3, 4)\n");

    for design in [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ] {
        run_case(
            "SB (fig 1d)",
            design,
            litmus::store_buffering(Some((Critical, NonCritical))),
            false,
        );
    }
    for design in [FenceDesign::WsPlus, FenceDesign::SwPlus] {
        run_case(
            "3-thread (3c)",
            design,
            litmus::three_thread_cycle([Critical, NonCritical, NonCritical]),
            false,
        );
    }
    run_case(
        "3-thread (3c)",
        FenceDesign::WPlus,
        litmus::three_thread_cycle([Critical; 3]),
        false,
    );
    for design in [FenceDesign::WsPlus, FenceDesign::SwPlus, FenceDesign::WPlus] {
        run_case(
            "false-share(4b)",
            design,
            litmus::false_sharing_pair(Critical, Critical),
            false,
        );
    }
    run_case(
        "fig 3a",
        FenceDesign::WfOnlyUnsafe,
        litmus::false_sharing_pair(Critical, Critical),
        true,
    );
    println!("\nall scenarios behaved as the paper describes.");
}
