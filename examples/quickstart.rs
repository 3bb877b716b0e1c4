//! Quickstart: build a machine, run a Dekker-style asymmetric fence
//! group, and compare the fence designs.
//!
//! Run with: `cargo run --example quickstart`

use asymfence_suite::prelude::*;

fn main() {
    println!("asymfence quickstart — Dekker flags under each fence design\n");

    // Two threads set crossed flags and then read the other's flag. The
    // fence between the store and the load keeps the execution
    // sequentially consistent: at least one thread must see the other's
    // flag set.
    for design in [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ] {
        let cfg = MachineConfig::builder()
            .cores(2)
            .fence_design(design)
            .build();
        let mut machine = Machine::new(&cfg);

        let x = Addr::new(0x00);
        let y = Addr::new(0x40);
        let (a, ra) = ScriptProgram::new(vec![
            Instr::Store { addr: x, value: 1 },
            // The hot thread's fence: weak under WS+/SW+/W+.
            Instr::fence(FenceRole::Critical),
            Instr::Load {
                addr: y,
                tag: Some(1),
            },
        ]);
        let (b, rb) = ScriptProgram::new(vec![
            Instr::Store { addr: y, value: 1 },
            // The rare thread's fence: strong under WS+/SW+.
            Instr::fence(FenceRole::NonCritical),
            Instr::Load {
                addr: x,
                tag: Some(1),
            },
        ]);
        machine.add_thread(Box::new(a));
        machine.add_thread(Box::new(b));

        let outcome = machine.run(1_000_000);
        assert_eq!(outcome, RunOutcome::Finished);

        let (r1, r2) = (ra.borrow()[&1], rb.borrow()[&1]);
        assert_ne!((r1, r2), (0, 0), "the non-SC outcome must never happen");

        let stats = machine.stats();
        let agg = stats.aggregate();
        println!(
            "{:>4}: {} cycles | fences sf={} wf={} | fence-stall {} cycles | outcome r1={r1} r2={r2}",
            design.label(),
            stats.cycles,
            agg.sf_count,
            agg.wf_count,
            agg.fence_stall_cycles,
        );
    }

    println!("\nEvery design preserved sequential consistency.");
}
