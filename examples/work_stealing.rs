//! Work stealing: run a Cilk-style application on the THE deque and show
//! how asymmetric fences (weak fence for the owner, strong for the thief)
//! recover the fence stall of the owner's `take()`.
//!
//! Run with: `cargo run --release --example work_stealing [app]`

use asymfence_suite::prelude::*;
use asymfence_suite::workloads::cilk::{self, CilkApp, CilkWorker};

fn main() {
    let app_name = std::env::args().nth(1).unwrap_or_else(|| "fib".into());
    let app = CilkApp::ALL
        .into_iter()
        .find(|a| a.name() == app_name)
        .unwrap_or_else(|| {
            eprintln!("unknown app {app_name:?}; using fib");
            CilkApp::Fib
        });

    println!("work stealing: {} on 8 cores\n", app.name());
    let mut baseline_cycles = None;
    for design in [FenceDesign::SPlus, FenceDesign::WsPlus, FenceDesign::WPlus] {
        let cfg = MachineConfig::builder()
            .cores(8)
            .fence_design(design)
            .seed(2015)
            .build();
        let mut m = Machine::new(&cfg);
        cilk::setup(&mut m, app, cfg.seed);
        let outcome = m.run(2_000_000_000);
        assert_eq!(outcome, RunOutcome::Finished, "{design}");

        let stats = m.stats();
        let agg = stats.aggregate();
        let (mut executed, mut stolen) = (0u64, 0u64);
        for w in m.threads_of::<CilkWorker>() {
            executed += w.executed;
            stolen += w.stolen;
        }
        let base = *baseline_cycles.get_or_insert(stats.cycles);
        println!(
            "{:>4}: {:>10} cycles ({:>5.1}% of S+) | tasks {executed} (stolen {stolen}, {:.2}%) \
             | fence stall {:.1}% of core time",
            design.label(),
            stats.cycles,
            100.0 * stats.cycles as f64 / base as f64,
            100.0 * stolen as f64 / executed.max(1) as f64,
            100.0 * stats.fence_stall_fraction(),
        );
        let _ = agg;
    }
}
