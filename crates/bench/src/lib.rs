//! Experiment harness regenerating the paper's evaluation.
//!
//! The harness is layered:
//!
//! 1. [`runner`] — the unified run engine: a [`RunSpec`] describes one
//!    deterministic simulation as plain data and a [`Runner`] executes
//!    batches over a worker pool (`--jobs` / `ASF_JOBS`) with
//!    order-preserving aggregation.
//! 2. [`figures`] — every figure/table as a library function: build a
//!    spec grid, run it, format into a [`ReportSink`].
//! 3. [`report`] — markdown/CSV tables and the sink the figures emit to.
//! 4. [`cli`] — the shared flag parser for the `src/bin/` binaries
//!    (`--jobs`, `--designs`, `--filter`, `--quick`).
//!
//! One binary per table/figure (see `src/bin/`); every run is
//! deterministic for a given spec, so output is byte-identical at any
//! worker count. Results are printed as markdown tables and also written
//! as CSV under `results/`.
//!
//! | binary | artifact |
//! |--------|----------|
//! | `fig08_cilk` | Figure 8: CilkApps execution-time breakdown |
//! | `fig09_ustm_throughput` | Figure 9: ustm transactional throughput |
//! | `fig10_ustm_breakdown` | Figure 10: per-transaction cycle breakdown |
//! | `fig11_stamp` | Figure 11: STAMP execution time |
//! | `fig12_scalability` | Figure 12: fence-stall ratio at 4–32 cores |
//! | `table4_characterization` | Table 4: fence/BS/bounce/traffic stats |
//! | `litmus_matrix` | Figures 1/3/4 scenarios under every design |
//! | `ablations` | extension sweeps (BS size, timeout, backoff, mesh) |
//! | `all_experiments` | everything above, in sequence |
//! | `native_bench` | real-hardware kernels + sim-vs-silicon crossval ([`native`]) |
//! | `analyze` | whole-program fence inference + C11 lowering (crate `asymfence-analyze`) |
//! | `sweep` | sharded sweeps: durable run ledger ([`ledger`]), crash-safe shards ([`shard`]), fleet dashboard ([`status`]) |

use asymfence::prelude::*;

pub mod cli;
pub mod figures;
pub mod ledger;
pub mod metrics;
pub mod native;
pub mod pool;
pub mod report;
pub mod runner;
pub mod shard;
pub mod status;
pub mod trace;

pub use asymfence_common::assign::SiteMask;
pub use report::{f2, mean, pct, ReportSink, Table};
pub use runner::{Knobs, LitmusCase, RunSpec, Runner, Workload};

/// Designs compared in the figures, in the paper's order.
pub const DESIGNS: [FenceDesign; 4] = [
    FenceDesign::SPlus,
    FenceDesign::WsPlus,
    FenceDesign::WPlus,
    FenceDesign::Wee,
];

/// Default seed for every experiment (the paper's publication year).
pub const SEED: u64 = 2015;

/// Simulated-cycle window for throughput (ustm) runs.
pub const USTM_WINDOW: u64 = 1_500_000;

/// Hard ceiling for finite runs.
pub const MAX_CYCLES: u64 = 4_000_000_000;

/// Whether the environment asks for quick runs (`ASF_QUICK` set to
/// anything but `0`); the binaries' `--quick` flag sets the same
/// option on top.
pub fn quick() -> bool {
    std::env::var("ASF_QUICK").is_ok_and(|v| v != "0")
}

/// One run's outcome: cycle count plus merged statistics.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock cycles of the run.
    pub cycles: u64,
    /// Merged machine statistics.
    pub stats: MachineStats,
    /// Committed transactions (STM runs only).
    pub commits: u64,
    /// Aborted transactions (STM runs only).
    pub aborts: u64,
    /// How the run ended (litmus cases record deadlocks instead of
    /// panicking on them).
    pub outcome: RunOutcome,
    /// Whether the Shasha–Snir checker found a sequential-consistency
    /// violation (litmus runs with the SCV log enabled; `false` elsewhere).
    pub scv: bool,
}

impl RunResult {
    /// Busy / fence / other shares of non-idle core time.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let a = self.stats.aggregate();
        let active = (a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles).max(1);
        (
            a.busy_cycles as f64 / active as f64,
            a.fence_stall_cycles as f64 / active as f64,
            a.other_stall_cycles as f64 / active as f64,
        )
    }

    /// Folds `other` into `self`: cycles/commits/aborts add, the machine
    /// statistics merge via [`MachineStats::merge`], and the SCV flag is
    /// sticky. Used by Table 4 to aggregate a workload group; the first
    /// run's `outcome` is kept.
    pub fn merge(&mut self, other: &RunResult) {
        self.cycles += other.cycles;
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.stats.merge(&other.stats);
        self.scv |= other.scv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_workloads::cilk::CilkApp;
    use asymfence_workloads::ustm::UstmBench;

    #[test]
    fn cilk_runner_smoke() {
        let r = RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 7).execute();
        assert!(r.cycles > 0);
        assert_eq!(r.outcome, RunOutcome::Finished);
        let (busy, fence, other) = r.breakdown();
        assert!((busy + fence + other - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ustm_runner_smoke() {
        let r = RunSpec::ustm(UstmBench::Hash, FenceDesign::SPlus, 2, 7, 150_000).execute();
        assert!(r.commits > 0);
    }

    #[test]
    fn run_result_merge_accumulates() {
        let a = RunSpec::cilk(CilkApp::Fib, FenceDesign::SPlus, 2, 7).execute();
        let b = RunSpec::ustm(UstmBench::Counter, FenceDesign::SPlus, 2, 7, 40_000).execute();
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.cycles, a.cycles + b.cycles);
        assert_eq!(m.commits, b.commits);
        assert_eq!(
            m.stats.aggregate().instrs_retired,
            a.stats.aggregate().instrs_retired + b.stats.aggregate().instrs_retired
        );
    }
}
