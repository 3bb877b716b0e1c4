//! The `--metrics` collector: harness-performance telemetry for the run
//! engine.
//!
//! A [`Collector`] rides along on a [`Runner`] (attached by
//! `cli::runner` when `--metrics PATH` is given). While a batch runs, the
//! runner measures each spec's wall-clock and harvests the per-class
//! fence tallies every machine folds as it runs — untraced, so a
//! `--metrics` run simulates at the speed of a plain one; after the
//! batch returns, the results are folded into the collector **serially
//! in spec order**, so the accumulated state — entry order included —
//! is deterministic at any worker count.
//!
//! Cells aggregate per `(section, workload, design)`: simulation
//! counters and [`FenceTally`] histograms merge exactly (associative
//! merges), wall-clock sums. [`Collector::snapshot`] renders everything
//! as a [`BenchSnapshot`]; [`write_if_requested`] writes the JSON file.
//!
//! In deterministic mode ([`telemetry::DETERMINISTIC_ENV`]) every
//! wall-clock/RSS field is masked to 0 *at collection time*, which makes
//! snapshot bytes identical across worker counts and machines — the mode
//! `results/bench_baseline.json` is generated with and ci.sh diffs
//! under.

use std::sync::Mutex;

use asymfence::prelude::FenceClass;
use asymfence_common::ledger::CellRecord;
use asymfence_common::telemetry::{
    self, BenchSnapshot, FenceLatencySummary, MetricEntry, PhaseTimer, Stopwatch,
};
use asymfence_common::trace::FenceTally;
use asymfence_common::MachineStats;

use crate::cli::Opts;
use crate::runner::{RunSpec, Runner};
use crate::RunResult;

/// Section name used before any `begin_section` call (single-figure
/// binaries set a real section immediately; this only shows up for bare
/// `Runner::run` callers).
pub const DEFAULT_SECTION: &str = "main";

#[derive(Debug)]
struct EntryAgg {
    section: String,
    workload: String,
    design: String,
    runs: u64,
    wall_ns: u64,
    wall_min_ns: u64,
    wall_max_ns: u64,
    cycles: u64,
    commits: u64,
    aborts: u64,
    stats: MachineStats,
    tallies: [FenceTally; 3],
    sites_discovered: u64,
    cycles_enumerated: u64,
    masks_pruned: u64,
    oracle_runs: u64,
}

impl EntryAgg {
    fn new(section: String, workload: String, design: String) -> Self {
        EntryAgg {
            section,
            workload,
            design,
            runs: 0,
            wall_ns: 0,
            wall_min_ns: u64::MAX,
            wall_max_ns: 0,
            cycles: 0,
            commits: 0,
            aborts: 0,
            stats: MachineStats::default(),
            tallies: Default::default(),
            sites_discovered: 0,
            cycles_enumerated: 0,
            masks_pruned: 0,
            oracle_runs: 0,
        }
    }

    /// Folds one executed run (wall-clock already masked as the
    /// collector requires).
    fn add(
        &mut self,
        wall_ns: u64,
        cycles: u64,
        commits: u64,
        aborts: u64,
        stats: &MachineStats,
        tallies: [&FenceTally; 3],
    ) {
        self.runs += 1;
        self.wall_ns += wall_ns;
        self.wall_min_ns = self.wall_min_ns.min(wall_ns);
        self.wall_max_ns = self.wall_max_ns.max(wall_ns);
        self.cycles += cycles;
        self.commits += commits;
        self.aborts += aborts;
        self.stats.merge(stats);
        for (agg, tally) in self.tallies.iter_mut().zip(tallies) {
            agg.merge(tally);
        }
    }
}

#[derive(Debug)]
struct State {
    section: String,
    phases: PhaseTimer,
    entries: Vec<EntryAgg>,
}

impl State {
    /// The `(section, workload, design)` cell, created on first use so
    /// entries keep first-record order.
    fn entry(&mut self, section: &str, workload: &str, design: &str) -> &mut EntryAgg {
        let idx = match self
            .entries
            .iter()
            .position(|e| e.section == section && e.workload == workload && e.design == design)
        {
            Some(i) => i,
            None => {
                self.entries.push(EntryAgg::new(
                    section.to_string(),
                    workload.to_string(),
                    design.to_string(),
                ));
                self.entries.len() - 1
            }
        };
        &mut self.entries[idx]
    }
}

/// Accumulates harness telemetry across every batch a [`Runner`] runs.
/// Shared via `Arc`, locked internally; all mutation happens serially
/// (the runner records *after* its parallel fan-out returns), so the
/// lock is never contended and the accumulated order is deterministic.
#[derive(Debug)]
pub struct Collector {
    deterministic: bool,
    lifetime: Stopwatch,
    state: Mutex<State>,
}

impl Collector {
    /// A fresh collector. `deterministic` masks every wall-clock/RSS
    /// field to 0 at collection time (see the module docs); pass
    /// [`telemetry::deterministic_from_env`] to honour the environment.
    pub fn new(deterministic: bool) -> Self {
        Collector {
            deterministic,
            lifetime: Stopwatch::start(),
            state: Mutex::new(State {
                section: DEFAULT_SECTION.to_string(),
                phases: PhaseTimer::new(),
                entries: Vec::new(),
            }),
        }
    }

    /// Marks the start of a report section (figure name, `synth`, …):
    /// subsequent runs aggregate under it and the per-section phase
    /// timer switches over.
    pub fn begin_section(&self, name: &str) {
        let mut s = self.state.lock().unwrap();
        s.section = name.to_string();
        s.phases.enter(name);
    }

    /// Folds one executed spec, with its fence tallies in
    /// [`FenceClass::ALL`] order, into its `(section, workload, design)`
    /// cell. Called serially in spec order by [`Runner::run`].
    pub fn record(
        &self,
        spec: &RunSpec,
        result: &RunResult,
        wall_ns: u64,
        tallies: &[FenceTally; 3],
    ) {
        let wall_ns = if self.deterministic { 0 } else { wall_ns };
        let mut s = self.state.lock().unwrap();
        let section = s.section.clone();
        s.entry(&section, &spec.workload.name(), spec.design.label())
            .add(
                wall_ns,
                result.cycles,
                result.commits,
                result.aborts,
                &result.stats,
                tallies.each_ref(),
            );
    }

    /// Folds one journaled sweep cell into its `(cell section,
    /// workload, design)` cell — the replay [`crate::ledger::merge_dir`]
    /// runs in grid-index order, so a merged ledger aggregates exactly
    /// like the single-process run that [`Collector::record`] saw.
    pub fn record_cell(&self, cell: &CellRecord) {
        let wall_ns = if self.deterministic { 0 } else { cell.wall_ns };
        self.state
            .lock()
            .unwrap()
            .entry(&cell.section, &cell.workload, &cell.design)
            .add(
                wall_ns,
                cell.cycles,
                cell.commits,
                cell.aborts,
                &cell.stats,
                cell.tallies.each_ref(),
            );
    }

    /// Folds one analyzer pass's counters into the `(current section,
    /// workload, design)` cell, creating it if no simulation run touched
    /// it yet. The fields are additive-schema extras on
    /// [`MetricEntry`]: cells that never see an analyzer pass keep them
    /// at 0 and their JSON bytes unchanged.
    pub fn record_analysis(
        &self,
        workload: &str,
        design: &str,
        sites_discovered: u64,
        cycles_enumerated: u64,
        masks_pruned: u64,
        oracle_runs: u64,
    ) {
        let mut s = self.state.lock().unwrap();
        let section = s.section.clone();
        let agg = s.entry(&section, workload, design);
        agg.sites_discovered += sites_discovered;
        agg.cycles_enumerated += cycles_enumerated;
        agg.masks_pruned += masks_pruned;
        agg.oracle_runs += oracle_runs;
    }

    /// Renders everything collected so far as a [`BenchSnapshot`].
    pub fn snapshot(&self, label: &str, quick: bool) -> BenchSnapshot {
        let mut s = self.state.lock().unwrap();
        s.phases.finish();
        let mut snap = BenchSnapshot::new(label);
        snap.stamp_host(self.deterministic, &self.lifetime);
        snap.quick = quick;
        // Pool counters depend on how specs land on worker threads, so
        // the deterministic mode masks them exactly like wall-clock.
        snap.pool = if self.deterministic {
            asymfence_common::telemetry::PoolTelemetry::default()
        } else {
            let p = crate::pool::stats();
            asymfence_common::telemetry::PoolTelemetry {
                acquires: p.acquires,
                reuses: p.reuses,
                builds: p.builds,
                bytes_reused: p.bytes_reused,
            }
        };
        snap.phases = s
            .phases
            .phases()
            .iter()
            .map(|(name, ns)| (name.clone(), if self.deterministic { 0 } else { *ns }))
            .collect();
        for agg in &s.entries {
            let mut e = MetricEntry::new(&agg.section, &agg.workload, &agg.design);
            e.runs = agg.runs;
            e.sim_cycles = agg.cycles;
            let a = agg.stats.aggregate();
            e.instrs_retired = a.instrs_retired;
            e.commits = agg.commits;
            e.aborts = agg.aborts;
            e.wall_ns = agg.wall_ns;
            e.task_wall_min_ns = if agg.wall_min_ns == u64::MAX {
                0
            } else {
                agg.wall_min_ns
            };
            e.task_wall_max_ns = agg.wall_max_ns;
            e.derived = agg.stats.derived();
            e.sites_discovered = agg.sites_discovered;
            e.cycles_enumerated = agg.cycles_enumerated;
            e.masks_pruned = agg.masks_pruned;
            e.oracle_runs = agg.oracle_runs;
            for (i, class) in FenceClass::ALL.iter().enumerate() {
                if agg.tallies[i].issued > 0 {
                    e.fences.push(FenceLatencySummary::from_tally(
                        class.label(),
                        &agg.tallies[i],
                    ));
                }
            }
            snap.entries.push(e);
        }
        snap
    }
}

/// If `--metrics PATH` was given (so the runner carries a collector),
/// snapshots it and writes it to the path
/// ([`BenchSnapshot::write_to`]). Called once by each binary after its
/// sections finish. The error names the path and the OS error.
pub fn write_if_requested(runner: &Runner, opts: &Opts) -> Result<(), String> {
    let (Some(path), Some(collector)) = (opts.metrics.as_deref(), runner.collector()) else {
        return Ok(());
    };
    collector
        .snapshot(&telemetry::label_from_path(path), opts.quick)
        .write_to(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::FenceDesign;
    use asymfence_workloads::cilk::CilkApp;
    use asymfence_workloads::ustm::UstmBench;

    fn runs(collector: &Collector, specs: &[RunSpec]) {
        for spec in specs {
            let t = Stopwatch::start();
            let (result, sink) = spec.execute_traced();
            let tallies = FenceClass::ALL.map(|class| sink.tally(class).clone());
            collector.record(spec, &result, t.elapsed_ns(), &tallies);
        }
    }

    #[test]
    fn cells_aggregate_by_section_workload_design() {
        let c = Collector::new(true);
        c.begin_section("figX");
        let spec = RunSpec::ustm(
            UstmBench::Counter,
            FenceDesign::WsPlus,
            2,
            crate::SEED,
            20_000,
        );
        runs(&c, &[spec, spec]); // same key twice
        c.begin_section("figY");
        runs(
            &c,
            &[RunSpec::cilk(
                CilkApp::Fib,
                FenceDesign::SPlus,
                2,
                crate::SEED,
            )],
        );

        let snap = c.snapshot("t", true);
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(snap.sections(), vec!["figX", "figY"]);
        let cell = snap.entry("figX", "Counter", "WS+").unwrap();
        assert_eq!(cell.runs, 2);
        assert!(cell.sim_cycles > 0);
        assert!(cell.instrs_retired > 0);
        assert!(cell.commits > 0, "ustm counter commits transactions");
        assert!(
            cell.fences.iter().any(|f| f.issued > 0 && f.completed > 0),
            "fence summaries only include classes that fired: {:?}",
            cell.fences
        );
        // Deterministic mode masked every wall field.
        assert_eq!(cell.wall_ns, 0);
        assert_eq!(snap.total_wall_ns, 0);
        assert_eq!(snap.peak_rss_bytes, 0);
        assert!(snap.phases.iter().all(|(_, ns)| *ns == 0));
    }

    #[test]
    fn non_deterministic_mode_keeps_wall_clock() {
        let c = Collector::new(false);
        c.begin_section("fig");
        runs(
            &c,
            &[RunSpec::ustm(
                UstmBench::Counter,
                FenceDesign::SPlus,
                2,
                crate::SEED,
                20_000,
            )],
        );
        let snap = c.snapshot("t", false);
        let cell = &snap.entries[0];
        assert!(cell.wall_ns > 0);
        assert!(cell.task_wall_min_ns > 0 && cell.task_wall_min_ns <= cell.task_wall_max_ns);
        assert!(snap.total_wall_ns >= cell.wall_ns);
        assert!(cell.sim_cycles_per_sec() > 0.0);
    }

    #[test]
    fn analysis_counters_land_in_their_cell_and_only_there() {
        let c = Collector::new(true);
        c.begin_section("analyze");
        c.record_analysis("peterson", "WS+", 2, 3, 5, 40);
        c.record_analysis("peterson", "WS+", 0, 0, 2, 8); // accumulates
        c.begin_section("fig");
        runs(
            &c,
            &[RunSpec::ustm(
                UstmBench::Counter,
                FenceDesign::SPlus,
                2,
                crate::SEED,
                20_000,
            )],
        );

        let snap = c.snapshot("t", true);
        let cell = snap.entry("analyze", "peterson", "WS+").unwrap();
        assert_eq!(cell.sites_discovered, 2);
        assert_eq!(cell.cycles_enumerated, 3);
        assert_eq!(cell.masks_pruned, 7);
        assert_eq!(cell.oracle_runs, 48);
        // The analyzer fields are additive schema: cells without them
        // keep them at zero and omit them from the JSON entirely.
        let sim = snap.entry("fig", "Counter", "S+").unwrap();
        assert_eq!(sim.sites_discovered, 0);
        assert!(!snap.to_json().contains("\"sites_discovered\": 0"));
    }
}
