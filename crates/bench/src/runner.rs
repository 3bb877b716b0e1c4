//! The unified run engine: declarative [`RunSpec`]s executed by a
//! [`Runner`] over a worker pool.
//!
//! Every experiment in the harness — figure grids, Table 4, the litmus
//! matrix, the ablation sweeps — is an *independent* deterministic
//! simulation. A [`RunSpec`] captures everything one run needs (workload,
//! fence design, core count, seed, config knobs) as plain `Send` data;
//! [`Runner::run`] fans a batch out over `std::thread::scope` workers,
//! each of which builds its **own** [`Machine`] from the spec, and
//! returns results in spec order. Because runs share no mutable state and
//! aggregation is order-preserving, output produced from the results is
//! byte-identical no matter the worker count.
//!
//! Worker count: `--jobs N` on the binaries beats the `ASF_JOBS`
//! environment variable beats [`std::thread::available_parallelism`].
//! Progress lines (`[done/total] spec … (cycles, wall ms, eta ~…)`, the
//! ETA projected from the batch's observed completion rate) go to stderr
//! while a batch runs; they are suppressed when stderr is not a terminal or
//! `ASF_PROGRESS=0` (and forced on by `ASF_PROGRESS=1`).

use std::io::IsTerminal;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use asymfence::prelude::*;
use asymfence_common::par;
use asymfence_common::telemetry::{eta_ns, human_ns, Stopwatch};

use crate::metrics::Collector;
use asymfence::cpu::insert::FencedProgram;
use asymfence_common::placement::PlacementSpec;
use asymfence_workloads::cilk::{self, CilkApp};
use asymfence_workloads::litmus;
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::stamp::{self, StampApp};
use asymfence_workloads::tlrw;
use asymfence_workloads::unannot::InferredKernel;
use asymfence_workloads::ustm::{self, UstmBench};

use crate::{RunResult, MAX_CYCLES};

/// Environment variable controlling progress lines (`0` off, `1` force).
pub const PROGRESS_ENV: &str = "ASF_PROGRESS";

/// A litmus scenario as pure data (mirrors the builders in
/// [`asymfence_workloads::litmus`], so a [`RunSpec`] stays `Send`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LitmusCase {
    /// Store-buffering (Dekker), optionally fenced — Figure 1d.
    StoreBuffering {
        /// Fence roles for the two threads; `None` leaves them unfenced.
        fences: Option<(FenceRole, FenceRole)>,
    },
    /// Three threads in a cyclic communication pattern — Figures 1e/3c.
    ThreeThreadCycle {
        /// Fence role per thread.
        roles: [FenceRole; 3],
    },
    /// Two unrelated fences whose lines falsely share — Figure 4b.
    FalseSharingPair {
        /// Fence roles for the two threads.
        roles: (FenceRole, FenceRole),
    },
    /// Message passing, optionally fenced — SC under TSO either way
    /// (litmus-corpus case).
    MessagePassing {
        /// Fence roles for the two threads; `None` leaves them unfenced.
        fences: Option<(FenceRole, FenceRole)>,
    },
    /// Load buffering — SC under TSO without fences (litmus-corpus case).
    LoadBuffering,
    /// Independent reads of independent writes, four threads — SC under
    /// single-copy-atomic coherence without fences (litmus-corpus case).
    Iriw,
}

impl LitmusCase {
    /// Cores the scenario needs.
    pub fn cores(&self) -> usize {
        match self {
            LitmusCase::ThreeThreadCycle { .. } => 3,
            LitmusCase::Iriw => 4,
            _ => 2,
        }
    }

    fn setup(&self) -> litmus::LitmusSetup {
        match *self {
            LitmusCase::StoreBuffering { fences } => litmus::store_buffering(fences),
            LitmusCase::ThreeThreadCycle { roles } => litmus::three_thread_cycle(roles),
            LitmusCase::FalseSharingPair { roles } => litmus::false_sharing_pair(roles.0, roles.1),
            LitmusCase::MessagePassing { fences: None } => litmus::message_passing(),
            LitmusCase::MessagePassing {
                fences: Some((a, b)),
            } => litmus::message_passing_fenced(a, b),
            LitmusCase::LoadBuffering => litmus::load_buffering(),
            LitmusCase::Iriw => litmus::iriw(),
        }
    }
}

/// What a [`RunSpec`] simulates.
// `Inferred` embeds a fixed-capacity `PlacementSpec` (~1.2 KiB) by
// value: run specs must stay plain `Copy` data so the parallel runner
// can hand them to workers without allocation, and boxing the spec
// would forfeit that for every workload.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A CilkApp run to completion (Figures 8, 12, Table 4).
    Cilk(CilkApp),
    /// A ustm microbenchmark run for a fixed simulated window
    /// (Figures 9, 10, 12, Table 4, ablations).
    Ustm {
        /// The microbenchmark.
        bench: UstmBench,
        /// Simulated-cycle window.
        window: u64,
    },
    /// A STAMP app run to completion (Figures 11, 12, Table 4).
    Stamp(StampApp),
    /// A litmus scenario with outcome/SCV checking (Figures 1/3/4).
    Litmus(LitmusCase),
    /// A synthesis benchmark with per-site fence assignments (the
    /// [`sites`](asymfence_workloads::sites) drivers). Outcome and SCV
    /// status are *recorded*, never asserted: candidate assignments under
    /// search are allowed to deadlock or violate SC.
    Sites(SiteBench),
    /// An unannotated kernel executed under an analyzer-inferred fence
    /// placement: each thread is wrapped in a
    /// [`FencedProgram`] that
    /// injects fences at the placement's synthetic sites. Outcome and
    /// SCV status are recorded, never asserted — candidate placements
    /// and strength masks under search may fail.
    Inferred {
        /// The unannotated kernel.
        kernel: InferredKernel,
        /// The window patterns fences are injected at.
        placement: PlacementSpec,
    },
}

impl Workload {
    /// Short name, used for progress lines and `--filter`.
    pub fn name(&self) -> String {
        match self {
            Workload::Cilk(app) => app.name().to_string(),
            Workload::Ustm { bench, .. } => bench.name().to_string(),
            Workload::Stamp(app) => app.name().to_string(),
            Workload::Litmus(case) => match case {
                LitmusCase::StoreBuffering { fences: None } => "sb-unfenced".into(),
                LitmusCase::StoreBuffering { .. } => "sb-fenced".into(),
                LitmusCase::ThreeThreadCycle { .. } => "3cycle".into(),
                LitmusCase::FalseSharingPair { .. } => "false-sharing".into(),
                LitmusCase::MessagePassing { fences: None } => "mp-unfenced".into(),
                LitmusCase::MessagePassing { .. } => "mp-fenced".into(),
                LitmusCase::LoadBuffering => "lb".into(),
                LitmusCase::Iriw => "iriw".into(),
            },
            Workload::Sites(bench) => bench.name().to_string(),
            Workload::Inferred { kernel, .. } => format!("infer-{}", kernel.name()),
        }
    }
}

/// Config-knob overrides for ablation points. `None` keeps the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Knobs {
    /// Bypass-Set capacity.
    pub bs_entries: Option<usize>,
    /// Bounced-write retry backoff, in cycles.
    pub bounce_retry_cycles: Option<u64>,
    /// W+ deadlock-suspicion timeout, in cycles.
    pub w_timeout_cycles: Option<u64>,
    /// Write-buffer merge width.
    pub wb_merge_width: Option<usize>,
    /// Mesh hop latency, in cycles.
    pub hop_cycles: Option<u64>,
}

impl Knobs {
    fn apply(&self, mut b: MachineConfigBuilder) -> MachineConfigBuilder {
        if let Some(n) = self.bs_entries {
            b = b.bs_entries(n);
        }
        if let Some(n) = self.bounce_retry_cycles {
            b = b.bounce_retry_cycles(n);
        }
        if let Some(n) = self.w_timeout_cycles {
            b = b.w_timeout_cycles(n);
        }
        if let Some(n) = self.wb_merge_width {
            b = b.wb_merge_width(n);
        }
        if let Some(n) = self.hop_cycles {
            b = b.hop_cycles(n);
        }
        b
    }

    fn is_default(&self) -> bool {
        *self == Knobs::default()
    }
}

/// One fully-described deterministic simulation. Plain data (`Send` +
/// `Sync`), so a batch of specs can be executed by any worker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSpec {
    /// What to simulate.
    pub workload: Workload,
    /// Fence microarchitecture under test.
    pub design: FenceDesign,
    /// Core count.
    pub cores: usize,
    /// Seed for both the machine config and the workload generator.
    pub seed: u64,
    /// Ablation config overrides.
    pub knobs: Knobs,
    /// Per-site fence-strength override. `None` keeps the role-based
    /// mapping, which leaves every pre-existing figure byte-identical.
    pub assignment: Option<SiteMask>,
}

impl RunSpec {
    /// A spec with default knobs and the role-based fence mapping.
    pub(crate) fn new(workload: Workload, design: FenceDesign, cores: usize, seed: u64) -> Self {
        RunSpec {
            workload,
            design,
            cores,
            seed,
            knobs: Knobs::default(),
            assignment: None,
        }
    }

    /// A CilkApp spec.
    pub fn cilk(app: CilkApp, design: FenceDesign, cores: usize, seed: u64) -> Self {
        RunSpec::new(Workload::Cilk(app), design, cores, seed)
    }

    /// A ustm spec with a simulated-cycle window.
    pub fn ustm(
        bench: UstmBench,
        design: FenceDesign,
        cores: usize,
        seed: u64,
        window: u64,
    ) -> Self {
        RunSpec::new(Workload::Ustm { bench, window }, design, cores, seed)
    }

    /// A STAMP spec.
    pub fn stamp(app: StampApp, design: FenceDesign, cores: usize, seed: u64) -> Self {
        RunSpec::new(Workload::Stamp(app), design, cores, seed)
    }

    /// A litmus spec (core count comes from the scenario).
    pub fn litmus(case: LitmusCase, design: FenceDesign, seed: u64) -> Self {
        RunSpec::new(Workload::Litmus(case), design, case.cores(), seed)
    }

    /// A synthesis-benchmark spec (core count comes from the benchmark).
    pub fn sites(bench: SiteBench, design: FenceDesign, seed: u64) -> Self {
        RunSpec::new(Workload::Sites(bench), design, bench.cores(), seed)
    }

    /// An inferred-placement spec: `kernel` built unannotated, fences
    /// injected per `placement` (core count comes from the kernel).
    pub fn inferred(
        kernel: InferredKernel,
        placement: PlacementSpec,
        design: FenceDesign,
        seed: u64,
    ) -> Self {
        let workload = Workload::Inferred { kernel, placement };
        RunSpec::new(workload, design, kernel.cores(), seed)
    }

    /// Replaces the per-site fence assignment.
    #[must_use]
    pub fn with_assignment(mut self, mask: SiteMask) -> Self {
        self.assignment = Some(mask);
        self
    }

    /// Replaces the config knobs.
    #[must_use]
    pub fn with_knobs(mut self, knobs: Knobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Human-readable label for progress lines.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}c/s{}",
            self.workload.name(),
            self.design.label(),
            self.cores,
            self.seed
        );
        if !self.knobs.is_default() {
            s.push_str("/knobs");
        }
        if let Some(mask) = self.assignment {
            s.push_str(&format!("/wf{:b}", mask.weak));
        }
        s
    }

    /// The machine configuration the spec runs on: the design, core
    /// count and seed, the short-run watchdog and SCV log for litmus and
    /// synthesis workloads, the knob overrides, and the per-site
    /// assignment. The fence trace is off; [`RunSpec::execute_traced`]
    /// turns it on.
    pub fn config(&self) -> MachineConfig {
        let mut b = MachineConfig::builder()
            .cores(self.cores)
            .fence_design(self.design)
            .seed(self.seed);
        match self.workload {
            Workload::Litmus(_) => b = b.watchdog_cycles(30_000).record_scv_log(true),
            Workload::Sites(_) | Workload::Inferred { .. } => {
                b = b.watchdog_cycles(60_000).record_scv_log(true)
            }
            Workload::Cilk(_) | Workload::Ustm { .. } | Workload::Stamp(_) => {}
        }
        let mut cfg = self.knobs.apply(b).build();
        cfg.fence_assignment = self.assignment;
        cfg
    }

    /// Executes the spec on this worker's pooled [`Machine`] (see
    /// [`crate::pool`]): the machine's arenas are re-armed in place when
    /// the spec keeps the hardware shape, so steady-state grid execution
    /// never rebuilds a machine. Pure: equal specs produce equal
    /// results, on any thread — pooling reuses *allocations*, never
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if a to-completion workload (Cilk/STAMP) fails to finish or
    /// a ustm run deadlocks; litmus outcomes are *recorded*, not
    /// asserted, since deadlock is the expected result for some cases.
    pub fn execute(&self) -> RunResult {
        let cfg = self.config();
        crate::pool::with_machine(cfg, |m| self.run_machine(m))
    }

    /// Executes the spec with the fence-lifecycle trace enabled and
    /// returns the trace alongside the result. The [`RunResult`] is
    /// identical to what [`RunSpec::execute`] produces: tracing is pure
    /// observation.
    ///
    /// # Panics
    ///
    /// As [`RunSpec::execute`].
    pub fn execute_traced(&self) -> (RunResult, TraceSink) {
        let mut cfg = self.config();
        cfg.record_trace = true;
        crate::pool::with_machine(cfg, |m| {
            let result = self.run_machine(m);
            let trace = m.take_trace().expect("record_trace was enabled");
            (result, trace)
        })
    }

    /// Adds the spec's threads to `m`, a machine built from
    /// [`RunSpec::config`]. This is the one place a [`Workload`] becomes
    /// programs: the scoring runs and the synthesis oracle both install
    /// through it.
    pub fn install(&self, m: &mut Machine) {
        match self.workload {
            Workload::Cilk(app) => cilk::setup(m, app, self.seed),
            Workload::Ustm { bench, .. } => ustm::install(m, bench, self.seed, None),
            Workload::Stamp(app) => stamp::install(m, app, self.seed),
            Workload::Litmus(case) => {
                for p in case.setup().0 {
                    m.add_thread(p);
                }
            }
            Workload::Sites(bench) => {
                for p in bench.programs(m.config(), self.seed) {
                    m.add_thread(p);
                }
            }
            Workload::Inferred { kernel, placement } => {
                let line_bytes = m.config().line_bytes;
                let progs = kernel.programs(m.config(), self.seed);
                for (tid, p) in progs.into_iter().enumerate() {
                    m.add_thread(Box::new(FencedProgram::new(
                        p,
                        tid,
                        placement,
                        line_bytes,
                        FenceRole::NonCritical,
                    )));
                }
            }
        }
    }

    /// Installs the spec, runs it under its workload's cycle limit, and
    /// harvests the result: to-completion workloads must finish, ustm
    /// windows must not deadlock, STM workloads report their commit and
    /// abort tallies, and SCV-logged workloads report whether the log
    /// holds a violation.
    fn run_machine(&self, m: &mut Machine) -> RunResult {
        self.install(m);
        let limit = match self.workload {
            Workload::Cilk(_) | Workload::Stamp(_) => MAX_CYCLES,
            Workload::Ustm { window, .. } => window,
            Workload::Litmus(_) | Workload::Sites(_) | Workload::Inferred { .. } => 50_000_000,
        };
        let outcome = m.run(limit);
        let (mut commits, mut aborts, mut scv) = (0, 0, false);
        match self.workload {
            Workload::Cilk(app) => assert_eq!(
                outcome,
                RunOutcome::Finished,
                "{} under {} did not finish",
                app.name(),
                self.design
            ),
            Workload::Stamp(app) => {
                assert_eq!(
                    outcome,
                    RunOutcome::Finished,
                    "{} under {} did not finish",
                    app.name(),
                    self.design
                );
                (commits, aborts) = tlrw::tally(m);
            }
            Workload::Ustm { bench, .. } => {
                assert_ne!(
                    outcome,
                    RunOutcome::Deadlocked,
                    "{}: deadlock",
                    bench.name()
                );
                (commits, aborts) = tlrw::tally(m);
            }
            Workload::Litmus(_) | Workload::Sites(_) | Workload::Inferred { .. } => {
                scv = m.scv_log().is_some_and(scv::has_violation);
            }
        }
        RunResult {
            cycles: m.now(),
            stats: m.stats(),
            commits,
            aborts,
            outcome,
            scv,
        }
    }
}

/// Whether progress lines should be printed, from the environment:
/// `ASF_PROGRESS=0` forces them off, `ASF_PROGRESS=1` forces them on,
/// otherwise they follow whether stderr is a terminal.
pub fn progress_from_env() -> bool {
    match std::env::var(PROGRESS_ENV).ok().as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => std::io::stderr().is_terminal(),
    }
}

/// Renders one progress line: `[done/total] label (cycles cycles, W ms`
/// plus an optional `, eta ~…` — the exact shape the runner has always
/// printed, factored out so tests can pin it.
pub fn format_progress(
    done: u64,
    total: u64,
    label: &str,
    cycles: u64,
    wall_ms: u64,
    eta_ns: Option<u64>,
) -> String {
    let mut line = format!("[{done}/{total}] {label} ({cycles} cycles, {wall_ms} ms");
    if let Some(eta) = eta_ns {
        line.push_str(&format!(", eta ~{}", human_ns(eta)));
    }
    line.push(')');
    line
}

/// Executes batches of [`RunSpec`]s over a worker pool with
/// order-preserving aggregation. Optionally carries a telemetry
/// [`Collector`] (`--metrics`), which every batch reports into.
#[derive(Clone, Debug)]
pub struct Runner {
    jobs: usize,
    progress: bool,
    collector: Option<Arc<Collector>>,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::new(None)
    }
}

impl Runner {
    /// A runner with `explicit` workers, falling back to `ASF_JOBS` and
    /// then the machine's available parallelism; progress reporting
    /// follows [`progress_from_env`].
    pub fn new(explicit: Option<usize>) -> Self {
        Runner {
            jobs: par::resolve_jobs(explicit),
            progress: progress_from_env(),
            collector: None,
        }
    }

    /// A runner with exactly `jobs` workers (tests use `1` vs `8`).
    pub fn with_jobs(jobs: usize) -> Self {
        Runner {
            jobs: jobs.max(1),
            progress: progress_from_env(),
            collector: None,
        }
    }

    /// Overrides progress reporting (tests silence it).
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Attaches a telemetry collector: every subsequent batch records
    /// per-spec wall-clock, counters and fence tallies into it.
    #[must_use]
    pub fn with_collector(mut self, collector: Arc<Collector>) -> Self {
        self.collector = Some(collector);
        self
    }

    /// The attached telemetry collector, if any.
    pub fn collector(&self) -> Option<&Arc<Collector>> {
        self.collector.as_ref()
    }

    /// Marks the start of a report section on the collector (no-op
    /// without one). Figure functions call this with their section name
    /// so metric cells and phase timers group per figure.
    pub fn begin_section(&self, name: &str) {
        if let Some(c) = &self.collector {
            c.begin_section(name);
        }
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs every spec, fanning out over the worker pool; results come
    /// back in spec order, so downstream table/CSV emission is identical
    /// no matter the worker count. Each worker builds its own `Machine`
    /// per spec — no state is shared between runs.
    ///
    /// With a collector attached, specs execute with the fence trace on
    /// (pure observation — identical results, pinned by
    /// `runner_determinism.rs`) and are folded into the collector
    /// *serially in spec order* after the fan-out returns, so the
    /// telemetry is deterministic at any worker count too.
    pub fn run(&self, specs: &[RunSpec]) -> Vec<RunResult> {
        let outs = self.run_inner(specs, self.collector.is_some());
        if let Some(collector) = &self.collector {
            for (spec, (result, wall_ns, sink)) in specs.iter().zip(&outs) {
                let sink = sink.as_ref().expect("collecting => traced");
                collector.record(spec, result, *wall_ns, sink);
            }
        }
        outs.into_iter().map(|(result, _, _)| result).collect()
    }

    /// Runs every spec with the fence trace enabled and returns each
    /// spec's `(result, wall_ns, trace)` in spec order — the raw
    /// material the sweep journals as ledger cell records. Bypasses the
    /// collector: a sharded sweep aggregates by merging the ledger, not
    /// in-process.
    pub fn run_traced(&self, specs: &[RunSpec]) -> Vec<(RunResult, u64, TraceSink)> {
        self.run_inner(specs, true)
            .into_iter()
            .map(|(result, wall_ns, sink)| (result, wall_ns, sink.expect("traced")))
            .collect()
    }

    fn run_inner(
        &self,
        specs: &[RunSpec],
        traced: bool,
    ) -> Vec<(RunResult, u64, Option<TraceSink>)> {
        let total = specs.len();
        let done = AtomicUsize::new(0);
        let batch = Stopwatch::start();
        par::par_map(self.jobs, specs, |_, spec| {
            let t0 = Instant::now();
            let (result, sink) = if traced {
                let (result, sink) = spec.execute_traced();
                (result, Some(sink))
            } else {
                (spec.execute(), None)
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if self.progress {
                // The batch's observed completion rate projects the runs
                // still outstanding.
                let per_sec = n as f64 * 1e9 / batch.elapsed_ns().max(1) as f64;
                eprintln!(
                    "{}",
                    format_progress(
                        n as u64,
                        total as u64,
                        &spec.label(),
                        result.cycles,
                        wall_ns / 1_000_000,
                        eta_ns((total - n) as u64, per_sec),
                    )
                );
            }
            (result, wall_ns, sink)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_labels_are_descriptive() {
        let s = RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 4, 7);
        assert_eq!(s.label(), "fib/WS+/4c/s7");
        let k = s.with_knobs(Knobs {
            bs_entries: Some(2),
            ..Default::default()
        });
        assert!(k.label().ends_with("/knobs"));
    }

    #[test]
    fn litmus_cores_follow_scenario() {
        let three = LitmusCase::ThreeThreadCycle {
            roles: [FenceRole::Critical; 3],
        };
        assert_eq!(three.cores(), 3);
        assert_eq!(RunSpec::litmus(three, FenceDesign::WPlus, 0).cores, 3);
    }

    #[test]
    fn runner_results_are_order_preserving_and_deterministic() {
        // A small mixed grid: results must be identical at 1 and 4 jobs.
        let specs = vec![
            RunSpec::cilk(CilkApp::Fib, FenceDesign::SPlus, 2, 7),
            RunSpec::ustm(UstmBench::Counter, FenceDesign::WsPlus, 2, 7, 40_000),
            RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 7),
        ];
        let serial = Runner::with_jobs(1).progress(false).run(&specs);
        let parallel = Runner::with_jobs(4).progress(false).run(&specs);
        assert_eq!(serial.len(), 3);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn format_progress_matches_historic_shape() {
        assert_eq!(
            format_progress(3, 10, "fib/WS+/4c/s7", 12345, 8, None),
            "[3/10] fib/WS+/4c/s7 (12345 cycles, 8 ms)"
        );
        assert_eq!(
            format_progress(3, 10, "fib/WS+/4c/s7", 12345, 8, Some(5_000_000)),
            "[3/10] fib/WS+/4c/s7 (12345 cycles, 8 ms, eta ~5ms)"
        );
    }

    #[test]
    fn run_traced_matches_run_results() {
        let specs = vec![
            RunSpec::cilk(CilkApp::Fib, FenceDesign::SPlus, 2, 7),
            RunSpec::ustm(UstmBench::Counter, FenceDesign::WsPlus, 2, 7, 40_000),
        ];
        let runner = Runner::with_jobs(2).progress(false);
        let plain = runner.run(&specs);
        let traced = runner.run_traced(&specs);
        assert_eq!(traced.len(), plain.len());
        for ((result, _, sink), p) in traced.iter().zip(&plain) {
            assert_eq!(result.cycles, p.cycles);
            assert_eq!(result.stats, p.stats);
            assert!(
                FenceClass::ALL.iter().any(|c| sink.tally(*c).issued > 0),
                "traced run carries fence tallies"
            );
        }
    }

    #[test]
    fn corpus_litmus_cases_finish_without_scv() {
        use FenceRole::Critical;
        for case in [
            LitmusCase::MessagePassing { fences: None },
            LitmusCase::MessagePassing {
                fences: Some((Critical, Critical)),
            },
            LitmusCase::LoadBuffering,
            LitmusCase::Iriw,
        ] {
            let r = RunSpec::litmus(case, FenceDesign::WPlus, crate::SEED).execute();
            assert_eq!(r.outcome, RunOutcome::Finished, "{case:?}");
            assert!(!r.scv, "{case:?} must stay SC");
        }
    }

    #[test]
    fn litmus_spec_records_outcome_and_scv() {
        let unfenced = RunSpec::litmus(
            LitmusCase::StoreBuffering { fences: None },
            FenceDesign::SPlus,
            crate::SEED,
        );
        let r = unfenced.execute();
        assert_eq!(r.outcome, RunOutcome::Finished);
        assert!(r.scv, "unfenced store buffering must show an SCV");
    }
}
