//! The traced executor: runs a [`RunSpec`] through the same public calls
//! `RunSpec::execute` makes — config build, pooled machine re-arm,
//! workload install, `Machine::run`, harvest — with a clock read at each
//! boundary. No span lives inside the program; every time here is taken
//! around a call the benchmark itself makes.
//!
//! The executor must produce exactly the [`RunResult`] the program's own
//! executor produces: the benchmark's tests pin that, and every traced
//! run is gated on the same digests as the untraced one.

use std::sync::Arc;
use std::time::Instant;

use asymfence::cpu::insert::FencedProgram;
use asymfence::prelude::*;
use asymfence_bench::{LitmusCase, RunResult, RunSpec, Workload, MAX_CYCLES};
use asymfence_workloads::{cilk, litmus, stamp, tlrw, ustm};

/// Cycle limit `RunSpec::execute` gives litmus, site and inferred runs.
const SHORT_RUN_LIMIT: u64 = 50_000_000;

/// Per-layer self time (ns) next to the exact work counts of the runs
/// it covers.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Config build plus `Machine::new_shared` / `Machine::reset`.
    pub machine_ns: u64,
    /// Workload install (`cilk::setup`, `ustm::install`, …).
    pub install_ns: u64,
    /// Inside `Machine::run`.
    pub run_ns: u64,
    /// `Machine::stats`, `tlrw::tally`, the SC verdict and trace take.
    pub harvest_ns: u64,
    /// Wall time of each whole run, for percentiles.
    pub run_wall_ns: Vec<u64>,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Instructions retired.
    pub instrs: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Stores bounced by a remote Bypass Set.
    pub bounces: u64,
    /// Order operations (W+ / Wee fence protocol messages).
    pub order_ops: u64,
    /// NoC messages.
    pub msgs: u64,
    /// NoC bytes, base plus retry traffic.
    pub bytes: u64,
}

impl Layers {
    /// Adds one run's exact work counts.
    pub fn count(&mut self, cycles: u64, stats: &MachineStats) {
        let a = stats.aggregate();
        self.sim_cycles += cycles;
        self.instrs += a.instrs_retired;
        self.l1_misses += a.l1_misses;
        self.bounces += a.writes_bounced;
        self.order_ops += a.order_ops;
        self.msgs += stats.traffic.messages;
        self.bytes += stats.traffic.base_bytes + stats.traffic.retry_bytes;
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The machine configuration `RunSpec::execute` builds for `spec`.
pub fn config(spec: &RunSpec, trace: bool) -> MachineConfig {
    let mut b = MachineConfig::builder()
        .cores(spec.cores)
        .fence_design(spec.design)
        .seed(spec.seed)
        .record_trace(trace);
    match spec.workload {
        Workload::Litmus(_) => b = b.watchdog_cycles(30_000).record_scv_log(true),
        Workload::Sites(_) | Workload::Inferred { .. } => {
            b = b.watchdog_cycles(60_000).record_scv_log(true)
        }
        _ => {}
    }
    let k = spec.knobs;
    if let Some(n) = k.bs_entries {
        b = b.bs_entries(n);
    }
    if let Some(n) = k.bounce_retry_cycles {
        b = b.bounce_retry_cycles(n);
    }
    if let Some(n) = k.w_timeout_cycles {
        b = b.w_timeout_cycles(n);
    }
    if let Some(n) = k.wb_merge_width {
        b = b.wb_merge_width(n);
    }
    if let Some(n) = k.hop_cycles {
        b = b.hop_cycles(n);
    }
    let mut cfg = b.build();
    if let Some(mask) = spec.assignment {
        cfg.fence_assignment = Some(mask.to_assignment());
    }
    cfg
}

fn litmus_setup(case: LitmusCase) -> litmus::LitmusSetup {
    match case {
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

fn install(spec: &RunSpec, m: &mut Machine) {
    match spec.workload {
        Workload::Cilk(app) => cilk::setup(m, app, spec.seed),
        Workload::Ustm { bench, .. } => ustm::install(m, bench, spec.seed, None),
        Workload::Stamp(app) => stamp::install(m, app, spec.seed),
        Workload::Litmus(case) => {
            let (progs, _regs) = litmus_setup(case);
            for p in progs {
                m.add_thread(p);
            }
        }
        Workload::Sites(bench) => {
            for p in bench.programs(m.config(), spec.seed) {
                m.add_thread(p);
            }
        }
        Workload::Inferred { kernel, placement } => {
            let line_bytes = m.config().line_bytes;
            let progs = kernel.programs(m.config(), spec.seed);
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

fn limit(spec: &RunSpec) -> u64 {
    match spec.workload {
        Workload::Cilk(_) | Workload::Stamp(_) => MAX_CYCLES,
        Workload::Ustm { window, .. } => window,
        _ => SHORT_RUN_LIMIT,
    }
}

fn harvest(spec: &RunSpec, m: &Machine, outcome: RunOutcome) -> RunResult {
    match spec.workload {
        Workload::Cilk(_) | Workload::Stamp(_) => {
            assert_eq!(
                outcome,
                RunOutcome::Finished,
                "{} did not finish",
                spec.label()
            );
        }
        Workload::Ustm { .. } => {
            assert_ne!(
                outcome,
                RunOutcome::Deadlocked,
                "{}: deadlock",
                spec.label()
            );
        }
        _ => {}
    }
    let (commits, aborts) = match spec.workload {
        Workload::Ustm { .. } | Workload::Stamp(_) => tlrw::tally(m),
        _ => (0, 0),
    };
    let scv = match spec.workload {
        Workload::Litmus(_) | Workload::Sites(_) | Workload::Inferred { .. } => {
            m.scv_log().map(scv::has_violation).unwrap_or(false)
        }
        _ => false,
    };
    RunResult {
        cycles: m.now(),
        stats: m.stats(),
        commits,
        aborts,
        outcome,
        scv,
    }
}

/// A traced executor owning one warmed machine, like the program's
/// per-thread pool.
#[derive(Default)]
pub struct Probe {
    slot: Option<Machine>,
    /// What the runs so far cost, layer by layer.
    pub layers: Layers,
}

impl Probe {
    /// Executes `spec` (with the fence-event trace on when `trace`),
    /// timing each layer boundary.
    ///
    /// # Panics
    ///
    /// Exactly where `RunSpec::execute` panics: a to-completion workload
    /// that does not finish, or a deadlocked ustm run.
    pub fn execute(&mut self, spec: &RunSpec, trace: bool) -> (RunResult, Option<TraceSink>) {
        let t0 = Instant::now();
        let cfg = Arc::new(config(spec, trace));
        let mut m = match self.slot.take() {
            Some(mut m) => {
                m.reset(&cfg);
                m
            }
            None => Machine::new_shared(cfg),
        };
        let t1 = Instant::now();
        install(spec, &mut m);
        let t2 = Instant::now();
        let outcome = m.run(limit(spec));
        let t3 = Instant::now();
        let result = harvest(spec, &m, outcome);
        let sink = if trace { m.take_trace() } else { None };
        let t4 = Instant::now();
        self.slot = Some(m);

        let l = &mut self.layers;
        l.machine_ns += (t1 - t0).as_nanos() as u64;
        l.install_ns += (t2 - t1).as_nanos() as u64;
        l.run_ns += (t3 - t2).as_nanos() as u64;
        l.harvest_ns += (t4 - t3).as_nanos() as u64;
        l.run_wall_ns.push((t4 - t0).as_nanos() as u64);
        l.count(result.cycles, &result.stats);
        (result, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_analyze::place;
    use asymfence_bench::{Knobs, SiteMask};
    use asymfence_workloads::sites::SiteBench;
    use asymfence_workloads::stamp::StampApp;
    use asymfence_workloads::unannot::InferredKernel;
    use asymfence_workloads::ustm::UstmBench;

    /// One spec of every workload kind, with knobs and a site mask.
    fn sample() -> Vec<RunSpec> {
        use asymfence_workloads::cilk::CilkApp;
        let a = place::analyze(InferredKernel::Sb, 7);
        vec![
            RunSpec::litmus(
                LitmusCase::StoreBuffering { fences: None },
                FenceDesign::SPlus,
                7,
            ),
            RunSpec::litmus(LitmusCase::Iriw, FenceDesign::WPlus, 7),
            RunSpec::sites(SiteBench::Dekker, FenceDesign::WsPlus, 7)
                .with_assignment(SiteMask::hand(4, 0b0001)),
            RunSpec::inferred(
                InferredKernel::Sb,
                a.placement.spec(),
                FenceDesign::WPlus,
                7,
            ),
            RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 7).with_knobs(Knobs {
                bs_entries: Some(2),
                hop_cycles: Some(5),
                ..Default::default()
            }),
            RunSpec::ustm(UstmBench::Counter, FenceDesign::WPlus, 2, 7, 40_000).with_knobs(Knobs {
                bounce_retry_cycles: Some(16),
                w_timeout_cycles: Some(100),
                wb_merge_width: Some(2),
                ..Default::default()
            }),
            RunSpec::stamp(StampApp::Ssca2, FenceDesign::Wee, 4, 7),
        ]
    }

    fn same(a: &RunResult, b: &RunResult) -> bool {
        a.cycles == b.cycles
            && a.stats == b.stats
            && a.commits == b.commits
            && a.aborts == b.aborts
            && a.outcome == b.outcome
            && a.scv == b.scv
    }

    #[test]
    fn traced_executor_matches_the_programs_executor() {
        let mut probe = Probe::default();
        for spec in sample() {
            let (r, none) = probe.execute(&spec, false);
            assert!(none.is_none());
            assert!(same(&r, &spec.execute()), "{}", spec.label());

            let (r, sink) = probe.execute(&spec, true);
            let (want, want_sink) = spec.execute_traced();
            assert!(same(&r, &want), "{} traced", spec.label());
            let sink = sink.expect("trace requested");
            for class in FenceClass::ALL {
                assert_eq!(
                    sink.tally(class),
                    want_sink.tally(class),
                    "{}",
                    spec.label()
                );
            }
        }
        let l = &probe.layers;
        assert_eq!(l.run_wall_ns.len(), 2 * sample().len());
        assert!(l.run_ns > 0 && l.sim_cycles > 0 && l.instrs > 0 && l.msgs > 0);
    }
}
