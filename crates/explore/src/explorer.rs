//! The deterministic schedule-exploration engine.
//!
//! An [`Explorer`] sweeps a [`Scenario`] across a budget of perturbation
//! seeds. Seed 0 is always the natural (unperturbed) schedule; every
//! other seed drives the simulator's coherence-legal perturbation hooks
//! (NoC delay jitter, write-buffer drain stalls, invalidation delays)
//! through a pure function of `(seed, stream, event-index)`, so any
//! failing seed replays bit-identically.
//!
//! The oracle is the Shasha–Snir cycle checker over the run's perform
//! log, plus outcome checks (deadlock / cycle-limit count as failures).
//! On failure the explorer shrinks the scenario — fewest threads first,
//! then fewest instructions, then the smallest reproducing seed — and
//! reports the minimal counterexample with a human-readable cycle.

use std::collections::BTreeSet;
use std::fmt;

use asymfence::prelude::{
    scv, FenceDesign, Machine, MachineConfig, Perturbation, RunOutcome, TraceSink,
};
use asymfence_common::par;
use asymfence_common::schedule::{SchedulePlan, ScheduleScript};

use crate::dpor::{self, DporConfig, ExhaustiveOutcome, RunObs};
use crate::scenario::Scenario;

/// All five safe designs from the paper, in presentation order.
pub const ALL_DESIGNS: [FenceDesign; 5] = [
    FenceDesign::SPlus,
    FenceDesign::WsPlus,
    FenceDesign::SwPlus,
    FenceDesign::WPlus,
    FenceDesign::Wee,
];

/// Exploration budgets and perturbation magnitudes.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Number of seeds to sweep (seed indices `0..seeds`). Seed 0 is the
    /// unperturbed schedule.
    pub seeds: u64,
    /// Max extra cycles of NoC jitter per message.
    pub noc_jitter: u64,
    /// Max extra cycles a retired store waits before becoming drainable.
    pub wb_stall: u64,
    /// Max extra cycles added to invalidation delivery.
    pub inval_delay: u64,
    /// Per-run cycle budget.
    pub max_cycles: u64,
    /// Watchdog threshold passed to the machine.
    pub watchdog_cycles: u64,
    /// When a shrink candidate stops failing at the original seed, rescan
    /// this many seeds (from 0) before discarding the candidate.
    pub shrink_seed_window: u64,
    /// Hard budget on simulator runs spent shrinking.
    pub max_shrink_runs: u64,
    /// Seed-space partition for sharded sweeps: only seeds this shard
    /// owns are run (round-robin by seed index), and clean runs charge
    /// the owned count. The default ([`par::Shard::whole`]) sweeps every
    /// seed, leaving single-process behaviour untouched. Shrinking is
    /// not sharded — it replays from one found seed.
    pub shard: par::Shard,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            seeds: 256,
            noc_jitter: 48,
            wb_stall: 96,
            inval_delay: 48,
            max_cycles: 1_000_000,
            watchdog_cycles: 20_000,
            shrink_seed_window: 12,
            max_shrink_runs: 3_000,
            shard: par::Shard::whole(),
        }
    }
}

impl ExploreConfig {
    /// The perturbation for a seed index: 0 means "natural schedule".
    pub fn perturbation(&self, seed: u64) -> Perturbation {
        if seed == 0 {
            Perturbation::default()
        } else {
            Perturbation {
                seed,
                noc_jitter: self.noc_jitter,
                wb_stall: self.wb_stall,
                inval_delay: self.inval_delay,
            }
        }
    }
}

/// Why a run failed the oracle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Shasha–Snir found a cycle; the report comes from `describe_cycle`.
    Scv {
        /// Human-readable cycle walk.
        report: String,
    },
    /// The machine's watchdog declared that the run cannot finish: no
    /// global progress, or a write buffer that drained nothing for the
    /// whole horizon while the cores kept retiring (store-drain livelock).
    Deadlock,
    /// The run exhausted its cycle budget.
    CycleLimit,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Scv { report } => write!(f, "{report}"),
            Failure::Deadlock => write!(
                f,
                "machine deadlocked or livelocked (watchdog fired: no global progress, \
                 or a store never drained)"
            ),
            Failure::CycleLimit => write!(f, "machine exceeded its cycle budget"),
        }
    }
}

/// A shrunk, reproducible failure.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The design under test.
    pub design: FenceDesign,
    /// The perturbation seed that reproduces the failure (0 = natural).
    pub seed: u64,
    /// The seed the sweep originally tripped on, before shrinking.
    pub found_seed: u64,
    /// The minimized scenario.
    pub scenario: Scenario,
    /// What the oracle saw.
    pub failure: Failure,
    /// Fence-lifecycle trace of the minimized failing run: the exact
    /// fence episodes around the violation, ready for
    /// [`TraceSink::chrome_json`]. `None` only if the minimized run
    /// unexpectedly stopped failing on replay.
    pub trace: Option<TraceSink>,
    /// The minimized failing decision vector when the counterexample
    /// came from exhaustive exploration (`None` for sampled
    /// counterexamples, which replay from `seed` instead).
    pub schedule: Option<ScheduleScript>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.schedule {
            Some(s) => writeln!(
                f,
                "violation under design {:?} (exhaustive, {} delayed choice(s)):",
                self.design,
                s.cost()
            )?,
            None => writeln!(
                f,
                "violation under design {:?} (found at seed {}, minimized to seed {}):",
                self.design, self.found_seed, self.seed
            )?,
        }
        write!(f, "{}", self.scenario)?;
        writeln!(f, "{}", self.failure)?;
        match &self.schedule {
            Some(s) => writeln!(
                f,
                "reproduce: re-run this scenario under {:?} with schedule decisions \
                 {:?} (arity {}, quanta noc={}/inval={}/wb={}); scripted schedules \
                 replay bit-identically.",
                self.design, s.decisions, s.arity, s.quanta.noc, s.quanta.inval, s.quanta.wb
            ),
            None => writeln!(
                f,
                "reproduce: re-run this scenario under {:?} with perturbation seed {} \
                 (seed 0 = natural schedule); identical budgets replay bit-identically.",
                self.design, self.seed
            ),
        }
    }
}

/// Result of sweeping one (scenario, design) pair.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The design swept.
    pub design: FenceDesign,
    /// Serial-equivalent simulator runs (seeds up to and including the
    /// first failure, plus shrink runs). Independent of the worker
    /// count, so reports are byte-identical at any [`Explorer::jobs`].
    pub runs: u64,
    /// The minimized failure, if any seed tripped the oracle.
    pub violation: Option<Counterexample>,
}

impl SweepReport {
    /// True when the whole sweep passed the oracle.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Result of sweeping an arbitrary machine builder ([`Explorer::sweep_builder`]):
/// the library-call form of the oracle, without scenario shrinking.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// The lowest failing seed and what the oracle saw there, if any.
    pub violation: Option<(u64, Failure)>,
    /// Serial-equivalent simulator runs charged (seeds up to and
    /// including the first failure, or the whole budget when clean) —
    /// independent of the worker count.
    pub runs: u64,
}

/// Result of a bounded-exhaustive exploration of one (scenario, design)
/// pair ([`Explorer::explore_exhaustive`]).
#[derive(Clone, Debug)]
pub struct ExhaustiveReport {
    /// The design explored.
    pub design: FenceDesign,
    /// The reorder bound the walk enforced.
    pub bound: usize,
    /// Simulator runs the walk executed (excludes shrinking).
    pub executed: u64,
    /// Schedules discharged by the DPOR reductions without simulation.
    pub pruned: u64,
    /// Schedules accounted for: `executed + pruned`.
    pub explored: u64,
    /// Distinct Mazurkiewicz classes among the executed runs.
    pub classes: u64,
    /// Choice points exposed by the natural run.
    pub frontier: u64,
    /// True when the walk covered the whole bounded tree: a complete,
    /// clean report is a proof of SC up to the bound.
    pub complete: bool,
    /// Serial-equivalent total simulator runs charged (walk + shrink) —
    /// identical at any worker count.
    pub runs: u64,
    /// The minimized failure, if any schedule tripped the oracle.
    pub violation: Option<Counterexample>,
}

impl ExhaustiveReport {
    /// True when every explored schedule passed the oracle.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }

    /// True when the report *proves* SC up to the bound: clean and the
    /// walk ran to completion.
    pub fn proven(&self) -> bool {
        self.clean() && self.complete
    }
}

/// The engine. Stateless apart from its config; every method is a pure
/// function of `(config, scenario, design)`, so the seed sweep can fan
/// out over worker threads without changing any report.
#[derive(Clone, Copy, Debug, Default)]
pub struct Explorer {
    /// Budgets and magnitudes.
    pub cfg: ExploreConfig,
    /// Worker threads for the seed sweep: `0` resolves from `ASF_JOBS`
    /// and then the machine's available parallelism; `1` forces the
    /// serial scan. Shrinking is always serial (each step depends on the
    /// previous candidate).
    pub jobs: usize,
}

impl Explorer {
    /// Creates an explorer with the given budgets.
    pub fn new(cfg: ExploreConfig) -> Self {
        Explorer { cfg, jobs: 0 }
    }

    /// Sets the sweep worker count (`0` = resolve from the environment).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Runs one seed of the scenario and applies the oracle.
    pub fn run_seed(&self, scenario: &Scenario, design: FenceDesign, seed: u64) -> Option<Failure> {
        let mut m: Machine = scenario.machine(
            design,
            self.cfg.perturbation(seed),
            self.cfg.watchdog_cycles,
        );
        self.check_machine(&mut m)
    }

    /// Runs an already-built machine to completion and applies the
    /// oracle: deadlock and cycle-limit are failures, and a finished run
    /// is checked with the Shasha–Snir cycle finder. The machine must
    /// have been built with `record_scv_log(true)`.
    ///
    /// # Panics
    ///
    /// Panics if the machine does not record the SCV log.
    pub fn check_machine(&self, m: &mut Machine) -> Option<Failure> {
        match m.run(self.cfg.max_cycles) {
            RunOutcome::Deadlocked => return Some(Failure::Deadlock),
            RunOutcome::CycleLimit => return Some(Failure::CycleLimit),
            RunOutcome::Finished => {}
        }
        let log = m
            .scv_log()
            .expect("oracle machines must record the SCV log");
        scv::find_cycle(log).map(|cycle| Failure::Scv {
            report: scv::describe_cycle(log, &cycle),
        })
    }

    /// Sweeps `0..cfg.seeds` over machines produced by `build` — the
    /// library-call form of the oracle, used by the synthesis engine to
    /// validate fence assignments without going through a [`Scenario`],
    /// and the seed loop under [`Explorer::sweep`].
    ///
    /// `build` must be a pure function of the perturbation (each worker
    /// constructs its own machine, so the machine itself never crosses a
    /// thread boundary) and must enable the SCV log and set its own
    /// watchdog. With more than one worker the seeds fan out over threads
    /// ([`par::par_min_find`]), but the sweep still resolves to the
    /// *minimum* failing seed — exactly the seed the serial scan stops
    /// at — and charges `runs` as the serial-equivalent count, so the
    /// report is identical at any worker count.
    pub fn sweep_builder<F>(&self, build: F) -> OracleReport
    where
        F: Fn(Perturbation) -> Machine + Sync,
    {
        let hit = par::par_min_find(self.workers(), self.cfg.seeds, |seed| {
            if !self.cfg.shard.owns(seed) {
                return None;
            }
            let mut m = build(self.cfg.perturbation(seed));
            self.check_machine(&mut m)
        });
        match hit {
            Some((seed, failure)) => OracleReport {
                runs: self.cfg.shard.owned_in(seed + 1),
                violation: Some((seed, failure)),
            },
            None => OracleReport {
                runs: self.cfg.shard.owned_in(self.cfg.seeds),
                violation: None,
            },
        }
    }

    /// Replays one seed with the fence-lifecycle trace attached and
    /// returns the trace if the run still fails the oracle. Perturbation
    /// replay is bit-identical and tracing is pure observation, so a
    /// failing seed re-fails here; `None` guards against an impossible
    /// divergence rather than an expected path.
    pub fn run_seed_traced(
        &self,
        scenario: &Scenario,
        design: FenceDesign,
        seed: u64,
    ) -> Option<TraceSink> {
        let perturb = self.cfg.perturbation(seed);
        self.trace_if_failing(scenario.build(design, self.cfg.watchdog_cycles, |c| {
            c.schedule = SchedulePlan::Seeded(perturb);
            c.record_trace = true;
        }))
    }

    /// Runs a machine built with the fence trace on through the oracle
    /// and returns its trace if the run fails.
    fn trace_if_failing(&self, mut m: Machine) -> Option<TraceSink> {
        self.check_machine(&mut m)
            .is_some()
            .then(|| m.take_trace().expect("record_trace was enabled"))
    }

    /// Sweeps `0..cfg.seeds` over the scenario's machines
    /// ([`Explorer::sweep_builder`]); on the lowest failing seed, shrinks
    /// it and stops. `runs` adds the shrink runs to the sweep's
    /// serial-equivalent count, so the report (and everything shrunk from
    /// it) is identical at any worker count.
    pub fn sweep(&self, scenario: &Scenario, design: FenceDesign) -> SweepReport {
        let report = self
            .sweep_builder(|perturb| scenario.machine(design, perturb, self.cfg.watchdog_cycles));
        let mut runs = report.runs;
        let violation = report.violation.map(|(seed, failure)| {
            let (cex, spent) = self.shrink(scenario.clone(), design, seed, failure);
            runs += spent;
            cex
        });
        SweepReport {
            design,
            runs,
            violation,
        }
    }

    /// Sweeps the scenario under every safe design.
    pub fn sweep_all_designs(&self, scenario: &Scenario) -> Vec<SweepReport> {
        ALL_DESIGNS
            .iter()
            .map(|&d| self.sweep(&scenario.clone().with_roles_for(d), d))
            .collect()
    }

    /// Checks whether a candidate still fails, trying `seed` first and
    /// then a small window of seeds from 0 up. Returns the reproducing
    /// seed and failure, charging each run against `runs_left`.
    fn refails(
        &self,
        scenario: &Scenario,
        design: FenceDesign,
        seed: u64,
        runs_left: &mut u64,
    ) -> Option<(u64, Failure)> {
        let try_seed = |s: u64, runs_left: &mut u64| -> Option<(u64, Failure)> {
            if *runs_left == 0 {
                return None;
            }
            *runs_left -= 1;
            self.run_seed(scenario, design, s).map(|f| (s, f))
        };
        if let Some(hit) = try_seed(seed, runs_left) {
            return Some(hit);
        }
        for s in 0..self.cfg.shrink_seed_window {
            if s == seed {
                continue;
            }
            if let Some(hit) = try_seed(s, runs_left) {
                return Some(hit);
            }
        }
        None
    }

    /// Greedy structural shrink (threads first, then single ops — the
    /// order [`Scenario::shrink_candidates`] emits), then seed
    /// minimization. Returns the counterexample and runs spent.
    fn shrink(
        &self,
        scenario: Scenario,
        design: FenceDesign,
        seed: u64,
        failure: Failure,
    ) -> (Counterexample, u64) {
        let found_seed = seed;
        let mut cur = (scenario, seed, failure);
        let mut runs_left = self.cfg.max_shrink_runs;

        // Phase 1+2: structural minimization to a local fixpoint.
        loop {
            let mut improved = false;
            for cand in cur.0.shrink_candidates() {
                if let Some((s, f)) = self.refails(&cand, design, cur.1, &mut runs_left) {
                    cur = (cand, s, f);
                    improved = true;
                    break;
                }
            }
            if !improved || runs_left == 0 {
                break;
            }
        }

        // Phase 3: smallest reproducing seed for the minimal scenario.
        for s in 0..cur.1 {
            if runs_left == 0 {
                break;
            }
            runs_left -= 1;
            if let Some(f) = self.run_seed(&cur.0, design, s) {
                cur = (cur.0, s, f);
                break;
            }
        }

        let spent = self.cfg.max_shrink_runs - runs_left;
        let (scenario, seed, failure) = cur;
        // Replay the minimized failure once with the trace on so the
        // counterexample carries the exact fence episodes around the
        // violation. Not charged against `runs`: it is a presentation
        // replay, not part of the search.
        let trace = self.run_seed_traced(&scenario, design, seed);
        (
            Counterexample {
                design,
                seed,
                found_seed,
                scenario,
                failure,
                trace,
                schedule: None,
            },
            spent,
        )
    }

    // ------------------------------------------------------------------
    // Bounded-exhaustive exploration
    // ------------------------------------------------------------------

    /// Runs one already-built scripted machine and distills the
    /// observation the DPOR engine consumes: oracle verdict,
    /// choice-point recording, run fingerprint, Mazurkiewicz class and
    /// contested lines (run log plus `static_shared`).
    pub fn observe_machine(&self, mut m: Machine, static_shared: &BTreeSet<u64>) -> RunObs {
        let line_bytes = m.config().line_bytes;
        let failure = self.check_machine(&mut m);
        let recording = m.take_schedule_recording().unwrap_or_default();
        let log = m.scv_log().cloned().unwrap_or_default();
        RunObs::new(failure, recording, &log, m.now(), line_bytes, static_shared)
    }

    /// Runs one scripted schedule of a scenario (the exhaustive analog
    /// of [`Explorer::run_seed`]).
    pub fn run_script(
        &self,
        scenario: &Scenario,
        design: FenceDesign,
        script: &ScheduleScript,
    ) -> RunObs {
        let m = scenario.machine_scripted(design, script.clone(), self.cfg.watchdog_cycles);
        self.observe_machine(m, &contested_lines(scenario))
    }

    /// Walks the bounded choice tree of `(scenario, design)` and, on a
    /// violation, shrinks it (scenario structure first, then the
    /// decision vector) to a minimal scripted counterexample.
    ///
    /// Like [`Explorer::sweep`], the walk fans out over worker threads
    /// but folds serial-equivalently, so the report is byte-identical
    /// at any [`Explorer::jobs`].
    pub fn explore_exhaustive(
        &self,
        scenario: &Scenario,
        design: FenceDesign,
        dcfg: &DporConfig,
    ) -> ExhaustiveReport {
        let out = self.walk(dcfg, self.workers(), &contested_lines(scenario), |script| {
            scenario.machine_scripted(design, script, self.cfg.watchdog_cycles)
        });
        let mut runs = out.executed;
        let violation = out.violation.clone().map(|(decisions, failure)| {
            let (cex, spent) =
                self.shrink_exhaustive(scenario.clone(), design, dcfg, decisions, failure);
            runs += spent;
            cex
        });
        ExhaustiveReport {
            design,
            bound: dcfg.bound,
            executed: out.executed,
            pruned: out.pruned,
            explored: out.explored,
            classes: out.classes,
            frontier: out.frontier,
            complete: out.complete,
            runs,
            violation,
        }
    }

    /// The library-call form of bounded-exhaustive validation, used by
    /// the synthesis engine: walks the choice tree of machines produced
    /// by `build` without scenario shrinking. `build` must be a pure
    /// function of the script and enable the SCV log; a complete, clean
    /// outcome proves the assignment SC up to the bound.
    pub fn explore_exhaustive_builder<F>(&self, dcfg: &DporConfig, build: F) -> ExhaustiveOutcome
    where
        F: Fn(ScheduleScript) -> Machine + Sync,
    {
        self.walk(dcfg, self.workers(), &BTreeSet::new(), build)
    }

    /// The DPOR walk under every exhaustive entry point: each schedule
    /// the walk asks for runs on a machine from `build` and is observed
    /// against the statically contested lines `static_shared`.
    fn walk<F>(
        &self,
        dcfg: &DporConfig,
        jobs: usize,
        static_shared: &BTreeSet<u64>,
        build: F,
    ) -> ExhaustiveOutcome
    where
        F: Fn(ScheduleScript) -> Machine + Sync,
    {
        dpor::explore(dcfg, jobs, |script| {
            self.observe_machine(build(script.clone()), static_shared)
        })
    }

    /// The resolved sweep and walk worker count (see [`Explorer::jobs`]).
    fn workers(&self) -> usize {
        par::resolve_jobs((self.jobs > 0).then_some(self.jobs))
    }

    /// Greedy shrink of an exhaustively-found failure: structural
    /// candidates survive when a fresh serial bounded walk still finds
    /// a violation (adopting its schedule); then the decision vector is
    /// minimized by zeroing delays one at a time. Returns the
    /// counterexample and the runs spent.
    fn shrink_exhaustive(
        &self,
        scenario: Scenario,
        design: FenceDesign,
        dcfg: &DporConfig,
        decisions: Vec<u8>,
        failure: Failure,
    ) -> (Counterexample, u64) {
        let mut runs_left = self.cfg.max_shrink_runs;
        let mut cur = (scenario, decisions, failure);

        // Phase 1: structural minimization to a local fixpoint. Each
        // candidate gets a serial re-exploration with the remaining
        // budget as its per-subtree cap.
        loop {
            let mut improved = false;
            for cand in cur.0.shrink_candidates() {
                if runs_left == 0 {
                    break;
                }
                let sub = DporConfig {
                    max_runs_per_subtree: dcfg.max_runs_per_subtree.min(runs_left),
                    ..*dcfg
                };
                let out = self.walk(&sub, 1, &contested_lines(&cand), |script| {
                    cand.machine_scripted(design, script, self.cfg.watchdog_cycles)
                });
                runs_left = runs_left.saturating_sub(out.executed);
                if let Some((d, f)) = out.violation {
                    cur = (cand, d, f);
                    improved = true;
                    break;
                }
            }
            if !improved || runs_left == 0 {
                break;
            }
        }

        // Phase 2: schedule minimization — drop nonzero decisions
        // (deepest first) while the failure reproduces.
        loop {
            let mut improved = false;
            for i in (0..cur.1.len()).rev() {
                if cur.1[i] == 0 || runs_left == 0 {
                    continue;
                }
                let mut d = cur.1.clone();
                d[i] = 0;
                while d.last() == Some(&0) {
                    d.pop();
                }
                runs_left -= 1;
                let mut m = cur.0.machine_scripted(
                    design,
                    dcfg.script(d.clone()),
                    self.cfg.watchdog_cycles,
                );
                if let Some(f) = self.check_machine(&mut m) {
                    cur.1 = d;
                    cur.2 = f;
                    improved = true;
                    break;
                }
            }
            if !improved || runs_left == 0 {
                break;
            }
        }

        let spent = self.cfg.max_shrink_runs - runs_left;
        let (scenario, decisions, failure) = cur;
        let script = dcfg.script(decisions);
        // Presentation replay with the fence-lifecycle trace attached
        // (not charged against `runs`, as in the sampled path).
        let trace = self.trace_if_failing(scenario.build(design, self.cfg.watchdog_cycles, |c| {
            c.schedule = SchedulePlan::Scripted(script.clone());
            c.record_trace = true;
        }));
        (
            Counterexample {
                design,
                seed: 0,
                found_seed: 0,
                scenario,
                failure,
                trace,
                schedule: Some(script),
            },
            spent,
        )
    }
}

/// Raw line addresses two or more of the scenario's threads touch, at
/// the default line size: the static contested set the DPOR walk seeds
/// its conflict pruning with.
fn contested_lines(scenario: &Scenario) -> BTreeSet<u64> {
    scenario.shared_slot_lines(MachineConfig::default().line_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_unperturbed() {
        let cfg = ExploreConfig::default();
        assert!(!cfg.perturbation(0).is_active());
        let p = cfg.perturbation(7);
        assert!(p.is_active());
        assert_eq!(p.seed, 7);
        assert_eq!(p.wb_stall, cfg.wb_stall);
    }

    #[test]
    fn fenced_sb_single_seed_is_clean_under_all_designs() {
        let ex = Explorer::default();
        for &d in &ALL_DESIGNS {
            let sc = Scenario::store_buffering(true).with_roles_for(d);
            assert_eq!(ex.run_seed(&sc, d, 0), None, "design {d:?} seed 0");
            assert_eq!(ex.run_seed(&sc, d, 1), None, "design {d:?} seed 1");
        }
    }

    #[test]
    fn run_seed_is_deterministic() {
        let ex = Explorer::default();
        let sc = Scenario::store_buffering(false);
        let a = ex.run_seed(&sc, FenceDesign::WPlus, 3);
        let b = ex.run_seed(&sc, FenceDesign::WPlus, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_clean_sweeps_charge_the_owned_count_and_cover_all_seeds() {
        let seeds = 10;
        let sc = Scenario::store_buffering(true).with_roles_for(FenceDesign::SPlus);
        let mut total_runs = 0;
        for id in 0..3 {
            let ex = Explorer::new(ExploreConfig {
                seeds,
                shard: par::Shard::new(id, 3),
                ..ExploreConfig::default()
            })
            .with_jobs(1);
            let report = ex.sweep(&sc, FenceDesign::SPlus);
            assert!(report.clean());
            assert_eq!(report.runs, par::Shard::new(id, 3).owned_in(seeds));
            total_runs += report.runs;
        }
        // The three shards together charge exactly the whole-sweep budget.
        assert_eq!(total_runs, seeds);
    }

    #[test]
    fn whole_shard_sweep_is_unchanged_by_the_shard_field() {
        let cfg = ExploreConfig {
            seeds: 6,
            ..ExploreConfig::default()
        };
        assert!(cfg.shard.is_whole());
        let ex = Explorer::new(cfg).with_jobs(1);
        let sc = Scenario::store_buffering(true).with_roles_for(FenceDesign::WsPlus);
        let report = ex.sweep(&sc, FenceDesign::WsPlus);
        assert!(report.clean());
        assert_eq!(report.runs, 6);
    }
}
