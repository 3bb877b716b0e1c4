//! Bounded-exhaustive schedule exploration with partial-order reduction.
//!
//! The sampling explorer draws schedules at random; this module
//! *enumerates* them. Every run of the simulator exposes a sequence of
//! choice points (NoC message arbitration, invalidation delivery,
//! write-buffer drain — see [`asymfence_common::schedule`]), and each
//! point takes one of `arity` quantized delays. A schedule is therefore
//! a decision vector, and the space of schedules is a tree: node `i`
//! branches on the `i`-th point the run encounters, and the frontier
//! extends dynamically as delays expose new events (retries, bounces).
//!
//! The walk is *reorder-bounded*: at most `bound` points per schedule
//! may take a nonzero delay (the analog of the preemption bound in
//! bounded model checking — small bounds catch nearly all real reorder
//! bugs). Within the bound the tree is explored depth-first,
//! deepest-point-first, and two reductions prune branches that cannot
//! change the verdict:
//!
//! * **Sleep-set pruning (absorbed delays).** Delaying point `i` and
//!   re-running sometimes produces an execution *bit-identical* to the
//!   parent run — the extra cycles were absorbed by the network's
//!   per-pair FIFO clamp or by existing slack. The runs' fingerprints
//!   (outcome, cycle count, perform log, choice-point record) are
//!   compared; on a match, the delayed transition was independent of
//!   everything that followed, so its entire subtree is a replay of the
//!   sibling subtree (with strictly less bound left) and is slept.
//! * **Conflict pruning (persistent sets).** A delay can only change
//!   the *happens-before* order if its subject cache line is contested
//!   — accessed by two or more cores. Points whose line is private to
//!   one core (scratch stores, single-owner fills) only shift that
//!   core's private timing; their delay options are skipped. The
//!   contested-line set is computed once from the natural run's perform
//!   log (every completed run retires the same accesses, so the set is
//!   schedule-independent) plus the scenario's static footprint.
//!
//! Executed runs are binned into Mazurkiewicz equivalence classes — two
//! runs are equivalent when every per-word conflict order (writes
//! totally ordered, reads canonically grouped between writes) and the
//! outcome agree — and the class count is reported next to the raw run
//! count, making the redundancy the reductions removed visible.
//!
//! The fan-out over top-level branches is embarrassingly parallel and
//! *serial-equivalent*: subtree reports are folded in the canonical
//! depth-first order, so the explored/pruned/executed counts, the class
//! census and the first violation are byte-identical at any worker
//! count.

use std::collections::{BTreeMap, BTreeSet};

use asymfence_common::par;
use asymfence_common::schedule::{ChoiceRecord, ScheduleQuanta, ScheduleRecording, ScheduleScript};
use asymfence_common::scvlog::ScvLog;

use crate::explorer::{ExploreConfig, Failure};

/// Budgets and semantics of one bounded-exhaustive exploration.
#[derive(Clone, Copy, Debug)]
pub struct DporConfig {
    /// Max nonzero delay decisions per schedule (the reorder bound).
    pub bound: usize,
    /// Delay options per choice point (option `k` waits `k × quantum`).
    pub arity: u8,
    /// Per-kind delay quanta.
    pub quanta: ScheduleQuanta,
    /// Hard cap on simulator runs per top-level subtree; hitting it
    /// clears [`ExhaustiveOutcome::complete`].
    pub max_runs_per_subtree: u64,
    /// Enable the DPOR reductions (sleep-set + conflict pruning).
    /// Disabling them enumerates the full bounded tree — the
    /// differential tests compare the two verdicts.
    pub prune: bool,
}

impl Default for DporConfig {
    fn default() -> Self {
        DporConfig {
            bound: 2,
            arity: 2,
            quanta: ScheduleQuanta::default(),
            max_runs_per_subtree: 20_000,
            prune: true,
        }
    }
}

impl DporConfig {
    /// Derives the exploration shape from the sampler's perturbation
    /// magnitudes: each quantum is the magnitude the seed sweep would
    /// have drawn up to, so the exhaustive walk covers the same delay
    /// scale the sampler covers — just systematically.
    pub fn from_explore(cfg: &ExploreConfig, bound: usize) -> Self {
        DporConfig {
            bound,
            quanta: ScheduleQuanta {
                noc: cfg.noc_jitter,
                inval: cfg.inval_delay,
                wb: cfg.wb_stall,
            },
            ..DporConfig::default()
        }
    }

    /// The script for a decision vector under this config's shape.
    pub fn script(&self, decisions: Vec<u8>) -> ScheduleScript {
        ScheduleScript {
            quanta: self.quanta,
            arity: self.arity,
            decisions,
        }
    }
}

/// What the engine needs to know about one executed run.
#[derive(Clone, Debug)]
pub struct RunObs {
    /// The oracle's verdict (`None` = clean).
    pub failure: Option<Failure>,
    /// Every choice point the run encountered, in encounter order.
    pub points: Vec<ChoiceRecord>,
    /// Timing-faithful run identity: two runs with equal fingerprints
    /// executed cycle-for-cycle identically (sleep-set test).
    pub fingerprint: u64,
    /// Mazurkiewicz-class signature (see [`trace_class`]).
    pub class: u64,
    /// Raw line addresses contested by ≥ 2 cores.
    pub shared_lines: BTreeSet<u64>,
}

impl RunObs {
    /// Distills a finished run: oracle verdict, choice-point recording,
    /// the perform log and final cycle count, plus any statically-known
    /// contested lines the caller wants folded in.
    pub fn new(
        failure: Option<Failure>,
        recording: ScheduleRecording,
        log: &ScvLog,
        cycles: u64,
        line_bytes: u64,
        static_shared: &BTreeSet<u64>,
    ) -> Self {
        let mut shared_lines = shared_lines(log, line_bytes);
        shared_lines.extend(static_shared.iter().copied());
        let fingerprint = fingerprint(&failure, &recording, log, cycles);
        let class = trace_class(&failure, log);
        RunObs {
            failure,
            points: recording.records,
            fingerprint,
            class,
            shared_lines,
        }
    }
}

/// Aggregate result of one exhaustive exploration.
#[derive(Clone, Debug, Default)]
pub struct ExhaustiveOutcome {
    /// Simulator runs actually executed.
    pub executed: u64,
    /// Subtrees discharged by the reductions: `arity - 1` immediate
    /// options per conflict-pruned point (never simulated), plus one per
    /// absorbed (slept) probe that still had bound left to spend. At
    /// bound 1 sleeping discharges nothing, so `explored` equals the
    /// full-enumeration run count exactly.
    pub pruned: u64,
    /// Schedules accounted for: `executed + pruned`.
    pub explored: u64,
    /// Distinct Mazurkiewicz classes among the executed runs.
    pub classes: u64,
    /// Choice points the natural run exposed (the tree's initial width).
    pub frontier: u64,
    /// True when every subtree ran to completion within its budget. A
    /// complete, clean outcome is a proof of SC up to the bound.
    pub complete: bool,
    /// The first failing schedule in canonical depth-first order.
    pub violation: Option<(Vec<u8>, Failure)>,
}

/// One top-level subtree's contribution (internal).
#[derive(Clone, Debug, Default)]
struct SubtreeReport {
    executed: u64,
    pruned: u64,
    classes: BTreeSet<u64>,
    complete: bool,
    violation: Option<(Vec<u8>, Failure)>,
}

struct Ctx<'a, F> {
    cfg: &'a DporConfig,
    run: &'a F,
    shared: &'a BTreeSet<u64>,
}

impl<F> Ctx<'_, F>
where
    F: Fn(&ScheduleScript) -> RunObs,
{
    /// True when delaying `rec`'s event can change inter-core
    /// happens-before order (conflict-prune test). Points without a
    /// subject line (GRT traffic) always qualify.
    fn conflicting(&self, rec: &ChoiceRecord) -> bool {
        match rec.point.line {
            Some(l) => self.shared.contains(&l),
            None => true,
        }
    }

    /// Probes point `i` of `parent` (the executed run of `decisions` +
    /// zeros, with `cost` nonzero decisions): runs each nonzero option
    /// at `i` and walks every schedule extending it at deeper indices
    /// `> i`, deepest-point-first — the canonical serial order the
    /// parallel fold reproduces. Stops at the bound, at a violation and
    /// at the subtree's run budget, which is checked before every run.
    fn probe(
        &self,
        rep: &mut SubtreeReport,
        decisions: &[u8],
        parent: &RunObs,
        i: usize,
        cost: usize,
    ) {
        if cost >= self.cfg.bound || rep.violation.is_some() || !rep.complete {
            return;
        }
        if self.cfg.prune && !self.conflicting(&parent.points[i]) {
            rep.pruned += u64::from(self.cfg.arity) - 1;
            return;
        }
        for k in 1..self.cfg.arity {
            if rep.violation.is_some() || !rep.complete {
                return;
            }
            if rep.executed >= self.cfg.max_runs_per_subtree {
                rep.complete = false;
                return;
            }
            let mut d = decisions.to_vec();
            d.resize(i + 1, 0);
            d[i] = k;
            let obs = (self.run)(&self.cfg.script(d.clone()));
            rep.executed += 1;
            rep.classes.insert(obs.class);
            if let Some(f) = obs.failure.clone() {
                rep.violation = Some((d, f));
                return;
            }
            if self.cfg.prune && obs.fingerprint == parent.fingerprint {
                // The delay was absorbed: the run replayed the parent
                // cycle-for-cycle, so every deeper extension replays
                // the sibling subtree. Sleep it — but only charge
                // `pruned` when bound remained to spend (at the leaf
                // level there is no subtree to discharge, and
                // `explored` must match full enumeration).
                if cost + 1 < self.cfg.bound {
                    rep.pruned += 1;
                }
                continue;
            }
            for j in (i + 1..obs.points.len()).rev() {
                self.probe(rep, &d, &obs, j, cost + 1);
            }
        }
    }
}

/// Walks the bounded choice tree of `run` and reports the census.
///
/// `run` must be a pure function of the script (each invocation builds
/// a fresh machine). Top-level branches fan out over `jobs` workers;
/// the fold is serial-equivalent, so the outcome is byte-identical at
/// any worker count.
pub fn explore<F>(cfg: &DporConfig, jobs: usize, run: F) -> ExhaustiveOutcome
where
    F: Fn(&ScheduleScript) -> RunObs + Sync,
{
    let root = run(&cfg.script(Vec::new()));
    let mut out = ExhaustiveOutcome {
        executed: 1,
        complete: true,
        frontier: root.points.len() as u64,
        ..ExhaustiveOutcome::default()
    };
    let mut classes: BTreeSet<u64> = BTreeSet::new();
    classes.insert(root.class);
    if let Some(f) = root.failure.clone() {
        out.violation = Some((Vec::new(), f));
        out.classes = classes.len() as u64;
        out.explored = out.executed + out.pruned;
        return out;
    }

    // One work item per top-level choice point, in canonical
    // (deepest-first) order: item for index i explores every schedule
    // whose *first* nonzero decision is at i.
    let items: Vec<usize> = (0..root.points.len()).rev().collect();
    let ctx = Ctx {
        cfg,
        run: &run,
        shared: &root.shared_lines,
    };
    let reports = par::par_map(jobs.max(1), &items, |_, &i| {
        let mut rep = SubtreeReport {
            complete: true,
            ..SubtreeReport::default()
        };
        ctx.probe(&mut rep, &[], &root, i, 0);
        rep
    });

    // Serial-equivalent fold: accumulate subtrees in canonical order,
    // stopping after the first one that found a violation — exactly
    // where the serial walk would have stopped.
    for rep in reports {
        out.executed += rep.executed;
        out.pruned += rep.pruned;
        out.complete &= rep.complete;
        classes.extend(rep.classes.iter().copied());
        if rep.violation.is_some() {
            out.violation = rep.violation;
            break;
        }
    }
    out.classes = classes.len() as u64;
    out.explored = out.executed + out.pruned;
    out
}

// ----------------------------------------------------------------------
// Run distillation helpers
// ----------------------------------------------------------------------

/// FNV-1a over a stream of words: cheap, deterministic, platform-stable.
struct Hasher(u64);

impl Hasher {
    fn new() -> Self {
        Hasher(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        // Byte-wise FNV over the word's little-endian bytes.
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn failure_tag(failure: &Option<Failure>) -> u64 {
    match failure {
        None => 0,
        Some(Failure::Scv { .. }) => 1,
        Some(Failure::Deadlock) => 2,
        Some(Failure::CycleLimit) => 3,
    }
}

/// Timing-faithful identity of one run: outcome, final cycle, the full
/// perform log and the full choice-point record. Equal fingerprints ⇒
/// the runs executed identically (used by the sleep-set test).
pub fn fingerprint(
    failure: &Option<Failure>,
    recording: &ScheduleRecording,
    log: &ScvLog,
    cycles: u64,
) -> u64 {
    let mut h = Hasher::new();
    h.word(failure_tag(failure));
    h.word(cycles);
    for e in &log.events {
        h.word(e.core as u64);
        h.word(e.addr);
        h.word(u64::from(e.is_write));
        h.word(e.po);
    }
    for r in &recording.records {
        // Note: only the *points* (behavior), never the chosen option
        // (input) — a run whose extra delay was absorbed must
        // fingerprint-match the sibling that never delayed.
        h.word(r.point.kind as u64);
        h.word(r.point.core as u64);
        h.word(r.point.line.map_or(u64::MAX, |l| l));
        h.word(r.point.seq);
    }
    h.0
}

/// Mazurkiewicz-class signature of a run: per word address, the total
/// order of writes with the reads between consecutive writes treated as
/// an unordered group (canonicalized by sorting on `(core, po)`), plus
/// the outcome tag. Two runs with equal signatures perform the same
/// conflict orders — they are the same trace, only scheduled
/// differently.
pub fn trace_class(failure: &Option<Failure>, log: &ScvLog) -> u64 {
    let mut addrs: Vec<u64> = log.events.iter().map(|e| e.addr).collect();
    addrs.sort_unstable();
    addrs.dedup();
    let mut h = Hasher::new();
    h.word(failure_tag(failure));
    for addr in addrs {
        h.word(addr);
        let mut readers: Vec<(u64, u64)> = Vec::new();
        let flush = |h: &mut Hasher, readers: &mut Vec<(u64, u64)>| {
            readers.sort_unstable();
            for &(c, po) in readers.iter() {
                h.word(0xAAAA);
                h.word(c);
                h.word(po);
            }
            readers.clear();
        };
        for e in log.events.iter().filter(|e| e.addr == addr) {
            if e.is_write {
                flush(&mut h, &mut readers);
                h.word(0xBBBB);
                h.word(e.core as u64);
                h.word(e.po);
            } else {
                readers.push((e.core as u64, e.po));
            }
        }
        flush(&mut h, &mut readers);
    }
    h.0
}

/// Raw line addresses accessed by two or more cores in `log`.
pub fn shared_lines(log: &ScvLog, line_bytes: u64) -> BTreeSet<u64> {
    lines_shared_by_cores(log.events.iter().map(|e| (e.core, e.addr / line_bytes)))
}

/// The lines that two or more cores touch, from `(core, line)` accesses.
pub(crate) fn lines_shared_by_cores(
    accesses: impl IntoIterator<Item = (usize, u64)>,
) -> BTreeSet<u64> {
    let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
    let mut shared = BTreeSet::new();
    for (core, line) in accesses {
        if *owner.entry(line).or_insert(core) != core {
            shared.insert(line);
        }
    }
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::schedule::{ChoiceKind, ChoicePoint};

    fn obs(points: usize, fail: Option<Failure>, fp: u64, class: u64) -> RunObs {
        RunObs {
            failure: fail,
            points: (0..points)
                .map(|i| ChoiceRecord {
                    point: ChoicePoint {
                        kind: ChoiceKind::NocMessage,
                        core: 0,
                        line: Some(1),
                        seq: i as u64,
                    },
                    option: 0,
                })
                .collect(),
            fingerprint: fp,
            class,
            shared_lines: BTreeSet::from([1]),
        }
    }

    /// A synthetic run function: 3 points, every schedule distinct,
    /// no failures. Bound-2 arity-2 over 3 points = 1 + 3 + 3 = 7 runs.
    #[test]
    fn enumerates_the_bounded_tree_exactly_once() {
        let cfg = DporConfig {
            bound: 2,
            prune: false,
            ..DporConfig::default()
        };
        let seen = std::sync::Mutex::new(Vec::new());
        let out = explore(&cfg, 1, |s: &ScheduleScript| {
            let mut key = s.decisions.clone();
            while key.last() == Some(&0) {
                key.pop();
            }
            seen.lock().unwrap().push(key.clone());
            let mut fp = Hasher::new();
            for &d in &key {
                fp.word(u64::from(d));
            }
            fp.word(key.len() as u64 + 100);
            obs(3, None, fp.0, fp.0)
        });
        assert_eq!(out.executed, 7);
        assert_eq!(out.frontier, 3);
        assert!(out.complete);
        assert!(out.violation.is_none());
        let mut seen = seen.into_inner().unwrap();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 7, "no schedule may be executed twice");
        // classes: all runs distinct by construction.
        assert_eq!(out.classes, 7);
        assert_eq!(out.explored, out.executed);
    }

    #[test]
    fn absorbed_delays_are_slept() {
        // Every delayed run fingerprints identically to the root: the
        // engine must execute only the root + the 3 first-level probes
        // and sleep everything below them.
        let cfg = DporConfig {
            bound: 2,
            prune: true,
            ..DporConfig::default()
        };
        let out = explore(&cfg, 1, |_s: &ScheduleScript| obs(3, None, 42, 42));
        assert_eq!(out.executed, 1 + 3);
        assert_eq!(out.pruned, 3);
        assert!(out.complete);
        assert_eq!(out.classes, 1);
    }

    #[test]
    fn private_lines_are_conflict_pruned() {
        // Points subject to a line only one core touches are skipped
        // without simulation.
        let cfg = DporConfig {
            bound: 1,
            prune: true,
            ..DporConfig::default()
        };
        let out = explore(&cfg, 1, |s: &ScheduleScript| {
            let mut o = obs(2, None, 7 + s.decisions.len() as u64, 9);
            o.points[1].point.line = Some(0xDEAD); // not in shared set
            o.shared_lines = BTreeSet::from([1]);
            o
        });
        // Root + the one conflicting point's probe; the private point
        // never runs.
        assert_eq!(out.executed, 2);
        assert_eq!(out.pruned, 1);
        assert_eq!(out.explored, 3);
    }

    #[test]
    fn violation_stops_at_canonical_first_failure() {
        // Deepest-first order: index 2 probes before index 1. Make
        // index 1's delay the failing one; the engine must charge the
        // index-2 subtree fully before stopping at index 1.
        let cfg = DporConfig {
            bound: 1,
            prune: false,
            ..DporConfig::default()
        };
        for jobs in [1, 2, 4] {
            let out = explore(&cfg, jobs, |s: &ScheduleScript| {
                let fail = s.decisions.len() == 2 && s.decisions[1] == 1;
                let fp = s.decisions.iter().map(|&d| u64::from(d) + 1).sum::<u64>()
                    + 10 * s.decisions.len() as u64;
                obs(3, fail.then_some(Failure::Deadlock), fp, fp)
            });
            // Runs: root, probe@2, probe@1 (fails). probe@0 never runs.
            assert_eq!(out.executed, 3, "jobs={jobs}");
            let (d, f) = out.violation.clone().expect("must fail");
            assert_eq!(d, vec![0, 1]);
            assert_eq!(f, Failure::Deadlock);
        }
    }

    #[test]
    fn parallel_fold_is_serial_equivalent() {
        let cfg = DporConfig {
            bound: 2,
            prune: true,
            ..DporConfig::default()
        };
        let run = |s: &ScheduleScript| {
            let mut fp = Hasher::new();
            for &d in &s.decisions {
                fp.word(u64::from(d));
            }
            fp.word(s.decisions.len() as u64);
            obs(4, None, fp.0, fp.0 % 5)
        };
        let a = explore(&cfg, 1, run);
        let b = explore(&cfg, 3, run);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.explored, b.explored);
        assert_eq!(a.complete, b.complete);
    }

    /// Census `(executed, pruned, explored, classes, complete)` of a
    /// bound-2 walk over 4 points, point 1 on a private line, every
    /// schedule distinct, at the given arity and per-subtree budget.
    fn census(arity: u8, budget: u64, jobs: usize) -> (u64, u64, u64, u64, bool) {
        let cfg = DporConfig {
            bound: 2,
            arity,
            max_runs_per_subtree: budget,
            prune: true,
            ..DporConfig::default()
        };
        let out = explore(&cfg, jobs, |s: &ScheduleScript| {
            let mut key = s.decisions.clone();
            while key.last() == Some(&0) {
                key.pop();
            }
            let mut fp = Hasher::new();
            for &d in &key {
                fp.word(u64::from(d));
            }
            fp.word(key.len() as u64 + 100);
            let mut o = obs(4, None, fp.0, fp.0 % 5);
            o.points[1].point.line = Some(0xDEAD);
            o
        });
        (
            out.executed,
            out.pruned,
            out.explored,
            out.classes,
            out.complete,
        )
    }

    /// Every probe checks the subtree budget before it runs, at the top
    /// level as below it, so a subtree never executes more than its
    /// budget: the walk runs at most the root plus 3 conflicting
    /// subtrees × budget.
    #[test]
    fn subtree_budget_caps_every_probe_at_any_arity() {
        let rows = [
            (2, 0, (1, 1, 2, 1, false)),
            (2, 1, (4, 1, 5, 3, false)),
            (2, 2, (6, 1, 7, 4, false)),
            (2, 20_000, (7, 2, 9, 4, true)),
            (3, 0, (1, 2, 3, 1, false)),
            (3, 1, (4, 2, 6, 3, false)),
            (3, 2, (7, 2, 9, 4, false)),
            (3, 20_000, (19, 6, 25, 4, true)),
        ];
        for (arity, budget, want) in rows {
            for jobs in [1, 3] {
                let got = census(arity, budget, jobs);
                assert_eq!(got, want, "arity={arity} budget={budget} jobs={jobs}");
                assert!(got.0 <= 1 + 3 * budget, "arity={arity} budget={budget}");
            }
        }
    }

    #[test]
    fn trace_class_ignores_schedule_but_sees_conflict_order() {
        let mut a = ScvLog::new();
        a.record(0, 8, true, 0);
        a.record(1, 8, false, 0);
        a.record(2, 16, false, 0); // unrelated read, interleaved late
        let mut b = ScvLog::new();
        b.record(2, 16, false, 0); // same events, different global order
        b.record(0, 8, true, 0);
        b.record(1, 8, false, 0);
        assert_eq!(trace_class(&None, &a), trace_class(&None, &b));
        let mut c = ScvLog::new();
        c.record(1, 8, false, 0); // read now BEFORE the write: new class
        c.record(0, 8, true, 0);
        c.record(2, 16, false, 0);
        assert_ne!(trace_class(&None, &a), trace_class(&None, &c));
    }

    #[test]
    fn shared_lines_require_two_cores() {
        let mut log = ScvLog::new();
        log.record(0, 0, true, 0);
        log.record(0, 8, false, 1); // same line (32 B): still private
        log.record(1, 64, true, 0);
        log.record(0, 64, false, 2); // line 2 contested
        let s = shared_lines(&log, 32);
        assert_eq!(s, BTreeSet::from([2]));
    }
}
