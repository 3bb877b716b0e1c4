//! The assignment search: enumerate → prune → validate → score → rank.
//!
//! For one ([`SiteBench`], [`FenceDesign`]) pair the search walks every
//! weak-site mask in `0..2^sites` in ascending order:
//!
//! 1. **Prune** masks that violate the design's structural constraint
//!    over the discovered fence groups ([`crate::groups`]) — no
//!    simulation is spent on them.
//! 2. **Validate** survivors with the schedule-exploration oracle
//!    ([`Explorer::sweep_builder`]): a perturbation-seed sweep whose
//!    every run is checked by the Shasha–Snir cycle finder, with
//!    deadlock and cycle-budget exhaustion also counting as failures.
//! 3. **Score** oracle-valid candidates by simulated cycles through the
//!    shared [`RunSpec`] → [`Runner`] engine (one batch, fanned out over
//!    the runner's worker pool, order-preserving).
//! 4. **Rank** deterministically: minimum `(cycles, mask)`.
//!
//! Scores are memoized by `(design, bench, SiteMask)`, so searching a
//! workload and design again on one [`Synthesizer`] re-scores nothing
//! (the paper's own mask is read from the search's scores).
//! Everything — including the charged [`SearchStats`] — is a pure
//! function of the inputs, independent of `--jobs`.

use std::collections::HashMap;

use asymfence::prelude::{FenceDesign, Machine, MachineConfig, RunOutcome, TraceSink};
use asymfence_bench::{RunSpec, Runner, SiteMask};
use asymfence_common::assign::SearchStats;
use asymfence_common::ids::CoreId;
use asymfence_common::placement::{Placement, PlacementSpec};
use asymfence_common::schedule::SchedulePlan;
use asymfence_common::trace::TraceKind;
use asymfence_common::trace_event;
use asymfence_explore::{DporConfig, Explorer};
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::unannot::InferredKernel;

use crate::groups;

/// What one search run synthesizes over: a hand-annotated benchmark's
/// numbered sites, or an analyzer placement's synthetic sites injected
/// into an unannotated kernel. Both expose the same mask space.
// The inline `PlacementSpec` keeps the target (and the `RunSpec`s built
// from it) plain `Copy` data; see `Workload::Inferred` in the runner.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Copy, Debug)]
enum Target {
    Hand(SiteBench),
    Inferred(InferredKernel, PlacementSpec),
}

impl Target {
    fn name(self) -> &'static str {
        match self {
            Target::Hand(b) => b.name(),
            Target::Inferred(k, _) => k.name(),
        }
    }

    /// The candidate mask over this target's site-id range. Hand and
    /// inferred masks can never alias in the score memo: their `base`
    /// differs, since the synthetic range is disjoint.
    fn mask(self, n_sites: u32, weak: u64) -> SiteMask {
        match self {
            Target::Hand(_) => SiteMask::hand(n_sites, weak),
            Target::Inferred(..) => SiteMask::synthetic(n_sites, weak),
        }
    }

    /// The scoring spec for one candidate mask.
    fn spec(self, design: FenceDesign, seed: u64, n_sites: u32, weak: u64) -> RunSpec {
        let spec = match self {
            Target::Hand(b) => RunSpec::sites(b, design, seed),
            Target::Inferred(k, p) => RunSpec::inferred(k, p, design, seed),
        };
        spec.with_assignment(self.mask(n_sites, weak))
    }
}

/// One oracle-valid, scored candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Weak-site mask (bit `i` = `sites[i]` weak).
    pub mask: u64,
    /// Simulated cycles of the scoring run.
    pub cycles: u64,
}

/// How the paper's hand annotation fared under the same oracle + scorer.
#[derive(Clone, Copy, Debug)]
pub struct PaperVerdict {
    /// The annotation as a weak-site mask.
    pub mask: u64,
    /// Whether the oracle accepted it (a `false` here is a finding: the
    /// hand annotation is unsafe under this design).
    pub valid: bool,
    /// Scoring cycles when valid.
    pub cycles: Option<u64>,
}

/// The full outcome of synthesizing one (workload, design) pair.
#[derive(Clone, Debug)]
pub struct SynthResult {
    /// The workload searched (bench name, or kernel name for inferred
    /// placements).
    pub name: &'static str,
    /// The design searched under.
    pub design: FenceDesign,
    /// Number of fence sites (the search space is `2^n_sites`).
    pub n_sites: u32,
    /// Discovered fence groups, as indices into the site list.
    pub groups: Vec<Vec<usize>>,
    /// Best valid candidate (min cycles, ties to the smaller mask).
    /// `None` only if every mask failed — which no safe design produces,
    /// since the all-strong mask is always admissible and SC.
    pub best: Option<Candidate>,
    /// The paper annotation's verdict. `None` for inferred placements,
    /// which have no hand annotation to compare against.
    pub paper: Option<PaperVerdict>,
    /// Search accounting (serial-equivalent, jobs-independent).
    pub stats: SearchStats,
}

/// The synthesis engine: owns the oracle budgets, the scoring runner and
/// the cross-call score memo.
pub struct Synthesizer {
    /// Oracle (perturbation-sweep) engine. Its `jobs` field is set from
    /// the runner so one `--jobs` governs both layers.
    pub explorer: Explorer,
    /// Scoring engine.
    pub runner: Runner,
    /// Workload seed for both the oracle machines and the scoring runs.
    pub seed: u64,
    /// When set, survivors are validated by bounded-exhaustive DPOR
    /// exploration ([`Explorer::explore_exhaustive_builder`]) instead of
    /// the perturbation-seed sweep: every accepted assignment is then a
    /// *proof* of SC up to the configured reorder bound. `None` (the
    /// default) keeps the sampled oracle byte-identical to earlier
    /// releases.
    pub exhaustive: Option<DporConfig>,
    /// Mask-space partition for sharded sweeps: only masks this shard
    /// owns (round-robin by mask value) are enumerated, and the charged
    /// [`SearchStats`] count only the owned work — shard stats sum to
    /// the single-process totals. The oracle explorer inside stays
    /// *whole* regardless (each owned mask is validated over the full
    /// seed budget; sharding both layers would skip seeds). Defaults to
    /// the whole space.
    pub shard: asymfence_common::par::Shard,
    memo: HashMap<(FenceDesign, &'static str, SiteMask), u64>,
}

impl Synthesizer {
    /// Creates an engine; `explorer.jobs` is aligned to the runner's
    /// worker count.
    pub fn new(explorer: Explorer, runner: Runner, seed: u64) -> Self {
        let explorer = explorer.with_jobs(runner.jobs());
        Synthesizer {
            explorer,
            runner,
            seed,
            exhaustive: None,
            shard: asymfence_common::par::Shard::whole(),
            memo: HashMap::new(),
        }
    }

    /// Restricts the search to the masks `shard` owns (see the `shard`
    /// field); merging the per-shard bests by `(cycles, mask)` and
    /// summing the per-shard stats reproduces the whole-space search.
    #[must_use]
    pub fn with_shard(mut self, shard: asymfence_common::par::Shard) -> Self {
        self.shard = shard;
        self
    }

    /// Switches oracle validation to bounded-exhaustive exploration at
    /// the given reorder bound (derived from the explorer's perturbation
    /// magnitudes, like `explore --exhaustive`).
    #[must_use]
    pub fn with_exhaustive(mut self, bound: usize) -> Self {
        self.exhaustive = Some(DporConfig::from_explore(&self.explorer.cfg, bound));
        self
    }

    /// Builds one oracle machine for a scoring spec: the spec's own
    /// config with the explorer's watchdog, then `plan` (which sets the
    /// perturbation or the scripted schedule), with the spec's program
    /// installed. The oracle thus judges exactly the machine the scorer
    /// times, apart from the schedule under test.
    ///
    /// # Panics
    ///
    /// Panics if the planned perturbation or schedule delays reach the
    /// watchdog (`MachineConfig::validate`).
    pub fn oracle_machine(&self, spec: &RunSpec, plan: impl FnOnce(&mut MachineConfig)) -> Machine {
        let mut cfg = spec.config();
        cfg.watchdog_cycles = self.explorer.cfg.watchdog_cycles;
        plan(&mut cfg);
        let mut m = Machine::new(&cfg);
        spec.install(&mut m);
        m
    }

    /// Scores a batch of oracle-valid masks through the `RunSpec` →
    /// `Runner` engine, consulting and filling the memo. Returns
    /// `(mask, cycles, finished)` per input mask, in input order.
    fn score(
        &mut self,
        target: Target,
        design: FenceDesign,
        n_sites: u32,
        masks: &[u64],
        stats: &mut SearchStats,
    ) -> Vec<(u64, u64, bool)> {
        let key = |mask: u64| (design, target.name(), target.mask(n_sites, mask));
        let fresh: Vec<u64> = masks
            .iter()
            .copied()
            .filter(|&m| !self.memo.contains_key(&key(m)))
            .collect();
        stats.memo_hits += (masks.len() - fresh.len()) as u64;
        let specs: Vec<RunSpec> = fresh
            .iter()
            .map(|&m| target.spec(design, self.seed, n_sites, m))
            .collect();
        let results = self.runner.run(&specs);
        stats.runs += results.len() as u64;
        for (&m, r) in fresh.iter().zip(&results) {
            // A non-finishing scoring run is recorded as u64::MAX cycles
            // so it can never win the ranking; `finished` reports it.
            let cycles = if r.outcome == RunOutcome::Finished {
                r.cycles
            } else {
                u64::MAX
            };
            self.memo.insert(key(m), cycles);
        }
        masks
            .iter()
            .map(|&m| {
                let c = self.memo[&key(m)];
                (m, c, c != u64::MAX)
            })
            .collect()
    }

    /// The shared enumerate → prune → validate → score core. Returns the
    /// oracle survivors, the scored `(mask, cycles, finished)` triples,
    /// the ranked best, and the charged stats; emits the per-mask trace
    /// events in mask order on the caller's thread.
    #[allow(clippy::type_complexity)]
    fn search_masks(
        &mut self,
        target: Target,
        design: FenceDesign,
        n_sites: u32,
        groups: &[Vec<usize>],
        mut trace: Option<&mut TraceSink>,
    ) -> (
        Vec<u64>,
        Vec<(u64, u64, bool)>,
        Option<Candidate>,
        SearchStats,
    ) {
        assert!(n_sites <= 16, "mask enumeration is meant for small kernels");
        let mut stats = SearchStats::default();
        let mut step: u64 = 0;
        let mut rejected: Vec<(u64, &'static str)> = Vec::new();
        let mut survivors: Vec<u64> = Vec::new();

        // Phase 1+2: enumerate, prune, oracle-validate (ascending mask
        // order keeps every downstream artifact deterministic).
        for mask in 0..(1u64 << n_sites) {
            // Sharded search: masks another shard owns are skipped before
            // any accounting, so per-shard stats sum to the whole-space
            // totals.
            if !self.shard.owns(mask) {
                continue;
            }
            stats.enumerated += 1;
            if let Some(reason) = groups::structural_reject(design, groups, mask) {
                stats.pruned += 1;
                rejected.push((mask, reason));
                continue;
            }
            let spec = target.spec(design, self.seed, n_sites, mask);
            let (charged, violation) = match &self.exhaustive {
                Some(dcfg) => {
                    let out = self.explorer.explore_exhaustive_builder(dcfg, |script| {
                        self.oracle_machine(&spec, |c| c.schedule = SchedulePlan::Scripted(script))
                    });
                    (out.executed, out.violation.map(|(_, failure)| failure))
                }
                None => {
                    let report = self.explorer.sweep_builder(|perturb| {
                        self.oracle_machine(&spec, |c| c.schedule = SchedulePlan::Seeded(perturb))
                    });
                    (report.runs, report.violation.map(|(_, failure)| failure))
                }
            };
            stats.runs += charged;
            match violation {
                Some(failure) => {
                    stats.oracle_rejected += 1;
                    rejected.push((mask, oracle_reason(&failure)));
                }
                None => {
                    stats.valid += 1;
                    survivors.push(mask);
                }
            }
        }

        // Phase 3: score the survivors in one parallel batch.
        let scored = self.score(target, design, n_sites, &survivors, &mut stats);
        let best = scored
            .iter()
            .filter(|&&(_, _, finished)| finished)
            .map(|&(mask, cycles, _)| Candidate { mask, cycles })
            .min_by_key(|c| (c.cycles, c.mask));

        // Trace: replay the per-mask decisions in mask order.
        if trace.is_some() {
            let mut events: Vec<(u64, TraceKind)> = rejected
                .iter()
                .map(|&(mask, reason)| (mask, TraceKind::SynthReject { mask, reason }))
                .collect();
            for &(mask, cycles, finished) in &scored {
                events.push((
                    mask,
                    if finished {
                        TraceKind::SynthAccept { mask, cycles }
                    } else {
                        TraceKind::SynthReject {
                            mask,
                            reason: "score:no-finish",
                        }
                    },
                ));
            }
            events.sort_by_key(|&(mask, _)| mask);
            for (mask, kind) in events {
                trace_event!(
                    trace.as_deref_mut(),
                    step,
                    CoreId(mask.count_ones() as usize),
                    kind
                );
                step += 1;
            }
        }

        (survivors, scored, best, stats)
    }

    /// Synthesizes the best per-site assignment for one (bench, design)
    /// pair. `trace` (when given) receives one `SynthReject` /
    /// `SynthAccept` event per mask, in mask order, with the search step
    /// as the timestamp and the mask's popcount as the track — emitted
    /// on the caller's thread, so the trace too is jobs-independent.
    pub fn synthesize(
        &mut self,
        bench: SiteBench,
        design: FenceDesign,
        trace: Option<&mut TraceSink>,
    ) -> SynthResult {
        let cfg = MachineConfig::builder().cores(bench.cores()).build();
        let sites = bench.sites(&cfg);
        let n_sites = sites.len() as u32;
        let groups = groups::fence_groups(&sites, cfg.line_bytes);
        let paper_mask = groups::paper_mask(&sites, design);

        let target = Target::Hand(bench);
        let (survivors, scored, best, stats) =
            self.search_masks(target, design, n_sites, &groups, trace);

        // The paper's own annotation, judged by the same oracle + scorer.
        let paper = if groups::structural_reject(design, &groups, paper_mask).is_some() {
            // Can only happen for a design/annotation mismatch; recorded,
            // not panicked on, since that mismatch IS the finding.
            PaperVerdict {
                mask: paper_mask,
                valid: false,
                cycles: None,
            }
        } else if survivors.contains(&paper_mask) {
            let cycles = scored
                .iter()
                .find(|&&(m, _, finished)| m == paper_mask && finished)
                .map(|&(_, c, _)| c);
            PaperVerdict {
                mask: paper_mask,
                valid: true,
                cycles,
            }
        } else {
            PaperVerdict {
                mask: paper_mask,
                valid: false,
                cycles: None,
            }
        };

        SynthResult {
            name: bench.name(),
            design,
            n_sites,
            groups,
            best,
            paper: Some(paper),
            stats,
        }
    }

    /// Synthesizes the best per-site strength assignment for an
    /// analyzer-inferred [`Placement`] over an unannotated kernel. The
    /// placement's fences become synthetic sites
    /// ([`SiteMask::synthetic`]); the kernel's programs run wrapped in
    /// [`FencedProgram`](asymfence::cpu::insert::FencedProgram)
    /// decorators that inject a fence exactly at each placed window, and
    /// the oracle and the scorer install them through the same
    /// [`RunSpec::install`], so both exercise the machine the analyzer's
    /// report describes. No paper verdict: there
    /// is no hand annotation to compare against.
    pub fn synthesize_inferred(
        &mut self,
        kernel: InferredKernel,
        placement: &Placement,
        design: FenceDesign,
        trace: Option<&mut TraceSink>,
    ) -> SynthResult {
        let n_sites = placement.len() as u32;
        let cfg = MachineConfig::builder().cores(kernel.cores()).build();
        let groups = groups::fence_groups_of(&placement.fences, cfg.line_bytes);

        let target = Target::Inferred(kernel, placement.spec());
        let (_, _, best, stats) = self.search_masks(target, design, n_sites, &groups, trace);

        SynthResult {
            name: kernel.name(),
            design,
            n_sites,
            groups,
            best,
            paper: None,
            stats,
        }
    }
}

/// Static reason label for an oracle failure.
fn oracle_reason(f: &asymfence_explore::Failure) -> &'static str {
    match f {
        asymfence_explore::Failure::Scv { .. } => "oracle:scv",
        asymfence_explore::Failure::Deadlock => "oracle:deadlock",
        asymfence_explore::Failure::CycleLimit => "oracle:cycle-limit",
    }
}

/// Renders a weak-site mask as the weak sites' labels
/// (`wf{owner.take}` style), or `all-sf` for the empty mask. `labels`
/// are the site labels in mask-bit order.
pub fn mask_label(labels: &[&str], mask: u64) -> String {
    if mask == 0 {
        return "all-sf".into();
    }
    let weak: Vec<&str> = labels
        .iter()
        .copied()
        .enumerate()
        .filter(|&(i, _)| mask & (1 << i) != 0)
        .map(|(_, label)| label)
        .collect();
    format!("wf{{{}}}", weak.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::scv;
    use asymfence_explore::ExploreConfig;

    fn quick_synth(jobs: usize) -> Synthesizer {
        let cfg = ExploreConfig {
            seeds: 6,
            ..Default::default()
        };
        Synthesizer::new(
            Explorer::new(cfg),
            Runner::with_jobs(jobs).progress(false),
            asymfence_bench::SEED,
        )
    }

    /// Builds `spec`'s oracle machine under the natural schedule and the
    /// spec's own watchdog, and checks it is the scoring machine: the
    /// same config, and a run with the same outcome, cycles, stats and
    /// SCV verdict as [`RunSpec::execute`].
    fn assert_oracle_runs_the_scoring_spec(spec: &RunSpec) {
        let explorer = Explorer::new(ExploreConfig {
            watchdog_cycles: spec.config().watchdog_cycles,
            ..Default::default()
        });
        let synth = Synthesizer::new(explorer, Runner::with_jobs(1).progress(false), spec.seed);
        let mut m = synth.oracle_machine(spec, |c| c.schedule = SchedulePlan::default());
        assert_eq!(*m.config(), spec.config(), "{}", spec.label());
        let outcome = m.run(synth.explorer.cfg.max_cycles);
        let scored = spec.execute();
        assert_eq!(outcome, scored.outcome, "{}", spec.label());
        assert_eq!(m.now(), scored.cycles, "{}", spec.label());
        assert_eq!(m.stats(), scored.stats, "{}", spec.label());
        let scv = m.scv_log().is_some_and(scv::has_violation);
        assert_eq!(scv, scored.scv, "{}", spec.label());
    }

    #[test]
    fn oracle_machine_runs_what_the_scorer_scores() {
        for bench in SiteBench::ALL {
            let cfg = MachineConfig::builder().cores(bench.cores()).build();
            let n_sites = bench.sites(&cfg).len() as u32;
            let all = (1u64 << n_sites) - 1;
            let mut masks = vec![0, 1, all & 0x5555, all & 0xaaaa, all >> 1, all];
            masks.sort_unstable();
            masks.dedup();
            for design in [
                FenceDesign::SPlus,
                FenceDesign::WsPlus,
                FenceDesign::SwPlus,
                FenceDesign::WPlus,
            ] {
                for &mask in &masks {
                    let spec =
                        Target::Hand(bench).spec(design, asymfence_bench::SEED, n_sites, mask);
                    assert_oracle_runs_the_scoring_spec(&spec);
                }
            }
        }
    }

    #[test]
    fn sb_under_ws_plus_accepts_one_weak_fence() {
        let mut s = quick_synth(2);
        let r = s.synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        assert_eq!(r.groups, vec![vec![0, 1]]);
        let best = r.best.expect("all-sf is always valid");
        // WS+ admits masks 00, 01, 10; a weak fence is never slower than
        // the strong one it replaces.
        assert!(best.mask.count_ones() <= 1);
        let paper = r.paper.expect("hand benches carry a paper verdict");
        assert!(paper.valid, "paper annotation must pass the oracle");
        assert!(best.cycles <= paper.cycles.unwrap());
        assert_eq!(r.stats.pruned, 1, "only the all-weak mask is pruned");
    }

    #[test]
    fn s_plus_admits_only_the_all_strong_mask() {
        let mut s = quick_synth(1);
        let r = s.synthesize(SiteBench::Sb, FenceDesign::SPlus, None);
        assert_eq!(r.best.map(|b| b.mask), Some(0));
        assert_eq!(r.stats.pruned, 3);
        assert_eq!(r.stats.valid, 1);
    }

    #[test]
    fn memo_dedupes_repeat_scoring() {
        let mut s = quick_synth(1);
        let a = s.synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        assert_eq!(a.stats.memo_hits, 0);
        let b = s.synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        assert_eq!(b.best, a.best);
        assert_eq!(
            b.stats.memo_hits, b.stats.valid,
            "second pass scores entirely from the memo"
        );
    }

    #[test]
    fn results_are_identical_at_any_job_count() {
        for bench in [SiteBench::Sb, SiteBench::Wsq] {
            let r1 = quick_synth(1).synthesize(bench, FenceDesign::WsPlus, None);
            let r2 = quick_synth(3).synthesize(bench, FenceDesign::WsPlus, None);
            assert_eq!(r1.best, r2.best, "{}", bench.name());
            assert_eq!(r1.stats, r2.stats, "{}", bench.name());
        }
    }

    #[test]
    fn exhaustive_validation_agrees_with_the_sampled_oracle() {
        let sampled = quick_synth(2).synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        let mut ex = quick_synth(2).with_exhaustive(1);
        let proven = ex.synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        // Same admissible space, same verdicts: every sampled survivor is
        // now proven SC up to the bound, and nothing new is rejected.
        assert_eq!(proven.stats.valid, sampled.stats.valid);
        assert_eq!(proven.stats.oracle_rejected, sampled.stats.oracle_rejected);
        assert_eq!(proven.best.map(|b| b.mask), sampled.best.map(|b| b.mask));
        assert!(proven.paper.unwrap().valid);
    }

    #[test]
    fn exhaustive_validation_is_identical_at_any_job_count() {
        let r1 =
            quick_synth(1)
                .with_exhaustive(1)
                .synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        let r2 =
            quick_synth(3)
                .with_exhaustive(1)
                .synthesize(SiteBench::Sb, FenceDesign::WsPlus, None);
        assert_eq!(r1.best, r2.best);
        assert_eq!(r1.stats, r2.stats);
    }
}
