//! The `search` workload: the fence-placement tools. Synthesis over the
//! site benchmarks at the `--quick` oracle budget, whole-program
//! inference plus strength synthesis over the six unannotated kernels,
//! and a bounded-exhaustive (DPOR) walk of the litmus corpus under every
//! design. Tens of thousands of short simulations with SC logging, so
//! per-run costs dominate.
//!
//! Synthesis and inference take their workload seed from `--seed`; the
//! DPOR walk enumerates scripted schedules and does not depend on it.
//! The untraced pass runs each synthesis search as [`SYNTH_SHARDS`]
//! mask shards (the synthesizer's own shard seam), one timed step each,
//! and merges them; the traced pass searches the whole space at once,
//! so the gate holds the merge to the unsharded result.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use asymfence::prelude::*;
use asymfence_analyze::{place, Analysis};
use asymfence_bench::{RunSpec, Runner};
use asymfence_common::assign::SearchStats;
use asymfence_common::par::Shard;
use asymfence_common::schedule::ScheduleScript;
use asymfence_explore::{
    dpor, DporConfig, ExploreConfig, Explorer, Failure, RunObs, Scenario, ALL_DESIGNS,
};
use asymfence_synth::report::{seed_budget, SYNTH_DESIGNS};
use asymfence_synth::{SynthResult, Synthesizer};
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::unannot::InferredKernel;

use crate::digest::Digest;
use crate::gate::Unit;
use crate::pace::Pacer;
use crate::probe::{ns_since, Layers};
use crate::{Gains, Metrics, Pass, Workload};

/// Runs `f` as a timed step of `pacer`, if there is one.
fn step<T>(pacer: &mut Option<&mut Pacer>, f: impl FnOnce() -> T) -> T {
    match pacer {
        Some(p) => p.step(f),
        None => f(),
    }
}

/// Mask shards a timed synthesis search is split into, one step each:
/// the longest search (bakery under SW+) takes seconds whole.
pub const SYNTH_SHARDS: u64 = 8;

/// Folds the results of one search run shard by shard (in shard order)
/// into the whole-space result, as the synthesizer's shard seam
/// promises: the best by `(cycles, mask)`, the stats summed, and the
/// paper verdict of the shard that owns the paper's mask.
fn merge_shards(parts: Vec<SynthResult>) -> SynthResult {
    let shards = parts.len() as u64;
    let mut parts = parts.into_iter().enumerate();
    let (_, mut whole) = parts.next().expect("at least one shard");
    for (k, r) in parts {
        whole.stats.merge(&r.stats);
        whole.best = match (whole.best, r.best) {
            (Some(a), Some(b)) if (b.cycles, b.mask) < (a.cycles, a.mask) => Some(b),
            (a, b) => a.or(b),
        };
        if let Some(p) = r.paper {
            if Shard::new(k as u64, shards).owns(p.mask) {
                whole.paper = Some(p);
            }
        }
    }
    whole
}

/// Reorder bound of the DPOR walk (about 22k schedules over the corpus).
pub const DPOR_BOUND: usize = 3;

/// A synthesizer with one worker in both of its layers (scoring runner
/// and oracle explorer).
fn synthesizer(seed: u64) -> Synthesizer {
    let explorer = Explorer::new(ExploreConfig {
        seeds: seed_budget(true),
        ..Default::default()
    })
    .with_jobs(1);
    Synthesizer::new(explorer, Runner::with_jobs(1).progress(false), seed)
}

fn result_digest(d: &mut Digest, r: &SynthResult) {
    d.str(r.design.label())
        .u64(u64::from(r.n_sites))
        .str(&format!("{:?}", r.groups))
        .str(&format!("{:?}", r.best))
        .str(&format!("{:?}", r.paper))
        .str(&format!("{:?}", r.stats));
}

/// One DPOR walk's census and verdict.
struct Walk {
    design: FenceDesign,
    executed: u64,
    pruned: u64,
    explored: u64,
    classes: u64,
    complete: bool,
    violation: Option<(Vec<u8>, String)>,
}

fn failure_kind(f: &Failure) -> String {
    match f {
        Failure::Scv { report } => format!("scv {report}"),
        Failure::Deadlock => "deadlock".into(),
        Failure::CycleLimit => "cycle-limit".into(),
    }
}

/// The workload's state after set-up.
pub struct Search {
    seed: u64,
    explorer: Explorer,
    dcfg: DporConfig,
    /// Corpus scenarios per design, with the statically shared lines
    /// and whether the corpus marks them SC under every design.
    corpus: Vec<(Scenario, FenceDesign, BTreeSet<u64>, bool)>,
    /// The inferred placements of the unannotated kernels.
    analyses: Vec<Analysis>,
    /// Time `place::analyze` took in the set-up that produced them.
    analyze_s: f64,
}

impl Search {
    /// Set-up: the inferred placements of the six unannotated kernels
    /// (`place::analyze`: SC interpretation and critical-cycle placement,
    /// no timing simulation — the inputs the strength search takes), one
    /// cold all-sf scoring run of every site benchmark and kernel, the
    /// oracle and DPOR configurations, and the corpus expanded per design
    /// with its static footprints and one cold natural-order run each.
    pub fn prepare(seed: u64) -> Self {
        let t = Instant::now();
        let analyses: Vec<Analysis> = InferredKernel::ALL
            .into_iter()
            .map(|k| place::analyze(k, seed))
            .collect();
        let analyze_s = t.elapsed().as_secs_f64();
        // One cold scoring run of every target the strength search
        // scores (the machine shapes and programs it will reuse).
        for bench in SiteBench::ALL {
            std::hint::black_box(RunSpec::sites(bench, FenceDesign::SPlus, seed).execute());
        }
        for a in &analyses {
            let spec = RunSpec::inferred(a.kernel, a.placement.spec(), FenceDesign::SPlus, seed);
            std::hint::black_box(spec.execute());
        }
        let explorer = Explorer::new(ExploreConfig::default()).with_jobs(1);
        let dcfg = DporConfig::from_explore(&explorer.cfg, DPOR_BOUND);
        let line_bytes = MachineConfig::default().line_bytes;
        let mut corpus = Vec::new();
        for (sc, clean) in Scenario::litmus_corpus() {
            for d in ALL_DESIGNS {
                let s = sc.clone().with_roles_for(d);
                let shared = s.shared_slot_lines(line_bytes);
                let mut m =
                    s.machine_scripted(d, dcfg.script(Vec::new()), explorer.cfg.watchdog_cycles);
                std::hint::black_box(m.run(explorer.cfg.max_cycles));
                corpus.push((s, d, shared, clean));
            }
        }
        Search {
            seed,
            explorer,
            dcfg,
            corpus,
            analyses,
            analyze_s,
        }
    }

    /// Walks one corpus entry's bounded choice tree, as
    /// `Explorer::explore_exhaustive` does (without shrinking a found
    /// violation). With `layers`, the machine build, the run and the SC
    /// verdict are timed apart and the run's counters recorded.
    fn walk(&self, i: usize, layers: Option<&Mutex<Layers>>) -> (Walk, u64) {
        let (sc, design, shared, _) = &self.corpus[i];
        let cycles = AtomicU64::new(0);
        let line_bytes = MachineConfig::default().line_bytes;
        let out = dpor::explore(&self.dcfg, 1, |script: &ScheduleScript| {
            let t0 = Instant::now();
            let mut m =
                sc.machine_scripted(*design, script.clone(), self.explorer.cfg.watchdog_cycles);
            let failure = match layers {
                None => self.explorer.check_machine(&mut m),
                Some(layers) => {
                    let t1 = Instant::now();
                    let outcome = m.run(self.explorer.cfg.max_cycles);
                    let t2 = Instant::now();
                    let failure = match outcome {
                        RunOutcome::Deadlocked => Some(Failure::Deadlock),
                        RunOutcome::CycleLimit => Some(Failure::CycleLimit),
                        RunOutcome::Finished => {
                            let log = m.scv_log().expect("corpus machines log");
                            scv::find_cycle(log).map(|c| Failure::Scv {
                                report: scv::describe_cycle(log, &c),
                            })
                        }
                    };
                    let stats = m.stats();
                    let mut l = layers.lock().expect("layer lock");
                    l.machine_ns += (t1 - t0).as_nanos() as u64;
                    l.run_ns += (t2 - t1).as_nanos() as u64;
                    l.harvest_ns += ns_since(t2);
                    l.run_wall_ns.push(ns_since(t0));
                    l.count(m.now(), &stats);
                    failure
                }
            };
            cycles.fetch_add(m.now(), Ordering::Relaxed);
            let recording = m.take_schedule_recording().unwrap_or_default();
            let log = m.scv_log().cloned().unwrap_or_default();
            RunObs::new(failure, recording, &log, m.now(), line_bytes, shared)
        });
        let walk = Walk {
            design: *design,
            executed: out.executed,
            pruned: out.pruned,
            explored: out.explored,
            classes: out.classes,
            complete: out.complete,
            violation: out.violation.map(|(d, f)| (d, failure_kind(&f))),
        };
        (walk, cycles.into_inner())
    }

    /// The whole workload. With `pacer`, every search and walk is one
    /// timed step; with `layers`, also returns the per-layer metrics of
    /// the calls it made.
    fn run(
        &self,
        mut pacer: Option<&mut Pacer>,
        layers: Option<&Mutex<Layers>>,
    ) -> (Pass, Metrics) {
        let mut m = Metrics::default();
        let t = Instant::now();
        let mut units = Vec::new();
        let mut ops = 0;
        let mut bad = 0;
        let mut stats = SearchStats::default();
        // Per target, the best cycles under each of `SYNTH_DESIGNS`.
        let mut best: Vec<Vec<Option<u64>>> = Vec::new();

        // Searches one target under every synthesis design, folding the
        // results into its unit, the stats, the gains and the invariant.
        // A timed search is split over `SYNTH_SHARDS` mask shards, one
        // step each, and folded back into the whole-space result.
        let shards = if pacer.is_some() { SYNTH_SHARDS } else { 1 };
        let mut search_target =
            |name: String,
             mut d: Digest,
             search: &mut dyn FnMut(FenceDesign, Shard) -> SynthResult| {
                let mut n = 0;
                let mut target = Vec::new();
                for design in SYNTH_DESIGNS {
                    let parts = (0..shards)
                        .map(|k| step(&mut pacer, || search(design, Shard::new(k, shards))))
                        .collect();
                    let r = merge_shards(parts);
                    result_digest(&mut d, &r);
                    n += r.stats.runs;
                    stats.merge(&r.stats);
                    bad += u64::from(r.best.is_none());
                    target.push(r.best.map(|b| b.cycles));
                }
                best.push(target);
                ops += n;
                units.push(Unit {
                    name,
                    digest: d.finish(),
                    ops: n,
                });
            };

        let t_synth = Instant::now();
        let mut synth = synthesizer(self.seed);
        for bench in SiteBench::ALL {
            search_target(
                format!("synth.{}", bench.name()),
                Digest::default(),
                &mut |design, shard| {
                    synth.shard = shard;
                    synth.synthesize(bench, design, None)
                },
            );
        }
        m.set("synth.s", t_synth.elapsed().as_secs_f64());

        let t_analyze = Instant::now();
        let mut synth = synthesizer(self.seed);
        for a in &self.analyses {
            let mut d = Digest::default();
            d.u64(a.windows.len() as u64)
                .u64(a.critical.len() as u64)
                .u64(a.cycles)
                .str(&format!("{:?}", a.placement.spec()));
            search_target(
                format!("analyze.{}", a.kernel.name()),
                d,
                &mut |design, shard| {
                    synth.shard = shard;
                    synth.synthesize_inferred(a.kernel, &a.placement, design, None)
                },
            );
        }
        m.set(
            "analyze.s",
            self.analyze_s + t_analyze.elapsed().as_secs_f64(),
        );

        let t_explore = Instant::now();
        let (mut executed, mut pruned, mut cycles) = (0u64, 0u64, 0u64);
        let mut per_scenario: Vec<(String, Digest, u64)> = Vec::new();
        for i in 0..self.corpus.len() {
            let (w, c) = step(&mut pacer, || self.walk(i, layers));
            let (sc, _, _, clean) = &self.corpus[i];
            if per_scenario.last().map(|p| p.0.as_str()) != Some(sc.name.as_str()) {
                per_scenario.push((sc.name.to_string(), Digest::default(), 0));
            }
            let p = per_scenario.last_mut().expect("just pushed");
            p.1.str(w.design.label())
                .u64(w.executed)
                .u64(w.pruned)
                .u64(w.explored)
                .u64(w.classes)
                .u64(u64::from(w.complete))
                .str(&format!("{:?}", w.violation))
                .u64(c);
            p.2 += w.executed;
            executed += w.executed;
            pruned += w.pruned;
            cycles += c;
            if *clean && (w.violation.is_some() || !w.complete) {
                bad += 1;
            }
        }
        ops += executed;
        units.extend(per_scenario.into_iter().map(|(s, d, n)| Unit {
            name: format!("dpor.{s}"),
            digest: d.finish(),
            ops: n,
        }));
        m.set("explore.s", t_explore.elapsed().as_secs_f64());
        let wall_s = pacer.map_or(t.elapsed().as_secs_f64(), |p| p.pass_s());

        m.set("explore.runs", executed as f64);
        m.set(
            "explore.pruned_ratio",
            pruned as f64 / (executed + pruned).max(1) as f64,
        );
        let searched = stats.enumerated - stats.pruned;
        m.set("synth.masks", stats.enumerated as f64);
        m.set(
            "synth.pruned_ratio",
            stats.pruned as f64 / stats.enumerated.max(1) as f64,
        );
        m.set(
            "synth.valid_ratio",
            stats.valid as f64 / searched.max(1) as f64,
        );
        m.set(
            "synth.memo_hit_ratio",
            stats.memo_hits as f64 / stats.valid.max(1) as f64,
        );
        m.set("synth.sim_runs", stats.runs as f64);

        // Total cycles the synthesized assignments save against all-sf
        // S+ (S+ admits no weak fence), over every target.
        let gain = |design| {
            let col = SYNTH_DESIGNS.iter().position(|&d| d == design)?;
            let (mut base, mut saved) = (0.0, 0.0);
            for t in &best {
                let (s, c) = (t[0]? as f64, t[col]? as f64);
                base += s;
                saved += s - c;
            }
            Some(100.0 * saved / base)
        };
        let pass = Pass {
            wall_s,
            ops,
            cycles,
            units,
            gains: Gains {
                ws: gain(FenceDesign::WsPlus).unwrap_or(f64::NAN),
                w: gain(FenceDesign::WPlus).unwrap_or(f64::NAN),
            },
            failed_invariants: bad,
            pool_reuse: 0.0,
        };
        (pass, m)
    }
}

impl Workload for Search {
    fn name(&self) -> &'static str {
        "search"
    }

    fn nominal_ops(&self) -> u64 {
        1
    }

    fn seeded(&self) -> bool {
        true
    }

    fn pass(&mut self, pacer: &mut Pacer) -> Pass {
        self.run(Some(pacer), None).0
    }

    fn traced(&mut self, untraced: &Pass) -> (Pass, Metrics) {
        let layers = Mutex::new(Layers::default());
        let (pass, timed) = self.run(None, Some(&layers));
        let l = layers.into_inner().expect("layer lock");
        let mut m = crate::layer_metrics(&l, pass.wall_s, untraced.wall_s);
        m.extend(timed);
        (pass, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's DPOR walk is the explorer's own exhaustive walk:
    /// the same census and verdict for every corpus entry.
    #[test]
    fn walk_matches_the_explorers_exhaustive_walk() {
        let mut s = Search::prepare(gate_seed());
        s.dcfg = DporConfig::from_explore(&s.explorer.cfg, 2);
        for i in 0..s.corpus.len() {
            let (w, cycles) = s.walk(i, None);
            let (sc, design, _, _) = &s.corpus[i];
            let r = s.explorer.explore_exhaustive(sc, *design, &s.dcfg);
            let got = (w.executed, w.pruned, w.explored, w.classes, w.complete);
            let want = (r.executed, r.pruned, r.explored, r.classes, r.complete);
            assert_eq!(got, want, "{} under {}", sc.name, design);
            assert_eq!(w.violation.is_some(), r.violation.is_some());
            assert!(cycles > 0);

            let layers = Mutex::new(Layers::default());
            let (traced, traced_cycles) = s.walk(i, Some(&layers));
            assert_eq!(traced_cycles, cycles);
            assert_eq!(traced.violation, w.violation);
            assert_eq!(layers.into_inner().unwrap().sim_cycles, cycles);
        }
    }

    /// A search run shard by shard and merged is the whole-space search:
    /// same best, stats and paper verdict.
    #[test]
    fn sharded_search_merges_to_the_whole_search() {
        let bench = SiteBench::Dekker;
        for design in SYNTH_DESIGNS {
            let whole = synthesizer(gate_seed()).synthesize(bench, design, None);
            let mut synth = synthesizer(gate_seed());
            let parts = (0..SYNTH_SHARDS)
                .map(|k| {
                    synth.shard = Shard::new(k, SYNTH_SHARDS);
                    synth.synthesize(bench, design, None)
                })
                .collect();
            let merged = merge_shards(parts);
            assert_eq!(format!("{merged:?}"), format!("{whole:?}"), "{design}");
        }
    }

    fn gate_seed() -> u64 {
        crate::gate::DEFAULT_SEED
    }
}
