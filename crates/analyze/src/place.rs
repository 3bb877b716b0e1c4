//! From critical windows to a minimal fence placement.
//!
//! Critical windows ([`crate::cycles`]) say which store→load pairs can
//! break sequential consistency. A fence must cut each one — but one
//! fence can cut many: the decorator
//! ([`FencedProgram`](asymfence::cpu::insert::FencedProgram)) fires
//! immediately before a *load* of a given line whenever one of the
//! window's trigger stores is still dirty. So the placement condenses
//! windows by their anchoring load: one **site** per `(thread, load
//! line)`, owning the union of its windows' trigger store lines.
//!
//! Condensing can leave dead sites. A fence clears the thread's dirty
//! window, so a site that textually follows another site's load may
//! never see a dirty trigger at runtime (the earlier fence already
//! drained it). We replay the decorator's arming rule over every
//! recorded trace and drop sites that never fire — the *liveness
//! filter* that makes the placement minimal rather than merely
//! sufficient.

use std::collections::{BTreeMap, BTreeSet};

use asymfence::prelude::{MachineConfig, ThreadProgram};
use asymfence_common::assign::synthetic_site;
use asymfence_common::ids::Addr;
use asymfence_common::placement::{PlacedFence, Placement};
use asymfence_workloads::unannot::InferredKernel;

use crate::cycles::{self, WindowInfo};
use crate::interp::{self, Access, ThreadTrace};

/// Everything one whole-program analysis produced, counters included.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// The kernel analyzed.
    pub kernel: InferredKernel,
    /// The inferred placement (sorted by thread, then load line).
    pub placement: Placement,
    /// Every recovered window (critical or not), in canonical order.
    pub windows: Vec<WindowInfo>,
    /// Index into `windows` of those on at least one critical cycle.
    pub critical: Vec<usize>,
    /// Simple critical cycles enumerated.
    pub cycles: u64,
    /// DFS branches cut by the reorder bound.
    pub bounded: u64,
    /// Sites dropped by the liveness filter.
    pub dropped_dead: usize,
    /// Total interpreter fetch steps across all schedule variants.
    pub steps: u64,
}

/// One candidate site before liveness filtering.
#[derive(Clone, Debug)]
struct SiteDraft {
    thread: usize,
    load_line: u64,
    triggers: BTreeSet<u64>,
    store_words: BTreeSet<u64>,
    load_words: BTreeSet<u64>,
}

/// Runs the whole pipeline for one kernel: interpret under every
/// schedule variant, extract and merge windows, enumerate critical
/// cycles, condense to sites, liveness-filter, and number the
/// survivors. Pure function of `(kernel, seed)`.
pub fn analyze(kernel: InferredKernel, seed: u64) -> Analysis {
    let cfg = MachineConfig::builder().cores(kernel.cores()).build();
    analyze_with(kernel, &cfg, seed)
}

/// [`analyze`] against an explicit machine config (the line size is the
/// one knob that matters: windows and triggers are line-granular).
pub fn analyze_with(kernel: InferredKernel, cfg: &MachineConfig, seed: u64) -> Analysis {
    let i = infer(
        &|variant| kernel.programs(cfg, seed ^ variant),
        cfg,
        kernel.name(),
    );
    Analysis {
        kernel,
        placement: i.placement,
        windows: i.windows,
        critical: i.critical,
        cycles: i.cycles,
        bounded: i.bounded,
        dropped_dead: i.dropped_dead,
        steps: i.steps,
    }
}

/// Infers the minimal fence placement for any fence-free program.
/// `build(variant)` must return fresh thread programs (one per machine
/// thread) for each schedule variant `0..`[`interp::VARIANTS`]; the
/// result installs with
/// [`FencedProgram`](asymfence::cpu::insert::FencedProgram) via
/// [`Placement::spec`].
///
/// # Examples
///
/// ```
/// use asymfence::prelude::*;
/// use asymfence_analyze::infer_placement;
///
/// // Store buffering: St x; Ld y || St y; Ld x.
/// let side = |mine: u64, other: u64| -> Box<dyn ThreadProgram> {
///     Box::new(ScriptProgram::new(vec![
///         Instr::Store { addr: Addr::new(mine), value: 1 },
///         Instr::Load { addr: Addr::new(other), tag: None },
///     ]).0)
/// };
/// let cfg = MachineConfig::builder().cores(2).build();
/// let placement = infer_placement(|_| vec![side(0x00, 0x40), side(0x40, 0x00)], &cfg);
/// let threads: Vec<usize> = placement.fences.iter().map(|f| f.thread).collect();
/// assert_eq!(threads, vec![0, 1], "one fence per thread");
/// ```
///
/// # Panics
///
/// Panics if some variant does not finish under SC within
/// [`interp::STEP_CAP`] steps (the program is broken independent of
/// fences).
pub fn infer_placement(
    build: impl Fn(u64) -> Vec<Box<dyn ThreadProgram>>,
    cfg: &MachineConfig,
) -> Placement {
    infer(&build, cfg, "program").placement
}

/// What the pipeline produced for one program ([`Analysis`] minus the
/// kernel).
struct Inference {
    placement: Placement,
    windows: Vec<WindowInfo>,
    critical: Vec<usize>,
    cycles: u64,
    bounded: u64,
    dropped_dead: usize,
    steps: u64,
}

/// The pipeline behind [`analyze_with`] and [`infer_placement`]; `name`
/// only labels the panic of a program that does not finish.
fn infer(
    build: &dyn Fn(u64) -> Vec<Box<dyn ThreadProgram>>,
    cfg: &MachineConfig,
    name: &str,
) -> Inference {
    // 1. Footprint recovery: one SC run per schedule variant.
    let mut runs = Vec::new();
    let mut steps = 0;
    for variant in 0..interp::VARIANTS {
        let r = interp::run_programs(build(variant), variant, interp::STEP_CAP);
        assert!(
            r.finished,
            "{name} did not finish under SC (variant {variant}); the kernel is broken \
             independent of fences",
        );
        steps += r.steps;
        runs.push(r);
    }

    // 2. Windows, digraph, critical cycles.
    let windows = cycles::merge_windows(
        runs.iter()
            .map(|r| cycles::extract_windows(&r.traces, cfg.line_bytes))
            .collect(),
    );
    let adj = cycles::digraph(&windows);
    let scan = cycles::critical_cycles(&windows, &adj);
    let critical: Vec<usize> = (0..windows.len()).filter(|&i| scan.on_cycle[i]).collect();

    // 3. Condense critical windows into sites keyed by (thread, load line).
    let mut drafts: Vec<SiteDraft> = Vec::new();
    for &i in &critical {
        let w = &windows[i];
        match drafts
            .iter_mut()
            .find(|d| d.thread == w.thread && d.load_line == w.load_line)
        {
            Some(d) => {
                d.triggers.insert(w.store_line);
                d.store_words.extend(&w.store_words);
                d.load_words.extend(&w.load_words);
            }
            None => drafts.push(SiteDraft {
                thread: w.thread,
                load_line: w.load_line,
                triggers: BTreeSet::from([w.store_line]),
                store_words: w.store_words.clone(),
                load_words: w.load_words.clone(),
            }),
        }
    }
    drafts.sort_by_key(|d| (d.thread, d.load_line));

    // 4. Liveness filter: replay the decorator's arming rule over every
    //    recorded trace; a site that never fires anywhere is dead.
    let mut live = vec![false; drafts.len()];
    for r in &runs {
        for (thread, trace) in r.traces.iter().enumerate() {
            fire_sites(thread, trace, cfg.line_bytes, &drafts, &mut live);
        }
    }
    let dropped_dead = live.iter().filter(|&&l| !l).count();
    let mut drafts: Vec<SiteDraft> = drafts
        .into_iter()
        .zip(live)
        .filter(|&(_, l)| l)
        .map(|(d, _)| d)
        .collect();

    // 4b. Coverage attribution: a firing fence drains *every* open
    //    store, so it also cuts critical windows whose own load-line
    //    site died (their coverage transfers here — that is why the dead
    //    site was droppable). Replay the drain and fold each cut
    //    window's trigger line and word evidence into the cutting site,
    //    iterating to fixpoint because widened triggers can fire
    //    earlier. Without this the footprints under-approximate and the
    //    synthesis layer misses cross-thread fence groups (e.g. dcl's
    //    two fences would look conflict-free).
    let crit_set: BTreeSet<(usize, u64, u64)> = critical
        .iter()
        .map(|&i| {
            (
                windows[i].thread,
                windows[i].store_line,
                windows[i].load_line,
            )
        })
        .collect();
    for round in 0.. {
        assert!(round < 32, "coverage attribution failed to converge");
        let mut changed = false;
        for r in &runs {
            for (thread, trace) in r.traces.iter().enumerate() {
                changed |=
                    attribute_coverage(thread, trace, cfg.line_bytes, &crit_set, &mut drafts);
            }
        }
        if !changed {
            break;
        }
    }

    // 5. Number the survivors.
    let fences = drafts
        .iter()
        .enumerate()
        .map(|(i, d)| PlacedFence {
            site: synthetic_site(i as u32),
            thread: d.thread,
            label: format!("t{}@{:#x}", d.thread, d.load_line * cfg.line_bytes),
            load_line: d.load_line,
            triggers: d.triggers.iter().copied().collect(),
            pre_writes: d.store_words.iter().map(|&w| Addr::new(w)).collect(),
            post_reads: d.load_words.iter().map(|&w| Addr::new(w)).collect(),
        })
        .collect();

    Inference {
        placement: Placement {
            fences,
            line_bytes: cfg.line_bytes,
        },
        windows,
        critical,
        cycles: scan.cycles,
        bounded: scan.bounded,
        dropped_dead,
        steps,
    }
}

/// Replays the decorator's rule over one thread trace, marking sites
/// that fire: dirty store lines accumulate, a fence/RMW (or a firing
/// site) drains them, and a site fires at a load of its line when a
/// trigger is dirty.
fn fire_sites(
    thread: usize,
    trace: &ThreadTrace,
    line_bytes: u64,
    drafts: &[SiteDraft],
    live: &mut [bool],
) {
    let mut dirty: BTreeSet<u64> = BTreeSet::new();
    for &a in &trace.accesses {
        match a {
            Access::Store(w) => {
                dirty.insert(w / line_bytes);
            }
            Access::Rmw(_) | Access::Fence => dirty.clear(),
            Access::Load(w) => {
                let line = w / line_bytes;
                if let Some(i) = drafts
                    .iter()
                    .position(|d| d.thread == thread && d.load_line == line)
                {
                    if drafts[i].triggers.iter().any(|t| dirty.contains(t)) {
                        live[i] = true;
                        dirty.clear(); // the fired fence drains the window
                    }
                }
            }
        }
    }
}

/// Replays the placed decorator over one thread trace and attributes
/// every critical window to the fence that cuts it: when a site fires it
/// drains all open stores, so any later load pairing with a drained
/// store (a would-be window) was cut *here*. Folds the cut window's
/// store line into the cutting site's triggers and its words into the
/// footprint evidence. Returns whether anything widened.
fn attribute_coverage(
    thread: usize,
    trace: &ThreadTrace,
    line_bytes: u64,
    crit_set: &BTreeSet<(usize, u64, u64)>,
    drafts: &mut [SiteDraft],
) -> bool {
    let mut changed = false;
    // Store words open (undrained) since the last fence/RMW, and words
    // already drained, each tagged with the first site that drained it.
    let mut open: Vec<u64> = Vec::new();
    let mut drained: BTreeMap<u64, usize> = BTreeMap::new();
    for &a in &trace.accesses {
        match a {
            Access::Store(w) => open.push(w),
            Access::Rmw(_) | Access::Fence => {
                // A real RMW cuts windows by itself: nothing to place.
                open.clear();
                drained.clear();
            }
            Access::Load(w) => {
                let line = w / line_bytes;
                if let Some(i) = drafts
                    .iter()
                    .position(|d| d.thread == thread && d.load_line == line)
                {
                    let fires = open
                        .iter()
                        .any(|&s| drafts[i].triggers.contains(&(s / line_bytes)));
                    if fires {
                        for &s in &open {
                            drained.entry(s).or_insert(i);
                        }
                        open.clear();
                    }
                }
                for (&s, &i) in &drained {
                    if s == w {
                        continue; // same-word forwarding: never a window
                    }
                    if crit_set.contains(&(thread, s / line_bytes, line)) {
                        let d = &mut drafts[i];
                        changed |= d.triggers.insert(s / line_bytes);
                        changed |= d.store_words.insert(s);
                        changed |= d.load_words.insert(w);
                    }
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_is_deterministic() {
        let a = analyze(InferredKernel::Dekker, asymfence_bench::SEED);
        let b = analyze(InferredKernel::Dekker, asymfence_bench::SEED);
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.windows, b.windows);
    }

    #[test]
    fn sb_gets_one_site_per_thread() {
        let a = analyze(InferredKernel::Sb, asymfence_bench::SEED);
        assert_eq!(a.placement.len(), 2);
        assert_eq!(a.cycles, 1, "exactly the Figure 1d cycle");
        let threads: Vec<usize> = a.placement.fences.iter().map(|f| f.thread).collect();
        assert_eq!(threads, vec![0, 1]);
        for f in &a.placement.fences {
            assert_eq!(f.triggers.len(), 1);
        }
    }

    #[test]
    fn peterson_gets_a_placement_with_zero_annotations() {
        let a = analyze(InferredKernel::Peterson, asymfence_bench::SEED);
        assert!(!a.placement.is_empty(), "peterson needs fences under TSO");
        // One guard per thread: before the flag[other] read, triggered by
        // the announce stores.
        assert_eq!(a.placement.len(), 2);
        let threads: Vec<usize> = a.placement.fences.iter().map(|f| f.thread).collect();
        assert_eq!(threads, vec![0, 1]);
    }

    #[test]
    fn labels_and_ids_are_canonical() {
        let a = analyze(InferredKernel::Sb, asymfence_bench::SEED);
        for (i, f) in a.placement.fences.iter().enumerate() {
            assert_eq!(f.site, synthetic_site(i as u32));
            assert!(
                f.label.starts_with(&format!("t{}@0x", f.thread)),
                "{}",
                f.label
            );
        }
    }
}
