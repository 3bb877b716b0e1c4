//! Litmus-style scenarios the explorer runs and shrinks.
//!
//! A [`Scenario`] is a pure-data description of a multithreaded program
//! over a small pool of address *slots* (one cache line each). Keeping it
//! data-only — rather than boxed [`ThreadProgram`]s — is what makes
//! shrinking possible: the explorer can drop threads and instructions,
//! rebuild programs, and re-run, all deterministically.
//!
//! [`ThreadProgram`]: asymfence::prelude::ThreadProgram

use std::fmt;

use asymfence::prelude::{
    Addr, FenceDesign, FenceRole, Instr, Machine, MachineConfig, Perturbation,
};
use asymfence_common::prop::bools;
use asymfence_common::prop::{pairs, u8s, usizes, vecs, BoolGen, Gen, PairGen, U8Range, VecGen};
use asymfence_common::rng::SimRng;
use asymfence_common::schedule::{SchedulePlan, ScheduleScript};

/// One scenario instruction (data-only mirror of [`Instr`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Store to a slot (the value is derived from thread/op position).
    Store {
        /// Address slot.
        slot: u8,
    },
    /// Untagged load from a slot (untagged maximizes reordering room).
    Load {
        /// Address slot.
        slot: u8,
    },
    /// A fence; its role comes from the owning [`ThreadSpec`].
    Fence,
    /// Non-memory work.
    Compute {
        /// Units of work.
        cycles: u16,
    },
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Store { slot } => write!(f, "St s{slot}"),
            Op::Load { slot } => write!(f, "Ld s{slot}"),
            Op::Fence => write!(f, "Fence"),
            Op::Compute { cycles } => write!(f, "Cp {cycles}"),
        }
    }
}

/// One thread of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadSpec {
    /// The instruction list.
    pub ops: Vec<Op>,
    /// Role given to every `Fence` op in this thread.
    pub role: FenceRole,
}

/// A complete explorable program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scenario {
    /// Display name (used in reports).
    pub name: String,
    /// The threads.
    pub threads: Vec<ThreadSpec>,
}

/// Byte address of a slot: one cache line (and then some) apart, so
/// distinct slots never falsely share.
pub fn slot_addr(slot: u8) -> Addr {
    Addr::new(0x40 * slot as u64)
}

impl Scenario {
    /// Total instruction count across threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// Builds a machine for this scenario under `design` and the given
    /// perturbation: one core per thread (min 2), SCV log on, and the
    /// given watchdog.
    pub fn machine(
        &self,
        design: FenceDesign,
        perturb: Perturbation,
        watchdog_cycles: u64,
    ) -> Machine {
        self.build(design, watchdog_cycles, |c| {
            c.schedule = SchedulePlan::Seeded(perturb)
        })
    }

    /// As [`Scenario::machine`], but driven by an explicit
    /// [`ScheduleScript`] instead of seeded jitter — the exhaustive
    /// explorer builds one machine per decision vector through this.
    pub fn machine_scripted(
        &self,
        design: FenceDesign,
        script: ScheduleScript,
        watchdog_cycles: u64,
    ) -> Machine {
        self.build(design, watchdog_cycles, |c| {
            c.schedule = SchedulePlan::Scripted(script)
        })
    }

    /// Builds a machine for this scenario: one core per thread (min 2),
    /// `design`, SCV log on and the given watchdog; then `plan` sets the
    /// schedule under test (a perturbation or a scripted schedule) and,
    /// for presentation replays, the fence trace. Every scenario machine
    /// is built here.
    ///
    /// # Panics
    ///
    /// Panics if the planned delays reach the watchdog
    /// (`MachineConfig::validate`).
    pub(crate) fn build(
        &self,
        design: FenceDesign,
        watchdog_cycles: u64,
        plan: impl FnOnce(&mut MachineConfig),
    ) -> Machine {
        let mut cfg = MachineConfig::builder()
            .cores(self.threads.len().max(2))
            .fence_design(design)
            .record_scv_log(true)
            .watchdog_cycles(watchdog_cycles)
            .build();
        plan(&mut cfg);
        let mut m = Machine::new(&cfg);
        for (ti, t) in self.threads.iter().enumerate() {
            let mut instrs = Vec::with_capacity(t.ops.len());
            for (oi, op) in t.ops.iter().enumerate() {
                instrs.push(match *op {
                    Op::Store { slot } => Instr::Store {
                        addr: slot_addr(slot),
                        value: (ti as u64 + 1) * 1000 + oi as u64 + 1,
                    },
                    Op::Load { slot } => Instr::Load {
                        addr: slot_addr(slot),
                        tag: None,
                    },
                    Op::Fence => Instr::fence(t.role),
                    Op::Compute { cycles } => Instr::Compute {
                        cycles: cycles as u64,
                    },
                });
            }
            let (p, _regs) = asymfence::prelude::ScriptProgram::new(instrs);
            m.add_thread(Box::new(p));
        }
        m
    }

    /// Raw line addresses of every slot two or more threads touch — the
    /// statically-known contested footprint the exhaustive explorer
    /// seeds its conflict-pruning set with.
    pub fn shared_slot_lines(&self, line_bytes: u64) -> std::collections::BTreeSet<u64> {
        use std::collections::BTreeMap;
        let mut owner: BTreeMap<u8, usize> = BTreeMap::new();
        let mut shared = std::collections::BTreeSet::new();
        for (ti, t) in self.threads.iter().enumerate() {
            for op in &t.ops {
                let slot = match *op {
                    Op::Store { slot } | Op::Load { slot } => slot,
                    Op::Fence | Op::Compute { .. } => continue,
                };
                match owner.get(&slot) {
                    None => {
                        owner.insert(slot, ti);
                    }
                    Some(&o) if o == ti => {}
                    Some(_) => {
                        shared.insert(slot_addr(slot).raw() / line_bytes);
                    }
                }
            }
        }
        shared
    }

    /// Structurally smaller variants, in shrink priority order: first
    /// drop whole threads, then single instructions. The explorer and the
    /// property harness both shrink through this.
    pub fn shrink_candidates(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        if self.threads.len() > 1 {
            for i in 0..self.threads.len() {
                let mut s = self.clone();
                s.threads.remove(i);
                out.push(s);
            }
        }
        for t in 0..self.threads.len() {
            if self.threads[t].ops.len() > 1 {
                for i in 0..self.threads[t].ops.len() {
                    let mut s = self.clone();
                    s.threads[t].ops.remove(i);
                    out.push(s);
                }
            }
        }
        out
    }

    /// The role vector the paper's grouping assumptions allow for a
    /// fenced scenario of `n` threads under `design`: WS+ takes at most
    /// one weak (Critical) fence per group; SW+ takes any *asymmetric*
    /// group, so at least one fence stays strong (all-weak groups are
    /// W+/Wee territory — running one under SW+ can mutually bounce both
    /// pre-sets forever, which the explorer finds as a deadlock).
    pub fn roles_for(design: FenceDesign, n: usize) -> Vec<FenceRole> {
        use FenceRole::{Critical, NonCritical};
        (0..n)
            .map(|i| match design {
                FenceDesign::SPlus => NonCritical,
                FenceDesign::WsPlus => {
                    if i == 0 {
                        Critical
                    } else {
                        NonCritical
                    }
                }
                FenceDesign::SwPlus => {
                    if n >= 2 && i == n - 1 {
                        NonCritical
                    } else {
                        Critical
                    }
                }
                FenceDesign::WPlus | FenceDesign::Wee | FenceDesign::WfOnlyUnsafe => Critical,
            })
            .collect()
    }

    /// Re-tags every thread's fence role per [`Scenario::roles_for`].
    pub fn with_roles_for(mut self, design: FenceDesign) -> Scenario {
        let roles = Self::roles_for(design, self.threads.len());
        for (t, role) in self.threads.iter_mut().zip(roles) {
            t.role = role;
        }
        self
    }

    // ------------------------------------------------------------------
    // Canned scenarios
    // ------------------------------------------------------------------

    /// Dekker/store-buffering: `T0: St x; [F]; Ld y | T1: St y; [F]; Ld x`.
    /// Unfenced, TSO reorders it into a Shasha–Snir cycle; fenced, every
    /// design must keep it SC.
    pub fn store_buffering(fenced: bool) -> Scenario {
        let side = |mine: u8, other: u8| {
            let mut ops = vec![Op::Store { slot: mine }];
            if fenced {
                ops.push(Op::Fence);
            }
            ops.push(Op::Load { slot: other });
            ThreadSpec {
                ops,
                role: FenceRole::Critical,
            }
        };
        Scenario {
            name: if fenced { "sb-fenced" } else { "sb-unfenced" }.into(),
            threads: vec![side(0, 1), side(1, 0)],
        }
    }

    /// An obfuscated unfenced store-buffering core buried in timing
    /// padding and an innocent third thread — the explorer's shrink
    /// test-bed: it must boil this down to the two-thread, two-op core.
    pub fn store_buffering_padded() -> Scenario {
        let side = |mine: u8, other: u8, scratch: u8| ThreadSpec {
            ops: vec![
                Op::Load { slot: other },
                Op::Compute { cycles: 400 },
                Op::Store { slot: scratch },
                Op::Store { slot: mine },
                Op::Load { slot: other },
            ],
            role: FenceRole::Critical,
        };
        let bystander = ThreadSpec {
            ops: vec![
                Op::Store { slot: 4 },
                Op::Compute { cycles: 100 },
                Op::Load { slot: 5 },
            ],
            role: FenceRole::NonCritical,
        };
        Scenario {
            name: "sb-padded".into(),
            threads: vec![side(0, 1, 2), side(1, 0, 3), bystander],
        }
    }

    /// Three-thread fence cycle (paper Figures 1e/3c):
    /// `Ti: St x_i; F; Ld x_{i+1 mod 3}`.
    pub fn three_thread_cycle() -> Scenario {
        let side = |mine: u8, other: u8| ThreadSpec {
            ops: vec![
                Op::Store { slot: mine },
                Op::Fence,
                Op::Load { slot: other },
            ],
            role: FenceRole::Critical,
        };
        Scenario {
            name: "3cycle-fenced".into(),
            threads: vec![side(0, 1), side(1, 2), side(2, 0)],
        }
    }

    /// Dekker with every fence weak (Critical) — legal for W+/Wee, but
    /// an all-weak group violates SW+'s asymmetric-group assumption, and
    /// exhaustive exploration must find the resulting non-SC schedule.
    pub fn store_buffering_all_weak() -> Scenario {
        let mut sc = Scenario::store_buffering(true);
        sc.name = "sb-allweak".into();
        for t in &mut sc.threads {
            t.role = FenceRole::Critical;
        }
        sc
    }

    /// Dekker with one side's fence collapsed away: the unfenced side
    /// still reorders its store past its load, so the SC violation
    /// survives under *every* design.
    pub fn store_buffering_half_fenced() -> Scenario {
        let mut sc = Scenario::store_buffering(true);
        sc.name = "sb-half-fenced".into();
        sc.threads[1].ops.retain(|op| *op != Op::Fence);
        sc
    }

    /// Dekker with doubled adjacent fences on each side — the
    /// collapsed-fence variant: back-to-back fences must behave exactly
    /// like one (the second joins or immediately follows the first's
    /// group), so the scenario stays SC under every design.
    pub fn store_buffering_double_fenced() -> Scenario {
        let mut sc = Scenario::store_buffering(true);
        sc.name = "sb-double-fenced".into();
        for t in &mut sc.threads {
            let at = t.ops.iter().position(|op| *op == Op::Fence).unwrap();
            t.ops.insert(at, Op::Fence);
        }
        sc
    }

    /// Message passing: `T0: St data; [F]; St flag | T1: Ld flag; [F];
    /// Ld data`. TSO never reorders store→store or load→load, so the
    /// scenario is SC even unfenced.
    pub fn message_passing(fenced: bool) -> Scenario {
        let mut t0 = vec![Op::Store { slot: 0 }];
        let mut t1 = vec![Op::Load { slot: 1 }];
        if fenced {
            t0.push(Op::Fence);
            t1.push(Op::Fence);
        }
        t0.push(Op::Store { slot: 1 });
        t1.push(Op::Load { slot: 0 });
        Scenario {
            name: if fenced { "mp-fenced" } else { "mp-unfenced" }.into(),
            threads: vec![
                ThreadSpec {
                    ops: t0,
                    role: FenceRole::Critical,
                },
                ThreadSpec {
                    ops: t1,
                    role: FenceRole::Critical,
                },
            ],
        }
    }

    /// Load buffering: `T0: Ld x; St y | T1: Ld y; St x`. The both-
    /// loads-see-1 outcome needs load→store reordering, which TSO (and
    /// this in-order pipeline) forbids — SC even unfenced.
    pub fn load_buffering() -> Scenario {
        let side = |mine: u8, other: u8| ThreadSpec {
            ops: vec![Op::Load { slot: other }, Op::Store { slot: mine }],
            role: FenceRole::Critical,
        };
        Scenario {
            name: "lb".into(),
            threads: vec![side(0, 1), side(1, 0)],
        }
    }

    /// Independent reads of independent writes: two writers, two
    /// readers observing in opposite orders. Invalidation-based
    /// coherence gives single-copy atomicity, so the readers can never
    /// disagree on the write order — SC even unfenced.
    pub fn iriw() -> Scenario {
        let writer = |slot: u8| ThreadSpec {
            ops: vec![Op::Store { slot }],
            role: FenceRole::NonCritical,
        };
        let reader = |first: u8, second: u8| ThreadSpec {
            ops: vec![Op::Load { slot: first }, Op::Load { slot: second }],
            role: FenceRole::NonCritical,
        };
        Scenario {
            name: "iriw".into(),
            threads: vec![writer(0), writer(1), reader(0, 1), reader(1, 0)],
        }
    }

    /// The litmus corpus the exhaustive explorer checks as tier-1
    /// tests: `(scenario, expected-SC)` pairs, where the verdict holds
    /// under every safe design (roles re-tagged per design via
    /// [`Scenario::with_roles_for`]). Design-specific cases (the SW+
    /// all-weak group) are asserted separately.
    pub fn litmus_corpus() -> Vec<(Scenario, bool)> {
        vec![
            (Scenario::store_buffering(false), false),
            (Scenario::store_buffering(true), true),
            (Scenario::store_buffering_half_fenced(), false),
            (Scenario::store_buffering_double_fenced(), true),
            (Scenario::message_passing(false), true),
            (Scenario::message_passing(true), true),
            (Scenario::load_buffering(), true),
            (Scenario::iriw(), true),
            (Scenario::three_thread_cycle(), true),
        ]
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario `{}` ({} threads):",
            self.name,
            self.threads.len()
        )?;
        for (i, t) in self.threads.iter().enumerate() {
            let ops: Vec<String> = t.ops.iter().map(|o| o.to_string()).collect();
            writeln!(f, "  T{i} [{:?}]: {}", t.role, ops.join("; "))?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Strategy combinators for generated scenarios
// ----------------------------------------------------------------------

/// Generator for random fenced-or-not thread programs: each thread is a
/// sequence of stores/loads over `slots` address slots, with a fence
/// inserted after every store when `fenced` (the conservative placement a
/// compiler enforcing SC would use).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioGen {
    /// Minimum number of threads.
    pub min_threads: usize,
    /// Maximum number of threads.
    pub max_threads: usize,
    /// Max memory ops per thread (min 1).
    pub max_ops: usize,
    /// Number of address slots.
    pub slots: u8,
    /// Insert a fence after every store.
    pub fenced: bool,
}

impl ScenarioGen {
    fn ops_gen(&self) -> VecGen<PairGen<BoolGen, U8Range>> {
        vecs(pairs(bools(), u8s(0, self.slots - 1)), 1, self.max_ops)
    }

    /// Turns a raw `(is_store, slot)` list into a thread.
    pub fn thread_from_ops(&self, raw: &[(bool, u8)], role: FenceRole) -> ThreadSpec {
        let mut ops = Vec::new();
        for &(is_store, slot) in raw {
            if is_store {
                ops.push(Op::Store { slot });
                if self.fenced {
                    ops.push(Op::Fence);
                }
            } else {
                ops.push(Op::Load { slot });
            }
        }
        ThreadSpec { ops, role }
    }
}

impl Gen for ScenarioGen {
    type Value = Scenario;

    fn sample(&self, rng: &mut SimRng) -> Scenario {
        let n = usizes(self.min_threads, self.max_threads).sample(rng);
        let og = self.ops_gen();
        let threads = (0..n)
            .map(|_| self.thread_from_ops(&og.sample(rng), FenceRole::Critical))
            .collect();
        Scenario {
            name: if self.fenced {
                "gen-fenced"
            } else {
                "gen-unfenced"
            }
            .into(),
            threads,
        }
    }

    fn shrink(&self, v: &Scenario) -> Vec<Scenario> {
        v.shrink_candidates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::RunOutcome;

    #[test]
    fn sb_unfenced_builds_and_runs() {
        let sc = Scenario::store_buffering(false);
        assert_eq!(sc.total_ops(), 4);
        let mut m = sc.machine(FenceDesign::SPlus, Perturbation::default(), 50_000);
        assert_eq!(m.run(1_000_000), RunOutcome::Finished);
        assert!(m.scv_log().is_some());
    }

    #[test]
    fn shrink_candidates_prioritize_threads_then_ops() {
        let sc = Scenario::store_buffering_padded();
        let cands = sc.shrink_candidates();
        // The first candidates drop whole threads.
        assert_eq!(cands[0].threads.len(), sc.threads.len() - 1);
        assert_eq!(cands[1].threads.len(), sc.threads.len() - 1);
        // Later candidates drop single ops.
        assert!(cands
            .iter()
            .any(|c| c.threads.len() == sc.threads.len() && c.total_ops() == sc.total_ops() - 1));
        // Never shrink to an empty scenario or an empty thread.
        assert!(cands.iter().all(|c| !c.threads.is_empty()));
        assert!(cands
            .iter()
            .all(|c| c.threads.iter().all(|t| !t.ops.is_empty())));
    }

    #[test]
    fn roles_respect_grouping_assumptions() {
        use FenceRole::{Critical, NonCritical};
        assert_eq!(
            Scenario::roles_for(FenceDesign::WsPlus, 3),
            vec![Critical, NonCritical, NonCritical]
        );
        assert_eq!(
            Scenario::roles_for(FenceDesign::SwPlus, 3),
            vec![Critical, Critical, NonCritical]
        );
        assert_eq!(
            Scenario::roles_for(FenceDesign::SwPlus, 2),
            vec![Critical, NonCritical]
        );
        assert_eq!(
            Scenario::roles_for(FenceDesign::WPlus, 2),
            vec![Critical, Critical]
        );
        assert!(Scenario::roles_for(FenceDesign::SPlus, 4)
            .iter()
            .all(|r| *r == NonCritical));
    }

    #[test]
    fn scenario_gen_is_deterministic_and_shrinks() {
        let g = ScenarioGen {
            min_threads: 2,
            max_threads: 3,
            max_ops: 6,
            slots: 4,
            fenced: true,
        };
        let a = g.sample(&mut SimRng::new(5));
        let b = g.sample(&mut SimRng::new(5));
        assert_eq!(a, b);
        assert!((2..=3).contains(&a.threads.len()));
        // Fenced generation puts a fence after every store.
        for t in &a.threads {
            for (i, op) in t.ops.iter().enumerate() {
                if matches!(op, Op::Store { .. }) {
                    assert_eq!(t.ops.get(i + 1), Some(&Op::Fence));
                }
            }
        }
        if a.threads.len() > 1 {
            assert!(!g.shrink(&a).is_empty());
        }
    }

    #[test]
    fn display_is_human_readable() {
        let sc = Scenario::store_buffering(true);
        let s = sc.to_string();
        assert!(s.contains("sb-fenced"));
        assert!(s.contains("St s0"));
        assert!(s.contains("Fence"));
        assert!(s.contains("Ld s1"));
    }
}
