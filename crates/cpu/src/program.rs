//! The interface between workloads and the simulated core.
//!
//! A workload is a [`ThreadProgram`]: a deterministic state machine that
//! the core's front end *fetches* dynamic instructions from. Loads (and
//! RMWs) may carry a *tag*; tagged values are delivered back to the
//! program when the instruction retires — possibly **early**, before a
//! preceding weak fence completes, which is exactly the reordering the
//! paper studies. While a tagged instruction is outstanding the front end
//! stalls (the program's next instruction depends on the value, like a
//! branch).
//!
//! Programs must be snapshottable ([`ThreadProgram::snapshot`]) so the W+
//! design can checkpoint at a weak fence and re-execute after a deadlock
//! rollback.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use asymfence_coherence::RmwKind;
use asymfence_common::config::FenceDesign;
use asymfence_common::ids::Addr;

/// Whether a fence sits on a performance-critical code path.
///
/// Workloads tag fences with roles; the machine's [`FenceDesign`] maps
/// roles to strong or weak hardware fences by [`FenceRole::is_weak_under`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FenceRole {
    /// The hot thread of a fence group (work-stealing owner, STM reader).
    Critical,
    /// The rare thread (thief, STM writer).
    NonCritical,
}

impl FenceRole {
    /// The role rule: whether a fence of this role is weak (wf) under
    /// `design`. S+ keeps every fence strong, WS+ and SW+ weaken only
    /// critical fences, and W+, Wee and the unprotected design weaken
    /// every fence. A per-site
    /// [`SiteMask`](asymfence_common::assign::SiteMask) overrides it site
    /// by site.
    pub fn is_weak_under(self, design: FenceDesign) -> bool {
        match design {
            FenceDesign::SPlus => false,
            FenceDesign::WsPlus | FenceDesign::SwPlus => self == FenceRole::Critical,
            FenceDesign::WPlus | FenceDesign::Wee | FenceDesign::WfOnlyUnsafe => true,
        }
    }
}

/// Identity of one *static* fence site within a workload.
///
/// Every dynamic execution of the same program-text fence carries the
/// same site id, so a per-site
/// [`SiteMask`](asymfence_common::assign::SiteMask) can override the
/// role rule fence by fence (the synthesis engine searches that space).
/// Fences nobody needs to address use [`FenceSite::ANON`], which no mask
/// covers — the role rule remains the default and unannotated workloads
/// behave exactly as before.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FenceSite(pub u32);

impl FenceSite {
    /// The anonymous site: never covered by a mask.
    pub const ANON: FenceSite = FenceSite(u32::MAX);

    /// Raw site id (the id a
    /// [`SiteMask`](asymfence_common::assign::SiteMask) covers).
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether this is the anonymous (unaddressable) site.
    pub const fn is_anon(self) -> bool {
        self.0 == u32::MAX
    }
}

impl std::fmt::Display for FenceSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_anon() {
            write!(f, "s?")
        } else if asymfence_common::assign::is_synthetic(self.0) {
            // Analyzer-placed (synthetic) sites print their placement
            // index, not the raw offset id.
            write!(f, "p{}", self.0 - asymfence_common::assign::SYNTHETIC_BASE)
        } else {
            write!(f, "s{}", self.0)
        }
    }
}

/// One dynamic instruction.
#[derive(Clone, Debug)]
pub enum Instr {
    /// A load; if `tag` is set, the value is delivered to the program at
    /// retirement and fetch stalls until then.
    Load {
        /// Byte address.
        addr: Addr,
        /// Delivery tag, if the program consumes the value.
        tag: Option<u64>,
    },
    /// A store of `value`.
    Store {
        /// Byte address.
        addr: Addr,
        /// Stored value.
        value: u64,
    },
    /// An atomic read-modify-write; always tagged (the old value is
    /// delivered at completion). Acts as a full fence, like x86 `lock`.
    Rmw {
        /// Byte address.
        addr: Addr,
        /// The operation.
        op: RmwKind,
        /// Delivery tag for the old value.
        tag: u64,
    },
    /// A memory fence with a workload-assigned role and static site id.
    Fence {
        /// Role in its fence group.
        role: FenceRole,
        /// Static site identity (or [`FenceSite::ANON`]).
        site: FenceSite,
    },
    /// `cycles` units of non-memory work (retires at the issue width).
    Compute {
        /// Units of work.
        cycles: u64,
    },
}

impl Instr {
    /// An anonymous fence: strength comes from the design's role rule.
    pub const fn fence(role: FenceRole) -> Instr {
        Instr::Fence {
            role,
            site: FenceSite::ANON,
        }
    }

    /// A fence at an addressable site; a
    /// [`SiteMask`](asymfence_common::assign::SiteMask) in the machine
    /// config may override its strength.
    pub const fn fence_at(site: FenceSite, role: FenceRole) -> Instr {
        Instr::Fence { role, site }
    }
}

/// What the front end got from the program this fetch.
#[derive(Debug)]
pub enum Fetch {
    /// An instruction to dispatch.
    Instr(Instr),
    /// Nothing right now (waiting on a tagged value or an internal
    /// condition); try again next cycle.
    Await,
    /// The program has finished.
    Done,
}

/// A deterministic workload state machine executed by one core.
pub trait ThreadProgram {
    /// Produces the next dynamic instruction, `Await` while blocked on a
    /// tagged delivery, or `Done`.
    fn fetch(&mut self) -> Fetch;

    /// Delivers the value of a tagged load/RMW at its retirement.
    fn deliver(&mut self, tag: u64, value: u64);

    /// Clones the program state (the W+ checkpoint). Called at weak-fence
    /// dispatch, when no tagged delivery is outstanding.
    fn snapshot(&self) -> Box<dyn ThreadProgram>;

    /// Downcasting access, so harnesses can read results (e.g. commit
    /// counts) out of a finished program. A decorator answers with the
    /// program it wraps.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Shared observation cell for [`ScriptProgram`] results (litmus tests
/// read the final register values through it).
pub type Registers = Rc<RefCell<HashMap<u64, u64>>>;

/// A straight-line program from a fixed instruction list, with a shared
/// register file recording every tagged delivery. The workhorse of the
/// litmus tests.
///
/// # Examples
///
/// ```
/// use asymfence_cpu::program::{Fetch, Instr, ScriptProgram, ThreadProgram};
/// use asymfence_common::ids::Addr;
///
/// let (mut p, regs) = ScriptProgram::new(vec![
///     Instr::Store { addr: Addr::new(0), value: 1 },
///     Instr::Load { addr: Addr::new(8), tag: Some(1) },
/// ]);
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })));
/// assert!(matches!(p.fetch(), Fetch::Await), "blocked on tag 1");
/// p.deliver(1, 42);
/// assert!(matches!(p.fetch(), Fetch::Done));
/// assert_eq!(regs.borrow()[&1], 42);
/// ```
#[derive(Clone)]
pub struct ScriptProgram {
    instrs: Vec<Instr>,
    pc: usize,
    waiting_on: Option<u64>,
    regs: Registers,
}

impl ScriptProgram {
    /// Creates a script program and returns its shared register file.
    pub fn new(instrs: Vec<Instr>) -> (Self, Registers) {
        let regs: Registers = Rc::new(RefCell::new(HashMap::new()));
        (
            ScriptProgram {
                instrs,
                pc: 0,
                waiting_on: None,
                regs: Rc::clone(&regs),
            },
            regs,
        )
    }
}

impl std::fmt::Debug for ScriptProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptProgram")
            .field("pc", &self.pc)
            .field("len", &self.instrs.len())
            .field("waiting_on", &self.waiting_on)
            .finish()
    }
}

impl ThreadProgram for ScriptProgram {
    fn fetch(&mut self) -> Fetch {
        if self.waiting_on.is_some() {
            return Fetch::Await;
        }
        let Some(instr) = self.instrs.get(self.pc) else {
            return Fetch::Done;
        };
        self.pc += 1;
        match instr {
            Instr::Load { tag: Some(t), .. } | Instr::Rmw { tag: t, .. } => {
                self.waiting_on = Some(*t);
            }
            _ => {}
        }
        Fetch::Instr(instr.clone())
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.regs.borrow_mut().insert(tag, value);
        if self.waiting_on == Some(tag) {
            self.waiting_on = None;
        }
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_runs_in_order() {
        let (mut p, _regs) = ScriptProgram::new(vec![
            Instr::Compute { cycles: 3 },
            Instr::Store {
                addr: Addr::new(0),
                value: 9,
            },
        ]);
        assert!(matches!(
            p.fetch(),
            Fetch::Instr(Instr::Compute { cycles: 3 })
        ));
        assert!(matches!(
            p.fetch(),
            Fetch::Instr(Instr::Store { value: 9, .. })
        ));
        assert!(matches!(p.fetch(), Fetch::Done));
        assert!(matches!(p.fetch(), Fetch::Done));
    }

    #[test]
    fn tagged_load_blocks_until_delivery() {
        let (mut p, regs) = ScriptProgram::new(vec![
            Instr::Load {
                addr: Addr::new(0),
                tag: Some(7),
            },
            Instr::Compute { cycles: 1 },
        ]);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })));
        assert!(matches!(p.fetch(), Fetch::Await));
        assert!(matches!(p.fetch(), Fetch::Await));
        p.deliver(7, 123);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Compute { .. })));
        assert_eq!(regs.borrow()[&7], 123);
    }

    #[test]
    fn untagged_load_does_not_block() {
        let (mut p, _) = ScriptProgram::new(vec![
            Instr::Load {
                addr: Addr::new(0),
                tag: None,
            },
            Instr::Compute { cycles: 1 },
        ]);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })));
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Compute { .. })));
    }

    #[test]
    fn snapshot_restores_fetch_position() {
        let (mut p, regs) = ScriptProgram::new(vec![
            Instr::fence(FenceRole::Critical),
            Instr::Load {
                addr: Addr::new(0),
                tag: Some(1),
            },
        ]);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Fence { .. })));
        let snap = p.snapshot();
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })));
        assert!(matches!(p.fetch(), Fetch::Await));
        // Roll back: the load is re-fetched.
        let mut p2 = snap;
        assert!(matches!(p2.fetch(), Fetch::Instr(Instr::Load { .. })));
        p2.deliver(1, 5);
        assert_eq!(
            regs.borrow()[&1],
            5,
            "registers are shared across snapshots"
        );
    }

    #[test]
    fn rmw_blocks_like_tagged_load() {
        let (mut p, _) = ScriptProgram::new(vec![
            Instr::Rmw {
                addr: Addr::new(0),
                op: RmwKind::Add(1),
                tag: 3,
            },
            Instr::Compute { cycles: 1 },
        ]);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Rmw { .. })));
        assert!(matches!(p.fetch(), Fetch::Await));
        p.deliver(3, 0);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Compute { .. })));
    }
}
