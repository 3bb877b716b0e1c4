//! Peterson's two-thread lock, deliberately **unannotated** — the
//! analyzer's acid test.
//!
//! The entry protocol is `flag[me] := 1; victim := me; wait until
//! flag[other] = 0 or victim ≠ me`. Under TSO the two entry stores sit
//! in the write buffer while the waiting loads complete early, so both
//! threads can read stale zeros and enter the critical section together
//! — the classic store→load window. Unlike [`dekker`](crate::dekker),
//! this module places **no fences**: the whole-program analyzer
//! (`asymfence-analyze`) must discover the windows itself and emit a
//! placement, mirroring how PR 4's assignment sweep caught the
//! dekker/bakery gaps by search rather than by hand.
//!
//! Mutual exclusion is witnessed exactly like the native and dekker
//! kernels: an `owner` word is stored on entry and re-read inside the
//! critical section; observing another thread's id is a violation.

use asymfence::prelude::{Addr, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{program, Ops, Steps, Tag};

/// Critical-section entries each thread performs (matched by the
/// analyzer's cost comparisons, like the `sites` iteration constants).
pub const PETERSON_ITERS: u64 = 8;

/// Shared words of the Peterson protocol.
#[derive(Clone, Debug)]
pub struct PetersonLayout {
    /// Intent flags, one isolated word per thread.
    pub flag: [Addr; 2],
    /// The thread that yields on contention (last writer waits).
    pub victim: Addr,
    /// Critical-section witness word.
    pub owner: Addr,
}

impl PetersonLayout {
    /// Allocates the protocol words on isolated cache lines.
    pub fn new(alloc: &mut AddressAllocator) -> Self {
        PetersonLayout {
            flag: [alloc.isolated_word(), alloc.isolated_word()],
            victim: alloc.isolated_word(),
            owner: alloc.isolated_word(),
        }
    }
}

#[derive(Clone, Debug)]
enum PtState {
    Start,
    CheckOther { tag: Tag },
    CheckVictim { tag: Tag },
    EnterCs,
    VerifyCs { tag: Tag },
    ExitCs,
    Finished,
}

/// One Peterson participant performing `iterations` critical sections.
#[derive(Clone)]
pub struct PetersonThread {
    tid: usize,
    layout: PetersonLayout,
    iterations: u64,
    cs_compute: u64,
    rng: SimRng,
    ops: Ops,
    state: PtState,
    /// Critical sections completed.
    pub entries: u64,
    /// Times the critical-section witness was observed corrupted. With
    /// no fences this *can* be nonzero under TSO — that is the point.
    pub mutex_violations: u64,
}

impl PetersonThread {
    fn other(&self) -> usize {
        1 - self.tid
    }

    /// Announce intent and yield the victim slot, then read the other
    /// thread's flag — two stores straight into a racing load, with no
    /// fence anywhere.
    fn announce(&mut self) -> PtState {
        self.ops.store(self.layout.flag[self.tid], 1);
        self.ops.store(self.layout.victim, self.tid as u64);
        let tag = self.ops.load(self.layout.flag[self.other()]);
        PtState::CheckOther { tag }
    }
}

impl Steps for PetersonThread {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, PtState::Finished) {
            PtState::Start => {
                if self.entries >= self.iterations {
                    self.state = PtState::Finished;
                    return false;
                }
                self.state = self.announce();
                true
            }
            PtState::CheckOther { tag } => {
                if self.ops.take(tag) == 0 {
                    self.state = PtState::EnterCs;
                } else {
                    let tag = self.ops.load(self.layout.victim);
                    self.state = PtState::CheckVictim { tag };
                }
                true
            }
            PtState::CheckVictim { tag } => {
                if self.ops.take(tag) != self.tid as u64 {
                    // Someone else is the victim: our turn.
                    self.state = PtState::EnterCs;
                } else {
                    self.ops.compute(10 + self.rng.below(10));
                    let tag = self.ops.load(self.layout.flag[self.other()]);
                    self.state = PtState::CheckOther { tag };
                }
                true
            }
            PtState::EnterCs => {
                self.ops.store(self.layout.owner, self.tid as u64 + 1);
                self.ops.compute(self.cs_compute);
                let tag = self.ops.load(self.layout.owner);
                self.state = PtState::VerifyCs { tag };
                true
            }
            PtState::VerifyCs { tag } => {
                if self.ops.take(tag) != self.tid as u64 + 1 {
                    self.mutex_violations += 1;
                }
                self.state = PtState::ExitCs;
                true
            }
            PtState::ExitCs => {
                self.ops.store(self.layout.flag[self.tid], 0);
                self.entries += 1;
                self.ops.compute(20 + self.rng.below(30));
                self.state = PtState::Start;
                true
            }
            PtState::Finished => false,
        }
    }
}

/// Builds the two (fence-free) Peterson threads.
pub fn programs(cfg: &MachineConfig, iterations: u64, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = PetersonLayout::new(&mut alloc);
    let mut root = SimRng::new(seed ^ 0x9E7E);
    (0..2)
        .map(|tid| {
            program(PetersonThread {
                tid,
                layout: layout.clone(),
                iterations,
                cs_compute: 40,
                rng: root.fork(tid as u64),
                ops: Ops::new(),
                state: PtState::Start,
                entries: 0,
                mutex_violations: 0,
            })
        })
        .collect()
}

/// Sums `(entries, mutex_violations)` over the machine's Peterson
/// threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64) {
    m.threads_of::<PetersonThread>()
        .fold((0, 0), |(x, y), p| (x + p.entries, y + p.mutex_violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    #[test]
    fn completes_without_fences() {
        let cfg = MachineConfig::builder()
            .cores(2)
            .fence_design(FenceDesign::SPlus)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, PETERSON_ITERS, 5) {
            m.add_thread(p);
        }
        assert_eq!(m.run(400_000_000), RunOutcome::Finished);
        let (entries, _violations) = tally(&m);
        // Progress always holds; mutual exclusion is NOT asserted —
        // with no fences the TSO window is real, and the analyzer's
        // job is to close it.
        assert_eq!(entries, 2 * PETERSON_ITERS);
    }

    #[test]
    fn correctly_fenced_peterson_excludes() {
        // The known-good placement: a full fence between the entry
        // stores and the first flag read. Injected via FencedProgram
        // with line-granular windows, proving the decorator closes the
        // window the protocol opens.
        use asymfence::cpu::insert::FencedProgram;
        use asymfence_common::assign::synthetic_site;
        use asymfence_common::placement::{PlacedWindow, PlacementSpec};

        let cfg = MachineConfig::builder()
            .cores(2)
            .fence_design(FenceDesign::SPlus)
            .build();
        let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
        let layout = PetersonLayout::new(&mut alloc);
        let line = |a: Addr| a.raw() / cfg.line_bytes;
        let mut windows = Vec::new();
        for tid in 0..2u32 {
            let me = tid as usize;
            for store in [layout.flag[me], layout.victim] {
                windows.push(PlacedWindow {
                    site: synthetic_site(tid),
                    thread: tid,
                    store_line: line(store),
                    load_line: line(layout.flag[1 - me]),
                });
            }
        }
        let spec = PlacementSpec::from_windows(&windows);
        let mut m = Machine::new(&cfg);
        for (tid, p) in programs(&cfg, PETERSON_ITERS, 5).into_iter().enumerate() {
            m.add_thread(Box::new(FencedProgram::new(
                p,
                tid,
                spec,
                cfg.line_bytes,
                FenceRole::NonCritical,
            )));
        }
        assert_eq!(m.run(400_000_000), RunOutcome::Finished);
        let (entries, violations) = tally(&m);
        assert_eq!(entries, 2 * PETERSON_ITERS);
        assert_eq!(violations, 0, "fenced Peterson must exclude");
    }
}
