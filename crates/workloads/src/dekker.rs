//! Dekker's mutual-exclusion algorithm (the paper's running example,
//! Figure 1a).
//!
//! Two threads guard a critical section with per-thread intent flags and
//! a turn word. The entry protocol is the canonical store→**fence**→load
//! pattern: announce `flag[me] = 1`, fence, read `flag[other]`. A second
//! fence sits on the backoff path (retract `flag[me]`, fence, spin on
//! `turn`) so every store→load window in the protocol is fenced and SC
//! executions stay SC. Under WS+/SW+ the paper makes the hot thread's
//! entry fence weak (`Critical`) and everything else strong
//! (`NonCritical`), and under W+ all fences are weak.
//!
//! Each fence carries a stable [`FenceSite`] (thread id), so the
//! synthesis engine can search per-site wf/sf assignments; a broken
//! assignment shows up as a Shasha-Snir SC violation (both threads in the
//! critical section) or a deadlock, both of which the explorer oracle
//! detects.

use asymfence::prelude::{Addr, FenceRole, FenceSite, Fetch, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{Ops, Tag};

/// Shared words of the Dekker protocol.
#[derive(Clone, Debug)]
pub struct DekkerLayout {
    /// Intent flags, one isolated word per thread.
    pub flag: [Addr; 2],
    /// Whose turn it is to back off.
    pub turn: Addr,
    /// Critical-section witness word.
    pub owner: Addr,
}

impl DekkerLayout {
    /// Allocates the protocol words on isolated cache lines.
    pub fn new(alloc: &mut AddressAllocator) -> Self {
        DekkerLayout {
            flag: [alloc.isolated_word(), alloc.isolated_word()],
            turn: alloc.isolated_word(),
            owner: alloc.isolated_word(),
        }
    }
}

/// The entry-protocol fence site of thread `tid` (0 or 1).
pub fn entry_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32)
}

/// The backoff fence site of thread `tid`: between the `flag[me] := 0`
/// retraction and the turn-wait loop. Without it the retraction sits in
/// the TSO write buffer while the loop reads `turn` — an unfenced st→ld
/// window that breaks sequential consistency (though not mutual
/// exclusion). Always `NonCritical`: the backoff path is already the
/// contended slow path.
pub fn backoff_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32 + 1)
}

#[derive(Clone, Debug)]
enum DkState {
    Start,
    CheckOther { tag: Tag },
    CheckTurn { tag: Tag },
    WaitTurn { tag: Tag },
    EnterCs,
    VerifyCs { tag: Tag },
    ExitCs,
    Finished,
}

/// One Dekker participant performing `iterations` critical sections.
#[derive(Clone)]
pub struct DekkerThread {
    tid: usize,
    layout: DekkerLayout,
    role: FenceRole,
    iterations: u64,
    cs_compute: u64,
    rng: SimRng,
    ops: Ops,
    state: DkState,
    /// Critical sections completed.
    pub entries: u64,
    /// Times the critical-section witness was observed corrupted (must
    /// stay zero — mutual exclusion).
    pub mutex_violations: u64,
}

impl DekkerThread {
    fn other(&self) -> usize {
        1 - self.tid
    }

    /// Announce intent and read the other thread's flag — the
    /// store→fence→load at the heart of the protocol.
    fn announce(&mut self) -> DkState {
        self.ops.store(self.layout.flag[self.tid], 1);
        self.ops.fence_at(entry_site(self.tid), self.role);
        let tag = self.ops.load(self.layout.flag[self.other()]);
        DkState::CheckOther { tag }
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, DkState::Finished) {
            DkState::Start => {
                if self.entries >= self.iterations {
                    self.state = DkState::Finished;
                    return false;
                }
                self.state = self.announce();
                true
            }
            DkState::CheckOther { tag } => {
                if self.ops.take(tag) == 0 {
                    self.state = DkState::EnterCs;
                } else {
                    let tag = self.ops.load(self.layout.turn);
                    self.state = DkState::CheckTurn { tag };
                }
                true
            }
            DkState::CheckTurn { tag } => {
                if self.ops.take(tag) == self.other() as u64 {
                    // Their turn: retract intent and wait for the turn.
                    self.ops.store(self.layout.flag[self.tid], 0);
                    self.ops
                        .fence_at(backoff_site(self.tid), FenceRole::NonCritical);
                    let tag = self.ops.load(self.layout.turn);
                    self.state = DkState::WaitTurn { tag };
                } else {
                    // Our turn: re-read their flag until they back off.
                    self.ops.compute(10 + self.rng.below(10));
                    let tag = self.ops.load(self.layout.flag[self.other()]);
                    self.state = DkState::CheckOther { tag };
                }
                true
            }
            DkState::WaitTurn { tag } => {
                if self.ops.take(tag) == self.other() as u64 {
                    self.ops.compute(10 + self.rng.below(10));
                    let tag = self.ops.load(self.layout.turn);
                    self.state = DkState::WaitTurn { tag };
                } else {
                    self.state = self.announce();
                }
                true
            }
            DkState::EnterCs => {
                self.ops.store(self.layout.owner, self.tid as u64 + 1);
                self.ops.compute(self.cs_compute);
                let tag = self.ops.load(self.layout.owner);
                self.state = DkState::VerifyCs { tag };
                true
            }
            DkState::VerifyCs { tag } => {
                if self.ops.take(tag) != self.tid as u64 + 1 {
                    self.mutex_violations += 1;
                }
                self.state = DkState::ExitCs;
                true
            }
            DkState::ExitCs => {
                self.ops.store(self.layout.turn, self.other() as u64);
                self.ops.store(self.layout.flag[self.tid], 0);
                self.entries += 1;
                self.ops.compute(20 + self.rng.below(30));
                self.state = DkState::Start;
                true
            }
            DkState::Finished => false,
        }
    }
}

impl std::fmt::Debug for DekkerThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DekkerThread")
            .field("tid", &self.tid)
            .field("entries", &self.entries)
            .field("violations", &self.mutex_violations)
            .finish()
    }
}

impl ThreadProgram for DekkerThread {
    fn fetch(&mut self) -> Fetch {
        loop {
            if let Some(f) = self.ops.poll() {
                return f;
            }
            if !self.step() {
                return Fetch::Done;
            }
        }
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.ops.deliver(tag, value);
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        "dekker"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Builds the two Dekker threads. Thread 0 is the hot side (`Critical`),
/// thread 1 the rare side (`NonCritical`) — the paper's WS+ assignment.
pub fn programs(cfg: &MachineConfig, iterations: u64, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = DekkerLayout::new(&mut alloc);
    let mut root = SimRng::new(seed ^ 0xDE44);
    (0..2)
        .map(|tid| {
            let role = if tid == 0 {
                FenceRole::Critical
            } else {
                FenceRole::NonCritical
            };
            Box::new(DekkerThread {
                tid,
                layout: layout.clone(),
                role,
                iterations,
                cs_compute: 40,
                rng: root.fork(tid as u64),
                ops: Ops::new(),
                state: DkState::Start,
                entries: 0,
                mutex_violations: 0,
            }) as Box<dyn ThreadProgram>
        })
        .collect()
}

/// Sums `(entries, mutex_violations)` over the machine's Dekker threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64) {
    let mut entries = 0;
    let mut violations = 0;
    for i in 0..m.config().num_cores {
        if let Some(p) = m
            .thread_program(asymfence_common::ids::CoreId(i))
            .as_any()
            .downcast_ref::<DekkerThread>()
        {
            entries += p.entries;
            violations += p.mutex_violations;
        }
    }
    (entries, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    fn run(design: FenceDesign, iters: u64) -> (u64, u64) {
        let cfg = MachineConfig::builder()
            .cores(2)
            .fence_design(design)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, iters, 5) {
            m.add_thread(p);
        }
        assert_eq!(m.run(400_000_000), RunOutcome::Finished, "{design}");
        tally(&m)
    }

    #[test]
    fn mutual_exclusion_under_all_safe_designs() {
        for design in [
            FenceDesign::SPlus,
            FenceDesign::WsPlus,
            FenceDesign::SwPlus,
            FenceDesign::WPlus,
            FenceDesign::Wee,
        ] {
            let (entries, violations) = run(design, 8);
            assert_eq!(entries, 16, "{design}");
            assert_eq!(violations, 0, "{design}");
        }
    }

    #[test]
    fn sites_are_per_thread_and_contiguous() {
        assert_eq!(entry_site(0), FenceSite(0));
        assert_eq!(backoff_site(0), FenceSite(1));
        assert_eq!(entry_site(1), FenceSite(2));
        assert_eq!(backoff_site(1), FenceSite(3));
        assert_ne!(entry_site(0), FenceSite::ANON);
    }
}
