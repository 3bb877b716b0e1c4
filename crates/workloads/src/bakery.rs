//! Lamport's Bakery algorithm (paper §4.3, Figure 6).
//!
//! A lock-free mutual-exclusion protocol for any number of threads. Each
//! thread announces it is choosing (`E[i] = 1`), **fences**, reads the
//! other threads' state to pick a ticket, then waits its turn. The
//! store-then-read pattern around the fence creates fence groups of
//! arbitrary size and membership (Figures 6b/6c).
//!
//! Two role assignments reproduce the paper's usage: give one thread
//! priority (its fences `Critical`, everyone else `NonCritical` — the
//! WS+ scenario) or let every thread run fast (`AllCritical` — the W+
//! scenario).

use asymfence::prelude::{Addr, FenceRole, FenceSite, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{program, Ops, Steps, Tag};

/// Which threads get the fast (weak) fence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoleAssign {
    /// Thread 0 is `Critical`, the rest `NonCritical` (WS+ usage).
    PriorityThread0,
    /// Every thread is `Critical` (W+ usage).
    AllCritical,
}

impl RoleAssign {
    fn role(self, tid: usize) -> FenceRole {
        match self {
            RoleAssign::PriorityThread0 => {
                if tid == 0 {
                    FenceRole::Critical
                } else {
                    FenceRole::NonCritical
                }
            }
            RoleAssign::AllCritical => FenceRole::Critical,
        }
    }
}

/// Shared arrays of the Bakery protocol.
#[derive(Clone, Debug)]
pub struct BakeryLayout {
    /// `E[i]`: thread `i` is in the doorway.
    pub entering: Vec<Addr>,
    /// `N[i]`: thread `i`'s ticket number.
    pub number: Vec<Addr>,
    /// Critical-section witness word.
    pub owner: Addr,
}

impl BakeryLayout {
    /// Allocates `E[n]`, `N[n]` (isolated words) and the critical-section
    /// witness word.
    pub fn new(alloc: &mut AddressAllocator, threads: usize) -> Self {
        BakeryLayout {
            entering: (0..threads).map(|_| alloc.isolated_word()).collect(),
            number: (0..threads).map(|_| alloc.isolated_word()).collect(),
            owner: alloc.isolated_word(),
        }
    }
}

#[derive(Clone, Debug)]
enum BkState {
    Start,
    ReadNumbers { tags: Vec<Tag> },
    WaitEntering { j: usize, tag: Tag },
    WaitNumber { j: usize, tag: Tag },
    EnterCs,
    VerifyCs { tag: Tag },
    ExitCs,
    Finished,
}

/// One Bakery participant performing `iterations` critical sections.
#[derive(Clone)]
pub struct BakeryThread {
    tid: usize,
    threads: usize,
    layout: BakeryLayout,
    role: FenceRole,
    iterations: u64,
    cs_compute: u64,
    rng: SimRng,
    ops: Ops,
    state: BkState,
    my_number: u64,
    /// Critical sections completed.
    pub entries: u64,
    /// Times the critical-section witness was observed corrupted (must
    /// stay zero — mutual exclusion).
    pub mutex_violations: u64,
}

impl BakeryThread {
    fn new(
        tid: usize,
        threads: usize,
        layout: BakeryLayout,
        role: FenceRole,
        iterations: u64,
        cs_compute: u64,
        rng: SimRng,
    ) -> Self {
        BakeryThread {
            tid,
            threads,
            layout,
            role,
            iterations,
            cs_compute,
            rng,
            ops: Ops::new(),
            state: BkState::Start,
            my_number: 0,
            entries: 0,
            mutex_violations: 0,
        }
    }

    /// Starts waiting on thread `j` (skipping self), or enters the
    /// critical section when all threads have been checked.
    fn wait_from(&mut self, mut j: usize) -> BkState {
        if j == self.tid {
            j += 1;
        }
        if j >= self.threads {
            return BkState::EnterCs;
        }
        let tag = self.ops.load(self.layout.entering[j]);
        BkState::WaitEntering { j, tag }
    }
}

impl Steps for BakeryThread {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, BkState::Finished) {
            BkState::Start => {
                if self.entries >= self.iterations {
                    self.state = BkState::Finished;
                    return false;
                }
                // Doorway: E[i] = 1; fence; read everyone's numbers.
                self.ops.store(self.layout.entering[self.tid], 1);
                self.ops.fence_at(doorway_site(self.tid), self.role);
                let tags = (0..self.threads)
                    .map(|j| self.ops.load(self.layout.number[j]))
                    .collect();
                self.state = BkState::ReadNumbers { tags };
                true
            }
            BkState::ReadNumbers { tags } => {
                let max = tags
                    .into_iter()
                    .map(|t| self.ops.take(t))
                    .max()
                    .unwrap_or(0);
                self.my_number = max + 1;
                self.ops.store(self.layout.number[self.tid], self.my_number);
                self.ops.store(self.layout.entering[self.tid], 0);
                // The ticket fence: N[i] and E[i] must be visible before
                // the wait loops below read the other threads' state —
                // without it the TSO write buffer opens an unfenced
                // st→ld window and the execution is not SC.
                self.ops
                    .fence_at(ticket_site(self.tid), FenceRole::NonCritical);
                self.state = self.wait_from(0);
                true
            }
            BkState::WaitEntering { j, tag } => {
                if self.ops.take(tag) != 0 {
                    self.ops.compute(12 + self.rng.below(8));
                    let tag = self.ops.load(self.layout.entering[j]);
                    self.state = BkState::WaitEntering { j, tag };
                } else {
                    let tag = self.ops.load(self.layout.number[j]);
                    self.state = BkState::WaitNumber { j, tag };
                }
                true
            }
            BkState::WaitNumber { j, tag } => {
                let nj = self.ops.take(tag);
                let mine = (self.my_number, self.tid);
                let theirs = (nj, j);
                if nj != 0 && theirs < mine {
                    // Their turn first: spin.
                    self.ops.compute(12 + self.rng.below(8));
                    let tag = self.ops.load(self.layout.number[j]);
                    self.state = BkState::WaitNumber { j, tag };
                } else {
                    self.state = self.wait_from(j + 1);
                }
                true
            }
            BkState::EnterCs => {
                self.ops.store(self.layout.owner, self.tid as u64 + 1);
                self.ops.compute(self.cs_compute);
                let tag = self.ops.load(self.layout.owner);
                self.state = BkState::VerifyCs { tag };
                true
            }
            BkState::VerifyCs { tag } => {
                if self.ops.take(tag) != self.tid as u64 + 1 {
                    self.mutex_violations += 1;
                }
                self.state = BkState::ExitCs;
                true
            }
            BkState::ExitCs => {
                self.ops.store(self.layout.owner, 0);
                self.ops.store(self.layout.number[self.tid], 0);
                self.entries += 1;
                self.ops.compute(30 + self.rng.below(40));
                self.state = BkState::Start;
                true
            }
            BkState::Finished => false,
        }
    }
}

/// The doorway fence site of thread `tid` (between `E[i] := 1` and the
/// number reads).
pub fn doorway_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32)
}

/// The ticket fence site of thread `tid` (between the `N[i]`/`E[i]`
/// publication stores and the wait loops). Always `NonCritical`: it sits
/// on the already-contended slow path.
pub fn ticket_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32 + 1)
}

/// Builds the Bakery participants.
pub fn programs(
    cfg: &MachineConfig,
    roles: RoleAssign,
    iterations: u64,
    seed: u64,
) -> Vec<Box<dyn ThreadProgram>> {
    let threads = cfg.num_cores;
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = BakeryLayout::new(&mut alloc, threads);
    let mut root = SimRng::new(seed ^ 0x00BA_4E41);
    (0..threads)
        .map(|tid| {
            program(BakeryThread::new(
                tid,
                threads,
                layout.clone(),
                roles.role(tid),
                iterations,
                60,
                root.fork(tid as u64),
            ))
        })
        .collect()
}

/// Sums `(entries, mutex_violations)` over the machine's Bakery threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64) {
    m.threads_of::<BakeryThread>()
        .fold((0, 0), |(x, y), p| (x + p.entries, y + p.mutex_violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    fn run(design: FenceDesign, roles: RoleAssign, cores: usize, iters: u64) -> (u64, u64) {
        let cfg = MachineConfig::builder()
            .cores(cores)
            .fence_design(design)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, roles, iters, 77) {
            m.add_thread(p);
        }
        assert_eq!(m.run(400_000_000), RunOutcome::Finished, "{design}");
        tally(&m)
    }

    #[test]
    fn mutual_exclusion_under_s_plus() {
        let (entries, violations) = run(FenceDesign::SPlus, RoleAssign::PriorityThread0, 4, 6);
        assert_eq!(entries, 24);
        assert_eq!(violations, 0);
    }

    #[test]
    fn mutual_exclusion_under_ws_plus_with_priority_thread() {
        let (entries, violations) = run(FenceDesign::WsPlus, RoleAssign::PriorityThread0, 4, 6);
        assert_eq!(entries, 24);
        assert_eq!(violations, 0);
    }

    #[test]
    fn mutual_exclusion_under_w_plus_all_weak() {
        let (entries, violations) = run(FenceDesign::WPlus, RoleAssign::AllCritical, 4, 6);
        assert_eq!(entries, 24);
        assert_eq!(violations, 0);
    }

    #[test]
    fn mutual_exclusion_under_sw_plus() {
        let (entries, violations) = run(FenceDesign::SwPlus, RoleAssign::PriorityThread0, 3, 5);
        assert_eq!(entries, 15);
        assert_eq!(violations, 0);
    }
}
