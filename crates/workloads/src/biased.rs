//! Biased locking (paper §4.4): Java-monitor-style lock reservation
//! (Kawachiya et al., OOPSLA'02) expressed with asymmetric fences.
//!
//! A lock is *biased* to its dominant thread. The owner's fast path is a
//! Dekker-style handshake — store the lock word, **fence**, check for a
//! revocation request — with no atomic instruction. A contender first
//! publishes a revocation request, **fences**, and waits for the owner to
//! be out of the critical section, then competes through a CAS path.
//!
//! The owner's fence is `Critical` (weak under WS+/SW+), the revoker's is
//! `NonCritical` — the asymmetric fence group the paper's §4.4 points at.

use asymfence::prelude::{Addr, FenceRole, Fetch, RmwKind, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{Ops, Tag};

/// Shared words of one biased lock.
#[derive(Clone, Debug)]
pub struct BiasedLockLayout {
    /// 1 while the bias owner is inside the critical section.
    pub owner_held: Addr,
    /// Set by contenders to request revocation.
    pub revoke: Addr,
    /// CAS-acquired fallback lock used once the bias is revoked.
    pub fallback: Addr,
    /// Critical-section witness for mutual-exclusion checking.
    pub witness: Addr,
}

impl BiasedLockLayout {
    /// Allocates the lock words on isolated lines.
    pub fn new(alloc: &mut AddressAllocator) -> Self {
        BiasedLockLayout {
            owner_held: alloc.isolated_word(),
            revoke: alloc.isolated_word(),
            fallback: alloc.isolated_word(),
            witness: alloc.isolated_word(),
        }
    }
}

#[derive(Clone, Debug)]
enum BiasSt {
    Start,
    OwnerCheckRevoke { tag: Tag },
    ContendWaitOwner { tag: Tag },
    ContendLockSpin { tag: Tag },
    InCs,
    VerifyCs { tag: Tag },
    ExitCs,
    Finished,
}

/// One thread using the biased lock: thread 0 is the bias owner, the rest
/// are occasional contenders.
#[derive(Clone)]
pub struct BiasedThread {
    tid: usize,
    is_owner: bool,
    layout: BiasedLockLayout,
    iterations: u64,
    cs_compute: u64,
    gap_compute: (u64, u64),
    rng: SimRng,
    ops: Ops,
    state: BiasSt,
    via_fallback: bool,
    /// Critical sections completed.
    pub entries: u64,
    /// Observed witness corruption (must stay 0).
    pub mutex_violations: u64,
}

impl BiasedThread {
    #[allow(clippy::too_many_arguments)]
    fn new(
        tid: usize,
        is_owner: bool,
        layout: BiasedLockLayout,
        iterations: u64,
        cs_compute: u64,
        gap_compute: (u64, u64),
        rng: SimRng,
    ) -> Self {
        BiasedThread {
            tid,
            is_owner,
            layout,
            iterations,
            cs_compute,
            gap_compute,
            rng,
            ops: Ops::new(),
            state: BiasSt::Start,
            via_fallback: false,
            entries: 0,
            mutex_violations: 0,
        }
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, BiasSt::Finished) {
            BiasSt::Start => {
                if self.entries >= self.iterations {
                    self.state = BiasSt::Finished;
                    return false;
                }
                let gap = self.rng.range(self.gap_compute.0, self.gap_compute.1);
                self.ops.compute(gap);
                if self.is_owner {
                    // Fast path: claim, fence, check for revocation.
                    self.ops.store(self.layout.owner_held, 1);
                    self.ops.fence(FenceRole::Critical);
                    let tag = self.ops.load(self.layout.revoke);
                    self.state = BiasSt::OwnerCheckRevoke { tag };
                } else {
                    // Contend: publish the revocation request, fence, wait
                    // for the owner to leave.
                    self.ops.store(self.layout.revoke, 1);
                    self.ops.fence(FenceRole::NonCritical);
                    let tag = self.ops.load(self.layout.owner_held);
                    self.state = BiasSt::ContendWaitOwner { tag };
                }
                true
            }
            BiasSt::OwnerCheckRevoke { tag } => {
                if self.ops.take(tag) == 0 {
                    self.via_fallback = false;
                    self.state = BiasSt::InCs;
                } else {
                    // Bias revoked: back out and take the fallback path.
                    self.ops.store(self.layout.owner_held, 0);
                    let tag = self
                        .ops
                        .rmw(self.layout.fallback, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = BiasSt::ContendLockSpin { tag };
                }
                true
            }
            BiasSt::ContendWaitOwner { tag } => {
                if self.ops.take(tag) != 0 {
                    self.ops.compute(20 + self.rng.below(20));
                    let tag = self.ops.load(self.layout.owner_held);
                    self.state = BiasSt::ContendWaitOwner { tag };
                } else {
                    let tag = self
                        .ops
                        .rmw(self.layout.fallback, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = BiasSt::ContendLockSpin { tag };
                }
                true
            }
            BiasSt::ContendLockSpin { tag } => {
                if self.ops.take(tag) != 0 {
                    self.ops.compute(24 + self.rng.below(16));
                    let tag = self
                        .ops
                        .rmw(self.layout.fallback, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = BiasSt::ContendLockSpin { tag };
                } else {
                    self.via_fallback = true;
                    self.state = BiasSt::InCs;
                }
                true
            }
            BiasSt::InCs => {
                self.ops.store(self.layout.witness, self.tid as u64 + 1);
                self.ops.compute(self.cs_compute);
                let tag = self.ops.load(self.layout.witness);
                self.state = BiasSt::VerifyCs { tag };
                true
            }
            BiasSt::VerifyCs { tag } => {
                if self.ops.take(tag) != self.tid as u64 + 1 {
                    self.mutex_violations += 1;
                }
                self.state = BiasSt::ExitCs;
                true
            }
            BiasSt::ExitCs => {
                self.ops.store(self.layout.witness, 0);
                if self.via_fallback {
                    self.ops.store(self.layout.fallback, 0);
                    if !self.is_owner {
                        // Retract the revocation request so the owner can
                        // re-bias on its next acquisition.
                        self.ops.store(self.layout.revoke, 0);
                    }
                } else {
                    self.ops.store(self.layout.owner_held, 0);
                }
                self.entries += 1;
                self.state = BiasSt::Start;
                true
            }
            BiasSt::Finished => false,
        }
    }
}

impl std::fmt::Debug for BiasedThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiasedThread")
            .field("tid", &self.tid)
            .field("owner", &self.is_owner)
            .field("entries", &self.entries)
            .finish()
    }
}

impl ThreadProgram for BiasedThread {
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
        "biased-lock"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Builds a biased-lock workload: thread 0 owns the bias and enters the
/// critical section `owner_iters` times with short gaps; the other threads
/// contend `contender_iters` times with long gaps.
pub fn programs(
    cfg: &MachineConfig,
    owner_iters: u64,
    contender_iters: u64,
    seed: u64,
) -> Vec<Box<dyn ThreadProgram>> {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = BiasedLockLayout::new(&mut alloc);
    let mut root = SimRng::new(seed ^ 0xB1A5);
    (0..cfg.num_cores)
        .map(|tid| {
            let is_owner = tid == 0;
            Box::new(BiasedThread::new(
                tid,
                is_owner,
                layout.clone(),
                if is_owner {
                    owner_iters
                } else {
                    contender_iters
                },
                60,
                if is_owner { (40, 120) } else { (1200, 3600) },
                root.fork(tid as u64),
            )) as Box<dyn ThreadProgram>
        })
        .collect()
}

/// Sums `(entries, violations)` over the machine's biased-lock threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64) {
    let mut entries = 0;
    let mut violations = 0;
    for i in 0..m.config().num_cores {
        if let Some(p) = m
            .thread_program(asymfence_common::ids::CoreId(i))
            .as_any()
            .downcast_ref::<BiasedThread>()
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

    fn run(design: FenceDesign, cores: usize, owner: u64, contender: u64) -> (u64, u64) {
        let cfg = MachineConfig::builder()
            .cores(cores)
            .fence_design(design)
            .seed(4)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, owner, contender, 4) {
            m.add_thread(p);
        }
        assert_eq!(m.run(500_000_000), RunOutcome::Finished, "{design}");
        tally(&m)
    }

    #[test]
    fn owner_dominates_and_mutual_exclusion_holds() {
        for design in [
            FenceDesign::SPlus,
            FenceDesign::WsPlus,
            FenceDesign::SwPlus,
            FenceDesign::WPlus,
        ] {
            let (entries, violations) = run(design, 3, 40, 3);
            assert_eq!(entries, 40 + 2 * 3, "{design}");
            assert_eq!(violations, 0, "{design}: mutual exclusion broken");
        }
    }

    #[test]
    fn weak_owner_fence_speeds_up_the_fast_path() {
        let cycles = |design| {
            let cfg = MachineConfig::builder()
                .cores(2)
                .fence_design(design)
                .seed(9)
                .build();
            let mut m = Machine::new(&cfg);
            // Give the owner WB pressure: stores before each acquisition
            // come from the gap compute in a real program; here the fast
            // path cost itself is what differs.
            for p in programs(&cfg, 300, 2, 9) {
                m.add_thread(p);
            }
            assert_eq!(m.run(500_000_000), RunOutcome::Finished);
            let s = m.stats();
            (m.now(), s.aggregate().fence_stall_cycles)
        };
        let (t_s, _stall_s) = cycles(FenceDesign::SPlus);
        let (t_w, _stall_w) = cycles(FenceDesign::WsPlus);
        // The contender's strong fence may absorb bounce time (that is
        // the design: the rare thread pays); what matters is that the
        // owner-dominated total does not regress.
        assert!(
            t_w <= t_s + t_s / 10,
            "WS+ ({t_w}) must not be slower than S+ ({t_s})"
        );
    }
}
