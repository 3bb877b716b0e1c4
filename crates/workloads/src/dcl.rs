//! Double-checked locking (paper §4.4, [Schmidt & Harrison '96]).
//!
//! The classic lazy-initialization idiom: readers check an `initialized`
//! flag without the lock; on the slow path they take a lock, re-check,
//! and initialize. Under relaxed models the idiom is famously broken
//! without fences (a reader can observe `initialized = 1` but stale
//! payload). The threads carry the fences weaker models need, the
//! placement the paper's asymmetric designs accelerate (readers
//! `Critical`, initializer `NonCritical`). Under **TSO** the idiom is
//! safe without them: the publication side because stores are not
//! reordered with stores, the reader side because loads are not
//! reordered with loads. The tests demonstrate that by running the
//! threads through `StripFences`.

use asymfence::prelude::{Addr, FenceRole, FenceSite, RmwKind, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{program, Ops, Steps, Tag};

/// The payload value the initializer publishes.
pub const MAGIC: u64 = 0xC0FF_EE00_DEAD_BEEF;

/// Shared words of the lazily initialized object.
#[derive(Clone, Debug)]
pub struct DclLayout {
    /// Payload words (all must read [`MAGIC`] once initialized).
    pub payload: [Addr; 3],
    /// The published flag.
    pub initialized: Addr,
    /// Initialization lock.
    pub lock: Addr,
}

impl DclLayout {
    /// Allocates the object; payload and flag live on separate lines.
    pub fn new(alloc: &mut AddressAllocator) -> Self {
        DclLayout {
            payload: [
                alloc.isolated_word(),
                alloc.isolated_word(),
                alloc.isolated_word(),
            ],
            initialized: alloc.isolated_word(),
            lock: alloc.isolated_word(),
        }
    }
}

#[derive(Clone, Debug)]
enum DclSt {
    Start,
    FirstCheck { tag: Tag },
    LockSpin { tag: Tag },
    SecondCheck { tag: Tag },
    ReadPayload { tags: Vec<Tag> },
    Finished,
}

/// A thread performing `iterations` lazy accesses to the shared object.
#[derive(Clone)]
pub struct DclThread {
    tid: usize,
    layout: DclLayout,
    iterations: u64,
    rng: SimRng,
    ops: Ops,
    state: DclSt,
    holding_lock: bool,
    /// Accesses that found the object initialized.
    pub fast_hits: u64,
    /// Times this thread performed the initialization.
    pub initialized_by_me: u64,
    /// Payload words observed torn (≠ [`MAGIC`] after the flag read 1).
    pub torn_reads: u64,
}

impl DclThread {
    fn new(tid: usize, layout: DclLayout, iterations: u64, rng: SimRng) -> Self {
        DclThread {
            tid,
            layout,
            iterations,
            rng,
            ops: Ops::new(),
            state: DclSt::Start,
            holding_lock: false,
            fast_hits: 0,
            initialized_by_me: 0,
            torn_reads: 0,
        }
    }
}

impl Steps for DclThread {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, DclSt::Finished) {
            DclSt::Start => {
                if self.iterations == 0 {
                    self.state = DclSt::Finished;
                    return false;
                }
                self.iterations -= 1;
                self.ops.compute(30 + self.rng.below(60));
                let tag = self.ops.load(self.layout.initialized);
                self.state = DclSt::FirstCheck { tag };
                true
            }
            DclSt::FirstCheck { tag } => {
                if self.ops.take(tag) != 0 {
                    self.fast_hits += 1;
                    // On weaker-than-TSO models the reader needs an
                    // acquire fence here; readers are the hot side.
                    self.ops
                        .fence_at(reader_site(self.tid), FenceRole::Critical);
                    let tags = self
                        .layout
                        .payload
                        .iter()
                        .map(|a| self.ops.load(*a))
                        .collect();
                    self.state = DclSt::ReadPayload { tags };
                } else {
                    let tag = self
                        .ops
                        .rmw(self.layout.lock, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = DclSt::LockSpin { tag };
                }
                true
            }
            DclSt::LockSpin { tag } => {
                if self.ops.take(tag) != 0 {
                    self.ops.compute(25 + self.rng.below(25));
                    let tag = self
                        .ops
                        .rmw(self.layout.lock, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = DclSt::LockSpin { tag };
                } else {
                    self.holding_lock = true;
                    let tag = self.ops.load(self.layout.initialized);
                    self.state = DclSt::SecondCheck { tag };
                }
                true
            }
            DclSt::SecondCheck { tag } => {
                if self.ops.take(tag) == 0 {
                    // Initialize: payload first, then publish the flag.
                    for a in self.layout.payload {
                        self.ops.store(a, MAGIC);
                    }
                    // Release fence before publication (needed on
                    // models weaker than TSO; rare path).
                    self.ops
                        .fence_at(init_site(self.tid), FenceRole::NonCritical);
                    self.ops.store(self.layout.initialized, 1);
                    self.initialized_by_me += 1;
                }
                self.ops.store(self.layout.lock, 0);
                self.holding_lock = false;
                let tags = self
                    .layout
                    .payload
                    .iter()
                    .map(|a| self.ops.load(*a))
                    .collect();
                self.state = DclSt::ReadPayload { tags };
                true
            }
            DclSt::ReadPayload { tags } => {
                for t in tags {
                    if self.ops.take(t) != MAGIC {
                        self.torn_reads += 1;
                    }
                }
                self.state = DclSt::Start;
                true
            }
            DclSt::Finished => false,
        }
    }
}

/// The reader-side (acquire) fence site of thread `tid`.
pub fn reader_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32)
}

/// The initializer-side (release) fence site of thread `tid`.
pub fn init_site(tid: usize) -> FenceSite {
    FenceSite(2 * tid as u32 + 1)
}

/// Builds the DCL threads with the weaker-model fence placement.
pub fn programs(cfg: &MachineConfig, iterations: u64, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = DclLayout::new(&mut alloc);
    let mut root = SimRng::new(seed ^ 0xDC1);
    (0..cfg.num_cores)
        .map(|tid| {
            program(DclThread::new(
                tid,
                layout.clone(),
                iterations,
                root.fork(tid as u64),
            ))
        })
        .collect()
}

/// Sums `(fast_hits, inits, torn_reads)` over the machine's DCL threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64, u64) {
    m.threads_of::<DclThread>().fold((0, 0, 0), |(f, i, t), p| {
        (f + p.fast_hits, i + p.initialized_by_me, t + p.torn_reads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::cpu::insert::StripFences;
    use asymfence::prelude::*;

    fn run(design: FenceDesign, fenced: bool) -> (u64, u64, u64) {
        let cfg = MachineConfig::builder()
            .cores(4)
            .fence_design(design)
            .seed(8)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, 25, 8) {
            m.add_thread(if fenced {
                p
            } else {
                Box::new(StripFences::new(p))
            });
        }
        assert_eq!(m.run(500_000_000), RunOutcome::Finished, "{design}");
        tally(&m)
    }

    #[test]
    fn initialization_happens_exactly_once() {
        let (_, inits, torn) = run(FenceDesign::SPlus, true);
        assert_eq!(inits, 1, "exactly one thread initializes");
        assert_eq!(torn, 0);
    }

    #[test]
    fn tso_makes_unfenced_dcl_safe() {
        // No fence anywhere: TSO's store-store and load-load ordering
        // still forbids observing the flag without the payload.
        let (fast, inits, torn) = run(FenceDesign::SPlus, false);
        assert_eq!(inits, 1);
        assert_eq!(torn, 0, "no torn reads under TSO even without fences");
        assert!(fast > 0, "later accesses hit the fast path");
    }

    #[test]
    fn fenced_variant_safe_under_weak_designs() {
        for design in [FenceDesign::WsPlus, FenceDesign::WPlus, FenceDesign::Wee] {
            let (_, inits, torn) = run(design, true);
            assert_eq!(inits, 1, "{design}");
            assert_eq!(torn, 0, "{design}");
        }
    }
}
