//! Double-checked locking (paper §4.4, [Schmidt & Harrison '96]).
//!
//! The classic lazy-initialization idiom: readers check an `initialized`
//! flag without the lock; on the slow path they take a lock, re-check,
//! and initialize. Under relaxed models the idiom is famously broken
//! without fences (a reader can observe `initialized = 1` but stale
//! payload). Under **TSO** the publication side is safe without any fence
//! (stores are not reordered with stores), and the reader side is safe
//! because loads are not reordered with loads — this module demonstrates
//! both, and also provides the *fenced* variant the paper's asymmetric
//! designs would accelerate on weaker models (readers `Critical`,
//! initializer `NonCritical`).

use asymfence::prelude::{Addr, FenceRole, FenceSite, Fetch, RmwKind, ThreadProgram};
use asymfence_common::config::MachineConfig;
use asymfence_common::rng::SimRng;

use crate::layout::AddressAllocator;
use crate::ops::{Ops, Tag};

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
    fenced: bool,
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
    fn new(tid: usize, layout: DclLayout, fenced: bool, iterations: u64, rng: SimRng) -> Self {
        DclThread {
            tid,
            layout,
            fenced,
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
                    if self.fenced {
                        // On weaker-than-TSO models the reader needs an
                        // acquire fence here; readers are the hot side.
                        self.ops
                            .fence_at(reader_site(self.tid), FenceRole::Critical);
                    }
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
                    if self.fenced {
                        // Release fence before publication (needed on
                        // models weaker than TSO; rare path).
                        self.ops
                            .fence_at(init_site(self.tid), FenceRole::NonCritical);
                    }
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

impl std::fmt::Debug for DclThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DclThread")
            .field("tid", &self.tid)
            .field("fast_hits", &self.fast_hits)
            .field("torn_reads", &self.torn_reads)
            .finish()
    }
}

impl ThreadProgram for DclThread {
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
        "dcl"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
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

/// Builds the DCL threads. `fenced = false` demonstrates TSO's natural
/// safety of the idiom; `fenced = true` is the weaker-model placement.
pub fn programs(
    cfg: &MachineConfig,
    fenced: bool,
    iterations: u64,
    seed: u64,
) -> Vec<Box<dyn ThreadProgram>> {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = DclLayout::new(&mut alloc);
    let mut root = SimRng::new(seed ^ 0xDC1);
    (0..cfg.num_cores)
        .map(|tid| {
            Box::new(DclThread::new(
                tid,
                layout.clone(),
                fenced,
                iterations,
                root.fork(tid as u64),
            )) as Box<dyn ThreadProgram>
        })
        .collect()
}

/// Sums `(fast_hits, inits, torn_reads)` over the machine's DCL threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64, u64) {
    let (mut fast, mut inits, mut torn) = (0, 0, 0);
    for i in 0..m.config().num_cores {
        if let Some(p) = m
            .thread_program(asymfence_common::ids::CoreId(i))
            .as_any()
            .downcast_ref::<DclThread>()
        {
            fast += p.fast_hits;
            inits += p.initialized_by_me;
            torn += p.torn_reads;
        }
    }
    (fast, inits, torn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    fn run(design: FenceDesign, fenced: bool) -> (u64, u64, u64) {
        let cfg = MachineConfig::builder()
            .cores(4)
            .fence_design(design)
            .seed(8)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&cfg, fenced, 25, 8) {
            m.add_thread(p);
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
