//! The Cilk THE work-stealing deque (Frigo, Leiserson, Randall — PLDI'98),
//! exactly as the paper uses it (§4.1, Figure 5a).
//!
//! The owner `take()`s tasks from the tail with a Dekker-style protocol:
//! decrement the tail, **fence**, read the head; if a thief raced, fall
//! back to a lock. Thieves `steal()` from the head under the lock:
//! increment the head, **fence**, read the tail. The two fences form a
//! two-fence group; since stealing is rare (< 0.5 % of tasks in the
//! paper's workloads), the owner's fence is `Critical` (weak under
//! WS+/SW+) and the thief's is `NonCritical` (strong).
//!
//! The protocol pieces are written as poll-driven micro state machines
//! over [`Ops`] so workloads can embed them.
//!
//! **Native port:** `crates/native` ships the same protocol on real
//! threads as `asymfence_native::TheDeque`, fenced by a
//! `FencePair` (the owner's fence site maps to the pair's critical
//! fence, the thief's to the non-critical one); `native_bench
//! --crossval` compares its wall-clock ranking against this simulated
//! version's cycle ranking.

use asymfence::prelude::{Addr, FenceRole, FenceSite, RmwKind};

use crate::layout::AddressAllocator;
use crate::ops::{program, Ops, Steps, Tag};

/// Cycles an unsuccessful lock attempt backs off before retrying.
const LOCK_BACKOFF: u64 = 24;

/// Addresses of one deque's shared state.
#[derive(Clone, Debug)]
pub struct DequeLayout {
    /// Head index (stolen end).
    pub head: Addr,
    /// Tail index (owner end).
    pub tail: Addr,
    /// Thief/conflict lock word.
    pub lock: Addr,
    slots: Addr,
    capacity: u64,
}

impl DequeLayout {
    /// Allocates a deque with `capacity` task slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(alloc: &mut AddressAllocator, capacity: u64) -> Self {
        assert!(capacity > 0);
        DequeLayout {
            head: alloc.isolated_word(),
            tail: alloc.isolated_word(),
            lock: alloc.isolated_word(),
            slots: alloc.array(capacity),
            capacity,
        }
    }

    /// Address of the slot for logical index `idx`.
    pub fn slot(&self, idx: u64) -> Addr {
        self.slots.offset((idx % self.capacity) * 8)
    }

    /// Slot capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

/// Owner push: write the task, then bump the tail (no fence under TSO —
/// stores are not reordered with stores).
pub fn push(deque: &DequeLayout, local_tail: u64, task: u64, ops: &mut Ops) -> u64 {
    ops.store(deque.slot(local_tail), task);
    ops.store(deque.tail, local_tail + 1);
    local_tail + 1
}

/// Result of a completed [`Take`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TakeOutcome {
    /// Got a task; the owner's cached tail becomes `new_tail`.
    Got {
        /// The task descriptor.
        task: u64,
        /// Owner's new cached tail.
        new_tail: u64,
    },
    /// The deque was empty (or the last task was stolen).
    Empty {
        /// Owner's new cached tail.
        new_tail: u64,
    },
}

#[derive(Clone, Debug)]
enum TakeSt {
    WaitHead { head: Tag },
    WaitSlot { slot: Tag },
    LockSpin { lock: Tag },
    WaitHeadLocked { head: Tag },
    WaitSlotLocked { slot: Tag },
}

/// The THE `take()` state machine (owner side).
#[derive(Clone, Debug)]
pub struct Take {
    deque: DequeLayout,
    t: u64,
    state: TakeSt,
}

impl Take {
    /// Starts a take: `local_tail` is the owner's cached tail (number of
    /// pushed-minus-taken tasks from the owner's view).
    pub fn start(deque: &DequeLayout, local_tail: u64, ops: &mut Ops) -> Take {
        Take::start_at(deque, local_tail, ops, FenceSite::ANON)
    }

    /// As [`Take::start`], but the Dekker fence carries an addressable
    /// site id so a per-site assignment can override its strength.
    pub fn start_at(deque: &DequeLayout, local_tail: u64, ops: &mut Ops, site: FenceSite) -> Take {
        debug_assert!(local_tail > 0, "caller checks its cached tail first");
        let t = local_tail - 1;
        ops.store(deque.tail, t);
        ops.fence_at(site, FenceRole::Critical);
        let head = ops.load(deque.head);
        Take {
            deque: deque.clone(),
            t,
            state: TakeSt::WaitHead { head },
        }
    }

    /// Advances the machine; call when `ops.is_drained()`. Returns the
    /// outcome once finished.
    pub fn poll(&mut self, ops: &mut Ops) -> Option<TakeOutcome> {
        match self.state.clone() {
            TakeSt::WaitHead { head } => {
                let h = ops.take(head);
                if h <= self.t {
                    let slot = ops.load(self.deque.slot(self.t));
                    self.state = TakeSt::WaitSlot { slot };
                    None
                } else {
                    // Conflict with a thief: restore the tail and settle
                    // it under the lock.
                    ops.store(self.deque.tail, self.t + 1);
                    let lock = ops.rmw(self.deque.lock, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = TakeSt::LockSpin { lock };
                    None
                }
            }
            TakeSt::WaitSlot { slot } => {
                let task = ops.take(slot);
                Some(TakeOutcome::Got {
                    task,
                    new_tail: self.t,
                })
            }
            TakeSt::LockSpin { lock } => {
                if ops.take(lock) != 0 {
                    ops.compute(LOCK_BACKOFF);
                    let lock = ops.rmw(self.deque.lock, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = TakeSt::LockSpin { lock };
                    return None;
                }
                // Lock held: re-decrement and re-check the head.
                ops.store(self.deque.tail, self.t);
                let head = ops.load(self.deque.head);
                self.state = TakeSt::WaitHeadLocked { head };
                None
            }
            TakeSt::WaitHeadLocked { head } => {
                let h = ops.take(head);
                if h <= self.t {
                    let slot = ops.load(self.deque.slot(self.t));
                    self.state = TakeSt::WaitSlotLocked { slot };
                    None
                } else {
                    // Truly empty: restore the tail and give up.
                    ops.store(self.deque.tail, self.t + 1);
                    ops.store(self.deque.lock, 0);
                    Some(TakeOutcome::Empty {
                        new_tail: self.t + 1,
                    })
                }
            }
            TakeSt::WaitSlotLocked { slot } => {
                let task = ops.take(slot);
                ops.store(self.deque.lock, 0);
                Some(TakeOutcome::Got {
                    task,
                    new_tail: self.t,
                })
            }
        }
    }
}

/// Result of a completed [`Steal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StealOutcome {
    /// Stole a task.
    Got {
        /// The task descriptor.
        task: u64,
    },
    /// The victim's deque was empty.
    Empty,
}

#[derive(Clone, Debug)]
enum StealSt {
    LockSpin { lock: Tag },
    WaitHead { head: Tag },
    WaitTail { head: u64, tail: Tag },
    WaitSlot { slot: Tag },
}

/// The THE `steal()` state machine (thief side).
#[derive(Clone, Debug)]
pub struct Steal {
    deque: DequeLayout,
    site: FenceSite,
    state: StealSt,
}

impl Steal {
    /// Starts a steal against a victim deque.
    pub fn start(deque: &DequeLayout, ops: &mut Ops) -> Steal {
        Steal::start_at(deque, ops, FenceSite::ANON)
    }

    /// As [`Steal::start`], but the thief's fence carries an addressable
    /// site id so a per-site assignment can override its strength.
    pub fn start_at(deque: &DequeLayout, ops: &mut Ops, site: FenceSite) -> Steal {
        let lock = ops.rmw(deque.lock, RmwKind::Cas { expect: 0, new: 1 });
        Steal {
            deque: deque.clone(),
            site,
            state: StealSt::LockSpin { lock },
        }
    }

    /// Advances the machine; call when `ops.is_drained()`.
    pub fn poll(&mut self, ops: &mut Ops) -> Option<StealOutcome> {
        match self.state.clone() {
            StealSt::LockSpin { lock } => {
                if ops.take(lock) != 0 {
                    ops.compute(LOCK_BACKOFF);
                    let lock = ops.rmw(self.deque.lock, RmwKind::Cas { expect: 0, new: 1 });
                    self.state = StealSt::LockSpin { lock };
                    return None;
                }
                let head = ops.load(self.deque.head);
                self.state = StealSt::WaitHead { head };
                None
            }
            StealSt::WaitHead { head } => {
                let h = ops.take(head);
                ops.store(self.deque.head, h + 1);
                ops.fence_at(self.site, FenceRole::NonCritical);
                let tail = ops.load(self.deque.tail);
                self.state = StealSt::WaitTail { head: h, tail };
                None
            }
            StealSt::WaitTail { head, tail } => {
                let t = ops.take(tail);
                if head + 1 > t {
                    // Lost the race with the owner: undo and release.
                    ops.store(self.deque.head, head);
                    ops.store(self.deque.lock, 0);
                    Some(StealOutcome::Empty)
                } else {
                    let slot = ops.load(self.deque.slot(head));
                    self.state = StealSt::WaitSlot { slot };
                    None
                }
            }
            StealSt::WaitSlot { slot } => {
                let task = ops.take(slot);
                ops.store(self.deque.lock, 0);
                Some(StealOutcome::Got { task })
            }
        }
    }
}

/// The owner's `take()` fence site in the two-thread driver.
pub fn owner_site() -> FenceSite {
    FenceSite(0)
}

/// The thief's `steal()` fence site in the two-thread driver.
pub fn thief_site() -> FenceSite {
    FenceSite(1)
}

/// Slot capacity used by the driver's deque.
pub const DRIVER_CAPACITY: u64 = 16;

/// Rebuilds the driver's deque layout (deterministic, so site analysis
/// and program construction agree on every address).
pub fn driver_layout(cfg: &asymfence_common::config::MachineConfig) -> DequeLayout {
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    DequeLayout::new(&mut alloc, DRIVER_CAPACITY)
}

#[derive(Clone, Debug)]
enum DriverSt {
    Idle,
    Taking(Take),
    Stealing(Steal),
}

/// A minimal two-thread deque exerciser for fence-assignment synthesis:
/// the owner (`tid 0`) repeatedly pushes one task and takes one back; the
/// thief (`tid 1`) repeatedly steals. Always terminates — every `take` /
/// `steal` resolves to `Got` or `Empty` — so broken assignments surface
/// as SC violations or deadlocks, never as livelock.
#[derive(Clone, Debug)]
pub struct WsqDriver {
    tid: usize,
    deque: DequeLayout,
    rounds: u64,
    local_tail: u64,
    next_task: u64,
    rng: asymfence_common::rng::SimRng,
    ops: Ops,
    state: DriverSt,
    /// Tasks obtained (take or steal `Got`).
    pub got: u64,
}

impl Steps for WsqDriver {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, DriverSt::Idle) {
            DriverSt::Idle => {
                if self.rounds == 0 {
                    return false;
                }
                self.rounds -= 1;
                if self.tid == 0 {
                    self.next_task += 1;
                    self.local_tail =
                        push(&self.deque, self.local_tail, self.next_task, &mut self.ops);
                    self.ops.compute(8 + self.rng.below(16));
                    let take =
                        Take::start_at(&self.deque, self.local_tail, &mut self.ops, owner_site());
                    self.state = DriverSt::Taking(take);
                } else {
                    self.ops.compute(40 + self.rng.below(60));
                    let steal = Steal::start_at(&self.deque, &mut self.ops, thief_site());
                    self.state = DriverSt::Stealing(steal);
                }
                true
            }
            DriverSt::Taking(mut take) => {
                match take.poll(&mut self.ops) {
                    None => self.state = DriverSt::Taking(take),
                    Some(TakeOutcome::Got { new_tail, .. }) => {
                        self.got += 1;
                        self.local_tail = new_tail;
                        self.state = DriverSt::Idle;
                    }
                    Some(TakeOutcome::Empty { new_tail }) => {
                        self.local_tail = new_tail;
                        self.state = DriverSt::Idle;
                    }
                }
                true
            }
            DriverSt::Stealing(mut steal) => {
                match steal.poll(&mut self.ops) {
                    None => self.state = DriverSt::Stealing(steal),
                    Some(StealOutcome::Got { .. }) => {
                        self.got += 1;
                        self.state = DriverSt::Idle;
                    }
                    Some(StealOutcome::Empty) => self.state = DriverSt::Idle,
                }
                true
            }
        }
    }
}

/// Builds the two driver threads (owner then thief).
pub fn driver_programs(
    cfg: &asymfence_common::config::MachineConfig,
    rounds: u64,
    seed: u64,
) -> Vec<Box<dyn asymfence::prelude::ThreadProgram>> {
    let layout = driver_layout(cfg);
    let mut root = asymfence_common::rng::SimRng::new(seed ^ 0x0575_0000);
    (0..2)
        .map(|tid| {
            program(WsqDriver {
                tid,
                deque: layout.clone(),
                rounds,
                local_tail: 0,
                next_task: 0,
                rng: root.fork(tid as u64),
                ops: Ops::new(),
                state: DriverSt::Idle,
                got: 0,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::{Fetch, Instr};

    fn layout() -> DequeLayout {
        let mut alloc = AddressAllocator::new(32, 8);
        DequeLayout::new(&mut alloc, 8)
    }

    #[test]
    fn slots_wrap_at_capacity() {
        let d = layout();
        assert_eq!(d.slot(0), d.slot(8));
        assert_ne!(d.slot(0), d.slot(1));
        assert_eq!(d.capacity(), 8);
    }

    #[test]
    fn push_emits_slot_then_tail() {
        let d = layout();
        let mut ops = Ops::new();
        let nt = push(&d, 3, 77, &mut ops);
        assert_eq!(nt, 4);
        let is = collect_until_wait(&mut ops);
        assert!(matches!(is[0], Instr::Store { value: 77, .. }));
        assert!(matches!(is[1], Instr::Store { addr, value: 4 } if addr == d.tail));
    }

    #[test]
    fn take_fast_path_gets_task() {
        let d = layout();
        let mut ops = Ops::new();
        let mut take = Take::start(&d, 2, &mut ops);
        // Emits: store tail=1; fence(Critical); load head.
        let head_tag = ops.next_pending_tag().expect("head load pending");
        let is = collect_until_wait(&mut ops);
        assert!(matches!(is[0], Instr::Store { addr, value: 1 } if addr == d.tail));
        assert!(matches!(
            is[1],
            Instr::Fence {
                role: FenceRole::Critical,
                ..
            }
        ));
        ops.deliver(head_tag, 0); // head = 0 <= t = 1
        assert!(take.poll(&mut ops).is_none());
        let slot_tag = ops.next_pending_tag().expect("slot load");
        collect_until_wait(&mut ops);
        ops.deliver(slot_tag, 42);
        assert_eq!(
            take.poll(&mut ops),
            Some(TakeOutcome::Got {
                task: 42,
                new_tail: 1
            })
        );
    }

    #[test]
    fn take_conflict_path_locks_and_reports_empty() {
        let d = layout();
        let mut ops = Ops::new();
        let mut take = Take::start(&d, 1, &mut ops);
        let head_tag = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(head_tag, 1); // head = 1 > t = 0: conflict
        assert!(take.poll(&mut ops).is_none());
        let lock_tag = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(lock_tag, 0); // lock acquired
        assert!(take.poll(&mut ops).is_none());
        let head2 = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(head2, 1); // still gone
        assert_eq!(
            take.poll(&mut ops),
            Some(TakeOutcome::Empty { new_tail: 1 })
        );
    }

    #[test]
    fn steal_fails_on_empty_deque() {
        let d = layout();
        let mut ops = Ops::new();
        let mut steal = Steal::start(&d, &mut ops);
        let lock = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(lock, 0);
        assert!(steal.poll(&mut ops).is_none());
        let head = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(head, 0);
        assert!(steal.poll(&mut ops).is_none());
        let tail = ops.next_pending_tag().unwrap();
        let is = collect_until_wait(&mut ops);
        assert!(
            is.iter().any(|i| matches!(
                i,
                Instr::Fence {
                    role: FenceRole::NonCritical,
                    ..
                }
            )),
            "thief fence is non-critical"
        );
        ops.deliver(tail, 0); // head+1 = 1 > tail = 0: empty
        assert_eq!(steal.poll(&mut ops), Some(StealOutcome::Empty));
    }

    #[test]
    fn steal_succeeds_and_releases_lock() {
        let d = layout();
        let mut ops = Ops::new();
        let mut steal = Steal::start(&d, &mut ops);
        let lock = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(lock, 0);
        steal.poll(&mut ops);
        let head = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(head, 0);
        steal.poll(&mut ops);
        let tail = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(tail, 3); // 3 tasks available
        assert!(steal.poll(&mut ops).is_none());
        let slot = ops.next_pending_tag().unwrap();
        collect_until_wait(&mut ops);
        ops.deliver(slot, 99);
        assert_eq!(steal.poll(&mut ops), Some(StealOutcome::Got { task: 99 }));
        let is = collect_until_wait(&mut ops);
        assert!(
            is.iter()
                .any(|i| matches!(i, Instr::Store { addr, value: 0 } if *addr == d.lock)),
            "lock released"
        );
    }

    /// Pops emitted instructions until the queue blocks or empties.
    fn collect_until_wait(ops: &mut Ops) -> Vec<Instr> {
        let mut out = Vec::new();
        loop {
            match ops.poll() {
                Some(Fetch::Instr(i)) => out.push(i),
                Some(Fetch::Await) | Some(Fetch::Done) | None => return out,
            }
        }
    }
}
