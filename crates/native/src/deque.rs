//! Native port of the THE work-stealing deque from
//! `asymfence-workloads`' simulated version, parameterized over a
//! [`FencePair`].
//!
//! The owner's `take` is the hot path: it runs the classic THE
//! store→fence→load window (publish the decremented tail, fence, read
//! the head) with the *critical* fence, so under [`crate::Asymmetric`]
//! the owner never executes a hardware fence. Thieves serialize on a
//! mutex and run the mirrored window (publish the incremented head,
//! fence, read the tail) with the *non-critical* fence — under the
//! membarrier backend the thief's heavy fence is what makes the owner's
//! compiler-only fence sound.
//!
//! One deviation from the simulated port: the simulator models a TSO
//! machine, where the owner's `push` needs no fence between the slot
//! store and the tail store. C11 `Relaxed` makes no such promise, so the
//! native `push` publishes the tail with `Release` and thieves read it
//! with `Acquire`.
//!
//! The ring keeps one slot more than the deque's capacity. A thief
//! publishes `head + 1` before it reads `slot(head)`, so an owner `push`
//! that sees the optimistic head counts one task too few. With a ring of
//! exactly `capacity` slots that push could then write the very slot the
//! thief is about to read, handing one task out twice and losing another.
//! The spare slot keeps the slot being stolen out of `push`'s reach.

use crate::pair::FencePair;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Value stored in an empty slot; pushing it is rejected so a stolen
/// read can never be confused with uninitialized data.
const EMPTY: u64 = u64::MAX;

/// A bounded THE work-stealing deque of `u64` task ids.
///
/// Exactly one thread may call [`push`](TheDeque::push) /
/// [`take`](TheDeque::take) (the owner); any number may call
/// [`steal`](TheDeque::steal). All slots and indices are atomics, so a
/// protocol bug shows up as lost or duplicated tasks (checked by the
/// stress tests), never as undefined behaviour.
///
/// ```
/// use asymfence_native::{Asymmetric, TheDeque};
/// let q = TheDeque::new(8, Asymmetric);
/// assert!(q.push(7));
/// assert_eq!(q.take(), Some(7));
/// assert_eq!(q.steal(), None);
/// ```
pub struct TheDeque<P: FencePair> {
    head: AtomicU64,
    tail: AtomicU64,
    lock: Mutex<()>,
    slots: Box<[AtomicU64]>,
    pair: P,
}

impl<P: FencePair> TheDeque<P> {
    /// An empty deque with room for `capacity` outstanding tasks.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize, pair: P) -> Self {
        assert!(capacity > 0, "deque capacity must be nonzero");
        TheDeque {
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            lock: Mutex::new(()),
            // One spare slot: see the module docs.
            slots: (0..=capacity).map(|_| AtomicU64::new(EMPTY)).collect(),
            pair,
        }
    }

    fn slot(&self, index: u64) -> &AtomicU64 {
        &self.slots[index as usize % self.slots.len()]
    }

    /// Most tasks the deque holds at once (one less than the ring).
    fn capacity(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    /// Owner-only: appends `task` at the tail. Returns false when the
    /// deque is full (conservative: a concurrent steal can only make
    /// room). `task` must not be `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics when `task` is the reserved empty marker.
    pub fn push(&self, task: u64) -> bool {
        assert_ne!(task, EMPTY, "u64::MAX is reserved");
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        // A thief's optimistic head increment can transiently pass the
        // tail; treat that (None) as full too — it only costs a retry.
        // `h` may be that optimistic head, so `slot(t)` can be at most
        // `capacity` past the slot the thief is reading: the spare slot
        // keeps the two apart.
        match t.checked_sub(h) {
            Some(live) if live < self.capacity() => {}
            _ => return false,
        }
        self.slot(t).store(task, Ordering::Relaxed);
        // Publish: pairs with the Acquire tail load in `steal`, making
        // the slot store visible before the slot becomes stealable.
        self.tail.store(t + 1, Ordering::Release);
        true
    }

    /// Owner-only: pops from the tail. This is the THE fast path —
    /// store the decremented tail, *critical* fence, load the head — and
    /// falls back to the thief lock only when the two meet on the last
    /// task.
    pub fn take(&self) -> Option<u64> {
        let t = self.tail.load(Ordering::Relaxed);
        if t == 0 {
            return None;
        }
        let t = t - 1;
        self.tail.store(t, Ordering::Relaxed);
        self.pair.critical();
        let h = self.head.load(Ordering::Relaxed);
        if h <= t {
            // More than one task, or we won the race for the last one:
            // thieves that saw our tail store will back off.
            return Some(self.slot(t).load(Ordering::Relaxed));
        }
        // Conflict on the last task: restore, then retry under the
        // thief lock where head is stable.
        self.tail.store(t + 1, Ordering::Relaxed);
        let _guard = self.lock.lock().unwrap();
        let h = self.head.load(Ordering::Relaxed);
        if h <= t {
            self.tail.store(t, Ordering::Relaxed);
            Some(self.slot(t).load(Ordering::Relaxed))
        } else {
            None
        }
    }

    /// Thief path: steals from the head. Serializes thieves on the lock,
    /// then runs the mirrored window — store the incremented head,
    /// *non-critical* fence, load the tail — so either the owner's take
    /// sees the new head or this steal sees the owner's new tail (the
    /// Dekker property the fence pair guarantees).
    pub fn steal(&self) -> Option<u64> {
        let _guard = self.lock.lock().unwrap();
        let h = self.head.load(Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Relaxed);
        self.pair.noncritical();
        let t = self.tail.load(Ordering::Acquire);
        if h + 1 > t {
            self.head.store(h, Ordering::Relaxed); // lost the race: undo
            return None;
        }
        Some(self.slot(h).load(Ordering::Relaxed))
    }

    /// Tasks currently in the deque, as seen by a racy observer.
    pub fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// True when [`len`](TheDeque::len) observes no tasks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{AllHeavy, Asymmetric, HwSeqCst};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let q = TheDeque::new(8, Asymmetric);
        assert!(q.is_empty());
        for task in [10, 11, 12] {
            assert!(q.push(task));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.take(), Some(12));
        assert_eq!(q.steal(), Some(10));
        assert_eq!(q.take(), Some(11));
        assert_eq!(q.take(), None);
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn push_rejects_overflow() {
        let q = TheDeque::new(2, AllHeavy);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.steal(), Some(1));
        assert!(q.push(3));
    }

    /// Two-thread stress: every pushed task is taken or stolen exactly
    /// once. Catches lost/duplicated tasks across the fence window.
    fn stress<P: FencePair>(pair: P, tasks: u64) {
        let q = TheDeque::new(64, pair);
        let done = AtomicBool::new(false);
        let (owner_sum, thief_sum) = std::thread::scope(|s| {
            let thief = s.spawn(|| {
                let mut sum = 0u64;
                while !done.load(Ordering::Acquire) {
                    match q.steal() {
                        Some(v) => sum += v,
                        None => std::thread::yield_now(),
                    }
                }
                while let Some(v) = q.steal() {
                    sum += v;
                }
                sum
            });
            let mut sum = 0u64;
            let mut next = 1u64;
            while next <= tasks {
                let burst = (tasks - next + 1).min(13);
                for _ in 0..burst {
                    if q.push(next) {
                        next += 1;
                    } else {
                        break;
                    }
                }
                for _ in 0..burst / 2 {
                    if let Some(v) = q.take() {
                        sum += v;
                    }
                }
            }
            while let Some(v) = q.take() {
                sum += v;
            }
            done.store(true, Ordering::Release);
            (sum, thief.join().unwrap())
        });
        assert_eq!(owner_sum + thief_sum, tasks * (tasks + 1) / 2);
    }

    #[test]
    fn stress_all_pairs() {
        stress(AllHeavy, 2_000);
        stress(Asymmetric, 2_000);
        stress(HwSeqCst, 2_000);
    }
}
