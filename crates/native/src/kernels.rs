//! Native mutual-exclusion and litmus kernels: the store→fence→load
//! windows the simulator studies, run on real threads.
//!
//! Each kernel reports how many sequential-consistency (or
//! mutual-exclusion) violations it observed; a sound [`FencePair`] must
//! report zero. The asymmetric assignments mirror the simulated
//! workloads: the hot thread's fence site is *critical* (light), the
//! peer's is *non-critical* (heavy).

use crate::pair::FencePair;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Counts from one kernel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelRun {
    /// Protocol operations completed (entries, rounds, …).
    pub ops: u64,
    /// Sequential-consistency / mutual-exclusion violations observed.
    /// Zero for every sound fence pair.
    pub violations: u64,
}

fn spin_wait(mut tries: u32, cond: impl Fn() -> bool) {
    while !cond() {
        tries += 1;
        if tries.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Two-thread Dekker mutual exclusion, `iters` critical-section entries
/// per thread. Thread 0's entry fence is the *critical* site, thread
/// 1's the *non-critical* one (the simulated dekker's asymmetric
/// annotation). Violations are witnessed inside the critical section.
///
/// ```
/// use asymfence_native::{dekker, Asymmetric};
/// assert_eq!(dekker(Asymmetric, 50).violations, 0);
/// ```
pub fn dekker<P: FencePair>(pair: P, iters: u64) -> KernelRun {
    struct Shared {
        flag: [AtomicU32; 2],
        turn: AtomicU32,
        owner: AtomicU32,
    }
    let s = Shared {
        flag: [AtomicU32::new(0), AtomicU32::new(0)],
        turn: AtomicU32::new(0),
        owner: AtomicU32::new(u32::MAX),
    };
    let run = |me: usize| {
        let other = 1 - me;
        let entry_fence = || {
            if me == 0 {
                pair.critical()
            } else {
                pair.noncritical()
            }
        };
        let mut violations = 0u64;
        for _ in 0..iters {
            s.flag[me].store(1, Ordering::Relaxed);
            entry_fence();
            while s.flag[other].load(Ordering::Relaxed) == 1 {
                if s.turn.load(Ordering::Relaxed) != me as u32 {
                    s.flag[me].store(0, Ordering::Relaxed);
                    spin_wait(0, || s.turn.load(Ordering::Relaxed) == me as u32);
                    s.flag[me].store(1, Ordering::Relaxed);
                    entry_fence();
                } else {
                    std::hint::spin_loop();
                }
            }
            // Critical section: we must be alone.
            s.owner.store(me as u32, Ordering::Relaxed);
            for _ in 0..8 {
                if s.owner.load(Ordering::Relaxed) != me as u32 {
                    violations += 1;
                    break;
                }
                std::hint::spin_loop();
            }
            s.turn.store(other as u32, Ordering::Relaxed);
            s.flag[me].store(0, Ordering::Release);
        }
        violations
    };
    let violations = std::thread::scope(|sc| {
        let t1 = sc.spawn(|| run(1));
        run(0) + t1.join().unwrap()
    });
    KernelRun {
        ops: 2 * iters,
        violations,
    }
}

/// Store-buffering (SB) hammer: both threads store their flag, fence,
/// and load the peer's; both loading 0 in one round is the
/// TSO-reorderable outcome every sound pair must forbid. Thread 0 runs
/// the *critical* fence, thread 1 the *non-critical* one. Rounds
/// rendezvous on a sense-reversing barrier so each round is a fresh
/// race.
///
/// ```
/// use asymfence_native::{sb_hammer, Asymmetric};
/// assert_eq!(sb_hammer(Asymmetric, 200).violations, 0);
/// ```
pub fn sb_hammer<P: FencePair>(pair: P, rounds: u64) -> KernelRun {
    let x = AtomicU32::new(0);
    let y = AtomicU32::new(0);
    let arrived = [AtomicU64::new(0), AtomicU64::new(0)];
    let observed = [AtomicU32::new(0), AtomicU32::new(0)];
    let run = |me: usize| {
        let (mine, theirs) = if me == 0 { (&x, &y) } else { (&y, &x) };
        let mut violations = 0u64;
        for round in 1..=rounds {
            mine.store(1, Ordering::Relaxed);
            if me == 0 {
                pair.critical();
            } else {
                pair.noncritical();
            }
            let seen = theirs.load(Ordering::Relaxed);
            observed[me].store(seen, Ordering::Relaxed);
            // Rendezvous (monotonic phase counter, so a slow waiter can
            // never miss a state): both threads are past their load here.
            arrived[me].store(2 * round, Ordering::SeqCst);
            spin_wait(0, || arrived[1 - me].load(Ordering::SeqCst) >= 2 * round);
            if me == 0 {
                if seen == 0 && observed[1].load(Ordering::SeqCst) == 0 {
                    violations += 1;
                }
                x.store(0, Ordering::SeqCst);
                y.store(0, Ordering::SeqCst);
            }
            // Second phase: hold thread 1 until thread 0 judged + reset.
            arrived[me].store(2 * round + 1, Ordering::SeqCst);
            spin_wait(0, || arrived[1 - me].load(Ordering::SeqCst) > 2 * round);
        }
        violations
    };
    let violations = std::thread::scope(|sc| {
        let t1 = sc.spawn(|| run(1));
        run(0) + t1.join().unwrap()
    });
    KernelRun {
        ops: rounds,
        violations,
    }
}

/// Two-thread Peterson lock, `iters` critical-section entries per
/// thread — the native twin of the *unannotated* `peterson` kernel the
/// analyzer infers fences for (there is no hand-annotated simulated
/// twin; the placement comes out of `asymfence-analyze`). The inferred
/// WS+ assignment makes thread 0's entry fence the *critical* site and
/// thread 1's the *non-critical* one, which is how the roles are wired
/// here. Violations are witnessed inside the critical section.
///
/// ```
/// use asymfence_native::{peterson, Asymmetric};
/// assert_eq!(peterson(Asymmetric, 50).violations, 0);
/// ```
pub fn peterson<P: FencePair>(pair: P, iters: u64) -> KernelRun {
    struct Shared {
        flag: [AtomicU32; 2],
        turn: AtomicU32,
        owner: AtomicU32,
    }
    let s = Shared {
        flag: [AtomicU32::new(0), AtomicU32::new(0)],
        turn: AtomicU32::new(0),
        owner: AtomicU32::new(u32::MAX),
    };
    let run = |me: usize| {
        let other = 1 - me;
        let mut violations = 0u64;
        for _ in 0..iters {
            s.flag[me].store(1, Ordering::Relaxed);
            s.turn.store(other as u32, Ordering::Relaxed);
            // The inferred site: between the announce stores and the
            // flag[other] read that decides entry.
            if me == 0 {
                pair.critical();
            } else {
                pair.noncritical();
            }
            spin_wait(0, || {
                s.flag[other].load(Ordering::Relaxed) == 0
                    || s.turn.load(Ordering::Relaxed) != other as u32
            });
            // Critical section: we must be alone.
            s.owner.store(me as u32, Ordering::Relaxed);
            for _ in 0..8 {
                if s.owner.load(Ordering::Relaxed) != me as u32 {
                    violations += 1;
                    break;
                }
                std::hint::spin_loop();
            }
            s.flag[me].store(0, Ordering::Release);
        }
        violations
    };
    let violations = std::thread::scope(|sc| {
        let t1 = sc.spawn(|| run(1));
        run(0) + t1.join().unwrap()
    });
    KernelRun {
        ops: 2 * iters,
        violations,
    }
}

/// Message-passing (MP) hammer: the writer publishes `data` then `flag`
/// with the *non-critical* fence between them; the reader spins on
/// `flag` and reads `data` after the *critical* fence. Reading a stale
/// `data` for a fresh `flag` is the violation. The reader acks each
/// round so the writer never runs ahead.
///
/// ```
/// use asymfence_native::{mp_hammer, Asymmetric};
/// assert_eq!(mp_hammer(Asymmetric, 200).violations, 0);
/// ```
pub fn mp_hammer<P: FencePair>(pair: P, rounds: u64) -> KernelRun {
    let data = AtomicU64::new(0);
    let flag = AtomicU64::new(0);
    let ack = AtomicU64::new(0);
    let violations = std::thread::scope(|sc| {
        let reader = sc.spawn(|| {
            let mut violations = 0u64;
            for round in 1..=rounds {
                spin_wait(0, || flag.load(Ordering::Relaxed) >= round);
                pair.critical();
                let d = data.load(Ordering::Relaxed);
                if d < round * 7919 {
                    violations += 1;
                }
                ack.store(round, Ordering::Release);
            }
            violations
        });
        for round in 1..=rounds {
            data.store(round * 7919, Ordering::Relaxed);
            pair.noncritical();
            flag.store(round, Ordering::Relaxed);
            spin_wait(0, || ack.load(Ordering::Acquire) >= round);
        }
        reader.join().unwrap()
    });
    KernelRun {
        ops: rounds,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{AllHeavy, Asymmetric, HwSeqCst};

    #[test]
    fn dekker_excludes_under_every_pair() {
        assert_eq!(dekker(AllHeavy, 400).violations, 0);
        assert_eq!(dekker(Asymmetric, 400).violations, 0);
        assert_eq!(dekker(HwSeqCst, 400).violations, 0);
    }

    #[test]
    fn sb_forbidden_outcome_never_observed() {
        assert_eq!(sb_hammer(Asymmetric, 500).violations, 0);
        assert_eq!(sb_hammer(AllHeavy, 500).violations, 0);
    }

    #[test]
    fn mp_stale_read_never_observed() {
        assert_eq!(mp_hammer(Asymmetric, 500).violations, 0);
        assert_eq!(mp_hammer(HwSeqCst, 500).violations, 0);
    }

    #[test]
    fn peterson_excludes_under_every_pair() {
        assert_eq!(peterson(AllHeavy, 400).violations, 0);
        assert_eq!(peterson(Asymmetric, 400).violations, 0);
        assert_eq!(peterson(HwSeqCst, 400).violations, 0);
    }

    #[test]
    fn ops_accounting() {
        assert_eq!(dekker(HwSeqCst, 10).ops, 20);
        assert_eq!(sb_hammer(HwSeqCst, 10).ops, 10);
        assert_eq!(mp_hammer(HwSeqCst, 10).ops, 10);
        assert_eq!(peterson(HwSeqCst, 10).ops, 20);
    }
}
