//! Native kernels: the store→fence→load windows the simulator studies
//! (mutual exclusion, litmus shapes, deque churn, TLRW transactions),
//! run on real threads.
//!
//! Each kernel reports how many sequential-consistency (or
//! mutual-exclusion, or conservation) violations it observed; a sound
//! [`FencePair`] must report zero. The asymmetric assignments mirror the
//! simulated workloads: the hot thread's fence site is *critical*
//! (light), the peer's is *non-critical* (heavy).

use crate::deque::TheDeque;
use crate::pair::FencePair;
use crate::stm::TlrwStm;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Counts from one kernel run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelRun {
    /// Protocol operations completed (entries, rounds, …).
    pub ops: u64,
    /// Transaction aborts (TLRW kernels; 0 elsewhere).
    pub aborts: u64,
    /// Sequential-consistency / mutual-exclusion / conservation
    /// violations observed. Zero for every sound fence pair.
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
/// use asymfence_native::{dekker, FencePair};
/// assert_eq!(dekker(FencePair::ASYMMETRIC, 50).violations, 0);
/// ```
pub fn dekker(pair: FencePair, iters: u64) -> KernelRun {
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
        let entry_fence = if me == 0 {
            pair.critical
        } else {
            pair.noncritical
        };
        let mut violations = 0u64;
        for _ in 0..iters {
            s.flag[me].store(1, Ordering::Relaxed);
            entry_fence.issue();
            while s.flag[other].load(Ordering::Relaxed) == 1 {
                if s.turn.load(Ordering::Relaxed) != me as u32 {
                    s.flag[me].store(0, Ordering::Relaxed);
                    spin_wait(0, || s.turn.load(Ordering::Relaxed) == me as u32);
                    s.flag[me].store(1, Ordering::Relaxed);
                    entry_fence.issue();
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
        aborts: 0,
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
/// use asymfence_native::{sb_hammer, FencePair};
/// assert_eq!(sb_hammer(FencePair::ASYMMETRIC, 200).violations, 0);
/// ```
pub fn sb_hammer(pair: FencePair, rounds: u64) -> KernelRun {
    let x = AtomicU32::new(0);
    let y = AtomicU32::new(0);
    let arrived = [AtomicU64::new(0), AtomicU64::new(0)];
    let observed = [AtomicU32::new(0), AtomicU32::new(0)];
    let run = |me: usize| {
        let (mine, theirs, fence) = if me == 0 {
            (&x, &y, pair.critical)
        } else {
            (&y, &x, pair.noncritical)
        };
        let mut violations = 0u64;
        for round in 1..=rounds {
            mine.store(1, Ordering::Relaxed);
            fence.issue();
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
        aborts: 0,
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
/// use asymfence_native::{peterson, FencePair};
/// assert_eq!(peterson(FencePair::ASYMMETRIC, 50).violations, 0);
/// ```
pub fn peterson(pair: FencePair, iters: u64) -> KernelRun {
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
        let entry_fence = if me == 0 {
            pair.critical
        } else {
            pair.noncritical
        };
        let mut violations = 0u64;
        for _ in 0..iters {
            s.flag[me].store(1, Ordering::Relaxed);
            s.turn.store(other as u32, Ordering::Relaxed);
            // The inferred site: between the announce stores and the
            // flag[other] read that decides entry.
            entry_fence.issue();
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
        aborts: 0,
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
/// use asymfence_native::{mp_hammer, FencePair};
/// assert_eq!(mp_hammer(FencePair::ASYMMETRIC, 200).violations, 0);
/// ```
pub fn mp_hammer(pair: FencePair, rounds: u64) -> KernelRun {
    let data = AtomicU64::new(0);
    let flag = AtomicU64::new(0);
    let ack = AtomicU64::new(0);
    let violations = std::thread::scope(|sc| {
        let reader = sc.spawn(|| {
            let mut violations = 0u64;
            for round in 1..=rounds {
                spin_wait(0, || flag.load(Ordering::Relaxed) >= round);
                pair.critical.issue();
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
            pair.noncritical.issue();
            flag.store(round, Ordering::Relaxed);
            spin_wait(0, || ack.load(Ordering::Acquire) >= round);
        }
        reader.join().unwrap()
    });
    KernelRun {
        ops: rounds,
        aborts: 0,
        violations,
    }
}

/// THE deque churn: the owner pushes `tasks` ids in bursts of up to 8,
/// taking half of each burst back (the *critical* take window), while a
/// thief steals concurrently (the *non-critical* steal window). Every
/// task must come out exactly once; a lost or duplicated task is one
/// violation. Each task counts two ops (one enqueue, one dequeue).
///
/// ```
/// use asymfence_native::{deque_churn, FencePair};
/// assert_eq!(deque_churn(FencePair::ASYMMETRIC, 500).violations, 0);
/// ```
pub fn deque_churn(pair: FencePair, tasks: u64) -> KernelRun {
    let q = TheDeque::new(256, pair);
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
            let burst = (tasks - next + 1).min(8);
            let mut pushed = 0;
            for _ in 0..burst {
                if q.push(next) {
                    next += 1;
                    pushed += 1;
                } else {
                    break;
                }
            }
            for _ in 0..pushed / 2 {
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
    KernelRun {
        ops: 2 * tasks,
        aborts: 0,
        violations: u64::from(owner_sum + thief_sum != tasks * (tasks + 1) / 2),
    }
}

/// TLRW hot counter: two threads each commit `per_thread` increments of
/// one location (read barrier *critical*, write barrier and commit
/// *non-critical*). A lost update is one violation. Each commit counts
/// one op.
///
/// ```
/// use asymfence_native::{tlrw_counter, FencePair};
/// assert_eq!(tlrw_counter(FencePair::ASYMMETRIC, 100).violations, 0);
/// ```
pub fn tlrw_counter(pair: FencePair, per_thread: u64) -> KernelRun {
    let stm = TlrwStm::new(2, 2, pair);
    let aborts: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|tid| {
                let stm = &stm;
                s.spawn(move || {
                    let mut aborts = 0u64;
                    for _ in 0..per_thread {
                        let (_, a) = stm.run(tid, |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                        aborts += a;
                    }
                    aborts
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    KernelRun {
        ops: 2 * per_thread,
        aborts,
        violations: u64::from(stm.peek(0) != 2 * per_thread),
    }
}

/// TLRW read mix, the read-dominated ReadNWrite1 shape: two threads each
/// commit `per_thread` transactions of 8 reads across a 64-location
/// array and one write into the thread's own half (read-write conflicts
/// only). Each commit counts one op. Reports no violations:
/// conservation is [`tlrw_counter`]'s check.
///
/// ```
/// use asymfence_native::{tlrw_read_mix, FencePair};
/// assert_eq!(tlrw_read_mix(FencePair::ASYMMETRIC, 50).ops, 100);
/// ```
pub fn tlrw_read_mix(pair: FencePair, per_thread: u64) -> KernelRun {
    const LOCS: usize = 64;
    let stm = TlrwStm::new(LOCS, 2, pair);
    let aborts: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2usize)
            .map(|tid| {
                let stm = &stm;
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9 ^ (tid as u64) << 32 | 1;
                    let mut aborts = 0u64;
                    for _ in 0..per_thread {
                        let (_, a) = stm.run(tid, |tx| {
                            let mut acc = 0u64;
                            for _ in 0..8 {
                                rng ^= rng << 13;
                                rng ^= rng >> 7;
                                rng ^= rng << 17;
                                acc = acc.wrapping_add(tx.read(rng as usize % LOCS)?);
                            }
                            let dst = LOCS / 2 * tid + (rng as usize % (LOCS / 2));
                            tx.write(dst, acc)
                        });
                        aborts += a;
                    }
                    aborts
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    KernelRun {
        ops: 2 * per_thread,
        aborts,
        violations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dekker_excludes_under_every_pair() {
        for pair in FencePair::ALL {
            assert_eq!(dekker(pair, 400).violations, 0, "{}", pair.name());
        }
    }

    #[test]
    fn sb_forbidden_outcome_never_observed() {
        assert_eq!(sb_hammer(FencePair::ASYMMETRIC, 500).violations, 0);
        assert_eq!(sb_hammer(FencePair::ALL_HEAVY, 500).violations, 0);
    }

    #[test]
    fn mp_stale_read_never_observed() {
        assert_eq!(mp_hammer(FencePair::ASYMMETRIC, 500).violations, 0);
        assert_eq!(mp_hammer(FencePair::SEQCST, 500).violations, 0);
    }

    #[test]
    fn peterson_excludes_under_every_pair() {
        for pair in FencePair::ALL {
            assert_eq!(peterson(pair, 400).violations, 0, "{}", pair.name());
        }
    }

    #[test]
    fn ops_accounting() {
        let p = FencePair::SEQCST;
        assert_eq!(dekker(p, 10).ops, 20);
        assert_eq!(sb_hammer(p, 10).ops, 10);
        assert_eq!(mp_hammer(p, 10).ops, 10);
        assert_eq!(peterson(p, 10).ops, 20);
        assert_eq!(deque_churn(p, 10).ops, 20);
        assert_eq!(tlrw_counter(p, 10).ops, 20);
        assert_eq!(tlrw_read_mix(p, 10).ops, 20);
    }
}
