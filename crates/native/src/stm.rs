//! Native port of the TLRW (read/write-lock) STM from
//! `asymfence-workloads`' simulated version, fenced by a [`FencePair`].
//!
//! TLRW's read barrier is the asymmetric hot path: announce the reader
//! flag, *critical* fence, check the writer word. The write barrier is
//! the rare side: acquire the writer word, *non-critical* fence, scan
//! every reader flag. Under [`FencePair::ASYMMETRIC`] with the
//! membarrier backend a read-only transaction therefore executes zero
//! hardware fences — the writer's membarrier is what makes the reader's
//! store→load window sound (the paper's motivating example).
//!
//! Writes are buffered in the transaction and applied at commit (lazy
//! versioning), so an abort releases locks without an undo log.

use crate::pair::FencePair;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Spins allowed on a contended lock word before giving up, mirroring
/// the simulated port's `BARRIER_PATIENCE`.
const BARRIER_PATIENCE: u32 = 3;

/// A conflicting lock word was still held after the patience window of
/// re-checks; the transaction must abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict;

struct TVar {
    /// One visible-reader flag per thread (TLRW's read-lock bytes).
    readers: Box<[AtomicU32]>,
    /// Owning writer id + 1, or 0 when write-unlocked.
    writer: AtomicU32,
    data: AtomicU64,
}

/// A fixed array of transactional `u64` locations guarded by per-thread
/// read flags and a writer word, TLRW-style.
///
/// ```
/// use asymfence_native::{FencePair, TlrwStm};
/// let stm = TlrwStm::new(4, 2, FencePair::ASYMMETRIC);
/// let (sum, _aborts) = stm.run(0, |tx| {
///     let a = tx.read(0)?;
///     tx.write(1, a + 1)?;
///     tx.read(1)
/// });
/// assert_eq!(sum, 1);
/// assert_eq!(stm.peek(1), 1);
/// ```
pub struct TlrwStm {
    locs: Box<[TVar]>,
    threads: usize,
    pair: FencePair,
}

impl TlrwStm {
    /// `locations` zero-initialized cells shared by `threads` threads
    /// (thread ids `0..threads`).
    ///
    /// # Panics
    ///
    /// Panics when either count is 0.
    pub fn new(locations: usize, threads: usize, pair: FencePair) -> Self {
        assert!(locations > 0 && threads > 0);
        TlrwStm {
            locs: (0..locations)
                .map(|_| TVar {
                    readers: (0..threads).map(|_| AtomicU32::new(0)).collect(),
                    writer: AtomicU32::new(0),
                    data: AtomicU64::new(0),
                })
                .collect(),
            threads,
            pair,
        }
    }

    /// Number of transactional locations.
    pub fn locations(&self) -> usize {
        self.locs.len()
    }

    /// Non-transactional read for checking results between phases.
    pub fn peek(&self, loc: usize) -> u64 {
        self.locs[loc].data.load(Ordering::Acquire)
    }

    /// Starts a transaction for thread `tid`. Prefer [`run`](Self::run),
    /// which retries conflicts with backoff.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is out of range.
    pub fn begin(&self, tid: usize) -> Tx<'_> {
        assert!(tid < self.threads, "thread id out of range");
        Tx {
            stm: self,
            tid,
            read_set: Vec::new(),
            write_set: Vec::new(),
        }
    }

    /// Runs `body` as a transaction, retrying on [`Conflict`] with
    /// exponential spin backoff. Returns the committed result and the
    /// number of aborted attempts.
    pub fn run<R>(
        &self,
        tid: usize,
        mut body: impl FnMut(&mut Tx<'_>) -> Result<R, Conflict>,
    ) -> (R, u64) {
        let mut aborts = 0u64;
        loop {
            let mut tx = self.begin(tid);
            match body(&mut tx) {
                Ok(r) => {
                    tx.commit();
                    return (r, aborts);
                }
                Err(Conflict) => {
                    drop(tx); // releases every held lock
                    aborts += 1;
                    for _ in 0..(1u32 << aborts.min(6)) * (tid as u32 + 1) {
                        std::hint::spin_loop();
                    }
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// An in-flight transaction; dropping it without
/// [`commit`](Tx::commit) aborts (releases all locks, applies nothing).
pub struct Tx<'s> {
    stm: &'s TlrwStm,
    tid: usize,
    read_set: Vec<usize>,
    write_set: Vec<(usize, u64)>,
}

impl Tx<'_> {
    fn wid(&self) -> u32 {
        self.tid as u32 + 1
    }

    /// Transactional read. The TLRW read barrier: publish this thread's
    /// reader flag, *critical* fence, then check the writer word (a few
    /// patience re-checks before conceding a [`Conflict`]).
    pub fn read(&mut self, loc: usize) -> Result<u64, Conflict> {
        if let Some(&(_, v)) = self.write_set.iter().rev().find(|&&(l, _)| l == loc) {
            return Ok(v);
        }
        let cell = &self.stm.locs[loc];
        if self.read_set.contains(&loc) {
            return Ok(cell.data.load(Ordering::Relaxed));
        }
        cell.readers[self.tid].store(1, Ordering::Relaxed);
        self.stm.pair.critical.issue();
        for _ in 0..=BARRIER_PATIENCE {
            // Acquire pairs with the committing writer's Release of the
            // writer word, so the data load below can't be hoisted past
            // this check (the fence pair only covers the st->ld window).
            let w = cell.writer.load(Ordering::Acquire);
            if w == 0 || w == self.wid() {
                self.read_set.push(loc);
                return Ok(cell.data.load(Ordering::Relaxed));
            }
            std::hint::spin_loop();
        }
        cell.readers[self.tid].store(0, Ordering::Relaxed);
        Err(Conflict)
    }

    /// Transactional write (buffered until commit). The TLRW write
    /// barrier: acquire the writer word, *non-critical* fence, then scan
    /// every other thread's reader flag; any survivor past the patience
    /// window is a [`Conflict`].
    pub fn write(&mut self, loc: usize, value: u64) -> Result<(), Conflict> {
        if self.write_set.iter().any(|&(l, _)| l == loc) {
            self.write_set.push((loc, value));
            return Ok(());
        }
        let cell = &self.stm.locs[loc];
        let mut acquired = false;
        for _ in 0..=BARRIER_PATIENCE {
            match cell
                .writer
                .compare_exchange(0, self.wid(), Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    acquired = true;
                    break;
                }
                Err(w) if w == self.wid() => {
                    acquired = true;
                    break;
                }
                Err(_) => std::hint::spin_loop(),
            }
        }
        if !acquired {
            return Err(Conflict);
        }
        self.stm.pair.noncritical.issue();
        // Our own reader flag (an upgrade) doesn't block us.
        for (tid, flag) in cell.readers.iter().enumerate() {
            if tid == self.tid {
                continue;
            }
            let mut patience = 0;
            while flag.load(Ordering::Relaxed) != 0 {
                patience += 1;
                if patience > BARRIER_PATIENCE {
                    cell.writer.store(0, Ordering::Release);
                    return Err(Conflict);
                }
                std::hint::spin_loop();
            }
        }
        self.write_set.push((loc, value));
        Ok(())
    }

    /// Commits: *non-critical* fence, apply the buffered writes, then
    /// release every lock (writes become visible no later than the
    /// releases).
    pub fn commit(mut self) {
        self.stm.pair.noncritical.issue();
        for &(loc, v) in &self.write_set {
            self.stm.locs[loc].data.store(v, Ordering::Relaxed);
        }
        self.release();
    }

    fn release(&mut self) {
        for &(loc, _) in &self.write_set {
            let cell = &self.stm.locs[loc];
            if cell.writer.load(Ordering::Relaxed) == self.wid() {
                cell.writer.store(0, Ordering::Release);
            }
        }
        for &loc in &self.read_set {
            self.stm.locs[loc].readers[self.tid].store(0, Ordering::Release);
        }
        self.write_set.clear();
        self.read_set.clear();
    }
}

impl Drop for Tx<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::tlrw_counter;

    #[test]
    fn read_your_own_write_and_commit() {
        let stm = TlrwStm::new(3, 2, FencePair::ASYMMETRIC);
        let mut tx = stm.begin(0);
        tx.write(2, 9).unwrap();
        assert_eq!(tx.read(2).unwrap(), 9);
        assert_eq!(stm.peek(2), 0); // lazy: nothing visible yet
        tx.commit();
        assert_eq!(stm.peek(2), 9);
    }

    #[test]
    fn abort_on_drop_releases_locks() {
        let stm = TlrwStm::new(2, 2, FencePair::ALL_HEAVY);
        {
            let mut tx = stm.begin(0);
            tx.write(0, 5).unwrap();
            tx.read(1).unwrap();
        } // dropped uncommitted
        assert_eq!(stm.peek(0), 0);
        let mut tx = stm.begin(1);
        assert_eq!(tx.read(0).unwrap(), 0); // not blocked by thread 0
        tx.write(1, 1).unwrap();
        tx.commit();
    }

    #[test]
    fn writer_blocks_reader_into_conflict() {
        let stm = TlrwStm::new(1, 2, FencePair::SEQCST);
        let mut writer = stm.begin(0);
        writer.write(0, 1).unwrap();
        let mut reader = stm.begin(1);
        assert_eq!(reader.read(0), Err(Conflict));
        writer.commit();
        assert_eq!(reader.read(0), Ok(1));
    }

    /// Concurrent increments of one hot counter must not lose updates.
    #[test]
    fn counter_stress_all_pairs() {
        for pair in FencePair::ALL {
            assert_eq!(tlrw_counter(pair, 300).violations, 0, "{}", pair.name());
        }
    }
}
