//! The TLRW software transactional memory (Dice & Shavit, SPAA'10) as
//! shipped in RSTM — the paper's second workload substrate (§4.2,
//! Figure 5b).
//!
//! Every shared location has a read/write lock: an array of per-thread
//! reader flags plus a writer field. A reading transaction *stores its
//! reader flag, fences, then loads the writer field*; a writing
//! transaction *acquires the writer field, fences, then loads every
//! reader flag*. The two fences form the asymmetric group: reads are
//! ~3.5x more frequent than writes in the paper's workloads, so the read
//! fence is `Critical` (weak under WS+/SW+) and the write fence
//! `NonCritical` (strong). Like RSTM's ByteLock, reader flags of one lock
//! are packed together, so flag stores miss and make conventional fences
//! expensive.
//!
//! Transactions are eager-locking, eager-versioning; conflicts abort the
//! transaction, release its locks, back off and retry.
//!
//! **Native port:** `crates/native` ships the same lock protocol on
//! real threads as `asymfence_native::TlrwStm` (eager locking, lazy
//! versioning so aborts need no undo log), fenced by a
//! `FencePair`: the read barrier issues the pair's critical fence, the
//! write barrier and commit the non-critical one. `native_bench
//! --crossval` compares its wall-clock ranking against this simulated
//! version's cycle ranking.

use asymfence::prelude::{Addr, FenceRole, RmwKind, ThreadProgram};
use asymfence_common::rng::SimRng;

use crate::layout::{AddressAllocator, Scratch};
use crate::ops::{program, Ops, Steps, Tag};

/// How a transaction class picks its locations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Uniformly random locations (hash tables).
    Random,
    /// A consecutive run of locations starting at a random point (lists).
    Chain,
    /// A root-to-leaf path: indices i, i/2, i/4, … (trees).
    TreePath,
    /// A single shared location (counters).
    Hotspot,
}

/// One weighted transaction class (e.g. "lookup": many reads, no write).
#[derive(Clone, Copy, Debug)]
pub struct TxClass {
    /// Relative frequency.
    pub weight: u64,
    /// Reads per transaction, inclusive range.
    pub reads: (u64, u64),
    /// Writes per transaction, inclusive range (write locations are drawn
    /// from the read set first — read-modify-write — then fresh ones).
    pub writes: (u64, u64),
}

/// A workload profile over the TLRW substrate.
#[derive(Clone, Debug)]
pub struct TxProfile {
    /// Display name.
    pub name: &'static str,
    /// Number of shared locations.
    pub locations: u64,
    /// Location-selection pattern.
    pub pattern: AccessPattern,
    /// Transaction classes and weights.
    pub classes: Vec<TxClass>,
    /// Compute between transactions, inclusive range.
    pub inter_tx_compute: (u64, u64),
    /// Compute between in-transaction operations, inclusive range.
    pub intra_op_compute: (u64, u64),
}

/// Addresses of the TLRW metadata and data.
#[derive(Clone, Debug)]
pub struct TlrwLayout {
    base: Addr,
    threads: usize,
    locations: u64,
    chunk_bytes: u64,
    logs: Vec<Addr>,
    log_bytes: u64,
}

impl TlrwLayout {
    /// Lays out `locations` lock objects for `threads` threads. Each
    /// object is `[readers[threads] | writer | data]`, line-aligned —
    /// reader flags intentionally share lines, like ByteLock. Objects
    /// are spread across directory-interleave chunks (general-purpose
    /// allocations scatter over the address space), with a varied
    /// intra-chunk offset so they do not alias in the L1.
    pub fn new(alloc: &mut AddressAllocator, threads: usize, locations: u64) -> Self {
        Self::with_chunk(alloc, threads, locations, 4096 * 32)
    }

    /// Like [`TlrwLayout::new`], with an explicit chunk size (pass the
    /// machine's `interleave_bytes`).
    pub fn with_chunk(
        alloc: &mut AddressAllocator,
        threads: usize,
        locations: u64,
        chunk_bytes: u64,
    ) -> Self {
        alloc.align_to(chunk_bytes);
        let base = alloc.watermark();
        // Reserve the whole strided range.
        let _ = alloc.region(locations * chunk_bytes);
        // Per-thread read-set/undo-log buffers (RSTM bookkeeping): one
        // chunk-aligned region per thread, larger than the L1 so the
        // streaming log stores miss — exactly the "write buffer full of
        // misses" that makes conventional fences expensive.
        let log_bytes = 64 * 1024;
        let logs = (0..threads)
            .map(|_| {
                alloc.align_to(chunk_bytes);
                alloc.region(log_bytes)
            })
            .collect();
        TlrwLayout {
            base,
            threads,
            locations,
            chunk_bytes,
            logs,
            log_bytes,
        }
    }

    /// Per-thread log-buffer base and size.
    pub fn log_region(&self, tid: usize) -> (Addr, u64) {
        (self.logs[tid], self.log_bytes)
    }

    fn obj(&self, loc: u64) -> Addr {
        debug_assert!(loc < self.locations);
        // One chunk per object, plus a per-object intra-chunk offset so
        // objects use different L1 sets.
        let obj_bytes = ((self.threads as u64 + 2) * 8).next_multiple_of(32);
        let max_slots = (self.chunk_bytes / obj_bytes).max(1);
        let offset = (loc.wrapping_mul(0x9E37_79B9) % max_slots) * obj_bytes;
        self.base.offset(loc * self.chunk_bytes + offset)
    }

    /// Reader flag of `tid` for location `loc`.
    pub fn reader_flag(&self, loc: u64, tid: usize) -> Addr {
        self.obj(loc).offset(8 * tid as u64)
    }

    /// Directory chunk size used by this layout.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Writer field for `loc`.
    pub fn writer(&self, loc: u64) -> Addr {
        self.obj(loc).offset(8 * self.threads as u64)
    }

    /// Data word for `loc`.
    pub fn data(&self, loc: u64) -> Addr {
        self.obj(loc).offset(8 * (self.threads as u64 + 1))
    }

    /// Number of locations.
    pub fn locations(&self) -> u64 {
        self.locations
    }
}

/// A transaction: the ordered list of locations to read and write.
#[derive(Clone, Debug, Default)]
pub struct TxSpec {
    /// Locations read.
    pub reads: Vec<u64>,
    /// Locations written (after the reads).
    pub writes: Vec<u64>,
}

impl TxProfile {
    /// Draws one transaction.
    pub fn generate(&self, rng: &mut SimRng) -> TxSpec {
        let weights: Vec<u64> = self.classes.iter().map(|c| c.weight).collect();
        let class = self.classes[rng.weighted(&weights)];
        let n_reads = rng.range(class.reads.0, class.reads.1);
        let n_writes = rng.range(class.writes.0, class.writes.1);
        let mut reads = Vec::with_capacity(n_reads as usize);
        match self.pattern {
            AccessPattern::Random => {
                for _ in 0..n_reads {
                    reads.push(rng.below(self.locations));
                }
            }
            AccessPattern::Chain => {
                let start = rng.below(self.locations);
                for i in 0..n_reads {
                    reads.push((start + i) % self.locations);
                }
            }
            AccessPattern::TreePath => {
                let mut node = self.locations / 2 + rng.below(self.locations / 2 + 1);
                for _ in 0..n_reads {
                    reads.push(node % self.locations);
                    if node <= 1 {
                        break;
                    }
                    node /= 2;
                }
            }
            AccessPattern::Hotspot => {
                // Every read hits the hot location; after `dedup` that is
                // a single entry, so push it once.
                if n_reads > 0 {
                    reads.push(0);
                }
            }
        }
        reads.dedup();
        // Writes target the front of the read set (the leaf of a tree
        // path, the insertion point of a chain — real structures update
        // where they landed, not the shared root), then fresh locations.
        let mut writes = Vec::with_capacity(n_writes as usize);
        for i in 0..n_writes {
            if (i as usize) < reads.len() {
                writes.push(reads[i as usize]);
            } else if self.pattern == AccessPattern::Hotspot {
                writes.push(0);
            } else {
                writes.push(rng.below(self.locations));
            }
        }
        writes.dedup();
        TxSpec { reads, writes }
    }
}

/// Re-checks a barrier performs before giving up (RSTM's ByteLock spins
/// briefly on a held lock before aborting).
const BARRIER_PATIENCE: u32 = 3;

#[derive(Clone, Debug)]
enum TxState {
    Begin,
    NextOp,
    ReadWaitWriter {
        loc: u64,
        tag: Tag,
        patience: u32,
    },
    WriteWaitCas {
        loc: u64,
        tag: Tag,
        patience: u32,
    },
    WriteWaitReaders {
        loc: u64,
        tags: Vec<Tag>,
        patience: u32,
    },
    Commit,
    Abort,
    Finished,
}

/// A thread running TLRW transactions drawn from a [`TxProfile`].
#[derive(Clone)]
pub struct TlrwProgram {
    tid: usize,
    layout: TlrwLayout,
    profile: TxProfile,
    rng: SimRng,
    log: Scratch,
    ops: Ops,
    state: TxState,
    tx: TxSpec,
    op_idx: usize,
    read_locked: Vec<u64>,
    write_locked: Vec<u64>,
    attempt: u32,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transaction attempts.
    pub aborts: u64,
    /// Stop after this many commits (`None` = run forever, for throughput
    /// measurement).
    pub target_commits: Option<u64>,
}

impl TlrwProgram {
    /// Creates a transaction-running thread.
    pub fn new(
        tid: usize,
        layout: TlrwLayout,
        profile: TxProfile,
        rng: SimRng,
        target_commits: Option<u64>,
    ) -> Self {
        let (log_base, log_bytes) = layout.log_region(tid);
        let log = Scratch::sequential(log_base, log_bytes, 8);
        TlrwProgram {
            tid,
            layout,
            profile,
            rng,
            log,
            ops: Ops::new(),
            state: TxState::Begin,
            tx: TxSpec::default(),
            op_idx: 0,
            read_locked: Vec::new(),
            write_locked: Vec::new(),
            attempt: 0,
            commits: 0,
            aborts: 0,
            target_commits,
        }
    }

    /// Writer-field value for this thread (0 means free).
    fn wid(&self) -> u64 {
        self.tid as u64 + 1
    }

    fn tx_len(&self) -> usize {
        self.tx.reads.len() + self.tx.writes.len()
    }

    fn intra_compute(&mut self) {
        let (lo, hi) = self.profile.intra_op_compute;
        if hi > 0 {
            let c = self.rng.range(lo, hi);
            self.ops.compute(c);
        }
    }
}

impl Steps for TlrwProgram {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, TxState::Finished) {
            TxState::Begin => {
                if let Some(t) = self.target_commits {
                    if self.commits >= t {
                        self.state = TxState::Finished;
                        return false;
                    }
                }
                let (lo, hi) = self.profile.inter_tx_compute;
                if hi > 0 {
                    let c = self.rng.range(lo, hi);
                    self.ops.compute(c);
                }
                self.tx = self.profile.generate(&mut self.rng);
                self.op_idx = 0;
                self.state = TxState::NextOp;
                true
            }
            TxState::NextOp => {
                if self.op_idx >= self.tx_len() {
                    self.state = TxState::Commit;
                    return true;
                }
                let idx = self.op_idx;
                self.op_idx += 1;
                if idx < self.tx.reads.len() {
                    let loc = self.tx.reads[idx];
                    if self.read_locked.contains(&loc) || self.write_locked.contains(&loc) {
                        self.ops.load_untagged(self.layout.data(loc));
                        self.state = TxState::NextOp;
                        return true;
                    }
                    // Read barrier (Figure 5b): flag, fence, check writer.
                    self.ops.store(self.layout.reader_flag(loc, self.tid), 1);
                    self.ops.fence(FenceRole::Critical);
                    let tag = self.ops.load(self.layout.writer(loc));
                    self.state = TxState::ReadWaitWriter {
                        loc,
                        tag,
                        patience: BARRIER_PATIENCE,
                    };
                } else {
                    let loc = self.tx.writes[idx - self.tx.reads.len()];
                    if self.write_locked.contains(&loc) {
                        self.ops.store(self.layout.data(loc), self.rng.next_u64());
                        self.state = TxState::NextOp;
                        return true;
                    }
                    // Write barrier: acquire writer, fence, check readers.
                    let tag = self.ops.rmw(
                        self.layout.writer(loc),
                        RmwKind::Cas {
                            expect: 0,
                            new: self.wid(),
                        },
                    );
                    self.state = TxState::WriteWaitCas {
                        loc,
                        tag,
                        patience: BARRIER_PATIENCE,
                    };
                }
                true
            }
            TxState::ReadWaitWriter { loc, tag, patience } => {
                let w = self.ops.take(tag);
                if w != 0 && w != self.wid() {
                    if patience > 0 {
                        // Spin briefly: the writer may be about to release.
                        self.ops.compute(24 + self.rng.below(16));
                        let tag = self.ops.load(self.layout.writer(loc));
                        self.state = TxState::ReadWaitWriter {
                            loc,
                            tag,
                            patience: patience - 1,
                        };
                        return true;
                    }
                    self.ops.store(self.layout.reader_flag(loc, self.tid), 0);
                    self.state = TxState::Abort;
                    return true;
                }
                self.read_locked.push(loc);
                self.ops.load_untagged(self.layout.data(loc));
                // Read-set bookkeeping entry (RSTM logs every read).
                let a = self.log.next();
                self.ops.store(a, loc);
                self.intra_compute();
                self.state = TxState::NextOp;
                true
            }
            TxState::WriteWaitCas { loc, tag, patience } => {
                let old = self.ops.take(tag);
                if old != 0 && old != self.wid() {
                    if patience > 0 {
                        self.ops.compute(24 + self.rng.below(16));
                        let tag = self.ops.rmw(
                            self.layout.writer(loc),
                            RmwKind::Cas {
                                expect: 0,
                                new: self.wid(),
                            },
                        );
                        self.state = TxState::WriteWaitCas {
                            loc,
                            tag,
                            patience: patience - 1,
                        };
                        return true;
                    }
                    self.state = TxState::Abort;
                    return true;
                }
                self.ops.fence(FenceRole::NonCritical);
                let tags: Vec<Tag> = (0..self.layout.threads)
                    .filter(|&j| j != self.tid)
                    .map(|j| self.ops.load(self.layout.reader_flag(loc, j)))
                    .collect();
                self.state = TxState::WriteWaitReaders {
                    loc,
                    tags,
                    patience: BARRIER_PATIENCE,
                };
                true
            }
            TxState::WriteWaitReaders {
                loc,
                tags,
                patience,
            } => {
                let mut busy = false;
                for t in &tags {
                    if self.ops.take(*t) != 0 {
                        busy = true;
                    }
                }
                if busy {
                    if patience > 0 {
                        // Readers are short; wait them out briefly.
                        self.ops.compute(24 + self.rng.below(16));
                        let tags: Vec<Tag> = (0..self.layout.threads)
                            .filter(|&j| j != self.tid)
                            .map(|j| self.ops.load(self.layout.reader_flag(loc, j)))
                            .collect();
                        self.state = TxState::WriteWaitReaders {
                            loc,
                            tags,
                            patience: patience - 1,
                        };
                        return true;
                    }
                    self.ops.store(self.layout.writer(loc), 0);
                    self.state = TxState::Abort;
                    return true;
                }
                self.write_locked.push(loc);
                // Undo-log entry (eager versioning logs address + old
                // value), then the in-place data write.
                let a = self.log.next();
                self.ops.store(a, loc);
                let b = self.log.next();
                self.ops.store(b, self.rng.next_u64());
                self.ops.store(self.layout.data(loc), self.rng.next_u64());
                self.intra_compute();
                self.state = TxState::NextOp;
                true
            }
            TxState::Commit => {
                // Commit fence, then release all locks.
                self.ops.fence(FenceRole::NonCritical);
                for loc in self.read_locked.drain(..) {
                    self.ops.store(self.layout.reader_flag(loc, self.tid), 0);
                }
                for loc in self.write_locked.drain(..) {
                    self.ops.store(self.layout.writer(loc), 0);
                }
                self.commits += 1;
                self.attempt = 0;
                self.state = TxState::Begin;
                true
            }
            TxState::Abort => {
                self.aborts += 1;
                for loc in self.read_locked.drain(..) {
                    self.ops.store(self.layout.reader_flag(loc, self.tid), 0);
                }
                for loc in self.write_locked.drain(..) {
                    self.ops.store(self.layout.writer(loc), 0);
                }
                // Bounded exponential backoff with per-thread jitter.
                let exp = self.attempt.min(6);
                self.attempt += 1;
                let backoff = (48u64 << exp) + self.rng.below(64);
                self.ops.compute(backoff);
                self.state = TxState::Begin;
                true
            }
            TxState::Finished => false,
        }
    }
}

/// Installs a TLRW workload on a machine: builds the layout, warms the
/// lock objects and per-thread log buffers into the L2 (the program
/// initialized them before the measured region), and adds one thread per
/// core.
pub fn install(
    m: &mut asymfence::Machine,
    profile: &TxProfile,
    seed: u64,
    target_commits: Option<u64>,
) {
    let cfg = m.config().clone();
    let (progs, layout) = build(profile, &cfg, seed, target_commits);
    // Warm every lock object's lines and the log buffers.
    let obj_words = cfg.num_cores as u64 + 2;
    for loc in 0..profile.locations {
        let base = layout.reader_flag(loc, 0);
        let mut a = base;
        while a.raw() < base.raw() + obj_words * 8 {
            m.warm_memory(a, 0);
            a = a.offset(cfg.line_bytes);
        }
    }
    for tid in 0..cfg.num_cores {
        let (base, bytes) = layout.log_region(tid);
        let mut a = base;
        while a.raw() < base.raw() + bytes {
            m.warm_memory(a, 0);
            a = a.offset(cfg.line_bytes);
        }
    }
    for p in progs {
        m.add_thread(p);
    }
}

fn build(
    profile: &TxProfile,
    cfg: &asymfence_common::config::MachineConfig,
    seed: u64,
    target_commits: Option<u64>,
) -> (Vec<Box<dyn ThreadProgram>>, TlrwLayout) {
    let threads = cfg.num_cores;
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    let layout = TlrwLayout::with_chunk(
        &mut alloc,
        threads,
        profile.locations,
        cfg.interleave_bytes(),
    );
    let mut root = SimRng::new(seed ^ 0x7152_57a1);
    let progs = (0..threads)
        .map(|tid| {
            program(TlrwProgram::new(
                tid,
                layout.clone(),
                profile.clone(),
                root.fork(tid as u64),
                target_commits,
            ))
        })
        .collect();
    (progs, layout)
}

/// Builds one [`TlrwProgram`] per core for a profile.
pub fn programs(
    profile: &TxProfile,
    cfg: &asymfence_common::config::MachineConfig,
    seed: u64,
    target_commits: Option<u64>,
) -> Vec<Box<dyn ThreadProgram>> {
    build(profile, cfg, seed, target_commits).0
}

/// Sums `(commits, aborts)` across the machine's TLRW threads.
pub fn tally(m: &asymfence::Machine) -> (u64, u64) {
    m.threads_of::<TlrwProgram>()
        .fold((0, 0), |(x, y), p| (x + p.commits, y + p.aborts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    fn tiny_profile() -> TxProfile {
        TxProfile {
            name: "tiny",
            locations: 16,
            pattern: AccessPattern::Random,
            classes: vec![
                TxClass {
                    weight: 2,
                    reads: (2, 4),
                    writes: (0, 0),
                },
                TxClass {
                    weight: 1,
                    reads: (1, 2),
                    writes: (1, 2),
                },
            ],
            inter_tx_compute: (40, 120),
            intra_op_compute: (10, 30),
        }
    }

    #[test]
    fn layout_keeps_objects_line_aligned_and_disjoint() {
        let mut alloc = AddressAllocator::new(32, 8);
        let l = TlrwLayout::new(&mut alloc, 8, 4);
        for loc in 0..4 {
            assert_eq!(l.obj(loc).raw() % 32, 0);
            let w = l.writer(loc);
            let d = l.data(loc);
            assert_ne!(w, d);
            for t in 0..8 {
                assert_ne!(l.reader_flag(loc, t), w);
                assert_ne!(l.reader_flag(loc, t), d);
            }
        }
        assert!(l.obj(1).raw() >= l.data(0).raw() + 8, "objects disjoint");
    }

    #[test]
    fn reader_flags_share_lines_like_bytelock() {
        let mut alloc = AddressAllocator::new(32, 8);
        let l = TlrwLayout::new(&mut alloc, 8, 1);
        let l0 = l.reader_flag(0, 0).raw() / 32;
        let l3 = l.reader_flag(0, 3).raw() / 32;
        assert_eq!(l0, l3, "four 8-byte flags fit one 32-byte line");
    }

    #[test]
    fn generate_respects_pattern() {
        let p = TxProfile {
            pattern: AccessPattern::Chain,
            ..tiny_profile()
        };
        let mut rng = SimRng::new(5);
        for _ in 0..50 {
            let tx = p.generate(&mut rng);
            for w in tx.reads.windows(2) {
                assert_eq!((w[0] + 1) % p.locations, w[1], "chain is consecutive");
            }
        }
    }

    #[test]
    fn transactions_commit_under_every_design() {
        for design in [
            FenceDesign::SPlus,
            FenceDesign::WsPlus,
            FenceDesign::SwPlus,
            FenceDesign::WPlus,
            FenceDesign::Wee,
        ] {
            let cfg = MachineConfig::builder()
                .cores(4)
                .fence_design(design)
                .build();
            let mut m = Machine::new(&cfg);
            for p in programs(&tiny_profile(), &cfg, 99, Some(20)) {
                m.add_thread(p);
            }
            let outcome = m.run(50_000_000);
            assert_eq!(outcome, RunOutcome::Finished, "{design}");
            let (commits, _) = tally(&m);
            assert_eq!(commits, 4 * 20, "{design}: every thread hit its target");
        }
    }

    #[test]
    fn contended_hotspot_aborts_but_makes_progress() {
        let p = TxProfile {
            name: "hot",
            locations: 4,
            pattern: AccessPattern::Hotspot,
            classes: vec![TxClass {
                weight: 1,
                reads: (1, 1),
                writes: (1, 1),
            }],
            inter_tx_compute: (10, 30),
            intra_op_compute: (0, 0),
        };
        let cfg = MachineConfig::builder().cores(4).build();
        let mut m = Machine::new(&cfg);
        for prog in programs(&p, &cfg, 3, Some(10)) {
            m.add_thread(prog);
        }
        assert_eq!(m.run(100_000_000), RunOutcome::Finished);
        let (commits, aborts) = tally(&m);
        assert_eq!(commits, 40);
        assert!(aborts > 0, "a single hot location must cause conflicts");
    }

    #[test]
    fn throughput_mode_runs_until_cycle_limit() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        for p in programs(&tiny_profile(), &cfg, 1, None) {
            m.add_thread(p);
        }
        assert_eq!(m.run(300_000), RunOutcome::CycleLimit);
        let (commits, _) = tally(&m);
        assert!(commits > 0, "some transactions committed in the window");
    }

    #[test]
    fn read_fence_is_critical_write_fence_is_strong_under_ws_plus() {
        let cfg = MachineConfig::builder()
            .cores(4)
            .fence_design(FenceDesign::WsPlus)
            .build();
        let mut m = Machine::new(&cfg);
        for p in programs(&tiny_profile(), &cfg, 7, Some(30)) {
            m.add_thread(p);
        }
        assert_eq!(m.run(100_000_000), RunOutcome::Finished);
        let s = m.stats().aggregate();
        assert!(s.wf_count > 0, "read barriers used weak fences");
        assert!(s.sf_count > 0, "write/commit barriers used strong fences");
        assert!(
            s.wf_count > s.sf_count / 4,
            "reads are the common case: wf={} sf={}",
            s.wf_count,
            s.sf_count
        );
    }
}
