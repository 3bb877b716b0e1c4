//! Cilk-style work-stealing workloads (the paper's *CilkApps* group).
//!
//! Each worker owns a THE deque ([`crate::wsq`]) and runs the classic
//! loop: take a task from its own tail; on an empty deque, steal from a
//! random victim's head. Tasks form a deterministic spawn tree whose
//! shape and per-task work are derived from the task id by hashing, so an
//! execution is reproducible regardless of which thread runs which task.
//!
//! The application *kernels* (cholesky's factorization, fft's butterflies,
//! …) are replaced by calibrated profiles — per-task compute length and a
//! stream of store misses through a larger-than-L1 scratch region — which
//! reproduces the paper's fence economics: at `take()`'s fence the write
//! buffer holds several missed stores, so a conventional fence stalls for
//! on the order of the paper's measured 200 cycles while a weak fence
//! hides the drain. See DESIGN.md for the substitution rationale.

use asymfence::prelude::{Addr, ThreadProgram};
use asymfence_common::rng::{hash64, SimRng};

use crate::layout::{AddressAllocator, Scratch};
use crate::ops::{program, Ops, Steps, Tag};
use crate::wsq::{push, DequeLayout, Steal, StealOutcome, Take, TakeOutcome};

/// The ten applications of the paper's CilkApps group, as spawn-tree +
/// task-work profiles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum CilkApp {
    Bucket,
    Cholesky,
    Cilksort,
    Fft,
    Fib,
    Heat,
    Knapsack,
    Lu,
    Matmul,
    Plu,
}

impl CilkApp {
    /// All apps, in the paper's Figure 8 order.
    pub const ALL: [CilkApp; 10] = [
        CilkApp::Bucket,
        CilkApp::Cholesky,
        CilkApp::Cilksort,
        CilkApp::Fft,
        CilkApp::Fib,
        CilkApp::Heat,
        CilkApp::Knapsack,
        CilkApp::Lu,
        CilkApp::Matmul,
        CilkApp::Plu,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CilkApp::Bucket => "bucket",
            CilkApp::Cholesky => "cholesky",
            CilkApp::Cilksort => "cilksort",
            CilkApp::Fft => "fft",
            CilkApp::Fib => "fib",
            CilkApp::Heat => "heat",
            CilkApp::Knapsack => "knapsack",
            CilkApp::Lu => "lu",
            CilkApp::Matmul => "matmul",
            CilkApp::Plu => "plu",
        }
    }

    /// Profile parameters for this app.
    pub fn profile(self) -> CilkProfile {
        // Tuned so that, on the default 8-core machine under S+, the
        // group averages the paper's ~13% fence-stall share with 0.5–2
        // fences per kilo-instruction, and steals stay rare.
        match self {
            CilkApp::Bucket => CilkProfile::new(self, 3, 2, 4, 1000, 2000, 5, 4),
            CilkApp::Cholesky => CilkProfile::new(self, 4, 2, 3, 1700, 3600, 4, 6),
            CilkApp::Cilksort => CilkProfile::new(self, 5, 2, 2, 1400, 2800, 4, 5),
            CilkApp::Fft => CilkProfile::new(self, 3, 4, 2, 1200, 2500, 4, 6),
            CilkApp::Fib => CilkProfile::new(self, 7, 2, 1, 380, 760, 3, 2),
            CilkApp::Heat => CilkProfile::new(self, 3, 2, 6, 2800, 5600, 6, 8),
            CilkApp::Knapsack => CilkProfile::new(self, 6, 2, 1, 600, 1300, 3, 3),
            CilkApp::Lu => CilkProfile::new(self, 4, 2, 3, 2100, 4000, 5, 6),
            CilkApp::Matmul => CilkProfile::new(self, 2, 8, 2, 4400, 8800, 7, 10),
            CilkApp::Plu => CilkProfile::new(self, 4, 2, 3, 1900, 3800, 5, 6),
        }
    }
}

/// Spawn-tree and per-task work parameters.
#[derive(Clone, Copy, Debug)]
pub struct CilkProfile {
    /// Which app this profiles.
    pub app: CilkApp,
    /// Spawn-tree depth below the roots.
    pub depth: u8,
    /// Children per non-leaf task.
    pub fanout: u8,
    /// Root tasks seeded per worker.
    pub roots_per_worker: u64,
    /// Minimum compute units per task.
    pub compute_min: u64,
    /// Maximum compute units per task.
    pub compute_max: u64,
    /// Stores per task (streamed through the scratch region: misses).
    pub stores_per_task: u64,
    /// Loads per task.
    pub loads_per_task: u64,
}

impl CilkProfile {
    #[allow(clippy::too_many_arguments)]
    fn new(
        app: CilkApp,
        depth: u8,
        fanout: u8,
        roots_per_worker: u64,
        compute_min: u64,
        compute_max: u64,
        stores_per_task: u64,
        loads_per_task: u64,
    ) -> Self {
        CilkProfile {
            app,
            depth,
            fanout,
            roots_per_worker,
            compute_min,
            compute_max,
            stores_per_task,
            loads_per_task,
        }
    }

    /// Tasks in one root's spawn tree.
    pub fn tree_size(&self) -> u64 {
        let f = self.fanout as u64;
        if f <= 1 {
            self.depth as u64 + 1
        } else {
            (f.pow(self.depth as u32 + 1) - 1) / (f - 1)
        }
    }

    /// Total tasks across `workers` workers.
    pub fn total_tasks(&self, workers: usize) -> u64 {
        workers as u64 * self.roots_per_worker * self.tree_size()
    }
}

/// Task descriptor: depth in the high byte, unique id below.
fn task_descr(depth: u8, uid: u64) -> u64 {
    ((depth as u64) << 56) | (uid & 0x00FF_FFFF_FFFF_FFFF)
}

fn task_depth(task: u64) -> u8 {
    (task >> 56) as u8
}

fn task_uid(task: u64) -> u64 {
    task & 0x00FF_FFFF_FFFF_FFFF
}

/// Shared memory layout for one Cilk run.
#[derive(Clone, Debug)]
pub struct CilkLayout {
    deques: Vec<DequeLayout>,
    counters: Vec<Addr>,
    scratches: Vec<Addr>,
    scratch_bytes: u64,
}

impl CilkLayout {
    /// Carves one arena per worker (deque + progress counter + scratch),
    /// each aligned to `arena_align` so a worker's entire working set —
    /// and therefore a take() fence's Pending Set — lives in a single
    /// directory chunk, as a real per-thread heap arena would.
    ///
    /// # Panics
    ///
    /// Panics if an arena does not fit in one aligned chunk.
    pub fn new(
        alloc: &mut AddressAllocator,
        workers: usize,
        scratch_bytes: u64,
        arena_align: u64,
    ) -> Self {
        let mut deques = Vec::with_capacity(workers);
        let mut counters = Vec::with_capacity(workers);
        let mut scratches = Vec::with_capacity(workers);
        for _ in 0..workers {
            alloc.align_to(arena_align);
            let start = alloc.watermark().raw();
            deques.push(DequeLayout::new(alloc, 1024));
            counters.push(alloc.isolated_word());
            scratches.push(alloc.region(scratch_bytes));
            let used = alloc.watermark().raw() - start;
            assert!(
                used <= arena_align,
                "worker arena ({used} B) exceeds the interleave chunk ({arena_align} B)"
            );
        }
        CilkLayout {
            deques,
            counters,
            scratches,
            scratch_bytes,
        }
    }
}

#[derive(Clone, Debug)]
enum WState {
    Init,
    Loop,
    Taking(Take),
    Stealing { m: Steal, tries: u32 },
    CheckDone { tags: Vec<Tag> },
    Finished,
}

/// One Cilk worker thread.
#[derive(Clone)]
pub struct CilkWorker {
    tid: usize,
    profile: CilkProfile,
    layout: CilkLayout,
    expected_total: u64,
    scratch: Scratch,
    rng: SimRng,
    ops: Ops,
    state: WState,
    local_tail: u64,
    known_empty: bool,
    /// Tasks this worker executed.
    pub executed: u64,
    /// Tasks this worker obtained by stealing.
    pub stolen: u64,
    /// Successful local takes.
    pub takes: u64,
    /// Failed steal attempts.
    pub steal_failures: u64,
}

impl CilkWorker {
    fn new(
        tid: usize,
        profile: CilkProfile,
        layout: CilkLayout,
        workers: usize,
        line_bytes: u64,
        rng: SimRng,
    ) -> Self {
        let scratch = Scratch::new(layout.scratches[tid], layout.scratch_bytes, line_bytes, 8);
        let expected_total = profile.total_tasks(workers);
        CilkWorker {
            tid,
            profile,
            layout,
            expected_total,
            scratch,
            rng,
            ops: Ops::new(),
            state: WState::Init,
            local_tail: 0,
            known_empty: false,
            executed: 0,
            stolen: 0,
            takes: 0,
            steal_failures: 0,
        }
    }

    fn my_deque(&self) -> &DequeLayout {
        &self.layout.deques[self.tid]
    }

    /// Emits one task's work, pushes its children, bumps the counter.
    fn exec_task(&mut self, task: u64) {
        let uid = task_uid(task);
        let depth = task_depth(task);
        let h = hash64(uid);
        let p = self.profile;
        let span = p.compute_max - p.compute_min + 1;
        let compute = p.compute_min + h % span;

        for i in 0..p.loads_per_task {
            let a = self.scratch.next().offset(8 * (i % 2));
            self.ops.load_untagged(a);
        }
        self.ops.compute(compute);
        for i in 0..p.stores_per_task {
            let a = self.scratch.next();
            self.ops.store(a, h ^ i);
        }
        if depth < p.depth {
            let deque = self.my_deque().clone();
            for i in 0..p.fanout as u64 {
                let child = task_descr(depth + 1, hash64(uid ^ (i + 1)));
                self.local_tail = push(&deque, self.local_tail, child, &mut self.ops);
            }
            self.known_empty = false;
        }
        self.executed += 1;
        let counter = self.layout.counters[self.tid];
        self.ops.store(counter, self.executed);
    }

    fn start_steal(&mut self) -> Steal {
        let n = self.layout.deques.len() as u64;
        let mut victim = self.rng.below(n) as usize;
        if victim == self.tid {
            victim = (victim + 1) % n as usize;
        }
        Steal::start(&self.layout.deques[victim], &mut self.ops)
    }
}

impl Steps for CilkWorker {
    fn ops(&mut self) -> &mut Ops {
        &mut self.ops
    }

    /// Advances the workload state machine. Returns `false` when done.
    fn step(&mut self) -> bool {
        match std::mem::replace(&mut self.state, WState::Finished) {
            WState::Init => {
                let deque = self.my_deque().clone();
                for i in 0..self.profile.roots_per_worker {
                    let uid = hash64(((self.tid as u64) << 32) ^ i ^ 0xC11C);
                    let root = task_descr(0, uid);
                    self.local_tail = push(&deque, self.local_tail, root, &mut self.ops);
                }
                self.state = WState::Loop;
                true
            }
            WState::Loop => {
                if !self.known_empty && self.local_tail > 0 {
                    let deque = self.my_deque().clone();
                    let take = Take::start(&deque, self.local_tail, &mut self.ops);
                    self.state = WState::Taking(take);
                } else {
                    let m = self.start_steal();
                    self.state = WState::Stealing { m, tries: 0 };
                }
                true
            }
            WState::Taking(mut take) => {
                match take.poll(&mut self.ops) {
                    None => self.state = WState::Taking(take),
                    Some(TakeOutcome::Got { task, new_tail }) => {
                        self.local_tail = new_tail;
                        self.takes += 1;
                        self.exec_task(task);
                        self.state = WState::Loop;
                    }
                    Some(TakeOutcome::Empty { new_tail }) => {
                        self.local_tail = new_tail;
                        self.known_empty = true;
                        self.state = WState::Loop;
                    }
                }
                true
            }
            WState::Stealing { mut m, tries } => {
                match m.poll(&mut self.ops) {
                    None => self.state = WState::Stealing { m, tries },
                    Some(StealOutcome::Got { task }) => {
                        self.stolen += 1;
                        self.exec_task(task);
                        self.state = WState::Loop;
                    }
                    Some(StealOutcome::Empty) => {
                        self.steal_failures += 1;
                        if tries + 1 >= self.layout.deques.len() as u32 {
                            // All victims empty: check global termination.
                            let tags = (0..self.layout.counters.len())
                                .map(|i| self.ops.load(self.layout.counters[i]))
                                .collect();
                            self.state = WState::CheckDone { tags };
                        } else {
                            let m = self.start_steal();
                            self.state = WState::Stealing {
                                m,
                                tries: tries + 1,
                            };
                        }
                    }
                }
                true
            }
            WState::CheckDone { tags } => {
                let total: u64 = tags.into_iter().map(|t| self.ops.take(t)).sum();
                if total >= self.expected_total {
                    self.state = WState::Finished;
                    false
                } else {
                    self.ops.compute(200); // idle backoff before retrying
                    self.state = WState::Loop;
                    true
                }
            }
            WState::Finished => false,
        }
    }
}

/// Installs one Cilk application on a machine: allocates the layout,
/// warms the scratch regions into the L2 (Cilk programs initialize their
/// arrays before the parallel phase), and adds one worker per core.
///
/// # Panics
///
/// Panics if the machine already has threads.
pub fn setup(m: &mut asymfence::Machine, app: CilkApp, seed: u64) {
    let cfg = m.config().clone();
    let (progs, layout) = build(app, &cfg, seed);
    for base in &layout.scratches {
        let mut a = *base;
        let end = base.offset(layout.scratch_bytes);
        while a < end {
            m.warm_memory(a, 0);
            a = a.offset(cfg.line_bytes);
        }
    }
    for p in progs {
        m.add_thread(p);
    }
}

fn build(
    app: CilkApp,
    cfg: &asymfence_common::config::MachineConfig,
    seed: u64,
) -> (Vec<Box<dyn ThreadProgram>>, CilkLayout) {
    let workers = cfg.num_cores;
    let profile = app.profile();
    let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
    // Scratch sized 2x the L1 so the store stream always misses the L1.
    let layout = CilkLayout::new(
        &mut alloc,
        workers,
        2 * cfg.l1_bytes,
        cfg.interleave_bytes(),
    );
    let mut root_rng = SimRng::new(seed ^ hash64(app as u64));
    let progs = (0..workers)
        .map(|tid| {
            let rng = root_rng.fork(tid as u64);
            program(CilkWorker::new(
                tid,
                profile,
                layout.clone(),
                workers,
                cfg.line_bytes,
                rng,
            ))
        })
        .collect();
    (progs, layout)
}

/// Builds the worker programs for one Cilk application run.
///
/// # Examples
///
/// ```
/// use asymfence::prelude::*;
/// use asymfence_workloads::cilk::{self, CilkApp};
///
/// let cfg = MachineConfig::builder().cores(2).build();
/// let mut m = Machine::new(&cfg);
/// for p in cilk::programs(CilkApp::Fib, &cfg, 7) {
///     m.add_thread(p);
/// }
/// assert_eq!(m.run(50_000_000), RunOutcome::Finished);
/// ```
pub fn programs(
    app: CilkApp,
    cfg: &asymfence_common::config::MachineConfig,
    seed: u64,
) -> Vec<Box<dyn ThreadProgram>> {
    build(app, cfg, seed).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    #[test]
    fn tree_size_math() {
        let p = CilkApp::Fib.profile();
        assert_eq!(p.fanout, 2);
        assert_eq!(p.tree_size(), (1 << (p.depth as u32 + 1)) - 1);
        let m = CilkApp::Matmul.profile();
        assert_eq!(m.tree_size(), 1 + 8 + 64);
    }

    #[test]
    fn task_descriptor_round_trip() {
        let t = task_descr(5, 0x123456789A);
        assert_eq!(task_depth(t), 5);
        assert_eq!(task_uid(t), 0x123456789A);
    }

    #[test]
    fn fib_runs_to_completion_and_executes_every_task() {
        let cfg = MachineConfig::builder().cores(4).build();
        let mut m = Machine::new(&cfg);
        for p in programs(CilkApp::Fib, &cfg, 42) {
            m.add_thread(p);
        }
        assert_eq!(m.run(100_000_000), RunOutcome::Finished);
        let expected = CilkApp::Fib.profile().total_tasks(4);
        let executed: u64 = m.threads_of::<CilkWorker>().map(|w| w.executed).sum();
        assert_eq!(executed, expected, "every task ran exactly once");
        let s = m.stats();
        assert!(s.aggregate().sf_count + s.aggregate().wf_count > 0);
    }

    #[test]
    fn stealing_happens_but_is_rare() {
        let cfg = MachineConfig::builder().cores(4).build();
        let mut m = Machine::new(&cfg);
        for p in programs(CilkApp::Cholesky, &cfg, 3) {
            m.add_thread(p);
        }
        assert_eq!(m.run(200_000_000), RunOutcome::Finished);
        let (mut stolen, mut executed) = (0u64, 0u64);
        for w in m.threads_of::<CilkWorker>() {
            stolen += w.stolen;
            executed += w.executed;
        }
        assert_eq!(executed, CilkApp::Cholesky.profile().total_tasks(4));
        assert!(
            (stolen as f64) < 0.25 * executed as f64,
            "stealing should be the uncommon path: {stolen}/{executed}"
        );
    }

    #[test]
    fn weak_fences_reduce_fence_stall_for_fib() {
        let run = |design: FenceDesign| {
            let cfg = MachineConfig::builder()
                .cores(4)
                .fence_design(design)
                .build();
            let mut m = Machine::new(&cfg);
            for p in programs(CilkApp::Fib, &cfg, 11) {
                m.add_thread(p);
            }
            assert_eq!(m.run(100_000_000), RunOutcome::Finished);
            m.stats()
        };
        let s_plus = run(FenceDesign::SPlus);
        let ws_plus = run(FenceDesign::WsPlus);
        assert!(
            s_plus.fence_stall_cycles() > 0,
            "S+ must show fence stall on fib"
        );
        assert!(
            ws_plus.fence_stall_cycles() < s_plus.fence_stall_cycles(),
            "WS+ must reduce fence stall: {} vs {}",
            ws_plus.fence_stall_cycles(),
            s_plus.fence_stall_cycles()
        );
    }
}
