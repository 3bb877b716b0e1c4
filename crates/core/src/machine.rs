//! The simulated machine: cores + memory hierarchy + watchdog.
//!
//! [`Machine`] assembles one [`Core`] per thread on
//! top of a shared [`MemSystem`] and runs
//! them cycle by cycle. It merges the statistics the paper's evaluation
//! reports and detects global deadlock (which only the deliberately
//! unprotected `WfOnlyUnsafe` design — or a mis-grouped WS+ program — can
//! reach) as well as store-drain livelock: a write buffer that drains
//! nothing for the whole watchdog horizon while other instructions keep
//! retiring (SW+ has no W+-style timeout, so two cores can bounce each
//! other's stores forever while spinning on loads).
//!
//! The kernel is event-driven: executed cycles run the exact lock-step
//! `step`, but between steps [`Machine::run`] consults every component's
//! next-interesting-cycle hint and jumps `now` straight to the earliest
//! one (`Machine::skip_ahead`), bulk-accounting the skipped stall
//! cycles. Within a step, cores whose hint says "nothing to do" and
//! whose event queue is empty skip their tick entirely. Both skips are
//! exact — a skipped tick is a provable no-op, or a pure countdown of a
//! compute block that is replayed in bulk — so schedules, traces,
//! statistics and oracle draws stay bit-identical to lock-step ticking.

use std::sync::Arc;

use asymfence_coherence::MemSystem;
use asymfence_common::config::MachineConfig;
use asymfence_common::ids::{Addr, CoreId, Cycle};
use asymfence_common::scvlog::ScvLog;
use asymfence_common::stats::{CoreStats, MachineStats};
use asymfence_common::trace::{FenceBook, TraceSink};
use asymfence_cpu::program::{Fetch, ThreadProgram};
use asymfence_cpu::Core;

/// How a simulation run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Every thread finished and all buffers drained.
    Finished,
    /// The cycle limit was reached (expected for throughput runs).
    CycleLimit,
    /// The watchdog declared that the run cannot finish: either no core
    /// made progress for `watchdog_cycles` (a global deadlock, reported
    /// in the step the horizon is first exceeded), or some core's write
    /// buffer drained nothing for more than `watchdog_cycles` while the
    /// machine kept retiring instructions (a store-drain livelock,
    /// reported at a progress step up to `LIVELOCK_CHECK_EVERY` cycles
    /// after the horizon).
    Deadlocked,
}

/// How often, in cycles, a progress step checks the write buffers for
/// store-drain livelock. The check only has to fire eventually, so it
/// runs at this coarse cadence rather than every step.
const LIVELOCK_CHECK_EVERY: Cycle = 1024;

/// A program that finishes immediately (installed on cores without a
/// thread).
#[derive(Clone, Debug, Default)]
struct NullProgram;

impl ThreadProgram for NullProgram {
    fn fetch(&mut self) -> Fetch {
        Fetch::Done
    }
    fn deliver(&mut self, _tag: u64, _value: u64) {}
    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(NullProgram)
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A complete simulated multicore.
///
/// # Examples
///
/// ```
/// use asymfence::machine::{Machine, RunOutcome};
/// use asymfence::prelude::*;
///
/// let cfg = MachineConfig::builder().cores(2).build();
/// let mut m = Machine::new(&cfg);
/// let (prog, regs) = ScriptProgram::new(vec![
///     Instr::Store { addr: Addr::new(0), value: 7 },
///     Instr::Load { addr: Addr::new(0), tag: Some(1) },
/// ]);
/// m.add_thread(Box::new(prog));
/// assert_eq!(m.run(100_000), RunOutcome::Finished);
/// assert_eq!(regs.borrow()[&1], 7);
/// ```
pub struct Machine {
    cfg: Arc<MachineConfig>,
    mem: MemSystem,
    cores: Vec<Core>,
    threads_added: usize,
    now: Cycle,
    scv_log: Option<ScvLog>,
    last_progress_cycle: Cycle,
    /// First cycle at which a progress step runs the livelock check.
    next_livelock_check: Cycle,
    deadlocked: bool,
    /// Per-core cached scheduling hint: the earliest cycle at which
    /// ticking core `i` could change anything, assuming no memory event
    /// arrives first (struct-of-arrays — the skip test touches only
    /// this flat array, not the cores). Refreshed after every executed
    /// tick; a core's architectural state is frozen between its own
    /// ticks, so the cached value stays exact until then.
    wake: Vec<Cycle>,
    /// Per-core count of cycles skipped since the core's last executed
    /// tick. Flushed into the core's stall statistics right before the
    /// next tick (the stall classification is frozen while skippable,
    /// so the deferred bulk record is exact).
    skipped: Vec<u64>,
    /// Per-core flag: whether a skipped cycle of core `i` counts down a
    /// compute block ([`Core::is_counting_down`]) and so is a progress
    /// cycle for the watchdog. Refreshed after every executed tick,
    /// like `wake`.
    counting: Vec<bool>,
}

impl Machine {
    /// Builds a machine; threads are added with [`Machine::add_thread`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::new_shared(Arc::new(cfg.clone()))
    }

    /// Builds a machine around an already-counted configuration. The
    /// same `Arc` is handed to the memory system and every core, so the
    /// config is cloned exactly once per machine, not once per
    /// component.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new_shared(cfg: Arc<MachineConfig>) -> Self {
        cfg.validate().expect("invalid MachineConfig");
        let mem = MemSystem::with_shared(Arc::clone(&cfg));
        let cores = (0..cfg.num_cores)
            .map(|i| Core::with_shared(CoreId(i), Arc::clone(&cfg), Box::new(NullProgram)))
            .collect();
        let scv_log = cfg.record_scv_log.then(ScvLog::new);
        let num_cores = cfg.num_cores;
        Machine {
            cfg,
            mem,
            cores,
            threads_added: 0,
            now: 0,
            scv_log,
            last_progress_cycle: 0,
            next_livelock_check: 0,
            deadlocked: false,
            wake: vec![0; num_cores],
            skipped: vec![0; num_cores],
            counting: vec![false; num_cores],
        }
    }

    /// Re-arms this machine to run under `cfg`, as if freshly built.
    ///
    /// When `cfg` keeps the machine shape (see
    /// `MachineConfig::same_machine_shape`) every container is cleared
    /// in place and keeps its allocation, so a warmed pool machine
    /// resets and reruns without touching the heap; otherwise the
    /// machine is rebuilt from scratch. Returns whether the allocations
    /// were reused.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn reset(&mut self, cfg: &Arc<MachineConfig>) -> bool {
        if !self.cfg.same_machine_shape(cfg) {
            *self = Machine::new_shared(Arc::clone(cfg));
            return false;
        }
        cfg.validate().expect("invalid MachineConfig");
        self.cfg = Arc::clone(cfg);
        self.mem.reset(Arc::clone(cfg));
        for core in &mut self.cores {
            core.reset_with(Arc::clone(cfg), Box::new(NullProgram));
        }
        self.threads_added = 0;
        self.now = 0;
        self.scv_log = cfg.record_scv_log.then(ScvLog::new);
        self.last_progress_cycle = 0;
        self.next_livelock_check = 0;
        self.deadlocked = false;
        self.wake.fill(0);
        self.skipped.fill(0);
        self.counting.fill(false);
        true
    }

    /// Approximate bytes of arena capacity this machine retains across
    /// resets (ROB/write-buffer slabs and L1 line storage). Telemetry
    /// only — an estimate of what pooling saves per reuse, not an exact
    /// heap measurement.
    pub fn retained_bytes(&self) -> usize {
        self.mem.retained_bytes() + self.cores.iter().map(Core::retained_bytes).sum::<usize>()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Installs `program` on the next free core and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if every core already has a thread or the machine has
    /// started running.
    pub fn add_thread(&mut self, program: Box<dyn ThreadProgram>) -> CoreId {
        assert!(self.now == 0, "threads must be added before running");
        assert!(
            self.threads_added < self.cfg.num_cores,
            "all {} cores already have threads",
            self.cfg.num_cores
        );
        let id = CoreId(self.threads_added);
        self.cores[self.threads_added].set_program(program);
        self.wake[self.threads_added] = self.now;
        self.threads_added += 1;
        id
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether every thread finished and the memory system drained.
    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(|c| c.is_done()) && self.mem.is_idle()
    }

    /// Initializes one word of shared memory (before running).
    pub fn write_memory(&mut self, addr: Addr, value: u64) {
        self.mem.backdoor_write(addr, value);
    }

    /// Initializes one word of shared memory and warms it into the L2
    /// (data the program would have touched before the measured region).
    pub fn warm_memory(&mut self, addr: Addr, value: u64) {
        self.mem.backdoor_write_warm(addr, value);
    }

    /// Reads one word of globally-visible shared memory.
    pub fn read_memory(&self, addr: Addr) -> u64 {
        self.mem.backdoor_read(addr)
    }

    /// Advances one cycle.
    ///
    /// Cores whose cached wake hint proves their tick would be a no-op
    /// or a pure compute countdown (nothing else to retire, issue, fetch
    /// or account, and no pending memory event) skip the tick; every
    /// other core runs the exact lock-step tick and refreshes its hint.
    /// Events can only appear in a core's queue during
    /// `MemSystem::tick`, so a skip decision taken here cannot be
    /// invalidated mid-step.
    ///
    /// The step made progress if some ticked core's progress marker
    /// changed across its tick or some skipped core is counting down.
    /// Markers are monotone and change only inside a core's tick (and
    /// its deferred countdown flush, which is read before the tick), so
    /// this is exactly "the sum of the markers changed".
    pub fn step(&mut self) {
        let now = self.now;
        let mut progressed = false;
        for (i, core) in self.cores.iter_mut().enumerate() {
            if self.wake[i] > now && !self.mem.port_has_events(CoreId(i)) {
                self.skipped[i] += 1;
                progressed |= self.counting[i];
            } else {
                if self.skipped[i] > 0 {
                    core.account_skipped(self.skipped[i]);
                    self.skipped[i] = 0;
                }
                let before = core.progress_marker();
                core.tick(now, &mut self.mem, self.scv_log.as_mut());
                progressed |= core.progress_marker() != before;
                self.wake[i] = core.next_interesting(now + 1);
                self.counting[i] = core.is_counting_down();
            }
        }
        self.mem.tick(now);
        self.now += 1;

        if progressed {
            self.last_progress_cycle = now;
            // Store-drain livelock is checked only in progress steps (a
            // true deadlock has none, so the branch below keeps its
            // exact firing cycle) and only every `LIVELOCK_CHECK_EVERY`
            // cycles (the hot path pays one comparison).
            if now >= self.next_livelock_check {
                self.next_livelock_check = now + LIVELOCK_CHECK_EVERY;
                self.deadlocked |= self.store_livelocked(now);
            }
        } else if !self.is_finished() && now - self.last_progress_cycle > self.cfg.watchdog_cycles {
            self.deadlocked = true;
        }
    }

    /// Whether some core's write buffer has drained nothing for more than
    /// the watchdog horizon. Called only from progress steps, where the
    /// rest of the machine is still retiring: such a store bounces
    /// forever and the run can never finish.
    fn store_livelocked(&self, now: Cycle) -> bool {
        let horizon = self.cfg.watchdog_cycles;
        self.cores.iter().any(|c| {
            c.wb_stuck_since()
                .is_some_and(|since| now - since > horizon)
        })
    }

    /// Jumps `now` to the next cycle at which anything can happen: the
    /// earliest memory-system wakeup, the earliest cached core wake
    /// hint, the watchdog's firing step, or `limit`, whichever comes
    /// first. Skipped cycles are deferred into the per-core skip
    /// counters (the stall classification is frozen while a core is
    /// skippable, and a counting-down core's countdown is replayed in
    /// bulk). Exact: every skipped cycle is a no-op or a pure countdown
    /// for every component, so the machine reaches `next` in the same
    /// state lock-step ticking would.
    fn skip_ahead(&mut self, limit: Cycle) {
        if self.deadlocked || self.is_finished() {
            return;
        }
        // The watchdog declares deadlock in the step where
        // `now - last_progress_cycle` first exceeds the horizon; that
        // step must execute, so never jump past it.
        let deadline = self
            .last_progress_cycle
            .saturating_add(self.cfg.watchdog_cycles)
            .saturating_add(1);
        let mut next = limit.min(deadline).min(self.mem.next_time());
        let mut counting = false;
        for (&w, &c) in self.wake.iter().zip(&self.counting) {
            next = next.min(w);
            counting |= c;
        }
        // While a core counts down, every step is a progress step, and
        // lock-step would run the store-drain livelock check in the
        // first one at or after `next_livelock_check`: execute that
        // step. Without a countdown the skipped steps make no progress,
        // so deadlocked runs keep their long jumps.
        if counting {
            next = next.min(self.next_livelock_check.max(self.now));
        }
        if next <= self.now {
            return;
        }
        for i in 0..self.cores.len() {
            if self.mem.port_has_events(CoreId(i)) {
                return; // a core consumes events next cycle
            }
        }
        let gap = next - self.now;
        for s in &mut self.skipped {
            *s += gap;
        }
        self.now = next;
    }

    /// Runs until every thread finishes, deadlock is detected, or
    /// `max_cycles` elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        let limit = self.now + max_cycles;
        while self.now < limit {
            if self.is_finished() {
                return RunOutcome::Finished;
            }
            if self.deadlocked {
                return RunOutcome::Deadlocked;
            }
            self.step();
            self.skip_ahead(limit);
        }
        if self.is_finished() {
            RunOutcome::Finished
        } else if self.deadlocked {
            RunOutcome::Deadlocked
        } else {
            RunOutcome::CycleLimit
        }
    }

    /// The SCV perform-order log (if `record_scv_log` was enabled).
    pub fn scv_log(&self) -> Option<&ScvLog> {
        self.scv_log.as_ref()
    }

    /// The fence book: the run's exact per-class fence tallies, folded
    /// on every run, traced or not, and cleared by [`Machine::reset`].
    pub fn fence_book(&self) -> &FenceBook {
        self.mem.fence_book()
    }

    /// Removes and returns the fence-lifecycle trace (if `record_trace`
    /// was enabled), ending recording. Its tallies are the fence book's.
    ///
    /// Useful after a run to export or attach the trace without keeping
    /// the machine alive.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.mem.take_trace()
    }

    /// Removes and returns the schedule oracle's choice-point recording
    /// (machines built with a scripted
    /// [`SchedulePlan`](asymfence_common::schedule::SchedulePlan) only).
    pub fn take_schedule_recording(
        &mut self,
    ) -> Option<asymfence_common::schedule::ScheduleRecording> {
        self.mem.take_schedule_recording()
    }

    /// The programs of type `T` among the machine's threads, in core
    /// order (for reading results after a run). A program is seen
    /// through its [`ThreadProgram::as_any`], so a kernel wrapped in a
    /// driver or a fence decorator is still found.
    pub fn threads_of<T: 'static>(&self) -> impl Iterator<Item = &T> + '_ {
        self.cores
            .iter()
            .filter_map(|c| c.program().as_any().downcast_ref::<T>())
    }

    /// Merges all statistics into the paper's reporting format. Per-core
    /// and traffic counters are plain `Copy` data, so the harvest is a
    /// flat copy — no per-counter clones.
    pub fn stats(&self) -> MachineStats {
        let mut cores = Vec::with_capacity(self.cfg.num_cores);
        for (i, core) in self.cores.iter().enumerate() {
            cores.push(with_memory_counters(
                &self.mem,
                i,
                core.stats_with_skips(self.skipped[i]),
            ));
        }
        MachineStats {
            cycles: self.now,
            cores,
            traffic: *self.mem.traffic(),
            deadlocked: self.deadlocked,
        }
    }
}

/// Core `i`'s own counters `s` completed with the counters the memory
/// system keeps for that core (L1, bounces, Bypass Set, directory
/// orders).
fn with_memory_counters(mem: &MemSystem, i: usize, mut s: CoreStats) -> CoreStats {
    let mc = mem.counters(CoreId(i));
    s.l1_hits = mc.l1_hits;
    s.l1_misses = mc.l1_misses;
    s.writes_bounced = mc.writes_bounced;
    s.bounce_retries = mc.bounce_retries;
    s.bs_peak = mem.bs_peak(CoreId(i)) as u64;
    for b in mem.each_bank_counters() {
        s.order_ops += b.orders[i];
        s.cond_order_failures += b.co_failures[i];
        s.cond_order_successes += b.co_successes[i];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::config::FenceDesign;
    use asymfence_common::rng::SimRng;
    use asymfence_cpu::program::{FenceRole, Instr, ScriptProgram};

    const DESIGNS: [FenceDesign; 5] = [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ];

    /// Both sides of Fig 3a's crossed-weak-fence deadlock: each core
    /// buffers a cold dummy store and its flag store, then a critical
    /// fence and a load of the other core's flag.
    fn fig3a_sides() -> Vec<Vec<Instr>> {
        let side = |mine: u64, other: u64, dummy: u64| {
            vec![
                Instr::Load {
                    addr: Addr::new(other),
                    tag: None,
                },
                Instr::Compute { cycles: 1600 },
                Instr::Store {
                    addr: Addr::new(dummy),
                    value: 1,
                },
                Instr::Store {
                    addr: Addr::new(mine),
                    value: 1,
                },
                Instr::fence(FenceRole::Critical),
                Instr::Load {
                    addr: Addr::new(other),
                    tag: Some(1),
                },
            ]
        };
        vec![side(0x00, 0x40, 0x1000), side(0x40, 0x00, 0x1100)]
    }

    fn machine_with(cfg: &MachineConfig, programs: &[Vec<Instr>]) -> Machine {
        let mut m = Machine::new(cfg);
        for p in programs {
            m.add_thread(Box::new(ScriptProgram::new(p.clone()).0));
        }
        m
    }

    /// The lock-step reference kernel: ticks every core every cycle on a
    /// bare `MemSystem` (no skipping, no watchdog) until every thread
    /// finishes or `max` cycles elapse, and harvests the statistics the
    /// way `Machine::stats` does. Returns them with whether the run
    /// finished.
    fn lockstep(cfg: &MachineConfig, programs: &[Vec<Instr>], max: Cycle) -> (MachineStats, bool) {
        let cfg = Arc::new(cfg.clone());
        let mut mem = MemSystem::with_shared(Arc::clone(&cfg));
        let mut cores: Vec<Core> = (0..cfg.num_cores)
            .map(|i| {
                let program: Box<dyn ThreadProgram> = match programs.get(i) {
                    Some(p) => Box::new(ScriptProgram::new(p.clone()).0),
                    None => Box::new(NullProgram),
                };
                Core::with_shared(CoreId(i), Arc::clone(&cfg), program)
            })
            .collect();
        let finished =
            |cores: &[Core], mem: &MemSystem| cores.iter().all(Core::is_done) && mem.is_idle();
        let mut now = 0;
        while now < max && !finished(&cores, &mem) {
            for core in &mut cores {
                core.tick(now, &mut mem, None);
            }
            mem.tick(now);
            now += 1;
        }
        let stats = MachineStats {
            cycles: now,
            cores: cores
                .iter()
                .enumerate()
                .map(|(i, c)| with_memory_counters(&mem, i, *c.stats()))
                .collect(),
            traffic: *mem.traffic(),
            deadlocked: false,
        };
        (stats, finished(&cores, &mem))
    }

    /// A straight-line program of long compute blocks between loads,
    /// stores and fences on a few shared lines. A tagged load stalls
    /// fetch until it retires, and so does a full ROB, so the compute
    /// blocks ahead of them count down with nothing else to do — the
    /// stretches the kernel skips.
    fn mixed_program(rng: &mut SimRng, core: usize) -> Vec<Instr> {
        let shared = |rng: &mut SimRng| Addr::new(rng.below(4) * 0x40);
        let mut v = Vec::new();
        for k in 0..10 {
            v.push(Instr::Compute {
                cycles: rng.range(1, 3_000),
            });
            for _ in 0..rng.below(8) {
                v.push(match rng.below(5) {
                    0 => Instr::Store {
                        addr: shared(rng),
                        value: k + 1,
                    },
                    1 => Instr::Store {
                        addr: Addr::new(0x1000 + 0x100 * core as u64 + 8 * rng.below(4)),
                        value: k,
                    },
                    2 => Instr::Load {
                        addr: shared(rng),
                        tag: None,
                    },
                    3 => Instr::fence(FenceRole::Critical),
                    _ => Instr::fence(FenceRole::NonCritical),
                });
            }
            v.push(Instr::Load {
                addr: shared(rng),
                tag: rng.chance(0.5).then_some(k),
            });
        }
        v
    }

    #[test]
    fn event_kernel_matches_lockstep_ticking() {
        let mut rng = SimRng::new(2015);
        // The default core, and a narrow one whose 6-entry ROB fills
        // behind a compute block and whose issue width does not divide
        // the block sizes evenly.
        let shapes = [(140, 4), (6, 3)];
        for cores in 2..=4 {
            for design in DESIGNS {
                for (rob, width) in shapes {
                    let cfg = MachineConfig::builder()
                        .cores(cores)
                        .fence_design(design)
                        .rob_entries(rob)
                        .tweak(|c| c.issue_width = width)
                        .build();
                    let case = format!("{cores} cores {design:?} rob {rob} width {width}");
                    let programs: Vec<Vec<Instr>> =
                        (0..cores).map(|c| mixed_program(&mut rng, c)).collect();
                    let mut m = machine_with(&cfg, &programs);
                    let outcome = m.run(1_000_000);
                    let (reference, finished) = lockstep(&cfg, &programs, 1_000_000);
                    assert!(finished, "{case}: lock-step run did not finish");
                    assert_eq!(outcome, RunOutcome::Finished, "{case}");
                    assert_eq!(m.stats(), reference, "{case}");
                }
            }
        }
    }

    #[test]
    fn stopping_mid_countdown_harvests_lockstep_stats() {
        let cfg = MachineConfig::builder().cores(2).build();
        let programs = vec![
            vec![
                Instr::Load {
                    addr: Addr::new(0x40),
                    tag: None,
                },
                Instr::Compute { cycles: 100_000 },
                Instr::Load {
                    addr: Addr::new(0x80),
                    tag: Some(1),
                },
            ],
            vec![
                Instr::Store {
                    addr: Addr::new(0x40),
                    value: 3,
                },
                Instr::Compute { cycles: 7_777 },
                Instr::Load {
                    addr: Addr::new(0xc0),
                    tag: Some(1),
                },
            ],
        ];
        let stop = 12_345;
        let mut m = machine_with(&cfg, &programs);
        assert_eq!(m.run(stop), RunOutcome::CycleLimit);
        assert_eq!(m.now(), stop);
        let (at_stop, _) = lockstep(&cfg, &programs, stop);
        let partial = m.stats();
        assert_eq!(partial, at_stop);
        let retired = partial.cores[0].instrs_retired;
        assert!(
            retired > 1 && retired < 100_000,
            "stopped inside the compute block, {retired} retired"
        );

        assert_eq!(m.run(1_000_000), RunOutcome::Finished);
        let mut whole = machine_with(&cfg, &programs);
        assert_eq!(whole.run(1_000_000), RunOutcome::Finished);
        assert_eq!(m.stats(), whole.stats());
        assert_eq!(m.stats(), lockstep(&cfg, &programs, 1_000_000).0);
    }

    #[test]
    fn compute_longer_than_the_watchdog_finishes() {
        let cfg = MachineConfig::builder()
            .cores(2)
            .watchdog_cycles(5_000)
            .build();
        let programs = vec![vec![
            Instr::Compute { cycles: 100_000 },
            Instr::Load {
                addr: Addr::new(0x40),
                tag: Some(1),
            },
        ]];
        let mut m = machine_with(&cfg, &programs);
        assert_eq!(m.run(1_000_000), RunOutcome::Finished);
        let stats = m.stats();
        assert!(!stats.deadlocked);
        assert!(stats.cycles > 25_000);
        assert_eq!(stats, lockstep(&cfg, &programs, 1_000_000).0);
    }

    #[test]
    fn empty_machine_finishes_instantly() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        assert_eq!(m.run(100), RunOutcome::Finished);
    }

    #[test]
    fn single_thread_store_visible_in_memory() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        let (p, _) = ScriptProgram::new(vec![Instr::Store {
            addr: Addr::new(0x80),
            value: 33,
        }]);
        m.add_thread(Box::new(p));
        assert_eq!(m.run(100_000), RunOutcome::Finished);
        assert_eq!(m.read_memory(Addr::new(0x80)), 33);
        let stats = m.stats();
        assert_eq!(stats.aggregate().stores, 1);
        assert!(!stats.deadlocked);
    }

    #[test]
    fn initialized_memory_is_readable() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        m.write_memory(Addr::new(0x40), 11);
        let (p, regs) = ScriptProgram::new(vec![Instr::Load {
            addr: Addr::new(0x40),
            tag: Some(1),
        }]);
        m.add_thread(Box::new(p));
        assert_eq!(m.run(100_000), RunOutcome::Finished);
        assert_eq!(regs.borrow()[&1], 11);
    }

    #[test]
    fn cycle_limit_reported() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        let (p, _) = ScriptProgram::new(vec![Instr::Compute { cycles: 1_000_000 }]);
        m.add_thread(Box::new(p));
        assert_eq!(m.run(100), RunOutcome::CycleLimit);
        assert!(m.now() >= 100);
    }

    #[test]
    fn watchdog_detects_wf_only_deadlock() {
        let cfg = MachineConfig::builder()
            .cores(2)
            .fence_design(FenceDesign::WfOnlyUnsafe)
            .watchdog_cycles(5_000)
            .build();
        let mut m = machine_with(&cfg, &fig3a_sides());
        assert_eq!(m.run(1_000_000), RunOutcome::Deadlocked);
        assert_eq!(m.now(), 5_846);
        assert!(m.stats().deadlocked);
    }

    #[test]
    fn store_livelock_is_caught_on_time_while_a_core_counts_down() {
        // Fig 3a's crossed weak fences leave a store stuck in the write
        // buffers of cores 0 and 1, while core 2 counts down a long
        // compute block: every step makes progress, so the watchdog
        // reports a store-drain livelock. It must fire in the progress
        // step where lock-step ticking runs the livelock check, not at
        // the next step the kernel happens to execute.
        let cfg = MachineConfig::builder()
            .cores(3)
            .fence_design(FenceDesign::WfOnlyUnsafe)
            .watchdog_cycles(5_000)
            .build();
        let mut programs = fig3a_sides();
        programs.push(vec![
            Instr::Compute { cycles: 1_000_000 },
            Instr::Load {
                addr: Addr::new(0x2000),
                tag: Some(1),
            },
        ]);
        let mut m = machine_with(&cfg, &programs);
        assert_eq!(m.run(1_000_000), RunOutcome::Deadlocked);
        // Both figures are lock-step ticking's (the kernel before compute
        // countdowns were skipped stopped here too).
        assert_eq!(m.now(), 6_146);
        let stats = m.stats();
        assert!(stats.deadlocked);
        assert_eq!(stats.cores[2].instrs_retired, 24_580);
    }

    #[test]
    #[should_panic(expected = "already have threads")]
    fn too_many_threads_panics() {
        let cfg = MachineConfig::builder().cores(1).build();
        let mut m = Machine::new(&cfg);
        let mk = || Box::new(ScriptProgram::new(vec![]).0);
        m.add_thread(mk());
        m.add_thread(mk());
    }

    #[test]
    fn stats_merge_includes_memory_counters() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        let (p, _) = ScriptProgram::new(vec![
            Instr::Load {
                addr: Addr::new(0),
                tag: None,
            },
            Instr::Load {
                addr: Addr::new(0),
                tag: None,
            },
        ]);
        m.add_thread(Box::new(p));
        m.run(100_000);
        let s = m.stats();
        assert!(s.cores[0].l1_misses >= 1);
        assert!(s.traffic.total_bytes() > 0);
    }
}
