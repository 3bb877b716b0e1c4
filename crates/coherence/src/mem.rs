//! The memory system: per-core L1 ports (cache + Bypass Set + MSHRs +
//! write-transaction state), the directory/L2 banks, and the mesh that
//! connects them.
//!
//! Cores drive the memory system through [`MemSystem::issue_load`],
//! [`MemSystem::issue_store`] and [`MemSystem::issue_rmw`], advance it
//! once per cycle with [`MemSystem::tick`], and consume completions,
//! bounces, invalidation notifications and WeeFence arming through
//! [`MemSystem::pop_event`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use asymfence_common::config::MachineConfig;
use asymfence_common::hash::{FxBuildHasher, FxHashMap};
use asymfence_common::ids::{Addr, BankId, CoreId, Cycle, LineAddr};
use asymfence_common::schedule::{ChoiceKind, ChoicePoint, ScheduleOracle, ScheduleRecording};
use asymfence_common::stats::TrafficStats;
use asymfence_common::trace::{FenceBook, TraceEvent, TraceKind, TraceSink};
use asymfence_common::trace_event;
use asymfence_noc::{Mesh, Network};

use crate::bypass::BypassSet;
use crate::dir::{BankCounters, DirBank, Outgoing};
use crate::grt::Grt;
use crate::l1::{L1Cache, L1State};
use crate::msg::{msg_bytes, msg_is_retry, LineData, Msg, OrderMode, RmwKind, WordUpdate};

/// Cycles before resending a request that hit a busy directory line.
const BUSY_RETRY_CYCLES: u64 = 4;

/// Identifier of an outstanding memory request.
pub type Token = u64;

/// Completion and notification events delivered to a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemEvent {
    /// A load performed; `value` is the loaded word.
    LoadDone {
        /// Request token.
        token: Token,
        /// Loaded value.
        value: u64,
    },
    /// A store merged with the memory system (globally performed).
    StoreDone {
        /// Request token.
        token: Token,
    },
    /// An atomic read-modify-write completed; `old` is the pre-RMW value.
    RmwDone {
        /// Request token.
        token: Token,
        /// Value before the RMW.
        old: u64,
    },
    /// The in-flight store was bounced by a remote Bypass Set (one event
    /// per bounce).
    StoreBounced {
        /// Request token.
        token: Token,
    },
    /// A cached line was invalidated or evicted: speculative loads on it
    /// must be squashed.
    InvSeen {
        /// The departed line.
        line: LineAddr,
    },
    /// Wee: the GRT round trip finished; the fence may now let post-fence
    /// accesses through, watching the remote Pending Sets its deposit
    /// read ([`MemSystem::wee_remote`]).
    WeeArmed {
        /// Fence this arming belongs to.
        fence_serial: u64,
    },
}

/// Per-core memory-side counters (merged into `CoreStats` by the machine).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemCounters {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// Stores that were bounced at least once.
    pub writes_bounced: u64,
    /// Total bounce NACKs received.
    pub bounce_retries: u64,
}

#[derive(Clone, Copy, Debug)]
enum StoreKind {
    Plain,
    Rmw(RmwKind),
}

#[derive(Clone, Debug)]
struct PendingStore {
    token: Token,
    line: LineAddr,
    word: u8,
    kind: StoreKind,
    value: u64,
    attempt: u32,
    bounced_once: bool,
    /// Waiting for an MSHR fill on the same line before sending GetX.
    deferred: bool,
    /// Loads coalesced behind this write transaction: `(token, word)`.
    waiting_loads: Vec<(Token, u8)>,
}

#[derive(Clone, Debug, Default)]
struct Mshr {
    loads: Vec<(Token, u8)>,
}

#[derive(Clone, Debug)]
enum LocalEv {
    /// An L1 load hit completing after the hit latency.
    LoadHit {
        token: Token,
        line: LineAddr,
        word: u8,
    },
    /// A writable-hit store/RMW completing after the hit latency.
    StoreHit { token: Token, rmw_old: Option<u64> },
    /// Retry the pending store transaction on a line.
    RetryStore { line: LineAddr },
    /// Retry a read request that hit a busy directory line.
    RetryLoad { line: LineAddr },
}

struct CorePort {
    l1: L1Cache,
    bs: BypassSet,
    mshrs: FxHashMap<LineAddr, Mshr>,
    /// In-flight write transactions, keyed by line (at most one per line;
    /// TSO issues one total, wider merge widths several).
    pending_stores: FxHashMap<LineAddr, PendingStore>,
    order_mode: OrderMode,
    /// Wee: the fence whose GRT reply this core awaits. One slot: a
    /// younger fence's registration displaces an older one's arming.
    wee_arming: Option<u64>,
    events: VecDeque<MemEvent>,
    counters: MemCounters,
}

// BinaryHeap needs Ord; order only by (cycle, seq).
#[derive(Debug)]
struct LocalEvSlot(LocalEv);
impl PartialEq for LocalEvSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for LocalEvSlot {}
impl PartialOrd for LocalEvSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LocalEvSlot {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

/// The full memory hierarchy of the simulated machine.
pub struct MemSystem {
    cfg: Arc<MachineConfig>,
    ports: Vec<CorePort>,
    banks: Vec<DirBank>,
    net: Network<Msg>,
    local: BinaryHeap<Reverse<(Cycle, u64, usize, LocalEvSlot)>>,
    local_seq: u64,
    next_token: Token,
    /// Monotone message counter feeding the schedule oracle's
    /// NoC/invalidation choice points.
    perturb_seq: u64,
    /// The schedule oracle answering every nondeterminism point, built
    /// from `MachineConfig::schedule`; `None` when the machine runs on
    /// natural time (seeded plan with an inactive perturbation).
    oracle: Option<Box<dyn ScheduleOracle>>,
    /// Fence-episode pairing and the per-class fence tallies, folded
    /// on every run whether or not a trace is recording. Pure
    /// observation — never read back by the protocol.
    fences: FenceBook,
    /// Fence-lifecycle trace sink; `None` unless `record_trace` is set.
    /// Pure observation — never read back by the protocol.
    trace: Option<TraceSink>,
    /// Reusable buffer for directory-bank outgoing messages (kept across
    /// dispatches so the hot path never allocates).
    scratch: Vec<Outgoing>,
    /// WeeFence's Global Reorder Table, reached at [`Self::GRT_HOME`].
    grt: Grt,
}

impl MemSystem {
    /// Builds the memory system for a machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: &MachineConfig) -> Self {
        Self::with_shared(Arc::new(cfg.clone()))
    }

    /// Like [`MemSystem::new`], but sharing an already-counted
    /// configuration (the machine hands the same `Arc` to every core and
    /// to the memory system instead of cloning the config per component).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn with_shared(cfg: Arc<MachineConfig>) -> Self {
        cfg.validate().expect("invalid MachineConfig");
        let (cols, rows) = cfg.mesh_dims();
        let mesh = Mesh::new(cols, rows, cfg.num_cores);
        let net = Network::new(mesh, cfg.hop_cycles, cfg.link_bytes_per_cycle);
        let ports = (0..cfg.num_cores)
            .map(|_| CorePort {
                l1: L1Cache::new(cfg.l1_sets(), cfg.l1_ways, cfg.words_per_line()),
                bs: BypassSet::new(cfg.bs_entries),
                // Pre-size past any realistic in-flight count so the
                // tables never rehash mid-run.
                mshrs: FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default()),
                pending_stores: FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default()),
                order_mode: OrderMode::None,
                wee_arming: None,
                events: VecDeque::new(),
                counters: MemCounters::default(),
            })
            .collect();
        let banks = (0..cfg.num_cores)
            .map(|i| {
                DirBank::new(
                    BankId(i),
                    cfg.num_cores,
                    cfg.words_per_line(),
                    cfg.l2_sets(),
                    cfg.l2_ways,
                    cfg.l2_hit_cycles,
                    cfg.mem_cycles,
                    cfg.dir_interleave_lines,
                )
            })
            .collect();
        let fences = FenceBook::new(cfg.num_cores);
        let trace = cfg.record_trace.then(|| TraceSink::new(cfg.fence_design));
        let oracle = cfg.schedule.build_oracle();
        let grt = Grt::new(cfg.num_cores);
        MemSystem {
            cfg,
            ports,
            banks,
            net,
            local: BinaryHeap::new(),
            local_seq: 0,
            next_token: 1,
            perturb_seq: 0,
            oracle,
            fences,
            trace,
            scratch: Vec::new(),
            grt,
        }
    }

    /// Restores the as-new state for machine reuse under `cfg` (which
    /// must describe the same hardware shape the system was built with —
    /// see `MachineConfig::same_machine_shape`). Every container keeps
    /// its allocation, so a warmed pool machine resets and reruns without
    /// touching the heap.
    pub fn reset(&mut self, cfg: Arc<MachineConfig>) {
        debug_assert!(self.cfg.same_machine_shape(&cfg), "shape must match");
        self.cfg = cfg;
        for p in &mut self.ports {
            p.l1.reset();
            p.bs.reset();
            p.mshrs.clear();
            p.pending_stores.clear();
            p.order_mode = OrderMode::None;
            p.wee_arming = None;
            p.events.clear();
            p.counters = MemCounters::default();
        }
        for b in &mut self.banks {
            b.reset();
        }
        self.net.reset();
        self.local.clear();
        self.local_seq = 0;
        self.next_token = 1;
        self.perturb_seq = 0;
        self.oracle = self.cfg.schedule.build_oracle();
        self.fences.reset();
        self.grt.reset();
        // A sink still held is cleared in place, keeping its rings'
        // allocations; one that `take_trace` removed is rebuilt.
        let design = self.cfg.fence_design;
        match (&mut self.trace, self.cfg.record_trace) {
            (Some(sink), true) => sink.clear(design),
            (slot, record) => *slot = record.then(|| TraceSink::new(design)),
        }
    }

    /// The earliest future cycle at which the memory system has work to
    /// do (a scheduled local event or an in-flight message arrival);
    /// `Cycle::MAX` when nothing is outstanding. Everything due at or
    /// before the last [`MemSystem::tick`] has already been processed,
    /// so the machine may jump straight to this cycle.
    pub fn next_time(&self) -> Cycle {
        let local = self.local.peek().map_or(Cycle::MAX, |Reverse((t, ..))| *t);
        let net = self.net.next_arrival().unwrap_or(Cycle::MAX);
        local.min(net)
    }

    /// Whether `core` has undelivered completion/notification events.
    pub fn port_has_events(&self, core: CoreId) -> bool {
        !self.ports[core.0].events.is_empty()
    }

    /// Approximate bytes of heap capacity retained across resets (for
    /// pool telemetry): L1 set arrays and bypass-set entry arrays, the
    /// dominant per-port retained structures.
    pub fn retained_bytes(&self) -> usize {
        self.ports
            .iter()
            .map(|p| p.l1.retained_bytes() + p.bs.retained_bytes())
            .sum()
    }

    /// The trace sink, mutably, when `record_trace` is enabled.
    ///
    /// Core-side code emits its non-lifecycle events through this.
    pub fn trace_sink(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_mut()
    }

    /// Reports one fence-lifecycle event (issue, complete, demote, store
    /// bounce, rollback): always folded into the fence book, and passed
    /// on to the trace sink, with the spans it closes, when one is
    /// recording.
    #[inline]
    pub fn fence_event(&mut self, now: Cycle, core: CoreId, kind: TraceKind) {
        let ev = TraceEvent {
            cycle: now,
            core,
            kind,
        };
        self.fences.observe(ev, self.trace.as_mut());
    }

    /// The fence book: this run's per-class fence tallies so far.
    pub fn fence_book(&self) -> &FenceBook {
        &self.fences
    }

    /// Removes and returns the trace sink, ending recording. The sink
    /// carries the fence book's totals as of now.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        let mut sink = self.trace.take()?;
        sink.set_totals(&self.fences);
        Some(sink)
    }

    /// Asks the schedule oracle how long a retired store waits in the
    /// write buffer before becoming drainable. The core hands its own
    /// id and store serial; `line` is the store's target line. Returns
    /// 0 when the machine runs on natural time.
    pub fn wb_drain_stall(&mut self, core: CoreId, serial: u64, line: LineAddr) -> u64 {
        match self.oracle.as_mut() {
            Some(orc) => orc.choose(&ChoicePoint {
                kind: ChoiceKind::WbDrain,
                core: core.0,
                line: Some(line.raw()),
                seq: serial,
            }),
            None => 0,
        }
    }

    /// Hands back the schedule oracle's recording of every choice point
    /// this run encountered (scripted plans only; the sampling oracle
    /// records nothing). Exhaustive exploration reads this to extend
    /// its choice tree from the frontier the run exposed.
    pub fn take_schedule_recording(&mut self) -> Option<ScheduleRecording> {
        self.oracle.as_mut().and_then(|o| o.take_recording())
    }

    /// The configuration this memory system was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Per-bank counters without collecting (allocation-free harvest).
    pub fn each_bank_counters(&self) -> impl Iterator<Item = &BankCounters> {
        self.banks.iter().map(|b| b.counters())
    }

    fn line_of(&self, addr: Addr) -> LineAddr {
        LineAddr::containing(addr, self.cfg.line_bytes)
    }

    fn word_of(&self, addr: Addr) -> u8 {
        addr.word_in_line(self.cfg.line_bytes, self.cfg.word_bytes)
            .0
    }

    /// Home bank (node index) of a line: chunks of
    /// `dir_interleave_lines` consecutive lines share a bank.
    pub fn home_bank(&self, line: LineAddr) -> usize {
        ((line.raw() / self.cfg.dir_interleave_lines) % self.cfg.num_cores as u64) as usize
    }

    fn schedule(&mut self, at: Cycle, core: usize, ev: LocalEv) {
        self.local_seq += 1;
        self.local
            .push(Reverse((at, self.local_seq, core, LocalEvSlot(ev))));
    }

    fn send(&mut self, now: Cycle, src: usize, dst: usize, msg: Msg) {
        let bytes = msg_bytes(&msg, self.cfg.line_bytes);
        let retry = msg_is_retry(&msg);
        if self.trace.is_some() {
            let hops = self.net.mesh().hops(src, dst) as u16;
            let label = msg.label();
            trace_event!(
                self.trace.as_mut(),
                now,
                CoreId(src),
                TraceKind::NocHop {
                    src: src as u16,
                    dst: dst as u16,
                    hops,
                    msg: label
                }
            );
        }
        // Every message is a nondeterminism point: generic NoC jitter,
        // with invalidation deliveries as their own point kind (they
        // take extra lag, reordering invals against data replies and
        // other sharers' invals). Per-pair FIFO is kept by the network
        // layer, so any answer the oracle gives stays protocol-legal.
        let extra = if let Some(orc) = self.oracle.as_mut() {
            self.perturb_seq += 1;
            let kind = if matches!(msg, Msg::Inv { .. }) {
                ChoiceKind::InvalDelivery
            } else {
                ChoiceKind::NocMessage
            };
            orc.choose(&ChoicePoint {
                kind,
                core: src,
                line: msg.line().map(LineAddr::raw),
                seq: self.perturb_seq,
            })
        } else {
            0
        };
        self.net
            .send_delayed(now, src, dst, bytes, retry, extra, msg);
    }

    // ------------------------------------------------------------------
    // Core-facing request API
    // ------------------------------------------------------------------

    /// Issues a load for `core`; a `LoadDone` event follows.
    pub fn issue_load(&mut self, now: Cycle, core: CoreId, addr: Addr) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        let line = self.line_of(addr);
        let word = self.word_of(addr);
        let c = core.0;

        if self.ports[c].l1.lookup(line).is_some() {
            self.ports[c].counters.l1_hits += 1;
            let at = now + self.cfg.l1_hit_cycles;
            self.schedule(at, c, LocalEv::LoadHit { token, line, word });
            return token;
        }
        self.ports[c].counters.l1_misses += 1;
        self.start_load_miss(now, c, token, line, word);
        token
    }

    fn start_load_miss(&mut self, now: Cycle, c: usize, token: Token, line: LineAddr, word: u8) {
        if let Some(ps) = self.ports[c].pending_stores.get_mut(&line) {
            ps.waiting_loads.push((token, word));
            return;
        }
        if let Some(mshr) = self.ports[c].mshrs.get_mut(&line) {
            mshr.loads.push((token, word));
            return;
        }
        self.ports[c].mshrs.insert(
            line,
            Mshr {
                loads: vec![(token, word)],
            },
        );
        let dst = self.home_bank(line);
        self.send(
            now,
            c,
            dst,
            Msg::GetS {
                core: CoreId(c),
                line,
            },
        );
    }

    /// Issues a store for `core`; a `StoreDone` event follows (possibly
    /// after bounces). At most one store may be outstanding per core (the
    /// TSO write buffer drains one at a time).
    ///
    /// # Panics
    ///
    /// Panics if the core already has a store in flight.
    pub fn issue_store(&mut self, now: Cycle, core: CoreId, addr: Addr, value: u64) -> Token {
        self.issue_write(now, core, addr, value, StoreKind::Plain)
    }

    /// Issues an atomic read-modify-write; an `RmwDone` event follows.
    /// RMWs never carry an Order bit (they are not pre-fence writes of a
    /// weak fence in any of the paper's designs).
    ///
    /// # Panics
    ///
    /// Panics if the core already has a store in flight.
    pub fn issue_rmw(&mut self, now: Cycle, core: CoreId, addr: Addr, op: RmwKind) -> Token {
        self.issue_write(now, core, addr, 0, StoreKind::Rmw(op))
    }

    fn issue_write(
        &mut self,
        now: Cycle,
        core: CoreId,
        addr: Addr,
        value: u64,
        kind: StoreKind,
    ) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        let line = self.line_of(addr);
        let word = self.word_of(addr);
        let c = core.0;
        assert!(
            !self.ports[c].pending_stores.contains_key(&line),
            "{core}: one store transaction per line at a time"
        );

        if self.try_local_write(now, c, token, line, word, value, kind) {
            return token;
        }

        self.ports[c].counters.l1_misses += 1;
        let deferred = self.ports[c].mshrs.contains_key(&line);
        self.ports[c].pending_stores.insert(
            line,
            PendingStore {
                token,
                line,
                word,
                kind,
                value,
                attempt: 0,
                bounced_once: false,
                deferred,
                waiting_loads: Vec::new(),
            },
        );
        if !deferred {
            self.send_store_request(now, c, line);
        }
        token
    }

    /// Whether `core` has a write transaction in flight on `line`.
    pub fn store_pending_on(&self, core: CoreId, line: LineAddr) -> bool {
        self.ports[core.0].pending_stores.contains_key(&line)
    }

    /// Attempts to complete a write as a writable L1 hit. Returns whether
    /// it succeeded (completion event scheduled).
    #[allow(clippy::too_many_arguments)]
    fn try_local_write(
        &mut self,
        now: Cycle,
        c: usize,
        token: Token,
        line: LineAddr,
        word: u8,
        value: u64,
        kind: StoreKind,
    ) -> bool {
        let port = &mut self.ports[c];
        let Some(l) = port.l1.lookup(line) else {
            return false;
        };
        if !l.state.writable() {
            return false;
        }
        let old = l.data[word as usize];
        let wrote = match kind {
            StoreKind::Plain => {
                l.data[word as usize] = value;
                true
            }
            StoreKind::Rmw(op) => match op.apply(old) {
                Some(new) => {
                    l.data[word as usize] = new;
                    true
                }
                None => false,
            },
        };
        if wrote {
            l.state = L1State::M;
        }
        port.counters.l1_hits += 1;
        let rmw_old = matches!(kind, StoreKind::Rmw(_)).then_some(old);
        self.schedule(
            now + self.cfg.l1_hit_cycles,
            c,
            LocalEv::StoreHit { token, rmw_old },
        );
        true
    }

    fn send_store_request(&mut self, now: Cycle, c: usize, line: LineAddr) {
        let (line, update, order, attempt) = {
            let ps = self.ports[c]
                .pending_stores
                .get(&line)
                .expect("pending store");
            let order = match ps.kind {
                StoreKind::Plain if ps.attempt > 0 => self.ports[c].order_mode,
                _ => OrderMode::None,
            };
            let update = match ps.kind {
                StoreKind::Plain => Some(WordUpdate {
                    word: ps.word,
                    value: ps.value,
                }),
                StoreKind::Rmw(_) => None,
            };
            (ps.line, update, order, ps.attempt)
        };
        let dst = self.home_bank(line);
        self.send(
            now,
            c,
            dst,
            Msg::GetX {
                core: CoreId(c),
                line,
                update,
                order,
                attempt,
            },
        );
    }

    // ------------------------------------------------------------------
    // Fence-machinery hooks used by the core model
    // ------------------------------------------------------------------

    /// Sets the Order mode applied to this core's bounced-store retries
    /// (WS+ sets `Order` when a weak fence dispatches; SW+ sets
    /// `CondOrder`; W+ and S+ leave it `None`).
    pub fn set_order_mode(&mut self, core: CoreId, mode: OrderMode) {
        self.ports[core.0].order_mode = mode;
    }

    /// Inserts an early-completed access into the Bypass Set. Returns
    /// `false` on overflow.
    pub fn bs_insert(&mut self, core: CoreId, line: LineAddr, word_mask: u32, epoch: u64) -> bool {
        self.ports[core.0].bs.insert(line, word_mask, epoch)
    }

    /// Clears Bypass-Set entries belonging to fences with serial
    /// `<= completed_epoch`.
    pub fn bs_clear_completed(&mut self, core: CoreId, completed_epoch: u64) {
        self.ports[core.0].bs.clear_completed(completed_epoch);
    }

    /// Empties the Bypass Set (W+ rollback).
    pub fn bs_clear_all(&mut self, core: CoreId) {
        self.ports[core.0].bs.clear_all();
    }

    /// Current Bypass-Set size.
    pub fn bs_len(&self, core: CoreId) -> usize {
        self.ports[core.0].bs.len()
    }

    /// Distinct lines currently in the Bypass Set.
    pub fn bs_distinct_lines(&self, core: CoreId) -> usize {
        self.ports[core.0].bs.distinct_lines()
    }

    /// Peak Bypass-Set occupancy.
    pub fn bs_peak(&self, core: CoreId) -> usize {
        self.ports[core.0].bs.peak()
    }

    /// Returns and clears the "this Bypass Set bounced something" flag
    /// (half of the W+ timeout condition).
    pub fn bs_take_bounced_flag(&mut self, core: CoreId) -> bool {
        self.ports[core.0].bs.take_bounced_flag()
    }

    /// Node hosting the centralized GRT. The paper argues a *distributed*
    /// GRT cannot be read consistently ("we believe that the problem is
    /// still unsolved", §2.3), so the Wee comparison point idealizes it
    /// as a single table — deposit-and-read is one atomic visit, which
    /// guarantees that of two colliding fences at least one observes the
    /// other's Pending Set.
    pub const GRT_HOME: usize = 0;

    /// Wee: deposit `ps` at the GRT and fetch the other cores' Pending
    /// Sets; a [`MemEvent::WeeArmed`] event follows unless the fence
    /// completes, or the core registers a younger fence, first.
    pub fn wee_register(&mut self, now: Cycle, core: CoreId, fence_serial: u64, ps: &[LineAddr]) {
        self.ports[core.0].wee_arming = Some(fence_serial);
        self.grt.register(core.0, fence_serial, ps);
        let lines = ps.len();
        let deposit = Msg::GrtDepositAndRead {
            core,
            fence_serial,
            lines,
        };
        self.send(now, core.0, Self::GRT_HOME, deposit);
    }

    /// Wee: the remote Pending-Set lines, sorted and deduplicated, that
    /// the [`MemEvent::WeeArmed`] of `fence_serial` arms against. Valid
    /// until `core` registers its next fence.
    pub fn wee_remote(&self, core: CoreId, fence_serial: u64) -> &[LineAddr] {
        self.grt.remote(core.0, fence_serial)
    }

    /// Wee: remove a completed fence's Pending Set from the GRT.
    pub fn wee_unregister(&mut self, now: Cycle, core: CoreId, fence_serial: u64) {
        // Drop the pending arming only if it belongs to this fence (a
        // younger fence may be mid-arming).
        self.ports[core.0]
            .wee_arming
            .take_if(|s| *s == fence_serial);
        self.send(
            now,
            core.0,
            Self::GRT_HOME,
            Msg::GrtRemove { core, fence_serial },
        );
    }

    // ------------------------------------------------------------------
    // Event consumption and introspection
    // ------------------------------------------------------------------

    /// Pops the next event for `core`, if any.
    pub fn pop_event(&mut self, core: CoreId) -> Option<MemEvent> {
        self.ports[core.0].events.pop_front()
    }

    /// Per-core memory counters.
    pub fn counters(&self, core: CoreId) -> &MemCounters {
        &self.ports[core.0].counters
    }

    /// Network traffic counters.
    pub fn traffic(&self) -> &TrafficStats {
        self.net.traffic()
    }

    /// Whether nothing is in flight anywhere in the memory system.
    pub fn is_idle(&self) -> bool {
        self.net.is_idle()
            && self.local.is_empty()
            && self.banks.iter().all(|b| b.is_idle())
            && self
                .ports
                .iter()
                .all(|p| p.pending_stores.is_empty() && p.mshrs.is_empty())
    }

    /// Reads a word's globally-visible value (testing back door): the
    /// owner's copy if any L1 holds the line E/M, else the home bank's
    /// memory image.
    pub fn backdoor_read(&self, addr: Addr) -> u64 {
        let line = self.line_of(addr);
        let word = self.word_of(addr) as usize;
        for p in &self.ports {
            if let Some(l) = p.l1.peek(line) {
                if matches!(l.state, L1State::M | L1State::E) {
                    return l.data[word];
                }
            }
        }
        self.banks[self.home_bank(line)].backdoor_read(line, word)
    }

    /// Writes a word directly into memory (initialization; caches must not
    /// hold the line yet).
    pub fn backdoor_write(&mut self, addr: Addr, value: u64) {
        let line = self.line_of(addr);
        let word = self.word_of(addr) as usize;
        let bank = self.home_bank(line);
        self.banks[bank].backdoor_write(line, word, value);
    }

    /// Like [`MemSystem::backdoor_write`], but also installs the line in
    /// the home L2 bank — data the program touched before the measured
    /// region starts.
    pub fn backdoor_write_warm(&mut self, addr: Addr, value: u64) {
        let line = self.line_of(addr);
        let word = self.word_of(addr) as usize;
        let bank = self.home_bank(line);
        self.banks[bank].backdoor_write(line, word, value);
        self.banks[bank].warm_l2(line);
    }

    // ------------------------------------------------------------------
    // Per-cycle advance
    // ------------------------------------------------------------------

    /// Advances the memory system to cycle `now`: fires due local events
    /// and processes every message arriving by `now`.
    pub fn tick(&mut self, now: Cycle) {
        loop {
            let fired_local = if let Some(Reverse((t, ..))) = self.local.peek() {
                if *t <= now {
                    let Reverse((_, _, core, slot)) = self.local.pop().expect("peeked");
                    self.fire_local(now, core, slot.0);
                    true
                } else {
                    false
                }
            } else {
                false
            };
            let delivered = if let Some((node, msg)) = self.net.pop_arrival(now) {
                self.dispatch(now, node, msg);
                true
            } else {
                false
            };
            if !fired_local && !delivered {
                break;
            }
        }
    }

    fn fire_local(&mut self, now: Cycle, core: usize, ev: LocalEv) {
        match ev {
            LocalEv::LoadHit { token, line, word } => {
                // Re-check: the line may have been invalidated since issue.
                let value = self.ports[core]
                    .l1
                    .peek(line)
                    .map(|l| l.data[word as usize]);
                match value {
                    Some(v) => self.ports[core]
                        .events
                        .push_back(MemEvent::LoadDone { token, value: v }),
                    None => {
                        self.ports[core].counters.l1_misses += 1;
                        self.start_load_miss(now, core, token, line, word);
                    }
                }
            }
            LocalEv::StoreHit { token, rmw_old } => {
                let ev = match rmw_old {
                    Some(old) => MemEvent::RmwDone { token, old },
                    None => MemEvent::StoreDone { token },
                };
                self.ports[core].events.push_back(ev);
            }
            LocalEv::RetryStore { line } => {
                if self.ports[core].pending_stores.contains_key(&line) {
                    self.send_store_request(now, core, line);
                }
            }
            LocalEv::RetryLoad { line } => {
                if self.ports[core].mshrs.contains_key(&line) {
                    let dst = self.home_bank(line);
                    self.send(
                        now,
                        core,
                        dst,
                        Msg::GetS {
                            core: CoreId(core),
                            line,
                        },
                    );
                }
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, node: usize, msg: Msg) {
        match msg {
            Msg::GetS { .. }
            | Msg::GetX { .. }
            | Msg::PutM { .. }
            | Msg::InvAck { .. }
            | Msg::DowngradeAck { .. }
            | Msg::Unblock { .. } => {
                let mut outs = std::mem::take(&mut self.scratch);
                self.banks[node].handle_into(msg, &mut outs);
                for o in outs.drain(..) {
                    self.send_from_node(now + o.delay, node, o.dst, o.msg);
                }
                self.scratch = outs;
            }
            Msg::GrtDepositAndRead {
                core, fence_serial, ..
            } => {
                debug_assert_eq!(node, Self::GRT_HOME);
                let lines = self.grt.deposit(core.0, fence_serial);
                let reply = Msg::GrtReply {
                    fence_serial,
                    lines,
                };
                self.send_from_node(now + 1, node, core.0, reply);
            }
            Msg::GrtRemove { core, fence_serial } => self.grt.remove(core.0, fence_serial),
            Msg::DataS { line, data } => {
                self.handle_fill(now, node, line, data, L1State::S);
                self.send_unblock(now, node, line);
            }
            Msg::DataE { line, data } => {
                self.handle_fill(now, node, line, data, L1State::E);
                self.send_unblock(now, node, line);
            }
            Msg::DataM { line, data } => {
                self.complete_pending_store(now, node, line, data, false);
                self.send_unblock(now, node, line);
            }
            Msg::OrderDone { line, data } => {
                self.complete_pending_store(now, node, line, data, true);
                self.send_unblock(now, node, line);
            }
            Msg::NackBounce { line } => self.handle_bounce(now, node, line),
            Msg::NackBusy { line } => self.handle_busy_nack(now, node, line),
            Msg::GrtReply { fence_serial, .. } => {
                let port = &mut self.ports[node];
                // A completed or displaced fence's reply is stale.
                if port.wee_arming.take_if(|s| *s == fence_serial).is_some() {
                    port.events.push_back(MemEvent::WeeArmed { fence_serial });
                }
            }
            Msg::Inv {
                line,
                requester,
                order,
                word_mask,
            } => self.handle_inv(now, node, line, requester, order, word_mask),
            Msg::FetchDowngrade { line } => self.handle_fetch_downgrade(now, node, line),
        }
    }

    /// Sends a message a node's directory or GRT produced, at cycle `at`.
    /// Unlike [`Self::send`] this asks the oracle nothing and traces
    /// nothing.
    fn send_from_node(&mut self, at: Cycle, node: usize, dst: usize, msg: Msg) {
        let bytes = msg_bytes(&msg, self.cfg.line_bytes);
        let retry = msg_is_retry(&msg);
        self.net.send(at, node, dst, bytes, retry, msg);
    }

    /// Confirms a data grant so the directory releases the line.
    fn send_unblock(&mut self, now: Cycle, core: usize, line: LineAddr) {
        let dst = self.home_bank(line);
        self.send(
            now,
            core,
            dst,
            Msg::Unblock {
                core: CoreId(core),
                line,
            },
        );
    }

    /// Inserts a filled line, handling any eviction (writeback, keep-as-
    /// sharer, squash notification).
    fn fill_line(
        &mut self,
        now: Cycle,
        core: usize,
        line: LineAddr,
        state: L1State,
        data: LineData,
    ) {
        let evicted = self.ports[core].l1.insert(line, state, data);
        if let Some(ev) = evicted {
            self.ports[core]
                .events
                .push_back(MemEvent::InvSeen { line: ev.line });
            if let Some(dirty) = ev.dirty {
                // Paper §5.1: a dirty eviction whose address is in the BS
                // asks the directory to keep this node as sharer.
                let keep = self.ports[core].bs.holds_line(ev.line);
                let dst = self.home_bank(ev.line);
                self.send(
                    now,
                    core,
                    dst,
                    Msg::PutM {
                        core: CoreId(core),
                        line: ev.line,
                        data: dirty,
                        keep_sharer: keep,
                    },
                );
            }
        }
    }

    fn handle_fill(
        &mut self,
        now: Cycle,
        core: usize,
        line: LineAddr,
        data: LineData,
        state: L1State,
    ) {
        let mshr = self.ports[core].mshrs.remove(&line);
        self.fill_line(now, core, line, state, data);
        if let Some(m) = mshr {
            for (token, word) in m.loads {
                let value = self.ports[core]
                    .l1
                    .peek(line)
                    .map(|l| l.data[word as usize])
                    .unwrap_or(0);
                self.ports[core]
                    .events
                    .push_back(MemEvent::LoadDone { token, value });
            }
        }
        // A store deferred behind this fill can now proceed.
        let deferred = self.ports[core]
            .pending_stores
            .get(&line)
            .is_some_and(|ps| ps.deferred);
        if deferred {
            let ps = self.ports[core]
                .pending_stores
                .get_mut(&line)
                .expect("deferred");
            ps.deferred = false;
            let (token, word, value, kind) = (ps.token, ps.word, ps.value, ps.kind);
            let writable = self.ports[core]
                .l1
                .peek(line)
                .is_some_and(|l| l.state.writable());
            if writable {
                let waiting = self.ports[core]
                    .pending_stores
                    .remove(&line)
                    .expect("deferred")
                    .waiting_loads;
                let ok = self.try_local_write(now, core, token, line, word, value, kind);
                debug_assert!(ok, "writable line must accept the write");
                for (t, w) in waiting {
                    let v = self.ports[core]
                        .l1
                        .peek(line)
                        .map(|l| l.data[w as usize])
                        .unwrap_or(0);
                    self.ports[core]
                        .events
                        .push_back(MemEvent::LoadDone { token: t, value: v });
                }
            } else {
                self.send_store_request(now, core, line);
            }
        }
    }

    fn complete_pending_store(
        &mut self,
        now: Cycle,
        core: usize,
        line: LineAddr,
        data: LineData,
        order_completion: bool,
    ) {
        let mut ps = self.ports[core]
            .pending_stores
            .remove(&line)
            .expect("pending store");
        debug_assert_eq!(ps.line, line);
        let mut data = data;
        let old = data[ps.word as usize];
        let mut dirty = false;
        match ps.kind {
            StoreKind::Plain => {
                if !order_completion {
                    data[ps.word as usize] = ps.value;
                    dirty = true;
                }
                // Order completion: the directory already merged the
                // update; the returned data is post-merge and the line
                // stays Shared here.
            }
            StoreKind::Rmw(op) => {
                if let Some(new) = op.apply(old) {
                    data[ps.word as usize] = new;
                    dirty = true;
                }
            }
        }
        let state = if order_completion {
            L1State::S
        } else if dirty {
            L1State::M
        } else {
            L1State::E
        };
        if order_completion {
            let conditional = self.ports[core].order_mode == OrderMode::CondOrder;
            trace_event!(
                self.trace.as_mut(),
                now,
                CoreId(core),
                TraceKind::OrderComplete { line, conditional }
            );
        }
        self.fill_line(now, core, line, state, data);
        let done_ev = match ps.kind {
            StoreKind::Plain => MemEvent::StoreDone { token: ps.token },
            StoreKind::Rmw(_) => MemEvent::RmwDone {
                token: ps.token,
                old,
            },
        };
        self.ports[core].events.push_back(done_ev);
        let waiting = std::mem::take(&mut ps.waiting_loads);
        for (token, word) in waiting {
            let value = self.ports[core]
                .l1
                .peek(line)
                .map(|l| l.data[word as usize])
                .unwrap_or(0);
            self.ports[core]
                .events
                .push_back(MemEvent::LoadDone { token, value });
        }
    }

    fn handle_bounce(&mut self, now: Cycle, core: usize, line: LineAddr) {
        let (token, attempt) = {
            let port = &mut self.ports[core];
            let Some(ps) = port.pending_stores.get_mut(&line) else {
                return; // stale
            };
            ps.attempt += 1;
            if !ps.bounced_once {
                ps.bounced_once = true;
                port.counters.writes_bounced += 1;
            }
            port.counters.bounce_retries += 1;
            (ps.token, ps.attempt)
        };
        self.fence_event(now, CoreId(core), TraceKind::StoreBounce { line, attempt });
        self.ports[core]
            .events
            .push_back(MemEvent::StoreBounced { token });
        self.schedule(
            now + self.cfg.bounce_retry_cycles,
            core,
            LocalEv::RetryStore { line },
        );
    }

    fn handle_busy_nack(&mut self, now: Cycle, core: usize, line: LineAddr) {
        trace_event!(
            self.trace.as_mut(),
            now,
            CoreId(core),
            TraceKind::DirNack { line }
        );
        let is_store = self.ports[core]
            .pending_stores
            .get(&line)
            .is_some_and(|ps| !ps.deferred);
        if is_store {
            self.schedule(now + BUSY_RETRY_CYCLES, core, LocalEv::RetryStore { line });
        } else if self.ports[core].mshrs.contains_key(&line) {
            self.schedule(now + BUSY_RETRY_CYCLES, core, LocalEv::RetryLoad { line });
        }
    }

    fn handle_inv(
        &mut self,
        now: Cycle,
        core: usize,
        line: LineAddr,
        _requester: CoreId,
        order: OrderMode,
        word_mask: u32,
    ) {
        let m = self.ports[core].bs.check(line, word_mask);
        let dst = self.home_bank(line);
        if m.line_match && order == OrderMode::None {
            // Bounce: keep the cached copy, reject the write.
            self.ports[core].bs.note_bounce();
            trace_event!(
                self.trace.as_mut(),
                now,
                CoreId(core),
                TraceKind::BsHit { line }
            );
            self.send(
                now,
                core,
                dst,
                Msg::InvAck {
                    core: CoreId(core),
                    line,
                    bounced: true,
                    keep_sharer: false,
                    true_share: false,
                    data: None,
                },
            );
            return;
        }
        let present = self.ports[core].l1.peek(line).is_some();
        let dirty = self.ports[core].l1.invalidate(line);
        if present {
            self.ports[core]
                .events
                .push_back(MemEvent::InvSeen { line });
        }
        let true_share = order == OrderMode::CondOrder && m.word_match;
        self.send(
            now,
            core,
            dst,
            Msg::InvAck {
                core: CoreId(core),
                line,
                bounced: false,
                keep_sharer: m.line_match,
                true_share,
                data: dirty,
            },
        );
    }

    fn handle_fetch_downgrade(&mut self, now: Cycle, core: usize, line: LineAddr) {
        let data = self.ports[core].l1.downgrade(line).flatten();
        let dst = self.home_bank(line);
        self.send(
            now,
            core,
            dst,
            Msg::DowngradeAck {
                core: CoreId(core),
                line,
                data,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(cores: usize) -> MachineConfig {
        MachineConfig::builder().cores(cores).build()
    }

    fn ms(cores: usize) -> MemSystem {
        MemSystem::new(&cfg(cores))
    }

    /// Ticks until an event arrives for `core` or `limit` cycles pass.
    fn next_event(m: &mut MemSystem, core: usize, start: Cycle, limit: u64) -> (Cycle, MemEvent) {
        for t in start..start + limit {
            m.tick(t);
            if let Some(e) = m.pop_event(CoreId(core)) {
                return (t, e);
            }
        }
        panic!("no event for core {core} within {limit} cycles");
    }

    #[test]
    fn cold_load_fetches_from_memory() {
        let mut m = ms(2);
        m.backdoor_write(Addr::new(0x40), 99);
        let tok = m.issue_load(0, CoreId(0), Addr::new(0x40));
        let (t, ev) = next_event(&mut m, 0, 0, 1000);
        assert_eq!(
            ev,
            MemEvent::LoadDone {
                token: tok,
                value: 99
            }
        );
        assert!(
            t >= 200,
            "cold miss must pay the memory round trip, got {t}"
        );
        assert_eq!(m.counters(CoreId(0)).l1_misses, 1);
    }

    #[test]
    fn second_load_hits_in_l1() {
        let mut m = ms(2);
        let tok = m.issue_load(0, CoreId(0), Addr::new(0x40));
        let (t0, _) = next_event(&mut m, 0, 0, 1000);
        let tok2 = m.issue_load(t0 + 1, CoreId(0), Addr::new(0x48));
        let (t1, ev) = next_event(&mut m, 0, t0 + 1, 10);
        assert_eq!(
            ev,
            MemEvent::LoadDone {
                token: tok2,
                value: 0
            }
        );
        assert_eq!(t1, t0 + 1 + 2, "L1 hit takes l1_hit_cycles");
        assert_ne!(tok, tok2);
        assert_eq!(m.counters(CoreId(0)).l1_hits, 1);
    }

    #[test]
    fn store_then_remote_load_sees_value() {
        let mut m = ms(2);
        let a = Addr::new(0x100);
        let st = m.issue_store(0, CoreId(0), a, 7);
        let (t0, ev) = next_event(&mut m, 0, 0, 1000);
        assert_eq!(ev, MemEvent::StoreDone { token: st });
        let ld = m.issue_load(t0 + 1, CoreId(1), a);
        let (_, ev) = next_event(&mut m, 1, t0 + 1, 1000);
        assert_eq!(
            ev,
            MemEvent::LoadDone {
                token: ld,
                value: 7
            }
        );
        assert_eq!(m.backdoor_read(a), 7);
    }

    #[test]
    fn remote_store_invalidates_and_notifies_sharer() {
        let mut m = ms(2);
        let a = Addr::new(0x200);
        m.issue_load(0, CoreId(1), a);
        let (t0, _) = next_event(&mut m, 1, 0, 1000);
        m.issue_store(t0 + 1, CoreId(0), a, 5);
        let (_, ev) = next_event(&mut m, 1, t0 + 1, 1000);
        assert_eq!(
            ev,
            MemEvent::InvSeen {
                line: LineAddr::containing(a, 32)
            }
        );
        let (_, ev) = next_event(&mut m, 0, t0 + 1, 1000);
        assert!(matches!(ev, MemEvent::StoreDone { .. }));
        assert_eq!(m.backdoor_read(a), 5);
    }

    #[test]
    fn bypass_set_bounces_remote_store_until_cleared() {
        let mut m = ms(2);
        let a = Addr::new(0x300);
        let line = LineAddr::containing(a, 32);
        // Core 1 reads the line and puts it in its BS (early-completed
        // post-fence read).
        m.issue_load(0, CoreId(1), a);
        let (t0, _) = next_event(&mut m, 1, 0, 1000);
        assert!(m.bs_insert(CoreId(1), line, 0b0001, 1));
        // Core 0 tries to write: bounced.
        let st = m.issue_store(t0 + 1, CoreId(0), a, 9);
        let (t1, ev) = next_event(&mut m, 0, t0 + 1, 1000);
        assert_eq!(ev, MemEvent::StoreBounced { token: st });
        assert_eq!(m.counters(CoreId(0)).writes_bounced, 1);
        // Still bouncing while the BS entry lives.
        let (t2, ev) = next_event(&mut m, 0, t1 + 1, 1000);
        assert_eq!(ev, MemEvent::StoreBounced { token: st });
        assert!(m.bs_take_bounced_flag(CoreId(1)));
        // Fence completes: BS cleared; the store goes through.
        m.bs_clear_completed(CoreId(1), 1);
        let (_, ev) = next_event(&mut m, 0, t2 + 1, 2000);
        assert_eq!(ev, MemEvent::StoreDone { token: st });
        assert_eq!(m.backdoor_read(a), 9);
        assert!(m.counters(CoreId(0)).bounce_retries >= 2);
    }

    #[test]
    fn order_mode_pushes_write_past_bypass_set() {
        let mut m = ms(2);
        let a = Addr::new(0x340);
        let line = LineAddr::containing(a, 32);
        m.issue_load(0, CoreId(1), a);
        let (t0, _) = next_event(&mut m, 1, 0, 1000);
        m.bs_insert(CoreId(1), line, 0b0001, 1);
        m.set_order_mode(CoreId(0), OrderMode::Order);
        let st = m.issue_store(t0 + 1, CoreId(0), a, 4);
        // First attempt bounces; the retry carries the Order bit and
        // completes, with core 1 kept as a sharer.
        let (t1, ev) = next_event(&mut m, 0, t0 + 1, 1000);
        assert_eq!(ev, MemEvent::StoreBounced { token: st });
        let (_, ev) = next_event(&mut m, 0, t1 + 1, 2000);
        assert_eq!(ev, MemEvent::StoreDone { token: st });
        assert_eq!(m.backdoor_read(a), 4);
        // Core 1's copy was invalidated by the Order.
        let (_, ev) = next_event(&mut m, 1, t1 + 1, 2000);
        assert_eq!(ev, MemEvent::InvSeen { line });
    }

    #[test]
    fn cond_order_true_share_keeps_bouncing_false_share_completes() {
        let mut m = ms(2);
        let a = Addr::new(0x380); // word 0 of its line
        let line = LineAddr::containing(a, 32);
        m.issue_load(0, CoreId(1), a);
        let (t0, _) = next_event(&mut m, 1, 0, 1000);
        // True sharing: BS holds word 0, store writes word 0.
        m.bs_insert(CoreId(1), line, 0b0001, 1);
        m.set_order_mode(CoreId(0), OrderMode::CondOrder);
        let st = m.issue_store(t0 + 1, CoreId(0), a, 3);
        let (t1, ev) = next_event(&mut m, 0, t0 + 1, 1000);
        assert_eq!(ev, MemEvent::StoreBounced { token: st }, "plain first try");
        let (t2, ev) = next_event(&mut m, 0, t1 + 1, 1000);
        assert_eq!(
            ev,
            MemEvent::StoreBounced { token: st },
            "CO fails on true share"
        );
        // Clear the BS (fence completed): next CO retry completes.
        m.bs_clear_completed(CoreId(1), 1);
        let (_, ev) = next_event(&mut m, 0, t2 + 1, 2000);
        assert_eq!(ev, MemEvent::StoreDone { token: st });

        // False sharing: BS holds word 3 of another line, store to word 0.
        // Drain core 1's stale notifications (the Order invalidation).
        while m.pop_event(CoreId(1)).is_some() {}
        let b = Addr::new(0x3c0);
        let bline = LineAddr::containing(b, 32);
        let ld = m.issue_load(1000, CoreId(1), b);
        let mut t3 = 1000;
        'outer: for t in 1000..3000 {
            m.tick(t);
            while let Some(ev) = m.pop_event(CoreId(1)) {
                if matches!(ev, MemEvent::LoadDone { token, .. } if token == ld) {
                    t3 = t;
                    break 'outer;
                }
            }
        }
        assert!(t3 > 1000, "load must complete");
        m.bs_insert(CoreId(1), bline, 0b1000, 2);
        let st2 = m.issue_store(t3 + 1, CoreId(0), b, 8);
        let (t4, ev) = next_event(&mut m, 0, t3 + 1, 1000);
        assert_eq!(ev, MemEvent::StoreBounced { token: st2 });
        let (_, ev) = next_event(&mut m, 0, t4 + 1, 2000);
        assert_eq!(
            ev,
            MemEvent::StoreDone { token: st2 },
            "false share completes as Order"
        );
    }

    #[test]
    fn rmw_swap_returns_old_value() {
        let mut m = ms(2);
        let a = Addr::new(0x400);
        m.backdoor_write(a, 11);
        let tok = m.issue_rmw(0, CoreId(0), a, RmwKind::Swap(22));
        let (_, ev) = next_event(&mut m, 0, 0, 1000);
        assert_eq!(
            ev,
            MemEvent::RmwDone {
                token: tok,
                old: 11
            }
        );
        assert_eq!(m.backdoor_read(a), 22);
    }

    #[test]
    fn rmw_cas_failure_leaves_memory_unchanged() {
        let mut m = ms(2);
        let a = Addr::new(0x440);
        m.backdoor_write(a, 1);
        let tok = m.issue_rmw(0, CoreId(0), a, RmwKind::Cas { expect: 0, new: 5 });
        let (_, ev) = next_event(&mut m, 0, 0, 1000);
        assert_eq!(ev, MemEvent::RmwDone { token: tok, old: 1 });
        assert_eq!(m.backdoor_read(a), 1);
    }

    #[test]
    fn loads_coalesce_behind_pending_store() {
        let mut m = ms(2);
        let a = Addr::new(0x480);
        let st = m.issue_store(0, CoreId(0), a, 6);
        let ld = m.issue_load(1, CoreId(0), a.offset(8));
        let (_, ev) = next_event(&mut m, 0, 0, 1000);
        assert_eq!(ev, MemEvent::StoreDone { token: st });
        let ev = m.pop_event(CoreId(0)).expect("coalesced load completes");
        assert_eq!(
            ev,
            MemEvent::LoadDone {
                token: ld,
                value: 0
            }
        );
    }

    /// Ticks from `start` until the memory system is idle; returns the
    /// next cycle.
    fn settle(m: &mut MemSystem, start: Cycle) -> Cycle {
        for t in start..start + 10_000 {
            m.tick(t);
            if m.is_idle() {
                return t + 1;
            }
        }
        panic!("memory system must quiesce");
    }

    /// The fences `core` was armed for since the last call.
    fn armings(m: &mut MemSystem, core: usize) -> Vec<u64> {
        std::iter::from_fn(|| m.pop_event(CoreId(core)))
            .map(|ev| match ev {
                MemEvent::WeeArmed { fence_serial } => fence_serial,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn lines(raw: &[u64]) -> Vec<LineAddr> {
        raw.iter().map(|&r| LineAddr::from_raw(r)).collect()
    }

    #[test]
    fn grt_deposit_is_invisible_until_it_arrives() {
        // Core 0 sits at the GRT's node and core 3 two hops away: both
        // register at cycle 0, and core 0's deposit arrives first.
        let mut m = ms(4);
        m.wee_register(0, CoreId(3), 1, &lines(&[8]));
        m.wee_register(0, CoreId(0), 1, &lines(&[4]));
        settle(&mut m, 0);
        assert_eq!(armings(&mut m, 0), [1]);
        assert_eq!(armings(&mut m, 3), [1]);
        assert!(
            m.wee_remote(CoreId(0), 1).is_empty(),
            "core 3's deposit was still in flight"
        );
        assert_eq!(m.wee_remote(CoreId(3), 1), lines(&[4]));
    }

    #[test]
    fn grt_keeps_a_cores_open_fences_apart_by_serial() {
        let mut m = ms(2);
        m.wee_register(0, CoreId(0), 1, &lines(&[2]));
        let t = settle(&mut m, 0);
        m.wee_register(t, CoreId(0), 2, &lines(&[6]));
        let t = settle(&mut m, t);
        assert_eq!(armings(&mut m, 0), [1, 2]);
        m.wee_register(t, CoreId(1), 1, &lines(&[9]));
        let t = settle(&mut m, t);
        assert_eq!(m.wee_remote(CoreId(1), 1), lines(&[2, 6]));
        m.wee_unregister(t, CoreId(0), 1);
        let t = settle(&mut m, t);
        m.wee_register(t, CoreId(1), 2, &lines(&[9]));
        settle(&mut m, t);
        assert_eq!(armings(&mut m, 1), [1, 2]);
        assert_eq!(
            m.wee_remote(CoreId(1), 2),
            lines(&[6]),
            "fence 2's lines stay when fence 1's leave"
        );
    }

    #[test]
    fn grt_reply_for_a_finished_fence_arms_nothing() {
        let mut m = ms(2);
        // Core 1's fence completes while its deposit is in flight.
        m.wee_register(0, CoreId(1), 1, &lines(&[3]));
        m.tick(0);
        m.wee_unregister(1, CoreId(1), 1);
        let t = settle(&mut m, 1);
        assert!(armings(&mut m, 1).is_empty(), "the reply is stale");
        // Its lines left the table with it.
        m.wee_register(t, CoreId(0), 1, &lines(&[5]));
        let t = settle(&mut m, t);
        assert_eq!(armings(&mut m, 0), [1]);
        assert!(m.wee_remote(CoreId(0), 1).is_empty());
        // A younger fence's registration displaces an older arming.
        m.wee_register(t, CoreId(1), 2, &lines(&[3]));
        m.wee_register(t, CoreId(1), 3, &lines(&[4]));
        settle(&mut m, t);
        assert_eq!(armings(&mut m, 1), [3]);
    }

    #[test]
    fn grt_remote_set_is_other_cores_lines_sorted_and_deduplicated() {
        let mut m = ms(4);
        m.wee_register(0, CoreId(1), 1, &lines(&[5, 9]));
        m.wee_register(0, CoreId(2), 1, &lines(&[3, 9]));
        m.wee_register(0, CoreId(0), 1, &lines(&[7]));
        let t = settle(&mut m, 0);
        m.wee_register(t, CoreId(0), 2, &lines(&[1]));
        settle(&mut m, t);
        assert_eq!(m.wee_remote(CoreId(0), 2), lines(&[3, 5, 9]));
    }

    #[test]
    fn contended_writes_serialize_with_busy_nacks() {
        let mut m = ms(4);
        let a = Addr::new(0x500);
        // Two cores write the same line simultaneously.
        m.issue_store(0, CoreId(0), a, 1);
        m.issue_store(0, CoreId(1), a.offset(8), 2);
        let mut done = 0;
        for t in 0..5000 {
            m.tick(t);
            for c in 0..2 {
                while let Some(ev) = m.pop_event(CoreId(c)) {
                    if matches!(ev, MemEvent::StoreDone { .. }) {
                        done += 1;
                    }
                }
            }
            if done == 2 {
                break;
            }
        }
        assert_eq!(done, 2, "both writes must eventually complete");
        assert_eq!(m.backdoor_read(a), 1);
        assert_eq!(m.backdoor_read(a.offset(8)), 2);
    }

    #[test]
    fn idle_after_quiescing() {
        let mut m = ms(2);
        assert!(m.is_idle());
        m.issue_load(0, CoreId(0), Addr::new(0x40));
        assert!(!m.is_idle());
        let _ = next_event(&mut m, 0, 0, 1000);
        m.tick(5000);
        assert!(m.is_idle());
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;

    /// A machine with a 2-line L1 so evictions are easy to force.
    fn tiny_l1() -> MemSystem {
        let cfg = MachineConfig::builder()
            .cores(2)
            .tweak(|c| {
                c.l1_bytes = 64; // 2 lines
                c.l1_ways = 2;
            })
            .build();
        MemSystem::new(&cfg)
    }

    fn pump(m: &mut MemSystem, from: Cycle, to: Cycle) {
        for t in from..to {
            m.tick(t);
        }
    }

    #[test]
    fn dirty_eviction_writes_back_and_preserves_data() {
        let mut m = tiny_l1();
        // Dirty line A, then evict it by filling the set.
        let a = Addr::new(0x00);
        m.issue_store(0, CoreId(0), a, 77);
        pump(&mut m, 0, 2_000);
        while m.pop_event(CoreId(0)).is_some() {}
        // Two more lines in the same (only) set force A out.
        m.issue_load(2_000, CoreId(0), Addr::new(0x40));
        pump(&mut m, 2_000, 4_000);
        m.issue_load(4_000, CoreId(0), Addr::new(0x80));
        pump(&mut m, 4_000, 8_000);
        // A's dirty data must have reached memory.
        assert_eq!(m.backdoor_read(a), 77, "writeback preserved the value");
        // And an InvSeen/eviction notice reached the core.
        let mut saw_evict = false;
        while let Some(ev) = m.pop_event(CoreId(0)) {
            if matches!(ev, MemEvent::InvSeen { line } if line == LineAddr::from_raw(0)) {
                saw_evict = true;
            }
        }
        assert!(saw_evict, "eviction notified the core for squash safety");
    }

    #[test]
    fn dirty_eviction_with_bs_keeps_node_as_sharer() {
        // Paper §5.1: a dirty line whose address is in the BS writes back
        // with keep-as-sharer, so future writes still bounce.
        let mut m = tiny_l1();
        let a = Addr::new(0x00);
        m.issue_store(0, CoreId(0), a, 5);
        pump(&mut m, 0, 2_000);
        m.bs_insert(CoreId(0), LineAddr::from_raw(0), 1, 1);
        // Evict A (dirty) while its line sits in the BS.
        m.issue_load(2_000, CoreId(0), Addr::new(0x40));
        pump(&mut m, 2_000, 4_000);
        m.issue_load(4_000, CoreId(0), Addr::new(0x80));
        pump(&mut m, 4_000, 8_000);
        while m.pop_event(CoreId(0)).is_some() {}
        // A remote write must still bounce off core 0's BS.
        let tok = m.issue_store(8_000, CoreId(1), a, 9);
        let mut bounced = false;
        for t in 8_000..40_000 {
            m.tick(t);
            while let Some(ev) = m.pop_event(CoreId(1)) {
                if matches!(ev, MemEvent::StoreBounced { token } if token == tok) {
                    bounced = true;
                }
            }
            if bounced {
                break;
            }
        }
        assert!(
            bounced,
            "keep-as-sharer preserved the bounce after eviction"
        );
        // Clearing the BS lets the write through.
        m.bs_clear_completed(CoreId(0), 1);
        let mut done = false;
        for t in 40_000..120_000 {
            m.tick(t);
            while let Some(ev) = m.pop_event(CoreId(1)) {
                if matches!(ev, MemEvent::StoreDone { token } if token == tok) {
                    done = true;
                }
            }
            if done {
                break;
            }
        }
        assert!(done);
        assert_eq!(m.backdoor_read(a), 9);
    }

    #[test]
    fn clean_eviction_is_silent_but_still_notifies_core() {
        let mut m = tiny_l1();
        let traffic_probe = |m: &MemSystem| m.traffic().messages;
        m.issue_load(0, CoreId(0), Addr::new(0x00));
        pump(&mut m, 0, 2_000);
        m.issue_load(2_000, CoreId(0), Addr::new(0x40));
        pump(&mut m, 2_000, 4_000);
        let before = traffic_probe(&m);
        m.issue_load(4_000, CoreId(0), Addr::new(0x80)); // evicts a clean line
        pump(&mut m, 4_000, 8_000);
        let after = traffic_probe(&m);
        // GetS + DataE + Unblock: exactly three messages — no writeback.
        assert_eq!(after - before, 3, "clean eviction sends no PutM");
    }

    #[test]
    fn load_hit_invalidated_before_completion_is_refetched() {
        // A load hit is scheduled, the line is invalidated in the window,
        // and the load must transparently become a miss with fresh data.
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = MemSystem::new(&cfg);
        let a = Addr::new(0x40);
        m.issue_load(0, CoreId(0), a);
        pump(&mut m, 0, 2_000);
        while m.pop_event(CoreId(0)).is_some() {}
        // Remote store invalidates; local load issued the same cycle hits
        // the stale line but must observe a coherent value either way.
        let st = m.issue_store(2_000, CoreId(1), a, 3);
        let ld = m.issue_load(2_000, CoreId(0), a);
        let mut got = None;
        let mut store_done = false;
        for t in 2_000..40_000 {
            m.tick(t);
            while let Some(ev) = m.pop_event(CoreId(0)) {
                if let MemEvent::LoadDone { token, value } = ev {
                    if token == ld {
                        got = Some(value);
                    }
                }
            }
            while let Some(ev) = m.pop_event(CoreId(1)) {
                if matches!(ev, MemEvent::StoreDone { token } if token == st) {
                    store_done = true;
                }
            }
            if got.is_some() && store_done {
                break;
            }
        }
        let v = got.expect("load completed");
        assert!(v == 0 || v == 3, "value is one of the coherent values");
        assert_eq!(m.backdoor_read(a), 3);
    }
}
