//! The out-of-order core model.
//!
//! A 4-issue core with a reorder buffer, a TSO write buffer that merges
//! one store at a time, speculative loads squashed by conflicting
//! invalidations, and the paper's five fence microarchitectures:
//!
//! * **Strong fence (`sf`)** — holds the ROB head until every pre-fence
//!   store has merged; post-fence loads execute speculatively but stall at
//!   retirement.
//! * **Weak fence (`wf`)** — retires immediately; post-fence loads retire
//!   and complete early, entering the Bypass Set, which bounces
//!   conflicting invalidations until the fence completes. WS+/SW+ arm the
//!   Order / Conditional-Order escape for the core's own bounced writes.
//! * **W+** — all fences weak; a checkpoint is taken at weak-fence
//!   dispatch, and a both-sides-bouncing timeout triggers rollback.
//! * **Wee** — weak fences with one GRT deposit-and-read round trip; a fence
//!   whose Pending Set spans several directory banks demotes to strong,
//!   and post-fence loads stall on RemotePS hits.
//!
//! Loads whose value is forwarded from the local write buffer (or an older
//! in-flight store) retire past fences freely: reading your own earlier
//! store never creates a Shasha–Snir cycle, so no Bypass-Set entry is
//! needed.

use std::collections::VecDeque;
use std::sync::Arc;

use asymfence_coherence::{MemEvent, MemSystem, OrderMode, RmwKind, Token};
use asymfence_common::config::{FenceDesign, MachineConfig};
use asymfence_common::ids::{Addr, CoreId, Cycle, LineAddr};
use asymfence_common::scvlog::ScvLog;
use asymfence_common::stats::{CoreStats, StallKind};
use asymfence_common::trace::{FenceClass, TraceKind};
use asymfence_common::trace_event;

use crate::program::{FenceRole, FenceSite, Fetch, Instr, ThreadProgram};

/// Hardware fence kinds after the design has mapped a role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HwFence {
    /// Conventional fence.
    Strong,
    /// Weak fence (WS+/SW+/W+ flavors differ only in surrounding policy).
    Weak,
    /// WeeFence: weak with the GRT protocol.
    WeeWeak,
}

#[derive(Clone, Debug)]
enum RobKind {
    Load {
        addr: Addr,
        line: LineAddr,
        word_mask: u32,
        token: Option<Token>,
        value: Option<u64>,
        tag: Option<u64>,
        forwarded: bool,
    },
    Store {
        addr: Addr,
        value: u64,
    },
    Rmw {
        addr: Addr,
        op: RmwKind,
        tag: u64,
        token: Option<Token>,
        result: Option<u64>,
    },
    Fence {
        kind: HwFence,
        serial: u64,
    },
    Compute {
        remaining: u64,
    },
}

#[derive(Clone, Debug)]
struct RobEntry {
    kind: RobKind,
    /// Program-order index.
    seq: u64,
    /// Serial of the youngest fence dispatched before this entry.
    fence_epoch: u64,
}

#[derive(Clone, Debug)]
struct WbEntry {
    addr: Addr,
    value: u64,
    serial: u64,
    seq: u64,
    /// Issued to the memory system (token of the transaction).
    issued: Option<Token>,
    /// Earliest cycle the entry may issue (schedule-exploration
    /// perturbation: a deterministic per-store drain stall; 0 when
    /// perturbation is off).
    ready_at: Cycle,
}

#[derive(Clone, Copy, Debug)]
struct ActiveFence {
    serial: u64,
    kind: HwFence,
    /// All stores with serial `<= watermark` must complete.
    watermark: u64,
    /// Wee: GRT reply received (its remote lines are in `wee_remote`).
    armed: bool,
}

struct Checkpoint {
    fence_serial: u64,
    /// Program-order index of the first post-fence instruction.
    seq: u64,
    program: Box<dyn ThreadProgram>,
}

/// One simulated core executing one [`ThreadProgram`].
pub struct Core {
    id: CoreId,
    cfg: Arc<MachineConfig>,
    design: FenceDesign,
    program: Box<dyn ThreadProgram>,
    program_done: bool,
    awaiting_tag: Option<u64>,

    rob: VecDeque<RobEntry>,
    wb: VecDeque<WbEntry>,
    /// Number of write-buffer entries issued to the memory system
    /// (cached count of `wb` entries with `issued.is_some()`, so the
    /// per-cycle drain and the scheduling hint never rescan the buffer).
    wb_inflight: usize,
    /// Cycle of the write buffer's last drain event: a store entering
    /// the empty buffer, a `StoreDone`, or a W+ rollback. Meaningful
    /// only while the buffer is non-empty (see [`Core::wb_stuck_since`]).
    wb_stuck_since: Cycle,
    instr_seq: u64,

    next_store_serial: u64,
    /// All stores with serial <= this have completed (contiguous).
    completed_store_serial: u64,
    /// Out-of-order completions ahead of the contiguous frontier (a
    /// handful of entries at most — kept as a flat list so completions
    /// never touch the heap once the capacity is warm).
    completed_ahead: Vec<u64>,
    /// Tokens of in-flight stores that have been bounced (W+ trigger).
    bounced_inflight: Vec<Token>,
    /// Scratch for write-buffer drain candidates, reused across calls so
    /// issuing a store never allocates.
    issue_scratch: Vec<usize>,

    next_fence_serial: u64,
    last_fence_serial: u64,
    completed_fence_serial: u64,
    active_fences: Vec<ActiveFence>,
    /// Wee: the remote Pending-Set lines each armed fence watches,
    /// tagged with the fence's serial.
    wee_remote: Vec<(u64, LineAddr)>,
    /// Wee: scratch for a fence's Pending Set, reused across fences.
    wee_ps: Vec<LineAddr>,
    orderable_wfs: u64,

    checkpoints: VecDeque<Checkpoint>,
    timeout_count: u64,
    head_store_bounced: bool,
    bs_bounced_flag: bool,
    post_recovery_drain: bool,

    stats: CoreStats,
}

impl Core {
    /// Creates a core running `program` under the machine's fence design.
    pub fn new(id: CoreId, cfg: &MachineConfig, program: Box<dyn ThreadProgram>) -> Self {
        Self::with_shared(id, Arc::new(cfg.clone()), program)
    }

    /// Like [`Core::new`], but sharing an already-counted configuration
    /// (the machine hands one `Arc` to every core instead of cloning the
    /// config per core).
    pub fn with_shared(
        id: CoreId,
        cfg: Arc<MachineConfig>,
        program: Box<dyn ThreadProgram>,
    ) -> Self {
        let design = cfg.fence_design;
        let rob = VecDeque::with_capacity(cfg.rob_entries);
        let wb = VecDeque::with_capacity(cfg.wb_entries);
        let wb_entries = cfg.wb_entries;
        Core {
            id,
            cfg,
            design,
            program,
            program_done: false,
            awaiting_tag: None,
            rob,
            wb,
            wb_inflight: 0,
            wb_stuck_since: 0,
            instr_seq: 0,
            next_store_serial: 1,
            completed_store_serial: 0,
            completed_ahead: Vec::new(),
            bounced_inflight: Vec::new(),
            issue_scratch: Vec::with_capacity(wb_entries),
            next_fence_serial: 1,
            last_fence_serial: 0,
            completed_fence_serial: 0,
            active_fences: Vec::new(),
            wee_remote: Vec::new(),
            wee_ps: Vec::new(),
            orderable_wfs: 0,
            checkpoints: VecDeque::new(),
            timeout_count: 0,
            head_store_bounced: false,
            bs_bounced_flag: false,
            post_recovery_drain: false,
            stats: CoreStats::default(),
        }
    }

    /// Restores the as-new state for machine reuse under `cfg`, running
    /// `program`. Every container keeps its allocation, so a pooled
    /// machine re-arms its cores without touching the heap.
    pub fn reset_with(&mut self, cfg: Arc<MachineConfig>, program: Box<dyn ThreadProgram>) {
        self.design = cfg.fence_design;
        self.cfg = cfg;
        self.program = program;
        self.program_done = false;
        self.awaiting_tag = None;
        self.rob.clear();
        self.wb.clear();
        self.wb_inflight = 0;
        self.wb_stuck_since = 0;
        self.instr_seq = 0;
        self.next_store_serial = 1;
        self.completed_store_serial = 0;
        self.completed_ahead.clear();
        self.bounced_inflight.clear();
        self.issue_scratch.clear();
        self.next_fence_serial = 1;
        self.last_fence_serial = 0;
        self.completed_fence_serial = 0;
        self.active_fences.clear();
        self.wee_remote.clear();
        self.orderable_wfs = 0;
        self.checkpoints.clear();
        self.timeout_count = 0;
        self.head_store_bounced = false;
        self.bs_bounced_flag = false;
        self.post_recovery_drain = false;
        self.stats = CoreStats::default();
    }

    /// Installs `program` on a freshly built or reset core.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the core has already executed anything.
    pub fn set_program(&mut self, program: Box<dyn ThreadProgram>) {
        debug_assert!(
            self.instr_seq == 0 && self.rob.is_empty(),
            "programs install only on fresh cores"
        );
        self.program = program;
        self.program_done = false;
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Approximate bytes of heap capacity retained across resets (for
    /// pool telemetry): the ROB, write buffer, and checkpoint arrays.
    pub fn retained_bytes(&self) -> usize {
        self.rob.capacity() * std::mem::size_of::<RobEntry>()
            + self.wb.capacity() * std::mem::size_of::<WbEntry>()
            + self.checkpoints.capacity() * std::mem::size_of::<Checkpoint>()
            + self.completed_ahead.capacity() * std::mem::size_of::<u64>()
            + self.bounced_inflight.capacity() * std::mem::size_of::<Token>()
            + self.active_fences.capacity() * std::mem::size_of::<ActiveFence>()
            + self.issue_scratch.capacity() * std::mem::size_of::<usize>()
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Statistics with `pending` not-yet-flushed skipped cycles folded
    /// in, as [`Core::account_skipped`] would record them. The machine
    /// defers skip accounting to a per-core counter; this folds that
    /// counter at harvest time without mutating the core, so a run that
    /// stops in the middle of a compute countdown reports the
    /// instructions lock-step ticking would have retired by then.
    pub fn stats_with_skips(&self, pending: u64) -> CoreStats {
        let mut s = self.stats;
        if pending > 0 {
            let (kind, per_cycle) = self.skipped_cycle();
            s.record_cycles(kind, pending);
            s.instrs_retired += per_cycle * pending;
        }
        s
    }

    /// The program this core runs.
    pub fn program(&self) -> &dyn ThreadProgram {
        self.program.as_ref()
    }

    /// Whether the program finished and every buffer drained.
    pub fn is_done(&self) -> bool {
        self.program_done
            && self.rob.is_empty()
            && self.wb.is_empty()
            && self.active_fences.is_empty()
            && !self.post_recovery_drain
    }

    /// Monotonic progress marker for the machine's deadlock watchdog. It
    /// changes only inside [`Core::tick`] and [`Core::account_skipped`],
    /// so comparing it across one tick tells whether that tick made
    /// progress.
    pub fn progress_marker(&self) -> u64 {
        self.stats.instrs_retired + self.completed_store_serial + self.stats.recoveries
    }

    /// Whether a skipped tick of this core is a compute countdown: the
    /// ROB head is a `Compute` block, so each skipped cycle retires
    /// `issue_width` of its units (see [`Core::next_interesting`]). A
    /// skipped cycle of a counting-down core is a progress cycle for the
    /// watchdog; any other skipped cycle is a stall.
    pub fn is_counting_down(&self) -> bool {
        matches!(
            self.rob.front(),
            Some(RobEntry {
                kind: RobKind::Compute { .. },
                ..
            })
        )
    }

    /// The cycle since which the write buffer has held a store without
    /// draining any, or `None` when it is empty. The clock restarts when
    /// a store enters the empty buffer, when any buffered store
    /// completes, and on a W+ rollback, so the machine's watchdog can
    /// tell a store that bounces forever (while this or another core
    /// keeps retiring spin loads) from one that is merely slow.
    pub fn wb_stuck_since(&self) -> Option<Cycle> {
        (!self.wb.is_empty()).then_some(self.wb_stuck_since)
    }

    /// The hardware fence for a fence of `role` at `site`: the per-site
    /// mask's answer when it covers the site (anonymous sites are never
    /// covered), else the role rule; a weak fence under Wee is Wee's own.
    pub(crate) fn resolve_fence(&self, role: FenceRole, site: FenceSite) -> HwFence {
        let weak = self
            .cfg
            .fence_assignment
            .filter(|_| !site.is_anon())
            .and_then(|mask| mask.weak_at(site.raw()))
            .unwrap_or_else(|| role.is_weak_under(self.design));
        match (weak, self.design) {
            (false, _) => HwFence::Strong,
            (true, FenceDesign::Wee) => HwFence::WeeWeak,
            (true, _) => HwFence::Weak,
        }
    }

    fn order_mode(&self) -> OrderMode {
        if self.orderable_wfs == 0 {
            return OrderMode::None;
        }
        match self.design {
            FenceDesign::WsPlus => OrderMode::Order,
            FenceDesign::SwPlus => OrderMode::CondOrder,
            _ => OrderMode::None,
        }
    }

    fn line_of(&self, addr: Addr) -> LineAddr {
        LineAddr::containing(addr, self.cfg.line_bytes)
    }

    fn word_mask_of(&self, addr: Addr) -> u32 {
        addr.word_in_line(self.cfg.line_bytes, self.cfg.word_bytes)
            .mask_bit()
    }

    fn word_addr(&self, addr: Addr) -> u64 {
        addr.raw() / self.cfg.word_bytes * self.cfg.word_bytes
    }

    // ------------------------------------------------------------------
    // Main per-cycle step
    // ------------------------------------------------------------------

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: Cycle, mem: &mut MemSystem, mut scv: Option<&mut ScvLog>) {
        self.drain_mem_events(now, mem, &mut scv);
        self.complete_fences(now, mem);
        let retired = self.retire(now, mem, &mut scv);
        self.drain_write_buffer(now, mem);
        self.check_w_timeout(now, mem, &mut scv);
        if !self.post_recovery_drain {
            self.fetch_dispatch(now, mem);
        } else if self.wb.is_empty() {
            self.post_recovery_drain = false;
        }
        self.account_cycle(retired);
    }

    // ------------------------------------------------------------------
    // Memory events
    // ------------------------------------------------------------------

    fn drain_mem_events(&mut self, now: Cycle, mem: &mut MemSystem, scv: &mut Option<&mut ScvLog>) {
        while let Some(ev) = mem.pop_event(self.id) {
            match ev {
                MemEvent::LoadDone { token, value } => {
                    for e in self.rob.iter_mut() {
                        if let RobKind::Load {
                            token: Some(t),
                            value: v,
                            ..
                        } = &mut e.kind
                        {
                            if *t == token {
                                *v = Some(value);
                                break;
                            }
                        }
                    }
                    // Unknown tokens are stale (squashed/rolled back loads).
                }
                MemEvent::StoreDone { token } => {
                    let hit = self
                        .wb
                        .iter()
                        .position(|w| w.issued == Some(token))
                        .map(|i| {
                            let w = self.wb[i].clone();
                            self.wb.remove(i);
                            self.wb_inflight -= 1;
                            w
                        });
                    if let Some(w) = hit {
                        self.wb_stuck_since = now;
                        self.completed_ahead.push(w.serial);
                        loop {
                            let next = self.completed_store_serial + 1;
                            let Some(pos) = self.completed_ahead.iter().position(|&s| s == next)
                            else {
                                break;
                            };
                            self.completed_ahead.swap_remove(pos);
                            self.completed_store_serial = next;
                        }
                        if let Some(pos) = self.bounced_inflight.iter().position(|&t| t == token) {
                            self.bounced_inflight.swap_remove(pos);
                        }
                        self.head_store_bounced = !self.bounced_inflight.is_empty();
                        if let Some(log) = scv.as_deref_mut() {
                            log.record(self.id.0, self.word_addr(w.addr), true, w.seq);
                        }
                    }
                }
                MemEvent::RmwDone { token, old } => {
                    for e in self.rob.iter_mut() {
                        if let RobKind::Rmw {
                            token: Some(t),
                            result,
                            ..
                        } = &mut e.kind
                        {
                            if *t == token {
                                *result = Some(old);
                                break;
                            }
                        }
                    }
                }
                MemEvent::StoreBounced { token } => {
                    if self.wb.iter().any(|w| w.issued == Some(token)) {
                        if !self.bounced_inflight.contains(&token) {
                            self.bounced_inflight.push(token);
                        }
                        self.head_store_bounced = true;
                    }
                }
                MemEvent::InvSeen { line } => self.squash_speculative_loads(now, mem, line),
                MemEvent::WeeArmed { fence_serial } => {
                    if let Some(f) = self
                        .active_fences
                        .iter_mut()
                        .find(|f| f.serial == fence_serial)
                    {
                        f.armed = true;
                        let remote = mem.wee_remote(self.id, fence_serial);
                        self.wee_remote
                            .extend(remote.iter().map(|&l| (fence_serial, l)));
                    }
                }
            }
        }
    }

    /// Squashes performed-but-unretired loads on an invalidated line: the
    /// value is discarded and the load reissued.
    fn squash_speculative_loads(&mut self, now: Cycle, mem: &mut MemSystem, line: LineAddr) {
        let id = self.id;
        let mut squashed = 0;
        for e in self.rob.iter_mut() {
            if let RobKind::Load {
                addr,
                line: l,
                value,
                token,
                forwarded,
                ..
            } = &mut e.kind
            {
                if *l == line && value.is_some() && !*forwarded {
                    *value = None;
                    *token = Some(mem.issue_load(now, id, *addr));
                    squashed += 1;
                }
            }
        }
        self.stats.load_squashes += squashed;
    }

    // ------------------------------------------------------------------
    // Fence completion
    // ------------------------------------------------------------------

    fn complete_fences(&mut self, now: Cycle, mem: &mut MemSystem) {
        while let Some(front) = self.active_fences.first() {
            if self.completed_store_serial < front.watermark {
                break;
            }
            let f = self.active_fences.remove(0);
            self.finish_fence(now, mem, f);
        }
    }

    fn finish_fence(&mut self, now: Cycle, mem: &mut MemSystem, f: ActiveFence) {
        self.stats.bs_lines_sum += mem.bs_distinct_lines(self.id) as u64;
        self.completed_fence_serial = f.serial;
        let bs_before = mem.bs_len(self.id) as u32;
        mem.bs_clear_completed(self.id, f.serial);
        let evicted = bs_before - mem.bs_len(self.id) as u32;
        if evicted > 0 {
            trace_event!(
                mem.trace_sink(),
                now,
                self.id,
                TraceKind::BsEvict { entries: evicted }
            );
        }
        mem.fence_event(now, self.id, TraceKind::FenceComplete { serial: f.serial });
        if f.kind == HwFence::WeeWeak {
            self.wee_remote.retain(|&(s, _)| s != f.serial);
            mem.wee_unregister(now, self.id, f.serial);
        }
        if f.kind == HwFence::Weak
            && matches!(self.design, FenceDesign::WsPlus | FenceDesign::SwPlus)
        {
            self.orderable_wfs = self.orderable_wfs.saturating_sub(1);
            mem.set_order_mode(self.id, self.order_mode());
        }
        while self
            .checkpoints
            .front()
            .is_some_and(|c| c.fence_serial <= f.serial)
        {
            self.checkpoints.pop_front();
        }
        if self.checkpoints.is_empty() {
            self.timeout_count = 0;
        }
    }

    // ------------------------------------------------------------------
    // Retirement
    // ------------------------------------------------------------------

    /// Retires up to `issue_width` instructions; returns how many retired.
    fn retire(&mut self, now: Cycle, mem: &mut MemSystem, scv: &mut Option<&mut ScvLog>) -> u64 {
        let mut retired = 0u64;
        let width = self.cfg.issue_width as u64;
        while retired < width {
            let Some(head) = self.rob.front() else { break };
            let epoch = head.fence_epoch;
            let seq = head.seq;
            match &head.kind {
                RobKind::Load { value: None, .. } => break, // not performed yet
                RobKind::Load {
                    value: Some(v),
                    tag,
                    line,
                    word_mask,
                    addr,
                    forwarded,
                    ..
                } => {
                    let v = *v;
                    let tag = *tag;
                    let line = *line;
                    let word_mask = *word_mask;
                    let addr = *addr;
                    let forwarded = *forwarded;
                    if !forwarded {
                        match self.load_retire_gate(epoch, line) {
                            LoadGate::Free => {}
                            LoadGate::Early => {
                                if !mem.bs_insert(self.id, line, word_mask, epoch) {
                                    // Bypass Set full: hold until a fence
                                    // completes and space frees up.
                                    self.stats.bs_overflows += 1;
                                    break;
                                }
                                trace_event!(
                                    mem.trace_sink(),
                                    now,
                                    self.id,
                                    TraceKind::BsInsert { line }
                                );
                                self.stats.early_retired_loads += 1;
                            }
                            LoadGate::Stall => break,
                            LoadGate::RemotePsStall => {
                                self.stats.remote_ps_stalls += 1;
                                break;
                            }
                        }
                    }
                    self.rob.pop_front();
                    self.stats.loads += 1;
                    self.stats.instrs_retired += 1;
                    retired += 1;
                    // Forwarded loads are excluded from the SCV log: they
                    // read the core's own store and logically serialize
                    // right after it, but they *perform* early, which
                    // would fabricate reads-before-write edges. Dropping
                    // them only removes edges (never creates cycles).
                    if !forwarded {
                        if let Some(log) = scv.as_deref_mut() {
                            log.record(self.id.0, self.word_addr(addr), false, seq);
                        }
                    }
                    if let Some(t) = tag {
                        self.deliver(t, v);
                    }
                }
                RobKind::Store { addr, value } => {
                    if self.wb.len() >= self.cfg.wb_entries {
                        break; // write buffer full
                    }
                    let addr = *addr;
                    let value = *value;
                    self.rob.pop_front();
                    let serial = self.next_store_serial;
                    self.next_store_serial += 1;
                    let line =
                        asymfence_common::ids::LineAddr::containing(addr, self.cfg.line_bytes);
                    let ready_at = now + mem.wb_drain_stall(self.id, serial, line);
                    if self.wb.is_empty() {
                        self.wb_stuck_since = now;
                    }
                    self.wb.push_back(WbEntry {
                        addr,
                        value,
                        serial,
                        seq,
                        issued: None,
                        ready_at,
                    });
                    self.stats.stores += 1;
                    self.stats.instrs_retired += 1;
                    retired += 1;
                }
                RobKind::Rmw {
                    addr,
                    op,
                    tag,
                    token,
                    result,
                } => {
                    let addr = *addr;
                    let op = *op;
                    let tag = *tag;
                    match (token, result) {
                        (None, _) => {
                            // Full-fence semantics: drain the write buffer
                            // before grabbing the line.
                            if !self.wb.is_empty() {
                                break;
                            }
                            let tok = mem.issue_rmw(now, self.id, addr, op);
                            if let Some(RobEntry {
                                kind: RobKind::Rmw { token, .. },
                                ..
                            }) = self.rob.front_mut()
                            {
                                *token = Some(tok);
                            }
                            break;
                        }
                        (Some(_), None) => break, // waiting for completion
                        (Some(_), Some(old)) => {
                            let old = *old;
                            self.rob.pop_front();
                            self.stats.rmws += 1;
                            self.stats.instrs_retired += 1;
                            retired += 1;
                            if let Some(log) = scv.as_deref_mut() {
                                // An RMW is a read and (usually) a write.
                                log.record(self.id.0, self.word_addr(addr), true, seq);
                            }
                            self.deliver(tag, old);
                        }
                    }
                }
                RobKind::Fence { kind, serial } => {
                    let kind = *kind;
                    let serial = *serial;
                    match self.try_execute_fence(now, mem, kind, serial) {
                        FenceStep::Stall => break,
                        FenceStep::Demote => {
                            // Wee: Pending Set spans several directory
                            // banks; the fence becomes conventional.
                            self.stats.wee_demotions += 1;
                            mem.fence_event(now, self.id, TraceKind::FenceDemote { serial });
                            if let Some(RobEntry {
                                kind: RobKind::Fence { kind, .. },
                                ..
                            }) = self.rob.front_mut()
                            {
                                *kind = HwFence::Strong;
                            }
                            break;
                        }
                        FenceStep::Retire => {
                            self.rob.pop_front();
                            self.stats.instrs_retired += 1;
                            retired += 1;
                        }
                    }
                }
                RobKind::Compute { remaining } => {
                    let take = (*remaining).min(width - retired);
                    retired += take;
                    self.stats.instrs_retired += take;
                    if let Some(RobEntry {
                        kind: RobKind::Compute { remaining },
                        ..
                    }) = self.rob.front_mut()
                    {
                        *remaining -= take;
                        if *remaining == 0 {
                            self.rob.pop_front();
                        } else {
                            break; // still occupying the head this cycle
                        }
                    }
                }
            }
        }
        retired
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.program.deliver(tag, value);
        if self.awaiting_tag == Some(tag) {
            self.awaiting_tag = None;
        }
    }

    /// Executes a fence at the ROB head.
    fn try_execute_fence(
        &mut self,
        now: Cycle,
        mem: &mut MemSystem,
        kind: HwFence,
        serial: u64,
    ) -> FenceStep {
        match kind {
            HwFence::Strong => {
                if !self.wb.is_empty() {
                    return FenceStep::Stall;
                }
                self.stats.sf_count += 1;
                self.completed_fence_serial = serial;
                mem.fence_event(now, self.id, TraceKind::FenceComplete { serial });
                FenceStep::Retire
            }
            HwFence::Weak => {
                self.stats.wf_count += 1;
                self.activate_weak_fence(now, mem, serial, false);
                FenceStep::Retire
            }
            HwFence::WeeWeak => {
                // Pending Set: lines of every buffered (and in-flight)
                // pre-fence store.
                let (ps, lb) = (&mut self.wee_ps, self.cfg.line_bytes);
                ps.clear();
                ps.extend(self.wb.iter().map(|w| LineAddr::containing(w.addr, lb)));
                ps.sort_unstable();
                ps.dedup();
                let home = ps.first().map(|l| mem.home_bank(*l));
                if ps.iter().any(|l| Some(mem.home_bank(*l)) != home) {
                    // Paper §2.3: state spans several directory modules —
                    // the fence turns into a conventional one.
                    return FenceStep::Demote;
                }
                self.stats.wf_count += 1;
                if ps.is_empty() {
                    // Nothing pending: completes immediately, stays weak.
                    self.completed_fence_serial = serial;
                    mem.fence_event(now, self.id, TraceKind::FenceComplete { serial });
                    return FenceStep::Retire;
                }
                mem.wee_register(now, self.id, serial, &self.wee_ps);
                self.activate_weak_fence(now, mem, serial, true);
                FenceStep::Retire
            }
        }
    }

    fn activate_weak_fence(&mut self, now: Cycle, mem: &mut MemSystem, serial: u64, wee: bool) {
        let watermark = self.next_store_serial - 1;
        if self.completed_store_serial >= watermark && !wee {
            // No pending pre-fence stores: already complete.
            self.completed_fence_serial = serial;
            mem.fence_event(now, self.id, TraceKind::FenceComplete { serial });
            if matches!(self.design, FenceDesign::WsPlus | FenceDesign::SwPlus) {
                self.orderable_wfs = self.orderable_wfs.saturating_sub(1);
                mem.set_order_mode(self.id, self.order_mode());
            }
            while self
                .checkpoints
                .front()
                .is_some_and(|c| c.fence_serial <= serial)
            {
                self.checkpoints.pop_front();
            }
            return;
        }
        self.active_fences.push(ActiveFence {
            serial,
            kind: if wee { HwFence::WeeWeak } else { HwFence::Weak },
            watermark,
            armed: !wee,
        });
    }

    /// Decides how a performed load at the ROB head may retire given the
    /// incomplete fences that precede it.
    fn load_retire_gate(&self, epoch: u64, line: LineAddr) -> LoadGate {
        let mut gate = LoadGate::Free;
        for f in &self.active_fences {
            if f.serial > epoch {
                continue;
            }
            match f.kind {
                HwFence::Strong => return LoadGate::Stall,
                HwFence::Weak => gate = LoadGate::Early,
                HwFence::WeeWeak => {
                    if !f.armed {
                        return LoadGate::Stall;
                    }
                    if self.wee_remote.contains(&(f.serial, line)) {
                        return LoadGate::RemotePsStall;
                    }
                    gate = LoadGate::Early;
                }
            }
        }
        gate
    }

    // ------------------------------------------------------------------
    // Write buffer
    // ------------------------------------------------------------------

    fn drain_write_buffer(&mut self, now: Cycle, mem: &mut MemSystem) {
        if self.wb.is_empty() {
            return;
        }
        let width = self.cfg.wb_merge_width;
        let inflight = self.wb_inflight;
        if inflight >= width {
            return;
        }
        // Fences order stores: never issue a store past the oldest
        // incomplete fence's watermark (under TSO's width of 1 this is
        // automatic from FIFO order; wider merge widths need the gate —
        // and it also keeps W+ rollback sound, since no post-fence store
        // can be in flight while its fence is incomplete).
        let bound = self
            .active_fences
            .first()
            .map(|f| f.watermark)
            .unwrap_or(u64::MAX);
        let mut slots = width - inflight;
        let id = self.id;
        let line_bytes = self.cfg.line_bytes;
        let mut issue_list = std::mem::take(&mut self.issue_scratch);
        issue_list.clear();
        for (i, w) in self.wb.iter().enumerate() {
            if slots == 0 {
                break;
            }
            if w.issued.is_some() {
                continue;
            }
            if w.serial > bound {
                break;
            }
            if now < w.ready_at {
                // Perturbation drain stall: TSO (width 1) keeps FIFO
                // order, so younger stores wait behind the stalled head.
                if width == 1 {
                    break;
                }
                continue;
            }
            let line = LineAddr::containing(w.addr, line_bytes);
            // Per-line order: wait for any older same-line store.
            let line_busy = mem.store_pending_on(id, line)
                || self.wb.iter().take(i).any(|p| {
                    p.issued.is_none() && LineAddr::containing(p.addr, line_bytes) == line
                });
            if line_busy {
                if width == 1 {
                    break;
                }
                continue;
            }
            issue_list.push(i);
            slots -= 1;
            if width == 1 {
                break;
            }
        }
        for i in issue_list.drain(..) {
            let (addr, value) = (self.wb[i].addr, self.wb[i].value);
            let token = mem.issue_store(now, id, addr, value);
            self.wb[i].issued = Some(token);
            self.wb_inflight += 1;
        }
        self.issue_scratch = issue_list;
    }

    // ------------------------------------------------------------------
    // W+ timeout and rollback
    // ------------------------------------------------------------------

    fn check_w_timeout(&mut self, now: Cycle, mem: &mut MemSystem, scv: &mut Option<&mut ScvLog>) {
        if self.design != FenceDesign::WPlus {
            return;
        }
        if self.active_fences.is_empty() {
            self.bs_bounced_flag = false;
            self.timeout_count = 0;
            return;
        }
        if mem.bs_take_bounced_flag(self.id) {
            self.bs_bounced_flag = true;
        }
        // Paper: the timeout runs while (1) a pre-fence write is being
        // bounced and (2) the local BS has bounced external requests.
        let suspect =
            self.head_store_bounced && self.bs_bounced_flag && !self.checkpoints.is_empty();
        if suspect {
            self.timeout_count += 1;
            if self.timeout_count >= self.cfg.w_timeout_cycles {
                self.rollback(now, mem, scv);
            }
        } else {
            self.timeout_count = 0;
        }
    }

    fn rollback(&mut self, now: Cycle, mem: &mut MemSystem, scv: &mut Option<&mut ScvLog>) {
        let cp = self.checkpoints.pop_front().expect("checkpoint present");
        self.stats.recoveries += 1;
        mem.fence_event(
            now,
            self.id,
            TraceKind::Rollback {
                serial: cp.fence_serial,
            },
        );
        // The rolled-back accesses architecturally never happened.
        if let Some(log) = scv.as_deref_mut() {
            log.retract(self.id.0, cp.seq);
        }
        self.instr_seq = cp.seq;
        self.program = cp.program;
        self.program_done = false;
        self.awaiting_tag = None;
        self.checkpoints.clear();
        self.rob.clear();
        // Drop post-fence stores that retired into the write buffer but
        // have not merged (they are behind the incomplete pre-fence ones).
        let watermark = self
            .active_fences
            .iter()
            .find(|f| f.serial >= cp.fence_serial)
            .map(|f| f.watermark)
            .unwrap_or(self.next_store_serial - 1);
        self.wb.retain(|w| w.serial <= watermark);
        self.wb_inflight = self.wb.iter().filter(|w| w.issued.is_some()).count();
        self.wb_stuck_since = now;
        self.next_store_serial = watermark + 1;
        self.completed_ahead.retain(|s| *s <= watermark);
        self.bounced_inflight.clear();
        self.active_fences.clear();
        mem.bs_clear_all(self.id);
        self.timeout_count = 0;
        self.head_store_bounced = false;
        self.bs_bounced_flag = false;
        // Resume only after all pre-fence stores drain: the same deadlock
        // cannot recur.
        self.post_recovery_drain = true;
    }

    // ------------------------------------------------------------------
    // Fetch / dispatch
    // ------------------------------------------------------------------

    fn fetch_dispatch(&mut self, now: Cycle, mem: &mut MemSystem) {
        for _ in 0..self.cfg.issue_width {
            if self.program_done || self.awaiting_tag.is_some() {
                return;
            }
            if self.rob.len() >= self.cfg.rob_entries {
                return;
            }
            match self.program.fetch() {
                Fetch::Done => {
                    self.program_done = true;
                    return;
                }
                Fetch::Await => return,
                Fetch::Instr(instr) => self.dispatch(now, mem, instr),
            }
        }
    }

    fn dispatch(&mut self, now: Cycle, mem: &mut MemSystem, instr: Instr) {
        let seq = self.instr_seq;
        self.instr_seq += 1;
        let epoch = self.last_fence_serial;
        let kind = match instr {
            Instr::Load { addr, tag } => {
                if tag.is_some() {
                    self.awaiting_tag = tag;
                }
                let line = self.line_of(addr);
                let word_mask = self.word_mask_of(addr);
                // Store-to-load forwarding from the WB / in-flight store /
                // older ROB stores (same word).
                let fwd = self.forward_value(addr);
                let (token, value, forwarded) = match fwd {
                    Some(v) => (None, Some(v), true),
                    None => (Some(mem.issue_load(now, self.id, addr)), None, false),
                };
                RobKind::Load {
                    addr,
                    line,
                    word_mask,
                    token,
                    value,
                    tag,
                    forwarded,
                }
            }
            Instr::Store { addr, value } => RobKind::Store { addr, value },
            Instr::Rmw { addr, op, tag } => {
                self.awaiting_tag = Some(tag);
                RobKind::Rmw {
                    addr,
                    op,
                    tag,
                    token: None,
                    result: None,
                }
            }
            Instr::Fence { role, site } => {
                let kind = self.resolve_fence(role, site);
                let serial = self.next_fence_serial;
                self.next_fence_serial += 1;
                self.last_fence_serial = serial;
                let class = match kind {
                    HwFence::Strong => FenceClass::Strong,
                    HwFence::Weak => FenceClass::Weak,
                    HwFence::WeeWeak => FenceClass::WeeWeak,
                };
                mem.fence_event(now, self.id, TraceKind::FenceIssue { serial, class });
                if kind == HwFence::Weak {
                    if matches!(self.design, FenceDesign::WsPlus | FenceDesign::SwPlus) {
                        // "If the core then executes a wf, set the O bit of
                        // its currently-bouncing requests."
                        self.orderable_wfs += 1;
                        mem.set_order_mode(self.id, self.order_mode());
                    }
                    if self.design == FenceDesign::WPlus {
                        self.checkpoints.push_back(Checkpoint {
                            fence_serial: serial,
                            seq: self.instr_seq,
                            program: self.program.snapshot(),
                        });
                        trace_event!(
                            mem.trace_sink(),
                            now,
                            self.id,
                            TraceKind::Checkpoint { serial }
                        );
                    }
                }
                RobKind::Fence { kind, serial }
            }
            Instr::Compute { cycles } => RobKind::Compute {
                remaining: cycles.max(1),
            },
        };
        self.rob.push_back(RobEntry {
            kind,
            seq,
            fence_epoch: epoch,
        });
    }

    /// Finds the youngest older store to the same word, if any.
    fn forward_value(&self, addr: Addr) -> Option<u64> {
        let word = self.word_addr(addr);
        // Younger ROB stores are later in the deque; search backwards.
        for e in self.rob.iter().rev() {
            if let RobKind::Store { addr: a, value } = &e.kind {
                if self.word_addr(*a) == word {
                    return Some(*value);
                }
            }
        }
        for w in self.wb.iter().rev() {
            if self.word_addr(w.addr) == word {
                return Some(w.value);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Cycle accounting
    // ------------------------------------------------------------------

    fn account_cycle(&mut self, retired: u64) {
        if retired > 0 {
            self.stats.record_cycle(StallKind::Busy);
        } else {
            self.stats.record_cycle(self.idle_kind());
        }
    }

    /// The stall classification an idle (nothing-retired) cycle of this
    /// core records. Pure, so skipped cycles can be accounted in bulk:
    /// while a core is skippable its architectural state is frozen, and
    /// with it this classification.
    fn idle_kind(&self) -> StallKind {
        if self.is_done() {
            return StallKind::Idle;
        }
        if self.post_recovery_drain {
            return StallKind::Fence;
        }
        match self.rob.front() {
            Some(e) => match &e.kind {
                RobKind::Load {
                    value: Some(_),
                    forwarded,
                    ..
                } if !*forwarded => {
                    // Performed load blocked by the retire gate.
                    StallKind::Fence
                }
                RobKind::Load { .. } => StallKind::Other,
                RobKind::Store { .. } => StallKind::Other, // WB full
                // RMW costs (drain + round trip) are synchronization cost
                // the fence designs cannot remove; keep them out of the
                // fence-stall bucket the paper's figures break down.
                RobKind::Rmw { .. } => StallKind::Other,
                // Strong-fence drain or Wee demotion stall.
                RobKind::Fence { .. } => StallKind::Fence,
                // A Compute dispatched this very cycle (retirement ran
                // before fetch): nothing retired yet.
                RobKind::Compute { .. } => StallKind::Other,
            },
            None => StallKind::Other, // fetch-starved or draining
        }
    }

    // ------------------------------------------------------------------
    // Event-driven scheduling hints
    // ------------------------------------------------------------------

    /// The earliest cycle at or after `now` at which ticking this core
    /// could do anything but count down a compute block — retire a real
    /// instruction, issue, fetch, or complete a fence — assuming no
    /// memory event is pending for it and none arrives in the meantime.
    /// `Cycle::MAX` means only a memory event can wake this core. The
    /// hint is recomputed from live architectural state on every query
    /// (nothing is cached), and it is exact: a tick at any cycle
    /// strictly before the returned value, with an empty event queue,
    /// either is a no-op or, when the ROB head is a `Compute` block with
    /// more than `issue_width` units left and nothing else is due, only
    /// retires `issue_width` of those units. [`Core::account_skipped`]
    /// replays such ticks in bulk.
    pub fn next_interesting(&self, now: Cycle) -> Cycle {
        if self.is_done() {
            return Cycle::MAX;
        }
        // Incomplete fences. W+ consumes the Bypass-Set bounce flag and
        // runs its deadlock-suspicion timeout every cycle while a fence
        // is active — never skip it. For the other designs an active
        // fence changes state only when a pre-fence store completes,
        // and store completions are port events (which force a tick);
        // completion already due means the very next tick acts.
        if !self.active_fences.is_empty() {
            if self.design == FenceDesign::WPlus {
                return now;
            }
            if self.completed_store_serial >= self.active_fences[0].watermark {
                return now;
            }
        }
        if self.post_recovery_drain {
            return if self.wb.is_empty() {
                now // the drain flag clears this cycle
            } else {
                self.wb_wake(now)
            };
        }
        // Fetch/dispatch can make progress this cycle.
        if !self.program_done
            && self.awaiting_tag.is_none()
            && self.rob.len() < self.cfg.rob_entries
        {
            return now;
        }
        let head_wake = match self.rob.front().map(|e| &e.kind) {
            None => Cycle::MAX,
            Some(RobKind::Load { value: Some(_), .. }) => now,
            Some(RobKind::Load { value: None, .. }) => Cycle::MAX, // LoadDone event
            Some(RobKind::Store { .. }) => {
                if self.wb.len() < self.cfg.wb_entries {
                    now
                } else {
                    Cycle::MAX // a StoreDone event frees an entry
                }
            }
            Some(RobKind::Rmw { token: None, .. }) => {
                if self.wb.is_empty() {
                    now // ready to issue
                } else {
                    Cycle::MAX // write buffer drains via events / wb_wake
                }
            }
            Some(RobKind::Rmw {
                result: Some(_), ..
            }) => now,
            Some(RobKind::Rmw { .. }) => Cycle::MAX, // RmwDone event
            Some(RobKind::Fence {
                kind: HwFence::Strong,
                ..
            }) => {
                if self.wb.is_empty() {
                    now
                } else {
                    Cycle::MAX // drains via events / wb_wake
                }
            }
            Some(RobKind::Fence { .. }) => now,
            // The ticks before the one that retires the block's last
            // units only count down.
            Some(RobKind::Compute { remaining }) => {
                now + (remaining - 1) / self.cfg.issue_width as u64
            }
        };
        head_wake.min(self.wb_wake(now))
    }

    /// The earliest cycle a write-buffer drain attempt could issue a
    /// store, considering only timer state (the schedule oracle's
    /// per-store `ready_at` stalls). Entries blocked on in-flight
    /// transactions wake via memory events instead; an unissued entry
    /// already past its timer wakes `now` (the drain must run to
    /// re-evaluate line conflicts).
    fn wb_wake(&self, now: Cycle) -> Cycle {
        if self.wb.is_empty() {
            return Cycle::MAX;
        }
        let width = self.cfg.wb_merge_width;
        if self.wb_inflight >= width {
            return Cycle::MAX; // a StoreDone event frees the slot
        }
        // Mirror the drain's fence gate: stores younger than the oldest
        // incomplete fence's watermark cannot issue until that fence
        // completes, and completion rides on a port event.
        let bound = self
            .active_fences
            .first()
            .map(|f| f.watermark)
            .unwrap_or(u64::MAX);
        let mut wake = Cycle::MAX;
        for w in &self.wb {
            if w.issued.is_some() {
                continue;
            }
            if w.serial > bound {
                break; // the drain stops here too
            }
            wake = wake.min(w.ready_at.max(now));
            if width == 1 {
                break; // TSO: only the oldest unissued entry can issue
            }
        }
        wake
    }

    /// Accounts `n` skipped cycles in one bulk record. A counting-down
    /// core retires `n * issue_width` units of its head compute block
    /// and records `n` busy cycles; any other core records `n` cycles of
    /// its stall kind. Exact: apart from the countdown, the core's state
    /// is frozen while it is skippable, and with it the classification.
    pub fn account_skipped(&mut self, n: u64) {
        let (kind, per_cycle) = self.skipped_cycle();
        let units = per_cycle * n;
        self.stats.record_cycles(kind, n);
        self.stats.instrs_retired += units;
        if let Some(RobEntry {
            kind: RobKind::Compute { remaining },
            ..
        }) = self.rob.front_mut()
        {
            debug_assert!(units < *remaining, "countdown skipped its last tick");
            *remaining -= units;
        }
    }

    /// What one skipped cycle of this core records: its classification
    /// and the compute units it retires (`issue_width` while counting
    /// down, else 0).
    fn skipped_cycle(&self) -> (StallKind, u64) {
        if self.is_counting_down() {
            (StallKind::Busy, self.cfg.issue_width as u64)
        } else {
            (self.idle_kind(), 0)
        }
    }
}

/// Outcome of the load-retirement fence gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LoadGate {
    /// No incomplete preceding fence: retire normally.
    Free,
    /// Weak fences precede: retire early, entering the Bypass Set.
    Early,
    /// Must wait (strong fence or unarmed Wee fence).
    Stall,
    /// Must wait because of a Wee RemotePS hit or foreign-bank address
    /// (counted separately in the statistics).
    RemotePsStall,
}

/// Outcome of executing a fence at the ROB head.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FenceStep {
    /// The fence retires this cycle.
    Retire,
    /// The fence stalls at the head.
    Stall,
    /// Wee only: the fence must be demoted to a strong fence.
    Demote,
}
