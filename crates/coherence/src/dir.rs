//! Directory / L2 bank.
//!
//! Each mesh tile hosts one bank of the shared L2 plus the full-map MESI
//! directory slice for the lines homed there (interleaved by line
//! address).
//!
//! Transactions are serialized per line: while a line has a transaction in
//! flight, new requests are **parked** in a per-line FIFO and serviced
//! when the line frees (NACK-and-retry protocols starve pathologically —
//! a lock holder's release can phase-lock behind spinning CASes forever).
//! Write transactions gather `InvAck`s from every sharer and may end
//! three ways:
//!
//! * **success** — no Bypass-Set bounce: requester becomes owner (`DataM`);
//! * **bounce** — a plain write hit a Bypass Set, or a Conditional Order
//!   hit true sharing: requester gets `NackBounce` and retries;
//! * **order completion** — an Order (or all-false-sharing Conditional
//!   Order) write: the update is merged into memory here, Bypass-Set
//!   holders stay sharers, and the requester receives the line Shared.

use asymfence_common::hash::{FxBuildHasher, FxHashMap};

use asymfence_common::ids::{BankId, LineAddr};

use crate::msg::{LineData, Msg, OrderMode, WordUpdate};

/// An outgoing message produced by a bank, to be injected into the mesh.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination node (tile) index.
    pub dst: usize,
    /// Extra cycles before injection (models bank/L2/memory access time).
    pub delay: u64,
    /// The message.
    pub msg: Msg,
}

/// Directory record for one line.
#[derive(Clone, Copy, Debug, Default)]
struct DirLine {
    owner: Option<usize>,
    sharers: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnKind {
    Read,
    Write,
    /// Grant sent; waiting for the requester's `Unblock`.
    AwaitUnblock,
}

/// An in-flight transaction on one line.
#[derive(Clone, Copy, Debug)]
struct Txn {
    kind: TxnKind,
    requester: usize,
    pending_acks: u32,
    bounced: bool,
    any_true_share: bool,
    order: OrderMode,
    update: Option<WordUpdate>,
}

impl Txn {
    fn await_unblock(requester: usize) -> Self {
        Txn {
            kind: TxnKind::AwaitUnblock,
            requester,
            pending_acks: 0,
            bounced: false,
            any_true_share: false,
            order: OrderMode::None,
            update: None,
        }
    }
}

/// Tag-only set-associative L2 bank used for latency classification.
#[derive(Clone, Debug)]
struct L2Tags {
    sets: Vec<Vec<(u64, u64)>>, // (line raw, lru)
    ways: usize,
    clock: u64,
}

impl L2Tags {
    fn new(sets: usize, ways: usize) -> Self {
        L2Tags {
            sets: vec![Vec::new(); sets],
            ways,
            clock: 0,
        }
    }

    /// Returns whether the access hit; inserts the line either way.
    /// `bank_local` must be the line address with the bank-interleaving
    /// bits stripped (`line / num_banks`), so consecutive lines homed at
    /// this bank spread across all sets.
    fn touch(&mut self, bank_local: u64) -> bool {
        self.clock += 1;
        let idx = (bank_local % self.sets.len() as u64) as usize;
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.0 == bank_local) {
            e.1 = self.clock;
            return true;
        }
        if set.len() >= self.ways {
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .map(|(i, _)| i)
                .expect("nonempty");
            set.swap_remove(victim);
        }
        set.push((bank_local, self.clock));
        false
    }
}

/// Per-bank counters, attributed to requesting cores where meaningful.
#[derive(Clone, Debug, Default)]
pub struct BankCounters {
    /// Order transactions completed, per requesting core.
    pub orders: Vec<u64>,
    /// Conditional Orders that failed on true sharing, per core.
    pub co_failures: Vec<u64>,
    /// Conditional Orders that completed, per core.
    pub co_successes: Vec<u64>,
    /// L2 tag misses at this bank.
    pub l2_misses: u64,
    /// Requests parked because the line was busy.
    pub busy_nacks: u64,
}

/// One directory + L2 bank.
#[derive(Clone, Debug)]
pub struct DirBank {
    id: BankId,
    num_cores: usize,
    words_per_line: usize,
    l2_hit_cycles: u64,
    mem_cycles: u64,
    interleave_lines: u64,
    lines: FxHashMap<LineAddr, DirLine>,
    busy: FxHashMap<LineAddr, Txn>,
    waiting: FxHashMap<LineAddr, std::collections::VecDeque<Msg>>,
    image: FxHashMap<LineAddr, LineData>,
    l2: L2Tags,
    counters: BankCounters,
}

impl DirBank {
    /// Creates a bank.
    ///
    /// # Panics
    ///
    /// Panics if any geometry parameter is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: BankId,
        num_cores: usize,
        words_per_line: usize,
        l2_sets: usize,
        l2_ways: usize,
        l2_hit_cycles: u64,
        mem_cycles: u64,
        interleave_lines: u64,
    ) -> Self {
        assert!(num_cores > 0 && words_per_line > 0 && l2_sets > 0 && l2_ways > 0);
        assert!(interleave_lines > 0);
        DirBank {
            id,
            num_cores,
            words_per_line,
            l2_hit_cycles,
            mem_cycles,
            interleave_lines,
            // `lines` and `image` track the bank's share of the touched
            // working set; pre-sizing them past the typical footprint
            // keeps growth rehashes out of the simulation loop.
            lines: FxHashMap::with_capacity_and_hasher(256, FxBuildHasher::default()),
            busy: FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default()),
            waiting: FxHashMap::with_capacity_and_hasher(64, FxBuildHasher::default()),
            image: FxHashMap::with_capacity_and_hasher(256, FxBuildHasher::default()),
            l2: L2Tags::new(l2_sets, l2_ways),
            counters: BankCounters {
                orders: vec![0; num_cores],
                co_failures: vec![0; num_cores],
                co_successes: vec![0; num_cores],
                l2_misses: 0,
                busy_nacks: 0,
            },
        }
    }

    /// This bank's identifier.
    pub fn id(&self) -> BankId {
        self.id
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &BankCounters {
        &self.counters
    }

    /// Whether any transaction is in flight or parked at this bank.
    pub fn is_idle(&self) -> bool {
        self.busy.is_empty() && self.waiting.is_empty()
    }

    /// Reads one word straight from the memory image (testing/back door).
    pub fn backdoor_read(&self, line: LineAddr, word: usize) -> u64 {
        self.image.get(&line).map_or(0, |d| d[word])
    }

    /// Writes one word straight into the memory image (initialization).
    pub fn backdoor_write(&mut self, line: LineAddr, word: usize, value: u64) {
        let wpl = self.words_per_line;
        self.image
            .entry(line)
            .or_insert_with(|| LineData::zeroed(wpl))[word] = value;
    }

    /// Restores the as-new state for machine reuse, keeping every map's
    /// allocation so a warmed pool runs allocation-free.
    pub fn reset(&mut self) {
        self.lines.clear();
        self.busy.clear();
        self.waiting.clear();
        self.image.clear();
        for set in &mut self.l2.sets {
            set.clear();
        }
        self.l2.clock = 0;
        self.counters.orders.fill(0);
        self.counters.co_failures.fill(0);
        self.counters.co_successes.fill(0);
        self.counters.l2_misses = 0;
        self.counters.busy_nacks = 0;
    }

    /// Marks a line resident in this bank's L2 (models data the program
    /// initialized before the measured region).
    pub fn warm_l2(&mut self, line: LineAddr) {
        let idx = self.bank_local(line);
        self.l2.touch(idx);
    }

    /// Whether `core` currently owns `line` per the directory.
    pub fn owner_of(&self, line: LineAddr) -> Option<usize> {
        self.lines.get(&line).and_then(|d| d.owner)
    }

    /// The sharer bitmask the directory holds for `line`.
    pub fn sharers_of(&self, line: LineAddr) -> u64 {
        self.lines.get(&line).map_or(0, |d| d.sharers)
    }

    fn line_data(&mut self, line: LineAddr) -> LineData {
        let wpl = self.words_per_line;
        *self
            .image
            .entry(line)
            .or_insert_with(|| LineData::zeroed(wpl))
    }

    /// Line address with the bank-selection bits stripped, so this bank's
    /// lines spread across all L2 sets.
    fn bank_local(&self, line: LineAddr) -> u64 {
        let chunk = line.raw() / self.interleave_lines;
        (chunk / self.num_cores as u64) * self.interleave_lines + line.raw() % self.interleave_lines
    }

    fn l2_access_delay(&mut self, line: LineAddr) -> u64 {
        if self.l2.touch(self.bank_local(line)) {
            self.l2_hit_cycles
        } else {
            self.counters.l2_misses += 1;
            self.l2_hit_cycles + self.mem_cycles
        }
    }

    fn merge_image(&mut self, line: LineAddr, data: &[u64]) {
        let wpl = self.words_per_line;
        let slot = self
            .image
            .entry(line)
            .or_insert_with(|| LineData::zeroed(wpl));
        slot.copy_from_slice(data);
    }

    fn merge_update(&mut self, line: LineAddr, update: Option<WordUpdate>) {
        let wpl = self.words_per_line;
        let slot = self
            .image
            .entry(line)
            .or_insert_with(|| LineData::zeroed(wpl));
        if let Some(u) = update {
            slot[u.word as usize] = u.value;
        }
    }

    /// Handles one incoming message, returning the replies to inject.
    /// Convenience wrapper over [`DirBank::handle_into`] for tests; the
    /// hot path passes a reusable buffer instead.
    pub fn handle(&mut self, msg: Msg) -> Vec<Outgoing> {
        let mut out = Vec::new();
        self.handle_into(msg, &mut out);
        out
    }

    /// Handles one incoming message, pushing the replies to inject onto
    /// `out`. Requests for busy lines are parked and serviced FIFO when
    /// the line frees.
    ///
    /// # Panics
    ///
    /// Panics if handed a message type that cores, not banks, receive.
    pub fn handle_into(&mut self, msg: Msg, out: &mut Vec<Outgoing>) {
        // Park requests targeting busy lines.
        if let Msg::GetS { line, .. } | Msg::GetX { line, .. } = &msg {
            if self.busy.contains_key(line) {
                self.counters.busy_nacks += 1;
                self.waiting.entry(*line).or_default().push_back(msg);
                return;
            }
        }
        self.handle_inner(msg, out);
        // Service parked requests on lines that just freed. Each request
        // re-busies its line, so this loop services at most one waiter
        // per freed line per incoming message.
        loop {
            let ready: Vec<LineAddr> = self
                .waiting
                .keys()
                .filter(|l| !self.busy.contains_key(l))
                .copied()
                .collect();
            if ready.is_empty() {
                break;
            }
            let mut progressed = false;
            for line in ready {
                if self.busy.contains_key(&line) {
                    continue;
                }
                let Some(q) = self.waiting.get_mut(&line) else {
                    continue;
                };
                let Some(next) = q.pop_front() else { continue };
                if q.is_empty() {
                    self.waiting.remove(&line);
                }
                self.handle_inner(next, out);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    fn handle_inner(&mut self, msg: Msg, out: &mut Vec<Outgoing>) {
        match msg {
            Msg::GetS { core, line } => self.handle_gets(core.0, line, out),
            Msg::GetX {
                core,
                line,
                update,
                order,
                ..
            } => self.handle_getx(core.0, line, update, order, out),
            Msg::PutM {
                core,
                line,
                data,
                keep_sharer,
            } => self.handle_putm(core.0, line, data, keep_sharer),
            Msg::InvAck {
                core,
                line,
                bounced,
                keep_sharer,
                true_share,
                data,
            } => self.handle_inv_ack(core.0, line, bounced, keep_sharer, true_share, data, out),
            Msg::DowngradeAck { core, line, data } => {
                self.handle_downgrade_ack(core.0, line, data, out)
            }
            Msg::Unblock { core, line } => {
                if let Some(txn) = self.busy.get(&line) {
                    if txn.kind == TxnKind::AwaitUnblock && txn.requester == core.0 {
                        self.busy.remove(&line);
                    }
                }
            }
            other => panic!("bank received core-bound message {other:?}"),
        }
    }

    fn handle_gets(&mut self, core: usize, line: LineAddr, out: &mut Vec<Outgoing>) {
        debug_assert!(!self.busy.contains_key(&line), "parked by handle()");
        let dl = self.lines.entry(line).or_default();
        if let Some(owner) = dl.owner {
            if owner != core {
                self.busy.insert(
                    line,
                    Txn {
                        kind: TxnKind::Read,
                        requester: core,
                        pending_acks: 1,
                        bounced: false,
                        any_true_share: false,
                        order: OrderMode::None,
                        update: None,
                    },
                );
                out.push(Outgoing {
                    dst: owner,
                    delay: 1,
                    msg: Msg::FetchDowngrade { line },
                });
                return;
            }
        }
        // No remote owner: serve from L2/memory.
        let exclusive = dl.owner.is_none() && dl.sharers == 0;
        let dl_sharers = {
            let dl = self.lines.get_mut(&line).expect("just inserted");
            dl.sharers |= 1 << core;
            if dl.owner == Some(core) {
                // Owner re-reading (should not normally happen): keep owner.
            } else if exclusive {
                dl.owner = Some(core);
                dl.sharers &= !(1 << core);
            }
            dl.sharers
        };
        let _ = dl_sharers;
        let delay = self.l2_access_delay(line);
        let data = self.line_data(line);
        let msg = if exclusive {
            Msg::DataE { line, data }
        } else {
            Msg::DataS { line, data }
        };
        self.busy.insert(line, Txn::await_unblock(core));
        out.push(Outgoing {
            dst: core,
            delay,
            msg,
        });
    }

    fn handle_getx(
        &mut self,
        core: usize,
        line: LineAddr,
        update: Option<WordUpdate>,
        order: OrderMode,
        out: &mut Vec<Outgoing>,
    ) {
        debug_assert!(!self.busy.contains_key(&line), "parked by handle()");
        let dl = *self.lines.entry(line).or_default();
        // Invalidation targets: the remote owner (first, matching the
        // directory's historical fan-out order), then remote sharers in
        // core order. Counted via the sharer bitmask so the fan-out
        // never allocates.
        let owner_target = dl.owner.filter(|&o| o != core);
        let mut sharer_mask = dl.sharers & !(1 << core);
        if let Some(o) = dl.owner {
            sharer_mask &= !(1 << o);
        }
        let n_targets = u32::from(owner_target.is_some()) + sharer_mask.count_ones();
        if n_targets == 0 {
            // Immediate grant.
            let delay = self.l2_access_delay(line);
            let data = self.line_data(line);
            let dl = self.lines.get_mut(&line).expect("present");
            dl.owner = Some(core);
            dl.sharers = 0;
            self.busy.insert(line, Txn::await_unblock(core));
            out.push(Outgoing {
                dst: core,
                delay,
                msg: Msg::DataM { line, data },
            });
            return;
        }
        let word_mask = update.map_or(0u32, |u| 1 << u.word);
        self.busy.insert(
            line,
            Txn {
                kind: TxnKind::Write,
                requester: core,
                pending_acks: n_targets,
                bounced: false,
                any_true_share: false,
                order,
                update,
            },
        );
        let inv = |t: usize| Outgoing {
            dst: t,
            delay: 1,
            msg: Msg::Inv {
                line,
                requester: asymfence_common::ids::CoreId(core),
                order,
                word_mask,
            },
        };
        if let Some(o) = owner_target {
            out.push(inv(o));
        }
        for c in 0..self.num_cores {
            if sharer_mask & (1 << c) != 0 {
                out.push(inv(c));
            }
        }
    }

    fn handle_putm(&mut self, core: usize, line: LineAddr, data: LineData, keep_sharer: bool) {
        self.merge_image(line, &data);
        let dl = self.lines.entry(line).or_default();
        if dl.owner == Some(core) {
            dl.owner = None;
        }
        dl.sharers &= !(1 << core);
        if keep_sharer {
            dl.sharers |= 1 << core;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_inv_ack(
        &mut self,
        core: usize,
        line: LineAddr,
        bounced: bool,
        keep_sharer: bool,
        true_share: bool,
        data: Option<LineData>,
        out: &mut Vec<Outgoing>,
    ) {
        if let Some(d) = data {
            self.merge_image(line, &d);
        }
        let Some(txn) = self.busy.get_mut(&line) else {
            return; // stale ack after a racing writeback
        };
        debug_assert_eq!(txn.kind, TxnKind::Write);
        txn.bounced |= bounced;
        txn.any_true_share |= true_share;
        txn.pending_acks -= 1;
        let keep = keep_sharer;
        if !bounced {
            let dl = self.lines.entry(line).or_default();
            dl.sharers &= !(1 << core);
            if dl.owner == Some(core) {
                dl.owner = None;
            }
            if keep {
                dl.sharers |= 1 << core;
            }
        }
        let done = {
            let txn = self.busy.get(&line).expect("still busy");
            txn.pending_acks == 0
        };
        if !done {
            return;
        }
        let txn = self.busy.remove(&line).expect("busy");
        let failed = txn.bounced || (txn.order == OrderMode::CondOrder && txn.any_true_share);
        if failed {
            if txn.order == OrderMode::CondOrder {
                self.counters.co_failures[txn.requester] += 1;
            }
            out.push(Outgoing {
                dst: txn.requester,
                delay: 1,
                msg: Msg::NackBounce { line },
            });
            return;
        }
        if txn.order != OrderMode::None {
            // Order / all-false Conditional Order completion: merge the
            // update in memory; requester and BS holders are sharers.
            self.merge_update(line, txn.update);
            let dl = self.lines.entry(line).or_default();
            dl.owner = None;
            dl.sharers |= 1 << txn.requester;
            match txn.order {
                OrderMode::Order => self.counters.orders[txn.requester] += 1,
                OrderMode::CondOrder => self.counters.co_successes[txn.requester] += 1,
                OrderMode::None => unreachable!(),
            }
            let data = self.line_data(line);
            self.busy.insert(line, Txn::await_unblock(txn.requester));
            out.push(Outgoing {
                dst: txn.requester,
                delay: 1,
                msg: Msg::OrderDone { line, data },
            });
            return;
        }
        // Plain write success.
        let dl = self.lines.entry(line).or_default();
        dl.owner = Some(txn.requester);
        dl.sharers = 0;
        let data = self.line_data(line);
        self.busy.insert(line, Txn::await_unblock(txn.requester));
        out.push(Outgoing {
            dst: txn.requester,
            delay: 1,
            msg: Msg::DataM { line, data },
        });
    }

    fn handle_downgrade_ack(
        &mut self,
        core: usize,
        line: LineAddr,
        data: Option<LineData>,
        out: &mut Vec<Outgoing>,
    ) {
        if let Some(d) = data {
            self.merge_image(line, &d);
        }
        let Some(txn) = self.busy.get(&line) else {
            return;
        };
        if txn.kind != TxnKind::Read {
            return;
        }
        let txn = self.busy.remove(&line).expect("busy");
        let dl = self.lines.entry(line).or_default();
        // The old owner keeps a Shared copy (or is a harmless stale sharer
        // if it raced an eviction); the requester joins.
        if dl.owner == Some(core) {
            dl.owner = None;
        }
        dl.sharers |= 1 << core;
        dl.sharers |= 1 << txn.requester;
        let delay = self.l2_access_delay(line);
        let data = self.line_data(line);
        self.busy.insert(line, Txn::await_unblock(txn.requester));
        out.push(Outgoing {
            dst: txn.requester,
            delay,
            msg: Msg::DataS { line, data },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::ids::CoreId;

    fn bank() -> DirBank {
        DirBank::new(BankId(0), 4, 4, 16, 4, 11, 200, 1)
    }

    fn la(n: u64) -> LineAddr {
        LineAddr::from_raw(n)
    }

    fn upd(word: u8, value: u64) -> WordUpdate {
        WordUpdate { word, value }
    }

    /// Confirms the grant that `b` just issued to `core` for `line`.
    fn unblock(b: &mut DirBank, core: usize, line: LineAddr) {
        let out = b.handle(Msg::Unblock {
            core: CoreId(core),
            line,
        });
        assert!(out.is_empty());
        assert!(b.is_idle() || !b.is_idle()); // no-op shape check
    }

    #[test]
    fn first_read_grants_exclusive_with_memory_latency() {
        let mut b = bank();
        let out = b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1);
        assert_eq!(out[0].delay, 11 + 200, "cold L2 miss pays memory");
        assert!(matches!(out[0].msg, Msg::DataE { .. }));
        assert_eq!(b.owner_of(la(0)), Some(1));
    }

    #[test]
    fn second_read_from_owner_path_downgrades() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        let out = b.handle(Msg::GetS {
            core: CoreId(2),
            line: la(0),
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, 1, "fetch-downgrade goes to the owner");
        assert!(matches!(out[0].msg, Msg::FetchDowngrade { .. }));
        // A third request while busy is parked (no reply yet).
        let out = b.handle(Msg::GetS {
            core: CoreId(3),
            line: la(0),
        });
        assert!(out.is_empty(), "busy requests are parked, not NACKed");
        assert!(!b.is_idle());
        // Owner answers with dirty data.
        let out = b.handle(Msg::DowngradeAck {
            core: CoreId(1),
            line: la(0),
            data: Some(LineData::from_words(&[9, 9, 9, 9])),
        });
        assert_eq!(out[0].dst, 2);
        assert!(matches!(&out[0].msg, Msg::DataS { data, .. } if data[0] == 9));
        assert_eq!(b.owner_of(la(0)), None);
        // Core 3's parked read is serviced once core 2 unblocks.
        let out = b.handle(Msg::Unblock {
            core: CoreId(2),
            line: la(0),
        });
        assert_eq!(out.len(), 1, "parked request serviced on unblock");
        assert_eq!(out[0].dst, 3);
        assert!(matches!(out[0].msg, Msg::DataS { .. }));
        unblock(&mut b, 3, la(0));
        assert_eq!(b.sharers_of(la(0)), 0b1110);
    }

    #[test]
    fn uncontended_write_grants_m_immediately() {
        let mut b = bank();
        let out = b.handle(Msg::GetX {
            core: CoreId(0),
            line: la(3),
            update: Some(upd(1, 42)),
            order: OrderMode::None,
            attempt: 0,
        });
        assert!(matches!(out[0].msg, Msg::DataM { .. }));
        assert_eq!(b.owner_of(la(3)), Some(0));
    }

    #[test]
    fn write_invalidate_collects_acks_then_grants() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        // Make core 2 a sharer too (1 downgrades).
        let o = b.handle(Msg::GetS {
            core: CoreId(2),
            line: la(0),
        });
        assert!(matches!(o[0].msg, Msg::FetchDowngrade { .. }));
        b.handle(Msg::DowngradeAck {
            core: CoreId(1),
            line: la(0),
            data: None,
        });
        unblock(&mut b, 2, la(0));
        // Core 3 writes.
        let out = b.handle(Msg::GetX {
            core: CoreId(3),
            line: la(0),
            update: Some(upd(0, 7)),
            order: OrderMode::None,
            attempt: 0,
        });
        let mut dsts: Vec<usize> = out.iter().map(|o| o.dst).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![1, 2], "invalidations to both sharers");
        let none = b.handle(Msg::InvAck {
            core: CoreId(1),
            line: la(0),
            bounced: false,
            keep_sharer: false,
            true_share: false,
            data: None,
        });
        assert!(none.is_empty());
        let out = b.handle(Msg::InvAck {
            core: CoreId(2),
            line: la(0),
            bounced: false,
            keep_sharer: false,
            true_share: false,
            data: None,
        });
        assert!(matches!(out[0].msg, Msg::DataM { .. }));
        assert_eq!(out[0].dst, 3);
        assert_eq!(b.owner_of(la(0)), Some(3));
        assert_eq!(b.sharers_of(la(0)), 0);
    }

    #[test]
    fn bounced_ack_nacks_the_writer_and_keeps_bouncer_as_sharer() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        let out = b.handle(Msg::GetX {
            core: CoreId(2),
            line: la(0),
            update: Some(upd(0, 1)),
            order: OrderMode::None,
            attempt: 0,
        });
        assert_eq!(out[0].dst, 1);
        let out = b.handle(Msg::InvAck {
            core: CoreId(1),
            line: la(0),
            bounced: true,
            keep_sharer: false,
            true_share: false,
            data: None,
        });
        assert!(matches!(out[0].msg, Msg::NackBounce { .. }));
        assert_eq!(out[0].dst, 2);
        // Core 1 was the owner and bounced: it keeps its copy.
        assert_eq!(b.owner_of(la(0)), Some(1));
    }

    #[test]
    fn order_completion_merges_update_and_keeps_bs_holder_as_sharer() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        b.handle(Msg::GetX {
            core: CoreId(2),
            line: la(0),
            update: Some(upd(2, 77)),
            order: OrderMode::Order,
            attempt: 1,
        });
        let out = b.handle(Msg::InvAck {
            core: CoreId(1),
            line: la(0),
            bounced: false,
            keep_sharer: true,
            true_share: false,
            data: None,
        });
        assert!(matches!(&out[0].msg, Msg::OrderDone { data, .. } if data[2] == 77));
        assert_eq!(b.backdoor_read(la(0), 2), 77, "update merged into memory");
        assert_eq!(b.owner_of(la(0)), None);
        assert_eq!(b.sharers_of(la(0)), 0b0110, "BS holder and requester share");
        assert_eq!(b.counters().orders[2], 1);
    }

    #[test]
    fn conditional_order_fails_on_true_share_and_discards_update() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        b.handle(Msg::GetX {
            core: CoreId(2),
            line: la(0),
            update: Some(upd(0, 5)),
            order: OrderMode::CondOrder,
            attempt: 1,
        });
        let out = b.handle(Msg::InvAck {
            core: CoreId(1),
            line: la(0),
            bounced: false,
            keep_sharer: true,
            true_share: true,
            data: None,
        });
        assert!(matches!(out[0].msg, Msg::NackBounce { .. }));
        assert_eq!(b.backdoor_read(la(0), 0), 0, "update discarded");
        assert_eq!(
            b.sharers_of(la(0)) & 0b0010,
            0b0010,
            "true-sharing BS holder stays a sharer"
        );
        assert_eq!(b.counters().co_failures[2], 1);
    }

    #[test]
    fn conditional_order_succeeds_when_all_matches_are_false_sharing() {
        let mut b = bank();
        b.handle(Msg::GetS {
            core: CoreId(1),
            line: la(0),
        });
        unblock(&mut b, 1, la(0));
        b.handle(Msg::GetX {
            core: CoreId(2),
            line: la(0),
            update: Some(upd(3, 9)),
            order: OrderMode::CondOrder,
            attempt: 1,
        });
        let out = b.handle(Msg::InvAck {
            core: CoreId(1),
            line: la(0),
            bounced: false,
            keep_sharer: true,
            true_share: false,
            data: None,
        });
        assert!(matches!(out[0].msg, Msg::OrderDone { .. }));
        assert_eq!(b.backdoor_read(la(0), 3), 9);
        assert_eq!(b.counters().co_successes[2], 1);
    }

    #[test]
    fn putm_merges_and_honours_keep_sharer() {
        let mut b = bank();
        b.handle(Msg::GetX {
            core: CoreId(0),
            line: la(1),
            update: Some(upd(0, 1)),
            order: OrderMode::None,
            attempt: 0,
        });
        b.handle(Msg::PutM {
            core: CoreId(0),
            line: la(1),
            data: LineData::from_words(&[1, 2, 3, 4]),
            keep_sharer: true,
        });
        assert_eq!(b.owner_of(la(1)), None);
        assert_eq!(b.sharers_of(la(1)), 0b0001);
        assert_eq!(b.backdoor_read(la(1), 3), 4);
    }

    #[test]
    fn l2_second_access_hits() {
        let mut b = bank();
        let out = b.handle(Msg::GetS {
            core: CoreId(0),
            line: la(0),
        });
        assert_eq!(out[0].delay, 211);
        unblock(&mut b, 0, la(0));
        // Writeback then re-read: now an L2 hit.
        b.handle(Msg::PutM {
            core: CoreId(0),
            line: la(0),
            data: LineData::zeroed(4),
            keep_sharer: false,
        });
        let out = b.handle(Msg::GetS {
            core: CoreId(0),
            line: la(0),
        });
        assert_eq!(out[0].delay, 11);
        assert_eq!(b.counters().l2_misses, 1);
    }
}
