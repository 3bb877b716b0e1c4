//! Statistics counters.
//!
//! Every quantity the paper's evaluation reports is collected here:
//! per-core cycle breakdowns (busy / fence stall / other stall, Figures
//! 8, 10, 11), fence frequencies and Bypass-Set occupancies, bounce and
//! retry counts, network traffic (Table 4), W+ recoveries, and Wee
//! wf→sf conversions.

use std::fmt;
use std::ops::AddAssign;

/// How a core spent one retirement cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StallKind {
    /// Retired at least one instruction this cycle.
    Busy,
    /// Retirement blocked by an incomplete fence (fence at ROB head, or a
    /// load held back by a pending fence).
    Fence,
    /// Retirement blocked for any other reason (cache miss, full write
    /// buffer, empty ROB while fetch waits on memory, …).
    Other,
    /// The thread has finished its program.
    Idle,
}

/// Counters for a single core.
///
/// All fields are plain integers, so the struct is `Copy` and a run's
/// stats harvest is a memcpy rather than a clone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CoreStats {
    /// Cycles in which at least one instruction retired.
    pub busy_cycles: u64,
    /// Cycles stalled on a fence.
    pub fence_stall_cycles: u64,
    /// Cycles stalled for other reasons.
    pub other_stall_cycles: u64,
    /// Cycles after the program completed.
    pub idle_cycles: u64,
    /// Dynamic instructions retired (loads, stores, fences, RMWs, and each
    /// cycle of `Compute`).
    pub instrs_retired: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Atomic read-modify-writes retired.
    pub rmws: u64,
    /// Strong fences executed (after any design-driven mapping).
    pub sf_count: u64,
    /// Weak fences executed.
    pub wf_count: u64,
    /// Weak fences that the Wee design demoted to strong because their
    /// global state spanned more than one directory bank.
    pub wee_demotions: u64,
    /// Sum over completed wfs of the number of distinct line addresses the
    /// Bypass Set held (divide by `wf_count` for the Table 4 average).
    pub bs_lines_sum: u64,
    /// Peak Bypass-Set occupancy observed.
    pub bs_peak: u64,
    /// wfs whose Bypass Set overflowed (fence degraded to strong).
    pub bs_overflows: u64,
    /// Write transactions from this core that were bounced at least once.
    pub writes_bounced: u64,
    /// Total bounce NACKs received by this core's write transactions.
    pub bounce_retries: u64,
    /// Order transactions this core completed.
    pub order_ops: u64,
    /// Conditional-Order attempts that failed on a true-sharing match.
    pub cond_order_failures: u64,
    /// Conditional-Order attempts that completed.
    pub cond_order_successes: u64,
    /// W+ rollback recoveries performed.
    pub recoveries: u64,
    /// Speculative loads squashed by conflicting invalidations.
    pub load_squashes: u64,
    /// Post-fence loads that retired early (before their wf completed).
    pub early_retired_loads: u64,
    /// Post-fence accesses stalled by a Wee RemotePS hit.
    pub remote_ps_stalls: u64,
    /// L1 load/store misses.
    pub l1_misses: u64,
    /// L1 hits.
    pub l1_hits: u64,
}

impl CoreStats {
    /// Total simulated cycles this core was accounted for.
    pub fn total_cycles(&self) -> u64 {
        self.busy_cycles + self.fence_stall_cycles + self.other_stall_cycles + self.idle_cycles
    }

    /// Records one retirement-cycle classification.
    pub fn record_cycle(&mut self, kind: StallKind) {
        self.record_cycles(kind, 1);
    }

    /// Records `n` consecutive retirement cycles of the same
    /// classification — the bulk path the event-driven kernel uses when
    /// it skips over a provably inactive stretch.
    pub fn record_cycles(&mut self, kind: StallKind, n: u64) {
        match kind {
            StallKind::Busy => self.busy_cycles += n,
            StallKind::Fence => self.fence_stall_cycles += n,
            StallKind::Other => self.other_stall_cycles += n,
            StallKind::Idle => self.idle_cycles += n,
        }
    }

    /// Fences per 1000 retired instructions, as in Table 4.
    pub fn fences_per_kilo_instr(&self) -> f64 {
        if self.instrs_retired == 0 {
            return 0.0;
        }
        1000.0 * (self.sf_count + self.wf_count) as f64 / self.instrs_retired as f64
    }

    /// Average Bypass-Set line count per weak fence.
    pub fn avg_bs_lines(&self) -> f64 {
        if self.wf_count == 0 {
            return 0.0;
        }
        self.bs_lines_sum as f64 / self.wf_count as f64
    }

    /// Number of counters (array length of [`CoreStats::values`]).
    pub const FIELDS: usize = 25;

    /// Every counter as a fixed-size array in declaration order — the
    /// wire form the sweep run ledger persists a core as. The order is
    /// the same one `AddAssign` folds in; [`CoreStats::from_values`]
    /// inverts it exactly.
    pub fn values(&self) -> [u64; Self::FIELDS] {
        [
            self.busy_cycles,
            self.fence_stall_cycles,
            self.other_stall_cycles,
            self.idle_cycles,
            self.instrs_retired,
            self.loads,
            self.stores,
            self.rmws,
            self.sf_count,
            self.wf_count,
            self.wee_demotions,
            self.bs_lines_sum,
            self.bs_peak,
            self.bs_overflows,
            self.writes_bounced,
            self.bounce_retries,
            self.order_ops,
            self.cond_order_failures,
            self.cond_order_successes,
            self.recoveries,
            self.load_squashes,
            self.early_retired_loads,
            self.remote_ps_stalls,
            self.l1_misses,
            self.l1_hits,
        ]
    }

    /// Rebuilds a core from a [`CoreStats::values`] array. `None` when
    /// the slice has the wrong length (ledger written by a build with a
    /// different counter set — record-level schema drift).
    pub fn from_values(vals: &[u64]) -> Option<CoreStats> {
        if vals.len() != Self::FIELDS {
            return None;
        }
        Some(CoreStats {
            busy_cycles: vals[0],
            fence_stall_cycles: vals[1],
            other_stall_cycles: vals[2],
            idle_cycles: vals[3],
            instrs_retired: vals[4],
            loads: vals[5],
            stores: vals[6],
            rmws: vals[7],
            sf_count: vals[8],
            wf_count: vals[9],
            wee_demotions: vals[10],
            bs_lines_sum: vals[11],
            bs_peak: vals[12],
            bs_overflows: vals[13],
            writes_bounced: vals[14],
            bounce_retries: vals[15],
            order_ops: vals[16],
            cond_order_failures: vals[17],
            cond_order_successes: vals[18],
            recoveries: vals[19],
            load_squashes: vals[20],
            early_retired_loads: vals[21],
            remote_ps_stalls: vals[22],
            l1_misses: vals[23],
            l1_hits: vals[24],
        })
    }
}

impl AddAssign<&CoreStats> for CoreStats {
    fn add_assign(&mut self, rhs: &CoreStats) {
        self.busy_cycles += rhs.busy_cycles;
        self.fence_stall_cycles += rhs.fence_stall_cycles;
        self.other_stall_cycles += rhs.other_stall_cycles;
        self.idle_cycles += rhs.idle_cycles;
        self.instrs_retired += rhs.instrs_retired;
        self.loads += rhs.loads;
        self.stores += rhs.stores;
        self.rmws += rhs.rmws;
        self.sf_count += rhs.sf_count;
        self.wf_count += rhs.wf_count;
        self.wee_demotions += rhs.wee_demotions;
        self.bs_lines_sum += rhs.bs_lines_sum;
        self.bs_peak = self.bs_peak.max(rhs.bs_peak);
        self.bs_overflows += rhs.bs_overflows;
        self.writes_bounced += rhs.writes_bounced;
        self.bounce_retries += rhs.bounce_retries;
        self.order_ops += rhs.order_ops;
        self.cond_order_failures += rhs.cond_order_failures;
        self.cond_order_successes += rhs.cond_order_successes;
        self.recoveries += rhs.recoveries;
        self.load_squashes += rhs.load_squashes;
        self.early_retired_loads += rhs.early_retired_loads;
        self.remote_ps_stalls += rhs.remote_ps_stalls;
        self.l1_misses += rhs.l1_misses;
        self.l1_hits += rhs.l1_hits;
    }
}

/// Network traffic counters, split so Table 4's "% traffic increase due to
/// retries" can be computed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrafficStats {
    /// Bytes moved by first-attempt protocol messages.
    pub base_bytes: u64,
    /// Bytes moved by bounce NACKs and bounced-request retries.
    pub retry_bytes: u64,
    /// Total messages injected.
    pub messages: u64,
}

impl TrafficStats {
    /// Total bytes on the network.
    pub fn total_bytes(&self) -> u64 {
        self.base_bytes + self.retry_bytes
    }

    /// Percentage increase of traffic caused by retries.
    pub fn retry_increase_pct(&self) -> f64 {
        if self.base_bytes == 0 {
            return 0.0;
        }
        100.0 * self.retry_bytes as f64 / self.base_bytes as f64
    }
}

/// Machine-wide statistics, returned by a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MachineStats {
    /// Cycle count when the run finished.
    pub cycles: u64,
    /// Per-core counters.
    pub cores: Vec<CoreStats>,
    /// Network traffic.
    pub traffic: TrafficStats,
    /// Whether the watchdog fired: a global deadlock (only possible under
    /// `WfOnlyUnsafe` or a mis-grouped WS+ program) or a store-drain
    /// livelock (stores bouncing forever, e.g. SW+ with weak fences on
    /// both sides of a group).
    pub deadlocked: bool,
}

impl MachineStats {
    /// Merges another run's statistics into this one: cycles and traffic
    /// add, per-core counters combine index-wise (extending if `other`
    /// has more cores), and the deadlock flag is sticky.
    ///
    /// `merge` is associative and has [`MachineStats::default`] as its
    /// identity, so per-run statistics collected by independent parallel
    /// jobs can be folded in any grouping with the same result — this is
    /// what lets the run engine aggregate worker output without any
    /// global (shared-mutable) statistics state.
    pub fn merge(&mut self, other: &MachineStats) {
        self.cycles += other.cycles;
        for (i, c) in other.cores.iter().enumerate() {
            if i < self.cores.len() {
                self.cores[i] += c;
            } else {
                self.cores.push(*c);
            }
        }
        self.traffic.base_bytes += other.traffic.base_bytes;
        self.traffic.retry_bytes += other.traffic.retry_bytes;
        self.traffic.messages += other.traffic.messages;
        self.deadlocked |= other.deadlocked;
    }

    /// [`MachineStats::merge`] by value, for fold chains.
    #[must_use]
    pub fn merged(mut self, other: &MachineStats) -> Self {
        self.merge(other);
        self
    }

    /// Sum of all per-core counters.
    pub fn aggregate(&self) -> CoreStats {
        let mut total = CoreStats::default();
        for c in &self.cores {
            total += c;
        }
        total
    }

    /// Fraction of non-idle core cycles spent stalled on fences.
    pub fn fence_stall_fraction(&self) -> f64 {
        let a = self.aggregate();
        let active = a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles;
        if active == 0 {
            return 0.0;
        }
        a.fence_stall_cycles as f64 / active as f64
    }

    /// Total fence-stall cycles across cores.
    pub fn fence_stall_cycles(&self) -> u64 {
        self.aggregate().fence_stall_cycles
    }

    /// Total retired instructions across cores.
    pub fn instrs_retired(&self) -> u64 {
        self.aggregate().instrs_retired
    }

    /// Derived per-design-feature metrics (see [`DerivedStats`]); the
    /// ratios Table 4 and EXPERIMENTS.md cite, computed in one place.
    pub fn derived(&self) -> DerivedStats {
        let a = self.aggregate();
        let fences = a.sf_count + a.wf_count;
        let active = a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles;
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        DerivedStats {
            fence_stall_fraction: ratio(a.fence_stall_cycles, active),
            fence_stall_per_fence: ratio(a.fence_stall_cycles, fences),
            fences_per_kilo_instr: a.fences_per_kilo_instr(),
            weak_fence_fraction: ratio(a.wf_count, fences),
            bs_lines_per_wf: a.avg_bs_lines(),
            bounces_per_wf: ratio(a.writes_bounced, a.wf_count),
            retries_per_bounced_write: ratio(a.bounce_retries, a.writes_bounced),
            order_ops_per_wf: ratio(a.order_ops, a.wf_count),
            cond_order_failure_rate: ratio(
                a.cond_order_failures,
                a.cond_order_failures + a.cond_order_successes,
            ),
            recoveries_per_wf: ratio(a.recoveries, a.wf_count),
            demotion_fraction: ratio(a.wee_demotions, fences + a.wee_demotions),
            remote_ps_stalls_per_wf: ratio(a.remote_ps_stalls, a.wf_count),
            early_retired_load_fraction: ratio(a.early_retired_loads, a.loads),
            retry_traffic_pct: self.traffic.retry_increase_pct(),
            bs_overflows_per_wf: ratio(a.bs_overflows, a.wf_count),
            bs_peak_lines: a.bs_peak as f64,
            load_squash_fraction: ratio(a.load_squashes, a.loads),
            l1_miss_rate: ratio(a.l1_misses, a.l1_hits + a.l1_misses),
            bytes_per_message: ratio(self.traffic.total_bytes(), self.traffic.messages),
        }
    }
}

/// Stall-cycle attribution per design feature, derived from a
/// [`MachineStats`] by [`MachineStats::derived`].
///
/// Each field isolates the cost or benefit of one mechanism of the
/// paper's designs, so an experiment writeup can cite "what the weak
/// fence bought" or "what the bounce protocol cost" without re-deriving
/// ratios from raw counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DerivedStats {
    /// Fraction of non-idle core cycles stalled on fences (the paper's
    /// Figures 8/10/11 fence-stall share).
    pub fence_stall_fraction: f64,
    /// Mean fence-stall cycles per executed fence: the per-episode cost
    /// a weak fence must hide.
    pub fence_stall_per_fence: f64,
    /// Fences per 1000 retired instructions (Table 4).
    pub fences_per_kilo_instr: f64,
    /// Fraction of executed fences that stayed weak.
    pub weak_fence_fraction: f64,
    /// Average distinct Bypass-Set lines at wf completion (Table 4).
    pub bs_lines_per_wf: f64,
    /// Writes bounced per weak fence (Table 4).
    pub bounces_per_wf: f64,
    /// Retries per bounced write (Table 4).
    pub retries_per_bounced_write: f64,
    /// WS+/SW+ Order transactions per weak fence (the escape valve rate).
    pub order_ops_per_wf: f64,
    /// Fraction of Conditional-Order attempts that failed on true
    /// sharing (SW+ only).
    pub cond_order_failure_rate: f64,
    /// W+ rollback recoveries per weak fence (Table 4).
    pub recoveries_per_wf: f64,
    /// Fraction of Wee fences demoted to conventional (Table 4's wf→sf
    /// conversions).
    pub demotion_fraction: f64,
    /// Wee RemotePS stall events per weak fence.
    pub remote_ps_stalls_per_wf: f64,
    /// Fraction of loads that retired early past a weak fence — the
    /// reordering the designs exist to allow.
    pub early_retired_load_fraction: f64,
    /// Percentage traffic increase from bounce retries (Table 4).
    pub retry_traffic_pct: f64,
    /// Bypass-Set overflows (wf degraded to sf) per weak fence.
    pub bs_overflows_per_wf: f64,
    /// Peak Bypass-Set occupancy observed on any core (lines).
    pub bs_peak_lines: f64,
    /// Fraction of loads squashed by conflicting invalidations — the
    /// speculation the designs pay for reordering.
    pub load_squash_fraction: f64,
    /// L1 miss rate over all load/store accesses.
    pub l1_miss_rate: f64,
    /// Mean bytes per NoC message (payload efficiency of the protocol).
    pub bytes_per_message: f64,
}

impl DerivedStats {
    /// Every field as a stable `(name, value)` list, in declaration
    /// order. This is the single source of truth the telemetry snapshot
    /// serializer and `perfdiff` iterate, so a field added here is
    /// automatically persisted and regression-gated.
    pub fn fields(&self) -> [(&'static str, f64); 19] {
        [
            ("fence_stall_fraction", self.fence_stall_fraction),
            ("fence_stall_per_fence", self.fence_stall_per_fence),
            ("fences_per_kilo_instr", self.fences_per_kilo_instr),
            ("weak_fence_fraction", self.weak_fence_fraction),
            ("bs_lines_per_wf", self.bs_lines_per_wf),
            ("bounces_per_wf", self.bounces_per_wf),
            ("retries_per_bounced_write", self.retries_per_bounced_write),
            ("order_ops_per_wf", self.order_ops_per_wf),
            ("cond_order_failure_rate", self.cond_order_failure_rate),
            ("recoveries_per_wf", self.recoveries_per_wf),
            ("demotion_fraction", self.demotion_fraction),
            ("remote_ps_stalls_per_wf", self.remote_ps_stalls_per_wf),
            (
                "early_retired_load_fraction",
                self.early_retired_load_fraction,
            ),
            ("retry_traffic_pct", self.retry_traffic_pct),
            ("bs_overflows_per_wf", self.bs_overflows_per_wf),
            ("bs_peak_lines", self.bs_peak_lines),
            ("load_squash_fraction", self.load_squash_fraction),
            ("l1_miss_rate", self.l1_miss_rate),
            ("bytes_per_message", self.bytes_per_message),
        ]
    }

    /// Sets a field by its [`DerivedStats::fields`] name; `false` if the
    /// name is unknown (snapshot schema drift).
    pub fn set_field(&mut self, name: &str, value: f64) -> bool {
        let slot = match name {
            "fence_stall_fraction" => &mut self.fence_stall_fraction,
            "fence_stall_per_fence" => &mut self.fence_stall_per_fence,
            "fences_per_kilo_instr" => &mut self.fences_per_kilo_instr,
            "weak_fence_fraction" => &mut self.weak_fence_fraction,
            "bs_lines_per_wf" => &mut self.bs_lines_per_wf,
            "bounces_per_wf" => &mut self.bounces_per_wf,
            "retries_per_bounced_write" => &mut self.retries_per_bounced_write,
            "order_ops_per_wf" => &mut self.order_ops_per_wf,
            "cond_order_failure_rate" => &mut self.cond_order_failure_rate,
            "recoveries_per_wf" => &mut self.recoveries_per_wf,
            "demotion_fraction" => &mut self.demotion_fraction,
            "remote_ps_stalls_per_wf" => &mut self.remote_ps_stalls_per_wf,
            "early_retired_load_fraction" => &mut self.early_retired_load_fraction,
            "retry_traffic_pct" => &mut self.retry_traffic_pct,
            "bs_overflows_per_wf" => &mut self.bs_overflows_per_wf,
            "bs_peak_lines" => &mut self.bs_peak_lines,
            "load_squash_fraction" => &mut self.load_squash_fraction,
            "l1_miss_rate" => &mut self.l1_miss_rate,
            "bytes_per_message" => &mut self.bytes_per_message,
            _ => return false,
        };
        *slot = value;
        true
    }
}

impl fmt::Display for MachineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.aggregate();
        writeln!(f, "cycles: {}", self.cycles)?;
        writeln!(
            f,
            "busy/fence/other/idle: {}/{}/{}/{}",
            a.busy_cycles, a.fence_stall_cycles, a.other_stall_cycles, a.idle_cycles
        )?;
        writeln!(
            f,
            "instrs: {} (ld {} st {} rmw {} sf {} wf {})",
            a.instrs_retired, a.loads, a.stores, a.rmws, a.sf_count, a.wf_count
        )?;
        writeln!(
            f,
            "bounces: {} writes / {} retries; orders {}; CO ok/fail {}/{}; recoveries {}",
            a.writes_bounced,
            a.bounce_retries,
            a.order_ops,
            a.cond_order_successes,
            a.cond_order_failures,
            a.recoveries
        )?;
        write!(
            f,
            "traffic: {} B (+{:.2}% retries){}",
            self.traffic.total_bytes(),
            self.traffic.retry_increase_pct(),
            if self.deadlocked { "; DEADLOCKED" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_cycle_buckets() {
        let mut s = CoreStats::default();
        s.record_cycle(StallKind::Busy);
        s.record_cycle(StallKind::Fence);
        s.record_cycle(StallKind::Fence);
        s.record_cycle(StallKind::Other);
        s.record_cycle(StallKind::Idle);
        assert_eq!(s.busy_cycles, 1);
        assert_eq!(s.fence_stall_cycles, 2);
        assert_eq!(s.other_stall_cycles, 1);
        assert_eq!(s.idle_cycles, 1);
        assert_eq!(s.total_cycles(), 5);
    }

    #[test]
    fn fences_per_kilo_instr() {
        let s = CoreStats {
            instrs_retired: 2000,
            sf_count: 3,
            wf_count: 1,
            ..Default::default()
        };
        assert!((s.fences_per_kilo_instr() - 2.0).abs() < 1e-12);
        assert_eq!(CoreStats::default().fences_per_kilo_instr(), 0.0);
    }

    #[test]
    fn avg_bs_lines() {
        let s = CoreStats {
            wf_count: 4,
            bs_lines_sum: 14,
            ..Default::default()
        };
        assert!((s.avg_bs_lines() - 3.5).abs() < 1e-12);
        assert_eq!(CoreStats::default().avg_bs_lines(), 0.0);
    }

    #[test]
    fn aggregate_sums_cores() {
        let mut m = MachineStats::default();
        m.cores.push(CoreStats {
            busy_cycles: 10,
            fence_stall_cycles: 5,
            bs_peak: 3,
            ..Default::default()
        });
        m.cores.push(CoreStats {
            busy_cycles: 7,
            fence_stall_cycles: 1,
            bs_peak: 9,
            ..Default::default()
        });
        let a = m.aggregate();
        assert_eq!(a.busy_cycles, 17);
        assert_eq!(a.fence_stall_cycles, 6);
        assert_eq!(a.bs_peak, 9);
        assert!((m.fence_stall_fraction() - 6.0 / 23.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_retry_percentage() {
        let t = TrafficStats {
            base_bytes: 1000,
            retry_bytes: 25,
            messages: 10,
        };
        assert_eq!(t.total_bytes(), 1025);
        assert!((t.retry_increase_pct() - 2.5).abs() < 1e-12);
        assert_eq!(TrafficStats::default().retry_increase_pct(), 0.0);
    }

    fn sample(busy: u64, cores: usize, base: u64) -> MachineStats {
        MachineStats {
            cycles: busy * 10,
            cores: (0..cores)
                .map(|i| CoreStats {
                    busy_cycles: busy + i as u64,
                    fence_stall_cycles: i as u64,
                    bs_peak: busy % 7,
                    ..Default::default()
                })
                .collect(),
            traffic: TrafficStats {
                base_bytes: base,
                retry_bytes: base / 4,
                messages: base / 32,
            },
            deadlocked: false,
        }
    }

    #[test]
    fn merge_identity() {
        let a = sample(100, 3, 4096);
        let mut lhs = a.clone();
        lhs.merge(&MachineStats::default());
        assert_eq!(lhs, a, "default is a right identity");
        let mut rhs = MachineStats::default();
        rhs.merge(&a);
        assert_eq!(rhs, a, "default is a left identity");
    }

    #[test]
    fn merge_associativity() {
        // Deliberately ragged core counts: associativity must hold even
        // when runs come from machines of different sizes.
        let (a, b, c) = (sample(10, 2, 100), sample(20, 4, 200), sample(30, 3, 50));
        let ab_c = a.clone().merged(&b).merged(&c);
        let a_bc = a.clone().merged(&b.clone().merged(&c));
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.cycles, 600);
        assert_eq!(ab_c.cores.len(), 4);
        assert_eq!(ab_c.traffic.base_bytes, 350);
    }

    #[test]
    fn merge_deadlock_is_sticky() {
        let mut a = sample(1, 1, 8);
        let dead = MachineStats {
            deadlocked: true,
            ..Default::default()
        };
        a.merge(&dead);
        assert!(a.deadlocked);
    }

    #[test]
    fn derived_surfaces_every_collected_counter() {
        // The PR-3 counters that used to be collected-but-dropped now
        // land in derived() ratios.
        let mut m = MachineStats::default();
        m.cores.push(CoreStats {
            loads: 100,
            wf_count: 4,
            bs_overflows: 2,
            bs_peak: 7,
            load_squashes: 5,
            l1_misses: 10,
            l1_hits: 30,
            ..Default::default()
        });
        m.traffic = TrafficStats {
            base_bytes: 3000,
            retry_bytes: 200,
            messages: 40,
        };
        let d = m.derived();
        assert!((d.bs_overflows_per_wf - 0.5).abs() < 1e-12);
        assert_eq!(d.bs_peak_lines, 7.0);
        assert!((d.load_squash_fraction - 0.05).abs() < 1e-12);
        assert!((d.l1_miss_rate - 0.25).abs() < 1e-12);
        assert!((d.bytes_per_message - 80.0).abs() < 1e-12);
    }

    #[test]
    fn derived_fields_round_trip_by_name() {
        let mut src = DerivedStats::default();
        // Give every field a distinct value via the name API...
        for (i, (name, _)) in DerivedStats::default().fields().iter().enumerate() {
            assert!(src.set_field(name, i as f64 + 0.5), "unknown field {name}");
        }
        // ...and read them all back through fields().
        for (i, (name, v)) in src.fields().iter().enumerate() {
            assert_eq!(*v, i as f64 + 0.5, "field {name} lost its value");
        }
        assert!(!src.set_field("no_such_field", 1.0));
    }

    #[test]
    fn core_values_round_trip_in_addassign_order() {
        // Give every counter a distinct value so a transposition in
        // either direction would be caught.
        let vals: Vec<u64> = (1..=CoreStats::FIELDS as u64).map(|i| i * 11).collect();
        let core = CoreStats::from_values(&vals).unwrap();
        assert_eq!(core.values().to_vec(), vals);
        // Spot-check that the array order is the declaration order.
        assert_eq!(core.busy_cycles, 11);
        assert_eq!(core.bs_peak, 13 * 11);
        assert_eq!(core.l1_hits, 25 * 11);
        // Wrong lengths are schema drift, not a panic.
        assert!(CoreStats::from_values(&vals[..24]).is_none());
        assert!(CoreStats::from_values(&[]).is_none());
    }

    #[test]
    fn display_mentions_deadlock() {
        let m = MachineStats {
            deadlocked: true,
            cores: vec![CoreStats::default()],
            ..Default::default()
        };
        assert!(format!("{m}").contains("DEADLOCKED"));
    }
}
