//! Statistics counters.
//!
//! Every quantity the paper's evaluation reports is collected here:
//! per-core cycle breakdowns (busy / fence stall / other stall, Figures
//! 8, 10, 11), fence frequencies and Bypass-Set occupancies, bounce and
//! retry counts, network traffic (Table 4), W+ recoveries, and Wee
//! wf→sf conversions.

use std::fmt;
use std::ops::AddAssign;

use crate::telemetry::{field, Field, Persisted, Shape};

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

    /// Number of counters: the length of a core's array wire form.
    pub const FIELDS: usize = <Self as Persisted>::LIST.len();

    /// Rebuilds a core from its counters in wire order. `None` when the
    /// slice has the wrong length.
    pub fn from_values(vals: &[u64]) -> Option<CoreStats> {
        let mut core = CoreStats::default();
        (vals.len() == Self::FIELDS).then(|| {
            for (at, &v) in Self::LIST.iter().filter_map(|f| f.at).zip(vals) {
                *at(&mut core) = v;
            }
            core
        })
    }
}

/// The sweep ledger persists a core as an array of its counters in this
/// order, which is also the order `AddAssign` folds in.
impl Persisted for CoreStats {
    type Value = u64;
    const NAME: &'static str = "core";
    const SHAPE: Shape = Shape::Array;
    const LIST: &'static [Field<Self, u64>] = &[
        field!("busy_cycles", busy_cycles),
        field!("fence_stall_cycles", fence_stall_cycles),
        field!("other_stall_cycles", other_stall_cycles),
        field!("idle_cycles", idle_cycles),
        field!("instrs_retired", instrs_retired),
        field!("loads", loads),
        field!("stores", stores),
        field!("rmws", rmws),
        field!("sf_count", sf_count),
        field!("wf_count", wf_count),
        field!("wee_demotions", wee_demotions),
        field!("bs_lines_sum", bs_lines_sum),
        field!("bs_peak", bs_peak),
        field!("bs_overflows", bs_overflows),
        field!("writes_bounced", writes_bounced),
        field!("bounce_retries", bounce_retries),
        field!("order_ops", order_ops),
        field!("cond_order_failures", cond_order_failures),
        field!("cond_order_successes", cond_order_successes),
        field!("recoveries", recoveries),
        field!("load_squashes", load_squashes),
        field!("early_retired_loads", early_retired_loads),
        field!("remote_ps_stalls", remote_ps_stalls),
        field!("l1_misses", l1_misses),
        field!("l1_hits", l1_hits),
    ];
}

impl AddAssign<&CoreStats> for CoreStats {
    /// Sums every counter, except `bs_peak`: a peak, so it takes the max.
    fn add_assign(&mut self, rhs: &CoreStats) {
        let peak = self.bs_peak.max(rhs.bs_peak);
        let mut rhs = *rhs;
        for at in Self::LIST.iter().filter_map(|f| f.at) {
            *at(self) += *at(&mut rhs);
        }
        self.bs_peak = peak;
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
    /// Every ratio as `(name, value)`, in list order: what `perfdiff`
    /// compares.
    pub fn fields(&self) -> Vec<(&'static str, f64)> {
        let mut d = *self;
        Self::LIST
            .iter()
            .filter_map(|f| Some((f.key, *f.at?(&mut d))))
            .collect()
    }
}

/// A snapshot entry's `derived` block: read by name, so an unknown name
/// is schema drift.
impl Persisted for DerivedStats {
    type Value = f64;
    const NAME: &'static str = "derived";
    const SHAPE: Shape = Shape::Closed;
    const LIST: &'static [Field<Self, f64>] = &[
        field!("fence_stall_fraction", fence_stall_fraction),
        field!("fence_stall_per_fence", fence_stall_per_fence),
        field!("fences_per_kilo_instr", fences_per_kilo_instr),
        field!("weak_fence_fraction", weak_fence_fraction),
        field!("bs_lines_per_wf", bs_lines_per_wf),
        field!("bounces_per_wf", bounces_per_wf),
        field!("retries_per_bounced_write", retries_per_bounced_write),
        field!("order_ops_per_wf", order_ops_per_wf),
        field!("cond_order_failure_rate", cond_order_failure_rate),
        field!("recoveries_per_wf", recoveries_per_wf),
        field!("demotion_fraction", demotion_fraction),
        field!("remote_ps_stalls_per_wf", remote_ps_stalls_per_wf),
        field!("early_retired_load_fraction", early_retired_load_fraction),
        field!("retry_traffic_pct", retry_traffic_pct),
        field!("bs_overflows_per_wf", bs_overflows_per_wf),
        field!("bs_peak_lines", bs_peak_lines),
        field!("load_squash_fraction", load_squash_fraction),
        field!("l1_miss_rate", l1_miss_rate),
        field!("bytes_per_message", bytes_per_message),
    ];
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
    fn derived_block_is_read_by_name() {
        use crate::telemetry::{Json, Wire};
        // Give every field a distinct value, so a transposition in
        // either direction would be caught.
        let mut src = DerivedStats::default();
        let at: Vec<_> = DerivedStats::LIST.iter().filter_map(|f| f.at).collect();
        for (i, at) in at.iter().enumerate() {
            *at(&mut src) = i as f64 + 0.5;
        }
        let json = src.put();
        assert_eq!(DerivedStats::read(&json), Ok(src));
        for (i, (name, v)) in src.fields().iter().enumerate() {
            assert_eq!(*v, i as f64 + 0.5, "field {name} lost its value");
        }
        // A missing name keeps its default; an unknown one is drift.
        assert_eq!(
            DerivedStats::read(&Json::Obj(vec![])),
            Ok(DerivedStats::default())
        );
        let drift = Json::Obj(vec![("no_such_field".to_string(), Json::Num(1.0))]);
        let err = DerivedStats::read(&drift).unwrap_err();
        assert!(
            err.contains("unknown derived field `no_such_field`"),
            "{err}"
        );
    }

    #[test]
    fn core_values_round_trip_in_addassign_order() {
        use crate::telemetry::Wire;
        // Give every counter a distinct value so a transposition in
        // either direction would be caught.
        let vals: Vec<u64> = (1..=CoreStats::FIELDS as u64).map(|i| i * 11).collect();
        let core = CoreStats::from_values(&vals).unwrap();
        let wire: Vec<u64> = core
            .put()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(wire, vals);
        // Spot-check that the array order is the declaration order.
        assert_eq!(core.busy_cycles, 11);
        assert_eq!(core.bs_peak, 13 * 11);
        assert_eq!(core.l1_hits, 25 * 11);
        // Wrong lengths are schema drift, not a panic.
        assert!(CoreStats::from_values(&vals[..24]).is_none());
        assert!(CoreStats::from_values(&[]).is_none());
        // Folding sums every counter but takes the max of the peak.
        let mut sum = core;
        sum += &core;
        assert_eq!(sum.busy_cycles, 22);
        assert_eq!(sum.l1_hits, 2 * 25 * 11);
        assert_eq!(sum.bs_peak, 13 * 11);
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
