//! Machine configuration: the paper's Table 2 parameters plus the knobs of
//! the fence designs.
//!
//! Defaults reproduce the evaluated machine: 8 out-of-order 4-issue cores,
//! 140-entry ROB, 64-entry write buffer, private 32 KB 4-way L1 with 32 B
//! lines (2-cycle round trip), shared per-core 128 KB 8-way L2 banks
//! (11-cycle local round trip), a 32-entry Bypass Set per core, a full-map
//! MESI directory under TSO, a 2D mesh with 5 cycles/hop, and a 200-cycle
//! memory round trip.

use std::fmt;

/// Which fence microarchitecture the machine implements.
///
/// This is the paper's Table 1 taxonomy. Workloads tag each fence with a
/// *role* (performance-critical or not); the design decides what hardware
/// fence each role maps to:
///
/// * [`SPlus`](FenceDesign::SPlus) — every fence is a conventional strong
///   fence (`sf`). Baseline.
/// * [`WsPlus`](FenceDesign::WsPlus) — critical fences are weak (`wf`) with
///   the **Order** operation; at most one wf per fence group is assumed.
/// * [`SwPlus`](FenceDesign::SwPlus) — critical fences are weak with
///   word-granularity Bypass Sets and the **Conditional Order** operation;
///   any asymmetric group is safe.
/// * [`WPlus`](FenceDesign::WPlus) — every fence is weak; deadlock is
///   allowed, detected by timeout, and rolled back from a checkpoint.
/// * [`Wee`](FenceDesign::Wee) — the WeeFence comparison point: weak fences
///   with global state (Pending Sets in a directory-resident GRT); a fence
///   whose state would span multiple directory banks degrades to `sf`.
/// * [`WfOnlyUnsafe`](FenceDesign::WfOnlyUnsafe) — a *deliberately broken*
///   design (WeeFence with no GRT and no W+ recovery) used by tests and the
///   litmus example to demonstrate the deadlock of Figure 3a. Not part of
///   the paper's taxonomy; never use it for real workloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FenceDesign {
    /// Conventional fences only (baseline `S+`).
    SPlus,
    /// Asymmetric groups with at most one weak fence (`WS+`).
    WsPlus,
    /// Any asymmetric group (`SW+`).
    SwPlus,
    /// All fences weak, timeout + rollback recovery (`W+`).
    WPlus,
    /// WeeFence with its global GRT (comparison design).
    Wee,
    /// Weak fences with no protection at all — deadlocks on a fence group.
    WfOnlyUnsafe,
}

impl FenceDesign {
    /// All designs evaluated in the paper, in presentation order.
    pub const EVALUATED: [FenceDesign; 4] = [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ];

    /// Whether the Bypass Set records word-granularity addresses.
    pub fn fine_grain_bs(self) -> bool {
        matches!(self, FenceDesign::SwPlus)
    }

    /// Short label used in reports ("S+", "WS+", …).
    pub fn label(self) -> &'static str {
        match self {
            FenceDesign::SPlus => "S+",
            FenceDesign::WsPlus => "WS+",
            FenceDesign::SwPlus => "SW+",
            FenceDesign::WPlus => "W+",
            FenceDesign::Wee => "Wee",
            FenceDesign::WfOnlyUnsafe => "wf-only(unsafe)",
        }
    }

    /// Parses a safe design's label in any case: the [`FenceDesign::label`]
    /// names (`S+`, `WS+`, `SW+`, `W+`, `Wee`) and the spelled-out
    /// `splus`, `wsplus`, `swplus` and `wplus`. The unsafe wf-only design
    /// does not parse.
    pub fn from_label(label: &str) -> Option<FenceDesign> {
        Some(match label.to_ascii_lowercase().as_str() {
            "s+" | "splus" => FenceDesign::SPlus,
            "ws+" | "wsplus" => FenceDesign::WsPlus,
            "sw+" | "swplus" => FenceDesign::SwPlus,
            "w+" | "wplus" => FenceDesign::WPlus,
            "wee" => FenceDesign::Wee,
            _ => return None,
        })
    }
}

impl fmt::Display for FenceDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic timing perturbations for schedule exploration.
///
/// The simulator is cycle-accurate and deterministic, so a single run
/// exercises exactly one interleaving. The exploration engine
/// (`asymfence-explore`) sweeps seeds; each seed stretches latencies at
/// three independent injection points, within bounds the coherence
/// protocol tolerates by construction:
///
/// * **NoC delay jitter** — every network message may arrive up to
///   `noc_jitter` cycles late. Point-to-point FIFO order (which the
///   protocol relies on) is preserved by the network layer.
/// * **Write-buffer drain stalls** — each store may wait up to
///   `wb_stall` extra cycles in the write buffer before issuing,
///   widening the window in which post-fence loads run ahead.
/// * **Invalidation reordering** — invalidation (`Inv`) deliveries may
///   lag an additional `inval_delay` cycles, reordering invalidations
///   against data replies and against other sharers' invalidations.
///
/// All perturbations are pure functions of `(seed, injection point,
/// event index)`, so a seed reproduces a run cycle-for-cycle. The
/// default (`all zero`) disables perturbation entirely and leaves the
/// baseline timing untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Perturbation {
    /// Seed for all perturbation draws.
    pub seed: u64,
    /// Max extra cycles added to any network message's delivery.
    pub noc_jitter: u64,
    /// Max extra cycles a store waits in the write buffer before issuing.
    pub wb_stall: u64,
    /// Max *additional* extra cycles on invalidation deliveries.
    pub inval_delay: u64,
}

impl Perturbation {
    /// Perturbation streams (namespaces for [`Perturbation::draw`]).
    pub const STREAM_NOC: u64 = 0x006E_6F63;
    /// Write-buffer stall stream.
    pub const STREAM_WB: u64 = 0x7762;
    /// Invalidation delay stream.
    pub const STREAM_INVAL: u64 = 0x0069_6E76;

    /// Whether any perturbation is enabled.
    pub fn is_active(&self) -> bool {
        self.noc_jitter != 0 || self.wb_stall != 0 || self.inval_delay != 0
    }

    /// Deterministic draw in `[0, max]` for event `event` of `stream`.
    pub fn draw(&self, stream: u64, event: u64, max: u64) -> u64 {
        if max == 0 {
            return 0;
        }
        crate::rng::mix64(&[self.seed, stream, event]) % (max + 1)
    }
}

/// Full configuration of a simulated machine.
///
/// Construct with [`MachineConfig::default`] (the paper's machine) or
/// [`MachineConfig::builder`].
///
/// # Examples
///
/// ```
/// use asymfence_common::config::{FenceDesign, MachineConfig};
///
/// let cfg = MachineConfig::builder()
///     .cores(16)
///     .fence_design(FenceDesign::WPlus)
///     .build();
/// assert_eq!(cfg.num_cores, 16);
/// assert_eq!(cfg.mesh_dims(), (4, 4));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (paper: 4–32, default 8).
    pub num_cores: usize,
    /// Fence microarchitecture.
    pub fence_design: FenceDesign,
    /// Issue/retire width of each core (instructions per cycle).
    pub issue_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Write-buffer capacity.
    pub wb_entries: usize,
    /// Stores the write buffer may merge with memory concurrently. TSO
    /// (the paper's model) merges **one at a time**; larger values model
    /// an RC-flavoured drain (paper §2.1) for the ablation studies. Full
    /// RC load/store reordering is out of scope, as in the paper's §5.2.
    pub wb_merge_width: usize,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Word size in bytes (granularity of SW+ Bypass-Set matching).
    pub word_bytes: u64,
    /// Private L1 size in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 round-trip latency in cycles (hit).
    pub l1_hit_cycles: u64,
    /// Per-core shared L2 bank size in bytes.
    pub l2_bank_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 bank access latency in cycles (excluding network).
    pub l2_hit_cycles: u64,
    /// Off-chip memory round trip in cycles.
    pub mem_cycles: u64,
    /// Mesh link traversal latency per hop, in cycles.
    pub hop_cycles: u64,
    /// Link width in bytes per cycle (256-bit links).
    pub link_bytes_per_cycle: u64,
    /// Directory/L2 interleaving granularity in lines (consecutive
    /// `dir_interleave_lines`-line chunks share a home bank; default
    /// 4096 lines = 128 KB chunks).
    pub dir_interleave_lines: u64,
    /// Bypass Set capacity (entries per core).
    pub bs_entries: usize,
    /// Cycles a bounced (NACKed) write waits before retrying.
    pub bounce_retry_cycles: u64,
    /// W+ deadlock-suspicion timeout, in cycles.
    pub w_timeout_cycles: u64,
    /// The watchdog horizon, in cycles. The machine declares deadlock when
    /// no core makes global progress for this long (a true deadlock, as
    /// `WfOnlyUnsafe` demonstrates), or when some core's write buffer
    /// drains nothing for this long while other instructions keep
    /// retiring (a store-drain livelock: stores bouncing forever under a
    /// design without W+'s timeout and rollback, such as SW+).
    pub watchdog_cycles: u64,
    /// Whether to keep the perform-order log needed by the SCV checker.
    pub record_scv_log: bool,
    /// Whether to attach a fence-lifecycle trace sink
    /// ([`crate::trace::TraceSink`]). Pure observation: enabling it
    /// never changes simulation results.
    pub record_trace: bool,
    /// RNG seed threaded to workloads for deterministic runs.
    pub seed: u64,
    /// Deterministic timing perturbations (off by default).
    pub perturb: Perturbation,
    /// How the machine sources schedule nondeterminism: sample seeded
    /// jitter from `perturb` (the default) or replay a scripted
    /// decision vector for bounded-exhaustive exploration.
    pub schedule: crate::schedule::SchedulePlan,
    /// An explicit per-site fence-strength override
    /// ([`crate::assign::SiteMask`]). `None` (the default) leaves every
    /// fence on the design's role rule.
    pub fence_assignment: Option<crate::assign::SiteMask>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            num_cores: 8,
            fence_design: FenceDesign::SPlus,
            issue_width: 4,
            rob_entries: 140,
            wb_entries: 64,
            wb_merge_width: 1,
            line_bytes: 32,
            word_bytes: 8,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l1_hit_cycles: 2,
            l2_bank_bytes: 128 * 1024,
            l2_ways: 8,
            l2_hit_cycles: 11,
            mem_cycles: 200,
            hop_cycles: 5,
            link_bytes_per_cycle: 32,
            dir_interleave_lines: 4096,
            bs_entries: 32,
            bounce_retry_cycles: 16,
            w_timeout_cycles: 200,
            watchdog_cycles: 200_000,
            record_scv_log: false,
            record_trace: false,
            seed: 0xA5F0_2015,
            perturb: Perturbation::default(),
            schedule: crate::schedule::SchedulePlan::Seeded,
            fence_assignment: None,
        }
    }
}

impl MachineConfig {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder {
            cfg: MachineConfig::default(),
        }
    }

    /// Words per cache line.
    pub fn words_per_line(&self) -> usize {
        (self.line_bytes / self.word_bytes) as usize
    }

    /// Number of L1 sets.
    pub fn l1_sets(&self) -> usize {
        (self.l1_bytes / self.line_bytes) as usize / self.l1_ways
    }

    /// Number of sets in one L2 bank.
    pub fn l2_sets(&self) -> usize {
        (self.l2_bank_bytes / self.line_bytes) as usize / self.l2_ways
    }

    /// Bytes covered by one directory-interleave chunk.
    pub fn interleave_bytes(&self) -> u64 {
        self.dir_interleave_lines * self.line_bytes
    }

    /// Mesh dimensions `(cols, rows)`: the squarest grid that fits
    /// `num_cores` nodes.
    pub fn mesh_dims(&self) -> (usize, usize) {
        let n = self.num_cores.max(1);
        let mut cols = (n as f64).sqrt().ceil() as usize;
        if cols == 0 {
            cols = 1;
        }
        let rows = n.div_ceil(cols);
        (cols, rows)
    }

    /// Whether `other` describes the same hardware *shape*: every
    /// parameter that is baked into constructed machine structures
    /// (cache geometry, mesh, directory banks, Bypass-Set capacity,
    /// link timing). Two shape-equal configs may still differ in purely
    /// dynamic knobs — fence design, seeds, perturbation, schedule plan,
    /// fence assignment, timeouts, trace/log switches — which a pooled
    /// machine picks up on reset without rebuilding.
    pub fn same_machine_shape(&self, other: &MachineConfig) -> bool {
        self.num_cores == other.num_cores
            && self.line_bytes == other.line_bytes
            && self.word_bytes == other.word_bytes
            && self.l1_bytes == other.l1_bytes
            && self.l1_ways == other.l1_ways
            && self.l2_bank_bytes == other.l2_bank_bytes
            && self.l2_ways == other.l2_ways
            && self.l2_hit_cycles == other.l2_hit_cycles
            && self.mem_cycles == other.mem_cycles
            && self.hop_cycles == other.hop_cycles
            && self.link_bytes_per_cycle == other.link_bytes_per_cycle
            && self.dir_interleave_lines == other.dir_interleave_lines
            && self.bs_entries == other.bs_entries
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint
    /// (non-power-of-two line size, zero cores, word larger than line, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be at least 1".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err("line_bytes must be a power of two".into());
        }
        if !self.word_bytes.is_power_of_two() || self.word_bytes > self.line_bytes {
            return Err("word_bytes must be a power of two no larger than line_bytes".into());
        }
        // Mirrors the coherence crate's `MAX_LINE_WORDS`: line payloads
        // are stored inline in `Copy` protocol messages, so the bound is
        // deliberately tight to keep per-message copies cheap.
        if self.words_per_line() > 8 {
            return Err("at most 8 words per line (inline line-data width)".into());
        }
        if self.issue_width == 0 || self.rob_entries == 0 || self.wb_entries == 0 {
            return Err("issue_width, rob_entries and wb_entries must be nonzero".into());
        }
        if self.wb_merge_width == 0 {
            return Err("wb_merge_width must be nonzero".into());
        }
        if self.l1_sets() == 0 || self.l2_sets() == 0 {
            return Err("cache geometry yields zero sets".into());
        }
        if self.bs_entries == 0 {
            return Err("bs_entries must be nonzero".into());
        }
        if self.dir_interleave_lines == 0 {
            return Err("dir_interleave_lines must be nonzero".into());
        }
        let p = &self.perturb;
        if p.noc_jitter.max(p.wb_stall).max(p.inval_delay) >= self.watchdog_cycles {
            return Err("perturbation delays must stay below watchdog_cycles".into());
        }
        if let crate::schedule::SchedulePlan::Scripted(s) = &self.schedule {
            if s.arity < 2 {
                return Err("scripted schedules need at least two options per point".into());
            }
            if s.quanta.max_delay(s.arity) >= self.watchdog_cycles {
                return Err("scripted schedule delays must stay below watchdog_cycles".into());
            }
        }
        Ok(())
    }
}

/// Builder for [`MachineConfig`].
///
/// # Examples
///
/// ```
/// use asymfence_common::config::{FenceDesign, MachineConfig};
/// let cfg = MachineConfig::builder()
///     .cores(4)
///     .fence_design(FenceDesign::WsPlus)
///     .seed(7)
///     .build();
/// assert_eq!(cfg.fence_design, FenceDesign::WsPlus);
/// ```
#[derive(Clone, Debug)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Sets the core count.
    pub fn cores(mut self, n: usize) -> Self {
        self.cfg.num_cores = n;
        self
    }

    /// Sets the fence design.
    pub fn fence_design(mut self, d: FenceDesign) -> Self {
        self.cfg.fence_design = d;
        self
    }

    /// Sets the RNG seed handed to workloads.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the write-buffer capacity.
    pub fn wb_entries(mut self, n: usize) -> Self {
        self.cfg.wb_entries = n;
        self
    }

    /// Sets how many stores may merge with memory concurrently (1 = TSO).
    pub fn wb_merge_width(mut self, n: usize) -> Self {
        self.cfg.wb_merge_width = n;
        self
    }

    /// Sets the reorder-buffer capacity.
    pub fn rob_entries(mut self, n: usize) -> Self {
        self.cfg.rob_entries = n;
        self
    }

    /// Sets the Bypass-Set capacity.
    pub fn bs_entries(mut self, n: usize) -> Self {
        self.cfg.bs_entries = n;
        self
    }

    /// Sets the directory interleaving granularity (in lines).
    pub fn dir_interleave_lines(mut self, n: u64) -> Self {
        self.cfg.dir_interleave_lines = n;
        self
    }

    /// Bytes covered by one directory-interleave chunk.
    pub fn interleave_bytes(&self) -> u64 {
        self.cfg.dir_interleave_lines * self.cfg.line_bytes
    }

    /// Sets the W+ deadlock-suspicion timeout.
    pub fn w_timeout_cycles(mut self, n: u64) -> Self {
        self.cfg.w_timeout_cycles = n;
        self
    }

    /// Sets the bounced-write retry backoff.
    pub fn bounce_retry_cycles(mut self, n: u64) -> Self {
        self.cfg.bounce_retry_cycles = n;
        self
    }

    /// Sets the watchdog horizon (global progress and store drain).
    pub fn watchdog_cycles(mut self, n: u64) -> Self {
        self.cfg.watchdog_cycles = n;
        self
    }

    /// Sets the mesh per-hop latency.
    pub fn hop_cycles(mut self, n: u64) -> Self {
        self.cfg.hop_cycles = n;
        self
    }

    /// Sets the off-chip memory round trip.
    pub fn mem_cycles(mut self, n: u64) -> Self {
        self.cfg.mem_cycles = n;
        self
    }

    /// Enables or disables the SCV perform-order log.
    pub fn record_scv_log(mut self, on: bool) -> Self {
        self.cfg.record_scv_log = on;
        self
    }

    /// Enables or disables the fence-lifecycle trace sink.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.cfg.record_trace = on;
        self
    }

    /// Sets the deterministic timing perturbations.
    pub fn perturb(mut self, p: Perturbation) -> Self {
        self.cfg.perturb = p;
        self
    }

    /// Sets the schedule plan (seeded sampling vs scripted replay).
    pub fn schedule(mut self, plan: crate::schedule::SchedulePlan) -> Self {
        self.cfg.schedule = plan;
        self
    }

    /// Applies an arbitrary mutation, for knobs without a dedicated setter.
    pub fn tweak(mut self, f: impl FnOnce(&mut MachineConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn build(self) -> MachineConfig {
        if let Err(e) = self.cfg.validate() {
            panic!("invalid MachineConfig: {e}");
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table2() {
        let c = MachineConfig::default();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_entries, 140);
        assert_eq!(c.wb_entries, 64);
        assert_eq!(c.line_bytes, 32);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l1_ways, 4);
        assert_eq!(c.l1_hit_cycles, 2);
        assert_eq!(c.l2_bank_bytes, 128 * 1024);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.l2_hit_cycles, 11);
        assert_eq!(c.mem_cycles, 200);
        assert_eq!(c.hop_cycles, 5);
        assert_eq!(c.link_bytes_per_cycle, 32);
        assert_eq!(c.bs_entries, 32);
        c.validate().expect("default config must validate");
    }

    #[test]
    fn geometry_derived_quantities() {
        let c = MachineConfig::default();
        assert_eq!(c.words_per_line(), 4);
        assert_eq!(c.l1_sets(), 256);
        assert_eq!(c.l2_sets(), 512);
    }

    #[test]
    fn mesh_dims_cover_core_counts() {
        for (n, dims) in [
            (1, (1, 1)),
            (4, (2, 2)),
            (8, (3, 3)),
            (16, (4, 4)),
            (32, (6, 6)),
        ] {
            let c = MachineConfig::builder().cores(n).build();
            assert_eq!(c.mesh_dims(), dims, "cores={n}");
            let (cols, rows) = c.mesh_dims();
            assert!(cols * rows >= n);
        }
    }

    #[test]
    fn only_sw_plus_tracks_words() {
        use FenceDesign::*;
        assert!(SwPlus.fine_grain_bs());
        assert!(!WsPlus.fine_grain_bs());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let c = MachineConfig {
            num_cores: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            line_bytes: 48,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            word_bytes: 64,
            ..Default::default()
        };
        assert!(c.validate().is_err());

        let c = MachineConfig {
            bs_entries: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid MachineConfig")]
    fn builder_panics_on_invalid() {
        let _ = MachineConfig::builder().cores(0).build();
    }

    #[test]
    fn perturbation_defaults_off_and_draws_deterministically() {
        let p = Perturbation::default();
        assert!(!p.is_active());
        assert_eq!(p.draw(Perturbation::STREAM_NOC, 7, 0), 0);

        let p = Perturbation {
            seed: 11,
            noc_jitter: 8,
            wb_stall: 0,
            inval_delay: 0,
        };
        assert!(p.is_active());
        let a = p.draw(Perturbation::STREAM_NOC, 3, 8);
        let b = p.draw(Perturbation::STREAM_NOC, 3, 8);
        assert_eq!(a, b);
        assert!(a <= 8);
        // Different events and streams draw independently.
        let evs: std::collections::HashSet<u64> = (0..64)
            .map(|e| p.draw(Perturbation::STREAM_NOC, e, 8))
            .collect();
        assert!(evs.len() > 1, "draws must vary by event");
    }

    #[test]
    fn perturbation_bounded_by_watchdog() {
        let mut c = MachineConfig::default();
        c.perturb = Perturbation {
            seed: 1,
            noc_jitter: c.watchdog_cycles,
            wb_stall: 0,
            inval_delay: 0,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels_are_papers_names() {
        let labels: Vec<&str> = FenceDesign::EVALUATED.iter().map(|d| d.label()).collect();
        assert_eq!(labels, ["S+", "WS+", "W+", "Wee"]);
    }

    #[test]
    fn safe_design_labels_round_trip_in_any_case() {
        use FenceDesign::*;
        for d in [SPlus, WsPlus, SwPlus, WPlus, Wee] {
            let label = d.label();
            assert_eq!(FenceDesign::from_label(label), Some(d), "{label}");
            assert_eq!(
                FenceDesign::from_label(&label.to_ascii_lowercase()),
                Some(d)
            );
            assert_eq!(
                FenceDesign::from_label(&label.to_ascii_uppercase()),
                Some(d)
            );
        }
        for (tok, d) in [
            ("splus", SPlus),
            ("WsPlus", WsPlus),
            ("SWPLUS", SwPlus),
            ("wplus", WPlus),
        ] {
            assert_eq!(FenceDesign::from_label(tok), Some(d), "{tok}");
        }
        for bad in ["", "x", "q+", "s", "all", "unsafe", WfOnlyUnsafe.label()] {
            assert_eq!(FenceDesign::from_label(bad), None, "{bad}");
        }
    }
}
