//! Deterministic fence-lifecycle tracing.
//!
//! A [`TraceSink`] is a ring-buffered recorder of structured
//! [`TraceEvent`]s: fence issue/complete/demote, Order completions,
//! store bounces, Bypass-Set insert/hit/evict, W+ checkpoint/rollback,
//! NoC hops and directory busy-NACKs — each stamped with the cycle and
//! core it happened on. The machine design is stamped once, on the sink.
//!
//! The sink is **pure observation**: recording never feeds back into the
//! simulation, so a traced run and an untraced run of the same
//! configuration produce bit-identical results (pinned by
//! `crates/bench/tests/runner_determinism.rs`). Tracing is off by
//! default; `MachineConfig::record_trace` turns it on, mirroring
//! `record_scv_log`.
//!
//! Besides the raw ring, the sink maintains *exact* aggregates that
//! survive ring wrap-around: per-class [`FenceTally`] histograms
//! (latency in log2 buckets, bounces per fence) and paired
//! issue→complete [`FenceSpan`]s keyed by the stable fence id
//! `(core, fence serial)`. [`TraceSink::chrome_json`] renders the whole
//! thing as Chrome-trace/Perfetto JSON (load it at <https://ui.perfetto.dev>).
//!
//! Producers use the [`trace_event!`](crate::trace_event) macro, which
//! evaluates its event expression only when a sink is attached.
//!
//! # Examples
//!
//! ```
//! use asymfence_common::config::FenceDesign;
//! use asymfence_common::ids::CoreId;
//! use asymfence_common::trace::{FenceClass, TraceEvent, TraceKind, TraceSink};
//!
//! let mut sink = TraceSink::new(FenceDesign::WsPlus);
//! sink.record(TraceEvent {
//!     cycle: 100,
//!     core: CoreId(1),
//!     kind: TraceKind::FenceIssue { serial: 1, class: FenceClass::Weak },
//! });
//! sink.record(TraceEvent {
//!     cycle: 160,
//!     core: CoreId(1),
//!     kind: TraceKind::FenceComplete { serial: 1 },
//! });
//! let span = &sink.spans()[0];
//! assert_eq!((span.issue, span.complete), (100, 160));
//! assert_eq!(sink.tally(FenceClass::Weak).completed, 1);
//! assert!(sink.chrome_json().contains("\"ph\":\"X\""));
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::config::FenceDesign;
use crate::ids::{CoreId, Cycle, LineAddr};

/// Default event-ring capacity (events beyond it evict the oldest).
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Number of log2 latency buckets in a [`FenceTally`].
pub const LATENCY_BUCKETS: usize = 32;

/// Number of bounce-count buckets in a [`FenceTally`] (bucket `i` counts
/// fences with `i` bounces; the last bucket is `>= BOUNCE_BUCKETS - 1`).
pub const BOUNCE_BUCKETS: usize = 8;

/// The hardware flavour of a fence episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FenceClass {
    /// Conventional strong fence (`sf`): stalls until the WB drains.
    Strong,
    /// Weak fence (`wf`): post-fence accesses may complete early.
    Weak,
    /// WeeFence weak fence: like `wf` plus the GRT deposit round trip.
    WeeWeak,
}

impl FenceClass {
    /// All classes, in tally order.
    pub const ALL: [FenceClass; 3] = [FenceClass::Strong, FenceClass::Weak, FenceClass::WeeWeak];

    /// Short label used in reports and the Perfetto export.
    pub fn label(self) -> &'static str {
        match self {
            FenceClass::Strong => "sf",
            FenceClass::Weak => "wf",
            FenceClass::WeeWeak => "wee-wf",
        }
    }

    fn idx(self) -> usize {
        match self {
            FenceClass::Strong => 0,
            FenceClass::Weak => 1,
            FenceClass::WeeWeak => 2,
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A fence instruction dispatched into the ROB. `(core, serial)` is
    /// the stable fence id every later lifecycle event refers to.
    FenceIssue {
        /// Per-core fence serial.
        serial: u64,
        /// Resolved hardware flavour at dispatch.
        class: FenceClass,
    },
    /// The fence completed: pre-fence stores drained (weak) or the WB
    /// emptied and it retired (strong).
    FenceComplete {
        /// Per-core fence serial.
        serial: u64,
    },
    /// A Wee fence whose Pending Set spanned several directory banks
    /// demoted to a conventional fence (paper §2.3).
    FenceDemote {
        /// Per-core fence serial.
        serial: u64,
    },
    /// An Order / Conditional-Order write transaction completed at this
    /// core (the line returned Shared with the update merged in memory).
    OrderComplete {
        /// The written line.
        line: LineAddr,
        /// `true` for SW+ Conditional Order, `false` for WS+ Order.
        conditional: bool,
    },
    /// A pre-fence write bounced off a remote Bypass Set and will retry.
    StoreBounce {
        /// The written line.
        line: LineAddr,
        /// Retry attempt count so far (1 = first bounce).
        attempt: u32,
    },
    /// An early-retired post-fence load entered the Bypass Set.
    BsInsert {
        /// The load's line.
        line: LineAddr,
    },
    /// The Bypass Set bounced an incoming invalidation (the core shown
    /// is the *bouncing* sharer, not the writer).
    BsHit {
        /// The contested line.
        line: LineAddr,
    },
    /// Bypass-Set entries were cleared (fence completion or rollback).
    BsEvict {
        /// How many entries left the set.
        entries: u32,
    },
    /// W+ took a checkpoint at weak-fence dispatch.
    Checkpoint {
        /// Serial of the checkpointed fence.
        serial: u64,
    },
    /// W+ deadlock-suspicion timeout expired: roll back to the
    /// checkpoint; every open fence on this core is squashed.
    Rollback {
        /// Serial of the fence rolled back to.
        serial: u64,
    },
    /// A message entered the mesh.
    NocHop {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Mesh hop count for the route.
        hops: u16,
        /// Static message-kind label (e.g. `"GetX"`).
        msg: &'static str,
    },
    /// The directory NACKed a request to a busy line (protocol
    /// serialization, not a Bypass-Set bounce).
    DirNack {
        /// The busy line.
        line: LineAddr,
    },
    /// Synthesis search: a candidate assignment survived the oracle and
    /// was scored. Emitted by the `synth` engine (the "cycle" is the
    /// search step, not a simulated cycle; the "core" is the workload
    /// index in the run).
    SynthAccept {
        /// Weak-site bitmask of the candidate (bit `i` = group site `i`).
        mask: u64,
        /// Simulated cycles the scored run took.
        cycles: u64,
    },
    /// Synthesis search: a candidate assignment was rejected.
    SynthReject {
        /// Weak-site bitmask of the candidate.
        mask: u64,
        /// Static reason label (e.g. `"ws+:>1wf"`, `"oracle:scv"`).
        reason: &'static str,
    },
}

/// One structured trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event happened on.
    pub cycle: Cycle,
    /// Core (or NoC source node) the event belongs to.
    pub core: CoreId,
    /// What happened.
    pub kind: TraceKind,
}

/// A completed fence episode: the pairing of a
/// [`FenceIssue`](TraceKind::FenceIssue) with its
/// [`FenceComplete`](TraceKind::FenceComplete) (or the
/// [`Rollback`](TraceKind::Rollback) that squashed it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FenceSpan {
    /// Core the fence ran on.
    pub core: CoreId,
    /// Per-core fence serial (`(core, serial)` is the stable fence id).
    pub serial: u64,
    /// Hardware flavour at dispatch.
    pub class: FenceClass,
    /// Dispatch cycle.
    pub issue: Cycle,
    /// Completion (or rollback) cycle.
    pub complete: Cycle,
    /// Pre-fence store bounces attributed to this episode.
    pub bounces: u32,
    /// The fence demoted from Wee-weak to conventional.
    pub demoted: bool,
    /// The episode ended in a W+ rollback instead of completing.
    pub rolled_back: bool,
}

impl FenceSpan {
    /// Issue→complete latency in cycles.
    pub fn latency(&self) -> u64 {
        self.complete.saturating_sub(self.issue)
    }
}

/// Exact per-class aggregates over every fence episode, immune to ring
/// wrap-around.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FenceTally {
    /// Fences issued.
    pub issued: u64,
    /// Fences completed.
    pub completed: u64,
    /// Fences squashed by a W+ rollback.
    pub rolled_back: u64,
    /// Wee fences demoted to conventional.
    pub demoted: u64,
    /// Store bounces attributed to fences of this class.
    pub bounces: u64,
    /// Issue→complete latency histogram; bucket `i` counts latencies in
    /// `[2^i, 2^(i+1))` cycles (bucket 0 also holds latency 0).
    pub latency_buckets: [u64; LATENCY_BUCKETS],
    /// Bounces-per-fence histogram (see [`BOUNCE_BUCKETS`]).
    pub bounce_buckets: [u64; BOUNCE_BUCKETS],
    /// Sum of completed-fence latencies.
    pub total_latency: u64,
    /// Largest completed-fence latency.
    pub max_latency: u64,
}

impl FenceTally {
    /// Mean issue→complete latency over completed fences.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Approximate latency percentile (`p` in `0..=100`) from the log2
    /// buckets; returns the upper bound of the bucket the percentile
    /// falls in. This is what the stderr histogram report and the
    /// telemetry snapshot cite as p50/p90/p99.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.completed == 0 {
            return 0;
        }
        let target = (self.completed as f64 * p / 100.0).ceil() as u64;
        let mut seen = 0;
        for (i, n) in self.latency_buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return (1u64 << (i + 1)).saturating_sub(1).min(self.max_latency);
            }
        }
        self.max_latency
    }

    /// Mean store bounces per fence episode.
    pub fn bounces_per_fence(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.bounces as f64 / self.issued as f64
        }
    }

    /// Folds another tally into this one (bucket-wise sums, max of
    /// maxima). Associative with [`FenceTally::default`] as identity, so
    /// per-run tallies can be aggregated in any grouping — the telemetry
    /// collector relies on this to fold worker output deterministically.
    pub fn merge(&mut self, other: &FenceTally) {
        self.issued += other.issued;
        self.completed += other.completed;
        self.rolled_back += other.rolled_back;
        self.demoted += other.demoted;
        self.bounces += other.bounces;
        for (a, b) in self.latency_buckets.iter_mut().zip(&other.latency_buckets) {
            *a += b;
        }
        for (a, b) in self.bounce_buckets.iter_mut().zip(&other.bounce_buckets) {
            *a += b;
        }
        self.total_latency += other.total_latency;
        self.max_latency = self.max_latency.max(other.max_latency);
    }

    fn close(&mut self, latency: u64, bounces: u32, rolled_back: bool) {
        self.bounce_buckets[(bounces as usize).min(BOUNCE_BUCKETS - 1)] += 1;
        if rolled_back {
            self.rolled_back += 1;
            return;
        }
        self.completed += 1;
        self.total_latency += latency;
        self.max_latency = self.max_latency.max(latency);
        let bucket = (latency.max(1).ilog2() as usize).min(LATENCY_BUCKETS - 1);
        self.latency_buckets[bucket] += 1;
    }
}

/// A fixed-capacity ring: pushes beyond capacity evict the oldest entry.
#[derive(Clone, Debug)]
struct Ring<T> {
    cap: usize,
    buf: Vec<T>,
    next: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    fn new(cap: usize) -> Self {
        Ring {
            cap: cap.max(1),
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.next] = v;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Oldest → newest.
    fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, head) = self.buf.split_at(self.next);
        head.iter().chain(wrapped.iter())
    }

    fn len(&self) -> usize {
        self.buf.len()
    }
}

#[derive(Clone, Copy, Debug)]
struct OpenFence {
    class: FenceClass,
    issue: Cycle,
    bounces: u32,
    demoted: bool,
}

/// The trace recorder. One per machine, owned by the memory system and
/// reachable from every layer that holds `&mut MemSystem`.
#[derive(Clone, Debug)]
pub struct TraceSink {
    design: FenceDesign,
    events: Ring<TraceEvent>,
    spans: Ring<FenceSpan>,
    open: HashMap<(usize, u64), OpenFence>,
    tallies: [FenceTally; 3],
    /// Bounces seen while the core had no open fence episode.
    unattributed_bounces: u64,
    recorded: u64,
}

impl TraceSink {
    /// A sink with the [`DEFAULT_CAPACITY`] event ring.
    pub fn new(design: FenceDesign) -> Self {
        TraceSink::with_capacity(design, DEFAULT_CAPACITY)
    }

    /// A sink whose event ring holds `capacity` events (the span ring
    /// gets a quarter of that).
    pub fn with_capacity(design: FenceDesign, capacity: usize) -> Self {
        TraceSink {
            design,
            events: Ring::new(capacity),
            spans: Ring::new((capacity / 4).max(1)),
            open: HashMap::new(),
            tallies: Default::default(),
            unattributed_bounces: 0,
            recorded: 0,
        }
    }

    /// The fence design stamped on this trace.
    pub fn design(&self) -> FenceDesign {
        self.design
    }

    /// Events currently held in the ring (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of events currently in the ring.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.recorded == 0
    }

    /// Total events ever recorded (including ones the ring evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.events.dropped
    }

    /// Completed fence episodes still held (oldest first).
    pub fn spans(&self) -> Vec<&FenceSpan> {
        self.spans.iter().collect()
    }

    /// Exact aggregate tally for one fence class.
    pub fn tally(&self, class: FenceClass) -> &FenceTally {
        &self.tallies[class.idx()]
    }

    /// Store bounces that happened while their core had no open fence.
    pub fn unattributed_bounces(&self) -> u64 {
        self.unattributed_bounces
    }

    /// Records one event, updating fence pairing and the tallies.
    ///
    /// Recording is pure observation: it never changes simulation state,
    /// so traced and untraced runs are bit-identical.
    pub fn record(&mut self, ev: TraceEvent) {
        self.recorded += 1;
        let c = ev.core.0;
        match ev.kind {
            TraceKind::FenceIssue { serial, class } => {
                self.tallies[class.idx()].issued += 1;
                self.open.insert(
                    (c, serial),
                    OpenFence {
                        class,
                        issue: ev.cycle,
                        bounces: 0,
                        demoted: false,
                    },
                );
            }
            TraceKind::FenceDemote { serial } => {
                if let Some(f) = self.open.get_mut(&(c, serial)) {
                    f.demoted = true;
                    self.tallies[f.class.idx()].demoted += 1;
                }
            }
            TraceKind::StoreBounce { .. } => {
                // Attribute the bounce to the core's oldest open fence:
                // that is the episode the bounced pre-fence store blocks.
                let oldest = self
                    .open
                    .keys()
                    .filter(|(core, _)| *core == c)
                    .map(|&(_, serial)| serial)
                    .min();
                match oldest {
                    Some(serial) => {
                        let f = self.open.get_mut(&(c, serial)).expect("open fence");
                        f.bounces += 1;
                        self.tallies[f.class.idx()].bounces += 1;
                    }
                    None => self.unattributed_bounces += 1,
                }
            }
            TraceKind::FenceComplete { serial } => {
                if let Some(f) = self.open.remove(&(c, serial)) {
                    self.close_span(ev.core, serial, f, ev.cycle, false);
                }
            }
            TraceKind::Rollback { .. } => {
                // Every open episode on this core is squashed; the fence
                // re-dispatches with a fresh serial after recovery.
                let mut squashed: Vec<u64> = self
                    .open
                    .keys()
                    .filter(|(core, _)| *core == c)
                    .map(|&(_, serial)| serial)
                    .collect();
                squashed.sort_unstable();
                for serial in squashed {
                    let f = self.open.remove(&(c, serial)).expect("open fence");
                    self.close_span(ev.core, serial, f, ev.cycle, true);
                }
            }
            _ => {}
        }
        self.events.push(ev);
    }

    fn close_span(
        &mut self,
        core: CoreId,
        serial: u64,
        f: OpenFence,
        end: Cycle,
        rolled_back: bool,
    ) {
        let span = FenceSpan {
            core,
            serial,
            class: f.class,
            issue: f.issue,
            complete: end,
            bounces: f.bounces,
            demoted: f.demoted,
            rolled_back,
        };
        self.tallies[f.class.idx()].close(span.latency(), f.bounces, rolled_back);
        self.spans.push(span);
    }

    /// Renders the trace as Chrome-trace/Perfetto JSON (the
    /// `traceEvents` array format): fence episodes become `ph:"X"`
    /// complete events (one track per core), everything else becomes
    /// `ph:"i"` instants. Timestamps are simulated cycles. Load the
    /// output at <https://ui.perfetto.dev> or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.chrome_events(0));
        out.push_str("\n]}\n");
        out
    }

    /// The comma-separated `traceEvents` entries of
    /// [`chrome_json`](TraceSink::chrome_json) under process id `pid`, without the
    /// outer wrapper — lets a caller combine several sinks (e.g. one per
    /// fence design) into one Chrome-trace file, each as its own
    /// Perfetto process group.
    pub fn chrome_events(&self, pid: u64) -> String {
        let mut out = String::new();
        let mut first = true;
        let mut push = |out: &mut String, line: &str| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(line);
        };

        let max_tid = self
            .spans
            .iter()
            .map(|s| s.core.0)
            .chain(self.events.iter().map(|e| e.core.0))
            .max()
            .unwrap_or(0);
        push(
            &mut out,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"asymfence {}\"}}}}",
                self.design.label()
            ),
        );
        for tid in 0..=max_tid {
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"core {tid}\"}}}}"
                ),
            );
        }

        for s in self.spans.iter() {
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":\"{} #{}\",\"cat\":\"fence\",\"ph\":\"X\",\"pid\":{pid},\
                 \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"serial\":{},\
                 \"class\":\"{}\",\"bounces\":{},\"demoted\":{},\"rolled_back\":{}}}}}",
                s.class.label(),
                s.serial,
                s.core.0,
                s.issue,
                s.latency().max(1),
                s.serial,
                s.class.label(),
                s.bounces,
                s.demoted,
                s.rolled_back,
            );
            push(&mut out, &line);
        }

        for e in self.events.iter() {
            // Issue/complete pairs are already rendered as spans.
            let (name, cat, args): (String, &str, String) = match e.kind {
                TraceKind::FenceIssue { .. } | TraceKind::FenceComplete { .. } => continue,
                TraceKind::FenceDemote { serial } => {
                    ("wee-demote".into(), "fence", format!("\"serial\":{serial}"))
                }
                TraceKind::OrderComplete { line, conditional } => (
                    if conditional { "cond-order" } else { "order" }.into(),
                    "order",
                    format!("\"line\":{}", line.raw()),
                ),
                TraceKind::StoreBounce { line, attempt } => (
                    "store-bounce".into(),
                    "fence",
                    format!("\"line\":{},\"attempt\":{attempt}", line.raw()),
                ),
                TraceKind::BsInsert { line } => {
                    ("bs-insert".into(), "bs", format!("\"line\":{}", line.raw()))
                }
                TraceKind::BsHit { line } => {
                    ("bs-bounce".into(), "bs", format!("\"line\":{}", line.raw()))
                }
                TraceKind::BsEvict { entries } => {
                    ("bs-evict".into(), "bs", format!("\"entries\":{entries}"))
                }
                TraceKind::Checkpoint { serial } => {
                    ("checkpoint".into(), "wplus", format!("\"serial\":{serial}"))
                }
                TraceKind::Rollback { serial } => {
                    ("rollback".into(), "wplus", format!("\"serial\":{serial}"))
                }
                TraceKind::NocHop {
                    src,
                    dst,
                    hops,
                    msg,
                } => (
                    format!("noc:{msg}"),
                    "noc",
                    format!("\"src\":{src},\"dst\":{dst},\"hops\":{hops}"),
                ),
                TraceKind::DirNack { line } => {
                    ("dir-nack".into(), "dir", format!("\"line\":{}", line.raw()))
                }
                TraceKind::SynthAccept { mask, cycles } => (
                    format!("synth-accept:wf{mask:b}"),
                    "synth",
                    format!("\"mask\":{mask},\"cycles\":{cycles}"),
                ),
                TraceKind::SynthReject { mask, reason } => (
                    format!("synth-reject:{reason}"),
                    "synth",
                    format!("\"mask\":{mask},\"reason\":\"{reason}\""),
                ),
            };
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                 \"pid\":{pid},\"tid\":{},\"ts\":{},\"args\":{{{args}}}}}",
                e.core.0, e.cycle,
            );
            push(&mut out, &line);
        }
        out
    }
}

/// Writes Chrome-trace JSON ([`TraceSink::chrome_json`], or several
/// sinks' [`TraceSink::chrome_events`] in one wrapper) to `path`: the
/// one `--trace` writer of every binary. The error names the path and
/// the OS error; `main` exits 2 with it.
pub fn write_json(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write trace to {path}: {e}"))
}

/// Suffixes a `--trace` path per section, before its extension:
/// `out.json` + `fig08_cilk` → `out-fig08_cilk.json`, so several traces
/// from one run (figure sections, explored designs) don't overwrite each
/// other.
pub fn section_path(path: &str, section: &str) -> String {
    match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{section}.{ext}"),
        _ => format!("{path}-{section}"),
    }
}

/// Records a [`TraceEvent`] iff a sink is attached.
///
/// `$sink` must evaluate to an `Option<&mut TraceSink>`; the event
/// expression is evaluated only when the sink is present, so a disabled
/// trace costs one branch per site.
///
/// ```
/// use asymfence_common::config::FenceDesign;
/// use asymfence_common::ids::CoreId;
/// use asymfence_common::trace::{TraceKind, TraceSink};
/// use asymfence_common::trace_event;
///
/// let mut sink = Some(TraceSink::new(FenceDesign::SPlus));
/// trace_event!(sink.as_mut(), 5, CoreId(0), TraceKind::Checkpoint { serial: 1 });
/// assert_eq!(sink.unwrap().len(), 1);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($sink:expr, $cycle:expr, $core:expr, $kind:expr) => {
        if let ::core::option::Option::Some(s) = $sink {
            s.record($crate::trace::TraceEvent {
                cycle: $cycle,
                core: $core,
                kind: $kind,
            });
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: Cycle, core: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            core: CoreId(core),
            kind,
        }
    }

    #[test]
    fn issue_complete_pairs_into_a_span() {
        let mut s = TraceSink::new(FenceDesign::WPlus);
        s.record(ev(
            10,
            0,
            TraceKind::FenceIssue {
                serial: 1,
                class: FenceClass::Weak,
            },
        ));
        s.record(ev(
            12,
            0,
            TraceKind::StoreBounce {
                line: LineAddr::from_raw(4),
                attempt: 1,
            },
        ));
        s.record(ev(70, 0, TraceKind::FenceComplete { serial: 1 }));
        let spans = s.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].latency(), 60);
        assert_eq!(spans[0].bounces, 1);
        let t = s.tally(FenceClass::Weak);
        assert_eq!((t.issued, t.completed, t.bounces), (1, 1, 1));
        assert_eq!(t.latency_buckets[5], 1, "60 cycles lands in [32,64)");
    }

    #[test]
    fn rollback_squashes_open_fences() {
        let mut s = TraceSink::new(FenceDesign::WPlus);
        s.record(ev(
            10,
            2,
            TraceKind::FenceIssue {
                serial: 1,
                class: FenceClass::Weak,
            },
        ));
        s.record(ev(
            20,
            2,
            TraceKind::FenceIssue {
                serial: 2,
                class: FenceClass::Weak,
            },
        ));
        s.record(ev(500, 2, TraceKind::Rollback { serial: 1 }));
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|sp| sp.rolled_back));
        assert_eq!(spans[0].serial, 1, "squashed spans close in serial order");
        let t = s.tally(FenceClass::Weak);
        assert_eq!((t.issued, t.completed, t.rolled_back), (2, 0, 2));
    }

    #[test]
    fn ring_evicts_oldest_but_tallies_stay_exact() {
        let mut s = TraceSink::with_capacity(FenceDesign::SPlus, 4);
        for i in 0..10 {
            s.record(ev(
                i,
                0,
                TraceKind::FenceIssue {
                    serial: i,
                    class: FenceClass::Strong,
                },
            ));
            s.record(ev(i + 1, 0, TraceKind::FenceComplete { serial: i }));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped(), 16);
        assert_eq!(s.recorded(), 20);
        assert_eq!(
            s.tally(FenceClass::Strong).completed,
            10,
            "exact despite eviction"
        );
        let newest = s.events().last().unwrap();
        assert_eq!(newest.cycle, 10);
    }

    #[test]
    fn bounces_attach_to_the_oldest_open_fence() {
        let mut s = TraceSink::new(FenceDesign::WPlus);
        s.record(ev(
            1,
            0,
            TraceKind::StoreBounce {
                line: LineAddr::from_raw(1),
                attempt: 1,
            },
        ));
        assert_eq!(s.unattributed_bounces(), 1);
        s.record(ev(
            2,
            0,
            TraceKind::FenceIssue {
                serial: 5,
                class: FenceClass::Weak,
            },
        ));
        s.record(ev(
            3,
            0,
            TraceKind::FenceIssue {
                serial: 6,
                class: FenceClass::Weak,
            },
        ));
        s.record(ev(
            4,
            0,
            TraceKind::StoreBounce {
                line: LineAddr::from_raw(1),
                attempt: 2,
            },
        ));
        s.record(ev(9, 0, TraceKind::FenceComplete { serial: 5 }));
        assert_eq!(s.spans()[0].bounces, 1);
    }

    #[test]
    fn percentiles_come_from_buckets() {
        let mut t = FenceTally::default();
        for lat in [1u64, 2, 4, 800] {
            t.close(lat, 0, false);
        }
        assert_eq!(t.completed, 4);
        assert!(t.percentile(50.0) <= 7);
        assert_eq!(t.percentile(100.0), 800);
        assert_eq!(t.max_latency, 800);
    }

    #[test]
    fn tally_merge_matches_recording_in_one_sink() {
        // Recording episodes into two tallies and merging equals
        // recording them all into one (identity + associativity in the
        // shape the collector uses).
        let mut a = FenceTally::default();
        let mut b = FenceTally::default();
        let mut whole = FenceTally::default();
        for (into_a, lat) in [(true, 3u64), (true, 900), (false, 64), (false, 5)] {
            let t = if into_a { &mut a } else { &mut b };
            t.close(lat, 1, false);
            whole.close(lat, 1, false);
        }
        a.issued = 2;
        b.issued = 2;
        whole.issued = 4;
        let mut merged = FenceTally::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
        assert_eq!(merged.percentile(100.0), 900);
        let mut id = FenceTally::default();
        id.merge(&FenceTally::default());
        assert_eq!(id, FenceTally::default());
    }

    #[test]
    fn section_path_suffixes_before_extension() {
        assert_eq!(section_path("out.json", "fig08"), "out-fig08.json");
        assert_eq!(section_path("trace", "fig08"), "trace-fig08");
        assert_eq!(section_path(".json", "x"), ".json-x");
        assert_eq!(section_path("a.b/t.json", "WsPlus"), "a.b/t-WsPlus.json");
    }

    #[test]
    fn write_json_to_an_unwritable_path_is_an_error() {
        let dir = std::env::temp_dir().join(format!("asf-no-trace-dir-{}", std::process::id()));
        let path = dir.join("t.json");
        let path = path.to_str().unwrap();
        let err = write_json(path, "{}").unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write trace to {path}: ")),
            "{err}"
        );
        assert!(!dir.exists());
    }

    #[test]
    fn write_json_writes_the_bytes() {
        let path = std::env::temp_dir().join(format!("asf-trace-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let json = TraceSink::new(FenceDesign::WsPlus).chrome_json();
        write_json(path, &json).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(text, json);
    }

    #[test]
    fn chrome_json_is_loadable_shape() {
        let mut s = TraceSink::new(FenceDesign::Wee);
        s.record(ev(
            10,
            1,
            TraceKind::FenceIssue {
                serial: 1,
                class: FenceClass::WeeWeak,
            },
        ));
        s.record(ev(
            11,
            1,
            TraceKind::NocHop {
                src: 1,
                dst: 0,
                hops: 1,
                msg: "GrtDepositAndRead",
            },
        ));
        s.record(ev(40, 1, TraceKind::FenceComplete { serial: 1 }));
        let json = s.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\""), "fence span present");
        assert!(json.contains("noc:GrtDepositAndRead"));
        assert!(json.contains("\"name\":\"wee-wf #1\""));
        assert!(json.trim_end().ends_with("]}"));
        // Balanced braces => structurally sound JSON for this grammar
        // (no strings with braces are ever embedded).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
