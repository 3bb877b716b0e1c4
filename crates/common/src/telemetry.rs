//! Harness telemetry: wall-clock timers, machine-readable metrics
//! snapshots, and the snapshot diff engine behind `perfdiff`.
//!
//! Everything before this module observed the *simulated* machine
//! ([`crate::stats`], [`crate::trace`]); this module observes the
//! harness itself — how long each phase took, how many simulator runs
//! per wall-clock second the worker pool sustained, how much memory the
//! process peaked at — and serializes it as a [`BenchSnapshot`]: one
//! [`MetricEntry`] per (section, workload, design) cell carrying
//! wall-clock, throughput, the full [`DerivedStats`] ratio block and
//! per-class fence-latency percentiles.
//!
//! Like the rest of the workspace the module is zero-dependency: JSON is
//! written and parsed by the hand-rolled [`Json`] value type (object key
//! order is preserved, floats render in Rust's shortest round-trip form,
//! so equal snapshots are equal bytes).
//!
//! Determinism: wall-clock and RSS are inherently machine-dependent, so
//! they are the *only* nondeterministic fields in a snapshot. Setting
//! [`DETERMINISTIC_ENV`] (`ASF_TELEMETRY_DETERMINISTIC=1`) zeroes them
//! at collection time, which makes snapshot bytes identical at any
//! worker count — that is what the checked-in `results/bench_baseline.json`
//! is generated with and what CI diffs against.
//!
//! # Examples
//!
//! ```
//! use asymfence_common::telemetry::{BenchSnapshot, MetricEntry, diff, DiffOptions};
//!
//! let mut a = BenchSnapshot::new("base");
//! a.entries.push(MetricEntry::new("fig08", "fib", "WS+"));
//! a.entries[0].sim_cycles = 1000;
//! let json = a.to_json();
//! let b = BenchSnapshot::parse(&json).unwrap();
//! assert!(diff(&a, &b, &DiffOptions::default()).clean());
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::DerivedStats;
use crate::trace::FenceTally;

/// Highest snapshot schema version this build understands.
/// Version 2 added the [`PoolTelemetry`] block (machine-pool hits,
/// rebuilds and arena bytes kept alive across resets). Still within
/// version 2, native-runtime snapshots additively carry a snapshot-level
/// `backend` string and per-entry `ops`/`ns_per_op` fields — all three
/// are omitted from simulator snapshots (so their bytes are unchanged)
/// and parse as absent-tolerant optionals.
/// Version 3 adds the optional [`ShardTelemetry`] block written by
/// merged sharded-sweep snapshots. Snapshots without a shard block —
/// including everything the deterministic collection mode produces —
/// still serialize as version 2, so the checked-in baseline and all
/// byte-diffed CI artifacts are unchanged; [`BenchSnapshot::parse`]
/// accepts [`MIN_SCHEMA_VERSION`]`..=SCHEMA_VERSION`.
pub const SCHEMA_VERSION: u64 = 3;

/// Oldest snapshot schema version this build still parses.
pub const MIN_SCHEMA_VERSION: u64 = 2;

/// Environment variable zeroing wall-clock/RSS fields at collection time
/// (`ASF_TELEMETRY_DETERMINISTIC=1`), making snapshot bytes identical at
/// any worker count and on any machine.
pub const DETERMINISTIC_ENV: &str = "ASF_TELEMETRY_DETERMINISTIC";

/// Whether the environment requests deterministic (timing-masked)
/// telemetry.
pub fn deterministic_from_env() -> bool {
    std::env::var(DETERMINISTIC_ENV).is_ok_and(|v| v != "0")
}

/// Peak resident-set size of this process in bytes, sampled from
/// `/proc/self/status` (`VmHWM`). `None` where procfs is unavailable
/// (non-Linux), so callers degrade to 0 instead of failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Snapshot label derived from a `--metrics` path: the file stem
/// (`results/bench_baseline.json` → `bench_baseline`).
pub fn label_from_path(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// A monotonic stopwatch (thin wrapper over [`Instant`], so call sites
/// read as telemetry rather than ad-hoc timing).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

/// Accumulating named phase timers: `enter` closes the previous phase
/// and opens the next, so a linear pipeline (parse → run section A →
/// run section B → serialize) gets per-phase wall-clock with one call
/// per transition. Re-entering a name accumulates into it.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    phases: Vec<(String, u64)>,
    current: Option<(String, Instant)>,
}

impl PhaseTimer {
    /// An empty timer with no open phase.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the current phase (if any) and opens `name`.
    pub fn enter(&mut self, name: &str) {
        self.finish();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Closes the current phase without opening a new one.
    pub fn finish(&mut self) {
        if let Some((name, start)) = self.current.take() {
            let ns = start.elapsed().as_nanos() as u64;
            match self.phases.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += ns,
                None => self.phases.push((name, ns)),
            }
        }
    }

    /// Completed phases in first-entry order as `(name, total_ns)`.
    pub fn phases(&self) -> &[(String, u64)] {
        &self.phases
    }
}

/// Formats a nanosecond count for progress lines (`850ms`, `12.3s`,
/// `2m05s`).
pub fn human_ns(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 60.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{}ms", ns / 1_000_000)
    }
}

/// Time to finish `remaining` units of work at `per_sec` units per wall
/// second, for progress lines. `None` when nothing remains or no rate
/// has been observed yet.
pub fn eta_ns(remaining: u64, per_sec: f64) -> Option<u64> {
    (remaining > 0 && per_sec > 0.0).then(|| (remaining as f64 / per_sec * 1e9) as u64)
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// A JSON value with order-preserving objects, written and parsed
/// in-repo (the workspace builds `--offline` with no external crates).
///
/// Rendering is deterministic: object keys keep insertion order and
/// floats use Rust's shortest round-trip `Display`, so equal values are
/// equal bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers render without a decimal point while they
    /// fit `f64` exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer (rejects negatives/fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders pretty-printed JSON (2-space indent, trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(out, *n),
            Json::Str(s) => render_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_str(out, k);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Renders compact single-line JSON (no spaces or newlines) — the
    /// form the sweep run ledger appends, one record per line, so a
    /// ledger file is valid JSONL and a torn tail is exactly the bytes
    /// after the last `\n`. Deterministic like [`Json::render`].
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => render_num(out, *n),
            Json::Str(s) => render_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(out, k);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace). Arrays and objects nested deeper than
    /// [`MAX_JSON_DEPTH`] are an error, not a stack overflow.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; these only arise from a division bug, so
        // encode as null-adjacent zero rather than emitting invalid JSON.
        out.push('0');
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at offset {pos}", c as char))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Snapshots and
/// ledger records nest a few levels; the bound keeps a hostile input's
/// recursion far from the thread's stack limit.
pub const MAX_JSON_DEPTH: usize = 128;

/// Parses one value; `depth` counts the arrays/objects enclosing it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at offset {pos}"
        ));
    }
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{s}` at offset {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let n = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        out.push(char::from_u32(n).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote or
                // escape. Both are ASCII, so the run ends on a scalar
                // boundary and decoding it costs only its own length.
                let start = *pos;
                while !matches!(b.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Per-class fence-latency summary inside a [`MetricEntry`], distilled
/// from the exact [`FenceTally`] histograms of the entry's runs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FenceLatencySummary {
    /// Class label (`sf` / `wf` / `wee-wf`).
    pub class: String,
    /// Fences issued.
    pub issued: u64,
    /// Fences completed.
    pub completed: u64,
    /// Median issue→complete latency (log2-bucket upper bound).
    pub p50: u64,
    /// 90th-percentile latency.
    pub p90: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Largest completed-fence latency.
    pub max: u64,
    /// Mean latency over completed fences.
    pub mean: f64,
}

impl FenceLatencySummary {
    /// Distills one class's tally (percentiles from the log2 buckets).
    pub fn from_tally(class: &str, t: &FenceTally) -> Self {
        FenceLatencySummary {
            class: class.to_string(),
            issued: t.issued,
            completed: t.completed,
            p50: t.percentile(50.0),
            p90: t.percentile(90.0),
            p99: t.percentile(99.0),
            max: t.max_latency,
            mean: t.mean_latency(),
        }
    }
}

/// One (section, workload, design) cell of a [`BenchSnapshot`]: exact
/// simulation counters, the derived ratio block, fence-latency
/// percentiles and (unless deterministic mode masked them) wall-clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricEntry {
    /// Report section (figure/table name, `synth`, `explore`, …).
    pub section: String,
    /// Workload name.
    pub workload: String,
    /// Fence-design label.
    pub design: String,
    /// Simulator runs aggregated into this cell.
    pub runs: u64,
    /// Total simulated cycles across the runs.
    pub sim_cycles: u64,
    /// Total instructions retired.
    pub instrs_retired: u64,
    /// Committed transactions (STM workloads).
    pub commits: u64,
    /// Aborted transactions (STM workloads).
    pub aborts: u64,
    /// Total wall-clock of the runs, ns (0 in deterministic mode).
    pub wall_ns: u64,
    /// Fastest single run, ns (0 in deterministic mode).
    pub task_wall_min_ns: u64,
    /// Slowest single run, ns (0 in deterministic mode).
    pub task_wall_max_ns: u64,
    /// Native protocol operations (native-runtime cells only; 0 and
    /// omitted from the JSON for simulator cells).
    pub ops: u64,
    /// Mean wall-clock per native operation (native-runtime cells only;
    /// 0 and omitted from the JSON for simulator cells, masked to 0 in
    /// deterministic mode).
    pub ns_per_op: f64,
    /// Fence sites the analyzer discovered (analyzer cells only; 0 and
    /// omitted from the JSON elsewhere).
    pub sites_discovered: u64,
    /// Critical cycles the analyzer enumerated (analyzer cells only; 0
    /// and omitted from the JSON elsewhere).
    pub cycles_enumerated: u64,
    /// Candidate strength masks pruned before the oracle (analyzer
    /// cells only; 0 and omitted from the JSON elsewhere).
    pub masks_pruned: u64,
    /// Serial-equivalent oracle runs charged (analyzer cells only; 0
    /// and omitted from the JSON elsewhere).
    pub oracle_runs: u64,
    /// The full derived-ratio block ([`DerivedStats`]).
    pub derived: DerivedStats,
    /// Per-class fence-latency summaries (classes with issued fences).
    pub fences: Vec<FenceLatencySummary>,
}

impl MetricEntry {
    /// A zeroed entry for the given key.
    pub fn new(section: &str, workload: &str, design: &str) -> Self {
        MetricEntry {
            section: section.to_string(),
            workload: workload.to_string(),
            design: design.to_string(),
            ..Default::default()
        }
    }

    /// The alignment key `(section, workload, design)`.
    pub fn key(&self) -> (String, String, String) {
        (
            self.section.clone(),
            self.workload.clone(),
            self.design.clone(),
        )
    }

    /// Simulated cycles per wall-clock second (0 when wall is masked).
    pub fn sim_cycles_per_sec(&self) -> f64 {
        per_sec(self.sim_cycles, self.wall_ns)
    }

    /// Instructions retired per wall-clock second (0 when masked).
    pub fn instrs_per_sec(&self) -> f64 {
        per_sec(self.instrs_retired, self.wall_ns)
    }

    /// Simulator runs per wall-clock second (0 when masked).
    pub fn runs_per_sec(&self) -> f64 {
        per_sec(self.runs, self.wall_ns)
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("section".to_string(), Json::Str(self.section.clone())),
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("design".to_string(), Json::Str(self.design.clone())),
            ("runs".to_string(), Json::Num(self.runs as f64)),
            ("sim_cycles".to_string(), Json::Num(self.sim_cycles as f64)),
            (
                "instrs_retired".to_string(),
                Json::Num(self.instrs_retired as f64),
            ),
            ("commits".to_string(), Json::Num(self.commits as f64)),
            ("aborts".to_string(), Json::Num(self.aborts as f64)),
            ("wall_ns".to_string(), Json::Num(self.wall_ns as f64)),
            (
                "task_wall_min_ns".to_string(),
                Json::Num(self.task_wall_min_ns as f64),
            ),
            (
                "task_wall_max_ns".to_string(),
                Json::Num(self.task_wall_max_ns as f64),
            ),
            (
                "sim_cycles_per_sec".to_string(),
                Json::Num(self.sim_cycles_per_sec()),
            ),
            (
                "instrs_per_sec".to_string(),
                Json::Num(self.instrs_per_sec()),
            ),
            ("runs_per_sec".to_string(), Json::Num(self.runs_per_sec())),
        ];
        // Native-runtime cells only: omitted entirely for simulator
        // cells so existing v2 snapshots stay byte-identical.
        if self.ops > 0 {
            fields.push(("ops".to_string(), Json::Num(self.ops as f64)));
            fields.push(("ns_per_op".to_string(), Json::Num(self.ns_per_op)));
        }
        // Analyzer cells only: same additive-schema rule as `ops`.
        if self.sites_discovered > 0
            || self.cycles_enumerated > 0
            || self.masks_pruned > 0
            || self.oracle_runs > 0
        {
            fields.push((
                "sites_discovered".to_string(),
                Json::Num(self.sites_discovered as f64),
            ));
            fields.push((
                "cycles_enumerated".to_string(),
                Json::Num(self.cycles_enumerated as f64),
            ));
            fields.push((
                "masks_pruned".to_string(),
                Json::Num(self.masks_pruned as f64),
            ));
            fields.push((
                "oracle_runs".to_string(),
                Json::Num(self.oracle_runs as f64),
            ));
        }
        let derived: Vec<(String, Json)> = self
            .derived
            .fields()
            .iter()
            .map(|&(name, v)| (name.to_string(), Json::Num(v)))
            .collect();
        fields.push(("derived".to_string(), Json::Obj(derived)));
        let fences: Vec<Json> = self
            .fences
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("class".to_string(), Json::Str(f.class.clone())),
                    ("issued".to_string(), Json::Num(f.issued as f64)),
                    ("completed".to_string(), Json::Num(f.completed as f64)),
                    ("p50".to_string(), Json::Num(f.p50 as f64)),
                    ("p90".to_string(), Json::Num(f.p90 as f64)),
                    ("p99".to_string(), Json::Num(f.p99 as f64)),
                    ("max".to_string(), Json::Num(f.max as f64)),
                    ("mean".to_string(), Json::Num(f.mean)),
                ])
            })
            .collect();
        fields.push(("fence_latency".to_string(), Json::Arr(fences)));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing string field `{k}`"))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("entry missing integer field `{k}`"))
        };
        let mut e = MetricEntry::new(
            &str_field("section")?,
            &str_field("workload")?,
            &str_field("design")?,
        );
        e.runs = u64_field("runs")?;
        e.sim_cycles = u64_field("sim_cycles")?;
        e.instrs_retired = u64_field("instrs_retired")?;
        e.commits = u64_field("commits")?;
        e.aborts = u64_field("aborts")?;
        e.wall_ns = u64_field("wall_ns")?;
        e.task_wall_min_ns = u64_field("task_wall_min_ns")?;
        e.task_wall_max_ns = u64_field("task_wall_max_ns")?;
        // Optional (additive in v2): present only on native-runtime cells.
        e.ops = v.get("ops").and_then(Json::as_u64).unwrap_or(0);
        e.ns_per_op = v.get("ns_per_op").and_then(Json::as_f64).unwrap_or(0.0);
        // Optional (additive in v2): present only on analyzer cells.
        e.sites_discovered = v
            .get("sites_discovered")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        e.cycles_enumerated = v
            .get("cycles_enumerated")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        e.masks_pruned = v.get("masks_pruned").and_then(Json::as_u64).unwrap_or(0);
        e.oracle_runs = v.get("oracle_runs").and_then(Json::as_u64).unwrap_or(0);
        let derived = v
            .get("derived")
            .ok_or("entry missing `derived`".to_string())?;
        if let Json::Obj(fields) = derived {
            for (name, val) in fields {
                let val = val
                    .as_f64()
                    .ok_or_else(|| format!("derived field `{name}` is not a number"))?;
                if !e.derived.set_field(name, val) {
                    return Err(format!("unknown derived field `{name}` (schema drift)"));
                }
            }
        } else {
            return Err("`derived` is not an object".to_string());
        }
        for f in v
            .get("fence_latency")
            .and_then(Json::as_arr)
            .ok_or("entry missing `fence_latency`".to_string())?
        {
            let get_u = |k: &str| -> Result<u64, String> {
                f.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("fence_latency missing `{k}`"))
            };
            e.fences.push(FenceLatencySummary {
                class: f
                    .get("class")
                    .and_then(Json::as_str)
                    .ok_or("fence_latency missing `class`".to_string())?
                    .to_string(),
                issued: get_u("issued")?,
                completed: get_u("completed")?,
                p50: get_u("p50")?,
                p90: get_u("p90")?,
                p99: get_u("p99")?,
                max: get_u("max")?,
                mean: f
                    .get("mean")
                    .and_then(Json::as_f64)
                    .ok_or("fence_latency missing `mean`".to_string())?,
            });
        }
        Ok(e)
    }
}

fn per_sec(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        0.0
    } else {
        count as f64 * 1e9 / wall_ns as f64
    }
}

/// Machine-pool effectiveness counters (see the bench crate's pool
/// module): how often a run re-armed a warmed machine in place instead
/// of rebuilding its arenas. Harness metadata, not simulation output —
/// the values depend on how specs land on worker threads, so the
/// deterministic collection mode masks them to zero exactly like
/// wall-clock, and [`diff`] never gates on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// Machines handed out by the pool.
    pub acquires: u64,
    /// Hand-outs satisfied by an in-place reset (pool hits).
    pub reuses: u64,
    /// Hand-outs that (re)built a machine from scratch.
    pub builds: u64,
    /// Arena bytes kept alive across in-place resets (estimate).
    pub bytes_reused: u64,
}

/// Sharded-sweep provenance attached to a merged snapshot (schema v3,
/// additive): how many shards produced the ledger the snapshot was
/// merged from, how many shard resumes the ledger recorded, and the
/// heartbeat cadence (cells per heartbeat record). Harness metadata like
/// [`PoolTelemetry`] — the *simulation* content of a merged snapshot is
/// independent of all three — so deterministic collection masks the
/// whole block away (`shard: None`) and [`diff`] never gates on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Number of shards the grid was partitioned into.
    pub shards: u64,
    /// Shard resumes recorded across the ledger (0 = no crash/restart).
    pub resumes: u64,
    /// Heartbeat cadence: cells completed between heartbeat records.
    pub heartbeat_cells: u64,
}

/// A machine-readable harness-performance snapshot: metadata plus one
/// [`MetricEntry`] per (section, workload, design) cell. Written as
/// `BENCH_<label>.json` style files by `--metrics PATH` and compared by
/// `perfdiff`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BenchSnapshot {
    /// Snapshot label (usually the metrics file stem or a git sha).
    pub label: String,
    /// Wall/RSS fields were masked to 0 at collection time.
    pub deterministic: bool,
    /// The run used the `--quick` grid.
    pub quick: bool,
    /// Native fence backend (`native_bench` snapshots only: the
    /// `FenceBackend` label; `None` and omitted for simulator runs).
    pub backend: Option<String>,
    /// Sharded-sweep provenance (merged-ledger snapshots only; `None`
    /// and omitted — with the schema staying at v2 — everywhere else,
    /// including all deterministic-mode snapshots).
    pub shard: Option<ShardTelemetry>,
    /// Total harness wall-clock, ns (0 in deterministic mode).
    pub total_wall_ns: u64,
    /// Peak process RSS in bytes (0 in deterministic mode or off-Linux).
    pub peak_rss_bytes: u64,
    /// Machine-pool counters (all 0 in deterministic mode).
    pub pool: PoolTelemetry,
    /// Per-phase wall-clock `(phase, ns)` in first-entry order (ns are 0
    /// in deterministic mode).
    pub phases: Vec<(String, u64)>,
    /// The metric cells, in first-appearance order.
    pub entries: Vec<MetricEntry>,
}

impl BenchSnapshot {
    /// An empty snapshot with the given label.
    pub fn new(label: &str) -> Self {
        BenchSnapshot {
            label: label.to_string(),
            ..Default::default()
        }
    }

    /// Looks an entry up by key.
    pub fn entry(&self, section: &str, workload: &str, design: &str) -> Option<&MetricEntry> {
        self.entries
            .iter()
            .find(|e| e.section == section && e.workload == workload && e.design == design)
    }

    /// Distinct section names, in first-appearance order.
    pub fn sections(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.section.as_str()) {
                out.push(&e.section);
            }
        }
        out
    }

    /// Stamps `total_wall_ns` (since `since`) and this process's
    /// `peak_rss_bytes`, or masks both to 0 when `deterministic`.
    pub fn stamp_host(&mut self, deterministic: bool, since: &Stopwatch) {
        self.deterministic = deterministic;
        (self.total_wall_ns, self.peak_rss_bytes) = match deterministic {
            true => (0, 0),
            false => (since.elapsed_ns(), peak_rss_bytes().unwrap_or(0)),
        };
    }

    /// Writes the JSON to `path` with a note on stderr (stdout stays the
    /// same with and without `--metrics`); the error names the path and
    /// the OS error.
    pub fn write_to(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json())
            .map_err(|e| format!("cannot write metrics to {path}: {e}"))?;
        eprintln!(
            "== metrics snapshot -> {path} ({} entries, {} sections) ==",
            self.entries.len(),
            self.sections().len()
        );
        Ok(())
    }

    /// Serializes the snapshot as pretty-printed JSON. Deterministic:
    /// equal snapshots are equal bytes.
    pub fn to_json(&self) -> String {
        // The shard block is the only v3 feature, so shard-free
        // snapshots keep writing v2 and their bytes never move.
        let schema = if self.shard.is_some() {
            SCHEMA_VERSION
        } else {
            MIN_SCHEMA_VERSION
        };
        let mut fields = vec![
            ("schema".to_string(), Json::Num(schema as f64)),
            ("label".to_string(), Json::Str(self.label.clone())),
            ("deterministic".to_string(), Json::Bool(self.deterministic)),
            ("quick".to_string(), Json::Bool(self.quick)),
        ];
        // Additive in v2: only native_bench snapshots carry a backend,
        // so simulator snapshots stay byte-identical to older builds.
        if let Some(b) = &self.backend {
            fields.push(("backend".to_string(), Json::Str(b.clone())));
        }
        // Additive in v3: only merged sharded-sweep snapshots carry
        // shard provenance.
        if let Some(s) = &self.shard {
            fields.push((
                "shard".to_string(),
                Json::Obj(vec![
                    ("shards".to_string(), Json::Num(s.shards as f64)),
                    ("resumes".to_string(), Json::Num(s.resumes as f64)),
                    (
                        "heartbeat_cells".to_string(),
                        Json::Num(s.heartbeat_cells as f64),
                    ),
                ]),
            ));
        }
        fields.extend([
            (
                "total_wall_ns".to_string(),
                Json::Num(self.total_wall_ns as f64),
            ),
            (
                "peak_rss_bytes".to_string(),
                Json::Num(self.peak_rss_bytes as f64),
            ),
            (
                "pool".to_string(),
                Json::Obj(vec![
                    ("acquires".to_string(), Json::Num(self.pool.acquires as f64)),
                    ("reuses".to_string(), Json::Num(self.pool.reuses as f64)),
                    ("builds".to_string(), Json::Num(self.pool.builds as f64)),
                    (
                        "bytes_reused".to_string(),
                        Json::Num(self.pool.bytes_reused as f64),
                    ),
                ]),
            ),
            (
                "phases".to_string(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|(name, ns)| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(name.clone())),
                                ("wall_ns".to_string(), Json::Num(*ns as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "entries".to_string(),
                Json::Arr(self.entries.iter().map(MetricEntry::to_json).collect()),
            ),
        ]);
        Json::Obj(fields).render()
    }

    /// Parses a snapshot previously written by [`BenchSnapshot::to_json`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let v = Json::parse(s)?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing `schema`".to_string())?;
        if !(MIN_SCHEMA_VERSION..=SCHEMA_VERSION).contains(&schema) {
            return Err(format!(
                "schema version mismatch: file has {schema}, this build expects \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION}"
            ));
        }
        let mut snap = BenchSnapshot::new(
            v.get("label")
                .and_then(Json::as_str)
                .ok_or("snapshot missing `label`".to_string())?,
        );
        snap.deterministic = v
            .get("deterministic")
            .and_then(Json::as_bool)
            .ok_or("snapshot missing `deterministic`".to_string())?;
        snap.quick = v
            .get("quick")
            .and_then(Json::as_bool)
            .ok_or("snapshot missing `quick`".to_string())?;
        snap.backend = v.get("backend").and_then(Json::as_str).map(str::to_string);
        if let Some(s) = v.get("shard") {
            let shard_u = |name: &str| -> Result<u64, String> {
                s.get(name)
                    .and_then(Json::as_u64)
                    .ok_or(format!("shard missing `{name}`"))
            };
            snap.shard = Some(ShardTelemetry {
                shards: shard_u("shards")?,
                resumes: shard_u("resumes")?,
                heartbeat_cells: shard_u("heartbeat_cells")?,
            });
        }
        snap.total_wall_ns = v
            .get("total_wall_ns")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing `total_wall_ns`".to_string())?;
        snap.peak_rss_bytes = v
            .get("peak_rss_bytes")
            .and_then(Json::as_u64)
            .ok_or("snapshot missing `peak_rss_bytes`".to_string())?;
        let pool = v.get("pool").ok_or("snapshot missing `pool`".to_string())?;
        let pool_u = |name: &str| -> Result<u64, String> {
            pool.get(name)
                .and_then(Json::as_u64)
                .ok_or(format!("pool missing `{name}`"))
        };
        snap.pool = PoolTelemetry {
            acquires: pool_u("acquires")?,
            reuses: pool_u("reuses")?,
            builds: pool_u("builds")?,
            bytes_reused: pool_u("bytes_reused")?,
        };
        for p in v
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("snapshot missing `phases`".to_string())?
        {
            snap.phases.push((
                p.get("name")
                    .and_then(Json::as_str)
                    .ok_or("phase missing `name`".to_string())?
                    .to_string(),
                p.get("wall_ns")
                    .and_then(Json::as_u64)
                    .ok_or("phase missing `wall_ns`".to_string())?,
            ));
        }
        for e in v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("snapshot missing `entries`".to_string())?
        {
            snap.entries.push(MetricEntry::from_json(e)?);
        }
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// Thresholds for [`diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Allowed relative wall-clock drift (0.5 = ±50%). Wall comparisons
    /// are skipped when either side is 0 (deterministic-mode snapshots).
    pub wall_tolerance: f64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            wall_tolerance: 0.5,
        }
    }
}

/// The outcome of comparing two snapshots.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Regressions / drifts that breach the thresholds. Empty = clean.
    pub breaches: Vec<String>,
    /// Informational deltas (within thresholds, or not gated at all).
    pub notes: Vec<String>,
    /// Entries compared key-by-key.
    pub compared: usize,
}

impl DiffReport {
    /// True when nothing breached.
    pub fn clean(&self) -> bool {
        self.breaches.is_empty()
    }
}

fn f64_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compares `new` against `base`: exact on every simulation counter,
/// derived ratio and fence percentile (these are deterministic, so *any*
/// drift is a behaviour change), threshold-gated on wall-clock (skipped
/// when masked to 0), and strict on key alignment — a missing or extra
/// (section, workload, design) cell is schema/coverage drift and fails.
pub fn diff(base: &BenchSnapshot, new: &BenchSnapshot, opts: &DiffOptions) -> DiffReport {
    let mut r = DiffReport::default();
    for e in &base.entries {
        let key = format!("{}/{}/{}", e.section, e.workload, e.design);
        let Some(n) = new.entry(&e.section, &e.workload, &e.design) else {
            r.breaches.push(format!("{key}: missing from new snapshot"));
            continue;
        };
        r.compared += 1;
        let mut exact = |name: &str, a: u64, b: u64| {
            if a != b {
                r.breaches.push(format!("{key}: {name} changed {a} -> {b}"));
            }
        };
        exact("runs", e.runs, n.runs);
        exact("sim_cycles", e.sim_cycles, n.sim_cycles);
        exact("instrs_retired", e.instrs_retired, n.instrs_retired);
        exact("commits", e.commits, n.commits);
        exact("aborts", e.aborts, n.aborts);
        exact("ops", e.ops, n.ops);
        for (&(name, a), &(_, b)) in e.derived.fields().iter().zip(n.derived.fields().iter()) {
            if !f64_close(a, b) {
                r.breaches
                    .push(format!("{key}: derived.{name} changed {a} -> {b}"));
            }
        }
        let classes: Vec<&str> = e.fences.iter().map(|f| f.class.as_str()).collect();
        let new_classes: Vec<&str> = n.fences.iter().map(|f| f.class.as_str()).collect();
        if classes != new_classes {
            r.breaches.push(format!(
                "{key}: fence classes changed {classes:?} -> {new_classes:?}"
            ));
        } else {
            for (a, b) in e.fences.iter().zip(&n.fences) {
                let mut fex = |name: &str, x: u64, y: u64| {
                    if x != y {
                        r.breaches.push(format!(
                            "{key}: fence {}.{name} changed {x} -> {y}",
                            a.class
                        ));
                    }
                };
                fex("issued", a.issued, b.issued);
                fex("completed", a.completed, b.completed);
                fex("p50", a.p50, b.p50);
                fex("p90", a.p90, b.p90);
                fex("p99", a.p99, b.p99);
                fex("max", a.max, b.max);
                if !f64_close(a.mean, b.mean) {
                    r.breaches.push(format!(
                        "{key}: fence {}.mean changed {} -> {}",
                        a.class, a.mean, b.mean
                    ));
                }
            }
        }
        wall_delta(&mut r, &key, e.wall_ns, n.wall_ns, opts.wall_tolerance);
        // Native per-op wall-clock is machine noise like total wall, but
        // scheduling-sensitive enough that it is never gated.
        if e.ns_per_op > 0.0 && n.ns_per_op > 0.0 && !f64_close(e.ns_per_op, n.ns_per_op) {
            r.notes.push(format!(
                "{key}: ns_per_op {:.1} -> {:.1} (not gated)",
                e.ns_per_op, n.ns_per_op
            ));
        }
    }
    for n in &new.entries {
        if base.entry(&n.section, &n.workload, &n.design).is_none() {
            r.breaches.push(format!(
                "{}/{}/{}: not present in base snapshot",
                n.section, n.workload, n.design
            ));
        }
    }
    wall_delta(
        &mut r,
        "total",
        base.total_wall_ns,
        new.total_wall_ns,
        opts.wall_tolerance,
    );
    if base.backend != new.backend {
        r.notes.push(format!(
            "fence backend {:?} -> {:?} (not gated)",
            base.backend, new.backend
        ));
    }
    if base.shard != new.shard {
        r.notes.push(format!(
            "shard provenance {:?} -> {:?} (not gated)",
            base.shard, new.shard
        ));
    }
    if base.peak_rss_bytes > 0 && new.peak_rss_bytes > 0 {
        r.notes.push(format!(
            "peak RSS {} -> {} bytes (not gated)",
            base.peak_rss_bytes, new.peak_rss_bytes
        ));
    }
    r
}

fn wall_delta(r: &mut DiffReport, key: &str, base: u64, new: u64, tol: f64) {
    if base == 0 || new == 0 {
        return; // masked (deterministic mode) on at least one side
    }
    let rel = (new as f64 - base as f64) / base as f64;
    let line = format!(
        "{key}: wall {} -> {} ({:+.1}%)",
        human_ns(base),
        human_ns(new),
        100.0 * rel
    );
    if rel.abs() > tol {
        r.breaches.push(line);
    } else {
        r.notes.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_from_path_takes_the_stem() {
        assert_eq!(
            label_from_path("results/bench_baseline.json"),
            "bench_baseline"
        );
        assert_eq!(label_from_path("out.json"), "out");
        assert_eq!(label_from_path("snapshot"), "snapshot");
    }

    #[test]
    fn stamp_host_masks_under_deterministic_mode() {
        let since = Stopwatch::start();
        let mut snap = BenchSnapshot::new("t");
        snap.stamp_host(true, &since);
        assert!(snap.deterministic);
        assert_eq!((snap.total_wall_ns, snap.peak_rss_bytes), (0, 0));
        snap.stamp_host(false, &since);
        assert!(!snap.deterministic);
        assert!(snap.total_wall_ns > 0);
    }

    #[test]
    fn write_to_an_unwritable_path_is_an_error() {
        let dir = std::env::temp_dir().join(format!("asf-no-such-dir-{}", std::process::id()));
        let path = dir.join("m.json");
        let path = path.to_str().unwrap();
        let err = BenchSnapshot::new("t").write_to(path).unwrap_err();
        assert!(err.contains(path), "{err}");
        assert!(!dir.exists());
    }

    #[test]
    fn write_to_writes_the_json_bytes() {
        let path = std::env::temp_dir().join(format!("asf-write-to-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let mut snap = BenchSnapshot::new("t");
        snap.entries.push(MetricEntry::new("s", "w", "S+"));
        snap.write_to(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(text, snap.to_json());
    }

    #[test]
    fn json_round_trips() {
        let src = r#"{"a": 1, "b": [true, null, "x\ny"], "c": {"d": 2.5, "e": -3}}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(2.5));
        let rendered = v.render();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }

    #[test]
    fn json_strings_decode_escapes_and_multibyte_scalars() {
        let src = r#""a\"b\\c\/\n\t\u00e9 é€😀 \u20ac end""#;
        assert_eq!(
            Json::parse(src).unwrap(),
            Json::Str("a\"b\\c/\n\té é€😀 € end".to_string())
        );
        // A long plain string: decoding must cost time linear in its
        // length.
        let long = "é".repeat(200_000);
        assert_eq!(
            Json::parse(&format!("\"{long}\"")).unwrap(),
            Json::Str(long)
        );
        assert!(Json::parse(r#""\u12""#).is_err(), "truncated escape");
        assert!(Json::parse(r#""\q""#).is_err(), "unknown escape");
        assert!(Json::parse("\"open").is_err(), "unterminated");
    }

    #[test]
    fn json_nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let v = Json::parse(&nest(MAX_JSON_DEPTH)).unwrap();
        assert!(v.as_arr().is_some());
        let err = Json::parse(&nest(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(200_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("treu").is_err());
    }

    #[test]
    fn numbers_render_integers_without_point() {
        let mut s = String::new();
        render_num(&mut s, 42.0);
        assert_eq!(s, "42");
        s.clear();
        render_num(&mut s, 2.5);
        assert_eq!(s, "2.5");
        s.clear();
        render_num(&mut s, f64::NAN);
        assert_eq!(s, "0");
    }

    fn sample_snapshot() -> BenchSnapshot {
        let mut snap = BenchSnapshot::new("unit");
        snap.quick = true;
        snap.phases.push(("run".to_string(), 1_000_000));
        let mut e = MetricEntry::new("fig08", "fib", "WS+");
        e.runs = 3;
        e.sim_cycles = 120_000;
        e.instrs_retired = 50_000;
        e.wall_ns = 2_000_000_000;
        e.derived.fence_stall_fraction = 0.25;
        e.fences.push(FenceLatencySummary {
            class: "wf".to_string(),
            issued: 10,
            completed: 10,
            p50: 3,
            p90: 7,
            p99: 7,
            max: 6,
            mean: 3.2,
        });
        snap.entries.push(e);
        snap.total_wall_ns = 2_000_000_000;
        snap
    }

    #[test]
    fn snapshot_round_trips_byte_exactly() {
        let snap = sample_snapshot();
        let json = snap.to_json();
        let parsed = BenchSnapshot::parse(&json).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(
            parsed.to_json(),
            json,
            "render -> parse -> render is a fixpoint"
        );
    }

    #[test]
    fn native_fields_round_trip_and_stay_out_of_sim_snapshots() {
        // Simulator snapshots must not grow the optional native keys.
        let sim = sample_snapshot();
        let sim_json = sim.to_json();
        assert!(!sim_json.contains("\"backend\""));
        assert!(!sim_json.contains("\"ops\""));
        assert!(!sim_json.contains("\"ns_per_op\""));

        // Native snapshots round-trip them byte-exactly.
        let mut snap = sample_snapshot();
        snap.backend = Some("membarrier".to_string());
        snap.entries[0].ops = 4_000;
        snap.entries[0].ns_per_op = 37.5;
        let json = snap.to_json();
        let parsed = BenchSnapshot::parse(&json).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_json(), json);

        // ops is gated exactly; ns_per_op and backend only produce notes.
        let mut drifted = snap.clone();
        drifted.entries[0].ops += 1;
        drifted.entries[0].ns_per_op = 99.0;
        drifted.backend = Some("seqcst-fallback".to_string());
        let r = diff(&snap, &drifted, &DiffOptions::default());
        assert_eq!(r.breaches.len(), 1, "{:?}", r.breaches);
        assert!(r.breaches[0].contains("ops"), "{:?}", r.breaches);
        assert!(r.notes.iter().any(|n| n.contains("ns_per_op")));
        assert!(r.notes.iter().any(|n| n.contains("backend")));
    }

    #[test]
    fn snapshot_rejects_schema_drift() {
        let json = sample_snapshot()
            .to_json()
            .replace("\"schema\": 2", "\"schema\": 999");
        let err = BenchSnapshot::parse(&json).unwrap_err();
        assert!(err.contains("schema version mismatch"), "{err}");
    }

    #[test]
    fn shard_block_is_additive_and_bumps_schema() {
        // Shard-free snapshots keep writing schema v2 with no shard key
        // — this is what holds the checked-in baseline byte-identical.
        let plain = sample_snapshot();
        let plain_json = plain.to_json();
        assert!(plain_json.contains("\"schema\": 2"));
        assert!(!plain_json.contains("\"shard\""));

        // Merged sharded snapshots carry the block and schema v3, and
        // round-trip byte-exactly.
        let mut sharded = sample_snapshot();
        sharded.shard = Some(ShardTelemetry {
            shards: 3,
            resumes: 1,
            heartbeat_cells: 8,
        });
        let json = sharded.to_json();
        assert!(json.contains("\"schema\": 3"));
        let parsed = BenchSnapshot::parse(&json).unwrap();
        assert_eq!(parsed, sharded);
        assert_eq!(parsed.to_json(), json);

        // Shard drift is provenance, not behaviour: note, never breach.
        let r = diff(&plain, &sharded, &DiffOptions::default());
        assert!(r.clean(), "{:?}", r.breaches);
        assert!(r.notes.iter().any(|n| n.contains("shard provenance")));
    }

    #[test]
    fn render_compact_is_single_line_and_parses_back() {
        let v = Json::Obj(vec![
            ("v".to_string(), Json::Num(1.0)),
            ("kind".to_string(), Json::Str("heartbeat".to_string())),
            (
                "xs".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Bool(true), Json::Null]),
            ),
            ("obj".to_string(), Json::Obj(vec![])),
        ]);
        let line = v.render_compact();
        assert_eq!(
            line,
            r#"{"v":1,"kind":"heartbeat","xs":[1,true,null],"obj":{}}"#
        );
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn diff_is_clean_on_equal_snapshots() {
        let a = sample_snapshot();
        let r = diff(&a, &a.clone(), &DiffOptions::default());
        assert!(r.clean(), "{:?}", r.breaches);
        assert_eq!(r.compared, 1);
    }

    #[test]
    fn diff_catches_counter_and_key_drift() {
        let a = sample_snapshot();
        let mut b = a.clone();
        b.entries[0].sim_cycles += 1;
        let r = diff(&a, &b, &DiffOptions::default());
        assert!(!r.clean());
        assert!(r.breaches[0].contains("sim_cycles"), "{:?}", r.breaches);

        let mut c = a.clone();
        c.entries[0].design = "W+".to_string();
        let r = diff(&a, &c, &DiffOptions::default());
        assert_eq!(
            r.breaches.len(),
            2,
            "one missing + one extra: {:?}",
            r.breaches
        );
    }

    #[test]
    fn diff_gates_wall_clock_with_tolerance() {
        let a = sample_snapshot();
        let mut b = a.clone();
        b.entries[0].wall_ns = a.entries[0].wall_ns * 2; // +100% > ±50%
        b.total_wall_ns = a.total_wall_ns; // keep total clean
        let r = diff(&a, &b, &DiffOptions::default());
        assert_eq!(r.breaches.len(), 1);
        assert!(r.breaches[0].contains("wall"), "{:?}", r.breaches);
        // Within tolerance: note, not breach.
        b.entries[0].wall_ns = a.entries[0].wall_ns + a.entries[0].wall_ns / 4;
        assert!(diff(&a, &b, &DiffOptions::default()).clean());
        // Masked on one side: skipped entirely.
        b.entries[0].wall_ns = 0;
        assert!(diff(&a, &b, &DiffOptions::default()).clean());
    }

    #[test]
    fn diff_catches_fence_percentile_drift() {
        let a = sample_snapshot();
        let mut b = a.clone();
        b.entries[0].fences[0].p99 = 99;
        let r = diff(&a, &b, &DiffOptions::default());
        assert!(!r.clean());
        assert!(r.breaches[0].contains("wf.p99"), "{:?}", r.breaches);
    }

    #[test]
    fn phase_timer_accumulates_by_name() {
        let mut t = PhaseTimer::new();
        t.enter("a");
        t.enter("b");
        t.enter("a");
        t.finish();
        let names: Vec<&str> = t.phases().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["a", "b"],
            "re-entry accumulates, order is first-entry"
        );
    }

    #[test]
    fn human_ns_scales() {
        assert_eq!(human_ns(5_000_000), "5ms");
        assert_eq!(human_ns(2_500_000_000), "2.5s");
        assert_eq!(human_ns(125_000_000_000), "2m05s");
    }

    #[test]
    fn eta_needs_work_left_and_a_rate() {
        assert_eq!(eta_ns(0, 4.0), None, "nothing remaining");
        assert_eq!(eta_ns(8, 0.0), None, "no rate yet");
        assert_eq!(eta_ns(8, 4.0), Some(2_000_000_000));
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        // On Linux this must produce a sane nonzero value; elsewhere None.
        if let Some(rss) = peak_rss_bytes() {
            assert!(
                rss > 1024 * 1024,
                "peak RSS under 1 MiB is implausible: {rss}"
            );
        }
    }
}
