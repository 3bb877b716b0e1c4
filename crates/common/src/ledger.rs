//! The sharded-sweep run ledger: versioned, append-only JSONL records
//! with torn-tail recovery.
//!
//! A sharded sweep partitions a benchmark grid across processes; each
//! shard appends its lifecycle to its own `shard-<K>.jsonl` file in the
//! ledger directory — a [`ClaimRecord`] when it starts (or resumes), a
//! [`HeartbeatRecord`] every few cells (progress, throughput and RSS for
//! the live dashboard), a [`CellRecord`] with the *exact* simulation
//! output of every completed grid cell, and a [`DoneRecord`] when its
//! partition is finished. Because every record is one `write(2)` of one
//! complete line, the only damage a SIGKILL can do is a torn final line:
//! [`read_shard_log`] treats bytes after the last parseable terminated
//! line as torn, and [`recover_for_append`] truncates them away so the
//! shard resumes from its last durable record.
//!
//! Records are versioned ([`LEDGER_VERSION`]): a record whose `v` or
//! `kind` this build does not understand is *skipped with a warning
//! count*, never a hard error, so a newer writer's ledger still merges
//! on an older reader (mirroring the additive-schema rule of
//! [`crate::telemetry`]). Serialization uses the in-repo
//! [`Json`] value compactly rendered — one line
//! per record, deterministic bytes.
//!
//! The crucial property, inherited from [`MachineStats::merge`] /
//! [`FenceTally::merge`] associativity: a [`CellRecord`] carries the
//! full per-run output (stats, per-class tallies, counters), so folding
//! cell records *in grid-index order* reproduces the single-process
//! metrics collector byte-for-byte, no matter how many shards produced
//! them or how often those shards crashed and resumed.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::stats::{CoreStats, MachineStats, TrafficStats};
use crate::telemetry::Json;
use crate::trace::{FenceTally, BOUNCE_BUCKETS, LATENCY_BUCKETS};

/// Version stamped into every record's `v` field. Bump when a record's
/// meaning changes incompatibly; readers skip versions they don't know.
pub const LEDGER_VERSION: u64 = 1;

/// File-name prefix of per-shard ledger files (`shard-<K>.jsonl`).
pub const SHARD_FILE_PREFIX: &str = "shard-";

/// File-name suffix of per-shard ledger files.
pub const SHARD_FILE_SUFFIX: &str = ".jsonl";

/// The ledger file for shard `id` inside directory `dir`.
pub fn shard_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SHARD_FILE_PREFIX}{id}{SHARD_FILE_SUFFIX}"))
}

/// A shard announcing itself: written once per process start, so the
/// number of claims in a shard file minus one is its resume count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClaimRecord {
    /// This shard's id (`0..shards`).
    pub shard: u64,
    /// Total shard count the grid was partitioned into.
    pub shards: u64,
    /// Grid label (e.g. `quick` / `full`); claims in one ledger
    /// directory must agree on it.
    pub grid: String,
    /// Total cells in the (unsharded) grid; must agree across claims.
    pub cells: u64,
    /// Cells this shard owns.
    pub owned: u64,
    /// How many claims preceded this one in the file (0 = first start,
    /// >0 = crash/kill resume).
    pub resume: u64,
    /// The run collects deterministic (timing-masked) telemetry.
    pub deterministic: bool,
    /// The run uses the `--quick` grid.
    pub quick: bool,
    /// OS process id, for the status dashboard.
    pub pid: u64,
}

/// Periodic progress: appended every few completed cells so `sweep
/// status` can render throughput, ETA and stall detection while the
/// fleet runs. Wall-clock fields here are *real* even in deterministic
/// mode — heartbeats never merge into a snapshot, and a dashboard with
/// masked throughput would be useless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeartbeatRecord {
    /// Shard id.
    pub shard: u64,
    /// Cells this shard has completed (including prior-life cells after
    /// a resume).
    pub done: u64,
    /// Cells this shard owns.
    pub owned: u64,
    /// Simulated cycles accumulated by this shard so far.
    pub sim_cycles: u64,
    /// Wall-clock nanoseconds since this shard (re)started.
    pub wall_ns: u64,
    /// Peak RSS of the shard process in bytes (0 off-Linux).
    pub peak_rss_bytes: u64,
    /// Unix epoch milliseconds when the heartbeat was written; the
    /// dashboard ages it to detect stalled/dead shards.
    pub ts_ms: u64,
}

/// The durable result of one grid cell: everything the metrics
/// collector folds, so the merged snapshot needs nothing but cell
/// records (in index order) to be byte-identical to a single-process
/// run.
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Grid index of the cell (global across shards).
    pub index: u64,
    /// Report section the cell belongs to.
    pub section: String,
    /// Workload name (spec label component).
    pub workload: String,
    /// Fence-design label.
    pub design: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// A sequential-consistency violation was observed.
    pub scv: bool,
    /// Wall-clock of the run, ns (masked to 0 in deterministic mode,
    /// exactly like the in-process collector).
    pub wall_ns: u64,
    /// Full machine statistics of the run.
    pub stats: MachineStats,
    /// Per-class fence tallies (`FenceClass::ALL` order: sf, wf, wee-wf).
    pub tallies: [FenceTally; 3],
}

/// A shard marking its partition complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoneRecord {
    /// Shard id.
    pub shard: u64,
    /// Cells completed (equals `owned` of the claim).
    pub done: u64,
    /// Wall-clock nanoseconds of the shard's final life.
    pub wall_ns: u64,
}

/// Any ledger record.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Shard start/resume announcement.
    Claim(ClaimRecord),
    /// Periodic progress.
    Heartbeat(HeartbeatRecord),
    /// One completed grid cell (boxed: a cell carries full machine
    /// stats and three tallies, far bigger than the other variants).
    Cell(Box<CellRecord>),
    /// Shard completion marker.
    Done(DoneRecord),
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn u64s_arr(vals: &[u64]) -> Json {
    Json::Arr(vals.iter().map(|&v| num(v)).collect())
}

fn stats_to_json(s: &MachineStats) -> Json {
    Json::Obj(vec![
        ("cycles".to_string(), num(s.cycles)),
        ("deadlocked".to_string(), Json::Bool(s.deadlocked)),
        (
            "traffic".to_string(),
            u64s_arr(&[
                s.traffic.base_bytes,
                s.traffic.retry_bytes,
                s.traffic.messages,
            ]),
        ),
        (
            "cores".to_string(),
            Json::Arr(s.cores.iter().map(|c| u64s_arr(&c.values())).collect()),
        ),
    ])
}

fn tally_to_json(t: &FenceTally) -> Json {
    Json::Obj(vec![
        ("issued".to_string(), num(t.issued)),
        ("completed".to_string(), num(t.completed)),
        ("rolled_back".to_string(), num(t.rolled_back)),
        ("demoted".to_string(), num(t.demoted)),
        ("bounces".to_string(), num(t.bounces)),
        ("latency".to_string(), u64s_arr(&t.latency_buckets)),
        ("bounce".to_string(), u64s_arr(&t.bounce_buckets)),
        ("total_latency".to_string(), num(t.total_latency)),
        ("max_latency".to_string(), num(t.max_latency)),
    ])
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("record missing integer `{key}`"))
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("record missing bool `{key}`"))
}

fn get_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("record missing string `{key}`"))
}

fn get_u64s(v: &Json, key: &str) -> Result<Vec<u64>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("record missing array `{key}`"))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| format!("`{key}` has a non-integer"))
        })
        .collect()
}

fn stats_from_json(v: &Json) -> Result<MachineStats, String> {
    let traffic = get_u64s(v, "traffic")?;
    if traffic.len() != 3 {
        return Err("stats `traffic` must have 3 elements".to_string());
    }
    let mut cores = Vec::new();
    for c in v
        .get("cores")
        .and_then(Json::as_arr)
        .ok_or("stats missing `cores`".to_string())?
    {
        let vals: Vec<u64> = c
            .as_arr()
            .ok_or("core is not an array".to_string())?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or("core counter is not an integer".to_string())
            })
            .collect::<Result<_, _>>()?;
        cores.push(CoreStats::from_values(&vals).ok_or_else(|| {
            format!(
                "core has {} counters, expected {}",
                vals.len(),
                CoreStats::FIELDS
            )
        })?);
    }
    Ok(MachineStats {
        cycles: get_u64(v, "cycles")?,
        cores,
        traffic: TrafficStats {
            base_bytes: traffic[0],
            retry_bytes: traffic[1],
            messages: traffic[2],
        },
        deadlocked: get_bool(v, "deadlocked")?,
    })
}

fn tally_from_json(v: &Json) -> Result<FenceTally, String> {
    let latency = get_u64s(v, "latency")?;
    let bounce = get_u64s(v, "bounce")?;
    if latency.len() != LATENCY_BUCKETS || bounce.len() != BOUNCE_BUCKETS {
        return Err("tally histogram length mismatch".to_string());
    }
    let mut t = FenceTally {
        issued: get_u64(v, "issued")?,
        completed: get_u64(v, "completed")?,
        rolled_back: get_u64(v, "rolled_back")?,
        demoted: get_u64(v, "demoted")?,
        bounces: get_u64(v, "bounces")?,
        total_latency: get_u64(v, "total_latency")?,
        max_latency: get_u64(v, "max_latency")?,
        ..Default::default()
    };
    t.latency_buckets.copy_from_slice(&latency);
    t.bounce_buckets.copy_from_slice(&bounce);
    Ok(t)
}

impl Record {
    /// The record's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::Claim(_) => "claim",
            Record::Heartbeat(_) => "heartbeat",
            Record::Cell(_) => "cell",
            Record::Done(_) => "done",
        }
    }

    /// Serializes the record as one compact JSON line (no trailing
    /// newline; the writer appends it).
    pub fn to_line(&self) -> String {
        let mut fields = vec![
            ("v".to_string(), num(LEDGER_VERSION)),
            ("kind".to_string(), Json::Str(self.kind().to_string())),
        ];
        match self {
            Record::Claim(c) => fields.extend([
                ("shard".to_string(), num(c.shard)),
                ("shards".to_string(), num(c.shards)),
                ("grid".to_string(), Json::Str(c.grid.clone())),
                ("cells".to_string(), num(c.cells)),
                ("owned".to_string(), num(c.owned)),
                ("resume".to_string(), num(c.resume)),
                ("deterministic".to_string(), Json::Bool(c.deterministic)),
                ("quick".to_string(), Json::Bool(c.quick)),
                ("pid".to_string(), num(c.pid)),
            ]),
            Record::Heartbeat(h) => fields.extend([
                ("shard".to_string(), num(h.shard)),
                ("done".to_string(), num(h.done)),
                ("owned".to_string(), num(h.owned)),
                ("sim_cycles".to_string(), num(h.sim_cycles)),
                ("wall_ns".to_string(), num(h.wall_ns)),
                ("peak_rss_bytes".to_string(), num(h.peak_rss_bytes)),
                ("ts_ms".to_string(), num(h.ts_ms)),
            ]),
            Record::Cell(c) => fields.extend([
                ("index".to_string(), num(c.index)),
                ("section".to_string(), Json::Str(c.section.clone())),
                ("workload".to_string(), Json::Str(c.workload.clone())),
                ("design".to_string(), Json::Str(c.design.clone())),
                ("cycles".to_string(), num(c.cycles)),
                ("commits".to_string(), num(c.commits)),
                ("aborts".to_string(), num(c.aborts)),
                ("scv".to_string(), Json::Bool(c.scv)),
                ("wall_ns".to_string(), num(c.wall_ns)),
                ("stats".to_string(), stats_to_json(&c.stats)),
                (
                    "tallies".to_string(),
                    Json::Arr(c.tallies.iter().map(tally_to_json).collect()),
                ),
            ]),
            Record::Done(d) => fields.extend([
                ("shard".to_string(), num(d.shard)),
                ("done".to_string(), num(d.done)),
                ("wall_ns".to_string(), num(d.wall_ns)),
            ]),
        }
        Json::Obj(fields).render_compact()
    }

    /// Parses one ledger line. `Ok(None)` means the line is valid JSON
    /// carrying a version or kind this build does not understand — the
    /// caller skips it (counting a warning) instead of failing, so newer
    /// writers stay mergeable. `Err` means the line is not a ledger
    /// record at all (corruption — or a torn tail, which the file reader
    /// handles before calling this).
    pub fn parse_line(line: &str) -> Result<Option<Record>, String> {
        let v = Json::parse(line)?;
        let version = get_u64(&v, "v")?;
        if version != LEDGER_VERSION {
            return Ok(None);
        }
        let kind = get_str(&v, "kind")?;
        let rec = match kind.as_str() {
            "claim" => Record::Claim(ClaimRecord {
                shard: get_u64(&v, "shard")?,
                shards: get_u64(&v, "shards")?,
                grid: get_str(&v, "grid")?,
                cells: get_u64(&v, "cells")?,
                owned: get_u64(&v, "owned")?,
                resume: get_u64(&v, "resume")?,
                deterministic: get_bool(&v, "deterministic")?,
                quick: get_bool(&v, "quick")?,
                pid: get_u64(&v, "pid")?,
            }),
            "heartbeat" => Record::Heartbeat(HeartbeatRecord {
                shard: get_u64(&v, "shard")?,
                done: get_u64(&v, "done")?,
                owned: get_u64(&v, "owned")?,
                sim_cycles: get_u64(&v, "sim_cycles")?,
                wall_ns: get_u64(&v, "wall_ns")?,
                peak_rss_bytes: get_u64(&v, "peak_rss_bytes")?,
                ts_ms: get_u64(&v, "ts_ms")?,
            }),
            "cell" => Record::Cell(Box::new(CellRecord {
                index: get_u64(&v, "index")?,
                section: get_str(&v, "section")?,
                workload: get_str(&v, "workload")?,
                design: get_str(&v, "design")?,
                cycles: get_u64(&v, "cycles")?,
                commits: get_u64(&v, "commits")?,
                aborts: get_u64(&v, "aborts")?,
                scv: get_bool(&v, "scv")?,
                wall_ns: get_u64(&v, "wall_ns")?,
                stats: stats_from_json(v.get("stats").ok_or("cell missing `stats`".to_string())?)?,
                tallies: {
                    let arr = v
                        .get("tallies")
                        .and_then(Json::as_arr)
                        .ok_or("cell missing `tallies`".to_string())?;
                    if arr.len() != 3 {
                        return Err("cell `tallies` must have 3 classes".to_string());
                    }
                    [
                        tally_from_json(&arr[0])?,
                        tally_from_json(&arr[1])?,
                        tally_from_json(&arr[2])?,
                    ]
                },
            })),
            "done" => Record::Done(DoneRecord {
                shard: get_u64(&v, "shard")?,
                done: get_u64(&v, "done")?,
                wall_ns: get_u64(&v, "wall_ns")?,
            }),
            _ => return Ok(None),
        };
        Ok(Some(rec))
    }
}

/// Appends one record as a single `write(2)` of one terminated line.
/// A record is durable against SIGKILL once this returns (the page
/// cache survives process death; only machine crashes need fsync, which
/// sweeps deliberately skip for throughput).
pub fn append_record(file: &mut File, rec: &Record) -> Result<(), String> {
    let mut line = rec.to_line();
    line.push('\n');
    file.write_all(line.as_bytes())
        .map_err(|e| format!("ledger append failed: {e}"))
}

/// Everything read from one shard's ledger file, records bucketed by
/// kind (each bucket in file order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardLog {
    /// Start/resume claims.
    pub claims: Vec<ClaimRecord>,
    /// Heartbeats.
    pub heartbeats: Vec<HeartbeatRecord>,
    /// Completed cells (possibly with duplicate indices after a resume
    /// that re-ran an un-journaled cell; mergers keep the first).
    pub cells: Vec<CellRecord>,
    /// How many of `cells` precede the latest claim: the prior lives'
    /// share, which the current life's heartbeats count but do not time.
    pub cells_before_claim: usize,
    /// How many of `heartbeats` precede the latest claim: the prior
    /// lives' beats, which say nothing of the current life's liveness.
    pub heartbeats_before_claim: usize,
    /// Completion markers.
    pub done: Vec<DoneRecord>,
    /// Lines skipped because their version/kind is unknown.
    pub skipped_unknown: u64,
    /// Torn bytes at the tail (0 for a cleanly written file).
    pub torn_bytes: u64,
    /// Byte length of the valid prefix (file length minus torn tail).
    pub valid_len: u64,
}

impl ShardLog {
    /// The shard's latest claim (current life), if any.
    pub fn claim(&self) -> Option<&ClaimRecord> {
        self.claims.last()
    }
}

/// Reads a shard ledger file with torn-tail recovery. A missing file is
/// an empty log (a shard that has not started). Bytes after the last
/// newline are torn; a *terminated* final line that fails to parse is
/// also treated as torn (defense in depth — some filesystems pad tails
/// with zeros after a crash). A parse failure anywhere *before* the
/// final line is real corruption and a hard error.
pub fn read_shard_log(path: &Path) -> Result<ShardLog, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(ShardLog::default()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut log = ShardLog::default();
    // Offsets of each terminated line: (start, end_after_newline).
    let mut lines: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            lines.push((start, i + 1));
            start = i + 1;
        }
    }
    let mut valid_end = 0;
    for (li, &(s, e)) in lines.iter().enumerate() {
        let last = li == lines.len() - 1;
        let parsed = std::str::from_utf8(&bytes[s..e - 1])
            .map_err(|e| e.to_string())
            .and_then(Record::parse_line);
        match parsed {
            Ok(Some(rec)) => {
                match rec {
                    Record::Claim(c) => {
                        log.cells_before_claim = log.cells.len();
                        log.heartbeats_before_claim = log.heartbeats.len();
                        log.claims.push(c);
                    }
                    Record::Heartbeat(h) => log.heartbeats.push(h),
                    Record::Cell(c) => log.cells.push(*c),
                    Record::Done(d) => log.done.push(d),
                }
                valid_end = e;
            }
            Ok(None) => {
                log.skipped_unknown += 1;
                valid_end = e;
            }
            Err(err) if last => {
                // Terminated but unparseable tail line: torn, cut it.
                let _ = err;
                break;
            }
            Err(err) => {
                return Err(format!(
                    "{}: corrupt ledger record on line {}: {err}",
                    path.display(),
                    li + 1
                ));
            }
        }
    }
    log.torn_bytes = (bytes.len() - valid_end) as u64;
    log.valid_len = valid_end as u64;
    Ok(log)
}

/// Opens a shard ledger file for appending after recovery: reads it with
/// [`read_shard_log`], truncates any torn tail away, and returns the
/// parsed log together with a writer positioned at the end of the valid
/// prefix. This is the resume entry point — the returned log tells the
/// shard which cells are already durable.
pub fn recover_for_append(path: &Path) -> Result<(ShardLog, File), String> {
    let log = read_shard_log(path)?;
    let mut file = OpenOptions::new()
        .create(true)
        .read(true)
        .write(true)
        .truncate(false)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    file.set_len(log.valid_len)
        .map_err(|e| format!("cannot truncate torn tail of {}: {e}", path.display()))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| format!("cannot seek {}: {e}", path.display()))?;
    Ok((log, file))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell(index: u64) -> CellRecord {
        let mut stats = MachineStats {
            cycles: 1000 + index,
            deadlocked: false,
            ..Default::default()
        };
        stats.traffic = TrafficStats {
            base_bytes: 4096,
            retry_bytes: 128,
            messages: 77,
        };
        let core = CoreStats::from_values(
            &(1..=CoreStats::FIELDS as u64)
                .map(|i| i * 3 + index)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        stats.cores = vec![core, CoreStats::default()];
        let mut tally = FenceTally {
            issued: 10,
            completed: 9,
            total_latency: 420,
            max_latency: 99,
            ..Default::default()
        };
        tally.latency_buckets[3] = 9;
        tally.bounce_buckets[0] = 9;
        CellRecord {
            index,
            section: "litmus".to_string(),
            workload: "sb-fenced".to_string(),
            design: "WS+".to_string(),
            cycles: 1000 + index,
            commits: 5,
            aborts: 1,
            scv: false,
            wall_ns: 0,
            stats,
            tallies: [tally, FenceTally::default(), FenceTally::default()],
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Claim(ClaimRecord {
                shard: 1,
                shards: 3,
                grid: "quick".to_string(),
                cells: 56,
                owned: 19,
                resume: 0,
                deterministic: true,
                quick: true,
                pid: 4242,
            }),
            Record::Cell(Box::new(sample_cell(1))),
            Record::Heartbeat(HeartbeatRecord {
                shard: 1,
                done: 1,
                owned: 19,
                sim_cycles: 1001,
                wall_ns: 5_000_000,
                peak_rss_bytes: 10 << 20,
                ts_ms: 1_700_000_000_000,
            }),
            Record::Done(DoneRecord {
                shard: 1,
                done: 19,
                wall_ns: 9_000_000,
            }),
        ]
    }

    fn tmp_file(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "asf-ledger-{tag}-{}-{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn records_round_trip_one_line_each() {
        for rec in sample_records() {
            let line = rec.to_line();
            assert!(!line.contains('\n'), "{line}");
            let back = Record::parse_line(&line).unwrap().unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn unknown_version_and_kind_skip_not_fail() {
        let newer = r#"{"v":2,"kind":"cell","future":"stuff"}"#;
        assert_eq!(Record::parse_line(newer).unwrap(), None);
        let exotic = r#"{"v":1,"kind":"gc-pause","ms":12}"#;
        assert_eq!(Record::parse_line(exotic).unwrap(), None);
        // Valid JSON but not a record at all is an error.
        assert!(Record::parse_line(r#"{"hello":true}"#).is_err());
        assert!(Record::parse_line("not json").is_err());
    }

    #[test]
    fn read_recovers_torn_tail() {
        let path = tmp_file("torn");
        let recs = sample_records();
        let mut content = String::new();
        for r in &recs[..2] {
            content.push_str(&r.to_line());
            content.push('\n');
        }
        let valid = content.len() as u64;
        // Simulate a SIGKILL mid-append: half of record 3.
        let half = recs[2].to_line();
        content.push_str(&half[..half.len() / 2]);
        std::fs::write(&path, &content).unwrap();

        let log = read_shard_log(&path).unwrap();
        assert_eq!(log.claims.len(), 1);
        assert_eq!(log.cells.len(), 1);
        assert_eq!(log.heartbeats.len(), 0);
        assert_eq!(log.valid_len, valid);
        assert_eq!(log.torn_bytes, (half.len() / 2) as u64);

        // recover_for_append truncates the tail and appends cleanly.
        let (log2, mut file) = recover_for_append(&path).unwrap();
        assert_eq!(log2, log);
        append_record(&mut file, &recs[2]).unwrap();
        drop(file);
        let reread = read_shard_log(&path).unwrap();
        assert_eq!(reread.torn_bytes, 0);
        assert_eq!(reread.heartbeats.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminated_garbage_tail_is_torn_but_interior_garbage_is_corruption() {
        let path = tmp_file("tail");
        let claim = sample_records()[0].to_line();
        std::fs::write(&path, format!("{claim}\n\u{0}\u{0}\u{0}\n")).unwrap();
        let log = read_shard_log(&path).unwrap();
        assert_eq!(log.claims.len(), 1);
        assert_eq!(log.torn_bytes, 4);

        std::fs::write(&path, format!("garbage\n{claim}\n")).unwrap();
        let err = read_shard_log(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_empty_log() {
        let log = read_shard_log(Path::new("/nonexistent/asf-ledger-nope.jsonl")).unwrap();
        assert_eq!(log, ShardLog::default());
    }

    #[test]
    fn unknown_records_count_and_stay_durable() {
        let path = tmp_file("skip");
        let claim = sample_records()[0].to_line();
        let future = r#"{"v":9,"kind":"claim"}"#;
        std::fs::write(&path, format!("{claim}\n{future}\n")).unwrap();
        let log = read_shard_log(&path).unwrap();
        assert_eq!(log.skipped_unknown, 1);
        assert_eq!(
            log.torn_bytes, 0,
            "unknown lines are valid prefix, not torn"
        );
        // Recovery must NOT truncate the future record away.
        let (_, file) = recover_for_append(&path).unwrap();
        drop(file);
        let bytes = std::fs::read(&path).unwrap();
        assert!(String::from_utf8(bytes).unwrap().contains(future));
        std::fs::remove_file(&path).ok();
    }
}
