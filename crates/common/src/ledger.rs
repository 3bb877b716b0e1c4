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
//! per record, deterministic bytes — written and read through each
//! record's one field list.
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

use crate::stats::{MachineStats, TrafficStats};
use crate::telemetry::{field, Field, Json, Persisted, Shape, Wire};
use crate::trace::FenceTally;

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
#[derive(Clone, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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
#[derive(Clone, Debug, Default, PartialEq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

impl Persisted for ClaimRecord {
    type Value = dyn Wire;
    const NAME: &'static str = "claim";
    const LIST: &'static [Field<Self>] = &[
        field!("shard", shard),
        field!("shards", shards),
        field!("grid", grid),
        field!("cells", cells),
        field!("owned", owned),
        field!("resume", resume),
        field!("deterministic", deterministic),
        field!("quick", quick),
        field!("pid", pid),
    ];
}

impl Persisted for HeartbeatRecord {
    type Value = dyn Wire;
    const NAME: &'static str = "heartbeat";
    const LIST: &'static [Field<Self>] = &[
        field!("shard", shard),
        field!("done", done),
        field!("owned", owned),
        field!("sim_cycles", sim_cycles),
        field!("wall_ns", wall_ns),
        field!("peak_rss_bytes", peak_rss_bytes),
        field!("ts_ms", ts_ms),
    ];
}

impl Persisted for CellRecord {
    type Value = dyn Wire;
    const NAME: &'static str = "cell";
    const LIST: &'static [Field<Self>] = &[
        field!("index", index),
        field!("section", section),
        field!("workload", workload),
        field!("design", design),
        field!("cycles", cycles),
        field!("commits", commits),
        field!("aborts", aborts),
        field!("scv", scv),
        field!("wall_ns", wall_ns),
        field!("stats", stats),
        field!("tallies", tallies),
    ];
}

impl Persisted for DoneRecord {
    type Value = dyn Wire;
    const NAME: &'static str = "done";
    const LIST: &'static [Field<Self>] = &[
        field!("shard", shard),
        field!("done", done),
        field!("wall_ns", wall_ns),
    ];
}

/// A cell's machine statistics; each core is an array of its counters
/// (see `CoreStats`'s list).
impl Persisted for MachineStats {
    type Value = dyn Wire;
    const NAME: &'static str = "stats";
    const LIST: &'static [Field<Self>] = &[
        field!("cycles", cycles),
        field!("deadlocked", deadlocked),
        field!("traffic", traffic),
        field!("cores", cores),
    ];
}

impl Persisted for TrafficStats {
    type Value = u64;
    const NAME: &'static str = "traffic";
    const SHAPE: Shape = Shape::Array;
    const LIST: &'static [Field<Self, u64>] = &[
        field!("base_bytes", base_bytes),
        field!("retry_bytes", retry_bytes),
        field!("messages", messages),
    ];
}

/// One fence class's tally; the histograms are arrays of their buckets.
impl Persisted for FenceTally {
    type Value = dyn Wire;
    const NAME: &'static str = "tally";
    const LIST: &'static [Field<Self>] = &[
        field!("issued", issued),
        field!("completed", completed),
        field!("rolled_back", rolled_back),
        field!("demoted", demoted),
        field!("bounces", bounces),
        field!("latency", latency_buckets),
        field!("bounce", bounce_buckets),
        field!("total_latency", total_latency),
        field!("max_latency", max_latency),
    ];
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
    /// newline; the writer appends it): the envelope (`v`, `kind`), then
    /// the record's fields.
    pub fn to_line(&self) -> String {
        fn line<R: Persisted>(kind: &str, r: &R) -> String {
            let mut out = Vec::with_capacity(2 + R::LIST.len());
            out.push(("v".to_string(), LEDGER_VERSION.put()));
            out.push(("kind".to_string(), Json::Str(kind.to_string())));
            r.put_fields(&mut out);
            Json::Obj(out).render_compact()
        }
        match self {
            Record::Claim(c) => line(self.kind(), c),
            Record::Heartbeat(h) => line(self.kind(), h),
            Record::Cell(c) => line(self.kind(), &**c),
            Record::Done(d) => line(self.kind(), d),
        }
    }

    /// Parses one ledger line. `Ok(None)` means the line is valid JSON
    /// carrying a version or kind this build does not understand — the
    /// caller skips it (counting a warning) instead of failing, so newer
    /// writers stay mergeable. `Err` means the line is not a ledger
    /// record at all (corruption — or a torn tail, which the file reader
    /// handles before calling this). The envelope is read first, since it
    /// says which field list the rest is.
    pub fn parse_line(line: &str) -> Result<Option<Record>, String> {
        let v = Json::parse(line)?;
        let version = v.get("v").and_then(Json::as_u64);
        if version.ok_or("record missing integer `v`")? != LEDGER_VERSION {
            return Ok(None);
        }
        let kind = v.get("kind").and_then(Json::as_str);
        Ok(Some(match kind.ok_or("record missing string `kind`")? {
            "claim" => Record::Claim(ClaimRecord::read(&v)?),
            "heartbeat" => Record::Heartbeat(HeartbeatRecord::read(&v)?),
            "cell" => Record::Cell(Box::new(CellRecord::read(&v)?)),
            "done" => Record::Done(DoneRecord::read(&v)?),
            _ => return Ok(None),
        }))
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
            // Terminated but unparseable tail line: torn, cut it.
            Err(_) if last => break,
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
    use crate::stats::CoreStats;

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
