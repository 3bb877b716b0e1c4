//! `sweep status`: live fleet observability over a ledger directory.
//!
//! [`gather`] is a pure function from `(ledger files, "now")` to a
//! [`FleetStatus`] — per-shard state machine (starting → running →
//! stalled → dead, or done), progress, per-shard and aggregate
//! throughput against the CI floor, and a remaining-work ETA — and
//! [`render`] is a pure formatter over it, so the whole dashboard is
//! unit-testable without spawning processes. The binary's `--watch`
//! mode just re-runs gather+render in a loop against the live ledgers.

use std::path::Path;

use asymfence_common::ledger::CellRecord;
use asymfence_common::telemetry::{eta_ns, human_ns};

use crate::ledger::read_dir_logs;

/// Heartbeat age (ms) after which a shard is reported as stalled.
pub const STALLED_AFTER_MS: u64 = 5_000;

/// Heartbeat age (ms) after which a shard is presumed dead (killed or
/// wedged); its cells will need a resume.
pub const DEAD_AFTER_MS: u64 = 30_000;

/// The throughput floor ci.sh enforces on the merged sweep, in
/// simulated cycles per wall second.
pub const THROUGHPUT_FLOOR: f64 = 1_200_000.0;

/// A shard's liveness, judged from its ledger alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Claimed, no heartbeat yet.
    Starting,
    /// Heartbeat fresher than [`STALLED_AFTER_MS`].
    Running,
    /// Heartbeat older than [`STALLED_AFTER_MS`] but younger than
    /// [`DEAD_AFTER_MS`].
    Stalled,
    /// Heartbeat older than [`DEAD_AFTER_MS`]: the process is presumed
    /// killed; re-run the shard to resume from its durable prefix.
    Dead,
    /// Completion marker journaled.
    Done,
}

impl ShardState {
    /// Dashboard label.
    pub fn label(&self) -> &'static str {
        match self {
            ShardState::Starting => "starting",
            ShardState::Running => "running",
            ShardState::Stalled => "STALLED",
            ShardState::Dead => "DEAD",
            ShardState::Done => "done",
        }
    }
}

/// One shard's row in the dashboard.
#[derive(Clone, Debug)]
pub struct ShardStatus {
    /// Shard id (from the ledger filename).
    pub id: u64,
    /// Liveness.
    pub state: ShardState,
    /// Cells durable / cells owned.
    pub done: u64,
    /// Cells this shard owns.
    pub owned: u64,
    /// Resumed lives (claims beyond the first).
    pub resumes: u64,
    /// Last claimant's pid.
    pub pid: u64,
    /// Simulated cycles per wall second in the current life, from its
    /// freshest heartbeat.
    pub sim_cycles_per_sec: f64,
    /// Age of the freshest heartbeat in ms (`None` before the first).
    pub heartbeat_age_ms: Option<u64>,
    /// Torn bytes truncated from this ledger's tail on last read.
    pub torn_bytes: u64,
    /// Unknown-version/kind records skipped in this ledger.
    pub skipped_unknown: u64,
}

/// The whole fleet, one gather pass.
#[derive(Clone, Debug, Default)]
pub struct FleetStatus {
    /// Per-shard rows, sorted by id.
    pub shards: Vec<ShardStatus>,
    /// Cells durable across the fleet (distinct grid indices).
    pub done: u64,
    /// Total grid cells, from the claims (0 if no ledger yet).
    pub total: u64,
    /// Sum of live shards' throughput, simulated cycles / wall second.
    pub sim_cycles_per_sec: f64,
    /// Estimated ns to finish the remaining cells at the live shards'
    /// aggregate cell rate in their current lives (`None` when idle or
    /// done).
    pub eta_ns: Option<u64>,
}

/// Reads every shard ledger under `dir` and judges the fleet as of
/// `now_ms` (unix epoch ms; pass a fixed value in tests).
pub fn gather(dir: &Path, now_ms: u64) -> Result<FleetStatus, String> {
    let logs = read_dir_logs(dir)?;
    let mut fleet = FleetStatus::default();
    let mut cells_per_sec = 0.0f64;
    for (id, log) in &logs {
        if let Some(claim) = log.claim() {
            fleet.total = claim.cells;
        }
        let done = distinct(&log.cells);
        fleet.done += done;

        // Judge the current life by its own heartbeats: until it beats,
        // it is starting, however old the previous life's last beat.
        let hb = log.heartbeats[log.heartbeats_before_claim..].last();
        let age = hb.map(|h| now_ms.saturating_sub(h.ts_ms));
        let state = if !log.done.is_empty() {
            ShardState::Done
        } else {
            match age {
                None => ShardState::Starting,
                Some(a) if a >= DEAD_AFTER_MS => ShardState::Dead,
                Some(a) if a >= STALLED_AFTER_MS => ShardState::Stalled,
                Some(_) => ShardState::Running,
            }
        };
        // A heartbeat counts the cells and cycles of every life but
        // times only its own, so rate the current life alone: take off
        // what the prior lives journaled.
        let prior = &log.cells[..log.cells_before_claim];
        let prior_done = distinct(prior);
        let prior_cycles: u64 = prior.iter().map(|c| c.cycles).sum();
        let life = hb
            .filter(|h| h.wall_ns > 0 && h.done > prior_done)
            .map(|h| {
                let secs = h.wall_ns as f64 / 1e9;
                (
                    (h.done - prior_done) as f64 / secs,
                    h.sim_cycles.saturating_sub(prior_cycles) as f64 / secs,
                )
            });
        let throughput = life.map_or(0.0, |(_, cycles)| cycles);
        if matches!(state, ShardState::Running | ShardState::Starting) {
            fleet.sim_cycles_per_sec += throughput;
            cells_per_sec += life.map_or(0.0, |(cells, _)| cells);
        }
        fleet.shards.push(ShardStatus {
            id: *id,
            state,
            done,
            owned: log.claim().map(|c| c.owned).unwrap_or(0),
            resumes: (log.claims.len() as u64).saturating_sub(1),
            pid: log.claim().map(|c| c.pid).unwrap_or(0),
            sim_cycles_per_sec: throughput,
            heartbeat_age_ms: age,
            torn_bytes: log.torn_bytes,
            skipped_unknown: log.skipped_unknown,
        });
    }
    fleet.eta_ns = eta_ns(fleet.total.saturating_sub(fleet.done), cells_per_sec);
    Ok(fleet)
}

/// Distinct grid indices among `cells` (a resume may journal a cell
/// twice).
fn distinct(cells: &[CellRecord]) -> u64 {
    let mut idx: Vec<u64> = cells.iter().map(|c| c.index).collect();
    idx.sort_unstable();
    idx.dedup();
    idx.len() as u64
}

/// Renders the dashboard as plain lines (one per shard plus the fleet
/// footer). Pure, so tests pin the shape.
pub fn render(fleet: &FleetStatus) -> String {
    let mut out = String::new();
    if fleet.shards.is_empty() {
        out.push_str("sweep: no shard ledgers yet\n");
        return out;
    }
    for s in &fleet.shards {
        let mut line = format!(
            "shard {:>2} [{:>8}] {:>4}/{:<4} cells",
            s.id,
            s.state.label(),
            s.done,
            s.owned,
        );
        if s.sim_cycles_per_sec > 0.0 {
            line.push_str(&format!("  {:>6.2} Mcyc/s", s.sim_cycles_per_sec / 1e6));
        }
        if let Some(age) = s.heartbeat_age_ms {
            line.push_str(&format!("  hb {age}ms ago"));
        }
        if s.resumes > 0 {
            line.push_str(&format!("  resumes {}", s.resumes));
        }
        if s.torn_bytes > 0 {
            line.push_str(&format!("  torn {}B truncated", s.torn_bytes));
        }
        if s.skipped_unknown > 0 {
            line.push_str(&format!("  {} unknown records skipped", s.skipped_unknown));
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str(&footer(fleet));
    out
}

/// The dashboard's aggregate line, `fleet: k/N cells (p%)` plus the live
/// throughput against the floor and the ETA. `run_shard` prints it
/// after each heartbeat when progress lines are on.
pub(crate) fn footer(fleet: &FleetStatus) -> String {
    let pct = if fleet.total > 0 {
        fleet.done as f64 * 100.0 / fleet.total as f64
    } else {
        0.0
    };
    let mut footer = format!("fleet: {}/{} cells ({pct:.0}%)", fleet.done, fleet.total);
    if fleet.sim_cycles_per_sec > 0.0 {
        footer.push_str(&format!(
            "  {:.2} Mcyc/s ({})",
            fleet.sim_cycles_per_sec / 1e6,
            if fleet.sim_cycles_per_sec >= THROUGHPUT_FLOOR {
                "above floor"
            } else {
                "BELOW FLOOR"
            }
        ));
    }
    if let Some(eta) = fleet.eta_ns {
        footer.push_str(&format!("  eta ~{}", human_ns(eta)));
    }
    footer.push('\n');
    footer
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::ledger::{
        append_record, shard_path, CellRecord, ClaimRecord, DoneRecord, HeartbeatRecord, Record,
    };
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asf-status-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn claim(shard: u64) -> Record {
        Record::Claim(ClaimRecord {
            shard,
            shards: 2,
            grid: "quick".into(),
            cells: 10,
            owned: 5,
            resume: 0,
            deterministic: true,
            quick: true,
            pid: 42,
        })
    }

    fn cell(index: u64) -> Record {
        Record::Cell(Box::new(CellRecord {
            index,
            section: "litmus".into(),
            workload: "sb-unfenced".into(),
            design: "S+".into(),
            cycles: 1000,
            commits: 0,
            aborts: 0,
            scv: false,
            wall_ns: 0,
            stats: Default::default(),
            tallies: Default::default(),
        }))
    }

    fn heartbeat(shard: u64, done: u64, ts_ms: u64) -> Record {
        Record::Heartbeat(HeartbeatRecord {
            shard,
            done,
            owned: 5,
            sim_cycles: 3_000_000,
            wall_ns: 1_000_000_000,
            peak_rss_bytes: 0,
            ts_ms,
        })
    }

    fn write_shard(dir: &Path, id: u64, recs: &[Record]) {
        let mut f = std::fs::File::create(shard_path(dir, id)).unwrap();
        for r in recs {
            append_record(&mut f, r).unwrap();
        }
    }

    #[test]
    fn gather_judges_liveness_from_heartbeat_age() {
        let dir = temp_dir();
        let now = 100_000;
        // Shard 0: fresh heartbeat -> running.
        write_shard(&dir, 0, &[claim(0), cell(0), heartbeat(0, 1, now - 1_000)]);
        // Shard 1: ancient heartbeat -> dead.
        write_shard(&dir, 1, &[claim(1), cell(1), heartbeat(1, 1, now - 60_000)]);
        let fleet = gather(&dir, now).unwrap();
        assert_eq!(fleet.shards.len(), 2);
        assert_eq!(fleet.shards[0].state, ShardState::Running);
        assert_eq!(fleet.shards[1].state, ShardState::Dead);
        assert_eq!(fleet.done, 2);
        assert_eq!(fleet.total, 10);
        // Only the live shard's throughput counts: 3 Mcyc over 1 s.
        assert!((fleet.sim_cycles_per_sec - 3_000_000.0).abs() < 1.0);
        assert!(fleet.eta_ns.is_some(), "live shard rate gives an ETA");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gather_marks_done_and_stalled_shards() {
        let dir = temp_dir();
        let now = 100_000;
        write_shard(
            &dir,
            0,
            &[
                claim(0),
                cell(0),
                heartbeat(0, 1, now - 10_000), // stale but not dead
            ],
        );
        write_shard(
            &dir,
            1,
            &[
                claim(1),
                cell(1),
                heartbeat(1, 1, now),
                Record::Done(DoneRecord {
                    shard: 1,
                    done: 1,
                    wall_ns: 5,
                }),
            ],
        );
        let fleet = gather(&dir, now).unwrap();
        assert_eq!(fleet.shards[0].state, ShardState::Stalled);
        assert_eq!(fleet.shards[1].state, ShardState::Done);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gather_rates_a_resumed_shard_by_its_current_life() {
        let dir = temp_dir();
        let now = 100_000;
        let beat = |done, sim_cycles| {
            Record::Heartbeat(HeartbeatRecord {
                shard: 0,
                done,
                owned: 5,
                sim_cycles,
                wall_ns: 1_000_000_000,
                peak_rss_bytes: 0,
                ts_ms: now,
            })
        };
        // The first life journals two cells in its second; the resumed
        // life one more in its first second. Its heartbeat counts all
        // three cells and their cycles, but times only the one.
        write_shard(
            &dir,
            0,
            &[
                claim(0),
                cell(0),
                cell(2),
                beat(2, 2_000),
                claim(0),
                cell(4),
                beat(3, 3_000),
            ],
        );
        let fleet = gather(&dir, now).unwrap();
        assert_eq!(fleet.shards[0].resumes, 1);
        assert_eq!(fleet.done, 3);
        assert!(
            (fleet.shards[0].sim_cycles_per_sec - 1_000.0).abs() < 1e-6,
            "this life ran 1000 cycles in 1 s, got {}",
            fleet.shards[0].sim_cycles_per_sec
        );
        // 7 cells left at this life's one cell per second.
        assert_eq!(fleet.eta_ns, Some(7_000_000_000));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gather_judges_a_resumed_shard_by_its_current_life_heartbeats() {
        let dir = temp_dir();
        let now = 100_000;
        // The first life beat 8 s ago; the resumed life has not beaten.
        write_shard(
            &dir,
            0,
            &[claim(0), cell(0), heartbeat(0, 1, now - 8_000), claim(0)],
        );
        let fleet = gather(&dir, now).unwrap();
        let shard = &fleet.shards[0];
        assert_eq!(shard.state, ShardState::Starting);
        assert_eq!(shard.heartbeat_age_ms, None);
        assert_eq!(shard.sim_cycles_per_sec, 0.0);
        assert_eq!(fleet.eta_ns, None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_shows_per_shard_rows_and_fleet_footer() {
        let dir = temp_dir();
        let now = 50_000;
        write_shard(&dir, 0, &[claim(0), cell(0), heartbeat(0, 1, now - 500)]);
        let fleet = gather(&dir, now).unwrap();
        let text = render(&fleet);
        assert!(text.contains("shard  0 [ running]"), "got:\n{text}");
        assert!(text.contains("1/5    cells"), "got:\n{text}");
        assert!(text.contains("3.00 Mcyc/s"), "got:\n{text}");
        assert!(text.contains("fleet: 1/10 cells (10%)"), "got:\n{text}");
        assert!(text.contains("above floor"), "got:\n{text}");
        assert!(text.contains("eta ~"), "got:\n{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_handles_empty_directory() {
        let dir = temp_dir();
        let fleet = gather(&dir, 0).unwrap();
        assert_eq!(render(&fleet), "sweep: no shard ledgers yet\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
