//! Reading, validating and merging sweep-ledger directories into a
//! [`BenchSnapshot`].
//!
//! The write side lives in `asymfence_common::ledger` (records and
//! torn-tail recovery) and [`crate::shard`] (the per-shard loop). This
//! module is the read side: [`read_dir_logs`] loads every
//! `shard-*.jsonl` in a directory, and [`merge_dir`] folds the union of
//! their [`CellRecord`]s — deduplicated by grid index, validated for
//! completeness — into a snapshot by replaying them through a
//! [`Collector`] ([`Collector::record_cell`]) in grid-index order.
//! Because cell records are deterministic (simulation counters always;
//! wall-clock masked at journal time in deterministic mode), a 3-shard
//! merge, a 1-shard merge, and a kill-resume-merge all produce
//! byte-identical JSON.

use std::path::Path;

use asymfence::prelude::{FenceClass, FenceTally, TraceSink};
use asymfence_common::ledger::{
    read_shard_log, CellRecord, ShardLog, SHARD_FILE_PREFIX, SHARD_FILE_SUFFIX,
};
use asymfence_common::telemetry::{BenchSnapshot, PoolTelemetry, ShardTelemetry};

use crate::metrics::Collector;
use crate::shard::{SweepCell, HEARTBEAT_CELLS};
use crate::RunResult;

/// [`tallied_cell_record`] with the fence tallies read from a traced
/// run's sink.
pub fn cell_record(
    cell: &SweepCell,
    result: &RunResult,
    wall_ns: u64,
    sink: &TraceSink,
    deterministic: bool,
) -> CellRecord {
    let tallies = FenceClass::ALL.map(|class| sink.tally(class).clone());
    tallied_cell_record(cell, result, wall_ns, tallies, deterministic)
}

/// Builds the durable [`CellRecord`] for one executed sweep cell from
/// its result and its fence tallies (in [`FenceClass::ALL`] order). In
/// deterministic mode the wall-clock is masked to 0 *at journal time*
/// (mirroring `Collector::record`), so the ledger bytes themselves are
/// reproducible.
pub fn tallied_cell_record(
    cell: &SweepCell,
    result: &RunResult,
    wall_ns: u64,
    tallies: [FenceTally; 3],
    deterministic: bool,
) -> CellRecord {
    CellRecord {
        index: cell.index,
        section: cell.section.to_string(),
        workload: cell.spec.workload.name(),
        design: cell.spec.design.label().to_string(),
        cycles: result.cycles,
        commits: result.commits,
        aborts: result.aborts,
        scv: result.scv,
        wall_ns: if deterministic { 0 } else { wall_ns },
        stats: result.stats.clone(),
        tallies,
    }
}

/// Loads every `shard-<id>.jsonl` ledger in `dir`, sorted by shard id.
/// Files whose names don't match the pattern are ignored; a missing or
/// empty directory yields an empty list. Any other listing failure (a
/// file in place of the directory, no permission) is an error.
pub fn read_dir_logs(dir: &Path) -> Result<Vec<(u64, ShardLog)>, String> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(format!("cannot list {}: {e}", dir.display())),
    };
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(id) = name
            .strip_prefix(SHARD_FILE_PREFIX)
            .and_then(|rest| rest.strip_suffix(SHARD_FILE_SUFFIX))
            .and_then(|id| id.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((id, read_shard_log(&entry.path())?));
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

/// What [`merge_dir`] produced, with the robustness counters the caller
/// reports.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The merged snapshot.
    pub snapshot: BenchSnapshot,
    /// Duplicate cell records dropped (re-executed cells after a crash
    /// that landed between execution and journaling — byte-identical
    /// re-runs, deduped by grid index keeping the first).
    pub duplicates: u64,
    /// Unknown-version/kind records skipped with a warning while
    /// reading.
    pub skipped_unknown: u64,
    /// Torn tail bytes discarded during recovery, summed across shards.
    pub torn_bytes: u64,
}

/// Merges every shard ledger in `dir` into a complete-grid
/// [`BenchSnapshot`] labelled `label`. Fails if the directory holds no
/// ledgers, if shards disagree about the grid they ran, or if any grid
/// cell has no durable record (an unfinished sweep — resume the missing
/// shards first).
pub fn merge_dir(dir: &Path, label: &str) -> Result<MergeOutcome, String> {
    let logs = read_dir_logs(dir)?;
    let claims: Vec<_> = logs.iter().flat_map(|(_, log)| log.claims.iter()).collect();
    let Some(first) = claims.first() else {
        return Err(format!("{}: no shard ledgers to merge", dir.display()));
    };
    for c in &claims {
        if c.shards != first.shards
            || c.cells != first.cells
            || c.grid != first.grid
            || c.deterministic != first.deterministic
            || c.quick != first.quick
        {
            return Err(format!(
                "{}: shard {} claimed a different sweep \
                 ({} shards / {} cells / grid `{}` / det {} / quick {}) than shard {} \
                 ({} / {} / `{}` / {} / {})",
                dir.display(),
                c.shard,
                c.shards,
                c.cells,
                c.grid,
                c.deterministic,
                c.quick,
                first.shard,
                first.shards,
                first.cells,
                first.grid,
                first.deterministic,
                first.quick,
            ));
        }
    }
    let deterministic = first.deterministic;
    let quick = first.quick;
    let shards = first.shards;
    let total_cells = first.cells;

    // Union of cell records in (shard-id, journal) order, then a stable
    // sort by grid index: the first durable record for an index wins,
    // later ones are duplicates from re-executed chunks.
    let mut cells: Vec<&CellRecord> = logs.iter().flat_map(|(_, log)| log.cells.iter()).collect();
    cells.sort_by_key(|c| c.index);
    let mut duplicates = 0u64;
    cells.dedup_by(|b, a| {
        let dup = a.index == b.index;
        if dup {
            duplicates += 1;
        }
        dup
    });
    if cells.len() as u64 != total_cells
        || cells.iter().enumerate().any(|(i, c)| c.index != i as u64)
    {
        let have: Vec<u64> = cells.iter().map(|c| c.index).collect();
        let missing = (0..total_cells).filter(|i| !have.contains(i)).count();
        return Err(format!(
            "{}: sweep incomplete: {missing} of {total_cells} cells have no durable \
             record (resume the unfinished shards, then re-merge)",
            dir.display()
        ));
    }

    // The Collector fold, in grid-index order (the order a
    // single-process run records in).
    let collector = Collector::new(deterministic);
    for cell in &cells {
        collector.record_cell(cell);
    }
    let mut snap = collector.snapshot(label, quick);
    // A merged snapshot's harness wall is the sum of per-cell walls
    // (CPU-seconds of simulation, not elapsed time of any one process);
    // cell walls are already 0 in deterministic mode.
    snap.total_wall_ns = cells.iter().map(|c| c.wall_ns).sum();
    snap.peak_rss_bytes = if deterministic {
        0
    } else {
        logs.iter()
            .flat_map(|(_, log)| log.heartbeats.iter())
            .map(|h| h.peak_rss_bytes)
            .max()
            .unwrap_or(0)
    };
    // Pool counters are per-process; a merge has no meaningful union, so
    // they stay at the deterministic-mode default.
    snap.pool = PoolTelemetry::default();
    // The replay entered no section, so phases start empty: each
    // section's phase is the sum of its cells' walls.
    for cell in &cells {
        match snap
            .phases
            .iter_mut()
            .find(|(name, _)| name == &cell.section)
        {
            Some((_, ns)) => *ns += cell.wall_ns,
            None => snap.phases.push((cell.section.clone(), cell.wall_ns)),
        }
    }
    snap.shard = if deterministic {
        None
    } else {
        Some(ShardTelemetry {
            shards,
            resumes: logs
                .iter()
                .map(|(_, log)| (log.claims.len() as u64).saturating_sub(1))
                .sum(),
            heartbeat_cells: HEARTBEAT_CELLS as u64,
        })
    };

    Ok(MergeOutcome {
        snapshot: snap,
        duplicates,
        skipped_unknown: logs.iter().map(|(_, log)| log.skipped_unknown).sum(),
        torn_bytes: logs.iter().map(|(_, log)| log.torn_bytes).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::ledger::{
        append_record, shard_path, ClaimRecord, HeartbeatRecord, Record,
    };
    use asymfence_common::MachineStats;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("asf-ledger-{tag}-{}", std::process::id()))
    }

    #[test]
    fn only_a_missing_directory_reads_as_empty() {
        let path = temp_path("listing");
        assert!(read_dir_logs(&path).unwrap().is_empty(), "no sweep yet");
        std::fs::write(&path, b"not a directory").unwrap();
        let err = read_dir_logs(&path).unwrap_err();
        std::fs::remove_file(&path).unwrap();
        assert!(err.starts_with("cannot list"), "{err}");
    }

    #[test]
    fn timed_merge_sums_walls_and_keeps_the_fleet_blocks() {
        let dir = temp_path("timed");
        std::fs::create_dir_all(&dir).unwrap();
        let mut file = std::fs::File::create(shard_path(&dir, 0)).unwrap();
        let claim = |resume| {
            Record::Claim(ClaimRecord {
                shard: 0,
                shards: 1,
                grid: "tiny".to_string(),
                cells: 3,
                owned: 3,
                resume,
                deterministic: false,
                quick: true,
                pid: 1,
            })
        };
        let heartbeat = |peak_rss_bytes| {
            Record::Heartbeat(HeartbeatRecord {
                shard: 0,
                done: 1,
                owned: 3,
                sim_cycles: 0,
                wall_ns: 0,
                peak_rss_bytes,
                ts_ms: 0,
            })
        };
        let cell = |index, section: &str, wall_ns| {
            Record::Cell(Box::new(CellRecord {
                index,
                section: section.to_string(),
                workload: "w".to_string(),
                design: "S+".to_string(),
                cycles: 10,
                commits: 0,
                aborts: 0,
                scv: false,
                wall_ns,
                stats: MachineStats::default(),
                tallies: Default::default(),
            }))
        };
        // A first life journals one cell, a resumed life the other two.
        for rec in [
            claim(0),
            cell(0, "a", 100),
            heartbeat(9),
            claim(1),
            cell(1, "a", 20),
            heartbeat(5),
            cell(2, "b", 3),
        ] {
            append_record(&mut file, &rec).unwrap();
        }
        let snap = merge_dir(&dir, "timed").unwrap().snapshot;
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(snap.total_wall_ns, 123, "sum of cell walls");
        assert_eq!(snap.peak_rss_bytes, 9, "largest heartbeat RSS");
        assert_eq!(snap.pool, PoolTelemetry::default());
        assert_eq!(
            snap.phases,
            vec![("a".to_string(), 120), ("b".to_string(), 3)]
        );
        let shard = snap.shard.expect("timed merges carry the shard block");
        assert_eq!((shard.shards, shard.resumes), (1, 1));
        let a = snap.entry("a", "w", "S+").unwrap();
        assert_eq!((a.runs, a.sim_cycles, a.wall_ns), (2, 20, 120));
        assert_eq!((a.task_wall_min_ns, a.task_wall_max_ns), (20, 100));
    }
}
