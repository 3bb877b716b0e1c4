//! Sharded sweep execution: the grid, the partition, and the
//! crash-safe shard loop.
//!
//! A sweep grid is a flat, deterministically ordered list of
//! [`SweepCell`]s — `(global index, section, RunSpec)` — built by
//! [`grid`]. The [`Shard`] from `asymfence_common::par` partitions it
//! round-robin by index, so ownership is a pure function of
//! `(index, shards)` and a resumed shard recomputes exactly the cells it
//! owned before a crash.
//!
//! [`run_shard`] is the per-process loop: recover/truncate this shard's
//! ledger file, replay it to learn which owned cells are already
//! durable, append a [`ClaimRecord`], then execute the remaining cells
//! in index order through the [`Runner`] in small chunks — untraced,
//! since every machine folds its own fence tallies — journaling a
//! [`CellRecord`](asymfence_common::ledger::CellRecord) per cell and a
//! [`HeartbeatRecord`] per chunk. With progress lines on,
//! each heartbeat is followed by the `sweep status` fleet footer, read
//! from every shard's ledger. A SIGKILL at *any* byte
//! boundary loses at most the un-journaled cells of the current chunk;
//! the next life re-runs exactly those (runs are deterministic, so a
//! duplicate record — possible only if the kill lands between execution
//! and journaling — is byte-identical and deduped at merge).

use std::path::Path;

use asymfence::prelude::FenceRole;
use asymfence_common::ledger::{
    append_record, recover_for_append, shard_path, ClaimRecord, DoneRecord, HeartbeatRecord, Record,
};
use asymfence_common::par::Shard;
use asymfence_common::telemetry::{self, Stopwatch};
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::ustm::UstmBench;

use crate::ledger::tallied_cell_record;
use crate::runner::{progress_from_env, LitmusCase, RunSpec, Runner};
use crate::status;
use crate::{DESIGNS, SEED, USTM_WINDOW};

/// Cells completed between heartbeat records (the ledger's progress
/// granularity; also the bound on work a SIGKILL can lose).
pub const HEARTBEAT_CELLS: usize = 8;

/// Test/CI knob: milliseconds to sleep after *each* cell, shrinking the
/// chunk size to 1 so a kill lands in a deterministic window. Unset in
/// normal operation.
pub const CELL_DELAY_ENV: &str = "ASF_SWEEP_CELL_DELAY_MS";

/// One cell of the sweep grid.
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// Global grid index (the sharding and merge key).
    pub index: u64,
    /// Report section the cell belongs to.
    pub section: &'static str,
    /// The simulation.
    pub spec: RunSpec,
}

/// Builds the sweep grid, in deterministic order: a litmus matrix, a
/// CilkApp slice, a ustm slice and the synthesis benchmarks, each
/// crossed with [`DESIGNS`]. The grid depends only on `quick` — never
/// on the shard — so every shard (and every resumed life of one)
/// constructs the identical list.
pub fn grid(quick: bool) -> Vec<SweepCell> {
    use FenceRole::Critical;
    let mut cells = Vec::new();
    let push = |section: &'static str, spec: RunSpec, cells: &mut Vec<SweepCell>| {
        cells.push(SweepCell {
            index: cells.len() as u64,
            section,
            spec,
        });
    };

    let litmus = [
        LitmusCase::StoreBuffering { fences: None },
        LitmusCase::StoreBuffering {
            fences: Some((Critical, Critical)),
        },
        LitmusCase::ThreeThreadCycle {
            roles: [Critical; 3],
        },
        LitmusCase::FalseSharingPair {
            roles: (Critical, Critical),
        },
        LitmusCase::MessagePassing { fences: None },
        LitmusCase::MessagePassing {
            fences: Some((Critical, Critical)),
        },
        LitmusCase::LoadBuffering,
        LitmusCase::Iriw,
    ];
    for case in litmus {
        for design in DESIGNS {
            push("litmus", RunSpec::litmus(case, design, SEED), &mut cells);
        }
    }

    let (cilk_apps, cilk_cores): (&[CilkApp], usize) = if quick {
        (&[CilkApp::Fib, CilkApp::Bucket], 4)
    } else {
        (&[CilkApp::Fib, CilkApp::Bucket, CilkApp::Matmul], 8)
    };
    for &app in cilk_apps {
        for design in DESIGNS {
            push(
                "cilk",
                RunSpec::cilk(app, design, cilk_cores, SEED),
                &mut cells,
            );
        }
    }

    let (ustm_benches, ustm_cores, window): (&[UstmBench], usize, u64) = if quick {
        (&[UstmBench::Counter, UstmBench::Hash], 4, USTM_WINDOW / 8)
    } else {
        (
            &[UstmBench::Counter, UstmBench::Hash, UstmBench::Tree],
            8,
            USTM_WINDOW / 2,
        )
    };
    for &bench in ustm_benches {
        for design in DESIGNS {
            push(
                "ustm",
                RunSpec::ustm(bench, design, ustm_cores, SEED, window),
                &mut cells,
            );
        }
    }

    let sites: &[SiteBench] = if quick {
        &SiteBench::ALL[..2]
    } else {
        &SiteBench::ALL
    };
    for &bench in sites {
        for design in DESIGNS {
            push("sites", RunSpec::sites(bench, design, SEED), &mut cells);
        }
    }
    cells
}

/// The grid label journaled in claims, so a ledger directory rejects a
/// mix of quick and full shards.
pub fn grid_label(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

/// What [`run_shard`] did, for the driver's summary line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Cells this shard owns.
    pub owned: u64,
    /// Cells executed in this life (0 = everything was already durable).
    pub executed: u64,
    /// Cells recovered from the ledger (prior lives).
    pub recovered: u64,
    /// Which resume this life was (0 = first start).
    pub resume: u64,
    /// Torn bytes truncated during recovery.
    pub torn_bytes: u64,
}

/// Wall-clock now, in milliseconds since the Unix epoch (heartbeat
/// stamps and `sweep status` ages).
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn cell_delay_from_env() -> Option<u64> {
    std::env::var(CELL_DELAY_ENV).ok()?.parse().ok()
}

/// Executes one shard of `cells` against the ledger directory `dir`,
/// resuming from any durable prefix left by a previous life. See the
/// module docs for the protocol. The grid passed in must be the full
/// (unsharded) grid; this function applies the partition.
pub fn run_shard(
    dir: &Path,
    shard: Shard,
    cells: &[SweepCell],
    grid: &str,
    quick: bool,
    jobs: Option<usize>,
) -> Result<ShardSummary, String> {
    let deterministic = telemetry::deterministic_from_env();
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = shard_path(dir, shard.id);
    let (log, mut file) = recover_for_append(&path)?;

    // A resumed shard must be re-invoked with the same partition and
    // grid; anything else would corrupt the merge.
    for claim in &log.claims {
        if claim.shards != shard.count || claim.cells != cells.len() as u64 || claim.grid != grid {
            return Err(format!(
                "{}: prior claim ran {} shards / {} cells / grid `{}`, \
                 this invocation wants {} / {} / `{}`",
                path.display(),
                claim.shards,
                claim.cells,
                claim.grid,
                shard.count,
                cells.len(),
                grid
            ));
        }
    }

    let mut durable: Vec<u64> = log.cells.iter().map(|c| c.index).collect();
    durable.sort_unstable();
    durable.dedup();
    let owned: Vec<&SweepCell> = cells.iter().filter(|c| shard.owns(c.index)).collect();
    let pending: Vec<&SweepCell> = owned
        .iter()
        .copied()
        .filter(|c| durable.binary_search(&c.index).is_err())
        .collect();
    let recovered = (owned.len() - pending.len()) as u64;
    let resume = log.claims.len() as u64;

    append_record(
        &mut file,
        &Record::Claim(ClaimRecord {
            shard: shard.id,
            shards: shard.count,
            grid: grid.to_string(),
            cells: cells.len() as u64,
            owned: owned.len() as u64,
            resume,
            deterministic,
            quick,
            pid: std::process::id() as u64,
        }),
    )?;

    let runner = Runner::new(jobs);
    let progress = progress_from_env();

    let delay_ms = cell_delay_from_env();
    let chunk = if delay_ms.is_some() {
        1
    } else {
        HEARTBEAT_CELLS
    };
    let life = Stopwatch::start();
    // Heartbeats count the shard's whole ledger, prior lives included;
    // `status` subtracts the prior lives' share to rate this life alone.
    let mut sim_cycles: u64 = log.cells.iter().map(|c| c.cycles).sum();
    let mut done = recovered;

    for batch in pending.chunks(chunk) {
        let specs: Vec<RunSpec> = batch.iter().map(|c| c.spec).collect();
        let outs = runner.run_tallied(&specs);
        for (cell, (result, wall_ns, tallies)) in batch.iter().zip(outs) {
            let rec = tallied_cell_record(cell, &result, wall_ns, tallies, deterministic);
            sim_cycles += rec.cycles;
            append_record(&mut file, &Record::Cell(Box::new(rec)))?;
            done += 1;
            if let Some(ms) = delay_ms {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        append_record(
            &mut file,
            &Record::Heartbeat(HeartbeatRecord {
                shard: shard.id,
                done,
                owned: owned.len() as u64,
                sim_cycles,
                wall_ns: life.elapsed_ns(),
                peak_rss_bytes: telemetry::peak_rss_bytes().unwrap_or(0),
                ts_ms: now_ms(),
            }),
        )?;
        // Best-effort: an unreadable sibling ledger skips the footer,
        // never the run.
        if progress {
            if let Ok(fleet) = status::gather(dir, now_ms()) {
                eprint!("{}", status::footer(&fleet));
            }
        }
    }

    append_record(
        &mut file,
        &Record::Done(DoneRecord {
            shard: shard.id,
            done,
            wall_ns: life.elapsed_ns(),
        }),
    )?;

    Ok(ShardSummary {
        owned: owned.len() as u64,
        executed: pending.len() as u64,
        recovered,
        resume,
        torn_bytes: log.torn_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_deterministic_and_indexed_contiguously() {
        let a = grid(true);
        let b = grid(true);
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.index, i as u64);
            assert_eq!(x.spec, y.spec);
            assert_eq!(x.section, y.section);
        }
        // The quick grid: 8 litmus × 4 + 2 cilk × 4 + 2 ustm × 4 + 2
        // sites × 4.
        assert_eq!(a.len(), 56);
        assert!(grid(false).len() > a.len());
    }

    #[test]
    fn grid_sections_appear_in_report_order() {
        let cells = grid(true);
        let mut seen = Vec::new();
        for c in &cells {
            if seen.last() != Some(&c.section) {
                seen.push(c.section);
            }
        }
        assert_eq!(seen, vec!["litmus", "cilk", "ustm", "sites"]);
    }

    #[test]
    fn shards_partition_the_grid_exactly() {
        let cells = grid(true);
        let n = 3;
        let mut covered = vec![0u32; cells.len()];
        for id in 0..n {
            let s = Shard::new(id, n);
            for c in cells.iter().filter(|c| s.owns(c.index)) {
                covered[c.index as usize] += 1;
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "each cell owned exactly once"
        );
    }
}
