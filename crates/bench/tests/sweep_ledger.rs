//! Integration tests of the sharded sweep ledger: shard-count
//! invariance, torn-tail crash recovery with resume, duplicate-cell
//! idempotence, and unknown-record tolerance — all pinned at the byte
//! level on the merged snapshot.
//!
//! Every test runs under `ASF_TELEMETRY_DETERMINISTIC=1` (set
//! process-wide up front; the value is identical across tests, so the
//! parallel test harness can't race on it), which masks wall-clock at
//! journal time and makes ledger cells — and therefore merged snapshots
//! — byte-reproducible.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asymfence::prelude::{FenceDesign, FenceRole};
use asymfence_bench::ledger::merge_dir;
use asymfence_bench::metrics::Collector;
use asymfence_bench::runner::Runner;
use asymfence_bench::shard::{run_shard, SweepCell};
use asymfence_bench::{LitmusCase, RunSpec};
use asymfence_common::ledger::{read_shard_log, shard_path};
use asymfence_common::par::Shard;
use asymfence_common::telemetry;

fn deterministic() {
    std::env::set_var(telemetry::DETERMINISTIC_ENV, "1");
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "asf-sweep-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A six-cell grid over two sections — small enough to run in every
/// test, shaped enough (multiple sections, multiple designs) to
/// exercise the whole merge fold.
fn tiny_grid() -> Vec<SweepCell> {
    let fenced = LitmusCase::StoreBuffering {
        fences: Some((FenceRole::Critical, FenceRole::Critical)),
    };
    let unfenced = LitmusCase::MessagePassing { fences: None };
    let mut cells = Vec::new();
    for design in [FenceDesign::SPlus, FenceDesign::WsPlus, FenceDesign::Wee] {
        cells.push(SweepCell {
            index: cells.len() as u64,
            section: "sb",
            spec: RunSpec::litmus(fenced, design, asymfence_bench::SEED),
        });
    }
    for design in [FenceDesign::SPlus, FenceDesign::WsPlus, FenceDesign::Wee] {
        cells.push(SweepCell {
            index: cells.len() as u64,
            section: "mp",
            spec: RunSpec::litmus(unfenced, design, asymfence_bench::SEED),
        });
    }
    cells
}

fn merged_json(dir: &Path) -> String {
    merge_dir(dir, "sweep_test").unwrap().snapshot.to_json()
}

#[test]
fn two_shard_merge_is_byte_identical_to_single_process() {
    deterministic();
    let cells = tiny_grid();

    let single = temp_dir("single");
    run_shard(&single, Shard::whole(), &cells, "tiny", true, Some(2)).unwrap();

    let sharded = temp_dir("sharded");
    for id in 0..2 {
        run_shard(&sharded, Shard::new(id, 2), &cells, "tiny", true, Some(1)).unwrap();
    }

    let a = merged_json(&single);
    let b = merged_json(&sharded);
    assert_eq!(a, b, "2-shard merge must be byte-identical to 1-shard");
    // Deterministic snapshots omit the shard block and stay on schema 2,
    // keeping them comparable against the single-process baseline.
    assert!(a.contains("\"schema\": 2"), "got: {a}");
    assert!(!a.contains("\"shard\""));
    std::fs::remove_dir_all(&single).unwrap();
    std::fs::remove_dir_all(&sharded).unwrap();
}

#[test]
fn killed_shard_resumes_from_torn_ledger_and_merges_byte_identically() {
    deterministic();
    let cells = tiny_grid();

    let single = temp_dir("kill-single");
    run_shard(&single, Shard::whole(), &cells, "tiny", true, Some(1)).unwrap();
    let expect = merged_json(&single);

    // Run both shards to completion, then forge shard 0's SIGKILL: keep
    // the claim and its first cell, plus a torn fragment of the next
    // record (a write cut mid-line).
    let crashed = temp_dir("kill-crashed");
    for id in 0..2 {
        run_shard(&crashed, Shard::new(id, 2), &cells, "tiny", true, Some(1)).unwrap();
    }
    let path = shard_path(&crashed, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    assert!(lines.len() >= 4, "claim + 3 cells + heartbeat + done");
    let mut forged = String::new();
    forged.push_str(lines[0]); // claim
    forged.push_str(lines[1]); // first owned cell
    forged.push_str(&lines[2][..lines[2].len() / 2]); // torn mid-record
    std::fs::write(&path, forged).unwrap();

    // The resumed life must truncate the torn tail, re-run exactly the
    // lost cells, and the re-merge must reproduce the single-process
    // bytes.
    let summary = run_shard(&crashed, Shard::new(0, 2), &cells, "tiny", true, Some(1)).unwrap();
    assert_eq!(summary.resume, 1, "second claim in the ledger");
    assert!(summary.torn_bytes > 0, "torn tail was truncated");
    assert_eq!(summary.recovered, 1, "one cell survived the crash");
    assert_eq!(summary.executed, summary.owned - 1);
    assert_eq!(merged_json(&crashed), expect);
    std::fs::remove_dir_all(&single).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

#[test]
fn duplicate_cell_records_are_idempotent_at_merge() {
    deterministic();
    let cells = tiny_grid();
    let dir = temp_dir("dup");
    run_shard(&dir, Shard::whole(), &cells, "tiny", true, Some(1)).unwrap();
    let clean = merged_json(&dir);

    // A crash between execution and journaling re-runs the cell on
    // resume, so a ledger can hold the same cell twice (byte-identical
    // records, runs being deterministic). Forge that by re-appending an
    // existing cell line.
    let path = shard_path(&dir, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let cell_line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"cell\""))
        .unwrap()
        .to_string();
    std::fs::write(&path, format!("{text}{cell_line}\n")).unwrap();

    let merged = merge_dir(&dir, "sweep_test").unwrap();
    assert_eq!(merged.duplicates, 1, "one duplicate dropped");
    assert_eq!(
        merged.snapshot.to_json(),
        clean,
        "dedup keeps bytes identical"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_record_versions_are_skipped_with_a_count() {
    deterministic();
    let cells = tiny_grid();
    let dir = temp_dir("unknown");
    run_shard(&dir, Shard::whole(), &cells, "tiny", true, Some(1)).unwrap();
    let clean = merged_json(&dir);

    // A future writer appends a v2 record and a new record kind; this
    // build must skip both (with a count), not fail the merge.
    let path = shard_path(&dir, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    let futured = format!(
        "{text}{}\n{}\n",
        "{\"v\":2,\"kind\":\"cell\",\"index\":0,\"frobnicated\":true}",
        "{\"v\":1,\"kind\":\"gc-epoch\",\"epoch\":3}"
    );
    std::fs::write(&path, futured).unwrap();

    let log = read_shard_log(&path).unwrap();
    assert_eq!(log.skipped_unknown, 2);
    let merged = merge_dir(&dir, "sweep_test").unwrap();
    assert_eq!(merged.skipped_unknown, 2);
    assert_eq!(merged.snapshot.to_json(), clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merged_snapshot_matches_the_collector_fold_byte_for_byte() {
    deterministic();
    let cells = tiny_grid();
    let dir = temp_dir("collector");
    run_shard(&dir, Shard::whole(), &cells, "tiny", true, Some(1)).unwrap();
    let merged = merged_json(&dir);

    // The same cells through the single-process `--metrics` path: a
    // Runner with a Collector, sections switched as the grid walks them.
    let collector = Arc::new(Collector::new(true));
    let runner = Runner::with_jobs(1)
        .progress(false)
        .with_collector(Arc::clone(&collector));
    let mut section = "";
    for cell in &cells {
        if cell.section != section {
            section = cell.section;
            collector.begin_section(section);
        }
        runner.run(&[cell.spec]);
    }
    let snap = collector.snapshot("sweep_test", true);
    assert_eq!(
        snap.to_json(),
        merged,
        "ledger merge must mirror the collector fold exactly"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
