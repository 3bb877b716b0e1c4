//! The `sweep` workload: the full sweep grid, journaled by `run_shard`
//! into a fresh ledger directory, then folded by `merge_dir` — the
//! `sweep run` + `sweep merge` path, with every cell executed under the
//! fence-event trace. The untraced pass runs the grid as a fleet of
//! [`SHARDS`] shards, one after the other, so that each shard is one
//! timed step; the traced pass mirrors `run_shard` for one shard of one,
//! call by call. The merge gives the same snapshot either way.
//!
//! The grid is `shard::grid(false)` with every spec re-seeded from
//! `--seed`, so a held-out seed simulates different inputs.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

use asymfence_bench::ledger::{cell_record, merge_dir, read_dir_logs};
use asymfence_bench::shard::{self, run_shard, SweepCell, HEARTBEAT_CELLS};
use asymfence_bench::{pool, LitmusCase, Workload as W};
use asymfence_common::ledger::{
    append_record, shard_path, CellRecord, ClaimRecord, DoneRecord, HeartbeatRecord, Record,
};
use asymfence_common::par::Shard;
use asymfence_common::telemetry::BenchSnapshot;

use crate::digest::Digest;
use crate::gate::Unit;
use crate::pace::Pacer;
use crate::probe::{ns_since, Probe};
use crate::{Gains, Metrics, Pass, Workload};

/// The grid label `sweep run` journals for the full grid.
const GRID: &str = "full";

/// Shards the untraced pass splits the grid into (four cells each).
/// The merged snapshot is the same at any shard count.
pub const SHARDS: u64 = 19;

/// Where the benchmark keeps its ledgers: inside the checkout, removed
/// when the run ends.
pub fn scratch_dir() -> PathBuf {
    PathBuf::from(".perfbench-tmp").join(format!("sweep-{}", std::process::id()))
}

/// The workload's state after set-up.
pub struct Sweep {
    cells: Vec<SweepCell>,
    dir: PathBuf,
}

impl Sweep {
    /// Set-up: the re-seeded grid, a fresh ledger directory, and one
    /// traced cold run per grid section (litmus, cilk, ustm, sites) to
    /// build each machine shape once.
    pub fn prepare(seed: u64) -> Self {
        let cells: Vec<SweepCell> = shard::grid(false)
            .into_iter()
            .map(|mut c| {
                c.spec.seed = seed;
                c
            })
            .collect();
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("ledger directory inside the checkout");
        let mut seen: Vec<&str> = Vec::new();
        for c in &cells {
            if !seen.contains(&c.section) {
                seen.push(c.section);
                std::hint::black_box(c.spec.execute_traced());
            }
        }
        Sweep { cells, dir }
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = self.dir.parent().map(std::fs::remove_dir);
    }
}

/// Digest of one journaled cell's simulated results (wall time left
/// out).
fn cell_digest(d: &mut Digest, c: &CellRecord) {
    d.u64(c.index)
        .str(&c.workload)
        .str(&c.design)
        .u64(c.cycles)
        .u64(c.commits)
        .u64(c.aborts)
        .u64(u64::from(c.scv))
        .stats(&c.stats)
        .str(&format!("{:?}", c.tallies));
}

/// The merged snapshot with every host-dependent field cleared.
fn merged_digest(snap: &BenchSnapshot) -> u64 {
    let mut s = snap.clone();
    s.total_wall_ns = 0;
    s.peak_rss_bytes = 0;
    s.pool = Default::default();
    s.phases.clear();
    s.shard = None;
    for e in &mut s.entries {
        e.wall_ns = 0;
        e.task_wall_min_ns = 0;
        e.task_wall_max_ns = 0;
    }
    Digest::default().str(&s.to_json()).finish()
}

/// Whether the design guarantees SC for a fenced litmus case of the
/// sweep grid (every fence critical, so W+/Wee recover and S+ is strong;
/// WS+ admits one weak fence per group, which all-critical cases exceed).
fn must_be_sc(cell: &SweepCell) -> bool {
    use asymfence::prelude::FenceDesign;
    let fenced = match cell.spec.workload {
        W::Litmus(LitmusCase::StoreBuffering { fences }) => fences.is_some(),
        W::Litmus(LitmusCase::MessagePassing { fences }) => fences.is_some(),
        W::Litmus(LitmusCase::ThreeThreadCycle { .. }) => true,
        W::Litmus(LitmusCase::FalseSharingPair { .. }) => true,
        _ => false,
    };
    fenced && cell.spec.design != FenceDesign::WsPlus
}

/// Units, simulated cycles, gains and invariant failures from the
/// journaled cells (in grid order) and the merged snapshot.
fn summarize(
    cells: &[SweepCell],
    recs: &[CellRecord],
    merged: &BenchSnapshot,
) -> (Vec<Unit>, u64, Gains, u64) {
    let mut units: Vec<(String, Digest, u64)> = Vec::new();
    let mut cycles = 0;
    let mut bad = 0;
    for (cell, rec) in cells.iter().zip(recs) {
        if units.last().map(|u| u.0.as_str()) != Some(cell.section) {
            units.push((cell.section.to_string(), Digest::default(), 0));
        }
        let u = units.last_mut().expect("just pushed");
        cell_digest(&mut u.1, rec);
        u.2 += 1;
        cycles += rec.cycles;
        if must_be_sc(cell) && rec.scv {
            bad += 1;
        }
    }
    let mut units: Vec<Unit> = units
        .into_iter()
        .map(|(s, d, ops)| Unit {
            name: format!("cells.{s}"),
            digest: d.finish(),
            ops,
        })
        .collect();
    units.push(Unit {
        name: "merge.snapshot".into(),
        digest: merged_digest(merged),
        ops: 0,
    });
    if recs.len() != cells.len() {
        bad += cells.len().abs_diff(recs.len()) as u64;
    }
    let gains = Gains {
        ws: reduction(cells, recs, "WS+"),
        w: reduction(cells, recs, "W+"),
    };
    (units, cycles, gains, bad)
}

/// Mean reduction of `design` against S+ over the grid's Cilk (cycles)
/// and ustm (window cycles per committed transaction) cells, in percent.
fn reduction(cells: &[SweepCell], recs: &[CellRecord], design: &str) -> f64 {
    let cost = |r: &CellRecord| match r.commits {
        0 => r.cycles as f64,
        n => r.cycles as f64 / n as f64,
    };
    let mut gains = Vec::new();
    for (cell, rec) in cells.iter().zip(recs) {
        if !matches!(cell.spec.workload, W::Cilk(_) | W::Ustm { .. }) || rec.design != design {
            continue;
        }
        let base = cells
            .iter()
            .zip(recs)
            .find(|(c, r)| c.spec.workload == cell.spec.workload && r.design == "S+");
        if let Some((_, b)) = base {
            gains.push(1.0 - cost(rec) / cost(b));
        }
    }
    100.0 * gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

/// Every cell record of a ledger directory, in grid order.
fn records(dir: &Path) -> Vec<CellRecord> {
    let mut recs: Vec<CellRecord> = read_dir_logs(dir)
        .unwrap_or_default()
        .into_iter()
        .flat_map(|(_, log)| log.cells)
        .collect();
    recs.sort_by_key(|r| r.index);
    recs
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn append(file: &mut File, rec: &Record, ns: &mut u64, n: &mut u64) {
    let t = Instant::now();
    append_record(file, rec).expect("ledger append inside the checkout");
    *ns += ns_since(t);
    *n += 1;
}

impl Workload for Sweep {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn nominal_ops(&self) -> u64 {
        self.cells.len() as u64
    }

    fn pass(&mut self, pacer: &mut Pacer) -> Pass {
        let dir = self.fresh_dir("run");
        let pool0 = pool::stats();
        // The fleet `sweep run --spawn` starts, run one shard after the
        // other: each shard is one timed step, the merge another.
        for id in 0..SHARDS {
            pacer.step(|| {
                run_shard(
                    &dir,
                    Shard::new(id, SHARDS),
                    &self.cells,
                    GRID,
                    false,
                    Some(1),
                )
                .expect("sweep shard runs")
            });
        }
        let merged = pacer.step(|| merge_dir(&dir, "perfbench").expect("complete ledgers merge"));
        let wall_s = pacer.pass_s();
        let pool1 = pool::stats();
        let recs = records(&dir);
        let (units, cycles, gains, bad) = summarize(&self.cells, &recs, &merged.snapshot);
        Pass {
            wall_s,
            ops: recs.len() as u64,
            cycles,
            units,
            gains,
            failed_invariants: bad,
            pool_reuse: (pool1.reuses - pool0.reuses) as f64
                / (pool1.acquires - pool0.acquires).max(1) as f64,
        }
    }

    fn traced(&mut self, untraced: &Pass) -> (Pass, Metrics) {
        let dir = self.fresh_dir("traced");
        std::fs::create_dir_all(&dir).expect("ledger directory inside the checkout");
        let mut probe = Probe::default();
        let (mut fold_ns, mut append_ns, mut n_records, mut events) = (0u64, 0u64, 0u64, 0u64);
        let n = self.cells.len() as u64;

        // `run_shard`, call by call: claim, cells in heartbeat chunks,
        // done; then the merge.
        let t = Instant::now();
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(shard_path(&dir, 0))
            .expect("ledger file inside the checkout");
        let claim = Record::Claim(ClaimRecord {
            shard: 0,
            shards: 1,
            grid: GRID.into(),
            cells: n,
            owned: n,
            resume: 0,
            deterministic: false,
            quick: false,
            pid: u64::from(std::process::id()),
        });
        append(&mut file, &claim, &mut append_ns, &mut n_records);
        let mut done = 0;
        for chunk in self.cells.chunks(HEARTBEAT_CELLS) {
            for cell in chunk {
                let t_run = Instant::now();
                let (result, sink) = probe.execute(&cell.spec, true);
                let wall_ns = ns_since(t_run);
                let sink = sink.expect("trace requested");
                events += sink.recorded();
                let t_fold = Instant::now();
                let rec = cell_record(cell, &result, wall_ns, &sink, false);
                fold_ns += ns_since(t_fold);
                append(
                    &mut file,
                    &Record::Cell(Box::new(rec)),
                    &mut append_ns,
                    &mut n_records,
                );
                done += 1;
            }
            let hb = Record::Heartbeat(HeartbeatRecord {
                shard: 0,
                done,
                owned: n,
                sim_cycles: probe.layers.sim_cycles,
                wall_ns: ns_since(t),
                peak_rss_bytes: 0,
                ts_ms: 0,
            });
            append(&mut file, &hb, &mut append_ns, &mut n_records);
        }
        let fin = Record::Done(DoneRecord {
            shard: 0,
            done,
            wall_ns: ns_since(t),
        });
        append(&mut file, &fin, &mut append_ns, &mut n_records);
        drop(file);
        let t_merge = Instant::now();
        let merged = merge_dir(&dir, "perfbench").expect("complete ledger merges");
        let merge_ns = ns_since(t_merge);
        let wall_s = t.elapsed().as_secs_f64();

        let recs = records(&dir);
        let (units, cycles, gains, bad) = summarize(&self.cells, &recs, &merged.snapshot);

        // The program's own trace cost: every cell through `execute` and
        // `execute_traced`, alternating so host drift hits both alike.
        let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
        for cell in &self.cells {
            let t = Instant::now();
            std::hint::black_box(cell.spec.execute());
            plain_ns += ns_since(t);
            let t = Instant::now();
            std::hint::black_box(cell.spec.execute_traced());
            traced_ns += ns_since(t);
        }

        let l = &probe.layers;
        let mut m = crate::layer_metrics(l, wall_s, untraced.wall_s);
        m.set("bench.pool_reuse_ratio", untraced.pool_reuse);
        m.set("trace.events", events as f64);
        m.set("trace.fold_s", fold_ns as f64 / 1e9);
        m.set(
            "trace.overhead_pct",
            100.0 * (traced_ns as f64 / plain_ns.max(1) as f64 - 1.0),
        );
        m.set("ledger.records", n_records as f64);
        m.set("ledger.bytes", dir_bytes(&dir) as f64);
        m.set("ledger.append_s", append_ns as f64 / 1e9);
        m.set("ledger.merge_s", merge_ns as f64 / 1e9);
        let pass = Pass {
            wall_s,
            ops: recs.len() as u64,
            cycles,
            units,
            gains,
            failed_invariants: bad,
            pool_reuse: untraced.pool_reuse,
        };
        (pass, m)
    }
}
