//! The `figures` workload: the paper's evaluation grid as a user
//! reproduces it — the 143 specs `figures::all` runs at quick scale,
//! serial and untraced, in its order. The untraced pass executes them
//! one by one, as the one-worker runner does, each spec one timed step;
//! its results are gated spec for spec and the headline gains are
//! computed from them the way the report computes them. The traced run
//! also renders the report itself (`figures::all`, captured in memory),
//! gates its text and times the report layer.
//!
//! `figures::all` pins its seed (`asymfence_bench::SEED`), so this
//! workload's inputs are the same on every `--seed` and its gate is
//! always the exact one. The grid below is pinned to `figures::all` by
//! the tests.

use std::time::Instant;

use asymfence::prelude::{FenceDesign, FenceRole};
use asymfence_bench::cli::Opts;
use asymfence_bench::{
    figures, pool, Knobs, LitmusCase, ReportSink, RunResult, RunSpec, Runner, Table,
};
use asymfence_bench::{Workload as W, DESIGNS, SEED, USTM_WINDOW};
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::stamp::StampApp;
use asymfence_workloads::ustm::UstmBench;

use crate::digest::Digest;
use crate::gate::{Expected, Unit};
use crate::pace::Pacer;
use crate::probe::{ns_since, Probe};
use crate::{Gains, Metrics, Pass, Workload};

/// Every spec `figures::all` runs at quick scale, with its section, in
/// execution order.
pub fn grid() -> Vec<(&'static str, RunSpec)> {
    use FenceDesign::*;
    use FenceRole::{Critical, NonCritical};
    let mut g: Vec<(&'static str, RunSpec)> = Vec::new();
    let mut push = |s: &'static str, spec: RunSpec| g.push((s, spec));

    let lit = |c, d| RunSpec::litmus(c, d, SEED);
    push(
        "litmus_matrix",
        lit(LitmusCase::StoreBuffering { fences: None }, SPlus),
    );
    let sb = LitmusCase::StoreBuffering {
        fences: Some((Critical, NonCritical)),
    };
    for d in [SPlus, WsPlus, SwPlus, WPlus, Wee] {
        push("litmus_matrix", lit(sb, d));
    }
    let three = LitmusCase::ThreeThreadCycle {
        roles: [Critical, NonCritical, NonCritical],
    };
    for d in [WsPlus, SwPlus] {
        push("litmus_matrix", lit(three, d));
    }
    let all_wf = LitmusCase::ThreeThreadCycle {
        roles: [Critical; 3],
    };
    push("litmus_matrix", lit(all_wf, WPlus));
    let fs = LitmusCase::FalseSharingPair {
        roles: (Critical, Critical),
    };
    for d in [WsPlus, SwPlus, WPlus] {
        push("litmus_matrix", lit(fs, d));
    }
    push("litmus_matrix", lit(fs, WfOnlyUnsafe));

    for app in [CilkApp::Fib, CilkApp::Bucket, CilkApp::Matmul] {
        for d in DESIGNS {
            push("fig08_cilk", RunSpec::cilk(app, d, 8, SEED));
        }
    }
    for section in ["fig09_ustm_throughput", "fig10_ustm_breakdown"] {
        for b in [UstmBench::Counter, UstmBench::Hash, UstmBench::Tree] {
            for d in DESIGNS {
                push(section, RunSpec::ustm(b, d, 8, SEED, USTM_WINDOW / 4));
            }
        }
    }
    for app in [StampApp::Intruder, StampApp::Ssca2] {
        for d in DESIGNS {
            push("fig11_stamp", RunSpec::stamp(app, d, 8, SEED));
        }
    }

    let spec = |workload, design, cores| RunSpec {
        workload,
        design,
        cores,
        seed: SEED,
        knobs: Knobs::default(),
        assignment: None,
    };
    let ustm3 = |bench| W::Ustm {
        bench,
        window: USTM_WINDOW / 3,
    };
    let fig12_groups = [
        vec![W::Cilk(CilkApp::Fib), W::Cilk(CilkApp::Cholesky)],
        vec![ustm3(UstmBench::Hash), ustm3(UstmBench::Tree)],
        vec![W::Stamp(StampApp::Intruder)],
    ];
    for ws in &fig12_groups {
        for d in [SPlus, WsPlus, WPlus, Wee] {
            for cores in [4, 8] {
                for &w in ws {
                    push("fig12_scalability", spec(w, d, cores));
                }
            }
        }
    }
    for w in [
        W::Cilk(CilkApp::Fib),
        ustm3(UstmBench::Hash),
        W::Stamp(StampApp::Ssca2),
    ] {
        for d in DESIGNS {
            push("table4_characterization", spec(w, d, 8));
        }
    }

    let ab = "ablations";
    let fib = |knobs, d| RunSpec::cilk(CilkApp::Fib, d, 8, SEED).with_knobs(knobs);
    let hash = |knobs, d| RunSpec::ustm(UstmBench::Hash, d, 8, SEED, 400_000).with_knobs(knobs);
    for b in [UstmBench::Hash, UstmBench::Tree, UstmBench::ReadNWrite1] {
        for d in [WsPlus, SwPlus] {
            push(ab, RunSpec::ustm(b, d, 8, SEED, 400_000));
        }
    }
    push(ab, fib(Knobs::default(), WsPlus));
    for bs in [1usize, 2, 4, 8, 32] {
        push(
            ab,
            fib(
                Knobs {
                    bs_entries: Some(bs),
                    ..Default::default()
                },
                WsPlus,
            ),
        );
    }
    for retry in [4u64, 16, 64, 256] {
        let k = Knobs {
            bounce_retry_cycles: Some(retry),
            ..Default::default()
        };
        push(ab, hash(k, WPlus));
    }
    for timeout in [25u64, 100, 200, 800, 3200] {
        let k = Knobs {
            w_timeout_cycles: Some(timeout),
            ..Default::default()
        };
        push(ab, hash(k, WPlus));
    }
    push(
        ab,
        fib(
            Knobs {
                wb_merge_width: Some(1),
                ..Default::default()
            },
            SPlus,
        ),
    );
    for w in [1usize, 2, 4, 8] {
        push(
            ab,
            fib(
                Knobs {
                    wb_merge_width: Some(w),
                    ..Default::default()
                },
                SPlus,
            ),
        );
    }
    for hop in [1u64, 5, 10, 20] {
        for d in [SPlus, WsPlus] {
            push(
                ab,
                fib(
                    Knobs {
                        hop_cycles: Some(hop),
                        ..Default::default()
                    },
                    d,
                ),
            );
        }
    }
    g
}

/// Splits a captured `figures::all` report into its sections, keyed by
/// the `===== name =====` headers.
fn report_sections(report: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in report.lines() {
        if let Some(name) = line
            .strip_prefix("===== ")
            .and_then(|l| l.strip_suffix(" ====="))
        {
            out.push((name.to_string(), String::new()));
        } else if let Some((_, text)) = out.last_mut() {
            text.push_str(line);
            text.push('\n');
        }
    }
    out
}

/// Mean over items of `1 - x(design) / x(S+)`, in percent, from a
/// captured CSV whose first column names the item, second the design,
/// and column `col` holds the cost.
fn csv_reduction(csv: &str, col: usize, design: &str) -> Option<f64> {
    let rows: Vec<Vec<&str>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    let cost = |item: &str, d: &str| -> Option<f64> {
        rows.iter()
            .find(|r| r[0] == item && r[1] == d)
            .and_then(|r| r.get(col)?.parse().ok())
    };
    let mut items: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    items.dedup();
    let gains: Option<Vec<f64>> = items
        .iter()
        .map(|&i| Some(1.0 - cost(i, design)? / cost(i, "S+")?))
        .collect();
    let gains = gains?;
    (!gains.is_empty()).then(|| 100.0 * gains.iter().sum::<f64>() / gains.len() as f64)
}

/// The headline reduction of `design` against S+: the mean over the
/// Cilk (fig08 cycles), ustm (fig10 cycles per transaction) and STAMP
/// (fig11 cycles) group means, as in EXPERIMENTS.md.
fn headline(sink: &ReportSink, design: &str) -> f64 {
    let groups = [
        ("fig08_cilk", 2),
        ("fig10_ustm_breakdown", 2),
        ("fig11_stamp", 2),
    ];
    let means: Vec<f64> = groups
        .iter()
        .filter_map(|&(t, col)| csv_reduction(sink.csv(t)?, col, design))
        .collect();
    if means.len() == groups.len() {
        means.iter().sum::<f64>() / means.len() as f64
    } else {
        f64::NAN
    }
}

/// The figures workload's state after set-up.
pub struct Figures {
    runner: Runner,
    opts: Opts,
    grid: Vec<(&'static str, RunSpec)>,
    expected_cycles: u64,
}

impl Figures {
    /// Set-up: the runner, options and grid, plus one cold machine build
    /// and run per hardware shape the grid uses (the first spec of each
    /// core count), which is what a fresh process pays before the grid
    /// reaches steady state.
    pub fn prepare(_seed: u64, expected: &Expected) -> Self {
        let grid = grid();
        let mut seen = Vec::new();
        for (_, spec) in &grid {
            if !seen.contains(&spec.cores) {
                seen.push(spec.cores);
                std::hint::black_box(spec.execute());
            }
        }
        Figures {
            runner: Runner::with_jobs(1).progress(false),
            opts: Opts {
                quick: true,
                ..Default::default()
            },
            grid,
            expected_cycles: expected.value("figures.sim_cycles").unwrap_or(0),
        }
    }
}

impl Workload for Figures {
    fn name(&self) -> &'static str {
        "figures"
    }

    fn nominal_ops(&self) -> u64 {
        self.grid.len() as u64
    }

    fn seeded(&self) -> bool {
        false
    }

    fn pass(&mut self, pacer: &mut Pacer) -> Pass {
        let pool0 = pool::stats();
        let results: Vec<RunResult> = self
            .grid
            .iter()
            .map(|(_, spec)| pacer.step(|| spec.execute()))
            .collect();
        let wall_s = pacer.pass_s();
        let pool1 = pool::stats();
        let cycles = results.iter().map(|r| r.cycles).sum();
        Pass {
            wall_s,
            ops: results.len() as u64,
            cycles,
            units: grid_units(&self.grid, &results),
            gains: grid_gains(&self.grid, &results),
            failed_invariants: u64::from(
                self.expected_cycles != 0 && cycles != self.expected_cycles,
            ),
            pool_reuse: (pool1.reuses - pool0.reuses) as f64
                / (pool1.acquires - pool0.acquires).max(1) as f64,
        }
    }

    fn traced(&mut self, untraced: &Pass) -> (Pass, Metrics) {
        // The report as users get it, for its digests and headline.
        let mut sink = ReportSink::capture();
        figures::all(&self.runner, &self.opts, &mut sink);
        let mut units: Vec<Unit> = report_sections(sink.captured())
            .into_iter()
            .map(|(name, text)| {
                let ops = self.grid.iter().filter(|(s, _)| *s == name).count() as u64;
                Unit {
                    name: format!("report.{name}"),
                    digest: Digest::default().str(&text).finish(),
                    ops,
                }
            })
            .collect();
        let report_gains = Gains {
            ws: headline(&sink, "WS+"),
            w: headline(&sink, "W+"),
        };
        // The report rounds its tables; the grid's gains are exact.
        let agree = |a: f64, b: f64| (a - b).abs() <= 0.01;
        let mismatch =
            !agree(report_gains.ws, untraced.gains.ws) || !agree(report_gains.w, untraced.gains.w);
        if mismatch {
            eprintln!(
                "perfbench: figures: report gains {report_gains:?}, grid gains {:?}",
                untraced.gains
            );
        }

        let mut probe = Probe::default();
        let t = Instant::now();
        let results: Vec<RunResult> = self
            .grid
            .iter()
            .map(|(_, spec)| probe.execute(spec, false).0)
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        units.extend(grid_units(&self.grid, &results));

        // The report layer: rebuild and render every table the report
        // captured, through the same `Table` and `ReportSink` calls the
        // figures make.
        let t = Instant::now();
        let mut out = ReportSink::capture();
        for name in sink.table_names() {
            let csv = sink.csv(name).unwrap_or_default();
            let mut lines = csv.lines();
            let header: Vec<&str> = lines.next().unwrap_or_default().split(',').collect();
            let mut table = Table::new(header);
            for l in lines {
                table.row(l.split(',').collect());
            }
            out.table(name, &table);
        }
        std::hint::black_box(out.captured().len());
        let report_ns = ns_since(t);

        let l = &probe.layers;
        let mut m = crate::layer_metrics(l, wall_s, untraced.wall_s);
        m.set("bench.pool_reuse_ratio", untraced.pool_reuse);
        m.set("bench.report_s", report_ns as f64 / 1e9);
        let pass = Pass {
            wall_s,
            ops: self.grid.len() as u64,
            cycles: l.sim_cycles,
            units,
            gains: report_gains,
            failed_invariants: if mismatch { self.grid.len() as u64 } else { 0 },
            pool_reuse: untraced.pool_reuse,
        };
        (pass, m)
    }
}

/// One gated unit per section: the digest of its specs' results.
fn grid_units(grid: &[(&'static str, RunSpec)], results: &[RunResult]) -> Vec<Unit> {
    let mut digests: Vec<(&'static str, Digest, u64)> = Vec::new();
    for ((section, _), r) in grid.iter().zip(results) {
        if digests.last().map(|d| d.0) != Some(section) {
            digests.push((section, Digest::default(), 0));
        }
        let last = digests.last_mut().expect("just pushed");
        last.1.result(r);
        last.2 += 1;
    }
    digests
        .into_iter()
        .map(|(s, d, ops)| Unit {
            name: format!("grid.{s}"),
            digest: d.finish(),
            ops,
        })
        .collect()
}

/// The report's headline gains, computed from the grid's results: per
/// section, the mean over items of `1 - cost(design) / cost(S+)`, then
/// the mean over the Cilk (cycles), ustm (active cycles per
/// transaction) and STAMP (cycles) sections — what [`headline`] reads
/// from the report's tables, without their rounding.
fn grid_gains(grid: &[(&'static str, RunSpec)], results: &[RunResult]) -> Gains {
    fn per_txn(r: &RunResult) -> f64 {
        let a = r.stats.aggregate();
        let active = a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles;
        active as f64 / r.commits.max(1) as f64
    }
    fn cycles(r: &RunResult) -> f64 {
        r.cycles as f64
    }
    let groups: [(&str, fn(&RunResult) -> f64); 3] = [
        ("fig08_cilk", cycles),
        ("fig10_ustm_breakdown", per_txn),
        ("fig11_stamp", cycles),
    ];
    let reduction = |design: FenceDesign| {
        let means: Vec<f64> = groups
            .iter()
            .map(|&(section, cost)| {
                let runs: Vec<(String, FenceDesign, f64)> = grid
                    .iter()
                    .zip(results)
                    .filter(|((s, _), _)| *s == section)
                    .map(|((_, spec), r)| (spec.workload.name(), spec.design, cost(r)))
                    .collect();
                let find =
                    |item: &str, d| runs.iter().find(|r| r.0 == item && r.1 == d).map(|r| r.2);
                let mut items: Vec<&str> = runs.iter().map(|r| r.0.as_str()).collect();
                items.dedup();
                let gains: Vec<f64> = items
                    .iter()
                    .filter_map(|&i| Some(1.0 - find(i, design)? / find(i, FenceDesign::SPlus)?))
                    .collect();
                100.0 * gains.iter().sum::<f64>() / gains.len().max(1) as f64
            })
            .collect();
        means.iter().sum::<f64>() / means.len() as f64
    };
    Gains {
        ws: reduction(FenceDesign::WsPlus),
        w: reduction(FenceDesign::WPlus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_bench::metrics::Collector;
    use std::sync::Arc;

    /// The grid is exactly what `figures::all` runs at quick scale: the
    /// same specs, section by section, in the same order, with the same
    /// simulated results — folded the way the `--metrics` collector folds
    /// them.
    #[test]
    fn grid_is_what_figures_all_runs() {
        let collector = Arc::new(Collector::new(true));
        let runner = Runner::with_jobs(1)
            .progress(false)
            .with_collector(Arc::clone(&collector));
        let opts = Opts {
            quick: true,
            ..Default::default()
        };
        let mut sink = ReportSink::capture();
        figures::all(&runner, &opts, &mut sink);
        let want = collector.snapshot("figures", true);

        let grid = grid();
        let results: Vec<RunResult> = grid.iter().map(|(_, spec)| spec.execute()).collect();
        let mut got: Vec<(String, String, String, u64, u64, u64, u64)> = Vec::new();
        for ((section, spec), r) in grid.iter().zip(&results) {
            let key = (
                section.to_string(),
                spec.workload.name(),
                spec.design.label().to_string(),
            );
            let i = match got
                .iter()
                .position(|g| (&g.0, &g.1, &g.2) == (&key.0, &key.1, &key.2))
            {
                Some(i) => i,
                None => {
                    got.push((key.0, key.1, key.2, 0, 0, 0, 0));
                    got.len() - 1
                }
            };
            let g = &mut got[i];
            g.3 += 1;
            g.4 += r.cycles;
            g.5 += r.stats.aggregate().instrs_retired;
            g.6 += r.commits;
        }
        let want: Vec<_> = want
            .entries
            .iter()
            .map(|e| {
                let k = (e.section.clone(), e.workload.clone(), e.design.clone());
                (
                    k.0,
                    k.1,
                    k.2,
                    e.runs,
                    e.sim_cycles,
                    e.instrs_retired,
                    e.commits,
                )
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(grid.len(), 143);

        // The gains computed from the results are the report's headline,
        // up to the report's rounding.
        let gains = grid_gains(&grid, &results);
        assert!(
            (gains.ws - headline(&sink, "WS+")).abs() < 0.01,
            "{gains:?}"
        );
        assert!((gains.w - headline(&sink, "W+")).abs() < 0.01, "{gains:?}");
    }

    #[test]
    fn headline_reads_the_captured_tables() {
        let csv = "app,design,cycles\nfib,S+,100\nfib,WS+,90\nsort,S+,200\nsort,WS+,160\n";
        let g = csv_reduction(csv, 2, "WS+").expect("both items have S+ and WS+");
        assert!((g - 15.0).abs() < 1e-9, "{g}");
        assert_eq!(csv_reduction(csv, 2, "W+"), None);
    }
}
