//! The run engine's central guarantee: output is byte-identical at any
//! worker count. Each test drives the same work through a serial runner
//! (`jobs = 1`) and a parallel one (`jobs = 8`) and compares bytes —
//! captured markdown, CSV payloads, and raw results. Sizes are kept small
//! so the suite stays fast in debug builds; `ci.sh` repeats the
//! comparison on the full `--quick` grid in release mode.

use std::sync::Arc;

use asymfence::prelude::FenceDesign;
use asymfence_bench::cli::Opts;
use asymfence_bench::metrics::Collector;
use asymfence_bench::{figures, ReportSink, RunSpec, Runner, SiteMask, SEED};
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::ustm::UstmBench;

fn silent(jobs: usize) -> Runner {
    Runner::with_jobs(jobs).progress(false)
}

/// A whole figure — the litmus matrix, which exercises machines of
/// different core counts, recorded outcomes, and SCV checking — renders
/// to identical markdown and CSV bytes at 1 and 8 workers.
#[test]
fn litmus_matrix_bytes_are_identical_at_any_worker_count() {
    let opts = Opts::default();
    let mut serial = ReportSink::capture();
    figures::litmus_matrix(&silent(1), &opts, &mut serial);
    let mut parallel = ReportSink::capture();
    figures::litmus_matrix(&silent(8), &opts, &mut parallel);

    assert_eq!(serial.captured(), parallel.captured());
    assert_eq!(serial.table_names(), parallel.table_names());
    assert_eq!(serial.csv("litmus_matrix"), parallel.csv("litmus_matrix"));
    // The figure actually produced content (guards against a silently
    // empty sink making the equality vacuous).
    assert!(serial.captured().contains("SB unfenced"));
    assert!(serial.csv("litmus_matrix").unwrap().lines().count() > 10);
}

/// A mixed workload grid returns bit-identical results in spec order,
/// independent of the worker count.
#[test]
fn mixed_grid_results_are_identical_at_any_worker_count() {
    let mut specs = Vec::new();
    for design in [FenceDesign::SPlus, FenceDesign::WsPlus, FenceDesign::WPlus] {
        specs.push(RunSpec::cilk(CilkApp::Fib, design, 2, SEED));
        specs.push(RunSpec::ustm(UstmBench::Counter, design, 2, SEED, 40_000));
        specs.push(RunSpec::ustm(UstmBench::Hash, design, 2, SEED, 40_000));
    }
    let serial = silent(1).run(&specs);
    let parallel = silent(8).run(&specs);
    assert_eq!(serial.len(), specs.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.cycles, b.cycles, "spec {}", specs[i].label());
        assert_eq!(a.commits, b.commits, "spec {}", specs[i].label());
        assert_eq!(a.aborts, b.aborts, "spec {}", specs[i].label());
        assert_eq!(a.outcome, b.outcome, "spec {}", specs[i].label());
        assert_eq!(a.stats, b.stats, "spec {}", specs[i].label());
    }
}

/// `--filter` and `--designs` restrict the grid identically under both
/// runners (the flags shape the spec list, never the execution).
#[test]
fn filtered_figure_is_identical_at_any_worker_count() {
    let opts = Opts {
        quick: true,
        designs: Some(vec![FenceDesign::WsPlus]),
        filter: Some("fib".to_string()),
        ..Default::default()
    };
    let mut serial = ReportSink::capture();
    figures::fig08(&silent(1), &opts, &mut serial);
    let mut parallel = ReportSink::capture();
    figures::fig08(&silent(8), &opts, &mut parallel);
    assert_eq!(serial.captured(), parallel.captured());
    assert!(serial.captured().contains("| fib"));
    assert!(!serial.captured().contains("| matmul"));
    // Only the requested designs appear as table rows (the word "Wee"
    // still shows up in the paper-reference notes).
    assert!(!serial.captured().contains("| Wee"));
}

/// Tracing is pure observation: running a whole figure with `--trace`
/// set produces byte-identical report output (captured markdown and
/// CSV) to the untraced run. The trace JSON itself goes to a side file
/// and the histogram report to stderr, so neither can perturb results.
#[test]
fn traced_figure_output_is_identical_to_untraced() {
    let plain = Opts {
        quick: true,
        ..Default::default()
    };
    let path = std::env::temp_dir().join(format!("asf-trace-det-{}.json", std::process::id()));
    let traced = Opts {
        trace: Some(path.to_string_lossy().into_owned()),
        ..plain.clone()
    };

    let mut without = ReportSink::capture();
    figures::litmus_matrix(&silent(2), &plain, &mut without);
    let mut with = ReportSink::capture();
    figures::litmus_matrix(&silent(2), &traced, &mut with);

    assert_eq!(without.captured(), with.captured());
    assert_eq!(without.csv("litmus_matrix"), with.csv("litmus_matrix"));
    // The side file really was produced (and holds a Perfetto envelope),
    // so the equality above is not vacuous.
    let json = std::fs::read_to_string(&path).expect("--trace wrote the side file");
    assert!(json.contains("\"traceEvents\""));
    let _ = std::fs::remove_file(&path);
}

/// Per-run form of the same guarantee: `execute_traced` returns exactly
/// the statistics `execute` does, plus a non-empty trace.
#[test]
fn traced_run_statistics_match_untraced() {
    let spec = RunSpec::ustm(UstmBench::Counter, FenceDesign::WPlus, 2, SEED, 40_000);
    let plain = spec.execute();
    let (traced, sink) = spec.execute_traced();
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.commits, traced.commits);
    assert_eq!(plain.stats, traced.stats);
    assert!(sink.recorded() > 0);
}

/// The telemetry snapshot inherits the engine's guarantee: with
/// wall-clock masked (deterministic collectors, as under
/// `ASF_TELEMETRY_DETERMINISTIC=1`), the `--metrics` JSON bytes are
/// identical at 1 and 8 workers. The collector records serially in spec
/// order after each batch, so entry order, counters, derived ratios and
/// fence percentiles cannot depend on scheduling.
#[test]
fn metrics_snapshot_bytes_are_identical_at_any_worker_count() {
    let opts = Opts {
        quick: true,
        ..Default::default()
    };
    let snap = |jobs: usize| {
        let collector = Arc::new(Collector::new(true));
        let runner = silent(jobs).with_collector(Arc::clone(&collector));
        let mut sink = ReportSink::capture();
        figures::litmus_matrix(&runner, &opts, &mut sink);
        figures::fig12(&runner, &opts, &mut sink);
        collector.snapshot("det", true).to_json()
    };
    let serial = snap(1);
    let parallel = snap(8);
    assert_eq!(serial, parallel);
    // Not vacuously empty: both figure sections and real counters made it in.
    assert!(serial.contains("\"litmus_matrix\""));
    assert!(serial.contains("\"fig12_scalability\""));
    assert!(serial.contains("\"sim_cycles\""));
    // Deterministic mode really masked the nondeterministic fields.
    assert!(serial.contains("\"total_wall_ns\": 0"));
}

/// Collection is pure observation: attaching a collector to the runner
/// leaves the figure's report bytes untouched (the collector only reads
/// the fence tallies every machine folds as it runs).
#[test]
fn collected_figure_output_is_identical_to_uncollected() {
    let opts = Opts::default();
    let mut without = ReportSink::capture();
    figures::litmus_matrix(&silent(2), &opts, &mut without);
    let collected = silent(2).with_collector(Arc::new(Collector::new(true)));
    let mut with = ReportSink::capture();
    figures::litmus_matrix(&collected, &opts, &mut with);
    assert_eq!(without.captured(), with.captured());
    assert_eq!(without.csv("litmus_matrix"), with.csv("litmus_matrix"));
}

/// Per-site assignments are a pure override layer: installing the
/// explicit mask the role mapping would produce anyway gives exactly the
/// run the role mapping gives (cycles, stats, outcome). This pins the
/// satellite guarantee that the `FenceSite` promotion leaves every
/// role-mapped run — including the figure grids, which never install an
/// assignment — untouched.
#[test]
fn explicit_paper_equivalent_assignment_matches_role_mapping() {
    // Under WS+, Critical is weak: wsq's owner fence (site 0 of 2) and
    // dekker's hot entry fence (site 0 of 4).
    for (bench, n_sites, weak) in [(SiteBench::Wsq, 2, 0b01), (SiteBench::Dekker, 4, 0b0001)] {
        let by_role = RunSpec::sites(bench, FenceDesign::WsPlus, SEED).execute();
        let explicit = RunSpec::sites(bench, FenceDesign::WsPlus, SEED)
            .with_assignment(SiteMask::hand(n_sites, weak))
            .execute();
        assert_eq!(by_role.cycles, explicit.cycles, "{}", bench.name());
        assert_eq!(by_role.outcome, explicit.outcome, "{}", bench.name());
        assert_eq!(by_role.stats, explicit.stats, "{}", bench.name());
    }
}

/// `MachineStats::merge` over real run statistics behaves like the
/// arithmetic it replaces: merging per-run stats gives the same aggregate
/// counters in any association order.
#[test]
fn machine_stats_merge_is_order_independent_on_real_runs() {
    let runs: Vec<_> = [
        RunSpec::cilk(CilkApp::Fib, FenceDesign::SPlus, 2, SEED),
        RunSpec::ustm(UstmBench::Counter, FenceDesign::WsPlus, 2, SEED, 40_000),
        RunSpec::ustm(UstmBench::Hash, FenceDesign::WPlus, 2, SEED, 40_000),
    ]
    .iter()
    .map(|s| s.execute())
    .collect();

    // ((a ⊕ b) ⊕ c) vs (a ⊕ (b ⊕ c))
    let left = runs[0]
        .stats
        .clone()
        .merged(&runs[1].stats)
        .merged(&runs[2].stats);
    let right = runs[0]
        .stats
        .clone()
        .merged(&runs[1].stats.clone().merged(&runs[2].stats));
    assert_eq!(left, right);

    let total = left.aggregate();
    let sum: u64 = runs
        .iter()
        .map(|r| r.stats.aggregate().instrs_retired)
        .sum();
    assert_eq!(total.instrs_retired, sum);
    let busy: u64 = runs.iter().map(|r| r.stats.aggregate().busy_cycles).sum();
    assert_eq!(total.busy_cycles, busy);
}
