//! Every figure/table of the evaluation as a library function: a
//! declarative [`RunSpec`] grid, one [`Runner::run`] fan-out, then
//! order-preserving formatting into a [`ReportSink`].
//!
//! The `src/bin/` binaries are thin wrappers over these functions, and
//! [`all`] chains them in-process (what the `all_experiments` binary
//! runs). Keeping the run loop in one place is what makes the whole
//! harness parallel: a figure describes *what* to simulate, the runner
//! decides *how*.

use asymfence::prelude::{FenceDesign, FenceRole};
use asymfence_common::cli as scan;
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::stamp::StampApp;
use asymfence_workloads::ustm::UstmBench;

use crate::cli::Opts;
use crate::report::{f2, mean, pct, ReportSink, Table};
use crate::runner::{Knobs, LitmusCase, RunSpec, Runner, Workload};
use crate::{RunResult, SEED, USTM_WINDOW};

/// Core count of Figures 8–11 and Table 4.
const CORES: usize = 8;

/// Runs a section's batch, then re-runs its representatives for
/// `--trace` (a no-op without it). A trace that cannot be written exits
/// 2 here, with the path and the OS error: the figure functions keep
/// the `fn(&Runner, &Opts, &mut ReportSink)` shape the benchmark calls,
/// so they hand no error up to `main`.
fn run(runner: &Runner, opts: &Opts, section: &str, specs: &[RunSpec]) -> Vec<RunResult> {
    let results = runner.run(specs);
    crate::trace::maybe_emit(section, specs, opts).unwrap_or_else(|e| scan::fail(&e));
    results
}

/// One spec per (kept workload, design) at [`CORES`], workload-major:
/// each chunk of `designs.len()` results is one workload's row, S+
/// first.
fn grid(
    opts: &Opts,
    workloads: impl IntoIterator<Item = Workload>,
) -> (Vec<Workload>, Vec<FenceDesign>, Vec<RunSpec>) {
    let workloads: Vec<Workload> = workloads
        .into_iter()
        .filter(|w| opts.keep(&w.name()))
        .collect();
    let designs = opts.design_list();
    let specs = workloads
        .iter()
        .flat_map(|&w| {
            designs
                .iter()
                .map(move |&d| RunSpec::new(w, d, CORES, SEED))
        })
        .collect();
    (workloads, designs, specs)
}

/// What sets Figures 8 and 11 apart: the section, the workloads and the
/// wording.
struct ExecTime {
    section: &'static str,
    workloads: Vec<Workload>,
    /// Heading, before the normalization note.
    title: &'static str,
    /// The averages heading.
    averages: &'static str,
    /// The S+ fence-stall share line: label, then the note after it.
    share: (&'static str, &'static str),
    /// The note after each design's mean.
    mean_note: &'static str,
}

/// Figure 8: execution time of CilkApps, normalized to S+, broken down
/// into busy / other-stall / fence-stall time.
pub fn fig08(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    let apps = if opts.quick {
        vec![CilkApp::Fib, CilkApp::Bucket, CilkApp::Matmul]
    } else {
        CilkApp::ALL.to_vec()
    };
    let figure = ExecTime {
        section: "fig08_cilk",
        workloads: apps.into_iter().map(Workload::Cilk).collect(),
        title: "Figure 8 — CilkApps",
        averages: "## Averages",
        share: ("S+ fence-stall share of core time", " (paper: ~13%)"),
        mean_note: " (paper: S+ 1.00, WS+/W+/Wee ~0.91)",
    };
    exec_time(runner, opts, sink, figure);
}

/// Figure 11: STAMP execution time, normalized to S+, with the cycle
/// breakdown.
pub fn fig11(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    let apps = if opts.quick {
        vec![StampApp::Intruder, StampApp::Ssca2]
    } else {
        StampApp::ALL.to_vec()
    };
    let figure = ExecTime {
        section: "fig11_stamp",
        workloads: apps.into_iter().map(Workload::Stamp).collect(),
        title: "Figure 11 — STAMP",
        averages: "## Averages (paper: WS+ -7%, W+ -19%, Wee -11%; S+ fence stall ~13%)",
        share: ("S+ fence-stall share", ""),
        mean_note: "",
    };
    exec_time(runner, opts, sink, figure);
}

/// Figures 8 and 11: each workload's execution time under every design,
/// normalized to S+, with the busy / other-stall / fence-stall breakdown.
fn exec_time(runner: &Runner, opts: &Opts, sink: &mut ReportSink, figure: ExecTime) {
    let section = figure.section;
    runner.begin_section(section);
    sink.line(format!(
        "# {} execution time (normalized to S+), {CORES} cores",
        figure.title
    ));
    sink.blank();
    let (workloads, designs, specs) = grid(opts, figure.workloads);
    let results = run(runner, opts, section, &specs);

    let header = vec![
        "app",
        "design",
        "cycles",
        "norm-time",
        "busy",
        "other-stall",
        "fence-stall",
    ];
    let (t, means) = normalized(header, &workloads, &designs, &results, |base, r| {
        let norm = r.cycles as f64 / base.cycles as f64;
        (
            norm,
            [vec![r.cycles.to_string(), f2(norm)], breakdown(r)].concat(),
        )
    });
    sink.table(section, &t);
    sink.line(figure.averages);
    sink.line(format!(
        "{}: {}{}",
        figure.share.0,
        splus_fence_share(&results, designs.len()),
        figure.share.1
    ));
    mean_lines(sink, &designs, &means, "execution time", figure.mean_note);
}

/// A figure normalized to S+: a table row per (workload, design) run,
/// `row` giving the run's normalized value and its cells from the
/// workload's S+ run and its own. Returns the table and each design's
/// mean normalized value.
fn normalized(
    header: Vec<&str>,
    workloads: &[Workload],
    designs: &[FenceDesign],
    results: &[RunResult],
    row: impl Fn(&RunResult, &RunResult) -> (f64, Vec<String>),
) -> (Table, Vec<f64>) {
    let mut t = Table::new(header);
    let mut per_design = vec![Vec::new(); designs.len()];
    for (w, runs) in workloads.iter().zip(results.chunks(designs.len())) {
        for ((design, r), norms) in designs.iter().zip(runs).zip(&mut per_design) {
            let (norm, cells) = row(&runs[0], r);
            norms.push(norm);
            t.row([vec![w.name(), design.label().to_string()], cells].concat());
        }
    }
    (t, per_design.iter().map(|norms| mean(norms)).collect())
}

/// The busy / other-stall / fence-stall cells of a run.
fn breakdown(r: &RunResult) -> Vec<String> {
    let (busy, fence, other) = r.breakdown();
    vec![pct(busy), pct(other), pct(fence)]
}

/// The mean fence-stall share of the S+ runs, each workload's first of
/// `designs`.
fn splus_fence_share(results: &[RunResult], designs: usize) -> String {
    let shares: Vec<f64> = results
        .chunks(designs)
        .map(|runs| runs[0].breakdown().1)
        .collect();
    pct(mean(&shares))
}

/// One `{design}: mean normalized {what} {mean}{note}` line per design.
fn mean_lines(
    sink: &mut ReportSink,
    designs: &[FenceDesign],
    means: &[f64],
    what: &str,
    note: &str,
) {
    for (design, m) in designs.iter().zip(means) {
        sink.line(format!(
            "{:>4}: mean normalized {what} {}{note}",
            design.label(),
            f2(*m)
        ));
    }
}

/// The ustm grid Figures 9 and 10 share: the simulated window, the kept
/// benchmarks, the designs and their specs.
fn ustm_grid(opts: &Opts) -> (u64, Vec<Workload>, Vec<FenceDesign>, Vec<RunSpec>) {
    let window = if opts.quick {
        USTM_WINDOW / 4
    } else {
        USTM_WINDOW
    };
    let benches = if opts.quick {
        vec![UstmBench::Counter, UstmBench::Hash, UstmBench::Tree]
    } else {
        UstmBench::ALL.to_vec()
    };
    let workloads = benches
        .into_iter()
        .map(|bench| Workload::Ustm { bench, window });
    let (workloads, designs, specs) = grid(opts, workloads);
    (window, workloads, designs, specs)
}

/// Figure 9: transactional throughput of the ustm microbenchmarks,
/// normalized to S+ (higher is better).
pub fn fig09(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    let section = "fig09_ustm_throughput";
    runner.begin_section(section);
    let (window, benches, designs, specs) = ustm_grid(opts);
    sink.line(format!(
        "# Figure 9 — ustm transactional throughput (normalized to S+), {CORES} cores, {window}-cycle window"
    ));
    sink.blank();
    let results = run(runner, opts, section, &specs);

    let header = vec!["bench", "design", "commits", "aborts", "norm-throughput"];
    let (t, means) = normalized(header, &benches, &designs, &results, |base, r| {
        let norm = r.commits as f64 / base.commits.max(1) as f64;
        (
            norm,
            vec![r.commits.to_string(), r.aborts.to_string(), f2(norm)],
        )
    });
    sink.table(section, &t);
    sink.line("## Averages (paper: WS+ +38%, W+ +58%, Wee +14% over S+)");
    mean_lines(sink, &designs, &means, "throughput", "");
}

/// Figure 10: per-transaction breakdown of processor cycles for the ustm
/// microbenchmarks (busy / other-stall / fence-stall), normalized to S+.
pub fn fig10(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    let section = "fig10_ustm_breakdown";
    runner.begin_section(section);
    sink.line("# Figure 10 — ustm per-transaction processor cycles (normalized to S+)");
    sink.blank();
    let (_, benches, designs, specs) = ustm_grid(opts);
    let results = run(runner, opts, section, &specs);

    let per_txn = |r: &RunResult| {
        let a = r.stats.aggregate();
        let active = a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles;
        active as f64 / r.commits.max(1) as f64
    };
    let header = vec![
        "bench",
        "design",
        "cycles/txn",
        "norm",
        "busy",
        "other-stall",
        "fence-stall",
    ];
    let (t, means) = normalized(header, &benches, &designs, &results, |base, r| {
        let txn = per_txn(r);
        let norm = txn / per_txn(base);
        (norm, [vec![f2(txn), f2(norm)], breakdown(r)].concat())
    });
    sink.table(section, &t);
    sink.line("## Averages");
    sink.line(format!(
        "S+ fence-stall share: {} (paper: ~54%)",
        splus_fence_share(&results, designs.len())
    ));
    sink.line("(paper: WS+ -24%, W+ -35%, Wee -11% cycles per transaction)");
    mean_lines(sink, &designs, &means, "cycles/transaction", "");
}

/// A ustm workload over a third of the standard window (Figure 12,
/// Table 4).
fn ustm_third(bench: UstmBench) -> Workload {
    Workload::Ustm {
        bench,
        window: USTM_WINDOW / 3,
    }
}

/// Figure 12: scalability of the fence-stall reduction — total
/// fence-stall time relative to S+ at 4..32 cores per workload group.
pub fn fig12(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    use FenceDesign::{SPlus, WPlus, Wee, WsPlus};
    let section = "fig12_scalability";
    runner.begin_section(section);
    let core_counts: &[usize] = if opts.quick { &[4, 8] } else { &[4, 8, 16, 32] };
    // S+ first: the baseline every ratio divides by.
    let designs: Vec<FenceDesign> = [SPlus, WsPlus, WPlus, Wee]
        .into_iter()
        .filter(|&d| opts.keep_design(d))
        .collect();
    sink.line("# Figure 12 — fence-stall time relative to S+ at 4..32 cores");
    sink.blank();
    sink.line("(representative workloads per group: fib+cholesky / Hash+Tree / intruder)");
    sink.blank();

    // One spec per (group workload, design, cores); every simulation in
    // the figure runs exactly once.
    let groups = [
        (
            "CilkApps",
            vec![
                Workload::Cilk(CilkApp::Fib),
                Workload::Cilk(CilkApp::Cholesky),
            ],
        ),
        (
            "ustm",
            vec![ustm_third(UstmBench::Hash), ustm_third(UstmBench::Tree)],
        ),
        ("STAMP", vec![Workload::Stamp(StampApp::Intruder)]),
    ];
    let groups: Vec<_> = groups
        .into_iter()
        .filter(|(name, _)| opts.keep(name))
        .collect();
    let mut specs = Vec::new();
    for (_, workloads) in &groups {
        for &design in &designs {
            for &cores in core_counts {
                specs.extend(
                    workloads
                        .iter()
                        .map(|&w| RunSpec::new(w, design, cores, SEED)),
                );
            }
        }
    }
    let results = run(runner, opts, section, &specs);

    let mut t = Table::new(vec!["group", "design", "cores", "stall-ratio"]);
    let mut rest = &results[..];
    for (group, workloads) in &groups {
        let (mine, tail) = rest.split_at(designs.len() * core_counts.len() * workloads.len());
        rest = tail;
        // The group's summed fence-stall cycles per (design, cores).
        let stall: Vec<f64> = mine
            .chunks(workloads.len())
            .map(|runs| {
                runs.iter()
                    .map(|r| r.stats.fence_stall_cycles() as f64)
                    .sum()
            })
            .collect();
        let (base, others) = stall.split_at(core_counts.len());
        for (design, row) in designs[1..].iter().zip(others.chunks(core_counts.len())) {
            for ((cores, s), d) in core_counts.iter().zip(base).zip(row) {
                t.row(vec![
                    group.to_string(),
                    design.label().to_string(),
                    cores.to_string(),
                    pct(d / s.max(1.0)),
                ]);
            }
        }
    }
    sink.table(section, &t);
    sink.line("(paper: ratios stay flat or grow only modestly from 4 to 32 cores)");
}

/// Table 4: characterization of the fence designs at 8 cores.
pub fn table4(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    use CilkApp::{Cholesky, Fib, Matmul};
    use StampApp::{Intruder, Ssca2, Vacation};
    use UstmBench::{Hash, List, Tree};
    let section = "table4_characterization";
    runner.begin_section(section);
    sink.line(format!(
        "# Table 4 — characterization of S+/WS+/W+/Wee at {CORES} cores"
    ));
    sink.blank();
    let designs = opts.design_list();

    let (cilk, ustm, stamp) = if opts.quick {
        (vec![Fib], vec![Hash], vec![Ssca2])
    } else {
        (
            vec![Fib, Cholesky, Matmul],
            vec![Hash, Tree, List],
            vec![Intruder, Vacation],
        )
    };
    let groups: Vec<(&str, Vec<Workload>)> = [
        ("CilkApps", cilk.into_iter().map(Workload::Cilk).collect()),
        ("ustm", ustm.into_iter().map(ustm_third).collect()),
        ("STAMP", stamp.into_iter().map(Workload::Stamp).collect()),
    ]
    .into_iter()
    .filter(|(name, _)| opts.keep(name))
    .collect();

    let mut specs = Vec::new();
    for (_, workloads) in &groups {
        for &design in &designs {
            specs.extend(
                workloads
                    .iter()
                    .map(|&w| RunSpec::new(w, design, CORES, SEED)),
            );
        }
    }
    let results = run(runner, opts, section, &specs);

    let mut t = Table::new(vec![
        "group",
        "design",
        "sf/1000i",
        "wf/1000i",
        "lines/BS",
        "wr-bounced/wf",
        "retries/wr",
        "%traffic",
        "recov/wf",
        "wee-demotions",
    ]);
    let mut rest = &results[..];
    for (group, workloads) in &groups {
        for &design in &designs {
            let (runs, tail) = rest.split_at(workloads.len());
            rest = tail;
            // Fold the group's runs into one aggregate with the
            // order-independent merge (MachineStats::merge).
            let mut r = runs[0].clone();
            for other in &runs[1..] {
                r.merge(other);
            }
            let a = r.stats.aggregate();
            let ki = a.instrs_retired.max(1) as f64 / 1000.0;
            let wf = a.wf_count.max(1) as f64;
            t.row(vec![
                group.to_string(),
                design.label().to_string(),
                f2(a.sf_count as f64 / ki),
                f2(a.wf_count as f64 / ki),
                f2(a.avg_bs_lines()),
                f2(a.writes_bounced as f64 / wf),
                f2(a.bounce_retries as f64 / a.writes_bounced.max(1) as f64),
                f2(r.stats.traffic.retry_increase_pct()),
                f2(a.recoveries as f64 / wf),
                a.wee_demotions.to_string(),
            ]);
        }
    }
    sink.table(section, &t);
    sink.line("(paper: ~1 sf/1000i for CilkApps and STAMP, ~5.7 for ustm under S+;");
    sink.line(" 3-5 lines per BS; low bounce counts; negligible traffic increase;");
    sink.line(" Wee demotes about half of ustm and a third of STAMP fences)");
}

/// Figures 1, 3 and 4 as a litmus matrix, each case verified with the
/// Shasha–Snir checker.
pub fn litmus_matrix(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    use FenceDesign::{SPlus, SwPlus, WPlus, Wee, WsPlus};
    use FenceRole::{Critical, NonCritical};
    let section = "litmus_matrix";
    runner.begin_section(section);
    sink.line("# Litmus matrix — figures 1d/1f/3a/3c/4b");
    sink.blank();

    let spec = |case, design| RunSpec::litmus(case, design, SEED);
    let false_share = LitmusCase::FalseSharingPair {
        roles: (Critical, Critical),
    };
    // (scenario, design label, spec) — rows in the figure's order.
    let unfenced = LitmusCase::StoreBuffering { fences: None };
    let mut rows = vec![("SB unfenced", "-", spec(unfenced, SPlus))];
    let cases: [(&str, LitmusCase, &[FenceDesign]); 4] = [
        (
            "SB fig1d",
            LitmusCase::StoreBuffering {
                fences: Some((Critical, NonCritical)),
            },
            &[SPlus, WsPlus, SwPlus, WPlus, Wee],
        ),
        (
            "3-thread fig3c",
            LitmusCase::ThreeThreadCycle {
                roles: [Critical, NonCritical, NonCritical],
            },
            &[WsPlus, SwPlus],
        ),
        (
            "3-thread all-wf",
            LitmusCase::ThreeThreadCycle {
                roles: [Critical; 3],
            },
            &[WPlus],
        ),
        ("false-share fig4b", false_share, &[WsPlus, SwPlus, WPlus]),
    ];
    for (scenario, case, designs) in cases {
        rows.extend(
            designs
                .iter()
                .map(|&d| (scenario, d.label(), spec(case, d))),
        );
    }
    rows.push((
        "fig3a unprotected",
        "wf-only",
        spec(false_share, FenceDesign::WfOnlyUnsafe),
    ));
    rows.retain(|(scenario, _, _)| opts.keep(scenario));
    let specs: Vec<RunSpec> = rows.iter().map(|(_, _, s)| *s).collect();
    let results = run(runner, opts, section, &specs);

    let mut t = Table::new(vec!["scenario", "design", "outcome", "SCV?"]);
    for ((scenario, design, _), r) in rows.iter().zip(&results) {
        t.row(vec![
            scenario.to_string(),
            design.to_string(),
            format!("{:?}", r.outcome),
            r.scv.to_string(),
        ]);
    }
    sink.table(section, &t);
    sink.line("(expected: unfenced SB shows an SCV; every protected design finishes with none;");
    sink.line(" the unprotected wf-only design deadlocks, as in Figure 3a)");
}

/// One ablation sweep: a table row per point, its cells read by `cells`
/// from the sweep's results and the point's index.
struct Sweep {
    /// The `--filter` key.
    key: &'static str,
    heading: &'static str,
    csv: &'static str,
    header: Vec<&'static str>,
    points: Vec<String>,
    specs: Vec<RunSpec>,
    cells: fn(&[RunResult], usize) -> Vec<String>,
}

/// Cycles of point `i`, raw and normalized to the sweep's leading base
/// run.
fn cycles_vs_base(rs: &[RunResult], i: usize) -> Vec<String> {
    let c = rs[i + 1].cycles;
    vec![c.to_string(), f2(c as f64 / rs[0].cycles as f64)]
}

/// Commits and W+ recoveries of point `i`.
fn commits_and_recoveries(rs: &[RunResult], i: usize) -> Vec<String> {
    let r = &rs[i];
    vec![
        r.commits.to_string(),
        r.stats.aggregate().recoveries.to_string(),
    ]
}

/// A sweep's row labels, one per point.
fn labels<T: ToString>(points: &[T]) -> Vec<String> {
    points.iter().map(T::to_string).collect()
}

/// Ablation sweeps beyond the paper (indexed in EXPERIMENTS.md). The
/// kept sweeps run as one batch; each renders its own slice of it.
pub fn ablations(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    use FenceDesign::{SPlus, SwPlus, WPlus, WsPlus};
    let section = "ablations";
    runner.begin_section(section);
    sink.line("# Ablations");
    sink.blank();
    let fib = |design, knobs| RunSpec::cilk(CilkApp::Fib, design, 8, SEED).with_knobs(knobs);
    let ustm = |bench, design| RunSpec::ustm(bench, design, 8, SEED, 400_000);
    let hash = |knobs| ustm(UstmBench::Hash, WPlus).with_knobs(knobs);
    let k = Knobs::default();

    let benches = [UstmBench::Hash, UstmBench::Tree, UstmBench::ReadNWrite1];
    let bs = [1usize, 2, 4, 8, 32];
    let retries = [4u64, 16, 64, 256];
    let timeouts = [25u64, 100, 200, 800, 3200];
    let widths = [1usize, 2, 4, 8];
    let hops = [1u64, 5, 10, 20];
    let sweeps = [
        Sweep {
            key: "ws-vs-sw",
            heading: "## A0: WS+ vs SW+ (paper §6: \"practically the same\" on two-fence groups)",
            csv: "ablation_ws_vs_sw",
            header: vec!["bench", "WS+ commits", "SW+ commits", "SW+/WS+"],
            points: labels(&benches.map(|b| b.name())),
            specs: benches
                .iter()
                .flat_map(|&b| [WsPlus, SwPlus].map(|d| ustm(b, d)))
                .collect(),
            cells: |rs, i| {
                let (ws, sw) = (rs[2 * i].commits, rs[2 * i + 1].commits);
                vec![
                    ws.to_string(),
                    sw.to_string(),
                    f2(sw as f64 / ws.max(1) as f64),
                ]
            },
        },
        Sweep {
            key: "bs-capacity",
            heading: "## A1: Bypass-Set capacity (WS+, fib) — overflow degrades wf to sf",
            csv: "ablation_bs_capacity",
            header: vec!["bs_entries", "cycles", "norm"],
            points: labels(&bs),
            specs: std::iter::once(None)
                .chain(bs.map(Some))
                .map(|n| fib(WsPlus, Knobs { bs_entries: n, ..k }))
                .collect(),
            cells: cycles_vs_base,
        },
        Sweep {
            key: "bounce-retry",
            heading: "## A2: bounce-retry backoff (W+, ustm Hash)",
            csv: "ablation_bounce_retry",
            header: vec!["retry_cycles", "commits", "recoveries"],
            points: labels(&retries),
            specs: retries
                .iter()
                .map(|&n| {
                    hash(Knobs {
                        bounce_retry_cycles: Some(n),
                        ..k
                    })
                })
                .collect(),
            cells: commits_and_recoveries,
        },
        Sweep {
            key: "w-timeout",
            heading: "## A3: W+ deadlock timeout (ustm Hash) — too short = spurious rollbacks",
            csv: "ablation_w_timeout",
            header: vec!["timeout", "commits", "recoveries"],
            points: labels(&timeouts),
            specs: timeouts
                .iter()
                .map(|&n| {
                    hash(Knobs {
                        w_timeout_cycles: Some(n),
                        ..k
                    })
                })
                .collect(),
            cells: commits_and_recoveries,
        },
        Sweep {
            key: "merge-width",
            heading:
                "## A6: store-merge width (motivation, paper §2.1) — TSO merges one store at a time",
            csv: "ablation_merge_width",
            header: vec!["merge_width", "S+ fib cycles", "norm"],
            points: labels(&widths),
            specs: std::iter::once(1)
                .chain(widths)
                .map(|n| {
                    fib(
                        SPlus,
                        Knobs {
                            wb_merge_width: Some(n),
                            ..k
                        },
                    )
                })
                .collect(),
            cells: cycles_vs_base,
        },
        Sweep {
            key: "hop-latency",
            heading: "## A4: mesh hop latency (S+ vs WS+, fib) — weak fences hide longer networks",
            csv: "ablation_hop_latency",
            header: vec!["hop_cycles", "S+ cycles", "WS+ cycles", "WS+/S+"],
            points: labels(&hops),
            specs: hops
                .iter()
                .flat_map(|&n| {
                    [SPlus, WsPlus].map(|d| {
                        fib(
                            d,
                            Knobs {
                                hop_cycles: Some(n),
                                ..k
                            },
                        )
                    })
                })
                .collect(),
            cells: |rs, i| {
                let (s, w) = (rs[2 * i].cycles, rs[2 * i + 1].cycles);
                vec![s.to_string(), w.to_string(), f2(w as f64 / s as f64)]
            },
        },
    ];

    let sweeps: Vec<Sweep> = sweeps.into_iter().filter(|s| opts.keep(s.key)).collect();
    let specs: Vec<RunSpec> = sweeps.iter().flat_map(|s| s.specs.clone()).collect();
    let results = run(runner, opts, section, &specs);
    let mut rest = &results[..];
    for sweep in sweeps {
        let (mine, tail) = rest.split_at(sweep.specs.len());
        rest = tail;
        let mut t = Table::new(sweep.header);
        for (i, point) in sweep.points.into_iter().enumerate() {
            let mut row = vec![point];
            row.extend((sweep.cells)(mine, i));
            t.row(row);
        }
        sink.line(sweep.heading);
        sink.table(sweep.csv, &t);
    }
}

/// Runs every experiment in sequence (the `all_experiments` binary),
/// in-process — each section internally fans out over the runner's
/// worker pool.
pub fn all(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    type Section = fn(&Runner, &Opts, &mut ReportSink);
    let sections: [(&str, Section); 8] = [
        ("litmus_matrix", litmus_matrix),
        ("fig08_cilk", fig08),
        ("fig09_ustm_throughput", fig09),
        ("fig10_ustm_breakdown", fig10),
        ("fig11_stamp", fig11),
        ("fig12_scalability", fig12),
        ("table4_characterization", table4),
        ("ablations", ablations),
    ];
    for (name, f) in sections {
        sink.blank();
        sink.line(format!("===== {name} ====="));
        sink.blank();
        // Suffix the trace path per section so they don't overwrite
        // each other (out.json -> out-fig08_cilk.json, ...).
        let section_opts = Opts {
            trace: opts
                .trace
                .as_deref()
                .map(|p| asymfence_common::trace::section_path(p, name)),
            ..opts.clone()
        };
        f(runner, &section_opts, sink);
    }
    sink.blank();
    sink.line("All experiments complete; CSVs in ./results/");
}
