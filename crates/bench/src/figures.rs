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
use asymfence_workloads::cilk::CilkApp;
use asymfence_workloads::stamp::StampApp;
use asymfence_workloads::ustm::UstmBench;

use crate::cli::Opts;
use crate::report::{f2, mean, pct, ReportSink, Table};
use crate::runner::{Knobs, LitmusCase, RunSpec, Runner, Workload};
use crate::{RunResult, SEED, USTM_WINDOW};

/// Figure 8: execution time of CilkApps, normalized to S+, broken down
/// into busy / other-stall / fence-stall time.
pub fn fig08(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("fig08_cilk");
    let cores = 8;
    sink.line(format!(
        "# Figure 8 — CilkApps execution time (normalized to S+), {cores} cores"
    ));
    sink.blank();
    let apps: Vec<CilkApp> = if opts.quick {
        vec![CilkApp::Fib, CilkApp::Bucket, CilkApp::Matmul]
    } else {
        CilkApp::ALL.to_vec()
    };
    let apps: Vec<CilkApp> = apps.into_iter().filter(|a| opts.keep(a.name())).collect();
    let designs = opts.design_list();

    let specs: Vec<RunSpec> = apps
        .iter()
        .flat_map(|&app| {
            designs
                .iter()
                .map(move |&d| RunSpec::cilk(app, d, cores, SEED))
        })
        .collect();
    let results = runner.run(&specs);
    crate::trace::maybe_emit("fig08_cilk", &specs, opts);

    let mut t = Table::new(vec![
        "app",
        "design",
        "cycles",
        "norm-time",
        "busy",
        "other-stall",
        "fence-stall",
    ]);
    let mut per_design_norm: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut splus_fence_share = Vec::new();
    for (ai, &app) in apps.iter().enumerate() {
        let base = &results[ai * designs.len()]; // S+ is always designs[0]
        splus_fence_share.push(base.breakdown().1);
        for (di, &design) in designs.iter().enumerate() {
            let r = &results[ai * designs.len() + di];
            let norm = r.cycles as f64 / base.cycles as f64;
            per_design_norm[di].push(norm);
            let (busy, fence, other) = r.breakdown();
            t.row(vec![
                app.name().to_string(),
                design.label().to_string(),
                r.cycles.to_string(),
                f2(norm),
                pct(busy),
                pct(other),
                pct(fence),
            ]);
        }
    }
    sink.table("fig08_cilk", &t);
    sink.line("## Averages");
    sink.line(format!(
        "S+ fence-stall share of core time: {} (paper: ~13%)",
        pct(mean(&splus_fence_share))
    ));
    for (di, &design) in designs.iter().enumerate() {
        sink.line(format!(
            "{:>4}: mean normalized execution time {} (paper: S+ 1.00, WS+/W+/Wee ~0.91)",
            design.label(),
            f2(mean(&per_design_norm[di]))
        ));
    }
}

/// Figure 9: transactional throughput of the ustm microbenchmarks,
/// normalized to S+ (higher is better).
pub fn fig09(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("fig09_ustm_throughput");
    let cores = 8;
    let window = if opts.quick {
        USTM_WINDOW / 4
    } else {
        USTM_WINDOW
    };
    sink.line(format!(
        "# Figure 9 — ustm transactional throughput (normalized to S+), {cores} cores, {window}-cycle window"
    ));
    sink.blank();
    let benches: Vec<UstmBench> = if opts.quick {
        vec![UstmBench::Counter, UstmBench::Hash, UstmBench::Tree]
    } else {
        UstmBench::ALL.to_vec()
    };
    let benches: Vec<UstmBench> = benches
        .into_iter()
        .filter(|b| opts.keep(b.name()))
        .collect();
    let designs = opts.design_list();

    let specs: Vec<RunSpec> = benches
        .iter()
        .flat_map(|&b| {
            designs
                .iter()
                .map(move |&d| RunSpec::ustm(b, d, cores, SEED, window))
        })
        .collect();
    let results = runner.run(&specs);
    crate::trace::maybe_emit("fig09_ustm_throughput", &specs, opts);

    let mut t = Table::new(vec![
        "bench",
        "design",
        "commits",
        "aborts",
        "norm-throughput",
    ]);
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    for (bi, &bench) in benches.iter().enumerate() {
        let base = &results[bi * designs.len()];
        for (di, &design) in designs.iter().enumerate() {
            let r = &results[bi * designs.len() + di];
            let norm = r.commits as f64 / base.commits.max(1) as f64;
            per_design[di].push(norm);
            t.row(vec![
                bench.name().to_string(),
                design.label().to_string(),
                r.commits.to_string(),
                r.aborts.to_string(),
                f2(norm),
            ]);
        }
    }
    sink.table("fig09_ustm_throughput", &t);
    sink.line("## Averages (paper: WS+ +38%, W+ +58%, Wee +14% over S+)");
    for (di, &design) in designs.iter().enumerate() {
        sink.line(format!(
            "{:>4}: mean normalized throughput {}",
            design.label(),
            f2(mean(&per_design[di]))
        ));
    }
}

/// Figure 10: per-transaction breakdown of processor cycles for the ustm
/// microbenchmarks (busy / other-stall / fence-stall), normalized to S+.
pub fn fig10(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("fig10_ustm_breakdown");
    let cores = 8;
    let window = if opts.quick {
        USTM_WINDOW / 4
    } else {
        USTM_WINDOW
    };
    sink.line("# Figure 10 — ustm per-transaction processor cycles (normalized to S+)");
    sink.blank();
    let benches: Vec<UstmBench> = if opts.quick {
        vec![UstmBench::Counter, UstmBench::Hash, UstmBench::Tree]
    } else {
        UstmBench::ALL.to_vec()
    };
    let benches: Vec<UstmBench> = benches
        .into_iter()
        .filter(|b| opts.keep(b.name()))
        .collect();
    let designs = opts.design_list();

    let specs: Vec<RunSpec> = benches
        .iter()
        .flat_map(|&b| {
            designs
                .iter()
                .map(move |&d| RunSpec::ustm(b, d, cores, SEED, window))
        })
        .collect();
    let results = runner.run(&specs);
    crate::trace::maybe_emit("fig10_ustm_breakdown", &specs, opts);

    let per_txn = |r: &RunResult| {
        let a = r.stats.aggregate();
        let active = a.busy_cycles + a.fence_stall_cycles + a.other_stall_cycles;
        active as f64 / r.commits.max(1) as f64
    };
    let mut t = Table::new(vec![
        "bench",
        "design",
        "cycles/txn",
        "norm",
        "busy",
        "other-stall",
        "fence-stall",
    ]);
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut splus_fence_share = Vec::new();
    for (bi, &bench) in benches.iter().enumerate() {
        let base = &results[bi * designs.len()];
        let base_txn = per_txn(base);
        splus_fence_share.push(base.breakdown().1);
        for (di, &design) in designs.iter().enumerate() {
            let r = &results[bi * designs.len() + di];
            let txn = per_txn(r);
            let norm = txn / base_txn;
            per_design[di].push(norm);
            let (busy, fence, other) = r.breakdown();
            t.row(vec![
                bench.name().to_string(),
                design.label().to_string(),
                f2(txn),
                f2(norm),
                pct(busy),
                pct(other),
                pct(fence),
            ]);
        }
    }
    sink.table("fig10_ustm_breakdown", &t);
    sink.line("## Averages");
    sink.line(format!(
        "S+ fence-stall share: {} (paper: ~54%)",
        pct(mean(&splus_fence_share))
    ));
    sink.line("(paper: WS+ -24%, W+ -35%, Wee -11% cycles per transaction)");
    for (di, &design) in designs.iter().enumerate() {
        sink.line(format!(
            "{:>4}: mean normalized cycles/transaction {}",
            design.label(),
            f2(mean(&per_design[di]))
        ));
    }
}

/// Figure 11: STAMP execution time, normalized to S+, with the cycle
/// breakdown.
pub fn fig11(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("fig11_stamp");
    let cores = 8;
    sink.line(format!(
        "# Figure 11 — STAMP execution time (normalized to S+), {cores} cores"
    ));
    sink.blank();
    let apps: Vec<StampApp> = if opts.quick {
        vec![StampApp::Intruder, StampApp::Ssca2]
    } else {
        StampApp::ALL.to_vec()
    };
    let apps: Vec<StampApp> = apps.into_iter().filter(|a| opts.keep(a.name())).collect();
    let designs = opts.design_list();

    let specs: Vec<RunSpec> = apps
        .iter()
        .flat_map(|&a| {
            designs
                .iter()
                .map(move |&d| RunSpec::stamp(a, d, cores, SEED))
        })
        .collect();
    let results = runner.run(&specs);
    crate::trace::maybe_emit("fig11_stamp", &specs, opts);

    let mut t = Table::new(vec![
        "app",
        "design",
        "cycles",
        "norm-time",
        "busy",
        "other-stall",
        "fence-stall",
    ]);
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len()];
    let mut splus_fence_share = Vec::new();
    for (ai, &app) in apps.iter().enumerate() {
        let base = &results[ai * designs.len()];
        splus_fence_share.push(base.breakdown().1);
        for (di, &design) in designs.iter().enumerate() {
            let r = &results[ai * designs.len() + di];
            let norm = r.cycles as f64 / base.cycles as f64;
            per_design[di].push(norm);
            let (busy, fence, other) = r.breakdown();
            t.row(vec![
                app.name().to_string(),
                design.label().to_string(),
                r.cycles.to_string(),
                f2(norm),
                pct(busy),
                pct(other),
                pct(fence),
            ]);
        }
    }
    sink.table("fig11_stamp", &t);
    sink.line("## Averages (paper: WS+ -7%, W+ -19%, Wee -11%; S+ fence stall ~13%)");
    sink.line(format!(
        "S+ fence-stall share: {}",
        pct(mean(&splus_fence_share))
    ));
    for (di, &design) in designs.iter().enumerate() {
        sink.line(format!(
            "{:>4}: mean normalized execution time {}",
            design.label(),
            f2(mean(&per_design[di]))
        ));
    }
}

/// Figure 12: scalability of the fence-stall reduction — total
/// fence-stall time relative to S+ at 4..32 cores per workload group.
pub fn fig12(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("fig12_scalability");
    let core_counts: Vec<usize> = if opts.quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 32]
    };
    let designs: Vec<FenceDesign> = [FenceDesign::WsPlus, FenceDesign::WPlus, FenceDesign::Wee]
        .into_iter()
        .filter(|&d| opts.keep_design(d))
        .collect();
    sink.line("# Figure 12 — fence-stall time relative to S+ at 4..32 cores");
    sink.blank();
    sink.line("(representative workloads per group: fib+cholesky / Hash+Tree / intruder)");
    sink.blank();

    // One spec per (group-workload, design incl. the S+ baseline, cores);
    // every simulation in the figure runs exactly once.
    let groups: Vec<(&str, Vec<Workload>)> = vec![
        (
            "CilkApps",
            vec![
                Workload::Cilk(CilkApp::Fib),
                Workload::Cilk(CilkApp::Cholesky),
            ],
        ),
        (
            "ustm",
            vec![
                Workload::Ustm {
                    bench: UstmBench::Hash,
                    window: USTM_WINDOW / 3,
                },
                Workload::Ustm {
                    bench: UstmBench::Tree,
                    window: USTM_WINDOW / 3,
                },
            ],
        ),
        ("STAMP", vec![Workload::Stamp(StampApp::Intruder)]),
    ];
    let groups: Vec<_> = groups
        .into_iter()
        .filter(|(name, _)| opts.keep(name))
        .collect();

    let mut all_designs = vec![FenceDesign::SPlus];
    all_designs.extend(&designs);
    let mut specs = Vec::new();
    for (_, workloads) in &groups {
        for &design in &all_designs {
            for &cores in &core_counts {
                for &w in workloads {
                    specs.push(RunSpec {
                        workload: w,
                        design,
                        cores,
                        seed: SEED,
                        knobs: Knobs::default(),
                        assignment: None,
                    });
                }
            }
        }
    }
    let results = runner.run(&specs);
    crate::trace::maybe_emit("fig12_scalability", &specs, opts);

    // Sum of fence-stall cycles for one (group, design, cores) cell.
    let mut idx = 0;
    let mut stall = std::collections::HashMap::new();
    for (gi, (_, workloads)) in groups.iter().enumerate() {
        for &design in &all_designs {
            for &cores in &core_counts {
                let mut sum = 0.0;
                for _ in workloads {
                    sum += results[idx].stats.fence_stall_cycles() as f64;
                    idx += 1;
                }
                stall.insert((gi, design, cores), sum);
            }
        }
    }

    let mut t = Table::new(vec!["group", "design", "cores", "stall-ratio"]);
    for (gi, (group, _)) in groups.iter().enumerate() {
        for &design in &designs {
            for &cores in &core_counts {
                let s = stall[&(gi, FenceDesign::SPlus, cores)];
                let d = stall[&(gi, design, cores)];
                t.row(vec![
                    group.to_string(),
                    design.label().to_string(),
                    cores.to_string(),
                    pct(d / s.max(1.0)),
                ]);
            }
        }
    }
    t_emit_scalability(sink, &t);
}

fn t_emit_scalability(sink: &mut ReportSink, t: &Table) {
    sink.table("fig12_scalability", t);
    sink.line("(paper: ratios stay flat or grow only modestly from 4 to 32 cores)");
}

/// Table 4: characterization of the fence designs at 8 cores.
pub fn table4(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("table4_characterization");
    let cores = 8;
    sink.line(format!(
        "# Table 4 — characterization of S+/WS+/W+/Wee at {cores} cores"
    ));
    sink.blank();
    let designs = opts.design_list();

    let cilk: Vec<Workload> = if opts.quick {
        vec![Workload::Cilk(CilkApp::Fib)]
    } else {
        vec![
            Workload::Cilk(CilkApp::Fib),
            Workload::Cilk(CilkApp::Cholesky),
            Workload::Cilk(CilkApp::Matmul),
        ]
    };
    let ustm: Vec<Workload> = if opts.quick {
        vec![Workload::Ustm {
            bench: UstmBench::Hash,
            window: USTM_WINDOW / 3,
        }]
    } else {
        vec![
            Workload::Ustm {
                bench: UstmBench::Hash,
                window: USTM_WINDOW / 3,
            },
            Workload::Ustm {
                bench: UstmBench::Tree,
                window: USTM_WINDOW / 3,
            },
            Workload::Ustm {
                bench: UstmBench::List,
                window: USTM_WINDOW / 3,
            },
        ]
    };
    let stamp: Vec<Workload> = if opts.quick {
        vec![Workload::Stamp(StampApp::Ssca2)]
    } else {
        vec![
            Workload::Stamp(StampApp::Intruder),
            Workload::Stamp(StampApp::Vacation),
        ]
    };
    let groups: Vec<(&str, Vec<Workload>)> = [("CilkApps", cilk), ("ustm", ustm), ("STAMP", stamp)]
        .into_iter()
        .filter(|(name, _)| opts.keep(name))
        .collect();

    let mut specs = Vec::new();
    for (_, workloads) in &groups {
        for &design in &designs {
            for &w in workloads {
                specs.push(RunSpec {
                    workload: w,
                    design,
                    cores,
                    seed: SEED,
                    knobs: Knobs::default(),
                    assignment: None,
                });
            }
        }
    }
    let results = runner.run(&specs);
    crate::trace::maybe_emit("table4_characterization", &specs, opts);

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
    let mut idx = 0;
    for (group, workloads) in &groups {
        for &design in &designs {
            // Fold the group's runs into one aggregate with the
            // order-independent merge (MachineStats::merge).
            let mut merged: Option<RunResult> = None;
            for _ in workloads {
                let r = &results[idx];
                idx += 1;
                match &mut merged {
                    None => merged = Some(r.clone()),
                    Some(acc) => acc.merge(r),
                }
            }
            let r = merged.expect("groups are nonempty");
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
    sink.table("table4_characterization", &t);
    sink.line("(paper: ~1 sf/1000i for CilkApps and STAMP, ~5.7 for ustm under S+;");
    sink.line(" 3-5 lines per BS; low bounce counts; negligible traffic increase;");
    sink.line(" Wee demotes about half of ustm and a third of STAMP fences)");
}

/// Figures 1, 3 and 4 as a litmus matrix, each case verified with the
/// Shasha–Snir checker.
pub fn litmus_matrix(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("litmus_matrix");
    use FenceRole::{Critical, NonCritical};
    sink.line("# Litmus matrix — figures 1d/1f/3a/3c/4b");
    sink.blank();
    let all = [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
        FenceDesign::Wee,
    ];

    // (scenario label, design label, spec) — rows in the figure's order.
    let mut rows: Vec<(String, String, RunSpec)> = Vec::new();
    let sb_unfenced = LitmusCase::StoreBuffering { fences: None };
    rows.push((
        "SB unfenced".into(),
        "-".into(),
        RunSpec::litmus(sb_unfenced, FenceDesign::SPlus, SEED),
    ));
    let sb_fenced = LitmusCase::StoreBuffering {
        fences: Some((Critical, NonCritical)),
    };
    for d in all {
        rows.push((
            "SB fig1d".into(),
            d.label().into(),
            RunSpec::litmus(sb_fenced, d, SEED),
        ));
    }
    let three = LitmusCase::ThreeThreadCycle {
        roles: [Critical, NonCritical, NonCritical],
    };
    for d in [FenceDesign::WsPlus, FenceDesign::SwPlus] {
        rows.push((
            "3-thread fig3c".into(),
            d.label().into(),
            RunSpec::litmus(three, d, SEED),
        ));
    }
    let all_wf = LitmusCase::ThreeThreadCycle {
        roles: [Critical; 3],
    };
    rows.push((
        "3-thread all-wf".into(),
        "W+".into(),
        RunSpec::litmus(all_wf, FenceDesign::WPlus, SEED),
    ));
    let false_share = LitmusCase::FalseSharingPair {
        roles: (Critical, Critical),
    };
    for d in [FenceDesign::WsPlus, FenceDesign::SwPlus, FenceDesign::WPlus] {
        rows.push((
            "false-share fig4b".into(),
            d.label().into(),
            RunSpec::litmus(false_share, d, SEED),
        ));
    }
    rows.push((
        "fig3a unprotected".into(),
        "wf-only".into(),
        RunSpec::litmus(false_share, FenceDesign::WfOnlyUnsafe, SEED),
    ));

    let rows: Vec<_> = rows
        .into_iter()
        .filter(|(scenario, _, _)| opts.keep(scenario))
        .collect();
    let specs: Vec<RunSpec> = rows.iter().map(|(_, _, s)| *s).collect();
    let results = runner.run(&specs);
    crate::trace::maybe_emit("litmus_matrix", &specs, opts);

    let mut t = Table::new(vec!["scenario", "design", "outcome", "SCV?"]);
    for ((scenario, design, _), r) in rows.iter().zip(&results) {
        t.row(vec![
            scenario.clone(),
            design.clone(),
            format!("{:?}", r.outcome),
            r.scv.to_string(),
        ]);
    }
    sink.table("litmus_matrix", &t);
    sink.line("(expected: unfenced SB shows an SCV; every protected design finishes with none;");
    sink.line(" the unprotected wf-only design deadlocks, as in Figure 3a)");
}

/// Ablation sweeps beyond the paper (indexed in EXPERIMENTS.md).
pub fn ablations(runner: &Runner, opts: &Opts, sink: &mut ReportSink) {
    runner.begin_section("ablations");
    sink.line("# Ablations");
    sink.blank();
    // Union of every sweep's specs, so `--trace` picks representatives
    // from what actually ran.
    let mut traced: Vec<RunSpec> = Vec::new();
    let fib = |knobs: Knobs, design: FenceDesign| {
        RunSpec::cilk(CilkApp::Fib, design, 8, SEED).with_knobs(knobs)
    };
    let hash = |knobs: Knobs, design: FenceDesign| {
        RunSpec::ustm(UstmBench::Hash, design, 8, SEED, 400_000).with_knobs(knobs)
    };

    if opts.keep("ws-vs-sw") {
        sink.line("## A0: WS+ vs SW+ (paper §6: \"practically the same\" on two-fence groups)");
        let benches = [UstmBench::Hash, UstmBench::Tree, UstmBench::ReadNWrite1];
        let specs: Vec<RunSpec> = benches
            .iter()
            .flat_map(|&b| {
                [FenceDesign::WsPlus, FenceDesign::SwPlus]
                    .into_iter()
                    .map(move |d| RunSpec::ustm(b, d, 8, SEED, 400_000))
            })
            .collect();
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let mut t = Table::new(vec!["bench", "WS+ commits", "SW+ commits", "SW+/WS+"]);
        for (bi, bench) in benches.iter().enumerate() {
            let ws = results[bi * 2].commits;
            let sw = results[bi * 2 + 1].commits;
            t.row(vec![
                bench.name().to_string(),
                ws.to_string(),
                sw.to_string(),
                f2(sw as f64 / ws.max(1) as f64),
            ]);
        }
        sink.table("ablation_ws_vs_sw", &t);
    }

    if opts.keep("bs-capacity") {
        sink.line("## A1: Bypass-Set capacity (WS+, fib) — overflow degrades wf to sf");
        let points = [1usize, 2, 4, 8, 32];
        let mut specs = vec![fib(Knobs::default(), FenceDesign::WsPlus)];
        specs.extend(points.iter().map(|&bs| {
            fib(
                Knobs {
                    bs_entries: Some(bs),
                    ..Default::default()
                },
                FenceDesign::WsPlus,
            )
        }));
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let base = results[0].cycles;
        let mut t = Table::new(vec!["bs_entries", "cycles", "norm"]);
        for (i, &bs) in points.iter().enumerate() {
            let c = results[i + 1].cycles;
            t.row(vec![
                bs.to_string(),
                c.to_string(),
                f2(c as f64 / base as f64),
            ]);
        }
        sink.table("ablation_bs_capacity", &t);
    }

    if opts.keep("bounce-retry") {
        sink.line("## A2: bounce-retry backoff (W+, ustm Hash)");
        let points = [4u64, 16, 64, 256];
        let specs: Vec<RunSpec> = points
            .iter()
            .map(|&retry| {
                hash(
                    Knobs {
                        bounce_retry_cycles: Some(retry),
                        ..Default::default()
                    },
                    FenceDesign::WPlus,
                )
            })
            .collect();
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let mut t = Table::new(vec!["retry_cycles", "commits", "recoveries"]);
        for (&retry, r) in points.iter().zip(&results) {
            t.row(vec![
                retry.to_string(),
                r.commits.to_string(),
                r.stats.aggregate().recoveries.to_string(),
            ]);
        }
        sink.table("ablation_bounce_retry", &t);
    }

    if opts.keep("w-timeout") {
        sink.line("## A3: W+ deadlock timeout (ustm Hash) — too short = spurious rollbacks");
        let points = [25u64, 100, 200, 800, 3200];
        let specs: Vec<RunSpec> = points
            .iter()
            .map(|&timeout| {
                hash(
                    Knobs {
                        w_timeout_cycles: Some(timeout),
                        ..Default::default()
                    },
                    FenceDesign::WPlus,
                )
            })
            .collect();
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let mut t = Table::new(vec!["timeout", "commits", "recoveries"]);
        for (&timeout, r) in points.iter().zip(&results) {
            t.row(vec![
                timeout.to_string(),
                r.commits.to_string(),
                r.stats.aggregate().recoveries.to_string(),
            ]);
        }
        sink.table("ablation_w_timeout", &t);
    }

    if opts.keep("merge-width") {
        sink.line(
            "## A6: store-merge width (motivation, paper §2.1) — TSO merges one store at a time",
        );
        let points = [1usize, 2, 4, 8];
        let mut specs = vec![fib(
            Knobs {
                wb_merge_width: Some(1),
                ..Default::default()
            },
            FenceDesign::SPlus,
        )];
        specs.extend(points.iter().map(|&w| {
            fib(
                Knobs {
                    wb_merge_width: Some(w),
                    ..Default::default()
                },
                FenceDesign::SPlus,
            )
        }));
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let base = results[0].cycles;
        let mut t = Table::new(vec!["merge_width", "S+ fib cycles", "norm"]);
        for (i, &w) in points.iter().enumerate() {
            let c = results[i + 1].cycles;
            t.row(vec![
                w.to_string(),
                c.to_string(),
                f2(c as f64 / base as f64),
            ]);
        }
        sink.table("ablation_merge_width", &t);
    }

    if opts.keep("hop-latency") {
        sink.line("## A4: mesh hop latency (S+ vs WS+, fib) — weak fences hide longer networks");
        let points = [1u64, 5, 10, 20];
        let specs: Vec<RunSpec> = points
            .iter()
            .flat_map(|&hop| {
                [FenceDesign::SPlus, FenceDesign::WsPlus]
                    .into_iter()
                    .map(move |d| {
                        RunSpec::cilk(CilkApp::Fib, d, 8, SEED).with_knobs(Knobs {
                            hop_cycles: Some(hop),
                            ..Default::default()
                        })
                    })
            })
            .collect();
        let results = runner.run(&specs);
        traced.extend_from_slice(&specs);
        let mut t = Table::new(vec!["hop_cycles", "S+ cycles", "WS+ cycles", "WS+/S+"]);
        for (i, &hop) in points.iter().enumerate() {
            let s = results[i * 2].cycles;
            let w = results[i * 2 + 1].cycles;
            t.row(vec![
                hop.to_string(),
                s.to_string(),
                w.to_string(),
                f2(w as f64 / s as f64),
            ]);
        }
        sink.table("ablation_hop_latency", &t);
    }
    crate::trace::maybe_emit("ablations", &traced, opts);
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
                .map(|p| crate::trace::section_path(p, name)),
            ..opts.clone()
        };
        f(runner, &section_opts, sink);
    }
    sink.blank();
    sink.line("All experiments complete; CSVs in ./results/");
}
