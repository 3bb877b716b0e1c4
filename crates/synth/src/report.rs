//! The synthesized-vs-paper report and the `synth` binary's driver.
//!
//! One row per (workload, design): the paper's hand annotation (its
//! mask, oracle verdict and cycles) next to the best synthesized
//! assignment, with the cycle delta. Two findings are called out beneath
//! the table: any synthesized assignment strictly faster than the
//! paper's, and any paper annotation the oracle rejects. Output flows
//! through the bench [`ReportSink`], so the markdown and the
//! `results/synth_assignments.csv` bytes are identical at any `--jobs`.

use asymfence::prelude::{FenceDesign, MachineConfig, TraceSink};
use asymfence_bench::cli::{self, Opts};
use asymfence_bench::{ReportSink, Runner, Table};
use asymfence_common::assign::SearchStats;
use asymfence_common::cli::{self as scan, Args, Usage};
use asymfence_common::par::Shard;
use asymfence_explore::{ExploreConfig, Explorer};
use asymfence_workloads::sites::SiteBench;

use crate::search::{mask_label, SynthResult, Synthesizer};

/// Designs the synthesis report covers by default: the paper's four
/// safe asymmetric-capable points plus the S+ baseline. (`Wee` behaves
/// like W+ for admissibility; pass `--designs` to include it.)
pub const SYNTH_DESIGNS: [FenceDesign; 4] = [
    FenceDesign::SPlus,
    FenceDesign::WsPlus,
    FenceDesign::SwPlus,
    FenceDesign::WPlus,
];

/// Oracle seed budget: `--quick` trades sweep depth for wall time.
pub fn seed_budget(quick: bool) -> u64 {
    if quick {
        8
    } else {
        48
    }
}

/// What both search reports (`synth`, `analyze`) are built on: the
/// designs to search, the synthesizer, and the decision trace.
pub struct Search {
    /// `--designs`, else [`SYNTH_DESIGNS`].
    pub designs: Vec<FenceDesign>,
    /// The synthesizer: the oracle's seed budget for `--quick`, the
    /// runner as the scorer, the harness seed, and the DPOR oracle when
    /// exhaustive validation carries a reorder bound.
    pub synth: Synthesizer,
    /// The decision timeline, recorded when `--trace` asks for it.
    pub trace: Option<TraceSink>,
}

impl Search {
    /// Sets a report up; `masks` is the part of each mask space this
    /// process searches.
    pub fn new(runner: &Runner, opts: &Opts, exhaustive: Option<usize>, masks: Shard) -> Self {
        let explorer = Explorer::new(ExploreConfig {
            seeds: seed_budget(opts.quick),
            ..Default::default()
        });
        let synth =
            Synthesizer::new(explorer, runner.clone(), asymfence_bench::SEED).with_shard(masks);
        Search {
            designs: opts
                .designs
                .clone()
                .unwrap_or_else(|| SYNTH_DESIGNS.to_vec()),
            synth: match exhaustive {
                Some(bound) => synth.with_exhaustive(bound),
                None => synth,
            },
            trace: opts
                .trace
                .as_ref()
                .map(|_| TraceSink::new(FenceDesign::SPlus)),
        }
    }

    /// Closes a report: the `search: …` accounting line, then the
    /// decision trace written to `--trace`, announced on stderr as
    /// `what`'s trace. The error names the path and the OS error.
    pub fn finish(
        self,
        opts: &Opts,
        stats: &SearchStats,
        sink: &mut ReportSink,
        what: &str,
    ) -> Result<(), String> {
        sink.line(format!(
            "search: {} enumerated, {} pruned structurally, {} oracle-rejected, {} valid, \
             {} memo hits, {} simulator runs",
            stats.enumerated,
            stats.pruned,
            stats.oracle_rejected,
            stats.valid,
            stats.memo_hits,
            stats.runs
        ));
        if let (Some(path), Some(trace)) = (opts.trace.as_deref(), self.trace) {
            asymfence_common::trace::write_json(path, &trace.chrome_json())?;
            eprintln!(
                "== {what} trace -> {path} ({} decisions) ==",
                trace.recorded()
            );
        }
        Ok(())
    }
}

/// The result cells both reports show, given the site labels and the
/// paper's cycles: sites, groups (`{a b}` per group), the best
/// assignment, its cycles, the paper's cycles, and the best's delta to
/// them. `-` stands for what is missing.
pub fn result_cells(r: &SynthResult, labels: &[&str], paper_cycles: Option<u64>) -> [String; 6] {
    let groups = r
        .groups
        .iter()
        .map(|g| {
            let names: Vec<&str> = g.iter().map(|&i| labels[i]).collect();
            format!("{{{}}}", names.join(" "))
        })
        .collect::<Vec<_>>()
        .join(" ");
    let dash = || "-".to_string();
    [
        r.n_sites.to_string(),
        if groups.is_empty() { dash() } else { groups },
        r.best.map_or_else(dash, |b| mask_label(labels, b.mask)),
        r.best.map_or_else(dash, |b| b.cycles.to_string()),
        paper_cycles.map_or_else(dash, |c| c.to_string()),
        match (paper_cycles, r.best) {
            (Some(p), Some(b)) => format!("{:+}", b.cycles as i64 - p as i64),
            _ => dash(),
        },
    ]
}

/// Runs the full synthesis report into `sink`. With `exhaustive`
/// carrying a reorder bound, survivors are validated by the DPOR walk
/// instead of the perturbation sweep and every accepted assignment is a
/// proof of SC up to that bound. Returns the merged search statistics
/// (serial-equivalent, jobs-independent), or the error of a `--trace`
/// that cannot be written.
pub fn run(
    runner: &Runner,
    opts: &Opts,
    exhaustive: Option<usize>,
    sink: &mut ReportSink,
) -> Result<SearchStats, String> {
    runner.begin_section("synth");
    let benches: Vec<SiteBench> = SiteBench::ALL
        .into_iter()
        .filter(|b| opts.keep(b.name()))
        .collect();

    // The shard partitions the *mask* space across fleet processes; the
    // oracle explorer inside stays whole so each owned mask is still
    // validated over every seed.
    let mut search = Search::new(runner, opts, exhaustive, opts.shard);

    sink.line("## Synthesized fence assignments vs paper annotations");
    match exhaustive {
        Some(bound) => sink.line(format!(
            "(oracle: Shasha-Snir over bounded-exhaustive DPOR exploration at reorder bound {bound} \
             — accepted assignments are proofs up to the bound; scoring: simulated cycles at the \
             natural schedule)"
        )),
        None => sink.line(format!(
            "(oracle: Shasha-Snir over {} perturbation seeds; scoring: simulated cycles at the natural schedule)",
            search.synth.explorer.cfg.seeds
        )),
    }
    sink.blank();

    let mut table = Table::new(vec![
        "workload",
        "design",
        "sites",
        "groups",
        "paper",
        "paper ok",
        "paper cycles",
        "synthesized",
        "cycles",
        "delta",
    ]);
    let mut faster: Vec<String> = Vec::new();
    let mut rejected: Vec<String> = Vec::new();
    let mut stats = SearchStats::default();

    for &bench in &benches {
        let cfg = MachineConfig::builder().cores(bench.cores()).build();
        let sites = bench.sites(&cfg);
        let labels: Vec<&str> = sites.iter().map(|s| s.label).collect();
        for &design in &search.designs {
            let r = search
                .synth
                .synthesize(bench, design, search.trace.as_mut());
            let paper = r.paper.expect("hand benches carry a paper verdict");
            stats.merge(&r.stats);
            let [sites, groups, best_label, best_cycles, paper_cycles, delta] =
                result_cells(&r, &labels, paper.cycles);
            let paper_label = mask_label(&labels, paper.mask);
            if let (Some(p), Some(b)) = (paper.cycles, r.best) {
                if b.cycles < p {
                    faster.push(format!(
                        "{}/{}: {} finishes in {} cycles vs the paper's {} ({} saved)",
                        bench.name(),
                        design.label(),
                        best_label,
                        b.cycles,
                        p,
                        p - b.cycles
                    ));
                }
            }
            if !paper.valid {
                rejected.push(format!(
                    "{}/{}: paper annotation {} fails the oracle",
                    bench.name(),
                    design.label(),
                    paper_label
                ));
            }
            table.row(vec![
                bench.name().to_string(),
                design.label().to_string(),
                sites,
                groups,
                paper_label,
                if paper.valid {
                    "yes".into()
                } else {
                    "NO".into()
                },
                paper_cycles,
                best_label,
                best_cycles,
                delta,
            ]);
        }
    }

    sink.table("synth_assignments", &table);
    if !faster.is_empty() {
        sink.line("Synthesized assignments strictly faster than the paper's:");
        for f in &faster {
            sink.line(format!("  - {f}"));
        }
        sink.blank();
    }
    if !rejected.is_empty() {
        sink.line("Paper annotations REJECTED by the oracle:");
        for f in &rejected {
            sink.line(format!("  - {f}"));
        }
        sink.blank();
    }
    search.finish(opts, &stats, sink, "synthesis")?;
    Ok(stats)
}

/// Parses a search binary's command line: the shared bench flags plus
/// `--exhaustive` and `--bound N`. Returns the explicit worker count,
/// the options, and the reorder bound when exhaustive validation was
/// asked for (`--bound` implies it; the default bound is 1).
pub fn parse_args(args: Args) -> Result<(Option<usize>, Opts, Option<usize>), Usage> {
    let (mut exhaustive, mut bound) = (false, None);
    let (jobs, opts) = cli::parse_args(args, |flag, args| {
        match flag {
            "--exhaustive" => exhaustive = true,
            "--bound" => bound = Some(args.parse(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let exhaustive = (exhaustive || bound.is_some()).then(|| bound.unwrap_or(1));
    Ok((jobs, opts, exhaustive))
}

/// A search binary's `main` (`synth`, `analyze`): parse the command
/// line ([`parse_args`]; `accepted` names what the binary accepts,
/// "assignments" or "placements", in the usage text), run `report` to
/// stdout and `results/`, and write the `--metrics` snapshot if one was
/// asked for (exit 2 if the `--trace` or `--metrics` file cannot be
/// written). The scoring batches all flow through the runner, so the
/// collector sees every charged simulator run.
pub fn main(
    bin: &str,
    accepted: &str,
    report: fn(&Runner, &Opts, Option<usize>, &mut ReportSink) -> Result<SearchStats, String>,
) {
    let usage = format!(
        "{}\n\
         \x20 --exhaustive    validate with bounded-exhaustive DPOR exploration\n\
         \x20                 (accepted {accepted} become proofs up to the bound)\n\
         \x20 --bound N       reorder bound for --exhaustive (default: 1; implies it;\n\
         \x20                 bound 2 costs ~50k runs per candidate on large kernels)",
        cli::usage(bin)
    );
    let (jobs, opts, exhaustive) = scan::or_exit(parse_args(Args::from_env()), &usage);
    let runner = cli::runner(jobs, &opts);
    report(&runner, &opts, exhaustive, &mut ReportSink::stdout())
        .unwrap_or_else(|e| scan::fail(&e));
    asymfence_bench::metrics::write_if_requested(&runner, &opts).unwrap_or_else(|e| scan::fail(&e));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(filter: &str) -> Opts {
        Opts {
            quick: true,
            filter: Some(filter.to_string()),
            ..Default::default()
        }
    }

    fn parse(v: &[&str]) -> Result<(Option<usize>, Opts, Option<usize>), Usage> {
        parse_args(Args::new(v.iter().copied()))
    }

    #[test]
    fn search_flags_parse_beside_the_shared_ones() {
        let (jobs, opts, exhaustive) = parse(&[]).unwrap();
        assert_eq!((jobs, exhaustive), (None, None));
        assert!(opts.filter.is_none() && opts.metrics.is_none());
        assert_eq!(parse(&["--exhaustive"]).unwrap().2, Some(1));
        assert_eq!(parse(&["--bound", "2"]).unwrap().2, Some(2));
        let (jobs, opts, exhaustive) = parse(&[
            "--filter",
            "dcl",
            "--exhaustive",
            "--jobs",
            "2",
            "--bound",
            "3",
        ])
        .unwrap();
        assert_eq!((jobs, exhaustive), (Some(2), Some(3)));
        assert_eq!(opts.filter.as_deref(), Some("dcl"));
    }

    #[test]
    fn search_flags_reject_bad_values_and_unknown_flags() {
        assert!(matches!(parse(&["--bound"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--bound", "x"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--frobnicate"]), Err(Usage::Error(_))));
        assert_eq!(parse(&["--help"]).unwrap_err(), Usage::Help);
    }

    #[test]
    fn report_bytes_are_identical_at_any_job_count() {
        let opts = quick_opts("sb");
        let mut a = ReportSink::capture();
        let mut b = ReportSink::capture();
        let sa = run(&Runner::with_jobs(1).progress(false), &opts, None, &mut a).unwrap();
        let sb = run(&Runner::with_jobs(2).progress(false), &opts, None, &mut b).unwrap();
        assert_eq!(a.captured(), b.captured());
        assert_eq!(a.csv("synth_assignments"), b.csv("synth_assignments"));
        assert_eq!(sa, sb, "charged stats must be jobs-independent");
    }

    #[test]
    fn an_unwritable_trace_path_is_an_error() {
        let dir = std::env::temp_dir().join(format!("asf-no-synth-dir-{}", std::process::id()));
        let path = dir.join("t.json").to_str().unwrap().to_string();
        let opts = Opts {
            trace: Some(path.clone()),
            ..quick_opts("sb")
        };
        let search = Search::new(&Runner::with_jobs(1), &opts, None, Shard::whole());
        let mut sink = ReportSink::capture();
        let err = search
            .finish(&opts, &SearchStats::default(), &mut sink, "synthesis")
            .unwrap_err();
        assert!(err.contains(&path), "{err}");
        assert!(sink.captured().starts_with("search: 0 enumerated"));
    }

    #[test]
    fn report_covers_paper_and_synthesized_columns() {
        let opts = quick_opts("wsq");
        let mut sink = ReportSink::capture();
        run(
            &Runner::with_jobs(2).progress(false),
            &opts,
            None,
            &mut sink,
        )
        .unwrap();
        let csv = sink.csv("synth_assignments").unwrap();
        assert!(csv.contains("wsq,S+"));
        assert!(csv.contains("wsq,WS+"));
        assert!(csv.contains("{owner.take thief.steal}"), "{csv}");
    }
}
