//! Command-line front end for the schedule explorer.
//!
//! ```text
//! explore --scenario sb-unfenced --design all --seeds 256
//! explore --scenario sb-padded --design S+            # watch the shrinker work
//! explore --scenario sb-fenced --design W+ --seed 17  # replay one seed
//! ```

use std::process::ExitCode;

use asymfence::prelude::{FenceDesign, TraceSink};
use asymfence_common::cli::{self as scan, Args, Usage};
use asymfence_common::telemetry::{self, BenchSnapshot, MetricEntry, Stopwatch};
use asymfence_explore::{DporConfig, ExploreConfig, Explorer, Scenario, ALL_DESIGNS};

fn parse_design(s: &str) -> Option<Vec<FenceDesign>> {
    match s {
        "all" => Some(ALL_DESIGNS.to_vec()),
        "unsafe" => Some(vec![FenceDesign::WfOnlyUnsafe]),
        label => FenceDesign::from_label(label).map(|d| vec![d]),
    }
}

/// Scenarios by CLI name. `sb-allweak` keeps its all-Critical roles
/// (the point of the case); every other scenario is re-tagged per
/// design via [`Scenario::with_roles_for`]. `corpus` expands to the
/// whole litmus corpus.
fn parse_scenario(s: &str) -> Option<Vec<Scenario>> {
    Some(match s {
        "sb-unfenced" => vec![Scenario::store_buffering(false)],
        "sb-fenced" => vec![Scenario::store_buffering(true)],
        "sb-padded" => vec![Scenario::store_buffering_padded()],
        "sb-allweak" => vec![Scenario::store_buffering_all_weak()],
        "sb-half-fenced" => vec![Scenario::store_buffering_half_fenced()],
        "sb-double-fenced" => vec![Scenario::store_buffering_double_fenced()],
        "mp-unfenced" => vec![Scenario::message_passing(false)],
        "mp-fenced" => vec![Scenario::message_passing(true)],
        "lb" => vec![Scenario::load_buffering()],
        "iriw" => vec![Scenario::iriw()],
        "3cycle" => vec![Scenario::three_thread_cycle()],
        "corpus" => Scenario::litmus_corpus()
            .into_iter()
            .map(|(sc, _)| sc)
            .collect(),
        _ => return None,
    })
}

const USAGE: &str = "usage: explore --scenario <name|corpus> \
  --design <S+|WS+|SW+|W+|Wee|unsafe|all> [--seeds N] [--seed N] [--jobs N] [--trace PATH]\n\
  scenarios: sb-unfenced sb-fenced sb-padded sb-allweak sb-half-fenced\n\
             sb-double-fenced mp-unfenced mp-fenced lb iriw 3cycle corpus\n\
  --seeds N   sweep seed indices 0..N (default 256; seed 0 = natural schedule)\n\
  --seed N    replay exactly one seed instead of sweeping\n\
  --exhaustive  enumerate schedules (DPOR) instead of sampling seeds; a\n\
              clean, complete walk proves SC up to the bound\n\
  --bound N   reorder bound for --exhaustive: max delayed choices per\n\
              schedule (default 2)\n\
  --quick     with --exhaustive, drop the bound to 1 (smoke/CI scale)\n\
  --jobs N    sweep worker threads (default: ASF_JOBS, then all cores);\n\
              reports are identical at any worker count\n\
  --trace PATH  on a violation, write the failing run's fence trace as\n\
              Perfetto-loadable JSON (suffixed per design)\n\
  --metrics PATH  write a harness-telemetry snapshot (JSON, one entry per\n\
              design sweep) to PATH; compare snapshots with `perfdiff`\n\
  ASF_SHARDS/ASF_SHARD_ID in the environment partition the seed sweep\n\
              round-robin across fleet processes (set both or neither;\n\
              unset: whole sweep)";

/// Writes a failing run's trace next to `path`, suffixed with the
/// design so `--design all` runs don't overwrite each other, and says
/// where it went.
fn write_trace(path: &str, design: FenceDesign, trace: Option<&TraceSink>) {
    let Some(sink) = trace else {
        eprintln!("minimized run left no trace (did not re-fail)");
        return;
    };
    let p = match path.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{design:?}.{ext}"),
        _ => format!("{path}-{design:?}"),
    };
    match std::fs::write(&p, sink.chrome_json()) {
        Ok(()) => println!("fence trace written to {p}"),
        Err(e) => eprintln!("cannot write trace to {path}: {e}"),
    }
}

/// A parsed `explore` command line.
#[derive(Debug, Default)]
struct Cli {
    scenarios: Vec<Scenario>,
    /// `--scenario` as given: a single scenario's metric workload name.
    scenario_arg: String,
    designs: Vec<FenceDesign>,
    cfg: ExploreConfig,
    single_seed: Option<u64>,
    jobs: usize,
    trace: Option<String>,
    metrics: Option<String>,
    exhaustive: bool,
    quick: bool,
    bound: Option<usize>,
}

/// Parses the command line; `--scenario` and `--design` are required.
/// `ASF_SHARDS`/`ASF_SHARD_ID` partition the seed space across fleet
/// processes (each runs the seeds it owns; `runs` charges the owned
/// count). Unset, the shard is the whole space.
fn parse(mut args: Args) -> Result<Cli, Usage> {
    let mut cli = Cli::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scenario" => {
                cli.scenario_arg = args.value(&flag)?;
                cli.scenarios = parse_scenario(&cli.scenario_arg).ok_or("unknown scenario")?;
            }
            "--design" => {
                cli.designs = parse_design(&args.value(&flag)?).ok_or("unknown design")?
            }
            "--exhaustive" => cli.exhaustive = true,
            "--quick" => cli.quick = true,
            "--bound" => cli.bound = Some(args.parse(&flag)?),
            "--seeds" => cli.cfg.seeds = args.parse(&flag)?,
            "--seed" => cli.single_seed = Some(args.parse(&flag)?),
            "--jobs" => cli.jobs = args.parse(&flag)?,
            "--trace" => cli.trace = Some(args.value(&flag)?),
            "--metrics" => cli.metrics = Some(args.value(&flag)?),
            other => return Err(Usage::unknown(other)),
        }
    }
    if cli.scenarios.is_empty() || cli.designs.is_empty() {
        return Err(Usage::Error(String::new()));
    }
    cli.cfg.shard = asymfence_common::par::Shard::from_env()?;
    Ok(cli)
}

fn main() -> ExitCode {
    run(&scan::or_exit(parse(Args::from_env()), USAGE))
}

/// Runs a parsed command line: exit 1 on a violation, 2 when the
/// `--metrics` file cannot be written.
fn run(cli: &Cli) -> ExitCode {
    let (scenarios, designs, cfg) = (&cli.scenarios, &cli.designs, cli.cfg);
    let corpus = scenarios.len() > 1;

    let ex = Explorer::new(cfg).with_jobs(cli.jobs);
    let bound = cli.bound.unwrap_or(if cli.quick { 1 } else { 2 });
    let dcfg = DporConfig::from_explore(&cfg, bound);
    let deterministic = telemetry::deterministic_from_env();
    let total = Stopwatch::start();
    let mut entries: Vec<MetricEntry> = Vec::new();
    let mut record = |name: &str, design: FenceDesign, runs: u64, wall_ns: u64| {
        let mut e = MetricEntry::new("explore", name, &format!("{design:?}"));
        e.runs = runs;
        e.wall_ns = if deterministic { 0 } else { wall_ns };
        entries.push(e);
    };
    let mut dirty = false;
    for scenario in scenarios {
        // In corpus mode the metric/workload name is the scenario's own
        // name; single-scenario runs keep the CLI argument for snapshot
        // compatibility.
        let name = if corpus {
            scenario.name.clone()
        } else {
            cli.scenario_arg.clone()
        };
        let label = if corpus {
            format!("{}/", scenario.name)
        } else {
            String::new()
        };
        for &design in designs {
            // `sb-allweak` keeps its all-Critical roles: the case exists
            // to stress a design outside its grouping assumption.
            let sc = if scenario.name == "sb-allweak" {
                scenario.clone()
            } else {
                scenario.clone().with_roles_for(design)
            };
            if cli.exhaustive {
                let sweep = Stopwatch::start();
                let report = ex.explore_exhaustive(&sc, design, &dcfg);
                record(&name, design, report.runs, sweep.elapsed_ns());
                let stats = format!(
                    "{} schedules explored ({} pruned, {} executed, {} classes) at bound {}",
                    report.explored, report.pruned, report.executed, report.classes, report.bound
                );
                match &report.violation {
                    None => {
                        let proof = if report.complete {
                            " — SC proven up to the bound"
                        } else {
                            " (incomplete: run budget hit)"
                        };
                        println!("{label}{design:?}: clean, {stats}{proof}");
                    }
                    Some(cex) => {
                        println!("{label}{design:?}: VIOLATION, {stats}\n{cex}");
                        if let Some(path) = &cli.trace {
                            write_trace(path, design, cex.trace.as_ref());
                        }
                        dirty = true;
                    }
                }
                continue;
            }
            if let Some(seed) = cli.single_seed {
                let sweep = Stopwatch::start();
                let outcome = ex.run_seed(&sc, design, seed);
                record(&name, design, 1, sweep.elapsed_ns());
                match outcome {
                    None => println!("{label}{design:?} seed {seed}: clean"),
                    Some(f) => {
                        println!("{label}{design:?} seed {seed}: FAILED\n{f}");
                        if let Some(path) = &cli.trace {
                            let trace = ex.run_seed_traced(&sc, design, seed);
                            write_trace(path, design, trace.as_ref());
                        }
                        dirty = true;
                    }
                }
                continue;
            }
            let sweep = Stopwatch::start();
            let report = ex.sweep(&sc, design);
            record(&name, design, report.runs, sweep.elapsed_ns());
            match &report.violation {
                None => println!(
                    "{label}{design:?}: clean over {} seeds ({} runs)",
                    cfg.seeds, report.runs
                ),
                Some(cex) => {
                    println!(
                        "{label}{design:?}: VIOLATION after {} runs\n{cex}",
                        report.runs
                    );
                    if let Some(path) = &cli.trace {
                        write_trace(path, design, cex.trace.as_ref());
                    }
                    dirty = true;
                }
            }
        }
    }
    if let Some(path) = &cli.metrics {
        let mut snap = BenchSnapshot::new(&telemetry::label_from_path(path));
        snap.stamp_host(deterministic, &total);
        snap.entries = entries;
        snap.write_to(path).unwrap_or_else(|e| scan::fail(&e));
    }
    if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_of(v: &[&str]) -> Result<Cli, Usage> {
        parse(Args::new(v.iter().copied()))
    }

    #[test]
    fn defaults_need_only_scenario_and_design() {
        let cli = parse_of(&["--scenario", "sb-fenced", "--design", "all"]).unwrap();
        assert_eq!(cli.scenario_arg, "sb-fenced");
        assert_eq!(cli.scenarios, vec![Scenario::store_buffering(true)]);
        assert_eq!(cli.designs, ALL_DESIGNS.to_vec());
        assert_eq!(cli.cfg.seeds, 256);
        assert_eq!((cli.single_seed, cli.jobs), (None, 0));
        assert!(cli.trace.is_none() && cli.metrics.is_none());
        assert!(!cli.exhaustive && !cli.quick);
        assert_eq!(cli.bound, None, "run picks 2, or 1 under --quick");
        assert!(cli.cfg.shard.is_whole());
    }

    #[test]
    fn every_flag_sets_its_field() {
        let cli = parse_of(&[
            "--scenario",
            "corpus",
            "--design",
            "W+",
            "--seeds",
            "9",
            "--seed",
            "4",
            "--jobs",
            "2",
            "--trace",
            "t.json",
            "--metrics",
            "m.json",
            "--exhaustive",
            "--bound",
            "3",
        ])
        .unwrap();
        assert!(cli.scenarios.len() > 1, "corpus expands");
        assert_eq!(cli.designs, vec![FenceDesign::WPlus]);
        assert_eq!((cli.cfg.seeds, cli.single_seed, cli.jobs), (9, Some(4), 2));
        assert_eq!(cli.trace.as_deref(), Some("t.json"));
        assert_eq!(cli.metrics.as_deref(), Some("m.json"));
        assert!(cli.exhaustive);
        assert_eq!(cli.bound, Some(3));
        let quick = parse_of(&["--scenario", "lb", "--design", "unsafe", "--quick"]).unwrap();
        assert_eq!(quick.designs, vec![FenceDesign::WfOnlyUnsafe]);
        assert!(quick.quick);
    }

    #[test]
    fn usage_errors() {
        let err = |v: &[&str]| matches!(parse_of(v), Err(Usage::Error(_)));
        assert!(err(&[]));
        assert!(err(&["--scenario", "sb-fenced"]), "--design is required");
        assert!(err(&["--design", "S+"]), "--scenario is required");
        assert!(err(&["--scenario", "nope", "--design", "S+"]));
        assert!(err(&["--scenario", "lb", "--design", "Z+"]));
        assert!(err(&["--scenario", "lb", "--design", "S+", "--seeds", "x"]));
        assert!(err(&["--scenario", "lb", "--design", "S+", "--bound"]));
        assert!(err(&["--scenario", "lb", "--design", "S+", "--frobnicate"]));
        assert_eq!(parse_of(&["--help"]).unwrap_err(), Usage::Help);
        assert_eq!(
            parse_of(&["--scenario", "lb", "-h"]).unwrap_err(),
            Usage::Help
        );
    }
}
