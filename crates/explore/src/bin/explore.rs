//! Command-line front end for the schedule explorer.
//!
//! ```text
//! explore --scenario sb-unfenced --design all --seeds 256
//! explore --scenario sb-padded --design S+            # watch the shrinker work
//! explore --scenario sb-fenced --design W+ --seed 17  # replay one seed
//! ```

use std::process::ExitCode;

use asymfence::prelude::{FenceDesign, TraceSink};
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

/// The value after flag `args[i]`, parsed, or the message `what` when it
/// is missing or does not parse.
fn value<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| what.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|msg| {
        if !msg.is_empty() {
            eprintln!("{msg}");
        }
        eprintln!("{USAGE}");
        ExitCode::from(2)
    })
}

/// Runs the command line; `Err` is a usage error with its message.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut scenarios: Option<Vec<Scenario>> = None;
    let mut designs = None;
    let mut cfg = ExploreConfig::default();
    let mut single_seed = None;
    let mut jobs = 0;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut scenario_arg = String::new();
    let mut exhaustive = false;
    let mut bound: Option<usize> = None;
    let mut quick = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                let name: String = value(args, i, "unknown scenario")?;
                scenarios = Some(parse_scenario(&name).ok_or("unknown scenario")?);
                scenario_arg = name;
            }
            "--exhaustive" | "--quick" => {
                exhaustive |= args[i] == "--exhaustive";
                quick |= args[i] == "--quick";
                i += 1;
                continue;
            }
            "--bound" => bound = Some(value(args, i, "--bound needs a number")?),
            "--design" => {
                let name: String = value(args, i, "unknown design")?;
                designs = Some(parse_design(&name).ok_or("unknown design")?);
            }
            "--seeds" => cfg.seeds = value(args, i, "--seeds needs a number")?,
            "--seed" => single_seed = Some(value(args, i, "--seed needs a number")?),
            "--jobs" => jobs = value(args, i, "--jobs needs a number")?,
            "--trace" => trace_path = Some(value(args, i, "--trace needs a path")?),
            "--metrics" => metrics_path = Some(value(args, i, "--metrics needs a path")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }

    let (Some(scenarios), Some(designs)) = (scenarios, designs) else {
        return Err(String::new());
    };
    // ASF_SHARDS / ASF_SHARD_ID partition the seed space across fleet
    // processes (each runs the seeds it owns; `runs` charges the owned
    // count). Unset, the shard is the whole space and nothing changes.
    cfg.shard = asymfence_common::par::Shard::from_env()?;
    let corpus = scenarios.len() > 1;

    let ex = Explorer::new(cfg).with_jobs(jobs);
    let bound = bound.unwrap_or(if quick { 1 } else { 2 });
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
    for scenario in &scenarios {
        // In corpus mode the metric/workload name is the scenario's own
        // name; single-scenario runs keep the CLI argument for snapshot
        // compatibility.
        let name = if corpus {
            scenario.name.clone()
        } else {
            scenario_arg.clone()
        };
        let label = if corpus {
            format!("{}/", scenario.name)
        } else {
            String::new()
        };
        for &design in &designs {
            // `sb-allweak` keeps its all-Critical roles: the case exists
            // to stress a design outside its grouping assumption.
            let sc = if scenario.name == "sb-allweak" {
                scenario.clone()
            } else {
                scenario.clone().with_roles_for(design)
            };
            if exhaustive {
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
                        if let Some(path) = &trace_path {
                            write_trace(path, design, cex.trace.as_ref());
                        }
                        dirty = true;
                    }
                }
                continue;
            }
            if let Some(seed) = single_seed {
                let sweep = Stopwatch::start();
                let outcome = ex.run_seed(&sc, design, seed);
                record(&name, design, 1, sweep.elapsed_ns());
                match outcome {
                    None => println!("{label}{design:?} seed {seed}: clean"),
                    Some(f) => {
                        println!("{label}{design:?} seed {seed}: FAILED\n{f}");
                        if let Some(path) = &trace_path {
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
                    if let Some(path) = &trace_path {
                        write_trace(path, design, cex.trace.as_ref());
                    }
                    dirty = true;
                }
            }
        }
    }
    if let Some(path) = &metrics_path {
        let stem = std::path::Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "explore".to_string());
        let mut snap = BenchSnapshot::new(&stem);
        snap.deterministic = deterministic;
        snap.entries = entries;
        if !deterministic {
            snap.total_wall_ns = total.elapsed_ns();
            snap.peak_rss_bytes = telemetry::peak_rss_bytes().unwrap_or(0);
        }
        match std::fs::write(path, snap.to_json()) {
            Ok(()) => eprintln!(
                "== metrics snapshot -> {path} ({} entries) ==",
                snap.entries.len()
            ),
            Err(e) => {
                eprintln!("cannot write metrics to {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        }
    }
    Ok(if dirty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
