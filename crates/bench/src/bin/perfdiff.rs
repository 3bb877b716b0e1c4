//! Compares two `--metrics` snapshots and gates on regressions.
//!
//! ```text
//! perfdiff BASE.json NEW.json [--wall-tolerance PCT] [--throughput-floor CPS] [--check]
//! perfdiff SNAP.json --throughput-floor CPS
//! ```
//!
//! Loads two [`BenchSnapshot`]s, aligns their (section, workload,
//! design) cells, and reports deltas. Deterministic quantities —
//! simulation counters, derived ratios, fence-latency percentiles — are
//! compared exactly (any drift is a behaviour change, not noise);
//! wall-clock is gated at ±`--wall-tolerance` percent (default 50) and
//! skipped where a side was masked to 0 by deterministic mode. Missing
//! or extra cells and schema-version drift are failures.
//!
//! `--throughput-floor CPS` additionally gates absolute simulator speed:
//! `NEW.json` (or, in the second form, the lone `SNAP.json`) must show at
//! least `CPS` simulated cycles per wall-second in aggregate (sum of
//! per-cell `sim_cycles` over the snapshot's total wall-clock). With a
//! single path only the floor is checked — no baseline needed. Any other
//! number of paths is a usage error. The snapshot must carry real wall-clock
//! (collected *without* `ASF_TELEMETRY_DETERMINISTIC=1`); a masked
//! snapshot is a usage error, since a floor over masked time would pass
//! vacuously.
//!
//! Exit status: `0` clean, `1` on any breach, `2` on usage/parse errors.
//! `--check` is accepted for CI readability; gating is always on.

use std::process::exit;

use asymfence_common::cli::{self, Args, Usage};
use asymfence_common::telemetry::{diff, BenchSnapshot, DiffOptions};

const USAGE: &str = "usage: perfdiff BASE.json NEW.json [--wall-tolerance PCT] [--throughput-floor CPS] [--check]\n\
       perfdiff SNAP.json --throughput-floor CPS\n\
   compares two --metrics snapshots; exit 0 clean, 1 on breach, 2 on usage error\n\
   counters/derived/percentiles gate exactly, wall-clock at +-PCT% (default 50,\n\
   skipped where a side is 0, i.e. written under ASF_TELEMETRY_DETERMINISTIC=1)\n\
   --throughput-floor CPS also requires NEW.json (or the lone SNAP.json) to\n\
   sustain CPS simulated cycles per wall-second; needs unmasked wall-clock";

fn load(path: &str) -> BenchSnapshot {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| cli::fail(&format!("perfdiff: cannot read {path}: {e}")));
    BenchSnapshot::parse(&text).unwrap_or_else(|e| cli::fail(&format!("perfdiff: {path}: {e}")))
}

/// Aggregate simulated cycles per wall-second across a snapshot.
fn throughput(snap: &BenchSnapshot) -> f64 {
    let cycles: u64 = snap.entries.iter().map(|e| e.sim_cycles).sum();
    cycles as f64 * 1e9 / snap.total_wall_ns as f64
}

fn check_floor(snap: &BenchSnapshot, floor: f64) -> bool {
    if snap.total_wall_ns == 0 {
        cli::fail(&format!(
            "perfdiff: `{}` has masked wall-clock (ASF_TELEMETRY_DETERMINISTIC); \
             a throughput floor needs a snapshot collected with real timing\n{USAGE}",
            snap.label
        ));
    }
    let got = throughput(snap);
    println!(
        "perfdiff: `{}` throughput {:.2}M cycles/s vs floor {:.2}M cycles/s",
        snap.label,
        got / 1e6,
        floor / 1e6
    );
    if got < floor {
        println!("  BREACH: throughput below floor");
        return false;
    }
    true
}

/// A parsed `perfdiff` command line: one or two snapshot paths.
#[derive(Debug)]
struct Cli {
    paths: Vec<String>,
    opts: DiffOptions,
    floor: Option<f64>,
}

/// Parses the command line: two paths, or one path with a floor.
fn parse(mut args: Args) -> Result<Cli, Usage> {
    let mut paths = Vec::new();
    let mut opts = DiffOptions::default();
    let mut floor = None;
    while let Some(tok) = args.next() {
        match tok.as_str() {
            "--wall-tolerance" => opts.wall_tolerance = args.parse::<f64>(&tok)? / 100.0,
            "--throughput-floor" => {
                let cps: f64 = args.parse(&tok)?;
                if cps.is_nan() || cps <= 0.0 {
                    return Err("--throughput-floor needs cycles/s (positive)".into());
                }
                floor = Some(cps);
            }
            "--check" => {}
            "-h" => return Err(Usage::Help),
            flag if flag.starts_with("--") => return Err(Usage::unknown(flag)),
            _ => paths.push(tok),
        }
    }
    if paths.len() != 2 && !(paths.len() == 1 && floor.is_some()) {
        return Err(Usage::Error(String::new()));
    }
    Ok(Cli { paths, opts, floor })
}

fn main() {
    let Cli { paths, opts, floor } = cli::or_exit(parse(Args::from_env()), USAGE);
    let clean = if let [base, new] = &paths[..] {
        let base = load(base);
        let new = load(new);
        println!(
            "perfdiff: base `{}` ({} entries) vs new `{}` ({} entries)",
            base.label,
            base.entries.len(),
            new.label,
            new.entries.len()
        );
        let report = diff(&base, &new, &opts);
        for note in &report.notes {
            println!("  note: {note}");
        }
        for breach in &report.breaches {
            println!("  BREACH: {breach}");
        }
        println!(
            "perfdiff: {} cells compared, {} breach(es), {} note(s)",
            report.compared,
            report.breaches.len(),
            report.notes.len()
        );
        let floor_ok = floor.is_none_or(|floor| check_floor(&new, floor));
        report.clean() && floor_ok
    } else {
        floor.is_none_or(|floor| check_floor(&load(&paths[0]), floor))
    };
    if !clean {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_of(v: &[&str]) -> Result<Cli, Usage> {
        parse(Args::new(v.iter().copied()))
    }

    fn is_error(v: &[&str]) -> bool {
        matches!(parse_of(v), Err(Usage::Error(_)))
    }

    #[test]
    fn two_paths_diff_with_default_tolerance() {
        let cli = parse_of(&["--check", "a.json", "b.json"]).unwrap();
        assert_eq!(cli.paths, ["a.json", "b.json"]);
        assert_eq!(cli.opts.wall_tolerance, 0.5);
        assert_eq!(cli.floor, None);
        let cli = parse_of(&["a.json", "--wall-tolerance", "20", "b.json"]).unwrap();
        assert_eq!(cli.opts.wall_tolerance, 0.2);
    }

    #[test]
    fn a_floor_takes_one_or_two_paths() {
        let cli = parse_of(&["a.json", "--throughput-floor", "1200000"]).unwrap();
        assert_eq!((cli.paths.len(), cli.floor), (1, Some(1.2e6)));
        let cli = parse_of(&["a.json", "b.json", "--throughput-floor", "5"]).unwrap();
        assert_eq!((cli.paths.len(), cli.floor), (2, Some(5.0)));
    }

    #[test]
    fn usage_errors() {
        assert!(is_error(&[]));
        assert!(is_error(&["a.json"]), "one path needs a floor");
        assert!(is_error(&["a", "b", "c"]));
        assert!(is_error(&["a", "b", "c", "--throughput-floor", "5"]));
        assert!(is_error(&["a", "--throughput-floor", "0"]));
        assert!(is_error(&["a", "--throughput-floor", "-3"]));
        assert!(is_error(&["a", "--throughput-floor", "NaN"]));
        assert!(is_error(&["a", "--throughput-floor"]));
        assert!(is_error(&["a", "b", "--wall-tolerance", "x"]));
        assert!(is_error(&["a", "b", "--frobnicate"]));
        assert_eq!(parse_of(&["--help"]).unwrap_err(), Usage::Help);
        assert_eq!(parse_of(&["-h"]).unwrap_err(), Usage::Help);
    }
}
