//! Sharded sweep driver: durable run journal, crash-safe resume, and
//! live fleet observability.
//!
//! ```text
//! sweep run    --ledger DIR [--shards N] [--shard-id K] [--spawn N]
//!              [--quick] [--jobs N] [--metrics PATH]
//! sweep status --ledger DIR [--watch]
//! sweep merge  --ledger DIR --out PATH
//! ```
//!
//! `run` executes one shard of the sweep grid (or, with `--spawn N`,
//! drives N single-shard child processes to completion), journaling
//! every result to `DIR/shard-<id>.jsonl`; a killed shard resumes from
//! its durable prefix when re-invoked with the same arguments. `status`
//! renders the fleet dashboard from the ledgers (`--watch` refreshes
//! until the sweep finishes). `merge` folds a complete ledger directory
//! into a `--metrics`-style snapshot — byte-identical to a
//! single-process run of the same grid.
//!
//! Sharding defaults come from `ASF_SHARDS` / `ASF_SHARD_ID` when the
//! flags are absent; a half-set or malformed pair is a usage error.
//! Exit status: `0` clean, `1` on an incomplete or inconsistent ledger,
//! `2` on usage errors or an unwritable `--metrics`/`--out` path.

use std::path::{Path, PathBuf};
use std::process::exit;

use asymfence_bench::ledger::merge_dir;
use asymfence_bench::shard::{grid, grid_label, now_ms, run_shard};
use asymfence_bench::status;
use asymfence_common::cli::{self, Args, Usage};
use asymfence_common::par::Shard;
use asymfence_common::telemetry::label_from_path;

const USAGE: &str = "usage: sweep run    --ledger DIR [--shards N] [--shard-id K] [--spawn N]\n\
       \x20                   [--quick] [--jobs N] [--metrics PATH]\n\
       sweep status --ledger DIR [--watch]\n\
       sweep merge  --ledger DIR --out PATH\n\
   run executes one shard of the sweep grid against an append-only run\n\
   ledger (crash-safe: re-invoke with the same flags to resume), or with\n\
   --spawn N drives N single-shard children; status renders the fleet\n\
   dashboard from the ledgers; merge folds a complete directory into a\n\
   --metrics snapshot byte-identical to a single-process run.\n\
   --shards/--shard-id default to ASF_SHARDS/ASF_SHARD_ID, then 1/0.\n\
   exit 0 clean, 1 incomplete/inconsistent ledger, 2 usage error";

/// `sweep run`'s flags, validated.
#[derive(Debug, PartialEq)]
struct RunArgs {
    ledger: PathBuf,
    fleet: Fleet,
    quick: bool,
    jobs: Option<usize>,
    metrics: Option<String>,
}

/// What `sweep run` runs: one shard in this process, or `--spawn N`
/// single-shard children.
#[derive(Debug, PartialEq)]
enum Fleet {
    Shard(Shard),
    Spawn(u64),
}

fn parse_run(mut args: Args) -> Result<RunArgs, Usage> {
    let (mut ledger, mut shards, mut shard_id, mut spawn) = (None, None, None, None);
    let (mut quick, mut jobs, mut metrics) = (asymfence_bench::quick(), None, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ledger" => ledger = Some(PathBuf::from(args.value(&flag)?)),
            "--shards" => shards = Some(args.parse(&flag)?),
            "--shard-id" => shard_id = Some(args.parse(&flag)?),
            "--spawn" => spawn = Some(args.parse(&flag)?),
            "--jobs" => jobs = Some(args.parse(&flag)?),
            "--metrics" => metrics = Some(args.value(&flag)?),
            "--quick" => quick = true,
            other => return Err(format!("unknown `run` argument `{other}`").into()),
        }
    }
    let ledger = ledger.ok_or("run needs --ledger DIR")?;
    let fleet = match spawn {
        Some(0) => return Err("--spawn needs at least one shard".into()),
        Some(_) if shard_id.is_some() => {
            return Err("--spawn drives every shard; drop --shard-id".into());
        }
        Some(n) => Fleet::Spawn(n),
        None => Fleet::Shard(resolve_shard(shards, shard_id)?),
    };
    Ok(RunArgs {
        ledger,
        fleet,
        quick,
        jobs,
        metrics,
    })
}

/// The shard `--shards`/`--shard-id` name, each falling back to
/// `ASF_SHARDS`/`ASF_SHARD_ID` when absent.
fn resolve_shard(shards: Option<u64>, shard_id: Option<u64>) -> Result<Shard, Usage> {
    let (count, id) = match (shards, shard_id) {
        (Some(count), Some(id)) => (count, id),
        (shards, id) => {
            let env = Shard::from_env()?;
            (shards.unwrap_or(env.count), id.unwrap_or(env.id))
        }
    };
    if count == 0 || id >= count {
        return Err(format!("--shard-id {id} out of range for --shards {count}").into());
    }
    Ok(Shard::new(id, count))
}

fn parse_status(mut args: Args) -> Result<(PathBuf, bool), Usage> {
    let (mut ledger, mut watch) = (None, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ledger" => ledger = Some(PathBuf::from(args.value(&flag)?)),
            "--watch" => watch = true,
            other => return Err(format!("unknown `status` argument `{other}`").into()),
        }
    }
    Ok((ledger.ok_or("status needs --ledger DIR")?, watch))
}

fn parse_merge(mut args: Args) -> Result<(PathBuf, String), Usage> {
    let (mut ledger, mut out) = (None, None);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ledger" => ledger = Some(PathBuf::from(args.value(&flag)?)),
            "--out" => out = Some(args.value(&flag)?),
            other => return Err(format!("unknown `merge` argument `{other}`").into()),
        }
    }
    ledger
        .zip(out)
        .ok_or_else(|| "merge needs --ledger DIR and --out PATH".into())
}

/// Merges the ledgers in `dir` into a snapshot at `path`: exit 1 on an
/// incomplete or inconsistent ledger, 2 when `path` cannot be written.
fn write_metrics(dir: &Path, path: &str) {
    let merged = merge_dir(dir, &label_from_path(path)).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        exit(1);
    });
    merged
        .snapshot
        .write_to(path)
        .unwrap_or_else(|e| cli::fail(&format!("sweep: {e}")));
    eprintln!(
        "== sweep merge: {} duplicates dropped, {} unknown records skipped, \
         {} torn bytes truncated ==",
        merged.duplicates, merged.skipped_unknown, merged.torn_bytes,
    );
}

fn spawn_fleet(args: &RunArgs, shards: u64) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("sweep: cannot resolve own executable: {e}");
        exit(1);
    });
    let mut children = Vec::new();
    for id in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--ledger")
            .arg(&args.ledger)
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--shard-id")
            .arg(id.to_string());
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(jobs) = args.jobs {
            cmd.arg("--jobs").arg(jobs.to_string());
        }
        children.push((
            id,
            cmd.spawn().unwrap_or_else(|e| {
                eprintln!("sweep: cannot spawn shard {id}: {e}");
                exit(1);
            }),
        ));
    }
    let mut failed = false;
    for (id, mut child) in children {
        let rc = child.wait().map(|s| s.success()).unwrap_or(false);
        if !rc {
            eprintln!("sweep: shard {id} exited with failure");
            failed = true;
        }
    }
    if failed {
        exit(1);
    }
}

fn cmd_run(args: &RunArgs) {
    match args.fleet {
        Fleet::Spawn(n) => spawn_fleet(args, n),
        Fleet::Shard(shard) => {
            let cells = grid(args.quick);
            let label = grid_label(args.quick);
            let summary = run_shard(&args.ledger, shard, &cells, label, args.quick, args.jobs)
                .unwrap_or_else(|e| {
                    eprintln!("sweep: {e}");
                    exit(1);
                });
            eprintln!(
                "== sweep shard {}/{} done: {} owned, {} executed, {} recovered{}{} ==",
                shard.id,
                shard.count,
                summary.owned,
                summary.executed,
                summary.recovered,
                if summary.resume > 0 {
                    format!(", resume #{}", summary.resume)
                } else {
                    String::new()
                },
                if summary.torn_bytes > 0 {
                    format!(", {} torn bytes truncated", summary.torn_bytes)
                } else {
                    String::new()
                },
            );
        }
    }
    if let Some(path) = &args.metrics {
        write_metrics(&args.ledger, path);
    }
}

fn cmd_status(dir: &Path, watch: bool) {
    loop {
        let fleet = status::gather(dir, now_ms()).unwrap_or_else(|e| {
            eprintln!("sweep: {e}");
            exit(1);
        });
        print!("{}", status::render(&fleet));
        let finished = !fleet.shards.is_empty()
            && fleet
                .shards
                .iter()
                .all(|s| s.state == status::ShardState::Done);
        if !watch || finished {
            break;
        }
        println!("---");
        std::thread::sleep(std::time::Duration::from_millis(1000));
    }
}

fn main() {
    let mut args = Args::from_env();
    match args.next().as_deref() {
        Some("run") => cmd_run(&cli::or_exit(parse_run(args), USAGE)),
        Some("status") => {
            let (dir, watch) = cli::or_exit(parse_status(args), USAGE);
            cmd_status(&dir, watch);
        }
        Some("merge") => {
            let (dir, out) = cli::or_exit(parse_merge(args), USAGE);
            write_metrics(&dir, &out);
        }
        Some(other) => cli::or_exit(Err(Usage::unknown(other)), USAGE),
        None => cli::or_exit(Err(Usage::Error(String::new())), USAGE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::new(v.iter().copied())
    }

    fn is_error<T>(parsed: Result<T, Usage>) -> bool {
        matches!(parsed, Err(Usage::Error(_)))
    }

    #[test]
    fn run_flags_and_defaults() {
        let run = parse_run(args(&["--ledger", "L", "--shards", "3", "--shard-id", "2"])).unwrap();
        assert_eq!(run.ledger, PathBuf::from("L"));
        assert_eq!(run.fleet, Fleet::Shard(Shard::new(2, 3)));
        assert_eq!((run.jobs, run.metrics), (None, None));
        let run = parse_run(args(&[
            "--ledger",
            "L",
            "--spawn",
            "4",
            "--quick",
            "--jobs",
            "2",
            "--metrics",
            "m.json",
        ]))
        .unwrap();
        assert_eq!(run.fleet, Fleet::Spawn(4));
        assert!(run.quick);
        assert_eq!(run.jobs, Some(2));
        assert_eq!(run.metrics.as_deref(), Some("m.json"));
    }

    #[test]
    fn run_usage_errors() {
        let err = |v: &[&str]| is_error(parse_run(args(v)));
        assert!(err(&[]), "--ledger is required");
        assert!(err(&["--ledger"]));
        assert!(err(&["--ledger", "L", "--shards", "x"]));
        assert!(err(&["--ledger", "L", "--jobs", "-1"]));
        assert!(err(&["--ledger", "L", "--spawn", "0"]));
        assert!(err(&["--ledger", "L", "--spawn", "2", "--shard-id", "0"]));
        assert!(err(&["--ledger", "L", "--shards", "2", "--shard-id", "2"]));
        assert!(err(&["--ledger", "L", "--frobnicate"]));
        // `run` has no --help of its own: usage is `sweep --help`.
        assert!(err(&["--ledger", "L", "--help"]));
    }

    #[test]
    fn status_flags() {
        let status = |v: &[&str]| parse_status(args(v));
        assert_eq!(status(&["--ledger", "L"]), Ok((PathBuf::from("L"), false)));
        assert_eq!(
            status(&["--watch", "--ledger", "L"]),
            Ok((PathBuf::from("L"), true))
        );
        assert!(is_error(status(&[])), "--ledger is required");
        assert!(is_error(status(&["--ledger"])));
        assert!(is_error(status(&["--ledger", "L", "--out", "o"])));
    }

    #[test]
    fn merge_flags() {
        let merge = |v: &[&str]| parse_merge(args(v));
        assert_eq!(
            merge(&["--out", "o.json", "--ledger", "L"]),
            Ok((PathBuf::from("L"), "o.json".to_string()))
        );
        assert!(is_error(merge(&["--ledger", "L"])), "--out is required");
        assert!(is_error(merge(&["--out", "o"])), "--ledger is required");
        assert!(is_error(merge(&["--ledger", "L", "--out", "o", "--watch"])));
    }
}
