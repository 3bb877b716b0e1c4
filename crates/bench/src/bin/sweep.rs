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
//! `2` on usage errors.

use std::path::{Path, PathBuf};
use std::process::exit;

use asymfence_bench::ledger::merge_dir;
use asymfence_bench::metrics::label_from_path;
use asymfence_bench::shard::{grid, grid_label, run_shard};
use asymfence_bench::status;
use asymfence_common::par::Shard;

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

fn usage_exit(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("sweep: {msg}");
    }
    eprintln!("{USAGE}");
    exit(2)
}

#[derive(Default)]
struct RunArgs {
    ledger: Option<PathBuf>,
    shards: Option<u64>,
    shard_id: Option<u64>,
    spawn: Option<u64>,
    quick: bool,
    jobs: Option<usize>,
    metrics: Option<String>,
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut out = RunArgs {
        quick: asymfence_bench::quick(),
        ..Default::default()
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &String {
            args.get(i + 1)
                .unwrap_or_else(|| usage_exit(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--ledger" => {
                out.ledger = Some(PathBuf::from(value(i)));
                i += 2;
            }
            "--shards" => {
                out.shards = Some(parse_num(value(i), "--shards"));
                i += 2;
            }
            "--shard-id" => {
                out.shard_id = Some(parse_num(value(i), "--shard-id"));
                i += 2;
            }
            "--spawn" => {
                out.spawn = Some(parse_num(value(i), "--spawn"));
                i += 2;
            }
            "--jobs" => {
                out.jobs = Some(parse_num(value(i), "--jobs") as usize);
                i += 2;
            }
            "--metrics" => {
                out.metrics = Some(value(i).clone());
                i += 2;
            }
            "--quick" => {
                out.quick = true;
                i += 1;
            }
            other => usage_exit(&format!("unknown `run` argument `{other}`")),
        }
    }
    out
}

fn parse_num(tok: &str, flag: &str) -> u64 {
    tok.parse()
        .unwrap_or_else(|_| usage_exit(&format!("{flag} needs a number")))
}

fn resolve_shard(args: &RunArgs) -> Shard {
    let (count, id) = match (args.shards, args.shard_id) {
        (Some(count), Some(id)) => (count, id),
        (shards, id) => {
            let env = Shard::from_env().unwrap_or_else(|e| usage_exit(&e));
            (shards.unwrap_or(env.count), id.unwrap_or(env.id))
        }
    };
    if count == 0 || id >= count {
        usage_exit(&format!(
            "--shard-id {id} out of range for --shards {count}"
        ));
    }
    Shard::new(id, count)
}

fn write_metrics(dir: &Path, path: &str) {
    let merged = merge_dir(dir, &label_from_path(path)).unwrap_or_else(|e| {
        eprintln!("sweep: {e}");
        exit(1);
    });
    let json = merged.snapshot.to_json();
    std::fs::write(path, &json).unwrap_or_else(|e| {
        eprintln!("sweep: cannot write metrics file {path}: {e}");
        exit(1);
    });
    eprintln!(
        "== sweep merge -> {path} ({} entries, {} duplicates dropped, {} unknown records \
         skipped, {} torn bytes truncated) ==",
        merged.snapshot.entries.len(),
        merged.duplicates,
        merged.skipped_unknown,
        merged.torn_bytes,
    );
}

fn spawn_fleet(args: &RunArgs, dir: &Path, shards: u64) {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("sweep: cannot resolve own executable: {e}");
        exit(1);
    });
    let mut children = Vec::new();
    for id in 0..shards {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("run")
            .arg("--ledger")
            .arg(dir)
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

fn cmd_run(args: &[String]) {
    let args = parse_run(args);
    let Some(dir) = args.ledger.clone() else {
        usage_exit("run needs --ledger DIR");
    };
    let cells = grid(args.quick);
    let label = grid_label(args.quick);

    if let Some(n) = args.spawn {
        if n == 0 {
            usage_exit("--spawn needs at least one shard");
        }
        if args.shard_id.is_some() {
            usage_exit("--spawn drives every shard; drop --shard-id");
        }
        spawn_fleet(&args, &dir, n);
    } else {
        let shard = resolve_shard(&args);
        let summary =
            run_shard(&dir, shard, &cells, label, args.quick, args.jobs).unwrap_or_else(|e| {
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

    if let Some(path) = &args.metrics {
        write_metrics(&dir, path);
    }
}

fn cmd_status(args: &[String]) {
    let mut ledger = None;
    let mut watch = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ledger" => {
                let v = args
                    .get(i + 1)
                    .unwrap_or_else(|| usage_exit("--ledger needs a value"));
                ledger = Some(PathBuf::from(v));
                i += 2;
            }
            "--watch" => {
                watch = true;
                i += 1;
            }
            other => usage_exit(&format!("unknown `status` argument `{other}`")),
        }
    }
    let Some(dir) = ledger else {
        usage_exit("status needs --ledger DIR");
    };

    let now = || {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    };
    loop {
        let fleet = status::gather(&dir, now()).unwrap_or_else(|e| {
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

fn cmd_merge(args: &[String]) {
    let mut ledger = None;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> &String {
            args.get(i + 1)
                .unwrap_or_else(|| usage_exit(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--ledger" => {
                ledger = Some(PathBuf::from(value(i)));
                i += 2;
            }
            "--out" => {
                out = Some(value(i).clone());
                i += 2;
            }
            other => usage_exit(&format!("unknown `merge` argument `{other}`")),
        }
    }
    let (Some(dir), Some(path)) = (ledger, out) else {
        usage_exit("merge needs --ledger DIR and --out PATH");
    };
    write_metrics(&dir, &path);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
        }
        Some(other) => usage_exit(&format!("unknown subcommand `{other}`")),
        None => usage_exit(""),
    }
}
