//! Tiny in-repo argument parser shared by every bench binary.
//!
//! All nine harness binaries accept the same flags:
//!
//! ```text
//! --jobs N          worker threads (default: ASF_JOBS, then all cores)
//! --designs LIST    comma-separated designs to report (s+,ws+,sw+,w+,wee);
//!                   S+ always runs as the normalization baseline
//! --filter SUBSTR   only workloads whose name contains SUBSTR
//! --quick           ~4x smaller pass (same as ASF_QUICK=1)
//! --trace PATH      re-run one workload per design with the fence
//!                   trace on and write Chrome-trace JSON to PATH
//! --metrics PATH    write a harness-telemetry BenchSnapshot (JSON) to
//!                   PATH when the run finishes (see `perfdiff`)
//! --help            usage
//! ```

use asymfence::prelude::FenceDesign;
use asymfence_common::par::Shard;
use asymfence_common::telemetry;

use crate::metrics::Collector;
use crate::runner::Runner;
use crate::DESIGNS;

/// Parsed shared options (everything but the worker count, which lives
/// in the [`Runner`]).
#[derive(Clone, Debug, Default)]
pub struct Opts {
    /// `--quick` / `ASF_QUICK=1`: shrink workloads ~4x.
    pub quick: bool,
    /// `--designs`: reported designs; `None` means the paper's default
    /// set ([`DESIGNS`]).
    pub designs: Option<Vec<FenceDesign>>,
    /// `--filter`: workload-name substring filter.
    pub filter: Option<String>,
    /// `--trace`: write a Chrome-trace JSON of one representative run
    /// per design to this path. Off by default; never changes the
    /// figure output (the histogram report goes to stderr).
    pub trace: Option<String>,
    /// `--metrics`: write a harness-telemetry
    /// [`BenchSnapshot`](asymfence_common::telemetry::BenchSnapshot)
    /// JSON to this path when the run finishes. Off by default; never
    /// changes the figure output (the snapshot note goes to stderr).
    pub metrics: Option<String>,
    /// `ASF_SHARDS` / `ASF_SHARD_ID`: the part of the work this process
    /// owns. `synth` partitions its mask space and `analyze` its kernel
    /// list by it; the figure binaries run everything.
    pub shard: Shard,
}

impl Opts {
    /// The designs to report, S+ (the normalization baseline) always
    /// first and always present.
    pub fn design_list(&self) -> Vec<FenceDesign> {
        match &self.designs {
            None => DESIGNS.to_vec(),
            Some(ds) => {
                let mut v = vec![FenceDesign::SPlus];
                for &d in ds {
                    if !v.contains(&d) {
                        v.push(d);
                    }
                }
                v
            }
        }
    }

    /// Whether a design passes `--designs` (S+ always does: it is the
    /// baseline every figure normalizes to).
    pub fn keep_design(&self, d: FenceDesign) -> bool {
        d == FenceDesign::SPlus || self.designs.as_ref().is_none_or(|ds| ds.contains(&d))
    }

    /// Whether a workload name passes `--filter`.
    pub fn keep(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|f| name.contains(f.as_str()))
    }
}

/// Parses an argument list over the environment's defaults (`ASF_QUICK`,
/// the shard variables). Returns `(explicit jobs, opts)` or an error
/// message; `Ok(None)` for jobs means "use the environment".
pub fn parse_args<I: IntoIterator<Item = String>>(
    args: I,
) -> Result<(Option<usize>, Opts), String> {
    let args: Vec<String> = args.into_iter().collect();
    let mut jobs = None;
    let mut opts = Opts {
        quick: crate::quick(),
        shard: Shard::from_env()?,
        ..Default::default()
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--jobs" => {
                jobs = Some(
                    value(i)?
                        .parse::<usize>()
                        .map_err(|_| "--jobs needs a number".to_string())?,
                );
                i += 2;
            }
            "--designs" => {
                let mut ds = Vec::new();
                for tok in value(i)?.split(',').filter(|t| !t.is_empty()) {
                    ds.push(
                        FenceDesign::from_label(tok)
                            .ok_or_else(|| format!("unknown design `{tok}`"))?,
                    );
                }
                opts.designs = Some(ds);
                i += 2;
            }
            "--filter" => {
                opts.filter = Some(value(i)?.clone());
                i += 2;
            }
            "--trace" => {
                opts.trace = Some(value(i)?.clone());
                i += 2;
            }
            "--metrics" => {
                opts.metrics = Some(value(i)?.clone());
                i += 2;
            }
            "--quick" => {
                opts.quick = true;
                i += 1;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((jobs, opts))
}

/// Usage text shared by the bench binaries.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--jobs N] [--designs s+,ws+,sw+,w+,wee] [--filter SUBSTR] [--quick] [--trace PATH] [--metrics PATH]\n\
         \x20 --jobs N        worker threads (default: ASF_JOBS, then all cores)\n\
         \x20 --designs LIST  designs to report (S+ always runs as the baseline)\n\
         \x20 --filter SUBSTR only workloads whose name contains SUBSTR\n\
         \x20 --quick         ~4x smaller pass (same as ASF_QUICK=1)\n\
         \x20 --trace PATH    write a Perfetto-loadable fence trace to PATH\n\
         \x20 --metrics PATH  write a harness-telemetry snapshot (JSON) to PATH;\n\
         \x20                 compare snapshots with `perfdiff` (ASF_TELEMETRY_DETERMINISTIC=1\n\
         \x20                 masks wall-clock for byte-stable baselines)\n\
         progress lines go to stderr; ASF_PROGRESS=0 silences, =1 forces"
    )
}

/// Parses `std::env::args` for a bench binary, exiting with usage on
/// `--help` or a bad flag. Returns the configured [`Runner`] and the
/// shared [`Opts`].
pub fn parse(bin: &str) -> (Runner, Opts) {
    parse_or_exit(std::env::args().skip(1), &usage(bin))
}

/// Parses `args` ([`parse_args`]) and builds the [`Runner`], with a
/// telemetry collector when `--metrics` is set. `--help` prints `usage`
/// and exits 0; a bad flag prints the error and `usage` and exits 2.
pub fn parse_or_exit<I: IntoIterator<Item = String>>(args: I, usage: &str) -> (Runner, Opts) {
    match parse_args(args) {
        Ok((jobs, opts)) => {
            let mut runner = Runner::new(jobs);
            if opts.metrics.is_some() {
                runner = runner.with_collector(std::sync::Arc::new(Collector::new(
                    telemetry::deterministic_from_env(),
                )));
            }
            (runner, opts)
        }
        Err(msg) if msg.is_empty() => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}\n{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let (jobs, opts) = parse_args(s(&[
            "--jobs",
            "4",
            "--designs",
            "ws+,w+",
            "--filter",
            "fib",
            "--quick",
            "--trace",
            "out.json",
            "--metrics",
            "metrics.json",
        ]))
        .unwrap();
        assert_eq!(jobs, Some(4));
        assert!(opts.quick);
        assert_eq!(opts.filter.as_deref(), Some("fib"));
        assert_eq!(opts.trace.as_deref(), Some("out.json"));
        assert_eq!(opts.metrics.as_deref(), Some("metrics.json"));
        assert_eq!(
            opts.design_list(),
            vec![FenceDesign::SPlus, FenceDesign::WsPlus, FenceDesign::WPlus]
        );
        assert!(opts.keep("fib") && !opts.keep("cholesky"));
        assert!(opts.keep_design(FenceDesign::SPlus));
        assert!(opts.keep_design(FenceDesign::WPlus));
        assert!(!opts.keep_design(FenceDesign::Wee));
    }

    #[test]
    fn defaults_keep_everything() {
        let (jobs, opts) = parse_args(s(&[])).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(opts.design_list(), DESIGNS.to_vec());
        assert!(opts.keep("anything"));
        assert!(opts.keep_design(FenceDesign::Wee));
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse_args(s(&["--frobnicate"])).is_err());
        assert!(parse_args(s(&["--jobs", "many"])).is_err());
        assert!(parse_args(s(&["--jobs"])).is_err());
        assert!(parse_args(s(&["--designs", "q+"])).is_err());
        assert!(parse_args(s(&["--trace"])).is_err());
        assert!(parse_args(s(&["--metrics"])).is_err());
    }

    #[test]
    fn trace_and_metrics_default_off() {
        let (_, opts) = parse_args(s(&[])).unwrap();
        assert!(opts.trace.is_none());
        assert!(opts.metrics.is_none());
        assert!(opts.shard.is_whole());
    }
}
