//! The flags every figure binary shares ([`usage`] lists them), and
//! their `main`. `synth` and `analyze` add their own flags through
//! [`parse_args`]; all scan with [`asymfence_common::cli`].

use std::sync::Arc;

use asymfence::prelude::FenceDesign;
use asymfence_common::cli::{self, Args, Usage};
use asymfence_common::par::Shard;
use asymfence_common::telemetry;

use crate::metrics::{self, Collector};
use crate::runner::Runner;
use crate::{ReportSink, DESIGNS};

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

/// Parses a bench binary's command line over the environment's
/// defaults (`ASF_QUICK`, the shard variables). Returns `(explicit jobs,
/// opts)`; `None` for jobs means "use the environment". `extra` takes a
/// binary's own flags: it sees every token the shared flags do not
/// match, reads any value it needs from the scanner, and returns whether
/// it took the token.
pub fn parse_args(
    mut args: Args,
    mut extra: impl FnMut(&str, &mut Args) -> Result<bool, Usage>,
) -> Result<(Option<usize>, Opts), Usage> {
    let mut jobs = None;
    let mut opts = Opts {
        quick: crate::quick(),
        shard: Shard::from_env()?,
        ..Default::default()
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--jobs" => jobs = Some(args.parse(&flag)?),
            "--designs" => {
                let mut ds = Vec::new();
                for tok in args.value(&flag)?.split(',').filter(|t| !t.is_empty()) {
                    ds.push(
                        FenceDesign::from_label(tok)
                            .ok_or_else(|| format!("unknown design `{tok}`"))?,
                    );
                }
                opts.designs = Some(ds);
            }
            "--filter" => opts.filter = Some(args.value(&flag)?),
            "--trace" => opts.trace = Some(args.value(&flag)?),
            "--metrics" => opts.metrics = Some(args.value(&flag)?),
            "--quick" => opts.quick = true,
            other => {
                if !extra(other, &mut args)? {
                    return Err(Usage::unknown(other));
                }
            }
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

/// The [`Runner`] for parsed options: `jobs` workers, with a telemetry
/// collector when `--metrics` is set.
pub fn runner(jobs: Option<usize>, opts: &Opts) -> Runner {
    let runner = Runner::new(jobs);
    if opts.metrics.is_none() {
        return runner;
    }
    runner.with_collector(Arc::new(
        Collector::new(telemetry::deterministic_from_env()),
    ))
}

/// A figure binary's `main`: parse the command line (usage exits per
/// [`cli::or_exit`]), run `report` to stdout and `results/`, and write
/// the `--metrics` snapshot if one was asked for (exit 2 if it cannot
/// be written).
pub fn main(bin: &str, report: fn(&Runner, &Opts, &mut ReportSink)) {
    let (jobs, opts) = cli::or_exit(parse_args(Args::from_env(), |_, _| Ok(false)), &usage(bin));
    let runner = runner(jobs, &opts);
    report(&runner, &opts, &mut ReportSink::stdout());
    metrics::write_if_requested(&runner, &opts).unwrap_or_else(|e| cli::fail(&e));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<(Option<usize>, Opts), Usage> {
        parse_args(Args::new(v.iter().copied()), |_, _| Ok(false))
    }

    #[test]
    fn parses_all_flags() {
        let (jobs, opts) = parse(&[
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
        ])
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
        let (jobs, opts) = parse(&[]).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(opts.design_list(), DESIGNS.to_vec());
        assert!(opts.keep("anything"));
        assert!(opts.keep_design(FenceDesign::Wee));
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert_eq!(
            parse(&["--frobnicate"]).unwrap_err(),
            Usage::Error("unknown argument `--frobnicate`".into())
        );
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--designs", "q+"]).is_err());
        assert!(parse(&["--trace"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), Usage::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), Usage::Help);
    }

    #[test]
    fn trace_and_metrics_default_off() {
        let (_, opts) = parse(&[]).unwrap();
        assert!(opts.trace.is_none());
        assert!(opts.metrics.is_none());
        assert!(opts.shard.is_whole());
    }
}
