//! Every experiment in sequence.
//!
//! Thin wrapper over [`asymfence_bench::figures::all`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures, metrics, ReportSink};

fn main() {
    let (runner, opts) = cli::parse("all_experiments");
    figures::all(&runner, &opts, &mut ReportSink::stdout());
    metrics::write_if_requested(&runner, &opts);
}
