//! Every experiment in sequence.
//!
//! Thin wrapper over [`asymfence_bench::figures::all`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("all_experiments", figures::all);
}
