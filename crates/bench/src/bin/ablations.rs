//! Ablation sweeps beyond the paper.
//!
//! Thin wrapper over [`asymfence_bench::figures::ablations`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("ablations", figures::ablations);
}
