//! Litmus matrix — figures 1d/1f/3a/3c/4b.
//!
//! Thin wrapper over [`asymfence_bench::figures::litmus_matrix`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("litmus_matrix", figures::litmus_matrix);
}
