//! Figure 11 — STAMP execution time.
//!
//! Thin wrapper over [`asymfence_bench::figures::fig11`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("fig11_stamp", figures::fig11);
}
