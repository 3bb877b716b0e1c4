//! Figure 8 — CilkApps execution-time breakdown.
//!
//! Thin wrapper over [`asymfence_bench::figures::fig08`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("fig08_cilk", figures::fig08);
}
