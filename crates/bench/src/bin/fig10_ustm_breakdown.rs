//! Figure 10 — ustm per-transaction cycle breakdown.
//!
//! Thin wrapper over [`asymfence_bench::figures::fig10`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("fig10_ustm_breakdown", figures::fig10);
}
