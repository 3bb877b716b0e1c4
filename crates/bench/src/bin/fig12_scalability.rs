//! Figure 12 — fence-stall ratio at 4..32 cores.
//!
//! Thin wrapper over [`asymfence_bench::figures::fig12`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("fig12_scalability", figures::fig12);
}
