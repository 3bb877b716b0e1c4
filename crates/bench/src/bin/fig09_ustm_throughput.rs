//! Figure 9 — ustm transactional throughput.
//!
//! Thin wrapper over [`asymfence_bench::figures::fig09`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("fig09_ustm_throughput", figures::fig09);
}
