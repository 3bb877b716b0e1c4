//! Table 4 — characterization of the fence designs.
//!
//! Thin wrapper over [`asymfence_bench::figures::table4`]; all flag
//! handling lives in [`asymfence_bench::cli`] and all simulation in the
//! shared run engine ([`asymfence_bench::runner`]).

use asymfence_bench::{cli, figures};

fn main() {
    cli::main("table4_characterization", figures::table4);
}
