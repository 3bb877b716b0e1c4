//! Native asymmetric-fence benchmark with sim-vs-silicon crossval.
//!
//! Thin wrapper over [`asymfence_bench::native`]: runs the native
//! kernel grid under every fence pair, prints the measured table, and
//! with `--crossval` joins the native ranking against the simulator's.

use asymfence_bench::native;
use asymfence_common::cli::{self, Args};

fn main() {
    let opts = cli::or_exit(native::parse_args(Args::from_env()), native::USAGE);
    std::process::exit(native::main_impl(&opts));
}
