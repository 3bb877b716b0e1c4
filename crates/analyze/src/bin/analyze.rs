//! `analyze`: infer fence placements for unannotated kernels — recover
//! footprints under SC, enumerate critical cycles, place the minimal
//! fences, synthesize per-site wf/sf strengths, and lower the winner to
//! C11 for the native runtime. No hand annotations consumed anywhere.
//!
//! Shares the bench harness flags
//! (`--jobs/--designs/--filter/--quick/--metrics/--trace`), plus:
//!
//! ```text
//! --exhaustive      validate placements with bounded-exhaustive DPOR
//!                   exploration instead of the perturbation sweep, so
//!                   accepted placements are proofs up to the bound
//! --bound N         reorder bound for --exhaustive (default: 1;
//!                   implies --exhaustive)
//! ```

fn main() {
    asymfence_synth::report::main("analyze", "placements", asymfence_analyze::report::run);
}
