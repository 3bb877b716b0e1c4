//! `synth`: search per-site wf/sf fence assignments for the paper's
//! kernels, validate them with the schedule-exploration oracle, score
//! them on the simulator, and compare against the paper's hand
//! annotations. Shares the bench harness flags
//! (`--jobs/--designs/--filter/--quick/--trace`), plus:
//!
//! ```text
//! --exhaustive      validate survivors with bounded-exhaustive DPOR
//!                   exploration instead of the perturbation sweep, so
//!                   accepted assignments are proofs up to the bound
//! --bound N         reorder bound for --exhaustive (default: 1;
//!                   implies --exhaustive)
//! ```
//!
//! The default bound is 1 (not the explorer's 2): the kernels' choice
//! frontiers run to hundreds of points, and the bound-2 tree costs
//! ~50k simulator runs *per candidate mask* on the larger kernels.
//! Bound 1 stays interactive and already catches single-reorder bugs;
//! raise it with `--bound 2 --filter <kernel>` for a targeted proof.

fn main() {
    asymfence_synth::report::main("synth", "assignments", asymfence_synth::report::run);
}
