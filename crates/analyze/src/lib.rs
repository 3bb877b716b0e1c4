//! Whole-program fence inference for unannotated kernels.
//!
//! Everything else in this workspace starts from a hand annotation: the
//! paper's per-site fence placements ([`asymfence_workloads::sites`])
//! say *where* fences go, and `asymfence-synth` only searches over
//! *strengths*. This crate removes the hand from the loop. Given any
//! [`ThreadProgram`](asymfence::prelude::ThreadProgram) kernel with
//! **zero annotations**, it:
//!
//! 1. recovers per-thread shared-memory footprints by interpreting the
//!    program under sequential consistency across several deterministic
//!    schedule variants ([`interp`]);
//! 2. extracts the TSO store→load windows, builds the cross-thread
//!    conflict digraph, and enumerates the critical cycles à la
//!    Shasha–Snir with reorder-bounded pruning ([`cycles`]);
//! 3. condenses cycle-breaking program points into a minimal fence
//!    [`Placement`](asymfence_common::placement::Placement), liveness-
//!    filtered so every emitted site actually fires ([`place`]);
//! 4. hands the placement to `asymfence-synth` for per-site weak/strong
//!    strength search, validated by the sampling oracle (or the
//!    `--exhaustive` DPOR proof) and scored in simulated cycles;
//! 5. lowers the winning assignment to C11 barriers — including the
//!    native runtime's asymmetric light/heavy pair — for execution on
//!    real silicon ([`lower()`]).
//!
//! The `analyze` binary ([`report`]) drives the pipeline over the study
//! kernels and prints inferred-vs-hand comparisons; its output is
//! byte-identical at any `--jobs`.

#![deny(missing_docs)]

pub mod cycles;
pub mod interp;
pub mod lower;
pub mod place;
pub mod report;

pub use cycles::{critical_cycles, digraph, extract_windows, merge_windows, WindowInfo};
pub use lower::{lower, LoweredFence, Lowering};
pub use place::{analyze, analyze_with, infer_placement, Analysis};
