//! Fence-assignment synthesis for the asymmetric-fence designs.
//!
//! The paper hand-annotates each kernel's fences with roles (critical /
//! non-critical) and maps roles to hardware strengths per design. This
//! crate closes the loop the other way: given a workload whose static
//! fences carry [`FenceSite`](asymfence::prelude::FenceSite) ids and
//! a [`FenceDesign`](asymfence::prelude::FenceDesign), it **searches**
//! the per-site wf/sf assignment space and returns the fastest
//! assignment that is both structurally admissible and provably SC over
//! a perturbation-seed sweep:
//!
//! * [`groups`] — fence-group discovery from static conflict footprints
//!   and the per-design structural pruning rules.
//! * [`search`] — the enumerate → prune → oracle-validate → score →
//!   rank engine, memoized by assignment hash and deterministic at any
//!   worker count.
//! * [`report`] — the synthesized-vs-paper comparison table emitted by
//!   the `synth` binary.
//!
//! The `synth` binary shares the bench harness's flags
//! (`--jobs/--designs/--filter/--quick/--trace`); `--trace` writes a
//! Perfetto-loadable timeline of every accept/reject decision.

#![deny(missing_docs)]

pub mod groups;
pub mod report;
pub mod search;

pub use search::{Candidate, PaperVerdict, SynthResult, Synthesizer};
