//! Unannotated kernel builders: the five `sites` study kernels plus
//! Peterson, with every hand-placed fence removed.
//!
//! This is the analyzer's input surface. Each [`InferredKernel`] builds
//! the *same* protocol threads as its annotated counterpart — same
//! layouts, same iteration counts, same seeds — but fence-free:
//! kernels with annotated builders are wrapped in [`StripFences`], and
//! [`peterson`] is born unannotated. Cycle costs measured over an inferred placement are
//! therefore directly comparable with the hand annotation's.

use asymfence::cpu::insert::StripFences;
use asymfence::prelude::ThreadProgram;
use asymfence_common::config::MachineConfig;

use crate::peterson::PETERSON_ITERS;
use crate::sites::{SiteBench, BAKERY_ITERS, DCL_ITERS, DEKKER_ITERS, WSQ_ROUNDS};
use crate::{bakery, dcl, dekker, litmus, peterson, wsq};

/// A kernel the analyzer can consume with zero hand annotations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InferredKernel {
    /// Two-thread store buffering (the paper's headline litmus).
    Sb,
    /// Dekker mutual exclusion, fences stripped.
    Dekker,
    /// Double-checked locking, fences stripped.
    Dcl,
    /// THE work-stealing deque owner/thief driver, fences stripped.
    Wsq,
    /// Three-thread Lamport bakery, fences stripped.
    Bakery,
    /// Peterson's lock — never had fences to strip.
    Peterson,
}

impl InferredKernel {
    /// Every kernel, in report order.
    pub const ALL: [InferredKernel; 6] = [
        InferredKernel::Sb,
        InferredKernel::Dekker,
        InferredKernel::Dcl,
        InferredKernel::Wsq,
        InferredKernel::Bakery,
        InferredKernel::Peterson,
    ];

    /// Stable kernel name (CLI filter key, report row).
    pub fn name(self) -> &'static str {
        match self {
            InferredKernel::Sb => "sb",
            InferredKernel::Dekker => "dekker",
            InferredKernel::Dcl => "dcl",
            InferredKernel::Wsq => "wsq",
            InferredKernel::Bakery => "bakery",
            InferredKernel::Peterson => "peterson",
        }
    }

    /// Parses a kernel name.
    pub fn from_name(name: &str) -> Option<InferredKernel> {
        InferredKernel::ALL
            .iter()
            .copied()
            .find(|k| k.name() == name)
    }

    /// Cores/threads the kernel needs.
    pub fn cores(self) -> usize {
        match self {
            InferredKernel::Bakery => 3,
            _ => 2,
        }
    }

    /// The hand-annotated twin, if one exists (Peterson has none —
    /// that is the acid test).
    pub fn site_bench(self) -> Option<SiteBench> {
        match self {
            InferredKernel::Sb => Some(SiteBench::Sb),
            InferredKernel::Dekker => Some(SiteBench::Dekker),
            InferredKernel::Dcl => Some(SiteBench::Dcl),
            InferredKernel::Wsq => Some(SiteBench::Wsq),
            InferredKernel::Bakery => Some(SiteBench::Bakery),
            InferredKernel::Peterson => None,
        }
    }

    /// Builds the fence-free threads (same shapes and seeds as the
    /// annotated builders).
    pub fn programs(self, cfg: &MachineConfig, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
        let strip = |ps: Vec<Box<dyn ThreadProgram>>| -> Vec<Box<dyn ThreadProgram>> {
            ps.into_iter()
                .map(|p| Box::new(StripFences::new(p)) as Box<dyn ThreadProgram>)
                .collect()
        };
        match self {
            InferredKernel::Sb => litmus::store_buffering(None).0,
            InferredKernel::Dekker => strip(dekker::programs(cfg, DEKKER_ITERS, seed)),
            InferredKernel::Dcl => strip(dcl::programs(cfg, DCL_ITERS, seed)),
            InferredKernel::Wsq => strip(wsq::driver_programs(cfg, WSQ_ROUNDS, seed)),
            InferredKernel::Bakery => strip(bakery::programs(
                cfg,
                bakery::RoleAssign::PriorityThread0,
                BAKERY_ITERS,
                seed,
            )),
            InferredKernel::Peterson => peterson::programs(cfg, PETERSON_ITERS, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    #[test]
    fn names_round_trip() {
        for k in InferredKernel::ALL {
            assert_eq!(InferredKernel::from_name(k.name()), Some(k));
        }
        assert_eq!(InferredKernel::from_name("nope"), None);
    }

    #[test]
    fn twins_cover_all_site_benches() {
        let twins: Vec<SiteBench> = InferredKernel::ALL
            .iter()
            .filter_map(|k| k.site_bench())
            .collect();
        assert_eq!(twins.len(), SiteBench::ALL.len());
        for b in SiteBench::ALL {
            assert!(twins.contains(&b), "{} has no unannotated twin", b.name());
        }
    }

    #[test]
    fn every_kernel_builds_and_completes_unfenced() {
        for k in InferredKernel::ALL {
            let cfg = MachineConfig::builder()
                .cores(k.cores())
                .fence_design(FenceDesign::SPlus)
                .build();
            let mut m = Machine::new(&cfg);
            for p in k.programs(&cfg, 7) {
                m.add_thread(p);
            }
            assert_eq!(
                m.run(400_000_000),
                RunOutcome::Finished,
                "{} must finish without fences",
                k.name()
            );
        }
    }

    #[test]
    fn core_counts_match_twins() {
        for k in InferredKernel::ALL {
            if let Some(b) = k.site_bench() {
                assert_eq!(k.cores(), b.cores(), "{}", k.name());
            }
        }
    }
}
