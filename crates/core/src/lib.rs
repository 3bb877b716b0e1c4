//! # asymfence
//!
//! A from-scratch reproduction of **"Asymmetric Memory Fences: Optimizing
//! Both Performance and Implementability"** (Duan, Honarmand, Torrellas —
//! ASPLOS 2015) as a cycle-level multicore simulator.
//!
//! The paper combines *weak fences* (`wf`) — fences whose post-fence
//! accesses may retire and complete early, protected by a per-core Bypass
//! Set that bounces conflicting invalidations — with conventional *strong
//! fences* (`sf`) in the non-critical threads of each fence group, so
//! that no global state (WeeFence's GRT) is needed. This crate is the
//! user-facing API:
//!
//! * [`machine::Machine`] — an N-core machine (out-of-order cores, MESI
//!   directory over a 2D mesh, TSO) with one of the paper's fence designs
//!   ([`FenceDesign`](asymfence_common::config::FenceDesign)): `S+`,
//!   `WS+`, `SW+`, `W+`, or the `Wee` comparison point.
//! * [`scv`] — a Shasha–Snir cycle detector over the machine's
//!   perform-order log, for verifying SC is preserved.
//!
//! The complementary front end (§8) is the `asymfence-analyze` crate:
//! its delay-set analysis decides *where* fences must go, and the
//! asymmetric designs then make those fences cheap.
//!
//! # Quick start
//!
//! ```
//! use asymfence::prelude::*;
//!
//! // Dekker-style flags with an asymmetric fence group (WS+).
//! let cfg = MachineConfig::builder()
//!     .cores(2)
//!     .fence_design(FenceDesign::WsPlus)
//!     .build();
//! let mut m = Machine::new(&cfg);
//! let (a, ra) = ScriptProgram::new(vec![
//!     Instr::Store { addr: Addr::new(0x00), value: 1 },
//!     Instr::fence(FenceRole::Critical), // hot thread: weak
//!     Instr::Load { addr: Addr::new(0x40), tag: Some(1) },
//! ]);
//! let (b, rb) = ScriptProgram::new(vec![
//!     Instr::Store { addr: Addr::new(0x40), value: 1 },
//!     Instr::fence(FenceRole::NonCritical), // rare thread: strong
//!     Instr::Load { addr: Addr::new(0x00), tag: Some(1) },
//! ]);
//! m.add_thread(Box::new(a));
//! m.add_thread(Box::new(b));
//! assert_eq!(m.run(1_000_000), RunOutcome::Finished);
//! // The non-SC outcome (both read 0) is impossible:
//! assert_ne!((ra.borrow()[&1], rb.borrow()[&1]), (0, 0));
//! ```

#![deny(missing_docs)]

pub mod machine;
pub mod scv;

pub use machine::{Machine, RunOutcome};

// Re-export the layers a user needs.
pub use asymfence_coherence as coherence;
pub use asymfence_common as common;
pub use asymfence_cpu as cpu;

/// Everything needed to build and run simulations.
pub mod prelude {
    pub use crate::machine::{Machine, RunOutcome};
    pub use crate::scv;
    pub use asymfence_coherence::RmwKind;
    pub use asymfence_common::assign::{SearchStats, SiteMask};
    pub use asymfence_common::config::{
        FenceDesign, MachineConfig, MachineConfigBuilder, Perturbation,
    };
    pub use asymfence_common::ids::{Addr, CoreId, Cycle, LineAddr};
    pub use asymfence_common::rng::SimRng;
    pub use asymfence_common::stats::{CoreStats, DerivedStats, MachineStats};
    pub use asymfence_common::trace::{
        FenceClass, FenceSpan, FenceTally, TraceEvent, TraceKind, TraceSink,
    };
    pub use asymfence_cpu::program::{
        FenceRole, FenceSite, Fetch, Instr, Registers, ScriptProgram, ThreadProgram,
    };
}
