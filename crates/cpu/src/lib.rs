//! Out-of-order core model for the `asymfence` simulator.
//!
//! [`core::Core`] models a 4-issue out-of-order core with a reorder
//! buffer, a TSO write buffer, speculative loads, and the five fence
//! microarchitectures of *Asymmetric Memory Fences* (ASPLOS 2015).
//! Workloads plug in through the [`program::ThreadProgram`] trait.
//!
//! # Examples
//!
//! Run one core to completion against a memory system:
//!
//! ```
//! use asymfence_coherence::MemSystem;
//! use asymfence_common::config::MachineConfig;
//! use asymfence_common::ids::{Addr, CoreId};
//! use asymfence_cpu::core::Core;
//! use asymfence_cpu::program::{Instr, ScriptProgram};
//!
//! let cfg = MachineConfig::builder().cores(1).build();
//! let mut mem = MemSystem::new(&cfg);
//! let (prog, regs) = ScriptProgram::new(vec![
//!     Instr::Store { addr: Addr::new(0), value: 5 },
//!     Instr::Load { addr: Addr::new(0), tag: Some(1) },
//! ]);
//! let mut core = Core::new(CoreId(0), &cfg, Box::new(prog));
//! for t in 0..10_000 {
//!     core.tick(t, &mut mem, None);
//!     mem.tick(t);
//!     if core.is_done() {
//!         break;
//!     }
//! }
//! assert!(core.is_done());
//! assert_eq!(regs.borrow()[&1], 5, "store-to-load forwarding");
//! ```

pub mod core;
pub mod insert;
pub mod program;

pub use crate::core::{Core, HwFence};
pub use insert::{FencedProgram, StripFences};
pub use program::{FenceRole, Fetch, Instr, Registers, ScriptProgram, ThreadProgram};

#[cfg(test)]
mod tests;
