//! Asymmetric-fence runtime for real hardware.
//!
//! The rest of the workspace *simulates* the paper's asymmetric fence
//! designs; this crate *ships* the same heavy/light split as a usable
//! Rust library. The hot side of a synchronization protocol issues
//! [`light_fence`] — a compiler fence, zero instructions — and the rare
//! side issues [`heavy_fence`], backed by
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` on Linux (probed and
//! registered once, see [`backend`]) and degrading to `fence(SeqCst)`
//! on both sides anywhere else ([`FenceBackend::SeqCstFallback`]).
//!
//! # Design correspondence
//!
//! Protocols take a [`FencePair`]: two [`C11Fence`]s, one for each of
//! the two static roles the simulated designs annotate. The report grid
//! is three constant pairs ([`FencePair::ALL`]):
//!
//! | pair | critical (hot) site | non-critical (rare) site | simulated design |
//! |------|---------------------|--------------------------|------------------|
//! | [`FencePair::ALL_HEAVY`] | heavy | heavy | S+ (all strong) |
//! | [`FencePair::ASYMMETRIC`] | light | heavy | W+ / WS+ (weak hot side) |
//! | [`FencePair::SEQCST`] | `fence(SeqCst)` | `fence(SeqCst)` | S+ (portable control) |
//!
//! An analyzer lowering (`asymfence-analyze`'s `lower`) names the same
//! [`C11Fence`]s per site, so a computed placement runs as a pair built
//! from its two sites' fences.
//!
//! Two of the simulator's workloads are ported natively on top of the
//! pair: the THE work-stealing deque ([`TheDeque`]) and the TLRW STM
//! ([`TlrwStm`]). Three kernels drive them ([`deque_churn`],
//! [`tlrw_counter`], [`tlrw_read_mix`]) next to the mutual-exclusion and
//! litmus kernels ([`dekker`], [`peterson`], [`sb_hammer`],
//! [`mp_hammer`]); the `native_bench` cross-validation harness and the
//! litmus tests call these seven and keep no driver of their own.
//!
//! ```
//! use asymfence_native::{backend, FencePair, TheDeque};
//!
//! println!("heavy fence backed by: {}", backend().label());
//! let q = TheDeque::new(16, FencePair::ASYMMETRIC);
//! q.push(1);
//! q.push(2);
//! assert_eq!(q.take(), Some(2)); // owner pays only a compiler fence
//! assert_eq!(q.steal(), Some(1)); // thief pays the membarrier
//! ```
#![deny(missing_docs)]

mod backend;
mod deque;
mod kernels;
mod pair;
mod stm;

pub use backend::{backend, heavy_fence, heavy_fence_cost_ns, light_fence, FenceBackend};
pub use deque::TheDeque;
pub use kernels::{
    dekker, deque_churn, mp_hammer, peterson, sb_hammer, tlrw_counter, tlrw_read_mix, KernelRun,
};
pub use pair::{C11Fence, FencePair};
pub use stm::{Conflict, TlrwStm, Tx};
