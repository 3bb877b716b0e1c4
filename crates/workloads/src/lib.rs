//! Fence-intensive workloads for the `asymfence` simulator.
//!
//! These are the paper's three evaluation groups plus the extra idioms of
//! §4, all driving the *real* synchronization protocols over simulated
//! shared memory:
//!
//! * [`cilk`] — Cilk-style work stealing over the THE deque ([`wsq`]),
//!   profiles for the ten CilkApps.
//! * [`tlrw`] + [`ustm`] — the RSTM TLRW read/write-lock STM and its ten
//!   microbenchmarks.
//! * [`stamp`] — STAMP application profiles over TLRW.
//! * [`bakery`] — Lamport's Bakery lock (paper §4.3).
//! * [`biased`] — biased locking / lock reservation (paper §4.4).
//! * [`dcl`] — double-checked locking (paper §4.4).
//! * [`dekker`] — Dekker's full mutual-exclusion protocol (Figure 1a).
//! * [`peterson`] — Peterson's lock with **no** fences: the
//!   whole-program analyzer's acid test.
//! * [`litmus`] — the paper's figure-by-figure SCV/deadlock scenarios.
//!
//! Shared infrastructure: [`ops`] (micro-op queues for state-machine
//! programs), [`layout`] (address-space carving), [`sites`] (static
//! fence-site footprints for the synthesis engine), and [`unannot`]
//! (fence-free kernel builders for the whole-program analyzer).

pub mod bakery;
pub mod biased;
pub mod cilk;
pub mod dcl;
pub mod dekker;
pub mod layout;
pub mod litmus;
pub mod ops;
pub mod peterson;
pub mod sites;
pub mod stamp;
pub mod tlrw;
pub mod unannot;
pub mod ustm;
pub mod wsq;
