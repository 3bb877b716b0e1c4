//! Shared vocabulary types for the `asymfence` simulator workspace.
//!
//! This crate holds the types that every layer of the stack speaks:
//! addresses and identifiers ([`ids`]), the machine configuration
//! ([`config`]), per-site fence-strength assignments ([`assign`]),
//! inferred whole-program fence placements ([`placement`]),
//! statistics counters ([`stats`]), deterministic
//! fence-lifecycle tracing ([`trace`]), harness telemetry — wall-clock
//! timers, metrics snapshots and the `perfdiff` engine ([`telemetry`]) —
//! a deterministic RNG ([`rng`]), schedule oracles that surface the
//! simulator's nondeterminism points ([`schedule`]), a hermetic
//! property-testing harness
//! ([`prop`]), scoped worker-pool parallelism for deterministic sweeps
//! ([`par`]), the sharded-sweep run-ledger record layer ([`ledger`]) and
//! the command-line scanner every binary parses with ([`cli`]).
//!
//! # Examples
//!
//! ```
//! use asymfence_common::config::MachineConfig;
//! use asymfence_common::ids::{Addr, LineAddr};
//!
//! let cfg = MachineConfig::default();
//! assert_eq!(cfg.num_cores, 8);
//! let a = Addr::new(0x1040);
//! let line = LineAddr::containing(a, cfg.line_bytes);
//! assert_eq!(line.base(cfg.line_bytes).raw(), 0x1040);
//! ```

#![deny(missing_docs)]

pub mod assign;
pub mod cli;
pub mod config;
pub mod hash;
pub mod ids;
pub mod ledger;
pub mod par;
pub mod placement;
pub mod prop;
pub mod rng;
pub mod schedule;
pub mod scvlog;
pub mod stats;
pub mod telemetry;
pub mod trace;

pub use assign::{is_synthetic, synthetic_site, SearchStats, SiteMask};
pub use config::{FenceDesign, MachineConfig, MachineConfigBuilder, Perturbation};
pub use ids::{Addr, BankId, CoreId, Cycle, LineAddr, WordIdx};
pub use placement::{PlacedFence, PlacedWindow, Placement, PlacementSpec, MAX_PLACED};
pub use rng::SimRng;
pub use schedule::{
    ChoiceKind, ChoicePoint, ChoiceRecord, ScheduleOracle, SchedulePlan, ScheduleQuanta,
    ScheduleRecording, ScheduleScript, ScriptOracle, SeededJitter,
};
pub use scvlog::{ScvEvent, ScvLog};
pub use stats::{CoreStats, DerivedStats, MachineStats, StallKind};
pub use telemetry::{BenchSnapshot, MetricEntry, PhaseTimer, PoolTelemetry, Stopwatch};
pub use trace::{FenceBook, FenceClass, FenceSpan, FenceTally, TraceEvent, TraceKind, TraceSink};
