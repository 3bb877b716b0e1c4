//! The sequentially consistent reference interpreter.
//!
//! Fence inference needs each thread's *shared-memory footprint* — the
//! program-order sequence of loads, stores and RMWs it performs — but an
//! unannotated [`ThreadProgram`] is an opaque state machine: its control
//! flow depends on the values its loads observe. So we *run* it, under
//! the one memory model where no fence is ever needed: sequential
//! consistency with immediate delivery. Every load returns the latest
//! store, every tagged value is delivered synchronously, and threads
//! interleave under a deterministic round-robin schedule.
//!
//! One schedule explores one set of control-flow paths (who wins the
//! lock, whether the spin loop is entered). The analyzer therefore runs
//! several *schedule variants* — different quantum patterns derived from
//! a mixing function — and unions the footprints. Variants are fixed in
//! number and fully deterministic, so the recovered footprint (and
//! everything downstream of it) is a pure function of the kernel and
//! seed.
//!
//! Spin loops are collapsed at record time: a load identical to the
//! thread's immediately preceding access adds nothing to the footprint
//! (the open-store window set cannot have changed in between) and is not
//! recorded, which keeps traces proportional to useful work instead of
//! spin time.

use asymfence::prelude::{Fetch, Instr, ThreadProgram};
use asymfence_common::rng::hash64;

/// One shared-memory access in a thread's program-order trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A load of the word at the byte address.
    Load(u64),
    /// A store to the word at the byte address.
    Store(u64),
    /// An atomic RMW on the word — drains the window like a full fence.
    Rmw(u64),
    /// An explicit fence (only seen if the input was not fully
    /// unannotated; treated as a window cut, never as an inferred site).
    Fence,
}

/// One thread's recorded program-order access sequence.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Accesses in program order, spin-collapsed.
    pub accesses: Vec<Access>,
}

/// The outcome of interpreting one schedule variant.
#[derive(Clone, Debug)]
pub struct InterpResult {
    /// Per-thread traces, indexed by program position.
    pub traces: Vec<ThreadTrace>,
    /// Whether every thread ran to `Done` within the step budget.
    pub finished: bool,
    /// Fetch steps consumed.
    pub steps: u64,
}

/// Default total fetch-step budget per variant — generous for the study
/// kernels (tens of protocol iterations each) while bounding a
/// hypothetical non-terminating input.
pub const STEP_CAP: u64 = 2_000_000;

/// Schedule variants each analysis runs. Fixed (not scaled by
/// `--quick`) so the recovered footprint never depends on run mode.
pub const VARIANTS: u64 = 8;

/// Runs one set of fresh thread programs to completion under SC with the
/// given schedule variant. Variant 0 alternates threads every step; the
/// others rotate the start thread and draw per-turn quantum lengths from
/// [`hash64`], so spin phases and race winners differ across variants.
pub fn run_programs(
    mut programs: Vec<Box<dyn ThreadProgram>>,
    variant: u64,
    step_cap: u64,
) -> InterpResult {
    let n = programs.len();
    let mut memory: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut traces = vec![ThreadTrace::default(); n];
    let mut done = vec![false; n];
    let mut steps = 0u64;
    let mut turn = 0u64; // monotonically increasing round counter

    while steps < step_cap && done.iter().any(|d| !d) {
        // Pick the runnable thread for this turn.
        let start = (variant as usize + turn as usize) % n;
        let quantum = if variant == 0 {
            1
        } else {
            1 + (hash64(variant ^ turn.wrapping_mul(0x5851_F42D)) % 7)
        };
        turn += 1;

        let Some(t) = (0..n).map(|i| (start + i) % n).find(|&i| !done[i]) else {
            break;
        };

        let mut awaits = 0;
        for _ in 0..quantum {
            if steps >= step_cap {
                break;
            }
            steps += 1;
            match programs[t].fetch() {
                Fetch::Done => {
                    done[t] = true;
                    break;
                }
                Fetch::Await => {
                    // With synchronous delivery a program can only Await
                    // transiently (e.g. an internal backoff); yield the
                    // quantum after a couple of polls.
                    awaits += 1;
                    if awaits > 2 {
                        break;
                    }
                }
                Fetch::Instr(instr) => {
                    awaits = 0;
                    step(&mut *programs[t], instr, &mut memory, &mut traces[t]);
                }
            }
        }
    }

    InterpResult {
        traces,
        finished: done.iter().all(|&d| d),
        steps,
    }
}

/// Executes one instruction under SC: reads hit the latest store,
/// tagged values deliver synchronously, and the access is recorded
/// (spin-collapsed) into the thread's trace.
fn step(
    program: &mut dyn ThreadProgram,
    instr: Instr,
    memory: &mut std::collections::HashMap<u64, u64>,
    trace: &mut ThreadTrace,
) {
    let record = |trace: &mut ThreadTrace, a: Access| {
        if trace.accesses.last() != Some(&a) {
            trace.accesses.push(a);
        }
    };
    match instr {
        Instr::Load { addr, tag } => {
            let value = memory.get(&addr.raw()).copied().unwrap_or(0);
            record(trace, Access::Load(addr.raw()));
            if let Some(tag) = tag {
                program.deliver(tag, value);
            }
        }
        Instr::Store { addr, value } => {
            memory.insert(addr.raw(), value);
            record(trace, Access::Store(addr.raw()));
        }
        Instr::Rmw { addr, op, tag } => {
            let old = memory.get(&addr.raw()).copied().unwrap_or(0);
            if let Some(new) = op.apply(old) {
                memory.insert(addr.raw(), new);
            }
            record(trace, Access::Rmw(addr.raw()));
            program.deliver(tag, old);
        }
        Instr::Fence { .. } => record(trace, Access::Fence),
        Instr::Compute { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::MachineConfig;
    use asymfence_workloads::unannot::InferredKernel;

    fn run_kernel(kernel: InferredKernel, variant: u64) -> InterpResult {
        let cfg = MachineConfig::builder().cores(kernel.cores()).build();
        run_programs(
            kernel.programs(&cfg, asymfence_bench::SEED),
            variant,
            STEP_CAP,
        )
    }

    #[test]
    fn sb_trace_is_store_then_load_per_thread() {
        let r = run_kernel(InferredKernel::Sb, 0);
        assert!(r.finished);
        for trace in &r.traces {
            let stores = trace
                .accesses
                .iter()
                .filter(|a| matches!(a, Access::Store(_)))
                .count();
            let loads = trace
                .accesses
                .iter()
                .filter(|a| matches!(a, Access::Load(_)))
                .count();
            assert!(stores >= 1 && loads >= 1, "{:?}", trace.accesses);
            // Program order: a store precedes the final (observed) load.
            let first_store = trace
                .accesses
                .iter()
                .position(|a| matches!(a, Access::Store(_)))
                .unwrap();
            let last_load = trace
                .accesses
                .iter()
                .rposition(|a| matches!(a, Access::Load(_)))
                .unwrap();
            assert!(first_store < last_load, "{:?}", trace.accesses);
        }
    }

    #[test]
    fn every_kernel_finishes_under_every_variant() {
        for k in InferredKernel::ALL {
            for v in 0..VARIANTS {
                let r = run_kernel(k, v);
                assert!(r.finished, "{} variant {v}: {} steps", k.name(), r.steps);
            }
        }
    }

    #[test]
    fn interpretation_is_deterministic() {
        let a = run_kernel(InferredKernel::Peterson, 3);
        let b = run_kernel(InferredKernel::Peterson, 3);
        assert_eq!(a.steps, b.steps);
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.accesses, y.accesses);
        }
    }

    #[test]
    fn variants_explore_different_interleavings() {
        // Dekker's contended paths depend on who wins; at least two
        // variants should record different traces for some thread.
        let rs: Vec<InterpResult> = (0..VARIANTS)
            .map(|v| run_kernel(InferredKernel::Dekker, v))
            .collect();
        let distinct = rs
            .iter()
            .map(|r| {
                format!(
                    "{:?}",
                    r.traces.iter().map(|t| &t.accesses).collect::<Vec<_>>()
                )
            })
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "all variants produced identical traces");
    }

    #[test]
    fn spin_collapse_dedupes_consecutive_identical_loads() {
        let mut t = ThreadTrace::default();
        let mut mem = std::collections::HashMap::new();
        struct Sink;
        impl ThreadProgram for Sink {
            fn fetch(&mut self) -> Fetch {
                Fetch::Done
            }
            fn deliver(&mut self, _: u64, _: u64) {}
            fn snapshot(&self) -> Box<dyn ThreadProgram> {
                Box::new(Sink)
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
        }
        let mut p = Sink;
        let load = Instr::Load {
            addr: asymfence::prelude::Addr::new(8),
            tag: None,
        };
        step(&mut p, load.clone(), &mut mem, &mut t);
        step(&mut p, load, &mut mem, &mut t);
        assert_eq!(t.accesses.len(), 1);
    }
}
