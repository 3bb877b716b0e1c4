//! Pins the tentpole zero-allocation property: re-arming a warmed
//! [`Machine`] with [`Machine::reset`] and running a workload touches
//! the heap **zero** times.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; counting is
//! switched on only around the steady-state region (reset + add
//! prebuilt threads + run), so the warm-up run and program construction
//! — which legitimately allocate — stay outside the window. The test
//! workload issues stores striped over a few per-core private lines:
//! load MSHRs, request parking and trace/SCV logging are off the code
//! path by construction, which is exactly the steady-state profile the
//! pool optimizes (see `DESIGN.md` §5g). The fenced variant adds a fence
//! every [`FENCE_EVERY`] stores, so the always-on fence book (issue,
//! complete, tally) runs in the window too.
//!
//! The switch and the counters are per thread, so only the armed test's
//! own allocations count and the tests may run side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::thread::LocalKey;

use asymfence::cpu::program::{Fetch, Instr, ThreadProgram};
use asymfence::prelude::*;
use asymfence_common::config::MachineConfig;
use asymfence_common::ids::Addr;

/// System allocator wrapper that counts (re)allocations on an armed
/// thread.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(counter: &'static LocalKey<Cell<u64>>) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Stores striped over `LINES` private lines, optionally with a fence
/// of one role after every [`FENCE_EVERY`] stores, then done. Heap-free
/// in `fetch`/`deliver`, so every counted allocation belongs to the
/// simulator.
#[derive(Clone, Copy)]
struct StripeStores {
    base: u64,
    line_bytes: u64,
    remaining: u64,
    fence: Option<FenceRole>,
    since_fence: u64,
}

const LINES: u64 = 8;

/// Stores between two fences in the fenced workload.
const FENCE_EVERY: u64 = 8;

impl ThreadProgram for StripeStores {
    fn fetch(&mut self) -> Fetch {
        if self.remaining == 0 {
            return Fetch::Done;
        }
        if let Some(role) = self.fence {
            if self.since_fence == FENCE_EVERY {
                self.since_fence = 0;
                return Fetch::Instr(Instr::fence(role));
            }
        }
        self.since_fence += 1;
        self.remaining -= 1;
        let line = self.remaining % LINES;
        Fetch::Instr(Instr::Store {
            addr: Addr::new(self.base + line * self.line_bytes),
            value: self.remaining,
        })
    }

    fn deliver(&mut self, _tag: u64, _value: u64) {}

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(*self)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// One striped-store program per core; with `fenced`, core 0's fences
/// are critical and every other core's non-critical.
fn programs(cfg: &MachineConfig, fenced: bool) -> Vec<Box<dyn ThreadProgram>> {
    (0..cfg.num_cores)
        .map(|core| {
            let role = if core == 0 {
                FenceRole::Critical
            } else {
                FenceRole::NonCritical
            };
            Box::new(StripeStores {
                // Disjoint per-core regions: no sharing, no parking.
                base: 0x1_0000 * (core as u64 + 1),
                line_bytes: cfg.line_bytes,
                remaining: 4096,
                fence: fenced.then_some(role),
                since_fence: 0,
            }) as Box<dyn ThreadProgram>
        })
        .collect()
}

/// Warms a two-core machine under `design`, then counts the heap calls
/// of one reset + install + run: `(allocations, reallocations)`.
fn steady_state_heap_calls(design: FenceDesign, fenced: bool) -> (u64, u64) {
    let cfg = Arc::new(
        MachineConfig::builder()
            .cores(2)
            .fence_design(design)
            .seed(1)
            .build(),
    );

    // Warm-up: builds the machine and grows every container (heaps,
    // maps, cache arrays, write-buffer slabs, the fence book's open
    // lists) to its steady-state capacity. Allocations here are
    // expected and uncounted.
    let mut m = Machine::new_shared(Arc::clone(&cfg));
    for p in programs(&cfg, fenced) {
        m.add_thread(p);
    }
    let warm_outcome = m.run(u64::MAX);
    assert_eq!(warm_outcome, RunOutcome::Finished, "{design:?}");
    let warm_cycles = m.now();
    let warm_tallies = m.fence_book().tallies().clone();

    // Prebuild the second run's thread programs outside the window (the
    // boxes themselves allocate).
    let progs = programs(&cfg, fenced);

    // Steady state: reset + install + run, with the counter armed.
    ALLOCS.set(0);
    REALLOCS.set(0);
    ARMED.set(true);
    let reused = m.reset(&cfg);
    for p in progs {
        m.add_thread(p);
    }
    let outcome = m.run(u64::MAX);
    ARMED.set(false);

    assert!(reused, "same shape must re-arm in place, not rebuild");
    assert_eq!(outcome, RunOutcome::Finished, "{design:?}");
    assert_eq!(m.now(), warm_cycles, "reset must reproduce the run exactly");
    assert_eq!(
        m.fence_book().tallies(),
        &warm_tallies,
        "reset must clear the fence book"
    );
    let issued: u64 = warm_tallies.iter().map(|t| t.issued).sum();
    assert_eq!(issued > 0, fenced, "{design:?}: fences issued {issued}");
    (ALLOCS.get(), REALLOCS.get())
}

#[test]
fn pooled_reset_and_run_is_allocation_free() {
    assert_eq!(
        steady_state_heap_calls(FenceDesign::SPlus, false),
        (0, 0),
        "steady-state pooled run must not touch the heap"
    );
}

/// Fenced runs fold every fence into the machine's fence book; that
/// must not touch the heap either. Under Wee every weak fence also
/// deposits its Pending Set at the GRT and arms on the reply, all in
/// buffers that keep their capacity across resets. W+ (one program
/// snapshot per checkpoint) still allocates per fence and stays out of
/// this test.
#[test]
fn fenced_pooled_runs_are_allocation_free() {
    let got: Vec<_> = [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::Wee,
    ]
    .into_iter()
    .map(|design| (design, steady_state_heap_calls(design, true)))
    .collect();
    assert!(
        got.iter().all(|(_, calls)| *calls == (0, 0)),
        "steady-state fenced runs must not touch the heap: {got:?}"
    );
}
