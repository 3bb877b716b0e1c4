//! Native litmus hammering: the store-buffering and message-passing
//! shapes the simulator proves bounded-exhaustively, re-run on real
//! threads under the native fence pairs.
//!
//! These are loom-shaped stress tests, not proofs: each kernel races
//! its two threads through thousands of fresh rounds and asserts the
//! forbidden outcome never surfaces. With the asymmetric pair the heavy
//! side (membarrier, or `fence(SeqCst)` on the fallback backend) is the
//! only hardware fence in the race — exactly the paper's claim that the
//! hot side needs none.
//!
//! Iteration count: `ASF_NATIVE_ITERS` (default 4000; CI raises it).

use asymfence_native::{
    backend, dekker, deque_churn, mp_hammer, peterson, sb_hammer, tlrw_counter, FencePair,
};

fn iters() -> u64 {
    std::env::var("ASF_NATIVE_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4_000)
}

fn sb_clean(pair: FencePair) {
    let r = sb_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "SB both-read-0 observed under {} on backend {}",
        pair.name(),
        backend().label()
    );
    assert_eq!(r.ops, iters());
}

fn mp_clean(pair: FencePair) {
    let r = mp_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "MP stale data observed under {} on backend {}",
        pair.name(),
        backend().label()
    );
}

/// SB with the asymmetric pair: thread 0's fence is a compiler fence
/// under the membarrier backend, thread 1's is the heavy side. The
/// paper's headline litmus.
#[test]
fn sb_asymmetric_never_violates() {
    sb_clean(FencePair::ASYMMETRIC);
}

/// SB with both sides heavy (S+ analogue).
#[test]
fn sb_all_heavy_never_violates() {
    sb_clean(FencePair::ALL_HEAVY);
}

/// SB with the portable `fence(SeqCst)` control.
#[test]
fn sb_seqcst_never_violates() {
    sb_clean(FencePair::SEQCST);
}

/// MP with the asymmetric pair: the writer pays the heavy fence, the
/// reader's fence is compiler-only under membarrier.
#[test]
fn mp_asymmetric_never_violates() {
    mp_clean(FencePair::ASYMMETRIC);
}

/// MP with both sides heavy.
#[test]
fn mp_all_heavy_never_violates() {
    mp_clean(FencePair::ALL_HEAVY);
}

/// Dekker mutual exclusion holds under the asymmetric pair: the CS
/// witness never sees a second occupant across `iters` entries/thread.
#[test]
fn dekker_asymmetric_mutual_exclusion() {
    let r = dekker(FencePair::ASYMMETRIC, iters());
    assert_eq!(r.violations, 0, "on backend {}", backend().label());
    assert_eq!(r.ops, 2 * iters());
}

/// The THE deque conserves tasks under an owner/thief race with the
/// asymmetric pair (no task lost to the take/steal fence window, none
/// handed out twice).
#[test]
fn deque_conserves_tasks_asymmetric() {
    let r = deque_churn(FencePair::ASYMMETRIC, iters());
    assert_eq!(r.violations, 0, "on backend {}", backend().label());
    assert_eq!(r.ops, 2 * iters());
}

/// Builds a native [`FencePair`] by running the whole inference
/// pipeline on an *unannotated* kernel: recover footprints, place
/// fences, synthesize WS+ strengths (8-seed oracle), and lower to C11.
/// Thread 0's site fills the `critical` slot, thread 1's the
/// `noncritical` one — the same wiring the native kernels use.
fn analyzer_lowered_pair(
    kernel: asymfence_workloads::unannot::InferredKernel,
) -> (FencePair, bool) {
    use asymfence::prelude::FenceDesign;
    use asymfence_explore::{ExploreConfig, Explorer};

    let a = asymfence_analyze::analyze(kernel, asymfence_bench::SEED);
    let explorer = Explorer::new(ExploreConfig {
        seeds: 8,
        ..Default::default()
    });
    let runner = asymfence_bench::Runner::with_jobs(2).progress(false);
    let mut synth = asymfence_synth::Synthesizer::new(explorer, runner, asymfence_bench::SEED);
    let r = synth.synthesize_inferred(a.kernel, &a.placement, FenceDesign::WsPlus, None);
    let best = r
        .best
        .expect("inferred placement must be oracle-valid under WS+");
    let lowering = asymfence_analyze::lower(&a.placement, &r.groups, best.mask);

    let fence_of = |thread: usize| {
        let i = a
            .placement
            .fences
            .iter()
            .position(|f| f.thread == thread)
            .expect("one site per thread");
        lowering.fences[i].lower
    };
    (
        FencePair {
            critical: fence_of(0),
            noncritical: fence_of(1),
        },
        lowering.asymmetric,
    )
}

/// The tentpole end-to-end: the analyzer's zero-annotation Peterson
/// placement, synthesized and lowered to C11, holds mutual exclusion on
/// real threads. Run under both backends in CI (the default and
/// `ASF_NATIVE_BACKEND=fallback`).
#[test]
fn peterson_analyzer_lowered_c11_mutual_exclusion() {
    let (pair, asymmetric) =
        analyzer_lowered_pair(asymfence_workloads::unannot::InferredKernel::Peterson);
    assert!(asymmetric, "peterson's WS+ lowering should be light/heavy");
    let r = peterson(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "analyzer-lowered Peterson violated mutual exclusion under {:?} on backend {}",
        pair,
        backend().label()
    );
    assert_eq!(r.ops, 2 * iters());
}

/// Same pipeline on the store-buffering kernel: the inferred WS+
/// lowering (heavy on thread 0, light on thread 1) forbids the
/// both-read-0 outcome on silicon.
#[test]
fn sb_analyzer_lowered_c11_never_violates() {
    let (pair, asymmetric) =
        analyzer_lowered_pair(asymfence_workloads::unannot::InferredKernel::Sb);
    assert!(asymmetric, "sb's WS+ lowering should be light/heavy");
    let r = sb_hammer(pair, iters());
    assert_eq!(
        r.violations,
        0,
        "analyzer-lowered SB observed both-read-0 under {:?} on backend {}",
        pair,
        backend().label()
    );
}

/// TLRW loses no increments on a hot counter under the asymmetric pair
/// (the read barrier's store→load window is the racy part).
#[test]
fn tlrw_counter_exact_asymmetric() {
    let per_thread = iters().min(10_000);
    let r = tlrw_counter(FencePair::ASYMMETRIC, per_thread);
    assert_eq!(r.violations, 0, "on backend {}", backend().label());
}
