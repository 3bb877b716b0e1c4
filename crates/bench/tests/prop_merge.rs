//! Property tests pinning [`RunResult::merge`]'s algebra: associative,
//! right-identity with the zero result, grouping-invariant in a fold —
//! and deliberately *not* commutative (the first operand's `outcome`
//! wins), which is why every ledger merge folds cells in grid-index
//! order.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_merge.seeds`
//! and replay before fresh cases.

use asymfence::prelude::RunOutcome;
use asymfence_bench::RunResult;
use asymfence_common::prop::{check, map, triples, u64s, u8s, vecs, Config};
use asymfence_common::stats::CoreStats;
use asymfence_common::MachineStats;

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_merge.seeds")
}

type ResultRaw = ((u64, u64, u64), (u8, u8), Vec<Vec<u64>>);

fn build_result(raw: ResultRaw) -> RunResult {
    let ((cycles, commits, aborts), (outcome, scv), cores) = raw;
    let mut stats = MachineStats {
        cycles,
        ..MachineStats::default()
    };
    stats.cores = cores
        .iter()
        .map(|vals| CoreStats::from_values(vals).expect("generator emits FIELDS values"))
        .collect();
    RunResult {
        cycles,
        stats,
        commits,
        aborts,
        outcome: match outcome % 3 {
            0 => RunOutcome::Finished,
            1 => RunOutcome::Deadlocked,
            _ => RunOutcome::CycleLimit,
        },
        scv: scv % 2 == 1,
    }
}

fn result_gen() -> impl asymfence_common::prop::Gen<Value = RunResult> {
    map(
        triples(
            triples(u64s(0, 1 << 40), u64s(0, 1 << 20), u64s(0, 1 << 20)),
            map(
                triples(u8s(0, 5), u8s(0, 3), u8s(0, 0)),
                |(a, b, _): (u8, u8, u8)| (a, b),
            ),
            vecs(
                vecs(u64s(0, 1 << 20), CoreStats::FIELDS, CoreStats::FIELDS),
                0,
                3,
            ),
        ),
        build_result,
    )
}

fn merged(a: &RunResult, b: &RunResult) -> RunResult {
    let mut out = a.clone();
    out.merge(b);
    out
}

fn zero() -> RunResult {
    RunResult {
        cycles: 0,
        stats: MachineStats::default(),
        commits: 0,
        aborts: 0,
        outcome: RunOutcome::Finished,
        scv: false,
    }
}

/// Field-wise equality; `RunResult` itself doesn't derive `PartialEq`
/// because `RunOutcome` comparisons are usually asserted, not compared.
fn same(a: &RunResult, b: &RunResult) -> bool {
    a.cycles == b.cycles
        && a.stats == b.stats
        && a.commits == b.commits
        && a.aborts == b.aborts
        && a.outcome == b.outcome
        && a.scv == b.scv
}

#[test]
fn run_result_merge_is_associative() {
    let gen = triples(result_gen(), result_gen(), result_gen());
    check(
        "run_result_merge_is_associative",
        &prop_cfg(64),
        &gen,
        |(a, b, c)| {
            let left = merged(&merged(a, b), c);
            let right = merged(a, &merged(b, c));
            if !same(&left, &right) {
                return Err(format!("(a·b)·c != a·(b·c): {left:?} vs {right:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn run_result_zero_is_a_right_identity_but_not_left() {
    check(
        "run_result_zero_is_a_right_identity_but_not_left",
        &prop_cfg(64),
        &result_gen(),
        |r| {
            if !same(&merged(r, &zero()), r) {
                return Err("r·0 != r".into());
            }
            // Left-merging keeps the zero's outcome: the fold must start
            // from the first real result (or track outcomes separately),
            // never from a synthetic zero. Everything else still matches.
            let left = merged(&zero(), r);
            if left.outcome != RunOutcome::Finished {
                return Err("0·r should keep the zero's outcome".into());
            }
            if left.cycles != r.cycles || left.stats != r.stats || left.scv != r.scv {
                return Err("0·r dropped counters".into());
            }
            Ok(())
        },
    );
}

#[test]
fn run_result_fold_is_grouping_invariant() {
    let gen = vecs(result_gen(), 1, 6);
    check(
        "run_result_fold_is_grouping_invariant",
        &prop_cfg(48),
        &gen,
        |parts| {
            // Serial left fold from the first element (the collector's
            // shape: first record creates the cell, the rest merge in).
            let serial = parts[1..]
                .iter()
                .fold(parts[0].clone(), |acc, r| merged(&acc, r));
            // Pairwise tree reduction over the same order.
            let mut layer: Vec<RunResult> = parts.clone();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| c[1..].iter().fold(c[0].clone(), |acc, r| merged(&acc, r)))
                    .collect();
            }
            let tree = layer.into_iter().next().unwrap();
            if !same(&tree, &serial) {
                return Err("tree fold diverged from serial fold".into());
            }
            Ok(())
        },
    );
}

#[test]
fn run_result_merge_keeps_the_first_outcome() {
    let gen = map(
        triples(u8s(0, 5), u8s(0, 5), u8s(0, 0)),
        |(a, b, _): (u8, u8, u8)| (a, b),
    );
    check(
        "run_result_merge_keeps_the_first_outcome",
        &prop_cfg(32),
        &gen,
        |(a, b)| {
            let mk = |o: u8| {
                let mut r = zero();
                r.outcome = match o % 3 {
                    0 => RunOutcome::Finished,
                    1 => RunOutcome::Deadlocked,
                    _ => RunOutcome::CycleLimit,
                };
                r
            };
            let (ra, rb) = (mk(*a), mk(*b));
            if merged(&ra, &rb).outcome != ra.outcome {
                return Err("merge changed the first outcome".into());
            }
            Ok(())
        },
    );
}
