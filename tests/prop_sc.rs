//! Property tests of the headline guarantee: for arbitrary small fenced
//! programs, every fence design preserves sequential consistency (the
//! Shasha–Snir checker finds no cycle), no design deadlocks on asymmetric
//! groups, and runs are deterministic.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_sc.seeds` and
//! replay before fresh cases on every run. `ASF_PROP_CASES` /
//! `ASF_PROP_SEED` override the budget and base seed.

use asymfence_common::prop::{
    bools, check, pairs, triples, u8s, vecs, BoolGen, Config, PairGen, U8Range, VecGen,
};
use asymfence_suite::prelude::*;

/// A generated thread: interleaved `(is_store, slot)` ops over a tiny
/// address pool, with a fence inserted after every store when built (the
/// conservative placement a compiler enforcing SC would use; Shasha–Snir
/// delay-set placement would only remove fences).
type GenThread = Vec<(bool, u8)>;

fn gen_thread(max_ops: usize) -> VecGen<PairGen<BoolGen, U8Range>> {
    vecs(pairs(bools(), u8s(0, 3)), 1, max_ops)
}

fn cfg() -> Config {
    Config::from_env(16).regressions("tests/regressions/prop_sc.seeds")
}

fn slot_addr(slot: u8) -> Addr {
    // Separate lines per slot to keep the SC argument clean; false
    // sharing is tested elsewhere.
    Addr::new(0x40 * slot as u64)
}

fn build_program(t: &GenThread, role: FenceRole, salt: u64) -> (ScriptProgram, Registers) {
    let mut instrs = Vec::new();
    let mut tag = 1;
    for (i, (is_store, slot)) in t.iter().enumerate() {
        if *is_store {
            instrs.push(Instr::Store {
                addr: slot_addr(*slot),
                value: salt * 1000 + i as u64 + 1,
            });
            instrs.push(Instr::fence(role));
        } else {
            instrs.push(Instr::Load {
                addr: slot_addr(*slot),
                tag: Some(tag),
            });
            tag += 1;
        }
    }
    ScriptProgram::new(instrs)
}

fn run_design(
    design: FenceDesign,
    threads: &[GenThread],
    roles: &[FenceRole],
) -> Result<MachineStats, String> {
    let cfg = MachineConfig::builder()
        .cores(threads.len().max(2))
        .fence_design(design)
        .record_scv_log(true)
        .watchdog_cycles(50_000)
        .build();
    let mut m = Machine::new(&cfg);
    for (i, t) in threads.iter().enumerate() {
        let (p, _regs) = build_program(t, roles[i], i as u64 + 1);
        m.add_thread(Box::new(p));
    }
    let outcome = m.run(30_000_000);
    if outcome != RunOutcome::Finished {
        return Err(format!("{design} must not deadlock, got {outcome:?}"));
    }
    let log = m.scv_log().expect("log on");
    if let Some(c) = scv::find_cycle(log) {
        return Err(format!(
            "{design} violated SC:\n{}",
            scv::describe_cycle(log, &c)
        ));
    }
    Ok(m.stats())
}

/// Two fully-fenced threads stay SC under every design; roles follow each
/// design's grouping assumption: WS+ takes at most one weak fence, SW+
/// takes any *asymmetric* group (one fence stays strong — an all-weak
/// group is W+/Wee-only, and the schedule explorer shows SW+ can mutually
/// bounce an all-weak Dekker's pre-sets forever), W+/Wee take any group.
#[test]
fn two_threads_fenced_is_sc() {
    use FenceRole::{Critical, NonCritical};
    check(
        "two_threads_fenced_is_sc",
        &cfg(),
        &pairs(gen_thread(8), gen_thread(8)),
        |(a, b)| {
            let threads = [a.clone(), b.clone()];
            run_design(FenceDesign::SPlus, &threads, &[NonCritical, NonCritical])?;
            run_design(FenceDesign::WsPlus, &threads, &[Critical, NonCritical])?;
            run_design(FenceDesign::SwPlus, &threads, &[Critical, NonCritical])?;
            run_design(FenceDesign::WPlus, &threads, &[Critical, Critical])?;
            run_design(FenceDesign::Wee, &threads, &[Critical, Critical])?;
            Ok(())
        },
    );
}

/// Three threads, any asymmetric grouping for SW+, all-weak for W+/Wee.
#[test]
fn three_threads_fenced_is_sc() {
    use FenceRole::{Critical, NonCritical};
    check(
        "three_threads_fenced_is_sc",
        &cfg(),
        &triples(gen_thread(6), gen_thread(6), gen_thread(6)),
        |(a, b, c)| {
            let threads = [a.clone(), b.clone(), c.clone()];
            run_design(
                FenceDesign::WsPlus,
                &threads,
                &[Critical, NonCritical, NonCritical],
            )?;
            run_design(
                FenceDesign::SwPlus,
                &threads,
                &[Critical, Critical, NonCritical],
            )?;
            run_design(
                FenceDesign::WPlus,
                &threads,
                &[Critical, Critical, Critical],
            )?;
            run_design(FenceDesign::Wee, &threads, &[Critical, Critical, Critical])?;
            Ok(())
        },
    );
}

/// Cycle-exact determinism for arbitrary programs.
#[test]
fn runs_are_deterministic() {
    use FenceRole::Critical;
    check(
        "runs_are_deterministic",
        &cfg(),
        &pairs(gen_thread(8), gen_thread(8)),
        |(a, b)| {
            let threads = [a.clone(), b.clone()];
            let s1 = run_design(FenceDesign::WPlus, &threads, &[Critical, Critical])?;
            let s2 = run_design(FenceDesign::WPlus, &threads, &[Critical, Critical])?;
            if s1 != s2 {
                return Err(format!("non-deterministic stats:\n{s1:?}\n{s2:?}"));
            }
            Ok(())
        },
    );
}

/// The memory image after a run holds, for each slot, the value of some
/// store that targeted it (no corruption, no lost lines).
#[test]
fn final_memory_is_one_of_the_written_values() {
    use FenceRole::{Critical, NonCritical};
    check(
        "final_memory_is_one_of_the_written_values",
        &cfg(),
        &pairs(gen_thread(8), gen_thread(8)),
        |(a, b)| {
            let threads = [a.clone(), b.clone()];
            let cfg = MachineConfig::builder()
                .cores(2)
                .fence_design(FenceDesign::WsPlus)
                .build();
            let mut m = Machine::new(&cfg);
            let mut candidates: Vec<Vec<u64>> = vec![vec![0]; 4];
            for (i, t) in threads.iter().enumerate() {
                let role = if i == 0 { Critical } else { NonCritical };
                let (p, _) = build_program(t, role, i as u64 + 1);
                m.add_thread(Box::new(p));
                for (j, (is_store, slot)) in t.iter().enumerate() {
                    if *is_store {
                        candidates[*slot as usize].push((i as u64 + 1) * 1000 + j as u64 + 1);
                    }
                }
            }
            if m.run(30_000_000) != RunOutcome::Finished {
                return Err("run did not finish".into());
            }
            for slot in 0..4u8 {
                let v = m.read_memory(slot_addr(slot));
                if !candidates[slot as usize].contains(&v) {
                    return Err(format!(
                        "slot {} = {} not in {:?}",
                        slot, v, candidates[slot as usize]
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Pinned regression carried over from the proptest era
/// (`tests/prop_sc.proptest-regressions`): proptest shrank a two-thread
/// failure to `a = [(true, 0)]`, `b = [(true, 0), (true, 0), (false, 0)]`.
/// Kept as a hard case across every design's legal grouping.
#[test]
fn pinned_regression_store_store_load() {
    use FenceRole::{Critical, NonCritical};
    let a: GenThread = vec![(true, 0)];
    let b: GenThread = vec![(true, 0), (true, 0), (false, 0)];
    let threads = [a, b];
    run_design(FenceDesign::SPlus, &threads, &[NonCritical, NonCritical]).unwrap();
    run_design(FenceDesign::WsPlus, &threads, &[Critical, NonCritical]).unwrap();
    run_design(FenceDesign::SwPlus, &threads, &[Critical, NonCritical]).unwrap();
    run_design(FenceDesign::WPlus, &threads, &[Critical, Critical]).unwrap();
    run_design(FenceDesign::Wee, &threads, &[Critical, Critical]).unwrap();
}
