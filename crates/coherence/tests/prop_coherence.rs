//! Property-based tests of the coherence substrate: the memory system
//! must behave like a single serializable memory no matter how requests
//! interleave.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_coherence.seeds`
//! and replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use std::collections::{BTreeMap, BTreeSet};

use asymfence_coherence::mem::{MemEvent, MemSystem};
use asymfence_coherence::RmwKind;
use asymfence_common::config::MachineConfig;
use asymfence_common::ids::{Addr, CoreId, LineAddr};
use asymfence_common::prop::{bools, check, pairs, triples, u64s, usizes, vecs, Config};

fn cfg(cores: usize) -> MachineConfig {
    MachineConfig::builder().cores(cores).build()
}

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_coherence.seeds")
}

/// Drives the memory system until idle, collecting events per core.
fn run_to_idle(
    ms: &mut MemSystem,
    start: u64,
    limit: u64,
) -> Result<Vec<(usize, MemEvent)>, String> {
    let mut events = Vec::new();
    for t in start..start + limit {
        ms.tick(t);
        for c in 0..ms.config().num_cores {
            while let Some(ev) = ms.pop_event(CoreId(c)) {
                events.push((c, ev));
            }
        }
        if ms.is_idle() {
            break;
        }
    }
    if !ms.is_idle() {
        return Err("memory system must quiesce".into());
    }
    Ok(events)
}

/// Single-core sequential semantics: a serial run of stores and loads
/// matches a simple map model.
#[test]
fn single_core_matches_memory_model() {
    let gen = vecs(triples(u64s(0, 15), u64s(0, 999), bools()), 1, 40);
    check(
        "single_core_matches_memory_model",
        &prop_cfg(24),
        &gen,
        |ops| {
            let mut ms = MemSystem::new(&cfg(2));
            let mut model = std::collections::HashMap::new();
            let mut t = 0u64;
            for &(slot, value, is_store) in ops {
                let addr = Addr::new(slot * 8);
                if is_store {
                    ms.issue_store(t, CoreId(0), addr, value);
                    let evs = run_to_idle(&mut ms, t, 5_000)?;
                    let store_done = evs
                        .iter()
                        .any(|(_, e)| matches!(e, MemEvent::StoreDone { .. }));
                    if !store_done {
                        return Err("store did not complete".into());
                    }
                    model.insert(slot, value);
                } else {
                    let tok = ms.issue_load(t, CoreId(0), addr);
                    let evs = run_to_idle(&mut ms, t, 5_000)?;
                    let got = evs.iter().find_map(|(_, e)| match e {
                        MemEvent::LoadDone { token, value } if *token == tok => Some(*value),
                        _ => None,
                    });
                    let want = Some(*model.get(&slot).unwrap_or(&0));
                    if got != want {
                        return Err(format!("load of slot {slot}: got {got:?}, want {want:?}"));
                    }
                }
                t += 5_000;
            }
            Ok(())
        },
    );
}

/// Write serialization: concurrent stores from many cores to random
/// addresses leave every word holding one of the values written to it.
#[test]
fn concurrent_stores_serialize() {
    let gen = vecs(triples(usizes(0, 3), u64s(0, 5), u64s(1, 999)), 4, 32);
    check(
        "concurrent_stores_serialize",
        &prop_cfg(24),
        &gen,
        |writes| {
            let mut ms = MemSystem::new(&cfg(4));
            let mut per_core_busy = [false; 4];
            // Issue at most one store per core at a time (TSO write buffer).
            let mut t = 0u64;
            let mut written: std::collections::HashMap<u64, Vec<u64>> =
                std::collections::HashMap::new();
            for &(core, slot, value) in writes {
                if per_core_busy[core] {
                    // Drain everything before reusing the core.
                    run_to_idle(&mut ms, t, 200_000)?;
                    per_core_busy = [false; 4];
                    t += 200_000;
                }
                ms.issue_store(t, CoreId(core), Addr::new(slot * 8), value);
                per_core_busy[core] = true;
                written.entry(slot).or_default().push(value);
                t += 3; // slight stagger
            }
            run_to_idle(&mut ms, t, 400_000)?;
            for (slot, values) in &written {
                let final_v = ms.backdoor_read(Addr::new(slot * 8));
                if !values.contains(&final_v) {
                    return Err(format!("slot {slot} holds {final_v}, not among {values:?}"));
                }
            }
            Ok(())
        },
    );
}

/// Atomicity: N concurrent fetch-add(1) streams to one word sum exactly.
#[test]
fn rmw_add_is_atomic() {
    check(
        "rmw_add_is_atomic",
        &prop_cfg(24),
        &u64s(1, 5),
        |&per_core| {
            let cores = 4usize;
            let mut ms = MemSystem::new(&cfg(cores));
            let addr = Addr::new(0x40);
            let mut remaining: Vec<u64> = vec![per_core; cores];
            let mut outstanding: Vec<Option<u64>> = vec![None; cores];
            let mut done = 0;
            let mut t = 0u64;
            while done < cores {
                for c in 0..cores {
                    if outstanding[c].is_none() && remaining[c] > 0 {
                        outstanding[c] = Some(ms.issue_rmw(t, CoreId(c), addr, RmwKind::Add(1)));
                    }
                }
                ms.tick(t);
                for c in 0..cores {
                    while let Some(ev) = ms.pop_event(CoreId(c)) {
                        if let MemEvent::RmwDone { token, .. } = ev {
                            if outstanding[c] == Some(token) {
                                outstanding[c] = None;
                                remaining[c] -= 1;
                                if remaining[c] == 0 {
                                    done += 1;
                                }
                            }
                        }
                    }
                }
                t += 1;
                if t >= 2_000_000 {
                    return Err("RMW streams must make progress".into());
                }
            }
            run_to_idle(&mut ms, t, 100_000)?;
            let got = ms.backdoor_read(addr);
            let want = per_core * cores as u64;
            if got != want {
                return Err(format!("sum {got}, want {want}"));
            }
            Ok(())
        },
    );
}

/// A Bypass-Set entry always bounces conflicting writes until cleared,
/// and the write always completes afterwards.
#[test]
fn bounce_then_complete() {
    let gen = pairs(u64s(0, 31), u64s(1, 99));
    check(
        "bounce_then_complete",
        &prop_cfg(24),
        &gen,
        |&(slot, value)| {
            let mut ms = MemSystem::new(&cfg(2));
            let addr = Addr::new(slot * 8);
            let line = asymfence_common::ids::LineAddr::containing(addr, 32);
            // Core 1 reads and protects the line.
            ms.issue_load(0, CoreId(1), addr);
            run_to_idle(&mut ms, 0, 10_000)?;
            ms.bs_insert(CoreId(1), line, 1, 1);
            // Core 0 writes: must bounce at least once.
            let tok = ms.issue_store(10_000, CoreId(0), addr, value);
            let mut bounced = false;
            for t in 10_000..60_000 {
                ms.tick(t);
                while let Some(ev) = ms.pop_event(CoreId(0)) {
                    if matches!(ev, MemEvent::StoreBounced { token } if token == tok) {
                        bounced = true;
                    }
                }
                if bounced {
                    break;
                }
            }
            if !bounced {
                return Err("BS must bounce the conflicting write".into());
            }
            // Clear the BS: the store completes and the value lands.
            ms.bs_clear_completed(CoreId(1), 1);
            let mut completed = false;
            for t in 60_000..200_000 {
                ms.tick(t);
                while let Some(ev) = ms.pop_event(CoreId(0)) {
                    if matches!(ev, MemEvent::StoreDone { token } if token == tok) {
                        completed = true;
                    }
                }
                while ms.pop_event(CoreId(1)).is_some() {}
                if completed && ms.is_idle() {
                    break;
                }
            }
            if !completed {
                return Err("store must complete after BS clear".into());
            }
            let got = ms.backdoor_read(addr);
            if got != value {
                return Err(format!("memory holds {got}, want {value}"));
            }
            Ok(())
        },
    );
}

/// The GRT against a map model: each step registers a fence (Pending
/// Set drawn from a line mask) or unregisters one of the core's open
/// fences, then runs to idle. Every registration arms exactly once,
/// against the sorted union of the other cores' open Pending Sets.
#[test]
fn grt_matches_a_map_of_open_fences() {
    let gen = pairs(
        usizes(2, 4),
        vecs(triples(usizes(0, 3), bools(), u64s(1, 255)), 1, 24),
    );
    check(
        "grt_matches_a_map_of_open_fences",
        &prop_cfg(32),
        &gen,
        |(cores, steps)| {
            let mut ms = MemSystem::new(&cfg(*cores));
            let mut open: BTreeMap<(usize, u64), Vec<LineAddr>> = BTreeMap::new();
            let mut next_serial = vec![1u64; *cores];
            let mut t = 0u64;
            for &(core, register, mask) in steps {
                let core = core % cores;
                let mine: Vec<u64> = open
                    .range((core, 0)..(core + 1, 0))
                    .map(|(k, _)| k.1)
                    .collect();
                let armed = if register || mine.is_empty() {
                    let serial = next_serial[core];
                    next_serial[core] += 1;
                    let ps: Vec<LineAddr> = (0..8)
                        .filter(|bit| mask >> bit & 1 == 1)
                        .map(LineAddr::from_raw)
                        .collect();
                    ms.wee_register(t, CoreId(core), serial, &ps);
                    let want: BTreeSet<LineAddr> = open
                        .iter()
                        .filter(|((c, _), _)| *c != core)
                        .flat_map(|(_, lines)| lines.iter().copied())
                        .collect();
                    open.insert((core, serial), ps);
                    Some((serial, want))
                } else {
                    let serial = mine[mask as usize % mine.len()];
                    ms.wee_unregister(t, CoreId(core), serial);
                    open.remove(&(core, serial));
                    None
                };
                let got = run_to_idle(&mut ms, t, 1_000)?;
                t += 1_000;
                match armed {
                    Some((serial, want)) => {
                        if got
                            != [(
                                core,
                                MemEvent::WeeArmed {
                                    fence_serial: serial,
                                },
                            )]
                        {
                            return Err(format!("core {core} fence {serial}: events {got:?}"));
                        }
                        let remote = ms.wee_remote(CoreId(core), serial);
                        if !remote.iter().copied().eq(want.iter().copied()) {
                            return Err(format!(
                                "core {core} fence {serial} read {remote:?}, want {want:?}"
                            ));
                        }
                    }
                    None if !got.is_empty() => {
                        return Err(format!("removal raised events {got:?}"));
                    }
                    None => {}
                }
            }
            Ok(())
        },
    );
}
