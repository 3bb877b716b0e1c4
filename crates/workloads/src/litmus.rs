//! Litmus programs reproducing the paper's figures.
//!
//! Each builder returns ready-to-install thread programs plus the
//! register files holding the observed values, so tests, examples and
//! the experiment harness can check SC outcomes, deadlock behaviour, and
//! Order/Conditional-Order resolution. The programs are made
//! timing-robust the same way as the cpu-crate tests: a warming load so
//! the critical post-fence load is an L1 hit, and a cold "dummy" store
//! that keeps the write buffer busy while the fence group forms.

use asymfence::prelude::{
    Addr, FenceRole, FenceSite, Instr, Registers, ScriptProgram, ThreadProgram,
};

/// Programs plus their observation registers.
pub type LitmusSetup = (Vec<Box<dyn ThreadProgram>>, Vec<Registers>);

/// Tag under which every litmus thread records its final read.
pub const OBSERVED: u64 = 1;

const SPIN: u64 = 1600;

fn side(mine: Addr, other: Addr, dummy: Addr, fence: Option<(FenceSite, FenceRole)>) -> Vec<Instr> {
    let mut v = vec![
        Instr::Load {
            addr: other,
            tag: None,
        }, // warm the observed line
        Instr::Compute { cycles: SPIN },
        Instr::Store {
            addr: dummy,
            value: 1,
        }, // cold: holds the WB ~200 cycles
        Instr::Store {
            addr: mine,
            value: 1,
        },
    ];
    if let Some((site, role)) = fence {
        v.push(Instr::fence_at(site, role));
    }
    v.push(Instr::Load {
        addr: other,
        tag: Some(OBSERVED),
    });
    v
}

fn dummy(i: usize) -> Addr {
    Addr::new(0x4000 + 0x100 * i as u64)
}

/// Store-buffering (Dekker) litmus, Figure 1d: two threads, crossed
/// store→fence→load. Without fences TSO allows both threads to read 0;
/// with fences that outcome is an SCV and must not occur.
pub fn store_buffering(fences: Option<(FenceRole, FenceRole)>) -> LitmusSetup {
    let x = Addr::new(0x00);
    let y = Addr::new(0x40);
    let (fa, fb) = match fences {
        Some((a, b)) => (Some((FenceSite(0), a)), Some((FenceSite(1), b))),
        None => (None, None),
    };
    let (pa, ra) = ScriptProgram::new(side(x, y, dummy(0), fa));
    let (pb, rb) = ScriptProgram::new(side(y, x, dummy(1), fb));
    (vec![Box::new(pa), Box::new(pb)], vec![ra, rb])
}

/// Three-thread cycle, Figures 1e/1f and 3c:
/// `P0: wr x; F; rd y | P1: wr y; F; rd z | P2: wr z; F; rd x`.
/// The all-read-0 outcome is the SCV.
pub fn three_thread_cycle(roles: [FenceRole; 3]) -> LitmusSetup {
    let x = Addr::new(0x00);
    let y = Addr::new(0x40);
    let z = Addr::new(0x80);
    let mk = |mine, other, i: usize, role| {
        ScriptProgram::new(side(
            mine,
            other,
            dummy(i),
            Some((FenceSite(i as u32), role)),
        ))
    };
    let (p0, r0) = mk(x, y, 0, roles[0]);
    let (p1, r1) = mk(y, z, 1, roles[1]);
    let (p2, r2) = mk(z, x, 2, roles[2]);
    (
        vec![Box::new(p0), Box::new(p1), Box::new(p2)],
        vec![r0, r1, r2],
    )
}

/// Figure 4b: two *unrelated* weak fences whose accesses falsely share
/// cache lines (each thread writes word 0 of a line and reads word 1 of
/// the other's line). WS+/SW+ must resolve the bounce cycle with an
/// Order / Conditional Order; an unprotected design deadlocks.
pub fn false_sharing_pair(role_a: FenceRole, role_b: FenceRole) -> LitmusSetup {
    let x = Addr::new(0x00);
    let x2 = Addr::new(0x08); // same line as x
    let y = Addr::new(0x40);
    let y2 = Addr::new(0x48); // same line as y
    let (pa, ra) = ScriptProgram::new(side(x, y2, dummy(0), Some((FenceSite(0), role_a))));
    let (pb, rb) = ScriptProgram::new(side(y, x2, dummy(1), Some((FenceSite(1), role_b))));
    (vec![Box::new(pa), Box::new(pb)], vec![ra, rb])
}

/// Message passing: `P0: wr data; wr flag | P1: rd flag; rd data`.
/// Needs no fences under TSO (no store-store or load-load reordering):
/// if `flag` is observed as 1, `data` must be 1. P1 re-reads the flag a
/// few times to give P0 time to publish.
pub fn message_passing() -> LitmusSetup {
    let data = Addr::new(0x00);
    let flag = Addr::new(0x40);
    let (p0, r0) = ScriptProgram::new(vec![
        Instr::Store {
            addr: data,
            value: 1,
        },
        Instr::Store {
            addr: flag,
            value: 1,
        },
        Instr::Load {
            addr: data,
            tag: Some(OBSERVED),
        },
    ]);
    let mut i1 = Vec::new();
    for k in 0..40 {
        i1.push(Instr::Load {
            addr: flag,
            tag: Some(100 + k),
        });
        i1.push(Instr::Compute { cycles: 20 });
    }
    i1.push(Instr::Load {
        addr: flag,
        tag: Some(2),
    });
    i1.push(Instr::Load {
        addr: data,
        tag: Some(OBSERVED),
    });
    let (p1, r1) = ScriptProgram::new(i1);
    (vec![Box::new(p0), Box::new(p1)], vec![r0, r1])
}

/// Message passing with fences: `P0: wr data; F; wr flag | P1: rd flag;
/// F; rd data`. Redundant under TSO (which already orders both pairs),
/// so the fenced variant must stay SC under every design — it pins the
/// "fences never weaken an already-SC program" direction.
pub fn message_passing_fenced(role_a: FenceRole, role_b: FenceRole) -> LitmusSetup {
    let data = Addr::new(0x00);
    let flag = Addr::new(0x40);
    let (p0, r0) = ScriptProgram::new(vec![
        Instr::Store {
            addr: data,
            value: 1,
        },
        Instr::fence_at(FenceSite(0), role_a),
        Instr::Store {
            addr: flag,
            value: 1,
        },
        Instr::Load {
            addr: data,
            tag: Some(OBSERVED),
        },
    ]);
    let (p1, r1) = ScriptProgram::new(vec![
        Instr::Load {
            addr: flag,
            tag: Some(2),
        },
        Instr::fence_at(FenceSite(1), role_b),
        Instr::Load {
            addr: data,
            tag: Some(OBSERVED),
        },
    ]);
    (vec![Box::new(p0), Box::new(p1)], vec![r0, r1])
}

/// Load buffering: `P0: rd y; wr x | P1: rd x; wr y`. The both-loads-
/// see-1 outcome needs load→store reordering, which TSO forbids — SC
/// without any fences.
pub fn load_buffering() -> LitmusSetup {
    let x = Addr::new(0x00);
    let y = Addr::new(0x40);
    let mk = |other, mine| {
        ScriptProgram::new(vec![
            Instr::Load {
                addr: other,
                tag: Some(OBSERVED),
            },
            Instr::Store {
                addr: mine,
                value: 1,
            },
        ])
    };
    let (p0, r0) = mk(y, x);
    let (p1, r1) = mk(x, y);
    (vec![Box::new(p0), Box::new(p1)], vec![r0, r1])
}

/// Independent reads of independent writes: two writers, two readers
/// observing in opposite orders. Invalidation-based coherence is
/// single-copy atomic, so the readers can never disagree on the write
/// order (`r2: x=1,y=0` with `r3: y=1,x=0` is forbidden) — SC without
/// fences.
pub fn iriw() -> LitmusSetup {
    let x = Addr::new(0x00);
    let y = Addr::new(0x40);
    let writer = |addr| ScriptProgram::new(vec![Instr::Store { addr, value: 1 }]);
    let reader = |first, second| {
        ScriptProgram::new(vec![
            Instr::Load {
                addr: first,
                tag: Some(OBSERVED),
            },
            Instr::Load {
                addr: second,
                tag: Some(2),
            },
        ])
    };
    let (w0, rw0) = writer(x);
    let (w1, rw1) = writer(y);
    let (r0, rr0) = reader(x, y);
    let (r1, rr1) = reader(y, x);
    (
        vec![Box::new(w0), Box::new(w1), Box::new(r0), Box::new(r1)],
        vec![rw0, rw1, rr0, rr1],
    )
}

/// Reads the value a litmus thread observed.
pub fn observed(regs: &Registers) -> u64 {
    *regs.borrow().get(&OBSERVED).unwrap_or(&u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::*;

    fn run(design: FenceDesign, setup: LitmusSetup, max: u64) -> (RunOutcome, Vec<u64>) {
        let cfg = MachineConfig::builder()
            .cores(setup.0.len().max(2))
            .fence_design(design)
            .watchdog_cycles(20_000)
            .record_scv_log(true)
            .build();
        let mut m = Machine::new(&cfg);
        let (progs, regs) = setup;
        for p in progs {
            m.add_thread(p);
        }
        let outcome = m.run(max);
        if outcome == RunOutcome::Finished {
            let log = m.scv_log().expect("log enabled");
            assert!(
                !scv::has_violation(log),
                "{design}: fenced litmus must stay SC:\n{}",
                scv::describe_cycle(log, &scv::find_cycle(log).unwrap())
            );
        }
        (outcome, regs.iter().map(observed).collect())
    }

    #[test]
    fn sb_unfenced_reorders_and_checker_sees_it() {
        let cfg = MachineConfig::builder()
            .cores(2)
            .record_scv_log(true)
            .build();
        let mut m = Machine::new(&cfg);
        let (progs, regs) = store_buffering(None);
        for p in progs {
            m.add_thread(p);
        }
        assert_eq!(m.run(10_000_000), RunOutcome::Finished);
        assert_eq!(
            regs.iter().map(observed).collect::<Vec<_>>(),
            vec![0, 0],
            "TSO store buffering"
        );
        assert!(
            scv::has_violation(m.scv_log().unwrap()),
            "the checker must flag the unfenced reorder"
        );
    }

    #[test]
    fn sb_fenced_is_sc_under_all_designs() {
        use FenceRole::{Critical, NonCritical};
        for design in [
            FenceDesign::SPlus,
            FenceDesign::WsPlus,
            FenceDesign::SwPlus,
            FenceDesign::WPlus,
            FenceDesign::Wee,
        ] {
            let (outcome, vals) = run(
                design,
                store_buffering(Some((Critical, NonCritical))),
                20_000_000,
            );
            assert_eq!(outcome, RunOutcome::Finished, "{design}");
            assert_ne!(vals, vec![0, 0], "{design} forbids the SCV outcome");
        }
    }

    #[test]
    fn three_thread_group_with_one_strong_fence_is_safe() {
        // Figure 3c: two weak fences plus one conventional fence.
        use FenceRole::{Critical, NonCritical};
        for design in [FenceDesign::WsPlus, FenceDesign::SwPlus] {
            let roles = if design == FenceDesign::WsPlus {
                // WS+ assumes at most one wf per group.
                [Critical, NonCritical, NonCritical]
            } else {
                [Critical, Critical, NonCritical]
            };
            let (outcome, vals) = run(design, three_thread_cycle(roles), 40_000_000);
            assert_eq!(outcome, RunOutcome::Finished, "{design}");
            assert_ne!(vals, vec![0, 0, 0], "{design} prevents the 3-cycle");
        }
    }

    #[test]
    fn three_thread_group_all_weak_under_w_plus_recovers() {
        use FenceRole::Critical;
        let (outcome, vals) = run(
            FenceDesign::WPlus,
            three_thread_cycle([Critical; 3]),
            40_000_000,
        );
        assert_eq!(outcome, RunOutcome::Finished);
        assert_ne!(vals, vec![0, 0, 0]);
    }

    #[test]
    fn false_sharing_resolved_by_order_ops() {
        use FenceRole::Critical;
        for design in [FenceDesign::WsPlus, FenceDesign::SwPlus, FenceDesign::WPlus] {
            let (outcome, _) = run(design, false_sharing_pair(Critical, Critical), 40_000_000);
            assert_eq!(outcome, RunOutcome::Finished, "{design}");
        }
    }

    #[test]
    fn false_sharing_deadlocks_unprotected_design() {
        use FenceRole::Critical;
        let (outcome, _) = run(
            FenceDesign::WfOnlyUnsafe,
            false_sharing_pair(Critical, Critical),
            10_000_000,
        );
        assert_eq!(outcome, RunOutcome::Deadlocked);
    }

    #[test]
    fn message_passing_respects_tso_without_fences() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        let (progs, regs) = message_passing();
        for p in progs {
            m.add_thread(p);
        }
        assert_eq!(m.run(10_000_000), RunOutcome::Finished);
        let flag_seen = *regs[1].borrow().get(&2).unwrap();
        if flag_seen == 1 {
            assert_eq!(observed(&regs[1]), 1, "flag=1 implies data=1 under TSO");
        }
    }
}
