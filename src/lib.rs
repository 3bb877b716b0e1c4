//! Facade for the workspace's top-level examples and integration tests.
//!
//! Downstream users should depend on the [`asymfence`] and
//! [`asymfence_workloads`] crates directly; this crate only re-exports them
//! so the repository's `examples/` and `tests/` have a single import root.

pub use asymfence;
pub use asymfence_workloads as workloads;

/// Commonly used items for examples and tests.
pub mod prelude {
    pub use asymfence::prelude::*;
    pub use asymfence_workloads as workloads;
}

/// Fence-free litmus programs for the fence-placement front end, and
/// the simulated SC check of a placement over them (shared by
/// `examples/fence_placement.rs` and the integration tests).
pub mod unfenced {
    use asymfence::common::placement::Placement;
    use asymfence::cpu::insert::{FencedProgram, StripFences};
    use asymfence::prelude::*;
    use asymfence_workloads::litmus;

    /// The shapes [`programs`] builds: Figure 1a's store buffering,
    /// message passing, Figure 1e's three-thread cycle with its fences
    /// stripped, and two threads on disjoint lines.
    pub const SHAPES: [&str; 4] = [
        "store buffering",
        "message passing",
        "3-thread cycle",
        "independent threads",
    ];

    /// Fresh fence-free threads of `shape`, one of [`SHAPES`].
    pub fn programs(shape: &str) -> Vec<Box<dyn ThreadProgram>> {
        let script = |instrs| Box::new(ScriptProgram::new(instrs).0) as Box<dyn ThreadProgram>;
        let independent = |mine, other| {
            script(vec![
                Instr::Store {
                    addr: Addr::new(mine),
                    value: 1,
                },
                Instr::Load {
                    addr: Addr::new(other),
                    tag: Some(litmus::OBSERVED),
                },
            ])
        };
        match shape {
            "store buffering" => litmus::store_buffering(None).0,
            "message passing" => litmus::message_passing().0,
            "3-thread cycle" => litmus::three_thread_cycle([FenceRole::NonCritical; 3])
                .0
                .into_iter()
                .map(|p| Box::new(StripFences::new(p)) as Box<dyn ThreadProgram>)
                .collect(),
            "independent threads" => vec![independent(0x00, 0x40), independent(0x80, 0xc0)],
            _ => panic!("no litmus shape `{shape}`"),
        }
    }

    /// Simulates `shape` under `design` — fenced at `placement`'s sites
    /// when given, thread 0 critical — and reports whether SC held.
    pub fn keeps_sc(shape: &str, placement: Option<&Placement>, design: FenceDesign) -> bool {
        let programs = programs(shape);
        let cfg = MachineConfig::builder()
            .cores(programs.len())
            .fence_design(design)
            .record_scv_log(true)
            .build();
        let mut m = Machine::new(&cfg);
        for (t, p) in programs.into_iter().enumerate() {
            let Some(placement) = placement else {
                m.add_thread(p);
                continue;
            };
            let role = if t == 0 {
                FenceRole::Critical
            } else {
                FenceRole::NonCritical
            };
            let spec = placement.spec();
            m.add_thread(Box::new(FencedProgram::new(
                p,
                t,
                spec,
                cfg.line_bytes,
                role,
            )));
        }
        assert_eq!(
            m.run(10_000_000),
            RunOutcome::Finished,
            "{shape} under {design}"
        );
        !scv::has_violation(m.scv_log().expect("SC log is on"))
    }

    /// How many of `placement`'s fences each of `threads` threads got.
    pub fn fences_per_thread(placement: &Placement, threads: usize) -> Vec<usize> {
        (0..threads)
            .map(|t| placement.fences.iter().filter(|f| f.thread == t).count())
            .collect()
    }
}
