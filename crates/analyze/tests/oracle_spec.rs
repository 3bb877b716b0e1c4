//! The synthesis oracle judges the machine the scorer times, for an
//! analyzer placement too: an inferred kernel's oracle machine (natural
//! schedule, the scoring spec's watchdog) has the scoring spec's config
//! and runs exactly as `RunSpec::execute` does.

use asymfence::prelude::{scv, FenceDesign};
use asymfence_analyze::analyze;
use asymfence_bench::{RunSpec, Runner, SiteMask, SEED};
use asymfence_common::schedule::SchedulePlan;
use asymfence_explore::{ExploreConfig, Explorer};
use asymfence_synth::Synthesizer;
use asymfence_workloads::unannot::InferredKernel;

#[test]
fn inferred_oracle_machine_runs_what_the_scorer_scores() {
    let kernel = InferredKernel::Peterson;
    let placement = analyze(kernel, SEED).placement;
    let n_sites = placement.len() as u32;
    assert!(n_sites > 0, "peterson needs fences");
    let all = (1u64 << n_sites) - 1;
    for design in [
        FenceDesign::SPlus,
        FenceDesign::WsPlus,
        FenceDesign::SwPlus,
        FenceDesign::WPlus,
    ] {
        for mask in [0, 1, all] {
            let spec = RunSpec::inferred(kernel, placement.spec(), design, SEED)
                .with_assignment(SiteMask::synthetic(n_sites, mask));
            let explorer = Explorer::new(ExploreConfig {
                watchdog_cycles: spec.config().watchdog_cycles,
                ..Default::default()
            });
            let synth = Synthesizer::new(explorer, Runner::with_jobs(1).progress(false), SEED);
            let mut m = synth.oracle_machine(&spec, SchedulePlan::default());
            assert_eq!(*m.config(), spec.config(), "{}", spec.label());
            let outcome = m.run(synth.explorer.cfg.max_cycles);
            let scored = spec.execute();
            assert_eq!(outcome, scored.outcome, "{}", spec.label());
            assert_eq!(m.now(), scored.cycles, "{}", spec.label());
            assert_eq!(m.stats(), scored.stats, "{}", spec.label());
            let scv = m.scv_log().is_some_and(scv::has_violation);
            assert_eq!(scv, scored.scv, "{}", spec.label());
        }
    }
}
