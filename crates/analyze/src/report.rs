//! The whole-program inference report and the `analyze` binary's driver.
//!
//! Per kernel: the recovered placement (windows → critical cycles →
//! sites), then per design the synthesized strength assignment over
//! those sites, validated by the oracle and scored on the simulator —
//! side by side with the hand-annotated twin's paper cost where one
//! exists (Peterson has none; that is the point). A third table lowers
//! the headline asymmetric result to C11 for the native runtime.
//!
//! Output flows through the bench [`ReportSink`], so the markdown and
//! the `results/analyze_*.csv` bytes are identical at any `--jobs`. A
//! `placement <kernel>: oracle-valid` line per fully-validated kernel
//! gives `ci.sh` a stable grep target.

use asymfence::prelude::{FenceDesign, RunOutcome};
use asymfence_bench::cli::Opts;
use asymfence_bench::{ReportSink, RunSpec, Runner, Table};
use asymfence_common::assign::SearchStats;
use asymfence_common::par::Shard;
use asymfence_common::placement::Placement;
use asymfence_synth::report::{result_cells, Search};
use asymfence_workloads::unannot::InferredKernel;

use crate::lower;
use crate::place::{self, Analysis};

/// A placement's site labels (`t0@0x40` style), in site order.
fn labels(placement: &Placement) -> Vec<&str> {
    placement.fences.iter().map(|f| f.label.as_str()).collect()
}

/// Runs the full inference report into `sink`. With `exhaustive`
/// carrying a reorder bound, every accepted assignment is a DPOR proof of
/// SC up to that bound. Returns the merged search statistics
/// (serial-equivalent, jobs-independent).
pub fn run(
    runner: &Runner,
    opts: &Opts,
    exhaustive: Option<usize>,
    sink: &mut ReportSink,
) -> SearchStats {
    runner.begin_section("analyze");
    // The shard partitions the kernel grid across fleet processes,
    // round-robin by position in the (already `--filter`ed) list. The
    // synthesizer below stays whole: each owned kernel's mask space is
    // searched completely.
    let kernels: Vec<InferredKernel> = InferredKernel::ALL
        .into_iter()
        .filter(|k| opts.keep(k.name()))
        .enumerate()
        .filter(|&(i, _)| opts.shard.owns(i as u64))
        .map(|(_, k)| k)
        .collect();

    let mut search = Search::new(runner, opts, exhaustive, Shard::whole());

    sink.line("## Whole-program fence inference (zero annotations)");
    sink.line(
        "(footprints: SC interpreter over 8 schedule variants; windows: TSO st→ld pairs; \
         placement: critical-cycle loads, liveness-filtered; strengths: synthesized per design)",
    );
    match exhaustive {
        Some(bound) => sink.line(format!(
            "(oracle: Shasha-Snir over bounded-exhaustive DPOR exploration at reorder bound \
             {bound} — accepted placements are proofs up to the bound)"
        )),
        None => sink.line(format!(
            "(oracle: Shasha-Snir over {} perturbation seeds)",
            search.synth.explorer.cfg.seeds
        )),
    }
    sink.blank();

    // Phase 1: the analyses (interpretation + placement, no simulation).
    let analyses: Vec<Analysis> = kernels
        .iter()
        .map(|&k| place::analyze(k, asymfence_bench::SEED))
        .collect();

    let mut placements = Table::new(vec![
        "kernel",
        "threads",
        "windows",
        "critical",
        "cycles",
        "dead",
        "sites",
        "placement",
    ]);
    for a in &analyses {
        placements.row(vec![
            a.kernel.name().to_string(),
            a.kernel.cores().to_string(),
            a.windows.len().to_string(),
            a.critical.len().to_string(),
            a.cycles.to_string(),
            a.dropped_dead.to_string(),
            a.placement.len().to_string(),
            labels(&a.placement).join(" "),
        ]);
    }
    sink.table("analyze_placements", &placements);

    // Phase 2: strength synthesis per design, vs the hand twin's paper
    // cost (the role mapping the twin runs with *is* the annotation).
    let mut table = Table::new(vec![
        "kernel",
        "design",
        "sites",
        "groups",
        "synthesized",
        "cycles",
        "paper cycles",
        "delta",
    ]);
    let mut stats = SearchStats::default();
    let mut valid_lines: Vec<String> = Vec::new();
    let mut lowerings: Vec<(InferredKernel, lower::Lowering, FenceDesign, u64)> = Vec::new();

    for a in &analyses {
        let labels = labels(&a.placement);
        let mut all_valid = true;
        for &design in &search.designs {
            let r = search.synth.synthesize_inferred(
                a.kernel,
                &a.placement,
                design,
                search.trace.as_mut(),
            );
            stats.merge(&r.stats);
            if let Some(c) = runner.collector() {
                c.record_analysis(
                    a.kernel.name(),
                    design.label(),
                    a.placement.len() as u64,
                    a.cycles,
                    r.stats.pruned,
                    r.stats.runs,
                );
            }
            let paper_cycles = a.kernel.site_bench().and_then(|b| {
                let pr = runner.run(&[RunSpec::sites(b, design, asymfence_bench::SEED)]);
                (pr[0].outcome == RunOutcome::Finished).then_some(pr[0].cycles)
            });
            let [sites, groups, best_label, best_cycles, paper_cycles, delta] =
                result_cells(&r, &labels, paper_cycles);
            table.row(vec![
                a.kernel.name().to_string(),
                design.label().to_string(),
                sites,
                groups,
                best_label,
                best_cycles,
                paper_cycles,
                delta,
            ]);
            match r.best {
                Some(best) => {
                    // Keep the headline asymmetric lowering: WS+ wins
                    // ties, otherwise the first design with a result.
                    let keep = lowerings.iter().all(|(k, ..)| *k != a.kernel);
                    if design == FenceDesign::WsPlus || keep {
                        let lowering = lower::lower(&a.placement, &r.groups, best.mask);
                        lowerings.retain(|(k, ..)| *k != a.kernel);
                        lowerings.push((a.kernel, lowering, design, best.mask));
                    }
                }
                None => all_valid = false,
            }
        }
        if all_valid {
            valid_lines.push(format!(
                "placement {}: oracle-valid under {}",
                a.kernel.name(),
                search
                    .designs
                    .iter()
                    .map(|d| d.label())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
    }
    sink.table("analyze_assignments", &table);

    for line in &valid_lines {
        sink.line(line.as_str());
    }
    if !valid_lines.is_empty() {
        sink.blank();
    }

    // Phase 3: C11 lowering of the kept per-kernel result.
    let mut c11 = Table::new(vec!["kernel", "design", "site", "strength", "c11"]);
    for (kernel, lowering, design, mask) in &lowerings {
        for (i, f) in lowering.fences.iter().enumerate() {
            c11.row(vec![
                kernel.name().to_string(),
                design.label().to_string(),
                f.label.clone(),
                if mask & (1 << i) != 0 {
                    "wf".into()
                } else {
                    "sf".into()
                },
                f.lower.c_expr().to_string(),
            ]);
        }
    }
    sink.table("analyze_lowering", &c11);

    search.finish(opts, &stats, sink, "inference");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_synth::search::mask_label;

    fn quick_opts(filter: &str) -> Opts {
        Opts {
            quick: true,
            filter: Some(filter.to_string()),
            ..Default::default()
        }
    }

    #[test]
    fn report_bytes_are_identical_at_any_job_count() {
        let opts = quick_opts("sb");
        let mut a = ReportSink::capture();
        let mut b = ReportSink::capture();
        let sa = run(&Runner::with_jobs(1).progress(false), &opts, None, &mut a);
        let sb = run(&Runner::with_jobs(2).progress(false), &opts, None, &mut b);
        assert_eq!(a.captured(), b.captured());
        assert_eq!(a.csv("analyze_placements"), b.csv("analyze_placements"));
        assert_eq!(a.csv("analyze_assignments"), b.csv("analyze_assignments"));
        assert_eq!(sa, sb, "charged stats must be jobs-independent");
    }

    #[test]
    fn peterson_report_carries_the_oracle_valid_line() {
        let opts = quick_opts("peterson");
        let mut sink = ReportSink::capture();
        run(
            &Runner::with_jobs(2).progress(false),
            &opts,
            None,
            &mut sink,
        );
        assert!(
            sink.captured().contains("placement peterson: oracle-valid"),
            "{}",
            sink.captured()
        );
        // No hand twin: the paper columns stay empty for Peterson.
        let csv = sink.csv("analyze_assignments").unwrap();
        assert!(
            csv.lines()
                .skip(1)
                .all(|l| l.split(',').nth(6) == Some("-")),
            "{csv}"
        );
    }

    #[test]
    fn mask_labels_render_placement_labels() {
        let a = place::analyze(InferredKernel::Sb, asymfence_bench::SEED);
        let labels = labels(&a.placement);
        assert_eq!(mask_label(&labels, 0), "all-sf");
        let l = mask_label(&labels, 0b01);
        assert!(l.starts_with("wf{t0@0x"), "{l}");
    }
}
