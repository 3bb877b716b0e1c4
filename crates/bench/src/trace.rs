//! Fence-trace export for the figure binaries (`--trace PATH`).
//!
//! When `--trace` is given, a figure section re-runs one representative
//! spec per reported design with the fence-lifecycle trace enabled
//! ([`RunSpec::execute_traced`]), writes one combined Chrome-trace JSON
//! — each design its own Perfetto process group — to the path, and
//! prints a per-fence latency/bounce histogram report to **stderr**.
//!
//! The figure's own stdout tables and `results/` CSVs are untouched:
//! the traced re-runs never feed the tables, and tracing itself is pure
//! observation (a traced run produces the same [`crate::RunResult`] as
//! an untraced one). Load the JSON at <https://ui.perfetto.dev>.

use std::fmt::Write as _;

use asymfence::prelude::{FenceClass, TraceSink};
use asymfence_common::trace;

use crate::cli::Opts;
use crate::runner::RunSpec;

/// One representative spec per design, in first-appearance order: the
/// first spec of each distinct design in the grid. Deterministic, so the
/// emitted trace is too.
fn representatives(specs: &[RunSpec]) -> Vec<RunSpec> {
    let mut seen = Vec::new();
    let mut reps = Vec::new();
    for spec in specs {
        if !seen.contains(&spec.design) {
            seen.push(spec.design);
            reps.push(*spec);
        }
    }
    reps
}

/// Renders the per-fence latency/bounce histogram report for one traced
/// run (the stderr side of `--trace`).
pub fn histogram_report(label: &str, sink: &TraceSink) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- {label}: {} events recorded ({} beyond the ring), {} fence spans --",
        sink.recorded(),
        sink.dropped(),
        sink.spans().len()
    );
    for class in FenceClass::ALL {
        let t = sink.tally(class);
        if t.issued == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "   {:>6}: issued {:>7}  completed {:>7}  rolled-back {}  demoted {}",
            class.label(),
            t.issued,
            t.completed,
            t.rolled_back,
            t.demoted
        );
        let _ = writeln!(
            out,
            "           latency mean {:.1}  p50 {}  p90 {}  p99 {}  max {}  bounces/fence {:.3}",
            t.mean_latency(),
            t.percentile(50.0),
            t.percentile(90.0),
            t.percentile(99.0),
            t.max_latency,
            t.bounces_per_fence()
        );
    }
    if sink.unattributed_bounces() > 0 {
        let _ = writeln!(
            out,
            "   {} bounces hit cores with no open fence",
            sink.unattributed_bounces()
        );
    }
    out
}

/// If `--trace` was given, re-runs one representative spec per design
/// with tracing on, writes the combined Chrome-trace JSON to the path
/// and the histogram report to stderr. No-op otherwise; never touches
/// the figure's stdout. The error names the path and the OS error.
pub fn maybe_emit(section: &str, specs: &[RunSpec], opts: &Opts) -> Result<(), String> {
    let Some(path) = opts.trace.as_deref() else {
        return Ok(());
    };
    if specs.is_empty() {
        return Ok(());
    }
    let reps = representatives(specs);
    let mut json = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut report = String::new();
    for (pid, spec) in reps.iter().enumerate() {
        let (_, sink) = spec.execute_traced();
        if pid > 0 {
            json.push_str(",\n");
        }
        json.push_str(&sink.chrome_events(pid as u64));
        report.push_str(&histogram_report(&spec.label(), &sink));
    }
    json.push_str("\n]}\n");
    trace::write_json(path, &json)?;
    eprint!(
        "== fence trace: {section} -> {path} ({} designs) ==\n{report}",
        reps.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence::prelude::FenceDesign;
    use asymfence_workloads::cilk::CilkApp;

    #[test]
    fn representatives_take_first_spec_per_design() {
        let specs = vec![
            RunSpec::cilk(CilkApp::Fib, FenceDesign::SPlus, 2, 1),
            RunSpec::cilk(CilkApp::Bucket, FenceDesign::SPlus, 2, 1),
            RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 1),
        ];
        let reps = representatives(&specs);
        assert_eq!(reps.len(), 2);
        assert_eq!(reps[0].design, FenceDesign::SPlus);
        assert!(matches!(
            reps[0].workload,
            crate::runner::Workload::Cilk(CilkApp::Fib)
        ));
        assert_eq!(reps[1].design, FenceDesign::WsPlus);
    }

    #[test]
    fn histogram_report_names_the_classes() {
        let spec = RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 7);
        let (_, sink) = spec.execute_traced();
        let report = histogram_report(&spec.label(), &sink);
        assert!(report.contains("fib/WS+/2c/s7"));
        assert!(report.contains("sf:"), "strong fences present: {report}");
        assert!(report.contains("wf:"), "weak fences present: {report}");
    }

    #[test]
    fn an_unwritable_trace_path_is_an_error() {
        let dir = std::env::temp_dir().join(format!("asf-no-fig-dir-{}", std::process::id()));
        let path = dir.join("t.json").to_str().unwrap().to_string();
        let opts = Opts {
            trace: Some(path.clone()),
            ..Default::default()
        };
        let specs = [RunSpec::cilk(CilkApp::Fib, FenceDesign::WsPlus, 2, 7)];
        let err = maybe_emit("fig08_cilk", &specs, &opts).unwrap_err();
        assert!(err.contains(&path), "{err}");
        assert_eq!(maybe_emit("fig08_cilk", &specs, &Opts::default()), Ok(()));
    }

    #[test]
    fn traced_execution_matches_untraced() {
        let spec = RunSpec::cilk(CilkApp::Fib, FenceDesign::WPlus, 2, 7);
        let plain = spec.execute();
        let (traced, sink) = spec.execute_traced();
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.stats, traced.stats);
        assert!(sink.recorded() > 0);
    }
}
