//! Golden-file test pinning the `--metrics` snapshot schema: one small
//! deterministic collection run's JSON is checked in byte-for-byte. Any
//! diff means the snapshot schema, the serialization format, or the
//! simulation itself changed — all deserve a deliberate re-bless, not a
//! silent drift (perfdiff refuses snapshots whose schema drifted, so the
//! checked-in baseline must move in the same commit). Regenerate with:
//!
//! ```text
//! ASF_BLESS=1 cargo test -p asymfence-bench --test metrics_golden
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use asymfence::prelude::FenceDesign;
use asymfence_bench::cli::Opts;
use asymfence_bench::metrics::Collector;
use asymfence_bench::{figures, ReportSink, Runner};
use asymfence_common::telemetry::{diff, BenchSnapshot, DiffOptions};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("metrics_snapshot.json")
}

/// A deterministic-mode snapshot of the quick litmus matrix, pinned.
fn collect() -> String {
    let opts = Opts {
        quick: true,
        designs: Some(vec![FenceDesign::SPlus, FenceDesign::WPlus]),
        ..Default::default()
    };
    let collector = Arc::new(Collector::new(true));
    let runner = Runner::with_jobs(2)
        .progress(false)
        .with_collector(Arc::clone(&collector));
    let mut sink = ReportSink::capture();
    figures::litmus_matrix(&runner, &opts, &mut sink);
    collector.snapshot("metrics_snapshot", true).to_json()
}

/// The snapshot JSON matches the checked-in golden file exactly.
#[test]
fn metrics_snapshot_matches_golden() {
    let json = collect();
    let path = golden_path();
    if std::env::var("ASF_BLESS").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with ASF_BLESS=1 to create it",
            path.display()
        )
    });
    assert!(
        json == golden,
        "metrics snapshot drifted from {} ({} vs {} bytes); \
         if the change is intentional, re-bless with ASF_BLESS=1 AND \
         regenerate results/bench_baseline.json",
        path.display(),
        json.len(),
        golden.len()
    );
}

/// Schema sanity on the pinned artifact: it parses back, round-trips
/// byte-exactly, and carries the fields perfdiff gates on.
#[test]
fn golden_snapshot_has_the_gated_schema() {
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file present (run with ASF_BLESS=1 to create it)");
    let snap = BenchSnapshot::parse(&golden).expect("golden snapshot parses");
    assert_eq!(snap.to_json(), golden, "parse/render round-trips exactly");
    assert!(
        snap.deterministic,
        "golden is collected in deterministic mode"
    );
    assert_eq!(snap.total_wall_ns, 0);
    assert!(!snap.entries.is_empty());
    let e = &snap.entries[0];
    assert_eq!(e.section, "litmus_matrix");
    assert!(e.runs > 0 && e.sim_cycles > 0 && e.instrs_retired > 0);
    // The full derived block is present (every DerivedStats field is
    // serialized by name; an unknown or missing name fails parse).
    assert_eq!(e.derived.fields().len(), 19);
    // Shard provenance is a sharded-merge-only extra: collector
    // snapshots never carry it, so the golden bytes stay schema v2 and
    // `results/bench_baseline.json` never moves for shard-free runs.
    assert!(
        snap.shard.is_none(),
        "collector snapshots carry no shard block"
    );
    assert!(
        golden.contains("\"schema\": 2"),
        "shard-free snapshots stay on v2"
    );
    assert!(!golden.contains("\"shard\""));
}

/// Perturbing a single counter is a breach: rebuilding the same snapshot
/// and bumping one cell's `sim_cycles` must make `diff` dirty, exactly
/// like `perfdiff` exiting nonzero in CI.
#[test]
fn perturbed_counter_breaches_the_diff() {
    let base = BenchSnapshot::parse(&collect()).unwrap();
    let mut perturbed = base.clone();
    perturbed.entries[0].sim_cycles += 1;
    let opts = DiffOptions::default();
    assert!(diff(&base, &base, &opts).clean(), "self-diff is clean");
    let report = diff(&base, &perturbed, &opts);
    assert!(!report.clean());
    assert!(
        report.breaches.iter().any(|b| b.contains("sim_cycles")),
        "breach names the drifted counter: {:?}",
        report.breaches
    );
    // Dropping a cell breaches too (key alignment is strict).
    let mut missing = base.clone();
    missing.entries.pop();
    assert!(!diff(&base, &missing, &opts).clean());
}
