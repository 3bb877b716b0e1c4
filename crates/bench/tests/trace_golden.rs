//! Golden-file test for the Perfetto/Chrome-trace exporter: one small
//! litmus run's JSON is pinned byte-for-byte. The run is fully
//! deterministic, so any diff means either the simulation or the export
//! format changed — both deserve a deliberate re-bless, not a silent
//! drift. Regenerate with:
//!
//! ```text
//! ASF_BLESS=1 cargo test -p asymfence-bench --test trace_golden
//! ```

use asymfence::prelude::{FenceDesign, FenceRole};
use asymfence_bench::{LitmusCase, RunSpec, SEED};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("sb_fenced_wplus_trace.json")
}

/// The store-buffering litmus case under W+ exports exactly the
/// checked-in Perfetto JSON.
#[test]
fn sb_fenced_wplus_trace_matches_golden() {
    let case = LitmusCase::StoreBuffering {
        fences: Some((FenceRole::Critical, FenceRole::NonCritical)),
    };
    let spec = RunSpec::litmus(case, FenceDesign::WPlus, SEED);
    let (_, sink) = spec.execute_traced();
    let json = sink.chrome_json();

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
        "trace JSON drifted from {} ({} vs {} bytes); \
         if the change is intentional, re-bless with ASF_BLESS=1",
        path.display(),
        json.len(),
        golden.len()
    );
}

/// Sanity on the pinned artifact itself: it is a Chrome-trace envelope
/// containing fence spans and the instant events Perfetto renders.
#[test]
fn golden_trace_is_a_perfetto_envelope() {
    let golden = std::fs::read_to_string(golden_path())
        .expect("golden file present (run with ASF_BLESS=1 to create it)");
    assert!(golden.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(golden.trim_end().ends_with("]}"));
    // Fence spans are complete ("X") events; bounce instants ride along.
    assert!(
        golden.matches("\"ph\":\"X\"").count() > 0,
        "no fence spans recorded"
    );
    assert!(
        golden.contains("\"store-bounce\""),
        "W+ run should record bounces"
    );
    assert!(golden.contains("\"cat\":\"fence\""));
}
