//! Golden-file tests for the Perfetto/Chrome-trace exporter: the fenced
//! store-buffering litmus run's JSON is pinned byte-for-byte under W+
//! (bounces, rollbacks) and under Wee (the GRT deposit/reply/remove
//! messages). The runs are fully deterministic, so any diff means either
//! the simulation or the export format changed — both deserve a
//! deliberate re-bless, not a silent drift. Regenerate with:
//!
//! ```text
//! ASF_BLESS=1 cargo test -p asymfence-bench --test trace_golden
//! ```

use asymfence::prelude::{FenceDesign, FenceRole};
use asymfence_bench::{LitmusCase, RunSpec, SEED};
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// The fenced store-buffering litmus case under `design`, exported as
/// Perfetto JSON.
fn sb_fenced_trace(design: FenceDesign) -> String {
    let case = LitmusCase::StoreBuffering {
        fences: Some((FenceRole::Critical, FenceRole::NonCritical)),
    };
    let (_, sink) = RunSpec::litmus(case, design, SEED).execute_traced();
    sink.chrome_json()
}

/// Compares `json` with the checked-in `file` (or rewrites the file
/// under `ASF_BLESS=1`).
fn assert_matches_golden(json: &str, file: &str) {
    let path = golden_path(file);
    if std::env::var("ASF_BLESS").is_ok_and(|v| v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
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

/// The store-buffering litmus case under W+ exports exactly the
/// checked-in Perfetto JSON.
#[test]
fn sb_fenced_wplus_trace_matches_golden() {
    assert_matches_golden(
        &sb_fenced_trace(FenceDesign::WPlus),
        "sb_fenced_wplus_trace.json",
    );
}

/// Under Wee the same litmus exports exactly the checked-in JSON, which
/// pins when each GRT message is sent and where it goes.
#[test]
fn sb_fenced_wee_trace_matches_golden() {
    let json = sb_fenced_trace(FenceDesign::Wee);
    assert!(
        json.contains("noc:GrtDepositAndRead"),
        "Wee run should deposit its Pending Set at the GRT"
    );
    assert_matches_golden(&json, "sb_fenced_wee_trace.json");
}

/// Sanity on the pinned artifact itself: it is a Chrome-trace envelope
/// containing fence spans and the instant events Perfetto renders.
#[test]
fn golden_trace_is_a_perfetto_envelope() {
    let golden = std::fs::read_to_string(golden_path("sb_fenced_wplus_trace.json"))
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
