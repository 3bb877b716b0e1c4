//! Host-noise diagnostics read from `/proc` with no dependencies, so an
//! outlier run can be attributed to the host rather than to the code.

use std::hint::black_box;
use std::time::Instant;

/// The value of a `Key:   <n> ...` line in `/proc/self/status`.
fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size in MB (`VmHWM`), or 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Involuntary context switches of the main thread so far: each one is
/// the host taking the CPU away from the benchmark.
pub fn nivcsw() -> u64 {
    status_field("nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// `(on-CPU seconds, runnable-but-waiting seconds)` of the main thread,
/// from `/proc/self/schedstat` (nanosecond resolution). The waiting
/// time is CPU the host gave to someone else while the benchmark was
/// ready to run.
pub fn cpu_and_wait_s() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    let mut it = text
        .split_whitespace()
        .map(|v| v.parse::<u64>().unwrap_or(0));
    let cpu = it.next().unwrap_or(0);
    let wait = it.next().unwrap_or(0);
    (cpu as f64 / 1e9, wait as f64 / 1e9)
}

/// Seconds the hypervisor ran other guests on this machine's CPUs
/// (summed over CPUs) so far: the `steal` column of `/proc/stat`.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0);
    // USER_HZ is 100 on every Linux ABI this runs on.
    ticks as f64 / 100.0
}

/// Milliseconds a fixed integer loop takes: the same work on every run
/// and every commit, so it moves only when the host does.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = black_box(x);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}
