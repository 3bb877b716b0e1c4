//! Host-speed normalisation of the timed work.
//!
//! On a shared host the same single-threaded work runs up to twice as
//! fast in one second as in the next: other guests contend for the
//! caches and memory the simulator lives in, in bursts of seconds and
//! periods of minutes. A pass's wall time moves with them.
//!
//! The benchmark therefore cuts each pass into steps (one spec of the
//! figures grid, a sweep shard, one shard of a synthesis search, one
//! DPOR walk) and runs a fixed reference kernel between them, after
//! every [`MIN_SPAN_S`] of steps at least. A step's normalised time is
//! its wall time divided by the mean of the reference times right
//! before and right after it, times
//! [`NOMINAL_REF_S`]: the seconds the step would take on a host where
//! the reference runs in that time. Next to a long step the reference
//! runs several times over (about [`REF_SHARE`] of the step), so that
//! one burst does not decide the step's scale. Each series of reference
//! runs starts with an untimed one that brings the table back into the
//! caches, so that how much of it a step evicted — which depends on the
//! program — does not leak into the scale.
//!
//! Host slowness that hits the step and its neighbouring reference
//! alike cancels; a change to the program's code does not, because the
//! reference is the benchmark's own and never changes.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Reference-kernel time the normalised figures are scaled to: about
/// what it takes on the development host when the host is quiet.
pub const NOMINAL_REF_S: f64 = 0.006;

/// Keys in the reference table: its few megabytes reach past the core's
/// private caches into the shared ones, where the simulator's contention
/// is.
const REF_KEYS: u64 = 400_000;

/// Table operations per reference run (a few milliseconds).
const REF_OPS: u64 = 50_000;

/// Share of a step's time spent in the reference runs on each side of
/// it, for steps long enough to need more than one run.
pub const REF_SHARE: f64 = 0.02;

/// Most reference runs on one side of a step.
const MAX_REF_RUNS: usize = 40;

/// Steps shorter than this share one series of reference runs.
pub const MIN_SPAN_S: f64 = 0.1;

/// The reference kernel: pseudo-random read-modify-writes of a hash
/// table, the same work on every run and every commit.
pub struct Reference {
    table: HashMap<u64, u64>,
    x: u64,
}

impl Reference {
    /// Builds the table.
    pub fn new() -> Self {
        Reference {
            table: (0..REF_KEYS).map(|k| (k, k)).collect(),
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Runs the kernel once and returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut sum = 0u64;
        for _ in 0..REF_OPS {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            let k = self.x % REF_KEYS;
            if let Some(v) = self.table.get_mut(&k) {
                *v = v.wrapping_add(1);
            }
            sum = sum.wrapping_add(self.table.get(&(k ^ 1)).copied().unwrap_or(0));
        }
        black_box(sum);
        t.elapsed().as_secs_f64()
    }
}

/// Times steps of work, bracketed by reference runs.
pub struct Pacer {
    reference: Reference,
    /// Mean time of the last series of reference runs.
    before_s: f64,
    /// Wall time of the steps since that series, awaiting the next one.
    pending: Vec<f64>,
    /// Normalised time of each step since the last [`Pacer::end_pass`].
    steps: Vec<f64>,
    /// Wall time of those steps.
    raw_s: f64,
    /// Wall time of each step of this pass, and of the previous pass
    /// (which announces a long step before it starts).
    dts: Vec<f64>,
    last_dts: Vec<f64>,
    /// Every timed reference run, for the host diagnostics.
    refs: Vec<f64>,
}

impl Pacer {
    /// A pacer with its reference built and run (warm) once.
    pub fn new() -> Self {
        let mut reference = Reference::new();
        reference.run();
        let before_s = reference.run();
        Pacer {
            reference,
            before_s,
            pending: Vec::new(),
            steps: Vec::new(),
            raw_s: 0.0,
            dts: Vec::new(),
            last_dts: Vec::new(),
            refs: vec![before_s],
        }
    }

    /// Runs `f` as one timed step. The reference runs after it once the
    /// steps since the last series add up to [`MIN_SPAN_S`], or when the
    /// next step took that long last pass; shorter steps share their
    /// series.
    pub fn step<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let dt = t.elapsed().as_secs_f64();
        self.pending.push(dt);
        self.dts.push(dt);
        self.raw_s += dt;
        let next_dt = self.last_dts.get(self.dts.len()).copied().unwrap_or(0.0);
        if self.pending.iter().sum::<f64>() >= MIN_SPAN_S || next_dt >= MIN_SPAN_S {
            self.reference_series(next_dt);
        }
        out
    }

    /// One untimed reference run, then enough timed ones to scale the
    /// pending steps and a next step of `next_dt`; normalises the
    /// pending steps.
    fn reference_series(&mut self, next_dt: f64) {
        if self.pending.is_empty() {
            return;
        }
        let span: f64 = self.pending.iter().sum();
        let runs = (span.max(next_dt) * REF_SHARE / NOMINAL_REF_S) as usize;
        let runs = runs.clamp(1, MAX_REF_RUNS);
        self.reference.run();
        let times: Vec<f64> = (0..runs).map(|_| self.reference.run()).collect();
        let after_s = times.iter().sum::<f64>() / runs as f64;
        for dt in self.pending.drain(..) {
            self.steps.push(normalise(dt, self.before_s, after_s));
        }
        self.refs.extend(times);
        self.before_s = after_s;
    }

    /// Wall time of the steps since the last [`Pacer::end_pass`], the
    /// reference runs left out.
    pub fn pass_s(&self) -> f64 {
        self.raw_s
    }

    /// Closes a pass: the normalised time of each of its steps.
    pub fn end_pass(&mut self) -> Vec<f64> {
        self.reference_series(0.0);
        self.raw_s = 0.0;
        self.last_dts = std::mem::take(&mut self.dts);
        std::mem::take(&mut self.steps)
    }

    /// Median timed reference run so far, in milliseconds.
    pub fn ref_ms(&self) -> f64 {
        crate::median(&self.refs) * 1e3
    }
}

/// A step's wall time `dt` scaled to the nominal reference host, given
/// the reference runs before and after it.
pub fn normalise(dt: f64, before_s: f64, after_s: f64) -> f64 {
    dt * NOMINAL_REF_S / ((before_s + after_s) / 2.0)
}

/// The normalised time of a pass from several passes' steps: per step
/// the median over passes, summed. Passes whose step count differs from
/// the first's (none, for the deterministic workloads here) fall back to
/// the median of the pass sums.
pub fn pass_time(passes: &[Vec<f64>]) -> f64 {
    let Some(first) = passes.first() else {
        return f64::NAN;
    };
    if passes.iter().any(|p| p.len() != first.len()) {
        let sums: Vec<f64> = passes.iter().map(|p| p.iter().sum()).collect();
        return crate::median(&sums);
    }
    (0..first.len())
        .map(|i| crate::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host running everything twice as slow leaves normalised times
    /// unchanged.
    #[test]
    fn uniform_slowdown_cancels() {
        let quiet = normalise(0.5, NOMINAL_REF_S, NOMINAL_REF_S);
        let slow = normalise(1.0, 2.0 * NOMINAL_REF_S, 2.0 * NOMINAL_REF_S);
        assert!((quiet - 0.5).abs() < 1e-12);
        assert!((slow - quiet).abs() < 1e-12);
    }

    /// Per-step medians drop a step that one pass ran on a slow host.
    #[test]
    fn pass_time_takes_per_step_medians() {
        let passes = vec![vec![1.0, 2.0], vec![1.1, 9.0], vec![5.0, 2.1]];
        assert!((pass_time(&passes) - (1.1 + 2.1)).abs() < 1e-12);
        let ragged = vec![vec![1.0, 2.0], vec![4.0]];
        assert!((pass_time(&ragged) - 3.5).abs() < 1e-12);
        assert!(pass_time(&[]).is_nan());
    }

    /// Short steps share one series of reference runs; each still gets
    /// its own normalised time.
    #[test]
    fn short_steps_share_a_reference_series() {
        let mut p = Pacer::new();
        for _ in 0..3 {
            p.step(|| ());
        }
        assert_eq!(p.refs.len(), 1);
        assert_eq!(p.end_pass().len(), 3);
        assert_eq!(p.refs.len(), 2);
    }

    #[test]
    fn reference_runs_take_time() {
        let mut p = Pacer::new();
        let v = p.step(|| 7);
        assert_eq!(v, 7);
        assert!(p.pass_s() >= 0.0);
        assert_eq!(p.end_pass().len(), 1);
        assert!(p.ref_ms() > 0.0);
        assert_eq!(p.pass_s(), 0.0);
    }
}
