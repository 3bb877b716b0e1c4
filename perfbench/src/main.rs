//! End-to-end and per-layer benchmark of the asymfence simulator, its
//! run harness and its verification tools.
//!
//! ```text
//! perfbench --workload <figures|sweep|search> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --workload <name> --bless
//! ```
//!
//! Each invocation runs one workload in its own process on one thread:
//! a timed set-up (repeated, median reported), then whole passes of the
//! workload until `--seconds` would be exceeded (at least one), each
//! gated on the exact simulated results. Every set-up and every step of
//! a pass is timed against a fixed reference kernel run next to it
//! (see `pace`), so the times are normalised to a nominal host speed;
//! `norm_wall_s` sums, over a pass's steps, each step's median over the
//! passes. `--trace 1` adds one traced pass that times the calls the
//! benchmark makes into each layer and reports per-layer metrics
//! instead. The last line of stdout is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.
//!
//! `--bless` prints the expectation lines for `expected.txt` (seed
//! 2015). See `README.md` for the workloads, metrics and noise notes.

mod digest;
mod figures;
mod gate;
mod host;
mod pace;
mod probe;
mod search;
mod sweep;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

use gate::{Expected, Unit, DEFAULT_SEED};
use pace::Pacer;
use probe::Layers;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("norm_wall_s", "s"),
    ("setup_s", "s"),
    ("norm_sim_cycles_per_s", "1/s"),
    ("norm_sim_runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ws_gain_pct", "%"),
    ("sim_w_gain_pct", "%"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0
/// where the workload does not call into the layer).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.run_s", "s"),
    ("core.sim_cycles", "count"),
    ("core.ns_per_sim_cycle", "ns"),
    ("cpu.instrs", "count"),
    ("cpu.ns_per_instr", "ns"),
    ("coherence.l1_misses", "count"),
    ("coherence.bounces", "count"),
    ("coherence.order_ops", "count"),
    ("coherence.ns_per_l1_miss", "ns"),
    ("noc.msgs", "count"),
    ("noc.bytes", "bytes"),
    ("noc.ns_per_msg", "ns"),
    ("workloads.install_s", "s"),
    ("bench.machine_s", "s"),
    ("bench.harvest_s", "s"),
    ("bench.pool_reuse_ratio", "ratio"),
    ("bench.report_s", "s"),
    ("bench.overhead_s", "s"),
    ("bench.run_ms_p50", "ms"),
    ("bench.run_ms_p90", "ms"),
    ("bench.run_samples", "count"),
    ("bench.span_overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.fold_s", "s"),
    ("trace.overhead_pct", "%"),
    ("ledger.records", "count"),
    ("ledger.bytes", "bytes"),
    ("ledger.append_s", "s"),
    ("ledger.merge_s", "s"),
    ("explore.runs", "count"),
    ("explore.pruned_ratio", "ratio"),
    ("explore.s", "s"),
    ("synth.masks", "count"),
    ("synth.pruned_ratio", "ratio"),
    ("synth.valid_ratio", "ratio"),
    ("synth.memo_hit_ratio", "ratio"),
    ("synth.sim_runs", "count"),
    ("synth.s", "s"),
    ("analyze.s", "s"),
    ("host.calib_ms", "ms"),
    ("host.cpu_s", "s"),
    ("host.runq_wait_s", "s"),
    ("host.nivcsw", "count"),
    ("host.steal_s", "s"),
    ("host.ref_ms", "ms"),
];

/// Set-ups per run; `setup_s` is the median of their normalised times.
const SETUP_REPS: usize = 7;

/// Modelled execution-time reduction against S+, in percent.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Gains {
    /// WS+ against S+.
    pub ws: f64,
    /// W+ against S+.
    pub w: f64,
}

/// What one pass of a workload produced.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host wall time of the pass (of its steps, for an untraced pass:
    /// the reference runs between them left out).
    pub wall_s: f64,
    /// Simulations executed.
    pub ops: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// The gated slices of the results.
    pub units: Vec<Unit>,
    /// The workload's modelled gains.
    pub gains: Gains,
    /// Operations that broke a seed-independent invariant.
    pub failed_invariants: u64,
    /// Share of machine hand-outs that re-armed a warmed machine.
    pub pool_reuse: f64,
}

/// Named metric values.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Takes every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The `--workload` name.
    fn name(&self) -> &'static str;
    /// Operations a pass is counted as when it panics.
    fn nominal_ops(&self) -> u64;
    /// Whether `--seed` changes the simulated inputs (else the exact
    /// gate applies on every seed).
    fn seeded(&self) -> bool {
        true
    }
    /// One untraced pass, its work cut into steps timed by `pacer`.
    fn pass(&mut self, pacer: &mut Pacer) -> Pass;
    /// One traced pass and its per-layer metrics; `untraced` is the
    /// untraced pass it is compared against.
    fn traced(&mut self, untraced: &Pass) -> (Pass, Metrics);
}

/// The metrics every workload derives from its traced executor's layer
/// clocks; `wall_s` is the traced pass, `untraced_s` the untraced one.
pub fn layer_metrics(l: &Layers, wall_s: f64, untraced_s: f64) -> Metrics {
    let mut m = Metrics::default();
    let run_s = l.run_ns as f64 / 1e9;
    let per = |n: u64| l.run_ns as f64 / n.max(1) as f64;
    m.set("core.run_s", run_s);
    m.set("core.sim_cycles", l.sim_cycles as f64);
    m.set("core.ns_per_sim_cycle", per(l.sim_cycles));
    m.set("cpu.instrs", l.instrs as f64);
    m.set("cpu.ns_per_instr", per(l.instrs));
    m.set("coherence.l1_misses", l.l1_misses as f64);
    m.set("coherence.bounces", l.bounces as f64);
    m.set("coherence.order_ops", l.order_ops as f64);
    m.set("coherence.ns_per_l1_miss", per(l.l1_misses));
    m.set("noc.msgs", l.msgs as f64);
    m.set("noc.bytes", l.bytes as f64);
    m.set("noc.ns_per_msg", per(l.msgs));
    m.set("workloads.install_s", l.install_ns as f64 / 1e9);
    m.set("bench.machine_s", l.machine_ns as f64 / 1e9);
    m.set("bench.harvest_s", l.harvest_ns as f64 / 1e9);
    m.set("bench.overhead_s", wall_s - run_s);
    let mut walls = l.run_wall_ns.clone();
    walls.sort_unstable();
    let pct = |p: f64| match walls.len() {
        0 => 0.0,
        n => walls[((n - 1) as f64 * p).round() as usize] as f64 / 1e6,
    };
    m.set("bench.run_ms_p50", pct(0.5));
    m.set("bench.run_ms_p90", pct(0.9));
    m.set("bench.run_samples", walls.len() as f64);
    m.set(
        "bench.span_overhead_pct",
        100.0 * (wall_s / untraced_s - 1.0),
    );
    m
}

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

const USAGE: &str = "usage: perfbench --workload <figures|sweep|search> [--seed N] \
                     [--seconds S] [--trace 0|1] [--bless]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = num()?.max(1),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["figures", "sweep", "search"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn prepare(name: &str, seed: u64, expected: &Expected) -> Box<dyn Workload> {
    match name {
        "figures" => Box::new(figures::Figures::prepare(seed, expected)),
        "sweep" => Box::new(sweep::Sweep::prepare(seed)),
        _ => Box::new(search::Search::prepare(seed)),
    }
}

/// Runs one pass, turning a panic into a failed pass.
fn guarded<T>(w: &mut dyn Workload, f: impl FnOnce(&mut dyn Workload) -> T) -> Option<T> {
    let name = w.name();
    match catch_unwind(AssertUnwindSafe(|| f(w))) {
        Ok(t) => Some(t),
        Err(e) => {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            eprintln!("perfbench: {name}: pass panicked: {msg}");
            None
        }
    }
}

/// Attempted and failed operations, and the first passes' results.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reference: Option<Vec<Unit>>,
}

impl Tally {
    /// Gates one pass: the exact digests at the default seed (or always,
    /// for an unseeded workload), the invariants on any seed, and
    /// pass-to-pass equality within the run.
    fn gate(&mut self, w: &dyn Workload, seed: u64, expected: &Expected, p: &Pass) {
        self.attempted += p.ops.max(1);
        let mut failed = p.failed_invariants;
        if p.failed_invariants > 0 {
            eprintln!(
                "perfbench: {}: {} operations broke an invariant",
                w.name(),
                p.failed_invariants
            );
        }
        if !w.seeded() || seed == DEFAULT_SEED {
            let (f, msgs) = expected.check(w.name(), &p.units);
            failed += f;
            for m in msgs {
                eprintln!("perfbench: {}: result mismatch: {m}", w.name());
            }
        }
        // Within one run, every pass of a kind must repeat the first.
        let kind = |u: &[Unit]| {
            u.first()
                .map(|u| u.name.split('.').next().map(str::to_owned))
        };
        match &self.reference {
            Some(r) if kind(r) == kind(&p.units) && *r != p.units => {
                failed += p.ops.max(1);
                eprintln!("perfbench: {}: a pass did not repeat the first", w.name());
            }
            Some(_) => {}
            None => self.reference = Some(p.units.clone()),
        }
        self.failed += failed.min(p.ops.max(1));
    }

    fn panicked(&mut self, ops: u64) {
        self.attempted += ops.max(1);
        self.failed += ops.max(1);
    }
}

fn emit(t: &Tally, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(", ")
    );
}

fn main() {
    let steal0 = host::steal_s();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2)
    });
    let expected = Expected::checked_in();

    if args.bless {
        let mut w = prepare(&args.workload, DEFAULT_SEED, &expected);
        let p = w.pass(&mut Pacer::new());
        let (t, _) = w.traced(&p);
        let mut units = p.units.clone();
        units.extend(t.units.into_iter().filter(|u| !p.units.contains(u)));
        print!("{}", gate::render(w.name(), &units));
        if w.name() == "figures" {
            println!("value figures.sim_cycles {}", t.cycles);
        }
        return;
    }

    // Set-up, several times over, each repetition one timed step. The
    // last state is the one measured.
    let mut pacer = Pacer::new();
    let mut w = None;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let state = pacer.step(|| catch_unwind(|| prepare(&args.workload, args.seed, &expected)));
        raw_setups.push(pacer.pass_s());
        setups.extend(pacer.end_pass());
        let Ok(state) = state else {
            eprintln!("perfbench: {}: set-up panicked", args.workload);
            let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let zeros: Vec<(&str, f64, &str)> = names.iter().map(|&(n, u)| (n, 0.0, u)).collect();
            let mut failed = Tally::default();
            failed.panicked(1);
            emit(&failed, &zeros);
            return;
        };
        w = Some(state);
    }
    let mut w = w.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut steps: Vec<Vec<f64>> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    loop {
        match guarded(w.as_mut(), |w| w.pass(&mut pacer)) {
            Some(p) => {
                tally.gate(w.as_ref(), args.seed, &expected, &p);
                passes.push(p);
                steps.push(pacer.end_pass());
            }
            None => {
                tally.panicked(w.nominal_ops());
                break;
            }
        }
        // The mean pass so far, reference runs included, predicts the
        // next one.
        let next = t0.elapsed() / passes.len() as u32;
        if args.trace || t0.elapsed() + next > budget {
            break;
        }
    }

    let (cpu_s, wait_s) = host::cpu_and_wait_s();
    eprintln!(
        "perfbench: {} seed {}: {} passes of {} steps, walls {:?} s (normalised {:?} s), \
         setups {:?} s, reference {:.2} ms, host cpu {cpu_s:.2} s, run-queue wait {wait_s:.2} s, \
         steal {:.2} s, nivcsw {}",
        w.name(),
        args.seed,
        passes.len(),
        steps.first().map_or(0, Vec::len),
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        steps
            .iter()
            .map(|s| s.iter().sum::<f64>())
            .collect::<Vec<_>>(),
        raw_setups,
        pacer.ref_ms(),
        host::steal_s() - steal0,
        host::nivcsw()
    );

    if args.trace {
        let mut metrics = Metrics::default();
        if let Some(untraced) = passes.first().cloned() {
            match guarded(w.as_mut(), |w| w.traced(&untraced)) {
                Some((p, m)) => {
                    // Gating also holds the traced pass to the untraced
                    // one wherever both produce the same kind of units.
                    tally.gate(w.as_ref(), args.seed, &expected, &p);
                    metrics.extend(m);
                }
                None => tally.panicked(w.nominal_ops()),
            }
        }
        let (cpu_s, wait_s) = host::cpu_and_wait_s();
        metrics.set("host.calib_ms", host::calib_ms());
        metrics.set("host.cpu_s", cpu_s);
        metrics.set("host.runq_wait_s", wait_s);
        metrics.set("host.nivcsw", host::nivcsw() as f64);
        metrics.set("host.steal_s", host::steal_s() - steal0);
        metrics.set("host.ref_ms", pacer.ref_ms());
        let out: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n, metrics.0.get(n).copied().unwrap_or(0.0), u))
            .collect();
        emit(&tally, &out);
        return;
    }

    // Per pass: simulated work (the same on every pass) over the
    // normalised pass time.
    let wall = pace::pass_time(&steps);
    let n = passes.len().max(1) as f64;
    let ops = passes.iter().map(|p| p.ops).sum::<u64>() as f64 / n;
    let cycles = passes.iter().map(|p| p.cycles).sum::<u64>() as f64 / n;
    let gains = passes.first().map(|p| p.gains).unwrap_or_default();
    let values = [
        wall,
        median(&setups),
        cycles / wall,
        ops / wall,
        host::peak_rss_mb(),
        gains.ws,
        gains.w,
    ];
    let out: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    emit(&tally, &out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_common::telemetry::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// The benchmark emits exactly the metrics BENCHMARK.json declares.
    #[test]
    fn declared_metrics_are_the_emitted_ones() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
