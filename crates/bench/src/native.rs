//! Native-runtime benchmark and sim-vs-silicon cross-validation (the
//! `native_bench` binary).
//!
//! Runs the native ports of the kernels the simulator studies — dekker,
//! the THE deque, and two TLRW STM profiles — under every
//! [`PairKind`], measures wall-clock per protocol operation, and (with
//! `--crossval`) joins the native ranking against the simulator's
//! cycle ranking for the corresponding workload: native
//! [`Asymmetric`]-vs-[`AllHeavy`] is the silicon analogue of the
//! simulated W+-vs-S+ comparison.
//!
//! Every kernel also self-checks (mutual exclusion witnesses, task
//! conservation, lost-update counts); any violation fails the run, so
//! the benchmark doubles as a litmus smoke test for the fence backend.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use asymfence::prelude::FenceDesign;
use asymfence_common::cli::{Args, Usage};
use asymfence_common::telemetry::{self, label_from_path, BenchSnapshot, MetricEntry, Stopwatch};
use asymfence_native::{
    backend, heavy_fence_cost_ns, AllHeavy, Asymmetric, FenceBackend, FencePair, HwSeqCst,
    PairKind, TheDeque, TlrwStm,
};
use asymfence_workloads::sites::SiteBench;
use asymfence_workloads::ustm::UstmBench;

use crate::{RunSpec, Table, SEED};

/// The native kernels, each with a simulator counterpart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeKernel {
    /// Two-thread Dekker mutual exclusion (sim: `sites dekker`).
    Dekker,
    /// THE work-stealing deque, owner-dominated (sim: `sites wsq`).
    Deque,
    /// TLRW hot-counter increments, write-dominated (sim: `ustm Counter`).
    UstmCounter,
    /// TLRW read-8-write-1 mix, read-dominated (sim: `ustm ReadNWrite1`).
    UstmRead,
}

impl NativeKernel {
    /// All kernels, in report order.
    pub const ALL: [NativeKernel; 4] = [
        NativeKernel::Dekker,
        NativeKernel::Deque,
        NativeKernel::UstmCounter,
        NativeKernel::UstmRead,
    ];

    /// Stable report/metrics label.
    pub fn name(self) -> &'static str {
        match self {
            NativeKernel::Dekker => "dekker",
            NativeKernel::Deque => "wsq",
            NativeKernel::UstmCounter => "ustm-counter",
            NativeKernel::UstmRead => "ustm-read",
        }
    }

    /// The simulator workload this kernel mirrors, as shown in reports.
    pub fn sim_counterpart(self) -> &'static str {
        match self {
            NativeKernel::Dekker => "sites dekker",
            NativeKernel::Deque => "sites wsq",
            NativeKernel::UstmCounter => "ustm Counter",
            NativeKernel::UstmRead => "ustm ReadNWrite1",
        }
    }

    fn iters(self, quick: bool) -> u64 {
        let full = match self {
            NativeKernel::Dekker => 30_000,      // entries per thread
            NativeKernel::Deque => 60_000,       // tasks through the deque
            NativeKernel::UstmCounter => 15_000, // commits per thread
            NativeKernel::UstmRead => 8_000,     // commits per thread
        };
        if quick {
            full / 6
        } else {
            full
        }
    }
}

/// One measured (kernel, pair) cell.
#[derive(Clone, Debug)]
pub struct NativeRow {
    /// Which kernel ran.
    pub kernel: NativeKernel,
    /// Which fence pair it ran under.
    pub pair: PairKind,
    /// Protocol operations completed (deterministic per kernel).
    pub ops: u64,
    /// Wall-clock for the whole kernel, ns.
    pub wall_ns: u64,
    /// Transaction aborts (STM kernels).
    pub aborts: u64,
    /// Self-check failures; must be 0.
    pub violations: u64,
}

impl NativeRow {
    /// Mean wall-clock per protocol operation.
    pub fn ns_per_op(&self) -> f64 {
        self.wall_ns as f64 / self.ops.max(1) as f64
    }
}

struct Counts {
    ops: u64,
    aborts: u64,
    violations: u64,
}

fn bench_deque<P: FencePair>(pair: P, tasks: u64) -> Counts {
    let q = TheDeque::new(256, pair);
    let done = AtomicBool::new(false);
    let (owner_sum, thief_sum) = std::thread::scope(|s| {
        let thief = s.spawn(|| {
            let mut sum = 0u64;
            while !done.load(Ordering::Acquire) {
                match q.steal() {
                    Some(v) => sum += v,
                    None => std::thread::yield_now(),
                }
            }
            while let Some(v) = q.steal() {
                sum += v;
            }
            sum
        });
        let mut sum = 0u64;
        let mut next = 1u64;
        while next <= tasks {
            // Owner hot loop: push a small burst, take half back.
            let burst = (tasks - next + 1).min(8);
            let mut pushed = 0;
            for _ in 0..burst {
                if q.push(next) {
                    next += 1;
                    pushed += 1;
                } else {
                    break;
                }
            }
            for _ in 0..pushed / 2 {
                if let Some(v) = q.take() {
                    sum += v;
                }
            }
        }
        while let Some(v) = q.take() {
            sum += v;
        }
        done.store(true, Ordering::Release);
        (sum, thief.join().unwrap())
    });
    let expect = tasks * (tasks + 1) / 2;
    Counts {
        ops: 2 * tasks, // each task enqueued once and dequeued once
        aborts: 0,
        violations: u64::from(owner_sum + thief_sum != expect),
    }
}

fn bench_ustm_counter<P: FencePair>(pair: P, per_thread: u64) -> Counts {
    let stm = TlrwStm::new(2, 2, pair);
    let aborts: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|tid| {
                let stm = &stm;
                s.spawn(move || {
                    let mut aborts = 0u64;
                    for _ in 0..per_thread {
                        let (_, a) = stm.run(tid, |tx| {
                            let v = tx.read(0)?;
                            tx.write(0, v + 1)
                        });
                        aborts += a;
                    }
                    aborts
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    Counts {
        ops: 2 * per_thread,
        aborts,
        violations: u64::from(stm.peek(0) != 2 * per_thread),
    }
}

fn bench_ustm_read<P: FencePair>(pair: P, per_thread: u64) -> Counts {
    const LOCS: usize = 64;
    let stm = TlrwStm::new(LOCS, 2, pair);
    let aborts: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2usize)
            .map(|tid| {
                let stm = &stm;
                s.spawn(move || {
                    // Read-dominated ReadNWrite1 shape: 8 reads across
                    // the whole array, one write into the thread's own
                    // half (read-write conflicts only).
                    let mut rng = 0x9e37_79b9 ^ (tid as u64) << 32 | 1;
                    let mut aborts = 0u64;
                    for _ in 0..per_thread {
                        let (_, a) = stm.run(tid, |tx| {
                            let mut acc = 0u64;
                            for _ in 0..8 {
                                rng ^= rng << 13;
                                rng ^= rng >> 7;
                                rng ^= rng << 17;
                                acc = acc.wrapping_add(tx.read(rng as usize % LOCS)?);
                            }
                            let dst = LOCS / 2 * tid + (rng as usize % (LOCS / 2));
                            tx.write(dst, acc)
                        });
                        aborts += a;
                    }
                    aborts
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    Counts {
        ops: 2 * per_thread,
        aborts,
        violations: 0, // conservation is covered by the counter kernel
    }
}

fn run_with_pair<P: FencePair>(kernel: NativeKernel, pair: P, iters: u64) -> Counts {
    match kernel {
        NativeKernel::Dekker => {
            let r = asymfence_native::dekker(pair, iters);
            Counts {
                ops: r.ops,
                aborts: 0,
                violations: r.violations,
            }
        }
        NativeKernel::Deque => bench_deque(pair, iters),
        NativeKernel::UstmCounter => bench_ustm_counter(pair, iters),
        NativeKernel::UstmRead => bench_ustm_read(pair, iters),
    }
}

/// Runs one (kernel, pair) cell and times it.
pub fn run_cell(kernel: NativeKernel, pair: PairKind, quick: bool) -> NativeRow {
    let iters = kernel.iters(quick);
    let start = Instant::now();
    let counts = match pair {
        PairKind::AllHeavy => run_with_pair(kernel, AllHeavy, iters),
        PairKind::Asymmetric => run_with_pair(kernel, Asymmetric, iters),
        PairKind::HwSeqCst => run_with_pair(kernel, HwSeqCst, iters),
    };
    NativeRow {
        kernel,
        pair,
        ops: counts.ops,
        wall_ns: start.elapsed().as_nanos() as u64,
        aborts: counts.aborts,
        violations: counts.violations,
    }
}

/// Simulated cost of the kernel's counterpart workload under `design`,
/// in units where lower is better (cycles for the run-to-completion
/// site benches, cycles per commit for the windowed ustm benches).
pub fn sim_cost(kernel: NativeKernel, design: FenceDesign, quick: bool) -> f64 {
    let window: u64 = if quick { 150_000 } else { 400_000 };
    match kernel {
        NativeKernel::Dekker => {
            RunSpec::sites(SiteBench::Dekker, design, SEED)
                .execute()
                .cycles as f64
        }
        NativeKernel::Deque => {
            RunSpec::sites(SiteBench::Wsq, design, SEED)
                .execute()
                .cycles as f64
        }
        NativeKernel::UstmCounter => {
            let r = RunSpec::ustm(UstmBench::Counter, design, 4, SEED, window).execute();
            window as f64 / r.commits.max(1) as f64
        }
        NativeKernel::UstmRead => {
            let r = RunSpec::ustm(UstmBench::ReadNWrite1, design, 4, SEED, window).execute();
            window as f64 / r.commits.max(1) as f64
        }
    }
}

fn classify(speedup: f64) -> &'static str {
    if speedup > 1.05 {
        "faster"
    } else if speedup < 0.95 {
        "slower"
    } else {
        "tie"
    }
}

/// The per-workload agreement verdict between the native
/// asymmetric-vs-all-heavy speedup and the simulated W+-vs-S+ speedup.
pub fn verdict(native_speedup: f64, sim_speedup: f64) -> String {
    let n = classify(native_speedup);
    let s = classify(sim_speedup);
    match (n, s) {
        _ if n == s => format!("agree (both {n})"),
        ("tie", _) | (_, "tie") => format!("mixed (native {n}, sim {s})"),
        _ => format!("DISAGREE (native {n}, sim {s})"),
    }
}

/// Parsed `native_bench` flags.
#[derive(Clone, Debug, Default)]
pub struct NativeOpts {
    /// Shrink every kernel ~6x.
    pub quick: bool,
    /// Also run the simulator counterparts and print the joined table.
    pub crossval: bool,
    /// Write a [`BenchSnapshot`] JSON here.
    pub metrics: Option<String>,
}

/// `native_bench` usage text.
pub const USAGE: &str = "native_bench [--quick] [--crossval] [--metrics PATH]\n\
                         \n\
                         Runs the native asymmetric-fence kernels under every fence\n\
                         pair; --crossval joins the ranking against the simulator's.\n\
                         ASF_NATIVE_BACKEND=fallback forces the seqcst fallback.";

/// Parses `native_bench`'s command line over the `ASF_QUICK` default.
pub fn parse_args(mut args: Args) -> Result<NativeOpts, Usage> {
    let mut opts = NativeOpts {
        quick: crate::quick(),
        ..Default::default()
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--crossval" => opts.crossval = true,
            "--metrics" => opts.metrics = Some(args.value(&flag)?),
            other => return Err(Usage::unknown(other)),
        }
    }
    Ok(opts)
}

fn snapshot(rows: &[NativeRow], quick: bool, label: &str, since: &Stopwatch) -> BenchSnapshot {
    let deterministic = telemetry::deterministic_from_env();
    let mut snap = BenchSnapshot::new(label);
    snap.stamp_host(deterministic, since);
    snap.quick = quick;
    snap.backend = Some(backend().label().to_string());
    for row in rows {
        let mut e = MetricEntry::new("native", row.kernel.name(), row.pair.name());
        e.runs = 1;
        e.ops = row.ops;
        e.aborts = row.aborts;
        if !deterministic {
            e.wall_ns = row.wall_ns;
            e.task_wall_min_ns = row.wall_ns;
            e.task_wall_max_ns = row.wall_ns;
            e.ns_per_op = row.ns_per_op();
        }
        snap.entries.push(e);
    }
    snap
}

/// Entry point for the `native_bench` binary; returns the process exit
/// code: 1 when any kernel self-check failed, 2 when the `--metrics`
/// file cannot be written.
pub fn main_impl(opts: &NativeOpts) -> i32 {
    let start = Stopwatch::start();
    let b = backend();
    println!("== native asymmetric-fence benchmark ==");
    println!("backend: {}", b.label());
    let cost = heavy_fence_cost_ns(if opts.quick { 512 } else { 4096 });
    println!(
        "heavy_fence round-trip: {cost:.0} ns mean ({}); light_fence: {}",
        match b {
            FenceBackend::Membarrier => "membarrier PRIVATE_EXPEDITED",
            FenceBackend::SeqCstFallback => "fence(SeqCst) fallback",
        },
        match b {
            FenceBackend::Membarrier => "compiler-only (zero instructions)",
            FenceBackend::SeqCstFallback => "escalated to fence(SeqCst)",
        }
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("kernel threads: 2, host cpus: {cores}, pinning: none");
    println!();

    let mut rows = Vec::new();
    for kernel in NativeKernel::ALL {
        for pair in PairKind::ALL {
            rows.push(run_cell(kernel, pair, opts.quick));
        }
    }

    let mut t = Table::new(vec![
        "kernel",
        "pair",
        "sim design",
        "ops",
        "ns/op",
        "aborts",
        "violations",
    ]);
    for r in &rows {
        t.row(vec![
            r.kernel.name().to_string(),
            r.pair.name().to_string(),
            r.pair.sim_design().to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.ns_per_op()),
            r.aborts.to_string(),
            r.violations.to_string(),
        ]);
    }
    println!("{}", t.to_markdown());

    if opts.crossval {
        println!("== sim-vs-silicon cross-validation ==");
        println!(
            "speedups are cost ratios (>1 = the asymmetric/weak side wins):\n\
             native = all-heavy ns/op over asymmetric ns/op, sim = S+ cost\n\
             over W+ (and WS+) simulated cost for the counterpart workload.\n\
             The verdict judges native against the best of W+/WS+ — the\n\
             native pair weakens only critical sites, which WS+ models\n\
             more closely than the all-weak W+."
        );
        let mut t = Table::new(vec![
            "kernel",
            "sim counterpart",
            "native asym/all-heavy",
            "native asym/seqcst",
            "sim W+/S+",
            "sim WS+/S+",
            "verdict",
        ]);
        for kernel in NativeKernel::ALL {
            let ns = |pair: PairKind| {
                rows.iter()
                    .find(|r| r.kernel == kernel && r.pair == pair)
                    .map(NativeRow::ns_per_op)
                    .unwrap_or(0.0)
            };
            let native_speedup = ns(PairKind::AllHeavy) / ns(PairKind::Asymmetric);
            let native_vs_seqcst = ns(PairKind::HwSeqCst) / ns(PairKind::Asymmetric);
            let s_cost = sim_cost(kernel, FenceDesign::SPlus, opts.quick);
            let w_speedup = s_cost / sim_cost(kernel, FenceDesign::WPlus, opts.quick);
            let ws_speedup = s_cost / sim_cost(kernel, FenceDesign::WsPlus, opts.quick);
            t.row(vec![
                kernel.name().to_string(),
                kernel.sim_counterpart().to_string(),
                format!("{native_speedup:.2}x"),
                format!("{native_vs_seqcst:.2}x"),
                format!("{w_speedup:.2}x"),
                format!("{ws_speedup:.2}x"),
                verdict(native_speedup, w_speedup.max(ws_speedup)),
            ]);
        }
        println!("{}", t.to_markdown());
        if cores < 2 {
            println!(
                "note: single host cpu — native wall-clock includes timeslice\n\
                 effects; rankings remain meaningful, magnitudes are noisy."
            );
        }
    }

    if let Some(path) = &opts.metrics {
        let snap = snapshot(&rows, opts.quick, &label_from_path(path), &start);
        if let Err(e) = snap.write_to(path) {
            eprintln!("{e}");
            return 2;
        }
    }

    let violations: u64 = rows.iter().map(|r| r.violations).sum();
    if violations > 0 {
        eprintln!("FATAL: {violations} kernel self-check violation(s)");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_self_check_cleanly() {
        for kernel in NativeKernel::ALL {
            let r = run_cell(kernel, PairKind::Asymmetric, true);
            assert_eq!(r.violations, 0, "{}", kernel.name());
            assert!(r.ops > 0);
            assert!(r.wall_ns > 0);
        }
    }

    #[test]
    fn sim_cost_orders_designs_sanely() {
        // W+ must not be more expensive than all-strong S+ on the
        // owner-dominated deque (the paper's headline result).
        let s = sim_cost(NativeKernel::Deque, FenceDesign::SPlus, true);
        let w = sim_cost(NativeKernel::Deque, FenceDesign::WPlus, true);
        assert!(s > 0.0 && w > 0.0);
        assert!(w <= s, "W+ ({w}) slower than S+ ({s}) on wsq");
    }

    #[test]
    fn verdicts_cover_the_quadrants() {
        assert_eq!(verdict(1.5, 1.5), "agree (both faster)");
        assert_eq!(verdict(0.5, 0.5), "agree (both slower)");
        assert!(verdict(1.0, 1.5).starts_with("mixed"));
        assert!(verdict(0.5, 1.5).starts_with("DISAGREE"));
    }

    fn parse(v: &[&str]) -> Result<NativeOpts, Usage> {
        parse_args(Args::new(v.iter().copied()))
    }

    #[test]
    fn flags_set_their_options() {
        let opts = parse(&["--crossval", "--metrics", "n.json", "--quick"]).unwrap();
        assert!(opts.quick && opts.crossval);
        assert_eq!(opts.metrics.as_deref(), Some("n.json"));
        let opts = parse(&[]).unwrap();
        assert!(!opts.crossval && opts.metrics.is_none());
    }

    #[test]
    fn bad_flags_are_usage_errors() {
        assert!(matches!(parse(&["--metrics"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--frobnicate"]), Err(Usage::Error(_))));
        assert!(matches!(parse(&["--jobs", "2"]), Err(Usage::Error(_))));
        assert_eq!(parse(&["--help"]).unwrap_err(), Usage::Help);
        assert_eq!(parse(&["-h"]).unwrap_err(), Usage::Help);
    }

    #[test]
    fn kernel_labels_are_stable() {
        for k in NativeKernel::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.sim_counterpart().is_empty());
        }
    }
}
