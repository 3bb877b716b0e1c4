//! Property tests for the persisted-record codecs: `--metrics`
//! snapshots ([`BenchSnapshot`]) and sweep-ledger lines ([`Record`]),
//! each written and read through its record's one field list.
//!
//! * Pins: the checked-in `results/bench_baseline.json` and one real
//!   ledger line of each kind (`tests/fixtures/ledger_lines.jsonl`,
//!   journaled by `sweep run --quick`) re-render byte-identically.
//! * Round trips: records with random field values, every optional
//!   field both present and absent, read back equal, and re-render to
//!   the bytes they were read from.
//! * Fuzzing: truncated, bit-flipped and byte-substituted variants of
//!   those inputs make every reader return `Ok` or `Err`, never panic.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_codec.seeds`.
//! `ASF_PROP_CASES` / `ASF_PROP_SEED` override the budget and base seed;
//! the defaults keep a debug-build run to a few seconds.

use std::path::PathBuf;

use asymfence_common::ledger::{
    read_shard_log, CellRecord, ClaimRecord, DoneRecord, HeartbeatRecord, Record,
};
use asymfence_common::prop::{check, triples, u64s, vecs, Config};
use asymfence_common::stats::{CoreStats, MachineStats, TrafficStats};
use asymfence_common::telemetry::{
    BenchSnapshot, FenceLatencySummary, Json, MetricEntry, PoolTelemetry, ShardTelemetry,
};
use asymfence_common::trace::FenceTally;

const BASELINE: &str = include_str!("../../../results/bench_baseline.json");
const LEDGER_LINES: &str = include_str!("fixtures/ledger_lines.jsonl");

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_codec.seeds")
}

// ---- pins ---------------------------------------------------------------

#[test]
fn baseline_snapshot_re_renders_byte_identically() {
    let snap = BenchSnapshot::parse(BASELINE).unwrap();
    assert_eq!(snap.entries.len(), 98);
    assert!(BASELINE.contains("\"schema\": 2"));
    assert_eq!(snap.to_json(), BASELINE);
}

#[test]
fn ledger_lines_of_every_kind_re_render_byte_identically() {
    let kinds: Vec<&str> = LEDGER_LINES
        .lines()
        .map(|line| {
            let rec = Record::parse_line(line).unwrap().unwrap();
            assert_eq!(rec.to_line(), line);
            rec.kind()
        })
        .collect();
    assert_eq!(kinds, ["claim", "cell", "heartbeat", "done"]);
}

// ---- round trips --------------------------------------------------------

/// Field values drawn in order from a generated word list. A word past
/// the end reads as 0, so shrunk lists still build a record.
struct Raw<'a>(std::slice::Iter<'a, u64>);

impl Raw<'_> {
    fn word(&mut self) -> u64 {
        self.0.next().copied().unwrap_or(0)
    }

    /// An integer JSON carries exactly (up to 2^53).
    fn int(&mut self) -> u64 {
        self.word() & ((1 << 53) - 1)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.word() % n) as usize
    }

    fn bit(&mut self) -> bool {
        self.word() & 1 == 1
    }

    /// Any finite float, from the full bit-pattern range.
    fn float(&mut self) -> f64 {
        Some(f64::from_bits(self.word()))
            .filter(|x| x.is_finite())
            .unwrap_or(0.5)
    }

    /// A short string over characters the writer must escape or pass
    /// through as multi-byte UTF-8.
    fn text(&mut self) -> String {
        const CHARS: [char; 16] = [
            'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{8}', 'é', '€', '😀',
            ',',
        ];
        (0..self.below(6)).map(|_| CHARS[self.below(16)]).collect()
    }

    fn counters<const N: usize>(&mut self) -> [u64; N] {
        std::array::from_fn(|_| self.int())
    }

    fn tally(&mut self) -> FenceTally {
        FenceTally {
            issued: self.int(),
            completed: self.int(),
            rolled_back: self.int(),
            demoted: self.int(),
            bounces: self.int(),
            latency_buckets: self.counters(),
            bounce_buckets: self.counters(),
            total_latency: self.int(),
            max_latency: self.int(),
        }
    }

    fn stats(&mut self) -> MachineStats {
        let cores = (0..self.below(4))
            .map(|_| CoreStats::from_values(&self.counters::<{ CoreStats::FIELDS }>()).unwrap())
            .collect();
        MachineStats {
            cycles: self.int(),
            cores,
            traffic: TrafficStats {
                base_bytes: self.int(),
                retry_bytes: self.int(),
                messages: self.int(),
            },
            deadlocked: self.bit(),
        }
    }

    fn record(&mut self) -> Record {
        match self.below(4) {
            0 => Record::Claim(ClaimRecord {
                shard: self.int(),
                shards: self.int(),
                grid: self.text(),
                cells: self.int(),
                owned: self.int(),
                resume: self.int(),
                deterministic: self.bit(),
                quick: self.bit(),
                pid: self.int(),
            }),
            1 => Record::Heartbeat(HeartbeatRecord {
                shard: self.int(),
                done: self.int(),
                owned: self.int(),
                sim_cycles: self.int(),
                wall_ns: self.int(),
                peak_rss_bytes: self.int(),
                ts_ms: self.int(),
            }),
            2 => Record::Cell(Box::new(CellRecord {
                index: self.int(),
                section: self.text(),
                workload: self.text(),
                design: self.text(),
                cycles: self.int(),
                commits: self.int(),
                aborts: self.int(),
                scv: self.bit(),
                wall_ns: self.int(),
                stats: self.stats(),
                tallies: [self.tally(), self.tally(), self.tally()],
            })),
            _ => Record::Done(DoneRecord {
                shard: self.int(),
                done: self.int(),
                wall_ns: self.int(),
            }),
        }
    }

    /// An entry whose optional native and analyzer fields are each
    /// present or absent (a present counter is nonzero; `ns_per_op`
    /// travels with `ops`).
    fn entry(&mut self) -> MetricEntry {
        let mut e = MetricEntry::new(&self.text(), &self.text(), &self.text());
        for n in [
            &mut e.runs,
            &mut e.sim_cycles,
            &mut e.instrs_retired,
            &mut e.commits,
            &mut e.aborts,
            &mut e.wall_ns,
            &mut e.task_wall_min_ns,
            &mut e.task_wall_max_ns,
        ] {
            *n = self.int();
        }
        if self.bit() {
            e.ops = self.int().max(1);
            e.ns_per_op = self.float();
        }
        for n in [
            &mut e.sites_discovered,
            &mut e.cycles_enumerated,
            &mut e.masks_pruned,
            &mut e.oracle_runs,
        ] {
            *n = if self.bit() { self.int() } else { 0 };
        }
        let derived: [f64; 19] = std::array::from_fn(|_| self.float());
        let d = &mut e.derived;
        [
            d.fence_stall_fraction,
            d.fence_stall_per_fence,
            d.fences_per_kilo_instr,
            d.weak_fence_fraction,
            d.bs_lines_per_wf,
            d.bounces_per_wf,
            d.retries_per_bounced_write,
            d.order_ops_per_wf,
            d.cond_order_failure_rate,
            d.recoveries_per_wf,
            d.demotion_fraction,
            d.remote_ps_stalls_per_wf,
            d.early_retired_load_fraction,
            d.retry_traffic_pct,
            d.bs_overflows_per_wf,
            d.bs_peak_lines,
            d.load_squash_fraction,
            d.l1_miss_rate,
            d.bytes_per_message,
        ] = derived;
        e.fences = (0..self.below(4))
            .map(|_| FenceLatencySummary {
                class: self.text(),
                issued: self.int(),
                completed: self.int(),
                p50: self.int(),
                p90: self.int(),
                p99: self.int(),
                max: self.int(),
                mean: self.float(),
            })
            .collect();
        e
    }

    /// A snapshot whose optional `backend` and `shard` blocks are each
    /// present or absent.
    fn snapshot(&mut self) -> BenchSnapshot {
        BenchSnapshot {
            label: self.text(),
            deterministic: self.bit(),
            quick: self.bit(),
            backend: self.bit().then(|| self.text()),
            shard: self.bit().then(|| ShardTelemetry {
                shards: self.int(),
                resumes: self.int(),
                heartbeat_cells: self.int(),
            }),
            total_wall_ns: self.int(),
            peak_rss_bytes: self.int(),
            pool: PoolTelemetry {
                acquires: self.int(),
                reuses: self.int(),
                builds: self.int(),
                bytes_reused: self.int(),
            },
            phases: (0..self.below(3))
                .map(|_| (self.text(), self.int()))
                .collect(),
            entries: (0..self.below(4)).map(|_| self.entry()).collect(),
        }
    }
}

/// Words enough for the largest record built from them.
fn words() -> impl asymfence_common::prop::Gen<Value = Vec<u64>> {
    vecs(u64s(0, u64::MAX), 0, 600)
}

#[test]
fn ledger_records_round_trip() {
    check("ledger_records_round_trip", &prop_cfg(256), &words(), |w| {
        let rec = Raw(w.iter()).record();
        let line = rec.to_line();
        let back = Record::parse_line(&line)?.ok_or("record skipped as unknown")?;
        if back != rec {
            return Err(format!("read back {back:?}"));
        }
        if back.to_line() != line {
            return Err("re-rendered bytes differ".to_string());
        }
        Ok(())
    });
}

#[test]
fn snapshots_round_trip() {
    check("snapshots_round_trip", &prop_cfg(128), &words(), |w| {
        let snap = Raw(w.iter()).snapshot();
        let json = snap.to_json();
        let back = BenchSnapshot::parse(&json)?;
        if back != snap {
            return Err(format!("read back {back:?}"));
        }
        if back.to_json() != json {
            return Err("re-rendered bytes differ".to_string());
        }
        Ok(())
    });
}

// ---- fuzzing ------------------------------------------------------------

/// Bytes the substitution draws from half the time: JSON structure,
/// number and literal characters, and bytes that break UTF-8.
const INTERESTING: &[u8] = b"{}[]\":,\\-+.eE0123456789 tfn\x00\xff\xc3";

/// Applies `muts` to `bytes`: each is `(kind, position, byte)` with kind
/// 0 truncating at the position, 1 flipping one bit there and 2
/// substituting a byte.
fn mutate(bytes: &[u8], muts: &[(u64, u64, u64)]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &(kind, pos, byte) in muts {
        if out.is_empty() {
            break;
        }
        let at = (pos % out.len() as u64) as usize;
        match kind % 3 {
            0 => out.truncate(at),
            1 => out[at] ^= 1 << (byte % 8),
            _ if byte % 2 == 0 => out[at] = INTERESTING[(byte / 2) as usize % INTERESTING.len()],
            _ => out[at] = (byte >> 8) as u8,
        }
    }
    out
}

/// Up to four mutations: `(kind, position, byte)` each.
fn mutations() -> impl asymfence_common::prop::Gen<Value = Vec<(u64, u64, u64)>> {
    vecs(
        triples(u64s(0, 2), u64s(0, u64::MAX), u64s(0, u64::MAX)),
        1,
        4,
    )
}

#[test]
fn mutated_snapshots_never_panic_the_readers() {
    check(
        "mutated_snapshots_never_panic_the_readers",
        &prop_cfg(48),
        &mutations(),
        |muts| {
            let bytes = mutate(BASELINE.as_bytes(), muts);
            let text = String::from_utf8_lossy(&bytes);
            let _ = Json::parse(&text);
            let _ = BenchSnapshot::parse(&text);
            Ok(())
        },
    );
}

#[test]
fn mutated_ledger_lines_never_panic_the_readers() {
    let lines: Vec<&str> = LEDGER_LINES.lines().collect();
    check(
        "mutated_ledger_lines_never_panic_the_readers",
        &prop_cfg(512),
        &mutations(),
        |muts| {
            let pick = muts.first().map_or(0, |m| m.2);
            let line = lines[(pick % lines.len() as u64) as usize];
            let bytes = mutate(line.as_bytes(), muts);
            let text = String::from_utf8_lossy(&bytes);
            let _ = Json::parse(&text);
            let _ = Record::parse_line(&text);
            Ok(())
        },
    );
}

fn tmp_ledger(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("asf-prop-codec-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn torn_and_mutated_ledger_files_never_panic_the_reader() {
    let path = tmp_ledger("torn");
    check(
        "torn_and_mutated_ledger_files_never_panic_the_reader",
        &prop_cfg(128),
        &mutations(),
        |muts| {
            std::fs::write(&path, mutate(LEDGER_LINES.as_bytes(), muts))
                .map_err(|e| e.to_string())?;
            if let Ok(log) = read_shard_log(&path) {
                // Whatever is kept is a whole-line prefix of the file.
                let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                if log.valid_len + log.torn_bytes != len {
                    return Err(format!("{log:?} does not cover {len} bytes"));
                }
            }
            Ok(())
        },
    );
    std::fs::remove_file(&path).ok();
}
