//! Property tests pinning the algebra the sharded sweep relies on:
//! [`MachineStats::merge`] and [`FenceTally::merge`] are associative,
//! have their `Default` as identity, and are fold-order invariant —
//! which is exactly what makes a ledger merge (any shard count, any
//! interleaving, any resume history) reproduce the single-process fold.
//!
//! Runs on the in-repo property harness (`asymfence_common::prop`):
//! failing case seeds persist to `tests/regressions/prop_merge.seeds`
//! and replay before fresh cases. `ASF_PROP_CASES` / `ASF_PROP_SEED`
//! override the budget and base seed.

use asymfence_common::prop::{bools, check, map, pairs, triples, u64s, vecs, Config};
use asymfence_common::stats::CoreStats;
use asymfence_common::trace::FenceTally;
use asymfence_common::MachineStats;

fn prop_cfg(cases: u32) -> Config {
    Config::from_env(cases).regressions("tests/regressions/prop_merge.seeds")
}

// ---- generators ---------------------------------------------------------

type StatsRaw = ((u64, bool), (u64, u64, u64), Vec<Vec<u64>>);

fn build_stats(raw: StatsRaw) -> MachineStats {
    let ((cycles, deadlocked), (base, retry, messages), cores) = raw;
    let mut s = MachineStats {
        cycles,
        deadlocked,
        ..MachineStats::default()
    };
    s.traffic.base_bytes = base;
    s.traffic.retry_bytes = retry;
    s.traffic.messages = messages;
    s.cores = cores
        .iter()
        .map(|vals| CoreStats::from_values(vals).expect("generator emits FIELDS values"))
        .collect();
    s
}

fn stats_gen() -> impl asymfence_common::prop::Gen<Value = MachineStats> {
    map(
        triples(
            pairs(u64s(0, 1 << 40), bools()),
            triples(u64s(0, 1 << 30), u64s(0, 1 << 30), u64s(0, 1 << 20)),
            // 0..=4 cores so merges exercise the index-extension path.
            vecs(
                vecs(u64s(0, 1 << 20), CoreStats::FIELDS, CoreStats::FIELDS),
                0,
                4,
            ),
        ),
        build_stats,
    )
}

fn build_tally(vals: Vec<u64>) -> FenceTally {
    let mut t = FenceTally {
        issued: vals[0],
        completed: vals[1],
        rolled_back: vals[2],
        demoted: vals[3],
        bounces: vals[4],
        total_latency: vals[5],
        max_latency: vals[6],
        ..FenceTally::default()
    };
    for (i, b) in t.latency_buckets.iter_mut().enumerate() {
        *b = vals[7 + i];
    }
    let off = 7 + t.latency_buckets.len();
    for (i, b) in t.bounce_buckets.iter_mut().enumerate() {
        *b = vals[off + i];
    }
    t
}

fn tally_gen() -> impl asymfence_common::prop::Gen<Value = FenceTally> {
    let n = 7 + 32 + 8; // scalars + latency buckets + bounce buckets
    map(vecs(u64s(0, 1 << 30), n, n), build_tally)
}

// ---- MachineStats -------------------------------------------------------

#[test]
fn machine_stats_merge_is_associative() {
    let gen = triples(stats_gen(), stats_gen(), stats_gen());
    check(
        "machine_stats_merge_is_associative",
        &prop_cfg(64),
        &gen,
        |(a, b, c)| {
            let left = a.clone().merged(b).merged(c);
            let right = a.clone().merged(&b.clone().merged(c));
            if left != right {
                return Err(format!("(a·b)·c != a·(b·c): {left:?} vs {right:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn machine_stats_default_is_identity() {
    check(
        "machine_stats_default_is_identity",
        &prop_cfg(64),
        &stats_gen(),
        |s| {
            if MachineStats::default().merged(s) != *s {
                return Err("default·s != s".into());
            }
            if s.clone().merged(&MachineStats::default()) != *s {
                return Err("s·default != s".into());
            }
            Ok(())
        },
    );
}

#[test]
fn machine_stats_fold_is_order_and_grouping_invariant() {
    let gen = vecs(stats_gen(), 0, 6);
    check(
        "machine_stats_fold_is_order_and_grouping_invariant",
        &prop_cfg(48),
        &gen,
        |parts| {
            let serial = parts
                .iter()
                .fold(MachineStats::default(), |acc, s| acc.merged(s));
            // Reversed order (shards finish in any order).
            let reversed = parts
                .iter()
                .rev()
                .fold(MachineStats::default(), |acc, s| acc.merged(s));
            if reversed != serial {
                return Err("reversed fold diverged".into());
            }
            // Arbitrary grouping: pairwise tree reduction.
            let mut layer: Vec<MachineStats> = parts.clone();
            while layer.len() > 1 {
                layer = layer
                    .chunks(2)
                    .map(|c| {
                        c.iter()
                            .fold(MachineStats::default(), |acc, s| acc.merged(s))
                    })
                    .collect();
            }
            let tree = layer.into_iter().next().unwrap_or_default();
            if tree != serial {
                return Err("tree fold diverged".into());
            }
            Ok(())
        },
    );
}

// ---- FenceTally ---------------------------------------------------------

#[test]
fn fence_tally_merge_is_associative() {
    let gen = triples(tally_gen(), tally_gen(), tally_gen());
    check(
        "fence_tally_merge_is_associative",
        &prop_cfg(64),
        &gen,
        |(a, b, c)| {
            let mut left = a.clone();
            left.merge(b);
            left.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut right = a.clone();
            right.merge(&bc);
            if left != right {
                return Err(format!("(a·b)·c != a·(b·c): {left:?} vs {right:?}"));
            }
            Ok(())
        },
    );
}

#[test]
fn fence_tally_default_is_identity() {
    check(
        "fence_tally_default_is_identity",
        &prop_cfg(64),
        &tally_gen(),
        |t| {
            let mut left = FenceTally::default();
            left.merge(t);
            if left != *t {
                return Err("default·t != t".into());
            }
            let mut right = t.clone();
            right.merge(&FenceTally::default());
            if right != *t {
                return Err("t·default != t".into());
            }
            Ok(())
        },
    );
}

#[test]
fn fence_tally_fold_is_order_and_grouping_invariant() {
    let gen = vecs(tally_gen(), 0, 6);
    check(
        "fence_tally_fold_is_order_and_grouping_invariant",
        &prop_cfg(48),
        &gen,
        |parts| {
            let fold = |iter: &mut dyn Iterator<Item = &FenceTally>| {
                let mut acc = FenceTally::default();
                for t in iter {
                    acc.merge(t);
                }
                acc
            };
            let serial = fold(&mut parts.iter());
            let reversed = fold(&mut parts.iter().rev());
            if reversed != serial {
                return Err("reversed fold diverged".into());
            }
            let mut layer: Vec<FenceTally> = parts.clone();
            while layer.len() > 1 {
                layer = layer.chunks(2).map(|c| fold(&mut c.iter())).collect();
            }
            let tree = layer.into_iter().next().unwrap_or_default();
            if tree != serial {
                return Err("tree fold diverged".into());
            }
            Ok(())
        },
    );
}
