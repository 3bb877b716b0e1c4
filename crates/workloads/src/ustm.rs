//! The RSTM STM microbenchmarks (the paper's *ustm* group).
//!
//! Ten concurrent data structures exercised with the paper's mix — 50 %
//! lookups, 25 % inserts, 25 % deletes — over the TLRW substrate
//! ([`crate::tlrw`]). Each benchmark is a [`TxProfile`] whose location
//! pattern and read/write-set sizes model the structure: chains for
//! lists, root-to-leaf paths for trees, uniform picks for hash tables, a
//! single hot word for the counter.
//!
//! Performance is reported as transactional throughput (committed
//! transactions per simulated second), as in Figure 9.

use asymfence::prelude::ThreadProgram;
use asymfence_common::config::MachineConfig;

use crate::tlrw::{self, AccessPattern, TxClass, TxProfile};

/// The ten ustm microbenchmarks, in the paper's Figure 9 order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum UstmBench {
    Counter,
    DList,
    Forest,
    Hash,
    List,
    Mcas,
    ReadNWrite1,
    ReadWriteN,
    Tree,
    TreeOverwrite,
}

impl UstmBench {
    /// All benchmarks, in Figure 9's order.
    pub const ALL: [UstmBench; 10] = [
        UstmBench::Counter,
        UstmBench::DList,
        UstmBench::Forest,
        UstmBench::Hash,
        UstmBench::List,
        UstmBench::Mcas,
        UstmBench::ReadNWrite1,
        UstmBench::ReadWriteN,
        UstmBench::Tree,
        UstmBench::TreeOverwrite,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            UstmBench::Counter => "Counter",
            UstmBench::DList => "DList",
            UstmBench::Forest => "Forest",
            UstmBench::Hash => "Hash",
            UstmBench::List => "List",
            UstmBench::Mcas => "MCAS",
            UstmBench::ReadNWrite1 => "ReadNWrite1",
            UstmBench::ReadWriteN => "ReadWriteN",
            UstmBench::Tree => "Tree",
            UstmBench::TreeOverwrite => "TreeOverwrite",
        }
    }

    /// The 50/25/25 lookup/insert/delete mix with structure-specific
    /// read/write-set sizes.
    fn mix(
        lookup_reads: (u64, u64),
        upd_reads: (u64, u64),
        upd_writes: (u64, u64),
    ) -> Vec<TxClass> {
        vec![
            TxClass {
                weight: 2, // 50% lookups
                reads: lookup_reads,
                writes: (0, 0),
            },
            TxClass {
                weight: 1, // 25% inserts
                reads: upd_reads,
                writes: upd_writes,
            },
            TxClass {
                weight: 1, // 25% deletes
                reads: upd_reads,
                writes: upd_writes,
            },
        ]
    }

    /// The benchmark's TLRW profile.
    pub fn profile(self) -> TxProfile {
        let (locations, pattern, classes) = match self {
            // Pure increments: write-lock the single word (a read lock
            // would self-upgrade and deadlock against other readers).
            UstmBench::Counter => (
                2,
                AccessPattern::Hotspot,
                vec![TxClass {
                    weight: 1,
                    reads: (0, 0),
                    writes: (1, 1),
                }],
            ),
            UstmBench::DList => (64, AccessPattern::Chain, Self::mix((3, 8), (3, 8), (2, 3))),
            UstmBench::Forest => (
                256,
                AccessPattern::TreePath,
                Self::mix((5, 9), (5, 9), (1, 3)),
            ),
            UstmBench::Hash => (
                256,
                AccessPattern::Random,
                Self::mix((1, 2), (1, 2), (1, 1)),
            ),
            UstmBench::List => (
                192,
                AccessPattern::Chain,
                Self::mix((5, 14), (5, 14), (1, 2)),
            ),
            UstmBench::Mcas => (
                128,
                AccessPattern::Random,
                vec![TxClass {
                    weight: 1,
                    reads: (4, 8),
                    writes: (4, 8),
                }],
            ),
            UstmBench::ReadNWrite1 => (
                256,
                AccessPattern::Random,
                vec![TxClass {
                    weight: 1,
                    reads: (8, 16),
                    writes: (1, 1),
                }],
            ),
            UstmBench::ReadWriteN => (
                256,
                AccessPattern::Random,
                vec![TxClass {
                    weight: 1,
                    reads: (6, 12),
                    writes: (6, 12),
                }],
            ),
            UstmBench::Tree => (
                512,
                AccessPattern::TreePath,
                Self::mix((7, 10), (7, 10), (1, 2)),
            ),
            UstmBench::TreeOverwrite => (
                512,
                AccessPattern::TreePath,
                Self::mix((7, 10), (7, 10), (3, 6)),
            ),
        };
        TxProfile {
            name: self.name(),
            locations,
            pattern,
            classes,
            // Almost no app compute: these microbenchmarks are pure
            // data-structure operations and synchronization-bound (the
            // paper measures ~54% of time in fence stall under S+).
            inter_tx_compute: (120, 320),
            intra_op_compute: (60, 200),
        }
    }
}

/// Builds the per-core programs for one microbenchmark. Pass
/// `target_commits = None` for throughput runs (Figure 9 measures
/// committed transactions in a fixed window).
pub fn programs(
    bench: UstmBench,
    cfg: &MachineConfig,
    seed: u64,
    target_commits: Option<u64>,
) -> Vec<Box<dyn ThreadProgram>> {
    tlrw::programs(
        &bench.profile(),
        cfg,
        seed ^ (bench as u64) << 8,
        target_commits,
    )
}

/// Installs the benchmark on a machine with warmed metadata (preferred).
pub fn install(
    m: &mut asymfence::Machine,
    bench: UstmBench,
    seed: u64,
    target_commits: Option<u64>,
) {
    tlrw::install(
        m,
        &bench.profile(),
        seed ^ (bench as u64) << 8,
        target_commits,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlrw::tally;
    use asymfence::prelude::*;

    #[test]
    fn all_names_unique() {
        let mut names: Vec<&str> = UstmBench::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn lookup_mix_is_50_25_25() {
        let p = UstmBench::Hash.profile();
        let weights: Vec<u64> = p.classes.iter().map(|c| c.weight).collect();
        assert_eq!(weights, vec![2, 1, 1]);
        assert_eq!(p.classes[0].writes, (0, 0), "lookups never write");
    }

    #[test]
    fn counter_is_a_single_hot_word() {
        let p = UstmBench::Counter.profile();
        assert_eq!(p.pattern, AccessPattern::Hotspot);
        assert_eq!(p.classes.len(), 1);
    }

    #[test]
    fn every_bench_commits_transactions() {
        let cfg = MachineConfig::builder().cores(2).build();
        for b in UstmBench::ALL {
            let mut m = Machine::new(&cfg);
            for p in programs(b, &cfg, 5, None) {
                m.add_thread(p);
            }
            m.run(400_000);
            let (commits, _) = tally(&m);
            assert!(commits > 0, "{} committed nothing", b.name());
        }
    }
}
