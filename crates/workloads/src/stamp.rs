//! STAMP application profiles (the paper's third workload group).
//!
//! The six STAMP applications distributed with RSTM, modelled as
//! transaction mixes over the TLRW substrate: per-application read/write
//! set sizes, transaction frequency (compute between transactions) and
//! contention level follow the applications' published characterization
//! (Minh et al., IISWC'08) — e.g. `labyrinth` runs few, very long
//! transactions dominated by non-transactional work, while `intruder`
//! runs many short write-heavy ones. Executions are finite (a fixed
//! number of commits per thread) and reported as execution time, as in
//! Figure 11.

use asymfence::prelude::ThreadProgram;
use asymfence_common::config::MachineConfig;

use crate::tlrw::{self, AccessPattern, TxClass, TxProfile};

/// The six STAMP applications, in the paper's Figure 11 order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum StampApp {
    Genome,
    Intruder,
    Kmeans,
    Labyrinth,
    Ssca2,
    Vacation,
}

impl StampApp {
    /// All apps, in Figure 11's order.
    pub const ALL: [StampApp; 6] = [
        StampApp::Genome,
        StampApp::Intruder,
        StampApp::Kmeans,
        StampApp::Labyrinth,
        StampApp::Ssca2,
        StampApp::Vacation,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StampApp::Genome => "genome",
            StampApp::Intruder => "intruder",
            StampApp::Kmeans => "kmeans",
            StampApp::Labyrinth => "labyrinth",
            StampApp::Ssca2 => "ssca2",
            StampApp::Vacation => "vacation",
        }
    }

    /// Commits per thread for a standard finite run.
    pub fn commits_per_thread(self) -> u64 {
        match self {
            StampApp::Genome => 90,
            StampApp::Intruder => 170,
            StampApp::Kmeans => 150,
            StampApp::Labyrinth => 15,
            StampApp::Ssca2 => 200,
            StampApp::Vacation => 110,
        }
    }

    /// The app's TLRW profile.
    pub fn profile(self) -> TxProfile {
        match self {
            // Moderate read-mostly transactions, much non-tx work: most
            // stall time is memory, not fences (paper: "moderate
            // improvements because most of its stall time is due to
            // reasons other than fences").
            StampApp::Genome => TxProfile {
                name: self.name(),
                locations: 512,
                pattern: AccessPattern::Random,
                classes: vec![
                    TxClass {
                        weight: 3,
                        reads: (6, 12),
                        writes: (0, 1),
                    },
                    TxClass {
                        weight: 1,
                        reads: (4, 8),
                        writes: (1, 2),
                    },
                ],
                inter_tx_compute: (1800, 4800),
                intra_op_compute: (20, 60),
            },
            // Many short write-heavy transactions: W+ gains the most
            // (paper: "intruder includes many write operations").
            StampApp::Intruder => TxProfile {
                name: self.name(),
                locations: 256,
                pattern: AccessPattern::Random,
                classes: vec![TxClass {
                    weight: 1,
                    reads: (2, 6),
                    writes: (2, 5),
                }],
                inter_tx_compute: (260, 800),
                intra_op_compute: (10, 40),
            },
            // Tiny transactions between long compute phases.
            StampApp::Kmeans => TxProfile {
                name: self.name(),
                locations: 128,
                pattern: AccessPattern::Random,
                classes: vec![TxClass {
                    weight: 1,
                    reads: (1, 2),
                    writes: (1, 2),
                }],
                inter_tx_compute: (2100, 5400),
                intra_op_compute: (5, 20),
            },
            // Few, very long transactions; dominated by routing compute
            // (paper: "very few transactions ... cannot get noticeable
            // improvements").
            StampApp::Labyrinth => TxProfile {
                name: self.name(),
                locations: 1024,
                pattern: AccessPattern::Random,
                classes: vec![TxClass {
                    weight: 1,
                    reads: (18, 36),
                    writes: (8, 16),
                }],
                inter_tx_compute: (9000, 20000),
                intra_op_compute: (40, 120),
            },
            // Tiny write transactions on a large graph.
            StampApp::Ssca2 => TxProfile {
                name: self.name(),
                locations: 1024,
                pattern: AccessPattern::Random,
                classes: vec![TxClass {
                    weight: 1,
                    reads: (1, 2),
                    writes: (1, 1),
                }],
                inter_tx_compute: (800, 2100),
                intra_op_compute: (5, 20),
            },
            // Medium read-dominated reservations.
            StampApp::Vacation => TxProfile {
                name: self.name(),
                locations: 512,
                pattern: AccessPattern::Random,
                classes: vec![
                    TxClass {
                        weight: 3,
                        reads: (6, 14),
                        writes: (1, 2),
                    },
                    TxClass {
                        weight: 1,
                        reads: (4, 8),
                        writes: (2, 3),
                    },
                ],
                inter_tx_compute: (540, 1700),
                intra_op_compute: (15, 50),
            },
        }
    }
}

/// Builds the per-core programs for a STAMP app (finite run).
pub fn programs(app: StampApp, cfg: &MachineConfig, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
    tlrw::programs(
        &app.profile(),
        cfg,
        seed ^ ((app as u64) << 16),
        Some(app.commits_per_thread()),
    )
}

/// Installs the app on a machine with warmed metadata (preferred).
pub fn install(m: &mut asymfence::Machine, app: StampApp, seed: u64) {
    tlrw::install(
        m,
        &app.profile(),
        seed ^ ((app as u64) << 16),
        Some(app.commits_per_thread()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlrw::tally;
    use asymfence::prelude::*;

    #[test]
    fn names_and_targets() {
        for app in StampApp::ALL {
            assert!(!app.name().is_empty());
            assert!(app.commits_per_thread() > 0);
        }
        assert!(
            StampApp::Labyrinth.commits_per_thread() < StampApp::Ssca2.commits_per_thread(),
            "labyrinth runs few huge transactions"
        );
    }

    #[test]
    fn intruder_is_write_heavy() {
        let p = StampApp::Intruder.profile();
        let c = p.classes[0];
        assert!(c.writes.0 >= 2, "intruder transactions write a lot");
    }

    #[test]
    fn ssca2_finishes_quickly() {
        let cfg = MachineConfig::builder().cores(2).build();
        let mut m = Machine::new(&cfg);
        for p in programs(StampApp::Ssca2, &cfg, 9) {
            m.add_thread(p);
        }
        assert_eq!(m.run(200_000_000), RunOutcome::Finished);
        let (commits, _) = tally(&m);
        assert_eq!(commits, 2 * StampApp::Ssca2.commits_per_thread());
    }
}
