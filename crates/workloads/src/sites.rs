//! Static fence-site metadata for the synthesis benchmarks.
//!
//! The fence-assignment synthesis engine (`crates/synth`) searches
//! per-site wf/sf choices. To prune candidates that violate a design's
//! structural constraint it needs to know, *statically*, which fence
//! sites belong to the same fence group — fences connected through
//! conflicting accesses in the Shasha-Snir store→fence→load pattern.
//!
//! A [`SiteSpec`] describes one static fence site's memory footprint:
//! the shared words it publishes before the fence (`pre_writes`) and the
//! shared words it observes after it (`post_reads`), recomputed from the
//! same deterministic [`layout`](crate::layout) allocation the workload
//! itself uses, so analysis and execution agree on every address. Only
//! accesses that can *conflict* matter; private scratch (litmus dummy
//! stores, compute) is omitted.
//!
//! [`SiteBench`] enumerates the workloads the synthesis engine targets —
//! each a paper kernel whose fences carry stable
//! [`FenceSite`] ids — and builds
//! their thread programs with the paper's hand-annotated roles as the
//! default mapping.

use asymfence::prelude::{Addr, FenceRole, FenceSite, MachineConfig, ThreadProgram};

use crate::layout::AddressAllocator;
use crate::{bakery, dcl, dekker, litmus, wsq};

/// One static fence site's identity and conflict-relevant footprint.
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// The stable site id carried by every dynamic execution.
    pub site: FenceSite,
    /// Thread the site belongs to.
    pub thread: usize,
    /// Short human label (e.g. `"owner.take"`).
    pub label: &'static str,
    /// The paper's hand-annotated role (the default strength mapping).
    pub paper_role: FenceRole,
    /// Shared words stored before the fence on its code path.
    pub pre_writes: Vec<Addr>,
    /// Shared words loaded after the fence on its code path.
    pub post_reads: Vec<Addr>,
}

/// Iterations per Dekker thread in the synthesis driver.
pub const DEKKER_ITERS: u64 = 8;
/// Lazy accesses per DCL thread in the synthesis driver.
pub const DCL_ITERS: u64 = 12;
/// Push/take (and steal) rounds per work-stealing driver thread.
pub const WSQ_ROUNDS: u64 = 12;
/// Critical sections per Bakery thread in the synthesis driver.
pub const BAKERY_ITERS: u64 = 4;

/// A synthesis-target workload: a paper kernel whose static fences carry
/// addressable [`FenceSite`] ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteBench {
    /// Store-buffering (Dekker core) litmus — Figure 1d.
    Sb,
    /// Dekker's full mutual-exclusion protocol — Figure 1a.
    Dekker,
    /// Double-checked locking, fenced variant — §4.4.
    Dcl,
    /// THE work-stealing deque, owner + thief driver — §4.1.
    Wsq,
    /// Lamport's Bakery, three participants — §4.3.
    Bakery,
}

impl SiteBench {
    /// Every synthesis benchmark, in report order.
    pub const ALL: [SiteBench; 5] = [
        SiteBench::Sb,
        SiteBench::Dekker,
        SiteBench::Dcl,
        SiteBench::Wsq,
        SiteBench::Bakery,
    ];

    /// Short name (CLI `--filter`, report rows).
    pub fn name(self) -> &'static str {
        match self {
            SiteBench::Sb => "sb",
            SiteBench::Dekker => "dekker",
            SiteBench::Dcl => "dcl",
            SiteBench::Wsq => "wsq",
            SiteBench::Bakery => "bakery",
        }
    }

    /// Cores (= threads) the benchmark needs.
    pub fn cores(self) -> usize {
        match self {
            SiteBench::Bakery => 3,
            _ => 2,
        }
    }

    /// Builds the thread programs with the paper's role annotations and
    /// sited fences. `cfg.num_cores` must equal [`SiteBench::cores`].
    pub fn programs(self, cfg: &MachineConfig, seed: u64) -> Vec<Box<dyn ThreadProgram>> {
        match self {
            SiteBench::Sb => {
                litmus::store_buffering(Some((FenceRole::Critical, FenceRole::NonCritical))).0
            }
            SiteBench::Dekker => dekker::programs(cfg, DEKKER_ITERS, seed),
            SiteBench::Dcl => dcl::programs(cfg, DCL_ITERS, seed),
            SiteBench::Wsq => wsq::driver_programs(cfg, WSQ_ROUNDS, seed),
            SiteBench::Bakery => {
                bakery::programs(cfg, bakery::RoleAssign::PriorityThread0, BAKERY_ITERS, seed)
            }
        }
    }

    /// The static fence sites with their conflict footprints, ascending
    /// by site id (mask bit `i` of an assignment refers to `sites[i]`).
    pub fn sites(self, cfg: &MachineConfig) -> Vec<SiteSpec> {
        match self {
            SiteBench::Sb => {
                // x = 0x00, y = 0x40 — the fixed litmus addresses.
                let x = Addr::new(0x00);
                let y = Addr::new(0x40);
                vec![
                    SiteSpec {
                        site: FenceSite(0),
                        thread: 0,
                        label: "t0.sb",
                        paper_role: FenceRole::Critical,
                        pre_writes: vec![x],
                        post_reads: vec![y],
                    },
                    SiteSpec {
                        site: FenceSite(1),
                        thread: 1,
                        label: "t1.sb",
                        paper_role: FenceRole::NonCritical,
                        pre_writes: vec![y],
                        post_reads: vec![x],
                    },
                ]
            }
            SiteBench::Dekker => {
                let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
                let l = dekker::DekkerLayout::new(&mut alloc);
                let mut v = Vec::new();
                for t in 0..2 {
                    // Entry fence: the preceding exit wrote `turn` and the
                    // announce wrote `flag[me]`; afterwards the protocol
                    // reads the other flag and (on contention) `turn`.
                    v.push(SiteSpec {
                        site: dekker::entry_site(t),
                        thread: t,
                        label: if t == 0 { "t0.entry" } else { "t1.entry" },
                        paper_role: if t == 0 {
                            FenceRole::Critical
                        } else {
                            FenceRole::NonCritical
                        },
                        pre_writes: vec![l.flag[t], l.turn],
                        post_reads: vec![l.flag[1 - t], l.turn],
                    });
                    // Backoff fence: retract `flag[me]`, then spin on
                    // `turn` until the owner hands it over.
                    v.push(SiteSpec {
                        site: dekker::backoff_site(t),
                        thread: t,
                        label: if t == 0 { "t0.backoff" } else { "t1.backoff" },
                        paper_role: FenceRole::NonCritical,
                        pre_writes: vec![l.flag[t]],
                        post_reads: vec![l.turn],
                    });
                }
                v
            }
            SiteBench::Dcl => {
                let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
                let l = dcl::DclLayout::new(&mut alloc);
                let mut v = Vec::new();
                for t in 0..self.cores() {
                    // Reader (acquire) fence: ld initialized → fence → ld
                    // payload. No store precedes it on its path, so it can
                    // never anchor a TSO st→ld reordering — it stays
                    // ungrouped (a refinement over the role annotation).
                    v.push(SiteSpec {
                        site: dcl::reader_site(t),
                        thread: t,
                        label: if t == 0 { "t0.read" } else { "t1.read" },
                        paper_role: FenceRole::Critical,
                        pre_writes: vec![],
                        post_reads: l.payload.to_vec(),
                    });
                    // Initializer (release) fence: st payload → fence →
                    // (publish) … ld payload on the fall-through re-read.
                    v.push(SiteSpec {
                        site: dcl::init_site(t),
                        thread: t,
                        label: if t == 0 { "t0.init" } else { "t1.init" },
                        paper_role: FenceRole::NonCritical,
                        pre_writes: l.payload.to_vec(),
                        post_reads: l.payload.to_vec(),
                    });
                }
                v.sort_by_key(|s| s.site);
                v
            }
            SiteBench::Wsq => {
                let l = wsq::driver_layout(cfg);
                vec![
                    SiteSpec {
                        site: wsq::owner_site(),
                        thread: 0,
                        label: "owner.take",
                        paper_role: FenceRole::Critical,
                        pre_writes: vec![l.tail],
                        post_reads: vec![l.head],
                    },
                    SiteSpec {
                        site: wsq::thief_site(),
                        thread: 1,
                        label: "thief.steal",
                        paper_role: FenceRole::NonCritical,
                        pre_writes: vec![l.head],
                        post_reads: vec![l.tail],
                    },
                ]
            }
            SiteBench::Bakery => {
                let n = self.cores();
                let mut alloc = AddressAllocator::new(cfg.line_bytes, cfg.word_bytes);
                let l = bakery::BakeryLayout::new(&mut alloc, n);
                const DOORWAY: [&str; 3] = ["t0.doorway", "t1.doorway", "t2.doorway"];
                const TICKET: [&str; 3] = ["t0.ticket", "t1.ticket", "t2.ticket"];
                let mut v = Vec::new();
                for t in 0..n {
                    // Doorway fence: E[i] := 1, fence, read every N[j] to
                    // pick a ticket.
                    v.push(SiteSpec {
                        site: bakery::doorway_site(t),
                        thread: t,
                        label: DOORWAY[t],
                        // PriorityThread0: thread 0 is the hot side.
                        paper_role: if t == 0 {
                            FenceRole::Critical
                        } else {
                            FenceRole::NonCritical
                        },
                        pre_writes: vec![l.entering[t]],
                        post_reads: l.number.clone(),
                    });
                    // Ticket fence: publish N[i] and clear E[i], fence,
                    // then the wait loops scan the other threads' state.
                    v.push(SiteSpec {
                        site: bakery::ticket_site(t),
                        thread: t,
                        label: TICKET[t],
                        paper_role: FenceRole::NonCritical,
                        pre_writes: vec![l.number[t], l.entering[t]],
                        post_reads: (0..n)
                            .filter(|&j| j != t)
                            .flat_map(|j| [l.entering[j], l.number[j]])
                            .collect(),
                    });
                }
                v
            }
        }
    }

    /// Parses a benchmark name.
    pub fn from_name(name: &str) -> Option<SiteBench> {
        SiteBench::ALL.into_iter().find(|b| b.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(bench: SiteBench) -> MachineConfig {
        MachineConfig::builder().cores(bench.cores()).build()
    }

    #[test]
    fn sites_are_ascending_and_unique() {
        for b in SiteBench::ALL {
            let sites = b.sites(&cfg(b));
            assert!(!sites.is_empty(), "{}", b.name());
            for w in sites.windows(2) {
                assert!(w[0].site < w[1].site, "{}: sites must ascend", b.name());
            }
        }
    }

    #[test]
    fn site_threads_stay_in_range() {
        for b in SiteBench::ALL {
            for s in b.sites(&cfg(b)) {
                assert!(s.thread < b.cores(), "{}: {}", b.name(), s.label);
            }
        }
    }

    #[test]
    fn programs_match_core_count() {
        for b in SiteBench::ALL {
            assert_eq!(b.programs(&cfg(b), 7).len(), b.cores(), "{}", b.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for b in SiteBench::ALL {
            assert_eq!(SiteBench::from_name(b.name()), Some(b));
        }
        assert_eq!(SiteBench::from_name("nope"), None);
    }
}
