//! A stable 64-bit FNV-1a digest over the simulated results a workload
//! produces. Wall-clock values never enter a digest, so equal digests
//! mean equal simulations.

use asymfence::prelude::MachineStats;
use asymfence_bench::RunResult;

/// An incremental FNV-1a hasher with length-prefixed fields, so
/// `("ab", "c")` and `("a", "bc")` digest differently.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(&(s.len() as u64).to_le_bytes());
        self.bytes(s.as_bytes());
        self
    }

    /// Folds in an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes());
        self
    }

    /// Folds in every counter of a machine's statistics.
    pub fn stats(&mut self, s: &MachineStats) -> &mut Self {
        self.str(&format!("{s:?}"))
    }

    /// Folds in one run's cycles, counters, outcome and SC verdict.
    pub fn result(&mut self, r: &RunResult) -> &mut Self {
        self.u64(r.cycles)
            .u64(r.commits)
            .u64(r.aborts)
            .str(&format!("{:?}", r.outcome))
            .u64(u64::from(r.scv))
            .stats(&r.stats)
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
