//! Strongly-typed identifiers used throughout the simulator.
//!
//! Byte addresses, cache-line addresses, word indices within a line, core
//! and directory-bank identifiers, and simulated-time cycles. Newtypes keep
//! the different address granularities from being mixed up (a line address
//! is a byte address shifted right by `log2(line_bytes)`).

use std::fmt;

/// A byte address in the simulated shared address space.
///
/// # Examples
///
/// ```
/// use asymfence_common::ids::Addr;
/// let a = Addr::new(0x100);
/// assert_eq!(a.raw(), 0x100);
/// assert_eq!(a.offset(8), Addr::new(0x108));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw byte offset.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns this address displaced by `bytes`.
    pub fn offset(self, bytes: u64) -> Self {
        Addr(self.0 + bytes)
    }

    /// Index of the word this address falls in within its line.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` or `word_bytes` is zero.
    pub fn word_in_line(self, line_bytes: u64, word_bytes: u64) -> WordIdx {
        assert!(line_bytes > 0 && word_bytes > 0);
        WordIdx(((self.0 % line_bytes) / word_bytes) as u8)
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

/// A cache-line address: the byte address divided by the line size.
///
/// # Examples
///
/// ```
/// use asymfence_common::ids::{Addr, LineAddr};
/// let line = LineAddr::containing(Addr::new(0x47), 32);
/// assert_eq!(line, LineAddr::containing(Addr::new(0x5f), 32));
/// assert_ne!(line, LineAddr::containing(Addr::new(0x60), 32));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// The line containing byte address `addr` for a given line size.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn containing(addr: Addr, line_bytes: u64) -> Self {
        assert!(line_bytes > 0);
        LineAddr(addr.raw() / line_bytes)
    }

    /// Creates a line address from its raw line number.
    pub const fn from_raw(raw: u64) -> Self {
        LineAddr(raw)
    }

    /// Raw line number.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// First byte address of this line.
    pub fn base(self, line_bytes: u64) -> Addr {
        Addr(self.0 * line_bytes)
    }

    /// Directory bank (home node) for this line, interleaved by line address.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn home_bank(self, num_banks: usize) -> BankId {
        assert!(num_banks > 0);
        BankId((self.0 % num_banks as u64) as usize)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Index of a word within a cache line (0-based).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct WordIdx(pub u8);

impl WordIdx {
    /// Bit in a per-line word mask corresponding to this word.
    pub fn mask_bit(self) -> u32 {
        1 << self.0
    }
}

/// Identifier of a simulated core (and its private L1 / network node).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a directory/L2 bank. Banks are co-located with cores
/// (bank *i* shares the mesh node of core *i*).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BankId(pub usize);

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// Simulated time, in clock cycles.
pub type Cycle = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_word_in_line() {
        let line_bytes = 32;
        let word_bytes = 8;
        assert_eq!(
            Addr::new(0).word_in_line(line_bytes, word_bytes),
            WordIdx(0)
        );
        assert_eq!(
            Addr::new(8).word_in_line(line_bytes, word_bytes),
            WordIdx(1)
        );
        assert_eq!(
            Addr::new(31).word_in_line(line_bytes, word_bytes),
            WordIdx(3)
        );
        assert_eq!(
            Addr::new(32).word_in_line(line_bytes, word_bytes),
            WordIdx(0)
        );
        assert_eq!(
            Addr::new(0x47).word_in_line(line_bytes, word_bytes),
            WordIdx(0)
        );
    }

    #[test]
    fn line_containing_and_base() {
        let l = LineAddr::containing(Addr::new(100), 32);
        assert_eq!(l.raw(), 3);
        assert_eq!(l.base(32), Addr::new(96));
    }

    #[test]
    fn home_bank_interleaves() {
        let banks = 8;
        let homes: Vec<usize> = (0..16)
            .map(|i| LineAddr::from_raw(i).home_bank(banks).0)
            .collect();
        assert_eq!(homes[..8], [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(homes[8..], [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn word_mask_bits_distinct() {
        let bits: Vec<u32> = (0..4).map(|w| WordIdx(w).mask_bit()).collect();
        assert_eq!(bits, [1, 2, 4, 8]);
    }

    #[test]
    fn display_impls_nonempty() {
        assert_eq!(format!("{}", CoreId(3)), "P3");
        assert_eq!(format!("{}", BankId(2)), "B2");
        assert_eq!(format!("{}", Addr::new(16)), "0x10");
        assert_eq!(format!("{}", LineAddr::from_raw(2)), "L0x2");
    }
}
