//! WeeFence's Global Reorder Table (GRT): one table for the whole machine,
//! reached at node [`MemSystem::GRT_HOME`](crate::mem::MemSystem::GRT_HOME).
//!
//! A fence's Pending-Set lines enter the table when it registers, keyed
//! by (core, fence serial), but other cores see them only once its
//! deposit reaches the table's node. The deposit reads the union of the
//! other cores' visible lines, which waits here until the reply reaches
//! the core. Every list keeps its capacity across [`Grt::reset`].

use asymfence_common::ids::LineAddr;

pub(crate) struct Grt {
    /// Per core: `(fence serial, line, deposited)` for each Pending-Set
    /// line of its open fences.
    lines: Vec<Vec<(u64, LineAddr, bool)>>,
    /// Per core: its latest deposit's fence serial and the remote set
    /// that deposit read (sorted, deduplicated).
    read: Vec<(u64, Vec<LineAddr>)>,
}

impl Grt {
    pub(crate) fn new(num_cores: usize) -> Self {
        Grt {
            lines: vec![Vec::new(); num_cores],
            read: vec![(0, Vec::new()); num_cores],
        }
    }

    pub(crate) fn reset(&mut self) {
        self.lines.iter_mut().for_each(Vec::clear);
        self.read.iter_mut().for_each(|(_, r)| r.clear());
    }

    /// Enters `core`'s fence `serial` with Pending Set `ps`, not yet
    /// visible to other cores.
    pub(crate) fn register(&mut self, core: usize, serial: u64, ps: &[LineAddr]) {
        self.lines[core].extend(ps.iter().map(|&l| (serial, l, false)));
    }

    /// The deposit of (`core`, `serial`) arrives: its lines become
    /// visible, and it reads the other cores' visible lines. Returns how
    /// many it read.
    pub(crate) fn deposit(&mut self, core: usize, serial: u64) -> usize {
        for e in self.lines[core].iter_mut().filter(|e| e.0 == serial) {
            e.2 = true;
        }
        let (read_serial, remote) = &mut self.read[core];
        *read_serial = serial;
        remote.clear();
        for (_, lines) in self.lines.iter().enumerate().filter(|(c, _)| *c != core) {
            remote.extend(lines.iter().filter(|e| e.2).map(|e| e.1));
        }
        remote.sort_unstable();
        remote.dedup();
        remote.len()
    }

    /// The removal of (`core`, `serial`) arrives: that fence's lines
    /// leave, the core's other fences keep theirs.
    pub(crate) fn remove(&mut self, core: usize, serial: u64) {
        self.lines[core].retain(|e| e.0 != serial);
    }

    /// The remote set `core`'s deposit of fence `serial` read.
    pub(crate) fn remote(&self, core: usize, serial: u64) -> &[LineAddr] {
        let (read_serial, remote) = &self.read[core];
        debug_assert_eq!(*read_serial, serial, "a later deposit overwrote the read");
        remote
    }
}
