//! Micro-op queue and driver for writing workload state machines.
//!
//! Workload programs are state machines whose steps emit batches of
//! instructions and then wait for tagged values. [`Ops`] manages the
//! emission queue, tag allocation, and delivered-value storage. A kernel
//! implements `Steps` (its queue plus a `step` that inspects delivered
//! values, pushes more ops, and advances the state), and `program` turns
//! it into a [`ThreadProgram`] whose `fetch` is the one loop every kernel
//! shares:
//!
//! ```ignore
//! loop {
//!     if let Some(f) = kernel.ops().poll() { return f; }
//!     if !kernel.step() { return Fetch::Done; }
//! }
//! ```
//!
//! Everything is `Clone`, so W+ checkpoints work by cloning the whole
//! kernel. The program's `as_any` is the kernel itself, so harnesses
//! read results with `Machine::threads_of::<Kernel>()`.

use std::collections::VecDeque;

use asymfence_common::hash::FxHashMap;

use asymfence::prelude::{Addr, FenceRole, FenceSite, Fetch, Instr, RmwKind, ThreadProgram};

/// A workload state machine driven by an [`Ops`] queue.
pub(crate) trait Steps: Clone + 'static {
    /// The kernel's emission queue.
    fn ops(&mut self) -> &mut Ops;

    /// Inspects delivered values, pushes more ops and advances the
    /// state; `false` once the kernel has finished. Runs only when the
    /// queue has drained.
    fn step(&mut self) -> bool;
}

/// Runs a [`Steps`] kernel as a [`ThreadProgram`]. Generic, so each
/// kernel gets its own monomorphised `fetch`.
#[derive(Clone)]
struct Driver<K>(K);

impl<K: Steps> ThreadProgram for Driver<K> {
    fn fetch(&mut self) -> Fetch {
        loop {
            if let Some(f) = self.0.ops().poll() {
                return f;
            }
            if !self.0.step() {
                return Fetch::Done;
            }
        }
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.0.ops().deliver(tag, value);
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        &self.0
    }
}

/// Boxes `kernel` as a thread program; its `as_any` is the kernel.
pub(crate) fn program<K: Steps>(kernel: K) -> Box<dyn ThreadProgram> {
    Box::new(Driver(kernel))
}

/// A tag identifying a delivered value.
pub type Tag = u64;

/// Queue of instructions to emit plus delivered-value storage.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    queue: VecDeque<Instr>,
    waiting: Option<Tag>,
    values: FxHashMap<Tag, u64>,
    next_tag: Tag,
}

impl Ops {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_tag(&mut self) -> Tag {
        self.next_tag += 1;
        self.next_tag
    }

    /// Emits a tagged load; the value is later available via
    /// [`Ops::take`].
    pub fn load(&mut self, addr: Addr) -> Tag {
        let tag = self.fresh_tag();
        self.queue.push_back(Instr::Load {
            addr,
            tag: Some(tag),
        });
        tag
    }

    /// Emits an untagged load (the program does not consume the value).
    pub fn load_untagged(&mut self, addr: Addr) {
        self.queue.push_back(Instr::Load { addr, tag: None });
    }

    /// Emits a store.
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.queue.push_back(Instr::Store { addr, value });
    }

    /// Emits an atomic read-modify-write; the old value is later
    /// available via [`Ops::take`].
    pub fn rmw(&mut self, addr: Addr, op: RmwKind) -> Tag {
        let tag = self.fresh_tag();
        self.queue.push_back(Instr::Rmw { addr, op, tag });
        tag
    }

    /// Emits an anonymous fence (strength from the design's role rule).
    pub fn fence(&mut self, role: FenceRole) {
        self.queue.push_back(Instr::fence(role));
    }

    /// Emits a fence at an addressable static site, so a per-site
    /// [`SiteMask`](asymfence_common::assign::SiteMask) in the machine
    /// config can override its strength.
    pub fn fence_at(&mut self, site: FenceSite, role: FenceRole) {
        self.queue.push_back(Instr::fence_at(site, role));
    }

    /// Emits `cycles` units of compute.
    pub fn compute(&mut self, cycles: u64) {
        if cycles > 0 {
            self.queue.push_back(Instr::Compute { cycles });
        }
    }

    /// Takes a delivered value.
    ///
    /// # Panics
    ///
    /// Panics if the tag has not been delivered — a workload bug: `step`
    /// must only run after the queue drained, which implies every tagged
    /// op has delivered.
    pub fn take(&mut self, tag: Tag) -> u64 {
        self.values
            .remove(&tag)
            .unwrap_or_else(|| panic!("tag {tag} not delivered"))
    }

    /// Pops the next fetch action, or `None` when the workload's `step`
    /// must produce more work.
    pub fn poll(&mut self) -> Option<Fetch> {
        if self.waiting.is_some() {
            return Some(Fetch::Await);
        }
        let instr = self.queue.pop_front()?;
        match &instr {
            Instr::Load { tag: Some(t), .. } | Instr::Rmw { tag: t, .. } => {
                self.waiting = Some(*t);
            }
            _ => {}
        }
        Some(Fetch::Instr(instr))
    }

    /// Records a delivered value (call from `ThreadProgram::deliver`).
    pub fn deliver(&mut self, tag: Tag, value: u64) {
        self.values.insert(tag, value);
        if self.waiting == Some(tag) {
            self.waiting = None;
        }
    }

    /// Whether no instructions remain queued and nothing is awaited.
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty() && self.waiting.is_none()
    }

    /// Tag of the first tagged instruction awaited or still queued
    /// (useful in tests that hand-feed values).
    pub fn next_pending_tag(&self) -> Option<Tag> {
        if let Some(t) = self.waiting {
            return Some(t);
        }
        self.queue.iter().find_map(|i| match i {
            Instr::Load { tag: Some(t), .. } | Instr::Rmw { tag: t, .. } => Some(*t),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_emits_in_order_and_waits_on_tags() {
        let mut ops = Ops::new();
        ops.store(Addr::new(0), 1);
        let t = ops.load(Addr::new(8));
        ops.compute(5);
        assert!(matches!(
            ops.poll(),
            Some(Fetch::Instr(Instr::Store { .. }))
        ));
        assert!(matches!(ops.poll(), Some(Fetch::Instr(Instr::Load { .. }))));
        assert!(matches!(ops.poll(), Some(Fetch::Await)), "blocked on load");
        ops.deliver(t, 42);
        assert!(matches!(
            ops.poll(),
            Some(Fetch::Instr(Instr::Compute { cycles: 5 }))
        ));
        assert!(ops.poll().is_none());
        assert_eq!(ops.take(t), 42);
        assert!(ops.is_drained());
    }

    #[test]
    fn tags_are_unique() {
        let mut ops = Ops::new();
        let a = ops.load(Addr::new(0));
        let b = ops.load(Addr::new(8));
        assert_ne!(a, b);
    }

    #[test]
    fn zero_compute_is_skipped() {
        let mut ops = Ops::new();
        ops.compute(0);
        assert!(ops.poll().is_none());
    }

    #[test]
    #[should_panic(expected = "not delivered")]
    fn take_undelivered_panics() {
        let mut ops = Ops::new();
        let t = ops.load(Addr::new(0));
        let _ = ops.take(t);
    }
}
