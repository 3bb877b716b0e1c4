//! Fence insertion and removal decorators over [`ThreadProgram`]s.
//!
//! [`FencedProgram`] executes an *unannotated* program under an
//! analyzer-inferred [`PlacementSpec`]:
//! it tracks the cache lines the thread has stored to since its last
//! fence/RMW (the lines whose write-backs may still be buffered) and,
//! when the program is about to load from a line that some placed
//! window names as a store→load race against a *dirty* trigger line,
//! injects `Instr::fence_at(site, …)` first and replays the load on the
//! next fetch. Injected sites carry the analyzer's synthetic ids, so a
//! per-site [`SiteMask`](asymfence_common::assign::SiteMask) steers
//! their strength exactly like hand-annotated sites.
//!
//! [`StripFences`] is the inverse tool: it hides every fence an
//! annotated builder emits, producing the unannotated view the analyzer
//! starts from.
//!
//! Both decorators are transparent to downcasts: their
//! [`ThreadProgram::as_any`] is the wrapped program's, so a harness
//! reads a decorated kernel's results exactly as an undecorated one's.

use asymfence_common::placement::PlacementSpec;

use crate::program::{FenceRole, FenceSite, Fetch, Instr, ThreadProgram};

/// Executes a program with fences injected at analyzer-placed sites.
///
/// # Examples
///
/// ```
/// use asymfence_common::assign::synthetic_site;
/// use asymfence_common::placement::{PlacedWindow, PlacementSpec};
/// use asymfence_cpu::insert::FencedProgram;
/// use asymfence_cpu::program::{Fetch, FenceRole, Instr, ScriptProgram, ThreadProgram};
/// use asymfence_common::ids::Addr;
///
/// // Store line 0, load line 1: the classic SB half.
/// let (inner, _regs) = ScriptProgram::new(vec![
///     Instr::Store { addr: Addr::new(0x00), value: 1 },
///     Instr::Load { addr: Addr::new(0x40), tag: None },
/// ]);
/// let spec = PlacementSpec::from_windows(&[PlacedWindow {
///     site: synthetic_site(0),
///     thread: 0,
///     store_line: 0,
///     load_line: 1,
/// }]);
/// let mut p = FencedProgram::new(Box::new(inner), 0, spec, 64, FenceRole::NonCritical);
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Fence { .. })), "injected");
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })));
/// ```
pub struct FencedProgram {
    inner: Box<dyn ThreadProgram>,
    thread: u32,
    spec: PlacementSpec,
    line_bytes: u64,
    role: FenceRole,
    /// Lines stored to since the last (inner or injected) fence/RMW.
    dirty: Vec<u64>,
    /// A load held back while its guarding fence is emitted.
    pending: Option<Instr>,
}

impl FencedProgram {
    /// Wraps `inner` (thread index `thread` of the machine) so loads
    /// matching a placed window in `spec` are preceded by a fence at
    /// the window's synthetic site. `line_bytes` must match the machine
    /// config the spec was computed for; `role` is the fence role used
    /// when no mask overrides the site.
    pub fn new(
        inner: Box<dyn ThreadProgram>,
        thread: usize,
        spec: PlacementSpec,
        line_bytes: u64,
        role: FenceRole,
    ) -> Self {
        FencedProgram {
            inner,
            thread: thread as u32,
            spec,
            line_bytes,
            role,
            dirty: Vec::new(),
            pending: None,
        }
    }

    fn mark_dirty(&mut self, line: u64) {
        if !self.dirty.contains(&line) {
            self.dirty.push(line);
        }
    }

    /// The placed site armed for a load of `line`, if any trigger store
    /// line is dirty.
    fn armed_site(&self, line: u64) -> Option<u32> {
        self.spec
            .windows()
            .iter()
            .find(|w| {
                w.thread == self.thread && w.load_line == line && self.dirty.contains(&w.store_line)
            })
            .map(|w| w.site)
    }
}

impl ThreadProgram for FencedProgram {
    fn fetch(&mut self) -> Fetch {
        if let Some(load) = self.pending.take() {
            return Fetch::Instr(load);
        }
        match self.inner.fetch() {
            Fetch::Instr(instr) => {
                match &instr {
                    Instr::Load { addr, .. } => {
                        let line = addr.raw() / self.line_bytes;
                        if let Some(site) = self.armed_site(line) {
                            // Emit the fence now, the load next fetch.
                            // The fence drains the write buffer, so
                            // every dirty line is clean after it.
                            self.pending = Some(instr);
                            self.dirty.clear();
                            return Fetch::Instr(Instr::fence_at(FenceSite(site), self.role));
                        }
                    }
                    Instr::Store { addr, .. } => {
                        let line = addr.raw() / self.line_bytes;
                        self.mark_dirty(line);
                    }
                    // RMWs act as full fences (like x86 `lock`), and the
                    // program's own fences drain the write buffer too.
                    Instr::Rmw { .. } | Instr::Fence { .. } => self.dirty.clear(),
                    Instr::Compute { .. } => {}
                }
                Fetch::Instr(instr)
            }
            other => other,
        }
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.inner.deliver(tag, value);
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(FencedProgram {
            inner: self.inner.snapshot(),
            thread: self.thread,
            spec: self.spec,
            line_bytes: self.line_bytes,
            role: self.role,
            dirty: self.dirty.clone(),
            pending: self.pending.clone(),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// Hides every fence the wrapped program emits: the unannotated view of
/// an annotated workload builder.
///
/// # Examples
///
/// ```
/// use asymfence_cpu::insert::StripFences;
/// use asymfence_cpu::program::{Fetch, FenceRole, Instr, ScriptProgram, ThreadProgram};
/// use asymfence_common::ids::Addr;
///
/// let (inner, _) = ScriptProgram::new(vec![
///     Instr::fence(FenceRole::Critical),
///     Instr::Store { addr: Addr::new(0), value: 1 },
/// ]);
/// let mut p = StripFences::new(Box::new(inner));
/// assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
/// ```
pub struct StripFences {
    inner: Box<dyn ThreadProgram>,
}

impl StripFences {
    /// Wraps `inner`, dropping its fences from the fetch stream.
    pub fn new(inner: Box<dyn ThreadProgram>) -> Self {
        StripFences { inner }
    }
}

impl ThreadProgram for StripFences {
    fn fetch(&mut self) -> Fetch {
        loop {
            match self.inner.fetch() {
                Fetch::Instr(Instr::Fence { .. }) => continue,
                other => return other,
            }
        }
    }

    fn deliver(&mut self, tag: u64, value: u64) {
        self.inner.deliver(tag, value);
    }

    fn snapshot(&self) -> Box<dyn ThreadProgram> {
        Box::new(StripFences {
            inner: self.inner.snapshot(),
        })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymfence_coherence::RmwKind;
    use asymfence_common::assign::synthetic_site;
    use asymfence_common::ids::Addr;
    use asymfence_common::placement::PlacedWindow;

    use crate::program::ScriptProgram;

    fn sb_spec() -> PlacementSpec {
        PlacementSpec::from_windows(&[PlacedWindow {
            site: synthetic_site(0),
            thread: 0,
            store_line: 0,
            load_line: 1,
        }])
    }

    fn st(addr: u64) -> Instr {
        Instr::Store {
            addr: Addr::new(addr),
            value: 1,
        }
    }

    fn ld(addr: u64) -> Instr {
        Instr::Load {
            addr: Addr::new(addr),
            tag: None,
        }
    }

    fn fetch_kinds(p: &mut dyn ThreadProgram) -> Vec<&'static str> {
        let mut out = Vec::new();
        loop {
            match p.fetch() {
                Fetch::Instr(Instr::Load { .. }) => out.push("ld"),
                Fetch::Instr(Instr::Store { .. }) => out.push("st"),
                Fetch::Instr(Instr::Fence { .. }) => out.push("fence"),
                Fetch::Instr(Instr::Rmw { .. }) => out.push("rmw"),
                Fetch::Instr(Instr::Compute { .. }) => out.push("cp"),
                Fetch::Await => out.push("await"),
                Fetch::Done => break,
            }
            if out.len() > 64 {
                panic!("runaway fetch stream: {out:?}");
            }
        }
        out
    }

    #[test]
    fn injects_fence_between_racing_store_and_load() {
        let (inner, _) = ScriptProgram::new(vec![st(0x00), ld(0x40)]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::NonCritical);
        assert_eq!(fetch_kinds(&mut p), vec!["st", "fence", "ld"]);
    }

    #[test]
    fn no_fence_without_dirty_trigger() {
        // Load first: nothing buffered, no fence. Store to an
        // untracked line: still no fence.
        let (inner, _) = ScriptProgram::new(vec![ld(0x40), st(0x80), ld(0x40)]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::NonCritical);
        assert_eq!(fetch_kinds(&mut p), vec!["ld", "st", "ld"]);
    }

    #[test]
    fn fence_covers_later_loads_until_redirtied() {
        let (inner, _) = ScriptProgram::new(vec![st(0x00), ld(0x40), ld(0x40), st(0x00), ld(0x40)]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::NonCritical);
        assert_eq!(
            fetch_kinds(&mut p),
            vec!["st", "fence", "ld", "ld", "st", "fence", "ld"]
        );
    }

    #[test]
    fn rmw_and_own_fences_clean_the_window() {
        let (inner, _) = ScriptProgram::new(vec![
            st(0x00),
            Instr::Rmw {
                addr: Addr::new(0x80),
                op: RmwKind::Add(1),
                tag: 9,
            },
            ld(0x40),
        ]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::NonCritical);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Rmw { .. })));
        assert!(matches!(p.fetch(), Fetch::Await));
        p.deliver(9, 0);
        assert!(
            matches!(p.fetch(), Fetch::Instr(Instr::Load { .. })),
            "RMW already ordered the store; no fence"
        );
    }

    #[test]
    fn wrong_thread_never_fires() {
        let (inner, _) = ScriptProgram::new(vec![st(0x00), ld(0x40)]);
        let mut p = FencedProgram::new(Box::new(inner), 1, sb_spec(), 64, FenceRole::NonCritical);
        assert_eq!(fetch_kinds(&mut p), vec!["st", "ld"]);
    }

    #[test]
    fn injected_site_is_synthetic_and_addressable() {
        let (inner, _) = ScriptProgram::new(vec![st(0x00), ld(0x40)]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::Critical);
        p.fetch();
        match p.fetch() {
            Fetch::Instr(Instr::Fence { role, site }) => {
                assert_eq!(site.raw(), synthetic_site(0));
                assert!(asymfence_common::assign::is_synthetic(site.raw()));
                assert!(matches!(role, FenceRole::Critical));
            }
            other => panic!("expected injected fence, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_replays_pending_load() {
        let (inner, regs) = ScriptProgram::new(vec![
            st(0x00),
            Instr::Load {
                addr: Addr::new(0x40),
                tag: Some(1),
            },
        ]);
        let mut p = FencedProgram::new(Box::new(inner), 0, sb_spec(), 64, FenceRole::NonCritical);
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Fence { .. })));
        // Snapshot while the load is pending (the W+ checkpoint shape).
        let mut snap = p.snapshot();
        assert!(matches!(snap.fetch(), Fetch::Instr(Instr::Load { .. })));
        assert!(matches!(snap.fetch(), Fetch::Await));
        snap.deliver(1, 7);
        assert!(matches!(snap.fetch(), Fetch::Done));
        assert_eq!(regs.borrow()[&1], 7);
    }

    #[test]
    fn strip_fences_drops_all_fences() {
        let (inner, _) = ScriptProgram::new(vec![
            Instr::fence(FenceRole::Critical),
            st(0x00),
            Instr::fence_at(FenceSite(3), FenceRole::NonCritical),
            ld(0x40),
            Instr::fence(FenceRole::NonCritical),
        ]);
        let mut p = StripFences::new(Box::new(inner));
        assert_eq!(fetch_kinds(&mut p), vec!["st", "ld"]);
    }

    #[test]
    fn strip_fences_snapshot_keeps_position() {
        let (inner, _) =
            ScriptProgram::new(vec![st(0x00), Instr::fence(FenceRole::Critical), ld(0x40)]);
        let mut p = StripFences::new(Box::new(inner));
        assert!(matches!(p.fetch(), Fetch::Instr(Instr::Store { .. })));
        let mut snap = p.snapshot();
        assert_eq!(fetch_kinds(&mut *snap), vec!["ld"]);
    }
}
