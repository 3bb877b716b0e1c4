//! Store→load windows, the cross-thread conflict digraph, and critical
//! cycles.
//!
//! Under TSO the only architectural reordering is a store's write-back
//! drifting past a later load of a *different* word (the store buffer).
//! A thread's trace therefore yields **windows**: pairs `(store line,
//! load line)` where the store precedes the load in program order with
//! no fence or RMW between them and no same-word forwarding (a load of
//! the exact stored word is satisfied from the buffer and can never
//! observe the reordering).
//!
//! A window alone is harmless. Following Shasha & Snir's delay sets, a
//! reordering is observable only on a **critical cycle**: windows on
//! distinct threads chained so each window's early load reads a line
//! another window's delayed store writes, closing back on itself. We
//! enumerate simple cycles over the window digraph with at most one
//! window per thread (a TSO critical cycle never needs two windows on
//! one thread — the second store→load pair would be ordered through the
//! first's fence anyway), which also bounds cycle length by the thread
//! count: the reorder-bounded pruning that keeps enumeration tiny.

use std::collections::{BTreeMap, BTreeSet};

use crate::interp::{Access, ThreadTrace};

/// One recovered store→load window with the word-level evidence behind
/// it (the words feed the synthesis layer's conflict footprints).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowInfo {
    /// Thread both accesses belong to.
    pub thread: usize,
    /// Cache-line index of the delayed store.
    pub store_line: u64,
    /// Cache-line index of the early load.
    pub load_line: u64,
    /// Word byte-addresses stored (evidence, ascending).
    pub store_words: BTreeSet<u64>,
    /// Word byte-addresses loaded (evidence, ascending).
    pub load_words: BTreeSet<u64>,
}

/// Window accumulator: `(thread, store_line, load_line)` keyed store-
/// and load-word evidence, ordered so iteration is deterministic.
type WindowMap = BTreeMap<(usize, u64, u64), (BTreeSet<u64>, BTreeSet<u64>)>;

/// Extracts every window from per-thread traces, merging evidence into
/// one `WindowInfo` per distinct `(thread, store_line, load_line)`.
/// Call once per schedule variant and merge with [`merge_windows`].
pub fn extract_windows(traces: &[ThreadTrace], line_bytes: u64) -> Vec<WindowInfo> {
    let mut map: WindowMap = BTreeMap::new();
    for (thread, trace) in traces.iter().enumerate() {
        // Words stored since the last window cut (fence/RMW), in order.
        let mut open: Vec<u64> = Vec::new();
        for &a in &trace.accesses {
            match a {
                Access::Store(w) => open.push(w),
                Access::Rmw(_) | Access::Fence => open.clear(),
                Access::Load(w) => {
                    let load_line = w / line_bytes;
                    for &s in &open {
                        if s == w {
                            continue; // same-word store forwarding
                        }
                        let e = map.entry((thread, s / line_bytes, load_line)).or_default();
                        e.0.insert(s);
                        e.1.insert(w);
                    }
                }
            }
        }
    }
    map.into_iter()
        .map(
            |((thread, store_line, load_line), (store_words, load_words))| WindowInfo {
                thread,
                store_line,
                load_line,
                store_words,
                load_words,
            },
        )
        .collect()
}

/// Merges window sets from several schedule variants (union of windows,
/// union of per-window evidence). Deterministic: output is sorted by
/// `(thread, store_line, load_line)`.
pub fn merge_windows(sets: Vec<Vec<WindowInfo>>) -> Vec<WindowInfo> {
    let mut map: WindowMap = BTreeMap::new();
    for set in sets {
        for w in set {
            let e = map
                .entry((w.thread, w.store_line, w.load_line))
                .or_default();
            e.0.extend(w.store_words);
            e.1.extend(w.load_words);
        }
    }
    map.into_iter()
        .map(
            |((thread, store_line, load_line), (store_words, load_words))| WindowInfo {
                thread,
                store_line,
                load_line,
                store_words,
                load_words,
            },
        )
        .collect()
}

/// The window conflict digraph: edge `i → j` iff the windows live on
/// different threads and window `i`'s early load reads the line window
/// `j`'s delayed store writes.
pub fn digraph(windows: &[WindowInfo]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); windows.len()];
    for (i, a) in windows.iter().enumerate() {
        for (j, b) in windows.iter().enumerate() {
            if a.thread != b.thread && a.load_line == b.store_line {
                adj[i].push(j);
            }
        }
    }
    adj
}

/// What the cycle scan found.
#[derive(Clone, Debug)]
pub struct CycleScan {
    /// Per window: does it sit on at least one critical cycle?
    pub on_cycle: Vec<bool>,
    /// Simple critical cycles enumerated (deduplicated by minimal start).
    pub cycles: u64,
    /// DFS branches cut by the one-window-per-thread reorder bound.
    pub bounded: u64,
}

/// Enumeration ceiling — a runaway guard far above any study kernel
/// (bakery, the largest, enumerates well under a hundred).
pub const MAX_CYCLES: u64 = 100_000;

/// Enumerates every simple critical cycle: ≥ 2 windows, ≤ 1 window per
/// thread, each canonical cycle counted once (its minimal window index
/// is the DFS root). Marks the windows that participate.
pub fn critical_cycles(windows: &[WindowInfo], adj: &[Vec<usize>]) -> CycleScan {
    let n = windows.len();
    let mut scan = CycleScan {
        on_cycle: vec![false; n],
        cycles: 0,
        bounded: 0,
    };
    let mut path: Vec<usize> = Vec::new();
    let mut threads_used: BTreeSet<usize> = BTreeSet::new();

    fn dfs(
        v: usize,
        root: usize,
        windows: &[WindowInfo],
        adj: &[Vec<usize>],
        path: &mut Vec<usize>,
        threads_used: &mut BTreeSet<usize>,
        scan: &mut CycleScan,
    ) {
        if scan.cycles >= MAX_CYCLES {
            return;
        }
        path.push(v);
        threads_used.insert(windows[v].thread);
        for &w in &adj[v] {
            if w == root && path.len() >= 2 {
                scan.cycles += 1;
                for &p in path.iter() {
                    scan.on_cycle[p] = true;
                }
                continue;
            }
            if w <= root || path.contains(&w) {
                continue; // canonical start / simple-cycle constraint
            }
            if threads_used.contains(&windows[w].thread) {
                scan.bounded += 1; // reorder bound: one window per thread
                continue;
            }
            dfs(w, root, windows, adj, path, threads_used, scan);
        }
        threads_used.remove(&windows[v].thread);
        path.pop();
    }

    for root in 0..n {
        dfs(
            root,
            root,
            windows,
            adj,
            &mut path,
            &mut threads_used,
            &mut scan,
        );
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(accesses: Vec<Access>) -> ThreadTrace {
        ThreadTrace { accesses }
    }

    fn win(thread: usize, store_line: u64, load_line: u64) -> WindowInfo {
        WindowInfo {
            thread,
            store_line,
            load_line,
            store_words: BTreeSet::new(),
            load_words: BTreeSet::new(),
        }
    }

    #[test]
    fn window_opens_on_store_and_cuts_on_rmw_and_fence() {
        let traces = vec![trace(vec![
            Access::Store(0),
            Access::Load(64), // window (0 → 1)
            Access::Rmw(128),
            Access::Load(64), // no open store: no window
            Access::Store(0),
            Access::Fence,
            Access::Load(64), // cut by the fence: no window
        ])];
        let ws = extract_windows(&traces, 64);
        assert_eq!(ws.len(), 1);
        assert_eq!((ws[0].store_line, ws[0].load_line), (0, 1));
        assert_eq!(ws[0].store_words, BTreeSet::from([0]));
        assert_eq!(ws[0].load_words, BTreeSet::from([64]));
    }

    #[test]
    fn same_word_forwarding_is_excluded() {
        let traces = vec![trace(vec![
            Access::Store(8),
            Access::Load(8),  // forwarded: no window
            Access::Load(16), // same line, different word: window (0 → 0)
        ])];
        let ws = extract_windows(&traces, 64);
        assert_eq!(ws.len(), 1);
        assert_eq!((ws[0].store_line, ws[0].load_line), (0, 0));
    }

    #[test]
    fn sb_shape_yields_one_two_cycle() {
        // Thread 0: st line0 → ld line1; thread 1: st line1 → ld line0.
        let ws = vec![win(0, 0, 1), win(1, 1, 0)];
        let adj = digraph(&ws);
        assert_eq!(adj, vec![vec![1], vec![0]]);
        let scan = critical_cycles(&ws, &adj);
        assert_eq!(scan.cycles, 1);
        assert!(scan.on_cycle.iter().all(|&b| b));
    }

    #[test]
    fn acyclic_windows_stay_off_cycle() {
        // Message passing: t0 st 0 → ld 1, t1 st 2 → ld 0. t0's load
        // reads t1's... no: t1 stores line 2, nobody loads it.
        let ws = vec![win(0, 0, 1), win(1, 2, 0)];
        let scan = critical_cycles(&ws, &digraph(&ws));
        assert_eq!(scan.cycles, 0);
        assert!(scan.on_cycle.iter().all(|&b| !b));
    }

    #[test]
    fn three_thread_cycle_is_found_once() {
        let ws = vec![win(0, 0, 1), win(1, 1, 2), win(2, 2, 0)];
        let scan = critical_cycles(&ws, &digraph(&ws));
        assert_eq!(scan.cycles, 1);
        assert!(scan.on_cycle.iter().all(|&b| b));
    }

    #[test]
    fn two_windows_per_thread_are_bounded() {
        // A would-be cycle that needs two windows on thread 0 is pruned.
        let ws = vec![win(0, 0, 1), win(1, 1, 2), win(0, 2, 0)];
        let scan = critical_cycles(&ws, &digraph(&ws));
        assert_eq!(scan.cycles, 0);
        assert!(scan.bounded > 0);
    }

    #[test]
    fn merge_unions_windows_and_evidence() {
        let mut a = win(0, 0, 1);
        a.store_words.insert(0);
        let mut b = win(0, 0, 1);
        b.store_words.insert(8);
        let merged = merge_windows(vec![vec![a], vec![b, win(1, 1, 0)]]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].store_words, BTreeSet::from([0, 8]));
    }
}
