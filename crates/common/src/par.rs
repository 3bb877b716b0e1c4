//! Scoped-thread parallelism primitives for embarrassingly parallel,
//! deterministic work.
//!
//! Every simulation in this workspace is a pure function of its inputs,
//! so sweeps (figure grids, ablation points, explorer seeds) can fan out
//! over a worker pool as long as aggregation is order-preserving. This
//! module provides exactly that, on `std::thread::scope` with zero
//! external dependencies:
//!
//! * [`par_map`] — map a function over a slice, returning results in
//!   input order regardless of completion order.
//! * [`par_min_find`] — find the *smallest* index whose predicate hits,
//!   with early cut-off of indices that can no longer win (the parallel
//!   equivalent of a serial first-failure scan).
//!
//! The worker count is resolved by [`resolve_jobs`]: an explicit request
//! wins, then the `ASF_JOBS` environment variable, then
//! [`std::thread::available_parallelism`]. `jobs == 1` runs strictly
//! serially on the calling thread (no worker threads are spawned), which
//! unit tests use to pin evaluation order.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "ASF_JOBS";

/// Environment variable selecting the shard count (`ASF_SHARDS`).
pub const SHARDS_ENV: &str = "ASF_SHARDS";

/// Environment variable selecting this process's shard id
/// (`ASF_SHARD_ID`, `0..ASF_SHARDS`).
pub const SHARD_ID_ENV: &str = "ASF_SHARD_ID";

/// A deterministic 1-of-N partition of an indexed work grid.
///
/// Sharding is round-robin by index: shard `k` of `n` owns every item
/// whose index satisfies `i % n == k`. Round-robin (rather than block)
/// partitioning keeps per-shard load balanced when cost varies smoothly
/// with the index (seed sweeps, mask enumerations, figure grids), and —
/// critically for the sweep ledger — makes ownership a pure function of
/// `(index, shards)`, so a resumed shard recomputes exactly the set it
/// owned before the crash.
///
/// [`Shard::whole`] (1 shard, id 0) owns everything and is the identity:
/// every seam that consults a shard produces byte-identical output under
/// it, which is what keeps single-process runs unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// This shard's id, `0..count`.
    pub id: u64,
    /// Total number of shards (>= 1).
    pub count: u64,
}

impl Shard {
    /// The identity shard: owns every index.
    pub fn whole() -> Self {
        Shard { id: 0, count: 1 }
    }

    /// Shard `id` of `count`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `id >= count`.
    pub fn new(id: u64, count: u64) -> Self {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(id < count, "shard id {id} out of range 0..{count}");
        Shard { id, count }
    }

    /// The shard selected by `ASF_SHARDS` / `ASF_SHARD_ID`. Both unset is
    /// [`Shard::whole`]; otherwise both must be set, numeric, with at
    /// least one shard and the id below the count. A fleet process with a
    /// bad pair must stop, not fall back to the whole grid and repeat
    /// every other shard's work.
    ///
    /// # Errors
    ///
    /// A message naming the offending variable for a half-set,
    /// unparsable or out-of-range pair.
    pub fn from_env() -> Result<Self, String> {
        let var = |name: &str| std::env::var(name).ok();
        Shard::parse(var(SHARDS_ENV).as_deref(), var(SHARD_ID_ENV).as_deref())
    }

    /// [`Shard::from_env`] over the two variables' values (`None` when
    /// unset).
    fn parse(count: Option<&str>, id: Option<&str>) -> Result<Self, String> {
        let num = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}={v:?} is not a number"))
        };
        match (count, id) {
            (None, None) => Ok(Shard::whole()),
            (Some(count), Some(id)) => {
                let (count, id) = (num(SHARDS_ENV, count)?, num(SHARD_ID_ENV, id)?);
                if count == 0 {
                    Err(format!("{SHARDS_ENV} must be at least 1"))
                } else if id >= count {
                    Err(format!("{SHARD_ID_ENV}={id} is out of range 0..{count}"))
                } else {
                    Ok(Shard { id, count })
                }
            }
            (Some(_), None) => Err(format!("{SHARDS_ENV} is set but {SHARD_ID_ENV} is not")),
            (None, Some(_)) => Err(format!("{SHARD_ID_ENV} is set but {SHARDS_ENV} is not")),
        }
    }

    /// Whether this shard is the whole grid.
    pub fn is_whole(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns index `i`.
    pub fn owns(&self, i: u64) -> bool {
        i % self.count == self.id
    }

    /// How many indices in `0..n` this shard owns.
    pub fn owned_in(&self, n: u64) -> u64 {
        if n <= self.id {
            0
        } else {
            (n - self.id).div_ceil(self.count)
        }
    }
}

impl Default for Shard {
    fn default() -> Self {
        Shard::whole()
    }
}

/// Resolves a worker count: `explicit` (if nonzero) beats `ASF_JOBS`
/// (if set and nonzero) beats [`std::thread::available_parallelism`].
/// Always returns at least 1.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var(JOBS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Maps `f` over `items` with up to `jobs` workers, preserving input
/// order in the output. `f` receives `(index, &item)`. With `jobs <= 1`
/// (or fewer than two items) everything runs inline on the calling
/// thread, in index order.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::with_capacity(items.len());
        for w in workers {
            match w.join() {
                Ok(chunk) => all.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Finds the smallest `i` in `0..n` with `f(i).is_some()`, evaluating
/// candidates with up to `jobs` workers. Returns that index and its
/// payload, or `None` when no index hits.
///
/// The result is identical to a serial scan: workers claim indices in
/// ascending order and stop once every remaining index is larger than an
/// already-found hit, and the minimum over all hits is returned. Under
/// `jobs > 1` *more* candidates than the serial scan may be evaluated
/// (indices past the eventual winner that were claimed before it was
/// found); callers that report work done should charge the
/// serial-equivalent count `i + 1`.
///
/// # Panics
///
/// Re-raises the first worker panic on the calling thread.
pub fn par_min_find<R, F>(jobs: usize, n: u64, f: F) -> Option<(u64, R)>
where
    R: Send,
    F: Fn(u64) -> Option<R> + Sync,
{
    let jobs = jobs
        .max(1)
        .min(usize::try_from(n).unwrap_or(usize::MAX).max(1));
    if jobs <= 1 {
        for i in 0..n {
            if let Some(r) = f(i) {
                return Some((i, r));
            }
        }
        return None;
    }
    let next = AtomicU64::new(0);
    let best = AtomicU64::new(u64::MAX);
    let hits: Vec<(u64, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        // Claims are monotone, so once a claimed index can
                        // no longer beat the best hit, none of the later
                        // ones can either.
                        if i >= n || i > best.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(r) = f(i) {
                            best.fetch_min(i, Ordering::Relaxed);
                            out.push((i, r));
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            match w.join() {
                Ok(chunk) => all.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });
    hits.into_iter().min_by_key(|&(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_env_parses_whole_valid_or_errors() {
        assert_eq!(Shard::parse(None, None), Ok(Shard::whole()));
        assert_eq!(Shard::parse(Some("3"), Some("2")), Ok(Shard::new(2, 3)));
        assert_eq!(Shard::parse(Some("1"), Some("0")), Ok(Shard::whole()));
        for (count, id) in [
            (Some("3"), None),
            (None, Some("0")),
            (Some("three"), Some("0")),
            (Some("3"), Some("-1")),
            (Some(""), Some("0")),
            (Some("0"), Some("0")),
            (Some("3"), Some("3")),
        ] {
            let err = Shard::parse(count, id).expect_err("malformed shard pair");
            assert!(err.contains("ASF_SHARD"), "{err}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 8] {
            let out = par_map(jobs, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_serial_runs_in_index_order() {
        // jobs = 1 must evaluate strictly in order on the calling thread.
        let items = [0usize, 1, 2, 3];
        let seen = std::sync::Mutex::new(Vec::new());
        par_map(1, &items, |i, _| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn par_map_empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(8, &none, |_, &x| x).is_empty());
        assert_eq!(par_map(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn par_min_find_matches_serial_scan() {
        // Hits at 13, 40, 77: the minimum must win under any job count.
        let pred = |i: u64| (i == 13 || i == 40 || i == 77).then_some(i * 2);
        for jobs in [1, 2, 8] {
            assert_eq!(par_min_find(jobs, 100, pred), Some((13, 26)), "jobs={jobs}");
        }
        for jobs in [1, 2, 8] {
            assert_eq!(par_min_find::<u64, _>(jobs, 100, |_| None), None);
        }
    }

    #[test]
    fn par_min_find_empty_range() {
        assert_eq!(par_min_find::<(), _>(4, 0, |_| Some(())), None);
    }

    #[test]
    fn resolve_jobs_explicit_wins() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
        // Zero means "auto", never a zero-sized pool.
        assert!(resolve_jobs(Some(0)) >= 1);
    }

    #[test]
    fn shard_round_robin_partition_is_exact() {
        // Every index in 0..n is owned by exactly one of the k shards,
        // and owned_in agrees with a direct count.
        for count in 1..=5u64 {
            for n in [0u64, 1, 7, 64] {
                let mut total = 0;
                for id in 0..count {
                    let s = Shard::new(id, count);
                    let direct = (0..n).filter(|&i| s.owns(i)).count() as u64;
                    assert_eq!(s.owned_in(n), direct, "id={id} count={count} n={n}");
                    total += direct;
                }
                assert_eq!(total, n);
            }
        }
    }

    #[test]
    fn shard_whole_owns_everything() {
        let w = Shard::whole();
        assert!(w.is_whole());
        assert_eq!(w, Shard::default());
        for i in 0..100 {
            assert!(w.owns(i));
        }
        assert_eq!(w.owned_in(37), 37);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_rejects_out_of_range_id() {
        let _ = Shard::new(3, 3);
    }

    #[test]
    fn par_map_propagates_panics() {
        let res = std::panic::catch_unwind(|| {
            par_map(4, &[1u32, 2, 3, 4, 5, 6, 7, 8], |_, &x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(res.is_err());
    }
}
