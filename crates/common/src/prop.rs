//! A small, hermetic property-testing harness.
//!
//! Replaces the external `proptest` dependency so the tier-1 suite builds
//! and runs fully offline. The design is deliberately minimal:
//!
//! * a [`Gen`] trait pairs a *sampler* (value from a seeded [`SimRng`])
//!   with a *shrinker* (structurally smaller candidate values);
//! * [`check`] runs a property over pinned regression seeds first, then
//!   over freshly derived cases, and greedily shrinks the first failure;
//! * failing **seeds** are persisted to a checked-in file (one hex seed
//!   per line, proptest-style), so every future run replays them before
//!   exploring new cases;
//! * env knobs mirror `PROPTEST_CASES`: `ASF_PROP_CASES` overrides the
//!   case count, `ASF_PROP_SEED` the base seed.
//!
//! A persisted seed regenerates the *original* failing value; the harness
//! re-shrinks on replay, so reports stay minimal even as shrinking
//! improves.
//!
//! # Examples
//!
//! ```
//! use asymfence_common::prop::{check, vecs, u64s, Config};
//!
//! let gen = vecs(u64s(0, 100), 0, 10);
//! check("sum_bounded", &Config::from_env(64), &gen, |xs| {
//!     if xs.iter().sum::<u64>() <= 1000 {
//!         Ok(())
//!     } else {
//!         Err(format!("sum too large: {xs:?}"))
//!     }
//! });
//! ```

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::rng::{hash64, SimRng};

/// A value generator plus structural shrinker.
///
/// `sample` must be a pure function of the RNG stream: the harness
/// persists bare seeds, and replaying a seed must regenerate the same
/// value forever.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> Self::Value;

    /// Proposes strictly "smaller" variants of `v` to try during
    /// shrinking. The default proposes nothing.
    fn shrink(&self, _v: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

// ----------------------------------------------------------------------
// Base combinators
// ----------------------------------------------------------------------

/// Uniform `u64` in `[lo, hi]`, shrinking toward `lo`.
pub fn u64s(lo: u64, hi: u64) -> U64Range {
    assert!(lo <= hi);
    U64Range { lo, hi }
}

/// See [`u64s`].
#[derive(Clone, Copy, Debug)]
pub struct U64Range {
    lo: u64,
    hi: u64,
}

impl Gen for U64Range {
    type Value = u64;
    fn sample(&self, rng: &mut SimRng) -> u64 {
        rng.range(self.lo, self.hi)
    }
    fn shrink(&self, v: &u64) -> Vec<u64> {
        let mut out = Vec::new();
        if *v > self.lo {
            out.push(self.lo);
            let mid = self.lo + (*v - self.lo) / 2;
            if mid != self.lo && mid != *v {
                out.push(mid);
            }
            out.push(*v - 1);
        }
        out.dedup();
        out
    }
}

/// Uniform `usize` in `[lo, hi]`, shrinking toward `lo`.
pub fn usizes(lo: usize, hi: usize) -> UsizeRange {
    UsizeRange {
        inner: u64s(lo as u64, hi as u64),
    }
}

/// See [`usizes`].
#[derive(Clone, Copy, Debug)]
pub struct UsizeRange {
    inner: U64Range,
}

impl Gen for UsizeRange {
    type Value = usize;
    fn sample(&self, rng: &mut SimRng) -> usize {
        self.inner.sample(rng) as usize
    }
    fn shrink(&self, v: &usize) -> Vec<usize> {
        self.inner
            .shrink(&(*v as u64))
            .into_iter()
            .map(|x| x as usize)
            .collect()
    }
}

/// Uniform `u8` in `[lo, hi]`, shrinking toward `lo`.
pub fn u8s(lo: u8, hi: u8) -> U8Range {
    U8Range {
        inner: u64s(lo as u64, hi as u64),
    }
}

/// See [`u8s`].
#[derive(Clone, Copy, Debug)]
pub struct U8Range {
    inner: U64Range,
}

impl Gen for U8Range {
    type Value = u8;
    fn sample(&self, rng: &mut SimRng) -> u8 {
        self.inner.sample(rng) as u8
    }
    fn shrink(&self, v: &u8) -> Vec<u8> {
        self.inner
            .shrink(&(*v as u64))
            .into_iter()
            .map(|x| x as u8)
            .collect()
    }
}

/// Uniform booleans, shrinking `true → false`.
pub fn bools() -> BoolGen {
    BoolGen
}

/// See [`bools`].
#[derive(Clone, Copy, Debug)]
pub struct BoolGen;

impl Gen for BoolGen {
    type Value = bool;
    fn sample(&self, rng: &mut SimRng) -> bool {
        rng.below(2) == 1
    }
    fn shrink(&self, v: &bool) -> Vec<bool> {
        if *v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Vectors of `elem` with a length in `[min_len, max_len]`. Shrinks by
/// dropping elements (down to `min_len`) and by shrinking one element at
/// a time.
pub fn vecs<G: Gen>(elem: G, min_len: usize, max_len: usize) -> VecGen<G> {
    assert!(min_len <= max_len);
    VecGen {
        elem,
        min_len,
        max_len,
    }
}

/// See [`vecs`].
#[derive(Clone, Copy, Debug)]
pub struct VecGen<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;
    fn sample(&self, rng: &mut SimRng) -> Vec<G::Value> {
        let len = rng.range(self.min_len as u64, self.max_len as u64) as usize;
        (0..len).map(|_| self.elem.sample(rng)).collect()
    }
    fn shrink(&self, v: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        // Drop a prefix/suffix half first (fast descent), then single
        // elements, then shrink elements in place.
        if v.len() > self.min_len {
            let half = (v.len() / 2).max(self.min_len);
            if half < v.len() {
                out.push(v[..half].to_vec());
                out.push(v[v.len() - half..].to_vec());
            }
            for i in 0..v.len() {
                let mut w = v.clone();
                w.remove(i);
                out.push(w);
            }
        }
        for (i, e) in v.iter().enumerate() {
            for se in self.elem.shrink(e) {
                let mut w = v.clone();
                w[i] = se;
                out.push(w);
            }
        }
        out
    }
}

/// Pairs of independent generators.
pub fn pairs<A: Gen, B: Gen>(a: A, b: B) -> PairGen<A, B> {
    PairGen { a, b }
}

/// See [`pairs`].
#[derive(Clone, Copy, Debug)]
pub struct PairGen<A, B> {
    a: A,
    b: B,
}

impl<A: Gen, B: Gen> Gen for PairGen<A, B> {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut SimRng) -> Self::Value {
        (self.a.sample(rng), self.b.sample(rng))
    }
    fn shrink(&self, (a, b): &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = self
            .a
            .shrink(a)
            .into_iter()
            .map(|sa| (sa, b.clone()))
            .collect();
        out.extend(self.b.shrink(b).map_self(|sb| (a.clone(), sb)));
        out
    }
}

/// Triples of independent generators.
pub fn triples<A: Gen, B: Gen, C: Gen>(a: A, b: B, c: C) -> TripleGen<A, B, C> {
    TripleGen { a, b, c }
}

/// See [`triples`].
#[derive(Clone, Copy, Debug)]
pub struct TripleGen<A, B, C> {
    a: A,
    b: B,
    c: C,
}

impl<A: Gen, B: Gen, C: Gen> Gen for TripleGen<A, B, C> {
    type Value = (A::Value, B::Value, C::Value);
    fn sample(&self, rng: &mut SimRng) -> Self::Value {
        (self.a.sample(rng), self.b.sample(rng), self.c.sample(rng))
    }
    fn shrink(&self, (a, b, c): &Self::Value) -> Vec<Self::Value> {
        let mut out: Vec<Self::Value> = Vec::new();
        out.extend(self.a.shrink(a).map_self(|sa| (sa, b.clone(), c.clone())));
        out.extend(self.b.shrink(b).map_self(|sb| (a.clone(), sb, c.clone())));
        out.extend(self.c.shrink(c).map_self(|sc| (a.clone(), b.clone(), sc)));
        out
    }
}

// Internal sugar so the tuple shrinkers read uniformly.
trait MapSelf<T> {
    fn map_self<U>(self, f: impl FnMut(T) -> U) -> Vec<U>;
}
impl<T> MapSelf<T> for Vec<T> {
    fn map_self<U>(self, f: impl FnMut(T) -> U) -> Vec<U> {
        self.into_iter().map(f).collect()
    }
}

/// Maps a generator's output through `f`. Mapped values do not shrink;
/// implement [`Gen`] directly on the domain type when shrinking matters.
pub fn map<G: Gen, T: Clone + Debug>(inner: G, f: fn(G::Value) -> T) -> MapGen<G, T> {
    MapGen { inner, f }
}

/// See [`map`].
#[derive(Clone, Copy, Debug)]
pub struct MapGen<G: Gen, T> {
    inner: G,
    f: fn(<G as Gen>::Value) -> T,
}

impl<G: Gen, T: Clone + Debug> Gen for MapGen<G, T> {
    type Value = T;
    fn sample(&self, rng: &mut SimRng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of fresh cases to run (after pinned regressions).
    pub cases: u32,
    /// Base seed; case `i` uses `hash64(seed ^ i)`.
    pub seed: u64,
    /// Cap on shrinking iterations (accepted shrink steps × candidates).
    pub max_shrink_steps: u32,
    /// Checked-in regression-seed file (absolute path), if any.
    pub regressions: Option<PathBuf>,
}

impl Config {
    /// Builds a config honoring `ASF_PROP_CASES` and `ASF_PROP_SEED`.
    pub fn from_env(default_cases: u32) -> Self {
        let cases = std::env::var("ASF_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_cases);
        let seed = std::env::var("ASF_PROP_SEED")
            .ok()
            .and_then(|v| parse_seed(&v))
            .unwrap_or(0xA5F0_2015);
        Config {
            cases,
            seed,
            max_shrink_steps: 4_000,
            regressions: None,
        }
    }

    /// Attaches a checked-in regression-seed file. Pinned seeds replay
    /// before new cases; new failures append their seed (best-effort).
    pub fn regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Reads pinned seeds from a regression file (missing file = none).
pub fn read_regression_seeds(path: &Path) -> Vec<u64> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let l = l.trim();
            if l.is_empty() || l.starts_with('#') {
                return None;
            }
            parse_seed(l.split_whitespace().next()?)
        })
        .collect()
}

fn append_regression_seed(path: &Path, seed: u64, note: &str) {
    use std::io::Write as _;
    let header_needed = !path.exists();
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    if header_needed {
        let _ = writeln!(
            f,
            "# asymfence prop-harness regression seeds.\n\
             # One hex seed per line; replayed (and re-shrunk) before new cases.\n\
             # Check this file in so every run replays past failures."
        );
    }
    let _ = writeln!(f, "{seed:#018x} # {note}");
}

fn run_prop<T, F>(prop: &F, v: &T) -> Result<(), String>
where
    T: Clone + Debug,
    F: Fn(&T) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| prop(v))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic (non-string payload)".into());
            Err(format!("panicked: {msg}"))
        }
    }
}

/// Greedily shrinks a failing value: repeatedly takes the first candidate
/// that still fails, until no candidate fails or the step budget runs out.
fn shrink_failure<G, F>(gen: &G, cfg: &Config, mut v: G::Value, prop: &F) -> (G::Value, String)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let mut last_err = run_prop(prop, &v).err().unwrap_or_default();
    let mut steps = 0u32;
    'outer: loop {
        for cand in gen.shrink(&v) {
            steps += 1;
            if steps > cfg.max_shrink_steps {
                break 'outer;
            }
            if let Err(e) = run_prop(prop, &cand) {
                v = cand;
                last_err = e;
                continue 'outer;
            }
        }
        break;
    }
    (v, last_err)
}

/// Checks `prop` over pinned regression seeds, then `cfg.cases` fresh
/// cases. Panics with the shrunk counterexample and its seed on failure.
///
/// # Panics
///
/// Panics if the property fails for any pinned or generated case.
pub fn check<G, F>(name: &str, cfg: &Config, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence inner shrink panics
    let outcome = check_inner(name, cfg, gen, &prop);
    std::panic::set_hook(hook);
    if let Err(msg) = outcome {
        panic!("{msg}");
    }
}

fn check_inner<G, F>(name: &str, cfg: &Config, gen: &G, prop: &F) -> Result<(), String>
where
    G: Gen,
    F: Fn(&G::Value) -> Result<(), String>,
{
    let pinned: Vec<u64> = cfg
        .regressions
        .as_deref()
        .map(read_regression_seeds)
        .unwrap_or_default();
    for &seed in &pinned {
        let v = gen.sample(&mut SimRng::new(seed));
        if run_prop(prop, &v).is_err() {
            let (small, err) = shrink_failure(gen, cfg, v, prop);
            return Err(format!(
                "property `{name}` failed on PINNED regression seed {seed:#018x}\n\
                 shrunk counterexample: {small:?}\n{err}"
            ));
        }
    }
    for i in 0..cfg.cases {
        let case_seed = hash64(cfg.seed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let v = gen.sample(&mut SimRng::new(case_seed));
        if run_prop(prop, &v).is_err() {
            let (small, err) = shrink_failure(gen, cfg, v, prop);
            if let Some(path) = cfg.regressions.as_deref() {
                append_regression_seed(path, case_seed, &format!("{name}: shrinks to {small:?}"));
            }
            return Err(format!(
                "property `{name}` failed (case {i}, seed {case_seed:#018x};\n\
                 rerun just this case with ASF_PROP_SEED={:#x} ASF_PROP_CASES=1)\n\
                 shrunk counterexample: {small:?}\n{err}",
                cfg.seed ^ u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let gen = vecs(u64s(0, 9), 0, 5);
        let mut count = 0u32;
        let counter = std::cell::RefCell::new(&mut count);
        let cfg = Config {
            cases: 17,
            seed: 1,
            max_shrink_steps: 100,
            regressions: None,
        };
        check("all_small", &cfg, &gen, |xs| {
            **counter.borrow_mut() += 1;
            if xs.iter().all(|&x| x < 10) {
                Ok(())
            } else {
                Err("impossible".into())
            }
        });
        assert_eq!(count, 17);
    }

    #[test]
    fn failing_property_shrinks_to_minimal() {
        let gen = vecs(u64s(0, 100), 0, 20);
        let cfg = Config {
            cases: 200,
            seed: 3,
            max_shrink_steps: 4_000,
            regressions: None,
        };
        let err = check_inner("no_big", &cfg, &gen, &|xs: &Vec<u64>| {
            if xs.iter().any(|&x| x >= 50) {
                Err(format!("found big in {xs:?}"))
            } else {
                Ok(())
            }
        })
        .expect_err("property must fail");
        // Greedy shrink must reach the canonical minimal case: one element
        // at the failure boundary.
        assert!(err.contains("shrunk counterexample: [50]"), "{err}");
    }

    #[test]
    fn shrink_is_deterministic_for_a_seed() {
        let gen = pairs(u64s(0, 999), vecs(bools(), 0, 8));
        let mut a = SimRng::new(77);
        let mut b = SimRng::new(77);
        assert_eq!(
            format!("{:?}", gen.sample(&mut a)),
            format!("{:?}", gen.sample(&mut b))
        );
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let gen = u64s(0, 1000);
        let cfg = Config {
            cases: 300,
            seed: 9,
            max_shrink_steps: 2_000,
            regressions: None,
        };
        let err = check_inner("no_panic", &cfg, &gen, &|&x: &u64| {
            assert!(x < 10, "x too big: {x}");
            Ok(())
        })
        .expect_err("must fail");
        assert!(err.contains("shrunk counterexample: 10"), "{err}");
    }

    #[test]
    fn regression_seeds_roundtrip() {
        let dir = std::env::temp_dir().join("asf_prop_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("case.seeds");
        append_regression_seed(&path, 0xDEAD_BEEF, "note");
        append_regression_seed(&path, 42, "other");
        let seeds = read_regression_seeds(&path);
        assert_eq!(seeds, vec![0xDEAD_BEEF, 42]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pinned_seed_replays_before_new_cases() {
        let dir = std::env::temp_dir().join("asf_prop_pin_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("pin.seeds");
        // Find a seed whose sample violates the property, pin it, and
        // verify the pinned replay catches it even with zero fresh cases.
        let gen = u64s(0, 100);
        let bad_seed = (0u64..)
            .find(|&s| gen.sample(&mut SimRng::new(s)) >= 50)
            .unwrap();
        append_regression_seed(&path, bad_seed, "pinned");
        let cfg = Config {
            cases: 0,
            seed: 0,
            max_shrink_steps: 100,
            regressions: Some(path.clone()),
        };
        let err = check_inner("pin", &cfg, &gen, &|&x: &u64| {
            if x < 50 {
                Ok(())
            } else {
                Err("big".into())
            }
        })
        .expect_err("pinned seed must fail");
        assert!(err.contains("PINNED"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_knobs_parse() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("16"), Some(16));
        assert_eq!(parse_seed("zz"), None);
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let gen = vecs(u64s(0, 5), 2, 6);
        let v = vec![1, 2];
        assert!(gen.shrink(&v).iter().all(|w| w.len() >= 2));
    }
}
