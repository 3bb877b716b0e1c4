//! The exact-result gate: checked-in digests of every unit of simulated
//! results at the default seed, and the comparison that turns a wrong
//! result into failed operations.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The seed the checked-in digests were made at (the seed of
/// `results/bench_baseline.json` and of every figure).
pub const DEFAULT_SEED: u64 = 2015;

/// The checked-in expectations, one line each:
/// `unit <workload>.<unit> <digest-hex> <ops>` or `value <key> <n>`.
pub const EXPECTED: &str = include_str!("../expected.txt");

/// One named slice of a workload's simulated results, gated as a whole:
/// a mismatch fails all of its operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unit {
    /// `<kind>.<name>`, e.g. `report.fig08_cilk` or `dpor.sb`.
    pub name: String,
    /// Digest of the unit's simulated results.
    pub digest: u64,
    /// Simulations the unit covers.
    pub ops: u64,
}

/// Parsed expectations.
#[derive(Clone, Debug, Default)]
pub struct Expected {
    units: BTreeMap<String, (u64, u64)>,
    values: BTreeMap<String, u64>,
}

impl Expected {
    /// Parses the expectation file format (`#` starts a comment line).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut e = Expected::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("expected.txt line {}: `{line}`", i + 1);
            match f.as_slice() {
                ["unit", key, hex, ops] => {
                    let d = u64::from_str_radix(hex, 16).map_err(|_| bad())?;
                    let n = ops.parse().map_err(|_| bad())?;
                    e.units.insert(key.to_string(), (d, n));
                }
                ["value", key, n] => {
                    e.values
                        .insert(key.to_string(), n.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(e)
    }

    /// The checked-in expectations.
    pub fn checked_in() -> Self {
        Expected::parse(EXPECTED).expect("perfbench/expected.txt is well-formed")
    }

    /// A checked-in value, e.g. `figures.sim_cycles`.
    pub fn value(&self, key: &str) -> Option<u64> {
        self.values.get(key).copied()
    }

    /// Gates `units` of `workload` against the expectations. Returns the
    /// failed operations and one message per mismatch. Every unit kind
    /// the pass produced must match entry for entry: a missing, extra
    /// or differing unit fails.
    pub fn check(&self, workload: &str, units: &[Unit]) -> (u64, Vec<String>) {
        let mut failed = 0;
        let mut msgs = Vec::new();
        let mut kinds: Vec<&str> = units
            .iter()
            .map(|u| u.name.split('.').next().unwrap_or(""))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        for u in units {
            let key = format!("{workload}.{}", u.name);
            match self.units.get(&key) {
                Some(&(d, ops)) if d == u.digest && ops == u.ops => {}
                Some(&(d, ops)) => {
                    failed += u.ops.max(1);
                    msgs.push(format!(
                        "{key}: digest {:016x} over {} ops, expected {d:016x} over {ops}",
                        u.digest, u.ops
                    ));
                }
                None => {
                    failed += u.ops.max(1);
                    msgs.push(format!("{key}: no expectation checked in"));
                }
            }
        }
        for kind in kinds {
            let prefix = format!("{workload}.{kind}.");
            for key in self.units.keys().filter(|k| k.starts_with(&prefix)) {
                if !units
                    .iter()
                    .any(|u| format!("{workload}.{}", u.name) == *key)
                {
                    failed += 1;
                    msgs.push(format!("{key}: expected but not produced"));
                }
            }
        }
        (failed, msgs)
    }
}

/// Renders units in the expectation file format (the `--bless` output).
pub fn render(workload: &str, units: &[Unit]) -> String {
    let mut out = String::new();
    for u in units {
        let _ = writeln!(
            out,
            "unit {workload}.{} {:016x} {}",
            u.name, u.digest, u.ops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use asymfence::prelude::FenceDesign;
    use asymfence_bench::{LitmusCase, RunSpec};

    fn unit_of(spec: &RunSpec) -> Unit {
        let r = spec.execute();
        Unit {
            name: "grid.sb".into(),
            digest: Digest::default().result(&r).finish(),
            ops: 1,
        }
    }

    #[test]
    fn checked_in_expectations_parse() {
        let e = Expected::checked_in();
        assert!(e.value("figures.sim_cycles").is_some());
        assert!(!e.units.is_empty());
    }

    #[test]
    fn a_perturbed_expectation_is_caught() {
        let spec = RunSpec::litmus(
            LitmusCase::StoreBuffering { fences: None },
            FenceDesign::SPlus,
            DEFAULT_SEED,
        );
        let unit = unit_of(&spec);
        let good = Expected::parse(&render("w", std::slice::from_ref(&unit))).unwrap();
        assert_eq!(good.check("w", std::slice::from_ref(&unit)), (0, vec![]));

        // One flipped digest bit, a wrong op count, and a missing unit
        // must each fail.
        let flipped = format!("unit w.grid.sb {:016x} 1", unit.digest ^ 1);
        let (failed, msgs) = Expected::parse(&flipped)
            .unwrap()
            .check("w", std::slice::from_ref(&unit));
        assert_eq!(failed, 1);
        assert!(msgs[0].contains("expected"), "{msgs:?}");

        let wrong_ops = format!("unit w.grid.sb {:016x} 2", unit.digest);
        assert_eq!(
            Expected::parse(&wrong_ops)
                .unwrap()
                .check("w", std::slice::from_ref(&unit))
                .0,
            1
        );

        let extra = format!(
            "{}unit w.grid.gone 0000000000000000 3\n",
            render("w", std::slice::from_ref(&unit))
        );
        assert_eq!(
            Expected::parse(&extra)
                .unwrap()
                .check("w", std::slice::from_ref(&unit))
                .0,
            1
        );
    }

    #[test]
    fn a_different_simulation_changes_the_digest() {
        let sb = |d| {
            RunSpec::litmus(
                LitmusCase::StoreBuffering {
                    fences: Some((
                        asymfence::prelude::FenceRole::Critical,
                        asymfence::prelude::FenceRole::NonCritical,
                    )),
                },
                d,
                DEFAULT_SEED,
            )
        };
        assert_eq!(
            unit_of(&sb(FenceDesign::WsPlus)),
            unit_of(&sb(FenceDesign::WsPlus))
        );
        assert_ne!(
            unit_of(&sb(FenceDesign::WsPlus)).digest,
            unit_of(&sb(FenceDesign::SPlus)).digest
        );
    }
}
