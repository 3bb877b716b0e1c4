//! Deterministic schedule oracles: the simulator's nondeterminism,
//! surfaced as explicit choice points.
//!
//! The simulator is cycle-accurate and deterministic; every run
//! exercises exactly one interleaving. What *varies* between legal
//! executions of the same program is timing at three injection points —
//! NoC message arbitration, invalidation delivery, and write-buffer
//! drain — and all three funnel through a single [`ScheduleOracle`]
//! asked one question per event: *how many extra cycles does this event
//! wait?*
//!
//! Two oracles implement the trait:
//!
//! * [`SeededJitter`] reproduces the original sampling behaviour
//!   bit-for-bit: every answer is a pure function of
//!   `(seed, stream, event index)` via [`Perturbation::draw`], so a
//!   seed replays a run cycle-for-cycle.
//! * [`ScriptOracle`] drives *bounded-exhaustive* exploration: each
//!   choice point takes one of a small number of quantized delays
//!   (option `k` waits `k × quantum` cycles), selected by a decision
//!   vector indexed in encounter order. Points beyond the end of the
//!   vector take option 0 (no delay), and every point encountered is
//!   recorded, so an explorer can replay a decided prefix and extend
//!   the choice tree from whatever frontier the run exposes.
//!
//! Which oracle a machine builds is configured by the data-only
//! [`SchedulePlan`] in `MachineConfig` — the config stays `Clone +
//! PartialEq` and the boxed oracle is constructed by the memory system.

use crate::config::Perturbation;

/// Kind of nondeterminism point (one per injection site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChoiceKind {
    /// A NoC message is about to be sent (arbitration jitter).
    NocMessage,
    /// An invalidation is about to be delivered (delivery lag, on top
    /// of the generic message jitter).
    InvalDelivery,
    /// A retired store is entering the write buffer (drain stall).
    WbDrain,
}

/// One nondeterminism point, identified by kind, subject and a
/// per-stream monotone sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChoicePoint {
    /// Injection site.
    pub kind: ChoiceKind,
    /// Core on whose behalf the event happens (message source core or
    /// directory bank node; draining core for [`ChoiceKind::WbDrain`]).
    pub core: usize,
    /// Raw [`LineAddr`](crate::ids::LineAddr) of the subject cache
    /// line, when the event concerns one (GRT traffic does not).
    pub line: Option<u64>,
    /// Monotone event index within the point's stream (the shared
    /// message counter for NoC/inval points, the store serial for
    /// write-buffer points).
    pub seq: u64,
}

/// Answers "how long does this event wait?" for every choice point the
/// simulator encounters, in encounter order.
///
/// Implementations must be pure functions of their own state and the
/// points they are shown: two runs fed identical point sequences must
/// answer identically, which is what makes failing schedules replay.
pub trait ScheduleOracle: std::fmt::Debug + Send {
    /// Extra cycles this event waits before proceeding.
    fn choose(&mut self, point: &ChoicePoint) -> u64;

    /// Hands back the recording of every point encountered (exhaustive
    /// exploration reads this to extend its choice tree). The default
    /// (sampling) oracle records nothing.
    fn take_recording(&mut self) -> Option<ScheduleRecording> {
        None
    }
}

/// The original sampling oracle: seeded, coherence-legal jitter.
///
/// Bit-identical to the pre-trait behaviour — NoC points draw from
/// [`Perturbation::STREAM_NOC`], invalidation points add a
/// [`Perturbation::STREAM_INVAL`] draw on top, and write-buffer points
/// draw from [`Perturbation::STREAM_WB`] salted with the draining core.
#[derive(Clone, Debug)]
pub struct SeededJitter {
    /// The perturbation magnitudes and seed being sampled.
    pub perturb: Perturbation,
}

impl ScheduleOracle for SeededJitter {
    fn choose(&mut self, point: &ChoicePoint) -> u64 {
        let p = &self.perturb;
        match point.kind {
            ChoiceKind::NocMessage => p.draw(Perturbation::STREAM_NOC, point.seq, p.noc_jitter),
            ChoiceKind::InvalDelivery => {
                p.draw(Perturbation::STREAM_NOC, point.seq, p.noc_jitter)
                    + p.draw(Perturbation::STREAM_INVAL, point.seq, p.inval_delay)
            }
            ChoiceKind::WbDrain => p.draw(
                Perturbation::STREAM_WB ^ ((point.core as u64) << 32),
                point.seq,
                p.wb_stall,
            ),
        }
    }
}

/// Per-kind delay quanta for scripted schedules: option `k` at a choice
/// point waits `k × quantum(kind)` cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleQuanta {
    /// Quantum for [`ChoiceKind::NocMessage`] points.
    pub noc: u64,
    /// Quantum for [`ChoiceKind::InvalDelivery`] points.
    pub inval: u64,
    /// Quantum for [`ChoiceKind::WbDrain`] points.
    pub wb: u64,
}

impl ScheduleQuanta {
    /// The quantum for a point kind.
    pub fn quantum(&self, kind: ChoiceKind) -> u64 {
        match kind {
            ChoiceKind::NocMessage => self.noc,
            ChoiceKind::InvalDelivery => self.inval,
            ChoiceKind::WbDrain => self.wb,
        }
    }

    /// The largest delay any single choice can inject under `arity`
    /// options (bounds the watchdog interaction).
    pub fn max_delay(&self, arity: u8) -> u64 {
        self.noc
            .max(self.inval)
            .max(self.wb)
            .saturating_mul(arity.saturating_sub(1) as u64)
    }
}

impl Default for ScheduleQuanta {
    /// Mirrors the sampling defaults (`ExploreConfig`): 48-cycle NoC
    /// jitter and invalidation lag, 96-cycle write-buffer stalls.
    fn default() -> Self {
        ScheduleQuanta {
            noc: 48,
            inval: 48,
            wb: 96,
        }
    }
}

/// A fully decided schedule: a decision vector over quantized delays.
///
/// Decision `i` picks the delay option for the `i`-th choice point the
/// run encounters (in encounter order); points past the end of the
/// vector take option 0. Pure data (`Clone + PartialEq`), so it can
/// ride inside `MachineConfig` and inside counterexamples.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ScheduleScript {
    /// Delay quanta per point kind.
    pub quanta: ScheduleQuanta,
    /// Number of delay options per point (`k` in `0..arity` waits
    /// `k × quantum`); arity 2 means "on time or one quantum late".
    pub arity: u8,
    /// Option index per choice point, in encounter order.
    pub decisions: Vec<u8>,
}

impl ScheduleScript {
    /// An all-natural schedule (every decision 0) with the given shape.
    pub fn natural(quanta: ScheduleQuanta, arity: u8) -> Self {
        ScheduleScript {
            quanta,
            arity,
            decisions: Vec::new(),
        }
    }

    /// This script with one decision replaced/extended (zero-padding
    /// any gap); used by the explorer to branch at a frontier node.
    pub fn with_decision(&self, index: usize, option: u8) -> Self {
        let mut s = self.clone();
        if s.decisions.len() <= index {
            s.decisions.resize(index + 1, 0);
        }
        s.decisions[index] = option;
        s
    }

    /// Number of nonzero decisions (the schedule's "reorder cost",
    /// compared against the exploration bound).
    pub fn cost(&self) -> usize {
        self.decisions.iter().filter(|&&d| d != 0).count()
    }
}

/// One recorded choice: the point and the option it took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// The point encountered.
    pub point: ChoicePoint,
    /// The option index the script chose (0 = no delay).
    pub option: u8,
}

/// Every choice point one run encountered, in encounter order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleRecording {
    /// The per-point records.
    pub records: Vec<ChoiceRecord>,
}

/// The scripted oracle: replays a [`ScheduleScript`] and records every
/// point it is shown.
#[derive(Clone, Debug)]
pub struct ScriptOracle {
    script: ScheduleScript,
    cursor: usize,
    recording: ScheduleRecording,
}

impl ScriptOracle {
    /// Builds the oracle for one run of `script`.
    pub fn new(script: ScheduleScript) -> Self {
        ScriptOracle {
            script,
            cursor: 0,
            recording: ScheduleRecording::default(),
        }
    }
}

impl ScheduleOracle for ScriptOracle {
    fn choose(&mut self, point: &ChoicePoint) -> u64 {
        let option = self
            .script
            .decisions
            .get(self.cursor)
            .copied()
            .unwrap_or(0)
            .min(self.script.arity.saturating_sub(1));
        self.cursor += 1;
        self.recording.records.push(ChoiceRecord {
            point: *point,
            option,
        });
        u64::from(option) * self.script.quanta.quantum(point.kind)
    }

    fn take_recording(&mut self) -> Option<ScheduleRecording> {
        Some(std::mem::take(&mut self.recording))
    }
}

/// How a machine sources its schedule nondeterminism (data-only; the
/// memory system constructs the boxed oracle from this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedulePlan {
    /// Sample seeded jitter from this perturbation (natural schedule
    /// when it is inactive, as in the default).
    Seeded(Perturbation),
    /// Replay a decided schedule and record the choice points
    /// encountered (bounded-exhaustive exploration).
    Scripted(ScheduleScript),
}

impl Default for SchedulePlan {
    fn default() -> Self {
        SchedulePlan::Seeded(Perturbation::default())
    }
}

impl SchedulePlan {
    /// Builds the oracle this plan describes; `None` means "no
    /// nondeterminism" (every event on natural time, zero overhead).
    pub fn build_oracle(&self) -> Option<Box<dyn ScheduleOracle>> {
        match self {
            &SchedulePlan::Seeded(perturb) => perturb
                .is_active()
                .then(|| Box::new(SeededJitter { perturb }) as Box<dyn ScheduleOracle>),
            SchedulePlan::Scripted(script) => {
                Some(Box::new(ScriptOracle::new(script.clone())) as Box<dyn ScheduleOracle>)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(kind: ChoiceKind, core: usize, seq: u64) -> ChoicePoint {
        ChoicePoint {
            kind,
            core,
            line: Some(0x40),
            seq,
        }
    }

    #[test]
    fn seeded_jitter_matches_raw_perturbation_draws() {
        let p = Perturbation {
            seed: 9,
            noc_jitter: 48,
            wb_stall: 96,
            inval_delay: 48,
        };
        let mut orc = SeededJitter { perturb: p };
        assert_eq!(
            orc.choose(&point(ChoiceKind::NocMessage, 2, 7)),
            p.draw(Perturbation::STREAM_NOC, 7, 48)
        );
        assert_eq!(
            orc.choose(&point(ChoiceKind::InvalDelivery, 2, 8)),
            p.draw(Perturbation::STREAM_NOC, 8, 48) + p.draw(Perturbation::STREAM_INVAL, 8, 48)
        );
        assert_eq!(
            orc.choose(&point(ChoiceKind::WbDrain, 3, 2)),
            p.draw(Perturbation::STREAM_WB ^ (3 << 32), 2, 96)
        );
        assert!(orc.take_recording().is_none());
    }

    #[test]
    fn script_oracle_replays_and_records() {
        let script = ScheduleScript {
            quanta: ScheduleQuanta {
                noc: 10,
                inval: 20,
                wb: 30,
            },
            arity: 3,
            decisions: vec![0, 2, 1],
        };
        let mut orc = ScriptOracle::new(script);
        assert_eq!(orc.choose(&point(ChoiceKind::NocMessage, 0, 1)), 0);
        assert_eq!(orc.choose(&point(ChoiceKind::WbDrain, 1, 1)), 60);
        assert_eq!(orc.choose(&point(ChoiceKind::InvalDelivery, 0, 2)), 20);
        // Beyond the vector: option 0.
        assert_eq!(orc.choose(&point(ChoiceKind::NocMessage, 0, 3)), 0);
        let rec = orc.take_recording().unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[1].option, 2);
        assert_eq!(rec.records[3].option, 0);
        // Recording is handed over exactly once per take.
        assert_eq!(orc.take_recording().unwrap().records.len(), 0);
    }

    #[test]
    fn script_clamps_out_of_range_options() {
        let script = ScheduleScript {
            quanta: ScheduleQuanta::default(),
            arity: 2,
            decisions: vec![9],
        };
        let mut orc = ScriptOracle::new(script);
        // Option 9 clamps to arity-1 = 1 → one noc quantum.
        assert_eq!(orc.choose(&point(ChoiceKind::NocMessage, 0, 1)), 48);
    }

    #[test]
    fn plan_builds_the_right_oracle() {
        assert!(SchedulePlan::default().build_oracle().is_none());
        let p = Perturbation {
            seed: 1,
            noc_jitter: 4,
            wb_stall: 0,
            inval_delay: 0,
        };
        assert!(SchedulePlan::Seeded(p).build_oracle().is_some());
        let scripted =
            SchedulePlan::Scripted(ScheduleScript::natural(ScheduleQuanta::default(), 2));
        assert!(scripted.build_oracle().is_some());
    }

    #[test]
    fn with_decision_extends_and_costs() {
        let s = ScheduleScript::natural(ScheduleQuanta::default(), 2);
        let s = s.with_decision(3, 1);
        assert_eq!(s.decisions, vec![0, 0, 0, 1]);
        assert_eq!(s.cost(), 1);
        assert_eq!(s.with_decision(0, 1).cost(), 2);
    }
}
