//! A unified interface over every fault-simulation engine.
//!
//! Three independently implemented engines compute fault detection in
//! this crate; [`FaultSimEngine`] puts them behind one call signature so
//! benches, equivalence tests and fault-grading consumers can iterate
//! over the whole roster (see [`engines`]). Each has one job:
//! [`SerialEngine`] is the reference every equivalence test compares
//! against, [`SequentialEngine`] the reference for sequential fault
//! simulation, and [`PpsfpEngine`] does production grading. The engines
//! and their trade-offs:
//!
//! | engine | algorithm | word packing | lane width | dropping | threads |
//! |---|---|---|---|---|---|
//! | [`SerialEngine`] | fault-serial, pattern-parallel full re-evaluation | wide pattern words | 64 (default) / 256 / 512 via [`SerialOptions::lane_width`] | optional | 1 |
//! | [`SequentialEngine`] | 3-valued cycle-serial, fault-serial | none | n/a | yes | 1 |
//! | [`PpsfpEngine`] | cone-restricted event diff vs. compiled baseline | wide pattern words | auto (default) / 64 / 256 / 512 via [`PpsfpOptions::lane_width`] | optional | N |
//!
//! The two wide engines share [`dft_sim::LaneWidth`]: a wide block
//! `[u64; W]` carries `64 × W` pattern lanes through one levelized walk
//! (or one event propagation), and every width produces bit-identical
//! detection results — the knob trades per-op dispatch overhead against
//! wasted tail-lane work.
//!
//! The sequential engine interprets the pattern set as a cycle
//! *sequence* from an all-X start; on purely combinational netlists (no
//! storage) this coincides exactly with the combinational engines —
//! which is the common ground the cross-engine equivalence tests stand
//! on. On sequential netlists its detections are a conservative subset
//! (an X-masked output never counts as detected).

use dft_netlist::{LevelizeError, Netlist};
use dft_obs::Collector;
use dft_sim::{Logic, PatternSet};

use crate::serial::SerialOptions;
use crate::{
    ppsfp_observed, sequential_observed, simulate_observed, DetectionResult, Fault, PpsfpOptions,
};

/// A fault-simulation engine: patterns × faults → per-fault first
/// detection.
///
/// All implementations agree exactly on combinational netlists; see the
/// module docs for the sequential caveat.
///
/// [`FaultSimEngine::run_with`] is the one required method — the uniform
/// observed signature every engine in the workspace exposes. Each engine
/// opens a `fault_sim.<name>` span on the collector and flushes its
/// effort counters (`faults`, `patterns`, `detected`, plus per-engine
/// work counters) once per run; passing `None` costs nothing measurable.
pub trait FaultSimEngine {
    /// Short stable identifier (used in bench output and JSON records).
    fn name(&self) -> &'static str;

    /// Fault-simulates `faults` against `patterns`, feeding telemetry to
    /// an optional collector.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    fn run_with(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Result<DetectionResult, LevelizeError>;

    /// Fault-simulates `faults` against `patterns` (no telemetry).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    fn run(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> Result<DetectionResult, LevelizeError> {
        self.run_with(netlist, patterns, faults, None)
    }

    /// Indices of the faults `patterns` detects — the invariant quantity
    /// every engine must agree on.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    fn detected_set(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> Result<Vec<usize>, LevelizeError> {
        Ok(self
            .run(netlist, patterns, faults)?
            .first_detected
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_some().then_some(i))
            .collect())
    }
}

/// The pattern-parallel fault-serial reference engine ([`crate::simulate`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SerialEngine {
    /// Engine options (dropping on by default).
    pub options: SerialOptions,
}

impl FaultSimEngine for SerialEngine {
    fn name(&self) -> &'static str {
        if self.options.fault_dropping {
            "serial"
        } else {
            "serial_nodrop"
        }
    }

    fn run_with(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Result<DetectionResult, LevelizeError> {
        simulate_observed(netlist, patterns, faults, self.options, obs)
    }
}

/// Three-valued cycle-serial simulation ([`crate::sequential`]) applied to
/// the pattern set as a cycle sequence. Exact on combinational netlists.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialEngine;

impl FaultSimEngine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn run_with(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Result<DetectionResult, LevelizeError> {
        let sequence: Vec<Vec<Logic>> = patterns
            .iter()
            .map(|row| row.into_iter().map(Logic::from).collect())
            .collect();
        let d = sequential_observed(netlist, &sequence, faults, obs)?;
        Ok(DetectionResult {
            first_detected: d
                .first_detected
                .iter()
                .map(|o| o.map(|(cycle, _)| cycle))
                .collect(),
            pattern_count: patterns.len(),
        })
    }
}

/// The PPSFP engine ([`crate::ppsfp`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PpsfpEngine {
    /// Engine options (auto threads + dropping by default).
    pub options: PpsfpOptions,
}

impl FaultSimEngine for PpsfpEngine {
    fn name(&self) -> &'static str {
        "ppsfp"
    }

    fn run_with(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Result<DetectionResult, LevelizeError> {
        ppsfp_observed(netlist, patterns, faults, self.options, obs)
    }
}

/// The full engine roster, one instance of each of the three engines with
/// default options.
#[must_use]
pub fn engines() -> Vec<Box<dyn FaultSimEngine>> {
    vec![
        Box::new(SerialEngine::default()),
        Box::new(SequentialEngine),
        Box::new(PpsfpEngine::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use dft_netlist::circuits::c17;

    #[test]
    fn all_engines_agree_on_c17() {
        let n = c17();
        let faults = universe(&n);
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        let p = PatternSet::from_rows(5, &rows);
        let reference = SerialEngine::default()
            .detected_set(&n, &p, &faults)
            .unwrap();
        for eng in engines() {
            assert_eq!(
                eng.detected_set(&n, &p, &faults).unwrap(),
                reference,
                "{} disagrees",
                eng.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
    }
}
