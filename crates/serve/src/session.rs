//! One loaded design and its hot artifacts.
//!
//! A [`DesignSession`] owns the netlist (inside its
//! [`AnalysisCache`]) plus every expensive product the daemon can
//! reuse across requests: the lint report, the compiled simulation
//! [`Kernel`], the stuck-at universe with its implication-engine
//! [`Prefilter`], the latest fault-simulation figures and the latest
//! [`FaultDictionary`] (both keyed by their `(patterns, seed)` recipe).
//!
//! Every artifact has two access paths, mirroring the `RwLock` the
//! workspace wraps sessions in:
//!
//! * `try_*` / `*_ready` take `&self` and answer only from warm state —
//!   the concurrent read path. `None` means "cold, take the write
//!   lock".
//! * `ensure_*` / `run_*` take `&mut self`, build what is missing, and
//!   always answer — the single-writer path.
//!
//! ECO edits go through [`DesignSession::apply_eco`]: each edit runs
//! the incremental [`AnalysisCache::apply`] path (cycle check,
//! incremental re-levelization, per-analysis dirty seeds) and
//! invalidates exactly the artifacts whose inputs changed. The session
//! never rebuilds a netlist from scratch after load.

use std::sync::Arc;

use dft_analyze::{AnalysisCache, NetlistDelta, INFINITE};
use dft_atpg::{GenOutcome, Podem, PodemConfig};
use dft_fault::{prefilter_untestable, universe, Fault, FaultDictionary, Ppsfp, Prefilter};
use dft_lint::{lint, LintReport, Severity};
use dft_netlist::{GateId, LevelizeError, Netlist, PortRef};
use dft_sim::{Kernel, PatternSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::api::{parse_gate_kind, DesignInfo, EcoEdit, PodemOutcome, ScoapSummary};

/// The `(patterns, seed)` recipe a simulation product was built from.
type SimKey = (usize, u64);

/// Fault-simulation figures: `(universe size, detected, coverage)`.
pub type FaultSimFigures = (usize, usize, f64);

/// Dictionary figures: `(universe size, patterns, resolution)`.
pub type DictionaryFigures = (usize, usize, f64);

/// The outcome of one PODEM query.
#[derive(Clone, Debug, PartialEq)]
pub struct PodemRun {
    /// Display form of the fault (`g8.in1 s-a-0`).
    pub fault: String,
    /// Verdict.
    pub outcome: PodemOutcome,
    /// Search backtracks (0 when prefiltered).
    pub backtracks: u64,
    /// The implication prefilter answered without any search.
    pub prefiltered: bool,
    /// Test cube over the primary inputs (`01X`), if a test exists.
    pub cube: Option<String>,
    /// Expected good-machine primary-output response under the cube
    /// (don't-cares filled with 0), evaluated on the cached kernel.
    pub response: Option<String>,
}

/// The outcome of one ECO batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcoOutcome {
    /// Edits applied (each bumped the revision by one).
    pub applied: usize,
    /// Messages for rejected edits, batch order.
    pub rejected: Vec<String>,
}

/// One loaded design with its cached analysis artifacts.
#[derive(Debug)]
pub struct DesignSession {
    key: String,
    revision: u64,
    cache: AnalysisCache,
    lint: Option<(LintReport, Arc<dft_json::Value>)>,
    kernel: Option<Kernel>,
    faults: Option<Vec<Fault>>,
    prefilter: Option<Prefilter>,
    fault_sim: Vec<(SimKey, FaultSimFigures)>,
    dictionary: Option<(SimKey, FaultDictionary, DictionaryFigures)>,
}

/// Fault-sim figures are three numbers, so the session keeps every
/// recent `(patterns, seed)` recipe warm instead of a single slot —
/// mixed-recipe client traffic would otherwise thrash re-simulation.
/// Dictionaries stay single-slot: they hold the full syndrome table.
const FAULT_SIM_SLOTS: usize = 16;

/// FNV-1a 64 over the design name and its canonical `.bench` text —
/// the content key sessions are filed under.
#[must_use]
pub fn content_key(netlist: &Netlist) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(netlist.name().as_bytes());
    eat(&[0]);
    eat(dft_netlist::bench_format::write(netlist).as_bytes());
    format!("{h:016x}")
}

impl DesignSession {
    /// A fresh session over `netlist` at revision 0. Nothing is
    /// analyzed until first requested.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the combinational frame is cyclic.
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        Ok(DesignSession {
            key: content_key(netlist),
            revision: 0,
            cache: AnalysisCache::new(netlist)?,
            lint: None,
            kernel: None,
            faults: None,
            prefilter: None,
            fault_sim: Vec::new(),
            dictionary: None,
        })
    }

    /// The content key assigned at load (stable across ECO edits).
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.cache.netlist().name()
    }

    /// Edit revision: 0 at load, +1 per applied ECO edit.
    #[must_use]
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The current netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.cache.netlist()
    }

    /// Identity and shape for the `designs`/`load` responses.
    #[must_use]
    pub fn info(&self) -> DesignInfo {
        let n = self.netlist();
        DesignInfo {
            key: self.key.clone(),
            design: n.name().to_owned(),
            gates: n.gate_count(),
            inputs: n.primary_inputs().len(),
            outputs: n.primary_outputs().len(),
            revision: self.revision,
        }
    }

    // ------------------------------------------------------------------
    // Read path (&self): answer only from warm artifacts
    // ------------------------------------------------------------------

    /// The lint report and its parsed JSON document, if warm. The
    /// document is shared so concurrent readers hand it to responses
    /// without re-rendering the (potentially multi-megabyte) report.
    #[must_use]
    pub fn lint_ready(&self) -> Option<(&LintReport, &Arc<dft_json::Value>)> {
        self.lint.as_ref().map(|(report, doc)| (report, doc))
    }

    /// The SCOAP summary, if the cache's SCOAP pass is warm and exact.
    #[must_use]
    pub fn try_scoap_summary(&self) -> Option<ScoapSummary> {
        let scoap = self.cache.scoap_ready()?;
        Some(summarize_scoap(self.netlist(), |id| {
            (
                scoap.cc0(id),
                scoap.cc1(id),
                scoap.co(id),
                scoap.difficulty(id),
            )
        }))
    }

    /// Fault-simulation figures, if this exact `(patterns, seed)` run
    /// is among the warm recipes.
    #[must_use]
    pub fn try_fault_sim(&self, patterns: usize, seed: u64) -> Option<FaultSimFigures> {
        self.fault_sim
            .iter()
            .find(|(key, _)| *key == (patterns, seed))
            .map(|(_, figures)| *figures)
    }

    /// Dictionary figures, if this exact `(patterns, seed)` dictionary
    /// is the one in the slot. The figures are computed once at build
    /// time — `FaultDictionary::resolution` walks the whole syndrome
    /// table, far too slow to recompute per request.
    #[must_use]
    pub fn try_dictionary(&self, patterns: usize, seed: u64) -> Option<DictionaryFigures> {
        match &self.dictionary {
            Some((key, _, figures)) if *key == (patterns, seed) => Some(*figures),
            _ => None,
        }
    }

    /// Runs PODEM for one fault using only warm support artifacts
    /// (universe + prefilter + kernel). `None` means cold — retry on
    /// the write path after [`DesignSession::warm_podem_support`].
    ///
    /// # Errors
    ///
    /// `Some(Err)` when the fault site does not exist.
    #[must_use]
    pub fn try_podem(
        &self,
        gate: usize,
        pin: Option<u32>,
        stuck: bool,
    ) -> Option<Result<PodemRun, String>> {
        let faults = self.faults.as_ref()?;
        let prefilter = self.prefilter.as_ref()?;
        let kernel = self.kernel.as_ref()?;
        Some(self.podem_with(faults, prefilter, kernel, gate, pin, stuck))
    }

    /// Whether the PODEM support artifacts are all warm.
    #[must_use]
    pub fn podem_support_ready(&self) -> bool {
        self.faults.is_some() && self.prefilter.is_some() && self.kernel.is_some()
    }

    // ------------------------------------------------------------------
    // Write path (&mut self): build on demand, then answer
    // ------------------------------------------------------------------

    /// The lint report (with its parsed document), built if cold.
    /// Returns `(report, document, was_built)`.
    pub fn ensure_lint(&mut self) -> (&LintReport, &Arc<dft_json::Value>, bool) {
        let built = self.lint.is_none();
        if built {
            let report = lint(self.netlist());
            let doc =
                dft_json::parse(&report.to_json()).expect("LintReport::to_json emits valid JSON");
            self.lint = Some((report, Arc::new(doc)));
        }
        let (report, doc) = self.lint.as_ref().expect("just ensured");
        (report, doc, built)
    }

    /// The SCOAP summary, refreshing the cache incrementally if stale.
    /// Returns `(summary, was_refreshed)`.
    pub fn scoap_summary(&mut self) -> (ScoapSummary, bool) {
        let refreshed = self.cache.scoap_ready().is_none();
        if refreshed {
            let _ = self.cache.scoap();
        }
        let summary = self.try_scoap_summary().expect("scoap just ensured clean");
        (summary, refreshed)
    }

    /// Fault-simulates the full universe under `patterns` seeded random
    /// vectors, filling the slot. Returns `(figures, was_computed)`.
    pub fn run_fault_sim(&mut self, patterns: usize, seed: u64) -> (FaultSimFigures, bool) {
        if let Some(figures) = self.try_fault_sim(patterns, seed) {
            return (figures, false);
        }
        self.ensure_faults();
        let netlist = self.cache.netlist();
        let faults = self.faults.as_ref().expect("just ensured");
        let set = random_patterns(netlist, patterns, seed);
        let result = Ppsfp::new(netlist)
            .expect("session frame is acyclic by invariant")
            .run(&set, faults);
        let figures = (faults.len(), result.detected_count(), result.coverage());
        if self.fault_sim.len() >= FAULT_SIM_SLOTS {
            self.fault_sim.remove(0);
        }
        self.fault_sim.push(((patterns, seed), figures));
        (figures, true)
    }

    /// Builds (or reuses) the fault dictionary for `(patterns, seed)`.
    /// Returns `(figures, was_built)`.
    pub fn run_dictionary(&mut self, patterns: usize, seed: u64) -> (DictionaryFigures, bool) {
        if let Some(figures) = self.try_dictionary(patterns, seed) {
            return (figures, false);
        }
        self.ensure_faults();
        let netlist = self.cache.netlist();
        let faults = self.faults.as_ref().expect("just ensured");
        let set = random_patterns(netlist, patterns, seed);
        let dict = FaultDictionary::build(netlist, &set, faults)
            .expect("session frame is acyclic by invariant");
        let figures = (dict.faults().len(), dict.pattern_count(), dict.resolution());
        self.dictionary = Some(((patterns, seed), dict, figures));
        (figures, true)
    }

    /// Warms the PODEM support artifacts (universe, prefilter, kernel).
    /// Returns `true` if anything had to be built.
    pub fn warm_podem_support(&mut self) -> bool {
        let mut built = self.ensure_faults();
        if self.prefilter.is_none() {
            let netlist = self.cache.netlist();
            let faults = self.faults.as_ref().expect("just ensured");
            self.prefilter = Some(prefilter_untestable(netlist, faults));
            built = true;
        }
        if self.kernel.is_none() {
            self.kernel = Some(
                Kernel::new(self.cache.netlist()).expect("session frame is acyclic by invariant"),
            );
            built = true;
        }
        built
    }

    /// Applies an ECO batch through the incremental cache path. Each
    /// applied edit bumps the revision; rejected edits leave the design
    /// untouched and produce a message.
    pub fn apply_eco(&mut self, edits: &[EcoEdit]) -> EcoOutcome {
        let mut applied = 0;
        let mut rejected = Vec::new();
        for (i, edit) in edits.iter().enumerate() {
            match self.to_delta(edit) {
                Ok(delta) => match self.cache.apply(&delta) {
                    Ok(_) => {
                        applied += 1;
                        self.revision += 1;
                    }
                    Err(e) => rejected.push(format!("edit {i}: {e}")),
                },
                Err(msg) => rejected.push(format!("edit {i}: {msg}")),
            }
        }
        if applied > 0 {
            // The netlist changed: every structural artifact is stale.
            // (The AnalysisCache re-solved its own products incrementally
            // inside `apply`; these are the whole-netlist ones.)
            self.lint = None;
            self.kernel = None;
            self.faults = None;
            self.prefilter = None;
            self.fault_sim.clear();
            self.dictionary = None;
        }
        EcoOutcome { applied, rejected }
    }

    /// Lint severity counts `(errors, warnings, infos)` of a report.
    #[must_use]
    pub fn severity_counts(report: &LintReport) -> (usize, usize, usize) {
        (
            report.count(Severity::Error),
            report.count(Severity::Warning),
            report.count(Severity::Info),
        )
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Ensures the stuck-at universe; `true` if it was built now.
    fn ensure_faults(&mut self) -> bool {
        if self.faults.is_none() {
            self.faults = Some(universe(self.cache.netlist()));
            true
        } else {
            false
        }
    }

    fn to_delta(&self, edit: &EcoEdit) -> Result<NetlistDelta, String> {
        let n = self.netlist().gate_count();
        let check = |g: usize| -> Result<GateId, String> {
            if g < n {
                Ok(GateId::from_index(g))
            } else {
                Err(format!("gate {g} out of range (netlist has {n} gates)"))
            }
        };
        let kindof =
            |name: &str| parse_gate_kind(name).ok_or_else(|| format!("unknown gate kind '{name}'"));
        Ok(match edit {
            EcoEdit::AddGate { kind, inputs } => NetlistDelta::AddGate {
                kind: kindof(kind)?,
                inputs: inputs.iter().map(|&i| check(i)).collect::<Result<_, _>>()?,
            },
            EcoEdit::RemoveGate { gate, value } => NetlistDelta::RemoveGate {
                gate: check(*gate)?,
                value: *value,
            },
            EcoEdit::Rewire { gate, pin, new_src } => NetlistDelta::Rewire {
                gate: check(*gate)?,
                pin: *pin,
                new_src: check(*new_src)?,
            },
            EcoEdit::ReplaceGate { gate, kind, inputs } => NetlistDelta::ReplaceGate {
                gate: check(*gate)?,
                kind: kindof(kind)?,
                inputs: inputs.iter().map(|&i| check(i)).collect::<Result<_, _>>()?,
            },
        })
    }

    fn podem_with(
        &self,
        faults: &[Fault],
        prefilter: &Prefilter,
        kernel: &Kernel,
        gate: usize,
        pin: Option<u32>,
        stuck: bool,
    ) -> Result<PodemRun, String> {
        let netlist = self.netlist();
        if gate >= netlist.gate_count() {
            return Err(format!(
                "gate {gate} out of range (netlist has {} gates)",
                netlist.gate_count()
            ));
        }
        let id = GateId::from_index(gate);
        let site = match pin {
            None => PortRef::output(id),
            Some(p) => {
                let fanin = netlist.gate(id).fanin();
                let p8 = u8::try_from(p).ok().filter(|&p8| usize::from(p8) < fanin);
                match p8 {
                    Some(p8) => PortRef::input(id, p8),
                    None => {
                        return Err(format!(
                            "pin {p} out of range (gate {gate} has {fanin} inputs)"
                        ))
                    }
                }
            }
        };
        let fault = Fault { site, stuck };
        let display = fault.to_string();

        // The implication prefilter answers redundancy proofs with zero
        // search — the hot path the stats' `podem.prefiltered` counts.
        if let Some(idx) = faults.iter().position(|f| *f == fault) {
            if prefilter.is_untestable(idx) {
                return Ok(PodemRun {
                    fault: display,
                    outcome: PodemOutcome::Untestable,
                    backtracks: 0,
                    prefiltered: true,
                    cube: None,
                    response: None,
                });
            }
        }

        let podem = Podem::new(netlist, PodemConfig::default())
            .expect("session frame is acyclic by invariant");
        let (outcome, stats) = podem.solve(fault);
        let (verdict, cube, response) = match &outcome {
            GenOutcome::Test(cube) => {
                let text: String = cube
                    .assignment
                    .iter()
                    .map(|v| match v.to_bool() {
                        Some(false) => '0',
                        Some(true) => '1',
                        None => 'X',
                    })
                    .collect();
                let resp = good_response(netlist, kernel, &cube.filled(false));
                (PodemOutcome::Test, Some(text), Some(resp))
            }
            GenOutcome::Untestable => (PodemOutcome::Untestable, None, None),
            GenOutcome::Aborted => (PodemOutcome::Aborted, None, None),
        };
        Ok(PodemRun {
            fault: display,
            outcome: verdict,
            backtracks: u64::from(stats.backtracks),
            prefiltered: false,
            cube,
            response,
        })
    }
}

/// Seeded random pattern set in the daemon's canonical recipe (shared
/// with `tessera-bench`: `StdRng::seed_from_u64`).
fn random_patterns(netlist: &Netlist, patterns: usize, seed: u64) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    PatternSet::random(netlist.primary_inputs().len(), patterns, &mut rng)
}

/// Expected primary-output values for one input row, via the compiled
/// kernel (storage held at 0, the combinational convention).
fn good_response(netlist: &Netlist, kernel: &Kernel, row: &[bool]) -> String {
    let pi_words: Vec<u64> = row.iter().map(|&b| u64::from(b)).collect();
    let vals = kernel.eval_block(&pi_words, &vec![0; kernel.storage_slots().len()]);
    netlist
        .primary_outputs()
        .iter()
        .map(|(id, _)| if vals[id.index()] & 1 != 0 { '1' } else { '0' })
        .collect()
}

fn summarize_scoap(
    netlist: &Netlist,
    measure: impl Fn(GateId) -> (u32, u32, u32, u32),
) -> ScoapSummary {
    let mut max_cc0 = 0;
    let mut max_cc1 = 0;
    let mut max_co = 0;
    let mut sum = 0.0;
    let mut count = 0usize;
    let mut ranked: Vec<(u32, usize)> = Vec::with_capacity(netlist.gate_count());
    for (id, _) in netlist.iter() {
        let (cc0, cc1, co, difficulty) = measure(id);
        if cc0 < INFINITE {
            max_cc0 = max_cc0.max(cc0);
        }
        if cc1 < INFINITE {
            max_cc1 = max_cc1.max(cc1);
        }
        if co < INFINITE {
            max_co = max_co.max(co);
        }
        sum += f64::from(difficulty);
        count += 1;
        ranked.push((difficulty, id.index()));
    }
    // Worst first; ties broken by gate index for determinism.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hardest = ranked
        .iter()
        .take(5)
        .map(|&(difficulty, idx)| {
            let gate = netlist.gate(GateId::from_index(idx));
            let name = gate.name().map_or_else(|| format!("g{idx}"), str::to_owned);
            (name, difficulty)
        })
        .collect();
    ScoapSummary {
        max_cc0,
        max_cc1,
        max_co,
        #[allow(clippy::cast_precision_loss)]
        mean_difficulty: if count == 0 { 0.0 } else { sum / count as f64 },
        hardest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits;

    #[test]
    fn artifacts_warm_and_invalidate() {
        let mut s = DesignSession::new(&circuits::c17()).unwrap();
        assert_eq!(s.revision(), 0);
        assert!(s.lint_ready().is_none());
        assert!(s.try_scoap_summary().is_none());

        let (_, _, built) = s.ensure_lint();
        assert!(built);
        let (_, _, built_again) = s.ensure_lint();
        assert!(!built_again);
        assert!(s.lint_ready().is_some());

        let (summary, refreshed) = s.scoap_summary();
        assert!(refreshed);
        assert!(summary.max_co > 0);
        assert!(s.try_scoap_summary().is_some());

        let ((faults, detected, coverage), computed) = s.run_fault_sim(64, 7);
        assert!(computed);
        assert!(faults > 0 && detected <= faults && coverage <= 1.0);
        assert_eq!(s.try_fault_sim(64, 7), Some((faults, detected, coverage)));
        assert_eq!(s.try_fault_sim(64, 8), None);

        // An applied ECO invalidates everything and bumps the revision.
        let outcome = s.apply_eco(&[EcoEdit::AddGate {
            kind: "nand".into(),
            inputs: vec![0, 1],
        }]);
        assert_eq!(outcome.applied, 1);
        assert!(outcome.rejected.is_empty());
        assert_eq!(s.revision(), 1);
        assert!(s.lint_ready().is_none());
        assert!(s.try_scoap_summary().is_none());
        assert!(s.try_fault_sim(64, 7).is_none());
    }

    #[test]
    fn rejected_edits_leave_the_design_untouched() {
        let mut s = DesignSession::new(&circuits::c17()).unwrap();
        let gates = s.netlist().gate_count();
        let outcome = s.apply_eco(&[
            EcoEdit::RemoveGate {
                gate: 999,
                value: false,
            },
            EcoEdit::AddGate {
                kind: "frob".into(),
                inputs: vec![0],
            },
        ]);
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.rejected.len(), 2);
        assert!(outcome.rejected[0].contains("out of range"));
        assert!(outcome.rejected[1].contains("unknown gate kind"));
        assert_eq!(s.revision(), 0);
        assert_eq!(s.netlist().gate_count(), gates);
    }

    #[test]
    fn podem_runs_on_warm_support() {
        let mut s = DesignSession::new(&circuits::c17()).unwrap();
        assert!(s.try_podem(8, None, false).is_none());
        assert!(s.warm_podem_support());
        assert!(!s.warm_podem_support());
        let run = s.try_podem(8, None, false).unwrap().unwrap();
        assert_eq!(run.outcome, PodemOutcome::Test);
        let cube = run.cube.expect("test found");
        assert_eq!(cube.len(), s.netlist().primary_inputs().len());
        let resp = run.response.expect("response computed");
        assert_eq!(resp.len(), s.netlist().primary_outputs().len());
        // Bad sites are structured errors, not panics.
        assert!(s.try_podem(9999, None, true).unwrap().is_err());
        assert!(s.try_podem(8, Some(77), true).unwrap().is_err());
    }

    #[test]
    fn dictionary_slot_keyed_by_recipe() {
        let mut s = DesignSession::new(&circuits::c17()).unwrap();
        let ((faults, patterns, resolution), built) = s.run_dictionary(32, 3);
        assert!(built);
        assert_eq!(patterns, 32);
        assert!(faults > 0);
        assert!((0.0..=1.0).contains(&resolution));
        let (_, rebuilt) = s.run_dictionary(32, 3);
        assert!(!rebuilt);
        assert_eq!(
            s.try_dictionary(32, 3),
            Some((faults, patterns, resolution))
        );
        assert!(s.try_dictionary(16, 3).is_none());
    }

    #[test]
    fn content_keys_separate_designs_not_revisions() {
        let a = DesignSession::new(&circuits::c17()).unwrap();
        let b = DesignSession::new(&circuits::full_adder()).unwrap();
        assert_ne!(a.key(), b.key());
        let mut c = DesignSession::new(&circuits::c17()).unwrap();
        let key = c.key().to_owned();
        c.apply_eco(&[EcoEdit::AddGate {
            kind: "buf".into(),
            inputs: vec![0],
        }]);
        assert_eq!(c.key(), key, "the key is a handle, not a state hash");
    }
}
