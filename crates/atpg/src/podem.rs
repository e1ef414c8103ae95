//! PODEM: path-oriented decision making over primary-input assignments.

use std::sync::OnceLock;

use dft_fault::Fault;
use dft_implic::{ImplicOptions, ImplicationEngine};
use dft_netlist::{GateId, GateKind, Levelization, LevelizeError, Netlist, Pin, PortRef};
use dft_obs::{Collector, Obs};
use dft_sim::Logic;
use dft_testability::{analyze, TestabilityReport};

use crate::DVal;

/// A (possibly partial) test pattern: one value per primary input, `X`
/// meaning "don't care" (free for compaction or random fill).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCube {
    /// Per-primary-input assignment, in netlist input order.
    pub assignment: Vec<Logic>,
}

impl TestCube {
    /// Fills don't-cares with `fill` and returns a concrete pattern row.
    #[must_use]
    pub fn filled(&self, fill: bool) -> Vec<bool> {
        self.assignment
            .iter()
            .map(|v| v.to_bool().unwrap_or(fill))
            .collect()
    }

    /// Number of assigned (care) bits.
    #[must_use]
    pub fn care_count(&self) -> usize {
        self.assignment.iter().filter(|v| v.is_known()).count()
    }

    /// Whether two cubes can merge (no opposing care bits).
    #[must_use]
    pub fn compatible(&self, other: &TestCube) -> bool {
        self.assignment
            .iter()
            .zip(&other.assignment)
            .all(|(&a, &b)| match (a.to_bool(), b.to_bool()) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// The merge of two compatible cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cubes are not [`TestCube::compatible`].
    #[must_use]
    pub fn merged(&self, other: &TestCube) -> TestCube {
        assert!(self.compatible(other), "merging incompatible cubes");
        TestCube {
            assignment: self
                .assignment
                .iter()
                .zip(&other.assignment)
                .map(|(&a, &b)| if a.is_known() { a } else { b })
                .collect(),
        }
    }
}

/// The outcome of one deterministic test-generation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOutcome {
    /// A test cube was found (verified by construction: the fault effect
    /// reaches a primary output under this cube).
    Test(TestCube),
    /// The fault is provably untestable (redundant) — the search space
    /// was exhausted.
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

impl GenOutcome {
    /// The cube, if a test was found.
    #[must_use]
    pub fn cube(&self) -> Option<&TestCube> {
        match self {
            GenOutcome::Test(c) => Some(c),
            _ => None,
        }
    }
}

/// Tuning knobs for [`podem`]/[`Podem`].
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct PodemConfig {
    /// Abort the search after this many backtracks.
    pub backtrack_limit: u32,
    /// Consult a static implication engine (`dft-implic`): faults it
    /// proves untestable return `Untestable` with zero search, and its
    /// implication store prunes assignments that contradict a necessary
    /// condition of detection (see `SolveStats::implication_conflicts`).
    pub use_implications: bool,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 10_000,
            use_implications: true,
        }
    }
}

impl PodemConfig {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        PodemConfig::default()
    }

    /// Sets [`PodemConfig::backtrack_limit`].
    #[must_use]
    pub fn with_backtrack_limit(mut self, backtrack_limit: u32) -> Self {
        self.backtrack_limit = backtrack_limit;
        self
    }

    /// Sets [`PodemConfig::use_implications`].
    #[must_use]
    pub fn with_use_implications(mut self, use_implications: bool) -> Self {
        self.use_implications = use_implications;
        self
    }
}

/// Search-effort counters for one [`Podem::solve`] call — the raw data
/// behind the paper's Eq. (1) runtime-scaling experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Decisions reverted.
    pub backtracks: u32,
    /// Implication passes performed, one per search step: the first is a
    /// full forward pass, every later one propagates events only from the
    /// primary inputs whose assignment changed since the previous step.
    pub forward_evals: u64,
    /// Dead ends called by the static implication store before the
    /// search had to discover them (each one prunes a whole subtree).
    pub implication_conflicts: u32,
}

/// A necessity closure: `(net index, good value)` pairs.
type Necessity = Box<[(u32, bool)]>;

/// Marks a gate that is not a primary input in [`Podem`]'s `pi_index`.
const NOT_A_PI: u32 = u32::MAX;

/// A reusable PODEM solver for one netlist (levelization and testability
/// guidance are computed once).
///
/// The netlist is compiled into flat CSR fan-in/fan-out arrays so that a
/// search step costs work proportional to what changed: after one full
/// pass per solve, implication propagates events from the primary inputs
/// whose assignment changed, in levelized order, and allocates nothing.
#[derive(Debug)]
pub struct Podem<'n> {
    netlist: &'n Netlist,
    /// Gate kinds, by gate index.
    kind: Vec<GateKind>,
    /// Fan-in CSR: gate `g` reads `fanin[fanin_off[g]..fanin_off[g + 1]]`.
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    /// Combinational fan-out CSR (storage readers dropped: a flip-flop's
    /// value never depends on its data input in the test view), one
    /// entry per reading pin.
    reader_off: Vec<u32>,
    readers: Vec<u32>,
    levels: Levelization,
    /// Gates placed in the levelized order before a constant or flip-flop
    /// they read: the first full pass sees that source still unset, so
    /// the second pass re-evaluates them.
    late_readers: Vec<u32>,
    report: TestabilityReport,
    /// Primary-input index by gate index, [`NOT_A_PI`] elsewhere.
    pi_index: Vec<u32>,
    is_po: Vec<bool>,
    config: PodemConfig,
    implic: Option<ImplicationEngine<'n>>,
    /// Static implication closure per activation literal
    /// (`2 * net + value`), filled on first use and shared by every
    /// fault — and every worker thread — that activates it.
    necessity: Vec<OnceLock<Necessity>>,
}

/// Per-solve mutable state, sized once per solve and reused by every
/// search step.
struct Scratch {
    vals: Vec<DVal>,
    /// Input tallies of the logic gates (not maintained at fault sites).
    tally: Vec<Tally>,
    /// Primary inputs whose assignment changed since the last pass.
    changed: Vec<usize>,
    /// Pending gate evaluations, bucketed by logic level; levels
    /// `lo..=hi` may be non-empty.
    events: Vec<Vec<u32>>,
    lo: usize,
    hi: usize,
    queued: Vec<bool>,
    /// Gates in the fan-out cone of the fault sites, in gate-id order:
    /// only they can ever carry a fault effect.
    cone: Vec<u32>,
    /// Epoch-stamped visited marks for the X-path walks.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Scratch {
    fn new(gates: usize, depth: u32) -> Self {
        Scratch {
            vals: vec![DVal::X; gates],
            tally: vec![Tally::default(); gates],
            changed: Vec::new(),
            events: vec![Vec::new(); depth as usize + 1],
            lo: usize::MAX,
            hi: 0,
            queued: vec![false; gates],
            cone: Vec::new(),
            seen: vec![0; gates],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Starts a new visited set.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.seen.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// A logic gate's inputs, counted per machine: how many sit at the
/// gate's *hot* value (the controlling value of the AND/OR family, 1 for
/// the parity family and single-input gates) and how many are X. The
/// output follows from the counts alone, so an input event updates a
/// reader in O(1) however wide it is. Fan-in never exceeds
/// [`MAX_FANIN`](dft_netlist::MAX_FANIN), so `u16` counts suffice.
#[derive(Clone, Copy, Debug, Default)]
struct Tally {
    good_hot: u16,
    good_x: u16,
    faulty_hot: u16,
    faulty_x: u16,
}

impl Tally {
    /// The value a gate of `kind` counts.
    fn hot(kind: GateKind) -> Logic {
        if matches!(kind, GateKind::And | GateKind::Nand) {
            Logic::Zero
        } else {
            Logic::One
        }
    }

    fn add(&mut self, hot: Logic, v: DVal) {
        self.good_hot += u16::from(v.good == hot);
        self.good_x += u16::from(v.good == Logic::X);
        self.faulty_hot += u16::from(v.faulty == hot);
        self.faulty_x += u16::from(v.faulty == Logic::X);
    }

    fn remove(&mut self, hot: Logic, v: DVal) {
        self.good_hot -= u16::from(v.good == hot);
        self.good_x -= u16::from(v.good == Logic::X);
        self.faulty_hot -= u16::from(v.faulty == hot);
        self.faulty_x -= u16::from(v.faulty == Logic::X);
    }

    /// The gate's output in both machines.
    fn value(self, kind: GateKind) -> DVal {
        DVal {
            good: Tally::output(kind, self.good_hot, self.good_x),
            faulty: Tally::output(kind, self.faulty_hot, self.faulty_x),
        }
    }

    /// Three-valued output of `kind` with `hot` inputs at its hot value
    /// and `x` unknown.
    fn output(kind: GateKind, hot: u16, x: u16) -> Logic {
        let v = match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = kind.controlling_value().expect("AND/OR family");
                if hot > 0 {
                    Logic::from(c)
                } else if x > 0 {
                    Logic::X
                } else {
                    Logic::from(!c)
                }
            }
            _ if x > 0 => Logic::X,
            _ => Logic::from(hot % 2 == 1),
        };
        if kind.inverts() {
            !v
        } else {
            v
        }
    }
}

impl<'n> Podem<'n> {
    /// Compiles a solver.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist, config: PodemConfig) -> Result<Self, LevelizeError> {
        Podem::new_observed(netlist, config, None)
    }

    /// [`Podem::new`] feeding telemetry to an optional collector: when
    /// implications are enabled, the embedded [`ImplicationEngine`]
    /// build reports its `implic.learn` span through `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new_observed(
        netlist: &'n Netlist,
        config: PodemConfig,
        obs: Option<&mut dyn Collector>,
    ) -> Result<Self, LevelizeError> {
        let mut obs = Obs::new(obs);
        let lv = netlist.levelize()?;
        let report = analyze(netlist)?;
        let gates = netlist.gate_count();

        // One pass for kinds, the fan-in CSR and per-net reader counts.
        let mut kind = Vec::with_capacity(gates);
        let mut fanin_off = Vec::with_capacity(gates + 1);
        let mut fanin = Vec::new();
        let mut reader_off = vec![0u32; gates + 1];
        fanin_off.push(0);
        for (_, g) in netlist.iter() {
            kind.push(g.kind());
            fanin.extend(g.inputs().iter().map(|&s| index_u32(s)));
            fanin_off.push(u32::try_from(fanin.len()).expect("edge count fits u32"));
            if !g.kind().is_storage() {
                for &s in g.inputs() {
                    reader_off[s.index() + 1] += 1;
                }
            }
        }
        for i in 0..gates {
            reader_off[i + 1] += reader_off[i];
        }
        let mut fill = reader_off.clone();
        let mut readers = vec![0u32; reader_off[gates] as usize];
        for r in (0..gates).filter(|&r| !kind[r].is_storage()) {
            for &s in &fanin[fanin_off[r] as usize..fanin_off[r + 1] as usize] {
                let slot = &mut fill[s as usize];
                readers[*slot as usize] = u32::try_from(r).expect("gate index fits u32");
                *slot += 1;
            }
        }

        // A logic gate whose constant or flip-flop driver comes later in
        // the order reads that driver unset on the first pass.
        let mut placed = vec![false; gates];
        let mut late_readers = Vec::new();
        for &id in lv.order() {
            let g = id.index();
            placed[g] = true;
            let ins = &fanin[fanin_off[g] as usize..fanin_off[g + 1] as usize];
            if !kind[g].is_source()
                && ins.iter().any(|&s| {
                    kind[s as usize].is_source()
                        && kind[s as usize] != GateKind::Input
                        && !placed[s as usize]
                })
            {
                late_readers.push(index_u32(id));
            }
        }

        let mut pi_index = vec![NOT_A_PI; gates];
        for (i, &g) in netlist.primary_inputs().iter().enumerate() {
            pi_index[g.index()] = u32::try_from(i).expect("input count fits u32");
        }
        let mut is_po = vec![false; gates];
        for &(g, _) in netlist.primary_outputs() {
            is_po[g.index()] = true;
        }
        let implic = config.use_implications.then(|| {
            ImplicationEngine::with_options_observed(
                netlist,
                ImplicOptions::default(),
                obs.as_option(),
            )
        });
        let literals = if implic.is_some() { 2 * gates } else { 0 };
        Ok(Podem {
            netlist,
            kind,
            fanin_off,
            fanin,
            reader_off,
            readers,
            levels: lv,
            late_readers,
            report,
            pi_index,
            is_po,
            config,
            implic,
            necessity: (0..literals).map(|_| OnceLock::new()).collect(),
        })
    }

    fn fanin(&self, g: usize) -> &[u32] {
        &self.fanin[self.fanin_off[g] as usize..self.fanin_off[g + 1] as usize]
    }

    fn readers(&self, g: usize) -> &[u32] {
        &self.readers[self.reader_off[g] as usize..self.reader_off[g + 1] as usize]
    }

    /// Necessary conditions of detection for a single-site fault, as
    /// `(net index, good value)` pairs: the excitation literal's static
    /// implication closure. Any partial assignment whose good-machine
    /// value contradicts one of them cannot be completed into a test.
    /// Returns an empty list when the fault is multi-site or the engine
    /// is disabled, and `Err(())` when the engine statically proves the
    /// fault untestable outright.
    #[allow(clippy::result_unit_err)]
    fn necessity(&self, sites: &[Fault]) -> Result<&[(u32, bool)], ()> {
        let (Some(engine), [f]) = (&self.implic, sites) else {
            return Ok(&[]);
        };
        // The verdict leaves the excitation literal's closure in the
        // scratch; the necessity list is read off that same closure.
        let mut scratch = engine.scratch();
        if scratch
            .fault_untestable(f.site.gate, f.site.pin, f.stuck)
            .is_some()
        {
            return Err(());
        }
        let activation = self.activation(*f);
        let literal = 2 * activation.index() + usize::from(!f.stuck);
        Ok(self.necessity[literal].get_or_init(|| {
            scratch
                .assume(activation, !f.stuck)
                .expect("an excitable fault's literal is consistent")
                .implied()
                .map(|l| (index_u32(l.net), l.value))
                .collect()
        }))
    }

    /// Attempts to generate a test for `fault`.
    #[must_use]
    pub fn solve(&self, fault: Fault) -> (GenOutcome, SolveStats) {
        self.solve_any_of(&[fault])
    }

    /// [`Podem::solve`] feeding telemetry to an optional collector.
    #[must_use]
    pub fn solve_with(
        &self,
        fault: Fault,
        obs: Option<&mut dyn Collector>,
    ) -> (GenOutcome, SolveStats) {
        self.solve_any_of_with(&[fault], obs)
    }

    /// Attempts to generate a test for a fault present at *several* sites
    /// simultaneously (one logical defect with multiple copies — the
    /// time-frame-expansion case, where the same physical fault appears
    /// in every unrolled frame). All sites are stuck in the faulty
    /// machine; a test excites at least one and drives the effect to an
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn solve_any_of(&self, sites: &[Fault]) -> (GenOutcome, SolveStats) {
        self.solve_any_of_with(sites, None)
    }

    /// [`Podem::solve_any_of`] feeding telemetry to an optional
    /// collector.
    ///
    /// Opens an `atpg.podem` span per attempt and flushes the
    /// [`SolveStats`] counters (`backtracks`, `forward_evals`,
    /// `implication_conflicts`) plus one of `tests`/`untestable`/
    /// `aborted` for the outcome; the returned stats are unchanged, so
    /// the legacy view and the collector always agree.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn solve_any_of_with(
        &self,
        sites: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> (GenOutcome, SolveStats) {
        let mut obs = Obs::new(obs);
        obs.enter("atpg.podem");
        let (outcome, stats) = self.search(sites);
        obs.count("attempts", 1);
        obs.count("backtracks", u64::from(stats.backtracks));
        obs.count("forward_evals", stats.forward_evals);
        obs.count(
            "implication_conflicts",
            u64::from(stats.implication_conflicts),
        );
        obs.count(
            match outcome {
                GenOutcome::Test(_) => "tests",
                GenOutcome::Untestable => "untestable",
                GenOutcome::Aborted => "aborted",
            },
            1,
        );
        obs.exit();
        (outcome, stats)
    }

    fn search(&self, sites: &[Fault]) -> (GenOutcome, SolveStats) {
        assert!(!sites.is_empty(), "need at least one fault site");
        let mut stats = SolveStats::default();
        let Ok(necessity) = self.necessity(sites) else {
            // Statically proven untestable: no search at all.
            return (GenOutcome::Untestable, stats);
        };
        let n_pi = self.netlist.primary_inputs().len();
        let mut assign: Vec<Logic> = vec![Logic::X; n_pi];
        let mut s = Scratch::new(self.netlist.gate_count(), self.levels.depth());
        self.fill_cone(sites, &mut s);
        // Decision stack: (pi index, tried_both). Every assignment change
        // is also logged in `s.changed`, the trail the next pass replays.
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut first = true;

        loop {
            #[cfg(test)]
            let before = s.vals.clone();
            if first {
                self.full_pass(&assign, sites, &mut s);
                first = false;
            } else {
                self.event_pass(&assign, sites, &mut s);
            }
            #[cfg(test)]
            self.assert_matches_full_pass(&before, &assign, sites, &s.vals);
            stats.forward_evals += 1;

            if self.detected(&s.vals) {
                return (GenOutcome::Test(TestCube { assignment: assign }), stats);
            }

            // A good-machine value contradicting a static necessity of
            // detection dooms every completion of this assignment: call
            // the dead end now instead of searching into the subtree.
            let implication_conflict = necessity
                .iter()
                .any(|&(i, v)| s.vals[i as usize].good.to_bool().is_some_and(|b| b != v));
            if implication_conflict {
                stats.implication_conflicts += 1;
            }

            let next = if implication_conflict {
                None
            } else {
                self.objective(sites, &mut s)
                    .and_then(|(net, v)| self.backtrace(&s.vals, net, v))
            };

            match next {
                Some((pi, v)) => {
                    assign[pi] = Logic::from(v);
                    stack.push((pi, false));
                    s.changed.push(pi);
                }
                None => {
                    // Backtrack.
                    loop {
                        match stack.pop() {
                            None => return (GenOutcome::Untestable, stats),
                            Some((pi, true)) => {
                                assign[pi] = Logic::X;
                                s.changed.push(pi);
                            }
                            Some((pi, false)) => {
                                stats.backtracks += 1;
                                if stats.backtracks >= self.config.backtrack_limit {
                                    return (GenOutcome::Aborted, stats);
                                }
                                let flipped = match assign[pi] {
                                    Logic::Zero => Logic::One,
                                    Logic::One => Logic::Zero,
                                    Logic::X => unreachable!("decision PIs are assigned"),
                                };
                                assign[pi] = flipped;
                                stack.push((pi, true));
                                s.changed.push(pi);
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Collects the fan-out cone of the fault sites (the sites included)
    /// into `s.cone`, sorted by gate id.
    fn fill_cone(&self, sites: &[Fault], s: &mut Scratch) {
        let epoch = s.next_epoch();
        s.cone.clear();
        s.stack.clear();
        s.stack.extend(sites.iter().map(|f| index_u32(f.site.gate)));
        while let Some(g) = s.stack.pop() {
            if s.seen[g as usize] == epoch {
                continue;
            }
            s.seen[g as usize] = epoch;
            s.cone.push(g);
            s.stack.extend_from_slice(self.readers(g as usize));
        }
        s.cone.sort_unstable();
    }

    /// The value of primary input `i` under `assign`, with any fault on
    /// its output applied.
    fn pi_val(&self, i: usize, assign: &[Logic], sites: &[Fault]) -> DVal {
        let pi = self.netlist.primary_inputs()[i];
        let mut v = DVal::known(assign[i]);
        for f in sites {
            if f.site == PortRef::output(pi) {
                v.faulty = Logic::from(f.stuck);
            }
        }
        v
    }

    /// The effective value seen by gate `g`'s input `pin`, reading net
    /// `src`, with any fault on that pin applied.
    fn pin_val(vals: &[DVal], sites: &[Fault], g: usize, pin: usize, src: u32) -> DVal {
        let mut v = vals[src as usize];
        for f in sites {
            if f.site.gate.index() == g && f.site.pin == Pin::input(pin) {
                v.faulty = Logic::from(f.stuck);
            }
        }
        v
    }

    fn at_site(g: usize, sites: &[Fault]) -> bool {
        sites.iter().any(|f| f.site.gate.index() == g)
    }

    /// Counts logic gate `g`'s inputs from scratch, fault overrides on
    /// its pins applied.
    fn count_inputs(&self, g: usize, vals: &[DVal], sites: &[Fault]) -> Tally {
        let hot = Tally::hot(self.kind[g]);
        let mut t = Tally::default();
        let ins = self.fanin(g);
        if Self::at_site(g, sites) {
            for (pin, &src) in ins.iter().enumerate() {
                t.add(hot, Self::pin_val(vals, sites, g, pin, src));
            }
        } else {
            for &src in ins {
                t.add(hot, vals[src as usize]);
            }
        }
        t
    }

    /// Evaluates gate `g` (any kind but a primary input). A logic gate
    /// reads its maintained input tally; one carrying a fault site is
    /// recounted, since its tally is not maintained (fault sites are
    /// resolved once per gate, here).
    fn eval(&self, g: usize, sites: &[Fault], s: &mut Scratch) -> DVal {
        let kind = self.kind[g];
        let at_site = Self::at_site(g, sites);
        let mut v = match kind {
            GateKind::Const0 => DVal::ZERO,
            GateKind::Const1 => DVal::ONE,
            GateKind::Dff => DVal::X, // uncontrollable state
            GateKind::Input => unreachable!("primary inputs come from the assignment"),
            _ => {
                if at_site {
                    s.tally[g] = self.count_inputs(g, &s.vals, sites);
                }
                s.tally[g].value(kind)
            }
        };
        if at_site {
            for f in sites {
                if f.site.gate.index() == g && f.site.pin == Pin::Output {
                    v.faulty = Logic::from(f.stuck);
                }
            }
        }
        v
    }

    /// Full forward implication of the current PI assignment, in
    /// levelized order over the values left by the previous pass,
    /// counting every logic gate's inputs afresh. It runs once per solve;
    /// a gate ordered before a constant or flip-flop it reads (see
    /// `late_readers`) sees that source's previous value, and is
    /// recounted and queued for the next pass.
    fn full_pass(&self, assign: &[Logic], sites: &[Fault], s: &mut Scratch) {
        for (i, &pi) in self.netlist.primary_inputs().iter().enumerate() {
            s.vals[pi.index()] = self.pi_val(i, assign, sites);
        }
        for &id in self.levels.order() {
            let g = id.index();
            if self.kind[g] == GateKind::Input {
                continue;
            }
            if !self.kind[g].is_source() {
                s.tally[g] = self.count_inputs(g, &s.vals, sites);
            }
            s.vals[g] = self.eval(g, sites, s);
        }
        for &g in &self.late_readers {
            let g = g as usize;
            s.tally[g] = self.count_inputs(g, &s.vals, sites);
            self.schedule(g, s);
        }
    }

    /// Queues `g` for re-evaluation in the current event pass.
    fn schedule(&self, g: usize, s: &mut Scratch) {
        if !s.queued[g] {
            s.queued[g] = true;
            let l = self.levels.level(GateId::from_index(g)) as usize;
            s.events[l].push(index_u32(GateId::from_index(g)));
            s.lo = s.lo.min(l);
            s.hi = s.hi.max(l);
        }
    }

    /// Gives net `g` value `v`: updates its readers' tallies and queues
    /// them.
    fn set(&self, g: usize, v: DVal, sites: &[Fault], s: &mut Scratch) {
        let old = std::mem::replace(&mut s.vals[g], v);
        for &r in self.readers(g) {
            let r = r as usize;
            if !Self::at_site(r, sites) {
                let hot = Tally::hot(self.kind[r]);
                s.tally[r].remove(hot, old);
                s.tally[r].add(hot, v);
            }
            self.schedule(r, s);
        }
    }

    /// Event-driven forward implication: re-evaluates only what the
    /// primary inputs in `s.changed` (and anything already queued)
    /// reach, in levelized order, stopping wherever a value holds.
    fn event_pass(&self, assign: &[Logic], sites: &[Fault], s: &mut Scratch) {
        for k in 0..s.changed.len() {
            let i = s.changed[k];
            let pi = self.netlist.primary_inputs()[i].index();
            let v = self.pi_val(i, assign, sites);
            if v != s.vals[pi] {
                self.set(pi, v, sites, s);
            }
        }
        s.changed.clear();
        // A gate only ever queues readers on higher levels, so one sweep
        // upward drains every bucket.
        let mut l = s.lo;
        while l <= s.hi {
            while let Some(g) = s.events[l].pop() {
                let g = g as usize;
                s.queued[g] = false;
                let v = self.eval(g, sites, s);
                if v != s.vals[g] {
                    self.set(g, v, sites, s);
                }
            }
            l += 1;
        }
        (s.lo, s.hi) = (usize::MAX, 0);
    }

    fn detected(&self, vals: &[DVal]) -> bool {
        self.netlist
            .primary_outputs()
            .iter()
            .any(|&(g, _)| vals[g.index()].is_d())
    }

    /// The net a fault's excitation is decided on: the faulted net
    /// itself, or the driver of the faulted input pin.
    fn activation(&self, fault: Fault) -> GateId {
        match fault.site.pin {
            Pin::Output => fault.site.gate,
            Pin::Input(p) => {
                GateId::from_index(self.fanin(fault.site.gate.index())[p as usize] as usize)
            }
        }
    }

    /// Next objective `(net, value)`, or `None` when the current partial
    /// assignment can no longer lead to a test.
    fn objective(&self, sites: &[Fault], s: &mut Scratch) -> Option<(GateId, bool)> {
        // Is any site excited (a fault effect exists somewhere)?
        let mut excitable: Option<(GateId, bool)> = None;
        let mut any_excited = false;
        for &f in sites {
            let driver = self.activation(f);
            match s.vals[driver.index()].good.to_bool() {
                None => {
                    if excitable.is_none() {
                        excitable = Some((driver, !f.stuck));
                    }
                }
                Some(v) if v != f.stuck => any_excited = true,
                Some(_) => {}
            }
        }
        if !any_excited {
            return excitable; // excite (or dead end if None)
        }
        // Excited: advance the D-frontier — gates with a fault effect on
        // an input and an undetermined output, visited in gate-id order —
        // choosing the gate cheapest to observe (first wins a tie) that
        // has an X input to set and an X-path to an output.
        let mut best: Option<(u32, usize, usize)> = None;
        for k in 0..s.cone.len() {
            let g = s.cone[k] as usize;
            if self.kind[g].is_source() || !s.vals[g].has_x() {
                continue;
            }
            let ins = self.fanin(g);
            let has_d = ins
                .iter()
                .enumerate()
                .any(|(pin, &src)| Self::pin_val(&s.vals, sites, g, pin, src).is_d());
            if !has_d {
                continue;
            }
            let co = self.report.observability(GateId::from_index(g));
            if best.is_some_and(|(c, _, _)| co >= c) {
                continue;
            }
            let Some(pin) = ins
                .iter()
                .position(|&src| s.vals[src as usize].good == Logic::X)
            else {
                continue;
            };
            if self.x_path_to_po(g, s) {
                best = Some((co, g, pin));
            }
        }
        let Some((_, g, pin)) = best else {
            // No frontier progress possible: excite another site if one
            // remains, else dead end.
            return excitable;
        };
        let noncontrolling = match self.kind[g].controlling_value() {
            Some(c) => !c,
            // XOR family: any known value propagates; aim for 0.
            None => false,
        };
        let src = GateId::from_index(self.fanin(g)[pin] as usize);
        Some((src, noncontrolling))
    }

    /// Whether an X-path (gates with undetermined outputs) connects `from`
    /// to some primary output.
    fn x_path_to_po(&self, from: usize, s: &mut Scratch) -> bool {
        let epoch = s.next_epoch();
        s.stack.clear();
        s.stack.push(index_u32(GateId::from_index(from)));
        while let Some(g) = s.stack.pop() {
            let g = g as usize;
            if s.seen[g] == epoch {
                continue;
            }
            s.seen[g] = epoch;
            if self.is_po[g] {
                return true;
            }
            for &r in self.readers(g) {
                if s.seen[r as usize] != epoch && s.vals[r as usize].has_x() {
                    s.stack.push(r);
                }
            }
        }
        false
    }

    /// Maps an objective `(net, value)` to a primary-input assignment by
    /// walking X-paths toward inputs, guided by SCOAP costs.
    fn backtrace(&self, vals: &[DVal], mut net: GateId, mut v: bool) -> Option<(usize, bool)> {
        loop {
            let kind = self.kind[net.index()];
            let ins = self.fanin(net.index());
            let id = |s: u32| GateId::from_index(s as usize);
            match kind {
                GateKind::Input => {
                    return Some((self.pi_index[net.index()] as usize, v));
                }
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff => return None,
                GateKind::Buf => net = id(ins[0]),
                GateKind::Not => {
                    v = !v;
                    net = id(ins[0]);
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let c = kind.controlling_value().expect("AND/OR family");
                    let v_target = v != kind.inverts();
                    let x_inputs = ins
                        .iter()
                        .map(|&s| id(s))
                        .filter(|&s| vals[s.index()].good == Logic::X);
                    let pick = if v_target == c {
                        // One controlling input suffices: easiest.
                        x_inputs.min_by_key(|&s| self.report.measure(s).control(c))
                    } else {
                        // All inputs must be noncontrolling: hardest first.
                        x_inputs.max_by_key(|&s| self.report.measure(s).control(!c))
                    };
                    net = pick?;
                    v = if v_target == c { c } else { !c };
                }
                GateKind::Xor | GateKind::Xnor => {
                    let mut parity = kind == GateKind::Xnor;
                    let mut pick = None;
                    for &s in ins {
                        match vals[s as usize].good.to_bool() {
                            Some(b) => parity ^= b,
                            None => {
                                if pick.is_none() {
                                    pick = Some(id(s));
                                }
                            }
                        }
                    }
                    let s = pick?;
                    // Remaining X inputs (other than `s`) are treated as 0
                    // by this heuristic; forward implication corrects us.
                    net = s;
                    v = v != parity;
                }
            }
        }
    }
}

fn index_u32(g: GateId) -> u32 {
    u32::try_from(g.index()).expect("gate index fits u32")
}

/// One-shot convenience wrapper around [`Podem`].
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn podem(
    netlist: &Netlist,
    fault: Fault,
    config: &PodemConfig,
) -> Result<GenOutcome, LevelizeError> {
    podem_observed(netlist, fault, config, None)
}

/// [`podem`] feeding telemetry to an optional collector (both the
/// solver build — `implic.learn` when implications are on — and the
/// `atpg.podem` search span).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn podem_observed(
    netlist: &Netlist,
    fault: Fault,
    config: &PodemConfig,
    obs: Option<&mut dyn Collector>,
) -> Result<GenOutcome, LevelizeError> {
    let mut obs = Obs::new(obs);
    let solver = Podem::new_observed(netlist, *config, obs.as_option())?;
    Ok(solver.solve_with(fault, obs.as_option()).0)
}

/// The incremental ≡ from-scratch oracle: every search step of every
/// unit test re-derives the values with the original full forward pass
/// (straight off the netlist, no compiled arrays) and compares.
#[cfg(test)]
impl Podem<'_> {
    /// Full forward implication of `assign` over `vals` as the previous
    /// step left them, in levelized order.
    fn forward_reference(&self, assign: &[Logic], sites: &[Fault], vals: &mut [DVal]) {
        let n = self.netlist;
        for (i, &pi) in n.primary_inputs().iter().enumerate() {
            let mut v = DVal::known(assign[i]);
            for f in sites {
                if f.site == PortRef::output(pi) {
                    v.faulty = Logic::from(f.stuck);
                }
            }
            vals[pi.index()] = v;
        }
        for &id in self.levels.order() {
            let gate = n.gate(id);
            let mut v = match gate.kind() {
                GateKind::Input => continue,
                GateKind::Const0 => DVal::ZERO,
                GateKind::Const1 => DVal::ONE,
                GateKind::Dff => DVal::X,
                kind => {
                    let (mut goods, mut faults) = (Vec::new(), Vec::new());
                    for (pin, &src) in gate.inputs().iter().enumerate() {
                        let mut pv = vals[src.index()];
                        for f in sites {
                            if f.site == PortRef::new(id, Pin::input(pin)) {
                                pv.faulty = Logic::from(f.stuck);
                            }
                        }
                        goods.push(pv.good);
                        faults.push(pv.faulty);
                    }
                    DVal {
                        good: Logic::eval_gate(kind, &goods),
                        faulty: Logic::eval_gate(kind, &faults),
                    }
                }
            };
            for f in sites {
                if f.site == PortRef::output(id) {
                    v.faulty = Logic::from(f.stuck);
                }
            }
            vals[id.index()] = v;
        }
    }

    fn assert_matches_full_pass(
        &self,
        before: &[DVal],
        assign: &[Logic],
        sites: &[Fault],
        vals: &[DVal],
    ) {
        let mut reference = before.to_vec();
        self.forward_reference(assign, sites, &mut reference);
        assert_eq!(
            vals,
            &reference[..],
            "incremental implication diverged from a full pass on {} under {assign:?}",
            self.netlist.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{simulate, universe};
    use dft_netlist::circuits::{c17, comparator, full_adder, majority, parity_tree};
    use dft_netlist::{Netlist, PortRef};
    use dft_sim::PatternSet;

    /// Every generated cube must actually detect its fault (independent
    /// check through the fault simulator).
    fn verify_all(netlist: &Netlist) {
        let faults = universe(netlist);
        let solver = Podem::new(netlist, PodemConfig::default()).unwrap();
        for &f in &faults {
            let (outcome, _) = solver.solve(f);
            match outcome {
                GenOutcome::Test(cube) => {
                    let row = cube.filled(false);
                    let p = PatternSet::from_rows(row.len(), &[row]);
                    let r = simulate(netlist, &p, &[f]).unwrap();
                    assert_eq!(
                        r.first_detected[0],
                        Some(0),
                        "cube for {f} does not detect it on {}",
                        netlist.name()
                    );
                }
                GenOutcome::Untestable => {
                    // Cross-check with exhaustive fault simulation.
                    let k = netlist.primary_inputs().len();
                    assert!(k <= 12, "exhaustive check infeasible");
                    let rows: Vec<Vec<bool>> = (0..1usize << k)
                        .map(|v| (0..k).map(|i| v >> i & 1 == 1).collect())
                        .collect();
                    let p = PatternSet::from_rows(k, &rows);
                    let r = simulate(netlist, &p, &[f]).unwrap();
                    assert_eq!(
                        r.first_detected[0],
                        None,
                        "{f} declared untestable but a test exists on {}",
                        netlist.name()
                    );
                }
                GenOutcome::Aborted => panic!("abort on tiny circuit for {f}"),
            }
        }
    }

    #[test]
    fn complete_and_sound_on_c17() {
        verify_all(&c17());
    }

    #[test]
    fn complete_and_sound_on_full_adder() {
        verify_all(&full_adder());
    }

    #[test]
    fn complete_and_sound_on_majority() {
        verify_all(&majority());
    }

    #[test]
    fn complete_and_sound_on_parity_tree() {
        verify_all(&parity_tree(5));
    }

    #[test]
    fn complete_and_sound_on_comparator() {
        verify_all(&comparator(3));
    }

    #[test]
    fn complete_and_sound_on_random_logic() {
        let n = dft_netlist::circuits::random_combinational(9, 40, 77);
        verify_all(&n);
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        use dft_netlist::GateKind;
        let mut n = Netlist::new("redundant");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let f = dft_fault::Fault::stuck_at_0(PortRef::output(g));
        let outcome = podem(&n, f, &PodemConfig::default()).unwrap();
        assert_eq!(outcome, GenOutcome::Untestable);
    }

    #[test]
    fn state_behind_dffs_is_uncontrollable() {
        // y = AND(a, q) where q is an uncontrollable DFF: the a s-a-0
        // fault cannot be tested combinationally (needs q = 1).
        use dft_netlist::GateKind;
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let f = dft_fault::Fault::stuck_at_0(PortRef::input(y, 0));
        let outcome = podem(&n, f, &PodemConfig::default()).unwrap();
        assert_eq!(
            outcome,
            GenOutcome::Untestable,
            "combinational ATPG must give up on state — the paper's motivation for scan"
        );
    }

    #[test]
    fn cube_helpers() {
        let c1 = TestCube {
            assignment: vec![Logic::One, Logic::X, Logic::Zero],
        };
        let c2 = TestCube {
            assignment: vec![Logic::X, Logic::Zero, Logic::Zero],
        };
        assert!(c1.compatible(&c2));
        let m = c1.merged(&c2);
        assert_eq!(m.assignment, vec![Logic::One, Logic::Zero, Logic::Zero]);
        assert_eq!(m.care_count(), 3);
        assert_eq!(c1.filled(true), vec![true, true, false]);
        let c3 = TestCube {
            assignment: vec![Logic::Zero, Logic::X, Logic::X],
        };
        assert!(!c1.compatible(&c3));
    }

    /// A seeded random design mixing every kind the search meets: wide
    /// AND/OR families, XOR/XNOR, inverters, constants and flip-flops,
    /// plus a gate ordered before a constant it reads (the reconnect at
    /// the end), so the oracle also covers the late-reader re-evaluation.
    fn mixed_design(seed: u64, inputs: usize, gates: usize) -> Netlist {
        use dft_netlist::GateKind::{And, Buf, Dff, Nand, Nor, Not, Or, Xnor, Xor};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new(format!("mixed{seed}"));
        let mut nets: Vec<GateId> = (0..inputs).map(|i| n.add_input(format!("x{i}"))).collect();
        let early = n.add_gate(And, &[nets[0], nets[inputs - 1]]).unwrap();
        nets.push(early);
        nets.push(n.add_const(false));
        nets.push(n.add_const(true));
        for _ in 0..gates {
            let kind = [And, Nand, Or, Nor, Xor, Xnor, Not, Buf, Dff][rng.gen_range(0..9)];
            let fanin = match kind {
                Not | Buf | Dff => 1,
                _ => rng.gen_range(2..5),
            };
            let ins: Vec<GateId> = (0..fanin)
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            nets.push(n.add_gate(kind, &ins).unwrap());
        }
        let late = n.add_const(rng.gen_bool(0.5));
        n.reconnect_input(early, 1, late).unwrap();
        for (k, &g) in nets.iter().rev().take(3).enumerate() {
            n.mark_output(g, format!("y{k}")).unwrap();
        }
        n.mark_output(early, "early").unwrap();
        n
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Every search step's event-driven values equal a full pass
        /// (the check runs inside `search` in test builds), over single
        /// and multi-site faults, with and without implications; and every
        /// single-site cube found really detects its fault.
        #[test]
        fn incremental_implication_matches_full_pass(
            seed in proptest::prelude::any::<u64>(),
            inputs in 2usize..8,
            gates in 4usize..40,
            implications in proptest::prelude::any::<bool>(),
        ) {
            let n = mixed_design(seed, inputs, gates);
            let config = PodemConfig::default()
                .with_backtrack_limit(64)
                .with_use_implications(implications);
            let solver = Podem::new(&n, config).unwrap();
            let faults = universe(&n);
            for (k, &f) in faults.iter().enumerate() {
                let (outcome, _) = solver.solve(f);
                if let GenOutcome::Test(cube) = outcome {
                    let row = cube.filled(false);
                    let p = PatternSet::from_rows(row.len(), &[row]);
                    let r = simulate(&n, &p, &[f]).unwrap();
                    proptest::prop_assert_eq!(r.first_detected[0], Some(0), "cube misses {}", f);
                }
                let sites = [f, faults[(k * 7 + 3) % faults.len()], faults[(k * 13 + 5) % faults.len()]];
                let _ = solver.solve_any_of(&sites[..2 + k % 2]);
            }
        }
    }
}
