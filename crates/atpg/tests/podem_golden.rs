//! Golden PODEM decisions: for every fault of a fixed roster, the
//! outcome, the cube and the search-effort counters are hashed and
//! compared with constants recorded from the full-pass implementation.
//! Any change to the implication machinery must keep every decision —
//! and therefore every hash here — bit-identical.

use dft_atpg::{sequential_podem, GenOutcome, Podem, PodemConfig, SolveStats, Unrolled};
use dft_fault::{universe, Fault};
use dft_netlist::circuits::{
    binary_counter, c17, comparator, full_adder, parity_tree, random_combinational,
    random_pattern_resistant_pla,
};
use dft_netlist::{GateKind, Netlist, PortRef};
use dft_sim::Logic;

/// FNV-1a, fed one word at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn logic(&mut self, v: Logic) {
        self.word(match v {
            Logic::Zero => 0,
            Logic::One => 1,
            Logic::X => 2,
        });
    }

    fn attempt(&mut self, outcome: &GenOutcome, stats: SolveStats) {
        match outcome {
            GenOutcome::Test(cube) => {
                self.word(0);
                for &v in &cube.assignment {
                    self.logic(v);
                }
            }
            GenOutcome::Untestable => self.word(1),
            GenOutcome::Aborted => self.word(2),
        }
        self.word(u64::from(stats.backtracks));
        self.word(stats.forward_evals);
        self.word(u64::from(stats.implication_conflicts));
    }
}

/// Hash of every single-fault attempt on `netlist` under `config`.
fn roster_hash(netlist: &Netlist, config: PodemConfig) -> u64 {
    roster(netlist, config).0
}

/// The roster hash plus the total backtracks it took.
fn roster(netlist: &Netlist, config: PodemConfig) -> (u64, u64) {
    let solver = Podem::new(netlist, config).unwrap();
    let mut h = Fnv::new();
    let mut backtracks = 0;
    for f in universe(netlist) {
        let (outcome, stats) = solver.solve(f);
        h.attempt(&outcome, stats);
        backtracks += u64::from(stats.backtracks);
    }
    (h.0, backtracks)
}

fn on() -> PodemConfig {
    PodemConfig::default()
}

fn off() -> PodemConfig {
    PodemConfig::default().with_use_implications(false)
}

#[test]
fn c17_decisions_are_golden() {
    assert_eq!(roster_hash(&c17(), on()), 0x844d_9e1a_e501_8041);
}

#[test]
fn full_adder_decisions_are_golden() {
    assert_eq!(roster_hash(&full_adder(), on()), 0x5a00_7bf7_45f8_b624);
}

#[test]
fn xor_parity_tree_decisions_are_golden() {
    assert_eq!(roster_hash(&parity_tree(5), on()), 0xacac_a9ae_9eca_ae44);
}

#[test]
fn comparator_decisions_are_golden() {
    assert_eq!(roster_hash(&comparator(3), on()), 0xe06c_fb30_5008_bdc0);
}

#[test]
fn random_logic_decisions_are_golden_with_implications() {
    let n = random_combinational(12, 80, 9);
    assert_eq!(roster_hash(&n, on()), 0x65b3_9894_7ce3_a767);
}

#[test]
fn random_logic_decisions_are_golden_without_implications() {
    // Without the implication store the search really backtracks.
    let n = random_combinational(12, 80, 9);
    let (hash, backtracks) = roster(&n, off());
    assert_eq!(hash, 0x0e1b_70b4_881f_3007);
    assert!(backtracks > 0, "the roster must exercise backtracking");
}

#[test]
fn resistant_pla_decisions_are_golden() {
    let n = random_pattern_resistant_pla(16, 12, 12, 2, 5).synthesize("pla");
    assert_eq!(roster_hash(&n, on()), 0x9967_6a81_b94e_b367);
}

#[test]
fn dff_state_decisions_are_golden() {
    // y = AND(a, q) with q an uncontrollable DFF.
    let mut n = Netlist::new("seq");
    let a = n.add_input("a");
    let d = n.add_dff(a).unwrap();
    let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
    n.mark_output(y, "y").unwrap();
    assert_eq!(roster_hash(&n, on()), 0x56f1_e81f_d7d9_0aa6);
    let f = Fault::stuck_at_0(PortRef::input(y, 0));
    assert_eq!(
        Podem::new(&n, on()).unwrap().solve(f).0,
        GenOutcome::Untestable
    );
}

#[test]
fn multi_site_decisions_are_golden() {
    // Time-frame expansion: one physical fault, a site in every frame.
    let n = binary_counter(3);
    let frames = 3;
    let unrolled = Unrolled::build(&n, frames).unwrap();
    let solver = Podem::new(unrolled.netlist(), on()).unwrap();
    let mut h = Fnv::new();
    for f in universe(&n) {
        let sites = unrolled.replicate_fault(f);
        if sites.is_empty() {
            h.word(u64::MAX);
            continue;
        }
        let (outcome, stats) = solver.solve_any_of(&sites);
        h.attempt(&outcome, stats);
        let (seq_outcome, _) = sequential_podem(&n, f, frames, &on()).unwrap();
        assert_eq!(seq_outcome, outcome, "sequential_podem disagrees on {f}");
    }
    assert_eq!(h.0, 0xf2be_c777_13fe_d206);
}
