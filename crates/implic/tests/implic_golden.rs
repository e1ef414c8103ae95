//! Golden implication-engine output: for every netlist of a fixed
//! roster, the learned-edge lists (per premise literal, in order), the
//! [`LearnStats`], the unsettable literals, the implied constants, every
//! literal's [`ImplicationEngine::query`] closure (in trail order) and
//! every fault's static verdict with its `Display` text are hashed and
//! compared with constants recorded from the whole-netlist learning
//! implementation. Any change to how the engine learns or answers must
//! keep every one of them bit-identical.

use dft_fault::universe;
use dft_implic::{ImplicationEngine, LearnStats};
use dft_netlist::circuits::{
    c17, random_combinational, random_pattern_resistant_pla, random_sequential, redundant_fixture,
};
use dft_netlist::{GateKind, Netlist};

/// FNV-1a, fed one word (or string) at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.byte(b);
        }
        self.byte(0xff);
    }
}

/// What one roster entry pins.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: LearnStats,
    untestable_faults: usize,
    hash: u64,
}

fn golden(n: &Netlist) -> Golden {
    let e = ImplicationEngine::new(n);
    let mut h = Fnv::new();
    for net in n.ids() {
        h.word(match e.implied_constant(net) {
            None => 2,
            Some(v) => u64::from(v),
        });
        h.word(u64::from(e.is_definite(net)));
        for value in [false, true] {
            h.word(u64::from(e.is_unsettable(net, value)));
            let edges = e.learned_edges(net, value);
            h.word(edges.len() as u64);
            for l in edges {
                h.word(l.net.index() as u64 * 2 + u64::from(l.value));
            }
            let q = e.query(net, value);
            match q.conflict {
                Some(c) => h.word(1 << 32 | c.index() as u64),
                None => {
                    h.word(q.implied.len() as u64);
                    for l in &q.implied {
                        h.word(l.net.index() as u64 * 2 + u64::from(l.value));
                    }
                }
            }
        }
    }
    let mut untestable_faults = 0;
    for f in universe(n) {
        h.text(&f.to_string());
        match e.fault_untestable(f.site.gate, f.site.pin, f.stuck) {
            Some(reason) => {
                untestable_faults += 1;
                h.text(&reason.to_string());
            }
            None => h.text("-"),
        }
    }
    Golden {
        stats: e.stats(),
        untestable_faults,
        hash: h.0,
    }
}

fn stats(
    rounds: usize,
    learned_edges: usize,
    unsettable_literals: usize,
    implied_constants: usize,
) -> LearnStats {
    LearnStats {
        rounds,
        learned_edges,
        unsettable_literals,
        implied_constants,
    }
}

/// `random_combinational(inputs, gates, seed)` with every `stride`-th
/// logic gate's first pin tied to a constant (alternating 0 and 1), so
/// constants feed logic and the closure has implied constants to fold.
fn tied(inputs: usize, gates: usize, seed: u64, stride: usize) -> Netlist {
    let mut n = random_combinational(inputs, gates, seed);
    let logic: Vec<_> = n
        .iter()
        .filter(|(_, g)| !g.kind().is_source() && !g.kind().is_storage())
        .map(|(id, _)| id)
        .collect();
    for (k, &g) in logic.iter().step_by(stride).enumerate() {
        let c = n.add_const(k % 2 == 1);
        n.reconnect_input(g, 0, c).unwrap();
    }
    n
}

fn check(n: &Netlist, stats: LearnStats, untestable_faults: usize, hash: u64) {
    let want = Golden {
        stats,
        untestable_faults,
        hash,
    };
    assert_eq!(golden(n), want, "{}", n.name());
}

#[test]
fn c17_is_golden() {
    check(&c17(), stats(2, 1, 0, 0), 0, 0xae23_1454_60b8_81af);
}

#[test]
fn redundant_fixture_is_golden() {
    check(
        &redundant_fixture(),
        stats(2, 1, 2, 2),
        15,
        0x7ae1_f22f_d76c_9002,
    );
}

#[test]
fn sequential_fsm_is_golden() {
    // DFF outputs are unsettable and non-definite; the FSM also carries
    // an unread constant placeholder.
    let n = random_sequential(4, 3, 8, 2, 5);
    assert!(n.iter().any(|(_, g)| g.kind() == GateKind::Dff));
    check(&n, stats(2, 7, 29, 3), 326, 0x2e8e_138d_0f25_0d3d);
}

#[test]
fn resistant_pla_is_golden() {
    let n = random_pattern_resistant_pla(12, 10, 8, 2, 3).synthesize("pla");
    check(&n, stats(2, 12, 0, 0), 0, 0xebb0_14f3_037c_5729);
}

#[test]
fn tied_random_logic_is_golden() {
    check(
        &tied(8, 60, 11, 7),
        stats(2, 11, 36, 36),
        229,
        0x752f_ae4c_5c91_8b78,
    );
    check(
        &tied(7, 49, 147, 6),
        stats(3, 88, 23, 23),
        119,
        0x55f7_4f72_5d5e_b6ce,
    );
}

#[test]
fn random_logic_is_golden() {
    // (inputs, gates, seed) → stats, untestable faults, hash. In
    // (4, 42, 56), as in `tied(7, 49, 147, 6)`, a constant found late in
    // a round changes the closure of a literal feeding the constant
    // net's gate.
    let roster = [
        ((5, 20, 1), stats(4, 23, 3, 3), 22, 0x3aeb_1d05_fbf2_adc7),
        ((4, 42, 56), stats(4, 97, 10, 10), 85, 0x4dc5_9189_8774_df6b),
        ((6, 40, 2), stats(3, 108, 8, 8), 61, 0x3fe7_d66d_f64f_ac56),
        ((8, 60, 3), stats(3, 115, 5, 5), 50, 0xc1e6_91d8_09cb_15c2),
        (
            (8, 90, 4),
            stats(4, 217, 17, 17),
            148,
            0xac62_9e82_72bd_fb7b,
        ),
        (
            (10, 120, 5),
            stats(3, 412, 17, 17),
            142,
            0x5840_a8ab_0344_40f1,
        ),
        (
            (12, 160, 6),
            stats(3, 857, 18, 18),
            150,
            0x7fb6_5758_53c2_4d51,
        ),
        (
            (16, 220, 7),
            stats(4, 674, 27, 27),
            189,
            0x9e6a_1fdb_cb60_4380,
        ),
        (
            (20, 300, 8),
            stats(3, 1260, 62, 62),
            599,
            0x3906_1174_96e6_22a7,
        ),
    ];
    for ((inputs, gates, seed), stats, untestable_faults, hash) in roster {
        check(
            &random_combinational(inputs, gates, seed),
            stats,
            untestable_faults,
            hash,
        );
    }
}
