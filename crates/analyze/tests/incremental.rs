//! Incremental ≡ from-scratch: the cache's central contract.
//!
//! Each case builds a random circuit, drives a random sequence of
//! [`NetlistDelta`] edits through an [`AnalysisCache`], and after every
//! edit compares the incrementally maintained SCOAP, constant and
//! X-propagation results bit-for-bit against a cache built fresh from
//! the edited netlist. On acyclic value graphs the fixpoint is unique,
//! so any divergence is a seeding or invalidation bug — there is no
//! tolerance to hide behind.
//!
//! Edits that would close a combinational cycle must be rejected *and*
//! leave every cached result untouched; the generator deliberately
//! produces such edits (any gate is a rewire candidate) to exercise the
//! rejection path too.

use dft_analyze::{AnalysisCache, DeltaError, NetlistDelta};
use dft_netlist::circuits::{random_combinational, random_sequential};
use dft_netlist::{GateId, GateKind, Netlist};
use proptest::prelude::*;

/// Small deterministic generator so each proptest case derives its whole
/// edit sequence from one seed (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const LOGIC_KINDS: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// Picks a random editable (non-source, non-storage) gate, if any.
fn pick_logic_gate(n: &Netlist, rng: &mut Rng) -> Option<GateId> {
    let logic: Vec<GateId> = n
        .ids()
        .filter(|&id| {
            let k = n.gate(id).kind();
            !k.is_source() && !k.is_storage()
        })
        .collect();
    if logic.is_empty() {
        None
    } else {
        Some(logic[rng.below(logic.len())])
    }
}

fn random_delta(n: &Netlist, rng: &mut Rng) -> Option<NetlistDelta> {
    let any = |rng: &mut Rng| GateId::from_index(rng.below(n.gate_count()));
    match rng.below(4) {
        0 => {
            let kind = LOGIC_KINDS[rng.below(LOGIC_KINDS.len())];
            Some(NetlistDelta::AddGate {
                kind,
                inputs: vec![any(rng), any(rng)],
            })
        }
        1 => pick_logic_gate(n, rng).map(|gate| NetlistDelta::RemoveGate {
            gate,
            value: rng.next() & 1 == 1,
        }),
        2 => pick_logic_gate(n, rng).and_then(|gate| {
            let fanin = n.gate(gate).inputs().len();
            (fanin > 0).then(|| NetlistDelta::Rewire {
                gate,
                pin: rng.below(fanin),
                new_src: any(rng),
            })
        }),
        _ => pick_logic_gate(n, rng).map(|gate| NetlistDelta::ReplaceGate {
            gate,
            kind: LOGIC_KINDS[rng.below(LOGIC_KINDS.len())],
            inputs: vec![any(rng), any(rng)],
        }),
    }
}

/// Asserts the incrementally maintained results equal a from-scratch
/// cache over the same netlist, bit for bit.
fn assert_bit_identical(cache: &mut AnalysisCache) {
    let mut fresh = AnalysisCache::new(cache.netlist()).expect("cache keeps the frame acyclic");
    // Levels first: everything downstream keys off them.
    for id in fresh.netlist().ids() {
        assert_eq!(
            cache.level(id),
            fresh.level(id),
            "incremental re-levelization diverged at {id}"
        );
    }
    let (inc, scratch) = (cache.scoap().clone(), fresh.scoap().clone());
    assert_eq!(inc.cc, scratch.cc, "controllability diverged");
    assert_eq!(inc.co, scratch.co, "observability diverged");
    assert_eq!(
        cache.constants().to_vec(),
        fresh.constants().to_vec(),
        "constant propagation diverged"
    );
    assert_eq!(
        cache.xprop().to_vec(),
        fresh.xprop().to_vec(),
        "x-propagation diverged"
    );
}

/// Drives `edits` random deltas through a cache over `start`, checking
/// bit-identity after every applied edit. Returns (applied, rejected).
fn drive(start: &Netlist, seed: u64, edits: usize) -> (usize, usize) {
    let mut rng = Rng(seed);
    let mut cache = AnalysisCache::new(start).expect("generator circuits levelize");
    // Warm every analysis so the incremental path (not first-compute) is
    // what each edit exercises.
    cache.scoap();
    cache.constants();
    cache.xprop();
    let (mut applied, mut rejected) = (0, 0);
    for _ in 0..edits {
        let Some(delta) = random_delta(cache.netlist(), &mut rng) else {
            break;
        };
        match cache.apply(&delta) {
            Ok(_) => {
                applied += 1;
                assert_bit_identical(&mut cache);
            }
            Err(DeltaError::WouldCycle { .. }) => {
                // Rejection must be a perfect no-op.
                rejected += 1;
                assert_bit_identical(&mut cache);
            }
            Err(DeltaError::Netlist(e)) => panic!("generator produced an invalid delta: {e}"),
        }
    }
    (applied, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    /// Combinational designs: SCOAP, constants and X-prop all take the
    /// incremental worklist path.
    #[test]
    fn combinational_edit_sequences_are_bit_identical(
        seed in any::<u64>(),
        inputs in 3usize..=8,
        gates in 8usize..=60,
        edits in 1usize..=8,
    ) {
        let n = random_combinational(inputs, gates, seed);
        drive(&n, seed ^ 0xdead_beef, edits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(36))]

    /// Sequential designs: SCOAP falls back to the full capped
    /// relaxation (storage feedback), constants and X-prop stay
    /// incremental — same bit-identity contract either way.
    #[test]
    fn sequential_edit_sequences_are_bit_identical(
        seed in any::<u64>(),
        state_bits in 2usize..=5,
        gates_per_cone in 2usize..=6,
        edits in 1usize..=6,
    ) {
        let n = random_sequential(3, state_bits, gates_per_cone, 2, seed);
        drive(&n, seed ^ 0x5eed_cafe, edits);
    }
}

#[test]
fn rejected_cycles_actually_occur_in_the_generator() {
    // Sanity check that the proptest above really exercises the
    // rejection path: over a fixed batch of seeds at least one rewire
    // must be refused as cycle-closing.
    let mut rejected = 0;
    for seed in 0..24u64 {
        let n = random_combinational(4, 30, seed);
        let (_, r) = drive(&n, seed, 10);
        rejected += r;
    }
    assert!(
        rejected > 0,
        "generator never produced a cycle-closing edit"
    );
}

/// ECO edits obey the fan-in cap like the readers do: a 257-input gate
/// is refused with `BadFanin` and leaves the netlist untouched.
#[test]
fn eco_edits_reject_fanin_above_the_cap() {
    let n = random_combinational(4, 12, 3);
    let mut cache = AnalysisCache::new(&n).unwrap();
    let before = cache.netlist().clone();
    let wide = vec![GateId::from_index(0); dft_netlist::MAX_FANIN + 1];
    let target = n.ids().find(|&g| !n.gate(g).kind().is_source()).unwrap();
    for delta in [
        NetlistDelta::AddGate {
            kind: GateKind::Or,
            inputs: wide.clone(),
        },
        NetlistDelta::ReplaceGate {
            gate: target,
            kind: GateKind::And,
            inputs: wide.clone(),
        },
    ] {
        let err = cache.apply(&delta).unwrap_err();
        assert!(
            matches!(
                err,
                DeltaError::Netlist(dft_netlist::NetlistError::BadFanin { got: 257, .. })
            ),
            "{err}"
        );
        assert_eq!(cache.netlist(), &before);
    }
}
