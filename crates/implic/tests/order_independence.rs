//! Static verdicts must not depend on the order faults are asked in.
//!
//! `prefilter_with` visits faults grouped by excitation literal through
//! one shared [`dft_implic::Scratch`], which keeps the last literal's
//! closure and the last origin's fanout cone. Any state leaking from one
//! query into the next would make a verdict depend on its neighbours in
//! the list. On random netlists — with and without flip-flops and tied
//! constants — every verdict for a shuffled fault list, both through
//! `prefilter_with` and through one scratch walked in list order, must
//! equal a one-off `fault_untestable` call.

use dft_fault::{prefilter_with, universe};
use dft_implic::ImplicationEngine;
use dft_netlist::circuits::random_combinational;
use dft_netlist::Netlist;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `random_combinational` with `dffs` flip-flops spliced in (each reads
/// a random net and replaces a random logic pin, so state both feeds and
/// is fed by logic) and `consts` random logic pins tied to constants.
fn mixed(inputs: usize, gates: usize, dffs: usize, consts: usize, seed: u64) -> Netlist {
    let mut n = random_combinational(inputs, gates, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let logic: Vec<_> = n
        .iter()
        .filter(|(_, g)| !g.kind().is_source())
        .map(|(id, g)| (id, g.fanin()))
        .collect();
    let all: Vec<_> = n.ids().collect();
    for k in 0..dffs + consts {
        let (g, fanin) = logic[rng.gen_range(0..logic.len())];
        let src = if k < dffs {
            n.add_dff(all[rng.gen_range(0..all.len())]).unwrap()
        } else {
            n.add_const(rng.gen_bool(0.5))
        };
        n.reconnect_input(g, rng.gen_range(0..fanin), src).unwrap();
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn verdicts_do_not_depend_on_fault_order(
        seed in any::<u64>(),
        inputs in 2usize..=8,
        gates in 5usize..=80,
        dffs in 0usize..=3,
        consts in 0usize..=3,
    ) {
        let n = mixed(inputs, gates, dffs, consts, seed);
        prop_assert_eq!(n.storage_elements().len(), dffs);
        let engine = ImplicationEngine::new(&n);
        let mut faults = universe(&n);
        faults.shuffle(&mut StdRng::seed_from_u64(seed.rotate_left(17)));

        let grouped = prefilter_with(&engine, &faults);
        let mut scratch = engine.scratch();
        for (i, f) in faults.iter().enumerate() {
            let alone = engine.fault_untestable(f.site.gate, f.site.pin, f.stuck);
            prop_assert_eq!(grouped.verdict(i).copied(), alone, "prefilter_with on {}", f);
            let walked = scratch.fault_untestable(f.site.gate, f.site.pin, f.stuck);
            prop_assert_eq!(walked, alone, "shared scratch on {}", f);
        }
    }
}
