//! Cross-engine consistency: the toolkit's independent implementations
//! must agree with each other on shared ground. These are the strongest
//! correctness checks in the repository — any systematic modelling error
//! would have to be made identically in two unrelated code paths.

use design_for_testability::atpg::{dalg, podem, DalgConfig, GenOutcome, PodemConfig};
use design_for_testability::fault::{ppsfp, simulate, universe, FaultSimEngine, SequentialEngine};
use design_for_testability::netlist::circuits::{random_combinational, sn74181};
use design_for_testability::sim::{EventSim, Logic, ParallelSim, PatternSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All three fault-simulation engines agree on the SN74181.
#[test]
fn fault_sim_engines_agree_on_the_alu() {
    let (alu, _) = sn74181();
    let faults = universe(&alu);
    let mut rng = StdRng::seed_from_u64(8);
    let patterns = PatternSet::random(14, 48, &mut rng);
    let a = simulate(&alu, &patterns, &faults).expect("combinational");
    let b = ppsfp(&alu, &patterns, &faults).expect("combinational");
    let c = SequentialEngine
        .run(&alu, &patterns, &faults)
        .expect("combinational");
    assert_eq!(a, b, "pattern-parallel vs PPSFP");
    assert_eq!(a, c, "pattern-parallel vs sequential");
}

/// Event-driven and compiled parallel simulation agree on random logic.
#[test]
fn event_sim_agrees_with_parallel_sim() {
    for seed in 0..3 {
        let n = random_combinational(10, 120, seed);
        let psim = ParallelSim::new(&n).expect("combinational");
        let mut esim = EventSim::new(&n).expect("combinational");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
        let patterns = PatternSet::random(10, 32, &mut rng);
        let resp = psim.run(&patterns);
        for p in 0..patterns.len() {
            let row: Vec<Logic> = patterns.get(p).iter().map(|&b| Logic::from(b)).collect();
            esim.set_inputs(&row);
            esim.settle();
            for (o, v) in esim.outputs().into_iter().enumerate() {
                assert_eq!(
                    v.to_bool(),
                    Some(resp.output_bit(o, p)),
                    "seed {seed} output {o} pattern {p}"
                );
            }
        }
    }
}

/// PODEM and the D-Algorithm give the same testable/untestable verdicts,
/// and every produced cube detects its fault under fault simulation.
#[test]
fn deterministic_generators_agree_and_are_sound() {
    let n = random_combinational(8, 50, 41);
    let cfg = PodemConfig::default();
    for f in universe(&n) {
        let p = podem(&n, f, &cfg).expect("combinational");
        let d = dalg(&n, f, &DalgConfig::from(cfg)).expect("combinational");
        match (&p, &d) {
            (GenOutcome::Test(cube), GenOutcome::Test(_)) => {
                let row = cube.filled(false);
                let set = PatternSet::from_rows(8, &[row]);
                let r = simulate(&n, &set, &[f]).expect("combinational");
                assert!(r.first_detected[0].is_some(), "podem cube fails for {f}");
            }
            (GenOutcome::Untestable, GenOutcome::Untestable) => {}
            other => panic!("verdicts disagree for {f}: {other:?}"),
        }
    }
}
