//! Cross-engine equivalence properties.
//!
//! Every fault-simulation engine in `dft-fault` implements the same
//! specification — fault *f* is detected by pattern *p* iff some primary
//! output differs between the good machine and the machine with *f*
//! injected — so on random levelizable netlists they must produce
//! identical answers. The combinational engines (serial, PPSFP) must
//! agree on the full [`DetectionResult`] (first-detecting pattern per
//! fault); the cycle-based sequential engine is run on the pattern set as
//! a cycle sequence and must agree on the *detected set* (its per-cycle
//! first-detection coincides on combinational netlists too, which the
//! property also checks).

use dft_fault::{
    engines, ppsfp_with_options, simulate_with_options, universe, FaultSimEngine, PpsfpOptions,
    SerialEngine, SerialOptions,
};
use dft_netlist::circuits::random_combinational;
use dft_sim::{LaneWidth, PatternSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// All engines agree on random combinational netlists.
    #[test]
    fn all_engines_agree_on_random_netlists(
        inputs in 4usize..10,
        gates in 20usize..120,
        netlist_seed in 0u64..1000,
        pattern_seed: u64,
        pattern_count in 1usize..130,
    ) {
        let n = random_combinational(inputs, gates, netlist_seed);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let p = PatternSet::random(inputs, pattern_count, &mut rng);
        let reference = SerialEngine::default().run(&n, &p, &faults).unwrap();
        let reference_set = SerialEngine::default()
            .detected_set(&n, &p, &faults)
            .unwrap();
        for eng in engines() {
            let r = eng.run(&n, &p, &faults).unwrap();
            prop_assert_eq!(
                &r,
                &reference,
                "{} first-detection disagrees (netlist seed {}, pattern seed {})",
                eng.name(),
                netlist_seed,
                pattern_seed
            );
            prop_assert_eq!(
                &eng.detected_set(&n, &p, &faults).unwrap(),
                &reference_set,
                "{} detected set disagrees",
                eng.name()
            );
        }
    }

    /// PPSFP is invariant under its tuning knobs: any thread count and
    /// either dropping setting must reproduce the serial result exactly.
    #[test]
    fn ppsfp_options_do_not_change_the_result(
        netlist_seed in 0u64..1000,
        pattern_seed: u64,
        threads in 1usize..6,
        fault_dropping: bool,
    ) {
        let n = random_combinational(8, 80, netlist_seed);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let p = PatternSet::random(8, 100, &mut rng);
        let reference = SerialEngine::default().run(&n, &p, &faults).unwrap();
        let opts = PpsfpOptions::new()
            .with_threads(threads)
            .with_fault_dropping(fault_dropping);
        let r = ppsfp_with_options(&n, &p, &faults, opts).unwrap();
        prop_assert_eq!(
            r,
            reference,
            "threads {} dropping {} (netlist seed {})",
            threads,
            fault_dropping,
            netlist_seed
        );
    }

    /// Lane width is an implementation detail: every width (64/256/512
    /// lanes per wide block, plus the Auto heuristic) of both wide
    /// engines must reproduce the narrow serial reference bit for bit —
    /// detected sets *and* first-detecting patterns. The pattern count
    /// ranges over values that leave ragged tails at every width (a
    /// final 64-lane block that is partially masked, and a final wide
    /// group with fewer than `W` live words), so the tail-masking paths
    /// are always on the line.
    #[test]
    fn lane_widths_agree_on_detection(
        netlist_seed in 0u64..1000,
        pattern_seed: u64,
        pattern_count in 1usize..600,
        threads in 1usize..4,
        fault_dropping: bool,
    ) {
        let n = random_combinational(9, 100, netlist_seed);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(pattern_seed);
        let p = PatternSet::random(9, pattern_count, &mut rng);
        let reference = SerialEngine::default().run(&n, &p, &faults).unwrap();
        for lane_width in [
            LaneWidth::W64,
            LaneWidth::W256,
            LaneWidth::W512,
            LaneWidth::Auto,
        ] {
            let serial_opts = SerialOptions::new()
                .with_fault_dropping(fault_dropping)
                .with_lane_width(lane_width);
            let r = simulate_with_options(&n, &p, &faults, serial_opts).unwrap();
            prop_assert_eq!(
                &r,
                &reference,
                "serial {:?} dropping {} disagrees (netlist seed {}, {} patterns)",
                lane_width,
                fault_dropping,
                netlist_seed,
                pattern_count
            );
            let ppsfp_opts = PpsfpOptions::new()
                .with_threads(threads)
                .with_fault_dropping(fault_dropping)
                .with_lane_width(lane_width);
            let r = ppsfp_with_options(&n, &p, &faults, ppsfp_opts).unwrap();
            prop_assert_eq!(
                &r,
                &reference,
                "ppsfp {:?} threads {} dropping {} disagrees (netlist seed {}, {} patterns)",
                lane_width,
                threads,
                fault_dropping,
                netlist_seed,
                pattern_count
            );
        }
    }
}
