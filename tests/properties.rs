//! Property-based tests (proptest) over the toolkit's core invariants.

use design_for_testability::fault::{collapse, simulate, universe};
use design_for_testability::lfsr::{Lfsr, Polynomial, SignatureRegister};
use design_for_testability::netlist::circuits::{random_combinational, random_sequential};
use design_for_testability::netlist::{bench_format, Netlist};
use design_for_testability::scan::extract_test_view;
use design_for_testability::sim::{ParallelSim, PatternSet};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_combinational() -> impl Strategy<Value = Netlist> {
    (2usize..10, 5usize..80, any::<u64>())
        .prop_map(|(inputs, gates, seed)| random_combinational(inputs, gates, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated netlist levelizes and round-trips through the
    /// `.bench` format with identical structure and behaviour.
    #[test]
    fn bench_format_round_trip_preserves_behaviour(n in arb_combinational(), pat_seed: u64) {
        let text = bench_format::write(&n);
        let back = bench_format::parse(&text, n.name()).expect("own output parses");
        prop_assert_eq!(back.primary_inputs().len(), n.primary_inputs().len());
        prop_assert_eq!(back.primary_outputs().len(), n.primary_outputs().len());

        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        let patterns = PatternSet::random(n.primary_inputs().len(), 16, &mut rng);
        let r1 = ParallelSim::new(&n).unwrap().run(&patterns);
        let r2 = ParallelSim::new(&back).unwrap().run(&patterns);
        for p in 0..patterns.len() {
            prop_assert_eq!(r1.output_row(p), r2.output_row(p));
        }
    }

    /// Equivalence-collapsed representatives detect exactly when their
    /// class members do.
    #[test]
    fn collapse_classes_share_detection(n in arb_combinational(), pat_seed: u64) {
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        let patterns = PatternSet::random(n.primary_inputs().len(), 24, &mut rng);
        let full = simulate(&n, &patterns, &faults).unwrap();
        for i in 0..faults.len() {
            let rep = col.representative(i);
            let rep_idx = faults.iter().position(|&f| f == rep).unwrap();
            prop_assert_eq!(
                full.first_detected[i].is_some(),
                full.first_detected[rep_idx].is_some(),
                "fault {} vs representative {}", faults[i], rep
            );
        }
    }

    /// The combinational test view of a sequential machine computes the
    /// same frame function as the machine itself.
    #[test]
    fn test_view_matches_frame_semantics(
        state_bits in 1usize..6,
        gates in 4usize..25,
        seed: u64,
        frame_seed: u64,
    ) {
        let n = random_sequential(3, state_bits, gates, 2, seed);
        let view = extract_test_view(&n).expect("levelizes");
        let orig = ParallelSim::new(&n).unwrap();
        let vsim = ParallelSim::new(view.netlist()).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(frame_seed);
        let pi = PatternSet::random(3, 8, &mut rng);
        let state_rows = PatternSet::random(state_bits, 8, &mut rng);
        for p in 0..8 {
            let pi_row = pi.get(p);
            let st_row = state_rows.get(p);
            // Original: run one frame with explicit state.
            let one = PatternSet::from_rows(3, std::slice::from_ref(&pi_row));
            let st_words = vec![st_row
                .iter()
                .map(|&b| if b { u64::MAX } else { 0 })
                .collect::<Vec<u64>>()];
            let r_orig = orig.run_with_state(&one, &st_words);
            // View: PIs followed by pseudo-PIs.
            let mut row = pi_row.clone();
            row.extend(st_row.iter().copied());
            let r_view = vsim.run(&PatternSet::from_rows(3 + state_bits, &[row]));
            // POs agree.
            for o in 0..n.primary_outputs().len() {
                prop_assert_eq!(r_orig.output_bit(o, 0), r_view.output_bit(o, 0));
            }
            // Next state agrees with the pseudo-POs.
            for k in 0..state_bits {
                let ns = r_orig.next_state_word(&n, k, 0) & 1 == 1;
                prop_assert_eq!(
                    r_view.output_bit(n.primary_outputs().len() + k, 0),
                    ns
                );
            }
        }
    }

    /// Signature registers are linear: sig(a ⊕ e) == sig(a) ⊕ sig(e) with
    /// a zero-seeded register.
    #[test]
    fn signature_register_is_linear(
        stream in proptest::collection::vec(any::<bool>(), 1..200),
        error in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let len = stream.len().min(error.len());
        let poly = Polynomial::primitive(16).unwrap();
        let sig = |bits: &[bool]| {
            let mut r = SignatureRegister::new(poly);
            r.shift_in_stream(bits.iter().copied());
            r.signature()
        };
        let a: Vec<bool> = stream[..len].to_vec();
        let e: Vec<bool> = error[..len].to_vec();
        let xored: Vec<bool> = a.iter().zip(&e).map(|(&x, &y)| x ^ y).collect();
        prop_assert_eq!(sig(&xored), sig(&a) ^ sig(&e));
    }

    /// Maximal-length LFSR periods divide (equal) 2^n − 1 for table
    /// polynomials.
    #[test]
    fn primitive_lfsr_periods(degree in 2u32..12, seed in 1u64..1000) {
        let poly = Polynomial::primitive(degree).unwrap();
        let seed = (seed % ((1 << degree) - 1)) + 1;
        let lfsr = Lfsr::fibonacci(poly, seed & poly.state_mask() | 1);
        prop_assert_eq!(lfsr.period(), (1u64 << degree) - 1);
    }

    /// The Kernel-compiled block simulator agrees with the fault
    /// injector's fault-free per-gate walker — which shares no code with
    /// the Kernel beyond the word fold — on every gate of every block.
    /// Pattern counts up to 600 put runs on both sides of the 512-lane
    /// wide path and its scalar tail.
    #[test]
    fn parallel_sim_matches_faulty_view_walker(
        n in arb_combinational(),
        pat_seed: u64,
        count in 1usize..600,
    ) {
        use design_for_testability::fault::FaultyView;
        use design_for_testability::netlist::GateId;
        let mut rng = rand::rngs::StdRng::seed_from_u64(pat_seed);
        let patterns = PatternSet::random(n.primary_inputs().len(), count, &mut rng);
        let resp = ParallelSim::new(&n).unwrap().run(&patterns);
        let view = FaultyView::new(&n).unwrap();
        for b in 0..patterns.block_count() {
            let want = view.eval_block(patterns.block(b), &[], None);
            for (g, &w) in want.iter().enumerate() {
                prop_assert_eq!(resp.word(GateId::from_index(g), b), w, "gate {} block {}", g, b);
            }
        }
    }

    /// Multi-site PODEM with a single site behaves exactly like the
    /// single-fault entry point.
    #[test]
    fn multi_site_podem_degenerates_to_single(n in arb_combinational()) {
        use design_for_testability::atpg::{Podem, PodemConfig};
        let solver = Podem::new(&n, PodemConfig::default()).unwrap();
        for f in universe(&n).into_iter().step_by(7) {
            let single = solver.solve(f).0;
            let multi = solver.solve_any_of(&[f]).0;
            prop_assert_eq!(single, multi);
        }
    }
}
