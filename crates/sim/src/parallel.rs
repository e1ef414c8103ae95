//! 64-way bit-parallel levelized simulation over the compiled [`Kernel`].
//!
//! §IV-A of the paper lists "compiled code Boolean simulation" among the
//! techniques scan design makes viable again: the levelized netlist is
//! flattened once into a straight-line op program over a value array —
//! no per-gate graph traversal, no fan-in vector rebuilding — trading
//! compile time for per-pattern speed. The flattening lives in
//! [`Kernel`]; [`ParallelSim`] pairs a kernel with its netlist for
//! whole-pattern-set runs.

use dft_netlist::{GateId, LevelizeError, Netlist};
use dft_obs::{Collector, Obs};

use crate::{Kernel, PatternSet};

/// A compiled, levelized 64-pattern-parallel simulator for one netlist.
///
/// Construction compiles the netlist into a [`Kernel`] once; each
/// [`ParallelSim::run`] evaluates all blocks of a [`PatternSet`],
/// treating storage elements as frame sources (value = provided present
/// state, default all-0). The complete value matrix is retained so fault
/// simulators and testability tools can observe internal nets, not just
/// primary outputs.
///
/// ```
/// use dft_netlist::circuits::full_adder;
/// use dft_sim::{ParallelSim, PatternSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let fa = full_adder();
/// let sim = ParallelSim::new(&fa)?;
/// // a=1 b=1 cin=0 -> sum=0 cout=1
/// let p = PatternSet::from_rows(3, &[vec![true, true, false]]);
/// let r = sim.run(&p);
/// assert!(!r.output_bit(0, 0)); // sum
/// assert!(r.output_bit(1, 0));  // cout
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ParallelSim<'n> {
    netlist: &'n Netlist,
    kernel: Kernel,
}

/// The response of a parallel simulation run: per-gate packed values for
/// every 64-pattern block.
#[derive(Clone, Debug)]
pub struct Response {
    pattern_count: usize,
    gate_count: usize,
    outputs: Vec<GateId>,
    storage: Vec<GateId>,
    /// `values[block][gate]`
    values: Vec<Vec<u64>>,
}

impl<'n> ParallelSim<'n> {
    /// Compiles a simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the netlist has a combinational cycle.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ok(ParallelSim {
            netlist,
            kernel: Kernel::new(netlist)?,
        })
    }

    /// The netlist this simulator was compiled for.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Runs all patterns with every storage element's present state at 0.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set width disagrees with the netlist's
    /// primary input count.
    #[must_use]
    pub fn run(&self, patterns: &PatternSet) -> Response {
        self.run_with(patterns, None)
    }

    /// [`ParallelSim::run`] feeding telemetry to an optional collector.
    ///
    /// Opens a `sim.compiled` span and flushes `patterns`, `blocks` and
    /// `ops_executed` (instruction count × 64-lane blocks — the
    /// straight-line program executes every op exactly once per block;
    /// on the wide path one wide dispatch covers several blocks but the
    /// counter stays in 64-lane-block units so runs are comparable
    /// across lane widths) after the run; nothing is counted inside the
    /// block loop.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_with(&self, patterns: &PatternSet, obs: Option<&mut dyn Collector>) -> Response {
        let mut obs = Obs::new(obs);
        obs.enter("sim.compiled");
        let state = vec![vec![0u64; self.kernel.storage_slots().len()]; patterns.block_count()];
        let response = self.run_with_state(patterns, &state);
        obs.count("patterns", patterns.len() as u64);
        obs.count("blocks", patterns.block_count() as u64);
        obs.count(
            "ops_executed",
            self.kernel.op_count() as u64 * patterns.block_count() as u64,
        );
        obs.exit();
        response
    }

    /// Runs all patterns with explicit present-state words per block
    /// (`state[block][storage_index]`, storage order as returned by
    /// [`Netlist::storage_elements`]).
    ///
    /// Workloads of at least eight 64-pattern blocks take the 512-lane
    /// cache-blocked path: blocks are grouped into `[u64; 8]` wide
    /// blocks and evaluated band-major (see [`Kernel::level_bands`]);
    /// the remainder falls back to the scalar per-block loop. The
    /// responses are bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches between the pattern set, state matrix
    /// and netlist.
    #[must_use]
    pub fn run_with_state(&self, patterns: &PatternSet, state: &[Vec<u64>]) -> Response {
        assert_eq!(
            patterns.input_count(),
            self.netlist.primary_inputs().len(),
            "pattern width must match primary input count"
        );
        assert_eq!(
            state.len(),
            patterns.block_count(),
            "one state vector per pattern block required"
        );
        let storage = self.kernel.storage_slots().len();
        assert!(
            state.iter().all(|s| s.len() == storage),
            "state vectors must match the storage element count"
        );
        let mut values = Vec::with_capacity(patterns.block_count());
        self.run_wide_groups::<8>(patterns, state, &mut values);
        for (b, state_words) in state.iter().enumerate().skip(values.len()) {
            values.push(self.eval_block(patterns.block(b), state_words));
        }
        Response {
            pattern_count: patterns.len(),
            gate_count: self.netlist.gate_count(),
            outputs: self
                .netlist
                .primary_outputs()
                .iter()
                .map(|&(g, _)| g)
                .collect(),
            storage: self.netlist.storage_elements(),
            values,
        }
    }

    /// Evaluates one block of packed input words (and packed present
    /// state), returning packed values for every gate.
    ///
    /// Storage gates are **not** overwritten — their slot keeps the
    /// present-state value; the next state is available at their data
    /// driver's slot (see [`Response::next_state_word`]).
    ///
    /// # Panics
    ///
    /// Panics if `pi_words` or `state_words` have the wrong length.
    #[must_use]
    pub fn eval_block(&self, pi_words: &[u64], state_words: &[u64]) -> Vec<u64> {
        self.kernel.eval_block(pi_words, state_words)
    }

    /// Evaluates as many full groups of `W` consecutive 64-lane blocks
    /// as the pattern set holds, appending one value array per 64-lane
    /// block to `values` (deinterleaved from the wide results). Groups
    /// are swept band-major in batches so the band's slots stay hot
    /// across pattern blocks without holding the whole run resident.
    fn run_wide_groups<const W: usize>(
        &self,
        patterns: &PatternSet,
        state: &[Vec<u64>],
        values: &mut Vec<Vec<u64>>,
    ) {
        let full_groups = patterns.block_count() / W;
        if full_groups == 0 {
            return;
        }
        let bands = self.kernel.level_bands_for_width(W);
        // Batch size bounds resident memory at gate_count × W × 16 words.
        const GROUPS_PER_BATCH: usize = 16;
        for batch_start in (0..full_groups).step_by(GROUPS_PER_BATCH) {
            let batch_end = (batch_start + GROUPS_PER_BATCH).min(full_groups);
            let mut blocks: Vec<Vec<[u64; W]>> = (batch_start..batch_end)
                .map(|g| {
                    let mut vals = vec![[0u64; W]; self.kernel.gate_count()];
                    self.kernel.init_constants_wide(&mut vals);
                    for (i, &slot) in self.kernel.pi_slots().iter().enumerate() {
                        vals[slot as usize] = gather(g * W, |b| patterns.block(b)[i]);
                    }
                    for (i, &slot) in self.kernel.storage_slots().iter().enumerate() {
                        vals[slot as usize] = gather(g * W, |b| state[b][i]);
                    }
                    vals
                })
                .collect();
            self.kernel.eval_blocks_banded(&bands, &mut blocks);
            for wide in &blocks {
                for w in 0..W {
                    values.push(wide.iter().map(|b| b[w]).collect());
                }
            }
        }
    }
}

/// Packs source word `word(first + w)` of `W` consecutive 64-lane blocks
/// into one wide block.
fn gather<const W: usize>(first: usize, word: impl Fn(usize) -> u64) -> [u64; W] {
    std::array::from_fn(|w| word(first + w))
}

impl Response {
    /// Number of patterns simulated.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Packed values of one gate in one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[must_use]
    pub fn word(&self, gate: GateId, block: usize) -> u64 {
        self.values[block][gate.index()]
    }

    /// The value of `gate` under pattern `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn gate_bit(&self, gate: GateId, pattern: usize) -> bool {
        assert!(pattern < self.pattern_count, "pattern out of range");
        self.values[pattern / 64][gate.index()] >> (pattern % 64) & 1 == 1
    }

    /// The value of primary output `output` (by position) under `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn output_bit(&self, output: usize, pattern: usize) -> bool {
        self.gate_bit(self.outputs[output], pattern)
    }

    /// Extracts the primary output row for one pattern.
    #[must_use]
    pub fn output_row(&self, pattern: usize) -> Vec<bool> {
        (0..self.outputs.len())
            .map(|o| self.output_bit(o, pattern))
            .collect()
    }

    /// Packed next-state word for storage element `i` in `block` — the
    /// value captured from the element's data input.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn next_state_word(&self, netlist: &Netlist, i: usize, block: usize) -> u64 {
        let dff = self.storage[i];
        let d = netlist.gate(dff).inputs()[0];
        self.values[block][d.index()]
    }

    /// Number of gates in the simulated netlist.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Logic, ThreeValueSim};
    use dft_netlist::circuits::{
        c17, full_adder, random_combinational, random_sequential, wallace_multiplier,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks every gate of every pattern against [`ThreeValueSim`], a
    /// per-gate levelized walker that shares neither the [`Kernel`] nor
    /// the packed word fold, so it is an independent oracle. `state`
    /// gives the present-state words per block (`None`: storage at 0).
    fn agree_with_walker(n: &Netlist, patterns: &PatternSet, state: Option<&[Vec<u64>]>) {
        let sim = ParallelSim::new(n).unwrap();
        let resp = match state {
            Some(state) => sim.run_with_state(patterns, state),
            None => sim.run(patterns),
        };
        let walker = ThreeValueSim::new(n).unwrap();
        for p in 0..patterns.len() {
            let pis: Vec<Logic> = patterns.get(p).into_iter().map(Logic::from).collect();
            let present: Vec<Logic> = (0..walker.storage().len())
                .map(|i| Logic::from(state.is_some_and(|s| s[p / 64][i] >> (p % 64) & 1 == 1)))
                .collect();
            let want = walker.eval(&pis, &present);
            for (g, v) in want.iter().enumerate() {
                assert_eq!(
                    Some(resp.gate_bit(GateId::from_index(g), p)),
                    v.to_bool(),
                    "gate {g} pattern {p} on {}",
                    n.name()
                );
            }
        }
    }

    #[test]
    fn matches_walker_on_c17_exhaustive() {
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        agree_with_walker(&c17(), &PatternSet::from_rows(5, &rows), None);
    }

    #[test]
    fn matches_walker_on_random_logic() {
        for seed in 0..4 {
            let n = random_combinational(12, 200, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 99);
            agree_with_walker(&n, &PatternSet::random(12, 100, &mut rng), None);
        }
    }

    #[test]
    fn matches_walker_on_multiplier_with_constants() {
        // The multiplier's final pass emits Const0 sums — exercises the
        // constant-initialization path.
        let n = wallace_multiplier(4);
        let mut rng = StdRng::seed_from_u64(3);
        agree_with_walker(&n, &PatternSet::random(8, 64, &mut rng), None);
    }

    #[test]
    fn wide_path_matches_walker() {
        // 9 blocks: one full 512-lane group plus a scalar remainder, so
        // both paths and the seam between them are exercised.
        let n = random_combinational(14, 250, 21);
        let mut rng = StdRng::seed_from_u64(17);
        agree_with_walker(&n, &PatternSet::random(14, 9 * 64, &mut rng), None);
        // Non-multiple-of-64 tail on top of the wide path.
        agree_with_walker(&n, &PatternSet::random(14, 8 * 64 + 13, &mut rng), None);
    }

    #[test]
    fn present_state_matches_walker_on_both_paths() {
        // A random FSM over 8 × 64 + 13 patterns: the present state rides
        // the wide group and the scalar tail block alike.
        let n = random_sequential(3, 5, 12, 2, 7);
        let mut rng = StdRng::seed_from_u64(23);
        let patterns = PatternSet::random(3, 8 * 64 + 13, &mut rng);
        let state: Vec<Vec<u64>> = (0..patterns.block_count())
            .map(|_| (0..5).map(|_| rng.next_u64()).collect())
            .collect();
        agree_with_walker(&n, &patterns, Some(&state));
    }

    #[test]
    fn full_adder_truth_table() {
        let fa = full_adder();
        let sim = ParallelSim::new(&fa).unwrap();
        let mut rows = Vec::new();
        for bits in 0..8u8 {
            rows.push(vec![bits & 1 == 1, bits & 2 == 2, bits & 4 == 4]);
        }
        let p = PatternSet::from_rows(3, &rows);
        let r = sim.run(&p);
        for bits in 0..8usize {
            let ones = (bits & 1) + (bits >> 1 & 1) + (bits >> 2 & 1);
            assert_eq!(r.output_bit(0, bits), ones % 2 == 1, "sum {bits}");
            assert_eq!(r.output_bit(1, bits), ones >= 2, "cout {bits}");
        }
    }

    #[test]
    fn state_words_feed_dff_consumers() {
        use dft_netlist::{GateKind, Netlist};
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, q]).unwrap();
        n.mark_output(y, "y").unwrap();
        let sim = ParallelSim::new(&n).unwrap();
        let p = PatternSet::from_rows(1, &[vec![true], vec![true]]);
        // pattern 0 with state 0, pattern 1 with state 1
        let state = vec![vec![0b10u64]];
        let r = sim.run_with_state(&p, &state);
        assert!(r.output_bit(0, 0)); // 1 ^ 0
        assert!(!r.output_bit(0, 1)); // 1 ^ 1
                                      // next state = a = 1 for both lanes
        assert_eq!(r.next_state_word(&n, 0, 0) & 0b11, 0b11);
    }
}
