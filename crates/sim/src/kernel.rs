//! The compiled simulation kernel: a flattened, cache-friendly program.
//!
//! [`Kernel`] lowers a levelized netlist into structure-of-arrays form:
//! one straight-line op stream in evaluation order, with every gate's
//! operand slots stored contiguously in a CSR-style index pool. No graph
//! traversal, no per-gate `Vec` rebuilding, no pointer chasing — the hot
//! loop touches four flat arrays. It is the shared execution core behind
//! [`ParallelSim`](crate::ParallelSim) (whole-netlist runs) and the PPSFP
//! fault simulator in `dft-fault` (cone-restricted incremental runs).
//!
//! Because ops are emitted in levelization order, an op's index is also a
//! topological timestamp: any subset of ops replayed in ascending index
//! order evaluates each gate after all of its in-subset drivers. The
//! cone-restricted fault engines rely on exactly this property.

use std::ops::Range;

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};

use crate::word;

/// A netlist compiled into a flat SoA op program over 64-lane words.
///
/// Value state lives outside the kernel in a caller-owned slot array of
/// `gate_count` words (indexed by [`GateId::index`]), so one kernel can
/// serve many concurrent evaluation contexts (one per thread) without
/// aliasing.
#[derive(Clone, Debug)]
pub struct Kernel {
    gate_count: usize,
    /// Per-op gate kind, in levelized evaluation order.
    kinds: Vec<GateKind>,
    /// Per-op destination slot.
    dst: Vec<u32>,
    /// CSR offsets into `args`: op `i` reads `args[arg_start[i]..arg_start[i+1]]`.
    arg_start: Vec<u32>,
    /// Flattened operand slot indices for every op.
    args: Vec<u32>,
    /// Gate index → op index (`u32::MAX` for sources, which have no op).
    op_of_gate: Vec<u32>,
    /// Primary-input slots, in `Netlist::primary_inputs` order.
    pi_slots: Vec<u32>,
    /// Storage-element slots, in `Netlist::storage_elements` order.
    storage_slots: Vec<u32>,
    /// Slots of `Const1` gates (sources whose word is all-ones).
    const1_slots: Vec<u32>,
}

impl Kernel {
    /// Compiles `netlist` into a flat op program over its levelization.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let lv = netlist.levelize()?;
        let n = netlist.gate_count();
        let mut kinds = Vec::new();
        let mut dst = Vec::new();
        let mut arg_start = vec![0u32];
        let mut args = Vec::new();
        let mut op_of_gate = vec![u32::MAX; n];
        for &id in lv.order() {
            let gate = netlist.gate(id);
            if gate.kind().is_source() {
                continue;
            }
            op_of_gate[id.index()] = kinds.len() as u32;
            kinds.push(gate.kind());
            dst.push(id.index() as u32);
            args.extend(gate.inputs().iter().map(|s| s.index() as u32));
            arg_start.push(args.len() as u32);
        }
        Ok(Kernel {
            gate_count: n,
            kinds,
            dst,
            arg_start,
            args,
            op_of_gate,
            pi_slots: netlist
                .primary_inputs()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            storage_slots: netlist
                .storage_elements()
                .iter()
                .map(|g| g.index() as u32)
                .collect(),
            const1_slots: netlist
                .iter()
                .filter(|(_, g)| g.kind() == GateKind::Const1)
                .map(|(id, _)| id.index() as u32)
                .collect(),
        })
    }

    /// Number of value slots (= gate count of the compiled netlist).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Number of compiled ops (non-source gates).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.kinds.len()
    }

    /// The op that computes `gate`, or `None` if it is a source (primary
    /// input or storage output — its slot is written by the caller).
    #[must_use]
    pub fn op_of_gate(&self, gate: GateId) -> Option<usize> {
        match self.op_of_gate[gate.index()] {
            u32::MAX => None,
            op => Some(op as usize),
        }
    }

    /// Kind of op `i`.
    #[must_use]
    pub fn op_kind(&self, i: usize) -> GateKind {
        self.kinds[i]
    }

    /// Destination slot of op `i`.
    #[must_use]
    pub fn op_dst(&self, i: usize) -> u32 {
        self.dst[i]
    }

    /// Operand slots of op `i`.
    #[must_use]
    pub fn op_args(&self, i: usize) -> &[u32] {
        &self.args[self.arg_start[i] as usize..self.arg_start[i + 1] as usize]
    }

    /// Primary-input slots, in `Netlist::primary_inputs` order.
    #[must_use]
    pub fn pi_slots(&self) -> &[u32] {
        &self.pi_slots
    }

    /// Storage-element slots, in `Netlist::storage_elements` order.
    #[must_use]
    pub fn storage_slots(&self) -> &[u32] {
        &self.storage_slots
    }

    /// Evaluates op `i` with operands supplied by `read` (slot → word).
    ///
    /// This is the cone-restricted entry point: a fault simulator reads
    /// changed slots from its own overlay and unchanged slots from a
    /// cached baseline.
    #[inline]
    #[must_use]
    pub fn eval_op_with(&self, i: usize, mut read: impl FnMut(u32) -> u64) -> u64 {
        word::fold_word(self.kinds[i], self.op_args(i).iter().map(|&a| read(a)))
    }

    /// Writes the constant-source words into `vals` (`Const1` slots become
    /// all-ones; `Const0` slots are left for the caller's zero-fill).
    /// Constants are sources in this netlist model, so they are not ops —
    /// call this (or zero-init plus it) before [`Kernel::eval_into`].
    pub fn init_constants(&self, vals: &mut [u64]) {
        for &slot in &self.const1_slots {
            vals[slot as usize] = u64::MAX;
        }
    }

    /// Runs the whole program over `vals` in place. Source slots (primary
    /// inputs, storage, constants — see [`Kernel::init_constants`]) must
    /// already hold their words; every other slot is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != gate_count`.
    pub fn eval_into(&self, vals: &mut [u64]) {
        assert_eq!(vals.len(), self.gate_count, "value array width mismatch");
        for i in 0..self.kinds.len() {
            let word = self.eval_op_with(i, |a| vals[a as usize]);
            vals[self.dst[i] as usize] = word;
        }
    }

    /// Evaluates one packed 64-lane block with present-state words
    /// `state_words` (in [`Kernel::storage_slots`] order), returning a
    /// freshly allocated value array. Storage slots keep their
    /// present-state word; the next state sits at each element's data
    /// driver's slot.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words` or `state_words` disagree with the primary
    /// input or storage element count.
    #[must_use]
    pub fn eval_block(&self, pi_words: &[u64], state_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            pi_words.len(),
            self.pi_slots.len(),
            "pattern width must match primary input count"
        );
        assert_eq!(
            state_words.len(),
            self.storage_slots.len(),
            "state width must match storage element count"
        );
        let mut vals = vec![0u64; self.gate_count];
        self.init_constants(&mut vals);
        let sources = self.pi_slots.iter().chain(&self.storage_slots);
        for (&slot, &w) in sources.zip(pi_words.iter().chain(state_words)) {
            vals[slot as usize] = w;
        }
        self.eval_into(&mut vals);
        vals
    }

    /// Evaluates op `i` over wide blocks with operands supplied by `read`
    /// (slot → `[u64; W]`): the lane-width-parametric twin of
    /// [`Kernel::eval_op_with`], used by the wide fault engines' overlay
    /// reads.
    #[inline]
    #[must_use]
    pub fn eval_op_wide_with<const W: usize>(
        &self,
        i: usize,
        mut read: impl FnMut(u32) -> [u64; W],
    ) -> [u64; W] {
        word::fold_wide(self.kinds[i], self.op_args(i).iter().map(|&a| read(a)))
    }

    /// Writes the constant-source wide blocks into `vals` (the wide twin
    /// of [`Kernel::init_constants`]).
    pub fn init_constants_wide<const W: usize>(&self, vals: &mut [[u64; W]]) {
        for &slot in &self.const1_slots {
            vals[slot as usize] = [u64::MAX; W];
        }
    }

    /// Runs ops `range` over wide-block `vals` in place, assuming every
    /// slot an in-range op reads is already valid — either a source slot
    /// or the destination of an earlier op. Calling this with consecutive
    /// ranges covering `0..op_count` is equivalent to one
    /// [`Kernel::eval_into_wide`] sweep; the cache-blocked drivers use
    /// exactly that decomposition (see [`Kernel::level_bands`]).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != gate_count` or `range` is out of bounds.
    pub fn eval_range_wide<const W: usize>(&self, range: Range<usize>, vals: &mut [[u64; W]]) {
        assert_eq!(vals.len(), self.gate_count, "value array width mismatch");
        assert!(range.end <= self.kinds.len(), "op range out of bounds");
        for i in range {
            let block = self.eval_op_wide_with(i, |a| vals[a as usize]);
            vals[self.dst[i] as usize] = block;
        }
    }

    /// Runs the whole program over wide-block `vals` in place: the
    /// `[u64; W]` twin of [`Kernel::eval_into`]. Source slots must
    /// already hold their blocks; every other slot is overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != gate_count`.
    pub fn eval_into_wide<const W: usize>(&self, vals: &mut [[u64; W]]) {
        self.eval_range_wide(0..self.kinds.len(), vals);
    }

    /// Evaluates one packed wide block (`64 × W` patterns) with storage
    /// held at 0, returning a freshly allocated value array. The `W = 1`
    /// instantiation matches [`Kernel::eval_block`] with all-zero state
    /// word-for-word.
    ///
    /// # Panics
    ///
    /// Panics if `pi_blocks.len()` disagrees with the primary input count.
    #[must_use]
    pub fn eval_block_wide<const W: usize>(&self, pi_blocks: &[[u64; W]]) -> Vec<[u64; W]> {
        assert_eq!(
            pi_blocks.len(),
            self.pi_slots.len(),
            "pattern width must match primary input count"
        );
        let mut vals = vec![[0u64; W]; self.gate_count];
        self.init_constants_wide(&mut vals);
        for (&slot, &b) in self.pi_slots.iter().zip(pi_blocks) {
            vals[slot as usize] = b;
        }
        self.eval_into_wide(&mut vals);
        vals
    }

    /// Default per-band working-set budget in bytes, sized to leave a
    /// comfortable share of a typical 32 KiB L1d for the band's op
    /// metadata and the pattern blocks being swept.
    pub const BAND_BYTES: usize = 16 * 1024;

    /// [`Kernel::level_bands`] with the slot budget derived from
    /// [`Kernel::BAND_BYTES`] for wide blocks of `words` × `u64` (never
    /// fewer than 32 slots per band, so tiny budgets cannot degenerate
    /// into per-op bands).
    #[must_use]
    pub fn level_bands_for_width(&self, words: usize) -> Vec<Range<usize>> {
        self.level_bands((Self::BAND_BYTES / (8 * words.max(1))).max(32))
    }

    /// Partitions the op stream into contiguous *bands* whose slot
    /// working sets stay within `max_slots` distinct slots (destinations
    /// plus operands), for cache-blocked sweeps: evaluating one band
    /// across many pattern blocks back-to-back keeps both the band's op
    /// metadata and its value slots hot instead of streaming the whole
    /// netlist's state through cache once per block.
    ///
    /// Bands preserve op order, so replaying every band in sequence is a
    /// full levelized sweep; a band always contains at least one op even
    /// if that op alone exceeds the budget.
    #[must_use]
    pub fn level_bands(&self, max_slots: usize) -> Vec<Range<usize>> {
        let mut bands = Vec::new();
        let mut start = 0usize;
        // Epoch-stamped membership test: slot_seen[s] == epoch means slot
        // s is already counted in the current band.
        let mut slot_seen = vec![0u32; self.gate_count];
        let mut epoch = 0u32;
        let mut band_slots = 0usize;
        for i in 0..self.kinds.len() {
            let mut op_new = 0usize;
            let dst = self.dst[i] as usize;
            if slot_seen[dst] != epoch + 1 {
                op_new += 1;
            }
            for &a in self.op_args(i) {
                if slot_seen[a as usize] != epoch + 1 {
                    op_new += 1;
                }
            }
            if band_slots + op_new > max_slots && i > start {
                bands.push(start..i);
                start = i;
                epoch += 1;
                band_slots = 0;
            }
            // (Re)count this op's slots against the current band.
            if slot_seen[dst] != epoch + 1 {
                slot_seen[dst] = epoch + 1;
                band_slots += 1;
            }
            for &a in self.op_args(i) {
                if slot_seen[a as usize] != epoch + 1 {
                    slot_seen[a as usize] = epoch + 1;
                    band_slots += 1;
                }
            }
        }
        if start < self.kinds.len() {
            bands.push(start..self.kinds.len());
        }
        bands
    }

    /// Evaluates many wide pattern blocks band-major: for each level band
    /// (see [`Kernel::level_bands`]), sweep that band across *all* blocks
    /// before moving on. Each entry of `blocks` is a full value array
    /// (`gate_count` wide slots) with sources already loaded; on return it
    /// holds the fully evaluated values, identical to calling
    /// [`Kernel::eval_into_wide`] per block.
    ///
    /// `bands` must come from [`Kernel::level_bands`] on this kernel (or
    /// otherwise tile `0..op_count` in order).
    ///
    /// # Panics
    ///
    /// Panics if any block's length differs from `gate_count`.
    pub fn eval_blocks_banded<const W: usize>(
        &self,
        bands: &[Range<usize>],
        blocks: &mut [Vec<[u64; W]>],
    ) {
        for band in bands {
            for vals in blocks.iter_mut() {
                self.eval_range_wide(band.clone(), vals);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, random_combinational};
    use dft_netlist::GateKind;

    #[test]
    fn ops_are_in_ascending_topological_order() {
        let n = random_combinational(10, 150, 11);
        let k = Kernel::new(&n).unwrap();
        for i in 0..k.op_count() {
            for &a in k.op_args(i) {
                let src = GateId::from_index(a as usize);
                if let Some(src_op) = k.op_of_gate(src) {
                    assert!(src_op < i, "op {i} reads slot written by later op");
                }
            }
        }
    }

    #[test]
    fn sources_have_no_op() {
        let n = c17();
        let k = Kernel::new(&n).unwrap();
        for &pi in n.primary_inputs() {
            assert_eq!(k.op_of_gate(pi), None);
        }
        assert_eq!(k.op_count(), 6);
    }

    #[test]
    fn wide_block_matches_per_word_blocks() {
        let n = random_combinational(12, 200, 3);
        let k = Kernel::new(&n).unwrap();
        // Four distinct 64-lane input blocks, evaluated once as a single
        // 256-lane wide block and once word-by-word.
        let pi_blocks: Vec<[u64; 4]> = (0..12u32)
            .map(|i| {
                [
                    0x0123_4567_89AB_CDEFu64.rotate_left(i),
                    0xFEDC_BA98_7654_3210u64.rotate_right(i),
                    u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    !u64::from(i),
                ]
            })
            .collect();
        let wide = k.eval_block_wide::<4>(&pi_blocks);
        for w in 0..4 {
            let pi: Vec<u64> = pi_blocks.iter().map(|b| b[w]).collect();
            let narrow = k.eval_block(&pi, &[]);
            for (slot, &v) in narrow.iter().enumerate() {
                assert_eq!(wide[slot][w], v, "slot {slot} word {w}");
            }
        }
    }

    #[test]
    fn banded_eval_matches_full_sweep() {
        let n = random_combinational(12, 300, 9);
        let k = Kernel::new(&n).unwrap();
        let pi_blocks: Vec<[u64; 4]> = (0..12u32)
            .map(|i| [u64::from(i) * 3, !(u64::from(i) << 7), 0xAAAA, u64::MAX])
            .collect();
        let reference = k.eval_block_wide::<4>(&pi_blocks);
        // Absurdly small budget forces many bands; results must not change.
        for budget in [1, 7, 64, 100_000] {
            let bands = k.level_bands(budget);
            assert_eq!(bands.last().unwrap().end, k.op_count());
            assert_eq!(bands[0].start, 0);
            for pair in bands.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "bands must tile the op stream");
            }
            let mut vals = vec![[0u64; 4]; k.gate_count()];
            k.init_constants_wide(&mut vals);
            for (&slot, &b) in k.pi_slots().iter().zip(&pi_blocks) {
                vals[slot as usize] = b;
            }
            let mut blocks = vec![vals];
            k.eval_blocks_banded(&bands, &mut blocks);
            assert_eq!(blocks[0], reference, "budget {budget}");
        }
    }

    #[test]
    fn constants_are_compiled_as_ops() {
        let mut n = dft_netlist::Netlist::new("t");
        let one = n.add_const(true);
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::And, &[one, a]).unwrap();
        n.mark_output(y, "y").unwrap();
        let k = Kernel::new(&n).unwrap();
        let vals = k.eval_block(&[u64::MAX], &[]);
        assert_eq!(vals[one.index()], u64::MAX);
        assert_eq!(vals[y.index()], u64::MAX);
    }
}
