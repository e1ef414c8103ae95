//! PPSFP: parallel-pattern single-fault propagation.
//!
//! The high-throughput fault-grading engine. Where classic parallel-fault
//! simulation packs 63 faulty *machines* per word under one pattern,
//! PPSFP packs **many patterns per wide block under one fault** — the
//! dual layout — and then refuses to do almost all of the work a naive
//! engine would:
//!
//! * **Compiled kernel.** Good-machine responses come from the flat
//!   SoA/CSR [`Kernel`](dft_sim::Kernel) shared with
//!   [`ParallelSim`](dft_sim::ParallelSim), evaluated once per pattern
//!   block and cached for every gate (not just the outputs).
//! * **Wide words.** Blocks are `[u64; W]` wide words carrying `64 × W`
//!   patterns (`W` = 1/4/8 → 64/256/512 lanes, the [`LaneWidth`] knob;
//!   default picks per workload). One op dispatch — kind match, CSR
//!   operand walk, event scheduling — is amortized over the whole wide
//!   block, and the unrolled `W`-word loops vectorize.
//! * **Cache-blocked baseline sweep.** The good-machine pass partitions
//!   the op stream into level bands whose slot working sets fit in L1
//!   (see [`Kernel::level_bands`]) and sweeps each band across all
//!   pattern blocks before the next, so band metadata and slots stay hot
//!   instead of streaming the whole netlist's state per block.
//! * **Cone-restricted event propagation.** A fault can only disturb its
//!   structural fanout cone. Disturbed slots schedule their readers (a
//!   global op-indexed CSR, built once per engine) into a levelized
//!   event bitset, so each block folds exactly the gates an event
//!   actually reached — inert faults cost one block compare per wide
//!   block, and no per-fault cone is ever materialized.
//! * **Site-group propagation memo.** Faults at one site that force the
//!   same value onto it (any AND input stuck-at-0 collapses to the
//!   output stuck-at-0, etc.) propagate identically within a block; the
//!   engine memoizes per-block output differences by forced root value
//!   and replays them with one wide compare.
//! * **Fault dropping.** A fault detected in any lane leaves the active
//!   list; remaining blocks are never simulated for it.
//! * **Multi-threaded fault partitioning.** The collapsed fault list is
//!   grouped by fault site (groups share one site load and memo) and the
//!   groups are pulled from a shared atomic work queue by
//!   `std::thread::scope` workers, each with private scratch state;
//!   per-fault results are merged at the end. Results are deterministic
//!   regardless of scheduling because faults are independent.
//!
//! Detection semantics are identical to [`crate::simulate`] and
//! independent of lane width (first detecting pattern per fault;
//! cross-checked by tests and proptests — tail lanes of a ragged final
//! block are masked at detection only).

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use dft_netlist::{GateId, LevelizeError, Netlist, Pin};
use dft_obs::{Collector, Obs};
use dft_sim::word::{fold_wide, stuck_wide, LaneWidth};
use dft_sim::{Kernel, PatternSet};

use crate::{DetectionResult, Fault};

/// Tuning knobs for a PPSFP run.
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct PpsfpOptions {
    /// Worker threads. `0` (the default) uses the machine's available
    /// parallelism, capped by the number of fault-site groups.
    pub threads: usize,
    /// Stop simulating a fault once one pattern detects it (default
    /// `true`). Turning it off does not change the result — first
    /// detection is recorded either way — only the work performed, which
    /// makes it the honest baseline for work-avoidance measurements.
    pub fault_dropping: bool,
    /// Patterns per wide block (default [`LaneWidth::Auto`]: 256 lanes
    /// for workloads of ≥ 4 blocks, else 64). Never changes the result,
    /// only the block shape the engine runs over.
    pub lane_width: LaneWidth,
}

impl Default for PpsfpOptions {
    fn default() -> Self {
        PpsfpOptions {
            threads: 0,
            fault_dropping: true,
            lane_width: LaneWidth::Auto,
        }
    }
}

impl PpsfpOptions {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        PpsfpOptions::default()
    }

    /// Sets [`PpsfpOptions::threads`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets [`PpsfpOptions::fault_dropping`].
    #[must_use]
    pub fn with_fault_dropping(mut self, fault_dropping: bool) -> Self {
        self.fault_dropping = fault_dropping;
        self
    }

    /// Sets [`PpsfpOptions::lane_width`].
    #[must_use]
    pub fn with_lane_width(mut self, lane_width: LaneWidth) -> Self {
        self.lane_width = lane_width;
        self
    }
}

/// Worker-local effort counters, merged across threads after the
/// partitioned run (plain integer bumps in the hot loop; never shared
/// while the workers are live, so there is no synchronization cost).
#[derive(Clone, Copy, Debug, Default)]
struct WorkCounters {
    /// Fault-site groups loaded (one per distinct fault-site gate).
    cones_loaded: u64,
    /// Fault × wide-block injection attempts (`propagate` calls).
    block_scans: u64,
    /// Injection attempts that actually disturbed the cone.
    excited_blocks: u64,
    /// `u64` words folded for disturbed cone gates (gate evaluations ×
    /// lane width — the hot loop's unit of work, comparable across
    /// widths).
    words_folded: u64,
}

impl WorkCounters {
    fn merge(&mut self, other: WorkCounters) {
        self.cones_loaded += other.cones_loaded;
        self.block_scans += other.block_scans;
        self.excited_blocks += other.excited_blocks;
        self.words_folded += other.words_folded;
    }
}

/// A PPSFP engine compiled for one netlist, reusable across pattern
/// batches (the random-ATPG grading loop calls [`Ppsfp::run`] once per
/// 64-pattern chunk without recompiling).
#[derive(Debug)]
pub struct Ppsfp<'n> {
    netlist: &'n Netlist,
    kernel: Kernel,
    /// Global reader CSR: the op indices of the distinct non-storage
    /// readers of slot `g` are
    /// `reader_pool[reader_start[g]..reader_start[g + 1]]`. Because op
    /// index order is levelized order, every reader op of a slot has a
    /// strictly higher index than the op driving that slot — the
    /// invariant the event loop's single-pass scan rests on.
    reader_start: Vec<u32>,
    reader_pool: Vec<u32>,
    /// Whether a combinational path leads from gate `g` to any primary
    /// output (gates that are POs themselves included). Faults at
    /// unreachable sites are structurally undetectable; the per-fault
    /// loop exits before touching any pattern block.
    reaches_output: Vec<bool>,
    /// Gate index → primary-output position, `u16::MAX` if not a PO.
    output_of: Vec<u16>,
    options: PpsfpOptions,
}

/// Cached good-machine state for one pattern set, in wide blocks.
struct Baseline<const W: usize> {
    /// `blocks[wb][slot]`: packed good values of every gate in wide
    /// block `wb` (`64 × W` patterns).
    blocks: Vec<Vec<[u64; W]>>,
    /// Valid-lane mask per wide block: tail words of a ragged final
    /// block are zero, the last ragged word is a low-lane mask.
    lane_masks: Vec<[u64; W]>,
}

impl<'n> Ppsfp<'n> {
    /// Compiles the engine for `netlist` with default options.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ppsfp::with_options(netlist, PpsfpOptions::default())
    }

    /// Compiles the engine for `netlist` with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn with_options(
        netlist: &'n Netlist,
        options: PpsfpOptions,
    ) -> Result<Self, LevelizeError> {
        let kernel = Kernel::new(netlist)?;
        let mut reader_start = Vec::with_capacity(netlist.gate_count() + 1);
        let mut reader_pool: Vec<u32> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        reader_start.push(0u32);
        for readers in netlist.fanout_map() {
            seen.clear();
            for (reader, _pin) in readers {
                // A storage reader captures into next state only; within
                // the combinational frame its output cannot change.
                if netlist.gate(reader).kind().is_storage() {
                    continue;
                }
                let r = reader.index() as u32;
                if seen.contains(&r) {
                    continue;
                }
                seen.push(r);
                if let Some(rop) = kernel.op_of_gate(reader) {
                    reader_pool.push(rop as u32);
                }
            }
            reader_start.push(reader_pool.len() as u32);
        }
        let mut output_of = vec![u16::MAX; netlist.gate_count()];
        assert!(
            netlist.primary_outputs().len() < usize::from(u16::MAX),
            "more than 65534 primary outputs"
        );
        for (oi, &(g, _)) in netlist.primary_outputs().iter().enumerate() {
            output_of[g.index()] = oi as u16;
        }
        // Reverse levelized sweep: a gate reaches an output iff it is one
        // or drives (through combinational ops) a gate that does.
        let mut reaches_output: Vec<bool> = output_of.iter().map(|&o| o != u16::MAX).collect();
        for op in (0..kernel.op_count()).rev() {
            if reaches_output[kernel.op_dst(op) as usize] {
                for &a in kernel.op_args(op) {
                    reaches_output[a as usize] = true;
                }
            }
        }
        Ok(Ppsfp {
            netlist,
            kernel,
            reader_start,
            reader_pool,
            reaches_output,
            output_of,
            options,
        })
    }

    /// The op indices reading slot `g` (combinational readers only).
    #[inline]
    fn reader_ops(&self, g: usize) -> &[u32] {
        &self.reader_pool[self.reader_start[g] as usize..self.reader_start[g + 1] as usize]
    }

    /// The compiled netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The options this engine was built with.
    #[must_use]
    pub fn options(&self) -> PpsfpOptions {
        self.options
    }

    /// Fault-simulates `faults` against `patterns`, producing the same
    /// [`DetectionResult`] as [`crate::simulate`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run(&self, patterns: &PatternSet, faults: &[Fault]) -> DetectionResult {
        self.run_with(patterns, faults, None)
    }

    /// [`Ppsfp::run`] feeding telemetry to an optional collector.
    ///
    /// Opens a `fault_sim.ppsfp` span with counters `faults`,
    /// `patterns`, `good_evals` (baseline 64-lane block equivalents),
    /// `lane_words` (resolved lane width in words), `cones_loaded`,
    /// `block_scans`, `excited_blocks`, `words_folded` (disturbed-gate
    /// evaluations × lane width — the engine's unit of hot-loop work),
    /// `detected`, `dropped`, plus a `coverage` gauge. Workers count
    /// into private integers merged after the join, so the hot loop
    /// never crosses a `dyn` boundary and `None` costs nothing
    /// measurable.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_with(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> DetectionResult {
        match self
            .options
            .lane_width
            .resolve_words(patterns.block_count())
        {
            8 => self.run_width::<8>(patterns, faults, obs),
            4 => self.run_width::<4>(patterns, faults, obs),
            _ => self.run_width::<1>(patterns, faults, obs),
        }
    }

    /// [`Ppsfp::run_with`] monomorphized for one wide-block width.
    fn run_width<const W: usize>(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> DetectionResult {
        let mut obs = Obs::new(obs);
        obs.enter("fault_sim.ppsfp");
        let baseline = self.baseline::<W>(patterns);
        let dropping = self.options.fault_dropping;
        let (first_detected, work) = self.run_partitioned::<W, _, _>(faults, |worker, fault| {
            worker.detect(fault, &baseline, dropping)
        });
        let result = DetectionResult {
            first_detected,
            pattern_count: patterns.len(),
        };
        let detected = result.detected_count() as u64;
        self.flush::<W>(&mut obs, faults.len(), patterns, &work);
        obs.count("detected", detected);
        obs.count("dropped", if dropping { detected } else { 0 });
        obs.gauge("coverage", result.coverage());
        obs.exit();
        result
    }

    /// [`Ppsfp::run`] over a fault *stream*: faults are pulled from the
    /// iterator in chunks of `chunk_faults` and simulated against a
    /// baseline computed once, so no full `Vec<Fault>` is ever
    /// materialized — the working set is one chunk plus the per-fault
    /// result vector. With a streaming enumerator
    /// ([`crate::stream::FaultUniverse::iter`] or
    /// [`crate::stream::CollapsedUniverse::representatives`]) a
    /// 10⁶-gate netlist fault-grades without the ~10⁷-entry fault list.
    ///
    /// Detection is **bit-identical** to [`Ppsfp::run`] on the
    /// materialized list: faults are independent, dropping is per-fault,
    /// and results concatenate in stream order.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist or
    /// `chunk_faults == 0`.
    #[must_use]
    pub fn run_streamed(
        &self,
        patterns: &PatternSet,
        faults: impl IntoIterator<Item = Fault>,
        chunk_faults: usize,
    ) -> DetectionResult {
        assert!(chunk_faults > 0, "chunk size must be positive");
        match self
            .options
            .lane_width
            .resolve_words(patterns.block_count())
        {
            8 => self.run_streamed_width::<8>(patterns, faults, chunk_faults),
            4 => self.run_streamed_width::<4>(patterns, faults, chunk_faults),
            _ => self.run_streamed_width::<1>(patterns, faults, chunk_faults),
        }
    }

    /// [`Ppsfp::run_streamed`] monomorphized for one wide-block width.
    fn run_streamed_width<const W: usize>(
        &self,
        patterns: &PatternSet,
        faults: impl IntoIterator<Item = Fault>,
        chunk_faults: usize,
    ) -> DetectionResult {
        let baseline = self.baseline::<W>(patterns);
        let dropping = self.options.fault_dropping;
        let mut faults = faults.into_iter();
        let mut first_detected: Vec<Option<usize>> = Vec::new();
        let mut chunk: Vec<Fault> = Vec::with_capacity(chunk_faults);
        loop {
            chunk.clear();
            chunk.extend(faults.by_ref().take(chunk_faults));
            if chunk.is_empty() {
                break;
            }
            let (detected, _) = self.run_partitioned::<W, _, _>(&chunk, |worker, fault| {
                worker.detect(fault, &baseline, dropping)
            });
            first_detected.extend(detected);
        }
        DetectionResult {
            first_detected,
            pattern_count: patterns.len(),
        }
    }

    /// Full-syndrome fault simulation: for every fault, the complete set
    /// of `(pattern, output)` observations it corrupts (no dropping) —
    /// the payload a [`crate::FaultDictionary`] needs.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_syndromes(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> Vec<BTreeSet<(u32, u16)>> {
        self.run_syndromes_with(patterns, faults, None)
    }

    /// [`Ppsfp::run_syndromes`] feeding telemetry to an optional
    /// collector (same `fault_sim.ppsfp` span and counters as
    /// [`Ppsfp::run_with`], plus `syndrome_bits` for the total
    /// observations collected; no `detected`/`dropped` since syndromes
    /// never drop).
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist.
    #[must_use]
    pub fn run_syndromes_with(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Vec<BTreeSet<(u32, u16)>> {
        match self
            .options
            .lane_width
            .resolve_words(patterns.block_count())
        {
            8 => self.run_syndromes_width::<8>(patterns, faults, obs),
            4 => self.run_syndromes_width::<4>(patterns, faults, obs),
            _ => self.run_syndromes_width::<1>(patterns, faults, obs),
        }
    }

    /// [`Ppsfp::run_syndromes_with`] monomorphized for one width.
    fn run_syndromes_width<const W: usize>(
        &self,
        patterns: &PatternSet,
        faults: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> Vec<BTreeSet<(u32, u16)>> {
        let mut obs = Obs::new(obs);
        obs.enter("fault_sim.ppsfp");
        let baseline = self.baseline::<W>(patterns);
        let (syndromes, work) = self
            .run_partitioned::<W, _, _>(faults, |worker, fault| worker.syndromes(fault, &baseline));
        self.flush::<W>(&mut obs, faults.len(), patterns, &work);
        obs.count(
            "syndrome_bits",
            syndromes.iter().map(|s| s.len() as u64).sum(),
        );
        obs.exit();
        syndromes
    }

    /// Flushes the merged worker counters into a collector.
    fn flush<const W: usize>(
        &self,
        obs: &mut Obs<'_>,
        fault_count: usize,
        patterns: &PatternSet,
        w: &WorkCounters,
    ) {
        obs.count("faults", fault_count as u64);
        obs.count("patterns", patterns.len() as u64);
        obs.count("good_evals", patterns.block_count() as u64);
        obs.count("lane_words", W as u64);
        obs.count("cones_loaded", w.cones_loaded);
        obs.count("block_scans", w.block_scans);
        obs.count("excited_blocks", w.excited_blocks);
        obs.count("words_folded", w.words_folded);
    }

    /// Computes the good-machine baseline in wide blocks, band-major:
    /// each level band is swept across every wide block before the next
    /// band runs (the cache-blocked levelized sweep).
    fn baseline<const W: usize>(&self, patterns: &PatternSet) -> Baseline<W> {
        assert_eq!(
            patterns.input_count(),
            self.netlist.primary_inputs().len(),
            "pattern width must match primary input count"
        );
        let nb = patterns.block_count();
        let wide_count = nb.div_ceil(W);
        let mut blocks = Vec::with_capacity(wide_count);
        let mut lane_masks = Vec::with_capacity(wide_count);
        for wb in 0..wide_count {
            let mut vals = vec![[0u64; W]; self.kernel.gate_count()];
            self.kernel.init_constants_wide(&mut vals);
            for (i, &slot) in self.kernel.pi_slots().iter().enumerate() {
                let mut wide = [0u64; W];
                for (w, lane) in wide.iter_mut().enumerate() {
                    let b = wb * W + w;
                    if b < nb {
                        *lane = patterns.block(b)[i];
                    }
                }
                vals[slot as usize] = wide;
            }
            blocks.push(vals);
            let mut mask = [0u64; W];
            for (w, m) in mask.iter_mut().enumerate() {
                let b = wb * W + w;
                if b < nb {
                    let lanes = patterns.lanes_in_block(b);
                    *m = if lanes == 64 {
                        u64::MAX
                    } else {
                        (1u64 << lanes) - 1
                    };
                }
            }
            lane_masks.push(mask);
        }
        let bands = self.kernel.level_bands_for_width(W);
        self.kernel.eval_blocks_banded(&bands, &mut blocks);
        Baseline { blocks, lane_masks }
    }

    /// Runs `per_fault` over every fault, partitioned by fault-site group
    /// across the configured worker threads, returning results in fault
    /// order plus the merged per-worker effort counters.
    fn run_partitioned<const W: usize, R, F>(
        &self,
        faults: &[Fault],
        per_fault: F,
    ) -> (Vec<R>, WorkCounters)
    where
        R: Send,
        F: Fn(&mut Worker<'_, W>, Fault) -> R + Sync,
    {
        // Group faults sharing a site gate so each group computes its
        // fanout cone exactly once.
        let mut group_of: Vec<Option<usize>> = vec![None; self.netlist.gate_count()];
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for (fi, f) in faults.iter().enumerate() {
            let root = f.site.gate.index();
            let gi = *group_of[root].get_or_insert_with(|| {
                groups.push((root as u32, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push(fi as u32);
        }

        let threads = self.resolve_threads(groups.len());
        let mut merged: Vec<Option<R>> = (0..faults.len()).map(|_| None).collect();
        let mut work = WorkCounters::default();
        if threads <= 1 {
            let mut worker = Worker::<W>::new(self);
            for (root, fids) in &groups {
                worker.load_group(*root);
                for &fi in fids {
                    merged[fi as usize] = Some(per_fault(&mut worker, faults[fi as usize]));
                }
            }
            work = worker.counters;
        } else {
            let cursor = AtomicUsize::new(0);
            let chunks = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut worker = Worker::<W>::new(self);
                            let mut out: Vec<(u32, R)> = Vec::new();
                            loop {
                                let g = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some((root, fids)) = groups.get(g) else {
                                    break;
                                };
                                worker.load_group(*root);
                                for &fi in fids {
                                    out.push((fi, per_fault(&mut worker, faults[fi as usize])));
                                }
                            }
                            (out, worker.counters)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("ppsfp worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (chunk, counters) in chunks {
                work.merge(counters);
                for (fi, r) in chunk {
                    merged[fi as usize] = Some(r);
                }
            }
        }
        (
            merged
                .into_iter()
                .map(|r| r.expect("every fault visited exactly once"))
                .collect(),
            work,
        )
    }

    fn resolve_threads(&self, group_count: usize) -> usize {
        let t = if self.options.threads > 0 {
            self.options.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        };
        t.clamp(1, group_count.max(1))
    }
}

/// Per-thread scratch state: the current fault site plus a private
/// mutable copy of the baseline that faulty values are written into
/// directly and rolled back from an undo list after every block — so
/// the hot loop reads one value array with no faulty/good merge branch.
/// Monomorphized per wide-block width.
///
/// There is no explicit cone computation: the engine's global reader
/// CSR ([`Ppsfp::reader_ops`]) restricts propagation to the fault's
/// structural fanout cone implicitly, because only readers of disturbed
/// slots are ever scheduled.
struct Worker<'a, const W: usize> {
    eng: &'a Ppsfp<'a>,
    root: u32,
    /// The root gate's own op, if it has one (None for sources/storage).
    root_op: Option<u32>,
    /// First event-bitset word the root's readers can occupy — the scan
    /// start (all later events sit at strictly higher op indices).
    root_word: usize,
    /// Worker-private baseline copy. Propagation mutates it in place and
    /// [`Worker::revert`] restores it bit-for-bit, so between blocks it
    /// always equals the shared baseline.
    work: Vec<Vec<[u64; W]>>,
    /// `(slot, baseline value)` of every slot overwritten this block.
    /// Each slot appears at most once (the event loop folds each op at
    /// most once per block), so restore order is irrelevant.
    undo: Vec<(u32, [u64; W])>,
    /// Event bitset over op indices: bit set = op has a disturbed
    /// driver and must be folded. Always all-zero between blocks (every
    /// set bit is consumed by the propagate loop).
    sched: Vec<u64>,
    /// `(slot, baseline value)` of primary outputs disturbed in the
    /// current block, collected while writing so detection touches only
    /// them instead of scanning every output in the cone.
    touched_outputs: Vec<(u32, [u64; W])>,
    /// Per-block propagation memo for the current fault-site group:
    /// `(forced root value, OR of output faulty-vs-baseline diffs)`.
    /// Faults at one site often force identical root values, and equal
    /// root values propagate identically within a block.
    memo: Vec<Vec<([u64; W], [u64; W])>>,
    /// Thread-private effort counters (merged by `run_partitioned`).
    counters: WorkCounters,
}

impl<'a, const W: usize> Worker<'a, W> {
    fn new(eng: &'a Ppsfp<'a>) -> Self {
        Worker {
            eng,
            root: 0,
            root_op: None,
            root_word: 0,
            work: Vec::new(),
            undo: Vec::new(),
            sched: vec![0; eng.kernel.op_count().div_ceil(64)],
            touched_outputs: Vec::new(),
            memo: Vec::new(),
            counters: WorkCounters::default(),
        }
    }

    /// Points the worker at a fault-site gate. O(fanout of the site):
    /// all propagation structure is global and precomputed.
    fn load_group(&mut self, root: u32) {
        self.counters.cones_loaded += 1;
        self.root = root;
        self.root_op = self
            .eng
            .kernel
            .op_of_gate(GateId::from_index(root as usize))
            .map(|op| op as u32);
        self.root_word = self
            .eng
            .reader_ops(root as usize)
            .iter()
            .map(|&q| q as usize / 64)
            .min()
            .unwrap_or(0);
        for m in &mut self.memo {
            m.clear();
        }
    }

    /// Sets the event bits for a slice of op indices.
    #[inline]
    fn schedule(sched: &mut [u64], ops: &[u32]) {
        for &q in ops {
            let q = q as usize;
            sched[q / 64] |= 1u64 << (q % 64);
        }
    }

    /// Clones the shared baseline into this worker's mutable working
    /// copy. Runs at most once per worker per run: every propagate is
    /// rolled back, so once cloned the copy stays equal to the baseline
    /// between blocks.
    fn ensure_work(&mut self, baseline: &Baseline<W>) {
        if self.work.len() != baseline.blocks.len() {
            self.work = baseline.blocks.clone();
            self.memo = vec![Vec::new(); baseline.blocks.len()];
        }
    }

    /// Restores the working block to baseline by replaying the undo log.
    fn revert(&mut self, work: &mut [[u64; W]]) {
        for (slot, old) in self.undo.drain(..) {
            work[slot as usize] = old;
        }
    }

    /// The wide value `fault` forces on its site gate's output in this
    /// block, or `None` when the fault is invisible to the combinational
    /// frame (a stuck data pin on a storage element corrupts the
    /// *captured* state only). Two faults forcing the same value on the
    /// same root propagate identically — the key the per-group memo
    /// dedupes on.
    fn faulty_root(&self, fault: Fault, work: &[[u64; W]]) -> Option<[u64; W]> {
        match fault.site.pin {
            Pin::Output => {
                // Forced output block (source or logic gate alike). Tail
                // lanes are forced too; they are masked at detection.
                Some(stuck_wide::<W>(fault.stuck))
            }
            Pin::Input(p) => self.root_op.map(|op| {
                let kernel = &self.eng.kernel;
                let op = op as usize;
                let forced = usize::from(p);
                fold_wide(
                    kernel.op_kind(op),
                    kernel.op_args(op).iter().enumerate().map(|(i, &a)| {
                        if i == forced {
                            stuck_wide::<W>(fault.stuck)
                        } else {
                            work[a as usize]
                        }
                    }),
                )
            }),
        }
    }

    /// Injects `fault` into the working block `work` (a baseline copy)
    /// and event-propagates through the cone, overwriting disturbed
    /// slots in place and logging their baseline values in `undo`.
    /// Returns `true` if the fault was excited (some gate differs from
    /// baseline in some lane this block); the caller must [`revert`]
    /// before reusing the block.
    ///
    /// [`revert`]: Worker::revert
    fn propagate(&mut self, fault: Fault, work: &mut [[u64; W]]) -> bool {
        self.counters.block_scans += 1;
        match self.faulty_root(fault, work) {
            Some(fw) if fw != work[self.root as usize] => {
                self.inject(fw, work);
                true
            }
            _ => false,
        }
    }

    /// Excites the root with the already-computed forced value `fw`
    /// (which must differ from baseline) and runs the event loop.
    fn inject(&mut self, fw: [u64; W], work: &mut [[u64; W]]) {
        self.touched_outputs.clear();
        debug_assert!(self.undo.is_empty(), "previous block not reverted");
        let root = self.root as usize;
        let eng = self.eng;
        let kernel = &eng.kernel;
        let old = work[root];
        self.undo.push((self.root, old));
        if eng.output_of[root] != u16::MAX {
            self.touched_outputs.push((self.root, old));
        }
        work[root] = fw;
        Self::schedule(&mut self.sched, eng.reader_ops(root));
        // Event loop: always pop the lowest pending bit from the LIVE
        // bitset word (never a stale local copy, which could leapfrog an
        // event scheduled mid-word at a lower index). Ascending bit
        // position is ascending op index is levelized order, and a fold
        // only schedules strictly higher indices (readers sit at higher
        // levels), so indices at or below the current minimum can never
        // be re-set: every op is folded at most once per block, after
        // all of its disturbed drivers, and the bitset drains to
        // all-zero by exit. A fold reads `work` directly — disturbed
        // drivers already hold their final faulty value, everything else
        // is baseline — and `work[dst]` still holds baseline (each dst
        // has exactly one driver op, folded at most once), so the
        // write-back doubles as the disturbance test. Telemetry stays in
        // a register-resident local, folded into the worker counter once
        // per block.
        let mut folded = 0u64;
        let mut wi = self.root_word;
        while wi < self.sched.len() {
            let word = self.sched[wi];
            if word == 0 {
                wi += 1;
                continue;
            }
            self.sched[wi] = word & (word - 1);
            let op = wi * 64 + word.trailing_zeros() as usize;
            let out = fold_wide(
                kernel.op_kind(op),
                kernel.op_args(op).iter().map(|&a| work[a as usize]),
            );
            folded += 1;
            let dst = kernel.op_dst(op) as usize;
            if out != work[dst] {
                let old = work[dst];
                self.undo.push((dst as u32, old));
                if eng.output_of[dst] != u16::MAX {
                    self.touched_outputs.push((dst as u32, old));
                }
                work[dst] = out;
                Self::schedule(&mut self.sched, eng.reader_ops(dst));
            }
        }
        self.counters.excited_blocks += 1;
        self.counters.words_folded += folded * W as u64;
    }

    /// First detecting pattern of `fault`, or `None`. The wide pattern
    /// index decomposes as `(wide_block × W + word) × 64 + lane`, so
    /// scanning blocks, then words, then trailing zeros yields the same
    /// "first detecting pattern" the 64-lane engine reports.
    ///
    /// Per-block propagation results are memoized by forced root value
    /// within the current fault-site group (`memo` is cleared on
    /// `load_group`): an input-pin fault frequently forces the same
    /// output block a stuck-output fault already propagated (e.g. any
    /// AND-input stuck-at-0 collapses to the output stuck-at-0 in every
    /// lane that excites it), and the memo turns those repeat
    /// propagations into one wide-word compare.
    fn detect(&mut self, fault: Fault, baseline: &Baseline<W>, dropping: bool) -> Option<usize> {
        if !self.eng.reaches_output[self.root as usize] {
            return None; // no structural path to any output
        }
        self.ensure_work(baseline);
        let mut blocks = std::mem::take(&mut self.work);
        let mut first = None;
        for (wb, block) in blocks.iter_mut().enumerate() {
            self.counters.block_scans += 1;
            let Some(fw) = self.faulty_root(fault, block) else {
                break; // frame-invisible: true for every block
            };
            if fw == block[self.root as usize] {
                continue; // not excited this block
            }
            let diff = match self.memo[wb].iter().find(|(v, _)| *v == fw) {
                Some(&(_, d)) => d,
                None => {
                    self.inject(fw, block);
                    // OR the disturbed outputs' faulty-vs-baseline
                    // differences.
                    let mut diff = [0u64; W];
                    for &(slot, ref old) in &self.touched_outputs {
                        let f = &block[slot as usize];
                        for w in 0..W {
                            diff[w] |= f[w] ^ old[w];
                        }
                    }
                    self.revert(block);
                    self.memo[wb].push((fw, diff));
                    diff
                }
            };
            let mask = &baseline.lane_masks[wb];
            if first.is_none() {
                for w in 0..W {
                    let d = diff[w] & mask[w];
                    if d != 0 {
                        first = Some((wb * W + w) * 64 + d.trailing_zeros() as usize);
                        break;
                    }
                }
                if first.is_some() && dropping {
                    break;
                }
            }
        }
        self.work = blocks;
        first
    }

    /// Every `(pattern, output)` observation `fault` corrupts.
    fn syndromes(&mut self, fault: Fault, baseline: &Baseline<W>) -> BTreeSet<(u32, u16)> {
        let mut syn = BTreeSet::new();
        if !self.eng.reaches_output[self.root as usize] {
            return syn;
        }
        self.ensure_work(baseline);
        let mut blocks = std::mem::take(&mut self.work);
        for (wb, block) in blocks.iter_mut().enumerate() {
            if !self.propagate(fault, block) {
                continue;
            }
            for &(slot, ref old) in &self.touched_outputs {
                let oi = self.eng.output_of[slot as usize];
                let f = &block[slot as usize];
                for w in 0..W {
                    let mut diff = (f[w] ^ old[w]) & baseline.lane_masks[wb][w];
                    while diff != 0 {
                        let lane = diff.trailing_zeros();
                        syn.insert((((wb * W + w) * 64) as u32 + lane, oi));
                        diff &= diff - 1;
                    }
                }
            }
            self.revert(block);
        }
        self.work = blocks;
        syn
    }
}

/// Fault-simulates with the PPSFP engine (wide pattern blocks per fault,
/// cone-restricted, fault-dropping, threaded).
///
/// Produces the same [`DetectionResult`] as [`crate::simulate`]; prefer
/// this engine whenever the workload is large.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn ppsfp(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
) -> Result<DetectionResult, LevelizeError> {
    ppsfp_with_options(netlist, patterns, faults, PpsfpOptions::default())
}

/// [`ppsfp`] with explicit [`PpsfpOptions`].
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn ppsfp_with_options(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
    options: PpsfpOptions,
) -> Result<DetectionResult, LevelizeError> {
    ppsfp_observed(netlist, patterns, faults, options, None)
}

/// [`ppsfp_with_options`] feeding telemetry to an optional collector
/// (see [`Ppsfp::run_with`] for the span and counter set).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn ppsfp_observed(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
    options: PpsfpOptions,
    obs: Option<&mut dyn Collector>,
) -> Result<DetectionResult, LevelizeError> {
    Ok(Ppsfp::with_options(netlist, options)?.run_with(patterns, faults, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, universe};
    use dft_netlist::circuits::{c17, full_adder, majority, parity_tree, random_combinational};
    use dft_netlist::{GateKind, PortRef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exhaustive_patterns(n: usize) -> PatternSet {
        let rows: Vec<Vec<bool>> = (0..1usize << n)
            .map(|v| (0..n).map(|i| v >> i & 1 == 1).collect())
            .collect();
        PatternSet::from_rows(n, &rows)
    }

    #[test]
    fn agrees_with_serial_on_small_circuits() {
        for n in [c17(), full_adder(), majority(), parity_tree(5)] {
            let faults = universe(&n);
            let p = exhaustive_patterns(n.primary_inputs().len());
            let a = simulate(&n, &p, &faults).unwrap();
            let b = ppsfp(&n, &p, &faults).unwrap();
            assert_eq!(a, b, "ppsfp disagrees on {}", n.name());
        }
    }

    #[test]
    fn agrees_with_serial_on_random_logic_all_thread_counts() {
        for seed in 0..3 {
            let n = random_combinational(12, 180, seed);
            let faults = universe(&n);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
            let p = PatternSet::random(12, 150, &mut rng); // 3 blocks, ragged tail
            let reference = simulate(&n, &p, &faults).unwrap();
            for threads in [1, 2, 5] {
                for fault_dropping in [true, false] {
                    let opts = PpsfpOptions::new()
                        .with_threads(threads)
                        .with_fault_dropping(fault_dropping);
                    let r = ppsfp_with_options(&n, &p, &faults, opts).unwrap();
                    assert_eq!(
                        r, reference,
                        "seed {seed} threads {threads} dropping {fault_dropping}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_lane_widths_agree_with_serial() {
        // Enough patterns for Auto to pick the 512-lane path, with a
        // ragged tail block and a partial wide group (10 blocks = one
        // 8-block group + 2 tail blocks at W = 8).
        let n = random_combinational(12, 220, 5);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let p = PatternSet::random(12, 10 * 64 - 17, &mut rng);
        let reference = simulate(&n, &p, &faults).unwrap();
        for lane_width in [
            LaneWidth::Auto,
            LaneWidth::W64,
            LaneWidth::W256,
            LaneWidth::W512,
        ] {
            for fault_dropping in [true, false] {
                let opts = PpsfpOptions::new()
                    .with_threads(1)
                    .with_fault_dropping(fault_dropping)
                    .with_lane_width(lane_width);
                let r = ppsfp_with_options(&n, &p, &faults, opts).unwrap();
                assert_eq!(r, reference, "{lane_width:?} dropping {fault_dropping}");
            }
        }
    }

    #[test]
    fn redundant_fault_stays_undetected() {
        let mut n = dft_netlist::Netlist::new("redundant");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let fault = Fault::stuck_at_0(PortRef::output(g));
        let r = ppsfp(&n, &exhaustive_patterns(2), &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![None]);
    }

    #[test]
    fn fault_off_every_output_cone_is_undetected() {
        // A dangling gate drives nothing: its faults cannot be observed.
        let mut n = dft_netlist::Netlist::new("t");
        let a = n.add_input("a");
        let dead = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Buf, &[a]).unwrap();
        n.mark_output(y, "y").unwrap();
        let faults = [
            Fault::stuck_at_1(PortRef::output(dead)),
            Fault::stuck_at_0(PortRef::input(dead, 0)),
        ];
        let r = ppsfp(&n, &exhaustive_patterns(1), &faults).unwrap();
        assert_eq!(r.first_detected, vec![None, None]);
    }

    #[test]
    fn dff_data_pin_fault_is_frame_invisible() {
        // Matches the serial engine: a stuck DFF data pin corrupts capture
        // only, which single-frame grading does not observe.
        let mut n = dft_netlist::Netlist::new("t");
        let a = n.add_input("a");
        let q = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, q]).unwrap();
        n.mark_output(y, "y").unwrap();
        let faults = universe(&n);
        let p = exhaustive_patterns(1);
        let a_r = simulate(&n, &p, &faults).unwrap();
        let b_r = ppsfp(&n, &p, &faults).unwrap();
        assert_eq!(a_r, b_r);
    }

    #[test]
    fn syndromes_match_brute_force() {
        let n = c17();
        let faults = universe(&n);
        let p = exhaustive_patterns(5);
        let eng = Ppsfp::new(&n).unwrap();
        let syn = eng.run_syndromes(&p, &faults);
        let view = crate::FaultyView::new(&n).unwrap();
        let outputs: Vec<_> = n.primary_outputs().iter().map(|&(g, _)| g).collect();
        for (fi, &f) in faults.iter().enumerate() {
            let mut expect = BTreeSet::new();
            for (pi, row) in p.iter().enumerate() {
                let words: Vec<u64> = row.iter().map(|&b| u64::from(b)).collect();
                let good = view.eval_block(&words, &[], None);
                let bad = view.eval_block(&words, &[], Some(f));
                for (oi, &g) in outputs.iter().enumerate() {
                    if (good[g.index()] ^ bad[g.index()]) & 1 != 0 {
                        expect.insert((pi as u32, oi as u16));
                    }
                }
            }
            assert_eq!(syn[fi], expect, "fault {f}");
        }
    }

    #[test]
    fn syndromes_agree_across_lane_widths() {
        let n = random_combinational(10, 120, 13);
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(2);
        let p = PatternSet::random(10, 9 * 64 + 5, &mut rng);
        let reference =
            Ppsfp::with_options(&n, PpsfpOptions::new().with_lane_width(LaneWidth::W64))
                .unwrap()
                .run_syndromes(&p, &faults);
        for lane_width in [LaneWidth::W256, LaneWidth::W512, LaneWidth::Auto] {
            let eng =
                Ppsfp::with_options(&n, PpsfpOptions::new().with_lane_width(lane_width)).unwrap();
            assert_eq!(eng.run_syndromes(&p, &faults), reference, "{lane_width:?}");
        }
    }

    #[test]
    fn reusable_engine_matches_one_shot() {
        let n = random_combinational(10, 100, 9);
        let faults = universe(&n);
        let eng = Ppsfp::new(&n).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..3 {
            let p = PatternSet::random(10, 70, &mut rng);
            assert_eq!(eng.run(&p, &faults), ppsfp(&n, &p, &faults).unwrap());
        }
    }
}
