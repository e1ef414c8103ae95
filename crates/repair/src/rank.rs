//! Static pre-ranking of candidate edits — no simulation involved.
//!
//! Fault simulation is the expensive step of the autopilot, so
//! candidates are ordered by *static* evidence first and only the top
//! few reach the PPSFP verifier. Two static signals mirror the paper's
//! §II argument that testability is measurable without test generation:
//!
//! * **SCOAP difficulty delta** — `total_difficulty(before) −
//!   total_difficulty(after)`: how much easier the whole netlist becomes
//!   to control and observe.
//! * **Statically-untestable-fault delta** — how many provably
//!   untestable faults the edit removes (folded redundancy leaves the
//!   fault universe; new access makes old faults provable-testable).
//!
//! Both are integers, the score is integer arithmetic, and ties break on
//! the candidate key — the ranking is bit-for-bit deterministic.

use dft_analyze::AnalysisCache;
use dft_fault::{prefilter_with, universe};
use dft_implic::ImplicationEngine;
use dft_netlist::{GateId, GateKind, Netlist};

use crate::candidate::{apply_edit, Candidate, Edited};

/// Weight of one removed-untestable-fault against one point of SCOAP
/// difficulty. Untestable faults are coverage poison (they cap the
/// achievable fraction), so one of them outweighs any plausible
/// difficulty swing on the circuits this toolkit targets.
const UNTESTABLE_WEIGHT: i128 = 10_000;

/// Static baseline measures of a netlist, computed once per round and
/// shared by every candidate scored against it.
#[derive(Clone, Copy, Debug)]
pub struct StaticBaseline {
    /// SCOAP total difficulty.
    pub difficulty: u64,
    /// Faults in the universe proven untestable by static implication.
    pub untestable: usize,
    /// Total faults in the universe.
    pub fault_count: usize,
}

impl StaticBaseline {
    /// Measures `netlist`. Returns `None` on combinational cycles (the
    /// autopilot refuses those upstream).
    ///
    /// Difficulty is summed over non-constant gates only, matching the
    /// fault universe: a folded-away `Const` gate carries no faults, so
    /// its (infinite, dangling) observability must not poison the score.
    #[must_use]
    pub fn measure(netlist: &Netlist) -> Option<Self> {
        let mut cache = AnalysisCache::new(netlist).ok()?;
        Some(Self::measure_cached(&mut cache))
    }

    /// Measures through a warmed [`AnalysisCache`] — the same numbers as
    /// [`StaticBaseline::measure`] (the framework SCOAP port is
    /// bit-exact), but the ranking loop can rebase one cached clone per
    /// candidate so only each edit's dirty cone is recomputed instead of
    /// the whole netlist.
    #[must_use]
    pub fn measure_cached(cache: &mut AnalysisCache) -> Self {
        let const_mask: Vec<bool> = cache
            .netlist()
            .iter()
            .map(|(_, g)| matches!(g.kind(), GateKind::Const0 | GateKind::Const1))
            .collect();
        let scoap = cache.scoap();
        let difficulty = (0..const_mask.len())
            .filter(|&i| !const_mask[i])
            .map(|i| u64::from(scoap.difficulty(GateId::from_index(i))))
            .sum();
        let faults = universe(cache.netlist());
        let engine = ImplicationEngine::new(cache.netlist());
        let untestable = prefilter_with(&engine, &faults).untestable_count();
        StaticBaseline {
            difficulty,
            untestable,
            fault_count: faults.len(),
        }
    }
}

/// A candidate with its applied netlist and static score.
#[derive(Clone, Debug)]
pub struct RankedCandidate {
    /// The candidate and its provenance.
    pub candidate: Candidate,
    /// The edit, already applied (reused by the verifier — edits are
    /// applied exactly once per round).
    pub edited: Edited,
    /// SCOAP difficulty drop (positive = easier to test).
    pub difficulty_delta: i128,
    /// Statically-untestable faults removed (positive = fewer).
    pub untestable_delta: i128,
    /// The integer rank score; higher is better.
    pub score: i128,
    /// The edited netlist's static measures — the next round's baseline
    /// if this candidate wins.
    pub after: StaticBaseline,
}

/// Applies and scores every candidate against `baseline`, sorts best
/// first (score, then key for determinism), and splits at `top_k`:
/// returns `(kept, pruned_count)`. Candidates that fail to apply
/// (cyclic result — cannot happen with the current transforms, but the
/// signature allows it) are dropped and counted as pruned.
#[must_use]
pub fn rank_candidates(
    netlist: &Netlist,
    baseline: StaticBaseline,
    candidates: Vec<Candidate>,
    top_k: usize,
) -> (Vec<RankedCandidate>, usize) {
    let mut ranked: Vec<RankedCandidate> = Vec::with_capacity(candidates.len());
    let mut dropped = 0usize;
    // One warmed cache for the round; each candidate rebases a clone so
    // scoring only re-solves the edit's dirty cone.
    let base_cache = AnalysisCache::new(netlist).ok().map(|mut c| {
        c.scoap();
        c.constants();
        c
    });
    for candidate in candidates {
        let Ok(edited) = apply_edit(netlist, candidate.edit) else {
            dropped += 1;
            continue;
        };
        let after = match &base_cache {
            Some(base) => {
                let mut cache = base.clone();
                match cache.rebase(&edited.netlist) {
                    Ok(()) => Some(StaticBaseline::measure_cached(&mut cache)),
                    Err(_) => None,
                }
            }
            None => StaticBaseline::measure(&edited.netlist),
        };
        let Some(after) = after else {
            dropped += 1;
            continue;
        };
        let difficulty_delta = i128::from(baseline.difficulty) - i128::from(after.difficulty);
        let untestable_delta = baseline.untestable as i128 - after.untestable as i128;
        // Benefit per unit of hardware: pins are the scarce resource
        // (§III-B's whole premise), so they weigh double.
        let hardware = edited.extra_gates.max(0) as i128 + 2 * edited.extra_pins.max(0) as i128;
        let score =
            (difficulty_delta + UNTESTABLE_WEIGHT * untestable_delta) * 1000 / (hardware + 1);
        ranked.push(RankedCandidate {
            candidate,
            edited,
            difficulty_delta,
            untestable_delta,
            score,
            after,
        });
    }
    ranked.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| a.candidate.edit.key().cmp(&b.candidate.edit.key()))
    });
    let pruned = dropped + ranked.len().saturating_sub(top_k);
    ranked.truncate(top_k);
    (ranked, pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::expand_hints;
    use dft_lint::lint;
    use dft_netlist::circuits::redundant_fixture;

    #[test]
    fn baseline_measures_the_fixture() {
        let n = redundant_fixture();
        let b = StaticBaseline::measure(&n).unwrap();
        assert!(b.untestable > 0, "the fixture has provable redundancy");
        assert!(b.fault_count > b.untestable);
    }

    #[test]
    fn fold_outranks_cosmetic_candidates_on_the_fixture() {
        let n = redundant_fixture();
        let report = lint(&n);
        let cands = expand_hints(report.diagnostics(), &[]);
        let baseline = StaticBaseline::measure(&n).unwrap();
        let total = cands.len();
        let (ranked, pruned) = rank_candidates(&n, baseline, cands, 2);
        assert_eq!(ranked.len() + pruned, total, "pruning is accounted for");
        // Removing provable redundancy dominates the static score.
        assert_eq!(ranked[0].candidate.edit.kind(), "fold");
        assert!(ranked[0].untestable_delta > 0);
        assert!(ranked[0].score > 0);
    }

    #[test]
    fn rebased_scoring_matches_from_scratch_measurement() {
        // The rewire onto AnalysisCache must not move a single number:
        // score every candidate both ways — rebasing a warmed cache
        // clone, and measuring the edited netlist from scratch — and
        // demand byte-identical ranking output.
        let n = redundant_fixture();
        let report = lint(&n);
        let baseline = StaticBaseline::measure(&n).unwrap();
        let cands = expand_hints(report.diagnostics(), &[]);
        let (ranked, _) = rank_candidates(&n, baseline, cands.clone(), usize::MAX);
        // Reference path: the pre-rewire from-scratch scorer.
        let mut reference: Vec<(String, i128, i128, i128)> = Vec::new();
        for candidate in cands {
            let Ok(edited) = apply_edit(&n, candidate.edit) else {
                continue;
            };
            let report = dft_testability::analyze(&edited.netlist).unwrap();
            let difficulty: u64 = edited
                .netlist
                .ids()
                .filter(|&id| {
                    !matches!(
                        edited.netlist.gate(id).kind(),
                        GateKind::Const0 | GateKind::Const1
                    )
                })
                .map(|id| u64::from(report.measure(id).difficulty()))
                .sum();
            let faults = universe(&edited.netlist);
            let engine = ImplicationEngine::new(&edited.netlist);
            let untestable = prefilter_with(&engine, &faults).untestable_count();
            let dd = i128::from(baseline.difficulty) - i128::from(difficulty);
            let ud = baseline.untestable as i128 - untestable as i128;
            let hardware = edited.extra_gates.max(0) as i128 + 2 * edited.extra_pins.max(0) as i128;
            let score = (dd + UNTESTABLE_WEIGHT * ud) * 1000 / (hardware + 1);
            reference.push((candidate.edit.key(), dd, ud, score));
        }
        reference.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        let got: Vec<(String, i128, i128, i128)> = ranked
            .iter()
            .map(|r| {
                (
                    r.candidate.edit.key(),
                    r.difficulty_delta,
                    r.untestable_delta,
                    r.score,
                )
            })
            .collect();
        assert_eq!(got, reference, "cache-rebased ranking diverged");
    }

    #[test]
    fn ranking_is_deterministic() {
        let n = redundant_fixture();
        let report = lint(&n);
        let baseline = StaticBaseline::measure(&n).unwrap();
        let run = || {
            let cands = expand_hints(report.diagnostics(), &[]);
            let (ranked, _) = rank_candidates(&n, baseline, cands, 8);
            ranked
                .iter()
                .map(|r| (r.candidate.edit.key(), r.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
