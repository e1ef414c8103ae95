//! Shared word-evaluation primitives: 64-lane words and wide blocks.
//!
//! Every packed simulator in the workspace — [`ParallelSim`](crate::ParallelSim),
//! the compiled [`Kernel`](crate::Kernel), and the fault simulators in
//! `dft-fault` — evaluates gates over `u64` words where each bit lane is an
//! independent pattern. This module is the single home for that per-gate
//! fold and for the stuck-value words the fault engines force onto a
//! faulted site, so the word semantics cannot drift between engines.
//!
//! The fold is lane-width-parametric: a *wide word* `[u64; W]` carries
//! `64 × W` pattern lanes (`W = 4` → 256 lanes, `W = 8` → 512 lanes) and
//! [`fold_wide`] folds a gate over all of them in one call. The unrolled
//! fixed-`W` array loops compile to straight-line vector code (SSE2/AVX2/
//! AVX-512 as the target allows), so one op dispatch — kind match, CSR
//! operand walk, destination write — is amortized over `W` words instead
//! of one. [`LaneWidth`] is the run-time knob engines expose for picking
//! `W`; the 64-lane [`fold_word`] is the `W = 1` instantiation, so the
//! two can never disagree.

use dft_netlist::GateKind;

/// Lane width of a packed simulation run: how many 64-pattern `u64`
/// words ride in one wide block.
///
/// This is the run-time dispatch knob for the wide kernels (engines
/// monomorphize per width and `match` on the resolved word count), wired
/// into `PpsfpOptions`/`SerialOptions` in `dft-fault`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LaneWidth {
    /// Pick per run from the workload's 64-pattern block count: 256
    /// lanes when at least 4 blocks are queued, plain 64-lane words
    /// below that (narrow workloads would waste folds on empty tail
    /// words). 512 lanes is opt-in: on the event-propagation path the
    /// fold *count* barely drops with width (disturbances are dense
    /// across blocks) while the word work per fold scales with `W`, and
    /// measurement puts the dense-sweep savings break-even near `W = 4`.
    #[default]
    Auto,
    /// Classic 64 patterns per word (`W = 1`).
    W64,
    /// 256 patterns per wide block (`W = 4`, `u64x4`).
    W256,
    /// 512 patterns per wide block (`W = 8`, `u64x8`).
    W512,
}

impl LaneWidth {
    /// The fixed word count `W`, or `None` for [`LaneWidth::Auto`].
    #[must_use]
    pub fn words(self) -> Option<usize> {
        match self {
            LaneWidth::Auto => None,
            LaneWidth::W64 => Some(1),
            LaneWidth::W256 => Some(4),
            LaneWidth::W512 => Some(8),
        }
    }

    /// Pattern lanes per wide block (`64 × W`), or `None` for `Auto`.
    #[must_use]
    pub fn lanes(self) -> Option<usize> {
        self.words().map(|w| w * 64)
    }

    /// Resolves the word count for a workload of `block_count`
    /// 64-pattern blocks (the run-time dispatch point).
    #[must_use]
    pub fn resolve_words(self, block_count: usize) -> usize {
        match self.words() {
            Some(w) => w,
            None if block_count >= 4 => 4,
            None => 1,
        }
    }
}

/// The packed word a stuck-at value forces: all-ones for s-a-1, all-zeros
/// for s-a-0.
#[must_use]
pub fn stuck_word(stuck: bool) -> u64 {
    if stuck {
        u64::MAX
    } else {
        0
    }
}

/// [`stuck_word`] over a wide block: every lane of every word forced.
#[must_use]
pub fn stuck_wide<const W: usize>(stuck: bool) -> [u64; W] {
    [stuck_word(stuck); W]
}

/// Element-wise binary op over wide blocks; the fixed-`W` loop unrolls
/// and vectorizes.
#[inline]
fn zip_wide<const W: usize>(mut a: [u64; W], b: [u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    for i in 0..W {
        a[i] = f(a[i], b[i]);
    }
    a
}

/// Element-wise complement of a wide block.
#[inline]
fn not_wide<const W: usize>(mut a: [u64; W]) -> [u64; W] {
    for x in &mut a {
        *x = !*x;
    }
    a
}

/// Folds a gate over packed wide-block operands without allocating: the
/// lane-width-parametric generalization of [`fold_word`] (which is its
/// `W = 1` instantiation).
///
/// Constants need no operands; every other kind consumes the iterator
/// left-to-right. `Input`/`Dff` are pass-throughs of their single
/// operand.
///
/// # Panics
///
/// Panics if `operands` is empty for a kind that requires fan-in.
#[inline]
#[must_use]
pub fn fold_wide<const W: usize, I: Iterator<Item = [u64; W]>>(
    kind: GateKind,
    mut operands: I,
) -> [u64; W] {
    match kind {
        GateKind::Const0 => [0; W],
        GateKind::Const1 => [u64::MAX; W],
        _ => {
            let first = operands
                .next()
                .expect("non-constant gates have at least one operand");
            match kind {
                GateKind::Buf | GateKind::Input | GateKind::Dff => first,
                GateKind::Not => not_wide(first),
                GateKind::And => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x & y)),
                GateKind::Nand => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x & y)))
                }
                GateKind::Or => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x | y)),
                GateKind::Nor => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x | y)))
                }
                GateKind::Xor => operands.fold(first, |a, b| zip_wide(a, b, |x, y| x ^ y)),
                GateKind::Xnor => {
                    not_wide(operands.fold(first, |a, b| zip_wide(a, b, |x, y| x ^ y)))
                }
                GateKind::Const0 | GateKind::Const1 => unreachable!("handled above"),
            }
        }
    }
}

/// Folds a gate over packed 64-lane operand words without allocating.
///
/// The single-word (`W = 1`) instantiation of [`fold_wide`], kept as the
/// named entry point of the classic engines — routing it through the
/// wide fold guarantees the two lane layouts cannot drift.
///
/// # Panics
///
/// Panics if `operands` is empty for a kind that requires fan-in.
#[inline]
#[must_use]
pub fn fold_word<I: Iterator<Item = u64>>(kind: GateKind, operands: I) -> u64 {
    fold_wide::<1, _>(kind, operands.map(|w| [w]))[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_matches_eval_word_on_all_kinds() {
        let a = 0b1100u64;
        let b = 0b1010u64;
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            assert_eq!(
                fold_word(kind, [a, b].into_iter()),
                kind.eval_word(&[a, b]),
                "{kind:?}"
            );
        }
        assert_eq!(fold_word(GateKind::Buf, [a].into_iter()), a);
        assert_eq!(fold_word(GateKind::Not, [a].into_iter()), !a);
        assert_eq!(fold_word(GateKind::Const0, std::iter::empty()), 0);
        assert_eq!(fold_word(GateKind::Const1, std::iter::empty()), u64::MAX);
    }

    #[test]
    fn stuck_masking() {
        assert_eq!(stuck_word(true), u64::MAX);
        assert_eq!(stuck_word(false), 0);
        assert_eq!(stuck_wide::<4>(true), [u64::MAX; 4]);
        assert_eq!(stuck_wide::<8>(false), [0u64; 8]);
    }

    #[test]
    fn wide_fold_agrees_with_per_word_fold() {
        // Every word of a wide fold must equal an independent 64-lane
        // fold of the corresponding operand words.
        let ops: [[u64; 4]; 3] = [
            [0xDEAD_BEEF, 0x0123_4567, u64::MAX, 0],
            [0xFFFF_0000_FFFF_0000, 0x5555_5555_5555_5555, 7, 42],
            [0x0F0F_0F0F_0F0F_0F0F, 0xAAAA_AAAA_AAAA_AAAA, 1, u64::MAX],
        ];
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Not,
            GateKind::Buf,
        ] {
            let narrow_ops = if matches!(kind, GateKind::Not | GateKind::Buf) {
                1
            } else {
                3
            };
            let wide = fold_wide::<4, _>(kind, ops.iter().copied().take(narrow_ops));
            for w in 0..4 {
                let narrow = fold_word(kind, ops.iter().take(narrow_ops).map(|o| o[w]));
                assert_eq!(wide[w], narrow, "{kind:?} word {w}");
            }
        }
    }

    #[test]
    fn lane_width_resolution() {
        assert_eq!(LaneWidth::W64.resolve_words(100), 1);
        assert_eq!(LaneWidth::W256.resolve_words(1), 4);
        assert_eq!(LaneWidth::W512.resolve_words(1), 8);
        assert_eq!(LaneWidth::Auto.resolve_words(16), 4);
        assert_eq!(LaneWidth::Auto.resolve_words(8), 4);
        assert_eq!(LaneWidth::Auto.resolve_words(4), 4);
        assert_eq!(LaneWidth::Auto.resolve_words(3), 1);
        assert_eq!(LaneWidth::Auto.resolve_words(0), 1);
        assert_eq!(LaneWidth::W512.lanes(), Some(512));
        assert_eq!(LaneWidth::Auto.words(), None);
    }
}
