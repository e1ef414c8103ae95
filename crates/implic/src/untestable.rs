//! FIRE-style static untestability verdicts.
//!
//! A single stuck-at fault needs two things from a test: *excitation*
//! (the activation net driven to the complement of the stuck value in
//! the good machine) and *observation* (a sensitized path carrying the
//! difference to a primary output). The implication engine can refute
//! either statically:
//!
//! * **Unexcitable** — the excitation literal is unsettable (its
//!   propagation contradicts itself, or the net is an uncontrollable
//!   storage output). No assignment excites the fault.
//! * **Unobservable** — in *every* assignment that excites the fault,
//!   each path from the fault site to an output is cut somewhere: a
//!   side input outside the fault's fanout cone is implied to the
//!   gate's controlling value (the gate's output is then identical in
//!   the good and faulty machines), the side input is an uncontrollable
//!   storage output (`X` in both machines, so no *known* difference can
//!   leave the gate), or the path runs into a storage element.
//!
//! Both directions are sound over the combinational test view — every
//! fault flagged here is also `Untestable` for PODEM and the
//! D-algorithm, which is cross-checked by proptests. Neither direction
//! is complete: search still proves redundancies that need case splits
//! rather than implication chains.

use dft_netlist::{GateId, GateKind, Pin};
use dft_sim::Logic;

use crate::engine::{ImplicationEngine, Literal, Scratch};

/// Why a fault is statically untestable (the diagnostic witness carried
/// into lint findings and prefilter reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UntestableReason {
    /// The activation net can never take the value that excites the
    /// fault.
    Unexcitable {
        /// The net that would need to be driven.
        net: GateId,
        /// The value excitation requires (complement of the stuck
        /// value).
        required: bool,
        /// Where the implication closure contradicted itself while
        /// assuming `net = required` (equal to `net` itself when the
        /// net is an uncontrollable storage output or implied
        /// constant).
        conflict: GateId,
    },
    /// The fault is excitable, but its effect provably cannot reach any
    /// primary output.
    Unobservable {
        /// The gate whose output carries the (unobservable) effect.
        origin: GateId,
    },
}

impl std::fmt::Display for UntestableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            } => {
                if conflict == net {
                    write!(
                        f,
                        "activation net g{} cannot be driven to {}",
                        net.index(),
                        u8::from(*required)
                    )
                } else {
                    write!(
                        f,
                        "assuming g{}={} implies a contradiction at g{}",
                        net.index(),
                        u8::from(*required),
                        conflict.index()
                    )
                }
            }
            UntestableReason::Unobservable { origin } => write!(
                f,
                "every sensitized path from g{} to an output is statically blocked",
                origin.index()
            ),
        }
    }
}

impl ImplicationEngine<'_> {
    /// Statically decides whether the stuck-at-`stuck` fault at
    /// `(gate, pin)` is untestable. `None` means "not provably
    /// untestable" — search may still refute it.
    ///
    /// A one-off verdict; for many faults, keep one
    /// [`ImplicationEngine::scratch`] and call
    /// [`Scratch::fault_untestable`], visiting faults that share an
    /// [`ImplicationEngine::excitation`] literal one after another.
    #[must_use]
    pub fn fault_untestable(
        &self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        self.scratch().fault_untestable(gate, pin, stuck)
    }

    /// The literal exciting the stuck-at-`stuck` fault at `(gate, pin)`:
    /// its activation net (the gate output, or the net driving the pin)
    /// at the complement of the stuck value.
    #[must_use]
    pub fn excitation(&self, gate: GateId, pin: Pin, stuck: bool) -> Literal {
        let net = match pin {
            Pin::Output => gate,
            Pin::Input(p) => {
                GateId::from_index(self.graph.fanin(gate.index())[p as usize] as usize)
            }
        };
        Literal { net, value: !stuck }
    }
}

impl Scratch<'_, '_> {
    /// [`ImplicationEngine::fault_untestable`] in this scratch: the
    /// excitation literal's closure is propagated once and reused by
    /// every following fault with the same literal.
    #[must_use]
    pub fn fault_untestable(
        &mut self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        let engine = self.engine;
        let Literal { net, value } = engine.excitation(gate, pin, stuck);
        let conflict = match self.assume(net, value) {
            Err(conflict) => Some(conflict),
            // Storage outputs and implied constants conflict at the net
            // itself.
            Ok(_) if engine.is_unsettable(net, value) => Some(net),
            Ok(_) => None,
        };
        if let Some(conflict) = conflict {
            return Some(UntestableReason::Unexcitable {
                net,
                required: value,
                conflict,
            });
        }
        let g = gate.index();
        if let Pin::Input(p) = pin {
            // The effect lives on one pin wire: it must first pass
            // `gate` itself. Side pins read the *unfaulted* nets, so
            // they are "outside the cone" by construction (the netlist
            // is acyclic), including other pins fed by the same net.
            let kind = engine.graph.kind[g];
            let inputs = engine.graph.fanin(g);
            if kind.is_storage()
                || (0..inputs.len())
                    .filter(|&q| q != p as usize)
                    .any(|q| self.side_blocks(kind, inputs[q] as usize))
            {
                return Some(UntestableReason::Unobservable { origin: gate });
            }
        }
        self.unobservable_from(g)
            .then_some(UntestableReason::Unobservable { origin: gate })
    }

    /// Whether a side input provably kills fault-effect passage through
    /// a gate of `kind` under the held closure: implied to the
    /// controlling value (output equal in both machines), or an
    /// uncontrollable storage output (`X` in both machines — no *known*
    /// difference can emerge, and the combinational test view requires
    /// one).
    fn side_blocks(&self, kind: GateKind, side: usize) -> bool {
        self.engine.graph.kind[side].is_storage()
            || kind
                .controlling_value()
                .is_some_and(|c| self.held_value(side) == Logic::from(c))
    }

    /// Search over the fanout cone of `origin`: can the fault effect
    /// possibly reach a primary output, given the values implied by the
    /// held excitation closure? Conservative in the sound direction —
    /// `true` only when every path is provably cut.
    fn unobservable_from(&mut self, origin: usize) -> bool {
        let engine = self.engine;
        let graph = &engine.graph;
        self.reach.clear();
        self.reach.insert(origin);
        self.stack.clear();
        self.stack.push(origin as u32);
        while let Some(g) = self.stack.pop() {
            let g = g as usize;
            if engine.is_po[g] {
                return false;
            }
            for &r in graph.fanout(g) {
                let r = r as usize;
                let kind = graph.kind[r];
                if self.reach.contains(r) || kind.is_storage() {
                    continue;
                }
                let blocked = graph.fanin(r).iter().any(|&s| {
                    let s = s as usize;
                    self.side_blocks(kind, s) && !self.in_cone(origin, s)
                });
                if !blocked {
                    self.reach.insert(r);
                    self.stack.push(r as u32);
                }
            }
        }
        true
    }

    /// Whether `net` lies in the structural fanout cone of `origin`
    /// (effects die at storage elements in the combinational view). Side
    /// inputs from inside the cone may themselves carry the effect, so
    /// only out-of-cone side values can block. The cone depends on the
    /// origin alone: it is built on first need and kept for the next
    /// fault on the same gate.
    fn in_cone(&mut self, origin: usize, net: usize) -> bool {
        if self.cone_origin != Some(origin) {
            let graph = &self.engine.graph;
            self.cone.clear();
            self.cone.insert(origin);
            // Walk above whatever the caller keeps on the stack.
            let base = self.stack.len();
            self.stack.push(origin as u32);
            while self.stack.len() > base {
                let g = self.stack.pop().expect("above base") as usize;
                for &r in graph.fanout(g) {
                    let r = r as usize;
                    if !graph.kind[r].is_storage() && self.cone.insert(r) {
                        self.stack.push(r as u32);
                    }
                }
            }
            self.cone_origin = Some(origin);
        }
        self.cone.contains(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn unexcitable_constant_net() {
        // z = AND(a, NOT a): s-a-0 at z needs z = 1 — impossible.
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        n.mark_output(z, "z").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(z, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // s-a-1 needs z = 0 — always true, so it is excitable but the
        // effect never differs... which static analysis sees as
        // unobservable only through masking; here z is the output, so
        // it IS observable (good 0, faulty 1 at the PO directly).
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn dangling_gate_is_unobservable() {
        let mut n = Netlist::new("dangling");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let _dead = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(_dead, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
    }

    #[test]
    fn state_side_input_blocks_observation() {
        // y = AND(a, dff): the a-pin fault needs the uncontrollable
        // state at 1 to pass — the paper's motivation for scan.
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(y, Pin::Input(0), false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
        // The stem s-a-0 needs y = 1, i.e. the state at 1: unexcitable.
        let r = e.fault_untestable(y, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // The stem s-a-1 is excited by a = 0 and y is the output itself.
        assert_eq!(e.fault_untestable(y, Pin::Output, true), None);
    }

    #[test]
    fn implied_controlling_side_blocks_observation() {
        // na = NOT a; z = AND(a, na) (constant 0); live = OR(a, b);
        // y = AND(live, z). Every fault on `live` is masked: its only
        // reader ANDs it with the implied-0 net z.
        let mut n = Netlist::new("masked");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        let live = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::And, &[live, z]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        for stuck in [false, true] {
            assert!(
                matches!(
                    e.fault_untestable(live, Pin::Output, stuck),
                    Some(UntestableReason::Unobservable { .. })
                ),
                "live s-a-{} must be statically unobservable",
                u8::from(stuck)
            );
        }
        // Faults on z's excitable polarity reach the PO: z s-a-1 is
        // excited by z = 0 (always) and observed when live = 1.
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn testable_faults_pass_the_filter_on_c17() {
        let n = dft_netlist::circuits::c17();
        let e = ImplicationEngine::new(&n);
        for (id, gate) in n.iter() {
            for stuck in [false, true] {
                assert_eq!(
                    e.fault_untestable(id, Pin::Output, stuck),
                    None,
                    "c17 is fully testable"
                );
                for p in 0..gate.fanin() {
                    assert_eq!(
                        e.fault_untestable(id, Pin::input(p), stuck),
                        None,
                        "c17 is fully testable"
                    );
                }
            }
        }
    }
}
