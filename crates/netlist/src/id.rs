//! Identifiers for gates, nets and gate pins.

use std::fmt;

/// Identifier of a gate in a [`Netlist`](crate::Netlist) arena.
///
/// Because every net has exactly one driver, a `GateId` also identifies the
/// net driven by that gate's output. The id is an index into the netlist's
/// gate arena and is only meaningful relative to the netlist that produced
/// it.
///
/// ```
/// use dft_netlist::Netlist;
///
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// Creates a `GateId` from a raw arena index.
    ///
    /// Mostly useful for tests and for tools that serialize ids; normal code
    /// receives ids from [`Netlist`](crate::Netlist) construction methods.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        GateId(u32::try_from(index).expect("netlist arena exceeds u32 range"))
    }

    /// Returns the raw arena index of this gate.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One pin of a gate: either an input pin (by position) or the output.
///
/// The stuck-at fault model of the paper's §I-A places faults on individual
/// gate pins, so fault sites are `(GateId, Pin)` pairs — see
/// [`PortRef`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pin {
    /// The `i`-th input pin of the gate (0-based). A `u8` suffices
    /// because fan-in is capped at [`MAX_FANIN`](crate::MAX_FANIN).
    Input(u8),
    /// The gate's output pin.
    Output,
}

impl Pin {
    /// Input pin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`MAX_FANIN`](crate::MAX_FANIN), which
    /// no gate of a [`Netlist`](crate::Netlist) can reach.
    #[must_use]
    pub fn input(i: usize) -> Pin {
        Pin::Input(u8::try_from(i).expect("input pin index below MAX_FANIN"))
    }
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pin::Input(i) => write!(f, "in{i}"),
            Pin::Output => write!(f, "out"),
        }
    }
}

/// A reference to a specific pin of a specific gate.
///
/// ```
/// use dft_netlist::{GateId, Pin, PortRef};
///
/// let site = PortRef::new(GateId::from_index(3), Pin::Input(1));
/// assert_eq!(site.to_string(), "g3.in1");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRef {
    /// The gate owning the pin.
    pub gate: GateId,
    /// Which pin of the gate.
    pub pin: Pin,
}

impl PortRef {
    /// Creates a port reference.
    #[must_use]
    pub fn new(gate: GateId, pin: Pin) -> Self {
        PortRef { gate, pin }
    }

    /// Port reference for a gate's output pin.
    #[must_use]
    pub fn output(gate: GateId) -> Self {
        PortRef::new(gate, Pin::Output)
    }

    /// Port reference for a gate's `i`-th input pin.
    #[must_use]
    pub fn input(gate: GateId, i: u8) -> Self {
        PortRef::new(gate, Pin::Input(i))
    }
}

impl fmt::Display for PortRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.gate, self.pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_id_round_trips_index() {
        let id = GateId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(format!("{id}"), "g42");
        assert_eq!(format!("{id:?}"), "g42");
    }

    #[test]
    fn pin_ordering_puts_inputs_before_output() {
        assert!(Pin::Input(0) < Pin::Input(1));
        assert!(Pin::Input(255) < Pin::Output);
    }

    #[test]
    fn port_ref_display() {
        let p = PortRef::output(GateId::from_index(7));
        assert_eq!(p.to_string(), "g7.out");
        let q = PortRef::input(GateId::from_index(7), 2);
        assert_eq!(q.to_string(), "g7.in2");
    }
}
