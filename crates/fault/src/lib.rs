//! # dft-fault
//!
//! The single stuck-at fault model and fault simulation for the *tessera*
//! DFT toolkit.
//!
//! §I-A of Williams & Parker defines the model this crate implements: a
//! fault fixes one gate pin at logic 0 or 1; the industry assumption is a
//! single fault at a time (a network of N nets has 3ᴺ joint states — far
//! too many — so "all faults taken two at a time are not assumed").
//!
//! * [`universe`] — enumerates every pin fault (a 1000-gate two-input
//!   network yields the paper's 6000 faults).
//! * [`collapse`] — structural equivalence collapsing (the paper's
//!   fault-equivalencing reference \[36\]-\[47\]) cutting the universe
//!   roughly in half.
//! * [`simulate`] / [`simulate_with_dropping`] — pattern-parallel single-
//!   fault simulation (64 patterns per word), the reference every other
//!   engine is checked against.
//! * [`sequential`] — three-valued serial fault simulation across clock
//!   cycles for un-scanned sequential machines.
//! * [`ppsfp`] — parallel-pattern single-fault propagation: 64 patterns
//!   per word per fault over a compiled kernel, with cone-restricted
//!   event propagation, fault dropping, and multi-threaded fault
//!   partitioning. The fast engine for large fault-grading workloads.
//!
//! The [`FaultSimEngine`] trait ([`engines`] returns the roster: serial,
//! sequential and PPSFP) puts the three engines behind one interface;
//! they are cross-checked against each other in this crate's tests (they
//! must agree exactly on combinational circuits).
//!
//! ```
//! use dft_netlist::circuits::c17;
//! use dft_sim::PatternSet;
//! use dft_fault::{universe, simulate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c17 = c17();
//! let faults = universe(&c17);
//! let all32 = PatternSet::from_rows(5, &(0..32u8)
//!     .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
//!     .collect::<Vec<_>>());
//! let result = simulate(&c17, &all32, &faults)?;
//! assert_eq!(result.coverage(), 1.0); // c17 is fully testable
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod collapse;
mod dictionary;
mod engine;
#[allow(clippy::module_inception)]
mod fault;
mod inject;
mod ppsfp;
mod prefilter;
mod sequential;
mod serial;
pub mod stream;
mod stuck_open;

pub use collapse::{collapse, dominance_collapse, Collapse, DominanceCollapse};
pub use dictionary::FaultDictionary;
pub use engine::{engines, FaultSimEngine, PpsfpEngine, SequentialEngine, SerialEngine};
pub use fault::{output_faults, universe, Fault};
pub use inject::FaultyView;
pub use ppsfp::{ppsfp, ppsfp_observed, ppsfp_with_options, Ppsfp, PpsfpOptions};
pub use prefilter::{prefilter_untestable, prefilter_with, Prefilter};
pub use sequential::{sequential, sequential_observed, SequentialDetection};
pub use serial::{
    simulate, simulate_observed, simulate_with_dropping, simulate_with_options, DetectionResult,
    SerialOptions,
};
pub use stuck_open::{
    simulate_stuck_open, stuck_open_universe, OpenKind, StuckOpenDetection, StuckOpenFault,
};
