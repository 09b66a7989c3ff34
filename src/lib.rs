//! `pcisim` — a PCI-Express interconnect simulator.
//!
//! This facade crate re-exports the whole workspace, a from-scratch Rust
//! reproduction of *Simulating PCI-Express Interconnect for Future System
//! Exploration* (Alian, Srinivasan, Kim — IISWC 2018):
//!
//! * [`kernel`] — the deterministic event-driven simulation substrate;
//! * [`pci`] — configuration spaces, capability chains, ECAM, the PCI
//!   host and the enumeration software;
//! * [`pcie`] — the paper's contribution: links with the full ACK/NAK
//!   protocol, the root complex and switches;
//! * [`devices`] — the IDE disk, the 8254x-pcie NIC, driver models and
//!   the interrupt controller;
//! * [`system`] — full-system assembly, workloads and the per-figure
//!   experiments.
//!
//! # Example
//!
//! ```
//! use pcisim::system::topology::{build_topology, Topology};
//! use pcisim::system::workload::dd::DdConfig;
//!
//! // The paper's validation topology, enumerated and driver-probed; the
//! // `dd` driver attaches to endpoint 0, the disk.
//! let mut built = build_topology(Topology::validation());
//! let report = built.attach_dd(0, DdConfig {
//!     block_bytes: 256 * 1024,
//!     ..DdConfig::default()
//! });
//! built.sim.run_to_quiesce();
//! let report = report.borrow();
//! assert!(report.done);
//! assert!(report.throughput_gbps() > 0.0);
//!
//! // The same run as an experiment of the paper's evaluation.
//! use pcisim::system::experiments::{run_cold, DdExperiment};
//! let outcome = run_cold(&DdExperiment { block_bytes: 256 * 1024, ..DdExperiment::default() });
//! assert!(outcome.completed);
//! ```

#![forbid(unsafe_code)]

pub use pcisim_devices as devices;
pub use pcisim_kernel as kernel;
pub use pcisim_pci as pci;
pub use pcisim_pcie as pcie;
pub use pcisim_system as system;

/// Runs the README's `rust` snippets as doctests, so they cannot drift
/// from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// One flat import for examples and quick experiments.
pub mod prelude {
    pub use pcisim_devices::prelude::*;
    pub use pcisim_kernel::prelude::*;
    pub use pcisim_pci::prelude::*;
    pub use pcisim_pcie::prelude::*;
    pub use pcisim_system::prelude::*;
}
