//! `pcisim-pci` — PCI/PCI-Express configuration machinery.
//!
//! Implements the configuration-space side of the paper (§II, §IV): the 4 KB
//! per-function [`config::ConfigSpace`] with write masks, the type-0/type-1
//! header builders ([`header`]), capability chains including the PCI-Express
//! capability structure ([`caps`]), ECAM addressing ([`ecam`]), the gem5-style
//! PCI host with its shared device registry ([`host`]), and the depth-first
//! enumeration software ([`enumeration`]).
//!
//! # Example
//!
//! ```
//! use pcisim_pci::prelude::*;
//!
//! let registry = shared_registry();
//! registry.borrow_mut().register(
//!     Bdf::new(0, 1, 0),
//!     shared(Type1Header::new(0x8086, 0x9c90).build()),
//! );
//! let report = enumerate(&mut registry.clone(), EnumerationConfig::vexpress_gem5_v1())?;
//! assert_eq!(report.bridges().count(), 1);
//! # Ok::<(), pcisim_pci::enumeration::EnumerateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod caps;
pub mod config;
pub mod ecam;
pub mod enumeration;
pub mod header;
pub mod host;
pub mod regs;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::caps::{
        find_capability, walk_capabilities, CapChain, Capability, Generation, PortType,
    };
    pub use crate::config::{shared, ConfigSpace, SharedConfigSpace};
    pub use crate::ecam::Bdf;
    pub use crate::enumeration::{enumerate, EnumerationConfig, EnumerationReport, Enumerator};
    pub use crate::header::{Bar, Type0Header, Type1Header};
    pub use crate::host::{shared_registry, ConfigAccess, PciHost, SharedRegistry, PCI_HOST_PORT};
}
