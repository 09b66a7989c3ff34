//! `pcisim-pcie` — the paper's PCI-Express interconnect models.
//!
//! Event-driven performance models for the PCI-Express components of
//! *Simulating PCI-Express Interconnect for Future System Exploration*
//! (IISWC 2018):
//!
//! * [`params`] — generations, lane widths, encoding overheads and wire
//!   timing;
//! * [`tlp`] — TLP/DLLP on-wire sizes (paper Table I);
//! * [`ack_nak`] — replay buffer, sequence tracking, the spec replay-timeout
//!   formula with its AckFactor table, and the ACK-timer period;
//! * [`link`] — the two-unidirectional-link model with the full ACK/NAK
//!   protocol (Fig. 8);
//! * [`router`] — the root complex (3 root ports + upstream port, one
//!   virtual PCI-to-PCI bridge per root port) and the store-and-forward
//!   switch, with window-based request routing and bus-number-based
//!   response routing (Figs. 6 and 7).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ack_nak;
pub mod link;
pub mod params;
pub mod router;
pub mod tlp;

#[cfg(test)]
mod link_kick_props;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::ack_nak::{ack_timeout, replay_timeout, ReplayBuffer, RxState};
    pub use crate::link::{
        PcieLink, PORT_DOWN_MASTER, PORT_DOWN_SLAVE, PORT_UP_MASTER, PORT_UP_SLAVE,
    };
    pub use crate::params::{Generation, GenerationExt, LinkConfig, LinkWidth};
    pub use crate::router::{PcieRouter, RouterConfig, RouterKind};
    pub use crate::tlp::{Dllp, PciePacket, TLP_OVERHEAD_BYTES};
}
