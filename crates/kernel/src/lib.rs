//! `pcisim-kernel` — a deterministic event-driven simulation kernel.
//!
//! This crate is the gem5-substitute substrate for the `pcisim` workspace,
//! which reproduces *Simulating PCI-Express Interconnect for Future System
//! Exploration* (Alian, Srinivasan, Kim — IISWC 2018). It provides:
//!
//! * [`tick`] — picosecond simulated time;
//! * [`packet`] — memory-system packets that double as PCIe TLPs, including
//!   the paper's PCI-bus-number response-routing field;
//! * [`component`]/[`sim`] — components, gem5-style timing ports with a
//!   refusal/retry flow-control handshake, and the deterministic event loop;
//! * [`addr`] — address ranges and routing maps;
//! * [`queue`] — the timed packet queue (FIFO, delay pipe, capacity and
//!   refusal/retry bookkeeping) under every buffered port;
//! * [`xbar`], [`bridge`], [`iocache`], [`dram`] — the stock gem5 fabric
//!   models the paper builds upon (MemBus/IOBus crossbars, the
//!   MemBus↔IOBus bridge, the DMA IOCache, and a DRAM terminator);
//! * [`stats`] — counters/histograms and snapshotting;
//! * [`snapshot`] — deterministic checkpoint/restore over a versioned,
//!   checksummed little-endian state codec.
//!
//! # Example
//!
//! ```
//! use pcisim_kernel::prelude::*;
//!
//! let mut sim = Simulation::new();
//! let dram = sim.add(Box::new(
//!     Dram::builder("dram", AddrRange::with_size(0x8000_0000, 0x1000_0000)).build(),
//! ));
//! // ... connect components, then:
//! let outcome = sim.run_to_quiesce();
//! assert_eq!(outcome, RunOutcome::QueueEmpty);
//! # let _ = dram;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod addr;
pub mod bridge;
pub mod calendar;
pub mod component;
pub mod dram;
pub mod iocache;
pub mod packet;
pub mod queue;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod testutil;
pub mod tick;
pub mod trace;
pub mod xbar;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::addr::{AddrMap, AddrRange};
    pub use crate::bridge::Bridge;
    pub use crate::component::{Component, ComponentId, Event, PortId, RecvResult};
    pub use crate::dram::Dram;
    pub use crate::iocache::IoCache;
    pub use crate::packet::{Command, CompletionStatus, Packet, PacketId};
    pub use crate::sim::{Ctx, RunOutcome, Simulation};
    pub use crate::snapshot::{Snapshot, SnapshotError, StateReader, StateWriter};
    pub use crate::stats::{Counter, Histogram, StatsBuilder, StatsSnapshot};
    pub use crate::tick::{ns, ps, us, Tick};
    pub use crate::trace::{
        LatencyAttribution, Stage, TraceCategory, TraceEvent, TraceKind, TraceLog, Tracer,
    };
    pub use crate::xbar::Crossbar;
}
