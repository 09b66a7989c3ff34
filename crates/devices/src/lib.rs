//! `pcisim-devices` — PCI-Express device models and driver models.
//!
//! The requester endpoints, each a register file plus protocol phases:
//!
//! * [`ide`] — the IDE disk with gem5's constant access latency, 4 KB
//!   sectors DMA-written in cache-line TLPs, and the non-posted-write
//!   sector barrier (§VI);
//! * [`nic`] — the 8254x-pcie NIC with the 82574l capability chain and a
//!   register file for the Table II MMIO-latency experiment (§IV);
//! * [`virtio`] — a virtio-pci transport (modern capability layout) with
//!   virtio-blk and virtio-net device classes whose virtqueues live in
//!   host DRAM and are walked entirely through simulated TLPs.
//!
//! Everything under their protocols exists once, in three crate-private
//! building blocks: `dma::DmaEngine` owns the DMA master port (ordered
//! lane with one stalled TLP, interrupt lane, completion tracking with
//! the continuation on a pump event, counters, trace records at
//! acceptance, the UR/CA/timeout latch), `mmio::serve` decodes BAR0 and
//! marshals dword registers (the completion then waits out the PIO
//! latency and the port in a kernel `TimedQueue`), and `msix::MsixBlock`
//! holds the MSI-X table/PBA/masks and sends doorbells.
//!
//! Around them:
//!
//! * [`cxl`] — a CXL.mem memory-expander endpoint: HDM decoder programmed
//!   through config space, banked DRAM-style backing store, M2S/S2M
//!   transaction class over the shared link layer (a completer with its
//!   own credit accounting, not a client of the DMA engine);
//! * [`driver`] — e1000e/IDE/virtio probe models (module device table
//!   match, capability walk, legacy-interrupt fallback);
//! * [`intc`] — a minimal interrupt controller terminating INTx messages;
//! * [`traffic`] — deterministic open-loop traffic generation and binary
//!   trace replay feeding both NIC models' receive paths.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cxl;
pub(crate) mod dma;
pub mod driver;
pub mod ide;
pub mod intc;
pub(crate) mod mmio;
pub(crate) mod msix;
pub mod nic;
#[cfg(test)]
pub(crate) mod testkit;
pub mod traffic;
pub mod virtio;

/// Convenient glob import for downstream crates and examples.
pub mod prelude {
    pub use crate::cxl::{
        CxlExpander, CxlExpanderConfig, CXL_DEVICE_ID, CXL_DMA_PORT, CXL_PIO_PORT,
    };
    pub use crate::driver::{
        e1000e_probe, ide_probe, virtio_blk_probe, virtio_net_probe, InterruptMode, ProbeInfo,
    };
    pub use crate::ide::{IdeDisk, IdeDiskConfig, IDE_DMA_PORT, IDE_PIO_PORT};
    pub use crate::intc::{InterruptController, INTC_FABRIC_PORT};
    pub use crate::nic::{Nic, NicConfig, NIC_DEVICE_ID, NIC_DMA_PORT, NIC_PIO_PORT};
    pub use crate::traffic::{
        record_trace, ArrivalProcess, FrameEvent, SizeDist, TrafficConfig, TrafficFeed, TrafficGen,
        TrafficSpec,
    };
    pub use crate::virtio::{
        Virtio, VirtioClass, VirtioConfig, VIRTIO_BLK_DEVICE_ID, VIRTIO_DMA_PORT,
        VIRTIO_NET_DEVICE_ID, VIRTIO_PIO_PORT, VIRTIO_VENDOR_ID,
    };
}
