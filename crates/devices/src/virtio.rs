//! The virtio-pci device family (virtio-blk, virtio-net).
//!
//! A modern virtio-pci transport: the common/notify/ISR/device-config
//! structures live in BAR0 and are located through the PCI vendor-specific
//! capability chain (virtio spec §4.1.4), exactly as a real driver
//! discovers them. The virtqueues — descriptor table, avail ring, used
//! ring — live in host DRAM and are walked entirely through simulated
//! TLPs: a doorbell write to the notify region starts the device reading
//! the avail ring and descriptor chains by DMA, payload moves as
//! cache-line DMA bursts, completions are posted used-ring writes capped
//! by a non-posted used-index write, and the completion interrupt (MSI-X
//! or INTx emulation) rides the same fabric.
//!
//! Two device classes share the transport:
//!
//! * **virtio-blk** — one request queue; each chain is header (16 B,
//!   device-readable) + data descriptors + status byte (device-writable).
//!   Requests run against a checkpointed 512 B-sector block store with a
//!   constant access latency plus a per-sector term, like [`crate::ide`]
//!   but queue-driven.
//! * **virtio-net** — queue 0 receives, queue 1 transmits. TX chains are
//!   header (12 B) + frame payload, charged a wire-serialization time;
//!   RX buffers are filled from the same deterministic
//!   [`TrafficSpec`](crate::traffic::TrafficSpec) source the e1000e model
//!   uses.
//!
//! Malformed rings fail loudly without hanging: an out-of-range head or
//! next index, an over-long chain, or a malformed blk frame sets
//! NEEDS_RESET in the device status, bumps `desc_faults`, halts the
//! queue, and raises a configuration interrupt.
//!
//! Ports: [`VIRTIO_PIO_PORT`] (BAR0 registers) and [`VIRTIO_DMA_PORT`]
//! (DMA master).

use std::collections::{BTreeMap, VecDeque};

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{Bounded, SnapshotError, State, StateReader, StateWriter};
use pcisim_kernel::stats::{Counter, StatsBuilder};
use pcisim_kernel::tick::{ns, transfer_time, us, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceKind};
use pcisim_kernel::{state_enum, state_fields};
use pcisim_pci::caps::{
    vendor_cap, vendor_structures, write_aer_capability, CapChain, Capability, Generation, PortType,
};
use pcisim_pci::config::{shared, ConfigSpace, SharedConfigSpace};
use pcisim_pci::header::{bar_base, Bar, Type0Header};

use crate::dma::DmaEngine;
use crate::mmio::{self, set_hi32, set_lo32};
use crate::msix::{legacy_message, MsixBlock};
use crate::traffic::{TrafficFeed, TrafficSpec};

/// MMIO register port (slave).
pub const VIRTIO_PIO_PORT: PortId = PortId(0);
/// DMA master port.
pub const VIRTIO_DMA_PORT: PortId = PortId(1);

/// The virtio PCI vendor ID.
pub const VIRTIO_VENDOR_ID: u16 = 0x1af4;
/// Modern virtio-net PCI device ID.
pub const VIRTIO_NET_DEVICE_ID: u16 = 0x1041;
/// Modern virtio-blk PCI device ID.
pub const VIRTIO_BLK_DEVICE_ID: u16 = 0x1042;

/// BAR0 byte offset of the common configuration structure.
pub const COMMON_OFFSET: u64 = 0x0000;
/// BAR0 byte offset of the notify (doorbell) region.
pub const NOTIFY_OFFSET: u64 = 0x1000;
/// Doorbell stride: queue `q` notifies at `NOTIFY_OFFSET + q * 4`.
pub const NOTIFY_MULTIPLIER: u32 = 4;
/// BAR0 byte offset of the ISR status byte (read clears).
pub const ISR_OFFSET: u64 = 0x2000;
/// BAR0 byte offset of the device-specific configuration.
pub const DEVICE_CFG_OFFSET: u64 = 0x3000;
/// BAR0 byte offset of the MSI-X vector table.
pub const MSIX_TABLE_OFFSET: u64 = 0x1_0000;
/// BAR0 byte offset of the MSI-X pending-bit array.
pub const MSIX_PBA_OFFSET: u64 = 0x1_8000;
/// BAR0 size.
pub const BAR0_SIZE: u64 = 0x2_0000;

/// Common-configuration register offsets (BAR0-relative, dword registers).
pub mod common {
    /// Device feature bits (u32, RO).
    pub const DEVICE_FEATURES: u64 = 0x00;
    /// Driver feature bits (u32, RW scratch).
    pub const DRIVER_FEATURES: u64 = 0x04;
    /// Number of virtqueues (u32, RO).
    pub const NUM_QUEUES: u64 = 0x08;
    /// Device status byte (u32, RW; writing 0 resets).
    pub const DEVICE_STATUS: u64 = 0x0c;
    /// MSI-X vector for configuration interrupts (u32, RW).
    pub const CONFIG_MSIX_VECTOR: u64 = 0x10;
    /// Selects which queue the registers below address (u32, RW).
    pub const QUEUE_SELECT: u64 = 0x14;
    /// Size of the selected queue (u32, RO).
    pub const QUEUE_SIZE: u64 = 0x18;
    /// MSI-X vector of the selected queue (u32, RW).
    pub const QUEUE_MSIX_VECTOR: u64 = 0x1c;
    /// Enable bit of the selected queue (u32, RW).
    pub const QUEUE_ENABLE: u64 = 0x20;
    /// Descriptor-table address, low half (u32, RW).
    pub const QUEUE_DESC_LO: u64 = 0x24;
    /// Descriptor-table address, high half (u32, RW).
    pub const QUEUE_DESC_HI: u64 = 0x28;
    /// Avail-ring address, low half (u32, RW).
    pub const QUEUE_AVAIL_LO: u64 = 0x2c;
    /// Avail-ring address, high half (u32, RW).
    pub const QUEUE_AVAIL_HI: u64 = 0x30;
    /// Used-ring address, low half (u32, RW).
    pub const QUEUE_USED_LO: u64 = 0x34;
    /// Used-ring address, high half (u32, RW).
    pub const QUEUE_USED_HI: u64 = 0x38;
}

/// Device status bits (virtio spec §2.1).
pub mod status {
    /// Guest found the device.
    pub const ACKNOWLEDGE: u32 = 1;
    /// Guest knows how to drive it.
    pub const DRIVER: u32 = 2;
    /// Driver is ready.
    pub const DRIVER_OK: u32 = 4;
    /// Feature negotiation finished.
    pub const FEATURES_OK: u32 = 8;
    /// Device hit an unrecoverable error (malformed ring).
    pub const NEEDS_RESET: u32 = 0x40;
}

/// ISR status bits (INTx mode; reading the ISR clears it).
pub mod isr {
    /// A virtqueue interrupt.
    pub const QUEUE: u32 = 1;
    /// A configuration-change interrupt (also raised on ring faults).
    pub const CONFIG: u32 = 2;
}

/// "No MSI-X vector assigned" sentinel.
pub const MSIX_NO_VECTOR: u32 = 0xffff;

/// Descriptor flag: the chain continues at `next`.
pub const DESC_F_NEXT: u16 = 1;
/// Descriptor flag: device-writable buffer.
pub const DESC_F_WRITE: u16 = 2;

/// virtio-blk request type: device-to-driver transfer (disk read).
pub const BLK_T_IN: u32 = 0;
/// virtio-blk request type: driver-to-device transfer (disk write).
pub const BLK_T_OUT: u32 = 1;
/// virtio-blk status byte: success.
pub const BLK_S_OK: u8 = 0;
/// virtio-blk status byte: device error (e.g. out-of-range sector).
pub const BLK_S_IOERR: u8 = 1;
/// virtio-blk status byte: unsupported request type.
pub const BLK_S_UNSUPP: u8 = 2;
/// virtio-blk sector size in bytes (spec-fixed).
pub const BLK_SECTOR_SIZE: u32 = 512;
/// Bytes of a virtio-blk request header.
pub const BLK_HEADER_BYTES: u32 = 16;
/// Bytes of a virtio-net frame header.
pub const NET_HEADER_BYTES: u32 = 12;
/// Frames the RX FIFO buffers before overrunning.
pub const RX_FIFO_FRAMES: u32 = 32;
/// Hard cap on the queue size (bounds ring windows and save size).
pub const MAX_QUEUE_SIZE: u16 = 256;

/// Which device class sits on the transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtioClass {
    /// virtio-blk: one request queue against a block store.
    Blk,
    /// virtio-net: RX (queue 0) and TX (queue 1).
    Net,
}

impl VirtioClass {
    /// The PCI device ID of this class.
    pub fn device_id(self) -> u16 {
        match self {
            VirtioClass::Blk => VIRTIO_BLK_DEVICE_ID,
            VirtioClass::Net => VIRTIO_NET_DEVICE_ID,
        }
    }

    /// Number of virtqueues the class exposes.
    pub fn queues(self) -> u16 {
        match self {
            VirtioClass::Blk => 1,
            VirtioClass::Net => 2,
        }
    }
}

/// Tunables of a virtio endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtioConfig {
    /// Which device class this endpoint models.
    pub class: VirtioClass,
    /// Ring size of every virtqueue (≤ [`MAX_QUEUE_SIZE`]).
    pub queue_size: u16,
    /// DMA TLP payload (the cache line size).
    pub cacheline: u32,
    /// MMIO register access latency.
    pub pio_latency: Tick,
    /// blk: constant media access latency charged once per request.
    pub access_latency: Tick,
    /// blk: additional latency per 512 B sector.
    pub per_sector_overhead: Tick,
    /// blk: capacity in 512 B sectors.
    pub capacity_sectors: u64,
    /// net: wire bandwidth in bytes per second (serializes TX frames).
    pub wire_bytes_per_sec: u64,
    /// net: deterministic RX frame source.
    pub rx_source: Option<TrafficSpec>,
    /// Interrupt message target: `(irq, interrupt-controller base)`.
    pub intx: Option<(u8, u64)>,
    /// Expose a functional MSI-X capability (one vector per queue plus
    /// the configuration vector).
    pub msix_capable: bool,
}

impl Default for VirtioConfig {
    fn default() -> Self {
        Self {
            class: VirtioClass::Blk,
            queue_size: 128,
            cacheline: 64,
            pio_latency: ns(50),
            access_latency: us(1),
            per_sector_overhead: ns(300),
            capacity_sectors: 1 << 21,         // 1 GB
            wire_bytes_per_sec: 1_250_000_000, // 10 Gb/s
            rx_source: None,
            intx: None,
            msix_capable: false,
        }
    }
}

/// MSI-X vectors a class advertises: one per queue plus the config vector.
pub fn num_msix_vectors(class: VirtioClass) -> u16 {
    class.queues() + 1
}

/// The BAR-resident structure locations a driver discovers by walking the
/// vendor-specific capability chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtioRegions {
    /// Common configuration offset within BAR0.
    pub common: u64,
    /// Notify region offset within BAR0.
    pub notify: u64,
    /// Doorbell stride (queue `q` notifies at `notify + q * multiplier`).
    pub notify_multiplier: u32,
    /// ISR byte offset within BAR0.
    pub isr: u64,
    /// Device-specific configuration offset within BAR0.
    pub device: u64,
}

/// Walks the vendor-specific capability chain of a virtio function and
/// returns the transport structure locations — what a driver does at
/// probe. `None` when any of the four structures is missing or names a
/// BAR other than BAR0.
pub fn discover_regions(cs: &ConfigSpace) -> Option<VirtioRegions> {
    let mut common = None;
    let mut notify = None;
    let mut isr_off = None;
    let mut device = None;
    for (cfg_type, bar, offset, _len, extra) in vendor_structures(cs) {
        if bar != 0 {
            return None;
        }
        match cfg_type {
            vendor_cap::TYPE_COMMON => common = Some(u64::from(offset)),
            vendor_cap::TYPE_NOTIFY => notify = Some((u64::from(offset), extra.unwrap_or(1))),
            vendor_cap::TYPE_ISR => isr_off = Some(u64::from(offset)),
            vendor_cap::TYPE_DEVICE => device = Some(u64::from(offset)),
            _ => {}
        }
    }
    let (notify, notify_multiplier) = notify?;
    Some(VirtioRegions {
        common: common?,
        notify,
        notify_multiplier,
        isr: isr_off?,
        device: device?,
    })
}

/// Builds the configuration space of a virtio endpoint: a Type-0 function
/// with the virtio vendor ID, the class-specific device ID, one memory
/// BAR, and the four vendor-specific capabilities locating the transport
/// structures.
pub fn virtio_config_space(config: &VirtioConfig) -> ConfigSpace {
    let (class_code, subclass) = match config.class {
        VirtioClass::Blk => (0x01, 0x80),
        VirtioClass::Net => (0x02, 0x00),
    };
    let mut cs = Type0Header::new(VIRTIO_VENDOR_ID, config.class.device_id())
        .class_code(class_code, subclass, 0x00)
        .revision(0x01)
        .subsystem(
            VIRTIO_VENDOR_ID,
            match config.class {
                VirtioClass::Net => 1,
                VirtioClass::Blk => 2,
            },
        )
        .bar(0, Bar::Memory32 { size: BAR0_SIZE, prefetchable: false })
        .interrupt_pin(1)
        .capabilities_at(0x40)
        .build();
    let msix = if config.msix_capable {
        Capability::MsixCapable {
            table_size: num_msix_vectors(config.class),
            table_bar: 0,
            table_offset: MSIX_TABLE_OFFSET as u32,
            pba_bar: 0,
            pba_offset: MSIX_PBA_OFFSET as u32,
        }
    } else {
        Capability::MsixDisabled
    };
    CapChain::new()
        .add(
            0x40,
            Capability::VendorSpecific {
                cfg_type: vendor_cap::TYPE_COMMON,
                bar: 0,
                offset: COMMON_OFFSET as u32,
                length: 0x100,
                extra: None,
            },
        )
        .add(
            0x50,
            Capability::VendorSpecific {
                cfg_type: vendor_cap::TYPE_NOTIFY,
                bar: 0,
                offset: NOTIFY_OFFSET as u32,
                length: 0x100,
                extra: Some(NOTIFY_MULTIPLIER),
            },
        )
        .add(
            0x64,
            Capability::VendorSpecific {
                cfg_type: vendor_cap::TYPE_ISR,
                bar: 0,
                offset: ISR_OFFSET as u32,
                length: 4,
                extra: None,
            },
        )
        .add(
            0x74,
            Capability::VendorSpecific {
                cfg_type: vendor_cap::TYPE_DEVICE,
                bar: 0,
                offset: DEVICE_CFG_OFFSET as u32,
                length: 0x40,
                extra: None,
            },
        )
        .add(0xc8, Capability::PowerManagement)
        .add(0xa0, msix)
        .add(
            0xe0,
            Capability::PciExpress {
                port_type: PortType::Endpoint,
                generation: Generation::Gen2,
                max_width: 1,
            },
        )
        .write_into(&mut cs);
    write_aer_capability(&mut cs, 0x100, 0);
    cs
}

// --- internal machinery ----------------------------------------------------

const K_PUMP: u32 = 0;
const K_ACCESS_DONE: u32 = 1;
const K_TX_WIRE_DONE: u32 = 2;
const K_RX_TRAFFIC: u32 = 3;
const K_RX_KICK: u32 = 4;
const K_DOORBELL: u32 = 5;
const K_MSIX_DRAIN: u32 = 6;
const TAG_PIO_RESP: u32 = 0;

/// One parsed virtqueue descriptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Desc {
    addr: u64,
    len: u32,
    flags: u16,
    next: u16,
}

impl State for Desc {
    state_fields!(state self; addr, len, flags, next);
}

impl Desc {
    fn parse(bytes: &[u8]) -> Self {
        Self {
            addr: u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")),
            len: u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")),
            flags: u16::from_le_bytes(bytes[12..14].try_into().expect("2 bytes")),
            next: u16::from_le_bytes(bytes[14..16].try_into().expect("2 bytes")),
        }
    }

    fn writable(&self) -> bool {
        self.flags & DESC_F_WRITE != 0
    }

    fn has_next(&self) -> bool {
        self.flags & DESC_F_NEXT != 0
    }
}

/// What an outstanding DMA request was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DmaTag {
    /// Read of the avail ring's flags+idx dword.
    AvailIdx { q: u8 },
    /// Read of one avail ring entry (the chain head index).
    AvailEntry { q: u8 },
    /// Read of one 16 B descriptor.
    Desc { q: u8 },
    /// Read of a chunk of device-readable buffer; `offset` indexes the
    /// queue's staging buffer.
    Payload { q: u8, offset: u32 },
    /// The non-posted used-index write capping a completion.
    UsedIdx { q: u8 },
}

/// A blank a checkpoint loads an in-flight tag into.
impl Default for DmaTag {
    fn default() -> Self {
        DmaTag::AvailIdx { q: 0 }
    }
}

impl DmaTag {
    /// The tag's wire form: a kind byte, the queue, and one argument (zero
    /// unless the kind carries one).
    fn parts(self) -> (u8, u8, u32) {
        match self {
            DmaTag::AvailIdx { q } => (0, q, 0),
            DmaTag::AvailEntry { q } => (1, q, 0),
            DmaTag::Desc { q } => (2, q, 0),
            DmaTag::Payload { q, offset } => (3, q, offset),
            DmaTag::UsedIdx { q } => (4, q, 0),
        }
    }

    fn from_parts(kind: u8, q: u8, arg: u32) -> Result<Self, SnapshotError> {
        Ok(match kind {
            0 => DmaTag::AvailIdx { q },
            1 => DmaTag::AvailEntry { q },
            2 => DmaTag::Desc { q },
            3 => DmaTag::Payload { q, offset: arg },
            4 => DmaTag::UsedIdx { q },
            other => return Err(SnapshotError::Corrupt(format!("virtio dma tag {other}"))),
        })
    }
}

impl State for DmaTag {
    fn save(&self, w: &mut StateWriter) {
        let (kind, q, arg) = self.parts();
        w.u8(kind);
        w.u8(q);
        w.u32(arg);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = Self::from_parts(r.u8()?, r.u8()?, r.u32()?)?;
        Ok(())
    }
}

/// Every tag names one of the device's queues.
impl Bounded for DmaTag {
    fn within(&self, queues: &usize) -> bool {
        self.parts().1.within(queues)
    }
}

/// Where a queue's walk currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VqPhase {
    /// Nothing in flight; waiting for a doorbell (or an RX frame).
    Idle,
    /// Reading avail.idx.
    FetchAvailIdx,
    /// Reading the head index out of the avail ring.
    FetchAvailEntry,
    /// Reading descriptors along the chain.
    FetchDesc,
    /// Reading device-readable buffer contents into staging.
    FetchPayload,
    /// blk: waiting out the media access latency.
    Access,
    /// net TX: waiting out the wire serialization time.
    Wire,
    /// Completion writes issued; waiting for the used-index response.
    Retire,
}

state_enum!(VqPhase {
    Idle = 0,
    FetchAvailIdx = 1,
    FetchAvailEntry = 2,
    FetchDesc = 3,
    FetchPayload = 4,
    Access = 5,
    Wire = 6,
    Retire = 7,
});

/// One virtqueue's device-side state.
#[derive(Debug, Clone)]
struct Virtqueue {
    // Driver-programmed registers.
    desc: u64,
    avail: u64,
    used: u64,
    enable: bool,
    msix_vector: u32,
    // Walk state.
    phase: VqPhase,
    /// Last avail index consumed (free-running u16).
    last_seen: u16,
    /// Driver's published avail index, as last read.
    avail_idx: u16,
    /// Device's used index (free-running u16).
    used_idx: u16,
    /// A doorbell arrived while the queue was busy.
    repoll: bool,
    /// The queue hit a malformed ring and is halted.
    broken: bool,
    /// Head index of the chain in flight.
    head: u16,
    /// Parsed descriptors of the chain in flight.
    chain: Vec<Desc>,
    /// Staging buffer for device-readable bytes.
    staging: Vec<u8>,
    /// Outstanding payload-read chunks.
    payload_pending: u32,
    /// Bytes to report in the used-ring entry.
    used_len: u32,
}

impl Virtqueue {
    fn new() -> Self {
        Self {
            desc: 0,
            avail: 0,
            used: 0,
            enable: false,
            msix_vector: MSIX_NO_VECTOR,
            phase: VqPhase::Idle,
            last_seen: 0,
            avail_idx: 0,
            used_idx: 0,
            repoll: false,
            broken: false,
            head: 0,
            chain: Vec::new(),
            staging: Vec::new(),
            payload_pending: 0,
            used_len: 0,
        }
    }

    /// Entries published but not yet consumed.
    fn pending(&self) -> u16 {
        self.avail_idx.wrapping_sub(self.last_seen)
    }
}

#[derive(Debug, Default)]
struct VirtioStats {
    mmio_reads: Counter,
    mmio_writes: Counter,
    doorbells: Counter,
    chains_used: Counter,
    desc_reads: Counter,
    payload_bytes_read: Counter,
    payload_bytes_written: Counter,
    desc_faults: Counter,
    irqs: Counter,
    frames_tx: Counter,
    frames_rx: Counter,
    rx_overruns: Counter,
}

/// The virtio endpoint component.
pub struct Virtio {
    name: String,
    config: VirtioConfig,
    config_space: SharedConfigSpace,
    // Transport registers.
    device_status: u32,
    driver_features: u32,
    config_msix_vector: u32,
    queue_select: u32,
    isr_status: u32,
    queues: Vec<Virtqueue>,
    // blk block store: 512 B sectors, sparse.
    store: BTreeMap<u64, Vec<u8>>,
    dma: DmaEngine<DmaTag>,
    msix: MsixBlock,
    // net RX.
    rx_feed: Option<TrafficFeed>,
    rx_started: bool,
    rx_fifo: VecDeque<(u32, u32)>,
    rx_octets: u64,
    /// BAR0 completions on their way out of the PIO port.
    pio: TimedQueue,
    stats: VirtioStats,
}

impl Virtio {
    /// Creates a virtio endpoint; returns the component and the shared
    /// configuration space to register with the PCI host.
    pub fn new(name: impl Into<String>, config: VirtioConfig) -> (Self, SharedConfigSpace) {
        assert!(
            (1..=MAX_QUEUE_SIZE).contains(&config.queue_size),
            "queue size must be 1..={MAX_QUEUE_SIZE}"
        );
        assert!(config.cacheline > 0 && config.cacheline.is_power_of_two());
        if config.rx_source.is_some() {
            assert_eq!(config.class, VirtioClass::Net, "rx_source needs a net device");
        }
        let cs = shared(virtio_config_space(&config));
        let queues = (0..config.class.queues()).map(|_| Virtqueue::new()).collect();
        let vectors = if config.msix_capable { num_msix_vectors(config.class) } else { 0 };
        (
            Self {
                name: name.into(),
                config_space: cs.clone(),
                device_status: 0,
                driver_features: 0,
                config_msix_vector: MSIX_NO_VECTOR,
                queue_select: 0,
                isr_status: 0,
                queues,
                store: BTreeMap::new(),
                dma: DmaEngine::new(VIRTIO_DMA_PORT, K_PUMP, cs.clone()),
                msix: MsixBlock::new(cs.clone(), vectors, MSIX_TABLE_OFFSET, MSIX_PBA_OFFSET),
                rx_feed: None,
                rx_started: false,
                rx_fifo: VecDeque::new(),
                rx_octets: 0,
                pio: TimedQueue::unbounded(),
                stats: VirtioStats::default(),
                config,
            },
            cs,
        )
    }

    /// Re-targets the INTx interrupt message (used once the enumerated
    /// IRQ is known).
    pub fn set_intx(&mut self, intx: Option<(u8, u64)>) {
        self.config.intx = intx;
    }

    /// The device class this endpoint models.
    pub fn class(&self) -> VirtioClass {
        self.config.class
    }

    /// Preloads the blk block store (tests and experiments).
    pub fn store_preload(&mut self, sector: u64, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let s = sector + (pos / BLK_SECTOR_SIZE as usize) as u64;
            let buf = self.store.entry(s).or_insert_with(|| vec![0; BLK_SECTOR_SIZE as usize]);
            let n = data.len().min(pos + BLK_SECTOR_SIZE as usize) - pos;
            buf[..n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    fn bar0(&self) -> u64 {
        bar_base(&self.config_space.borrow(), 0)
    }

    fn store_read_bytes(&self, sector: u64, offset: u32, out: &mut [u8]) {
        let mut pos = 0;
        while pos < out.len() {
            let at = u64::from(offset) + pos as u64;
            let s = sector + at / u64::from(BLK_SECTOR_SIZE);
            let off = (at % u64::from(BLK_SECTOR_SIZE)) as usize;
            let n = out.len().min(pos + (BLK_SECTOR_SIZE as usize - off)) - pos;
            match self.store.get(&s) {
                Some(buf) => out[pos..pos + n].copy_from_slice(&buf[off..off + n]),
                None => out[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    fn store_write_bytes(&mut self, sector: u64, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let s = sector + (pos / BLK_SECTOR_SIZE as usize) as u64;
            let off = pos % BLK_SECTOR_SIZE as usize;
            let n = data.len().min(pos + (BLK_SECTOR_SIZE as usize - off)) - pos;
            let buf = self.store.entry(s).or_insert_with(|| vec![0; BLK_SECTOR_SIZE as usize]);
            buf[off..off + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    // --- registers ---------------------------------------------------------

    fn selected(&self) -> Option<usize> {
        let q = self.queue_select as usize;
        (q < self.queues.len()).then_some(q)
    }

    fn reg_read(&mut self, offset: u64) -> u32 {
        self.stats.mmio_reads.inc();
        match offset {
            o if (COMMON_OFFSET..COMMON_OFFSET + 0x100).contains(&o) => {
                self.common_read(o - COMMON_OFFSET)
            }
            ISR_OFFSET => std::mem::take(&mut self.isr_status), // read clears
            o if (DEVICE_CFG_OFFSET..DEVICE_CFG_OFFSET + 0x40).contains(&o) => {
                self.device_cfg_read(o - DEVICE_CFG_OFFSET)
            }
            o => self.msix.mmio_read(o).unwrap_or(0),
        }
    }

    fn common_read(&mut self, offset: u64) -> u32 {
        match offset {
            common::DEVICE_FEATURES => 0, // feature bits all zero (legacy-free base)
            common::DRIVER_FEATURES => self.driver_features,
            common::NUM_QUEUES => u32::from(self.config.class.queues()),
            common::DEVICE_STATUS => self.device_status,
            common::CONFIG_MSIX_VECTOR => self.config_msix_vector,
            common::QUEUE_SELECT => self.queue_select,
            // Everything else reads the selected queue.
            _ => {
                let Some(vq) = self.selected().map(|q| &self.queues[q]) else {
                    return if offset == common::QUEUE_MSIX_VECTOR { MSIX_NO_VECTOR } else { 0 };
                };
                match offset {
                    common::QUEUE_SIZE => u32::from(self.config.queue_size),
                    common::QUEUE_MSIX_VECTOR => vq.msix_vector,
                    common::QUEUE_ENABLE => u32::from(vq.enable),
                    common::QUEUE_DESC_LO => vq.desc as u32,
                    common::QUEUE_DESC_HI => (vq.desc >> 32) as u32,
                    common::QUEUE_AVAIL_LO => vq.avail as u32,
                    common::QUEUE_AVAIL_HI => (vq.avail >> 32) as u32,
                    common::QUEUE_USED_LO => vq.used as u32,
                    common::QUEUE_USED_HI => (vq.used >> 32) as u32,
                    _ => 0,
                }
            }
        }
    }

    fn device_cfg_read(&self, offset: u64) -> u32 {
        match (self.config.class, offset) {
            (VirtioClass::Blk, 0x0) => self.config.capacity_sectors as u32,
            (VirtioClass::Blk, 0x4) => (self.config.capacity_sectors >> 32) as u32,
            // net: a fixed locally-administered MAC, then link status = up.
            (VirtioClass::Net, 0x0) => u32::from_le_bytes([0x02, 0x1a, 0xf4, 0x00]),
            (VirtioClass::Net, 0x4) => u32::from_le_bytes([0x00, 0x01, 0x01, 0x00]), // mac tail + status
            _ => 0,
        }
    }

    fn reg_write(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.stats.mmio_writes.inc();
        match offset {
            o if (COMMON_OFFSET..COMMON_OFFSET + 0x100).contains(&o) => {
                self.common_write(ctx, o - COMMON_OFFSET, value)
            }
            o if (NOTIFY_OFFSET..NOTIFY_OFFSET + 0x100).contains(&o) => {
                let q = (o - NOTIFY_OFFSET) / u64::from(NOTIFY_MULTIPLIER);
                // The walk starts off a fresh event: the doorbell write
                // arrived through the link this device would immediately
                // DMA back into.
                ctx.schedule(0, Event::Timer { kind: K_DOORBELL, data: q });
            }
            o => self.msix.mmio_write(o, value),
        }
    }

    fn common_write(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        match offset {
            common::DRIVER_FEATURES => self.driver_features = value,
            common::DEVICE_STATUS => {
                if value == 0 {
                    self.reset(ctx);
                } else {
                    // NEEDS_RESET is device-owned; software cannot clear it
                    // except through a full reset.
                    let sticky = self.device_status & status::NEEDS_RESET;
                    self.device_status = (value & 0xff) | sticky;
                    if self.device_status & status::DRIVER_OK != 0 {
                        self.start_rx_stream(ctx);
                    }
                }
            }
            common::CONFIG_MSIX_VECTOR => self.config_msix_vector = self.checked_vector(value),
            common::QUEUE_SELECT => self.queue_select = value,
            // Everything else addresses the selected queue; writes with
            // no queue selected are dropped.
            _ => {
                let vector = self.checked_vector(value);
                let Some(vq) = self.selected().map(|q| &mut self.queues[q]) else { return };
                match offset {
                    common::QUEUE_MSIX_VECTOR => vq.msix_vector = vector,
                    common::QUEUE_ENABLE => vq.enable = value & 1 != 0,
                    common::QUEUE_DESC_LO => set_lo32(&mut vq.desc, value),
                    common::QUEUE_DESC_HI => set_hi32(&mut vq.desc, value),
                    common::QUEUE_AVAIL_LO => set_lo32(&mut vq.avail, value),
                    common::QUEUE_AVAIL_HI => set_hi32(&mut vq.avail, value),
                    common::QUEUE_USED_LO => set_lo32(&mut vq.used, value),
                    common::QUEUE_USED_HI => set_hi32(&mut vq.used, value),
                    _ => {}
                }
            }
        }
    }

    /// The vector a driver's write selects. A value past the MSI-X table
    /// cannot be mapped, so the event stays unmapped and the register
    /// reads back `NO_VECTOR`, which is how the virtio spec has a driver
    /// detect a failed mapping.
    fn checked_vector(&self, value: u32) -> u32 {
        if value < u32::from(self.msix.vectors()) {
            value
        } else {
            MSIX_NO_VECTOR
        }
    }

    fn reset(&mut self, _ctx: &mut Ctx<'_>) {
        self.device_status = 0;
        self.isr_status = 0;
        self.config_msix_vector = MSIX_NO_VECTOR;
        for vq in &mut self.queues {
            *vq = Virtqueue::new();
        }
        // In-flight DMA keeps draining through the tag map; responses for
        // a reset queue are dropped because the phase is back to Idle.
        self.rx_fifo.clear();
    }

    // --- virtqueue walk ----------------------------------------------------

    fn doorbell(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        if q >= self.queues.len() {
            return;
        }
        self.stats.doorbells.inc();
        ctx.emit(TraceCategory::Device, TraceKind::VirtqueueNotify, None, None, q as u64);
        let vq = &mut self.queues[q];
        if vq.broken || !vq.enable {
            return;
        }
        if vq.phase == VqPhase::Idle {
            self.begin_poll(ctx, q);
        } else {
            vq.repoll = true;
        }
    }

    /// Starts a fresh avail-index read (entry point of every walk).
    fn begin_poll(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        self.queues[q].phase = VqPhase::FetchAvailIdx;
        self.queues[q].repoll = false;
        let addr = self.queues[q].avail;
        self.dma_read(ctx, addr, 4, DmaTag::AvailIdx { q: q as u8 });
    }

    fn fault(&mut self, ctx: &mut Ctx<'_>, q: usize, what: &str) {
        // A malformed ring is a driver bug: halt the queue, flag the
        // device, and tell software — loud, but never a hang or a panic.
        let _ = what;
        self.stats.desc_faults.inc();
        self.device_status |= status::NEEDS_RESET;
        let vq = &mut self.queues[q];
        vq.broken = true;
        vq.phase = VqPhase::Idle;
        vq.chain.clear();
        vq.staging.clear();
        self.deliver_config_irq(ctx);
    }

    /// Issues a tagged DMA read through the engine's ordered lane.
    fn dma_read(&mut self, ctx: &mut Ctx<'_>, addr: u64, size: u32, tag: DmaTag) {
        let id = ctx.alloc_packet_id();
        let pkt = Packet::request(id, Command::ReadReq, addr, size, ctx.self_id());
        self.dma.send(ctx, pkt, Some(tag));
    }

    /// Issues a DMA write carrying `data`: posted, or — with a tag — the
    /// non-posted kind whose completion the walk waits for.
    fn dma_write(&mut self, ctx: &mut Ctx<'_>, addr: u64, data: &[u8], tag: Option<DmaTag>) {
        let id = ctx.alloc_packet_id();
        let mut pkt =
            Packet::request(id, Command::WriteReq, addr, data.len() as u32, ctx.self_id())
                .with_payload(data.to_vec());
        pkt.set_posted(tag.is_none());
        self.dma.send(ctx, pkt, tag);
    }

    fn dma_write_posted(&mut self, ctx: &mut Ctx<'_>, addr: u64, data: &[u8]) {
        self.dma_write(ctx, addr, data, None);
    }

    /// A tagged DMA response arrived; advance the owning queue's walk.
    fn dma_completed(&mut self, ctx: &mut Ctx<'_>, tag: DmaTag, data: Option<&[u8]>) {
        match tag {
            DmaTag::AvailIdx { q } => self.avail_idx_arrived(ctx, q as usize, data),
            DmaTag::AvailEntry { q } => self.avail_entry_arrived(ctx, q as usize, data),
            DmaTag::Desc { q } => self.desc_arrived(ctx, q as usize, data),
            DmaTag::Payload { q, offset } => self.payload_arrived(ctx, q as usize, offset, data),
            DmaTag::UsedIdx { q } => self.retire_chain(ctx, q as usize),
        }
    }

    fn avail_idx_arrived(&mut self, ctx: &mut Ctx<'_>, q: usize, data: Option<&[u8]>) {
        if self.queues[q].phase != VqPhase::FetchAvailIdx {
            return; // queue was reset mid-flight
        }
        let idx = data
            .filter(|d| d.len() >= 4)
            .map(|d| u16::from_le_bytes([d[2], d[3]]))
            .unwrap_or(self.queues[q].avail_idx);
        self.queues[q].avail_idx = idx;
        if self.queues[q].pending() == 0 {
            self.queues[q].phase = VqPhase::Idle;
            self.maybe_continue(ctx, q);
            return;
        }
        if self.rx_blocked(q) {
            // RX queue with buffers but no frame to deliver yet.
            self.queues[q].phase = VqPhase::Idle;
            return;
        }
        // Fetch the head index of the next published chain.
        self.queues[q].phase = VqPhase::FetchAvailEntry;
        let slot = u64::from(self.queues[q].last_seen % self.config.queue_size);
        let addr = self.queues[q].avail + 4 + slot * 2;
        self.dma_read(ctx, addr, 2, DmaTag::AvailEntry { q: q as u8 });
    }

    /// Whether queue `q` is the net RX queue waiting on a frame.
    fn rx_blocked(&self, q: usize) -> bool {
        self.config.class == VirtioClass::Net && q == 0 && self.rx_fifo.is_empty()
    }

    fn avail_entry_arrived(&mut self, ctx: &mut Ctx<'_>, q: usize, data: Option<&[u8]>) {
        if self.queues[q].phase != VqPhase::FetchAvailEntry {
            return;
        }
        let head = data
            .filter(|d| d.len() >= 2)
            .map(|d| u16::from_le_bytes([d[0], d[1]]))
            .unwrap_or(u16::MAX);
        if head >= self.config.queue_size {
            self.fault(ctx, q, "avail head out of range");
            return;
        }
        let vq = &mut self.queues[q];
        vq.head = head;
        vq.chain.clear();
        vq.phase = VqPhase::FetchDesc;
        let addr = vq.desc + u64::from(head) * 16;
        self.stats.desc_reads.inc();
        self.dma_read(ctx, addr, 16, DmaTag::Desc { q: q as u8 });
    }

    fn desc_arrived(&mut self, ctx: &mut Ctx<'_>, q: usize, data: Option<&[u8]>) {
        if self.queues[q].phase != VqPhase::FetchDesc {
            return;
        }
        let Some(bytes) = data.filter(|d| d.len() >= 16) else {
            self.fault(ctx, q, "short descriptor read");
            return;
        };
        let d = Desc::parse(bytes);
        self.queues[q].chain.push(d);
        if d.has_next() {
            if d.next >= self.config.queue_size {
                self.fault(ctx, q, "descriptor next out of range");
                return;
            }
            if self.queues[q].chain.len() >= usize::from(self.config.queue_size) {
                self.fault(ctx, q, "descriptor chain longer than the ring");
                return;
            }
            let addr = self.queues[q].desc + u64::from(d.next) * 16;
            self.stats.desc_reads.inc();
            self.dma_read(ctx, addr, 16, DmaTag::Desc { q: q as u8 });
            return;
        }
        self.chain_fetched(ctx, q);
    }

    /// The whole chain is in hand; start the class-specific processing.
    fn chain_fetched(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        match (self.config.class, q) {
            (VirtioClass::Blk, _) => self.blk_chain_fetched(ctx, q),
            (VirtioClass::Net, 1) => self.net_tx_chain_fetched(ctx, q),
            (VirtioClass::Net, _) => self.net_rx_chain_fetched(ctx, q),
        }
    }

    /// Reads every device-readable byte of the chain into staging as
    /// cache-line DMA bursts. Returns the total readable byte count.
    fn fetch_readable(&mut self, ctx: &mut Ctx<'_>, q: usize) -> u32 {
        let chain = self.queues[q].chain.clone();
        let total: u32 = chain.iter().filter(|d| !d.writable()).map(|d| d.len).sum();
        self.queues[q].staging = vec![0; total as usize];
        self.queues[q].payload_pending = 0;
        self.queues[q].phase = VqPhase::FetchPayload;
        let mut offset = 0u32;
        for d in chain.iter().filter(|d| !d.writable()) {
            let mut pos = 0u32;
            while pos < d.len {
                let n = (d.len - pos).min(self.config.cacheline);
                self.queues[q].payload_pending += 1;
                self.dma_read(
                    ctx,
                    d.addr + u64::from(pos),
                    n,
                    DmaTag::Payload { q: q as u8, offset: offset + pos },
                );
                pos += n;
            }
            offset += d.len;
        }
        self.stats.payload_bytes_read.add(u64::from(total));
        total
    }

    fn payload_arrived(&mut self, ctx: &mut Ctx<'_>, q: usize, offset: u32, data: Option<&[u8]>) {
        if self.queues[q].phase != VqPhase::FetchPayload {
            return;
        }
        if let Some(d) = data {
            let start = offset as usize;
            let end = (start + d.len()).min(self.queues[q].staging.len());
            if start < end {
                self.queues[q].staging[start..end].copy_from_slice(&d[..end - start]);
            }
        }
        self.queues[q].payload_pending -= 1;
        if self.queues[q].payload_pending == 0 {
            match (self.config.class, q) {
                (VirtioClass::Blk, _) => self.blk_payload_ready(ctx, q),
                (VirtioClass::Net, 1) => self.net_tx_payload_ready(ctx, q),
                (VirtioClass::Net, _) => unreachable!("RX fetches no payload"),
            }
        }
    }

    // --- virtio-blk --------------------------------------------------------

    fn blk_chain_fetched(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let chain = &self.queues[q].chain;
        // Shape check: header (readable ≥16 B) … status (writable ≥1 B).
        let ok = chain.len() >= 2
            && !chain[0].writable()
            && chain[0].len >= BLK_HEADER_BYTES
            && chain[chain.len() - 1].writable()
            && chain[chain.len() - 1].len >= 1;
        if !ok {
            self.fault(ctx, q, "malformed blk chain");
            return;
        }
        // Fetch the header plus any driver-to-device payload.
        self.fetch_readable(ctx, q);
    }

    fn blk_payload_ready(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let header = &self.queues[q].staging[..BLK_HEADER_BYTES as usize];
        let req_type = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
        let sector = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let data_len: u32 = match req_type {
            BLK_T_IN => {
                // Device-to-driver: writable descriptors minus the status.
                let chain = &self.queues[q].chain;
                chain[1..chain.len() - 1].iter().filter(|d| d.writable()).map(|d| d.len).sum()
            }
            _ => self.queues[q].staging.len() as u32 - BLK_HEADER_BYTES,
        };
        let sectors = u64::from(data_len.div_ceil(BLK_SECTOR_SIZE));
        self.queues[q].phase = VqPhase::Access;
        let latency = self.config.access_latency + self.config.per_sector_overhead * sectors.max(1);
        ctx.schedule(
            latency,
            Event::Timer { kind: K_ACCESS_DONE, data: pack_access(q, req_type, sector) },
        );
    }

    fn blk_access_done(&mut self, ctx: &mut Ctx<'_>, q: usize, req_type: u32, sector: u64) {
        if self.queues[q].phase != VqPhase::Access {
            return;
        }
        let chain = self.queues[q].chain.clone();
        let status_desc = chain[chain.len() - 1];
        let mut blk_status = BLK_S_OK;
        let mut used_len = 1u32; // the status byte is always written
        match req_type {
            BLK_T_IN => {
                let data_descs: Vec<Desc> =
                    chain[1..chain.len() - 1].iter().copied().filter(|d| d.writable()).collect();
                let total: u32 = data_descs.iter().map(|d| d.len).sum();
                if sector + u64::from(total.div_ceil(BLK_SECTOR_SIZE))
                    > self.config.capacity_sectors
                {
                    blk_status = BLK_S_IOERR;
                } else {
                    // DMA the store contents out as cache-line bursts.
                    let mut req_off = 0u32;
                    for d in &data_descs {
                        let mut pos = 0u32;
                        while pos < d.len {
                            let n = (d.len - pos).min(self.config.cacheline);
                            let mut buf = vec![0u8; n as usize];
                            self.store_read_bytes(sector, req_off + pos, &mut buf);
                            self.dma_write_posted(ctx, d.addr + u64::from(pos), &buf);
                            pos += n;
                        }
                        req_off += d.len;
                    }
                    self.stats.payload_bytes_written.add(u64::from(total));
                    used_len += total;
                }
            }
            BLK_T_OUT => {
                let data = self.queues[q].staging[BLK_HEADER_BYTES as usize..].to_vec();
                if sector + u64::from((data.len() as u32).div_ceil(BLK_SECTOR_SIZE))
                    > self.config.capacity_sectors
                {
                    blk_status = BLK_S_IOERR;
                } else {
                    self.store_write_bytes(sector, &data);
                }
            }
            _ => blk_status = BLK_S_UNSUPP,
        }
        self.queues[q].used_len = used_len;
        self.dma_write_posted(ctx, status_desc.addr, &[blk_status]);
        self.complete_chain(ctx, q);
    }

    // --- virtio-net --------------------------------------------------------

    fn net_tx_chain_fetched(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let chain = &self.queues[q].chain;
        let readable: u32 = chain.iter().filter(|d| !d.writable()).map(|d| d.len).sum();
        if readable < NET_HEADER_BYTES {
            self.fault(ctx, q, "TX chain shorter than the net header");
            return;
        }
        self.fetch_readable(ctx, q);
    }

    fn net_tx_payload_ready(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let frame_bytes = self.queues[q].staging.len() as u32 - NET_HEADER_BYTES;
        self.queues[q].phase = VqPhase::Wire;
        let wire = transfer_time(u64::from(frame_bytes), self.config.wire_bytes_per_sec);
        ctx.schedule(wire, Event::Timer { kind: K_TX_WIRE_DONE, data: q as u64 });
    }

    fn net_tx_wire_done(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        if self.queues[q].phase != VqPhase::Wire {
            return;
        }
        self.stats.frames_tx.inc();
        self.queues[q].used_len = 0;
        self.complete_chain(ctx, q);
    }

    fn net_rx_chain_fetched(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let Some((_flow, bytes)) = self.rx_fifo.pop_front() else {
            // Frame vanished (reset); drop the walk.
            self.queues[q].phase = VqPhase::Idle;
            return;
        };
        let chain = self.queues[q].chain.clone();
        let writable: u32 = chain.iter().filter(|d| d.writable()).map(|d| d.len).sum();
        if writable < NET_HEADER_BYTES {
            self.fault(ctx, q, "RX buffer shorter than the net header");
            return;
        }
        // Fill header + as much of the frame as the buffers hold, as
        // posted cache-line bursts.
        let deliver = (NET_HEADER_BYTES + bytes).min(writable);
        let mut remaining = deliver;
        for d in chain.iter().filter(|d| d.writable()) {
            let mut pos = 0u32;
            while pos < d.len && remaining > 0 {
                let n = (d.len - pos).min(self.config.cacheline).min(remaining);
                let buf = vec![0u8; n as usize];
                self.dma_write_posted(ctx, d.addr + u64::from(pos), &buf);
                pos += n;
                remaining -= n;
            }
        }
        self.stats.frames_rx.inc();
        self.stats.payload_bytes_written.add(u64::from(deliver));
        self.rx_octets += u64::from(bytes);
        self.queues[q].used_len = deliver;
        self.complete_chain(ctx, q);
    }

    // --- completion --------------------------------------------------------

    /// Writes the used-ring entry (posted) and the used-index cap
    /// (non-posted); the cap's completion retires the chain.
    fn complete_chain(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let vq = &mut self.queues[q];
        vq.phase = VqPhase::Retire;
        vq.last_seen = vq.last_seen.wrapping_add(1);
        let slot = u64::from(vq.used_idx % self.config.queue_size);
        vq.used_idx = vq.used_idx.wrapping_add(1);
        let entry_addr = vq.used + 4 + slot * 8;
        let head = vq.head;
        let used_len = vq.used_len;
        let mut entry = [0u8; 8];
        entry[0..4].copy_from_slice(&u32::from(head).to_le_bytes());
        entry[4..8].copy_from_slice(&used_len.to_le_bytes());
        self.dma_write_posted(ctx, entry_addr, &entry);
        // The non-posted used-index write caps the completion.
        let (idx_addr, idx) = (self.queues[q].used + 2, self.queues[q].used_idx.to_le_bytes());
        self.dma_write(ctx, idx_addr, &idx, Some(DmaTag::UsedIdx { q: q as u8 }));
    }

    /// The used-index write completed: the chain is visibly retired.
    fn retire_chain(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        if self.queues[q].phase != VqPhase::Retire {
            return;
        }
        self.stats.chains_used.inc();
        ctx.emit(
            TraceCategory::Device,
            TraceKind::VirtqueueUsed,
            None,
            None,
            u64::from(self.queues[q].head),
        );
        self.queues[q].chain.clear();
        self.queues[q].staging.clear();
        self.queues[q].phase = VqPhase::Idle;
        self.deliver_queue_irq(ctx, q);
        self.maybe_continue(ctx, q);
    }

    /// After a completion or an empty poll: keep walking while entries
    /// remain (or a doorbell arrived mid-walk).
    fn maybe_continue(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let vq = &self.queues[q];
        if vq.broken || !vq.enable || vq.phase != VqPhase::Idle {
            return;
        }
        if self.rx_blocked(q) {
            return;
        }
        if vq.pending() > 0 || vq.repoll {
            self.begin_poll(ctx, q);
        }
    }

    // --- interrupts --------------------------------------------------------

    fn deliver_queue_irq(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let vector = self.queues[q].msix_vector;
        self.deliver_irq(ctx, vector, isr::QUEUE);
    }

    fn deliver_config_irq(&mut self, ctx: &mut Ctx<'_>) {
        self.deliver_irq(ctx, self.config_msix_vector, isr::CONFIG);
    }

    /// MSI-X to `vector` when the function enable is set (a masked vector
    /// latches in the PBA until unmasked), else ISR bit + INTx message.
    fn deliver_irq(&mut self, ctx: &mut Ctx<'_>, vector: u32, isr_bit: u32) {
        if self.msix.active() {
            if vector != MSIX_NO_VECTOR && !self.msix.latch_if_masked(vector as u16) {
                self.msix_fire(ctx, vector as u16);
            }
        } else {
            self.isr_status |= isr_bit;
            self.raise_intx(ctx);
        }
    }

    fn msix_fire(&mut self, ctx: &mut Ctx<'_>, v: u16) {
        self.stats.irqs.inc();
        self.msix.msix_send(ctx, &mut self.dma, v);
    }

    /// Fires PBA-latched vectors that software has just unmasked.
    fn msix_unmasked(&mut self, ctx: &mut Ctx<'_>) {
        let mut ready = self.msix.msix_drain();
        while ready != 0 {
            self.msix_fire(ctx, ready.trailing_zeros() as u16);
            ready &= ready - 1;
        }
    }

    /// The INTx message is a posted write like any other: it queues behind
    /// the used-ring writes it announces.
    fn raise_intx(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.irqs.inc();
        let msg = legacy_message(ctx, &self.config_space.borrow(), self.config.intx);
        if let Some(msg) = msg {
            ctx.emit(TraceCategory::Device, TraceKind::Interrupt, Some(msg.id()), None, msg.addr());
            self.dma.send(ctx, msg, None);
        }
    }

    // --- net RX source -----------------------------------------------------

    fn start_rx_stream(&mut self, ctx: &mut Ctx<'_>) {
        if self.rx_started || self.config.rx_source.is_none() {
            return;
        }
        self.rx_started = true;
        let mut feed = TrafficFeed::new(self.config.rx_source.as_ref().expect("checked above"));
        feed.schedule_next(ctx, K_RX_TRAFFIC);
        self.rx_feed = Some(feed);
    }

    fn rx_traffic_arrived(&mut self, ctx: &mut Ctx<'_>, data: u64) {
        let (flow, bytes) = TrafficFeed::unpack_frame(data);
        if self.rx_fifo.len() as u32 >= RX_FIFO_FRAMES {
            self.stats.rx_overruns.inc();
        } else {
            self.rx_fifo.push_back((flow, bytes));
            self.rx_kick(ctx);
        }
        if let Some(feed) = &mut self.rx_feed {
            feed.schedule_next(ctx, K_RX_TRAFFIC);
        }
    }

    /// Starts the RX queue walking when a frame is waiting and buffers
    /// may be available.
    fn rx_kick(&mut self, ctx: &mut Ctx<'_>) {
        if self.config.class != VirtioClass::Net || self.rx_fifo.is_empty() {
            return;
        }
        let vq = &self.queues[0];
        if vq.enable && !vq.broken && vq.phase == VqPhase::Idle {
            self.begin_poll(ctx, 0);
        }
    }
}

/// Packs a blk access-timer payload: queue, request type, sector.
fn pack_access(q: usize, req_type: u32, sector: u64) -> u64 {
    // Sector fits in 40 bits (512 TB) — far beyond the modeled capacity.
    (q as u64) | (u64::from(req_type.min(0xff)) << 8) | (sector << 16)
}

fn unpack_access(data: u64) -> (usize, u32, u64) {
    ((data & 0xff) as usize, ((data >> 8) & 0xff) as u32, data >> 16)
}

impl Component for Virtio {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, VIRTIO_PIO_PORT, "MMIO arrives on the PIO port");
        let bar0 = self.bar0();
        let resp = mmio::serve(self, ctx, bar0, BAR0_SIZE, pkt, Self::reg_read, Self::reg_write);
        self.pio.delay(ctx, self.config.pio_latency, TAG_PIO_RESP, resp);
        // Any MMIO access re-evaluates PBA-latched vectors (off a fresh
        // event — the doorbell write rides the link the vector would
        // immediately ride back).
        if self.msix.any_pending() {
            ctx.schedule(0, Event::Timer { kind: K_MSIX_DRAIN, data: 0 });
        }
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, VIRTIO_DMA_PORT);
        self.dma.on_response(ctx, pkt);
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_PUMP, data } => {
                if let Some((tag, payload)) = self.dma.take_completion(data) {
                    let data_opt = (!payload.is_empty()).then_some(payload.as_slice());
                    self.dma_completed(ctx, tag, data_opt);
                }
            }
            Event::Timer { kind: K_ACCESS_DONE, data } => {
                let (q, req_type, sector) = unpack_access(data);
                self.blk_access_done(ctx, q, req_type, sector);
            }
            Event::Timer { kind: K_TX_WIRE_DONE, data } => {
                self.net_tx_wire_done(ctx, data as usize)
            }
            Event::Timer { kind: K_RX_TRAFFIC, data } => self.rx_traffic_arrived(ctx, data),
            Event::Timer { kind: K_RX_KICK, .. } => self.rx_kick(ctx),
            Event::Timer { kind: K_DOORBELL, data } => self.doorbell(ctx, data as usize),
            Event::Timer { kind: K_MSIX_DRAIN, .. } => self.msix_unmasked(ctx),
            Event::Timer { kind, .. } => panic!("{}: unknown timer {kind}", self.name),
            Event::DelayedPacket { tag: TAG_PIO_RESP, pkt } => {
                self.pio.arrive(pkt);
                self.pio.flush(ctx, VIRTIO_PIO_PORT);
            }
            Event::DelayedPacket { tag, .. } => panic!("{}: unknown tag {tag}", self.name),
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        match port {
            VIRTIO_DMA_PORT => {
                self.dma.retry(ctx);
            }
            VIRTIO_PIO_PORT => {
                self.pio.unblock();
                self.pio.flush(ctx, port);
            }
            other => panic!("{}: retry on unknown port {other}", self.name),
        }
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("mmio_reads", &self.stats.mmio_reads);
        out.counter("mmio_writes", &self.stats.mmio_writes);
        out.counter("doorbells", &self.stats.doorbells);
        out.counter("chains_used", &self.stats.chains_used);
        out.counter("desc_reads", &self.stats.desc_reads);
        // INTx messages ride the ordered lane as 4-byte posted writes and
        // have always been counted with the write TLPs here.
        let messages = self.dma.message_tlps.value();
        out.counter("dma_read_tlps", &self.dma.read_tlps);
        out.scalar("dma_write_tlps", (self.dma.write_tlps.value() + messages) as f64);
        out.scalar("dma_bytes", (self.dma.bytes.value() + 4 * messages) as f64);
        out.counter("dma_error_completions", &self.dma.error_completions);
        out.counter("payload_bytes_read", &self.stats.payload_bytes_read);
        out.counter("payload_bytes_written", &self.stats.payload_bytes_written);
        out.counter("desc_faults", &self.stats.desc_faults);
        out.counter("irqs", &self.stats.irqs);
        out.counter("msix_irqs", &self.msix.sent);
        if self.config.class == VirtioClass::Net {
            out.counter("frames_tx", &self.stats.frames_tx);
            out.counter("frames_rx", &self.stats.frames_rx);
            out.counter("rx_overruns", &self.stats.rx_overruns);
            if self.config.rx_source.is_some() {
                out.scalar("rx_octets", self.rx_octets as f64);
            }
        }
    }

    state_fields!(component self;
        device_status, driver_features, config_msix_vector, queue_select, isr_status,
        [queues] {
            desc, avail, used, enable, msix_vector, phase, last_seen, avail_idx, used_idx,
            repoll, broken, head, chain, staging, payload_pending, used_len,
        },
        store,
        // Validation only: the block store holds whole sectors, and every
        // mapped MSI-X vector lies inside the table (the table size is the
        // fresh build's).
        save(_w) {}
        load(_r) {
            if let Some(buf) = self.store.values().find(|b| b.len() != BLK_SECTOR_SIZE as usize) {
                return Err(SnapshotError::Corrupt(format!(
                    "virtio store sector of {} bytes",
                    buf.len()
                )));
            }
            let vectors = self.queues.iter().map(|q| q.msix_vector);
            if let Some(v) = vectors
                .chain([self.config_msix_vector])
                .find(|&v| self.checked_vector(v) != v)
            {
                return Err(SnapshotError::Corrupt(format!(
                    "virtio MSI-X vector {v} is outside the {}-entry table",
                    self.msix.vectors()
                )));
            }
        },
        dma: index < self.queues.len(),
        msix, rx_started,
        // The feed is described by its position: restore re-derives the
        // stream and skips the emitted prefix.
        save(w) {
            w.u32(self.rx_feed.as_ref().map_or(0, |f| f.emitted()));
        }
        load(r) {
            let emitted = r.u32()?;
            self.rx_feed = match &self.config.rx_source {
                Some(source) if self.rx_started => Some(TrafficFeed::resume(source, emitted)),
                _ => None,
            };
        },
        rx_fifo, rx_octets, pio, stats.mmio_reads, stats.mmio_writes, stats.doorbells,
        stats.chains_used, stats.desc_reads, stats.payload_bytes_read, stats.payload_bytes_written,
        stats.desc_faults, stats.irqs, stats.frames_tx, stats.frames_rx, stats.rx_overruns,
    );
}

#[cfg(test)]
impl Virtio {
    /// Points one in-flight DMA tag at a queue this device does not have;
    /// `false` when nothing is in flight.
    pub(crate) fn misroute_a_dma_tag(&mut self) -> bool {
        let missing = self.queues.len() as u8;
        let tag = self.dma.tags_mut().next();
        tag.map(|tag| {
            let (kind, _, arg) = tag.parts();
            *tag = DmaTag::from_parts(kind, missing, arg).expect("kind of a live tag");
        })
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    use crate::testkit::Guest;

    const BAR0: u64 = 0x4000_0000;
    const RING: u64 = 0x8000_0000;

    type SharedMem = Rc<RefCell<BTreeMap<u64, u8>>>;

    fn mem_write(m: &SharedMem, addr: u64, data: &[u8]) {
        let mut mem = m.borrow_mut();
        for (i, &b) in data.iter().enumerate() {
            mem.insert(addr + i as u64, b);
        }
    }

    fn mem_read(m: &SharedMem, addr: u64, len: usize) -> Vec<u8> {
        let mem = m.borrow();
        (0..len).map(|i| mem.get(&(addr + i as u64)).copied().unwrap_or(0)).collect()
    }

    /// Functional memory endpoint: services DMA against a shared byte map
    /// after a fixed latency, like host DRAM would.
    struct FuncMem {
        mem: SharedMem,
        latency: Tick,
    }

    impl Component for FuncMem {
        fn name(&self) -> &str {
            "mem"
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            ctx.schedule(self.latency, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { mut pkt, .. } = ev else { panic!() };
            match pkt.cmd() {
                Command::ReadReq => {
                    let data = mem_read(&self.mem, pkt.addr(), pkt.size() as usize);
                    ctx.try_send_response(PortId(0), pkt.into_read_response(data)).unwrap();
                }
                Command::WriteReq | Command::Message => {
                    let posted = pkt.is_posted();
                    let addr = pkt.addr();
                    if let Some(p) = pkt.take_payload() {
                        mem_write(&self.mem, addr, &p);
                    }
                    if !posted {
                        ctx.try_send_response(PortId(0), pkt.into_response()).unwrap();
                    }
                }
                other => panic!("mem: unexpected {other:?}"),
            }
        }
    }

    /// MMIO writes that program queue `q`'s rings at the standard test
    /// layout and flip the status to DRIVER_OK.
    fn setup_writes(q: u32) -> Vec<(u64, u32)> {
        let desc = RING;
        let avail = RING + 0x1000;
        let used = RING + 0x2000;
        vec![
            (common::QUEUE_SELECT, q),
            (common::QUEUE_DESC_LO, desc as u32),
            (common::QUEUE_DESC_HI, (desc >> 32) as u32),
            (common::QUEUE_AVAIL_LO, avail as u32),
            (common::QUEUE_AVAIL_HI, (avail >> 32) as u32),
            (common::QUEUE_USED_LO, used as u32),
            (common::QUEUE_USED_HI, (used >> 32) as u32),
            (common::QUEUE_ENABLE, 1),
            (
                common::DEVICE_STATUS,
                status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
            ),
            (NOTIFY_OFFSET + u64::from(q) * u64::from(NOTIFY_MULTIPLIER), 0),
        ]
    }

    /// Writes descriptor `i` into the table at `RING`.
    fn put_desc(mem: &SharedMem, i: u16, addr: u64, len: u32, flags: u16, next: u16) {
        let mut d = [0u8; 16];
        d[0..8].copy_from_slice(&addr.to_le_bytes());
        d[8..12].copy_from_slice(&len.to_le_bytes());
        d[12..14].copy_from_slice(&flags.to_le_bytes());
        d[14..16].copy_from_slice(&next.to_le_bytes());
        mem_write(mem, RING + u64::from(i) * 16, &d);
    }

    /// Publishes `heads` on the avail ring (flags 0).
    fn publish(mem: &SharedMem, heads: &[u16]) {
        for (slot, &h) in heads.iter().enumerate() {
            mem_write(mem, RING + 0x1000 + 4 + slot as u64 * 2, &h.to_le_bytes());
        }
        mem_write(mem, RING + 0x1000 + 2, &(heads.len() as u16).to_le_bytes());
    }

    fn blk_header(req_type: u32, sector: u64) -> [u8; 16] {
        let mut h = [0u8; 16];
        h[0..4].copy_from_slice(&req_type.to_le_bytes());
        h[8..16].copy_from_slice(&sector.to_le_bytes());
        h
    }

    fn run(
        config: VirtioConfig,
        mem: &SharedMem,
        writes: Vec<(u64, u32)>,
        preload: &[(u64, Vec<u8>)],
        patch_cs: impl FnOnce(&SharedConfigSpace),
    ) -> Simulation {
        run_guest(config, mem, Guest::new(BAR0, writes), preload, patch_cs)
    }

    fn run_guest(
        config: VirtioConfig,
        mem: &SharedMem,
        guest: Guest,
        preload: &[(u64, Vec<u8>)],
        patch_cs: impl FnOnce(&SharedConfigSpace),
    ) -> Simulation {
        let mut sim = Simulation::new();
        let (mut dev, cs) = Virtio::new("vdev", config);
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        for (sector, data) in preload {
            dev.store_preload(*sector, data);
        }
        patch_cs(&cs);
        let drv = sim.add(Box::new(guest));
        let d = sim.add(Box::new(dev));
        let m = sim.add(Box::new(FuncMem { mem: mem.clone(), latency: ns(30) }));
        sim.connect((drv, PortId(0)), (d, VIRTIO_PIO_PORT));
        sim.connect((d, VIRTIO_DMA_PORT), (m, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        sim
    }

    #[test]
    fn config_space_advertises_the_transport() {
        let cs = virtio_config_space(&VirtioConfig::default());
        assert_eq!(cs.read(0x00, 2), u32::from(VIRTIO_VENDOR_ID));
        assert_eq!(cs.read(0x02, 2), u32::from(VIRTIO_BLK_DEVICE_ID));
        assert_eq!(cs.read(0x0b, 1), 0x01, "storage class");
        assert_eq!(cs.read(0x3d, 1), 1, "INTA pin");
        let regions = discover_regions(&cs).expect("all four structures present");
        assert_eq!(
            regions,
            VirtioRegions {
                common: COMMON_OFFSET,
                notify: NOTIFY_OFFSET,
                notify_multiplier: NOTIFY_MULTIPLIER,
                isr: ISR_OFFSET,
                device: DEVICE_CFG_OFFSET,
            }
        );
        let net = virtio_config_space(&VirtioConfig {
            class: VirtioClass::Net,
            ..VirtioConfig::default()
        });
        assert_eq!(net.read(0x02, 2), u32::from(VIRTIO_NET_DEVICE_ID));
        assert_eq!(net.read(0x0b, 1), 0x02, "network class");
        assert!(discover_regions(&net).is_some());
    }

    #[test]
    fn msix_capability_is_opt_in() {
        use pcisim_pci::regs::cap_id;
        let plain = virtio_config_space(&VirtioConfig::default());
        assert!(!pcisim_pci::caps::msix_enabled(&plain));
        let capable =
            virtio_config_space(&VirtioConfig { msix_capable: true, ..VirtioConfig::default() });
        let caps = pcisim_pci::caps::walk_capabilities(&capable);
        assert!(caps.iter().any(|&(_, id)| id == cap_id::MSI_X));
        assert_eq!(pcisim_pci::caps::msix_table_size(&capable), 2, "1 queue + config");
    }

    #[test]
    fn blk_read_walks_the_ring_and_retires_the_chain() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        let pattern: Vec<u8> = (0..512u32).map(|i| (i * 7 % 251) as u8).collect();
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x5000, 512, DESC_F_NEXT | DESC_F_WRITE, 2);
        put_desc(&mem, 2, RING + 0x6000, 1, DESC_F_WRITE, 0);
        mem_write(&mem, RING + 0x4000, &blk_header(BLK_T_IN, 3));
        mem_write(&mem, RING + 0x6000, &[0xee]); // stale status must be overwritten
        publish(&mem, &[0]);
        let sim =
            run(VirtioConfig::default(), &mem, setup_writes(0), &[(3, pattern.clone())], |_| {});
        assert_eq!(mem_read(&mem, RING + 0x5000, 512), pattern, "payload DMA-written");
        assert_eq!(mem_read(&mem, RING + 0x6000, 1), vec![BLK_S_OK]);
        assert_eq!(mem_read(&mem, RING + 0x2002, 2), 1u16.to_le_bytes().to_vec(), "used idx");
        assert_eq!(mem_read(&mem, RING + 0x2004, 4), 0u32.to_le_bytes().to_vec(), "used head");
        assert_eq!(mem_read(&mem, RING + 0x2008, 4), 513u32.to_le_bytes().to_vec(), "used len");
        let stats = sim.stats();
        assert_eq!(stats.get("vdev.chains_used"), Some(1.0));
        assert_eq!(stats.get("vdev.doorbells"), Some(1.0));
        assert_eq!(stats.get("vdev.desc_faults"), Some(0.0));
        assert_eq!(stats.get("vdev.irqs"), Some(1.0), "INTx path counts even with no target");
        // 1 avail idx + 1 avail entry + 3 descriptors + 16 B header.
        assert_eq!(stats.get("vdev.desc_reads"), Some(3.0));
        assert!(sim.now() >= us(1), "media access latency charged");
    }

    #[test]
    fn blk_write_persists_and_reads_back() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        let pattern: Vec<u8> = (0..512u32).map(|i| (i * 13 % 241) as u8).collect();
        // Chain 0: write `pattern` to sector 7.
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x5000, 512, DESC_F_NEXT, 2);
        put_desc(&mem, 2, RING + 0x6000, 1, DESC_F_WRITE, 0);
        mem_write(&mem, RING + 0x4000, &blk_header(BLK_T_OUT, 7));
        mem_write(&mem, RING + 0x5000, &pattern);
        // Chain 1 (head 3): read sector 7 back into a fresh buffer.
        put_desc(&mem, 3, RING + 0x4100, 16, DESC_F_NEXT, 4);
        put_desc(&mem, 4, RING + 0x7000, 512, DESC_F_NEXT | DESC_F_WRITE, 5);
        put_desc(&mem, 5, RING + 0x6004, 1, DESC_F_WRITE, 0);
        mem_write(&mem, RING + 0x4100, &blk_header(BLK_T_IN, 7));
        publish(&mem, &[0, 3]);
        let sim = run(VirtioConfig::default(), &mem, setup_writes(0), &[], |_| {});
        assert_eq!(mem_read(&mem, RING + 0x7000, 512), pattern, "write then read round-trips");
        assert_eq!(mem_read(&mem, RING + 0x6000, 1), vec![BLK_S_OK]);
        assert_eq!(mem_read(&mem, RING + 0x6004, 1), vec![BLK_S_OK]);
        assert_eq!(mem_read(&mem, RING + 0x2002, 2), 2u16.to_le_bytes().to_vec());
        assert_eq!(sim.stats().get("vdev.chains_used"), Some(2.0));
    }

    #[test]
    fn blk_out_of_capacity_reports_ioerr() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x5000, 512, DESC_F_NEXT | DESC_F_WRITE, 2);
        put_desc(&mem, 2, RING + 0x6000, 1, DESC_F_WRITE, 0);
        let cfg = VirtioConfig { capacity_sectors: 8, ..VirtioConfig::default() };
        mem_write(&mem, RING + 0x4000, &blk_header(BLK_T_IN, 8));
        publish(&mem, &[0]);
        let sim = run(cfg, &mem, setup_writes(0), &[], |_| {});
        assert_eq!(mem_read(&mem, RING + 0x6000, 1), vec![BLK_S_IOERR]);
        assert_eq!(sim.stats().get("vdev.chains_used"), Some(1.0), "still retires");
        assert_eq!(sim.stats().get("vdev.desc_faults"), Some(0.0));
    }

    #[test]
    fn net_tx_serializes_the_frame() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        // One readable descriptor: 12 B header + 1500 B frame.
        put_desc(&mem, 0, RING + 0x4000, NET_HEADER_BYTES + 1500, 0, 0);
        publish(&mem, &[0]);
        let cfg = VirtioConfig { class: VirtioClass::Net, ..VirtioConfig::default() };
        let sim = run(cfg, &mem, setup_writes(1), &[], |_| {});
        let stats = sim.stats();
        assert_eq!(stats.get("vdev.frames_tx"), Some(1.0));
        assert_eq!(stats.get("vdev.chains_used"), Some(1.0));
        assert_eq!(mem_read(&mem, RING + 0x2008, 4), 0u32.to_le_bytes().to_vec(), "TX used len 0");
        // 1500 B at 10 Gb/s = 1.2 µs of wire time.
        assert!(sim.now() >= transfer_time(1500, 1_250_000_000));
    }

    #[test]
    fn out_of_range_head_faults_without_hanging() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        publish(&mem, &[300]); // queue size is 128
        let sim = run(VirtioConfig::default(), &mem, setup_writes(0), &[], |_| {});
        let stats = sim.stats();
        assert_eq!(stats.get("vdev.desc_faults"), Some(1.0));
        assert_eq!(stats.get("vdev.chains_used"), Some(0.0));
    }

    #[test]
    fn out_of_range_next_faults_without_hanging() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 200);
        publish(&mem, &[0]);
        let sim = run(VirtioConfig::default(), &mem, setup_writes(0), &[], |_| {});
        assert_eq!(sim.stats().get("vdev.desc_faults"), Some(1.0));
        assert_eq!(sim.stats().get("vdev.chains_used"), Some(0.0));
    }

    #[test]
    fn circular_chain_faults_without_hanging() {
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x5000, 64, DESC_F_NEXT, 0); // loops back
        publish(&mem, &[0]);
        let sim = run(VirtioConfig::default(), &mem, setup_writes(0), &[], |_| {});
        assert_eq!(sim.stats().get("vdev.desc_faults"), Some(1.0));
        assert_eq!(sim.stats().get("vdev.chains_used"), Some(0.0));
    }

    #[test]
    fn out_of_table_msix_vectors_read_back_as_no_vector() {
        use pcisim_pci::caps::{find_capability, msix};
        use pcisim_pci::regs::cap_id;
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x6000, 1, DESC_F_WRITE, 0);
        mem_write(&mem, RING + 0x4000, &blk_header(BLK_T_IN, 0));
        publish(&mem, &[0]);
        let cfg = VirtioConfig { msix_capable: true, ..VirtioConfig::default() };
        let table_size = u32::from(num_msix_vectors(cfg.class));
        // Program and unmask every vector, then map both events one past
        // the table.
        let mut writes = Vec::new();
        for v in 0..u64::from(table_size) {
            let entry = MSIX_TABLE_OFFSET + v * 16;
            writes.extend([
                (entry, 0xfee0_0000),
                (entry + 4, 0),
                (entry + 8, 0x40),
                (entry + 12, 0),
            ]);
        }
        writes.extend([
            (common::CONFIG_MSIX_VECTOR, table_size),
            (common::QUEUE_SELECT, 0),
            (common::QUEUE_MSIX_VECTOR, table_size),
        ]);
        writes.extend(setup_writes(0));
        let mut guest = Guest::new(BAR0, writes);
        guest.reads = vec![common::CONFIG_MSIX_VECTOR, common::QUEUE_MSIX_VECTOR];
        let read_back = guest.read_back.clone();
        let sim = run_guest(cfg, &mem, guest, &[], |cs| {
            let off = find_capability(&cs.borrow(), cap_id::MSI_X).expect("capable");
            cs.borrow_mut().write(off + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        });
        assert_eq!(*read_back.borrow(), [MSIX_NO_VECTOR; 2]);
        let stats = sim.stats();
        assert_eq!(stats.get("vdev.chains_used"), Some(1.0), "the request completes");
        assert_eq!(stats.get("vdev.msix_irqs"), Some(0.0), "an unmapped event interrupts no one");
    }

    #[test]
    fn restore_rejects_msix_vectors_outside_the_table() {
        use pcisim_kernel::snapshot::{StateReader, StateWriter};
        let cfg = VirtioConfig { msix_capable: true, ..VirtioConfig::default() };
        let restore = |config_vector: u32| {
            let (mut dev, _) = Virtio::new("vdev", cfg.clone());
            dev.config_msix_vector = config_vector;
            let mut w = StateWriter::new();
            dev.save_state(&mut w);
            let bytes = w.into_bytes();
            Virtio::new("vdev", cfg.clone()).0.restore_state(&mut StateReader::new(&bytes))
        };
        let table_size = u32::from(num_msix_vectors(cfg.class));
        assert_eq!(restore(table_size - 1), Ok(()));
        assert_eq!(restore(MSIX_NO_VECTOR), Ok(()));
        assert!(matches!(restore(table_size), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn msix_completion_rides_the_fabric() {
        use pcisim_pci::caps::{find_capability, msix};
        use pcisim_pci::regs::cap_id;
        let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
        put_desc(&mem, 0, RING + 0x4000, 16, DESC_F_NEXT, 1);
        put_desc(&mem, 1, RING + 0x6000, 1, DESC_F_WRITE, 0);
        mem_write(&mem, RING + 0x4000, &blk_header(BLK_T_IN, 0));
        publish(&mem, &[0]);
        let msi_addr: u64 = 0xfee0_0000;
        let msi_data: u32 = 0x4041;
        let mut writes = vec![
            // Program vector 0: address, data, unmask.
            (MSIX_TABLE_OFFSET, msi_addr as u32),
            (MSIX_TABLE_OFFSET + 4, (msi_addr >> 32) as u32),
            (MSIX_TABLE_OFFSET + 8, msi_data),
            (MSIX_TABLE_OFFSET + 12, 0),
            (common::QUEUE_SELECT, 0),
            (common::QUEUE_MSIX_VECTOR, 0),
        ];
        writes.extend(setup_writes(0));
        let cfg = VirtioConfig { msix_capable: true, ..VirtioConfig::default() };
        let sim = run(cfg, &mem, writes, &[], |cs| {
            // Enable the MSI-X function like the probing driver does.
            let off = find_capability(&cs.borrow(), cap_id::MSI_X).expect("capable");
            cs.borrow_mut().write(off + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        });
        let stats = sim.stats();
        assert_eq!(stats.get("vdev.msix_irqs"), Some(1.0));
        assert_eq!(
            mem_read(&mem, msi_addr, 4),
            msi_data.to_le_bytes().to_vec(),
            "message lands at the programmed address"
        );
    }
}
