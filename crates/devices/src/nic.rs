//! The 8254x-pcie NIC model (paper §IV).
//!
//! The paper takes gem5's Intel 8254x NIC, sets its device ID to 0x10D3 so
//! the Linux **e1000e** driver probes it, and lays out the capability chain
//! of a real Intel 82574l: power management → MSI → PCI-Express → MSI-X,
//! with PM/MSI/MSI-X disabled so the driver registers a legacy interrupt
//! handler. This model reproduces that configuration plus a register file
//! and descriptor-ring DMA engines for both directions:
//!
//! * **TX**: the driver posts descriptors and writes the tail register;
//!   the NIC fetches each descriptor and frame buffer over DMA *reads*,
//!   puts the frame on the medium, writes back status and interrupts;
//! * **RX**: frames arrive from a configurable traffic stream; the NIC
//!   consumes posted descriptors, DMA-*writes* frame data to memory,
//!   writes back status and interrupts (or counts an overrun when the
//!   driver has no buffers posted).
//!
//! Both engines share one DMA block: jobs are serviced in order through a
//! single pipeline, as on the real device. MMIO register reads serve the
//! paper's Table II latency experiment.
//!
//! Beyond the paper's configuration, the model can grow into a modern
//! multi-queue MSI-X device: up to [`MAX_QUEUES`] TX/RX queue pairs with
//! per-queue rings and doorbells (queue *q* registers live at the legacy
//! offsets plus `q * QUEUE_STRIDE`), an RSS-style deterministic flow hash
//! steering received frames across queues, an MSI-X table + PBA mapped in
//! BAR0 (at [`MSIX_TABLE_OFFSET`] / [`MSIX_PBA_OFFSET`]), and per-vector
//! interrupt moderation (holdoff timers on the calendar queue). When the
//! MSI-X function enable is clear the device falls back to the paper's
//! legacy INTx (or MSI) path, bit-identically to the single-queue model.

use std::collections::VecDeque;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{Bounded, State};
use pcisim_kernel::stats::{Counter, Histogram, StatsBuilder};
use pcisim_kernel::tick::{ns, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceKind};
use pcisim_kernel::{state_enum, state_fields};
use pcisim_pci::caps::{write_aer_capability, CapChain, Capability, Generation, PortType};
use pcisim_pci::config::{shared, ConfigSpace, SharedConfigSpace};
use pcisim_pci::header::{bar_base, Bar, Type0Header};

use crate::dma::DmaEngine;
use crate::mmio::{self, set_hi32, set_lo32};
use crate::msix::{legacy_message, MsixBlock};
use crate::traffic::{TrafficFeed, TrafficSpec};

/// MMIO register port (slave).
pub const NIC_PIO_PORT: PortId = PortId(0);
/// DMA master port.
pub const NIC_DMA_PORT: PortId = PortId(1);

/// The device ID that makes the e1000e driver claim the NIC (paper §IV).
pub const NIC_DEVICE_ID: u16 = 0x10d3;

/// BAR0-relative register offsets (a subset of the 8254x map).
pub mod regs {
    /// Device control (u32, RW).
    pub const CTRL: u64 = 0x0000;
    /// Device status (u32, RO): bit 1 = link up.
    pub const STATUS: u64 = 0x0008;
    /// Interrupt cause read (u32; reading clears).
    pub const ICR: u64 = 0x00c0;
    /// Interrupt mask set (u32, RW).
    pub const IMS: u64 = 0x00d0;
    /// Interrupt mask clear (u32, W).
    pub const IMC: u64 = 0x00d8;
    /// RX descriptor base address, low half (u32, RW).
    pub const RDBAL: u64 = 0x2800;
    /// RX descriptor base address, high half (u32, RW).
    pub const RDBAH: u64 = 0x2804;
    /// RX descriptor ring length in descriptors (u32, RW).
    pub const RDLEN: u64 = 0x2808;
    /// RX head (u32, RO — hardware-owned).
    pub const RDH: u64 = 0x2810;
    /// RX tail (u32, RW — writing posts empty buffers).
    pub const RDT: u64 = 0x2818;
    /// TX descriptor base address, low half (u32, RW).
    pub const TDBAL: u64 = 0x3800;
    /// TX descriptor base address, high half (u32, RW).
    pub const TDBAH: u64 = 0x3804;
    /// TX descriptor ring length in descriptors (u32, RW).
    pub const TDLEN: u64 = 0x3808;
    /// TX head (u32, RO — hardware-owned).
    pub const TDH: u64 = 0x3810;
    /// TX tail (u32, RW — writing makes descriptors available).
    pub const TDT: u64 = 0x3818;
    /// Frame buffer length used for buffer DMA (u32, RW; model-specific —
    /// stands in for the length field of a real TX descriptor).
    pub const TX_BUFLEN: u64 = 0x3820;
    /// Missed packets count (u32, RO): frames dropped for want of FIFO
    /// space or posted buffers (the 8254x MPC statistics register).
    pub const MPC: u64 = 0x4010;
    /// Good packets received count (u32, RO): frames fully written to
    /// memory (the 8254x GPRC statistics register). Together with
    /// [`MPC`] this lets a poll-mode driver detect end-of-stream without
    /// any interrupt.
    pub const GPRC: u64 = 0x4074;
    /// Good octets received, low half (u32, RO; 8254x GORCL).
    pub const GORCL: u64 = 0x4088;
    /// Good octets received, high half (u32, RO; 8254x GORCH).
    pub const GORCH: u64 = 0x408c;
    /// Stride between per-queue register blocks: queue 0 sits at the
    /// legacy offsets, queue `q` at `reg + q * QUEUE_STRIDE` (the 82574
    /// places its second queue pair the same way).
    pub const QUEUE_STRIDE: u64 = 0x100;

    /// The queue-`q` offset of a queue 0 ring register.
    pub fn per_queue(reg: u64, queue: u32) -> u64 {
        reg + u64::from(queue) * QUEUE_STRIDE
    }
}

/// ICR/IMS bit: transmit descriptor written back.
pub const INT_TXDW: u32 = 1 << 0;
/// ICR/IMS bit: receive frame written to memory (RXT0).
pub const INT_RXT0: u32 = 1 << 7;
/// STATUS bit: link is up.
pub const STATUS_LINK_UP: u32 = 1 << 1;

/// Maximum TX/RX queue pairs: TX causes occupy ICR bits 0..6 and RX
/// causes bits 7..13, so six pairs fit without the blocks colliding.
pub const MAX_QUEUES: u32 = 6;

/// BAR0 offset of the MSI-X vector table (when the device is built
/// `msix_capable`; the register map tops out well below this).
pub const MSIX_TABLE_OFFSET: u64 = 0x1_0000;
/// BAR0 offset of the MSI-X pending-bit array.
pub const MSIX_PBA_OFFSET: u64 = 0x1_8000;

/// ICR/IMS cause bit of TX queue `queue` (queue 0 is the legacy TXDW).
pub fn tx_cause(queue: u32) -> u32 {
    INT_TXDW << queue
}

/// ICR/IMS cause bit of RX queue `queue` (queue 0 is the legacy RXT0).
pub fn rx_cause(queue: u32) -> u32 {
    INT_RXT0 << queue
}

/// MSI-X vector of TX queue `queue`: vectors `[0, queues)` are TX.
pub fn tx_vector(queue: u32) -> u16 {
    queue as u16
}

/// MSI-X vector of RX queue `queue`: vectors `[queues, 2*queues)` are RX.
pub fn rx_vector(queues: u32, queue: u32) -> u16 {
    (queues + queue) as u16
}

/// MSI-X vectors a NIC with `queues` queue pairs exposes (one per ring).
pub fn num_msix_vectors(queues: u32) -> u16 {
    (queues * 2) as u16
}

/// BAR0 offset of MSI-X table entry `vector`.
pub fn msix_entry_offset(vector: u16) -> u64 {
    MSIX_TABLE_OFFSET + u64::from(vector) * pcisim_pci::caps::msix::ENTRY_SIZE
}

/// Deterministic RSS-style hash over a flow identifier (FNV-1a; stands in
/// for the Toeplitz hash real NICs compute over the 5-tuple).
pub fn rss_hash(flow: u32) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in flow.to_le_bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The RX queue the flow-steering hash picks for `flow`.
pub fn rss_queue(flow: u32, queues: u32) -> u32 {
    if queues <= 1 {
        0
    } else {
        rss_hash(flow) % queues
    }
}

/// Bytes per descriptor fetched/written over DMA.
pub const DESC_BYTES: u32 = 16;

/// Internal receive FIFO depth in frames (the 82574 has a 32 KB packet
/// buffer; at full-size frames that is ~20 slots — 32 is a round model
/// value). Frames arriving into a full FIFO are dropped as overruns.
pub const RX_FIFO_FRAMES: u32 = 32;

/// Tunables of the NIC model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicConfig {
    /// MMIO register access latency (the device-side component of the
    /// paper's Table II measurement).
    pub pio_latency: Tick,
    /// DMA TLP payload granularity.
    pub cacheline: u32,
    /// Wire time to put one frame on the network medium.
    pub tx_wire_time: Tick,
    /// Receive traffic: `(frame_bytes, inter-arrival, total frames)`.
    /// Frames start arriving when the driver first posts RX buffers.
    pub rx_stream: Option<(u32, Tick, u32)>,
    /// Interrupt message target: `(irq, interrupt-controller base)`.
    pub intx: Option<(u8, u64)>,
    /// Expose a functional (software-enableable) MSI capability instead of
    /// the paper's disabled one.
    pub msi_capable: bool,
    /// TX/RX queue pairs (1..=[`MAX_QUEUES`]; 1 is the paper's model).
    pub queues: u32,
    /// Expose a functional MSI-X capability with a programmable table +
    /// PBA in BAR0 (2 vectors per queue pair) instead of the paper's
    /// hardwired-disabled structure.
    pub msix_capable: bool,
    /// Per-vector interrupt moderation holdoff (0 disables moderation):
    /// after a vector fires, further causes coalesce until the holdoff
    /// timer expires, which delivers at most one deferred interrupt.
    pub moderation: Tick,
    /// Distinct receive flows the RSS hash spreads across RX queues;
    /// frame `i` belongs to flow `i % rx_flows`.
    pub rx_flows: u32,
    /// Open-loop receive traffic source (generated or trace replay) with
    /// per-frame sizes and flows. Mutually exclusive with `rx_stream`;
    /// like it, frames start arriving at the first RX tail write.
    pub rx_source: Option<TrafficSpec>,
}

impl Default for NicConfig {
    fn default() -> Self {
        Self {
            pio_latency: ns(50),
            cacheline: 64,
            tx_wire_time: ns(1200),
            rx_stream: None,
            intx: None,
            msi_capable: false,
            queues: 1,
            msix_capable: false,
            moderation: 0,
            rx_flows: 16,
            rx_source: None,
        }
    }
}

/// Builds the 8254x-pcie configuration space: device 0x10D3, the Intel
/// 82574l capability chain (PM → MSI → PCIe → MSI-X, all but PCIe
/// disabled), one 128 KB memory BAR and an INTA pin.
pub fn nic_config_space() -> ConfigSpace {
    nic_config_space_with(false)
}

/// Like [`nic_config_space`], optionally exposing a functional MSI
/// capability (the paper's future-work extension).
pub fn nic_config_space_with(msi_capable: bool) -> ConfigSpace {
    nic_config_space_for(&NicConfig { msi_capable, ..NicConfig::default() })
}

/// Builds the configuration space matching a [`NicConfig`]: the MSI and
/// MSI-X structures become functional (programmable, software-enableable)
/// when the config asks for them, and the MSI-X table size follows the
/// queue count (one vector per ring).
pub fn nic_config_space_for(config: &NicConfig) -> ConfigSpace {
    let mut cs = Type0Header::new(0x8086, NIC_DEVICE_ID)
        .class_code(0x02, 0x00, 0x00)
        .revision(0x00)
        .subsystem(0x8086, 0xa01f)
        .bar(0, Bar::Memory32 { size: 0x2_0000, prefetchable: false })
        .bar(2, Bar::Io { size: 0x20 })
        .interrupt_pin(1)
        .capabilities_at(0xc8)
        .build();
    let msi = if config.msi_capable { Capability::MsiCapable } else { Capability::MsiDisabled };
    let msix = if config.msix_capable {
        Capability::MsixCapable {
            table_size: num_msix_vectors(config.queues),
            table_bar: 0,
            table_offset: MSIX_TABLE_OFFSET as u32,
            pba_bar: 0,
            pba_offset: MSIX_PBA_OFFSET as u32,
        }
    } else {
        Capability::MsixDisabled
    };
    CapChain::new()
        .add(0xc8, Capability::PowerManagement)
        .add(0xd0, msi)
        .add(
            0xe0,
            Capability::PciExpress {
                port_type: PortType::Endpoint,
                generation: Generation::Gen2,
                max_width: 1,
            },
        )
        .add(0xa0, msix)
        .write_into(&mut cs);
    // AER extended capability at the top of extended config space: DMA
    // error completions latch here so enumeration/diagnosis can walk it.
    write_aer_capability(&mut cs, 0x100, 0);
    cs
}

const K_TX_KICK: u32 = 0;
const K_TX_WIRE_DONE: u32 = 1;
const K_DMA_RESP: u32 = 2;
const K_RX_FRAME: u32 = 3;
const K_ITR: u32 = 4;
const K_RX_TRAFFIC: u32 = 5;
const TAG_PIO_RESP: u32 = 0;
const BAR0_SIZE: u64 = 0x2_0000;

/// Which engine a DMA job belongs to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Engine {
    #[default]
    Tx,
    Rx,
}

state_enum!(Engine { Tx = 0, Rx = 1 });

/// One queued DMA transfer. While a job is active, `addr`/`len` are the
/// chunker's cursor: what it has yet to hand to the DMA engine.
#[derive(Debug, Clone, Copy, Default)]
struct DmaJob {
    engine: Engine,
    queue: u8,
    write: bool,
    addr: u64,
    len: u32,
}

impl State for DmaJob {
    state_fields!(state self; engine, queue, write, addr, len);
}

/// The job's queue is one of its engine's: `[tx queues, rx queues]`.
impl Bounded<[usize; 2]> for DmaJob {
    fn within(&self, queues: &[usize; 2]) -> bool {
        let queues = match self.engine {
            Engine::Tx => queues[0],
            Engine::Rx => queues[1],
        };
        self.queue.within(&queues)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxPhase {
    Idle,
    FetchDescriptor,
    FetchBuffer,
    OnWire,
    Writeback,
}

state_enum!(TxPhase { Idle = 0, FetchDescriptor = 1, FetchBuffer = 2, OnWire = 3, Writeback = 4 });

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RxPhase {
    Idle,
    FetchDescriptor,
    WriteData,
    Writeback,
}

state_enum!(RxPhase { Idle = 0, FetchDescriptor = 1, WriteData = 2, Writeback = 3 });

/// Ring registers and engine phase of one TX queue.
#[derive(Debug, Clone, Copy)]
struct TxQueue {
    tdba: u64,
    tdlen: u32,
    tdh: u32,
    tdt: u32,
    tx_buflen: u32,
    phase: TxPhase,
}

impl Default for TxQueue {
    fn default() -> Self {
        Self { tdba: 0, tdlen: 0, tdh: 0, tdt: 0, tx_buflen: 0, phase: TxPhase::Idle }
    }
}

/// Ring registers, engine phase, and FIFO occupancy of one RX queue.
#[derive(Debug, Clone, Copy)]
struct RxQueue {
    rdba: u64,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    phase: RxPhase,
    fifo: u32,
}

impl Default for RxQueue {
    fn default() -> Self {
        Self { rdba: 0, rdlen: 0, rdh: 0, rdt: 0, phase: RxPhase::Idle, fifo: 0 }
    }
}

#[derive(Debug, Default)]
struct NicStats {
    mmio_reads: Counter,
    mmio_writes: Counter,
    frames_tx: Counter,
    frames_rx: Counter,
    rx_overruns: Counter,
    irqs: Counter,
    /// Interrupt causes absorbed by a running moderation holdoff window.
    irqs_coalesced: Counter,
    /// Medium-arrival to memory-writeback latency of traffic-source
    /// frames, in ticks (only populated when `rx_source` is set).
    rx_frame_latency: Histogram,
}

/// The NIC component.
pub struct Nic {
    name: String,
    config: NicConfig,
    config_space: SharedConfigSpace,
    // Registers.
    ctrl: u32,
    icr: u32,
    ims: u32,
    txq: Vec<TxQueue>,
    rxq: Vec<RxQueue>,
    // Shared DMA pipeline: jobs are chunked lazily into the engine.
    jobs: VecDeque<DmaJob>,
    active: Option<DmaJob>,
    dma: DmaEngine<()>,
    // RX stream.
    rx_frames_left: u32,
    rx_stream_started: bool,
    /// Arrival sequence number feeding the RSS flow hash.
    rx_frame_seq: u32,
    // Open-loop traffic source (rx_source): the pull feed, per-queue
    // FIFO metadata `(bytes, arrival tick)` mirroring `RxQueue::fifo`,
    // the frame each queue's engine is currently delivering, and the
    // delivered-octet count behind GORCL/GORCH.
    rx_feed: Option<TrafficFeed>,
    rx_fifo_meta: Vec<VecDeque<(u32, Tick)>>,
    rx_cur: Vec<(u32, Tick)>,
    rx_octets: u64,
    // MSI-X, and the per-vector moderation holdoff / deferred-cause
    // flags layered over it.
    msix: MsixBlock,
    itr_holdoff: Vec<bool>,
    itr_pending: Vec<bool>,
    /// BAR0 completions on their way out of the PIO port.
    pio: TimedQueue,
    stats: NicStats,
}

impl Nic {
    /// Creates a NIC; returns the component and its shared configuration
    /// space for PCI-host registration.
    pub fn new(name: impl Into<String>, config: NicConfig) -> (Self, SharedConfigSpace) {
        assert!(
            (1..=MAX_QUEUES).contains(&config.queues),
            "NIC queue pairs must be 1..={MAX_QUEUES}, got {}",
            config.queues
        );
        assert!(
            config.rx_stream.is_none() || config.rx_source.is_none(),
            "rx_stream and rx_source are mutually exclusive receive mediums"
        );
        let cs = shared(nic_config_space_for(&config));
        let vectors = num_msix_vectors(config.queues);
        let msix_vectors = if config.msix_capable { vectors } else { 0 };
        (
            Self {
                name: name.into(),
                config_space: cs.clone(),
                ctrl: 0,
                icr: 0,
                ims: 0,
                txq: vec![TxQueue::default(); config.queues as usize],
                rxq: vec![RxQueue::default(); config.queues as usize],
                jobs: VecDeque::new(),
                active: None,
                dma: DmaEngine::new(NIC_DMA_PORT, K_DMA_RESP, cs.clone()),
                rx_frames_left: 0,
                rx_stream_started: false,
                rx_frame_seq: 0,
                rx_feed: config.rx_source.as_ref().map(TrafficFeed::new),
                rx_fifo_meta: (0..config.queues).map(|_| VecDeque::new()).collect(),
                rx_cur: vec![(0, 0); config.queues as usize],
                rx_octets: 0,
                msix: MsixBlock::new(cs.clone(), msix_vectors, MSIX_TABLE_OFFSET, MSIX_PBA_OFFSET),
                itr_holdoff: vec![false; usize::from(vectors)],
                itr_pending: vec![false; usize::from(vectors)],
                pio: TimedQueue::unbounded(),
                stats: NicStats::default(),
                config,
            },
            cs,
        )
    }

    /// Re-targets the INTx interrupt message (used once the enumerated IRQ
    /// is known).
    pub fn set_intx(&mut self, intx: Option<(u8, u64)>) {
        self.config.intx = intx;
    }

    fn bar0(&self) -> u64 {
        bar_base(&self.config_space.borrow(), 0)
    }

    // --- registers ---------------------------------------------------------

    fn reg_read(&mut self, offset: u64) -> u32 {
        self.stats.mmio_reads.inc();
        let nq = u64::from(self.config.queues);
        match offset {
            regs::CTRL => self.ctrl,
            regs::STATUS => STATUS_LINK_UP,
            regs::ICR => std::mem::take(&mut self.icr), // read clears
            regs::IMS => self.ims,
            regs::MPC => self.stats.rx_overruns.value() as u32,
            regs::GPRC => self.stats.frames_rx.value() as u32,
            regs::GORCL => self.rx_octets as u32,
            regs::GORCH => (self.rx_octets >> 32) as u32,
            o if (regs::RDBAL..regs::RDBAL + nq * regs::QUEUE_STRIDE).contains(&o) => {
                let q = ((o - regs::RDBAL) / regs::QUEUE_STRIDE) as usize;
                let rxq = &self.rxq[q];
                match o - (q as u64) * regs::QUEUE_STRIDE {
                    regs::RDBAL => rxq.rdba as u32,
                    regs::RDBAH => (rxq.rdba >> 32) as u32,
                    regs::RDLEN => rxq.rdlen,
                    regs::RDH => rxq.rdh,
                    regs::RDT => rxq.rdt,
                    _ => 0,
                }
            }
            o if (regs::TDBAL..regs::TDBAL + nq * regs::QUEUE_STRIDE).contains(&o) => {
                let q = ((o - regs::TDBAL) / regs::QUEUE_STRIDE) as usize;
                let txq = &self.txq[q];
                match o - (q as u64) * regs::QUEUE_STRIDE {
                    regs::TDBAL => txq.tdba as u32,
                    regs::TDBAH => (txq.tdba >> 32) as u32,
                    regs::TDLEN => txq.tdlen,
                    regs::TDH => txq.tdh,
                    regs::TDT => txq.tdt,
                    regs::TX_BUFLEN => txq.tx_buflen,
                    _ => 0,
                }
            }
            o => self.msix.mmio_read(o).unwrap_or(0),
        }
    }

    fn reg_write(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.stats.mmio_writes.inc();
        let nq = u64::from(self.config.queues);
        match offset {
            regs::CTRL => self.ctrl = value,
            regs::IMS => self.ims |= value,
            regs::IMC => self.ims &= !value,
            o if (regs::RDBAL..regs::RDBAL + nq * regs::QUEUE_STRIDE).contains(&o) => {
                let q = ((o - regs::RDBAL) / regs::QUEUE_STRIDE) as usize;
                match o - (q as u64) * regs::QUEUE_STRIDE {
                    regs::RDBAL => set_lo32(&mut self.rxq[q].rdba, value),
                    regs::RDBAH => set_hi32(&mut self.rxq[q].rdba, value),
                    regs::RDLEN => self.rxq[q].rdlen = value,
                    regs::RDT => {
                        self.rxq[q].rdt = value;
                        ctx.emit(TraceCategory::Device, TraceKind::Doorbell, None, None, offset);
                        self.start_rx_stream(ctx);
                        self.rx_kick(ctx, q);
                    }
                    _ => {}
                }
            }
            o if (regs::TDBAL..regs::TDBAL + nq * regs::QUEUE_STRIDE).contains(&o) => {
                let q = ((o - regs::TDBAL) / regs::QUEUE_STRIDE) as usize;
                match o - (q as u64) * regs::QUEUE_STRIDE {
                    regs::TDBAL => set_lo32(&mut self.txq[q].tdba, value),
                    regs::TDBAH => set_hi32(&mut self.txq[q].tdba, value),
                    regs::TDLEN => self.txq[q].tdlen = value,
                    regs::TX_BUFLEN => self.txq[q].tx_buflen = value,
                    regs::TDT => {
                        self.txq[q].tdt = value;
                        ctx.emit(TraceCategory::Device, TraceKind::Doorbell, None, None, offset);
                        if self.txq[q].phase == TxPhase::Idle {
                            ctx.schedule(0, Event::Timer { kind: K_TX_KICK, data: q as u64 });
                        }
                    }
                    _ => {}
                }
            }
            o => self.msix.mmio_write(o, value),
        }
    }

    // --- shared DMA pipeline -------------------------------------------------

    fn enqueue_job(
        &mut self,
        ctx: &mut Ctx<'_>,
        engine: Engine,
        q: usize,
        write: bool,
        addr: u64,
        len: u32,
    ) {
        self.jobs.push_back(DmaJob { engine, queue: q as u8, write, addr, len });
        self.pump_dma(ctx);
    }

    /// Chunks the active job into cache-line TLPs, materialising each
    /// only when the engine can offer it to the port.
    fn pump_dma(&mut self, ctx: &mut Ctx<'_>) {
        if self.active.is_none() {
            self.active = self.jobs.pop_front();
        }
        let Some(job) = &mut self.active else { return };
        while self.dma.ready() && job.len > 0 {
            let chunk = job.len.min(self.config.cacheline);
            let id = ctx.alloc_packet_id();
            let pkt = if job.write {
                Packet::request(id, Command::WriteReq, job.addr, chunk, ctx.self_id())
                    .with_payload(vec![0; chunk as usize])
            } else {
                Packet::request(id, Command::ReadReq, job.addr, chunk, ctx.self_id())
            };
            job.len -= chunk;
            job.addr += u64::from(chunk);
            self.dma.send(ctx, pkt, None);
        }
        self.check_job_done(ctx);
    }

    fn check_job_done(&mut self, ctx: &mut Ctx<'_>) {
        let Some(job) = &self.active else { return };
        if job.len != 0 || !self.dma.drained() {
            return;
        }
        let (engine, q) = (job.engine, job.queue as usize);
        self.active = None;
        match engine {
            Engine::Tx => self.tx_job_done(ctx, q),
            Engine::Rx => self.rx_job_done(ctx, q),
        }
        self.pump_dma(ctx);
    }

    // --- TX engine -------------------------------------------------------------

    fn tx_kick(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let txq = self.txq[q];
        if txq.phase != TxPhase::Idle || txq.tdh == txq.tdt || txq.tdlen == 0 {
            return;
        }
        self.txq[q].phase = TxPhase::FetchDescriptor;
        let desc_addr = txq.tdba + u64::from(txq.tdh) * u64::from(DESC_BYTES);
        self.enqueue_job(ctx, Engine::Tx, q, false, desc_addr, DESC_BYTES);
    }

    fn tx_job_done(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        match self.txq[q].phase {
            TxPhase::FetchDescriptor => {
                self.txq[q].phase = TxPhase::FetchBuffer;
                // The descriptor names a buffer; the model takes its length
                // from TX_BUFLEN and fabricates the address (one window per
                // queue so traces distinguish them).
                let buf_addr =
                    0x9000_0000 + (q as u64) * 0x100_0000 + u64::from(self.txq[q].tdh) * 0x1_0000;
                let len = self.txq[q].tx_buflen.max(64);
                self.enqueue_job(ctx, Engine::Tx, q, false, buf_addr, len);
            }
            TxPhase::FetchBuffer => {
                self.txq[q].phase = TxPhase::OnWire;
                ctx.schedule(
                    self.config.tx_wire_time,
                    Event::Timer { kind: K_TX_WIRE_DONE, data: q as u64 },
                );
            }
            TxPhase::Writeback => {
                let txq = &mut self.txq[q];
                txq.tdh = (txq.tdh + 1) % txq.tdlen.max(1);
                self.stats.frames_tx.inc();
                let cause = tx_cause(q as u32);
                self.icr |= cause;
                if self.ims & cause != 0 {
                    self.deliver(ctx, tx_vector(q as u32));
                }
                self.txq[q].phase = TxPhase::Idle;
                self.tx_kick(ctx, q);
            }
            TxPhase::Idle | TxPhase::OnWire => {
                panic!("{}: TX q{q} job completion in phase {:?}", self.name, self.txq[q].phase)
            }
        }
    }

    fn tx_wire_done(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        self.txq[q].phase = TxPhase::Writeback;
        let desc_addr = self.txq[q].tdba + u64::from(self.txq[q].tdh) * u64::from(DESC_BYTES);
        self.enqueue_job(ctx, Engine::Tx, q, true, desc_addr + 12, 4);
    }

    // --- RX engine -------------------------------------------------------------

    fn start_rx_stream(&mut self, ctx: &mut Ctx<'_>) {
        if self.rx_stream_started {
            return;
        }
        if let Some(feed) = &mut self.rx_feed {
            self.rx_stream_started = true;
            feed.schedule_next(ctx, K_RX_TRAFFIC);
            return;
        }
        let Some((_, interval, frames)) = self.config.rx_stream else { return };
        self.rx_stream_started = true;
        self.rx_frames_left = frames;
        if frames > 0 {
            ctx.schedule(interval, Event::Timer { kind: K_RX_FRAME, data: 0 });
        }
    }

    /// An open-loop frame reaches the medium: steer it by RSS onto a
    /// queue FIFO (or count an overrun) and pull the next arrival.
    fn rx_traffic_arrived(&mut self, ctx: &mut Ctx<'_>, data: u64) {
        let (flow, bytes) = TrafficFeed::unpack_frame(data);
        if let Some(feed) = &mut self.rx_feed {
            feed.schedule_next(ctx, K_RX_TRAFFIC);
        }
        let q = rss_queue(flow, self.config.queues) as usize;
        if self.rxq[q].fifo >= RX_FIFO_FRAMES {
            self.stats.rx_overruns.inc();
        } else {
            self.rxq[q].fifo += 1;
            self.rx_fifo_meta[q].push_back((bytes, ctx.now()));
        }
        self.rx_kick(ctx, q);
    }

    fn rx_frame_arrived(&mut self, ctx: &mut Ctx<'_>) {
        let Some((_, interval, _)) = self.config.rx_stream else { return };
        self.rx_frames_left -= 1;
        if self.rx_frames_left > 0 {
            ctx.schedule(interval, Event::Timer { kind: K_RX_FRAME, data: 0 });
        }
        // RSS: hash the frame's flow onto an RX queue. With one queue this
        // degenerates to the legacy single-FIFO path.
        let flow = self.rx_frame_seq % self.config.rx_flows.max(1);
        self.rx_frame_seq = self.rx_frame_seq.wrapping_add(1);
        let q = rss_queue(flow, self.config.queues) as usize;
        if self.rxq[q].fifo >= RX_FIFO_FRAMES {
            // Internal packet buffer overflow: the fabric cannot drain
            // frames as fast as the medium delivers them.
            self.stats.rx_overruns.inc();
        } else {
            self.rxq[q].fifo += 1;
        }
        self.rx_kick(ctx, q);
    }

    fn rx_ring_empty(&self, q: usize) -> bool {
        self.rxq[q].rdlen == 0 || self.rxq[q].rdh == self.rxq[q].rdt
    }

    fn rx_kick(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        // Frames that arrived with no posted buffers are dropped, as on
        // real hardware when the internal FIFO has nowhere to go.
        while self.rxq[q].fifo > 0 && self.rx_ring_empty(q) && self.rxq[q].phase == RxPhase::Idle {
            self.rxq[q].fifo -= 1;
            self.rx_fifo_meta[q].pop_front();
            self.stats.rx_overruns.inc();
        }
        if self.rxq[q].phase != RxPhase::Idle || self.rxq[q].fifo == 0 || self.rx_ring_empty(q) {
            return;
        }
        self.rxq[q].fifo -= 1;
        self.rx_cur[q] = match self.rx_fifo_meta[q].pop_front() {
            Some(meta) => meta,
            None => (self.config.rx_stream.map(|(bytes, _, _)| bytes).unwrap_or(64), 0),
        };
        self.rxq[q].phase = RxPhase::FetchDescriptor;
        let desc_addr = self.rxq[q].rdba + u64::from(self.rxq[q].rdh) * u64::from(DESC_BYTES);
        self.enqueue_job(ctx, Engine::Rx, q, false, desc_addr, DESC_BYTES);
    }

    fn rx_job_done(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        match self.rxq[q].phase {
            RxPhase::FetchDescriptor => {
                self.rxq[q].phase = RxPhase::WriteData;
                let frame_bytes = self.rx_cur[q].0;
                // The descriptor names the buffer; the model fabricates it.
                let buf_addr =
                    0xa000_0000 + (q as u64) * 0x100_0000 + u64::from(self.rxq[q].rdh) * 0x1_0000;
                self.enqueue_job(ctx, Engine::Rx, q, true, buf_addr, frame_bytes.max(64));
            }
            RxPhase::WriteData => {
                self.rxq[q].phase = RxPhase::Writeback;
                let desc_addr =
                    self.rxq[q].rdba + u64::from(self.rxq[q].rdh) * u64::from(DESC_BYTES);
                self.enqueue_job(ctx, Engine::Rx, q, true, desc_addr + 12, 4);
            }
            RxPhase::Writeback => {
                let rxq = &mut self.rxq[q];
                rxq.rdh = (rxq.rdh + 1) % rxq.rdlen.max(1);
                self.stats.frames_rx.inc();
                if self.config.rx_source.is_some() {
                    let (bytes, arrived) = self.rx_cur[q];
                    self.rx_octets += u64::from(bytes);
                    self.stats.rx_frame_latency.record(ctx.now().saturating_sub(arrived) as f64);
                }
                let cause = rx_cause(q as u32);
                self.icr |= cause;
                if self.ims & cause != 0 {
                    self.deliver(ctx, rx_vector(self.config.queues, q as u32));
                }
                self.rxq[q].phase = RxPhase::Idle;
                self.rx_kick(ctx, q);
            }
            RxPhase::Idle => panic!("{}: RX q{q} job completion while idle", self.name),
        }
    }

    // --- interrupts & PIO -------------------------------------------------------

    /// Routes an unmasked interrupt cause: MSI-X when the function enable
    /// is set, otherwise the legacy MSI/INTx message path.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, vector: u16) {
        if self.msix.active() {
            self.msix_deliver(ctx, vector);
        } else {
            self.raise_irq(ctx);
        }
    }

    fn msix_deliver(&mut self, ctx: &mut Ctx<'_>, v: u16) {
        if self.msix.latch_if_masked(v) {
            return;
        }
        if self.itr_holdoff[v as usize] {
            // Moderation: the cause folds into the running holdoff window
            // and the expiry timer delivers one coalesced interrupt.
            self.itr_pending[v as usize] = true;
            self.stats.irqs_coalesced.inc();
            return;
        }
        self.msix_fire(ctx, v);
    }

    /// Sends the vector's doorbell and, when moderation is on, opens the
    /// holdoff window.
    fn msix_fire(&mut self, ctx: &mut Ctx<'_>, v: u16) {
        self.stats.irqs.inc();
        self.msix.msix_send(ctx, &mut self.dma, v);
        if self.config.moderation > 0 {
            self.itr_holdoff[v as usize] = true;
            ctx.schedule(self.config.moderation, Event::Timer { kind: K_ITR, data: u64::from(v) });
        }
    }

    fn itr_expired(&mut self, ctx: &mut Ctx<'_>, v: u16) {
        self.itr_holdoff[v as usize] = false;
        if std::mem::take(&mut self.itr_pending[v as usize]) {
            // Mask state is re-evaluated at expiry: a vector masked during
            // the window latches in the PBA instead of firing.
            self.msix_deliver(ctx, v);
        }
    }

    /// Fires PBA-latched vectors that software has just unmasked.
    fn msix_unmasked(&mut self, ctx: &mut Ctx<'_>) {
        let mut ready = self.msix.msix_drain();
        while ready != 0 {
            let v = ready.trailing_zeros() as u16;
            ready &= ready - 1;
            if self.itr_holdoff[v as usize] {
                self.itr_pending[v as usize] = true;
            } else {
                self.msix_fire(ctx, v);
            }
        }
    }

    fn raise_irq(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.irqs.inc();
        let msg = legacy_message(ctx, &self.config_space.borrow(), self.config.intx);
        if let Some(msg) = msg {
            ctx.emit(TraceCategory::Device, TraceKind::Interrupt, Some(msg.id()), None, msg.addr());
            self.dma.send(ctx, msg, None);
        }
    }
}

impl Component for Nic {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, NIC_PIO_PORT, "MMIO arrives on the PIO port");
        let bar0 = self.bar0();
        let resp = mmio::serve(self, ctx, bar0, BAR0_SIZE, pkt, Self::reg_read, Self::reg_write);
        self.pio.delay(ctx, self.config.pio_latency, TAG_PIO_RESP, resp);
        // Any MMIO access re-evaluates PBA-latched vectors (software may
        // just have unmasked one, via the table or config space).
        if self.msix.any_pending() {
            self.msix_unmasked(ctx);
        }
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, NIC_DMA_PORT);
        self.dma.on_response(ctx, pkt);
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_TX_KICK, data } => self.tx_kick(ctx, data as usize),
            Event::Timer { kind: K_TX_WIRE_DONE, data } => self.tx_wire_done(ctx, data as usize),
            Event::Timer { kind: K_DMA_RESP, .. } => self.pump_dma(ctx),
            Event::Timer { kind: K_RX_FRAME, .. } => self.rx_frame_arrived(ctx),
            Event::Timer { kind: K_RX_TRAFFIC, data } => self.rx_traffic_arrived(ctx, data),
            Event::Timer { kind: K_ITR, data } => self.itr_expired(ctx, data as u16),
            Event::Timer { kind, .. } => panic!("{}: unknown timer {kind}", self.name),
            Event::DelayedPacket { tag: TAG_PIO_RESP, pkt } => {
                self.pio.arrive(pkt);
                self.pio.flush(ctx, NIC_PIO_PORT);
            }
            Event::DelayedPacket { tag, .. } => panic!("{}: unknown tag {tag}", self.name),
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        match port {
            NIC_DMA_PORT => {
                if self.dma.retry(ctx) {
                    self.pump_dma(ctx);
                }
            }
            NIC_PIO_PORT => {
                self.pio.unblock();
                self.pio.flush(ctx, port);
            }
            other => panic!("{}: retry on unknown port {other}", self.name),
        }
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("mmio_reads", &self.stats.mmio_reads);
        out.counter("mmio_writes", &self.stats.mmio_writes);
        out.counter("frames_tx", &self.stats.frames_tx);
        out.counter("frames_rx", &self.stats.frames_rx);
        out.counter("rx_overruns", &self.stats.rx_overruns);
        out.counter("dma_read_tlps", &self.dma.read_tlps);
        out.counter("dma_write_tlps", &self.dma.write_tlps);
        out.counter("dma_bytes", &self.dma.bytes);
        out.counter("dma_error_completions", &self.dma.error_completions);
        out.histogram("dma_read_latency", &self.dma.read_latency);
        out.counter("irqs", &self.stats.irqs);
        out.counter("msix_irqs", &self.msix.sent);
        out.counter("irqs_coalesced", &self.stats.irqs_coalesced);
        // Traffic-source keys appear only when the source is configured,
        // so legacy systems keep their recorded stats fingerprints.
        if self.config.rx_source.is_some() {
            out.scalar("rx_octets", self.rx_octets as f64);
            out.histogram("rx_frame_latency", &self.stats.rx_frame_latency);
        }
    }

    state_fields!(component self;
        ctrl, icr, ims,
        [txq] { tdba, tdlen, tdh, tdt, tx_buflen, phase },
        [rxq] { rdba, rdlen, rdh, rdt, phase, fifo },
        jobs: index < [self.txq.len(), self.rxq.len()],
        active: index < [self.txq.len(), self.rxq.len()],
        dma, rx_frames_left, rx_stream_started, rx_frame_seq, msix,
        // Holdoff/pending flags pack into bitmasks (≤ 12 vectors).
        save(w) {
            w.u64(pack_bits(&self.itr_holdoff));
            w.u64(pack_bits(&self.itr_pending));
        }
        load(r) {
            unpack_bits(r.u64()?, &mut self.itr_holdoff);
            unpack_bits(r.u64()?, &mut self.itr_pending);
        },
        pio, stats.mmio_reads, stats.mmio_writes, stats.frames_tx, stats.frames_rx,
        stats.rx_overruns, stats.irqs, stats.irqs_coalesced,
        // Traffic-source state rides at the tail, only when configured,
        // so legacy checkpoints keep their exact byte layout. The feed
        // itself is described by its position: restore re-derives the
        // stream and skips the emitted prefix.
        save(w) {
            if self.config.rx_source.is_some() {
                w.u32(self.rx_feed.as_ref().map_or(0, |f| f.emitted()));
                self.rx_octets.save(w);
                for q in 0..self.rxq.len() {
                    self.rx_cur[q].save(w);
                    self.rx_fifo_meta[q].save(w);
                }
                self.stats.rx_frame_latency.save(w);
            }
        }
        load(r) {
            if let Some(spec) = self.config.rx_source.as_ref() {
                self.rx_feed = Some(TrafficFeed::resume(spec, r.u32()?));
                self.rx_octets.load(r)?;
                for q in 0..self.rxq.len() {
                    self.rx_cur[q].load(r)?;
                    self.rx_fifo_meta[q].load(r)?;
                }
                self.stats.rx_frame_latency.load(r)?;
            }
        },
    );
}

/// Packs one flag per vector into a bitmask, vector 0 in bit 0.
fn pack_bits(flags: &[bool]) -> u64 {
    flags.iter().enumerate().fold(0, |bits, (v, &f)| bits | u64::from(f) << v)
}

/// Unpacks [`pack_bits`] into `flags`.
fn unpack_bits(bits: u64, flags: &mut [bool]) {
    for (v, f) in flags.iter_mut().enumerate() {
        *f = bits & (1 << v) != 0;
    }
}

#[cfg(test)]
impl Nic {
    /// Points the oldest pending DMA job at a queue this NIC does not
    /// have; `false` when no job is pending.
    pub(crate) fn misroute_a_dma_job(&mut self) -> bool {
        let missing = self.txq.len().max(self.rxq.len()) as u8;
        self.jobs.front_mut().or(self.active.as_mut()).map(|job| job.queue = missing).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};

    use crate::testkit::Guest;

    const BAR0: u64 = 0x4010_0000;

    fn programmed_nic(config: NicConfig) -> (Nic, SharedConfigSpace) {
        let (nic, cs) = Nic::new("nic", config);
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        (nic, cs)
    }

    #[test]
    fn config_space_matches_the_paper() {
        let cs = nic_config_space();
        assert_eq!(cs.read(0x00, 2), 0x8086);
        assert_eq!(cs.read(0x02, 2), u32::from(NIC_DEVICE_ID), "0x10D3 invokes e1000e");
        let caps = pcisim_pci::caps::walk_capabilities(&cs);
        let ids: Vec<u8> = caps.iter().map(|&(_, id)| id).collect();
        assert_eq!(
            ids,
            vec![
                pcisim_pci::regs::cap_id::POWER_MANAGEMENT,
                pcisim_pci::regs::cap_id::MSI,
                pcisim_pci::regs::cap_id::PCI_EXPRESS,
                pcisim_pci::regs::cap_id::MSI_X,
            ],
            "PM → MSI → PCIe → MSI-X, as in the 82574l datasheet"
        );
    }

    #[test]
    fn mmio_read_takes_pio_latency() {
        let mut sim = Simulation::new();
        let (nic, _cs) = programmed_nic(NicConfig { pio_latency: ns(80), ..NicConfig::default() });
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, BAR0 + regs::STATUS, 4)]);
        let r = sim.add(Box::new(req));
        let n = sim.add(Box::new(nic));
        sim.connect((r, REQUESTER_PORT), (n, NIC_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        assert_eq!(done[0].1, ns(80));
        assert_eq!(sim.stats().get("nic.mmio_reads"), Some(1.0));
    }

    #[test]
    fn status_register_reports_link_up() {
        let (mut nic, _) = programmed_nic(NicConfig::default());
        assert_eq!(nic.reg_read(regs::STATUS) & STATUS_LINK_UP, STATUS_LINK_UP);
    }

    #[test]
    fn icr_read_clears_pending_causes() {
        let (mut nic, _) = programmed_nic(NicConfig::default());
        nic.icr = INT_TXDW | INT_RXT0;
        assert_eq!(nic.reg_read(regs::ICR), INT_TXDW | INT_RXT0);
        assert_eq!(nic.reg_read(regs::ICR), 0, "ICR is read-clear");
    }

    #[test]
    fn ims_imc_set_and_clear_mask_bits() {
        let (mut nic, _) = programmed_nic(NicConfig::default());
        nic.ims |= INT_TXDW;
        assert_eq!(nic.reg_read(regs::IMS), INT_TXDW);
        nic.ims &= !INT_TXDW;
        assert_eq!(nic.reg_read(regs::IMS), 0);
    }

    fn run_with_driver(
        config: NicConfig,
        writes: Vec<(u64, u32)>,
    ) -> pcisim_kernel::stats::StatsSnapshot {
        let mut sim = Simulation::new();
        let (nic, _cs) = programmed_nic(config);
        let drv = sim.add(Box::new(Guest::new(BAR0, writes)));
        let n = sim.add(Box::new(nic));
        let (mem, _) = Responder::new("mem", ns(30));
        let m = sim.add(Box::new(mem));
        sim.connect((drv, PortId(0)), (n, NIC_PIO_PORT));
        sim.connect((n, NIC_DMA_PORT), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        sim.stats()
    }

    #[test]
    fn tx_transmits_one_frame_with_descriptor_and_buffer_dma() {
        let stats = run_with_driver(
            NicConfig::default(),
            vec![
                (regs::TDBAL, 0x8800_0000),
                (regs::TDLEN, 64),
                (regs::TX_BUFLEN, 1514),
                (regs::IMS, INT_TXDW),
                (regs::TDT, 1),
            ],
        );
        assert_eq!(stats.get("nic.frames_tx"), Some(1.0));
        // 1 descriptor TLP + ceil(1514/64)=24 buffer TLPs.
        assert_eq!(stats.get("nic.dma_read_tlps"), Some(25.0));
        assert_eq!(stats.get("nic.dma_write_tlps"), Some(1.0), "status write-back");
        assert_eq!(stats.get("nic.irqs"), Some(1.0));
    }

    #[test]
    fn tx_ring_processes_multiple_frames() {
        let stats = run_with_driver(
            NicConfig::default(),
            vec![
                (regs::TDBAL, 0x8800_0000),
                (regs::TDLEN, 64),
                (regs::TX_BUFLEN, 256),
                (regs::IMS, INT_TXDW),
                (regs::TDT, 3),
            ],
        );
        assert_eq!(stats.get("nic.frames_tx"), Some(3.0));
        // Per frame: 1 descriptor + 4 buffer chunks (reads).
        assert_eq!(stats.get("nic.dma_read_tlps"), Some(15.0));
        assert_eq!(stats.get("nic.irqs"), Some(3.0));
    }

    #[test]
    fn masked_interrupt_does_not_fire() {
        let stats = run_with_driver(
            NicConfig::default(),
            vec![
                (regs::TDBAL, 0x8800_0000),
                (regs::TDLEN, 64),
                (regs::TX_BUFLEN, 128),
                (regs::TDT, 1),
            ],
        );
        assert_eq!(stats.get("nic.frames_tx"), Some(1.0));
        assert_eq!(stats.get("nic.irqs"), Some(0.0), "masked interrupt must not raise");
    }

    #[test]
    fn rx_frames_are_written_to_posted_buffers() {
        let config = NicConfig { rx_stream: Some((512, ns(2000), 4)), ..NicConfig::default() };
        let stats = run_with_driver(
            config,
            vec![
                (regs::RDBAL, 0x8900_0000),
                (regs::RDLEN, 64),
                (regs::IMS, INT_RXT0),
                (regs::RDT, 16),
            ],
        );
        assert_eq!(stats.get("nic.frames_rx"), Some(4.0));
        assert_eq!(stats.get("nic.rx_overruns"), Some(0.0));
        // Per frame: 1 descriptor read + 8 data-write chunks + 1 write-back.
        assert_eq!(stats.get("nic.dma_read_tlps"), Some(4.0));
        assert_eq!(stats.get("nic.dma_write_tlps"), Some(4.0 * 9.0));
        assert_eq!(stats.get("nic.irqs"), Some(4.0));
    }

    #[test]
    fn rx_without_posted_buffers_counts_overruns() {
        let config = NicConfig { rx_stream: Some((512, ns(2000), 5)), ..NicConfig::default() };
        // Only 2 buffers posted for 5 frames.
        let stats = run_with_driver(
            config,
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 2)],
        );
        assert_eq!(stats.get("nic.frames_rx"), Some(2.0));
        assert_eq!(stats.get("nic.rx_overruns"), Some(3.0));
    }

    #[test]
    fn rx_fifo_overflow_drops_frames() {
        // Frames every 100 ns against a 30 ns-per-TLP memory: the 9-TLP
        // per-frame DMA takes ~0.3 µs... make memory slow enough that the
        // 32-frame FIFO overflows.
        let config = NicConfig { rx_stream: Some((1514, ns(100), 128)), ..NicConfig::default() };
        let mut sim = Simulation::new();
        let (nic, _cs) = programmed_nic(config);
        let writes = vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 512), (regs::RDT, 511)];
        let drv = sim.add(Box::new(Guest::new(BAR0, writes)));
        let n = sim.add(Box::new(nic));
        let (mem, _) = Responder::new("mem", pcisim_kernel::tick::us(2));
        let m = sim.add(Box::new(mem));
        sim.connect((drv, PortId(0)), (n, NIC_PIO_PORT));
        sim.connect((n, NIC_DMA_PORT), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let stats = sim.stats();
        let rx = stats.get("nic.frames_rx").unwrap();
        let drops = stats.get("nic.rx_overruns").unwrap();
        assert!(drops > 0.0, "slow DMA must overflow the FIFO");
        assert_eq!(rx + drops, 128.0, "every frame is either received or dropped");
    }

    #[test]
    fn rx_and_tx_share_the_dma_pipeline() {
        // Both engines active at once: everything completes, no panic from
        // interleaved completions.
        let config = NicConfig { rx_stream: Some((256, ns(500), 8)), ..NicConfig::default() };
        let stats = run_with_driver(
            config,
            vec![
                (regs::RDBAL, 0x8900_0000),
                (regs::RDLEN, 64),
                (regs::RDT, 32),
                (regs::TDBAL, 0x8800_0000),
                (regs::TDLEN, 64),
                (regs::TX_BUFLEN, 1024),
                (regs::IMS, INT_TXDW | INT_RXT0),
                (regs::TDT, 4),
            ],
        );
        assert_eq!(stats.get("nic.frames_tx"), Some(4.0));
        assert_eq!(stats.get("nic.frames_rx"), Some(8.0));
        assert_eq!(stats.get("nic.irqs"), Some(12.0));
    }

    // --- Traffic-source RX -----------------------------------------------------

    use crate::traffic::{record_trace, ArrivalProcess, SizeDist, TrafficConfig, TrafficSpec};
    use std::sync::Arc;

    fn traffic_cfg() -> TrafficConfig {
        TrafficConfig {
            seed: 0x5eed_cafe,
            flows: 4096,
            frames: 16,
            size: SizeDist::Fixed(512),
            arrival: ArrivalProcess::Periodic(ns(2000)),
        }
    }

    #[test]
    fn traffic_source_delivers_every_frame_without_interrupts() {
        let config = NicConfig {
            rx_source: Some(TrafficSpec::Generate(traffic_cfg())),
            ..NicConfig::default()
        };
        // Descriptors posted, interrupts never unmasked: a poll-mode driver.
        let stats = run_with_driver(
            config,
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 32)],
        );
        assert_eq!(stats.get("nic.frames_rx"), Some(16.0));
        assert_eq!(stats.get("nic.rx_overruns"), Some(0.0));
        assert_eq!(stats.get("nic.irqs"), Some(0.0), "masked NIC must stay silent");
        assert_eq!(stats.get("nic.msix_irqs"), Some(0.0));
        assert_eq!(stats.get("nic.rx_octets"), Some(16.0 * 512.0));
        assert_eq!(stats.get("nic.rx_frame_latency.count"), Some(16.0));
    }

    #[test]
    fn traffic_source_heavy_tail_varies_frame_sizes() {
        let cfg = TrafficConfig {
            size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
            arrival: ArrivalProcess::Poisson(ns(1500)),
            ..traffic_cfg()
        };
        let config =
            NicConfig { rx_source: Some(TrafficSpec::Generate(cfg)), ..NicConfig::default() };
        let stats = run_with_driver(
            config,
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 32)],
        );
        assert_eq!(stats.get("nic.frames_rx"), Some(16.0));
        let octets = stats.get("nic.rx_octets").unwrap();
        assert!((16.0 * 64.0..=16.0 * 1514.0).contains(&octets));
        assert_ne!(octets, 16.0 * 512.0, "Pareto sizes should not all collapse to one value");
    }

    #[test]
    fn traffic_replay_is_bit_identical_to_generate_live() {
        let cfg = traffic_cfg();
        let trace = Arc::new(record_trace(&cfg));
        let live = run_with_driver(
            NicConfig { rx_source: Some(TrafficSpec::Generate(cfg)), ..NicConfig::default() },
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 32)],
        );
        let replay = run_with_driver(
            NicConfig { rx_source: Some(TrafficSpec::Replay(trace)), ..NicConfig::default() },
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 32)],
        );
        assert_eq!(live, replay, "replayed trace must reproduce the live run exactly");
    }

    #[test]
    fn traffic_source_overruns_when_no_buffers_posted() {
        let config = NicConfig {
            rx_source: Some(TrafficSpec::Generate(traffic_cfg())),
            ..NicConfig::default()
        };
        // Only 2 buffers for 16 frames.
        let stats = run_with_driver(
            config,
            vec![(regs::RDBAL, 0x8900_0000), (regs::RDLEN, 64), (regs::RDT, 2)],
        );
        assert_eq!(stats.get("nic.frames_rx"), Some(2.0));
        assert_eq!(stats.get("nic.rx_overruns"), Some(14.0));
    }

    #[test]
    fn stats_registers_expose_rx_progress() {
        let (mut nic, _) = programmed_nic(NicConfig {
            rx_source: Some(TrafficSpec::Generate(traffic_cfg())),
            ..NicConfig::default()
        });
        nic.stats.frames_rx.inc();
        nic.stats.frames_rx.inc();
        nic.stats.rx_overruns.inc();
        nic.rx_octets = 0x1_2345_6789;
        assert_eq!(nic.reg_read(regs::GPRC), 2);
        assert_eq!(nic.reg_read(regs::MPC), 1);
        assert_eq!(nic.reg_read(regs::GORCL), 0x2345_6789);
        assert_eq!(nic.reg_read(regs::GORCH), 0x1);
    }

    // --- MSI-X / multi-queue ---------------------------------------------------

    use pcisim_pci::caps::msix;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Target window for MSI-X doorbells in these tests (the responder
    /// completes any address; real systems point this at the intc).
    const DOORBELL_BASE: u64 = 0x2c00_0000;

    /// Enables the MSI-X function in config space (what the driver's
    /// config write does through the host bridge).
    fn enable_msix(cs: &SharedConfigSpace) {
        cs.borrow_mut().write(0xa0 + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
    }

    /// MMIO writes programming table entry `v` to a distinct doorbell
    /// address/data, unmasked.
    fn program_vector(v: u16) -> Vec<(u64, u32)> {
        let e = msix_entry_offset(v);
        vec![
            (e + msix::ENTRY_ADDR_LO, (DOORBELL_BASE + u64::from(v) * 4) as u32),
            (e + msix::ENTRY_ADDR_HI, 0),
            (e + msix::ENTRY_DATA, 0x4000 | u32::from(v)),
            (e + msix::ENTRY_VECTOR_CTRL, 0),
        ]
    }

    /// Records every request reaching the fabric side: `(cmd, addr)`.
    struct RecordingSink {
        name: String,
        seen: Rc<RefCell<Vec<(Command, u64)>>>,
    }
    impl Component for RecordingSink {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            self.seen.borrow_mut().push((pkt.cmd(), pkt.addr()));
            match pkt.cmd() {
                Command::ReadReq => {
                    let data = vec![0u8; pkt.size() as usize];
                    ctx.schedule(
                        ns(30),
                        Event::DelayedPacket { tag: 1, pkt: pkt.into_read_response(data) },
                    );
                }
                Command::WriteReq => {
                    ctx.schedule(ns(30), Event::DelayedPacket { tag: 1, pkt: pkt.into_response() });
                }
                _ => {} // posted messages complete at send
            }
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            if let Event::DelayedPacket { pkt, .. } = ev {
                ctx.try_send_response(PortId(0), pkt).expect("nic accepts completions");
            }
        }
    }

    type RequestLog = Rc<RefCell<Vec<(Command, u64)>>>;

    /// Runs a NIC against a recording sink; returns (stats, request log).
    fn run_with_driver_recorded(
        config: NicConfig,
        writes: Vec<(u64, u32)>,
        late_writes: Vec<(u64, u32)>,
        enable: bool,
    ) -> (pcisim_kernel::stats::StatsSnapshot, RequestLog) {
        let mut sim = Simulation::new();
        let (nic, cs) = programmed_nic(config);
        if enable {
            enable_msix(&cs);
        }
        let drv = sim.add(Box::new(TwoPhaseDriver { writes, late_writes, phase: 0 }));
        let n = sim.add(Box::new(nic));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let m = sim.add(Box::new(RecordingSink { name: "mem".into(), seen: seen.clone() }));
        sim.connect((drv, PortId(0)), (n, NIC_PIO_PORT));
        sim.connect((n, NIC_DMA_PORT), (m, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        (sim.stats(), seen)
    }

    /// Like [`Guest`] but with a second write batch at t = 1 ms
    /// (after any plausible TX/RX activity settles).
    struct TwoPhaseDriver {
        writes: Vec<(u64, u32)>,
        late_writes: Vec<(u64, u32)>,
        phase: u8,
    }
    impl Component for TwoPhaseDriver {
        fn name(&self) -> &str {
            "drv"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
            ctx.schedule(pcisim_kernel::tick::us(1000), Event::Timer { kind: 1, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let batch = match ev {
                Event::Timer { kind: 0, .. } if self.phase == 0 => {
                    self.phase = 1;
                    &self.writes
                }
                Event::Timer { kind: 1, .. } if self.phase == 1 => {
                    self.phase = 2;
                    &self.late_writes
                }
                _ => return,
            };
            for (off, val) in batch {
                let id = ctx.alloc_packet_id();
                let pkt = Packet::request(id, Command::WriteReq, BAR0 + off, 4, ctx.self_id())
                    .with_payload(val.to_le_bytes().to_vec());
                ctx.try_send_request(PortId(0), pkt).expect("nic accepts PIO");
            }
        }
        fn recv_response(&mut self, _c: &mut Ctx<'_>, _p: PortId, _k: Packet) -> RecvResult {
            RecvResult::Accepted
        }
    }

    #[test]
    fn msix_table_round_trips_through_mmio() {
        let mut sim = Simulation::new();
        let (nic, _cs) =
            programmed_nic(NicConfig { queues: 2, msix_capable: true, ..NicConfig::default() });
        let e1 = msix_entry_offset(1);
        let mut reads = vec![(Command::ReadReq, BAR0 + e1 + msix::ENTRY_DATA, 4)];
        reads.insert(0, (Command::WriteReq, BAR0 + e1 + msix::ENTRY_DATA, 4));
        let (req, done) = Requester::new("cpu", reads);
        let r = sim.add(Box::new(req));
        let n = sim.add(Box::new(nic));
        sim.connect((r, REQUESTER_PORT), (n, NIC_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 2, "table write and read both complete");
    }

    #[test]
    fn msix_vectors_power_up_masked() {
        let (mut nic, _cs) =
            programmed_nic(NicConfig { queues: 1, msix_capable: true, ..NicConfig::default() });
        let ctrl = nic.reg_read(msix_entry_offset(0) + msix::ENTRY_VECTOR_CTRL);
        assert_eq!(ctrl & msix::VECTOR_CTRL_MASK, 1, "vectors must come up masked");
    }

    #[test]
    fn four_queue_tx_raises_per_queue_msix_vectors() {
        let queues = 4;
        let config = NicConfig { queues, msix_capable: true, ..NicConfig::default() };
        let mut writes = Vec::new();
        for q in 0..queues {
            writes.extend(program_vector(tx_vector(q)));
        }
        let mut ims = 0;
        for q in 0..queues {
            writes.push((regs::per_queue(regs::TDBAL, q), 0x8800_0000 + q * 0x10_0000));
            writes.push((regs::per_queue(regs::TDLEN, q), 64));
            writes.push((regs::per_queue(regs::TX_BUFLEN, q), 256));
            ims |= tx_cause(q);
        }
        writes.push((regs::IMS, ims));
        for q in 0..queues {
            writes.push((regs::per_queue(regs::TDT, q), 1));
        }
        let (stats, seen) = run_with_driver_recorded(config, writes, vec![], true);
        assert_eq!(stats.get("nic.frames_tx"), Some(4.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(4.0));
        assert_eq!(stats.get("nic.irqs"), Some(4.0));
        // Each queue's doorbell is a posted memory WRITE to its own vector
        // address — not a legacy Message.
        for q in 0..queues {
            let addr = DOORBELL_BASE + u64::from(tx_vector(q)) * 4;
            assert!(
                seen.borrow().iter().any(|&(cmd, a)| cmd == Command::WriteReq && a == addr),
                "queue {q} must write its own doorbell at {addr:#x}"
            );
        }
    }

    #[test]
    fn masked_vector_latches_pba_and_unmask_drains() {
        let config = NicConfig { queues: 1, msix_capable: true, ..NicConfig::default() };
        let v = tx_vector(0);
        let e = msix_entry_offset(v);
        // Program address/data but leave the vector masked (power-up state).
        let writes = vec![
            (e + msix::ENTRY_ADDR_LO, DOORBELL_BASE as u32),
            (e + msix::ENTRY_DATA, 0x99),
            (regs::TDBAL, 0x8800_0000),
            (regs::TDLEN, 64),
            (regs::TX_BUFLEN, 128),
            (regs::IMS, INT_TXDW),
            (regs::TDT, 1),
        ];
        // Unmask at t = 1 ms: the PBA-latched interrupt must drain.
        let late = vec![(e + msix::ENTRY_VECTOR_CTRL, 0)];
        let (stats, seen) = run_with_driver_recorded(config, writes, late, true);
        assert_eq!(stats.get("nic.frames_tx"), Some(1.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(1.0), "pending must drain on unmask");
        let fired = seen
            .borrow()
            .iter()
            .filter(|&&(cmd, a)| cmd == Command::WriteReq && a == DOORBELL_BASE)
            .count();
        assert_eq!(fired, 1, "exactly one doorbell, after the unmask");
    }

    #[test]
    fn moderation_coalesces_interrupts_under_load() {
        let config = NicConfig {
            queues: 1,
            msix_capable: true,
            moderation: pcisim_kernel::tick::us(50),
            ..NicConfig::default()
        };
        let mut writes = program_vector(tx_vector(0));
        writes.extend([
            (regs::TDBAL, 0x8800_0000),
            (regs::TDLEN, 64),
            (regs::TX_BUFLEN, 1514),
            (regs::IMS, INT_TXDW),
            (regs::TDT, 4),
        ]);
        let (stats, _) = run_with_driver_recorded(config, writes, vec![], true);
        assert_eq!(stats.get("nic.frames_tx"), Some(4.0));
        // First completion fires; the rest land inside the 50 µs holdoff
        // and coalesce into one deferred delivery.
        assert_eq!(stats.get("nic.msix_irqs"), Some(2.0));
        assert_eq!(stats.get("nic.irqs_coalesced"), Some(3.0));
    }

    #[test]
    fn intx_fallback_when_msix_not_enabled() {
        // msix_capable but the function enable is never set: the legacy
        // path must behave exactly as the paper's model.
        let config = NicConfig { queues: 1, msix_capable: true, ..NicConfig::default() };
        let writes = vec![
            (regs::TDBAL, 0x8800_0000),
            (regs::TDLEN, 64),
            (regs::TX_BUFLEN, 128),
            (regs::IMS, INT_TXDW),
            (regs::TDT, 1),
        ];
        let (stats, seen) = run_with_driver_recorded(config, writes, vec![], false);
        assert_eq!(stats.get("nic.frames_tx"), Some(1.0));
        assert_eq!(stats.get("nic.irqs"), Some(1.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(0.0));
        assert!(
            !seen.borrow().iter().any(|&(cmd, _)| cmd == Command::Message),
            "no intx target configured, so no message either"
        );
    }

    #[test]
    fn rss_hash_is_deterministic_and_spreads() {
        let queues = 4;
        let mut hit = [false; 4];
        for flow in 0..16 {
            assert_eq!(rss_queue(flow, queues), rss_queue(flow, queues));
            hit[rss_queue(flow, queues) as usize] = true;
        }
        assert!(hit.iter().filter(|&&h| h).count() >= 2, "16 flows must spread across queues");
        assert_eq!(rss_queue(7, 1), 0, "single queue degenerates to queue 0");
    }

    #[test]
    fn multi_queue_rx_steers_frames_by_rss() {
        let queues = 2;
        let config = NicConfig {
            queues,
            msix_capable: true,
            rx_stream: Some((512, ns(2000), 8)),
            rx_flows: 8,
            ..NicConfig::default()
        };
        let mut writes = Vec::new();
        for q in 0..queues {
            writes.extend(program_vector(rx_vector(queues, q)));
            writes.push((regs::per_queue(regs::RDBAL, q), 0x8900_0000 + q * 0x10_0000));
            writes.push((regs::per_queue(regs::RDLEN, q), 64));
        }
        writes.push((regs::IMS, rx_cause(0) | rx_cause(1)));
        for q in 0..queues {
            writes.push((regs::per_queue(regs::RDT, q), 16));
        }
        let (stats, seen) = run_with_driver_recorded(config, writes, vec![], true);
        assert_eq!(stats.get("nic.frames_rx"), Some(8.0));
        assert_eq!(stats.get("nic.rx_overruns"), Some(0.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(8.0));
        // Both RX vectors must have fired: the 8 flows hash onto both
        // queues (pinned by rss_hash determinism).
        for q in 0..queues {
            let addr = DOORBELL_BASE + u64::from(rx_vector(queues, q)) * 4;
            assert!(
                seen.borrow().iter().any(|&(cmd, a)| cmd == Command::WriteReq && a == addr),
                "rx queue {q} vector must fire"
            );
        }
    }
}
