//! The virtio guest-driver workload engine.
//!
//! Models the software half of a virtio-pci driver: it walks the device
//! status handshake over MMIO, lays the split virtqueue — descriptor
//! table, avail ring, used ring — out in host DRAM with plain memory
//! writes, then submits descriptor chains and rings the queue's notify
//! doorbell. Completions are serviced interrupt-driven: the IRQ (legacy
//! INTx or an MSI-X vector) triggers a read of the used ring's index
//! word from DRAM, and the *index delta* — not the interrupt count — is
//! what advances the workload, so the model stays correct when several
//! chain retirements coalesce. Every step of the dance crosses the
//! simulated fabric as a TLP; nothing is functional.
//!
//! One engine drives all three datapaths: virtio-blk reads/writes
//! (3-descriptor chains: header, payload, status byte), virtio-net
//! transmit (2 read-only descriptors), and virtio-net receive (2
//! write-only buffers reposted as the device fills them from its
//! traffic source).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pcisim_devices::intc::irq_message_addr;
use pcisim_devices::virtio::{
    common, status, VirtioClass, BLK_HEADER_BYTES, BLK_SECTOR_SIZE, BLK_T_IN, BLK_T_OUT,
    DESC_F_NEXT, DESC_F_WRITE, ISR_OFFSET, MSIX_TABLE_OFFSET, NET_HEADER_BYTES, NOTIFY_MULTIPLIER,
    NOTIFY_OFFSET,
};
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{self, SnapshotError, StateReader, StateWriter};
use pcisim_kernel::state_fields;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, us, Tick};
use pcisim_pci::caps::msix;

use crate::platform::INTC_BASE;
use crate::topology::{EndpointHandle, EndpointKind, MSI_VECTOR};
use crate::workload::{mmio_read, Attached, Workload};

/// Port wired to the memory bus (MMIO + DRAM master).
pub const VIRTIO_APP_MEM_PORT: PortId = PortId(0);
/// Port wired to the interrupt controller under legacy INTx (the
/// vector-0 port under MSI-X; see [`virtio_app_irq_port`]).
pub const VIRTIO_APP_IRQ_PORT: PortId = PortId(1);

/// Port MSI-X vector `v` of the function is delivered on.
pub fn virtio_app_irq_port(v: u16) -> PortId {
    PortId(1 + v)
}

/// Parameters of one virtio driver run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtioAppConfig {
    /// Net only: drive the receive queue (posting writable buffers)
    /// instead of the transmit queue. Frames come only from the device's
    /// `VirtioConfig::rx_source`: without one the posted buffers are never
    /// filled, and the run drains with `done == false` and zero frames.
    pub rx: bool,
    /// Blk only: issue writes instead of reads.
    pub write: bool,
    /// Total descriptor chains to push through the queue.
    pub requests: u32,
    /// Chains kept in flight (the queue depth of the benchmark).
    pub queue_depth: u32,
    /// Payload bytes per chain (a blk transfer or a net frame).
    pub request_bytes: u32,
    /// Kernel overhead per submission (request build, doorbell path).
    pub os_submit_overhead: Tick,
    /// Ring entries; must not exceed the device's queue size.
    pub queue_size: u16,
    /// Drive completions through MSI-X vectors instead of INTx: the
    /// driver programs the function's MSI-X table over MMIO and routes
    /// the config vector to entry 0, queue `q` to entry `1 + q`.
    pub use_msix: bool,
    /// Blk: device capacity the sector pattern wraps within.
    pub capacity_sectors: u64,
}

impl Default for VirtioAppConfig {
    fn default() -> Self {
        Self {
            rx: false,
            write: false,
            requests: 32,
            queue_depth: 1,
            request_bytes: 4096,
            os_submit_overhead: us(2),
            queue_size: 128,
            use_msix: false,
            capacity_sectors: 1 << 21,
        }
    }
}

impl Workload for VirtioAppConfig {
    type Report = VirtioReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::VirtioBlk, EndpointKind::VirtioNet]
    }

    /// The device class, BAR0 and virtqueue window come from the handle;
    /// under MSI-X every table vector's doorbell port is wired.
    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<VirtioReportHandle> {
        let class =
            if ep.kind == EndpointKind::VirtioBlk { VirtioClass::Blk } else { VirtioClass::Net };
        let mut wires = vec![(VIRTIO_APP_MEM_PORT, ep.cpu_mem_port)];
        if self.use_msix {
            assert!(ep.cpu_irq_ports.len() > 1, "MSI-X vectors not enabled for {}", ep.name);
            for (v, port) in ep.cpu_irq_ports.iter().enumerate() {
                wires.push((virtio_app_irq_port(v as u16), *port));
            }
        } else {
            wires.push((VIRTIO_APP_IRQ_PORT, ep.cpu_irq_port));
        }
        let app =
            VirtioApp::new(format!("vdrv{index}"), self, class, ep.bar0, ep.virtio_ring.start());
        Attached::new(app, wires)
    }
}

/// Result of a virtio driver run, shared with the harness.
#[derive(Debug, Clone, Default)]
pub struct VirtioReport {
    /// Whether every chain retired.
    pub done: bool,
    /// Chains retired.
    pub requests: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Tick the driver handshake finished (first submission follows).
    pub start: Tick,
    /// Tick the last chain retired.
    pub end: Tick,
    /// Completion interrupts taken.
    pub irqs: u64,
    /// Sum of doorbell-to-retirement latencies.
    pub lat_sum: Tick,
    /// Fastest chain.
    pub lat_min: Tick,
    /// Slowest chain.
    pub lat_max: Tick,
}

impl VirtioReport {
    /// Payload throughput in Gb/s over the submission window.
    pub fn throughput_gbps(&self) -> f64 {
        gbps(self.bytes, self.end.saturating_sub(self.start))
    }

    /// Mean doorbell-to-retirement latency in ticks.
    pub fn mean_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.lat_sum as f64 / self.requests as f64
        }
    }
}

/// Shared handle to a [`VirtioReport`].
pub type VirtioReportHandle = Rc<RefCell<VirtioReport>>;

impl snapshot::State for VirtioReport {
    state_fields!(state self;
        done, requests, bytes, start, end, irqs, lat_sum, lat_min, lat_max,
    );
}

/// One micro-op of the driver's serialized MMIO/DRAM program. The
/// engine issues one at a time and advances on its completion, which is
/// how a CPU core doing uncached device writes behaves.
#[derive(Debug, Clone)]
enum Op {
    /// Non-posted write (MMIO register, doorbell, or DRAM ring word).
    Write { addr: u64, data: Vec<u8> },
    /// MMIO read of the ISR status byte (read-to-clear INTx ack).
    ReadIsr,
    /// DRAM read of the used ring's index word.
    ReadUsedIdx,
    /// Handshake done: stamp `start` and fan out the initial window.
    MarkStart,
    /// Doorbell acknowledged: stamp the submission tick for latency.
    MarkSubmitted,
}

/// A blank a checkpoint loads a queued op into.
impl Default for Op {
    fn default() -> Self {
        Op::ReadIsr
    }
}

/// A tag byte, then `Write`'s address and data.
impl snapshot::State for Op {
    fn save(&self, w: &mut StateWriter) {
        match self {
            Op::Write { addr, data } => {
                w.u8(0);
                w.u64(*addr);
                w.bytes(data);
            }
            Op::ReadIsr => w.u8(1),
            Op::ReadUsedIdx => w.u8(2),
            Op::MarkStart => w.u8(3),
            Op::MarkSubmitted => w.u8(4),
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = match r.u8()? {
            0 => Op::Write { addr: r.u64()?, data: r.bytes()?.to_vec() },
            1 => Op::ReadIsr,
            2 => Op::ReadUsedIdx,
            3 => Op::MarkStart,
            4 => Op::MarkSubmitted,
            other => return Err(SnapshotError::Corrupt(format!("unknown virtio op {other}"))),
        };
        Ok(())
    }
}

const K_STEP: u32 = 0;
const K_SUBMIT: u32 = 1;

/// The virtio guest driver + benchmark loop, as one CPU-side component.
pub struct VirtioApp {
    name: String,
    config: VirtioAppConfig,
    /// Which device class the driver binds (decides the chain shape).
    class: VirtioClass,
    /// BAR0 of the function.
    bar0: u64,
    /// Base of the DRAM window the rings and buffers are laid out in.
    ring_base: u64,
    ops: VecDeque<Op>,
    /// An op's request is on the wire awaiting its completion.
    inflight: bool,
    /// A used-index read is queued or in flight.
    used_check_queued: bool,
    /// Chains whose submission has been scheduled or issued.
    issued: u32,
    /// Chains retired off the used ring.
    completed: u32,
    /// Driver's shadow of the avail index (incremented at build time).
    avail_idx: u16,
    /// Used index at the last check.
    last_used: u16,
    /// Doorbell ticks of in-flight chains, retired FIFO (the device
    /// walks a queue's chains strictly in order).
    submit_ticks: VecDeque<Tick>,
    report: VirtioReportHandle,
    /// The op's request on its way to the memory port.
    cpu: TimedQueue,
}

impl VirtioApp {
    /// Creates the driver for a `class` function at `bar0` whose rings and
    /// buffers live from `ring_base`; returns the component and its report
    /// handle.
    pub fn new(
        name: impl Into<String>,
        config: VirtioAppConfig,
        class: VirtioClass,
        bar0: u64,
        ring_base: u64,
    ) -> (Self, VirtioReportHandle) {
        assert!(config.requests > 0 && config.queue_depth > 0);
        assert!(config.request_bytes > 0 && config.request_bytes <= 4096);
        let per_chain = Self::descs_per_chain(class);
        assert!(
            config.queue_depth * per_chain <= u32::from(config.queue_size),
            "queue depth {} needs {} descriptors, ring has {}",
            config.queue_depth,
            config.queue_depth * per_chain,
            config.queue_size
        );
        if config.rx {
            assert_eq!(class, VirtioClass::Net, "rx mode is a net datapath");
        }
        let report: VirtioReportHandle = Rc::new(RefCell::new(VirtioReport::default()));
        (
            Self {
                name: name.into(),
                config,
                class,
                bar0,
                ring_base,
                ops: VecDeque::new(),
                inflight: false,
                used_check_queued: false,
                issued: 0,
                completed: 0,
                avail_idx: 0,
                last_used: 0,
                submit_ticks: VecDeque::new(),
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn descs_per_chain(class: VirtioClass) -> u32 {
        match class {
            VirtioClass::Blk => 3,
            VirtioClass::Net => 2,
        }
    }

    /// The virtqueue the benchmark drives.
    fn target_queue(&self) -> u16 {
        match (self.class, self.config.rx) {
            (VirtioClass::Blk, _) => 0,
            (VirtioClass::Net, true) => 0,
            (VirtioClass::Net, false) => 1,
        }
    }

    // --- Ring layout inside the DRAM window (per driven queue `q`):
    // descriptor table, avail ring and used ring in the queue's 16 KB
    // region, then header / status / payload buffer slots above the
    // ring area.

    fn desc_base(&self) -> u64 {
        self.ring_base + u64::from(self.target_queue()) * 0x4000
    }

    fn avail_base(&self) -> u64 {
        self.desc_base() + 0x1000
    }

    fn used_base(&self) -> u64 {
        self.desc_base() + 0x2000
    }

    fn hdr_addr(&self, slot: u32) -> u64 {
        self.ring_base + 0x2_0000 + u64::from(slot) * 0x100
    }

    fn status_addr(&self, slot: u32) -> u64 {
        self.ring_base + 0x3_0000 + u64::from(slot) * 0x40
    }

    fn payload_addr(&self, slot: u32) -> u64 {
        self.ring_base + 0x4_0000 + u64::from(slot) * 0x1000
    }

    fn head_desc(&self, slot: u32) -> u16 {
        (slot * Self::descs_per_chain(self.class)) as u16
    }

    fn push_mmio_write(&mut self, offset: u64, value: u32) {
        self.ops
            .push_back(Op::Write { addr: self.bar0 + offset, data: value.to_le_bytes().to_vec() });
    }

    fn push_dram_write(&mut self, addr: u64, data: Vec<u8>) {
        self.ops.push_back(Op::Write { addr, data });
    }

    /// One 16-byte descriptor table entry.
    fn push_desc(&mut self, index: u16, addr: u64, len: u32, flags: u16, next: u16) {
        let mut d = Vec::with_capacity(16);
        d.extend_from_slice(&addr.to_le_bytes());
        d.extend_from_slice(&len.to_le_bytes());
        d.extend_from_slice(&flags.to_le_bytes());
        d.extend_from_slice(&next.to_le_bytes());
        self.push_dram_write(self.desc_base() + u64::from(index) * 16, d);
    }

    /// The whole driver bring-up: status handshake, MSI-X table, queue
    /// registers, descriptor pre-programming, DRIVER_OK.
    fn build_setup(&mut self) {
        let q = self.target_queue();
        self.push_mmio_write(common::DEVICE_STATUS, status::ACKNOWLEDGE);
        self.push_mmio_write(common::DEVICE_STATUS, status::ACKNOWLEDGE | status::DRIVER);
        self.push_mmio_write(
            common::DEVICE_STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK,
        );
        if self.config.use_msix {
            let vectors = pcisim_devices::virtio::num_msix_vectors(self.class);
            for v in 0..vectors {
                let entry = MSIX_TABLE_OFFSET + u64::from(v) * msix::ENTRY_SIZE;
                let target = irq_message_addr(INTC_BASE, MSI_VECTOR + v as u8);
                self.push_mmio_write(entry + msix::ENTRY_ADDR_LO, target as u32);
                self.push_mmio_write(entry + msix::ENTRY_ADDR_HI, (target >> 32) as u32);
                self.push_mmio_write(entry + msix::ENTRY_DATA, 0x4000 | u32::from(v));
                self.push_mmio_write(entry + msix::ENTRY_VECTOR_CTRL, 0);
            }
            self.push_mmio_write(common::CONFIG_MSIX_VECTOR, 0);
        }
        self.push_mmio_write(common::QUEUE_SELECT, u32::from(q));
        let (desc, avail, used) = (self.desc_base(), self.avail_base(), self.used_base());
        self.push_mmio_write(common::QUEUE_DESC_LO, desc as u32);
        self.push_mmio_write(common::QUEUE_DESC_HI, (desc >> 32) as u32);
        self.push_mmio_write(common::QUEUE_AVAIL_LO, avail as u32);
        self.push_mmio_write(common::QUEUE_AVAIL_HI, (avail >> 32) as u32);
        self.push_mmio_write(common::QUEUE_USED_LO, used as u32);
        self.push_mmio_write(common::QUEUE_USED_HI, (used >> 32) as u32);
        if self.config.use_msix {
            self.push_mmio_write(common::QUEUE_MSIX_VECTOR, u32::from(1 + q));
        }
        self.push_mmio_write(common::QUEUE_ENABLE, 1);

        // Descriptor slots are programmed once and reused round-robin;
        // only ring indices (and blk headers) change per request.
        let bytes = self.config.request_bytes;
        for slot in 0..self.config.queue_depth {
            let head = self.head_desc(slot);
            match (self.class, self.config.rx, self.config.write) {
                (VirtioClass::Blk, _, write) => {
                    let data_flags = DESC_F_NEXT | if write { 0 } else { DESC_F_WRITE };
                    self.push_desc(
                        head,
                        self.hdr_addr(slot),
                        BLK_HEADER_BYTES,
                        DESC_F_NEXT,
                        head + 1,
                    );
                    self.push_desc(head + 1, self.payload_addr(slot), bytes, data_flags, head + 2);
                    self.push_desc(head + 2, self.status_addr(slot), 1, DESC_F_WRITE, 0);
                }
                (VirtioClass::Net, false, _) => {
                    self.push_desc(
                        head,
                        self.hdr_addr(slot),
                        NET_HEADER_BYTES,
                        DESC_F_NEXT,
                        head + 1,
                    );
                    self.push_desc(head + 1, self.payload_addr(slot), bytes, 0, 0);
                }
                (VirtioClass::Net, true, _) => {
                    self.push_desc(
                        head,
                        self.hdr_addr(slot),
                        NET_HEADER_BYTES,
                        DESC_F_NEXT | DESC_F_WRITE,
                        head + 1,
                    );
                    self.push_desc(head + 1, self.payload_addr(slot), bytes, DESC_F_WRITE, 0);
                }
            }
        }

        self.push_mmio_write(
            common::DEVICE_STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        );
        self.ops.push_back(Op::MarkStart);
    }

    /// Appends the op sequence submitting chain `seq`: (blk) header
    /// rewrite, avail ring entry, avail index publish, doorbell.
    fn build_submission(&mut self, seq: u32) {
        let slot = seq % self.config.queue_depth;
        if self.class == VirtioClass::Blk {
            let sectors = u64::from(self.config.request_bytes.div_ceil(BLK_SECTOR_SIZE));
            let span = self.config.capacity_sectors.saturating_sub(sectors).max(1);
            let sector = (u64::from(seq) * sectors) % span;
            let blk_type = if self.config.write { BLK_T_OUT } else { BLK_T_IN };
            let mut hdr = Vec::with_capacity(16);
            hdr.extend_from_slice(&blk_type.to_le_bytes());
            hdr.extend_from_slice(&0u32.to_le_bytes());
            hdr.extend_from_slice(&sector.to_le_bytes());
            self.push_dram_write(self.hdr_addr(slot), hdr);
        }
        let ring_slot = u64::from(self.avail_idx % self.config.queue_size);
        let head = self.head_desc(slot);
        self.push_dram_write(self.avail_base() + 4 + ring_slot * 2, head.to_le_bytes().to_vec());
        self.avail_idx = self.avail_idx.wrapping_add(1);
        self.push_dram_write(self.avail_base() + 2, self.avail_idx.to_le_bytes().to_vec());
        let q = self.target_queue();
        self.push_mmio_write(
            NOTIFY_OFFSET + u64::from(q) * u64::from(NOTIFY_MULTIPLIER),
            u32::from(q),
        );
        self.ops.push_back(Op::MarkSubmitted);
    }

    /// Issues the next op unless one is already on the wire; immediate
    /// marks execute inline.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while !self.inflight {
            let Some(op) = self.ops.pop_front() else { return };
            let pkt = match op {
                Op::Write { addr, data } => {
                    let (id, size) = (ctx.alloc_packet_id(), data.len() as u32);
                    Packet::request(id, Command::WriteReq, addr, size, ctx.self_id())
                        .with_payload(data)
                }
                Op::ReadIsr => mmio_read(ctx, self.bar0 + ISR_OFFSET),
                Op::ReadUsedIdx => {
                    let id = ctx.alloc_packet_id();
                    Packet::request(id, Command::ReadReq, self.used_base() + 2, 2, ctx.self_id())
                }
                Op::MarkStart => {
                    self.report.borrow_mut().start = ctx.now();
                    let window = self.config.queue_depth.min(self.config.requests);
                    for _ in 0..window {
                        let seq = self.issued;
                        self.issued += 1;
                        ctx.schedule(
                            self.config.os_submit_overhead,
                            Event::Timer { kind: K_SUBMIT, data: u64::from(seq) },
                        );
                    }
                    continue;
                }
                Op::MarkSubmitted => {
                    self.submit_ticks.push_back(ctx.now());
                    continue;
                }
            };
            self.inflight = true;
            self.cpu.push(pkt);
            self.cpu.flush(ctx, VIRTIO_APP_MEM_PORT);
        }
    }

    /// Services a used-index read: the delta retires chains in order.
    fn service_used(&mut self, ctx: &mut Ctx<'_>, idx: u16) {
        self.used_check_queued = false;
        let delta = idx.wrapping_sub(self.last_used);
        self.last_used = idx;
        for _ in 0..delta {
            self.completed += 1;
            let submitted = self.submit_ticks.pop_front().unwrap_or_else(|| ctx.now());
            let lat = ctx.now().saturating_sub(submitted);
            let mut r = self.report.borrow_mut();
            r.requests += 1;
            r.bytes += u64::from(self.config.request_bytes);
            r.lat_sum += lat;
            r.lat_min = if r.requests == 1 { lat } else { r.lat_min.min(lat) };
            r.lat_max = r.lat_max.max(lat);
        }
        if delta == 0 {
            return;
        }
        if self.completed >= self.config.requests {
            let mut r = self.report.borrow_mut();
            r.end = ctx.now();
            r.done = true;
            return;
        }
        while self.issued < self.config.requests
            && self.issued - self.completed < self.config.queue_depth
        {
            let seq = self.issued;
            self.issued += 1;
            ctx.schedule(
                self.config.os_submit_overhead,
                Event::Timer { kind: K_SUBMIT, data: u64::from(seq) },
            );
        }
    }
}

impl Component for VirtioApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.build_setup();
        // Small boot offset so time zero artefacts cannot hide costs.
        ctx.schedule(ns(10), Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_STEP, .. } => self.pump(ctx),
            Event::Timer { kind: K_SUBMIT, data } => {
                self.build_submission(data as u32);
                self.pump(ctx);
            }
            other => panic!("{}: unexpected event {other:?}", self.name),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) -> RecvResult {
        assert_eq!(port, VIRTIO_APP_MEM_PORT);
        assert!(self.inflight, "{}: completion with nothing in flight", self.name);
        self.inflight = false;
        match pkt.cmd() {
            Command::WriteResp => {}
            Command::ReadResp => {
                let addr = pkt.addr();
                let data = pkt.take_payload();
                if addr == self.used_base() + 2 {
                    let idx = data
                        .as_ref()
                        .map(|p| u16::from_le_bytes([p[0], *p.get(1).unwrap_or(&0)]))
                        .unwrap_or(0);
                    self.service_used(ctx, idx);
                }
                // The ISR read needs no decoding: reading it cleared it.
            }
            other => panic!("{}: unexpected completion {other:?}", self.name),
        }
        ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        RecvResult::Accepted
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert!(port.0 >= 1, "{}: interrupts arrive on the vector ports", self.name);
        assert_eq!(pkt.cmd(), Command::Message);
        self.report.borrow_mut().irqs += 1;
        if !self.used_check_queued {
            self.used_check_queued = true;
            if !self.config.use_msix {
                self.ops.push_back(Op::ReadIsr);
            }
            self.ops.push_back(Op::ReadUsedIdx);
            ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        }
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        assert_eq!(port, VIRTIO_APP_MEM_PORT);
        self.cpu.unblock();
        self.cpu.flush(ctx, VIRTIO_APP_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("requests", r.requests as f64);
        out.scalar("bytes", r.bytes as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
        out.scalar("irqs", r.irqs as f64);
        out.scalar("throughput_gbps", r.throughput_gbps());
        out.scalar("mean_latency_ns", r.mean_latency());
    }

    state_fields!(component self;
        ops, inflight, used_check_queued, issued, completed, avail_idx, last_used, submit_ticks,
        report, cpu,
    );
}
