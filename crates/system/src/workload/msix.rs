//! An MSI-X multi-queue NIC transmit driver + workload.
//!
//! Models the software side of a modern multi-queue NIC driver: it
//! programs the NIC's MSI-X table over MMIO (one entry per TX queue,
//! pointing at the interrupt controller's per-vector doorbell word),
//! unmasks the vectors, sets up one descriptor ring per queue and then
//! streams frames on every queue concurrently. Completions are serviced
//! NAPI-style — an interrupt on a queue's vector triggers a read of that
//! queue's head register, and the *head delta* (not the interrupt count)
//! is what advances the workload — so the model stays correct when
//! per-vector interrupt moderation coalesces several completions into a
//! single doorbell.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_devices::intc::irq_message_addr;
use pcisim_devices::nic::{
    msix_entry_offset, num_msix_vectors, regs, tx_cause, tx_vector, MAX_QUEUES,
};
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, us, Tick};
use pcisim_kernel::{state_enum, state_fields};
use pcisim_pci::caps::msix;

use crate::platform::INTC_BASE;
use crate::topology::{EndpointHandle, EndpointKind, MSI_VECTOR};
use crate::workload::{mmio_read, mmio_write, Attached, Workload};

/// Port wired to the memory bus (MMIO master).
pub const MSIX_TX_MEM_PORT: PortId = PortId(0);

/// Port wired to the interrupt controller's notification port for MSI-X
/// vector `vector` (the TX vector of queue `q` is `tx_vector(q)`).
pub fn msix_tx_irq_port(vector: u16) -> PortId {
    PortId(1 + vector)
}

/// Parameters of one multi-queue MSI-X transmit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsixTxConfig {
    /// TX queue pairs driven concurrently (1..=MAX_QUEUES).
    pub queues: u32,
    /// Total frames to transmit, split evenly across queues.
    pub frames: u32,
    /// Frame payload size in bytes (1514 = full-size Ethernet).
    pub frame_bytes: u32,
    /// Frames posted per tail-register write, per queue.
    pub batch: u32,
    /// TX descriptor ring size per queue.
    pub ring_entries: u32,
    /// Kernel overhead per posted batch (xmit path, doorbell, IRQ return).
    pub os_batch_overhead: Tick,
}

impl Default for MsixTxConfig {
    fn default() -> Self {
        Self {
            queues: 4,
            frames: 256,
            frame_bytes: 1514,
            batch: 8,
            ring_entries: 256,
            os_batch_overhead: us(2),
        }
    }
}

impl Workload for MsixTxConfig {
    type Report = MsixTxReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::Nic]
    }

    /// Each TX queue's vector port is wired to its own interrupt-controller
    /// doorbell endpoint.
    ///
    /// # Panics
    ///
    /// Panics when the tree was not built with `use_msix` or the NIC's
    /// table is too small for `self.queues` queue pairs.
    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<MsixTxReportHandle> {
        let (have, need) = (ep.cpu_irq_ports.len(), usize::from(num_msix_vectors(self.queues)));
        assert!(
            have >= need,
            "{} exposes {have} interrupt vector(s); {} MSI-X queue pairs need {need}",
            ep.name,
            self.queues
        );
        let mut wires = vec![(MSIX_TX_MEM_PORT, ep.cpu_mem_port)];
        for v in (0..self.queues).map(tx_vector) {
            wires.push((msix_tx_irq_port(v), ep.cpu_irq_ports[usize::from(v)]));
        }
        Attached::new(MsixTxApp::new(format!("msixtx{index}"), self, ep.bar0), wires)
    }
}

/// Result of a multi-queue transmit run, shared with the harness.
#[derive(Debug, Clone, Default)]
pub struct MsixTxReport {
    /// Whether all frames completed.
    pub done: bool,
    /// Frames transmitted (all queues).
    pub frames: u64,
    /// Frame payload bytes moved over DMA.
    pub bytes: u64,
    /// First doorbell tick (setup complete).
    pub start: Tick,
    /// Last completion tick.
    pub end: Tick,
    /// MSI-X doorbell interrupts received, summed over all vectors.
    pub irqs: u64,
    /// Frames completed per queue.
    pub per_queue_frames: Vec<u64>,
}

impl MsixTxReport {
    /// Payload throughput in Gb/s.
    pub fn throughput_gbps(&self) -> f64 {
        gbps(self.bytes, self.end.saturating_sub(self.start))
    }

    /// Transmit rate in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        let secs = pcisim_kernel::tick::to_seconds(self.end.saturating_sub(self.start));
        if secs == 0.0 {
            0.0
        } else {
            self.frames as f64 / secs
        }
    }

    /// Interrupts taken per completed frame (1.0 without moderation;
    /// below 1.0 when holdoff timers coalesce).
    pub fn irqs_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.irqs as f64 / self.frames as f64
        }
    }
}

/// Shared handle to an [`MsixTxReport`].
pub type MsixTxReportHandle = Rc<RefCell<MsixTxReport>>;

impl snapshot::State for MsixTxReport {
    state_fields!(state self; done, frames, bytes, start, end, irqs, [per_queue_frames]);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Setup(usize),
    Run,
    Done,
}

state_enum!(State { Setup(step) = 0, Run = 1, Done = 2 });

const K_STEP: u32 = 0;
const K_POST: u32 = 1;

/// Per-queue driver bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct Queue {
    posted: u32,
    completed: u32,
    tail: u32,
    last_head: u32,
    /// A head-register read is in flight.
    reading: bool,
    /// A batch-gap timer is armed.
    posting: bool,
}

/// The MSI-X driver + application component.
pub struct MsixTxApp {
    name: String,
    config: MsixTxConfig,
    /// BAR0 of the NIC.
    nic_bar: u64,
    state: State,
    queues: Vec<Queue>,
    /// MMIO programming sequence, derived from the config (not saved).
    setup_writes: Vec<(u64, u32)>,
    report: MsixTxReportHandle,
    /// Register accesses on their way to the memory port, in issue order.
    cpu: TimedQueue,
}

impl MsixTxApp {
    /// Creates the workload driving the NIC at `nic_bar`; returns the
    /// component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: MsixTxConfig,
        nic_bar: u64,
    ) -> (Self, MsixTxReportHandle) {
        assert!(
            (1..=MAX_QUEUES).contains(&config.queues),
            "queues must be 1..={MAX_QUEUES}, got {}",
            config.queues
        );
        assert!(config.frames > 0 && config.batch > 0);
        assert!(config.batch <= config.ring_entries, "batch must fit the ring");
        let report: MsixTxReportHandle = Rc::new(RefCell::new(MsixTxReport {
            per_queue_frames: vec![0; config.queues as usize],
            ..MsixTxReport::default()
        }));
        let setup_writes = Self::setup_sequence(&config);
        (
            Self {
                name: name.into(),
                queues: vec![Queue::default(); config.queues as usize],
                setup_writes,
                config,
                nic_bar,
                state: State::Setup(0),
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    /// The fabricated host ring of queue `q` (distinct windows so traces
    /// distinguish the queues).
    fn ring_base(q: u32) -> u64 {
        0x8800_0000 + u64::from(q) * 0x10_0000
    }

    /// Frames queue `q` is responsible for (even split, remainder to the
    /// low queues).
    fn share(&self, q: usize) -> u32 {
        let (qs, frames) = (self.config.queues, self.config.frames);
        frames / qs + u32::from((q as u32) < frames % qs)
    }

    /// The full MMIO programming sequence: MSI-X table entries (address,
    /// data, unmask) for every TX vector — entry `v` rings the interrupt
    /// controller's doorbell for platform vector `MSI_VECTOR + v` — then
    /// the per-queue rings, then the interrupt mask.
    fn setup_sequence(config: &MsixTxConfig) -> Vec<(u64, u32)> {
        let mut writes = Vec::new();
        for q in 0..config.queues {
            let v = tx_vector(q);
            let entry = msix_entry_offset(v);
            let target = irq_message_addr(INTC_BASE, MSI_VECTOR + v as u8);
            writes.push((entry + msix::ENTRY_ADDR_LO, target as u32));
            writes.push((entry + msix::ENTRY_ADDR_HI, (target >> 32) as u32));
            writes.push((entry + msix::ENTRY_DATA, 0x4000 | u32::from(v)));
            writes.push((entry + msix::ENTRY_VECTOR_CTRL, 0));
        }
        for q in 0..config.queues {
            let base = Self::ring_base(q);
            writes.push((regs::per_queue(regs::TDBAL, q), base as u32));
            writes.push((regs::per_queue(regs::TDBAH, q), (base >> 32) as u32));
            writes.push((regs::per_queue(regs::TDLEN, q), config.ring_entries));
            writes.push((regs::per_queue(regs::TX_BUFLEN, q), config.frame_bytes));
        }
        writes.push((regs::IMS, (0..config.queues).fold(0, |m, q| m | tx_cause(q))));
        writes
    }

    fn write_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.cpu.push(mmio_write(ctx, self.nic_bar + offset, value));
        self.cpu.flush(ctx, MSIX_TX_MEM_PORT);
    }

    fn read_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64) {
        self.cpu.push(mmio_read(ctx, self.nic_bar + offset));
        self.cpu.flush(ctx, MSIX_TX_MEM_PORT);
    }

    fn step_setup(&mut self, ctx: &mut Ctx<'_>) {
        let State::Setup(n) = self.state else { return };
        if n < self.setup_writes.len() {
            self.state = State::Setup(n + 1);
            let (off, val) = self.setup_writes[n];
            self.write_reg(ctx, off, val);
        } else {
            self.report.borrow_mut().start = ctx.now();
            self.state = State::Run;
            for q in 0..self.queues.len() {
                self.post_batch(ctx, q);
            }
        }
    }

    fn post_batch(&mut self, ctx: &mut Ctx<'_>, q: usize) {
        let remaining = self.share(q) - self.queues[q].posted;
        let batch = remaining.min(self.config.batch);
        if batch == 0 {
            return;
        }
        self.queues[q].posted += batch;
        self.queues[q].tail = (self.queues[q].tail + batch) % self.config.ring_entries;
        let tail = self.queues[q].tail;
        self.write_reg(ctx, regs::per_queue(regs::TDT, q as u32), tail);
    }

    /// Services a head-register read completion for queue `q`: the head
    /// delta is the number of newly completed frames.
    fn service_head(&mut self, ctx: &mut Ctx<'_>, q: usize, head: u32) {
        let ring = self.config.ring_entries;
        let delta = (head + ring - self.queues[q].last_head) % ring;
        self.queues[q].last_head = head;
        self.queues[q].reading = false;
        if delta > 0 {
            self.queues[q].completed += delta;
            let mut r = self.report.borrow_mut();
            r.per_queue_frames[q] += u64::from(delta);
            r.frames += u64::from(delta);
            r.bytes += u64::from(delta) * u64::from(self.config.frame_bytes);
        }
        let queue = self.queues[q];
        if queue.completed == queue.posted && !queue.posting {
            if queue.posted < self.share(q) {
                self.queues[q].posting = true;
                ctx.schedule(
                    self.config.os_batch_overhead,
                    Event::Timer { kind: K_POST, data: q as u64 },
                );
            } else if self.state == State::Run
                && (0..self.queues.len()).all(|i| self.queues[i].completed == self.share(i))
            {
                let mut r = self.report.borrow_mut();
                r.end = ctx.now();
                r.done = true;
                self.state = State::Done;
            }
        }
    }
}

impl Component for MsixTxApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(10), Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_STEP, .. } => self.step_setup(ctx),
            Event::Timer { kind: K_POST, data } => {
                let q = data as usize;
                self.queues[q].posting = false;
                self.post_batch(ctx, q);
            }
            other => panic!("{}: unexpected event {other:?}", self.name),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, MSIX_TX_MEM_PORT);
        match pkt.cmd() {
            Command::WriteResp => {
                // Setup is sequenced one write per completion; TDT-write
                // completions during Run need no action (interrupts drive
                // the batches).
                if matches!(self.state, State::Setup(_)) {
                    ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
                }
            }
            Command::ReadResp => {
                let offset = pkt.addr().wrapping_sub(self.nic_bar);
                let q = (0..self.config.queues)
                    .find(|&q| offset == regs::per_queue(regs::TDH, q))
                    .unwrap_or_else(|| {
                        panic!("{}: read completion for unknown register {offset:#x}", self.name)
                    }) as usize;
                self.service_head(ctx, q, pkt.dword());
            }
            other => panic!("{}: unexpected completion {other:?}", self.name),
        }
        RecvResult::Accepted
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        // An MSI-X doorbell delivery: the interrupt controller forwards
        // vector `v` out of the port wired to `msix_tx_irq_port(v)`.
        assert_eq!(pkt.cmd(), Command::Message);
        assert!(port.0 >= 1, "{}: interrupts arrive on the vector ports", self.name);
        let v = u32::from(port.0 - 1);
        assert!(v < self.config.queues, "{}: unexpected vector {v}", self.name);
        self.report.borrow_mut().irqs += 1;
        let q = v as usize; // tx_vector(q) == q
        if !self.queues[q].reading {
            self.queues[q].reading = true;
            self.read_reg(ctx, regs::per_queue(regs::TDH, v));
        }
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.cpu.unblock();
        self.cpu.flush(ctx, MSIX_TX_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("frames", r.frames as f64);
        out.scalar("bytes", r.bytes as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
        out.scalar("throughput_gbps", r.throughput_gbps());
        out.scalar("irqs", r.irqs as f64);
    }

    state_fields!(component self;
        state,
        [queues] { posted, completed, tail, last_head, reading, posting },
        report, cpu,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::sim::RunOutcome;

    /// A vector interrupt arrives while the TDT write waits for its retry:
    /// the TDH read it starts leaves after the write, since PCIe ordering
    /// forbids a read to pass a memory write.
    #[test]
    fn head_read_waits_behind_a_refused_tail_write() {
        let config = MsixTxConfig { queues: 1, frames: 8, ..MsixTxConfig::default() };
        let bar = 0x4000_0000;
        // Offers 0..=8 program the table, ring and mask; offer 9 is TDT.
        let (mut sim, log) = crate::workload::testpeer::rig(
            MsixTxApp::new("msixtx", config, bar).0,
            (MSIX_TX_MEM_PORT, msix_tx_irq_port(tx_vector(0))),
            vec![9],
            vec![9],
        );
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let log = log.borrow();
        assert_eq!(log.len(), 11, "nine setup writes, TDT, TDH");
        assert_eq!(log[9], (Command::WriteReq, bar + regs::per_queue(regs::TDT, 0), 8));
        assert_eq!(log[10], (Command::ReadReq, bar + regs::per_queue(regs::TDH, 0), 0));
    }
}
