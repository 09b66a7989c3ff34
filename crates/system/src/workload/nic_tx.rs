//! A NIC transmit workload: the class of I/O the paper's introduction
//! motivates (100 Gb/s NICs bottlenecked by PCI-Express).
//!
//! The driver posts batches of TX descriptors by writing the tail
//! register; the NIC fetches each descriptor and its frame buffer over
//! DMA **reads** through the PCI-Express fabric — the opposite data
//! direction from the `dd` workload's DMA writes — transmits, writes the
//! status back, and raises an interrupt per frame.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_devices::nic::{regs, INT_TXDW};
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, us, Tick};
use pcisim_kernel::{state_enum, state_fields};

use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{mmio_write, Attached, Workload};

/// Port wired to the memory bus (MMIO master).
pub const NIC_TX_MEM_PORT: PortId = PortId(0);
/// Port wired to the interrupt controller.
pub const NIC_TX_IRQ_PORT: PortId = PortId(1);

/// Parameters of one transmit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicTxConfig {
    /// Total frames to transmit.
    pub frames: u32,
    /// Frame payload size in bytes (1514 = full-size Ethernet).
    pub frame_bytes: u32,
    /// Frames posted per tail-register write.
    pub batch: u32,
    /// TX descriptor ring size.
    pub ring_entries: u32,
    /// Kernel overhead per posted batch (xmit path, doorbell, IRQ return).
    pub os_batch_overhead: Tick,
}

impl Default for NicTxConfig {
    fn default() -> Self {
        Self {
            frames: 256,
            frame_bytes: 1514,
            batch: 8,
            ring_entries: 256,
            os_batch_overhead: us(2),
        }
    }
}

impl Workload for NicTxConfig {
    type Report = NicTxReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::Nic]
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<NicTxReportHandle> {
        Attached::new(
            NicTxApp::new(format!("nictx{index}"), self, ep.bar0),
            vec![(NIC_TX_MEM_PORT, ep.cpu_mem_port), (NIC_TX_IRQ_PORT, ep.cpu_irq_port)],
        )
    }
}

/// Result of a transmit run, shared with the harness.
#[derive(Debug, Clone, Default)]
pub struct NicTxReport {
    /// Whether all frames completed.
    pub done: bool,
    /// Frames transmitted.
    pub frames: u64,
    /// Frame payload bytes moved over DMA.
    pub bytes: u64,
    /// First doorbell tick.
    pub start: Tick,
    /// Last completion tick.
    pub end: Tick,
}

impl NicTxReport {
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
}

/// Shared handle to a [`NicTxReport`].
pub type NicTxReportHandle = Rc<RefCell<NicTxReport>>;

impl snapshot::State for NicTxReport {
    state_fields!(state self; done, frames, bytes, start, end);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Setup(usize),
    PostBatch,
    WaitIrqs,
    BatchGap,
    Done,
}

state_enum!(State { Setup(step) = 0, PostBatch = 1, WaitIrqs = 2, BatchGap = 3, Done = 4 });

const K_STEP: u32 = 0;

/// The driver + application component.
pub struct NicTxApp {
    name: String,
    config: NicTxConfig,
    /// BAR0 of the NIC.
    nic_bar: u64,
    state: State,
    tail: u32,
    frames_posted: u32,
    irqs_outstanding: u32,
    report: NicTxReportHandle,
    /// Register writes on their way to the memory port.
    cpu: TimedQueue,
}

impl NicTxApp {
    /// Creates the workload driving the NIC at `nic_bar`; returns the
    /// component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: NicTxConfig,
        nic_bar: u64,
    ) -> (Self, NicTxReportHandle) {
        assert!(config.frames > 0 && config.batch > 0);
        assert!(config.batch <= config.ring_entries, "batch must fit the ring");
        let report: NicTxReportHandle = Rc::new(RefCell::new(NicTxReport::default()));
        (
            Self {
                name: name.into(),
                config,
                nic_bar,
                state: State::Setup(0),
                tail: 0,
                frames_posted: 0,
                irqs_outstanding: 0,
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn write_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.cpu.push(mmio_write(ctx, self.nic_bar + offset, value));
        self.cpu.flush(ctx, NIC_TX_MEM_PORT);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            State::Setup(n) => {
                // Program the ring, then unmask the TX interrupt; one MMIO
                // write per step, sequenced on completions.
                let writes: [(u64, u32); 5] = [
                    (regs::TDBAL, 0x8800_0000),
                    (regs::TDLEN, self.config.ring_entries),
                    (regs::TX_BUFLEN, self.config.frame_bytes),
                    (regs::IMS, INT_TXDW),
                    (regs::TDT, 0),
                ];
                if n < writes.len() {
                    self.state = State::Setup(n + 1);
                    let (off, val) = writes[n];
                    self.write_reg(ctx, off, val);
                } else {
                    self.report.borrow_mut().start = ctx.now();
                    self.state = State::PostBatch;
                    self.step(ctx);
                }
            }
            State::PostBatch => {
                let remaining = self.config.frames - self.frames_posted;
                let batch = remaining.min(self.config.batch);
                self.frames_posted += batch;
                self.irqs_outstanding = batch;
                self.tail = (self.tail + batch) % self.config.ring_entries;
                self.state = State::WaitIrqs;
                self.write_reg(ctx, regs::TDT, self.tail);
            }
            State::WaitIrqs => {
                // Interrupts drive progress.
            }
            State::BatchGap => {
                let mut r = self.report.borrow_mut();
                r.frames = u64::from(self.frames_posted);
                r.bytes = u64::from(self.frames_posted) * u64::from(self.config.frame_bytes);
                if self.frames_posted < self.config.frames {
                    drop(r);
                    self.state = State::PostBatch;
                    ctx.schedule(
                        self.config.os_batch_overhead,
                        Event::Timer { kind: K_STEP, data: 0 },
                    );
                } else {
                    r.end = ctx.now();
                    r.done = true;
                    self.state = State::Done;
                }
            }
            State::Done => {}
        }
    }
}

impl Component for NicTxApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(10), Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_STEP, .. } = ev else {
            panic!("{}: unexpected event", self.name)
        };
        self.step(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, NIC_TX_MEM_PORT);
        assert_eq!(pkt.cmd(), Command::WriteResp);
        if matches!(self.state, State::Setup(_)) {
            ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        }
        // TDT-write completions during WaitIrqs need no action: the
        // interrupts sequence the batch.
        RecvResult::Accepted
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, NIC_TX_IRQ_PORT, "{}: only interrupts arrive as requests", self.name);
        assert_eq!(pkt.cmd(), Command::Message);
        assert!(self.irqs_outstanding > 0, "{}: spurious TX interrupt", self.name);
        self.irqs_outstanding -= 1;
        if self.irqs_outstanding == 0 {
            self.state = State::BatchGap;
            ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        }
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.cpu.unblock();
        self.cpu.flush(ctx, NIC_TX_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("frames", r.frames as f64);
        out.scalar("bytes", r.bytes as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
        out.scalar("throughput_gbps", r.throughput_gbps());
    }

    state_fields!(component self;
        state, tail, frames_posted, irqs_outstanding, report, cpu,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
    use pcisim_devices::nic::{Nic, NicConfig, NIC_DMA_PORT, NIC_PIO_PORT};
    use pcisim_kernel::addr::AddrRange;
    use pcisim_kernel::prelude::*;

    /// The NIC's BAR0 in the closed loop below.
    const BAR: u64 = 0x4000_0000;

    fn run(config: NicTxConfig) -> NicTxReport {
        let mut sim = Simulation::new();
        let intc_base = 0x2c00_0000;
        let mut intc = InterruptController::new("gic", AddrRange::with_size(intc_base, 0x1000));
        let cpu_irq = intc.route_irq(33);
        let (app, report) = NicTxApp::new("nictx", config, BAR);
        let (nic, cs) =
            Nic::new("nic", NicConfig { intx: Some((33, intc_base)), ..NicConfig::default() });
        cs.borrow_mut().write(0x10, 4, BAR as u32);

        let xbar = Crossbar::builder("dmabus")
            .num_ports(3)
            .queue_capacity(64)
            .route(AddrRange::with_size(0x8000_0000, 0x4000_0000), PortId(1))
            .route(AddrRange::with_size(intc_base, 0x1000), PortId(2))
            .build();

        let app_id = sim.add(Box::new(app));
        let nic_id = sim.add(Box::new(nic));
        let (mem, _) = pcisim_kernel::testutil::Responder::new("mem", ns(30));
        let mem_id = sim.add(Box::new(mem));
        let xbar_id = sim.add(Box::new(xbar));
        let intc_id = sim.add(Box::new(intc));

        sim.connect((app_id, NIC_TX_MEM_PORT), (nic_id, NIC_PIO_PORT));
        sim.connect((nic_id, NIC_DMA_PORT), (xbar_id, PortId(0)));
        sim.connect((xbar_id, PortId(1)), (mem_id, PortId(0)));
        sim.connect((xbar_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
        sim.connect((intc_id, cpu_irq), (app_id, NIC_TX_IRQ_PORT));

        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        r
    }

    #[test]
    fn transmits_every_frame() {
        let r = run(NicTxConfig { frames: 32, batch: 8, ..NicTxConfig::default() });
        assert!(r.done);
        assert_eq!(r.frames, 32);
        assert_eq!(r.bytes, 32 * 1514);
        assert!(r.throughput_gbps() > 0.0);
        assert!(r.frames_per_sec() > 0.0);
    }

    #[test]
    fn short_final_batch_is_posted() {
        let r = run(NicTxConfig { frames: 10, batch: 4, ..NicTxConfig::default() });
        assert!(r.done);
        assert_eq!(r.frames, 10);
    }

    #[test]
    fn bigger_frames_move_more_bytes_per_interrupt() {
        let small = run(NicTxConfig { frames: 16, frame_bytes: 256, ..NicTxConfig::default() });
        let large = run(NicTxConfig { frames: 16, frame_bytes: 1514, ..NicTxConfig::default() });
        assert!(large.bytes > small.bytes);
        assert!(
            large.throughput_gbps() > small.throughput_gbps(),
            "per-frame overheads favour large frames: {} vs {}",
            large.throughput_gbps(),
            small.throughput_gbps()
        );
    }

    #[test]
    #[should_panic(expected = "batch must fit the ring")]
    fn oversized_batch_panics() {
        let _ = NicTxApp::new(
            "t",
            NicTxConfig { batch: 512, ring_entries: 256, ..NicTxConfig::default() },
            BAR,
        );
    }
}
