//! A NIC receive workload: inbound line-rate traffic against the fabric.
//!
//! The medium delivers frames at a fixed rate; the NIC DMA-*writes* each
//! frame through the PCI-Express fabric into memory and interrupts. The
//! driver model here keeps the descriptor ring stocked, so any loss is the
//! fabric's fault: if the link cannot drain frames at line rate the NIC's
//! internal FIFO overflows — exactly the "can your PCIe slot sustain your
//! NIC" question from the paper's introduction.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_devices::nic::{regs, INT_RXT0};
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, Tick};
use pcisim_kernel::{state_enum, state_fields};

use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{mmio_write, Attached, Workload};

/// Port wired to the memory bus (MMIO master).
pub const NIC_RX_MEM_PORT: PortId = PortId(0);
/// Port wired to the interrupt controller.
pub const NIC_RX_IRQ_PORT: PortId = PortId(1);

/// Parameters of one receive run. The traffic itself (frame size, rate,
/// count) is configured on the NIC via
/// [`NicConfig::rx_stream`](pcisim_devices::nic::NicConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NicRxConfig {
    /// Total frames the stream will deliver (must match the NIC's
    /// `rx_stream` count so the workload knows when to stop).
    pub expect_frames: u32,
    /// Frame payload size, for throughput accounting.
    pub frame_bytes: u32,
    /// RX descriptor ring size.
    pub ring_entries: u32,
}

impl Default for NicRxConfig {
    fn default() -> Self {
        Self { expect_frames: 256, frame_bytes: 1514, ring_entries: 256 }
    }
}

impl Workload for NicRxConfig {
    type Report = NicRxReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::Nic]
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<NicRxReportHandle> {
        Attached::new(
            NicRxApp::new(format!("nicrx{index}"), self, ep.bar0),
            vec![(NIC_RX_MEM_PORT, ep.cpu_mem_port), (NIC_RX_IRQ_PORT, ep.cpu_irq_port)],
        )
    }
}

/// Result of a receive run.
#[derive(Debug, Clone, Default)]
pub struct NicRxReport {
    /// Whether the stream finished (received + dropped = expected).
    pub done: bool,
    /// Frames delivered to memory.
    pub frames: u64,
    /// Frame payload bytes delivered.
    pub bytes: u64,
    /// First-delivery tick.
    pub start: Tick,
    /// Last-delivery tick.
    pub end: Tick,
}

impl NicRxReport {
    /// Delivered payload throughput in Gb/s.
    pub fn throughput_gbps(&self) -> f64 {
        gbps(self.bytes, self.end.saturating_sub(self.start))
    }
}

/// Shared handle to a [`NicRxReport`].
pub type NicRxReportHandle = Rc<RefCell<NicRxReport>>;

impl snapshot::State for NicRxReport {
    state_fields!(state self; done, frames, bytes, start, end);
}

const K_STEP: u32 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Setup(usize),
    Receiving,
    Done,
}

state_enum!(State { Setup(step) = 0, Receiving = 1, Done = 2 });

/// The receive-side driver + application component.
pub struct NicRxApp {
    name: String,
    config: NicRxConfig,
    /// BAR0 of the NIC.
    nic_bar: u64,
    state: State,
    tail: u32,
    frames_seen: u32,
    report: NicRxReportHandle,
    /// Register writes on their way to the memory port.
    cpu: TimedQueue,
}

impl NicRxApp {
    /// Creates the workload driving the NIC at `nic_bar`; returns the
    /// component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: NicRxConfig,
        nic_bar: u64,
    ) -> (Self, NicRxReportHandle) {
        assert!(config.expect_frames > 0 && config.ring_entries > 1);
        let report: NicRxReportHandle = Rc::new(RefCell::new(NicRxReport::default()));
        (
            Self {
                name: name.into(),
                config,
                nic_bar,
                state: State::Setup(0),
                tail: 0,
                frames_seen: 0,
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn write_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.cpu.push(mmio_write(ctx, self.nic_bar + offset, value));
        self.cpu.flush(ctx, NIC_RX_MEM_PORT);
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            State::Setup(n) => {
                // Program the ring and post every buffer but one (tail may
                // not catch head in the ring arithmetic).
                let writes: [(u64, u32); 4] = [
                    (regs::RDBAL, 0x8900_0000),
                    (regs::RDLEN, self.config.ring_entries),
                    (regs::IMS, INT_RXT0),
                    (regs::RDT, self.config.ring_entries - 1),
                ];
                if n < writes.len() {
                    self.state = State::Setup(n + 1);
                    if n == writes.len() - 1 {
                        self.tail = self.config.ring_entries - 1;
                        self.report.borrow_mut().start = ctx.now();
                        self.state = State::Receiving;
                    }
                    let (off, val) = writes[n];
                    self.write_reg(ctx, off, val);
                }
            }
            State::Receiving | State::Done => {}
        }
    }

    fn frame_received(&mut self, ctx: &mut Ctx<'_>) {
        self.frames_seen += 1;
        {
            let mut r = self.report.borrow_mut();
            r.frames = u64::from(self.frames_seen);
            r.bytes = u64::from(self.frames_seen) * u64::from(self.config.frame_bytes);
            r.end = ctx.now();
        }
        // Refill: hand the consumed buffer back to hardware.
        self.tail = (self.tail + 1) % self.config.ring_entries;
        let tail = self.tail;
        self.write_reg(ctx, regs::RDT, tail);
        if self.frames_seen >= self.config.expect_frames {
            self.report.borrow_mut().done = true;
            self.state = State::Done;
        }
    }
}

impl Component for NicRxApp {
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
        assert_eq!(port, NIC_RX_MEM_PORT);
        assert_eq!(pkt.cmd(), Command::WriteResp);
        if matches!(self.state, State::Setup(_)) {
            ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        }
        RecvResult::Accepted
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, NIC_RX_IRQ_PORT, "{}: only interrupts arrive as requests", self.name);
        assert_eq!(pkt.cmd(), Command::Message);
        self.frame_received(ctx);
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.cpu.unblock();
        self.cpu.flush(ctx, NIC_RX_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("frames", r.frames as f64);
        out.scalar("bytes", r.bytes as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
    }

    state_fields!(component self; state, tail, frames_seen, report, cpu);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
    use pcisim_devices::nic::{Nic, NicConfig, NIC_DMA_PORT, NIC_PIO_PORT};
    use pcisim_kernel::addr::AddrRange;
    use pcisim_kernel::prelude::*;
    use pcisim_kernel::tick::us;

    /// The NIC's BAR0 in the closed loops below.
    const BAR: u64 = 0x4000_0000;

    fn run(frames: u32, interval: Tick, mem_latency: Tick) -> (NicRxReport, StatsSnapshot) {
        let mut sim = Simulation::new();
        let intc_base = 0x2c00_0000;
        let mut intc = InterruptController::new("gic", AddrRange::with_size(intc_base, 0x1000));
        let cpu_irq = intc.route_irq(34);
        let (app, report) = NicRxApp::new(
            "nicrx",
            NicRxConfig { expect_frames: frames, frame_bytes: 1514, ..NicRxConfig::default() },
            BAR,
        );
        let (nic, cs) = Nic::new(
            "nic",
            NicConfig {
                rx_stream: Some((1514, interval, frames)),
                intx: Some((34, intc_base)),
                ..NicConfig::default()
            },
        );
        cs.borrow_mut().write(0x10, 4, BAR as u32);
        let xbar = Crossbar::builder("dmabus")
            .num_ports(3)
            .queue_capacity(64)
            .route(AddrRange::with_size(0x8000_0000, 0x4000_0000), PortId(1))
            .route(AddrRange::with_size(intc_base, 0x1000), PortId(2))
            .build();
        let app_id = sim.add(Box::new(app));
        let nic_id = sim.add(Box::new(nic));
        let (mem, _) = pcisim_kernel::testutil::Responder::new("mem", mem_latency);
        let mem_id = sim.add(Box::new(mem));
        let xbar_id = sim.add(Box::new(xbar));
        let intc_id = sim.add(Box::new(intc));
        sim.connect((app_id, NIC_RX_MEM_PORT), (nic_id, NIC_PIO_PORT));
        sim.connect((nic_id, NIC_DMA_PORT), (xbar_id, PortId(0)));
        sim.connect((xbar_id, PortId(1)), (mem_id, PortId(0)));
        sim.connect((xbar_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
        sim.connect((intc_id, cpu_irq), (app_id, NIC_RX_IRQ_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        (r, sim.stats())
    }

    #[test]
    fn receives_every_frame_at_a_gentle_rate() {
        let (r, stats) = run(16, us(5), ns(30));
        assert!(r.done);
        assert_eq!(r.frames, 16);
        assert_eq!(stats.get("nic.rx_overruns"), Some(0.0));
        assert!(r.throughput_gbps() > 0.0);
    }

    /// Two interrupts arrive while the memory port refuses twice: both
    /// RDT writes reach the NIC, in order, after the setup's.
    #[test]
    fn refused_rdt_writes_all_arrive_in_order() {
        let rdt = BAR + regs::RDT;
        // Offer 3 is the setup's RDT write; offers 4 and 5 are refused.
        let (mut sim, log) = crate::workload::testpeer::rig(
            NicRxApp::new("nicrx", NicRxConfig::default(), BAR).0,
            (NIC_RX_MEM_PORT, NIC_RX_IRQ_PORT),
            vec![4, 5],
            vec![3, 4],
        );
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let tails: Vec<u32> =
            log.borrow().iter().filter(|&&(_, addr, _)| addr == rdt).map(|e| e.2).collect();
        assert_eq!(tails, [255, 0, 1]);
    }

    #[test]
    fn line_rate_beyond_the_fabric_drops_frames() {
        // Frames every 200 ns (60 Gb/s-ish) against 2 µs memory: the FIFO
        // overflows and the excess is dropped, never delivered late.
        let (r, stats) = run(128, ns(200), us(2));
        let drops = stats.get("nic.rx_overruns").unwrap();
        assert!(drops > 0.0, "overload must drop frames");
        assert_eq!(r.frames + drops as u64, 128);
    }
}
