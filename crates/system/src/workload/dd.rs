//! The `dd` workload model (paper §VI-A).
//!
//! `dd` "simply floods the storage device with read/write accesses"; with
//! direct I/O it reads one block at a time. The block layer splits the
//! block into disk commands of bounded size; each command is issued to the
//! IDE disk over MMIO, completes with a legacy interrupt, and costs
//! operating-system overhead — the paper attributes its sim-vs-phys gap to
//! exactly these "OS overheads in gem5 for setting up the transfer", so
//! they are explicit, configurable parameters here.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_devices::ide::{regs, CMD_READ_DMA};
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, us, Tick};
use pcisim_kernel::{snapshot, state_enum, state_fields};

use crate::platform;
use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{mmio_write, Attached, Workload};

/// Port wired to the memory bus (MMIO master).
pub const DD_MEM_PORT: PortId = PortId(0);
/// Port wired to the interrupt controller.
pub const DD_IRQ_PORT: PortId = PortId(1);

/// Parameters of one `dd` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdConfig {
    /// Bytes read per block; the paper sweeps 64–512 MB.
    pub block_bytes: u64,
    /// Number of blocks to read (the paper transfers a single block).
    pub blocks: u32,
    /// Sectors per disk command (the block layer's request size bound).
    pub request_sectors: u32,
    /// Disk sector size; must match the disk model.
    pub sector_size: u32,
    /// One-off syscall/setup cost per block (page-table, direct-I/O setup).
    pub os_block_setup: Tick,
    /// Kernel overhead per disk command (request build, interrupt handling,
    /// context switch back into `dd`).
    pub os_request_overhead: Tick,
}

impl Default for DdConfig {
    fn default() -> Self {
        Self {
            block_bytes: 16 * 1024 * 1024,
            blocks: 1,
            request_sectors: 32,
            sector_size: 4096,
            os_block_setup: us(400),
            os_request_overhead: us(6),
        }
    }
}

impl Workload for DdConfig {
    type Report = DdReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::Disk]
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<DdReportHandle> {
        // Distinct DMA buffers so DRAM traffic does not alias.
        let dma_target = platform::DRAM_BASE + index as u64 * 0x1000_0000;
        Attached::new(
            DdApp::new(format!("dd{index}"), self, ep.bar0, dma_target),
            vec![(DD_MEM_PORT, ep.cpu_mem_port), (DD_IRQ_PORT, ep.cpu_irq_port)],
        )
    }
}

/// Result of a `dd` run, shared with the harness.
#[derive(Debug, Clone, Default)]
pub struct DdReport {
    /// Whether the workload ran to completion.
    pub done: bool,
    /// Total payload bytes transferred.
    pub bytes: u64,
    /// Tick the first block started.
    pub start: Tick,
    /// Tick the last block completed.
    pub end: Tick,
    /// Number of disk commands issued.
    pub commands: u64,
}

impl DdReport {
    /// The throughput `dd` would report, in Gb/s.
    pub fn throughput_gbps(&self) -> f64 {
        gbps(self.bytes, self.end.saturating_sub(self.start))
    }
}

/// Shared handle to a [`DdReport`].
pub type DdReportHandle = Rc<RefCell<DdReport>>;

impl snapshot::State for DdReport {
    state_fields!(state self; done, bytes, start, end, commands);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Setup,
    WriteSectorCount,
    WriteAddrLo,
    WriteAddrHi,
    WriteCommand,
    WaitIrq,
    AckIrq,
    RequestGap,
    Done,
}

state_enum!(State {
    Setup = 0,
    WriteSectorCount = 1,
    WriteAddrLo = 2,
    WriteAddrHi = 3,
    WriteCommand = 4,
    WaitIrq = 5,
    AckIrq = 6,
    RequestGap = 7,
    Done = 8,
});

const K_STEP: u32 = 0;

/// The `dd` application + kernel block layer, as one CPU-side component.
pub struct DdApp {
    name: String,
    config: DdConfig,
    /// BAR0 of the disk.
    disk_bar: u64,
    /// DRAM address DMA lands at.
    dma_target: u64,
    state: State,
    blocks_left: u32,
    sectors_left_in_block: u64,
    cur_request_sectors: u32,
    report: DdReportHandle,
    /// Register writes on their way to the memory port.
    cpu: TimedQueue,
}

impl DdApp {
    /// Creates the workload driving the disk at `disk_bar`, its DMA landing
    /// at `dma_target`; returns the component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: DdConfig,
        disk_bar: u64,
        dma_target: u64,
    ) -> (Self, DdReportHandle) {
        assert!(config.block_bytes > 0 && config.blocks > 0);
        assert!(config.request_sectors > 0);
        assert_eq!(
            config.block_bytes % u64::from(config.sector_size),
            0,
            "block must be whole sectors"
        );
        let report: DdReportHandle = Rc::new(RefCell::new(DdReport::default()));
        (
            Self {
                name: name.into(),
                config,
                disk_bar,
                dma_target,
                state: State::Setup,
                blocks_left: 0,
                sectors_left_in_block: 0,
                cur_request_sectors: 0,
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn write_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.cpu.push(mmio_write(ctx, self.disk_bar + offset, value));
        self.cpu.flush(ctx, DD_MEM_PORT);
    }

    /// Advances the state machine; called at block start, after each MMIO
    /// completion, on interrupt, and after OS-overhead delays.
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        match self.state {
            State::Setup => {
                self.blocks_left = self.config.blocks;
                self.report.borrow_mut().start = ctx.now();
                self.state = State::WriteSectorCount;
                self.begin_block(ctx);
            }
            State::WriteSectorCount => {
                self.cur_request_sectors =
                    self.sectors_left_in_block.min(u64::from(self.config.request_sectors)) as u32;
                self.state = State::WriteAddrLo;
                self.write_reg(ctx, regs::SECTOR_COUNT, self.cur_request_sectors);
            }
            State::WriteAddrLo => {
                self.state = State::WriteAddrHi;
                self.write_reg(ctx, regs::DMA_ADDR_LO, self.dma_target as u32);
            }
            State::WriteAddrHi => {
                self.state = State::WriteCommand;
                self.write_reg(ctx, regs::DMA_ADDR_HI, (self.dma_target >> 32) as u32);
            }
            State::WriteCommand => {
                self.state = State::WaitIrq;
                self.report.borrow_mut().commands += 1;
                self.write_reg(ctx, regs::COMMAND, CMD_READ_DMA);
            }
            State::WaitIrq => {
                // Nothing to do: the interrupt drives the next step.
            }
            State::AckIrq => {
                self.state = State::RequestGap;
                self.write_reg(ctx, regs::IRQ_ACK, 1);
            }
            State::RequestGap => {
                self.sectors_left_in_block -= u64::from(self.cur_request_sectors);
                self.report.borrow_mut().bytes +=
                    u64::from(self.cur_request_sectors) * u64::from(self.config.sector_size);
                if self.sectors_left_in_block > 0 {
                    self.state = State::WriteSectorCount;
                    ctx.schedule(
                        self.config.os_request_overhead,
                        Event::Timer { kind: K_STEP, data: 0 },
                    );
                } else {
                    self.blocks_left -= 1;
                    if self.blocks_left > 0 {
                        self.state = State::WriteSectorCount;
                        self.begin_block(ctx);
                    } else {
                        self.state = State::Done;
                        let mut r = self.report.borrow_mut();
                        r.end = ctx.now();
                        r.done = true;
                    }
                }
            }
            State::Done => {}
        }
    }

    fn begin_block(&mut self, ctx: &mut Ctx<'_>) {
        self.sectors_left_in_block = self.config.block_bytes / u64::from(self.config.sector_size);
        ctx.schedule(self.config.os_block_setup, Event::Timer { kind: K_STEP, data: 0 });
    }
}

impl Component for DdApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        // Small boot offset so time zero artefacts cannot hide costs.
        ctx.schedule(ns(10), Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_STEP, .. } = ev else {
            panic!("{}: unexpected event", self.name)
        };
        self.step(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, DD_MEM_PORT);
        assert_eq!(pkt.cmd(), Command::WriteResp, "{}: dd only writes registers", self.name);
        // MMIO completion: take the next step off a fresh event.
        ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        RecvResult::Accepted
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, DD_IRQ_PORT, "{}: only interrupts arrive as requests", self.name);
        assert_eq!(pkt.cmd(), Command::Message);
        assert_eq!(self.state, State::WaitIrq, "{}: spurious interrupt", self.name);
        self.state = State::AckIrq;
        ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        assert_eq!(port, DD_MEM_PORT);
        self.cpu.unblock();
        self.cpu.flush(ctx, DD_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("bytes", r.bytes as f64);
        out.scalar("commands", r.commands as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
        out.scalar("throughput_gbps", r.throughput_gbps());
    }

    state_fields!(component self;
        state, blocks_left, sectors_left_in_block, cur_request_sectors, report, cpu,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_devices::ide::{IdeDisk, IdeDiskConfig, IDE_DMA_PORT, IDE_PIO_PORT};
    use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
    use pcisim_kernel::addr::AddrRange;
    use pcisim_kernel::prelude::*;

    /// The disk's BAR0 and the DMA buffer of the closed loop below.
    const BAR: u64 = 0x4000_0000;
    const DMA: u64 = 0x8000_0000;

    /// Minimal closed loop: dd ↔ disk directly, interrupts via the
    /// controller, DMA into a fast responder.
    fn run_dd(config: DdConfig, disk_cfg: IdeDiskConfig) -> DdReport {
        let mut sim = Simulation::new();
        let intc_base = 0x2c00_0000;
        let mut intc = InterruptController::new("gic", AddrRange::with_size(intc_base, 0x1000));
        let cpu_irq_port = intc.route_irq(32);

        let (dd, report) = DdApp::new("dd", config, BAR, DMA);
        let (disk, cs) =
            IdeDisk::new("disk", IdeDiskConfig { intx: Some((32, intc_base)), ..disk_cfg });
        cs.borrow_mut().write(0x10, 4, BAR as u32);

        // DMA fans out by address: memory writes to one responder,
        // interrupt messages to the controller.
        let xbar = Crossbar::builder("dmabus")
            .num_ports(3)
            .queue_capacity(64)
            .route(AddrRange::with_size(0x8000_0000, 0x4000_0000), PortId(1))
            .route(AddrRange::with_size(intc_base, 0x1000), PortId(2))
            .build();

        let dd_id = sim.add(Box::new(dd));
        let disk_id = sim.add(Box::new(disk));
        let (mem, _) = pcisim_kernel::testutil::Responder::new("mem", ns(30));
        let mem_id = sim.add(Box::new(mem));
        let xbar_id = sim.add(Box::new(xbar));
        let intc_id = sim.add(Box::new(intc));

        sim.connect((dd_id, DD_MEM_PORT), (disk_id, IDE_PIO_PORT));
        sim.connect((disk_id, IDE_DMA_PORT), (xbar_id, PortId(0)));
        sim.connect((xbar_id, PortId(1)), (mem_id, PortId(0)));
        sim.connect((xbar_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
        sim.connect((intc_id, cpu_irq_port), (dd_id, DD_IRQ_PORT));

        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        r
    }

    #[test]
    fn dd_reads_a_whole_block() {
        let cfg = DdConfig {
            block_bytes: 256 * 1024,
            request_sectors: 16,
            os_block_setup: us(10),
            os_request_overhead: us(1),
            ..DdConfig::default()
        };
        let report = run_dd(cfg, IdeDiskConfig::default());
        assert!(report.done);
        assert_eq!(report.bytes, 256 * 1024);
        // 256 KB / (16 sectors * 4 KB) = 4 commands.
        assert_eq!(report.commands, 4);
        assert!(report.end > report.start);
        assert!(report.throughput_gbps() > 0.0);
    }

    #[test]
    fn short_tail_request_is_issued() {
        // 5 sectors with 4-sector requests: commands of 4 + 1.
        let cfg = DdConfig {
            block_bytes: 5 * 4096,
            request_sectors: 4,
            os_block_setup: 0,
            os_request_overhead: 0,
            ..DdConfig::default()
        };
        let report = run_dd(cfg, IdeDiskConfig::default());
        assert_eq!(report.commands, 2);
        assert_eq!(report.bytes, 5 * 4096);
    }

    #[test]
    fn more_os_overhead_lowers_throughput() {
        let fast = run_dd(
            DdConfig {
                block_bytes: 128 * 1024,
                os_block_setup: 0,
                os_request_overhead: 0,
                ..DdConfig::default()
            },
            IdeDiskConfig::default(),
        );
        let slow = run_dd(
            DdConfig {
                block_bytes: 128 * 1024,
                os_block_setup: us(500),
                os_request_overhead: us(50),
                ..DdConfig::default()
            },
            IdeDiskConfig::default(),
        );
        assert!(slow.throughput_gbps() < fast.throughput_gbps());
    }

    #[test]
    fn multiple_blocks_accumulate_bytes() {
        let cfg = DdConfig {
            block_bytes: 64 * 1024,
            blocks: 3,
            os_block_setup: us(1),
            os_request_overhead: 0,
            ..DdConfig::default()
        };
        let report = run_dd(cfg, IdeDiskConfig::default());
        assert_eq!(report.bytes, 3 * 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "block must be whole sectors")]
    fn ragged_block_size_panics() {
        let _ = DdApp::new("dd", DdConfig { block_bytes: 1000, ..DdConfig::default() }, BAR, DMA);
    }
}
