//! The IDE disk model (paper §VI-A).
//!
//! gem5's IDE disk "does not impose any bandwidth bottleneck for the data
//! transfer (its access latency is a constant 1 µs value)", which makes the
//! PCI-Express interconnect the bottleneck when `dd` floods it with reads.
//! This model reproduces that behaviour: a command transfers N sectors
//! (4 KB each); after one constant access latency the disk DMA-writes each
//! sector upstream in cache-line TLPs, and — because the model, like the
//! paper's, does **not** support posted writes — every write response of a
//! sector must return before the next sector starts. A `posted_writes`
//! switch implements the paper's discussion of that limitation as an
//! ablation.
//!
//! Ports: [`IDE_PIO_PORT`] (doorbell/status registers behind BAR0) and
//! [`IDE_DMA_PORT`] (DMA master).

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::{Counter, StatsBuilder};
use pcisim_kernel::tick::{ns, us, Tick};
use pcisim_pci::caps::{write_aer_capability, CapChain, Capability, Generation, PortType};
use pcisim_pci::config::{shared, ConfigSpace, SharedConfigSpace};
use pcisim_pci::header::{bar_base, Bar, Type0Header};

use crate::dma::DmaEngine;
use crate::mmio::{self, set_hi32, set_lo32};
use crate::msix::legacy_message;

/// MMIO register port (slave).
pub const IDE_PIO_PORT: PortId = PortId(0);
/// DMA master port.
pub const IDE_DMA_PORT: PortId = PortId(1);

/// BAR0-relative register offsets.
pub mod regs {
    /// Number of sectors the next command transfers (u32, RW).
    pub const SECTOR_COUNT: u64 = 0x00;
    /// DMA target address, low half (u32, RW).
    pub const DMA_ADDR_LO: u64 = 0x04;
    /// DMA target address, high half (u32, RW).
    pub const DMA_ADDR_HI: u64 = 0x08;
    /// Command doorbell (u32, W): writing [`super::CMD_READ_DMA`] starts a
    /// disk→memory transfer.
    pub const COMMAND: u64 = 0x0c;
    /// Status (u32, R): bit 0 busy, bit 1 interrupt pending.
    pub const STATUS: u64 = 0x10;
    /// Interrupt acknowledge (u32, W): clears the pending bit.
    pub const IRQ_ACK: u64 = 0x14;
}

/// Doorbell value starting a read-DMA transfer.
pub const CMD_READ_DMA: u32 = 1;
/// Status bit: a command is in flight.
pub const STATUS_BUSY: u32 = 1 << 0;
/// Status bit: completion interrupt pending.
pub const STATUS_IRQ: u32 = 1 << 1;

/// Tunables of the disk model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdeDiskConfig {
    /// Sector size in bytes; the paper's measurements use 4 KB sectors.
    pub sector_size: u32,
    /// DMA TLP payload; the paper uses the cache line size (64 B).
    pub cacheline: u32,
    /// Constant media access latency charged once per command (gem5: 1 µs).
    pub access_latency: Tick,
    /// Protocol gap inserted between sectors (PRD fetch, IDE handshake).
    pub per_sector_overhead: Tick,
    /// When true, DMA writes are posted and the sector barrier disappears
    /// (the paper's future-work extension).
    pub posted_writes: bool,
    /// MMIO register access latency.
    pub pio_latency: Tick,
    /// Interrupt message target: `(irq, interrupt-controller base)`.
    pub intx: Option<(u8, u64)>,
    /// Expose a functional (software-enableable) MSI capability instead of
    /// the paper's disabled one.
    pub msi_capable: bool,
}

impl Default for IdeDiskConfig {
    fn default() -> Self {
        Self {
            sector_size: 4096,
            cacheline: 64,
            access_latency: us(1),
            per_sector_overhead: ns(2500),
            posted_writes: false,
            pio_latency: ns(50),
            intx: None,
            msi_capable: false,
        }
    }
}

/// Builds the disk's configuration space: an IDE-class endpoint with one
/// 4 KB memory BAR, a legacy interrupt pin, and the full PCI-Express
/// capability chain (MSI disabled, as the paper configures it).
pub fn ide_config_space() -> ConfigSpace {
    ide_config_space_with(false)
}

/// Like [`ide_config_space`], optionally exposing a functional MSI
/// capability (the paper's future-work extension).
pub fn ide_config_space_with(msi_capable: bool) -> ConfigSpace {
    let mut cs = Type0Header::new(0x8086, 0x2922)
        .class_code(0x01, 0x01, 0x80)
        .bar(0, Bar::Memory32 { size: 0x1000, prefetchable: false })
        .interrupt_pin(1)
        .capabilities_at(0xc8)
        .build();
    let msi = if msi_capable { Capability::MsiCapable } else { Capability::MsiDisabled };
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
        .write_into(&mut cs);
    write_aer_capability(&mut cs, 0x100, 0);
    cs
}

const K_ACCESS_DONE: u32 = 0;
const K_SECTOR_GAP: u32 = 1;
const K_PUMP: u32 = 2;
const TAG_PIO_RESP: u32 = 0;
const BAR0_SIZE: u64 = 0x1000;

#[derive(Debug, Default)]
struct DiskStats {
    commands: Counter,
    sectors: Counter,
    irqs: Counter,
}

/// The IDE disk component.
pub struct IdeDisk {
    name: String,
    config: IdeDiskConfig,
    config_space: SharedConfigSpace,
    // Registers.
    sector_count: u32,
    dma_addr: u64,
    busy: bool,
    irq_pending: bool,
    // Transfer state: the sector chunker feeding the DMA engine.
    sectors_remaining: u32,
    cur_addr: u64,
    tlps_to_send: u32,
    /// A sector is mid-transfer; guards against spurious completion checks
    /// from stacked pump events.
    sector_active: bool,
    dma: DmaEngine<()>,
    /// BAR0 completions on their way out of the PIO port.
    pio: TimedQueue,
    stats: DiskStats,
}

impl IdeDisk {
    /// Creates a disk; returns the component and the shared configuration
    /// space to register with the PCI host.
    pub fn new(name: impl Into<String>, config: IdeDiskConfig) -> (Self, SharedConfigSpace) {
        assert!(
            config.sector_size.is_multiple_of(config.cacheline),
            "sector must be whole cachelines"
        );
        assert!(config.cacheline > 0 && config.sector_size > 0);
        let cs = shared(ide_config_space_with(config.msi_capable));
        (
            Self {
                name: name.into(),
                config_space: cs.clone(),
                sector_count: 0,
                dma_addr: 0,
                busy: false,
                irq_pending: false,
                sectors_remaining: 0,
                cur_addr: 0,
                tlps_to_send: 0,
                sector_active: false,
                dma: DmaEngine::new(IDE_DMA_PORT, K_PUMP, cs.clone()),
                pio: TimedQueue::unbounded(),
                stats: DiskStats::default(),
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

    fn reg_read(&mut self, offset: u64) -> u32 {
        match offset {
            regs::SECTOR_COUNT => self.sector_count,
            regs::DMA_ADDR_LO => self.dma_addr as u32,
            regs::DMA_ADDR_HI => (self.dma_addr >> 32) as u32,
            regs::STATUS => {
                u32::from(self.busy) * STATUS_BUSY + u32::from(self.irq_pending) * STATUS_IRQ
            }
            _ => 0,
        }
    }

    fn reg_write(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        match offset {
            regs::SECTOR_COUNT => self.sector_count = value,
            regs::DMA_ADDR_LO => set_lo32(&mut self.dma_addr, value),
            regs::DMA_ADDR_HI => set_hi32(&mut self.dma_addr, value),
            regs::COMMAND if value == CMD_READ_DMA => self.start_command(ctx),
            regs::IRQ_ACK => self.irq_pending = false,
            _ => {}
        }
    }

    fn start_command(&mut self, ctx: &mut Ctx<'_>) {
        assert!(!self.busy, "{}: command while busy", self.name);
        assert!(self.sector_count > 0, "{}: zero-sector command", self.name);
        self.busy = true;
        self.stats.commands.inc();
        self.sectors_remaining = self.sector_count;
        self.cur_addr = self.dma_addr;
        ctx.schedule(self.config.access_latency, Event::Timer { kind: K_ACCESS_DONE, data: 0 });
    }

    fn start_sector(&mut self, ctx: &mut Ctx<'_>) {
        self.tlps_to_send = self.config.sector_size / self.config.cacheline;
        self.sector_active = true;
        self.pump_dma(ctx);
    }

    /// Feeds the sector's DMA write TLPs to the engine as fast as the
    /// fabric accepts them; the sector barrier is the engine draining.
    fn pump_dma(&mut self, ctx: &mut Ctx<'_>) {
        while self.dma.ready() && self.tlps_to_send > 0 {
            let id = ctx.alloc_packet_id();
            let size = self.config.cacheline;
            let mut pkt =
                Packet::request(id, Command::WriteReq, self.cur_addr, size, ctx.self_id())
                    .with_payload(vec![0; size as usize]);
            pkt.set_posted(self.config.posted_writes);
            self.tlps_to_send -= 1;
            self.cur_addr += u64::from(size);
            self.dma.send(ctx, pkt, None);
        }
        if self.sector_active && self.tlps_to_send == 0 && self.dma.drained() {
            self.sector_active = false;
            self.sector_complete(ctx);
        }
    }

    fn sector_complete(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.sectors.inc();
        self.sectors_remaining -= 1;
        if self.sectors_remaining > 0 {
            ctx.schedule(
                self.config.per_sector_overhead,
                Event::Timer { kind: K_SECTOR_GAP, data: 0 },
            );
        } else {
            self.busy = false;
            self.irq_pending = true;
            self.stats.irqs.inc();
            let msg = legacy_message(ctx, &self.config_space.borrow(), self.config.intx);
            if let Some(msg) = msg {
                self.dma.send(ctx, msg, None);
            }
        }
    }
}

impl Component for IdeDisk {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, IDE_PIO_PORT, "MMIO arrives on the PIO port");
        let bar0 = self.bar0();
        let resp = mmio::serve(self, ctx, bar0, BAR0_SIZE, pkt, Self::reg_read, Self::reg_write);
        self.pio.delay(ctx, self.config.pio_latency, TAG_PIO_RESP, resp);
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, IDE_DMA_PORT);
        self.dma.on_response(ctx, pkt);
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_ACCESS_DONE, .. } => self.start_sector(ctx),
            Event::Timer { kind: K_SECTOR_GAP, .. } => self.start_sector(ctx),
            Event::Timer { kind: K_PUMP, .. } => {
                if self.busy {
                    self.pump_dma(ctx);
                }
            }
            Event::Timer { kind, .. } => panic!("{}: unknown timer {kind}", self.name),
            Event::DelayedPacket { tag: TAG_PIO_RESP, pkt } => {
                self.pio.arrive(pkt);
                self.pio.flush(ctx, IDE_PIO_PORT);
            }
            Event::DelayedPacket { tag, .. } => panic!("{}: unknown tag {tag}", self.name),
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        match port {
            IDE_DMA_PORT => {
                if self.dma.retry(ctx) && self.busy {
                    self.pump_dma(ctx);
                }
            }
            IDE_PIO_PORT => {
                self.pio.unblock();
                self.pio.flush(ctx, port);
            }
            other => panic!("{}: retry on unknown port {other}", self.name),
        }
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("commands", &self.stats.commands);
        out.counter("sectors", &self.stats.sectors);
        out.counter("dma_bytes", &self.dma.bytes);
        out.counter("dma_tlps", &self.dma.write_tlps);
        out.counter("dma_stalls", &self.dma.stalls);
        out.counter("irqs", &self.stats.irqs);
    }

    // Config (latencies, sector geometry, intx target) and the config
    // space (owned by the PCI host registry) are not serialized.
    pcisim_kernel::state_fields!(component self;
        sector_count, dma_addr, busy, irq_pending, sectors_remaining, cur_addr, tlps_to_send,
        sector_active, dma, pio, stats.commands, stats.sectors, stats.irqs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::{Responder, RESPONDER_PORT};

    use crate::testkit::Guest;

    const BAR0: u64 = 0x4000_0000;

    fn programmed_disk(config: IdeDiskConfig) -> (IdeDisk, SharedConfigSpace) {
        let (disk, cs) = IdeDisk::new("disk", config);
        // Program BAR0 as enumeration would.
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        (disk, cs)
    }

    /// Drives a full command through MMIO and checks the DMA stream.
    fn run_transfer(config: IdeDiskConfig, sectors: u32) -> (Simulation, u64) {
        let mut sim = Simulation::new();
        let (disk, _cs) = programmed_disk(config);
        let drv = sim.add(Box::new(Guest::new(
            BAR0,
            vec![
                (regs::SECTOR_COUNT, sectors),
                (regs::DMA_ADDR_LO, 0x8000_0000),
                (regs::COMMAND, CMD_READ_DMA),
            ],
        )));
        let d = sim.add(Box::new(disk));
        let (mem, _) = Responder::new("mem", ns(30));
        let m = sim.add(Box::new(mem));
        sim.connect((drv, PortId(0)), (d, IDE_PIO_PORT));
        sim.connect((d, IDE_DMA_PORT), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let tlps = sim.stats().get("disk.dma_tlps").unwrap() as u64;
        (sim, tlps)
    }

    #[test]
    fn one_sector_emits_one_cacheline_per_tlp() {
        let (sim, tlps) = run_transfer(IdeDiskConfig::default(), 1);
        assert_eq!(tlps, 64, "4 KB sector = 64 cache-line TLPs");
        let stats = sim.stats();
        assert_eq!(stats.get("disk.sectors"), Some(1.0));
        assert_eq!(stats.get("disk.dma_bytes"), Some(4096.0));
        assert_eq!(stats.get("disk.commands"), Some(1.0));
        assert_eq!(stats.get("disk.irqs"), Some(1.0));
    }

    #[test]
    fn multi_sector_transfers_all_sectors() {
        let (sim, tlps) = run_transfer(IdeDiskConfig::default(), 8);
        assert_eq!(tlps, 8 * 64);
        assert_eq!(sim.stats().get("disk.sectors"), Some(8.0));
    }

    #[test]
    fn access_latency_delays_first_dma() {
        let cfg = IdeDiskConfig { access_latency: us(3), ..IdeDiskConfig::default() };
        let (sim, _) = run_transfer(cfg, 1);
        // Command at ~0, access 3 µs, DMA + responses afterwards.
        assert!(sim.now() >= us(3));
    }

    #[test]
    fn per_sector_overhead_spaces_sectors() {
        let no_gap = IdeDiskConfig { per_sector_overhead: 0, ..IdeDiskConfig::default() };
        let base = run_transfer(no_gap.clone(), 4).0.now();
        let padded =
            run_transfer(IdeDiskConfig { per_sector_overhead: us(2), ..no_gap }, 4).0.now();
        assert!(padded >= base + 3 * us(2), "3 inter-sector gaps expected");
    }

    #[test]
    fn posted_writes_skip_the_sector_barrier() {
        // With posted writes the disk never waits for responses, so the
        // run completes sooner and no WriteResp is expected.
        let nonposted = run_transfer(IdeDiskConfig::default(), 4).0.now();
        let posted =
            run_transfer(IdeDiskConfig { posted_writes: true, ..IdeDiskConfig::default() }, 4)
                .0
                .now();
        assert!(posted < nonposted, "posted mode must be faster ({posted} vs {nonposted})");
    }

    #[test]
    fn status_register_reflects_busy_and_irq() {
        let (mut disk, _cs) = programmed_disk(IdeDiskConfig::default());
        assert_eq!(disk.reg_read(regs::STATUS), 0);
        disk.irq_pending = true;
        assert_eq!(disk.reg_read(regs::STATUS), STATUS_IRQ);
        disk.busy = true;
        assert_eq!(disk.reg_read(regs::STATUS), STATUS_BUSY | STATUS_IRQ);
    }

    #[test]
    fn config_space_matches_an_ide_endpoint() {
        let cs = ide_config_space();
        assert_eq!(cs.read(0x00, 2), 0x8086);
        assert_eq!(cs.read(0x0b, 1), 0x01, "storage class");
        assert_eq!(cs.read(0x3d, 1), 1, "INTA pin");
        let caps = pcisim_pci::caps::walk_capabilities(&cs);
        assert!(caps.iter().any(|&(_, id)| id == pcisim_pci::regs::cap_id::PCI_EXPRESS));
    }

    #[test]
    fn interrupt_message_targets_the_controller() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        struct Sniffer {
            seen: Rc<RefCell<Vec<u64>>>,
        }
        impl Component for Sniffer {
            fn name(&self) -> &str {
                "mem"
            }
            fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
                if pkt.cmd() == Command::Message {
                    self.seen.borrow_mut().push(pkt.addr());
                    return RecvResult::Accepted;
                }
                ctx.schedule(0, Event::DelayedPacket { tag: 9, pkt });
                RecvResult::Accepted
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
                ctx.try_send_response(PortId(0), pkt.into_response()).unwrap();
            }
        }
        let cfg = IdeDiskConfig { intx: Some((32, 0x2c00_0000)), ..IdeDiskConfig::default() };
        let mut sim = Simulation::new();
        let (disk, cs) = IdeDisk::new("disk", cfg);
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        let kick = Guest::new(BAR0, vec![(regs::SECTOR_COUNT, 1), (regs::COMMAND, CMD_READ_DMA)]);
        let k = sim.add(Box::new(kick));
        let d = sim.add(Box::new(disk));
        let s = sim.add(Box::new(Sniffer { seen: seen.clone() }));
        sim.connect((k, PortId(0)), (d, IDE_PIO_PORT));
        sim.connect((d, IDE_DMA_PORT), (s, PortId(0)));
        sim.run_to_quiesce();
        assert_eq!(*seen.borrow(), vec![crate::intc::irq_message_addr(0x2c00_0000, 32)]);
    }
}
