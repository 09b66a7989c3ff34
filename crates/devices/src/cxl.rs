//! The CXL.mem memory-expander endpoint (ROADMAP: "future system
//! exploration for real").
//!
//! CXL runs over the PCIe PHY, so the expander reuses the whole link +
//! ACK-NAK machinery unchanged; what is new is the **transaction class**:
//! host loads and stores arrive as [`Command::CxlMemRd`] / [`Command::CxlMemWr`]
//! (M2S Req / RwD) and are answered with DRS / NDR completions, never with
//! Memory Read/Write TLPs. The device's timing is `kernel::dram`'s
//! [`MemoryCore`] — a fixed access latency plus a bandwidth-serialization
//! term — with a **per-bank busy model**: consecutive 64 B blocks stripe
//! across `banks` banks, and accesses to a busy bank queue behind it, so
//! strided and pointer-chase streams see realistic bank conflicts.
//!
//! The expander's **HDM decoder** (host-managed device memory window) is
//! programmed through configuration space, like a BAR: enumeration (or the
//! topology planner) writes the window base/size into the vendor-specific
//! registers at [`hdm::BASE_LO`]; the device consults those registers on
//! every access and completer-aborts anything outside the programmed
//! window. Backing storage is a real (sparse, 64 B-block) byte store, so
//! read-your-write ordering and pointer chases work with actual data.
//!
//! Ports: [`CXL_PIO_PORT`] (slave: HDM accesses + the BAR0 control
//! registers) and [`CXL_DMA_PORT`] (master; present so the expander wires
//! into the standard endpoint link pairing, never used — a .mem expander
//! masters nothing).

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::dram::{BlockStore, MemoryCore, DRAM_PORT};
use pcisim_kernel::packet::{CompletionStatus, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::{Counter, StatsBuilder};
use pcisim_kernel::tick::{ns, Tick};
use pcisim_pci::caps::{write_aer_capability, CapChain, Capability, Generation, PortType};
use pcisim_pci::config::{shared, ConfigSpace, SharedConfigSpace};
use pcisim_pci::header::{bar_base, Bar, Type0Header};

/// Slave port: HDM loads/stores and BAR0 control-register accesses (the
/// memory core's port).
pub const CXL_PIO_PORT: PortId = DRAM_PORT;
/// Master port (unused; a .mem expander initiates nothing).
pub const CXL_DMA_PORT: PortId = PortId(1);

/// PCI device id of the expander (vendor 0x8086).
pub const CXL_DEVICE_ID: u16 = 0x0cab;

/// HDM block (and bank-interleave) granule in bytes.
pub const CXL_BLOCK: u64 = 64;

/// Vendor-specific HDM decoder registers in extended config space.
pub mod hdm {
    /// HDM decoder window base, low 32 bits (RW for the planner).
    pub const BASE_LO: u16 = 0x180;
    /// HDM decoder window base, high 32 bits.
    pub const BASE_HI: u16 = 0x184;
    /// HDM decoder window size, low 32 bits.
    pub const SIZE_LO: u16 = 0x188;
    /// HDM decoder window size, high 32 bits.
    pub const SIZE_HI: u16 = 0x18c;
}

/// BAR0-relative control registers.
pub mod regs {
    /// Completed HDM reads (u32, RO).
    pub const READS: u64 = 0x00;
    /// Completed HDM writes (u32, RO).
    pub const WRITES: u64 = 0x04;
    /// HDM decoder base, low half (u32, RO mirror of config space).
    pub const HDM_BASE_LO: u64 = 0x08;
    /// HDM decoder base, high half (u32, RO mirror).
    pub const HDM_BASE_HI: u64 = 0x0c;
}

/// Tunables of the expander model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CxlExpanderConfig {
    /// Device-side access latency charged on every HDM access, on top of
    /// bank serialization (media + controller; the CXLRAMSim-style span
    /// that makes CXL-attached loads slower than local DRAM).
    pub access_latency: Tick,
    /// Number of banks; consecutive 64 B blocks stripe across them.
    pub banks: usize,
    /// Per-bank sustained bandwidth in bytes per second (0 = infinite).
    pub bytes_per_sec: u64,
    /// Simultaneously in-flight accesses before the port refuses.
    pub max_outstanding: usize,
    /// BAR0 control-register access latency.
    pub pio_latency: Tick,
}

impl Default for CxlExpanderConfig {
    fn default() -> Self {
        Self {
            access_latency: ns(80),
            banks: 8,
            bytes_per_sec: 12_800_000_000,
            max_outstanding: 64,
            pio_latency: ns(50),
        }
    }
}

/// Builds the expander's configuration space: a CXL memory-device class
/// endpoint with one 4 KB control BAR, the PCI-Express capability chain
/// (so the probe path accepts it), AER, and the vendor-specific HDM
/// decoder registers zeroed (window disabled until programmed).
pub fn cxl_config_space() -> ConfigSpace {
    let mut cs = Type0Header::new(0x8086, CXL_DEVICE_ID)
        .class_code(0x05, 0x02, 0x10)
        .bar(0, Bar::Memory32 { size: 0x1000, prefetchable: false })
        .interrupt_pin(1)
        .capabilities_at(0xc8)
        .build();
    CapChain::new()
        .add(0xc8, Capability::PowerManagement)
        .add(0xd0, Capability::MsiDisabled)
        .add(
            0xe0,
            Capability::PciExpress {
                port_type: PortType::Endpoint,
                generation: Generation::Gen3,
                max_width: 8,
            },
        )
        .write_into(&mut cs);
    write_aer_capability(&mut cs, 0x100, 0);
    cs
}

/// Programs the HDM decoder window into the expander's config space.
/// Pass an empty range to disable the decoder.
pub fn program_hdm(cs: &mut ConfigSpace, window: AddrRange) {
    if window.is_empty() {
        cs.init_u32(hdm::BASE_LO, 0);
        cs.init_u32(hdm::BASE_HI, 0);
        cs.init_u32(hdm::SIZE_LO, 0);
        cs.init_u32(hdm::SIZE_HI, 0);
        return;
    }
    assert_eq!(window.start() % CXL_BLOCK, 0, "HDM base must be block aligned");
    assert_eq!(window.size() % CXL_BLOCK, 0, "HDM size must be whole blocks");
    cs.init_u32(hdm::BASE_LO, window.start() as u32);
    cs.init_u32(hdm::BASE_HI, (window.start() >> 32) as u32);
    cs.init_u32(hdm::SIZE_LO, window.size() as u32);
    cs.init_u32(hdm::SIZE_HI, (window.size() >> 32) as u32);
}

/// Reads the HDM decoder window programmed into config space (empty when
/// the decoder is disabled).
pub fn hdm_window(cs: &ConfigSpace) -> AddrRange {
    let base = u64::from(cs.read(hdm::BASE_LO, 4)) | (u64::from(cs.read(hdm::BASE_HI, 4)) << 32);
    let size = u64::from(cs.read(hdm::SIZE_LO, 4)) | (u64::from(cs.read(hdm::SIZE_HI, 4)) << 32);
    if size == 0 {
        AddrRange::empty()
    } else {
        AddrRange::with_size(base, size)
    }
}

/// The CXL.mem memory-expander component: an HDM decoder and a BAR0
/// register file in front of a [`MemoryCore`] with `banks` banks.
pub struct CxlExpander {
    name: String,
    config: CxlExpanderConfig,
    config_space: SharedConfigSpace,
    /// Timing of HDM accesses (bank = block index modulo `banks`); BAR0
    /// accesses and Completer Aborts share its slots and response lane.
    core: MemoryCore<Vec<Tick>>,
    /// Sparse backing store of the HDM window.
    store: BlockStore,
    /// Accesses outside the programmed HDM window, answered with a
    /// Completer Abort.
    hdm_rejects: Counter,
    /// Accesses that queued behind a busy bank.
    bank_conflicts: Counter,
    ingress_refusals: Counter,
}

impl CxlExpander {
    /// Creates an expander; returns the component and the shared
    /// configuration space to register with the PCI host.
    pub fn new(name: impl Into<String>, config: CxlExpanderConfig) -> (Self, SharedConfigSpace) {
        assert!(config.banks > 0, "need at least one bank");
        assert!(config.max_outstanding > 0, "need at least one outstanding access");
        let cs = shared(cxl_config_space());
        let core = MemoryCore::new(
            config.access_latency,
            config.bytes_per_sec,
            config.max_outstanding,
            vec![0; config.banks],
        );
        (
            Self {
                name: name.into(),
                config,
                config_space: cs.clone(),
                core,
                store: BlockStore::default(),
                hdm_rejects: Counter::new(),
                bank_conflicts: Counter::new(),
                ingress_refusals: Counter::new(),
            },
            cs,
        )
    }

    /// The HDM decoder window currently programmed into config space.
    pub fn hdm(&self) -> AddrRange {
        hdm_window(&self.config_space.borrow())
    }

    fn bar0(&self) -> u64 {
        bar_base(&self.config_space.borrow(), 0)
    }
}

impl Component for CxlExpander {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, CXL_PIO_PORT, "{}: request on unexpected port {port}", self.name);
        let pkt = match self.core.admit(pkt) {
            Ok(pkt) => pkt,
            Err(refused) => {
                self.ingress_refusals.inc();
                return refused;
            }
        };
        let hdm = self.hdm();
        let bar0 = self.bar0();
        if hdm.contains(pkt.addr()) {
            // Stores become visible at admission; loads sample at
            // completion. Admission order equals issue order, so
            // read-your-write holds per address even with many accesses in
            // flight.
            if pkt.cmd().is_write() {
                if let Some(buf) = pkt.payload() {
                    self.store.write(pkt.addr(), buf);
                }
            }
            let bank = ((pkt.addr() - hdm.start()) / CXL_BLOCK) % self.config.banks as u64;
            if self.core.access(ctx, bank as usize, pkt) {
                self.bank_conflicts.inc();
            }
        } else if bar0 != 0 && AddrRange::with_size(bar0, 0x1000).contains(pkt.addr()) {
            ctx.schedule(self.config.pio_latency, Event::DelayedPacket { tag: 0, pkt });
        } else {
            // Outside both the HDM window and the control BAR: the device
            // claims the transaction (the fabric routed it here) but cannot
            // service it — Completer Abort, never a hang.
            self.hdm_rejects.inc();
            if pkt.is_posted() {
                self.core.release(ctx);
                return RecvResult::Accepted;
            }
            let resp = pkt.into_error_response(CompletionStatus::CompleterAbort);
            // Never respond synchronously from recv_request: bounce the
            // abort through a zero-delay event like every other completion.
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt: resp });
        }
        RecvResult::Accepted
    }

    /// A delayed request has completed and is answered; a delayed response
    /// is a Completer Abort.
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { pkt, .. } = ev else {
            panic!("{}: unexpected event", self.name)
        };
        if !pkt.is_request() {
            return self.core.push(ctx, pkt);
        }
        let hdm = self.hdm();
        let reg = (pkt.cmd().is_read() && !hdm.contains(pkt.addr())).then(|| {
            let value = match pkt.addr() - self.bar0() {
                regs::READS => self.core.reads.value() as u32,
                regs::WRITES => self.core.writes.value() as u32,
                regs::HDM_BASE_LO => hdm.start() as u32,
                regs::HDM_BASE_HI => (hdm.start() >> 32) as u32,
                _ => 0,
            };
            value.to_le_bytes()
        });
        let store = &self.store;
        self.core.respond(ctx, pkt, |addr, data| match reg {
            None => store.read(addr, data),
            Some(v) => data.iter_mut().zip(v).for_each(|(b, v)| *b = v),
        });
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.core.retry_granted(ctx);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        self.core.report_stats(out);
        out.counter("hdm_rejects", &self.hdm_rejects);
        out.counter("bank_conflicts", &self.bank_conflicts);
        out.counter("ingress_refusals", &self.ingress_refusals);
    }

    pcisim_kernel::state_fields!(component self;
        [core.banks; len], store, core.outstanding, core.resp, core.reads, core.writes,
        core.bytes, hdm_rejects, bank_conflicts, ingress_refusals,
        save(_w) {}
        load(_r) {
            self.core.check_restored(&self.name)?;
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::packet::Command;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::snapshot::{SnapshotError, StateReader, StateWriter};
    use pcisim_kernel::testutil::{Requester, REQUESTER_PORT};
    use pcisim_kernel::tick::us;

    const HDM_BASE: u64 = 0x1_0000_0000;

    fn expander(config: CxlExpanderConfig) -> CxlExpander {
        let (dev, cs) = CxlExpander::new("cxl0", config);
        program_hdm(&mut cs.borrow_mut(), AddrRange::with_size(HDM_BASE, 0x1000_0000));
        dev
    }

    fn run(
        config: CxlExpanderConfig,
        script: Vec<(Command, u64, u32)>,
    ) -> (Vec<Tick>, pcisim_kernel::stats::StatsSnapshot) {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("host", script);
        let r = sim.add(Box::new(req));
        let d = sim.add(Box::new(expander(config)));
        sim.connect((r, REQUESTER_PORT), (d, CXL_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let times = done.borrow().iter().map(|&(_, t)| t).collect();
        (times, sim.stats())
    }

    #[test]
    fn single_load_takes_access_latency_plus_transfer() {
        // 64 B at 64 MB/s = 1 us transfer, + 80 ns device latency.
        let cfg = CxlExpanderConfig { bytes_per_sec: 64_000_000, ..Default::default() };
        let (t, stats) = run(cfg, vec![(Command::CxlMemRd, HDM_BASE, 64)]);
        assert_eq!(t, vec![us(1) + ns(80)]);
        assert_eq!(stats.get("cxl0.reads"), Some(1.0));
        assert_eq!(stats.get("cxl0.bytes"), Some(64.0));
    }

    #[test]
    fn same_bank_serializes_different_banks_overlap() {
        // Blocks 0 and 8 share bank 0 (8 banks); blocks 0 and 1 do not.
        let cfg = CxlExpanderConfig { bytes_per_sec: 64_000_000, ..Default::default() };
        let (t, stats) = run(
            cfg.clone(),
            vec![
                (Command::CxlMemRd, HDM_BASE, 64),
                (Command::CxlMemRd, HDM_BASE + 8 * CXL_BLOCK, 64),
            ],
        );
        assert_eq!(t[1] - t[0], us(1), "same bank: second transfer queues");
        assert_eq!(stats.get("cxl0.bank_conflicts"), Some(1.0));
        let (t2, stats2) = run(
            cfg,
            vec![(Command::CxlMemRd, HDM_BASE, 64), (Command::CxlMemRd, HDM_BASE + CXL_BLOCK, 64)],
        );
        assert_eq!(t2[0], t2[1], "different banks overlap fully");
        assert_eq!(stats2.get("cxl0.bank_conflicts"), Some(0.0));
    }

    #[test]
    fn stores_read_back_their_data() {
        let mut sim = Simulation::new();
        use std::cell::RefCell;
        use std::rc::Rc;
        // A host that writes a pattern then reads it back.
        struct Host {
            got: Rc<RefCell<Vec<u8>>>,
            stage: u32,
        }
        impl Component for Host {
            fn name(&self) -> &str {
                "host"
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                let Event::Timer { kind, .. } = ev else { panic!() };
                let id = ctx.alloc_packet_id();
                let pkt = if kind == 0 {
                    Packet::request(id, Command::CxlMemWr, HDM_BASE + 32, 64, ctx.self_id())
                        .with_payload((0..64u8).collect())
                } else {
                    Packet::request(id, Command::CxlMemRd, HDM_BASE + 32, 64, ctx.self_id())
                };
                ctx.try_send_request(PortId(0), pkt).unwrap();
            }
            fn recv_response(
                &mut self,
                ctx: &mut Ctx<'_>,
                _p: PortId,
                mut pkt: Packet,
            ) -> RecvResult {
                self.stage += 1;
                if self.stage == 1 {
                    assert_eq!(pkt.cmd(), Command::CxlMemNdr);
                    // Issue the dependent read from a fresh event, never
                    // synchronously from the response path.
                    ctx.schedule(0, Event::Timer { kind: 1, data: 0 });
                } else {
                    assert_eq!(pkt.cmd(), Command::CxlMemDrs);
                    *self.got.borrow_mut() = pkt.take_payload().unwrap();
                }
                RecvResult::Accepted
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let h = sim.add(Box::new(Host { got: got.clone(), stage: 0 }));
        let d = sim.add(Box::new(expander(CxlExpanderConfig::default())));
        sim.connect((h, PortId(0)), (d, CXL_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*got.borrow(), (0..64u8).collect::<Vec<_>>(), "written data reads back");
    }

    #[test]
    fn unwritten_memory_reads_as_zero() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("host", vec![(Command::CxlMemRd, HDM_BASE + 0x4000, 64)]);
        let r = sim.add(Box::new(req));
        let d = sim.add(Box::new(expander(CxlExpanderConfig::default())));
        sim.connect((r, REQUESTER_PORT), (d, CXL_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
    }

    #[test]
    fn access_outside_the_hdm_window_completer_aborts() {
        let (t, stats) =
            run(CxlExpanderConfig::default(), vec![(Command::CxlMemRd, HDM_BASE - 0x1000, 64)]);
        assert_eq!(t.len(), 1, "the abort still completes — no hang");
        assert_eq!(stats.get("cxl0.hdm_rejects"), Some(1.0));
        assert_eq!(stats.get("cxl0.reads"), Some(0.0));
    }

    #[test]
    fn unprogrammed_decoder_rejects_everything() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("host", vec![(Command::CxlMemRd, HDM_BASE, 64)]);
        let r = sim.add(Box::new(req));
        let (dev, _cs) = CxlExpander::new("cxl0", CxlExpanderConfig::default());
        let d = sim.add(Box::new(dev));
        sim.connect((r, REQUESTER_PORT), (d, CXL_PIO_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(sim.stats().get("cxl0.hdm_rejects"), Some(1.0));
    }

    #[test]
    fn backpressure_refuses_and_recovers() {
        let cfg = CxlExpanderConfig {
            max_outstanding: 2,
            bytes_per_sec: 64_000_000,
            ..Default::default()
        };
        let script = (0..16).map(|i| (Command::CxlMemRd, HDM_BASE + i * CXL_BLOCK, 64)).collect();
        let (t, stats) = run(cfg, script);
        assert_eq!(t.len(), 16, "backpressure must not lose packets");
        assert!(stats.get("cxl0.ingress_refusals").unwrap() > 0.0);
    }

    #[test]
    fn hdm_registers_roundtrip_through_config_space() {
        let (dev, cs) = CxlExpander::new("cxl0", CxlExpanderConfig::default());
        assert!(dev.hdm().is_empty(), "decoder starts disabled");
        let w = AddrRange::with_size(0x2_4000_0000, 0x1000_0000);
        program_hdm(&mut cs.borrow_mut(), w);
        assert_eq!(dev.hdm(), w);
        program_hdm(&mut cs.borrow_mut(), AddrRange::empty());
        assert!(dev.hdm().is_empty());
    }

    #[test]
    fn save_restore_roundtrips_the_store_and_banks() {
        let mut sim = Simulation::new();
        let (req, _done) = Requester::new(
            "host",
            (0..8).map(|i| (Command::CxlMemWr, HDM_BASE + i * CXL_BLOCK, 64)).collect(),
        );
        let r = sim.add(Box::new(req));
        let mut src = expander(CxlExpanderConfig::default());
        // Populate via a short run, then snapshot by hand.
        let d = sim.add(Box::new(expander(CxlExpanderConfig::default())));
        sim.connect((r, REQUESTER_PORT), (d, CXL_PIO_PORT));
        sim.run_to_quiesce();
        src.store.write(HDM_BASE + 7, &[1, 2, 3]);
        src.core.banks[3] = 12345;
        src.core.reads.inc();
        let mut w = StateWriter::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut dst = expander(CxlExpanderConfig::default());
        dst.restore_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(dst.store, src.store);
        assert_eq!(dst.core.banks, src.core.banks);
        let mut w2 = StateWriter::new();
        dst.save_state(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "save/restore/save is byte-stable");
    }

    #[test]
    fn restore_rejects_outstanding_above_the_bound() {
        let cfg = CxlExpanderConfig { max_outstanding: 2, ..Default::default() };
        let mut src = expander(cfg.clone());
        src.core.outstanding = 3;
        let mut w = StateWriter::new();
        src.save_state(&mut w);
        let bytes = w.into_bytes();
        let err = expander(cfg).restore_state(&mut StateReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn config_space_passes_the_probe_shape() {
        let cs = cxl_config_space();
        assert_eq!(cs.read(0x00, 2), 0x8086);
        assert_eq!(cs.read(0x02, 2), u32::from(CXL_DEVICE_ID));
        assert_eq!(cs.read(0x0a, 2), 0x0502, "CXL memory-device class");
    }
}
