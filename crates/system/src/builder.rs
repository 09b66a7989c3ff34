//! Full-system assembly (paper Fig. 6).
//!
//! Builds the topologies the paper evaluates — the IDE disk behind a
//! switch (the validation setup), a NIC directly on a root port (the
//! Table II setup), and the legacy pre-PCIe arrangement — as thin
//! wrappers over the declarative [`Topology`] tree (`build_legacy_system`
//! excepted: it carries no PCI-Express fabric at all, and fills its one
//! [`EndpointHandle`] by hand). Every
//! builder returns the same [`TopologySystem`], enumerated and
//! driver-probed, so a built system is ready for a workload.

use pcisim_devices::cxl::CxlExpanderConfig;
use pcisim_devices::driver::{ide_probe, InterruptMode};
use pcisim_devices::ide::{IdeDisk, IdeDiskConfig, IDE_DMA_PORT, IDE_PIO_PORT};
use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
use pcisim_devices::nic::NicConfig;
use pcisim_devices::virtio::VirtioConfig;
use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::component::PortId;
use pcisim_kernel::dram::{Dram, DRAM_PORT};
use pcisim_kernel::iocache::{IoCache, IOCACHE_DEV_SIDE, IOCACHE_MEM_SIDE};
use pcisim_kernel::sim::Simulation;
use pcisim_kernel::tick::{ns, us, Tick};
use pcisim_kernel::trace::TraceCategory;
use pcisim_kernel::xbar::Crossbar;
use pcisim_pci::ecam::Bdf;
use pcisim_pci::enumeration::enumerate;
use pcisim_pci::host::{shared_registry, PciHost, PCI_HOST_PORT};
use pcisim_pcie::params::LinkConfig;
use pcisim_pcie::router::RouterConfig;

use crate::platform;
use crate::topology::{build_topology, EndpointHandle, EndpointKind, Topology, TopologySystem};

/// Which PCI-Express endpoint the system carries.
#[derive(Debug, Clone)]
pub enum DeviceSpec {
    /// The IDE disk (the `dd` experiments).
    Disk(IdeDiskConfig),
    /// The 8254x-pcie NIC (the Table II experiment).
    Nic(NicConfig),
    /// The CXL.mem memory expander (the `repro cxl` experiments).
    CxlExpander(CxlExpanderConfig),
    /// A virtio-pci function — blk or net by
    /// [`VirtioConfig::class`] (the `repro virtio` experiments).
    Virtio(VirtioConfig),
}

/// Every knob of the full system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Root complex timing/buffering.
    pub rc: RouterConfig,
    /// Switch timing/buffering; `None` attaches the device directly to
    /// root port 0.
    pub switch: Option<RouterConfig>,
    /// Link between the root port and the switch (or the device when no
    /// switch is present).
    pub root_link: LinkConfig,
    /// Link between the switch downstream port and the device.
    pub device_link: LinkConfig,
    /// The endpoint.
    pub device: DeviceSpec,
    /// Memory-bus forwarding latency.
    pub membus_frontend: Tick,
    /// DRAM access latency.
    pub dram_latency: Tick,
    /// DRAM sustained bandwidth in bytes/second (0 = infinite).
    pub dram_bandwidth: u64,
    /// IOCache outstanding-miss limit.
    pub iocache_mshrs: usize,
    /// PCI host configuration-access service latency.
    pub pcihost_latency: Tick,
    /// Give the device a functional MSI capability and have the driver
    /// enable it — the paper's future-work extension. The default follows
    /// the paper: MSI disabled, legacy INTx emulation messages.
    pub use_msi: bool,
    /// Have the driver enable the device's MSI-X structure instead: the
    /// NIC is forced `msix_capable`, and every table vector gets its own
    /// doorbell word at the interrupt controller (see
    /// [`Topology::use_msix`](crate::topology::Topology)).
    pub use_msix: bool,
    /// Structured-trace category mask applied to the built simulation
    /// (a bit-or of [`TraceCategory::bit`] values, or
    /// [`TraceCategory::ALL`]); `0` — the default — disables tracing.
    pub trace_mask: u32,
}

impl SystemConfig {
    /// The paper's validation setup (§VI-A): IDE disk behind a switch,
    /// Gen 2 x4 root link, Gen 2 x1 device link, root complex at 150 ns,
    /// switch at 150 ns, 16-deep port buffers, replay buffer 4.
    pub fn validation() -> Self {
        use pcisim_pcie::params::{Generation, LinkWidth};
        Self {
            rc: RouterConfig {
                // Low end of the spec's default completion-timeout range:
                // CPU-side non-posted requests that never complete come
                // back as all-ones error completions instead of hanging
                // the simulation.
                completion_timeout: Some(us(50)),
                ..RouterConfig::default()
            },
            switch: Some(RouterConfig::default()),
            root_link: LinkConfig::new(Generation::Gen2, LinkWidth::X4),
            device_link: LinkConfig::new(Generation::Gen2, LinkWidth::X1),
            device: DeviceSpec::Disk(IdeDiskConfig::default()),
            membus_frontend: ns(5),
            dram_latency: ns(30),
            dram_bandwidth: 25_600_000_000,
            iocache_mshrs: 16,
            pcihost_latency: ns(20),
            use_msi: false,
            use_msix: false,
            trace_mask: 0,
        }
    }

    /// Enables structured tracing of every category (see
    /// [`TraceCategory::ALL`]); the built system's trace is collected with
    /// [`Simulation::take_trace`] after the run.
    pub fn with_tracing(mut self) -> Self {
        self.trace_mask = TraceCategory::ALL;
        self
    }

    /// The Table II setup: a NIC directly on root port 0, Gen 2 x1 link.
    pub fn nic_direct() -> Self {
        use pcisim_pcie::params::{Generation, LinkWidth};
        Self {
            switch: None,
            device: DeviceSpec::Nic(NicConfig::default()),
            root_link: LinkConfig::new(Generation::Gen2, LinkWidth::X1),
            ..Self::validation()
        }
    }

    /// The MSI-X exploration setup: a multi-queue NIC directly on root
    /// port 0 with its MSI-X structure enabled by the driver, per-vector
    /// interrupt moderation set to `moderation` (0 = immediate delivery).
    pub fn nic_msix(queues: u32, moderation: Tick) -> Self {
        Self {
            device: DeviceSpec::Nic(NicConfig {
                queues,
                msix_capable: true,
                moderation,
                ..NicConfig::default()
            }),
            use_msix: true,
            ..Self::nic_direct()
        }
    }
}

/// Builds the full system per `config`: the two-link chain as a
/// [`Topology`], through the one builder.
///
/// # Panics
///
/// Panics when enumeration or the driver probe fails — a built-in
/// topology that does not enumerate is a bug, not a runtime condition.
pub fn build_system(config: SystemConfig) -> TopologySystem {
    build_topology(Topology::from_system_config(&config))
}

/// Knobs of the legacy (pre-PCIe) topology: gem5's stock arrangement
/// where off-chip devices sit on a non-coherent IOBus crossbar behind a
/// bridge, with no PCI-Express components at all (paper §III, Fig. 3).
#[derive(Debug, Clone)]
pub struct LegacySystemConfig {
    /// The IDE disk.
    pub disk: IdeDiskConfig,
    /// MemBus↔IOBus bridge one-way delay.
    pub bridge_delay: Tick,
    /// IOBus forwarding latency.
    pub iobus_frontend: Tick,
    /// Memory-bus forwarding latency.
    pub membus_frontend: Tick,
    /// DRAM access latency.
    pub dram_latency: Tick,
    /// DRAM sustained bandwidth in bytes/second (0 = infinite).
    pub dram_bandwidth: u64,
    /// IOCache outstanding-miss limit.
    pub iocache_mshrs: usize,
}

impl Default for LegacySystemConfig {
    fn default() -> Self {
        Self {
            disk: IdeDiskConfig::default(),
            bridge_delay: ns(50),
            iobus_frontend: ns(10),
            membus_frontend: ns(5),
            dram_latency: ns(30),
            dram_bandwidth: 25_600_000_000,
            iocache_mshrs: 16,
        }
    }
}

/// Builds the legacy topology: the baseline every PCI device in stock
/// gem5 uses. The disk's PIO port hangs directly off the IOBus and its
/// DMA flows through the IOCache — no links, no root complex, no
/// switches, and therefore no bandwidth model between chip and device.
///
/// Comparing `dd` over this system against [`build_system`] quantifies
/// the paper's motivation: without a PCI-Express model, I/O throughput
/// is limited only by the crossbar and looks unrealistically fast.
///
/// # Panics
///
/// Panics when enumeration or the driver probe fails (a bug in the
/// built-in topology).
pub fn build_legacy_system(config: LegacySystemConfig) -> TopologySystem {
    use pcisim_kernel::bridge::{Bridge, BRIDGE_IO_SIDE, BRIDGE_MEM_SIDE};

    let registry = shared_registry();
    let (disk, disk_cs) = IdeDisk::new("disk", config.disk.clone());
    // Stock gem5 registers PCI devices directly on bus 0.
    registry.borrow_mut().register(Bdf::new(0, 4, 0), disk_cs);

    let report = enumerate(&mut registry.clone(), platform::enumeration_config())
        .expect("legacy topology must enumerate");
    let probe = ide_probe(&mut registry.clone(), &report).expect("legacy topology must probe");
    let irq = match probe.interrupt {
        InterruptMode::Legacy(irq) => irq,
        other => panic!("IDE probe must fall back to a legacy interrupt, got {other:?}"),
    };
    let mut disk = disk;
    disk.set_intx(Some((irq, platform::INTC_BASE)));

    let mut sim = Simulation::new();
    let mut intc = InterruptController::new("gic", platform::intc_range());
    let cpu_irq = intc.route_irq(irq);

    // MemBus: 0 = CPU, 1 = DRAM, 2 = INTC, 3 = PCI host, 4 = bridge,
    // 5 = IOCache memory side.
    let membus = Crossbar::builder("membus")
        .num_ports(6)
        .frontend_latency(config.membus_frontend)
        .queue_capacity(64)
        .route(platform::dram_range(), PortId(1))
        .route(platform::intc_range(), PortId(2))
        .route(platform::config_range(), PortId(3))
        .route(platform::mem_range(), PortId(4))
        .route(platform::io_range(), PortId(4))
        .build();
    // IOBus: 0 = bridge IO side (requests in), 1 = disk PIO,
    // 2 = disk DMA in, routes DMA targets out port 3 to the IOCache.
    let iobus = Crossbar::builder("iobus")
        .num_ports(4)
        .frontend_latency(config.iobus_frontend)
        .queue_capacity(16)
        .route(platform::mem_range(), PortId(1))
        .route(platform::dram_range(), PortId(3))
        .route(platform::intc_range(), PortId(3))
        .build();

    let membus_id = sim.add(Box::new(membus));
    let iobus_id = sim.add(Box::new(iobus));
    let dram_id = sim.add(Box::new(
        Dram::builder("dram", platform::dram_range())
            .latency(config.dram_latency)
            .bandwidth(config.dram_bandwidth)
            .build(),
    ));
    let intc_id = sim.add(Box::new(intc));
    let host_id = sim.add(Box::new(PciHost::new(
        "pcihost",
        platform::PCI_CONFIG_BASE,
        platform::PCI_CONFIG_SIZE,
        ns(20),
        registry.clone(),
    )));
    let iocache_id =
        sim.add(Box::new(IoCache::builder("iocache").mshrs(config.iocache_mshrs).build()));
    let bridge_id = sim.add(Box::new(Bridge::builder("bridge").delay(config.bridge_delay).build()));
    let disk_id = sim.add(Box::new(disk));

    sim.connect((membus_id, PortId(1)), (dram_id, DRAM_PORT));
    sim.connect((membus_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
    sim.connect((membus_id, PortId(3)), (host_id, PCI_HOST_PORT));
    sim.connect((membus_id, PortId(4)), (bridge_id, BRIDGE_MEM_SIDE));
    sim.connect((bridge_id, BRIDGE_IO_SIDE), (iobus_id, PortId(0)));
    sim.connect((iobus_id, PortId(1)), (disk_id, IDE_PIO_PORT));
    sim.connect((disk_id, IDE_DMA_PORT), (iobus_id, PortId(2)));
    sim.connect((iobus_id, PortId(3)), (iocache_id, IOCACHE_DEV_SIDE));
    sim.connect((iocache_id, IOCACHE_MEM_SIDE), (membus_id, PortId(5)));

    let endpoint = EndpointHandle {
        name: "disk".into(),
        bdf: probe.bdf,
        bar0: probe.bar0,
        irq,
        kind: EndpointKind::Disk,
        hdm: AddrRange::empty(),
        virtio_ring: AddrRange::empty(),
        cpu_mem_port: (membus_id, PortId(0)),
        cpu_irq_port: (intc_id, cpu_irq),
        cpu_irq_ports: vec![(intc_id, cpu_irq)],
    };
    TopologySystem { sim, registry, report, probe: Some(probe), endpoints: vec![endpoint] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::dd::DdConfig;
    use crate::workload::mmio::MmioProbeConfig;
    use crate::workload::msix::MsixTxConfig;
    use pcisim_kernel::sim::RunOutcome;
    use pcisim_kernel::tick::TICKS_PER_SEC;

    fn probe(built: &TopologySystem) -> &pcisim_devices::driver::ProbeInfo {
        built.probe.as_ref().expect("single-endpoint systems go through the driver probe")
    }

    #[test]
    fn validation_system_enumerates_the_paper_topology() {
        let built = build_system(SystemConfig::validation());
        // 3 root ports + switch upstream + 2 switch downstream = 6 bridges,
        // 1 endpoint.
        assert_eq!(built.report.bridges().count(), 6);
        assert_eq!(built.report.endpoints().count(), 1);
        let disk = built.report.find(0x8086, 0x2922).unwrap();
        assert_eq!(disk.bdf, Bdf::new(3, 0, 0));
        assert!(probe(&built).bar0 >= platform::PCI_MEM_BASE);
        assert_eq!(built.endpoints[0].bar0, probe(&built).bar0);
    }

    #[test]
    fn nic_direct_system_probes_e1000e() {
        let built = build_system(SystemConfig::nic_direct());
        let nic = built.report.find(0x8086, 0x10d3).unwrap();
        assert_eq!(nic.bdf, Bdf::new(1, 0, 0));
        assert!(matches!(probe(&built).interrupt, InterruptMode::Legacy(_)));
        assert_eq!(built.endpoints[0].kind, EndpointKind::Nic);
    }

    #[test]
    fn dd_runs_end_to_end_through_the_full_fabric() {
        let mut built = build_system(SystemConfig::validation());
        let report = built.attach_dd(
            0,
            DdConfig {
                block_bytes: 64 * 1024,
                request_sectors: 8,
                os_block_setup: us(10),
                os_request_overhead: us(1),
                ..DdConfig::default()
            },
        );
        let outcome = built.sim.run(TICKS_PER_SEC, 200_000_000);
        assert_eq!(outcome, RunOutcome::QueueEmpty, "dd must quiesce");
        let r = report.borrow();
        assert!(r.done, "dd must complete its block");
        assert_eq!(r.bytes, 64 * 1024);
        assert!(r.throughput_gbps() > 0.1, "got {}", r.throughput_gbps());
    }

    #[test]
    fn mmio_probe_runs_against_the_nic() {
        let mut built = build_system(SystemConfig::nic_direct());
        let report = built.attach_mmio_probe(0, MmioProbeConfig { reads: 8, ..Default::default() });
        let outcome = built.sim.run(TICKS_PER_SEC, 10_000_000);
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        let r = report.borrow();
        assert!(r.done);
        assert_eq!(r.latencies.len(), 8);
        // Two root-complex crossings at 150 ns each bound the latency from
        // below.
        assert!(r.mean_ns() > 300.0, "got {}", r.mean_ns());
    }

    #[test]
    fn legacy_system_enumerates_a_flat_bus() {
        let built = build_legacy_system(LegacySystemConfig::default());
        assert_eq!(built.report.bridges().count(), 0, "no VP2Ps in the legacy topology");
        assert_eq!(built.report.endpoints().count(), 1);
        assert_eq!(built.report.bus_count, 1);
        assert_eq!(built.endpoints[0].bdf, Bdf::new(0, 4, 0));
    }

    /// Runs one `dd` block over `built`'s only endpoint and returns the
    /// throughput it reports.
    fn dd_gbps(mut built: TopologySystem, block_bytes: u64) -> f64 {
        let report = built.attach_dd(0, DdConfig { block_bytes, ..DdConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = report.borrow();
        assert!(r.done);
        assert_eq!(r.bytes, block_bytes);
        r.throughput_gbps()
    }

    #[test]
    fn legacy_crossbar_overstates_io_throughput() {
        // The paper's motivation (§I/§III): without a PCI-Express
        // bandwidth model, device throughput is unrealistically high.
        let legacy_gbps = dd_gbps(build_legacy_system(LegacySystemConfig::default()), 1024 * 1024);
        let pcie_gbps = dd_gbps(build_system(SystemConfig::validation()), 1024 * 1024);
        assert!(
            legacy_gbps > 1.5 * pcie_gbps,
            "crossbar-only I/O must look much faster than the Gen2 x1 reality: \
             {legacy_gbps:.2} vs {pcie_gbps:.2} Gb/s"
        );
    }

    #[test]
    fn msi_engages_only_when_requested() {
        let msi = build_system(SystemConfig { use_msi: true, ..SystemConfig::validation() });
        assert_eq!(probe(&msi).interrupt, InterruptMode::Msi);
        // use_msi=false keeps the paper's MsiDisabled capability.
        let intx = build_system(SystemConfig::validation());
        assert!(matches!(probe(&intx).interrupt, InterruptMode::Legacy(_)));
    }

    #[test]
    fn msi_and_intx_deliver_identical_interrupt_counts() {
        let run = |use_msi: bool| {
            let config = SystemConfig { use_msi, ..SystemConfig::validation() };
            let mut built = build_system(config);
            let report =
                built.attach_dd(0, DdConfig { block_bytes: 256 * 1024, ..DdConfig::default() });
            assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
            assert!(report.borrow().done, "dd must complete under either delivery");
            assert_eq!(report.borrow().bytes, 256 * 1024);
            built.sim.stats().get("gic.raised").unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn msix_probe_negotiates_per_queue_vectors() {
        let built = build_system(SystemConfig::nic_msix(4, 0));
        assert_eq!(probe(&built).interrupt, InterruptMode::Msix { vectors: 8 });
        assert_eq!(built.endpoints[0].cpu_irq_ports.len(), 8);
    }

    #[test]
    fn msix_tx_transmits_on_every_queue() {
        let mut built = build_system(SystemConfig::nic_msix(4, 0));
        let report = built
            .attach_msix_tx(0, MsixTxConfig { queues: 4, frames: 64, ..MsixTxConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = report.borrow();
        assert!(r.done, "all queues must drain");
        assert_eq!(r.frames, 64);
        assert_eq!(r.per_queue_frames, vec![16, 16, 16, 16]);
        // Without moderation every completion raises its own vector.
        assert_eq!(r.irqs, 64);
        assert_eq!(built.sim.stats().get("nic.msix_irqs"), Some(64.0));
    }

    #[test]
    #[should_panic(expected = "MSI-X queue pairs need")]
    fn msix_tx_refuses_a_tree_built_without_msix() {
        let mut built = build_system(SystemConfig::nic_direct());
        let _ = built.attach_msix_tx(0, MsixTxConfig::default());
    }

    #[test]
    fn msix_moderation_coalesces_interrupts() {
        let run = |moderation| {
            let mut built = build_system(SystemConfig::nic_msix(2, moderation));
            let report = built.attach_msix_tx(
                0,
                MsixTxConfig { queues: 2, frames: 64, ..MsixTxConfig::default() },
            );
            assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
            let r = report.borrow().clone();
            assert!(r.done);
            assert_eq!(r.frames, 64);
            (r.irqs, built.sim.stats().get("nic.irqs_coalesced").unwrap_or(0.0))
        };
        let (imm_irqs, imm_coalesced) = run(0);
        let (mod_irqs, mod_coalesced) = run(us(20));
        assert_eq!(imm_coalesced, 0.0);
        assert!(mod_irqs < imm_irqs, "holdoff must coalesce: {mod_irqs} vs {imm_irqs} interrupts");
        assert!(mod_coalesced > 0.0);
    }
}
