//! Declarative PCI-Express tree topologies (paper §V, Fig. 2/6).
//!
//! The paper's root complex carries **three root ports**, and its whole
//! point is *future system exploration* — so the system builder takes a
//! [`Topology`]: a tree with N root ports on the root complex, switches
//! nestable to arbitrary depth with per-node timing/buffering, and any
//! mix of IDE-disk / NIC endpoints at the leaves.
//!
//! A topology is built in two stages:
//!
//! 1. [`Topology::plan`] walks the tree in the exact depth-first order
//!    the enumeration software will, creating every VP2P and endpoint
//!    configuration space and registering it at the BDF enumeration will
//!    discover it at (each bridge consumes one bus number when visited,
//!    populated or not);
//! 2. [`build_topology`] runs real enumeration + driver setup over the
//!    registry, then instantiates and wires the simulation: memory bus,
//!    DRAM, interrupt controller, PCI host, IOCache, the root complex,
//!    and one [`PcieLink`] per tree edge.
//!
//! The paper's two-link chain (Fig. 6) is [`Topology::chain`]; its
//! validation setup (disk behind a switch on root port 0) is
//! [`Topology::validation`]. Every build returns the one [`TopologySystem`]
//! type, whose generic [`attach`](TopologySystem::attach) is the single
//! surface CPU-side workloads are wired through.

use std::collections::HashMap;

use pcisim_devices::cxl::{
    program_hdm, CxlExpander, CxlExpanderConfig, CXL_DMA_PORT, CXL_PIO_PORT,
};
use pcisim_devices::driver::{ide_probe, probe_with_policy, InterruptMode, MsiPolicy, ProbeInfo};
use pcisim_devices::ide::{IdeDisk, IdeDiskConfig, IDE_DMA_PORT, IDE_PIO_PORT};
use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
use pcisim_devices::nic::{Nic, NicConfig, NIC_DMA_PORT, NIC_PIO_PORT};
use pcisim_devices::virtio::{Virtio, VirtioClass, VirtioConfig, VIRTIO_DMA_PORT, VIRTIO_PIO_PORT};
use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::bridge::{Bridge, BRIDGE_IO_SIDE, BRIDGE_MEM_SIDE};
use pcisim_kernel::component::{ComponentId, PortId};
use pcisim_kernel::dram::{Dram, DRAM_PORT};
use pcisim_kernel::iocache::{IoCache, IOCACHE_DEV_SIDE, IOCACHE_MEM_SIDE};
use pcisim_kernel::sim::Simulation;
use pcisim_kernel::tick::{ns, us, Tick};
use pcisim_kernel::trace::TraceCategory;
use pcisim_kernel::xbar::Crossbar;
use pcisim_pci::caps::PortType;
use pcisim_pci::config::SharedConfigSpace;
use pcisim_pci::ecam::Bdf;
use pcisim_pci::enumeration::{enumerate, EnumerationReport};
use pcisim_pci::host::{shared_registry, PciHost, SharedRegistry, PCI_HOST_PORT};
use pcisim_pcie::link::{
    PcieLink, PORT_DOWN_MASTER, PORT_DOWN_SLAVE, PORT_UP_MASTER, PORT_UP_SLAVE,
};
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::{
    make_vp2p, port_downstream_master, port_downstream_slave, PcieRouter, RouterConfig,
    PORT_UPSTREAM_MASTER, PORT_UPSTREAM_SLAVE,
};

use crate::platform;
use crate::workload::cxl::{CxlHostConfig, CxlHostReportHandle};
use crate::workload::dd::{DdConfig, DdReportHandle};
use crate::workload::mmio::{MmioProbeConfig, MmioReportHandle};
use crate::workload::msix::{MsixTxConfig, MsixTxReportHandle};
use crate::workload::nic_rx::{NicRxConfig, NicRxReportHandle};
use crate::workload::nic_tx::{NicTxConfig, NicTxReportHandle};
use crate::workload::pmd::{PmdConfig, PmdReportHandle};
use crate::workload::virtio::{VirtioAppConfig, VirtioReportHandle};
use crate::workload::{Attached, Workload};

/// MSI vectors (when requested) live above the legacy IRQ range.
pub(crate) const MSI_VECTOR: u8 = 96;

/// Which PCI-Express endpoint sits at a leaf of the tree.
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

/// A subtree hanging off a downstream port: the link to it plus what sits
/// at the far end.
#[derive(Debug, Clone)]
pub struct Attachment {
    /// The PCI-Express link forming this tree edge.
    pub link: LinkConfig,
    /// Component name of the link; auto-named `link{n}` (DFS order) when
    /// `None`. Names must be unique per topology — they prefix stats keys.
    pub link_name: Option<String>,
    /// What the link connects to.
    pub node: Node,
}

impl Attachment {
    /// An attachment with an auto-assigned link name.
    pub fn new(link: LinkConfig, node: Node) -> Self {
        Self { link, link_name: None, node }
    }

    /// An attachment with an explicit link component name.
    pub fn named(name: impl Into<String>, link: LinkConfig, node: Node) -> Self {
        Self { link, link_name: Some(name.into()), node }
    }
}

/// One node of the topology tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A switch: nestable to arbitrary depth. Empty port slots (`None`)
    /// still register a VP2P and consume a bus number, exactly as real
    /// hardware exposes unpopulated downstream ports.
    Switch {
        /// Timing/buffering of the switch.
        config: RouterConfig,
        /// Component name; auto-named `sw{n}` when `None`.
        name: Option<String>,
        /// Downstream ports in slot order.
        ports: Vec<Option<Attachment>>,
    },
    /// A leaf endpoint device.
    Endpoint {
        /// Which device model sits here.
        device: DeviceSpec,
        /// Component name; auto-named `ep{n}` when `None`.
        name: Option<String>,
    },
}

impl Node {
    /// A switch node with an auto-assigned name.
    pub fn switch(config: RouterConfig, ports: Vec<Option<Attachment>>) -> Self {
        Node::Switch { config, name: None, ports }
    }

    /// An endpoint node with an explicit component name.
    pub fn endpoint(name: impl Into<String>, device: DeviceSpec) -> Self {
        Node::Endpoint { device, name: Some(name.into()) }
    }
}

/// A declarative PCI-Express tree plus the platform knobs shared by every
/// topology (memory side, interrupt delivery, tracing).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Root complex timing/buffering.
    pub rc: RouterConfig,
    /// Root ports in slot order; `None` registers the VP2P but wires
    /// nothing behind it (the paper's RC exposes three root ports with
    /// only one populated in the validation setup).
    pub root_ports: Vec<Option<Attachment>>,
    /// Memory-bus forwarding latency.
    pub membus_frontend: Tick,
    /// DRAM access latency.
    pub dram_latency: Tick,
    /// DRAM sustained bandwidth in bytes/second (0 = infinite).
    pub dram_bandwidth: u64,
    /// PCI host configuration-access service latency.
    pub pcihost_latency: Tick,
    /// Give the (single) endpoint a functional MSI capability and have
    /// the driver enable it. Panics at build time when the tree carries
    /// more than one endpoint.
    pub use_msi: bool,
    /// Have the driver enable the endpoint's MSI-X structure instead:
    /// the (single) NIC endpoint is forced `msix_capable`, the interrupt
    /// controller routes one doorbell word per vector starting at the
    /// base MSI vector, and [`EndpointHandle::cpu_irq_ports`] exposes one
    /// CPU notification port per vector. Panics at build time when the
    /// tree carries more than one endpoint.
    pub use_msix: bool,
    /// Structured-trace category mask applied to the built simulation.
    pub trace_mask: u32,
}

impl Topology {
    /// A topology over `root_ports` with the paper's platform defaults
    /// on the memory side, INTx delivery and tracing off.
    pub fn new(rc: RouterConfig, root_ports: Vec<Option<Attachment>>) -> Self {
        Self {
            rc,
            root_ports,
            membus_frontend: ns(5),
            dram_latency: ns(30),
            dram_bandwidth: 25_600_000_000,
            pcihost_latency: ns(20),
            use_msi: false,
            use_msix: false,
            trace_mask: 0,
        }
    }

    /// The root complex configuration every preset uses: paper timing
    /// with the completion-timeout knob armed at the spec's low end.
    fn preset_rc() -> RouterConfig {
        RouterConfig { completion_timeout: Some(us(50)), ..RouterConfig::default() }
    }

    /// The paper's two-link chain (Fig. 6): `device` on root port 0 over
    /// `root_link` — or, when `switch` is given, that switch on
    /// `root_link` with the device behind it over the switch's own link —
    /// and two empty root ports beside it.
    pub fn chain(
        root_link: LinkConfig,
        switch: Option<(RouterConfig, LinkConfig)>,
        device: DeviceSpec,
    ) -> Self {
        let name = match EndpointKind::of(&device) {
            EndpointKind::Disk => "disk",
            EndpointKind::Nic => "nic",
            EndpointKind::CxlExpander => "mem0",
            EndpointKind::VirtioBlk => "vblk0",
            EndpointKind::VirtioNet => "vnet0",
        };
        let mut node = Node::endpoint(name, device);
        if let Some((config, device_link)) = switch {
            node = Node::Switch {
                config,
                name: Some("switch".into()),
                ports: vec![Some(Attachment::named("dev_link", device_link, node)), None],
            };
        }
        let root = Attachment::named("root_link", root_link, node);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// The paper's validation setup (§VI-A): IDE disk behind a switch on
    /// root port 0, Gen 2 x4 root link, Gen 2 x1 device link, root complex
    /// and switch at 150 ns with 16-deep port buffers, replay buffer 4.
    pub fn validation() -> Self {
        Self::chain(
            LinkConfig::new(Generation::Gen2, LinkWidth::X4),
            Some((RouterConfig::default(), LinkConfig::new(Generation::Gen2, LinkWidth::X1))),
            DeviceSpec::Disk(IdeDiskConfig::default()),
        )
    }

    /// The Table II setup: `nic` directly on root port 0 over a Gen 2 link
    /// of `width`.
    pub fn nic_direct(width: LinkWidth, nic: NicConfig) -> Self {
        Self::chain(LinkConfig::new(Generation::Gen2, width), None, DeviceSpec::Nic(nic))
    }

    /// The MSI-X exploration setup: a multi-queue NIC directly on root
    /// port 0 (Gen 2 x1) with its MSI-X structure enabled by the driver,
    /// per-vector interrupt moderation set to `moderation` (0 = immediate
    /// delivery).
    pub fn nic_msix(queues: u32, moderation: Tick) -> Self {
        let nic = NicConfig { queues, msix_capable: true, moderation, ..NicConfig::default() };
        Self { use_msix: true, ..Self::nic_direct(LinkWidth::X1, nic) }
    }

    /// The validation chain with a second IDE disk on the switch's other
    /// downstream port — the fan-out the paper's Fig. 2 architecture
    /// exists to support. Both disks share the root link (Gen 2,
    /// `root_width`), so running both workloads at once measures
    /// contention in the PCI-Express fabric.
    pub fn dual_disk(root_width: LinkWidth) -> Self {
        let ports = ["dev_link", "dev_link1"]
            .into_iter()
            .enumerate()
            .map(|(i, link)| {
                let disk =
                    Node::endpoint(format!("disk{i}"), DeviceSpec::Disk(IdeDiskConfig::default()));
                Some(Attachment::named(
                    link,
                    LinkConfig::new(Generation::Gen2, LinkWidth::X1),
                    disk,
                ))
            })
            .collect();
        let switch =
            Node::Switch { config: RouterConfig::default(), name: Some("switch".into()), ports };
        let root =
            Attachment::named("root_link", LinkConfig::new(Generation::Gen2, root_width), switch);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// The paper's three root ports, all populated: the validation chain
    /// (disk behind a switch) on port 0, a NIC directly on port 1, a
    /// second disk directly on port 2.
    pub fn three_root_ports() -> Self {
        let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let disk0 = Node::endpoint("disk0", DeviceSpec::Disk(IdeDiskConfig::default()));
        let switch = Node::Switch {
            config: RouterConfig::default(),
            name: Some("switch".into()),
            ports: vec![Some(Attachment::named("dev_link0", x1(), disk0)), None],
        };
        let nic1 = Node::endpoint("nic1", DeviceSpec::Nic(NicConfig::default()));
        let disk2 = Node::endpoint("disk2", DeviceSpec::Disk(IdeDiskConfig::default()));
        Self::new(
            Self::preset_rc(),
            vec![
                Some(Attachment::named("root_link0", x4(), switch)),
                Some(Attachment::named("root_link1", x1(), nic1)),
                Some(Attachment::named("root_link2", x1(), disk2)),
            ],
        )
    }

    /// A cascaded-switch chain: `levels` switches in series under root
    /// port 0 with the disk at the leaf. `levels >= 1`.
    pub fn cascaded(levels: usize) -> Self {
        assert!(levels >= 1, "a cascade needs at least one switch");
        let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut node = Node::endpoint("disk0", DeviceSpec::Disk(IdeDiskConfig::default()));
        for level in (0..levels).rev() {
            node = Node::Switch {
                config: RouterConfig::default(),
                name: Some(format!("sw{level}")),
                ports: vec![Some(Attachment::named(format!("link{}", level + 1), x1(), node))],
            };
        }
        let root =
            Attachment::named("link0", LinkConfig::new(Generation::Gen2, LinkWidth::X4), node);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// A three-level fan-out tree: `root_ports` first-level switches, each
    /// carrying `switches` leaf switches, each carrying `endpoints` disk
    /// endpoints. The widest shape a PCI segment admits is bounded by the
    /// 256-bus architectural limit (every point-to-point link below a
    /// downstream port consumes a bus number), so e.g. `fanout(3, 8, 8)`
    /// — 192 endpoints on 247 buses — is near the ceiling.
    ///
    /// # Panics
    ///
    /// Panics when the shape would need more than 256 buses (1 + each
    /// first-level subtree's `2 + switches * (2 + endpoints)`).
    pub fn fanout(root_ports: usize, switches: usize, endpoints: usize) -> Self {
        assert!(root_ports >= 1 && switches >= 1 && endpoints >= 1);
        let buses = 1 + root_ports * (2 + switches * (2 + endpoints));
        assert!(buses <= 256, "fanout({root_ports}, {switches}, {endpoints}) needs {buses} buses");
        let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let ports = (0..root_ports)
            .map(|r| {
                let leaves = (0..switches)
                    .map(|s| {
                        let eps = (0..endpoints)
                            .map(|e| {
                                let disk = Node::endpoint(
                                    format!("disk{r}_{s}_{e}"),
                                    DeviceSpec::Disk(IdeDiskConfig::default()),
                                );
                                Some(Attachment::new(x1(), disk))
                            })
                            .collect();
                        let leaf = Node::Switch {
                            config: RouterConfig::default(),
                            name: None,
                            ports: eps,
                        };
                        Some(Attachment::new(x4(), leaf))
                    })
                    .collect();
                let mid =
                    Node::Switch { config: RouterConfig::default(), name: None, ports: leaves };
                Some(Attachment::new(x4(), mid))
            })
            .collect();
        Self::new(Self::preset_rc(), ports)
    }

    /// A CXL.mem expander directly on root port 0 (Gen 3 x8 — the class
    /// of link CXL 1.1 runs over), two empty root ports beside it.
    pub fn cxl_direct(cfg: CxlExpanderConfig) -> Self {
        let mem = Node::endpoint("mem0", DeviceSpec::CxlExpander(cfg));
        let root =
            Attachment::named("cxl_link0", LinkConfig::new(Generation::Gen3, LinkWidth::X8), mem);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// The same expander one switch hop away: quantifies the per-switch
    /// span added to every CXL.mem access (the behind-switch penalty).
    pub fn cxl_behind_switch(cfg: CxlExpanderConfig) -> Self {
        let x8 = || LinkConfig::new(Generation::Gen3, LinkWidth::X8);
        let mem = Node::endpoint("mem0", DeviceSpec::CxlExpander(cfg));
        let switch = Node::Switch {
            config: RouterConfig::default(),
            name: Some("switch".into()),
            ports: vec![Some(Attachment::named("cxl_dev_link", x8(), mem)), None],
        };
        let root = Attachment::named("cxl_link0", x8(), switch);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// `n` expanders (2–4), one per root port: the host stream interleaves
    /// across their HDM windows, aggregating bandwidth.
    pub fn cxl_interleaved(n: usize, cfg: CxlExpanderConfig) -> Self {
        assert!((2..=4).contains(&n), "interleaving takes 2-4 expanders, got {n}");
        let ports = (0..n)
            .map(|i| {
                let mem = Node::endpoint(format!("mem{i}"), DeviceSpec::CxlExpander(cfg.clone()));
                Some(Attachment::named(
                    format!("cxl_link{i}"),
                    LinkConfig::new(Generation::Gen3, LinkWidth::X8),
                    mem,
                ))
            })
            .collect();
        Self::new(Self::preset_rc(), ports)
    }

    /// Two NICs behind one switch on root port 0: both streams share the
    /// single upstream link (the contention arm of `repro --topology`).
    pub fn dual_nic_shared(nic: NicConfig) -> Self {
        let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let ports = (0..2)
            .map(|i| {
                let node = Node::endpoint(format!("nic{i}"), DeviceSpec::Nic(nic.clone()));
                Some(Attachment::named(format!("dev_link{i}"), x4(), node))
            })
            .collect();
        let switch =
            Node::Switch { config: RouterConfig::default(), name: Some("switch".into()), ports };
        let root = Attachment::named("root_link", x4(), switch);
        Self::new(Self::preset_rc(), vec![Some(root), None, None])
    }

    /// The same two NICs split across root ports 0 and 1: each stream
    /// owns its root link (the no-contention arm of `repro --topology`).
    pub fn dual_nic_split(nic: NicConfig) -> Self {
        let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let ports = (0..2)
            .map(|i| {
                let node = Node::endpoint(format!("nic{i}"), DeviceSpec::Nic(nic.clone()));
                Some(Attachment::named(format!("root_link{i}"), x4(), node))
            })
            .chain(std::iter::once(None))
            .collect();
        Self::new(Self::preset_rc(), ports)
    }

    /// A virtio-blk function directly on root port 0 (Gen 2 x1, the IDE
    /// disk's class of link, so `repro virtio` compares like for like).
    pub fn virtio_blk_direct(cfg: VirtioConfig) -> Self {
        Self::chain(LinkConfig::new(Generation::Gen2, LinkWidth::X1), None, DeviceSpec::Virtio(cfg))
    }

    /// A virtio-net function directly on root port 0 (Gen 2 x4, the
    /// e1000e NIC's class of link).
    pub fn virtio_net_direct(cfg: VirtioConfig) -> Self {
        Self::chain(LinkConfig::new(Generation::Gen2, LinkWidth::X4), None, DeviceSpec::Virtio(cfg))
    }

    /// A mixed endpoint fleet: virtio-blk and virtio-net behind a switch
    /// on root port 0, the IDE disk on root port 1 — the tree the virtio
    /// determinism anchor and the restore identity tests pin down.
    pub fn virtio_mixed(blk: VirtioConfig, net: VirtioConfig) -> Self {
        assert_eq!(blk.class, VirtioClass::Blk, "first config must be the blk function");
        assert_eq!(net.class, VirtioClass::Net, "second config must be the net function");
        let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let vblk = Node::endpoint("vblk0", DeviceSpec::Virtio(blk));
        let vnet = Node::endpoint("vnet0", DeviceSpec::Virtio(net));
        let switch = Node::Switch {
            config: RouterConfig::default(),
            name: Some("switch".into()),
            ports: vec![
                Some(Attachment::named("vblk_link", x4(), vblk)),
                Some(Attachment::named("vnet_link", x4(), vnet)),
            ],
        };
        let disk = Node::endpoint("disk", DeviceSpec::Disk(IdeDiskConfig::default()));
        let ports = vec![
            Some(Attachment::named("root_link", x4(), switch)),
            Some(Attachment::named(
                "disk_link",
                LinkConfig::new(Generation::Gen2, LinkWidth::X1),
                disk,
            )),
            None,
        ];
        Self::new(Self::preset_rc(), ports)
    }

    /// Enables structured tracing of every category.
    pub fn with_tracing(mut self) -> Self {
        self.trace_mask = TraceCategory::ALL;
        self
    }

    /// Number of endpoints in the tree.
    pub fn endpoint_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Endpoint { .. } => 1,
                Node::Switch { ports, .. } => ports.iter().flatten().map(|a| count(&a.node)).sum(),
            }
        }
        self.root_ports.iter().flatten().map(|a| count(&a.node)).sum()
    }

    /// Registers every configuration space of the tree at the BDF the
    /// depth-first enumeration will assign, and returns the plan the
    /// builder (and the conformance tests) work from.
    ///
    /// # Panics
    ///
    /// Panics when the tree has no root ports or needs more than 256
    /// buses.
    pub fn plan(&self) -> PlannedTopology {
        assert!(!self.root_ports.is_empty(), "a topology needs at least one root port");
        let mut plan = Planner {
            registry: shared_registry(),
            routers: Vec::new(),
            endpoints: Vec::new(),
            devices: Vec::new(),
            order: Vec::new(),
            next_bus: 1,
            next_switch: 0,
            next_link: 0,
            next_endpoint: 0,
            next_cxl: 0,
            next_virtio: 0,
            use_msi: self.use_msi,
            use_msix: self.use_msix,
        };

        // The root complex: one VP2P per root port, registered on bus 0
        // at slots 1.., populated or not.
        let rc_vp2ps: Vec<_> = (0..self.root_ports.len())
            .map(|i| {
                let link = port_link(&self.root_ports, i);
                let id = 0x9c90u16.wrapping_add(2 * i as u16); // Intel Wildcat root ports (§V-A)
                let vp2p = make_vp2p(0x8086, id, PortType::RootPort, link.generation, link.width);
                plan.registry.borrow_mut().register(Bdf::new(0, (i + 1) as u8, 0), vp2p.clone());
                vp2p
            })
            .collect();
        plan.routers.push(PlannedRouter {
            name: "rc".into(),
            config: self.rc.clone(),
            upstream_vp2p: None,
            downstream_vp2ps: rc_vp2ps,
            parent: None,
        });

        // Depth-first over the ports, mirroring the enumerator's walk:
        // every registered bridge consumes a bus number when visited.
        for (i, port) in self.root_ports.iter().enumerate() {
            let bus = plan.take_bus();
            if let Some(att) = port {
                plan.place(att, 0, i, bus);
            }
        }

        let Planner { registry, routers, endpoints, devices, order, .. } = plan;
        PlannedTopology { registry, routers, endpoints, order, devices }
    }
}

/// The link config VP2P `i` of a port list advertises: its own attachment
/// when populated, the first populated sibling's otherwise (matching the
/// paper setup, where all three root ports advertise the root link).
fn port_link(ports: &[Option<Attachment>], i: usize) -> LinkConfig {
    ports[i]
        .as_ref()
        .or_else(|| ports.iter().flatten().next())
        .map(|a| a.link.clone())
        .unwrap_or_else(|| LinkConfig::new(Generation::Gen2, LinkWidth::X1))
}

/// A tree edge: which router's downstream pair the child hangs off, and
/// the link forming the edge.
#[derive(Debug, Clone)]
pub struct PlannedEdge {
    /// Index into [`PlannedTopology::routers`] of the parent.
    pub router: usize,
    /// Downstream pair on the parent.
    pub pair: usize,
    /// Component name of the link.
    pub link_name: String,
    /// Link configuration of the edge.
    pub link: LinkConfig,
}

/// A router (the root complex or a switch) of a planned topology.
#[derive(Debug, Clone)]
pub struct PlannedRouter {
    /// Component name.
    pub name: String,
    /// Timing/buffering.
    pub config: RouterConfig,
    /// `None` for the root complex, the upstream VP2P for a switch.
    pub upstream_vp2p: Option<SharedConfigSpace>,
    /// One VP2P per downstream pair, in slot order.
    pub downstream_vp2ps: Vec<SharedConfigSpace>,
    /// Edge from the parent; `None` for the root complex.
    pub parent: Option<PlannedEdge>,
}

/// An endpoint of a planned topology.
#[derive(Debug, Clone)]
pub struct PlannedEndpoint {
    /// Component name.
    pub name: String,
    /// Where enumeration will find it.
    pub bdf: Bdf,
    /// Edge from the parent router.
    pub parent: PlannedEdge,
    /// The endpoint's configuration space.
    pub config_space: SharedConfigSpace,
    /// Which device model sits here.
    pub kind: EndpointKind,
    /// The HDM decoder window assigned to the expander (empty for every
    /// other device class).
    pub hdm: AddrRange,
    /// The host-DRAM window the guest driver lays this function's
    /// virtqueues out in (empty for every other device class).
    pub virtio_ring: AddrRange,
}

/// Depth-first visit order of the tree below the root complex.
#[derive(Debug, Clone, Copy)]
pub enum PlannedItem {
    /// Index into [`PlannedTopology::routers`] (never 0).
    Switch(usize),
    /// Index into [`PlannedTopology::endpoints`].
    Endpoint(usize),
}

/// The registered form of a [`Topology`]: every configuration space
/// created and registered at its post-enumeration BDF, plus the flat
/// router/endpoint lists the builder and the conformance tests walk.
pub struct PlannedTopology {
    /// The PCI host registry holding every config space.
    pub registry: SharedRegistry,
    /// Routers in depth-first pre-order; `[0]` is the root complex.
    pub routers: Vec<PlannedRouter>,
    /// Endpoints in depth-first order.
    pub endpoints: Vec<PlannedEndpoint>,
    /// Depth-first visit order of everything below the root complex.
    pub order: Vec<PlannedItem>,
    /// Device components, parallel to `endpoints` (consumed by the
    /// builder).
    devices: Vec<EndpointDevice>,
}

impl PlannedTopology {
    /// Runs BIOS-style enumeration over the planned registry and returns
    /// the report, without building a simulation. Conformance tests use
    /// this to check bus/BAR invariants on arbitrary trees cheaply.
    pub fn enumerate(&self) -> Result<EnumerationReport, pcisim_pci::enumeration::EnumerateError> {
        enumerate(&mut self.registry.clone(), platform::enumeration_config())
    }
}

enum EndpointDevice {
    Disk(Box<IdeDisk>),
    Nic(Box<Nic>),
    Cxl(Box<CxlExpander>),
    Virtio(Box<Virtio>),
}

struct Planner {
    registry: SharedRegistry,
    routers: Vec<PlannedRouter>,
    endpoints: Vec<PlannedEndpoint>,
    devices: Vec<EndpointDevice>,
    order: Vec<PlannedItem>,
    next_bus: u16,
    next_switch: u16,
    next_link: u32,
    next_endpoint: u32,
    next_cxl: usize,
    next_virtio: usize,
    use_msi: bool,
    use_msix: bool,
}

impl Planner {
    fn take_bus(&mut self) -> u8 {
        let bus = self.next_bus;
        assert!(bus < 256, "topology needs more than 256 buses");
        self.next_bus += 1;
        bus as u8
    }

    fn edge(&mut self, att: &Attachment, router: usize, pair: usize) -> PlannedEdge {
        let link_name = att.link_name.clone().unwrap_or_else(|| {
            let n = self.next_link;
            format!("link{n}")
        });
        self.next_link += 1;
        PlannedEdge { router, pair, link_name, link: att.link.clone() }
    }

    /// Places the node of `att` on `bus`, hanging off `(router, pair)`.
    fn place(&mut self, att: &Attachment, router: usize, pair: usize, bus: u8) {
        let edge = self.edge(att, router, pair);
        match &att.node {
            Node::Endpoint { device, name } => {
                let name = name.clone().unwrap_or_else(|| format!("ep{}", self.next_endpoint));
                self.next_endpoint += 1;
                let intx = Some((0, 0)); // irq patched after enumeration
                let (dev, cs, hdm, virtio_ring) = match device {
                    DeviceSpec::Disk(cfg) => {
                        let (disk, cs) = IdeDisk::new(
                            name.clone(),
                            IdeDiskConfig { intx, msi_capable: self.use_msi, ..cfg.clone() },
                        );
                        (
                            EndpointDevice::Disk(Box::new(disk)),
                            cs,
                            AddrRange::empty(),
                            AddrRange::empty(),
                        )
                    }
                    DeviceSpec::Nic(cfg) => {
                        let (nic, cs) = Nic::new(
                            name.clone(),
                            NicConfig {
                                intx,
                                msi_capable: self.use_msi,
                                msix_capable: cfg.msix_capable || self.use_msix,
                                ..cfg.clone()
                            },
                        );
                        (
                            EndpointDevice::Nic(Box::new(nic)),
                            cs,
                            AddrRange::empty(),
                            AddrRange::empty(),
                        )
                    }
                    DeviceSpec::CxlExpander(cfg) => {
                        // Each expander gets the next HDM window of the
                        // platform region, programmed through config space
                        // like a BAR assignment.
                        let (exp, cs) = CxlExpander::new(name.clone(), cfg.clone());
                        let window = platform::cxl_hdm_window(self.next_cxl);
                        self.next_cxl += 1;
                        program_hdm(&mut cs.borrow_mut(), window);
                        (EndpointDevice::Cxl(Box::new(exp)), cs, window, AddrRange::empty())
                    }
                    DeviceSpec::Virtio(cfg) => {
                        // Each virtio function gets the next virtqueue
                        // window of host DRAM; the guest driver lays its
                        // rings out inside it.
                        let (dev, cs) = Virtio::new(
                            name.clone(),
                            VirtioConfig {
                                intx,
                                msix_capable: cfg.msix_capable || self.use_msix,
                                ..cfg.clone()
                            },
                        );
                        let ring = platform::virtio_ring_window(self.next_virtio);
                        self.next_virtio += 1;
                        (EndpointDevice::Virtio(Box::new(dev)), cs, AddrRange::empty(), ring)
                    }
                };
                let bdf = Bdf::new(bus, 0, 0);
                self.registry.borrow_mut().register(bdf, cs.clone());
                self.order.push(PlannedItem::Endpoint(self.endpoints.len()));
                self.endpoints.push(PlannedEndpoint {
                    name,
                    bdf,
                    parent: edge,
                    config_space: cs,
                    kind: EndpointKind::of(device),
                    hdm,
                    virtio_ring,
                });
                self.devices.push(dev);
            }
            Node::Switch { config, name, ports } => {
                let k = self.next_switch;
                self.next_switch += 1;
                let name = name.clone().unwrap_or_else(|| format!("sw{k}"));
                let up_id = 0xaa01u16.wrapping_add(k.wrapping_mul(0x10));
                let up = make_vp2p(
                    0x8086,
                    up_id,
                    PortType::SwitchUpstream,
                    att.link.generation,
                    att.link.width,
                );
                self.registry.borrow_mut().register(Bdf::new(bus, 0, 0), up.clone());
                // The switch's internal bus, where its downstream VP2Ps
                // live.
                let internal = self.take_bus();
                let downstream_vp2ps: Vec<_> = (0..ports.len())
                    .map(|j| {
                        let link = port_link(ports, j);
                        let down = make_vp2p(
                            0x8086,
                            up_id.wrapping_add(1 + j as u16),
                            PortType::SwitchDownstream,
                            link.generation,
                            link.width,
                        );
                        self.registry
                            .borrow_mut()
                            .register(Bdf::new(internal, j as u8, 0), down.clone());
                        down
                    })
                    .collect();
                let index = self.routers.len();
                self.order.push(PlannedItem::Switch(index));
                self.routers.push(PlannedRouter {
                    name,
                    config: config.clone(),
                    upstream_vp2p: Some(up),
                    downstream_vp2ps,
                    parent: Some(edge),
                });
                for (j, port) in ports.iter().enumerate() {
                    let child_bus = self.take_bus();
                    if let Some(child) = port {
                        self.place(child, index, j, child_bus);
                    }
                }
            }
        }
    }
}

/// Which device model an endpoint is — what a
/// [`Workload`] checks before wiring a driver to
/// the endpoint's BAR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointKind {
    /// The IDE disk.
    Disk,
    /// The 8254x-pcie NIC.
    Nic,
    /// The CXL.mem memory expander.
    CxlExpander,
    /// A virtio-blk function.
    VirtioBlk,
    /// A virtio-net function.
    VirtioNet,
}

impl EndpointKind {
    /// Every kind, for workloads that only need the endpoint's reserved
    /// CPU-side ports.
    pub const ALL: [EndpointKind; 5] = [
        EndpointKind::Disk,
        EndpointKind::Nic,
        EndpointKind::CxlExpander,
        EndpointKind::VirtioBlk,
        EndpointKind::VirtioNet,
    ];

    /// The kind of endpoint `device` builds.
    pub fn of(device: &DeviceSpec) -> Self {
        match device {
            DeviceSpec::Disk(_) => EndpointKind::Disk,
            DeviceSpec::Nic(_) => EndpointKind::Nic,
            DeviceSpec::CxlExpander(_) => EndpointKind::CxlExpander,
            DeviceSpec::Virtio(cfg) => match cfg.class {
                VirtioClass::Blk => EndpointKind::VirtioBlk,
                VirtioClass::Net => EndpointKind::VirtioNet,
            },
        }
    }

    /// Whether this is one of the two virtio functions.
    pub fn is_virtio(self) -> bool {
        matches!(self, EndpointKind::VirtioBlk | EndpointKind::VirtioNet)
    }
}

/// One endpoint of a built [`TopologySystem`]: everything a workload needs to
/// attach to it.
#[derive(Debug, Clone)]
pub struct EndpointHandle {
    /// Component name of the device.
    pub name: String,
    /// Where enumeration found it.
    pub bdf: Bdf,
    /// Its first memory BAR.
    pub bar0: u64,
    /// Its interrupt line (legacy INTx or the MSI vector).
    pub irq: u8,
    /// Which device model it is.
    pub kind: EndpointKind,
    /// The expander's HDM decoder window (empty for other devices).
    pub hdm: AddrRange,
    /// The function's virtqueue window in host DRAM (empty for other
    /// devices).
    pub virtio_ring: AddrRange,
    /// Reserved memory-bus endpoint for this endpoint's CPU workload.
    pub cpu_mem_port: (ComponentId, PortId),
    /// Interrupt-controller endpoint delivering this endpoint's IRQ.
    pub cpu_irq_port: (ComponentId, PortId),
    /// One interrupt-controller endpoint per MSI-X vector (vector `v` at
    /// index `v`); a single entry — `cpu_irq_port` — for legacy INTx/MSI.
    pub cpu_irq_ports: Vec<(ComponentId, PortId)>,
}

/// A wired, enumerated, driver-initialized system built from a
/// [`Topology`], awaiting workloads.
pub struct TopologySystem {
    /// The simulation holding every component.
    pub sim: Simulation,
    /// The PCI host registry (for further functional config access).
    pub registry: SharedRegistry,
    /// What the enumeration software found.
    pub report: EnumerationReport,
    /// The driver probe result — present when the tree carries exactly
    /// one endpoint (multi-endpoint trees are set up from the report).
    pub probe: Option<ProbeInfo>,
    /// One handle per endpoint, in depth-first order.
    pub endpoints: Vec<EndpointHandle>,
}

impl TopologySystem {
    /// The endpoint with component name `name`.
    ///
    /// # Panics
    ///
    /// Panics when no endpoint carries that name.
    pub fn endpoint(&self, name: &str) -> &EndpointHandle {
        self.endpoints
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("no endpoint named {name}; have {:?}", self.names()))
    }

    /// Component names of the endpoints, in depth-first order.
    fn names(&self) -> Vec<&str> {
        self.endpoints.iter().map(|e| e.name.as_str()).collect()
    }

    /// Indices of the endpoints of `kind`, in depth-first order — what a
    /// "one workload per disk" loop iterates.
    pub fn endpoints_of(&self, kind: EndpointKind) -> Vec<usize> {
        (0..self.endpoints.len()).filter(|&i| self.endpoints[i].kind == kind).collect()
    }

    /// Attaches `workload` to endpoint `index`: the component is named
    /// `{prefix}{index}`, wired to the endpoint's reserved CPU-side ports,
    /// and its report handle returned.
    ///
    /// # Panics
    ///
    /// Panics when there is no endpoint `index`, or it is not of a kind the
    /// workload drives.
    pub fn attach<W: Workload>(&mut self, index: usize, workload: W) -> W::Report {
        let Some(ep) = self.endpoints.get(index) else {
            panic!(
                "no endpoint {index}: the tree has {} ({:?})",
                self.endpoints.len(),
                self.names()
            )
        };
        let accepted = workload.accepts();
        assert!(
            accepted.contains(&ep.kind),
            "endpoint {index} ({}) is a {:?}; this workload drives {accepted:?}",
            ep.name,
            ep.kind
        );
        let Attached { component, wires, report } = workload.instantiate(index, ep);
        let id = self.sim.add(component);
        for (port, peer) in wires {
            self.sim.connect((id, port), peer);
        }
        report
    }

    /// Attaches a `dd` block-read workload (`dd{index}`) to a disk.
    pub fn attach_dd(&mut self, index: usize, config: DdConfig) -> DdReportHandle {
        self.attach(index, config)
    }

    /// Attaches a NIC transmit workload (`nictx{index}`) to a NIC.
    pub fn attach_nic_tx(&mut self, index: usize, config: NicTxConfig) -> NicTxReportHandle {
        self.attach(index, config)
    }

    /// Attaches a NIC receive workload (`nicrx{index}`) to a NIC with
    /// `rx_stream` configured.
    pub fn attach_nic_rx(&mut self, index: usize, config: NicRxConfig) -> NicRxReportHandle {
        self.attach(index, config)
    }

    /// Attaches the multi-queue MSI-X transmit driver (`msixtx{index}`) to
    /// a NIC on a tree built with `use_msix`.
    pub fn attach_msix_tx(&mut self, index: usize, config: MsixTxConfig) -> MsixTxReportHandle {
        self.attach(index, config)
    }

    /// Attaches the MMIO latency probe (`mmio_probe{index}`) against the
    /// endpoint's BAR0.
    pub fn attach_mmio_probe(&mut self, index: usize, config: MmioProbeConfig) -> MmioReportHandle {
        self.attach(index, config)
    }

    /// Attaches the poll-mode driver (`pmd{index}`) to a NIC.
    pub fn attach_pmd(&mut self, index: usize, config: PmdConfig) -> PmdReportHandle {
        self.attach(index, config)
    }

    /// Attaches a CXL.mem host load/store stream (`cxlhost{index}`)
    /// against an expander's HDM window.
    pub fn attach_cxl_host(&mut self, index: usize, config: CxlHostConfig) -> CxlHostReportHandle {
        self.attach(index, CxlHostConfig { use_cxl: true, ..config })
    }

    /// Attaches the same engine (`dramhost{index}`) against a local DRAM
    /// slice — the local arm of the local-vs-CXL comparison, using
    /// endpoint `index`'s reserved CPU port.
    pub fn attach_dram_host(&mut self, index: usize, config: CxlHostConfig) -> CxlHostReportHandle {
        self.attach(index, CxlHostConfig { use_cxl: false, ..config })
    }

    /// Attaches a virtio guest driver (`vdrv{index}`) to a virtio
    /// function.
    pub fn attach_virtio(&mut self, index: usize, config: VirtioAppConfig) -> VirtioReportHandle {
        self.attach(index, config)
    }

    /// The system's simulation, under the name the repository benchmark
    /// harness calls. Only caller: `benchmark/src/workloads.rs`.
    pub fn into_driver(self) -> Simulation {
        self.sim
    }
}

/// Builds the full system for a [`Topology`]: plans and registers the
/// tree, runs enumeration and driver setup, then instantiates and wires
/// every component.
///
/// # Panics
///
/// Panics when enumeration or the driver probe fails, or when `use_msi`
/// is set on a tree that does not carry exactly one endpoint.
pub fn build_topology(topo: Topology) -> TopologySystem {
    let plan = topo.plan();
    let (report, probe, irqs) = enumerate_and_probe(&topo, &plan);
    build_planned(&topo, plan, report, probe, irqs)
}

/// [`build_topology`] under the name the repository benchmark harness
/// calls; the shard count is ignored. Only caller:
/// `benchmark/src/workloads.rs`.
pub fn build_topology_sharded(topo: Topology, _shards: usize) -> TopologySystem {
    build_topology(topo)
}

/// Builds the legacy (pre-PCIe) topology: gem5's stock arrangement, where
/// off-chip devices sit on a non-coherent IOBus crossbar behind a bridge
/// (paper §III, Fig. 3). The disk's PIO port hangs directly off the IOBus
/// and its DMA flows through the IOCache — no links, no root complex, no
/// switches, and therefore no bandwidth model between chip and device.
/// It shares no code path with the [`Topology`] builder: there is no tree
/// to plan, and its one [`EndpointHandle`] is filled by hand. The memory
/// side takes its values from [`Topology::new`], so the two cannot drift.
///
/// Comparing `dd` over this system against [`Topology::validation`]
/// quantifies the paper's motivation: without a PCI-Express model, I/O
/// throughput is limited only by the crossbar and looks unrealistically
/// fast.
///
/// # Panics
///
/// Panics when enumeration or the driver probe fails (a bug in the
/// built-in topology).
pub fn build_legacy_system() -> TopologySystem {
    let mem = Topology::new(RouterConfig::default(), Vec::new());
    let registry = shared_registry();
    let (mut disk, disk_cs) = IdeDisk::new("disk", IdeDiskConfig::default());
    // Stock gem5 registers PCI devices directly on bus 0.
    registry.borrow_mut().register(Bdf::new(0, 4, 0), disk_cs);

    let report = enumerate(&mut registry.clone(), platform::enumeration_config())
        .expect("legacy topology must enumerate");
    let probe = ide_probe(&mut registry.clone(), &report).expect("legacy topology must probe");
    let irq = match probe.interrupt {
        InterruptMode::Legacy(irq) => irq,
        other => panic!("IDE probe must fall back to a legacy interrupt, got {other:?}"),
    };
    disk.set_intx(Some((irq, platform::INTC_BASE)));

    let mut sim = Simulation::new();
    let mut intc = InterruptController::new("gic", platform::intc_range());
    let cpu_irq = intc.route_irq(irq);

    // MemBus: 0 = CPU, 1 = DRAM, 2 = INTC, 3 = PCI host, 4 = bridge,
    // 5 = IOCache memory side.
    let membus = Crossbar::builder("membus")
        .num_ports(6)
        .frontend_latency(mem.membus_frontend)
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
        .frontend_latency(ns(10))
        .queue_capacity(16)
        .route(platform::mem_range(), PortId(1))
        .route(platform::dram_range(), PortId(3))
        .route(platform::intc_range(), PortId(3))
        .build();

    let membus_id = sim.add(Box::new(membus));
    let iobus_id = sim.add(Box::new(iobus));
    let dram_id = sim.add(Box::new(
        Dram::builder("dram", platform::dram_range())
            .latency(mem.dram_latency)
            .bandwidth(mem.dram_bandwidth)
            .build(),
    ));
    let intc_id = sim.add(Box::new(intc));
    let host_id = sim.add(Box::new(PciHost::new(
        "pcihost",
        platform::PCI_CONFIG_BASE,
        platform::PCI_CONFIG_SIZE,
        mem.pcihost_latency,
        registry.clone(),
    )));
    let iocache_id = sim.add(Box::new(IoCache::builder("iocache").build()));
    let bridge_id = sim.add(Box::new(Bridge::builder("bridge").delay(ns(50)).build()));
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

fn enumerate_and_probe(
    topo: &Topology,
    plan: &PlannedTopology,
) -> (EnumerationReport, Option<ProbeInfo>, Vec<u8>) {
    let report = enumerate(&mut plan.registry.clone(), platform::enumeration_config())
        .expect("topology must enumerate");

    // Driver setup. A single endpoint goes through the real driver probe
    // (which may enable MSI); multi-endpoint trees are set up from the
    // enumeration report with legacy INTx, like a kernel bringing up
    // several stock devices.
    let mut probe = None;
    let mut irqs: Vec<u8> = Vec::with_capacity(plan.endpoints.len());
    if plan.endpoints.len() == 1 {
        let msi_policy = if topo.use_msix {
            MsiPolicy::RequestMsix
        } else if topo.use_msi {
            MsiPolicy::Request {
                address: platform::INTC_BASE + u64::from(MSI_VECTOR) * 4,
                data: u16::from(MSI_VECTOR),
            }
        } else {
            MsiPolicy::LegacyOnly
        };
        let table = match plan.endpoints[0].kind {
            EndpointKind::Disk => pcisim_devices::driver::IDE_DEVICE_TABLE,
            EndpointKind::Nic => pcisim_devices::driver::E1000E_DEVICE_TABLE,
            EndpointKind::CxlExpander => pcisim_devices::driver::CXL_DEVICE_TABLE,
            EndpointKind::VirtioBlk => pcisim_devices::driver::VIRTIO_BLK_DEVICE_TABLE,
            EndpointKind::VirtioNet => pcisim_devices::driver::VIRTIO_NET_DEVICE_TABLE,
        };
        let info = probe_with_policy(&mut plan.registry.clone(), &report, table, msi_policy)
            .expect("topology must probe");
        irqs.push(match info.interrupt {
            InterruptMode::Legacy(irq) => irq,
            InterruptMode::Msi => {
                assert!(topo.use_msi, "MSI must only engage when requested");
                MSI_VECTOR
            }
            InterruptMode::Msix { .. } => {
                assert!(topo.use_msix, "MSI-X must only engage when requested");
                MSI_VECTOR
            }
        });
        probe = Some(info);
    } else {
        assert!(!topo.use_msi, "use_msi needs a single-endpoint topology");
        assert!(!topo.use_msix, "use_msix needs a single-endpoint topology");
        for ep in &plan.endpoints {
            let info = report.at(ep.bdf).expect("endpoint enumerated");
            irqs.push(info.irq.expect("interrupt pin wired"));
        }
    }
    (report, probe, irqs)
}

/// Instantiates and wires every component of the plan: the memory side
/// first, then the PCIe tree depth-first.
fn build_planned(
    topo: &Topology,
    plan: PlannedTopology,
    report: EnumerationReport,
    probe: Option<ProbeInfo>,
    irqs: Vec<u8>,
) -> TopologySystem {
    // Patch each device's interrupt target now that the IRQs are known.
    let mut devices = plan.devices;
    for (dev, &irq) in devices.iter_mut().zip(&irqs) {
        let intx = Some((irq, platform::INTC_BASE));
        match dev {
            EndpointDevice::Disk(disk) => disk.set_intx(intx),
            EndpointDevice::Nic(nic) => nic.set_intx(intx),
            EndpointDevice::Cxl(exp) => exp.set_intx(intx),
            EndpointDevice::Virtio(dev) => dev.set_intx(intx),
        }
    }

    // HDM routing: every router on the path from the root complex down to
    // an expander forwards its window out the right downstream pair. The
    // routes are plan-derived configuration (like the VP2P windows), not
    // run-time state, and `add_hdm_route` rejects — loudly, at build time —
    // any window that a bridge forwarding range would shadow.
    let mut hdm_routes: Vec<Vec<(AddrRange, usize)>> = vec![Vec::new(); plan.routers.len()];
    for ep in &plan.endpoints {
        if ep.hdm.is_empty() {
            continue;
        }
        let mut edge = Some(&ep.parent);
        while let Some(e) = edge {
            hdm_routes[e.router].push((ep.hdm, e.pair));
            edge = plan.routers[e.router].parent.as_ref();
        }
    }

    // --- Components: memory side first, then the PCIe tree depth-first.
    let mut sim = Simulation::new();
    sim.set_trace_mask(topo.trace_mask);
    let mut intc = InterruptController::new("gic", platform::intc_range());
    // Per-endpoint interrupt vector lists: one legacy line or MSI vector,
    // or — under MSI-X — one doorbell word per table entry, base + index.
    let vector_lists: Vec<Vec<u8>> = irqs
        .iter()
        .enumerate()
        .map(|(i, &irq)| match &probe {
            Some(p) if i == 0 => match p.interrupt {
                InterruptMode::Msix { vectors } => {
                    (0..vectors).map(|v| MSI_VECTOR + v as u8).collect()
                }
                _ => vec![irq],
            },
            _ => vec![irq],
        })
        .collect();
    let mut irq_ports: HashMap<u8, PortId> = HashMap::new();
    let cpu_irqs: Vec<Vec<PortId>> = vector_lists
        .iter()
        .map(|list| {
            list.iter()
                .map(|&irq| *irq_ports.entry(irq).or_insert_with(|| intc.route_irq(irq)))
                .collect()
        })
        .collect();

    // Port map: 0 = first CPU workload, 1 = DRAM, 2 = INTC, 3 = PCI
    // host, 4 = RC upstream slave (both PCI windows), 5 = IOCache memory
    // side, 6.. = further CPU workloads.
    let num_ports = 6 + plan.endpoints.len().saturating_sub(1);
    let mut membus = Crossbar::builder("membus")
        .num_ports(num_ports)
        .frontend_latency(topo.membus_frontend)
        .queue_capacity(64)
        .route(platform::dram_range(), PortId(1))
        .route(platform::intc_range(), PortId(2))
        .route(platform::config_range(), PortId(3))
        .route(platform::mem_range(), PortId(4))
        .route(platform::io_range(), PortId(4));
    // The HDM region routes toward the root complex only when the tree
    // actually carries an expander, so CXL-free topologies keep their
    // exact historical route table (and golden fingerprints).
    if plan.endpoints.iter().any(|e| e.kind == EndpointKind::CxlExpander) {
        membus = membus.route(platform::cxl_hdm_range(), PortId(4));
    }
    let membus_id = sim.add(Box::new(membus.build()));
    // Virtqueues live in DRAM and are walked through real reads, so trees
    // carrying a virtio function need the functional backing store. Gated
    // so virtio-free topologies keep their exact historical DRAM snapshot
    // layout (and golden fingerprints).
    let functional_dram = plan.endpoints.iter().any(|e| e.kind.is_virtio());
    let dram_id = sim.add(Box::new(
        Dram::builder("dram", platform::dram_range())
            .latency(topo.dram_latency)
            .bandwidth(topo.dram_bandwidth)
            .functional(functional_dram)
            .build(),
    ));
    let intc_id = sim.add(Box::new(intc));
    let host_id = sim.add(Box::new(PciHost::new(
        "pcihost",
        platform::PCI_CONFIG_BASE,
        platform::PCI_CONFIG_SIZE,
        topo.pcihost_latency,
        plan.registry.clone(),
    )));
    let iocache_id = sim.add(Box::new(IoCache::builder("iocache").build()));

    let rc = &plan.routers[0];
    let mut rc_router =
        PcieRouter::root_complex(rc.name.clone(), rc.config.clone(), rc.downstream_vp2ps.clone());
    for &(range, pair) in &hdm_routes[0] {
        rc_router.add_hdm_route(range, pair);
    }
    let rc_id = sim.add(Box::new(rc_router));

    sim.connect((membus_id, PortId(1)), (dram_id, DRAM_PORT));
    sim.connect((membus_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
    sim.connect((membus_id, PortId(3)), (host_id, PCI_HOST_PORT));
    sim.connect((membus_id, PortId(4)), (rc_id, PORT_UPSTREAM_SLAVE));
    sim.connect((rc_id, PORT_UPSTREAM_MASTER), (iocache_id, IOCACHE_DEV_SIDE));
    sim.connect((iocache_id, IOCACHE_MEM_SIDE), (membus_id, PortId(5)));

    // PCIe tree: every edge gets a link whose AER endpoints are the
    // parent port's VP2P and the child's upstream config space.
    let mut router_ids = vec![rc_id];
    let mut devices = devices.into_iter();
    let mut endpoint_handles = Vec::with_capacity(plan.endpoints.len());
    for item in &plan.order {
        let (edge, child_cs) = match item {
            PlannedItem::Switch(i) => {
                let r = &plan.routers[*i];
                (r.parent.as_ref().expect("switch has a parent"), r.upstream_vp2p.clone().unwrap())
            }
            PlannedItem::Endpoint(i) => {
                let ep = &plan.endpoints[*i];
                (&ep.parent, ep.config_space.clone())
            }
        };
        let parent_id = router_ids[edge.router];
        let parent_cs = plan.routers[edge.router].downstream_vp2ps[edge.pair].clone();
        let mut link = PcieLink::new(edge.link_name.clone(), edge.link.clone());
        link.attach_aer(Some(parent_cs), Some(child_cs));
        let link_id = sim.add(Box::new(link));
        sim.connect((parent_id, port_downstream_master(edge.pair)), (link_id, PORT_UP_SLAVE));
        sim.connect((parent_id, port_downstream_slave(edge.pair)), (link_id, PORT_UP_MASTER));
        match item {
            PlannedItem::Switch(i) => {
                let r = &plan.routers[*i];
                debug_assert_eq!(router_ids.len(), *i);
                let mut switch = PcieRouter::switch(
                    r.name.clone(),
                    r.config.clone(),
                    r.upstream_vp2p.clone().unwrap(),
                    r.downstream_vp2ps.clone(),
                );
                for &(range, pair) in &hdm_routes[*i] {
                    switch.add_hdm_route(range, pair);
                }
                let id = sim.add(Box::new(switch));
                router_ids.push(id);
                sim.connect((link_id, PORT_DOWN_MASTER), (id, PORT_UPSTREAM_SLAVE));
                sim.connect((link_id, PORT_DOWN_SLAVE), (id, PORT_UPSTREAM_MASTER));
            }
            PlannedItem::Endpoint(i) => {
                let ep = &plan.endpoints[*i];
                let (dev_id, pio, dma) = match devices.next().expect("device per endpoint") {
                    EndpointDevice::Disk(disk) => (sim.add(disk), IDE_PIO_PORT, IDE_DMA_PORT),
                    EndpointDevice::Nic(nic) => (sim.add(nic), NIC_PIO_PORT, NIC_DMA_PORT),
                    EndpointDevice::Cxl(exp) => (sim.add(exp), CXL_PIO_PORT, CXL_DMA_PORT),
                    EndpointDevice::Virtio(dev) => (sim.add(dev), VIRTIO_PIO_PORT, VIRTIO_DMA_PORT),
                };
                sim.connect((link_id, PORT_DOWN_MASTER), (dev_id, pio));
                sim.connect((link_id, PORT_DOWN_SLAVE), (dev_id, dma));
                let info = report.at(ep.bdf).expect("endpoint enumerated");
                let bar0 = match &probe {
                    Some(p) => p.bar0,
                    None => info.bars.iter().find(|b| !b.is_io).expect("memory BAR").base,
                };
                let mem_port = if *i == 0 { PortId(0) } else { PortId((5 + *i) as u16) };
                endpoint_handles.push(EndpointHandle {
                    name: ep.name.clone(),
                    bdf: ep.bdf,
                    bar0,
                    irq: irqs[*i],
                    kind: ep.kind,
                    hdm: ep.hdm,
                    virtio_ring: ep.virtio_ring,
                    cpu_mem_port: (membus_id, mem_port),
                    cpu_irq_port: (intc_id, cpu_irqs[*i][0]),
                    cpu_irq_ports: cpu_irqs[*i].iter().map(|&p| (intc_id, p)).collect(),
                });
            }
        }
    }

    TopologySystem { sim, registry: plan.registry, report, probe, endpoints: endpoint_handles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::dd::DdConfig;
    use crate::workload::nic_tx::NicTxConfig;
    use pcisim_kernel::sim::RunOutcome;
    use pcisim_kernel::tick::TICKS_PER_SEC;
    use pcisim_kernel::trace::Stage;

    /// Every component of `built`, classified by the kernel's default
    /// name → stage map.
    fn stages(mut built: TopologySystem) -> Vec<(Stage, String)> {
        let names = built.sim.take_trace().names;
        names.into_iter().map(|n| (Stage::classify(&n), n)).collect()
    }

    fn stage_of(stages: &[(Stage, String)], name: &str) -> Stage {
        stages.iter().find(|(_, n)| n == name).unwrap_or_else(|| panic!("no component {name}")).0
    }

    #[test]
    fn default_stage_map_covers_the_preset_trees() {
        use pcisim_devices::cxl::CxlExpanderConfig;
        use pcisim_devices::virtio::VirtioConfig;

        let mut fanout = build_topology(Topology::fanout(2, 4, 4));
        fanout.attach_dd(0, DdConfig::default());
        let mut virtio = build_topology(Topology::virtio_blk_direct(VirtioConfig::default()));
        virtio.attach_virtio(0, VirtioAppConfig::default());
        let mut cxl = build_topology(Topology::cxl_direct(CxlExpanderConfig::default()));
        cxl.attach_cxl_host(0, CxlHostConfig::default());
        let mut local = build_topology(Topology::cxl_direct(CxlExpanderConfig::default()));
        local.attach_dram_host(0, CxlHostConfig::default());
        let (fanout, virtio, cxl, local) =
            (stages(fanout), stages(virtio), stages(cxl), stages(local));

        for (stage, name) in fanout.iter().chain(&virtio).chain(&cxl).chain(&local) {
            assert_ne!(*stage, Stage::Other, "{name} is unclassified");
        }
        let switches = fanout.iter().filter(|(s, _)| *s == Stage::Switch).count();
        assert_eq!(switches, 2 + 2 * 4, "fanout(2, 4, 4): two mid and eight leaf sw{{n}} switches");
        assert_eq!(stage_of(&fanout, "dd0"), Stage::Host);
        assert_eq!(stage_of(&virtio, "vdrv0"), Stage::Host);
        assert_eq!(stage_of(&virtio, "vblk0"), Stage::Device);
        assert_eq!(stage_of(&cxl, "cxlhost0"), Stage::Host);
        assert_eq!(stage_of(&local, "dramhost0"), Stage::Host);
        assert_eq!(stage_of(&cxl, "mem0"), Stage::Device);
    }

    fn probe(built: &TopologySystem) -> &ProbeInfo {
        built.probe.as_ref().expect("single-endpoint systems go through the driver probe")
    }

    #[test]
    fn validation_system_enumerates_the_paper_topology() {
        let built = build_topology(Topology::validation());
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
        let built = build_topology(Topology::nic_direct(LinkWidth::X1, NicConfig::default()));
        let nic = built.report.find(0x8086, 0x10d3).unwrap();
        assert_eq!(nic.bdf, Bdf::new(1, 0, 0));
        assert!(matches!(probe(&built).interrupt, InterruptMode::Legacy(_)));
        assert_eq!(built.endpoints[0].kind, EndpointKind::Nic);
    }

    #[test]
    fn dd_runs_end_to_end_through_the_full_fabric() {
        let mut built = build_topology(Topology::validation());
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
        let mut built = build_topology(Topology::nic_direct(LinkWidth::X1, NicConfig::default()));
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
        let built = build_legacy_system();
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
        let legacy_gbps = dd_gbps(build_legacy_system(), 1024 * 1024);
        let pcie_gbps = dd_gbps(build_topology(Topology::validation()), 1024 * 1024);
        assert!(
            legacy_gbps > 1.5 * pcie_gbps,
            "crossbar-only I/O must look much faster than the Gen2 x1 reality: \
             {legacy_gbps:.2} vs {pcie_gbps:.2} Gb/s"
        );
    }

    #[test]
    fn msi_engages_only_when_requested() {
        let msi = build_topology(Topology { use_msi: true, ..Topology::validation() });
        assert_eq!(probe(&msi).interrupt, InterruptMode::Msi);
        // use_msi=false keeps the paper's MsiDisabled capability.
        let intx = build_topology(Topology::validation());
        assert!(matches!(probe(&intx).interrupt, InterruptMode::Legacy(_)));
    }

    #[test]
    fn msi_and_intx_deliver_identical_interrupt_counts() {
        let run = |use_msi: bool| {
            let mut built = build_topology(Topology { use_msi, ..Topology::validation() });
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
        let built = build_topology(Topology::nic_msix(4, 0));
        assert_eq!(probe(&built).interrupt, InterruptMode::Msix { vectors: 8 });
        assert_eq!(built.endpoints[0].cpu_irq_ports.len(), 8);
    }

    #[test]
    fn msix_tx_transmits_on_every_queue() {
        let mut built = build_topology(Topology::nic_msix(4, 0));
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
        let mut built = build_topology(Topology::nic_direct(LinkWidth::X1, NicConfig::default()));
        let _ = built.attach_msix_tx(0, MsixTxConfig::default());
    }

    #[test]
    fn msix_moderation_coalesces_interrupts() {
        let run = |moderation| {
            let mut built = build_topology(Topology::nic_msix(2, moderation));
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

    #[test]
    #[should_panic(expected = "no endpoint 3: the tree has 1 ([\"disk\"])")]
    fn attach_past_the_last_endpoint_names_what_exists() {
        let _ = build_topology(Topology::validation()).attach_dd(3, DdConfig::default());
    }

    #[test]
    #[should_panic(expected = "no endpoint named nic0; have [\"disk0\", \"nic1\", \"disk2\"]")]
    fn endpoint_lookup_miss_lists_the_names_that_exist() {
        let _ = build_topology(Topology::three_root_ports()).endpoint("nic0");
    }

    #[test]
    fn three_root_ports_enumerate_three_endpoints() {
        let built = build_topology(Topology::three_root_ports());
        // 3 root ports + switch up + 2 switch downs = 6 bridges.
        assert_eq!(built.report.bridges().count(), 6);
        assert_eq!(built.report.endpoints().count(), 3);
        assert_eq!(built.endpoint("disk0").bdf, Bdf::new(3, 0, 0));
        assert_eq!(built.endpoint("nic1").bdf, Bdf::new(5, 0, 0));
        assert_eq!(built.endpoint("disk2").bdf, Bdf::new(6, 0, 0));
        let mut bars: Vec<_> = built.endpoints.iter().map(|e| e.bar0).collect();
        bars.dedup();
        assert_eq!(bars.len(), 3, "every endpoint gets its own BAR");
        let mut irqs: Vec<_> = built.endpoints.iter().map(|e| e.irq).collect();
        irqs.dedup();
        assert_eq!(irqs.len(), 3, "every endpoint gets its own interrupt line");
    }

    #[test]
    fn three_root_ports_run_concurrent_workloads_to_quiescence() {
        let mut built = build_topology(Topology::three_root_ports());
        let dd0 = built.attach_dd(0, DdConfig { block_bytes: 256 * 1024, ..DdConfig::default() });
        let tx = built.attach_nic_tx(1, NicTxConfig { frames: 64, ..NicTxConfig::default() });
        let dd2 = built.attach_dd(2, DdConfig { block_bytes: 256 * 1024, ..DdConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(dd0.borrow().done && dd2.borrow().done);
        assert_eq!(tx.borrow().frames, 64);
        // Streams on separate root ports must not serialize behind each
        // other: both disks see the same fabric, so they finish alike.
        let (g0, g2) = (dd0.borrow().throughput_gbps(), dd2.borrow().throughput_gbps());
        assert!((g0 - g2).abs() < 0.5 * g0, "disk0 {g0} vs disk2 {g2} Gb/s");
    }

    #[test]
    fn cascaded_switches_nest_to_depth_three() {
        let built = build_topology(Topology::cascaded(3));
        // 3 root ports + 3 × (switch up + 1 down) = 9 bridges.
        assert_eq!(built.report.bridges().count(), 9);
        assert_eq!(built.report.endpoints().count(), 1);
        let mut built = built;
        let dd = built.attach_dd(0, DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(dd.borrow().done, "dd must complete through three switch hops");
    }

    #[test]
    fn cxl_direct_probes_the_expander_and_assigns_its_hdm_window() {
        let built = build_topology(Topology::cxl_direct(Default::default()));
        assert_eq!(built.report.endpoints().count(), 1);
        let ep = &built.endpoints[0];
        assert_eq!(ep.kind, EndpointKind::CxlExpander);
        assert_eq!(ep.hdm, platform::cxl_hdm_window(0));
        assert!(built.probe.is_some(), "the CXL device table must match the expander");
    }

    #[test]
    fn cxl_host_chases_pointers_through_the_full_fabric() {
        use crate::workload::cxl::{CxlHostConfig, CxlHostMode};
        let mut built = build_topology(Topology::cxl_direct(Default::default()));
        let host = built.attach_cxl_host(
            0,
            CxlHostConfig {
                mode: CxlHostMode::PointerChase,
                requests: 64,
                chain_blocks: 16,
                ..CxlHostConfig::default()
            },
        );
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = host.borrow();
        assert!(r.done, "the chase must complete through links, RC and HDM routing");
        assert_eq!(r.completed, 64);
        // Fabric spans (membus + RC + link both ways) sit on top of the
        // 80 ns device latency.
        assert!(r.mean_ns() > 80.0, "got {}", r.mean_ns());
    }

    #[test]
    fn behind_switch_expander_pays_the_extra_hop() {
        use crate::workload::cxl::{CxlHostConfig, CxlHostMode};
        let run = |topo: Topology| {
            let mut built = build_topology(topo);
            let host = built.attach_cxl_host(
                0,
                CxlHostConfig {
                    mode: CxlHostMode::PointerChase,
                    requests: 32,
                    chain_blocks: 8,
                    ..CxlHostConfig::default()
                },
            );
            assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
            let r = host.borrow();
            assert!(r.done);
            r.mean_ns()
        };
        let direct = run(Topology::cxl_direct(Default::default()));
        let switched = run(Topology::cxl_behind_switch(Default::default()));
        assert!(switched > direct, "switch hop must cost: {switched} vs {direct} ns");
    }

    #[test]
    fn interleaved_expanders_get_disjoint_windows_and_all_complete() {
        use crate::workload::cxl::CxlHostConfig;
        let mut built = build_topology(Topology::cxl_interleaved(4, Default::default()));
        assert_eq!(built.endpoints.len(), 4);
        for i in 0..4 {
            assert_eq!(built.endpoints[i].hdm, platform::cxl_hdm_window(i));
            for j in 0..i {
                assert!(!built.endpoints[i].hdm.overlaps(&built.endpoints[j].hdm));
            }
        }
        let hosts: Vec<_> = (0..4)
            .map(|i| {
                built.attach_cxl_host(i, CxlHostConfig { requests: 32, ..CxlHostConfig::default() })
            })
            .collect();
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        for h in hosts {
            assert!(h.borrow().done);
            assert_eq!(h.borrow().completed, 32);
        }
    }

    #[test]
    fn virtio_blk_direct_probes_and_reads_through_the_fabric() {
        use crate::workload::virtio::VirtioAppConfig;
        let mut built = build_topology(Topology::virtio_blk_direct(VirtioConfig::default()));
        let ep = &built.endpoints[0];
        assert_eq!(ep.kind, EndpointKind::VirtioBlk);
        assert_eq!(ep.virtio_ring, platform::virtio_ring_window(0));
        assert!(built.probe.is_some(), "the virtio-blk device table must match");
        let drv = built.attach_virtio(
            0,
            VirtioAppConfig { requests: 8, queue_depth: 2, ..VirtioAppConfig::default() },
        );
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = drv.borrow();
        assert!(r.done, "all chains must retire");
        assert_eq!(r.requests, 8);
        assert_eq!(r.bytes, 8 * 4096);
        assert_eq!(r.irqs, 8, "one completion interrupt per chain");
        // Every chain pays at least the 1 us device access latency.
        assert!(r.lat_min >= us(1), "lat_min {}", r.lat_min);
    }

    #[test]
    fn virtio_net_tx_and_msix_retire_frames() {
        use crate::workload::virtio::VirtioAppConfig;
        let cfg = VirtioConfig { class: VirtioClass::Net, ..Default::default() };
        let mut topo = Topology::virtio_net_direct(cfg);
        topo.use_msix = true;
        let mut built = build_topology(topo);
        let drv = built.attach_virtio(
            0,
            VirtioAppConfig {
                requests: 16,
                queue_depth: 4,
                request_bytes: 1514,
                use_msix: true,
                ..VirtioAppConfig::default()
            },
        );
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = drv.borrow();
        assert!(r.done, "all frames must transmit");
        assert_eq!(r.requests, 16);
        assert_eq!(r.bytes, 16 * 1514);
    }

    #[test]
    fn virtio_mixed_tree_runs_blk_and_net_concurrently() {
        use crate::workload::virtio::VirtioAppConfig;
        let net = VirtioConfig { class: VirtioClass::Net, ..Default::default() };
        let mut built = build_topology(Topology::virtio_mixed(VirtioConfig::default(), net));
        assert_eq!(built.endpoints.len(), 3);
        assert_eq!(built.endpoint("vblk0").kind, EndpointKind::VirtioBlk);
        assert_eq!(built.endpoint("vnet0").kind, EndpointKind::VirtioNet);
        assert_eq!(built.endpoint("disk").kind, EndpointKind::Disk);
        let blk =
            built.attach_virtio(0, VirtioAppConfig { requests: 4, ..VirtioAppConfig::default() });
        let tx = built.attach_virtio(
            1,
            VirtioAppConfig { requests: 8, request_bytes: 1514, ..VirtioAppConfig::default() },
        );
        let dd = built.attach_dd(2, DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(blk.borrow().done && tx.borrow().done && dd.borrow().done);
    }

    #[test]
    fn dual_disks_enumerate_on_separate_buses() {
        let sys = build_topology(Topology::dual_disk(LinkWidth::X4));
        assert_eq!(sys.report.endpoints().count(), 2);
        assert_ne!(sys.endpoints[0].bar0, sys.endpoints[1].bar0);
        assert_eq!(sys.endpoints[0].bdf, Bdf::new(3, 0, 0));
        assert_eq!(sys.endpoints[1].bdf, Bdf::new(4, 0, 0));
        assert_ne!(sys.endpoints[0].irq, sys.endpoints[1].irq, "each disk gets its own line");
    }

    #[test]
    fn concurrent_dds_complete_and_contend() {
        let dd = || DdConfig { block_bytes: 1024 * 1024, ..DdConfig::default() };
        // Solo run for the baseline.
        let mut solo = build_topology(Topology::validation());
        let solo_report = solo.attach_dd(0, dd());
        assert_eq!(solo.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let solo_gbps = solo_report.borrow().throughput_gbps();

        // Dual run: both disks stream simultaneously over the shared
        // x4 root link.
        let mut dual = build_topology(Topology::dual_disk(LinkWidth::X4));
        let (r0, r1) = (dual.attach_dd(0, dd()), dual.attach_dd(1, dd()));
        assert_eq!(dual.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let (g0, g1) = (r0.borrow().throughput_gbps(), r1.borrow().throughput_gbps());
        assert!(r0.borrow().done && r1.borrow().done);

        // Each stream cannot beat its solo self, but the pair in
        // aggregate must beat one stream (the fabric really fans out).
        assert!(g0 <= solo_gbps * 1.01, "disk0 under contention: {g0} vs solo {solo_gbps}");
        assert!(g1 <= solo_gbps * 1.01, "disk1 under contention: {g1} vs solo {solo_gbps}");
        assert!(g0 + g1 > solo_gbps * 1.2, "aggregate must scale: {g0} + {g1} vs solo {solo_gbps}");
    }

    // A NIC driver must not be wired to a foreign BAR — an expander's or a
    // virtio function's. The generic `attach` makes the kind check once.

    #[test]
    #[should_panic(expected = "endpoint 0 (mem0) is a CxlExpander; this workload drives [Nic]")]
    fn nic_driver_on_a_cxl_expander_panics() {
        let mut sys = build_topology(Topology::cxl_direct(Default::default()));
        let _ = sys.attach_nic_tx(0, NicTxConfig::default());
    }

    #[test]
    #[should_panic(expected = "endpoint 0 (vblk0) is a VirtioBlk; this workload drives [Nic]")]
    fn nic_driver_on_a_virtio_function_panics() {
        let mut sys = build_topology(Topology::virtio_blk_direct(VirtioConfig::default()));
        let _ = sys.attach_pmd(0, crate::workload::pmd::PmdConfig::default());
    }

    #[test]
    fn empty_ports_consume_bus_numbers_like_real_hardware() {
        let plan = Topology::validation().plan();
        // RP0 → bus 1 (switch), internal bus 2, port 0 → bus 3 (disk),
        // port 1 → bus 4 (empty), RP1 → bus 5, RP2 → bus 6.
        assert_eq!(plan.endpoints[0].bdf, Bdf::new(3, 0, 0));
        let report = enumerate(&mut plan.registry.clone(), platform::enumeration_config())
            .expect("validation plan enumerates");
        assert_eq!(report.bus_count, 7);
    }
}
