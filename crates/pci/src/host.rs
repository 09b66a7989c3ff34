//! The PCI host (gem5's `PciHost`).
//!
//! The host claims the whole ECAM configuration window. Devices — endpoints
//! *and* the root-complex/switch virtual PCI-to-PCI bridges, exactly as the
//! paper registers its VP2Ps (§V-A) — register their shared configuration
//! space under a bus/device/function. Configuration requests arriving as
//! packets are decoded and served after a configurable latency; accesses to
//! absent functions return all-ones, which the PCI-Express protocol defines
//! as "no device here".

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::SnapshotError;
use pcisim_kernel::stats::{Counter, StatsBuilder};
use pcisim_kernel::tick::Tick;

use crate::config::SharedConfigSpace;
use crate::ecam::{self, Bdf};

/// Uniform interface for configuration-space access, implemented by the
/// host registry (functional path used at "boot") and usable by enumeration
/// software and drivers alike.
pub trait ConfigAccess {
    /// Reads `size` bytes (1, 2 or 4) at `offset` of function `bdf`;
    /// absent functions read all-ones.
    fn config_read(&mut self, bdf: Bdf, offset: u16, size: u8) -> u32;

    /// Writes to function `bdf`; writes to absent functions are dropped.
    fn config_write(&mut self, bdf: Bdf, offset: u16, size: u8, value: u32);
}

/// The device registry shared between the [`PciHost`] component and the
/// functional boot path.
#[derive(Default)]
pub struct PciHostRegistry {
    devices: HashMap<Bdf, SharedConfigSpace>,
}

impl PciHostRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `config` under `bdf`.
    ///
    /// # Panics
    ///
    /// Panics if `bdf` is already taken.
    pub fn register(&mut self, bdf: Bdf, config: SharedConfigSpace) {
        let prev = self.devices.insert(bdf, config);
        assert!(prev.is_none(), "duplicate PCI function at {bdf}");
    }

    /// The configuration space registered at `bdf`, if any.
    pub fn lookup(&self, bdf: Bdf) -> Option<SharedConfigSpace> {
        self.devices.get(&bdf).cloned()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// All registered BDFs in ascending order.
    pub fn bdfs(&self) -> Vec<Bdf> {
        let mut v: Vec<_> = self.devices.keys().copied().collect();
        v.sort();
        v
    }
}

impl ConfigAccess for PciHostRegistry {
    fn config_read(&mut self, bdf: Bdf, offset: u16, size: u8) -> u32 {
        match self.devices.get(&bdf) {
            Some(cs) => cs.borrow().read(offset, size),
            // All-ones, truncated to the access size.
            None => match size {
                1 => 0xff,
                2 => 0xffff,
                _ => 0xffff_ffff,
            },
        }
    }

    fn config_write(&mut self, bdf: Bdf, offset: u16, size: u8, value: u32) {
        if let Some(cs) = self.devices.get(&bdf) {
            cs.borrow_mut().write(offset, size, value);
        }
    }
}

/// Shared handle to the registry.
pub type SharedRegistry = Rc<RefCell<PciHostRegistry>>;

/// Creates a fresh shared registry.
pub fn shared_registry() -> SharedRegistry {
    Rc::new(RefCell::new(PciHostRegistry::new()))
}

impl ConfigAccess for SharedRegistry {
    fn config_read(&mut self, bdf: Bdf, offset: u16, size: u8) -> u32 {
        self.borrow_mut().config_read(bdf, offset, size)
    }

    fn config_write(&mut self, bdf: Bdf, offset: u16, size: u8, value: u32) {
        self.borrow_mut().config_write(bdf, offset, size, value);
    }
}

/// The single port of a [`PciHost`].
pub const PCI_HOST_PORT: PortId = PortId(0);

/// The PCI host component: serves timing configuration packets out of the
/// shared registry.
pub struct PciHost {
    name: String,
    ecam: AddrRange,
    latency: Tick,
    registry: SharedRegistry,
    blocked: TimedQueue,
    reads: Counter,
    writes: Counter,
    misses: Counter,
}

impl PciHost {
    /// Creates a host claiming the ECAM window starting at `ecam_base`,
    /// serving accesses after `latency`.
    pub fn new(
        name: impl Into<String>,
        ecam_base: u64,
        ecam_size: u64,
        latency: Tick,
        registry: SharedRegistry,
    ) -> Self {
        Self {
            name: name.into(),
            ecam: AddrRange::with_size(ecam_base, ecam_size),
            latency,
            registry,
            blocked: TimedQueue::unbounded(),
            reads: Counter::new(),
            writes: Counter::new(),
            misses: Counter::new(),
        }
    }
}

impl Component for PciHost {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, PCI_HOST_PORT);
        assert!(
            self.ecam.contains(pkt.addr()),
            "{}: {:#x} outside the ECAM window {}",
            self.name,
            pkt.addr(),
            self.ecam
        );
        assert!(
            matches!(pkt.cmd(), Command::ConfigRead | Command::ConfigWrite),
            "{}: non-config access {} into configuration space",
            self.name,
            pkt
        );
        ctx.schedule(self.latency, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { pkt, .. } = ev else {
            panic!("{}: unexpected timer", self.name)
        };
        let (bdf, offset) = ecam::decode(self.ecam.start(), pkt.addr());
        let size = pkt.size() as u8;
        let mut registry = self.registry.borrow_mut();
        if registry.lookup(bdf).is_none() {
            self.misses.inc();
        }
        let resp = match pkt.cmd() {
            Command::ConfigRead => {
                self.reads.inc();
                let v = registry.config_read(bdf, offset, size);
                let data = v.to_le_bytes()[..size as usize].to_vec();
                pkt.into_read_response(data)
            }
            Command::ConfigWrite => {
                self.writes.inc();
                let v = pkt
                    .payload()
                    .map(|p| {
                        let mut b = [0u8; 4];
                        b[..p.len().min(4)].copy_from_slice(&p[..p.len().min(4)]);
                        u32::from_le_bytes(b)
                    })
                    .expect("config write without payload");
                registry.config_write(bdf, offset, size, v);
                pkt.into_response()
            }
            other => panic!("{}: unexpected {other:?}", self.name),
        };
        drop(registry);
        self.blocked.push(resp);
        self.blocked.flush(ctx, PCI_HOST_PORT);
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.blocked.unblock();
        self.blocked.flush(ctx, PCI_HOST_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("config_reads", &self.reads);
        out.counter("config_writes", &self.writes);
        out.counter("absent_function_accesses", &self.misses);
    }

    pcisim_kernel::state_fields!(component self;
        blocked, reads, writes, misses,
        // The host is the single owner of every configuration space in the
        // tree (endpoints and VP2Ps alike register here; routers and AER
        // reporters hold Rc clones), so their register values are saved
        // exactly once, in ascending BDF order, each checked against the
        // registry on load. Write masks are set at construction time and
        // not saved.
        save(w) {
            let registry = self.registry.borrow();
            let bdfs = registry.bdfs();
            w.usize(bdfs.len());
            for bdf in bdfs {
                w.u8(bdf.bus);
                w.u8(bdf.device);
                w.u8(bdf.function);
                let cs = registry.lookup(bdf).expect("bdf came from the registry");
                let cs = cs.borrow();
                w.bytes(cs.bytes());
            }
        }
        load(r) {
            let registry = self.registry.borrow();
            let n = r.usize()?;
            if n != registry.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "{}: checkpoint has {n} PCI functions, registry has {}",
                    self.name,
                    registry.len()
                )));
            }
            for _ in 0..n {
                let bus = r.u8()?;
                let device = r.u8()?;
                let function = r.u8()?;
                let image = r.bytes()?;
                if device >= 32 || function >= 8 || image.len() != crate::config::CONFIG_SPACE_SIZE {
                    return Err(SnapshotError::Corrupt(format!(
                        "config image for {bus:02x}:{device:02x}.{function} is {} bytes",
                        image.len()
                    )));
                }
                let bdf = Bdf::new(bus, device, function);
                let Some(cs) = registry.lookup(bdf) else {
                    return Err(SnapshotError::Corrupt(format!(
                        "checkpoint names unregistered PCI function {bdf}"
                    )));
                };
                cs.borrow_mut().load_bytes(image);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{shared, ConfigSpace};
    use crate::header::Type0Header;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::{Requester, REQUESTER_PORT};
    use pcisim_kernel::tick::ns;

    const ECAM_BASE: u64 = 0x3000_0000;

    fn registry_with_one_nic() -> SharedRegistry {
        let reg = shared_registry();
        let cs = Type0Header::new(0x8086, 0x10d3).build();
        reg.borrow_mut().register(Bdf::new(1, 0, 0), shared(cs));
        reg
    }

    #[test]
    fn functional_read_hits_registered_device() {
        let mut reg = registry_with_one_nic();
        assert_eq!(reg.config_read(Bdf::new(1, 0, 0), 0x00, 2), 0x8086);
        assert_eq!(reg.config_read(Bdf::new(1, 0, 0), 0x02, 2), 0x10d3);
    }

    #[test]
    fn absent_function_reads_all_ones() {
        let mut reg = shared_registry();
        assert_eq!(reg.config_read(Bdf::new(0, 3, 0), 0x00, 2), 0xffff);
        assert_eq!(reg.config_read(Bdf::new(0, 3, 0), 0x00, 4), 0xffff_ffff);
        assert_eq!(reg.config_read(Bdf::new(0, 3, 0), 0x00, 1), 0xff);
        // Writes to nowhere are dropped silently.
        reg.config_write(Bdf::new(0, 3, 0), 0x04, 2, 0x7);
    }

    #[test]
    #[should_panic(expected = "duplicate PCI function")]
    fn double_registration_panics() {
        let reg = registry_with_one_nic();
        let cs = shared(ConfigSpace::new());
        reg.borrow_mut().register(Bdf::new(1, 0, 0), cs);
    }

    #[test]
    fn timing_config_read_round_trip() {
        let reg = registry_with_one_nic();
        let mut sim = Simulation::new();
        let addr = ecam::encode(ECAM_BASE, Bdf::new(1, 0, 0), 0x00);
        let (req, done) = Requester::new("enum", vec![(Command::ConfigRead, addr, 2)]);
        let r = sim.add(Box::new(req));
        let h = sim.add(Box::new(PciHost::new(
            "pcihost",
            ECAM_BASE,
            ecam::ECAM_WINDOW_SIZE,
            ns(20),
            reg,
        )));
        sim.connect((r, REQUESTER_PORT), (h, PCI_HOST_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, ns(20));
        let stats = sim.stats();
        assert_eq!(stats.get("pcihost.config_reads"), Some(1.0));
        assert_eq!(stats.get("pcihost.absent_function_accesses"), Some(0.0));
    }

    #[test]
    fn timing_access_to_absent_function_counts_miss() {
        let reg = shared_registry();
        let mut sim = Simulation::new();
        let addr = ecam::encode(ECAM_BASE, Bdf::new(0, 9, 0), 0x00);
        let (req, done) = Requester::new("enum", vec![(Command::ConfigRead, addr, 4)]);
        let r = sim.add(Box::new(req));
        let h = sim.add(Box::new(PciHost::new(
            "pcihost",
            ECAM_BASE,
            ecam::ECAM_WINDOW_SIZE,
            ns(20),
            reg,
        )));
        sim.connect((r, REQUESTER_PORT), (h, PCI_HOST_PORT));
        sim.run_to_quiesce();
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(sim.stats().get("pcihost.absent_function_accesses"), Some(1.0));
    }

    #[test]
    fn timing_config_write_lands_in_the_device() {
        let reg = registry_with_one_nic();
        let mut sim = Simulation::new();
        let addr = ecam::encode(ECAM_BASE, Bdf::new(1, 0, 0), 0x04); // command reg
        let (req, done) = Requester::new("enum", vec![(Command::ConfigWrite, addr, 2)]);
        let r = sim.add(Box::new(req));
        let h = sim.add(Box::new(PciHost::new(
            "pcihost",
            ECAM_BASE,
            ecam::ECAM_WINDOW_SIZE,
            ns(20),
            reg.clone(),
        )));
        sim.connect((r, REQUESTER_PORT), (h, PCI_HOST_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "config writes are completed");
        assert_eq!(sim.stats().get("pcihost.config_writes"), Some(1.0));
        // The Requester writes zeros, which is a no-op on a fresh command
        // register; the access itself must have reached the device.
        assert_eq!(reg.borrow().lookup(Bdf::new(1, 0, 0)).unwrap().borrow().read(0x04, 2), 0);
    }

    #[test]
    #[should_panic(expected = "outside the ECAM window")]
    fn non_ecam_address_panics() {
        let reg = shared_registry();
        let mut sim = Simulation::new();
        let (req, _) = Requester::new("enum", vec![(Command::ConfigRead, 0x1000, 4)]);
        let r = sim.add(Box::new(req));
        let h = sim.add(Box::new(PciHost::new(
            "pcihost",
            ECAM_BASE,
            ecam::ECAM_WINDOW_SIZE,
            ns(20),
            reg,
        )));
        sim.connect((r, REQUESTER_PORT), (h, PCI_HOST_PORT));
        sim.run_to_quiesce();
    }

    #[test]
    fn registry_lists_bdfs_sorted() {
        let reg = shared_registry();
        for bdf in [Bdf::new(2, 0, 0), Bdf::new(0, 1, 0), Bdf::new(1, 0, 0)] {
            reg.borrow_mut().register(bdf, shared(ConfigSpace::new()));
        }
        assert_eq!(
            reg.borrow().bdfs(),
            vec![Bdf::new(0, 1, 0), Bdf::new(1, 0, 0), Bdf::new(2, 0, 0)]
        );
        assert_eq!(reg.borrow().len(), 3);
    }
}
