//! Conformance suite for the virtio-over-PCIe device family.
//!
//! Random trees mixing virtio-blk, virtio-net, IDE disks, e1000e NICs
//! and CXL expanders — directly attached and behind switches — are
//! planned, enumerated and run, then checked against the contracts the
//! virtqueue datapath relies on:
//!
//! * every virtio function identifies with the virtio vendor ID and the
//!   class device ID, and its vendor-specific capability chain walks
//!   clean: all four transport structures (common/notify/ISR/device
//!   config) discovered in BAR0 at the advertised offsets;
//! * every virtqueue DRAM window is non-empty, sits inside host DRAM,
//!   and is disjoint from every other ring window, every BAR of every
//!   enumerated function, and every HDM decoder window;
//! * every descriptor chain a driver submits is used exactly once:
//!   reports complete, `chains_used` matches submissions per function,
//!   and no descriptor faults fire;
//! * an out-of-range descriptor index fails loudly — NEEDS_RESET latched,
//!   `desc_faults` bumped, the chain never retired — without hanging the
//!   simulation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use pcisim::devices::cxl::CxlExpanderConfig;
use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::devices::virtio::{
    common, discover_regions, status, VirtioClass, VirtioConfig, COMMON_OFFSET, DEVICE_CFG_OFFSET,
    ISR_OFFSET, NOTIFY_MULTIPLIER, NOTIFY_OFFSET, VIRTIO_BLK_DEVICE_ID, VIRTIO_NET_DEVICE_ID,
    VIRTIO_VENDOR_ID,
};
use pcisim::kernel::addr::AddrRange;
use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
use pcisim::kernel::packet::{Command, Packet};
use pcisim::kernel::sim::{Ctx, RunOutcome};
use pcisim::kernel::tick::{ns, us, TICKS_PER_SEC};
use pcisim::pci::regs::common as pci_regs;
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::platform;
use pcisim::system::topology::{
    build_topology, Attachment, DeviceSpec, EndpointKind, Node, Topology,
};
use pcisim::system::workload::virtio::VirtioAppConfig;

/// The platform reserves sixteen ring windows.
const MAX_VIRTIO: usize = platform::VIRTIO_MAX_ENDPOINTS;

/// Derives a link configuration from one generator byte.
fn link_for(b: u8) -> LinkConfig {
    let gens = [Generation::Gen1, Generation::Gen2, Generation::Gen3];
    let widths = [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8];
    LinkConfig::new(gens[(b >> 2) as usize % gens.len()], widths[(b >> 4) as usize % widths.len()])
}

/// Consumes generator bytes to build one port attachment: empty, an
/// endpoint (virtio while the ring-window budget lasts, else IDE, e1000e
/// or a CXL expander), or (while depth remains) a switch with 1–2 ports.
fn grow_port(
    bytes: &mut std::iter::Copied<std::slice::Iter<'_, u8>>,
    depth: usize,
    count: &mut usize,
    virtio: &mut usize,
) -> Option<Attachment> {
    let b = bytes.next().unwrap_or(1);
    match b % 4 {
        0 => None,
        3 if depth > 0 => {
            let fanout = 1 + (bytes.next().unwrap_or(0) % 2) as usize;
            let ports = (0..fanout).map(|_| grow_port(bytes, depth - 1, count, virtio)).collect();
            Some(Attachment::new(link_for(b), Node::switch(RouterConfig::default(), ports)))
        }
        _ => {
            *count += 1;
            let (name, device) = match b & 0x70 {
                0x00 | 0x40 if *virtio < MAX_VIRTIO => {
                    *virtio += 1;
                    (format!("vblk{virtio}"), DeviceSpec::Virtio(VirtioConfig::default()))
                }
                0x10 | 0x50 if *virtio < MAX_VIRTIO => {
                    *virtio += 1;
                    (
                        format!("vnet{virtio}"),
                        DeviceSpec::Virtio(VirtioConfig {
                            class: VirtioClass::Net,
                            ..VirtioConfig::default()
                        }),
                    )
                }
                0x20 | 0x60 => (format!("disk{count}"), DeviceSpec::Disk(IdeDiskConfig::default())),
                0x30 => {
                    (format!("mem{count}"), DeviceSpec::CxlExpander(CxlExpanderConfig::default()))
                }
                _ => (format!("nic{count}"), DeviceSpec::Nic(NicConfig::default())),
            };
            Some(Attachment::new(link_for(b), Node::endpoint(name, device)))
        }
    }
}

/// A bounded random topology guaranteed to hold at least one virtio
/// function: up to three root ports, switches nested at most two levels.
fn grow_virtio_topology(shape: &[u8]) -> Topology {
    let mut bytes = shape.iter().copied();
    let n_roots = 1 + (bytes.next().unwrap_or(0) % 3) as usize;
    let mut count = 0usize;
    let mut virtio = 0usize;
    let mut roots: Vec<Option<Attachment>> =
        (0..n_roots).map(|_| grow_port(&mut bytes, 2, &mut count, &mut virtio)).collect();
    if virtio == 0 {
        roots[0] = Some(Attachment::new(
            LinkConfig::new(Generation::Gen2, LinkWidth::X4),
            Node::endpoint("vblk_seed", DeviceSpec::Virtio(VirtioConfig::default())),
        ));
    }
    Topology::new(RouterConfig::default(), roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The vendor-specific capability chain of every virtio function
    /// walks clean and locates all four transport structures in BAR0 at
    /// the advertised offsets, and every virtqueue ring window is
    /// disjoint from every BAR, every HDM window, and every other ring.
    #[test]
    fn capability_chains_walk_clean_and_ring_windows_are_disjoint(
        shape in proptest::collection::vec(any::<u8>(), 4..32),
    ) {
        let plan = grow_virtio_topology(&shape).plan();
        let report = plan.enumerate().expect("random virtio tree must enumerate");

        let rings: Vec<AddrRange> = plan
            .endpoints
            .iter()
            .filter(|e| e.kind.is_virtio())
            .map(|e| e.virtio_ring)
            .collect();
        prop_assert!(!rings.is_empty(), "generator must place at least one virtio function");
        let dram = platform::dram_range();
        for ep in plan.endpoints.iter().filter(|e| e.kind.is_virtio()) {
            let cs = ep.config_space.borrow();
            prop_assert_eq!(
                cs.read(pci_regs::VENDOR_ID, 2) as u16,
                VIRTIO_VENDOR_ID,
                "virtio function must carry the virtio vendor ID"
            );
            let is_blk = ep.kind == EndpointKind::VirtioBlk;
            let want_dev = if is_blk { VIRTIO_BLK_DEVICE_ID } else { VIRTIO_NET_DEVICE_ID };
            prop_assert_eq!(cs.read(pci_regs::DEVICE_ID, 2) as u16, want_dev);
            let regions =
                discover_regions(&cs).expect("the capability walk must find all structures");
            prop_assert_eq!(regions.common, COMMON_OFFSET);
            prop_assert_eq!(regions.notify, NOTIFY_OFFSET);
            prop_assert_eq!(regions.notify_multiplier, NOTIFY_MULTIPLIER);
            prop_assert_eq!(regions.isr, ISR_OFFSET);
            prop_assert_eq!(regions.device, DEVICE_CFG_OFFSET);

            let ring = ep.virtio_ring;
            prop_assert!(!ring.is_empty(), "ring window must be non-empty");
            prop_assert!(
                dram.contains(ring.start()) && dram.contains(ring.end() - 1),
                "ring {ring:?} must sit inside host DRAM {dram:?}"
            );
        }
        for (i, a) in rings.iter().enumerate() {
            for b in rings.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b), "ring windows overlap: {a:?} vs {b:?}");
            }
        }
        // No BAR of any enumerated function and no HDM window may
        // intersect a virtqueue ring.
        for d in report.endpoints().chain(report.bridges()) {
            for bar in &d.bars {
                let bar_range = AddrRange::with_size(bar.base, bar.size);
                for ring in &rings {
                    prop_assert!(
                        !ring.overlaps(&bar_range),
                        "ring {ring:?} overlaps BAR {bar_range:?} of {}",
                        d.bdf
                    );
                }
            }
        }
        for ep in plan.endpoints.iter().filter(|e| e.kind == EndpointKind::CxlExpander) {
            for ring in &rings {
                prop_assert!(
                    !ring.overlaps(&ep.hdm),
                    "ring {ring:?} overlaps HDM window {:?}",
                    ep.hdm
                );
            }
        }
    }
}

proptest! {
    // Full builds (enumeration + driver probe + a workload run per
    // virtio function) are heavier than planning, so this property takes
    // fewer cases; together with the window property above the suite
    // still crosses 128 random mixed trees.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every descriptor chain a driver submits is used exactly once:
    /// each driver reports done with its full request count, the
    /// device's `chains_used` matches the submissions aimed at it, no
    /// descriptor faults fire, and the run drains.
    #[test]
    fn every_submitted_chain_is_used_exactly_once(
        shape in proptest::collection::vec(any::<u8>(), 4..32),
        flavor in any::<u8>(),
    ) {
        let mut sys = build_topology(grow_virtio_topology(&shape));
        let mut attached = Vec::new();
        for i in 0..sys.endpoints.len() {
            let ep = &sys.endpoints[i];
            if !ep.kind.is_virtio() {
                continue;
            }
            let (name, is_net) = (ep.name.clone(), ep.kind == EndpointKind::VirtioNet);
            let requests = 4 + u32::from(flavor.wrapping_add(i as u8) % 5);
            let report = sys.attach_virtio(
                i,
                VirtioAppConfig {
                    requests,
                    queue_depth: 1 + u32::from(flavor.wrapping_add(i as u8)) % 3,
                    request_bytes: if is_net { 1514 } else { 4096 },
                    write: flavor & 1 == 1 && !is_net,
                    ..VirtioAppConfig::default()
                },
            );
            attached.push((name, requests, report));
        }
        prop_assert!(!attached.is_empty());
        let outcome = sys.sim.run(TICKS_PER_SEC, u64::MAX);
        prop_assert_eq!(outcome, RunOutcome::QueueEmpty, "the run must drain, not hang");
        let stats = sys.sim.stats();
        for (name, requests, report) in &attached {
            let r = report.borrow();
            prop_assert!(r.done, "driver on {name} must finish: {r:?}");
            prop_assert_eq!(r.requests, u64::from(*requests), "every chain must retire");
            prop_assert_eq!(
                stats.get(&format!("{name}.chains_used")),
                Some(f64::from(*requests)),
                "exactly one used-ring entry per submitted chain on {name}"
            );
            prop_assert_eq!(
                stats.get(&format!("{name}.desc_faults")),
                Some(0.0),
                "no descriptor faults on a well-formed ring"
            );
        }
    }
}

// --- The out-of-range descriptor path --------------------------------------

/// One scripted micro-op of the raw driver below.
enum RawOp {
    /// Non-posted write (MMIO register or DRAM ring word).
    Write { addr: u64, data: Vec<u8> },
    /// Wait this long before the next op (lets the device walk finish).
    Wait(pcisim::kernel::tick::Tick),
    /// 4-byte MMIO read; the value is recorded for the test to inspect.
    Read { addr: u64 },
}

const K_NEXT: u32 = 0;

/// A raw virtio driver that performs a fixed setup script and then
/// publishes a hostile avail entry — no retry logic, one op in flight.
struct RawVirtioDriver {
    name: String,
    ops: VecDeque<RawOp>,
    reads: Rc<RefCell<Vec<u32>>>,
}

impl RawVirtioDriver {
    fn new(ops: Vec<RawOp>) -> (Self, Rc<RefCell<Vec<u32>>>) {
        let reads = Rc::new(RefCell::new(Vec::new()));
        (Self { name: "raw_vdrv".into(), ops: ops.into(), reads: reads.clone() }, reads)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let Some(op) = self.ops.pop_front() else { return };
        match op {
            RawOp::Write { addr, data } => {
                let pkt = Packet::request(
                    ctx.alloc_packet_id(),
                    Command::WriteReq,
                    addr,
                    data.len() as u32,
                    ctx.self_id(),
                )
                .with_payload(data);
                ctx.try_send_request(PortId(0), pkt).expect("a lone op is never refused");
            }
            RawOp::Wait(delay) => {
                ctx.schedule(delay, Event::Timer { kind: K_NEXT, data: 0 });
            }
            RawOp::Read { addr } => {
                let pkt = Packet::request(
                    ctx.alloc_packet_id(),
                    Command::ReadReq,
                    addr,
                    4,
                    ctx.self_id(),
                );
                ctx.try_send_request(PortId(0), pkt).expect("a lone op is never refused");
            }
        }
    }
}

impl Component for RawVirtioDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(100), Event::Timer { kind: K_NEXT, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_NEXT, .. } = ev else { panic!("unexpected event") };
        self.issue(ctx);
    }

    fn recv_request(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) -> RecvResult {
        // The config-change INTx the fault raises; accept and ignore.
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        if pkt.cmd() == Command::ReadResp {
            let mut pkt = pkt;
            let data = pkt.take_payload().unwrap_or_default();
            let mut word = [0u8; 4];
            word[..data.len().min(4)].copy_from_slice(&data[..data.len().min(4)]);
            self.reads.borrow_mut().push(u32::from_le_bytes(word));
        }
        ctx.schedule(ns(100), Event::Timer { kind: K_NEXT, data: 0 });
        RecvResult::Accepted
    }
}

/// An avail entry naming a descriptor index past the ring fails loudly
/// without hanging: the walk stops, NEEDS_RESET latches in the device
/// status, `desc_faults` fires, and no chain is ever used. A second
/// doorbell on the broken queue stays inert.
#[test]
fn out_of_range_descriptor_index_fails_loudly_without_hanging() {
    let device = VirtioConfig::default();
    let queue_size = device.queue_size;
    let mut built = build_topology(Topology::virtio_blk_direct(device));
    let ep = &built.endpoints[0];
    let bar0 = ep.bar0;
    let ring = ep.virtio_ring.start();
    let (desc, avail, used) = (ring, ring + 0x1000, ring + 0x2000);
    let w32 = |addr: u64, v: u32| RawOp::Write { addr, data: v.to_le_bytes().to_vec() };
    let w16 = |addr: u64, v: u16| RawOp::Write { addr, data: v.to_le_bytes().to_vec() };
    let ops = vec![
        w32(bar0 + common::DEVICE_STATUS, status::ACKNOWLEDGE),
        w32(bar0 + common::DEVICE_STATUS, status::ACKNOWLEDGE | status::DRIVER),
        w32(
            bar0 + common::DEVICE_STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK,
        ),
        w32(bar0 + common::QUEUE_SELECT, 0),
        w32(bar0 + common::QUEUE_DESC_LO, desc as u32),
        w32(bar0 + common::QUEUE_DESC_HI, (desc >> 32) as u32),
        w32(bar0 + common::QUEUE_AVAIL_LO, avail as u32),
        w32(bar0 + common::QUEUE_AVAIL_HI, (avail >> 32) as u32),
        w32(bar0 + common::QUEUE_USED_LO, used as u32),
        w32(bar0 + common::QUEUE_USED_HI, (used >> 32) as u32),
        w32(bar0 + common::QUEUE_ENABLE, 1),
        w32(
            bar0 + common::DEVICE_STATUS,
            status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
        ),
        // Publish one avail entry whose head index is out of range.
        w16(avail + 4, queue_size),
        w16(avail + 2, 1),
        w32(bar0 + NOTIFY_OFFSET, 0),
        RawOp::Wait(us(500)),
        // A doorbell on the broken queue must stay inert.
        w32(bar0 + NOTIFY_OFFSET, 0),
        RawOp::Wait(us(100)),
        RawOp::Read { addr: bar0 + common::DEVICE_STATUS },
    ];
    let (driver, reads) = RawVirtioDriver::new(ops);
    let id = built.sim.add(Box::new(driver));
    let (mem, irq) = (built.endpoints[0].cpu_mem_port, built.endpoints[0].cpu_irq_port);
    built.sim.connect((id, PortId(0)), mem);
    built.sim.connect((id, PortId(1)), irq);

    let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
    assert_eq!(outcome, RunOutcome::QueueEmpty, "the fault path must quiesce, not hang");

    let reads = reads.borrow().clone();
    assert_eq!(reads.len(), 1, "the status read must complete");
    assert_ne!(
        reads[0] & status::NEEDS_RESET,
        0,
        "NEEDS_RESET must latch in the device status, got {:#x}",
        reads[0]
    );
    let stats = built.sim.stats();
    assert_eq!(stats.get("vblk0.desc_faults"), Some(1.0), "exactly one loud fault");
    assert_eq!(stats.get("vblk0.chains_used"), Some(0.0), "no chain may retire");
    assert_eq!(stats.get("vblk0.doorbells"), Some(2.0), "both doorbells arrive");
}
