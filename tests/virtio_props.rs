//! Property-based tests of the virtqueue completion-delivery invariants.
//!
//! A virtio-blk function processes descriptor chains while a chaos
//! driver interleaves avail publishes, doorbells (including spurious
//! ones) and per-vector MSI-X mask/unmask writes at arbitrary times.
//! Whatever the interleaving:
//!
//! * every published chain retires exactly once — the used index equals
//!   the publish count and every used-ring entry names its chain's head
//!   descriptor, in order, exactly once;
//! * no completion interrupt is lost — a vector masked at delivery time
//!   latches in the PBA and fires on unmask, so the PBA is clean once
//!   every vector is unmasked;
//! * nothing is spurious — the interrupt controller sees exactly the
//!   messages the device sent, and a vector that is never masked
//!   interrupts exactly once per retired chain.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use proptest::prelude::*;

use pcisim::devices::intc::{irq_message_addr, InterruptController, INTC_FABRIC_PORT};
use pcisim::devices::virtio::{
    common, status, Virtio, VirtioConfig, BLK_T_IN, DESC_F_NEXT, DESC_F_WRITE, MSIX_PBA_OFFSET,
    MSIX_TABLE_OFFSET, NOTIFY_OFFSET, VIRTIO_DMA_PORT, VIRTIO_PIO_PORT,
};
use pcisim::kernel::addr::AddrRange;
use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
use pcisim::kernel::packet::{Command, Packet};
use pcisim::kernel::sim::{Ctx, RunOutcome, Simulation};
use pcisim::kernel::stats::StatsSnapshot;
use pcisim::kernel::tick::{ns, us, Tick};
use pcisim::kernel::xbar::Crossbar;
use pcisim::pci::caps::{find_capability, msix};
use pcisim::pci::regs::cap_id;

const BAR0: u64 = 0x4010_0000;
const INTC_BASE: u64 = 0x2c00_0000;
const BASE_IRQ: u8 = 40;
const RING: u64 = 0x8000_0000;
const DESC: u64 = RING;
const AVAIL: u64 = RING + 0x1000;
const USED: u64 = RING + 0x2000;
const HDR: u64 = RING + 0x2_0000;
const PAYLOAD: u64 = RING + 0x4_0000;
const STATUS: u64 = RING + 0x3_0000;
/// Two vectors on a blk function: config on 0, the one queue on 1.
const VECTORS: u16 = 2;

type SharedMem = Rc<RefCell<BTreeMap<u64, u8>>>;

fn mem_write(m: &SharedMem, addr: u64, data: &[u8]) {
    let mut mem = m.borrow_mut();
    for (i, &b) in data.iter().enumerate() {
        mem.insert(addr + i as u64, b);
    }
}

fn mem_read(m: &SharedMem, addr: u64, len: usize) -> Vec<u8> {
    let mem = m.borrow();
    (0..len).map(|i| mem.get(&(addr + i as u64)).copied().unwrap_or(0)).collect()
}

fn mem_read_u16(m: &SharedMem, addr: u64) -> u16 {
    let b = mem_read(m, addr, 2);
    u16::from_le_bytes([b[0], b[1]])
}

/// Functional memory endpoint: services DMA against a shared byte map
/// after a fixed latency, like host DRAM would.
struct FuncMem {
    mem: SharedMem,
    latency: Tick,
}

impl Component for FuncMem {
    fn name(&self) -> &str {
        "mem"
    }
    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
        ctx.schedule(self.latency, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { mut pkt, .. } = ev else { panic!() };
        match pkt.cmd() {
            Command::ReadReq => {
                let data = mem_read(&self.mem, pkt.addr(), pkt.size() as usize);
                ctx.try_send_response(PortId(0), pkt.into_read_response(data)).unwrap();
            }
            Command::WriteReq | Command::Message => {
                let posted = pkt.is_posted();
                let addr = pkt.addr();
                if let Some(p) = pkt.take_payload() {
                    mem_write(&self.mem, addr, &p);
                }
                if !posted {
                    ctx.try_send_response(PortId(0), pkt.into_response()).unwrap();
                }
            }
            other => panic!("mem: unexpected {other:?}"),
        }
    }
}

/// Counts interrupt messages per vector (one input port per vector).
struct VectorCounter {
    counts: Rc<RefCell<Vec<u64>>>,
}

impl Component for VectorCounter {
    fn name(&self) -> &str {
        "vectors"
    }
    fn recv_request(&mut self, _ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(pkt.cmd(), Command::Message);
        self.counts.borrow_mut()[usize::from(port.0)] += 1;
        RecvResult::Accepted
    }
}

/// One scripted chaos action, fired `at` ticks after setup completes.
#[derive(Debug, Clone, Copy)]
enum ChaosOp {
    /// Publish the next chain on the avail ring (a CPU store to DRAM).
    Publish,
    /// Ring the queue doorbell — spurious when nothing new is published.
    Doorbell,
    /// Write the vector-control word of `vector`.
    Mask { vector: u16, mask: bool },
}

const K_STEP: u32 = 0;
const K_CHAOS: u32 = 1;
const K_CLEANUP: u32 = 2;
const K_PBA: u32 = 3;

/// The chaos driver: programs the MSI-X table and the virtqueue over
/// MMIO, replays the scripted publish/doorbell/mask schedule against
/// a descriptor table laid out up front, then unmasks every vector,
/// rings a final doorbell and reads the PBA back.
struct ChaosDriver {
    chains: u16,
    queue_size: u16,
    ops: Vec<(Tick, ChaosOp)>,
    setup: Vec<(u64, u32)>,
    next_setup: usize,
    setup_done: bool,
    published: u16,
    mem: SharedMem,
    pba: Rc<RefCell<Option<u32>>>,
    stalled: VecDeque<Packet>,
}

impl ChaosDriver {
    fn new(
        chains: u16,
        queue_size: u16,
        ops: Vec<(Tick, ChaosOp)>,
        mem: SharedMem,
        pba: Rc<RefCell<Option<u32>>>,
    ) -> Self {
        let mut setup = Vec::new();
        for v in 0..VECTORS {
            let entry = MSIX_TABLE_OFFSET + u64::from(v) * msix::ENTRY_SIZE;
            let target = irq_message_addr(INTC_BASE, BASE_IRQ + v as u8);
            setup.push((entry + msix::ENTRY_ADDR_LO, target as u32));
            setup.push((entry + msix::ENTRY_ADDR_HI, (target >> 32) as u32));
            setup.push((entry + msix::ENTRY_DATA, u32::from(v)));
            setup.push((entry + msix::ENTRY_VECTOR_CTRL, 0));
        }
        setup.extend([
            (common::DEVICE_STATUS, status::ACKNOWLEDGE),
            (common::DEVICE_STATUS, status::ACKNOWLEDGE | status::DRIVER),
            (common::DEVICE_STATUS, status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK),
            (common::CONFIG_MSIX_VECTOR, 0),
            (common::QUEUE_SELECT, 0),
            (common::QUEUE_MSIX_VECTOR, 1),
            (common::QUEUE_DESC_LO, DESC as u32),
            (common::QUEUE_DESC_HI, (DESC >> 32) as u32),
            (common::QUEUE_AVAIL_LO, AVAIL as u32),
            (common::QUEUE_AVAIL_HI, (AVAIL >> 32) as u32),
            (common::QUEUE_USED_LO, USED as u32),
            (common::QUEUE_USED_HI, (USED >> 32) as u32),
            (common::QUEUE_ENABLE, 1),
            (
                common::DEVICE_STATUS,
                status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
            ),
        ]);
        Self {
            chains,
            queue_size,
            ops,
            setup,
            next_setup: 0,
            setup_done: false,
            published: 0,
            mem,
            pba,
            stalled: VecDeque::new(),
        }
    }

    fn send(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        // Preserve MMIO ordering under backpressure: once anything is
        // stalled, everything later queues behind it.
        if !self.stalled.is_empty() {
            self.stalled.push_back(pkt);
            return;
        }
        if let Err(back) = ctx.try_send_request(PortId(0), pkt) {
            self.stalled.push_back(back);
        }
    }

    fn mmio_write(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        let id = ctx.alloc_packet_id();
        let pkt = Packet::request(id, Command::WriteReq, BAR0 + offset, 4, ctx.self_id())
            .with_payload(value.to_le_bytes().to_vec());
        self.send(ctx, pkt);
    }

    /// A CPU store publishing chain `published` on the avail ring.
    fn publish(&mut self) {
        if self.published >= self.chains {
            return;
        }
        let k = self.published;
        self.published += 1;
        let head = k * 3;
        let slot = AVAIL + 4 + u64::from(k % self.queue_size) * 2;
        mem_write(&self.mem, slot, &head.to_le_bytes());
        mem_write(&self.mem, AVAIL + 2, &self.published.to_le_bytes());
    }
}

impl Component for ChaosDriver {
    fn name(&self) -> &str {
        "chaos"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(10), Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_STEP, .. } => {
                let n = self.next_setup;
                if n < self.setup.len() {
                    self.next_setup += 1;
                    let (off, val) = self.setup[n];
                    self.mmio_write(ctx, off, val);
                } else {
                    self.setup_done = true;
                    for (i, &(at, _)) in self.ops.iter().enumerate() {
                        ctx.schedule(at, Event::Timer { kind: K_CHAOS, data: i as u64 });
                    }
                    // Far past the last completion and the last chaos op.
                    ctx.schedule(us(5_000), Event::Timer { kind: K_CLEANUP, data: 0 });
                }
            }
            Event::Timer { kind: K_CHAOS, data } => {
                let (_, op) = self.ops[data as usize];
                match op {
                    ChaosOp::Publish => self.publish(),
                    ChaosOp::Doorbell => self.mmio_write(ctx, NOTIFY_OFFSET, 0),
                    ChaosOp::Mask { vector, mask } => self.mmio_write(
                        ctx,
                        MSIX_TABLE_OFFSET
                            + u64::from(vector) * msix::ENTRY_SIZE
                            + msix::ENTRY_VECTOR_CTRL,
                        u32::from(mask),
                    ),
                }
            }
            Event::Timer { kind: K_CLEANUP, .. } => {
                // Publish any chains the schedule never got to, unmask
                // everything, ring once more and read the PBA back.
                while self.published < self.chains {
                    self.publish();
                }
                for v in 0..VECTORS {
                    self.mmio_write(
                        ctx,
                        MSIX_TABLE_OFFSET
                            + u64::from(v) * msix::ENTRY_SIZE
                            + msix::ENTRY_VECTOR_CTRL,
                        0,
                    );
                }
                self.mmio_write(ctx, NOTIFY_OFFSET, 0);
                // The drain is event-driven and the late chains still
                // have to retire; read the PBA once everything settled.
                ctx.schedule(us(5_000), Event::Timer { kind: K_PBA, data: 0 });
            }
            Event::Timer { kind: K_PBA, .. } => {
                let id = ctx.alloc_packet_id();
                let pkt =
                    Packet::request(id, Command::ReadReq, BAR0 + MSIX_PBA_OFFSET, 4, ctx.self_id());
                self.send(ctx, pkt);
            }
            other => panic!("chaos: unexpected event {other:?}"),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, mut pkt: Packet) -> RecvResult {
        match pkt.cmd() {
            Command::WriteResp => {
                if !self.setup_done {
                    ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
                }
            }
            Command::ReadResp => {
                let value = pkt
                    .take_payload()
                    .map(|p| {
                        let mut b = [0u8; 4];
                        let n = p.len().min(4);
                        b[..n].copy_from_slice(&p[..n]);
                        u32::from_le_bytes(b)
                    })
                    .unwrap_or(u32::MAX);
                *self.pba.borrow_mut() = Some(value);
            }
            other => panic!("chaos: unexpected completion {other:?}"),
        }
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        while let Some(pkt) = self.stalled.pop_front() {
            if let Err(back) = ctx.try_send_request(PortId(0), pkt) {
                self.stalled.push_front(back);
                return;
            }
        }
    }
}

/// Lays out `chains` three-descriptor read chains (header → payload →
/// status) in the shared memory, plus their header contents.
fn lay_out_chains(mem: &SharedMem, chains: u16) {
    let put_desc = |i: u16, addr: u64, len: u32, flags: u16, next: u16| {
        let mut d = [0u8; 16];
        d[0..8].copy_from_slice(&addr.to_le_bytes());
        d[8..12].copy_from_slice(&len.to_le_bytes());
        d[12..14].copy_from_slice(&flags.to_le_bytes());
        d[14..16].copy_from_slice(&next.to_le_bytes());
        mem_write(mem, DESC + u64::from(i) * 16, &d);
    };
    for k in 0..chains {
        let head = k * 3;
        put_desc(head, HDR + u64::from(k) * 0x100, 16, DESC_F_NEXT, head + 1);
        put_desc(
            head + 1,
            PAYLOAD + u64::from(k) * 0x1000,
            512,
            DESC_F_NEXT | DESC_F_WRITE,
            head + 2,
        );
        put_desc(head + 2, STATUS + u64::from(k) * 0x40, 1, DESC_F_WRITE, 0);
        let mut hdr = [0u8; 16];
        hdr[0..4].copy_from_slice(&BLK_T_IN.to_le_bytes());
        hdr[8..16].copy_from_slice(&u64::from(k).to_le_bytes());
        mem_write(mem, HDR + u64::from(k) * 0x100, &hdr);
    }
}

/// Runs one interleaving; returns per-vector doorbell counts, the final
/// PBA word, the shared memory, and the simulation stats.
fn run_chaos(chains: u16, ops: &[(Tick, ChaosOp)]) -> (Vec<u64>, u32, SharedMem, StatsSnapshot) {
    let mut sim = Simulation::new();
    let mut intc = InterruptController::new("gic", AddrRange::with_size(INTC_BASE, 0x1000));
    let irq_ports: Vec<PortId> = (0..VECTORS).map(|v| intc.route_irq(BASE_IRQ + v as u8)).collect();

    let config = VirtioConfig { msix_capable: true, ..VirtioConfig::default() };
    let queue_size = config.queue_size;
    let (dev, cs) = Virtio::new("vblk", config);
    cs.borrow_mut().write(0x10, 4, BAR0 as u32);
    // Function enable, as the system driver's RequestMsix policy does.
    let cap = find_capability(&cs.borrow(), cap_id::MSI_X).expect("msix capability present");
    let ctrl = cs.borrow().read(cap + msix::CONTROL, 2) as u16;
    cs.borrow_mut().write(cap + msix::CONTROL, 2, u32::from(ctrl | msix::CONTROL_ENABLE));

    let mem: SharedMem = Rc::new(RefCell::new(BTreeMap::new()));
    lay_out_chains(&mem, chains);
    let counts = Rc::new(RefCell::new(vec![0u64; usize::from(VECTORS)]));
    let pba = Rc::new(RefCell::new(None));
    let driver = ChaosDriver::new(chains, queue_size, ops.to_vec(), mem.clone(), pba.clone());

    let xbar = Crossbar::builder("dmabus")
        .num_ports(3)
        .queue_capacity(64)
        .route(AddrRange::with_size(0x8000_0000, 0x4000_0000), PortId(1))
        .route(AddrRange::with_size(INTC_BASE, 0x1000), PortId(2))
        .build();

    let drv_id = sim.add(Box::new(driver));
    let dev_id = sim.add(Box::new(dev));
    let mem_id = sim.add(Box::new(FuncMem { mem: mem.clone(), latency: ns(30) }));
    let xbar_id = sim.add(Box::new(xbar));
    let counter_id = sim.add(Box::new(VectorCounter { counts: counts.clone() }));
    let intc_id = sim.add(Box::new(intc));

    sim.connect((drv_id, PortId(0)), (dev_id, VIRTIO_PIO_PORT));
    sim.connect((dev_id, VIRTIO_DMA_PORT), (xbar_id, PortId(0)));
    sim.connect((xbar_id, PortId(1)), (mem_id, PortId(0)));
    sim.connect((xbar_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
    for (v, &port) in irq_ports.iter().enumerate() {
        sim.connect((intc_id, port), (counter_id, PortId(v as u16)));
    }

    assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    let counts = counts.borrow().clone();
    let pba = pba.borrow().expect("cleanup PBA read completed");
    (counts, pba, mem, sim.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever publish/doorbell/mask interleaving runs against the
    /// queue, every published chain is used exactly once and in order,
    /// every completion is delivered (latched causes drain on unmask,
    /// the PBA ends clean), and nothing is spurious.
    #[test]
    fn any_interleaving_delivers_every_completion_exactly_once(
        chains in 1u16..12,
        raw_ops in proptest::collection::vec((0u64..200, 0u8..8), 0..32),
    ) {
        let ops: Vec<(Tick, ChaosOp)> = raw_ops
            .iter()
            .map(|&(at_us, what)| {
                let op = match what {
                    0..=2 => ChaosOp::Publish,
                    3 | 4 => ChaosOp::Doorbell,
                    _ => ChaosOp::Mask { vector: u16::from(what) % VECTORS, mask: what & 1 == 1 },
                };
                (us(at_us), op)
            })
            .collect();
        let masked_queue = ops
            .iter()
            .any(|(_, op)| matches!(op, ChaosOp::Mask { vector: 1, .. }));
        let (counts, pba, mem, stats) = run_chaos(chains, &ops);

        // Every published chain retired exactly once, in order.
        prop_assert_eq!(mem_read_u16(&mem, USED + 2), chains, "used index == publish count");
        for k in 0..chains {
            let elem = USED + 4 + u64::from(k % 128) * 8;
            let id = mem_read(&mem, elem, 4);
            let id = u32::from_le_bytes([id[0], id[1], id[2], id[3]]);
            prop_assert_eq!(id, u32::from(k * 3), "used entry {} must name its head", k);
        }
        prop_assert_eq!(stats.get("vblk.chains_used"), Some(f64::from(chains)));
        prop_assert_eq!(stats.get("vblk.desc_faults"), Some(0.0));

        // Nothing latched once every vector is unmasked again.
        prop_assert_eq!(pba, 0, "PBA must drain on the final unmask");
        // Nothing spurious, nothing lost in the fabric.
        let delivered: u64 = counts.iter().sum();
        prop_assert_eq!(Some(delivered as f64), stats.get("vblk.msix_irqs"));
        prop_assert_eq!(stats.get("gic.spurious"), Some(0.0));
        prop_assert_eq!(counts[0], 0, "no config event may fire");
        let causes = u64::from(chains);
        if masked_queue {
            // A masked window coalesces its causes into one PBA bit, so
            // the count can drop below the cause count — but never to
            // zero and never above it.
            prop_assert!(
                (1..=causes).contains(&counts[1]),
                "queue vector: {} doorbells for {} causes", counts[1], causes
            );
        } else {
            prop_assert_eq!(
                counts[1], causes,
                "an unmasked queue vector must interrupt exactly once per chain"
            );
        }
    }
}
