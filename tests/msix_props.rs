//! Property-based tests of the MSI-X delivery invariants.
//!
//! A multi-queue NIC transmits a known number of frames per queue while a
//! chaos driver interleaves per-vector mask/unmask writes at arbitrary
//! times. Whatever the interleaving:
//!
//! * no cause is ever lost — a vector masked at delivery time latches in
//!   the PBA and fires on unmask, so the PBA is clean once every vector
//!   is unmasked;
//! * no doorbell is spurious — the interrupt controller sees exactly the
//!   messages the NIC sent, each on its own vector;
//! * a vector that is never masked interrupts exactly once per cause;
//! * a masked window coalesces its causes into one pending bit (the PBA
//!   is a bitmask, not a counter), so a touched vector delivers at least
//!   once and at most once per cause.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use pcisim::devices::intc::{irq_message_addr, InterruptController, INTC_FABRIC_PORT};
use pcisim::devices::nic::{
    msix_entry_offset, regs, tx_cause, tx_vector, Nic, NicConfig, MSIX_PBA_OFFSET, NIC_DMA_PORT,
    NIC_PIO_PORT,
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
const RING: u32 = 64;

/// One scripted mask-state change: at `at` ticks after setup completes,
/// write the vector-control word of `vector` to `mask`.
#[derive(Debug, Clone, Copy)]
struct ChaosOp {
    at: Tick,
    vector: u16,
    mask: bool,
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

const K_STEP: u32 = 0;
const K_CHAOS: u32 = 1;
const K_CLEANUP: u32 = 2;

/// The chaos driver: programs the MSI-X table and per-queue rings over
/// MMIO, posts every frame up front (so completion never depends on
/// interrupt servicing and the run terminates under any interleaving),
/// replays the scripted mask/unmask schedule, and finally unmasks every
/// vector and reads the PBA back.
struct ChaosDriver {
    queues: u32,
    ops: Vec<ChaosOp>,
    setup: Vec<(u64, u32)>,
    next_setup: usize,
    setup_done: bool,
    pba: Rc<RefCell<Option<u32>>>,
    stalled: VecDeque<Packet>,
}

impl ChaosDriver {
    fn new(frames: &[u32], ops: Vec<ChaosOp>, pba: Rc<RefCell<Option<u32>>>) -> Self {
        let queues = frames.len() as u32;
        let mut setup = Vec::new();
        for q in 0..queues {
            let entry = msix_entry_offset(tx_vector(q));
            let target = irq_message_addr(INTC_BASE, BASE_IRQ + q as u8);
            setup.push((entry + msix::ENTRY_ADDR_LO, target as u32));
            setup.push((entry + msix::ENTRY_ADDR_HI, (target >> 32) as u32));
            setup.push((entry + msix::ENTRY_DATA, q));
            setup.push((entry + msix::ENTRY_VECTOR_CTRL, 0));
            setup.push((regs::per_queue(regs::TDBAL, q), 0x8800_0000 + q * 0x10_0000));
            setup.push((regs::per_queue(regs::TDBAH, q), 0));
            setup.push((regs::per_queue(regs::TDLEN, q), RING));
            setup.push((regs::per_queue(regs::TX_BUFLEN, q), 256));
        }
        setup.push((regs::IMS, (0..queues).fold(0, |m, q| m | tx_cause(q))));
        for q in 0..queues {
            setup.push((regs::per_queue(regs::TDT, q), frames[q as usize] % RING));
        }
        Self { queues, ops, setup, next_setup: 0, setup_done: false, pba, stalled: VecDeque::new() }
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
                    for (i, op) in self.ops.iter().enumerate() {
                        ctx.schedule(op.at, Event::Timer { kind: K_CHAOS, data: i as u64 });
                    }
                    // Far past the last completion and the last chaos op.
                    ctx.schedule(us(5_000), Event::Timer { kind: K_CLEANUP, data: 0 });
                }
            }
            Event::Timer { kind: K_CHAOS, data } => {
                let op = self.ops[data as usize];
                self.mmio_write(
                    ctx,
                    msix_entry_offset(op.vector) + msix::ENTRY_VECTOR_CTRL,
                    u32::from(op.mask),
                );
            }
            Event::Timer { kind: K_CLEANUP, .. } => {
                for v in 0..self.queues as u16 {
                    self.mmio_write(ctx, msix_entry_offset(v) + msix::ENTRY_VECTOR_CTRL, 0);
                }
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

/// Runs one interleaving; returns per-vector doorbell counts, the final
/// PBA word, and the simulation stats.
fn run_chaos(frames: &[u32], ops: &[ChaosOp]) -> (Vec<u64>, u32, StatsSnapshot) {
    let queues = frames.len() as u32;
    let mut sim = Simulation::new();
    let mut intc = InterruptController::new("gic", AddrRange::with_size(INTC_BASE, 0x1000));
    let irq_ports: Vec<PortId> = (0..queues).map(|q| intc.route_irq(BASE_IRQ + q as u8)).collect();

    let (nic, cs) = Nic::new(
        "nic",
        NicConfig { queues, msix_capable: true, tx_wire_time: ns(500), ..NicConfig::default() },
    );
    cs.borrow_mut().write(0x10, 4, BAR0 as u32);
    // Function enable, as the system driver's RequestMsix policy does.
    let cap = find_capability(&cs.borrow(), cap_id::MSI_X).expect("msix capability present");
    let ctrl = cs.borrow().read(cap + msix::CONTROL, 2) as u16;
    cs.borrow_mut().write(cap + msix::CONTROL, 2, u32::from(ctrl | msix::CONTROL_ENABLE));

    let counts = Rc::new(RefCell::new(vec![0u64; queues as usize]));
    let pba = Rc::new(RefCell::new(None));
    let driver = ChaosDriver::new(frames, ops.to_vec(), pba.clone());

    let xbar = Crossbar::builder("dmabus")
        .num_ports(3)
        .queue_capacity(64)
        .route(AddrRange::with_size(0x8000_0000, 0x4000_0000), PortId(1))
        .route(AddrRange::with_size(INTC_BASE, 0x1000), PortId(2))
        .build();

    let drv_id = sim.add(Box::new(driver));
    let nic_id = sim.add(Box::new(nic));
    let (mem, _) = pcisim::kernel::testutil::Responder::new("mem", ns(30));
    let mem_id = sim.add(Box::new(mem));
    let xbar_id = sim.add(Box::new(xbar));
    let counter_id = sim.add(Box::new(VectorCounter { counts: counts.clone() }));
    let intc_id = sim.add(Box::new(intc));

    sim.connect((drv_id, PortId(0)), (nic_id, NIC_PIO_PORT));
    sim.connect((nic_id, NIC_DMA_PORT), (xbar_id, PortId(0)));
    sim.connect((xbar_id, PortId(1)), (mem_id, PortId(0)));
    sim.connect((xbar_id, PortId(2)), (intc_id, INTC_FABRIC_PORT));
    for (v, &port) in irq_ports.iter().enumerate() {
        sim.connect((intc_id, port), (counter_id, PortId(v as u16)));
    }

    assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    let counts = counts.borrow().clone();
    let pba = pba.borrow().expect("cleanup PBA read completed");
    (counts, pba, sim.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever mask/unmask interleaving runs against the transmit
    /// stream, every cause is delivered (latched causes drain on unmask,
    /// the PBA ends clean), nothing is spurious, untouched vectors
    /// interrupt exactly once per cause, and touched vectors deliver at
    /// least once and at most once per cause.
    #[test]
    fn any_mask_interleaving_delivers_every_cause_exactly_once(
        frames in proptest::collection::vec(1u32..12, 1..5),
        raw_ops in proptest::collection::vec((0u64..200, any::<bool>(), 0u16..4), 0..24),
    ) {
        let queues = frames.len() as u16;
        let ops: Vec<ChaosOp> = raw_ops
            .iter()
            .map(|&(at_us, mask, v)| ChaosOp { at: us(at_us), vector: v % queues, mask })
            .collect();
        let (counts, pba, stats) = run_chaos(&frames, &ops);

        // Nothing latched once every vector is unmasked again.
        prop_assert_eq!(pba, 0, "PBA must drain on the final unmask");
        // Nothing spurious, nothing lost in the fabric: the interrupt
        // controller saw exactly the doorbells the NIC sent.
        let delivered: u64 = counts.iter().sum();
        prop_assert_eq!(Some(delivered as f64), stats.get("nic.msix_irqs"));
        prop_assert_eq!(stats.get("gic.spurious"), Some(0.0));

        for q in 0..frames.len() {
            let causes = u64::from(frames[q]);
            let touched = ops.iter().any(|op| usize::from(op.vector) == q);
            if touched {
                // A masked window coalesces its causes into one PBA bit,
                // so the count can drop below the cause count — but never
                // to zero and never above it.
                prop_assert!(
                    (1..=causes).contains(&counts[q]),
                    "vector {}: {} doorbells for {} causes", q, counts[q], causes
                );
            } else {
                prop_assert_eq!(
                    counts[q], causes,
                    "untouched vector {} must interrupt exactly once per cause", q
                );
            }
        }
    }
}
