//! The DMA master port every requester endpoint sits on.
//!
//! A device model is a register-level protocol state machine; everything
//! between "I want this TLP on the fabric" and "its completion is back" is
//! the same for all of them and lives here, once. [`DmaEngine`] owns the
//! port and keeps these rules:
//!
//! * **Ordered lane.** [`DmaEngine::send`] offers a TLP to the port at
//!   once when nothing is stalled, otherwise queues it behind what is;
//!   TLPs leave in the order they were handed in. A refused TLP becomes
//!   *the* stalled TLP — there is never more than one — and
//!   [`DmaEngine::ready`] turns false, which is what the lazy feeders (the
//!   NIC's job chunker, the disk's sector chunker) gate on so they only
//!   materialise a TLP the port can be offered.
//! * **Interrupt lane.** [`DmaEngine::send_interrupt`] offers an MSI-X
//!   doorbell write at once, ahead of anything queued or stalled; refused
//!   doorbells wait in their own queue and are re-offered first on a
//!   retry grant. Their completions are matched by id and never touch the
//!   ordered lane's accounting. (A legacy MSI/INTx *message* is a posted
//!   TLP that must not pass earlier posted writes, so it rides the ordered
//!   lane like any other.)
//! * **Bookkeeping at receive, continuation on the pump event.**
//!   [`DmaEngine::on_response`] does all accounting inside the receive
//!   handler and schedules exactly one zero-delay pump event per
//!   completion; the device advances its protocol from that event, so no
//!   request is ever issued from inside a receive handler. A tagged
//!   request's completion is handed back exactly once, through
//!   [`DmaEngine::take_completion`] on its own pump event.
//! * **Record at acceptance.** One `DmaRead`/`DmaWrite` trace record and
//!   one TLP/byte count per data TLP, at the moment the port accepts it —
//!   first offer or retry alike.
//! * **Error latch.** A completion with an error status latches in the
//!   function's config space the way a PCIe requester reports it:
//!
//!   | completion status | Status register        | AER uncorrectable   |
//!   |-------------------|------------------------|---------------------|
//!   | UR                | Received Master Abort  | Unsupported Request |
//!   | CA                | Received Target Abort  | —                   |
//!   | timeout           | —                      | Completion Timeout  |

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use pcisim_kernel::component::{Event, PortId};
use pcisim_kernel::packet::{Command, CompletionStatus, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{Bounded, State};
use pcisim_kernel::state_fields;
use pcisim_kernel::stats::{Counter, Histogram};
use pcisim_kernel::tick::Tick;
use pcisim_kernel::trace::{TraceCategory, TraceKind};
use pcisim_pci::caps::aer_record_uncorrectable;
use pcisim_pci::config::SharedConfigSpace;
use pcisim_pci::regs::{aer, common, status};

/// What a device remembers about an outstanding request until its
/// completion comes back: small, `Copy`, and checkpointable.
pub(crate) trait DmaTag: Copy + Default + State {}

impl<T: Copy + Default + State> DmaTag for T {}

/// The one owner of an endpoint's DMA master port. See the module docs
/// for the ordering rules.
pub(crate) struct DmaEngine<T> {
    port: PortId,
    /// Timer kind of the device's pump event.
    pump_kind: u32,
    config_space: SharedConfigSpace,
    /// TLPs waiting behind the stalled one, oldest first. Non-empty only
    /// while `stalled` is occupied.
    queue: VecDeque<(Packet, Option<T>)>,
    stalled: Option<Packet>,
    stalled_tag: Option<T>,
    /// Doorbell writes refused by the fabric, awaiting a retry grant.
    irq_stalled: VecDeque<Packet>,
    /// Packet ids of in-flight doorbell writes: their completions must
    /// not be confused with ordered-lane completions.
    irq_inflight: BTreeSet<u64>,
    /// Acceptance tick and tag of every in-flight read or tagged request.
    inflight: BTreeMap<u64, (Tick, Option<T>)>,
    /// Non-posted ordered-lane requests accepted and not yet completed.
    outstanding: u32,
    /// Tagged completions waiting for their pump event.
    completed: VecDeque<(T, Vec<u8>)>,
    /// DMA read TLPs the port accepted.
    pub read_tlps: Counter,
    /// DMA write TLPs the port accepted.
    pub write_tlps: Counter,
    /// MSI/INTx messages the port accepted (they carry no DMA data).
    pub message_tlps: Counter,
    /// Payload bytes of the accepted read and write TLPs.
    pub bytes: Counter,
    /// Fresh TLPs (either lane) the port refused on first offer.
    pub stalls: Counter,
    /// Completions that came back with an error status (UR/CA/timeout).
    pub error_completions: Counter,
    /// Round-trip latency of DMA reads, acceptance to completion, in ticks.
    pub read_latency: Histogram,
}

impl<T: DmaTag> DmaEngine<T> {
    /// Creates the engine for `port`; completions schedule
    /// `Event::Timer { kind: pump_kind, .. }` and errors latch into
    /// `config_space`.
    pub fn new(port: PortId, pump_kind: u32, config_space: SharedConfigSpace) -> Self {
        Self {
            port,
            pump_kind,
            config_space,
            queue: VecDeque::new(),
            stalled: None,
            stalled_tag: None,
            irq_stalled: VecDeque::new(),
            irq_inflight: BTreeSet::new(),
            inflight: BTreeMap::new(),
            outstanding: 0,
            completed: VecDeque::new(),
            read_tlps: Counter::default(),
            write_tlps: Counter::default(),
            message_tlps: Counter::default(),
            bytes: Counter::default(),
            stalls: Counter::default(),
            error_completions: Counter::default(),
            read_latency: Histogram::default(),
        }
    }

    /// Whether the port can be offered an ordered-lane TLP right now.
    pub fn ready(&self) -> bool {
        self.stalled.is_none()
    }

    /// Whether every ordered-lane TLP handed in so far has left the port
    /// and every non-posted one has completed — the job/sector barrier.
    pub fn drained(&self) -> bool {
        self.stalled.is_none() && self.outstanding == 0
    }

    /// Hands a TLP to the ordered lane. With `Some(tag)` its completion
    /// (payload included) comes back through [`Self::take_completion`].
    pub fn send(&mut self, ctx: &mut Ctx<'_>, pkt: Packet, tag: Option<T>) {
        if self.stalled.is_some() {
            self.queue.push_back((pkt, tag));
        } else if let Err(back) = self.offer(ctx, pkt, tag) {
            self.stalls.inc();
            self.stalled = Some(back);
            self.stalled_tag = tag;
        }
    }

    /// Offers a doorbell write on the interrupt lane.
    pub fn send_interrupt(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if !pkt.is_posted() {
            self.irq_inflight.insert(pkt.id().0);
        }
        if let Err(back) = ctx.try_send_request(self.port, pkt) {
            self.stalls.inc();
            self.irq_stalled.push_back(back);
        }
    }

    /// The single place an ordered-lane TLP meets the port, first offer
    /// or retry: everything that must happen per accepted TLP happens here.
    fn offer(&mut self, ctx: &mut Ctx<'_>, pkt: Packet, tag: Option<T>) -> Result<(), Packet> {
        let (id, cmd, size, posted) = (pkt.id(), pkt.cmd(), pkt.size(), pkt.is_posted());
        ctx.try_send_request(self.port, pkt)?;
        let kind = match cmd {
            Command::ReadReq => {
                self.read_tlps.inc();
                Some(TraceKind::DmaRead)
            }
            Command::WriteReq => {
                self.write_tlps.inc();
                Some(TraceKind::DmaWrite)
            }
            _ => {
                self.message_tlps.inc();
                None
            }
        };
        if let Some(kind) = kind {
            self.bytes.add(u64::from(size));
            ctx.emit(TraceCategory::Device, kind, Some(id), None, u64::from(size));
        }
        if cmd == Command::ReadReq || tag.is_some() {
            self.inflight.insert(id.0, (ctx.now(), tag));
        }
        if !posted {
            self.outstanding += 1;
        }
        Ok(())
    }

    /// The device's `recv_response` for the DMA port: bookkeeping now,
    /// continuation on the pump event.
    pub fn on_response(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        assert!(
            matches!(pkt.cmd(), Command::ReadResp | Command::WriteResp),
            "unexpected DMA response {pkt}"
        );
        if pkt.is_error() {
            // The request master-aborted or timed out somewhere in the
            // fabric (reads delivered all-ones). The engine keeps running
            // — a real device DMAs garbage, it does not wedge — but the
            // failure latches where software can see it.
            self.error_completions.inc();
            self.latch_error(pkt.status());
        }
        let id = pkt.id().0;
        if self.irq_inflight.remove(&id) {
            return;
        }
        // The disk tracks nothing per TLP; spare it the hash.
        let tracked = if self.inflight.is_empty() { None } else { self.inflight.remove(&id) };
        let mut delivered = 0;
        if let Some((issued, tag)) = tracked {
            if pkt.cmd() == Command::ReadResp {
                self.read_latency.record((ctx.now() - issued) as f64);
            }
            if let Some(tag) = tag {
                self.completed.push_back((tag, pkt.take_payload().unwrap_or_default()));
                delivered = 1;
            }
        }
        self.outstanding -= 1;
        ctx.schedule(0, Event::Timer { kind: self.pump_kind, data: delivered });
    }

    /// In the pump event's handler: the tagged completion this event was
    /// scheduled for (`data` is the event's data word), if it had one.
    pub fn take_completion(&mut self, data: u64) -> Option<(T, Vec<u8>)> {
        if data == 1 {
            self.completed.pop_front()
        } else {
            None
        }
    }

    /// The device's `retry_granted` for the DMA port: doorbells first,
    /// then the stalled TLP, then whatever queued behind it. Returns
    /// [`Self::ready`], i.e. whether a lazy feeder may go on.
    pub fn retry(&mut self, ctx: &mut Ctx<'_>) -> bool {
        while let Some(pkt) = self.irq_stalled.pop_front() {
            if let Err(back) = ctx.try_send_request(self.port, pkt) {
                self.irq_stalled.push_front(back);
                return false;
            }
        }
        if let Some(pkt) = self.stalled.take() {
            let tag = self.stalled_tag.take();
            if let Err(back) = self.offer(ctx, pkt, tag) {
                self.stalled = Some(back);
                self.stalled_tag = tag;
                return false;
            }
        }
        while let Some((pkt, tag)) = self.queue.pop_front() {
            if let Err(back) = self.offer(ctx, pkt, tag) {
                self.stalls.inc();
                self.stalled = Some(back);
                self.stalled_tag = tag;
                return false;
            }
        }
        true
    }

    /// The error-latch table of the module docs.
    fn latch_error(&self, completion: CompletionStatus) {
        let (status_bit, aer_bit) = match completion {
            CompletionStatus::UnsupportedRequest => {
                (status::RECEIVED_MASTER_ABORT, aer::uncor::UNSUPPORTED_REQUEST)
            }
            CompletionStatus::CompleterAbort => (status::RECEIVED_TARGET_ABORT, 0),
            CompletionStatus::CompletionTimeout => (0, aer::uncor::COMPLETION_TIMEOUT),
            CompletionStatus::SuccessfulCompletion => return,
        };
        let mut cs = self.config_space.borrow_mut();
        if status_bit != 0 {
            let st = cs.read(common::STATUS, 2) as u16;
            cs.init_u16(common::STATUS, st | status_bit);
        }
        if aer_bit != 0 {
            aer_record_uncorrectable(&mut cs, aer_bit, 0);
        }
    }
}

/// Queues, in-flight tracking and counters.
impl<T: DmaTag> State for DmaEngine<T> {
    state_fields!(state self;
        queue,
        // The stalled packet and its tag travel as one optional pair: the
        // tag is written only behind a stalled packet.
        save(w) {
            w.bool(self.stalled.is_some());
            if let Some(pkt) = &self.stalled {
                pkt.save(w);
                self.stalled_tag.save(w);
            }
        }
        load(r) {
            (self.stalled, self.stalled_tag) =
                if r.bool()? { (Some(Packet::read(r)?), Option::read(r)?) } else { (None, None) };
        },
        irq_stalled, irq_inflight, inflight, outstanding, completed, read_tlps, write_tlps,
        message_tlps, bytes, stalls, error_completions, read_latency,
    );
}

/// Every tag the engine holds — queued, stalled, in flight, completed —
/// is within the device's bound (its queue count, say).
impl<B, T: DmaTag + Bounded<B>> Bounded<B> for DmaEngine<T> {
    fn within(&self, bound: &B) -> bool {
        self.queue.iter().all(|(_, tag)| tag.within(bound))
            && self.stalled_tag.within(bound)
            && self.inflight.values().all(|(_, tag)| tag.within(bound))
            && self.completed.iter().all(|(tag, _)| tag.within(bound))
    }
}

#[cfg(test)]
impl<T> DmaEngine<T> {
    /// Every tag the engine holds, for tests that corrupt one.
    pub(crate) fn tags_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.queue
            .iter_mut()
            .filter_map(|(_, tag)| tag.as_mut())
            .chain(self.stalled_tag.as_mut())
            .chain(self.inflight.values_mut().filter_map(|(_, tag)| tag.as_mut()))
            .chain(self.completed.iter_mut().map(|(tag, _)| tag))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    use pcisim_kernel::component::{Component, ComponentId, RecvResult};
    use pcisim_kernel::packet::PacketId;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::check_state_codec;
    use pcisim_kernel::tick::{ns, us};
    use pcisim_pci::caps::{aer_status, msix};
    use pcisim_pci::config::shared;

    use super::*;
    use crate::ide::{self, ide_config_space, IdeDisk, IdeDiskConfig};
    use crate::nic::{self, Nic, NicConfig};
    use crate::testkit::{patch_section, Gate, GateLog, Guest, GATE_PORT};
    use crate::virtio::{self, Virtio, VirtioConfig};
    use pcisim_kernel::snapshot::SnapshotError;

    // --- the engine on its own ---------------------------------------------

    const K_PUMP: u32 = 7;

    enum Step {
        Read(u64, Option<u8>),
        Write(u64, Option<u8>),
        Posted(u64),
        Doorbell(u64),
    }

    /// A device that is nothing but the engine: runs its script at t = 0
    /// and reports pump events and delivered completions.
    struct Probe {
        dma: DmaEngine<u8>,
        script: Vec<Step>,
        pumps: Rc<Cell<u32>>,
        delivered: Rc<RefCell<Vec<(u8, usize)>>>,
    }

    impl Component for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { kind, data } = ev else { panic!("probe: {ev:?}") };
            if kind == K_PUMP {
                self.pumps.set(self.pumps.get() + 1);
                if let Some((tag, payload)) = self.dma.take_completion(data) {
                    self.delivered.borrow_mut().push((tag, payload.len()));
                }
                return;
            }
            for step in std::mem::take(&mut self.script) {
                let id = ctx.alloc_packet_id();
                let me = ctx.self_id();
                let write = |addr| {
                    Packet::request(id, Command::WriteReq, addr, 4, me).with_payload(vec![0; 4])
                };
                match step {
                    Step::Read(addr, tag) => {
                        let pkt = Packet::request(id, Command::ReadReq, addr, 64, me);
                        self.dma.send(ctx, pkt, tag);
                    }
                    Step::Write(addr, tag) => self.dma.send(ctx, write(addr), tag),
                    Step::Posted(addr) => {
                        let mut pkt = write(addr);
                        pkt.set_posted(true);
                        self.dma.send(ctx, pkt, None);
                    }
                    Step::Doorbell(addr) => self.dma.send_interrupt(ctx, write(addr)),
                }
            }
        }
        fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
            self.dma.on_response(ctx, pkt);
            RecvResult::Accepted
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.dma.retry(ctx);
        }
    }

    struct ProbeRun {
        log: GateLog,
        refusals: GateLog,
        pumps: u32,
        delivered: Vec<(u8, usize)>,
    }

    fn run_probe(script: Vec<Step>, capacity: usize) -> ProbeRun {
        let mut sim = Simulation::new();
        let pumps = Rc::new(Cell::new(0));
        let delivered = Rc::new(RefCell::new(Vec::new()));
        let gate = Gate::new(ns(100), capacity);
        let (log, refusals) = (gate.log.clone(), gate.refusals.clone());
        let p = sim.add(Box::new(Probe {
            dma: DmaEngine::new(PortId(0), K_PUMP, shared(ide_config_space())),
            script,
            pumps: pumps.clone(),
            delivered: delivered.clone(),
        }));
        let g = sim.add(Box::new(gate));
        sim.connect((p, PortId(0)), (g, GATE_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let delivered = delivered.borrow().clone();
        ProbeRun { log, refusals, pumps: pumps.get(), delivered }
    }

    fn addrs(log: &GateLog) -> Vec<u64> {
        log.borrow().iter().map(|&(_, addr)| addr).collect()
    }

    #[test]
    fn ordered_lane_is_fifo_under_refusal() {
        let script = (0..6).map(|i| Step::Write(i * 64, None)).collect();
        let run = run_probe(script, 1);
        assert_eq!(addrs(&run.log), vec![0, 64, 128, 192, 256, 320]);
        assert!(!run.refusals.borrow().is_empty(), "a one-slot gate must have pushed back");
        assert_eq!(run.pumps, 6);
    }

    #[test]
    fn interrupt_lane_overtakes_a_stalled_tlp() {
        // A is in service, B stalls, C queues behind it, the doorbell D is
        // refused too — and goes out first when the gate reopens.
        let script = vec![
            Step::Write(0xa, None),
            Step::Write(0xb, None),
            Step::Write(0xc, None),
            Step::Doorbell(0xd),
        ];
        let run = run_probe(script, 1);
        assert_eq!(addrs(&run.log), vec![0xa, 0xd, 0xb, 0xc]);
        assert_eq!(addrs(&run.refusals)[..2], [0xb, 0xd]);
    }

    #[test]
    fn one_pump_event_per_completion_and_tagged_ones_delivered_once() {
        let script = vec![
            Step::Read(0x100, Some(1)),
            Step::Read(0x200, Some(2)),
            Step::Write(0x300, Some(3)),
            Step::Write(0x400, None),
            Step::Read(0x500, None),
            Step::Posted(0x600),
            Step::Doorbell(0x700),
        ];
        let run = run_probe(script, 16);
        assert_eq!(run.log.borrow().len(), 7, "every TLP reached the fabric");
        // Five ordered-lane completions; the posted write has none and the
        // doorbell's is not the ordered lane's business.
        assert_eq!(run.pumps, 5);
        assert_eq!(run.delivered, vec![(1, 64), (2, 64), (3, 0)]);
    }

    fn packet(id: u64, cmd: Command, payload: bool) -> Packet {
        let pkt = Packet::request(PacketId(id), cmd, 0x1000 + id, 8, ComponentId(3));
        if payload {
            pkt.with_payload(vec![id as u8; 8])
        } else {
            pkt
        }
    }

    /// An engine with something in every field a checkpoint carries.
    fn busy_engine() -> DmaEngine<u8> {
        let mut e = DmaEngine::new(PortId(0), K_PUMP, shared(ide_config_space()));
        e.stalled = Some(packet(1, Command::ReadReq, false));
        e.stalled_tag = Some(9);
        e.queue.push_back((packet(2, Command::WriteReq, true), None));
        e.queue.push_back((packet(3, Command::ReadReq, false), Some(4)));
        e.irq_stalled.push_back(packet(4, Command::WriteReq, true));
        e.irq_inflight.extend([4, 5]);
        e.inflight.insert(6, (1234, Some(7)));
        e.inflight.insert(7, (5678, None));
        e.outstanding = 2;
        e.completed.push_back((8, vec![1, 2, 3]));
        e.read_tlps.add(3);
        e.read_latency.record(99.0);
        e
    }

    #[test]
    fn engine_survives_the_hostile_bytes_check() {
        check_state_codec(&busy_engine(), || {
            DmaEngine::new(PortId(0), K_PUMP, shared(ide_config_space()))
        });
    }

    #[test]
    fn engine_tags_are_checked_against_their_bound() {
        assert!(busy_engine().within(&10), "tags 4, 7, 8 and 9 are below 10");
        assert!(!busy_engine().within(&9), "the stalled tag 9 is not below 9");
    }

    // --- the three endpoints over the engine ---------------------------------

    const BAR0: u64 = 0x4000_0000;
    const RING: u64 = 0x8000_0000;
    const INTX: Option<(u8, u64)> = Some((5, 0x2c00_0000));

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Dut {
        Ide,
        Nic,
        VirtioBlk,
    }

    const DUTS: [Dut; 3] = [Dut::Ide, Dut::Nic, Dut::VirtioBlk];

    /// One 512-byte virtio-blk read published on queue 0's rings at `RING`.
    fn lay_out_blk_read(gate: &mut Gate) {
        let desc = |addr: u64, len: u32, flags: u16, next: u16| {
            let mut d = [0u8; 16];
            d[0..8].copy_from_slice(&addr.to_le_bytes());
            d[8..12].copy_from_slice(&len.to_le_bytes());
            d[12..14].copy_from_slice(&flags.to_le_bytes());
            d[14..16].copy_from_slice(&next.to_le_bytes());
            d
        };
        let (next, write) = (virtio::DESC_F_NEXT, virtio::DESC_F_WRITE);
        gate.write(RING, &desc(RING + 0x4000, 16, next, 1));
        gate.write(RING + 16, &desc(RING + 0x5000, 512, next | write, 2));
        gate.write(RING + 32, &desc(RING + 0x6000, 1, write, 0));
        // Header at RING + 0x4000 is all zeroes: BLK_T_IN of sector 0.
        gate.write(RING + 0x1000 + 2, &1u16.to_le_bytes()); // avail.idx
    }

    fn virtio_bring_up() -> Vec<(u64, u32)> {
        use virtio::{common, status};
        vec![
            (common::QUEUE_SELECT, 0),
            (common::QUEUE_DESC_LO, RING as u32),
            (common::QUEUE_AVAIL_LO, (RING + 0x1000) as u32),
            (common::QUEUE_USED_LO, (RING + 0x2000) as u32),
            (common::QUEUE_ENABLE, 1),
            (
                common::DEVICE_STATUS,
                status::ACKNOWLEDGE | status::DRIVER | status::FEATURES_OK | status::DRIVER_OK,
            ),
            (virtio::NOTIFY_OFFSET, 0),
        ]
    }

    /// guest → device under test → gate. The device is named `dut`.
    fn rig(dut: Dut, mut gate: Gate) -> (Simulation, SharedConfigSpace) {
        let (dev, cs, writes): (Box<dyn Component>, _, _) = match dut {
            Dut::Ide => {
                let (d, cs) =
                    IdeDisk::new("dut", IdeDiskConfig { intx: INTX, ..Default::default() });
                let writes = vec![
                    (ide::regs::SECTOR_COUNT, 2),
                    (ide::regs::DMA_ADDR_LO, 0x8000_0000),
                    (ide::regs::COMMAND, ide::CMD_READ_DMA),
                ];
                (Box::new(d), cs, writes)
            }
            Dut::Nic => {
                let (d, cs) = Nic::new("dut", NicConfig { intx: INTX, ..Default::default() });
                let writes = vec![
                    (nic::regs::TDBAL, 0x8800_0000),
                    (nic::regs::TDLEN, 64),
                    (nic::regs::TX_BUFLEN, 256),
                    (nic::regs::IMS, nic::INT_TXDW),
                    (nic::regs::TDT, 2),
                ];
                (Box::new(d), cs, writes)
            }
            Dut::VirtioBlk => {
                // No INTx target: virtio counts its interrupt messages
                // among the write TLPs, which would blur the tables below.
                let (d, cs) = Virtio::new("dut", VirtioConfig::default());
                lay_out_blk_read(&mut gate);
                (Box::new(d), cs, virtio_bring_up())
            }
        };
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        let mut sim = Simulation::new();
        let guest = sim.add(Box::new(Guest::new(BAR0, writes)));
        let d = sim.add(dev);
        let g = sim.add(Box::new(gate));
        // All three endpoints put PIO on port 0 and DMA on port 1.
        sim.connect((guest, PortId(0)), (d, PortId(0)));
        sim.connect((d, PortId(1)), (g, GATE_PORT));
        (sim, cs)
    }

    #[test]
    fn dma_error_completions_latch_on_every_endpoint() {
        use CompletionStatus::*;
        let (rma, rta) = (status::RECEIVED_MASTER_ABORT, status::RECEIVED_TARGET_ABORT);
        let table = [
            (UnsupportedRequest, rma, aer::uncor::UNSUPPORTED_REQUEST),
            (CompleterAbort, rta, 0),
            (CompletionTimeout, 0, aer::uncor::COMPLETION_TIMEOUT),
        ];
        for dut in DUTS {
            for (completion, status_bits, aer_bits) in table {
                let mut gate = Gate::new(ns(40), 4);
                gate.status = completion;
                let (mut sim, cs) = rig(dut, gate);
                assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty, "{dut:?} must not wedge");
                let cs = cs.borrow();
                let latched = cs.read(common::STATUS, 2) as u16 & (rma | rta);
                assert_eq!(latched, status_bits, "{dut:?} {completion:?}: Status");
                assert_eq!(aer_status(&cs).0, aer_bits, "{dut:?} {completion:?}: AER");
            }
        }
    }

    #[test]
    fn one_dma_trace_record_per_accepted_tlp() {
        for dut in DUTS {
            let gate = Gate::new(ns(40), 2);
            let refusals = gate.refusals.clone();
            let (mut sim, _cs) = rig(dut, gate);
            sim.set_trace_mask(TraceCategory::Device.bit());
            assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
            assert!(!refusals.borrow().is_empty(), "{dut:?}: the gate must have pushed back");
            let records = sim
                .take_trace()
                .events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::DmaRead | TraceKind::DmaWrite))
                .count();
            let stats = sim.stats();
            let tlps = match dut {
                Dut::Ide => stats.get("dut.dma_tlps"),
                _ => Some(
                    stats.get("dut.dma_read_tlps").unwrap()
                        + stats.get("dut.dma_write_tlps").unwrap(),
                ),
            };
            assert!(records > 0);
            assert_eq!(Some(records as f64), tlps, "{dut:?}");
        }
    }

    /// Cuts `dut`'s rig at each event until `misroute` finds a DMA queue
    /// number in the device, patches that one byte past the device's
    /// queues (see [`patch_section`]) and restores a fresh rig from the
    /// re-sealed image.
    fn restore_misrouted<C: Component>(
        dut: Dut,
        fresh: impl Fn() -> C,
        misroute: impl Fn(&mut C) -> bool,
    ) -> Result<(), SnapshotError> {
        let (mut reference, _) = rig(dut, Gate::new(ns(40), 1));
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        for cut in 1..reference.events_processed() {
            let (mut sim, _) = rig(dut, Gate::new(ns(40), 1));
            sim.run(us(1000), cut);
            let snap = sim.checkpoint();
            let names = sim.take_trace().names;
            if let Some(patched) = patch_section(&snap, &names, "dut", fresh(), &misroute) {
                return rig(dut, Gate::new(ns(40), 1)).0.restore(&patched);
            }
        }
        panic!("{dut:?} never held a DMA queue number");
    }

    #[test]
    fn a_nic_dma_job_on_a_missing_queue_is_corrupt() {
        let fresh = || Nic::new("dut", NicConfig { intx: INTX, ..Default::default() }).0;
        let err = restore_misrouted(Dut::Nic, fresh, Nic::misroute_a_dma_job).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn a_virtio_dma_tag_on_a_missing_queue_is_corrupt() {
        let fresh = || Virtio::new("dut", VirtioConfig::default()).0;
        let err = restore_misrouted(Dut::VirtioBlk, fresh, Virtio::misroute_a_dma_tag).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    /// Four TX queues with MSI-X and a short moderation window against a
    /// one-slot gate, under a guest that sits on its first completions:
    /// data TLPs stall, deferred doorbells fire into a busy port, and PIO
    /// responses block.
    fn backpressured_msix_nic() -> (Simulation, GateLog) {
        let queues = 4;
        let config =
            NicConfig { queues, msix_capable: true, moderation: us(3), ..Default::default() };
        let (dev, cs) = Nic::new("dut", config);
        cs.borrow_mut().write(0x10, 4, BAR0 as u32);
        cs.borrow_mut().write(0xa0 + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        let mut writes = Vec::new();
        let mut ims = 0;
        for q in 0..queues {
            let e = nic::msix_entry_offset(nic::tx_vector(q));
            writes.push((e + msix::ENTRY_ADDR_LO, 0x2c00_0000 + q * 4));
            writes.push((e + msix::ENTRY_DATA, 0x40 + q));
            writes.push((e + msix::ENTRY_VECTOR_CTRL, 0));
            writes.push((nic::regs::per_queue(nic::regs::TDBAL, q), 0x8800_0000 + q * 0x10_0000));
            writes.push((nic::regs::per_queue(nic::regs::TDLEN, q), 64));
            writes.push((nic::regs::per_queue(nic::regs::TX_BUFLEN, q), 192));
            ims |= nic::tx_cause(q);
        }
        writes.push((nic::regs::IMS, ims));
        writes.extend((0..queues).map(|q| (nic::regs::per_queue(nic::regs::TDT, q), 3)));
        let mut guest = Guest::new(BAR0, writes);
        guest.refuse_responses = 2;
        let gate = Gate::new(ns(100), 1);
        let refusals = gate.refusals.clone();
        let mut sim = Simulation::new();
        let guest = sim.add(Box::new(guest));
        let d = sim.add(Box::new(dev));
        let g = sim.add(Box::new(gate));
        sim.connect((guest, PortId(0)), (d, nic::NIC_PIO_PORT));
        sim.connect((d, nic::NIC_DMA_PORT), (g, GATE_PORT));
        (sim, refusals)
    }

    #[test]
    fn a_cut_at_any_event_resumes_identically_under_backpressure() {
        let (mut reference, refusals) = backpressured_msix_nic();
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(reference.stats().get("dut.frames_tx"), Some(12.0));
        let refused = refusals.borrow().clone();
        assert!(refused.iter().any(|&(_, addr)| addr >> 16 == 0x2c00), "a doorbell must stall");
        assert!(refused.iter().any(|&(_, addr)| addr >> 16 != 0x2c00), "a data TLP must stall");
        let facts = |sim: &Simulation| (sim.now(), sim.stats().fnv(), sim.packet_ids_allocated());
        let expected = facts(&reference);
        // Every event boundary of the run is a cut point, so every state
        // the engine, the MSI-X block and the register port pass through —
        // stalled TLP, stalled doorbell, blocked PIO response — is one.
        for cut in 1..reference.events_processed() {
            let (mut interrupted, _) = backpressured_msix_nic();
            assert_eq!(interrupted.run(us(1000), cut), RunOutcome::EventLimit);
            let snap = interrupted.checkpoint();
            let (mut resumed, _) = backpressured_msix_nic();
            resumed.restore(&snap).expect("checkpoint restores");
            assert_eq!(resumed.run_to_quiesce(), RunOutcome::QueueEmpty);
            assert_eq!(facts(&resumed), expected, "cut after {cut} events");
        }
    }
}
