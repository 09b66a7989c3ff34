//! Two link oracles over random rigs: the on-demand TX kick, and TLP
//! custody.
//!
//! A link end reserves its wake-up's order stamp where the eager kick of
//! earlier builds was minted and queues it only once a frame is waiting
//! (`link::Kick`). The claim is that the surviving event stream is the
//! eager stream with idle kicks deleted, so nothing simulated can move.
//! This property drives random link configurations with random traffic in
//! both directions through both rules — the eager one
//! kept only here, as a test-only switch on the link — and demands
//! identical deliveries, statistics, traces, quiesce tick and packet ids,
//! with the event-count difference accounted for kick by kick.
//!
//! The wire carries only sequence numbers: the transmitter's replay
//! buffer owns each TLP until the receiving end takes it. The custody
//! property demands that over the same rigs every TLP comes out of the
//! link exactly once, in admission order and equal to the one admitted,
//! and that both buffers are empty at quiesce — including runs where a
//! replay goes onto the wire while its previous copy is still in flight.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use proptest::prelude::*;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet, PacketId};
use pcisim_kernel::sim::{Ctx, RunOutcome, Simulation};
use pcisim_kernel::tick::{ns, Tick, TICKS_PER_SEC};
use pcisim_kernel::trace::TraceEvent;

use crate::link::{
    Dispatch, KickOracle, PcieLink, WireStep, PORT_DOWN_MASTER, PORT_DOWN_SLAVE, PORT_UP_MASTER,
    PORT_UP_SLAVE,
};
use crate::params::{Generation, LinkConfig, LinkWidth};

/// Packets an endpoint received (or posted), in order: `(id, tick)`.
type DeliveryLog = Rc<RefCell<Vec<(PacketId, Tick)>>>;

/// Every test endpoint has this one port.
const PORT: PortId = PortId(0);

/// `(issue tick, command, address, size)`, in issue order.
type Script = Vec<(Tick, Command, u64, u32)>;

/// The wires, as indices: an endpoint sends on one and receives on the
/// other.
const DOWN: usize = 0;
const UP: usize = 1;

/// Every packet admitted into, and delivered out of, each wire, in order.
#[derive(Debug, Default)]
struct Custody {
    admitted: [RefCell<Vec<Packet>>; 2],
    delivered: [RefCell<Vec<Packet>>; 2],
}

/// Tries to send `pkt` into the link, recording it as admitted on `wire`
/// when the link takes it.
fn send_into_link(
    ctx: &mut Ctx<'_>,
    custody: &Custody,
    wire: usize,
    pkt: Packet,
) -> Result<(), Packet> {
    let copy = pkt.clone();
    let sent = if pkt.is_request() {
        ctx.try_send_request(PORT, pkt)
    } else {
        ctx.try_send_response(PORT, pkt)
    };
    if sent.is_ok() {
        custody.admitted[wire].borrow_mut().push(copy);
    }
    sent
}

/// Issues each scripted request at its tick (or behind the ones still
/// refused), logging completions and posted sends.
struct Source {
    name: &'static str,
    /// The wire it sends on.
    wire: usize,
    script: VecDeque<(Tick, Command, u64, u32)>,
    due: VecDeque<Packet>,
    waiting: bool,
    log: DeliveryLog,
    custody: Rc<Custody>,
}

impl Source {
    fn new(
        name: &'static str,
        wire: usize,
        script: &Script,
        custody: &Rc<Custody>,
    ) -> (Self, DeliveryLog) {
        let log = DeliveryLog::default();
        let source = Self {
            name,
            wire,
            script: script.iter().copied().collect(),
            due: VecDeque::new(),
            waiting: false,
            log: log.clone(),
            custody: custody.clone(),
        };
        (source, log)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(pkt) = self.due.pop_front() else { return };
            let (id, posted) = (pkt.id(), pkt.is_posted());
            match send_into_link(ctx, &self.custody, self.wire, pkt) {
                Ok(()) if posted => self.log.borrow_mut().push((id, ctx.now())),
                Ok(()) => {}
                Err(back) => {
                    self.due.push_front(back);
                    self.waiting = true;
                }
            }
        }
    }
}

impl Component for Source {
    fn name(&self) -> &str {
        self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(&(at, ..)) = self.script.front() {
            ctx.schedule(at, Event::Timer { kind: 0, data: 0 });
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
        while let Some(&(at, cmd, addr, size)) = self.script.front() {
            if at > ctx.now() {
                ctx.schedule(at - ctx.now(), Event::Timer { kind: 0, data: 0 });
                break;
            }
            self.script.pop_front();
            let id = ctx.alloc_packet_id();
            // Distinct payload bytes, a route hop and a bus number, so the
            // custody check compares every field the link carries.
            let mut pkt = Packet::request(id, cmd, addr, size, ctx.self_id());
            if cmd != Command::ReadReq {
                pkt = pkt.with_payload((0..size).map(|i| (id.0 as u32 + i) as u8).collect());
            }
            pkt.push_route(ctx.self_id(), PORT);
            pkt.stamp_pci_bus(self.wire as u8 + 1);
            self.due.push_back(pkt);
        }
        self.flush(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        self.log.borrow_mut().push((pkt.id(), ctx.now()));
        self.custody.delivered[1 - self.wire].borrow_mut().push(pkt);
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.waiting = false;
        self.flush(ctx);
    }
}

/// Logs every request it accepts, refuses the attempts its script says to
/// (granting a retry 300 ns later, as credit-mode receivers need), and
/// answers non-posted requests after `service`.
struct LogSink {
    name: &'static str,
    /// The wire it sends its responses on.
    wire: usize,
    refusals: VecDeque<bool>,
    service: Tick,
    log: DeliveryLog,
    blocked: VecDeque<Packet>,
    waiting: bool,
    custody: Rc<Custody>,
}

impl LogSink {
    fn new(
        name: &'static str,
        wire: usize,
        refusals: &[bool],
        service: Tick,
        custody: &Rc<Custody>,
    ) -> (Self, DeliveryLog) {
        let log = DeliveryLog::default();
        let sink = Self {
            name,
            wire,
            refusals: refusals.iter().copied().collect(),
            service,
            log: log.clone(),
            blocked: VecDeque::new(),
            waiting: false,
            custody: custody.clone(),
        };
        (sink, log)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(pkt) = self.blocked.pop_front() else { return };
            if let Err(back) = send_into_link(ctx, &self.custody, self.wire, pkt) {
                self.blocked.push_front(back);
                self.waiting = true;
            }
        }
    }
}

impl Component for LogSink {
    fn name(&self) -> &str {
        self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        if self.refusals.pop_front() == Some(true) {
            ctx.schedule(ns(300), Event::Timer { kind: 0, data: 0 });
            return RecvResult::Refused(pkt);
        }
        self.log.borrow_mut().push((pkt.id(), ctx.now()));
        self.custody.delivered[1 - self.wire].borrow_mut().push(pkt.clone());
        ctx.schedule(self.service, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { .. } => ctx.send_retry(PORT),
            Event::DelayedPacket { pkt, .. } if pkt.is_posted() => {}
            Event::DelayedPacket { pkt, .. } => {
                let resp = if pkt.cmd().is_read() {
                    let data = (0..pkt.size()).map(|i| (pkt.id().0 as u32 ^ i) as u8).collect();
                    pkt.into_read_response(data)
                } else {
                    pkt.into_response()
                };
                self.blocked.push_back(resp);
                self.flush(ctx);
            }
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.waiting = false;
        self.flush(ctx);
    }
}

/// Both directions' traffic: a source on each side of the link, a sink on
/// the other.
struct Traffic {
    down: Script,
    up: Script,
    service: [Tick; 2],
    refusals: [Vec<bool>; 2],
}

/// One link run reduced to bit-comparable facts.
#[derive(Debug)]
struct Facts {
    now: Tick,
    events: u64,
    packet_ids: u64,
    stats: Vec<(String, f64)>,
    trace: Vec<TraceEvent>,
    completions: [Vec<(PacketId, Tick)>; 2],
    deliveries: [Vec<(PacketId, Tick)>; 2],
    /// What each link end handled.
    dispatches: [Vec<Dispatch>; 2],
    custody: Rc<Custody>,
    /// Per wire, each TLP copy's transmission and arrival.
    wire: [Vec<WireStep>; 2],
    /// Each end's replay-buffer length at quiesce.
    held: [usize; 2],
}

impl Facts {
    fn idle_kicks(&self) -> u64 {
        self.dispatches.iter().flatten().filter(|d| d.idle_kick).count() as u64
    }

    /// Each end's dispatches with the idle kicks deleted.
    fn busy_dispatches(&self) -> [Vec<Dispatch>; 2] {
        self.dispatches.clone().map(|log| log.into_iter().filter(|d| !d.idle_kick).collect())
    }

    /// Transmissions that put a TLP on the wire while an earlier copy of
    /// it was still in flight.
    fn overtaking_replays(&self) -> u64 {
        let mut overtakes = 0;
        for steps in &self.wire {
            let mut in_flight = BTreeMap::<u32, u32>::new();
            for &step in steps {
                match step {
                    WireStep::Tx(seq) => {
                        let copies = in_flight.entry(seq).or_default();
                        overtakes += u64::from(*copies > 0);
                        *copies += 1;
                    }
                    WireStep::Arrive(seq) => {
                        let copies = in_flight.get_mut(&seq).expect("arrival of a copy never sent");
                        *copies -= 1;
                    }
                }
            }
        }
        overtakes
    }
}

/// Runs `traffic` over one link to quiesce under the eager kick rule or
/// the on-demand one. Components, in id order: `cpu` (requester,
/// down-bound), `link`, `dev` (sink), `dma` (requester, up-bound), `mem`
/// (sink).
fn run(config: &LinkConfig, traffic: &Traffic, eager: bool) -> Facts {
    let oracle = KickOracle { eager, ..KickOracle::default() };
    let custody = Rc::new(Custody::default());
    let mut sim = Simulation::new();
    let (source, cpu_log) = Source::new("cpu", DOWN, &traffic.down, &custody);
    let cpu = sim.add(Box::new(source));
    let mut link = PcieLink::new("link", config.clone());
    link.set_kick_oracle(&oracle);
    let link = sim.add(Box::new(link));
    let (refusals, service) = (&traffic.refusals, traffic.service);
    let (sink, dev_log) = LogSink::new("dev", UP, &refusals[0], service[0], &custody);
    let dev = sim.add(Box::new(sink));
    let (source, dma_log) = Source::new("dma", UP, &traffic.up, &custody);
    let dma = sim.add(Box::new(source));
    let (sink, mem_log) = LogSink::new("mem", DOWN, &refusals[1], service[1], &custody);
    let mem = sim.add(Box::new(sink));
    sim.connect((cpu, PORT), (link, PORT_UP_SLAVE));
    sim.connect((link, PORT_DOWN_MASTER), (dev, PORT));
    sim.connect((dma, PORT), (link, PORT_DOWN_SLAVE));
    sim.connect((link, PORT_UP_MASTER), (mem, PORT));
    sim.set_trace_mask(u32::MAX);
    let outcome = sim.run(10 * TICKS_PER_SEC, 10_000_000);
    assert_eq!(outcome, RunOutcome::QueueEmpty, "{config:?} must quiesce");
    Facts {
        now: sim.now(),
        events: sim.events_processed(),
        packet_ids: sim.packet_ids_allocated(),
        stats: sim.stats().iter().map(|(k, v)| (k.to_string(), v)).collect(),
        trace: sim.take_trace().events,
        completions: [cpu_log.take(), dma_log.take()],
        deliveries: [dev_log.take(), mem_log.take()],
        dispatches: oracle.log.each_ref().map(|log| log.borrow().clone()),
        custody,
        wire: oracle.wire.each_ref().map(|steps| steps.take()),
        held: oracle.held.get(),
    }
}

/// A script from `(gap in 400 ps steps, command, size)` draws.
fn script(ops: &[(u64, u8, u32)], base: u64) -> Script {
    let cmds = [Command::ReadReq, Command::WriteReq, Command::Message];
    let mut at = 0;
    ops.iter()
        .enumerate()
        .map(|(i, &(gap, c, size))| {
            at += gap * 400;
            (at, cmds[usize::from(c)], base + i as u64 * 64, size)
        })
        .collect()
}

/// Random link rigs: a configuration and traffic in both directions.
/// Times are drawn in 400 ps steps, so wire-free ticks, timer deadlines
/// and arrivals coincide often enough to test tie-breaks.
struct Rigs;

impl Strategy for Rigs {
    type Value = (LinkConfig, Traffic);

    fn sample(&self, rng: &mut TestRng) -> (LinkConfig, Traffic) {
        let ops =
            || collection::vec((prop_oneof![Just(0u64), 1u64..1000], 0u8..3, 1u32..65), 0..24);
        let (generation, width, replay_buffer_size) = (0usize..3, 0usize..6, 1usize..9).sample(rng);
        let errors = (0usize..3).sample(rng);
        let flags = any::<u8>().sample(rng);
        let credits = (1usize..9).sample(rng);
        let propagation = prop_oneof![Just(0u64), 1u64..1750].sample(rng);
        let (down, up) = (ops().sample(rng), ops().sample(rng));
        let service = (0u64..750, 0u64..750).sample(rng);
        let refusals = collection::vec(any::<bool>(), 0..12);
        let refusals = [refusals.sample(rng), refusals.sample(rng)];
        let config = LinkConfig {
            generation: [Generation::Gen1, Generation::Gen2, Generation::Gen3][generation],
            width: [
                LinkWidth::X1,
                LinkWidth::X2,
                LinkWidth::X4,
                LinkWidth::X8,
                LinkWidth::X12,
                LinkWidth::X16,
            ][width],
            propagation_delay: propagation * 400,
            replay_buffer_size,
            error_interval: [0, 7, 97][errors],
            credit_fc: (flags & 1 != 0).then_some(credits),
            cut_through: flags & 2 != 0,
            ack_immediate: flags & 4 != 0,
            ack_opportunistic: flags & 8 != 0,
            scale_timeout_with_width: flags & 16 != 0,
            ..LinkConfig::default()
        };
        let traffic = Traffic {
            down: script(&down, 0x4000_0000),
            up: script(&up, 0x8000_0000),
            service: [service.0 * 400, service.1 * 400],
            refusals,
        };
        (config, traffic)
    }
}

/// Runs `traffic` under both kick rules and asserts the on-demand run is
/// the eager run with idle kicks deleted; returns both for further checks.
fn assert_on_demand_matches_eager(config: &LinkConfig, traffic: &Traffic) -> (Facts, Facts) {
    let eager = run(config, traffic, true);
    let lazy = run(config, traffic, false);
    let case = format!("{config:?}");
    assert_eq!(lazy.now, eager.now, "quiesce tick: {case}");
    assert_eq!(lazy.completions, eager.completions, "completions: {case}");
    assert_eq!(lazy.deliveries, eager.deliveries, "deliveries: {case}");
    assert_eq!(lazy.stats, eager.stats, "stats: {case}");
    assert_eq!(lazy.trace, eager.trace, "trace: {case}");
    assert_eq!(lazy.packet_ids, eager.packet_ids, "packet ids: {case}");
    // Each end handles the eager sequence minus idle kicks — every kick
    // that found a frame (or a busy wire to re-arm behind) in its place —
    // and the events saved are idle kicks, one for one. An idle kick
    // survives only where an ACK released the replayed TLP it was queued
    // for before the wire came free; the eager stream dispatches that one
    // too.
    assert_eq!(lazy.busy_dispatches(), eager.busy_dispatches(), "dispatches: {case}");
    assert_eq!(eager.events - lazy.events, eager.idle_kicks() - lazy.idle_kicks(), "{case}");
    (eager, lazy)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the link and whatever crosses it, the on-demand rule
    /// reproduces the eager rule's run bit for bit, and the events it
    /// saves are exactly kicks that would have found nothing to send.
    #[test]
    fn on_demand_kicks_delete_only_idle_kicks_from_the_eager_stream(rig in Rigs) {
        let (config, traffic) = rig;
        let (eager, lazy) = assert_on_demand_matches_eager(&config, &traffic);
        if config.cut_through {
            // Cut-through links keep the eager rule (see `arm_kick`).
            prop_assert_eq!(eager.events, lazy.events);
        } else if !(traffic.down.is_empty() && traffic.up.is_empty()) {
            // The kick after each wire's last frame finds nothing to send.
            prop_assert!(eager.events > lazy.events);
        }
    }
}

/// Custody over the same rigs: each wire hands out every TLP it admitted
/// exactly once, in admission order, equal field by field (id, command,
/// address, size, payload, route, bus number) to the one admitted, and
/// both replay buffers are empty at quiesce. The rigs must include
/// replays that leave while the previous copy is still on the wire —
/// the case where a duplicate arrives after its TLP was delivered.
#[test]
fn every_tlp_leaves_the_link_once_in_order_and_unchanged() {
    let mut overtaking = 0;
    for case in 0..512 {
        let (config, traffic) = Rigs.sample(&mut TestRng::for_case("custody", case));
        let facts = run(&config, &traffic, false);
        for (dir, label) in ["down", "up"].into_iter().enumerate() {
            let admitted = facts.custody.admitted[dir].borrow();
            let delivered = facts.custody.delivered[dir].borrow();
            assert!(
                *delivered == *admitted,
                "{label} wire: {} admitted, {} delivered, first difference at {:?}: {config:?}",
                admitted.len(),
                delivered.len(),
                admitted.iter().zip(delivered.iter()).position(|(a, d)| a != d),
            );
        }
        assert_eq!(facts.held, [0, 0], "replay buffers at quiesce: {config:?}");
        overtaking += facts.overtaking_replays();
    }
    assert!(overtaking > 0, "no replay left while its previous copy was in flight");
}

/// The case the reserved stamp exists for: a kick and a replay-timer
/// chase due at the same tick on the same end, where the chase was
/// scheduled after the frame that owes the kick but before the TLP that
/// makes the kick worth queuing. Minting the kick's stamp only when it is
/// queued would let the chase fire first and rewind onto a free wire.
///
/// Gen 2 x1, ACK per TLP: message A (48 ns) and write B (168 ns) leave at
/// 0 and 48 ns; A's ACK at 64 ns moves the replay deadline to 769.6 ns
/// while the timer armed at 0 still sits at 705.6 ns; the sink refuses B.
/// Write F leaves at 601.6 ns, so the wire frees at 769.6 ns; at 705.6 ns
/// the timer chases to 769.6 ns; write N is admitted at 728 ns. At
/// 769.6 ns the kick — stamped at 601.6 ns — sends N before the chase
/// times out and rewinds B, F and N behind it.
#[test]
fn kick_keeps_its_stamp_against_a_same_tick_replay_chase() {
    let config =
        LinkConfig { ack_immediate: true, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
    let traffic = Traffic {
        down: vec![
            (0, Command::Message, 0x4000_0000, 4),
            (0, Command::WriteReq, 0x4000_0040, 64),
            (601_600, Command::WriteReq, 0x4000_0080, 64),
            (728_000, Command::WriteReq, 0x4000_00c0, 64),
        ],
        up: Vec::new(),
        service: [0, 0],
        refusals: [vec![false, true], Vec::new()],
    };
    let (eager, _) = assert_on_demand_matches_eager(&config, &traffic);
    let tie = [
        Dispatch { at: 769_600, kind: 0, idle_kick: false },
        Dispatch { at: 769_600, kind: 2, idle_kick: false },
    ];
    assert!(
        eager.dispatches[0].windows(2).any(|pair| pair == tie),
        "the scenario must put the kick and the chase on one tick: {:?}",
        eager.dispatches[0]
    );
    let stat = |key: &str| eager.stats.iter().find(|(k, _)| k == key).expect(key).1;
    assert_eq!(stat("link.down.timeouts"), 1.0);
    assert_eq!(stat("link.down.tlps_tx"), 7.0, "N goes out before the rewind, and again after");
}
