//! The on-demand TX kick against its oracle.
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

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use proptest::prelude::*;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet, PacketId};
use pcisim_kernel::sim::{Ctx, RunOutcome, Simulation};
use pcisim_kernel::tick::{ns, Tick, TICKS_PER_SEC};
use pcisim_kernel::trace::TraceEvent;

use crate::link::{
    Dispatch, KickOracle, PcieLink, PORT_DOWN_MASTER, PORT_DOWN_SLAVE, PORT_UP_MASTER,
    PORT_UP_SLAVE,
};
use crate::params::{Generation, LinkConfig, LinkWidth};

/// Packets an endpoint received (or posted), in order: `(id, tick)`.
type DeliveryLog = Rc<RefCell<Vec<(PacketId, Tick)>>>;

/// Every test endpoint has this one port.
const PORT: PortId = PortId(0);

/// `(issue tick, command, address, size)`, in issue order.
type Script = Vec<(Tick, Command, u64, u32)>;

/// Issues each scripted request at its tick (or behind the ones still
/// refused), logging completions and posted sends.
struct Source {
    name: &'static str,
    script: VecDeque<(Tick, Command, u64, u32)>,
    due: VecDeque<Packet>,
    waiting: bool,
    log: DeliveryLog,
}

impl Source {
    fn new(name: &'static str, script: &Script) -> (Self, DeliveryLog) {
        let log = DeliveryLog::default();
        let source = Self {
            name,
            script: script.iter().copied().collect(),
            due: VecDeque::new(),
            waiting: false,
            log: log.clone(),
        };
        (source, log)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(pkt) = self.due.pop_front() else { return };
            let (id, posted) = (pkt.id(), pkt.is_posted());
            match ctx.try_send_request(PORT, pkt) {
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
            let mut pkt = Packet::request(id, cmd, addr, size, ctx.self_id());
            if cmd != Command::ReadReq {
                pkt = pkt.with_payload(vec![0; size as usize]);
            }
            self.due.push_back(pkt);
        }
        self.flush(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        self.log.borrow_mut().push((pkt.id(), ctx.now()));
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
    refusals: VecDeque<bool>,
    service: Tick,
    log: DeliveryLog,
    blocked: VecDeque<Packet>,
    waiting: bool,
}

impl LogSink {
    fn new(name: &'static str, refusals: &[bool], service: Tick) -> (Self, DeliveryLog) {
        let log = DeliveryLog::default();
        let sink = Self {
            name,
            refusals: refusals.iter().copied().collect(),
            service,
            log: log.clone(),
            blocked: VecDeque::new(),
            waiting: false,
        };
        (sink, log)
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(pkt) = self.blocked.pop_front() else { return };
            if let Err(back) = ctx.try_send_response(PORT, pkt) {
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
        ctx.schedule(self.service, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { .. } => ctx.send_retry(PORT),
            Event::DelayedPacket { pkt, .. } if pkt.is_posted() => {}
            Event::DelayedPacket { pkt, .. } => {
                let resp = if pkt.cmd().is_read() {
                    let size = pkt.size() as usize;
                    pkt.into_read_response(vec![0; size])
                } else {
                    pkt.into_response()
                };
                self.blocked.push_back(resp);
                self.flush(ctx);
            }
            Event::StampedPacket { .. } => panic!("{}: unexpected stamped packet", self.name),
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
}

impl Facts {
    fn idle_kicks(&self) -> u64 {
        self.dispatches.iter().flatten().filter(|d| d.idle_kick).count() as u64
    }

    /// Each end's dispatches with the idle kicks deleted.
    fn busy_dispatches(&self) -> [Vec<Dispatch>; 2] {
        self.dispatches.clone().map(|log| log.into_iter().filter(|d| !d.idle_kick).collect())
    }
}

/// Runs `traffic` over one link to quiesce under the eager kick rule or
/// the on-demand one. Components, in id order: `cpu` (requester,
/// down-bound), `link`, `dev` (sink), `dma` (requester, up-bound), `mem`
/// (sink).
fn run(config: &LinkConfig, traffic: &Traffic, eager: bool) -> Facts {
    let oracle = KickOracle { eager, log: Rc::default() };
    let mut sim = Simulation::new();
    let (source, cpu_log) = Source::new("cpu", &traffic.down);
    let cpu = sim.add(Box::new(source));
    let mut link = PcieLink::new("link", config.clone());
    link.set_kick_oracle(&oracle);
    let link = sim.add(Box::new(link));
    let (sink, dev_log) = LogSink::new("dev", &traffic.refusals[0], traffic.service[0]);
    let dev = sim.add(Box::new(sink));
    let (source, dma_log) = Source::new("dma", &traffic.up);
    let dma = sim.add(Box::new(source));
    let (sink, mem_log) = LogSink::new("mem", &traffic.refusals[1], traffic.service[1]);
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
    fn on_demand_kicks_delete_only_idle_kicks_from_the_eager_stream(
        shape in (0usize..3, 0usize..6, 1usize..9),
        errors in 0usize..3,
        flags in any::<u8>(),
        credits in 1usize..9,
        propagation in prop_oneof![Just(0u64), 1u64..1750],
        down in collection::vec((prop_oneof![Just(0u64), 1u64..1000], 0u8..3, 1u32..65), 0..24),
        up in collection::vec((prop_oneof![Just(0u64), 1u64..1000], 0u8..3, 1u32..65), 0..24),
        service in (0u64..750, 0u64..750),
        refusals in (collection::vec(any::<bool>(), 0..12), collection::vec(any::<bool>(), 0..12)),
    ) {
        // Times are drawn in 400 ps steps, so wire-free ticks, timer
        // deadlines and arrivals coincide often enough to test tie-breaks.
        let (generation, width, replay_buffer_size) = shape;
        let config = LinkConfig {
            generation: [Generation::Gen1, Generation::Gen2, Generation::Gen3][generation],
            width: [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8, LinkWidth::X12,
                LinkWidth::X16][width],
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
            refusals: [refusals.0, refusals.1],
        };
        let (eager, lazy) = assert_on_demand_matches_eager(&config, &traffic);
        if config.cut_through {
            // Cut-through links keep the eager rule (see `arm_kick`).
            prop_assert_eq!(eager.events, lazy.events);
        } else if !(down.is_empty() && up.is_empty()) {
            // The kick after each wire's last frame finds nothing to send.
            prop_assert!(eager.events > lazy.events);
        }
    }
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
