//! Crossbar interconnect (gem5's `MemBus` / `IOBus`).
//!
//! A [`Crossbar`] routes request packets to one of its ports by address
//! range and routes responses back along the route stack recorded on the
//! request path. It models a forwarding (frontend) latency, payload
//! serialization bandwidth per egress port, and bounded per-port output
//! queues with the kernel's refusal/retry flow control — loosely following
//! the ARM AXI-style crossbar gem5 implements.

use crate::addr::{AddrMap, AddrRange};
use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::{CompletionStatus, Packet};
use crate::queue::{TimedQueue, Waiters};
use crate::sim::Ctx;
use crate::stats::{Counter, StatsBuilder};
use crate::tick::{transfer_time, Tick};
use crate::trace::{TraceCategory, TraceKind};

/// Builder for [`Crossbar`]; see [`Crossbar::builder`].
#[derive(Debug)]
pub struct CrossbarBuilder {
    name: String,
    num_ports: usize,
    frontend_latency: Tick,
    bytes_per_sec: u64,
    queue_capacity: usize,
    routes: Vec<(AddrRange, PortId)>,
    default_route: Option<PortId>,
}

impl CrossbarBuilder {
    /// Sets the number of ports (ids `0..n`).
    pub fn num_ports(mut self, n: usize) -> Self {
        self.num_ports = n;
        self
    }

    /// Sets the forwarding-decision latency added to every packet.
    pub fn frontend_latency(mut self, t: Tick) -> Self {
        self.frontend_latency = t;
        self
    }

    /// Sets the payload serialization bandwidth per egress port
    /// (0 = infinite).
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the per-port output queue capacity (requests and responses each
    /// get a queue of this depth).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        self.queue_capacity = cap;
        self
    }

    /// Routes requests for `range` out of `port`.
    pub fn route(mut self, range: AddrRange, port: PortId) -> Self {
        self.routes.push((range, port));
        self
    }

    /// Routes requests matching no explicit range out of `port`.
    pub fn default_route(mut self, port: PortId) -> Self {
        self.default_route = Some(port);
        self
    }

    /// Builds the crossbar.
    ///
    /// # Panics
    ///
    /// Panics when a route targets a port outside `0..num_ports` or when
    /// route ranges overlap.
    pub fn build(self) -> Crossbar {
        let mut map = AddrMap::new();
        for (range, port) in self.routes {
            assert!(
                (port.0 as usize) < self.num_ports,
                "route target {port} out of range for {} ports",
                self.num_ports
            );
            map.insert(range, port).unwrap_or_else(|r| panic!("overlapping crossbar route {r:?}"));
        }
        if let Some(p) = self.default_route {
            assert!((p.0 as usize) < self.num_ports, "default route {p} out of range");
        }
        Crossbar {
            name: self.name,
            frontend_latency: self.frontend_latency,
            bytes_per_sec: self.bytes_per_sec,
            route: map,
            default_route: self.default_route,
            ports: (0..self.num_ports).map(|_| PortState::new(self.queue_capacity)).collect(),
            stats: XbarStats::default(),
        }
    }
}

/// One crossbar port's egress side: a response lane and a request lane
/// toward the peer, and the ingress ports each lane refused.
#[derive(Debug, Default)]
struct PortState {
    resp: TimedQueue,
    req: TimedQueue,
    /// Egress serialization horizon.
    busy_until: Tick,
    resp_waiters: Waiters,
    req_waiters: Waiters,
}

impl PortState {
    fn new(capacity: usize) -> Self {
        let lane = || TimedQueue::bounded(capacity);
        Self { resp: lane(), req: lane(), ..Self::default() }
    }

    /// Space freed in this port's lanes: grant the refused ingress peers
    /// their retries.
    fn notify_waiters(&mut self, ctx: &mut Ctx<'_>) {
        if !self.req.is_full() {
            self.req_waiters.retry_all(ctx);
        }
        if !self.resp.is_full() {
            self.resp_waiters.retry_all(ctx);
        }
    }
}

#[derive(Debug, Default)]
struct XbarStats {
    reqs: Counter,
    resps: Counter,
    refusals: Counter,
    bytes: Counter,
    /// Requests matching no route: answered with an Unsupported Request
    /// completion (master abort) instead of panicking.
    unrouted: Counter,
}

/// An address-routed crossbar with bounded per-port queues.
///
/// Tag conventions for self-scheduled events: the `DelayedPacket` tag is the
/// egress port index.
#[derive(Debug)]
pub struct Crossbar {
    name: String,
    frontend_latency: Tick,
    bytes_per_sec: u64,
    route: AddrMap<PortId>,
    default_route: Option<PortId>,
    ports: Vec<PortState>,
    stats: XbarStats,
}

impl Crossbar {
    /// Starts building a crossbar named `name`.
    pub fn builder(name: impl Into<String>) -> CrossbarBuilder {
        CrossbarBuilder {
            name: name.into(),
            num_ports: 2,
            frontend_latency: 0,
            bytes_per_sec: 0,
            queue_capacity: 4,
            routes: Vec::new(),
            default_route: None,
        }
    }

    /// The port a request for `addr` would leave through.
    pub fn route_for(&self, addr: u64) -> Option<PortId> {
        self.route.lookup(addr).copied().or(self.default_route)
    }

    /// Computes when a packet entering now finishes crossing the crossbar
    /// toward `egress`, updating the serialization horizon.
    fn pipe_delay(&mut self, now: Tick, egress: PortId, pkt: &Packet) -> Tick {
        let xfer = transfer_time(u64::from(pkt.payload_len()), self.bytes_per_sec);
        let start = (now + self.frontend_latency).max(self.ports[egress.0 as usize].busy_until);
        let finish = start + xfer;
        self.ports[egress.0 as usize].busy_until = finish;
        finish - now
    }

    /// Sends the port's queued packets, responses first — response
    /// progress must never be blocked behind requests or the fabric can
    /// deadlock. One refusal blocks both lanes until the peer's retry.
    fn drain(&mut self, ctx: &mut Ctx<'_>, egress: PortId) {
        let p = &mut self.ports[egress.0 as usize];
        while !p.resp.peer_blocked() && !p.req.peer_blocked() {
            let lane = if p.resp.is_empty() { &mut p.req } else { &mut p.resp };
            if lane.send_head(ctx, egress).is_none() {
                return;
            }
            p.notify_waiters(ctx);
        }
    }
}

impl Component for Crossbar {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) -> RecvResult {
        let Some(egress) = self.route_for(pkt.addr()) else {
            // Master abort: no port claims this address. Posted requests
            // vanish silently (nobody is waiting); non-posted requests get
            // an Unsupported Request completion synthesized back out the
            // ingress port after the frontend latency — never synchronously,
            // which would re-enter the sender.
            self.stats.unrouted.inc();
            if ctx.tracing(TraceCategory::Fabric) {
                ctx.emit(
                    TraceCategory::Fabric,
                    TraceKind::FabricForward,
                    Some(pkt.id()),
                    Some(pkt.cmd()),
                    u64::MAX,
                );
            }
            if pkt.is_posted() {
                return RecvResult::Accepted;
            }
            let resp = pkt.into_error_response(CompletionStatus::UnsupportedRequest);
            let delay = self.pipe_delay(ctx.now(), port, &resp);
            self.ports[port.0 as usize].resp.delay(ctx, delay, u32::from(port.0), resp);
            return RecvResult::Accepted;
        };
        let idx = egress.0 as usize;
        if self.ports[idx].req.is_full() {
            self.stats.refusals.inc();
            self.ports[idx].req_waiters.add(port);
            return RecvResult::Refused(pkt);
        }
        self.stats.reqs.inc();
        self.stats.bytes.add(u64::from(pkt.payload_len()));
        if ctx.tracing(TraceCategory::Fabric) {
            ctx.emit(
                TraceCategory::Fabric,
                TraceKind::FabricForward,
                Some(pkt.id()),
                Some(pkt.cmd()),
                u64::from(egress.0),
            );
        }
        pkt.push_route(ctx.self_id(), port);
        let delay = self.pipe_delay(ctx.now(), egress, &pkt);
        self.ports[idx].req.delay(ctx, delay, u32::from(egress.0), pkt);
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) -> RecvResult {
        let hop = pkt
            .peek_route()
            .copied()
            .unwrap_or_else(|| panic!("{}: response {} with empty route stack", self.name, pkt));
        assert_eq!(
            hop.component,
            ctx.self_id(),
            "{}: response routed to wrong crossbar",
            self.name
        );
        let egress = hop.port;
        let idx = egress.0 as usize;
        if self.ports[idx].resp.is_full() {
            self.stats.refusals.inc();
            self.ports[idx].resp_waiters.add(port);
            return RecvResult::Refused(pkt);
        }
        pkt.pop_route();
        self.stats.resps.inc();
        self.stats.bytes.add(u64::from(pkt.payload_len()));
        if ctx.tracing(TraceCategory::Fabric) {
            ctx.emit(
                TraceCategory::Fabric,
                TraceKind::FabricForward,
                Some(pkt.id()),
                Some(pkt.cmd()),
                u64::from(egress.0),
            );
        }
        let delay = self.pipe_delay(ctx.now(), egress, &pkt);
        self.ports[idx].resp.delay(ctx, delay, u32::from(egress.0), pkt);
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { tag, pkt } = ev else {
            panic!("{}: unexpected timer", self.name);
        };
        let egress = PortId(tag as u16);
        let p = &mut self.ports[egress.0 as usize];
        if pkt.is_request() {
            p.req.arrive(pkt);
        } else {
            p.resp.arrive(pkt);
        }
        self.drain(ctx, egress);
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let p = &mut self.ports[port.0 as usize];
        p.resp.unblock();
        p.req.unblock();
        self.drain(ctx, port);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("requests", &self.stats.reqs);
        out.counter("responses", &self.stats.resps);
        out.counter("refusals", &self.stats.refusals);
        out.counter("payload_bytes", &self.stats.bytes);
        out.counter("unsupported_requests", &self.stats.unrouted);
    }

    crate::state_fields!(component self;
        [ports; len] {
            resp, req, busy_until,
            resp_waiters: index < self.ports.len(),
            req_waiters: index < self.ports.len(),
        },
        stats.reqs, stats.resps, stats.refusals, stats.bytes, stats.unrouted,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Command;
    use crate::sim::{RunOutcome, Simulation};
    use crate::snapshot::{SnapshotError, StateReader, StateWriter};
    use crate::testutil::{Requester, Responder};
    use crate::tick::ns;

    fn two_port_xbar() -> Crossbar {
        Crossbar::builder("xbar")
            .num_ports(2)
            .frontend_latency(ns(5))
            .route(AddrRange::new(0x1000, 0x2000), PortId(1))
            .build()
    }

    #[test]
    fn routes_by_address_and_returns_responses() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, 0x1800, 64)]);
        let r = sim.add(Box::new(req));
        let x = sim.add(Box::new(two_port_xbar()));
        let (resp, served) = Responder::new("dev", ns(100));
        let d = sim.add(Box::new(resp));
        sim.connect((r, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(*served.borrow(), 1);
        // 5 ns each crossing (req + resp) + 100 ns service.
        assert_eq!(done.borrow()[0].1, ns(110));
    }

    #[test]
    fn restore_rejects_a_waiting_port_outside_the_crossbar() {
        for resp in [false, true] {
            let mut x = two_port_xbar();
            let p = &mut x.ports[1];
            if resp { &mut p.resp_waiters } else { &mut p.req_waiters }.add(PortId(2));
            let mut w = StateWriter::new();
            x.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = two_port_xbar()
                .restore_state(&mut StateReader::new(&bytes))
                .expect_err("port 2 of a 2-port crossbar");
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn unrouted_address_has_no_route() {
        let x = two_port_xbar();
        assert_eq!(x.route_for(0x1800), Some(PortId(1)));
        assert_eq!(x.route_for(0x5000), None);
    }

    /// Sends one scripted request and captures the full response packet,
    /// which [`Requester`] cannot (it keeps only the id and arrival tick).
    #[derive(Debug)]
    struct Probe {
        script: Vec<(Command, u64, u32, bool)>,
        got: std::rc::Rc<std::cell::RefCell<Vec<Packet>>>,
    }

    impl Component for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            for (cmd, addr, size, posted) in self.script.drain(..) {
                let id = ctx.alloc_packet_id();
                let mut pkt = Packet::request(id, cmd, addr, size, ctx.self_id());
                if cmd.is_write() {
                    pkt = pkt.with_payload(vec![0xab; size as usize]);
                }
                pkt.set_posted(posted);
                ctx.try_send_request(PortId(0), pkt).expect("probe send refused");
            }
        }
        fn recv_response(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
            self.got.borrow_mut().push(pkt);
            RecvResult::Accepted
        }
    }

    #[test]
    fn unrouted_read_completes_with_unsupported_request_all_ones() {
        let mut sim = Simulation::new();
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let p = sim.add(Box::new(Probe {
            script: vec![(Command::ReadReq, 0x5000, 64, false)],
            got: got.clone(),
        }));
        let x = sim.add(Box::new(two_port_xbar()));
        let (resp, served) = Responder::new("dev", ns(100));
        let d = sim.add(Box::new(resp));
        sim.connect((p, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty, "no hang on master abort");
        assert_eq!(*served.borrow(), 0, "nothing reached the device");
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].cmd(), Command::ReadResp);
        assert_eq!(got[0].status(), crate::packet::CompletionStatus::UnsupportedRequest);
        assert!(
            got[0].payload().unwrap().iter().all(|&b| b == 0xff),
            "master abort reads all-ones"
        );
        assert_eq!(sim.stats().get("xbar.unsupported_requests"), Some(1.0));
    }

    #[test]
    fn unrouted_posted_write_is_dropped_silently() {
        let mut sim = Simulation::new();
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let p = sim.add(Box::new(Probe {
            script: vec![
                (Command::WriteReq, 0x5000, 64, true),
                (Command::ReadReq, 0x1800, 64, false),
            ],
            got: got.clone(),
        }));
        let x = sim.add(Box::new(two_port_xbar()));
        let (resp, served) = Responder::new("dev", ns(100));
        let d = sim.add(Box::new(resp));
        sim.connect((p, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        // The posted write vanished; the routed read still completed.
        assert_eq!(*served.borrow(), 1);
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert!(!got[0].is_error());
        assert_eq!(sim.stats().get("xbar.unsupported_requests"), Some(1.0));
    }

    #[test]
    fn default_route_catches_unmatched() {
        let x = Crossbar::builder("x")
            .num_ports(3)
            .route(AddrRange::new(0x1000, 0x2000), PortId(1))
            .default_route(PortId(2))
            .build();
        assert_eq!(x.route_for(0x1000), Some(PortId(1)));
        assert_eq!(x.route_for(0x9999_0000), Some(PortId(2)));
    }

    #[test]
    #[should_panic(expected = "overlapping crossbar route")]
    fn overlapping_routes_rejected() {
        let _ = Crossbar::builder("x")
            .num_ports(2)
            .route(AddrRange::new(0x1000, 0x2000), PortId(0))
            .route(AddrRange::new(0x1800, 0x2800), PortId(1))
            .build();
    }

    #[test]
    fn bandwidth_serializes_back_to_back_writes() {
        // Two 64 B writes at 64 B/us must finish 1 us apart at the device.
        let mut sim = Simulation::new();
        let (req, done) = Requester::new(
            "cpu",
            vec![(Command::WriteReq, 0x1000, 64), (Command::WriteReq, 0x1040, 64)],
        );
        let r = sim.add(Box::new(req));
        let x = sim.add(Box::new(
            Crossbar::builder("xbar")
                .num_ports(2)
                .bandwidth(64_000_000) // 64 B per microsecond
                .route(AddrRange::new(0x1000, 0x2000), PortId(1))
                .build(),
        ));
        let (resp, _served) = Responder::new("dev", 0);
        let d = sim.add(Box::new(resp));
        sim.connect((r, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        sim.run_to_quiesce();
        let done = done.borrow();
        assert_eq!(done.len(), 2);
        // Completions one serialization quantum apart.
        assert_eq!(done[1].1 - done[0].1, crate::tick::us(1));
    }

    #[test]
    fn full_queue_refuses_then_recovers() {
        // A slow responder with a 1-deep crossbar queue: all packets still
        // arrive, in order.
        let mut sim = Simulation::new();
        let pkts: Vec<_> = (0..8).map(|i| (Command::WriteReq, 0x1000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("cpu", pkts);
        let r = sim.add(Box::new(req));
        let x = sim.add(Box::new(
            Crossbar::builder("xbar")
                .num_ports(2)
                .queue_capacity(1)
                .route(AddrRange::new(0x1000, 0x2000), PortId(1))
                .build(),
        ));
        let (resp, served) = Responder::new("dev", ns(50));
        let d = sim.add(Box::new(resp));
        sim.connect((r, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 8);
        assert_eq!(done.borrow().len(), 8);
        let stats = sim.stats();
        assert!(stats.get("xbar.refusals").unwrap() > 0.0);
        assert_eq!(stats.get("xbar.requests"), Some(8.0));
        assert_eq!(stats.get("xbar.responses"), Some(8.0));
    }

    #[test]
    fn three_requesters_one_target_all_complete() {
        let mut sim = Simulation::new();
        let mut dones = Vec::new();
        let mut rs = Vec::new();
        for i in 0..3 {
            let (req, done) = Requester::new(
                format!("cpu{i}"),
                (0..4).map(|j| (Command::ReadReq, 0x1000 + j * 64, 64)).collect(),
            );
            dones.push(done);
            rs.push(sim.add(Box::new(req)));
        }
        let x = sim.add(Box::new(
            Crossbar::builder("xbar")
                .num_ports(4)
                .queue_capacity(2)
                .route(AddrRange::new(0x1000, 0x2000), PortId(3))
                .build(),
        ));
        let (resp, served) = Responder::new("dev", ns(20));
        let d = sim.add(Box::new(resp));
        for (i, r) in rs.iter().enumerate() {
            sim.connect((*r, PortId(0)), (x, PortId(i as u16)));
        }
        sim.connect((x, PortId(3)), (d, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 12);
        for done in &dones {
            assert_eq!(done.borrow().len(), 4);
        }
    }
}
