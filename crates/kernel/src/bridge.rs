//! MemBus ↔ IOBus bridge (gem5's `Bridge`).
//!
//! A [`Bridge`] is a slave on the memory bus and a master on the I/O bus: it
//! accepts requests destined for the off-chip address range, delays them by
//! a configurable latency through bounded request/response queues, and
//! forwards them. Responses travel the opposite way. The paper builds its
//! root complex and switch on top of this component's structure (§III).

use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::Packet;
use crate::queue::TimedQueue;
use crate::sim::Ctx;
use crate::stats::{Counter, StatsBuilder};
use crate::tick::Tick;
use crate::trace::{TraceCategory, TraceKind};

/// Port facing the memory bus (receives requests, emits responses).
pub const BRIDGE_MEM_SIDE: PortId = PortId(0);
/// Port facing the I/O bus (emits requests, receives responses).
pub const BRIDGE_IO_SIDE: PortId = PortId(1);

/// Response queue depth (gem5's default order).
const RESP_CAPACITY: usize = 16;

/// The port a packet received on `port` leaves by.
fn across(port: PortId) -> PortId {
    PortId(port.0 ^ 1)
}

/// Builder for [`Bridge`]; see [`Bridge::builder`].
#[derive(Debug)]
pub struct BridgeBuilder {
    name: String,
    delay: Tick,
    req_capacity: usize,
}

impl BridgeBuilder {
    /// Sets the one-way forwarding delay.
    pub fn delay(mut self, t: Tick) -> Self {
        self.delay = t;
        self
    }

    /// Sets the request queue depth.
    pub fn req_capacity(mut self, n: usize) -> Self {
        assert!(n > 0, "request queue must hold at least one packet");
        self.req_capacity = n;
        self
    }

    /// Builds the bridge.
    pub fn build(self) -> Bridge {
        Bridge {
            name: self.name,
            delay: self.delay,
            lanes: [TimedQueue::bounded(self.req_capacity), TimedQueue::bounded(RESP_CAPACITY)],
            forwarded: Counter::new(),
            refusals: Counter::new(),
        }
    }
}

/// Unidirectional request bridge with bounded queues in both directions.
///
/// The `DelayedPacket` tag is the port the packet arrived on.
#[derive(Debug)]
pub struct Bridge {
    name: String,
    delay: Tick,
    /// `lanes[p]` carries what arrives on port `p` to the other port:
    /// requests mem → io, responses io → mem.
    lanes: [TimedQueue; 2],
    forwarded: Counter,
    refusals: Counter,
}

impl Bridge {
    /// Starts building a bridge named `name` with a 50 ns delay and 16-deep
    /// queues (gem5's defaults are of this order).
    pub fn builder(name: impl Into<String>) -> BridgeBuilder {
        BridgeBuilder { name: name.into(), delay: crate::tick::ns(50), req_capacity: 16 }
    }

    fn accept(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        let lane = &mut self.lanes[usize::from(port.0)];
        if lane.is_full() {
            self.refusals.inc();
            return lane.refuse(pkt);
        }
        if ctx.tracing(TraceCategory::Fabric) {
            ctx.emit(
                TraceCategory::Fabric,
                TraceKind::FabricForward,
                Some(pkt.id()),
                Some(pkt.cmd()),
                u64::from(across(port).0),
            );
        }
        lane.delay(ctx, self.delay, u32::from(port.0), pkt);
        RecvResult::Accepted
    }

    /// Forwards the lane fed by port `from`, granting its sender the owed
    /// retry as room frees.
    fn drain(&mut self, ctx: &mut Ctx<'_>, from: PortId) {
        let i = usize::from(from.0);
        while self.lanes[i].send_head(ctx, across(from)).is_some() {
            if from == BRIDGE_MEM_SIDE {
                self.forwarded.inc();
            }
            self.lanes[i].grant_retry(ctx, from);
        }
    }
}

impl Component for Bridge {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, BRIDGE_MEM_SIDE, "{}: requests only cross mem→io", self.name);
        self.accept(ctx, port, pkt)
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, BRIDGE_IO_SIDE, "{}: responses only cross io→mem", self.name);
        self.accept(ctx, port, pkt)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { tag, pkt } = ev else {
            panic!("{}: unexpected timer", self.name)
        };
        let from = PortId(tag as u16);
        self.lanes[usize::from(from.0)].arrive(pkt);
        self.drain(ctx, from);
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let from = across(port);
        self.lanes[usize::from(from.0)].unblock();
        self.drain(ctx, from);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("forwarded", &self.forwarded);
        out.counter("refusals", &self.refusals);
    }

    crate::state_fields!(component self; lanes, forwarded, refusals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Command;
    use crate::sim::{RunOutcome, Simulation};
    use crate::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
    use crate::tick::ns;

    fn run_bridge(
        n_pkts: u64,
        delay: Tick,
        req_cap: usize,
        service: Tick,
    ) -> (Vec<(crate::packet::PacketId, Tick)>, crate::stats::StatsSnapshot) {
        let mut sim = Simulation::new();
        let script = (0..n_pkts).map(|i| (Command::ReadReq, 0x1000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let b =
            sim.add(Box::new(Bridge::builder("bridge").delay(delay).req_capacity(req_cap).build()));
        let (resp, _) = Responder::new("dev", service);
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (b, BRIDGE_MEM_SIDE));
        sim.connect((b, BRIDGE_IO_SIDE), (d, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let out = done.borrow().clone();
        (out, sim.stats())
    }

    #[test]
    fn single_request_sees_two_crossings() {
        let (done, _) = run_bridge(1, ns(50), 16, ns(100));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, ns(200));
    }

    #[test]
    fn all_packets_survive_a_shallow_queue() {
        let (done, stats) = run_bridge(32, ns(50), 2, ns(10));
        assert_eq!(done.len(), 32);
        assert_eq!(stats.get("bridge.forwarded"), Some(32.0));
    }

    #[test]
    fn zero_delay_bridge_is_transparent() {
        let (done, _) = run_bridge(1, 0, 16, ns(100));
        assert_eq!(done[0].1, ns(100));
    }

    #[test]
    #[should_panic(expected = "requests only cross mem")]
    fn request_on_io_side_panics() {
        let mut sim = Simulation::new();
        let (req, _) = Requester::new("cpu", vec![(Command::ReadReq, 0, 4)]);
        let r = sim.add(Box::new(req));
        let b = sim.add(Box::new(Bridge::builder("bridge").build()));
        // Wired backwards on purpose.
        sim.connect((r, REQUESTER_PORT), (b, BRIDGE_IO_SIDE));
        sim.run_to_quiesce();
    }
}
