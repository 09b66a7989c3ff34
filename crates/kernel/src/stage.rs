//! The buffered fabric stage: gem5's MemBus ↔ IOBus `Bridge` and its DMA
//! `IOCache` are the same component with different delays.
//!
//! A [`Stage`] delays requests from its CPU side to its memory side, and
//! responses back, by a fixed latency. Like gem5's bridge, which reserves
//! a response slot when it admits a non-posted request, and like the
//! IOCache's MSHRs, it bounds the round trip, not either lane: a request
//! takes one of `mshrs` slots until its response (or the request itself,
//! if posted) leaves, and a full stage refuses the CPU side and owes it a
//! retry. The paper builds its root complex and switch on the bridge's
//! structure (§III); the IOCache keeps DMA coherent (§III) and is modelled
//! without a tag store.

use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::Packet;
use crate::queue::{check_slots, Sent, TimedQueue};
use crate::sim::Ctx;
use crate::stats::{Counter, StatsBuilder};
use crate::tick::{ns, Tick};

/// Port facing the requesters (receives requests, emits responses).
pub const STAGE_CPU_SIDE: PortId = PortId(0);
/// Port facing the responders (emits requests, receives responses).
pub const STAGE_MEM_SIDE: PortId = PortId(1);

/// The port a packet received on `port` leaves by.
fn across(port: PortId) -> PortId {
    PortId(port.0 ^ 1)
}

/// A fixed-delay stage with a bound on outstanding requests.
///
/// The `DelayedPacket` tag is the port the packet arrived on.
#[derive(Debug)]
pub struct Stage {
    name: String,
    delay: Tick,
    mshrs: usize,
    /// Requests accepted and not yet answered (delayed, queued or beyond
    /// the memory side).
    outstanding: usize,
    /// `lanes[p]` carries what arrives on port `p` to the other port:
    /// requests to the memory side, responses to the CPU side. The slots,
    /// not the lanes, bound admission; the request lane owes the CPU side
    /// its retry.
    lanes: [TimedQueue; 2],
    accesses: Counter,
    refusals: Counter,
}

impl Stage {
    /// The MemBus ↔ IOBus bridge: 50 ns each way, 16 outstanding requests
    /// (gem5's defaults are of this order).
    pub fn bridge(name: impl Into<String>) -> Self {
        Self::new(name.into(), ns(50))
    }

    /// The DMA IOCache: 2 ns lookup and fill latencies, 16 MSHRs
    /// (gem5-like).
    pub fn iocache(name: impl Into<String>) -> Self {
        Self::new(name.into(), ns(2))
    }

    fn new(name: String, delay: Tick) -> Self {
        Self {
            name,
            delay,
            mshrs: 16,
            outstanding: 0,
            lanes: Default::default(),
            accesses: Counter::new(),
            refusals: Counter::new(),
        }
    }

    /// Sets the maximum number of outstanding requests.
    pub fn mshrs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one MSHR");
        self.mshrs = n;
        self
    }

    /// Forwards the lane fed by port `from`. A response, or a posted
    /// request (which gets none), releases its slot as it leaves.
    fn drain(&mut self, ctx: &mut Ctx<'_>, from: PortId) {
        while let Some(sent) = self.lanes[usize::from(from.0)].send_head(ctx, across(from)) {
            if sent != Sent::Request {
                self.outstanding -= 1;
                self.lanes[0].grant_retry(ctx, STAGE_CPU_SIDE);
            }
        }
    }
}

impl Component for Stage {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, STAGE_CPU_SIDE, "{}: requests enter on the CPU side", self.name);
        if self.outstanding >= self.mshrs {
            self.refusals.inc();
            return self.lanes[0].refuse(pkt);
        }
        self.outstanding += 1;
        self.accesses.inc();
        self.lanes[0].delay(ctx, self.delay, u32::from(port.0), pkt);
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        self.lanes[1].delay(ctx, self.delay, u32::from(port.0), pkt);
        RecvResult::Accepted
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
        out.counter("accesses", &self.accesses);
        out.counter("refusals", &self.refusals);
        out.scalar("outstanding", self.outstanding as f64);
    }

    crate::state_fields!(component self;
        outstanding, lanes, accesses, refusals,
        save(_w) {}
        load(_r) {
            let held = self.lanes.iter().map(TimedQueue::held).sum();
            check_slots(&self.name, self.outstanding, self.mshrs, held)?;
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use crate::packet::{Command, PacketId};
    use crate::sim::{RunOutcome, Simulation};
    use crate::snapshot::{SnapshotError, StateReader, StateWriter};
    use crate::stats::StatsSnapshot;
    use crate::testutil::{CompletionLog, Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};

    /// Runs `script` through `stage` to a responder serving in `service`.
    fn run(
        stage: Stage,
        script: Vec<(Command, u64, u32)>,
        service: Tick,
    ) -> (CompletionLog, Tick, StatsSnapshot) {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let s = sim.add(Box::new(stage));
        let (resp, _) = Responder::new("mem", service);
        let m = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (s, STAGE_CPU_SIDE));
        sim.connect((s, STAGE_MEM_SIDE), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        (done, sim.now(), sim.stats())
    }

    fn reads(n: u64) -> Vec<(Command, u64, u32)> {
        (0..n).map(|i| (Command::ReadReq, 0x1000 + i * 64, 64)).collect()
    }

    fn writes(n: u64) -> Vec<(Command, u64, u32)> {
        (0..n).map(|i| (Command::WriteReq, 0x8000_0000 + i * 64, 64)).collect()
    }

    #[test]
    fn bridge_round_trip_sees_two_crossings() {
        let (done, _, _) = run(Stage::bridge("bridge"), reads(1), ns(100));
        let done = done.borrow();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, ns(200));
    }

    #[test]
    fn iocache_adds_lookup_and_fill_latency() {
        let (done, end, _) = run(Stage::iocache("iocache"), writes(1), ns(30));
        assert_eq!(done.borrow().len(), 1);
        // 2 ns lookup + 30 ns memory + 2 ns fill.
        assert_eq!(end, ns(34));
    }

    #[test]
    fn a_shallow_bridge_loses_nothing() {
        let (done, _, stats) = run(Stage::bridge("bridge").mshrs(2), reads(32), ns(10));
        assert_eq!(done.borrow().len(), 32);
        assert_eq!(stats.get("bridge.accesses"), Some(32.0));
    }

    #[test]
    fn mshr_limit_backpressures_but_loses_nothing() {
        let (done, _, stats) = run(Stage::iocache("iocache").mshrs(2), writes(64), ns(30));
        assert_eq!(done.borrow().len(), 64);
        assert!(stats.get("iocache.refusals").unwrap() > 0.0, "2 MSHRs must refuse 64 writes");
    }

    #[test]
    fn wide_mshrs_never_refuse_small_bursts() {
        let (done, _, stats) = run(Stage::iocache("iocache"), writes(8), ns(30));
        assert_eq!(done.borrow().len(), 8);
        assert_eq!(stats.get("iocache.refusals"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "requests enter on the CPU side")]
    fn request_on_the_memory_side_panics() {
        let mut sim = Simulation::new();
        let (req, _) = Requester::new("cpu", vec![(Command::ReadReq, 0, 4)]);
        let r = sim.add(Box::new(req));
        let b = sim.add(Box::new(Stage::bridge("bridge")));
        // Wired backwards on purpose.
        sim.connect((r, REQUESTER_PORT), (b, STAGE_MEM_SIDE));
        sim.run_to_quiesce();
    }

    #[test]
    fn restore_rejects_outstanding_outside_what_the_stage_holds() {
        for held_unclaimed in [false, true] {
            let mut stage = Stage::iocache("iocache").mshrs(2);
            if held_unclaimed {
                let pkt = Packet::request(PacketId(1), Command::ReadReq, 0, 4, ComponentId(0));
                stage.lanes[1].push(pkt.into_read_response(vec![0; 4]));
            } else {
                stage.outstanding = 3;
            }
            let mut w = StateWriter::new();
            stage.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = Stage::iocache("iocache")
                .mshrs(2)
                .restore_state(&mut StateReader::new(&bytes))
                .expect_err("outstanding must cover the held packets and stay within the MSHRs");
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
        }
    }
}
