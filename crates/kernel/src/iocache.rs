//! The DMA IOCache (gem5's `IOCache`).
//!
//! gem5 inserts a small cache between off-chip DMA masters and the memory
//! bus "to ensure the coherency of DMA accesses from the off-chip devices as
//! well as act as a bandwidth buffer between connections of different
//! widths" (§III). This model captures the timing-relevant behaviour: a
//! fixed lookup latency on the request path, a fixed fill latency on the
//! response path, and an MSHR-style bound on outstanding misses that
//! backpressures the device side when memory is slow.

use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::Packet;
use crate::queue::{Sent, TimedQueue};
use crate::sim::Ctx;
use crate::stats::{Counter, StatsBuilder};
use crate::tick::{ns, Tick};

/// Port facing the device/root-complex side (receives DMA requests).
pub const IOCACHE_DEV_SIDE: PortId = PortId(0);
/// Port facing the memory bus (sends requests onward).
pub const IOCACHE_MEM_SIDE: PortId = PortId(1);

/// Tag-lookup latency added on the request path (gem5-like).
const LOOKUP_LATENCY: Tick = ns(2);
/// Fill latency added on the response path (gem5-like).
const FILL_LATENCY: Tick = ns(2);

/// Builder for [`IoCache`]; see [`IoCache::builder`].
#[derive(Debug)]
pub struct IoCacheBuilder {
    name: String,
    mshrs: usize,
}

impl IoCacheBuilder {
    /// Sets the maximum number of outstanding misses.
    pub fn mshrs(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one MSHR");
        self.mshrs = n;
        self
    }

    /// Builds the cache.
    pub fn build(self) -> IoCache {
        IoCache {
            name: self.name,
            mshrs: self.mshrs,
            outstanding: 0,
            lanes: Default::default(),
            accesses: Counter::new(),
            refusals: Counter::new(),
        }
    }
}

/// Timing model of the DMA IOCache.
///
/// The `DelayedPacket` tag is the port the packet arrived on.
#[derive(Debug)]
pub struct IoCache {
    name: String,
    mshrs: usize,
    /// Requests accepted and not yet answered (delayed, queued or at
    /// memory).
    outstanding: usize,
    /// `lanes[p]` carries what arrives on port `p` to the other port:
    /// requests to memory, responses back to the device side. The MSHRs,
    /// not the lanes, bound admission; the request lane owes the device
    /// side its retry.
    lanes: [TimedQueue; 2],
    accesses: Counter,
    refusals: Counter,
}

impl IoCache {
    /// Starts building an IOCache with 16 MSHRs (gem5-like).
    pub fn builder(name: impl Into<String>) -> IoCacheBuilder {
        IoCacheBuilder { name: name.into(), mshrs: 16 }
    }

    /// Forwards the lane fed by port `from`. A response, or a posted
    /// request (which gets none), releases its MSHR as it leaves.
    fn drain(&mut self, ctx: &mut Ctx<'_>, from: PortId) {
        let out = PortId(from.0 ^ 1);
        while let Some(sent) = self.lanes[usize::from(from.0)].send_head(ctx, out) {
            if sent != Sent::Request {
                self.outstanding -= 1;
                self.lanes[0].grant_retry(ctx, IOCACHE_DEV_SIDE);
            }
        }
    }
}

impl Component for IoCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, IOCACHE_DEV_SIDE, "{}: DMA requests enter on the device side", self.name);
        if self.outstanding >= self.mshrs {
            self.refusals.inc();
            return self.lanes[0].refuse(pkt);
        }
        self.outstanding += 1;
        self.accesses.inc();
        self.lanes[0].delay(ctx, LOOKUP_LATENCY, u32::from(port.0), pkt);
        RecvResult::Accepted
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, IOCACHE_MEM_SIDE, "{}: memory responses enter on the mem side", self.name);
        self.lanes[1].delay(ctx, FILL_LATENCY, u32::from(port.0), pkt);
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
        let from = PortId(port.0 ^ 1);
        self.lanes[usize::from(from.0)].unblock();
        self.drain(ctx, from);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("accesses", &self.accesses);
        out.counter("refusals", &self.refusals);
        out.scalar("outstanding", self.outstanding as f64);
    }

    crate::state_fields!(component self; outstanding, lanes, accesses, refusals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Command;
    use crate::sim::{RunOutcome, Simulation};
    use crate::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};

    fn run_iocache(n: u64, mshrs: usize, service: Tick) -> (usize, Tick, f64) {
        let mut sim = Simulation::new();
        let script = (0..n).map(|i| (Command::WriteReq, 0x8000_0000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("dma", script);
        let r = sim.add(Box::new(req));
        let c = sim.add(Box::new(IoCache::builder("iocache").mshrs(mshrs).build()));
        let (resp, _) = Responder::new("mem", service);
        let m = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (c, IOCACHE_DEV_SIDE));
        sim.connect((c, IOCACHE_MEM_SIDE), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let completions = done.borrow().len();
        let refusals = sim.stats().get("iocache.refusals").unwrap();
        (completions, sim.now(), refusals)
    }

    #[test]
    fn adds_lookup_and_fill_latency() {
        let (n, end, _) = run_iocache(1, 16, ns(30));
        assert_eq!(n, 1);
        // 2 ns lookup + 30 ns memory + 2 ns fill.
        assert_eq!(end, ns(34));
    }

    #[test]
    fn mshr_limit_backpressures_but_loses_nothing() {
        let (n, _, refusals) = run_iocache(64, 2, ns(30));
        assert_eq!(n, 64);
        assert!(refusals > 0.0, "a 2-MSHR cache must refuse a 64-deep burst");
    }

    #[test]
    fn wide_mshrs_never_refuse_small_bursts() {
        let (n, _, refusals) = run_iocache(8, 16, ns(30));
        assert_eq!(n, 8);
        assert_eq!(refusals, 0.0);
    }
}
