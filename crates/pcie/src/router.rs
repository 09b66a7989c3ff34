//! Root complex and switch models (paper §V-A, §V-B, Figs. 6–7).
//!
//! Both components share one structure, [`PcieRouter`]: an upstream port
//! pair plus N downstream port pairs, each downstream pair fronted by a
//! **virtual PCI-to-PCI bridge** (VP2P) configuration space registered with
//! the PCI host. A switch additionally carries a VP2P on its upstream port.
//!
//! Routing follows the paper exactly:
//!
//! * **requests** arriving on the upstream slave are routed to the
//!   downstream port whose VP2P memory or I/O window contains the packet
//!   address;
//! * **requests** arriving on a downstream slave (DMA) are stamped with the
//!   VP2P's secondary bus number if the packet's PCI bus field is still
//!   unset, then forwarded peer-to-peer when a sibling window matches and
//!   upstream otherwise — in both switches and the root complex, so reads
//!   between endpoints under different root ports never leave the fabric;
//! * **responses** are routed by comparing the packet's bus number against
//!   each VP2P's secondary..=subordinate range; no match forwards upstream.
//!
//! Each port has bounded ingress and egress buffers (the 16/20/24/28 knob
//! of Fig. 9(d)) and a processing engine with a pipeline `latency`
//! (50–150 ns in Fig. 9(a)) and a per-port `service_interval` that bounds
//! throughput — the "packets too fast for the switch port to handle"
//! effect behind the x8 collapse of Fig. 9(b).

use std::collections::{BTreeMap, BTreeSet};

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::calendar::EventHandle;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{CompletionStatus, Packet};
use pcisim_kernel::queue::{TimedQueue, Waiters};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{Bounded, SnapshotError, State};
use pcisim_kernel::state_fields;
use pcisim_kernel::stats::{Counter, StatsBuilder};
use pcisim_kernel::tick::{ns, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceKind};
use pcisim_pci::caps::{
    aer_record_uncorrectable, write_aer_capability, CapChain, Capability, PortType,
};
use pcisim_pci::config::{shared, SharedConfigSpace};
use pcisim_pci::header::{bus_numbers, io_window, memory_window, Type1Header};
use pcisim_pci::regs::{aer, common, status};

use crate::params::{Generation, LinkWidth};

/// Upstream slave port: receives requests from the memory side, emits
/// responses toward it.
pub const PORT_UPSTREAM_SLAVE: PortId = PortId(0);
/// Upstream master port: emits DMA requests toward memory, receives their
/// responses.
pub const PORT_UPSTREAM_MASTER: PortId = PortId(1);

/// Downstream master port of pair `i`: emits requests toward the device,
/// receives responses.
pub fn port_downstream_master(i: usize) -> PortId {
    PortId((2 + 2 * i) as u16)
}

/// Downstream slave port of pair `i`: receives DMA requests from the
/// device, emits responses toward it.
pub fn port_downstream_slave(i: usize) -> PortId {
    PortId((3 + 2 * i) as u16)
}

/// Whether the router is a root complex or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// The root complex: downstream ports are root ports; DMA that no
    /// sibling root-port window claims goes upstream (through the IOCache
    /// to memory).
    RootComplex,
    /// A switch: carries an upstream VP2P on top of the shared
    /// peer-to-peer / upstream routing.
    Switch,
}

/// Timing and buffering knobs shared by root complex and switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// End-to-end processing latency per packet (the paper sweeps the
    /// switch from 50 to 150 ns and fixes the root complex at 150 ns).
    pub latency: Tick,
    /// Minimum spacing between packets serviced by one ingress port; this
    /// bounds per-port throughput.
    pub service_interval: Tick,
    /// Capacity of each ingress and each egress buffer, in packets
    /// (Fig. 9(d) sweeps 16/20/24/28).
    pub buffer_size: usize,
    /// Requester-side completion timeout for non-posted requests admitted
    /// on the upstream slave port. `None` disables tracking (the default —
    /// switches don't own the timeout; the spec places it at the
    /// requester). The spec range is 50 µs to 50 ms; the system builder
    /// arms the root complex with the low end.
    pub completion_timeout: Option<Tick>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            latency: ns(150),
            service_interval: ns(42),
            buffer_size: 16,
            completion_timeout: None,
        }
    }
}

impl RouterConfig {
    fn check(&self) {
        assert!(self.buffer_size > 0, "port buffers must hold at least one packet");
        assert!(self.latency >= self.service_interval, "latency must cover the service interval");
    }
}

/// Builds a VP2P configuration space with the paper's layout: a type-1
/// header (Fig. 7) with the capability pointer at 0xd8 and a PCI-Express
/// capability structure describing the port.
pub fn make_vp2p(
    vendor: u16,
    device: u16,
    port_type: PortType,
    generation: Generation,
    width: LinkWidth,
) -> SharedConfigSpace {
    let mut cs = Type1Header::new(vendor, device).capabilities_at(0xd8).build();
    CapChain::new()
        .add(0xd8, Capability::PciExpress { port_type, generation, max_width: width.lanes() })
        .write_into(&mut cs);
    write_aer_capability(&mut cs, 0x100, 0);
    shared(cs)
}

const K_SERVICE_DONE: u32 = 0;
const K_CPL_TIMEOUT: u32 = 1;

#[derive(Debug, Default)]
struct PortBuffers {
    /// Admitted packets waiting for the service engine; owes the feeding
    /// peer a retry once it has room.
    ingress: TimedQueue,
    in_service: Option<Packet>,
    service_egress: usize,
    /// The packet in service matched no route: convert it to an
    /// Unsupported Request completion when service finishes.
    service_unrouted: bool,
    engine_busy: bool,
    /// Serviced packets toward this port's peer; the delay pipe holds those
    /// past service and still in the pipeline latency.
    egress: TimedQueue,
    /// Ingress ports whose engines stalled because this egress was full;
    /// restarted, not sent retries, when it frees.
    egress_waiters: Waiters,
}

impl PortBuffers {
    fn new(buffer_size: usize) -> Self {
        let lane = || TimedQueue::bounded(buffer_size);
        Self { ingress: lane(), egress: lane(), ..Self::default() }
    }
}

#[derive(Debug, Default)]
struct RouterStats {
    requests: Counter,
    responses: Counter,
    ingress_refusals: Counter,
    egress_stalls: Counter,
    /// Requests matching no downstream window: completed with an
    /// Unsupported Request (master abort) instead of panicking.
    unsupported_requests: Counter,
    /// Non-posted requests whose completion never arrived in time; an
    /// error completion was synthesized at the upstream port.
    completion_timeouts: Counter,
    /// Completions that arrived after their request had already timed out;
    /// dropped as Unexpected Completions.
    late_completions: Counter,
}

/// One outstanding non-posted request tracked by the completion-timeout
/// engine at the upstream slave port.
#[derive(Debug, Default)]
struct PendingCompletion {
    timer: EventHandle,
    /// The admitted request's header and route stack, kept so a
    /// synthesized error completion carries the real route stack back
    /// through the fabric.
    request: Packet,
    /// Downstream pair the request was routed toward (window match at
    /// admission), so a timeout latches in that port's registers rather
    /// than blaming port 0 for every failure. `None` when no window
    /// claimed the address.
    pair: Option<usize>,
}

impl State for PendingCompletion {
    state_fields!(state self; timer, request, pair);
}

/// The pair names one of the router's downstream VP2Ps.
impl Bounded for PendingCompletion {
    fn within(&self, pairs: &usize) -> bool {
        self.pair.within(pairs)
    }
}

/// The shared root-complex / switch component. Construct with
/// [`PcieRouter::root_complex`] or [`PcieRouter::switch`].
pub struct PcieRouter {
    name: String,
    kind: RouterKind,
    config: RouterConfig,
    /// One VP2P per downstream port.
    vp2ps: Vec<SharedConfigSpace>,
    /// Switch upstream VP2P (None for the root complex).
    upstream_vp2p: Option<SharedConfigSpace>,
    ports: Vec<PortBuffers>,
    stats: RouterStats,
    /// Outstanding non-posted upstream requests, keyed by packet id
    /// (completion-timeout tracking; empty when the knob is off).
    pending: BTreeMap<u64, PendingCompletion>,
    /// Ids whose timeout already fired: a completion showing up now is an
    /// Unexpected Completion and must be swallowed, not forwarded.
    timed_out: BTreeSet<u64>,
    /// CXL HDM decoder routes: requests to these address windows forward to
    /// the named downstream pair, in parallel with the VP2P bridge windows.
    /// Installed at build time by the topology planner ([`Self::add_hdm_route`])
    /// and never mutated at run time, so they are not part of the snapshot.
    hdm_routes: Vec<(AddrRange, usize)>,
}

impl PcieRouter {
    /// Creates a root complex with one VP2P per root port. The paper's
    /// root complex has three root ports.
    ///
    /// # Panics
    ///
    /// Panics when `vp2ps` is empty or the configuration is inconsistent.
    pub fn root_complex(
        name: impl Into<String>,
        config: RouterConfig,
        vp2ps: Vec<SharedConfigSpace>,
    ) -> Self {
        config.check();
        assert!(!vp2ps.is_empty(), "a root complex needs at least one root port");
        let n = vp2ps.len();
        let ports = (0..2 + 2 * n).map(|_| PortBuffers::new(config.buffer_size)).collect();
        Self {
            name: name.into(),
            kind: RouterKind::RootComplex,
            config,
            vp2ps,
            upstream_vp2p: None,
            ports,
            stats: RouterStats::default(),
            pending: BTreeMap::new(),
            timed_out: BTreeSet::new(),
            hdm_routes: Vec::new(),
        }
    }

    /// Creates a switch with an upstream VP2P and one VP2P per downstream
    /// port.
    ///
    /// # Panics
    ///
    /// Panics when `downstream_vp2ps` is empty or the configuration is
    /// inconsistent.
    pub fn switch(
        name: impl Into<String>,
        config: RouterConfig,
        upstream_vp2p: SharedConfigSpace,
        downstream_vp2ps: Vec<SharedConfigSpace>,
    ) -> Self {
        config.check();
        assert!(!downstream_vp2ps.is_empty(), "a switch needs at least one downstream port");
        let n = downstream_vp2ps.len();
        let ports = (0..2 + 2 * n).map(|_| PortBuffers::new(config.buffer_size)).collect();
        Self {
            name: name.into(),
            kind: RouterKind::Switch,
            config,
            vp2ps: downstream_vp2ps,
            upstream_vp2p: Some(upstream_vp2p),
            ports,
            stats: RouterStats::default(),
            pending: BTreeMap::new(),
            timed_out: BTreeSet::new(),
            hdm_routes: Vec::new(),
        }
    }

    /// Which kind of router this is.
    pub fn kind(&self) -> RouterKind {
        self.kind
    }

    /// Number of downstream port pairs.
    pub fn num_downstream(&self) -> usize {
        self.vp2ps.len()
    }

    /// The VP2P configuration space of downstream port `i`.
    pub fn vp2p(&self, i: usize) -> SharedConfigSpace {
        self.vp2ps[i].clone()
    }

    /// The switch's upstream VP2P, if this is a switch.
    pub fn upstream_vp2p(&self) -> Option<SharedConfigSpace> {
        self.upstream_vp2p.clone()
    }

    /// Downstream pair whose VP2P window contains `addr`, if any.
    fn downstream_by_window(&self, addr: u64, exclude: Option<usize>) -> Option<usize> {
        self.vp2ps.iter().enumerate().position(|(i, cs)| {
            if exclude == Some(i) {
                return false;
            }
            let cs = cs.borrow();
            memory_window(&cs).contains(addr) || io_window(&cs).contains(addr)
        })
    }

    /// Installs a CXL HDM decoder route: requests addressed inside `range`
    /// forward to downstream pair `pair`. Call **after** enumeration has
    /// programmed the VP2P bridge windows, so the overlap audit below sees
    /// the final address map.
    ///
    /// # Panics
    ///
    /// Panics loudly when `range` overlaps any downstream VP2P memory or
    /// I/O forwarding window, or a previously installed HDM route. An
    /// overlapping window would make decode order (bridge window vs HDM
    /// decoder) decide where the access lands — silent shadowing — so the
    /// planner must reject the address map instead of building it.
    pub fn add_hdm_route(&mut self, range: AddrRange, pair: usize) {
        assert!(pair < self.vp2ps.len(), "{}: HDM route to unknown pair {pair}", self.name);
        for (i, cs) in self.vp2ps.iter().enumerate() {
            let cs = cs.borrow();
            let mem = memory_window(&cs);
            let io = io_window(&cs);
            assert!(
                !range.overlaps(&mem) && !range.overlaps(&io),
                "{}: HDM window {range} overlaps the VP2P forwarding window of downstream \
                 pair {i} (mem {mem}, io {io}); bridge-window decode would silently shadow \
                 the HDM decoder — reject this address map at plan time",
                self.name
            );
        }
        if let Some(cs) = &self.upstream_vp2p {
            let cs = cs.borrow();
            let mem = memory_window(&cs);
            let io = io_window(&cs);
            assert!(
                !range.overlaps(&mem) && !range.overlaps(&io),
                "{}: HDM window {range} overlaps the upstream VP2P forwarding window \
                 (mem {mem}, io {io})",
                self.name
            );
        }
        for (other, p) in &self.hdm_routes {
            assert!(
                !range.overlaps(other),
                "{}: HDM window {range} overlaps HDM window {other} already routed to \
                 pair {p}",
                self.name
            );
        }
        self.hdm_routes.push((range, pair));
    }

    /// Downstream pair whose HDM decoder window contains `addr`, if any.
    fn hdm_route_for(&self, addr: u64) -> Option<usize> {
        self.hdm_routes.iter().find(|(r, _)| r.contains(addr)).map(|&(_, pair)| pair)
    }

    /// Downstream pair whose VP2P bus range covers `bus`, if any.
    fn downstream_by_bus(&self, bus: u8) -> Option<usize> {
        self.vp2ps.iter().position(|cs| {
            let (_, sec, sub) = bus_numbers(&cs.borrow());
            sec <= bus && bus <= sub && sec != 0
        })
    }

    /// Chooses the egress kernel-port index for a packet entering on
    /// kernel port `ingress`; `None` means no downstream window claims the
    /// request (master abort).
    fn route(&self, ingress: usize, pkt: &Packet) -> Option<usize> {
        let up_slave = PORT_UPSTREAM_SLAVE.0 as usize;
        let up_master = PORT_UPSTREAM_MASTER.0 as usize;
        Some(if pkt.is_request() {
            if ingress == up_slave {
                // CPU request: VP2P window routing, with the CXL HDM
                // decoder as a disjoint (plan-audited) parallel decode.
                let i = self
                    .downstream_by_window(pkt.addr(), None)
                    .or_else(|| self.hdm_route_for(pkt.addr()))?;
                port_downstream_master(i).0 as usize
            } else {
                // DMA from a downstream device: peer-to-peer when a
                // sibling window claims the address (between root ports as
                // much as between switch downstream ports), else upstream.
                debug_assert!(ingress >= 2 && ingress % 2 == 1, "requests enter slave ports");
                let pair = (ingress - 2) / 2;
                if let Some(j) = self
                    .downstream_by_window(pkt.addr(), Some(pair))
                    .or_else(|| self.hdm_route_for(pkt.addr()).filter(|&j| j != pair))
                {
                    return Some(port_downstream_master(j).0 as usize);
                }
                up_master
            }
        } else {
            // Response: bus-number routing; no match forwards upstream.
            match pkt.pci_bus().and_then(|b| self.downstream_by_bus(b)) {
                Some(j) => port_downstream_slave(j).0 as usize,
                None => up_slave,
            }
        })
    }

    /// The configuration space that records errors seen at the upstream
    /// port: the first root-port VP2P on a root complex (standing in for
    /// the host bridge), the upstream VP2P on a switch.
    fn upstream_cs(&self) -> SharedConfigSpace {
        match self.kind {
            RouterKind::RootComplex => self.vp2ps[0].clone(),
            RouterKind::Switch => {
                self.upstream_vp2p.as_ref().expect("switch has upstream vp2p").clone()
            }
        }
    }

    /// The configuration space errors are attributed to: the VP2P of the
    /// downstream pair that carried (or should have carried) the
    /// transaction when known, the upstream stand-in otherwise.
    fn attributed_cs(&self, pair: Option<usize>) -> SharedConfigSpace {
        match pair {
            Some(i) => self.vp2ps[i].clone(),
            None => self.upstream_cs(),
        }
    }

    /// Downstream pair a kernel port index belongs to, if any.
    fn pair_of(ingress: usize) -> Option<usize> {
        (ingress >= 2).then(|| (ingress - 2) / 2)
    }

    /// Records a master abort against downstream pair `pair` (or the
    /// upstream stand-in): Received-Master-Abort in the legacy status
    /// register plus the Unsupported Request bit in AER.
    fn record_master_abort(&mut self, pkt: &Packet, pair: Option<usize>) {
        let cs = self.attributed_cs(pair);
        let mut cs = cs.borrow_mut();
        let st = cs.read(common::STATUS, 2) as u16;
        cs.init_u16(common::STATUS, st | status::RECEIVED_MASTER_ABORT);
        let source = u16::from(pkt.pci_bus().unwrap_or(0)) << 8;
        aer_record_uncorrectable(&mut cs, aer::uncor::UNSUPPORTED_REQUEST, source);
    }

    /// Bus number a slave port stamps onto unstamped requests.
    fn stamp_for(&self, ingress: usize) -> Option<u8> {
        let up_slave = PORT_UPSTREAM_SLAVE.0 as usize;
        if ingress == up_slave {
            match self.kind {
                // "The upstream root complex slave port sets the bus number
                // to be 0."
                RouterKind::RootComplex => Some(0),
                // A switch's upstream port sits on the primary bus of its
                // upstream VP2P.
                RouterKind::Switch => {
                    let cs = self.upstream_vp2p.as_ref().expect("switch has upstream vp2p");
                    Some(bus_numbers(&cs.borrow()).0)
                }
            }
        } else if ingress >= 2 && ingress % 2 == 1 {
            // Downstream slave: the secondary bus of its VP2P.
            let pair = (ingress - 2) / 2;
            Some(bus_numbers(&self.vp2ps[pair].borrow()).1)
        } else {
            None
        }
    }

    /// Starts the service engine of `ingress` if idle and the head packet's
    /// egress has room.
    fn try_start(&mut self, ctx: &mut Ctx<'_>, ingress: usize) {
        loop {
            if self.ports[ingress].engine_busy {
                return;
            }
            let Some(head) = self.ports[ingress].ingress.front() else { return };
            // An unroutable request (master abort) is turned around: its
            // Unsupported Request completion leaves back through the
            // ingress port's own egress buffer, paced like any other
            // packet. Posted requests vanish on the spot — nobody waits.
            let (egress, unrouted) = match self.route(ingress, head) {
                Some(e) => (e, false),
                None => {
                    if head.is_posted() {
                        let pkt = self.ports[ingress].ingress.pop().expect("head exists");
                        self.stats.unsupported_requests.inc();
                        self.record_master_abort(&pkt, Self::pair_of(ingress));
                        self.ports[ingress].ingress.grant_retry(ctx, PortId(ingress as u16));
                        continue;
                    }
                    (ingress, true)
                }
            };
            if self.ports[egress].egress.is_full() {
                self.stats.egress_stalls.inc();
                self.ports[egress].egress_waiters.add(PortId(ingress as u16));
                return;
            }
            let pkt = self.ports[ingress].ingress.pop().expect("head exists");
            if unrouted {
                self.stats.unsupported_requests.inc();
                self.record_master_abort(&pkt, Self::pair_of(ingress));
            }
            if ctx.tracing(TraceCategory::Router) {
                ctx.emit(
                    TraceCategory::Router,
                    TraceKind::RouteDecision,
                    Some(pkt.id()),
                    Some(pkt.cmd()),
                    egress as u64,
                );
            }
            let p = &mut self.ports[ingress];
            p.engine_busy = true;
            p.in_service = Some(pkt);
            p.service_egress = egress;
            p.service_unrouted = unrouted;
            self.ports[egress].egress.reserve();
            ctx.schedule(
                self.config.service_interval,
                Event::Timer { kind: K_SERVICE_DONE, data: ingress as u64 },
            );
            // Ingress space freed: grant the feeding peer a retry.
            self.ports[ingress].ingress.grant_retry(ctx, PortId(ingress as u16));
            return;
        }
    }

    fn service_done(&mut self, ctx: &mut Ctx<'_>, ingress: usize) {
        let p = &mut self.ports[ingress];
        let mut pkt = p.in_service.take().expect("service completion without packet");
        let egress = p.service_egress;
        p.engine_busy = false;
        if std::mem::replace(&mut p.service_unrouted, false) {
            // The request dies here, so the completion-timeout entry armed
            // at admission must die with it — otherwise the timer would
            // fire and send the requester a second, spurious completion.
            if let Some(pending) = self.pending.remove(&pkt.id().0) {
                ctx.cancel_scheduled(pending.timer);
            }
            pkt = pkt.into_error_response(CompletionStatus::UnsupportedRequest);
        }
        if ctx.tracing(TraceCategory::Router) {
            ctx.emit(
                TraceCategory::Router,
                TraceKind::ServiceDone,
                Some(pkt.id()),
                Some(pkt.cmd()),
                egress as u64,
            );
        }
        // Remaining pipeline latency toward the egress buffer.
        let rest = self.config.latency - self.config.service_interval;
        ctx.schedule(rest, Event::DelayedPacket { tag: egress as u32, pkt });
        self.try_start(ctx, ingress);
    }

    fn drain_egress(&mut self, ctx: &mut Ctx<'_>, egress: usize) {
        while self.ports[egress].egress.send_head(ctx, PortId(egress as u16)).is_some() {
            // Space freed: restart any ingress engines stalled on this
            // egress.
            for ing in self.ports[egress].egress_waiters.take() {
                self.try_start(ctx, usize::from(ing.0));
            }
        }
    }

    fn admit(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) -> RecvResult {
        let ingress = port.0 as usize;
        assert!(ingress < self.ports.len(), "{}: unknown port {port}", self.name);
        if self.ports[ingress].ingress.is_full() {
            self.stats.ingress_refusals.inc();
            return self.ports[ingress].ingress.refuse(pkt);
        }
        if pkt.is_request() {
            self.stats.requests.inc();
            if let Some(bus) = self.stamp_for(ingress) {
                pkt.stamp_pci_bus(bus);
            }
            // Requester-side completion timeout: track every non-posted
            // request admitted at the upstream slave until its completion
            // is admitted back (or the timer fires).
            if ingress == PORT_UPSTREAM_SLAVE.0 as usize && !pkt.is_posted() {
                if let Some(timeout) = self.config.completion_timeout {
                    let timer = ctx
                        .schedule(timeout, Event::Timer { kind: K_CPL_TIMEOUT, data: pkt.id().0 });
                    let request = pkt.header();
                    let pair = self
                        .downstream_by_window(pkt.addr(), None)
                        .or_else(|| self.hdm_route_for(pkt.addr()));
                    self.pending.insert(pkt.id().0, PendingCompletion { timer, request, pair });
                }
            }
        } else {
            if pkt.status() == CompletionStatus::UnsupportedRequest {
                // A completer below this port master-aborted the request:
                // the port pair that forwarded it is the one whose
                // bookkeeping must show it.
                if let Some(pair) = Self::pair_of(ingress) {
                    self.record_master_abort(&pkt, Some(pair));
                }
            }
            let id = pkt.id().0;
            if let Some(p) = self.pending.remove(&id) {
                ctx.cancel_scheduled(p.timer);
            } else if self.timed_out.remove(&id) {
                // The requester already saw a synthesized timeout
                // completion; this one is an Unexpected Completion and
                // must not be forwarded a second time.
                self.stats.late_completions.inc();
                let cs = self.attributed_cs(Self::pair_of(ingress));
                let source = u16::from(pkt.pci_bus().unwrap_or(0)) << 8;
                aer_record_uncorrectable(
                    &mut cs.borrow_mut(),
                    aer::uncor::UNEXPECTED_COMPLETION,
                    source,
                );
                return RecvResult::Accepted;
            }
            self.stats.responses.inc();
        }
        self.ports[ingress].ingress.push(pkt);
        if ctx.tracing(TraceCategory::Router) {
            ctx.emit(
                TraceCategory::Router,
                TraceKind::BufferOccupancy,
                None,
                None,
                self.ports[ingress].ingress.len() as u64,
            );
        }
        self.try_start(ctx, ingress);
        RecvResult::Accepted
    }

    /// The completion timeout of outstanding request `id` fired: synthesize
    /// an error completion from the stored request (reads return all-ones)
    /// and send it back out the upstream slave port, so the requester
    /// unblocks and the simulation quiesces instead of hanging.
    fn completion_timeout_fired(&mut self, ctx: &mut Ctx<'_>, id: u64) {
        let Some(p) = self.pending.remove(&id) else { return };
        self.timed_out.insert(id);
        self.stats.completion_timeouts.inc();
        let req = p.request;
        {
            let cs = self.attributed_cs(p.pair);
            let mut cs = cs.borrow_mut();
            let source = u16::from(req.pci_bus().unwrap_or(0)) << 8;
            aer_record_uncorrectable(&mut cs, aer::uncor::COMPLETION_TIMEOUT, source);
        }
        if ctx.tracing(TraceCategory::Router) {
            ctx.emit(
                TraceCategory::Router,
                TraceKind::RouteDecision,
                Some(req.id()),
                Some(req.cmd()),
                u64::MAX,
            );
        }
        let resp = req.into_error_response(CompletionStatus::CompletionTimeout);
        let up_slave = PORT_UPSTREAM_SLAVE.0 as usize;
        // Past the buffer's capacity if need be: the requester must hear back.
        self.ports[up_slave].egress.push(resp);
        self.drain_egress(ctx, up_slave);
    }
}

impl Component for PcieRouter {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        self.admit(ctx, port, pkt)
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        self.admit(ctx, port, pkt)
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_SERVICE_DONE, data } => self.service_done(ctx, data as usize),
            Event::Timer { kind: K_CPL_TIMEOUT, data } => self.completion_timeout_fired(ctx, data),
            Event::Timer { kind, .. } => panic!("{}: unknown timer {kind}", self.name),
            Event::DelayedPacket { tag, pkt } => {
                let egress = tag as usize;
                self.ports[egress].egress.arrive(pkt);
                self.drain_egress(ctx, egress);
            }
        }
    }

    fn check_timer(&self, kind: u32, data: u64) -> Result<(), SnapshotError> {
        match kind {
            K_SERVICE_DONE => {
                let port = usize::try_from(data).ok().and_then(|i| self.ports.get(i));
                if port.is_none_or(|p| p.in_service.is_none()) {
                    return Err(SnapshotError::Corrupt(format!(
                        "{}: service-done timer for port {data}, which has no packet in service",
                        self.name
                    )));
                }
                Ok(())
            }
            K_CPL_TIMEOUT => Ok(()),
            _ => Err(SnapshotError::Corrupt(format!("{}: unknown timer {kind}", self.name))),
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let egress = port.0 as usize;
        self.ports[egress].egress.unblock();
        self.drain_egress(ctx, egress);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("requests", &self.stats.requests);
        out.counter("responses", &self.stats.responses);
        out.counter("ingress_refusals", &self.stats.ingress_refusals);
        out.counter("egress_stalls", &self.stats.egress_stalls);
        out.counter("unsupported_requests", &self.stats.unsupported_requests);
        out.counter("completion_timeouts", &self.stats.completion_timeouts);
        out.counter("late_completions", &self.stats.late_completions);
    }

    state_fields!(component self;
        [ports; len] {
            ingress, in_service,
            service_egress: index < self.ports.len(),
            service_unrouted, engine_busy, egress,
            egress_waiters: index < self.ports.len(),
        },
        stats.requests, stats.responses, stats.ingress_refusals, stats.egress_stalls,
        stats.unsupported_requests, stats.completion_timeouts, stats.late_completions,
        pending: index < self.vp2ps.len(),
        timed_out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::addr::AddrRange;
    use pcisim_kernel::packet::Command;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::snapshot::{SnapshotError, StateReader, StateWriter};
    use pcisim_kernel::testutil::{reseal, Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
    use pcisim_pci::header::{program_io_window, program_memory_window};
    use pcisim_pci::regs::type1;

    /// A VP2P programmed as enumeration software would: bus range and
    /// windows.
    fn programmed_vp2p(sec: u8, sub: u8, mem: AddrRange, io: AddrRange) -> SharedConfigSpace {
        let cs = make_vp2p(0x8086, 0x9c90, PortType::RootPort, Generation::Gen2, LinkWidth::X4);
        {
            let mut b = cs.borrow_mut();
            b.write(type1::SECONDARY_BUS, 1, u32::from(sec));
            b.write(type1::SUBORDINATE_BUS, 1, u32::from(sub));
            program_memory_window(&mut b, mem);
            program_io_window(&mut b, io);
        }
        cs
    }

    fn mem0() -> AddrRange {
        AddrRange::new(0x4000_0000, 0x4010_0000)
    }
    fn mem1() -> AddrRange {
        AddrRange::new(0x4010_0000, 0x4020_0000)
    }

    fn rc_two_ports(config: RouterConfig) -> PcieRouter {
        PcieRouter::root_complex(
            "rc",
            config,
            vec![
                programmed_vp2p(1, 1, mem0(), AddrRange::empty()),
                programmed_vp2p(2, 2, mem1(), AddrRange::empty()),
            ],
        )
    }

    struct Harness {
        sim: Simulation,
        done: pcisim_kernel::testutil::CompletionLog,
    }

    fn build_rc_harness(config: RouterConfig, script: Vec<(Command, u64, u32)>) -> Harness {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let rc = sim.add(Box::new(rc_two_ports(config)));
        let (d0, _) = Responder::new("dev0", 0);
        let (d1, _) = Responder::new("dev1", 0);
        let d0 = sim.add(Box::new(d0));
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        Harness { sim, done }
    }

    #[test]
    fn requests_route_by_vp2p_window() {
        let mut h = build_rc_harness(
            RouterConfig::default(),
            vec![
                (Command::ReadReq, mem0().start() + 0x10, 4),
                (Command::ReadReq, mem1().start() + 0x20, 4),
            ],
        );
        assert_eq!(h.sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(h.done.borrow().len(), 2);
        let stats = h.sim.stats();
        assert_eq!(stats.get("rc.requests"), Some(2.0));
        assert_eq!(stats.get("rc.responses"), Some(2.0));
    }

    #[test]
    fn request_latency_is_twice_the_router_latency() {
        let cfg = RouterConfig {
            latency: ns(150),
            service_interval: ns(25),
            buffer_size: 16,
            ..RouterConfig::default()
        };
        let mut h = build_rc_harness(cfg, vec![(Command::ReadReq, mem0().start(), 4)]);
        h.sim.run_to_quiesce();
        // 150 ns down + 0 service at the device + 150 ns up.
        assert_eq!(h.done.borrow()[0].1, ns(300));
    }

    #[test]
    fn unrouted_cpu_request_completes_with_master_abort() {
        // One read misses every window, one hits: both must complete, no
        // panic, and the miss must be recorded as a master abort.
        let mut sim = Simulation::new();
        let (req, done) = Requester::new(
            "cpu",
            vec![(Command::ReadReq, 0x9000_0000, 4), (Command::ReadReq, mem0().start(), 4)],
        );
        let r = sim.add(Box::new(req));
        let rc = rc_two_ports(RouterConfig::default());
        let rp0 = rc.vp2p(0);
        let rc = sim.add(Box::new(rc));
        let (d0, served) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let (d1, _) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty, "master abort must not hang");
        assert_eq!(done.borrow().len(), 2, "both reads complete");
        assert_eq!(*served.borrow(), 1, "only the routed read reaches the device");
        let stats = sim.stats();
        assert_eq!(stats.get("rc.unsupported_requests"), Some(1.0));
        let cs = rp0.borrow();
        assert_ne!(
            cs.read(common::STATUS, 2) as u16 & status::RECEIVED_MASTER_ABORT,
            0,
            "Received Master Abort must latch in the status register"
        );
        let (uncor, _) = pcisim_pci::caps::aer_status(&cs);
        assert_ne!(uncor & aer::uncor::UNSUPPORTED_REQUEST, 0, "AER must log the UR");
    }

    #[test]
    fn unrouted_posted_write_is_dropped_and_counted() {
        let mut sim = Simulation::new();
        struct PostedProbe;
        impl Component for PostedProbe {
            fn name(&self) -> &str {
                "probe"
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
                let id = ctx.alloc_packet_id();
                let mut pkt =
                    Packet::request(id, Command::WriteReq, 0x9000_0000, 64, ctx.self_id())
                        .with_payload(vec![0; 64]);
                pkt.set_posted(true);
                ctx.try_send_request(PortId(0), pkt).unwrap();
            }
        }
        let p = sim.add(Box::new(PostedProbe));
        let rc = sim.add(Box::new(rc_two_ports(RouterConfig::default())));
        let (d0, served) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let (d1, _) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((p, PortId(0)), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 0);
        assert_eq!(sim.stats().get("rc.unsupported_requests"), Some(1.0));
    }

    /// Accepts every request and never answers — a hung device.
    struct BlackHole;
    impl Component for BlackHole {
        fn name(&self) -> &str {
            "blackhole"
        }
        fn recv_request(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, _pkt: Packet) -> RecvResult {
            RecvResult::Accepted
        }
    }

    #[test]
    fn non_responding_device_trips_the_completion_timeout() {
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, mem0().start(), 4)]);
        let r = sim.add(Box::new(req));
        let rc = rc_two_ports(cfg);
        let rp0 = rc.vp2p(0);
        let rc = sim.add(Box::new(rc));
        let b = sim.add(Box::new(BlackHole));
        let (d1, _) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (b, PortId(0)));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(
            sim.run_to_quiesce(),
            RunOutcome::QueueEmpty,
            "timeout must unblock the requester and quiesce"
        );
        let done = done.borrow();
        assert_eq!(done.len(), 1, "a synthesized completion must arrive");
        assert!(done[0].1 >= pcisim_kernel::tick::us(50), "not before the timeout");
        let stats = sim.stats();
        assert_eq!(stats.get("rc.completion_timeouts"), Some(1.0));
        let (uncor, _) = pcisim_pci::caps::aer_status(&rp0.borrow());
        assert_ne!(uncor & aer::uncor::COMPLETION_TIMEOUT, 0, "AER must log the timeout");
    }

    #[test]
    fn unrouted_request_settles_its_completion_timer() {
        // A master-aborted read with the timeout knob on: exactly one
        // completion (the UR), never a second synthesized timeout.
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, 0x9000_0000, 4)]);
        let r = sim.add(Box::new(req));
        let rc = sim.add(Box::new(rc_two_ports(cfg)));
        let (d0, _) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let (d1, _) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        assert_eq!(done.len(), 1, "exactly one completion — the UR, no late timeout");
        assert!(done[0].1 < pcisim_kernel::tick::us(50), "the UR must arrive promptly");
        let stats = sim.stats();
        assert_eq!(stats.get("rc.unsupported_requests"), Some(1.0));
        assert_eq!(stats.get("rc.completion_timeouts"), Some(0.0));
    }

    #[test]
    fn late_completion_is_swallowed_as_unexpected() {
        // The device answers, but far beyond the timeout: the requester
        // sees exactly one (synthesized) completion; the late one is
        // dropped and counted.
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, mem0().start(), 4)]);
        let r = sim.add(Box::new(req));
        let rc = sim.add(Box::new(rc_two_ports(cfg)));
        let (slow, served) = Responder::new("slow", pcisim_kernel::tick::us(200));
        let s = sim.add(Box::new(slow));
        let (d1, _) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (s, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "exactly one completion reaches the requester");
        assert_eq!(*served.borrow(), 1, "the device did answer — late");
        let stats = sim.stats();
        assert_eq!(stats.get("rc.completion_timeouts"), Some(1.0));
        assert_eq!(stats.get("rc.late_completions"), Some(1.0));
    }

    #[test]
    fn in_time_completion_cancels_the_timer_without_trace() {
        // With the knob on and a fast device, nothing error-related fires
        // and the run is timing-identical to the untracked case.
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut h = build_rc_harness(cfg, vec![(Command::ReadReq, mem0().start(), 4)]);
        assert_eq!(h.sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(h.done.borrow().len(), 1);
        let stats = h.sim.stats();
        assert_eq!(stats.get("rc.completion_timeouts"), Some(0.0));
        assert_eq!(stats.get("rc.late_completions"), Some(0.0));
        // Same completion time as request_latency_is_twice_the_router_latency
        // modulo the default service interval: the tracker is invisible.
        let mut h2 =
            build_rc_harness(RouterConfig::default(), vec![(Command::ReadReq, mem0().start(), 4)]);
        h2.sim.run_to_quiesce();
        assert_eq!(h.done.borrow()[0].1, h2.done.borrow()[0].1);
    }

    #[test]
    fn dma_goes_upstream_and_response_returns_by_bus_number() {
        let mut sim = Simulation::new();
        let rc = sim.add(Box::new(rc_two_ports(RouterConfig::default())));
        let (req, done) = Requester::new("dev-dma", vec![(Command::WriteReq, 0x8000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let (mem, _) = Responder::new("mem", ns(30));
        let m = sim.add(Box::new(mem));
        sim.connect((r, REQUESTER_PORT), (rc, port_downstream_slave(0)));
        sim.connect((rc, PORT_UPSTREAM_MASTER), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "DMA response must route back to pair 0");
    }

    #[test]
    fn request_stamps_bus_number_of_its_vp2p() {
        use std::cell::RefCell;
        use std::rc::Rc;
        struct BusProbe {
            seen: Rc<RefCell<Vec<Option<u8>>>>,
        }
        impl Component for BusProbe {
            fn name(&self) -> &str {
                "probe"
            }
            fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
                self.seen.borrow_mut().push(pkt.pci_bus());
                ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
                RecvResult::Accepted
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
                ctx.try_send_response(PortId(0), pkt.into_response()).unwrap();
            }
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        let rc = sim.add(Box::new(rc_two_ports(RouterConfig::default())));
        let (req, _done) = Requester::new("dev-dma", vec![(Command::WriteReq, 0x8000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let p = sim.add(Box::new(BusProbe { seen: seen.clone() }));
        // DMA enters via pair 1 (secondary bus 2).
        sim.connect((r, REQUESTER_PORT), (rc, port_downstream_slave(1)));
        sim.connect((rc, PORT_UPSTREAM_MASTER), (p, PortId(0)));
        sim.run_to_quiesce();
        assert_eq!(*seen.borrow(), vec![Some(2)]);
    }

    #[test]
    fn service_interval_bounds_per_port_throughput() {
        let cfg = RouterConfig {
            latency: ns(100),
            service_interval: ns(100),
            buffer_size: 16,
            ..RouterConfig::default()
        };
        let script = (0..8).map(|i| (Command::ReadReq, mem0().start() + i * 64, 4)).collect();
        let mut h = build_rc_harness(cfg, script);
        h.sim.run_to_quiesce();
        let done = h.done.borrow();
        assert_eq!(done.len(), 8);
        for w in done.windows(2) {
            assert_eq!(w[1].1 - w[0].1, ns(100), "completions must pace at the service interval");
        }
    }

    #[test]
    fn full_ingress_buffer_refuses_and_recovers() {
        let cfg = RouterConfig {
            latency: ns(100),
            service_interval: ns(100),
            buffer_size: 2,
            ..RouterConfig::default()
        };
        let script = (0..16).map(|i| (Command::ReadReq, mem0().start() + i * 64, 4)).collect();
        let mut h = build_rc_harness(cfg, script);
        assert_eq!(h.sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(h.done.borrow().len(), 16, "backpressure must not lose packets");
        let stats = h.sim.stats();
        assert!(stats.get("rc.ingress_refusals").unwrap() > 0.0);
    }

    #[test]
    fn switch_peer_to_peer_routes_between_downstream_ports() {
        let upstream =
            programmed_vp2p(1, 3, AddrRange::new(0x4000_0000, 0x4020_0000), AddrRange::empty());
        let sw = PcieRouter::switch(
            "sw",
            RouterConfig::default(),
            upstream,
            vec![
                programmed_vp2p(2, 2, mem0(), AddrRange::empty()),
                programmed_vp2p(3, 3, mem1(), AddrRange::empty()),
            ],
        );
        assert_eq!(sw.kind(), RouterKind::Switch);
        assert_eq!(sw.num_downstream(), 2);
        let mut sim = Simulation::new();
        let s = sim.add(Box::new(sw));
        // Device 0 writes into device 1's window: peer-to-peer.
        let (req, done) = Requester::new("dev0", vec![(Command::WriteReq, mem1().start(), 64)]);
        let r = sim.add(Box::new(req));
        let (dev1, served) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(dev1));
        sim.connect((r, REQUESTER_PORT), (s, port_downstream_slave(0)));
        sim.connect((s, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 1, "peer-to-peer request must reach device 1");
        assert_eq!(done.borrow().len(), 1, "peer-to-peer response must return to device 0");
    }

    #[test]
    fn root_complex_peer_to_peer_crosses_sibling_root_ports() {
        // A device under root port 0 reads a BAR under root port 1: the
        // request must route across the sibling subtree without ever
        // leaving the fabric, and the completion must return by bus number.
        let mut sim = Simulation::new();
        let rc = sim.add(Box::new(rc_two_ports(RouterConfig::default())));
        let (req, done) = Requester::new("dev0", vec![(Command::ReadReq, mem1().start(), 4)]);
        let r = sim.add(Box::new(req));
        let (dev1, served) = Responder::new("dev1", 0);
        let d1 = sim.add(Box::new(dev1));
        // Upstream master left unconnected on purpose: the read must never
        // try to go to memory.
        sim.connect((r, REQUESTER_PORT), (rc, port_downstream_slave(0)));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 1, "peer-to-peer read must reach the sibling endpoint");
        assert_eq!(done.borrow().len(), 1, "completion must return to the requester");
    }

    #[test]
    fn completion_timeout_latches_on_the_port_that_carried_the_request() {
        // A hung device under root port 1: the timeout must latch in port
        // 1's registers and leave port 0's spotless.
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, mem1().start(), 4)]);
        let r = sim.add(Box::new(req));
        let rc = rc_two_ports(cfg);
        let (rp0, rp1) = (rc.vp2p(0), rc.vp2p(1));
        let rc = sim.add(Box::new(rc));
        let (d0, _) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let b = sim.add(Box::new(BlackHole));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (b, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        let (uncor1, _) = pcisim_pci::caps::aer_status(&rp1.borrow());
        assert_ne!(uncor1 & aer::uncor::COMPLETION_TIMEOUT, 0, "port 1 must log its timeout");
        let cs0 = rp0.borrow();
        let (uncor0, cor0) = pcisim_pci::caps::aer_status(&cs0);
        assert_eq!((uncor0, cor0), (0, 0), "port 0 saw nothing and must stay clean");
        assert_eq!(
            cs0.read(common::STATUS, 2) as u16 & status::RECEIVED_MASTER_ABORT,
            0,
            "port 0's status register must stay clean"
        );
    }

    /// Answers every request with an Unsupported Request error completion —
    /// a completer that master-aborts.
    struct Aborter;
    impl Component for Aborter {
        fn name(&self) -> &str {
            "aborter"
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
            let resp = pkt.into_error_response(CompletionStatus::UnsupportedRequest);
            ctx.try_send_response(PortId(0), resp).unwrap();
        }
    }

    #[test]
    fn forwarded_ur_completion_latches_master_abort_on_its_own_port() {
        // The completer under root port 1 master-aborts: the UR completion
        // travelling back through pair 1 must latch Received Master Abort
        // in port 1's status register — and only there.
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::ReadReq, mem1().start(), 4)]);
        let r = sim.add(Box::new(req));
        let rc = rc_two_ports(RouterConfig::default());
        let (rp0, rp1) = (rc.vp2p(0), rc.vp2p(1));
        let rc = sim.add(Box::new(rc));
        let (d0, _) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let a = sim.add(Box::new(Aborter));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (a, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "the UR completion still reaches the requester");
        let cs1 = rp1.borrow();
        assert_ne!(
            cs1.read(common::STATUS, 2) as u16 & status::RECEIVED_MASTER_ABORT,
            0,
            "port 1 forwarded the UR and must record the master abort"
        );
        let cs0 = rp0.borrow();
        assert_eq!(
            cs0.read(common::STATUS, 2) as u16 & status::RECEIVED_MASTER_ABORT,
            0,
            "port 0 must stay clean"
        );
        let (uncor0, _) = pcisim_pci::caps::aer_status(&cs0);
        assert_eq!(uncor0, 0, "port 0's AER must stay clean");
    }

    #[test]
    fn switch_dma_to_memory_goes_upstream() {
        let upstream = programmed_vp2p(1, 2, mem0(), AddrRange::empty());
        let sw = PcieRouter::switch(
            "sw",
            RouterConfig::default(),
            upstream,
            vec![programmed_vp2p(2, 2, mem0(), AddrRange::empty())],
        );
        let mut sim = Simulation::new();
        let s = sim.add(Box::new(sw));
        let (req, done) = Requester::new("dev", vec![(Command::WriteReq, 0x8000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let (mem, _) = Responder::new("mem", 0);
        let m = sim.add(Box::new(mem));
        sim.connect((r, REQUESTER_PORT), (s, port_downstream_slave(0)));
        sim.connect((s, PORT_UPSTREAM_MASTER), (m, RESPONDER_PORT));
        sim.run_to_quiesce();
        assert_eq!(done.borrow().len(), 1);
    }

    /// A device that refuses the first `refusals` deliveries, then accepts
    /// and answers instantly.
    struct GrumpyDevice {
        name: String,
        refusals: u32,
        blocked: std::collections::VecDeque<Packet>,
        waiting: bool,
    }
    impl Component for GrumpyDevice {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            if self.refusals > 0 {
                self.refusals -= 1;
                // Grant the retry from a fresh event so the router resends.
                ctx.schedule(ns(500), Event::Timer { kind: 7, data: 0 });
                return RecvResult::Refused(pkt);
            }
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Timer { kind: 7, .. } => ctx.send_retry(PortId(0)),
                Event::DelayedPacket { pkt, .. } => {
                    self.blocked.push_back(pkt.into_response());
                    if !self.waiting {
                        while let Some(p) = self.blocked.pop_front() {
                            if let Err(back) = ctx.try_send_response(PortId(0), p) {
                                self.blocked.push_front(back);
                                self.waiting = true;
                                break;
                            }
                        }
                    }
                }
                _ => panic!(),
            }
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _p: PortId) {
            self.waiting = false;
            while let Some(p) = self.blocked.pop_front() {
                if let Err(back) = ctx.try_send_response(PortId(0), p) {
                    self.blocked.push_front(back);
                    self.waiting = true;
                    break;
                }
            }
        }
    }

    #[test]
    fn egress_backpressure_holds_packets_until_the_peer_retries() {
        let mut sim = Simulation::new();
        let rc = sim.add(Box::new(rc_two_ports(RouterConfig::default())));
        let (req, done) = Requester::new(
            "cpu",
            (0..6).map(|i| (Command::ReadReq, mem0().start() + i * 64, 4)).collect(),
        );
        let r = sim.add(Box::new(req));
        let g = sim.add(Box::new(GrumpyDevice {
            name: "grumpy".into(),
            refusals: 3,
            blocked: Default::default(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (g, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 6, "refused egress must be retried, never dropped");
    }

    #[test]
    fn deep_egress_stall_backpressures_the_ingress_engine() {
        // A tiny port buffer plus a long-refusing peer: the egress fills,
        // the ingress engine stalls, the upstream peer gets refused — and
        // everything still completes.
        let cfg = RouterConfig {
            latency: ns(50),
            service_interval: ns(10),
            buffer_size: 2,
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let rc = sim.add(Box::new(rc_two_ports(cfg)));
        let (req, done) = Requester::new(
            "cpu",
            (0..12).map(|i| (Command::ReadReq, mem0().start() + i * 64, 4)).collect(),
        );
        let r = sim.add(Box::new(req));
        let g = sim.add(Box::new(GrumpyDevice {
            name: "grumpy".into(),
            refusals: 8,
            blocked: Default::default(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (g, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 12);
        let stats = sim.stats();
        assert!(stats.get("rc.egress_stalls").unwrap() > 0.0, "the engine must have stalled");
        assert!(stats.get("rc.ingress_refusals").unwrap() > 0.0, "backpressure must propagate");
    }

    #[test]
    fn restore_rejects_port_indices_outside_the_router() {
        // Two root ports make six kernel ports; index 6 names none.
        fn restore_after(corrupt: impl Fn(&mut PcieRouter)) -> Result<(), SnapshotError> {
            let mut rc = rc_two_ports(RouterConfig::default());
            corrupt(&mut rc);
            let mut w = StateWriter::new();
            rc.save_state(&mut w);
            let bytes = w.into_bytes();
            rc_two_ports(RouterConfig::default()).restore_state(&mut StateReader::new(&bytes))
        }
        assert_eq!(restore_after(|_| {}), Ok(()));
        let service = restore_after(|rc| rc.ports[3].service_egress = 6);
        assert!(matches!(service, Err(SnapshotError::Corrupt(_))), "{service:?}");
        let waiter = restore_after(|rc| rc.ports[2].egress_waiters.add(PortId(6)));
        assert!(matches!(waiter, Err(SnapshotError::Corrupt(_))), "{waiter:?}");
        // ... and a pending completion's pair is one of the two VP2Ps.
        let pair = restore_after(|rc| {
            rc.pending
                .insert(1, PendingCompletion { pair: Some(2), ..PendingCompletion::default() });
        });
        assert!(matches!(pair, Err(SnapshotError::Corrupt(_))), "{pair:?}");
    }

    #[test]
    fn restore_rejects_timers_the_router_would_panic_on() {
        // After the requester's first event the read sits in port 0's
        // service engine, and its service-done timer is queued for the
        // root complex (component 1).
        let script = vec![(Command::ReadReq, mem0().start(), 4)];
        let fresh = || build_rc_harness(RouterConfig::default(), script.clone()).sim;
        let mut sim = fresh();
        assert_eq!(sim.run(Tick::MAX, 1), RunOutcome::EventLimit);
        let snap = sim.checkpoint();
        let timer = |kind: u32, data: u64| {
            let mut entry = 1u32.to_le_bytes().to_vec();
            entry.push(0);
            entry.extend(kind.to_le_bytes());
            entry.extend(data.to_le_bytes());
            entry
        };
        // The queue entry: tick, order stamp, then the timer itself.
        let found = timer(K_SERVICE_DONE, 0);
        let tick = RouterConfig::default().service_interval.to_le_bytes();
        let at = (0..snap.len() - 16 - found.len())
            .find(|&i| snap[i..i + 8] == tick && snap[i + 16..i + 16 + found.len()] == found)
            .expect("queued service timer")
            + 16;
        let patched = |kind: u32, data: u64| {
            let mut bytes = snap.clone();
            bytes[at..at + found.len()].copy_from_slice(&timer(kind, data));
            reseal(&mut bytes);
            fresh().restore(&bytes)
        };
        assert_eq!(patched(K_SERVICE_DONE, 0), Ok(()));
        for (kind, data, what) in [
            (7, 0, "an unknown kind"),
            (K_SERVICE_DONE, 6, "a port past the router's six"),
            (K_SERVICE_DONE, 2, "a port with nothing in service"),
        ] {
            let err = patched(kind, data).expect_err(what);
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err:?}");
        }
    }

    #[test]
    fn vp2p_helper_reports_port_type() {
        let cs = make_vp2p(0x8086, 0x9c90, PortType::RootPort, Generation::Gen2, LinkWidth::X4);
        let cs = cs.borrow();
        assert_eq!(cs.read(0x00, 2), 0x8086);
        assert_eq!(cs.read(0x0e, 1), 1, "type-1 header");
        assert_eq!(cs.read(0x34, 1), 0xd8, "cap pointer at 0xd8 per the paper");
        assert_eq!(pcisim_pci::caps::port_type_field(&cs, 0xd8), 0x4);
    }

    #[test]
    #[should_panic(expected = "at least one root port")]
    fn empty_root_complex_panics() {
        let _ = PcieRouter::root_complex("rc", RouterConfig::default(), vec![]);
    }

    fn hdm() -> AddrRange {
        AddrRange::new(0x1_0000_0000, 0x1_1000_0000)
    }

    #[test]
    fn hdm_route_forwards_cxl_requests_to_its_pair() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new(
            "cpu",
            vec![
                (Command::CxlMemRd, hdm().start() + 0x40, 64),
                (Command::ReadReq, mem0().start(), 4),
            ],
        );
        let r = sim.add(Box::new(req));
        let mut rc = rc_two_ports(RouterConfig::default());
        rc.add_hdm_route(hdm(), 1);
        let rc = sim.add(Box::new(rc));
        let (d0, served0) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let (d1, served1) = Responder::new("expander", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 2, "both the CXL load and the MMIO read complete");
        assert_eq!(*served1.borrow(), 1, "the CXL load lands on the HDM pair");
        assert_eq!(*served0.borrow(), 1, "the MMIO read still routes by VP2P window");
    }

    #[test]
    fn cxl_request_outside_every_hdm_window_master_aborts() {
        let mut sim = Simulation::new();
        let (req, done) =
            Requester::new("cpu", vec![(Command::CxlMemRd, hdm().end() + 0x1000, 64)]);
        let r = sim.add(Box::new(req));
        let mut rc = rc_two_ports(RouterConfig::default());
        rc.add_hdm_route(hdm(), 1);
        let rc = sim.add(Box::new(rc));
        let (d0, _) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let (d1, served1) = Responder::new("expander", 0);
        let d1 = sim.add(Box::new(d1));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (d1, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty, "the UR path must not hang");
        assert_eq!(done.borrow().len(), 1, "the requester still gets a completion");
        assert_eq!(*served1.borrow(), 0, "nothing reaches the expander");
        assert_eq!(sim.stats().get("rc.unsupported_requests"), Some(1.0));
    }

    #[test]
    fn hdm_timeout_latches_on_the_hdm_pair() {
        // A hung expander behind an HDM route: the completion timeout must
        // attribute the loss to the HDM pair, not the upstream stand-in.
        let cfg = RouterConfig {
            completion_timeout: Some(pcisim_kernel::tick::us(50)),
            ..RouterConfig::default()
        };
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::CxlMemRd, hdm().start(), 64)]);
        let r = sim.add(Box::new(req));
        let mut rc = rc_two_ports(cfg);
        rc.add_hdm_route(hdm(), 1);
        let (rp0, rp1) = (rc.vp2p(0), rc.vp2p(1));
        let rc = sim.add(Box::new(rc));
        let (d0, _) = Responder::new("dev0", 0);
        let d0 = sim.add(Box::new(d0));
        let b = sim.add(Box::new(BlackHole));
        sim.connect((r, REQUESTER_PORT), (rc, PORT_UPSTREAM_SLAVE));
        sim.connect((rc, port_downstream_master(0)), (d0, RESPONDER_PORT));
        sim.connect((rc, port_downstream_master(1)), (b, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        let (uncor1, _) = pcisim_pci::caps::aer_status(&rp1.borrow());
        assert_ne!(uncor1 & aer::uncor::COMPLETION_TIMEOUT, 0, "the HDM pair logs the timeout");
        let (uncor0, _) = pcisim_pci::caps::aer_status(&rp0.borrow());
        assert_eq!(uncor0, 0, "pair 0 stays clean");
    }

    #[test]
    #[should_panic(expected = "overlaps the VP2P forwarding window")]
    fn hdm_window_overlapping_a_bridge_window_is_rejected() {
        // Regression: an HDM window shadowed by (or shadowing) a bridge
        // forwarding range must be rejected when the route is installed,
        // not silently decided by decode order.
        let mut rc = rc_two_ports(RouterConfig::default());
        rc.add_hdm_route(AddrRange::new(mem0().start() + 0x1000, mem0().end() + 0x1000), 1);
    }

    #[test]
    #[should_panic(expected = "overlaps HDM window")]
    fn overlapping_hdm_windows_are_rejected() {
        let mut rc = rc_two_ports(RouterConfig::default());
        rc.add_hdm_route(hdm(), 0);
        rc.add_hdm_route(AddrRange::new(hdm().start() + 0x100, hdm().start() + 0x200), 1);
    }

    #[test]
    #[should_panic(expected = "HDM route to unknown pair")]
    fn hdm_route_to_missing_pair_is_rejected() {
        let mut rc = rc_two_ports(RouterConfig::default());
        rc.add_hdm_route(hdm(), 7);
    }

    #[test]
    #[should_panic(expected = "latency must cover")]
    fn service_longer_than_latency_panics() {
        let cfg = RouterConfig {
            latency: ns(10),
            service_interval: ns(20),
            buffer_size: 4,
            ..RouterConfig::default()
        };
        let _ = PcieRouter::root_complex(
            "rc",
            cfg,
            vec![programmed_vp2p(1, 1, mem0(), AddrRange::empty())],
        );
    }
}
