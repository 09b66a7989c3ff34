//! The event-driven simulation driver.
//!
//! [`Simulation`] owns every [`Component`], the global event queue and the
//! port wiring. Packet delivery is synchronous (gem5-style): the receiver's
//! handler runs nested inside the sender's `try_send_*` call and returns an
//! accept/refuse outcome immediately. Timers and retry notifications are
//! queued and fire in strict `(tick, order stamp)` order, where the stamp
//! is derived from the *scheduling* component's id and a per-component
//! counter — never from global insertion order. Same-tick events therefore
//! fire grouped by the component that scheduled them, each component's in
//! its own sequence, and adding or dropping one component's event moves
//! no other component's.
//!
//! ```
//! use pcisim_kernel::sim::Simulation;
//! let mut sim = Simulation::new();
//! assert_eq!(sim.now(), 0);
//! ```

use std::cell::{Cell, RefCell};

use crate::calendar::{CalendarQueue, EventHandle};
use crate::component::{Component, ComponentId, Event, PortId, RecvResult};
use crate::packet::{Packet, PacketId};
use crate::snapshot::{
    fnv1a, SnapshotError, State, StateReader, StateWriter, FNV_OFFSET, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
use crate::stats::{StatsBuilder, StatsSnapshot};
use crate::tick::Tick;
use crate::trace::{TraceCategory, TraceEvent, TraceKind, TraceLog, Tracer};

/// Why [`Simulation::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain; the system is quiescent.
    QueueEmpty,
    /// Simulated time reached the requested limit.
    TimeLimit,
    /// A component called [`Ctx::stop`].
    Stopped,
    /// The event-count safety valve tripped (likely livelock).
    EventLimit,
}

/// A dispatch as the calendar holds it, at most 24 bytes: the target and
/// the event's fields flattened into one enum, a `DelayedPacket`'s packet
/// (itself one pointer) included. Ordering (tick, order stamp) is owned by
/// the [`CalendarQueue`].
///
/// `repr(u32)` lays each variant out in field order after a 4-byte tag,
/// so an entry moves as aligned words; the default layout picked a 2-byte
/// tag and copied the rest as overlapping 16- and 8-byte moves that stall
/// store forwarding on every pop.
#[derive(Debug)]
#[repr(u32)]
enum Queued {
    Timer { target: ComponentId, kind: u32, data: u64 },
    Retry { target: ComponentId, port: PortId },
    Delayed { target: ComponentId, tag: u32, pkt: Packet },
}

impl Queued {
    /// The entry delivering `ev` to `target`.
    #[inline]
    fn new(target: ComponentId, ev: Event) -> Self {
        match ev {
            Event::Timer { kind, data } => Queued::Timer { target, kind, data },
            Event::DelayedPacket { tag, pkt } => Queued::Delayed { target, tag, pkt },
        }
    }

    #[inline]
    fn target(&self) -> ComponentId {
        match *self {
            Queued::Timer { target, .. }
            | Queued::Retry { target, .. }
            | Queued::Delayed { target, .. } => target,
        }
    }

    /// The event this entry delivers; `Err(port)` for a retry grant on
    /// `port`.
    #[inline(always)]
    fn into_event(self) -> Result<Event, PortId> {
        Ok(match self {
            Queued::Timer { kind, data, .. } => Event::Timer { kind, data },
            Queued::Retry { port, .. } => return Err(port),
            Queued::Delayed { tag, pkt, .. } => Event::DelayedPacket { tag, pkt },
        })
    }
}

type Endpoint = (ComponentId, PortId);

/// Bit layout of the order stamp: `gid:16 | stream:8 | counter:40`.
/// The stamp is a pure function of *which component* scheduled the event,
/// on *which stream*, for the *how-many-th* time. Same-tick ties therefore
/// break by scheduler id, then stream, then that stream's own sequence,
/// and no stream's stamps depend on what any other stream scheduled.
const ORDER_GID_SHIFT: u32 = 48;
const ORDER_STREAM_SHIFT: u32 = 40;
const ORDER_COUNTER_MASK: u64 = (1 << ORDER_STREAM_SHIFT) - 1;

/// Number of independent scheduling streams per component. Stream 0 is the
/// default; the link layer stamps from one stream per physical end, so
/// each end's events keep their order against the other end's whatever
/// traffic either end carries.
const NUM_STREAMS: usize = 2;

/// Bit layout of a [`PacketId`]: `gid:24 | counter:40`, allocated per
/// component rather than from a global cursor, so a component's ids do
/// not depend on how many packets any other component created.
const PKT_GID_SHIFT: u32 = 40;
const PKT_COUNTER_MASK: u64 = (1 << PKT_GID_SHIFT) - 1;

/// Shared mutable simulation state reachable from nested dispatches.
struct Shared {
    arena: Vec<RefCell<Box<dyn Component>>>,
    names: Vec<String>,
    /// Dense routing table: `conns[component][port]` is the wired peer.
    /// Built at `connect` time so `try_send_*` is two array loads, no hash.
    conns: Vec<Vec<Option<Endpoint>>>,
    queue: RefCell<CalendarQueue<Queued>>,
    now: Cell<Tick>,
    /// Per-component packet-id counters (`PacketId` = gid | counter).
    pkt_counters: RefCell<Vec<u64>>,
    /// Per-(component, stream) order-stamp counters.
    push_counters: RefCell<Vec<[u64; NUM_STREAMS]>>,
    stop_requested: Cell<bool>,
    events_processed: Cell<u64>,
    /// Order stamp of the event being dispatched: with `now`, the key
    /// [`Ctx::is_ahead`] compares against.
    dispatching: Cell<u64>,
    tracer: Tracer,
}

impl Shared {
    /// Mints the next order stamp for (`gid`, `stream`).
    #[inline]
    fn order_key(&self, gid: u32, stream: u8) -> u64 {
        debug_assert!((stream as usize) < NUM_STREAMS);
        let mut counters = self.push_counters.borrow_mut();
        let c = &mut counters[gid as usize][stream as usize];
        let counter = *c;
        *c += 1;
        debug_assert!(counter <= ORDER_COUNTER_MASK, "order counter overflow");
        (u64::from(gid) << ORDER_GID_SHIFT) | (u64::from(stream) << ORDER_STREAM_SHIFT) | counter
    }

    #[inline]
    fn push(&self, tick: Tick, source: ComponentId, stream: u8, queued: Queued) -> EventHandle {
        let order = self.order_key(source.0, stream);
        self.queue.borrow_mut().push(tick, order, queued)
    }

    #[inline]
    fn lookup_peer(&self, ep: Endpoint) -> Option<Endpoint> {
        self.conns.get(ep.0 .0 as usize)?.get(ep.1 .0 as usize).copied().flatten()
    }

    fn with_component<R>(
        &self,
        id: ComponentId,
        f: impl FnOnce(&mut dyn Component, &mut Ctx<'_>) -> R,
    ) -> R {
        let cell = &self.arena[id.0 as usize];
        let mut comp = cell.try_borrow_mut().unwrap_or_else(|_| {
            panic!(
                "re-entrant dispatch into {:?}: a receiver must not synchronously \
                 send back toward its caller; schedule a zero-delay event instead",
                self.names[id.0 as usize]
            )
        });
        let mut ctx = Ctx { shared: self, self_id: id };
        f(comp.as_mut(), &mut ctx)
    }
}

/// The execution context handed to every component callback.
///
/// All interaction with the rest of the system goes through this type:
/// scheduling timers, sending packets over connected ports, granting
/// retries, allocating packet ids, and stopping the simulation.
pub struct Ctx<'a> {
    shared: &'a Shared,
    self_id: ComponentId,
}

impl Ctx<'_> {
    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Tick {
        self.shared.now.get()
    }

    /// The id of the component being called.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Allocates a fresh packet id, unique across the whole simulation.
    /// Ids are minted from a per-component counter (`gid | counter`).
    #[inline]
    pub fn alloc_packet_id(&mut self) -> PacketId {
        let gid = self.self_id.0;
        let mut counters = self.shared.pkt_counters.borrow_mut();
        let c = &mut counters[gid as usize];
        let counter = *c;
        *c += 1;
        debug_assert!(counter <= PKT_COUNTER_MASK, "packet-id counter overflow");
        PacketId((u64::from(gid) << PKT_GID_SHIFT) | counter)
    }

    #[inline]
    fn peer(&self, port: PortId) -> Endpoint {
        self.shared
            .lookup_peer((self.self_id, port))
            .unwrap_or_else(|| panic!("{} {port} is not connected", self.self_id))
    }

    /// Whether `port` is wired to a peer.
    #[inline]
    pub fn is_connected(&self, port: PortId) -> bool {
        self.shared.lookup_peer((self.self_id, port)).is_some()
    }

    /// Schedules `ev` for delivery to this component after `delay` ticks.
    /// The returned handle can cancel the event with
    /// [`Ctx::cancel_scheduled`] any time before it fires; callers with no
    /// cancellation need simply ignore it.
    #[inline]
    pub fn schedule(&mut self, delay: Tick, ev: Event) -> EventHandle {
        self.schedule_stream(delay, 0, ev)
    }

    /// Like [`Ctx::schedule`], but stamps the event from scheduling stream
    /// `stream` instead of the default stream 0. A component made of
    /// independent halves (the link's two ends) gives each half its own
    /// stream, so one half's same-tick order never depends on how many
    /// events the other half scheduled.
    #[inline]
    pub fn schedule_stream(&mut self, delay: Tick, stream: u8, ev: Event) -> EventHandle {
        // Saturating: an open-loop arrival process running for simulated
        // hours can push `now + delay` past u64::MAX picoseconds; a wrapped
        // tick would land the event in the past and corrupt causality, so
        // pin it to the end of time instead.
        let queued = Queued::new(self.self_id, ev);
        self.shared.push(self.now().saturating_add(delay), self.self_id, stream, queued)
    }

    /// Mints the next order stamp of (this component, `stream`) without
    /// queuing anything — the first half of a reserve-then-schedule pair.
    /// A component whose wake-up may turn out to be a no-op reserves the
    /// stamp where an eager [`Ctx::schedule_stream`] would have minted it,
    /// and queues the event with [`Ctx::schedule_reserved`] only once it
    /// matters. A reservation that is never scheduled is a gap in this
    /// component's counter: every other stamp keeps its relative order, so
    /// dropping it moves no other event.
    #[inline]
    pub fn reserve_order(&mut self, stream: u8) -> u64 {
        self.shared.order_key(self.self_id.0, stream)
    }

    /// Queues `ev` for this component after `delay` ticks under `order`, a
    /// stamp it reserved earlier with [`Ctx::reserve_order`] and has not
    /// used since. The event pops exactly where an eager schedule at
    /// reservation time would have, provided its key is still ahead of the
    /// dispatching event ([`Ctx::is_ahead`]).
    #[inline]
    pub fn schedule_reserved(&mut self, delay: Tick, order: u64, ev: Event) -> EventHandle {
        debug_assert_eq!(order >> ORDER_GID_SHIFT, u64::from(self.self_id.0), "foreign stamp");
        let tick = self.now().saturating_add(delay);
        debug_assert!(self.is_ahead(tick, order), "reserved key already dispatched past");
        let queued = Queued::new(self.self_id, ev);
        self.shared.queue.borrow_mut().push(tick, order, queued)
    }

    /// Whether an event keyed `(tick, order)` pops after the event being
    /// dispatched now, whose key is `(now, its order stamp)`. A reserved
    /// key that is no longer ahead is one an eager schedule would already
    /// have dispatched.
    #[inline]
    pub fn is_ahead(&self, tick: Tick, order: u64) -> bool {
        (tick, order) > (self.now(), self.shared.dispatching.get())
    }

    /// Cancels an event previously scheduled by this component, returning
    /// it so the caller can reclaim any packet it carries. `None` when the
    /// event has already fired or been cancelled (stale handle — always
    /// safe). A cancelled event is skipped silently by the dispatch loop:
    /// it never advances time, never counts as processed, and never
    /// perturbs the order of live events — which is what lets per-request
    /// timeout timers be armed pervasively without disturbing quiesce
    /// times on the happy path.
    pub fn cancel_scheduled(&mut self, handle: EventHandle) -> Option<Event> {
        let queued = self.shared.queue.borrow_mut().cancel(handle)?;
        // Retries are not cancellable; treat as stale.
        queued.into_event().ok()
    }

    /// Sends a request packet out of `port`. The peer's
    /// [`Component::recv_request`] runs immediately.
    ///
    /// # Errors
    ///
    /// Returns `Err(pkt)` when the peer refused the packet; the caller must
    /// hold it and resend after [`Component::retry_granted`].
    ///
    /// # Panics
    ///
    /// Panics if `port` is not connected or `pkt` is not a request.
    pub fn try_send_request(&mut self, port: PortId, pkt: Packet) -> Result<(), Packet> {
        assert!(pkt.is_request(), "try_send_request with {:?}", pkt.cmd());
        let (peer, peer_port) = self.peer(port);
        // Custody tracepoint: snapshot the identity fields before the packet
        // moves into the receiver, record only on an accepted delivery.
        let custody = self.shared.tracer.wants(TraceCategory::Hop).then(|| (pkt.id(), pkt.cmd()));
        match self.shared.with_component(peer, |c, ctx| c.recv_request(ctx, peer_port, pkt)) {
            RecvResult::Accepted => {
                if let Some((id, cmd)) = custody {
                    self.record_hop(peer, peer_port, TraceKind::HopRequest, id, cmd);
                }
                Ok(())
            }
            RecvResult::Refused(pkt) => {
                if custody.is_some() {
                    self.record_hop(peer, peer_port, TraceKind::HopRefused, pkt.id(), pkt.cmd());
                }
                Err(pkt)
            }
        }
    }

    /// Sends a response packet out of `port`; same contract as
    /// [`Ctx::try_send_request`].
    ///
    /// # Errors
    ///
    /// Returns `Err(pkt)` when the peer refused the packet.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not connected or `pkt` is not a response.
    pub fn try_send_response(&mut self, port: PortId, pkt: Packet) -> Result<(), Packet> {
        assert!(pkt.is_response(), "try_send_response with {:?}", pkt.cmd());
        let (peer, peer_port) = self.peer(port);
        let custody = self.shared.tracer.wants(TraceCategory::Hop).then(|| (pkt.id(), pkt.cmd()));
        match self.shared.with_component(peer, |c, ctx| c.recv_response(ctx, peer_port, pkt)) {
            RecvResult::Accepted => {
                if let Some((id, cmd)) = custody {
                    self.record_hop(peer, peer_port, TraceKind::HopResponse, id, cmd);
                }
                Ok(())
            }
            RecvResult::Refused(pkt) => {
                if custody.is_some() {
                    self.record_hop(peer, peer_port, TraceKind::HopRefused, pkt.id(), pkt.cmd());
                }
                Err(pkt)
            }
        }
    }

    fn record_hop(
        &self,
        peer: ComponentId,
        peer_port: PortId,
        kind: TraceKind,
        id: PacketId,
        cmd: crate::packet::Command,
    ) {
        self.shared.tracer.record(TraceEvent {
            at: self.now(),
            component: peer,
            category: TraceCategory::Hop,
            kind,
            packet: Some(id),
            cmd: Some(cmd),
            arg: u64::from(peer_port.0),
        });
    }

    /// Notifies the peer of `port` that buffer space freed up. Delivered
    /// from the event queue (never nested), at the current tick.
    #[inline]
    pub fn send_retry(&mut self, port: PortId) {
        self.send_retry_stream(port, 0);
    }

    /// Like [`Ctx::send_retry`], but mints the retry's order stamp from
    /// scheduling stream `stream` (see [`Ctx::schedule_stream`]).
    #[inline]
    pub fn send_retry_stream(&mut self, port: PortId, stream: u8) {
        let (peer, peer_port) = self.peer(port);
        let queued = Queued::Retry { target: peer, port: peer_port };
        self.shared.push(self.now(), self.self_id, stream, queued);
    }

    /// Requests the simulation loop to stop after the current event.
    #[inline]
    pub fn stop(&mut self) {
        self.shared.stop_requested.set(true);
    }

    /// Whether structured tracing is enabled for `cat`. Tracepoints should
    /// gate any event construction on this; when disabled it is a single
    /// flag load.
    #[inline]
    pub fn tracing(&self, cat: TraceCategory) -> bool {
        self.shared.tracer.wants(cat)
    }

    /// Records a structured [`TraceEvent`] attributed to this component at
    /// the current tick. No-op unless `cat` is enabled — but callers on hot
    /// paths should still check [`Ctx::tracing`] first to skip argument
    /// evaluation.
    #[inline]
    pub fn emit(
        &self,
        cat: TraceCategory,
        kind: TraceKind,
        packet: Option<PacketId>,
        cmd: Option<crate::packet::Command>,
        arg: u64,
    ) {
        if self.shared.tracer.wants(cat) {
            self.shared.tracer.record(TraceEvent {
                at: self.now(),
                component: self.self_id,
                category: cat,
                kind,
                packet,
                cmd,
                arg,
            });
        }
    }
}

/// Owns components, wiring and the event queue; drives simulated time.
pub struct Simulation {
    shared: Shared,
    initialized: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at tick 0.
    pub fn new() -> Self {
        Self {
            shared: Shared {
                arena: Vec::new(),
                names: Vec::new(),
                conns: Vec::new(),
                queue: RefCell::new(CalendarQueue::new()),
                now: Cell::new(0),
                pkt_counters: RefCell::new(Vec::new()),
                push_counters: RefCell::new(Vec::new()),
                stop_requested: Cell::new(false),
                events_processed: Cell::new(0),
                dispatching: Cell::new(0),
                tracer: Tracer::new(),
            },
            initialized: false,
        }
    }

    /// Enables structured tracing for the categories in `mask` (a bit-or
    /// of [`TraceCategory::bit`] values, or [`TraceCategory::ALL`]).
    /// Passing `0` disables tracing, which is the default.
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.shared.tracer.set_mask(mask);
    }

    /// The current structured-trace category mask.
    pub fn trace_mask(&self) -> u32 {
        self.shared.tracer.mask()
    }

    /// Caps the structured-trace ring buffer at `capacity` events.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.shared.tracer.set_capacity(capacity);
    }

    /// Drains the structured-trace ring into a self-contained [`TraceLog`]
    /// (events plus component names) ready for export.
    pub fn take_trace(&mut self) -> TraceLog {
        TraceLog {
            events: self.shared.tracer.drain(),
            names: self.shared.names.clone(),
            dropped: self.shared.tracer.dropped(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Tick {
        self.shared.now.get()
    }

    /// Number of queued actions dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.shared.events_processed.get()
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.shared.queue.borrow().len()
    }

    /// Adds a component and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if another component already uses the same name or the
    /// simulation has started.
    pub fn add(&mut self, component: Box<dyn Component>) -> ComponentId {
        let name = component.name().to_owned();
        assert!(!self.shared.names.contains(&name), "duplicate component name {name:?}");
        assert!(!self.initialized, "cannot add components after the simulation started");
        let id = ComponentId(self.shared.arena.len() as u32);
        assert!(u64::from(id.0) < (1 << (64 - ORDER_GID_SHIFT)), "component id overflows stamp");
        self.shared.arena.push(RefCell::new(component));
        self.shared.names.push(name);
        self.shared.pkt_counters.borrow_mut().push(0);
        self.shared.push_counters.borrow_mut().push([0; NUM_STREAMS]);
        id
    }

    /// Name of component `id`.
    pub fn name_of(&self, id: ComponentId) -> &str {
        &self.shared.names[id.0 as usize]
    }

    /// Wires two ports together bidirectionally: requests flow either way,
    /// responses travel back along the same pair.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is already connected or if the two
    /// endpoints are the same.
    pub fn connect(&mut self, a: (ComponentId, PortId), b: (ComponentId, PortId)) {
        assert_ne!(a, b, "cannot connect a port to itself");
        assert!(self.shared.lookup_peer(a).is_none(), "{} {} already connected", a.0, a.1);
        assert!(self.shared.lookup_peer(b).is_none(), "{} {} already connected", b.0, b.1);
        for &((comp, port), peer) in &[(a, b), (b, a)] {
            let ci = comp.0 as usize;
            if self.shared.conns.len() <= ci {
                self.shared.conns.resize_with(ci + 1, Vec::new);
            }
            let ports = &mut self.shared.conns[ci];
            let pi = port.0 as usize;
            if ports.len() <= pi {
                ports.resize(pi + 1, None);
            }
            ports[pi] = Some(peer);
        }
    }

    /// The endpoint wired to `ep`, if any.
    pub fn peer_of(&self, ep: (ComponentId, PortId)) -> Option<(ComponentId, PortId)> {
        self.shared.lookup_peer(ep)
    }

    fn ensure_init(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for i in 0..self.shared.arena.len() {
            // Init runs before any dispatch, under the component's smallest
            // order key, for [`Ctx::is_ahead`].
            self.shared.dispatching.set((i as u64) << ORDER_GID_SHIFT);
            self.shared.with_component(ComponentId(i as u32), |c, ctx| c.init(ctx));
        }
        self.shared.dispatching.set(0);
    }

    /// Dispatches the entry the calendar just popped under `(tick, order)`
    /// from `slot`: the entry moves out of its slab slot and straight into
    /// the handler call.
    #[inline]
    fn dispatch(&self, tick: Tick, order: u64, slot: u32) {
        debug_assert!(tick >= self.now(), "time went backwards");
        let shared = &self.shared;
        shared.now.set(tick);
        shared.events_processed.set(shared.events_processed.get() + 1);
        shared.dispatching.set(order);
        let queued = shared.queue.borrow_mut().take_popped(slot);
        match queued {
            Queued::Timer { target, kind, data } => {
                shared.with_component(target, |c, ctx| c.handle(ctx, Event::Timer { kind, data }))
            }
            Queued::Retry { target, port } => {
                shared.with_component(target, |c, ctx| c.retry_granted(ctx, port));
            }
            Queued::Delayed { target, tag, pkt } => shared.with_component(target, |c, ctx| {
                c.handle(ctx, Event::DelayedPacket { tag, pkt });
            }),
        }
    }

    /// Runs until the queue drains, `until` is reached, a component stops
    /// the simulation, or `max_events` dispatches have happened.
    pub fn run(&mut self, until: Tick, max_events: u64) -> RunOutcome {
        self.ensure_init();
        let budget_end = self.events_processed().saturating_add(max_events);
        loop {
            if self.shared.stop_requested.get() {
                self.shared.stop_requested.set(false);
                return RunOutcome::Stopped;
            }
            // Budget and time limits are checked before the pop, so the head
            // action stays queued (with its original order stamp) and the
            // caller can resume exactly where it left off. The fused
            // peek-and-pop settles the queue once per event.
            let (tick, order, slot) = {
                let mut queue = self.shared.queue.borrow_mut();
                if self.events_processed() >= budget_end {
                    match queue.next_tick() {
                        None => return RunOutcome::QueueEmpty,
                        Some(tick) if tick > until => {
                            self.shared.now.set(until);
                            return RunOutcome::TimeLimit;
                        }
                        Some(_) => return RunOutcome::EventLimit,
                    }
                }
                match queue.pop_key_if_at_most(until) {
                    Ok(None) => return RunOutcome::QueueEmpty,
                    Err(_head) => {
                        self.shared.now.set(until);
                        return RunOutcome::TimeLimit;
                    }
                    Ok(Some(key)) => key,
                }
            };
            self.dispatch(tick, order, slot);
        }
    }

    /// Runs until the event queue is empty or a component stops the run.
    pub fn run_to_quiesce(&mut self) -> RunOutcome {
        self.run(Tick::MAX, u64::MAX)
    }

    /// Total packet ids allocated so far, summed over components. Exposed
    /// so tests can audit PacketId continuity across checkpoint/restore.
    pub fn packet_ids_allocated(&self) -> u64 {
        self.shared.pkt_counters.borrow().iter().sum()
    }

    /// FNV-1a fingerprint of the component tree's *shape*: component names
    /// (in id order) and the complete port wiring. Configuration values are
    /// deliberately excluded: a checkpoint carries dynamic state only, so
    /// the shape is all a restore has to match.
    pub fn topology_fingerprint(&self) -> u64 {
        let mut w = StateWriter::new();
        self.shared.names.save(&mut w);
        self.shared.conns.save(&mut w);
        fnv1a(FNV_OFFSET, &w.into_bytes())
    }

    /// Serializes the complete dynamic state — simulated time, the event
    /// queue (armed timers and all, as portable `(tick, order)` entries),
    /// the per-component PacketId and order-stamp counters, the trace
    /// ring, and every component's [`Component::save_state`] section —
    /// into a self-contained, checksummed checkpoint. Runs `init` first if
    /// the simulation has never run, so a restored simulation never
    /// re-runs it.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        self.ensure_init();
        let mut body = StateWriter::new();
        body.u64(self.topology_fingerprint());
        body.u64(self.now());
        body.u64(self.shared.events_processed.get());
        // One packet-id counter and one order-counter row per component,
        // in id order: the arena fixes the count, so no prefix.
        self.shared.pkt_counters.borrow()[..].save(&mut body);
        self.shared.push_counters.borrow()[..].save(&mut body);
        self.shared.queue.borrow().save(&mut body, encode_queued);
        self.shared.tracer.save_ring(&mut body);
        body.usize(self.shared.arena.len());
        for (i, cell) in self.shared.arena.iter().enumerate() {
            body.str(&self.shared.names[i]);
            let mut section = StateWriter::new();
            cell.borrow().save_state(&mut section);
            body.bytes(&section.into_bytes());
        }
        let body = body.into_bytes();
        seal_checkpoint(body)
    }

    /// Applies a [`Simulation::checkpoint`] to this simulation, which must
    /// be a freshly built tree with the same topology fingerprint (same
    /// component names and wiring; configuration may differ). Afterwards
    /// the simulation continues bit-for-bit like the one that was saved:
    /// same event order, same packet ids, same statistics.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, corrupted, version-skewed or
    /// wrong-topology input yields a typed [`SnapshotError`]; decoding
    /// never panics. On error the simulation may be partially overwritten
    /// and must be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let body = open_checkpoint(bytes)?;
        let mut r = StateReader::new(body);
        let fingerprint = r.u64()?;
        let expected = self.topology_fingerprint();
        if fingerprint != expected {
            return Err(SnapshotError::TopologyMismatch { stored: fingerprint, expected });
        }
        let now = r.u64()?;
        let events_processed = r.u64()?;
        let n = self.shared.arena.len();
        let mut pkt_counters = vec![0; n];
        pkt_counters[..].load(&mut r)?;
        let mut push_counters = vec![[0; NUM_STREAMS]; n];
        push_counters[..].load(&mut r)?;
        let queue = CalendarQueue::restore(now, &mut r, |r, order| {
            decode_queued(r, order, &pkt_counters, &push_counters, &self.shared)
        })?;
        self.shared.tracer.restore_ring(&mut r)?;
        let count = r.usize()?;
        if count != self.shared.arena.len() {
            return Err(SnapshotError::Corrupt(format!(
                "checkpoint has {count} components, tree has {}",
                self.shared.arena.len()
            )));
        }
        for (i, cell) in self.shared.arena.iter().enumerate() {
            let name = r.str()?;
            if name != self.shared.names[i] {
                return Err(SnapshotError::Corrupt(format!(
                    "section {name:?} does not match component {:?}",
                    self.shared.names[i]
                )));
            }
            let section = r.bytes()?;
            let mut sr = StateReader::new(section);
            cell.borrow_mut().restore_state(&mut sr)?;
            sr.finish(&name)?;
        }
        r.finish("simulation")?;
        for (_, _, queued) in queue.live() {
            if let Queued::Timer { target, kind, data } = *queued {
                self.shared.arena[target.0 as usize].borrow().check_timer(kind, data)?;
            }
        }
        *self.shared.queue.borrow_mut() = queue;
        self.shared.now.set(now);
        *self.shared.pkt_counters.borrow_mut() = pkt_counters;
        *self.shared.push_counters.borrow_mut() = push_counters;
        self.shared.events_processed.set(events_processed);
        self.shared.stop_requested.set(false);
        // `init` already ran in the simulation that produced the
        // checkpoint; it must never run again here.
        self.initialized = true;
        Ok(())
    }

    /// Collects statistics from every component.
    pub fn stats(&self) -> StatsSnapshot {
        let mut all = std::collections::BTreeMap::new();
        for (i, cell) in self.shared.arena.iter().enumerate() {
            let mut b = StatsBuilder::new(self.shared.names[i].clone());
            cell.borrow().report_stats(&mut b);
            all.extend(b.into_values());
        }
        StatsSnapshot::from_values(all)
    }
}

/// Wraps a checkpoint body in the magic/version/checksum header.
fn seal_checkpoint(body: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 16);
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Validates the header of `bytes` and returns the checkpoint body.
fn open_checkpoint(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    let mut header = StateReader::new(bytes);
    let magic = header.u32()?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let version = header.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version, expected: SNAPSHOT_VERSION });
    }
    let stored = header.u64()?;
    let body = &bytes[16..];
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    Ok(body)
}

/// Writes one queue entry; [`decode_queued`] reads it back.
fn encode_queued(w: &mut StateWriter, queued: &Queued) {
    w.u32(queued.target().0);
    match queued {
        Queued::Timer { kind, data, .. } => {
            w.u8(0);
            w.u32(*kind);
            w.u64(*data);
        }
        Queued::Delayed { tag, pkt, .. } => {
            w.u8(1);
            w.u32(*tag);
            pkt.save(w);
        }
        Queued::Retry { port, .. } => {
            w.u8(2);
            w.u16(port.0);
        }
    }
}

/// Reads one queue entry keyed by order stamp `order`, auditing it
/// against the restored counters and `shared`'s wiring.
fn decode_queued(
    r: &mut StateReader<'_>,
    order: u64,
    pkt_counters: &[u64],
    push_counters: &[[u64; NUM_STREAMS]],
    shared: &Shared,
) -> Result<Queued, SnapshotError> {
    let target = r.u32()?;
    if target as usize >= pkt_counters.len() {
        return Err(SnapshotError::Corrupt(format!("event target c{target} out of range")));
    }
    // The stamp must predate its scheduling stream's restored counter,
    // or the run would mint it a second time.
    let gid = (order >> ORDER_GID_SHIFT) as usize;
    let stream = usize::from((order >> ORDER_STREAM_SHIFT) as u8);
    let counter = order & ORDER_COUNTER_MASK;
    if push_counters.get(gid).and_then(|row| row.get(stream)).is_none_or(|&c| counter >= c) {
        return Err(SnapshotError::Corrupt(format!(
            "queued stamp {order:#x} is beyond component {gid}'s stream {stream} order counter"
        )));
    }
    // Continuity audit: a queued packet must predate its owning
    // component's restored allocator cursor, or future allocations
    // would collide.
    let audit = |pkt: &Packet| -> Result<(), SnapshotError> {
        let id = pkt.id().0;
        let gid = (id >> PKT_GID_SHIFT) as usize;
        let counter = id & PKT_COUNTER_MASK;
        if gid >= pkt_counters.len() || counter >= pkt_counters[gid] {
            return Err(SnapshotError::Corrupt(format!(
                "queued {} is beyond component {gid}'s packet-id allocator",
                pkt.id()
            )));
        }
        Ok(())
    };
    let target = ComponentId(target);
    Ok(match r.u8()? {
        0 => Queued::Timer { target, kind: r.u32()?, data: r.u64()? },
        1 => {
            let tag = r.u32()?;
            let pkt = Packet::read(r)?;
            audit(&pkt)?;
            Queued::Delayed { target, tag, pkt }
        }
        2 => {
            // A retry is only ever granted toward the peer of a wired port.
            let port = PortId(r.u16()?);
            if shared.lookup_peer((target, port)).is_none() {
                return Err(SnapshotError::Corrupt(format!("retry to unwired {target} {port}")));
            }
            Queued::Retry { target, port }
        }
        other => return Err(SnapshotError::Corrupt(format!("action tag {other}"))),
    })
}

// Components that need post-run inspection share state with the harness via
// `Rc<RefCell<...>>` handles created before `Simulation::add` (see the
// `pcisim-system` workloads); the kernel deliberately offers no downcasting.

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::Event;
    use crate::packet::Command;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Fires a chain of timers and records their arrival times.
    struct TimerChain {
        name: String,
        fired: Rc<RefCell<Vec<(Tick, u64)>>>,
        remaining: u64,
        period: Tick,
    }
    impl Component for TimerChain {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(self.period, Event::Timer { kind: 0, data: self.remaining });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            self.fired.borrow_mut().push((ctx.now(), data));
            if data > 1 {
                ctx.schedule(self.period, Event::Timer { kind: 0, data: data - 1 });
            }
        }
    }

    #[test]
    fn timers_fire_in_order_and_queue_drains() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(TimerChain {
            name: "t".into(),
            fired: fired.clone(),
            remaining: 3,
            period: 10,
        }));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*fired.borrow(), vec![(10, 3), (20, 2), (30, 1)]);
        assert_eq!(sim.now(), 30);
        assert_eq!(sim.events_processed(), 3);
    }

    #[test]
    fn run_respects_time_limit_and_resumes() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(TimerChain {
            name: "t".into(),
            fired: fired.clone(),
            remaining: 100,
            period: 10,
        }));
        assert_eq!(sim.run(25, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(fired.borrow().len(), 2);
        assert_eq!(sim.now(), 25);
        assert_eq!(sim.run(45, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(fired.borrow().len(), 4);
    }

    #[test]
    fn a_schedule_past_the_end_of_time_saturates_to_it() {
        // `now + delay` saturates at `Tick::MAX`: both timers fire there.
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(TimerChain {
            name: "t".into(),
            fired: fired.clone(),
            remaining: 2,
            period: Tick::MAX,
        }));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*fired.borrow(), vec![(Tick::MAX, 2), (Tick::MAX, 1)]);
        assert_eq!(sim.now(), Tick::MAX);
    }

    #[test]
    fn restore_rejects_queued_stamps_the_counters_would_mint_again() {
        // One timer chain paused with its third timer (stamp counter 2)
        // queued and its stream-0 counter at 3.
        let chain = || {
            let mut sim = Simulation::new();
            sim.add(Box::new(TimerChain {
                name: "t".into(),
                fired: Rc::new(RefCell::new(Vec::new())),
                remaining: 10,
                period: 10,
            }));
            sim
        };
        let mut sim = chain();
        assert_eq!(sim.run(25, u64::MAX), RunOutcome::TimeLimit);
        let snap = sim.checkpoint();
        // Body offsets: fingerprint, now, events, one packet counter, then
        // the two stream counters, the entry count, and the entry's key.
        const STREAM0: usize = 16 + 8 * 4;
        const ORDER: usize = STREAM0 + 8 * 2 + 8 * 2;
        let patched = |at: usize, value: u64| {
            let mut body = snap[16..].to_vec();
            body[at - 16..at - 8].copy_from_slice(&value.to_le_bytes());
            seal_checkpoint(body)
        };
        assert_eq!(u64::from_le_bytes(snap[STREAM0..STREAM0 + 8].try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(snap[ORDER..ORDER + 8].try_into().unwrap()), 2);
        assert_eq!(chain().restore(&patched(STREAM0, 3)), Ok(()));
        for (what, at, value) in [
            ("counter below the stamp", STREAM0, 0),
            ("counter equal to the stamp", STREAM0, 2),
            ("stamp of an unknown component", ORDER, (5 << ORDER_GID_SHIFT) | 2),
            ("stamp on an unknown stream", ORDER, (2 << ORDER_STREAM_SHIFT) | 2),
        ] {
            let err = chain().restore(&patched(at, value)).expect_err(what);
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err:?}");
        }
    }

    #[test]
    fn packets_and_queued_entries_are_a_few_words() {
        use std::mem::size_of;
        assert_eq!(size_of::<Packet>(), 8);
        assert!(size_of::<Event>() <= 16, "{}", size_of::<Event>());
        assert!(size_of::<RecvResult>() <= 8, "{}", size_of::<RecvResult>());
        assert!(size_of::<Queued>() <= 24, "{}", size_of::<Queued>());
        // The calendar's slab slot is the entry plus its order stamp.
        assert!(size_of::<(u64, Option<Queued>)>() <= 32);
    }

    #[test]
    fn run_respects_event_limit_without_losing_events() {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(TimerChain {
            name: "t".into(),
            fired: fired.clone(),
            remaining: 10,
            period: 1,
        }));
        assert_eq!(sim.run(Tick::MAX, 5), RunOutcome::EventLimit);
        assert_eq!(sim.events_processed(), 5);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(fired.borrow().len(), 10);
    }

    /// Sends `count` requests to its peer as fast as allowed, honouring the
    /// refusal/retry protocol.
    struct Producer {
        name: String,
        to_send: u32,
        stalled: Option<Packet>,
        acked: Rc<RefCell<u32>>,
    }
    const P_OUT: PortId = PortId(0);
    impl Producer {
        fn pump(&mut self, ctx: &mut Ctx<'_>) {
            while self.stalled.is_none() && self.to_send > 0 {
                self.to_send -= 1;
                let id = ctx.alloc_packet_id();
                let pkt = Packet::request(id, Command::ReadReq, 0x1000, 4, ctx.self_id());
                if let Err(back) = ctx.try_send_request(P_OUT, pkt) {
                    self.stalled = Some(back);
                }
            }
        }
    }
    impl Component for Producer {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            self.pump(ctx);
        }
        fn recv_response(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _pkt: Packet) -> RecvResult {
            *self.acked.borrow_mut() += 1;
            RecvResult::Accepted
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
            assert_eq!(port, P_OUT);
            if let Some(pkt) = self.stalled.take() {
                if let Err(back) = ctx.try_send_request(P_OUT, pkt) {
                    self.stalled = Some(back);
                    return;
                }
            }
            self.pump(ctx);
        }
    }

    /// Accepts one request at a time; responds after a service delay, then
    /// grants a retry.
    struct Server {
        name: String,
        busy_with: Option<Packet>,
        refused: bool,
        served: Rc<RefCell<u32>>,
        delay: Tick,
    }
    const S_IN: PortId = PortId(0);
    impl Component for Server {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
            assert_eq!(port, S_IN);
            if self.busy_with.is_some() {
                self.refused = true;
                return RecvResult::Refused(pkt);
            }
            self.busy_with = Some(pkt);
            ctx.schedule(self.delay, Event::Timer { kind: 1, data: 0 });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            let pkt = self.busy_with.take().expect("service timer without packet");
            *self.served.borrow_mut() += 1;
            ctx.try_send_response(S_IN, pkt.into_read_response(vec![0; 4]))
                .expect("producer never refuses responses");
            if self.refused {
                self.refused = false;
                ctx.send_retry(S_IN);
            }
        }
    }

    #[test]
    fn request_response_with_backpressure_delivers_everything() {
        let acked = Rc::new(RefCell::new(0));
        let served = Rc::new(RefCell::new(0));
        let mut sim = Simulation::new();
        let p = sim.add(Box::new(Producer {
            name: "prod".into(),
            to_send: 10,
            stalled: None,
            acked: acked.clone(),
        }));
        let s = sim.add(Box::new(Server {
            name: "serv".into(),
            busy_with: None,
            refused: false,
            served: served.clone(),
            delay: 100,
        }));
        sim.connect((p, P_OUT), (s, S_IN));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*acked.borrow(), 10);
        assert_eq!(*served.borrow(), 10);
        // One packet is in service at a time, 100 ticks each.
        assert_eq!(sim.now(), 1000);
    }

    #[test]
    fn restore_rejects_a_queued_retry_on_an_unwired_port() {
        // Paused right after the server's first completion: the retry it
        // owes the refused producer is the one queued entry.
        let paused = || {
            let mut sim = Simulation::new();
            let p = sim.add(Box::new(Producer {
                name: "prod".into(),
                to_send: 2,
                stalled: None,
                acked: Rc::new(RefCell::new(0)),
            }));
            let s = sim.add(Box::new(Server {
                name: "serv".into(),
                busy_with: None,
                refused: false,
                served: Rc::new(RefCell::new(0)),
                delay: 100,
            }));
            sim.connect((p, P_OUT), (s, S_IN));
            sim
        };
        let mut sim = paused();
        assert_eq!(sim.run(Tick::MAX, 2), RunOutcome::EventLimit);
        let snap = sim.checkpoint();
        // Body offsets: fingerprint, now, events, two packet counters, four
        // stream counters, the entry count, the entry's key and target.
        const TAG: usize = 16 + 8 * 3 + 8 * 2 + 8 * 4 + 8 + 8 * 2 + 4;
        assert_eq!(snap[TAG], 2, "the queued entry is a retry");
        assert_eq!(snap[TAG + 1..TAG + 3], P_OUT.0.to_le_bytes());
        let patched = |port: u16| {
            let mut body = snap[16..].to_vec();
            body[TAG + 1 - 16..TAG + 3 - 16].copy_from_slice(&port.to_le_bytes());
            seal_checkpoint(body)
        };
        assert_eq!(paused().restore(&patched(P_OUT.0)), Ok(()));
        let err = paused().restore(&patched(5)).expect_err("port 5 is not wired");
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn packet_ids_are_unique_and_component_scoped() {
        let acked = Rc::new(RefCell::new(0));
        let served = Rc::new(RefCell::new(0));
        let mut sim = Simulation::new();
        let p = sim.add(Box::new(Producer {
            name: "prod".into(),
            to_send: 3,
            stalled: None,
            acked: acked.clone(),
        }));
        let s = sim.add(Box::new(Server {
            name: "serv".into(),
            busy_with: None,
            refused: false,
            served: served.clone(),
            delay: 10,
        }));
        sim.connect((p, P_OUT), (s, S_IN));
        sim.run_to_quiesce();
        // Producer is component 0: its ids are counters 0, 1, 2 under gid 0.
        assert_eq!(sim.packet_ids_allocated(), 3);
        assert_eq!(sim.shared.pkt_counters.borrow()[p.0 as usize], 3);
        assert_eq!(sim.shared.pkt_counters.borrow()[s.0 as usize], 0);
    }

    #[test]
    fn cancelled_timer_never_fires_and_does_not_stretch_the_run() {
        /// Arms a short work timer and a long watchdog; cancels the
        /// watchdog when the work timer fires.
        struct Guarded {
            fired: Rc<RefCell<Vec<(Tick, u32)>>>,
            watchdog: Option<crate::calendar::EventHandle>,
        }
        impl Component for Guarded {
            fn name(&self) -> &str {
                "guarded"
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                self.watchdog = Some(ctx.schedule(1_000_000, Event::Timer { kind: 9, data: 0 }));
                ctx.schedule(50, Event::Timer { kind: 1, data: 0 });
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
                let Event::Timer { kind, .. } = ev else { panic!() };
                self.fired.borrow_mut().push((ctx.now(), kind));
                if kind == 1 {
                    let cancelled = ctx.cancel_scheduled(self.watchdog.take().unwrap());
                    assert!(matches!(cancelled, Some(Event::Timer { kind: 9, .. })));
                }
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(Guarded { fired: fired.clone(), watchdog: None }));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*fired.borrow(), vec![(50, 1)], "watchdog must never fire");
        assert_eq!(sim.now(), 50, "cancelled timer must not advance quiesce time");
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn stop_request_halts_the_loop_and_can_resume() {
        struct Stopper;
        impl Component for Stopper {
            fn name(&self) -> &str {
                "stopper"
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(5, Event::Timer { kind: 0, data: 0 });
                ctx.schedule(10, Event::Timer { kind: 0, data: 0 });
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, _: Event) {
                ctx.stop();
            }
        }
        let mut sim = Simulation::new();
        sim.add(Box::new(Stopper));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::Stopped);
        assert_eq!(sim.now(), 5);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::Stopped);
        assert_eq!(sim.now(), 10);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    }

    struct Stub(&'static str);
    impl Component for Stub {
        fn name(&self) -> &str {
            self.0
        }
    }

    #[test]
    #[should_panic(expected = "duplicate component name")]
    fn duplicate_names_are_rejected() {
        let mut sim = Simulation::new();
        sim.add(Box::new(Stub("x")));
        sim.add(Box::new(Stub("x")));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_is_rejected() {
        let mut sim = Simulation::new();
        let a = sim.add(Box::new(Stub("a")));
        let b = sim.add(Box::new(Stub("b")));
        let c = sim.add(Box::new(Stub("c")));
        sim.connect((a, PortId(0)), (b, PortId(0)));
        sim.connect((a, PortId(0)), (c, PortId(0)));
    }

    #[test]
    fn peer_lookup_is_symmetric() {
        let mut sim = Simulation::new();
        let a = sim.add(Box::new(Stub("a")));
        let b = sim.add(Box::new(Stub("b")));
        sim.connect((a, PortId(3)), (b, PortId(7)));
        assert_eq!(sim.peer_of((a, PortId(3))), Some((b, PortId(7))));
        assert_eq!(sim.peer_of((b, PortId(7))), Some((a, PortId(3))));
        assert_eq!(sim.peer_of((a, PortId(0))), None);
        assert_eq!(sim.name_of(a), "a");
    }

    #[test]
    fn same_tick_events_fire_in_insertion_order() {
        struct Recorder {
            name: String,
            log: Rc<RefCell<Vec<u64>>>,
        }
        impl Component for Recorder {
            fn name(&self) -> &str {
                &self.name
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                for i in 0..5 {
                    ctx.schedule(10, Event::Timer { kind: 0, data: i });
                }
            }
            fn handle(&mut self, _ctx: &mut Ctx<'_>, ev: Event) {
                let Event::Timer { data, .. } = ev else { panic!() };
                self.log.borrow_mut().push(data);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(Recorder { name: "r".into(), log: log.clone() }));
        sim.run_to_quiesce();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    /// At init, schedules timers `data = 0..5` at tick 10, optionally
    /// minting a stamp after the second: eagerly as timer 99, as an unused
    /// reservation, or as a reservation a tick-5 timer (data 7) queues.
    struct Stamper {
        stamp: StampUse,
        reserved: u64,
        log: Rc<RefCell<Vec<u64>>>,
    }
    #[derive(Clone, Copy, PartialEq)]
    enum StampUse {
        Eager,
        Unused,
        Late,
    }
    impl Component for Stamper {
        fn name(&self) -> &str {
            "stamper"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            for data in 0..5 {
                if data == 2 {
                    match self.stamp {
                        StampUse::Eager => {
                            ctx.schedule(10, Event::Timer { kind: 0, data: 99 });
                        }
                        StampUse::Unused | StampUse::Late => self.reserved = ctx.reserve_order(0),
                    }
                }
                ctx.schedule(10, Event::Timer { kind: 0, data });
            }
            if self.stamp == StampUse::Late {
                ctx.schedule(5, Event::Timer { kind: 0, data: 7 });
            }
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            if data == 7 {
                assert!(ctx.is_ahead(10, self.reserved));
                ctx.schedule_reserved(5, self.reserved, Event::Timer { kind: 0, data: 99 });
                return;
            }
            self.log.borrow_mut().push(data);
        }
    }

    fn stamper_order(stamp: StampUse) -> Vec<u64> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(Stamper { stamp, reserved: 0, log: log.clone() }));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        log.take()
    }

    #[test]
    fn an_unused_reservation_moves_no_other_event() {
        let eager = stamper_order(StampUse::Eager);
        assert_eq!(eager, vec![0, 1, 99, 2, 3, 4]);
        let without: Vec<u64> = eager.iter().copied().filter(|&d| d != 99).collect();
        assert_eq!(stamper_order(StampUse::Unused), without);
    }

    #[test]
    fn a_reservation_queued_later_pops_where_the_eager_push_would_have() {
        assert_eq!(stamper_order(StampUse::Late), stamper_order(StampUse::Eager));
    }

    #[test]
    fn is_ahead_compares_against_the_dispatching_key() {
        /// Reserves a stamp before and after its tick-10 timer, then asks
        /// from inside that timer's dispatch.
        struct Asker {
            answers: Rc<RefCell<Vec<bool>>>,
            reserved: [u64; 2],
        }
        impl Component for Asker {
            fn name(&self) -> &str {
                "asker"
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                self.reserved[0] = ctx.reserve_order(0);
                ctx.schedule(10, Event::Timer { kind: 0, data: 0 });
                self.reserved[1] = ctx.reserve_order(0);
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
                let [before, after] = self.reserved;
                self.answers.borrow_mut().extend([
                    ctx.is_ahead(10, before),
                    ctx.is_ahead(10, after),
                    ctx.is_ahead(11, before),
                    ctx.is_ahead(9, after),
                ]);
            }
        }
        let answers = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(Box::new(Asker { answers: answers.clone(), reserved: [0; 2] }));
        sim.run_to_quiesce();
        // Same tick: the earlier stamp is behind the dispatching event,
        // the later one ahead; a later tick is always ahead, an earlier
        // one never.
        assert_eq!(*answers.borrow(), vec![false, true, true, false]);
    }

    #[test]
    fn same_tick_cross_component_order_is_by_id_not_insertion() {
        // Two components arm timers for the same tick; the lower component
        // id fires first regardless of which `schedule` call ran first.
        struct One {
            name: String,
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Component for One {
            fn name(&self) -> &str {
                &self.name
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule(10, Event::Timer { kind: 0, data: 0 });
            }
            fn handle(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {
                self.log.borrow_mut().push(self.name.clone());
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        // "b" is added first (lower id) — init order follows component id,
        // but even if "z" had scheduled first the order would hold.
        sim.add(Box::new(One { name: "b".into(), log: log.clone() }));
        sim.add(Box::new(One { name: "z".into(), log: log.clone() }));
        sim.run_to_quiesce();
        assert_eq!(*log.borrow(), vec!["b".to_owned(), "z".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "re-entrant dispatch")]
    fn synchronous_call_cycles_panic() {
        struct Echo {
            name: String,
        }
        impl Component for Echo {
            fn name(&self) -> &str {
                &self.name
            }
            fn init(&mut self, ctx: &mut Ctx<'_>) {
                if self.name == "e0" {
                    ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
                }
            }
            fn handle(&mut self, ctx: &mut Ctx<'_>, _: Event) {
                let id = ctx.alloc_packet_id();
                let pkt = Packet::request(id, Command::ReadReq, 0, 4, ctx.self_id());
                let _ = ctx.try_send_request(PortId(0), pkt);
            }
            fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
                // Illegal: synchronously answer toward the caller.
                let _ = ctx.try_send_response(PortId(0), pkt.into_read_response(vec![0; 4]));
                RecvResult::Accepted
            }
        }
        let mut sim = Simulation::new();
        let a = sim.add(Box::new(Echo { name: "e0".into() }));
        let b = sim.add(Box::new(Echo { name: "e1".into() }));
        sim.connect((a, PortId(0)), (b, PortId(0)));
        sim.run_to_quiesce();
    }
}
