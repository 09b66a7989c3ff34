//! Property-based tests of the simulation kernel: address-map correctness,
//! event-ordering determinism, crossbar conservation under arbitrary
//! traffic, and the buffered fabric stages under back-pressure from every
//! side.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use pcisim_kernel::addr::{AddrMap, AddrRange};
use pcisim_kernel::dram::DRAM_PORT;
use pcisim_kernel::packet::Command;
use pcisim_kernel::prelude::*;
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::stage::{Stage, STAGE_CPU_SIDE, STAGE_MEM_SIDE};
use pcisim_kernel::testutil::{
    CompletionLog, Requester, Responder, REQUESTER_PORT, RESPONDER_PORT,
};

const DRAM_BASE: u64 = 0x8000_0000;
const SINK_BASE: u64 = 0x1000;

/// Ids a [`Refuser`] served, in service order.
type ServedLog = Rc<RefCell<Vec<PacketId>>>;

/// Answers requests after `service`, but refuses every `k`-th one it is
/// offered and grants the owed retry a nanosecond later.
struct Refuser {
    k: u64,
    offered: u64,
    service: Tick,
    served: ServedLog,
    resp: TimedQueue,
}

impl Component for Refuser {
    fn name(&self) -> &str {
        "sink"
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        self.offered += 1;
        if self.offered.is_multiple_of(self.k) {
            ctx.schedule(ns(1), Event::Timer { kind: 0, data: 0 });
            return self.resp.refuse(pkt);
        }
        ctx.schedule(self.service, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { .. } => self.resp.grant_retry(ctx, PortId(0)),
            Event::DelayedPacket { pkt, .. } => {
                self.served.borrow_mut().push(pkt.id());
                if pkt.is_posted() {
                    return;
                }
                let resp = if pkt.cmd().is_read() {
                    let data = vec![0; pkt.size() as usize];
                    pkt.into_read_response(data)
                } else {
                    pkt.into_response()
                };
                self.resp.push(resp);
                self.resp.flush(ctx, PortId(0));
            }
        }
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.resp.unblock();
        self.resp.flush(ctx, PortId(0));
    }

    pcisim_kernel::state_fields!(component self; offered, resp);
}

/// Buffer depths of [`fabric`]'s stages.
#[derive(Debug, Clone, Copy)]
struct Depths {
    bridge: usize,
    xbar: usize,
    mshrs: usize,
    dram: usize,
    /// The sink refuses every `refuse_every`-th offer.
    refuse_every: u64,
}

/// requester → bridge → crossbar, whose port 1 leads through an IOCache to
/// a DRAM slower than the bridge (addresses from [`DRAM_BASE`]) and whose port 2 leads to a
/// [`Refuser`] (addresses from [`SINK_BASE`]). Returns the simulation, the
/// requester's completions, the sink's service log and the DRAM's id.
fn fabric(
    script: Vec<(Command, u64, u32)>,
    d: Depths,
) -> (Simulation, CompletionLog, ServedLog, ComponentId) {
    let mut sim = Simulation::new();
    let (req, done) = Requester::new("gen", script);
    let r = sim.add(Box::new(req));
    let b = sim.add(Box::new(Stage::bridge("bridge").mshrs(d.bridge)));
    let x = sim.add(Box::new(
        Crossbar::builder("xbar")
            .num_ports(3)
            .queue_capacity(d.xbar)
            .route(AddrRange::with_size(DRAM_BASE, 0x1000_0000), PortId(1))
            .route(AddrRange::with_size(SINK_BASE, 0x1000_0000), PortId(2))
            .build(),
    ));
    let c = sim.add(Box::new(Stage::iocache("iocache").mshrs(d.mshrs)));
    let m = sim.add(Box::new(
        Dram::builder("dram", AddrRange::with_size(DRAM_BASE, 0x1000_0000))
            .latency(ns(200))
            .max_outstanding(d.dram)
            .build(),
    ));
    let served = ServedLog::default();
    let sink = sim.add(Box::new(Refuser {
        k: d.refuse_every,
        offered: 0,
        service: ns(20),
        served: served.clone(),
        resp: TimedQueue::unbounded(),
    }));
    sim.connect((r, REQUESTER_PORT), (b, STAGE_CPU_SIDE));
    sim.connect((b, STAGE_MEM_SIDE), (x, PortId(0)));
    sim.connect((x, PortId(1)), (c, STAGE_CPU_SIDE));
    sim.connect((c, STAGE_MEM_SIDE), (m, DRAM_PORT));
    sim.connect((x, PortId(2)), (sink, PortId(0)));
    (sim, done, served, m)
}

/// The `i`-th packet of a mixed script: reads, writes and posted messages,
/// to DRAM or to the sink as bit `i` of `to_sink` says.
fn mixed(i: u64, to_sink: u64) -> (Command, u64, u32) {
    let cmd = [Command::ReadReq, Command::WriteReq, Command::Message][(i % 3) as usize];
    let base = if (to_sink >> (i % 64)) & 1 == 1 { SINK_BASE } else { DRAM_BASE };
    (cmd, base + i * 64, 64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An AddrMap built from disjoint ranges answers lookups exactly like
    /// a linear scan.
    #[test]
    fn addr_map_matches_linear_scan(
        spans in proptest::collection::vec((0u64..1 << 20, 1u64..1 << 12), 0..12),
        probes in proptest::collection::vec(0u64..1 << 21, 0..32),
    ) {
        let mut map = AddrMap::new();
        let mut accepted: Vec<(AddrRange, usize)> = Vec::new();
        for (i, (base, size)) in spans.iter().enumerate() {
            let range = AddrRange::with_size(*base, *size);
            if map.insert(range, i).is_ok() {
                accepted.push((range, i));
            }
        }
        prop_assert_eq!(map.len(), accepted.len());
        for p in probes {
            let linear = accepted.iter().find(|(r, _)| r.contains(p)).map(|(_, i)| i);
            prop_assert_eq!(map.lookup(p), linear, "probe {:#x}", p);
        }
    }

    /// Rejected (overlapping) inserts leave the map unchanged.
    #[test]
    fn addr_map_rejects_overlaps_atomically(
        base in 0u64..1000,
        size in 1u64..1000,
        delta in 0u64..999,
    ) {
        let mut map = AddrMap::new();
        let first = AddrRange::with_size(base, size);
        map.insert(first, "a").unwrap();
        // A range starting inside the first must be rejected.
        let overlapping = AddrRange::with_size(base + delta.min(size - 1), size);
        prop_assert!(map.insert(overlapping, "b").is_err());
        prop_assert_eq!(map.len(), 1);
        prop_assert_eq!(map.lookup(base), Some(&"a"));
    }

    /// Any scripted traffic through a crossbar with any queue depth
    /// completes fully, deterministically, twice over.
    #[test]
    fn crossbar_traffic_is_conserved_and_deterministic(
        n in 1u64..64,
        cap in 1usize..8,
        service_ns in 0u64..200,
        read_mix in any::<u64>(),
    ) {
        let run = || {
            let mut sim = Simulation::new();
            let script: Vec<_> = (0..n)
                .map(|i| {
                    let cmd = if (read_mix >> (i % 64)) & 1 == 0 {
                        Command::ReadReq
                    } else {
                        Command::WriteReq
                    };
                    (cmd, 0x1000 + (i % 16) * 64, 64u32)
                })
                .collect();
            let (req, done) = Requester::new("gen", script);
            let r = sim.add(Box::new(req));
            let x = sim.add(Box::new(
                Crossbar::builder("xbar")
                    .num_ports(2)
                    .queue_capacity(cap)
                    .route(AddrRange::new(0x1000, 0x2000), PortId(1))
                    .build(),
            ));
            let (resp, served) = Responder::new("dev", ns(service_ns));
            let d = sim.add(Box::new(resp));
            sim.connect((r, PortId(0)), (x, PortId(0)));
            sim.connect((x, PortId(1)), (d, PortId(0)));
            assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
            let completions = done.borrow().clone();
            let served = *served.borrow();
            (completions, served, sim.now(), sim.events_processed())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.1 as u64, n, "every packet must be served");
        prop_assert_eq!(a.0.len() as u64, n, "every packet must complete");
        prop_assert_eq!(a, b, "identical runs must be bit-identical");
    }

    /// For any monotone interleaving of pushes and pops, the calendar
    /// queue agrees exactly with a sorted reference model: items come out
    /// in (tick, order-stamp) order, including far-future ticks that
    /// live in the overflow heap and limit-bounded `pop_if_at_most` calls.
    #[test]
    fn calendar_queue_matches_reference_model(
        ops in proptest::collection::vec((any::<u8>(), 0u64..1 << 28), 1..256),
    ) {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        use pcisim_kernel::calendar::CalendarQueue;

        let mut queue: CalendarQueue<u32> = CalendarQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (i, &(op, delta)) in ops.iter().enumerate() {
            match op % 4 {
                // Push at `now + delta`; small deltas exercise the bucket
                // ring, large ones (>= bucket span) the overflow heap.
                0 | 1 => {
                    let delta = if op & 4 == 0 { delta % (1 << 12) } else { delta };
                    queue.push(now + delta, seq, i as u32);
                    model.push(Reverse((now + delta, seq, i as u32)));
                    seq += 1;
                }
                2 => {
                    let got = queue.pop();
                    let want = model.pop().map(|Reverse((t, _, v))| (t, v));
                    prop_assert_eq!(got, want);
                    if let Some((t, _)) = got {
                        now = t;
                    }
                }
                _ => {
                    let limit = now + delta % (1 << 13);
                    match queue.pop_if_at_most(limit) {
                        Ok(Some((t, o, v))) => {
                            let Reverse((mt, ms, mv)) = model.pop().expect("model nonempty");
                            prop_assert_eq!((t, o, v), (mt, ms, mv));
                            prop_assert!(t <= limit);
                            now = t;
                        }
                        Ok(None) => prop_assert!(model.is_empty()),
                        Err(head) => {
                            let &Reverse((mt, _, _)) = model.peek().expect("head beyond limit");
                            prop_assert_eq!(head, mt);
                            prop_assert!(head > limit);
                        }
                    }
                }
            }
            prop_assert_eq!(queue.len(), model.len());
        }
        // Drain: everything left must come out fully ordered.
        while let Some((t, v)) = queue.pop() {
            let Reverse((mt, _, mv)) = model.pop().expect("model tracks len");
            prop_assert_eq!((t, v), (mt, mv));
        }
        prop_assert!(model.is_empty());
    }

    /// Completions from a FIFO pipeline preserve issue order.
    #[test]
    fn bridge_preserves_order(n in 1u64..48, cap in 1usize..6) {
        let mut sim = Simulation::new();
        let script: Vec<_> = (0..n).map(|i| (Command::ReadReq, 0x1000 + i * 4, 4u32)).collect();
        let (req, done) = Requester::new("gen", script);
        let r = sim.add(Box::new(req));
        let b = sim.add(Box::new(Stage::bridge("bridge").mshrs(cap)));
        let (resp, _) = Responder::new("dev", ns(10));
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (b, STAGE_CPU_SIDE));
        sim.connect((b, STAGE_MEM_SIDE), (d, RESPONDER_PORT));
        prop_assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        prop_assert_eq!(done.len() as u64, n);
        // PacketIds were allocated in issue order; completions must be
        // non-decreasing in time and in-order by id for a FIFO pipeline.
        for w in done.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "completion order must match issue order");
            prop_assert!(w[0].1 <= w[1].1);
        }
    }

    /// Random depths at every stage and a sink that refuses every k-th
    /// offer: every packet is delivered exactly once, and each lane —
    /// DRAM-bound and sink-bound — completes in issue order.
    #[test]
    fn iocache_and_dram_preserve_order_and_conserve(
        n in 1u64..48,
        bridge in 1usize..6,
        xbar in 1usize..6,
        mshrs in 1usize..6,
        dram in 1usize..6,
        refuse_every in 2u64..6,
        to_sink in any::<u64>(),
    ) {
        let script: Vec<_> = (0..n).map(|i| mixed(i, to_sink)).collect();
        let depths = Depths { bridge, xbar, mshrs, dram, refuse_every };
        let (mut sim, done, served, _) = fabric(script.clone(), depths);
        prop_assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        // Ids are allocated in issue order, so the i-th smallest completed
        // id is script entry i.
        let mut ids: Vec<PacketId> = done.borrow().iter().map(|&(id, _)| id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, n, "every packet completes exactly once");
        let at_sink = |i: usize| script[i].1 < DRAM_BASE;
        let sink_ids: Vec<PacketId> = (0..ids.len()).filter(|&i| at_sink(i)).map(|i| ids[i]).collect();
        prop_assert_eq!(&*served.borrow(), &sink_ids, "the sink serves its lane once, in order");
        let stats = sim.stats();
        let dram_served = stats.get("dram.reads").unwrap() + stats.get("dram.writes").unwrap();
        prop_assert_eq!(dram_served as usize, ids.len() - sink_ids.len(), "DRAM serves its lane once");
        for sink_lane in [false, true] {
            let lane: Vec<PacketId> = done
                .borrow()
                .iter()
                .map(|&(id, _)| id)
                .filter(|id| {
                    let i = ids.binary_search(id).expect("issued id");
                    at_sink(i) == sink_lane && script[i].0 != Command::Message
                })
                .collect();
            prop_assert!(lane.windows(2).all(|w| w[0] < w[1]), "lane completes in issue order");
        }
    }
}

/// A chain of the shallowest stages that still refuse one another — the
/// crossbar and DRAM hold one packet, the IOCache has one MSHR and the
/// bridge two (with one, the bridge holds its only request for the whole
/// round trip and never offers the crossbar a second to refuse) — in front
/// of a sink that refuses every third offer, checkpointed at every event
/// boundary and restored into a fresh build: each restored run ends at the
/// uninterrupted run's quiesce tick with its statistics and PacketId count.
#[test]
fn one_deep_chain_checkpoints_at_every_event_and_restores_identically() {
    // A posted message leaves the IOCache as soon as its lookup ends, so
    // one queued behind another reaches the still-busy DRAM and is refused.
    let script: Vec<_> = (0..24).map(|i| mixed(i, 0b1100_0000_1100_0000)).collect();
    let depths = Depths { bridge: 2, xbar: 1, mshrs: 1, dram: 1, refuse_every: 3 };

    let (mut traced, _, _, dram) = fabric(script.clone(), depths);
    traced.set_trace_mask(TraceCategory::Hop.bit());
    assert_eq!(traced.run_to_quiesce(), RunOutcome::QueueEmpty);
    let stats = traced.stats();
    for stage in ["bridge", "xbar", "iocache"] {
        assert!(stats.get(&format!("{stage}.refusals")).unwrap() > 0.0, "{stage} must refuse");
    }
    let trace = traced.take_trace();
    let dram_refused =
        trace.events.iter().any(|e| e.kind == TraceKind::HopRefused && e.component == dram);
    assert!(dram_refused, "the DRAM must refuse");

    let (mut reference, done, served, _) = fabric(script.clone(), depths);
    assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
    assert_eq!(done.borrow().len(), script.len(), "every request completes");
    assert!(served.borrow().len() >= 3, "the sink was offered enough to refuse");
    let (ref_tick, ref_fnv) = (reference.now(), reference.stats().fnv());
    let ref_pid = reference.packet_ids_allocated();
    for cut in 1..reference.events_processed() {
        let (mut interrupted, _, _, _) = fabric(script.clone(), depths);
        assert_eq!(interrupted.run(Tick::MAX, cut), RunOutcome::EventLimit);
        let snap = interrupted.checkpoint();
        let (mut restored, _, _, _) = fabric(script.clone(), depths);
        restored.restore(&snap).expect("restores");
        assert_eq!(restored.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(restored.now(), ref_tick, "quiesce tick after cut {cut}");
        assert_eq!(restored.stats().fnv(), ref_fnv, "stats after cut {cut}");
        assert_eq!(restored.packet_ids_allocated(), ref_pid, "packet ids after cut {cut}");
    }
}

/// Open-loop arrival scheduling at multi-second horizons: `now + delay`
/// must saturate at the end of simulated time rather than wrap u64 and
/// land an event in the past (which would corrupt causality or panic the
/// calendar queue). Regression test for the traffic-generator path.
#[test]
fn long_horizon_scheduling_saturates_instead_of_wrapping() {
    struct FarFuture {
        fired: Rc<RefCell<Vec<Tick>>>,
    }
    impl Component for FarFuture {
        fn name(&self) -> &str {
            "far"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            // Lands 5 ticks shy of the end of time.
            ctx.schedule(u64::MAX - 5, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            self.fired.borrow_mut().push(ctx.now());
            if let Event::Timer { kind: 0, .. } = ev {
                // now + delay overflows u64; must pin to u64::MAX, not wrap
                // to a tick before `now`.
                ctx.schedule(u64::MAX, Event::Timer { kind: 1, data: 0 });
            }
        }
    }

    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new();
    sim.add(Box::new(FarFuture { fired: Rc::clone(&fired) }));
    assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
    let fired = fired.borrow();
    assert_eq!(*fired, vec![u64::MAX - 5, u64::MAX]);
}

/// Tick unit constructors saturate instead of wrapping: a pathological
/// `us(u64::MAX)` style conversion must stay at the end of time.
#[test]
fn tick_conversions_saturate_at_the_horizon() {
    use pcisim_kernel::tick::{ms, us};
    assert_eq!(ns(u64::MAX), u64::MAX);
    assert_eq!(us(u64::MAX / 2), u64::MAX);
    assert_eq!(ms(u64::MAX), u64::MAX);
    // Ordinary magnitudes are untouched.
    assert_eq!(ns(150), 150_000);
    assert_eq!(us(3), 3_000_000);
}
