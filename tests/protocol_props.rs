//! Property-based tests of the core protocol invariants.
//!
//! * The data link layer never loses or duplicates TLPs, whatever the
//!   receiver's refusal pattern or the injected error rate;
//! * enumeration always produces non-overlapping, naturally-aligned BARs
//!   and bridge windows, whatever the topology;
//! * the replay-timeout formula behaves monotonically;
//! * on-wire sizes follow Table I for any payload.

use proptest::prelude::*;

use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
use pcisim::kernel::packet::{Command, Packet};
use pcisim::kernel::sim::{Ctx, RunOutcome, Simulation};
use pcisim::kernel::testutil::{Requester, REQUESTER_PORT};
use pcisim::pcie::ack_nak::replay_timeout;
use pcisim::pcie::link::{PcieLink, PORT_DOWN_MASTER, PORT_UP_SLAVE};
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::tlp::tlp_wire_bytes;

/// A sink that refuses deliveries according to a scripted pattern, then
/// responds to everything it accepted.
struct PatternSink {
    name: String,
    pattern: Vec<bool>, // true = refuse this delivery attempt
    attempt: usize,
    received: std::rc::Rc<std::cell::RefCell<Vec<u64>>>,
    blocked: std::collections::VecDeque<Packet>,
    waiting: bool,
}

impl Component for PatternSink {
    fn name(&self) -> &str {
        &self.name
    }
    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
        let refuse = self.pattern.get(self.attempt).copied().unwrap_or(false);
        self.attempt += 1;
        if refuse {
            return RecvResult::Refused(pkt);
        }
        self.received.borrow_mut().push(pkt.addr());
        ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
        self.blocked.push_back(pkt.into_response());
        self.flush(ctx);
    }
    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _p: PortId) {
        self.waiting = false;
        self.flush(ctx);
    }
}

impl PatternSink {
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(p) = self.blocked.pop_front() else { return };
            if let Err(back) = ctx.try_send_response(PortId(0), p) {
                self.blocked.push_front(back);
                self.waiting = true;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever refusal pattern the receiver exhibits and whatever error
    /// rate the wire injects, every TLP arrives exactly once and in order.
    #[test]
    fn link_never_loses_or_duplicates_tlps(
        n_pkts in 1usize..40,
        refusals in proptest::collection::vec(any::<bool>(), 0..80),
        // 0 = no errors; 1 is excluded: corrupting *every* transmission
        // (including replays) correctly never converges.
        error_interval in prop_oneof![Just(0u64), 2u64..6],
        replay_buffer in 1usize..5,
        lanes_pow in 0u32..4,
    ) {
        let lanes = 1u8 << lanes_pow;
        let config = LinkConfig {
            replay_buffer_size: replay_buffer,
            error_interval,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::new(lanes))
        };
        let mut sim = Simulation::new();
        let script: Vec<_> = (0..n_pkts)
            .map(|i| (Command::WriteReq, 0x4000_0000 + i as u64 * 64, 64))
            .collect();
        let (req, done) = Requester::new("gen", script);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", config)));
        let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let s = sim.add(Box::new(PatternSink {
            name: "sink".into(),
            pattern: refusals,
            attempt: 0,
            received: received.clone(),
            blocked: Default::default(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        prop_assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        // Exactly once, in order.
        let got = received.borrow().clone();
        let want: Vec<u64> = (0..n_pkts).map(|i| 0x4000_0000 + i as u64 * 64).collect();
        prop_assert_eq!(got, want);
        // And every response returned.
        prop_assert_eq!(done.borrow().len(), n_pkts);
    }

    /// AER evidence is consistent with what the wire actually did: the
    /// receiving end latches Receiver Error / Bad TLP exactly when a
    /// corrupt TLP was dropped there, and the lossy run still converges
    /// with every TLP delivered exactly once.
    #[test]
    fn lossy_link_latches_aer_exactly_when_corruption_occurs(
        n_pkts in 1usize..40,
        error_interval in prop_oneof![Just(0u64), 2u64..8],
        lanes_pow in 0u32..4,
    ) {
        use pcisim::pci::caps::{aer_status, write_aer_capability};
        use pcisim::pci::config::{shared, ConfigSpace};
        use pcisim::pci::regs::aer::cor;

        let aer_cs = || {
            let mut cs = ConfigSpace::new();
            write_aer_capability(&mut cs, 0x100, 0);
            shared(cs)
        };
        let (up_cs, down_cs) = (aer_cs(), aer_cs());
        let config = LinkConfig {
            error_interval,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::new(1u8 << lanes_pow))
        };
        let mut sim = Simulation::new();
        let script: Vec<_> = (0..n_pkts)
            .map(|i| (Command::WriteReq, 0x4000_0000 + i as u64 * 64, 64))
            .collect();
        let (req, done) = Requester::new("gen", script);
        let r = sim.add(Box::new(req));
        let mut link = PcieLink::new("link", config);
        link.attach_aer(Some(up_cs.clone()), Some(down_cs.clone()));
        let l = sim.add(Box::new(link));
        let received = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let s = sim.add(Box::new(PatternSink {
            name: "sink".into(),
            pattern: Vec::new(),
            attempt: 0,
            received: received.clone(),
            blocked: Default::default(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        prop_assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        prop_assert_eq!(received.borrow().len(), n_pkts);
        prop_assert_eq!(done.borrow().len(), n_pkts);

        let stats = sim.stats();
        let corrupt_down = stats.get("link.down.rx_dropped_corrupt").unwrap_or(0.0);
        let corrupt_up = stats.get("link.up.rx_dropped_corrupt").unwrap_or(0.0);
        let rx_bits = cor::RECEIVER_ERROR | cor::BAD_TLP;
        // Downstream corruption latches at the downstream (receiving) end,
        // upstream corruption at the upstream end — and never without cause.
        let (_, down_cor) = aer_status(&down_cs.borrow());
        let (_, up_cor) = aer_status(&up_cs.borrow());
        prop_assert_eq!(down_cor & rx_bits != 0, corrupt_down > 0.0,
            "down cor {:#x} vs {} drops", down_cor, corrupt_down);
        prop_assert_eq!(up_cor & rx_bits != 0, corrupt_up > 0.0,
            "up cor {:#x} vs {} drops", up_cor, corrupt_up);
        if error_interval == 0 {
            prop_assert_eq!(down_cor, 0);
            prop_assert_eq!(up_cor, 0);
        }
    }

    /// The replay timeout shrinks (or stays equal) as links get wider and
    /// grows with the payload.
    #[test]
    fn replay_timeout_is_monotonic(payload_pow in 6u32..12) {
        let payload = 1u32 << payload_pow;
        let widths = [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8];
        let mut last = u64::MAX;
        for w in widths {
            let c = LinkConfig {
                max_payload: payload,
                ..LinkConfig::new(Generation::Gen2, w)
            };
            let t = replay_timeout(&c);
            prop_assert!(t > 0);
            prop_assert!(t <= last, "timeout must not grow with width");
            last = t;
        }
        // Payload monotonicity at fixed width.
        let small = LinkConfig { max_payload: payload, ..LinkConfig::default() };
        let big = LinkConfig { max_payload: payload * 2, ..LinkConfig::default() };
        prop_assert!(replay_timeout(&big) >= replay_timeout(&small));
    }

    /// Table I: on-wire size is payload + 20 bytes, for any payload.
    #[test]
    fn tlp_wire_size_is_payload_plus_overheads(payload in 0u32..4096) {
        prop_assert_eq!(tlp_wire_bytes(payload), payload + 20);
    }

    /// Transmission time scales linearly in bytes and inversely in lanes
    /// (up to rounding).
    #[test]
    fn tx_time_scales_sanely(bytes in 1u32..4096, lanes_pow in 0u32..4) {
        let lanes = 1u8 << lanes_pow;
        let narrow = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let wide = LinkConfig::new(Generation::Gen2, LinkWidth::new(lanes));
        let t1 = narrow.tx_time(bytes);
        let tw = wide.tx_time(bytes);
        // Wider is never slower, and speedup is at most the lane count.
        prop_assert!(tw <= t1);
        prop_assert!(tw * u64::from(lanes) + u64::from(lanes) >= t1);
    }
}

mod enumeration_props {
    use super::*;
    use pcisim::pci::config::shared;
    use pcisim::pci::ecam::Bdf;
    use pcisim::pci::enumeration::{enumerate, EnumerationConfig};
    use pcisim::pci::header::{Bar, Type0Header, Type1Header};
    use pcisim::pci::host::shared_registry;

    /// A randomly sized endpoint: up to three BARs with power-of-two sizes.
    fn endpoint(dev_id: u16, bar_sizes: &[u64]) -> pcisim::pci::config::ConfigSpace {
        let mut h = Type0Header::new(0x1af4, dev_id).interrupt_pin(1);
        for (i, &size) in bar_sizes.iter().enumerate() {
            h = h.bar(i, Bar::Memory32 { size, prefetchable: false });
        }
        h.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any mix of endpoints behind any number of bridges enumerates to
        /// non-overlapping, naturally aligned BARs, and every bridge window
        /// covers exactly its subtree.
        #[test]
        fn bars_never_overlap_and_align(
            // Devices on bus 0 (flat topology beside one bridge).
            flat_sizes in proptest::collection::vec(4u32..14, 0..4),
            // Devices behind the bridge.
            deep_sizes in proptest::collection::vec(4u32..14, 0..4),
        ) {
            let reg = shared_registry();
            {
                let mut r = reg.borrow_mut();
                for (i, pow) in flat_sizes.iter().enumerate() {
                    r.register(
                        Bdf::new(0, (4 + i) as u8, 0),
                        shared(endpoint(0x1000 + i as u16, &[1u64 << pow])),
                    );
                }
                r.register(Bdf::new(0, 1, 0), shared(Type1Header::new(0x8086, 0x9c90).build()));
                for (i, pow) in deep_sizes.iter().enumerate() {
                    r.register(
                        Bdf::new(1, i as u8, 0),
                        shared(endpoint(0x2000 + i as u16, &[1u64 << pow])),
                    );
                }
            }
            let report = enumerate(&mut reg.clone(), EnumerationConfig::vexpress_gem5_v1()).unwrap();

            // Natural alignment + pairwise disjointness of all BARs.
            let mut regions: Vec<(u64, u64)> = Vec::new();
            for d in report.endpoints() {
                for b in &d.bars {
                    prop_assert_eq!(b.base % b.size, 0, "BAR must be naturally aligned");
                    regions.push((b.base, b.base + b.size));
                }
            }
            regions.sort_unstable();
            for w in regions.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "BARs overlap: {:?}", w);
            }

            // The bridge window covers exactly the BARs behind it.
            let bridge = report.find(0x8086, 0x9c90).unwrap();
            let window = bridge.memory_window.unwrap();
            for d in report.endpoints() {
                for b in &d.bars {
                    let inside = window.contains(b.base);
                    let behind = d.bdf.bus >= 1;
                    prop_assert_eq!(
                        inside, behind,
                        "window {} vs BAR {:#x} on bus {}", window, b.base, d.bdf.bus
                    );
                }
            }
        }

        /// Bus numbers are strictly depth-first: each bridge's range
        /// contains every descendant and nothing else.
        #[test]
        fn bus_ranges_nest(depth in 1usize..5) {
            let reg = shared_registry();
            {
                let mut r = reg.borrow_mut();
                // A chain of bridges, each at device 0 of the previous
                // secondary bus.
                for level in 0..depth {
                    r.register(
                        Bdf::new(level as u8, 0, 0),
                        shared(Type1Header::new(0x8086, 0x9c90 + level as u16).build()),
                    );
                }
                // One endpoint at the bottom.
                r.register(Bdf::new(depth as u8, 0, 0), shared(endpoint(0x999, &[0x1000])));
            }
            let report = enumerate(&mut reg.clone(), EnumerationConfig::vexpress_gem5_v1()).unwrap();
            prop_assert_eq!(report.bridges().count(), depth);
            let mut ranges: Vec<(u8, u8)> =
                report.bridges().map(|b| b.bus_range.unwrap()).collect();
            ranges.sort_unstable();
            // Deeper bridges have strictly nested ranges.
            for w in ranges.windows(2) {
                let (outer, inner) = (w[0], w[1]);
                prop_assert!(outer.0 < inner.0 && inner.1 <= outer.1,
                    "ranges must nest: {:?} then {:?}", outer, inner);
            }
            prop_assert_eq!(report.bus_count as usize, depth + 1);
        }
    }
}

mod routing_props {
    use super::*;
    use pcisim::devices::ide::IdeDiskConfig;
    use pcisim::devices::nic::NicConfig;
    use pcisim::kernel::component::ComponentId;
    use pcisim::kernel::testutil::{Requester, Responder, ServeCount, RESPONDER_PORT};
    use pcisim::pcie::router::{
        port_downstream_master, port_downstream_slave, PcieRouter, RouterConfig,
        PORT_UPSTREAM_MASTER, PORT_UPSTREAM_SLAVE,
    };
    use pcisim::system::topology::{Attachment, DeviceSpec, Node, PlannedTopology, Topology};

    /// Consumes generator bytes into one port: empty, an endpoint, or a
    /// nested switch while depth remains.
    fn grow_port(
        bytes: &mut std::vec::IntoIter<u8>,
        depth: usize,
        count: &mut usize,
    ) -> Option<Attachment> {
        let b = bytes.next().unwrap_or(1);
        match b % 4 {
            0 => None,
            3 if depth > 0 => {
                let fanout = 1 + (bytes.next().unwrap_or(0) % 2) as usize;
                let ports = (0..fanout).map(|_| grow_port(bytes, depth - 1, count)).collect();
                Some(Attachment::new(
                    LinkConfig::default(),
                    Node::switch(RouterConfig::default(), ports),
                ))
            }
            _ => {
                *count += 1;
                let device = if b & 0x10 == 0 {
                    DeviceSpec::Disk(IdeDiskConfig::default())
                } else {
                    DeviceSpec::Nic(NicConfig::default())
                };
                Some(Attachment::new(
                    LinkConfig::default(),
                    Node::endpoint(format!("ep{count}"), device),
                ))
            }
        }
    }

    /// A bounded random tree: up to three root ports, switches at most
    /// two levels deep, at least one endpoint.
    fn grow_topology(shape: Vec<u8>) -> Topology {
        let mut bytes = shape.into_iter();
        let n_roots = 1 + (bytes.next().unwrap_or(0) % 3) as usize;
        let mut count = 0usize;
        let mut roots: Vec<Option<Attachment>> =
            (0..n_roots).map(|_| grow_port(&mut bytes, 2, &mut count)).collect();
        if count == 0 {
            roots[0] = Some(Attachment::new(
                LinkConfig::default(),
                Node::endpoint("ep0", DeviceSpec::Disk(IdeDiskConfig::default())),
            ));
        }
        Topology::new(RouterConfig::default(), roots)
    }

    /// Instantiates the planned routers (links elided — the routers do
    /// all the routing) and wires parent/child port pairs.
    fn build_fabric(sim: &mut Simulation, plan: &PlannedTopology) -> Vec<ComponentId> {
        let mut ids: Vec<ComponentId> = Vec::new();
        for (i, r) in plan.routers.iter().enumerate() {
            let router = if i == 0 {
                PcieRouter::root_complex(
                    r.name.clone(),
                    r.config.clone(),
                    r.downstream_vp2ps.clone(),
                )
            } else {
                PcieRouter::switch(
                    r.name.clone(),
                    r.config.clone(),
                    r.upstream_vp2p.clone().expect("switch has an upstream VP2P"),
                    r.downstream_vp2ps.clone(),
                )
            };
            let id = sim.add(Box::new(router));
            if let Some(edge) = &r.parent {
                let parent = ids[edge.router];
                sim.connect((parent, port_downstream_master(edge.pair)), (id, PORT_UPSTREAM_SLAVE));
                sim.connect((id, PORT_UPSTREAM_MASTER), (parent, port_downstream_slave(edge.pair)));
            }
            ids.push(id);
        }
        ids
    }

    /// Runs one (requester, completer) experiment over the planned tree:
    /// `requester` is an endpoint index or `None` for the CPU side.
    /// Returns (completions seen, completer serves, stray serves).
    fn run_pair(
        plan: &PlannedTopology,
        requester: Option<usize>,
        completer: usize,
        target: u64,
    ) -> (usize, u32, u32) {
        let mut sim = Simulation::new();
        let routers = build_fabric(&mut sim, plan);
        let script = vec![(Command::ReadReq, target, 4)];
        let (req, done) = Requester::new("probe-req", script);
        let req = sim.add(Box::new(req));
        match requester {
            None => sim.connect((req, REQUESTER_PORT), (routers[0], PORT_UPSTREAM_SLAVE)),
            Some(a) => {
                let edge = &plan.endpoints[a].parent;
                sim.connect(
                    (req, REQUESTER_PORT),
                    (routers[edge.router], port_downstream_slave(edge.pair)),
                );
            }
        }
        // Memory behind the RC: nothing in this experiment targets DRAM,
        // so any serve it records is a routing escape.
        let (mem, mem_served) = Responder::new("mem", 0);
        let mem = sim.add(Box::new(mem));
        sim.connect((routers[0], PORT_UPSTREAM_MASTER), (mem, RESPONDER_PORT));
        // A responder at every endpoint slot except the requester's.
        let mut serves: Vec<Option<ServeCount>> = Vec::new();
        for (i, ep) in plan.endpoints.iter().enumerate() {
            if Some(i) == requester {
                serves.push(None);
                continue;
            }
            let (resp, served) = Responder::new(format!("resp{i}"), 0);
            let id = sim.add(Box::new(resp));
            let edge = &ep.parent;
            sim.connect(
                (routers[edge.router], port_downstream_master(edge.pair)),
                (id, RESPONDER_PORT),
            );
            serves.push(Some(served));
        }
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let completer_serves =
            *serves[completer].as_ref().expect("completer has a responder").borrow();
        let strays: u32 = serves
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != completer)
            .filter_map(|(_, s)| s.as_ref())
            .map(|s| *s.borrow())
            .sum::<u32>()
            + *mem_served.borrow();
        let completions = done.borrow().len();
        (completions, completer_serves, strays)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the tree shape, a non-posted read from any requester
        /// (the CPU or any endpoint, including peers under different root
        /// ports) to any other endpoint's BAR reaches exactly that
        /// endpoint and yields exactly one completion back at the
        /// requester — routed by bus number, never via memory.
        #[test]
        fn every_pair_routes_one_request_and_one_completion(
            shape in proptest::collection::vec(any::<u8>(), 4..32),
        ) {
            let plan = grow_topology(shape).plan();
            let report = plan.enumerate().expect("random tree must enumerate");
            let bars: Vec<u64> = plan
                .endpoints
                .iter()
                .map(|ep| {
                    let info = report.at(ep.bdf).expect("endpoint enumerated");
                    info.bars.iter().find(|b| !b.is_io).expect("memory BAR").base
                })
                .collect();

            let mut pairs: Vec<(Option<usize>, usize)> =
                (0..bars.len()).map(|i| (None, i)).collect();
            for a in 0..bars.len() {
                for b in 0..bars.len() {
                    if a != b {
                        pairs.push((Some(a), b));
                    }
                }
            }
            for (requester, completer) in pairs {
                let (completions, serves, strays) =
                    run_pair(&plan, requester, completer, bars[completer]);
                prop_assert_eq!(completions, 1, "exactly one completion for {:?}->{}", requester, completer);
                prop_assert_eq!(serves, 1, "exactly one delivery for {:?}->{}", requester, completer);
                prop_assert_eq!(strays, 0, "no stray deliveries for {:?}->{}", requester, completer);
            }
        }
    }
}
