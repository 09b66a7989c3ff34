//! End-to-end integration: the full validation topology from enumeration
//! to `dd` completion, with conservation checks across every component.

use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::TICKS_PER_SEC;
use pcisim::pci::ecam::Bdf;
use pcisim::system::topology::{build_topology, Topology};
use pcisim::system::workload::dd::DdConfig;

const MB: u64 = 1024 * 1024;

fn run_validation_dd(
    block: u64,
) -> (pcisim::system::workload::dd::DdReport, pcisim::kernel::stats::StatsSnapshot) {
    let mut built = build_topology(Topology::validation());
    let report = built.attach_dd(0, DdConfig { block_bytes: block, ..DdConfig::default() });
    let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
    assert_eq!(outcome, RunOutcome::QueueEmpty, "system must quiesce");
    assert_eq!(built.sim.pending_events(), 0);
    let r = report.borrow().clone();
    (r, built.sim.stats())
}

#[test]
fn dd_transfers_every_byte_exactly_once() {
    let (r, stats) = run_validation_dd(2 * MB);
    assert!(r.done);
    assert_eq!(r.bytes, 2 * MB);
    // The disk DMA'd exactly the block, in 64 B TLPs.
    assert_eq!(stats.get("disk.dma_bytes"), Some((2 * MB) as f64));
    assert_eq!(stats.get("disk.dma_tlps"), Some((2 * MB / 64) as f64));
    assert_eq!(stats.get("disk.sectors"), Some((2 * MB / 4096) as f64));
}

#[test]
fn write_responses_match_write_requests_when_not_posted() {
    let (_r, stats) = run_validation_dd(MB);
    // Every DMA write is answered: the root complex forwarded as many
    // responses down as requests up (plus the dd MMIO traffic).
    let rc_req = stats.get("rc.requests").unwrap();
    let rc_resp = stats.get("rc.responses").unwrap();
    // MMIO requests are answered too, and interrupt messages are posted
    // (requests without responses): commands * 5 MMIO writes each, plus
    // one message per command.
    let commands = stats.get("dd0.commands").unwrap();
    assert_eq!(rc_req - rc_resp, commands, "only interrupt messages lack responses");
}

#[test]
fn link_accounting_is_conserved() {
    let (_r, stats) = run_validation_dd(MB);
    for link in ["root_link", "dev_link"] {
        for dir in ["up", "down"] {
            let admitted = stats.get(&format!("{link}.{dir}.tlps_admitted")).unwrap();
            let delivered = stats.get(&format!("{link}.{dir}.rx_delivered")).unwrap();
            let dropped_refused = stats.get(&format!("{link}.{dir}.rx_dropped_refused")).unwrap();
            let dropped_seq = stats.get(&format!("{link}.{dir}.rx_dropped_seq")).unwrap();
            let dropped_corrupt = stats.get(&format!("{link}.{dir}.rx_dropped_corrupt")).unwrap();
            let tx = stats.get(&format!("{link}.{dir}.tlps_tx")).unwrap();
            // Every admitted TLP is delivered exactly once...
            assert_eq!(admitted, delivered, "{link}.{dir}: TLP lost or duplicated");
            // ...and every transmission is accounted for.
            assert_eq!(
                tx,
                delivered + dropped_refused + dropped_seq + dropped_corrupt,
                "{link}.{dir}: transmissions unaccounted"
            );
        }
    }
}

#[test]
fn interrupts_fire_once_per_disk_command() {
    let (r, stats) = run_validation_dd(MB);
    assert_eq!(stats.get("gic.raised"), Some(r.commands as f64));
    assert_eq!(stats.get("gic.spurious"), Some(0.0));
    assert_eq!(stats.get("disk.irqs"), Some(r.commands as f64));
}

#[test]
fn dram_receives_every_dma_byte() {
    let (_r, stats) = run_validation_dd(MB);
    assert_eq!(stats.get("dram.writes"), Some((MB / 64) as f64));
    assert_eq!(stats.get("dram.bytes"), Some(MB as f64));
    assert_eq!(
        stats.get("iocache.accesses").unwrap(),
        (MB / 64) as f64 + stats.get("gic.raised").unwrap()
    );
}

#[test]
fn topology_matches_the_paper() {
    let built = build_topology(Topology::validation());
    // Bus plan: 0 = root bus, 1 = root port 0's secondary (switch
    // upstream), 2 = switch internal, 3/4 = downstream secondaries,
    // 5/6 = the other root ports.
    assert_eq!(built.report.bus_count, 7);
    let disk = built.report.find(0x8086, 0x2922).expect("disk enumerated");
    assert_eq!(disk.bdf, Bdf::new(3, 0, 0));
    let rp0 = built.report.find(0x8086, 0x9c90).expect("root port 0");
    assert_eq!(rp0.bus_range, Some((1, 4)));
    // The probe's negotiated link matches the configured device link
    // (Gen 2 x1 in the validation setup).
    let (gen, width) = built.probe.unwrap().link.expect("link status present");
    assert_eq!(gen, pcisim::pcie::params::Generation::Gen2);
    assert_eq!(width, 1);
}

#[test]
fn throughput_is_deterministic_across_runs() {
    let (a, stats_a) = run_validation_dd(MB);
    let (b, stats_b) = run_validation_dd(MB);
    assert_eq!(a.end, b.end, "simulated completion time must be bit-identical");
    assert_eq!(a.bytes, b.bytes);
    let keys_a: Vec<_> = stats_a.iter().collect();
    let keys_b: Vec<_> = stats_b.iter().collect();
    assert_eq!(keys_a, keys_b, "every statistic must be identical across runs");
}

#[test]
fn mmio_trace_spans_sum_to_end_to_end_latency() {
    use pcisim::kernel::tick::{ns, Tick};
    use pcisim::system::prelude::{run_traced, MmioExperiment, Stage};

    // With the CPU-side overhead zeroed, the traced custody intervals
    // must partition each read's measured end-to-end latency exactly.
    let (out, log) = run_traced(&MmioExperiment { rc_latency: ns(150), reads: 4, cpu_overhead: 0 });
    assert!(out.completed);
    assert_eq!(log.dropped, 0, "a 4-read run must fit the ring");

    let attr = log.attribution();
    assert_eq!(attr.lifecycles.len(), 4, "one lifecycle per MMIO read");
    for l in &attr.lifecycles {
        assert_eq!(
            l.per_stage.iter().sum::<Tick>(),
            l.total(),
            "per-stage spans must partition the lifecycle"
        );
    }
    let stage_sum: f64 = Stage::ALL.iter().map(|&s| attr.mean_stage_ns(s)).sum();
    assert!(
        (stage_sum - out.mean_ns).abs() < 1e-9,
        "stage means ({stage_sum} ns) must sum to the measured latency ({} ns)",
        out.mean_ns
    );
    // The root complex is crossed twice at 150 ns per crossing.
    assert!(attr.mean_stage_ns(Stage::RootComplex) >= 300.0 - 1e-9);

    // The Perfetto export of the same log stays loadable.
    let json = log.to_perfetto_json();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn tracing_disabled_leaves_no_events_and_identical_results() {
    use pcisim::kernel::tick::ns;
    use pcisim::system::prelude::{run_cold, run_traced, Experiment, MmioExperiment};

    let exp = MmioExperiment { rc_latency: ns(150), reads: 4, cpu_overhead: 0 };
    let off = run_cold(&exp);
    let (on, log) = run_traced(&exp);
    assert!(!log.events.is_empty(), "a traced run records events");
    let mut built = build_topology(exp.topology());
    exp.attach(&mut built);
    assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
    assert!(built.sim.take_trace().events.is_empty(), "no trace unless asked");
    assert_eq!(off.mean_ns, on.mean_ns, "tracing must not perturb timing");
}

#[test]
fn posted_writes_beat_non_posted() {
    use pcisim::system::experiments::{run_cold, DdExperiment};
    let run = |posted_writes: bool| {
        let out =
            run_cold(&DdExperiment { block_bytes: MB, posted_writes, ..DdExperiment::default() });
        assert!(out.completed);
        out.throughput_gbps
    };
    let nonposted = run(false);
    let posted = run(true);
    assert!(
        posted > nonposted,
        "removing the response barrier must help: posted {posted} vs non-posted {nonposted}"
    );
}

/// The MSI-X delivery path end to end: a four-queue NIC under MSI-X
/// transmits on every queue; each queue's completion raises its own
/// vector as a posted memory-write TLP whose custody — NIC, fabric,
/// interrupt controller — is visible in the trace and survives the
/// Perfetto export.
#[test]
fn msix_four_queue_doorbells_are_traced_through_the_fabric() {
    use std::collections::BTreeSet;

    use pcisim::kernel::trace::TraceKind;
    use pcisim::system::platform;
    use pcisim::system::prelude::MsixTxConfig;

    const QUEUES: u32 = 4;
    const FRAMES: u32 = 32;
    let mut built = build_topology(Topology::nic_msix(QUEUES, 0).with_tracing());
    let report =
        built.attach(0, MsixTxConfig { queues: QUEUES, frames: FRAMES, ..MsixTxConfig::default() });
    assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);

    // Every queue carried its share and every completion interrupted.
    let r = report.borrow().clone();
    assert!(r.done);
    assert_eq!(r.frames, u64::from(FRAMES));
    assert_eq!(r.per_queue_frames, vec![8, 8, 8, 8]);
    assert_eq!(r.irqs, u64::from(FRAMES), "unmoderated: one doorbell per frame");
    let stats = built.sim.stats();
    assert_eq!(stats.get("gic.raised"), Some(f64::from(FRAMES)));
    assert_eq!(stats.get("nic.msix_irqs"), Some(f64::from(FRAMES)));
    assert_eq!(stats.get("gic.spurious"), Some(0.0));

    let log = built.sim.take_trace();
    assert_eq!(log.dropped, 0, "the run must fit the trace ring");

    // One Interrupt event per doorbell, targeting all four per-queue
    // doorbell words (base vector 96, one word per vector).
    let doorbells: Vec<_> = log.events.iter().filter(|e| e.kind == TraceKind::Interrupt).collect();
    assert_eq!(doorbells.len(), FRAMES as usize);
    let addrs: BTreeSet<u64> = doorbells.iter().map(|e| e.arg).collect();
    let expected: BTreeSet<u64> =
        (0..QUEUES).map(|q| platform::INTC_BASE + (96 + u64::from(q)) * 4).collect();
    assert_eq!(addrs, expected, "each queue must raise its own vector");

    // The doorbell is a real posted write contending in the fabric: the
    // same packet appears in custody events at the NIC, the PCIe fabric
    // and finally the interrupt controller.
    let intc_id = built.endpoints[0].cpu_irq_port.0;
    let pkt = doorbells[0].packet.expect("interrupt events name their TLP");
    let custody: BTreeSet<_> =
        log.events.iter().filter(|e| e.packet == Some(pkt)).map(|e| e.component).collect();
    assert!(
        custody.len() >= 3,
        "doorbell TLP must hop through several components, saw {custody:?}"
    );
    assert!(custody.contains(&intc_id), "custody must end at the interrupt controller");

    // The Perfetto export of that log stays loadable.
    let json = log.to_perfetto_json();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

/// Per-vector moderation under load: the same four-queue run with a
/// holdoff timer takes fewer interrupts than frames, while still
/// completing every frame.
#[test]
fn msix_moderation_coalesces_under_load_end_to_end() {
    use pcisim::kernel::tick::us;
    use pcisim::system::prelude::MsixTxConfig;

    let mut built = build_topology(Topology::nic_msix(4, us(100)));
    let report = built.attach(0, MsixTxConfig { queues: 4, frames: 64, ..MsixTxConfig::default() });
    assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
    let r = report.borrow().clone();
    assert!(r.done);
    assert_eq!(r.frames, 64);
    let stats = built.sim.stats();
    assert!(r.irqs < 64, "holdoff must coalesce completions into fewer doorbells, took {}", r.irqs);
    assert_eq!(stats.get("gic.raised"), Some(r.irqs as f64));
    assert!(stats.get("nic.irqs_coalesced").unwrap() > 0.0);
}

/// A peer-to-peer read across sibling root ports: an endpoint under root
/// port 2 reads a BAR that lives under root port 1. The data must come
/// back intact without ever touching memory, and the route — both the
/// request crossing the root complex and the completion returning by bus
/// number — must be visible in the trace and survive the Perfetto export.
#[test]
fn peer_to_peer_read_across_sibling_root_ports_is_traced() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
    use pcisim::kernel::packet::{Command, Packet, PacketId};
    use pcisim::kernel::sim::{Ctx, Simulation};
    use pcisim::kernel::trace::{TraceCategory, TraceKind};
    use pcisim::pcie::router::{
        port_downstream_master, port_downstream_slave, PcieRouter, PORT_UPSTREAM_SLAVE,
    };
    use pcisim::system::topology::Topology;

    /// Issues one read and keeps the returned bytes.
    struct PeerReader {
        target: u64,
        sent: Rc<RefCell<Option<PacketId>>>,
        data: Rc<RefCell<Option<Vec<u8>>>>,
    }
    impl Component for PeerReader {
        fn name(&self) -> &str {
            "peer-reader"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
            let id = ctx.alloc_packet_id();
            let pkt = Packet::request(id, Command::ReadReq, self.target, 4, ctx.self_id());
            *self.sent.borrow_mut() = Some(id);
            ctx.try_send_request(PortId(0), pkt).expect("fabric accepts the read");
        }
        fn recv_response(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, mut pkt: Packet) -> RecvResult {
            *self.data.borrow_mut() = pkt.take_payload().map(|b| b.to_vec());
            RecvResult::Accepted
        }
    }

    /// Serves reads with a fixed recognizable pattern.
    struct PatternDevice;
    impl Component for PatternDevice {
        fn name(&self) -> &str {
            "pattern-dev"
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
            let mut data = vec![0; pkt.size() as usize];
            for (i, b) in data.iter_mut().enumerate() {
                *b = [0xa5, 0x5a, 0xc3, 0x3c][i % 4];
            }
            ctx.try_send_response(PortId(0), pkt.into_read_response(data)).unwrap();
        }
    }

    // The paper's three-root-port tree, planned and enumerated; the
    // routers are instantiated raw (no links) so the endpoint slots can
    // host the probe components.
    let plan = Topology::three_root_ports().plan();
    let report = plan.enumerate().expect("preset enumerates");
    let nic1 = plan.endpoints.iter().position(|e| e.name == "nic1").expect("nic1 planned");
    let disk2 = plan.endpoints.iter().position(|e| e.name == "disk2").expect("disk2 planned");
    let nic1_bar = report
        .at(plan.endpoints[nic1].bdf)
        .and_then(|i| i.bars.iter().find(|b| !b.is_io))
        .expect("nic1 has a memory BAR")
        .base;

    let mut sim = Simulation::new();
    sim.set_trace_mask(TraceCategory::ALL);
    let mut routers = Vec::new();
    for (i, r) in plan.routers.iter().enumerate() {
        let router = if i == 0 {
            PcieRouter::root_complex(r.name.clone(), r.config.clone(), r.downstream_vp2ps.clone())
        } else {
            PcieRouter::switch(
                r.name.clone(),
                r.config.clone(),
                r.upstream_vp2p.clone().expect("switch upstream"),
                r.downstream_vp2ps.clone(),
            )
        };
        let id = sim.add(Box::new(router));
        if let Some(edge) = &r.parent {
            let parent = routers[edge.router];
            sim.connect((parent, port_downstream_master(edge.pair)), (id, PORT_UPSTREAM_SLAVE));
            sim.connect(
                (id, pcisim::pcie::router::PORT_UPSTREAM_MASTER),
                (parent, port_downstream_slave(edge.pair)),
            );
        }
        routers.push(id);
    }
    let sent = Rc::new(RefCell::new(None));
    let data = Rc::new(RefCell::new(None));
    let reader =
        sim.add(Box::new(PeerReader { target: nic1_bar, sent: sent.clone(), data: data.clone() }));
    let dev = sim.add(Box::new(PatternDevice));
    let reader_edge = &plan.endpoints[disk2].parent;
    let dev_edge = &plan.endpoints[nic1].parent;
    sim.connect(
        (reader, PortId(0)),
        (routers[reader_edge.router], port_downstream_slave(reader_edge.pair)),
    );
    sim.connect(
        (routers[dev_edge.router], port_downstream_master(dev_edge.pair)),
        (dev, PortId(0)),
    );
    assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);

    // Correct data, end to end.
    let got = data.borrow().clone().expect("completion with data returned to the peer");
    assert_eq!(got, vec![0xa5, 0x5a, 0xc3, 0x3c], "payload must survive the crossing");

    // The crossing is visible in the trace: the root complex routed both
    // the read and its completion for exactly this packet.
    let log = sim.take_trace();
    let pkt = sent.borrow().expect("read was sent");
    let rc_routes = log
        .events
        .iter()
        .filter(|e| {
            e.component == routers[0] && e.kind == TraceKind::RouteDecision && e.packet == Some(pkt)
        })
        .count();
    assert!(rc_routes >= 2, "request and completion must both cross the RC, saw {rc_routes}");

    // And the Perfetto export of that log stays loadable and names the route.
    let json = log.to_perfetto_json();
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("route"), "route instants must survive the export");
}
