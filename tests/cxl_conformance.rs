//! Conformance suite for the CXL.mem memory-expander endpoint.
//!
//! Random trees carrying 1–4 expanders — directly attached, behind
//! switches, mixed with disks and NICs — are planned, enumerated and run,
//! then checked against the contracts the host memory path relies on:
//!
//! * every HDM decoder window is non-empty, 64-byte aligned, sits inside
//!   the platform's HDM region, matches what was programmed through the
//!   expander's config space, and is disjoint from every BAR and every
//!   other HDM window;
//! * every host load/store aimed at a mapped HDM address gets exactly one
//!   successful completion, and pointer chases read back the data their
//!   setup phase wrote;
//! * CXL.mem accesses outside every HDM window take the UR/master-abort
//!   path — one error completion each, all-ones read data, no hangs;
//! * read-your-write ordering holds per address while many write→read
//!   pairs are in flight concurrently.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use pcisim::devices::cxl::{hdm_window, CxlExpanderConfig};
use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::kernel::addr::AddrRange;
use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
use pcisim::kernel::packet::{Command, CompletionStatus, Packet};
use pcisim::kernel::sim::{Ctx, RunOutcome};
use pcisim::kernel::tick::{ns, TICKS_PER_SEC};
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::platform;
use pcisim::system::topology::{
    build_topology, Attachment, DeviceSpec, EndpointKind, Node, Topology,
};
use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};

/// The spec caps HDM windows: the platform region holds four.
const MAX_EXPANDERS: usize = 4;

/// Derives a link configuration from one generator byte.
fn link_for(b: u8) -> LinkConfig {
    let gens = [Generation::Gen1, Generation::Gen2, Generation::Gen3];
    let widths = [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8];
    LinkConfig::new(gens[(b >> 2) as usize % gens.len()], widths[(b >> 4) as usize % widths.len()])
}

/// Consumes generator bytes to build one port attachment: empty, an
/// endpoint (expander while the HDM budget lasts, else disk or NIC), or
/// (while depth remains) a switch with 1–2 ports.
fn grow_port(
    bytes: &mut std::iter::Copied<std::slice::Iter<'_, u8>>,
    depth: usize,
    count: &mut usize,
    expanders: &mut usize,
) -> Option<Attachment> {
    let b = bytes.next().unwrap_or(1);
    match b % 4 {
        0 => None,
        3 if depth > 0 => {
            let fanout = 1 + (bytes.next().unwrap_or(0) % 2) as usize;
            let ports =
                (0..fanout).map(|_| grow_port(bytes, depth - 1, count, expanders)).collect();
            Some(Attachment::new(link_for(b), Node::switch(RouterConfig::default(), ports)))
        }
        _ => {
            *count += 1;
            let device = match b & 0x30 {
                0x00 | 0x10 if *expanders < MAX_EXPANDERS => {
                    *expanders += 1;
                    DeviceSpec::CxlExpander(CxlExpanderConfig::default())
                }
                0x20 => DeviceSpec::Disk(IdeDiskConfig::default()),
                _ => DeviceSpec::Nic(NicConfig::default()),
            };
            Some(Attachment::new(link_for(b), Node::endpoint(format!("ep{count}"), device)))
        }
    }
}

/// A bounded random topology guaranteed to hold at least one expander:
/// up to three root ports, switches nested at most two levels deep.
fn grow_cxl_topology(shape: &[u8]) -> Topology {
    let mut bytes = shape.iter().copied();
    let n_roots = 1 + (bytes.next().unwrap_or(0) % 3) as usize;
    let mut count = 0usize;
    let mut expanders = 0usize;
    let mut roots: Vec<Option<Attachment>> =
        (0..n_roots).map(|_| grow_port(&mut bytes, 2, &mut count, &mut expanders)).collect();
    if expanders == 0 {
        roots[0] = Some(Attachment::new(
            LinkConfig::new(Generation::Gen3, LinkWidth::X8),
            Node::endpoint("mem_seed", DeviceSpec::CxlExpander(CxlExpanderConfig::default())),
        ));
    }
    Topology::new(RouterConfig::default(), roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// HDM decoder windows are non-empty, aligned, inside the platform
    /// HDM region, disjoint from every BAR and from each other — and the
    /// window the planner assigned is exactly what the expander's config
    /// space decodes back.
    #[test]
    fn hdm_windows_are_programmed_disjoint_from_all_bars(
        shape in proptest::collection::vec(any::<u8>(), 4..32),
    ) {
        let plan = grow_cxl_topology(&shape).plan();
        let report = plan.enumerate().expect("random cxl tree must enumerate");

        let expanders =
            || plan.endpoints.iter().filter(|e| e.kind == EndpointKind::CxlExpander);
        let windows: Vec<AddrRange> = expanders().map(|e| e.hdm).collect();
        prop_assert!(!windows.is_empty(), "generator must place at least one expander");
        let region = platform::cxl_hdm_range();
        for ep in expanders() {
            let w = ep.hdm;
            prop_assert!(!w.is_empty(), "HDM window must be non-empty");
            prop_assert_eq!(w.start() % 64, 0, "HDM base must be 64-byte aligned");
            prop_assert_eq!(w.size() % 64, 0, "HDM size must be 64-byte aligned");
            prop_assert!(
                region.contains(w.start()) && region.contains(w.end() - 1),
                "window {w:?} must sit inside the platform HDM region {region:?}"
            );
            // The decoder registers agree with the plan.
            prop_assert_eq!(
                hdm_window(&ep.config_space.borrow()),
                w,
                "config space must decode the programmed window"
            );
        }
        for (i, a) in windows.iter().enumerate() {
            for b in windows.iter().skip(i + 1) {
                prop_assert!(!a.overlaps(b), "HDM windows overlap: {a:?} vs {b:?}");
            }
        }
        // No BAR of any enumerated function may intersect an HDM window.
        for d in report.endpoints().chain(report.bridges()) {
            for bar in &d.bars {
                let bar_range = AddrRange::with_size(bar.base, bar.size);
                for w in &windows {
                    prop_assert!(
                        !w.overlaps(&bar_range),
                        "HDM window {w:?} overlaps BAR {bar_range:?} of {}",
                        d.bdf
                    );
                }
            }
        }
    }
}

proptest! {
    // Full builds (enumeration + driver probe + a workload run) are
    // heavier than planning, so this property takes fewer cases; together
    // with the window property above the suite still crosses 128 random
    // expander topologies.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every host access aimed at a mapped HDM address completes exactly
    /// once: issued == completed == requested, every stream reports done,
    /// and the run drains. Streams alternate between open-loop load/store
    /// mixes and pointer chases (which verify written-back data on every
    /// hop by construction).
    #[test]
    fn every_mapped_access_completes_exactly_once(
        shape in proptest::collection::vec(any::<u8>(), 4..32),
        flavor in any::<u8>(),
    ) {
        let mut sys = build_topology(grow_cxl_topology(&shape));
        let mut reports = Vec::new();
        let mut requested = Vec::new();
        for i in sys.endpoints_of(EndpointKind::CxlExpander) {
            let chase = (flavor.wrapping_add(i as u8)) & 1 == 1;
            let config = if chase {
                CxlHostConfig {
                    mode: CxlHostMode::PointerChase,
                    requests: 24,
                    chain_blocks: 16,
                    ..CxlHostConfig::default()
                }
            } else {
                CxlHostConfig {
                    mode: CxlHostMode::OpenLoop,
                    requests: 24,
                    write_every: 3,
                    ..CxlHostConfig::default()
                }
            };
            requested.push(config.requests);
            reports.push(sys.attach_cxl_host(i, config));
        }
        prop_assert!(!reports.is_empty());
        let outcome = sys.sim.run(TICKS_PER_SEC, u64::MAX);
        prop_assert_eq!(outcome, RunOutcome::QueueEmpty, "the run must drain, not hang");
        for (report, want) in reports.iter().zip(requested) {
            let r = report.borrow();
            prop_assert!(r.done, "stream must finish: {r:?}");
            prop_assert_eq!(r.issued, u64::from(want), "every access must be issued");
            prop_assert_eq!(r.completed, u64::from(want), "exactly one completion per access");
        }
    }
}

// --- The UR/master-abort path ----------------------------------------------

type Completion = (Command, CompletionStatus, Option<Vec<u8>>);
type Seen = Rc<RefCell<Vec<Completion>>>;

/// A raw CXL.mem requester: issues one fixed-size access per target and
/// records each completion verbatim.
struct RawCxlStream {
    name: String,
    targets: Vec<(Command, u64)>,
    next: usize,
    seen: Seen,
}

const K_ISSUE: u32 = 0;

impl RawCxlStream {
    fn new(targets: Vec<(Command, u64)>) -> (Self, Seen) {
        let seen: Seen = Rc::new(RefCell::new(Vec::new()));
        (Self { name: "raw_cxl".into(), targets, next: 0, seen: seen.clone() }, seen)
    }
}

impl Component for RawCxlStream {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_ISSUE, .. } = ev else { panic!("unexpected event") };
        let (cmd, addr) = self.targets[self.next];
        self.next += 1;
        let mut pkt = Packet::request(ctx.alloc_packet_id(), cmd, addr, 64, ctx.self_id());
        if cmd == Command::CxlMemWr {
            pkt = pkt.with_payload(vec![0xa5; 64]);
        }
        ctx.try_send_request(PortId(0), pkt).expect("a lone access is never refused");
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, mut pkt: Packet) -> RecvResult {
        self.seen.borrow_mut().push((pkt.cmd(), pkt.status(), pkt.take_payload()));
        if self.next < self.targets.len() {
            ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
        }
        RecvResult::Accepted
    }
}

/// CXL.mem accesses outside every HDM window — addresses in the HDM
/// region with no expander mapped there — take the master-abort path:
/// exactly one UR completion each (all-ones data for loads), the system
/// quiesces, and nothing ever reaches the expander. A good load
/// sandwiched between the bad ones still completes successfully.
#[test]
fn unmapped_hdm_accesses_master_abort_without_hanging() {
    for topo in [
        Topology::cxl_direct(CxlExpanderConfig::default()),
        Topology::cxl_behind_switch(CxlExpanderConfig::default()),
    ] {
        let mut built = build_topology(topo);
        let mapped = built.endpoints[0].hdm;
        let unmapped = [platform::cxl_hdm_window(2).start(), platform::cxl_hdm_window(3).start()];
        let (stream, seen) = RawCxlStream::new(vec![
            (Command::CxlMemRd, unmapped[0]),
            (Command::CxlMemRd, mapped.start()),
            (Command::CxlMemWr, unmapped[1]),
        ]);
        let id = built.sim.add(Box::new(stream));
        let cpu_port = built.endpoints[0].cpu_mem_port;
        built.sim.connect((id, PortId(0)), cpu_port);
        let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
        assert_eq!(outcome, RunOutcome::QueueEmpty, "the UR path must quiesce, not hang");

        let seen = seen.borrow().clone();
        assert_eq!(seen.len(), 3, "every access takes exactly one completion");
        let (cmd, status, payload) = &seen[0];
        assert_eq!(*cmd, Command::CxlMemDrs);
        assert_eq!(*status, CompletionStatus::UnsupportedRequest);
        let data = payload.as_deref().expect("UR read completion carries all-ones data");
        assert!(data.iter().all(|&b| b == 0xff), "got {data:?}");
        let (cmd, status, _) = &seen[1];
        assert_eq!(*cmd, Command::CxlMemDrs);
        assert_eq!(*status, CompletionStatus::SuccessfulCompletion, "the mapped load still works");
        let (cmd, status, payload) = &seen[2];
        assert_eq!(*cmd, Command::CxlMemNdr);
        assert_eq!(*status, CompletionStatus::UnsupportedRequest);
        assert!(payload.is_none(), "NDR completions carry no data");

        let stats = built.sim.stats();
        assert_eq!(stats.get("rc.unsupported_requests"), Some(2.0));
        assert_eq!(stats.get("mem0.reads"), Some(1.0), "only the mapped load reaches the device");
        assert_eq!(stats.get("mem0.writes"), Some(0.0));
    }
}

// --- Read-your-write under concurrent streams ------------------------------

/// Issues `pairs` write→read pairs, each pair back-to-back at a distinct
/// address, without waiting for completions (many pairs are in flight at
/// once), and verifies every read observes its own write's data.
struct WriteReadRacer {
    name: String,
    window: AddrRange,
    pairs: u32,
    issued: u32,
    verified: Rc<RefCell<u32>>,
}

impl WriteReadRacer {
    fn new(name: String, window: AddrRange, pairs: u32) -> (Self, Rc<RefCell<u32>>) {
        let verified = Rc::new(RefCell::new(0));
        (Self { name, window, pairs, issued: 0, verified: verified.clone() }, verified)
    }

    fn pattern(&self, k: u32) -> u8 {
        (k as u8) ^ 0x5a
    }
}

impl Component for WriteReadRacer {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_ISSUE, .. } = ev else { panic!("unexpected event") };
        let k = self.issued;
        self.issued += 1;
        let addr = self.window.start() + u64::from(k) * 64;
        let wr = Packet::request(ctx.alloc_packet_id(), Command::CxlMemWr, addr, 64, ctx.self_id())
            .with_payload(vec![self.pattern(k); 64]);
        ctx.try_send_request(PortId(0), wr).expect("racer stays under the port budget");
        let rd = Packet::request(ctx.alloc_packet_id(), Command::CxlMemRd, addr, 64, ctx.self_id());
        ctx.try_send_request(PortId(0), rd).expect("racer stays under the port budget");
        if self.issued < self.pairs {
            // Well under the fabric round trip: several pairs in flight.
            ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
        }
    }

    fn recv_response(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, mut pkt: Packet) -> RecvResult {
        assert_eq!(pkt.status(), CompletionStatus::SuccessfulCompletion, "{pkt:?}");
        if pkt.cmd() == Command::CxlMemDrs {
            let k = ((pkt.addr() - self.window.start()) / 64) as u32;
            let data = pkt.take_payload().expect("DRS carries data");
            assert!(
                data.iter().all(|&b| b == self.pattern(k)),
                "{}: read at {:#x} must observe its own write, got {:#x?}",
                self.name,
                pkt.addr(),
                &data[..4]
            );
            *self.verified.borrow_mut() += 1;
        }
        RecvResult::Accepted
    }
}

/// Read-your-write ordering per address: two concurrent streams (one per
/// interleaved expander) each keep several write→read pairs in flight;
/// every read comes back with the data its paired write carried.
#[test]
fn read_your_write_holds_per_address_under_concurrent_streams() {
    const PAIRS: u32 = 16;
    let mut built = build_topology(Topology::cxl_interleaved(2, CxlExpanderConfig::default()));
    let mut handles = Vec::new();
    for i in 0..built.endpoints.len() {
        let ep = &built.endpoints[i];
        assert_eq!(ep.kind, EndpointKind::CxlExpander);
        let (racer, verified) = WriteReadRacer::new(format!("racer{i}"), ep.hdm, PAIRS);
        let id = built.sim.add(Box::new(racer));
        let port = ep.cpu_mem_port;
        built.sim.connect((id, PortId(0)), port);
        handles.push(verified);
    }
    let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    for (i, verified) in handles.iter().enumerate() {
        assert_eq!(*verified.borrow(), PAIRS, "stream {i} must verify every pair");
    }
    let stats = built.sim.stats();
    for name in ["mem0", "mem1"] {
        assert_eq!(stats.get(&format!("{name}.reads")), Some(f64::from(PAIRS)));
        assert_eq!(stats.get(&format!("{name}.writes")), Some(f64::from(PAIRS)));
    }
}
