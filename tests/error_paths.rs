//! End-to-end error handling: CPU-side reads that hit an unmapped address
//! or a non-responding completer must come back as error completions with
//! all-ones data — never a panic or a hang — and the failure must be
//! visible in the root port's Status register and AER capability.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim::kernel::component::{Component, Event, PortId, RecvResult};
use pcisim::kernel::packet::{Command, CompletionStatus, Packet};
use pcisim::kernel::sim::{Ctx, RunOutcome};
use pcisim::kernel::tick::{ns, TICKS_PER_SEC};
use pcisim::pci::caps::aer_status;
use pcisim::pci::ecam::Bdf;
use pcisim::pci::regs::{aer, common, status};
use pcisim::system::topology::{build_topology, Topology, TopologySystem};

type Completion = (CompletionStatus, Option<Vec<u8>>);
type Seen = Rc<RefCell<Vec<Completion>>>;

/// A minimal CPU-side requester: issues one 4-byte read per target and
/// records each completion's status and payload verbatim.
struct CpuReader {
    name: String,
    targets: Vec<u64>,
    next: usize,
    seen: Seen,
}

const K_ISSUE: u32 = 0;

impl CpuReader {
    fn new(targets: Vec<u64>) -> (Self, Seen) {
        let seen: Seen = Rc::new(RefCell::new(Vec::new()));
        (Self { name: "cpu_reader".into(), targets, next: 0, seen: seen.clone() }, seen)
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let id = ctx.alloc_packet_id();
        let pkt = Packet::request(id, Command::ReadReq, self.targets[self.next], 4, ctx.self_id());
        self.next += 1;
        ctx.try_send_request(PortId(0), pkt).expect("fabric never refuses a lone read");
    }
}

impl Component for CpuReader {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_ISSUE, .. } = ev else { panic!("unexpected event") };
        self.issue(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, mut pkt: Packet) -> RecvResult {
        assert_eq!(pkt.cmd(), Command::ReadResp);
        self.seen.borrow_mut().push((pkt.status(), pkt.take_payload()));
        if self.next < self.targets.len() {
            ctx.schedule(ns(100), Event::Timer { kind: K_ISSUE, data: 0 });
        }
        RecvResult::Accepted
    }
}

/// Builds the validation system with a [`CpuReader`] attached on the CPU
/// memory port, runs it to quiescence and returns what the reader saw
/// plus the finished system for register inspection.
fn run_cpu_reads(topo: Topology, targets: Vec<u64>) -> (Vec<Completion>, TopologySystem) {
    let mut built = build_topology(topo);
    let (reader, seen) = CpuReader::new(targets);
    let id = built.sim.add(Box::new(reader));
    let cpu_mem_port = built.endpoints[0].cpu_mem_port;
    built.sim.connect((id, PortId(0)), cpu_mem_port);
    let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
    assert_eq!(outcome, RunOutcome::QueueEmpty, "system must quiesce, not hang");
    assert_eq!(built.sim.pending_events(), 0);
    let result = seen.borrow().clone();
    (result, built)
}

/// The root port 0 configuration space (the RC's requester-side registers).
fn root_port_cs(built: &TopologySystem) -> (u16, u32, u32) {
    let cs = built.registry.borrow().lookup(Bdf::new(0, 1, 0)).expect("root port 0 registered");
    let cs = cs.borrow();
    let st = cs.read(common::STATUS, 2) as u16;
    let (uncor, cor) = aer_status(&cs);
    (st, uncor, cor)
}

#[test]
fn unmapped_address_read_completes_as_unsupported_request() {
    // High in the PCI memory window: routed to the root complex by the
    // memory bus, claimed by no root port.
    let (seen, built) = run_cpu_reads(Topology::validation(), vec![0x7fff_0000]);
    assert_eq!(seen.len(), 1, "the read must complete");
    let (completion, payload) = &seen[0];
    assert_eq!(*completion, CompletionStatus::UnsupportedRequest);
    let data = payload.as_deref().expect("error completion carries all-ones data");
    assert!(data.iter().all(|&b| b == 0xff), "reads of nothing return all-ones: {data:?}");

    let (st, uncor, _cor) = root_port_cs(&built);
    assert_ne!(st & status::RECEIVED_MASTER_ABORT, 0, "Status must record the master abort");
    assert_ne!(uncor & aer::uncor::UNSUPPORTED_REQUEST, 0, "AER must log the UR");

    let stats = built.sim.stats();
    assert_eq!(stats.get("rc.unsupported_requests"), Some(1.0));
}

#[test]
fn non_responding_completer_times_out_with_all_ones() {
    // A read of the real disk BAR, but with the completion timeout set far
    // below the fabric's round-trip time: the root complex must synthesize
    // an all-ones timeout completion, then swallow the late real one.
    let mut topo = Topology::validation();
    topo.rc.completion_timeout = Some(ns(300));
    let built = build_topology(Topology::validation());
    let disk_bar = built.endpoints[0].bar0;
    drop(built);

    let (seen, built) = run_cpu_reads(topo, vec![disk_bar]);
    assert_eq!(seen.len(), 1, "the read must complete despite the silent completer");
    let (completion, payload) = &seen[0];
    assert_eq!(*completion, CompletionStatus::CompletionTimeout);
    let data = payload.as_deref().expect("timeout completion carries all-ones data");
    assert!(data.iter().all(|&b| b == 0xff), "got {data:?}");

    let (_st, uncor, _cor) = root_port_cs(&built);
    assert_ne!(uncor & aer::uncor::COMPLETION_TIMEOUT, 0, "AER must log the timeout");
    assert_ne!(
        uncor & aer::uncor::UNEXPECTED_COMPLETION,
        0,
        "the late real completion must be swallowed and logged"
    );

    let stats = built.sim.stats();
    assert_eq!(stats.get("rc.completion_timeouts"), Some(1.0));
}

#[test]
fn mixed_good_and_bad_reads_all_complete_in_order() {
    // A valid BAR read sandwiched between two unmapped ones: the good read
    // must succeed untouched while both bad ones master-abort.
    let built = build_topology(Topology::validation());
    let disk_bar = built.endpoints[0].bar0;
    drop(built);

    let (seen, built) =
        run_cpu_reads(Topology::validation(), vec![0x7ff0_0000, disk_bar, 0x7ff8_0000]);
    assert_eq!(seen.len(), 3);
    assert_eq!(seen[0].0, CompletionStatus::UnsupportedRequest);
    assert_eq!(seen[1].0, CompletionStatus::SuccessfulCompletion);
    assert_eq!(seen[2].0, CompletionStatus::UnsupportedRequest);

    let stats = built.sim.stats();
    assert_eq!(stats.get("rc.unsupported_requests"), Some(2.0));
    assert_eq!(stats.get("rc.completion_timeouts"), Some(0.0));
}

#[test]
fn errors_latch_on_the_root_port_that_carried_the_request() {
    use pcisim::system::topology::{build_topology, Topology};

    // Discover disk2's BAR (root port 2, direct attach) from a clean build.
    let built = build_topology(Topology::three_root_ports());
    let disk2_bar = built.endpoint("disk2").bar0;
    drop(built);

    // Timeout far below the fabric round trip, then: one read of disk2
    // (times out on root port 2's path), one read of nothing (unrouted
    // master abort, latched at the RC's home registers on port 0).
    let mut topo = Topology::three_root_ports();
    topo.rc.completion_timeout = Some(ns(100));
    let mut built = build_topology(topo);
    let (reader, seen) = CpuReader::new(vec![disk2_bar, 0x7fff_0000]);
    let id = built.sim.add(Box::new(reader));
    let cpu_mem_port = built.endpoints[0].cpu_mem_port;
    built.sim.connect((id, PortId(0)), cpu_mem_port);
    assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
    let seen = seen.borrow().clone();
    assert_eq!(seen.len(), 2);
    assert_eq!(seen[0].0, CompletionStatus::CompletionTimeout);
    assert_eq!(seen[1].0, CompletionStatus::UnsupportedRequest);

    let port_regs = |slot: u8| {
        let cs = built.registry.borrow().lookup(Bdf::new(0, slot, 0)).expect("root port");
        let cs = cs.borrow();
        let st = cs.read(common::STATUS, 2) as u16;
        let (uncor, _cor) = aer_status(&cs);
        (st, uncor)
    };
    // The timeout rode root port 2: it must latch there and nowhere else.
    let (_, uncor_rp2) = port_regs(3);
    assert_ne!(uncor_rp2 & aer::uncor::COMPLETION_TIMEOUT, 0, "port 2 carried the timeout");
    let (st_rp0, uncor_rp0) = port_regs(1);
    assert_eq!(
        uncor_rp0 & aer::uncor::COMPLETION_TIMEOUT,
        0,
        "port 0 must not inherit port 2's completion timeout"
    );
    // The unrouted read latches the master abort at the RC home (port 0)
    // and must not leak onto the ports that carried nothing bad.
    assert_ne!(st_rp0 & status::RECEIVED_MASTER_ABORT, 0);
    let (st_rp1, uncor_rp1) = port_regs(2);
    assert_eq!(st_rp1 & status::RECEIVED_MASTER_ABORT, 0, "idle port 1 stays clean");
    assert_eq!(uncor_rp1, 0, "idle port 1 records no uncorrectable errors");
    let (st_rp2, _) = port_regs(3);
    assert_eq!(st_rp2 & status::RECEIVED_MASTER_ABORT, 0, "port 2 saw no master abort");
}
