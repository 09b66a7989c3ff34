//! Whole-tree oracles: any topology, any workload mix, run serially.
//!
//! For random trees with a small workload on every endpoint, property
//! tested:
//!
//! * every workload completes;
//! * two runs of the same build land on the same quiesce tick, stats FNV
//!   fingerprint and structured trace stream;
//! * a checkpoint taken at a random mid-run tick and restored into a fresh
//!   build finishes on the uninterrupted run's quiesce tick, stats FNV,
//!   trace stream and packet-id count.
//!
//! Fixed mixed disk/NIC, CXL expander and virtio trees keep a cold ≡
//! restored check, and an event-budget stop resumes to the uninterrupted
//! run.

use proptest::prelude::*;

use pcisim::devices::cxl::CxlExpanderConfig;
use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::devices::virtio::{VirtioClass, VirtioConfig};
use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::{Tick, TICKS_PER_SEC};
use pcisim::kernel::trace::TraceLog;
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::topology::{
    build_topology, Attachment, DeviceSpec, EndpointKind, Node, Topology, TopologySystem,
};
use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};
use pcisim::system::workload::dd::DdConfig;
use pcisim::system::workload::nic_tx::NicTxConfig;
use pcisim::system::workload::virtio::VirtioAppConfig;

/// Everything a run leaves behind that a repeat or a restore must not
/// disturb.
struct RunResult {
    now: Tick,
    events: u64,
    fnv: u64,
    packet_ids: u64,
    trace: TraceLog,
    /// Per endpoint, `(done, amount)`: bytes for disks and virtio
    /// functions, frames for NICs, completed accesses for expanders.
    reports: Vec<(bool, u64)>,
}

const DD_BLOCK: u64 = 64 * 1024;
const NIC_FRAMES: u32 = 24;

/// Reads one workload's `(done, amount)` after the run.
type Report = Box<dyn Fn() -> (bool, u64)>;

/// Attaches one small workload to every endpoint, by device kind — `dd`
/// on disks, a transmit stream on NICs, a load/store stream per expander
/// (open-loop mixes alternating with pointer chases, so both datapaths
/// run), a guest driver per virtio function (a queued blk read stream and
/// a net transmit stream).
fn attach_all(sys: &mut TopologySystem) -> Vec<Report> {
    let mut expanders = 0;
    (0..sys.endpoints.len())
        .map(|i| -> Report {
            match sys.endpoints[i].kind {
                EndpointKind::Disk => {
                    let dd = DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() };
                    let r = sys.attach_dd(i, dd);
                    Box::new(move || (r.borrow().done, r.borrow().bytes))
                }
                EndpointKind::Nic => {
                    let tx = NicTxConfig { frames: NIC_FRAMES, ..NicTxConfig::default() };
                    let r = sys.attach(i, tx);
                    Box::new(move || (r.borrow().done, r.borrow().frames))
                }
                EndpointKind::CxlExpander => {
                    expanders += 1;
                    let host = if expanders % 2 == 1 {
                        CxlHostConfig {
                            mode: CxlHostMode::OpenLoop,
                            requests: 48,
                            write_every: 3,
                            ..CxlHostConfig::default()
                        }
                    } else {
                        CxlHostConfig {
                            mode: CxlHostMode::PointerChase,
                            requests: 40,
                            chain_blocks: 16,
                            ..CxlHostConfig::default()
                        }
                    };
                    let r = sys.attach_cxl_host(i, host);
                    Box::new(move || (r.borrow().done, r.borrow().completed))
                }
                kind @ (EndpointKind::VirtioBlk | EndpointKind::VirtioNet) => {
                    let app = if kind == EndpointKind::VirtioBlk {
                        VirtioAppConfig { requests: 24, queue_depth: 2, ..Default::default() }
                    } else {
                        VirtioAppConfig {
                            requests: 24,
                            queue_depth: 4,
                            request_bytes: 1514,
                            ..Default::default()
                        }
                    };
                    let r = sys.attach_virtio(i, app);
                    Box::new(move || (r.borrow().done, r.borrow().bytes))
                }
            }
        })
        .collect()
}

/// `topo` built with tracing on and every workload attached.
fn build(topo: &Topology) -> (TopologySystem, Vec<Report>) {
    let mut sys = build_topology(topo.clone().with_tracing());
    let reports = attach_all(&mut sys);
    (sys, reports)
}

/// Runs `sys` to quiesce and collects what it left behind.
fn finish(mut sys: TopologySystem, reports: &[Report]) -> RunResult {
    assert_eq!(sys.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty, "run must drain");
    RunResult {
        now: sys.sim.now(),
        events: sys.sim.events_processed(),
        fnv: sys.sim.stats().fnv(),
        packet_ids: sys.sim.packet_ids_allocated(),
        trace: sys.sim.take_trace(),
        reports: reports.iter().map(|r| r()).collect(),
    }
}

fn cold_run(topo: &Topology) -> RunResult {
    let (sys, reports) = build(topo);
    finish(sys, &reports)
}

/// `topo` run to `tick`, checkpointed, restored into a fresh build and run
/// to quiesce there.
fn restored_run(topo: &Topology, tick: Tick) -> RunResult {
    let (mut paused, _) = build(topo);
    paused.sim.run(tick, u64::MAX);
    let snapshot = paused.sim.checkpoint();
    let (mut sys, reports) = build(topo);
    sys.sim.restore(&snapshot).expect("a checkpoint restores into a fresh build of its tree");
    finish(sys, &reports)
}

fn assert_identical(expected: &RunResult, got: &RunResult, what: &str) {
    assert_eq!(expected.now, got.now, "{what}: quiesce tick");
    assert_eq!(expected.events, got.events, "{what}: events processed");
    assert_eq!(expected.fnv, got.fnv, "{what}: stats FNV");
    assert_eq!(expected.packet_ids, got.packet_ids, "{what}: packet ids allocated");
    assert_eq!(expected.reports, got.reports, "{what}: workload reports");
    assert_eq!(expected.trace.dropped, got.trace.dropped, "{what}: trace drops");
    assert_eq!(expected.trace.events, got.trace.events, "{what}: trace stream");
}

/// The cold run of `topo`, after checking its workloads all ran, and the
/// same run restored from a checkpoint halfway to its quiesce tick.
fn tree_restores_to_the_cold_run(topo: Topology, what: &str) {
    let cold = cold_run(&topo);
    assert!(cold.reports.iter().all(|&(done, n)| done && n > 0), "{what}: every stream finishes");
    let restored = restored_run(&topo, cold.now / 2);
    assert_identical(&cold, &restored, &format!("{what} restored at {}", cold.now / 2));
}

/// A fixed mixed tree: one disk chain, one switch fanning out to a disk
/// and a NIC, and a directly attached NIC on the third root port.
fn mixed_tree() -> Topology {
    let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
    let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
    let endpoint = |name: &str, device| Some(Attachment::new(x1(), Node::endpoint(name, device)));
    let chain = Node::switch(
        RouterConfig::default(),
        vec![endpoint("disk_chain", DeviceSpec::Disk(IdeDiskConfig::default()))],
    );
    let fan = Node::switch(
        RouterConfig::default(),
        vec![
            endpoint("disk_fan", DeviceSpec::Disk(IdeDiskConfig::default())),
            endpoint("nic_fan", DeviceSpec::Nic(NicConfig::default())),
        ],
    );
    Topology::new(
        RouterConfig::default(),
        vec![
            Some(Attachment::new(x4(), chain)),
            Some(Attachment::new(x4(), fan)),
            Some(Attachment::new(
                x4(),
                Node::endpoint("nic_root", DeviceSpec::Nic(NicConfig::default())),
            )),
        ],
    )
}

#[test]
fn mixed_tree_restores_to_the_cold_run() {
    tree_restores_to_the_cold_run(mixed_tree(), "mixed tree");
}

/// Two expanders: `mem0` shares a switch with a disk on the first root
/// port, `mem1` hangs directly off the third.
#[test]
fn cxl_tree_restores_to_the_cold_run() {
    let x4 = || LinkConfig::new(Generation::Gen3, LinkWidth::X4);
    let endpoint = |name: &str, device| Some(Attachment::new(x4(), Node::endpoint(name, device)));
    let fan = Node::switch(
        RouterConfig::default(),
        vec![
            endpoint("mem0", DeviceSpec::CxlExpander(CxlExpanderConfig::default())),
            endpoint("disk_fan", DeviceSpec::Disk(IdeDiskConfig::default())),
        ],
    );
    let topo = Topology::new(
        RouterConfig::default(),
        vec![
            Some(Attachment::new(x4(), fan)),
            endpoint("disk_root", DeviceSpec::Disk(IdeDiskConfig::default())),
            endpoint("mem1", DeviceSpec::CxlExpander(CxlExpanderConfig::default())),
        ],
    );
    tree_restores_to_the_cold_run(topo, "cxl tree");
}

/// The virtio preset tree: `vblk0` and `vnet0` share a switch on the
/// first root port, the IDE disk hangs off the second.
#[test]
fn virtio_tree_restores_to_the_cold_run() {
    let net = VirtioConfig { class: VirtioClass::Net, ..VirtioConfig::default() };
    tree_restores_to_the_cold_run(
        Topology::virtio_mixed(VirtioConfig::default(), net),
        "virtio tree",
    );
}

/// Two runs of the same build agree byte for byte: mid-run checkpoint,
/// final checkpoint and trace stream.
#[test]
fn the_same_build_run_twice_is_byte_identical() {
    let mid = cold_run(&mixed_tree()).now / 2;
    let run = || {
        let (mut sys, _) = build(&mixed_tree());
        sys.sim.run(mid, u64::MAX);
        let paused = sys.sim.checkpoint();
        sys.sim.run(TICKS_PER_SEC, u64::MAX);
        let finished = sys.sim.checkpoint();
        (paused, finished, sys.sim.take_trace())
    };
    let (first, second) = (run(), run());
    assert!(first.0 == second.0, "mid-run checkpoints differ");
    assert!(first.1 == second.1, "final checkpoints differ");
    assert_eq!(first.2.dropped, second.2.dropped, "trace drops");
    assert_eq!(first.2.events, second.2.events, "trace stream");
}

/// A run stopped by its event budget resumes to the uninterrupted run:
/// quiesce tick, events, stats, trace.
#[test]
fn an_event_budget_stop_resumes_to_the_uninterrupted_run() {
    let cold = cold_run(&mixed_tree());
    let budget = cold.events / 3;
    let (mut sys, reports) = build(&mixed_tree());
    assert_eq!(sys.sim.run(TICKS_PER_SEC, budget), RunOutcome::EventLimit);
    assert_eq!(sys.sim.events_processed(), budget);
    assert_identical(&cold, &finish(sys, &reports), "resumed after the budget stop");
}

/// Derives a link configuration from one generator byte.
fn link_for(b: u8) -> LinkConfig {
    let gens = [Generation::Gen1, Generation::Gen2, Generation::Gen3];
    let widths = [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8];
    LinkConfig::new(gens[(b >> 2) as usize % gens.len()], widths[(b >> 4) as usize % widths.len()])
}

/// Consumes generator bytes to build one port: empty, an endpoint, or
/// (while depth remains) a switch with 1–2 ports.
fn grow_port(
    bytes: &mut std::iter::Copied<std::slice::Iter<'_, u8>>,
    depth: usize,
    count: &mut usize,
) -> Option<Attachment> {
    let b = bytes.next().unwrap_or(1);
    match b % 4 {
        0 => None,
        3 if depth > 0 => {
            let fanout = 1 + (bytes.next().unwrap_or(0) % 2) as usize;
            let ports = (0..fanout).map(|_| grow_port(bytes, depth - 1, count)).collect();
            Some(Attachment::new(link_for(b), Node::switch(RouterConfig::default(), ports)))
        }
        _ => {
            *count += 1;
            let device = if b & 0x10 == 0 {
                DeviceSpec::Disk(IdeDiskConfig::default())
            } else {
                DeviceSpec::Nic(NicConfig::default())
            };
            Some(Attachment::new(link_for(b), Node::endpoint(format!("ep{count}"), device)))
        }
    }
}

/// A bounded random topology: up to two root ports, switches nested at
/// most two levels deep, at least one endpoint.
fn grow_topology(shape: &[u8]) -> Topology {
    let mut bytes = shape.iter().copied();
    let n_roots = 1 + (bytes.next().unwrap_or(0) % 2) as usize;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any tree, any dd/NIC workload mix: every stream completes, a
    /// second run repeats the first exactly, and a checkpoint at a random
    /// mid-run tick restores to the uninterrupted run.
    #[test]
    fn random_trees_complete_repeat_and_restore(
        shape in proptest::collection::vec(any::<u8>(), 4..16),
        cut_permille in 1u64..1000,
    ) {
        let topo = grow_topology(&shape);
        let cold = cold_run(&topo);
        prop_assert!(
            cold.reports.iter().all(|&(done, n)| done && n > 0),
            "{:?}: every stream finishes: {:?}", shape, cold.reports
        );
        assert_identical(&cold, &cold_run(&topo), &format!("{shape:?} run twice"));
        let tick = cold.now / 1000 * cut_permille;
        assert_identical(&cold, &restored_run(&topo, tick), &format!("{shape:?} restored at {tick}"));
    }
}
