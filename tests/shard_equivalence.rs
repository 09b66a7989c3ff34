//! Equivalence suite for the sharded parallel simulation kernel.
//!
//! The tentpole contract of `kernel::shard` is *bit-identity*: a run
//! partitioned across N worker shards (conservative link-lookahead sync,
//! deterministic mailbox drains at barrier ticks) must reproduce the
//! serial run's quiesce tick, stats FNV fingerprint and structured trace
//! stream exactly — for any topology, any shard count and any workload
//! mix. This suite checks that promise three ways:
//!
//! * fixed mixed disk/NIC trees at 1, 2 and 4 shards (CI also runs this
//!   suite pinned to one core);
//! * random trees × random shard counts (1..=8) × dd/NIC-transmit
//!   workloads, property-tested;
//! * a mid-run checkpoint taken from a sharded run at a barrier tick,
//!   restored under *different* shard counts, finishing bit-identical to
//!   the uninterrupted serial run.

use proptest::prelude::*;

use pcisim::devices::cxl::CxlExpanderConfig;
use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::devices::virtio::{VirtioClass, VirtioConfig};
use pcisim::kernel::shard::ShardedSimulator;
use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::TICKS_PER_SEC;
use pcisim::kernel::trace::TraceLog;
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::experiments::{execute, Exec, Experiment, MsixTxExperiment};
use pcisim::system::topology::{
    build_topology, build_topology_sharded, Attachment, Backend, DeviceSpec, EndpointKind, Node,
    System, Topology,
};
use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};
use pcisim::system::workload::dd::DdConfig;
use pcisim::system::workload::nic_tx::NicTxConfig;
use pcisim::system::workload::virtio::VirtioAppConfig;

/// Everything a run leaves behind that sharding must not disturb.
struct RunResult {
    now: u64,
    events: u64,
    fnv: u64,
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
/// cross a cut), a guest driver per virtio function (a queued blk read
/// stream and a net transmit stream). One body serves both backends.
fn attach_all<B: Backend>(sys: &mut System<B>) -> Vec<Report> {
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
                    let r = sys.attach_nic_tx(i, tx);
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

fn serial_run(topo: Topology) -> RunResult {
    let mut sys = build_topology(topo.with_tracing());
    let reports = attach_all(&mut sys);
    sys.sim.run(TICKS_PER_SEC, u64::MAX);
    RunResult {
        now: sys.sim.now(),
        events: sys.sim.events_processed(),
        fnv: sys.sim.stats().fnv(),
        trace: sys.sim.take_trace(),
        reports: reports.iter().map(|r| r()).collect(),
    }
}

/// `topo` on `shards` shards with every workload attached and tracing
/// on, sealed into a driver.
fn sharded_driver(topo: Topology, shards: usize) -> (ShardedSimulator, Vec<Report>) {
    let mut sys = build_topology_sharded(topo.with_tracing(), shards);
    let reports = attach_all(&mut sys);
    (sys.into_driver(), reports)
}

fn sharded_run(topo: Topology, shards: usize) -> RunResult {
    let (mut driver, reports) = sharded_driver(topo, shards);
    driver.run(TICKS_PER_SEC, u64::MAX);
    RunResult {
        now: driver.now(),
        events: driver.events_processed(),
        fnv: driver.stats().fnv(),
        trace: driver.take_trace(),
        reports: reports.iter().map(|r| r()).collect(),
    }
}

/// The serial run of `topo`, checked bit-identical to its `shards`-way
/// partition — after checking the workloads actually ran.
fn tree_at(topo: Topology, shards: usize, what: &str) {
    let serial = serial_run(topo.clone());
    assert!(serial.reports.iter().all(|&(done, n)| done && n > 0), "{what}: every stream finishes");
    let sharded = sharded_run(topo, shards);
    assert_bit_identical(&serial, &sharded, &format!("{what} at {shards} shards"));
}

fn assert_bit_identical(serial: &RunResult, sharded: &RunResult, what: &str) {
    assert_eq!(serial.now, sharded.now, "{what}: quiesce tick");
    assert_eq!(serial.events, sharded.events, "{what}: events processed");
    assert_eq!(serial.fnv, sharded.fnv, "{what}: stats FNV");
    assert_eq!(serial.reports, sharded.reports, "{what}: workload reports");
    assert_eq!(serial.trace.dropped, sharded.trace.dropped, "{what}: trace drops");
    assert_eq!(serial.trace.events, sharded.trace.events, "{what}: trace stream");
}

/// A fixed mixed tree: one disk chain, one switch fanning out to a disk
/// and a NIC, and a directly attached NIC on the third root port.
fn mixed_tree() -> Topology {
    let x1 = || LinkConfig::new(Generation::Gen2, LinkWidth::X1);
    let x4 = || LinkConfig::new(Generation::Gen2, LinkWidth::X4);
    let chain = Node::Switch {
        config: RouterConfig::default(),
        name: None,
        ports: vec![Some(Attachment::new(
            x1(),
            Node::endpoint("disk_chain", DeviceSpec::Disk(IdeDiskConfig::default())),
        ))],
    };
    let fan = Node::Switch {
        config: RouterConfig::default(),
        name: None,
        ports: vec![
            Some(Attachment::new(
                x1(),
                Node::endpoint("disk_fan", DeviceSpec::Disk(IdeDiskConfig::default())),
            )),
            Some(Attachment::new(
                x1(),
                Node::endpoint("nic_fan", DeviceSpec::Nic(NicConfig::default())),
            )),
        ],
    };
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

fn mixed_tree_at(shards: usize) {
    tree_at(mixed_tree(), shards, "mixed tree");
}

#[test]
fn mixed_tree_at_one_shard() {
    mixed_tree_at(1);
}

#[test]
fn mixed_tree_at_two_shards() {
    mixed_tree_at(2);
}

#[test]
fn mixed_tree_at_four_shards() {
    mixed_tree_at(4);
}

// --- CXL.mem expanders across shard cuts -----------------------------------

/// A mixed tree with two expanders: `mem0` shares a switch with a disk
/// on the first root port (the partitioner keeps it with the host shard
/// or cuts the switch link, depending on the shard count), `mem1` hangs
/// directly off the third root port (cut from the host at 2+ shards).
fn cxl_mixed_tree() -> Topology {
    let x4 = || LinkConfig::new(Generation::Gen3, LinkWidth::X4);
    let fan = Node::Switch {
        config: RouterConfig::default(),
        name: None,
        ports: vec![
            Some(Attachment::new(
                x4(),
                Node::endpoint("mem0", DeviceSpec::CxlExpander(CxlExpanderConfig::default())),
            )),
            Some(Attachment::new(
                x4(),
                Node::endpoint("disk_fan", DeviceSpec::Disk(IdeDiskConfig::default())),
            )),
        ],
    };
    Topology::new(
        RouterConfig::default(),
        vec![
            Some(Attachment::new(x4(), fan)),
            Some(Attachment::new(
                x4(),
                Node::endpoint("disk_root", DeviceSpec::Disk(IdeDiskConfig::default())),
            )),
            Some(Attachment::new(
                x4(),
                Node::endpoint("mem1", DeviceSpec::CxlExpander(CxlExpanderConfig::default())),
            )),
        ],
    )
}

fn cxl_tree_at(shards: usize) {
    tree_at(cxl_mixed_tree(), shards, "cxl tree");
}

/// Expander streams with the host on the same shard: 1-way partition.
#[test]
fn cxl_tree_at_one_shard() {
    cxl_tree_at(1);
}

/// CXL.mem requests and completions cross a cut root-port link.
#[test]
fn cxl_tree_at_two_shards() {
    cxl_tree_at(2);
}

/// Both expanders land away from the host shard; the switch fan-out is
/// cut too.
#[test]
fn cxl_tree_at_four_shards() {
    cxl_tree_at(4);
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

    /// Any tree, any shard count, any workload mix: the sharded run is
    /// bit-identical to the serial run.
    #[test]
    fn random_trees_match_serial_at_any_shard_count(
        shape in proptest::collection::vec(any::<u8>(), 4..16),
        shards in 1usize..9,
    ) {
        let serial = serial_run(grow_topology(&shape));
        let sharded = sharded_run(grow_topology(&shape), shards);
        assert_bit_identical(&serial, &sharded, &format!("{shape:?} at {shards} shards"));
    }
}

/// A sharded run paused at a barrier tick checkpoints; the checkpoint
/// restores under a *different* shard count and finishes bit-identical
/// to the uninterrupted serial run.
#[test]
fn mid_run_checkpoint_restores_under_a_different_shard_count() {
    let serial = serial_run(mixed_tree());
    let mid = serial.now / 2;

    // Pause a 3-shard run mid-flight and checkpoint at the barrier.
    let mut paused = mixed_driver(3);
    paused.run(mid, u64::MAX);
    let snapshot = paused.checkpoint();

    for other in [1usize, 2, 5] {
        // Rebuild the same tree partitioned differently, restore, resume.
        let (mut driver, reports) = sharded_driver(mixed_tree(), other);
        driver.restore(&snapshot).expect("checkpoint restores under any shard count");
        driver.run(TICKS_PER_SEC, u64::MAX);
        assert_eq!(driver.now(), serial.now, "restored at {other} shards: quiesce tick");
        assert_eq!(driver.events_processed(), serial.events, "restored at {other} shards: events");
        assert_eq!(driver.stats().fnv(), serial.fnv, "restored at {other} shards: stats FNV");
        let reports: Vec<_> = reports.iter().map(|r| r()).collect();
        assert_eq!(reports, serial.reports, "restored at {other} shards: workload reports");
    }
}

fn mixed_driver(shards: usize) -> ShardedSimulator {
    sharded_driver(mixed_tree(), shards).0
}

/// Equality with the serial run leaves one thing unchecked: that the
/// threads' interleaving cannot leak into the state at all. Two runs of
/// the same sharded build must agree byte for byte — mid-run checkpoint,
/// final checkpoint and trace stream.
#[test]
fn the_same_sharded_build_run_twice_is_byte_identical() {
    let mid = serial_run(mixed_tree()).now / 2;
    let run = || {
        let mut driver = mixed_driver(3);
        driver.run(mid, u64::MAX);
        let paused = driver.checkpoint();
        driver.run(TICKS_PER_SEC, u64::MAX);
        let finished = driver.checkpoint();
        (paused, finished, driver.take_trace())
    };
    let (first, second) = (run(), run());
    assert!(first.0 == second.0, "mid-run checkpoints differ");
    assert!(first.1 == second.1, "final checkpoints differ");
    assert_eq!(first.2.dropped, second.2.dropped, "trace drops");
    assert_eq!(first.2.events, second.2.events, "trace stream");
}

/// An event budget that runs out inside a window stops every shard at
/// the same rendezvous (the overrun is at most that window), and the
/// resumed run is the serial run: quiesce tick, events, stats, trace.
#[test]
fn event_budget_overrun_resumes_to_the_serial_quiesce_tick() {
    let serial = serial_run(mixed_tree());
    let budget = serial.events / 3;
    let mut driver = mixed_driver(3);
    assert_eq!(driver.run(TICKS_PER_SEC, budget), RunOutcome::EventLimit);
    assert!(driver.events_processed() >= budget && driver.events_processed() < serial.events);
    assert_eq!(driver.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
    assert_eq!(driver.now(), serial.now, "quiesce tick");
    assert_eq!(driver.events_processed(), serial.events, "events processed");
    assert_eq!(driver.stats().fnv(), serial.fnv, "stats FNV");
    let trace = driver.take_trace();
    assert_eq!(trace.dropped, serial.trace.dropped, "trace drops");
    assert_eq!(trace.events, serial.trace.events, "trace stream");
}

// --- Virtio functions across shard cuts ------------------------------------

/// The virtio preset tree: `vblk0` and `vnet0` share a switch on the
/// first root port (the partitioner keeps them with the host shard or
/// cuts the switch link, depending on the shard count), the IDE disk
/// hangs off the second root port.
fn virtio_mixed_tree() -> Topology {
    Topology::virtio_mixed(
        VirtioConfig::default(),
        VirtioConfig { class: VirtioClass::Net, ..VirtioConfig::default() },
    )
}

fn virtio_tree_at(shards: usize) {
    tree_at(virtio_mixed_tree(), shards, "virtio tree");
}

/// Virtqueue walks with the host on the same shard: 1-way partition.
#[test]
fn virtio_tree_at_one_shard() {
    virtio_tree_at(1);
}

/// Doorbells, descriptor DMA and completion interrupts cross a cut
/// root-port link.
#[test]
fn virtio_tree_at_two_shards() {
    virtio_tree_at(2);
}

/// Both virtio functions land away from the host shard; the switch
/// fan-out is cut too.
#[test]
fn virtio_tree_at_four_shards() {
    virtio_tree_at(4);
}

// --- MSI-X through the sharded attach surface ------------------------------

/// The multi-queue MSI-X driver attaches through the same surface as every
/// other workload, so it runs sharded too: the NIC lands away from the
/// host shard, and every per-queue doorbell write crosses the cut on its
/// way to the interrupt controller.
#[test]
fn msix_tx_at_two_shards() {
    let exp = MsixTxExperiment { frames: 64, ..MsixTxExperiment::default() };
    let at = |shards| {
        let (fin, reports) = execute(&exp, Exec::Cold { shards });
        let outcome = exp.collect(&fin, &reports);
        assert!(outcome.completed && outcome.irqs > 0, "at {shards} shards: {outcome:?}");
        (fin.now, fin.events, fin.stats.fnv(), format!("{outcome:?}"), fin.cut_links)
    };
    let (serial, sharded) = (at(1), at(2));
    assert_eq!((serial.4, sharded.4), (0, 1), "the root link must be cut");
    assert_eq!(serial.0, sharded.0, "quiesce tick");
    assert_eq!(serial.1, sharded.1, "events processed");
    assert_eq!(serial.2, sharded.2, "stats FNV");
    assert_eq!(serial.3, sharded.3, "outcome");
}
