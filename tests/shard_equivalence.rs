//! Equivalence suite for the sharded parallel simulation kernel.
//!
//! The tentpole contract of `kernel::shard` is *bit-identity*: a run
//! partitioned across N worker shards (conservative link-lookahead sync,
//! deterministic mailbox drains at barrier ticks) must reproduce the
//! serial run's quiesce tick, stats FNV fingerprint and structured trace
//! stream exactly — for any topology, any shard count and any workload
//! mix. This suite checks that promise three ways:
//!
//! * fixed mixed disk/NIC trees at 1, 2 and 4 shards (the CI
//!   `shard-conformance` ladder);
//! * random trees × random shard counts (1..=8) × dd/NIC-transmit
//!   workloads, property-tested;
//! * a mid-run checkpoint taken from a sharded run at a barrier tick,
//!   restored under *different* shard counts, finishing bit-identical to
//!   the uninterrupted serial run.

use proptest::prelude::*;

use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::kernel::shard::ShardedSimulator;
use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::TICKS_PER_SEC;
use pcisim::kernel::trace::TraceLog;
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::builder::DeviceSpec;
use pcisim::system::experiments::stats_fnv;
use pcisim::system::topology::{
    build_topology, build_topology_sharded, Attachment, Node, Topology,
};
use pcisim::system::workload::dd::DdConfig;
use pcisim::system::workload::nic_tx::NicTxConfig;

/// Everything a run leaves behind that sharding must not disturb.
struct RunResult {
    now: u64,
    events: u64,
    fnv: u64,
    trace: TraceLog,
    /// Per-disk `(done, bytes)` and per-NIC `(done, frames_sent)`.
    reports: Vec<(bool, u64)>,
}

const DD_BLOCK: u64 = 64 * 1024;
const NIC_FRAMES: u32 = 24;

fn serial_run(topo: Topology) -> RunResult {
    let mut sys = build_topology(topo.with_tracing());
    let mut dds = Vec::new();
    let mut nics = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        } else {
            nics.push(
                sys.attach_nic_tx(i, NicTxConfig { frames: NIC_FRAMES, ..NicTxConfig::default() }),
            );
        }
    }
    sys.sim.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    reports.extend(nics.iter().map(|r| (r.borrow().done, r.borrow().frames)));
    RunResult {
        now: sys.sim.now(),
        events: sys.sim.events_processed(),
        fnv: stats_fnv(&sys.sim.stats()),
        trace: sys.sim.take_trace(),
        reports,
    }
}

fn sharded_run(topo: Topology, shards: usize) -> RunResult {
    let mut sys = build_topology_sharded(topo.with_tracing(), shards);
    let mut dds = Vec::new();
    let mut nics = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        } else {
            nics.push(
                sys.attach_nic_tx(i, NicTxConfig { frames: NIC_FRAMES, ..NicTxConfig::default() }),
            );
        }
    }
    let mut driver = sys.into_driver();
    driver.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    reports.extend(nics.iter().map(|r| (r.borrow().done, r.borrow().frames)));
    RunResult {
        now: driver.now(),
        events: driver.events_processed(),
        fnv: stats_fnv(&driver.stats()),
        trace: driver.take_trace(),
        reports,
    }
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
    let serial = serial_run(mixed_tree());
    let sharded = sharded_run(mixed_tree(), shards);
    assert_bit_identical(&serial, &sharded, &format!("mixed tree at {shards} shards"));
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

use pcisim::devices::cxl::CxlExpanderConfig;
use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};

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

/// One stream per expander, alternating open-loop load/store mixes with
/// pointer chases so both datapaths cross the shard cut.
fn cxl_host_config(index: usize) -> CxlHostConfig {
    if index.is_multiple_of(2) {
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
    }
}

fn cxl_serial_run(topo: Topology) -> RunResult {
    let mut sys = build_topology(topo.with_tracing());
    let mut cxls = Vec::new();
    let mut dds = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_cxl {
            cxls.push(sys.attach_cxl_host(i, cxl_host_config(cxls.len())));
        } else if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        }
    }
    sys.sim.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(cxls.iter().map(|r| (r.borrow().done, r.borrow().completed)));
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    RunResult {
        now: sys.sim.now(),
        events: sys.sim.events_processed(),
        fnv: stats_fnv(&sys.sim.stats()),
        trace: sys.sim.take_trace(),
        reports,
    }
}

fn cxl_sharded_run(topo: Topology, shards: usize) -> RunResult {
    let mut sys = build_topology_sharded(topo.with_tracing(), shards);
    let mut cxls = Vec::new();
    let mut dds = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_cxl {
            cxls.push(sys.attach_cxl_host(i, cxl_host_config(cxls.len())));
        } else if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        }
    }
    let mut driver = sys.into_driver();
    driver.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(cxls.iter().map(|r| (r.borrow().done, r.borrow().completed)));
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    RunResult {
        now: driver.now(),
        events: driver.events_processed(),
        fnv: stats_fnv(&driver.stats()),
        trace: driver.take_trace(),
        reports,
    }
}

fn cxl_tree_at(shards: usize) {
    let serial = cxl_serial_run(cxl_mixed_tree());
    let sharded = cxl_sharded_run(cxl_mixed_tree(), shards);
    assert_bit_identical(&serial, &sharded, &format!("cxl tree at {shards} shards"));
    // The workload actually ran: both expander streams finished.
    assert!(serial.reports[..2].iter().all(|&(done, n)| done && n > 0));
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
        let mut sys = build_topology_sharded(mixed_tree().with_tracing(), other);
        let mut dds = Vec::new();
        let mut nics = Vec::new();
        for i in 0..sys.endpoints.len() {
            if sys.endpoints[i].is_disk {
                dds.push(
                    sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }),
                );
            } else {
                nics.push(sys.attach_nic_tx(
                    i,
                    NicTxConfig { frames: NIC_FRAMES, ..NicTxConfig::default() },
                ));
            }
        }
        let mut driver = sys.into_driver();
        driver.restore(&snapshot).expect("checkpoint restores under any shard count");
        driver.run(TICKS_PER_SEC, u64::MAX);
        assert_eq!(driver.now(), serial.now, "restored at {other} shards: quiesce tick");
        assert_eq!(driver.events_processed(), serial.events, "restored at {other} shards: events");
        assert_eq!(stats_fnv(&driver.stats()), serial.fnv, "restored at {other} shards: stats FNV");
        let mut reports = Vec::new();
        reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
        reports.extend(nics.iter().map(|r| (r.borrow().done, r.borrow().frames)));
        assert_eq!(reports, serial.reports, "restored at {other} shards: workload reports");
    }
}

/// The mixed tree on `shards` shards with every workload attached and
/// tracing on, sealed into a driver.
fn mixed_driver(shards: usize) -> ShardedSimulator {
    let mut sys = build_topology_sharded(mixed_tree().with_tracing(), shards);
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_disk {
            let _ = sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() });
        } else {
            let _ =
                sys.attach_nic_tx(i, NicTxConfig { frames: NIC_FRAMES, ..NicTxConfig::default() });
        }
    }
    sys.into_driver()
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
    assert_eq!(stats_fnv(&driver.stats()), serial.fnv, "stats FNV");
    let trace = driver.take_trace();
    assert_eq!(trace.dropped, serial.trace.dropped, "trace drops");
    assert_eq!(trace.events, serial.trace.events, "trace stream");
}

// --- Virtio functions across shard cuts ------------------------------------

use pcisim::devices::virtio::{VirtioClass, VirtioConfig};
use pcisim::system::workload::virtio::VirtioAppConfig;

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

/// One driver per virtio function: a queued blk read stream and a net
/// transmit stream, both crossing any cut between the CPU shard and the
/// device shard (doorbell MMIO one way, DMA + interrupts the other).
fn virtio_app_config(index: usize) -> VirtioAppConfig {
    if index == 0 {
        VirtioAppConfig { requests: 24, queue_depth: 2, ..VirtioAppConfig::default() }
    } else {
        VirtioAppConfig {
            requests: 24,
            queue_depth: 4,
            request_bytes: 1514,
            ..VirtioAppConfig::default()
        }
    }
}

fn virtio_serial_run(topo: Topology) -> RunResult {
    let mut sys = build_topology(topo.with_tracing());
    let mut vios = Vec::new();
    let mut dds = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_virtio_blk || sys.endpoints[i].is_virtio_net {
            vios.push(sys.attach_virtio(i, virtio_app_config(vios.len())));
        } else if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        }
    }
    sys.sim.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(vios.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    RunResult {
        now: sys.sim.now(),
        events: sys.sim.events_processed(),
        fnv: stats_fnv(&sys.sim.stats()),
        trace: sys.sim.take_trace(),
        reports,
    }
}

fn virtio_sharded_run(topo: Topology, shards: usize) -> RunResult {
    let mut sys = build_topology_sharded(topo.with_tracing(), shards);
    let mut vios = Vec::new();
    let mut dds = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_virtio_blk || sys.endpoints[i].is_virtio_net {
            vios.push(sys.attach_virtio(i, virtio_app_config(vios.len())));
        } else if sys.endpoints[i].is_disk {
            dds.push(sys.attach_dd(i, DdConfig { block_bytes: DD_BLOCK, ..DdConfig::default() }));
        }
    }
    let mut driver = sys.into_driver();
    driver.run(TICKS_PER_SEC, u64::MAX);
    let mut reports = Vec::new();
    reports.extend(vios.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    reports.extend(dds.iter().map(|r| (r.borrow().done, r.borrow().bytes)));
    RunResult {
        now: driver.now(),
        events: driver.events_processed(),
        fnv: stats_fnv(&driver.stats()),
        trace: driver.take_trace(),
        reports,
    }
}

fn virtio_tree_at(shards: usize) {
    let serial = virtio_serial_run(virtio_mixed_tree());
    let sharded = virtio_sharded_run(virtio_mixed_tree(), shards);
    assert_bit_identical(&serial, &sharded, &format!("virtio tree at {shards} shards"));
    // The workload actually ran: both virtio streams moved payload.
    assert!(serial.reports[..2].iter().all(|&(done, n)| done && n > 0));
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
