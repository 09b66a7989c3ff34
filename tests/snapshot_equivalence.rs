//! Snapshot-equivalence suite: checkpoint/restore must be invisible.
//!
//! The core property: take any topology the tree grammar can express,
//! attach a workload to every endpoint, checkpoint at an arbitrary tick,
//! restore into a *freshly built* tree and run to quiesce — the quiesce
//! tick, every statistic, the PacketId allocator and the post-restore
//! event trace must be bit-identical to the uninterrupted run.
//!
//! Around that property: a round-trip proptest for the state codec,
//! hostile-input checks (truncations and bit flips are rejected with a
//! typed error, never a panic), a version-bump fixture that fails loudly,
//! and a committed golden checkpoint restored against recorded anchors.

use proptest::prelude::*;

use pcisim::devices::ide::IdeDiskConfig;
use pcisim::devices::nic::NicConfig;
use pcisim::kernel::packet::Command;
use pcisim::kernel::sim::{RunOutcome, Simulation};
use pcisim::kernel::snapshot::{SnapshotError, State, StateReader, StateWriter, SNAPSHOT_VERSION};
use pcisim::kernel::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
use pcisim::kernel::tick::{us, Tick, TICKS_PER_SEC};
use pcisim::kernel::trace::{TraceCategory, TraceLog};
use pcisim::pcie::link::{
    PcieLink, PORT_DOWN_MASTER, PORT_DOWN_SLAVE, PORT_UP_MASTER, PORT_UP_SLAVE,
};
use pcisim::pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim::pcie::router::RouterConfig;
use pcisim::system::snapshot::SystemHandle;
use pcisim::system::topology::{
    build_topology, Attachment, DeviceSpec, EndpointKind, Node, Topology, TopologySystem,
};
use pcisim::system::workload::dd::DdConfig;
use pcisim::system::workload::nic_tx::NicTxConfig;

/// Safety valves: every random workload mix must quiesce well inside
/// these.
const MAX_TIME: Tick = 5 * TICKS_PER_SEC;
const MAX_EVENTS: u64 = 2_000_000_000;

/// The committed golden checkpoint (see
/// `golden_checkpoint_fixture_restores_and_matches_anchors`).
const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/validation_dd64k_warm.ckpt");

/// Derives a link configuration from one generator byte so the sweep
/// covers every generation/width pairing the paper models.
fn link_for(b: u8) -> LinkConfig {
    let gens = [Generation::Gen1, Generation::Gen2, Generation::Gen3];
    let widths = [LinkWidth::X1, LinkWidth::X2, LinkWidth::X4, LinkWidth::X8];
    LinkConfig::new(gens[(b >> 2) as usize % gens.len()], widths[(b >> 4) as usize % widths.len()])
}

/// Consumes generator bytes to build one port attachment: empty, an
/// endpoint, or (while depth remains) a switch with 1–3 ports.
fn grow_port(
    bytes: &mut dyn Iterator<Item = u8>,
    depth: usize,
    count: &mut usize,
) -> Option<Attachment> {
    let b = bytes.next().unwrap_or(1);
    match b % 4 {
        0 => None,
        3 if depth > 0 => {
            let fanout = 1 + (bytes.next().unwrap_or(0) % 3) as usize;
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

/// Builds a bounded random topology — up to three root ports, switches
/// nested at most three levels, at least one endpoint — with full event
/// tracing enabled so the trace ring participates in the equivalence
/// check.
fn grow_topology(shape: &[u8]) -> Topology {
    let mut bytes = shape.iter().copied();
    let n_roots = 1 + (bytes.next().unwrap_or(0) % 3) as usize;
    let mut count = 0usize;
    let mut roots: Vec<Option<Attachment>> =
        (0..n_roots).map(|_| grow_port(&mut bytes, 3, &mut count)).collect();
    if count == 0 {
        roots[0] = Some(Attachment::new(
            LinkConfig::default(),
            Node::endpoint("ep0", DeviceSpec::Disk(IdeDiskConfig::default())),
        ));
    }
    let mut topo = Topology::new(RouterConfig::default(), roots);
    topo.trace_mask = TraceCategory::ALL;
    topo
}

/// Builds the system for `shape` and attaches one small workload to
/// every endpoint: `dd` on disks, a transmit stream on NICs. Identical
/// calls produce identical simulations.
fn build_with_workloads(shape: &[u8]) -> TopologySystem {
    let mut sys = build_topology(grow_topology(shape));
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].kind == EndpointKind::Disk {
            let _ = sys.attach_dd(
                i,
                DdConfig {
                    block_bytes: 16 * 1024,
                    request_sectors: 4,
                    os_block_setup: us(20),
                    os_request_overhead: us(2),
                    ..DdConfig::default()
                },
            );
        } else {
            let _ = sys.attach(i, NicTxConfig { frames: 8, ..NicTxConfig::default() });
        }
    }
    sys
}

/// What one finished run looks like, reduced to bit-comparable facts.
struct RunFacts {
    quiesce_tick: Tick,
    stats: u64,
    packet_ids_allocated: u64,
    trace: TraceLog,
}

fn run_to_quiesce(mut sys: TopologySystem) -> RunFacts {
    let outcome = sys.sim.run(MAX_TIME, MAX_EVENTS);
    assert_eq!(outcome, RunOutcome::QueueEmpty, "random workload mix must quiesce");
    RunFacts {
        quiesce_tick: sys.sim.now(),
        stats: sys.sim.stats().fnv(),
        packet_ids_allocated: sys.sim.packet_ids_allocated(),
        trace: sys.sim.take_trace(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Checkpoint at a random fraction of the run, restore into a freshly
    /// built tree, run to quiesce: everything observable is bit-identical
    /// to the uninterrupted run.
    #[test]
    fn checkpoint_restore_is_invisible(
        shape in proptest::collection::vec(any::<u8>(), 4..48),
        frac in 0u64..101,
    ) {
        // Reference: the uninterrupted run.
        let reference = run_to_quiesce(build_with_workloads(&shape));

        // Interrupted run: stop at `frac`% of the reference quiesce tick
        // and checkpoint.
        let checkpoint_at = reference.quiesce_tick * frac / 100;
        let mut interrupted = build_with_workloads(&shape);
        let outcome = interrupted.sim.run(checkpoint_at, MAX_EVENTS);
        prop_assert!(
            matches!(outcome, RunOutcome::TimeLimit | RunOutcome::QueueEmpty),
            "{outcome:?}"
        );
        let snap = interrupted.checkpoint();

        // Restore into a *fresh* tree and finish the run.
        let mut resumed_sys = build_with_workloads(&shape);
        resumed_sys.restore(&snap).expect("checkpoint restores into an identically shaped tree");
        let resumed = run_to_quiesce(resumed_sys);

        prop_assert_eq!(resumed.quiesce_tick, reference.quiesce_tick, "quiesce tick");
        prop_assert_eq!(resumed.stats, reference.stats, "stats fingerprint");
        prop_assert_eq!(resumed.packet_ids_allocated, reference.packet_ids_allocated, "PacketId allocator");
        prop_assert_eq!(&resumed.trace.names, &reference.trace.names, "trace component names");
        prop_assert_eq!(resumed.trace.dropped, reference.trace.dropped, "trace drops");
        prop_assert_eq!(&resumed.trace.events, &reference.trace.events, "trace events");
    }

    /// The state codec round-trips every typed value sequence bit-exactly
    /// and consumes exactly the bytes it wrote.
    #[test]
    fn state_codec_round_trips(ops in proptest::collection::vec((0u8..10, any::<u64>()), 0..64)) {
        let mut w = StateWriter::new();
        for &(tag, v) in &ops {
            match tag {
                0 => w.u8(v as u8),
                1 => w.u16(v as u16),
                2 => w.u32(v as u32),
                3 => w.u64(v),
                4 => w.usize(v as usize),
                5 => w.bool(v & 1 == 1),
                6 => w.f64(f64::from_bits(v)),
                7 => (v & 1 == 1).then_some(v).save(&mut w),
                8 => w.str(&format!("s{v:x}")),
                _ => w.bytes(&v.to_le_bytes()[..(v % 9) as usize]),
            }
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for &(tag, v) in &ops {
            match tag {
                0 => prop_assert_eq!(r.u8().unwrap(), v as u8),
                1 => prop_assert_eq!(r.u16().unwrap(), v as u16),
                2 => prop_assert_eq!(r.u32().unwrap(), v as u32),
                3 => prop_assert_eq!(r.u64().unwrap(), v),
                4 => prop_assert_eq!(r.usize().unwrap(), v as usize),
                5 => prop_assert_eq!(r.bool().unwrap(), v & 1 == 1),
                6 => prop_assert_eq!(r.f64().unwrap().to_bits(), v),
                7 => prop_assert_eq!(Option::<u64>::read(&mut r).unwrap(), (v & 1 == 1).then_some(v)),
                8 => prop_assert_eq!(r.str().unwrap(), format!("s{v:x}")),
                _ => prop_assert_eq!(r.bytes().unwrap(), &v.to_le_bytes()[..(v % 9) as usize]),
            }
        }
        prop_assert!(r.finish("codec").is_ok());
    }

    /// A reader over arbitrary garbage never panics: every decode returns
    /// `Ok` or a typed error.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut r = StateReader::new(&bytes);
        // Exercise each decoder in sequence until the input runs dry.
        let _ = r.u8();
        let _ = r.bool();
        let _ = r.u16();
        let _ = r.u32();
        let _ = Option::<u64>::read(&mut r);
        let _ = r.f64();
        let _ = r.str();
        let _ = r.bytes();
        let _ = r.usize();
        let _ = r.finish("garbage");
    }
}

/// Builds the warmed-up validation `dd` system the corruption tests and
/// the golden fixture use, paused at `WARMUP_TICK`.
fn warmed_validation(block_bytes: u64) -> TopologySystem {
    let mut built = build_topology(Topology::validation());
    let _ = built.attach_dd(0, DdConfig { block_bytes, ..DdConfig::default() });
    assert_eq!(
        built.sim.run(pcisim::system::experiments::WARMUP_TICK, u64::MAX),
        RunOutcome::TimeLimit
    );
    built
}

/// The cut-point property every mid-run checkpoint test below asserts:
/// run `build()` to quiesce as the reference, then at 25/50/75 % of its
/// quiesce tick checkpoint an interrupted run, restore it into a *freshly
/// built* system and resume — the quiesce tick, statistics and PacketId
/// allocator must be bit-identical to the uninterrupted run, and the
/// workloads (`done`) must finish. Returns the finished reference.
fn assert_cut_points_resume_bit_identically<R>(
    build: impl Fn() -> (TopologySystem, R),
    done: impl Fn(&R) -> bool,
) -> (TopologySystem, R) {
    let (mut reference, ref_reports) = build();
    assert_eq!(reference.sim.run(MAX_TIME, MAX_EVENTS), RunOutcome::QueueEmpty);
    assert!(done(&ref_reports), "reference run must finish its workloads");
    let ref_tick = reference.sim.now();
    let ref_fnv = reference.sim.stats().fnv();
    let ref_pid = reference.sim.packet_ids_allocated();

    for frac in [25u64, 50, 75] {
        let (mut interrupted, _) = build();
        let outcome = interrupted.sim.run(ref_tick * frac / 100, MAX_EVENTS);
        assert!(matches!(outcome, RunOutcome::TimeLimit | RunOutcome::QueueEmpty), "{outcome:?}");
        let snap = interrupted.checkpoint();

        let (mut resumed, reports) = build();
        resumed.restore(&snap).expect("mid-run checkpoint restores");
        assert_eq!(resumed.sim.run(MAX_TIME, MAX_EVENTS), RunOutcome::QueueEmpty);
        assert!(done(&reports), "restored run must finish its workloads at {frac}%");
        assert_eq!(resumed.sim.now(), ref_tick, "quiesce tick at {frac}%");
        assert_eq!(resumed.sim.stats().fnv(), ref_fnv, "stats fingerprint at {frac}%");
        assert_eq!(resumed.sim.packet_ids_allocated(), ref_pid, "PacketId allocator at {frac}%");
    }
    (reference, ref_reports)
}

/// Checkpoint an MSI-X run in the middle of its moderation holdoff
/// windows — armed per-vector timers, coalesced-pending flags, per-queue
/// rings and the programmed MSI-X table all live state — restore into a
/// fresh tree and resume: the quiesce tick, statistics and PacketId
/// allocator are bit-identical to the uninterrupted run, at several cut
/// points.
#[test]
fn msix_moderation_checkpoint_restores_bit_identically() {
    use pcisim::system::prelude::MsixTxConfig;

    let build = || {
        let mut built = build_topology(Topology::nic_msix(4, us(100)));
        let report =
            built.attach(0, MsixTxConfig { queues: 4, frames: 64, ..MsixTxConfig::default() });
        (built, report)
    };

    // Moderation must be demonstrably active (fewer doorbells than
    // frames) during the run that is cut.
    let (_, report) = assert_cut_points_resume_bit_identically(build, |r| r.borrow().done);
    let irqs = report.borrow().irqs;
    assert!(irqs < 64, "holdoff must be coalescing during this run, took {irqs}");
}

/// Checkpoints of endpoints under fabric backpressure — the DMA engine
/// holding a stalled TLP with a sector's worth queued behind the barrier,
/// MSI-X doorbells competing with data for an x1 link — restore
/// bit-identically: an IDE disk streaming through a 1-deep replay buffer,
/// and a 4-queue MSI-X NIC with immediate (unmoderated) delivery.
#[test]
fn backpressured_endpoint_checkpoints_restore_bit_identically() {
    use pcisim::system::prelude::MsixTxConfig;

    let disk = || {
        let x1 = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut built = build_topology(Topology::chain(
            LinkConfig::new(Generation::Gen2, LinkWidth::X4),
            Some((RouterConfig::default(), LinkConfig { replay_buffer_size: 1, ..x1 })),
            DeviceSpec::Disk(IdeDiskConfig::default()),
        ));
        let report = built.attach_dd(0, DdConfig { block_bytes: 32 * 1024, ..DdConfig::default() });
        (built, report)
    };
    let (reference, _) = assert_cut_points_resume_bit_identically(disk, |r| r.borrow().done);
    let stalls = reference.sim.stats().get("disk.dma_stalls").expect("disk stat");
    assert!(stalls > 0.0, "the x1 link must have pushed back on the disk");

    let nic = || {
        let mut built = build_topology(Topology::nic_msix(4, 0));
        let report =
            built.attach(0, MsixTxConfig { queues: 4, frames: 32, ..MsixTxConfig::default() });
        (built, report)
    };
    let (_, report) = assert_cut_points_resume_bit_identically(nic, |r| r.borrow().done);
    assert_eq!(report.borrow().irqs, 32, "unmoderated: one doorbell per frame");
}

/// Checkpoint a CXL.mem pointer chase in mid-flight — the chase's
/// current hop, CXL.mem requests sitting in switch queues and the
/// expander's bank/decoder state all live — restore into a *freshly
/// built* tree and resume: the quiesce tick, statistics and PacketId
/// allocator are bit-identical to the uninterrupted run, at several cut
/// points.
#[test]
fn mid_pointer_chase_checkpoint_restores_bit_identically() {
    use pcisim::devices::cxl::CxlExpanderConfig;
    use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};

    let build = || {
        let mut sys = build_topology(Topology::cxl_behind_switch(CxlExpanderConfig::default()));
        let report = sys.attach_cxl_host(
            0,
            CxlHostConfig {
                mode: CxlHostMode::PointerChase,
                requests: 96,
                chain_blocks: 32,
                ..CxlHostConfig::default()
            },
        );
        (sys, report)
    };

    assert_cut_points_resume_bit_identically(build, |r| r.borrow().done);
}

#[test]
fn truncated_checkpoints_are_rejected_with_typed_errors() {
    let mut built = warmed_validation(64 * 1024);
    let snap = built.checkpoint();
    // Every prefix (sampled densely, plus all header-sized ones) must be
    // rejected without panicking; the checksum gate means no partial
    // state is ever applied.
    let mut victim = warmed_validation(64 * 1024);
    for len in (0..16).chain((16..snap.len()).step_by(97)) {
        let err = victim.restore(&snap[..len]).expect_err("truncation must be rejected");
        assert!(
            matches!(err, SnapshotError::Truncated { .. } | SnapshotError::ChecksumMismatch { .. }),
            "prefix {len}: {err:?}"
        );
    }
    // The victim still accepts the intact image afterwards.
    victim.restore(&snap).expect("intact checkpoint restores");
}

#[test]
fn bit_flips_anywhere_are_rejected() {
    let mut built = warmed_validation(64 * 1024);
    let snap = built.checkpoint();
    let mut victim = warmed_validation(64 * 1024);
    for pos in (0..snap.len()).step_by(499) {
        let mut bad = snap.clone();
        bad[pos] ^= 1 << (pos % 8);
        let err = victim.restore(&bad).expect_err("a flipped bit must be rejected");
        // Header flips surface as magic/version errors; everything else
        // (including the checksum field itself) fails the checksum gate.
        assert!(
            matches!(
                err,
                SnapshotError::BadMagic { .. }
                    | SnapshotError::VersionMismatch { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "flip at {pos}: {err:?}"
        );
    }
    victim.restore(&snap).expect("intact checkpoint restores");
}

#[test]
fn version_bump_fails_loudly() {
    let mut built = warmed_validation(64 * 1024);
    let mut snap = built.checkpoint();
    // Patch the version field (bytes 4..8) to a future format.
    snap[4..8].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    let err = built.restore(&snap).expect_err("future version must be rejected");
    assert_eq!(
        err,
        SnapshotError::VersionMismatch { found: SNAPSHOT_VERSION + 1, expected: SNAPSHOT_VERSION },
        "the version gate must fire before the checksum is even consulted"
    );
}

/// The committed golden checkpoint: the validation topology with a 64 KB
/// `dd`, checkpointed at `WARMUP_TICK`. Recorded anchors below are
/// the quiesce tick and stats fingerprint of the *cold* 64 KB run (the
/// same `GOLDEN_STATS_FNV` the determinism suite asserts), so this test
/// proves an old file restores on today's build and completes to the
/// golden outcome.
///
/// Regenerate (after a deliberate format bump) with:
/// `PCISIM_BLESS_FIXTURE=1 cargo test --test snapshot_equivalence golden`
#[test]
fn golden_checkpoint_fixture_restores_and_matches_anchors() {
    const GOLDEN_QUIESCE_TICK: Tick = 633_960_600;
    const GOLDEN_STATS_FNV: u64 = 0x28e0_5435_bbfc_efe7;

    if std::env::var_os("PCISIM_BLESS_FIXTURE").is_some() {
        let mut built = warmed_validation(64 * 1024);
        let written = built.checkpoint_to(FIXTURE).expect("fixture written");
        println!("blessed {FIXTURE} ({written} bytes)");
    }

    let mut built = build_topology(Topology::validation());
    let report = built.attach_dd(0, DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() });
    built.restore_from(FIXTURE).expect("golden fixture must restore on this build");
    assert_eq!(built.sim.run(MAX_TIME, MAX_EVENTS), RunOutcome::QueueEmpty);
    assert!(report.borrow().done, "restored run must complete the block");
    assert_eq!(built.sim.now(), GOLDEN_QUIESCE_TICK, "quiesce tick anchor");
    assert_eq!(built.sim.stats().fnv(), GOLDEN_STATS_FNV, "stats fingerprint anchor");
}

/// Today's writer reproduces the committed fixture byte for byte: the
/// in-memory queue representation may change, the checkpoint format may
/// not (without a `SNAPSHOT_VERSION` bump and a re-blessed fixture).
#[test]
fn checkpoint_writer_reproduces_the_golden_fixture() {
    let committed = std::fs::read(FIXTURE).expect("fixture readable");
    let written = warmed_validation(64 * 1024).checkpoint();
    assert_eq!(written.len(), committed.len(), "checkpoint length");
    assert!(written == committed, "checkpoint bytes differ from the committed fixture");
}

/// Checkpoint a virtio-blk run in mid-request — descriptor chains in
/// flight, the device's in-progress virtqueue walk, avail/used indices
/// in simulated DRAM and the driver's submission window all live state —
/// restore into a *freshly built* tree and resume: the quiesce tick,
/// statistics and PacketId allocator are bit-identical to the
/// uninterrupted run, at several cut points.
#[test]
fn mid_virtio_request_checkpoint_restores_bit_identically() {
    use pcisim::devices::virtio::{VirtioClass, VirtioConfig};
    use pcisim::system::workload::virtio::VirtioAppConfig;

    let build = || {
        let mut sys = build_topology(Topology::virtio_mixed(
            VirtioConfig::default(),
            VirtioConfig { class: VirtioClass::Net, ..VirtioConfig::default() },
        ));
        let blk = sys.attach_virtio(
            0,
            VirtioAppConfig { requests: 48, queue_depth: 4, ..VirtioAppConfig::default() },
        );
        let net = sys.attach_virtio(
            1,
            VirtioAppConfig {
                requests: 32,
                queue_depth: 2,
                request_bytes: 1514,
                ..VirtioAppConfig::default()
            },
        );
        (sys, (blk, net))
    };

    assert_cut_points_resume_bit_identically(build, |(blk, net)| {
        blk.borrow().done && net.borrow().done
    });
}

/// The congested-link rig — `cpu` (requester, down), `link`, `dev`
/// (responder), `dma` (requester, up), `mem` (responder) — on Gen 2 x1
/// with a 2-TLP replay buffer and a corrupt TLP every ~7: the wire is
/// congested both ways, and replays, NAKs and admission refusals are all
/// live.
fn congested_link() -> Simulation {
    let config = LinkConfig {
        replay_buffer_size: 2,
        error_interval: 7,
        ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
    };
    let mix = |base: u64| -> Vec<(Command, u64, u32)> {
        (0..12)
            .map(|i| {
                let cmd = if i % 3 == 0 { Command::ReadReq } else { Command::WriteReq };
                (cmd, base + i * 64, 64)
            })
            .collect()
    };
    let mut sim = Simulation::new();
    let cpu = sim.add(Box::new(Requester::new("cpu", mix(0x4000_0000)).0));
    let link = sim.add(Box::new(PcieLink::new("link", config)));
    let dev = sim.add(Box::new(Responder::new("dev", 30_000).0));
    let dma = sim.add(Box::new(Requester::new("dma", mix(0x8000_0000)).0));
    let mem = sim.add(Box::new(Responder::new("mem", 50_000).0));
    sim.connect((cpu, REQUESTER_PORT), (link, PORT_UP_SLAVE));
    sim.connect((link, PORT_DOWN_MASTER), (dev, RESPONDER_PORT));
    sim.connect((dma, REQUESTER_PORT), (link, PORT_DOWN_SLAVE));
    sim.connect((link, PORT_UP_MASTER), (mem, RESPONDER_PORT));
    sim
}

/// A congested link checkpointed at *every* event boundary — wire
/// arrivals, replay-timer chases, ACK timers and TX-kick reservations
/// (queued or not) all live at one cut or another — restores into a fresh
/// build that finishes exactly like the uninterrupted run.
#[test]
fn congested_link_checkpoints_at_every_event_restore() {
    let mut reference = congested_link();
    assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
    let stats = reference.stats();
    assert!(stats.get("link.down.replays").unwrap() > 0.0, "the wire must replay");
    assert!(stats.get("link.up.admission_refusals").unwrap() > 0.0, "and refuse");
    let (ref_tick, ref_fnv) = (reference.now(), stats.fnv());
    let ref_pid = reference.packet_ids_allocated();

    for cut in 1..reference.events_processed() {
        let mut interrupted = congested_link();
        assert_eq!(interrupted.run(Tick::MAX, cut), RunOutcome::EventLimit);
        let snap = interrupted.checkpoint();

        let mut restored = congested_link();
        restored.restore(&snap).expect("restores into a fresh build");
        assert_eq!(restored.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(restored.now(), ref_tick, "quiesce tick after cut {cut}");
        assert_eq!(restored.stats().fnv(), ref_fnv, "stats after cut {cut}");
        assert_eq!(restored.packet_ids_allocated(), ref_pid, "packet ids after cut {cut}");
    }
}
