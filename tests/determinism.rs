//! Determinism suite: identical configurations must produce bit-identical
//! results — across repeated runs in one process, across serial vs
//! parallel sweep execution, and against golden anchors recorded on the
//! pre-overhaul scheduler so hot-path optimizations cannot silently
//! change the paper's metrics.

use pcisim::kernel::sim::RunOutcome;
use pcisim::kernel::tick::{ns, TICKS_PER_SEC};
use pcisim::pcie::params::{Generation, LinkConfig};
use pcisim::system::experiments::{
    error_rate_ladder, run_cold, run_traced, DdExperiment, DdOutcome,
};
use pcisim::system::sweep::run_sweep;
use pcisim::system::workload::dd::DdConfig;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Every field of a [`DdOutcome`] that a regression could disturb, with
/// floats compared bit-for-bit.
fn outcome_fingerprint(o: &DdOutcome) -> [u64; 7] {
    [
        o.throughput_gbps.to_bits(),
        o.bytes,
        o.sim_time,
        o.replay_pct.to_bits(),
        o.timeout_pct.to_bits(),
        o.upstream_tlps,
        u64::from(o.completed),
    ]
}

#[test]
fn identical_configs_produce_identical_outcomes_and_traces() {
    let exp = DdExperiment { block_bytes: 64 * KB, ..DdExperiment::default() };
    let (a, ta) = run_traced(&exp);
    let (b, tb) = run_traced(&exp);
    assert_eq!(outcome_fingerprint(&a), outcome_fingerprint(&b));
    assert_eq!(ta.dropped, tb.dropped);
    assert_eq!(ta.names, tb.names);
    assert_eq!(ta.events, tb.events, "event traces must be identical");
}

/// Golden anchors for the paper's §VI-B validation run (1 MB `dd` on the
/// default topology). Every value here — including the quiesce time —
/// was recorded on the pre-overhaul scheduler (binary-heap queue,
/// HashMap routing, per-TLP allocation, eager replay timers) and is
/// asserted unchanged after the hot-path overhaul: the optimizations may
/// only change *how fast host work happens*, never what the simulation
/// computes or when it quiesces.
#[test]
fn golden_anchors_pin_the_paper_metrics() {
    let o = run_cold(&DdExperiment { block_bytes: MB, ..DdExperiment::default() });
    assert!(o.completed);
    assert_eq!(o.bytes, MB);
    assert_eq!(o.upstream_tlps, 16432);
    assert_eq!(o.throughput_gbps.to_bits(), 0x400020cebc8a05c3, "{}", o.throughput_gbps);
    assert_eq!(o.replay_pct.to_bits(), 0.0f64.to_bits());
    assert_eq!(o.timeout_pct.to_bits(), 0.0f64.to_bits());
    assert_eq!(o.sim_time, GOLDEN_SIM_TIME);
}

const GOLDEN_SIM_TIME: u64 = 4_161_336_600;
// Re-recorded when `{prefix}{index}` became the one workload naming rule
// and the single-endpoint `dd` component became `dd0`: every value of the
// snapshot — and every timing anchor above — stayed bit-identical across
// that change, only the `dd.` key prefix moved.
const GOLDEN_STATS_FNV: u64 = 0x28e0_5435_bbfc_efe7;

/// Two full system builds with the same config agree on every statistic,
/// and the whole snapshot matches its recorded fingerprint.
#[test]
fn stats_snapshot_is_reproducible_and_matches_golden() {
    use pcisim::system::topology::{build_topology, Topology};
    let run = || {
        let mut built = build_topology(Topology::validation());
        let report = built.attach_dd(0, DdConfig { block_bytes: 64 * KB, ..DdConfig::default() });
        let outcome = built.sim.run(TICKS_PER_SEC, u64::MAX);
        assert_eq!(outcome, RunOutcome::QueueEmpty, "system must quiesce");
        assert!(report.borrow().done);
        built.sim.stats()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "repeated builds must produce identical snapshots");
    assert_eq!(a.fnv(), GOLDEN_STATS_FNV, "got {:#018x}", a.fnv());
}

/// Every link-error field of a [`DdOutcome`] beside the goodput, floats
/// compared bit-for-bit.
fn fault_fingerprint(o: &DdOutcome) -> [u64; 8] {
    [
        o.throughput_gbps.to_bits(),
        o.sim_time,
        o.corrupt_drops,
        o.replays,
        o.naks,
        o.replay_timeouts,
        (u64::from(o.device_aer_uncor) << 32) | u64::from(o.device_aer_cor),
        u64::from(o.completed),
    ]
}

/// Golden anchor for a *faulty* run: error injection is a pure function
/// of each interface's transmit count, so a lossy run is exactly as
/// reproducible as a clean one — down to which TLPs the wire corrupts
/// and which AER bits the endpoint latches.
#[test]
fn faulty_run_is_deterministic_and_matches_golden() {
    let exp = DdExperiment { block_bytes: 64 * KB, ..DdExperiment::default() }
        .with_links(|link| LinkConfig { error_interval: 13, ..link });
    let a = run_cold(&exp);
    let b = run_cold(&exp);
    assert_eq!(fault_fingerprint(&a), fault_fingerprint(&b));
    assert!(a.completed);
    assert_eq!(a.sim_time, 659_238_200);
    assert_eq!(a.throughput_gbps.to_bits(), 0x3fe9769c9eb6e066, "{}", a.throughput_gbps);
    assert_eq!(a.corrupt_drops, 314);
    assert_eq!(a.replays, 566);
    assert_eq!(a.naks, 314);
    assert_eq!(a.replay_timeouts, 0);
    assert_eq!(a.device_aer_cor, 0x41, "Receiver Error | Bad TLP");
    assert_eq!(a.device_aer_uncor, 0);
}

/// The fault campaign parallelizes like every other sweep: `--jobs N`
/// must be bit-identical to the serial reference.
#[test]
fn fault_sweep_serial_equals_parallel() {
    let ladder =
        error_rate_ladder(&DdExperiment { block_bytes: 64 * KB, ..DdExperiment::default() });
    let serial = run_sweep(&ladder, 1, run_cold);
    let parallel = run_sweep(&ladder, 4, run_cold);
    let fingerprints = |v: &[DdOutcome]| v.iter().map(fault_fingerprint).collect::<Vec<_>>();
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));
}

/// A sweep fanned across worker threads returns exactly what the serial
/// reference produces, in the same order — the contract `repro --jobs N`
/// relies on.
#[test]
fn serial_and_parallel_sweeps_are_bit_identical() {
    let configs: Vec<DdExperiment> = [50u64, 90, 130]
        .into_iter()
        .flat_map(|lat| {
            [1usize, 4].map(|rb| {
                DdExperiment {
                    block_bytes: 64 * KB,
                    switch_latency: ns(lat),
                    ..DdExperiment::default()
                }
                .with_links(|link| LinkConfig { replay_buffer_size: rb, ..link })
            })
        })
        .collect();
    let serial = run_sweep(&configs, 1, run_cold);
    let parallel = run_sweep(&configs, 4, run_cold);
    let fingerprints = |v: &[DdOutcome]| v.iter().map(outcome_fingerprint).collect::<Vec<_>>();
    assert_eq!(fingerprints(&serial), fingerprints(&parallel));
}

// Golden anchors for the declarative-topology presets, recorded when the
// topology tree replaced the hard-coded single chain. The three-root-port
// tree is the paper's Fig. 2 platform; the cascade pins deep-switch
// routing. Quiesce time and the full stats fingerprint must both hold.
const GOLDEN_THREE_RP_TIME: u64 = 1_336_740_100;
// Re-recorded when the MSI-X work added NIC counters (msix_irqs,
// irqs_coalesced) to the snapshot; the quiesce tick above stayed
// bit-identical across that change — only the set of keys grew.
const GOLDEN_THREE_RP_FNV: u64 = 0x29aa_dc26_45f5_034d;
const GOLDEN_CASCADE_TIME: u64 = 654_112_600;
const GOLDEN_CASCADE_FNV: u64 = 0x4d7c_4d2f_37ce_d7bf;

/// The paper's three-root-port platform (disk + NIC + disk, concurrent
/// workloads) quiesces at the recorded tick with the recorded stats
/// fingerprint — and does so twice in a row. The anchor predates
/// `StatsSnapshot::fnv`, so matching it also pins the hash definition.
#[test]
fn three_root_port_topology_matches_golden() {
    use pcisim::system::topology::{build_topology, Topology};
    use pcisim::system::workload::dd::DdConfig as Dd;
    use pcisim::system::workload::nic_tx::NicTxConfig;

    let run = || {
        let mut built = build_topology(Topology::three_root_ports());
        let dd0 = built.attach_dd(0, Dd { block_bytes: 256 * KB, ..Dd::default() });
        let tx = built.attach(1, NicTxConfig { frames: 64, ..NicTxConfig::default() });
        let dd2 = built.attach_dd(2, Dd { block_bytes: 256 * KB, ..Dd::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(dd0.borrow().done && dd2.borrow().done);
        assert_eq!(tx.borrow().frames, 64);
        (built.sim.now(), built.sim.stats().fnv())
    };
    let (time, fnv) = run();
    assert_eq!(run(), (time, fnv), "repeated builds must agree");
    assert_eq!(time, GOLDEN_THREE_RP_TIME, "got {time}");
    assert_eq!(fnv, GOLDEN_THREE_RP_FNV, "got {fnv:#018x}");
}

/// A disk behind three cascaded switches quiesces at the recorded tick
/// with the recorded stats fingerprint.
#[test]
fn cascaded_switch_topology_matches_golden() {
    use pcisim::system::topology::{build_topology, Topology};
    use pcisim::system::workload::dd::DdConfig as Dd;

    let run = || {
        let mut built = build_topology(Topology::cascaded(3));
        let dd = built.attach_dd(0, Dd { block_bytes: 64 * KB, ..Dd::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(dd.borrow().done);
        (built.sim.now(), built.sim.stats().fnv())
    };
    let (time, fnv) = run();
    assert_eq!(run(), (time, fnv), "repeated builds must agree");
    assert_eq!(time, GOLDEN_CASCADE_TIME, "got {time}");
    assert_eq!(fnv, GOLDEN_CASCADE_FNV, "got {fnv:#018x}");
}

// Golden anchors for the CXL.mem preset: two interleaved expanders, one
// open-loop load/store stream plus one pointer chase, recorded when the
// CXL.mem transaction class landed. Quiesce time and the full stats
// fingerprint must both hold.
const GOLDEN_CXL_TIME: u64 = 26_860_455;
const GOLDEN_CXL_FNV: u64 = 0x18f3_f052_d2f8_cef3;

/// The two-way interleaved CXL expander preset quiesces at the recorded
/// tick with the recorded stats fingerprint — and does so twice in a row.
#[test]
fn cxl_interleaved_topology_matches_golden() {
    use pcisim::system::prelude::CxlExpanderConfig;
    use pcisim::system::topology::{build_topology, Topology};
    use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};

    let run = || {
        let mut built = build_topology(Topology::cxl_interleaved(2, CxlExpanderConfig::default()));
        let open = built.attach_cxl_host(
            0,
            CxlHostConfig {
                mode: CxlHostMode::OpenLoop,
                requests: 64,
                write_every: 4,
                ..CxlHostConfig::default()
            },
        );
        let chase = built.attach_cxl_host(
            1,
            CxlHostConfig {
                mode: CxlHostMode::PointerChase,
                requests: 48,
                chain_blocks: 16,
                ..CxlHostConfig::default()
            },
        );
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(open.borrow().done && chase.borrow().done);
        (built.sim.now(), built.sim.stats().fnv())
    };
    let (time, fnv) = run();
    assert_eq!(run(), (time, fnv), "repeated builds must agree");
    assert_eq!(time, GOLDEN_CXL_TIME, "got {time}");
    assert_eq!(fnv, GOLDEN_CXL_FNV, "got {fnv:#018x}");
}

/// The local-DRAM / CXL-direct / behind-switch latency deltas are exactly
/// the hand-computed span sums (Table II style): every chase hop over an
/// idle fabric costs the sum of the CPU overhead, memory-bus frontend,
/// router traversals, link serialization, and device access latency —
/// nothing more, nothing less.
#[test]
fn cxl_latency_deltas_match_hand_computed_span_sums() {
    use pcisim::kernel::tick::to_ns;
    use pcisim::pcie::params::{LinkConfig, LinkWidth};
    use pcisim::pcie::router::RouterConfig;
    use pcisim::pcie::tlp::tlp_wire_bytes;
    use pcisim::system::experiments::{run_cold, CxlExperiment, CxlPlacement};
    use pcisim::system::prelude::CxlExpanderConfig;
    use pcisim::system::workload::cxl::{CxlHostConfig, CxlHostMode};

    let chase = |placement| CxlExperiment {
        placement,
        mode: CxlHostMode::PointerChase,
        requests: 32,
        chain_blocks: 16,
        ..CxlExperiment::default()
    };
    let local = run_cold(&chase(CxlPlacement::LocalDram));
    let direct = run_cold(&chase(CxlPlacement::Direct));
    let switched = run_cold(&chase(CxlPlacement::BehindSwitch));
    for o in [&local, &direct, &switched] {
        assert!(o.completed);
        // A serial chase over an idle fabric: every hop costs the same.
        assert_eq!(o.min_ns.to_bits(), o.max_ns.to_bits(), "hop latency must be constant");
    }

    // The span sums, in picosecond ticks, from the very configs the
    // presets are built with.
    let cpu = CxlHostConfig::default().cpu_overhead;
    let membus = 2 * ns(5); // builder membus_frontend, request + response
    let dram = ns(30) + 64 * TICKS_PER_SEC / 25_600_000_000; // latency + 64 B transfer
    let local_hop = cpu + membus + dram;

    let link = LinkConfig::new(Generation::Gen3, LinkWidth::X8); // the presets' CXL link
    let router = RouterConfig::default().latency; // RC and switch alike
    let req_tx = link.tx_time(tlp_wire_bytes(0)); // CxlMemRd carries no payload
    let drs_tx = link.tx_time(tlp_wire_bytes(64)); // 64 B CxlMemDrs
    let expander = CxlExpanderConfig::default();
    let access = expander.access_latency + 64 * TICKS_PER_SEC / expander.bytes_per_sec;
    let direct_hop = cpu + membus + 2 * router + req_tx + drs_tx + access;
    // One more store-and-forward hop each way: switch latency plus the
    // extra link's serialization.
    let switch_extra = 2 * router + req_tx + drs_tx;

    assert_eq!(local.min_ns.to_bits(), to_ns(local_hop).to_bits(), "local DRAM span sum");
    assert_eq!(direct.min_ns.to_bits(), to_ns(direct_hop).to_bits(), "CXL direct span sum");
    assert_eq!(
        switched.min_ns.to_bits(),
        to_ns(direct_hop + switch_extra).to_bits(),
        "behind-switch span sum"
    );
}

/// Topology contention sweeps parallelize like every other sweep:
/// `--jobs N` over shared-vs-split experiments is bit-identical to the
/// serial reference.
#[test]
fn topology_sweep_serial_equals_parallel() {
    use pcisim::system::experiments::{
        run_topology_experiment, TopologyExperiment, TopologyOutcome,
    };

    let fingerprint = |o: &TopologyOutcome| {
        let arm = |a: &pcisim::system::experiments::ContentionOutcome| {
            [
                a.per_stream_gbps[0].to_bits(),
                a.per_stream_gbps[1].to_bits(),
                a.p99_dma_read_ns[0].to_bits(),
                a.p99_dma_read_ns[1].to_bits(),
                u64::from(a.completed),
            ]
        };
        [arm(&o.shared), arm(&o.split)]
    };
    let configs: Vec<TopologyExperiment> = [32u32, 48, 64]
        .into_iter()
        .map(|frames| TopologyExperiment { frames, ..TopologyExperiment::default() })
        .collect();
    let serial = run_sweep(&configs, 1, run_topology_experiment);
    let parallel = run_sweep(&configs, 4, run_topology_experiment);
    let fp = |v: &[TopologyOutcome]| v.iter().map(fingerprint).collect::<Vec<_>>();
    assert_eq!(fp(&serial), fp(&parallel));
}

/// MSI-X interrupt-delivery sweeps parallelize like every other sweep:
/// queue counts and moderation holdoffs fanned across threads are
/// bit-identical to the serial reference.
#[test]
fn msix_sweep_serial_equals_parallel() {
    use pcisim::kernel::tick::us;
    use pcisim::system::experiments::{run_cold, MsixTxExperiment, MsixTxOutcome};

    let fingerprint = |o: &MsixTxOutcome| {
        [
            o.throughput_gbps.to_bits(),
            o.frames_per_sec.to_bits(),
            o.irqs,
            o.irqs_coalesced,
            u64::from(o.completed),
        ]
    };
    let configs: Vec<MsixTxExperiment> = [(1u32, 0u64), (2, 0), (4, 0), (4, 20)]
        .into_iter()
        .map(|(queues, holdoff)| MsixTxExperiment {
            queues,
            frames: 64,
            moderation: us(holdoff),
            ..MsixTxExperiment::default()
        })
        .collect();
    let serial = run_sweep(&configs, 1, run_cold);
    let parallel = run_sweep(&configs, 4, run_cold);
    let fp = |v: &[MsixTxOutcome]| v.iter().map(fingerprint).collect::<Vec<_>>();
    assert_eq!(fp(&serial), fp(&parallel));
}

// Golden anchor for the virtio device family: the mixed virtio tree
// (blk + net behind a switch, IDE disk on the second root port) driving
// a queued blk read stream, a net transmit stream and a dd read,
// recorded when the virtio transport landed. Quiesce time and the full
// stats fingerprint must both hold.
const GOLDEN_VIRTIO_TIME: u64 = 627_132_600;
const GOLDEN_VIRTIO_FNV: u64 = 0x9a52_8e4c_b2dd_128f;

/// The mixed virtio preset quiesces at the recorded tick with the
/// recorded stats fingerprint — and does so twice in a row.
#[test]
fn virtio_mixed_topology_matches_golden() {
    use pcisim::devices::virtio::{VirtioClass, VirtioConfig};
    use pcisim::system::topology::{build_topology, Topology};
    use pcisim::system::workload::virtio::VirtioAppConfig;

    let run = || {
        let mut built = build_topology(Topology::virtio_mixed(
            VirtioConfig::default(),
            VirtioConfig { class: VirtioClass::Net, ..VirtioConfig::default() },
        ));
        let blk = built.attach_virtio(
            0,
            VirtioAppConfig { requests: 32, queue_depth: 4, ..VirtioAppConfig::default() },
        );
        let net = built.attach_virtio(
            1,
            VirtioAppConfig {
                requests: 24,
                queue_depth: 2,
                request_bytes: 1514,
                ..VirtioAppConfig::default()
            },
        );
        let dd = built.attach_dd(2, DdConfig { block_bytes: 64 * KB, ..DdConfig::default() });
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(blk.borrow().done && net.borrow().done && dd.borrow().done);
        (built.sim.now(), built.sim.stats().fnv())
    };
    let (time, fnv) = run();
    assert_eq!(run(), (time, fnv), "repeated builds must agree");
    assert_eq!(time, GOLDEN_VIRTIO_TIME, "got {time}");
    assert_eq!(fnv, GOLDEN_VIRTIO_FNV, "got {fnv:#018x}");
}

/// The virtio-blk media model adds exactly its hand-computed span sum
/// to every request (Table II style): on an idle QD1 fabric each
/// doorbell-to-retirement latency contains the media term — the constant
/// access latency plus the per-sector overhead times the request's
/// 512 B sectors — exactly once, so reconfiguring the media shifts min,
/// max and the whole 16-request latency sum by exactly the configured
/// delta. Nothing more, nothing less.
#[test]
fn virtio_blk_latency_deltas_match_hand_computed_span_sums() {
    use pcisim::devices::virtio::VirtioConfig;
    use pcisim::kernel::tick::{us, Tick};
    use pcisim::system::topology::{build_topology, Topology};
    use pcisim::system::workload::virtio::{VirtioAppConfig, VirtioReport};

    // A QD1 read stream: the device walks one chain at a time, so each
    // request's critical path contains the media timer exactly once.
    let run = |device: VirtioConfig| -> VirtioReport {
        let mut built = build_topology(Topology::virtio_blk_direct(device));
        let report = built.attach_virtio(
            0,
            VirtioAppConfig {
                requests: 16,
                queue_depth: 1,
                request_bytes: 4096,
                ..VirtioAppConfig::default()
            },
        );
        assert_eq!(built.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        assert!(r.done && r.requests == 16);
        r
    };

    let sectors: Tick = 4096 / 512;
    let baseline = run(VirtioConfig::default()); // us(1) + 8 x ns(300)
    let slow_media = run(VirtioConfig { access_latency: us(3), ..VirtioConfig::default() });
    let slow_sectors =
        run(VirtioConfig { per_sector_overhead: ns(700), ..VirtioConfig::default() });

    // A serial stream over an idle fabric: every request costs the same.
    for r in [&baseline, &slow_media, &slow_sectors] {
        assert_eq!(r.lat_min, r.lat_max, "hop latency must be constant");
        assert_eq!(r.lat_sum, 16 * r.lat_min, "every request identical");
    }

    // The hand-computed span deltas, in picosecond ticks, from the very
    // configs the runs were built with.
    let media_delta = us(3) - us(1);
    let sector_delta = (ns(700) - ns(300)) * sectors;
    assert_eq!(slow_media.lat_min, baseline.lat_min + media_delta, "access-latency span sum");
    assert_eq!(slow_sectors.lat_min, baseline.lat_min + sector_delta, "per-sector span sum");
}
