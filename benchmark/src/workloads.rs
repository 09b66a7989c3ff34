//! The eight workloads: what each builds, how big it is, what an "op" is
//! and how its outputs are checked.
//!
//! The simulator is driven only through `system::topology` (presets,
//! `build_topology`, `build_topology_sharded`, the `attach_*` methods) and
//! the kernel's public run/stats/trace functions — never through
//! `system::experiments::run_*` or the `SystemConfig` builders, which the
//! roadmap's "one builder, one runner" item deletes.

use pcisim_devices::cxl::CxlExpanderConfig;
use pcisim_devices::nic::NicConfig;
use pcisim_devices::traffic::{
    ArrivalProcess, SizeDist, Splitmix64, TrafficConfig, TrafficGen, TrafficSpec,
};
use pcisim_devices::virtio::VirtioConfig;
use pcisim_kernel::prelude::*;
use pcisim_kernel::shard::ShardedSimulator;
use pcisim_kernel::tick::{gbps, to_ns};
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::RouterConfig;
use pcisim_system::builder::DeviceSpec;
use pcisim_system::topology::{
    build_topology, build_topology_sharded, Attachment, Node, Topology, TopologySystem,
};
use pcisim_system::workload::cxl::{CxlHostConfig, CxlHostMode};
use pcisim_system::workload::dd::{DdConfig, DdReportHandle};
use pcisim_system::workload::mmio::MmioProbeConfig;
use pcisim_system::workload::pmd::PmdConfig;
use pcisim_system::workload::virtio::VirtioAppConfig;

use crate::spans::Spans;

/// End of the simulated boot phase (driver bring-up timers, first MMIO
/// programming). The value of `system::experiments::WARMUP_TICK`, copied
/// so the harness does not depend on the module the roadmap plans to fold.
pub const WARMUP_TICK: Tick = us(100);

/// Event budget no workload comes near; a run that hits it has hung.
const MAX_EVENTS: u64 = 2_000_000_000;

/// Bytes per `dd` sector, the op of the disk workloads.
const SECTOR: u64 = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DdValidation,
    DdX8Replay,
    MmioTable2,
    VirtioBlkQd8,
    NicPmdRx,
    Fanout32Dd,
    Fanout32DdShard2,
    HostDramMix,
}

/// A paper figure the workload's simulated answer is compared with.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    pub what: &'static str,
    pub paper: f64,
}

#[derive(Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub kind: Kind,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub op: &'static str,
    /// Ops of one repetition before the seed's <1 % size jitter.
    pub base_ops: u64,
    /// Ops of the traced run (about 1/16 scale, at most 2 M trace events).
    pub traced_ops: u64,
    /// Builds timed together as one `setup_s` sample, sized so a sample
    /// takes 0.2–0.5 s (one validation build is ~20 µs: far too small to
    /// time once).
    pub setup_builds: u32,
    /// Repetitions a run makes at least, however short `--seconds` is.
    pub min_reps: u32,
    /// Seconds of untimed repetitions before the first timed one.
    pub warmup_s: f64,
    pub anchor: Option<Anchor>,
}

/// Physical Gen 2 x1 `dd` throughput the paper validates against (§VI-A),
/// the deep-buffer saturation throughput of Fig. 9(d), and the Table II
/// MMIO read latency at a 150 ns root complex: the `bench::reference`
/// constants, copied so the package builds without `crates/bench`.
const PHYS_DD_GBPS: f64 = 3.1;
const SATURATION_GBPS: f64 = 5.08;
const TABLE_II_150NS: f64 = 517.0;

pub static WORKLOADS: [WorkloadDef; 8] = [
    WorkloadDef {
        name: "dd_validation",
        kind: Kind::DdValidation,
        why: "The paper's Fig. 9 point and accuracy anchor: one dd stream over disk-x1-switch-x4-RC, clean ACK path; link and router own most events, the device almost none",
        op: "4 KB sectors",
        base_ops: 4096,
        traced_ops: 256,
        setup_builds: 15000,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: Some(Anchor { what: "physical dd Gb/s", paper: PHYS_DD_GBPS }),
    },
    WorkloadDef {
        name: "dd_x8_replay",
        kind: Kind::DdX8Replay,
        why: "Same tree with every link x8: the congested replay/timeout/refusal regime, so a link fast-path gain that costs the replay path shows here",
        op: "4 KB sectors",
        base_ops: 4096,
        traced_ops: 256,
        setup_builds: 15000,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: Some(Anchor { what: "saturated dd Gb/s", paper: SATURATION_GBPS }),
    },
    WorkloadDef {
        name: "mmio_table2",
        kind: Kind::MmioTable2,
        why: "Table II accuracy anchor: 4-byte MMIO reads to a NIC on a root port, latency-bound with one event in flight, so the calendar is near-empty and no switch, DMA or DRAM runs",
        op: "MMIO reads",
        base_ops: 500_000,
        traced_ops: 31_250,
        setup_builds: 1600,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: Some(Anchor { what: "MMIO read ns", paper: TABLE_II_150NS }),
    },
    WorkloadDef {
        name: "virtio_blk_qd8",
        kind: Kind::VirtioBlkQd8,
        why: "Device-protocol-heavy: 4 KB virtio-blk reads at queue depth 8 walk rings with 2/4/16-byte DMAs, reads and writes, INTx; the host fabric carries a third of the events",
        op: "virtio chains",
        base_ops: 8192,
        traced_ops: 512,
        setup_builds: 400,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: None,
    },
    WorkloadDef {
        name: "nic_pmd_rx",
        kind: Kind::NicPmdRx,
        why: "Open loop in simulated time: a seeded 1M-flow Pareto/Poisson source feeds a busy-polling driver, MMIO polling beside upstream DMA writes, zero interrupts; the seed really changes this input",
        op: "frames",
        base_ops: 32_768,
        traced_ops: 2048,
        setup_builds: 25000,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: None,
    },
    WorkloadDef {
        name: "fanout32_dd",
        kind: Kind::Fanout32Dd,
        why: "32 concurrent dd streams over fanout(2,4,4) on the serial kernel: deepest calendar occupancy, router arbitration, the largest build",
        op: "4 KB sectors",
        base_ops: 1024,
        traced_ops: 64,
        setup_builds: 1400,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: None,
    },
    WorkloadDef {
        name: "fanout32_dd_shard2",
        kind: Kind::Fanout32DdShard2,
        why: "The only user of kernel::shard: the fanout tree on 2 shards, with a serial run of the same input first as identity oracle and speedup denominator",
        op: "4 KB sectors",
        base_ops: 128,
        traced_ops: 32,
        setup_builds: 700,
        min_reps: 5,
        warmup_s: 4.0,
        anchor: None,
    },
    WorkloadDef {
        name: "host_dram_mix",
        kind: Kind::HostDramMix,
        why: "Bypass workload: loads and stores to local DRAM on the cxl_direct tree, so the link, router and expander are built but carry no timed traffic; a pcie or devices change must not move it",
        op: "memory accesses",
        base_ops: 2_500_000,
        traced_ops: 156_250,
        setup_builds: 600,
        min_reps: 5,
        warmup_s: 0.0,
        anchor: None,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The inputs of one repetition, made from the seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Input {
    pub ops: u64,
    /// Seeds the NIC's traffic source.
    pub stream_seed: u64,
}

impl WorkloadDef {
    /// Full-scale input: the base size plus a seed-chosen jitter under 1 %,
    /// so seeds differ while op-normalised rates stay comparable.
    pub fn input(&self, seed: u64) -> Input {
        let mut rng = Splitmix64::new(seed ^ fnv(self.name.bytes()));
        let jitter = rng.next_u64() % (self.base_ops / 128 + 1);
        Input { ops: self.base_ops + jitter, stream_seed: rng.next_u64() }
    }

    /// Shards the workload's timed run is split over (1 = the serial kernel).
    pub fn shards(&self) -> usize {
        if self.kind == Kind::Fanout32DdShard2 {
            2
        } else {
            1
        }
    }

    /// Whether the endpoints are IDE disks (the `devices.ide` layer).
    pub fn reads_disks(&self) -> bool {
        matches!(
            self.kind,
            Kind::DdValidation | Kind::DdX8Replay | Kind::Fanout32Dd | Kind::Fanout32DdShard2
        )
    }

    /// The traced run's input: fixed small size, same seeded stream.
    pub fn traced_input(&self, seed: u64) -> Input {
        Input { ops: self.traced_ops, ..self.input(seed) }
    }
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The serial kernel or the sharded driver, behind the calls the harness
/// makes on either.
pub enum Driver {
    Serial(Box<Simulation>),
    Sharded(Box<ShardedSimulator>),
}

impl Driver {
    pub fn run(&mut self, until: Tick) -> RunOutcome {
        match self {
            Driver::Serial(sim) => sim.run(until, MAX_EVENTS),
            Driver::Sharded(sim) => sim.run(until, MAX_EVENTS),
        }
    }

    pub fn now(&self) -> Tick {
        match self {
            Driver::Serial(sim) => sim.now(),
            Driver::Sharded(sim) => sim.now(),
        }
    }

    pub fn events_processed(&self) -> u64 {
        match self {
            Driver::Serial(sim) => sim.events_processed(),
            Driver::Sharded(sim) => sim.events_processed(),
        }
    }

    pub fn stats(&self) -> StatsSnapshot {
        match self {
            Driver::Serial(sim) => sim.stats(),
            Driver::Sharded(sim) => sim.stats(),
        }
    }

    pub fn set_trace_capacity(&mut self, capacity: usize) {
        match self {
            Driver::Serial(sim) => sim.set_trace_capacity(capacity),
            Driver::Sharded(sim) => sim.set_trace_capacity(capacity),
        }
    }

    pub fn take_trace(&mut self) -> TraceLog {
        match self {
            Driver::Serial(sim) => sim.take_trace(),
            Driver::Sharded(sim) => sim.take_trace(),
        }
    }
}

/// What a finished repetition produced, as the workload's own report and
/// the statistics tell it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub ops_completed: u64,
    /// Named outcome fields: compared between repetitions, with the serial
    /// oracle and with `goldens.json`.
    pub fields: Vec<(&'static str, u64)>,
    pub sim_gbps: f64,
    pub sim_latency_mean_ns: f64,
    /// The simulated value the paper anchor is compared with.
    pub model_value: Option<f64>,
    /// Output checks that failed; empty when the outputs are correct.
    pub faults: Vec<String>,
}

type Collect = Box<dyn FnOnce(&StatsSnapshot) -> Outcome>;

/// A built, attached system ready to run.
pub struct Prepared {
    pub driver: Driver,
    collect: Collect,
}

impl Prepared {
    pub fn collect(self, stats: &StatsSnapshot) -> Outcome {
        (self.collect)(stats)
    }
}

fn stat(stats: &StatsSnapshot, key: &str) -> u64 {
    stats.get(key).unwrap_or(0.0) as u64
}

fn expect_eq(faults: &mut Vec<String>, what: &str, got: u64, want: u64) {
    if got != want {
        faults.push(format!("{what}: got {got}, expected {want}"));
    }
}

/// The paper's validation tree, optionally with every link at `width`
/// (Fig. 9(b) widens all links together).
fn dd_tree(width: Option<LinkWidth>) -> Topology {
    let mut topo = Topology::validation();
    if let Some(width) = width {
        let link = || LinkConfig::new(Generation::Gen2, width);
        for root in topo.root_ports.iter_mut().flatten() {
            root.link = link();
            if let Node::Switch { ports, .. } = &mut root.node {
                for port in ports.iter_mut().flatten() {
                    port.link = link();
                }
            }
        }
    }
    topo
}

/// A NIC directly on root port 0 over Gen 2 x1 (the Table II setup), two
/// empty root ports beside it.
fn nic_tree(nic: NicConfig) -> Topology {
    let root = Attachment::named(
        "root_link",
        LinkConfig::new(Generation::Gen2, LinkWidth::X1),
        Node::endpoint("nic", DeviceSpec::Nic(nic)),
    );
    let rc = RouterConfig { completion_timeout: Some(us(50)), ..RouterConfig::default() };
    Topology::new(rc, vec![Some(root), None, None])
}

fn pmd_traffic(input: &Input) -> TrafficConfig {
    TrafficConfig {
        seed: input.stream_seed,
        flows: 1 << 20,
        frames: input.ops as u32,
        size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
        arrival: ArrivalProcess::Poisson(ns(2500)),
    }
}

/// Sectors each of `disks` reads when `total` are spread as evenly as
/// whole sectors allow.
fn sectors_of(disk: usize, disks: usize, total: u64) -> u64 {
    total / disks as u64 + u64::from((disk as u64) < total % disks as u64)
}

fn dd_outcome(reports: &[DdReportHandle], stats: &StatsSnapshot, sectors: u64) -> Outcome {
    let mut faults = Vec::new();
    let (mut bytes, mut commands, mut start, mut end, mut end_sum) = (0, 0, Tick::MAX, 0, 0u64);
    for (i, report) in reports.iter().enumerate() {
        let r = report.borrow();
        if !r.done {
            faults.push(format!("dd{i} never finished"));
        }
        bytes += r.bytes;
        commands += r.commands;
        start = start.min(r.start);
        end = end.max(r.end);
        end_sum = end_sum.wrapping_add(r.end);
    }
    let disk_sectors: u64 = stats
        .iter()
        .filter(|(k, _)| k.starts_with("disk") && k.ends_with(".sectors"))
        .map(|(_, v)| v as u64)
        .sum();
    expect_eq(&mut faults, "sectors the disks served", disk_sectors, sectors);
    expect_eq(&mut faults, "bytes dd received", bytes, sectors * SECTOR);
    let elapsed = end.saturating_sub(start);
    Outcome {
        ops_completed: bytes / SECTOR,
        fields: vec![
            ("bytes", bytes),
            ("commands", commands),
            ("first_start", start),
            ("last_end", end),
            ("end_sum", end_sum),
        ],
        sim_gbps: gbps(bytes, elapsed),
        sim_latency_mean_ns: if commands > 0 {
            to_ns(elapsed) * reports.len() as f64 / commands as f64
        } else {
            0.0
        },
        model_value: Some(gbps(bytes, elapsed)),
        faults,
    }
}

fn attach_all_dd(
    endpoints: usize,
    total_sectors: u64,
    mut attach: impl FnMut(usize, DdConfig) -> DdReportHandle,
) -> Vec<DdReportHandle> {
    (0..endpoints)
        .map(|i| {
            let block_bytes = sectors_of(i, endpoints, total_sectors) * SECTOR;
            attach(i, DdConfig { block_bytes, ..DdConfig::default() })
        })
        .collect()
}

/// Plans, builds and enumerates the workload's system (`system.build`) and
/// attaches its traffic (`system.attach`). `shards` above 1 builds the
/// sharded driver; `trace` turns every trace category on.
pub fn prepare(
    def: &WorkloadDef,
    input: &Input,
    shards: usize,
    trace: bool,
    spans: &mut Spans,
) -> Prepared {
    let mask = if trace { TraceCategory::ALL } else { 0 };
    let serial = |topo: Topology, spans: &mut Spans| -> TopologySystem {
        spans.span("system.build", |_| build_topology(Topology { trace_mask: mask, ..topo }))
    };
    let ops = input.ops;
    match def.kind {
        Kind::DdValidation | Kind::DdX8Replay => {
            let width = (def.kind == Kind::DdX8Replay).then_some(LinkWidth::X8);
            let mut sys = serial(dd_tree(width), spans);
            let reports =
                spans.span("system.attach", |_| {
                    vec![sys.attach_dd(
                        0,
                        DdConfig { block_bytes: ops * SECTOR, ..DdConfig::default() },
                    )]
                });
            Prepared {
                driver: Driver::Serial(Box::new(sys.sim)),
                collect: Box::new(move |stats| {
                    let mut outcome = dd_outcome(&reports, stats, ops);
                    expect_eq(
                        &mut outcome.faults,
                        "bytes DRAM stored",
                        stat(stats, "dram.bytes"),
                        ops * SECTOR,
                    );
                    outcome
                }),
            }
        }
        Kind::MmioTable2 => {
            let mut sys = serial(nic_tree(NicConfig::default()), spans);
            let report = spans.span("system.attach", |_| {
                sys.attach_mmio_probe(
                    0,
                    MmioProbeConfig {
                        reads: ops as u32,
                        cpu_overhead: ns(70),
                        ..MmioProbeConfig::default()
                    },
                )
            });
            Prepared {
                driver: Driver::Serial(Box::new(sys.sim)),
                collect: Box::new(move |stats| {
                    let r = report.borrow();
                    let mut faults = Vec::new();
                    if !r.done {
                        faults.push("probe never finished".into());
                    }
                    let settled = r.latencies.iter().filter(|&&l| l > 0).count() as u64;
                    expect_eq(
                        &mut faults,
                        "register reads the NIC served",
                        stat(stats, "nic.mmio_reads"),
                        ops,
                    );
                    let sum: Tick = r.latencies.iter().sum();
                    Outcome {
                        ops_completed: settled,
                        fields: vec![
                            ("reads", r.latencies.len() as u64),
                            ("latency_sum", sum),
                            ("latency_min", r.latencies.iter().copied().min().unwrap_or(0)),
                            ("latency_max", r.latencies.iter().copied().max().unwrap_or(0)),
                        ],
                        sim_gbps: 0.0,
                        sim_latency_mean_ns: r.mean_ns(),
                        model_value: Some(r.mean_ns()),
                        faults,
                    }
                }),
            }
        }
        Kind::VirtioBlkQd8 => {
            let mut sys = serial(Topology::virtio_blk_direct(VirtioConfig::default()), spans);
            let report = spans.span("system.attach", |_| {
                sys.attach_virtio(
                    0,
                    VirtioAppConfig {
                        requests: ops as u32,
                        queue_depth: 8,
                        request_bytes: SECTOR as u32,
                        ..VirtioAppConfig::default()
                    },
                )
            });
            Prepared {
                driver: Driver::Serial(Box::new(sys.sim)),
                collect: Box::new(move |stats| {
                    let r = report.borrow();
                    let mut faults = Vec::new();
                    if !r.done {
                        faults.push("driver never retired every chain".into());
                    }
                    expect_eq(
                        &mut faults,
                        "chains the device used",
                        stat(stats, "vblk0.chains_used"),
                        ops,
                    );
                    expect_eq(
                        &mut faults,
                        "payload bytes written to guest memory",
                        stat(stats, "vblk0.payload_bytes_written"),
                        ops * SECTOR,
                    );
                    expect_eq(
                        &mut faults,
                        "descriptor faults",
                        stat(stats, "vblk0.desc_faults"),
                        0,
                    );
                    expect_eq(&mut faults, "bytes the driver received", r.bytes, ops * SECTOR);
                    Outcome {
                        ops_completed: r.requests,
                        fields: vec![
                            ("requests", r.requests),
                            ("bytes", r.bytes),
                            ("irqs", r.irqs),
                            ("latency_sum", r.lat_sum),
                            ("latency_min", r.lat_min),
                            ("latency_max", r.lat_max),
                            ("start", r.start),
                            ("end", r.end),
                        ],
                        sim_gbps: r.throughput_gbps(),
                        sim_latency_mean_ns: r.mean_latency() / 1e3,
                        model_value: None,
                        faults,
                    }
                }),
            }
        }
        Kind::NicPmdRx => {
            let traffic = pmd_traffic(input);
            let nic = NicConfig {
                rx_source: Some(TrafficSpec::Generate(traffic)),
                ..NicConfig::default()
            };
            let mut sys = serial(nic_tree(nic), spans);
            let report = spans.span("system.attach", |_| {
                sys.attach_pmd(
                    0,
                    PmdConfig {
                        burst: 16,
                        tx_frames: 0,
                        rx_expect: ops as u32,
                        ..PmdConfig::default()
                    },
                )
            });
            Prepared {
                driver: Driver::Serial(Box::new(sys.sim)),
                collect: Box::new(move |stats| {
                    let r = report.borrow();
                    let mut faults = Vec::new();
                    if !r.done {
                        faults.push("poll loop never settled".into());
                    }
                    expect_eq(
                        &mut faults,
                        "interrupts taken in poll mode",
                        stat(stats, "gic.raised"),
                        0,
                    );
                    // The harness regenerates the seeded stream itself: with
                    // no modelled drops every offered byte must arrive.
                    let mut offered = TrafficGen::new(traffic);
                    let offered_bytes: u64 = std::iter::from_fn(|| offered.next_frame())
                        .map(|f| u64::from(f.bytes))
                        .sum();
                    if r.rx_dropped == 0 {
                        expect_eq(
                            &mut faults,
                            "payload bytes delivered",
                            r.rx_bytes,
                            offered_bytes,
                        );
                    } else if r.rx_bytes >= offered_bytes {
                        faults.push(format!("{} drops but no payload missing", r.rx_dropped));
                    }
                    Outcome {
                        // A FIFO-overrun drop is the model's answer for that
                        // frame, not a failed op: settled = delivered + dropped.
                        ops_completed: r.rx_frames + r.rx_dropped,
                        fields: vec![
                            ("rx_frames", r.rx_frames),
                            ("rx_bytes", r.rx_bytes),
                            ("rx_dropped", r.rx_dropped),
                            ("polls", r.polls),
                            ("start", r.start),
                            ("end", r.end),
                        ],
                        sim_gbps: r.rx_throughput_gbps(),
                        sim_latency_mean_ns: stats.get("nic.rx_frame_latency.mean").unwrap_or(0.0)
                            / 1e3,
                        model_value: None,
                        faults,
                    }
                }),
            }
        }
        Kind::Fanout32Dd | Kind::Fanout32DdShard2 => {
            let topo = Topology { trace_mask: mask, ..Topology::fanout(2, 4, 4) };
            let (driver, reports) = if shards > 1 {
                let mut sys = spans.span("system.build", |_| build_topology_sharded(topo, shards));
                let reports = spans.span("system.attach", |_| {
                    attach_all_dd(sys.endpoints.len(), ops, |i, cfg| sys.attach_dd(i, cfg))
                });
                (Driver::Sharded(Box::new(sys.into_driver())), reports)
            } else {
                let mut sys = spans.span("system.build", |_| build_topology(topo));
                let reports = spans.span("system.attach", |_| {
                    attach_all_dd(sys.endpoints.len(), ops, |i, cfg| sys.attach_dd(i, cfg))
                });
                (Driver::Serial(Box::new(sys.sim)), reports)
            };
            Prepared {
                driver,
                collect: Box::new(move |stats| Outcome {
                    model_value: None,
                    ..dd_outcome(&reports, stats, ops)
                }),
            }
        }
        Kind::HostDramMix => {
            let mut sys = serial(Topology::cxl_direct(CxlExpanderConfig::default()), spans);
            let report = spans.span("system.attach", |_| {
                sys.attach_dram_host(
                    0,
                    CxlHostConfig {
                        mode: CxlHostMode::OpenLoop,
                        requests: ops as u32,
                        outstanding: 8,
                        write_every: 4,
                        ..CxlHostConfig::default()
                    },
                )
            });
            Prepared {
                driver: Driver::Serial(Box::new(sys.sim)),
                collect: Box::new(move |stats| {
                    let r = report.borrow();
                    let mut faults = Vec::new();
                    if !r.done {
                        faults.push("stream never completed".into());
                    }
                    let (reads, writes) = (stat(stats, "dram.reads"), stat(stats, "dram.writes"));
                    expect_eq(&mut faults, "accesses DRAM served", reads + writes, ops);
                    expect_eq(
                        &mut faults,
                        "stores DRAM served (every 4th access)",
                        writes,
                        ops / 4,
                    );
                    expect_eq(
                        &mut faults,
                        "TLPs the bypassed root complex routed",
                        stat(stats, "rc.requests"),
                        0,
                    );
                    let sum: Tick = r.latencies.iter().sum();
                    Outcome {
                        ops_completed: r.completed,
                        fields: vec![
                            ("issued", r.issued),
                            ("completed", r.completed),
                            ("bytes", r.bytes),
                            ("stalls", r.stalls),
                            ("latency_sum", sum),
                            ("start", r.start.unwrap_or(0)),
                            ("end", r.end.unwrap_or(0)),
                        ],
                        sim_gbps: r.throughput_gbps(),
                        sim_latency_mean_ns: r.mean_ns(),
                        model_value: None,
                        faults,
                    }
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_stay_within_one_percent() {
        for def in &WORKLOADS {
            assert_eq!(def.input(7), def.input(7), "{}", def.name);
            let mut distinct = std::collections::BTreeSet::new();
            for seed in 0..64 {
                let input = def.input(seed);
                assert!(
                    input.ops >= def.base_ops && input.ops * 100 <= def.base_ops * 101,
                    "{}",
                    def.name
                );
                distinct.insert((input.ops, input.stream_seed));
            }
            assert!(distinct.len() > 1, "{}: the seed must change the input", def.name);
        }
    }

    #[test]
    fn sectors_spread_over_disks_add_up() {
        for total in [256, 257, 1024, 1031] {
            assert_eq!((0..32).map(|d| sectors_of(d, 32, total)).sum::<u64>(), total);
        }
    }
}
