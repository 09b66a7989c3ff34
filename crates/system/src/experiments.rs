//! The experiments of the paper's evaluation (§VI) and the one way to run
//! them.
//!
//! An [`Experiment`] describes a run in three steps — the tree it needs
//! ([`Experiment::topology`]), the workloads it attaches
//! ([`Experiment::attach`]) and how the finished run is distilled
//! ([`Experiment::collect`]). [`run`] drives any experiment through the
//! same builder and the same driver, [`Exec`] saying only *how*: cold, or
//! resumed from a [`checkpoint_at`] snapshot restored into the same fresh
//! build. Each figure/table of the paper is one `Experiment`
//! impl: `dd` throughput, the percentage of TLPs that were replayed, the
//! percentage that suffered a replay-timeout, and MMIO read latency.

use std::time::Instant;

use pcisim_devices::cxl::CxlExpanderConfig;
use pcisim_devices::ide::IdeDiskConfig;
use pcisim_devices::nic::NicConfig;
use pcisim_devices::virtio::{VirtioClass, VirtioConfig};
use pcisim_kernel::sim::RunOutcome;
use pcisim_kernel::stats::StatsSnapshot;
use pcisim_kernel::tick::{self, to_ns, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceLog};
use pcisim_pci::caps::aer_status;
use pcisim_pci::host::SharedRegistry;
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::RouterConfig;

use crate::topology::{
    build_topology, DeviceSpec, EndpointHandle, EndpointKind, Topology, TopologySystem,
};
use crate::traffic::TrafficSpec;
use crate::workload::cxl::{CxlHostConfig, CxlHostMode, CxlHostReportHandle};
use crate::workload::dd::{DdConfig, DdReportHandle};
use crate::workload::mmio::{MmioProbeConfig, MmioReportHandle};
use crate::workload::msix::{MsixTxConfig, MsixTxReportHandle};
use crate::workload::nic_rx::{NicRxConfig, NicRxReportHandle};
use crate::workload::nic_tx::{NicTxConfig, NicTxReportHandle};
use crate::workload::pmd::{PmdConfig, PmdReportHandle};
use crate::workload::virtio::{VirtioAppConfig, VirtioReportHandle};

/// Safety valve: no experiment should need more events than this.
const MAX_EVENTS: u64 = 20_000_000_000;
/// Safety valve: no experiment runs longer than this much simulated time.
const MAX_TIME: Tick = 60 * tick::TICKS_PER_SEC;

/// End of the simulated driver bring-up, and the tick the identity tests
/// checkpoint every experiment at ([`checkpoint_at`]).
///
/// At 100 µs the `dd` driver has finished its OS-side setup step (it runs
/// at 10 ns) but its first block submission is still 300 µs away
/// (`os_block_setup` defaults to 400 µs), so no TLP has touched the
/// fabric yet: the only pending work is the driver's armed timer.
pub const WARMUP_TICK: Tick = tick::us(100);

/// What a finished run leaves behind for [`Experiment::collect`].
pub struct Finished {
    /// Whether every queue drained (false = a safety valve tripped).
    pub drained: bool,
    /// Tick the run quiesced at.
    pub now: Tick,
    /// Total scheduler dispatches.
    pub events: u64,
    /// Final statistics of every component.
    pub stats: StatsSnapshot,
    /// The drained event trace, when the topology asked for tracing.
    pub trace: Option<TraceLog>,
    /// The PCI host registry, for post-run config-space reads.
    pub registry: SharedRegistry,
    /// The endpoint handles of the built tree.
    pub endpoints: Vec<EndpointHandle>,
    /// Host wall-clock of the run (build and attach excluded).
    pub wall_secs: f64,
}

impl Finished {
    /// A counter as an integer, zero when the component never reported it.
    fn count(&self, key: &str) -> u64 {
        self.stats.get(key).unwrap_or(0.0) as u64
    }
}

/// One configured run of the simulator: which tree, which workloads, and
/// what to report. [`run`] is the only driver.
pub trait Experiment {
    /// The report handles [`Experiment::attach`] returns.
    type Reports;
    /// What the run is distilled into.
    type Outcome;

    /// The tree this experiment runs over, fully parameterized.
    fn topology(&self) -> Topology;

    /// Attaches the experiment's workloads to the built tree.
    fn attach(&self, sys: &mut TopologySystem) -> Self::Reports;

    /// Distils the finished run.
    fn collect(&self, fin: &Finished, reports: &Self::Reports) -> Self::Outcome;
}

/// How [`run`] executes an experiment. Both arms build, enumerate and
/// probe from scratch; the outcome is bit-identical in either arm.
#[derive(Debug)]
pub enum Exec<'a> {
    /// Run from tick 0.
    Cold,
    /// Restore `snapshot` — a [`checkpoint_at`] of the same experiment —
    /// into the fresh build, then resume from its tick.
    Restore {
        /// The checkpoint to resume from.
        snapshot: &'a [u8],
    },
}

/// Builds, attaches and drives `exp`, returning the finished run before
/// [`Experiment::collect`] distils it — for callers that also want the
/// identity anchors or the host cost of the run.
///
/// # Panics
///
/// Panics when a restored snapshot was not taken from this experiment's
/// tree.
pub fn execute<E: Experiment>(exp: &E, exec: Exec<'_>) -> (Finished, E::Reports) {
    let topo = exp.topology();
    let traced = topo.trace_mask != 0;
    let mut sys = build_topology(topo);
    let reports = exp.attach(&mut sys);
    let TopologySystem { mut sim, registry, endpoints, .. } = sys;
    if let Exec::Restore { snapshot } = exec {
        sim.restore(snapshot).expect("a checkpoint restores into its own experiment's tree");
    }
    let start = Instant::now();
    let outcome = sim.run(MAX_TIME, MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    let fin = Finished {
        drained: outcome == RunOutcome::QueueEmpty,
        now: sim.now(),
        events: sim.events_processed(),
        stats: sim.stats(),
        trace: traced.then(|| sim.take_trace()),
        registry,
        endpoints,
        wall_secs,
    };
    (fin, reports)
}

/// Runs `exp` to completion the way `exec` says and returns its outcome.
pub fn run<E: Experiment>(exp: &E, exec: Exec<'_>) -> E::Outcome {
    let (fin, reports) = execute(exp, exec);
    exp.collect(&fin, &reports)
}

/// Runs `exp` cold — the common case, and the function sweeps hand to
/// [`run_sweep`](crate::sweep::run_sweep).
pub fn run_cold<E: Experiment>(exp: &E) -> E::Outcome {
    run(exp, Exec::Cold)
}

/// Builds `exp`, attaches its workloads, runs to `tick` and returns the
/// checkpoint [`Exec::Restore`] resumes from.
pub fn checkpoint_at<E: Experiment>(exp: &E, tick: Tick) -> Vec<u8> {
    let mut sys = build_topology(exp.topology());
    exp.attach(&mut sys);
    sys.sim.run(tick, MAX_EVENTS);
    sys.sim.checkpoint()
}

/// Parameters of one `dd` run over the validation topology.
#[derive(Debug, Clone)]
pub struct DdExperiment {
    /// Block size in bytes (the paper sweeps 64–512 MB).
    pub block_bytes: u64,
    /// Switch processing latency (Fig. 9(a) sweeps 50–150 ns).
    pub switch_latency: Tick,
    /// Root-complex processing latency (fixed at 150 ns in the paper).
    pub rc_latency: Tick,
    /// Width applied to *all* links, as Fig. 9(b) does; `None` keeps the
    /// validation topology's x4 root / x1 device links.
    pub width_all: Option<LinkWidth>,
    /// Replay buffer capacity per link interface (Fig. 9(c) sweeps 1–4).
    pub replay_buffer: usize,
    /// Switch/root port buffer depth (Fig. 9(d) sweeps 16–28).
    pub port_buffers: usize,
    /// Posted-write ablation (the paper's future-work discussion).
    pub posted_writes: bool,
    /// Acknowledge every TLP immediately instead of batching (ablation).
    pub ack_immediate: bool,
    /// Link generation (Gen 2 throughout the paper's evaluation).
    pub generation: Generation,
    /// Override the switch/root-complex per-port service interval
    /// (calibration knob; `None` keeps the default).
    pub service_interval: Option<Tick>,
    /// Override the disk's per-sector protocol overhead.
    pub per_sector_overhead: Option<Tick>,
    /// Credit-based flow control on every link, with this receive window
    /// (extension; `None` = the paper's ACK/NAK-only protocol).
    pub credit_fc: Option<usize>,
    /// Record a full event trace of the run (all categories); the drained
    /// [`TraceLog`] is returned in the outcome.
    pub trace: bool,
}

impl Default for DdExperiment {
    fn default() -> Self {
        Self {
            block_bytes: 64 * 1024 * 1024,
            switch_latency: tick::ns(150),
            rc_latency: tick::ns(150),
            width_all: None,
            replay_buffer: 4,
            port_buffers: 16,
            posted_writes: false,
            ack_immediate: false,
            generation: Generation::Gen2,
            service_interval: None,
            per_sector_overhead: None,
            credit_fc: None,
            trace: false,
        }
    }
}

/// Measurements from one `dd` run.
#[derive(Debug, Clone)]
pub struct DdOutcome {
    /// Throughput `dd` reports, in Gb/s.
    pub throughput_gbps: f64,
    /// Payload bytes transferred.
    pub bytes: u64,
    /// Simulated wall time of the whole run.
    pub sim_time: Tick,
    /// Replayed TLPs on the device→switch upstream link, as a percentage
    /// of TLPs transmitted there (the paper's replay metric, Fig. 9(b)).
    pub replay_pct: f64,
    /// Replay timeouts on that link per 100 transmitted TLPs
    /// (the paper's timeout metric, Fig. 9(c)/(d)).
    pub timeout_pct: f64,
    /// TLPs the device link transmitted upstream.
    pub upstream_tlps: u64,
    /// Whether the workload completed (false = safety valve tripped).
    pub completed: bool,
    /// The event trace, when the experiment asked for one.
    pub trace: Option<TraceLog>,
}

/// The validation chain's `(root, device)` links — x4 and x1, or
/// `width_all` on both — each with `knobs` applied.
fn validation_links(
    generation: Generation,
    width_all: Option<LinkWidth>,
    knobs: impl Fn(LinkConfig) -> LinkConfig,
) -> (LinkConfig, LinkConfig) {
    let (root, device) = width_all.map_or((LinkWidth::X4, LinkWidth::X1), |w| (w, w));
    (knobs(LinkConfig::new(generation, root)), knobs(LinkConfig::new(generation, device)))
}

/// Distils a finished `dd` run over the validation chain.
fn dd_outcome(fin: &Finished, report: &DdReportHandle) -> DdOutcome {
    let r = report.borrow();
    let up_tx = fin.stats.get("dev_link.up.tlps_tx").unwrap_or(0.0);
    let pct_of_tx = |key: &str| {
        if up_tx > 0.0 {
            100.0 * fin.stats.get(key).unwrap_or(0.0) / up_tx
        } else {
            0.0
        }
    };
    DdOutcome {
        throughput_gbps: r.throughput_gbps(),
        bytes: r.bytes,
        sim_time: fin.now,
        replay_pct: pct_of_tx("dev_link.up.replays"),
        timeout_pct: pct_of_tx("dev_link.up.timeouts"),
        upstream_tlps: up_tx as u64,
        completed: r.done && fin.drained,
        trace: fin.trace.clone(),
    }
}

/// One `dd` run on the paper's validation topology (disk — x1 link —
/// switch — x4 link — root complex, Gen 2 by default).
impl Experiment for DdExperiment {
    type Reports = DdReportHandle;
    type Outcome = DdOutcome;

    fn topology(&self) -> Topology {
        let tune = |router: &mut RouterConfig, latency| {
            router.latency = latency;
            router.buffer_size = self.port_buffers;
            if let Some(si) = self.service_interval {
                router.service_interval = si;
            }
        };
        let mut switch = RouterConfig::default();
        tune(&mut switch, self.switch_latency);
        let (root_link, device_link) =
            validation_links(self.generation, self.width_all, |link| LinkConfig {
                replay_buffer_size: self.replay_buffer,
                ack_immediate: self.ack_immediate,
                credit_fc: self.credit_fc,
                ..link
            });
        let mut disk =
            IdeDiskConfig { posted_writes: self.posted_writes, ..IdeDiskConfig::default() };
        if let Some(oh) = self.per_sector_overhead {
            disk.per_sector_overhead = oh;
        }
        let mut topo =
            Topology::chain(root_link, Some((switch, device_link)), DeviceSpec::Disk(disk));
        tune(&mut topo.rc, self.rc_latency);
        if self.trace {
            topo.trace_mask = TraceCategory::ALL;
        }
        topo
    }

    fn attach(&self, sys: &mut TopologySystem) -> DdReportHandle {
        sys.attach_dd(0, DdConfig { block_bytes: self.block_bytes, ..DdConfig::default() })
    }

    fn collect(&self, fin: &Finished, report: &DdReportHandle) -> DdOutcome {
        dd_outcome(fin, report)
    }
}

/// Parameters of a Table II run.
#[derive(Debug, Clone)]
pub struct MmioExperiment {
    /// Root-complex processing latency (Table II sweeps 50–150 ns).
    pub rc_latency: Tick,
    /// Number of timed 4-byte reads.
    pub reads: u32,
    /// CPU-side timing-harness overhead included in each sample.
    pub cpu_overhead: Tick,
    /// Record a full event trace of the run (all categories); the drained
    /// [`TraceLog`] is returned in the outcome.
    pub trace: bool,
}

impl Default for MmioExperiment {
    fn default() -> Self {
        Self { rc_latency: tick::ns(150), reads: 64, cpu_overhead: tick::ns(70), trace: false }
    }
}

/// Measurements from a Table II run.
#[derive(Debug, Clone)]
pub struct MmioOutcome {
    /// Mean 4-byte MMIO read latency in nanoseconds.
    pub mean_ns: f64,
    /// Fastest read.
    pub min_ns: f64,
    /// Slowest read.
    pub max_ns: f64,
    /// Whether all reads completed.
    pub completed: bool,
    /// The event trace, when the experiment asked for one.
    pub trace: Option<TraceLog>,
}

/// The Table II experiment: a NIC on root port 0, 4-byte register reads
/// timed from the CPU while the root-complex latency varies.
impl Experiment for MmioExperiment {
    type Reports = MmioReportHandle;
    type Outcome = MmioOutcome;

    fn topology(&self) -> Topology {
        let mut topo = nic_direct_topology(LinkWidth::X1, self.trace, |_| {});
        topo.rc.latency = self.rc_latency;
        topo
    }

    fn attach(&self, sys: &mut TopologySystem) -> MmioReportHandle {
        sys.attach_mmio_probe(
            0,
            MmioProbeConfig {
                reads: self.reads,
                cpu_overhead: self.cpu_overhead,
                ..MmioProbeConfig::default()
            },
        )
    }

    fn collect(&self, fin: &Finished, report: &MmioReportHandle) -> MmioOutcome {
        let r = report.borrow();
        MmioOutcome {
            mean_ns: r.mean_ns(),
            min_ns: r.min_ns(),
            max_ns: r.max_ns(),
            completed: r.done && fin.drained,
            trace: fin.trace.clone(),
        }
    }
}

/// The §VI-B device-level microbenchmark: sector throughput over the
/// device link with OS overheads removed (the paper measures 3.072 Gb/s
/// per 4 KB sector over Gen 2 x1).
#[derive(Debug, Clone)]
pub struct SectorMicrobench {
    /// Width of the Gen 2 device link.
    pub width: LinkWidth,
    /// 4 KB sectors moved by the single disk command.
    pub sectors: u32,
}

impl Experiment for SectorMicrobench {
    type Reports = DdReportHandle;
    type Outcome = DdOutcome;

    fn topology(&self) -> Topology {
        let gen2 = |width| LinkConfig::new(Generation::Gen2, width);
        let disk =
            IdeDiskConfig { access_latency: 0, per_sector_overhead: 0, ..IdeDiskConfig::default() };
        Topology::chain(
            gen2(LinkWidth::X4),
            Some((RouterConfig::default(), gen2(self.width))),
            DeviceSpec::Disk(disk),
        )
    }

    fn attach(&self, sys: &mut TopologySystem) -> DdReportHandle {
        sys.attach_dd(
            0,
            DdConfig {
                block_bytes: u64::from(self.sectors) * 4096,
                request_sectors: self.sectors,
                os_block_setup: 0,
                os_request_overhead: 0,
                ..DdConfig::default()
            },
        )
    }

    /// The wire-limit bench reports throughput only.
    fn collect(&self, fin: &Finished, report: &DdReportHandle) -> DdOutcome {
        DdOutcome { replay_pct: 0.0, timeout_pct: 0.0, ..dd_outcome(fin, report) }
    }
}

/// Parameters of one fault-campaign point: a `dd` run over the validation
/// topology with deterministic error injection on *both* links.
#[derive(Debug, Clone)]
pub struct FaultExperiment {
    /// Block size in bytes (small blocks keep campaign points fast).
    pub block_bytes: u64,
    /// Corrupt the TLP whenever `splitmix64(tx_count)` is a multiple of
    /// this; `0` disables injection (the fault-free baseline), and a
    /// *smaller* interval means *more* corruption.
    pub error_interval: u64,
    /// Link generation for both links.
    pub generation: Generation,
    /// Width applied to both links; `None` keeps the validation
    /// topology's x4 root / x1 device links.
    pub width_all: Option<LinkWidth>,
}

impl Default for FaultExperiment {
    fn default() -> Self {
        Self {
            block_bytes: 256 * 1024,
            error_interval: 0,
            generation: Generation::Gen2,
            width_all: None,
        }
    }
}

/// Measurements from one fault-campaign point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// The injection interval this point ran with (0 = fault-free).
    pub error_interval: u64,
    /// Goodput `dd` reports, in Gb/s.
    pub throughput_gbps: f64,
    /// Simulated wall time of the whole run.
    pub sim_time: Tick,
    /// TLPs dropped to injected corruption, summed over both links and
    /// both directions.
    pub corrupt_drops: u64,
    /// Replayed TLPs, summed over both links and both directions.
    pub replays: u64,
    /// NAK DLLPs transmitted, summed over both links and both directions.
    pub naks: u64,
    /// Replay timeouts, summed over both links and both directions.
    pub replay_timeouts: u64,
    /// AER correctable-status mask latched in the endpoint's config
    /// space (RECEIVER_ERROR / BAD_TLP / REPLAY_* bits).
    pub device_aer_cor: u32,
    /// AER uncorrectable-status mask latched in the endpoint's config
    /// space (should stay 0: corruption is correctable).
    pub device_aer_uncor: u32,
    /// Whether the workload completed (false = safety valve tripped).
    pub completed: bool,
}

/// One fault-campaign point: the validation `dd` workload with
/// `error_interval` applied to both links. Injection is a pure function
/// of each interface's transmit count, so the run is deterministic and
/// campaign points fan out with [`run_sweep`](crate::sweep::run_sweep).
impl Experiment for FaultExperiment {
    type Reports = DdReportHandle;
    type Outcome = FaultOutcome;

    fn topology(&self) -> Topology {
        let (root_link, device_link) = validation_links(self.generation, self.width_all, |link| {
            LinkConfig { error_interval: self.error_interval, ..link }
        });
        Topology::chain(
            root_link,
            Some((RouterConfig::default(), device_link)),
            DeviceSpec::Disk(IdeDiskConfig::default()),
        )
    }

    fn attach(&self, sys: &mut TopologySystem) -> DdReportHandle {
        sys.attach_dd(0, DdConfig { block_bytes: self.block_bytes, ..DdConfig::default() })
    }

    fn collect(&self, fin: &Finished, report: &DdReportHandle) -> FaultOutcome {
        let r = report.borrow();
        // Sum a per-interface counter over both links and both directions.
        let sum = |counter: &str| -> u64 {
            ["root_link", "dev_link"]
                .iter()
                .flat_map(|link| {
                    ["down", "up"].iter().map(move |dir| format!("{link}.{dir}.{counter}"))
                })
                .map(|key| fin.stats.get(&key).unwrap_or(0.0))
                .sum::<f64>() as u64
        };
        let (uncor, cor) = fin
            .registry
            .borrow()
            .lookup(fin.endpoints[0].bdf)
            .map(|cs| aer_status(&cs.borrow()))
            .unwrap_or((0, 0));
        FaultOutcome {
            error_interval: self.error_interval,
            throughput_gbps: r.throughput_gbps(),
            sim_time: fin.now,
            corrupt_drops: sum("rx_dropped_corrupt"),
            replays: sum("replays"),
            naks: sum("naks_tx"),
            replay_timeouts: sum("timeouts"),
            device_aer_cor: cor,
            device_aer_uncor: uncor,
            completed: r.done && fin.drained,
        }
    }
}

/// Builds the deterministic fault-campaign ladder: the fault-free
/// baseline followed by progressively *harsher* injection (smaller
/// intervals corrupt more TLPs) at the given generation/width point.
pub fn error_rate_ladder(
    generation: Generation,
    width_all: Option<LinkWidth>,
    block_bytes: u64,
) -> Vec<FaultExperiment> {
    [0u64, 257, 61, 13]
        .into_iter()
        .map(|error_interval| FaultExperiment {
            block_bytes,
            error_interval,
            generation,
            width_all,
        })
        .collect()
}

/// Parameters of a NIC transmit run (an exploration experiment: the
/// 100 Gb/s-NIC motivation of the paper's introduction).
#[derive(Debug, Clone)]
pub struct NicTxExperiment {
    /// Link width between the root port and the NIC.
    pub width: LinkWidth,
    /// Frames to transmit.
    pub frames: u32,
    /// Frame payload bytes.
    pub frame_bytes: u32,
    /// Time the NIC needs to put one frame on the medium; bounds the
    /// NIC-side rate (1514 B at 10 Gb/s ≈ 1.2 µs).
    pub tx_wire_time: Tick,
    /// Record a full event trace of the run (all categories); the drained
    /// [`TraceLog`] is returned in the outcome.
    pub trace: bool,
}

impl Default for NicTxExperiment {
    fn default() -> Self {
        Self {
            width: LinkWidth::X1,
            frames: 512,
            frame_bytes: 1514,
            tx_wire_time: tick::ns(1200),
            trace: false,
        }
    }
}

/// Measurements from a NIC transmit run.
#[derive(Debug, Clone)]
pub struct NicTxOutcome {
    /// Payload throughput in Gb/s.
    pub throughput_gbps: f64,
    /// Transmit rate in frames/second.
    pub frames_per_sec: f64,
    /// DMA read TLPs the NIC issued.
    pub dma_read_tlps: u64,
    /// Whether the run completed.
    pub completed: bool,
    /// The event trace, when the experiment asked for one.
    pub trace: Option<TraceLog>,
}

/// A NIC directly on root port 0 behind a Gen 2 link of `width`, with
/// `nic` adjusting the default device model.
fn nic_direct_topology(
    width: LinkWidth,
    trace: bool,
    nic: impl FnOnce(&mut NicConfig),
) -> Topology {
    let mut config = NicConfig::default();
    nic(&mut config);
    let mut topo = Topology::nic_direct(width, config);
    if trace {
        topo.trace_mask = TraceCategory::ALL;
    }
    topo
}

/// A NIC transmit run: NIC directly on root port 0, frames fetched over
/// DMA reads through the configured link.
impl Experiment for NicTxExperiment {
    type Reports = NicTxReportHandle;
    type Outcome = NicTxOutcome;

    fn topology(&self) -> Topology {
        nic_direct_topology(self.width, self.trace, |nic| nic.tx_wire_time = self.tx_wire_time)
    }

    fn attach(&self, sys: &mut TopologySystem) -> NicTxReportHandle {
        sys.attach_nic_tx(
            0,
            NicTxConfig {
                frames: self.frames,
                frame_bytes: self.frame_bytes,
                ..Default::default()
            },
        )
    }

    fn collect(&self, fin: &Finished, report: &NicTxReportHandle) -> NicTxOutcome {
        let r = report.borrow();
        NicTxOutcome {
            throughput_gbps: r.throughput_gbps(),
            frames_per_sec: r.frames_per_sec(),
            dma_read_tlps: fin.count("nic.dma_read_tlps"),
            completed: r.done && fin.drained,
            trace: fin.trace.clone(),
        }
    }
}

/// Parameters of a NIC receive (inbound line-rate) experiment.
#[derive(Debug, Clone)]
pub struct NicRxExperiment {
    /// Link width between the root port and the NIC.
    pub width: LinkWidth,
    /// Frames the medium delivers.
    pub frames: u32,
    /// Frame payload bytes.
    pub frame_bytes: u32,
    /// Inter-arrival time of frames on the medium.
    pub interval: Tick,
}

impl Default for NicRxExperiment {
    fn default() -> Self {
        // 1514 B every 2.4 µs ≈ 5 Gb/s offered load (5GbE-ish). Each
        // frame costs a serial descriptor fetch round trip plus the data
        // writes, so this is comfortably above what a Gen 2 x1 slot can
        // drain and comfortably below what x8 can.
        Self { width: LinkWidth::X1, frames: 512, frame_bytes: 1514, interval: tick::ns(2400) }
    }
}

/// Measurements from a NIC receive run.
#[derive(Debug, Clone)]
pub struct NicRxOutcome {
    /// Delivered payload throughput in Gb/s.
    pub delivered_gbps: f64,
    /// Frames delivered to memory.
    pub frames_delivered: u64,
    /// Frames dropped by the NIC's internal FIFO (fabric too slow).
    pub frames_dropped: u64,
    /// Whether the stream finished.
    pub completed: bool,
}

/// A NIC receive run: inbound frames DMA-written through the configured
/// link; loss means the PCI-Express slot cannot sustain the medium — the
/// paper-intro question made concrete.
impl Experiment for NicRxExperiment {
    type Reports = NicRxReportHandle;
    type Outcome = NicRxOutcome;

    fn topology(&self) -> Topology {
        nic_direct_topology(self.width, false, |nic| {
            nic.rx_stream = Some((self.frame_bytes, self.interval, self.frames));
        })
    }

    fn attach(&self, sys: &mut TopologySystem) -> NicRxReportHandle {
        sys.attach_nic_rx(
            0,
            NicRxConfig {
                expect_frames: self.frames,
                frame_bytes: self.frame_bytes,
                ..Default::default()
            },
        )
    }

    fn collect(&self, fin: &Finished, report: &NicRxReportHandle) -> NicRxOutcome {
        let r = report.borrow();
        let dropped = fin.count("nic.rx_overruns");
        NicRxOutcome {
            delivered_gbps: r.throughput_gbps(),
            frames_delivered: r.frames,
            frames_dropped: dropped,
            // The stream finished when every frame was delivered or dropped.
            completed: r.frames + dropped == u64::from(self.frames) && fin.drained,
        }
    }
}

/// Parameters of the multi-endpoint contention experiment (`repro
/// --topology`): the same pair of NIC transmit streams run twice — behind
/// one switch sharing a single upstream link, then split across two root
/// ports — to measure what fabric sharing costs in bandwidth and tail
/// latency.
#[derive(Debug, Clone)]
pub struct TopologyExperiment {
    /// Frames each NIC transmits.
    pub frames: u32,
    /// Frame payload bytes.
    pub frame_bytes: u32,
    /// Per-NIC medium rate (wire time per frame); 1514 B / 1.2 µs ≈
    /// 10 Gb/s of offered load per stream.
    pub tx_wire_time: Tick,
}

impl Default for TopologyExperiment {
    fn default() -> Self {
        Self { frames: 256, frame_bytes: 1514, tx_wire_time: tick::ns(1200) }
    }
}

/// Measurements of one arm (shared or split) of the contention
/// experiment.
#[derive(Debug, Clone)]
pub struct ContentionOutcome {
    /// Payload throughput of each stream in Gb/s.
    pub per_stream_gbps: [f64; 2],
    /// 99th-percentile DMA read round-trip latency of each NIC in ns.
    pub p99_dma_read_ns: [f64; 2],
    /// Whether both streams completed.
    pub completed: bool,
}

impl ContentionOutcome {
    /// Combined throughput of both streams in Gb/s.
    pub fn aggregate_gbps(&self) -> f64 {
        self.per_stream_gbps.iter().sum()
    }
}

/// Both arms of the contention experiment.
#[derive(Debug, Clone)]
pub struct TopologyOutcome {
    /// Two NICs behind one switch, sharing the upstream link.
    pub shared: ContentionOutcome,
    /// The same NICs split across root ports 0 and 1.
    pub split: ContentionOutcome,
}

/// One arm of the contention experiment: the dual-NIC transmit pair on
/// the shared-uplink or the split-root-port tree.
struct ContentionArm<'a> {
    exp: &'a TopologyExperiment,
    shared: bool,
}

impl Experiment for ContentionArm<'_> {
    type Reports = [NicTxReportHandle; 2];
    type Outcome = ContentionOutcome;

    fn topology(&self) -> Topology {
        let nic = NicConfig { tx_wire_time: self.exp.tx_wire_time, ..NicConfig::default() };
        if self.shared {
            Topology::dual_nic_shared(nic)
        } else {
            Topology::dual_nic_split(nic)
        }
    }

    fn attach(&self, sys: &mut TopologySystem) -> [NicTxReportHandle; 2] {
        [0, 1].map(|i| {
            sys.attach_nic_tx(
                i,
                NicTxConfig {
                    frames: self.exp.frames,
                    frame_bytes: self.exp.frame_bytes,
                    ..Default::default()
                },
            )
        })
    }

    fn collect(&self, fin: &Finished, reports: &[NicTxReportHandle; 2]) -> ContentionOutcome {
        let p99_ns = |nic: &str| {
            fin.stats.get(&format!("{nic}.dma_read_latency.p99")).unwrap_or(0.0)
                / tick::TICKS_PER_NS as f64
        };
        ContentionOutcome {
            per_stream_gbps: [0, 1].map(|i| reports[i].borrow().throughput_gbps()),
            p99_dma_read_ns: [p99_ns("nic0"), p99_ns("nic1")],
            completed: reports.iter().all(|r| r.borrow().done) && fin.drained,
        }
    }
}

/// Runs the contention experiment: identical dual-NIC transmit workloads
/// over [`Topology::dual_nic_shared`] and [`Topology::dual_nic_split`].
/// Sharing one upstream link must cost aggregate bandwidth and inflate the
/// DMA p99 relative to the split placement — the trade the paper's Fig. 2
/// architecture lets a designer quantify before building hardware.
pub fn run_topology_experiment(exp: &TopologyExperiment) -> TopologyOutcome {
    let arm = |shared| run_cold(&ContentionArm { exp, shared });
    TopologyOutcome { shared: arm(true), split: arm(false) }
}

/// Parameters of a multi-queue MSI-X transmit run (`repro msix`).
///
/// With `use_msix` the NIC exposes one MSI-X vector per queue and the
/// driver services completions NAPI-style off per-vector doorbells;
/// without it the same NIC falls back to a single legacy INTx line and
/// the single-queue driver — the baseline the MSI-X numbers are
/// attributed against.
#[derive(Debug, Clone)]
pub struct MsixTxExperiment {
    /// TX queue pairs (MSI-X runs; the INTx baseline is single-queue).
    pub queues: u32,
    /// Total frames to transmit.
    pub frames: u32,
    /// Frame payload bytes.
    pub frame_bytes: u32,
    /// Per-vector interrupt holdoff (0 = every completion interrupts).
    pub moderation: Tick,
    /// Enable the MSI-X structure; `false` = legacy INTx baseline.
    pub use_msix: bool,
    /// Link width between the root port and the NIC.
    pub width: LinkWidth,
    /// Record a full event trace of the run.
    pub trace: bool,
}

impl Default for MsixTxExperiment {
    fn default() -> Self {
        Self {
            queues: 4,
            frames: 256,
            frame_bytes: 1514,
            moderation: 0,
            use_msix: true,
            width: LinkWidth::X4,
            trace: false,
        }
    }
}

/// Measurements from a multi-queue MSI-X (or INTx-baseline) transmit run.
#[derive(Debug, Clone)]
pub struct MsixTxOutcome {
    /// Payload throughput in Gb/s.
    pub throughput_gbps: f64,
    /// Transmit rate in frames/second.
    pub frames_per_sec: f64,
    /// Interrupts the CPU took (`gic.raised`: INTx messages or MSI-X
    /// doorbell deliveries).
    pub irqs: u64,
    /// Interrupt causes folded into an already-armed holdoff timer.
    pub irqs_coalesced: u64,
    /// Whether the run completed.
    pub completed: bool,
    /// The event trace, when the experiment asked for one.
    pub trace: Option<TraceLog>,
}

/// The report of whichever driver an [`MsixTxExperiment`] attached.
pub enum MsixTxReports {
    /// The multi-queue MSI-X driver.
    Msix(MsixTxReportHandle),
    /// The single-queue legacy INTx driver (the baseline arm).
    Legacy(NicTxReportHandle),
}

/// One arm of the interrupt-delivery experiment: a multi-queue NIC under
/// MSI-X (per-queue vectors raised as posted memory writes through the
/// fabric) or the same NIC on its legacy INTx line.
impl Experiment for MsixTxExperiment {
    type Reports = MsixTxReports;
    type Outcome = MsixTxOutcome;

    fn topology(&self) -> Topology {
        let mut topo = nic_direct_topology(self.width, self.trace, |nic| {
            if self.use_msix {
                (nic.queues, nic.msix_capable, nic.moderation) =
                    (self.queues, true, self.moderation);
            }
        });
        topo.use_msix = self.use_msix;
        topo
    }

    fn attach(&self, sys: &mut TopologySystem) -> MsixTxReports {
        if self.use_msix {
            MsixTxReports::Msix(sys.attach_msix_tx(
                0,
                MsixTxConfig {
                    queues: self.queues,
                    frames: self.frames,
                    frame_bytes: self.frame_bytes,
                    ..Default::default()
                },
            ))
        } else {
            MsixTxReports::Legacy(sys.attach_nic_tx(
                0,
                NicTxConfig {
                    frames: self.frames,
                    frame_bytes: self.frame_bytes,
                    ..Default::default()
                },
            ))
        }
    }

    fn collect(&self, fin: &Finished, reports: &MsixTxReports) -> MsixTxOutcome {
        let (done, throughput_gbps, frames_per_sec) = match reports {
            MsixTxReports::Msix(r) => {
                let r = r.borrow();
                (r.done, r.throughput_gbps(), r.frames_per_sec())
            }
            MsixTxReports::Legacy(r) => {
                let r = r.borrow();
                (r.done, r.throughput_gbps(), r.frames_per_sec())
            }
        };
        MsixTxOutcome {
            throughput_gbps,
            frames_per_sec,
            irqs: fin.count("gic.raised"),
            irqs_coalesced: fin.count("nic.irqs_coalesced"),
            completed: done && fin.drained,
            trace: fin.trace.clone(),
        }
    }
}

// --- Poll-mode datapath (interrupt-vs-poll, offered-load ladders) ----------

/// Parameters of one poll-mode (or interrupt-baseline) NIC run with an
/// open-loop traffic source on the receive path.
#[derive(Debug, Clone, PartialEq)]
pub struct PmdExperiment {
    /// Link width between the root port and the NIC.
    pub width: LinkWidth,
    /// TX/RX queue pairs.
    pub queues: u32,
    /// Frames to transmit alongside the receive stream (0 = RX only).
    pub tx_frames: u32,
    /// TX frame payload bytes.
    pub frame_bytes: u32,
    /// Descriptors posted/retired per queue per poll.
    pub burst: u32,
    /// Busy-poll interval.
    pub poll_interval: Tick,
    /// The open-loop receive stream (generator config or recorded trace);
    /// `None` runs TX-only.
    pub traffic: Option<crate::traffic::TrafficSpec>,
}

impl Default for PmdExperiment {
    fn default() -> Self {
        Self {
            width: LinkWidth::X1,
            queues: 1,
            tx_frames: 0,
            frame_bytes: 1514,
            burst: 8,
            poll_interval: tick::ns(500),
            traffic: Some(crate::traffic::TrafficSpec::Generate(crate::traffic::heavy_traffic(
                0xbeef_f00d,
                1 << 20,
                256,
                tick::ns(2000),
            ))),
        }
    }
}

/// Measurements from a poll-mode (or interrupt-baseline) run.
#[derive(Debug, Clone, PartialEq)]
pub struct PmdOutcome {
    /// Delivered RX payload throughput in Gb/s (from GORC octets).
    pub rx_gbps: f64,
    /// TX payload throughput in Gb/s.
    pub tx_gbps: f64,
    /// Frames the NIC wrote back to RX rings.
    pub rx_delivered: u64,
    /// Frames dropped on NIC FIFO overrun (fabric or driver too slow).
    pub rx_dropped: u64,
    /// RX payload bytes delivered.
    pub rx_bytes: u64,
    /// Interrupts the CPU took (`gic.raised`) — zero for poll mode.
    pub irqs: u64,
    /// Poll iterations the driver executed (zero for the interrupt arm).
    pub polls: u64,
    /// Arrival→ring-writeback latency, median, in ns.
    pub frame_latency_p50_ns: f64,
    /// Arrival→ring-writeback latency, 99th percentile, in ns.
    pub frame_latency_p99_ns: f64,
    /// Tick the run quiesced at (identity anchor).
    pub quiesce_tick: Tick,
    /// [`StatsSnapshot::fnv`] of the final counters (identity anchor).
    pub stats_fnv: u64,
    /// Whether every offered frame settled and the run drained.
    pub completed: bool,
}

impl PmdExperiment {
    /// Frames the traffic source will offer.
    fn rx_expect(&self) -> u32 {
        self.traffic.as_ref().map_or(0, TrafficSpec::frames)
    }
}

/// The poll-mode arm: busy-poll driver, interrupts fully masked.
impl Experiment for PmdExperiment {
    type Reports = PmdReportHandle;
    type Outcome = PmdOutcome;

    fn topology(&self) -> Topology {
        nic_direct_topology(self.width, false, |nic| {
            nic.queues = self.queues;
            nic.rx_source = self.traffic.clone();
        })
    }

    fn attach(&self, sys: &mut TopologySystem) -> PmdReportHandle {
        sys.attach_pmd(
            0,
            PmdConfig {
                queues: self.queues,
                tx_frames: self.tx_frames,
                tx_frame_bytes: self.frame_bytes,
                burst: self.burst,
                poll_interval: self.poll_interval,
                rx_expect: self.rx_expect(),
                ..Default::default()
            },
        )
    }

    fn collect(&self, fin: &Finished, report: &PmdReportHandle) -> PmdOutcome {
        let r = report.borrow();
        PmdOutcome {
            rx_gbps: r.rx_throughput_gbps(),
            tx_gbps: r.tx_throughput_gbps(),
            rx_delivered: r.rx_frames,
            rx_dropped: r.rx_dropped,
            rx_bytes: r.rx_bytes,
            irqs: fin.count("gic.raised"),
            polls: r.polls,
            frame_latency_p50_ns: fin.stats.get("nic.rx_frame_latency.p50").unwrap_or(0.0) / 1e3,
            frame_latency_p99_ns: fin.stats.get("nic.rx_frame_latency.p99").unwrap_or(0.0) / 1e3,
            quiesce_tick: fin.now,
            stats_fnv: fin.stats.fnv(),
            completed: r.done
                && fin.drained
                && r.rx_frames + r.rx_dropped == u64::from(self.rx_expect())
                && r.tx_frames + r.rx_frames > 0,
        }
    }
}

/// The interrupt-driven baseline arm of a [`PmdExperiment`]: the same
/// traffic source, but the classic per-frame-interrupt receive driver
/// (IMS unmasked, one doorbell per writeback). Single queue, RX only —
/// the comparison the `repro pmd` table prints.
#[derive(Debug, Clone, Copy)]
pub struct IrqRxBaseline<'a>(pub &'a PmdExperiment);

impl Experiment for IrqRxBaseline<'_> {
    type Reports = NicRxReportHandle;
    type Outcome = PmdOutcome;

    /// # Panics
    ///
    /// Panics when the experiment configures TX frames, more than one
    /// queue (the baseline is the paper's single-flow receiver) or no
    /// traffic source.
    fn topology(&self) -> Topology {
        assert_eq!(self.0.queues, 1, "the interrupt baseline drives one queue");
        assert_eq!(self.0.tx_frames, 0, "the interrupt baseline is RX-only");
        assert!(self.0.traffic.is_some(), "the interrupt baseline needs a traffic source");
        nic_direct_topology(self.0.width, false, |nic| nic.rx_source = self.0.traffic.clone())
    }

    fn attach(&self, sys: &mut TopologySystem) -> NicRxReportHandle {
        sys.attach_nic_rx(
            0,
            NicRxConfig {
                expect_frames: self.0.rx_expect(),
                frame_bytes: self.0.frame_bytes,
                ..Default::default()
            },
        )
    }

    fn collect(&self, fin: &Finished, report: &NicRxReportHandle) -> PmdOutcome {
        let r = report.borrow();
        let rx_delivered = fin.count("nic.frames_rx");
        let rx_dropped = fin.count("nic.rx_overruns");
        let rx_bytes = fin.count("nic.rx_octets");
        PmdOutcome {
            rx_gbps: tick::gbps(rx_bytes, r.end.saturating_sub(r.start)),
            tx_gbps: 0.0,
            rx_delivered,
            rx_dropped,
            rx_bytes,
            irqs: fin.count("gic.raised"),
            polls: 0,
            frame_latency_p50_ns: fin.stats.get("nic.rx_frame_latency.p50").unwrap_or(0.0) / 1e3,
            frame_latency_p99_ns: fin.stats.get("nic.rx_frame_latency.p99").unwrap_or(0.0) / 1e3,
            quiesce_tick: fin.now,
            stats_fnv: fin.stats.fnv(),
            completed: rx_delivered + rx_dropped == u64::from(self.0.rx_expect()) && fin.drained,
        }
    }
}

// --- CXL.mem memory expansion (local vs CXL-attached load/store) -----------

/// Where the host's load/store stream lands: local DRAM (the baseline
/// arm), a directly-attached expander, an expander behind a switch, or a
/// block-interleaved group of expanders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CxlPlacement {
    /// Plain Memory Read/Write TLPs against a DRAM slice — no CXL link
    /// in the path. The latency/bandwidth reference the tables compare
    /// against.
    LocalDram,
    /// One expander on a root port (Gen 3 x8).
    Direct,
    /// One expander one switch hop below the root port.
    BehindSwitch,
    /// 2–4 expanders, one per root port, the stream block-interleaved
    /// across their HDM windows.
    Interleaved(usize),
}

/// Parameters of one `repro cxl` run.
#[derive(Debug, Clone, PartialEq)]
pub struct CxlExperiment {
    /// Expander placement (or the local-DRAM reference arm).
    pub placement: CxlPlacement,
    /// Open-loop stream or dependent pointer chase.
    pub mode: CxlHostMode,
    /// Timed accesses per host stream.
    pub requests: u32,
    /// In-flight window of the open-loop stream.
    pub outstanding: usize,
    /// Open-loop inter-issue gap.
    pub gap: Tick,
    /// Pointer-chain length (chase mode).
    pub chain_blocks: u32,
    /// Every n-th open-loop access is a store (0 = all loads).
    pub write_every: u32,
    /// Expander device model knobs.
    pub expander: CxlExpanderConfig,
}

impl Default for CxlExperiment {
    fn default() -> Self {
        Self {
            placement: CxlPlacement::Direct,
            mode: CxlHostMode::OpenLoop,
            requests: 256,
            outstanding: 8,
            gap: tick::ns(100),
            chain_blocks: 64,
            write_every: 0,
            expander: CxlExpanderConfig::default(),
        }
    }
}

/// Measurements from one `repro cxl` run. Derives `PartialEq` so the
/// identity checks can compare whole outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct CxlOutcome {
    /// Mean access round-trip latency over every stream, in ns.
    pub mean_ns: f64,
    /// Fastest access, in ns.
    pub min_ns: f64,
    /// Slowest access, in ns.
    pub max_ns: f64,
    /// Aggregate achieved bandwidth across all streams, in Gb/s.
    pub gbps: f64,
    /// Completions received across all streams.
    pub completed_accesses: u64,
    /// Open-loop issue slots skipped with the window full.
    pub stalls: u64,
    /// Tick the run quiesced at (identity anchor).
    pub quiesce_tick: Tick,
    /// [`StatsSnapshot::fnv`] of the final counters (identity anchor).
    pub stats_fnv: u64,
    /// Whether every stream finished and the run drained.
    pub completed: bool,
}

/// One host stream per expander (or one DRAM stream for the reference
/// arm). The local-DRAM arm uses the same tree as
/// [`CxlPlacement::Direct`] — only the host stream's target window
/// differs — so the two arms pay identical enumeration.
impl Experiment for CxlExperiment {
    type Reports = Vec<CxlHostReportHandle>;
    type Outcome = CxlOutcome;

    fn topology(&self) -> Topology {
        match self.placement {
            CxlPlacement::LocalDram | CxlPlacement::Direct => {
                Topology::cxl_direct(self.expander.clone())
            }
            CxlPlacement::BehindSwitch => Topology::cxl_behind_switch(self.expander.clone()),
            CxlPlacement::Interleaved(n) => Topology::cxl_interleaved(n, self.expander.clone()),
        }
    }

    fn attach(&self, sys: &mut TopologySystem) -> Vec<CxlHostReportHandle> {
        let host = CxlHostConfig {
            mode: self.mode,
            requests: self.requests,
            outstanding: self.outstanding,
            gap: self.gap,
            chain_blocks: self.chain_blocks,
            write_every: self.write_every,
            ..CxlHostConfig::default()
        };
        if self.placement == CxlPlacement::LocalDram {
            return vec![sys.attach_dram_host(0, host)];
        }
        let expanders = sys.endpoints_of(EndpointKind::CxlExpander);
        expanders.into_iter().map(|i| sys.attach_cxl_host(i, host.clone())).collect()
    }

    fn collect(&self, fin: &Finished, reports: &Vec<CxlHostReportHandle>) -> CxlOutcome {
        let mut latencies: Vec<Tick> = Vec::new();
        let mut gbps = 0.0;
        let mut completed_accesses = 0u64;
        let mut stalls = 0u64;
        let mut done = true;
        for report in reports {
            let r = report.borrow();
            latencies.extend_from_slice(&r.latencies);
            gbps += r.throughput_gbps();
            completed_accesses += r.completed;
            stalls += r.stalls;
            done &= r.done;
        }
        let mean_ns = if latencies.is_empty() {
            0.0
        } else {
            to_ns(latencies.iter().sum::<Tick>()) / latencies.len() as f64
        };
        CxlOutcome {
            mean_ns,
            min_ns: latencies.iter().copied().min().map_or(0.0, to_ns),
            max_ns: latencies.iter().copied().max().map_or(0.0, to_ns),
            gbps,
            completed_accesses,
            stalls,
            quiesce_tick: fin.now,
            stats_fnv: fin.stats.fnv(),
            completed: done
                && fin.drained
                && !reports.is_empty()
                && completed_accesses == reports.len() as u64 * u64::from(self.requests),
        }
    }
}

/// Which tree and guest driver one `repro virtio` arm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VirtioArm {
    /// virtio-blk directly on root port 0, driven by the virtqueue guest
    /// driver.
    Blk,
    /// The paper's validation IDE chain driven by `dd` with the same
    /// request size and per-submission OS overhead — the latency
    /// baseline the blk table compares against.
    IdeBaseline,
    /// virtio-net transmit directly on root port 0 (Gen 2 x4, 10 Gb/s
    /// wire), frames fetched chain by chain over DMA.
    NetTx,
    /// The mixed-fleet preset: vblk0 and vnet0 behind one switch, an
    /// IDE disk on the second root port, all three drivers concurrent.
    Mixed,
}

/// Parameters of one `repro virtio` run.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtioExperiment {
    /// Tree and driver selection.
    pub arm: VirtioArm,
    /// Descriptor chains (or IDE commands) pushed through each driver.
    pub requests: u32,
    /// Chains kept in flight by the virtio driver.
    pub queue_depth: u32,
    /// Payload bytes per chain (blk transfer or net frame).
    pub request_bytes: u32,
    /// Blk: submit writes instead of reads.
    pub write: bool,
    /// Deliver completions over per-queue MSI-X vectors instead of
    /// INTx (single-endpoint arms only).
    pub use_msix: bool,
    /// Virtio device model knobs (class is overridden per arm).
    pub device: VirtioConfig,
}

impl Default for VirtioExperiment {
    fn default() -> Self {
        Self {
            arm: VirtioArm::Blk,
            requests: 64,
            queue_depth: 1,
            request_bytes: 4096,
            write: false,
            use_msix: false,
            device: VirtioConfig::default(),
        }
    }
}

/// Measurements from one `repro virtio` run. Derives `PartialEq` so the
/// identity checks can compare whole outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtioOutcome {
    /// Mean submission-to-retirement latency, in ns. For the IDE
    /// baseline this is the aggregate per-command mean (`dd` keeps no
    /// per-command samples), and min == mean == max.
    pub mean_ns: f64,
    /// Fastest chain, in ns.
    pub min_ns: f64,
    /// Slowest chain, in ns.
    pub max_ns: f64,
    /// Aggregate payload throughput across all drivers, in Gb/s.
    pub gbps: f64,
    /// Chains retired (plus IDE commands completed), all drivers.
    pub requests: u64,
    /// Completion interrupts taken by the virtio drivers.
    pub irqs: u64,
    /// Tick the run quiesced at (identity anchor).
    pub quiesce_tick: Tick,
    /// [`StatsSnapshot::fnv`] of the final counters (identity anchor).
    pub stats_fnv: u64,
    /// Whether every driver finished and the run drained.
    pub completed: bool,
}

fn virtio_app_config(exp: &VirtioExperiment) -> VirtioAppConfig {
    VirtioAppConfig {
        requests: exp.requests,
        queue_depth: exp.queue_depth,
        request_bytes: exp.request_bytes,
        write: exp.write,
        use_msix: exp.use_msix,
        queue_size: exp.device.queue_size,
        capacity_sectors: exp.device.capacity_sectors,
        ..VirtioAppConfig::default()
    }
}

/// What a [`VirtioExperiment`] attached: the virtio drivers, plus the
/// `dd` stream of the arms that carry an IDE disk.
pub struct VirtioReports {
    virtio: Vec<VirtioReportHandle>,
    dd: Option<DdReportHandle>,
    /// Chains plus IDE commands the arm must retire to count as complete.
    expected: u64,
}

impl Experiment for VirtioExperiment {
    type Reports = VirtioReports;
    type Outcome = VirtioOutcome;

    fn topology(&self) -> Topology {
        let class = |class| VirtioConfig { class, ..self.device.clone() };
        let mut topo = match self.arm {
            VirtioArm::Blk => Topology::virtio_blk_direct(self.device.clone()),
            VirtioArm::NetTx => Topology::virtio_net_direct(class(VirtioClass::Net)),
            VirtioArm::IdeBaseline => Topology::validation(),
            VirtioArm::Mixed => {
                Topology::virtio_mixed(class(VirtioClass::Blk), class(VirtioClass::Net))
            }
        };
        topo.use_msix = self.use_msix;
        topo
    }

    fn attach(&self, sys: &mut TopologySystem) -> VirtioReports {
        let requests = u64::from(self.requests);
        match self.arm {
            VirtioArm::Blk | VirtioArm::NetTx => VirtioReports {
                virtio: vec![sys.attach_virtio(0, virtio_app_config(self))],
                dd: None,
                expected: requests,
            },
            VirtioArm::IdeBaseline => {
                assert!(!self.use_msix, "the IDE baseline is INTx-only");
                assert!(
                    self.request_bytes.is_multiple_of(4096),
                    "IDE commands move whole 4 KB sectors"
                );
                let dd = sys.attach_dd(
                    0,
                    DdConfig {
                        block_bytes: requests * u64::from(self.request_bytes),
                        blocks: 1,
                        request_sectors: self.request_bytes / 4096,
                        os_request_overhead: VirtioAppConfig::default().os_submit_overhead,
                        ..DdConfig::default()
                    },
                );
                VirtioReports { virtio: Vec::new(), dd: Some(dd), expected: requests }
            }
            VirtioArm::Mixed => {
                assert!(!self.use_msix, "multi-endpoint trees are INTx-only");
                let net = VirtioAppConfig { request_bytes: 1514, ..virtio_app_config(self) };
                VirtioReports {
                    virtio: vec![
                        sys.attach_virtio(0, virtio_app_config(self)),
                        sys.attach_virtio(1, net),
                    ],
                    dd: Some(
                        sys.attach_dd(
                            2,
                            DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() },
                        ),
                    ),
                    // The 64 KB `dd` block is one short IDE command on top.
                    expected: 2 * requests,
                }
            }
        }
    }

    fn collect(&self, fin: &Finished, reports: &VirtioReports) -> VirtioOutcome {
        let mut requests = 0u64;
        let mut irqs = 0u64;
        let mut gbps = 0.0;
        let mut lat_sum: Tick = 0;
        let mut lat_min: Option<Tick> = None;
        let mut lat_max: Tick = 0;
        let mut done = true;
        for report in &reports.virtio {
            let r = report.borrow();
            requests += r.requests;
            irqs += r.irqs;
            gbps += r.throughput_gbps();
            lat_sum += r.lat_sum;
            if r.requests > 0 {
                lat_min = Some(lat_min.map_or(r.lat_min, |m| m.min(r.lat_min)));
                lat_max = lat_max.max(r.lat_max);
            }
            done &= r.done;
        }
        let dd = reports.dd.as_ref().map(|report| report.borrow());
        let (mean_ns, min_ns, max_ns) = if requests > 0 {
            (to_ns(lat_sum) / requests as f64, lat_min.map_or(0.0, to_ns), to_ns(lat_max))
        } else if let Some(r) = &dd {
            // `dd` reports only the aggregate window; spread it evenly.
            let per = if r.commands == 0 {
                0.0
            } else {
                to_ns(r.end.saturating_sub(r.start)) / r.commands as f64
            };
            (per, per, per)
        } else {
            (0.0, 0.0, 0.0)
        };
        if let Some(r) = &dd {
            requests += r.commands;
            gbps += r.throughput_gbps();
            done &= r.done;
        }
        VirtioOutcome {
            mean_ns,
            min_ns,
            max_ns,
            gbps,
            requests,
            irqs,
            quiesce_tick: fin.now,
            stats_fnv: fin.stats.fnv(),
            completed: done && fin.drained && requests >= reports.expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;
    use crate::traffic::heavy_traffic;
    use pcisim_pci::regs::aer::cor;

    // --- One runner: every experiment, however it is executed -------------

    /// Everything `run` must reproduce whatever `Exec` says: quiesce tick,
    /// event count, stats fingerprint and the rendered outcome.
    fn facts<E: Experiment>(
        exp: &E,
        exec: Exec<'_>,
        render: impl Fn(&E::Outcome) -> String,
    ) -> (Tick, u64, u64, String) {
        let (fin, reports) = execute(exp, exec);
        (fin.now, fin.events, fin.stats.fnv(), render(&exp.collect(&fin, &reports)))
    }

    /// `Cold == Restore`, each restore resuming from
    /// `checkpoint_at(exp, WARMUP_TICK)` and from a checkpoint halfway to
    /// the quiesce tick. The mmio and cxl runs drain before `WARMUP_TICK`,
    /// so the second cut is the one that lands mid-flight on every row.
    fn assert_exec_invariant<E: Experiment>(
        what: &str,
        exp: &E,
        render: impl Fn(&E::Outcome) -> String,
    ) {
        let cold = facts(exp, Exec::Cold, &render);
        assert!(cold.1 > 0, "{what}: the run must do work");
        for tick in [WARMUP_TICK, cold.0 / 2] {
            let snapshot = checkpoint_at(exp, tick);
            let restored = facts(exp, Exec::Restore { snapshot: &snapshot }, &render);
            assert_eq!(cold, restored, "{what}: restored at {tick}");
        }
    }

    fn debug<O: std::fmt::Debug>(outcome: &O) -> String {
        format!("{outcome:?}")
    }

    fn small_pmd(gap: Tick) -> PmdExperiment {
        PmdExperiment {
            traffic: Some(TrafficSpec::Generate(heavy_traffic(0x5eed, 1 << 20, 48, gap))),
            ..PmdExperiment::default()
        }
    }

    #[test]
    fn every_experiment_is_bit_identical_cold_or_restored() {
        let dd = DdExperiment { block_bytes: 64 * 1024, ..DdExperiment::default() };
        assert_exec_invariant("dd", &dd, debug);
        let fault = FaultExperiment {
            block_bytes: 64 * 1024,
            error_interval: 13,
            ..FaultExperiment::default()
        };
        assert_exec_invariant("fault", &fault, debug);
        let pmd = small_pmd(tick::ns(2500));
        assert_exec_invariant("pmd", &pmd, debug);
        assert_exec_invariant("irq rx", &IrqRxBaseline(&pmd), debug);
        let mmio = MmioExperiment { reads: 8, ..MmioExperiment::default() };
        assert_exec_invariant("mmio", &mmio, debug);
        let sector = SectorMicrobench { width: LinkWidth::X1, sectors: 16 };
        assert_exec_invariant("sector", &sector, debug);
        let nic_tx = NicTxExperiment { frames: 32, ..NicTxExperiment::default() };
        assert_exec_invariant("nic tx", &nic_tx, debug);
        let nic_rx = NicRxExperiment { frames: 32, ..NicRxExperiment::default() };
        assert_exec_invariant("nic rx", &nic_rx, debug);
        let contention = TopologyExperiment { frames: 32, ..TopologyExperiment::default() };
        for shared in [true, false] {
            let arm = ContentionArm { exp: &contention, shared };
            assert_exec_invariant("contention", &arm, debug);
        }
        for use_msix in [true, false] {
            let msix = MsixTxExperiment { frames: 64, use_msix, ..MsixTxExperiment::default() };
            assert_exec_invariant("msix tx", &msix, debug);
        }
        for placement in [CxlPlacement::LocalDram, CxlPlacement::Interleaved(2)] {
            let cxl = CxlExperiment { placement, requests: 64, ..CxlExperiment::default() };
            assert_exec_invariant("cxl", &cxl, debug);
        }
        let virtio = VirtioExperiment {
            arm: VirtioArm::Mixed,
            requests: 16,
            queue_depth: 2,
            ..VirtioExperiment::default()
        };
        assert_exec_invariant("virtio", &virtio, debug);
    }

    // --- Fault campaign ---------------------------------------------------

    #[test]
    fn faulty_run_completes_with_replays_and_aer_evidence() {
        let out = run_cold(&FaultExperiment { error_interval: 13, ..FaultExperiment::default() });
        assert!(out.completed, "lossy links must still converge: {out:?}");
        assert!(out.corrupt_drops > 0, "interval 13 must corrupt TLPs: {out:?}");
        assert!(out.replays >= out.corrupt_drops, "every corrupt drop forces a replay: {out:?}");
        assert!(out.naks > 0, "corrupt receipt must NAK: {out:?}");
        assert_ne!(
            out.device_aer_cor & (cor::RECEIVER_ERROR | cor::BAD_TLP),
            0,
            "endpoint AER must latch receiver errors: {out:#x?}"
        );
        assert_eq!(out.device_aer_uncor, 0, "corruption is correctable: {out:#x?}");
    }

    #[test]
    fn goodput_degrades_monotonically_with_error_rate() {
        let outs = run_sweep(&error_rate_ladder(Generation::Gen2, None, 256 * 1024), 1, run_cold);
        assert!(outs.iter().all(|o| o.completed), "{outs:?}");
        assert_eq!(outs[0].corrupt_drops, 0, "interval 0 must inject nothing");
        for pair in outs.windows(2) {
            assert!(
                pair[1].throughput_gbps < pair[0].throughput_gbps,
                "harsher injection must cost goodput: {:?} then {:?}",
                pair[0],
                pair[1]
            );
            assert!(
                pair[1].corrupt_drops > pair[0].corrupt_drops,
                "harsher injection must corrupt more: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }

    // --- dd, sector, MMIO -------------------------------------------------

    fn small(exp: DdExperiment) -> DdExperiment {
        DdExperiment { block_bytes: 1024 * 1024, ..exp }
    }

    #[test]
    fn validation_run_completes_and_reports_throughput() {
        let out = run_cold(&small(DdExperiment::default()));
        assert!(out.completed, "validation run must finish: {out:?}");
        assert_eq!(out.bytes, 1024 * 1024);
        assert!(out.throughput_gbps > 0.5, "got {}", out.throughput_gbps);
        assert!(
            out.throughput_gbps < 4.0,
            "x1 device link caps throughput, got {}",
            out.throughput_gbps
        );
    }

    #[test]
    fn lower_switch_latency_is_slightly_faster() {
        let slow = run_cold(&small(DdExperiment::default()));
        let fast = run_cold(&small(DdExperiment {
            switch_latency: tick::ns(50),
            ..DdExperiment::default()
        }));
        assert!(fast.throughput_gbps > slow.throughput_gbps);
        // The paper: ~3% difference; allow a loose band.
        let gain = fast.throughput_gbps / slow.throughput_gbps;
        assert!(gain < 1.15, "switch latency must be a second-order effect, gain {gain}");
    }

    #[test]
    fn width_x2_beats_x1_substantially() {
        let x1 = run_cold(&small(DdExperiment {
            width_all: Some(LinkWidth::X1),
            ..DdExperiment::default()
        }));
        let x2 = run_cold(&small(DdExperiment {
            width_all: Some(LinkWidth::X2),
            ..DdExperiment::default()
        }));
        let ratio = x2.throughput_gbps / x1.throughput_gbps;
        assert!(ratio > 1.3, "x2 must clearly beat x1, got {ratio}");
        assert!(ratio < 2.0, "OS overhead must keep the gain sublinear, got {ratio}");
    }

    #[test]
    fn sector_microbench_approaches_wire_rate() {
        let out = run_cold(&SectorMicrobench { width: LinkWidth::X1, sectors: 64 });
        assert!(out.completed);
        // Gen 2 x1 wire rate for 64 B payloads is 64/84 * 4 = 3.05 Gb/s;
        // the paper reports 3.072. Accept the right neighbourhood.
        assert!(out.throughput_gbps > 2.2, "got {}", out.throughput_gbps);
        assert!(out.throughput_gbps < 3.2, "got {}", out.throughput_gbps);
    }

    #[test]
    fn mmio_latency_tracks_rc_latency() {
        let rc50 = run_cold(&MmioExperiment {
            rc_latency: tick::ns(50),
            reads: 8,
            ..MmioExperiment::default()
        });
        let rc150 = run_cold(&MmioExperiment {
            rc_latency: tick::ns(150),
            reads: 8,
            ..MmioExperiment::default()
        });
        assert!(rc50.completed && rc150.completed);
        let delta = rc150.mean_ns - rc50.mean_ns;
        // Two crossings: about 2 * 100 ns.
        assert!((150.0..=250.0).contains(&delta), "delta {delta}");
        assert!(
            rc50.mean_ns > 250.0,
            "absolute latency should be Table II-like, got {}",
            rc50.mean_ns
        );
    }

    #[test]
    fn narrow_links_drop_line_rate_traffic_but_wide_links_keep_up() {
        let x1 = run_cold(&NicRxExperiment { frames: 128, ..NicRxExperiment::default() });
        let x8 = run_cold(&NicRxExperiment {
            frames: 128,
            width: LinkWidth::X8,
            ..NicRxExperiment::default()
        });
        assert!(x1.completed && x8.completed);
        assert!(x1.frames_dropped > 0, "a Gen2 x1 slot cannot sustain ~5 Gb/s inbound: {x1:?}");
        assert_eq!(x8.frames_dropped, 0, "x8 must keep up: {x8:?}");
        assert!(x8.delivered_gbps > x1.delivered_gbps);
    }

    #[test]
    fn credit_flow_control_eliminates_replays_at_x8() {
        // The paper's ACK/NAK-only protocol replays heavily at x8; real
        // PCI-Express credit flow control replaces drops with stalls.
        let acknak = run_cold(&DdExperiment {
            block_bytes: 1024 * 1024,
            width_all: Some(LinkWidth::X8),
            ..DdExperiment::default()
        });
        let credits = run_cold(&DdExperiment {
            block_bytes: 1024 * 1024,
            width_all: Some(LinkWidth::X8),
            credit_fc: Some(16),
            ..DdExperiment::default()
        });
        assert!(acknak.completed && credits.completed);
        assert!(acknak.replay_pct > 10.0, "baseline must replay: {}", acknak.replay_pct);
        assert_eq!(credits.replay_pct, 0.0, "credits must eliminate replays");
        assert_eq!(credits.timeout_pct, 0.0);
        // And throughput must not suffer for it.
        assert!(
            credits.throughput_gbps >= acknak.throughput_gbps * 0.95,
            "credits {} vs acknak {}",
            credits.throughput_gbps,
            acknak.throughput_gbps
        );
    }

    #[test]
    fn credit_flow_control_is_neutral_when_uncongested() {
        let base = run_cold(&DdExperiment { block_bytes: 1024 * 1024, ..DdExperiment::default() });
        let credits = run_cold(&DdExperiment {
            block_bytes: 1024 * 1024,
            credit_fc: Some(16),
            ..DdExperiment::default()
        });
        assert!(base.completed && credits.completed);
        let ratio = credits.throughput_gbps / base.throughput_gbps;
        assert!((0.9..1.1).contains(&ratio), "uncongested x1 must be unaffected: {ratio}");
    }

    #[test]
    fn nic_tx_completes_and_scales_with_width() {
        let x1 = run_cold(&NicTxExperiment { frames: 64, ..NicTxExperiment::default() });
        let x4 = run_cold(&NicTxExperiment {
            frames: 64,
            width: LinkWidth::X4,
            ..NicTxExperiment::default()
        });
        assert!(x1.completed && x4.completed);
        assert!(
            x4.throughput_gbps > x1.throughput_gbps,
            "a wider link must speed up descriptor/buffer fetches: {} vs {}",
            x4.throughput_gbps,
            x1.throughput_gbps
        );
        // Each frame costs 1 descriptor TLP + ceil(1514/64) = 24 buffer
        // TLPs, plus the status writeback (a write, not counted here).
        assert_eq!(x1.dma_read_tlps, 64 * 25);
    }

    #[test]
    fn nic_tx_saturates_at_the_medium_rate_on_wide_links() {
        // With an x8 link the fabric outpaces the 10 Gb/s-ish medium, so
        // widening further cannot help.
        let x8 = run_cold(&NicTxExperiment {
            frames: 64,
            width: LinkWidth::X8,
            ..NicTxExperiment::default()
        });
        let x16 = run_cold(&NicTxExperiment {
            frames: 64,
            width: LinkWidth::X16,
            ..NicTxExperiment::default()
        });
        assert!(x8.completed && x16.completed);
        let gain = x16.throughput_gbps / x8.throughput_gbps;
        assert!(gain < 1.05, "the medium, not the link, must limit x8+: gain {gain}");
    }

    #[test]
    fn msix_beats_the_intx_baseline_on_throughput() {
        let intx = run_cold(&MsixTxExperiment {
            frames: 128,
            use_msix: false,
            ..MsixTxExperiment::default()
        });
        let msix =
            run_cold(&MsixTxExperiment { frames: 128, queues: 4, ..MsixTxExperiment::default() });
        assert!(intx.completed && msix.completed);
        assert!(
            msix.throughput_gbps > intx.throughput_gbps,
            "four queues with per-queue vectors must outrun the single \
             legacy queue: {} vs {} Gb/s",
            msix.throughput_gbps,
            intx.throughput_gbps
        );
    }

    #[test]
    fn moderation_trades_interrupt_rate_for_nothing_when_unloaded() {
        let imm =
            run_cold(&MsixTxExperiment { frames: 96, queues: 2, ..MsixTxExperiment::default() });
        let moderated = run_cold(&MsixTxExperiment {
            frames: 96,
            queues: 2,
            moderation: tick::us(20),
            ..MsixTxExperiment::default()
        });
        assert!(imm.completed && moderated.completed);
        assert_eq!(imm.irqs_coalesced, 0);
        assert!(
            moderated.irqs < imm.irqs,
            "holdoff must cut the interrupt rate: {} vs {}",
            moderated.irqs,
            imm.irqs
        );
        assert!(moderated.irqs_coalesced > 0);
    }

    #[test]
    fn shared_uplink_costs_bandwidth_and_tail_latency() {
        let out = run_topology_experiment(&TopologyExperiment {
            frames: 128,
            ..TopologyExperiment::default()
        });
        assert!(out.shared.completed && out.split.completed);
        // Split streams each own a root link: the pair in aggregate must
        // beat the shared-uplink pair, and the shared arm's DMA reads
        // must queue visibly longer at the tail.
        assert!(
            out.split.aggregate_gbps() > out.shared.aggregate_gbps() * 1.05,
            "split {:?} vs shared {:?}",
            out.split,
            out.shared
        );
        assert!(
            out.shared.p99_dma_read_ns[0] > out.split.p99_dma_read_ns[0],
            "shared p99 {:?} vs split p99 {:?}",
            out.shared.p99_dma_read_ns,
            out.split.p99_dma_read_ns
        );
        // Fair sharing: neither shared stream starves the other.
        let [a, b] = out.shared.per_stream_gbps;
        assert!((a - b).abs() < 0.3 * a.max(b), "unfair share: {a} vs {b}");
    }

    // --- Poll-mode datapath -----------------------------------------------

    #[test]
    fn pmd_settles_all_traffic_without_interrupts() {
        let out = run_cold(&small_pmd(tick::ns(2500)));
        assert!(out.completed, "{out:?}");
        assert_eq!(out.irqs, 0, "poll mode must deliver zero doorbells: {out:?}");
        assert!(out.polls > 0);
        assert_eq!(out.rx_delivered + out.rx_dropped, 48);
        assert!(out.rx_gbps > 0.0);
    }

    #[test]
    fn pmd_interrupt_baseline_takes_one_doorbell_per_frame() {
        let out = run_cold(&IrqRxBaseline(&small_pmd(tick::ns(2500))));
        assert!(out.completed, "{out:?}");
        assert_eq!(out.polls, 0);
        assert_eq!(out.irqs, out.rx_delivered, "INTx fires once per writeback: {out:?}");
        assert!(out.irqs > 0);
    }

    // --- CXL.mem ----------------------------------------------------------

    #[test]
    fn cxl_attached_loads_pay_more_than_local_dram() {
        let local = run_cold(&CxlExperiment {
            placement: CxlPlacement::LocalDram,
            requests: 64,
            ..CxlExperiment::default()
        });
        let direct = run_cold(&CxlExperiment {
            placement: CxlPlacement::Direct,
            requests: 64,
            ..CxlExperiment::default()
        });
        assert!(local.completed, "{local:?}");
        assert!(direct.completed, "{direct:?}");
        assert!(
            direct.mean_ns > local.mean_ns,
            "expander access must cost more than local DRAM: {} vs {}",
            direct.mean_ns,
            local.mean_ns
        );
    }

    #[test]
    fn behind_switch_chase_pays_the_extra_hop() {
        let chase = |placement| {
            run_cold(&CxlExperiment {
                placement,
                mode: CxlHostMode::PointerChase,
                requests: 48,
                chain_blocks: 32,
                ..CxlExperiment::default()
            })
        };
        let direct = chase(CxlPlacement::Direct);
        let switched = chase(CxlPlacement::BehindSwitch);
        assert!(direct.completed && switched.completed);
        assert!(
            switched.mean_ns > direct.mean_ns,
            "switch hop must add latency: {} vs {}",
            switched.mean_ns,
            direct.mean_ns
        );
    }

    // --- Virtio -----------------------------------------------------------

    #[test]
    fn virtio_blk_beats_the_ide_baseline_on_per_request_latency() {
        let blk = run_cold(&VirtioExperiment { requests: 32, ..VirtioExperiment::default() });
        let ide = run_cold(&VirtioExperiment {
            arm: VirtioArm::IdeBaseline,
            requests: 32,
            ..VirtioExperiment::default()
        });
        assert!(blk.completed, "{blk:?}");
        assert!(ide.completed, "{ide:?}");
        assert!(blk.mean_ns > 0.0 && ide.mean_ns > 0.0);
        assert!(
            blk.mean_ns < ide.mean_ns,
            "paravirtual blk must beat the IDE PIO register dance: {} vs {}",
            blk.mean_ns,
            ide.mean_ns
        );
    }

    #[test]
    fn deeper_queues_raise_blk_throughput() {
        let at = |queue_depth| {
            run_cold(&VirtioExperiment { queue_depth, requests: 48, ..VirtioExperiment::default() })
        };
        let qd1 = at(1);
        let qd8 = at(8);
        assert!(qd1.completed && qd8.completed);
        assert!(
            qd8.gbps > qd1.gbps,
            "queue depth must buy throughput: {} vs {}",
            qd8.gbps,
            qd1.gbps
        );
    }

    #[test]
    fn net_tx_is_within_reach_of_the_wire_and_msix_matches_intx_payload() {
        let intx = run_cold(&VirtioExperiment {
            arm: VirtioArm::NetTx,
            requests: 64,
            queue_depth: 8,
            request_bytes: 1514,
            ..VirtioExperiment::default()
        });
        assert!(intx.completed, "{intx:?}");
        assert!(intx.gbps > 1.0, "tx must stream: {intx:?}");
        let msix = run_cold(&VirtioExperiment {
            arm: VirtioArm::NetTx,
            requests: 64,
            queue_depth: 8,
            request_bytes: 1514,
            use_msix: true,
            ..VirtioExperiment::default()
        });
        assert!(msix.completed, "{msix:?}");
        assert_eq!(msix.requests, intx.requests);
    }
}
