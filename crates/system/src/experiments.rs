//! One entry point per table/figure of the paper's evaluation (§VI).
//!
//! Each function configures the validation topology, runs the workload to
//! completion and distils the statistics the paper reports: `dd`
//! throughput, the percentage of TLPs that were replayed, the percentage
//! that suffered a replay-timeout, and MMIO read latency.

use pcisim_kernel::sim::RunOutcome;
use pcisim_kernel::tick::{self, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceLog};
use pcisim_pci::caps::aer_status;
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};

use crate::builder::{build_system, build_system_warm, BuiltSystem, DeviceSpec, SystemConfig};
use crate::snapshot::{SystemHandle, WarmSeed};
use crate::workload::dd::{DdConfig, DdReportHandle};
use crate::workload::mmio::MmioProbeConfig;

/// Safety valve: no experiment should need more events than this.
const MAX_EVENTS: u64 = 20_000_000_000;
/// Safety valve: no experiment runs longer than this much simulated time.
const MAX_TIME: Tick = 60 * tick::TICKS_PER_SEC;

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

/// Translates a [`DdExperiment`]'s knobs into the full-system
/// configuration both the cold and warm runners build from.
fn dd_system_config(exp: &DdExperiment) -> SystemConfig {
    let mut config = SystemConfig::validation();
    config.rc.latency = exp.rc_latency;
    config.rc.buffer_size = exp.port_buffers;
    if let Some(si) = exp.service_interval {
        config.rc.service_interval = si;
    }
    if let Some(sw) = &mut config.switch {
        sw.latency = exp.switch_latency;
        sw.buffer_size = exp.port_buffers;
        if let Some(si) = exp.service_interval {
            sw.service_interval = si;
        }
    }
    let (root_width, device_width) = match exp.width_all {
        Some(w) => (w, w),
        None => (LinkWidth::X4, LinkWidth::X1),
    };
    config.root_link = LinkConfig {
        replay_buffer_size: exp.replay_buffer,
        ack_immediate: exp.ack_immediate,
        credit_fc: exp.credit_fc,
        ..LinkConfig::new(exp.generation, root_width)
    };
    config.device_link = LinkConfig {
        replay_buffer_size: exp.replay_buffer,
        ack_immediate: exp.ack_immediate,
        credit_fc: exp.credit_fc,
        ..LinkConfig::new(exp.generation, device_width)
    };
    if let DeviceSpec::Disk(disk) = &mut config.device {
        disk.posted_writes = exp.posted_writes;
        if let Some(oh) = exp.per_sector_overhead {
            disk.per_sector_overhead = oh;
        }
    }
    if exp.trace {
        config.trace_mask = TraceCategory::ALL;
    }
    config
}

/// Distils the statistics of a finished `dd` run into a [`DdOutcome`].
fn collect_dd_outcome(
    built: &mut BuiltSystem,
    report: &DdReportHandle,
    outcome: RunOutcome,
    trace: Option<TraceLog>,
) -> DdOutcome {
    let stats = built.sim.stats();
    let r = report.borrow();
    let up_tx = stats.get("dev_link.up.tlps_tx").unwrap_or(0.0);
    let replays = stats.get("dev_link.up.replays").unwrap_or(0.0);
    let timeouts = stats.get("dev_link.up.timeouts").unwrap_or(0.0);
    DdOutcome {
        throughput_gbps: r.throughput_gbps(),
        bytes: r.bytes,
        sim_time: built.sim.now(),
        replay_pct: if up_tx > 0.0 { 100.0 * replays / up_tx } else { 0.0 },
        timeout_pct: if up_tx > 0.0 { 100.0 * timeouts / up_tx } else { 0.0 },
        upstream_tlps: up_tx as u64,
        completed: r.done && outcome == RunOutcome::QueueEmpty,
        trace,
    }
}

/// Runs one `dd` experiment on the paper's validation topology
/// (disk — x1 link — switch — x4 link — root complex, Gen 2 by default).
pub fn run_dd_experiment(exp: &DdExperiment) -> DdOutcome {
    let mut built = build_system(dd_system_config(exp));
    let report = built.attach_dd(DdConfig { block_bytes: exp.block_bytes, ..DdConfig::default() });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let trace = exp.trace.then(|| built.sim.take_trace());
    collect_dd_outcome(&mut built, &report, outcome, trace)
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

/// Runs the Table II experiment: a NIC on root port 0, 4-byte register
/// reads timed from the CPU while the root-complex latency varies.
pub fn run_mmio_experiment(exp: &MmioExperiment) -> MmioOutcome {
    let mut config = SystemConfig::nic_direct();
    config.rc.latency = exp.rc_latency;
    if exp.trace {
        config.trace_mask = TraceCategory::ALL;
    }
    let mut built = build_system(config);
    let report = built.attach_mmio_probe(MmioProbeConfig {
        reads: exp.reads,
        cpu_overhead: exp.cpu_overhead,
        ..MmioProbeConfig::default()
    });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let trace = exp.trace.then(|| built.sim.take_trace());
    let r = report.borrow();
    MmioOutcome {
        mean_ns: r.mean_ns(),
        min_ns: r.min_ns(),
        max_ns: r.max_ns(),
        completed: r.done && outcome == RunOutcome::QueueEmpty,
        trace,
    }
}

/// The §VI-B device-level microbenchmark: sector throughput over the
/// device link with OS overheads removed (the paper measures 3.072 Gb/s
/// per 4 KB sector over Gen 2 x1).
pub fn run_sector_microbench(width: LinkWidth, sectors: u32) -> DdOutcome {
    let mut config = SystemConfig::validation();
    config.device_link = LinkConfig::new(Generation::Gen2, width);
    if let DeviceSpec::Disk(disk) = &mut config.device {
        disk.access_latency = 0;
        disk.per_sector_overhead = 0;
    }
    let mut built = build_system(config);
    let report = built.attach_dd(DdConfig {
        block_bytes: u64::from(sectors) * 4096,
        request_sectors: sectors,
        os_block_setup: 0,
        os_request_overhead: 0,
        ..DdConfig::default()
    });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let r = report.borrow();
    let up_tx = stats.get("dev_link.up.tlps_tx").unwrap_or(0.0);
    DdOutcome {
        throughput_gbps: r.throughput_gbps(),
        bytes: r.bytes,
        sim_time: built.sim.now(),
        replay_pct: 0.0,
        timeout_pct: 0.0,
        upstream_tlps: up_tx as u64,
        completed: r.done && outcome == RunOutcome::QueueEmpty,
        trace: None,
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

/// Runs one fault-campaign point: the validation `dd` workload with
/// `error_interval` applied to both links. Injection is a pure function
/// of each interface's transmit count, so the run is deterministic and
/// campaign points are safe to fan out with [`crate::sweep::run_sweep`].
pub fn run_fault_experiment(exp: &FaultExperiment) -> FaultOutcome {
    let mut built = build_system(fault_system_config(exp));
    let report = built.attach_dd(DdConfig { block_bytes: exp.block_bytes, ..DdConfig::default() });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    collect_fault_outcome(&mut built, &report, outcome, exp.error_interval)
}

/// Translates a [`FaultExperiment`]'s knobs into the full-system
/// configuration both the cold and warm runners build from.
fn fault_system_config(exp: &FaultExperiment) -> SystemConfig {
    let mut config = SystemConfig::validation();
    let (root_width, device_width) = match exp.width_all {
        Some(w) => (w, w),
        None => (LinkWidth::X4, LinkWidth::X1),
    };
    config.root_link = LinkConfig {
        error_interval: exp.error_interval,
        ..LinkConfig::new(exp.generation, root_width)
    };
    config.device_link = LinkConfig {
        error_interval: exp.error_interval,
        ..LinkConfig::new(exp.generation, device_width)
    };
    config
}

/// Distils the statistics of a finished fault run into a [`FaultOutcome`].
fn collect_fault_outcome(
    built: &mut BuiltSystem,
    report: &DdReportHandle,
    outcome: RunOutcome,
    error_interval: u64,
) -> FaultOutcome {
    let device_bdf = built.probe.bdf;
    let stats = built.sim.stats();
    let r = report.borrow();

    // Sum a per-interface counter over both links and both directions.
    let sum = |counter: &str| -> u64 {
        ["root_link", "dev_link"]
            .iter()
            .flat_map(|link| {
                ["down", "up"].iter().map(move |dir| format!("{link}.{dir}.{counter}"))
            })
            .map(|key| stats.get(&key).unwrap_or(0.0))
            .sum::<f64>() as u64
    };
    let (uncor, cor) = built
        .registry
        .borrow()
        .lookup(device_bdf)
        .map(|cs| aer_status(&cs.borrow()))
        .unwrap_or((0, 0));

    FaultOutcome {
        error_interval,
        throughput_gbps: r.throughput_gbps(),
        sim_time: built.sim.now(),
        corrupt_drops: sum("rx_dropped_corrupt"),
        replays: sum("replays"),
        naks: sum("naks_tx"),
        replay_timeouts: sum("timeouts"),
        device_aer_cor: cor,
        device_aer_uncor: uncor,
        completed: r.done && outcome == RunOutcome::QueueEmpty,
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

/// Runs a full error-rate sweep — [`error_rate_ladder`] fanned across
/// `jobs` worker threads — and returns one outcome per ladder point, in
/// ladder order. Results are bit-identical for any `jobs` value.
pub fn error_rate_sweep(
    generation: Generation,
    width_all: Option<LinkWidth>,
    block_bytes: u64,
    jobs: usize,
) -> Vec<FaultOutcome> {
    let ladder = error_rate_ladder(generation, width_all, block_bytes);
    crate::sweep::run_sweep(&ladder, jobs, run_fault_experiment)
}

/// Simulated tick at which warm-start checkpoints are taken.
///
/// At 100 µs the `dd` driver has finished its OS-side setup step (it runs
/// at 10 ns) but its first block submission is still 300 µs away
/// (`os_block_setup` defaults to 400 µs), so **no TLP has touched the
/// fabric yet**: every link, router and queue holds its reset state, and
/// the only pending work is the driver's armed timer. That makes the
/// checkpoint independent of every fabric knob — switch/RC latency, link
/// width/generation, replay buffers, port buffers, flow control, error
/// injection — which is exactly what lets one warmed-up run fork an
/// entire parameter sweep. The workload's own state *does* depend on its
/// block size, so warm starts are keyed per distinct `block_bytes`.
pub const WARMUP_TICK: Tick = tick::us(100);

/// A warmed-up `dd` reference run, ready to fork sweep points from.
///
/// Produced once by [`prepare_dd_warm_start`]; each sweep point then
/// builds its own differently parameterized tree from the [`WarmSeed`]
/// (skipping enumeration and the driver probe) and restores the
/// checkpoint into it. The struct is plain data (`Send + Sync`), so a
/// single warm start is shared across parallel sweep workers.
#[derive(Debug, Clone)]
pub struct DdWarmStart {
    /// Checkpoint of the warmed-up system, taken at [`WARMUP_TICK`].
    pub snapshot: Vec<u8>,
    /// The functional enumeration + driver-probe results to replay.
    pub seed: WarmSeed,
    /// Block size the workload was attached with; forked runs must match.
    pub block_bytes: u64,
    /// Scheduler events the warmup simulated — the work each forked sweep
    /// point skips re-executing (on top of enumeration + driver probe).
    pub warm_events: u64,
}

/// Builds the validation system once, attaches `dd` with `block_bytes`,
/// runs to [`WARMUP_TICK`] and captures the checkpoint + warm seed every
/// subsequent sweep point forks from.
pub fn prepare_dd_warm_start(block_bytes: u64) -> DdWarmStart {
    let mut built = build_system(SystemConfig::validation());
    let seed = built.warm_seed();
    let _ = built.attach_dd(DdConfig { block_bytes, ..DdConfig::default() });
    let outcome = built.sim.run(WARMUP_TICK, MAX_EVENTS);
    assert_eq!(outcome, RunOutcome::TimeLimit, "warmup must pause at the warmup tick");
    let warm_events = built.sim.events_processed();
    DdWarmStart { snapshot: built.checkpoint(), seed, block_bytes, warm_events }
}

/// Warm-started [`run_dd_experiment`]: builds the experiment's tree from
/// the warm seed (no enumeration, no driver probe), restores the warmed
/// checkpoint and runs to completion. Bit-identical to the cold runner
/// for any experiment whose `block_bytes` matches the warm start.
///
/// # Panics
///
/// Panics when `exp.block_bytes` differs from the warm start's, or when
/// the experiment asks for a trace (traces cover a whole run from tick 0;
/// fork them from cold runs instead).
pub fn run_dd_experiment_warm(exp: &DdExperiment, warm: &DdWarmStart) -> DdOutcome {
    assert_eq!(
        exp.block_bytes, warm.block_bytes,
        "a warm start is keyed by block size: the driver state at the \
         warmup tick already depends on it"
    );
    assert!(!exp.trace, "warm-started runs do not trace; use run_dd_experiment");
    let mut built = build_system_warm(dd_system_config(exp), &warm.seed);
    let report = built.attach_dd(DdConfig { block_bytes: exp.block_bytes, ..DdConfig::default() });
    built.restore(&warm.snapshot).expect("a warm snapshot restores into its own tree shape");
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    collect_dd_outcome(&mut built, &report, outcome, None)
}

/// Warm-started `dd` sweep: enumerates + warms up once per distinct block
/// size (in first-appearance order), then forks every sweep point from
/// the matching checkpoint across `jobs` workers. Results are
/// bit-identical to `run_sweep(configs, jobs, run_dd_experiment)`.
pub fn run_dd_sweep_warm(configs: &[DdExperiment], jobs: usize) -> Vec<DdOutcome> {
    crate::sweep::run_sweep_warm(
        configs,
        jobs,
        || {
            let mut warms: Vec<DdWarmStart> = Vec::new();
            for exp in configs {
                if !warms.iter().any(|w| w.block_bytes == exp.block_bytes) {
                    warms.push(prepare_dd_warm_start(exp.block_bytes));
                }
            }
            warms
        },
        |exp, warms: &Vec<DdWarmStart>| {
            let warm = warms
                .iter()
                .find(|w| w.block_bytes == exp.block_bytes)
                .expect("a warm start exists for every block size in the sweep");
            run_dd_experiment_warm(exp, warm)
        },
    )
}

/// Warm-started [`run_fault_experiment`]. Error injection is a link
/// *configuration* knob (a pure function of each interface's transmit
/// count, which is zero at [`WARMUP_TICK`]), so every ladder point forks
/// from the same fault-free warm start.
///
/// # Panics
///
/// Panics when `exp.block_bytes` differs from the warm start's.
pub fn run_fault_experiment_warm(exp: &FaultExperiment, warm: &DdWarmStart) -> FaultOutcome {
    assert_eq!(
        exp.block_bytes, warm.block_bytes,
        "a warm start is keyed by block size: the driver state at the \
         warmup tick already depends on it"
    );
    let mut built = build_system_warm(fault_system_config(exp), &warm.seed);
    let report = built.attach_dd(DdConfig { block_bytes: exp.block_bytes, ..DdConfig::default() });
    built.restore(&warm.snapshot).expect("a warm snapshot restores into its own tree shape");
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    collect_fault_outcome(&mut built, &report, outcome, exp.error_interval)
}

/// Warm-started fault campaign over `configs` (which must share one block
/// size): warms up once, forks every point. Bit-identical to
/// `run_sweep(configs, jobs, run_fault_experiment)`.
///
/// # Panics
///
/// Panics when the campaign mixes block sizes.
pub fn run_fault_sweep_warm(configs: &[FaultExperiment], jobs: usize) -> Vec<FaultOutcome> {
    if let Some(first) = configs.first() {
        assert!(
            configs.iter().all(|c| c.block_bytes == first.block_bytes),
            "a fault campaign warm-starts from a single block size"
        );
    }
    crate::sweep::run_sweep_warm(
        configs,
        jobs,
        || prepare_dd_warm_start(configs[0].block_bytes),
        run_fault_experiment_warm,
    )
}

/// Warm-started [`error_rate_sweep`]: same ladder, same outcomes, but the
/// system is enumerated and warmed up exactly once.
pub fn error_rate_sweep_warm(
    generation: Generation,
    width_all: Option<LinkWidth>,
    block_bytes: u64,
    jobs: usize,
) -> Vec<FaultOutcome> {
    let ladder = error_rate_ladder(generation, width_all, block_bytes);
    run_fault_sweep_warm(&ladder, jobs)
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use pcisim_pci::regs::aer::cor;

    #[test]
    fn faulty_run_completes_with_replays_and_aer_evidence() {
        let out = run_fault_experiment(&FaultExperiment {
            error_interval: 13,
            ..FaultExperiment::default()
        });
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
        let outs = error_rate_sweep(Generation::Gen2, None, 256 * 1024, 1);
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

    #[test]
    fn fault_sweep_is_bit_identical_serial_vs_parallel() {
        let serial = error_rate_sweep(Generation::Gen2, None, 64 * 1024, 1);
        let parallel = error_rate_sweep(Generation::Gen2, None, 64 * 1024, 4);
        assert_eq!(serial, parallel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(exp: DdExperiment) -> DdExperiment {
        DdExperiment { block_bytes: 1024 * 1024, ..exp }
    }

    #[test]
    fn validation_run_completes_and_reports_throughput() {
        let out = run_dd_experiment(&small(DdExperiment::default()));
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
        let slow = run_dd_experiment(&small(DdExperiment::default()));
        let fast = run_dd_experiment(&small(DdExperiment {
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
        let x1 = run_dd_experiment(&small(DdExperiment {
            width_all: Some(LinkWidth::X1),
            ..DdExperiment::default()
        }));
        let x2 = run_dd_experiment(&small(DdExperiment {
            width_all: Some(LinkWidth::X2),
            ..DdExperiment::default()
        }));
        let ratio = x2.throughput_gbps / x1.throughput_gbps;
        assert!(ratio > 1.3, "x2 must clearly beat x1, got {ratio}");
        assert!(ratio < 2.0, "OS overhead must keep the gain sublinear, got {ratio}");
    }

    #[test]
    fn sector_microbench_approaches_wire_rate() {
        let out = run_sector_microbench(LinkWidth::X1, 64);
        assert!(out.completed);
        // Gen 2 x1 wire rate for 64 B payloads is 64/84 * 4 = 3.05 Gb/s;
        // the paper reports 3.072. Accept the right neighbourhood.
        assert!(out.throughput_gbps > 2.2, "got {}", out.throughput_gbps);
        assert!(out.throughput_gbps < 3.2, "got {}", out.throughput_gbps);
    }

    #[test]
    fn mmio_latency_tracks_rc_latency() {
        let rc50 = run_mmio_experiment(&MmioExperiment {
            rc_latency: tick::ns(50),
            reads: 8,
            ..MmioExperiment::default()
        });
        let rc150 = run_mmio_experiment(&MmioExperiment {
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

/// Runs a NIC transmit experiment: NIC directly on root port 0, frames
/// fetched over DMA reads through the configured link.
pub fn run_nic_tx_experiment(exp: &NicTxExperiment) -> NicTxOutcome {
    let mut config = SystemConfig::nic_direct();
    config.root_link = LinkConfig::new(Generation::Gen2, exp.width);
    if let DeviceSpec::Nic(nic) = &mut config.device {
        nic.tx_wire_time = exp.tx_wire_time;
    }
    if exp.trace {
        config.trace_mask = TraceCategory::ALL;
    }
    let mut built = build_system(config);
    let report = built.attach_nic_tx(crate::workload::nic_tx::NicTxConfig {
        frames: exp.frames,
        frame_bytes: exp.frame_bytes,
        ..Default::default()
    });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let trace = exp.trace.then(|| built.sim.take_trace());
    let stats = built.sim.stats();
    let r = report.borrow();
    NicTxOutcome {
        throughput_gbps: r.throughput_gbps(),
        frames_per_sec: r.frames_per_sec(),
        dma_read_tlps: stats.get("nic.dma_read_tlps").unwrap_or(0.0) as u64,
        completed: r.done && outcome == RunOutcome::QueueEmpty,
        trace,
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

/// Runs a NIC receive experiment: inbound frames DMA-written through the
/// configured link; loss means the PCI-Express slot cannot sustain the
/// medium — the paper-intro question made concrete.
pub fn run_nic_rx_experiment(exp: &NicRxExperiment) -> NicRxOutcome {
    let mut config = SystemConfig::nic_direct();
    config.root_link = LinkConfig::new(Generation::Gen2, exp.width);
    if let DeviceSpec::Nic(nic) = &mut config.device {
        nic.rx_stream = Some((exp.frame_bytes, exp.interval, exp.frames));
    }
    let mut built = build_system(config);
    let report = built.attach_nic_rx(crate::workload::nic_rx::NicRxConfig {
        expect_frames: exp.frames,
        frame_bytes: exp.frame_bytes,
        ..Default::default()
    });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let r = report.borrow();
    let dropped = stats.get("nic.rx_overruns").unwrap_or(0.0) as u64;
    NicRxOutcome {
        delivered_gbps: r.throughput_gbps(),
        frames_delivered: r.frames,
        frames_dropped: dropped,
        // The stream finished when every frame was delivered or dropped.
        completed: r.frames + dropped == u64::from(exp.frames) && outcome == RunOutcome::QueueEmpty,
    }
}

#[cfg(test)]
mod nic_rx_tests {
    use super::*;

    #[test]
    fn narrow_links_drop_line_rate_traffic_but_wide_links_keep_up() {
        let x1 =
            run_nic_rx_experiment(&NicRxExperiment { frames: 128, ..NicRxExperiment::default() });
        let x8 = run_nic_rx_experiment(&NicRxExperiment {
            frames: 128,
            width: LinkWidth::X8,
            ..NicRxExperiment::default()
        });
        assert!(x1.completed && x8.completed);
        assert!(x1.frames_dropped > 0, "a Gen2 x1 slot cannot sustain ~5 Gb/s inbound: {x1:?}");
        assert_eq!(x8.frames_dropped, 0, "x8 must keep up: {x8:?}");
        assert!(x8.delivered_gbps > x1.delivered_gbps);
    }
}

#[cfg(test)]
mod credit_fc_tests {
    use super::*;

    #[test]
    fn credit_flow_control_eliminates_replays_at_x8() {
        // The paper's ACK/NAK-only protocol replays heavily at x8; real
        // PCI-Express credit flow control replaces drops with stalls.
        let acknak = run_dd_experiment(&DdExperiment {
            block_bytes: 1024 * 1024,
            width_all: Some(LinkWidth::X8),
            ..DdExperiment::default()
        });
        let credits = run_dd_experiment(&DdExperiment {
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
        let base = run_dd_experiment(&DdExperiment {
            block_bytes: 1024 * 1024,
            ..DdExperiment::default()
        });
        let credits = run_dd_experiment(&DdExperiment {
            block_bytes: 1024 * 1024,
            credit_fc: Some(16),
            ..DdExperiment::default()
        });
        assert!(base.completed && credits.completed);
        let ratio = credits.throughput_gbps / base.throughput_gbps;
        assert!((0.9..1.1).contains(&ratio), "uncongested x1 must be unaffected: {ratio}");
    }
}

#[cfg(test)]
mod nic_tx_tests {
    use super::*;

    #[test]
    fn nic_tx_completes_and_scales_with_width() {
        let x1 =
            run_nic_tx_experiment(&NicTxExperiment { frames: 64, ..NicTxExperiment::default() });
        let x4 = run_nic_tx_experiment(&NicTxExperiment {
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
        let x8 = run_nic_tx_experiment(&NicTxExperiment {
            frames: 64,
            width: LinkWidth::X8,
            ..NicTxExperiment::default()
        });
        let x16 = run_nic_tx_experiment(&NicTxExperiment {
            frames: 64,
            width: LinkWidth::X16,
            ..NicTxExperiment::default()
        });
        assert!(x8.completed && x16.completed);
        let gain = x16.throughput_gbps / x8.throughput_gbps;
        assert!(gain < 1.05, "the medium, not the link, must limit x8+: gain {gain}");
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

fn run_contention_arm(
    topo: crate::topology::Topology,
    exp: &TopologyExperiment,
) -> ContentionOutcome {
    let mut built = crate::topology::build_topology(topo);
    let workload = crate::workload::nic_tx::NicTxConfig {
        frames: exp.frames,
        frame_bytes: exp.frame_bytes,
        ..Default::default()
    };
    let r0 = built.attach_nic_tx(0, workload.clone());
    let r1 = built.attach_nic_tx(1, workload);
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let p99_ns = |nic: &str| {
        stats.get(&format!("{nic}.dma_read_latency.p99")).unwrap_or(0.0) / tick::TICKS_PER_NS as f64
    };
    let result = ContentionOutcome {
        per_stream_gbps: [r0.borrow().throughput_gbps(), r1.borrow().throughput_gbps()],
        p99_dma_read_ns: [p99_ns("nic0"), p99_ns("nic1")],
        completed: r0.borrow().done && r1.borrow().done && outcome == RunOutcome::QueueEmpty,
    };
    result
}

/// Runs the contention experiment: identical dual-NIC transmit workloads
/// over [`Topology::dual_nic_shared`](crate::topology::Topology) and
/// [`Topology::dual_nic_split`](crate::topology::Topology). Sharing one
/// upstream link must cost aggregate bandwidth and inflate the DMA p99
/// relative to the split placement — the trade the paper's Fig. 2
/// architecture lets a designer quantify before building hardware.
pub fn run_topology_experiment(exp: &TopologyExperiment) -> TopologyOutcome {
    use pcisim_devices::nic::NicConfig;
    let nic = NicConfig { tx_wire_time: exp.tx_wire_time, ..NicConfig::default() };
    TopologyOutcome {
        shared: run_contention_arm(crate::topology::Topology::dual_nic_shared(nic.clone()), exp),
        split: run_contention_arm(crate::topology::Topology::dual_nic_split(nic), exp),
    }
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

/// Runs one arm of the interrupt-delivery experiment: a multi-queue NIC
/// under MSI-X (per-queue vectors raised as posted memory writes through
/// the fabric) or the same NIC on its legacy INTx line.
pub fn run_msix_tx_experiment(exp: &MsixTxExperiment) -> MsixTxOutcome {
    enum Report {
        Msix(crate::workload::msix::MsixTxReportHandle),
        Legacy(crate::workload::nic_tx::NicTxReportHandle),
    }
    let mut config = if exp.use_msix {
        SystemConfig::nic_msix(exp.queues, exp.moderation)
    } else {
        SystemConfig::nic_direct()
    };
    config.root_link = LinkConfig::new(Generation::Gen2, exp.width);
    if exp.trace {
        config.trace_mask = TraceCategory::ALL;
    }
    let mut built = build_system(config);
    let report = if exp.use_msix {
        Report::Msix(built.attach_msix_tx(crate::workload::msix::MsixTxConfig {
            queues: exp.queues,
            frames: exp.frames,
            frame_bytes: exp.frame_bytes,
            ..Default::default()
        }))
    } else {
        Report::Legacy(built.attach_nic_tx(crate::workload::nic_tx::NicTxConfig {
            frames: exp.frames,
            frame_bytes: exp.frame_bytes,
            ..Default::default()
        }))
    };
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let trace = exp.trace.then(|| built.sim.take_trace());
    let stats = built.sim.stats();
    let (done, throughput_gbps, frames_per_sec) = match &report {
        Report::Msix(r) => {
            let r = r.borrow();
            (r.done, r.throughput_gbps(), r.frames_per_sec())
        }
        Report::Legacy(r) => {
            let r = r.borrow();
            (r.done, r.throughput_gbps(), r.frames_per_sec())
        }
    };
    MsixTxOutcome {
        throughput_gbps,
        frames_per_sec,
        irqs: stats.get("gic.raised").unwrap_or(0.0) as u64,
        irqs_coalesced: stats.get("nic.irqs_coalesced").unwrap_or(0.0) as u64,
        completed: done && outcome == RunOutcome::QueueEmpty,
        trace,
    }
}

#[cfg(test)]
mod msix_tests {
    use super::*;

    #[test]
    fn msix_beats_the_intx_baseline_on_throughput() {
        let intx = run_msix_tx_experiment(&MsixTxExperiment {
            frames: 128,
            use_msix: false,
            ..MsixTxExperiment::default()
        });
        let msix = run_msix_tx_experiment(&MsixTxExperiment {
            frames: 128,
            queues: 4,
            ..MsixTxExperiment::default()
        });
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
        let imm = run_msix_tx_experiment(&MsixTxExperiment {
            frames: 96,
            queues: 2,
            ..MsixTxExperiment::default()
        });
        let moderated = run_msix_tx_experiment(&MsixTxExperiment {
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
}

#[cfg(test)]
mod topology_tests {
    use super::*;

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
}

/// FNV-1a fingerprint over every `(key, value)` pair of a stats snapshot
/// — the same compact hash the determinism suite anchors. Two runs with
/// equal fingerprints agree on every counter in the simulation.
pub fn stats_fnv(stats: &pcisim_kernel::stats::StatsSnapshot) -> u64 {
    use pcisim_kernel::snapshot::fnv1a;
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (k, v) in stats.iter() {
        h = fnv1a(h, k.as_bytes());
        h = fnv1a(h, &v.to_bits().to_le_bytes());
    }
    h
}

/// One measured point of the shard-scaling experiment (`repro shard`).
#[derive(Debug, Clone)]
pub struct ShardScalingOutcome {
    /// Worker shards the topology was partitioned across.
    pub shards: usize,
    /// Links cut by the partition (each cut adds two mailbox edges).
    pub cut_links: usize,
    /// Tick the run quiesced at — must match every other shard count.
    pub quiesce_tick: Tick,
    /// [`stats_fnv`] of the final counters — must match every shard count.
    pub stats_fnv: u64,
    /// Total scheduler dispatches across all shards.
    pub events: u64,
    /// Host wall-clock of the run (build and attach excluded).
    pub wall_secs: f64,
    /// What the window protocol cost (all zero at one shard).
    pub sync: pcisim_kernel::shard::SyncStats,
}

impl ShardScalingOutcome {
    /// Aggregate scheduler events per second of host wall-clock. 0.0 when
    /// the run took no measurable wall time (never NaN/Inf — regression
    /// guard for the zero-duration division bug).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs == 0.0 {
            return 0.0;
        }
        self.events as f64 / self.wall_secs
    }
}

/// Runs `topo`'s disk endpoints each streaming one `dd` block of
/// `block_bytes` through the fabric under the sharded driver, and
/// returns the identity anchors (quiesce tick, stats FNV) together with
/// the aggregate event rate. `shards == 1` is the serial baseline: the
/// driver runs the single shard inline on the calling thread.
pub fn run_shard_scaling(
    topo: crate::topology::Topology,
    shards: usize,
    block_bytes: u64,
) -> ShardScalingOutcome {
    let mut sys = crate::topology::build_topology_sharded(topo, shards);
    let mut reports = Vec::new();
    for i in 0..sys.endpoints.len() {
        if sys.endpoints[i].is_disk {
            reports.push(sys.attach_dd(i, DdConfig { block_bytes, ..DdConfig::default() }));
        }
    }
    let cut_links = sys.cut_count();
    let shards = sys.shard_count();
    let mut driver = sys.into_driver();
    let start = std::time::Instant::now();
    let outcome = driver.run(MAX_TIME, MAX_EVENTS);
    let wall_secs = start.elapsed().as_secs_f64();
    assert_eq!(outcome, RunOutcome::QueueEmpty, "shard scaling run must drain");
    for r in &reports {
        assert!(r.borrow().done, "every dd stream must complete");
    }
    ShardScalingOutcome {
        shards,
        cut_links,
        quiesce_tick: driver.now(),
        stats_fnv: stats_fnv(&driver.stats()),
        events: driver.events_processed(),
        wall_secs,
        sync: driver.sync_stats().clone(),
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
    /// [`stats_fnv`] of the final counters (identity anchor).
    pub stats_fnv: u64,
    /// Whether every offered frame settled and the run drained.
    pub completed: bool,
}

/// The [`SystemConfig`] a [`PmdExperiment`] runs over (Gen 2 root link at
/// the experiment's width, NIC with the experiment's traffic source).
/// Public so benches can build the identical system by hand when they
/// need direct access to the simulator (event counts, wall-clock).
pub fn pmd_system_config(exp: &PmdExperiment) -> SystemConfig {
    let mut config = SystemConfig::nic_pmd(exp.queues, exp.traffic.clone());
    config.root_link = LinkConfig::new(Generation::Gen2, exp.width);
    config
}

fn pmd_workload_config(exp: &PmdExperiment) -> crate::workload::pmd::PmdConfig {
    crate::workload::pmd::PmdConfig {
        queues: exp.queues,
        tx_frames: exp.tx_frames,
        tx_frame_bytes: exp.frame_bytes,
        burst: exp.burst,
        poll_interval: exp.poll_interval,
        rx_expect: exp.traffic.as_ref().map(|t| t.frames()).unwrap_or(0),
        ..Default::default()
    }
}

fn collect_pmd_outcome(
    stats: &pcisim_kernel::stats::StatsSnapshot,
    report: &crate::workload::pmd::PmdReportHandle,
    quiesce_tick: Tick,
    drained: bool,
    rx_expect: u32,
) -> PmdOutcome {
    let r = report.borrow();
    PmdOutcome {
        rx_gbps: r.rx_throughput_gbps(),
        tx_gbps: r.tx_throughput_gbps(),
        rx_delivered: r.rx_frames,
        rx_dropped: r.rx_dropped,
        rx_bytes: r.rx_bytes,
        irqs: stats.get("gic.raised").unwrap_or(0.0) as u64,
        polls: r.polls,
        frame_latency_p50_ns: stats.get("nic.rx_frame_latency.p50").unwrap_or(0.0) / 1e3,
        frame_latency_p99_ns: stats.get("nic.rx_frame_latency.p99").unwrap_or(0.0) / 1e3,
        quiesce_tick,
        stats_fnv: stats_fnv(stats),
        completed: r.done
            && drained
            && r.rx_frames + r.rx_dropped == u64::from(rx_expect)
            && r.tx_frames + r.rx_frames > 0,
    }
}

/// Runs the poll-mode arm: busy-poll driver, interrupts fully masked.
pub fn run_pmd_experiment(exp: &PmdExperiment) -> PmdOutcome {
    let mut built = build_system(pmd_system_config(exp));
    let report = built.attach_pmd(pmd_workload_config(exp));
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let rx_expect = exp.traffic.as_ref().map(|t| t.frames()).unwrap_or(0);
    collect_pmd_outcome(
        &stats,
        &report,
        built.sim.now(),
        outcome == RunOutcome::QueueEmpty,
        rx_expect,
    )
}

/// Runs the same traffic through the sharded kernel: the NIC's subtree on
/// its own shard, conservative-window barriers on the cut link. `shards
/// == 1` is the serial baseline; the quiesce tick and stats FNV must be
/// identical at every shard count.
pub fn run_pmd_sharded(exp: &PmdExperiment, shards: usize) -> PmdOutcome {
    let topo = crate::topology::Topology::from_system_config(&pmd_system_config(exp));
    let mut sys = crate::topology::build_topology_sharded(topo, shards);
    let report = sys.attach_pmd(0, pmd_workload_config(exp));
    let rx_expect = exp.traffic.as_ref().map(|t| t.frames()).unwrap_or(0);
    let mut driver = sys.into_driver();
    let outcome = driver.run(MAX_TIME, MAX_EVENTS);
    collect_pmd_outcome(
        &driver.stats(),
        &report,
        driver.now(),
        outcome == RunOutcome::QueueEmpty,
        rx_expect,
    )
}

/// Runs the interrupt-driven baseline arm: the same traffic source, but
/// the classic per-frame-interrupt receive driver (IMS unmasked, one
/// doorbell per writeback). Single queue only — the comparison the
/// `repro pmd` table prints.
///
/// # Panics
///
/// Panics when the experiment configures TX frames or more than one
/// queue (the interrupt baseline is the paper's single-flow receiver).
pub fn run_irq_rx_experiment(exp: &PmdExperiment) -> PmdOutcome {
    assert_eq!(exp.queues, 1, "the interrupt baseline drives one queue");
    assert_eq!(exp.tx_frames, 0, "the interrupt baseline is RX-only");
    let traffic = exp.traffic.clone().expect("the interrupt baseline needs a traffic source");
    let rx_expect = traffic.frames();
    let mut config = SystemConfig::nic_direct();
    config.root_link = LinkConfig::new(Generation::Gen2, exp.width);
    if let DeviceSpec::Nic(nic) = &mut config.device {
        nic.rx_source = Some(traffic);
    }
    let mut built = build_system(config);
    let report = built.attach_nic_rx(crate::workload::nic_rx::NicRxConfig {
        expect_frames: rx_expect,
        frame_bytes: exp.frame_bytes,
        ..Default::default()
    });
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let r = report.borrow();
    let rx_delivered = stats.get("nic.frames_rx").unwrap_or(0.0) as u64;
    let rx_dropped = stats.get("nic.rx_overruns").unwrap_or(0.0) as u64;
    let rx_bytes = stats.get("nic.rx_octets").unwrap_or(0.0) as u64;
    PmdOutcome {
        rx_gbps: tick::gbps(rx_bytes, r.end.saturating_sub(r.start)),
        tx_gbps: 0.0,
        rx_delivered,
        rx_dropped,
        rx_bytes,
        irqs: stats.get("gic.raised").unwrap_or(0.0) as u64,
        polls: 0,
        frame_latency_p50_ns: stats.get("nic.rx_frame_latency.p50").unwrap_or(0.0) / 1e3,
        frame_latency_p99_ns: stats.get("nic.rx_frame_latency.p99").unwrap_or(0.0) / 1e3,
        quiesce_tick: built.sim.now(),
        stats_fnv: stats_fnv(&stats),
        completed: rx_delivered + rx_dropped == u64::from(rx_expect)
            && outcome == RunOutcome::QueueEmpty,
    }
}

/// A warmed-up poll-mode reference run, ready to fork load points from.
///
/// The checkpoint is taken at [`WARMUP_TICK`], before the driver's
/// [`setup_delay`](crate::workload::pmd::PmdConfig::setup_delay) expires:
/// no ring has been programmed and the traffic source has not emitted a
/// single frame, so the snapshot is independent of the traffic spec, the
/// burst size and the poll interval — one warmed fleet forks a whole
/// offered-load ladder.
#[derive(Debug, Clone)]
pub struct PmdWarmStart {
    /// Checkpoint of the warmed-up system, taken at [`WARMUP_TICK`].
    pub snapshot: Vec<u8>,
    /// The functional enumeration + driver-probe results to replay.
    pub seed: WarmSeed,
    /// Queue pairs the workload was attached with; forks must match
    /// (per-queue state vectors are sized at construction).
    pub queues: u32,
    /// TX frame budget the workload was attached with; forks must match
    /// (the budget counter is part of the restored state).
    pub tx_frames: u32,
    /// Whether the NIC carried a traffic source (the NIC checkpoint tail
    /// is conditional on it); forks must match.
    pub has_traffic: bool,
    /// Scheduler events the warmup simulated.
    pub warm_events: u64,
}

/// Builds the poll-mode system once, runs to [`WARMUP_TICK`] and captures
/// the checkpoint + warm seed every load point forks from.
pub fn prepare_pmd_warm_start(exp: &PmdExperiment) -> PmdWarmStart {
    let mut built = build_system(pmd_system_config(exp));
    let seed = built.warm_seed();
    let _ = built.attach_pmd(pmd_workload_config(exp));
    let outcome = built.sim.run(WARMUP_TICK, MAX_EVENTS);
    assert_eq!(outcome, RunOutcome::TimeLimit, "warmup must pause at the warmup tick");
    let warm_events = built.sim.events_processed();
    PmdWarmStart {
        snapshot: built.checkpoint(),
        seed,
        queues: exp.queues,
        tx_frames: exp.tx_frames,
        has_traffic: exp.traffic.is_some(),
        warm_events,
    }
}

/// Warm-started [`run_pmd_experiment`]: builds the load point's tree from
/// the warm seed, restores the warmed checkpoint and runs to completion.
/// Bit-identical to the cold runner for any compatible experiment.
///
/// # Panics
///
/// Panics when the experiment's queues, TX budget, or traffic presence
/// differ from the warm start's (those live in the restored state).
pub fn run_pmd_experiment_warm(exp: &PmdExperiment, warm: &PmdWarmStart) -> PmdOutcome {
    assert_eq!(exp.queues, warm.queues, "a pmd warm start is keyed by queue count");
    assert_eq!(exp.tx_frames, warm.tx_frames, "a pmd warm start is keyed by the TX budget");
    assert_eq!(
        exp.traffic.is_some(),
        warm.has_traffic,
        "a pmd warm start is keyed by traffic presence (the NIC checkpoint \
         tail is conditional on it)"
    );
    let mut built = build_system_warm(pmd_system_config(exp), &warm.seed);
    let report = built.attach_pmd(pmd_workload_config(exp));
    built.restore(&warm.snapshot).expect("a warm snapshot restores into its own tree shape");
    let outcome = built.sim.run(MAX_TIME, MAX_EVENTS);
    let stats = built.sim.stats();
    let rx_expect = exp.traffic.as_ref().map(|t| t.frames()).unwrap_or(0);
    collect_pmd_outcome(
        &stats,
        &report,
        built.sim.now(),
        outcome == RunOutcome::QueueEmpty,
        rx_expect,
    )
}

/// Warm-started offered-load sweep: enumerates + warms up once (from the
/// first point), then forks every load point across `jobs` workers.
/// Bit-identical to `run_sweep(configs, jobs, run_pmd_experiment)`.
pub fn run_pmd_sweep_warm(configs: &[PmdExperiment], jobs: usize) -> Vec<PmdOutcome> {
    crate::sweep::run_sweep_warm(
        configs,
        jobs,
        || prepare_pmd_warm_start(&configs[0]),
        run_pmd_experiment_warm,
    )
}

#[cfg(test)]
mod pmd_tests {
    use super::*;
    use crate::traffic::{heavy_traffic, TrafficSpec};

    fn small_exp() -> PmdExperiment {
        PmdExperiment {
            traffic: Some(TrafficSpec::Generate(heavy_traffic(
                0x5eed,
                1 << 20,
                48,
                tick::ns(2500),
            ))),
            ..PmdExperiment::default()
        }
    }

    #[test]
    fn poll_mode_settles_all_traffic_without_interrupts() {
        let out = run_pmd_experiment(&small_exp());
        assert!(out.completed, "{out:?}");
        assert_eq!(out.irqs, 0, "poll mode must deliver zero doorbells: {out:?}");
        assert!(out.polls > 0);
        assert_eq!(out.rx_delivered + out.rx_dropped, 48);
        assert!(out.rx_gbps > 0.0);
    }

    #[test]
    fn interrupt_baseline_takes_one_doorbell_per_frame() {
        let exp = small_exp();
        let out = run_irq_rx_experiment(&exp);
        assert!(out.completed, "{out:?}");
        assert_eq!(out.polls, 0);
        assert_eq!(out.irqs, out.rx_delivered, "INTx fires once per writeback: {out:?}");
        assert!(out.irqs > 0);
    }

    #[test]
    fn pmd_is_bit_identical_serial_vs_sharded() {
        let exp = small_exp();
        let serial = run_pmd_sharded(&exp, 1);
        let sharded = run_pmd_sharded(&exp, 2);
        assert!(serial.completed);
        assert_eq!(serial, sharded, "shard count must not perturb the run");
    }

    #[test]
    fn warm_started_pmd_is_bit_identical_to_cold() {
        let exp = small_exp();
        let cold = run_pmd_experiment(&exp);
        let warm = prepare_pmd_warm_start(&exp);
        let hot = run_pmd_experiment_warm(&exp, &warm);
        assert_eq!(cold, hot, "forked run must be indistinguishable from cold");
        // One warm start forks a different load point too.
        let heavier = PmdExperiment {
            traffic: Some(TrafficSpec::Generate(heavy_traffic(
                0x5eed,
                1 << 20,
                48,
                tick::ns(1250),
            ))),
            ..exp
        };
        let cold2 = run_pmd_experiment(&heavier);
        let hot2 = run_pmd_experiment_warm(&heavier, &warm);
        assert_eq!(cold2, hot2);
    }

    #[test]
    fn events_per_sec_is_zero_not_nan_on_zero_wall_time() {
        let out = ShardScalingOutcome {
            shards: 1,
            cut_links: 0,
            quiesce_tick: 0,
            stats_fnv: 0,
            events: 1000,
            wall_secs: 0.0,
            sync: Default::default(),
        };
        assert_eq!(out.events_per_sec(), 0.0);
        assert!(!out.events_per_sec().is_nan());
    }
}

// --- CXL.mem memory expansion (local vs CXL-attached load/store) -----------

use crate::workload::cxl::{CxlHostConfig, CxlHostMode, CxlHostReportHandle};
use pcisim_devices::cxl::CxlExpanderConfig;

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
/// serial-vs-sharded identity assert can compare whole outcomes.
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
    /// [`stats_fnv`] of the final counters (identity anchor).
    pub stats_fnv: u64,
    /// Whether every stream finished and the run drained.
    pub completed: bool,
}

/// The topology a [`CxlExperiment`] runs over. The local-DRAM arm uses
/// the same tree as [`CxlPlacement::Direct`] — only the host stream's
/// target window differs — so the two arms pay identical enumeration.
fn cxl_topology(exp: &CxlExperiment) -> crate::topology::Topology {
    match exp.placement {
        CxlPlacement::LocalDram | CxlPlacement::Direct => {
            crate::topology::Topology::cxl_direct(exp.expander.clone())
        }
        CxlPlacement::BehindSwitch => {
            crate::topology::Topology::cxl_behind_switch(exp.expander.clone())
        }
        CxlPlacement::Interleaved(n) => {
            crate::topology::Topology::cxl_interleaved(n, exp.expander.clone())
        }
    }
}

fn cxl_host_config(exp: &CxlExperiment) -> CxlHostConfig {
    CxlHostConfig {
        mode: exp.mode,
        requests: exp.requests,
        outstanding: exp.outstanding,
        gap: exp.gap,
        chain_blocks: exp.chain_blocks,
        write_every: exp.write_every,
        ..CxlHostConfig::default()
    }
}

fn collect_cxl_outcome(
    stats: &pcisim_kernel::stats::StatsSnapshot,
    reports: &[CxlHostReportHandle],
    quiesce_tick: Tick,
    drained: bool,
    requests: u32,
) -> CxlOutcome {
    use pcisim_kernel::tick::to_ns;
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
        quiesce_tick,
        stats_fnv: stats_fnv(stats),
        completed: done
            && drained
            && completed_accesses == reports.len() as u64 * u64::from(requests),
    }
}

/// Runs the experiment under the sharded driver: one host stream per
/// expander (or one DRAM stream for the reference arm), partitioned
/// across `shards` workers. `shards == 1` is the serial baseline; the
/// whole outcome — latencies, bandwidth, quiesce tick, stats FNV — must
/// be identical at every shard count.
pub fn run_cxl_sharded(exp: &CxlExperiment, shards: usize) -> CxlOutcome {
    let mut sys = crate::topology::build_topology_sharded(cxl_topology(exp), shards);
    let mut reports = Vec::new();
    if exp.placement == CxlPlacement::LocalDram {
        reports.push(sys.attach_dram_host(0, cxl_host_config(exp)));
    } else {
        for i in 0..sys.endpoints.len() {
            if sys.endpoints[i].is_cxl {
                reports.push(sys.attach_cxl_host(i, cxl_host_config(exp)));
            }
        }
    }
    assert!(!reports.is_empty(), "a cxl experiment needs at least one host stream");
    let requests = exp.requests;
    let mut driver = sys.into_driver();
    let outcome = driver.run(MAX_TIME, MAX_EVENTS);
    collect_cxl_outcome(
        &driver.stats(),
        &reports,
        driver.now(),
        outcome == RunOutcome::QueueEmpty,
        requests,
    )
}

/// Runs the experiment serially (the common case for the sweep tables).
pub fn run_cxl_experiment(exp: &CxlExperiment) -> CxlOutcome {
    run_cxl_sharded(exp, 1)
}

#[cfg(test)]
mod cxl_tests {
    use super::*;

    #[test]
    fn cxl_attached_loads_pay_more_than_local_dram() {
        let local = run_cxl_experiment(&CxlExperiment {
            placement: CxlPlacement::LocalDram,
            requests: 64,
            ..CxlExperiment::default()
        });
        let direct = run_cxl_experiment(&CxlExperiment {
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
            run_cxl_experiment(&CxlExperiment {
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

    #[test]
    fn interleaved_streams_are_bit_identical_serial_vs_sharded() {
        let exp = CxlExperiment {
            placement: CxlPlacement::Interleaved(2),
            requests: 64,
            ..CxlExperiment::default()
        };
        let serial = run_cxl_sharded(&exp, 1);
        let sharded = run_cxl_sharded(&exp, 2);
        assert!(serial.completed, "{serial:?}");
        assert_eq!(serial, sharded, "shard count must not perturb the cxl run");
    }
}

use crate::workload::virtio::{VirtioAppConfig, VirtioReportHandle};
use pcisim_devices::virtio::{VirtioClass, VirtioConfig};

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
/// serial-vs-sharded identity assert can compare whole outcomes.
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
    /// [`stats_fnv`] of the final counters (identity anchor).
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

fn collect_virtio_outcome(
    stats: &pcisim_kernel::stats::StatsSnapshot,
    virtio: &[VirtioReportHandle],
    dd: Option<&DdReportHandle>,
    quiesce_tick: Tick,
    drained: bool,
    expected_requests: u64,
) -> VirtioOutcome {
    use pcisim_kernel::tick::to_ns;
    let mut requests = 0u64;
    let mut irqs = 0u64;
    let mut gbps = 0.0;
    let mut lat_sum: Tick = 0;
    let mut lat_min: Option<Tick> = None;
    let mut lat_max: Tick = 0;
    let mut done = true;
    for report in virtio {
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
    let virtio_chains = requests;
    let (mean_ns, min_ns, max_ns) = if virtio_chains > 0 {
        (
            to_ns(lat_sum) / virtio_chains as f64,
            lat_min.map_or(0.0, to_ns),
            to_ns(lat_max),
        )
    } else if let Some(report) = dd {
        // `dd` reports only the aggregate window; spread it evenly.
        let r = report.borrow();
        let per = if r.commands == 0 {
            0.0
        } else {
            to_ns(r.end.saturating_sub(r.start)) / r.commands as f64
        };
        (per, per, per)
    } else {
        (0.0, 0.0, 0.0)
    };
    if let Some(report) = dd {
        let r = report.borrow();
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
        quiesce_tick,
        stats_fnv: stats_fnv(stats),
        completed: done && drained && requests >= expected_requests,
    }
}

/// Runs the experiment under the sharded driver; `shards == 1` is the
/// serial baseline, and the whole outcome — latencies, throughput,
/// quiesce tick, stats FNV — must be identical at every shard count.
pub fn run_virtio_sharded(exp: &VirtioExperiment, shards: usize) -> VirtioOutcome {
    let mut virtio_reports = Vec::new();
    let mut dd_report = None;
    let mut expected = u64::from(exp.requests);
    let topo = match exp.arm {
        VirtioArm::Blk => crate::topology::Topology::virtio_blk_direct(exp.device.clone()),
        VirtioArm::NetTx => crate::topology::Topology::virtio_net_direct(VirtioConfig {
            class: VirtioClass::Net,
            ..exp.device.clone()
        }),
        VirtioArm::IdeBaseline => crate::topology::Topology::validation(),
        VirtioArm::Mixed => crate::topology::Topology::virtio_mixed(
            VirtioConfig { class: VirtioClass::Blk, ..exp.device.clone() },
            VirtioConfig { class: VirtioClass::Net, ..exp.device.clone() },
        ),
    };
    let mut topo = topo;
    topo.use_msix = exp.use_msix;
    let mut sys = crate::topology::build_topology_sharded(topo, shards);
    match exp.arm {
        VirtioArm::Blk | VirtioArm::NetTx => {
            virtio_reports.push(sys.attach_virtio(0, virtio_app_config(exp)));
        }
        VirtioArm::IdeBaseline => {
            assert!(!exp.use_msix, "the IDE baseline is INTx-only");
            assert!(
                exp.request_bytes % 4096 == 0,
                "IDE commands move whole 4 KB sectors"
            );
            let sectors = exp.request_bytes / 4096;
            dd_report = Some(sys.attach_dd(
                0,
                DdConfig {
                    block_bytes: u64::from(exp.requests) * u64::from(exp.request_bytes),
                    blocks: 1,
                    request_sectors: sectors,
                    os_request_overhead: VirtioAppConfig::default().os_submit_overhead,
                    ..DdConfig::default()
                },
            ));
        }
        VirtioArm::Mixed => {
            assert!(!exp.use_msix, "multi-endpoint trees are INTx-only");
            virtio_reports.push(sys.attach_virtio(0, virtio_app_config(exp)));
            virtio_reports.push(sys.attach_virtio(
                1,
                VirtioAppConfig { request_bytes: 1514, ..virtio_app_config(exp) },
            ));
            let dd = sys.attach_dd(
                2,
                DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() },
            );
            expected = 2 * u64::from(exp.requests) + 64 * 1024 / (32 * 4096);
            dd_report = Some(dd);
        }
    }
    let mut driver = sys.into_driver();
    let outcome = driver.run(MAX_TIME, MAX_EVENTS);
    collect_virtio_outcome(
        &driver.stats(),
        &virtio_reports,
        dd_report.as_ref(),
        driver.now(),
        outcome == RunOutcome::QueueEmpty,
        expected,
    )
}

/// Runs the experiment serially (the common case for the sweep tables).
pub fn run_virtio_experiment(exp: &VirtioExperiment) -> VirtioOutcome {
    run_virtio_sharded(exp, 1)
}

#[cfg(test)]
mod virtio_exp_tests {
    use super::*;

    #[test]
    fn virtio_blk_beats_the_ide_baseline_on_per_request_latency() {
        let blk = run_virtio_experiment(&VirtioExperiment {
            requests: 32,
            ..VirtioExperiment::default()
        });
        let ide = run_virtio_experiment(&VirtioExperiment {
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
            run_virtio_experiment(&VirtioExperiment {
                queue_depth,
                requests: 48,
                ..VirtioExperiment::default()
            })
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
        let intx = run_virtio_experiment(&VirtioExperiment {
            arm: VirtioArm::NetTx,
            requests: 64,
            queue_depth: 8,
            request_bytes: 1514,
            ..VirtioExperiment::default()
        });
        assert!(intx.completed, "{intx:?}");
        assert!(intx.gbps > 1.0, "tx must stream: {intx:?}");
        let msix = run_virtio_experiment(&VirtioExperiment {
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

    #[test]
    fn mixed_fleet_is_bit_identical_serial_vs_sharded() {
        let exp = VirtioExperiment {
            arm: VirtioArm::Mixed,
            requests: 16,
            queue_depth: 2,
            ..VirtioExperiment::default()
        };
        let serial = run_virtio_sharded(&exp, 1);
        let sharded = run_virtio_sharded(&exp, 2);
        assert!(serial.completed, "{serial:?}");
        assert_eq!(serial, sharded, "shard count must not perturb the virtio run");
    }
}
