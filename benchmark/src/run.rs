//! One workload, one process: set-up samples, timed repetitions, output
//! checks, and (with `--trace 1`) the traced run and the per-layer ledger.

use std::path::PathBuf;
use std::time::Instant;

use pcisim_kernel::prelude::*;
use pcisim_kernel::tick::to_ns;

use crate::classify::{component_of, layer_of, stage_of, Layer};
use crate::goldens::{self, Answer, DEFAULT_SEED};
use crate::layers;
use crate::metrics::{self, Source};
use crate::spans::Spans;
use crate::workloads::{fnv, prepare, Input, Outcome, WorkloadDef, WARMUP_TICK};

/// Repetitions a run never exceeds, however long `--seconds` is.
const MAX_REPS: usize = 64;

/// Trace ring size of the traced run: twice the largest traced workload,
/// so `kernel.trace.dropped` is 0 unless a workload outgrows its budget.
const TRACE_CAPACITY: usize = 4 << 20;

/// Traced and untraced repetitions timed against each other for
/// `kernel.trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the layer micro-scenarios too (`run.sh --traced` runs them once
    /// for all workloads instead).
    pub micro: bool,
    /// Self-test: give the serial oracle of `fanout32_dd_shard2` one sector
    /// more than the sharded run, which must fail the workload.
    pub break_oracle: bool,
    pub bench_dir: PathBuf,
}

/// One reported metric. `samples` holds the per-repetition values of a
/// host-time metric (`value` is their median) and is empty otherwise.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// False for a metric the workload has no value for: it reads 0 in
    /// the result line, because the driver wants every name on every
    /// workload, and `-` in the table.
    pub applies: bool,
}

impl Measured {
    pub fn single(name: &'static str, value: f64) -> Self {
        Self { name, value, samples: Vec::new(), applies: true }
    }

    fn sampled(name: &'static str, samples: Vec<f64>) -> Self {
        Self { name, value: median(&samples), samples, applies: true }
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are wrong; empty when they are correct.
    pub faults: Vec<String>,
    pub metrics: Vec<Measured>,
    pub spans: Spans,
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the trace of one repetition says about the layers.
struct TraceFacts {
    events: u64,
    dropped: u64,
    drain_s: f64,
    shares: [f64; Layer::ALL.len()],
    link_ns: f64,
    router_ns: f64,
    device_ns: f64,
}

struct Rep {
    wall_s: f64,
    quiesce_tick: Tick,
    events: u64,
    outcome: Outcome,
    stats: StatsSnapshot,
    trace: Option<TraceFacts>,
}

impl Rep {
    fn answer(&self) -> Answer {
        Answer::of(self.quiesce_tick, &self.outcome)
    }

    /// Everything simulated that two runs of one input must agree on: the
    /// answer, the event count and every statistic.
    fn identity(&self) -> (Answer, u64, u64) {
        let stats = self.stats.iter();
        let stats_hash = fnv(stats.flat_map(|(k, v)| k.bytes().chain(v.to_bits().to_le_bytes())));
        (self.answer(), self.events, stats_hash)
    }
}

fn analyse_trace(log: &TraceLog, drain_s: f64, spans: &mut Spans) -> TraceFacts {
    let mut counts = [0u64; Layer::ALL.len()];
    let layers: Vec<Layer> = log.names.iter().map(|n| layer_of(n)).collect();
    for event in &log.events {
        let layer = layers.get(event.component.0 as usize).copied().unwrap_or(Layer::Other);
        counts[layer as usize] += 1;
    }
    let total = log.events.len().max(1) as f64;
    let attribution = spans.span("kernel.trace.attribution", |_| log.attribution_with(stage_of));
    TraceFacts {
        events: log.events.len() as u64,
        dropped: log.dropped,
        drain_s,
        shares: counts.map(|c| c as f64 / total),
        link_ns: attribution.mean_stage_ns(Stage::Link),
        router_ns: attribution.mean_stage_ns(Stage::RootComplex)
            + attribution.mean_stage_ns(Stage::Switch),
        device_ns: attribution.mean_stage_ns(Stage::Device),
    }
}

/// One repetition: build, attach, then the timed region (simulated boot to
/// [`WARMUP_TICK`], then the workload to quiesce), then collection and
/// checks, each under its span.
fn run_rep(def: &WorkloadDef, input: &Input, shards: usize, trace: bool, spans: &mut Spans) -> Rep {
    spans.next_rep();
    spans.span("bench.rep", |spans| {
        let mut prepared = prepare(def, input, shards, trace, spans);
        if trace {
            prepared.driver.set_trace_capacity(TRACE_CAPACITY);
        }
        let (_, boot_s) = spans.timed("kernel.sim.boot", |_| prepared.driver.run(WARMUP_TICK));
        let (ended, run_s) = spans.timed("kernel.sim.run", |_| prepared.driver.run(Tick::MAX));
        let stats = spans.span("kernel.stats.collect", |_| prepared.driver.stats());
        let trace = trace.then(|| {
            let (log, drain_s) =
                spans.timed("kernel.trace.drain", |_| prepared.driver.take_trace());
            analyse_trace(&log, drain_s, spans)
        });
        let (quiesce_tick, events) = (prepared.driver.now(), prepared.driver.events_processed());
        let outcome = spans.span("bench.check", |_| {
            let mut outcome = prepared.collect(&stats);
            if ended != RunOutcome::QueueEmpty {
                outcome.faults.push(format!("run ended with {ended:?}, not a drained queue"));
            }
            outcome
        });
        Rep { wall_s: boot_s + run_s, quiesce_tick, events, outcome, stats, trace }
    })
}

/// `setup_s`: plan + build + attach + run to [`WARMUP_TICK`], repeated
/// `setup_builds` times per sample so the sample is long enough to time.
fn setup_sample(def: &WorkloadDef, input: &Input, shards: usize) -> f64 {
    let mut scratch = Spans::new();
    let start = Instant::now();
    for _ in 0..def.setup_builds {
        let mut prepared = prepare(def, input, shards, false, &mut scratch);
        prepared.driver.run(WARMUP_TICK);
    }
    start.elapsed().as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `[S]` metrics: counters of the full run, summed per layer with the
/// harness's own component classification.
fn stats_metrics(rep: &Rep, ops: u64) -> Vec<Measured> {
    let stats = &rep.stats;
    let get = |key: &str| stats.get(key).unwrap_or(0.0);
    // Sum of `<component>…<suffix>` over the components of one layer.
    let sum = |layer: Layer, suffix: &str| -> f64 {
        stats
            .iter()
            .filter(|(key, _)| key.ends_with(suffix) && layer_of(component_of(key)) == layer)
            .map(|(_, v)| v)
            .sum()
    };
    let device = |prefix: &str, suffix: &str| -> f64 {
        stats
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    let busiest_link = stats
        .iter()
        .filter(|(key, _)| {
            key.ends_with(".busy_ticks") && layer_of(component_of(key)) == Layer::Link
        })
        .map(|(_, v)| v)
        .fold(0.0, f64::max);
    let tlps_tx = sum(Layer::Link, ".tlps_tx");
    let ide_tlps = device("disk", ".dma_tlps");
    let (frames, drops) = (get("nic.frames_rx"), get("nic.rx_overruns"));
    let values = [
        ("kernel.sim.events", rep.events as f64),
        ("kernel.sim.events_per_op", ratio(rep.events as f64, ops as f64)),
        ("kernel.xbar.requests", get("membus.requests")),
        ("kernel.xbar.refusals", get("membus.refusals")),
        ("kernel.xbar.unsupported_requests", get("membus.unsupported_requests")),
        ("kernel.dram.reads", get("dram.reads")),
        ("kernel.dram.writes", get("dram.writes")),
        ("kernel.iocache.accesses", get("iocache.accesses")),
        ("kernel.iocache.refusals", get("iocache.refusals")),
        ("pci.host.config_reads", get("pcihost.config_reads")),
        ("pci.host.config_writes", get("pcihost.config_writes")),
        ("pcie.link.tlps_tx", tlps_tx),
        ("pcie.link.bytes_tx", sum(Layer::Link, ".bytes_tx")),
        ("pcie.link.acks_tx", sum(Layer::Link, ".acks_tx")),
        ("pcie.link.replays", sum(Layer::Link, ".replays")),
        ("pcie.link.timeouts", sum(Layer::Link, ".timeouts")),
        ("pcie.link.admission_refusals", sum(Layer::Link, ".admission_refusals")),
        ("pcie.link.utilization", ratio(busiest_link, rep.quiesce_tick as f64)),
        ("pcie.link.replay_ratio", ratio(sum(Layer::Link, ".replays"), tlps_tx)),
        ("pcie.router.requests", sum(Layer::Router, ".requests")),
        ("pcie.router.responses", sum(Layer::Router, ".responses")),
        ("pcie.router.ingress_refusals", sum(Layer::Router, ".ingress_refusals")),
        ("pcie.router.egress_stalls", sum(Layer::Router, ".egress_stalls")),
        ("pcie.router.unsupported_requests", sum(Layer::Router, ".unsupported_requests")),
        ("pcie.router.completion_timeouts", sum(Layer::Router, ".completion_timeouts")),
        ("devices.ide.commands", device("disk", ".commands")),
        ("devices.ide.dma_tlps", ide_tlps),
        ("devices.ide.dma_stalls", device("disk", ".dma_stalls")),
        ("devices.ide.stall_ratio", ratio(device("disk", ".dma_stalls"), ide_tlps)),
        ("devices.ide.irqs", device("disk", ".irqs")),
        ("devices.nic.frames", frames),
        ("devices.nic.drops", drops),
        ("devices.nic.drop_ratio", ratio(drops, frames + drops)),
        ("devices.nic.rx_latency_p50_ns", get("nic.rx_frame_latency.p50") / 1e3),
        ("devices.nic.rx_latency_p99_ns", get("nic.rx_frame_latency.p99") / 1e3),
        ("devices.virtio.requests", get("vblk0.chains_used")),
        ("devices.virtio.dma_tlps", get("vblk0.dma_read_tlps") + get("vblk0.dma_write_tlps")),
        ("devices.virtio.desc_faults", get("vblk0.desc_faults")),
        ("devices.virtio.irqs", get("vblk0.irqs")),
        (
            "devices.virtio.sim_latency_mean_ns",
            if stats.get("vblk0.chains_used").is_some() {
                rep.outcome.sim_latency_mean_ns
            } else {
                0.0
            },
        ),
        ("devices.intc.raised", get("gic.raised")),
        ("devices.intc.spurious", get("gic.spurious")),
        ("system.workload.sim_gbps", rep.outcome.sim_gbps),
        ("system.workload.sim_latency_mean_ns", rep.outcome.sim_latency_mean_ns),
        ("system.workload.sim_time_ns", to_ns(rep.quiesce_tick)),
    ];
    values.into_iter().map(|(name, value)| Measured::single(name, value)).collect()
}

fn model_err_pct(def: &WorkloadDef, outcome: &Outcome) -> Option<f64> {
    let anchor = def.anchor?;
    let simulated = outcome.model_value?;
    Some(100.0 * (simulated - anchor.paper).abs() / anchor.paper)
}

/// The repetitions of one run, with the identity checks between them.
struct Reps {
    reps: Vec<Rep>,
    /// One `setup_s` sample taken before each repetition, so the samples
    /// span the whole run and a slow spell of the host touches few of them.
    setups: Vec<f64>,
    /// `fanout32_dd_shard2`: serial ÷ sharded wall time of each repetition.
    speedups: Vec<f64>,
    /// `fanout32_dd_shard2`: every sharded run matched its serial oracle.
    shards_identical: bool,
    faults: Vec<String>,
}

/// How long a run repeats its workload.
struct Schedule {
    min_reps: usize,
    seconds: f64,
    /// Take a `setup_s` sample before each repetition.
    setup_samples: bool,
}

impl Reps {
    fn first(&self) -> &Rep {
        &self.reps[0]
    }
}

/// Runs repetitions of `input` as `schedule` says, after the workload's
/// untimed warm-up. On `fanout32_dd_shard2` each repetition first runs the
/// same input on the serial kernel, as identity oracle and speed-up
/// denominator.
fn run_reps(
    def: &WorkloadDef,
    input: &Input,
    opts: &Options,
    schedule: Schedule,
    spans: &mut Spans,
) -> Reps {
    let shards = def.shards();
    let mut out = Reps {
        reps: Vec::new(),
        setups: Vec::new(),
        speedups: Vec::new(),
        shards_identical: true,
        faults: Vec::new(),
    };
    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < def.warmup_s {
        setup_sample(def, input, shards);
        run_rep(def, input, shards, false, &mut Spans::new());
    }
    let started = Instant::now();
    while out.reps.len() < schedule.min_reps
        || (started.elapsed().as_secs_f64() < schedule.seconds && out.reps.len() < MAX_REPS)
    {
        let n = out.reps.len() + 1;
        if schedule.setup_samples {
            out.setups.push(setup_sample(def, input, shards));
        }
        let oracle = (shards > 1).then(|| {
            let oracle_input = Input { ops: input.ops + u64::from(opts.break_oracle), ..*input };
            run_rep(def, &oracle_input, 1, false, spans)
        });
        let rep = run_rep(def, input, shards, false, spans);
        for fault in &rep.outcome.faults {
            out.faults.push(format!("repetition {n}: {fault}"));
        }
        if let Some(oracle) = oracle {
            if oracle.identity() != rep.identity() {
                let why = rep
                    .answer()
                    .diff(&oracle.answer())
                    .unwrap_or_else(|| "events or statistics differ".into());
                out.faults.push(format!(
                    "repetition {n}: sharded run differs from the serial oracle: {why}"
                ));
                out.shards_identical = false;
            }
            out.speedups.push(ratio(oracle.wall_s, rep.wall_s));
        }
        if let Some(first) = out.reps.first() {
            if first.identity() != rep.identity() {
                let why = rep
                    .answer()
                    .diff(&first.answer())
                    .unwrap_or_else(|| "events or statistics differ".into());
                out.faults.push(format!("repetition {n} differs from repetition 1: {why}"));
            }
        }
        out.reps.push(rep);
    }
    out
}

/// Ops attempted and failed over `reps`. An op fails when it never settles
/// or returns wrong data; any workload-level fault fails them all.
fn tally(reps: &[Rep], ops_each: u64, faults: &[String]) -> (u64, u64) {
    let attempted = ops_each * reps.len() as u64;
    if !faults.is_empty() {
        return (attempted, attempted);
    }
    let failed = reps.iter().map(|r| ops_each.saturating_sub(r.outcome.ops_completed)).sum();
    (attempted, failed)
}

/// The untraced run: every end-to-end metric, plus the exact counters of
/// the full run for `agree`.
fn run_untraced(def: &WorkloadDef, opts: &Options) -> Report {
    let mut spans = Spans::new();
    let input = def.input(opts.seed);
    let schedule =
        Schedule { min_reps: def.min_reps as usize, seconds: opts.seconds, setup_samples: true };
    let mut reps = run_reps(def, &input, opts, schedule, &mut spans);

    if opts.seed == DEFAULT_SEED {
        match goldens::load(&opts.bench_dir, def.name) {
            Ok(want) => {
                if let Some(why) = reps.first().answer().diff(&want) {
                    reps.faults.push(format!("differs from goldens.json: {why}"));
                }
            }
            Err(why) => reps.faults.push(why),
        }
    }

    let walls: Vec<f64> = reps.reps.iter().map(|r| r.wall_s).collect();
    let mut metrics = vec![
        Measured::sampled("wall_s", walls.clone()),
        Measured::sampled(
            "ops_per_sec",
            walls.iter().map(|w| ratio(input.ops as f64, *w)).collect(),
        ),
        Measured::sampled("setup_s", reps.setups.clone()),
        Measured::single("peak_rss_mb", peak_rss_mb()),
    ];
    if let Some(err) = model_err_pct(def, &reps.first().outcome) {
        metrics.push(Measured::single("model_err_pct", err));
    }
    if !reps.speedups.is_empty() {
        metrics.push(Measured::sampled("shard_speedup", reps.speedups.clone()));
    }
    metrics.extend(stats_metrics(reps.first(), input.ops));

    let (attempted, failed) = tally(&reps.reps, input.ops, &reps.faults);
    Report { attempted, failed, faults: reps.faults, metrics, spans }
}

/// The traced run: one full-scale repetition for the exact counters, the
/// 1/16-scale run under `TraceCategory::ALL` for simulated time per layer
/// and event shares, the same scale untraced for the tracing overhead, and
/// the layer micro-scenarios. No end-to-end metric comes from here.
fn run_traced(def: &WorkloadDef, opts: &Options) -> Report {
    let mut spans = Spans::new();
    let shards = def.shards();
    let input = def.input(opts.seed);

    let once = Schedule { min_reps: 1, seconds: 0.0, setup_samples: false };
    let full = run_reps(def, &input, opts, once, &mut spans);
    let mut faults = full.faults.clone();
    let rep = full.first();
    let mut metrics = stats_metrics(rep, input.ops);
    metrics.push(Measured::single(
        "kernel.sim.ns_per_event",
        ratio(rep.wall_s * 1e9, rep.events as f64),
    ));
    if let Some(err) = model_err_pct(def, &rep.outcome) {
        metrics.push(Measured::single("model_err_pct", err));
    }
    if let Some(&speedup) = full.speedups.first() {
        metrics.push(Measured::single("shard_speedup", speedup));
        metrics.push(Measured::single(
            "kernel.shard.ns_per_event",
            ratio(rep.wall_s * 1e9, rep.events as f64),
        ));
        metrics.push(Measured::single(
            "kernel.shard.identical",
            f64::from(u8::from(full.shards_identical)),
        ));
    }

    let small = def.traced_input(opts.seed);
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut facts = None;
    let mut small_reps = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        let plain = run_rep(def, &small, shards, false, &mut spans);
        let mut traced = run_rep(def, &small, shards, true, &mut spans);
        // Tracing observes; it must not change what is simulated.
        if traced.identity() != plain.identity() {
            faults.push("the traced run's simulated answer differs from the untraced run's".into());
        }
        faults.extend(traced.outcome.faults.iter().map(|f| format!("traced run: {f}")));
        plain_walls.push(plain.wall_s);
        traced_walls.push(traced.wall_s);
        facts = facts.or(traced.trace.take());
        small_reps.push(plain);
        small_reps.push(traced);
    }
    let facts = facts.expect("OVERHEAD_PAIRS is at least 1");
    if facts.dropped > 0 {
        faults.push(format!(
            "trace ring dropped {} events; the shares are not of the whole run",
            facts.dropped
        ));
    }
    let other = facts.shares[Layer::Other as usize];
    if other > 0.0 {
        faults.push(format!("share.other is {other}: a component has no layer in classify.rs"));
    }
    let gap = spans.worst_self_time_gap();
    if gap > 0.01 {
        faults
            .push(format!("span self times miss a repetition's wall time by {:.2} %", gap * 100.0));
    }
    metrics.extend([
        Measured::single("kernel.trace.events", facts.events as f64),
        Measured::single("kernel.trace.dropped", facts.dropped as f64),
        Measured::single(
            "kernel.trace.overhead_pct",
            100.0 * (ratio(median(&traced_walls), median(&plain_walls)) - 1.0),
        ),
        Measured::single("kernel.trace.drain_ms", facts.drain_s * 1e3),
        Measured::single("pcie.link.sim_ns_per_req", facts.link_ns),
        Measured::single("pcie.router.sim_ns_per_req", facts.router_ns),
        Measured::single(
            "devices.ide.sim_ns_per_req",
            if def.reads_disks() { facts.device_ns } else { 0.0 },
        ),
    ]);
    metrics.extend(
        Layer::ALL
            .map(|layer| Measured::single(layer.share_metric(), facts.shares[layer as usize])),
    );
    if opts.micro {
        metrics.extend(
            spans
                .span("bench.micro", |_| layers::run_all())
                .into_iter()
                .map(|(n, v)| Measured::single(n, v)),
        );
    }

    let (full_attempted, full_failed) = tally(&full.reps, input.ops, &faults);
    let (small_attempted, small_failed) = tally(&small_reps, small.ops, &faults);
    Report {
        attempted: full_attempted + small_attempted,
        failed: full_failed + small_failed,
        faults,
        metrics,
        spans,
    }
}

/// Runs `def` as `opts` says and fills in the metrics that do not apply
/// to it with 0, so every registry name is present (the driver's contract
/// wants every metric on every workload).
pub fn run(def: &WorkloadDef, opts: &Options) -> Report {
    let mut report = if opts.trace { run_traced(def, opts) } else { run_untraced(def, opts) };
    let expected: Vec<&metrics::MetricDef> = if opts.trace {
        metrics::per_layer().filter(|m| opts.micro || m.source != Source::Micro).collect()
    } else {
        metrics::END_TO_END.iter().collect()
    };
    for metric in expected {
        if !report.metrics.iter().any(|m| m.name == metric.name) {
            report.metrics.push(Measured { applies: false, ..Measured::single(metric.name, 0.0) });
        }
    }
    report
}

/// The simulated answer of `def` at the default seed, for `record-goldens`
/// (one serial repetition: the sharded workload's oracle is the serial run).
pub fn golden_answer(def: &WorkloadDef) -> Result<Answer, String> {
    let rep = run_rep(def, &def.input(DEFAULT_SEED), 1, false, &mut Spans::new());
    if rep.outcome.faults.is_empty() {
        Ok(rep.answer())
    } else {
        Err(format!("{}: {}", def.name, rep.outcome.faults.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn peak_rss_reads_a_positive_high_water_mark() {
        assert!(peak_rss_mb() > 0.5);
    }
}
