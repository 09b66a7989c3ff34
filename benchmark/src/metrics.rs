//! The metric registry: every name the benchmark prints, with its unit,
//! direction, how it is measured and how two runs of it compare.
//!
//! `BENCHMARK.json` at the repo root lists the same names; the
//! `benchmark_json_matches_registry` test fails when the two drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric is obtained, which decides how `agree` compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host time measured by the harness around a whole run; noisy.
    Host,
    /// `stats()` counter or workload report of the full run; repeats
    /// exactly, so two runs compare for equality.
    Stats,
    /// Simulated time from the simulator's own `TraceLog`; exact.
    Trace,
    /// Host time of a micro-scenario driving one layer's public API; noisy.
    Micro,
}

impl Source {
    pub fn exact(self) -> bool {
        matches!(self, Source::Stats | Source::Trace)
    }

    pub fn tag(self) -> &'static str {
        match self {
            Source::Host => "H",
            Source::Stats => "S",
            Source::Trace => "T",
            Source::Micro => "M",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Share of the reference median a headline metric may worsen by.
    /// `Some(0.0)` means the two runs must agree exactly.
    pub bound: Option<f64>,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, source: Source::Host, bound: Some(bound) }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
) -> MetricDef {
    MetricDef { name, unit, better, source, bound: None }
}

use Better::{Higher, Lower};
use Source::{Host, Micro, Stats, Trace};

/// The four end-to-end metrics every workload reports: `end_to_end` in
/// `BENCHMARK.json`, where the driver applies the bounds.
pub static END_TO_END: [MetricDef; 4] = [
    host("wall_s", "s", Lower, 0.20),
    host("ops_per_sec", "ops/s", Higher, 0.20),
    host("setup_s", "s", Lower, 0.25),
    host("peak_rss_mb", "MB", Lower, 0.25),
];

/// End-to-end metrics that exist on some workloads only. The driver's
/// contract wants every `end_to_end` metric on every workload and never 0,
/// so `BENCHMARK.json` carries these two under `per_layer` (reading 0
/// where they do not apply); `run.sh` and `agree` treat them as headline
/// metrics with these bounds.
pub static PARTIAL_END_TO_END: [MetricDef; 2] = [
    MetricDef { name: "model_err_pct", unit: "%", better: Lower, source: Stats, bound: Some(0.0) },
    MetricDef {
        name: "shard_speedup",
        unit: "ratio",
        better: Higher,
        source: Host,
        bound: Some(0.20),
    },
];

pub static PER_LAYER: [MetricDef; 85] = [
    layer("kernel.sim.events", "count", Lower, Stats),
    layer("kernel.sim.events_per_op", "count", Lower, Stats),
    layer("kernel.sim.ns_per_event", "ns", Lower, Host),
    layer("kernel.sim.dispatch_ns", "ns", Lower, Micro),
    layer("kernel.calendar.hold_ns_d64", "ns", Lower, Micro),
    layer("kernel.calendar.hold_ns_d4096", "ns", Lower, Micro),
    layer("kernel.calendar.far_ns", "ns", Lower, Micro),
    layer("kernel.calendar.cancel_ns", "ns", Lower, Micro),
    layer("kernel.xbar.requests", "count", Lower, Stats),
    layer("kernel.xbar.refusals", "count", Lower, Stats),
    layer("kernel.xbar.unsupported_requests", "count", Lower, Stats),
    layer("kernel.xbar.ns_per_op", "ns", Lower, Micro),
    layer("kernel.xbar.events_per_op", "count", Lower, Micro),
    layer("kernel.dram.reads", "count", Lower, Stats),
    layer("kernel.dram.writes", "count", Lower, Stats),
    layer("kernel.dram.ns_per_op", "ns", Lower, Micro),
    layer("kernel.iocache.accesses", "count", Lower, Stats),
    layer("kernel.iocache.refusals", "count", Lower, Stats),
    layer("kernel.trace.events", "count", Lower, Trace),
    layer("kernel.trace.dropped", "count", Lower, Trace),
    layer("kernel.trace.overhead_pct", "%", Lower, Host),
    layer("kernel.trace.drain_ms", "ms", Lower, Host),
    layer("kernel.snapshot.checkpoint_ms", "ms", Lower, Micro),
    layer("kernel.snapshot.restore_ms", "ms", Lower, Micro),
    layer("kernel.snapshot.bytes", "count", Lower, Micro),
    layer("kernel.shard.ns_per_event", "ns", Lower, Host),
    layer("kernel.shard.identical", "count", Higher, Stats),
    layer("pci.enumeration.walk_us", "us", Lower, Micro),
    layer("pci.enumeration.functions", "count", Lower, Micro),
    layer("pci.host.config_reads", "count", Lower, Stats),
    layer("pci.host.config_writes", "count", Lower, Stats),
    layer("pcie.link.tlps_tx", "count", Lower, Stats),
    layer("pcie.link.bytes_tx", "count", Lower, Stats),
    layer("pcie.link.acks_tx", "count", Lower, Stats),
    layer("pcie.link.replays", "count", Lower, Stats),
    layer("pcie.link.timeouts", "count", Lower, Stats),
    layer("pcie.link.admission_refusals", "count", Lower, Stats),
    layer("pcie.link.utilization", "ratio", Higher, Stats),
    layer("pcie.link.replay_ratio", "ratio", Lower, Stats),
    layer("pcie.link.sim_ns_per_req", "ns", Lower, Trace),
    layer("pcie.link.ns_per_tlp", "ns", Lower, Micro),
    layer("pcie.link.events_per_tlp", "count", Lower, Micro),
    layer("pcie.link.lossy_ns_per_tlp", "ns", Lower, Micro),
    layer("pcie.router.requests", "count", Lower, Stats),
    layer("pcie.router.responses", "count", Lower, Stats),
    layer("pcie.router.ingress_refusals", "count", Lower, Stats),
    layer("pcie.router.egress_stalls", "count", Lower, Stats),
    layer("pcie.router.unsupported_requests", "count", Lower, Stats),
    layer("pcie.router.completion_timeouts", "count", Lower, Stats),
    layer("pcie.router.sim_ns_per_req", "ns", Lower, Trace),
    layer("pcie.router.ns_per_tlp", "ns", Lower, Micro),
    layer("pcie.router.events_per_tlp", "count", Lower, Micro),
    layer("devices.ide.commands", "count", Lower, Stats),
    layer("devices.ide.dma_tlps", "count", Lower, Stats),
    layer("devices.ide.dma_stalls", "count", Lower, Stats),
    layer("devices.ide.stall_ratio", "ratio", Lower, Stats),
    layer("devices.ide.irqs", "count", Lower, Stats),
    layer("devices.ide.sim_ns_per_req", "ns", Lower, Trace),
    layer("devices.nic.frames", "count", Lower, Stats),
    layer("devices.nic.drops", "count", Lower, Stats),
    layer("devices.nic.drop_ratio", "ratio", Lower, Stats),
    layer("devices.nic.rx_latency_p50_ns", "ns", Lower, Stats),
    layer("devices.nic.rx_latency_p99_ns", "ns", Lower, Stats),
    layer("devices.virtio.requests", "count", Lower, Stats),
    layer("devices.virtio.dma_tlps", "count", Lower, Stats),
    layer("devices.virtio.desc_faults", "count", Lower, Stats),
    layer("devices.virtio.irqs", "count", Lower, Stats),
    layer("devices.virtio.sim_latency_mean_ns", "ns", Lower, Stats),
    layer("devices.intc.raised", "count", Lower, Stats),
    layer("devices.intc.spurious", "count", Lower, Stats),
    layer("devices.traffic.gen_ns_per_frame", "ns", Lower, Micro),
    layer("devices.cxl.access_ns", "ns", Lower, Micro),
    layer("system.topology.plan_us", "us", Lower, Micro),
    layer("system.topology.build_us", "us", Lower, Micro),
    layer("system.topology.endpoints", "count", Lower, Micro),
    layer("system.sweep.speedup_j2", "ratio", Higher, Micro),
    layer("system.workload.sim_gbps", "Gb/s", Higher, Stats),
    layer("system.workload.sim_latency_mean_ns", "ns", Lower, Stats),
    layer("system.workload.sim_time_ns", "ns", Lower, Stats),
    layer("share.link", "ratio", Lower, Trace),
    layer("share.router", "ratio", Lower, Trace),
    layer("share.hostfabric", "ratio", Lower, Trace),
    layer("share.device", "ratio", Lower, Trace),
    layer("share.workload", "ratio", Lower, Trace),
    layer("share.other", "ratio", Lower, Trace),
];

/// Everything `BENCHMARK.json` lists under `per_layer`, in file order.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PARTIAL_END_TO_END.iter().chain(PER_LAYER.iter())
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(per_layer()).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        assert!(per_layer().count() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    }

    /// `BENCHMARK.json` is what the driver reads and this registry is what
    /// the harness prints: every name, unit, direction and bound must be
    /// the same in both, or a run is rejected for a missing metric.
    #[test]
    fn benchmark_json_matches_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json readable"))
            .expect("BENCHMARK.json parses");
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);

        let listed = doc.get("end_to_end").and_then(Json::as_arr).expect("end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (got, want) in listed.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit), "{}", want.name);
            assert_eq!(field(got, "better").as_deref(), Some(want.better.key()), "{}", want.name);
            assert_eq!(got.get("bound").and_then(Json::as_f64), want.bound, "{}", want.name);
        }

        let listed = doc.get("per_layer").and_then(Json::as_arr).expect("per_layer");
        assert_eq!(listed.len(), per_layer().count());
        for (got, want) in listed.iter().zip(per_layer()) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit), "{}", want.name);
            assert_eq!(field(got, "better").as_deref(), Some(want.better.key()), "{}", want.name);
            assert!(got.get("bound").is_none(), "{}: per-layer metrics carry no bound", want.name);
        }

        let listed = doc.get("workloads").and_then(Json::as_arr).expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (got, want) in listed.iter().zip(WORKLOADS.iter()) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "why").as_deref(), Some(want.why), "{}", want.name);
            assert!(want.why.len() <= 200 && !want.why.contains('\n'), "{}", want.name);
        }
    }
}
