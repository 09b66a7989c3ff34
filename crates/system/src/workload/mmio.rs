//! The MMIO-latency probe (paper Table II).
//!
//! The paper loads "a kernel module and measure\[s\] the time taken to access
//! a location in the NIC memory space": a 4-byte MMIO read, timed around
//! the load. This component issues a configurable number of such reads,
//! separated by a quiet gap so they never pipeline, and records each
//! round-trip latency plus a fixed CPU-side overhead (the instruction path
//! around `readl`).

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::{Latencies, StatsBuilder};
use pcisim_kernel::tick::{to_ns, us, Tick};
use pcisim_kernel::{snapshot, state_fields};

use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{mmio_read, Attached, Workload};

/// The probe's single port, wired toward the fabric.
pub const MMIO_MEM_PORT: PortId = PortId(0);

/// Probe parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmioProbeConfig {
    /// Number of timed reads.
    pub reads: u32,
    /// Quiet gap between reads.
    pub gap: Tick,
    /// CPU-side cost included in each measurement (the kernel-module
    /// timing harness around the load).
    pub cpu_overhead: Tick,
}

impl Default for MmioProbeConfig {
    fn default() -> Self {
        Self { reads: 64, gap: us(1), cpu_overhead: 0 }
    }
}

impl Workload for MmioProbeConfig {
    type Report = MmioReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &EndpointKind::ALL
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<MmioReportHandle> {
        let status = ep.bar0 + 0x0008; // the NIC status register
        Attached::new(
            MmioProbe::new(format!("mmio_probe{index}"), self, status),
            vec![(MMIO_MEM_PORT, ep.cpu_mem_port)],
        )
    }
}

/// Result of a probe run.
#[derive(Debug, Clone, Default)]
pub struct MmioReport {
    /// Every read's latency in ticks (including the CPU overhead), in
    /// completion order; a run of equal reads is stored once.
    pub latencies: Latencies,
    /// Whether all reads completed.
    pub done: bool,
}

impl MmioReport {
    /// Mean latency in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        to_ns(self.latencies.sum()) / self.latencies.len() as f64
    }

    /// Smallest observed latency in nanoseconds.
    pub fn min_ns(&self) -> f64 {
        self.latencies.min().map_or(0.0, to_ns)
    }

    /// Largest observed latency in nanoseconds.
    pub fn max_ns(&self) -> f64 {
        self.latencies.max().map_or(0.0, to_ns)
    }
}

/// Shared handle to an [`MmioReport`].
pub type MmioReportHandle = Rc<RefCell<MmioReport>>;

impl snapshot::State for MmioReport {
    state_fields!(state self; done, latencies);
}

const K_ISSUE: u32 = 0;

/// The probe component.
pub struct MmioProbe {
    name: String,
    config: MmioProbeConfig,
    /// Register address to read (a NIC register per the paper).
    target: u64,
    remaining: u32,
    issued_at: Option<Tick>,
    report: MmioReportHandle,
    /// The read on its way to the memory port. It never holds a packet
    /// between events (`issue` asserts so), so it is not checkpointed.
    cpu: TimedQueue,
}

impl MmioProbe {
    /// Creates the probe reading register `target`; returns the component
    /// and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: MmioProbeConfig,
        target: u64,
    ) -> (Self, MmioReportHandle) {
        assert!(config.reads > 0, "probe needs at least one read");
        let report: MmioReportHandle = Rc::new(RefCell::new(MmioReport::default()));
        (
            Self {
                name: name.into(),
                remaining: config.reads,
                config,
                target,
                issued_at: None,
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        self.issued_at = Some(ctx.now());
        self.cpu.push(mmio_read(ctx, self.target));
        self.cpu.flush(ctx, MMIO_MEM_PORT);
        assert!(!self.cpu.peer_blocked(), "the fabric never refuses a lone MMIO read");
    }
}

impl Component for MmioProbe {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.config.gap, Event::Timer { kind: K_ISSUE, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::Timer { kind: K_ISSUE, .. } = ev else {
            panic!("{}: unexpected event", self.name)
        };
        self.issue(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, MMIO_MEM_PORT);
        assert_eq!(pkt.cmd(), Command::ReadResp);
        let issued = self.issued_at.take().expect("response without a read in flight");
        let latency = ctx.now() - issued + self.config.cpu_overhead;
        let mut report = self.report.borrow_mut();
        report.latencies.push(latency);
        self.remaining -= 1;
        if self.remaining > 0 {
            drop(report);
            ctx.schedule(self.config.gap, Event::Timer { kind: K_ISSUE, data: 0 });
        } else {
            report.done = true;
        }
        RecvResult::Accepted
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("reads", r.latencies.len() as f64);
        out.scalar("mean_latency_ns", r.mean_ns());
    }

    state_fields!(component self; remaining, issued_at, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::prelude::*;
    use pcisim_kernel::testutil::{Responder, RESPONDER_PORT};
    use pcisim_kernel::tick::ns;

    fn run_probe(config: MmioProbeConfig, service: Tick) -> MmioReport {
        let mut sim = Simulation::new();
        let (probe, report) = MmioProbe::new("probe", config, 0x4000_0008);
        let p = sim.add(Box::new(probe));
        let (resp, _) = Responder::new("nic", service);
        let n = sim.add(Box::new(resp));
        sim.connect((p, MMIO_MEM_PORT), (n, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        r
    }

    #[test]
    fn measures_round_trip_latency() {
        let r = run_probe(MmioProbeConfig { reads: 4, ..MmioProbeConfig::default() }, ns(100));
        assert!(r.done);
        assert_eq!(r.latencies.len(), 4);
        assert!(r.latencies.iter().all(|&t| t == ns(100)));
        assert_eq!(r.mean_ns(), 100.0);
        assert_eq!(r.min_ns(), 100.0);
        assert_eq!(r.max_ns(), 100.0);
    }

    #[test]
    fn cpu_overhead_is_included() {
        let cfg = MmioProbeConfig { reads: 2, cpu_overhead: ns(70), ..MmioProbeConfig::default() };
        let r = run_probe(cfg, ns(100));
        assert_eq!(r.mean_ns(), 170.0);
    }

    #[test]
    fn reads_never_pipeline() {
        // With a gap larger than the service time, at most one read is in
        // flight; an in-flight overlap would panic in recv_response.
        let cfg = MmioProbeConfig { reads: 8, gap: us(1), ..MmioProbeConfig::default() };
        let r = run_probe(cfg, ns(500));
        assert_eq!(r.latencies.len(), 8);
    }

    #[test]
    fn empty_report_means() {
        let r = MmioReport::default();
        assert_eq!(r.mean_ns(), 0.0);
        assert_eq!(r.min_ns(), 0.0);
        assert_eq!(r.max_ns(), 0.0);
    }
}
