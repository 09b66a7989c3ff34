//! The CXL.mem host load/store engine.
//!
//! Models CPU-side code touching expander memory through the HDM window:
//! an **open-loop** stream (a new access every `gap`, up to an
//! `outstanding` window — the memcpy/streaming shape) and a **closed-loop
//! pointer chase** (each load's target decoded from the previous load's
//! completion data — the latency-bound linked-list shape). The same engine
//! drives local DRAM with plain Memory Read/Write TLP commands, which is
//! what makes the local-vs-CXL comparison an apples-to-apples experiment.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, CompletionStatus, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::{Latencies, StatsBuilder};
use pcisim_kernel::tick::{ns, to_ns, Tick, TICKS_PER_SEC};
use pcisim_kernel::{snapshot, state_fields};

use crate::platform;
use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{Attached, Workload};

/// The engine's single port, wired toward the memory bus.
pub const CXL_HOST_MEM_PORT: PortId = PortId(0);

/// Access pattern the engine generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CxlHostMode {
    /// Open loop: a new access every `gap`, windowed by `outstanding`.
    OpenLoop,
    /// Closed loop: write a pointer chain through the window, then chase
    /// it with fully dependent loads (the next address is decoded from
    /// each completion's payload).
    PointerChase,
}

/// Engine parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CxlHostConfig {
    /// Access pattern.
    pub mode: CxlHostMode,
    /// Total timed accesses (chase hops in [`CxlHostMode::PointerChase`]).
    pub requests: u32,
    /// In-flight window of the open-loop stream.
    pub outstanding: usize,
    /// Open-loop inter-issue gap.
    pub gap: Tick,
    /// Address stride between consecutive accesses (block granule).
    pub stride: u64,
    /// Every `write_every`-th open-loop access is a store (0 = all loads).
    pub write_every: u32,
    /// Bytes per access.
    pub access_bytes: u32,
    /// CPU-side cost charged per access (instruction path around the
    /// load/store; also the turnaround of each chase hop).
    pub cpu_overhead: Tick,
    /// Blocks in the pointer chain (the chase cycles when `requests`
    /// exceeds it).
    pub chain_blocks: u32,
}

impl Default for CxlHostConfig {
    fn default() -> Self {
        Self {
            mode: CxlHostMode::OpenLoop,
            requests: 256,
            outstanding: 8,
            gap: ns(100),
            stride: 64,
            write_every: 0,
            access_bytes: 64,
            cpu_overhead: ns(10),
            chain_blocks: 64,
        }
    }
}

/// The CXL arm of the local-vs-CXL comparison: the stream (named
/// `cxlhost{index}`) walks the expander's HDM window with CXL.mem
/// commands.
impl Workload for CxlHostConfig {
    type Report = CxlHostReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::CxlExpander]
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<CxlHostReportHandle> {
        Attached::new(
            CxlHostApp::new(format!("cxlhost{index}"), self, ep.hdm, true),
            vec![(CXL_HOST_MEM_PORT, ep.cpu_mem_port)],
        )
    }
}

/// The local arm of the comparison: the same engine (named
/// `dramhost{index}`) walks a local DRAM slice with plain Memory
/// Read/Write TLPs through any endpoint's reserved CPU port.
pub(crate) struct LocalDram(pub(crate) CxlHostConfig);

impl Workload for LocalDram {
    type Report = CxlHostReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &EndpointKind::ALL
    }

    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<CxlHostReportHandle> {
        let window =
            AddrRange::with_size(platform::DRAM_BASE + 0x2000_0000, platform::CXL_HDM_STRIDE);
        Attached::new(
            CxlHostApp::new(format!("dramhost{index}"), self.0, window, false),
            vec![(CXL_HOST_MEM_PORT, ep.cpu_mem_port)],
        )
    }
}

/// Result of an engine run.
#[derive(Debug, Clone, Default)]
pub struct CxlHostReport {
    /// Timed accesses issued.
    pub issued: u64,
    /// Completions received.
    pub completed: u64,
    /// Bytes moved by timed accesses (loads + stores).
    pub bytes: u64,
    /// Open-loop slots skipped because the in-flight window was full.
    pub stalls: u64,
    /// Every access's round-trip latency (including `cpu_overhead`), in
    /// completion order; a run of equal accesses is stored once.
    pub latencies: Latencies,
    /// Tick of the first timed issue.
    pub start: Option<Tick>,
    /// Tick of the last completion.
    pub end: Option<Tick>,
    /// Whether every timed access completed.
    pub done: bool,
}

impl CxlHostReport {
    /// Mean access latency in nanoseconds.
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

    /// Achieved bandwidth over the timed phase in Gb/s.
    pub fn throughput_gbps(&self) -> f64 {
        match (self.start, self.end) {
            (Some(s), Some(e)) if e > s => {
                self.bytes as f64 * 8.0 / ((e - s) as f64 / TICKS_PER_SEC as f64) / 1e9
            }
            _ => 0.0,
        }
    }
}

/// Shared handle to a [`CxlHostReport`].
pub type CxlHostReportHandle = Rc<RefCell<CxlHostReport>>;

impl snapshot::State for CxlHostReport {
    state_fields!(state self; issued, completed, bytes, stalls, start, end, done, latencies);
}

/// Open-loop issue slot.
const K_SLOT: u32 = 0;
/// Closed-loop step: issue the next setup write or chase load.
const K_STEP: u32 = 1;

/// Phases of the closed-loop pointer chase.
const PHASE_SETUP: u8 = 0;
const PHASE_RUN: u8 = 1;

/// The host load/store engine component.
pub struct CxlHostApp {
    name: String,
    config: CxlHostConfig,
    /// Address window the stream walks.
    window: AddrRange,
    /// Issue CXL.mem commands (`CxlMemRd`/`CxlMemWr`) rather than plain
    /// Memory Read/Write TLPs.
    cxl: bool,
    /// Phase of the chase ([`PHASE_SETUP`] writes the chain first);
    /// open-loop streams start in [`PHASE_RUN`].
    phase: u8,
    /// Chain blocks written so far (setup phase).
    setup_next: u32,
    /// Timed accesses issued so far.
    seq: u64,
    /// Address the next chase load targets.
    chase_addr: u64,
    /// Issue tick per in-flight packet id.
    in_flight: BTreeMap<u64, Tick>,
    /// Accesses on their way to the memory port, in issue order.
    cpu: TimedQueue,
    report: CxlHostReportHandle,
}

impl CxlHostApp {
    /// Creates the engine walking `window`, with CXL.mem commands when
    /// `cxl` holds and plain Memory Read/Write TLPs otherwise; returns the
    /// component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: CxlHostConfig,
        window: AddrRange,
        cxl: bool,
    ) -> (Self, CxlHostReportHandle) {
        assert!(config.requests > 0, "the engine needs at least one access");
        assert!(config.outstanding > 0, "the in-flight window must admit one access");
        assert!(config.stride > 0 && config.access_bytes > 0, "degenerate access shape");
        assert!(config.chain_blocks > 0, "a chase needs at least one block");
        assert!(!window.is_empty(), "the stream needs a non-empty window");
        let report: CxlHostReportHandle = Rc::new(RefCell::new(CxlHostReport::default()));
        let phase = match config.mode {
            CxlHostMode::OpenLoop => PHASE_RUN,
            CxlHostMode::PointerChase => PHASE_SETUP,
        };
        (
            Self {
                name: name.into(),
                phase,
                setup_next: 0,
                seq: 0,
                chase_addr: 0,
                in_flight: BTreeMap::new(),
                cpu: TimedQueue::unbounded(),
                config,
                window,
                cxl,
                report: report.clone(),
            },
            report,
        )
    }

    fn read_cmd(&self) -> Command {
        if self.cxl {
            Command::CxlMemRd
        } else {
            Command::ReadReq
        }
    }

    fn write_cmd(&self) -> Command {
        if self.cxl {
            Command::CxlMemWr
        } else {
            Command::WriteReq
        }
    }

    /// Blocks the window admits at the configured stride.
    fn span_blocks(&self) -> u64 {
        (self.window.size() / self.config.stride).max(1)
    }

    /// Address of chain block `i`.
    fn chain_addr(&self, i: u64) -> u64 {
        let blocks = u64::from(self.config.chain_blocks).min(self.span_blocks());
        self.window.start() + (i % blocks) * self.config.stride
    }

    /// Sends `pkt` behind any access the fabric refused.
    fn send(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        self.cpu.push(pkt);
        self.cpu.flush(ctx, CXL_HOST_MEM_PORT);
    }

    /// Issues one timed access of the open-loop stream.
    fn issue_open_loop(&mut self, ctx: &mut Ctx<'_>) {
        let seq = self.seq;
        let addr = self.window.start() + (seq % self.span_blocks()) * self.config.stride;
        let is_write = self.config.write_every != 0
            && (seq + 1).is_multiple_of(u64::from(self.config.write_every));
        let cmd = if is_write { self.write_cmd() } else { self.read_cmd() };
        let id = ctx.alloc_packet_id();
        let mut pkt = Packet::request(id, cmd, addr, self.config.access_bytes, ctx.self_id());
        if is_write {
            let mut data = vec![0; self.config.access_bytes as usize];
            for (i, b) in data.iter_mut().enumerate() {
                *b = (addr as u8).wrapping_add(i as u8);
            }
            pkt = pkt.with_payload(data);
        }
        self.seq += 1;
        self.in_flight.insert(id.0, ctx.now());
        let mut r = self.report.borrow_mut();
        r.issued += 1;
        r.start.get_or_insert(ctx.now());
        drop(r);
        self.send(ctx, pkt);
    }

    /// Issues the next closed-loop step: a chain write during setup, a
    /// dependent load during the chase.
    fn issue_step(&mut self, ctx: &mut Ctx<'_>) {
        if self.phase == PHASE_SETUP {
            let i = u64::from(self.setup_next);
            let addr = self.chain_addr(i);
            let next = self.chain_addr(i + 1);
            let id = ctx.alloc_packet_id();
            let mut data = vec![0; self.config.access_bytes as usize];
            data[..8].copy_from_slice(&next.to_le_bytes());
            let pkt = Packet::request(
                id,
                self.write_cmd(),
                addr,
                self.config.access_bytes,
                ctx.self_id(),
            )
            .with_payload(data);
            self.in_flight.insert(id.0, ctx.now());
            self.send(ctx, pkt);
        } else {
            let addr = self.chase_addr;
            let id = ctx.alloc_packet_id();
            let pkt =
                Packet::request(id, self.read_cmd(), addr, self.config.access_bytes, ctx.self_id());
            self.seq += 1;
            self.in_flight.insert(id.0, ctx.now());
            let mut r = self.report.borrow_mut();
            r.issued += 1;
            r.start.get_or_insert(ctx.now());
            drop(r);
            self.send(ctx, pkt);
        }
    }

    /// Marks the run finished once nothing is left to issue or collect.
    fn maybe_finish(&mut self, now: Tick) {
        if self.phase == PHASE_RUN
            && self.seq >= u64::from(self.config.requests)
            && self.in_flight.is_empty()
            && self.cpu.is_empty()
        {
            let mut r = self.report.borrow_mut();
            if !r.done {
                r.done = true;
                r.end = Some(now);
            }
        }
    }
}

impl Component for CxlHostApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        match self.config.mode {
            CxlHostMode::OpenLoop => {
                ctx.schedule(self.config.gap, Event::Timer { kind: K_SLOT, data: 0 });
            }
            CxlHostMode::PointerChase => {
                ctx.schedule(self.config.cpu_overhead, Event::Timer { kind: K_STEP, data: 0 });
            }
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_SLOT, .. } => {
                if self.seq < u64::from(self.config.requests) {
                    if self.in_flight.len() < self.config.outstanding && self.cpu.is_empty() {
                        self.issue_open_loop(ctx);
                    } else {
                        self.report.borrow_mut().stalls += 1;
                    }
                    ctx.schedule(self.config.gap, Event::Timer { kind: K_SLOT, data: 0 });
                }
            }
            Event::Timer { kind: K_STEP, .. } => self.issue_step(ctx),
            other => panic!("{}: unexpected event {other:?}", self.name),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, mut pkt: Packet) -> RecvResult {
        assert_eq!(port, CXL_HOST_MEM_PORT);
        assert_eq!(
            pkt.status(),
            CompletionStatus::SuccessfulCompletion,
            "{}: access to {:#x} failed ({:?})",
            self.name,
            pkt.addr(),
            pkt.status()
        );
        let issued = self
            .in_flight
            .remove(&pkt.id().0)
            .unwrap_or_else(|| panic!("{}: completion for unknown packet {}", self.name, pkt.id()));
        let latency = ctx.now() - issued + self.config.cpu_overhead;
        let payload = pkt.take_payload();

        if self.phase == PHASE_SETUP {
            // A chain write came back; write the next block, or start the
            // chase once the cycle is closed.
            self.setup_next += 1;
            let blocks = u64::from(self.config.chain_blocks).min(self.span_blocks()) as u32;
            if self.setup_next >= blocks {
                self.phase = PHASE_RUN;
                self.chase_addr = self.chain_addr(0);
            }
            ctx.schedule(self.config.cpu_overhead, Event::Timer { kind: K_STEP, data: 0 });
        } else {
            let mut r = self.report.borrow_mut();
            r.completed += 1;
            r.bytes += u64::from(pkt.size());
            r.latencies.push(latency);
            drop(r);
            if self.config.mode == CxlHostMode::PointerChase {
                // Decode the next hop from the completion data; the chain
                // layout is known, so the decode doubles as an end-to-end
                // data-integrity check of the expander's backing store.
                let expected = {
                    let blocks = u64::from(self.config.chain_blocks).min(self.span_blocks());
                    let i = (self.chase_addr - self.window.start()) / self.config.stride;
                    self.chain_addr((i + 1) % blocks)
                };
                let next = match &payload {
                    Some(data) if self.cxl => {
                        let mut b = [0u8; 8];
                        b.copy_from_slice(&data[..8]);
                        let got = u64::from_le_bytes(b);
                        assert_eq!(
                            got, expected,
                            "{}: chase pointer corrupted at {:#x}",
                            self.name, self.chase_addr
                        );
                        got
                    }
                    // Local DRAM is a timing model without a backing
                    // store; walk the same chain from the known layout.
                    _ => expected,
                };
                self.chase_addr = next;
                if self.seq < u64::from(self.config.requests) {
                    ctx.schedule(self.config.cpu_overhead, Event::Timer { kind: K_STEP, data: 0 });
                }
            }
        }
        self.maybe_finish(ctx.now());
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        assert_eq!(port, CXL_HOST_MEM_PORT);
        self.cpu.unblock();
        self.cpu.flush(ctx, CXL_HOST_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("issued", r.issued as f64);
        out.scalar("completed", r.completed as f64);
        out.scalar("bytes", r.bytes as f64);
        out.scalar("stalls", r.stalls as f64);
        out.scalar("mean_latency_ns", r.mean_ns());
    }

    state_fields!(component self; phase, setup_next, seq, chase_addr, in_flight, cpu, report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_devices::cxl::{program_hdm, CxlExpander, CxlExpanderConfig, CXL_PIO_PORT};
    use pcisim_kernel::prelude::*;
    use pcisim_kernel::tick::us;

    fn window() -> AddrRange {
        AddrRange::with_size(0x1_0000_0000, 0x10_0000)
    }

    fn run(config: CxlHostConfig) -> CxlHostReport {
        let mut sim = Simulation::new();
        let (exp, cs) = CxlExpander::new(
            "mem0",
            CxlExpanderConfig { access_latency: ns(80), ..CxlExpanderConfig::default() },
        );
        program_hdm(&mut cs.borrow_mut(), window());
        let e = sim.add(Box::new(exp));
        let (app, report) = CxlHostApp::new("cxlhost", config, window(), true);
        let a = sim.add(Box::new(app));
        sim.connect((a, CXL_HOST_MEM_PORT), (e, CXL_PIO_PORT));
        assert_eq!(sim.run(us(400_000), u64::MAX), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        r
    }

    #[test]
    fn open_loop_stream_completes_every_access() {
        let r = run(CxlHostConfig {
            requests: 64,
            outstanding: 4,
            gap: ns(200),
            ..CxlHostConfig::default()
        });
        assert!(r.done);
        assert_eq!(r.issued, 64);
        assert_eq!(r.completed, 64);
        assert_eq!(r.bytes, 64 * 64);
        assert_eq!(r.latencies.len(), 64);
        assert!(r.throughput_gbps() > 0.0);
    }

    #[test]
    fn open_loop_mixes_stores_when_asked() {
        let r = run(CxlHostConfig {
            requests: 32,
            write_every: 4,
            gap: ns(500),
            ..CxlHostConfig::default()
        });
        assert!(r.done);
        assert_eq!(r.completed, 32);
    }

    #[test]
    fn pointer_chase_walks_real_data_through_the_expander() {
        let r = run(CxlHostConfig {
            mode: CxlHostMode::PointerChase,
            requests: 96,
            chain_blocks: 32,
            cpu_overhead: ns(10),
            ..CxlHostConfig::default()
        });
        assert!(r.done, "chase must complete");
        assert_eq!(r.completed, 96, "every hop completes exactly once");
        // Fully dependent loads: each hop pays at least the device access
        // latency; the mean cannot collapse below it.
        assert!(r.mean_ns() >= 80.0, "got {}", r.mean_ns());
    }

    #[test]
    fn chase_latency_exceeds_open_loop_per_access_cost() {
        // Same device, same window: dependent loads can never be faster
        // than pipelined ones.
        let chase = run(CxlHostConfig {
            mode: CxlHostMode::PointerChase,
            requests: 64,
            chain_blocks: 16,
            ..CxlHostConfig::default()
        });
        let open = run(CxlHostConfig { requests: 64, gap: ns(50), ..CxlHostConfig::default() });
        assert!(chase.done && open.done);
        assert!(
            chase.end.unwrap() - chase.start.unwrap() >= open.end.unwrap() - open.start.unwrap(),
            "dependent hops must serialize"
        );
    }
}
