//! Poll-mode (DPDK-style) NIC driver workload: busy-poll RX/TX bursts.
//!
//! Interrupts stay **fully masked** — the driver never writes IMS and never
//! enables MSI-X, so the steady state delivers zero doorbells. Instead the
//! app polls the NIC's ring heads (`TDH`/`RDH`, MMIO-visible per queue) and
//! statistics registers (`GPRC`/`MPC`/`GORC`) on a configurable interval,
//! retiring TX completions and consumed RX buffers in bursts and re-arming
//! tails (`TDT`/`RDT`) as it goes. Termination is detected entirely from the
//! device's statistics registers: the offered stream is done when every frame
//! has either been written back (`GPRC`) or dropped (`MPC`), and the app has
//! consumed everything written back.
//!
//! The RX side is fed by the NIC's open-loop traffic source
//! ([`NicConfig::rx_source`](pcisim_devices::nic::NicConfig)) — the
//! million-flow generator or a recorded binary trace.

use std::cell::RefCell;
use std::rc::Rc;

use pcisim_devices::nic::regs;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::queue::TimedQueue;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot;
use pcisim_kernel::stats::StatsBuilder;
use pcisim_kernel::tick::{gbps, ns, to_seconds, us, Tick};
use pcisim_kernel::{state_enum, state_fields};

use crate::topology::{EndpointHandle, EndpointKind};
use crate::workload::{mmio_read, mmio_write, Attached, Workload};

/// Port wired to the memory bus (MMIO master). A poll-mode driver has no
/// interrupt port at all.
pub const PMD_MEM_PORT: PortId = PortId(0);

/// Parameters of one poll-mode run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmdConfig {
    /// TX/RX queue pairs to drive (must match the NIC's `queues`).
    pub queues: u32,
    /// Total frames to transmit across all queues (0 = RX-only run).
    pub tx_frames: u32,
    /// TX frame payload size in bytes.
    pub tx_frame_bytes: u32,
    /// Max descriptors posted/retired per queue per poll iteration.
    pub burst: u32,
    /// Busy-poll interval between ring-head reads. Must be nonzero — a
    /// zero interval would spin simulated time in place.
    pub poll_interval: Tick,
    /// Descriptor ring size for every TX and RX ring.
    pub ring_entries: u32,
    /// Frames the NIC's traffic source will offer (0 = TX-only run; must
    /// match the `rx_source` frame count so termination is detectable).
    pub rx_expect: u32,
    /// OS driver bring-up delay before the first ring write.
    pub setup_delay: Tick,
}

impl Default for PmdConfig {
    fn default() -> Self {
        Self {
            queues: 1,
            tx_frames: 64,
            tx_frame_bytes: 1514,
            burst: 8,
            poll_interval: ns(500),
            ring_entries: 256,
            rx_expect: 0,
            setup_delay: us(400),
        }
    }
}

impl Workload for PmdConfig {
    type Report = PmdReportHandle;

    fn accepts(&self) -> &'static [EndpointKind] {
        &[EndpointKind::Nic]
    }

    /// Only the memory port is wired — the poll-mode datapath never takes
    /// an interrupt.
    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<PmdReportHandle> {
        Attached::new(
            PmdApp::new(format!("pmd{index}"), self, ep.bar0),
            vec![(PMD_MEM_PORT, ep.cpu_mem_port)],
        )
    }
}

/// Result of a poll-mode run.
#[derive(Debug, Clone, Default)]
pub struct PmdReport {
    /// Whether both directions drained completely.
    pub done: bool,
    /// Frames transmitted (TX descriptors retired).
    pub tx_frames: u64,
    /// TX payload bytes.
    pub tx_bytes: u64,
    /// Frames the NIC wrote back to RX rings (GPRC).
    pub rx_frames: u64,
    /// RX payload bytes delivered (GORC).
    pub rx_bytes: u64,
    /// Frames the NIC dropped on FIFO overrun (MPC).
    pub rx_dropped: u64,
    /// Poll iterations executed.
    pub polls: u64,
    /// First-activity tick (setup complete).
    pub start: Tick,
    /// Last tick at which frames moved.
    pub end: Tick,
}

impl PmdReport {
    /// Active ticks between setup completion and the last frame.
    pub fn elapsed(&self) -> Tick {
        self.end.saturating_sub(self.start)
    }

    /// Delivered RX payload throughput in Gb/s (0.0 for empty runs).
    pub fn rx_throughput_gbps(&self) -> f64 {
        gbps(self.rx_bytes, self.elapsed())
    }

    /// TX payload throughput in Gb/s (0.0 for empty runs).
    pub fn tx_throughput_gbps(&self) -> f64 {
        gbps(self.tx_bytes, self.elapsed())
    }

    /// Total frames moved per simulated second (0.0 for empty runs, never
    /// NaN — regression guard for the zero-duration division bug).
    pub fn frames_per_sec(&self) -> f64 {
        let secs = to_seconds(self.elapsed());
        if secs == 0.0 {
            return 0.0;
        }
        (self.tx_frames + self.rx_frames) as f64 / secs
    }
}

/// Shared handle to a [`PmdReport`].
pub type PmdReportHandle = Rc<RefCell<PmdReport>>;

impl snapshot::State for PmdReport {
    state_fields!(state self;
        done, tx_frames, tx_bytes, rx_frames, rx_bytes, rx_dropped, polls, start, end,
    );
}

const K_STEP: u32 = 0;
const K_POLL: u32 = 1;
/// Zero-delay deferral: ring-head responses arrive nested inside the NIC's
/// dispatch, so the follow-up doorbell writes must run from our own event.
const K_PROCESS: u32 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Programming rings, one MMIO write per completion.
    Setup(usize),
    /// Poll timer armed, waiting for it to fire.
    Sleeping,
    /// Read burst issued, counting responses.
    Awaiting,
    /// Both directions drained; no further polls.
    Done,
}

state_enum!(State { Setup(step) = 0, Sleeping = 1, Awaiting = 2, Done = 3 });

/// The poll-mode driver + application component.
pub struct PmdApp {
    name: String,
    config: PmdConfig,
    /// BAR0 of the NIC.
    nic_bar: u64,
    state: State,
    /// Last TDH seen per queue.
    tx_head: Vec<u32>,
    /// TDT we last posted per queue.
    tx_tail: Vec<u32>,
    /// Descriptors in flight per TX queue.
    tx_inflight: Vec<u32>,
    /// Frames not yet handed to any TX queue.
    tx_remaining: u32,
    /// Last RDH seen per queue.
    rx_head: Vec<u32>,
    /// RDT we last posted per queue.
    rx_tail: Vec<u32>,
    /// RX frames this app has consumed (descriptors retired).
    rx_consumed: u64,
    /// Latest GPRC / MPC / GORC readings.
    gprc: u32,
    mpc: u32,
    gorc_lo: u32,
    gorc_hi: u32,
    /// Ring heads read this round, staged until every response is back.
    tdh_stage: Vec<u32>,
    rdh_stage: Vec<u32>,
    /// Whether this round polled the TX heads.
    tx_polled: bool,
    /// Read responses still expected for the current poll round.
    outstanding: u32,
    /// Whether any frame moved during the current poll round.
    progressed: bool,
    report: PmdReportHandle,
    /// Register accesses on their way to the memory port, in issue order.
    cpu: TimedQueue,
}

impl PmdApp {
    /// Creates the workload driving the NIC at `nic_bar`; returns the
    /// component and its report handle.
    pub fn new(
        name: impl Into<String>,
        config: PmdConfig,
        nic_bar: u64,
    ) -> (Self, PmdReportHandle) {
        assert!(config.queues >= 1, "pmd: at least one queue pair");
        assert!(config.ring_entries > 1, "pmd: ring must hold two descriptors");
        assert!(config.burst >= 1, "pmd: burst must be at least one frame");
        assert!(config.poll_interval > 0, "pmd: poll interval must be nonzero");
        assert!(
            config.tx_frames > 0 || config.rx_expect > 0,
            "pmd: at least one direction must carry traffic"
        );
        let q = config.queues as usize;
        let report: PmdReportHandle = Rc::new(RefCell::new(PmdReport::default()));
        (
            Self {
                name: name.into(),
                tx_head: vec![0; q],
                tx_tail: vec![0; q],
                tx_inflight: vec![0; q],
                tx_remaining: config.tx_frames,
                rx_head: vec![0; q],
                rx_tail: vec![0; q],
                rx_consumed: 0,
                gprc: 0,
                mpc: 0,
                gorc_lo: 0,
                gorc_hi: 0,
                tdh_stage: vec![0; q],
                rdh_stage: vec![0; q],
                tx_polled: false,
                outstanding: 0,
                progressed: false,
                config,
                nic_bar,
                state: State::Setup(0),
                report: report.clone(),
                cpu: TimedQueue::unbounded(),
            },
            report,
        )
    }

    fn write_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64, value: u32) {
        self.cpu.push(mmio_write(ctx, self.nic_bar + offset, value));
        self.cpu.flush(ctx, PMD_MEM_PORT);
    }

    fn read_reg(&mut self, ctx: &mut Ctx<'_>, offset: u64) {
        self.outstanding += 1;
        self.cpu.push(mmio_read(ctx, self.nic_bar + offset));
        self.cpu.flush(ctx, PMD_MEM_PORT);
    }

    /// The n-th ring-programming write, or None once setup is complete.
    /// Six writes per queue pair; IMS is deliberately never touched.
    fn setup_write(&self, n: usize) -> Option<(u64, u32)> {
        let per_queue = 6usize;
        let q = (n / per_queue) as u32;
        if q >= self.config.queues {
            return None;
        }
        let ring = self.config.ring_entries;
        Some(match n % per_queue {
            0 => (regs::per_queue(regs::TDBAL, q), 0x8800_0000 + q * 0x10_0000),
            1 => (regs::per_queue(regs::TDLEN, q), ring),
            2 => (regs::per_queue(regs::TX_BUFLEN, q), self.config.tx_frame_bytes),
            3 => (regs::per_queue(regs::RDBAL, q), 0x8900_0000 + q * 0x10_0000),
            4 => (regs::per_queue(regs::RDLEN, q), ring),
            _ => (regs::per_queue(regs::RDT, q), ring - 1),
        })
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let State::Setup(n) = self.state else { return };
        match self.setup_write(n) {
            Some((off, val)) => {
                self.state = State::Setup(n + 1);
                self.write_reg(ctx, off, val);
            }
            None => {
                for q in 0..self.config.queues as usize {
                    self.rx_tail[q] = self.config.ring_entries - 1;
                }
                self.report.borrow_mut().start = ctx.now();
                self.state = State::Sleeping;
                ctx.schedule(self.config.poll_interval, Event::Timer { kind: K_POLL, data: 0 });
            }
        }
    }

    /// Issues the poll-round read burst: ring heads for every active
    /// direction plus the RX statistics registers.
    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(self.outstanding, 0);
        self.progressed = false;
        self.report.borrow_mut().polls += 1;
        self.tx_polled = self.tx_remaining > 0 || self.tx_inflight.iter().any(|&f| f > 0);
        self.tdh_stage.copy_from_slice(&self.tx_head);
        self.rdh_stage.copy_from_slice(&self.rx_head);
        for q in 0..self.config.queues {
            if self.tx_polled {
                self.read_reg(ctx, regs::per_queue(regs::TDH, q));
            }
            if self.config.rx_expect > 0 {
                self.read_reg(ctx, regs::per_queue(regs::RDH, q));
            }
        }
        if self.config.rx_expect > 0 {
            self.read_reg(ctx, regs::GPRC);
            self.read_reg(ctx, regs::MPC);
            self.read_reg(ctx, regs::GORCL);
            self.read_reg(ctx, regs::GORCH);
        }
        self.state = State::Awaiting;
    }

    /// Retires TX completions on queue `q` and posts the next burst.
    fn tx_advance(&mut self, ctx: &mut Ctx<'_>, q: usize, tdh: u32) {
        let ring = self.config.ring_entries;
        let completed = (tdh + ring - self.tx_head[q]) % ring;
        let completed = completed.min(self.tx_inflight[q]);
        self.tx_head[q] = tdh;
        self.tx_inflight[q] -= completed;
        if completed > 0 {
            self.progressed = true;
            let mut r = self.report.borrow_mut();
            r.tx_frames += u64::from(completed);
            r.tx_bytes += u64::from(completed) * u64::from(self.config.tx_frame_bytes);
        }
        // Keep the ring stocked: tail may not catch head, so at most
        // ring-1 descriptors can ever be in flight.
        let room = (ring - 1).saturating_sub(self.tx_inflight[q]);
        let post = self.config.burst.min(room).min(self.tx_remaining);
        if post > 0 {
            self.tx_remaining -= post;
            self.tx_inflight[q] += post;
            self.tx_tail[q] = (self.tx_tail[q] + post) % ring;
            let tail = self.tx_tail[q];
            self.write_reg(ctx, regs::per_queue(regs::TDT, q as u32), tail);
        }
    }

    /// Consumes RX writebacks on queue `q` and hands buffers back.
    fn rx_advance(&mut self, ctx: &mut Ctx<'_>, q: usize, rdh: u32) {
        let ring = self.config.ring_entries;
        let consumed = (rdh + ring - self.rx_head[q]) % ring;
        self.rx_head[q] = rdh;
        if consumed > 0 {
            self.progressed = true;
            self.rx_consumed += u64::from(consumed);
            self.rx_tail[q] = (self.rx_tail[q] + consumed) % ring;
            let tail = self.rx_tail[q];
            self.write_reg(ctx, regs::per_queue(regs::RDT, q as u32), tail);
        }
    }

    /// All reads for this round are back: fold in statistics, decide
    /// whether both directions have drained, re-arm the poll timer if not.
    fn round_complete(&mut self, ctx: &mut Ctx<'_>) {
        let rx_offered_settled = u64::from(self.gprc) + u64::from(self.mpc)
            >= u64::from(self.config.rx_expect)
            && self.rx_consumed >= u64::from(self.gprc);
        let rx_done = self.config.rx_expect == 0 || rx_offered_settled;
        let tx_done = self.tx_remaining == 0 && self.tx_inflight.iter().all(|&f| f == 0);
        {
            let mut r = self.report.borrow_mut();
            r.rx_frames = u64::from(self.gprc);
            r.rx_dropped = u64::from(self.mpc);
            r.rx_bytes = (u64::from(self.gorc_hi) << 32) | u64::from(self.gorc_lo);
            if self.progressed {
                r.end = ctx.now();
            }
        }
        if tx_done && rx_done {
            self.report.borrow_mut().done = true;
            self.state = State::Done;
        } else {
            self.state = State::Sleeping;
            ctx.schedule(self.config.poll_interval, Event::Timer { kind: K_POLL, data: 0 });
        }
    }

    /// Stages one read response. Runs nested inside the NIC's dispatch, so
    /// it must not send MMIO back; the doorbell writes happen in
    /// [`PmdApp::process_round`], deferred behind a zero-delay event.
    fn read_returned(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let offset = pkt.addr().wrapping_sub(self.nic_bar);
        let value = pkt.dword();
        match offset {
            regs::GPRC => self.gprc = value,
            regs::MPC => self.mpc = value,
            regs::GORCL => self.gorc_lo = value,
            regs::GORCH => self.gorc_hi = value,
            o if (regs::TDBAL
                ..regs::TDBAL + u64::from(self.config.queues) * regs::QUEUE_STRIDE)
                .contains(&o) =>
            {
                let q = ((o - regs::TDBAL) / regs::QUEUE_STRIDE) as usize;
                self.tdh_stage[q] = value;
            }
            o if (regs::RDBAL
                ..regs::RDBAL + u64::from(self.config.queues) * regs::QUEUE_STRIDE)
                .contains(&o) =>
            {
                let q = ((o - regs::RDBAL) / regs::QUEUE_STRIDE) as usize;
                self.rdh_stage[q] = value;
            }
            other => panic!("{}: read response for unexpected offset {other:#x}", self.name),
        }
        self.outstanding -= 1;
        if self.outstanding == 0 {
            ctx.schedule(0, Event::Timer { kind: K_PROCESS, data: 0 });
        }
    }

    /// All reads for the round are staged: retire completions, post new
    /// bursts, fold statistics, and decide whether to keep polling.
    fn process_round(&mut self, ctx: &mut Ctx<'_>) {
        if self.state != State::Awaiting {
            return;
        }
        for q in 0..self.config.queues as usize {
            if self.tx_polled {
                let tdh = self.tdh_stage[q];
                self.tx_advance(ctx, q, tdh);
            }
            if self.config.rx_expect > 0 {
                let rdh = self.rdh_stage[q];
                self.rx_advance(ctx, q, rdh);
            }
        }
        self.round_complete(ctx);
    }
}

impl Component for PmdApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(self.config.setup_delay, Event::Timer { kind: K_STEP, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: K_STEP, .. } => self.step(ctx),
            Event::Timer { kind: K_POLL, .. } => {
                if self.state == State::Sleeping {
                    self.poll(ctx);
                }
            }
            Event::Timer { kind: K_PROCESS, .. } => self.process_round(ctx),
            other => panic!("{}: unexpected event {other:?}", self.name),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, PMD_MEM_PORT);
        match pkt.cmd() {
            Command::WriteResp => {
                if matches!(self.state, State::Setup(_)) {
                    ctx.schedule(0, Event::Timer { kind: K_STEP, data: 0 });
                }
            }
            Command::ReadResp => self.read_returned(ctx, &pkt),
            other => panic!("{}: unexpected response {other:?}", self.name),
        }
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.cpu.unblock();
        self.cpu.flush(ctx, PMD_MEM_PORT);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        let r = self.report.borrow();
        out.scalar("tx_frames", r.tx_frames as f64);
        out.scalar("rx_frames", r.rx_frames as f64);
        out.scalar("rx_dropped", r.rx_dropped as f64);
        out.scalar("polls", r.polls as f64);
        out.scalar("done", f64::from(u8::from(r.done)));
    }

    state_fields!(component self;
        state,
        [tx_head, tx_tail, tx_inflight, rx_head, rx_tail, tdh_stage, rdh_stage],
        tx_polled, tx_remaining, rx_consumed, gprc, mpc, gorc_lo, gorc_hi, outstanding,
        progressed, report, cpu,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_devices::nic::{Nic, NicConfig, NIC_DMA_PORT, NIC_PIO_PORT};
    use pcisim_devices::traffic::{ArrivalProcess, SizeDist, TrafficConfig, TrafficSpec};
    use pcisim_kernel::prelude::*;
    use pcisim_kernel::testutil::Responder;

    const BAR: u64 = 0x4000_0000;

    fn run(nic_config: NicConfig, pmd: PmdConfig) -> (PmdReport, StatsSnapshot) {
        let mut sim = Simulation::new();
        let (app, report) = PmdApp::new("pmd", pmd, BAR);
        let (nic, cs) = Nic::new("nic", nic_config);
        cs.borrow_mut().write(0x10, 4, BAR as u32);
        let app_id = sim.add(Box::new(app));
        let nic_id = sim.add(Box::new(nic));
        let (mem, _) = Responder::new("mem", ns(30));
        let mem_id = sim.add(Box::new(mem));
        sim.connect((app_id, PMD_MEM_PORT), (nic_id, NIC_PIO_PORT));
        sim.connect((nic_id, NIC_DMA_PORT), (mem_id, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let r = report.borrow().clone();
        (r, sim.stats())
    }

    fn rx_traffic(frames: u32) -> TrafficSpec {
        TrafficSpec::Generate(TrafficConfig {
            seed: 7,
            flows: 1 << 20,
            frames,
            size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
            arrival: ArrivalProcess::Poisson(ns(1200)),
        })
    }

    #[test]
    fn tx_blast_drains_without_a_single_interrupt() {
        let (r, stats) = run(
            NicConfig::default(),
            PmdConfig { tx_frames: 100, burst: 4, ..PmdConfig::default() },
        );
        assert!(r.done);
        assert_eq!(r.tx_frames, 100);
        assert_eq!(r.tx_bytes, 100 * 1514);
        assert_eq!(stats.get("nic.frames_tx"), Some(100.0));
        assert_eq!(stats.get("nic.irqs"), Some(0.0), "poll mode must not interrupt");
        assert_eq!(stats.get("nic.msix_irqs"), Some(0.0));
        assert!(r.polls > 0);
        assert!(r.tx_throughput_gbps() > 0.0);
    }

    #[test]
    fn rx_traffic_is_fully_consumed_by_polling() {
        let frames = 64;
        let (r, stats) = run(
            NicConfig { rx_source: Some(rx_traffic(frames)), ..NicConfig::default() },
            PmdConfig { tx_frames: 0, rx_expect: frames, ..PmdConfig::default() },
        );
        assert!(r.done);
        assert_eq!(r.rx_frames + r.rx_dropped, u64::from(frames));
        assert_eq!(stats.get("nic.irqs"), Some(0.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(0.0));
        assert_eq!(stats.get("nic.frames_rx"), Some(r.rx_frames as f64));
        assert_eq!(r.rx_bytes as f64, stats.get("nic.rx_octets").unwrap());
        assert!(r.rx_throughput_gbps() > 0.0);
    }

    #[test]
    fn bidirectional_bursts_share_the_rings() {
        let (r, stats) = run(
            NicConfig { rx_source: Some(rx_traffic(32)), ..NicConfig::default() },
            PmdConfig { tx_frames: 32, rx_expect: 32, burst: 4, ..PmdConfig::default() },
        );
        assert!(r.done);
        assert_eq!(r.tx_frames, 32);
        assert_eq!(r.rx_frames + r.rx_dropped, 32);
        assert_eq!(stats.get("nic.irqs"), Some(0.0));
    }

    #[test]
    fn multi_queue_polling_drives_every_ring() {
        let (r, stats) = run(
            NicConfig { queues: 4, rx_source: Some(rx_traffic(64)), ..NicConfig::default() },
            PmdConfig { queues: 4, tx_frames: 40, rx_expect: 64, ..PmdConfig::default() },
        );
        assert!(r.done);
        assert_eq!(r.tx_frames, 40);
        assert_eq!(r.rx_frames + r.rx_dropped, 64);
        assert_eq!(stats.get("nic.irqs"), Some(0.0));
        assert_eq!(stats.get("nic.msix_irqs"), Some(0.0));
    }

    #[test]
    fn report_rates_are_zero_not_nan_on_empty_runs() {
        // Regression: zero-duration / zero-frame reports used to divide by
        // zero and leak NaN/Inf into the bench JSON.
        let r = PmdReport::default();
        assert_eq!(r.rx_throughput_gbps(), 0.0);
        assert_eq!(r.tx_throughput_gbps(), 0.0);
        assert_eq!(r.frames_per_sec(), 0.0);
        let r = PmdReport { start: 500, end: 500, tx_frames: 3, ..PmdReport::default() };
        assert!(r.frames_per_sec() == 0.0 && !r.frames_per_sec().is_nan());
    }
}
