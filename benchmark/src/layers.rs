//! Layer micro-scenarios: each drives one layer's public API alone and
//! reports host nanoseconds per operation, so a layer has a number of its
//! own beside the end-to-end workloads it moves.
//!
//! Every scenario repeats its batch until at least [`MIN_SECS`] of timed
//! work has accumulated; build time is outside the timed region.

use std::hint::black_box;
use std::time::Instant;

use pcisim_devices::cxl::CxlExpanderConfig;
use pcisim_devices::traffic::{ArrivalProcess, SizeDist, Splitmix64, TrafficConfig, TrafficGen};
use pcisim_kernel::calendar::CalendarQueue;
use pcisim_kernel::packet::Command;
use pcisim_kernel::prelude::*;
use pcisim_kernel::testutil::{
    CompletionLog, Requester, Responder, REQUESTER_PORT, RESPONDER_PORT,
};
use pcisim_pci::caps::PortType;
use pcisim_pci::header::program_memory_window;
use pcisim_pci::regs::type1;
use pcisim_pcie::link::{PcieLink, PORT_DOWN_MASTER, PORT_UP_SLAVE};
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_pcie::router::{
    make_vp2p, port_downstream_master, PcieRouter, RouterConfig, PORT_UPSTREAM_SLAVE,
};
use pcisim_system::sweep::run_sweep;
use pcisim_system::topology::{build_topology, Topology};
use pcisim_system::workload::cxl::{CxlHostConfig, CxlHostMode};
use pcisim_system::workload::dd::DdConfig;

/// Timed work each scenario accumulates before it reports.
const MIN_SECS: f64 = 0.3;

/// Requests per batch of the request/response scenarios.
const BATCH: u64 = 10_000;

/// Repeats `batch` until [`MIN_SECS`] of its own timed work has run;
/// returns `(total ops, total events, total seconds)`.
fn accumulate(mut batch: impl FnMut() -> (u64, u64, f64)) -> (u64, u64, f64) {
    let (mut ops, mut events, mut secs) = (0, 0, 0.0);
    while secs < MIN_SECS {
        let (o, e, s) = batch();
        ops += o;
        events += e;
        secs += s;
    }
    (ops, events, secs)
}

fn ns_per(count: u64, secs: f64) -> f64 {
    secs * 1e9 / count as f64
}

/// Times `run_to_quiesce` on a simulation whose requester issues `ops`
/// requests and checks that every one completed.
fn timed_storm(mut sim: Simulation, done: &CompletionLog, ops: u64) -> (u64, u64, f64) {
    let start = Instant::now();
    let outcome = sim.run_to_quiesce();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(outcome, RunOutcome::QueueEmpty);
    assert_eq!(done.borrow().len() as u64, ops, "every request must complete");
    (ops, sim.events_processed(), secs)
}

fn script(cmd: Command, base: u64, size: u32) -> Vec<(Command, u64, u32)> {
    (0..BATCH).map(|i| (cmd, base + (i % 64) * 64, size)).collect()
}

/// `kernel.sim.dispatch_ns`: a requester wired straight to a responder, so
/// each event is the kernel's dispatch plus two trivial handlers.
fn dispatch() -> f64 {
    let (_, events, secs) = accumulate(|| {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", script(Command::ReadReq, 0x1000, 64));
        let r = sim.add(Box::new(req));
        let (resp, _) = Responder::new("dev", ns(10));
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (d, RESPONDER_PORT));
        timed_storm(sim, &done, BATCH)
    });
    ns_per(events, secs)
}

/// `kernel.calendar.hold_ns_*` / `far_ns`: the classic hold model — pop the
/// earliest entry, push one `spread` ticks later at most — at a steady
/// depth. `far` pushes land beyond the ring horizon, in the overflow heap.
fn calendar_hold(depth: usize, min_delta: Tick, spread: Tick) -> f64 {
    const HOLDS: u64 = 1_000_000;
    let (ops, _, secs) = accumulate(|| {
        let mut rng = Splitmix64::new(depth as u64 ^ spread);
        let mut queue: CalendarQueue<u64> = CalendarQueue::new();
        let mut order = 0;
        for _ in 0..depth {
            queue.push(min_delta + rng.next_u64() % spread, order, order);
            order += 1;
        }
        let start = Instant::now();
        for _ in 0..HOLDS {
            let (tick, item) = queue.pop().expect("steady depth");
            black_box(item);
            queue.push(tick + min_delta + rng.next_u64() % spread, order, order);
            order += 1;
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(queue.len(), depth);
        (HOLDS, 0, secs)
    });
    ns_per(ops, secs)
}

/// `kernel.calendar.cancel_ns`: push a timer then cancel it, the replay
/// and completion-timeout timers' common fate.
fn calendar_cancel() -> f64 {
    const TIMERS: u64 = 1_000_000;
    let (ops, _, secs) = accumulate(|| {
        let mut rng = Splitmix64::new(0xca1);
        let mut queue: CalendarQueue<u64> = CalendarQueue::new();
        // A standing population, so cancels land in occupied buckets.
        for order in 0..64 {
            queue.push(rng.next_u64() % us(50), order, order);
        }
        let start = Instant::now();
        for order in 64..64 + TIMERS {
            let handle = queue.push(rng.next_u64() % us(50), order, order);
            black_box(queue.cancel(handle).expect("live entry cancels"));
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(queue.len(), 64);
        (TIMERS, 0, secs)
    });
    ns_per(ops, secs)
}

/// `kernel.xbar.*`: the `xbar_10k_reads` shape of `BENCH_simulator_speed`
/// (requester → crossbar → responder), at a size that can be timed.
fn xbar() -> (f64, f64) {
    let (ops, events, secs) = accumulate(|| {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", script(Command::ReadReq, 0x1000, 64));
        let r = sim.add(Box::new(req));
        let x = sim.add(Box::new(
            Crossbar::builder("xbar")
                .num_ports(2)
                .queue_capacity(32)
                .route(AddrRange::new(0x1000, 0x10000), PortId(1))
                .build(),
        ));
        let (resp, _) = Responder::new("dev", ns(10));
        let d = sim.add(Box::new(resp));
        sim.connect((r, PortId(0)), (x, PortId(0)));
        sim.connect((x, PortId(1)), (d, PortId(0)));
        timed_storm(sim, &done, BATCH)
    });
    (ns_per(ops, secs), events as f64 / ops as f64)
}

/// `kernel.dram.ns_per_op`: alternating loads and stores straight into the
/// DRAM model.
fn dram() -> f64 {
    let (ops, _, secs) = accumulate(|| {
        let mut sim = Simulation::new();
        let base = 0x8000_0000;
        let mix = (0..BATCH)
            .map(|i| {
                let cmd = if i % 4 == 3 { Command::WriteReq } else { Command::ReadReq };
                (cmd, base + (i % 4096) * 64, 64)
            })
            .collect();
        let (req, done) = Requester::new("gen", mix);
        let r = sim.add(Box::new(req));
        let d = sim
            .add(Box::new(Dram::builder("dram", AddrRange::with_size(base, 0x1000_0000)).build()));
        sim.connect((r, REQUESTER_PORT), (d, pcisim_kernel::dram::DRAM_PORT));
        timed_storm(sim, &done, BATCH)
    });
    ns_per(ops, secs)
}

/// `pcie.link.*`: the Gen 2 x8 posted-write storm of `link_10k_writes`;
/// `error_interval` above 0 injects a corrupt TLP every N, exercising the
/// NAK/replay path.
fn link(error_interval: u64) -> (f64, f64) {
    let (ops, events, secs) = accumulate(|| {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", script(Command::WriteReq, 0x4000_0000, 64));
        let r = sim.add(Box::new(req));
        let config =
            LinkConfig { error_interval, ..LinkConfig::new(Generation::Gen2, LinkWidth::X8) };
        let l = sim.add(Box::new(PcieLink::new("link", config)));
        let (resp, _) = Responder::new("dev", 0);
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (d, RESPONDER_PORT));
        timed_storm(sim, &done, BATCH)
    });
    (ns_per(ops, secs), events as f64 / ops as f64)
}

/// `pcie.router.*`: reads through one switch (requester → upstream port →
/// downstream port → responder) with no links, so the cost is routing,
/// port buffers and the service engine.
fn router() -> (f64, f64) {
    let window = AddrRange::new(0x4000_0000, 0x4010_0000);
    let vp2p = |port_type, sec: u8| {
        let cs = make_vp2p(0x8086, 0x9c90, port_type, Generation::Gen2, LinkWidth::X4);
        {
            let mut regs = cs.borrow_mut();
            regs.write(type1::SECONDARY_BUS, 1, u32::from(sec));
            regs.write(type1::SUBORDINATE_BUS, 1, u32::from(sec.max(2)));
            program_memory_window(&mut regs, window);
        }
        cs
    };
    let (ops, events, secs) = accumulate(|| {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", script(Command::ReadReq, window.start(), 4));
        let r = sim.add(Box::new(req));
        let sw = sim.add(Box::new(PcieRouter::switch(
            "switch",
            RouterConfig::default(),
            vp2p(PortType::SwitchUpstream, 1),
            vec![vp2p(PortType::SwitchDownstream, 2)],
        )));
        let (resp, _) = Responder::new("dev", 0);
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (sw, PORT_UPSTREAM_SLAVE));
        sim.connect((sw, port_downstream_master(0)), (d, RESPONDER_PORT));
        timed_storm(sim, &done, BATCH)
    });
    (ns_per(ops, secs), events as f64 / ops as f64)
}

/// `kernel.snapshot.*`: checkpoint a `dd` run over the validation tree in
/// mid-transfer, then restore it into a freshly built twin.
fn snapshot() -> (f64, f64, f64) {
    let build = || {
        let mut sys = build_topology(Topology::validation());
        let report = sys.attach_dd(0, DdConfig { block_bytes: 1 << 20, ..DdConfig::default() });
        (sys.sim, report)
    };
    let (mut sim, _report) = build();
    assert_eq!(
        sim.run(us(2000), u64::MAX),
        RunOutcome::TimeLimit,
        "the checkpoint is taken mid-run"
    );
    let (mut twin, report) = build();
    let (mut checkpoint_secs, mut restore_secs, mut rounds, mut bytes) = (0.0f64, 0.0f64, 0u64, 0);
    while checkpoint_secs.min(restore_secs) < MIN_SECS / 2.0 {
        let start = Instant::now();
        let image = sim.checkpoint();
        checkpoint_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        twin.restore(&image).expect("a twin restores its sibling's checkpoint");
        restore_secs += start.elapsed().as_secs_f64();
        bytes = image.len();
        rounds += 1;
    }
    // The restored twin must finish the transfer the original began.
    assert_eq!(twin.run_to_quiesce(), RunOutcome::QueueEmpty);
    assert!(report.borrow().done);
    (checkpoint_secs * 1e3 / rounds as f64, restore_secs * 1e3 / rounds as f64, bytes as f64)
}

struct TopologyCosts {
    plan_us: f64,
    walk_us: f64,
    build_us: f64,
    functions: f64,
    endpoints: f64,
}

/// `pci.enumeration.*` and `system.topology.*` on `fanout(3, 8, 8)`, the
/// widest tree a PCI segment admits (192 endpoints on 247 buses).
fn topology() -> TopologyCosts {
    let topo = Topology::fanout(3, 8, 8);
    let (mut plan_secs, mut walk_secs, mut build_secs, mut rounds) = (0.0, 0.0, 0.0, 0u64);
    let (mut functions, mut endpoints) = (0, 0);
    while build_secs < MIN_SECS {
        let start = Instant::now();
        let plan = topo.plan();
        plan_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = plan.enumerate().expect("fanout(3,8,8) enumerates");
        walk_secs += start.elapsed().as_secs_f64();
        functions = report.devices.len();
        let start = Instant::now();
        let sys = build_topology(topo.clone());
        build_secs += start.elapsed().as_secs_f64();
        endpoints = sys.endpoints.len();
        rounds += 1;
    }
    let us_each = |secs: f64| secs * 1e6 / rounds as f64;
    TopologyCosts {
        plan_us: us_each(plan_secs),
        walk_us: us_each(walk_secs),
        build_us: us_each(build_secs),
        functions: functions as f64,
        endpoints: endpoints as f64,
    }
}

/// `devices.traffic.gen_ns_per_frame`: the seeded Pareto/Poisson stream of
/// `nic_pmd_rx`, pulled without a NIC behind it.
fn traffic_gen() -> f64 {
    const FRAMES: u32 = 2_000_000;
    let (ops, _, secs) = accumulate(|| {
        let mut gen = TrafficGen::new(TrafficConfig {
            seed: 0x5eed,
            flows: 1 << 20,
            frames: FRAMES,
            size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
            arrival: ArrivalProcess::Poisson(ns(2500)),
        });
        let start = Instant::now();
        let mut bytes = 0u64;
        while let Some(frame) = gen.next_frame() {
            bytes += u64::from(frame.bytes);
        }
        black_box(bytes);
        (u64::from(FRAMES), 0, start.elapsed().as_secs_f64())
    });
    ns_per(ops, secs)
}

/// `devices.cxl.access_ns`: host time per CXL.mem access of an open-loop
/// load/store stream to an expander on a root port. CXL has no end-to-end
/// workload; this is its only number.
fn cxl() -> f64 {
    const ACCESSES: u32 = 20_000;
    let (ops, _, secs) = accumulate(|| {
        let mut sys = build_topology(Topology::cxl_direct(CxlExpanderConfig::default()));
        let report = sys.attach_cxl_host(
            0,
            CxlHostConfig {
                mode: CxlHostMode::OpenLoop,
                requests: ACCESSES,
                write_every: 4,
                ..CxlHostConfig::default()
            },
        );
        let start = Instant::now();
        let outcome = sys.sim.run_to_quiesce();
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        assert_eq!(report.borrow().completed, u64::from(ACCESSES));
        (u64::from(ACCESSES), sys.sim.events_processed(), secs)
    });
    ns_per(ops, secs)
}

/// `system.sweep.speedup_j2`: eight short `dd` points through `run_sweep`
/// on one worker and on two; above 1 only when the host has a second core.
fn sweep() -> f64 {
    let points: Vec<Tick> = (0..8).map(|i| ns(50 + 15 * i)).collect();
    let run = |latency: &Tick| {
        let mut topo = Topology::validation();
        topo.rc.latency = *latency;
        let mut sys = build_topology(topo);
        let report = sys.attach_dd(0, DdConfig { block_bytes: 128 * 1024, ..DdConfig::default() });
        sys.sim.run_to_quiesce();
        let quiesced = sys.sim.now();
        assert!(report.borrow().done);
        quiesced
    };
    let (mut serial_secs, mut parallel_secs) = (0.0, 0.0);
    while serial_secs < MIN_SECS {
        let start = Instant::now();
        let serial = run_sweep(&points, 1, run);
        serial_secs += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let parallel = run_sweep(&points, 2, run);
        parallel_secs += start.elapsed().as_secs_f64();
        assert_eq!(serial, parallel, "a sweep's answers cannot depend on its worker count");
    }
    serial_secs / parallel_secs
}

/// Runs every micro-scenario; returns `(metric name, value)` pairs for
/// every [`Source::Micro`](crate::metrics::Source::Micro) metric.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let horizon = pcisim_kernel::calendar::NUM_BUCKETS << pcisim_kernel::calendar::BUCKET_BITS;
    let (xbar_ns, xbar_events) = xbar();
    let (link_ns, link_events) = link(0);
    let (lossy_ns, _) = link(97);
    let (router_ns, router_events) = router();
    let (checkpoint_ms, restore_ms, snapshot_bytes) = snapshot();
    let topo = topology();
    vec![
        ("kernel.sim.dispatch_ns", dispatch()),
        ("kernel.calendar.hold_ns_d64", calendar_hold(64, 0, horizon / 2)),
        ("kernel.calendar.hold_ns_d4096", calendar_hold(4096, 0, horizon / 2)),
        ("kernel.calendar.far_ns", calendar_hold(64, horizon, horizon)),
        ("kernel.calendar.cancel_ns", calendar_cancel()),
        ("kernel.xbar.ns_per_op", xbar_ns),
        ("kernel.xbar.events_per_op", xbar_events),
        ("kernel.dram.ns_per_op", dram()),
        ("kernel.snapshot.checkpoint_ms", checkpoint_ms),
        ("kernel.snapshot.restore_ms", restore_ms),
        ("kernel.snapshot.bytes", snapshot_bytes),
        ("pci.enumeration.walk_us", topo.walk_us),
        ("pci.enumeration.functions", topo.functions),
        ("pcie.link.ns_per_tlp", link_ns),
        ("pcie.link.events_per_tlp", link_events),
        ("pcie.link.lossy_ns_per_tlp", lossy_ns),
        ("pcie.router.ns_per_tlp", router_ns),
        ("pcie.router.events_per_tlp", router_events),
        ("devices.traffic.gen_ns_per_frame", traffic_gen()),
        ("devices.cxl.access_ns", cxl()),
        ("system.topology.plan_us", topo.plan_us),
        ("system.topology.build_us", topo.build_us),
        ("system.topology.endpoints", topo.endpoints),
        ("system.sweep.speedup_j2", sweep()),
    ]
}

#[cfg(test)]
mod tests {
    use crate::metrics::{Source, PER_LAYER};

    /// The names `run_all` reports are exactly the registry's micro
    /// metrics (checked on the table, without running the scenarios).
    #[test]
    fn micro_metric_names_match_the_registry() {
        let source = include_str!("layers.rs");
        for metric in PER_LAYER.iter().filter(|m| m.source == Source::Micro) {
            assert!(
                source.contains(&format!("(\"{}\",", metric.name)),
                "{} has no scenario",
                metric.name
            );
        }
    }
}
