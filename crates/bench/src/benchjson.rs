//! Machine-readable simulator-speed tracking (`BENCH_simulator_speed.json`).
//!
//! The `repro` binary measures the two microbenchmark scenarios of
//! `benches/simulator_speed.rs` (a crossbar read storm and a saturated
//! Gen 2 x8 link write storm), a full-system multi-queue MSI-X NIC
//! transmit run, two sharded-driver scenarios (a 2-shard cascade cut
//! and a 4-shard fanout tree, shard counts stamped in the JSON next to
//! the detected host core count), and two poll-mode NIC receive
//! scenarios (busy-poll driver against the million-flow traffic source,
//! serial and 2-shard), two CXL.mem scenarios (pointer chase, 2-way
//! interleave), and two virtio scenarios (a QD8 virtio-blk read stream
//! and a virtio-net MTU transmit), derives ops/sec and raw scheduler
//! events/sec,
//! and emits them together with per-sweep wall-clock times and host
//! metadata. CI replays the measurement with `--bench-check` and fails
//! on a >30% ops/sec regression against the checked-in file — or on any
//! scenario dipping under the absolute [`EVENTS_PER_SEC_FLOOR`] — so the
//! perf trajectory is tracked from the hot-path-overhaul PR onward.

use std::time::Instant;

use pcisim_kernel::packet::Command;
use pcisim_kernel::prelude::*;
use pcisim_kernel::testutil::{Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
use pcisim_pcie::link::{PcieLink, PORT_DOWN_MASTER, PORT_UP_SLAVE};
use pcisim_pcie::params::{Generation, LinkConfig, LinkWidth};
use pcisim_system::prelude::*;

/// Requests issued per microbenchmark scenario (matches
/// `benches/simulator_speed.rs`).
pub const MICRO_OPS: u64 = 10_000;

/// Ops/sec for each scenario measured immediately *before* the hot-path
/// overhaul (binary heap + HashMap routing + per-TLP allocation, default
/// release profile), kept as the historical record the overhaul's ≥2×
/// acceptance criterion is judged against.
///
/// Honesty note: the measurement host's sustained clock swings ~40%
/// between power states, and these numbers were captured in the slow
/// state, so naive ratios against them overstate the win. An interleaved
/// A/B of the seed build against the overhauled build (alternating
/// best-of-6 processes, both orders) put the *fast-state* seed at
/// ~2.53e6 xbar / ~1.31e6 link ops/s — i.e. like-for-like speedups of
/// ~1.2× (xbar) and ~1.6× (link), the rest being host state.
pub const PRE_CHANGE_OPS_PER_SEC: [(&str, f64); 2] =
    [("xbar_10k_reads", 1_708_987.0), ("link_10k_writes", 840_858.0)];

/// Quick-mode Fig. 9 sweep wall-clock times (ms) measured immediately
/// before the overhaul, on the same host as [`PRE_CHANGE_OPS_PER_SEC`].
pub const PRE_CHANGE_SWEEP_WALL_MS: [(&str, u64); 4] =
    [("fig9a", 13_207), ("fig9b", 18_704), ("fig9c", 4_867), ("fig9d", 4_970)];

/// Absolute scheduler events/sec floor every scenario must clear under
/// `--bench-check`, on top of the relative 30% ops/sec gate. Set an
/// order of magnitude below the slowest observed scenario so it trips
/// only on a broken build (or a zeroed rate from an unusable timer
/// reading), never on a noisy host.
pub const EVENTS_PER_SEC_FLOOR: f64 = 100_000.0;

/// One measured microbenchmark scenario.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Scenario name (stable key used in the JSON and by `--bench-check`).
    pub name: &'static str,
    /// Completed requests per second of host wall-clock.
    pub ops_per_sec: f64,
    /// Scheduler dispatches per second of host wall-clock.
    pub events_per_sec: f64,
    /// Wall-clock of the measured iteration, milliseconds.
    pub wall_ms: f64,
    /// Shard count for scenarios run under the sharded driver (`None`
    /// for serial scenarios). Recorded in the JSON: sharded rates are
    /// meaningless without it and the host core count next to them.
    pub shards: Option<u32>,
}

fn run_xbar_reads() -> (u64, u64, f64) {
    let mut sim = Simulation::new();
    let script = (0..MICRO_OPS).map(|i| (Command::ReadReq, 0x1000 + (i % 64) * 64, 64)).collect();
    let (req, done) = Requester::new("gen", script);
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
    let start = Instant::now();
    sim.run_to_quiesce();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(done.borrow().len(), MICRO_OPS as usize);
    (MICRO_OPS, sim.events_processed(), secs)
}

fn run_link_writes() -> (u64, u64, f64) {
    let mut sim = Simulation::new();
    let script =
        (0..MICRO_OPS).map(|i| (Command::WriteReq, 0x4000_0000 + (i % 64) * 64, 64)).collect();
    let (req, done) = Requester::new("gen", script);
    let r = sim.add(Box::new(req));
    let l =
        sim.add(Box::new(PcieLink::new("link", LinkConfig::new(Generation::Gen2, LinkWidth::X8))));
    let (resp, _) = Responder::new("dev", 0);
    let d = sim.add(Box::new(resp));
    sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
    sim.connect((l, PORT_DOWN_MASTER), (d, RESPONDER_PORT));
    let start = Instant::now();
    sim.run_to_quiesce();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(done.borrow().len(), MICRO_OPS as usize);
    (MICRO_OPS, sim.events_processed(), secs)
}

/// Runs `exp` cold on `shards` workers and returns `(ops, events, secs)`
/// for the run alone: build, enumeration, probe and attach are outside
/// the timed region. `ops` checks the outcome and says how many
/// operations it stands for.
fn measure<E: Experiment>(
    exp: &E,
    shards: usize,
    ops: impl FnOnce(E::Outcome) -> u64,
) -> (u64, u64, f64) {
    let (fin, reports) = execute(exp, Exec::Cold { shards });
    (ops(exp.collect(&fin, &reports)), fin.events, fin.wall_secs)
}

fn run_msix_tx() -> (u64, u64, f64) {
    let exp = MsixTxExperiment {
        queues: 4,
        frames: MICRO_OPS as u32,
        width: LinkWidth::X1,
        ..MsixTxExperiment::default()
    };
    measure(&exp, 1, |out| {
        assert!(out.completed, "msix bench transmit must complete");
        MICRO_OPS
    })
}

/// A multi-shard `dd` run over `topo` under the sharded driver; ops are
/// scheduler events (the sharded acceptance metric is aggregate
/// events/sec, so the ops gate and the event rate coincide here).
fn run_sharded_dd(topo: Topology, shards: usize, block: u64) -> (u64, u64, f64) {
    let out = run(&ShardScaling { topo, block_bytes: block }, Exec::Cold { shards });
    (out.events, out.events, out.wall_secs)
}

/// 2-shard cascade: `cascaded(3)`'s disk stream crossing one cut link.
fn run_sharded_cascaded3() -> (u64, u64, f64) {
    run_sharded_dd(Topology::cascaded(3), 2, 4 * 1024 * 1024)
}

/// 4-shard fanout: 32 disks over `fanout(2, 4, 4)`, three cut subtrees.
fn run_sharded_fanout() -> (u64, u64, f64) {
    run_sharded_dd(Topology::fanout(2, 4, 4), 4, 256 * 1024)
}

/// Frames settled per poll-mode benchmark scenario.
const PMD_FRAMES: u32 = 4096;

/// Poll-mode NIC receive: busy-poll driver settling `PMD_FRAMES` frames
/// from a million-flow heavy-tailed source beside a 64-frame transmit
/// burst, interrupts fully masked — on the serial kernel, or with the NIC
/// subtree on its own shard behind a conservative-window barrier.
fn run_pmd(shards: usize) -> (u64, u64, f64) {
    let exp = PmdExperiment {
        burst: 16,
        tx_frames: 64,
        traffic: Some(TrafficSpec::Generate(heavy_traffic(
            0xb43c_4a11,
            1 << 20,
            PMD_FRAMES,
            ns(1000),
        ))),
        ..PmdExperiment::default()
    };
    measure(&exp, shards, |out| {
        assert!(out.completed, "pmd bench poll loop must settle: {out:?}");
        assert_eq!(out.irqs, 0, "poll mode must take zero interrupts");
        u64::from(PMD_FRAMES)
    })
}

/// Accesses per CXL.mem benchmark scenario.
const CXL_ACCESSES: u32 = 2048;

fn run_cxl(exp: CxlExperiment) -> (u64, u64, f64) {
    measure(&exp, 1, |out| {
        assert!(out.completed, "cxl bench stream must complete: {out:?}");
        out.completed_accesses
    })
}

/// Serial pointer chase through a CXL.mem expander behind a switch: the
/// worst-case latency path, every hop a dependent CxlMemRd round trip.
fn run_cxl_chase() -> (u64, u64, f64) {
    run_cxl(CxlExperiment {
        placement: CxlPlacement::BehindSwitch,
        mode: CxlHostMode::PointerChase,
        requests: CXL_ACCESSES,
        chain_blocks: 256,
        ..CxlExperiment::default()
    })
}

/// Two open-loop load/store streams interleaved across two directly
/// attached expanders — the bandwidth-side CXL.mem scenario.
fn run_cxl_interleave2() -> (u64, u64, f64) {
    run_cxl(CxlExperiment {
        placement: CxlPlacement::Interleaved(2),
        requests: CXL_ACCESSES,
        write_every: 4,
        ..CxlExperiment::default()
    })
}

/// Requests per virtio benchmark scenario.
const VIRTIO_REQUESTS: u32 = 2048;

/// A queue-depth-8 virtio stream: descriptor chains, avail/used ring DMA,
/// payload bursts and completion interrupts all on the timed path.
fn run_virtio(arm: VirtioArm, request_bytes: u32) -> (u64, u64, f64) {
    let exp = VirtioExperiment {
        arm,
        requests: VIRTIO_REQUESTS,
        queue_depth: 8,
        request_bytes,
        ..VirtioExperiment::default()
    };
    measure(&exp, 1, |out| {
        assert!(out.completed, "virtio bench stream must complete: {out:?}");
        assert_eq!(out.requests, u64::from(VIRTIO_REQUESTS));
        out.requests
    })
}

/// Runs the microbenchmark scenarios, best-of-`samples`, and returns the
/// per-scenario rates. Build setup is excluded from the timed region.
pub fn run_micro_benchmarks(samples: u32) -> Vec<MicroResult> {
    type Scenario = (&'static str, Option<u32>, fn() -> (u64, u64, f64));
    let scenarios: [Scenario; 11] = [
        ("xbar_10k_reads", None, run_xbar_reads),
        ("link_10k_writes", None, run_link_writes),
        ("msix_4q_tx_10k_frames", None, run_msix_tx),
        ("sharded_cascaded3_tx", Some(2), run_sharded_cascaded3),
        ("sharded_fanout32_dd", Some(4), run_sharded_fanout),
        ("pmd_poll_rx_4k_frames", None, || run_pmd(1)),
        ("pmd_poll_sharded2_rx", Some(2), || run_pmd(2)),
        ("cxl_pointer_chase", None, run_cxl_chase),
        ("cxl_interleave2", None, run_cxl_interleave2),
        ("virtio_blk_qd8", None, || run_virtio(VirtioArm::Blk, 4096)),
        ("virtio_net_tx", None, || run_virtio(VirtioArm::NetTx, 1514)),
    ];
    scenarios
        .iter()
        .map(|&(name, shards, run)| {
            let mut best: Option<(u64, u64, f64)> = None;
            for _ in 0..samples.max(1) {
                let (ops, events, secs) = run();
                if best.is_none_or(|(_, _, b)| secs < b) {
                    best = Some((ops, events, secs));
                }
            }
            let (ops, events, secs) = best.expect("at least one sample");
            // A sub-resolution timer reading must not divide through to
            // infinity (and poison the JSON): report zero and let the
            // floor check flag it.
            let rate = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
            MicroResult {
                name,
                ops_per_sec: rate(ops),
                events_per_sec: rate(events),
                wall_ms: secs * 1e3,
                shards,
            }
        })
        .collect()
}

/// Cold-vs-warm wall-clock of one small `dd` sweep, measured by
/// [`run_warm_start_benchmark`] and recorded in the JSON so the
/// warm-start trajectory is tracked alongside raw simulator speed.
#[derive(Debug, Clone)]
pub struct WarmStartResult {
    /// Sweep points per arm.
    pub configs: usize,
    /// Wall-clock of the cold sweep (every point enumerates + probes).
    pub cold_ms: f64,
    /// Wall-clock of the warm sweep (one warmup, every point forked).
    pub warm_ms: f64,
    /// Scheduler events of warmup each forked point skips re-simulating.
    pub warm_events_skipped: u64,
    /// Build + enumeration + driver-probe passes per arm: the cold sweep
    /// pays one per point, the warm sweep one per distinct block size.
    pub cold_setups: usize,
    /// See [`Self::cold_setups`].
    pub warm_setups: usize,
}

impl WarmStartResult {
    /// Cold/warm wall-clock ratio (>1 means warm start is faster).
    pub fn speedup(&self) -> f64 {
        if self.warm_ms > 0.0 {
            self.cold_ms / self.warm_ms
        } else {
            0.0
        }
    }
}

/// Times a small serial `dd` switch-latency sweep cold (every point
/// builds, enumerates and probes its own system) against the identical
/// sweep warm-started from one checkpoint, best-of-`samples` per arm.
///
/// Outcomes of the two arms are asserted bit-identical — this benchmark
/// doubles as a smoke check of warm-start equivalence. The wall-clock
/// ratio lands near 1.00x *by construction*: the warm arm still
/// simulates each point's post-warmup workload tail (the overwhelming
/// majority of events) and additionally pays the checkpoint restore, so
/// the only savings are the skipped build/enumeration/probe passes and
/// the warmup events — both microseconds-scale in this simulator, unlike
/// the full-system boots gem5-style warm starts amortize. To keep the
/// number honest instead of impressive, the result records exactly what
/// the warm arm skipped: the warmup events per point and the setup
/// passes per arm.
pub fn run_warm_start_benchmark(samples: u32) -> WarmStartResult {
    let configs: Vec<DdExperiment> = [50u64, 75, 100, 125, 150, 175]
        .into_iter()
        .map(|lat| DdExperiment {
            block_bytes: 256 * 1024,
            switch_latency: ns(lat),
            ..DdExperiment::default()
        })
        .collect();
    let mut cold_best = f64::INFINITY;
    let mut warm_best = f64::INFINITY;
    let mut cold_out = Vec::new();
    let mut warm_out = Vec::new();
    for _ in 0..samples.max(1) {
        let start = Instant::now();
        cold_out = run_sweep(&configs, 1, run_cold);
        cold_best = cold_best.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        warm_out = run_sweep_warm(&configs, 1);
        warm_best = warm_best.min(start.elapsed().as_secs_f64());
    }
    for (c, w) in cold_out.iter().zip(&warm_out) {
        assert_eq!(c.sim_time, w.sim_time, "warm sweep must match cold bit-for-bit");
        assert_eq!(c.throughput_gbps.to_bits(), w.throughput_gbps.to_bits());
        assert_eq!(c.upstream_tlps, w.upstream_tlps);
    }
    // What the warm arm actually skipped, measured outside the timed
    // region (the warm start is deterministic, so this matches the ones
    // the timed arm prepared internally).
    let warm = warm_start(&configs[0]);
    WarmStartResult {
        configs: configs.len(),
        cold_ms: cold_best * 1e3,
        warm_ms: warm_best * 1e3,
        warm_events_skipped: warm.warm_events,
        cold_setups: configs.len(),
        warm_setups: 1,
    }
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/Infinity literals; `format!("{v}")` would emit
        // them bare and poison the document for every consumer. `null`
        // keeps the file parseable and `--bench-check` rejects it loudly.
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders the `BENCH_simulator_speed.json` document: host metadata, the
/// pre-change historical baseline, and the current measurement (including
/// the warm-start cold/warm comparison when one was measured).
pub fn render_json(
    micro: &[MicroResult],
    sweep_wall_ms: &[(String, u64)],
    warm: Option<&WarmStartResult>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"pcisim-bench-v1\",\n");
    s.push_str("  \"bench\": \"simulator_speed\",\n");
    s.push_str(&format!(
        "  \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    ));
    s.push_str("  \"pre_change\": {\n");
    s.push_str("    \"note\": \"measured before the hot-path overhaul (binary-heap scheduler, HashMap routing, per-TLP allocation); captured in the host's slow power state — interleaved A/B put the fast-state seed at ~2.53e6 xbar / ~1.31e6 link ops/s (true speedups ~1.2x / ~1.6x)\",\n");
    s.push_str("    \"ops_per_sec\": {");
    let pre: Vec<String> =
        PRE_CHANGE_OPS_PER_SEC.iter().map(|(k, v)| format!("\"{k}\": {}", json_f64(*v))).collect();
    s.push_str(&pre.join(", "));
    s.push_str("},\n");
    s.push_str("    \"sweep_wall_ms\": {");
    let pre: Vec<String> =
        PRE_CHANGE_SWEEP_WALL_MS.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    s.push_str(&pre.join(", "));
    s.push_str("}\n  },\n");
    s.push_str(&format!(
        "  \"floors\": {{\"events_per_sec\": {}}},\n",
        json_f64(EVENTS_PER_SEC_FLOOR)
    ));
    s.push_str("  \"current\": {\n");
    s.push_str("    \"ops_per_sec\": {");
    let cur: Vec<String> =
        micro.iter().map(|m| format!("\"{}\": {}", m.name, json_f64(m.ops_per_sec))).collect();
    s.push_str(&cur.join(", "));
    s.push_str("},\n");
    s.push_str("    \"events_per_sec\": {");
    let cur: Vec<String> =
        micro.iter().map(|m| format!("\"{}\": {}", m.name, json_f64(m.events_per_sec))).collect();
    s.push_str(&cur.join(", "));
    s.push_str("},\n");
    s.push_str("    \"shards\": {");
    let cur: Vec<String> =
        micro.iter().filter_map(|m| m.shards.map(|n| format!("\"{}\": {n}", m.name))).collect();
    s.push_str(&cur.join(", "));
    s.push_str("},\n");
    s.push_str("    \"sweep_wall_ms\": {");
    let cur: Vec<String> = sweep_wall_ms.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    s.push_str(&cur.join(", "));
    s.push('}');
    if let Some(w) = warm {
        s.push_str(&format!(
            ",\n    \"warm_start\": {{\n      \"note\": \"near-1x by construction: each warm point still simulates its full post-warmup workload tail and pays the restore; the savings are the setup passes and warmup events recorded here\",\n      \"configs\": {}, \"cold_ms\": {}, \"warm_ms\": {}, \"speedup\": {},\n      \"warm_events_skipped_per_config\": {}, \"cold_setups\": {}, \"warm_setups\": {}\n    }}",
            w.configs,
            json_f64(w.cold_ms),
            json_f64(w.warm_ms),
            json_f64(w.speedup()),
            w.warm_events_skipped,
            w.cold_setups,
            w.warm_setups,
        ));
    }
    s.push_str("\n  }\n}\n");
    s
}

/// A minimal JSON value, parsed by [`parse`]. Covers exactly what the
/// bench files use; no registry dependency required.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Walks nested objects by key path.
    pub fn path(&self, path: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for key in path {
            let Value::Obj(fields) = cur else { return None };
            cur = &fields.iter().find(|(k, _)| k == key)?.1;
        }
        Some(cur)
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message describing the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(Value::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                }
            }
            other => out.push(other as char),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let micro = vec![
            MicroResult {
                name: "xbar_10k_reads",
                ops_per_sec: 3_400_000.0,
                events_per_sec: 10_300_000.5,
                wall_ms: 2.9,
                shards: None,
            },
            MicroResult {
                name: "link_10k_writes",
                ops_per_sec: 1_700_000.0,
                events_per_sec: 12_000_000.0,
                wall_ms: 5.8,
                shards: None,
            },
            MicroResult {
                name: "sharded_cascaded3_tx",
                ops_per_sec: 2_000_000.0,
                events_per_sec: 2_000_000.0,
                wall_ms: 7.0,
                shards: Some(2),
            },
        ];
        let sweeps = vec![("fig9a".to_string(), 6_000u64), ("fig9b".to_string(), 9_000u64)];
        let warm = WarmStartResult {
            configs: 6,
            cold_ms: 1000.0,
            warm_ms: 800.0,
            warm_events_skipped: 12_345,
            cold_setups: 6,
            warm_setups: 1,
        };
        let text = render_json(&micro, &sweeps, Some(&warm));
        let doc = parse(&text).expect("well-formed");
        assert_eq!(
            doc.path(&["current", "warm_start", "configs"]).and_then(Value::as_f64),
            Some(6.0)
        );
        assert_eq!(
            doc.path(&["current", "warm_start", "speedup"]).and_then(Value::as_f64),
            Some(1.25)
        );
        assert_eq!(
            doc.path(&["current", "warm_start", "warm_events_skipped_per_config"])
                .and_then(Value::as_f64),
            Some(12_345.0)
        );
        assert_eq!(
            doc.path(&["current", "shards", "sharded_cascaded3_tx"]).and_then(Value::as_f64),
            Some(2.0)
        );
        assert!(doc.path(&["current", "shards", "xbar_10k_reads"]).is_none());
        assert!(doc.path(&["host", "cpus"]).and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
        let bare = render_json(&micro, &sweeps, None);
        assert!(parse(&bare).expect("well-formed").path(&["current", "warm_start"]).is_none());
        assert_eq!(
            doc.path(&["current", "ops_per_sec", "xbar_10k_reads"]).and_then(Value::as_f64),
            Some(3_400_000.0)
        );
        assert_eq!(
            doc.path(&["pre_change", "ops_per_sec", "link_10k_writes"]).and_then(Value::as_f64),
            Some(PRE_CHANGE_OPS_PER_SEC[1].1)
        );
        assert_eq!(
            doc.path(&["current", "sweep_wall_ms", "fig9b"]).and_then(Value::as_f64),
            Some(9_000.0)
        );
        assert_eq!(doc.path(&["schema"]), Some(&Value::Str("pcisim-bench-v1".into())));
    }

    #[test]
    fn parser_handles_the_grammar() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parses");
        assert_eq!(doc.path(&["b", "c"]), Some(&Value::Bool(true)));
        assert_eq!(doc.path(&["e"]), Some(&Value::Str("x\ny".into())));
        let Some(Value::Arr(items)) = doc.path(&["a"]) else { panic!("array expected") };
        assert_eq!(items[2], Value::Num(-300.0));
        assert!(parse("{").is_err());
        assert!(parse("{} junk").is_err());
    }

    #[test]
    fn micro_benchmarks_run_and_report_positive_rates() {
        let results = run_micro_benchmarks(1);
        assert_eq!(results.len(), 11);
        for r in &results {
            assert!(r.ops_per_sec > 0.0, "{}: {r:?}", r.name);
            assert!(r.events_per_sec >= r.ops_per_sec, "{}: events >= ops", r.name);
        }
    }

    #[test]
    fn non_finite_rates_render_as_null_not_bare_nan() {
        let micro = vec![MicroResult {
            name: "broken",
            ops_per_sec: f64::NAN,
            events_per_sec: f64::INFINITY,
            wall_ms: 0.0,
            shards: None,
        }];
        let text = render_json(&micro, &[], None);
        let doc = parse(&text).expect("null must keep the document well-formed");
        assert_eq!(doc.path(&["current", "ops_per_sec", "broken"]), Some(&Value::Null));
        assert_eq!(doc.path(&["current", "events_per_sec", "broken"]), Some(&Value::Null));
        assert_eq!(
            doc.path(&["floors", "events_per_sec"]).and_then(Value::as_f64),
            Some(EVENTS_PER_SEC_FLOOR)
        );
    }
}
