//! Machine-readable simulator-speed record (`BENCH_simulator_speed.json`).
//!
//! The repo benchmark (`benchmark/`) is the speed ledger and the only
//! gate. This module records the four full-system scenarios it does not
//! measure — a multi-queue MSI-X NIC transmit run, two CXL.mem scenarios
//! (pointer chase, 2-way interleave) and a virtio-net MTU transmit — as
//! ops/sec and raw scheduler events/sec, together with the wall-clock of
//! each figure `repro` regenerated and host metadata. `repro --bench-json`
//! writes the document and fails when a scenario's event rate is
//! non-finite or under [`EVENTS_PER_SEC_FLOOR`].

use pcisim_pcie::params::LinkWidth;
use pcisim_system::prelude::*;

/// Frames the MSI-X transmit scenario sends.
const MSIX_FRAMES: u32 = 10_000;

/// Absolute scheduler events/sec floor every scenario must clear. Set an
/// order of magnitude below the slowest observed scenario so it trips
/// only on a broken build (or a zeroed rate from an unusable timer
/// reading), never on a noisy host.
pub const EVENTS_PER_SEC_FLOOR: f64 = 100_000.0;

/// One measured scenario.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Scenario name (stable key used in the JSON).
    pub name: &'static str,
    /// Completed requests per second of host wall-clock.
    pub ops_per_sec: f64,
    /// Scheduler dispatches per second of host wall-clock.
    pub events_per_sec: f64,
    /// Wall-clock of the measured iteration, milliseconds.
    pub wall_ms: f64,
}

impl MicroResult {
    /// Whether the event rate is finite and at least
    /// [`EVENTS_PER_SEC_FLOOR`].
    pub fn clears_floor(&self) -> bool {
        self.events_per_sec.is_finite() && self.events_per_sec >= EVENTS_PER_SEC_FLOOR
    }
}

/// Runs `exp` cold and returns `(ops, events, secs)`
/// for the run alone: build, enumeration, probe and attach are outside
/// the timed region. `ops` checks the outcome and says how many
/// operations it stands for.
fn measure<E: Experiment>(exp: &E, ops: impl FnOnce(E::Outcome) -> u64) -> (u64, u64, f64) {
    let (fin, reports) = execute(exp, Exec::Cold);
    (ops(exp.collect(&fin, &reports)), fin.events, fin.wall_secs)
}

fn run_msix_tx() -> (u64, u64, f64) {
    let exp = MsixTxExperiment {
        queues: 4,
        frames: MSIX_FRAMES,
        width: LinkWidth::X1,
        ..MsixTxExperiment::default()
    };
    measure(&exp, |out| {
        assert!(out.completed, "msix bench transmit must complete");
        u64::from(MSIX_FRAMES)
    })
}

/// Accesses per CXL.mem benchmark scenario.
const CXL_ACCESSES: u32 = 2048;

fn run_cxl(exp: CxlExperiment) -> (u64, u64, f64) {
    measure(&exp, |out| {
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

/// Frames the virtio-net scenario transmits.
const VIRTIO_REQUESTS: u32 = 2048;

/// A queue-depth-8 virtio-net MTU transmit: descriptor chains, avail/used
/// ring DMA, payload bursts and completion interrupts all on the timed
/// path.
fn run_virtio_net_tx() -> (u64, u64, f64) {
    let exp = VirtioExperiment {
        arm: VirtioArm::NetTx,
        requests: VIRTIO_REQUESTS,
        queue_depth: 8,
        request_bytes: 1514,
        ..VirtioExperiment::default()
    };
    measure(&exp, |out| {
        assert!(out.completed, "virtio bench stream must complete: {out:?}");
        assert_eq!(out.requests, u64::from(VIRTIO_REQUESTS));
        out.requests
    })
}

/// Runs the scenarios, best-of-`samples`, and returns the per-scenario
/// rates. Build setup is excluded from the timed region.
pub fn run_micro_benchmarks(samples: u32) -> Vec<MicroResult> {
    type Scenario = (&'static str, fn() -> (u64, u64, f64));
    let scenarios: [Scenario; 4] = [
        ("msix_4q_tx_10k_frames", run_msix_tx),
        ("cxl_pointer_chase", run_cxl_chase),
        ("cxl_interleave2", run_cxl_interleave2),
        ("virtio_net_tx", run_virtio_net_tx),
    ];
    scenarios
        .iter()
        .map(|&(name, run)| {
            let (ops, events, secs) = (0..samples.max(1))
                .map(|_| run())
                .min_by(|a, b| a.2.total_cmp(&b.2))
                .expect("at least one sample");
            // A sub-resolution timer reading must not divide through to
            // infinity (and poison the JSON): report zero and let the
            // floor check flag it.
            let rate = |count: u64| if secs > 0.0 { count as f64 / secs } else { 0.0 };
            MicroResult {
                name,
                ops_per_sec: rate(ops),
                events_per_sec: rate(events),
                wall_ms: secs * 1e3,
            }
        })
        .collect()
}

fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        // JSON has no NaN/Infinity literals; `format!("{v}")` would emit
        // them bare and poison the document for every consumer.
        "null".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Renders the `BENCH_simulator_speed.json` document: host metadata, the
/// scenario rates, and the wall-clock of each figure `repro` ran.
pub fn render_json(micro: &[MicroResult], sweep_wall_ms: &[(String, u64)]) -> String {
    let object = |fields: Vec<String>| format!("{{{}}}", fields.join(", "));
    let rates = |rate: fn(&MicroResult) -> f64| {
        object(micro.iter().map(|m| format!("\"{}\": {}", m.name, json_f64(rate(m)))).collect())
    };
    format!(
        "{{\n  \"schema\": \"pcisim-bench-v1\",\n  \"bench\": \"simulator_speed\",\n  \
         \"host\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n  \
         \"current\": {{\n    \"ops_per_sec\": {},\n    \"events_per_sec\": {},\n    \
         \"sweep_wall_ms\": {}\n  }}\n}}\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        rates(|m| m.ops_per_sec),
        rates(|m| m.events_per_sec),
        object(sweep_wall_ms.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIOS: [&str; 4] =
        ["msix_4q_tx_10k_frames", "cxl_pointer_chase", "cxl_interleave2", "virtio_net_tx"];

    #[test]
    fn rendered_document_holds_exactly_the_kept_scenarios() {
        let micro: Vec<MicroResult> = SCENARIOS
            .iter()
            .map(|&name| MicroResult {
                name,
                ops_per_sec: 15_000.0,
                events_per_sec: 8_000_000.5,
                wall_ms: 2.9,
            })
            .collect();
        let sweeps = vec![("fig9a".to_string(), 6_000u64), ("fig9b".to_string(), 9_000u64)];
        let text = render_json(&micro, &sweeps);
        for name in SCENARIOS {
            assert_eq!(text.matches(&format!("\"{name}\": ")).count(), 2, "{name}:\n{text}");
        }
        // Four entries in each rate object: no fifth scenario.
        assert_eq!(text.matches("\": 15000.0").count(), 4, "{text}");
        assert_eq!(text.matches("\": 8000000.5").count(), 4, "{text}");
        assert!(text.contains("\"sweep_wall_ms\": {\"fig9a\": 6000, \"fig9b\": 9000}"), "{text}");
        for gone in ["pre_change", "floors", "warm", "shards"] {
            assert!(!text.contains(gone), "{gone} must not be rendered:\n{text}");
        }
    }

    #[test]
    fn micro_benchmarks_run_and_report_positive_rates() {
        let results = run_micro_benchmarks(1);
        assert_eq!(results.iter().map(|r| r.name).collect::<Vec<_>>(), SCENARIOS);
        for r in &results {
            assert!(r.ops_per_sec > 0.0, "{}: {r:?}", r.name);
            assert!(r.events_per_sec >= r.ops_per_sec, "{}: events >= ops", r.name);
        }
    }

    #[test]
    fn non_finite_rates_render_as_null_not_bare_nan() {
        let broken = MicroResult {
            name: "broken",
            ops_per_sec: f64::NAN,
            events_per_sec: f64::INFINITY,
            wall_ms: 0.0,
        };
        assert!(!broken.clears_floor(), "a non-finite rate must fail the writer's check");
        let text = render_json(&[broken], &[]);
        assert_eq!(text.matches("\"broken\": null").count(), 2, "{text}");
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }
}
