//! Property-based tests of the heavy-traffic poll-mode datapath.
//!
//! Whatever traffic shape the generator is configured with:
//!
//! * the stream is deterministic — the same config records the same trace
//!   bytes twice, and two live full-system runs land on the same quiesce
//!   tick and stats fingerprint;
//! * replaying a recorded trace through the NIC is bit-identical to
//!   generating the same stream live;
//! * a checkpoint taken mid-run and restored into a fresh build finishes
//!   bit-identical to the uninterrupted run (quiesce tick, counters,
//!   latency percentiles);
//! * the workload report's rates are total functions — zero, never NaN
//!   or infinity, when nothing moved.

use std::sync::Arc;

use proptest::prelude::*;

use pcisim::kernel::tick::ns;
use pcisim::system::experiments::{checkpoint_at, run, run_cold, Exec, PmdExperiment, PmdOutcome};
use pcisim::system::traffic::{record_trace, ArrivalProcess, SizeDist, TrafficConfig, TrafficSpec};
use pcisim::system::workload::pmd::PmdReport;

/// Builds an arbitrary-but-valid traffic config from raw proptest draws.
/// Flow population stays in the millions; the frame count stays small so
/// each full-system case finishes quickly.
fn traffic_from(seed: u64, frames: u32, shape: u8, gap_ns: u64) -> TrafficConfig {
    let size = match shape % 3 {
        0 => SizeDist::Fixed(256),
        1 => SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
        _ => SizeDist::Pareto { min: 128, max: 1024, alpha_milli: 1100 },
    };
    let arrival = match (shape / 3) % 3 {
        0 => ArrivalProcess::Periodic(ns(gap_ns)),
        1 => ArrivalProcess::Poisson(ns(gap_ns)),
        _ => ArrivalProcess::Bursty { burst: 4, spacing: ns(200), gap: ns(4 * gap_ns) },
    };
    TrafficConfig { seed, flows: 1 << 20, frames, size, arrival }
}

fn experiment(traffic: TrafficSpec, burst: u32) -> PmdExperiment {
    PmdExperiment { burst, traffic: Some(traffic), ..PmdExperiment::default() }
}

fn assert_outcomes_identical(a: &PmdOutcome, b: &PmdOutcome, what: &str) {
    assert_eq!(a.quiesce_tick, b.quiesce_tick, "{what}: quiesce tick");
    assert_eq!(a.stats_fnv, b.stats_fnv, "{what}: stats fingerprint");
    assert_eq!(a, b, "{what}: full outcome");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same config records the same trace bytes twice, and two live
    /// full-system runs are bit-identical (quiesce tick + stats FNV).
    #[test]
    fn traffic_is_deterministic_in_its_seed(
        seed in 1u64..u64::MAX,
        frames in 8u32..40,
        shape in 0u8..9,
        gap_ns in 400u64..4000,
    ) {
        let cfg = traffic_from(seed, frames, shape, gap_ns);
        prop_assert_eq!(record_trace(&cfg), record_trace(&cfg), "trace bytes");
        let exp = experiment(TrafficSpec::Generate(cfg), 8);
        let a = run_cold(&exp);
        let b = run_cold(&exp);
        prop_assert!(a.completed, "run must settle: {:?}", a);
        assert_outcomes_identical(&a, &b, "same seed, two live runs");
    }

    /// Replaying the recorded trace through the full system is
    /// bit-identical to generating the same stream live.
    #[test]
    fn replaying_a_recorded_trace_matches_the_live_generator(
        seed in 1u64..u64::MAX,
        frames in 8u32..40,
        shape in 0u8..9,
        gap_ns in 400u64..4000,
    ) {
        let cfg = traffic_from(seed, frames, shape, gap_ns);
        let trace = Arc::new(record_trace(&cfg));
        let live = run_cold(&experiment(TrafficSpec::Generate(cfg), 8));
        let replayed = run_cold(&experiment(TrafficSpec::Replay(trace), 8));
        prop_assert!(live.completed, "live run must settle: {:?}", live);
        assert_outcomes_identical(&live, &replayed, "record -> replay");
    }

    /// A checkpoint taken a third and two thirds of the way to the quiesce
    /// tick restores into a fresh build and finishes bit-identical to the
    /// cold run, for any traffic shape and burst size.
    #[test]
    fn restored_pmd_reproduces_the_cold_run(
        seed in 1u64..u64::MAX,
        frames in 8u32..32,
        shape in 0u8..9,
        burst in 1u32..16,
    ) {
        let cfg = traffic_from(seed, frames, shape, 1200);
        let exp = experiment(TrafficSpec::Generate(cfg), burst);
        let cold = run_cold(&exp);
        prop_assert!(cold.completed, "cold run must settle: {:?}", cold);
        for tick in [cold.quiesce_tick / 3, 2 * cold.quiesce_tick / 3] {
            let snapshot = checkpoint_at(&exp, tick);
            let restored = run(&exp, Exec::Restore { snapshot: &snapshot });
            assert_outcomes_identical(&cold, &restored, &format!("restored at {tick}"));
        }
    }
}

/// Regression: an idle report divides through to 0.0, never NaN — the
/// original bug returned `0.0 / 0.0` for a run that moved no bytes.
#[test]
fn idle_report_rates_are_zero_not_nan() {
    let report = PmdReport::default();
    assert_eq!(report.elapsed(), 0);
    assert_eq!(report.rx_throughput_gbps(), 0.0);
    assert_eq!(report.tx_throughput_gbps(), 0.0);
    assert_eq!(report.frames_per_sec(), 0.0);
}

/// Regression: bytes moved in zero elapsed ticks (start == end, e.g. a
/// single instantaneous writeback) must clamp to 0.0, not +infinity.
#[test]
fn zero_elapsed_with_traffic_clamps_to_zero_not_infinity() {
    let report = PmdReport {
        done: true,
        rx_frames: 1,
        rx_bytes: 1514,
        tx_frames: 1,
        tx_bytes: 1514,
        start: 1000,
        end: 1000,
        ..PmdReport::default()
    };
    assert_eq!(report.rx_throughput_gbps(), 0.0);
    assert_eq!(report.tx_throughput_gbps(), 0.0);
    assert_eq!(report.frames_per_sec(), 0.0);
}
