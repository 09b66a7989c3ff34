//! System-level traffic orchestration.
//!
//! The generator itself lives in [`pcisim_devices::traffic`] (it feeds the
//! NIC's receive path directly); this module re-exports it and adds the experiment-side
//! conveniences: canonical heavy-traffic shapes and offered-load ladders
//! for the `repro pmd` sweeps.

pub use pcisim_devices::traffic::{
    record_trace, ArrivalProcess, FrameEvent, SizeDist, TrafficConfig, TrafficFeed, TrafficGen,
    TrafficSpec,
};

use pcisim_kernel::tick::Tick;

/// The canonical heavy-traffic shape: millions of flows, heavy-tailed
/// (bounded-Pareto) frame sizes, Poisson arrivals with mean gap
/// `mean_gap`. Deterministic in `seed`.
pub fn heavy_traffic(seed: u64, flows: u32, frames: u32, mean_gap: Tick) -> TrafficConfig {
    TrafficConfig {
        seed,
        flows,
        frames,
        // Ethernet frame bounds with the classic alpha ~ 1.3 tail.
        size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
        arrival: ArrivalProcess::Poisson(mean_gap),
    }
}

/// An offered-load ladder: the same flow population and size distribution
/// swept across mean inter-arrival gaps, highest load (smallest gap)
/// last. Each rung is an independent deterministic stream reusing the
/// base seed, so rungs are comparable point-for-point across runs.
pub fn offered_load_ladder(base: TrafficConfig, gaps: &[Tick]) -> Vec<TrafficConfig> {
    gaps.iter()
        .map(|&gap| TrafficConfig {
            arrival: match base.arrival {
                ArrivalProcess::Periodic(_) => ArrivalProcess::Periodic(gap),
                ArrivalProcess::Poisson(_) => ArrivalProcess::Poisson(gap),
                ArrivalProcess::Bursty { burst, spacing, .. } => {
                    ArrivalProcess::Bursty { burst, spacing, gap }
                }
            },
            ..base
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::tick::ns;

    #[test]
    fn ladder_preserves_everything_but_the_gap() {
        let base = heavy_traffic(42, 1 << 20, 10_000, ns(800));
        let rungs = offered_load_ladder(base, &[ns(1600), ns(800), ns(400)]);
        assert_eq!(rungs.len(), 3);
        for (rung, gap) in rungs.iter().zip([ns(1600), ns(800), ns(400)]) {
            assert_eq!(rung.arrival, ArrivalProcess::Poisson(gap));
            assert_eq!(rung.seed, base.seed);
            assert_eq!(rung.flows, base.flows);
            assert_eq!(rung.size, base.size);
        }
    }

    #[test]
    fn ladder_keeps_bursty_shape() {
        let base = TrafficConfig {
            arrival: ArrivalProcess::Bursty { burst: 8, spacing: ns(50), gap: ns(1000) },
            ..heavy_traffic(1, 1024, 256, ns(500))
        };
        let rungs = offered_load_ladder(base, &[ns(2000)]);
        assert_eq!(
            rungs[0].arrival,
            ArrivalProcess::Bursty { burst: 8, spacing: ns(50), gap: ns(2000) }
        );
    }
}
