//! Parallel fan-out of independent experiment configurations.
//!
//! Each configuration in a sweep (e.g. one point of a Fig. 9 curve) builds
//! and runs its own [`pcisim_kernel::sim::Simulation`], so sweeps are
//! embarrassingly parallel *between* runs even though a single simulation
//! is strictly single-threaded (`Rc`/`RefCell` state is not `Send`). The
//! runner fans configurations across scoped worker threads and writes each
//! result into the slot matching its input index, so the returned vector
//! is bit-identical to a serial `configs.iter().map(run).collect()` — the
//! property the determinism suite asserts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count to use when the caller does not specify one: the host's
/// available parallelism, or 1 when that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `run` over every configuration in `configs`, fanning across at
/// most `jobs` scoped worker threads, and returns the results in input
/// order.
///
/// `run` must be a pure function of its configuration (each call builds
/// its own `Simulation`); the runner adds no cross-run communication, so
/// results cannot depend on scheduling. With `jobs <= 1` the sweep runs
/// inline on the caller's thread — the serial reference ordering.
///
/// # Panics
///
/// Propagates a panic from any worker once all threads are joined.
pub fn run_sweep<C, R, F>(configs: &[C], jobs: usize, run: F) -> Vec<R>
where
    C: Sync,
    R: Send,
    F: Fn(&C) -> R + Sync,
{
    let jobs = jobs.max(1).min(configs.len().max(1));
    if jobs <= 1 {
        return configs.iter().map(run).collect();
    }
    // Work-stealing by atomic index keeps workers busy regardless of how
    // uneven individual run times are; index-addressed slots make the
    // output order independent of completion order.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = configs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(config) = configs.get(i) else { break };
                let result = run(config);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_regardless_of_run_time() {
        let configs: Vec<u64> = (0..32).collect();
        let out = run_sweep(&configs, 4, |&c| {
            // Earlier items sleep longer, so completion order inverts
            // input order; the result order must not.
            std::thread::sleep(std::time::Duration::from_micros(320 - c * 10));
            c * 2
        });
        assert_eq!(out, configs.iter().map(|c| c * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let configs: Vec<u64> = (0..17).collect();
        let serial = run_sweep(&configs, 1, |&c| c.wrapping_mul(0x9e3779b9) >> 7);
        let parallel = run_sweep(&configs, 8, |&c| c.wrapping_mul(0x9e3779b9) >> 7);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single_element_sweeps() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(run_sweep(&empty, 8, |&c| c), Vec::<u32>::new());
        assert_eq!(run_sweep(&[7u32], 8, |&c| c + 1), vec![8]);
    }

    #[test]
    fn runs_real_simulations_concurrently() {
        use crate::experiments::{run_cold, DdExperiment};
        let configs: Vec<DdExperiment> =
            [pcisim_kernel::tick::ns(50), pcisim_kernel::tick::ns(150)]
                .into_iter()
                .map(|lat| DdExperiment {
                    block_bytes: 64 * 1024,
                    switch_latency: lat,
                    ..DdExperiment::default()
                })
                .collect();
        let out = run_sweep(&configs, 2, run_cold);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|o| o.completed));
        assert!(out[0].throughput_gbps >= out[1].throughput_gbps);
    }
}
