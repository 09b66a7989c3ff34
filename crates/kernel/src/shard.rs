//! The name the repository benchmark harness still drives the serial
//! kernel under.
//!
//! Every topology builds into exactly one [`Simulation`]; there is no
//! partitioned or threaded execution. This alias keeps the harness's
//! `fanout32_dd_shard2` workload compiling until that workload is retired.

use crate::sim::Simulation;

/// The serial kernel under its old sharded-driver name. Only caller:
/// `benchmark/src/workloads.rs`.
pub type ShardedSimulator = Simulation;
