//! Kept for one name: `benchmark/src/workloads.rs` imports
//! `pcisim_system::builder::DeviceSpec`, and `benchmark/` is a protected
//! workspace this repository's PRs may not edit. Everything else that
//! lived here is [`crate::topology`].

pub use crate::topology::DeviceSpec;
