//! `pcisim-system` — full-system assembly and the paper's workloads.
//!
//! * [`platform`] — the ARM `Vexpress_GEM5_V1` address map (§III);
//! * [`topology`] — declarative PCI-Express trees: N root ports,
//!   switches nested to arbitrary depth, any mix of endpoints (Fig. 2);
//!   the paper's two-link chain ([`Topology::chain`](topology::Topology::chain),
//!   Fig. 6) and the other presets, the one builder and the one system
//!   type every workload attaches to, plus the legacy pre-PCIe arrangement
//!   ([`build_legacy_system`](topology::build_legacy_system), Fig. 3);
//! * [`workload`] — the CPU-side drivers (`dd`, the MMIO probe, the NIC,
//!   poll-mode, CXL and virtio drivers) behind one
//!   [`Workload`](workload::Workload) attach surface; a workload config
//!   holds only what its caller chooses, and everything the endpoint
//!   decides (BAR, DMA target, windows) is read off it at attach;
//! * [`experiments`] — one [`Experiment`](experiments::Experiment) per
//!   figure/table of the paper's evaluation, the one
//!   [`run`](experiments::run) that drives them, and
//!   [`run_traced`](experiments::run_traced) for the same run with its
//!   event trace;
//! * [`snapshot`] — checkpoint/restore over built systems, in memory or
//!   through a file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod experiments;
pub mod platform;
pub mod snapshot;
pub mod sweep;
pub mod topology;
pub mod traffic;
pub mod workload;

/// Convenient glob import for examples and the `repro` binary.
pub mod prelude {
    pub use crate::experiments::{
        checkpoint_at, error_rate_ladder, execute, run, run_cold, run_topology_experiment,
        run_traced, ContentionOutcome, CxlExperiment, CxlOutcome, CxlPlacement, DdExperiment,
        DdOutcome, Exec, Experiment, Finished, IrqRxBaseline, MmioExperiment, MmioOutcome,
        MsixTxExperiment, MsixTxOutcome, NicRxExperiment, NicRxOutcome, NicTxExperiment,
        NicTxOutcome, PmdExperiment, PmdOutcome, SectorMicrobench, TopologyExperiment,
        TopologyOutcome, VirtioArm, VirtioExperiment, VirtioOutcome, WARMUP_TICK,
    };
    pub use crate::platform;
    pub use crate::snapshot::SystemHandle;
    pub use crate::sweep::{default_jobs, run_sweep};
    pub use crate::topology::{
        build_legacy_system, build_topology, Attachment, DeviceSpec, EndpointHandle, EndpointKind,
        Node, PlannedTopology, Topology, TopologySystem,
    };
    pub use crate::traffic::{
        heavy_traffic, offered_load_ladder, record_trace, ArrivalProcess, SizeDist, TrafficConfig,
        TrafficSpec,
    };
    pub use crate::workload::cxl::{
        CxlHostConfig, CxlHostMode, CxlHostReport, CxlHostReportHandle,
    };
    pub use crate::workload::dd::{DdConfig, DdReport, DdReportHandle};
    pub use crate::workload::mmio::{MmioProbeConfig, MmioReport, MmioReportHandle};
    pub use crate::workload::msix::{MsixTxConfig, MsixTxReport, MsixTxReportHandle};
    pub use crate::workload::nic_rx::{NicRxConfig, NicRxReport, NicRxReportHandle};
    pub use crate::workload::nic_tx::{NicTxConfig, NicTxReport, NicTxReportHandle};
    pub use crate::workload::pmd::{PmdConfig, PmdReport, PmdReportHandle};
    pub use crate::workload::virtio::{VirtioAppConfig, VirtioReport, VirtioReportHandle};
    pub use crate::workload::{Attached, Workload};
    pub use pcisim_devices::cxl::CxlExpanderConfig;
    pub use pcisim_devices::virtio::{VirtioClass, VirtioConfig};
    pub use pcisim_kernel::snapshot::SnapshotError;
    pub use pcisim_kernel::trace::{LatencyAttribution, Stage, TraceCategory, TraceLog};
}
