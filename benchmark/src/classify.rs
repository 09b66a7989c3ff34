//! The harness's own component-name → layer map.
//!
//! `kernel::trace::Stage::classify` files the auto-named `sw{n}` switches
//! of the fan-out trees, the virtio guest driver `vdrv{n}` and the
//! poll-mode/CXL host engines under `Other`, so its shares cannot be
//! trusted on those trees. This map covers every name `system::topology`
//! hands out; the traced run fails when any workload still has a trace
//! event in [`Layer::Other`], so a new component cannot go unaccounted.

use pcisim_kernel::trace::Stage;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `pcie::link`: every tree edge.
    Link,
    /// `pcie::router`: the root complex and every switch.
    Router,
    /// `kernel::{xbar,dram,iocache}`, `pci::host`, `devices::intc`.
    HostFabric,
    /// `devices::{ide,nic,virtio,cxl}` endpoints.
    Device,
    /// `system::workload` CPU-side engines.
    Workload,
    Other,
}

impl Layer {
    pub const ALL: [Layer; 6] = [
        Layer::Link,
        Layer::Router,
        Layer::HostFabric,
        Layer::Device,
        Layer::Workload,
        Layer::Other,
    ];

    /// The per-layer metric holding this layer's share of trace events.
    pub fn share_metric(self) -> &'static str {
        match self {
            Layer::Link => "share.link",
            Layer::Router => "share.router",
            Layer::HostFabric => "share.hostfabric",
            Layer::Device => "share.device",
            Layer::Workload => "share.workload",
            Layer::Other => "share.other",
        }
    }
}

/// `name` followed only by decimal digits (`sw12`, `dd0`, `link41`).
fn numbered(name: &str, stem: &str) -> bool {
    name.strip_prefix(stem).is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_digit()))
}

pub fn layer_of(name: &str) -> Layer {
    const WORKLOADS: [&str; 9] =
        ["dd", "mmio_probe", "pmd", "vdrv", "dramhost", "cxlhost", "nictx", "nicrx", "msixtx"];
    const HOST: [&str; 5] = ["membus", "dram", "gic", "pcihost", "iocache"];
    const DEVICES: [&str; 6] = ["disk", "nic", "vblk", "vnet", "mem", "ep"];
    if name.contains("link") {
        Layer::Link
    } else if name == "rc" || name == "switch" || numbered(name, "sw") {
        Layer::Router
    } else if WORKLOADS.iter().any(|w| numbered(name, w)) {
        Layer::Workload
    } else if HOST.contains(&name) {
        Layer::HostFabric
    } else if DEVICES.iter().any(|d| name.starts_with(d)) {
        Layer::Device
    } else {
        Layer::Other
    }
}

/// The [`Stage`] slot `attribution_with` accumulates a component's
/// simulated time under. Root complex and switches keep separate slots
/// (the router metric sums them); workloads share the host slot.
pub fn stage_of(name: &str) -> Stage {
    match layer_of(name) {
        Layer::Link => Stage::Link,
        Layer::Router if name == "rc" => Stage::RootComplex,
        Layer::Router => Stage::Switch,
        Layer::HostFabric | Layer::Workload => Stage::Host,
        Layer::Device => Stage::Device,
        Layer::Other => Stage::Other,
    }
}

/// The component a statistics key belongs to (`dev_link.up.tlps_tx` →
/// `dev_link`).
pub fn component_of(key: &str) -> &str {
    key.split('.').next().unwrap_or(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_the_topology_presets_assign_has_a_layer() {
        let cases = [
            ("root_link", Layer::Link),
            ("dev_link", Layer::Link),
            ("cxl_link0", Layer::Link),
            ("link41", Layer::Link),
            ("rc", Layer::Router),
            ("switch", Layer::Router),
            ("sw9", Layer::Router),
            ("membus", Layer::HostFabric),
            ("dram", Layer::HostFabric),
            ("gic", Layer::HostFabric),
            ("pcihost", Layer::HostFabric),
            ("iocache", Layer::HostFabric),
            ("disk", Layer::Device),
            ("disk1_3_3", Layer::Device),
            ("nic", Layer::Device),
            ("vblk0", Layer::Device),
            ("mem0", Layer::Device),
            ("dd31", Layer::Workload),
            ("vdrv0", Layer::Workload),
            ("pmd0", Layer::Workload),
            ("mmio_probe0", Layer::Workload),
            ("dramhost0", Layer::Workload),
            ("mystery", Layer::Other),
        ];
        for (name, layer) in cases {
            assert_eq!(layer_of(name), layer, "{name}");
        }
    }

    #[test]
    fn fanout_switches_are_not_filed_under_other() {
        // The gap in `Stage::classify` this module exists to close.
        assert_eq!(Stage::classify("sw3"), Stage::Other);
        assert_eq!(stage_of("sw3"), Stage::Switch);
        assert_eq!(stage_of("rc"), Stage::RootComplex);
        assert_eq!(stage_of("vdrv0"), Stage::Host);
    }

    #[test]
    fn stats_keys_resolve_to_their_component() {
        assert_eq!(component_of("dev_link.up.tlps_tx"), "dev_link");
        assert_eq!(layer_of(component_of("sw2.requests")), Layer::Router);
    }
}
