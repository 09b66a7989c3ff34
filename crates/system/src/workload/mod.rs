//! CPU-side workload models and the one surface that attaches them.
//!
//! Every workload is a configuration type implementing [`Workload`]: given
//! the endpoint it should drive, it returns the component, the wires from
//! the component's ports to the platform, and the report handle. The
//! system's generic [`attach`](crate::topology::TopologySystem::attach) does the
//! rest, so the decision "how is this driver wired to an endpoint" lives
//! in exactly one body per workload.

use pcisim_kernel::component::{Component, ComponentId, PortId};

use crate::topology::{EndpointHandle, EndpointKind};

pub mod cxl;
pub mod dd;
pub mod mmio;
pub mod msix;
pub mod nic_rx;
pub mod nic_tx;
pub mod pmd;
pub mod virtio;

/// What a [`Workload`] hands the system to wire up.
pub struct Attached<R> {
    /// The CPU-side component, named `{prefix}{index}`.
    pub component: Box<dyn Component>,
    /// `(port on the component, platform endpoint it connects to)`.
    pub wires: Vec<(PortId, (ComponentId, PortId))>,
    /// The handle the caller reads results from after the run.
    pub report: R,
}

impl<R> Attached<R> {
    /// Packages a `(component, report)` constructor result with its wires.
    pub fn new<C: Component + 'static>(
        (component, report): (C, R),
        wires: Vec<(PortId, (ComponentId, PortId))>,
    ) -> Self {
        Self { component: Box::new(component), wires, report }
    }
}

/// A CPU-side workload that can be attached to an endpoint of a built
/// system.
pub trait Workload {
    /// The report handle attaching returns.
    type Report;

    /// The endpoint kinds this workload can drive; attaching to any other
    /// kind panics.
    fn accepts(&self) -> &'static [EndpointKind];

    /// Fills the endpoint-derived fields of the configuration (BAR, DMA
    /// window, vectors) and builds the component named `{prefix}{index}`
    /// with its wires to `ep`'s reserved CPU-side ports.
    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<Self::Report>;
}
