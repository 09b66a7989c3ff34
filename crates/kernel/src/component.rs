//! Simulation components and the timing-port protocol.
//!
//! A [`Component`] is the unit of modelling: a crossbar, a bridge, a PCIe
//! link, a disk. Components communicate exclusively through **ports** wired
//! together by [`Simulation::connect`](crate::sim::Simulation::connect).
//! The protocol mirrors gem5's timing ports:
//!
//! * a component sends a packet with
//!   [`Ctx::try_send_request`](crate::sim::Ctx::try_send_request) or
//!   [`Ctx::try_send_response`](crate::sim::Ctx::try_send_response); the
//!   peer's [`Component::recv_request`]/[`Component::recv_response`] runs
//!   immediately and either accepts the packet or **refuses** it
//!   ([`RecvResult::Refused`]), modelling full buffers — the refused packet
//!   comes straight back to the sender as `Err(pkt)`;
//! * a refused sender holds the packet and waits;
//! * when the busy receiver frees space it calls
//!   [`Ctx::send_retry`](crate::sim::Ctx::send_retry), which delivers
//!   [`Component::retry_granted`] to the stalled peer so it can resend.
//!
//! This refusal/retry handshake is what lets the PCI-Express model exhibit
//! the paper's congestion behaviour (filled switch buffers → unacknowledged
//! TLPs → replay timeouts).
//!
//! Receive handlers run nested inside the sender's call, so a receiver must
//! never synchronously send back toward the component that is calling it —
//! schedule a zero-delay [`Event`] instead. The kernel panics on such
//! re-entrancy rather than deadlocking silently.

use std::fmt;

use crate::packet::Packet;
use crate::sim::Ctx;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};
use crate::stats::StatsBuilder;
use crate::tick::Tick;

/// Identifies a component within a [`Simulation`](crate::sim::Simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies a port local to one component. Port numbering is a private
/// convention of each component (e.g. "port 0 is the PIO port").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Outcome of delivering a packet to a component port.
#[derive(Debug)]
pub enum RecvResult {
    /// The packet was accepted; the receiver now owns it.
    Accepted,
    /// The receiver has no buffer space; the packet is handed back to the
    /// sender, which must hold it until [`Component::retry_granted`].
    Refused(Packet),
}

/// A self-scheduled occurrence delivered back to the component that
/// scheduled it.
#[derive(Debug)]
pub enum Event {
    /// A plain timer. `kind` and `data` are private conventions of the
    /// scheduling component (e.g. "kind 2 = replay timeout").
    Timer {
        /// Component-private discriminator.
        kind: u32,
        /// Component-private argument.
        data: u64,
    },
    /// A packet the component handed to itself for later processing, e.g. a
    /// crossbar modelling its forward latency. `tag` disambiguates multiple
    /// uses within one component.
    DelayedPacket {
        /// Component-private discriminator.
        tag: u32,
        /// The packet being delayed.
        pkt: Packet,
    },
    /// A delayed packet that also carries an origin timestamp — used by the
    /// link layer to ship a TLP's admission tick along the wire, so the
    /// receiving end can attribute delivery latency without reaching into
    /// the transmitting end's state.
    StampedPacket {
        /// Component-private discriminator.
        tag: u32,
        /// The tick the origin stamped on the packet (e.g. link admission).
        stamp: Tick,
        /// The packet being delayed.
        pkt: Packet,
    },
}

/// A simulation model: reacts to packets arriving on its ports and to its
/// own timers. All methods receive a [`Ctx`] for scheduling and sending.
pub trait Component {
    /// Human-readable instance name used in statistics and traces.
    fn name(&self) -> &str;

    /// Called once at the start of simulation, before any event runs.
    fn init(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Handles a self-scheduled [`Event`].
    fn handle(&mut self, _ctx: &mut Ctx<'_>, _ev: Event) {
        panic!("{}: received unexpected event", self.name());
    }

    /// A request packet arrives on `port`. Runs nested inside the sender's
    /// `try_send_request`; do not send back toward the caller from here.
    fn recv_request(&mut self, _ctx: &mut Ctx<'_>, port: PortId, _pkt: Packet) -> RecvResult {
        panic!("{}: unexpected request on {port}", self.name());
    }

    /// A response packet arrives on `port`. Same nesting rule as
    /// [`Component::recv_request`].
    fn recv_response(&mut self, _ctx: &mut Ctx<'_>, port: PortId, _pkt: Packet) -> RecvResult {
        panic!("{}: unexpected response on {port}", self.name());
    }

    /// The peer on `port` has freed buffer space; a previously refused send
    /// may now be repeated.
    fn retry_granted(&mut self, _ctx: &mut Ctx<'_>, _port: PortId) {}

    /// Reports statistics into `out`. Called after the simulation stops.
    fn report_stats(&self, _out: &mut StatsBuilder) {}

    /// Appends this component's dynamic state to a checkpoint. Stateless
    /// components keep the default (write nothing). Stateful components
    /// must save every field that evolves with simulated time — and only
    /// those: configuration belongs to the freshly built tree a checkpoint
    /// is restored into, not to the checkpoint.
    fn save_state(&self, _w: &mut StateWriter) {}

    /// Overwrites this component's dynamic state from a checkpoint,
    /// consuming exactly the bytes [`Component::save_state`] wrote. The
    /// default matches the stateless default of `save_state`.
    fn restore_state(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Bare;
    impl Component for Bare {
        fn name(&self) -> &str {
            "bare"
        }
    }

    #[test]
    fn ids_format_compactly() {
        assert_eq!(ComponentId(4).to_string(), "c4");
        assert_eq!(PortId(2).to_string(), "p2");
    }

    #[test]
    fn trait_objects_are_usable() {
        let c: Box<dyn Component> = Box::new(Bare);
        assert_eq!(c.name(), "bare");
    }
}
