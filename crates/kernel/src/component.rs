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
use crate::snapshot::{Bounded, SnapshotError, State, StateReader, StateWriter};
use crate::stats::StatsBuilder;

/// Identifies a component within a [`Simulation`](crate::sim::Simulation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId(pub u32);

impl State for ComponentId {
    crate::state_fields!(state self; 0);
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifies a port local to one component. Port numbering is a private
/// convention of each component (e.g. "port 0 is the PIO port").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl State for PortId {
    crate::state_fields!(state self; 0);
}

/// A port is an index into its component's port count.
impl Bounded for PortId {
    fn within(&self, ports: &usize) -> bool {
        self.0.within(ports)
    }
}

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
/// scheduled it: 16 bytes, so a calendar entry stays three words.
#[derive(Debug)]
pub enum Event {
    /// A timer. `kind` and `data` are private conventions of the
    /// scheduling component (e.g. "kind 2 = replay timeout"). A timer may
    /// also stand for a packet the component keeps in its own state: the
    /// link's TLP arrival names a sequence number and a packet id, and the
    /// transmitter's replay buffer holds the packet itself.
    Timer {
        /// Component-private discriminator.
        kind: u32,
        /// Component-private argument.
        data: u64,
    },
    /// A packet the component handed to itself for later processing, e.g. a
    /// crossbar modelling its forward latency; the event owns the packet
    /// until it fires. `tag` disambiguates multiple uses within one
    /// component.
    DelayedPacket {
        /// Component-private discriminator.
        tag: u32,
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

    /// Checks one restored, still-queued [`Event::Timer`] of this
    /// component against its restored state, so a checkpoint whose timer
    /// [`Component::handle`] would panic on fails restore instead. Called
    /// once per queued timer after every component's state has loaded.
    /// The default accepts.
    fn check_timer(&self, _kind: u32, _data: u64) -> Result<(), SnapshotError> {
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
