//! The buffered-port lane every fabric stage is built from (gem5's
//! `PacketQueue`/`QueuedPort`).
//!
//! A [`TimedQueue`] holds one lane of a component's traffic between
//! acceptance and hand-off to the peer: packets in the lane's delay pipe
//! (a scheduled `DelayedPacket` self-event that has not arrived yet),
//! packets queued for the peer in FIFO order, an optional capacity over
//! both, and the two halves of the refusal/retry handshake — "the peer
//! refused us, wait for its retry" and "we refused a sender, owe it a
//! retry". Components embed one per lane by value and keep their policy —
//! which lane drains first, what a send releases, whom a freed slot wakes;
//! the queue keeps the bookkeeping and its checkpoint encoding in one place.
//!
//! [`Waiters`] is the many-sender form of the owed retry: the ports a full
//! lane refused, in refusal order, each listed once.

use std::collections::VecDeque;

use crate::component::{Event, PortId, RecvResult};
use crate::packet::Packet;
use crate::sim::Ctx;
use crate::snapshot::{Bounded, SnapshotError, State};
use crate::tick::Tick;

/// What [`TimedQueue::send_head`] handed to the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    /// A posted request: nothing will come back for it.
    Posted,
    /// A non-posted request.
    Request,
    /// A response.
    Response,
}

/// One FIFO lane of a buffered port; see the [module docs](self).
#[derive(Debug)]
pub struct TimedQueue {
    queue: VecDeque<Packet>,
    /// Packets in the delay pipe, counted against the capacity.
    in_flight: usize,
    capacity: usize,
    /// Our send was refused; nothing leaves until the peer's retry.
    peer_blocked: bool,
    /// We refused a sender; it is owed a retry once there is room.
    owe_retry: bool,
}

impl Default for TimedQueue {
    fn default() -> Self {
        Self::unbounded()
    }
}

impl TimedQueue {
    /// A lane that is full once `capacity` packets are queued or in flight.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "a queue must hold at least one packet");
        Self { capacity, ..Self::unbounded() }
    }

    /// A lane that is never full (its component bounds admission itself).
    pub fn unbounded() -> Self {
        Self {
            queue: VecDeque::new(),
            in_flight: 0,
            capacity: usize::MAX,
            peer_blocked: false,
            owe_retry: false,
        }
    }

    /// Whether queued plus in-flight packets have reached the capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.held() >= self.capacity
    }

    /// Packets queued or in the delay pipe.
    #[inline]
    pub fn held(&self) -> usize {
        self.queue.len() + self.in_flight
    }

    /// Packets queued for the peer (the delay pipe excluded).
    #[inline]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no packet is queued for the peer.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The oldest queued packet.
    #[inline]
    pub fn front(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Takes the oldest queued packet without sending it.
    #[inline]
    pub fn pop(&mut self) -> Option<Packet> {
        self.queue.pop_front()
    }

    /// Queues `pkt` behind the others, bypassing the delay pipe and the
    /// capacity check.
    #[inline]
    pub fn push(&mut self, pkt: Packet) {
        self.queue.push_back(pkt);
    }

    /// Counts one packet into the delay pipe whose `DelayedPacket` the
    /// caller schedules itself.
    #[inline]
    pub fn reserve(&mut self) {
        self.in_flight += 1;
    }

    /// Sends `pkt` down the delay pipe: it comes back to the component as
    /// `Event::DelayedPacket { tag, pkt }` after `delay`, to be handed to
    /// [`Self::arrive`].
    #[inline]
    pub fn delay(&mut self, ctx: &mut Ctx<'_>, delay: Tick, tag: u32, pkt: Packet) {
        self.reserve();
        ctx.schedule(delay, Event::DelayedPacket { tag, pkt });
    }

    /// A packet left the delay pipe: queue it for the peer.
    #[inline]
    pub fn arrive(&mut self, pkt: Packet) {
        self.in_flight -= 1;
        self.queue.push_back(pkt);
    }

    /// Refuses `pkt` and remembers that its sender is owed a retry.
    #[inline]
    pub fn refuse(&mut self, pkt: Packet) -> RecvResult {
        self.owe_retry = true;
        RecvResult::Refused(pkt)
    }

    /// Grants the owed retry through `port` if there is room now.
    #[inline]
    pub fn grant_retry(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        if self.owe_retry && !self.is_full() {
            self.owe_retry = false;
            ctx.send_retry(port);
        }
    }

    /// One drain step: unless the peer is blocking us, sends the oldest
    /// packet out of `port` (as a request or a response, by its command)
    /// and says what left. A refused packet goes back to the head and the
    /// lane waits for the peer's retry; `None` also means the lane is empty.
    #[inline]
    pub fn send_head(&mut self, ctx: &mut Ctx<'_>, port: PortId) -> Option<Sent> {
        if self.peer_blocked {
            return None;
        }
        let pkt = self.queue.pop_front()?;
        let (sent, result) = if !pkt.is_request() {
            (Sent::Response, ctx.try_send_response(port, pkt))
        } else if pkt.is_posted() {
            (Sent::Posted, ctx.try_send_request(port, pkt))
        } else {
            (Sent::Request, ctx.try_send_request(port, pkt))
        };
        match result {
            Ok(()) => Some(sent),
            Err(back) => {
                self.queue.push_front(back);
                self.peer_blocked = true;
                None
            }
        }
    }

    /// Sends everything the peer accepts, with no per-packet policy.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        while self.send_head(ctx, port).is_some() {}
    }

    /// Whether a refused send is waiting for the peer's retry.
    #[inline]
    pub fn peer_blocked(&self) -> bool {
        self.peer_blocked
    }

    /// The peer granted its retry: sends may resume.
    #[inline]
    pub fn unblock(&mut self) {
        self.peer_blocked = false;
    }
}

/// The lane's dynamic state; the capacity is configuration.
impl State for TimedQueue {
    crate::state_fields!(state self; queue, in_flight, peer_blocked, owe_retry);
}

/// Checks a restored count of `taken` slots of a component that bounds
/// admission itself: at most `bound`, and at least the `held` packets in
/// its lanes, each of which keeps its slot until it leaves. Packets the
/// component holds only through the calendar are not visible here.
pub(crate) fn check_slots(
    name: &str,
    taken: usize,
    bound: usize,
    held: usize,
) -> Result<(), SnapshotError> {
    if taken > bound || taken < held {
        return Err(SnapshotError::Corrupt(format!(
            "{name}: {taken} outstanding, but its lanes hold {held} and the bound is {bound}"
        )));
    }
    Ok(())
}

/// Ports refused because a lane was full, in refusal order and each at
/// most once; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Waiters(Vec<PortId>);

impl Waiters {
    /// Records that `port` was refused (once, however often).
    #[inline]
    pub fn add(&mut self, port: PortId) {
        if !self.0.contains(&port) {
            self.0.push(port);
        }
    }

    /// Sends every waiter its retry, oldest first, and forgets them.
    #[inline]
    pub fn retry_all(&mut self, ctx: &mut Ctx<'_>) {
        for port in self.0.drain(..) {
            ctx.send_retry(port);
        }
    }

    /// Takes the waiters, oldest first, for a caller that wakes them some
    /// other way; new refusals collect afresh meanwhile.
    #[inline]
    pub fn take(&mut self) -> Vec<PortId> {
        std::mem::take(&mut self.0)
    }
}

impl State for Waiters {
    crate::state_fields!(state self; 0);
}

/// Every waiter is a port of the owning component.
impl Bounded for Waiters {
    fn within(&self, ports: &usize) -> bool {
        self.0.within(ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use crate::packet::{Command, PacketId};
    use crate::snapshot::{StateReader, StateWriter};
    use crate::testutil::check_state_codec;

    fn request(id: u64, cmd: Command) -> Packet {
        Packet::request(PacketId(id), cmd, 0x1000 * id, 64, ComponentId(1))
    }

    fn busy_lane() -> TimedQueue {
        let mut lane = TimedQueue::bounded(4);
        lane.push(request(1, Command::ReadReq));
        lane.push(request(2, Command::WriteReq).with_payload(vec![7; 64]).into_response());
        lane.reserve();
        lane.peer_blocked = true;
        lane.owe_retry = true;
        lane
    }

    #[test]
    fn capacity_counts_the_delay_pipe() {
        let mut lane = TimedQueue::bounded(2);
        lane.reserve();
        assert!(!lane.is_full());
        lane.push(request(1, Command::ReadReq));
        assert!(lane.is_full(), "one queued + one in flight fill a 2-deep lane");
        assert_eq!(lane.len(), 1);
        lane.arrive(request(2, Command::ReadReq));
        assert_eq!(lane.len(), 2);
        assert!(lane.is_full());
        assert!(!TimedQueue::unbounded().is_full());
    }

    #[test]
    fn lane_and_waiters_survive_the_hostile_bytes_check() {
        let mut waiters = Waiters::default();
        waiters.add(PortId(3));
        waiters.add(PortId(1));
        check_state_codec(&(busy_lane(), waiters), || {
            (TimedQueue::unbounded(), Waiters::default())
        });
    }

    #[test]
    fn waiters_dedupe_keep_refusal_order_and_reject_unknown_ports() {
        let mut waiters = Waiters::default();
        for p in [2, 0, 2, 1, 0] {
            waiters.add(PortId(p));
        }
        let mut w = StateWriter::new();
        waiters.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(waiters.take(), vec![PortId(2), PortId(0), PortId(1)]);
        assert!(waiters.take().is_empty());
        let mut fresh = Waiters::default();
        fresh.load(&mut StateReader::new(&bytes)).expect("intact state restores");
        assert!(fresh.within(&3), "ports 0..3 of a 3-port component");
        assert!(!fresh.within(&2), "port 2 of a 2-port component");
        assert_eq!(fresh.take(), vec![PortId(2), PortId(0), PortId(1)]);
    }
}
