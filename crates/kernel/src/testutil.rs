//! Reusable traffic-generation components for tests and examples.
//!
//! [`Requester`] pumps a scripted list of requests through a port as fast as
//! flow control allows and records completion times; [`Responder`] answers
//! every request after a fixed service delay. Both follow the kernel's
//! refusal/retry protocol, so they are safe to wire to any fabric component,
//! and both checkpoint their progress (the logs they share with the harness
//! are the harness's, not simulation state).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::{Command, Packet, PacketId};
use crate::queue::TimedQueue;
use crate::sim::Ctx;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};
use crate::tick::Tick;

/// Completion log shared between a [`Requester`] and the test harness:
/// `(packet id, completion tick)` in completion order.
pub type CompletionLog = Rc<RefCell<Vec<(PacketId, Tick)>>>;

/// Scripted request generator. Issues its requests in order, pipelining as
/// deep as the peer accepts; posted requests complete at send time.
#[derive(Debug)]
pub struct Requester {
    name: String,
    script: VecDeque<(Command, u64, u32)>,
    stalled: Option<Packet>,
    completions: CompletionLog,
}

/// The single port a [`Requester`] sends through.
pub const REQUESTER_PORT: PortId = PortId(0);

impl Requester {
    /// Creates a requester that will issue `script` (command, addr, size)
    /// triples; returns the component and its completion log.
    pub fn new(name: impl Into<String>, script: Vec<(Command, u64, u32)>) -> (Self, CompletionLog) {
        let completions: CompletionLog = Rc::new(RefCell::new(Vec::new()));
        (
            Self {
                name: name.into(),
                script: script.into(),
                stalled: None,
                completions: completions.clone(),
            },
            completions,
        )
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.stalled.is_none() {
            let Some((cmd, addr, size)) = self.script.pop_front() else { return };
            let id = ctx.alloc_packet_id();
            let mut pkt = Packet::request(id, cmd, addr, size, ctx.self_id());
            if cmd.is_write() || cmd == Command::Message {
                pkt = pkt.with_payload(vec![0; size as usize]);
            }
            let posted = pkt.is_posted();
            match ctx.try_send_request(REQUESTER_PORT, pkt) {
                Ok(()) => {
                    if posted {
                        self.completions.borrow_mut().push((id, ctx.now()));
                    }
                }
                Err(back) => {
                    self.stalled = Some(back);
                    return;
                }
            }
        }
    }
}

impl Component for Requester {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Event) {
        self.pump(ctx);
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        self.completions.borrow_mut().push((pkt.id(), ctx.now()));
        RecvResult::Accepted
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        if let Some(pkt) = self.stalled.take() {
            let posted = pkt.is_posted();
            let id = pkt.id();
            match ctx.try_send_request(REQUESTER_PORT, pkt) {
                Ok(()) => {
                    if posted {
                        self.completions.borrow_mut().push((id, ctx.now()));
                    }
                }
                Err(back) => {
                    self.stalled = Some(back);
                    return;
                }
            }
        }
        self.pump(ctx);
    }

    /// The script is configuration; what evolves is how much of it is left.
    fn save_state(&self, w: &mut StateWriter) {
        w.usize(self.script.len());
        w.bool(self.stalled.is_some());
        if let Some(pkt) = &self.stalled {
            pkt.encode(w);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let left = r.usize()?;
        let issued = self.script.len().checked_sub(left).ok_or_else(|| {
            SnapshotError::Corrupt(format!(
                "{left} requests left of a {}-entry script",
                self.script.len()
            ))
        })?;
        self.script.drain(..issued);
        self.stalled = if r.bool()? { Some(Packet::decode(r)?) } else { None };
        Ok(())
    }
}

/// Served-request counter shared between a [`Responder`] and the harness.
pub type ServeCount = Rc<RefCell<u32>>;

/// Answers every incoming request after a fixed service delay; unlimited
/// concurrency. Read responses carry zero-filled data.
#[derive(Debug)]
pub struct Responder {
    name: String,
    delay: Tick,
    served: ServeCount,
    blocked: TimedQueue,
}

/// The single port a [`Responder`] listens on.
pub const RESPONDER_PORT: PortId = PortId(0);

impl Responder {
    /// Creates a responder with the given service delay; returns the
    /// component and its served counter.
    pub fn new(name: impl Into<String>, delay: Tick) -> (Self, ServeCount) {
        let served: ServeCount = Rc::new(RefCell::new(0));
        (
            Self {
                name: name.into(),
                delay,
                served: served.clone(),
                blocked: TimedQueue::unbounded(),
            },
            served,
        )
    }
}

impl Component for Responder {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        ctx.schedule(self.delay, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { pkt, .. } = ev else {
            panic!("{}: unexpected timer", self.name)
        };
        *self.served.borrow_mut() += 1;
        if pkt.is_posted() {
            return;
        }
        let resp = if pkt.cmd().is_read() {
            let size = pkt.size() as usize;
            let data = vec![0; size];
            pkt.into_read_response(data)
        } else {
            pkt.into_response()
        };
        self.blocked.push(resp);
        self.blocked.flush(ctx, RESPONDER_PORT);
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.blocked.unblock();
        self.blocked.flush(ctx, RESPONDER_PORT);
    }

    fn save_state(&self, w: &mut StateWriter) {
        self.blocked.save(w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.blocked.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{RunOutcome, Simulation};
    use crate::tick::ns;

    #[test]
    fn requester_and_responder_direct_wire() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new(
            "gen",
            vec![(Command::ReadReq, 0x100, 4), (Command::WriteReq, 0x200, 8)],
        );
        let r = sim.add(Box::new(req));
        let (resp, served) = Responder::new("sink", ns(10));
        let s = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (s, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*served.borrow(), 2);
        let done = done.borrow();
        assert_eq!(done.len(), 2);
        // Pipelined: both issued at t=0, both complete at t=10ns.
        assert_eq!(done[0].1, ns(10));
        assert_eq!(done[1].1, ns(10));
    }

    #[test]
    fn posted_message_completes_at_send() {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", vec![(Command::Message, 0xfee0_0000, 4)]);
        let r = sim.add(Box::new(req));
        let (resp, served) = Responder::new("sink", ns(10));
        let s = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (s, RESPONDER_PORT));
        sim.run_to_quiesce();
        assert_eq!(done.borrow().len(), 1);
        assert_eq!(done.borrow()[0].1, 0);
        assert_eq!(*served.borrow(), 1);
    }
}
