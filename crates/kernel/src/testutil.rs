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
use std::ops::Range;
use std::rc::Rc;

use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::{Command, Packet, PacketId};
use crate::queue::{Sent, TimedQueue};
use crate::sim::Ctx;
use crate::snapshot::{fnv1a, SnapshotError, State, StateReader, StateWriter, FNV_OFFSET};
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
    /// The next request, held until the peer accepts it.
    lane: TimedQueue,
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
                lane: TimedQueue::unbounded(),
                completions: completions.clone(),
            },
            completions,
        )
    }

    /// Sends the refused request, then the rest of the script, until the
    /// peer refuses one.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            if self.lane.is_empty() {
                let Some((cmd, addr, size)) = self.script.pop_front() else { return };
                let id = ctx.alloc_packet_id();
                let mut pkt = Packet::request(id, cmd, addr, size, ctx.self_id());
                if cmd.is_write() || cmd == Command::Message {
                    pkt = pkt.with_payload(vec![0; size as usize]);
                }
                self.lane.push(pkt);
            }
            let id = self.lane.front().expect("the lane holds the next request").id();
            match self.lane.send_head(ctx, REQUESTER_PORT) {
                Some(Sent::Posted) => self.completions.borrow_mut().push((id, ctx.now())),
                Some(_) => {}
                None => return,
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
        self.lane.unblock();
        self.pump(ctx);
    }

    crate::state_fields!(component self;
        // The script is configuration; what evolves is how much of it is
        // left, so a load drops the prefix already issued.
        save(w) {
            w.usize(self.script.len());
        }
        load(r) {
            let left = r.usize()?;
            let issued = self.script.len().checked_sub(left).ok_or_else(|| {
                SnapshotError::Corrupt(format!(
                    "{left} requests left of a {}-entry script",
                    self.script.len()
                ))
            })?;
            self.script.drain(..issued);
        },
        lane,
    );
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

    crate::state_fields!(component self; blocked);
}

/// Checks a [`State`] codec against hostile bytes: save → load → save is
/// byte-identical, every strict prefix of the saved bytes is an error, and
/// every single-bit flip loads as `Ok` or `Err` without panicking. `fresh`
/// builds the value a checkpoint is loaded into — the shape the build
/// owns.
///
/// # Panics
///
/// Panics when any of the three properties fails.
pub fn check_state_codec<T: State>(value: &T, fresh: impl Fn() -> T) {
    let mut w = StateWriter::new();
    value.save(&mut w);
    let bytes = w.into_bytes();
    let load = |b: &[u8]| -> Result<T, SnapshotError> {
        let mut r = StateReader::new(b);
        let mut v = fresh();
        v.load(&mut r)?;
        r.finish("codec")?;
        Ok(v)
    };
    let back = load(&bytes).expect("intact state loads");
    let mut again = StateWriter::new();
    back.save(&mut again);
    assert_eq!(again.into_bytes(), bytes, "save/load/save is byte-identical");
    for len in 0..bytes.len() {
        assert!(
            load(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes must be rejected",
            bytes.len()
        );
    }
    for bit in 0..bytes.len() * 8 {
        let mut bad = bytes.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let _ = load(&bad);
    }
}

/// The byte range of each component's section in `checkpoint`, in id
/// order, given the tree's component names in id order (a drained
/// [`TraceLog`](crate::trace::TraceLog)'s `names`): the body ends with the
/// component count, then each name and state, length-prefixed.
///
/// # Panics
///
/// Panics when the sections do not end the checkpoint.
pub fn checkpoint_sections(checkpoint: &[u8], names: &[String]) -> Vec<Range<usize>> {
    let le = |n: usize| (n as u64).to_le_bytes();
    let mut key = le(names.len()).to_vec();
    key.extend(le(names[0].len()));
    key.extend(names[0].as_bytes());
    let found = checkpoint.windows(key.len()).position(|w| w == key);
    let mut at = found.expect("component sections") + 8;
    let mut sections = Vec::with_capacity(names.len());
    for name in names {
        at += 8 + name.len();
        let len = u64::from_le_bytes(checkpoint[at..at + 8].try_into().expect("8 bytes"));
        sections.push(at + 8..at + 8 + len as usize);
        at += 8 + len as usize;
    }
    assert_eq!(at, checkpoint.len(), "the sections end the checkpoint");
    sections
}

/// Re-seals `checkpoint`'s header checksum (magic | version | FNV-1a of
/// the body) after a test edited the body, so the edit reaches the
/// component decoders instead of the checksum gate.
pub fn reseal(checkpoint: &mut [u8]) {
    let sum = fnv1a(FNV_OFFSET, &checkpoint[16..]);
    checkpoint[8..16].copy_from_slice(&sum.to_le_bytes());
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
