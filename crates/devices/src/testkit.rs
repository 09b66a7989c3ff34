//! Test fixtures shared by the building-block tests and the
//! cross-device tables: a fabric stub that pushes back, errors and
//! remembers what it was offered, and a scripted MMIO guest. Both
//! checkpoint their state, so a whole test simulation can be cut and
//! resumed at any event.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, CompletionStatus, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{StateReader, StateWriter};
use pcisim_kernel::testutil::{checkpoint_sections, reseal};
use pcisim_kernel::tick::{ns, Tick};

/// The single port of a [`Gate`].
pub(crate) const GATE_PORT: PortId = PortId(0);

/// Requests a [`Gate`] accepted, in acceptance order: `(command, address)`.
pub(crate) type GateLog = Rc<RefCell<Vec<(Command, u64)>>>;

/// What the DMA port of a device under test is wired to: a functional
/// memory that serves at most `capacity` requests at a time — anything
/// beyond is refused and retried when a slot frees up — and completes
/// non-posted ones with `status`.
pub(crate) struct Gate {
    pub latency: Tick,
    pub capacity: usize,
    pub status: CompletionStatus,
    pub mem: BTreeMap<u64, u8>,
    pub log: GateLog,
    /// Offers turned away, in order.
    pub refusals: GateLog,
    in_service: usize,
    refused: bool,
}

impl Gate {
    pub fn new(latency: Tick, capacity: usize) -> Self {
        Self {
            latency,
            capacity,
            status: CompletionStatus::SuccessfulCompletion,
            mem: BTreeMap::new(),
            log: GateLog::default(),
            refusals: GateLog::default(),
            in_service: 0,
            refused: false,
        }
    }

    pub fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.mem.insert(addr + i as u64, b);
        }
    }
}

impl Component for Gate {
    fn name(&self) -> &str {
        "mem"
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        if self.in_service >= self.capacity {
            self.refused = true;
            self.refusals.borrow_mut().push((pkt.cmd(), pkt.addr()));
            return RecvResult::Refused(pkt);
        }
        self.in_service += 1;
        self.log.borrow_mut().push((pkt.cmd(), pkt.addr()));
        ctx.schedule(self.latency, Event::DelayedPacket { tag: 0, pkt });
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { mut pkt, .. } = ev else { panic!("mem: unexpected timer") };
        self.in_service -= 1;
        if !pkt.is_posted() {
            let resp = if self.status.is_error() {
                pkt.into_error_response(self.status)
            } else if pkt.cmd() == Command::ReadReq {
                let data = (0..u64::from(pkt.size()))
                    .map(|i| self.mem.get(&(pkt.addr() + i)).copied().unwrap_or(0))
                    .collect();
                pkt.into_read_response(data)
            } else {
                let addr = pkt.addr();
                self.write(addr, &pkt.take_payload().unwrap_or_default());
                pkt.into_response()
            };
            ctx.try_send_response(GATE_PORT, resp).expect("devices accept completions");
        }
        if std::mem::take(&mut self.refused) {
            ctx.send_retry(GATE_PORT);
        }
    }

    pcisim_kernel::state_fields!(component self; in_service, refused);
}

/// Scripted guest: issues its 4-byte MMIO writes to `bar0 + offset` at
/// t = 0, then its 4-byte reads, and, to exercise a device's
/// blocked-response path, refuses the first `refuse_responses`
/// completions for 300 ns each.
pub(crate) struct Guest {
    pub bar0: u64,
    pub writes: Vec<(u64, u32)>,
    /// Offsets read after the writes.
    pub reads: Vec<u64>,
    /// The values the reads returned, in completion order.
    pub read_back: Rc<RefCell<Vec<u32>>>,
    pub refuse_responses: u32,
    sent: bool,
}

impl Guest {
    pub fn new(bar0: u64, writes: Vec<(u64, u32)>) -> Self {
        Self {
            bar0,
            writes,
            reads: Vec::new(),
            read_back: Rc::default(),
            refuse_responses: 0,
            sent: false,
        }
    }
}

impl Component for Guest {
    fn name(&self) -> &str {
        "guest"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) {
        ctx.schedule(0, Event::Timer { kind: 0, data: 0 });
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { kind: 0, .. } if !self.sent => {
                self.sent = true;
                for &(offset, value) in &self.writes {
                    let id = ctx.alloc_packet_id();
                    let addr = self.bar0 + offset;
                    let pkt = Packet::request(id, Command::WriteReq, addr, 4, ctx.self_id())
                        .with_payload(value.to_le_bytes().to_vec());
                    ctx.try_send_request(PortId(0), pkt).expect("devices accept MMIO");
                }
                for &offset in &self.reads {
                    let id = ctx.alloc_packet_id();
                    let pkt =
                        Packet::request(id, Command::ReadReq, self.bar0 + offset, 4, ctx.self_id());
                    ctx.try_send_request(PortId(0), pkt).expect("devices accept MMIO");
                }
            }
            Event::Timer { kind: 1, .. } => ctx.send_retry(PortId(0)),
            other => panic!("guest: unexpected {other:?}"),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
        if self.refuse_responses == 0 {
            if let Some(data) = pkt.payload().filter(|_| pkt.cmd() == Command::ReadResp) {
                let value = u32::from_le_bytes(data[..4].try_into().expect("4-byte read"));
                self.read_back.borrow_mut().push(value);
            }
            return RecvResult::Accepted;
        }
        self.refuse_responses -= 1;
        ctx.schedule(ns(300), Event::Timer { kind: 1, data: 0 });
        RecvResult::Refused(pkt)
    }

    pcisim_kernel::state_fields!(component self; refuse_responses, sent);
}

/// Rewrites component `name`'s section of checkpoint `snap` (`names`
/// are the tree's component names in id order): loads it into the
/// freshly built `dev`, lets `edit` change it (`None` when `edit` finds
/// nothing to change), saves it back in place and re-seals the checksum.
///
/// # Panics
///
/// Panics unless exactly one byte of the image moved.
pub(crate) fn patch_section<C: Component>(
    snap: &[u8],
    names: &[String],
    name: &str,
    mut dev: C,
    edit: impl Fn(&mut C) -> bool,
) -> Option<Vec<u8>> {
    let id = names.iter().position(|n| n == name).expect("named component");
    let section = checkpoint_sections(snap, names).swap_remove(id);
    dev.restore_state(&mut StateReader::new(&snap[section.clone()])).expect("intact section");
    if !edit(&mut dev) {
        return None;
    }
    let mut w = StateWriter::new();
    dev.save_state(&mut w);
    let mut out = snap.to_vec();
    out[section].copy_from_slice(&w.into_bytes());
    assert_eq!(out.iter().zip(snap).filter(|(a, b)| a != b).count(), 1, "one byte moves");
    reseal(&mut out);
    Some(out)
}
