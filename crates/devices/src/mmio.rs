//! The MMIO register port every endpoint serves BAR0 through.
//!
//! [`serve`] turns one request TLP into one call of the device's dword
//! register accessors and marshals the completion; [`RegisterPort`] sends
//! that completion after the device's PIO latency and follows the
//! refusal/retry protocol when the fabric pushes back.

use std::collections::VecDeque;

use pcisim_kernel::component::{Component, Event, PortId};
use pcisim_kernel::packet::{decode_packet_queue, encode_packet_queue, Command, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{SnapshotError, StateReader, StateWriter};
use pcisim_kernel::tick::Tick;

/// Replaces the low half of a 64-bit register.
pub(crate) fn set_lo32(reg: &mut u64, value: u32) {
    *reg = (*reg & !0xffff_ffff) | u64::from(value);
}

/// Replaces the high half of a 64-bit register.
pub(crate) fn set_hi32(reg: &mut u64, value: u32) {
    *reg = (*reg & 0xffff_ffff) | (u64::from(value) << 32);
}

/// Decodes `pkt` against the BAR at `base` (`size` bytes), runs the
/// device's register accessor — registers are little-endian dwords;
/// narrower accesses see the low bytes, wider ones zero-extend — and
/// returns the completion to hand to [`RegisterPort::respond`]. `read`
/// and `write` are the device's own `reg_read`/`reg_write`, monomorphised
/// in, so the MMIO path has no indirect call.
///
/// # Panics
///
/// Panics on an access outside the BAR or a non-memory command: the
/// fabric routed something here that enumeration never mapped.
pub(crate) fn serve<D: Component>(
    dev: &mut D,
    ctx: &mut Ctx<'_>,
    base: u64,
    size: u64,
    pkt: Packet,
    read: impl FnOnce(&mut D, u64) -> u32,
    write: impl FnOnce(&mut D, &mut Ctx<'_>, u64, u32),
) -> Packet {
    let offset = pkt.addr().wrapping_sub(base);
    assert!(offset < size, "{}: access outside BAR0 at {:#x}", dev.name(), pkt.addr());
    match pkt.cmd() {
        Command::ReadReq => {
            let value = read(dev, offset);
            let mut data = vec![0u8; pkt.size() as usize];
            let n = data.len().min(4);
            data[..n].copy_from_slice(&value.to_le_bytes()[..n]);
            pkt.into_read_response(data)
        }
        Command::WriteReq => {
            let mut b = [0u8; 4];
            if let Some(p) = pkt.payload() {
                let n = p.len().min(4);
                b[..n].copy_from_slice(&p[..n]);
            }
            write(dev, ctx, offset, u32::from_le_bytes(b));
            pkt.into_response()
        }
        other => panic!("{}: unexpected PIO command {other:?}", dev.name()),
    }
}

/// The slave port's response side: delayed completions, the blocked
/// queue, and its retry.
pub(crate) struct RegisterPort {
    port: PortId,
    /// `Event::DelayedPacket` tag the device routes back to
    /// [`Self::deliver`].
    tag: u32,
    latency: Tick,
    waiting: bool,
    blocked: VecDeque<Packet>,
}

impl RegisterPort {
    /// Creates the port; completions leave `latency` after the access.
    pub fn new(port: PortId, tag: u32, latency: Tick) -> Self {
        Self { port, tag, latency, waiting: false, blocked: VecDeque::new() }
    }

    /// Schedules a completion built by [`serve`]. `port` is where the
    /// request arrived.
    pub fn respond(&self, ctx: &mut Ctx<'_>, port: PortId, resp: Packet) {
        assert_eq!(port, self.port, "MMIO arrives on the PIO port");
        ctx.schedule(self.latency, Event::DelayedPacket { tag: self.tag, pkt: resp });
    }

    /// The delayed completion is due: send it, in order.
    pub fn deliver(&mut self, ctx: &mut Ctx<'_>, resp: Packet) {
        self.blocked.push_back(resp);
        self.flush_pio(ctx);
    }

    /// The device's `retry_granted` for the PIO port.
    pub fn retry(&mut self, ctx: &mut Ctx<'_>) {
        self.waiting = false;
        self.flush_pio(ctx);
    }

    fn flush_pio(&mut self, ctx: &mut Ctx<'_>) {
        while !self.waiting {
            let Some(pkt) = self.blocked.pop_front() else { return };
            if let Err(back) = ctx.try_send_response(self.port, pkt) {
                self.blocked.push_front(back);
                self.waiting = true;
            }
        }
    }

    /// Serializes the blocked queue.
    pub fn save(&self, w: &mut StateWriter) {
        w.bool(self.waiting);
        encode_packet_queue(w, &self.blocked);
    }

    /// Restores what [`Self::save`] wrote.
    pub fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.waiting = r.bool()?;
        self.blocked = decode_packet_queue(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use pcisim_kernel::component::{ComponentId, RecvResult};
    use pcisim_kernel::packet::PacketId;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::tick::ns;

    use super::*;
    use crate::testkit::Guest;

    const BAR0: u64 = 0x4000_0000;

    /// Sixteen dword registers behind a [`RegisterPort`].
    struct Regs {
        regs: [u32; 16],
        pio: RegisterPort,
        seen: Rc<RefCell<Vec<(u64, u32)>>>,
    }

    impl Regs {
        fn reg_read(&mut self, offset: u64) -> u32 {
            self.regs[(offset / 4) as usize]
        }
        fn reg_write(&mut self, _ctx: &mut Ctx<'_>, offset: u64, value: u32) {
            self.seen.borrow_mut().push((offset, value));
            self.regs[(offset / 4) as usize] = value;
        }
    }

    impl Component for Regs {
        fn name(&self) -> &str {
            "regs"
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
            let resp = serve(self, ctx, BAR0, 64, pkt, Self::reg_read, Self::reg_write);
            self.pio.respond(ctx, port, resp);
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { pkt, .. } = ev else { panic!("regs: {ev:?}") };
            self.pio.deliver(ctx, pkt);
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.pio.retry(ctx);
        }
    }

    fn request(cmd: Command, offset: u64, size: u32, payload: Option<Vec<u8>>) -> Packet {
        let pkt = Packet::request(PacketId(1), cmd, BAR0 + offset, size, ComponentId(0));
        match payload {
            Some(p) => pkt.with_payload(p),
            None => pkt,
        }
    }

    #[test]
    fn half_register_helpers_leave_the_other_half() {
        let mut reg = 0x1111_2222_3333_4444;
        set_lo32(&mut reg, 0xaaaa_bbbb);
        assert_eq!(reg, 0x1111_2222_aaaa_bbbb);
        set_hi32(&mut reg, 0xcccc_dddd);
        assert_eq!(reg, 0xcccc_dddd_aaaa_bbbb);
    }

    #[test]
    fn blocked_responses_leave_in_order_after_the_retry() {
        // The guest refuses the first two completions it is offered; all
        // five writes must still complete, in order, and the register
        // file must have seen them in order.
        let seen = Rc::new(RefCell::new(Vec::new()));
        let writes: Vec<(u64, u32)> = (0..5).map(|i| (i * 4, 0x100 + i as u32)).collect();
        let mut guest = Guest::new(BAR0, writes.clone());
        guest.refuse_responses = 2;
        let mut sim = Simulation::new();
        let g = sim.add(Box::new(guest));
        let pio = RegisterPort::new(PortId(0), 0, ns(50));
        let r = sim.add(Box::new(Regs { regs: [0; 16], pio, seen: seen.clone() }));
        sim.connect((g, PortId(0)), (r, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*seen.borrow(), writes);
        assert!(sim.now() >= ns(50) + 2 * ns(300), "two refusals were waited out");
    }

    #[test]
    fn port_state_round_trips_and_rejects_truncation() {
        let mut port = RegisterPort::new(PortId(0), 0, ns(50));
        port.waiting = true;
        port.blocked
            .push_back(request(Command::WriteReq, 8, 4, Some(vec![1, 2, 3, 4])).into_response());
        port.blocked
            .push_back(request(Command::ReadReq, 12, 4, None).into_read_response(vec![9; 4]));
        let mut w = StateWriter::new();
        port.save(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = RegisterPort::new(PortId(0), 0, ns(50));
        fresh.restore(&mut StateReader::new(&bytes)).expect("intact state restores");
        assert!(fresh.waiting);
        assert_eq!(fresh.blocked, port.blocked);
        for len in 0..bytes.len() {
            assert!(fresh.restore(&mut StateReader::new(&bytes[..len])).is_err(), "prefix {len}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let _ = fresh.restore(&mut StateReader::new(&bad));
        }
    }
}
