//! The MMIO register access every endpoint serves BAR0 through.
//!
//! [`serve`] turns one request TLP into one call of the device's dword
//! register accessors and marshals the completion; the device sends that
//! completion down a [`TimedQueue`](pcisim_kernel::queue::TimedQueue)'s
//! delay pipe for its PIO latency, and the queue follows the refusal/retry
//! protocol when the fabric pushes back.

use pcisim_kernel::component::Component;
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::sim::Ctx;

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
/// returns the completion to send after the PIO latency. `read`
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
            write(dev, ctx, offset, pkt.dword());
            pkt.into_response()
        }
        other => panic!("{}: unexpected PIO command {other:?}", dev.name()),
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use pcisim_kernel::component::{Event, PortId, RecvResult};
    use pcisim_kernel::queue::TimedQueue;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::tick::ns;

    use super::*;
    use crate::testkit::Guest;

    const BAR0: u64 = 0x4000_0000;

    /// Sixteen dword registers answering after 50 ns.
    struct Regs {
        regs: [u32; 16],
        pio: TimedQueue,
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
            assert_eq!(port, PortId(0));
            let resp = serve(self, ctx, BAR0, 64, pkt, Self::reg_read, Self::reg_write);
            self.pio.delay(ctx, ns(50), 0, resp);
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { pkt, .. } = ev else { panic!("regs: {ev:?}") };
            self.pio.arrive(pkt);
            self.pio.flush(ctx, PortId(0));
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
            self.pio.unblock();
            self.pio.flush(ctx, port);
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
        let pio = TimedQueue::unbounded();
        let r = sim.add(Box::new(Regs { regs: [0; 16], pio, seen: seen.clone() }));
        sim.connect((g, PortId(0)), (r, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*seen.borrow(), writes);
        assert!(sim.now() >= ns(50) + 2 * ns(300), "two refusals were waited out");
    }
}
