//! Interrupt controller (a minimal GIC stand-in).
//!
//! PCI-Express conveys legacy INTx interrupts as posted **message** TLPs
//! that travel upstream to the root complex and on to the platform
//! interrupt controller. Devices in this workspace raise an interrupt by
//! sending a [`Command::Message`] packet to the controller's address
//! window, one word per interrupt line; the controller then forwards a
//! message out of the port registered for that line, waking the CPU-side
//! component (the workload models in `pcisim-system`).
//!
//! The same window doubles as the platform's **MSI/MSI-X doorbell**:
//! message-signaled interrupts arrive as ordinary [`Command::WriteReq`]
//! memory writes (one word per vector, like a GICv2m/ITS translator
//! frame), so they traverse the full fabric — links, switches, root
//! complex, memory bus — contending with DMA traffic and showing up in
//! traces with the same custody hops as any other TLP. A doorbell write
//! is completed with a normal write response; the vector number is the
//! word index, exactly as for legacy messages.

use std::collections::HashMap;

use pcisim_kernel::addr::AddrRange;
use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::stats::{Counter, StatsBuilder};

/// Port 0 receives interrupt messages from the fabric; ports 1.. are CPU
/// notification ports, assigned by [`InterruptController::route_irq`].
pub const INTC_FABRIC_PORT: PortId = PortId(0);

/// Computes the message address a device must target to raise `irq`.
pub fn irq_message_addr(base: u64, irq: u8) -> u64 {
    base + u64::from(irq) * 4
}

/// The interrupt controller component.
pub struct InterruptController {
    name: String,
    range: AddrRange,
    /// irq number → CPU notification port.
    routes: HashMap<u8, PortId>,
    next_port: u16,
    raised: Counter,
    spurious: Counter,
}

impl InterruptController {
    /// Creates a controller claiming `range` (one word per interrupt line).
    pub fn new(name: impl Into<String>, range: AddrRange) -> Self {
        Self {
            name: name.into(),
            range,
            routes: HashMap::new(),
            next_port: 1,
            raised: Counter::new(),
            spurious: Counter::new(),
        }
    }

    /// The address window this controller claims.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Registers a CPU notification port for `irq` and returns the port to
    /// wire to the observing component.
    ///
    /// # Panics
    ///
    /// Panics if the irq is already routed.
    pub fn route_irq(&mut self, irq: u8) -> PortId {
        assert!(!self.routes.contains_key(&irq), "{}: irq {irq} already routed", self.name);
        let port = PortId(self.next_port);
        self.next_port += 1;
        self.routes.insert(irq, port);
        port
    }
}

impl Component for InterruptController {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, INTC_FABRIC_PORT, "{}: interrupts arrive on the fabric port", self.name);
        let is_doorbell = pkt.cmd() == Command::WriteReq;
        assert!(
            is_doorbell || pkt.cmd() == Command::Message,
            "{}: expected an interrupt message or doorbell write, got {:?}",
            self.name,
            pkt.cmd()
        );
        assert!(self.range.contains(pkt.addr()));
        let irq = (self.range.offset(pkt.addr()) / 4) as u8;
        ctx.schedule(0, Event::Timer { kind: 0, data: u64::from(irq) });
        if is_doorbell {
            // Complete the memory write like any other completer would; the
            // in-flight response lives on the calendar queue, so no extra
            // component state needs checkpointing.
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt: pkt.into_response() });
        }
        RecvResult::Accepted
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        match ev {
            Event::Timer { data, .. } => {
                let irq = data as u8;
                match self.routes.get(&irq) {
                    Some(&cpu_port) => {
                        self.raised.inc();
                        let id = ctx.alloc_packet_id();
                        let addr = irq_message_addr(self.range.start(), irq);
                        let msg = Packet::request(id, Command::Message, addr, 4, ctx.self_id())
                            .with_payload(vec![0; 4]);
                        // CPU-side observers must always accept interrupt
                        // wakeups.
                        ctx.try_send_request(cpu_port, msg).unwrap_or_else(|_| {
                            panic!("{}: CPU port refused an interrupt", self.name)
                        });
                    }
                    None => self.spurious.inc(),
                }
            }
            Event::DelayedPacket { pkt, .. } => {
                // A refused completion retries after a short backoff rather
                // than holding component state.
                if let Err(back) = ctx.try_send_response(INTC_FABRIC_PORT, pkt) {
                    ctx.schedule(10, Event::DelayedPacket { tag: 0, pkt: back });
                }
            }
        }
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("raised", &self.raised);
        out.counter("spurious", &self.spurious);
    }

    // The irq routing table is wired at build time; only counters are
    // dynamic.
    pcisim_kernel::state_fields!(component self; raised, spurious);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::{Requester, REQUESTER_PORT};
    use std::cell::RefCell;
    use std::rc::Rc;

    const BASE: u64 = 0x2c00_0000;

    struct IrqObserver {
        name: String,
        fired: Rc<RefCell<Vec<u64>>>,
    }
    impl Component for IrqObserver {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            self.fired.borrow_mut().push(ctx.now());
            assert_eq!(pkt.cmd(), Command::Message);
            RecvResult::Accepted
        }
    }

    #[test]
    fn message_to_routed_irq_wakes_observer() {
        let mut sim = Simulation::new();
        let mut intc = InterruptController::new("gic", AddrRange::with_size(BASE, 0x1000));
        let cpu_port = intc.route_irq(32);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let (req, _) =
            Requester::new("dev", vec![(Command::Message, irq_message_addr(BASE, 32), 4)]);
        let r = sim.add(Box::new(req));
        let g = sim.add(Box::new(intc));
        let o = sim.add(Box::new(IrqObserver { name: "cpu".into(), fired: fired.clone() }));
        sim.connect((r, REQUESTER_PORT), (g, INTC_FABRIC_PORT));
        sim.connect((g, cpu_port), (o, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(fired.borrow().len(), 1);
        assert_eq!(sim.stats().get("gic.raised"), Some(1.0));
    }

    #[test]
    fn doorbell_write_raises_vector_and_is_completed() {
        let mut sim = Simulation::new();
        let mut intc = InterruptController::new("gic", AddrRange::with_size(BASE, 0x1000));
        let cpu_port = intc.route_irq(96);
        let fired = Rc::new(RefCell::new(Vec::new()));
        // An MSI doorbell is an ordinary posted memory write to the
        // vector's word — and unlike a Message it gets a completion.
        let (req, done) =
            Requester::new("dev", vec![(Command::WriteReq, irq_message_addr(BASE, 96), 4)]);
        let r = sim.add(Box::new(req));
        let g = sim.add(Box::new(intc));
        let o = sim.add(Box::new(IrqObserver { name: "cpu".into(), fired: fired.clone() }));
        sim.connect((r, REQUESTER_PORT), (g, INTC_FABRIC_PORT));
        sim.connect((g, cpu_port), (o, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(fired.borrow().len(), 1, "doorbell must wake the observer");
        assert_eq!(done.borrow().len(), 1, "doorbell write must be completed");
        assert_eq!(sim.stats().get("gic.raised"), Some(1.0));
    }

    #[test]
    fn unrouted_irq_counts_spurious() {
        let mut sim = Simulation::new();
        let intc = InterruptController::new("gic", AddrRange::with_size(BASE, 0x1000));
        let (req, _) =
            Requester::new("dev", vec![(Command::Message, irq_message_addr(BASE, 7), 4)]);
        let r = sim.add(Box::new(req));
        let g = sim.add(Box::new(intc));
        sim.connect((r, REQUESTER_PORT), (g, INTC_FABRIC_PORT));
        sim.run_to_quiesce();
        assert_eq!(sim.stats().get("gic.spurious"), Some(1.0));
        assert_eq!(sim.stats().get("gic.raised"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "already routed")]
    fn double_route_panics() {
        let mut intc = InterruptController::new("gic", AddrRange::with_size(BASE, 0x1000));
        intc.route_irq(5);
        intc.route_irq(5);
    }

    #[test]
    fn irq_address_arithmetic() {
        assert_eq!(irq_message_addr(BASE, 0), BASE);
        assert_eq!(irq_message_addr(BASE, 33), BASE + 132);
    }
}
