//! CPU-side workload models and the one surface that attaches them.
//!
//! Every workload is a configuration type implementing [`Workload`]: given
//! the endpoint it should drive, it returns the component, the wires from
//! the component's ports to the platform, and the report handle. The
//! system's generic [`attach`](crate::topology::TopologySystem::attach) does the
//! rest, so the decision "how is this driver wired to an endpoint" lives
//! in exactly one body per workload.
//!
//! Every workload sends its requests through one unbounded
//! [`TimedQueue`](pcisim_kernel::queue::TimedQueue) lane: a send is `push`
//! then `flush` out of the memory port, so a request the fabric refuses
//! waits for the retry grant and every later one queues behind it, in
//! order. Register accesses are built by `mmio_write` and `mmio_read`.

use pcisim_kernel::component::{Component, ComponentId, PortId};
use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::sim::Ctx;

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

    /// Builds the component named `{prefix}{index}` from the
    /// configuration and the values `ep` decides (BAR, DMA target,
    /// windows), with its wires to `ep`'s reserved CPU-side ports.
    fn instantiate(self, index: usize, ep: &EndpointHandle) -> Attached<Self::Report>;
}

/// A 4-byte register write of `value` to `addr`, issued by the calling
/// component.
pub(crate) fn mmio_write(ctx: &mut Ctx<'_>, addr: u64, value: u32) -> Packet {
    let id = ctx.alloc_packet_id();
    Packet::request(id, Command::WriteReq, addr, 4, ctx.self_id())
        .with_payload(value.to_le_bytes().to_vec())
}

/// A 4-byte register read of `addr`, issued by the calling component.
pub(crate) fn mmio_read(ctx: &mut Ctx<'_>, addr: u64) -> Packet {
    let id = ctx.alloc_packet_id();
    Packet::request(id, Command::ReadReq, addr, 4, ctx.self_id())
}

#[cfg(test)]
pub(crate) mod testpeer {
    //! A register target scripted to refuse chosen requests, for the
    //! workloads' refusal tests.

    use std::cell::RefCell;
    use std::rc::Rc;

    use pcisim_devices::intc::{InterruptController, INTC_FABRIC_PORT};
    use pcisim_kernel::addr::AddrRange;
    use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
    use pcisim_kernel::packet::{Command, Packet};
    use pcisim_kernel::queue::TimedQueue;
    use pcisim_kernel::sim::{Ctx, Simulation};
    use pcisim_kernel::tick::{ns, Tick};

    const MEM_PORT: PortId = PortId(0);
    const IRQ_PORT: PortId = PortId(1);
    const K_RETRY: u32 = 0;
    const K_IRQ: u32 = 1;
    const RETRY_AFTER: Tick = ns(100);
    const LATENCY: Tick = ns(20);
    /// The interrupt controller's window; interrupt 0 is its first word.
    const INTC_BASE: u64 = 0x2c00_0000;

    /// Accepted requests in arrival order: command, address, write data.
    pub(crate) type AcceptLog = Rc<RefCell<Vec<(Command, u64, u32)>>>;

    /// Counts the requests offered to it from 0, refused ones included.
    /// Offer `n` raises interrupt 0 (from a zero-delay event) when `irq_on`
    /// holds `n`, and is refused when `refuse` holds `n`; the retry follows
    /// `RETRY_AFTER` later. Accepted requests are logged and answered after
    /// `LATENCY`; reads return 0.
    struct ScriptedPeer {
        refuse: Vec<usize>,
        irq_on: Vec<usize>,
        offers: usize,
        log: AcceptLog,
        resp: TimedQueue,
    }

    /// Wires `app`'s `mem` port to a [`ScriptedPeer`] and its `irq` port to
    /// interrupt 0 of a controller the peer raises it through, so the
    /// workload answers an interrupt from outside the peer's dispatch.
    pub(crate) fn rig(
        app: impl Component + 'static,
        (mem, irq): (PortId, PortId),
        refuse: Vec<usize>,
        irq_on: Vec<usize>,
    ) -> (Simulation, AcceptLog) {
        let mut sim = Simulation::new();
        let log = AcceptLog::default();
        let peer = ScriptedPeer {
            refuse,
            irq_on,
            offers: 0,
            log: log.clone(),
            resp: TimedQueue::unbounded(),
        };
        let mut intc = InterruptController::new("gic", AddrRange::with_size(INTC_BASE, 0x1000));
        let cpu_irq = intc.route_irq(0);
        let app = sim.add(Box::new(app));
        let peer = sim.add(Box::new(peer));
        let intc = sim.add(Box::new(intc));
        sim.connect((app, mem), (peer, MEM_PORT));
        sim.connect((peer, IRQ_PORT), (intc, INTC_FABRIC_PORT));
        sim.connect((intc, cpu_irq), (app, irq));
        (sim, log)
    }

    impl Component for ScriptedPeer {
        fn name(&self) -> &str {
            "peer"
        }

        fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
            assert_eq!(port, MEM_PORT);
            let n = self.offers;
            self.offers += 1;
            if self.irq_on.contains(&n) {
                ctx.schedule(0, Event::Timer { kind: K_IRQ, data: 0 });
            }
            if self.refuse.contains(&n) {
                ctx.schedule(RETRY_AFTER, Event::Timer { kind: K_RETRY, data: 0 });
                return RecvResult::Refused(pkt);
            }
            self.log.borrow_mut().push((pkt.cmd(), pkt.addr(), pkt.dword()));
            let resp = if pkt.cmd().is_read() {
                pkt.into_read_response(vec![0; 4])
            } else {
                pkt.into_response()
            };
            self.resp.delay(ctx, LATENCY, 0, resp);
            RecvResult::Accepted
        }

        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Timer { kind: K_RETRY, .. } => ctx.send_retry(MEM_PORT),
                Event::Timer { kind: K_IRQ, .. } => {
                    let id = ctx.alloc_packet_id();
                    let irq = Packet::request(id, Command::Message, INTC_BASE, 4, ctx.self_id())
                        .with_payload(vec![0; 4]);
                    ctx.try_send_request(IRQ_PORT, irq).expect("the controller takes interrupts");
                }
                Event::DelayedPacket { pkt, .. } => {
                    self.resp.arrive(pkt);
                    self.resp.flush(ctx, MEM_PORT);
                }
                other => panic!("peer: unexpected event {other:?}"),
            }
        }
    }
}
