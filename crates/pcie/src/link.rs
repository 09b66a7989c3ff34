//! The PCI-Express link model (paper §V-C, Fig. 8).
//!
//! A [`PcieLink`] is two unidirectional links between an *upstream*
//! interface (toward the root complex) and a *downstream* interface (toward
//! a device or switch). Each interface exposes a master/slave port pair, so
//! the component has four kernel ports:
//!
//! ```text
//!            PORT_UP_SLAVE (0)   PORT_UP_MASTER (1)
//!                  │ req ↓              ↑ req (DMA)
//!            ┌─────┴──────────────────────┴─────┐
//!            │  upstream interface   (TX down)  │
//!            │   ║ downstream wire   upstream ║ │
//!            │  downstream interface (TX up)    │
//!            └─────┬──────────────────────┬─────┘
//!                  │ req ↓              ↑ req (DMA)
//!          PORT_DOWN_MASTER (2)   PORT_DOWN_SLAVE (3)
//! ```
//!
//! TLPs admitted from the attached ports get a sequence number and a
//! place in the replay buffer, and are serialized onto the wire with the
//! Table I overheads. Receivers check sequence numbers, deliver to the
//! attached port, and acknowledge — batched behind the ACK timer or
//! immediately.
//! Refused deliveries are dropped without advancing the receive sequence,
//! so the sender's replay timer recovers them, exactly the congestion
//! mechanism behind the paper's Figure 9(b)–(d).
//!
//! # Two ends, one protocol
//!
//! Internally the model is organized **per physical end**, not per
//! direction: [`LinkEnd`] owns the transmit side of its own wire and the
//! receive side of the peer's wire, and the two ends interact through the
//! wire-arrival events (a TLP's sequence number, or a DLLP) and through
//! the transmitter's replay buffer. [`PcieLink`] hosts both ends in one
//! component and routes each event back to the end that owns it. Each end
//! stamps its events from its own scheduling stream, so the same-tick
//! order of one end's events never depends on how much traffic the other
//! end carries.
//!
//! **The wire carries a sequence number; the buffer owns the TLP.** A
//! TLP's arrival event names only its sequence number (and packet id, for
//! trace records). The transmitter's [`ReplayBuffer`] keeps the one packet
//! from admission until the receiving end delivers it: an in-sequence
//! arrival *takes* it (with its admission tick, for the latency
//! histogram), and a refused delivery *puts it back*; corrupt and
//! out-of-sequence arrivals never touch it. No TLP is copied per
//! transmission. This is exact because the wire is FIFO: when a replay
//! arrives, every earlier transmission of its sequence number has arrived
//! already, and was either delivered (so the replay is a duplicate and is
//! dropped) or left the TLP in the buffer (refused and put back, corrupt,
//! or ahead of the receiver). The ACK that releases an entry is sent only
//! after its TLP was delivered.

use std::collections::VecDeque;

use pcisim_kernel::component::{Component, Event, PortId, RecvResult};
use pcisim_kernel::packet::{Packet, PacketId};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::{SnapshotError, State, StateReader, StateWriter};
use pcisim_kernel::state_fields;
use pcisim_kernel::stats::{Counter, Histogram, StatsBuilder};
use pcisim_kernel::tick::{to_ns, Tick};
use pcisim_kernel::trace::{TraceCategory, TraceKind};

use pcisim_pci::caps::aer_record_correctable;
use pcisim_pci::config::SharedConfigSpace;
use pcisim_pci::regs::aer::cor;

use crate::ack_nak::{
    ack_timeout, replay_timeout, seq_le, seq_prev, ReplayBuffer, RxState, SEQ_MODULUS,
};
use crate::params::LinkConfig;
use crate::tlp::{tlp_wire_bytes, Dllp, DLLP_WIRE_BYTES};

/// Upstream-interface slave port: receives downstream-bound requests,
/// emits upstream-bound responses. Pair with a root/switch port's master.
pub const PORT_UP_SLAVE: PortId = PortId(0);
/// Upstream-interface master port: emits upstream-bound (DMA) requests,
/// receives downstream-bound responses. Pair with a root/switch port's
/// slave.
pub const PORT_UP_MASTER: PortId = PortId(1);
/// Downstream-interface master port: emits downstream-bound requests,
/// receives upstream-bound responses. Pair with a device PIO port or a
/// switch upstream slave.
pub const PORT_DOWN_MASTER: PortId = PortId(2);
/// Downstream-interface slave port: receives upstream-bound (DMA)
/// requests, emits downstream-bound responses. Pair with a device DMA port
/// or a switch upstream master.
pub const PORT_DOWN_SLAVE: PortId = PortId(3);

/// Direction of travel across the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Toward the device (transmitted by the upstream interface).
    Down = 0,
    /// Toward the root complex (transmitted by the downstream interface).
    Up = 1,
}

impl Dir {
    fn label(self) -> &'static str {
        match self {
            Dir::Down => "down",
            Dir::Up => "up",
        }
    }
}

// Event kinds (`kind = BASE + dir`, where `dir` names the wire the event
// concerns — which together with the base determines the physical end the
// event must be delivered to; see [`event_dest_end`]).
const K_TX_KICK: u32 = 0;
const K_REPLAY_TIMEOUT: u32 = 2;
const K_ACK_TIMER: u32 = 4;
const K_DLLP_ARRIVE: u32 = 6;
// A TLP's arrival, intact or corrupt: `kind = BASE + dir + (seq <<
// KIND_BITS)` and `data` is the packet id. The 28-bit sequence number
// fills the bits above the kind.
const K_TLP_ARRIVE: u32 = 8;
const K_TLP_CORRUPT: u32 = 10;
const KIND_BITS: u32 = 4;
const KIND_MASK: u32 = (1 << KIND_BITS) - 1;

/// The physical end (0 = upstream, 1 = downstream) that must handle a
/// self-addressed link event.
fn event_dest_end(ev: &Event) -> u8 {
    match ev {
        Event::Timer { kind, .. } => {
            let dir = (kind & 1) as u8;
            match kind & KIND_MASK & !1 {
                // TX-side timers fire at the wire's transmitter.
                K_TX_KICK | K_REPLAY_TIMEOUT => dir,
                // The ACK timer for direction `dir` runs at its receiver;
                // a DLLP or TLP that travelled on `dir` arrives at its sink.
                K_ACK_TIMER | K_DLLP_ARRIVE | K_TLP_ARRIVE | K_TLP_CORRUPT => 1 - dir,
                _ => 0,
            }
        }
        Event::DelayedPacket { .. } => 0,
    }
}

/// A blank a checkpoint loads a queued DLLP into.
impl Default for Dllp {
    fn default() -> Self {
        Dllp::Ack { seq: 0 }
    }
}

/// A tag byte, then the variant's one `u32`.
impl State for Dllp {
    fn save(&self, w: &mut StateWriter) {
        let (tag, value) = match *self {
            Dllp::Ack { seq } => (0, seq),
            Dllp::Nak { seq } => (1, seq),
            Dllp::UpdateFc { credits } => (2, credits),
        };
        w.u8(tag);
        w.u32(value);
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.u8()?;
        let value = r.u32()?;
        *self = match tag {
            0 => Dllp::Ack { seq: value },
            1 => Dllp::Nak { seq: value },
            2 => Dllp::UpdateFc { credits: value },
            other => return Err(SnapshotError::Corrupt(format!("unknown DLLP tag {other}"))),
        };
        Ok(())
    }
}

/// Transmit-side statistics of one end's wire, reported under the label of
/// the direction that wire carries.
#[derive(Debug, Default)]
struct TxStats {
    tlps_admitted: Counter,
    tlps_tx: Counter,
    bytes_tx: Counter,
    replays: Counter,
    timeouts: Counter,
    acks_tx: Counter,
    acks_rx: Counter,
    naks_tx: Counter,
    naks_rx: Counter,
    admission_refusals: Counter,
    /// Admissions refused for lack of flow-control credits (credit mode).
    credit_stalls: Counter,
    updatefc_tx: Counter,
    updatefc_rx: Counter,
    busy_ticks: Counter,
}

impl State for TxStats {
    state_fields!(state self;
        tlps_admitted, tlps_tx, bytes_tx, replays, timeouts, acks_tx, acks_rx, naks_tx, naks_rx,
        admission_refusals, credit_stalls, updatefc_tx, updatefc_rx, busy_ticks,
    );
}

/// Receive-side statistics of one end, reported under the label of the
/// direction it receives (the peer's wire).
#[derive(Debug, Default)]
struct RxStats {
    rx_delivered: Counter,
    rx_dropped_refused: Counter,
    rx_dropped_seq: Counter,
    rx_dropped_corrupt: Counter,
    /// Admission-to-delivery latency per TLP, in nanoseconds (includes
    /// wire, queueing and any replay stalls).
    delivery_latency_ns: Histogram,
}

impl State for RxStats {
    state_fields!(state self;
        rx_delivered, rx_dropped_refused, rx_dropped_seq, rx_dropped_corrupt, delivery_latency_ns,
    );
}

/// The transmitter's wake-up at the tick its wire comes free. The order
/// stamp is reserved when the wire goes busy — exactly where the eager
/// kick of earlier builds was minted after every frame — but the event is
/// queued only once a frame is waiting behind the wire. The eager stream's
/// no-op kicks are therefore never dispatched, and every event that does
/// dispatch keeps its `(tick, order)` key (DESIGN §7).
#[derive(Debug, Clone, Copy, Default)]
struct Kick {
    at: Tick,
    order: u64,
    /// Queued in the calendar, or only reserved.
    queued: bool,
}

impl State for Kick {
    state_fields!(state self; at, order, queued);
}

impl Kick {
    fn queue(&mut self, ctx: &mut Ctx<'_>, dir: Dir) {
        let kind = K_TX_KICK + dir as u32;
        ctx.schedule_reserved(self.at - ctx.now(), self.order, Event::Timer { kind, data: 0 });
        self.queued = true;
    }
}

/// Dynamic state of one physical end: the transmit machinery of its own
/// wire and the receive machinery of the peer's wire.
struct EndState {
    // ── TX side (the wire this end transmits) ──────────────────────────
    tx: ReplayBuffer,
    /// DLLPs queued for transmission on this end's wire (they acknowledge
    /// the peer wire's TLPs).
    pending_dllps: VecDeque<Dllp>,
    wire_busy_until: Tick,
    /// The wake-up owed at `wire_busy_until` while the wire is busy.
    kick: Option<Kick>,
    replay_armed: bool,
    /// Lazy replay timer: the tick the armed timeout is due. Re-arming on
    /// an ACK only moves this deadline; at most one timer event is
    /// outstanding per end, re-scheduling itself forward on stale fires
    /// instead of pushing a fresh event per acknowledgement.
    replay_deadline: Tick,
    replay_timer_outstanding: bool,
    /// Admission refusals owed a retry: [request feeder, response feeder].
    owe_retry: [bool; 2],
    /// TLPs put on the wire, for error injection.
    tx_count: u64,
    /// Credit mode: transmit credits available at this end.
    tx_credits: u32,
    /// The spec's REPLAY_NUM: a 2-bit count of consecutive replay events
    /// without acknowledged progress; its rollover is a correctable AER
    /// error at the transmitter.
    replay_num: u32,
    tx_stats: TxStats,
    // ── RX side (the wire the peer transmits) ──────────────────────────
    rx: RxState,
    /// Cumulative ACK not yet sent.
    pending_ack: Option<u32>,
    ack_timer_armed: bool,
    /// Credit mode: received TLPs awaiting delivery to the attached port.
    rx_buffer: VecDeque<Packet>,
    /// Credit mode: the attached port refused a delivery; waiting for its
    /// retry before draining further.
    rx_waiting_retry: bool,
    /// Credit mode: credits freed but not yet returned via UpdateFC.
    pending_credit_return: u32,
    rx_stats: RxStats,
}

impl State for EndState {
    state_fields!(state self;
        tx, pending_dllps, wire_busy_until, kick, replay_armed, replay_deadline,
        replay_timer_outstanding, owe_retry, tx_count, tx_credits, replay_num, rx,
        // The pending ACK travels as an optional u64 and must lie in the
        // sequence space.
        save(w) {
            self.pending_ack.map(u64::from).save(w);
        }
        load(r) {
            let ack = Option::<u64>::read(r)?;
            if let Some(v) = ack.filter(|&v| v >= u64::from(SEQ_MODULUS)) {
                let what = format!("pending ACK {v} exceeds the sequence space");
                return Err(SnapshotError::Corrupt(what));
            }
            self.pending_ack = ack.map(|v| v as u32);
        },
        ack_timer_armed, rx_buffer, rx_waiting_retry, pending_credit_return, tx_stats, rx_stats,
    );
}

impl EndState {
    fn new(capacity: usize, credits: u32) -> Self {
        Self {
            tx: ReplayBuffer::new(capacity),
            pending_dllps: VecDeque::new(),
            wire_busy_until: 0,
            kick: None,
            replay_armed: false,
            replay_deadline: 0,
            replay_timer_outstanding: false,
            owe_retry: [false; 2],
            tx_count: 0,
            tx_credits: credits,
            replay_num: 0,
            tx_stats: TxStats::default(),
            rx: RxState::new(),
            pending_ack: None,
            ack_timer_armed: false,
            rx_buffer: VecDeque::new(),
            rx_waiting_retry: false,
            pending_credit_return: 0,
            rx_stats: RxStats::default(),
        }
    }
}

/// SplitMix64: decorrelates the error injector from transmission counts.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One physical end of a link: transmitter of its own wire, receiver of
/// the peer's. End 0 is the upstream interface (transmits Down, ports
/// 0–1); end 1 is the downstream interface (transmits Up, ports 2–3).
struct LinkEnd {
    name: String,
    end: u8,
    config: LinkConfig,
    replay_timeout: Tick,
    ack_timeout: Tick,
    st: EndState,
    /// AER reporter for this interface. When attached, data-link errors
    /// latch into the config space's AER correctable-status register —
    /// receiver-side errors at the receiving end, replay errors at the
    /// transmitting end.
    aer: Option<SharedConfigSpace>,
    #[cfg(test)]
    oracle: KickOracle,
}

/// Test-only oracle hooks: the eager kick rule of earlier builds (queue a
/// kick after every frame, needed or not); per end, a log of every event
/// the end handled; per wire, its TLP transmissions and arrivals; and
/// both replay buffers' occupancy.
#[cfg(test)]
#[derive(Debug, Default, Clone)]
pub(crate) struct KickOracle {
    pub(crate) eager: bool,
    pub(crate) log: std::rc::Rc<[std::cell::RefCell<Vec<Dispatch>>; 2]>,
    /// Per wire (indexed by direction), in the order they happened.
    pub(crate) wire: std::rc::Rc<[std::cell::RefCell<Vec<WireStep>>; 2]>,
    /// Each end's replay-buffer length after the link's latest event.
    pub(crate) held: std::rc::Rc<std::cell::Cell<[usize; 2]>>,
}

/// A TLP transmission entering or leaving a wire, as a [`KickOracle`]
/// logs it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireStep {
    /// Sequence number `.0` went onto the wire.
    Tx(u32),
    /// Sequence number `.0` reached the receiver.
    Arrive(u32),
}

/// One event a link end handled, as a [`KickOracle`] logs it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dispatch {
    pub(crate) at: Tick,
    /// The timer kind as scheduled (a TLP arrival's carries its sequence
    /// number).
    pub(crate) kind: u32,
    /// A kick that found the wire free and no frame waiting.
    pub(crate) idle_kick: bool,
}

#[cfg(test)]
impl KickOracle {
    /// Logs `ev` as handled by `end` at `at`; `tx_idle` says the end's
    /// wire was free with no frame waiting.
    fn record(&self, end: u8, at: Tick, ev: &Event, tx_idle: bool) {
        let kind = if let Event::Timer { kind, .. } = ev { *kind } else { u32::MAX };
        let idle_kick = kind & KIND_MASK & !1 == K_TX_KICK && tx_idle;
        self.log[usize::from(end)].borrow_mut().push(Dispatch { at, kind, idle_kick });
    }
}

impl LinkEnd {
    fn new(name: String, end: u8, config: LinkConfig) -> Self {
        let rt = replay_timeout(&config);
        let at = ack_timeout(&config);
        let cap = config.replay_buffer_size;
        let credits = config.credit_fc.unwrap_or(0) as u32;
        Self {
            name,
            end,
            replay_timeout: rt,
            ack_timeout: at,
            st: EndState::new(cap, credits),
            aer: None,
            config,
            #[cfg(test)]
            oracle: KickOracle::default(),
        }
    }

    /// The direction this end transmits.
    fn tx_dir(&self) -> Dir {
        if self.end == 0 {
            Dir::Down
        } else {
            Dir::Up
        }
    }

    /// The direction this end receives.
    fn rx_dir(&self) -> Dir {
        if self.end == 0 {
            Dir::Up
        } else {
            Dir::Down
        }
    }

    /// Latches correctable-error `bits` into this end's AER block, if one
    /// is attached.
    fn record_cor(&self, bits: u32) {
        if let Some(cs) = &self.aer {
            aer_record_correctable(&mut cs.borrow_mut(), bits, 0);
        }
    }

    /// Advances the transmitter's REPLAY_NUM counter for one replay event
    /// and latches the AER rollover error when the 2-bit count wraps
    /// (four consecutive replays without acknowledged progress).
    fn bump_replay_num(&mut self) {
        self.st.replay_num = (self.st.replay_num + 1) & 3;
        if self.st.replay_num == 0 {
            self.record_cor(cor::REPLAY_NUM_ROLLOVER);
        }
    }

    fn arm_replay(&mut self, ctx: &mut Ctx<'_>) {
        self.st.replay_armed = true;
        self.st.replay_deadline = ctx.now() + self.replay_timeout;
        if !self.st.replay_timer_outstanding {
            self.st.replay_timer_outstanding = true;
            let kind = K_REPLAY_TIMEOUT + self.tx_dir() as u32;
            ctx.schedule_stream(self.replay_timeout, self.end, Event::Timer { kind, data: 0 });
        }
    }

    /// Queues an ACK/NAK/UpdateFC for transmission on this end's wire.
    fn queue_dllp(&mut self, ctx: &mut Ctx<'_>, dllp: Dllp) {
        match dllp {
            Dllp::Nak { seq } => {
                self.st.tx_stats.naks_tx.inc();
                ctx.emit(TraceCategory::Link, TraceKind::LinkNak, None, None, u64::from(seq));
            }
            Dllp::Ack { seq } => {
                self.st.tx_stats.acks_tx.inc();
                ctx.emit(TraceCategory::Link, TraceKind::LinkAck, None, None, u64::from(seq));
            }
            Dllp::UpdateFc { .. } => self.st.tx_stats.updatefc_tx.inc(),
        }
        self.st.pending_dllps.push_back(dllp);
        self.pump(ctx);
    }

    /// Whether a DLLP, a replayed TLP or a new TLP is waiting for the wire.
    fn frame_waiting(&self) -> bool {
        !self.st.pending_dllps.is_empty() || self.st.tx.has_pending_tx()
    }

    /// Whether kicks are queued after every frame, needed or not — the
    /// rule of earlier builds, kept only as the test oracle.
    #[cfg(test)]
    fn eager_kicks(&self) -> bool {
        self.oracle.eager
    }

    #[cfg(not(test))]
    fn eager_kicks(&self) -> bool {
        false
    }

    /// The wire is busy: owe the transmitter a wake-up at the wire-free
    /// tick, reserving its stamp if none is owed yet, and queue it once a
    /// frame is waiting. With nothing waiting, the reservation stays
    /// unqueued — the eager kick it stands for would have found nothing to
    /// send. Every frame's arrival at the peer is an event at or after the
    /// tick its wire frees, so a deleted kick is never a run's last event —
    /// except on a cut-through link, where a TLP arrives at header time;
    /// there kicks stay eager, or the quiesce tick could move.
    fn arm_kick(&mut self, ctx: &mut Ctx<'_>) {
        let (at, stream, dir) = (self.st.wire_busy_until, self.end, self.tx_dir());
        let queue = self.eager_kicks() || self.config.cut_through || self.frame_waiting();
        let kick = self.st.kick.get_or_insert_with(|| Kick {
            at,
            order: ctx.reserve_order(stream),
            queued: false,
        });
        if queue && !kick.queued {
            kick.queue(ctx, dir);
        }
    }

    /// A frame takes the wire now, at or after the tick it came free. An
    /// unqueued kick reserved for that tick is, in the eager stream,
    /// either already dispatched with nothing to send — its key is behind
    /// the event being dispatched: forget it — or still due at this very
    /// tick, where it will find this frame's wire busy and re-arm: queue it.
    fn settle_kick(&mut self, ctx: &mut Ctx<'_>) {
        let dir = self.tx_dir();
        let Some(kick) = &mut self.st.kick else { return };
        if kick.queued {
            return;
        }
        if ctx.is_ahead(kick.at, kick.order) {
            kick.queue(ctx, dir);
        } else {
            self.st.kick = None;
        }
    }

    /// The transmission engine: one frame per iteration while the wire is
    /// free, priority ACK/NAK > replayed TLPs > new TLPs. While the wire is
    /// busy with a frame waiting, a TX kick is queued at the wire-free
    /// tick, so transmission resumes without any help from the receiving
    /// end.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let now = ctx.now();
            let prop = self.config.propagation_delay;
            if now < self.st.wire_busy_until {
                self.arm_kick(ctx);
                return;
            }
            if !self.frame_waiting() {
                return;
            }
            self.settle_kick(ctx);
            if let Some(dllp) = self.st.pending_dllps.pop_front() {
                let t = self.config.tx_time(DLLP_WIRE_BYTES);
                self.st.wire_busy_until = now + t;
                self.st.tx_stats.busy_ticks.add(t);
                self.st.tx_stats.bytes_tx.add(u64::from(DLLP_WIRE_BYTES));
                let data = match dllp {
                    Dllp::Ack { seq } => u64::from(seq),
                    Dllp::Nak { seq } => u64::from(seq) | (1 << 32),
                    Dllp::UpdateFc { credits } => u64::from(credits) | (1 << 33),
                };
                let kind = K_DLLP_ARRIVE + self.tx_dir() as u32;
                ctx.schedule_stream(t + prop, self.end, Event::Timer { kind, data });
                continue;
            }
            // The wire carries the sequence number; the replay buffer keeps
            // the TLP until the receiving end takes it.
            if let Some(frame) = self.st.tx.next_to_transmit() {
                self.st.tx.mark_transmitted();
                #[cfg(test)]
                self.oracle.wire[self.tx_dir() as usize].borrow_mut().push(WireStep::Tx(frame.seq));
                let wire = tlp_wire_bytes(frame.payload_len);
                let t = self.config.tx_time(wire);
                self.st.wire_busy_until = now + t;
                self.st.tx_stats.tlps_tx.inc();
                self.st.tx_stats.bytes_tx.add(u64::from(wire));
                self.st.tx_stats.busy_ticks.add(t);
                self.st.tx_count += 1;
                if ctx.tracing(TraceCategory::Link) {
                    ctx.emit(
                        TraceCategory::Link,
                        TraceKind::LinkTxStart,
                        Some(frame.id),
                        Some(frame.cmd),
                        u64::from(wire),
                    );
                }
                // Pseudo-random (but deterministic) error injection. A
                // strictly periodic fault would resonate with replay-burst
                // lengths — corrupting the same TLP in every burst forever
                // — which no physical error process does.
                let corrupt = self.config.error_interval != 0
                    && splitmix64(self.st.tx_count).is_multiple_of(self.config.error_interval);
                let base = if corrupt { K_TLP_CORRUPT } else { K_TLP_ARRIVE };
                let kind = base + self.tx_dir() as u32 + (frame.seq << KIND_BITS);
                // Cut-through: the receiver sees the TLP after the header
                // lands; store-and-forward: after the whole packet.
                let delivery = if self.config.cut_through {
                    self.config.tx_time(wire.min(crate::tlp::TLP_OVERHEAD_BYTES))
                } else {
                    t
                };
                let arrival = Event::Timer { kind, data: frame.id.0 };
                ctx.schedule_stream(delivery + prop, self.end, arrival);
                if !self.st.replay_armed {
                    self.arm_replay(ctx);
                }
                continue;
            }
            return;
        }
    }

    /// Admits a TLP from an attached port into this end's transaction
    /// layer. In credit mode admission also consumes one receive-buffer
    /// credit; without credits the source is stalled rather than
    /// transmitting into a full receiver.
    fn admit(&mut self, ctx: &mut Ctx<'_>, feeder: usize, pkt: Packet) -> RecvResult {
        let credit_mode = self.config.credit_fc.is_some();
        if credit_mode && self.st.tx_credits == 0 {
            self.st.tx_stats.credit_stalls.inc();
            self.st.owe_retry[feeder] = true;
            return RecvResult::Refused(pkt);
        }
        if !self.st.tx.can_admit() {
            self.st.tx_stats.admission_refusals.inc();
            self.st.owe_retry[feeder] = true;
            return RecvResult::Refused(pkt);
        }
        if credit_mode {
            self.st.tx_credits -= 1;
        }
        let traced = ctx.tracing(TraceCategory::Link).then(|| (pkt.id(), pkt.cmd()));
        let seq = self.st.tx.admit_at(ctx.now(), pkt);
        self.st.tx_stats.tlps_admitted.inc();
        if let Some((id, cmd)) = traced {
            ctx.emit(
                TraceCategory::Link,
                TraceKind::LinkAdmit,
                Some(id),
                Some(cmd),
                u64::from(seq),
            );
        }
        self.pump(ctx);
        RecvResult::Accepted
    }

    /// Grants retries to feeders refused earlier, once space is back.
    fn grant_feeder_retries(&mut self, ctx: &mut Ctx<'_>) {
        if !self.st.tx.can_admit() {
            return;
        }
        if self.config.credit_fc.is_some() && self.st.tx_credits == 0 {
            return;
        }
        let owed = std::mem::take(&mut self.st.owe_retry);
        let (req_port, resp_port) = if self.end == 0 {
            (PORT_UP_SLAVE, PORT_UP_MASTER)
        } else {
            (PORT_DOWN_SLAVE, PORT_DOWN_MASTER)
        };
        if owed[0] {
            ctx.send_retry_stream(req_port, self.end);
        }
        if owed[1] {
            ctx.send_retry_stream(resp_port, self.end);
        }
    }

    /// Hands a received TLP out of this end's interface: requests continue
    /// in their direction of travel through the master port, responses
    /// through the slave.
    fn deliver(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) -> Result<(), Packet> {
        let is_req = pkt.is_request();
        if self.end == 1 {
            if is_req {
                ctx.try_send_request(PORT_DOWN_MASTER, pkt)
            } else {
                ctx.try_send_response(PORT_DOWN_SLAVE, pkt)
            }
        } else if is_req {
            ctx.try_send_request(PORT_UP_MASTER, pkt)
        } else {
            ctx.try_send_response(PORT_UP_SLAVE, pkt)
        }
    }

    /// The TLP `seq` (packet `id`) reached this end; the packet itself is
    /// in `peer_tx`, the transmitting end's replay buffer.
    fn tlp_arrived(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: u32,
        corrupt: bool,
        id: PacketId,
        peer_tx: &mut ReplayBuffer,
    ) {
        let ack_immediate = self.config.ack_immediate;
        if corrupt {
            self.st.rx_stats.rx_dropped_corrupt.inc();
            ctx.emit(TraceCategory::Link, TraceKind::LinkDrop, Some(id), None, u64::from(seq));
            // NAK the last good sequence number back to the sender.
            // Before anything has been received, `expected() - 1` is the
            // sequence number just behind the first one sent; the replay
            // buffer's window comparison (`seq_le`) places it *behind*
            // every live sequence number, so the NAK acknowledges nothing
            // and rewinds everything, exactly the intent of "NAK from the
            // start".
            let nak_seq = seq_prev(self.st.rx.expected());
            self.record_cor(cor::RECEIVER_ERROR | cor::BAD_TLP);
            self.queue_dllp(ctx, Dllp::Nak { seq: nak_seq });
            return;
        }
        if !self.st.rx.accepts(seq) {
            // Out-of-order (e.g. a replay of something already delivered):
            // discard without advancing, as the paper's model does.
            self.st.rx_stats.rx_dropped_seq.inc();
            ctx.emit(TraceCategory::Link, TraceKind::LinkDrop, Some(id), None, u64::from(seq));
            // A duplicate of something already delivered means the
            // sender's replay timer beat our acknowledgement: re-ACK the
            // cumulative high-water mark immediately so the replay burst
            // stops, as the spec's ACK-scheduling rules require for
            // duplicates. Future-sequence drops (mid-NAK-recovery) are
            // left to the pending cumulative ACK instead. Error-free
            // runs never reach this branch, so quiet-wire timing is
            // unchanged.
            if let Some(last) = self.st.rx.last_received() {
                if seq_le(seq, last) {
                    self.st.pending_ack = None;
                    self.queue_dllp(ctx, Dllp::Ack { seq: last });
                }
            }
            return;
        }
        // In sequence: no earlier arrival of `seq` was delivered (that would
        // have advanced the receiver), so each left the packet with the
        // transmitter or put it back there.
        let (stamp, pkt) = peer_tx.take(seq).unwrap_or_else(|| {
            panic!("{}: in-sequence TLP {seq} is not in the peer's replay buffer", self.name)
        });
        if let Some(credits) = self.config.credit_fc {
            // Credit mode: the receive buffer always has room (the
            // transmitter consumed a credit), so receipt is unconditional;
            // delivery happens from the buffer.
            let acked = self.st.rx.advance();
            self.st.rx_stats.delivery_latency_ns.record(to_ns(ctx.now().saturating_sub(stamp)));
            if ctx.tracing(TraceCategory::Link) {
                ctx.emit(
                    TraceCategory::Link,
                    TraceKind::LinkDeliver,
                    Some(pkt.id()),
                    Some(pkt.cmd()),
                    u64::from(acked),
                );
            }
            self.st.rx_buffer.push_back(pkt);
            assert!(self.st.rx_buffer.len() <= credits, "credit accounting violated");
            self.send_ack(ctx, acked, ack_immediate);
            self.drain_rx(ctx);
            return;
        }
        // Deliver to the attached component.
        let traced = ctx.tracing(TraceCategory::Link).then(|| (pkt.id(), pkt.cmd()));
        match self.deliver(ctx, pkt) {
            Ok(()) => {
                let acked = self.st.rx.advance();
                self.st.rx_stats.rx_delivered.inc();
                if let Some((id, cmd)) = traced {
                    ctx.emit(
                        TraceCategory::Link,
                        TraceKind::LinkDeliver,
                        Some(id),
                        Some(cmd),
                        u64::from(acked),
                    );
                }
                self.st.rx_stats.delivery_latency_ns.record(to_ns(ctx.now().saturating_sub(stamp)));
                self.send_ack(ctx, acked, ack_immediate);
            }
            Err(refused) => {
                // The attached port's buffers are full: do not increment the
                // receiving sequence number; the TLP goes back to the sender,
                // which replays it on timeout.
                self.st.rx_stats.rx_dropped_refused.inc();
                if traced.is_some() {
                    ctx.emit(
                        TraceCategory::Link,
                        TraceKind::LinkDrop,
                        Some(refused.id()),
                        Some(refused.cmd()),
                        u64::from(seq),
                    );
                }
                peer_tx.put_back(seq, refused);
            }
        }
    }

    /// Acknowledges receipt of `acked`: immediately when configured or the
    /// return wire — this end's own transmitter — is idle ("the receiver
    /// has the option to send an ACK back to the sender immediately",
    /// §V-C), else behind the ACK timer.
    fn send_ack(&mut self, ctx: &mut Ctx<'_>, acked: u32, ack_immediate: bool) {
        let reverse_idle = self.config.ack_opportunistic
            && ctx.now() >= self.st.wire_busy_until
            && self.st.pending_dllps.is_empty();
        self.st.pending_ack = Some(acked);
        if ack_immediate || reverse_idle {
            self.st.pending_ack = None;
            self.queue_dllp(ctx, Dllp::Ack { seq: acked });
        } else if !self.st.ack_timer_armed {
            self.st.ack_timer_armed = true;
            let kind = K_ACK_TIMER + self.rx_dir() as u32;
            ctx.schedule_stream(self.ack_timeout, self.end, Event::Timer { kind, data: 0 });
        }
    }

    /// Credit mode: delivers buffered TLPs to the attached port and
    /// returns freed credits via UpdateFC, batched to a quarter of the
    /// advertised window.
    fn drain_rx(&mut self, ctx: &mut Ctx<'_>) {
        let credits = match self.config.credit_fc {
            Some(c) => c as u32,
            None => return,
        };
        loop {
            if self.st.rx_waiting_retry {
                break;
            }
            let Some(pkt) = self.st.rx_buffer.pop_front() else { break };
            match self.deliver(ctx, pkt) {
                Ok(()) => {
                    self.st.rx_stats.rx_delivered.inc();
                    self.st.pending_credit_return += 1;
                }
                Err(back) => {
                    self.st.rx_buffer.push_front(back);
                    self.st.rx_waiting_retry = true;
                    break;
                }
            }
        }
        // Return credits once a quarter of the window accumulates (or the
        // last buffered TLP drained).
        let threshold = (credits / 4).max(1);
        if self.st.pending_credit_return >= threshold
            || (self.st.pending_credit_return > 0 && self.st.rx_buffer.is_empty())
        {
            let returned = self.st.pending_credit_return;
            self.st.pending_credit_return = 0;
            self.queue_dllp(ctx, Dllp::UpdateFc { credits: returned });
        }
    }

    /// A DLLP from the peer's wire reached this end — it concerns this
    /// end's transmitter.
    fn dllp_arrived(&mut self, ctx: &mut Ctx<'_>, dllp: Dllp) {
        let mut replay_event = false;
        match dllp {
            Dllp::Nak { seq } => {
                self.st.tx_stats.naks_rx.inc();
                let replayed = self.st.tx.nak(seq);
                self.st.tx_stats.replays.add(replayed as u64);
                replay_event = replayed > 0;
                if replayed > 0 {
                    ctx.emit(
                        TraceCategory::Link,
                        TraceKind::LinkReplay,
                        None,
                        None,
                        replayed as u64,
                    );
                }
            }
            Dllp::Ack { seq } => {
                self.st.tx_stats.acks_rx.inc();
                self.st.tx.ack(seq);
                // Acknowledged progress resets the consecutive-replay
                // count.
                self.st.replay_num = 0;
            }
            Dllp::UpdateFc { credits } => {
                self.st.tx_stats.updatefc_rx.inc();
                self.st.tx_credits += credits;
                self.grant_feeder_retries(ctx);
                self.pump(ctx);
                return;
            }
        }
        if replay_event {
            self.bump_replay_num();
        }
        // "The replay timer is reset whenever an interface receives an ACK."
        if self.st.tx.is_empty() {
            self.st.replay_armed = false;
        } else {
            self.arm_replay(ctx);
        }
        self.grant_feeder_retries(ctx);
        self.pump(ctx);
    }

    fn replay_timeout_fired(&mut self, ctx: &mut Ctx<'_>) {
        self.st.replay_timer_outstanding = false;
        if !self.st.replay_armed {
            return; // disarmed while in flight
        }
        if self.st.tx.is_empty() {
            self.st.replay_armed = false;
            return;
        }
        if ctx.now() < self.st.replay_deadline {
            // An ACK moved the deadline forward since this timer was
            // scheduled: chase it instead of having queued one event per
            // acknowledgement.
            self.st.replay_timer_outstanding = true;
            let delay = self.st.replay_deadline - ctx.now();
            let kind = K_REPLAY_TIMEOUT + self.tx_dir() as u32;
            ctx.schedule_stream(delay, self.end, Event::Timer { kind, data: 0 });
            return;
        }
        self.st.tx_stats.timeouts.inc();
        let replayed = self.st.tx.rewind();
        self.st.tx_stats.replays.add(replayed as u64);
        ctx.emit(TraceCategory::Link, TraceKind::LinkReplayTimeout, None, None, replayed as u64);
        self.record_cor(cor::REPLAY_TIMER_TIMEOUT);
        self.bump_replay_num();
        self.arm_replay(ctx);
        self.pump(ctx);
    }

    fn ack_timer_fired(&mut self, ctx: &mut Ctx<'_>) {
        self.st.ack_timer_armed = false;
        if let Some(seq) = self.st.pending_ack.take() {
            self.queue_dllp(ctx, Dllp::Ack { seq });
        }
    }

    /// Dispatches a self-addressed event that [`event_dest_end`] routed to
    /// this end; `peer_tx` is the other end's replay buffer, which holds
    /// the TLPs arriving here.
    fn handle_event(&mut self, ctx: &mut Ctx<'_>, ev: Event, peer_tx: &mut ReplayBuffer) {
        #[cfg(test)]
        self.oracle.record(
            self.end,
            ctx.now(),
            &ev,
            ctx.now() >= self.st.wire_busy_until && !self.frame_waiting(),
        );
        match ev {
            Event::Timer { kind, data } => match kind & KIND_MASK & !1 {
                base @ (K_TLP_ARRIVE | K_TLP_CORRUPT) => {
                    let (seq, corrupt) = (kind >> KIND_BITS, base == K_TLP_CORRUPT);
                    #[cfg(test)]
                    self.oracle.wire[self.rx_dir() as usize]
                        .borrow_mut()
                        .push(WireStep::Arrive(seq));
                    self.tlp_arrived(ctx, seq, corrupt, PacketId(data), peer_tx);
                }
                K_TX_KICK => {
                    debug_assert!(matches!(self.st.kick, Some(Kick { queued: true, .. })));
                    self.st.kick = None;
                    self.pump(ctx);
                }
                K_REPLAY_TIMEOUT => self.replay_timeout_fired(ctx),
                K_ACK_TIMER => self.ack_timer_fired(ctx),
                K_DLLP_ARRIVE => {
                    let value = (data & 0xffff_ffff) as u32;
                    let dllp = if data & (1 << 33) != 0 {
                        Dllp::UpdateFc { credits: value }
                    } else if data & (1 << 32) != 0 {
                        Dllp::Nak { seq: value }
                    } else {
                        Dllp::Ack { seq: value }
                    };
                    self.dllp_arrived(ctx, dllp);
                }
                other => panic!("{}: unknown timer kind {other}", self.name),
            },
            Event::DelayedPacket { .. } => {
                panic!("{}: unexpected delayed packet", self.name)
            }
        }
    }

    /// The peer of a port we refused a delivery into has space again.
    fn retry_granted(&mut self, ctx: &mut Ctx<'_>) {
        if self.config.credit_fc.is_some() {
            // Credit mode buffers undelivered TLPs: drain now.
            self.st.rx_waiting_retry = false;
            self.drain_rx(ctx);
        }
        // ACK/NAK-only mode: a port we failed to deliver into has space
        // again; the dropped TLP is recovered by the sender's replay
        // timeout, so nothing to do — the paper's timeout-driven recovery.
    }

    /// Reports TX stats under this end's transmit direction and RX stats
    /// under its receive direction, so each direction's keys cover both
    /// ends of its wire.
    fn report(&self, out: &mut StatsBuilder) {
        let t = self.tx_dir().label();
        out.counter(&format!("{t}.tlps_admitted"), &self.st.tx_stats.tlps_admitted);
        out.counter(&format!("{t}.tlps_tx"), &self.st.tx_stats.tlps_tx);
        out.counter(&format!("{t}.bytes_tx"), &self.st.tx_stats.bytes_tx);
        out.counter(&format!("{t}.replays"), &self.st.tx_stats.replays);
        out.counter(&format!("{t}.timeouts"), &self.st.tx_stats.timeouts);
        out.counter(&format!("{t}.acks_tx"), &self.st.tx_stats.acks_tx);
        out.counter(&format!("{t}.acks_rx"), &self.st.tx_stats.acks_rx);
        out.counter(&format!("{t}.naks_tx"), &self.st.tx_stats.naks_tx);
        out.counter(&format!("{t}.naks_rx"), &self.st.tx_stats.naks_rx);
        out.counter(&format!("{t}.admission_refusals"), &self.st.tx_stats.admission_refusals);
        out.counter(&format!("{t}.credit_stalls"), &self.st.tx_stats.credit_stalls);
        out.counter(&format!("{t}.updatefc_tx"), &self.st.tx_stats.updatefc_tx);
        out.counter(&format!("{t}.updatefc_rx"), &self.st.tx_stats.updatefc_rx);
        out.counter(&format!("{t}.busy_ticks"), &self.st.tx_stats.busy_ticks);
        let r = self.rx_dir().label();
        out.counter(&format!("{r}.rx_delivered"), &self.st.rx_stats.rx_delivered);
        out.counter(&format!("{r}.rx_dropped_refused"), &self.st.rx_stats.rx_dropped_refused);
        out.counter(&format!("{r}.rx_dropped_seq"), &self.st.rx_stats.rx_dropped_seq);
        out.counter(&format!("{r}.rx_dropped_corrupt"), &self.st.rx_stats.rx_dropped_corrupt);
        out.histogram(&format!("{r}.delivery_latency_ns"), &self.st.rx_stats.delivery_latency_ns);
    }
}

/// The fused PCI-Express link component — both physical ends in one
/// component; see the module docs for wiring.
pub struct PcieLink {
    ends: [LinkEnd; 2],
}

impl PcieLink {
    /// Creates a link named `name` with the given configuration.
    pub fn new(name: impl Into<String>, config: LinkConfig) -> Self {
        let name = name.into();
        Self {
            ends: [LinkEnd::new(name.clone(), 0, config.clone()), LinkEnd::new(name, 1, config)],
        }
    }

    /// Attaches AER-capable config spaces to the link's interfaces so
    /// data-link errors are advised to software the way real hardware
    /// does: a corrupted TLP latches Receiver Error + Bad TLP at the
    /// *receiving* end; a replay-timer expiry latches Replay Timer
    /// Timeout and a REPLAY_NUM rollover latches REPLAY_NUM Rollover at
    /// the *transmitting* end. Ends without an AER capability (or passed
    /// as `None`) simply record nothing; the recovery protocol itself is
    /// unaffected.
    pub fn attach_aer(
        &mut self,
        upstream: Option<SharedConfigSpace>,
        downstream: Option<SharedConfigSpace>,
    ) {
        self.ends[0].aer = upstream;
        self.ends[1].aer = downstream;
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.ends[0].config
    }

    /// The computed replay-timeout interval.
    pub fn replay_timeout(&self) -> Tick {
        self.ends[0].replay_timeout
    }

    /// Installs the test oracle on both ends.
    #[cfg(test)]
    pub(crate) fn set_kick_oracle(&mut self, oracle: &KickOracle) {
        for end in &mut self.ends {
            end.oracle = oracle.clone();
        }
    }

    /// Starts both directions' sequence counters at `seq` (wrap tests).
    #[cfg(test)]
    pub(crate) fn start_sequences_at(&mut self, seq: u32) {
        for end in &mut self.ends {
            end.st.tx.start_sequence_at(seq);
            end.st.rx.start_sequence_at(seq);
        }
    }
}

impl Component for PcieLink {
    fn name(&self) -> &str {
        &self.ends[0].name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        match port {
            PORT_UP_SLAVE => self.ends[0].admit(ctx, 0, pkt),
            PORT_DOWN_SLAVE => self.ends[1].admit(ctx, 0, pkt),
            other => panic!("{}: request on non-slave port {other}", self.name()),
        }
    }

    fn recv_response(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        match port {
            PORT_UP_MASTER => self.ends[0].admit(ctx, 1, pkt),
            PORT_DOWN_MASTER => self.ends[1].admit(ctx, 1, pkt),
            other => panic!("{}: response on non-master port {other}", self.name()),
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let [up, down] = &mut self.ends;
        let (end, peer) = if event_dest_end(&ev) == 0 { (up, down) } else { (down, up) };
        end.handle_event(ctx, ev, &mut peer.st.tx);
        #[cfg(test)]
        self.ends[0].oracle.held.set(self.ends.each_ref().map(|end| end.st.tx.len()));
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, port: PortId) {
        let end = match port {
            PORT_UP_SLAVE | PORT_UP_MASTER => 0,
            PORT_DOWN_MASTER | PORT_DOWN_SLAVE => 1,
            other => panic!("{}: retry on unknown port {other}", self.name()),
        };
        self.ends[end].retry_granted(ctx);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        for end in &self.ends {
            end.report(out);
        }
    }

    fn save_state(&self, w: &mut StateWriter) {
        // Each end is a self-contained length-prefixed blob; the checkpoint
        // format, and so the golden fixture, pins this layout.
        for end in &self.ends {
            let mut blob = StateWriter::new();
            end.st.save(&mut blob);
            w.bytes(&blob.into_bytes());
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for end in &mut self.ends {
            let blob = r.bytes()?;
            let mut hr = StateReader::new(blob);
            end.st.load(&mut hr)?;
            hr.finish("pcie link end")?;
        }
        // Each TLP is in one place: the transmitter's buffer, or past the
        // peer receiver that took it.
        for (tx, rx) in [(0, 1), (1, 0)] {
            self.ends[tx].st.tx.check_custody(self.ends[rx].st.rx.expected())?;
        }
        Ok(())
    }

    /// Rejects the timers [`PcieLink::handle`] would panic on: an unknown
    /// kind, and the intact arrival of the TLP its receiver expects next
    /// when the transmitting end's replay buffer does not hold it.
    fn check_timer(&self, kind: u32, data: u64) -> Result<(), SnapshotError> {
        match kind & KIND_MASK & !1 {
            K_TX_KICK | K_REPLAY_TIMEOUT | K_ACK_TIMER | K_DLLP_ARRIVE | K_TLP_CORRUPT => Ok(()),
            K_TLP_ARRIVE => {
                let seq = kind >> KIND_BITS;
                let rx = usize::from(event_dest_end(&Event::Timer { kind, data }));
                if self.ends[rx].st.rx.accepts(seq) && !self.ends[1 - rx].st.tx.holds(seq) {
                    return Err(SnapshotError::Corrupt(format!(
                        "{}: arrival of TLP {seq}, which the receiver expects but the \
                         transmitter's replay buffer does not hold",
                        self.ends[rx].name
                    )));
                }
                Ok(())
            }
            _ => Err(SnapshotError::Corrupt(format!("{}: unknown timer kind {kind}", self.name()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Generation, LinkWidth};
    use std::cell::RefCell;
    use std::rc::Rc;

    use pcisim_kernel::component::ComponentId;
    use pcisim_kernel::packet::Command;
    use pcisim_kernel::sim::{RunOutcome, Simulation};
    use pcisim_kernel::testutil::{reseal, Requester, Responder, REQUESTER_PORT, RESPONDER_PORT};
    use pcisim_kernel::tick::ns;

    /// A configuration with deterministic quiet-wire timing (no
    /// opportunistic ACKs) for the latency arithmetic tests.
    fn quiet(config: LinkConfig) -> LinkConfig {
        LinkConfig { ack_opportunistic: false, ..config }
    }

    /// Wires requester → link upstream, responder → link downstream.
    fn build(
        config: LinkConfig,
        script: Vec<(Command, u64, u32)>,
        service: Tick,
    ) -> (Simulation, pcisim_kernel::testutil::CompletionLog) {
        build_with(PcieLink::new("link", config), script, service)
    }

    fn build_with(
        link: PcieLink,
        script: Vec<(Command, u64, u32)>,
        service: Tick,
    ) -> (Simulation, pcisim_kernel::testutil::CompletionLog) {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(link));
        let (resp, _) = Responder::new("dev", service);
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (d, RESPONDER_PORT));
        (sim, done)
    }

    #[test]
    fn single_write_timing_matches_wire_arithmetic() {
        // Gen2 x1: 84 B write = 168 ns down; 20 B response = 40 ns up;
        // 10 ns device service.
        let cfg = quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X1));
        let (mut sim, done) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], ns(10));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let done = done.borrow();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1, ns(168 + 10 + 40));
    }

    /// Events dispatched by `script` over `config`, under the on-demand
    /// kick rule and under the eager rule of earlier builds.
    fn event_counts(config: LinkConfig, script: Vec<(Command, u64, u32)>) -> (u64, u64) {
        let run = |eager| {
            let mut link = PcieLink::new("link", config.clone());
            link.set_kick_oracle(&KickOracle { eager, ..KickOracle::default() });
            let (mut sim, done) = build_with(link, script.clone(), 0);
            assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
            assert_eq!(done.borrow().len(), script.len());
            sim.events_processed()
        };
        (run(false), run(true))
    }

    #[test]
    fn one_posted_write_over_an_idle_link_costs_five_events() {
        // Requester issue, TLP arrival, responder service, ACK arrival and
        // the disarmed replay timer. The eager rule also woke each end's
        // idle transmitter once, after the TLP and after the ACK.
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let write = vec![(Command::Message, 0x4000_0000, 64)];
        assert_eq!(event_counts(cfg, write), (5, 7));
    }

    #[test]
    fn the_link_write_storm_dispatches_its_pinned_event_count() {
        // The `[M] pcie.link.*` scenario of the repo benchmark: 10 000
        // 64-byte writes over Gen 2 x8.
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X8);
        let storm =
            (0..10_000).map(|i| (Command::WriteReq, 0x4000_0000 + (i % 64) * 64, 64)).collect();
        assert_eq!(event_counts(cfg, storm), (83_092, 93_094));
    }

    /// Accepts every (posted) request and logs its id.
    struct OrderSink {
        name: &'static str,
        log: Rc<RefCell<Vec<PacketId>>>,
    }
    impl Component for OrderSink {
        fn name(&self) -> &str {
            self.name
        }
        fn recv_request(&mut self, _ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            self.log.borrow_mut().push(pkt.id());
            RecvResult::Accepted
        }
    }

    #[test]
    fn sequence_numbers_wrap_at_the_tag_width() {
        // Both directions start 3 below 2^28 and carry 10 posted writes.
        // The injector corrupts each end's third transmission (sequence
        // 2^28 - 1), so the NAK and the replay burst straddle the wrap.
        let cfg =
            LinkConfig { error_interval: 227, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let mut link = PcieLink::new("link", cfg);
        link.start_sequences_at(SEQ_MODULUS - 3);
        let writes = |base: u64| (0..10).map(|i| (Command::Message, base + i * 64, 64)).collect();
        let mut sim = Simulation::new();
        let (cpu, cpu_sent) = Requester::new("cpu", writes(0x4000_0000));
        let c = sim.add(Box::new(cpu));
        let l = sim.add(Box::new(link));
        let dev_log = Rc::new(RefCell::new(Vec::new()));
        let d = sim.add(Box::new(OrderSink { name: "dev", log: dev_log.clone() }));
        let (dma, dma_sent) = Requester::new("dma", writes(0x8000_0000));
        let m = sim.add(Box::new(dma));
        let mem_log = Rc::new(RefCell::new(Vec::new()));
        let h = sim.add(Box::new(OrderSink { name: "mem", log: mem_log.clone() }));
        sim.connect((c, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (d, PortId(0)));
        sim.connect((m, REQUESTER_PORT), (l, PORT_DOWN_SLAVE));
        sim.connect((l, PORT_UP_MASTER), (h, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let ids = |log: &pcisim_kernel::testutil::CompletionLog| {
            log.borrow().iter().map(|&(id, _)| id).collect::<Vec<_>>()
        };
        assert_eq!(*dev_log.borrow(), ids(&cpu_sent), "down: all 10, in order");
        assert_eq!(*mem_log.borrow(), ids(&dma_sent), "up: all 10, in order");
        let stats = sim.stats();
        for dir in ["down", "up"] {
            assert_eq!(stats.get(&format!("link.{dir}.rx_delivered")), Some(10.0));
            assert_eq!(stats.get(&format!("link.{dir}.rx_dropped_corrupt")), Some(1.0));
            assert_eq!(stats.get(&format!("link.{dir}.naks_rx")), Some(1.0));
            assert!(stats.get(&format!("link.{dir}.replays")).unwrap() >= 2.0, "{dir}");
        }
    }

    #[test]
    fn wider_link_is_proportionally_faster() {
        let cfg = quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X4));
        let (mut sim, done) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], ns(10));
        sim.run_to_quiesce();
        assert_eq!(done.borrow()[0].1, ns(42 + 10 + 10));
    }

    #[test]
    fn reads_carry_no_payload_down_but_full_payload_up() {
        let cfg = quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X1));
        let (mut sim, done) = build(cfg, vec![(Command::ReadReq, 0x4000_0000, 64)], 0);
        sim.run_to_quiesce();
        // 20 B req = 40 ns down, 84 B resp = 168 ns up.
        assert_eq!(done.borrow()[0].1, ns(40 + 168));
    }

    #[test]
    fn pipelined_writes_saturate_the_wire() {
        // 8 writes back to back: the wire serializes them at 168 ns each;
        // replay buffer of 4 with prompt ACKs keeps the pipe full.
        let cfg =
            LinkConfig { ack_immediate: true, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let script = (0..8).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, done) = build(cfg, script, 0);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 8);
        let stats = sim.stats();
        assert_eq!(stats.get("link.down.tlps_admitted"), Some(8.0));
        assert_eq!(stats.get("link.down.tlps_tx"), Some(8.0), "no replays expected");
        assert_eq!(stats.get("link.down.timeouts"), Some(0.0));
        // Wire time for 8 TLPs ≥ 8 * 168 ns.
        assert!(sim.now() >= ns(8 * 168));
    }

    #[test]
    fn acks_are_batched_behind_the_ack_timer() {
        // With opportunism off, every ACK waits for the timer: cumulative
        // acknowledgements cover several TLPs each.
        let cfg = quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X1));
        let script = (0..16).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, done) = build(cfg, script, 0);
        sim.run_to_quiesce();
        assert_eq!(done.borrow().len(), 16);
        let stats = sim.stats();
        let acks = stats.get("link.up.acks_tx").unwrap();
        assert!(acks < 16.0, "expected batched ACKs, saw {acks}");
        assert!(acks >= 1.0);
    }

    #[test]
    fn opportunistic_acks_fire_on_an_idle_wire() {
        // Default mode: a quiet reverse wire carries the ACK immediately,
        // one per TLP at this gentle rate.
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let script = (0..4).map(|i| (Command::ReadReq, 0x4000_0000 + i * 64, 4)).collect();
        let (mut sim, _) = build(cfg, script, ns(500));
        sim.run_to_quiesce();
        let stats = sim.stats();
        assert_eq!(stats.get("link.up.acks_tx"), Some(4.0));
    }

    #[test]
    fn immediate_ack_mode_acks_every_tlp() {
        let cfg =
            LinkConfig { ack_immediate: true, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let script = (0..8).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, _) = build(cfg, script, 0);
        sim.run_to_quiesce();
        let stats = sim.stats();
        assert_eq!(stats.get("link.up.acks_tx"), Some(8.0));
    }

    #[test]
    fn replay_buffer_throttles_the_source() {
        // Replay buffer of 1: at most one unacked TLP in flight, so the
        // requester gets refused and retried.
        let cfg = LinkConfig {
            replay_buffer_size: 1,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        };
        let script = (0..4).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, done) = build(cfg, script, 0);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 4, "source throttling must not lose packets");
        let stats = sim.stats();
        assert!(stats.get("link.down.admission_refusals").unwrap() > 0.0);
    }

    /// A sink that refuses everything until `accept_after` requests have
    /// been attempted, then accepts and responds instantly.
    struct StubbornSink {
        name: String,
        refusals_left: u32,
        blocked: VecDeque<Packet>,
        waiting: bool,
    }
    impl Component for StubbornSink {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _port: PortId, pkt: Packet) -> RecvResult {
            if self.refusals_left > 0 {
                self.refusals_left -= 1;
                return RecvResult::Refused(pkt);
            }
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::DelayedPacket { pkt, .. } = ev else { panic!() };
            self.blocked.push_back(pkt.into_response());
            if !self.waiting {
                while let Some(p) = self.blocked.pop_front() {
                    if let Err(back) = ctx.try_send_response(PortId(0), p) {
                        self.blocked.push_front(back);
                        self.waiting = true;
                        break;
                    }
                }
            }
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
            self.waiting = false;
            while let Some(p) = self.blocked.pop_front() {
                if let Err(back) = ctx.try_send_response(PortId(0), p) {
                    self.blocked.push_front(back);
                    self.waiting = true;
                    break;
                }
            }
        }
    }

    #[test]
    fn refused_delivery_recovers_via_replay_timeout() {
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::WriteReq, 0x4000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", cfg)));
        let s = sim.add(Box::new(StubbornSink {
            name: "sink".into(),
            refusals_left: 2,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "TLP must eventually deliver");
        let stats = sim.stats();
        assert_eq!(stats.get("link.down.rx_dropped_refused"), Some(2.0));
        assert!(stats.get("link.down.timeouts").unwrap() >= 2.0);
        assert!(stats.get("link.down.replays").unwrap() >= 2.0);
        // Delivery happened roughly after two replay timeouts.
        assert!(sim.now() >= 2 * replay_timeout(&LinkConfig::new(Generation::Gen2, LinkWidth::X1)));
    }

    #[test]
    fn injected_errors_recover_via_nak() {
        let cfg =
            LinkConfig { error_interval: 3, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let script = (0..9).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, done) = build(cfg, script, 0);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 9, "all TLPs must survive injected errors");
        let stats = sim.stats();
        assert!(stats.get("link.down.rx_dropped_corrupt").unwrap() > 0.0);
        assert!(stats.get("link.up.naks_tx").unwrap() > 0.0);
        assert!(stats.get("link.down.naks_rx").unwrap() > 0.0);
        assert!(stats.get("link.down.replays").unwrap() > 0.0);
    }

    #[test]
    fn dma_direction_works_symmetrically() {
        // Requester on the *device* side doing DMA upstream.
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("dev-dma", vec![(Command::WriteReq, 0x8000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", cfg)));
        let (resp, _) = Responder::new("mem", ns(30));
        let m = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (l, PORT_DOWN_SLAVE));
        sim.connect((l, PORT_UP_MASTER), (m, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        // 168 ns up + 30 ns service + 40 ns down.
        assert_eq!(done.borrow()[0].1, ns(168 + 30 + 40));
        let stats = sim.stats();
        assert_eq!(stats.get("link.up.tlps_tx"), Some(1.0));
        assert_eq!(stats.get("link.down.tlps_tx"), Some(1.0));
    }

    #[test]
    fn propagation_delay_adds_flight_time() {
        let cfg = quiet(LinkConfig {
            propagation_delay: ns(5),
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        });
        let (mut sim, done) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], 0);
        sim.run_to_quiesce();
        // 168 + 5 down, 40 + 5 up.
        assert_eq!(done.borrow()[0].1, ns(168 + 5 + 40 + 5));
    }

    #[test]
    fn cut_through_delivers_at_header_time() {
        // Store-and-forward: 84 B write = 168 ns to deliver; cut-through:
        // only the 20 B header (40 ns), though the wire stays busy 168 ns.
        let cfg = quiet(LinkConfig {
            cut_through: true,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        });
        let (mut sim, done) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], 0);
        sim.run_to_quiesce();
        // 40 ns down (header) + 0 + 40 ns up (response is header-only
        // anyway).
        assert_eq!(done.borrow()[0].1, ns(40 + 40));
    }

    #[test]
    fn cut_through_keeps_the_wire_serialized() {
        // Two back-to-back writes: deliveries at header time, but the
        // second transmission still waits for the first to clear the wire.
        let cfg = quiet(LinkConfig {
            cut_through: true,
            ack_immediate: true,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        });
        let script =
            vec![(Command::WriteReq, 0x4000_0000, 64), (Command::WriteReq, 0x4000_0040, 64)];
        let (mut sim, done) = build(cfg, script, 0);
        sim.run_to_quiesce();
        let done = done.borrow();
        // Second delivery trails the first by a full wire time (168 ns)
        // plus the ACK DLLP for the first response that the down wire
        // carries in between (16 ns) — not by the header time.
        assert_eq!(done[1].1 - done[0].1, ns(168 + 16));
    }

    #[test]
    fn delivery_latency_histogram_tracks_the_wire() {
        let cfg = quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X1));
        let (mut sim, _) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], 0);
        sim.run_to_quiesce();
        let stats = sim.stats();
        assert_eq!(stats.get("link.down.delivery_latency_ns.count"), Some(1.0));
        // 84 B at Gen 2 x1 = 168 ns admission-to-delivery on a quiet wire.
        assert_eq!(stats.get("link.down.delivery_latency_ns.mean"), Some(168.0));
    }

    #[test]
    fn congested_deliveries_show_inflated_latency() {
        // A refusing sink forces a replay timeout: the eventual delivery
        // latency includes the stall.
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let timeout = replay_timeout(&cfg);
        let mut sim = Simulation::new();
        let (req, _done) = Requester::new("cpu", vec![(Command::WriteReq, 0x4000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", cfg)));
        let s = sim.add(Box::new(StubbornSink {
            name: "sink".into(),
            refusals_left: 1,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        sim.run_to_quiesce();
        let stats = sim.stats();
        let mean = stats.get("link.down.delivery_latency_ns.mean").unwrap();
        assert!(
            mean >= pcisim_kernel::tick::to_ns(timeout),
            "latency must include the replay stall: {mean} ns vs timeout {} ns",
            pcisim_kernel::tick::to_ns(timeout)
        );
    }

    /// Refuses the first `refusals_left` deliveries but — unlike
    /// [`StubbornSink`] — honours the retry contract, granting one after
    /// each refusal. Credit-mode receivers rely on retries (nothing is
    /// dropped, so no replay timer will rescue a stuck delivery).
    struct RetryingSink {
        name: String,
        refusals_left: u32,
        blocked: VecDeque<Packet>,
        waiting: bool,
    }
    impl Component for RetryingSink {
        fn name(&self) -> &str {
            &self.name
        }
        fn recv_request(&mut self, ctx: &mut Ctx<'_>, _p: PortId, pkt: Packet) -> RecvResult {
            if self.refusals_left > 0 {
                self.refusals_left -= 1;
                ctx.schedule(ns(300), Event::Timer { kind: 9, data: 0 });
                return RecvResult::Refused(pkt);
            }
            ctx.schedule(0, Event::DelayedPacket { tag: 0, pkt });
            RecvResult::Accepted
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            match ev {
                Event::Timer { kind: 9, .. } => ctx.send_retry(PortId(0)),
                Event::DelayedPacket { pkt, .. } => {
                    self.blocked.push_back(pkt.into_response());
                    if !self.waiting {
                        while let Some(p) = self.blocked.pop_front() {
                            if let Err(back) = ctx.try_send_response(PortId(0), p) {
                                self.blocked.push_front(back);
                                self.waiting = true;
                                break;
                            }
                        }
                    }
                }
                _ => panic!(),
            }
        }
        fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _p: PortId) {
            self.waiting = false;
            while let Some(p) = self.blocked.pop_front() {
                if let Err(back) = ctx.try_send_response(PortId(0), p) {
                    self.blocked.push_front(back);
                    self.waiting = true;
                    break;
                }
            }
        }
    }

    #[test]
    fn credit_fc_never_drops_into_a_congested_port() {
        // Same stubborn sink as the replay-timeout test, but with credit
        // flow control: the link buffers instead of dropping, so zero
        // timeouts and zero refused deliveries.
        let cfg =
            LinkConfig { credit_fc: Some(8), ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let mut sim = Simulation::new();
        let script = (0..6).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", cfg)));
        let s = sim.add(Box::new(RetryingSink {
            name: "sink".into(),
            refusals_left: 3,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 6);
        let stats = sim.stats();
        assert_eq!(stats.get("link.down.timeouts"), Some(0.0), "credits avoid timeouts");
        assert_eq!(stats.get("link.down.replays"), Some(0.0));
        assert!(stats.get("link.up.updatefc_tx").unwrap() > 0.0, "credits must return");
    }

    #[test]
    fn credit_exhaustion_stalls_the_source() {
        // 2 credits, a very slow sink: the source gets stalled on credits,
        // not on the replay buffer.
        let cfg = LinkConfig {
            credit_fc: Some(2),
            replay_buffer_size: 8,
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        };
        let mut sim = Simulation::new();
        let script = (0..8).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let l = sim.add(Box::new(PcieLink::new("link", cfg)));
        let s = sim.add(Box::new(RetryingSink {
            name: "sink".into(),
            refusals_left: 6,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 8, "credit stalls must not lose packets");
        let stats = sim.stats();
        assert!(stats.get("link.down.credit_stalls").unwrap() > 0.0);
        assert_eq!(stats.get("link.down.rx_dropped_refused"), Some(0.0));
    }

    #[test]
    fn credit_fc_matches_acknak_on_an_uncongested_link() {
        // With an always-ready sink, both flow-control modes complete the
        // same workload; credits only change behaviour under congestion.
        let run = |credit: Option<usize>| {
            let cfg = LinkConfig {
                credit_fc: credit,
                ..quiet(LinkConfig::new(Generation::Gen2, LinkWidth::X1))
            };
            let script = (0..8).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
            let (mut sim, done) = build(cfg, script, 0);
            assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
            let n = done.borrow().len();
            n
        };
        assert_eq!(run(None), 8);
        assert_eq!(run(Some(16)), 8);
    }

    fn aer_cs() -> SharedConfigSpace {
        let mut cs = pcisim_pci::config::ConfigSpace::new();
        pcisim_pci::caps::write_aer_capability(&mut cs, 0x100, 0);
        pcisim_pci::config::shared(cs)
    }

    #[test]
    fn duplicate_tlps_are_reacked_immediately() {
        // A 600 ns flight time makes the first ACK arrive *after* the
        // 705.6 ns replay deadline: the sender replays a TLP the receiver
        // already delivered. The duplicate must trigger an immediate
        // cumulative re-ACK (not wait for a timer), and the run must
        // still converge with exactly one completion.
        let cfg = quiet(LinkConfig {
            propagation_delay: ns(600),
            ..LinkConfig::new(Generation::Gen2, LinkWidth::X1)
        });
        let (mut sim, done) = build(cfg, vec![(Command::WriteReq, 0x4000_0000, 64)], 0);
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1, "duplicates must not double-deliver");
        let stats = sim.stats();
        assert!(
            stats.get("link.down.rx_dropped_seq").unwrap() >= 1.0,
            "scenario must actually produce a duplicate"
        );
        // One ACK from the delivery, at least one more from the
        // duplicate's immediate re-ACK.
        assert!(stats.get("link.up.acks_tx").unwrap() >= 2.0, "duplicate must re-ACK");
        assert_eq!(stats.get("link.down.rx_delivered"), Some(1.0));
    }

    #[test]
    fn corrupt_tlps_latch_aer_at_the_receiving_end() {
        let up_cs = aer_cs();
        let down_cs = aer_cs();
        let cfg =
            LinkConfig { error_interval: 3, ..LinkConfig::new(Generation::Gen2, LinkWidth::X1) };
        let mut sim = Simulation::new();
        let script = (0..9).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (req, done) = Requester::new("cpu", script);
        let r = sim.add(Box::new(req));
        let mut link = PcieLink::new("link", cfg);
        link.attach_aer(Some(up_cs.clone()), Some(down_cs.clone()));
        let l = sim.add(Box::new(link));
        let (resp, _) = Responder::new("dev", 0);
        let d = sim.add(Box::new(resp));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (d, RESPONDER_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 9);
        let stats = sim.stats();
        assert!(stats.get("link.down.rx_dropped_corrupt").unwrap() > 0.0);
        // Downstream-bound corruption is detected by the downstream
        // interface: Receiver Error + Bad TLP latch there.
        let (_, cor_bits) = pcisim_pci::caps::aer_status(&down_cs.borrow());
        assert_eq!(
            cor_bits & (cor::RECEIVER_ERROR | cor::BAD_TLP),
            cor::RECEIVER_ERROR | cor::BAD_TLP,
            "receiving end must log the corrupt TLP"
        );
    }

    #[test]
    fn replay_timeout_latches_aer_at_the_transmitter() {
        let up_cs = aer_cs();
        let down_cs = aer_cs();
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::WriteReq, 0x4000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let mut link = PcieLink::new("link", cfg);
        link.attach_aer(Some(up_cs.clone()), Some(down_cs.clone()));
        let l = sim.add(Box::new(link));
        let s = sim.add(Box::new(StubbornSink {
            name: "sink".into(),
            refusals_left: 2,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        // The down direction is transmitted by the upstream interface:
        // its AER block logs the replay-timer expiries.
        let (_, cor_bits) = pcisim_pci::caps::aer_status(&up_cs.borrow());
        assert_ne!(cor_bits & cor::REPLAY_TIMER_TIMEOUT, 0);
        // Two replays without progress do not roll the 2-bit REPLAY_NUM.
        assert_eq!(cor_bits & cor::REPLAY_NUM_ROLLOVER, 0);
        // The receiving end saw no corrupt TLPs, only refusals.
        let (_, down_cor) = pcisim_pci::caps::aer_status(&down_cs.borrow());
        assert_eq!(down_cor & cor::BAD_TLP, 0);
    }

    #[test]
    fn four_consecutive_replays_roll_replay_num_over() {
        let up_cs = aer_cs();
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("cpu", vec![(Command::WriteReq, 0x4000_0000, 64)]);
        let r = sim.add(Box::new(req));
        let mut link = PcieLink::new("link", cfg);
        link.attach_aer(Some(up_cs.clone()), None);
        let l = sim.add(Box::new(link));
        let s = sim.add(Box::new(StubbornSink {
            name: "sink".into(),
            refusals_left: 4,
            blocked: VecDeque::new(),
            waiting: false,
        }));
        sim.connect((r, REQUESTER_PORT), (l, PORT_UP_SLAVE));
        sim.connect((l, PORT_DOWN_MASTER), (s, PortId(0)));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(done.borrow().len(), 1);
        let (_, cor_bits) = pcisim_pci::caps::aer_status(&up_cs.borrow());
        assert_ne!(
            cor_bits & cor::REPLAY_NUM_ROLLOVER,
            0,
            "four consecutive replay events must latch the rollover"
        );
    }

    #[test]
    fn restore_cross_checks_custody_between_the_ends() {
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let restore = |link: &PcieLink| {
            let mut w = StateWriter::new();
            link.save_state(&mut w);
            let bytes = w.into_bytes();
            PcieLink::new("link", cfg.clone()).restore_state(&mut StateReader::new(&bytes))
        };
        let mut link = PcieLink::new("link", cfg.clone());
        let write = |n| {
            Packet::request(PacketId(n), Command::WriteReq, 0x4000_0000, 64, ComponentId(0))
                .with_payload(vec![0; 64])
        };
        link.ends[0].st.tx.admit(write(0));
        link.ends[0].st.tx.admit(write(1));
        assert_eq!(restore(&link), Ok(()), "both TLPs held, receiver expects 0");
        // The downstream end took TLP 0 and has not delivered it: it is in
        // neither place.
        let (_, taken) = link.ends[0].st.tx.take(0).expect("held");
        assert!(matches!(restore(&link), Err(SnapshotError::Corrupt(_))));
        // Delivered: the receiver has moved past it.
        link.ends[1].st.rx.advance();
        assert_eq!(restore(&link), Ok(()));
        // A receiver past a TLP the buffer still holds is corrupt too.
        link.ends[0].st.tx.put_back(0, taken);
        assert!(matches!(restore(&link), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn restore_rejects_timers_the_link_would_panic_on() {
        // After the requester's first event the write is on the wire: the
        // downstream end expects TLP 0, which the upstream end holds, and
        // its arrival timer is queued for the link (component 1).
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let script = vec![(Command::WriteReq, 0x4000_0000, 64)];
        let fresh = || build(cfg.clone(), script.clone(), ns(10)).0;
        let mut sim = fresh();
        assert_eq!(sim.run(Tick::MAX, 1), RunOutcome::EventLimit);
        let snap = sim.checkpoint();
        let timer = |kind: u32| {
            let mut entry = 1u32.to_le_bytes().to_vec();
            entry.push(0);
            entry.extend(kind.to_le_bytes());
            entry
        };
        let arrive = |dir: Dir, seq: u32| K_TLP_ARRIVE + dir as u32 + (seq << KIND_BITS);
        let found = timer(arrive(Dir::Down, 0));
        let at = (0..snap.len() - found.len())
            .filter(|&i| snap[i..i + found.len()] == found)
            .collect::<Vec<_>>();
        assert_eq!(at.len(), 1, "one queued arrival of TLP 0");
        let patched = |kind: u32| {
            let mut bytes = snap.clone();
            bytes[at[0]..at[0] + found.len()].copy_from_slice(&timer(kind));
            reseal(&mut bytes);
            fresh().restore(&bytes)
        };
        assert_eq!(patched(arrive(Dir::Down, 0)), Ok(()));
        assert_eq!(
            patched(K_TLP_CORRUPT + Dir::Up as u32),
            Ok(()),
            "a corrupt arrival takes nothing"
        );
        assert_eq!(patched(arrive(Dir::Down, 1)), Ok(()), "an unexpected TLP is dropped");
        for (kind, what) in [
            (12, "an unknown kind"),
            (arrive(Dir::Up, 0), "TLP 0 upstream, which the downstream end never sent"),
        ] {
            let err = patched(kind).expect_err(what);
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{what}: {err:?}");
        }
    }

    #[test]
    fn utilization_counter_tracks_wire_time() {
        let cfg = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let script = (0..4).map(|i| (Command::WriteReq, 0x4000_0000 + i * 64, 64)).collect();
        let (mut sim, _) = build(cfg, script, 0);
        sim.run_to_quiesce();
        let stats = sim.stats();
        // 4 TLPs * 168 ns of TLP time, plus DLLP time.
        assert!(stats.get("link.down.busy_ticks").unwrap() >= (4 * ns(168)) as f64);
    }
}
