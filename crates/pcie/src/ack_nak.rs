//! ACK/NAK protocol state: replay buffer and timer arithmetic.
//!
//! The data link layer guarantees in-order, reliable TLP delivery across a
//! link. The sender keeps transmitted TLPs in a **replay buffer** until a
//! cumulative ACK arrives; a **replay timer** retransmits the whole buffer
//! on timeout; the receiver batches acknowledgements behind an **ACK
//! timer** set to a third of the replay timeout (paper §V-C).
//!
//! The replay-timeout interval follows the PCI-Express specification
//! formula the paper quotes, in symbol times:
//!
//! ```text
//! ((MaxPayloadSize + TLPOverhead) / Width * AckFactor + InternalDelay) * 3
//!     + RxL0sAdjustment
//! ```
//!
//! with `InternalDelay = RxL0sAdjustment = 0` as in the paper.

use std::collections::VecDeque;

use pcisim_kernel::packet::{Command, Packet, PacketId};
use pcisim_kernel::snapshot::{SnapshotError, State};
use pcisim_kernel::state_fields;
use pcisim_kernel::tick::Tick;

use crate::params::LinkConfig;
use crate::tlp::TLP_OVERHEAD_BYTES;

/// Sequence numbers count modulo 2^28, the width of the sequence field a
/// TLP carries across the wire (the link's event tag), so a long run wraps
/// around instead of exhausting it. (Real hardware counts modulo 2^12; the
/// wider space only has to exceed twice any replay window.)
pub(crate) const SEQ_MODULUS: u32 = 1 << 28;

/// The sequence number after `seq`.
fn seq_next(seq: u32) -> u32 {
    seq.wrapping_add(1) & (SEQ_MODULUS - 1)
}

/// The sequence number before `seq`.
pub(crate) fn seq_prev(seq: u32) -> u32 {
    seq.wrapping_sub(1) & (SEQ_MODULUS - 1)
}

/// AckFactor from the specification's replay-timer table, scaled by 10 to
/// stay in integers. Indexed by link width and max payload size; the values
/// grow with payload (larger packets amortize ACK traffic) and with very
/// wide links (per-lane ACK latency dominates).
pub fn ack_factor_x10(lanes: u8, max_payload: u32) -> u64 {
    let payload_idx = match max_payload {
        0..=128 => 0,
        129..=256 => 1,
        257..=512 => 2,
        513..=1024 => 3,
        1025..=2048 => 4,
        _ => 5,
    };
    let row: [u64; 6] = match lanes {
        1 | 2 => [14, 14, 14, 25, 40, 40],
        4 => [14, 14, 14, 25, 40, 40],
        8 => [25, 25, 25, 25, 40, 40],
        12 | 16 => [30, 30, 30, 30, 40, 40],
        // x32 has its own row in the spec's table: per-lane ACK latency
        // dominates at the widest link even for small payloads.
        _ => [40, 40, 40, 40, 40, 40],
    };
    row[payload_idx]
}

/// Replay-timer timeout for `config`, in ticks.
///
/// When `config.scale_timeout_with_width` is false, the formula is
/// evaluated at x1 — the timeout does not shrink with lane count. This is
/// an exploration knob for studying how timeout sizing interacts with the
/// congestion dynamics of Figs. 9(b)–(d); the default follows the
/// specification text.
pub fn replay_timeout(config: &LinkConfig) -> Tick {
    let lanes = if config.scale_timeout_with_width { config.width.lanes() } else { 1 };
    let symbols_x10 = (u64::from(config.max_payload) + u64::from(TLP_OVERHEAD_BYTES))
        * ack_factor_x10(lanes, config.max_payload)
        / u64::from(lanes);
    // * 3, then scale the x10 fixed point away; round up to a whole tick.
    (symbols_x10 * 3 * config.symbol_time()).div_ceil(10)
}

/// ACK-timer period: one third of the **width-scaled** replay-timeout
/// formula (paper §V-C). Acknowledgement batching tracks the wire rate
/// even when the replay timeout itself is width-invariant, otherwise wide
/// links would be acknowledgement-starved.
pub fn ack_timeout(config: &LinkConfig) -> Tick {
    let lanes = config.width.lanes();
    let symbols_x10 = (u64::from(config.max_payload) + u64::from(TLP_OVERHEAD_BYTES))
        * ack_factor_x10(lanes, config.max_payload)
        / u64::from(lanes);
    (symbols_x10 * 3 * config.symbol_time()).div_ceil(10) / 3
}

/// What the transmitter needs to put a held TLP on the wire: its sequence
/// number and the header fields the wire time and the trace records need.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frame {
    /// Sequence number.
    pub seq: u32,
    /// The TLP's packet id.
    pub id: PacketId,
    /// The TLP's command.
    pub cmd: Command,
    /// Payload bytes, which size the frame on the wire.
    pub payload_len: u32,
}

/// One unacknowledged TLP. The packet is `None` while the receiving end
/// holds it: taken on in-sequence arrival, put back if delivery is
/// refused, released by the ACK once delivered.
#[derive(Debug, Default)]
struct Entry {
    frame: Frame,
    /// Admission tick, for the receiver's delivery-latency histogram.
    admitted: Tick,
    pkt: Option<Packet>,
}

/// Sequence number, admission tick, header fields, then the packet if held.
impl State for Entry {
    state_fields!(state self;
        frame.seq, admitted, frame.id, frame.cmd, frame.payload_len, pkt,
        // Validation only: a held packet must match its header fields.
        save(_w) {}
        load(_r) {
            let f = &self.frame;
            if let Some(p) = self.pkt.as_ref().filter(|p| {
                (p.id(), p.cmd(), p.payload_len()) != (f.id, f.cmd, f.payload_len)
            }) {
                return Err(SnapshotError::Corrupt(format!(
                    "replay entry {} holds {} but records {} {:?} with {} payload bytes",
                    f.seq, p, f.id, f.cmd, f.payload_len
                )));
            }
        },
    );
}

/// The sender half of the ACK/NAK protocol for one unidirectional link.
///
/// The one owner of each TLP from admission until the receiving end
/// delivers it: the wire carries only sequence numbers. Holds
/// unacknowledged TLPs in sequence order plus a cursor separating
/// already-transmitted entries from those still waiting for the wire.
#[derive(Debug)]
pub struct ReplayBuffer {
    entries: VecDeque<Entry>,
    capacity: usize,
    /// Index of the next entry to (re)transmit.
    next_tx: usize,
    /// Set between a timeout/NAK and the cursor catching back up; while
    /// set, the transaction layer is refused (paper: the data link layer
    /// "stops accepting packets from the transaction layer during
    /// retransmission").
    replaying: bool,
    next_seq: u32,
}

impl ReplayBuffer {
    /// Creates a replay buffer holding at most `capacity` TLPs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay buffer must hold at least one TLP");
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            next_tx: 0,
            replaying: false,
            next_seq: 0,
        }
    }

    /// Whether a new TLP from the transaction layer can be admitted.
    pub fn can_admit(&self) -> bool {
        !self.replaying && self.entries.len() < self.capacity
    }

    /// Admits a TLP at time `now`, assigning it the next sequence number.
    ///
    /// # Panics
    ///
    /// Panics when [`ReplayBuffer::can_admit`] is false.
    pub fn admit_at(&mut self, now: Tick, pkt: Packet) -> u32 {
        assert!(self.can_admit(), "replay buffer full or replaying");
        let seq = self.next_seq;
        self.next_seq = seq_next(seq);
        let frame = Frame { seq, id: pkt.id(), cmd: pkt.cmd(), payload_len: pkt.payload_len() };
        self.entries.push_back(Entry { frame, admitted: now, pkt: Some(pkt) });
        seq
    }

    /// Admits a TLP with no timestamp (tests and timestamp-free callers).
    ///
    /// # Panics
    ///
    /// Panics when [`ReplayBuffer::can_admit`] is false.
    pub fn admit(&mut self, pkt: Packet) -> u32 {
        self.admit_at(0, pkt)
    }

    /// The next TLP to put on the wire, if any. The packet stays here.
    pub fn next_to_transmit(&self) -> Option<Frame> {
        self.entries.get(self.next_tx).map(|e| e.frame)
    }

    /// Marks the head-of-cursor TLP as transmitted.
    ///
    /// # Panics
    ///
    /// Panics when nothing was pending transmission.
    pub fn mark_transmitted(&mut self) {
        assert!(self.next_tx < self.entries.len(), "nothing pending transmission");
        self.next_tx += 1;
        if self.next_tx == self.entries.len() {
            self.replaying = false;
        }
    }

    /// The index of the entry with sequence number `seq`. Entries hold
    /// consecutive sequence numbers (restore checks it).
    fn index_of(&self, seq: u32) -> Option<usize> {
        let front = self.entries.front()?.frame.seq;
        let i = (seq.wrapping_sub(front) & (SEQ_MODULUS - 1)) as usize;
        (i < self.entries.len()).then_some(i)
    }

    /// Whether the TLP with sequence number `seq` is held, ready for the
    /// receiving end to [`take`](Self::take).
    pub(crate) fn holds(&self, seq: u32) -> bool {
        self.index_of(seq).is_some_and(|i| self.entries[i].pkt.is_some())
    }

    /// Hands the TLP with sequence number `seq` to the receiving end,
    /// with its admission tick; `None` when it is not held or already out.
    pub(crate) fn take(&mut self, seq: u32) -> Option<(Tick, Packet)> {
        let i = self.index_of(seq)?;
        let entry = &mut self.entries[i];
        Some((entry.admitted, entry.pkt.take()?))
    }

    /// Returns a TLP whose delivery the receiving end's port refused; it
    /// stays held until a replay delivers it.
    ///
    /// # Panics
    ///
    /// Panics when `seq` is not held or its packet was never taken.
    pub(crate) fn put_back(&mut self, seq: u32, pkt: Packet) {
        let i = self.index_of(seq).expect("refused TLP is no longer held");
        let slot = &mut self.entries[i].pkt;
        assert!(slot.is_none(), "refused TLP {seq} was never taken");
        *slot = Some(pkt);
    }

    /// Checks custody against the peer receiver, which expects `expected`
    /// next: a TLP is out of the buffer exactly when the receiver took it,
    /// that is when its sequence number lies behind `expected`.
    pub(crate) fn check_custody(&self, expected: u32) -> Result<(), SnapshotError> {
        for e in &self.entries {
            let taken = !seq_le(expected, e.frame.seq);
            if taken != e.pkt.is_none() {
                let (seq, held) = (e.frame.seq, e.pkt.is_some());
                return Err(SnapshotError::Corrupt(format!(
                    "replay entry {seq} (TLP held: {held}) disagrees with the peer receiver \
                     expecting {expected}"
                )));
            }
        }
        Ok(())
    }

    /// Processes a cumulative ACK: drops every entry with sequence number
    /// ≤ `seq`. Returns how many entries were released.
    pub fn ack(&mut self, seq: u32) -> usize {
        let mut released = 0;
        while let Some(front) = self.entries.front() {
            if seq_le(front.frame.seq, seq) {
                self.entries.pop_front();
                released += 1;
            } else {
                break;
            }
        }
        self.next_tx = self.next_tx.saturating_sub(released);
        if self.next_tx >= self.entries.len() {
            self.replaying = false;
        }
        released
    }

    /// Processes a NAK: entries ≤ `seq` are acknowledged, the rest rewind
    /// for retransmission. Returns how many TLPs will be replayed.
    pub fn nak(&mut self, seq: u32) -> usize {
        self.ack(seq);
        self.rewind()
    }

    /// Replay-timeout action: rewind the cursor so every held TLP
    /// retransmits. Returns how many TLPs will be replayed.
    pub fn rewind(&mut self) -> usize {
        self.next_tx = 0;
        self.replaying = !self.entries.is_empty();
        self.entries.len()
    }

    /// Number of unacknowledged TLPs held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no TLPs are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a retransmission burst is in progress.
    pub fn is_replaying(&self) -> bool {
        self.replaying
    }

    /// Whether TLPs are waiting for the wire.
    pub fn has_pending_tx(&self) -> bool {
        self.next_tx < self.entries.len()
    }
}

/// The sequence space as a bound for [`state_fields!`]'s index form.
const SEQ_SPACE: usize = SEQ_MODULUS as usize;

/// Entries, cursor and sequence counter; the capacity is configuration.
impl State for ReplayBuffer {
    state_fields!(state self;
        entries,
        next_tx: index < self.entries.len() + 1,
        replaying,
        next_seq: index < SEQ_SPACE,
        // Validation only: the capacity is the fresh build's, and the held
        // sequence numbers run consecutively up to the one before
        // `next_seq`.
        save(_w) {}
        load(_r) {
            if self.entries.len() > self.capacity {
                return Err(SnapshotError::Corrupt(format!(
                    "replay buffer holds {} TLPs but capacity is {}",
                    self.entries.len(),
                    self.capacity
                )));
            }
            let first = self.next_seq.wrapping_sub(self.entries.len() as u32) & (SEQ_MODULUS - 1);
            let mut want = first;
            for e in &self.entries {
                if e.frame.seq != want {
                    return Err(SnapshotError::Corrupt(format!(
                        "replay entry {} where sequence {want} belongs",
                        e.frame.seq
                    )));
                }
                want = seq_next(want);
            }
        },
    );
}

/// Sequence comparison modulo [`SEQ_MODULUS`] (window comparison, as the
/// 12-bit hardware counters do): `a ≤ b` when `b` is less than half the
/// sequence space ahead of `a`. Equivalently, values half the space or
/// more "ahead" are interpreted as being behind — which is what makes the
/// NAK of `seq_prev(0)` from a receiver that has seen nothing yet release
/// no live entries (0, 1, 2… are all *ahead* of it).
pub(crate) fn seq_le(a: u32, b: u32) -> bool {
    b.wrapping_sub(a) & (SEQ_MODULUS - 1) < SEQ_MODULUS / 2
}

/// The receiver half: tracks the next expected sequence number.
#[derive(Debug, Default)]
pub struct RxState {
    next_seq: u32,
    /// Whether anything was received yet — the counter alone cannot say,
    /// since it wraps back to 0.
    received_any: bool,
}

impl RxState {
    /// Creates a receiver expecting sequence 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sequence number the receiver expects next.
    pub fn expected(&self) -> u32 {
        self.next_seq
    }

    /// Whether `seq` is the expected in-order TLP.
    pub fn accepts(&self, seq: u32) -> bool {
        seq == self.next_seq
    }

    /// Advances past a successfully delivered TLP; returns the sequence
    /// number to acknowledge.
    pub fn advance(&mut self) -> u32 {
        let acked = self.next_seq;
        self.next_seq = seq_next(acked);
        self.received_any = true;
        acked
    }

    /// The cumulative-ACK value for everything received so far, if
    /// anything was received.
    pub fn last_received(&self) -> Option<u32> {
        self.received_any.then(|| seq_prev(self.next_seq))
    }
}

impl State for RxState {
    state_fields!(state self; next_seq: index < SEQ_SPACE, received_any);
}

#[cfg(test)]
impl ReplayBuffer {
    /// Starts an empty buffer's sequence counter at `seq` (wrap tests).
    pub(crate) fn start_sequence_at(&mut self, seq: u32) {
        assert!(self.entries.is_empty() && seq < SEQ_MODULUS);
        self.next_seq = seq;
    }
}

#[cfg(test)]
impl RxState {
    /// Starts a fresh receiver expecting `seq` (wrap tests).
    pub(crate) fn start_sequence_at(&mut self, seq: u32) {
        assert!(!self.received_any && seq < SEQ_MODULUS);
        self.next_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Generation, LinkConfig, LinkWidth};
    use pcisim_kernel::component::ComponentId;
    use pcisim_kernel::snapshot::{StateReader, StateWriter};
    use pcisim_kernel::tick::ns;

    fn pkt(n: u64) -> Packet {
        Packet::request(PacketId(n), Command::WriteReq, 0x4000_0000, 64, ComponentId(0))
            .with_payload(vec![0; 64])
    }

    #[test]
    fn timeout_formula_gen2_x1_64b_payload() {
        // (64 + 20) / 1 * 1.4 * 3 = 352.8 symbols; Gen 2 symbol = 2 ns
        // -> 705.6 ns, rounded up to the tick.
        let c = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        assert_eq!(replay_timeout(&c), ns(7056) / 10 + 1 - 1); // 705600 ps
        assert_eq!(replay_timeout(&c), 705_600);
        assert_eq!(ack_timeout(&c), 235_200);
    }

    #[test]
    fn timeout_shrinks_with_width() {
        let x1 = LinkConfig::new(Generation::Gen2, LinkWidth::X1);
        let x4 = LinkConfig::new(Generation::Gen2, LinkWidth::X4);
        let x8 = LinkConfig::new(Generation::Gen2, LinkWidth::X8);
        assert!(replay_timeout(&x4) < replay_timeout(&x1));
        // x8 divides by 8 but uses a larger ack factor (2.5 vs 1.4).
        assert!(replay_timeout(&x8) < replay_timeout(&x4));
    }

    #[test]
    fn ack_factor_table_shape() {
        // Grows with payload...
        assert!(ack_factor_x10(1, 4096) > ack_factor_x10(1, 64));
        // ...and from x4 to x8 to x32 per the spec's table.
        assert!(ack_factor_x10(8, 64) > ack_factor_x10(4, 64));
        assert!(ack_factor_x10(32, 64) > ack_factor_x10(16, 64));
        assert_eq!(ack_factor_x10(1, 64), 14);
        assert_eq!(ack_factor_x10(16, 64), 30);
        // x32 is its own row, not a copy of the x12/x16 one.
        assert_eq!(ack_factor_x10(32, 64), 40);
        assert_eq!(ack_factor_x10(32, 4096), 40);
    }

    #[test]
    fn replay_buffer_admission_and_capacity() {
        let mut rb = ReplayBuffer::new(2);
        assert!(rb.can_admit());
        assert_eq!(rb.admit(pkt(0)), 0);
        assert_eq!(rb.admit(pkt(1)), 1);
        assert!(!rb.can_admit(), "full buffer must throttle the source");
        assert_eq!(rb.len(), 2);
    }

    #[test]
    fn transmit_cursor_walks_the_buffer() {
        let mut rb = ReplayBuffer::new(4);
        rb.admit(pkt(0));
        rb.admit(pkt(1));
        let f0 = rb.next_to_transmit().unwrap();
        assert_eq!(
            (f0.seq, f0.id, f0.cmd, f0.payload_len),
            (0, PacketId(0), Command::WriteReq, 64)
        );
        rb.mark_transmitted();
        assert_eq!(rb.next_to_transmit().unwrap().seq, 1);
        rb.mark_transmitted();
        assert!(rb.next_to_transmit().is_none());
        assert!(!rb.has_pending_tx());
        assert_eq!(rb.len(), 2, "transmitted TLPs stay until acked");
    }

    #[test]
    fn cumulative_ack_releases_prefix() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..4 {
            rb.admit(pkt(i));
            rb.mark_transmitted();
        }
        assert_eq!(rb.ack(1), 2);
        assert_eq!(rb.len(), 2);
        assert!(rb.can_admit());
        assert_eq!(rb.ack(3), 2);
        assert!(rb.is_empty());
    }

    #[test]
    fn timeout_rewind_replays_everything_and_blocks_admission() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..3 {
            rb.admit(pkt(i));
            rb.mark_transmitted();
        }
        assert_eq!(rb.rewind(), 3);
        assert!(rb.is_replaying());
        assert!(!rb.can_admit(), "no new TLPs during retransmission");
        // Replay in order.
        for want in 0..3 {
            assert_eq!(rb.next_to_transmit().unwrap().seq, want);
            rb.mark_transmitted();
        }
        assert!(!rb.is_replaying());
        assert!(rb.can_admit());
    }

    #[test]
    fn ack_during_replay_skips_released_entries() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..3 {
            rb.admit(pkt(i));
            rb.mark_transmitted();
        }
        rb.rewind();
        rb.ack(0); // first entry acked mid-replay
        assert_eq!(
            rb.next_to_transmit().unwrap().seq,
            1,
            "replay resumes at the first unacked TLP"
        );
    }

    #[test]
    fn nak_acks_prefix_and_replays_rest() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..4 {
            rb.admit(pkt(i));
            rb.mark_transmitted();
        }
        let replayed = rb.nak(1);
        assert_eq!(replayed, 2);
        assert_eq!(rb.next_to_transmit().unwrap().seq, 2);
    }

    #[test]
    fn nak_before_any_receipt_rewinds_everything() {
        // A receiver that has accepted nothing NAKs `expected() - 1`,
        // which wraps to 2^28 - 1. The window comparison puts that value
        // *behind* every live sequence number, so the wrapped NAK must
        // acknowledge nothing and rewind the whole buffer.
        let mut rb = ReplayBuffer::new(4);
        for i in 0..3 {
            rb.admit(pkt(i));
            rb.mark_transmitted();
        }
        let replayed = rb.nak(seq_prev(0));
        assert_eq!(replayed, 3, "wrapped NAK must replay everything");
        assert_eq!(rb.len(), 3, "wrapped NAK must release nothing");
        assert_eq!(
            rb.next_to_transmit().unwrap().seq,
            0,
            "replay restarts from the first held TLP"
        );
    }

    #[test]
    fn empty_rewind_is_not_a_replay() {
        let mut rb = ReplayBuffer::new(2);
        assert_eq!(rb.rewind(), 0);
        assert!(!rb.is_replaying());
        assert!(rb.can_admit());
    }

    #[test]
    fn rx_state_tracks_in_order_delivery() {
        let mut rx = RxState::new();
        assert_eq!(rx.expected(), 0);
        assert!(rx.accepts(0));
        assert!(!rx.accepts(1));
        assert_eq!(rx.last_received(), None);
        assert_eq!(rx.advance(), 0);
        assert_eq!(rx.expected(), 1);
        assert_eq!(rx.last_received(), Some(0));
    }

    #[test]
    fn seq_comparison_survives_wraparound() {
        let max = SEQ_MODULUS - 1;
        assert_eq!(seq_prev(0), max);
        assert!(seq_le(max, 0));
        assert!(seq_le(max - 1, 1));
        assert!(!seq_le(1, max));
        let mut rb = ReplayBuffer::new(2);
        rb.start_sequence_at(max);
        assert_eq!(rb.admit(pkt(0)), max);
        assert_eq!(rb.admit(pkt(1)), 0, "the counter wraps at 2^28");
        rb.mark_transmitted();
        rb.mark_transmitted();
        assert_eq!(rb.ack(0), 2, "ack of wrapped seq 0 covers seq 2^28 - 1 too");
    }

    #[test]
    fn receiver_wrapping_to_zero_still_reports_its_last_seq() {
        let mut rx = RxState::new();
        rx.start_sequence_at(SEQ_MODULUS - 1);
        assert_eq!(rx.last_received(), None);
        assert_eq!(rx.advance(), SEQ_MODULUS - 1);
        assert_eq!(rx.expected(), 0);
        assert_eq!(rx.last_received(), Some(SEQ_MODULUS - 1));
    }

    #[test]
    fn the_buffer_lends_each_tlp_to_the_receiver_and_takes_refusals_back() {
        let mut rb = ReplayBuffer::new(4);
        rb.admit_at(ns(1), pkt(0));
        rb.admit_at(ns(2), pkt(1));
        assert!(rb.take(2).is_none(), "sequence 2 was never admitted");
        let (admitted, first) = rb.take(0).expect("held");
        assert_eq!((admitted, first), (ns(1), pkt(0)));
        assert!(rb.take(0).is_none(), "one TLP, one owner");
        assert_eq!(rb.next_to_transmit().unwrap().id, PacketId(0), "replays need no packet");
        let (_, second) = rb.take(1).expect("held");
        rb.put_back(1, second);
        assert_eq!(rb.check_custody(1), Ok(()), "0 taken, 1 back in the buffer");
        assert_eq!(rb.ack(0), 1, "the ACK releases the taken entry");
        assert_eq!(rb.take(1).expect("held again").1, pkt(1));
    }

    #[test]
    #[should_panic(expected = "never taken")]
    fn putting_back_a_tlp_that_is_still_held_panics() {
        let mut rb = ReplayBuffer::new(2);
        rb.admit(pkt(0));
        rb.put_back(0, pkt(0));
    }

    #[test]
    fn custody_must_match_the_receivers_expected_sequence() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..3 {
            rb.admit(pkt(i));
        }
        assert_eq!(rb.check_custody(0), Ok(()));
        let err = rb.check_custody(1).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "the receiver cannot hold 0: {err:?}");
        let _ = rb.take(0);
        assert_eq!(rb.check_custody(1), Ok(()));
        let err = rb.check_custody(0).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "0 is in neither place: {err:?}");
    }

    #[test]
    fn replay_buffer_codec_survives_hostile_bytes() {
        let mut rb = ReplayBuffer::new(4);
        rb.start_sequence_at(SEQ_MODULUS - 1);
        for i in 0..3 {
            rb.admit_at(ns(i), pkt(i));
        }
        rb.mark_transmitted();
        let _ = rb.take(SEQ_MODULUS - 1);
        pcisim_kernel::testutil::check_state_codec(&rb, || ReplayBuffer::new(4));
    }

    #[test]
    fn restore_rejects_gapped_sequences_and_mismatched_headers() {
        let load = |rb: &ReplayBuffer| {
            let mut w = StateWriter::new();
            rb.save(&mut w);
            let bytes = w.into_bytes();
            ReplayBuffer::new(4).load(&mut StateReader::new(&bytes))
        };
        let mut rb = ReplayBuffer::new(4);
        rb.admit(pkt(0));
        rb.admit(pkt(1));
        assert_eq!(load(&rb), Ok(()));
        rb.entries[1].frame.seq = 5;
        assert!(matches!(load(&rb), Err(SnapshotError::Corrupt(_))), "gap in the sequence");
        rb.entries[1].frame.seq = 1;
        rb.entries[1].frame.payload_len = 4;
        assert!(matches!(load(&rb), Err(SnapshotError::Corrupt(_))), "header disagrees");
    }

    #[test]
    fn out_of_space_sequence_numbers_are_rejected_on_restore() {
        let mut w = StateWriter::new();
        w.u32(SEQ_MODULUS);
        w.bool(true);
        let bytes = w.into_bytes();
        let err = RxState::new().load(&mut StateReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }
}
