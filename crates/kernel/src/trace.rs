//! Structured event tracing with per-TLP lifecycle spans.
//!
//! The kernel's statistics ([`crate::stats`]) aggregate over a whole run;
//! this module records *individual* events so a run can be explored after
//! the fact: where a TLP spent its time, when a link replayed, how full a
//! port buffer was. Three pieces:
//!
//! * [`Tracer`] — a bounded ring buffer of typed [`TraceEvent`] records
//!   with a per-[`TraceCategory`] enable mask. When no category is
//!   enabled a tracepoint is a single relaxed flag load — effectively
//!   free — so instrumented components pay nothing in normal runs.
//! * Custody ("hop") events — the simulation kernel itself records every
//!   accepted packet delivery (see
//!   [`Ctx::try_send_request`](crate::sim::Ctx::try_send_request)), so a
//!   packet's position in the fabric is known at every instant without
//!   any component cooperation. Consecutive hops partition a request's
//!   end-to-end latency exactly, which is what makes the
//!   [latency attribution](TraceLog::attribution) sum to the measured
//!   round trip.
//! * Exporters — [`TraceLog::to_perfetto_json`] renders the Chrome
//!   trace-event format that <https://ui.perfetto.dev> loads (one track
//!   per component, duration slices per custody interval, instants for
//!   protocol events, counter tracks for buffer occupancy), and
//!   [`TraceLog::attribution`] reconstructs each request's lifecycle as a
//!   per-stage latency breakdown in the shape of the paper's Table II.
//!
//! ```
//! use pcisim_kernel::trace::{TraceCategory, Tracer};
//! let tracer = Tracer::new();
//! assert!(!tracer.wants(TraceCategory::Link)); // disabled by default
//! tracer.set_mask(TraceCategory::ALL);
//! assert!(tracer.wants(TraceCategory::Link));
//! ```

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use crate::component::ComponentId;
use crate::packet::{Command, PacketId};
use crate::snapshot::{SnapshotError, StateReader, StateWriter};
use crate::tick::{to_ns, Tick};

/// Coarse event classes, individually enabled in the [`Tracer`] mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum TraceCategory {
    /// Custody transfers recorded by the kernel on every accepted packet
    /// delivery; the backbone of lifecycle reconstruction.
    Hop = 1 << 0,
    /// Data-link-layer events: admissions, wire transmissions, ACK/NAK,
    /// replays, drops.
    Link = 1 << 1,
    /// Root-complex/switch events: routing decisions, buffer occupancy,
    /// service completions.
    Router = 1 << 2,
    /// Host-fabric events: crossbar forwards, bridge crossings, DRAM
    /// accesses.
    Fabric = 1 << 3,
    /// Device events: DMA, doorbells, interrupts.
    Device = 1 << 4,
}

impl TraceCategory {
    /// Mask enabling every category.
    pub const ALL: u32 = (1 << 5) - 1;

    /// This category's bit in the enable mask.
    #[inline]
    pub fn bit(self) -> u32 {
        self as u32
    }

    /// Stable lowercase name (used as the Perfetto `cat` field).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Hop => "hop",
            TraceCategory::Link => "link",
            TraceCategory::Router => "router",
            TraceCategory::Fabric => "fabric",
            TraceCategory::Device => "device",
        }
    }

    /// Stable wire encoding for checkpoints.
    pub fn encode(self) -> u8 {
        match self {
            TraceCategory::Hop => 0,
            TraceCategory::Link => 1,
            TraceCategory::Router => 2,
            TraceCategory::Fabric => 3,
            TraceCategory::Device => 4,
        }
    }

    /// Decodes a checkpoint byte back into a category.
    pub fn decode(b: u8) -> Result<Self, SnapshotError> {
        Ok(match b {
            0 => TraceCategory::Hop,
            1 => TraceCategory::Link,
            2 => TraceCategory::Router,
            3 => TraceCategory::Fabric,
            4 => TraceCategory::Device,
            other => return Err(SnapshotError::Corrupt(format!("trace category {other}"))),
        })
    }
}

/// What a [`TraceEvent`] records. The `arg` field of the event carries
/// the kind-specific detail named in each variant's doc.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A request was delivered into `component` (arg = ingress port).
    HopRequest,
    /// A response was delivered into `component` (arg = ingress port).
    HopResponse,
    /// A delivery was refused by `component` (arg = ingress port).
    HopRefused,
    /// A TLP entered a link interface's transmit queue (arg = sequence
    /// number it was assigned).
    LinkAdmit,
    /// A TLP began serializing onto the wire (arg = on-wire bytes).
    LinkTxStart,
    /// A TLP was delivered by the link receiver (arg = sequence number).
    LinkDeliver,
    /// An ACK DLLP was scheduled (arg = acknowledged sequence number).
    LinkAck,
    /// A NAK DLLP was scheduled after a corrupt arrival (arg = last good
    /// sequence number).
    LinkNak,
    /// A received NAK rewound the replay buffer (arg = TLPs queued for
    /// retransmission).
    LinkReplay,
    /// The replay timer expired (arg = TLPs queued for retransmission).
    LinkReplayTimeout,
    /// The receiver dropped a TLP (arg = sequence number; the drop reason
    /// lives in the link's statistics).
    LinkDrop,
    /// A router chose an egress for a TLP (arg = egress port).
    RouteDecision,
    /// Ingress-buffer occupancy after an admission (arg = occupancy).
    BufferOccupancy,
    /// A router finished servicing a TLP and forwarded it
    /// (arg = egress port).
    ServiceDone,
    /// A crossbar or bridge forwarded a packet (arg = egress port).
    FabricForward,
    /// DRAM serviced an access (arg = bytes).
    DramAccess,
    /// A device issued a DMA read (arg = bytes requested).
    DmaRead,
    /// A device issued a DMA write (arg = bytes written).
    DmaWrite,
    /// A doorbell/MMIO register write reached a device (arg = register
    /// offset).
    Doorbell,
    /// A device raised an interrupt (arg = interrupt message address).
    Interrupt,
    /// A virtqueue doorbell fired (arg = queue index).
    VirtqueueNotify,
    /// A descriptor chain was retired to the used ring (arg = head
    /// descriptor index).
    VirtqueueUsed,
}

impl TraceKind {
    /// Stable label (used as the Perfetto instant-event name).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::HopRequest => "hop_req",
            TraceKind::HopResponse => "hop_resp",
            TraceKind::HopRefused => "hop_refused",
            TraceKind::LinkAdmit => "tlp_admit",
            TraceKind::LinkTxStart => "tlp_tx",
            TraceKind::LinkDeliver => "tlp_deliver",
            TraceKind::LinkAck => "ack",
            TraceKind::LinkNak => "nak",
            TraceKind::LinkReplay => "replay",
            TraceKind::LinkReplayTimeout => "replay_timeout",
            TraceKind::LinkDrop => "tlp_drop",
            TraceKind::RouteDecision => "route",
            TraceKind::BufferOccupancy => "occupancy",
            TraceKind::ServiceDone => "service_done",
            TraceKind::FabricForward => "forward",
            TraceKind::DramAccess => "dram_access",
            TraceKind::DmaRead => "dma_read",
            TraceKind::DmaWrite => "dma_write",
            TraceKind::Doorbell => "doorbell",
            TraceKind::Interrupt => "interrupt",
            TraceKind::VirtqueueNotify => "vq_notify",
            TraceKind::VirtqueueUsed => "vq_used",
        }
    }

    const ALL_KINDS: [TraceKind; 22] = [
        TraceKind::HopRequest,
        TraceKind::HopResponse,
        TraceKind::HopRefused,
        TraceKind::LinkAdmit,
        TraceKind::LinkTxStart,
        TraceKind::LinkDeliver,
        TraceKind::LinkAck,
        TraceKind::LinkNak,
        TraceKind::LinkReplay,
        TraceKind::LinkReplayTimeout,
        TraceKind::LinkDrop,
        TraceKind::RouteDecision,
        TraceKind::BufferOccupancy,
        TraceKind::ServiceDone,
        TraceKind::FabricForward,
        TraceKind::DramAccess,
        TraceKind::DmaRead,
        TraceKind::DmaWrite,
        TraceKind::Doorbell,
        TraceKind::Interrupt,
        TraceKind::VirtqueueNotify,
        TraceKind::VirtqueueUsed,
    ];

    /// Stable wire encoding for checkpoints.
    pub fn encode(self) -> u8 {
        Self::ALL_KINDS.iter().position(|&k| k == self).expect("kind in table") as u8
    }

    /// Decodes a checkpoint byte back into a kind.
    pub fn decode(b: u8) -> Result<Self, SnapshotError> {
        Self::ALL_KINDS
            .get(b as usize)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("trace kind {b}")))
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Tick,
    /// The component it happened at (for hop events: the receiver).
    pub component: ComponentId,
    /// Coarse class; must have been enabled for the event to exist.
    pub category: TraceCategory,
    /// What happened.
    pub kind: TraceKind,
    /// The packet involved, when the event concerns one.
    pub packet: Option<PacketId>,
    /// The packet's command, when known (names Perfetto slices).
    pub cmd: Option<Command>,
    /// Kind-specific detail; see [`TraceKind`].
    pub arg: u64,
}

impl TraceEvent {
    /// Serializes the event into a checkpoint.
    pub fn encode(&self, w: &mut StateWriter) {
        w.u64(self.at);
        w.u32(self.component.0);
        w.u8(self.category.encode());
        w.u8(self.kind.encode());
        w.opt_u64(self.packet.map(|p| p.0));
        w.opt_u8(self.cmd.map(Command::encode));
        w.u64(self.arg);
    }

    /// Deserializes an event from a checkpoint.
    pub fn decode(r: &mut StateReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            at: r.u64()?,
            component: ComponentId(r.u32()?),
            category: TraceCategory::decode(r.u8()?)?,
            kind: TraceKind::decode(r.u8()?)?,
            packet: r.opt_u64()?.map(PacketId),
            cmd: r.opt_u8()?.map(Command::decode).transpose()?,
            arg: r.u64()?,
        })
    }
}

/// Default ring capacity: enough for several million-event runs of the
/// paper's workloads without unbounded memory growth.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// A bounded ring buffer of [`TraceEvent`]s with a category enable mask.
///
/// All methods take `&self` (interior mutability) so the tracer can be
/// reached from nested dispatch contexts exactly like the rest of the
/// kernel's shared state.
pub struct Tracer {
    mask: Cell<u32>,
    capacity: Cell<usize>,
    buf: RefCell<VecDeque<TraceEvent>>,
    dropped: Cell<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with the default capacity.
    pub fn new() -> Self {
        Self {
            mask: Cell::new(0),
            capacity: Cell::new(DEFAULT_TRACE_CAPACITY),
            buf: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
        }
    }

    /// Enables exactly the categories in `mask` (a bit-or of
    /// [`TraceCategory::bit`] values, or [`TraceCategory::ALL`]).
    pub fn set_mask(&self, mask: u32) {
        self.mask.set(mask);
    }

    /// The current enable mask.
    pub fn mask(&self) -> u32 {
        self.mask.get()
    }

    /// Whether `cat` is enabled. This is the tracepoint fast path: one
    /// flag load and a bit test.
    #[inline]
    pub fn wants(&self, cat: TraceCategory) -> bool {
        self.mask.get() & cat.bit() != 0
    }

    /// Caps the ring at `capacity` events; the oldest are evicted first.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.set(capacity.max(1));
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Appends `ev`, evicting the oldest event when the ring is full.
    /// Callers are expected to have checked [`Tracer::wants`] first.
    pub fn record(&self, ev: TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() >= self.capacity.get() {
            buf.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        buf.push_back(ev);
    }

    /// Drains every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.buf.borrow_mut().drain(..).collect()
    }

    /// Serializes the ring contents (oldest first) and the eviction count
    /// into a checkpoint, without draining. The enable mask and capacity
    /// are configuration and are *not* saved: they belong to the tree a
    /// checkpoint restores into.
    pub fn save_ring(&self, w: &mut StateWriter) {
        let buf = self.buf.borrow();
        w.u64(self.dropped.get());
        w.usize(buf.len());
        for ev in buf.iter() {
            ev.encode(w);
        }
    }

    /// Replaces the ring contents and eviction count from a checkpoint, so
    /// a restored run's drained trace equals prefix + suffix of the
    /// uninterrupted run's.
    pub fn restore_ring(&self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let dropped = r.u64()?;
        let n = r.usize()?;
        let mut buf = VecDeque::new();
        for _ in 0..n {
            buf.push_back(TraceEvent::decode(r)?);
        }
        self.dropped.set(dropped);
        *self.buf.borrow_mut() = buf;
        Ok(())
    }
}

/// A drained trace together with the component-name table, self-contained
/// for export.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Events in record order (which is time order).
    pub events: Vec<TraceEvent>,
    /// Component names indexed by [`ComponentId`].
    pub names: Vec<String>,
    /// Events lost to ring eviction before the drain.
    pub dropped: u64,
}

impl TraceLog {
    fn name_of(&self, id: ComponentId) -> &str {
        self.names.get(id.0 as usize).map_or("?", |s| s.as_str())
    }

    /// Renders the Chrome trace-event JSON (the `traceEvents` array form)
    /// understood by <https://ui.perfetto.dev> and `chrome://tracing`.
    ///
    /// * every component is a named thread (track);
    /// * each custody interval becomes a `ph:"X"` duration slice on the
    ///   holding component's track, named after the packet;
    /// * protocol events become `ph:"i"` thread-scoped instants;
    /// * [`TraceKind::BufferOccupancy`] events become a `ph:"C"` counter
    ///   track per component.
    ///
    /// Timestamps are microseconds (fractional), as the format requires.
    pub fn to_perfetto_json(&self) -> String {
        let us = |t: Tick| t as f64 / 1e6;
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String, first: &mut bool, ev: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&ev);
        };

        for (i, name) in self.names.iter().enumerate() {
            push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(name)
                ),
            );
        }

        // Custody slices: a packet is "at" the component that last
        // accepted it, until the next component accepts it.
        for (_, chain) in self.custody_chains() {
            for pair in chain.windows(2) {
                let (a, b) = (&self.events[pair[0]], &self.events[pair[1]]);
                let name = match a.cmd {
                    Some(cmd) => format!("{} {}", cmd, a.packet.map(|p| p.0).unwrap_or(0)),
                    None => a.kind.label().to_owned(),
                };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
                         \"name\":{},\"cat\":\"hop\",\"args\":{{\"packet\":{}}}}}",
                        a.component.0,
                        fmt_f64(us(a.at)),
                        fmt_f64(us(b.at - a.at)),
                        json_string(&name),
                        a.packet.map(|p| p.0).unwrap_or(0),
                    ),
                );
            }
        }

        for ev in &self.events {
            match ev.kind {
                TraceKind::HopRequest | TraceKind::HopResponse => {}
                TraceKind::BufferOccupancy => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"C\",\"pid\":1,\"ts\":{},\"name\":{},\
                             \"args\":{{\"occupancy\":{}}}}}",
                            fmt_f64(us(ev.at)),
                            json_string(&format!("{}.occupancy", self.name_of(ev.component))),
                            ev.arg,
                        ),
                    );
                }
                _ => {
                    push(
                        &mut out,
                        &mut first,
                        format!(
                            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                             \"name\":{},\"cat\":\"{}\",\"args\":{{\"packet\":{},\"arg\":{}}}}}",
                            ev.component.0,
                            fmt_f64(us(ev.at)),
                            json_string(ev.kind.label()),
                            ev.category.name(),
                            ev.packet.map(|p| p.0).unwrap_or(0),
                            ev.arg,
                        ),
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Indices of custody (hop) events per packet, in time order.
    fn custody_chains(&self) -> BTreeMap<PacketId, Vec<usize>> {
        let mut chains: BTreeMap<PacketId, Vec<usize>> = BTreeMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            if matches!(ev.kind, TraceKind::HopRequest | TraceKind::HopResponse) {
                if let Some(p) = ev.packet {
                    chains.entry(p).or_default().push(i);
                }
            }
        }
        chains
    }

    /// Reconstructs each request's lifecycle from its custody chain and
    /// attributes every nanosecond to a pipeline [`Stage`], using the
    /// default component-name classification (see [`Stage::classify`]).
    pub fn attribution(&self) -> LatencyAttribution {
        self.attribution_with(Stage::classify)
    }

    /// [`TraceLog::attribution`] with a custom component→stage mapping.
    pub fn attribution_with(&self, classify: impl Fn(&str) -> Stage) -> LatencyAttribution {
        let stage_of: Vec<Stage> = self.names.iter().map(|n| classify(n)).collect();
        let mut lifecycles = Vec::new();
        for (packet, chain) in self.custody_chains() {
            if chain.len() < 2 {
                continue;
            }
            let mut per_stage = [0 as Tick; Stage::COUNT];
            for pair in chain.windows(2) {
                let (a, b) = (&self.events[pair[0]], &self.events[pair[1]]);
                let stage = stage_of.get(a.component.0 as usize).copied().unwrap_or(Stage::Other);
                per_stage[stage as usize] += b.at - a.at;
            }
            let first = &self.events[chain[0]];
            let last = &self.events[*chain.last().expect("non-empty chain")];
            lifecycles.push(PacketLifecycle {
                packet,
                cmd: first.cmd,
                start: first.at,
                end: last.at,
                per_stage,
            });
        }
        LatencyAttribution { lifecycles }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a non-negative microsecond value without scientific notation.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() {
        format!("{}", v as u64)
    } else {
        format!("{v}")
    }
}

/// Pipeline stage a component belongs to, for latency attribution. The
/// stages mirror the decomposition behind the paper's Table II: the CPU
/// side of the fabric, the root complex, the switch, the links' wire and
/// data-link protocol, and the device itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// CPU-side fabric: memory bus, DRAM, IOCache, bridge, PCI host,
    /// interrupt controller, and the workload components themselves.
    Host = 0,
    /// The root complex.
    RootComplex = 1,
    /// The PCI-Express switch.
    Switch = 2,
    /// PCI-Express links (serialization, data-link protocol).
    Link = 3,
    /// The endpoint device.
    Device = 4,
    /// Anything unrecognized.
    Other = 5,
}

impl Stage {
    /// Number of stages (sizes the per-stage arrays).
    pub const COUNT: usize = 6;

    /// Every stage, in report order.
    pub const ALL: [Stage; Stage::COUNT] =
        [Stage::Host, Stage::RootComplex, Stage::Switch, Stage::Link, Stage::Device, Stage::Other];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Host => "host fabric",
            Stage::RootComplex => "root complex",
            Stage::Switch => "switch",
            Stage::Link => "link",
            Stage::Device => "device",
            Stage::Other => "other",
        }
    }

    /// Default component-name → stage mapping, matching the names the
    /// system builders assign (`rc`, `switch`, `sw3`, `root_link`,
    /// `link7`, `membus`, `dram`, `nic`, `disk0_1_2`, `mem0`, `dd4`,
    /// `vdrv0`, `cxlhost0`, …).
    pub fn classify(name: &str) -> Stage {
        // `stem` followed only by decimal digits: the auto-numbered names
        // of `system::topology` (`sw12`, `vdrv0`, `mem1`).
        let numbered = |stem: &str| {
            name.strip_prefix(stem).is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_digit()))
        };
        if name.contains("link") {
            Stage::Link
        } else if name == "rc" || name.contains("root_complex") {
            Stage::RootComplex
        } else if name.contains("switch") || numbered("sw") {
            Stage::Switch
        } else if name.contains("nic")
            || name.contains("disk")
            || name.contains("vblk")
            || name.contains("vnet")
            || numbered("mem")
            || numbered("ep")
        {
            Stage::Device
        } else if name.contains("membus")
            || name.contains("iobus")
            || name.contains("dram")
            || name.contains("iocache")
            || name.contains("bridge")
            || name.contains("pcihost")
            || name.contains("gic")
            || name.contains("dd")
            || name.contains("probe")
            || numbered("vdrv")
            || numbered("pmd")
            || numbered("cxlhost")
        {
            Stage::Host
        } else {
            Stage::Other
        }
    }
}

/// One request's reconstructed lifecycle.
#[derive(Debug, Clone, Copy)]
pub struct PacketLifecycle {
    /// The packet (request and response share the id).
    pub packet: PacketId,
    /// Command of the first recorded hop (normally the request).
    pub cmd: Option<Command>,
    /// First custody transfer (issue into the fabric).
    pub start: Tick,
    /// Last custody transfer (delivery of the response to the issuer).
    pub end: Tick,
    /// Time attributed to each stage, indexed by `Stage as usize`. The
    /// entries sum to exactly `end - start`.
    pub per_stage: [Tick; Stage::COUNT],
}

impl PacketLifecycle {
    /// End-to-end latency of this lifecycle.
    pub fn total(&self) -> Tick {
        self.end - self.start
    }
}

/// Per-stage latency attribution over every traced request.
#[derive(Debug, Clone, Default)]
pub struct LatencyAttribution {
    /// One entry per packet that made at least two hops.
    pub lifecycles: Vec<PacketLifecycle>,
}

impl LatencyAttribution {
    /// Mean time spent in `stage` per lifecycle, in nanoseconds.
    pub fn mean_stage_ns(&self, stage: Stage) -> f64 {
        if self.lifecycles.is_empty() {
            return 0.0;
        }
        let sum: Tick = self.lifecycles.iter().map(|l| l.per_stage[stage as usize]).sum();
        to_ns(sum) / self.lifecycles.len() as f64
    }

    /// Mean end-to-end latency per lifecycle, in nanoseconds.
    pub fn mean_total_ns(&self) -> f64 {
        if self.lifecycles.is_empty() {
            return 0.0;
        }
        let sum: Tick = self.lifecycles.iter().map(|l| l.total()).sum();
        to_ns(sum) / self.lifecycles.len() as f64
    }

    /// Renders the per-stage breakdown as an aligned text table; the
    /// stage rows sum to the total row by construction.
    pub fn render(&self) -> String {
        let total = self.mean_total_ns();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>8}   ({} lifecycles)",
            "stage",
            "mean ns",
            "share",
            self.lifecycles.len()
        );
        for stage in Stage::ALL {
            let ns = self.mean_stage_ns(stage);
            if ns == 0.0 {
                continue;
            }
            let share = if total > 0.0 { 100.0 * ns / total } else { 0.0 };
            let _ = writeln!(out, "{:<14} {:>12.1} {:>7.1}%", stage.label(), ns, share);
        }
        let _ = writeln!(out, "{:<14} {:>12.1} {:>7.1}%", "total", total, 100.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(at: Tick, comp: u32, kind: TraceKind, pkt: u64) -> TraceEvent {
        TraceEvent {
            at,
            component: ComponentId(comp),
            category: TraceCategory::Hop,
            kind,
            packet: Some(PacketId(pkt)),
            cmd: Some(Command::ReadReq),
            arg: 0,
        }
    }

    #[test]
    fn ring_caps_and_counts_drops() {
        let t = Tracer::new();
        t.set_capacity(2);
        t.set_mask(TraceCategory::ALL);
        for i in 0..5 {
            t.record(hop(i, 0, TraceKind::HopRequest, 0));
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].at, 3);
        assert!(t.is_empty());
    }

    #[test]
    fn mask_gates_categories_independently() {
        let t = Tracer::new();
        assert!(!t.wants(TraceCategory::Hop));
        t.set_mask(TraceCategory::Link.bit() | TraceCategory::Device.bit());
        assert!(t.wants(TraceCategory::Link));
        assert!(t.wants(TraceCategory::Device));
        assert!(!t.wants(TraceCategory::Hop));
        assert_eq!(t.mask(), TraceCategory::Link.bit() | TraceCategory::Device.bit());
    }

    #[test]
    fn attribution_partitions_end_to_end_exactly() {
        // pkt 0: enters membus at 0, rc at 100, link at 250, nic at 400,
        // response back into rc at 700, membus at 850, probe at 900.
        let log = TraceLog {
            events: vec![
                hop(0, 0, TraceKind::HopRequest, 0),
                hop(100, 1, TraceKind::HopRequest, 0),
                hop(250, 2, TraceKind::HopRequest, 0),
                hop(400, 3, TraceKind::HopRequest, 0),
                hop(700, 1, TraceKind::HopResponse, 0),
                hop(850, 0, TraceKind::HopResponse, 0),
                hop(900, 4, TraceKind::HopResponse, 0),
            ],
            names: vec![
                "membus".into(),
                "rc".into(),
                "root_link".into(),
                "nic".into(),
                "mmio_probe".into(),
            ],
            dropped: 0,
        };
        let attr = log.attribution();
        assert_eq!(attr.lifecycles.len(), 1);
        let l = &attr.lifecycles[0];
        assert_eq!(l.total(), 900);
        assert_eq!(l.per_stage.iter().sum::<Tick>(), l.total());
        assert_eq!(l.per_stage[Stage::Host as usize], 100 + 50);
        assert_eq!(l.per_stage[Stage::RootComplex as usize], 150 + 150);
        assert_eq!(l.per_stage[Stage::Link as usize], 150);
        assert_eq!(l.per_stage[Stage::Device as usize], 300);
        assert!((attr.mean_total_ns() - 0.9).abs() < 1e-12);
        let rendered = attr.render();
        assert!(rendered.contains("root complex"));
        assert!(rendered.contains("total"));
    }

    #[test]
    fn single_hop_packets_are_ignored() {
        let log = TraceLog {
            events: vec![hop(5, 0, TraceKind::HopRequest, 7)],
            names: vec!["membus".into()],
            dropped: 0,
        };
        assert!(log.attribution().lifecycles.is_empty());
    }

    #[test]
    fn perfetto_export_is_wellformed() {
        let mut events =
            vec![hop(0, 0, TraceKind::HopRequest, 0), hop(1_000, 1, TraceKind::HopRequest, 0)];
        events.push(TraceEvent {
            at: 500,
            component: ComponentId(1),
            category: TraceCategory::Router,
            kind: TraceKind::BufferOccupancy,
            packet: None,
            cmd: None,
            arg: 3,
        });
        events.push(TraceEvent {
            at: 700,
            component: ComponentId(1),
            category: TraceCategory::Link,
            kind: TraceKind::LinkAck,
            packet: Some(PacketId(0)),
            cmd: None,
            arg: 1,
        });
        let log = TraceLog { events, names: vec!["a".into(), "b".into()], dropped: 0 };
        let json = log.to_perfetto_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"ack\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn perfetto_export_matches_golden() {
        // A two-component, one-packet trace with one of every phase; the
        // expected string pins the exporter's exact output format.
        let log = TraceLog {
            events: vec![
                hop(1_000_000, 1, TraceKind::HopRequest, 7),
                TraceEvent {
                    at: 1_000_000,
                    component: ComponentId(0),
                    category: TraceCategory::Router,
                    kind: TraceKind::BufferOccupancy,
                    packet: None,
                    cmd: None,
                    arg: 2,
                },
                TraceEvent {
                    at: 2_000_000,
                    component: ComponentId(1),
                    category: TraceCategory::Link,
                    kind: TraceKind::LinkAck,
                    packet: None,
                    cmd: None,
                    arg: 5,
                },
                hop(3_000_000, 0, TraceKind::HopResponse, 7),
            ],
            names: vec!["cpu".into(), "nic".into()],
            dropped: 0,
        };
        let golden = concat!(
            "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"cpu\"}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"nic\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1,\"dur\":2,\
             \"name\":\"ReadReq 7\",\"cat\":\"hop\",\"args\":{\"packet\":7}},",
            "{\"ph\":\"C\",\"pid\":1,\"ts\":1,\"name\":\"cpu.occupancy\",\
             \"args\":{\"occupancy\":2}},",
            "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2,\"s\":\"t\",\
             \"name\":\"ack\",\"cat\":\"link\",\"args\":{\"packet\":0,\"arg\":5}}",
            "]}"
        );
        assert_eq!(log.to_perfetto_json(), golden);
    }

    #[test]
    fn classification_covers_builder_names() {
        assert_eq!(Stage::classify("rc"), Stage::RootComplex);
        assert_eq!(Stage::classify("switch"), Stage::Switch);
        assert_eq!(Stage::classify("root_link"), Stage::Link);
        assert_eq!(Stage::classify("dev_link1"), Stage::Link);
        assert_eq!(Stage::classify("membus"), Stage::Host);
        assert_eq!(Stage::classify("iocache"), Stage::Host);
        assert_eq!(Stage::classify("nic"), Stage::Device);
        assert_eq!(Stage::classify("disk0"), Stage::Device);
        assert_eq!(Stage::classify("mmio_probe"), Stage::Host);
        assert_eq!(Stage::classify("mystery"), Stage::Other);
        // The auto-numbered names of `system::topology` (checked against
        // the real trees in that crate's `default_stage_map_*` test).
        assert_eq!(Stage::classify("sw12"), Stage::Switch);
        assert_eq!(Stage::classify("mem0"), Stage::Device);
        assert_eq!(Stage::classify("vdrv0"), Stage::Host);
        assert_eq!(Stage::classify("pmd0"), Stage::Host);
        assert_eq!(Stage::classify("cxlhost1"), Stage::Host);
        assert_eq!(Stage::classify("swizzle"), Stage::Other);
    }
}
