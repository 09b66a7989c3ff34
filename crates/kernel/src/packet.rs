//! Memory-system packets.
//!
//! Every transaction in the simulator — MMIO reads, configuration accesses,
//! DMA writes — is carried by a [`Packet`], just as in gem5. The PCI-Express
//! model reuses these packets as its transaction layer packets (TLPs): the
//! packet already carries the information a TLP header needs (requester,
//! address, size, command) plus the **PCI bus number** field the paper adds
//! to gem5's packet class for response routing (§V-A).

use std::fmt;

use crate::component::{ComponentId, PortId};
use crate::snapshot::{SnapshotError, State, StateReader, StateWriter};

/// The transaction a packet performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Command {
    /// Read request; carries no payload, expects [`Command::ReadResp`].
    #[default]
    ReadReq,
    /// Read response; carries the read payload.
    ReadResp,
    /// Write request; carries the write payload, expects [`Command::WriteResp`]
    /// unless the packet is posted (see [`Packet::set_posted`]).
    WriteReq,
    /// Write completion; carries no payload.
    WriteResp,
    /// Configuration-space read request (ECAM window).
    ConfigRead,
    /// Configuration-space read response.
    ConfigReadResp,
    /// Configuration-space write request.
    ConfigWrite,
    /// Configuration-space write completion.
    ConfigWriteResp,
    /// Message request (posted); used for message-signaled interrupts.
    Message,
    /// CXL.mem master-to-subordinate read request (M2S Req, MemRd). Carried
    /// over the same link + ACK-NAK machinery as PCIe TLPs but a distinct
    /// transaction class: it targets an HDM window, not a BAR.
    CxlMemRd,
    /// CXL.mem master-to-subordinate write request (M2S RwD, MemWr);
    /// carries the store payload.
    CxlMemWr,
    /// CXL.mem subordinate-to-master data response (S2M DRS); carries the
    /// read payload back to the host.
    CxlMemDrs,
    /// CXL.mem subordinate-to-master no-data response (S2M NDR); completes
    /// a write.
    CxlMemNdr,
}

impl Command {
    /// Whether this command travels requester → completer.
    pub fn is_request(self) -> bool {
        matches!(
            self,
            Command::ReadReq
                | Command::WriteReq
                | Command::ConfigRead
                | Command::ConfigWrite
                | Command::Message
                | Command::CxlMemRd
                | Command::CxlMemWr
        )
    }

    /// Whether this command travels completer → requester.
    pub fn is_response(self) -> bool {
        !self.is_request()
    }

    /// Whether this is a read-flavoured command.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Command::ReadReq
                | Command::ReadResp
                | Command::ConfigRead
                | Command::ConfigReadResp
                | Command::CxlMemRd
                | Command::CxlMemDrs
        )
    }

    /// Whether this is a write-flavoured command.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Command::WriteReq
                | Command::WriteResp
                | Command::ConfigWrite
                | Command::ConfigWriteResp
                | Command::CxlMemWr
                | Command::CxlMemNdr
        )
    }

    /// The response command paired with this request.
    ///
    /// # Panics
    ///
    /// Panics when called on a response or on [`Command::Message`], which is
    /// posted and never answered.
    pub fn response(self) -> Command {
        match self {
            Command::ReadReq => Command::ReadResp,
            Command::WriteReq => Command::WriteResp,
            Command::ConfigRead => Command::ConfigReadResp,
            Command::ConfigWrite => Command::ConfigWriteResp,
            Command::CxlMemRd => Command::CxlMemDrs,
            Command::CxlMemWr => Command::CxlMemNdr,
            other => panic!("{other:?} has no response command"),
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

// Stable wire encoding for checkpoints.
crate::state_enum!(Command {
    ReadReq = 0,
    ReadResp = 1,
    WriteReq = 2,
    WriteResp = 3,
    ConfigRead = 4,
    ConfigReadResp = 5,
    ConfigWrite = 6,
    ConfigWriteResp = 7,
    Message = 8,
    CxlMemRd = 9,
    CxlMemWr = 10,
    CxlMemDrs = 11,
    CxlMemNdr = 12,
});

/// Completion status carried by a response packet — the TLP completion
/// status field of the PCI-Express transaction layer, reduced to the
/// statuses the fabric can actually produce. Requests always carry
/// [`CompletionStatus::SuccessfulCompletion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompletionStatus {
    /// The completer serviced the request (SC).
    #[default]
    SuccessfulCompletion,
    /// No completer claimed the request — master abort (UR). Reads return
    /// all-ones data, as on a real root complex.
    UnsupportedRequest,
    /// The completer claimed but could not service the request (CA).
    CompleterAbort,
    /// No completion arrived before the requester's completion timeout;
    /// the requester synthesized this completion itself.
    CompletionTimeout,
}

impl CompletionStatus {
    /// Whether this status reports an error.
    pub fn is_error(self) -> bool {
        self != CompletionStatus::SuccessfulCompletion
    }
}

crate::state_enum!(CompletionStatus {
    SuccessfulCompletion = 0,
    UnsupportedRequest = 1,
    CompleterAbort = 2,
    CompletionTimeout = 3,
});

/// Unique identity of a packet, preserved from request to response so that
/// components can match completions to outstanding transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

impl State for PacketId {
    crate::state_fields!(state self; 0);
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// One hop recorded on a packet's route, used by crossbars and bridges to
/// steer the response back to the port the request came in on (gem5's
/// "sender state" stack).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteHop {
    /// Component that forwarded the request.
    pub component: ComponentId,
    /// Ingress port on that component.
    pub port: PortId,
}

impl State for RouteHop {
    crate::state_fields!(state self; component, port);
}

/// Number of route hops stored inline in every packet. Fabric paths in
/// this simulator cross at most a couple of crossbars, so the inline
/// capacity covers every real topology; deeper stacks spill to the heap.
const INLINE_HOPS: usize = 4;

const NO_HOP: RouteHop = RouteHop { component: ComponentId(0), port: PortId(0) };

/// LIFO hop stack with inline storage for the common shallow case, so
/// creating, forwarding and dropping a packet allocates nothing for its
/// route.
#[derive(Debug, Clone)]
struct RouteStack {
    inline: [RouteHop; INLINE_HOPS],
    len: u8,
    /// Hops beyond the inline capacity, oldest first (an empty `Vec` does
    /// not allocate, so the never-spilling common case pays nothing).
    spill: Vec<RouteHop>,
}

impl RouteStack {
    const fn new() -> Self {
        Self { inline: [NO_HOP; INLINE_HOPS], len: 0, spill: Vec::new() }
    }

    fn depth(&self) -> usize {
        self.len as usize + self.spill.len()
    }

    #[inline]
    fn push(&mut self, hop: RouteHop) {
        if (self.len as usize) < INLINE_HOPS {
            self.inline[self.len as usize] = hop;
            self.len += 1;
        } else {
            self.spill.push(hop);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<RouteHop> {
        if let Some(hop) = self.spill.pop() {
            return Some(hop);
        }
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.inline[self.len as usize])
    }

    #[inline]
    fn last(&self) -> Option<&RouteHop> {
        self.spill.last().or_else(|| self.inline[..self.len as usize].last())
    }

    /// The live hops, oldest first.
    fn hops(&self) -> impl Iterator<Item = &RouteHop> {
        self.inline[..self.len as usize].iter().chain(&self.spill)
    }
}

impl Default for RouteStack {
    fn default() -> Self {
        Self::new()
    }
}

/// The depth, then the live hops oldest first, so a load pushes in order.
impl State for RouteStack {
    fn save(&self, w: &mut StateWriter) {
        w.usize(self.depth());
        for hop in self.hops() {
            hop.save(w);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let depth = r.usize()?;
        *self = Self::new();
        for _ in 0..depth {
            self.push(RouteHop::read(r)?);
        }
        Ok(())
    }
}

impl PartialEq for RouteStack {
    fn eq(&self, other: &Self) -> bool {
        // Logical comparison: only the live hops count, not the storage.
        self.depth() == other.depth() && self.hops().eq(other.hops())
    }
}
impl Eq for RouteStack {}

/// A memory-system packet.
///
/// Construct requests with [`Packet::request`] and turn them into responses
/// with [`Packet::into_response`], which preserves identity, route and the
/// PCI bus number.
///
/// Like gem5's `PacketPtr`, a packet is one pointer to its heap-held
/// fields: passing it through a port, a queue or the event calendar moves
/// eight bytes. [`Clone`] copies the fields (payload and route included)
/// into a packet independent of the original.
///
/// The default packet is a blank a checkpoint loads a queued packet into.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Packet(Box<Fields>);

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Fields {
    id: PacketId,
    cmd: Command,
    addr: u64,
    size: u32,
    requester: ComponentId,
    /// PCI bus number stamped by the first root-complex/switch slave port the
    /// request crosses (`None` models the paper's `-1` initial value).
    pci_bus: Option<u8>,
    posted: bool,
    payload: Option<Vec<u8>>,
    route: RouteStack,
    status: CompletionStatus,
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &*self.0;
        f.debug_struct("Packet")
            .field("id", &p.id)
            .field("cmd", &p.cmd)
            .field("addr", &p.addr)
            .field("size", &p.size)
            .field("requester", &p.requester)
            .field("pci_bus", &p.pci_bus)
            .field("posted", &p.posted)
            .field("payload", &p.payload)
            .field("route", &p.route)
            .field("status", &p.status)
            .finish()
    }
}

impl Packet {
    /// Creates a request packet.
    ///
    /// # Panics
    ///
    /// Panics if `cmd` is not a request command.
    pub fn request(
        id: PacketId,
        cmd: Command,
        addr: u64,
        size: u32,
        requester: ComponentId,
    ) -> Self {
        assert!(cmd.is_request(), "{cmd:?} is not a request command");
        Self(Box::new(Fields {
            id,
            cmd,
            addr,
            size,
            requester,
            pci_bus: None,
            posted: matches!(cmd, Command::Message),
            payload: None,
            route: RouteStack::new(),
            status: CompletionStatus::SuccessfulCompletion,
        }))
    }

    /// Completion status of the packet. Meaningful on responses; requests
    /// always report [`CompletionStatus::SuccessfulCompletion`].
    pub fn status(&self) -> CompletionStatus {
        self.0.status
    }

    /// Shorthand for `status().is_error()`.
    pub fn is_error(&self) -> bool {
        self.0.status.is_error()
    }

    /// Packet identity (preserved across request/response).
    pub fn id(&self) -> PacketId {
        self.0.id
    }

    /// The packet's command.
    pub fn cmd(&self) -> Command {
        self.0.cmd
    }

    /// Target physical address.
    pub fn addr(&self) -> u64 {
        self.0.addr
    }

    /// Access size in bytes.
    pub fn size(&self) -> u32 {
        self.0.size
    }

    /// The component that originated the request.
    pub fn requester(&self) -> ComponentId {
        self.0.requester
    }

    /// Shorthand for `cmd().is_request()`.
    pub fn is_request(&self) -> bool {
        self.0.cmd.is_request()
    }

    /// Shorthand for `cmd().is_response()`.
    pub fn is_response(&self) -> bool {
        self.0.cmd.is_response()
    }

    /// PCI bus number recorded on the packet, if any (the paper's new packet
    /// field, initialised to -1 / `None`).
    pub fn pci_bus(&self) -> Option<u8> {
        self.0.pci_bus
    }

    /// Stamps the PCI bus number. Only the first stamp sticks, matching the
    /// paper: a slave port sets the field only when it is still -1.
    pub fn stamp_pci_bus(&mut self, bus: u8) {
        if self.0.pci_bus.is_none() {
            self.0.pci_bus = Some(bus);
        }
    }

    /// Clears the PCI bus number (used by tests and by the root complex when
    /// a response leaves the PCI-Express fabric).
    pub fn clear_pci_bus(&mut self) {
        self.0.pci_bus = None;
    }

    /// Whether this request needs no response (posted write/message).
    pub fn is_posted(&self) -> bool {
        self.0.posted
    }

    /// Marks a write request as posted (no completion expected). Models the
    /// posted-write extension discussed in the paper's evaluation.
    pub fn set_posted(&mut self, posted: bool) {
        self.0.posted = posted;
    }

    /// The data carried by the packet, if any.
    pub fn payload(&self) -> Option<&[u8]> {
        self.0.payload.as_deref()
    }

    /// The first (up to) four payload bytes as a little-endian `u32`,
    /// zero-extended; 0 when there is no payload. How a 4-byte register
    /// access reads its data.
    pub fn dword(&self) -> u32 {
        let mut b = [0u8; 4];
        if let Some(p) = self.payload() {
            let n = p.len().min(4);
            b[..n].copy_from_slice(&p[..n]);
        }
        u32::from_le_bytes(b)
    }

    /// Attaches a payload; builder-style.
    ///
    /// # Panics
    ///
    /// Panics if the payload length does not match the packet size.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        assert_eq!(payload.len() as u32, self.0.size, "payload length must equal packet size");
        self.0.payload = Some(payload);
        self
    }

    /// Number of payload bytes on the wire (0 when no payload is attached).
    pub fn payload_len(&self) -> u32 {
        match self.0.cmd {
            // Reads carry no data in the request direction; writes carry the
            // full access size even when the simulator elides the bytes.
            Command::ReadReq | Command::ConfigRead | Command::CxlMemRd => 0,
            Command::WriteReq | Command::ConfigWrite | Command::Message | Command::CxlMemWr => {
                self.0.size
            }
            Command::ReadResp | Command::ConfigReadResp | Command::CxlMemDrs => self.0.size,
            Command::WriteResp | Command::ConfigWriteResp | Command::CxlMemNdr => 0,
        }
    }

    /// Detaches and returns the payload buffer, leaving the packet without
    /// data.
    pub fn take_payload(&mut self) -> Option<Vec<u8>> {
        self.0.payload.take()
    }

    /// A copy of the header and route stack without the payload: what a
    /// completion-timeout tracker keeps to answer a request that never
    /// completes (see [`Packet::into_error_response`]).
    pub fn header(&self) -> Packet {
        Self(Box::new(Fields { payload: None, route: self.0.route.clone(), ..*self.0 }))
    }

    /// Pushes a routing hop (done by a forwarding component on the request
    /// path so it can route the response back).
    #[inline]
    pub fn push_route(&mut self, component: ComponentId, port: PortId) {
        self.0.route.push(RouteHop { component, port });
    }

    /// Pops the most recent routing hop (done on the response path).
    #[inline]
    pub fn pop_route(&mut self) -> Option<RouteHop> {
        self.0.route.pop()
    }

    /// Most recent routing hop without removing it.
    #[inline]
    pub fn peek_route(&self) -> Option<&RouteHop> {
        self.0.route.last()
    }

    /// Depth of the route stack.
    pub fn route_depth(&self) -> usize {
        self.0.route.depth()
    }

    /// Converts this request into its response, preserving id, address,
    /// size, requester, route stack and PCI bus number.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a request or is posted.
    pub fn into_response(mut self) -> Packet {
        assert!(self.is_request(), "cannot respond to a response");
        assert!(!self.0.posted, "posted requests take no response");
        self.0.cmd = self.0.cmd.response();
        if self.0.cmd.is_write() {
            self.0.payload = None;
        }
        self
    }

    /// Converts this request into a read response carrying `data`.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a read request or the data length differs
    /// from the request size.
    pub fn into_read_response(mut self, data: Vec<u8>) -> Packet {
        assert!(
            matches!(self.0.cmd, Command::ReadReq | Command::ConfigRead | Command::CxlMemRd),
            "into_read_response on {:?}",
            self.0.cmd
        );
        assert_eq!(data.len() as u32, self.0.size, "response data length must equal request size");
        self.0.cmd = self.0.cmd.response();
        self.0.payload = Some(data);
        self
    }

    /// Converts this non-posted request into an **error completion** with the
    /// given status, preserving id, address, size, requester, route stack and
    /// PCI bus number so the completion retraces the request's path home.
    ///
    /// Read-flavoured requests return all-ones data — the value a real root
    /// complex forwards to the CPU on a master abort — while write-flavoured
    /// requests complete with no payload.
    ///
    /// # Panics
    ///
    /// Panics if the packet is not a request, is posted, or `status` is
    /// [`CompletionStatus::SuccessfulCompletion`].
    pub fn into_error_response(mut self, status: CompletionStatus) -> Packet {
        assert!(self.is_request(), "cannot synthesize a completion for a response");
        assert!(!self.0.posted, "posted requests take no completion");
        assert!(status.is_error(), "error completions must carry an error status");
        self.0.status = status;
        match self.0.cmd {
            Command::ReadReq | Command::ConfigRead | Command::CxlMemRd => {
                self.0.cmd = self.0.cmd.response();
                self.0.payload = Some(vec![0xff; self.0.size as usize]);
            }
            _ => {
                self.0.cmd = self.0.cmd.response();
                self.0.payload = None;
            }
        }
        self
    }
}

/// Identity, header fields, payload and the full route stack. A payload
/// whose length is not the packet size is [`SnapshotError::Corrupt`] —
/// the invariant every constructor enforces.
impl State for Packet {
    crate::state_fields!(state self;
        0.id, 0.cmd, 0.addr, 0.size, 0.requester, 0.pci_bus, 0.posted, 0.payload, 0.route,
        0.status,
        save(_w) {}
        load(_r) {
            if let Some(p) = &self.0.payload {
                if p.len() != self.0.size as usize {
                    return Err(SnapshotError::Corrupt(format!(
                        "{} carries {} payload bytes for size {}",
                        self.0.id,
                        p.len(),
                        self.0.size
                    )));
                }
            }
        },
    );
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} addr={:#x} size={}", self.0.id, self.0.cmd, self.0.addr, self.0.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(cmd: Command) -> Packet {
        Packet::request(PacketId(1), cmd, 0x4000_0000, 64, ComponentId(3))
    }

    #[test]
    fn command_direction_classification() {
        assert!(Command::ReadReq.is_request());
        assert!(Command::WriteReq.is_request());
        assert!(Command::ConfigRead.is_request());
        assert!(Command::Message.is_request());
        assert!(Command::ReadResp.is_response());
        assert!(Command::WriteResp.is_response());
        assert!(Command::ConfigWriteResp.is_response());
    }

    #[test]
    fn command_read_write_classification() {
        assert!(Command::ReadReq.is_read());
        assert!(Command::ConfigReadResp.is_read());
        assert!(Command::WriteReq.is_write());
        assert!(Command::ConfigWrite.is_write());
        assert!(!Command::Message.is_read());
        assert!(!Command::Message.is_write());
    }

    #[test]
    fn response_pairs() {
        assert_eq!(Command::ReadReq.response(), Command::ReadResp);
        assert_eq!(Command::WriteReq.response(), Command::WriteResp);
        assert_eq!(Command::ConfigRead.response(), Command::ConfigReadResp);
        assert_eq!(Command::ConfigWrite.response(), Command::ConfigWriteResp);
    }

    #[test]
    #[should_panic(expected = "no response command")]
    fn message_has_no_response() {
        let _ = Command::Message.response();
    }

    #[test]
    fn header_copy_keeps_everything_but_the_payload() {
        let mut w = req(Command::WriteReq).with_payload(vec![7; 64]);
        w.stamp_pci_bus(2);
        w.push_route(ComponentId(9), PortId(1));
        let h = w.header();
        let mut bare = w.clone();
        bare.take_payload();
        assert_eq!(h, bare);
        let err = h.into_error_response(CompletionStatus::CompletionTimeout);
        assert_eq!(err, w.into_error_response(CompletionStatus::CompletionTimeout));
    }

    #[test]
    fn request_to_response_preserves_identity() {
        let mut r = req(Command::ReadReq);
        r.stamp_pci_bus(2);
        r.push_route(ComponentId(9), PortId(1));
        let resp = r.into_read_response(vec![0xab; 64]);
        assert_eq!(resp.id(), PacketId(1));
        assert_eq!(resp.cmd(), Command::ReadResp);
        assert_eq!(resp.addr(), 0x4000_0000);
        assert_eq!(resp.pci_bus(), Some(2));
        assert_eq!(resp.requester(), ComponentId(3));
        assert_eq!(
            resp.peek_route(),
            Some(&RouteHop { component: ComponentId(9), port: PortId(1) })
        );
        assert_eq!(resp.payload().unwrap().len(), 64);
    }

    #[test]
    fn dword_zero_extends_the_first_four_payload_bytes() {
        let write = |data: &[u8]| {
            Packet::request(PacketId(1), Command::WriteReq, 0, data.len() as u32, ComponentId(3))
                .with_payload(data.to_vec())
        };
        assert_eq!(req(Command::ReadReq).dword(), 0, "no payload");
        assert_eq!(write(&[]).dword(), 0, "empty payload");
        assert_eq!(write(&[0x34, 0x12]).dword(), 0x1234, "short payload");
        assert_eq!(write(&[1, 2, 3, 4]).dword(), 0x0403_0201, "4-byte payload");
        assert_eq!(write(&[1, 2, 3, 4, 5, 6]).dword(), 0x0403_0201, "long payload");
    }

    #[test]
    fn write_response_drops_payload() {
        let r = req(Command::WriteReq).with_payload(vec![0u8; 64]);
        let resp = r.into_response();
        assert_eq!(resp.cmd(), Command::WriteResp);
        assert!(resp.payload().is_none());
        assert_eq!(resp.payload_len(), 0);
    }

    #[test]
    fn pci_bus_stamp_only_sticks_once() {
        let mut r = req(Command::ReadReq);
        assert_eq!(r.pci_bus(), None);
        r.stamp_pci_bus(1);
        r.stamp_pci_bus(7);
        assert_eq!(r.pci_bus(), Some(1));
        r.clear_pci_bus();
        assert_eq!(r.pci_bus(), None);
    }

    #[test]
    fn payload_len_follows_command_semantics() {
        assert_eq!(req(Command::ReadReq).payload_len(), 0);
        assert_eq!(req(Command::WriteReq).payload_len(), 64);
        let resp = req(Command::ReadReq).into_read_response(vec![0; 64]);
        assert_eq!(resp.payload_len(), 64);
    }

    #[test]
    fn route_stack_is_lifo() {
        let mut r = req(Command::ReadReq);
        r.push_route(ComponentId(1), PortId(0));
        r.push_route(ComponentId(2), PortId(5));
        assert_eq!(r.route_depth(), 2);
        assert_eq!(r.pop_route().unwrap().component, ComponentId(2));
        assert_eq!(r.pop_route().unwrap().component, ComponentId(1));
        assert_eq!(r.pop_route(), None);
    }

    #[test]
    #[should_panic(expected = "posted requests take no response")]
    fn posted_write_cannot_be_answered() {
        let mut r = req(Command::WriteReq);
        r.set_posted(true);
        let _ = r.into_response();
    }

    #[test]
    #[should_panic(expected = "is not a request command")]
    fn cannot_construct_request_from_response_command() {
        let _ = req(Command::ReadResp);
    }

    #[test]
    #[should_panic(expected = "payload length must equal packet size")]
    fn payload_size_mismatch_panics() {
        let _ = req(Command::WriteReq).with_payload(vec![0u8; 3]);
    }

    #[test]
    fn error_read_completion_returns_all_ones() {
        let mut r = req(Command::ReadReq);
        r.stamp_pci_bus(4);
        r.push_route(ComponentId(9), PortId(1));
        let resp = r.into_error_response(CompletionStatus::UnsupportedRequest);
        assert_eq!(resp.cmd(), Command::ReadResp);
        assert_eq!(resp.status(), CompletionStatus::UnsupportedRequest);
        assert!(resp.is_error());
        assert_eq!(resp.id(), PacketId(1));
        assert_eq!(resp.pci_bus(), Some(4));
        assert_eq!(resp.route_depth(), 1);
        assert!(resp.payload().unwrap().iter().all(|&b| b == 0xff));
        assert_eq!(resp.payload_len(), 64);
    }

    #[test]
    fn error_write_completion_carries_no_payload() {
        let r = req(Command::WriteReq).with_payload(vec![0u8; 64]);
        let resp = r.into_error_response(CompletionStatus::CompletionTimeout);
        assert_eq!(resp.cmd(), Command::WriteResp);
        assert_eq!(resp.status(), CompletionStatus::CompletionTimeout);
        assert!(resp.payload().is_none());
    }

    #[test]
    fn successful_requests_report_no_error() {
        let r = req(Command::ReadReq);
        assert_eq!(r.status(), CompletionStatus::SuccessfulCompletion);
        assert!(!r.is_error());
        let resp = r.into_read_response(vec![0; 64]);
        assert!(!resp.is_error());
    }

    #[test]
    #[should_panic(expected = "posted requests take no completion")]
    fn posted_request_cannot_error_complete() {
        let mut r = req(Command::WriteReq);
        r.set_posted(true);
        let _ = r.into_error_response(CompletionStatus::UnsupportedRequest);
    }

    #[test]
    #[should_panic(expected = "must carry an error status")]
    fn error_completion_rejects_success_status() {
        let _ = req(Command::ReadReq).into_error_response(CompletionStatus::SuccessfulCompletion);
    }

    #[test]
    fn cxl_command_classification() {
        assert!(Command::CxlMemRd.is_request());
        assert!(Command::CxlMemWr.is_request());
        assert!(Command::CxlMemDrs.is_response());
        assert!(Command::CxlMemNdr.is_response());
        assert!(Command::CxlMemRd.is_read());
        assert!(Command::CxlMemDrs.is_read());
        assert!(Command::CxlMemWr.is_write());
        assert!(Command::CxlMemNdr.is_write());
        assert_eq!(Command::CxlMemRd.response(), Command::CxlMemDrs);
        assert_eq!(Command::CxlMemWr.response(), Command::CxlMemNdr);
    }

    #[test]
    fn cxl_requests_are_non_posted_by_default() {
        assert!(!req(Command::CxlMemRd).is_posted());
        assert!(!req(Command::CxlMemWr).is_posted());
    }

    #[test]
    fn cxl_payload_len_follows_direction() {
        assert_eq!(req(Command::CxlMemRd).payload_len(), 0);
        assert_eq!(req(Command::CxlMemWr).payload_len(), 64);
        let drs = req(Command::CxlMemRd).into_read_response(vec![0; 64]);
        assert_eq!(drs.cmd(), Command::CxlMemDrs);
        assert_eq!(drs.payload_len(), 64);
        let ndr = req(Command::CxlMemWr).with_payload(vec![0; 64]).into_response();
        assert_eq!(ndr.cmd(), Command::CxlMemNdr);
        assert_eq!(ndr.payload_len(), 0);
        assert!(ndr.payload().is_none());
    }

    #[test]
    fn cxl_error_read_completion_returns_all_ones() {
        let resp = req(Command::CxlMemRd).into_error_response(CompletionStatus::UnsupportedRequest);
        assert_eq!(resp.cmd(), Command::CxlMemDrs);
        assert!(resp.payload().unwrap().iter().all(|&b| b == 0xff));
    }

    #[test]
    fn decode_rejects_a_payload_whose_length_is_not_the_size() {
        // A hand-written record: an 8-byte write carrying 4 payload bytes.
        let mut w = StateWriter::new();
        w.u64(7);
        Command::WriteReq.save(&mut w);
        w.u64(0x1000);
        w.u32(8);
        w.u32(3);
        None::<u8>.save(&mut w);
        w.bool(false);
        w.bool(true);
        w.bytes(&[0; 4]);
        w.usize(0);
        CompletionStatus::SuccessfulCompletion.save(&mut w);
        let bytes = w.into_bytes();
        let err = Packet::read(&mut StateReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn a_spilled_route_survives_the_hostile_bytes_check() {
        let mut p = req(Command::ReadReq);
        p.stamp_pci_bus(3);
        for i in 0..INLINE_HOPS as u32 + 2 {
            p.push_route(ComponentId(i), PortId(i as u16));
        }
        let p = p.into_error_response(CompletionStatus::UnsupportedRequest);
        crate::testutil::check_state_codec(&p, Packet::default);
        let mut w = StateWriter::new();
        p.save(&mut w);
        let back = Packet::read(&mut StateReader::new(&w.into_bytes())).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.route_depth(), INLINE_HOPS + 2);
        assert_eq!(back.peek_route().unwrap().component, ComponentId(INLINE_HOPS as u32 + 1));
    }

    #[test]
    fn a_clone_is_independent_of_its_original() {
        // The link's replay buffer keeps the original while a clone
        // travels the wire: changing the clone must not reach back.
        let mut orig = req(Command::WriteReq).with_payload(vec![9; 64]);
        orig.push_route(ComponentId(1), PortId(2));
        let snapshot = format!("{orig:?}");
        let mut wire = orig.clone();
        wire.push_route(ComponentId(4), PortId(5));
        assert_eq!(wire.pop_route().unwrap().component, ComponentId(4));
        assert_eq!(wire.pop_route().unwrap().component, ComponentId(1));
        wire.stamp_pci_bus(6);
        assert_eq!(wire.take_payload(), Some(vec![9; 64]));
        assert_eq!(format!("{orig:?}"), snapshot);
        assert_eq!(orig.route_depth(), 1);
        assert_eq!(orig.pci_bus(), None);
        assert_eq!(orig.payload(), Some(&[9u8; 64][..]));
    }

    #[test]
    fn debug_output_names_the_packet_fields() {
        let s = format!("{:?}", req(Command::ReadReq));
        assert!(s.starts_with("Packet { id: PacketId(1), cmd: ReadReq, addr: 1073741824"), "{s}");
        assert!(s.ends_with("status: SuccessfulCompletion }"), "{s}");
    }

    #[test]
    fn cxl_commands_roundtrip_the_checkpoint_codec() {
        let byte = |cmd: Command| {
            let mut w = StateWriter::new();
            cmd.save(&mut w);
            w.into_bytes()
        };
        for cmd in [Command::CxlMemRd, Command::CxlMemWr, Command::CxlMemDrs, Command::CxlMemNdr] {
            assert_eq!(Command::read(&mut StateReader::new(&byte(cmd))).unwrap(), cmd);
        }
        // Pre-CXL encodings are untouched: old checkpoints stay readable.
        assert_eq!(byte(Command::Message), [8]);
        assert_eq!(byte(Command::CxlMemRd), [9]);
    }
}
