//! PCI capability structures and the chain builder.
//!
//! gem5 defines four capability structures — power management, MSI, MSI-X
//! and the PCI-Express capability — organised in a linked chain through the
//! configuration space (paper §IV, Fig. 5). The paper *disables* PM, MSI and
//! MSI-X "by appropriately setting register values in each structure",
//! forcing the driver onto legacy interrupts; these builders reproduce that.

use crate::config::ConfigSpace;
use crate::regs::{aer, cap_id, ext_cap_id, pcie_cap};

/// PCI-Express link generation (determines the per-lane signalling rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Generation {
    /// 2.5 GT/s per lane, 8b/10b encoding.
    Gen1,
    /// 5 GT/s per lane, 8b/10b encoding.
    Gen2,
    /// 8 GT/s per lane, 128b/130b encoding.
    Gen3,
}

impl Generation {
    /// The link-capabilities "supported link speed" field encoding.
    pub fn speed_field(self) -> u8 {
        match self {
            Generation::Gen1 => 1,
            Generation::Gen2 => 2,
            Generation::Gen3 => 3,
        }
    }
}

/// PCI-Express device/port type for the capability register (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortType {
    /// A PCI-Express endpoint function.
    Endpoint,
    /// A root port of the root complex.
    RootPort,
    /// The upstream port of a switch.
    SwitchUpstream,
    /// A downstream port of a switch.
    SwitchDownstream,
}

impl PortType {
    fn field(self) -> u8 {
        use crate::regs::pcie_cap::port_type as pt;
        match self {
            PortType::Endpoint => pt::ENDPOINT,
            PortType::RootPort => pt::ROOT_PORT,
            PortType::SwitchUpstream => pt::SWITCH_UPSTREAM,
            PortType::SwitchDownstream => pt::SWITCH_DOWNSTREAM,
        }
    }
}

/// One capability to place in the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capability {
    /// Power management, reporting no useful power states (disabled, as the
    /// paper configures it).
    PowerManagement,
    /// MSI with the enable bit hardwired to zero (unsupported in gem5).
    MsiDisabled,
    /// A functional 64-bit MSI capability: software can program the
    /// message address/data and set the enable bit — the extension the
    /// paper leaves as future work (gem5 has "no support for MSI").
    MsiCapable,
    /// MSI-X with the enable bit hardwired to zero.
    MsixDisabled,
    /// A functional MSI-X capability: the vector table and pending-bit
    /// array live in a device BAR (the device model serves them through
    /// its MMIO path, so programming round-trips through simulated TLPs);
    /// software can flip the function enable and function mask bits.
    MsixCapable {
        /// Number of vectors (1..=2048), encoded as N-1 in message control.
        table_size: u16,
        /// BAR index (BIR) holding the vector table.
        table_bar: u8,
        /// Byte offset of the table within that BAR (8-byte aligned).
        table_offset: u32,
        /// BAR index (BIR) holding the pending-bit array.
        pba_bar: u8,
        /// Byte offset of the PBA within that BAR (8-byte aligned).
        pba_offset: u32,
    },
    /// A vendor-specific capability in the virtio-pci layout: the
    /// structure names a BAR-resident register block (`cfg_type` says
    /// which — common config, notify, ISR or device config) so drivers
    /// discover the transport by walking the chain rather than by
    /// hard-coded offsets (virtio spec §4.1.4).
    VendorSpecific {
        /// Which structure this capability locates (common=1, notify=2,
        /// ISR=3, device config=4).
        cfg_type: u8,
        /// BAR index holding the structure.
        bar: u8,
        /// Byte offset of the structure within that BAR.
        offset: u32,
        /// Byte length of the structure.
        length: u32,
        /// Trailing dword (the notify capability's offset multiplier).
        extra: Option<u32>,
    },
    /// The PCI-Express capability structure.
    PciExpress {
        /// Reported device/port type.
        port_type: PortType,
        /// Highest supported generation.
        generation: Generation,
        /// Maximum link width in lanes (1..=32).
        max_width: u8,
    },
}

impl Capability {
    /// The capability ID byte this structure carries.
    pub fn id(&self) -> u8 {
        match self {
            Capability::PowerManagement => cap_id::POWER_MANAGEMENT,
            Capability::MsiDisabled | Capability::MsiCapable => cap_id::MSI,
            Capability::MsixDisabled | Capability::MsixCapable { .. } => cap_id::MSI_X,
            Capability::VendorSpecific { .. } => cap_id::VENDOR_SPECIFIC,
            Capability::PciExpress { .. } => cap_id::PCI_EXPRESS,
        }
    }

    /// Bytes of configuration space the structure occupies.
    pub fn len(&self) -> u16 {
        match self {
            Capability::PowerManagement => 8,
            Capability::MsiDisabled | Capability::MsiCapable => 16,
            Capability::MsixDisabled | Capability::MsixCapable { .. } => 12,
            Capability::VendorSpecific { extra: None, .. } => 16,
            Capability::VendorSpecific { extra: Some(_), .. } => 20,
            Capability::PciExpress { port_type: PortType::Endpoint, .. } => pcie_cap::ENDPOINT_LEN,
            Capability::PciExpress { .. } => pcie_cap::LEN,
        }
    }

    /// Capabilities always occupy space.
    pub fn is_empty(&self) -> bool {
        false
    }

    fn write(&self, cs: &mut ConfigSpace, offset: u16, next: u8) {
        cs.init_u8(offset, self.id());
        cs.init_u8(offset + 1, next);
        match *self {
            Capability::PowerManagement => {
                // PMC: version 3, no PME support from any state.
                cs.init_u16(offset + 2, 0x0003);
                // PMCSR: power state field writable so the driver can spin
                // it, but nothing else (no PME enable).
                cs.init_u16(offset + 4, 0x0000);
                cs.set_writable(offset + 4, &[0x03, 0x00]);
            }
            Capability::MsiDisabled => {
                // Message control: all read-only zero — the driver's attempt
                // to set the MSI enable bit bounces, so it falls back to
                // legacy interrupts (paper §IV).
                cs.init_u16(offset + 2, 0x0000);
            }
            Capability::MsiCapable => {
                // Message control: 64-bit capable (bit 7), enable writable.
                cs.init_u16(offset + 2, 0x0080);
                cs.set_writable(offset + 2, &[0x01, 0x00]);
                // Message address (64-bit) and data, programmed by software.
                cs.set_writable_bytes(offset + 4, 8);
                cs.set_writable_bytes(offset + 12, 2);
            }
            Capability::MsixDisabled => {
                // Message control: table size 0, enable bit read-only zero.
                cs.init_u16(offset + 2, 0x0000);
            }
            Capability::MsixCapable {
                table_size,
                table_bar,
                table_offset,
                pba_bar,
                pba_offset,
            } => {
                assert!(
                    (1..=2048).contains(&table_size),
                    "MSI-X table size must be 1..=2048, got {table_size}"
                );
                assert!(table_bar < 6 && pba_bar < 6, "BIR must name a type-0 BAR (0..=5)");
                assert_eq!(table_offset % 8, 0, "MSI-X table must be 8-byte aligned");
                assert_eq!(pba_offset % 8, 0, "MSI-X PBA must be 8-byte aligned");
                // Message control: table size N-1 in bits 10:0 (read-only);
                // function mask (bit 14) and enable (bit 15) writable.
                cs.init_u16(offset + msix::CONTROL, table_size - 1);
                cs.set_writable(offset + msix::CONTROL, &[0x00, 0xc0]);
                // Table / PBA locators: BIR in the low 3 bits, offset above.
                cs.init_u32(offset + msix::TABLE, table_offset | u32::from(table_bar));
                cs.init_u32(offset + msix::PBA, pba_offset | u32::from(pba_bar));
            }
            Capability::VendorSpecific { cfg_type, bar, offset: loc, length, extra } => {
                assert!(bar < 6, "BIR must name a type-0 BAR (0..=5)");
                assert!(cfg_type != 0, "cfg_type 0 is reserved");
                // Layout per virtio spec §4.1.4: cap_len, cfg_type, bar,
                // then (after 3 padding bytes) offset and length dwords,
                // with the notify multiplier trailing when present.
                cs.init_u8(offset + vendor_cap::CAP_LEN, self.len() as u8);
                cs.init_u8(offset + vendor_cap::CFG_TYPE, cfg_type);
                cs.init_u8(offset + vendor_cap::BAR, bar);
                cs.init_u32(offset + vendor_cap::OFFSET, loc);
                cs.init_u32(offset + vendor_cap::LENGTH, length);
                if let Some(mult) = extra {
                    cs.init_u32(offset + vendor_cap::EXTRA, mult);
                }
            }
            Capability::PciExpress { port_type, generation, max_width } => {
                assert!(
                    (1..=32).contains(&max_width),
                    "link width must be 1..=32, got {max_width}"
                );
                // Capability register: version 2, device/port type.
                let caps: u16 = 0x0002 | (u16::from(port_type.field()) << 4);
                cs.init_u16(offset + pcie_cap::PCIE_CAPS, caps);
                // Device capabilities: max payload 512 B (encoding 2).
                cs.init_u32(offset + pcie_cap::DEVICE_CAPS, 0x0000_0002);
                // Device control writable (max payload / max read request).
                cs.set_writable(offset + pcie_cap::DEVICE_CONTROL, &[0xff, 0x0f]);
                // Link capabilities: speed [3:0], width [9:4].
                let link_caps: u32 =
                    u32::from(generation.speed_field()) | (u32::from(max_width) << 4);
                cs.init_u32(offset + pcie_cap::LINK_CAPS, link_caps);
                cs.set_writable(offset + pcie_cap::LINK_CONTROL, &[0xff, 0x00]);
                // Link status: negotiated speed/width = maximum.
                let link_status: u16 =
                    u16::from(generation.speed_field()) | (u16::from(max_width) << 4);
                cs.init_u16(offset + pcie_cap::LINK_STATUS, link_status);
                // Slot and root registers exist but stay zero: gem5 models
                // no hot-plug slots and no root-port event reporting.
            }
        }
    }
}

/// Lays capability structures into a configuration space and links the
/// chain, returning the pointer for the header's Cap Ptr register.
///
/// ```
/// use pcisim_pci::caps::{Capability, CapChain, Generation, PortType};
/// use pcisim_pci::config::ConfigSpace;
/// let mut cs = ConfigSpace::new();
/// let first = CapChain::new()
///     .add(0xc8, Capability::PowerManagement)
///     .add(0xd0, Capability::MsiDisabled)
///     .add(0xe0, Capability::PciExpress {
///         port_type: PortType::Endpoint,
///         generation: Generation::Gen2,
///         max_width: 4,
///     })
///     .write_into(&mut cs);
/// assert_eq!(first, 0xc8);
/// ```
#[derive(Debug, Default)]
pub struct CapChain {
    entries: Vec<(u8, Capability)>,
}

impl CapChain {
    /// Starts an empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a capability at the given configuration-space offset; chain
    /// order follows call order.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is below 0x40 (inside the header) or not
    /// 4-byte aligned.
    pub fn add(mut self, offset: u8, cap: Capability) -> Self {
        assert!(offset >= 0x40, "capabilities live above the 64 B header");
        assert_eq!(offset % 4, 0, "capability structures are dword-aligned");
        self.entries.push((offset, cap));
        self
    }

    /// Writes every structure and the next-pointers; returns the offset of
    /// the first capability (0 when the chain is empty).
    ///
    /// # Panics
    ///
    /// Panics when two capabilities overlap.
    pub fn write_into(self, cs: &mut ConfigSpace) -> u8 {
        // Overlap check.
        let mut spans: Vec<(u16, u16)> = self
            .entries
            .iter()
            .map(|(off, cap)| (u16::from(*off), u16::from(*off) + cap.len()))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "capability structures overlap at {:#x}", w[1].0);
        }
        let first = self.entries.first().map_or(0, |(off, _)| *off);
        for i in 0..self.entries.len() {
            let (offset, cap) = self.entries[i];
            let next = self.entries.get(i + 1).map_or(0, |(off, _)| *off);
            cap.write(cs, u16::from(offset), next);
        }
        first
    }
}

/// One hop of a capability walk: `(offset, capability id)`.
pub type CapEntry = (u16, u8);

/// Walks the capability chain of `cs` starting at the header Cap Ptr,
/// mirroring what enumeration software and drivers do.
///
/// Stops after 48 hops to survive corrupted (cyclic) chains.
pub fn walk_capabilities(cs: &ConfigSpace) -> Vec<CapEntry> {
    let mut out = Vec::new();
    let mut ptr = cs.read(crate::regs::common::CAP_PTR, 1) as u16 & 0xfc;
    let mut hops = 0;
    while ptr >= 0x40 && hops < 48 {
        let id = cs.read(ptr, 1) as u8;
        out.push((ptr, id));
        ptr = cs.read(ptr + 1, 1) as u16 & 0xfc;
        hops += 1;
    }
    out
}

/// Finds the offset of the first capability with `id`, if present.
pub fn find_capability(cs: &ConfigSpace, id: u8) -> Option<u16> {
    walk_capabilities(cs).into_iter().find(|&(_, cid)| cid == id).map(|(off, _)| off)
}

/// Writes a PCI-Express extended capability header at `offset` in the
/// extended configuration space (0x100+): `id`, `version`, `next`.
///
/// # Panics
///
/// Panics when `offset` is below 0x100 or unaligned.
pub fn write_extended_cap_header(
    cs: &mut ConfigSpace,
    offset: u16,
    id: u16,
    version: u8,
    next: u16,
) {
    assert!(offset >= 0x100, "extended capabilities live at 0x100+");
    assert_eq!(offset % 4, 0);
    let header = u32::from(id) | (u32::from(version) << 16) | (u32::from(next) << 20);
    cs.init_u32(offset, header);
}

/// Walks the extended capability list from offset 0x100; returns
/// `(offset, id, version)` entries. An all-zero header terminates.
pub fn walk_extended_capabilities(cs: &ConfigSpace) -> Vec<(u16, u16, u8)> {
    let mut out = Vec::new();
    let mut ptr = 0x100u16;
    let mut hops = 0;
    while ptr >= 0x100 && hops < 48 {
        let header = cs.read(ptr, 4);
        if header == 0 {
            break;
        }
        let id = (header & 0xffff) as u16;
        let version = ((header >> 16) & 0xf) as u8;
        out.push((ptr, id, version));
        ptr = ((header >> 20) & 0xffc) as u16;
        hops += 1;
    }
    out
}

/// Finds the offset of the first extended capability with `id`, if present.
pub fn find_extended_capability(cs: &ConfigSpace, id: u16) -> Option<u16> {
    walk_extended_capabilities(cs).into_iter().find(|&(_, cid, _)| cid == id).map(|(off, _, _)| off)
}

/// Writes an Advanced Error Reporting extended capability structure at
/// `offset` (paper §IV leaves AER unimplemented in gem5; this model fills
/// the gap so the fabric's error paths are architecturally visible).
///
/// Status registers start clear and accumulate error bits as the fabric
/// records them; the mask registers are software-writable. `next` chains to
/// the following extended capability (0 terminates).
///
/// # Panics
///
/// Panics when `offset` is below 0x100 or unaligned.
pub fn write_aer_capability(cs: &mut ConfigSpace, offset: u16, next: u16) {
    write_extended_cap_header(cs, offset, ext_cap_id::AER, 1, next);
    cs.init_u32(offset + aer::UNCOR_STATUS, 0);
    cs.init_u32(offset + aer::UNCOR_MASK, 0);
    cs.set_writable_bytes(offset + aer::UNCOR_MASK, 4);
    // Severity reset values: completion timeout and UR are non-fatal.
    cs.init_u32(offset + aer::UNCOR_SEVERITY, 0);
    cs.set_writable_bytes(offset + aer::UNCOR_SEVERITY, 4);
    cs.init_u32(offset + aer::COR_STATUS, 0);
    cs.init_u32(offset + aer::COR_MASK, 0);
    cs.set_writable_bytes(offset + aer::COR_MASK, 4);
    cs.init_u32(offset + aer::CAP_CONTROL, 0);
    cs.init_u32(offset + aer::ERROR_SOURCE_ID, 0);
}

/// Sets `bits` in the AER uncorrectable error status register and records
/// `source` as the uncorrectable error source requester ID. No-op when the
/// function has no AER capability — status bits log regardless of the mask
/// (the mask gates reporting, not logging, per spec §6.2.3).
pub fn aer_record_uncorrectable(cs: &mut ConfigSpace, bits: u32, source: u16) {
    let Some(off) = find_extended_capability(cs, ext_cap_id::AER) else { return };
    let status = cs.read(off + aer::UNCOR_STATUS, 4);
    cs.init_u32(off + aer::UNCOR_STATUS, status | bits);
    let src = cs.read(off + aer::ERROR_SOURCE_ID, 4);
    cs.init_u32(off + aer::ERROR_SOURCE_ID, (src & 0x0000_ffff) | (u32::from(source) << 16));
}

/// Sets `bits` in the AER correctable error status register and records
/// `source` as the correctable error source requester ID. No-op when the
/// function has no AER capability.
pub fn aer_record_correctable(cs: &mut ConfigSpace, bits: u32, source: u16) {
    let Some(off) = find_extended_capability(cs, ext_cap_id::AER) else { return };
    let status = cs.read(off + aer::COR_STATUS, 4);
    cs.init_u32(off + aer::COR_STATUS, status | bits);
    let src = cs.read(off + aer::ERROR_SOURCE_ID, 4);
    cs.init_u32(off + aer::ERROR_SOURCE_ID, (src & 0xffff_0000) | u32::from(source));
}

/// Reads `(uncorrectable status, correctable status)` out of a function's
/// AER capability; `(0, 0)` when absent.
pub fn aer_status(cs: &ConfigSpace) -> (u32, u32) {
    match find_extended_capability(cs, ext_cap_id::AER) {
        Some(off) => (cs.read(off + aer::UNCOR_STATUS, 4), cs.read(off + aer::COR_STATUS, 4)),
        None => (0, 0),
    }
}

/// Offsets within a vendor-specific (virtio-pci) capability structure.
pub mod vendor_cap {
    /// Total structure length in bytes (u8).
    pub const CAP_LEN: u16 = 0x02;
    /// Structure type discriminator (u8).
    pub const CFG_TYPE: u16 = 0x03;
    /// BAR index (u8).
    pub const BAR: u16 = 0x04;
    /// Byte offset of the located structure within the BAR (u32).
    pub const OFFSET: u16 = 0x08;
    /// Byte length of the located structure (u32).
    pub const LENGTH: u16 = 0x0c;
    /// Trailing dword (notify offset multiplier) when `cap_len` is 20.
    pub const EXTRA: u16 = 0x10;
    /// `cfg_type` naming the common configuration structure.
    pub const TYPE_COMMON: u8 = 1;
    /// `cfg_type` naming the notify (doorbell) region.
    pub const TYPE_NOTIFY: u8 = 2;
    /// `cfg_type` naming the ISR status byte.
    pub const TYPE_ISR: u8 = 3;
    /// `cfg_type` naming the device-specific configuration structure.
    pub const TYPE_DEVICE: u8 = 4;
}

/// One parsed vendor-specific structure locator:
/// `(cfg_type, bar, offset, length, extra)`.
pub type VendorStructure = (u8, u8, u32, u32, Option<u32>);

/// Parses every vendor-specific capability in the chain into structure
/// locators, in chain order (what a virtio driver does at probe).
pub fn vendor_structures(cs: &ConfigSpace) -> Vec<VendorStructure> {
    walk_capabilities(cs)
        .into_iter()
        .filter(|&(_, id)| id == cap_id::VENDOR_SPECIFIC)
        .map(|(off, _)| {
            let cap_len = cs.read(off + vendor_cap::CAP_LEN, 1) as u8;
            let extra =
                if cap_len >= 20 { Some(cs.read(off + vendor_cap::EXTRA, 4)) } else { None };
            (
                cs.read(off + vendor_cap::CFG_TYPE, 1) as u8,
                cs.read(off + vendor_cap::BAR, 1) as u8,
                cs.read(off + vendor_cap::OFFSET, 4),
                cs.read(off + vendor_cap::LENGTH, 4),
                extra,
            )
        })
        .collect()
}

/// Offsets within a 64-bit MSI capability structure.
pub mod msi {
    /// Message control register (u16).
    pub const CONTROL: u16 = 0x02;
    /// Enable bit within the control register.
    pub const CONTROL_ENABLE: u16 = 0x0001;
    /// Message address, low 32 bits.
    pub const ADDR_LO: u16 = 0x04;
    /// Message address, high 32 bits.
    pub const ADDR_HI: u16 = 0x08;
    /// Message data (u16).
    pub const DATA: u16 = 0x0c;
}

/// When the device's MSI capability is present **and enabled**, returns
/// the programmed `(message address, message data)`.
pub fn msi_target(cs: &ConfigSpace) -> Option<(u64, u16)> {
    let off = find_capability(cs, cap_id::MSI)?;
    let control = cs.read(off + msi::CONTROL, 2) as u16;
    if control & msi::CONTROL_ENABLE == 0 {
        return None;
    }
    let lo = cs.read(off + msi::ADDR_LO, 4) as u64;
    let hi = cs.read(off + msi::ADDR_HI, 4) as u64;
    let data = cs.read(off + msi::DATA, 2) as u16;
    Some(((hi << 32) | lo, data))
}

/// Offsets within an MSI-X capability structure and its BAR-resident
/// vector table.
pub mod msix {
    /// Message control register (u16).
    pub const CONTROL: u16 = 0x02;
    /// Function enable bit within the control register.
    pub const CONTROL_ENABLE: u16 = 0x8000;
    /// Function mask bit within the control register.
    pub const CONTROL_FUNCTION_MASK: u16 = 0x4000;
    /// Table size field mask (encodes N-1) within the control register.
    pub const CONTROL_TABLE_SIZE: u16 = 0x07ff;
    /// Table locator dword (offset | BIR).
    pub const TABLE: u16 = 0x04;
    /// PBA locator dword (offset | BIR).
    pub const PBA: u16 = 0x08;
    /// Bytes per vector-table entry.
    pub const ENTRY_SIZE: u64 = 16;
    /// Message address low dword, within an entry.
    pub const ENTRY_ADDR_LO: u64 = 0x0;
    /// Message address high dword, within an entry.
    pub const ENTRY_ADDR_HI: u64 = 0x4;
    /// Message data dword, within an entry.
    pub const ENTRY_DATA: u64 = 0x8;
    /// Vector control dword, within an entry.
    pub const ENTRY_VECTOR_CTRL: u64 = 0xc;
    /// Per-vector mask bit within the vector control dword.
    pub const VECTOR_CTRL_MASK: u32 = 0x1;
}

/// Number of MSI-X vectors the function advertises; 0 when no MSI-X
/// capability is present or the structure is the hardwired-disabled one
/// (table size field 0 *and* an unwritable enable bit).
pub fn msix_table_size(cs: &ConfigSpace) -> u16 {
    let Some(off) = find_capability(cs, cap_id::MSI_X) else { return 0 };
    let control = cs.read(off + msix::CONTROL, 2) as u16;
    let encoded = control & msix::CONTROL_TABLE_SIZE;
    if encoded == 0 && cs.mask_at(off + msix::CONTROL + 1) & 0x80 == 0 {
        return 0; // MsixDisabled: not a 1-vector function
    }
    encoded + 1
}

/// Whether software has set the MSI-X function enable bit.
pub fn msix_enabled(cs: &ConfigSpace) -> bool {
    find_capability(cs, cap_id::MSI_X)
        .is_some_and(|off| cs.read(off + msix::CONTROL, 2) as u16 & msix::CONTROL_ENABLE != 0)
}

/// Whether software has set the MSI-X function mask bit (all vectors
/// masked regardless of their per-vector mask).
pub fn msix_function_masked(cs: &ConfigSpace) -> bool {
    find_capability(cs, cap_id::MSI_X).is_some_and(|off| {
        cs.read(off + msix::CONTROL, 2) as u16 & msix::CONTROL_FUNCTION_MASK != 0
    })
}

/// `(BIR, byte offset)` of the MSI-X vector table, when the capability is
/// present.
pub fn msix_table_location(cs: &ConfigSpace) -> Option<(u8, u32)> {
    let off = find_capability(cs, cap_id::MSI_X)?;
    let dword = cs.read(off + msix::TABLE, 4);
    Some(((dword & 0x7) as u8, dword & !0x7))
}

/// `(BIR, byte offset)` of the MSI-X pending-bit array, when the
/// capability is present.
pub fn msix_pba_location(cs: &ConfigSpace) -> Option<(u8, u32)> {
    let off = find_capability(cs, cap_id::MSI_X)?;
    let dword = cs.read(off + msix::PBA, 4);
    Some(((dword & 0x7) as u8, dword & !0x7))
}

/// Reads the negotiated `(generation-speed-field, width)` out of a PCIe
/// capability structure's link-status register at `cap_offset`.
pub fn link_status(cs: &ConfigSpace, cap_offset: u16) -> (u8, u8) {
    let ls = cs.read(cap_offset + pcie_cap::LINK_STATUS, 2) as u16;
    ((ls & 0xf) as u8, ((ls >> 4) & 0x3f) as u8)
}

/// Reads the device/port type from a PCIe capability structure.
pub fn port_type_field(cs: &ConfigSpace, cap_offset: u16) -> u8 {
    ((cs.read(cap_offset + pcie_cap::PCIE_CAPS, 2) >> 4) & 0xf) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::pcie_cap::port_type as pt;

    fn chain_8254x_pcie(cs: &mut ConfigSpace) -> u8 {
        // The paper's NIC chain: PM → MSI → PCIe → MSI-X (§IV).
        CapChain::new()
            .add(0xc8, Capability::PowerManagement)
            .add(0xd0, Capability::MsiDisabled)
            .add(
                0xe0,
                Capability::PciExpress {
                    port_type: PortType::Endpoint,
                    generation: Generation::Gen2,
                    max_width: 1,
                },
            )
            .add(0xa0, Capability::MsixDisabled)
            .write_into(cs)
    }

    #[test]
    fn chain_links_in_declaration_order() {
        let mut cs = ConfigSpace::new();
        let first = chain_8254x_pcie(&mut cs);
        assert_eq!(first, 0xc8);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        let walked = walk_capabilities(&cs);
        assert_eq!(
            walked,
            vec![
                (0xc8, cap_id::POWER_MANAGEMENT),
                (0xd0, cap_id::MSI),
                (0xe0, cap_id::PCI_EXPRESS),
                (0xa0, cap_id::MSI_X),
            ]
        );
    }

    #[test]
    fn find_capability_locates_pcie() {
        let mut cs = ConfigSpace::new();
        let first = chain_8254x_pcie(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        assert_eq!(find_capability(&cs, cap_id::PCI_EXPRESS), Some(0xe0));
        assert_eq!(find_capability(&cs, 0x42), None);
    }

    #[test]
    fn msi_enable_bit_cannot_be_set() {
        let mut cs = ConfigSpace::new();
        let first = chain_8254x_pcie(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        let msi = find_capability(&cs, cap_id::MSI).unwrap();
        cs.write(msi + 2, 2, 0x0001); // try to enable MSI
        assert_eq!(cs.read(msi + 2, 2), 0, "MSI enable must bounce off");
    }

    #[test]
    fn pcie_cap_reports_port_type_and_link() {
        let mut cs = ConfigSpace::new();
        CapChain::new()
            .add(
                0xd8,
                Capability::PciExpress {
                    port_type: PortType::RootPort,
                    generation: Generation::Gen2,
                    max_width: 4,
                },
            )
            .write_into(&mut cs);
        assert_eq!(port_type_field(&cs, 0xd8), pt::ROOT_PORT);
        assert_eq!(link_status(&cs, 0xd8), (2, 4));
        let link_caps = cs.read(0xd8 + pcie_cap::LINK_CAPS, 4);
        assert_eq!(link_caps & 0xf, 2);
        assert_eq!((link_caps >> 4) & 0x3f, 4);
    }

    #[test]
    fn switch_port_types_encode_distinctly() {
        for (ty, want) in [
            (PortType::SwitchUpstream, pt::SWITCH_UPSTREAM),
            (PortType::SwitchDownstream, pt::SWITCH_DOWNSTREAM),
            (PortType::Endpoint, pt::ENDPOINT),
        ] {
            let mut cs = ConfigSpace::new();
            CapChain::new()
                .add(
                    0x40,
                    Capability::PciExpress {
                        port_type: ty,
                        generation: Generation::Gen3,
                        max_width: 8,
                    },
                )
                .write_into(&mut cs);
            assert_eq!(port_type_field(&cs, 0x40), want);
        }
    }

    #[test]
    #[should_panic(expected = "capability structures overlap")]
    fn overlapping_capabilities_panic() {
        let mut cs = ConfigSpace::new();
        CapChain::new()
            .add(0x40, Capability::MsiDisabled)
            .add(0x44, Capability::PowerManagement)
            .write_into(&mut cs);
    }

    #[test]
    fn empty_chain_returns_null_pointer() {
        let mut cs = ConfigSpace::new();
        assert_eq!(CapChain::new().write_into(&mut cs), 0);
        assert!(walk_capabilities(&cs).is_empty());
    }

    #[test]
    fn extended_caps_walk() {
        let mut cs = ConfigSpace::new();
        write_extended_cap_header(&mut cs, 0x100, crate::regs::ext_cap_id::AER, 1, 0x140);
        write_extended_cap_header(&mut cs, 0x140, crate::regs::ext_cap_id::DEVICE_SERIAL, 1, 0);
        let caps = walk_extended_capabilities(&cs);
        assert_eq!(caps, vec![(0x100, 0x0001, 1), (0x140, 0x0003, 1)]);
    }

    #[test]
    fn aer_capability_is_walkable_and_accumulates_errors() {
        let mut cs = ConfigSpace::new();
        write_aer_capability(&mut cs, 0x100, 0);
        assert_eq!(find_extended_capability(&cs, crate::regs::ext_cap_id::AER), Some(0x100));
        assert_eq!(aer_status(&cs), (0, 0));

        aer_record_correctable(&mut cs, aer::cor::BAD_TLP, 0x0008);
        aer_record_correctable(&mut cs, aer::cor::REPLAY_TIMER_TIMEOUT, 0x0008);
        aer_record_uncorrectable(&mut cs, aer::uncor::UNSUPPORTED_REQUEST, 0x0100);
        let (uncor, cor) = aer_status(&cs);
        assert_eq!(uncor, aer::uncor::UNSUPPORTED_REQUEST);
        assert_eq!(cor, aer::cor::BAD_TLP | aer::cor::REPLAY_TIMER_TIMEOUT);
        let source = cs.read(0x100 + aer::ERROR_SOURCE_ID, 4);
        assert_eq!(source & 0xffff, 0x0008, "correctable source in low half");
        assert_eq!(source >> 16, 0x0100, "uncorrectable source in high half");

        // Masks are software-writable; status logging ignores them.
        cs.write(0x100 + aer::COR_MASK, 4, aer::cor::BAD_DLLP);
        assert_eq!(cs.read(0x100 + aer::COR_MASK, 4), aer::cor::BAD_DLLP);
        aer_record_correctable(&mut cs, aer::cor::BAD_DLLP, 0x0008);
        assert_eq!(aer_status(&cs).1 & aer::cor::BAD_DLLP, aer::cor::BAD_DLLP);
    }

    #[test]
    fn aer_record_without_capability_is_a_noop() {
        let mut cs = ConfigSpace::new();
        aer_record_uncorrectable(&mut cs, aer::uncor::COMPLETION_TIMEOUT, 0x42);
        aer_record_correctable(&mut cs, aer::cor::RECEIVER_ERROR, 0x42);
        assert_eq!(aer_status(&cs), (0, 0));
        assert!(walk_extended_capabilities(&cs).is_empty());
    }

    #[test]
    fn extended_caps_empty_space_terminates() {
        let cs = ConfigSpace::new();
        assert!(walk_extended_capabilities(&cs).is_empty());
    }

    #[test]
    fn generation_speed_fields() {
        assert_eq!(Generation::Gen1.speed_field(), 1);
        assert_eq!(Generation::Gen2.speed_field(), 2);
        assert_eq!(Generation::Gen3.speed_field(), 3);
    }

    #[test]
    fn msi_capable_structure_can_be_programmed_and_enabled() {
        let mut cs = ConfigSpace::new();
        CapChain::new().add(0x50, Capability::MsiCapable).write_into(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, 0x50);
        cs.init_u16(crate::regs::common::STATUS, crate::regs::status::CAP_LIST);
        assert_eq!(msi_target(&cs), None, "disabled until software enables");
        cs.write(0x50 + msi::ADDR_LO, 4, 0x2c00_0080);
        cs.write(0x50 + msi::ADDR_HI, 4, 0);
        cs.write(0x50 + msi::DATA, 2, 0x42);
        cs.write(0x50 + msi::CONTROL, 2, u32::from(msi::CONTROL_ENABLE));
        assert_eq!(msi_target(&cs), Some((0x2c00_0080, 0x42)));
        // 64-bit capable bit stays set; enable round-trips off again.
        assert_eq!(cs.read(0x50 + msi::CONTROL, 2) & 0x80, 0x80);
        cs.write(0x50 + msi::CONTROL, 2, 0);
        assert_eq!(msi_target(&cs), None);
    }

    #[test]
    fn msi_disabled_structure_never_yields_a_target() {
        let mut cs = ConfigSpace::new();
        CapChain::new().add(0x50, Capability::MsiDisabled).write_into(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, 0x50);
        cs.init_u16(crate::regs::common::STATUS, crate::regs::status::CAP_LIST);
        cs.write(0x50 + msi::CONTROL, 2, u32::from(msi::CONTROL_ENABLE));
        assert_eq!(msi_target(&cs), None);
    }

    #[test]
    fn msix_capable_structure_encodes_table_and_flips_enable() {
        let mut cs = ConfigSpace::new();
        CapChain::new()
            .add(
                0xa0,
                Capability::MsixCapable {
                    table_size: 8,
                    table_bar: 0,
                    table_offset: 0x1_0000,
                    pba_bar: 0,
                    pba_offset: 0x1_8000,
                },
            )
            .write_into(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, 0xa0);
        cs.init_u16(crate::regs::common::STATUS, crate::regs::status::CAP_LIST);
        assert_eq!(msix_table_size(&cs), 8);
        assert_eq!(msix_table_location(&cs), Some((0, 0x1_0000)));
        assert_eq!(msix_pba_location(&cs), Some((0, 0x1_8000)));
        assert!(!msix_enabled(&cs));

        // Table size is read-only; enable and function mask round-trip.
        cs.write(0xa0 + msix::CONTROL, 2, 0x07ff);
        assert_eq!(msix_table_size(&cs), 8, "table size must not be writable");
        cs.write(0xa0 + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        assert!(msix_enabled(&cs) && !msix_function_masked(&cs));
        cs.write(
            0xa0 + msix::CONTROL,
            2,
            u32::from(msix::CONTROL_ENABLE | msix::CONTROL_FUNCTION_MASK),
        );
        assert!(msix_enabled(&cs) && msix_function_masked(&cs));
        cs.write(0xa0 + msix::CONTROL, 2, 0);
        assert!(!msix_enabled(&cs));
    }

    #[test]
    fn msix_disabled_structure_advertises_no_vectors() {
        let mut cs = ConfigSpace::new();
        let first = chain_8254x_pcie(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        cs.init_u16(crate::regs::common::STATUS, crate::regs::status::CAP_LIST);
        assert_eq!(msix_table_size(&cs), 0);
        cs.write(0xa0 + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        assert!(!msix_enabled(&cs), "MSI-X enable must bounce off");
    }

    #[test]
    #[should_panic(expected = "8-byte aligned")]
    fn msix_misaligned_table_panics() {
        let mut cs = ConfigSpace::new();
        CapChain::new()
            .add(
                0xa0,
                Capability::MsixCapable {
                    table_size: 4,
                    table_bar: 0,
                    table_offset: 0x1_0004,
                    pba_bar: 0,
                    pba_offset: 0x1_8000,
                },
            )
            .write_into(&mut cs);
    }

    #[test]
    fn vendor_specific_chain_parses_back() {
        let mut cs = ConfigSpace::new();
        let first = CapChain::new()
            .add(
                0x40,
                Capability::VendorSpecific {
                    cfg_type: vendor_cap::TYPE_COMMON,
                    bar: 0,
                    offset: 0,
                    length: 0x100,
                    extra: None,
                },
            )
            .add(
                0x50,
                Capability::VendorSpecific {
                    cfg_type: vendor_cap::TYPE_NOTIFY,
                    bar: 0,
                    offset: 0x1000,
                    length: 0x100,
                    extra: Some(4),
                },
            )
            .add(
                0x64,
                Capability::VendorSpecific {
                    cfg_type: vendor_cap::TYPE_ISR,
                    bar: 0,
                    offset: 0x2000,
                    length: 4,
                    extra: None,
                },
            )
            .write_into(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        let parsed = vendor_structures(&cs);
        assert_eq!(
            parsed,
            vec![
                (vendor_cap::TYPE_COMMON, 0, 0, 0x100, None),
                (vendor_cap::TYPE_NOTIFY, 0, 0x1000, 0x100, Some(4)),
                (vendor_cap::TYPE_ISR, 0, 0x2000, 4, None),
            ]
        );
        // The trailing-dword variant really occupies 20 bytes: a cap at
        // 0x50 with extra reaches 0x64, where the next one starts.
        assert_eq!(cs.read(0x50 + vendor_cap::CAP_LEN, 1), 20);
        assert_eq!(cs.read(0x40 + vendor_cap::CAP_LEN, 1), 16);
    }

    #[test]
    fn vendor_specific_mixes_with_standard_caps() {
        let mut cs = ConfigSpace::new();
        let first = CapChain::new()
            .add(
                0x40,
                Capability::VendorSpecific {
                    cfg_type: vendor_cap::TYPE_DEVICE,
                    bar: 2,
                    offset: 0x3000,
                    length: 0x40,
                    extra: None,
                },
            )
            .add(0xc8, Capability::PowerManagement)
            .write_into(&mut cs);
        cs.init_u8(crate::regs::common::CAP_PTR, first);
        let walked = walk_capabilities(&cs);
        assert_eq!(walked, vec![(0x40, cap_id::VENDOR_SPECIFIC), (0xc8, cap_id::POWER_MANAGEMENT)]);
        assert_eq!(vendor_structures(&cs), vec![(vendor_cap::TYPE_DEVICE, 2, 0x3000, 0x40, None)]);
    }

    #[test]
    #[should_panic(expected = "cfg_type 0 is reserved")]
    fn vendor_specific_rejects_reserved_type() {
        let mut cs = ConfigSpace::new();
        CapChain::new()
            .add(
                0x40,
                Capability::VendorSpecific {
                    cfg_type: 0,
                    bar: 0,
                    offset: 0,
                    length: 4,
                    extra: None,
                },
            )
            .write_into(&mut cs);
    }

    #[test]
    fn cycle_protection_stops_walk() {
        let mut cs = ConfigSpace::new();
        // Two caps pointing at each other.
        cs.init_u8(0x40, cap_id::MSI);
        cs.init_u8(0x41, 0x48);
        cs.init_u8(0x48, cap_id::POWER_MANAGEMENT);
        cs.init_u8(0x49, 0x40);
        cs.init_u8(crate::regs::common::CAP_PTR, 0x40);
        let walked = walk_capabilities(&cs);
        assert_eq!(walked.len(), 48);
    }
}
