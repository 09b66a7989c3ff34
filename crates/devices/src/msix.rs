//! Interrupt signalling shared by the endpoints: the MSI-X block (vector
//! table, pending-bit array, masks, doorbell writes) and the legacy
//! MSI/INTx message.

use pcisim_kernel::packet::{Command, Packet};
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::snapshot::State;
use pcisim_kernel::stats::Counter;
use pcisim_kernel::trace::{TraceCategory, TraceKind};
use pcisim_pci::caps::{msi_target, msix, msix_enabled, msix_function_masked};
use pcisim_pci::config::{ConfigSpace, SharedConfigSpace};

use crate::dma::{DmaEngine, DmaTag};
use crate::intc::irq_message_addr;

/// Builds the legacy interrupt message of a function: to the programmed
/// MSI address when software enabled MSI, else to the INTx emulation
/// target `(irq, interrupt-controller base)`; `None` with neither. The
/// caller hands it to [`DmaEngine::send`].
pub(crate) fn legacy_message(
    ctx: &mut Ctx<'_>,
    cs: &ConfigSpace,
    intx: Option<(u8, u64)>,
) -> Option<Packet> {
    let addr = msi_target(cs)
        .map(|(addr, _data)| addr)
        .or_else(|| intx.map(|(irq, base)| irq_message_addr(base, irq)))?;
    let id = ctx.alloc_packet_id();
    Some(Packet::request(id, Command::Message, addr, 4, ctx.self_id()).with_payload(vec![0; 4]))
}

/// A function's MSI-X structures: the BAR-resident vector table (4 dwords
/// per vector) and pending-bit array, evaluated against the function
/// enable/mask bits software sets in config space.
pub(crate) struct MsixBlock {
    config_space: SharedConfigSpace,
    table_offset: u64,
    pba_offset: u64,
    /// Empty when the function was built without a functional capability.
    table: Vec<u32>,
    pba: u64,
    /// Doorbell writes handed to the fabric.
    pub sent: Counter,
}

impl MsixBlock {
    /// Creates the block; `vectors` is 0 for a function whose MSI-X
    /// capability is hardwired off. Vectors power up masked, per spec.
    pub fn new(
        config_space: SharedConfigSpace,
        vectors: u16,
        table_offset: u64,
        pba_offset: u64,
    ) -> Self {
        let mut table = Vec::with_capacity(usize::from(vectors) * 4);
        for _ in 0..vectors {
            table.extend_from_slice(&[0, 0, 0, msix::VECTOR_CTRL_MASK]);
        }
        Self { config_space, table_offset, pba_offset, table, pba: 0, sent: Counter::default() }
    }

    /// The table size: 0 for a function without functional MSI-X.
    pub(crate) fn vectors(&self) -> u16 {
        (self.table.len() / 4) as u16
    }

    /// Whether interrupts go out as MSI-X: the capability is functional
    /// and software set its enable bit.
    pub fn active(&self) -> bool {
        !self.table.is_empty() && msix_enabled(&self.config_space.borrow())
    }

    /// Whether any vector is latched pending.
    pub fn any_pending(&self) -> bool {
        self.pba != 0
    }

    fn vector_masked(&self, v: u16) -> bool {
        msix_function_masked(&self.config_space.borrow())
            || self.table[usize::from(v) * 4 + 3] & msix::VECTOR_CTRL_MASK != 0
    }

    /// Latches `v` in the PBA when it is masked (the unmask drains it);
    /// returns whether it did.
    pub fn latch_if_masked(&mut self, v: u16) -> bool {
        let masked = self.vector_masked(v);
        if masked {
            self.pba |= 1 << v;
        }
        masked
    }

    /// Clears and returns the PBA bits of vectors that are no longer
    /// masked — each is owed one [`Self::msix_send`]. Devices run this
    /// after every MMIO access, which is how the model observes unmasking
    /// done through config space (function mask / enable) as well as
    /// through the vector-control table writes themselves.
    pub fn msix_drain(&mut self) -> u64 {
        let mut ready = 0;
        if self.active() {
            for v in 0..self.vectors() {
                if self.pba & (1 << v) != 0 && !self.vector_masked(v) {
                    ready |= 1 << v;
                }
            }
        }
        self.pba &= !ready;
        ready
    }

    /// Puts vector `v`'s doorbell memory write on the engine's interrupt
    /// lane.
    pub fn msix_send<T: DmaTag>(&mut self, ctx: &mut Ctx<'_>, dma: &mut DmaEngine<T>, v: u16) {
        let entry = &self.table[usize::from(v) * 4..][..4];
        let addr = u64::from(entry[0]) | (u64::from(entry[1]) << 32);
        let data = entry[2];
        self.sent.inc();
        let id = ctx.alloc_packet_id();
        ctx.emit(TraceCategory::Device, TraceKind::Interrupt, Some(id), None, addr);
        let pkt = Packet::request(id, Command::WriteReq, addr, 4, ctx.self_id())
            .with_payload(data.to_le_bytes().to_vec());
        dma.send_interrupt(ctx, pkt);
    }

    /// Maps a BAR offset inside the vector table to its dword index.
    fn msix_dword(&self, offset: u64) -> Option<usize> {
        let index = (offset.checked_sub(self.table_offset)? / 4) as usize;
        (index < self.table.len()).then_some(index)
    }

    /// Register read inside the table/PBA window; `None` elsewhere (and
    /// everywhere, for a function without functional MSI-X).
    pub fn mmio_read(&self, offset: u64) -> Option<u32> {
        if self.table.is_empty() {
            None
        } else if let Some(i) = self.msix_dword(offset) {
            Some(self.table[i])
        } else if offset == self.pba_offset {
            Some(self.pba as u32)
        } else if offset == self.pba_offset + 4 {
            Some((self.pba >> 32) as u32)
        } else {
            None
        }
    }

    /// Register write inside the vector table (the PBA is read-only).
    pub fn mmio_write(&mut self, offset: u64, value: u32) {
        if let Some(i) = self.msix_dword(offset) {
            self.table[i] = value;
        }
    }
}

/// Table, PBA and the doorbell counter. The table size is fixed by the
/// device's configuration, so a checkpoint that disagrees is corrupt.
impl State for MsixBlock {
    pcisim_kernel::state_fields!(state self; [table; len], pba, sent);
}

#[cfg(test)]
mod tests {
    use pcisim_pci::config::shared;

    use super::*;
    use crate::nic::{nic_config_space_for, NicConfig};
    use pcisim_kernel::snapshot::{SnapshotError, StateReader, StateWriter};
    use pcisim_kernel::testutil::check_state_codec;

    const TABLE: u64 = 0x1_0000;
    const PBA: u64 = 0x1_8000;

    /// A 4-vector block over a NIC config space with MSI-X enabled.
    fn block() -> MsixBlock {
        let config = NicConfig { queues: 2, msix_capable: true, ..NicConfig::default() };
        let cs = shared(nic_config_space_for(&config));
        cs.borrow_mut().write(0xa0 + msix::CONTROL, 2, u32::from(msix::CONTROL_ENABLE));
        MsixBlock::new(cs, 4, TABLE, PBA)
    }

    #[test]
    fn masked_vectors_latch_and_drain_on_unmask() {
        let mut b = block();
        assert!(b.active());
        assert!(b.latch_if_masked(1), "vectors power up masked");
        assert!(b.latch_if_masked(3));
        assert_eq!(b.mmio_read(PBA), Some(0b1010));
        assert_eq!(b.msix_drain(), 0, "still masked: nothing to fire");
        b.mmio_write(TABLE + 16 + msix::ENTRY_VECTOR_CTRL, 0);
        assert_eq!(b.msix_drain(), 0b0010, "only the unmasked vector drains");
        assert_eq!(b.mmio_read(PBA), Some(0b1000));
        assert!(!b.latch_if_masked(1), "unmasked vectors fire instead of latching");
        // The function mask overrides every per-vector bit.
        let fmask = u32::from(msix::CONTROL_ENABLE | msix::CONTROL_FUNCTION_MASK);
        b.config_space.borrow_mut().write(0xa0 + msix::CONTROL, 2, fmask);
        assert!(b.latch_if_masked(1));
    }

    #[test]
    fn mmio_window_covers_exactly_table_and_pba() {
        let mut b = block();
        b.mmio_write(TABLE + 3 * 16 + 8, 0xabcd);
        assert_eq!(b.mmio_read(TABLE + 3 * 16 + 8), Some(0xabcd));
        assert_eq!(b.mmio_read(TABLE + 4 * 16), None, "past the last entry");
        assert_eq!(b.mmio_read(TABLE - 4), None);
        assert_eq!(b.mmio_read(PBA + 4), Some(0));
        let cs = shared(nic_config_space_for(&NicConfig::default()));
        let off = MsixBlock::new(cs, 0, TABLE, PBA);
        assert!(!off.active());
        assert_eq!(off.mmio_read(TABLE), None, "no functional capability: no window");
        assert_eq!(off.mmio_read(PBA), None);
    }

    fn busy_block() -> MsixBlock {
        let mut b = block();
        b.mmio_write(TABLE, 0xfee0_0000);
        b.latch_if_masked(2);
        b.sent.add(5);
        b
    }

    #[test]
    fn block_survives_the_hostile_bytes_check() {
        check_state_codec(&busy_block(), block);
    }

    #[test]
    fn a_differently_sized_table_is_corrupt_not_resized() {
        let mut w = StateWriter::new();
        busy_block().save(&mut w);
        let bytes = w.into_bytes();
        let cs = shared(nic_config_space_for(&NicConfig::default()));
        let mut smaller = MsixBlock::new(cs, 2, TABLE, PBA);
        let err = smaller.load(&mut StateReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
    }
}
