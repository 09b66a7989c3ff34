//! System-level checkpoint/restore.
//!
//! The kernel's [`Simulation::checkpoint`]/[`Simulation::restore`] carry
//! the complete dynamic state of a component tree; [`SystemHandle`] adds
//! `checkpoint`/`restore` plus file-backed `checkpoint_to`/`restore_from`
//! over a [`TopologySystem`]. The on-disk format is the kernel's
//! checksummed checkpoint, whose body leads with the topology fingerprint
//! — a checkpoint written from one tree refuses to restore into a
//! differently shaped one.

use std::path::Path;

use pcisim_kernel::sim::Simulation;
use pcisim_kernel::snapshot::SnapshotError;

use crate::topology::TopologySystem;

/// Checkpoint/restore over any built system.
///
/// `checkpoint` serializes the complete dynamic state — simulated time,
/// the calendar queue (armed timers included, with event-handle slots
/// preserved), the PacketId allocator, the trace ring, every component
/// section, and all config-space images via the PCI host — into a
/// self-contained, versioned, FNV-checksummed byte image. `restore`
/// applies such an image to a freshly built tree with the same topology
/// fingerprint; afterwards the simulation continues bit-for-bit like the
/// one that was saved.
pub trait SystemHandle {
    /// The simulation holding every component of this system.
    fn sim_mut(&mut self) -> &mut Simulation;

    /// Serializes the system's complete dynamic state.
    fn checkpoint(&mut self) -> Vec<u8> {
        self.sim_mut().checkpoint()
    }

    /// Applies a checkpoint taken from an identically shaped tree.
    ///
    /// # Errors
    ///
    /// Any malformed, truncated, corrupted, version-skewed or
    /// wrong-topology input yields a typed [`SnapshotError`]; on error
    /// the system may be partially overwritten and must be discarded.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.sim_mut().restore(bytes)
    }

    /// Writes a checkpoint to `path` and returns the byte count.
    ///
    /// # Errors
    ///
    /// File-system failures surface as [`SnapshotError::Io`].
    fn checkpoint_to(&mut self, path: impl AsRef<Path>) -> Result<usize, SnapshotError> {
        let path = path.as_ref();
        let bytes = self.checkpoint();
        std::fs::write(path, &bytes)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        Ok(bytes.len())
    }

    /// Reads a checkpoint file written by [`SystemHandle::checkpoint_to`]
    /// and applies it.
    ///
    /// # Errors
    ///
    /// File-system failures surface as [`SnapshotError::Io`]; a file from
    /// a differently shaped tree is rejected with
    /// [`SnapshotError::TopologyMismatch`], and any corruption with the
    /// matching typed variant — never a panic.
    fn restore_from(&mut self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))?;
        self.restore(&bytes)
    }
}

impl SystemHandle for TopologySystem {
    fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{build_topology, Topology};
    use crate::workload::dd::DdConfig;
    use pcisim_kernel::sim::RunOutcome;
    use pcisim_kernel::tick::{us, TICKS_PER_SEC};

    fn paused_system() -> TopologySystem {
        let mut built = build_topology(Topology::validation());
        let _ = built.attach_dd(0, DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() });
        assert_eq!(built.sim.run(us(100), u64::MAX), RunOutcome::TimeLimit);
        built
    }

    #[test]
    fn checkpoint_file_round_trips_through_disk() {
        let mut built = paused_system();
        let dir = std::env::temp_dir().join("pcisim_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.ckpt");
        let written = built.checkpoint_to(&path).expect("checkpoint written");
        assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);

        let mut fresh = build_topology(Topology::validation());
        let report = fresh.attach_dd(0, DdConfig { block_bytes: 64 * 1024, ..DdConfig::default() });
        fresh.restore_from(&path).expect("checkpoint restores");
        assert_eq!(fresh.sim.run(TICKS_PER_SEC, u64::MAX), RunOutcome::QueueEmpty);
        assert!(report.borrow().done);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let mut built = paused_system();
        let err = built.restore_from("/nonexistent/pcisim.ckpt").unwrap_err();
        assert!(matches!(err, SnapshotError::Io(_)), "{err:?}");
    }

    #[test]
    fn mismatched_tree_is_rejected() {
        let mut built = paused_system();
        let snap = built.checkpoint();
        // A dual-disk tree has a different shape; the fingerprint gate
        // must refuse the checkpoint.
        let mut other = build_topology(Topology::dual_disk(pcisim_pcie::params::LinkWidth::X4));
        let err = other.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapshotError::TopologyMismatch { .. }), "{err:?}");
    }
}
