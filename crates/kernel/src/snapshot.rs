//! Deterministic checkpoint/restore: the versioned state codec.
//!
//! A checkpoint captures the *dynamic* state of a simulation — queued
//! events, link replay buffers, router windows, device registers — but not
//! its *configuration* (latencies, widths, buffer capacities). Restore
//! therefore targets a freshly built, identically shaped tree: the builder
//! recreates every component with its (possibly different) configuration,
//! and [`restore_state`](Snapshot::restore_state) overwrites just the parts
//! that evolve with simulated time.
//!
//! The codec is little-endian throughout, length-prefixed where variable,
//! and deliberately dumb: no compression, no schema evolution beyond a
//! whole-file version number. Every multi-byte read is bounds-checked and
//! every error is a typed [`SnapshotError`] — corrupt or truncated input
//! must never panic.
//!
//! File layout (see DESIGN.md §12 for the full invariant catalogue):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PCSN"
//! 4       4     format version (little-endian u32)
//! 8       8     FNV-1a checksum of everything after this field
//! 16      ...   body: topology fingerprint, kernel state, per-component
//!               length-prefixed sections
//! ```

use std::fmt;

/// Magic number opening every checkpoint: `PCSN` ("PCi-sim SNapshot").
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"PCSN");

/// Current checkpoint format version. Bump on any layout change; old
/// files are rejected with [`SnapshotError::VersionMismatch`].
pub const SNAPSHOT_VERSION: u32 = 5;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash (same parameters the determinism
/// suite uses for stats fingerprints).
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Why a checkpoint could not be decoded or applied. Every failure mode
/// of a hostile input maps to a variant here; decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The input ended before a field could be read in full.
    Truncated {
        /// Bytes the pending read needed.
        needed: u64,
        /// Bytes actually remaining.
        available: u64,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The four bytes found instead, as a little-endian u32.
        found: u32,
    },
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version recorded in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The body does not hash to the checksum recorded in the header
    /// (bit rot, truncation past the header, or a corrupted write).
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// The checkpoint was taken on a differently shaped component tree
    /// and cannot be applied to this one.
    TopologyMismatch {
        /// Fingerprint recorded in the checkpoint.
        stored: u64,
        /// Fingerprint of the tree being restored into.
        expected: u64,
    },
    /// A component section was not consumed exactly: the restoring
    /// component read fewer bytes than its saving counterpart wrote.
    TrailingBytes {
        /// Name of the section (component) with leftover bytes.
        section: String,
        /// How many bytes were left unread.
        remaining: u64,
    },
    /// A decoded value is structurally impossible (bad discriminant,
    /// out-of-range index, inconsistent length).
    Corrupt(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, {available} available")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "not a checkpoint file (magic {found:#010x})")
            }
            SnapshotError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint format version {found} (this build reads {expected})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: header {stored:#018x}, body hashes to {computed:#018x}"
                )
            }
            SnapshotError::TopologyMismatch { stored, expected } => write!(
                f,
                "topology fingerprint mismatch: checkpoint {stored:#018x}, tree {expected:#018x}"
            ),
            SnapshotError::TrailingBytes { section, remaining } => {
                write!(f, "section {section:?} left {remaining} bytes unread")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            SnapshotError::Io(what) => write!(f, "checkpoint i/o failed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes state into the little-endian checkpoint codec.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a usize as a u64 (the codec is 64-bit regardless of host).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes an f64 as its raw IEEE-754 bit pattern, so NaNs and signed
    /// zeros round-trip bit-exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes an optional u8 (presence byte + value).
    pub fn opt_u8(&mut self, v: Option<u8>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u8(v);
            }
            None => self.bool(false),
        }
    }

    /// Writes an optional u64 (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }

    /// Writes an optional f64 (presence byte + raw bits).
    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.f64(v);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked reader over the checkpoint codec; the mirror of
/// [`StateWriter`]. Every method fails with a typed error instead of
/// panicking when the input is short or malformed.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("sized take")))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized take")))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized take")))
    }

    /// Reads a usize (stored as u64); fails on 32-bit overflow.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Corrupt("length exceeds address space".into()))
    }

    /// Reads a bool; any byte other than 0/1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bool byte {other:#04x}"))),
        }
    }

    /// Reads an f64 from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional u8.
    pub fn opt_u8(&mut self) -> Result<Option<u8>, SnapshotError> {
        Ok(if self.bool()? { Some(self.u8()?) } else { None })
    }

    /// Reads an optional u64.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    /// Reads an optional f64.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        Ok(if self.bool()? { Some(self.f64()?) } else { None })
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    /// Asserts the reader is fully consumed, attributing leftovers to
    /// `section` (a component name) for the error message.
    pub fn finish(&self, section: &str) -> Result<(), SnapshotError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes {
                section: section.to_owned(),
                remaining: self.remaining() as u64,
            })
        }
    }
}

/// Serializable dynamic state. Every [`Component`](crate::component::Component)
/// implements this automatically (via the blanket impl below) by overriding
/// the trait's `save_state`/`restore_state` hooks; leaf state types
/// (counters, histograms, packets) expose inherent `encode`/`decode`
/// methods instead so they can nest inside component sections.
///
/// Contract: `restore_state` must consume exactly the bytes `save_state`
/// wrote, and must leave the component behaviourally identical to the one
/// that was saved — a restored simulation continues bit-for-bit like the
/// uninterrupted original (enforced by `tests/snapshot_equivalence.rs`).
pub trait Snapshot {
    /// Appends this object's dynamic state to `w`.
    fn save_state(&self, w: &mut StateWriter);

    /// Overwrites this object's dynamic state from `r`. Configuration
    /// (latencies, capacities) is untouched: it belongs to the freshly
    /// built object, not the checkpoint.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;
}

impl<T: crate::component::Component + ?Sized> Snapshot for T {
    fn save_state(&self, w: &mut StateWriter) {
        crate::component::Component::save_state(self, w);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        crate::component::Component::restore_state(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = StateWriter::new();
        w.u8(0xab);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.usize(42);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.f64(f64::NAN);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.finish("t").is_ok());
    }

    #[test]
    fn options_strings_and_bytes_round_trip() {
        let mut w = StateWriter::new();
        w.opt_u8(Some(7));
        w.opt_u8(None);
        w.opt_u64(Some(u64::MAX));
        w.opt_u64(None);
        w.opt_f64(Some(1.5));
        w.opt_f64(None);
        w.bytes(b"abc");
        w.bytes(b"");
        w.str("link0");
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.opt_u8().unwrap(), Some(7));
        assert_eq!(r.opt_u8().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(u64::MAX));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_f64().unwrap(), Some(1.5));
        assert_eq!(r.opt_f64().unwrap(), None);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.str().unwrap(), "link0");
        assert!(r.finish("t").is_ok());
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = StateWriter::new();
        w.u64(5);
        let mut bytes = w.into_bytes();
        bytes.truncate(3);
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.u64(), Err(SnapshotError::Truncated { needed: 8, available: 3 }));
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_allocation() {
        let mut w = StateWriter::new();
        w.u64(u64::MAX); // claims ~18EB of payload
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        match r.bytes() {
            Err(SnapshotError::Corrupt(_)) | Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("expected typed failure, got {other:?}"),
        }
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = StateReader::new(&[2]);
        assert!(matches!(r.bool(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn non_utf8_string_is_corrupt() {
        let mut w = StateWriter::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(r.str(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn unread_bytes_are_reported_with_the_section_name() {
        let mut w = StateWriter::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let r = StateReader::new(&bytes);
        assert_eq!(
            r.finish("disk0"),
            Err(SnapshotError::TrailingBytes { section: "disk0".into(), remaining: 4 })
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn errors_render_useful_messages() {
        let cases: Vec<SnapshotError> = vec![
            SnapshotError::Truncated { needed: 8, available: 2 },
            SnapshotError::BadMagic { found: 0x1234 },
            SnapshotError::VersionMismatch { found: 9, expected: 1 },
            SnapshotError::ChecksumMismatch { stored: 1, computed: 2 },
            SnapshotError::TopologyMismatch { stored: 3, expected: 4 },
            SnapshotError::TrailingBytes { section: "x".into(), remaining: 5 },
            SnapshotError::Corrupt("bad".into()),
            SnapshotError::Io("denied".into()),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
