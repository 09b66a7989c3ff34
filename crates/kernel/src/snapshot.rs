//! Deterministic checkpoint/restore: the versioned state codec.
//!
//! A checkpoint captures the *dynamic* state of a simulation — queued
//! events, link replay buffers, router windows, device registers — but not
//! its *configuration* (latencies, widths, buffer capacities). Restore
//! therefore targets a freshly built, identically shaped tree: the builder
//! recreates every component with its (possibly different) configuration,
//! and [`restore_state`](crate::component::Component::restore_state)
//! overwrites just the parts that evolve with simulated time. Both
//! directions of every component's codec expand from one field list
//! ([`state_fields!`](crate::state_fields)) over the [`State`] trait.
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

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

/// Magic number opening every checkpoint: `PCSN` ("PCi-sim SNapshot").
pub const SNAPSHOT_MAGIC: u32 = u32::from_le_bytes(*b"PCSN");

/// Current checkpoint format version. Bump on any layout change; old
/// files are rejected with [`SnapshotError::VersionMismatch`].
pub const SNAPSHOT_VERSION: u32 = 8;

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

/// Checkpointable dynamic state, written once: [`State::save`] appends the
/// value to a checkpoint and [`State::load`] overwrites it in place from
/// one. Loading is in place because the freshly built tree owns the shape
/// — capacities, per-queue arrays, table sizes — and the checkpoint only
/// the values that evolve with simulated time.
///
/// Leaf values (integers, `bool`, `f64`) are little-endian; `usize` is
/// always 64 bits. `Option` is a presence byte then the value. `Vec`,
/// `VecDeque`, `BTreeMap` and `BTreeSet` own their length: a `usize`
/// prefix, then each element. Arrays and slices are configuration-shaped:
/// no prefix, each element loaded in place. Tuples are their fields in
/// order. Components list their fields with [`state_fields!`](crate::state_fields);
/// enums map to a byte with [`state_enum!`](crate::state_enum).
///
/// Contract: `load` consumes exactly the bytes `save` wrote and never
/// panics on hostile input — every failure is a typed [`SnapshotError`].
pub trait State {
    /// Appends this value's dynamic state to `w`.
    fn save(&self, w: &mut StateWriter);

    /// Overwrites this value's dynamic state from `r`.
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError>;

    /// Reads a fresh value: a default one with the checkpoint loaded into
    /// it (how length-prefixed containers build their elements).
    fn read(r: &mut StateReader<'_>) -> Result<Self, SnapshotError>
    where
        Self: Sized + Default,
    {
        let mut v = Self::default();
        v.load(r)?;
        Ok(v)
    }
}

macro_rules! scalar_state {
    ($($t:ty => $put:ident / $get:ident),* $(,)?) => {$(
        impl State for $t {
            fn save(&self, w: &mut StateWriter) {
                w.$put(*self);
            }
            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                *self = r.$get()?;
                Ok(())
            }
        }
    )*};
}

scalar_state! {
    u8 => u8 / u8,
    u16 => u16 / u16,
    u32 => u32 / u32,
    u64 => u64 / u64,
    usize => usize / usize,
    bool => bool / bool,
    f64 => f64 / f64,
}

/// A length-prefixed UTF-8 string.
impl State for String {
    fn save(&self, w: &mut StateWriter) {
        w.str(self);
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = r.str()?;
        Ok(())
    }
}

/// The state of something that has none (a tag-less DMA engine's tag).
impl State for () {
    fn save(&self, _w: &mut StateWriter) {}
    fn load(&mut self, _r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

impl<T: State + Default> State for Option<T> {
    fn save(&self, w: &mut StateWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = if r.bool()? { Some(T::read(r)?) } else { None };
        Ok(())
    }
}

/// Reads `n` elements into a fresh collection — one at a time, so no
/// allocation is sized by a length from the stream.
fn read_n<T: State + Default, C: FromIterator<T>>(
    r: &mut StateReader<'_>,
) -> Result<C, SnapshotError> {
    let n = r.usize()?;
    (0..n).map(|_| T::read(r)).collect()
}

/// A length-prefixed sequence.
macro_rules! sequence_state {
    ($($seq:ident $(: $bound:path)?),*) => {$(
        impl<T: State + Default $(+ $bound)?> State for $seq<T> {
            fn save(&self, w: &mut StateWriter) {
                w.usize(self.len());
                for v in self {
                    v.save(w);
                }
            }
            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                *self = read_n::<T, _>(r)?;
                Ok(())
            }
        }
    )*};
}

sequence_state!(Vec, VecDeque, BTreeSet: Ord);

/// The length, then each key and its value.
impl<K: State + Default + Ord, V: State + Default> State for BTreeMap<K, V> {
    fn save(&self, w: &mut StateWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        *self = read_n::<(K, V), _>(r)?;
        Ok(())
    }
}

impl<T: State> State for [T] {
    fn save(&self, w: &mut StateWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for v in self {
            v.load(r)?;
        }
        Ok(())
    }
}

impl<T: State, const N: usize> State for [T; N] {
    fn save(&self, w: &mut StateWriter) {
        self[..].save(w);
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self[..].load(r)
    }
}

macro_rules! tuple_state {
    ($(($($t:ident . $i:tt),+)),*) => {$(
        impl<$($t: State),+> State for ($($t,)+) {
            fn save(&self, w: &mut StateWriter) {
                $(self.$i.save(w);)+
            }
            fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
                $(self.$i.load(r)?;)+
                Ok(())
            }
        }
    )*};
}

tuple_state!((A.0, B.1), (A.0, B.1, C.2));

/// A shared handle (a workload's report) saves what it points to.
impl<T: State> State for Rc<RefCell<T>> {
    fn save(&self, w: &mut StateWriter) {
        self.borrow().save(w);
    }
    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.borrow_mut().load(r)
    }
}

/// A loaded value that holds indices into something the fresh build sized
/// — ports, queues, table entries. [`state_fields!`](crate::state_fields)'s index form checks
/// it against the component's bound right after loading, so a crafted
/// checkpoint fails as [`SnapshotError::Corrupt`] at restore instead of
/// panicking at dispatch.
pub trait Bounded<B = usize> {
    /// Whether every index this value holds is below `bound`.
    fn within(&self, bound: &B) -> bool;
}

macro_rules! bounded_index {
    ($($t:ty),*) => {$(
        impl Bounded for $t {
            fn within(&self, bound: &usize) -> bool {
                usize::try_from(*self).is_ok_and(|i| i < *bound)
            }
        }
    )*};
}

bounded_index!(u8, u16, u32, u64, usize);

impl<B, T: Bounded<B>> Bounded<B> for Option<T> {
    fn within(&self, bound: &B) -> bool {
        self.as_ref().is_none_or(|v| v.within(bound))
    }
}

impl<B, T: Bounded<B>> Bounded<B> for [T] {
    fn within(&self, bound: &B) -> bool {
        self.iter().all(|v| v.within(bound))
    }
}

impl<B, T: Bounded<B>> Bounded<B> for Vec<T> {
    fn within(&self, bound: &B) -> bool {
        self[..].within(bound)
    }
}

impl<B, T: Bounded<B>> Bounded<B> for VecDeque<T> {
    fn within(&self, bound: &B) -> bool {
        self.iter().all(|v| v.within(bound))
    }
}

impl<B, K, V: Bounded<B>> Bounded<B> for BTreeMap<K, V> {
    fn within(&self, bound: &B) -> bool {
        self.values().all(|v| v.within(bound))
    }
}

/// Implements [`State`] for an enum as one byte per variant, from a single
/// `Variant = byte` table: the save and the load cannot disagree, and an
/// unlisted byte is [`SnapshotError::Corrupt`]. A variant with one field,
/// `Variant(n) = byte`, writes the field after its byte. Enums with more
/// data than that write their tag by hand.
///
/// ```
/// # use pcisim_kernel::state_enum;
/// #[derive(Debug, Clone, Copy, PartialEq, Default)]
/// enum Phase { Setup(u32), #[default] Idle, Busy }
/// state_enum!(Phase { Setup(step) = 0, Idle = 1, Busy = 2 });
/// ```
#[macro_export]
macro_rules! state_enum {
    ($ty:ident { $($variant:ident $(($field:ident))? = $byte:literal),+ $(,)? }) => {
        impl $crate::snapshot::State for $ty {
            fn save(&self, w: &mut $crate::snapshot::StateWriter) {
                match self {
                    $($ty::$variant $(($field))? => {
                        w.u8($byte);
                        $($crate::snapshot::State::save($field, w);)?
                    })+
                }
            }
            fn load(
                &mut self,
                r: &mut $crate::snapshot::StateReader<'_>,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                *self = match r.u8()? {
                    $($byte => $ty::$variant $(({
                        let $field = $crate::snapshot::State::read(r)?;
                        $field
                    }))?,)+
                    other => {
                        return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                            "{} byte {other:#04x}",
                            stringify!($ty)
                        )))
                    }
                };
                Ok(())
            }
        }
    };
}

/// Writes a checkpoint codec from one list of fields: both directions —
/// `save_state`/`restore_state` of a [`Component`](crate::component::Component)
/// (`component self; ...`) or `save`/`load` of a [`State`] impl
/// (`state self; ...`) — expand from the same list, so a field cannot be
/// saved without being loaded. Items, in byte order:
///
/// * `a.b` — a field implementing [`State`];
/// * `a: index < bound` — the same, then [`Bounded::within`]`(bound)` or
///   [`SnapshotError::Corrupt`] naming the component and field; `bound` is
///   evaluated before the load, from the fresh build's shape;
/// * `[a, b]` — configuration-shaped slices of equal length walked in
///   lockstep, element `i` of each in turn, no length prefix;
/// * `[a] { items }` — each element of slice `a` by the element's own
///   item list, no length prefix;
/// * `[a; len]`, `[a; len] { items }` — the same after a `usize` length
///   that must equal the fresh build's, or `Corrupt`;
/// * `save(w) { ... } load(r) { ... }` — hand-written state that is
///   derived rather than stored (packed bits, a re-derived feed, a
///   validation); give the reason in a comment.
///
/// ```
/// # use pcisim_kernel::snapshot::State;
/// # use pcisim_kernel::state_fields;
/// #[derive(Default)]
/// struct Lane { head: u32, waiting: Vec<u16> }
/// impl State for Lane {
///     state_fields!(state self; head: index < 8, waiting);
/// }
/// ```
#[macro_export]
macro_rules! state_fields {
    (component $s:ident; $($items:tt)*) => {
        fn save_state(&$s, w: &mut $crate::snapshot::StateWriter) {
            $crate::__state_save!(w, ($s); $($items)*);
        }
        fn restore_state(
            &mut $s,
            r: &mut $crate::snapshot::StateReader<'_>,
        ) -> Result<(), $crate::snapshot::SnapshotError> {
            $crate::__state_load!(r, ($crate::component::Component::name(&*$s)), ($s); $($items)*);
            Ok(())
        }
    };
    (state $s:ident; $($items:tt)*) => {
        fn save(&$s, w: &mut $crate::snapshot::StateWriter) {
            $crate::__state_save!(w, ($s); $($items)*);
        }
        fn load(
            &mut $s,
            r: &mut $crate::snapshot::StateReader<'_>,
        ) -> Result<(), $crate::snapshot::SnapshotError> {
            $crate::__state_load!(r, (::std::any::type_name::<Self>()), ($s); $($items)*);
            Ok(())
        }
    };
}

/// The save half of [`state_fields!`](crate::state_fields).
#[doc(hidden)]
#[macro_export]
macro_rules! __state_save {
    ($w:ident, $base:tt; $(,)?) => {};
    ($w:ident, $base:tt;
        save($cw:ident) $save:block load($cr:ident) $load:block $(, $($rest:tt)*)?) => {
        {
            let $cw: &mut $crate::snapshot::StateWriter = &mut *$w;
            $save
        }
        $crate::__state_save!($w, $base; $($($rest)*)?);
    };
    ($w:ident, $base:tt;
        [$($f:tt).+ ; len] $({ $($inner:tt)* })? $(, $($rest:tt)*)?) => {
        $w.usize($base.$($f).+.len());
        $crate::__state_save!($w, $base; [$($f).+] $({ $($inner)* })? $(, $($rest)*)?);
    };
    ($w:ident, $base:tt; [$($f:tt).+] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        for i in 0..$base.$($f).+.len() {
            $crate::__state_save!($w, ($base.$($f).+[i]); $($inner)*);
        }
        $crate::__state_save!($w, $base; $($($rest)*)?);
    };
    ($w:ident, $base:tt; [$($f:tt).+ $(, $($g:tt).+)*] $(, $($rest:tt)*)?) => {
        for i in 0..$base.$($f).+.len() {
            $crate::snapshot::State::save(&$base.$($f).+[i], $w);
            $($crate::snapshot::State::save(&$base.$($g).+[i], $w);)*
        }
        $crate::__state_save!($w, $base; $($($rest)*)?);
    };
    ($w:ident, $base:tt; $($f:tt).+ $(: index < $bound:expr)? $(, $($rest:tt)*)?) => {
        $crate::snapshot::State::save(&$base.$($f).+, $w);
        $crate::__state_save!($w, $base; $($($rest)*)?);
    };
}

/// The load half of [`state_fields!`](crate::state_fields).
#[doc(hidden)]
#[macro_export]
macro_rules! __state_load {
    ($r:ident, $name:tt, $base:tt; $(,)?) => {};
    ($r:ident, $name:tt, $base:tt;
        save($cw:ident) $save:block load($cr:ident) $load:block $(, $($rest:tt)*)?) => {
        {
            let $cr: &mut $crate::snapshot::StateReader<'_> = &mut *$r;
            $load
        }
        $crate::__state_load!($r, $name, $base; $($($rest)*)?);
    };
    ($r:ident, $name:tt, $base:tt;
        [$($f:tt).+ ; len] $({ $($inner:tt)* })? $(, $($rest:tt)*)?) => {
        let n = $r.usize()?;
        let fresh = $base.$($f).+.len();
        if n != fresh {
            return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                "{}: checkpoint has {n} {}, component has {fresh}",
                $name,
                stringify!($($f).+)
            )));
        }
        $crate::__state_load!($r, $name, $base; [$($f).+] $({ $($inner)* })? $(, $($rest)*)?);
    };
    ($r:ident, $name:tt, $base:tt; [$($f:tt).+] { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        for i in 0..$base.$($f).+.len() {
            $crate::__state_load!($r, $name, ($base.$($f).+[i]); $($inner)*);
        }
        $crate::__state_load!($r, $name, $base; $($($rest)*)?);
    };
    ($r:ident, $name:tt, $base:tt; [$($f:tt).+ $(, $($g:tt).+)*] $(, $($rest:tt)*)?) => {
        for i in 0..$base.$($f).+.len() {
            $crate::snapshot::State::load(&mut $base.$($f).+[i], $r)?;
            $($crate::snapshot::State::load(&mut $base.$($g).+[i], $r)?;)*
        }
        $crate::__state_load!($r, $name, $base; $($($rest)*)?);
    };
    ($r:ident, $name:tt, $base:tt; $($f:tt).+ : index < $bound:expr $(, $($rest:tt)*)?) => {
        let bound = $bound;
        $crate::snapshot::State::load(&mut $base.$($f).+, $r)?;
        if !$crate::snapshot::Bounded::within(&$base.$($f).+, &bound) {
            return Err($crate::snapshot::SnapshotError::Corrupt(format!(
                "{}: {} holds an index outside {bound:?}",
                $name,
                stringify!($($f).+)
            )));
        }
        $crate::__state_load!($r, $name, $base; $($($rest)*)?);
    };
    ($r:ident, $name:tt, $base:tt; $($f:tt).+ $(, $($rest:tt)*)?) => {
        $crate::snapshot::State::load(&mut $base.$($f).+, $r)?;
        $crate::__state_load!($r, $name, $base; $($($rest)*)?);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_strings_and_bytes_round_trip() {
        let mut w = StateWriter::new();
        Some(7u8).save(&mut w);
        None::<u8>.save(&mut w);
        Some(u64::MAX).save(&mut w);
        None::<u64>.save(&mut w);
        Some(1.5f64).save(&mut w);
        None::<f64>.save(&mut w);
        w.bytes(b"abc");
        w.bytes(b"");
        w.str("link0");
        let bytes = w.into_bytes();
        assert_eq!(&bytes[..4], [1, 7, 0, 1], "presence byte, then the value");
        let mut w = StateWriter::new();
        w.bytes(&[9, 8]);
        assert_eq!(saved(&vec![9u8, 8]), w.into_bytes(), "a Vec<u8> is a length-prefixed blob");
        let map: BTreeMap<u8, (u8, bool)> = [(2, (3, true))].into();
        assert_eq!(saved(&map), [1, 0, 0, 0, 0, 0, 0, 0, 2, 3, 1], "length, then pairs");
        let mut r = StateReader::new(&bytes);
        assert_eq!(Option::<u8>::read(&mut r).unwrap(), Some(7));
        assert_eq!(Option::<u8>::read(&mut r).unwrap(), None);
        assert_eq!(Option::<u64>::read(&mut r).unwrap(), Some(u64::MAX));
        assert_eq!(Option::<u64>::read(&mut r).unwrap(), None);
        assert_eq!(Option::<f64>::read(&mut r).unwrap(), Some(1.5));
        assert_eq!(Option::<f64>::read(&mut r).unwrap(), None);
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

    #[derive(Debug, Default, PartialEq)]
    struct Port {
        busy: u64,
        waiting: Vec<u16>,
    }

    #[derive(Debug, PartialEq)]
    struct Fabric {
        ports: Vec<Port>,
        lo: Vec<u8>,
        hi: Vec<u8>,
        cursor: usize,
        mask: u8,
    }

    impl State for Fabric {
        crate::state_fields!(state self;
            [ports; len] { busy, waiting: index < self.ports.len() },
            [lo, hi],
            cursor: index < self.lo.len(),
            // Derived: only the mask's width is stored.
            save(w) {
                w.u8(self.mask.count_ones() as u8);
            }
            load(r) {
                self.mask = ((1u16 << (r.u8()? & 7)) - 1) as u8;
            },
        );
    }

    fn fabric(ports: usize) -> Fabric {
        let ports = (0..ports).map(|_| Port::default()).collect();
        Fabric { ports, lo: vec![0; 2], hi: vec![0; 2], cursor: 0, mask: 0 }
    }

    fn saved(v: &impl State) -> Vec<u8> {
        let mut w = StateWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn a_field_list_writes_each_form_once_and_loads_it_back() {
        let mut f = fabric(2);
        f.ports[1] = Port { busy: 7, waiting: vec![0] };
        (f.lo, f.hi, f.cursor, f.mask) = (vec![1, 2], vec![3, 4], 1, 0b111);
        let bytes = saved(&f);
        let mut want = 2u64.to_le_bytes().to_vec();
        want.extend([0; 16]); // port 0: busy, no waiters
        want.extend(7u64.to_le_bytes());
        want.extend(1u64.to_le_bytes());
        want.extend([0, 0]); // port 1 waits on port 0
        want.extend([1, 3, 2, 4]); // lo and hi in lockstep, no prefix
        want.extend(1u64.to_le_bytes());
        want.push(3);
        assert_eq!(bytes, want);
        let mut back = fabric(2);
        back.load(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(back, f);
        crate::testutil::check_state_codec(&f, || fabric(2));
    }

    #[test]
    fn index_and_length_forms_reject_what_the_fresh_shape_cannot_hold() {
        let load = |f: &Fabric, ports| fabric(ports).load(&mut StateReader::new(&saved(f)));
        let mut f = fabric(2);
        assert_eq!(load(&f, 2), Ok(()));
        assert!(matches!(load(&f, 3), Err(SnapshotError::Corrupt(_))), "port count differs");
        f.ports[0].waiting.push(2);
        assert!(matches!(load(&f, 2), Err(SnapshotError::Corrupt(_))), "port 2 of 2");
        f.ports[0].waiting.clear();
        f.cursor = 2;
        assert!(matches!(load(&f, 2), Err(SnapshotError::Corrupt(_))), "cursor past lo");
    }

    #[derive(Debug, Default, PartialEq)]
    enum Phase {
        #[default]
        Idle,
        Busy,
    }

    crate::state_enum!(Phase { Idle = 0, Busy = 7 });

    #[test]
    fn an_enum_table_maps_variants_to_bytes_and_rejects_the_rest() {
        assert_eq!(saved(&Phase::Busy), [7]);
        assert_eq!(Phase::read(&mut StateReader::new(&[7])), Ok(Phase::Busy));
        assert!(matches!(Phase::read(&mut StateReader::new(&[1])), Err(SnapshotError::Corrupt(_))));
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
