//! A bucketed calendar queue for the simulation scheduler.
//!
//! The kernel's hot path schedules almost every event at `now + d` where
//! `d` is a small delay (link serialisation, switch latency, a timer a few
//! hundred nanoseconds out). A global binary heap pays `O(log n)` on every
//! push and pop for that pattern; a calendar queue pays `O(1)` amortised by
//! hashing ticks into a ring of per-window FIFO buckets and only falling
//! back to a heap for the (rare) far-future events.
//!
//! Layout:
//!
//! - time is divided into fixed windows of `2^BUCKET_BITS` ticks;
//! - a ring of [`NUM_BUCKETS`] buckets covers the windows immediately
//!   after the currently open one (`cur_window`);
//! - entries for the open window live in a *sorted run* plus a small
//!   *late heap*, and a pop takes the smaller of the two heads, so
//!   same-window entries pop in exact `(tick, order)` order. Opening a
//!   sparse bucket (at most [`DENSE`] keys) sorts it once into the run;
//!   opening a dense one scatters it into [`SUBS`] sub-windows of
//!   `2^SUB_BITS` ticks and sorts only the first occupied one into the
//!   run, the next when the run is spent. A push into the open window
//!   past the run's sub-window drops into its sub-window in `O(1)`; one
//!   inside it is appended to the run when it sorts after the tail, and
//!   goes to the heap otherwise;
//! - entries beyond the ring horizon go to an overflow heap and migrate
//!   into the ring as the calendar advances.
//!
//! Items themselves live in a slab and are addressed by slot index from
//! the ring, run and heaps, so bucket drains, sorts and heap sifts move
//! 24-byte keys instead of items; each item is written and read exactly
//! once. The kernel's items are queued entries of at most 32 bytes, a
//! packet held by its one-pointer handle (see `crate::sim`).
//!
//! Popping is split in two so the item never travels through a return
//! value: [`CalendarQueue::pop_key_if_at_most`] unlinks the head and hands
//! back its `(tick, order, slot)`, and [`CalendarQueue::take_popped`]
//! moves the item out of that slot and frees it. The dispatch loop reads
//! the entry's fields straight from the slot that way.
//! [`CalendarQueue::pop`] and [`CalendarQueue::pop_if_at_most`] are the
//! pair in one call.
//!
//! Determinism: every push carries a caller-supplied **order stamp**, and
//! [`CalendarQueue::pop`] always yields the globally smallest
//! `(tick, order)` pair. The simulation kernel derives the stamp from the
//! scheduling component's id and a per-component counter, so same-tick
//! ties break by which component scheduled the event, then by that
//! component's own sequence. No component's order depends on how many
//! events any other component queued, which is what lets one component
//! drop an event without moving anyone else's. Order stamps must be unique among
//! concurrently queued entries — the kernel guarantees this by never
//! reusing a `(component, stream, counter)` triple. The invariants that
//! make the window-jumping correct are spelled out in DESIGN.md §"Scheduler
//! internals".

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::snapshot::{SnapshotError, State, StateReader, StateWriter};
use crate::tick::Tick;

/// log2 of the bucket window size in ticks. With 1 tick = 1 ps this makes
/// each window 65,536 ps ≈ 65.5 ns — the same order as one PCIe link
/// serialisation step, so near-future events land a handful of buckets
/// ahead of the cursor.
pub const BUCKET_BITS: u32 = 16;

/// Number of ring buckets (must be a power of two). The ring spans
/// `NUM_BUCKETS << BUCKET_BITS` ticks ≈ 67 µs of simulated time; anything
/// scheduled further out overflows to the heap.
pub const NUM_BUCKETS: u64 = 1024;

const MASK: u64 = NUM_BUCKETS - 1;

/// A bucket holding more keys than this is split into sub-windows when it
/// opens; a sparser one is sorted whole. Sparse windows (a single `dd`
/// stream's hold 5–16 keys) would pay the 64-way scatter for nothing.
const DENSE: usize = 16;

/// Sub-windows per window: one bit each in [`CalendarQueue`]'s occupancy
/// mask.
const SUBS: usize = 64;

/// log2 of a sub-window's size in ticks (1 024 ps ≈ 1 ns).
const SUB_BITS: u32 = BUCKET_BITS - SUBS.trailing_zeros();

/// Ordering key plus the slab slot holding the item. `order` is unique,
/// so `slot` never participates in comparisons.
#[derive(Debug, Clone, Copy)]
struct Key {
    tick: Tick,
    order: u64,
    slot: u32,
}

/// Names one queued entry so it can later be cancelled with
/// [`CalendarQueue::cancel`]. The order stamp makes handles single-use:
/// once the entry has popped (or been cancelled) the handle goes stale and
/// further cancels are no-ops, even if the slab slot has been reused. The
/// slot doubles as a *hint*: a handle that survived a checkpoint/restore
/// cycle may name a stale slot, in which case the cancel falls back to the
/// order-stamp side map built during [`CalendarQueue::restore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    order: u64,
}

/// Order stamps are globally unique and never reused, so a restored
/// handle cancels the same logical entry it did before the checkpoint
/// even though slab slots are reassigned on restore.
impl State for EventHandle {
    crate::state_fields!(state self; slot, order);
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.order == other.order
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.tick, self.order).cmp(&(other.tick, other.order))
    }
}

/// A priority queue over `(tick, order stamp)` optimised for near-future
/// pushes.
///
/// Invariants (checked in debug builds, argued in DESIGN.md):
///
/// 1. every ring-bucket entry has window `w` with
///    `cur_window < w < cur_window + NUM_BUCKETS`, so each bucket holds at
///    most one distinct window and can be drained wholesale when opened;
/// 2. every overflow entry has window `>= cur_window + NUM_BUCKETS`, so
///    the ring always contains the earliest pending window whenever it is
///    non-empty;
/// 3. `run[run_head..]` is sorted ascending; together with `late` and
///    `subs` it holds exactly the open window's entries (and any pushed
///    for an earlier window after the cursor moved past it);
/// 4. every key in the run and `late` has `tick <= seg_last`, and every
///    key in `subs[s]` lies in sub-window `s` of the open window, has
///    `tick > seg_last`, and has bit `s` set in `sub_mask`, so the run
///    and `late` always hold the open window's earliest entries.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<Key>>,
    /// Open-window entries in sorted order; `run[..run_head]` has already
    /// popped.
    run: Vec<Key>,
    run_head: usize,
    /// Last tick of the run's segment: the whole open window when it was
    /// sparse, else the sub-window last opened.
    seg_last: Tick,
    /// A split window's sub-windows after the run's, by sub-window index;
    /// bit `s` of `sub_mask` is set iff `subs[s]` is non-empty. Left empty
    /// until the first dense window, so a queue that never splits one
    /// allocates nothing for them.
    subs: Vec<Vec<Key>>,
    sub_mask: u64,
    /// Open-window entries that arrived out of order.
    late: BinaryHeap<Reverse<Key>>,
    /// Entries at or beyond `cur_window + NUM_BUCKETS` windows.
    overflow: BinaryHeap<Reverse<Key>>,
    /// Item storage addressed by `Key::slot`, stamped with the order of
    /// the push that filled it (`None` = cancelled tombstone or vacant).
    slab: Vec<(u64, Option<T>)>,
    /// Vacant slab slots available for reuse.
    free: Vec<u32>,
    cur_window: u64,
    /// Total keys held in the ring buckets (not the open window or
    /// `overflow`), tombstones included.
    ring_len: usize,
    /// Live (non-cancelled) entries.
    len: usize,
    /// Order-stamp → slot side map for entries rebuilt by
    /// [`CalendarQueue::restore`]: handles saved before the checkpoint
    /// carry slot hints from the *old* queue, so cancels resolve through
    /// this map when the hint misses. Entries are pruned lazily.
    restored: BTreeMap<u64, u32>,
    /// `(slot, order)` of the entry popped but not yet taken.
    #[cfg(debug_assertions)]
    popped: Option<(u32, u64)>,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the calendar cursor at window 0.
    pub fn new() -> Self {
        Self {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            run: Vec::new(),
            run_head: 0,
            seg_last: window_last(0),
            subs: Vec::new(),
            sub_mask: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            cur_window: 0,
            ring_len: 0,
            len: 0,
            restored: BTreeMap::new(),
            #[cfg(debug_assertions)]
            popped: None,
        }
    }

    /// Number of queued entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queues `item` at `tick` with the caller-supplied `order` stamp.
    /// Entries pop in `(tick, order)` order; stamps must be unique among
    /// concurrently queued entries. The returned handle can cancel the
    /// entry before it pops.
    #[inline]
    pub fn push(&mut self, tick: Tick, order: u64, item: T) -> EventHandle {
        self.len += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = (order, Some(item));
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push((order, Some(item)));
                slot
            }
        };
        let key = Key { tick, order, slot };
        let w = tick >> BUCKET_BITS;
        if w <= self.cur_window {
            if tick <= self.seg_last {
                self.push_run(key);
            } else {
                // Past the run's segment, so the open window is split (a
                // sparse window's segment is the whole window).
                let s = sub_window(tick);
                self.subs[s].push(key);
                self.sub_mask |= 1 << s;
            }
        } else if w - self.cur_window < NUM_BUCKETS {
            self.ring_len += 1;
            self.buckets[(w & MASK) as usize].push(key);
        } else {
            self.overflow.push(Reverse(key));
        }
        EventHandle { slot, order }
    }

    /// Files `key`, which sorts before every sub-window key, into the
    /// run when it sorts after the run's tail (or the run is spent), else
    /// into `late`.
    #[inline]
    fn push_run(&mut self, key: Key) {
        if self.run_head == self.run.len() {
            self.run.clear();
            self.run_head = 0;
        }
        match self.run.last() {
            Some(tail) if key < *tail => self.late.push(Reverse(key)),
            _ => self.run.push(key),
        }
    }

    /// The open window's smallest key, if any.
    #[inline]
    fn open_head(&self) -> Option<Key> {
        let run = self.run.get(self.run_head).copied();
        match (run, self.late.peek()) {
            (Some(r), Some(&Reverse(l))) => Some(if l < r { l } else { r }),
            (r, l) => r.or(l.map(|&Reverse(l)| l)),
        }
    }

    /// Removes the open window's smallest key, which must be `head` (the
    /// value [`CalendarQueue::open_head`] just returned).
    #[inline]
    fn remove_open_head(&mut self, head: Key) {
        if self.run.get(self.run_head) == Some(&head) {
            self.run_head += 1;
        } else {
            self.late.pop();
        }
    }

    /// Cancels the entry named by `handle`, returning its item; `None`
    /// when the entry has already popped or been cancelled (stale handle).
    ///
    /// The cancelled key stays where it physically sits (bucket, run or
    /// heap) as a tombstone and is reclaimed when the dispatch loop
    /// reaches it; tombstones are skipped silently, so a cancelled event
    /// never fires, never advances time, and never perturbs the order of
    /// live events.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<T> {
        let slot = match self.slab.get(handle.slot as usize) {
            Some((stamp, _)) if *stamp == handle.order => handle.slot,
            _ => {
                // Slot hint misses: the handle may predate a restore. The
                // side map resolves the order stamp to the rebuilt slot;
                // stale map entries (entry already popped, slot reused)
                // are detected by the stamp check and pruned.
                let slot = self.restored.remove(&handle.order)?;
                match self.slab.get(slot as usize) {
                    Some((stamp, _)) if *stamp == handle.order => slot,
                    _ => return None,
                }
            }
        };
        let item = self.slab[slot as usize].1.take()?;
        self.len -= 1;
        // The slot is NOT freed here: its key still sits in a bucket, the
        // run or a heap, and a reused slot would make that stale key
        // resurrect the new occupant. The slot frees when the tombstone
        // key pops.
        Some(item)
    }

    /// Advances the calendar until the open window holds the globally
    /// earliest entry (no-op when it already does, or the queue is empty).
    fn settle(&mut self) {
        while self.run_head == self.run.len() && self.late.is_empty() && self.len > 0 {
            if self.sub_mask != 0 {
                self.open_sub();
                continue;
            }
            // Find the earliest occupied window. By invariant 2 the ring
            // (when non-empty) always beats the overflow heap, and by
            // invariant 1 the first non-empty bucket after the cursor
            // identifies its window exactly.
            let target = if self.ring_len > 0 {
                (1..NUM_BUCKETS)
                    .map(|i| self.cur_window + i)
                    .find(|w| !self.buckets[(w & MASK) as usize].is_empty())
                    .expect("ring_len > 0 implies an occupied bucket within the horizon")
            } else {
                let Reverse(head) =
                    self.overflow.peek().expect("len > 0 with empty ring and window");
                head.tick >> BUCKET_BITS
            };
            self.cur_window = target;
            // Re-establish invariant 2: migrate overflow entries that now
            // fall inside the ring horizon, the new window's included, so
            // the bucket about to open holds all of that window.
            while let Some(Reverse(head)) = self.overflow.peek() {
                let w = head.tick >> BUCKET_BITS;
                if w >= self.cur_window + NUM_BUCKETS {
                    break;
                }
                let Reverse(key) = self.overflow.pop().expect("peeked");
                self.ring_len += 1;
                self.buckets[(w & MASK) as usize].push(key);
            }
            // Open the bucket for the new cursor window: it becomes the
            // run (the spent run's buffer goes back to the ring), sorted
            // once when sparse, scattered into sub-windows when dense.
            self.run.clear();
            self.run_head = 0;
            let bucket = &mut self.buckets[(target & MASK) as usize];
            self.ring_len -= bucket.len();
            std::mem::swap(&mut self.run, bucket);
            debug_assert!(self.run.iter().all(|k| k.tick >> BUCKET_BITS == target));
            if self.run.len() > DENSE {
                self.split_run();
            } else {
                self.run.sort_unstable();
                self.seg_last = window_last(target);
            }
        }
    }

    /// Scatters the dense window just swapped into the run over the
    /// sub-windows, then opens the first. Out of line: a sparse window's
    /// pop path never runs it.
    #[cold]
    fn split_run(&mut self) {
        if self.subs.is_empty() {
            self.subs.resize_with(SUBS, Vec::new);
        }
        for key in self.run.drain(..) {
            let s = sub_window(key.tick);
            self.subs[s].push(key);
            self.sub_mask |= 1 << s;
        }
        self.open_sub();
    }

    /// Makes the earliest occupied sub-window of the open window the run,
    /// sorted once. The spent run's buffer takes its place. Out of line:
    /// inlined into `settle`, it cost the sparse workloads' replayed
    /// calendar streams up to 7 %.
    #[inline(never)]
    fn open_sub(&mut self) {
        let s = self.sub_mask.trailing_zeros() as usize;
        self.sub_mask &= self.sub_mask - 1;
        self.run.clear();
        self.run_head = 0;
        std::mem::swap(&mut self.run, &mut self.subs[s]);
        debug_assert!(self
            .run
            .iter()
            .all(|k| k.tick >> BUCKET_BITS == self.cur_window && sub_window(k.tick) == s));
        self.run.sort_unstable();
        self.seg_last = (self.cur_window << BUCKET_BITS) | (((s as u64 + 1) << SUB_BITS) - 1);
    }

    /// Like [`CalendarQueue::settle`], but additionally discards cancelled
    /// tombstone keys at the head of the open window (reclaiming their
    /// slab slots), so the returned head — when present — is live.
    #[inline]
    fn settle_live(&mut self) -> Option<Key> {
        loop {
            self.settle();
            let head = self.open_head()?;
            if self.slab[head.slot as usize].1.is_some() {
                return Some(head);
            }
            self.remove_open_head(head);
            self.free.push(head.slot);
        }
    }

    /// The tick of the earliest queued (live) entry, if any.
    #[inline]
    pub fn next_tick(&mut self) -> Option<Tick> {
        self.settle_live().map(|key| key.tick)
    }

    /// Removes and returns the entry with the smallest `(tick, order)`.
    #[inline]
    pub fn pop(&mut self) -> Option<(Tick, T)> {
        // No tick exceeds `Tick::MAX`, so the limit never holds a head back.
        self.pop_if_at_most(Tick::MAX).ok().flatten().map(|(tick, _, item)| (tick, item))
    }

    /// [`CalendarQueue::pop_key_if_at_most`] and
    /// [`CalendarQueue::take_popped`] in one call: the head with its order
    /// stamp and item, if its tick is `<= limit`.
    #[inline]
    pub fn pop_if_at_most(&mut self, limit: Tick) -> Result<Option<(Tick, u64, T)>, Tick> {
        let popped = self.pop_key_if_at_most(limit)?;
        Ok(popped.map(|(tick, order, slot)| (tick, order, self.take_popped(slot))))
    }

    /// Fused peek-and-pop for the dispatch loop: settles once, then pops
    /// the head's `(tick, order, slot)` only if its tick is `<= limit`.
    /// The item stays in its slab slot, off the queue, until
    /// [`CalendarQueue::take_popped`] moves it out; call that before any
    /// other method. `Err(head_tick)` reports a head beyond the limit
    /// without disturbing it; `Ok(None)` means empty.
    #[inline]
    pub fn pop_key_if_at_most(&mut self, limit: Tick) -> Result<Option<(Tick, u64, u32)>, Tick> {
        let Some(head) = self.settle_live() else { return Ok(None) };
        if head.tick > limit {
            return Err(head.tick);
        }
        self.remove_open_head(head);
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            assert!(self.popped.is_none(), "popped twice without take_popped");
            self.popped = Some((head.slot, head.order));
        }
        Ok(Some((head.tick, head.order, head.slot)))
    }

    /// Moves out the item [`CalendarQueue::pop_key_if_at_most`] just
    /// popped from `slot`, and frees the slot.
    #[inline]
    pub fn take_popped(&mut self, slot: u32) -> T {
        // Free the slot first: with nothing that can unwind after the
        // take, the item never needs a stack home of its own, and a caller
        // that matches on it reads its fields straight from the slot.
        self.free.push(slot);
        let entry = &mut self.slab[slot as usize];
        #[cfg(debug_assertions)]
        assert_eq!(
            self.popped.take(),
            Some((slot, entry.0)),
            "take_popped of a slot that did not pop"
        );
        entry.1.take().expect("popped slot holds its item")
    }

    /// Creates an empty queue with the calendar cursor on the window
    /// before `now`'s, so entries for `now`'s window land in the ring and
    /// the first [`CalendarQueue::settle`] opens it through the same
    /// dense/sparse split as any other window. Window 0 has no window
    /// before it and starts open, as in [`CalendarQueue::new`]. Pop order
    /// is independent of the cursor.
    fn with_cursor(now: Tick) -> Self {
        let mut q = Self::new();
        q.cur_window = (now >> BUCKET_BITS).saturating_sub(1);
        q.seg_last = window_last(q.cur_window);
        q
    }

    /// Pushes a checkpoint-restored entry and registers it in the
    /// order-stamp side map, so [`EventHandle`]s minted before the
    /// checkpoint can still cancel it.
    fn push_restored(&mut self, tick: Tick, order: u64, item: T) {
        let handle = self.push(tick, order, item);
        self.restored.insert(order, handle.slot);
    }

    /// Every live (non-cancelled) entry as `(tick, order, item)`, in
    /// arbitrary order.
    pub(crate) fn live(&self) -> impl Iterator<Item = (Tick, u64, &T)> {
        self.run[self.run_head..]
            .iter()
            .chain(self.late.iter().map(|Reverse(k)| k))
            .chain(self.overflow.iter().map(|Reverse(k)| k))
            .chain(self.subs.iter().flatten())
            .chain(self.buckets.iter().flatten())
            .filter_map(|key| Some((key.tick, key.order, self.slab[key.slot as usize].1.as_ref()?)))
    }

    /// Serializes the queue into a checkpoint as portable `(tick, order)`
    /// entries sorted by pop order. Cancelled tombstones are *not* saved —
    /// they are logically gone — and slab slots are not preserved: the
    /// format is independent of the physical layout. Live items are
    /// encoded by `enc`.
    pub fn save(&self, w: &mut StateWriter, mut enc: impl FnMut(&mut StateWriter, &T)) {
        let mut live: Vec<(Tick, u64, &T)> = self.live().collect();
        live.sort_unstable_by_key(|&(tick, order, _)| (tick, order));
        w.usize(live.len());
        for (tick, order, item) in live {
            w.u64(tick);
            w.u64(order);
            enc(w, item);
        }
    }

    /// Rebuilds a queue from [`CalendarQueue::save`] output, with the
    /// calendar cursor positioned for simulated time `now`. Items are
    /// decoded by `dec`, which also sees each entry's order stamp. The
    /// rebuilt queue pops in the identical global `(tick, order)` order;
    /// [`EventHandle`]s saved before the checkpoint resolve through the
    /// order-stamp side map, so post-restore cancellation behaves exactly
    /// like the uninterrupted original.
    pub fn restore(
        now: Tick,
        r: &mut StateReader<'_>,
        mut dec: impl FnMut(&mut StateReader<'_>, u64) -> Result<T, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let mut q = Self::with_cursor(now);
        read_entries(now, r, |r, tick, order| {
            let item = dec(r, order)?;
            q.push_restored(tick, order, item);
            Ok(())
        })?;
        Ok(q)
    }
}

/// The last tick of window `w`.
fn window_last(w: u64) -> Tick {
    (w << BUCKET_BITS) | ((1 << BUCKET_BITS) - 1)
}

/// The index of the sub-window `tick` falls in, within its window.
#[inline]
fn sub_window(tick: Tick) -> usize {
    ((tick >> SUB_BITS) as usize) & (SUBS - 1)
}

/// Reads the entry list [`CalendarQueue::save`] wrote, rejecting entries
/// in the past of `now` and keys out of order or duplicated, and hands
/// each `(tick, order)` to `entry` to decode its item from `r`.
fn read_entries(
    now: Tick,
    r: &mut StateReader<'_>,
    mut entry: impl FnMut(&mut StateReader<'_>, Tick, u64) -> Result<(), SnapshotError>,
) -> Result<(), SnapshotError> {
    let n = r.usize()?;
    let mut last: Option<(Tick, u64)> = None;
    for _ in 0..n {
        let tick = r.u64()?;
        let order = r.u64()?;
        if tick < now {
            return Err(SnapshotError::Corrupt("queued entry is in the past".into()));
        }
        if last.is_some_and(|prev| prev >= (tick, order)) {
            return Err(SnapshotError::Corrupt("queue entries out of order or duplicated".into()));
        }
        last = Some((tick, order));
        entry(r, tick, order)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// Pushes with a test-local monotonically increasing order stamp, the
    /// way the simulation kernel's serial scheduler effectively behaves.
    struct Seq(u64);
    impl Seq {
        fn push<T>(&mut self, q: &mut CalendarQueue<T>, tick: Tick, item: T) -> EventHandle {
            let order = self.0;
            self.0 += 1;
            q.push(tick, order, item)
        }
    }

    #[test]
    fn empty_queue_behaves() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.next_tick(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pops_in_tick_then_order_stamp_order() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        s.push(&mut q, 50, "b");
        s.push(&mut q, 10, "a");
        s.push(&mut q, 50, "c");
        s.push(&mut q, 5, "z");
        assert_eq!(q.pop(), Some((5, "z")));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((50, "b")));
        assert_eq!(q.pop(), Some((50, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_ties_break_on_order_not_insertion() {
        // The stamp, not the push sequence, decides same-tick ordering.
        let mut q = CalendarQueue::new();
        q.push(40, 7, "late");
        q.push(40, 3, "early");
        assert_eq!(q.pop(), Some((40, "early")));
        assert_eq!(q.pop(), Some((40, "late")));
    }

    #[test]
    fn far_future_entries_route_through_overflow() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        let far = (NUM_BUCKETS + 5) << BUCKET_BITS;
        s.push(&mut q, far, "far");
        s.push(&mut q, 1, "near");
        assert_eq!(q.pop(), Some((1, "near")));
        assert_eq!(q.next_tick(), Some(far));
        // A push landing before the far entry, after the cursor advanced.
        s.push(&mut q, far - 3, "nearer");
        assert_eq!(q.pop(), Some((far - 3, "nearer")));
        assert_eq!(q.pop(), Some((far, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn window_collisions_across_the_ring_stay_ordered() {
        // Two ticks whose windows map to the same ring bucket (w and
        // w + NUM_BUCKETS) must still pop in tick order.
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        let near = 3 << BUCKET_BITS;
        let colliding = (3 + NUM_BUCKETS) << BUCKET_BITS;
        s.push(&mut q, colliding, "late");
        s.push(&mut q, near, "early");
        assert_eq!(q.pop(), Some((near, "early")));
        assert_eq!(q.pop(), Some((colliding, "late")));
    }

    #[test]
    fn slab_slots_are_recycled_across_push_pop_cycles() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        for round in 0u64..1000 {
            s.push(&mut q, round * 7, round);
            s.push(&mut q, round * 7 + 3, round + 1_000_000);
            assert_eq!(q.pop(), Some((round * 7, round)));
            assert_eq!(q.pop(), Some((round * 7 + 3, round + 1_000_000)));
        }
        // Steady-state churn must not grow item storage past the high-water
        // mark of concurrently queued entries.
        assert!(q.slab.len() <= 4, "slab grew to {} slots", q.slab.len());
    }

    #[test]
    fn cancel_removes_an_entry_without_disturbing_the_rest() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        s.push(&mut q, 10, "a");
        let h = s.push(&mut q, 20, "b");
        s.push(&mut q, 30, "c");
        assert_eq!(q.cancel(h), Some("b"));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_handles_are_noops() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        let h = s.push(&mut q, 5, "x");
        assert_eq!(q.pop(), Some((5, "x")));
        assert_eq!(q.cancel(h), None, "popped entry cannot be cancelled");
        let h2 = s.push(&mut q, 7, "y");
        assert_eq!(q.cancel(h2), Some("y"));
        assert_eq!(q.cancel(h2), None, "double cancel is a no-op");
        // The tombstone slot must not be resurrectable by the stale handle
        // after a new push reuses the slab.
        let h3 = s.push(&mut q, 9, "z");
        assert_eq!(q.cancel(h), None);
        assert_eq!(q.pop(), Some((9, "z")));
        assert_eq!(q.cancel(h3), None);
    }

    #[test]
    fn cancelled_head_does_not_gate_next_tick_or_pop_if_at_most() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        let h = s.push(&mut q, 10, "dead");
        s.push(&mut q, 500, "live");
        assert_eq!(q.cancel(h), Some("dead"));
        // The tombstone at tick 10 must be invisible: the head is 500.
        assert_eq!(q.next_tick(), Some(500));
        assert_eq!(q.pop_if_at_most(100), Err(500));
        assert_eq!(q.pop_if_at_most(500), Ok(Some((500, 1, "live"))));
        assert_eq!(q.pop_if_at_most(u64::MAX), Ok(None));
    }

    #[test]
    fn cancel_in_far_future_windows_reclaims_on_reach() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        let ring = s.push(&mut q, 5 << BUCKET_BITS, "ring");
        let far = (NUM_BUCKETS + 9) << BUCKET_BITS;
        let over = s.push(&mut q, far, "overflow");
        s.push(&mut q, 1, "now");
        assert_eq!(q.cancel(ring), Some("ring"));
        assert_eq!(q.cancel(over), Some("overflow"));
        assert_eq!(q.pop(), Some((1, "now")));
        assert_eq!(q.pop(), None, "tombstones across ring and overflow never surface");
        assert!(q.is_empty());
    }

    #[test]
    fn save_restore_round_trips_and_resolves_old_handles() {
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        s.push(&mut q, 30, 300u64);
        let h_live = s.push(&mut q, 10, 100u64);
        let h_dead = s.push(&mut q, 20, 200u64);
        s.push(&mut q, (NUM_BUCKETS + 3) << BUCKET_BITS, 999u64);
        assert_eq!(q.cancel(h_dead), Some(200));
        let mut w = StateWriter::new();
        q.save(&mut w, |w, v| w.u64(*v));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut q2: CalendarQueue<u64> = CalendarQueue::restore(0, &mut r, |r, _| r.u64()).unwrap();
        assert!(r.is_empty());
        assert_eq!(q2.len(), 3, "tombstones are not saved");
        // A handle from the pre-restore queue cancels through the side map.
        assert_eq!(q2.cancel(h_live), Some(100));
        assert_eq!(q2.cancel(h_live), None);
        assert_eq!(q2.pop(), Some((30, 300)));
        assert_eq!(q2.pop(), Some(((NUM_BUCKETS + 3) << BUCKET_BITS, 999)));
        assert_eq!(q2.pop(), None);
    }

    #[test]
    fn a_restored_dense_window_splits_like_a_cold_one() {
        // `DENSE + 8` keys over the sub-windows of `now`'s window 2.
        let now = 2 << BUCKET_BITS;
        let mut q = CalendarQueue::new();
        let mut s = Seq(0);
        for i in 0..DENSE as u64 + 8 {
            s.push(&mut q, now + (i << SUB_BITS), i);
        }
        let mut w = StateWriter::new();
        q.save(&mut w, |w, v| w.u64(*v));
        let bytes = w.into_bytes();
        let mut q: CalendarQueue<u64> =
            CalendarQueue::restore(now, &mut StateReader::new(&bytes), |r, _| r.u64()).unwrap();
        assert_eq!(q.pop(), Some((now, 0)));
        assert_eq!(q.seg_last, now + (1 << SUB_BITS) - 1, "the run holds sub-window 0 only");
        assert_eq!(q.sub_mask.count_ones(), DENSE as u32 + 7);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(popped, (1..DENSE as u64 + 8).collect::<Vec<_>>());
    }

    #[test]
    fn restore_rejects_out_of_order_or_past_entries() {
        // Past entry.
        let mut w = StateWriter::new();
        w.usize(1);
        w.u64(5); // tick
        w.u64(0); // order
        w.u64(1); // item
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(CalendarQueue::<u64>::restore(10, &mut r, |r, _| r.u64()).is_err());
        // Duplicated key.
        let mut w = StateWriter::new();
        w.usize(2);
        w.u64(5);
        w.u64(7);
        w.u64(1);
        w.u64(5);
        w.u64(7);
        w.u64(2);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(CalendarQueue::<u64>::restore(0, &mut r, |r, _| r.u64()).is_err());
    }

    /// How far apart in ticks one lockstep group's entries may lie: three
    /// sub-windows.
    const LOCKSTEP_SPREAD: Tick = 3 << SUB_BITS;

    /// Drives a calendar beside a sorted reference set of the same
    /// `(tick, stamp)` keys through a seeded operation mix, checking every
    /// pop against the reference. Stamps are shaped like the kernel's
    /// (`gid << 48 | per-gid counter`) and items equal their stamps.
    struct ModelCheck {
        q: CalendarQueue<u64>,
        reference: BTreeSet<(Tick, u64)>,
        handles: Vec<(EventHandle, Tick, u64)>,
        counters: [u64; 32],
        now: Tick,
        rng: u64,
    }

    impl ModelCheck {
        fn new(seed: u64) -> Self {
            Self {
                q: CalendarQueue::new(),
                reference: BTreeSet::new(),
                handles: Vec::new(),
                counters: [0; 32],
                now: 0,
                rng: seed,
            }
        }

        fn rand(&mut self) -> u64 {
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.rng >> 33
        }

        fn mint(&mut self, gid: usize) -> u64 {
            let counter = self.counters[gid];
            self.counters[gid] += 1;
            ((gid as u64) << 48) | counter
        }

        /// First tick past the window `now` falls in.
        fn window_end(&self) -> Tick {
            ((self.now >> BUCKET_BITS) + 1) << BUCKET_BITS
        }

        fn push(&mut self, tick: Tick, order: u64) {
            let handle = self.q.push(tick, order, order);
            self.reference.insert((tick, order));
            self.handles.push((handle, tick, order));
        }

        /// One push: mostly link/timer-sized delays, some across the
        /// ring, a few into the overflow heap.
        fn push_scattered(&mut self) {
            let r = self.rand();
            let delay = match r % 10 {
                0..=6 => r % 300_000,
                7 | 8 => r % (NUM_BUCKETS << BUCKET_BITS),
                _ => (NUM_BUCKETS << BUCKET_BITS) * 3 + r % 1_000_000,
            };
            let order = self.mint((r % 8) as usize);
            self.push(self.now + delay, order);
        }

        /// A burst inside the open window, stamps minted in order and
        /// pushed in reverse, so all but the first arrive out of order.
        fn push_reversed_burst(&mut self) {
            let span = self.window_end() - self.now;
            let k = 2 + self.rand() % 15;
            let keys: Vec<(Tick, u64)> =
                (0..k).map(|_| (self.now + self.rand() % span, self.mint(0))).collect();
            for &(tick, order) in keys.iter().rev() {
                self.push(tick, order);
            }
        }

        /// One entry per component at a single tick, components visited
        /// in a scrambled order: a lower gid lands mid-window.
        fn push_gid_interleaved(&mut self) {
            let tick = self.now + self.rand() % 4;
            let start = self.rand() as usize;
            for i in 0..8 {
                let order = self.mint((start + 5 * i) % 8);
                self.push(tick, order);
            }
        }

        /// One lockstep step of `fanout32_dd`'s 32 streams: every entry
        /// within a few sub-windows of the head pops, and the popping
        /// components push their successors together, the group topped
        /// up to 20–32 components (cancels and single pops thin it), unless
        /// the queue is deep. A thin queue also gains a fresh group.
        fn lockstep_step(&mut self) {
            let mut gids: Vec<usize> = Vec::new();
            if let Some(&(head, _)) = self.reference.first() {
                while self.reference.first().is_some_and(|&(tick, _)| tick < head + LOCKSTEP_SPREAD)
                {
                    let got = self.q.pop();
                    assert_eq!(got, self.reference.pop_first(), "lockstep pop");
                    let (tick, order) = got.expect("a head");
                    self.now = tick;
                    gids.push((order >> 48) as usize);
                }
            }
            if !gids.is_empty() && self.reference.len() < 256 {
                self.push_group(gids);
            }
            if self.reference.len() < 64 {
                self.push_group(Vec::new());
            }
            // Old handles, mostly stale by now, only slow `cancel` down.
            if self.handles.len() > 4096 {
                self.handles.drain(..2048);
            }
        }

        /// One entry per component in `gids`, topped up or cut to 20–32
        /// components, at one shared tick (half the
        /// time jittered across a few sub-windows), delayed by
        /// `fanout32_dd`'s measured mix: ≈10 % zero, ≈60 % 1k–65k ticks,
        /// ≈28 % 65k–262k, a few past the ring.
        fn push_group(&mut self, mut gids: Vec<usize>) {
            let size = 20 + self.rand() as usize % 13;
            let start = self.rand() as usize;
            gids.truncate(size);
            gids.extend((gids.len()..size).map(|i| (start + 7 * i) % 32));
            let r = self.rand();
            let delay = match r % 50 {
                0..=4 => 0,
                5..=34 => 1_000 + r % 64_536,
                35..=48 => 65_536 + r % 196_608,
                _ => (NUM_BUCKETS << BUCKET_BITS) + r % 1_000_000,
            };
            let jitter = if self.rand().is_multiple_of(2) { LOCKSTEP_SPREAD } else { 1 };
            for gid in gids {
                let tick = self.now + delay + self.rand() % jitter;
                let order = self.mint(gid);
                self.push(tick, order);
            }
        }

        /// Peeks the head, which may move the cursor to a later window or
        /// sub-window, then pushes entries between `now` and that head:
        /// behind the cursor.
        fn peek_then_push_behind(&mut self) {
            let Some(head) = self.q.next_tick() else { return };
            assert_eq!(Some(head), self.reference.first().map(|&(tick, _)| tick), "next_tick");
            for _ in 0..1 + self.rand() % 4 {
                let tick = self.now + self.rand() % (head - self.now + 1);
                let gid = (self.rand() % 32) as usize;
                let order = self.mint(gid);
                self.push(tick, order);
            }
        }

        fn pop(&mut self) {
            let got = self.q.pop();
            assert_eq!(got, self.reference.pop_first(), "pop");
            if let Some((tick, _)) = got {
                self.now = tick;
            }
        }

        /// A limit inside the open window.
        fn pop_if_at_most_in_window(&mut self) {
            let limit = self.now + self.rand() % (self.window_end() - self.now);
            match self.q.pop_if_at_most(limit) {
                Ok(Some((tick, order, item))) => {
                    assert_eq!(item, order);
                    assert_eq!(self.reference.pop_first(), Some((tick, order)));
                    assert!(tick <= limit);
                    self.now = tick;
                }
                Ok(None) => assert!(self.reference.is_empty()),
                Err(head) => {
                    let &(tick, _) = self.reference.first().expect("a head beyond the limit");
                    assert_eq!(head, tick);
                    assert!(head > limit);
                }
            }
        }

        /// Pops the head's key, then takes its item out of the slot — the
        /// dispatch loop's pair — under a limit inside the open window or
        /// none at all.
        fn pop_split(&mut self) {
            let limit = match self.rand() % 2 {
                0 => self.now + self.rand() % (self.window_end() - self.now),
                _ => Tick::MAX,
            };
            match self.q.pop_key_if_at_most(limit) {
                Ok(Some((tick, order, slot))) => {
                    assert_eq!(self.reference.pop_first(), Some((tick, order)));
                    assert!(tick <= limit);
                    assert_eq!(self.q.take_popped(slot), order, "item pushed under the key");
                    self.now = tick;
                }
                Ok(None) => assert!(self.reference.is_empty()),
                Err(head) => {
                    let &(tick, _) = self.reference.first().expect("a head beyond the limit");
                    assert_eq!(head, tick);
                    assert!(head > limit);
                }
            }
            assert_eq!(self.q.len(), self.reference.len());
        }

        /// Cancels a random handle — live, popped or already cancelled —
        /// preferring one in the open window when `open_window`.
        fn cancel(&mut self, open_window: bool) {
            if self.handles.is_empty() {
                return;
            }
            let n = self.handles.len();
            let start = self.rand() as usize % n;
            let end = self.window_end();
            let pick = (0..n)
                .map(|i| (start + i) % n)
                .find(|&i| {
                    !open_window || (self.handles[i].1 < end && self.handles[i].1 >= self.now)
                })
                .unwrap_or(start);
            let (handle, tick, order) = self.handles.swap_remove(pick);
            let live = self.reference.remove(&(tick, order));
            assert_eq!(self.q.cancel(handle), live.then_some(order), "cancel");
            assert_eq!(self.q.len(), self.reference.len());
        }

        /// Replaces the queue with its own checkpoint; handles minted
        /// before keep working.
        fn save_restore(&mut self) {
            let mut w = StateWriter::new();
            self.q.save(&mut w, |w, v| w.u64(*v));
            let bytes = w.into_bytes();
            let mut r = StateReader::new(&bytes);
            self.q = CalendarQueue::restore(self.now, &mut r, |r, order| {
                let item = r.u64()?;
                assert_eq!(item, order);
                Ok(item)
            })
            .expect("own checkpoint restores");
            assert!(r.is_empty());
            assert_eq!(self.q.len(), self.reference.len());
        }

        fn drain(mut self) {
            while !self.reference.is_empty() {
                self.pop();
            }
            assert_eq!(self.q.pop(), None);
        }
    }

    #[test]
    fn interleaved_cancel_matches_reference_heap() {
        for seed in [0x1234_5678, 7, 99, 0xdead_beef] {
            let mut m = ModelCheck::new(seed);
            for _ in 0..5_000 {
                match m.rand() % 18 {
                    0..=4 => m.push_scattered(),
                    5 => m.push_reversed_burst(),
                    6 => m.push_gid_interleaved(),
                    7 | 8 => m.cancel(false),
                    9 | 10 => m.cancel(true),
                    11 | 12 => m.pop(),
                    13 | 14 => m.pop_if_at_most_in_window(),
                    15 | 16 => m.pop_split(),
                    _ if m.rand().is_multiple_of(8) => m.save_restore(),
                    _ => {}
                }
            }
            m.drain();
        }
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        for seed in [0x9e37_79b9, 3, 41, 0x0bad_cafe] {
            let mut m = ModelCheck::new(seed);
            for _ in 0..5_000 {
                match m.rand() % 19 {
                    0..=5 => m.push_scattered(),
                    6 => m.push_reversed_burst(),
                    7 => m.push_gid_interleaved(),
                    8..=11 => m.pop(),
                    12..=14 => m.pop_if_at_most_in_window(),
                    15..=17 => m.pop_split(),
                    _ if m.rand().is_multiple_of(8) => m.save_restore(),
                    _ => {}
                }
            }
            m.drain();
        }
    }

    #[test]
    fn dense_windows_match_reference_heap() {
        for seed in [0x5eed_0001, 17, 2024, 0xfa_0032] {
            let mut m = ModelCheck::new(seed);
            // Windows opened, and how many of them split.
            let (mut opened, mut split, mut window) = (0, 0, 0);
            for _ in 0..6_000 {
                match m.rand() % 64 {
                    0..=39 => m.lockstep_step(),
                    40 => m.push_scattered(),
                    41..=43 => m.peek_then_push_behind(),
                    44..=47 => m.cancel(true),
                    48..=51 => m.pop(),
                    52..=55 => m.pop_if_at_most_in_window(),
                    56..=59 => m.pop_split(),
                    // Checkpoints land inside a split window, sub-windows
                    // still waiting.
                    _ if m.q.sub_mask != 0 => m.save_restore(),
                    _ => {}
                }
                if m.q.cur_window != window {
                    window = m.q.cur_window;
                    opened += 1;
                    split += usize::from(m.q.seg_last != window_last(window));
                }
            }
            assert!(split * 2 > opened, "seed {seed:#x}: {split} of {opened} windows split");
            m.drain();
        }
    }

    #[test]
    fn a_dense_window_opens_one_sub_window_at_a_time() {
        // 40 keys over window 1's sub-windows 0..40, plus one at tick 0.
        let mut q = CalendarQueue::new();
        let base = 1 << BUCKET_BITS;
        q.push(0, 0, 0);
        for i in 0..40u64 {
            q.push(base + (i << SUB_BITS) + 7, 100 + i, 100 + i);
        }
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.next_tick(), Some(base + 7));
        // Only sub-window 0 is a sorted run; the rest wait unsorted.
        assert_eq!(q.run[q.run_head..].len(), 1);
        assert_eq!(q.sub_mask.count_ones(), 39);
        assert_eq!(q.seg_last, base + (1 << SUB_BITS) - 1);
        // A push past the run's sub-window drops into its own; one inside
        // it after the tail appends; only an out-of-order one is late.
        q.push(base + (50 << SUB_BITS), 200, 200);
        assert!(q.sub_mask & (1 << 50) != 0 && q.subs[50].len() == 1);
        q.push(base + 9, 201, 201);
        assert!(q.late.is_empty());
        q.push(base + 3, 202, 202);
        assert_eq!(q.late.len(), 1);
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        let mut want = vec![202, 100, 201];
        want.extend(101..140);
        want.push(200);
        assert_eq!(popped, want);
        // A sparse window (at most `DENSE` keys) is sorted whole.
        let base = 3 << BUCKET_BITS;
        for i in 0..DENSE as u64 {
            q.push(base + (i << SUB_BITS), 300 + i, 300 + i);
        }
        assert_eq!(q.next_tick(), Some(base));
        assert_eq!((q.sub_mask, q.run[q.run_head..].len()), (0, DENSE));
        assert_eq!(q.seg_last, window_last(3));
    }
}
