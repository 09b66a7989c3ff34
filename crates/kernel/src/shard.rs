//! Conservative parallel execution of one simulation across N shards.
//!
//! The topology tree is partitioned at *link* boundaries: every PCIe link
//! has nonzero serialization + propagation latency, so a TLP (or DLLP)
//! that crosses a cut cannot arrive sooner than that link's **lookahead
//! horizon** `h = tx_time(min wire unit) + propagation`. That bound is
//! what makes conservative synchronization possible (MGSim-style null
//! messages degenerate to a global window here because the fabric is a
//! tree): if every shard has processed all events below tick `T`, no
//! cross-shard message can be pending for any tick below `T + Δ`, where
//! `Δ = min h` over all cut edges. So every shard repeats, in lock step,
//! one *round* with a single rendezvous in it:
//!
//! 1. move its outbox ([`Ctx::remote_schedule`](crate::sim::Ctx::remote_schedule))
//!    into the per-(source, destination) mailboxes, checking that every
//!    message lands at or beyond the end of the window it just ran;
//! 2. publish `min(next local event, earliest tick it sent)`, its event
//!    count and its stop flag, and arrive at the barrier;
//! 3. past the barrier, drain its inbox in source-shard order, injecting
//!    every message into its own queue with the `(tick, order)` key minted
//!    on the sending side;
//! 4. compute — from the values *all* shards published, so every shard
//!    reaches the same verdict — stop, quiesce, time limit, event budget,
//!    or the next window `[T, T + Δ)` with `T = min` of the published
//!    ticks, and run it ([`Simulation::run_window`]).
//!
//! **Bit-identity.** Events are globally ordered by `(tick, order stamp)`
//! where the stamp is a pure function of the scheduling component — see
//! [`crate::sim`] — so each shard's calendar pops its *subset* of the
//! serial sequence in the serial relative order, and mailbox injection
//! preserves the stamps. Every component therefore observes the identical
//! event sequence it would observe serially: same quiesce time, same
//! statistics, same packet ids. Trace records carry their dispatch stamp
//! and are k-way merged by `(at, stamp)` into one global ring whose
//! eviction matches the serial ring, so even the trace stream (and its
//! drop count) is bit-identical. DESIGN.md §14 gives the full argument.
//!
//! **Threading.** N shards use N threads: the thread that calls
//! [`ShardedSimulator::run`] drives shard 0 itself and `N − 1` plain
//! `std::thread::scope` workers drive the rest; no async runtime, no
//! coordinator. `Simulation` is not `Send` (components hold `Rc` harness
//! handles), so shards live in [`ShardCell`]s whose safety invariant is
//! documented below. What the rendezvous cost is reported by
//! [`ShardedSimulator::sync_stats`].

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::Instant;

use crate::calendar::{read_entries, CalendarQueue};
use crate::component::{ComponentId, Event, PortId};
use crate::sim::{
    decode_action, encode_queued, open_checkpoint, seal_checkpoint, Action, ActionBody,
    OutboundMsg, Queued, RunOutcome, Simulation, NUM_STREAMS,
};
use crate::snapshot::{SnapshotError, StateReader, StateWriter};
use crate::stats::StatsSnapshot;
use crate::tick::Tick;
use crate::trace::{TraceEvent, TraceLog, Tracer};

/// One directed cut edge: events staged on `from_shard`'s outbox under
/// this edge's index are injected into `to_shard`'s queue targeting
/// `dest` (the far half of the cut link). `horizon` is the minimum delay
/// any message on this edge can carry — the link's smallest wire
/// serialization time plus its propagation delay.
#[derive(Debug, Clone, Copy)]
pub struct EdgeSpec {
    /// Shard whose outbox carries this edge's messages.
    pub from_shard: u32,
    /// Shard whose queue receives them.
    pub to_shard: u32,
    /// The component the messages are dispatched into.
    pub dest: ComponentId,
    /// Conservative lower bound on message delay, in ticks (must be > 0).
    pub horizon: Tick,
}

/// Where a global component id lives in a partitioned run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The component lives whole in one shard.
    Shard(u32),
    /// A cut link, split into two half-components sharing the gid:
    /// physical end 0 (the upstream/parent side) lives in `end0`, end 1
    /// (the downstream/child side) in `end1`.
    Split {
        /// Shard owning physical end 0.
        end0: u32,
        /// Shard owning physical end 1.
        end1: u32,
    },
}

/// A queued action bound for a split component, shown to [`RouteEndFn`]
/// so the link layer can say which physical end it belongs to.
#[derive(Debug)]
pub enum QueuedFor<'a> {
    /// A timer or delayed-packet event.
    Event(&'a Event),
    /// A retry grant arriving on `port`.
    Retry {
        /// The port the retry is granted on.
        port: PortId,
    },
}

/// Maps a queued action for a split component to the physical end
/// (0 or 1) that handles it. Provided by the link layer — the only
/// component kind that can be split — and used when a checkpoint is
/// restored under a different shard count to route each queue entry to
/// the shard owning the right half.
pub type RouteEndFn = fn(&QueuedFor<'_>) -> u8;

/// How a simulation is divided: a placement per global component id, the
/// directed cut edges, and the split-event router.
pub struct ShardPlan {
    /// Placement of each global component id, indexed by gid.
    pub placements: Vec<Placement>,
    /// Every directed cut edge; [`Ctx::remote_schedule`] indexes this
    /// table.
    ///
    /// [`Ctx::remote_schedule`]: crate::sim::Ctx::remote_schedule
    pub edges: Vec<EdgeSpec>,
    /// Routes split-component queue entries on restore.
    pub route_end: RouteEndFn,
}

/// A `Simulation` slot that a shard's thread drives during
/// [`ShardedSimulator::run`] and the caller owns otherwise.
///
/// # Safety invariant
///
/// `Simulation` is `!Send`/`!Sync` (components hold `Rc` handles shared
/// with the build-time harness, and all kernel state is `Cell`/`RefCell`).
/// The driver upholds exclusive access by construction:
///
/// * outside `run`, only the thread that owns the `ShardedSimulator`
///   touches any shard (`&mut self`, or `&self` with no thread alive);
/// * inside `run`, shard `i` is touched only by thread `i` — thread 0 is
///   the caller itself, threads `1..N` are scoped workers spawned *after*
///   the caller's last access and joined before `run` returns, and spawn
///   and join order the caller's accesses with theirs. A thread never
///   reaches into another shard: what crosses is an [`OutboundMsg`]
///   (plain data, `Send`) through a mailbox `Mutex`, and the published
///   atomics;
/// * the one exception is the *trace quiesce*: between a rendezvous at
///   which every shard saw the same "staged trace records ≥ batch" sum and
///   the extra barrier crossing that follows it, threads `1..N` touch
///   nothing at all and thread 0 reads every shard's staging tracer. The
///   rendezvous' arrive(`AcqRel`)/release(`SeqCst` store, `Acquire` load)
///   pair makes the workers' trace writes visible to thread 0, and the
///   extra crossing hands the shards back the same way. No thread keeps a
///   `&mut Simulation` alive across a barrier — each phase re-borrows;
/// * `Rc` clones held by harness code (workload handles, config spaces)
///   are only dereferenced by the shard that owns their components —
///   the partitioner places every component of such a cluster in one
///   shard — or by the caller outside `run`.
struct ShardCell(UnsafeCell<Simulation>);

// SAFETY: see the invariant above — every access is either thread `i` on
// shard `i` between that thread's spawn and join, thread 0 on the staging
// tracers inside a trace quiesce that the barrier brackets on both sides,
// or the owning thread while no worker exists. Never two threads at once.
unsafe impl Sync for ShardCell {}

/// The per-(parity, source, destination) mailboxes. Source `s` fills
/// `slot(p, s, d)` before arriving at a rendezvous of parity `p`;
/// destination `d` drains it after that rendezvous and before its next
/// arrival, while `s` — possibly a whole window ahead — is already filling
/// parity `1 − p`. The protocol therefore never contends a mailbox; the
/// `Mutex` is what lets the compiler check that instead of an `unsafe`
/// block, at one uncontended compare-and-swap per use. The buffers live
/// in the driver so their capacity survives windows and runs.
struct Mailboxes {
    shards: usize,
    slots: Vec<Mailbox>,
}

/// One mailbox on a cache line of its own, so an inbox nobody wrote to
/// stays in its reader's cache however busy its neighbours are.
#[repr(align(64))]
#[derive(Default)]
struct Mailbox(Mutex<Vec<OutboundMsg>>);

impl Mailbox {
    fn lock(&self) -> MutexGuard<'_, Vec<OutboundMsg>> {
        // A panicking shard poisons the run as a whole (see `Barrier`);
        // the Vec itself is valid after any interrupted push or drain.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

// What crosses a cut between threads must be plain data. (`Mutex<Vec<T>>`
// demands it anyway; this names the requirement where a new `Event`
// variant holding an `Rc` would otherwise fail far from its cause.)
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<OutboundMsg>();
};

impl Mailboxes {
    fn new(shards: usize) -> Self {
        Self { shards, slots: (0..2 * shards * shards).map(|_| Mailbox::default()).collect() }
    }

    fn slot(&self, parity: usize, src: usize, dst: usize) -> MutexGuard<'_, Vec<OutboundMsg>> {
        self.slots[(parity * self.shards + src) * self.shards + dst].lock()
    }

    fn all_empty(&self) -> bool {
        self.slots.iter().all(|m| m.lock().is_empty())
    }
}

/// Staged trace records (summed over shards) at which the shards stop for
/// a trace quiesce, bounding the staging memory of a long traced run.
/// (Tiny under `cfg(test)` so the unit tests merge mid-run.)
const TRACE_MERGE_BATCH: usize = if cfg!(test) { 4 } else { 1 << 16 };

/// What one shard tells the others at a rendezvous. Double-buffered by
/// round parity like the mailboxes: the owner stores (`Relaxed`) before
/// arriving at the barrier, everyone loads (`Relaxed`) after crossing it,
/// and the barrier's arrive/release pair orders the two.
#[repr(align(64))]
#[derive(Default)]
struct Published {
    /// Whether the shard has a next tick: a local event or a message sent
    /// this round. (An event saturated to `Tick::MAX` is still an event.)
    has_next: AtomicBool,
    /// `min(next local event, earliest tick sent this round)`, when
    /// `has_next`.
    next: AtomicU64,
    /// The shard's `events_processed`.
    events: AtomicU64,
    stop: AtomicBool,
    /// Trace records staged in the shard's tracer (tracing runs only).
    staged_traces: AtomicUsize,
}

/// The barrier was poisoned: a shard panicked and the run must unwind.
#[derive(Debug)]
struct Poisoned;

/// A generation-counting hybrid barrier for `parties` threads.
///
/// The last thread to arrive releases the generation with one atomic
/// store — no lock, no syscall — and then unparks exactly the waiters
/// that announced (`Seat::parked`) they were going to sleep; when nobody
/// did, that is a scan of clean flags. Waiters spin first and park
/// ([`std::thread::park`], one futex per thread, so a release wakes no
/// thundering herd onto a shared lock) when their spin budget runs out.
/// Both the kind of spin and its budget follow from what the barrier
/// observes. With a core per party an iteration is `spin_loop`; with
/// fewer, the thread waited for may be waiting for this very core, so an
/// iteration is `yield_now` — a hand-off that costs a context switch
/// where a park costs a futex sleep, a wake and, across cores, an IPI —
/// and the budget is small. Either budget doubles after a wait that ended
/// by spin and halves after one that ended by park, so a core taken by
/// another process degrades to parking instead of burning scheduler
/// quanta. (`unpark` may leave the calling thread a stale token once
/// `run` returns; `park` is specified to wake spuriously, so no correct
/// user of it can tell.)
///
/// A panicking party poisons the barrier ([`PoisonOnUnwind`]) so that
/// every other party — spinning, parked or yet to arrive — gets
/// `Err(Poisoned)` instead of waiting forever.
struct Barrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// One per party, claimed by [`Barrier::waiter`].
    seats: Vec<Seat>,
    /// One iteration of a waiter's spin phase: [`std::hint::spin_loop`]
    /// or [`std::thread::yield_now`].
    relax: fn(),
    /// Bounds of the adaptive spin budget, in `relax` iterations.
    spin_range: (u32, u32),
}

/// What the releasing thread needs to wake one party.
#[derive(Default)]
struct Seat {
    thread: OnceLock<Thread>,
    /// Set by the party before it parks, cleared after it wakes.
    parked: AtomicBool,
}

/// One party's private side of the barrier: its seat, its current spin
/// budget and the record its waits are counted in.
struct Waiter {
    seat: usize,
    spin_budget: u32,
    stats: ShardSyncStats,
}

impl Barrier {
    /// Budget bounds when every party has a core, in `spin_loop`
    /// iterations: about a microsecond to about a scheduler wakeup.
    const SPIN_RANGE: (u32, u32) = (1 << 7, 1 << 12);
    /// Budget bounds when parties outnumber cores, in `yield_now` calls:
    /// the thread waited for may well be waiting for this core.
    const YIELD_RANGE: (u32, u32) = (1, 1 << 4);

    fn new(parties: usize) -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores >= parties {
            Self::with_spin(parties, std::hint::spin_loop, Self::SPIN_RANGE)
        } else {
            Self::with_spin(parties, std::thread::yield_now, Self::YIELD_RANGE)
        }
    }

    fn with_spin(parties: usize, relax: fn(), spin_range: (u32, u32)) -> Self {
        Self {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            seats: (0..parties).map(|_| Seat::default()).collect(),
            relax,
            spin_range,
        }
    }

    /// Seats the calling thread as party `seat`; it must make every one
    /// of that party's `wait` calls itself.
    fn waiter(&self, seat: usize) -> Waiter {
        self.seats[seat].thread.set(std::thread::current()).expect("seat taken twice");
        Waiter { seat, spin_budget: self.spin_range.1, stats: ShardSyncStats::default() }
    }

    /// Blocks until all parties have arrived. Everything a party wrote
    /// before arriving is visible to every party after it returns.
    ///
    /// Orderings: arrivals form a release sequence on `arrived` (`AcqRel`
    /// read-modify-writes), which the last arriver acquires before it
    /// stores `generation`; waiters acquire that store. `generation`,
    /// `parked` and `poisoned` use `SeqCst` where a store on one must be
    /// seen by a load of another (waiter: announce park, then re-check
    /// generation; releaser: publish generation, then look for parked
    /// waiters — one of the two always sees the other, and an `unpark`
    /// that comes too early leaves a token that ends the `park` at once).
    fn wait(&self, w: &mut Waiter) -> Result<(), Poisoned> {
        // Generation first, poison flag second: `poison` sets the flag
        // before it bumps the generation, so a party that reads a bumped
        // generation here is certain to see the flag.
        let gen = self.generation.load(Ordering::SeqCst);
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Poisoned);
        }
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.seats.len() {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            self.unpark(|seat| seat.parked.load(Ordering::SeqCst));
            return Ok(());
        }
        let started = Instant::now();
        let mut spins = 0u32;
        let parked = loop {
            if self.generation.load(Ordering::Acquire) != gen {
                break false;
            }
            if spins < w.spin_budget {
                spins += 1;
                (self.relax)();
                continue;
            }
            let seat = &self.seats[w.seat];
            seat.parked.store(true, Ordering::SeqCst);
            while self.generation.load(Ordering::SeqCst) == gen {
                std::thread::park();
            }
            seat.parked.store(false, Ordering::SeqCst);
            break true;
        };
        let waited = started.elapsed().as_nanos() as u64;
        let (lo, hi) = self.spin_range;
        if parked {
            w.stats.park_waits += 1;
            w.stats.park_ns += waited;
            w.spin_budget = (w.spin_budget / 2).max(lo);
        } else {
            w.stats.spin_waits += 1;
            w.stats.spin_ns += waited;
            w.spin_budget = w.spin_budget.saturating_mul(2).min(hi);
        }
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(Poisoned);
        }
        Ok(())
    }

    fn unpark(&self, wants: impl Fn(&Seat) -> bool) {
        for seat in self.seats.iter().filter(|seat| wants(seat)) {
            if let Some(thread) = seat.thread.get() {
                thread.unpark();
            }
        }
    }

    /// Wakes every current and future waiter with `Err(Poisoned)`.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        self.unpark(|_| true);
    }
}

/// Poisons the barrier when the thread holding it unwinds, so a panic in
/// one shard (a component assert, a horizon violation) ends the run
/// instead of leaving the other shards at the barrier forever.
struct PoisonOnUnwind<'a>(&'a Barrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// How one shard's thread spent its rendezvous, accumulated over every
/// [`ShardedSimulator::run`] of the driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSyncStats {
    /// Windows in which this shard dispatched no event.
    pub idle_windows: u64,
    /// Cross-shard messages this shard put into mailboxes.
    pub messages_sent: u64,
    /// Barrier waits that ended while still spinning.
    pub spin_waits: u64,
    /// Host nanoseconds spent in those waits.
    pub spin_ns: u64,
    /// Barrier waits that ended by being woken from a park.
    pub park_waits: u64,
    /// Host nanoseconds spent in those waits (spin phase included).
    pub park_ns: u64,
}

/// What synchronisation cost the sharded driver, as a standing number
/// (the last shard to arrive at a rendezvous does not wait, so a shard's
/// waits add up to fewer than `windows`). Deliberately *not* part of
/// [`ShardedSimulator::stats`], which must hash like the serial run's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyncStats {
    /// Windows run.
    pub windows: u64,
    /// Events dispatched inside windows, summed over shards.
    pub window_events: u64,
    /// The most events any one window dispatched, summed over shards.
    pub max_window_events: u64,
    /// Trace quiesces: rendezvous at which the shards paused for shard 0
    /// to merge the staged trace records (tracing runs only).
    pub trace_merges: u64,
    /// Per-shard rendezvous behaviour, indexed by shard.
    pub shards: Vec<ShardSyncStats>,
}

impl SyncStats {
    /// Mean events per window (0 when no window ran).
    pub fn mean_window_events(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.window_events as f64 / self.windows as f64
        }
    }

    /// Cross-shard messages carried, summed over shards.
    pub fn mailbox_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.messages_sent).sum()
    }
}

/// What one shard's thread brings back from [`Lockstep::drive`].
struct Driven {
    outcome: RunOutcome,
    sync: ShardSyncStats,
    /// Window totals (`shards` left empty). Every shard computes the same
    /// ones from the published values; the driver keeps shard 0's.
    totals: SyncStats,
}

/// Everything the shard threads of one `run` share.
struct Lockstep<'a> {
    shards: &'a [ShardCell],
    edges: &'a [EdgeSpec],
    mail: &'a Mailboxes,
    barrier: Barrier,
    /// `published[parity][shard]`.
    published: [Vec<Published>; 2],
    delta: Tick,
    until: Tick,
    budget_end: u64,
    tracing: bool,
}

impl Lockstep<'_> {
    /// Drives shard `me` round by round until every shard reaches the
    /// same verdict; `None` when another shard panicked. `merged` is the
    /// global trace ring, handed to shard 0 only.
    fn drive(&self, me: usize, merged: Option<&Tracer>) -> Option<Driven> {
        let _poison = PoisonOnUnwind(&self.barrier);
        let mut waiter = self.barrier.waiter(me);
        let mut totals = SyncStats::default();
        // Last tick of the window this shard just ran: everything it sent
        // must land after it. `None` for the first round, which only
        // exchanges what `init` (or an earlier `run`) left behind.
        let mut ran: Option<Tick> = None;
        let mut events_before = 0u64;
        let mut round = 0usize;
        loop {
            let parity = round & 1;
            {
                // SAFETY: thread `me` is the only one touching shard `me`
                // (ShardCell invariant); the borrow ends before the barrier.
                let sim = unsafe { &mut *self.shards[me].0.get() };
                let mut sent_min = None;
                sim.drain_outbox(|msg| {
                    let edge = self.edges[msg.edge as usize];
                    debug_assert_eq!(edge.from_shard as usize, me, "edge staged on wrong shard");
                    if let Some(last) = ran {
                        assert!(
                            msg.tick > last,
                            "cross-shard message at tick {} inside the window through tick \
                             {last}: the edge's lookahead horizon is wrong",
                            msg.tick,
                        );
                    }
                    sent_min = earliest(sent_min, Some(msg.tick));
                    waiter.stats.messages_sent += 1;
                    self.mail.slot(parity, me, edge.to_shard as usize).push(msg);
                });
                let slot = &self.published[parity][me];
                let next = earliest(sim.next_event_tick(), sent_min);
                slot.has_next.store(next.is_some(), Ordering::Relaxed);
                slot.next.store(next.unwrap_or(0), Ordering::Relaxed);
                slot.events.store(sim.events_processed(), Ordering::Relaxed);
                slot.stop.store(sim.take_stop_request(), Ordering::Relaxed);
                if self.tracing {
                    slot.staged_traces.store(sim.shared.tracer.len(), Ordering::Relaxed);
                }
            }
            self.barrier.wait(&mut waiter).ok()?;

            let (mut t_min, mut events, mut stop, mut staged) = (None, 0u64, false, 0usize);
            for p in &self.published[parity] {
                let next =
                    p.has_next.load(Ordering::Relaxed).then(|| p.next.load(Ordering::Relaxed));
                t_min = earliest(t_min, next);
                events += p.events.load(Ordering::Relaxed);
                stop |= p.stop.load(Ordering::Relaxed);
                staged += p.staged_traces.load(Ordering::Relaxed);
            }
            if round > 0 {
                let dispatched = events - events_before;
                totals.windows += 1;
                totals.window_events += dispatched;
                totals.max_window_events = totals.max_window_events.max(dispatched);
            }
            events_before = events;

            if staged >= TRACE_MERGE_BATCH {
                // Trace quiesce: every shard saw the same sum, so every
                // shard is here; only shard 0 works until the crossing.
                totals.trace_merges += 1;
                if let Some(ring) = merged {
                    // SAFETY: ShardCell invariant, trace quiesce — the
                    // other threads touch nothing until the barrier below.
                    merge_traces(
                        self.shards.iter().map(|c| unsafe { &(*c.0.get()).shared.tracer }),
                        ring,
                    );
                }
                self.barrier.wait(&mut waiter).ok()?;
            }

            // SAFETY: as above — shard `me` belongs to thread `me`.
            let sim = unsafe { &mut *self.shards[me].0.get() };
            for src in (0..self.shards.len()).filter(|&src| src != me) {
                for msg in self.mail.slot(parity, src, me).drain(..) {
                    sim.push_keyed(msg.tick, msg.order, self.edges[msg.edge as usize].dest, msg.ev);
                }
            }
            let outcome = match t_min {
                _ if stop => RunOutcome::Stopped,
                None => RunOutcome::QueueEmpty,
                Some(t) if t > self.until => RunOutcome::TimeLimit,
                Some(_) if events >= self.budget_end => RunOutcome::EventLimit,
                Some(t) => {
                    // The window `[t, t + Δ)`, by its last tick.
                    let last = t.saturating_add(self.delta - 1).min(self.until);
                    let before = sim.events_processed();
                    sim.run_window(last);
                    waiter.stats.idle_windows += u64::from(sim.events_processed() == before);
                    ran = Some(last);
                    round += 1;
                    continue;
                }
            };
            return Some(Driven { outcome, sync: waiter.stats, totals });
        }
    }
}

/// The earlier of two optional ticks; `None` only when both are.
fn earliest(a: Option<Tick>, b: Option<Tick>) -> Option<Tick> {
    a.into_iter().chain(b).min()
}

/// K-way-merges the staged trace records of `staged` (one tracer per
/// shard, in shard order) into the global ring in serial record order.
/// Each shard's stream is already in its local dispatch order, and the
/// fused run's dispatch order restricted to one shard's events *is* that
/// local order — so the merge must never reorder within a stream. It only
/// picks between the streams' current heads by `(at, stamp)`, exactly the
/// fused calendar's pop key. Because every stream is sorted by `at` and a
/// window's records all lie below the next window's, merging at any set
/// of window boundaries yields the same ring as merging once at the end.
///
/// A global sort by `(at, stamp)` would be wrong: a zero-delay push
/// minted mid-tick can carry a numerically smaller stamp (another
/// component's counter) than a dispatch that already ran at that tick.
/// The serial run pops it later — it was not in the calendar yet — but
/// a sort would move it earlier. Head-only comparison is immune: the
/// late push sits behind its pusher in the same shard's stream.
///
/// Head ties are broken by the recording component id; across shards
/// they only occur for stamp-0 `init` records, which the serial run
/// emits in component order.
fn merge_traces<'a>(staged: impl Iterator<Item = &'a Tracer>, ring: &Tracer) {
    let mut streams: Vec<std::vec::IntoIter<(TraceEvent, u64)>> =
        staged.map(|t| t.drain_stamped().into_iter()).collect();
    let mut heads: Vec<Option<(TraceEvent, u64)>> = streams.iter_mut().map(|s| s.next()).collect();
    loop {
        let mut best: Option<usize> = None;
        for (i, head) in heads.iter().enumerate() {
            let Some((ev, stamp)) = head else { continue };
            let better = match best {
                None => true,
                Some(b) => {
                    let (bev, bstamp) = heads[b].as_ref().unwrap();
                    (ev.at, *stamp, ev.component.0) < (bev.at, *bstamp, bev.component.0)
                }
            };
            if better {
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        let (ev, stamp) = heads[i].take().unwrap();
        ring.record_stamped(ev, stamp);
        heads[i] = streams[i].next();
    }
}

/// Drives one logical simulation split across N [`Simulation`] shards,
/// bit-identical to running it serially.
pub struct ShardedSimulator {
    shards: Vec<ShardCell>,
    plan: ShardPlan,
    /// Global window width: the minimum lookahead horizon over all cut
    /// edges (`Tick::MAX` when nothing is cut).
    delta: Tick,
    /// Global clock frontier, maintained like [`Simulation::now`].
    now: Tick,
    /// The merged trace ring; per-shard tracers are unbounded staging
    /// buffers drained into this ring (with serial-faithful eviction) at
    /// every trace quiesce and at the end of every `run`.
    tracer: Tracer,
    names: Vec<String>,
    mail: Mailboxes,
    sync: SyncStats,
}

impl ShardedSimulator {
    /// Assembles a driver from per-shard simulations and the plan that
    /// partitioned them. Every shard must carry the full-length arena
    /// (remote slots included) so component ids and fingerprints are
    /// global.
    ///
    /// # Panics
    ///
    /// Panics if the shards disagree on topology fingerprint, the plan's
    /// placement table length doesn't match the arena, or an edge has a
    /// zero horizon.
    pub fn new(shards: Vec<Simulation>, plan: ShardPlan) -> Self {
        assert!(!shards.is_empty(), "at least one shard required");
        let fp = shards[0].topology_fingerprint();
        for s in &shards[1..] {
            assert_eq!(s.topology_fingerprint(), fp, "shards must share the topology");
        }
        let n = shards[0].shared.arena.len();
        assert_eq!(plan.placements.len(), n, "one placement per component");
        let mut delta = Tick::MAX;
        for e in &plan.edges {
            assert!(e.horizon > 0, "cut edge with zero lookahead cannot be synchronized");
            assert!((e.from_shard as usize) < shards.len() && (e.to_shard as usize) < shards.len());
            delta = delta.min(e.horizon);
        }
        let names = shards[0].shared.names.clone();
        // Per-shard tracers are staging buffers: they must never evict on
        // their own, or the merged stream would diverge from the serial
        // ring. Eviction happens once, at the global ring.
        for s in &shards {
            s.shared.tracer.set_capacity(usize::MAX);
        }
        Self {
            mail: Mailboxes::new(shards.len()),
            sync: SyncStats {
                shards: vec![ShardSyncStats::default(); shards.len()],
                ..SyncStats::default()
            },
            shards: shards.into_iter().map(|s| ShardCell(UnsafeCell::new(s))).collect(),
            plan,
            delta,
            now: 0,
            tracer: Tracer::new(),
            names,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Exclusive access to shard `i`'s simulation, for pre-run
    /// attachment and post-run inspection. (`&mut self` proves no worker
    /// is active.)
    pub fn shard_mut(&mut self, i: usize) -> &mut Simulation {
        self.shards[i].0.get_mut()
    }

    fn shard(&self, i: usize) -> &Simulation {
        // SAFETY: shard threads only exist inside `run`, which holds
        // `&mut self`; any `&self` caller is therefore the sole accessor
        // (see ShardCell invariant).
        unsafe { &*self.shards[i].0.get() }
    }

    /// Current simulated time (global frontier).
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Total events dispatched, summed over shards. Cancelled tombstones
    /// never count, so this equals the serial run's number.
    pub fn events_processed(&self) -> u64 {
        (0..self.shards.len()).map(|i| self.shard(i).events_processed()).sum()
    }

    /// Total events still queued across shards.
    pub fn pending_events(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard(i).pending_events()).sum()
    }

    /// Enables structured tracing on every shard (see
    /// [`Simulation::set_trace_mask`]).
    pub fn set_trace_mask(&mut self, mask: u32) {
        self.tracer.set_mask(mask);
        for i in 0..self.shards.len() {
            self.shard_mut(i).set_trace_mask(mask);
        }
    }

    /// Caps the *merged* trace ring at `capacity` events — the same bound
    /// [`Simulation::set_trace_capacity`] would apply serially.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.tracer.set_capacity(capacity);
    }

    /// Drains the merged trace ring, exactly the serial run's
    /// [`Simulation::take_trace`].
    pub fn take_trace(&mut self) -> TraceLog {
        TraceLog {
            events: self.tracer.drain(),
            names: self.names.clone(),
            dropped: self.tracer.dropped(),
        }
    }

    /// Merged statistics from every component, keyed identically to the
    /// serial run (each key is reported by exactly one shard; split links
    /// report disjoint per-end key sets under the shared name).
    pub fn stats(&self) -> StatsSnapshot {
        let mut all = std::collections::BTreeMap::new();
        for i in 0..self.shards.len() {
            all.extend(self.shard(i).stats().into_values());
        }
        StatsSnapshot::from_values(all)
    }

    /// What the window protocol cost so far: windows, events per window,
    /// and how each shard's barrier waits ended. All zero for a
    /// single-shard driver, which never synchronises.
    pub fn sync_stats(&self) -> &SyncStats {
        &self.sync
    }

    /// Runs until every queue drains, `until` is reached, a component
    /// requests a stop, or `max_events` dispatches happen. Semantics
    /// match [`Simulation::run`] except that stop requests and the event
    /// budget are honoured at window granularity (a stop or overrun
    /// inside a window is noticed by every shard at its rendezvous).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any shard (a component assert, or a
    /// cross-shard message that undercuts its edge's lookahead horizon).
    pub fn run(&mut self, until: Tick, max_events: u64) -> RunOutcome {
        let n = self.shards.len();
        if n == 1 {
            // Single shard: plain serial semantics, including exact stop
            // and budget behaviour.
            let outcome = self.shard_mut(0).run(until, max_events);
            self.drain_shard_traces();
            self.now = match outcome {
                RunOutcome::TimeLimit => until,
                _ => self.shard(0).now(),
            };
            return outcome;
        }
        let budget_end = self.events_processed().saturating_add(max_events);
        // Init every shard on the calling thread, before any worker
        // exists — keeps all Rc-held harness state single-threaded here.
        for i in 0..n {
            self.shard_mut(i).ensure_init();
        }
        let lockstep = Lockstep {
            shards: &self.shards,
            edges: &self.plan.edges,
            mail: &self.mail,
            barrier: Barrier::new(n),
            published: std::array::from_fn(|_| (0..n).map(|_| Published::default()).collect()),
            delta: self.delta,
            until,
            budget_end,
            tracing: self.tracer.mask() != 0,
        };
        let tracer = &self.tracer;
        let driven: Vec<Option<Driven>> = std::thread::scope(|scope| {
            let lockstep = &lockstep;
            let workers: Vec<_> =
                (1..n).map(|i| scope.spawn(move || lockstep.drive(i, None))).collect();
            let mut driven = vec![lockstep.drive(0, Some(tracer))];
            for worker in workers {
                // A worker's panic is this run's panic: hand it on with
                // its own message (the scope joins the remaining workers,
                // which the poisoned barrier has already turned around).
                driven.push(worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
            driven
        });
        let driven: Vec<Driven> = driven
            .into_iter()
            .map(|d| d.expect("barrier poisoned although no shard panicked"))
            .collect();
        let outcome = driven[0].outcome;
        debug_assert!(
            driven.iter().all(|d| d.outcome == outcome),
            "shards disagree on the verdict"
        );
        let totals = &driven[0].totals;
        self.sync.windows += totals.windows;
        self.sync.window_events += totals.window_events;
        self.sync.max_window_events = self.sync.max_window_events.max(totals.max_window_events);
        self.sync.trace_merges += totals.trace_merges;
        for (total, d) in self.sync.shards.iter_mut().zip(&driven) {
            total.idle_windows += d.sync.idle_windows;
            total.messages_sent += d.sync.messages_sent;
            total.spin_waits += d.sync.spin_waits;
            total.spin_ns += d.sync.spin_ns;
            total.park_waits += d.sync.park_waits;
            total.park_ns += d.sync.park_ns;
        }
        // The final merge: everything staged since the last trace quiesce.
        self.drain_shard_traces();
        self.now = match outcome {
            RunOutcome::TimeLimit => until,
            _ => (0..n).map(|i| self.shard(i).last_event_tick()).max().unwrap_or(0),
        };
        outcome
    }

    /// Runs until every queue is empty or a component stops the run.
    pub fn run_to_quiesce(&mut self) -> RunOutcome {
        self.run(Tick::MAX, u64::MAX)
    }

    fn drain_shard_traces(&self) {
        // Per-shard rings never evict (unbounded), so any straggler drop
        // counts would indicate a bug; fold them in defensively anyway.
        let mut dropped = 0;
        for i in 0..self.shards.len() {
            dropped += self.shard(i).shared.tracer.dropped();
        }
        self.tracer.add_dropped(dropped);
        merge_traces((0..self.shards.len()).map(|i| &self.shard(i).shared.tracer), &self.tracer);
    }

    /// Serializes the complete dynamic state into the *same* checkpoint
    /// format [`Simulation::checkpoint`] writes — byte-identical to the
    /// checkpoint the serial run would take at this point — by gathering
    /// counters, queue entries, the merged trace ring and component
    /// sections from their owning shards.
    pub fn checkpoint(&mut self) -> Vec<u8> {
        for i in 0..self.shards.len() {
            self.shard_mut(i).ensure_init();
        }
        let n = self.plan.placements.len();
        let mut body = StateWriter::new();
        body.u64(self.shard(0).topology_fingerprint());
        body.u64(self.now);
        body.u64(self.events_processed());
        // Per-component counters: each is incremented by exactly one
        // shard (split links increment disjoint streams per end), so the
        // cross-shard sum reconstructs the serial counter.
        for gid in 0..n {
            let total: u64 = (0..self.shards.len())
                .map(|i| self.shard(i).shared.pkt_counters.borrow()[gid])
                .sum();
            body.u64(total);
        }
        for gid in 0..n {
            for stream in 0..NUM_STREAMS {
                let total: u64 = (0..self.shards.len())
                    .map(|i| self.shard(i).shared.push_counters.borrow()[gid][stream])
                    .sum();
                body.u64(total);
            }
        }
        // Queue entries, globally sorted — the serial calendar's save
        // order. Outboxes and mailboxes are empty between runs (every
        // shard drains its inbox before it acts on a verdict), so the
        // shard queues hold every pending event.
        assert!(
            self.mail.all_empty()
                && (0..self.shards.len()).all(|i| self.shard(i).shared.outbox.borrow().is_empty()),
            "checkpoint with undelivered cross-shard messages"
        );
        let mut entries: Vec<(Tick, u64, Vec<u8>)> = Vec::new();
        for i in 0..self.shards.len() {
            let shared = &self.shard(i).shared;
            shared.queue.borrow().for_each_live(|tick, order, queued| {
                let mut w = StateWriter::new();
                encode_queued(&mut w, queued);
                entries.push((tick, order, w.into_bytes()));
            });
        }
        entries.sort_by_key(|&(tick, order, _)| (tick, order));
        body.usize(entries.len());
        for (tick, order, bytes) in &entries {
            body.u64(*tick);
            body.u64(*order);
            body.append_raw(bytes);
        }
        self.tracer.save_ring(&mut body);
        // Component sections from their owning shards; a split link's
        // section is its two ends' blobs, length-prefixed in end order —
        // exactly what the fused link writes.
        body.usize(n);
        for gid in 0..n {
            body.str(&self.names[gid]);
            let mut section = StateWriter::new();
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    let cell = &self.shard(s as usize).shared.arena[gid];
                    let slot = cell.borrow();
                    let comp = slot.as_ref().expect("placement names an empty slot");
                    comp.save_state(&mut section);
                }
                Placement::Split { end0, end1 } => {
                    for s in [end0, end1] {
                        let cell = &self.shard(s as usize).shared.arena[gid];
                        let slot = cell.borrow();
                        let comp = slot.as_ref().expect("split placement names an empty slot");
                        let mut half = StateWriter::new();
                        comp.save_state(&mut half);
                        section.bytes(&half.into_bytes());
                    }
                }
            }
            body.bytes(&section.into_bytes());
        }
        seal_checkpoint(body.into_bytes())
    }

    /// Applies a checkpoint written by [`Simulation::checkpoint`] or
    /// [`ShardedSimulator::checkpoint`] — under *any* shard count — to
    /// this driver's freshly built shards. Queue entries, counters and
    /// component sections are routed to the shards that own them, so the
    /// run continues bit-for-bit like the saved one.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::restore`]; on error the driver must
    /// be discarded.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let body = open_checkpoint(bytes)?;
        let mut r = StateReader::new(body);
        let fingerprint = r.u64()?;
        let expected = self.shard(0).topology_fingerprint();
        if fingerprint != expected {
            return Err(SnapshotError::TopologyMismatch { stored: fingerprint, expected });
        }
        let now = r.u64()?;
        let events_processed = r.u64()?;
        let n = self.plan.placements.len();
        let mut pkt_counters = Vec::with_capacity(n);
        for _ in 0..n {
            pkt_counters.push(r.u64()?);
        }
        let mut push_counters: Vec<[u64; NUM_STREAMS]> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = [0u64; NUM_STREAMS];
            for c in &mut row {
                *c = r.u64()?;
            }
            push_counters.push(row);
        }
        // Queue entries: decode with the global counter audit, then route
        // each to the shard that dispatches it.
        let mut queues: Vec<CalendarQueue<Queued>> =
            (0..self.shards.len()).map(|_| CalendarQueue::with_cursor(now)).collect();
        read_entries(now, &mut r, |r, tick, order| {
            let action = decode_action(r, order, &pkt_counters, &push_counters)?;
            let queue = &mut queues[self.route_action(&action)?];
            queue.push_restored(tick, order, Queued::from_action(action));
            Ok(())
        })?;
        self.tracer.restore_ring(&mut r)?;
        let count = r.usize()?;
        if count != n {
            return Err(SnapshotError::Corrupt(format!(
                "checkpoint has {count} components, tree has {n}"
            )));
        }
        for gid in 0..n {
            let name = r.str()?;
            if name != self.names[gid] {
                return Err(SnapshotError::Corrupt(format!(
                    "section {name:?} does not match component {:?}",
                    self.names[gid]
                )));
            }
            let section = r.bytes()?;
            let mut sr = StateReader::new(section);
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    self.restore_component(s as usize, gid, &mut sr, &name)?;
                }
                Placement::Split { end0, end1 } => {
                    for s in [end0, end1] {
                        let half = sr.bytes()?;
                        let mut hr = StateReader::new(half);
                        self.restore_component(s as usize, gid, &mut hr, &name)?;
                    }
                }
            }
            sr.finish(&name)?;
        }
        r.finish("sharded simulation")?;
        for (i, queue) in queues.into_iter().enumerate() {
            let sim = self.shard_mut(i);
            *sim.shared.queue.borrow_mut() = queue;
            sim.shared.now.set(now);
            sim.shared.last_event_tick.set(now);
            // The global totals live on shard 0; sums stay correct.
            sim.shared.events_processed.set(if i == 0 { events_processed } else { 0 });
            sim.shared.stop_requested.set(false);
            sim.initialized = true;
        }
        self.distribute_counters(&pkt_counters, &push_counters);
        self.now = now;
        Ok(())
    }

    /// Routes a decoded queue entry to the shard that will dispatch it.
    fn route_action(&self, action: &Action) -> Result<usize, SnapshotError> {
        let gid = action.target.0 as usize;
        let placement = self.plan.placements.get(gid).ok_or_else(|| {
            SnapshotError::Corrupt(format!("event target c{gid} has no placement"))
        })?;
        Ok(match *placement {
            Placement::Shard(s) => s as usize,
            Placement::Split { end0, end1 } => {
                let view = match &action.body {
                    ActionBody::Event(ev) => QueuedFor::Event(ev),
                    ActionBody::Retry { port } => QueuedFor::Retry { port: *port },
                };
                match (self.plan.route_end)(&view) {
                    0 => end0 as usize,
                    _ => end1 as usize,
                }
            }
        })
    }

    fn restore_component(
        &mut self,
        shard: usize,
        gid: usize,
        r: &mut StateReader<'_>,
        name: &str,
    ) -> Result<(), SnapshotError> {
        let sim = self.shard_mut(shard);
        let cell = &sim.shared.arena[gid];
        let mut slot = cell.borrow_mut();
        let comp = slot.as_mut().ok_or_else(|| {
            SnapshotError::Corrupt(format!("placement for {name:?} names an empty slot"))
        })?;
        comp.restore_state(r)?;
        r.finish(name)?;
        Ok(())
    }

    /// Hands each shard the counter values for the components (or split
    /// ends) it owns, zero elsewhere, so future stamps continue the
    /// serial sequences.
    fn distribute_counters(&mut self, pkt: &[u64], push: &[[u64; NUM_STREAMS]]) {
        for i in 0..self.shards.len() {
            let n = pkt.len();
            let sim = self.shard_mut(i);
            let mut pk = sim.shared.pkt_counters.borrow_mut();
            let mut ps = sim.shared.push_counters.borrow_mut();
            pk.clear();
            ps.clear();
            pk.resize(n, 0);
            ps.resize(n, [0; NUM_STREAMS]);
        }
        for gid in 0..pkt.len() {
            match self.plan.placements[gid] {
                Placement::Shard(s) => {
                    let sim = self.shard_mut(s as usize);
                    sim.shared.pkt_counters.borrow_mut()[gid] = pkt[gid];
                    sim.shared.push_counters.borrow_mut()[gid] = push[gid];
                }
                Placement::Split { end0, end1 } => {
                    // Stream `k` belongs to physical end `k`; packet-id
                    // allocation from a link would be ambiguous, so the
                    // link layer never allocates ids (end 0 carries any
                    // residue defensively).
                    let s0 = self.shard_mut(end0 as usize);
                    s0.shared.pkt_counters.borrow_mut()[gid] = pkt[gid];
                    s0.shared.push_counters.borrow_mut()[gid][0] = push[gid][0];
                    let s1 = self.shard_mut(end1 as usize);
                    s1.shared.push_counters.borrow_mut()[gid][1] = push[gid][1];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{Component, RecvResult};
    use crate::packet::Packet;
    use crate::sim::Ctx;
    use crate::trace::TraceCategory;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Fires `remaining` timers `period` apart, emitting a Device trace
    /// record per firing.
    struct Ticker {
        name: String,
        fired: Rc<RefCell<Vec<(Tick, String)>>>,
        remaining: u64,
        period: Tick,
    }
    impl Component for Ticker {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            ctx.schedule(self.period, Event::Timer { kind: 0, data: self.remaining });
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            self.fired.borrow_mut().push((ctx.now(), self.name.clone()));
            ctx.emit(TraceCategory::Device, crate::trace::TraceKind::DmaRead, None, None, data);
            if data > 1 {
                ctx.schedule(self.period, Event::Timer { kind: 0, data: data - 1 });
            }
        }
        fn recv_request(&mut self, _: &mut Ctx<'_>, _: PortId, pkt: Packet) -> RecvResult {
            RecvResult::Refused(pkt)
        }
    }

    fn trivial_route(_: &QueuedFor<'_>) -> u8 {
        0
    }

    /// Sends `parties` threads through `generations` crossings of
    /// `barrier`. Before crossing `g` a thread stores `g + 1` into its own
    /// cell of parity `g & 1` — `Relaxed`, so only the barrier orders it —
    /// and after the crossing it must read `g + 1` from every other
    /// thread's cell of that parity. The double buffering mirrors the
    /// driver's: a thread that is already a generation ahead writes the
    /// other parity, and cannot return to this one before everybody has
    /// crossed again. No sleeps: a missed ordering is a wrong value.
    fn hammer(barrier: &Barrier, generations: u64) -> Vec<Waiter> {
        let parties = barrier.seats.len();
        let cells: [Vec<AtomicU64>; 2] =
            std::array::from_fn(|_| (0..parties).map(|_| AtomicU64::new(0)).collect());
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..parties)
                .map(|me| {
                    let cells = &cells;
                    scope.spawn(move || {
                        let mut waiter = barrier.waiter(me);
                        for g in 0..generations {
                            let row = &cells[(g & 1) as usize];
                            row[me].store(g + 1, Ordering::Relaxed);
                            barrier.wait(&mut waiter).expect("nobody panics");
                            for cell in row {
                                assert_eq!(cell.load(Ordering::Relaxed), g + 1);
                            }
                        }
                        waiter
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().expect("hammer thread")).collect()
        })
    }

    #[test]
    fn barrier_orders_every_generation_when_parking() {
        // Spin budget 0: every wait that is not the last arrival parks.
        let barrier = Barrier::with_spin(3, std::hint::spin_loop, (0, 0));
        let waiters = hammer(&barrier, 100_000);
        assert!(waiters.iter().all(|w| w.stats.spin_waits + w.stats.park_waits <= 100_000));
        assert!(waiters.iter().map(|w| w.stats.park_waits).sum::<u64>() > 0);
    }

    #[test]
    fn barrier_orders_every_generation_when_spinning() {
        // Budget pinned at its maximum: waits end by spin unless the host
        // deschedules the other thread for longer than that.
        let max = Barrier::SPIN_RANGE.1;
        let barrier = Barrier::with_spin(2, std::hint::spin_loop, (max, max));
        let waiters = hammer(&barrier, 100_000);
        assert_eq!(
            waiters.iter().map(|w| w.stats.spin_waits + w.stats.park_waits).sum::<u64>(),
            100_000,
            "exactly one of two parties waits per generation"
        );
    }

    #[test]
    fn poisoned_barrier_turns_every_waiter_around() {
        let barrier = Barrier::with_spin(3, std::hint::spin_loop, (0, 0));
        std::thread::scope(|scope| {
            let barrier = &barrier;
            let waiting: Vec<_> = (0..2)
                .map(|seat| scope.spawn(move || barrier.wait(&mut barrier.waiter(seat)).is_err()))
                .collect();
            // The third party never arrives; it unwinds instead.
            let panicked = scope
                .spawn(|| {
                    let _poison = PoisonOnUnwind(barrier);
                    panic!("shard blew up");
                })
                .join();
            assert!(panicked.is_err());
            for w in waiting {
                assert!(w.join().expect("waiter"), "waiter must see the poison");
            }
        });
        assert!(barrier.wait(&mut barrier.waiter(2)).is_err(), "late arrivals too");
    }

    type FiredLog = Rc<RefCell<Vec<(Tick, String)>>>;

    /// `(remaining, period)` of tickers `a` and `b`.
    type PairSpec = [(u64, Tick); 2];
    const PAIR: PairSpec = [(4, 7), (6, 7)];

    fn ticker(name: &str, fired: &FiredLog, (remaining, period): (u64, Tick)) -> Box<Ticker> {
        Box::new(Ticker { name: name.into(), fired: fired.clone(), remaining, period })
    }

    /// Serial reference: both tickers in one simulation.
    fn serial_pair([a, b]: PairSpec) -> (Simulation, FiredLog) {
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new();
        sim.add(ticker("a", &fired, a));
        sim.add(ticker("b", &fired, b));
        (sim, fired)
    }

    /// Sharded build: each ticker in its own shard, remote slot for the
    /// other, no cut edges (they never talk). Each shard gets its *own*
    /// log — harness `Rc` state must never be shared across shards.
    type SharedLog = Rc<RefCell<Vec<(Tick, String)>>>;

    fn sharded_pair([a, b]: PairSpec) -> (ShardedSimulator, SharedLog, SharedLog) {
        let fired_a: SharedLog = Rc::new(RefCell::new(Vec::new()));
        let fired_b: SharedLog = Rc::new(RefCell::new(Vec::new()));
        let mut s0 = Simulation::new();
        s0.add(ticker("a", &fired_a, a));
        s0.add_remote("b");
        let mut s1 = Simulation::new();
        s1.add_remote("a");
        s1.add(ticker("b", &fired_b, b));
        let plan = ShardPlan {
            placements: vec![Placement::Shard(0), Placement::Shard(1)],
            edges: vec![],
            route_end: trivial_route,
        };
        (ShardedSimulator::new(vec![s0, s1], plan), fired_a, fired_b)
    }

    /// The serial log restricted to one component's firings.
    fn only(log: &SharedLog, name: &str) -> Vec<(Tick, String)> {
        log.borrow().iter().filter(|(_, n)| n == name).cloned().collect()
    }

    #[test]
    fn independent_shards_match_the_serial_run() {
        let (mut serial, _fired_s) = serial_pair(PAIR);
        serial.set_trace_mask(TraceCategory::ALL);
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut sharded, _fa, _fb) = sharded_pair(PAIR);
        sharded.set_trace_mask(TraceCategory::ALL);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);

        assert_eq!(sharded.now(), serial.now());
        assert_eq!(sharded.events_processed(), serial.events_processed());
        let st = serial.take_trace();
        let sh = sharded.take_trace();
        assert_eq!(st.events, sh.events, "merged trace must equal the serial stream");
        assert_eq!(st.dropped, sh.dropped);
        let a: Vec<_> = serial.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect();
        let b: Vec<_> = sharded.stats().iter().map(|(k, v)| (k.to_owned(), v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn time_limited_windows_resume_exactly() {
        let (mut serial, fired_s) = serial_pair(PAIR);
        let (mut sharded, fired_a, fired_b) = sharded_pair(PAIR);
        assert_eq!(serial.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(sharded.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(sharded.now(), serial.now());
        assert_eq!(only(&fired_s, "a"), *fired_a.borrow());
        assert_eq!(only(&fired_s, "b"), *fired_b.borrow());
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.now(), serial.now());
        assert_eq!(only(&fired_s, "a"), *fired_a.borrow());
        assert_eq!(only(&fired_s, "b"), *fired_b.borrow());
    }

    #[test]
    fn an_event_saturated_to_the_end_of_time_fires_as_serially() {
        // `schedule` saturates `now + delay` at `Tick::MAX`: ticker `a`
        // fires once, there, after `b` has finished.
        let spec = [(1, Tick::MAX), (4, 7)];
        let (mut serial, fired_s) = serial_pair(spec);
        let (mut sharded, fired_a, fired_b) = sharded_pair(spec);
        assert_eq!(serial.run(Tick::MAX, u64::MAX), RunOutcome::QueueEmpty);
        assert_eq!(sharded.run(Tick::MAX, u64::MAX), RunOutcome::QueueEmpty);
        assert_eq!(*fired_a.borrow(), [(Tick::MAX, "a".to_owned())]);
        assert_eq!(only(&fired_s, "a"), *fired_a.borrow());
        assert_eq!(only(&fired_s, "b"), *fired_b.borrow());
        assert_eq!((sharded.now(), serial.now()), (Tick::MAX, Tick::MAX));
        assert_eq!(sharded.events_processed(), serial.events_processed());
        assert_eq!(serial.events_processed(), 5);
    }

    /// A pair of components that volley a counter across a cut through
    /// remote_schedule — the kernel-level skeleton of a split link.
    struct Volley {
        name: String,
        edge: u32,
        delay: Tick,
        log: VolleyLog,
        serve: bool,
    }
    impl Component for Volley {
        fn name(&self) -> &str {
            &self.name
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if self.serve {
                ctx.remote_schedule(self.edge, self.delay, 0, Event::Timer { kind: 0, data: 8 });
            }
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
            let Event::Timer { data, .. } = ev else { panic!() };
            self.log.borrow_mut().push((ctx.now(), data));
            ctx.emit(TraceCategory::Device, crate::trace::TraceKind::DmaRead, None, None, data);
            if data > 0 {
                ctx.remote_schedule(
                    self.edge,
                    self.delay,
                    0,
                    Event::Timer { kind: 0, data: data - 1 },
                );
            }
        }
    }

    /// Fires one timer at tick `at` and, if `stop`, asks the run to stop.
    struct Halt {
        at: Option<Tick>,
        stop: bool,
    }
    impl Component for Halt {
        fn name(&self) -> &str {
            "halt"
        }
        fn init(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(at) = self.at {
                ctx.schedule(at, Event::Timer { kind: 0, data: 0 });
            }
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, _: Event) {
            if self.stop {
                ctx.stop();
            }
        }
    }

    type VolleyLog = Rc<RefCell<Vec<(Tick, u64)>>>;

    /// The horizon both volley edges declare.
    const H: Tick = 13;

    /// `east` (shard 0, the calling thread) serves a counter of 8 to
    /// `west` (shard 1, a worker) and they volley it down to 0 over a cut
    /// whose edges declare horizon [`H`]; `delays` is how long after
    /// handling a hop east and west send the next. `halt` lives with
    /// `west`. With both delays at `H` the hops land at `H, 2H, … 9H`.
    fn volley_pair(delays: [Tick; 2], halt: Halt) -> (ShardedSimulator, VolleyLog, VolleyLog) {
        let log_e: VolleyLog = Rc::new(RefCell::new(Vec::new()));
        let log_w: VolleyLog = Rc::new(RefCell::new(Vec::new()));
        let mut s0 = Simulation::new();
        s0.add(Box::new(Volley {
            name: "east".into(),
            edge: 0,
            delay: delays[0],
            log: log_e.clone(),
            serve: true,
        }));
        s0.add_remote("west");
        s0.add_remote("halt");
        let mut s1 = Simulation::new();
        s1.add_remote("east");
        s1.add(Box::new(Volley {
            name: "west".into(),
            edge: 1,
            delay: delays[1],
            log: log_w.clone(),
            serve: false,
        }));
        s1.add(Box::new(halt));
        let plan = ShardPlan {
            placements: vec![Placement::Shard(0), Placement::Shard(1), Placement::Shard(1)],
            edges: vec![
                EdgeSpec { from_shard: 0, to_shard: 1, dest: ComponentId(1), horizon: H },
                EdgeSpec { from_shard: 1, to_shard: 0, dest: ComponentId(0), horizon: H },
            ],
            route_end: trivial_route,
        };
        (ShardedSimulator::new(vec![s0, s1], plan), log_e, log_w)
    }

    const NO_HALT: Halt = Halt { at: None, stop: false };

    #[test]
    fn mailbox_volley_crosses_cuts_at_exact_ticks() {
        let (mut sharded, log_e, log_w) = volley_pair([H, H], NO_HALT);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        let mut got: Vec<(Tick, u64)> = log_e.borrow().clone();
        got.extend(log_w.borrow().iter().copied());
        got.sort_unstable();
        let want: Vec<(Tick, u64)> = (0..9).map(|i| ((i + 1) * H, 8 - i)).collect();
        assert_eq!(got, want, "each hop lands exactly one horizon later");
        assert_eq!(sharded.now(), 9 * H);
        assert_eq!(sharded.events_processed(), 9);
    }

    #[test]
    fn sync_stats_count_windows_messages_and_waits() {
        let (mut sharded, _e, _w) = volley_pair([H, H], NO_HALT);
        let keys_before: Vec<String> = sharded.stats().iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        let sync = sharded.sync_stats().clone();
        // One hop per window; east handles 4 of the 9 hops, west 5.
        assert_eq!((sync.windows, sync.window_events, sync.max_window_events), (9, 9, 1));
        assert_eq!(sync.mean_window_events(), 1.0);
        assert_eq!(sync.mailbox_messages(), 9, "the serve from init plus eight returns");
        assert_eq!(sync.shards.iter().map(|s| s.idle_windows).collect::<Vec<_>>(), [5, 4]);
        assert_eq!(sync.shards.iter().map(|s| s.messages_sent).collect::<Vec<_>>(), [5, 4]);
        // Ten rendezvous; at each, exactly one of the two shards waits.
        let waits: u64 = sync.shards.iter().map(|s| s.spin_waits + s.park_waits).sum();
        assert_eq!(waits, 10);
        // The instrumentation stays out of `stats()`, whose hash must
        // match the serial run's.
        let keys_after: Vec<String> = sharded.stats().iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys_before, keys_after);
    }

    #[test]
    fn trace_merged_mid_run_equals_the_serial_stream() {
        // TRACE_MERGE_BATCH is 4 under cfg(test): the nine records are
        // merged by trace quiesces during the run, not only at its end.
        let (mut sharded, _e, _w) = volley_pair([H, H], NO_HALT);
        sharded.set_trace_mask(TraceCategory::ALL);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert!(sharded.sync_stats().trace_merges >= 2, "{:?}", sharded.sync_stats());
        let trace = sharded.take_trace();
        assert_eq!(trace.dropped, 0);
        // Serially the hops alternate west, east, … in tick order.
        let got: Vec<(Tick, u32, u64)> =
            trace.events.iter().map(|e| (e.at, e.component.0, e.arg)).collect();
        let want: Vec<(Tick, u32, u64)> =
            (0..9).map(|i| ((i + 1) * H, ((i + 1) % 2) as u32, 8 - i)).collect();
        assert_eq!(got, want);
    }

    /// A cut edge that promises more lookahead than its link delivers must
    /// fail the run with the horizon message — raised on the thread that
    /// sent the message, here a worker — and must not leave the other
    /// shard at the barrier.
    #[test]
    #[should_panic(expected = "lookahead horizon is wrong")]
    fn overstated_horizon_on_a_worker_panics_instead_of_hanging() {
        // The serve from init lands at tick 5 and passes (no window has
        // run); west answers at 5 + 5 = 10, inside the window [5, 18).
        let (mut sharded, _e, _w) = volley_pair([5, 5], NO_HALT);
        sharded.run_to_quiesce();
    }

    /// The same on the calling thread, whose unwinding must turn the
    /// worker around before the scope can join it.
    #[test]
    #[should_panic(expected = "lookahead horizon is wrong")]
    fn overstated_horizon_on_the_caller_panics_instead_of_hanging() {
        // West is honest (5 + 13 = 18, the end of [5, 18)); east answers
        // at 18 + 5 = 23, inside the window [18, 31).
        let (mut sharded, _e, _w) = volley_pair([5, H], NO_HALT);
        sharded.run_to_quiesce();
    }

    /// Both shards' clocks after a run that ended on a window boundary.
    fn shard_clocks(sharded: &mut ShardedSimulator) -> [Tick; 2] {
        [sharded.shard_mut(0).now(), sharded.shard_mut(1).now()]
    }

    #[test]
    fn stop_inside_a_window_is_seen_by_every_shard_at_one_rendezvous() {
        // `halt` stops at tick 40, inside the window [39, 52) in which
        // west also handles the hop at 39.
        let (mut sharded, _e, _w) = volley_pair([H, H], Halt { at: Some(40), stop: true });
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::Stopped);
        assert_eq!(shard_clocks(&mut sharded), [51, 51], "both shards ran the same last window");
        assert_eq!(sharded.events_processed(), 4);
        assert_eq!(sharded.pending_events(), 1, "the hop sent at 39 sits in east's queue");
        // Resumed, the run quiesces where the uninterrupted one does.
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.now(), 9 * H);
        assert_eq!(sharded.events_processed(), 10);
    }

    #[test]
    fn event_budget_overrun_is_seen_by_every_shard_at_one_rendezvous() {
        // A budget of 3 is overrun inside the window [39, 52), which
        // dispatches the third and the fourth event (hop and halt timer).
        let (mut sharded, _e, _w) = volley_pair([H, H], Halt { at: Some(40), stop: false });
        assert_eq!(sharded.run(Tick::MAX, 3), RunOutcome::EventLimit);
        assert_eq!(shard_clocks(&mut sharded), [51, 51], "both shards ran the same last window");
        assert_eq!(sharded.events_processed(), 4);
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(sharded.now(), 9 * H);
        assert_eq!(sharded.events_processed(), 10);
    }

    #[test]
    fn sharded_checkpoint_round_trips_through_serial_format() {
        // Checkpoint an independent-pair sharded run mid-flight and
        // restore it into a *serial* simulation: the bytes must be
        // accepted and the continuation must match.
        let (mut sharded, _fa, _fb) = sharded_pair(PAIR);
        assert_eq!(sharded.run(20, u64::MAX), RunOutcome::TimeLimit);
        let snap = sharded.checkpoint();

        let (mut serial, fired_s) = serial_pair(PAIR);
        serial.restore(&snap).expect("serial restore of a sharded checkpoint");
        assert_eq!(serial.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut reference, fired_r) = serial_pair(PAIR);
        assert_eq!(reference.run(20, u64::MAX), RunOutcome::TimeLimit);
        fired_r.borrow_mut().clear();
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        assert_eq!(*fired_s.borrow(), *fired_r.borrow());
        assert_eq!(serial.now(), reference.now());
        assert_eq!(serial.events_processed(), reference.events_processed());

        // And the serial checkpoint at the same point is byte-identical.
        let (mut serial2, _f) = serial_pair(PAIR);
        assert_eq!(serial2.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(serial2.checkpoint(), snap, "sharded checkpoint must match serial bytes");
    }

    #[test]
    fn restore_routes_entries_to_owning_shards() {
        let (mut serial, _f) = serial_pair(PAIR);
        assert_eq!(serial.run(20, u64::MAX), RunOutcome::TimeLimit);
        let snap = serial.checkpoint();

        let (mut sharded, fired_a, fired_b) = sharded_pair(PAIR);
        sharded.restore(&snap).expect("sharded restore of a serial checkpoint");
        assert_eq!(sharded.run_to_quiesce(), RunOutcome::QueueEmpty);

        let (mut reference, fired_r) = serial_pair(PAIR);
        assert_eq!(reference.run(20, u64::MAX), RunOutcome::TimeLimit);
        assert_eq!(reference.run_to_quiesce(), RunOutcome::QueueEmpty);
        let tail = |name: &str| -> Vec<(Tick, String)> {
            only(&fired_r, name).into_iter().filter(|(t, _)| *t > 20).collect()
        };
        assert_eq!(*fired_a.borrow(), tail("a"));
        assert_eq!(*fired_b.borrow(), tail("b"));
        assert_eq!(sharded.now(), reference.now());
        assert_eq!(sharded.events_processed(), reference.events_processed());
    }
}
