//! A simple DRAM / memory-controller terminator.
//!
//! [`Dram`] answers every read/write request that falls in its address range
//! after a fixed access latency plus a bandwidth-serialization term, and
//! bounds the number of in-flight accesses (refusing above it). It stands in
//! for gem5's memory controller + DRAM models: the paper's experiments only
//! need memory to be fast enough never to be the bottleneck, which the
//! defaults guarantee. The timing lives in [`MemoryCore`], and
//! [`BlockStore`] is the sparse byte store behind a functional memory;
//! the CXL expander embeds both behind its HDM decoder.

use std::collections::BTreeMap;

use crate::addr::AddrRange;
use crate::component::{Component, Event, PortId, RecvResult};
use crate::packet::Packet;
use crate::queue::{check_slots, TimedQueue};
use crate::sim::Ctx;
use crate::snapshot::{SnapshotError, State};
use crate::stats::{Counter, StatsBuilder};
use crate::tick::{transfer_time, Tick};
use crate::trace::{TraceCategory, TraceKind};

/// The single port of a [`Dram`].
pub const DRAM_PORT: PortId = PortId(0);

/// Granularity of a [`BlockStore`] in bytes.
const STORE_BLOCK: u64 = 64;

/// Sparse memory contents: 64-byte blocks keyed by their aligned address,
/// created on first write; unwritten bytes read as zero. A `BTreeMap` so
/// checkpoints serialize in address order.
#[derive(Debug, Default, PartialEq)]
pub struct BlockStore(BTreeMap<u64, Vec<u8>>);

impl BlockStore {
    /// The block holding `at`, the offset of `at` in it, and how many of
    /// `left` bytes from `at` fit before the block ends.
    fn split(at: u64, left: usize) -> (u64, usize, usize) {
        let block = at / STORE_BLOCK * STORE_BLOCK;
        let off = (at - block) as usize;
        (block, off, left.min(STORE_BLOCK as usize - off))
    }

    /// Copies `data` into the store at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let (block, off, n) = Self::split(addr + pos as u64, data.len() - pos);
            let buf = self.0.entry(block).or_insert_with(|| vec![0; STORE_BLOCK as usize]);
            buf[off..off + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
    }

    /// Fills `out` from the store at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) {
        let mut pos = 0;
        while pos < out.len() {
            let (block, off, n) = Self::split(addr + pos as u64, out.len() - pos);
            match self.0.get(&block) {
                Some(buf) => out[pos..pos + n].copy_from_slice(&buf[off..off + n]),
                None => out[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }
}

/// The block count, then each `(block, bytes)` pair; a block of the wrong
/// length is [`SnapshotError::Corrupt`].
impl State for BlockStore {
    crate::state_fields!(state self;
        0,
        save(_w) {}
        load(_r) {
            if let Some((block, buf)) = self.0.iter().find(|(_, b)| b.len() != STORE_BLOCK as usize) {
                return Err(SnapshotError::Corrupt(format!(
                    "store block {block:#x} has {} bytes",
                    buf.len()
                )));
            }
        },
    );
}

/// The timing core under every memory. An admitted access holds one of
/// `max_outstanding` slots until its response leaves through [`DRAM_PORT`]
/// (a posted write: until it completes); its transfer serializes behind
/// the previous one on its bank, and it completes the access latency
/// later. `B` holds the banks' busy horizons: `[Tick; 1]` for [`Dram`], so
/// its path stays free of a heap indirection, a `Vec` for the CXL
/// expander. The state fields are public so that each memory checkpoints
/// them in its own order; [`Self::check_restored`] validates them.
#[derive(Debug)]
pub struct MemoryCore<B> {
    latency: Tick,
    bytes_per_sec: u64,
    max_outstanding: usize,
    /// Accesses admitted and not yet answered.
    pub outstanding: usize,
    /// When each bank's last admitted transfer ends.
    pub banks: B,
    /// Responses waiting for the port; owes the port its retry, which
    /// `outstanding`, not this lane, bounds.
    pub resp: TimedQueue,
    /// Admitted reads.
    pub reads: Counter,
    /// Admitted writes.
    pub writes: Counter,
    /// Bytes the admitted accesses move.
    pub bytes: Counter,
}

impl<B: AsMut<[Tick]>> MemoryCore<B> {
    /// A core with the given access latency, per-bank bandwidth in bytes
    /// per second (0 = infinite), in-flight bound and bank horizons.
    pub fn new(latency: Tick, bytes_per_sec: u64, max_outstanding: usize, banks: B) -> Self {
        Self {
            latency,
            bytes_per_sec,
            max_outstanding,
            outstanding: 0,
            banks,
            resp: TimedQueue::unbounded(),
            reads: Counter::new(),
            writes: Counter::new(),
            bytes: Counter::new(),
        }
    }

    /// Gives `pkt` an access slot, or refuses it, owing its sender a retry,
    /// when every slot is taken.
    pub fn admit(&mut self, pkt: Packet) -> Result<Packet, RecvResult> {
        if self.outstanding >= self.max_outstanding {
            return Err(self.resp.refuse(pkt));
        }
        self.outstanding += 1;
        Ok(pkt)
    }

    /// Times an admitted access on `bank`: counts and traces it, serializes
    /// its transfer behind the bank's previous one and schedules
    /// `DelayedPacket { tag: 0, pkt }` for when it completes. Says whether
    /// the access waited for its bank.
    pub fn access(&mut self, ctx: &mut Ctx<'_>, bank: usize, pkt: Packet) -> bool {
        if pkt.cmd().is_read() {
            self.reads.inc();
        } else {
            self.writes.inc();
        }
        self.bytes.add(u64::from(pkt.size()));
        if ctx.tracing(TraceCategory::Fabric) {
            ctx.emit(
                TraceCategory::Fabric,
                TraceKind::DramAccess,
                Some(pkt.id()),
                Some(pkt.cmd()),
                u64::from(pkt.size()),
            );
        }
        let now = ctx.now();
        let busy = &mut self.banks.as_mut()[bank];
        let start = now.max(*busy);
        *busy = start + transfer_time(u64::from(pkt.size()), self.bytes_per_sec);
        ctx.schedule(*busy + self.latency - now, Event::DelayedPacket { tag: 0, pkt });
        start > now
    }

    /// Answers a completed access: a posted request releases its slot; a
    /// read gets its data, which `read` fills from the access address; a
    /// non-posted write gets its completion.
    pub fn respond(&mut self, ctx: &mut Ctx<'_>, pkt: Packet, read: impl FnOnce(u64, &mut [u8])) {
        if pkt.is_posted() {
            self.release(ctx);
            return;
        }
        let resp = if pkt.cmd().is_read() {
            let mut data = vec![0; pkt.size() as usize];
            read(pkt.addr(), &mut data);
            pkt.into_read_response(data)
        } else {
            pkt.into_response()
        };
        self.push(ctx, resp);
    }

    /// Queues a response behind the others and sends what the port takes.
    pub fn push(&mut self, ctx: &mut Ctx<'_>, resp: Packet) {
        self.resp.push(resp);
        self.flush(ctx);
    }

    /// Frees an access slot, granting the owed retry.
    pub fn release(&mut self, ctx: &mut Ctx<'_>) {
        self.outstanding -= 1;
        self.resp.grant_retry(ctx, DRAM_PORT);
    }

    /// Each response that leaves releases its slot.
    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        while self.resp.send_head(ctx, DRAM_PORT).is_some() {
            self.release(ctx);
        }
    }

    /// The port granted its retry: responses may leave again.
    pub fn retry_granted(&mut self, ctx: &mut Ctx<'_>) {
        self.resp.unblock();
        self.flush(ctx);
    }

    /// Reports `reads`, `writes` and `bytes`.
    pub fn report_stats(&self, out: &mut StatsBuilder) {
        out.counter("reads", &self.reads);
        out.counter("writes", &self.writes);
        out.counter("bytes", &self.bytes);
    }

    /// Rejects restored state whose `outstanding` exceeds the bound or does
    /// not cover the responses in the lane.
    pub fn check_restored(&self, name: &str) -> Result<(), SnapshotError> {
        check_slots(name, self.outstanding, self.max_outstanding, self.resp.held())
    }
}

/// Builder for [`Dram`]; see [`Dram::builder`].
#[derive(Debug)]
pub struct DramBuilder(Dram);

impl DramBuilder {
    /// Sets the fixed access latency.
    pub fn latency(mut self, t: Tick) -> Self {
        self.0.core.latency = t;
        self
    }

    /// Sets the sustained bandwidth in bytes per second (0 = infinite).
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.0.core.bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the number of simultaneously in-flight accesses.
    pub fn max_outstanding(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one outstanding access");
        self.0.core.max_outstanding = n;
        self
    }

    /// Makes the memory functional: write payloads are retained in a
    /// [`BlockStore`] and reads return them. The default (timing-only)
    /// memory discards writes and reads back zeroes, which is all the
    /// bandwidth experiments need; virtqueues, whose descriptor rings are
    /// genuinely walked through DMA, require the contents to survive.
    pub fn functional(mut self, yes: bool) -> Self {
        self.0.functional = yes;
        self
    }

    /// Builds the memory model.
    pub fn build(self) -> Dram {
        self.0
    }
}

/// Fixed-latency, bandwidth-limited memory: one bank, writes stored (when
/// functional) at completion.
#[derive(Debug)]
pub struct Dram {
    name: String,
    range: AddrRange,
    core: MemoryCore<[Tick; 1]>,
    functional: bool,
    store: BlockStore,
}

impl Dram {
    /// Starts building a DRAM covering `range`, with a 30 ns latency,
    /// 25.6 GB/s of bandwidth and 32 outstanding accesses.
    pub fn builder(name: impl Into<String>, range: AddrRange) -> DramBuilder {
        DramBuilder(Dram {
            name: name.into(),
            range,
            core: MemoryCore::new(crate::tick::ns(30), 25_600_000_000, 32, [0]),
            functional: false,
            store: BlockStore::default(),
        })
    }
}

impl Component for Dram {
    fn name(&self) -> &str {
        &self.name
    }

    fn recv_request(&mut self, ctx: &mut Ctx<'_>, port: PortId, pkt: Packet) -> RecvResult {
        assert_eq!(port, DRAM_PORT);
        assert!(
            self.range.contains(pkt.addr()),
            "{}: {:#x} outside memory range {}",
            self.name,
            pkt.addr(),
            self.range
        );
        match self.core.admit(pkt) {
            Ok(pkt) => {
                self.core.access(ctx, 0, pkt);
                RecvResult::Accepted
            }
            Err(refused) => refused,
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Event) {
        let Event::DelayedPacket { pkt, .. } = ev else {
            panic!("{}: unexpected timer", self.name)
        };
        if self.functional && pkt.cmd().is_write() {
            if let Some(buf) = pkt.payload() {
                self.store.write(pkt.addr(), buf);
            }
        }
        let store = self.functional.then_some(&self.store);
        self.core.respond(ctx, pkt, |addr, data| {
            if let Some(store) = store {
                store.read(addr, data);
            }
        });
    }

    fn retry_granted(&mut self, ctx: &mut Ctx<'_>, _port: PortId) {
        self.core.retry_granted(ctx);
    }

    fn report_stats(&self, out: &mut StatsBuilder) {
        self.core.report_stats(out);
    }

    crate::state_fields!(component self;
        core.outstanding, core.banks, core.resp, core.reads, core.writes, core.bytes,
        // The store is appended only for functional memories, so
        // timing-only checkpoints carry no store section.
        save(w) {
            if self.functional {
                self.store.save(w);
            }
        }
        load(r) {
            if self.functional {
                self.store.load(r)?;
            }
            self.core.check_restored(&self.name)?;
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentId;
    use crate::packet::{Command, PacketId};
    use crate::sim::{RunOutcome, Simulation};
    use crate::snapshot::{StateReader, StateWriter};
    use crate::testutil::{Requester, REQUESTER_PORT};
    use crate::tick::{ns, us};

    const BASE: u64 = 0x8000_0000;

    fn run_dram(
        script: Vec<(Command, u64, u32)>,
        latency: Tick,
        bw: u64,
    ) -> (Vec<Tick>, crate::stats::StatsSnapshot) {
        let mut sim = Simulation::new();
        let (req, done) = Requester::new("gen", script);
        let r = sim.add(Box::new(req));
        let d = sim.add(Box::new(
            Dram::builder("dram", AddrRange::with_size(BASE, 0x1000_0000))
                .latency(latency)
                .bandwidth(bw)
                .build(),
        ));
        sim.connect((r, REQUESTER_PORT), (d, DRAM_PORT));
        assert_eq!(sim.run_to_quiesce(), RunOutcome::QueueEmpty);
        let times = done.borrow().iter().map(|&(_, t)| t).collect();
        (times, sim.stats())
    }

    #[test]
    fn single_read_takes_latency_plus_transfer() {
        // 64 B at 64 MB/s = 1 us transfer, + 30 ns latency.
        let (t, stats) = run_dram(vec![(Command::ReadReq, BASE, 64)], ns(30), 64_000_000);
        assert_eq!(t, vec![us(1) + ns(30)]);
        assert_eq!(stats.get("dram.reads"), Some(1.0));
        assert_eq!(stats.get("dram.bytes"), Some(64.0));
    }

    #[test]
    fn bandwidth_serializes_but_latency_overlaps() {
        // Two reads: transfers serialize (1 us each), latency pipelines.
        let script = vec![(Command::ReadReq, BASE, 64), (Command::ReadReq, BASE + 64, 64)];
        let (t, _) = run_dram(script, ns(30), 64_000_000);
        assert_eq!(t[0], us(1) + ns(30));
        assert_eq!(t[1], us(2) + ns(30));
    }

    #[test]
    fn infinite_bandwidth_gives_pure_latency() {
        let (t, _) = run_dram(vec![(Command::WriteReq, BASE, 64)], ns(30), 0);
        assert_eq!(t, vec![ns(30)]);
    }

    #[test]
    fn counts_reads_and_writes_separately() {
        let script = vec![
            (Command::ReadReq, BASE, 64),
            (Command::WriteReq, BASE + 64, 64),
            (Command::WriteReq, BASE + 128, 64),
        ];
        let (_, stats) = run_dram(script, ns(30), 0);
        assert_eq!(stats.get("dram.reads"), Some(1.0));
        assert_eq!(stats.get("dram.writes"), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "outside memory range")]
    fn out_of_range_access_panics() {
        let _ = run_dram(vec![(Command::ReadReq, 0x100, 4)], ns(30), 0);
    }

    #[test]
    fn functional_store_roundtrips_unaligned_spans() {
        let mut d =
            Dram::builder("dram", AddrRange::with_size(BASE, 0x1000_0000)).functional(true).build();
        // A write straddling three 64 B blocks, at an unaligned offset.
        let data: Vec<u8> = (0..150u8).collect();
        d.store.write(BASE + 37, &data);
        let mut back = vec![0xAA; 150];
        d.store.read(BASE + 37, &mut back);
        assert_eq!(back, data);
        // Untouched bytes read as zero.
        let mut hole = vec![0xAA; 8];
        d.store.read(BASE + 0x9000, &mut hole);
        assert_eq!(hole, vec![0; 8]);
        // Overlapping rewrite wins.
        d.store.write(BASE + 40, &[0xFF; 4]);
        let mut again = vec![0; 8];
        d.store.read(BASE + 37, &mut again);
        assert_eq!(again, [0, 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 7]);
    }

    #[test]
    fn restore_rejects_outstanding_outside_what_the_core_holds() {
        let dram = || {
            Dram::builder("dram", AddrRange::with_size(BASE, 0x1000_0000))
                .max_outstanding(2)
                .build()
        };
        for held_unclaimed in [false, true] {
            let mut d = dram();
            if held_unclaimed {
                let pkt = Packet::request(PacketId(1), Command::ReadReq, BASE, 4, ComponentId(0));
                d.core.resp.push(pkt.into_read_response(vec![0; 4]));
            } else {
                d.core.outstanding = 3;
            }
            let mut w = StateWriter::new();
            d.save_state(&mut w);
            let bytes = w.into_bytes();
            let err = dram()
                .restore_state(&mut StateReader::new(&bytes))
                .expect_err("outstanding must cover the lane and stay within the bound");
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err:?}");
        }
    }

    #[test]
    fn block_store_survives_the_hostile_bytes_check() {
        let mut store = BlockStore::default();
        store.write(BASE + 0x100, &[1, 2, 3, 4]);
        crate::testutil::check_state_codec(&store, BlockStore::default);
    }
}
