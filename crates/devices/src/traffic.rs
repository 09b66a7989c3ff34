//! Deterministic open-loop traffic generation and binary trace replay.
//!
//! The heavy-traffic experiments need a medium-side source that can offer
//! millions of flows at controlled load without closing the loop through
//! the driver: frames arrive on a schedule of their own, and the system
//! either keeps up or drops. Everything here is integer-seeded and
//! deterministic — the same [`TrafficConfig`] always produces the same
//! frame sequence, bit for bit, so experiments fingerprint cleanly and a
//! recorded trace replays identically to live generation.
//!
//! Three pieces:
//!
//! * [`TrafficGen`] — a splitmix64-seeded streaming generator: per frame
//!   it draws a flow (uniform over [`TrafficConfig::flows`]), a size
//!   (fixed or bounded-Pareto heavy tail), and an inter-arrival gap
//!   (periodic, Poisson, or bursty);
//! * the **trace codec** ([`record_trace`] / [`TraceCursor`]) — a compact
//!   binary format (magic + header + LEB128 varints per frame) holding
//!   any frame sequence, generated or hand-built;
//! * [`TrafficFeed`] — the uniform pull interface the NIC consumes:
//!   either a live generator or a trace cursor, with O(frames) restore by
//!   replaying the emitted-count prefix.

use std::sync::Arc;

use pcisim_kernel::component::Event;
use pcisim_kernel::sim::Ctx;
use pcisim_kernel::tick::Tick;

/// Magic bytes opening a binary traffic trace ("PTRC").
pub const TRACE_MAGIC: u32 = 0x4352_5450;
/// Current trace format version.
pub const TRACE_VERSION: u16 = 1;

/// The splitmix64 PRNG: tiny state, full 64-bit period, deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splitmix64(u64);

impl Splitmix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next draw mapped to the open unit interval `(0, 1]` (53-bit
    /// mantissa; never exactly zero, so `ln` is always finite).
    pub fn next_unit(&mut self) -> f64 {
        let bits = self.next_u64() >> 11; // 53 significant bits
        (bits + 1) as f64 * (1.0 / 9_007_199_254_740_992.0) // 2^-53
    }
}

/// Frame size distribution. Parameters are integers so configs stay
/// `Eq`/hashable; heavy-tailed sampling happens at draw time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDist {
    /// Every frame `0` bytes long.
    Fixed(u32),
    /// Bounded Pareto on `[min, max]` with shape `alpha_milli / 1000`
    /// (e.g. 1300 models the classic heavy-tailed internet mix: mostly
    /// minimum-size frames with a fat tail of full-size ones).
    Pareto {
        /// Smallest frame, bytes.
        min: u32,
        /// Largest frame, bytes.
        max: u32,
        /// Shape parameter in thousandths (1300 = alpha 1.3).
        alpha_milli: u32,
    },
}

impl SizeDist {
    fn sample(&self, rng: &mut Splitmix64) -> u32 {
        match *self {
            SizeDist::Fixed(bytes) => bytes,
            SizeDist::Pareto { min, max, alpha_milli } => {
                let (lo, hi) = (min.max(1) as f64, max.max(min.max(1)) as f64);
                let alpha = (alpha_milli.max(1) as f64) / 1000.0;
                // Bounded-Pareto inverse CDF:
                // x = L / (1 - u·(1 - (L/H)^a))^(1/a)
                let u = rng.next_unit();
                let ratio = (lo / hi).powf(alpha);
                let x = lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                (x as u32).clamp(min, max)
            }
        }
    }
}

/// Inter-arrival process of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// A fixed gap between consecutive frames.
    Periodic(Tick),
    /// Poisson arrivals: exponential inter-arrival times with this mean.
    Poisson(Tick),
    /// On/off bursts: `burst` frames spaced `spacing` apart, then a `gap`
    /// before the next burst.
    Bursty {
        /// Frames per burst.
        burst: u32,
        /// Gap between frames inside a burst.
        spacing: Tick,
        /// Gap between the last frame of a burst and the first of the next.
        gap: Tick,
    },
}

impl ArrivalProcess {
    /// Mean inter-arrival gap, for offered-load accounting.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            ArrivalProcess::Periodic(gap) | ArrivalProcess::Poisson(gap) => gap as f64,
            ArrivalProcess::Bursty { burst, spacing, gap } => {
                let b = burst.max(1) as f64;
                ((b - 1.0) * spacing as f64 + gap as f64) / b
            }
        }
    }
}

/// Full description of one deterministic traffic stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficConfig {
    /// PRNG seed; same seed, same stream.
    pub seed: u64,
    /// Distinct flow identifiers frames draw from (uniformly). Millions
    /// are fine — no per-flow state exists anywhere.
    pub flows: u32,
    /// Total frames the stream delivers.
    pub frames: u32,
    /// Frame size distribution.
    pub size: SizeDist,
    /// Arrival process.
    pub arrival: ArrivalProcess,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            flows: 1024,
            frames: 1024,
            size: SizeDist::Fixed(1514),
            arrival: ArrivalProcess::Periodic(pcisim_kernel::tick::us(1)),
        }
    }
}

/// One generated frame: the gap since the previous frame, its flow, and
/// its size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEvent {
    /// Inter-arrival gap from the previous frame (or from stream start).
    pub delta: Tick,
    /// Flow identifier (feeds the NIC's RSS hash).
    pub flow: u32,
    /// Frame length in bytes.
    pub bytes: u32,
}

/// Streaming frame generator over a [`TrafficConfig`].
#[derive(Debug, Clone)]
pub struct TrafficGen {
    config: TrafficConfig,
    rng: Splitmix64,
    emitted: u32,
    burst_pos: u32,
}

impl TrafficGen {
    /// Starts the stream from frame zero.
    pub fn new(config: TrafficConfig) -> Self {
        Self { config, rng: Splitmix64::new(config.seed), emitted: 0, burst_pos: 0 }
    }

    /// Frames produced so far.
    pub fn emitted(&self) -> u32 {
        self.emitted
    }

    /// Next frame, or `None` once `frames` have been produced.
    pub fn next_frame(&mut self) -> Option<FrameEvent> {
        if self.emitted >= self.config.frames {
            return None;
        }
        // Fixed draw order per frame: flow, size, gap.
        let flow = if self.config.flows <= 1 {
            0
        } else {
            (self.rng.next_u64() % u64::from(self.config.flows)) as u32
        };
        let bytes = self.config.size.sample(&mut self.rng);
        let delta = match self.config.arrival {
            ArrivalProcess::Periodic(gap) => gap,
            ArrivalProcess::Poisson(mean) => {
                let u = self.rng.next_unit();
                // -ln(u) <= 53·ln2 ≈ 36.7, so the product stays far from
                // the u64 boundary for any sane mean.
                (-u.ln() * mean as f64) as Tick
            }
            ArrivalProcess::Bursty { burst, spacing, gap } => {
                let pos = self.burst_pos;
                self.burst_pos = (self.burst_pos + 1) % burst.max(1);
                if pos == 0 {
                    gap
                } else {
                    spacing
                }
            }
        };
        self.emitted += 1;
        Some(FrameEvent { delta, flow, bytes })
    }
}

// --- binary trace codec ------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one canonical LEB128 `u64`, the form [`push_varint`] writes.
/// `None` for a truncated varint and for any other encoding of a value:
/// a zero final group after the first byte (over-long), a 10th byte
/// carrying more than bit 63, or an 11th byte.
fn read_varint(data: &[u8], offset: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*offset)?;
        *offset += 1;
        if (shift > 0 && byte == 0) || (shift == 63 && byte > 1) {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    unreachable!("a 10th byte either ends the varint or is rejected")
}

/// Serializes a frame sequence into the binary trace format:
/// `magic:u32 version:u16 reserved:u16 frames:u32`, then per frame the
/// LEB128 varints `delta`, `flow`, `bytes`.
pub fn encode_trace(frames: &[FrameEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + frames.len() * 4);
    out.extend_from_slice(&TRACE_MAGIC.to_le_bytes());
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(frames.len() as u32).to_le_bytes());
    for f in frames {
        push_varint(&mut out, f.delta);
        push_varint(&mut out, u64::from(f.flow));
        push_varint(&mut out, u64::from(f.bytes));
    }
    out
}

/// Runs a generator to completion and records the whole stream as a
/// binary trace. Replaying the result is bit-identical to generating
/// live from the same config.
pub fn record_trace(config: &TrafficConfig) -> Vec<u8> {
    let mut gen = TrafficGen::new(*config);
    let mut frames = Vec::with_capacity(config.frames as usize);
    while let Some(f) = gen.next_frame() {
        frames.push(f);
    }
    encode_trace(&frames)
}

/// Streaming reader over an encoded trace.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    data: Arc<Vec<u8>>,
    offset: usize,
    total: u32,
    emitted: u32,
}

impl TraceCursor {
    /// Opens a trace, validating the header.
    pub fn new(data: Arc<Vec<u8>>) -> Result<Self, String> {
        if data.len() < 12 {
            return Err(format!("trace too short: {} bytes", data.len()));
        }
        let magic = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        if magic != TRACE_MAGIC {
            return Err(format!("bad trace magic {magic:#010x}"));
        }
        let version = u16::from_le_bytes(data[4..6].try_into().expect("2 bytes"));
        if version != TRACE_VERSION {
            return Err(format!("unsupported trace version {version}"));
        }
        let total = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        Ok(Self { data, offset: 12, total, emitted: 0 })
    }

    /// Frames the trace holds in total.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Frames read so far.
    pub fn emitted(&self) -> u32 {
        self.emitted
    }

    /// Next frame, or `None` at end of trace. A truncated or malformed
    /// body also ends the stream: a varint [`encode_trace`] would not have
    /// written, or a `flow` or `bytes` past `u32::MAX`. (The header count
    /// is the source of truth for honesty checks via
    /// [`TraceCursor::total`].)
    pub fn next_frame(&mut self) -> Option<FrameEvent> {
        if self.emitted >= self.total {
            return None;
        }
        let mut off = self.offset;
        let delta = read_varint(&self.data, &mut off)?;
        let flow = u32::try_from(read_varint(&self.data, &mut off)?).ok()?;
        let bytes = u32::try_from(read_varint(&self.data, &mut off)?).ok()?;
        self.offset = off;
        self.emitted += 1;
        Some(FrameEvent { delta, flow, bytes })
    }
}

/// Where a NIC's receive traffic comes from: a live generator or a
/// recorded trace. `Arc` keeps multi-megabyte traces shared across sweep
/// clones instead of copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficSpec {
    /// Generate frames live from the config.
    Generate(TrafficConfig),
    /// Replay a recorded binary trace.
    Replay(Arc<Vec<u8>>),
}

impl TrafficSpec {
    /// Total frames the spec will deliver.
    pub fn frames(&self) -> u32 {
        match self {
            TrafficSpec::Generate(cfg) => cfg.frames,
            TrafficSpec::Replay(data) => {
                TraceCursor::new(data.clone()).map(|c| c.total()).unwrap_or(0)
            }
        }
    }
}

/// The uniform pull interface over either spec variant.
#[derive(Debug, Clone)]
pub enum TrafficFeed {
    /// Live generation.
    Gen(TrafficGen),
    /// Trace replay.
    Replay(TraceCursor),
}

impl TrafficFeed {
    /// Opens a feed at frame zero.
    ///
    /// # Panics
    ///
    /// Panics when a replay spec holds a malformed trace — a config
    /// error, not a runtime condition.
    pub fn new(spec: &TrafficSpec) -> Self {
        match spec {
            TrafficSpec::Generate(cfg) => TrafficFeed::Gen(TrafficGen::new(*cfg)),
            TrafficSpec::Replay(data) => {
                TrafficFeed::Replay(TraceCursor::new(data.clone()).expect("valid traffic trace"))
            }
        }
    }

    /// Re-opens a feed and deterministically skips the first `emitted`
    /// frames (checkpoint restore: the stream state is fully described
    /// by its prefix length).
    pub fn resume(spec: &TrafficSpec, emitted: u32) -> Self {
        let mut feed = Self::new(spec);
        for _ in 0..emitted {
            feed.next_frame();
        }
        feed
    }

    /// Frames produced so far.
    pub fn emitted(&self) -> u32 {
        match self {
            TrafficFeed::Gen(g) => g.emitted(),
            TrafficFeed::Replay(c) => c.emitted(),
        }
    }

    /// Next frame, or `None` at stream end.
    pub fn next_frame(&mut self) -> Option<FrameEvent> {
        match self {
            TrafficFeed::Gen(g) => g.next_frame(),
            TrafficFeed::Replay(c) => c.next_frame(),
        }
    }

    /// Pulls the next frame and schedules its arrival at the calling
    /// device as `Event::Timer { kind, data }`. The frame itself rides in
    /// the timer's data word (decode it with [`Self::unpack_frame`]), so a
    /// checkpoint taken between pull and arrival stays consistent: the
    /// kernel snapshots the pending event, the feed only its position.
    pub(crate) fn schedule_next(&mut self, ctx: &mut Ctx<'_>, kind: u32) {
        if let Some(frame) = self.next_frame() {
            let data = pack_traffic_frame(frame.flow, frame.bytes);
            ctx.schedule(frame.delta, Event::Timer { kind, data });
        }
    }

    /// `(flow, bytes)` of the frame a [`Self::schedule_next`] timer carries.
    pub(crate) fn unpack_frame(data: u64) -> (u32, u32) {
        (data as u32, (data >> 32) as u32)
    }
}

/// Packs a traffic frame into a timer's `data` word: flow in the low 32
/// bits, frame bytes in the high 32.
fn pack_traffic_frame(flow: u32, bytes: u32) -> u64 {
    u64::from(flow) | (u64::from(bytes) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcisim_kernel::tick::{ns, us};

    fn heavy_config() -> TrafficConfig {
        TrafficConfig {
            seed: 0xfeed_beef,
            flows: 1_000_000,
            frames: 4096,
            size: SizeDist::Pareto { min: 64, max: 1514, alpha_milli: 1300 },
            arrival: ArrivalProcess::Poisson(ns(800)),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = TrafficGen::new(heavy_config());
        let mut b = TrafficGen::new(heavy_config());
        loop {
            let (fa, fb) = (a.next_frame(), b.next_frame());
            assert_eq!(fa, fb);
            if fa.is_none() {
                break;
            }
        }
        assert_eq!(a.emitted(), 4096);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TrafficGen::new(heavy_config());
        let mut b = TrafficGen::new(TrafficConfig { seed: 2, ..heavy_config() });
        let fa: Vec<_> = std::iter::from_fn(|| a.next_frame()).take(64).collect();
        let fb: Vec<_> = std::iter::from_fn(|| b.next_frame()).take(64).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn pareto_sizes_stay_bounded_and_spread() {
        let mut gen = TrafficGen::new(heavy_config());
        let mut small = 0u32;
        let mut large = 0u32;
        while let Some(f) = gen.next_frame() {
            assert!((64..=1514).contains(&f.bytes), "size {} out of bounds", f.bytes);
            if f.bytes < 128 {
                small += 1;
            }
            if f.bytes > 1000 {
                large += 1;
            }
        }
        assert!(small > large, "heavy tail: most frames near the minimum");
        assert!(large > 0, "but the tail must reach large frames");
    }

    #[test]
    fn poisson_gaps_average_near_the_mean() {
        let mean = ns(800);
        let config = TrafficConfig {
            frames: 8192,
            arrival: ArrivalProcess::Poisson(mean),
            ..heavy_config()
        };
        let mut gen = TrafficGen::new(config);
        let mut sum = 0u64;
        while let Some(f) = gen.next_frame() {
            sum += f.delta;
        }
        let avg = sum as f64 / 8192.0;
        assert!((avg - mean as f64).abs() < mean as f64 * 0.1, "avg gap {avg} vs mean {mean}");
    }

    #[test]
    fn bursty_alternates_spacing_and_gap() {
        let config = TrafficConfig {
            frames: 8,
            arrival: ArrivalProcess::Bursty { burst: 4, spacing: ns(10), gap: us(5) },
            ..TrafficConfig::default()
        };
        let mut gen = TrafficGen::new(config);
        let deltas: Vec<Tick> = std::iter::from_fn(|| gen.next_frame()).map(|f| f.delta).collect();
        assert_eq!(deltas[0], us(5));
        assert_eq!(&deltas[1..4], &[ns(10), ns(10), ns(10)]);
        assert_eq!(deltas[4], us(5));
    }

    #[test]
    fn record_then_replay_is_bit_identical_to_live() {
        let config = heavy_config();
        let trace = record_trace(&config);
        let mut live = TrafficFeed::new(&TrafficSpec::Generate(config));
        let mut replay = TrafficFeed::new(&TrafficSpec::Replay(Arc::new(trace)));
        loop {
            let (a, b) = (live.next_frame(), replay.next_frame());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn recording_twice_yields_identical_bytes() {
        let config = heavy_config();
        assert_eq!(record_trace(&config), record_trace(&config));
    }

    #[test]
    fn resume_skips_exactly_the_prefix() {
        let spec = TrafficSpec::Generate(heavy_config());
        let mut full = TrafficFeed::new(&spec);
        for _ in 0..100 {
            full.next_frame();
        }
        let mut resumed = TrafficFeed::resume(&spec, 100);
        assert_eq!(resumed.emitted(), 100);
        loop {
            let (a, b) = (full.next_frame(), resumed.next_frame());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(TraceCursor::new(Arc::new(vec![1, 2, 3])).is_err(), "short");
        let mut bad_magic = encode_trace(&[]);
        bad_magic[0] ^= 0xff;
        assert!(TraceCursor::new(Arc::new(bad_magic)).is_err(), "magic");
        let mut bad_version = encode_trace(&[]);
        bad_version[4] = 0x7f;
        assert!(TraceCursor::new(Arc::new(bad_version)).is_err(), "version");
    }

    #[test]
    fn varints_round_trip_extremes() {
        let frames = [
            FrameEvent { delta: 0, flow: 0, bytes: 0 },
            FrameEvent { delta: u64::MAX, flow: u32::MAX, bytes: u32::MAX },
            FrameEvent { delta: 127, flow: 128, bytes: 16_383 },
        ];
        let mut cursor = TraceCursor::new(Arc::new(encode_trace(&frames))).expect("valid");
        for f in frames {
            assert_eq!(cursor.next_frame(), Some(f));
        }
        assert_eq!(cursor.next_frame(), None);
    }

    /// Every frame a cursor over `data` yields and the offset it stopped
    /// at; `None` when the header is rejected.
    fn read_all(data: Vec<u8>) -> Option<(Vec<FrameEvent>, usize)> {
        let mut cursor = TraceCursor::new(Arc::new(data)).ok()?;
        let frames = std::iter::from_fn(|| cursor.next_frame()).collect();
        Some((frames, cursor.offset))
    }

    #[test]
    fn every_truncation_yields_a_prefix_of_the_frames() {
        let trace = record_trace(&TrafficConfig { frames: 48, ..heavy_config() });
        let (full, _) = read_all(trace.clone()).expect("valid");
        assert_eq!(full.len(), 48);
        for len in 0..=trace.len() {
            match read_all(trace[..len].to_vec()) {
                None => assert!(len < 12, "a {len}-byte prefix holds the whole header"),
                Some((frames, _)) => assert_eq!(frames, full[..frames.len()], "prefix {len}"),
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_re_encodes_to_the_bytes_read() {
        let trace = record_trace(&TrafficConfig { frames: 16, ..heavy_config() });
        for bit in 0..trace.len() * 8 {
            let mut flipped = trace.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let Some((frames, end)) = read_all(flipped.clone()) else { continue };
            assert_eq!(encode_trace(&frames)[12..], flipped[12..end], "flip of bit {bit}");
        }
    }

    #[test]
    fn values_past_their_width_end_the_stream() {
        // One frame announced; the body is the three varints given.
        let frames = |body: &[u8]| {
            let mut data = encode_trace(&[]);
            data[8..12].copy_from_slice(&1u32.to_le_bytes());
            data.extend_from_slice(body);
            read_all(data).expect("valid header").0
        };
        let nine_ff = [0xff; 9];
        // The longest legal varint: u64::MAX, whose 10th byte is 0x01.
        let max = [&nine_ff[..], &[0x01, 0, 0]].concat();
        assert_eq!(frames(&max), [FrameEvent { delta: u64::MAX, flow: 0, bytes: 0 }]);
        let tenth_byte_2 = [&nine_ff[..], &[0x02, 0, 0]].concat();
        assert_eq!(frames(&tenth_byte_2), []);
        let eleven_bytes = [&[0x80; 10][..], &[0x01, 0, 0]].concat();
        assert_eq!(frames(&eleven_bytes), []);
        let over_long_zero = [0x80, 0x00, 0, 0];
        assert_eq!(frames(&over_long_zero), []);
        for (flow, bytes) in [(1 << 32, 0), (0, 1 << 32)] {
            let mut body = vec![0];
            push_varint(&mut body, flow);
            push_varint(&mut body, bytes);
            assert_eq!(frames(&body), [], "flow {flow} bytes {bytes}");
        }
    }
}
