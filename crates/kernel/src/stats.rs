//! Lightweight statistics: counters, histograms, exact latency logs and a
//! snapshot format.
//!
//! Components own their statistics as plain fields and export them through
//! [`Component::report_stats`](crate::component::Component::report_stats)
//! into a [`StatsBuilder`]; the simulation aggregates everything into a
//! [`StatsSnapshot`] that the benchmark harness prints.

use std::collections::BTreeMap;
use std::fmt;

use crate::snapshot::{fnv1a, SnapshotError, State, StateReader, StateWriter, FNV_OFFSET};
use crate::tick::Tick;

/// A monotonically increasing event counter.
///
/// ```
/// use pcisim_kernel::stats::Counter;
/// let mut c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.value(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl State for Counter {
    crate::state_fields!(state self; 0);
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Number of log2 buckets a [`Histogram`] keeps; bucket `i >= 1` holds
/// samples in `[2^(i-1), 2^i)`, bucket 0 holds samples below 1.
const HIST_BUCKETS: usize = 64;

/// A streaming histogram: count, sum, min, max, plus log2-bucketed
/// sample counts for percentile estimation.
///
/// Percentiles carry at most one power-of-two bucket of error (and are
/// clamped to the observed min/max), which is plenty for latency
/// distributions spanning orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0.0, min: None, max: None, buckets: [0; HIST_BUCKETS] }
    }
}

/// The log2 bucket a sample falls in; NaN and everything below 1 land
/// in bucket 0.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        return 0;
    }
    let n = if v >= u64::MAX as f64 { u64::MAX } else { v as u64 };
    ((64 - n.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the samples, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<f64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<f64> {
        self.max
    }

    /// Estimated `q`-quantile (`q` in 0..=1) from the log2 buckets:
    /// the upper edge of the bucket holding the rank-`ceil(q*count)`
    /// sample, clamped to the observed `[min, max]`. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if i >= 63 { u64::MAX as f64 } else { (1u64 << i) as f64 };
                let lo = self.min.unwrap_or(0.0);
                let hi = self.max.unwrap_or(upper);
                return Some(upper.clamp(lo, hi));
            }
        }
        self.max
    }

    /// Estimated median.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }
}

/// Floats travel as raw bit patterns, so accumulated rounding state
/// round-trips bit-exactly.
impl State for Histogram {
    crate::state_fields!(state self; count, sum, min, max, buckets);
}

/// An exact per-op latency log: every sample, in arrival order, held as
/// run-length `(value, count)` runs.
///
/// A stream of equal latencies — a latency-bound probe, an uncontended
/// memory stream — stays one run however long it grows, so memory is
/// O(runs) rather than O(samples), and every query is O(runs).
///
/// ```
/// use pcisim_kernel::stats::Latencies;
/// let mut l = Latencies::default();
/// for t in [5, 5, 5, 9] {
///     l.push(t);
/// }
/// assert_eq!(l.len(), 4);
/// assert_eq!((l.sum(), l.min(), l.max()), (24, Some(5), Some(9)));
/// assert_eq!(l.iter().copied().collect::<Vec<_>>(), [5, 5, 5, 9]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Latencies {
    /// `(sample, repeats)`; no run is empty and adjacent runs differ.
    runs: Vec<(Tick, usize)>,
}

impl Latencies {
    /// Appends one sample.
    #[inline]
    pub fn push(&mut self, t: Tick) {
        self.push_run(t, 1);
    }

    /// Appends every sample of `other`, in its order.
    pub fn extend_from(&mut self, other: &Latencies) {
        for &(t, n) in &other.runs {
            self.push_run(t, n);
        }
    }

    /// Appends `n >= 1` copies of `t`, growing the last run when it holds `t`.
    #[inline]
    fn push_run(&mut self, t: Tick, n: usize) {
        match self.runs.last_mut() {
            Some((last, m)) if *last == t => *m += n,
            _ => self.runs.push((t, n)),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n).sum()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Every sample, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Tick> + '_ {
        self.runs.iter().flat_map(|(t, n)| std::iter::repeat_n(t, *n))
    }

    /// Sum of the samples.
    pub fn sum(&self) -> Tick {
        self.runs.iter().map(|&(t, n)| t * n as Tick).sum()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<Tick> {
        self.runs.iter().map(|&(t, _)| t).min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<Tick> {
        self.runs.iter().map(|&(t, _)| t).max()
    }
}

/// The same bytes a `Vec<Tick>` of the samples writes: the count, then
/// every sample. Loading rebuilds the runs one sample at a time, so no
/// allocation is sized by a length from the stream.
impl State for Latencies {
    fn save(&self, w: &mut StateWriter) {
        w.usize(self.len());
        for &t in self.iter() {
            w.u64(t);
        }
    }

    fn load(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let n = r.usize()?;
        let mut log = Latencies::default();
        for _ in 0..n {
            log.push(r.u64()?);
        }
        *self = log;
        Ok(())
    }
}

/// Collects named statistics from one component.
#[derive(Debug, Default)]
pub struct StatsBuilder {
    scope: String,
    values: BTreeMap<String, f64>,
}

impl StatsBuilder {
    /// Creates a builder scoped to a component name; every key is prefixed
    /// `scope.key`.
    pub fn new(scope: impl Into<String>) -> Self {
        Self { scope: scope.into(), values: BTreeMap::new() }
    }

    /// Records a scalar value.
    pub fn scalar(&mut self, key: &str, v: f64) {
        self.values.insert(format!("{}.{}", self.scope, key), v);
    }

    /// Records a counter.
    pub fn counter(&mut self, key: &str, c: &Counter) {
        self.scalar(key, c.value() as f64);
    }

    /// Records a histogram as `key.count/mean/min/max/p50/p95/p99`.
    pub fn histogram(&mut self, key: &str, h: &Histogram) {
        self.scalar(&format!("{key}.count"), h.count() as f64);
        self.scalar(&format!("{key}.mean"), h.mean());
        if let Some(m) = h.min() {
            self.scalar(&format!("{key}.min"), m);
        }
        if let Some(m) = h.max() {
            self.scalar(&format!("{key}.max"), m);
        }
        if let Some(p) = h.p50() {
            self.scalar(&format!("{key}.p50"), p);
        }
        if let Some(p) = h.p95() {
            self.scalar(&format!("{key}.p95"), p);
        }
        if let Some(p) = h.p99() {
            self.scalar(&format!("{key}.p99"), p);
        }
    }

    pub(crate) fn into_values(self) -> BTreeMap<String, f64> {
        self.values
    }
}

/// Aggregated statistics from every component in a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    values: BTreeMap<String, f64>,
}

impl StatsSnapshot {
    pub(crate) fn from_values(values: BTreeMap<String, f64>) -> Self {
        Self { values }
    }

    /// Looks up a fully-qualified statistic (`component.key`).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Iterates over all `(key, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All keys whose name starts with `prefix`.
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.values
            .iter()
            .filter(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of statistics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Per-key difference `self - earlier`, for interval measurements
    /// (e.g. counters over just the steady-state phase of a run). Keys
    /// missing from `earlier` count from zero; keys only in `earlier`
    /// appear negated.
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let mut values = self.values.clone();
        for (k, v) in &earlier.values {
            *values.entry(k.clone()).or_insert(0.0) -= v;
        }
        StatsSnapshot::from_values(values)
    }

    /// FNV-1a fingerprint over every `(key, value)` pair in name order —
    /// the compact hash the determinism anchors record. Two snapshots with
    /// equal fingerprints agree on every counter in the simulation.
    pub fn fnv(&self) -> u64 {
        self.values
            .iter()
            .fold(FNV_OFFSET, |h, (k, v)| fnv1a(fnv1a(h, k.as_bytes()), &v.to_bits().to_le_bytes()))
    }
}

impl StatsSnapshot {
    /// Serializes the snapshot as a flat JSON object (`{"key": value}`),
    /// for plotting pipelines. Non-finite values become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Keys are component/stat names: no quotes or control chars.
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            if v.is_finite() {
                out.push_str(&format!("{v}"));
            } else {
                out.push_str("null");
            }
        }
        out.push('}');
        out
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.values {
            writeln!(f, "{k:60} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::check_state_codec;
    use proptest::prelude::*;

    /// Pushes from a four-value alphabet, so adjacent repeats form runs.
    fn samples() -> impl Strategy<Value = Vec<Tick>> {
        collection::vec(prop_oneof![Just(0), Just(52_500), Just(518_000), Just(1 << 40)], 0..48)
    }

    fn log_of(samples: &[Tick]) -> Latencies {
        let mut log = Latencies::default();
        for &t in samples {
            log.push(t);
        }
        log
    }

    fn saved(v: &impl State) -> Vec<u8> {
        let mut w = StateWriter::new();
        v.save(&mut w);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The log answers every query exactly as the plain sample vector
        /// does, and checkpoints to the vector's bytes.
        #[test]
        fn latencies_agree_with_a_sample_vec(v in samples()) {
            let log = log_of(&v);
            prop_assert_eq!(log.len(), v.len());
            prop_assert_eq!(log.is_empty(), v.is_empty());
            prop_assert_eq!(log.iter().copied().collect::<Vec<_>>(), v.clone());
            prop_assert_eq!(log.sum(), v.iter().sum::<Tick>());
            prop_assert_eq!(log.min(), v.iter().copied().min());
            prop_assert_eq!(log.max(), v.iter().copied().max());
            let changes = v.windows(2).filter(|w| w[0] != w[1]).count();
            prop_assert_eq!(log.runs.len(), if v.is_empty() { 0 } else { changes + 1 });

            let bytes = saved(&log);
            prop_assert_eq!(&bytes, &saved(&v));
            let mut back = log_of(&[7, 7]);
            let mut r = StateReader::new(&bytes);
            prop_assert_eq!(back.load(&mut r), Ok(()));
            prop_assert_eq!(r.finish("log"), Ok(()));
            prop_assert_eq!(&back, &log);
            for len in 0..bytes.len() {
                let mut cut = Latencies::default();
                let got = cut.load(&mut StateReader::new(&bytes[..len]));
                prop_assert!(matches!(got, Err(SnapshotError::Truncated { .. })), "{len}: {got:?}");
            }
        }

        #[test]
        fn extending_a_log_concatenates_its_samples(a in samples(), b in samples()) {
            let mut log = log_of(&a);
            log.extend_from(&log_of(&b));
            prop_assert_eq!(log, log_of(&[a, b].concat()));
        }
    }

    #[test]
    fn equal_latencies_stay_one_run() {
        let mut log = Latencies::default();
        for _ in 0..1_000_000 {
            log.push(518_000);
        }
        assert_eq!(log.runs, [(518_000, 1_000_000)]);
        assert_eq!(log.len(), 1_000_000);
        assert_eq!(log.sum(), 518_000 * 1_000_000);
    }

    #[test]
    fn latencies_survive_the_hostile_bytes_check() {
        check_state_codec(&log_of(&[3, 3, 9, 3]), Latencies::default);
    }

    #[test]
    fn histogram_survives_the_hostile_bytes_check() {
        let mut h = Histogram::default();
        for v in [0.5, 3.0, 1e9, f64::NAN] {
            h.record(v);
        }
        check_state_codec(&h, Histogram::default);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        assert_eq!(c.value(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.value(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        for v in [4.0, 2.0, 6.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(6.0));
    }

    #[test]
    fn builder_prefixes_scope() {
        let mut b = StatsBuilder::new("link0");
        b.scalar("tlps", 3.0);
        let mut c = Counter::new();
        c.add(7);
        b.counter("acks", &c);
        let snap = StatsSnapshot::from_values(b.into_values());
        assert_eq!(snap.get("link0.tlps"), Some(3.0));
        assert_eq!(snap.get("link0.acks"), Some(7.0));
        assert_eq!(snap.get("acks"), None);
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn snapshot_prefix_filter() {
        let mut b = StatsBuilder::new("sw");
        b.scalar("a", 1.0);
        b.scalar("b", 2.0);
        let snap = StatsSnapshot::from_values(b.into_values());
        let got: Vec<_> = snap.with_prefix("sw.").collect();
        assert_eq!(got.len(), 2);
        assert!(snap.with_prefix("zz").next().is_none());
    }

    #[test]
    fn snapshot_serializes_to_flat_json() {
        let mut b = StatsBuilder::new("c");
        b.scalar("a", 1.5);
        b.scalar("b", 2.0);
        let snap = StatsSnapshot::from_values(b.into_values());
        assert_eq!(snap.to_json(), r#"{"c.a":1.5,"c.b":2}"#);
        let empty = StatsSnapshot::default();
        assert_eq!(empty.to_json(), "{}");
    }

    #[test]
    fn json_maps_non_finite_to_null() {
        let mut b = StatsBuilder::new("c");
        b.scalar("nan", f64::NAN);
        let snap = StatsSnapshot::from_values(b.into_values());
        assert_eq!(snap.to_json(), r#"{"c.nan":null}"#);
    }

    #[test]
    fn histogram_in_builder_exports_summary_keys() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.record(3.0);
        let mut b = StatsBuilder::new("x");
        b.histogram("lat", &h);
        let snap = StatsSnapshot::from_values(b.into_values());
        assert_eq!(snap.get("x.lat.count"), Some(2.0));
        assert_eq!(snap.get("x.lat.mean"), Some(2.0));
        assert_eq!(snap.get("x.lat.min"), Some(1.0));
        assert_eq!(snap.get("x.lat.max"), Some(3.0));
        assert!(snap.get("x.lat.p50").is_some());
        assert!(snap.get("x.lat.p95").is_some());
        assert!(snap.get("x.lat.p99").is_some());
    }

    #[test]
    fn percentiles_of_identical_samples_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(300.0);
        }
        // The [256, 512) bucket's upper edge is clamped to the max.
        assert_eq!(h.p50(), Some(300.0));
        assert_eq!(h.p99(), Some(300.0));
    }

    #[test]
    fn percentiles_track_the_tail_within_a_bucket() {
        let mut h = Histogram::new();
        // 95 samples near 100, 5 outliers near 10_000.
        for _ in 0..95 {
            h.record(100.0);
        }
        for _ in 0..5 {
            h.record(10_000.0);
        }
        let p50 = h.p50().unwrap();
        assert!((100.0..=128.0).contains(&p50), "p50 {p50}");
        let p99 = h.p99().unwrap();
        assert!((8192.0..=10_000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.percentile(1.0), Some(10_000.0));
    }

    #[test]
    fn percentiles_of_empty_histogram_are_none() {
        let h = Histogram::new();
        assert_eq!(h.p50(), None);
        assert_eq!(h.percentile(0.0), None);
    }

    #[test]
    fn sub_unit_and_negative_samples_share_bucket_zero() {
        let mut h = Histogram::new();
        h.record(0.25);
        h.record(-3.0);
        let p = h.percentile(1.0).unwrap();
        assert!((-3.0..=0.25).contains(&p), "clamped to observed range, got {p}");
    }

    #[test]
    fn snapshot_diff_subtracts_per_key() {
        let mut b = StatsBuilder::new("c");
        b.scalar("a", 10.0);
        b.scalar("b", 5.0);
        let earlier = StatsSnapshot::from_values(b.into_values());
        let mut b = StatsBuilder::new("c");
        b.scalar("a", 25.0);
        b.scalar("n", 7.0);
        let later = StatsSnapshot::from_values(b.into_values());
        let d = later.diff(&earlier);
        assert_eq!(d.get("c.a"), Some(15.0));
        assert_eq!(d.get("c.n"), Some(7.0), "new keys count from zero");
        assert_eq!(d.get("c.b"), Some(-5.0), "vanished keys appear negated");
    }
}
