//! A registry of named counters, gauges and histograms.
//!
//! Counters and histograms are the hot-path primitives (the serve workers
//! bump them per request); both spread their state over [`SHARDS`]
//! cache-line-padded atomics indexed by a per-thread slot, so concurrent
//! writers do not bounce a single cache line. Reads sum the shards.
//!
//! Histograms are backed by the log-linear quantile sketch in
//! [`crate::sketch`]: log₂ octaves × [`crate::sketch::SUB_BUCKETS`] linear
//! sub-buckets, so [`HistogramSummary`] quantiles (p50/p90/p99/p999) carry
//! at most ~3.1% relative error instead of the up-to-2× error of plain
//! log₂ buckets. A record is still a handful of relaxed atomic adds.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-backed clones:
//! register once, then update through the handle without touching the
//! registry's name map again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::sketch::{bucket_index, nonempty_buckets, quantile_from_counts, SKETCH_BUCKETS};

/// Number of shards for counters/histograms. Power of two.
pub const SHARDS: usize = 16;

/// A cache-line-padded atomic cell.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    const fn new() -> PaddedU64 {
        PaddedU64(AtomicU64::new(0))
    }
}

fn new_shards() -> [PaddedU64; SHARDS] {
    std::array::from_fn(|_| PaddedU64::new())
}

/// Per-thread shard slot, assigned round-robin on first use. Const-init
/// thread-local plus a sentinel keeps the hot-path access free of the
/// lazy-initialization guard.
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

struct CounterInner {
    shards: [PaddedU64; SHARDS],
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    fn new() -> Counter {
        Counter { inner: Arc::new(CounterInner { shards: new_shards() }) }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (sum over shards).
    pub fn value(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A last-write-wins `f64` gauge.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge { bits: Arc::new(AtomicU64::new(0.0f64.to_bits())) }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Read the gauge.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    buckets: Box<[AtomicU64]>, // SKETCH_BUCKETS entries
    count: [PaddedU64; SHARDS],
    sum: [PaddedU64; SHARDS],
}

/// A histogram over non-negative integer observations, bucketed by the
/// log-linear sketch in [`crate::sketch`].
///
/// Records are two relaxed shard adds plus one bucket add; quantiles are
/// conservative (the inclusive upper bound of the matched sketch bucket)
/// with at most ~3.1% relative error.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

/// Aggregated view of a histogram.
///
/// Units are whatever the caller recorded. Durations recorded through
/// [`Histogram::record_secs`] are in **nanoseconds** (sub-microsecond
/// observations stay distinguishable).
/// Quantiles are sketch-bucket upper bounds: never below the true sample
/// quantile, and within ~3.1% above it.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation (0 when empty).
    pub mean: f64,
    /// Approximate 50th percentile (sketch bucket upper bound).
    pub p50: u64,
    /// Approximate 90th percentile.
    pub p90: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Approximate 99.9th percentile.
    pub p999: u64,
    /// Largest non-empty bucket's upper bound (approximate max).
    pub max: u64,
    /// Non-empty sketch buckets as `(inclusive upper bound, count)` pairs
    /// in increasing value order — enough to re-derive any quantile and to
    /// render Prometheus `_bucket` lines.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSummary {
    /// An all-zero summary (what an empty histogram aggregates to).
    pub fn empty() -> HistogramSummary {
        HistogramSummary {
            count: 0,
            sum: 0,
            mean: 0.0,
            p50: 0,
            p90: 0,
            p99: 0,
            p999: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }
}

/// Convert a duration in (finite, non-negative) seconds to the nanosecond
/// integer a histogram records. Debug builds assert on non-finite input;
/// release builds drop the observation (recording a fake 0 would skew
/// p50 downward silently).
#[inline]
fn secs_to_ns(seconds: f64) -> Option<u64> {
    debug_assert!(seconds.is_finite(), "non-finite duration recorded: {seconds}");
    if seconds.is_finite() {
        Some((seconds.max(0.0) * 1e9) as u64)
    } else {
        None
    }
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: (0..SKETCH_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: new_shards(),
                sum: new_shards(),
            }),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let s = shard_index();
        self.inner.count[s].0.fetch_add(1, Ordering::Relaxed);
        self.inner.sum[s].0.fetch_add(v, Ordering::Relaxed);
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration as whole **nanoseconds**. Non-finite input is a
    /// debug assertion and records nothing in release builds.
    #[inline]
    pub fn record_secs(&self, seconds: f64) {
        if let Some(ns) = secs_to_ns(seconds) {
            self.record(ns);
        }
    }

    /// Aggregate the histogram.
    pub fn summary(&self) -> HistogramSummary {
        let count: u64 = self.inner.count.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        let sum: u64 = self.inner.sum.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        let counts: Vec<u64> =
            self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        // Quantiles walk the *bucket* counts (racing writers can make the
        // shard count differ transiently from the bucket total; using the
        // bucket total keeps each quantile internally consistent).
        let bucket_total: u64 = counts.iter().sum();
        let q = |quant: f64| quantile_from_counts(&counts, bucket_total, quant);
        let buckets = nonempty_buckets(&counts);
        let max = buckets.last().map(|&(upper, _)| upper).unwrap_or(0);
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum as f64 / count as f64 },
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            p999: q(0.999),
            max,
            buckets,
        }
    }

    /// Raw cumulative sketch counts plus `(count, sum)` totals — the input
    /// windowed rollups ([`crate::slo`]) difference against their previous
    /// tick. The sum recomputed from buckets is intentionally *not* used:
    /// rollups need the exact sharded totals.
    pub fn cumulative(&self) -> (Vec<u64>, u64, u64) {
        let counts: Vec<u64> =
            self.inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let count: u64 = self.inner.count.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        let sum: u64 = self.inner.sum.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
        (counts, count, sum)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named-metric registry. Cloning shares the registry.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { inner: Arc::new(Mutex::new(RegistryInner::default())) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metrics registry lock")
    }

    /// Get or create a counter by name.
    pub fn counter(&self, name: &str) -> Counter {
        self.lock().counters.entry(name.to_string()).or_insert_with(Counter::new).clone()
    }

    /// Get or create a gauge by name.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.lock().gauges.entry(name.to_string()).or_insert_with(Gauge::new).clone()
    }

    /// Get or create a histogram by name.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.lock().histograms.entry(name.to_string()).or_insert_with(Histogram::new).clone()
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.lock();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, c)| (k.clone(), c.value())).collect(),
            gauges: g.gauges.iter().map(|(k, c)| (k.clone(), c.value())).collect(),
            histograms: g.histograms.iter().map(|(k, h)| (k.clone(), h.summary())).collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// Point-in-time values of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("t.tasks");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 8000);
        // Same name returns the same counter.
        assert_eq!(reg.counter("t.tasks").value(), 8000);
    }

    #[test]
    fn gauges_hold_last_write() {
        let reg = Registry::new();
        let g = reg.gauge("t.cache_hit");
        g.set(0.25);
        g.set(0.75);
        assert_eq!(g.value(), 0.75);
    }

    #[test]
    fn histogram_summary_is_sane() {
        let reg = Registry::new();
        let h = reg.histogram("t.task_ns");
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 101_106);
        assert!((s.mean - 101_106.0 / 6.0).abs() < 1e-9);
        // Small values are exact in the sketch; large ones within ~3.1%.
        assert_eq!(s.p50, 3);
        assert!(s.p99 >= 100_000 && s.p99 as f64 <= 100_000.0 * 1.04, "{}", s.p99);
        assert!(s.p90 >= 1000 && s.p90 <= s.p99);
        assert!(s.p999 >= s.p99);
        assert!(s.max >= 100_000 && s.max as f64 <= 100_000.0 * 1.04);
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 6);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Registry::new().histogram("t.empty");
        assert_eq!(h.summary(), HistogramSummary::empty());
    }

    #[test]
    fn snapshot_sorts_and_finds() {
        let reg = Registry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        reg.gauge("g").set(3.5);
        reg.histogram("h").record(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".into(), 1), ("b".into(), 2)]);
        assert_eq!(snap.gauge("g"), Some(3.5));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn record_secs_keeps_sub_microsecond_resolution() {
        let reg = Registry::new();
        let h = reg.histogram("t.lat_ns");
        // 250 ns and 800 ns used to collapse into the same microsecond-0
        // bucket; in nanoseconds they land in distinct buckets. Quantiles
        // report the bucket's inclusive upper bound (within ~1/32 relative).
        h.record_secs(250e-9);
        h.record_secs(800e-9);
        h.record_secs(1.5e-3); // 1.5 ms = 1_500_000 ns
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert!(s.p50 >= 800 && s.p50 as f64 <= 800.0 * 1.04, "p50 {}", s.p50);
        assert!(s.p99 >= 1_500_000 && s.p99 as f64 <= 1_500_000.0 * 1.04);
        // Negative durations clamp to zero rather than wrapping.
        h.record_secs(-1.0);
        assert_eq!(h.summary().count, 4);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "non-finite duration"))]
    fn non_finite_durations_are_rejected() {
        let h = Registry::new().histogram("t.nan");
        h.record_secs(f64::NAN);
        // Release builds: dropped, not recorded as a bogus zero.
        assert_eq!(h.summary().count, 0);
    }
}
