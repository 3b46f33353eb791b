//! Lock-free serving telemetry: gauges, counters and a latency histogram.
//!
//! The serving front-end (`prism-serve`) reports queue depth, coalesced
//! batch sizes and session-cache hits through these primitives. They are
//! deliberately tiny — atomics only, no background aggregation thread —
//! so a worker can bump them from the hot path without contending on the
//! [`crate::MemoryMeter`] lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

/// A current-value instrument with a high-water mark (e.g. queue depth).
///
/// Clones share state, mirroring [`crate::MemoryMeter`]'s handle model.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    inner: Arc<GaugeInner>,
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current value, updating the peak.
    pub fn set(&self, v: u64) {
        self.inner.value.store(v, Ordering::Relaxed);
        self.inner.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` to the current value, updating the peak.
    pub fn add(&self, delta: u64) {
        let v = self.inner.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.inner.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Subtracts `delta` (saturating at zero).
    pub fn sub(&self, delta: u64) {
        let mut cur = self.inner.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(delta);
            match self.inner.value.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.inner.value.load(Ordering::Relaxed)
    }

    /// The largest value ever set.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    inner: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.inner.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn inc_by(&self, n: u64) {
        self.inner.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.inner.load(Ordering::Relaxed)
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` over an ascending-sorted exact
/// sample (zero when empty). The one estimator behind every exact
/// percentile the workspace reports — load generator, CLI and serving
/// simulator — so measured and simulated percentiles are comparable.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Number of buckets in [`Histogram`]: one per power of two up to 2^63,
/// which comfortably spans nanoseconds to hours for latency recording.
const BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` observations (typically
/// microseconds), supporting approximate quantiles.
///
/// An observation `v` lands in bucket `⌊log2(v)⌋ + 1` (zero in bucket 0),
/// so relative quantile error is bounded by 2×. Clones share state.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; BUCKETS]>,
    count: Counter,
    sum: Arc<AtomicU64>,
    max: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Arc::new([const { AtomicU64::new(0) }; BUCKETS]),
            count: Counter::new(),
            sum: Arc::new(AtomicU64::new(0)),
            max: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.inc();
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Mean observation (zero when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest observation seen.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// containing the `⌈q·n⌉`-th observation (within 2× of the true value).
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0_u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1_u64 << i }.min(self.max());
            }
        }
        self.max()
    }

    /// A serializable summary with the serving percentiles.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }
}

/// Snapshot of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Approximate median.
    pub p50: u64,
    /// Approximate 95th percentile.
    pub p95: u64,
    /// Approximate 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_value_and_peak() {
        let g = Gauge::new();
        g.set(5);
        g.add(3);
        assert_eq!(g.get(), 8);
        g.sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 8, "peak must not decrease");
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates");
    }

    #[test]
    fn gauge_clones_share_state() {
        let g = Gauge::new();
        let g2 = g.clone();
        g2.add(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.inc_by(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.clone().get(), 5);
    }

    #[test]
    fn exact_quantiles_on_small_samples() {
        assert_eq!(exact_quantile(&[], 0.5), 0);
        assert_eq!(exact_quantile(&[7], 0.99), 7);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_quantile(&v, 0.0), 1);
        assert_eq!(exact_quantile(&v, 0.5), 51); // round(0.5 * 99) = 50
        assert_eq!(exact_quantile(&v, 0.99), 99);
        assert_eq!(exact_quantile(&v, 1.0), 100);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::new();
        for v in 1..=1000_u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.max(), 1000);
        let p50 = h.quantile(0.5);
        // True median 500; log2 bucket upper bound gives 512.
        assert!((500..=1024).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1024).contains(&p99), "p99 {p99}");
        assert!(h.quantile(1.0) <= h.max());
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn summary_fields_ordered() {
        let h = Histogram::new();
        for v in [10, 20, 30, 40, 50, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 6);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn histogram_concurrent_records() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000_u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
    }
}
