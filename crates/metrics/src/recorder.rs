//! Latency spans and live-byte memory metering.
//!
//! [`MemoryMeter`] is the measurement backbone of the memory experiments:
//! runtime components report allocation/release of weights, activations,
//! hidden states and caches under a [`MemCategory`] tag; the meter keeps
//! current and peak totals, overall and per category. Handles are cheap
//! clones sharing one meter, so the I/O thread and compute thread report
//! to the same ledger.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use serde::Serialize;

/// What a tracked allocation holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MemCategory {
    /// Transformer layer weights resident in memory.
    LayerWeights,
    /// Embedding table (full or cached subset).
    Embedding,
    /// Classifier / pooling head weights.
    Head,
    /// Per-chunk transient intermediate tensors (QKV, attention, FFN).
    Intermediate,
    /// Hidden states of all live chunks.
    HiddenStates,
    /// Everything else (tokenizer tables, bookkeeping).
    Other,
}

impl MemCategory {
    /// All categories, for iteration in reports.
    pub const ALL: [MemCategory; 6] = [
        MemCategory::LayerWeights,
        MemCategory::Embedding,
        MemCategory::Head,
        MemCategory::Intermediate,
        MemCategory::HiddenStates,
        MemCategory::Other,
    ];

    fn index(self) -> usize {
        match self {
            MemCategory::LayerWeights => 0,
            MemCategory::Embedding => 1,
            MemCategory::Head => 2,
            MemCategory::Intermediate => 3,
            MemCategory::HiddenStates => 4,
            MemCategory::Other => 5,
        }
    }
}

#[derive(Debug, Default)]
struct MeterInner {
    current: [u64; 6],
    peak_total: u64,
    peak_by_cat: [u64; 6],
}

impl MeterInner {
    fn total(&self) -> u64 {
        self.current.iter().sum()
    }

    fn note_change(&mut self) {
        self.peak_total = self.peak_total.max(self.total());
        for (peak, &c) in self.peak_by_cat.iter_mut().zip(&self.current) {
            *peak = (*peak).max(c);
        }
    }
}

/// Shared, thread-safe memory ledger.
#[derive(Debug, Clone)]
pub struct MemoryMeter {
    inner: Arc<Mutex<MeterInner>>,
}

impl Default for MemoryMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        MemoryMeter {
            inner: Arc::new(Mutex::new(MeterInner::default())),
        }
    }

    /// Records `bytes` newly resident under `cat`.
    pub fn alloc(&self, cat: MemCategory, bytes: u64) {
        let mut g = self.inner.lock();
        g.current[cat.index()] += bytes;
        g.note_change();
    }

    /// Records `bytes` released under `cat` (saturating).
    pub fn free(&self, cat: MemCategory, bytes: u64) {
        let mut g = self.inner.lock();
        let c = &mut g.current[cat.index()];
        *c = c.saturating_sub(bytes);
        g.note_change();
    }

    /// Replaces the tracked size of `cat` (for components that resize).
    pub fn set(&self, cat: MemCategory, bytes: u64) {
        let mut g = self.inner.lock();
        g.current[cat.index()] = bytes;
        g.note_change();
    }

    /// Current live bytes across all categories.
    pub fn current_total(&self) -> u64 {
        self.inner.lock().total()
    }

    /// Current live bytes of one category.
    pub fn current(&self, cat: MemCategory) -> u64 {
        self.inner.lock().current[cat.index()]
    }

    /// Peak total live bytes observed.
    pub fn peak_total(&self) -> u64 {
        self.inner.lock().peak_total
    }

    /// Peak live bytes of one category.
    pub fn peak(&self, cat: MemCategory) -> u64 {
        self.inner.lock().peak_by_cat[cat.index()]
    }

    /// Clears current totals and peaks.
    pub fn reset(&self) {
        *self.inner.lock() = MeterInner::default();
    }
}

/// Summary of one named latency span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanSummary {
    /// Span name.
    pub name: String,
    /// Number of recordings.
    pub count: u64,
    /// Total microseconds across recordings.
    pub total_micros: u64,
    /// Minimum single recording.
    pub min_micros: u64,
    /// Maximum single recording.
    pub max_micros: u64,
}

impl SpanSummary {
    /// Mean microseconds per recording.
    pub fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }
}

/// Accumulates named latency spans (e.g. `"embed"`, `"layer"`, `"cluster"`).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    spans: Vec<SpanSummary>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a completed duration under `name`.
    pub fn record(&mut self, name: &str, micros: u64) {
        if let Some(s) = self.spans.iter_mut().find(|s| s.name == name) {
            s.count += 1;
            s.total_micros += micros;
            s.min_micros = s.min_micros.min(micros);
            s.max_micros = s.max_micros.max(micros);
        } else {
            self.spans.push(SpanSummary {
                name: name.to_string(),
                count: 1,
                total_micros: micros,
                min_micros: micros,
                max_micros: micros,
            });
        }
    }

    /// Times `f` and records it under `name`, passing through its result.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_micros() as u64);
        out
    }

    /// Summary for one span, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// All spans in first-recorded order.
    pub fn spans(&self) -> &[SpanSummary] {
        &self.spans
    }

    /// Total microseconds across every span.
    pub fn total_micros(&self) -> u64 {
        self.spans.iter().map(|s| s.total_micros).sum()
    }

    /// Merges another recorder's spans into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        for s in &other.spans {
            if let Some(dst) = self.spans.iter_mut().find(|d| d.name == s.name) {
                dst.count += s.count;
                dst.total_micros += s.total_micros;
                dst.min_micros = dst.min_micros.min(s.min_micros);
                dst.max_micros = dst.max_micros.max(s.max_micros);
            } else {
                self.spans.push(s.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_current_and_peak() {
        let m = MemoryMeter::new();
        m.alloc(MemCategory::LayerWeights, 100);
        m.alloc(MemCategory::Intermediate, 50);
        assert_eq!(m.current_total(), 150);
        assert_eq!(m.peak_total(), 150);
        m.free(MemCategory::Intermediate, 50);
        assert_eq!(m.current_total(), 100);
        assert_eq!(m.peak_total(), 150, "peak must not decrease");
        assert_eq!(m.current(MemCategory::LayerWeights), 100);
        assert_eq!(m.peak(MemCategory::Intermediate), 50);
    }

    #[test]
    fn free_saturates() {
        let m = MemoryMeter::new();
        m.alloc(MemCategory::Other, 10);
        m.free(MemCategory::Other, 100);
        assert_eq!(m.current_total(), 0);
    }

    #[test]
    fn set_overrides() {
        let m = MemoryMeter::new();
        m.set(MemCategory::Embedding, 500);
        m.set(MemCategory::Embedding, 200);
        assert_eq!(m.current(MemCategory::Embedding), 200);
        assert_eq!(m.peak(MemCategory::Embedding), 500);
    }

    #[test]
    fn clones_share_ledger() {
        let m = MemoryMeter::new();
        let m2 = m.clone();
        m2.alloc(MemCategory::Head, 42);
        assert_eq!(m.current_total(), 42);
    }

    #[test]
    fn reset_clears_everything() {
        let m = MemoryMeter::new();
        m.alloc(MemCategory::Other, 7);
        m.reset();
        assert_eq!(m.current_total(), 0);
        assert_eq!(m.peak_total(), 0);
    }

    #[test]
    fn latency_recorder_aggregates() {
        let mut r = LatencyRecorder::new();
        r.record("layer", 100);
        r.record("layer", 300);
        r.record("embed", 50);
        let s = r.span("layer").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_micros, 400);
        assert_eq!(s.min_micros, 100);
        assert_eq!(s.max_micros, 300);
        assert_eq!(s.mean_micros(), 200.0);
        assert_eq!(r.total_micros(), 450);
        assert!(r.span("missing").is_none());
    }

    #[test]
    fn time_wraps_closure() {
        let mut r = LatencyRecorder::new();
        let v = r.time("work", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            7
        });
        assert_eq!(v, 7);
        assert!(r.span("work").unwrap().total_micros >= 4_000);
    }

    #[test]
    fn merge_combines_spans() {
        let mut a = LatencyRecorder::new();
        a.record("x", 10);
        let mut b = LatencyRecorder::new();
        b.record("x", 30);
        b.record("y", 5);
        a.merge(&b);
        assert_eq!(a.span("x").unwrap().count, 2);
        assert_eq!(a.span("x").unwrap().max_micros, 30);
        assert_eq!(a.span("y").unwrap().count, 1);
    }
}
