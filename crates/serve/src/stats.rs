//! Serving telemetry: queue, pass, latency and cache instruments.

use prism_metrics::{Counter, Gauge, Histogram, HistogramSummary};
use serde::Serialize;

use crate::request::ServeError;

/// Live instruments of one [`crate::PrismServer`]. Clones share state.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests accepted and not yet answered or taken into a pass:
    /// arrivals, requests in their cache probe, and the coalescing
    /// window (gauge with high-water mark).
    pub queue_depth: Gauge,
    /// Requests in a weight pass right now, across all workers.
    pub in_flight: Gauge,
    /// Requests accepted into the queue.
    pub submitted: Counter,
    /// Requests rejected with backpressure.
    pub rejected: Counter,
    /// Requests rejected at admission because their deadline had already
    /// passed.
    pub deadline_rejected: Counter,
    /// Accepted requests shed later (while queued or mid-flight) because
    /// their deadline passed.
    pub deadline_missed: Counter,
    /// Requests cancelled by their caller (queued or mid-flight). Never
    /// counted in `completed`.
    pub cancelled: Counter,
    /// Requests answered with a selection or an engine error (cancelled
    /// and deadline-shed requests are excluded).
    pub completed: Counter,
    /// Weight passes run: sets flushed from the coalescing window. A
    /// request a cache answered joins none, so `batches / completed` is
    /// passes per request.
    pub batches: Counter,
    /// Requests per weight pass.
    pub batch_size: Histogram,
    /// Total packed tokens per weight pass.
    pub batch_tokens: Histogram,
    /// Microseconds a request waited, recorded once per request a
    /// worker picked up: for a worker to probe it and, when it needs a
    /// weight pass, in the coalescing window — the window counts here. A
    /// cache answer's is its wait for pickup.
    pub queued_us: Histogram,
    /// Microseconds of work on a request, recorded once per answered
    /// request: its cache probe (embed included) plus its pass's pickup
    /// to reply (plan, run, epilogue), so `queued_us + service_us` spans
    /// enqueue to reply; zero for a request a cache answered outright.
    pub service_us: Histogram,
    /// Session-cache: full-selection replays.
    pub cache_selection_hits: Counter,
    /// Session-cache: embedding replays.
    pub cache_embed_hits: Counter,
    /// Session-cache: misses (including cache-disabled requests).
    pub cache_misses: Counter,
    /// Semantic cache: candidates whose score was replayed (exact or
    /// similar tier) instead of recomputed.
    pub semcache_hits: Counter,
    /// Semantic cache: candidates probed without a replayable score
    /// (only eligible requests probe — pruning-off with the knob on).
    pub semcache_misses: Counter,
    /// Semantic cache: verification mismatches that fell back to the
    /// exact path (each also poisoned the offending LSH bucket).
    pub semcache_fallbacks: Counter,
    /// Semantic cache: resident bytes (int8 entries + overhead), metered
    /// like spill bytes. Mirrors the cache's own byte meter.
    pub semcache_bytes: Gauge,
    /// Spill slots quarantined on checksum mismatch and
    /// recomputed from weights.
    pub slots_quarantined: Counter,
}

impl ServeStats {
    /// Creates zeroed instruments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fraction of cache probes that hit (selection or embedding), in
    /// `[0, 1]`; zero when nothing was probed.
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.cache_selection_hits.get() + self.cache_embed_hits.get();
        let total = hits + self.cache_misses.get();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Counts one request answered with `err`: caller cancellations and
    /// deadline sheds on their own counters, any other failure as a
    /// completed (answered) request. The one place this split lives —
    /// the queue and the workers both count here.
    pub(crate) fn count_failure(&self, err: &ServeError) {
        match err {
            ServeError::Cancelled => self.cancelled.inc(),
            ServeError::DeadlineExceeded => self.deadline_missed.inc(),
            _ => self.completed.inc(),
        }
    }

    /// Backpressure retry hint derived from the current queue depth and
    /// the observed service rate: roughly how long until `queue_depth`
    /// requests drain across `workers` workers. Falls back to 1 ms per
    /// queued request before any service time was observed.
    pub fn retry_after_hint(&self, queue_depth: usize, workers: usize) -> std::time::Duration {
        let per_request_us = match self.service_us.mean() {
            m if m > 0.0 => m,
            _ => 1_000.0,
        };
        let us = (queue_depth.max(1) as f64 / workers.max(1) as f64) * per_request_us;
        std::time::Duration::from_micros(us.ceil() as u64)
    }

    /// A serializable point-in-time snapshot.
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            queue_depth: self.queue_depth.get(),
            queue_depth_peak: self.queue_depth.peak(),
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            deadline_rejected: self.deadline_rejected.get(),
            deadline_missed: self.deadline_missed.get(),
            cancelled: self.cancelled.get(),
            completed: self.completed.get(),
            batches: self.batches.get(),
            batch_size: self.batch_size.summary(),
            batch_tokens: self.batch_tokens.summary(),
            queued_us: self.queued_us.summary(),
            service_us: self.service_us.summary(),
            cache_selection_hits: self.cache_selection_hits.get(),
            cache_embed_hits: self.cache_embed_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_hit_rate: self.cache_hit_rate(),
            semcache_hits: self.semcache_hits.get(),
            semcache_misses: self.semcache_misses.get(),
            semcache_fallbacks: self.semcache_fallbacks.get(),
            semcache_bytes: self.semcache_bytes.get(),
            slots_quarantined: self.slots_quarantined.get(),
        }
    }
}

/// Serializable snapshot of [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeStatsSnapshot {
    /// Requests accepted and not yet answered or in a pass right now.
    pub queue_depth: u64,
    /// Deepest the queue ever got.
    pub queue_depth_peak: u64,
    /// Requests accepted.
    pub submitted: u64,
    /// Requests rejected with backpressure.
    pub rejected: u64,
    /// Requests rejected at admission with an already-expired deadline.
    pub deadline_rejected: u64,
    /// Accepted requests later shed on a passed deadline.
    pub deadline_missed: u64,
    /// Requests cancelled by their caller.
    pub cancelled: u64,
    /// Requests answered (selections and engine errors only).
    pub completed: u64,
    /// Weight passes run.
    pub batches: u64,
    /// Distribution of requests per weight pass.
    pub batch_size: HistogramSummary,
    /// Distribution of tokens per weight pass.
    pub batch_tokens: HistogramSummary,
    /// Distribution of queue wait times, coalescing window included (µs).
    pub queued_us: HistogramSummary,
    /// Distribution of work times: cache probe plus pass (µs).
    pub service_us: HistogramSummary,
    /// Selection replays served from the session cache.
    pub cache_selection_hits: u64,
    /// Embedding replays served from the session cache.
    pub cache_embed_hits: u64,
    /// Session-cache misses.
    pub cache_misses: u64,
    /// Hit fraction across all probes.
    pub cache_hit_rate: f64,
    /// Semantic-cache candidate replays (exact + similar tiers).
    pub semcache_hits: u64,
    /// Semantic-cache candidate probes that found nothing.
    pub semcache_misses: u64,
    /// Semantic-cache verification mismatches (poison + exact fallback).
    pub semcache_fallbacks: u64,
    /// Semantic-cache resident bytes right now.
    pub semcache_bytes: u64,
    /// Spill slots quarantined and recomputed.
    pub slots_quarantined: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_counts_both_hit_kinds() {
        let s = ServeStats::new();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_selection_hits.inc();
        s.cache_embed_hits.inc();
        s.cache_misses.inc_by(2);
        assert!((s.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn retry_hint_scales_with_depth_and_service_rate() {
        let s = ServeStats::new();
        // No observations yet: 1 ms per queued request.
        assert_eq!(
            s.retry_after_hint(4, 1),
            std::time::Duration::from_millis(4)
        );
        s.service_us.record(10_000);
        let one_worker = s.retry_after_hint(4, 1);
        let two_workers = s.retry_after_hint(4, 2);
        assert!(
            one_worker > two_workers,
            "{one_worker:?} vs {two_workers:?}"
        );
        assert!(one_worker >= std::time::Duration::from_millis(40));
    }

    #[test]
    fn lifecycle_counters_snapshot() {
        let s = ServeStats::new();
        s.cancelled.inc();
        s.deadline_rejected.inc_by(2);
        s.deadline_missed.inc();
        let snap = s.snapshot();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.deadline_rejected, 2);
        assert_eq!(snap.deadline_missed, 1);
    }

    #[test]
    fn snapshot_reflects_instruments() {
        let s = ServeStats::new();
        s.submitted.inc_by(3);
        s.queue_depth.set(2);
        s.batch_size.record(2);
        s.semcache_hits.inc_by(4);
        s.semcache_misses.inc_by(2);
        s.semcache_fallbacks.inc();
        s.semcache_bytes.set(512);
        s.slots_quarantined.inc_by(3);
        let snap = s.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.slots_quarantined, 3);
        assert_eq!(snap.batch_size.count, 1);
        assert_eq!(snap.semcache_hits, 4);
        assert_eq!(snap.semcache_misses, 2);
        assert_eq!(snap.semcache_fallbacks, 1);
        assert_eq!(snap.semcache_bytes, 512);
        // Snapshot serializes (shim serde): smoke-check a field name.
        let json = serde_json::to_string(&snap);
        assert!(json.is_ok());
    }
}
