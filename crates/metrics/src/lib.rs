//! Ranking-quality metrics and resource recorders for the PRISM evaluation.
//!
//! * [`precision`] — Precision@K as defined in §6.1 of the paper (the
//!   denominator shrinks to the ground-truth size when it is below K),
//! * [`gamma`] — Goodman and Kruskal's γ plus the paper's *cluster γ*
//!   restricted to inter-cluster pairs (Fig. 2b),
//! * [`recorder`] — a span-based latency recorder and a category-tagged
//!   [`recorder::MemoryMeter`] that tracks live bytes over time, yielding
//!   the memory-vs-time curves behind Figs. 9/11/13/15/16,
//! * [`gauge`] — atomic gauges/counters and a log₂-bucketed latency
//!   histogram for the serving front-end's queue-depth, batch-size and
//!   cache-hit telemetry.

pub mod gamma;
pub mod gauge;
pub mod precision;
pub mod recorder;

pub use gamma::{cluster_gamma, goodman_kruskal_gamma};
pub use gauge::{exact_quantile, Counter, Gauge, Histogram, HistogramSummary};
pub use precision::precision_at_k;
pub use recorder::{LatencyRecorder, MemCategory, MemoryMeter, SpanSummary};
