//! Storage substrate for PRISM: weight container files, simulated SSD
//! bandwidth, background layer prefetching, embedding-row caching and
//! hidden-state spilling.
//!
//! The paper streams transformer layer weights from an NVMe SSD while the
//! current layer computes (§4.2), serves embedding rows from a small LRU
//! cache backed by disk (§4.4), and spills chunk hidden states to disk under
//! extreme memory pressure (§4.3). This crate provides those mechanisms
//! against a real filesystem:
//!
//! * `format` — the `PRSM` container format holding named weight
//!   sections with positioned-read access ([`Container`],
//!   [`ContainerWriter`]),
//! * [`throttle`] — an optional bandwidth throttle so tests and benches can
//!   emulate a specific SSD speed deterministically,
//! * [`stream`] — [`stream::LayerStreamer`], the dual-buffer ("sliding
//!   window") prefetcher that overlaps layer I/O with computation,
//! * [`embed_cache`] — the disk-backed embedding-row cache, ordered by
//!   [`prism_tensor::LruIndex`],
//! * [`spill`] — slot-based spill files for offloaded hidden states, with
//!   a versioned slot format holding raw `f32` or per-row-quantized int8
//!   payloads, one encoding per file ([`SpillPrecision`]),
//! * [`spill_pipeline`] — the overlapped spill pipeline: background
//!   reader/writer lanes that hide spill I/O behind chunk computation
//!   (§4.3's computing / offloading / prefetching window).

pub mod embed_cache;
pub mod error;
pub mod format;
pub mod spill;
pub mod spill_pipeline;
pub mod stream;
pub mod throttle;

pub use embed_cache::{DiskRowSource, EmbeddingCache, EmbeddingCacheStats, RowSource};
pub use error::StorageError;
pub use format::{Container, ContainerWriter, SectionKind, SectionMeta};
pub use spill::{crc32, fault, rowq_round_trip, SpillFile, SpillPrecision};
pub use spill_pipeline::{SpillPipeline, SpillStats};
pub use stream::{LayerStreamer, LoadedSection, StreamStats};
pub use throttle::Throttle;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
