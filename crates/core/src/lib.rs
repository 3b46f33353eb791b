//! PRISM: a training-free inference engine for cross-encoder rerankers on
//! edge devices, built on **monolithic forwarding**.
//!
//! Instead of pushing isolated batches through the full model, PRISM keeps
//! *all* candidates of a top-K selection in one batch that advances through
//! transformer layers together, which unlocks the paper's four techniques:
//!
//! * [`routing`] / [`PrismEngine`] — **progressive cluster pruning**
//!   (§4.1): a coefficient-of-variation gate detects when candidate scores
//!   have dispersed, 1-D K-Means finds score clusters, and whole clusters
//!   are routed — *selected* into the final top-K, *dropped*, or
//!   *deferred* for more layers. Inference terminates early once the
//!   deferred set exactly fills the remaining top-K slots.
//! * **overlapped layer streaming** (§4.2): at most two layers' weights
//!   are resident; the next layer loads from disk while the current one
//!   computes (`prism_storage::LayerStreamer`).
//! * **chunked execution** (§4.3): the monolithic batch is executed in
//!   chunks so only one chunk's transient tensors are live, with optional
//!   hidden-state offload to a spill file for very large candidate sets.
//! * **embedding table caching** (§4.4): embedding rows are served from a
//!   small LRU cache backed by disk.
//!
//! Layer weights are int8 by default ([`WeightFormat`]): the engine
//! derives per-row i8 layers once, when it opens, and every projection
//! runs as an integer GEMM; a streamed engine streams those int8 sections
//! from an unlinked sidecar container. [`WeightFormat::F32`] keeps the
//! container's layers, the exact path. The format is the engine's, not a
//! request's.
//!
//! All techniques have independent on/off switches ([`EngineOptions`]) so
//! the Fig. 16 ablation is a configuration sweep, and the engine records a
//! full [`EngineTrace`] (per-layer active counts, routing events, stream
//! and cache statistics) that the device simulator replays at paper scale.

pub mod calibrate;
pub mod control;
pub mod engine;
pub mod options;
pub mod routing;
mod scatter;

pub use calibrate::ThresholdCalibrator;
pub use control::{CancelToken, ProgressFn, ProgressUpdate};
pub use engine::{
    ActiveRequest, EngineTrace, PrismEngine, RankedCandidate, RequestOptions, RequestSpec,
    Selection,
};
pub use options::{EngineOptions, PruneMode, SemCacheMode, WeightFormat};
pub use routing::{route_candidates, RouteDecision};
pub use scatter::rank_full_scores;
// Re-exported so serving/API layers can thread the spill-precision knob
// without depending on `prism-storage` directly.
pub use prism_storage::{SpillPrecision, SpillStats};

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum PrismError {
    /// Model-level failure (shape/config).
    Model(prism_model::Error),
    /// Storage-level failure (container, streaming, cache).
    Storage(prism_storage::StorageError),
    /// Tensor kernel failure.
    Tensor(prism_tensor::TensorError),
    /// Invalid engine configuration or request.
    InvalidRequest(String),
    /// The request was cancelled mid-flight via its
    /// [`control::CancelToken`]; its spill file and hidden-state bytes
    /// were released at the layer boundary where cancellation was
    /// observed.
    Cancelled,
    /// The request's attached deadline passed before it finished; it was
    /// aborted at a layer boundary like a cancellation.
    DeadlineExceeded,
}

impl std::fmt::Display for PrismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrismError::Model(e) => write!(f, "model: {e}"),
            PrismError::Storage(e) => write!(f, "storage: {e}"),
            PrismError::Tensor(e) => write!(f, "tensor: {e}"),
            PrismError::InvalidRequest(s) => write!(f, "invalid request: {s}"),
            PrismError::Cancelled => write!(f, "request cancelled"),
            PrismError::DeadlineExceeded => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for PrismError {}

impl From<prism_model::Error> for PrismError {
    fn from(e: prism_model::Error) -> Self {
        PrismError::Model(e)
    }
}

impl From<prism_storage::StorageError> for PrismError {
    fn from(e: prism_storage::StorageError) -> Self {
        PrismError::Storage(e)
    }
}

impl From<prism_tensor::TensorError> for PrismError {
    fn from(e: prism_tensor::TensorError) -> Self {
        PrismError::Tensor(e)
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, PrismError>;
