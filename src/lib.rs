//! PRISM — on-device semantic selection made low latency and memory
//! efficient with **monolithic forwarding**.
//!
//! This meta-crate re-exports every subsystem of the workspace under one
//! roof and anchors the top-level integration tests (`tests/`) and runnable
//! examples (`examples/`). See the repository's `README.md` for the crate
//! map and `ARCHITECTURE.md` for how each module implements the paper.
//!
//! The short version: a cross-encoder reranker scores all top-K candidates
//! in **one monolithic batch** that advances through transformer layers
//! together. Between layers, a dispersion gate clusters intermediate
//! scores and routes whole clusters — *selected* into the answer,
//! *dropped*, or *deferred* — so most candidates exit early (§4.1), while
//! layer weights stream from disk behind compute (§4.2), the batch runs in
//! memory-bounded chunks with optional hidden-state spill (§4.3), and hot
//! embedding rows are served from an LRU cache (§4.4).

pub use prism_api as api;
pub use prism_apps as apps;
pub use prism_baselines as baselines;
pub use prism_cluster as cluster;
pub use prism_core as core;
pub use prism_device as device;
pub use prism_metrics as metrics;
pub use prism_model as model;
pub use prism_semcache as semcache;
pub use prism_serve as serve;
pub use prism_storage as storage;
pub use prism_tensor as tensor;
pub use prism_workload as workload;
