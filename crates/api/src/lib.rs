//! `prism-api`: the unified [`SelectionService`] facade over every way
//! of running a PRISM selection.
//!
//! Before this crate, callers picked one of three diverging surfaces up
//! front — direct [`PrismEngine`](prism_core::PrismEngine) calls, the
//! phase-level `plan_request → gate → forward → finalize` loop, or the
//! serving front-end's sessions — and each had its own blocking model
//! and error type. The facade collapses them:
//!
//! ```text
//!           SelectionService::submit(batch, RequestOptions)
//!                │                               │
//!          [LocalService]                 [RemoteService]      (prism-serve)
//!        thread + Arc<engine>        queue → scheduler → worker
//!                │                               │
//!                └────────── SelectionHandle ────┘
//!                  poll / wait / wait_timeout / cancel / progress
//! ```
//!
//! * **Non-blocking handles** ([`SelectionHandle`]): submissions return
//!   immediately; the outcome is consumed once via `poll`, `wait` or
//!   `wait_timeout`.
//! * **Mid-flight cancellation**: `cancel()` flips a
//!   [`CancelToken`] the engine checks at every
//!   layer boundary, releasing spill files and hidden-state bytes at the
//!   cancellation point rather than at the end of the pass.
//! * **Deadlines** ride on [`RequestOptions`] (`deadline_us`): checked
//!   at admission, shed from the serving queue when they pass there, and
//!   enforced mid-flight by the engine at every layer boundary.
//! * **Progress events**: layer-granularity [`Progress`] (layers gated /
//!   forwarded, candidates pruned so far) without polling the engine.
//! * **One error hierarchy** ([`ServiceError`]): typed
//!   `DeadlineExceeded` / `Cancelled` / `Backpressure { retry_after }`
//!   across backends, all `std::error::Error`. The service never retries
//!   on a caller's behalf: a backpressured caller reads the hint and
//!   decides.
//!
//! Results are bit-identical across backends for the same batch,
//! options and tag — the conformance property the serving layer already
//! guaranteed, now stated once at the facade.

mod error;
mod handle;
mod service;

pub use error::ServiceError;
pub use handle::{Completion, Progress, SelectionHandle, SelectionOutcome};
pub use service::{admission_deadline, admit, LocalService, SelectionService};

// Re-exported so facade users need only this crate plus a batch type.
pub use prism_core::{CancelToken, RequestOptions, SpillPrecision};

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
