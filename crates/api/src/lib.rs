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
//! * **Deadlines and priorities** ride on
//!   [`RequestOptions`] (`deadline_us`,
//!   `priority`), honored by the serving scheduler's priority-then-EDF
//!   policy and enforced mid-flight by the engine.
//! * **Progress events**: layer-granularity [`Progress`] (layers gated /
//!   forwarded, candidates pruned so far) without polling the engine.
//! * **One error hierarchy** ([`ServiceError`]): typed
//!   `DeadlineExceeded` / `Cancelled` / `Backpressure { retry_after }`
//!   across backends, all `std::error::Error`.
//!
//! Results are bit-identical across backends for the same batch,
//! options and tag — the conformance property the serving layer already
//! guaranteed, now stated once at the facade.

mod error;
mod handle;
mod retry;
mod service;

pub use error::ServiceError;
pub use handle::{Completion, Progress, SelectionHandle, SelectionOutcome};
pub use retry::{is_retryable, RetryPolicy, RetrySchedule};
pub use service::{admission_deadline, admit, LocalService, SelectionService};

// Re-exported so facade users need only this crate plus a batch type.
pub use prism_core::{CancelToken, ComputePrecision, Priority, RequestOptions, SpillPrecision};

/// Result alias for facade operations.
pub type Result<T> = std::result::Result<T, ServiceError>;
