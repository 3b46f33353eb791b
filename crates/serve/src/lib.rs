//! `prism-serve`: a concurrent serving front-end over the PRISM engine.
//!
//! The engine itself answers one selection per call; real deployments see
//! *streams* of requests from many sessions. This crate turns the engine
//! into a serving system:
//!
//! ```text
//!  clients ──service(session).submit──▶ [SubmissionQueue]   (bounded over both stages,
//!      │                                 arrivals            backpressure; sheds
//!      │                                      │              cancelled/expired)
//!      │              [worker 0]     ...      [worker W-1]   (own ForwardScratch pool)
//!      │                    │  probe: one exact semantic-cache lookup per candidate
//!      │                    │   ├─ every candidate hit ────▶ answer() at pickup
//!      │                    │   └─ needs a pass ─▶ coalescing window (shared)
//!      │                                      │
//!      │                                [BatchPlanner]       (FIFO prefix under the
//!      │                                      │ admissible   token budget and request
//!      │                                      │ prefix       cap, max_batch_wait)
//!      │                    run_pass: plan (embed) → run → semantic merge + store
//!      │                    │
//!      │              run = Arc<PrismEngine>::run_planned    (one engine, Sync; one
//!      │                    │                                 weight pass per set)
//!      └──▶ prism_api::SelectionHandle ◀── answer()          (poll · wait · cancel ·
//!                                                              progress)
//! ```
//!
//! * **Bounded submission queue** ([`queue`]): `submit` fails fast with
//!   [`ServiceError::Backpressure`] (carrying a `retry_after` hint
//!   derived from queue depth and service rate) when the queue is full
//!   instead of buffering unboundedly, and answers cancelled or
//!   deadline-expired entries with their typed error before a worker
//!   wastes a probe or a weight pass on them. A free worker first takes
//!   every arrival through the semantic cache; a cache answer leaves at
//!   pickup, and only requests that still need a weight pass enter the
//!   coalescing window.
//! * **FIFO batch planner** ([`scheduler`]): workers pop the maximal
//!   FIFO prefix of the window whose total token count fits a budget
//!   derived from the device's memory spec; an under-full pass waits for
//!   company at most the configured age bound, counted from each
//!   request's enqueue, unless a request in it is due within that
//!   bound. Deadlines only expire requests (at admission, in the queue,
//!   at a layer boundary); they never reorder the window. One streamed
//!   pass over the layer weights is then
//!   shared by every request of the set
//!   ([`prism_core::PrismEngine::select_batch`]), which is where the
//!   throughput win over request-at-a-time serving comes from.
//! * **Semantic cache** ([`semantic`]): one exact cross-request cache
//!   (`prism-semcache`) keyed by each candidate's own tokens and
//!   precision profile replays per-candidate full-depth scores across
//!   requests and sessions under [`prism_core::SemCacheMode::On`],
//!   bit-identically, and recomputes only the novel candidates of a
//!   partially-hit request; hit/miss counters surface through
//!   [`ServeStats`]. A session is only a label.
//! * **One way in** ([`PrismServer::service`] → [`RemoteService`]): the
//!   server implements `prism_api::SelectionService`, so every caller
//!   gets non-blocking handles with mid-flight cancellation and
//!   layer-granularity progress; a queued request carries the handle's
//!   `prism_api::Completion` and is answered through it exactly once.
//! * **Conformance by construction**: per-request computation inside a
//!   coalesced batch happens in exactly the single-request order, the
//!   routing RNG is pinned by a per-request tag, and the window flushes
//!   as a pure FIFO prefix — so serving results are
//!   bit-identical to direct [`prism_core::PrismEngine::select_top_k`]
//!   calls, the property `tests/serve_conformance.rs` locks in across
//!   batch sizes and worker counts.

pub mod config;
pub mod load;
pub mod queue;
pub mod request;
pub mod scheduler;
pub mod semantic;
pub mod server;
pub mod stats;

pub use config::ServeConfig;
pub use load::{drive_closed_loop, run_closed_loop, LoadReport, LoadSpec};
pub use request::{ServeError, ServiceError};
pub use scheduler::{BatchPlanner, PlanDecision, QueueItem};
pub use semantic::{fingerprint_batch, SemanticLayer};
pub use server::{PrismServer, RemoteService};
pub use stats::{ServeStats, ServeStatsSnapshot};

/// Result alias for serving-path operations.
pub type Result<T> = std::result::Result<T, ServeError>;
