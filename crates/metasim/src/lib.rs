//! Serving metasim: deterministic discrete-event simulation of the full
//! PRISM serving stack, validated against measured benchmarks.
//!
//! A live serving experiment answers "what does this configuration do on
//! this machine" in minutes of wall clock. The metasim answers the same
//! question in milliseconds by replaying the *decision logic* of the
//! real stack at virtual time:
//!
//! * the actual [`prism_serve::BatchPlanner`] makes every scheduling
//!   decision (it is a pure function of queue snapshot + clock, so the
//!   simulator and the live server run the identical code);
//! * the queue's own pop ([`prism_serve::BatchPlanner::pop`]: priority
//!   inversions, draining, depth) and its dead-request rule
//!   ([`prism_serve::dead_verdict`], counted by
//!   [`prism_serve::ServeStats::count_failure`]) run on the simulated
//!   queue, recorded into a real [`prism_serve::ServeStats`];
//! * the server's own [`prism_serve::SessionCache`], holding unit
//!   payloads, produces selection and embedding hits — with no
//!   embedding replay when the modeled server is sharded, as there;
//! * only *execution time* is modeled, by a [`ServiceModel`] — either
//!   the analytic `prism-device` cost model (including spill-byte
//!   terms) or an affine fit calibrated on the real engine.
//!
//! Workloads come from two sources: [`closed_loop`] replays the request
//! stream `prism_serve::run_closed_loop` drives (both read
//! `LoadSpec::request_at`; `repro sim-validate` checks the prediction
//! against the measured run within tolerance), and
//! open-loop traces from [`prism_workload::TraceGenerator`] scale to a
//! simulated day of million-user traffic in seconds.
//!
//! Everything is bit-deterministic: a [`SimReport`] wraps the same
//! `prism_serve::LoadReport` a measured run folds into and carries an
//! FNV-1a digest of the processed event log, and identical inputs produce
//! identical reports — the property the determinism proptests pin down.

pub mod closed_loop;
pub mod report;
pub mod service;
pub mod sim;

pub use closed_loop::{client_streams, simulate_closed_loop};
pub use report::SimReport;
pub use service::{Calibration, ServiceModel};
pub use sim::{SimFaults, SimRequest, Simulation, BACKPRESSURE_RETRY_US};
