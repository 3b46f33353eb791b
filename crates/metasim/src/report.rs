//! The simulator's run report: a [`LoadReport`] — the same fold of the
//! same samples a measured run reports, with a real
//! [`prism_serve::ServeStatsSnapshot`] the simulator drove — plus what
//! only a simulation has: the offered count, the event count and the
//! event-log digest.

use prism_serve::{ClassReport, LoadReport, ServeStatsSnapshot};
use serde::Serialize;

/// Outcome of one simulated serving run. Every field is a pure function
/// of the simulation inputs (`run.elapsed_s` is virtual time, first
/// arrival to last delivery; wall-clock timing is deliberately excluded)
/// so reports can be compared bit for bit.
#[derive(Debug, Clone, Serialize)]
pub struct SimReport {
    /// Scenario label.
    pub label: String,
    /// Requests offered to the simulated server.
    pub requests: u64,
    /// Discrete events processed.
    pub events: u64,
    /// FNV-1a digest of the processed event log — the determinism
    /// witness.
    pub digest: u64,
    /// Latencies, errors (cancelled, deadline-shed, shard-failed, or
    /// dropped on open-loop backpressure), retries and server telemetry,
    /// shaped exactly like a measured run's.
    pub run: LoadReport,
}

impl SimReport {
    /// The class summary with this label, if the run was mixed.
    pub fn class(&self, label: &str) -> Option<&ClassReport> {
        self.run.class(label)
    }

    /// The simulated server's telemetry.
    pub fn stats(&self) -> &ServeStatsSnapshot {
        self.run.server_stats()
    }
}
