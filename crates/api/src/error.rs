//! The typed error hierarchy of the [`crate::SelectionService`] facade.

use std::time::Duration;

use prism_core::PrismError;

/// Everything that can go wrong between submitting a request and reading
/// its outcome — one hierarchy shared by every service backend (direct
/// engine, serving front-end), replacing the previous per-layer ad-hoc
/// error enums.
#[derive(Debug, Clone)]
pub enum ServiceError {
    /// The service is at capacity; retry after the hint. The hint is
    /// derived from the current queue depth and observed service rate,
    /// so callers can back off proportionally instead of hammering.
    Backpressure {
        /// Queue capacity that was exhausted.
        capacity: usize,
        /// Requests queued at rejection time.
        queue_depth: usize,
        /// Suggested wait before retrying.
        retry_after: Duration,
    },
    /// The request's deadline passed: at admission, while queued, or
    /// mid-flight (the engine aborts at a layer boundary).
    DeadlineExceeded,
    /// The request was cancelled via [`crate::SelectionHandle::cancel`];
    /// its spill file and scratch were released at the cancellation
    /// point.
    Cancelled,
    /// The service is shutting down (or has shut down).
    ShuttingDown,
    /// The worker or thread serving this request disappeared before
    /// producing an outcome.
    Disconnected,
    /// The engine rejected or failed the request.
    Engine(String),
    /// Invalid service configuration.
    Config(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure {
                capacity,
                queue_depth,
                retry_after,
            } => write!(
                f,
                "service at capacity ({queue_depth}/{capacity} queued); retry in ~{} ms",
                retry_after.as_millis().max(1)
            ),
            ServiceError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServiceError::Cancelled => write!(f, "request cancelled"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Disconnected => write!(f, "worker disconnected before replying"),
            ServiceError::Engine(e) => write!(f, "engine: {e}"),
            ServiceError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PrismError> for ServiceError {
    fn from(e: PrismError) -> Self {
        match e {
            PrismError::Cancelled => ServiceError::Cancelled,
            PrismError::DeadlineExceeded => ServiceError::DeadlineExceeded,
            other => ServiceError::Engine(other.to_string()),
        }
    }
}

impl ServiceError {
    /// The retry hint of a [`ServiceError::Backpressure`], if that is
    /// what this error is.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ServiceError::Backpressure { retry_after, .. } => Some(*retry_after),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_retry_hint() {
        let e = ServiceError::Backpressure {
            capacity: 8,
            queue_depth: 8,
            retry_after: Duration::from_millis(12),
        };
        let s = e.to_string();
        assert!(s.contains("8/8"), "{s}");
        assert!(s.contains("12 ms"), "{s}");
        assert_eq!(e.retry_after(), Some(Duration::from_millis(12)));
        assert_eq!(ServiceError::Cancelled.retry_after(), None);
    }

    #[test]
    fn implements_std_error() {
        fn takes_error(_: &dyn std::error::Error) {}
        takes_error(&ServiceError::DeadlineExceeded);
        takes_error(&ServiceError::Cancelled);
    }

    #[test]
    fn maps_engine_abort_errors() {
        assert!(matches!(
            ServiceError::from(PrismError::Cancelled),
            ServiceError::Cancelled
        ));
        assert!(matches!(
            ServiceError::from(PrismError::DeadlineExceeded),
            ServiceError::DeadlineExceeded
        ));
        assert!(matches!(
            ServiceError::from(PrismError::InvalidRequest("x".into())),
            ServiceError::Engine(_)
        ));
    }
}
