//! The serving API's error type.
//!
//! Requests enter through [`crate::PrismServer::service`] and are
//! answered through `prism_api::SelectionHandle`s, so the request and
//! response types are the facade's; what remains here is the error name
//! the serving layer grew up with.

pub use prism_api::ServiceError;

/// The serving layer's historical error name, now the facade hierarchy.
pub type ServeError = ServiceError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let e = ServeError::Backpressure {
            capacity: 4,
            queue_depth: 4,
            retry_after: std::time::Duration::from_millis(3),
        };
        assert!(e.to_string().contains("4/4"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting"));
    }
}
