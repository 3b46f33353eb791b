//! The [`SelectionService`] trait and its direct-engine implementation,
//! [`LocalService`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_core::{PrismEngine, RequestOptions};
use prism_model::SequenceBatch;

use crate::error::ServiceError;
use crate::handle::{Completion, SelectionHandle, SelectionOutcome};

/// One facade over every way to run a selection.
///
/// Implemented by [`LocalService`] (a thread over a shared
/// [`PrismEngine`]) and by `prism-serve`'s `RemoteService` (the batching
/// server), so applications, examples and CLI commands
/// program against a single submit → [`SelectionHandle`] surface and
/// pick the backend at construction time. Same batch, options and tag
/// produce bit-identical selections on every backend.
pub trait SelectionService {
    /// Submits a selection; returns a non-blocking handle.
    ///
    /// Fails fast with [`ServiceError::DeadlineExceeded`] when the
    /// request's deadline has already passed at admission and with
    /// [`ServiceError::Backpressure`] when the backend is at capacity.
    fn submit(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError>;

    /// Submits and blocks for the outcome (the drop-in replacement for
    /// the legacy blocking call surfaces).
    fn select(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionOutcome, ServiceError> {
        self.submit(batch, options)?.wait()
    }
}

/// Resolves a request's relative deadline budget at admission time —
/// the one rule every backend applies: a zero budget is already expired
/// and rejected fail-fast; otherwise the absolute deadline is `now +
/// deadline_us` (or `None` when the request has no deadline).
pub fn admission_deadline(
    options: &RequestOptions,
    now: Instant,
) -> Result<Option<Instant>, ServiceError> {
    if options.deadline_us == Some(0) {
        return Err(ServiceError::DeadlineExceeded);
    }
    Ok(options
        .deadline_us
        .map(|us| now + Duration::from_micros(us)))
}

/// The admission rules every in-process backend applies, in order: a
/// request `engine` cannot serve (an empty batch, `k = 0`, a sequence
/// longer than `max_seq`) fails with the engine's own typed error
/// ([`PrismEngine::validate_request`]) before it costs an embed or a
/// cache entry, then the deadline rule ([`admission_deadline`]) resolves
/// its absolute deadline.
pub fn admit(
    engine: &PrismEngine,
    batch: &SequenceBatch,
    options: &RequestOptions,
    now: Instant,
) -> Result<Option<Instant>, ServiceError> {
    engine.validate_request(batch, options)?;
    admission_deadline(options, now)
}

/// [`SelectionService`] over a directly-owned engine: each submission
/// runs on its own thread with the engine shared behind an `Arc`, giving
/// single-process callers the same non-blocking handles, cancellation
/// points and progress events the server provides — without a queue or
/// scheduler in between.
pub struct LocalService {
    engine: Arc<PrismEngine>,
    ticket: AtomicU64,
}

impl LocalService {
    /// Wraps an engine.
    pub fn new(engine: PrismEngine) -> Self {
        LocalService {
            engine: Arc::new(engine),
            ticket: AtomicU64::new(0),
        }
    }

    /// The engine behind this service.
    pub fn engine(&self) -> &Arc<PrismEngine> {
        &self.engine
    }
}

impl SelectionService for LocalService {
    fn submit(
        &self,
        batch: SequenceBatch,
        options: RequestOptions,
    ) -> Result<SelectionHandle, ServiceError> {
        let submitted = Instant::now();
        let deadline = admit(&self.engine, &batch, &options, submitted)?;
        let ticket = self.ticket.fetch_add(1, Ordering::Relaxed) + 1;
        let (handle, completion) = SelectionHandle::channel(ticket, deadline);
        let engine = Arc::clone(&self.engine);
        std::thread::Builder::new()
            .name(format!("prism-local-{ticket}"))
            .spawn(move || {
                run_one(
                    &engine, &batch, options, completion, deadline, ticket, submitted,
                );
            })
            .map_err(|e| ServiceError::Config(format!("spawning local worker: {e}")))?;
        Ok(handle)
    }
}

/// Executes one request on the calling thread and completes the handle.
fn run_one(
    engine: &PrismEngine,
    batch: &SequenceBatch,
    options: RequestOptions,
    mut completion: Completion,
    deadline: Option<Instant>,
    ticket: u64,
    submitted: Instant,
) {
    let queued_us = submitted.elapsed().as_micros() as u64;
    let t0 = Instant::now();
    let result = (|| {
        let mut req = engine.plan_request(batch, options)?;
        req.attach_cancel(completion.cancel_token());
        if let Some(d) = deadline {
            req.attach_deadline(d);
        }
        req.attach_progress(completion.progress_fn());
        let mut pool = Vec::new();
        engine.run_planned(std::slice::from_mut(&mut req), &mut pool)?;
        engine.finalize_request(req)
    })();
    let service_us = t0.elapsed().as_micros() as u64;
    completion.complete(
        result
            .map_err(ServiceError::from)
            .map(|selection| SelectionOutcome {
                selection,
                ticket,
                queued_us,
                service_us,
                batch_size: 1,
                served_from_cache: false,
            }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_resolution() {
        let now = Instant::now();
        assert!(admission_deadline(&RequestOptions::top_k(1), now)
            .unwrap()
            .is_none());
        let d = admission_deadline(&RequestOptions::top_k(1).with_deadline_us(1_000), now).unwrap();
        assert_eq!(d, Some(now + Duration::from_micros(1_000)));
        assert!(matches!(
            admission_deadline(&RequestOptions::top_k(1).with_deadline_us(0), now),
            Err(ServiceError::DeadlineExceeded)
        ));
    }
}
