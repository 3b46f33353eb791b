//! The non-blocking [`SelectionHandle`] and its producer-side
//! [`Completion`].
//!
//! A handle/completion pair is the rendezvous between a caller and
//! whichever backend executes the request (a `LocalService` thread or a
//! serving worker). The caller polls or blocks on the handle; the backend
//! pushes layer-granularity progress through the completion and finishes
//! it exactly once. Cancellation flows caller → backend through the
//! shared [`CancelToken`], which the engine observes at every layer
//! boundary.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use prism_core::{CancelToken, ProgressFn, ProgressUpdate, Selection};
use serde::Serialize;

use crate::error::ServiceError;

/// Everything a finished selection carries back through the facade,
/// backend-independent.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// The selection — bit-identical to a direct engine call with the
    /// same batch, options and tag.
    pub selection: Selection,
    /// Submission index assigned by the service (1-based).
    pub ticket: u64,
    /// Microseconds spent waiting: for pickup and, on a server, for
    /// company in the coalescing window before the weight pass.
    pub queued_us: u64,
    /// Microseconds of work on the request: embedding and cache probes,
    /// planning, the layer pass shared across a coalesced batch,
    /// finalize. Zero when a serving-layer cache answered outright;
    /// otherwise `queued_us + service_us` spans submission to reply.
    pub service_us: u64,
    /// Requests sharing the weight pass (1 for direct execution and for
    /// a cache answer, which runs no pass).
    pub batch_size: usize,
    /// Whether a serving-layer cache answered or accelerated the request.
    pub served_from_cache: bool,
}

/// Point-in-time progress of an in-flight selection, aggregated from the
/// engine's per-layer [`ProgressUpdate`]s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Progress {
    /// Layer boundaries whose pruning gate has run.
    pub layers_gated: usize,
    /// Transformer layers fully forwarded.
    pub layers_forwarded: usize,
    /// Candidates still in flight.
    pub candidates_active: usize,
    /// Candidates accepted into the top-K so far.
    pub candidates_accepted: usize,
    /// Candidates pruned so far.
    pub candidates_pruned: usize,
}

enum Slot {
    Pending,
    // Boxed: a `SelectionOutcome` is large next to the dataless states,
    // and one slot lives in every in-flight handle.
    Done(Box<Result<SelectionOutcome, ServiceError>>),
    Taken,
}

struct HandleShared {
    slot: Mutex<Slot>,
    ready: Condvar,
    cancel: CancelToken,
    progress: Mutex<Progress>,
}

impl HandleShared {
    fn take_if_done(slot: &mut Slot) -> Option<Result<SelectionOutcome, ServiceError>> {
        match std::mem::replace(slot, Slot::Taken) {
            Slot::Done(r) => Some(*r),
            Slot::Pending => {
                *slot = Slot::Pending;
                None
            }
            // Outcome already consumed: report the handle as spent
            // rather than blocking forever.
            Slot::Taken => Some(Err(ServiceError::Disconnected)),
        }
    }
}

/// A non-blocking handle to one submitted selection.
///
/// Obtained from [`crate::SelectionService::submit`]; supports `poll`,
/// `wait`, `wait_timeout`, mid-flight `cancel`, and layer-granularity
/// [`Progress`] observation. The outcome can be consumed exactly once
/// (by whichever of `poll` / `wait` / `wait_timeout` first returns it);
/// afterwards the handle reports [`ServiceError::Disconnected`].
pub struct SelectionHandle {
    shared: Arc<HandleShared>,
    ticket: u64,
    deadline: Option<Instant>,
}

impl SelectionHandle {
    /// Creates a connected handle/completion pair. `deadline` is the
    /// absolute deadline the service resolved from the request options
    /// (informational on the handle; enforcement happens in the
    /// backend).
    pub fn channel(ticket: u64, deadline: Option<Instant>) -> (SelectionHandle, Completion) {
        let shared = Arc::new(HandleShared {
            slot: Mutex::new(Slot::Pending),
            ready: Condvar::new(),
            cancel: CancelToken::new(),
            progress: Mutex::new(Progress::default()),
        });
        (
            SelectionHandle {
                shared: Arc::clone(&shared),
                ticket,
                deadline,
            },
            Completion {
                shared,
                completed: false,
            },
        )
    }

    /// The request's service-assigned submission index (1-based).
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// The absolute deadline this request runs under, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Non-blocking: returns the outcome if it is ready.
    pub fn poll(&self) -> Option<Result<SelectionOutcome, ServiceError>> {
        let mut slot = self.shared.slot.lock().expect("handle lock");
        HandleShared::take_if_done(&mut slot)
    }

    /// Blocks until the outcome arrives.
    pub fn wait(self) -> Result<SelectionOutcome, ServiceError> {
        let mut slot = self.shared.slot.lock().expect("handle lock");
        loop {
            if let Some(r) = HandleShared::take_if_done(&mut slot) {
                return r;
            }
            slot = self.shared.ready.wait(slot).expect("handle lock");
        }
    }

    /// Blocks at most `timeout`; `None` means still in flight (the
    /// handle stays usable).
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<SelectionOutcome, ServiceError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.shared.slot.lock().expect("handle lock");
        loop {
            if let Some(r) = HandleShared::take_if_done(&mut slot) {
                return Some(r);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .shared
                .ready
                .wait_timeout(slot, deadline - now)
                .expect("handle lock");
            slot = next;
        }
    }

    /// Requests cancellation. The backend observes it at the next layer
    /// boundary (or in the queue, if execution has not started) and
    /// completes the handle with [`ServiceError::Cancelled`]; if the
    /// request already finished, the existing outcome stands.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
    }

    /// The cancellation token shared with the backend.
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Latest progress snapshot (zeroed until the first layer boundary).
    pub fn progress(&self) -> Progress {
        *self.shared.progress.lock().expect("progress lock")
    }
}

impl std::fmt::Debug for SelectionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SelectionHandle")
            .field("ticket", &self.ticket)
            .field("deadline", &self.deadline)
            .finish()
    }
}

/// Producer side of a [`SelectionHandle`]: owned by the backend
/// executing the request.
pub struct Completion {
    shared: Arc<HandleShared>,
    completed: bool,
}

impl Completion {
    /// The cancellation token to attach to the in-flight request.
    pub fn cancel_token(&self) -> CancelToken {
        self.shared.cancel.clone()
    }

    /// Whether the caller requested cancellation.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancel.is_cancelled()
    }

    /// A [`ProgressFn`] that folds engine updates into the handle's
    /// [`Progress`] snapshot — attach it to the `ActiveRequest`.
    pub fn progress_fn(&self) -> ProgressFn {
        let shared = Arc::clone(&self.shared);
        Arc::new(move |u: ProgressUpdate| {
            let mut p = shared.progress.lock().expect("progress lock");
            p.layers_gated = p.layers_gated.max(u.layer + 1);
            p.layers_forwarded = u.layers_forwarded;
            p.candidates_active = u.active;
            p.candidates_accepted = u.accepted;
            p.candidates_pruned = u.pruned;
        })
    }

    /// Delivers the outcome and wakes every waiter. First call wins;
    /// later calls are ignored (the queue and a worker may race to
    /// answer a cancelled request).
    pub fn complete(&mut self, outcome: Result<SelectionOutcome, ServiceError>) {
        if self.completed {
            return;
        }
        self.completed = true;
        let mut slot = self.shared.slot.lock().expect("handle lock");
        if matches!(*slot, Slot::Pending) {
            *slot = Slot::Done(Box::new(outcome));
            drop(slot);
            self.shared.ready.notify_all();
        }
    }
}

/// A completion dropped without an outcome (worker death) must not hang
/// the caller: it resolves to [`ServiceError::Disconnected`].
impl Drop for Completion {
    fn drop(&mut self) {
        self.complete(Err(ServiceError::Disconnected));
    }
}

impl std::fmt::Debug for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completion")
            .field("completed", &self.completed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ticket: u64) -> SelectionOutcome {
        SelectionOutcome {
            selection: Selection {
                ranked: Vec::new(),
                last_scores: Vec::new(),
                trace: Default::default(),
            },
            ticket,
            queued_us: 0,
            service_us: 0,
            batch_size: 1,
            served_from_cache: false,
        }
    }

    #[test]
    fn poll_then_complete_then_poll() {
        let (handle, mut completion) = SelectionHandle::channel(7, None);
        assert_eq!(handle.ticket(), 7);
        assert!(handle.poll().is_none(), "nothing ready yet");
        completion.complete(Ok(outcome(7)));
        let got = handle.poll().expect("ready").expect("ok");
        assert_eq!(got.ticket, 7);
        // Outcome is consumed exactly once.
        assert!(matches!(
            handle.poll(),
            Some(Err(ServiceError::Disconnected))
        ));
    }

    #[test]
    fn wait_blocks_until_completion() {
        let (handle, mut completion) = SelectionHandle::channel(1, None);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            completion.complete(Ok(outcome(1)));
        });
        assert_eq!(handle.wait().unwrap().ticket, 1);
        t.join().unwrap();
    }

    #[test]
    fn wait_timeout_returns_none_then_result() {
        let (handle, mut completion) = SelectionHandle::channel(2, None);
        assert!(handle.wait_timeout(Duration::from_millis(5)).is_none());
        completion.complete(Err(ServiceError::Cancelled));
        assert!(matches!(
            handle.wait_timeout(Duration::from_millis(5)),
            Some(Err(ServiceError::Cancelled))
        ));
    }

    #[test]
    fn first_completion_wins() {
        let (handle, mut completion) = SelectionHandle::channel(3, None);
        completion.complete(Err(ServiceError::Cancelled));
        completion.complete(Ok(outcome(3)));
        assert!(matches!(handle.poll(), Some(Err(ServiceError::Cancelled))));
    }

    #[test]
    fn dropped_completion_disconnects() {
        let (handle, completion) = SelectionHandle::channel(4, None);
        drop(completion);
        assert!(matches!(
            handle.poll(),
            Some(Err(ServiceError::Disconnected))
        ));
    }

    #[test]
    fn cancel_reaches_the_backend_token() {
        let (handle, completion) = SelectionHandle::channel(5, None);
        let token = completion.cancel_token();
        assert!(!token.is_cancelled());
        handle.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn progress_folds_updates() {
        let (handle, completion) = SelectionHandle::channel(6, None);
        let f = completion.progress_fn();
        f(ProgressUpdate {
            layer: 0,
            layers_forwarded: 0,
            active: 10,
            accepted: 0,
            pruned: 0,
        });
        f(ProgressUpdate {
            layer: 2,
            layers_forwarded: 2,
            active: 4,
            accepted: 2,
            pruned: 4,
        });
        let p = handle.progress();
        assert_eq!(p.layers_gated, 3);
        assert_eq!(p.layers_forwarded, 2);
        assert_eq!(p.candidates_active, 4);
        assert_eq!(p.candidates_accepted, 2);
        assert_eq!(p.candidates_pruned, 4);
    }
}
