//! The bounded submission queue workers coalesce batches from.
//!
//! One `Mutex<VecDeque>` + `Condvar` pair serves both sides: producers
//! fail fast with backpressure when the queue is at capacity, consumers
//! block until the [`BatchPlanner`] tells them to flush an admissible
//! set (waiting out the age bound for under-full batches). Before every
//! planning pass the queue *sheds* dead entries — requests whose caller
//! cancelled and requests whose deadline passed while they waited — and
//! answers them immediately with the typed error, so a worker never
//! spends a weight pass on work nobody wants. Closing the queue wakes
//! every waiter; queued requests are still drained so accepted work is
//! never dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use prism_api::Completion;
use prism_core::{CancelToken, Priority, RequestOptions};
use prism_model::SequenceBatch;

use crate::request::ServeError;
use crate::scheduler::{BatchPlanner, PlanDecision, QueueItem};
use crate::stats::ServeStats;

/// One queued request, carrying everything a worker needs to execute and
/// answer it.
#[derive(Debug)]
pub struct Pending {
    /// Global submission index (1-based) — doubles as the routing tag
    /// unless the caller pinned one.
    pub ticket: u64,
    /// Session key for cache affinity.
    pub session: String,
    /// The candidate batch.
    pub batch: SequenceBatch,
    /// Resolved per-request options (tag always set by the server).
    pub options: RequestOptions,
    /// FNV-1a fingerprint of the batch content (session-cache key).
    pub fingerprint: u64,
    /// Total packed tokens (the planner's budget unit).
    pub tokens: usize,
    /// When the request entered the queue.
    pub enqueued: Instant,
    /// Absolute deadline resolved at admission, if any.
    pub deadline: Option<Instant>,
    /// Caller-side cancellation flag (always present; inert unless the
    /// caller holds a facade handle).
    pub cancel: CancelToken,
    /// The tenant's occupied quota slot, if quotas are enabled. Released
    /// by drop on every exit path — completion, shed, drain.
    pub quota: Option<crate::quota::QuotaToken>,
    /// Producer side of the caller's `SelectionHandle`: the reply
    /// transport and progress sink. First completion wins, so the queue
    /// and a worker may race to answer a cancelled request.
    pub reply: Completion,
}

impl Pending {
    /// The scheduling class (from the resolved options).
    pub fn priority(&self) -> Priority {
        self.options.priority
    }

    /// Why this request is dead at `now`, if it is (see [`dead_verdict`]).
    pub(crate) fn verdict(&self, now: Instant) -> Option<ServeError> {
        dead_verdict(
            self.cancel.is_cancelled(),
            self.deadline.is_some_and(|d| now >= d),
        )
    }

    /// Answers the request with a typed error, counted by
    /// [`ServeStats::count_failure`]. Queue sheds and workers both end up
    /// here.
    pub fn fail(mut self, stats: &ServeStats, err: ServeError) {
        stats.count_failure(&err);
        self.reply.complete(Err(err));
    }
}

/// The typed error of a request nobody wants any more: a caller
/// cancellation wins over a passed deadline. The one copy of the rule —
/// queue sheds, the worker's pickup filter and the serving metasim all
/// ask here.
pub fn dead_verdict(cancelled: bool, expired: bool) -> Option<ServeError> {
    if cancelled {
        Some(ServeError::Cancelled)
    } else if expired {
        Some(ServeError::DeadlineExceeded)
    } else {
        None
    }
}

struct QueueState {
    deque: VecDeque<Pending>,
    closed: bool,
}

/// Bounded MPMC queue with planner-driven batch consumption.
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    notify: Condvar,
    capacity: usize,
    stats: ServeStats,
    workers: usize,
    /// Clock origin for planner timestamps: the planner is a pure
    /// function of `(snapshot, now_micros)` with both measured against
    /// this epoch, so the serving metasim can drive the identical code
    /// at virtual time.
    epoch: Instant,
}

impl SubmissionQueue {
    /// Creates a queue holding at most `capacity` pending requests;
    /// `stats` receives depth updates and shed/inversion counts, and
    /// `workers` scales the backpressure retry hint.
    pub fn new(capacity: usize, stats: ServeStats, workers: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState {
                deque: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            notify: Condvar::new(),
            capacity: capacity.max(1),
            stats,
            workers: workers.max(1),
            epoch: Instant::now(),
        }
    }

    /// Microseconds between the queue epoch and `t` (zero for instants
    /// at or before the epoch — admission always happens after it).
    fn micros_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Enqueues a request, failing fast when full or closed.
    pub fn push(&self, pending: Pending) -> Result<(), ServeError> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(ServeError::ShuttingDown);
        }
        if state.deque.len() >= self.capacity {
            // Dead entries (cancelled / expired while no worker was
            // popping) must not hold capacity against live work.
            self.shed_dead(&mut state, Instant::now());
        }
        if state.deque.len() >= self.capacity {
            return Err(ServeError::Backpressure {
                capacity: self.capacity,
                queue_depth: state.deque.len(),
                retry_after: self
                    .stats
                    .retry_after_hint(state.deque.len(), self.workers)
                    .min(std::time::Duration::from_secs(1)),
            });
        }
        state.deque.push_back(pending);
        self.stats.queue_depth.set(state.deque.len() as u64);
        drop(state);
        self.notify.notify_all();
        Ok(())
    }

    /// Answers and removes every queued request that is already dead:
    /// cancelled by its caller, or past its deadline.
    fn shed_dead(&self, state: &mut QueueState, now: Instant) {
        let mut i = 0;
        while i < state.deque.len() {
            match state.deque[i].verdict(now) {
                Some(err) => {
                    let dead = state.deque.remove(i).expect("index in bounds");
                    dead.fail(&self.stats, err);
                }
                None => i += 1,
            }
        }
    }

    /// Blocks until a batch is ready and pops it (an admissible set
    /// chosen by `planner`, in scheduling order). Returns `None` once
    /// the queue is closed *and* drained.
    pub fn next_batch(&self, planner: &BatchPlanner) -> Option<Vec<Pending>> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            let now = Instant::now();
            self.shed_dead(&mut state, now);
            if state.deque.is_empty() {
                self.stats.queue_depth.set(0);
                if state.closed {
                    return None;
                }
                state = self.notify.wait(state).expect("queue lock");
                continue;
            }
            let now_micros = self.micros_since_epoch(now);
            let snapshot: Vec<QueueItem> = state
                .deque
                .iter()
                .map(|p| QueueItem {
                    tokens: p.tokens,
                    enqueued_micros: self.micros_since_epoch(p.enqueued),
                    priority: p.priority(),
                    deadline_micros: p.deadline.map(|d| self.micros_since_epoch(d)),
                })
                .collect();
            let take = match planner.decide(&snapshot, now_micros) {
                PlanDecision::Flush(set) => set,
                // A closing queue flushes what it has instead of waiting
                // for arrivals that will never come.
                PlanDecision::Wait(_) if state.closed => planner.coalesce(&snapshot, now_micros),
                PlanDecision::Wait(us) => {
                    let (next, timeout) = self
                        .notify
                        .wait_timeout(state, std::time::Duration::from_micros(us))
                        .expect("queue lock");
                    state = next;
                    let _ = timeout;
                    continue;
                }
            };
            return Some(planner.pop(&mut state.deque, &snapshot, &take, &self.stats));
        }
    }

    /// Marks the queue closed and wakes all waiters. Already-queued
    /// requests are still served by subsequent [`Self::next_batch`] calls.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.notify.notify_all();
    }

    /// Number of requests currently queued.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").deque.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use prism_api::SelectionHandle;

    fn pending(ticket: u64, tokens: usize) -> (Pending, SelectionHandle) {
        let (handle, completion) = SelectionHandle::channel(ticket, None);
        let p = Pending {
            ticket,
            session: "s".into(),
            batch: SequenceBatch::new(&[vec![1; tokens]]).unwrap(),
            options: RequestOptions::tagged(1, ticket),
            fingerprint: 0,
            tokens,
            enqueued: Instant::now(),
            deadline: None,
            cancel: handle.cancel_token(),
            quota: None,
            reply: completion,
        };
        (p, handle)
    }

    fn eager_planner(max_requests: usize) -> BatchPlanner {
        BatchPlanner {
            max_requests,
            max_tokens: usize::MAX,
            max_wait_micros: 0,
            starvation_age_micros: u64::MAX,
            priority_aware: true,
        }
    }

    #[test]
    fn backpressure_when_full() {
        let q = SubmissionQueue::new(2, ServeStats::new(), 1);
        let (a, _ra) = pending(1, 4);
        let (b, _rb) = pending(2, 4);
        let (c, _rc) = pending(3, 4);
        q.push(a).unwrap();
        q.push(b).unwrap();
        match q.push(c) {
            Err(ServeError::Backpressure {
                capacity,
                queue_depth,
                retry_after,
            }) => {
                assert_eq!(capacity, 2);
                assert_eq!(queue_depth, 2);
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn next_batch_pops_fifo_prefix() {
        let q = SubmissionQueue::new(8, ServeStats::new(), 1);
        let mut keep = Vec::new();
        for t in 1..=5 {
            let (p, h) = pending(t, 2);
            keep.push(h);
            q.push(p).unwrap();
        }
        let batch = q.next_batch(&eager_planner(3)).unwrap();
        assert_eq!(
            batch.iter().map(|p| p.ticket).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        let batch = q.next_batch(&eager_planner(3)).unwrap();
        assert_eq!(batch.iter().map(|p| p.ticket).collect::<Vec<_>>(), [4, 5]);
    }

    #[test]
    fn high_priority_pops_first() {
        let q = SubmissionQueue::new(8, ServeStats::new(), 1);
        let mut keep = Vec::new();
        for t in 1..=3 {
            let (mut p, h) = pending(t, 2);
            if t == 3 {
                p.options.priority = Priority::High;
            }
            keep.push(h);
            q.push(p).unwrap();
        }
        let batch = q.next_batch(&eager_planner(2)).unwrap();
        assert_eq!(batch.iter().map(|p| p.ticket).collect::<Vec<_>>(), [3, 1]);
    }

    #[test]
    fn cancelled_requests_are_shed_with_cancelled_error() {
        let stats = ServeStats::new();
        let q = SubmissionQueue::new(8, stats.clone(), 1);
        let (p1, h1) = pending(1, 2);
        let (p2, h2) = pending(2, 2);
        let cancel = p1.cancel.clone();
        q.push(p1).unwrap();
        q.push(p2).unwrap();
        cancel.cancel();
        let batch = q.next_batch(&eager_planner(8)).unwrap();
        assert_eq!(batch.iter().map(|p| p.ticket).collect::<Vec<_>>(), [2]);
        assert!(matches!(h1.wait(), Err(ServeError::Cancelled)));
        assert!(h2.poll().is_none(), "live request still unanswered");
        assert_eq!(stats.cancelled.get(), 1);
    }

    #[test]
    fn push_sheds_dead_entries_before_reporting_backpressure() {
        let stats = ServeStats::new();
        let q = SubmissionQueue::new(2, stats.clone(), 1);
        let (p1, h1) = pending(1, 2);
        let (p2, h2) = pending(2, 2);
        let (c1, c2) = (p1.cancel.clone(), p2.cancel.clone());
        q.push(p1).unwrap();
        q.push(p2).unwrap();
        c1.cancel();
        c2.cancel();
        // The queue is nominally full, but only with dead entries: live
        // work must be admitted, not bounced with backpressure.
        let (p3, _h3) = pending(3, 2);
        q.push(p3).unwrap();
        assert!(matches!(h1.wait(), Err(ServeError::Cancelled)));
        assert!(matches!(h2.wait(), Err(ServeError::Cancelled)));
        assert_eq!(stats.cancelled.get(), 2);
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn expired_deadlines_are_shed_with_deadline_error() {
        let stats = ServeStats::new();
        let q = SubmissionQueue::new(8, stats.clone(), 1);
        let (mut p1, h1) = pending(1, 2);
        p1.deadline = Some(Instant::now() - Duration::from_millis(1));
        let (p2, _h2) = pending(2, 2);
        q.push(p1).unwrap();
        q.push(p2).unwrap();
        let batch = q.next_batch(&eager_planner(8)).unwrap();
        assert_eq!(batch.iter().map(|p| p.ticket).collect::<Vec<_>>(), [2]);
        assert!(matches!(h1.wait(), Err(ServeError::DeadlineExceeded)));
        assert_eq!(stats.deadline_missed.get(), 1);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = SubmissionQueue::new(8, ServeStats::new(), 1);
        let (p, _h) = pending(1, 2);
        q.push(p).unwrap();
        q.close();
        // Closed queue flushes the waiting request instead of aging it.
        let planner = BatchPlanner {
            max_requests: 8,
            max_tokens: usize::MAX,
            max_wait_micros: u64::MAX,
            starvation_age_micros: u64::MAX,
            priority_aware: true,
        };
        assert_eq!(q.next_batch(&planner).unwrap().len(), 1);
        assert!(q.next_batch(&planner).is_none());
        let (p2, _h2) = pending(2, 2);
        assert!(matches!(q.push(p2), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn waiting_consumer_wakes_on_push() {
        let q = std::sync::Arc::new(SubmissionQueue::new(8, ServeStats::new(), 1));
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || q2.next_batch(&eager_planner(4)));
        std::thread::sleep(Duration::from_millis(10));
        let (p, _h) = pending(7, 1);
        q.push(p).unwrap();
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch[0].ticket, 7);
    }
}
