//! The bounded submission queue: arrivals, then the coalescing window.
//!
//! A request passes two stages. It *arrives* and waits for a free
//! worker, which takes it ([`Work::Probe`]) through the cache tiers. A
//! request the caches answered is done. One that still needs a weight
//! pass comes back ([`SubmissionQueue::wait_for_pass`]) as a [`Probed`]
//! entry, into the *coalescing window*: the set every worker plans
//! passes from, so two workers still coalesce. Only that set ages
//! toward `max_batch_wait`, from each request's own enqueue time; a
//! cache answer never waits for company it does not use.
//!
//! One `Mutex` + `Condvar` pair serves every side. Producers fail fast
//! with backpressure when the queue is at capacity, counting arrivals,
//! requests in their probe and the window alike. Workers prefer
//! arrivals; with none, they block until the [`BatchPlanner`] flushes
//! the window's admissible FIFO prefix ([`Work::Pass`]), waiting out
//! the age bound for an under-full one. Before every decision the queue
//! *sheds* dead entries from both stages — requests whose caller cancelled and
//! requests whose deadline passed while they waited — and answers them
//! with the typed error, so a worker never probes or passes work nobody
//! wants. Closing the queue wakes every waiter; both stages are still
//! drained, and the window flushes without aging, so accepted work is
//! never dropped.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use prism_api::Completion;
use prism_core::{CancelToken, RequestOptions};
use prism_model::SequenceBatch;
use prism_tensor::Tensor;

use crate::request::ServeError;
use crate::scheduler::{BatchPlanner, PlanDecision, QueueItem};
use crate::semantic::SemState;
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
    /// Producer side of the caller's `SelectionHandle`: the reply
    /// transport and progress sink. First completion wins, so the queue
    /// and a worker may race to answer a cancelled request.
    pub reply: Completion,
}

impl Pending {
    /// Why this request is dead at `now`, if it is: a caller
    /// cancellation wins over a passed deadline. Queue sheds and the
    /// worker's pickup filter both ask here.
    pub(crate) fn verdict(&self, now: Instant) -> Option<ServeError> {
        if self.cancel.is_cancelled() {
            Some(ServeError::Cancelled)
        } else if self.deadline.is_some_and(|d| now >= d) {
            Some(ServeError::DeadlineExceeded)
        } else {
            None
        }
    }

    /// Answers the request with a typed error, counted by
    /// `ServeStats::count_failure`. Queue sheds and workers both end up
    /// here.
    pub fn fail(mut self, stats: &ServeStats, err: ServeError) {
        stats.count_failure(&err);
        self.reply.complete(Err(err));
    }
}

/// A request its probe could not answer, waiting in the coalescing
/// window for a weight pass. It holds only what the probe produced —
/// the candidate embedding and the semantic-cache state — and nothing
/// metered: planning (hidden states, spill file) waits for the flush.
#[derive(Debug)]
pub struct Probed {
    /// The request itself.
    pub pending: Pending,
    /// The candidate embedding, when a cache tier needed it (replayed by
    /// the session cache or computed by the probe).
    pub embed: Option<Tensor>,
    /// Semantic-cache bookkeeping when the request engaged that tier.
    pub sem: Option<SemState>,
    /// The session cache replayed the embedding.
    pub embed_replayed: bool,
    /// Microseconds the probe worked on the request, counted as service
    /// time rather than queue time.
    pub probe_us: u64,
}

/// What a worker takes from the queue.
// A `Work` only moves from the queue to its worker; boxing the request
// would cost an allocation per arrival for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Work {
    /// An arrival to run through the cache tiers; the worker settles it
    /// with [`SubmissionQueue::answered_by_probe`] or
    /// [`SubmissionQueue::wait_for_pass`].
    Probe(Pending),
    /// A flushed prefix of the coalescing window, oldest first: one
    /// weight pass.
    Pass(Vec<Probed>),
}

struct QueueState {
    /// Accepted requests no worker has probed yet, in arrival order.
    arrivals: VecDeque<Pending>,
    /// Requests handed out by [`Work::Probe`] and not yet settled.
    probing: usize,
    /// The coalescing window, in enqueue order.
    window: VecDeque<Probed>,
    closed: bool,
}

impl QueueState {
    /// Every accepted request not yet answered or taken into a pass.
    fn depth(&self) -> usize {
        self.arrivals.len() + self.probing + self.window.len()
    }
}

/// Bounded MPMC queue with a probe stage and a planner-driven
/// coalescing window.
pub struct SubmissionQueue {
    state: Mutex<QueueState>,
    notify: Condvar,
    capacity: usize,
    stats: ServeStats,
    workers: usize,
    /// Clock origin for planner timestamps: the planner is a pure
    /// function of `(snapshot, now_micros)` with both measured against
    /// this epoch.
    epoch: Instant,
}

impl SubmissionQueue {
    /// Creates a queue holding at most `capacity` pending requests
    /// across both stages; `stats` receives depth updates and shed
    /// counts, and `workers` scales the backpressure retry hint.
    pub fn new(capacity: usize, stats: ServeStats, workers: usize) -> Self {
        SubmissionQueue {
            state: Mutex::new(QueueState {
                arrivals: VecDeque::with_capacity(capacity),
                probing: 0,
                window: VecDeque::with_capacity(capacity),
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
    /// at or before the epoch — admission always happens after it;
    /// `u64::MAX` for a deadline too far out to count, which must not
    /// wrap into the past).
    fn micros_since_epoch(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue lock")
    }

    /// Enqueues a request, failing fast when full or closed.
    pub fn push(&self, pending: Pending) -> Result<(), ServeError> {
        let mut state = self.lock();
        if state.closed {
            return Err(ServeError::ShuttingDown);
        }
        if state.depth() >= self.capacity {
            // Dead entries (cancelled / expired while no worker was
            // popping) must not hold capacity against live work.
            self.shed_dead(&mut state, Instant::now());
        }
        let depth = state.depth();
        if depth >= self.capacity {
            return Err(ServeError::Backpressure {
                capacity: self.capacity,
                queue_depth: depth,
                retry_after: self
                    .stats
                    .retry_after_hint(depth, self.workers)
                    .min(std::time::Duration::from_secs(1)),
            });
        }
        state.arrivals.push_back(pending);
        self.stats.queue_depth.set(state.depth() as u64);
        drop(state);
        self.notify.notify_all();
        Ok(())
    }

    /// Answers and removes every request of either stage that is
    /// already dead: cancelled by its caller, or past its deadline. The
    /// window goes first: its entries all arrived before any arrival
    /// still waiting.
    fn shed_dead(&self, state: &mut QueueState, now: Instant) {
        shed(&mut state.window, now, &self.stats);
        shed(&mut state.arrivals, now, &self.stats);
        self.stats.queue_depth.set(state.depth() as u64);
    }

    /// Blocks until there is work and takes it: the oldest arrival to
    /// probe, or — with no arrivals — the prefix of the coalescing
    /// window `planner` flushes. Returns `None` once the queue is closed
    /// *and* both stages are drained.
    pub fn next_work(&self, planner: &BatchPlanner) -> Option<Work> {
        let mut state = self.lock();
        loop {
            let now = Instant::now();
            self.shed_dead(&mut state, now);
            if let Some(pending) = state.arrivals.pop_front() {
                state.probing += 1;
                return Some(Work::Probe(pending));
            }
            if state.window.is_empty() {
                if state.closed {
                    return None;
                }
                state = self.notify.wait(state).expect("queue lock");
                continue;
            }
            let now_micros = self.micros_since_epoch(now);
            let snapshot: Vec<QueueItem> = state
                .window
                .iter()
                .map(|probed| {
                    let p = &probed.pending;
                    QueueItem {
                        tokens: p.tokens,
                        enqueued_micros: self.micros_since_epoch(p.enqueued),
                        deadline_micros: p.deadline.map(|d| self.micros_since_epoch(d)),
                    }
                })
                .collect();
            let n = match planner.decide(&snapshot, now_micros) {
                PlanDecision::Flush(n) => n,
                // A closing queue flushes what it has instead of waiting
                // for arrivals that will never come.
                PlanDecision::Wait(_) if state.closed => planner.coalesce(&snapshot),
                PlanDecision::Wait(us) => {
                    state = self
                        .notify
                        .wait_timeout(state, std::time::Duration::from_micros(us))
                        .expect("queue lock")
                        .0;
                    continue;
                }
            };
            let pass = state.window.drain(..n).collect();
            self.stats.queue_depth.set(state.depth() as u64);
            return Some(Work::Pass(pass));
        }
    }

    /// Moves a request taken by [`Work::Probe`] that still needs a
    /// weight pass into the coalescing window, in enqueue order (so its
    /// oldest entry comes first).
    pub fn wait_for_pass(&self, probed: Probed) {
        let mut state = self.lock();
        state.probing -= 1;
        let enqueued = probed.pending.enqueued;
        let at = state
            .window
            .partition_point(|w| w.pending.enqueued <= enqueued);
        state.window.insert(at, probed);
        drop(state);
        self.notify.notify_all();
    }

    /// Releases the slot of a request taken by [`Work::Probe`] that the
    /// probe answers. Called before the reply goes out, so the caller's
    /// next submission never counts it.
    pub fn answered_by_probe(&self) {
        let mut state = self.lock();
        state.probing -= 1;
        self.stats.queue_depth.set(state.depth() as u64);
    }

    /// Marks the queue closed and wakes all waiters. Already-accepted
    /// requests are still served by subsequent [`Self::next_work`] calls.
    pub fn close(&self) {
        self.lock().closed = true;
        self.notify.notify_all();
    }

    /// Requests accepted and not yet answered or taken into a pass:
    /// arrivals, requests in their probe, and the coalescing window.
    pub fn depth(&self) -> usize {
        self.lock().depth()
    }
}

impl AsRef<Pending> for Pending {
    fn as_ref(&self) -> &Pending {
        self
    }
}

impl AsRef<Pending> for Probed {
    fn as_ref(&self) -> &Pending {
        &self.pending
    }
}

impl From<Probed> for Pending {
    fn from(probed: Probed) -> Pending {
        probed.pending
    }
}

/// Answers and removes every entry of one stage that is already dead.
fn shed<T: AsRef<Pending> + Into<Pending>>(
    stage: &mut VecDeque<T>,
    now: Instant,
    stats: &ServeStats,
) {
    let mut i = 0;
    while i < stage.len() {
        match stage[i].as_ref().verdict(now) {
            Some(err) => {
                let dead = stage.remove(i).expect("index in bounds");
                dead.into().fail(stats, err);
            }
            None => i += 1,
        }
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
            reply: completion,
        };
        (p, handle)
    }

    /// What a probe that answers nothing hands back.
    fn probed(pending: Pending) -> Probed {
        Probed {
            pending,
            embed: None,
            sem: None,
            embed_replayed: false,
            probe_us: 0,
        }
    }

    /// Takes every arrival through a probe that answers nothing, then
    /// the first pass.
    fn next_pass(q: &SubmissionQueue, planner: &BatchPlanner) -> Option<Vec<Probed>> {
        loop {
            match q.next_work(planner)? {
                Work::Probe(p) => q.wait_for_pass(probed(p)),
                Work::Pass(pass) => return Some(pass),
            }
        }
    }

    fn tickets(pass: &[Probed]) -> Vec<u64> {
        pass.iter().map(|p| p.pending.ticket).collect()
    }

    /// Takes the next arrival into its probe, leaving it there.
    fn take_probe(q: &SubmissionQueue) -> Pending {
        match q.next_work(&eager_planner(8)) {
            Some(Work::Probe(p)) => p,
            other => panic!("expected an arrival, got {other:?}"),
        }
    }

    fn eager_planner(max_requests: usize) -> BatchPlanner {
        BatchPlanner {
            max_requests,
            max_tokens: usize::MAX,
            max_wait_micros: 0,
        }
    }

    fn patient_planner() -> BatchPlanner {
        BatchPlanner {
            max_wait_micros: u64::MAX,
            ..eager_planner(8)
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
    fn backpressure_counts_both_stages() {
        let stats = ServeStats::new();
        let q = SubmissionQueue::new(2, stats.clone(), 1);
        let (a, _ha) = pending(1, 4);
        let (b, _hb) = pending(2, 4);
        q.push(a).unwrap();
        q.push(b).unwrap();
        // Both in their probes: out of the arrivals, still held.
        let (a, b) = (take_probe(&q), take_probe(&q));
        let (c, _hc) = pending(3, 4);
        assert!(matches!(
            q.push(c),
            Err(ServeError::Backpressure { queue_depth: 2, .. })
        ));
        // Settled out of order, into the window in enqueue order.
        q.wait_for_pass(probed(b));
        q.wait_for_pass(probed(a));
        assert_eq!(q.depth(), 2);
        assert_eq!(stats.queue_depth.get(), 2);
        let (c, _hc) = pending(3, 4);
        assert!(matches!(q.push(c), Err(ServeError::Backpressure { .. })));
        assert_eq!(tickets(&next_pass(&q, &eager_planner(8)).unwrap()), [1, 2]);
        assert_eq!((q.depth(), stats.queue_depth.get()), (0, 0));
        // A probe that answers frees its slot too.
        let (d, _hd) = pending(4, 4);
        q.push(d).unwrap();
        let _d = take_probe(&q);
        q.answered_by_probe();
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn next_work_pops_fifo_prefix() {
        let q = SubmissionQueue::new(8, ServeStats::new(), 1);
        let mut keep = Vec::new();
        for t in 1..=5 {
            let (p, h) = pending(t, 2);
            keep.push(h);
            q.push(p).unwrap();
        }
        assert_eq!(
            tickets(&next_pass(&q, &eager_planner(3)).unwrap()),
            [1, 2, 3]
        );
        assert_eq!(tickets(&next_pass(&q, &eager_planner(3)).unwrap()), [4, 5]);
    }

    #[test]
    fn far_deadline_does_not_wrap_into_an_early_flush() {
        let q = SubmissionQueue::new(8, ServeStats::new(), 1);
        // Some time after the epoch, a deadline of `u64::MAX` µs from now
        // overflows the epoch clock's range: it must read as "never due",
        // not wrap to an instant already passed.
        std::thread::sleep(Duration::from_millis(1));
        let (mut p, _h) = pending(1, 2);
        p.deadline = Some(p.enqueued + Duration::from_micros(u64::MAX));
        let enqueued = p.enqueued;
        q.push(p).unwrap();
        let planner = BatchPlanner {
            max_wait_micros: 20_000,
            ..eager_planner(8)
        };
        // An under-full window with nothing due waits out the age bound.
        assert_eq!(tickets(&next_pass(&q, &planner).unwrap()), [1]);
        assert!(enqueued.elapsed() >= Duration::from_millis(20));
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
        let pass = next_pass(&q, &eager_planner(8)).unwrap();
        assert_eq!(tickets(&pass), [2]);
        assert!(matches!(h1.wait(), Err(ServeError::Cancelled)));
        assert!(h2.poll().is_none(), "live request still unanswered");
        assert_eq!(stats.cancelled.get(), 1);
    }

    #[test]
    fn window_sheds_cancelled_and_expired_with_typed_errors() {
        let stats = ServeStats::new();
        let q = SubmissionQueue::new(8, stats.clone(), 1);
        let (p1, h1) = pending(1, 2);
        let (mut p2, h2) = pending(2, 2);
        p2.deadline = Some(Instant::now() + Duration::from_millis(20));
        let (p3, _h3) = pending(3, 2);
        let cancel = p1.cancel.clone();
        for p in [p1, p2, p3] {
            q.push(p).unwrap();
        }
        for _ in 0..3 {
            let p = take_probe(&q);
            q.wait_for_pass(probed(p));
        }
        // All three wait for a pass; then one caller gives up and one
        // deadline passes.
        cancel.cancel();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(tickets(&next_pass(&q, &eager_planner(8)).unwrap()), [3]);
        assert!(matches!(h1.wait(), Err(ServeError::Cancelled)));
        assert!(matches!(h2.wait(), Err(ServeError::DeadlineExceeded)));
        assert_eq!((stats.cancelled.get(), stats.deadline_missed.get()), (1, 1));
        assert_eq!(q.depth(), 0);
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
        // One dead entry in each stage.
        let p1 = take_probe(&q);
        q.wait_for_pass(probed(p1));
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
        assert_eq!(tickets(&next_pass(&q, &eager_planner(8)).unwrap()), [2]);
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
        let planner = patient_planner();
        assert_eq!(tickets(&next_pass(&q, &planner).unwrap()), [1]);
        assert!(q.next_work(&planner).is_none());
        let (p2, _h2) = pending(2, 2);
        assert!(matches!(q.push(p2), Err(ServeError::ShuttingDown)));
    }

    #[test]
    fn close_flushes_the_window_without_aging() {
        let q = std::sync::Arc::new(SubmissionQueue::new(8, ServeStats::new(), 1));
        let (p, _h) = pending(1, 2);
        q.push(p).unwrap();
        let p = take_probe(&q);
        q.wait_for_pass(probed(p));
        // A worker waits out an unbounded window for company...
        let q2 = q.clone();
        let consumer =
            std::thread::spawn(move || tickets(&next_pass(&q2, &patient_planner()).unwrap()));
        std::thread::sleep(Duration::from_millis(20));
        // ...until the close wakes it and the lone request flushes.
        q.close();
        assert_eq!(consumer.join().unwrap(), [1]);
        assert!(q.next_work(&patient_planner()).is_none());
    }

    #[test]
    fn waiting_consumer_wakes_on_push() {
        let q = std::sync::Arc::new(SubmissionQueue::new(8, ServeStats::new(), 1));
        let q2 = q.clone();
        let consumer =
            std::thread::spawn(move || tickets(&next_pass(&q2, &eager_planner(4)).unwrap()));
        std::thread::sleep(Duration::from_millis(10));
        let (p, _h) = pending(7, 1);
        q.push(p).unwrap();
        assert_eq!(consumer.join().unwrap(), [7]);
    }
}
