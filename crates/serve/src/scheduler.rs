//! The batching policy: when the coalescing window flushes, and how
//! much of it.
//!
//! The planner sees only the *coalescing window* — requests the cache
//! tiers could not answer (see [`crate::queue`]), kept in enqueue order.
//! A cache answer leaves at pickup and never enters it, so the age bound
//! below is how long work that needs a weight pass waits for company,
//! measured from each request's own enqueue time.
//!
//! [`BatchPlanner`] is a pure function from an explicit window snapshot
//! *and clock* to a decision — no hidden wall-clock reads — so its
//! invariants (never exceed the token budget, flush the maximal FIFO
//! prefix, never let the oldest request outwait the age bound) are
//! property-tested directly (`tests/scheduler_props.rs`) without threads
//! or clocks.
//!
//! Every [`QueueItem`] carries absolute microsecond timestamps on the
//! caller's clock: the [`SubmissionQueue`](crate::queue) measures them
//! against its creation epoch. The planner never asks what time it is —
//! `now_micros` is a parameter.
//!
//! ## Policy
//!
//! The window is FIFO. A flush is the maximal *prefix* of the window
//! under the token budget and request cap (never skipping over a too-big
//! request to reach a smaller one behind it; an oversized head still
//! runs as a mandatory singleton), so the queue drains it with one
//! `drain(..n)`. An under-full pass waits for more arrivals until its
//! oldest request reaches the age bound — unless a request in it is due
//! within that bound, in which case it flushes now rather than sit out
//! the wait and be shed. Deadlines decide *when* to flush, never the
//! order: uniform traffic gets exactly the contiguous-FIFO-prefix
//! schedule the serving conformance suite pins bit-identical to direct
//! engine calls.

/// One queued request as the planner sees it. All timestamps are
/// absolute microseconds on the caller's clock (the queue's epoch).
#[derive(Debug, Clone, Copy)]
pub struct QueueItem {
    /// Total packed tokens (the budget unit).
    pub tokens: usize,
    /// When the request entered the queue (absolute microseconds).
    pub enqueued_micros: u64,
    /// Absolute deadline in microseconds (`None` = no deadline). Expired
    /// requests are shed by the queue before planning and never reach
    /// the planner.
    pub deadline_micros: Option<u64>,
}

impl QueueItem {
    /// A deadline-free item (tests, uniform loads).
    pub fn plain(tokens: usize, enqueued_micros: u64) -> Self {
        QueueItem {
            tokens,
            enqueued_micros,
            deadline_micros: None,
        }
    }

    /// Microseconds this item has spent queued as of `now_micros`.
    pub fn age_micros(&self, now_micros: u64) -> u64 {
        now_micros.saturating_sub(self.enqueued_micros)
    }
}

/// What a worker should do with the current window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecision {
    /// Pop the first this-many requests of the window and execute them
    /// as one batch.
    Flush(usize),
    /// Wait at most this many microseconds for more arrivals (the batch
    /// is under-full, nothing in it is due within the age bound, and the
    /// oldest request is still within it), then re-evaluate.
    Wait(u64),
}

/// Coalescing policy parameters.
#[derive(Debug, Clone, Copy)]
pub struct BatchPlanner {
    /// Maximum requests per coalesced batch.
    pub max_requests: usize,
    /// Maximum *total* packed tokens per batch (the §4.3-style memory
    /// budget; a single request larger than the budget still runs, alone).
    pub max_tokens: usize,
    /// Longest a request in the coalescing window may age, counted from
    /// its enqueue, before an under-full pass is flushed anyway, in
    /// microseconds.
    pub max_wait_micros: u64,
}

impl BatchPlanner {
    /// Decides on a window snapshot (oldest first) at an explicit clock
    /// reading.
    ///
    /// Returns [`PlanDecision::Wait`] only when *growing* the batch is
    /// both possible (caps not hit, whole window fits) and permitted
    /// (nothing due within the age bound, oldest request younger than
    /// it).
    pub fn decide(&self, queue: &[QueueItem], now_micros: u64) -> PlanDecision {
        assert!(!queue.is_empty(), "decide() needs a non-empty queue");
        let n = self.coalesce(queue);
        let tokens: usize = queue[..n].iter().map(|q| q.tokens).sum();
        let could_grow =
            n == queue.len() && n < self.max_requests.max(1) && tokens < self.max_tokens;
        let due = queue.iter().any(|q| {
            q.deadline_micros
                .is_some_and(|d| d <= now_micros.saturating_add(self.max_wait_micros))
        });
        if could_grow && !due {
            let oldest_age = queue[0].age_micros(now_micros);
            if oldest_age < self.max_wait_micros {
                return PlanDecision::Wait(self.max_wait_micros - oldest_age);
            }
        }
        PlanDecision::Flush(n)
    }

    /// Length of the maximal admissible FIFO prefix (at least one
    /// request: an oversized head forms a mandatory singleton).
    pub fn coalesce(&self, queue: &[QueueItem]) -> usize {
        let mut tokens = 0_usize;
        let mut n = 0;
        for q in queue.iter().take(self.max_requests.max(1)) {
            if n > 0 && tokens + q.tokens > self.max_tokens {
                break;
            }
            tokens += q.tokens;
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed clock reading: items are described by *age* below and
    /// converted to absolute enqueue times against this instant, which
    /// keeps the scenarios readable while exercising the explicit-clock
    /// API.
    const NOW: u64 = 1_000_000;

    fn planner() -> BatchPlanner {
        BatchPlanner {
            max_requests: 4,
            max_tokens: 100,
            max_wait_micros: 1_000,
        }
    }

    /// Builds items from `(tokens, age_micros)` pairs at the `NOW` clock.
    fn plain(queue: &[(usize, u64)]) -> Vec<QueueItem> {
        queue
            .iter()
            .map(|&(t, age)| QueueItem::plain(t, NOW - age))
            .collect()
    }

    /// Absolute deadline `remaining` microseconds past `NOW`.
    fn due_in(remaining: u64) -> Option<u64> {
        Some(NOW + remaining)
    }

    #[test]
    fn full_batch_flushes_immediately() {
        let q = plain(&[(30, 0), (30, 0), (30, 0), (30, 0), (30, 0)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(3));
    }

    #[test]
    fn request_cap_limits_prefix() {
        let q = plain(&[(1, 0); 10]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(4));
    }

    #[test]
    fn underfull_young_queue_waits_out_remaining_age() {
        let q = plain(&[(10, 400)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Wait(600));
    }

    #[test]
    fn aged_head_flushes_underfull_batch() {
        let q = plain(&[(10, 1_000)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(1));
        let q = plain(&[(10, 5_000), (10, 100)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(2));
    }

    #[test]
    fn oversized_request_runs_alone() {
        let q = plain(&[(500, 0), (10, 0)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(1));
    }

    #[test]
    fn budget_is_respected_midway() {
        // 60 + 30 fits, adding 20 would overflow 100.
        let q = plain(&[(60, 0), (30, 0), (20, 0)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(2));
    }

    #[test]
    fn exact_budget_fill_flushes() {
        let q = plain(&[(50, 0), (50, 0)]);
        // Budget exactly consumed: nothing more could join, flush now.
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(2));
    }

    #[test]
    fn urgent_work_never_waits() {
        // A request due within the age bound flushes now instead of
        // waiting out the bound and being shed...
        let mut q = plain(&[(10, 0), (10, 0)]);
        q[1].deadline_micros = due_in(500);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(2));
        // ...and one due after it waits like any other.
        q[1].deadline_micros = due_in(5_000);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Wait(1_000));
    }

    #[test]
    fn decisions_are_translation_invariant() {
        // Shifting every timestamp and the clock by the same offset must
        // not change any decision: the planner only consumes differences.
        let mut q = plain(&[(30, 700), (30, 20), (10, 0)]);
        q[2].deadline_micros = due_in(4_000);
        let shifted: Vec<QueueItem> = q
            .iter()
            .map(|item| QueueItem {
                enqueued_micros: item.enqueued_micros + 123_456,
                deadline_micros: item.deadline_micros.map(|d| d + 123_456),
                ..*item
            })
            .collect();
        let p = planner();
        assert_eq!(p.decide(&q, NOW), p.decide(&shifted, NOW + 123_456));
    }
}
