//! The batching policy: which requests share the next weight pass.
//!
//! The planner sees only the *coalescing window* — requests the cache
//! tiers could not answer (see [`crate::queue`]). A cache answer leaves
//! at pickup and never enters it, so the age bound below is how long
//! work that needs a weight pass waits for company, measured from each
//! request's own enqueue time.
//!
//! [`BatchPlanner`] is a pure function from an explicit window snapshot
//! *and clock* to a decision — no hidden wall-clock reads — so its
//! invariants — never exceed the token budget, never starve a request
//! past the starvation bound, honour priority-then-EDF order, degrade to
//! a contiguous FIFO prefix for uniform workloads — are property-tested
//! directly (`tests/scheduler_props.rs`) without threads or clocks.
//!
//! Every [`QueueItem`] carries absolute microsecond timestamps on the
//! caller's clock: the [`SubmissionQueue`](crate::queue) measures them
//! against its creation epoch. The planner never asks what time it is —
//! `now_micros` is a parameter. What follows a decision — the inversion
//! count and draining the flush set — is `BatchPlanner::pop`, which the
//! queue calls over its window.
//!
//! ## Policy
//!
//! Admission order is **priority, then earliest deadline, then FIFO**:
//!
//! 1. *Starvation guard*: any request older than
//!    [`BatchPlanner::starvation_age_micros`] outranks everything (FIFO
//!    among the starved), so sustained high-priority load cannot park
//!    bulk work forever.
//! 2. [`Priority::High`] before [`Priority::Normal`] before
//!    [`Priority::Bulk`].
//! 3. Within a class, requests with deadlines run earliest-deadline-first
//!    ahead of deadline-free ones.
//! 4. Ties keep submission order (the sort is stable), which makes the
//!    policy collapse to exactly the historical contiguous-FIFO-prefix
//!    behaviour when every request shares one class and no deadlines —
//!    the case the serving conformance suite pins bit-identical to
//!    direct engine calls.
//!
//! The flush set is the maximal *prefix of that order* under the token
//! budget and request cap (never skipping over a too-big request to
//! reach a smaller one behind it; an oversized head still runs as a
//! mandatory singleton). An under-full batch waits out the age bound for
//! more arrivals unless something urgent (a `High` request, or a
//! deadline tighter than the bound) is queued.

use std::collections::VecDeque;

use prism_core::Priority;

use crate::queue::Probed;
use crate::stats::ServeStats;

/// One queued request as the planner sees it. All timestamps are
/// absolute microseconds on the caller's clock (the queue's epoch).
#[derive(Debug, Clone, Copy)]
pub struct QueueItem {
    /// Total packed tokens (the budget unit).
    pub tokens: usize,
    /// When the request entered the queue (absolute microseconds).
    pub enqueued_micros: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Absolute deadline in microseconds (`None` = no deadline). Expired
    /// requests are shed by the queue before planning and never reach
    /// the planner.
    pub deadline_micros: Option<u64>,
}

impl QueueItem {
    /// A deadline-free item of the default class (tests, uniform loads).
    pub fn plain(tokens: usize, enqueued_micros: u64) -> Self {
        QueueItem {
            tokens,
            enqueued_micros,
            priority: Priority::Normal,
            deadline_micros: None,
        }
    }

    /// Microseconds this item has spent queued as of `now_micros`.
    pub fn age_micros(&self, now_micros: u64) -> u64 {
        now_micros.saturating_sub(self.enqueued_micros)
    }
}

/// What a worker should do with the current queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecision {
    /// Pop these queue positions (in scheduling order) and execute them
    /// as one batch.
    Flush(Vec<usize>),
    /// Wait at most this many microseconds for more arrivals (the batch
    /// is under-full, nothing urgent is queued, and the oldest request
    /// is still within the age bound), then re-evaluate.
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
    /// Age past which a request outranks every scheduling class (the
    /// anti-starvation guard of the priority policy).
    pub starvation_age_micros: u64,
    /// `false` ignores priorities and deadlines entirely — the historical
    /// pure-FIFO scheduler.
    pub priority_aware: bool,
}

impl BatchPlanner {
    /// The scheduling order: queue positions sorted priority-then-EDF
    /// with the starvation guard; pure FIFO when `priority_aware` is off.
    pub fn order(&self, queue: &[QueueItem], now_micros: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..queue.len()).collect();
        if !self.priority_aware {
            return order;
        }
        // Stable sort: ties (same class, same deadline presence) keep
        // submission order, so a uniform queue stays exactly FIFO.
        // Starved requests neutralize their class and deadline keys —
        // they run strictly FIFO among themselves (the oldest wait ends
        // first), ahead of everything unstarved. Absolute deadlines sort
        // identically to deadline slack: `now` is common to the snapshot.
        order.sort_by_key(|&i| {
            let q = &queue[i];
            let starved = q.age_micros(now_micros) >= self.starvation_age_micros;
            if starved {
                (false, std::cmp::Reverse(Priority::High), 0)
            } else {
                (
                    true,
                    std::cmp::Reverse(q.priority),
                    q.deadline_micros.unwrap_or(u64::MAX),
                )
            }
        });
        order
    }

    /// Decides on a queue snapshot (front of the queue first) at an
    /// explicit clock reading.
    ///
    /// Returns [`PlanDecision::Wait`] only when *growing* the batch is
    /// both possible (caps not hit, whole queue fits) and permitted (no
    /// urgent work queued, oldest request younger than the age bound).
    pub fn decide(&self, queue: &[QueueItem], now_micros: u64) -> PlanDecision {
        assert!(!queue.is_empty(), "decide() needs a non-empty queue");
        let flush = self.coalesce(queue, now_micros);

        let tokens: usize = flush.iter().map(|&i| queue[i].tokens).sum();
        let could_grow = flush.len() == queue.len()
            && flush.len() < self.max_requests.max(1)
            && tokens < self.max_tokens;
        if could_grow && !self.has_urgent(queue, now_micros) {
            // The queue is FIFO by arrival, so position 0 is oldest.
            let oldest_age = queue[0].age_micros(now_micros);
            if oldest_age < self.max_wait_micros {
                return PlanDecision::Wait(self.max_wait_micros - oldest_age);
            }
        }
        PlanDecision::Flush(flush)
    }

    /// The maximal admissible prefix of the scheduling order (at least
    /// one request: an oversized head forms a mandatory singleton).
    pub fn coalesce(&self, queue: &[QueueItem], now_micros: u64) -> Vec<usize> {
        let max_requests = self.max_requests.max(1);
        let order = self.order(queue, now_micros);
        let mut flush = Vec::new();
        let mut tokens = 0_usize;
        for &i in order.iter().take(max_requests) {
            if !flush.is_empty() && tokens + queue[i].tokens > self.max_tokens {
                break;
            }
            tokens += queue[i].tokens;
            flush.push(i);
        }
        flush
    }

    /// The post-decision half of
    /// [`SubmissionQueue::next_work`](crate::queue::SubmissionQueue::next_work):
    /// counts a priority inversion when the starvation guard admitted
    /// `take` past a higher-priority waiter, and drains the `take`
    /// positions of `window` (whose `snapshot` was planned) in
    /// scheduling order.
    pub(crate) fn pop(
        &self,
        window: &mut VecDeque<Probed>,
        snapshot: &[QueueItem],
        take: &[usize],
        stats: &ServeStats,
    ) -> Vec<Probed> {
        // Only meaningful under the priority policy — the FIFO baseline
        // ignores priorities by design and would report noise.
        if self.priority_aware {
            let floor = take
                .iter()
                .map(|&i| snapshot[i].priority)
                .min()
                .unwrap_or(Priority::Bulk);
            let waiting_above =
                (0..snapshot.len()).any(|i| !take.contains(&i) && snapshot[i].priority > floor);
            if waiting_above {
                stats.priority_inversions.inc();
            }
        }
        let mut slots: Vec<Option<Probed>> = take.iter().map(|_| None).collect();
        let mut kept = VecDeque::with_capacity(window.len());
        for (pos, item) in window.drain(..).enumerate() {
            match take.iter().position(|&t| t == pos) {
                Some(slot) => slots[slot] = Some(item),
                None => kept.push_back(item),
            }
        }
        *window = kept;
        slots
            .into_iter()
            .map(|item| item.expect("selected position drained"))
            .collect()
    }

    /// Whether anything queued should not wait out the age bound: a
    /// `High`-priority request, or a deadline due within the bound.
    fn has_urgent(&self, queue: &[QueueItem], now_micros: u64) -> bool {
        self.priority_aware
            && queue.iter().any(|q| {
                q.priority == Priority::High
                    || q.deadline_micros
                        .is_some_and(|d| d <= now_micros.saturating_add(self.max_wait_micros))
            })
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
            starvation_age_micros: 50_000,
            priority_aware: true,
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
        assert_eq!(
            planner().decide(&q, NOW),
            PlanDecision::Flush(vec![0, 1, 2])
        );
    }

    #[test]
    fn request_cap_limits_prefix() {
        let q = plain(&[(1, 0); 10]);
        assert_eq!(
            planner().decide(&q, NOW),
            PlanDecision::Flush(vec![0, 1, 2, 3])
        );
    }

    #[test]
    fn underfull_young_queue_waits_out_remaining_age() {
        let q = plain(&[(10, 400)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Wait(600));
    }

    #[test]
    fn aged_head_flushes_underfull_batch() {
        let q = plain(&[(10, 1_000)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0]));
        let q = plain(&[(10, 5_000), (10, 100)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0, 1]));
    }

    #[test]
    fn oversized_request_runs_alone() {
        let q = plain(&[(500, 0), (10, 0)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0]));
    }

    #[test]
    fn budget_is_respected_midway() {
        // 60 + 30 fits, adding 20 would overflow 100.
        let q = plain(&[(60, 0), (30, 0), (20, 0)]);
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0, 1]));
    }

    #[test]
    fn exact_budget_fill_flushes() {
        let q = plain(&[(50, 0), (50, 0)]);
        // Budget exactly consumed: nothing more could join, flush now.
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0, 1]));
    }

    #[test]
    fn high_priority_jumps_the_queue() {
        let mut q = plain(&[(30, 30), (30, 20), (30, 10), (30, 0), (30, 0)]);
        q[3].priority = Priority::High;
        assert_eq!(
            planner().decide(&q, NOW),
            PlanDecision::Flush(vec![3, 0, 1])
        );
    }

    #[test]
    fn bulk_yields_to_normal() {
        let mut q = plain(&[(30, 10), (30, 5), (30, 0)]);
        q[0].priority = Priority::Bulk;
        // Normal before Bulk, FIFO within class; the batch is full at
        // three requests only if the budget allows — 90 <= 100, and the
        // whole queue fits, so it waits for more arrivals.
        assert_eq!(planner().order(&q, NOW), vec![1, 2, 0]);
    }

    #[test]
    fn edf_orders_within_a_class() {
        let mut q = plain(&[(10, 0), (10, 0), (10, 0)]);
        q[0].deadline_micros = due_in(9_000);
        q[2].deadline_micros = due_in(4_000);
        // Deadline-bearing first (EDF), deadline-free last.
        assert_eq!(planner().order(&q, NOW), vec![2, 0, 1]);
    }

    #[test]
    fn starved_bulk_outranks_fresh_high() {
        let mut q = plain(&[(10, 60_000), (10, 0)]);
        q[0].priority = Priority::Bulk;
        q[1].priority = Priority::High;
        assert_eq!(planner().order(&q, NOW), vec![0, 1]);
    }

    #[test]
    fn starved_requests_run_fifo_among_themselves() {
        // Submission order: starved Bulk, starved High (with a tight
        // deadline), fresh High. The starved pair keeps FIFO order —
        // class and deadline are neutralized past the starvation bound,
        // so the longest wait ends first.
        let mut q = plain(&[(10, 70_000), (10, 60_000), (10, 0)]);
        q[0].priority = Priority::Bulk;
        q[1].priority = Priority::High;
        q[1].deadline_micros = due_in(5);
        q[2].priority = Priority::High;
        assert_eq!(planner().order(&q, NOW), vec![0, 1, 2]);
    }

    #[test]
    fn urgent_work_never_waits() {
        let mut q = plain(&[(10, 0)]);
        q[0].priority = Priority::High;
        // A lone High request flushes instead of aging toward a batch.
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0]));
        let mut q = plain(&[(10, 0)]);
        q[0].deadline_micros = due_in(500); // due within the age bound
        assert_eq!(planner().decide(&q, NOW), PlanDecision::Flush(vec![0]));
    }

    #[test]
    fn fifo_mode_ignores_priorities() {
        let mut q = plain(&[(30, 0), (30, 0)]);
        q[1].priority = Priority::High;
        let fifo = BatchPlanner {
            priority_aware: false,
            max_wait_micros: 0,
            ..planner()
        };
        assert_eq!(fifo.decide(&q, NOW), PlanDecision::Flush(vec![0, 1]));
        assert_eq!(fifo.order(&q, NOW), vec![0, 1]);
    }

    #[test]
    fn decisions_are_translation_invariant() {
        // Shifting every timestamp and the clock by the same offset must
        // not change any decision: the planner only consumes differences.
        let mut q = plain(&[(30, 700), (30, 20), (10, 0)]);
        q[1].priority = Priority::Bulk;
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
        assert_eq!(p.order(&q, NOW), p.order(&shifted, NOW + 123_456));
        assert_eq!(p.decide(&q, NOW), p.decide(&shifted, NOW + 123_456));
    }
}
