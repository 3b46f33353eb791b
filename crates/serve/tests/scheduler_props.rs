//! Property tests for the priority-then-EDF scheduler invariants:
//!
//! 1. coalesced batches never exceed the token budget (except a
//!    mandatory singleton for an oversized request) or the request cap,
//! 2. the flush set is a maximal prefix of the scheduling order
//!    (priority, then earliest deadline, then FIFO),
//! 3. with a uniform queue (one class, no deadlines) the policy is
//!    exactly the historical contiguous FIFO prefix — the property the
//!    serving conformance suite's bit-identical guarantee rides on,
//! 4. no request starves: anything older than the starvation bound
//!    outranks every class,
//! 5. waiting is only allowed when the whole queue fits, nothing is
//!    urgent, and the oldest request is inside the age bound,
//! 6. the explicit-clock API is exactly equivalent to the historical
//!    age-based planner (the refactor to an explicit clock changed no
//!    decisions).

use prism_core::Priority;
use prism_serve::{BatchPlanner, PlanDecision, QueueItem};
use proptest::prelude::*;

/// The clock reading every scenario below is evaluated at. Raw tuples
/// describe items by *age* and *deadline slack*; `items` converts them
/// to the absolute timestamps the planner consumes.
const NOW: u64 = 10_000_000;

/// Builds queue items from flat tuples: `(tokens, age, class, slack)`
/// with `class % 3` mapping to a priority and `slack == 0` meaning no
/// deadline (otherwise the deadline is `slack` microseconds past `NOW`).
fn items(raw: &[(usize, u64, u8, u64)]) -> Vec<QueueItem> {
    raw.iter()
        .map(|&(tokens, age_micros, class, slack)| QueueItem {
            tokens,
            enqueued_micros: NOW - age_micros,
            priority: match class % 3 {
                0 => Priority::Bulk,
                1 => Priority::Normal,
                _ => Priority::High,
            },
            deadline_micros: (slack > 0).then_some(NOW + slack),
        })
        .collect()
}

/// The reference FIFO-prefix policy (the pre-priority scheduler).
fn fifo_prefix(queue: &[QueueItem], max_requests: usize, max_tokens: usize) -> usize {
    let mut tokens = 0_usize;
    let mut n = 0_usize;
    for q in queue.iter().take(max_requests.max(1)) {
        if n > 0 && tokens + q.tokens > max_tokens {
            break;
        }
        tokens += q.tokens;
        n += 1;
    }
    n.max(1)
}

/// The historical age-based planner, reproduced verbatim from the
/// pre-refactor implementation (ages and deadline slacks precomputed by
/// the caller at snapshot time). The regression property below pins the
/// explicit-clock planner to this oracle, proving the refactor changed
/// no server behaviour.
mod oracle {
    use prism_core::Priority;

    pub struct AgedItem {
        pub tokens: usize,
        pub age_micros: u64,
        pub priority: Priority,
        /// Microseconds *until* the deadline (the old convention).
        pub remaining_micros: Option<u64>,
    }

    pub struct AgedPlanner {
        pub max_requests: usize,
        pub max_tokens: usize,
        pub max_wait_micros: u64,
        pub starvation_age_micros: u64,
        pub priority_aware: bool,
    }

    #[derive(Debug)]
    pub enum AgedDecision {
        Flush(Vec<usize>),
        Wait(u64),
    }

    impl AgedPlanner {
        pub fn order(&self, queue: &[AgedItem]) -> Vec<usize> {
            let mut order: Vec<usize> = (0..queue.len()).collect();
            if !self.priority_aware {
                return order;
            }
            order.sort_by_key(|&i| {
                let q = &queue[i];
                let starved = q.age_micros >= self.starvation_age_micros;
                if starved {
                    (false, std::cmp::Reverse(Priority::High), 0)
                } else {
                    (
                        true,
                        std::cmp::Reverse(q.priority),
                        q.remaining_micros.unwrap_or(u64::MAX),
                    )
                }
            });
            order
        }

        pub fn decide(&self, queue: &[AgedItem]) -> AgedDecision {
            let flush = self.coalesce(queue);
            let tokens: usize = flush.iter().map(|&i| queue[i].tokens).sum();
            let could_grow = flush.len() == queue.len()
                && flush.len() < self.max_requests.max(1)
                && tokens < self.max_tokens;
            if could_grow && !self.has_urgent(queue) {
                let oldest_age = queue[0].age_micros;
                if oldest_age < self.max_wait_micros {
                    return AgedDecision::Wait(self.max_wait_micros - oldest_age);
                }
            }
            AgedDecision::Flush(flush)
        }

        fn coalesce(&self, queue: &[AgedItem]) -> Vec<usize> {
            let max_requests = self.max_requests.max(1);
            let order = self.order(queue);
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

        fn has_urgent(&self, queue: &[AgedItem]) -> bool {
            self.priority_aware
                && queue.iter().any(|q| {
                    q.priority == Priority::High
                        || q.remaining_micros
                            .is_some_and(|d| d <= self.max_wait_micros)
                })
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budget_and_caps_respected(
        raw in prop::collection::vec(
            (1_usize..400, 0_u64..5_000, 0_u8..3, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
        max_wait in 0_u64..3_000,
    ) {
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
            starvation_age_micros: 4_000,
            priority_aware: true,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(set) => {
                prop_assert!(!set.is_empty(), "a non-empty queue must never flush nothing");
                prop_assert!(set.len() <= queue.len());
                prop_assert!(set.len() <= max_requests, "request cap violated");
                let mut sorted = set.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), set.len(), "duplicate positions in flush set");
                prop_assert!(*sorted.last().unwrap() < queue.len(), "position out of range");
                let tokens: usize = set.iter().map(|&i| queue[i].tokens).sum();
                // The token budget may only be exceeded by a mandatory
                // singleton (one request alone larger than the budget).
                prop_assert!(
                    tokens <= max_tokens || set.len() == 1,
                    "token budget violated: {} > {} with n={}",
                    tokens, max_tokens, set.len()
                );
            }
            PlanDecision::Wait(w) => {
                // Waiting is only allowed while the whole queue fits and
                // could still grow...
                let total: usize = queue.iter().map(|q| q.tokens).sum();
                prop_assert!(queue.len() < max_requests);
                prop_assert!(total < max_tokens);
                // ...nothing urgent is queued...
                for q in &queue {
                    prop_assert!(q.priority != Priority::High, "High must not wait");
                    prop_assert!(
                        q.deadline_micros.is_none_or(|d| d > NOW + max_wait),
                        "deadline inside the bound must not wait"
                    );
                }
                // ...and never beyond the age bound of the oldest request.
                let oldest = queue[0].age_micros(NOW);
                prop_assert!(oldest < max_wait, "aged request must flush, not wait");
                prop_assert_eq!(oldest + w, max_wait, "wait must end exactly at the bound");
            }
        }
    }

    #[test]
    fn flush_is_a_maximal_prefix_of_the_scheduling_order(
        raw in prop::collection::vec(
            (1_usize..400, 0_u64..5_000, 0_u8..3, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
    ) {
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: 0,
            starvation_age_micros: 4_000,
            priority_aware: true,
        };
        let order = planner.order(&queue, NOW);
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(set) => {
                // The flush set is a *prefix* of the scheduling order:
                // the planner never skips over an inadmissible request
                // to admit one scheduled behind it.
                prop_assert_eq!(&set[..], &order[..set.len()],
                    "flush set must be the leading slice of the order");
                if set.len() < order.len() && set.len() < max_requests {
                    let tokens: usize = set.iter().map(|&i| queue[i].tokens).sum();
                    let next = queue[order[set.len()]].tokens;
                    prop_assert!(
                        tokens + next > max_tokens,
                        "prefix not maximal: {} + {} <= {}", tokens, next, max_tokens
                    );
                }
            }
            PlanDecision::Wait(_) => prop_assert!(false, "zero wait allowance must flush"),
        }
    }

    #[test]
    fn uniform_queue_degrades_to_exact_fifo_prefix(
        raw in prop::collection::vec((1_usize..400, 0_u64..3_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
    ) {
        // One class, no deadlines, nobody starved: the priority policy
        // must be indistinguishable from the historical FIFO scheduler.
        let queue: Vec<QueueItem> =
            raw.iter().map(|&(t, a)| QueueItem::plain(t, NOW - a)).collect();
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: 0,
            starvation_age_micros: 1_000_000,
            priority_aware: true,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(set) => {
                let expected: Vec<usize> =
                    (0..fifo_prefix(&queue, max_requests, max_tokens)).collect();
                prop_assert_eq!(set, expected, "uniform load must stay pure FIFO");
            }
            PlanDecision::Wait(_) => prop_assert!(false, "zero wait allowance must flush"),
        }
    }

    #[test]
    fn priority_order_is_priority_then_edf_then_fifo(
        raw in prop::collection::vec(
            (1_usize..400, 0_u64..3_000, 0_u8..3, 0_u64..8_000), 2..24),
    ) {
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests: 8,
            max_tokens: 600,
            max_wait_micros: 0,
            starvation_age_micros: u64::MAX,
            priority_aware: true,
        };
        let order = planner.order(&queue, NOW);
        for pair in order.windows(2) {
            let (a, b) = (&queue[pair[0]], &queue[pair[1]]);
            // Priority classes never interleave out of order...
            prop_assert!(a.priority >= b.priority,
                "{:?} scheduled after {:?}", b.priority, a.priority);
            if a.priority == b.priority {
                // ...EDF within a class (None = infinitely late)...
                let da = a.deadline_micros.unwrap_or(u64::MAX);
                let db = b.deadline_micros.unwrap_or(u64::MAX);
                prop_assert!(da <= db, "EDF violated: {da} after {db}");
                // ...and FIFO on exact ties.
                if da == db {
                    prop_assert!(pair[0] < pair[1], "FIFO tie-break violated");
                }
            }
        }
    }

    #[test]
    fn aged_head_never_waits(
        raw in prop::collection::vec(
            (1_usize..400, 0_u64..5_000, 0_u8..3, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
        max_wait in 0_u64..2_000,
    ) {
        // Force the head request to be at (or past) the age bound.
        let mut raw = raw;
        raw[0].1 = max_wait + raw[0].1 % 7;
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
            starvation_age_micros: 1_000_000,
            priority_aware: true,
        };
        prop_assert!(
            matches!(planner.decide(&queue, NOW), PlanDecision::Flush(_)),
            "a request at the age bound must be flushed"
        );
    }

    #[test]
    fn starved_requests_are_admitted_first(
        raw in prop::collection::vec(
            (1_usize..100, 0_u64..5_000, 0_u8..3, 0_u64..8_000), 1..24),
        starved_at in 0_usize..24,
    ) {
        let mut raw = raw;
        let starved_at = starved_at % raw.len();
        raw[starved_at].1 = 60_000; // far past the starvation bound
        raw[starved_at].2 = 0; // even as Bulk
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests: 4,
            max_tokens: 600,
            max_wait_micros: 0,
            starvation_age_micros: 50_000,
            priority_aware: true,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(set) => prop_assert!(
                set.contains(&starved_at),
                "starved request {} missing from flush set {:?}", starved_at, set
            ),
            PlanDecision::Wait(_) => prop_assert!(false, "zero wait allowance must flush"),
        }
    }

    /// The satellite regression proof for the explicit-clock refactor:
    /// for every snapshot, planner shape, and clock reading, the new API
    /// produces exactly the decisions the historical age-based planner
    /// produced on the equivalent precomputed-age snapshot — in both
    /// priority and FIFO modes.
    #[test]
    fn explicit_clock_matches_age_based_oracle(
        raw in prop::collection::vec(
            (1_usize..400, 0_u64..80_000, 0_u8..3, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
        max_wait in 0_u64..3_000,
        starvation_age in 1_u64..70_000,
        priority_mode in 0_u8..2,
        clock_offset in 0_u64..1_000_000_000,
    ) {
        let priority_aware = priority_mode == 1;
        let now = NOW + clock_offset;
        let queue: Vec<QueueItem> = raw
            .iter()
            .map(|&(tokens, age, class, slack)| QueueItem {
                tokens,
                enqueued_micros: now - age,
                priority: match class % 3 {
                    0 => Priority::Bulk,
                    1 => Priority::Normal,
                    _ => Priority::High,
                },
                deadline_micros: (slack > 0).then_some(now + slack),
            })
            .collect();
        let aged: Vec<oracle::AgedItem> = raw
            .iter()
            .zip(&queue)
            .map(|(&(tokens, age, _, slack), q)| oracle::AgedItem {
                tokens,
                age_micros: age,
                priority: q.priority,
                remaining_micros: (slack > 0).then_some(slack),
            })
            .collect();
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
            starvation_age_micros: starvation_age,
            priority_aware,
        };
        let reference = oracle::AgedPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
            starvation_age_micros: starvation_age,
            priority_aware,
        };
        prop_assert_eq!(
            planner.order(&queue, now),
            reference.order(&aged),
            "scheduling order diverged from the age-based oracle"
        );
        match (planner.decide(&queue, now), reference.decide(&aged)) {
            (PlanDecision::Flush(a), oracle::AgedDecision::Flush(b)) =>
                prop_assert_eq!(a, b, "flush set diverged from the oracle"),
            (PlanDecision::Wait(a), oracle::AgedDecision::Wait(b)) =>
                prop_assert_eq!(a, b, "wait allowance diverged from the oracle"),
            (got, want) => prop_assert!(
                false, "decision kind diverged: got {:?}, oracle {:?}", got, want
            ),
        }
    }
}
