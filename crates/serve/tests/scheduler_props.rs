//! Property tests for the FIFO coalescing window's invariants:
//!
//! 1. coalesced batches never exceed the token budget (except a
//!    mandatory singleton for an oversized request) or the request cap,
//! 2. the flush is a maximal prefix of the window,
//! 3. whatever the deadlines, every flush is exactly the contiguous FIFO
//!    prefix under the caps — the property the serving conformance
//!    suite's bit-identical guarantee rides on; deadlines decide when a
//!    window flushes, never its order,
//! 4. waiting is only allowed when the whole window fits, nothing in it
//!    is due within the age bound, and the oldest request is inside
//!    that bound,
//! 5. the explicit-clock API is exactly equivalent to an age-based
//!    planner fed precomputed ages and deadline slacks (decisions depend
//!    on clock differences only).

use prism_serve::{BatchPlanner, PlanDecision, QueueItem};
use proptest::prelude::*;

/// The clock reading every scenario below is evaluated at. Raw tuples
/// describe items by *age* and *deadline slack*; `items` converts them
/// to the absolute timestamps the planner consumes.
const NOW: u64 = 10_000_000;

/// Builds queue items from flat tuples: `(tokens, age, slack)` with
/// `slack == 0` meaning no deadline (otherwise the deadline is `slack`
/// microseconds past `NOW`).
fn items(raw: &[(usize, u64, u64)]) -> Vec<QueueItem> {
    raw.iter()
        .map(|&(tokens, age_micros, slack)| QueueItem {
            tokens,
            enqueued_micros: NOW - age_micros,
            deadline_micros: (slack > 0).then_some(NOW + slack),
        })
        .collect()
}

/// The reference FIFO-prefix length.
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

/// An age-based planner: ages and deadline slacks precomputed by the
/// caller at snapshot time. The regression property below pins the
/// explicit-clock planner to this oracle.
mod oracle {
    pub struct AgedItem {
        pub tokens: usize,
        pub age_micros: u64,
        /// Microseconds *until* the deadline.
        pub remaining_micros: Option<u64>,
    }

    pub struct AgedPlanner {
        pub max_requests: usize,
        pub max_tokens: usize,
        pub max_wait_micros: u64,
    }

    #[derive(Debug)]
    pub enum AgedDecision {
        Flush(usize),
        Wait(u64),
    }

    impl AgedPlanner {
        pub fn decide(&self, queue: &[AgedItem]) -> AgedDecision {
            let mut n = 0;
            let mut tokens = 0_usize;
            for q in queue.iter().take(self.max_requests.max(1)) {
                if n > 0 && tokens + q.tokens > self.max_tokens {
                    break;
                }
                tokens += q.tokens;
                n += 1;
            }
            let could_grow =
                n == queue.len() && n < self.max_requests.max(1) && tokens < self.max_tokens;
            let due = queue.iter().any(|q| {
                q.remaining_micros
                    .is_some_and(|d| d <= self.max_wait_micros)
            });
            if could_grow && !due {
                let oldest_age = queue[0].age_micros;
                if oldest_age < self.max_wait_micros {
                    return AgedDecision::Wait(self.max_wait_micros - oldest_age);
                }
            }
            AgedDecision::Flush(n)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn budget_and_caps_respected(
        raw in prop::collection::vec((1_usize..400, 0_u64..5_000, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
        max_wait in 0_u64..3_000,
    ) {
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(n) => {
                prop_assert!(n > 0, "a non-empty queue must never flush nothing");
                prop_assert!(n <= queue.len());
                prop_assert!(n <= max_requests, "request cap violated");
                let tokens: usize = queue[..n].iter().map(|q| q.tokens).sum();
                // The token budget may only be exceeded by a mandatory
                // singleton (one request alone larger than the budget).
                prop_assert!(
                    tokens <= max_tokens || n == 1,
                    "token budget violated: {} > {} with n={}",
                    tokens, max_tokens, n
                );
            }
            PlanDecision::Wait(w) => {
                // Waiting is only allowed while the whole queue fits and
                // could still grow...
                let total: usize = queue.iter().map(|q| q.tokens).sum();
                prop_assert!(queue.len() < max_requests);
                prop_assert!(total < max_tokens);
                // ...nothing is due within the bound...
                for q in &queue {
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
        raw in prop::collection::vec((1_usize..400, 0_u64..5_000, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
    ) {
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: 0,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(n) => {
                // The planner never stops short of a request that would
                // still fit: the flush is the *maximal* prefix.
                if n < queue.len() && n < max_requests {
                    let tokens: usize = queue[..n].iter().map(|q| q.tokens).sum();
                    let next = queue[n].tokens;
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
    fn every_flush_is_the_maximal_fifo_prefix(
        raw in prop::collection::vec((1_usize..400, 0_u64..3_000, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
    ) {
        // Deadlines (any slack, or none) decide when a window flushes,
        // never what it flushes: the flush is the FIFO prefix.
        let queue = items(&raw);
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: 0,
        };
        match planner.decide(&queue, NOW) {
            PlanDecision::Flush(n) => prop_assert_eq!(
                n,
                fifo_prefix(&queue, max_requests, max_tokens),
                "the window must flush its FIFO prefix"
            ),
            PlanDecision::Wait(_) => prop_assert!(false, "zero wait allowance must flush"),
        }
    }

    #[test]
    fn aged_head_never_waits(
        raw in prop::collection::vec((1_usize..400, 0_u64..5_000, 0_u64..8_000), 1..24),
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
        };
        prop_assert!(
            matches!(planner.decide(&queue, NOW), PlanDecision::Flush(_)),
            "a request at the age bound must be flushed"
        );
    }

    /// For every snapshot, planner shape, and clock reading, the
    /// explicit-clock API produces exactly the decisions an age-based
    /// planner produces on the equivalent precomputed-age snapshot.
    #[test]
    fn explicit_clock_matches_age_based_oracle(
        raw in prop::collection::vec((1_usize..400, 0_u64..80_000, 0_u64..8_000), 1..24),
        max_requests in 1_usize..10,
        max_tokens in 1_usize..600,
        max_wait in 0_u64..3_000,
        clock_offset in 0_u64..1_000_000_000,
    ) {
        let now = NOW + clock_offset;
        let queue: Vec<QueueItem> = raw
            .iter()
            .map(|&(tokens, age, slack)| QueueItem {
                tokens,
                enqueued_micros: now - age,
                deadline_micros: (slack > 0).then_some(now + slack),
            })
            .collect();
        let aged: Vec<oracle::AgedItem> = raw
            .iter()
            .map(|&(tokens, age, slack)| oracle::AgedItem {
                tokens,
                age_micros: age,
                remaining_micros: (slack > 0).then_some(slack),
            })
            .collect();
        let planner = BatchPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
        };
        let reference = oracle::AgedPlanner {
            max_requests,
            max_tokens,
            max_wait_micros: max_wait,
        };
        match (planner.decide(&queue, now), reference.decide(&aged)) {
            (PlanDecision::Flush(a), oracle::AgedDecision::Flush(b)) =>
                prop_assert_eq!(a, b, "flush length diverged from the oracle"),
            (PlanDecision::Wait(a), oracle::AgedDecision::Wait(b)) =>
                prop_assert_eq!(a, b, "wait allowance diverged from the oracle"),
            (got, want) => prop_assert!(
                false, "decision kind diverged: got {:?}, oracle {:?}", got, want
            ),
        }
    }
}
