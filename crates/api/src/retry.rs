//! Typed retry policy with decorrelated-jitter backoff.
//!
//! One policy shared by every client-side retry loop in the stack — the
//! wire client's reconnect/backpressure handling and the load
//! generator's closed loop — so "how do we retry" is decided once:
//!
//! * **Typed retryability.** Only transient errors retry
//!   ([`ServiceError::Backpressure`], [`ServiceError::Disconnected`]);
//!   terminal outcomes (`Cancelled`, `DeadlineExceeded`, `ShuttingDown`,
//!   quota, engine and config errors) surface immediately.
//! * **Server hints win.** A `Backpressure::retry_after` hint is a floor
//!   under the computed backoff — the server derived it from its queue
//!   depth and service rate, so sleeping less just burns a retry.
//! * **Decorrelated jitter.** Delays are sampled from a seeded RNG
//!   (deterministic in tests, decorrelated across clients in
//!   production) following the `min(cap, uniform(base, 3·prev))`
//!   schedule, which avoids the synchronized thundering herds a fixed
//!   exponential schedule produces.
//! * **Bounded.** Both an attempt cap and a cumulative sleep budget;
//!   whichever is hit first ends the loop with the last error.

use std::time::Duration;

use crate::ServiceError;

/// Configuration of one retry loop. Cheap to copy; construct once and
/// share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts (first try included). `1` disables
    /// retrying entirely.
    pub max_attempts: u32,
    /// Backoff floor — also the first retry's minimum sleep.
    pub base: Duration,
    /// Backoff ceiling per attempt (a server `retry_after` hint may
    /// exceed it; the server knows its queue better than the client).
    pub cap: Duration,
    /// Cumulative sleep budget across the whole loop. A retry whose
    /// delay would exceed the remaining budget is not attempted.
    pub budget: Duration,
    /// RNG seed for the jitter (deterministic schedules in tests;
    /// derive from a client id in production to decorrelate peers).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(500),
            budget: Duration::from_secs(2),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure surfaces directly).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..Default::default()
        }
    }

    /// Returns a copy with the given attempt cap.
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Returns a copy with the given base/cap backoff window.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.base = base;
        self.cap = cap.max(base);
        self
    }

    /// Returns a copy with the given cumulative sleep budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Returns a copy with the given jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts a retry schedule (one per operation).
    pub fn schedule(&self) -> RetrySchedule {
        RetrySchedule {
            policy: *self,
            rng: self.seed ^ 0x9E37_79B9_7F4A_7C15,
            prev: self.base,
            attempts: 1,
            slept: Duration::ZERO,
        }
    }

    /// Runs `op` under this policy, sleeping between attempts. `op`
    /// receives the attempt index (0 = first try). Returns the first
    /// success or the last error once the policy gives up; the second
    /// tuple element is how many *retries* ran (0 = first try worked).
    pub fn run<T>(
        &self,
        mut op: impl FnMut(u32) -> Result<T, ServiceError>,
    ) -> (Result<T, ServiceError>, u32) {
        let mut schedule = self.schedule();
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return (Ok(v), attempt),
                Err(e) => match schedule.next_delay(&e) {
                    Some(delay) => {
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        attempt += 1;
                    }
                    None => return (Err(e), attempt),
                },
            }
        }
    }
}

/// Whether an error class is worth retrying at all (transient) or
/// terminal for the request.
pub fn is_retryable(e: &ServiceError) -> bool {
    matches!(
        e,
        ServiceError::Backpressure { .. } | ServiceError::Disconnected
    )
}

/// Mutable state of one retry loop: previous delay, RNG, attempt and
/// budget accounting.
#[derive(Debug, Clone)]
pub struct RetrySchedule {
    policy: RetryPolicy,
    rng: u64,
    prev: Duration,
    attempts: u32,
    slept: Duration,
}

impl RetrySchedule {
    /// Decides whether to retry after `error`: `Some(delay)` means sleep
    /// that long and try again, `None` means give up and surface the
    /// error. Consumes one attempt on `Some`.
    pub fn next_delay(&mut self, error: &ServiceError) -> Option<Duration> {
        if !is_retryable(error) {
            return None;
        }
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        // Decorrelated jitter: uniform in [base, 3·prev], capped.
        let base_us = self.policy.base.as_micros() as u64;
        let hi_us = (self.prev.as_micros() as u64)
            .saturating_mul(3)
            .max(base_us);
        let span = hi_us - base_us;
        let jitter_us = if span == 0 {
            base_us
        } else {
            base_us + self.next_u64() % (span + 1)
        };
        let mut delay = Duration::from_micros(jitter_us).min(self.policy.cap);
        // The server's hint is a floor: it knows its drain rate.
        if let Some(hint) = error.retry_after() {
            delay = delay.max(hint);
        }
        if self.slept + delay > self.policy.budget {
            return None;
        }
        self.slept += delay;
        self.prev = delay.max(self.policy.base);
        self.attempts += 1;
        Some(delay)
    }

    /// Total time this schedule has decided to sleep so far.
    pub fn slept(&self) -> Duration {
        self.slept
    }

    /// Retries consumed so far (0 = nothing retried yet).
    pub fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// splitmix64 step — deterministic, dependency-free.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backpressure(hint_ms: u64) -> ServiceError {
        ServiceError::Backpressure {
            capacity: 8,
            queue_depth: 8,
            retry_after: Duration::from_millis(hint_ms),
        }
    }

    #[test]
    fn terminal_errors_never_retry() {
        let policy = RetryPolicy::default();
        for e in [
            ServiceError::Cancelled,
            ServiceError::DeadlineExceeded,
            ServiceError::ShuttingDown,
            ServiceError::QuotaExceeded {
                tenant: "t".into(),
                limit: 1,
            },
            ServiceError::Engine("boom".into()),
            ServiceError::Config("bad".into()),
        ] {
            assert!(!is_retryable(&e), "{e}");
            assert!(policy.schedule().next_delay(&e).is_none(), "{e}");
        }
    }

    #[test]
    fn attempt_cap_bounds_the_loop() {
        let policy = RetryPolicy::default().with_max_attempts(3);
        let mut s = policy.schedule();
        assert!(s.next_delay(&ServiceError::Disconnected).is_some());
        assert!(s.next_delay(&ServiceError::Disconnected).is_some());
        assert!(s.next_delay(&ServiceError::Disconnected).is_none());
        assert_eq!(s.retries(), 2);
    }

    #[test]
    fn server_hint_is_a_floor() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50));
        let mut s = policy.schedule();
        let d = s.next_delay(&backpressure(25)).unwrap();
        assert!(d >= Duration::from_millis(25), "{d:?} ignores the hint");
    }

    #[test]
    fn budget_caps_cumulative_sleep() {
        let policy = RetryPolicy::default()
            .with_max_attempts(100)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(1))
            .with_budget(Duration::from_millis(3));
        let mut s = policy.schedule();
        let mut total = Duration::ZERO;
        let mut n = 0;
        while let Some(d) = s.next_delay(&ServiceError::Disconnected) {
            total += d;
            n += 1;
            assert!(n < 100, "budget never engaged");
        }
        assert!(total <= Duration::from_millis(3));
        assert_eq!(total, s.slept());
        assert_eq!(n, 3, "1ms cap + 3ms budget = 3 retries");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let policy = RetryPolicy::default().with_max_attempts(5);
        let collect = |seed: u64| {
            let mut s = policy.with_seed(seed).schedule();
            let mut out = Vec::new();
            while let Some(d) = s.next_delay(&ServiceError::Disconnected) {
                out.push(d);
            }
            out
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8), "different seeds must decorrelate");
    }

    #[test]
    fn delays_stay_within_base_cap_window() {
        let base = Duration::from_micros(100);
        let cap = Duration::from_millis(5);
        let policy = RetryPolicy::default()
            .with_max_attempts(50)
            .with_backoff(base, cap)
            .with_budget(Duration::from_secs(10));
        let mut s = policy.schedule();
        while let Some(d) = s.next_delay(&ServiceError::Disconnected) {
            assert!(d >= base && d <= cap, "{d:?} outside [{base:?}, {cap:?}]");
        }
    }

    #[test]
    fn run_returns_success_and_retry_count() {
        let policy = RetryPolicy::default()
            .with_max_attempts(4)
            .with_backoff(Duration::from_micros(1), Duration::from_micros(5));
        let (out, retries) = policy.run(|attempt| {
            if attempt < 2 {
                Err(ServiceError::Disconnected)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(retries, 2);

        let (out, retries) = policy.run(|_| Err::<(), _>(ServiceError::Engine("always".into())));
        assert!(matches!(out, Err(ServiceError::Engine(_))));
        assert_eq!(retries, 0, "terminal errors must not retry");
    }
}
