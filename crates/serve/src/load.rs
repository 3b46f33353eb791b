//! Closed-loop load generation against a [`PrismServer`].
//!
//! `clients` threads each own a slice of the request stream and submit
//! synchronously (submit → wait → next), the classic closed-loop model:
//! offered load adapts to service rate, so the measured quantity is
//! per-request latency at full utilization. Latencies are collected
//! exactly (client-side, sorted) rather than from the server's bucketed
//! histograms. `prsm serve`, `prsm bench-serve` and the `repro perf`
//! serving section all drive this one generator.

use std::time::{Duration, Instant};

use prism_api::SelectionService;
use prism_core::{
    ComputePrecision, PartialMode, Priority, RequestOptions, SemCacheMode, SpillPrecision,
};
use prism_metrics::exact_quantile;
use prism_model::SequenceBatch;
use prism_workload::{dataset_by_name, WorkloadGenerator};
use serde::Serialize;

use crate::request::ServeError;
use crate::server::PrismServer;
use crate::stats::ServeStatsSnapshot;

/// Shape of one synthetic serving workload.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total requests to send.
    pub requests: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Candidates per request.
    pub candidates: usize,
    /// Top-K per request.
    pub k: usize,
    /// Workload dataset profile (e.g. `"wikipedia"`).
    pub dataset: String,
    /// Base RNG seed for request generation.
    pub seed: u64,
    /// Distinct sessions the stream cycles through.
    pub sessions: usize,
    /// Consecutive same-session requests sharing one corpus: `1` makes
    /// every request a fresh corpus (no cache reuse), `r > 1` lets the
    /// session cache serve `r - 1` of every `r` requests.
    pub corpus_repeat: usize,
    /// Base scheduling class of every request.
    pub priority: Priority,
    /// Fraction of requests submitted as [`Priority::High`] instead of
    /// the base class (`0.0` = uniform load). High requests are spread
    /// evenly through the stream.
    pub high_fraction: f64,
    /// Relative deadline attached to every *high-priority* request,
    /// microseconds (`None` = no deadline).
    pub high_deadline_us: Option<u64>,
    /// Relative deadline attached to every *base-class* request.
    pub deadline_us: Option<u64>,
    /// Hidden-state spill precision stamped on every request (only
    /// observable when the served engine offloads hidden states).
    pub spill_precision: SpillPrecision,
    /// Forward-compute precision stamped on every request.
    pub compute_precision: ComputePrecision,
    /// Semantic-cache mode stamped on every request. Any mode other
    /// than [`SemCacheMode::Off`] also pins the request to full depth
    /// (`pruning = Some(false)`): cross-request score replay is only
    /// sound for full-depth scores, so the knob implies the eligibility
    /// requirement instead of silently not engaging.
    pub semcache: SemCacheMode,
    /// Fraction of requests drawn from a small *cross-session* shared
    /// corpus pool instead of the session's own stream (`0.0` = none).
    /// Duplicate requests land in different sessions, so only a
    /// cross-request tier (the semantic cache) can serve them from
    /// memory; the per-session cache cannot. Spread evenly like
    /// `high_fraction`.
    pub dup_fraction: f64,
    /// Degraded-mode policy stamped on every request: what a sharded
    /// deployment does when every replica of a candidate is down
    /// ([`PartialMode::Fail`] keeps the exact-or-error contract,
    /// [`PartialMode::Partial`] serves the survivors).
    pub on_partial: PartialMode,
}

/// Distinct corpora the cross-session duplicate stream cycles through
/// (small on purpose: each is requested many times under high
/// `dup_fraction`).
pub const DUP_POOL: usize = 8;

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            requests: 32,
            clients: 4,
            candidates: 12,
            k: 4,
            dataset: "wikipedia".into(),
            seed: 0xC0FFEE,
            sessions: 4,
            corpus_repeat: 1,
            priority: Priority::Normal,
            high_fraction: 0.0,
            high_deadline_us: None,
            deadline_us: None,
            spill_precision: SpillPrecision::default(),
            compute_precision: ComputePrecision::default(),
            semcache: SemCacheMode::Off,
            dup_fraction: 0.0,
            on_partial: PartialMode::Fail,
        }
    }
}

impl LoadSpec {
    /// Whether global request index `i` runs as [`Priority::High`]
    /// (high requests are spaced evenly: one every
    /// `round(1 / high_fraction)` submissions).
    pub fn is_high(&self, i: usize) -> bool {
        if self.high_fraction <= 0.0 {
            return false;
        }
        if self.high_fraction >= 1.0 {
            return true;
        }
        let every = (1.0 / self.high_fraction).round().max(1.0) as usize;
        i.is_multiple_of(every)
    }

    /// Whether global request index `i` draws from the cross-session
    /// duplicate pool (same even spacing as [`LoadSpec::is_high`]).
    pub fn is_dup(&self, i: usize) -> bool {
        if self.dup_fraction <= 0.0 {
            return false;
        }
        if self.dup_fraction >= 1.0 {
            return true;
        }
        let every = (1.0 / self.dup_fraction).round().max(1.0) as usize;
        i.is_multiple_of(every)
    }

    /// The resolved options decoration for request `i` (class +
    /// deadline on top of the routing options).
    fn decorate(&self, i: usize, options: RequestOptions) -> RequestOptions {
        let mut options = options
            .with_spill_precision(self.spill_precision)
            .with_compute_precision(self.compute_precision)
            .with_semcache(self.semcache)
            .with_on_partial(self.on_partial);
        if self.semcache != SemCacheMode::Off {
            // Semantic replay is only sound at full depth; the knob
            // implies it rather than silently not engaging.
            options.pruning = Some(false);
        }
        if self.is_high(i) {
            let o = options.with_priority(Priority::High);
            match self.high_deadline_us {
                Some(us) => o.with_deadline_us(us),
                None => o,
            }
        } else {
            let o = options.with_priority(self.priority);
            match self.deadline_us {
                Some(us) => o.with_deadline_us(us),
                None => o,
            }
        }
    }
}

/// Latency summary of one scheduling class within a mixed run.
#[derive(Debug, Clone, Serialize)]
pub struct ClassReport {
    /// `"high"` or `"bulk"` (the base class).
    pub label: String,
    /// Requests of the class that completed.
    pub completed: usize,
    /// Requests of the class that errored (deadline misses included).
    pub errors: usize,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
}

fn class_report(label: &str, mut latencies: Vec<u64>, errors: usize) -> ClassReport {
    latencies.sort_unstable();
    let completed = latencies.len();
    let mean_us = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    ClassReport {
        label: label.to_string(),
        completed,
        errors,
        mean_us,
        p50_us: exact_quantile(&latencies, 0.50),
        p95_us: exact_quantile(&latencies, 0.95),
        p99_us: exact_quantile(&latencies, 0.99),
    }
}

/// Outcome of one closed-loop run. Latency percentiles are exact
/// (client-side measurements, sorted).
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests sent (and answered — the loop is closed).
    pub completed: usize,
    /// Requests that came back as errors.
    pub errors: usize,
    /// Backpressure rejections absorbed by retry.
    pub backpressure_retries: u64,
    /// Wall-clock seconds for the whole run.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Mean end-to-end latency, microseconds.
    pub mean_us: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst request, microseconds.
    pub max_us: u64,
    /// Per-class latency breakdown for mixed-priority runs (empty when
    /// `high_fraction` is 0: the run is uniform).
    pub classes: Vec<ClassReport>,
    /// Server-side telemetry snapshot at the end of the run.
    pub stats: ServeStatsSnapshot,
}

impl LoadReport {
    /// The class summary with this label, if the run was mixed.
    pub fn class(&self, label: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.label == label)
    }
}

/// Runs `spec` against `server` and reports exact latency percentiles.
pub fn run_closed_loop(server: &PrismServer, spec: &LoadSpec) -> LoadReport {
    let profile = dataset_by_name(&spec.dataset)
        .unwrap_or_else(|| panic!("unknown dataset `{}`", spec.dataset));
    let config = server.engine().config();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, spec.seed);
    let sessions = spec.sessions.max(1);
    let repeat = spec.corpus_repeat.max(1);
    let clients = spec.clients.max(1).min(spec.requests.max(1));

    let started = Instant::now();
    let mut all_samples: Vec<(bool, u64)> = Vec::with_capacity(spec.requests);
    let mut errors = 0_usize;
    let mut high_errors = 0_usize;
    let mut retries = 0_u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for c in 0..clients {
            let generator = &generator;
            let spec_ref = &spec;
            let handle = scope.spawn(move || {
                let mut samples: Vec<(bool, u64)> = Vec::new();
                let mut errors = 0_usize;
                let mut high_errors = 0_usize;
                let mut retries = 0_u64;
                // Generous bounds: a closed-loop client should outwait
                // transient saturation, not convert it into errors — but
                // never spin unbounded against a wedged server. Per-client
                // seeds decorrelate the herd.
                let retry_policy = prism_api::RetryPolicy::default()
                    .with_max_attempts(64)
                    .with_backoff(Duration::from_micros(200), Duration::from_millis(50))
                    .with_budget(Duration::from_secs(5))
                    .with_seed(0xC11E_0000 ^ c as u64);
                let mut i = c;
                while i < spec_ref.requests {
                    let session_idx = i % sessions;
                    let round = i / sessions;
                    // Requests of one session advance to a fresh corpus
                    // every `repeat` rounds; in between they repeat it.
                    // Duplicate-stream requests instead cycle a small
                    // corpus pool shared by *all* sessions, so reuse is
                    // only visible to a cross-request cache tier.
                    let corpus = if spec_ref.is_dup(i) {
                        0xD0B0_0000_0000_0000 | (i % DUP_POOL) as u64
                    } else {
                        (session_idx as u64) << 32 | (round / repeat) as u64
                    };
                    let request = generator.request(corpus, spec_ref.candidates);
                    let batch = SequenceBatch::new(&request.sequences()).expect("load batch");
                    // Tag by corpus so repeats are exact (cacheable) and
                    // results stay independent of arrival interleaving.
                    let is_high = spec_ref.is_high(i);
                    let options = spec_ref
                        .decorate(i, RequestOptions::tagged(spec_ref.k, corpus ^ 0x5E55_1011));
                    let service = server.service(format!("session-{session_idx}"));
                    let t0 = Instant::now();
                    // Typed, bounded backpressure handling: each submit
                    // runs its own decorrelated-jitter schedule, and the
                    // server's `retry_after` hint floors every sleep. A
                    // schedule that gives up counts as a client error.
                    let mut schedule = retry_policy.schedule();
                    let handle = loop {
                        match service.submit(batch.clone(), options.clone()) {
                            Ok(h) => break Some(h),
                            Err(err @ ServeError::Backpressure { .. }) => {
                                match schedule.next_delay(&err) {
                                    Some(delay) => {
                                        retries += 1;
                                        std::thread::sleep(delay);
                                    }
                                    None => break None,
                                }
                            }
                            Err(_) => break None,
                        }
                    };
                    match handle.map(|h| h.wait()) {
                        Some(Ok(_)) => samples.push((is_high, t0.elapsed().as_micros() as u64)),
                        _ => {
                            errors += 1;
                            if is_high {
                                high_errors += 1;
                            }
                        }
                    }
                    i += clients;
                }
                (samples, errors, high_errors, retries)
            });
            handles.push(handle);
        }
        for h in handles {
            let (s, err, herr, rts) = h.join().expect("load client panicked");
            all_samples.extend(s);
            errors += err;
            high_errors += herr;
            retries += rts;
        }
    });
    // Backpressure retries land on the server's resilience instruments
    // so `prsm serve` summaries show them next to failovers/hedges.
    server.stats().retried.inc_by(retries);
    let elapsed_s = started.elapsed().as_secs_f64();

    let classes = if spec.high_fraction > 0.0 {
        let high: Vec<u64> = all_samples
            .iter()
            .filter(|(h, _)| *h)
            .map(|&(_, l)| l)
            .collect();
        let bulk: Vec<u64> = all_samples
            .iter()
            .filter(|(h, _)| !*h)
            .map(|&(_, l)| l)
            .collect();
        vec![
            class_report("high", high, high_errors),
            class_report("bulk", bulk, errors - high_errors),
        ]
    } else {
        Vec::new()
    };
    let mut all_latencies: Vec<u64> = all_samples.into_iter().map(|(_, l)| l).collect();
    all_latencies.sort_unstable();
    let completed = all_latencies.len();
    let mean_us = if completed == 0 {
        0.0
    } else {
        all_latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    LoadReport {
        completed,
        errors,
        backpressure_retries: retries,
        elapsed_s,
        throughput_rps: if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        },
        mean_us,
        p50_us: exact_quantile(&all_latencies, 0.50),
        p95_us: exact_quantile(&all_latencies, 0.95),
        p99_us: exact_quantile(&all_latencies, 0.99),
        max_us: all_latencies.last().copied().unwrap_or(0),
        classes,
        stats: server.stats().snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_sane() {
        let s = LoadSpec::default();
        assert!(s.requests > 0 && s.clients > 0 && s.corpus_repeat >= 1);
        assert_eq!(s.high_fraction, 0.0);
        assert!(s.deadline_us.is_none() && s.high_deadline_us.is_none());
    }

    #[test]
    fn high_fraction_spaces_requests_evenly() {
        let spec = LoadSpec {
            high_fraction: 0.1,
            ..Default::default()
        };
        let high = (0..100).filter(|&i| spec.is_high(i)).count();
        assert_eq!(high, 10, "10% of 100 requests");
        assert!(spec.is_high(0) && spec.is_high(10) && !spec.is_high(5));
        let uniform = LoadSpec::default();
        assert!((0..100).all(|i| !uniform.is_high(i)));
        let all = LoadSpec {
            high_fraction: 1.0,
            ..Default::default()
        };
        assert!((0..10).all(|i| all.is_high(i)));
    }

    #[test]
    fn semcache_decoration_pins_full_depth() {
        let spec = LoadSpec {
            semcache: SemCacheMode::Aggressive,
            ..Default::default()
        };
        let o = spec.decorate(0, RequestOptions::top_k(2));
        assert_eq!(o.semcache, SemCacheMode::Aggressive);
        assert_eq!(o.pruning, Some(false), "semcache implies full depth");
        let off = LoadSpec::default().decorate(0, RequestOptions::top_k(2));
        assert_eq!(off.semcache, SemCacheMode::Off);
        assert_eq!(off.pruning, None, "Off leaves pruning to the engine");
    }

    #[test]
    fn dup_fraction_spaces_duplicates_evenly() {
        let spec = LoadSpec {
            dup_fraction: 0.5,
            ..Default::default()
        };
        assert_eq!((0..100).filter(|&i| spec.is_dup(i)).count(), 50);
        assert!(!LoadSpec::default().is_dup(0), "default stream has none");
        let all = LoadSpec {
            dup_fraction: 1.0,
            ..Default::default()
        };
        assert!((0..10).all(|i| all.is_dup(i)));
    }

    #[test]
    fn class_report_math() {
        let r = class_report("high", vec![30, 10, 20], 2);
        assert_eq!(r.completed, 3);
        assert_eq!(r.errors, 2);
        assert_eq!(r.p50_us, 20);
        assert!((r.mean_us - 20.0).abs() < 1e-9);
        let empty = class_report("bulk", Vec::new(), 0);
        assert_eq!(empty.completed, 0);
        assert_eq!(empty.p99_us, 0);
    }
}
