//! The description of a serving run, owned once: the request stream
//! (`LoadSpec::request_at`), the closed loop that drives it
//! ([`drive_closed_loop`]) and the report it folds into
//! (`LoadReport::from_samples`).
//!
//! `clients` threads each own a slice of the request stream and submit
//! synchronously (select → next), the classic closed-loop model: offered
//! load adapts to service rate, so the measured quantity is per-request
//! latency at full utilization. Latencies are collected exactly
//! (client-side, sorted) rather than from the server's bucketed
//! histograms. The loop is generic over [`SelectionService`], so
//! `prsm serve` (in process) and `prsm serve --listen` / `prsm connect`
//! (wire clients) offer the same traffic for the same spec.

use std::collections::hash_map::{Entry, HashMap};
use std::convert::Infallible;
use std::time::{Duration, Instant};

use prism_api::{RetryPolicy, SelectionService};
use prism_core::{Priority, RequestOptions, SemCacheMode};
use prism_metrics::exact_quantile;
use prism_model::{ModelConfig, SequenceBatch};
use prism_workload::{dataset_by_name, WorkloadGenerator};
use serde::Serialize;

use crate::server::PrismServer;
use crate::stats::{ServeStats, ServeStatsSnapshot};

/// Shape of one synthetic serving workload.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Total requests to send.
    pub requests: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Candidates per request.
    pub candidates: usize,
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
    /// Share of requests submitted as [`Priority::High`] instead of the
    /// template's class (`0.0` = uniform load), spaced evenly: one
    /// request every `round(1 / f)`, so any `f > 0.5` means every
    /// request.
    pub high_fraction: f64,
    /// Relative deadline of every *high-priority* request, microseconds
    /// (`None` = no deadline); base-class requests keep the template's.
    pub high_deadline_us: Option<u64>,
    /// Share of requests drawn from a small *cross-session* shared
    /// corpus pool instead of the session's own stream (`0.0` = none),
    /// spaced by the same rule as `high_fraction`. Duplicate requests
    /// land in different sessions, so only a cross-request tier (the
    /// semantic cache) can serve them from memory; the per-session cache
    /// cannot.
    pub dup_fraction: f64,
    /// Template stamped on every request: `k`, the base scheduling class
    /// and deadline, spill and compute precision and semantic-cache mode.
    /// `LoadSpec::request_at` sets the tag, the high-priority decoration
    /// and the full-depth pin a semantic-cache mode implies.
    pub options: RequestOptions,
}

/// Distinct corpora the cross-session duplicate stream cycles through
/// (small on purpose: each is requested many times under high
/// `dup_fraction`).
const DUP_POOL: usize = 8;

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            requests: 32,
            clients: 4,
            candidates: 12,
            dataset: "wikipedia".into(),
            seed: 0xC0FFEE,
            sessions: 4,
            corpus_repeat: 1,
            high_fraction: 0.0,
            high_deadline_us: None,
            dup_fraction: 0.0,
            options: RequestOptions::top_k(4),
        }
    }
}

/// Request `i` of a [`LoadSpec`], resolved.
#[derive(Debug, Clone, PartialEq)]
struct LoadRequest {
    /// Session the request runs under (`session-{n}` on a server).
    session: usize,
    /// Corpus id the workload generator expands into the candidates.
    corpus: u64,
    /// Reported under the `"high"` class (vs `"bulk"`) in mixed runs.
    high: bool,
    /// The options to submit, tagged by corpus.
    options: RequestOptions,
}

/// The routing tag of a corpus: repeats of one corpus are exact
/// (cacheable) and results stay independent of arrival interleaving.
fn corpus_tag(corpus: u64) -> u64 {
    corpus ^ 0x5E55_1011
}

/// Even spacing of a `fraction` of a stream: one index every
/// `round(1 / fraction)`, so `0.25` picks 0, 4, 8, … and any fraction
/// above 0.5 rounds to every index.
fn spaced(fraction: f64, i: usize) -> bool {
    fraction > 0.0 && i.is_multiple_of((1.0 / fraction).round().max(1.0) as usize)
}

impl LoadSpec {
    /// Whether request `i` runs as [`Priority::High`].
    pub fn is_high(&self, i: usize) -> bool {
        spaced(self.high_fraction, i)
    }

    /// Whether request `i` draws from the cross-session duplicate pool.
    pub fn is_dup(&self, i: usize) -> bool {
        spaced(self.dup_fraction, i)
    }

    /// Client threads actually used: at least one, at most one per
    /// request. Client `c` owns requests `c, c + clients, …`.
    pub fn client_count(&self) -> usize {
        self.clients.max(1).min(self.requests.max(1))
    }

    /// The workload generator for this spec on `model`. Panics on an
    /// unknown dataset name (callers validate names where they enter).
    fn generator(&self, model: &ModelConfig) -> WorkloadGenerator {
        let profile = dataset_by_name(&self.dataset)
            .unwrap_or_else(|| panic!("unknown dataset `{}`", self.dataset));
        WorkloadGenerator::new(profile, model.vocab_size, model.max_seq, self.seed)
    }

    /// Request `i` of the stream — the one place an index becomes a
    /// session, a corpus, a tag, a class and the options to submit.
    /// Requests of one session advance to a fresh corpus every
    /// `corpus_repeat` rounds and repeat it in between; duplicate-stream
    /// requests instead cycle a small pool shared by *all* sessions, so
    /// that reuse is only visible to a cross-request cache tier.
    fn request_at(&self, i: usize) -> LoadRequest {
        let sessions = self.sessions.max(1);
        let session = i % sessions;
        let corpus = if self.is_dup(i) {
            0xD0B0_0000_0000_0000 | (i % DUP_POOL) as u64
        } else {
            (session as u64) << 32 | (i / sessions / self.corpus_repeat.max(1)) as u64
        };
        let high = self.is_high(i);
        let mut options = self.options.clone();
        options.tag = Some(corpus_tag(corpus));
        if options.semcache != SemCacheMode::Off {
            // Cross-request score replay is only sound for full-depth
            // scores; the mode implies the eligibility requirement
            // rather than silently not engaging.
            options.pruning = Some(false);
        }
        if high {
            options.priority = Priority::High;
            options.deadline_us = self.high_deadline_us;
        }
        LoadRequest {
            session,
            corpus,
            high,
            options,
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

/// One answered request: whether it ran in the high class, and its
/// end-to-end latency in microseconds (`None` = it came back an error).
/// The closed loop's client threads record these.
type Sample = (bool, Option<u64>);

/// Outcome of one serving run. Latency percentiles are exact
/// (per-request samples, sorted).
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests answered with a selection.
    pub completed: usize,
    /// Requests that came back as errors.
    pub errors: usize,
    /// Transient rejections (backpressure, and over the wire a dropped
    /// connection) absorbed by retry.
    pub backpressure_retries: u64,
    /// Wall-clock seconds the run took.
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
    /// the run is uniform).
    pub classes: Vec<ClassReport>,
    /// Server-side telemetry at the end of the run; `None` when the
    /// server is in another process (`prsm connect`).
    pub stats: Option<ServeStatsSnapshot>,
}

impl LoadReport {
    /// The class summary with this label, if the run was mixed.
    pub fn class(&self, label: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.label == label)
    }

    /// Folds raw samples into the report. `retries` counts transient
    /// rejections absorbed on the way; `split_classes` adds the
    /// high/bulk rows of a mixed run.
    fn from_samples(
        samples: &[Sample],
        retries: u64,
        elapsed_s: f64,
        split_classes: bool,
        stats: Option<ServeStatsSnapshot>,
    ) -> LoadReport {
        let row = |label: &str, only: Option<bool>| {
            let class = samples
                .iter()
                .filter(|&&(high, _)| only.is_none_or(|c| c == high));
            let mut latencies: Vec<u64> = class.clone().filter_map(|&(_, us)| us).collect();
            latencies.sort_unstable();
            let completed = latencies.len();
            ClassReport {
                label: label.to_string(),
                completed,
                errors: class.count() - completed,
                mean_us: if completed == 0 {
                    0.0
                } else {
                    latencies.iter().sum::<u64>() as f64 / completed as f64
                },
                p50_us: exact_quantile(&latencies, 0.50),
                p95_us: exact_quantile(&latencies, 0.95),
                p99_us: exact_quantile(&latencies, 0.99),
            }
        };
        let all = row("all", None);
        let classes = if split_classes {
            vec![row("high", Some(true)), row("bulk", Some(false))]
        } else {
            Vec::new()
        };
        LoadReport {
            completed: all.completed,
            errors: all.errors,
            backpressure_retries: retries,
            elapsed_s,
            throughput_rps: if elapsed_s > 0.0 {
                all.completed as f64 / elapsed_s
            } else {
                0.0
            },
            mean_us: all.mean_us,
            p50_us: all.p50_us,
            p95_us: all.p95_us,
            p99_us: all.p99_us,
            max_us: samples.iter().filter_map(|&(_, us)| us).max().unwrap_or(0),
            classes,
            stats,
        }
    }

    /// The server's telemetry. Panics on a run that had no server in
    /// process ([`drive_closed_loop`] before [`Self::with_server_stats`]).
    pub fn server_stats(&self) -> &ServeStatsSnapshot {
        self.stats
            .as_ref()
            .expect("this run's server is in another process")
    }

    /// Attaches the serving process's telemetry: the run's retries land
    /// on the server's `retried` counter, then the snapshot is taken.
    pub fn with_server_stats(mut self, stats: &ServeStats) -> LoadReport {
        stats.retried.inc_by(self.backpressure_retries);
        self.stats = Some(stats.snapshot());
        self
    }
}

/// Runs `spec` against `server` in process and reports exact latency
/// percentiles plus the server's telemetry.
pub fn run_closed_loop(server: &PrismServer, spec: &LoadSpec) -> LoadReport {
    let connect = |session: &str| Ok::<_, Infallible>(server.service(session));
    match drive_closed_loop(server.engine().config(), spec, connect) {
        Ok(report) => report.with_server_stats(server.stats()),
        Err(never) => match never {},
    }
}

/// The closed loop, over any [`SelectionService`]: every client thread
/// asks `connect` for one backend per session it touches (named
/// `session-{n}`) and runs its slice of the stream one request at a
/// time. `model` shapes the generated workload and must match the
/// served weights. A `connect` failure aborts the run; request failures
/// are counted.
pub fn drive_closed_loop<S: SelectionService, E: Send>(
    model: &ModelConfig,
    spec: &LoadSpec,
    connect: impl Fn(&str) -> Result<S, E> + Sync,
) -> Result<LoadReport, E> {
    let generator = spec.generator(model);
    let clients = spec.client_count();
    let started = Instant::now();
    let (mut samples, mut retries) = (Vec::with_capacity(spec.requests), 0_u64);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (generator, connect) = (&generator, &connect);
                scope.spawn(move || {
                    // Generous bounds: a closed-loop client should outwait
                    // transient saturation, not convert it into errors — but
                    // never spin unbounded against a wedged server. The
                    // server's `retry_after` hint floors every sleep, and
                    // per-client seeds decorrelate the herd. A schedule that
                    // gives up counts as a client error.
                    let retry_policy = RetryPolicy::default()
                        .with_max_attempts(64)
                        .with_backoff(Duration::from_micros(200), Duration::from_millis(50))
                        .with_budget(Duration::from_secs(5))
                        .with_seed(0xC11E_0000 ^ c as u64);
                    let mut backends: HashMap<usize, S> = HashMap::new();
                    let (mut samples, mut retries) = (Vec::<Sample>::new(), 0_u64);
                    for i in (c..spec.requests).step_by(clients) {
                        let request = spec.request_at(i);
                        let service = match backends.entry(request.session) {
                            Entry::Occupied(e) => e.into_mut(),
                            Entry::Vacant(v) => {
                                v.insert(connect(&format!("session-{}", request.session))?)
                            }
                        };
                        let corpus = generator.request(request.corpus, spec.candidates);
                        let batch = SequenceBatch::new(&corpus.sequences()).expect("load batch");
                        let t0 = Instant::now();
                        let (outcome, retried) = retry_policy
                            .run(|_| service.select(batch.clone(), request.options.clone()));
                        retries += u64::from(retried);
                        let latency = outcome.ok().map(|_| t0.elapsed().as_micros() as u64);
                        samples.push((request.high, latency));
                    }
                    Ok((samples, retries))
                })
            })
            .collect();
        for handle in handles {
            let (client_samples, client_retries) = handle.join().expect("load client panicked")?;
            samples.extend(client_samples);
            retries += client_retries;
        }
        Ok(())
    })?;
    Ok(LoadReport::from_samples(
        &samples,
        retries,
        started.elapsed().as_secs_f64(),
        spec.high_fraction > 0.0,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_sane() {
        let s = LoadSpec::default();
        assert!(s.requests > 0 && s.clients > 0 && s.corpus_repeat >= 1);
        assert_eq!(s.high_fraction, 0.0);
        assert!(s.options.deadline_us.is_none() && s.high_deadline_us.is_none());
        assert_eq!(s.options, RequestOptions::top_k(4));
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
        // Spacing rounds 1/f: anything above one half is every request.
        for f in [0.75, 1.0, 2.0] {
            let all = LoadSpec {
                high_fraction: f,
                ..Default::default()
            };
            assert!((0..10).all(|i| all.is_high(i)), "{f}");
        }
    }

    #[test]
    fn semcache_decoration_pins_full_depth() {
        let spec = LoadSpec {
            options: RequestOptions::top_k(2).with_semcache(SemCacheMode::Aggressive),
            ..Default::default()
        };
        let o = spec.request_at(0).options;
        assert_eq!(o.semcache, SemCacheMode::Aggressive);
        assert_eq!(o.pruning, Some(false), "semcache implies full depth");
        let off = LoadSpec::default().request_at(0).options;
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
    fn request_at_resolves_session_corpus_tag_and_class() {
        let spec = LoadSpec {
            sessions: 2,
            corpus_repeat: 2,
            dup_fraction: 0.25,
            high_fraction: 0.5,
            high_deadline_us: Some(9),
            options: RequestOptions::top_k(3)
                .with_priority(Priority::Bulk)
                .with_deadline_us(70),
            ..Default::default()
        };
        // i=2: session 0, round 1 of repeat 2 -> still corpus 0; high.
        let r = spec.request_at(2);
        assert_eq!((r.session, r.corpus, r.high), (0, 0, true));
        assert_eq!(r.options.tag, Some(corpus_tag(0)));
        assert_eq!(r.options.priority, Priority::High);
        assert_eq!(r.options.deadline_us, Some(9));
        // i=5: session 1, round 2 -> corpus (1 << 32) | 1; base class.
        let r = spec.request_at(5);
        assert_eq!((r.session, r.corpus, r.high), (1, 1 << 32 | 1, false));
        assert_eq!(r.options.priority, Priority::Bulk);
        assert_eq!(r.options.deadline_us, Some(70));
        assert_eq!(r.options.k, 3);
        // i=4, 12: duplicate pool, shared across sessions.
        assert_eq!(spec.request_at(4).corpus, 0xD0B0_0000_0000_0004);
        assert_eq!(spec.request_at(12).corpus, spec.request_at(4).corpus);
        assert_eq!(spec.request_at(12).options, spec.request_at(4).options);
    }

    #[test]
    fn class_report_math() {
        let samples = [
            (true, Some(30)),
            (false, Some(10)),
            (true, None),
            (true, Some(20)),
            (false, None),
            (false, Some(300)),
            (true, None),
        ];
        let mixed = LoadReport::from_samples(&samples, 5, 2.0, true, None);
        assert_eq!((mixed.completed, mixed.errors), (4, 3));
        assert_eq!((mixed.backpressure_retries, mixed.throughput_rps), (5, 2.0));
        assert!((mixed.mean_us - 90.0).abs() < 1e-9);
        assert_eq!((mixed.p50_us, mixed.max_us), (30, 300));
        let high = mixed.class("high").unwrap();
        assert_eq!((high.completed, high.errors, high.p50_us), (2, 2, 30));
        assert!((high.mean_us - 25.0).abs() < 1e-9);
        let bulk = mixed.class("bulk").unwrap();
        assert_eq!((bulk.completed, bulk.errors, bulk.p99_us), (2, 1, 300));

        let uniform = LoadReport::from_samples(&samples, 0, 0.0, false, None);
        assert!(uniform.classes.is_empty(), "split only when asked");
        assert_eq!(uniform.throughput_rps, 0.0, "zero elapsed guards division");
        let empty = LoadReport::from_samples(&[], 0, 1.0, true, None);
        assert_eq!((empty.completed, empty.p99_us, empty.max_us), (0, 0, 0));
        assert_eq!(empty.class("bulk").unwrap().completed, 0);
    }
}
