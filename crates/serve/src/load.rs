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
use std::time::Instant;

use prism_api::SelectionService;
use prism_core::{RequestOptions, SemCacheMode};
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
    /// Share of requests drawn from a small *cross-session* shared
    /// corpus pool instead of the session's own stream (`0.0` = none),
    /// spaced evenly: one request every `round(1 / f)`, so any
    /// `f > 0.5` means every request. Duplicate requests
    /// land in different sessions, so only a cross-request tier (the
    /// semantic cache) can serve them from memory; the per-session cache
    /// cannot.
    pub dup_fraction: f64,
    /// Template stamped on every request: `k`, the deadline, spill and
    /// compute precision and semantic-cache mode. `LoadSpec::request_at`
    /// sets the tag and the full-depth pin a semantic-cache mode implies.
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
    /// The options to submit, tagged by corpus.
    options: RequestOptions,
}

/// The routing tag of a corpus: repeats of one corpus are exact
/// (cacheable) and results stay independent of arrival interleaving.
fn corpus_tag(corpus: u64) -> u64 {
    corpus ^ 0x5E55_1011
}

impl LoadSpec {
    /// Whether request `i` draws from the cross-session duplicate pool:
    /// one index every `round(1 / dup_fraction)`, so `0.25` picks 0, 4,
    /// 8, … and any fraction above 0.5 rounds to every index.
    pub fn is_dup(&self, i: usize) -> bool {
        let f = self.dup_fraction;
        f > 0.0 && i.is_multiple_of((1.0 / f).round().max(1.0) as usize)
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
    /// session, a corpus, a tag and the options to submit.
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
        let mut options = self.options.clone();
        options.tag = Some(corpus_tag(corpus));
        if options.semcache != SemCacheMode::Off {
            // Cross-request score replay is only sound for full-depth
            // scores; the mode implies the eligibility requirement
            // rather than silently not engaging.
            options.pruning = Some(false);
        }
        LoadRequest {
            session,
            corpus,
            options,
        }
    }
}

/// One request's end-to-end latency in microseconds (`None` = it came
/// back an error). The closed loop's client threads record these.
type Sample = Option<u64>;

/// Outcome of one serving run. Latency percentiles are exact
/// (per-request samples, sorted).
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Requests answered with a selection.
    pub completed: usize,
    /// Requests that came back as errors, a backpressure rejection
    /// included.
    pub errors: usize,
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
    /// Server-side telemetry at the end of the run; `None` when the
    /// server is in another process (`prsm connect`).
    pub stats: Option<ServeStatsSnapshot>,
}

impl LoadReport {
    /// Folds raw samples into the report.
    fn from_samples(samples: &[Sample], elapsed_s: f64) -> LoadReport {
        let mut latencies: Vec<u64> = samples.iter().flatten().copied().collect();
        latencies.sort_unstable();
        let completed = latencies.len();
        LoadReport {
            completed,
            errors: samples.len() - completed,
            elapsed_s,
            throughput_rps: if elapsed_s > 0.0 {
                completed as f64 / elapsed_s
            } else {
                0.0
            },
            mean_us: if completed == 0 {
                0.0
            } else {
                latencies.iter().sum::<u64>() as f64 / completed as f64
            },
            p50_us: exact_quantile(&latencies, 0.50),
            p95_us: exact_quantile(&latencies, 0.95),
            p99_us: exact_quantile(&latencies, 0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            stats: None,
        }
    }

    /// The server's telemetry. Panics on a run that had no server in
    /// process ([`drive_closed_loop`] before [`Self::with_server_stats`]).
    pub fn server_stats(&self) -> &ServeStatsSnapshot {
        self.stats
            .as_ref()
            .expect("this run's server is in another process")
    }

    /// Attaches a snapshot of the serving process's telemetry.
    pub fn with_server_stats(mut self, stats: &ServeStats) -> LoadReport {
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
/// — a backpressure rejection among them: nothing here retries — are
/// counted.
pub fn drive_closed_loop<S: SelectionService, E: Send>(
    model: &ModelConfig,
    spec: &LoadSpec,
    connect: impl Fn(&str) -> Result<S, E> + Sync,
) -> Result<LoadReport, E> {
    let generator = spec.generator(model);
    let clients = spec.client_count();
    let started = Instant::now();
    let mut samples = Vec::with_capacity(spec.requests);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (generator, connect) = (&generator, &connect);
                scope.spawn(move || {
                    let mut backends: HashMap<usize, S> = HashMap::new();
                    let mut samples = Vec::<Sample>::new();
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
                        let outcome = service.select(batch, request.options);
                        samples.push(outcome.ok().map(|_| t0.elapsed().as_micros() as u64));
                    }
                    Ok(samples)
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("load client panicked")?);
        }
        Ok(())
    })?;
    Ok(LoadReport::from_samples(
        &samples,
        started.elapsed().as_secs_f64(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_sane() {
        let s = LoadSpec::default();
        assert!(s.requests > 0 && s.clients > 0 && s.corpus_repeat >= 1);
        assert_eq!(s.dup_fraction, 0.0);
        assert_eq!(s.options, RequestOptions::top_k(4));
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
    fn request_at_resolves_session_corpus_and_tag() {
        let spec = LoadSpec {
            sessions: 2,
            corpus_repeat: 2,
            dup_fraction: 0.25,
            options: RequestOptions::top_k(3).with_deadline_us(70),
            ..Default::default()
        };
        // i=2: session 0, round 1 of repeat 2 -> still corpus 0.
        let r = spec.request_at(2);
        assert_eq!((r.session, r.corpus), (0, 0));
        assert_eq!(r.options.tag, Some(corpus_tag(0)));
        assert_eq!(r.options.deadline_us, Some(70));
        // i=5: session 1, round 2 -> corpus (1 << 32) | 1.
        let r = spec.request_at(5);
        assert_eq!((r.session, r.corpus), (1, 1 << 32 | 1));
        assert_eq!(r.options.deadline_us, Some(70));
        assert_eq!(r.options.k, 3);
        // i=4, 12: duplicate pool, shared across sessions.
        assert_eq!(spec.request_at(4).corpus, 0xD0B0_0000_0000_0004);
        assert_eq!(spec.request_at(12).corpus, spec.request_at(4).corpus);
        assert_eq!(spec.request_at(12).options, spec.request_at(4).options);
    }

    #[test]
    fn report_math() {
        let samples = [Some(30), Some(10), None, Some(20), None, Some(300), None];
        let report = LoadReport::from_samples(&samples, 2.0);
        assert_eq!((report.completed, report.errors), (4, 3));
        assert_eq!(report.throughput_rps, 2.0);
        assert!((report.mean_us - 90.0).abs() < 1e-9);
        assert_eq!((report.p50_us, report.max_us), (30, 300));

        let instant = LoadReport::from_samples(&samples, 0.0);
        assert_eq!(instant.throughput_rps, 0.0, "zero elapsed guards division");
        let empty = LoadReport::from_samples(&[], 1.0);
        assert_eq!((empty.completed, empty.p99_us, empty.max_us), (0, 0, 0));
    }
}
