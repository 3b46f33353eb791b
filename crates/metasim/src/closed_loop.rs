//! Closed-loop replay: simulate exactly the workload that
//! `prism_serve::run_closed_loop` drives against a real server.
//!
//! The request stream is the measured loop's own
//! ([`LoadSpec::request_at`]: client striding, session cycling, corpus
//! rotation, the duplicate pool, the corpus-derived routing tag,
//! priority decoration and deadlines), so a simulated run and a measured
//! run of the same [`LoadSpec`] see identical queue contents, batch
//! shapes and session-cache hit patterns. Only execution time
//! is modeled (by the [`ServiceModel`]); everything else is the real
//! planning logic at virtual time. This is what `repro sim-validate`
//! replays to compare predicted throughput and tail latency against
//! the measured serving benchmarks.

use std::collections::{HashMap, VecDeque};

use prism_model::ModelConfig;
use prism_serve::{LoadSpec, ServeConfig};

use crate::report::SimReport;
use crate::service::ServiceModel;
use crate::sim::{SimFaults, SimRequest, Simulation};

/// `spec`'s per-client request streams: client `c` owns indices
/// `c, c + clients, …`, and every index resolves through
/// [`LoadSpec::request_at`] — the same session, corpus, tag, class and
/// deadline the measured loop submits.
pub fn client_streams(config: &ModelConfig, spec: &LoadSpec) -> Vec<VecDeque<SimRequest>> {
    let generator = spec.generator(config);
    let clients = spec.client_count();
    // Token counts are a pure function of the corpus id; memoize so
    // repeated corpora cost one generator call.
    let mut tokens_of: HashMap<u64, usize> = HashMap::new();
    (0..clients)
        .map(|c| {
            (c..spec.requests)
                .step_by(clients)
                .map(|i| {
                    let request = spec.request_at(i);
                    let tokens = *tokens_of.entry(request.corpus).or_insert_with(|| {
                        generator
                            .request(request.corpus, spec.candidates)
                            .sequences()
                            .iter()
                            .map(Vec::len)
                            .sum()
                    });
                    SimRequest {
                        id: i as u64,
                        session: request.session as u64,
                        corpus: request.corpus,
                        key: request.options.tag.expect("request_at tags every request"),
                        tokens,
                        priority: request.options.priority,
                        deadline_us: request.options.deadline_us,
                        cancel_after_us: None,
                        high_class: request.high,
                        client: Some(c),
                    }
                })
                .collect()
        })
        .collect()
}

/// Simulates `spec` against a virtual server with configuration `serve`
/// and the given service-time model (plus an optional shard-fault
/// model), reporting the same aggregates as a measured `run_closed_loop`.
pub fn simulate_closed_loop(
    config: &ModelConfig,
    spec: &LoadSpec,
    serve: &ServeConfig,
    service: ServiceModel,
    label: &str,
    faults: Option<SimFaults>,
) -> SimReport {
    let streams = client_streams(config, spec);
    Simulation::run_closed(
        serve,
        service,
        streams,
        label,
        spec.high_fraction > 0.0,
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Calibration;
    use prism_core::Priority;
    use prism_model::ModelArch;
    use prism_serve::DUP_POOL;

    fn test_model() -> ModelConfig {
        ModelConfig::test_config(ModelArch::DecoderOnly, 6)
    }

    fn flat(us: f64) -> ServiceModel {
        ServiceModel::calibrated(Calibration {
            batch_fixed_us: us,
            per_request_us: 0.0,
            per_token_us: 0.0,
        })
    }

    #[test]
    fn streams_partition_the_request_space() {
        let spec = LoadSpec {
            requests: 23,
            clients: 4,
            ..Default::default()
        };
        let streams = client_streams(&test_model(), &spec);
        assert_eq!(streams.len(), 4);
        let mut ids: Vec<u64> = streams.iter().flatten().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..23).collect::<Vec<u64>>());
        // Client striding: client 1 owns 1, 5, 9, ...
        assert_eq!(streams[1].front().unwrap().id, 1);
        assert_eq!(streams[1][1].id, 5);
    }

    #[test]
    fn corpus_rotation_matches_load_generator() {
        let spec = LoadSpec {
            requests: 16,
            clients: 1,
            sessions: 2,
            corpus_repeat: 2,
            ..Default::default()
        };
        let streams = client_streams(&test_model(), &spec);
        let all: Vec<&SimRequest> = streams[0].iter().collect();
        // i=0: session 0, round 0 -> corpus (0<<32)|0.
        // i=2: session 0, round 1 -> still corpus 0 (repeat 2).
        // i=4: session 0, round 2 -> corpus (0<<32)|1.
        assert_eq!(all[0].corpus, 0);
        assert_eq!(all[2].corpus, 0);
        assert_eq!(all[4].corpus, 1);
        assert_eq!(all[0].key, all[2].key, "repeats share the cache key");
        assert_eq!(all[1].session, 1);
        assert!(all.iter().all(|r| r.tokens > 0));
    }

    #[test]
    fn high_fraction_decorates_like_the_load_spec() {
        let spec = LoadSpec {
            requests: 20,
            clients: 2,
            high_fraction: 0.25,
            high_deadline_us: Some(5_000_000),
            ..Default::default()
        };
        let streams = client_streams(&test_model(), &spec);
        let mut by_id: Vec<&SimRequest> = streams.iter().flatten().collect();
        by_id.sort_by_key(|r| r.id);
        for r in &by_id {
            let expect_high = spec.is_high(r.id as usize);
            assert_eq!(r.high_class, expect_high, "request {}", r.id);
            if expect_high {
                assert_eq!(r.priority, Priority::High);
                assert_eq!(r.deadline_us, Some(5_000_000));
            } else {
                assert_eq!(r.priority, Priority::Normal);
                assert_eq!(r.deadline_us, None);
            }
        }
    }

    #[test]
    fn duplicate_stream_reaches_the_simulator() {
        let spec = LoadSpec {
            requests: 24,
            clients: 3,
            dup_fraction: 0.5,
            ..Default::default()
        };
        for r in client_streams(&test_model(), &spec).iter().flatten() {
            let pooled = r.corpus >> 48 == 0xD0B0 && (r.corpus & 0xFFFF) < DUP_POOL as u64;
            assert_eq!(pooled, spec.is_dup(r.id as usize), "request {}", r.id);
        }
        // Eight sessions cycling an eight-corpus pool: each session keeps
        // re-asking its one pooled corpus (selection hits), where the
        // duplicate-free stream never repeats a corpus.
        let digest_at = |dup_fraction| {
            let spec = LoadSpec {
                sessions: 8,
                dup_fraction,
                ..spec.clone()
            };
            let report = simulate_closed_loop(
                &test_model(),
                &spec,
                &ServeConfig::default(),
                flat(2_000.0),
                "dup",
                None,
            );
            (report.digest, report.stats().cache_selection_hits)
        };
        let (fresh, fresh_hits) = digest_at(0.0);
        let (pooled, pooled_hits) = digest_at(1.0);
        assert_eq!(fresh_hits, 0);
        assert!(pooled_hits > 0);
        assert_ne!(fresh, pooled, "the duplicate stream must change the run");
    }

    #[test]
    fn cached_spec_yields_cache_hits_in_simulation() {
        // corpus_repeat 4 on a cached config: roughly 3 of every 4
        // same-session repeats replay from the session cache.
        let spec = LoadSpec {
            requests: 48,
            clients: 4,
            corpus_repeat: 4,
            ..Default::default()
        };
        let report = simulate_closed_loop(
            &test_model(),
            &spec,
            &ServeConfig::default(),
            flat(2_000.0),
            "cached",
            None,
        );
        assert_eq!(report.run.completed, 48);
        assert!(
            report.stats().cache_selection_hits + report.stats().cache_embed_hits > 0,
            "repeats must hit the cache: {:?}",
            report.stats()
        );
        let uncached = simulate_closed_loop(
            &test_model(),
            &LoadSpec {
                corpus_repeat: 1,
                ..spec
            },
            &ServeConfig::default(),
            flat(2_000.0),
            "uncached",
            None,
        );
        assert!(
            report.run.throughput_rps > uncached.run.throughput_rps,
            "cache hits must raise simulated throughput ({} vs {})",
            report.run.throughput_rps,
            uncached.run.throughput_rps
        );
    }

    #[test]
    fn simulated_run_is_deterministic() {
        let spec = LoadSpec {
            requests: 64,
            clients: 8,
            high_fraction: 0.1,
            high_deadline_us: Some(30_000_000),
            ..Default::default()
        };
        let model = test_model();
        let a = simulate_closed_loop(
            &model,
            &spec,
            &ServeConfig::default(),
            flat(3_000.0),
            "d",
            None,
        );
        let b = simulate_closed_loop(
            &model,
            &spec,
            &ServeConfig::default(),
            flat(3_000.0),
            "d",
            None,
        );
        assert_eq!(a.digest, b.digest);
        // Bit-for-bit the digest the private FNV/splitmix copies produced
        // before they moved to `prism_semcache::hash`.
        assert_eq!(a.digest, 0x36a3_4493_53b0_e604);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }
}
