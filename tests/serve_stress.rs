//! Concurrency stress: interleaved multi-client serving must reproduce
//! the sequential reference per request — results bit-identical, traces
//! never cross-wired between sessions (extends `tests/determinism.rs` to
//! the concurrent serving path).

use prism::api::SelectionService;
use prism::core::{
    EngineOptions, EngineTrace, PrismEngine, PruneMode, RequestOptions, Selection, SemCacheMode,
};
use prism::metrics::MemoryMeter;
use prism::model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism::serve::{PrismServer, ServeConfig};
use prism::storage::Container;
use prism::workload::{dataset_by_name, WorkloadGenerator};

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), 99).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("prism-stress-{tag}-{}.prsm", std::process::id()));
    model.write_container(&path).unwrap();
    (config, path)
}

fn engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        EngineOptions::default(),
        MemoryMeter::new(),
    )
    .unwrap()
}

/// One synthetic client request with per-request option mix.
struct StressCase {
    client: usize,
    batch: SequenceBatch,
    options: RequestOptions,
}

/// Builds `clients x per_client` requests with mixed per-request options
/// (k, threshold, mode, pruning) and *distinct candidate counts per
/// client* so a cross-wired response is structurally detectable.
fn stress_cases(config: &ModelConfig, clients: usize, per_client: usize) -> Vec<StressCase> {
    let profile = dataset_by_name("msmarco").unwrap();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 0xABCD);
    let mut cases = Vec::new();
    for client in 0..clients {
        for i in 0..per_client {
            let candidates = 8 + client; // Client-specific batch shape.
            let request_idx = (client * per_client + i) as u64;
            let batch = SequenceBatch::new(&generator.request(request_idx, candidates).sequences())
                .unwrap();
            let mut options = RequestOptions::tagged(2 + (i % 3), request_idx * 7 + 1);
            match i % 4 {
                0 => {}
                1 => options.dispersion_threshold = Some(0.12),
                2 => options.mode = Some(PruneMode::ExactOrder),
                _ => options.pruning = Some(false),
            }
            cases.push(StressCase {
                client,
                batch,
                options,
            });
        }
    }
    cases
}

fn trace_fingerprint(trace: &EngineTrace) -> (Vec<usize>, usize, String) {
    (
        trace.active_per_layer.clone(),
        trace.executed_layers,
        format!("{:?}", trace.routes),
    )
}

fn assert_matches_reference(case: &StressCase, got: &Selection, want: &Selection, label: &str) {
    assert_eq!(
        got.last_scores.len(),
        case.batch.num_sequences(),
        "{label}: response shape does not match the request's batch \
         (cross-wired sessions?)"
    );
    let bits = |sel: &Selection| {
        sel.ranked
            .iter()
            .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(got), bits(want), "{label}: ranked diverged");
    assert_eq!(
        got.last_scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        want.last_scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        "{label}: last_scores diverged"
    );
    assert_eq!(
        trace_fingerprint(&got.trace),
        trace_fingerprint(&want.trace),
        "{label}: trace diverged (cross-wired events?)"
    );
}

fn run_stress(clients: usize, per_client: usize, workers: usize, tag: &str) {
    let (config, path) = fixture(tag);
    let cases = stress_cases(&config, clients, per_client);

    // Sequential reference, one fresh engine, submission order.
    let reference: Vec<Selection> = {
        let eng = engine(&config, &path);
        cases
            .iter()
            .map(|c| eng.select_with(&c.batch, c.options.clone()).unwrap())
            .collect()
    };

    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers,
            max_batch_requests: 4,
            queue_capacity: cases.len() + 8,
            ..Default::default()
        },
    )
    .unwrap();

    // Interleaved submission: one thread per client, each submitting its
    // own requests (distinct sessions) and validating its own replies.
    let cases = &cases;
    let reference = &reference;
    let server_ref = &server;
    std::thread::scope(|scope| {
        for client in 0..clients {
            let client_cases: Vec<usize> = cases
                .iter()
                .enumerate()
                .filter(|(_, c)| c.client == client)
                .map(|(i, _)| i)
                .collect();
            scope.spawn(move || {
                let mut handles = Vec::new();
                for &global_idx in &client_cases {
                    let case = &cases[global_idx];
                    let handle = server_ref
                        .service(format!("client-{client}"))
                        .submit(case.batch.clone(), case.options.clone())
                        .unwrap();
                    handles.push((global_idx, handle));
                }
                for (global_idx, handle) in handles {
                    let resp = handle.wait().unwrap();
                    assert_matches_reference(
                        &cases[global_idx],
                        &resp.selection,
                        &reference[global_idx],
                        &format!("client {client} request {global_idx}"),
                    );
                }
            });
        }
    });

    let snap = server.stats().snapshot();
    assert_eq!(snap.completed, cases.len() as u64);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn interleaved_clients_match_sequential_reference() {
    run_stress(4, 5, 2, "short");
}

/// Scheduler edge traces, minimized and replayed against the real
/// server: each scenario must fire one `ServeStats` counter.
mod edge_traces {
    use super::*;
    use prism::serve::{run_closed_loop, LoadSpec, ServeError};
    use std::time::Duration;

    /// Pre-built request batches so submission threads stay trivial.
    fn batches(config: &ModelConfig, n: usize, candidates: usize, seed: u64) -> Vec<SequenceBatch> {
        let profile = dataset_by_name("msmarco").unwrap();
        let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, seed);
        (0..n)
            .map(|i| {
                SequenceBatch::new(&generator.request(i as u64, candidates).sequences()).unwrap()
            })
            .collect()
    }

    /// Backpressure burst: a single-slot queue behind a serial worker
    /// must reject concurrent submitters, and closed-loop retry must
    /// still land every request.
    #[test]
    fn backpressure_burst_server_confirms() {
        let serve = ServeConfig {
            workers: 1,
            queue_capacity: 1,
            max_batch_requests: 1,
            ..Default::default()
        };

        // Eight clients hammering a one-deep queue trip admission
        // rejections, yet retry lands every request.
        let (config, path) = fixture("edge-backpressure");
        let cases = batches(&config, 32, 6, 0xB0B5);
        let server = PrismServer::start(engine(&config, &path), serve).unwrap();
        let rejections = std::sync::atomic::AtomicU64::new(0);
        let server_ref = &server;
        let cases_ref = &cases;
        let rejections_ref = &rejections;
        std::thread::scope(|scope| {
            for client in 0..8_usize {
                scope.spawn(move || {
                    let mut handles = Vec::new();
                    for i in 0..4 {
                        let batch = cases_ref[client * 4 + i].clone();
                        let service = server_ref.service(format!("burst-{client}"));
                        loop {
                            match service.submit(batch.clone(), RequestOptions::top_k(2)) {
                                Ok(h) => {
                                    handles.push(h);
                                    break;
                                }
                                Err(ServeError::Backpressure { retry_after, .. }) => {
                                    rejections_ref
                                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                    std::thread::sleep(retry_after.min(Duration::from_millis(2)));
                                }
                                Err(e) => panic!("unexpected submit error: {e}"),
                            }
                        }
                    }
                    for h in handles {
                        h.wait().expect("retried request must complete");
                    }
                });
            }
        });
        let snap = server.stats().snapshot();
        assert_eq!(snap.completed, 32);
        assert!(
            snap.rejected > 0,
            "server: burst must trip backpressure like the sim predicted"
        );
        assert_eq!(
            snap.rejected,
            rejections.load(std::sync::atomic::Ordering::Relaxed),
            "every rejection surfaced to a caller"
        );
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    /// Deadline shedding: requests whose budget expires while the serial
    /// worker is busy are shed at the next planning pass, never executed.
    #[test]
    fn deadline_shed_server_confirms() {
        let serve = ServeConfig {
            workers: 1,
            max_batch_requests: 1,
            ..Default::default()
        };

        // Fillers occupy the worker, then doomed requests with a 1 us budget arrive — all must shed with
        // `DeadlineExceeded`, none may execute.
        let (config, path) = fixture("edge-deadline");
        let cases = batches(&config, 8, 10, 0xDEAD);
        let server = PrismServer::start(engine(&config, &path), serve).unwrap();
        let fillers: Vec<_> = (0..2)
            .map(|i| {
                server
                    .service("filler")
                    .submit(cases[i].clone(), RequestOptions::top_k(2))
                    .unwrap()
            })
            .collect();
        let doomed: Vec<_> = (2..8)
            .map(|i| {
                server
                    .service("doomed")
                    .submit(
                        cases[i].clone(),
                        RequestOptions::top_k(2).with_deadline_us(1),
                    )
                    .unwrap()
            })
            .collect();
        for h in fillers {
            h.wait().expect("fillers have no deadline");
        }
        for h in doomed {
            match h.wait() {
                Err(ServeError::DeadlineExceeded) => {}
                other => panic!("expected DeadlineExceeded, got {other:?}"),
            }
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.deadline_missed, 6, "all doomed requests shed");
        assert_eq!(snap.completed, 2, "only the fillers executed");
        server.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    /// Semantic-cache counters, pinned: with one client the order is
    /// fixed, so every run counts the same candidate hits and misses,
    /// whatever the coalescing window. The pair was recorded when the
    /// exact cache replaced the per-session memo; it is a bit-exact
    /// witness for cache and queue refactors and must never be edited to
    /// make this test pass. Under a 200 ms window every request the
    /// cache answers in full leaves at pickup, never after waiting for
    /// company.
    #[test]
    fn semantic_cache_counters_are_pinned() {
        let (config, path) = fixture("edge-cache");
        let spec = LoadSpec {
            requests: 24,
            clients: 1,
            sessions: 2,
            corpus_repeat: 3,
            // Cross-session duplicates: the one cache serves every
            // session.
            dup_fraction: 0.25,
            options: RequestOptions::top_k(4).with_semcache(SemCacheMode::On),
            ..Default::default()
        };
        let window = Duration::from_millis(200);
        // (candidate hits, candidate misses).
        let pinned = (168, 120);
        for serve in [
            ServeConfig::default(),
            ServeConfig {
                max_batch_wait: window,
                ..Default::default()
            },
        ] {
            let server = PrismServer::start(engine(&config, &path), serve.clone()).unwrap();
            let measured = run_closed_loop(&server, &spec);
            let stats = measured.server_stats();
            let label = format!("window {:?}", serve.max_batch_wait);
            assert_eq!(measured.errors, 0, "{label}");
            assert_eq!(
                (stats.semcache_hits, stats.semcache_misses),
                pinned,
                "{label}"
            );
            // Requests the cache answered in full ran no pass.
            let passed = stats.batch_size.mean * stats.batch_size.count as f64;
            let answered = stats.completed - passed.round() as u64;
            assert!(answered > 0, "{label}: some request must replay in full");
            if serve.max_batch_wait == window {
                // One client: every request that needs a pass waits the
                // whole window alone, so the `answered` fastest requests
                // are the full replays, and they must not have waited it.
                let queued = &server.stats().queued_us;
                let bound = queued.quantile((answered as f64 - 0.5) / queued.count() as f64);
                assert!(bound < window.as_micros() as u64, "{label}: {bound}");
            }
            server.shutdown();
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// Nightly-scale soak: more clients, more requests, more workers. Gated
/// behind `--ignored` (CI runs it in the scheduled long-stress job).
#[test]
#[ignore]
fn long_interleaved_stress() {
    for round in 0..3 {
        run_stress(6, 12, 3, &format!("long-{round}"));
    }
}
