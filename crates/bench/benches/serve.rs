//! Serving-path benches: request-at-a-time vs the coalescing scheduler vs
//! session-cache replay, on a streamed test-scale engine.

use criterion::{criterion_group, criterion_main, Criterion};
use prism_api::SelectionService;
use prism_core::{EngineOptions, PrismEngine, RequestOptions, RequestSpec};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_serve::{PrismServer, ServeConfig};
use prism_storage::Container;
use prism_workload::WorkloadGenerator;

struct Fixture {
    config: ModelConfig,
    path: std::path::PathBuf,
    batches: Vec<SequenceBatch>,
}

fn fixture() -> Fixture {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-bench-serve-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let batches = (0..8)
        .map(|i| SequenceBatch::new(&gen.request(i, 12).sequences()).expect("batch"))
        .collect();
    Fixture {
        config,
        path,
        batches,
    }
}

fn streamed_engine(fx: &Fixture) -> PrismEngine {
    let container = Container::open(&fx.path).expect("open");
    PrismEngine::new(
        container,
        fx.config.clone(),
        EngineOptions {
            embed_cache: false,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .expect("engine")
}

fn bench_batched_selection(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("serve_batching");
    g.sample_size(10);

    // 8 requests answered one at a time: 8 streamed weight passes.
    g.bench_function("select_8_sequential", |bencher| {
        let engine = streamed_engine(&fx);
        bencher.iter(|| {
            for (i, b) in fx.batches.iter().enumerate() {
                engine
                    .select_with(b, RequestOptions::tagged(4, i as u64 + 1))
                    .unwrap();
            }
        });
    });

    // The same 8 requests coalesced: one streamed weight pass.
    g.bench_function("select_8_coalesced", |bencher| {
        let engine = streamed_engine(&fx);
        bencher.iter(|| {
            let specs: Vec<RequestSpec<'_>> = fx
                .batches
                .iter()
                .enumerate()
                .map(|(i, b)| RequestSpec {
                    batch: b,
                    options: RequestOptions::tagged(4, i as u64 + 1),
                })
                .collect();
            engine.select_batch(&specs).unwrap();
        });
    });
    g.finish();
}

fn bench_server_round_trip(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("serve_round_trip");
    g.sample_size(10);

    // Full server loop: submit 8, wait 8 (coalescing on).
    g.bench_function("server_8_requests", |bencher| {
        let server = PrismServer::start(
            streamed_engine(&fx),
            ServeConfig {
                workers: 1,
                max_batch_requests: 8,
                session_cache_capacity: 0,
                ..Default::default()
            },
        )
        .expect("server");
        bencher.iter(|| {
            let handles: Vec<_> = fx
                .batches
                .iter()
                .map(|b| {
                    server
                        .service("bench")
                        .submit(b.clone(), RequestOptions::top_k(4))
                        .unwrap()
                })
                .collect();
            for h in handles {
                h.wait().unwrap();
            }
        });
    });

    // Exact repeats against a warm session cache: replay, no execution.
    g.bench_function("server_8_requests_cached", |bencher| {
        let server = PrismServer::start(
            streamed_engine(&fx),
            ServeConfig {
                workers: 1,
                max_batch_requests: 8,
                ..Default::default()
            },
        )
        .expect("server");
        // One session per corpus: the cache keeps a session's latest
        // corpus, so repeats must come from the owning session.
        let submit_all = || {
            let handles: Vec<_> = fx
                .batches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    server
                        .service(format!("bench-{i}"))
                        .submit(b.clone(), RequestOptions::tagged(4, 77))
                        .unwrap()
                })
                .collect();
            for h in handles {
                h.wait().unwrap();
            }
        };
        submit_all(); // Warm the cache.
        bencher.iter(submit_all);
    });
    g.finish();
}

criterion_group!(benches, bench_batched_selection, bench_server_round_trip);
criterion_main!(benches);
