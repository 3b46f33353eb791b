//! End-to-end engine bench: PRISM (pruned, streamed, cached) versus the
//! vanilla resident baseline on a real test-scale model.

use criterion::{criterion_group, criterion_main, Criterion};
use prism_baselines::{HfVanilla, Reranker};
use prism_core::{EngineOptions, PrismEngine};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::Container;
use prism_workload::WorkloadGenerator;

struct Fixture {
    model: Model,
    path: std::path::PathBuf,
    batch: SequenceBatch,
}

fn fixture() -> Fixture {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-bench-engine-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let batch = SequenceBatch::new(&gen.request(0, 20).sequences()).expect("batch");
    Fixture { model, path, batch }
}

fn bench_systems(c: &mut Criterion) {
    let fx = fixture();
    let mut g = c.benchmark_group("rerank_top5_of_20");
    g.sample_size(20);

    g.bench_function("hf_vanilla", |bencher| {
        let container = Container::open(&fx.path).expect("open");
        let mut hf =
            HfVanilla::new(&container, fx.model.config.clone(), 8, MemoryMeter::new()).expect("hf");
        bencher.iter(|| hf.rerank(std::hint::black_box(&fx.batch), 5).unwrap());
    });

    g.bench_function("prism_default", |bencher| {
        let container = Container::open(&fx.path).expect("open");
        let engine = PrismEngine::new(
            container,
            fx.model.config.clone(),
            EngineOptions::default(),
            MemoryMeter::new(),
        )
        .expect("engine");
        bencher.iter(|| {
            engine
                .select_top_k(std::hint::black_box(&fx.batch), 5)
                .unwrap()
        });
    });

    g.bench_function("prism_no_pruning", |bencher| {
        let container = Container::open(&fx.path).expect("open");
        let options = EngineOptions {
            pruning: false,
            ..Default::default()
        };
        let engine = PrismEngine::new(
            container,
            fx.model.config.clone(),
            options,
            MemoryMeter::new(),
        )
        .expect("engine");
        bencher.iter(|| {
            engine
                .select_top_k(std::hint::black_box(&fx.batch), 5)
                .unwrap()
        });
    });

    // The perf-trajectory acceptance configuration: all weights resident,
    // pruning on, chunked execution across the parallel worker pool.
    g.bench_function("prism_resident_pruned", |bencher| {
        let container = Container::open(&fx.path).expect("open");
        let options = EngineOptions {
            streaming: false,
            embed_cache: false,
            ..Default::default()
        };
        let engine = PrismEngine::new(
            container,
            fx.model.config.clone(),
            options,
            MemoryMeter::new(),
        )
        .expect("engine");
        bencher.iter(|| {
            engine
                .select_top_k(std::hint::black_box(&fx.batch), 5)
                .unwrap()
        });
    });

    g.finish();
    std::fs::remove_file(&fx.path).ok();
}

/// Paper-mini scale: the bge-m3 mini twin (24 layers, hidden 32) over 20
/// candidates — the geometry `repro perf` tracks in `BENCH_kernels.json`.
fn bench_paper_mini(c: &mut Criterion) {
    let config = prism_model::ModelConfig::bge_m3().mini_twin();
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!(
        "prism-bench-engine-mini-{}.prsm",
        std::process::id()
    ));
    model.write_container(&path).expect("container");
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let batch = SequenceBatch::new(&gen.request(0, 20).sequences()).expect("batch");

    let mut g = c.benchmark_group("rerank_top5_of_20_paper_mini");
    g.sample_size(10);
    for (name, quant) in [
        ("prism_resident_pruned", false),
        ("prism_resident_q4", true),
    ] {
        let run_path = if quant {
            let mut qp = std::env::temp_dir();
            qp.push(format!(
                "prism-bench-engine-mini-q4-{}.prsm",
                std::process::id()
            ));
            model
                .quantized()
                .expect("quantize")
                .write_container(&qp)
                .expect("quant container");
            qp
        } else {
            path.clone()
        };
        g.bench_function(name, |bencher| {
            let container = Container::open(&run_path).expect("open");
            let options = EngineOptions {
                streaming: false,
                embed_cache: false,
                ..Default::default()
            };
            let engine = PrismEngine::new(container, config.clone(), options, MemoryMeter::new())
                .expect("engine");
            bencher.iter(|| {
                engine
                    .select_top_k(std::hint::black_box(&batch), 5)
                    .unwrap()
            });
        });
        if quant {
            std::fs::remove_file(&run_path).ok();
        }
    }
    g.finish();
    std::fs::remove_file(&path).ok();
}

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_systems, bench_paper_mini
}
criterion_main!(benches);
