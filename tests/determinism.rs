//! Determinism: identical seeds and configurations must reproduce results
//! bit-for-bit across fresh engines, with and without the concurrency-
//! heavy techniques (streaming thread, spill I/O).

use prism_core::{EngineOptions, PrismEngine, WeightFormat};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::Container;
use prism_workload::{dataset_catalog, WorkloadGenerator};

fn run_once(
    path: &std::path::Path,
    config: &ModelConfig,
    batch: &SequenceBatch,
    weights: WeightFormat,
) -> Vec<(usize, String)> {
    let options = EngineOptions {
        chunk_candidates: Some(3),
        hidden_offload: true,
        weights,
        ..Default::default()
    };
    let engine = PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        options,
        MemoryMeter::new(),
    )
    .unwrap();
    engine
        .select_top_k(batch, 5)
        .unwrap()
        .ranked
        .iter()
        .map(|r| (r.id, format!("{:.6}", r.score)))
        .collect()
}

#[test]
fn selections_reproduce_across_fresh_engines() {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 8);
    let model = Model::generate(config.clone(), 42).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("prism-det-{}.prsm", std::process::id()));
    model.write_container(&path).unwrap();
    let profile = dataset_catalog().into_iter().next().unwrap();
    let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 1);
    let batch = SequenceBatch::new(&gen.request(0, 14).sequences()).unwrap();

    for weights in [WeightFormat::F32, WeightFormat::Int8] {
        let a = run_once(&path, &config, &batch, weights);
        let b = run_once(&path, &config, &batch, weights);
        let c = run_once(&path, &config, &batch, weights);
        assert_eq!(a, b, "{weights:?}");
        assert_eq!(b, c, "{weights:?}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn workloads_and_weights_reproduce() {
    let config = ModelConfig::test_config(ModelArch::EncoderOnly, 4);
    let m1 = Model::generate(config.clone(), 9).unwrap();
    let m2 = Model::generate(config.clone(), 9).unwrap();
    assert_eq!(m1.weights, m2.weights);
    for profile in dataset_catalog().into_iter().take(3) {
        let g1 = WorkloadGenerator::new(profile.clone(), 512, 32, 77);
        let g2 = WorkloadGenerator::new(profile, 512, 32, 77);
        assert_eq!(g1.request(5, 10), g2.request(5, 10));
    }
}
