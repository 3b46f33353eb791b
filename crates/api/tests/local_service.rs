//! `LocalService` conformance: parity with direct engine calls,
//! cancellation, deadlines and progress over the facade.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prism_api::{LocalService, RequestOptions, SelectionService, ServiceError};
use prism_core::{EngineOptions, PrismEngine};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::Container;
use prism_workload::{dataset_by_name, WorkloadGenerator};

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), 77).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("prism-api-{tag}-{}.prsm", std::process::id()));
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

fn batches(config: &ModelConfig, n: usize) -> Vec<SequenceBatch> {
    let profile = dataset_by_name("wikipedia").unwrap();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 0xA11CE);
    (0..n)
        .map(|i| SequenceBatch::new(&generator.request(i as u64, 10).sequences()).unwrap())
        .collect()
}

#[test]
fn outcomes_match_direct_engine_calls_bit_for_bit() {
    let (config, path) = fixture("parity");
    let reference = engine(&config, &path);
    let service = LocalService::new(engine(&config, &path));
    for (i, batch) in batches(&config, 4).into_iter().enumerate() {
        let options = RequestOptions::tagged(3, i as u64 + 1);
        let direct = reference.select_with(&batch, options.clone()).unwrap();
        let outcome = service.select(batch, options).unwrap();
        let bits = |s: &prism_core::Selection| {
            (
                s.ranked
                    .iter()
                    .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
                    .collect::<Vec<_>>(),
                s.last_scores
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(bits(&outcome.selection), bits(&direct), "request {i}");
        assert_eq!(outcome.batch_size, 1);
        assert!(!outcome.served_from_cache);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn handles_are_non_blocking_and_report_progress() {
    let (config, path) = fixture("progress");
    let service = LocalService::new(engine(&config, &path));
    let batch = batches(&config, 1).remove(0);
    let handle = service.submit(batch, RequestOptions::tagged(3, 9)).unwrap();
    assert_eq!(handle.ticket(), 1);
    let outcome = handle
        .wait_timeout(Duration::from_secs(30))
        .unwrap()
        .unwrap();
    // Progress observation happens through the attached sink; by
    // completion it must reflect the executed depth exactly.
    assert!(outcome.selection.trace.executed_layers > 0);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn cancellation_mid_flight_yields_cancelled() {
    let (config, path) = fixture("cancel");
    let service = LocalService::new(engine(&config, &path));
    let batch = batches(&config, 1).remove(0);
    // Cancel before the worker thread reaches its first layer boundary:
    // submit, cancel immediately. Depending on scheduling the request
    // may have already finished — both outcomes are legal, but a
    // cancelled one must surface as `ServiceError::Cancelled`.
    let handle = service.submit(batch, RequestOptions::top_k(2)).unwrap();
    handle.cancel();
    match handle.wait() {
        Err(ServiceError::Cancelled) | Ok(_) => {}
        other => panic!("expected Cancelled or a finished outcome, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn progress_sink_sees_layer_granularity_updates() {
    let (config, path) = fixture("sink");
    let service = LocalService::new(engine(&config, &path));
    let batch = batches(&config, 1).remove(0);
    let handle = service.submit(batch, RequestOptions::tagged(4, 3)).unwrap();
    let outcome = handle.wait_timeout(Duration::from_secs(30));
    // The final progress snapshot stays readable after the outcome was
    // taken through `wait_timeout(&self)`.
    let progress = handle.progress();
    let outcome = outcome.unwrap().unwrap();
    assert_eq!(
        progress.layers_forwarded,
        outcome.selection.trace.executed_layers
    );
    assert!(progress.layers_gated >= progress.layers_forwarded);
    // Finalize promotes remaining survivors after the last boundary, so
    // the snapshot's accepted count never exceeds the final ranking.
    assert!(progress.candidates_accepted <= outcome.selection.ranked.len());
    assert!(
        progress.candidates_pruned + progress.candidates_accepted + progress.candidates_active
            <= batches(&config, 1)[0].num_sequences(),
        "progress counts can never exceed the candidate set"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn expired_deadline_rejected_at_admission() {
    let (config, path) = fixture("deadline");
    let service = LocalService::new(engine(&config, &path));
    let batch = batches(&config, 1).remove(0);
    let err = service
        .submit(batch, RequestOptions::top_k(2).with_deadline_us(0))
        .unwrap_err();
    assert!(matches!(err, ServiceError::DeadlineExceeded));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn generous_deadline_does_not_change_results() {
    let (config, path) = fixture("generous");
    let reference = engine(&config, &path);
    let service = LocalService::new(engine(&config, &path));
    let batch = batches(&config, 1).remove(0);
    let direct = reference
        .select_with(&batch, RequestOptions::tagged(3, 5))
        .unwrap();
    let outcome = service
        .select(
            batch,
            RequestOptions::tagged(3, 5).with_deadline_us(60_000_000),
        )
        .unwrap();
    assert_eq!(
        outcome.selection.top_ids(),
        direct.top_ids(),
        "a deadline bounds when, never what"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_submissions_all_complete() {
    let (config, path) = fixture("fanout");
    let service = Arc::new(LocalService::new(engine(&config, &path)));
    let done = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = batches(&config, 6)
        .into_iter()
        .enumerate()
        .map(|(i, b)| {
            service
                .submit(b, RequestOptions::tagged(2, i as u64 + 100))
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
        done.fetch_add(1, Ordering::Relaxed);
    }
    assert_eq!(done.load(Ordering::Relaxed), 6);
    std::fs::remove_file(&path).unwrap();
}
