//! Golden conformance suite for the serving path.
//!
//! Locks in two properties:
//!
//! 1. **Golden stability** — direct `select_top_k` results (ids +
//!    quantized scores) for a fixed seed corpus match the committed
//!    `tests/golden/serve_conformance.json`, so engine refactors cannot
//!    silently change selections. Scores are quantized to 1e-4 so the
//!    file is robust to sub-ulp kernel-dispatch differences across hosts;
//!    regenerate with
//!    `cargo test --test serve_conformance -- --ignored regenerate`.
//! 2. **Serving parity** — the `prism-serve` path (queue → scheduler →
//!    coalesced batch → worker) returns **bit-identical** selections to
//!    direct engine calls for the same requests, at every batch size
//!    1..=8 and across worker counts, with and without the session cache.

use prism::api::{SelectionService, ServiceError};
use prism::core::{EngineOptions, PrismEngine, RequestOptions, Selection, SpillPrecision};
use prism::metrics::MemoryMeter;
use prism::model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism::serve::{PrismServer, ServeConfig};
use prism::storage::Container;
use prism::workload::{dataset_by_name, WorkloadGenerator};
use serde::Serialize;

const GOLDEN_PATH: &str = "tests/golden/serve_conformance.json";
const MODEL_SEED: u64 = 4242;
const WORKLOAD_SEED: u64 = 0x60D1;
const DATASET: &str = "wikipedia";
const NUM_REQUESTS: usize = 8;
const CANDIDATES: usize = 10;
const K: usize = 4;

#[derive(Serialize)]
struct GoldenRanked {
    id: usize,
    layer: usize,
    score_q: i64,
}

#[derive(Serialize)]
struct GoldenRequest {
    tag: u64,
    k: usize,
    candidates: usize,
    ranked: Vec<GoldenRanked>,
    last_scores_q: Vec<i64>,
}

#[derive(Serialize)]
struct GoldenFile {
    schema: String,
    model: String,
    model_seed: u64,
    dataset: String,
    workload_seed: u64,
    requests: Vec<GoldenRequest>,
}

fn quantize(score: f32) -> i64 {
    (f64::from(score) * 1e4).round() as i64
}

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf, Vec<SequenceBatch>) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), MODEL_SEED).unwrap();
    let mut path = std::env::temp_dir();
    // Per-test file: libtest runs these tests concurrently in one
    // process, so a shared path would race create/open/delete.
    path.push(format!("prism-golden-{tag}-{}.prsm", std::process::id()));
    model.write_container(&path).unwrap();
    let profile = dataset_by_name(DATASET).unwrap();
    let generator =
        WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, WORKLOAD_SEED);
    let batches = (0..NUM_REQUESTS)
        .map(|i| SequenceBatch::new(&generator.request(i as u64, CANDIDATES).sequences()).unwrap())
        .collect();
    (config, path, batches)
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

/// The sequential reference: a fresh engine answering the requests in
/// order with pinned tags 1..=N.
fn reference_selections(
    config: &ModelConfig,
    path: &std::path::Path,
    batches: &[SequenceBatch],
) -> Vec<Selection> {
    let eng = engine(config, path);
    batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            eng.select_with(b, RequestOptions::tagged(K, i as u64 + 1))
                .unwrap()
        })
        .collect()
}

fn golden_encoding(selections: &[Selection]) -> String {
    let file = GoldenFile {
        schema: "prism-serve-golden-v1".into(),
        model: "test-6l-decoder".into(),
        model_seed: MODEL_SEED,
        dataset: DATASET.into(),
        workload_seed: WORKLOAD_SEED,
        requests: selections
            .iter()
            .enumerate()
            .map(|(i, sel)| GoldenRequest {
                tag: i as u64 + 1,
                k: K,
                candidates: CANDIDATES,
                ranked: sel
                    .ranked
                    .iter()
                    .map(|r| GoldenRanked {
                        id: r.id,
                        layer: r.decided_at_layer,
                        score_q: quantize(r.score),
                    })
                    .collect(),
                last_scores_q: sel.last_scores.iter().copied().map(quantize).collect(),
            })
            .collect(),
    };
    let mut text = serde_json::to_string_pretty(&file).unwrap();
    text.push('\n');
    text
}

fn exact_bits(sel: &Selection) -> (Vec<(usize, u32, usize)>, Vec<u32>) {
    (
        sel.ranked
            .iter()
            .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
            .collect(),
        sel.last_scores.iter().map(|s| s.to_bits()).collect(),
    )
}

#[test]
fn direct_engine_matches_committed_golden() {
    let (config, path, batches) = fixture("golden");
    let reference = reference_selections(&config, &path, &batches);
    let encoded = golden_encoding(&reference);
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed golden file (regenerate with `-- --ignored regenerate`)");
    assert_eq!(
        encoded.trim(),
        committed.trim(),
        "direct selections diverged from the golden file; if the change \
         is intentional, regenerate with \
         `cargo test --test serve_conformance -- --ignored regenerate`"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Embedding is a pure row copy, so the §4.4 cache — one batched resolve
/// per request, its LRU carried from request to request — must select
/// exactly what the fully resident table does.
#[test]
fn embedding_cache_is_bit_identical_to_the_resident_table() {
    let (config, path, batches) = fixture("embed-cache");
    let cached = reference_selections(&config, &path, &batches);
    let resident = PrismEngine::new(
        Container::open(&path).unwrap(),
        config.clone(),
        EngineOptions {
            embed_cache: false,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap();
    for (i, (batch, cached)) in batches.iter().zip(&cached).enumerate() {
        let direct = resident
            .select_with(batch, RequestOptions::tagged(K, i as u64 + 1))
            .unwrap();
        assert_eq!(exact_bits(cached), exact_bits(&direct), "request {i}");
        assert_eq!(direct.trace.cache_stats.misses, 0, "table is resident");
    }
    let stats = cached.last().unwrap().trace.cache_stats;
    assert!(
        stats.misses > 0 && stats.hits > 0,
        "the cache was exercised"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn serving_is_bit_identical_at_every_batch_size() {
    let (config, path, batches) = fixture("batch-sizes");
    let reference = reference_selections(&config, &path, &batches);

    for batch_size in 1..=NUM_REQUESTS {
        let server = PrismServer::start(
            engine(&config, &path),
            ServeConfig {
                workers: 1,
                max_batch_requests: batch_size,
                session_cache_capacity: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let handles: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                server
                    .service("conformance")
                    .submit(b.clone(), RequestOptions::tagged(K, i as u64 + 1))
                    .unwrap()
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let resp = handle.wait().unwrap();
            assert_eq!(
                exact_bits(&resp.selection),
                exact_bits(&reference[i]),
                "request {i} diverged at batch size {batch_size}"
            );
        }
        server.shutdown();
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn serving_is_bit_identical_across_worker_counts_and_cache() {
    let (config, path, batches) = fixture("workers");
    let reference = reference_selections(&config, &path, &batches);

    for (workers, cache_sessions) in [(2, 0), (3, 0), (2, 16)] {
        let server = PrismServer::start(
            engine(&config, &path),
            ServeConfig {
                workers,
                max_batch_requests: 4,
                session_cache_capacity: cache_sessions,
                ..Default::default()
            },
        )
        .unwrap();
        // Two passes: with the cache on, the second pass replays
        // memoized selections and must still be bit-identical.
        for pass in 0..2 {
            let handles: Vec<_> = batches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    server
                        .service(format!("session-{i}"))
                        .submit(b.clone(), RequestOptions::tagged(K, i as u64 + 1))
                        .unwrap()
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let resp = handle.wait().unwrap();
                assert_eq!(
                    exact_bits(&resp.selection),
                    exact_bits(&reference[i]),
                    "request {i} diverged (workers {workers}, cache {cache_sessions}, pass {pass})"
                );
            }
        }
        if cache_sessions > 0 {
            let snap = server.stats().snapshot();
            assert!(
                snap.cache_selection_hits >= NUM_REQUESTS as u64,
                "second pass should replay from the session cache: {snap:?}"
            );
        }
        server.shutdown();
    }
    std::fs::remove_file(&path).unwrap();
}

/// Engine options for the §4.3 offload regime: hidden states spill to
/// disk in 2-candidate chunks (weights resident so the suite stays
/// fast). The regime where `SpillPrecision` becomes observable.
fn offload_engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        EngineOptions {
            streaming: false,
            embed_cache: false,
            hidden_offload: true,
            chunk_candidates: Some(2),
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap()
}

/// Serving must stay bit-identical to direct engine calls in *both*
/// spill-precision modes, at every batch size 1..=8, on an engine that
/// actually offloads hidden states.
#[test]
fn serving_is_bit_identical_in_both_spill_precisions() {
    let (config, path, batches) = fixture("spill-modes");
    for precision in [SpillPrecision::Int8, SpillPrecision::F32] {
        let opts =
            |i: usize| RequestOptions::tagged(K, i as u64 + 1).with_spill_precision(precision);
        let eng = offload_engine(&config, &path);
        let reference: Vec<Selection> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| eng.select_with(b, opts(i)).unwrap())
            .collect();
        for batch_size in 1..=NUM_REQUESTS {
            let server = PrismServer::start(
                offload_engine(&config, &path),
                ServeConfig {
                    workers: 1,
                    max_batch_requests: batch_size,
                    session_cache_capacity: 0,
                    ..Default::default()
                },
            )
            .unwrap();
            let handles: Vec<_> = batches
                .iter()
                .enumerate()
                .map(|(i, b)| {
                    server
                        .service("spill-conf")
                        .submit(b.clone(), opts(i))
                        .unwrap()
                })
                .collect();
            for (i, handle) in handles.into_iter().enumerate() {
                let resp = handle.wait().unwrap();
                assert_eq!(
                    exact_bits(&resp.selection),
                    exact_bits(&reference[i]),
                    "request {i} diverged ({precision:?}, batch size {batch_size})"
                );
            }
            server.shutdown();
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The acceptance gate on spill compression accuracy: int8-spill
/// selections match f32-spill selections on the golden corpus — same
/// top-K ids (exactly), scores within a tight absolute bound.
///
/// On the bound: one u8 quantization of these hidden states already
/// carries a half-step error of ~1.2e-3 at the state level, and the
/// int8-spill regime applies its rowq round-trip to **every** chunk at
/// each of the six layers (uniformly — resident chunks included — so
/// that result bits cannot depend on physical chunk layout). Per-mille score
/// agreement is therefore not physically reachable at 8 bits. Measured
/// max drift on this corpus is 4.3e-2; the assertion pins 6e-2 so a
/// codec regression (e.g. a lost rounding bit) still fails loudly while
/// the inherent quantization noise does not.
#[test]
fn int8_spill_matches_f32_spill_on_golden_corpus() {
    let (config, path, batches) = fixture("spill-parity");
    let eng = offload_engine(&config, &path);
    for (i, batch) in batches.iter().enumerate() {
        let tag = i as u64 + 1;
        let f32_sel = eng
            .select_with(
                batch,
                RequestOptions::tagged(K, tag).with_spill_precision(SpillPrecision::F32),
            )
            .unwrap();
        let int8_sel = eng
            .select_with(
                batch,
                RequestOptions::tagged(K, tag).with_spill_precision(SpillPrecision::Int8),
            )
            .unwrap();
        assert!(
            int8_sel.trace.spill_bytes > 0,
            "request {i}: the parity claim is empty unless spilling happened"
        );
        assert_eq!(
            int8_sel.top_ids(),
            f32_sel.top_ids(),
            "request {i}: int8 spill changed the top-K"
        );
        for (a, b) in int8_sel.last_scores.iter().zip(&f32_sel.last_scores) {
            assert!(
                (a - b).abs() < 6e-2,
                "request {i}: scores drifted past 6e-2 ({a} vs {b})"
            );
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The `prism-api` facade over the server must return the same bits as
/// both the legacy submission path and direct engine calls.
#[test]
fn facade_handles_are_bit_identical_to_direct_calls() {
    let (config, path, batches) = fixture("facade");
    let reference = reference_selections(&config, &path, &batches);
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 2,
            max_batch_requests: 4,
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let service = server.service("facade");
    let handles: Vec<_> = batches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            service
                .submit(b.clone(), RequestOptions::tagged(K, i as u64 + 1))
                .unwrap()
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.wait().unwrap();
        assert_eq!(
            exact_bits(&outcome.selection),
            exact_bits(&reference[i]),
            "facade request {i} diverged"
        );
    }
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Satellite conformance case: cancelled requests are answered with
/// `ServiceError::Cancelled`, counted on the `cancelled` gauge, and
/// never appear in `ServeStats` completions.
#[test]
fn cancelled_requests_never_appear_in_completions() {
    let (config, path, batches) = fixture("cancel-stats");
    // A slow streamed engine (emulated-SSD throttle) keeps the single
    // worker busy on the first request long enough for the cancellations
    // of the queued ones to land deterministically.
    let slow_engine = PrismEngine::new(
        Container::open(&path).unwrap(),
        config.clone(),
        EngineOptions {
            stream_throttle: Some(2_000_000),
            embed_cache: false,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap();
    let server = PrismServer::start(
        slow_engine,
        ServeConfig {
            workers: 1,
            max_batch_requests: 1,
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let service = server.service("cancel");

    // Occupy the worker, then queue the cancellation targets behind it.
    let running = service
        .submit(batches[0].clone(), RequestOptions::tagged(K, 1))
        .unwrap();
    let targets: Vec<_> = batches[1..5]
        .iter()
        .enumerate()
        .map(|(i, b)| {
            service
                .submit(b.clone(), RequestOptions::tagged(K, i as u64 + 2))
                .unwrap()
        })
        .collect();
    for t in &targets {
        t.cancel();
    }
    let mut cancelled = 0_u64;
    let mut finished = 1_u64; // the running request
    running.wait().unwrap();
    for t in targets {
        match t.wait() {
            Err(ServiceError::Cancelled) => cancelled += 1,
            Ok(_) => finished += 1,
            other => panic!("expected Cancelled or success, got {other:?}"),
        }
    }
    let snap = server.stats().snapshot();
    server.shutdown();
    assert!(cancelled > 0, "at least one queued request must cancel");
    assert_eq!(
        snap.completed, finished,
        "completions must count exactly the finished requests"
    );
    assert_eq!(
        snap.cancelled, cancelled,
        "every cancellation must land on the cancelled gauge"
    );
    assert_eq!(
        snap.completed + snap.cancelled,
        5,
        "all five submissions accounted for, disjointly"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Expired deadlines are rejected at admission with the typed error and
/// counted separately from completions.
#[test]
fn expired_deadline_rejected_at_admission() {
    let (config, path, batches) = fixture("deadline-adm");
    let server = PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap();
    let service = server.service("deadline");
    let err = service
        .submit(
            batches[0].clone(),
            RequestOptions::top_k(K).with_deadline_us(0),
        )
        .unwrap_err();
    assert!(matches!(err, ServiceError::DeadlineExceeded));
    let snap = server.stats().snapshot();
    assert_eq!(snap.deadline_rejected, 1);
    assert_eq!(snap.submitted, 0, "rejected request was never admitted");
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Regenerates `tests/golden/serve_conformance.json`. Run explicitly:
/// `cargo test --test serve_conformance -- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    let (config, path, batches) = fixture("regen");
    let reference = reference_selections(&config, &path, &batches);
    std::fs::create_dir_all("tests/golden").unwrap();
    std::fs::write(GOLDEN_PATH, golden_encoding(&reference)).unwrap();
    std::fs::remove_file(&path).unwrap();
    println!("wrote {GOLDEN_PATH}");
}
