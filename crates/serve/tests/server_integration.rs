//! End-to-end serving behaviour over a real engine: parity with direct
//! engine calls, session-cache replay, backpressure, leak-free
//! cancellation on the offload path and clean shutdown.

use std::time::{Duration, Instant};

use prism_api::{SelectionService, ServiceError};
use prism_core::{EngineOptions, PrismEngine, RequestOptions, SemCacheMode};
use prism_metrics::{MemCategory, MemoryMeter};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_serve::{PrismServer, ServeConfig};
use prism_storage::Container;
use prism_workload::{dataset_by_name, WorkloadGenerator};

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), 42).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("prism-serve-it-{tag}-{}.prsm", std::process::id()));
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

fn batches(config: &ModelConfig, n: usize, candidates: usize) -> Vec<SequenceBatch> {
    let profile = dataset_by_name("wikipedia").unwrap();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 7);
    (0..n)
        .map(|i| SequenceBatch::new(&generator.request(i as u64, candidates).sequences()).unwrap())
        .collect()
}

fn scores_bits(sel: &prism_core::Selection) -> Vec<(usize, u32, usize)> {
    sel.ranked
        .iter()
        .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
        .collect()
}

#[test]
fn serving_matches_direct_engine_calls() {
    let (config, path) = fixture("parity");
    let requests = batches(&config, 6, 10);

    // Sequential reference: tags 1..=6 on a fresh engine.
    let reference: Vec<_> = {
        let eng = engine(&config, &path);
        requests
            .iter()
            .enumerate()
            .map(|(i, b)| {
                eng.select_with(b, RequestOptions::tagged(4, i as u64 + 1))
                    .unwrap()
            })
            .collect()
    };

    // Served: two workers, coalescing up to 4 requests.
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 2,
            max_batch_requests: 4,
            max_batch_wait: Duration::from_millis(1),
            ..Default::default()
        },
    )
    .unwrap();
    let handles: Vec<_> = requests
        .iter()
        .map(|b| {
            server
                .service("tenant")
                .submit(b.clone(), RequestOptions::top_k(4))
                .unwrap()
        })
        .collect();
    for (handle, reference) in handles.into_iter().zip(&reference) {
        let resp = handle.wait().unwrap();
        assert_eq!(
            scores_bits(&resp.selection),
            scores_bits(reference),
            "ticket {} diverged from the sequential reference",
            resp.ticket
        );
        assert_eq!(
            resp.selection
                .last_scores
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>(),
            reference
                .last_scores
                .iter()
                .map(|s| s.to_bits())
                .collect::<Vec<_>>()
        );
    }
    let snap = server.stats().snapshot();
    assert_eq!(snap.submitted, 6);
    assert_eq!(snap.completed, 6);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Per-tier cache counters of `server`: (whole-selection memo replays,
/// embedding replays). A request's tier is the counter that moved.
fn tier_hits(server: &PrismServer) -> (u64, u64) {
    let stats = server.stats();
    (
        stats.cache_selection_hits.get(),
        stats.cache_embed_hits.get(),
    )
}

#[test]
fn session_cache_replays_repeats_bit_identically() {
    let (config, path) = fixture("cache");
    let batch = batches(&config, 1, 8).pop().unwrap();
    let server = PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap();

    let opts = RequestOptions::tagged(3, 99);
    let first = server
        .service("s")
        .select(batch.clone(), opts.clone())
        .unwrap();
    assert!(!first.served_from_cache);
    assert_eq!(tier_hits(&server), (0, 0));

    // Exact repeat: replayed selection, no execution.
    let second = server
        .service("s")
        .select(batch.clone(), opts.clone())
        .unwrap();
    assert!(second.served_from_cache);
    assert_eq!(tier_hits(&server), (1, 0));
    assert_eq!(
        scores_bits(&second.selection),
        scores_bits(&first.selection)
    );

    // Same corpus, different tag: embedding replayed, fresh execution,
    // still identical to a direct call with that tag.
    let third = server
        .service("s")
        .select(batch.clone(), RequestOptions::tagged(3, 100))
        .unwrap();
    assert!(third.served_from_cache);
    assert_eq!(tier_hits(&server), (1, 1));
    let direct = engine(&config, &path)
        .select_with(&batch, RequestOptions::tagged(3, 100))
        .unwrap();
    assert_eq!(scores_bits(&third.selection), scores_bits(&direct));

    // Different session: its own cache entry (miss).
    let other = server.service("other").select(batch.clone(), opts).unwrap();
    assert!(!other.served_from_cache);
    assert_eq!(tier_hits(&server), (1, 1));

    let snap = server.stats().snapshot();
    assert_eq!(snap.cache_selection_hits, 1);
    assert_eq!(snap.cache_embed_hits, 1);
    assert!(snap.cache_hit_rate > 0.0);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shutdown_answers_accepted_requests() {
    let (config, path) = fixture("drain");
    let requests = batches(&config, 4, 8);
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 1,
            max_batch_requests: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let handles: Vec<_> = requests
        .iter()
        .map(|b| {
            server
                .service("t")
                .submit(b.clone(), RequestOptions::top_k(2))
                .unwrap()
        })
        .collect();
    server.shutdown();
    for h in handles {
        assert!(h.wait().is_ok(), "accepted work must be answered");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn invalid_requests_fail_without_poisoning_the_batch() {
    let (config, path) = fixture("invalid");
    let good = batches(&config, 1, 6).pop().unwrap();
    // A sequence longer than max_seq.
    let bad = SequenceBatch::new(&[vec![1_u32; config.max_seq + 1]]).unwrap();
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 1,
            max_batch_requests: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let service = server.service("t");
    // An empty batch, `k = 0` and a sequence longer than max_seq fail at
    // admission with the engine's own typed error, before the probe: no
    // cache counter moves, so nothing was embedded, memoized or evicted
    // on their behalf. The oversized batch goes in twice from the one
    // session and meets the same error both times.
    let empty = SequenceBatch::new(&[]).unwrap();
    let mut errors = Vec::new();
    for (batch, options) in [
        (empty, RequestOptions::top_k(1)),
        (good.clone(), RequestOptions::top_k(0)),
        (bad.clone(), RequestOptions::top_k(1)),
        (bad, RequestOptions::top_k(1)),
    ] {
        let Err(err) = service.submit(batch, options) else {
            panic!("admission accepted a request the engine cannot serve");
        };
        assert!(
            matches!(&err, ServiceError::Engine(msg) if msg.starts_with("invalid request")),
            "{err:?}"
        );
        errors.push(err.to_string());
    }
    assert!(errors[2].contains("max_seq"), "{}", errors[2]);
    assert_eq!(errors[2], errors[3]);
    let snap = server.stats().snapshot();
    assert_eq!((snap.cache_misses, snap.cache_embed_hits), (0, 0));
    assert_eq!(snap.deadline_rejected, 0, "not a deadline rejection");
    let h_good = service.submit(good, RequestOptions::top_k(2)).unwrap();
    assert!(h_good.wait().is_ok(), "a valid request must still succeed");
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// An engine whose weight stream is throttled to 512 KB/s: about 20 ms
/// per layer of the test model, so a pass lasts long enough to hold a
/// worker or to cancel into.
fn slow_engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        EngineOptions {
            stream_throttle: Some(512 << 10),
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap()
}

/// A deadline that passes mid-pass aborts the request at a layer
/// boundary with the typed error instead of running the pass to
/// completion.
#[test]
fn deadline_trips_mid_pass_at_a_layer_boundary() {
    let (config, path) = fixture("deadline");
    let server = PrismServer::start(slow_engine(&config, &path), ServeConfig::default()).unwrap();
    let batch = batches(&config, 1, 10).pop().unwrap();
    // Full depth takes every layer (~120 ms at this throttle); the
    // deadline allows a few.
    let options = RequestOptions {
        pruning: Some(false),
        ..RequestOptions::tagged(4, 1).with_deadline_us(60_000)
    };
    let handle = server.service("t").submit(batch, options).unwrap();
    let err = loop {
        if let Some(outcome) = handle.poll() {
            break outcome.unwrap_err();
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    assert!(
        matches!(err, ServiceError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        handle.progress().layers_forwarded < config.num_layers,
        "the pass must stop at the deadline, not run to completion"
    );
    assert_eq!(server.stats().snapshot().deadline_missed, 1);
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Cancellation on the offload path leaks nothing. Requests cancelled
/// before a worker picks them up, and mid-pass at every layer, leave the
/// engine's private spill directory empty and its hidden-state and
/// intermediate meters at zero; the next request is still bit-identical
/// to a direct engine call.
#[test]
fn cancelled_offload_requests_release_every_spill_byte() {
    let (config, path) = fixture("offload");
    let mut spill_dir = std::env::temp_dir();
    spill_dir.push(format!("prism-serve-it-offload-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).unwrap();
    // Twelve candidates in chunks of two: all but three chunks spill. The
    // throttled weight stream makes a pass last long enough to cancel into.
    let offload_engine = |meter: MemoryMeter| {
        PrismEngine::new(
            Container::open(&path).unwrap(),
            config.clone(),
            EngineOptions {
                hidden_offload: true,
                chunk_candidates: Some(2),
                stream_throttle: Some(512 << 10),
                ..Default::default()
            },
            meter,
        )
        .unwrap()
        .with_spill_dir(spill_dir.clone())
    };
    let batch = batches(&config, 1, 12).pop().unwrap();
    // Full depth, so every layer boundary is a point to cancel at.
    let opts = || RequestOptions {
        pruning: Some(false),
        ..RequestOptions::tagged(4, 1)
    };
    let reference = offload_engine(MemoryMeter::new())
        .select_with(&batch, opts())
        .unwrap();

    let meter = MemoryMeter::new();
    let server = PrismServer::start(
        offload_engine(meter.clone()),
        ServeConfig {
            workers: 1,
            // Every request runs a pass: no memo answers it.
            session_cache_capacity: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let service = server.service("t");
    let assert_clean = |context: &str| {
        let files: Vec<_> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(files.is_empty(), "{context}: leaked spill files {files:?}");
        for category in [MemCategory::HiddenStates, MemCategory::Intermediate] {
            assert_eq!(
                meter.current(category),
                0,
                "{context}: leaked {category:?} bytes"
            );
        }
    };

    // Before pickup: the one worker is inside a pass, so the requests
    // submitted now wait in the queue and are cancelled there.
    let busy = service.submit(batch.clone(), opts()).unwrap();
    while busy.progress().layers_gated == 0 {
        std::thread::sleep(Duration::from_micros(200));
    }
    let queued: Vec<_> = (0..3)
        .map(|_| service.submit(batch.clone(), opts()).unwrap())
        .collect();
    for handle in &queued {
        handle.cancel();
    }
    for handle in queued {
        assert!(matches!(handle.wait(), Err(ServiceError::Cancelled)));
    }
    assert_eq!(
        scores_bits(&busy.wait().unwrap().selection),
        scores_bits(&reference)
    );
    assert_clean("after cancels before pickup");

    // Mid-pass: cancel once the pass has forwarded `layer` layers. A
    // request that finishes first completes normally.
    let mut aborted = 0;
    for layer in 1..config.num_layers {
        let handle = service.submit(batch.clone(), opts()).unwrap();
        let outcome = loop {
            if handle.progress().layers_forwarded >= layer {
                handle.cancel();
                break handle.wait();
            }
            if let Some(outcome) = handle.poll() {
                break outcome;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        match outcome {
            Ok(resp) => assert_eq!(scores_bits(&resp.selection), scores_bits(&reference)),
            Err(ServiceError::Cancelled) => aborted += 1,
            Err(other) => panic!("cancel after layer {layer}: {other}"),
        }
        assert_clean(&format!("after a cancel after layer {layer}"));
    }
    assert!(aborted > 0, "no cancellation landed mid-pass");

    // The drained server serves the next request bit-identically.
    let again = service.select(batch.clone(), opts()).unwrap();
    assert_eq!(scores_bits(&again.selection), scores_bits(&reference));
    assert_eq!(
        again
            .selection
            .last_scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        reference
            .last_scores
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>()
    );
    server.shutdown();
    assert_clean("after shutdown");
    std::fs::remove_dir_all(&spill_dir).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn per_request_option_overrides_match_dedicated_engines() {
    let (config, path) = fixture("overrides");
    let batch = batches(&config, 1, 12).pop().unwrap();
    let server = PrismServer::start(engine(&config, &path), ServeConfig::default()).unwrap();

    // Served with a per-request threshold/pruning override...
    let mut opts = RequestOptions::tagged(4, 5);
    opts.dispersion_threshold = Some(0.45);
    let served_conservative = server.service("t").select(batch.clone(), opts).unwrap();
    let mut opts = RequestOptions::tagged(4, 5);
    opts.pruning = Some(false);
    let served_unpruned = server.service("t").select(batch.clone(), opts).unwrap();

    // ...must equal engines *configured* with those options.
    let conservative_engine = PrismEngine::new(
        Container::open(&path).unwrap(),
        config.clone(),
        EngineOptions {
            dispersion_threshold: 0.45,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap();
    let direct = conservative_engine
        .select_with(&batch, RequestOptions::tagged(4, 5))
        .unwrap();
    assert_eq!(
        scores_bits(&served_conservative.selection),
        scores_bits(&direct)
    );

    let unpruned_engine = PrismEngine::new(
        Container::open(&path).unwrap(),
        config.clone(),
        EngineOptions {
            pruning: false,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap();
    let direct = unpruned_engine
        .select_with(&batch, RequestOptions::tagged(4, 5))
        .unwrap();
    assert_eq!(
        scores_bits(&served_unpruned.selection),
        scores_bits(&direct)
    );
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A 200 ms wait for company: long enough that a request which sat it
/// out is unmistakable.
fn patient(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        max_batch_wait: Duration::from_millis(200),
        ..Default::default()
    }
}

/// A semantic full replay submitted alone is answered at pickup: the
/// coalescing window holds only requests that need a weight pass.
#[test]
fn cache_answers_leave_at_pickup_without_waiting_for_company() {
    let (config, path) = fixture("pickup");
    let server = PrismServer::start(engine(&config, &path), patient(1)).unwrap();
    let batch = batches(&config, 1, 6).pop().unwrap();
    let opts = |tag| RequestOptions {
        pruning: Some(false),
        ..RequestOptions::tagged(3, tag).with_semcache(SemCacheMode::Aggressive)
    };
    // First sight: a miss, which waits out the window and harvests.
    let first = server.service("a").select(batch.clone(), opts(1)).unwrap();
    assert!(!first.served_from_cache);

    // The same candidates from another session, alone in the server.
    let t0 = Instant::now();
    let replay = server.service("b").select(batch, opts(2)).unwrap();
    let elapsed = t0.elapsed();
    assert!(replay.served_from_cache);
    assert!(
        elapsed < Duration::from_millis(50),
        "a cache answer waited for company: {elapsed:?}"
    );
    assert_eq!(server.stats().batches.get(), 1, "the replay ran no pass");
    assert_eq!(
        scores_bits(&replay.selection),
        scores_bits(&first.selection)
    );
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Two misses submitted 5 ms apart still share one weight pass: the
/// window gathers the company it exists for, also across workers.
fn misses_inside_the_window_share_one_pass(workers: usize) {
    let (config, path) = fixture(&format!("window-{workers}"));
    let server = PrismServer::start(engine(&config, &path), patient(workers)).unwrap();
    let requests = batches(&config, 2, 6);
    let service = server.service("t");
    let first = service
        .submit(requests[0].clone(), RequestOptions::top_k(2))
        .unwrap();
    std::thread::sleep(Duration::from_millis(5));
    let second = service
        .submit(requests[1].clone(), RequestOptions::top_k(2))
        .unwrap();
    let (first, second) = (first.wait().unwrap(), second.wait().unwrap());
    assert_eq!(server.stats().batches.get(), 1, "workers: {workers}");
    assert_eq!((first.batch_size, second.batch_size), (2, 2));
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn misses_inside_the_window_share_one_pass_on_one_worker() {
    misses_inside_the_window_share_one_pass(1);
}

#[test]
fn misses_inside_the_window_share_one_pass_across_two_workers() {
    misses_inside_the_window_share_one_pass(2);
}
