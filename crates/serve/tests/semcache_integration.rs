//! End-to-end behaviour of the semantic result cache inside the serving
//! stack: golden parity of `VerifyAndFallback` with the exact path,
//! full-replay answers under `Aggressive`, and leak-freedom of the cache
//! byte meter under cancellation and a high-overlap drain.

use std::time::Duration;

use prism_api::SelectionService;
use prism_core::{
    EngineOptions, PrismEngine, RequestOptions, Selection, SemCacheMode, SpillPrecision,
};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_serve::{LoadSpec, PrismServer, ServeConfig};
use prism_storage::Container;
use prism_workload::{dataset_by_name, WorkloadGenerator};

fn fixture(tag: &str) -> (ModelConfig, std::path::PathBuf) {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
    let model = Model::generate(config.clone(), 42).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!(
        "prism-semcache-it-{tag}-{}.prsm",
        std::process::id()
    ));
    model.write_container(&path).unwrap();
    (config, path)
}

fn engine(config: &ModelConfig, path: &std::path::Path) -> PrismEngine {
    PrismEngine::new(
        Container::open(path).unwrap(),
        config.clone(),
        EngineOptions {
            streaming: false,
            embed_cache: false,
            ..Default::default()
        },
        MemoryMeter::new(),
    )
    .unwrap()
}

fn batch_of(config: &ModelConfig, corpus: u64, candidates: usize) -> SequenceBatch {
    let profile = dataset_by_name("wikipedia").unwrap();
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 7);
    SequenceBatch::new(&generator.request(corpus, candidates).sequences()).unwrap()
}

/// A serving config that isolates the semantic cache: the per-session
/// memo cache is off, so every repeat must be answered by the semantic
/// tier or recomputed.
fn semcache_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        session_cache_capacity: 0,
        max_batch_wait: Duration::from_millis(1),
        ..Default::default()
    }
}

/// Full-depth options: semantic replay only engages with effective
/// pruning off, which `opts.pruning = Some(false)` pins per request.
fn full_depth(k: usize, tag: u64, mode: SemCacheMode, spill: SpillPrecision) -> RequestOptions {
    let mut opts = RequestOptions::tagged(k, tag)
        .with_semcache(mode)
        .with_spill_precision(spill);
    opts.pruning = Some(false);
    opts
}

/// Candidates replayed by the semantic tier so far. A request is a
/// semantic full hit when it is served from cache and this moves by its
/// candidate count (the session memo is off in [`semcache_config`], so
/// no other tier can answer).
fn semantic_hits(server: &PrismServer) -> u64 {
    server.stats().semcache_hits.get()
}

fn ranked_bits(sel: &Selection) -> Vec<(usize, u32, usize)> {
    sel.ranked
        .iter()
        .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
        .collect()
}

/// Golden-corpus parity: for batch sizes 1..=8 and both spill
/// precisions, `VerifyAndFallback` answers (first sight, exact-tier
/// replay, and `Aggressive` full replay) are bit-identical to the
/// semcache-off exact path — ids, score bits and decision layers.
#[test]
fn verify_mode_matches_semcache_off_across_batch_sizes_and_precisions() {
    let (config, path) = fixture("golden");
    let server = PrismServer::start(engine(&config, &path), semcache_config()).unwrap();

    for candidates in 1..=8_usize {
        for spill in [SpillPrecision::Int8, SpillPrecision::F32] {
            let batch = batch_of(&config, candidates as u64, candidates);
            let k = candidates.min(3);
            let submit = |mode: SemCacheMode| {
                server
                    .service("golden")
                    .select(batch.clone(), full_depth(k, candidates as u64, mode, spill))
                    .unwrap()
            };
            let reference = submit(SemCacheMode::Off);
            // First sight: harvest-only miss, exact execution.
            let first = submit(SemCacheMode::VerifyAndFallback);
            // Repeat: exact-tier replay (or sampled verification — both
            // must stay bit-identical).
            let replay = submit(SemCacheMode::VerifyAndFallback);
            // Aggressive on token-identical candidates resolves in the
            // exact tier, so it is bit-identical here too.
            let hits_before = semantic_hits(&server);
            let aggressive = submit(SemCacheMode::Aggressive);
            for (label, resp) in [
                ("first", &first),
                ("replay", &replay),
                ("aggressive", &aggressive),
            ] {
                assert_eq!(
                    ranked_bits(&resp.selection),
                    ranked_bits(&reference.selection),
                    "{label} diverged at candidates={candidates} spill={spill:?}"
                );
                assert_eq!(
                    resp.selection
                        .last_scores
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    reference
                        .selection
                        .last_scores
                        .iter()
                        .map(|s| s.to_bits())
                        .collect::<Vec<_>>(),
                    "{label} scores diverged at candidates={candidates} spill={spill:?}"
                );
            }
            assert!(aggressive.served_from_cache);
            assert_eq!(semantic_hits(&server) - hits_before, candidates as u64);
        }
    }
    // No verification mismatch ever fell back, and the meter reconciles.
    let snap = server.stats().snapshot();
    assert_eq!(
        snap.semcache_fallbacks, 0,
        "exact replays must verify clean"
    );
    assert!(snap.semcache_hits > 0);
    let cache = server.semcache().unwrap();
    assert_eq!(cache.audit().unwrap(), cache.bytes());
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// An `Aggressive` repeat is answered entirely from the cache: no engine
/// execution (service time 0), a semantic full hit, per-candidate hit
/// counters and a live byte gauge.
#[test]
fn aggressive_repeat_replays_without_touching_the_engine() {
    let (config, path) = fixture("replay");
    let server = PrismServer::start(engine(&config, &path), semcache_config()).unwrap();
    let batch = batch_of(&config, 9, 6);
    let opts = |tag| full_depth(3, tag, SemCacheMode::Aggressive, SpillPrecision::Int8);

    let first = server.service("a").select(batch.clone(), opts(1)).unwrap();
    assert!(!first.served_from_cache);
    assert_eq!(semantic_hits(&server), 0);

    // Same candidates from a *different* session: the semantic tier is
    // cross-session, unlike the per-session memo cache.
    let second = server.service("b").select(batch.clone(), opts(2)).unwrap();
    assert!(second.served_from_cache);
    assert_eq!(semantic_hits(&server), 6);
    assert_eq!(second.service_us, 0, "full replay runs zero layers");
    assert_eq!(
        ranked_bits(&second.selection),
        ranked_bits(&first.selection)
    );

    let snap = server.stats().snapshot();
    assert_eq!(snap.semcache_hits, 6, "one hit per candidate");
    assert_eq!(
        snap.semcache_misses, 6,
        "one miss per first-sight candidate"
    );
    assert!(snap.semcache_bytes > 0);
    assert_eq!(snap.semcache_bytes, server.semcache().unwrap().bytes());
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Requests that never complete — cancelled before or during execution —
/// must contribute nothing to the cache: the byte meter still reconciles
/// against the live entries and later exact service is unaffected.
#[test]
fn cancelled_requests_leak_no_cache_bytes() {
    let (config, path) = fixture("cancel");
    let server = PrismServer::start(engine(&config, &path), semcache_config()).unwrap();
    let service = server.service("cancel-tenant");

    // Race cancellation against execution at every point from "before
    // pickup" to "after completion".
    for round in 0..12_u64 {
        let batch = batch_of(&config, 100 + round, 5);
        let handle = service
            .submit(
                batch,
                full_depth(2, round + 1, SemCacheMode::Aggressive, SpillPrecision::Int8),
            )
            .unwrap();
        if round % 3 == 0 {
            handle.cancel();
        } else if round % 3 == 1 {
            std::thread::sleep(Duration::from_micros(200 * round));
            handle.cancel();
        }
        let _ = handle.wait();
        let cache = server.semcache().unwrap();
        assert_eq!(
            cache.audit().unwrap(),
            cache.bytes(),
            "meter diverged after round {round}"
        );
    }

    // A completed request still probes/harvests normally afterwards.
    let batch = batch_of(&config, 500, 5);
    for (i, replayed) in [0_u64, 5].into_iter().enumerate() {
        let hits_before = semantic_hits(&server);
        let resp = server
            .service("post")
            .select(
                batch.clone(),
                full_depth(
                    2,
                    900 + i as u64,
                    SemCacheMode::Aggressive,
                    SpillPrecision::Int8,
                ),
            )
            .unwrap();
        assert_eq!(resp.served_from_cache, replayed > 0);
        assert_eq!(semantic_hits(&server) - hits_before, replayed);
    }
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Nightly soak: a high-overlap closed-loop run against a three-worker
/// server with verification sampling on. After the drain the cache's byte meter
/// must reconcile exactly (zero leaked bytes), stay within budget, and
/// clearing must release everything.
#[test]
#[ignore = "nightly soak: high-overlap drain"]
fn high_overlap_soak_drains_clean() {
    let (config, path) = fixture("soak");
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 3,
            session_cache_capacity: 0,
            semcache_capacity_bytes: 256 << 10,
            ..Default::default()
        },
    )
    .unwrap();
    let spec = LoadSpec {
        requests: 300,
        clients: 6,
        candidates: 8,
        sessions: 5,
        dup_fraction: 0.7,
        options: RequestOptions::top_k(3).with_semcache(SemCacheMode::VerifyAndFallback),
        ..Default::default()
    };
    let report = prism_serve::run_closed_loop(&server, &spec);
    assert_eq!(report.completed + report.errors, spec.requests);
    assert_eq!(report.errors, 0);
    let stats = report.server_stats();
    assert_eq!(stats.semcache_fallbacks, 0, "exact replays only");
    assert!(stats.semcache_hits > 0, "overlap must produce hits");

    let cache = server.semcache().unwrap();
    let bytes = cache.bytes();
    assert!(bytes <= 256 << 10, "eviction must hold the budget");
    assert_eq!(
        cache.audit().unwrap(),
        bytes,
        "leaked cache bytes after drain"
    );

    // Arc soundness under drop: shutdown then reopen-free cleanup.
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
