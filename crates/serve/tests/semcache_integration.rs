//! End-to-end behaviour of the semantic result cache inside the serving
//! stack: golden parity of `SemCacheMode::On` with the exact path (first
//! sight, full and partial replays), full-replay answers at pickup, and
//! leak-freedom of the cache byte meter under cancellation and a
//! high-overlap drain.

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

/// A serving config with one worker and a short window.
fn semcache_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
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

/// Candidates replayed by the semantic cache so far.
fn semantic_hits(server: &PrismServer) -> u64 {
    server.stats().semcache_hits.get()
}

/// Ids, score bits and decision layers of the ranking, then every
/// candidate's final score bits.
fn exact_bits(sel: &Selection) -> (Vec<(usize, u32, usize)>, Vec<u32>) {
    (
        sel.ranked
            .iter()
            .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
            .collect(),
        sel.last_scores.iter().map(|s| s.to_bits()).collect(),
    )
}

/// Golden-corpus parity: for batch sizes 1..=8 and both spill
/// precisions, semcache-on answers — first sight, full replay, and a
/// partial replay whose novel candidates run as a sub-batch — are
/// bit-identical to the semcache-off exact path: ids, score bits and
/// decision layers.
#[test]
fn semcache_on_matches_semcache_off_across_batch_sizes_and_precisions() {
    let (config, path) = fixture("golden");
    let server = PrismServer::start(engine(&config, &path), semcache_config()).unwrap();

    for candidates in 1..=8_usize {
        for spill in [SpillPrecision::Int8, SpillPrecision::F32] {
            let batch = batch_of(&config, candidates as u64, candidates);
            // The first half of `batch` beside candidates never seen.
            let fresh = batch_of(&config, 1000 + candidates as u64, candidates);
            let seqs: Vec<Vec<u32>> = (0..candidates)
                .map(|i| {
                    let source = if i < candidates / 2 { &batch } else { &fresh };
                    source.sequence(i).to_vec()
                })
                .collect();
            let mixed = SequenceBatch::new(&seqs).unwrap();
            let k = candidates.min(3);
            let submit = |batch: &SequenceBatch, mode: SemCacheMode| {
                server
                    .service("golden")
                    .select(batch.clone(), full_depth(k, candidates as u64, mode, spill))
                    .unwrap()
            };
            let reference = submit(&batch, SemCacheMode::Off);
            let mixed_reference = submit(&mixed, SemCacheMode::Off);
            // First sight: every candidate is novel and stored.
            let first = submit(&batch, SemCacheMode::On);
            // Repeat: every candidate replays.
            let hits_before = semantic_hits(&server);
            let replay = submit(&batch, SemCacheMode::On);
            assert!(replay.served_from_cache);
            assert_eq!(semantic_hits(&server) - hits_before, candidates as u64);
            // Partial: the first half replays, the rest is computed.
            let hits_before = semantic_hits(&server);
            let partial = submit(&mixed, SemCacheMode::On);
            assert_eq!(
                semantic_hits(&server) - hits_before,
                (candidates / 2) as u64
            );
            for (label, resp, want) in [
                ("first", &first, &reference),
                ("replay", &replay, &reference),
                ("partial", &partial, &mixed_reference),
            ] {
                assert_eq!(
                    exact_bits(&resp.selection),
                    exact_bits(&want.selection),
                    "{label} diverged at candidates={candidates} spill={spill:?}"
                );
            }
        }
    }
    let snap = server.stats().snapshot();
    assert!(snap.semcache_hits > 0);
    let cache = server.semcache().unwrap();
    assert_eq!(cache.audit().unwrap(), cache.bytes());
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// A repeat is answered entirely from the cache: no engine execution
/// (service time 0), a full hit from another session, per-candidate hit
/// counters and a live byte gauge. It submits `SemCacheMode::Aggressive`,
/// the alias of `On` that the benchmark's duplicate-heavy workloads use,
/// so the alias keeps replaying like `On`.
#[test]
fn aggressive_repeat_replays_without_touching_the_engine() {
    let (config, path) = fixture("replay");
    let server = PrismServer::start(engine(&config, &path), semcache_config()).unwrap();
    let batch = batch_of(&config, 9, 6);
    let opts = |tag| full_depth(3, tag, SemCacheMode::Aggressive, SpillPrecision::Int8);

    let first = server.service("a").select(batch.clone(), opts(1)).unwrap();
    assert!(!first.served_from_cache);
    assert_eq!(semantic_hits(&server), 0);

    // Same candidates from a *different* session: the cache is shared
    // by every session.
    let second = server.service("b").select(batch.clone(), opts(2)).unwrap();
    assert!(second.served_from_cache);
    assert_eq!(semantic_hits(&server), 6);
    assert_eq!(second.service_us, 0, "full replay runs zero layers");
    assert_eq!(exact_bits(&second.selection), exact_bits(&first.selection));

    let snap = server.stats().snapshot();
    assert_eq!(snap.semcache_hits, 6, "one hit per candidate");
    assert_eq!(
        snap.semcache_misses, 6,
        "one miss per first-sight candidate"
    );
    assert_eq!(snap.batches, 1, "only the first sight ran a pass");
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
                full_depth(2, round + 1, SemCacheMode::On, SpillPrecision::Int8),
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

    // A completed request still looks up and stores normally afterwards.
    let batch = batch_of(&config, 500, 5);
    for (i, replayed) in [0_u64, 5].into_iter().enumerate() {
        let hits_before = semantic_hits(&server);
        let resp = server
            .service("post")
            .select(
                batch.clone(),
                full_depth(2, 900 + i as u64, SemCacheMode::On, SpillPrecision::Int8),
            )
            .unwrap();
        assert_eq!(resp.served_from_cache, replayed > 0);
        assert_eq!(semantic_hits(&server) - hits_before, replayed);
    }
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}

/// Nightly soak: a high-overlap closed-loop run against a three-worker
/// server with the semantic cache on. Every request must succeed, and
/// after the drain the cache's byte meter must stay within budget and
/// reconcile exactly with the live entries (zero leaked bytes).
#[test]
#[ignore = "nightly soak: high-overlap drain"]
fn high_overlap_soak_drains_clean() {
    let (config, path) = fixture("soak");
    let server = PrismServer::start(
        engine(&config, &path),
        ServeConfig {
            workers: 3,
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
        options: RequestOptions::top_k(3).with_semcache(SemCacheMode::On),
        ..Default::default()
    };
    let report = prism_serve::run_closed_loop(&server, &spec);
    assert_eq!(report.completed + report.errors, spec.requests);
    assert_eq!(report.errors, 0);
    assert!(
        report.server_stats().semcache_hits > 0,
        "overlap must produce hits"
    );

    let cache = server.semcache().unwrap();
    let bytes = cache.bytes();
    assert!(bytes <= 256 << 10, "eviction must hold the budget");
    assert_eq!(
        cache.audit().unwrap(),
        bytes,
        "leaked cache bytes after drain"
    );
    server.shutdown();
    std::fs::remove_file(&path).unwrap();
}
