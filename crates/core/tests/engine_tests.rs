//! Integration tests of the PRISM engine against real mini models and
//! planted-relevance workloads.
//!
//! The central correctness claims verified here:
//!
//! 1. every memory technique (streaming, chunking, embedding cache,
//!    hidden-state offload) is *bit-exact* — identical scores to the
//!    vanilla resident path,
//! 2. progressive cluster pruning preserves top-K membership on separable
//!    workloads while executing fewer layer-candidates,
//! 3. traces faithfully describe execution (monotone active counts, early
//!    termination, stream/cache stats populated).

use prism_core::{
    EngineOptions, PrismEngine, PruneMode, RequestOptions, RequestSpec, Selection, WeightFormat,
};
use prism_metrics::{precision_at_k, MemoryMeter};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_storage::Container;
use prism_storage::SpillPrecision;
use prism_workload::{dataset_catalog, WorkloadGenerator};

struct Fixture {
    model: Model,
    container_path: std::path::PathBuf,
}

impl Fixture {
    fn new(arch: ModelArch, layers: usize, tag: &str) -> Fixture {
        Fixture::with_config(ModelConfig::test_config(arch, layers), tag)
    }

    fn with_config(config: ModelConfig, tag: &str) -> Fixture {
        let layers = config.num_layers;
        let model = Model::generate(config, 42).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "prism-engine-test-{}-{}-{tag}.prsm",
            std::process::id(),
            layers
        ));
        model.write_container(&path).unwrap();
        Fixture {
            model,
            container_path: path,
        }
    }

    fn engine(&self, options: EngineOptions) -> PrismEngine {
        let container = Container::open(&self.container_path).unwrap();
        PrismEngine::new(
            container,
            self.model.config.clone(),
            options,
            MemoryMeter::new(),
        )
        .unwrap()
    }

    fn batch(&self, request_idx: u64, candidates: usize) -> (SequenceBatch, Vec<usize>) {
        let profile = prism_workload::dataset::dataset_by_name("wikipedia").unwrap();
        let gen = WorkloadGenerator::new(
            profile,
            self.model.config.vocab_size,
            self.model.config.max_seq,
            7,
        );
        let req = gen.request(request_idx, candidates);
        (
            SequenceBatch::new(&req.sequences()).unwrap(),
            req.relevant.clone(),
        )
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.container_path);
    }
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

#[test]
fn all_memory_techniques_are_bit_exact() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "bitexact");
    let (batch, _) = fx.batch(0, 12);
    let k = 4;

    // Reference: no techniques, no pruning.
    let vanilla = fx.engine(EngineOptions::all_off());
    let reference = vanilla.select_top_k(&batch, k).unwrap();

    let cases: Vec<(&str, EngineOptions)> = vec![
        ("streaming", {
            let mut o = EngineOptions::all_off();
            o.streaming = true;
            o
        }),
        ("chunking", {
            let mut o = EngineOptions::all_off();
            o.chunking = true;
            o.chunk_candidates = Some(3);
            o
        }),
        ("embed_cache", {
            let mut o = EngineOptions::all_off();
            o.embed_cache = true;
            o.embed_cache_fraction = 0.10;
            o
        }),
        ("hidden_offload", {
            let mut o = EngineOptions::all_off();
            o.chunking = true;
            o.chunk_candidates = Some(2);
            o.hidden_offload = true;
            o
        }),
        ("everything", {
            EngineOptions {
                pruning: false,
                chunk_candidates: Some(2),
                hidden_offload: true,
                ..Default::default()
            }
        }),
    ];

    for (name, options) in cases {
        let engine = fx.engine(options);
        // `SpillPrecision::F32` opts out of the (default) lossy int8
        // spill encoding, so offloaded runs stay bit-exact too.
        let got = engine
            .select_with(
                &batch,
                RequestOptions::top_k(k).with_spill_precision(SpillPrecision::F32),
            )
            .unwrap();
        assert_eq!(
            got.top_ids(),
            reference.top_ids(),
            "{name}: top-K must match vanilla"
        );
        for (a, b) in got.last_scores.iter().zip(&reference.last_scores) {
            assert!((a - b).abs() < 1e-5, "{name}: scores diverged ({a} vs {b})");
        }
    }
}

/// One chunked selection's peak `Intermediate` charge in workspaces of
/// its largest chunk, checked bit for bit against the same request with
/// chunking off. Every candidate is `len` tokens and chunks hold two
/// candidates, so the largest chunk is `2 * len` rows.
fn chunk_workspaces(config: ModelConfig, candidates: usize, len: usize, tag: &str) -> u64 {
    let fx = Fixture::with_config(config, tag);
    let config = &fx.model.config;
    let sequences: Vec<Vec<u32>> = (0..candidates)
        .map(|c| {
            (0..len)
                .map(|t| ((c * 131 + t * 17) % config.vocab_size) as u32)
                .collect()
        })
        .collect();
    let batch = SequenceBatch::new(&sequences).unwrap();
    let chunked = fx.engine(EngineOptions {
        chunk_candidates: Some(2),
        ..Default::default()
    });
    let got = chunked.select_top_k(&batch, 2).unwrap();
    let whole = fx.engine(EngineOptions {
        chunking: false,
        ..Default::default()
    });
    let reference = whole.select_top_k(&batch, 2).unwrap();
    assert_eq!(got.top_ids(), reference.top_ids());
    let bits = |v: &[f32]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.last_scores), bits(&reference.last_scores));
    let peak = chunked
        .meter()
        .peak(prism_metrics::MemCategory::Intermediate);
    // The int8 engine's workspace: the f32 working set plus the rowq lane.
    let workspace = prism_model::layer::intermediate_bytes(config, 2 * len, len)
        + prism_model::layer::rowq_lane_bytes(config, 2 * len);
    assert_eq!(
        peak % workspace,
        0,
        "peak {peak} B, workspace {workspace} B"
    );
    peak / workspace
}

/// A layer's chunks fan out by the rule every GEMM obeys: per-chunk work
/// of at least `PAR_FLOP_THRESHOLD` multiply-accumulates. A mini chunk
/// (128 rows x 10 k MACs a row, about 1.3 M) forwards inline with one
/// workspace; a hidden-256 chunk (32 rows x 655 k, about 21 M) keeps one
/// worker, and one workspace, per core up to its two chunks.
#[test]
fn chunks_fan_out_only_above_the_gemm_threshold() {
    let mini = ModelConfig::qwen3_0_6b().mini_twin();
    assert_eq!(chunk_workspaces(mini, 4, 64, "fanout-mini"), 1);

    let wide = ModelConfig {
        name: "Qwen3-Reranker-0.6B-wide".into(),
        hidden_dim: 256,
        num_heads: 8,
        ffn_dim: 512,
        num_layers: 8,
        ..ModelConfig::qwen3_0_6b().mini_twin()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        chunk_workspaces(wide, 4, 16, "fanout-wide"),
        cores.min(2) as u64
    );
}

#[test]
fn int8_spill_preserves_topk_within_tolerance() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "int8spill");
    let (batch, _) = fx.batch(0, 12);
    let k = 4;
    let mut options = EngineOptions::all_off();
    options.chunking = true;
    options.chunk_candidates = Some(2);
    options.hidden_offload = true;
    let engine = fx.engine(options);
    let f32_sel = engine
        .select_with(
            &batch,
            RequestOptions::top_k(k).with_spill_precision(SpillPrecision::F32),
        )
        .unwrap();
    let int8_sel = engine
        .select_with(
            &batch,
            RequestOptions::top_k(k).with_spill_precision(SpillPrecision::Int8),
        )
        .unwrap();
    // Membership (not rank order) is the contract here: this fixture has
    // a near-tied candidate pair whose order legitimately flips within
    // the row-quant drift.
    assert_eq!(
        sorted(int8_sel.top_ids()),
        sorted(f32_sel.top_ids()),
        "int8 spill must preserve top-K membership"
    );
    // Pruning off + full depth is the worst case for row-quant drift:
    // every spilled chunk is re-encoded after all six layers.
    for (a, b) in int8_sel.last_scores.iter().zip(&f32_sel.last_scores) {
        assert!((a - b).abs() < 2e-2, "scores drifted too far ({a} vs {b})");
    }
    // And int8 moves far fewer spill bytes for the same request. At the
    // test config's hidden_dim of 16 the 8-byte/row `(min, scale)`
    // overhead caps the ratio near (4*16)/(16+8) = 2.67x; at real model
    // widths it approaches the full 4x.
    assert!(
        int8_sel.trace.spill_bytes * 5 < f32_sel.trace.spill_bytes * 2,
        "int8 {} vs f32 {}",
        int8_sel.trace.spill_bytes,
        f32_sel.trace.spill_bytes
    );
}

/// An int8 engine vs an f32 engine over one container: identical top-K
/// membership under both spill precisions at every batch size 1..=8.
///
/// Tolerance contract: each of the seven per-layer projections quantizes
/// activations to 255 levels and weights to 127, and the drift compounds
/// across the 6 layers; on this fixture the worst observed score delta is
/// ~1.0e-2, so 3e-2 documents the bound with ~3x headroom while still
/// catching a broken rescale (which is off by O(1)).
#[test]
fn int8_compute_preserves_topk_across_spill_precisions_and_batch_sizes() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "int8compute");
    // One-candidate chunks in the offload regime: batches of 4+ spill,
    // smaller ones stay resident, so both int8 code paths are covered.
    let engine = |weights| {
        let mut o = EngineOptions::all_off();
        o.chunking = true;
        o.chunk_candidates = Some(1);
        o.hidden_offload = true;
        o.weights = weights;
        fx.engine(o)
    };
    let (f32_engine, int8_engine) = (engine(WeightFormat::F32), engine(WeightFormat::Int8));
    for spill in [SpillPrecision::F32, SpillPrecision::Int8] {
        for n in 1..=8 {
            let (batch, _) = fx.batch(n as u64, n);
            let request = RequestOptions::top_k(n.min(3)).with_spill_precision(spill);
            let f32_sel = f32_engine.select_with(&batch, request.clone()).unwrap();
            let int8_sel = int8_engine.select_with(&batch, request).unwrap();
            assert_eq!(
                sorted(int8_sel.top_ids()),
                sorted(f32_sel.top_ids()),
                "top-K membership diverged ({spill:?}, n={n})"
            );
            for (a, b) in int8_sel.last_scores.iter().zip(&f32_sel.last_scores) {
                assert!(
                    (a - b).abs() < 3e-2,
                    "score drift too large ({spill:?}, n={n}): int8 {a} vs f32 {b}"
                );
            }
        }
    }
}

/// Int8-engine conformance: the int8 layers are derived once, at open,
/// and every placement reads those same layers, so an int8 engine's bits
/// do not depend on where its layers live (resident, or streamed from the
/// sidecar), on chunking, or on the batch a request shares a layer pass
/// with, in either spill precision. Hidden offload is on throughout so
/// the spill precision is observable; only the resident unchunked
/// reference keeps a single chunk, which never spills, so the int8-spill
/// rows compare offloading placements with each other.
#[test]
fn int8_engine_is_bit_identical_across_placements_and_batch_mates() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "int8conf");
    let int8 = |streaming: bool, chunk: Option<usize>| EngineOptions {
        streaming,
        chunking: chunk.is_some(),
        chunk_candidates: chunk,
        hidden_offload: chunk.is_some(),
        pruning: true,
        weights: WeightFormat::Int8,
        ..EngineOptions::all_off()
    };
    let bits = |sel: &Selection| -> (Vec<(usize, u32, usize)>, Vec<u32>) {
        (
            sel.ranked
                .iter()
                .map(|r| (r.id, r.score.to_bits(), r.decided_at_layer))
                .collect(),
            sel.last_scores.iter().map(|s| s.to_bits()).collect(),
        )
    };
    let batches: Vec<SequenceBatch> = (0..3).map(|i| fx.batch(i, 10).0).collect();
    let request =
        |i: usize, spill| RequestOptions::tagged(4, i as u64 + 1).with_spill_precision(spill);

    for spill in [SpillPrecision::F32, SpillPrecision::Int8] {
        // Alone, on a resident chunked engine.
        let reference_engine = fx.engine(int8(false, Some(2)));
        let reference: Vec<Selection> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| reference_engine.select_with(b, request(i, spill)).unwrap())
            .collect();
        assert!(
            reference.iter().all(|s| s.trace.spill_bytes > 0),
            "{spill:?}: the chunked engine must spill"
        );
        let mut placements = vec![("streamed chunked", int8(true, Some(2)))];
        if spill == SpillPrecision::F32 {
            // An f32 spill round trip is exact, so an unchunked engine
            // (nothing spills) must agree too.
            placements.push(("resident unchunked", int8(false, None)));
            placements.push(("streamed unchunked", int8(true, None)));
        }
        for (name, options) in placements {
            let engine = fx.engine(options);
            // Alone.
            for (i, b) in batches.iter().enumerate() {
                let got = engine.select_with(b, request(i, spill)).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&reference[i]),
                    "{name}, {spill:?}, request {i}"
                );
            }
            // With batch-mates: all three share every layer pass.
            let specs: Vec<RequestSpec> = batches
                .iter()
                .enumerate()
                .map(|(i, batch)| RequestSpec {
                    batch,
                    options: request(i, spill),
                })
                .collect();
            for (i, got) in engine.select_batch(&specs).unwrap().iter().enumerate() {
                assert_eq!(
                    bits(got),
                    bits(&reference[i]),
                    "{name}, {spill:?}, request {i} with batch-mates"
                );
            }
        }
    }
}

#[test]
fn engine_matches_model_forward_full() {
    let fx = Fixture::new(ModelArch::EncoderOnly, 5, "refmatch");
    let (batch, _) = fx.batch(1, 10);
    let engine = fx.engine(EngineOptions {
        weights: WeightFormat::F32,
        ..EngineOptions::all_off()
    });
    let sel = engine.select_top_k(&batch, 10).unwrap();
    let direct = fx.model.forward_full(&batch).unwrap();
    for (i, s) in direct.iter().enumerate() {
        assert!(
            (sel.last_scores[i] - s).abs() < 1e-5,
            "candidate {i}: engine {} vs model {s}",
            sel.last_scores[i]
        );
    }
}

#[test]
fn pruning_preserves_top_k_on_separable_workload() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 8, "precision");
    let full = fx.engine(EngineOptions::all_off());
    let pruned = fx.engine(EngineOptions::default());

    let mut matches = 0_usize;
    let mut total = 0_usize;
    let mut work_saved = 0.0_f64;
    let requests = 8;
    for r in 0..requests {
        let (batch, _) = fx.batch(r, 16);
        let k = 5;
        let truth = full.select_top_k(&batch, k).unwrap();
        let fast = pruned.select_top_k(&batch, k).unwrap();
        total += k;
        let truth_ids = sorted(truth.top_ids());
        for id in fast.top_ids() {
            if truth_ids.binary_search(&id).is_ok() {
                matches += 1;
            }
        }
        let layers = fx.model.config.num_layers;
        let full_work = (16 * layers) as f64;
        let done: usize = fast.trace.active_per_layer.iter().sum();
        work_saved += 1.0 - done as f64 / full_work;
    }
    let agreement = matches as f64 / total as f64;
    assert!(
        agreement >= 0.85,
        "pruned top-K agreement {agreement} too low"
    );
    let avg_saved = work_saved / requests as f64;
    assert!(
        avg_saved > 0.15,
        "pruning saved only {avg_saved:.2} of layer-candidate work"
    );
}

#[test]
fn early_termination_happens_on_easy_requests() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 10, "earlyterm");
    let engine = fx.engine(EngineOptions::low_threshold());
    let mut any_early = false;
    for r in 0..10 {
        let (batch, _) = fx.batch(r, 16);
        let sel = engine.select_top_k(&batch, 5).unwrap();
        assert_eq!(sel.ranked.len(), 5);
        if sel.trace.executed_layers < fx.model.config.num_layers {
            any_early = true;
        }
    }
    assert!(any_early, "low threshold should terminate early somewhere");
}

#[test]
fn trace_active_counts_are_monotone_and_consistent() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 8, "trace");
    let engine = fx.engine(EngineOptions::default());
    let (batch, _) = fx.batch(3, 20);
    let sel = engine.select_top_k(&batch, 5).unwrap();
    let t = &sel.trace;
    assert!(!t.active_per_layer.is_empty());
    for w in t.active_per_layer.windows(2) {
        assert!(
            w[1] <= w[0],
            "active counts must never grow: {:?}",
            t.active_per_layer
        );
    }
    assert_eq!(t.executed_layers, t.active_per_layer.len());
    // Every routed id must be a valid candidate and routed at most once.
    let mut seen = std::collections::HashSet::new();
    for route in &t.routes {
        for id in route.selected.iter().chain(&route.dropped) {
            assert!(*id < 20);
            assert!(seen.insert(*id), "candidate {id} routed twice");
        }
    }
    // Latency spans exist.
    assert!(t.latency.span("embed").is_some());
    assert!(t.latency.span("forward").is_some());
}

#[test]
fn streaming_stats_and_cache_stats_populate() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "stats");
    let o = EngineOptions {
        pruning: false,
        ..Default::default()
    };
    let engine = fx.engine(o);
    let (batch, _) = fx.batch(0, 8);
    let sel = engine.select_top_k(&batch, 2).unwrap();
    assert_eq!(sel.trace.stream_stats.sections, 6, "all layers streamed");
    assert!(sel.trace.stream_stats.bytes > 0);
    let cs = sel.trace.cache_stats;
    assert!(cs.hits + cs.misses > 0, "cache was exercised");
    // Re-issuing the same request hits the warm cache, so the cumulative
    // hit rate must rise. (A distinct second request is not guaranteed to:
    // its token draw may overlap the cached rows arbitrarily little.)
    let (batch2, _) = fx.batch(0, 8);
    let sel2 = engine.select_top_k(&batch2, 2).unwrap();
    assert!(sel2.trace.cache_stats.hit_rate() >= cs.hit_rate());
}

#[test]
fn exact_order_mode_matches_full_inference_order() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 8, "exactorder");
    let full = fx.engine(EngineOptions::all_off());
    let exact = fx.engine(EngineOptions {
        mode: PruneMode::ExactOrder,
        ..EngineOptions::default()
    });
    let mut agree = 0;
    let n_req = 6;
    for r in 0..n_req {
        let (batch, _) = fx.batch(r, 12);
        let truth = full.select_top_k(&batch, 3).unwrap();
        let got = exact.select_top_k(&batch, 3).unwrap();
        if got.top_ids() == truth.top_ids() {
            agree += 1;
        }
    }
    assert!(
        agree >= n_req - 1,
        "ExactOrder agreed on order only {agree}/{n_req} times"
    );
}

#[test]
fn precision_against_planted_ground_truth() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 8, "planted");
    let engine = fx.engine(EngineOptions::default());
    let full = fx.engine(EngineOptions::all_off());
    let mut p_pruned = 0.0;
    let mut p_full = 0.0;
    let n_req = 8;
    for r in 0..n_req {
        let (batch, relevant) = fx.batch(100 + r, 16);
        let k = 5;
        let sel = engine.select_top_k(&batch, k).unwrap();
        let reference = full.select_top_k(&batch, k).unwrap();
        p_pruned += precision_at_k(&sel.top_ids(), &relevant, k);
        p_full += precision_at_k(&reference.top_ids(), &relevant, k);
    }
    p_pruned /= n_req as f64;
    p_full /= n_req as f64;
    // Paper's claim: pruning does not compromise precision (loss within
    // noise). Allow a small delta.
    assert!(
        p_pruned >= p_full - 0.08,
        "pruned precision {p_pruned:.3} vs full {p_full:.3}"
    );
    assert!(p_full > 0.5, "full-inference precision implausibly low");
}

#[test]
fn memory_meter_shows_streaming_savings() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 12, "memmeter");
    let (batch, _) = fx.batch(0, 12);

    let resident = fx.engine(EngineOptions::all_off());
    resident.select_top_k(&batch, 4).unwrap();
    let resident_peak = resident
        .meter()
        .peak(prism_metrics::MemCategory::LayerWeights);

    let mut o = EngineOptions::all_off();
    o.streaming = true;
    let streamed = fx.engine(o);
    streamed.select_top_k(&batch, 4).unwrap();
    let streamed_peak = streamed
        .meter()
        .peak(prism_metrics::MemCategory::LayerWeights);

    assert!(
        streamed_peak * 3 < resident_peak,
        "streamed {streamed_peak} vs resident {resident_peak}"
    );
}

#[test]
fn embed_cache_reduces_embedding_footprint() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 4, "embmem");
    let (batch, _) = fx.batch(0, 8);
    let full = fx.engine(EngineOptions::all_off());
    full.select_top_k(&batch, 2).unwrap();
    let full_bytes = full.meter().peak(prism_metrics::MemCategory::Embedding);

    let mut o = EngineOptions::all_off();
    o.embed_cache = true;
    o.embed_cache_fraction = 0.10;
    let cached = fx.engine(o);
    cached.select_top_k(&batch, 2).unwrap();
    let cached_bytes = cached.meter().peak(prism_metrics::MemCategory::Embedding);
    assert!(
        cached_bytes * 4 < full_bytes,
        "cached {cached_bytes} vs full {full_bytes}"
    );
}

#[test]
fn hidden_offload_spills_and_restores() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 5, "spill");
    let mut o = EngineOptions::all_off();
    o.chunking = true;
    o.chunk_candidates = Some(2);
    o.hidden_offload = true;
    let engine = fx.engine(o);
    let (batch, _) = fx.batch(2, 12);
    let sel = engine.select_top_k(&batch, 3).unwrap();
    assert!(sel.trace.spill_bytes > 0, "spill file must be exercised");
    // And results still match vanilla (covered broadly by the bit-exact
    // test; sanity-check scores are finite here).
    assert!(sel.last_scores.iter().all(|s| s.is_finite()));
}

#[test]
fn invalid_requests_rejected() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 3, "invalid");
    let engine = fx.engine(EngineOptions::default());
    let (batch, _) = fx.batch(0, 4);
    assert!(engine.select_top_k(&batch, 0).is_err());
    // Over-long sequence rejected.
    let long = SequenceBatch::new(&[vec![1_u32; fx.model.config.max_seq + 1]]).unwrap();
    assert!(engine.select_top_k(&long, 1).is_err());
}

#[test]
fn k_larger_than_candidates_returns_all() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 4, "bigk");
    let engine = fx.engine(EngineOptions::default());
    let (batch, _) = fx.batch(0, 5);
    let sel = engine.select_top_k(&batch, 50).unwrap();
    assert_eq!(sel.ranked.len(), 5);
    assert_eq!(sorted(sel.top_ids()), vec![0, 1, 2, 3, 4]);
}

#[test]
fn works_across_all_dataset_profiles() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "alldatasets");
    let engine = fx.engine(EngineOptions::default());
    for profile in dataset_catalog() {
        let gen = WorkloadGenerator::new(
            profile,
            fx.model.config.vocab_size,
            fx.model.config.max_seq,
            3,
        );
        let req = gen.request(0, 10);
        let batch = SequenceBatch::new(&req.sequences()).unwrap();
        let sel = engine.select_top_k(&batch, 3).unwrap();
        assert_eq!(sel.ranked.len(), 3, "{}", gen.profile().name);
    }
}

#[test]
fn encoder_and_decoder_archs_both_run() {
    for arch in [ModelArch::EncoderOnly, ModelArch::DecoderOnly] {
        let fx = Fixture::new(arch, 5, "archs");
        let engine = fx.engine(EngineOptions::default());
        let (batch, _) = fx.batch(0, 10);
        let sel = engine.select_top_k(&batch, 3).unwrap();
        assert_eq!(sel.ranked.len(), 3, "{arch:?}");
        assert!(sel.trace.executed_layers >= 1);
    }
}

#[test]
fn quantized_container_runs_and_roughly_agrees() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "quant");
    // Write a quantized container alongside.
    let qmodel = fx.model.quantized().unwrap();
    let mut qpath = std::env::temp_dir();
    qpath.push(format!(
        "prism-engine-test-quant-{}.prsm",
        std::process::id()
    ));
    qmodel.write_container(&qpath).unwrap();

    let (batch, _) = fx.batch(0, 12);
    let dense = fx.engine(EngineOptions::all_off());
    let container = Container::open(&qpath).unwrap();
    let quant = PrismEngine::new(
        container,
        qmodel.config.clone(),
        EngineOptions::all_off(),
        MemoryMeter::new(),
    )
    .unwrap();

    let d = dense.select_top_k(&batch, 4).unwrap();
    let q = quant.select_top_k(&batch, 4).unwrap();
    // Quantization perturbs scores; the top-4 sets must still mostly
    // overlap (the paper reports small but nonzero precision deltas).
    let d_ids = sorted(d.top_ids());
    let overlap = q
        .top_ids()
        .iter()
        .filter(|i| d_ids.binary_search(i).is_ok())
        .count();
    assert!(overlap >= 2, "quant/dense top-4 overlap {overlap}");
    assert!(q.last_scores.iter().all(|s| s.is_finite()));
    std::fs::remove_file(&qpath).unwrap();
}

/// Checksum-corrupted spill slots are quarantined and transparently
/// recomputed from the weights: results stay bit-identical to a
/// fault-free run across spill precisions, weight formats, weight
/// placements and pruning modes, and the trace reports the quarantine
/// events.
#[test]
fn corrupted_spill_slots_recompute_bit_identically() {
    let fx = Fixture::new(ModelArch::DecoderOnly, 6, "quarantine");
    let (batch, _) = fx.batch(0, 12);
    let k = 4;

    let spill_dir = {
        let mut d = std::env::temp_dir();
        d.push(format!("prism-quarantine-test-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    };

    // (name, spill, weights, pruning, candidates per chunk, streaming).
    // With two candidates per chunk, tag 0's layer-1 gate drops part of
    // two spilled chunks, and the first of the two compaction reads is
    // the fourth read, which the fault hook corrupts. The streamed int8
    // rows replay from the int8 sidecar: a replay through f32 layers
    // would not land on the fault-free bits.
    use SpillPrecision::{Int8 as I8Spill, F32 as F32Spill};
    use WeightFormat::{Int8 as I8, F32};
    let cases = [
        ("f32-spill", F32Spill, F32, false, 1, false),
        ("int8-spill", I8Spill, F32, false, 1, false),
        ("int8-spill-int8-weights", I8Spill, I8, false, 1, false),
        ("f32-spill-pruning", F32Spill, F32, true, 1, false),
        ("int8-spill-pruning-pairs", I8Spill, F32, true, 2, false),
        (
            "int8-spill-int8-weights-pruning-pairs",
            I8Spill,
            I8,
            true,
            2,
            false,
        ),
        (
            "f32-spill-int8-weights-streamed",
            F32Spill,
            I8,
            false,
            1,
            true,
        ),
        (
            "int8-spill-int8-weights-streamed",
            I8Spill,
            I8,
            false,
            1,
            true,
        ),
        (
            "int8-spill-int8-weights-pruning-pairs-streamed",
            I8Spill,
            I8,
            true,
            2,
            true,
        ),
    ];
    for (name, spill, weights, pruning, chunk, streaming) in cases {
        let mut o = EngineOptions::all_off();
        o.chunking = true;
        o.chunk_candidates = Some(chunk); // 12 / chunk chunks, all but 3 spilled
        o.hidden_offload = true;
        o.pruning = pruning;
        o.record_score_trace = true;
        o.weights = weights;
        o.streaming = streaming;
        let req = RequestOptions::tagged(k, 0).with_spill_precision(spill);

        let clean_engine = fx.engine(o.clone()).with_spill_dir(spill_dir.clone());
        let clean = clean_engine.select_with(&batch, req.clone()).unwrap();
        assert_eq!(
            clean.trace.spill_stats.quarantined, 0,
            "{name}: fault-free run must not quarantine"
        );

        // Corrupt every 4th spill read under this engine's spill dir.
        let faulty_engine = fx.engine(o).with_spill_dir(spill_dir.clone());
        prism_storage::fault::corrupt_fetches_under(spill_dir.to_string_lossy(), 4);
        let faulty = faulty_engine.select_with(&batch, req);
        prism_storage::fault::reset();
        let faulty = faulty.unwrap();

        assert!(
            faulty.trace.spill_stats.quarantined > 0,
            "{name}: fault injection must have fired"
        );
        assert_eq!(faulty.top_ids(), clean.top_ids(), "{name}: top-K diverged");
        let got: Vec<u32> = faulty.last_scores.iter().map(|s| s.to_bits()).collect();
        let want: Vec<u32> = clean.last_scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(got, want, "{name}: scores must be bit-identical");
        // Every layer's scores, too: a chunk recovered wrongly and healed
        // by a later recovery would still show here.
        let trace_bits = |sel: &Selection| -> Vec<Vec<Option<u32>>> {
            sel.trace
                .score_trace
                .iter()
                .map(|layer| layer.iter().map(|s| s.map(f32::to_bits)).collect())
                .collect()
        };
        assert_eq!(
            trace_bits(&faulty),
            trace_bits(&clean),
            "{name}: per-layer scores must be bit-identical"
        );
    }

    // No spill file may survive either run.
    let leftovers: Vec<_> = std::fs::read_dir(&spill_dir).unwrap().collect();
    assert!(leftovers.is_empty(), "leaked spill files: {leftovers:?}");
    std::fs::remove_dir_all(&spill_dir).unwrap();
}
