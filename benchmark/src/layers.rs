//! Per-layer probes: each crate's public functions timed in isolation,
//! from here, on the workload's own shapes and frames. The numbers say
//! what a layer costs when nothing else is in the way; the traced passes
//! in `traced.rs` say what it costs inside a request.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use prism_api::SelectionOutcome;
use prism_cluster::{coefficient_of_variation, kmeans_auto};
use prism_core::PrismEngine;
use prism_model::layer::{forward_layer_int8, ForwardScratch};
use prism_model::model::layer_section;
use prism_model::{Int8LayerWeights, MatRef, Model, SequenceBatch};
use prism_serve::{fingerprint_batch, QueueItem, SemanticLayer, ServeConfig};
use prism_storage::{Container, LayerStreamer, SpillFile, SpillPipeline, SpillPrecision, Throttle};
use prism_tensor::{ops, Int8Matrix, RowQuantBlock, Tensor};
use prism_wire::{decode_message, encode_message, Message};

use crate::inputs::{Request, RequestSource};
use crate::report::Measured;
use crate::spec::WorkloadSpec;
use crate::stats::median;
use crate::BenchError;

/// Rounds per probe; the reported time is the median round.
const ROUNDS: usize = 9;

/// Each round repeats the call until it has run about this long.
const ROUND_NS: f64 = 2e6;

/// Nanoseconds per call of `f`: the median over [`ROUNDS`] rounds of a
/// round's mean, with the repeat count sized from a first call.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let first_ns = t0.elapsed().as_nanos().max(1) as f64;
    let repeats = ((ROUND_NS / first_ns) as usize).clamp(1, 100_000);
    let rounds = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..repeats {
                f();
            }
            t0.elapsed().as_nanos() as f64 / repeats as f64
        })
        .collect();
    median(rounds)
}

/// Keeps a probe's result alive so the call is not optimised away.
fn sink<T>(value: T) {
    let _ = black_box(value);
}

/// Microseconds of one call of `f`.
fn once_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64 / 1e3)
}

fn throttle_of(spec: &WorkloadSpec) -> Throttle {
    spec.engine
        .stream_throttle
        .map_or(Throttle::unlimited(), Throttle::bandwidth)
}

/// `prism-wire`: the codec on the workload's real frames.
pub fn wire(m: &mut Measured, request: &Request, outcome: &SelectionOutcome) {
    let submit = Message::Submit {
        request_id: 1,
        options: request.options.clone(),
        batch: request.batch.clone(),
    };
    let result = Message::Result {
        request_id: 1,
        outcome: Box::new(outcome.clone()),
    };
    for (message, encode, decode, bytes) in [
        (
            &submit,
            "wire.submit_encode_us",
            "wire.submit_decode_us",
            "wire.submit_frame_bytes",
        ),
        (
            &result,
            "wire.result_encode_us",
            "wire.result_decode_us",
            "wire.result_frame_bytes",
        ),
    ] {
        let body = encode_message(message);
        m.set(
            encode,
            per_call_ns(|| sink(encode_message(black_box(message)))) / 1e3,
            ROUNDS,
        );
        m.set(
            decode,
            per_call_ns(|| sink(decode_message(black_box(&body)))) / 1e3,
            ROUNDS,
        );
        // The length prefix `write_frame` adds travels too.
        m.set(bytes, (body.len() + 4) as f64, 1);
    }
}

/// `prism-serve`: the planner's decision on a full queue snapshot and
/// the corpus fingerprint every submission pays.
pub fn serve(m: &mut Measured, batch: &SequenceBatch) {
    let planner = ServeConfig::default().planner();
    let queue: Vec<QueueItem> = (0..8)
        .map(|i| QueueItem::plain(batch.total_tokens(), i * 100))
        .collect();
    m.set(
        "serve.plan_decide_ns",
        per_call_ns(|| sink(planner.decide(black_box(&queue), 1_000))),
        ROUNDS,
    );
    m.set(
        "serve.fingerprint_us",
        per_call_ns(|| sink(fingerprint_batch(black_box(batch)))) / 1e3,
        ROUNDS,
    );
}

/// `prism-semcache` through the serving tier's entry points, on a cache
/// of its own: pool, probe (the hit path a copy takes) and harvest (the
/// insert path a novel request takes), one call per distinct corpus.
pub fn semcache(
    m: &mut Measured,
    spec: &WorkloadSpec,
    source: &RequestSource,
    engine: &PrismEngine,
) -> Result<(), BenchError> {
    const CORPORA: usize = 32;
    let layer = SemanticLayer::new(ServeConfig::default().semcache_config(spec.model.hidden_dim));
    let (mut pool_us, mut probe_us, mut harvest_us) = (Vec::new(), Vec::new(), Vec::new());
    for request in (0..)
        .map(|i| source.request(i))
        .filter(|r| !r.copy)
        .take(CORPORA)
    {
        let batch = &request.batch;
        let embed = engine.embed_batch(batch)?;
        let profile = SemanticLayer::profile_byte(&request.options);
        let (pooled, us) = once_us(|| SemanticLayer::pooled_candidates(&embed, batch));
        pool_us.push(us);
        let all: Vec<usize> = (0..batch.num_sequences()).collect();
        let scores = vec![0.5_f32; all.len()];
        harvest_us.push(once_us(|| layer.harvest(batch, &pooled, profile, &all, &scores)).1);
        let mode = request.options.semcache;
        probe_us.push(once_us(|| black_box(layer.probe_batch(batch, &pooled, profile, mode))).1);
    }
    m.set("semcache.pool_us", median(pool_us), CORPORA);
    m.set("semcache.probe_us", median(probe_us), CORPORA);
    m.set("semcache.harvest_us", median(harvest_us), CORPORA);
    Ok(())
}

/// `prism-cluster` on a score vector the workload produced.
pub fn cluster(m: &mut Measured, spec: &WorkloadSpec, scores: &[f32]) {
    m.set(
        "cluster.cv_ns",
        per_call_ns(|| sink(coefficient_of_variation(black_box(scores)))),
        ROUNDS,
    );
    let (max_k, seed) = (spec.engine.max_clusters, spec.engine.seed);
    m.set(
        "cluster.kmeans_auto_us",
        per_call_ns(|| sink(kmeans_auto(black_box(scores), max_k, seed))) / 1e3,
        ROUNDS,
    );
}

/// The candidates the engine forwards in one step: the chunk geometry
/// of `PrismEngine::plan_request`.
fn chunk_of(spec: &WorkloadSpec, batch: &SequenceBatch) -> Result<SequenceBatch, BenchError> {
    let n = batch.num_sequences();
    let candidates = if !spec.engine.chunking {
        n
    } else if let Some(c) = spec.engine.chunk_candidates {
        c.clamp(1, n)
    } else {
        let average = (batch.total_tokens() / n).max(1);
        (spec.engine.chunk_target_tokens / average).clamp(1, n)
    };
    Ok(batch.gather(&(0..candidates).collect::<Vec<_>>())?)
}

/// `prism-model` and `prism-tensor` at the workload's chunk shape.
pub fn model_and_tensor(
    m: &mut Measured,
    spec: &WorkloadSpec,
    container: &Path,
    batch: &SequenceBatch,
) -> Result<(), BenchError> {
    let model = Model::load_container(spec.model.clone(), &Container::open(container)?)?;
    let chunk = chunk_of(spec, batch)?;
    let ranges = chunk.ranges();
    let embedded = model.embed(&chunk)?;
    let tokens = embedded.rows();
    let mut hidden = embedded.clone();
    let mut scratch = ForwardScratch::new(&spec.model, tokens);
    // Every call starts from the embedded rows again: forwarding one
    // tensor through layer 0 thousands of times would drift its values
    // out of the range real activations live in.
    let reset = |hidden: &mut Tensor| hidden.data_mut().copy_from_slice(embedded.data());

    let f32_ns = per_call_ns(|| {
        reset(&mut hidden);
        model
            .forward_layer_with(0, &mut hidden, ranges, &mut scratch)
            .expect("forward on the model's own embedding");
    });
    m.set("model.forward_layer_f32_us", f32_ns / 1e3, ROUNDS);
    let layer = &model.weights.layers[0];
    let int8 = Int8LayerWeights::from_layer(layer)?;
    let int8_ns = per_call_ns(|| {
        reset(&mut hidden);
        forward_layer_int8(&spec.model, &int8, 0, &mut hidden, ranges, &mut scratch)
            .expect("int8 forward on the model's own embedding");
    });
    m.set("model.forward_layer_int8_us", int8_ns / 1e3, ROUNDS);
    m.set(
        "model.score_us",
        per_call_ns(|| sink(model.score(black_box(&embedded), ranges))) / 1e3,
        ROUNDS,
    );
    let mean_len = (tokens / ranges.len()).max(1) as u64;
    // Computed from the configuration, not measured.
    m.set(
        "model.layer_macs",
        spec.model.layer_macs(tokens as u64, mean_len) as f64,
        1,
    );

    // One projection of that layer: [tokens, D] x [D, D].
    let MatRef::Dense(weights) = &layer.wq else {
        return Err(BenchError("generated weights are dense".into()));
    };
    let mut out = Tensor::zeros(0, 0);
    m.set(
        "tensor.matmul_transb_ns",
        per_call_ns(|| {
            ops::matmul_transb_into(black_box(&embedded), weights, &mut out).expect("shapes agree")
        }),
        ROUNDS,
    );
    let weights8 = Int8Matrix::quantize(weights)?;
    let mut block = RowQuantBlock::encode(&embedded)?;
    m.set(
        "tensor.igemm_ns",
        per_call_ns(|| {
            weights8
                .matmul_rowq_into(black_box(&block), &mut out)
                .expect("shapes agree")
        }),
        ROUNDS,
    );
    m.set(
        "tensor.rowq_encode_ns",
        per_call_ns(|| block.encode_into(black_box(&embedded)).expect("encode")),
        ROUNDS,
    );
    let mut decoded = Tensor::zeros(tokens, embedded.cols());
    m.set(
        "tensor.rowq_decode_ns",
        per_call_ns(|| block.decode_into(black_box(&mut decoded)).expect("decode")),
        ROUNDS,
    );
    // Computed: activations in, weights in, activations out, all f32.
    let d = spec.model.hidden_dim;
    m.set(
        "tensor.gemm_bytes",
        ((2 * tokens * d + d * d) * 4) as f64,
        1,
    );
    Ok(())
}

/// `prism-storage` with no compute beside it: the I/O floor of one
/// streamed layer, and one chunk's trip through the spill pipeline.
pub fn storage(
    m: &mut Measured,
    spec: &WorkloadSpec,
    container: &Path,
    batch: &SequenceBatch,
    dir: &Path,
) -> Result<(), BenchError> {
    if spec.engine.streaming {
        const PASSES: usize = 3;
        let container = Container::open(container)?;
        let sections: Vec<String> = (0..spec.model.num_layers).map(layer_section).collect();
        let mut next_us = Vec::new();
        for _ in 0..PASSES {
            let mut streamer = LayerStreamer::new(
                &container,
                &sections,
                spec.engine.stream_depth,
                throttle_of(spec),
            )?;
            loop {
                let (section, us) = once_us(|| streamer.next());
                let Some(section) = section? else { break };
                next_us.push(us);
                streamer.recycle(section)?;
            }
        }
        let n = next_us.len();
        m.set("storage.stream_next_us", median(next_us), n);
    }
    if spec.engine.hidden_offload {
        const TRIPS: usize = 24;
        let chunk = chunk_of(spec, batch)?;
        let rows = chunk.total_tokens();
        let cols = spec.model.hidden_dim;
        let tensor = Tensor::from_fn(rows, cols, |r, c| ((r * 31 + c * 7) % 97) as f32 / 97.0);
        let file = SpillFile::create(
            dir.join("probe-spill.bin"),
            1,
            rows,
            cols,
            SpillPrecision::default(),
            throttle_of(spec),
        )?;
        let mut pipeline = SpillPipeline::overlapped(file)?;
        // On an error the file goes with the run's scratch directory.
        let mut trips = Vec::with_capacity(TRIPS);
        for _ in 0..TRIPS {
            let (fetched, us) = once_us(|| {
                pipeline
                    .write_back(0, tensor.clone())
                    .and_then(|()| pipeline.fetch(0))
            });
            sink(fetched?);
            trips.push(us);
        }
        pipeline.cleanup()?;
        m.set("storage.spill_roundtrip_us", median(trips), TRIPS);
    }
    Ok(())
}
