//! The monolithic-forwarding engine (Fig. 3).
//!
//! A [`PrismEngine`] is bound to one weight container plus configuration
//! and serves top-K selections. Execution is chunk-major: the monolithic
//! batch lives as a list of chunks whose hidden states may reside in
//! memory or in a spill file, layer weights arrive from a resident set or
//! the streaming prefetcher, candidates are scored at every layer boundary
//! and routed by [`crate::routing`], and every decision is recorded in an
//! [`EngineTrace`] the device simulator can replay at paper scale.
//!
//! Since the serving front-end (`prism-serve`) landed, the engine is
//! **shared-state free on the request path**: [`PrismEngine::select_top_k`]
//! takes `&self`, so the engine is `Sync` and one instance can serve many
//! worker threads at once. A selection is decomposed into explicit phases —
//! [`PrismEngine::plan_request`] (embed + chunk + post-embedding probe),
//! a per-layer gate/forward/score advance, and
//! [`PrismEngine::finalize_request`] — and [`PrismEngine::select_batch`]
//! drives several planned requests through those phases in lockstep so one
//! streamed pass over the layer weights is amortized across every request
//! of a scheduler batch. Each request's own computation is performed in
//! exactly the order the single-request path uses, so batched results are
//! bit-identical to sequential ones.
//!
//! Ownership: this module owns the *physical* side of a selection —
//! chunks, spill pipeline, weight acquisition, meter bytes, latency
//! spans, cancellation and deadlines. The *score-level* side (active and
//! accepted sets, the gate decision, the routing trace, final ranking)
//! is owned by the crate-private `ScatterGate` (`scatter.rs`); every
//! [`ActiveRequest`] embeds one and only ever hands it scores and reads
//! back keep-masks.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use prism_metrics::{LatencyRecorder, MemCategory, MemoryMeter};
use prism_model::layer::{forward_layer_with, intermediate_bytes, rowq_lane_bytes, ForwardScratch};
use prism_model::model::{add_position, layer_section, SECTION_EMBEDDING, SECTION_HEAD};
use prism_model::{HeadWeights, LayerWeights, ModelConfig, SequenceBatch};
use prism_storage::{
    rowq_round_trip, Container, ContainerWriter, DiskRowSource, EmbeddingCache,
    EmbeddingCacheStats, LayerStreamer, LoadedSection, SectionKind, SpillFile, SpillPipeline,
    SpillPrecision, SpillStats, StorageError, StreamStats, Throttle,
};
use prism_tensor::Tensor;
use serde::Serialize;

use crate::control::{CancelToken, ProgressFn};
use crate::options::{EngineOptions, PruneMode, SemCacheMode, WeightFormat};
use crate::scatter::ScatterGate;
use crate::{PrismError, Result};

/// One member of the final top-K.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RankedCandidate {
    /// Original candidate index in the request batch.
    pub id: usize,
    /// Score at the layer where the candidate's fate was decided.
    pub score: f32,
    /// Layer boundary at which the candidate was accepted (equals the
    /// model depth when it survived to the end).
    pub decided_at_layer: usize,
}

/// One routing event in the trace.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouteEvent {
    /// Layer boundary where the gate ran (before executing this layer).
    pub layer: usize,
    /// Measured coefficient of variation.
    pub cv: f32,
    /// Whether clustering ran (gate fired).
    pub clustered: bool,
    /// Original candidate ids accepted here.
    pub selected: Vec<usize>,
    /// Original candidate ids dropped here.
    pub dropped: Vec<usize>,
}

/// Everything the engine observed during one selection.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineTrace {
    /// Active candidates entering each executed layer.
    pub active_per_layer: Vec<usize>,
    /// Number of transformer layers actually executed.
    pub executed_layers: usize,
    /// Routing events in order.
    pub routes: Vec<RouteEvent>,
    /// Per-layer scores aligned to original candidate ids (`None` once a
    /// candidate is no longer active); present when
    /// [`EngineOptions::record_score_trace`] is set. Index 0 is the
    /// post-embedding probe.
    pub score_trace: Vec<Vec<Option<f32>>>,
    /// Weight-streaming statistics (zero when streaming is off). For a
    /// batched selection the streamer is shared, so every member request
    /// reports the batch-level stats.
    #[serde(skip)]
    pub stream_stats: StreamStats,
    /// Embedding-cache statistics (zero when the cache is off).
    #[serde(skip)]
    pub cache_stats: EmbeddingCacheStats,
    /// Spill-pipeline statistics (zero when hidden offload is off):
    /// bytes through the spill file, I/O time, and how much of it the
    /// overlapped window hid behind computation.
    #[serde(skip)]
    pub spill_stats: SpillStats,
    /// Named latency spans (embed / stream-wait / forward / gate / ...).
    #[serde(skip)]
    pub latency: LatencyRecorder,
    /// Bytes moved to/from the hidden-state spill file.
    pub spill_bytes: u64,
}

/// Result of one top-K selection.
#[derive(Debug, Clone, Serialize)]
pub struct Selection {
    /// The top-K candidates, highest score first.
    pub ranked: Vec<RankedCandidate>,
    /// Last known score of every candidate in the request.
    pub last_scores: Vec<f32>,
    /// Execution trace.
    pub trace: EngineTrace,
}

impl Selection {
    /// Candidate ids of the top-K in rank order.
    pub fn top_ids(&self) -> Vec<usize> {
        self.ranked.iter().map(|r| r.id).collect()
    }
}

/// Per-request selection parameters.
///
/// `k` is mandatory; the remaining fields optionally override the
/// engine-level [`EngineOptions`] knobs that only influence *routing* (not
/// execution strategy), which lets a server honour per-request
/// pruning preferences without rebuilding the engine. `tag` pins the
/// request's routing-RNG stream: two selections with the same batch,
/// options and tag produce bit-identical results regardless of what else
/// the engine served in between — the property the serving conformance
/// suite is built on. When `tag` is `None` the engine assigns the next
/// value of its internal request counter (the historical behaviour).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestOptions {
    /// Number of candidates to select.
    pub k: usize,
    /// Explicit routing-seed tag; `None` draws from the engine's counter.
    pub tag: Option<u64>,
    /// Override of [`EngineOptions::dispersion_threshold`].
    pub dispersion_threshold: Option<f32>,
    /// Override of [`EngineOptions::mode`].
    pub mode: Option<PruneMode>,
    /// Override of [`EngineOptions::pruning`].
    pub pruning: Option<bool>,
    /// Relative deadline budget in microseconds, measured from
    /// submission. The serving layer rejects requests whose deadline has
    /// already passed at admission and sheds them from the queue when it
    /// passes while they wait; an in-flight request aborts at the next
    /// layer boundary with [`PrismError::DeadlineExceeded`]. `None`
    /// (default) means no deadline.
    pub deadline_us: Option<u64>,
    /// Precision of hidden states spilled under the offload regime. The
    /// default [`SpillPrecision::Int8`] moves 4x fewer bytes through the
    /// spill throttle (per-candidate scores shift within the row-quant
    /// error bound but top-K membership is preserved in practice);
    /// [`SpillPrecision::F32`] opts out for a bit-exact spill round trip.
    /// Ignored when the engine does not offload hidden states.
    pub spill_precision: SpillPrecision,
    /// Semantic result-cache switch (see [`SemCacheMode`]). Consumed by
    /// the serving layer's cross-request cache (`prism-semcache`);
    /// ignored by direct engine calls. Either value yields the same
    /// selection bits.
    pub semcache: SemCacheMode,
}

impl RequestOptions {
    /// Plain top-`k` with every engine default.
    pub fn top_k(k: usize) -> Self {
        RequestOptions {
            k,
            tag: None,
            dispersion_threshold: None,
            mode: None,
            pruning: None,
            deadline_us: None,
            spill_precision: SpillPrecision::default(),
            semcache: SemCacheMode::default(),
        }
    }

    /// Same as [`RequestOptions::top_k`] with an explicit routing tag.
    pub fn tagged(k: usize, tag: u64) -> Self {
        RequestOptions {
            tag: Some(tag),
            ..RequestOptions::top_k(k)
        }
    }

    /// Returns a copy with a relative deadline budget.
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Returns a copy with a per-request dispersion-threshold override
    /// (the calibrator's actuator since the engine became `Sync`).
    pub fn with_dispersion_threshold(mut self, threshold: f32) -> Self {
        self.dispersion_threshold = Some(threshold);
        self
    }

    /// Returns a copy with the given hidden-state spill precision.
    pub fn with_spill_precision(mut self, precision: SpillPrecision) -> Self {
        self.spill_precision = precision;
        self
    }

    /// Returns a copy with the given semantic result-cache policy.
    pub fn with_semcache(mut self, mode: SemCacheMode) -> Self {
        self.semcache = mode;
        self
    }

    /// Rejects a request no engine can serve: a batch of zero
    /// `candidates`, or `k = 0`. The one copy of this rule; it is part of
    /// [`PrismEngine::validate_request`].
    pub fn validate(&self, candidates: usize) -> Result<()> {
        if candidates == 0 {
            return Err(PrismError::InvalidRequest("empty batch".into()));
        }
        if self.k == 0 {
            return Err(PrismError::InvalidRequest("k must be >= 1".into()));
        }
        Ok(())
    }
}

/// One request of a batched selection: a borrowed batch plus its options.
#[derive(Debug)]
pub struct RequestSpec<'a> {
    /// The candidate batch to select from.
    pub batch: &'a SequenceBatch,
    /// Per-request parameters.
    pub options: RequestOptions,
}

/// Names the engine's temp files (hidden-state spill files, int8
/// sidecars); process-wide because engines in one process default to the
/// same directories.
static TEMP_FILE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh temp-file path under `dir`, unique within the process.
fn temp_file(dir: &std::path::Path, kind: &str) -> PathBuf {
    dir.join(format!(
        "prism-{kind}-{}-{}.bin",
        std::process::id(),
        TEMP_FILE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

enum EmbedSource {
    Cache(Box<EmbeddingCache<DiskRowSource>>),
    Resident(Tensor),
}

/// A slice of the monolithic batch processed as one unit.
struct Chunk {
    /// Original candidate ids, in chunk order.
    ids: Vec<usize>,
    /// Per-candidate sequence lengths.
    seq_lens: Vec<usize>,
    /// Per-candidate `[start, end)` row ranges local to this chunk,
    /// cached so the per-layer forward loop does not rebuild them.
    ranges: Vec<(usize, usize)>,
    /// Per-candidate token sequences, kept so a chunk whose spill slot
    /// fails its checksum can be recomputed from the weights (embed +
    /// replay the executed layers) instead of poisoning the request.
    /// Token ids are small next to hidden states (4 bytes/token vs
    /// 4·hidden_dim), so this costs well under 1% of a chunk.
    tokens: Vec<Vec<u32>>,
    /// Hidden states when resident.
    hidden: Option<Tensor>,
    /// Slot in the spill file when offloaded.
    spill_slot: Option<usize>,
}

impl Chunk {
    fn ranges_from(seq_lens: &[usize]) -> Vec<(usize, usize)> {
        let mut ranges = Vec::with_capacity(seq_lens.len());
        let mut at = 0;
        for &l in seq_lens {
            ranges.push((at, at + l));
            at += l;
        }
        ranges
    }

    fn rows(&self) -> usize {
        self.seq_lens.iter().sum()
    }
}

/// In-flight state of one planned selection.
///
/// Produced by [`PrismEngine::plan_request`], advanced layer by layer by
/// [`PrismEngine::run_planned`]'s loop, consumed by
/// [`PrismEngine::finalize_request`]. Owning this state outside the engine
/// is what lets a serving scheduler interleave many requests over one
/// weight stream.
///
/// Only the *physical* state lives here — hidden-state chunks, the spill
/// pipeline, meter bytes, latency spans, caller controls. Everything that
/// is a function of scores alone (active set, accepted set, routing
/// trace, termination) is owned by the embedded gate (`ScatterGate`).
pub struct ActiveRequest {
    /// Score-level selection state, fed by this request's own chunks.
    state: ScatterGate,
    /// Whether the int8 spill regime is active for this request. When
    /// set, **every** chunk's hidden state passes through the rowq
    /// round-trip between layers — resident chunks in memory, spilled
    /// chunks through the file — so quantization is a property of the
    /// request, not of which chunks happened to be offloaded. Without
    /// this, result bits would depend on physical layout (chunk count,
    /// residency window), breaking the cross-layout
    /// conformance guarantees.
    int8_spill: bool,
    chunks: Vec<Chunk>,
    /// Meter handle for drop-time release of this request's bytes.
    meter: MemoryMeter,
    spill: Option<SpillPipeline>,
    /// Live hidden-state bytes this request currently contributes to the
    /// shared meter (delta-tracked so concurrent requests don't clobber
    /// each other's ledger entries).
    metered_hidden: u64,
    latency: LatencyRecorder,
    /// Cooperative cancellation flag, checked at every layer boundary.
    cancel: CancelToken,
    /// Absolute deadline, checked at every layer boundary.
    deadline: Option<Instant>,
    /// Layer-granularity progress sink.
    progress: Option<ProgressFn>,
    /// Why the request stopped early, if it did.
    abort: Option<AbortReason>,
}

/// Why an in-flight request was aborted at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortReason {
    Cancelled,
    DeadlineExceeded,
}

impl ActiveRequest {
    /// Whether the request needs no further layers.
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Attaches a cancellation token. The engine observes it at every
    /// layer boundary; on cancellation the request's spill file and
    /// hidden-state bytes are released immediately and
    /// [`PrismEngine::finalize_request`] returns
    /// [`PrismError::Cancelled`].
    pub fn attach_cancel(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Attaches an absolute deadline, enforced at every layer boundary;
    /// past it the request aborts like a cancellation and
    /// [`PrismEngine::finalize_request`] returns
    /// [`PrismError::DeadlineExceeded`].
    pub fn attach_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Attaches a progress sink receiving one [`crate::ProgressUpdate`] per
    /// layer boundary (after the gate) and after each forwarded layer.
    pub fn attach_progress(&mut self, progress: ProgressFn) {
        self.progress = Some(progress);
    }

    /// Whether the request was aborted (cancelled / deadline) mid-flight.
    pub fn is_aborted(&self) -> bool {
        self.abort.is_some()
    }

    /// Aborts at a layer boundary: releases every resource the request
    /// holds *now* — resident hidden states come off the shared meter,
    /// the spill pipeline is stopped (in-flight background I/O joined)
    /// and its file deleted — instead of when the batch finishes.
    fn abort(&mut self, reason: AbortReason, meter: &MemoryMeter) {
        self.chunks.clear();
        // Stop the pipeline before re-syncing the meter: its held bytes
        // count as resident until the lanes have drained.
        if let Some(pipe) = self.spill.take() {
            let _ = pipe.cleanup();
        }
        self.meter_hidden(meter);
        self.state.terminate();
        self.abort = Some(reason);
    }

    /// Emits a progress update if a sink is attached.
    fn emit_progress(&self, layer: usize) {
        if let Some(progress) = &self.progress {
            progress(self.state.progress(layer));
        }
    }

    fn resident_hidden_bytes(&self) -> u64 {
        let in_chunks: u64 = self
            .chunks
            .iter()
            .filter_map(|c| c.hidden.as_ref().map(|h| h.size_bytes() as u64))
            .sum();
        // Tensors the overlapped pipeline still holds (queued/in-flight
        // write-backs, parked prefetch results) are just as resident as
        // the chunks' own state; without this term the §4.3 peak would
        // under-report by up to the pipeline's lane depth.
        let in_pipeline = self.spill.as_ref().map_or(0, SpillPipeline::held_bytes);
        in_chunks + in_pipeline
    }

    /// Re-syncs the shared meter with this request's resident hidden
    /// bytes using alloc/free deltas (safe under concurrency).
    fn meter_hidden(&mut self, meter: &MemoryMeter) {
        let now = self.resident_hidden_bytes();
        match now.cmp(&self.metered_hidden) {
            std::cmp::Ordering::Greater => {
                meter.alloc(MemCategory::HiddenStates, now - self.metered_hidden)
            }
            std::cmp::Ordering::Less => {
                meter.free(MemCategory::HiddenStates, self.metered_hidden - now)
            }
            std::cmp::Ordering::Equal => {}
        }
        self.metered_hidden = now;
    }
}

/// A request abandoned mid-flight (plan or run error, caller bailing
/// out) must not leak its spill temp file or leave its hidden-state
/// bytes on the shared meter; `finalize_request` clears both, making
/// this a no-op on the success path.
impl Drop for ActiveRequest {
    fn drop(&mut self) {
        if self.metered_hidden > 0 {
            self.meter
                .free(MemCategory::HiddenStates, self.metered_hidden);
            self.metered_hidden = 0;
        }
        if let Some(pipe) = self.spill.take() {
            let _ = pipe.cleanup();
        }
    }
}

/// The PRISM inference engine.
///
/// `Sync`: the request path takes `&self`, interior-mutable pieces (the
/// embedding LRU, the scratch-workspace pool, the request counter) sit
/// behind their own locks, and per-request state lives in
/// [`ActiveRequest`] values owned by the caller. One engine can therefore
/// be shared across serving workers behind an `Arc`.
pub struct PrismEngine {
    config: ModelConfig,
    options: EngineOptions,
    head: HeadWeights,
    embed: Mutex<EmbedSource>,
    /// The transformer layers, in [`EngineOptions::weights`]' format.
    layers: Layers,
    meter: MemoryMeter,
    spill_dir: PathBuf,
    request_counter: AtomicU64,
    /// Reusable forward workspaces handed to the convenience selection
    /// APIs. Serving workers keep their own pools and bypass this lock by
    /// calling [`PrismEngine::run_planned`] directly.
    scratch_pool: Mutex<Vec<ForwardScratch>>,
}

/// Where an engine's layers live. Either way they are in the engine's
/// weight format, converted once at open.
enum Layers {
    /// Every layer decoded in memory.
    Resident(Vec<LayerWeights>),
    /// Layer sections read per pass: from the source container for
    /// [`WeightFormat::F32`], from the unlinked int8 sidecar for
    /// [`WeightFormat::Int8`].
    Streamed(Container),
}

impl PrismEngine {
    /// Opens an engine over a weight container.
    ///
    /// The head and the embedding table come from `container`. The layers
    /// are converted to [`EngineOptions::weights`]' format here, once, one
    /// source layer at a time: a resident engine keeps the converted
    /// layers, a streamed int8 engine writes them as tag-2 layer blobs to
    /// a sidecar container in the temp directory that is unlinked as soon
    /// as it is created, so it disappears with the engine, also when the
    /// process is killed. Open-time transients are not metered: the meter
    /// starts at the engine's steady state.
    pub fn new(
        container: Container,
        config: ModelConfig,
        options: EngineOptions,
        meter: MemoryMeter,
    ) -> Result<Self> {
        options.validate()?;
        config.validate()?;
        let throttle = stream_throttle(&options);

        let mut head_blob = Vec::new();
        container.read_section_into(SECTION_HEAD, &mut head_blob)?;
        let head = HeadWeights::from_bytes(&config, &head_blob)?;
        meter.alloc(MemCategory::Head, head.size_bytes() as u64);

        let embed = if options.embed_cache {
            let source = DiskRowSource::new(&container, SECTION_EMBEDDING, throttle)?;
            let capacity = ((config.vocab_size as f64 * options.embed_cache_fraction) as usize)
                .max(config.max_seq);
            let cache = EmbeddingCache::new(source, capacity);
            meter.set(MemCategory::Embedding, cache.resident_bytes() as u64);
            EmbedSource::Cache(Box::new(cache))
        } else {
            let table = container.read_f32(SECTION_EMBEDDING)?;
            meter.set(MemCategory::Embedding, table.size_bytes() as u64);
            EmbedSource::Resident(table)
        };

        let mut blob = Vec::new();
        let mut load = |l: usize| -> Result<LayerWeights> {
            container.read_section_into(&layer_section(l), &mut blob)?;
            let w = LayerWeights::from_bytes(&config, &blob)?;
            Ok(match options.weights {
                WeightFormat::F32 => w,
                WeightFormat::Int8 => w.to_int8()?,
            })
        };
        let layers = match (options.streaming, options.weights) {
            (false, _) => {
                let layers = (0..config.num_layers)
                    .map(&mut load)
                    .collect::<Result<Vec<_>>>()?;
                let total = layers.iter().map(|w| w.size_bytes() as u64).sum();
                meter.set(MemCategory::LayerWeights, total);
                Layers::Resident(layers)
            }
            (true, WeightFormat::Int8) => {
                let mut sidecar =
                    ContainerWriter::create(temp_file(&std::env::temp_dir(), "int8-layers"));
                for l in 0..config.num_layers {
                    let bytes = load(l)?.to_bytes();
                    sidecar.add_raw(&layer_section(l), SectionKind::Raw, 0, 0, bytes);
                }
                Layers::Streamed(sidecar.finish_unlinked()?)
            }
            (true, WeightFormat::F32) => Layers::Streamed(container),
        };

        Ok(PrismEngine {
            config,
            options,
            head,
            embed: Mutex::new(embed),
            layers,
            meter,
            spill_dir: std::env::temp_dir(),
            request_counter: AtomicU64::new(0),
            scratch_pool: Mutex::new(Vec::new()),
        })
    }

    /// The engine's model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The engine's options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Returns the engine with hidden-state spill files created under
    /// `dir` instead of the system temp directory (tests and deployments
    /// that audit spill cleanup point this at a private directory).
    pub fn with_spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = dir;
        self
    }

    /// The shared memory meter.
    pub fn meter(&self) -> &MemoryMeter {
        &self.meter
    }

    /// Where this engine creates hidden-state spill files (leak audits
    /// point [`PrismEngine::with_spill_dir`] at a private directory and
    /// assert it drains empty here).
    pub fn spill_dir(&self) -> &std::path::Path {
        &self.spill_dir
    }

    /// Selects the top-`k` candidates of `batch` (Fig. 3's workflow).
    pub fn select_top_k(&self, batch: &SequenceBatch, k: usize) -> Result<Selection> {
        self.select_with(batch, RequestOptions::top_k(k))
    }

    /// Selects with per-request routing options.
    pub fn select_with(&self, batch: &SequenceBatch, options: RequestOptions) -> Result<Selection> {
        let mut out = self.select_batch(&[RequestSpec { batch, options }])?;
        Ok(out.pop().expect("one selection per request"))
    }

    /// Runs several selections through one pass over the layer weights.
    ///
    /// Requests advance in lockstep: per layer boundary every live request
    /// runs its pruning gate, then — if anyone still needs the layer — the
    /// weights are acquired **once** (borrowed from the resident set, or
    /// streamed and decoded a single time instead of once per request) and
    /// each live request forwards and re-scores its own chunks. Per-request
    /// compute order is identical to the single-request path, so results
    /// are bit-identical to running the requests one by one.
    pub fn select_batch(&self, specs: &[RequestSpec<'_>]) -> Result<Vec<Selection>> {
        let mut requests = Vec::with_capacity(specs.len());
        for spec in specs {
            requests.push(self.plan_request(spec.batch, spec.options.clone())?);
        }
        if !requests.is_empty() {
            let mut pool =
                std::mem::take(&mut *self.scratch_pool.lock().expect("scratch pool lock"));
            let run = self.run_planned(&mut requests, &mut pool);
            let mut shared = self.scratch_pool.lock().expect("scratch pool lock");
            if shared.is_empty() {
                *shared = pool;
            }
            run?;
        }
        requests
            .into_iter()
            .map(|req| self.finalize_request(req))
            .collect()
    }

    /// Drives planned requests through the transformer, acquiring each
    /// layer's weights exactly once. Public so a serving scheduler can
    /// plan requests itself (e.g. only a request's novel candidates) and
    /// still share one weight pass; after this returns every request is
    /// ready for [`PrismEngine::finalize_request`].
    pub fn run_planned(
        &self,
        requests: &mut [ActiveRequest],
        pool: &mut Vec<ForwardScratch>,
    ) -> Result<()> {
        let mut streamer = match &self.layers {
            Layers::Streamed(store) => {
                let sections: Vec<String> =
                    (0..self.config.num_layers).map(layer_section).collect();
                Some(LayerStreamer::new(
                    store,
                    &sections,
                    self.options.stream_depth,
                    stream_throttle(&self.options),
                )?)
            }
            Layers::Resident(_) => None,
        };

        for layer_idx in 0..self.config.num_layers {
            for req in requests.iter_mut() {
                self.gate_planned(req, layer_idx)?;
            }
            if requests.iter().all(ActiveRequest::is_done) {
                break;
            }

            // ---- Acquire this layer's weights, once for the batch ----
            let section = match streamer.as_mut() {
                Some(s) => {
                    // The wait is physically shared; attribute it to the
                    // first live request so span totals stay meaningful.
                    let wait_req = requests
                        .iter_mut()
                        .find(|r| !r.is_done())
                        .expect("some request live");
                    let section = wait_req
                        .latency
                        .time("stream-wait", || s.next())?
                        .ok_or_else(|| {
                            PrismError::InvalidRequest("streamer exhausted early".into())
                        })?;
                    Some(section)
                }
                None => None,
            };
            // The layer's bytes leave the meter when `layer` drops, also
            // on a failed forward; then the stream buffer is recycled
            // (which immediately triggers the prefetch of layer+2).
            let layer_result = self
                .acquire_layer(layer_idx, section.as_ref())
                .and_then(|layer| {
                    requests
                        .iter_mut()
                        .filter(|r| !r.is_done())
                        .try_for_each(|req| {
                            self.forward_and_score(req, layer_idx, &layer.weights, pool)
                        })
                });
            if let (Some(section), Some(s), true) =
                (section, streamer.as_mut(), layer_result.is_ok())
            {
                s.recycle(section)?;
            }
            layer_result?;
        }

        if let Some(s) = streamer.take() {
            let stats = s.stats();
            for req in requests.iter_mut() {
                req.state.trace.stream_stats = stats;
            }
        }
        Ok(())
    }

    /// Rejects a request this engine cannot serve: one the options rule
    /// out ([`RequestOptions::validate`]: an empty batch, `k = 0`), a
    /// sequence longer than the model's `max_seq`, or a token outside
    /// the vocabulary. The planner applies it, and so does every service
    /// at admission, before a request costs a queue slot or a cache
    /// probe.
    pub fn validate_request(&self, batch: &SequenceBatch, options: &RequestOptions) -> Result<()> {
        options.validate(batch.num_sequences())?;
        if batch.max_seq_len() > self.config.max_seq {
            return Err(PrismError::InvalidRequest(format!(
                "sequence of {} tokens exceeds model max_seq {}",
                batch.max_seq_len(),
                self.config.max_seq
            )));
        }
        if let Some(&token) = batch
            .tokens()
            .iter()
            .find(|&&t| t as usize >= self.config.vocab_size)
        {
            return Err(PrismError::InvalidRequest(format!(
                "token {token} outside vocabulary of {}",
                self.config.vocab_size
            )));
        }
        Ok(())
    }

    /// Plans one selection: validates the request, embeds the batch,
    /// builds the chunk geometry (with optional spill), and runs the
    /// post-embedding score probe.
    pub fn plan_request(
        &self,
        batch: &SequenceBatch,
        options: RequestOptions,
    ) -> Result<ActiveRequest> {
        let n = batch.num_sequences();
        self.validate_request(batch, &options)?;
        let tag = options
            .tag
            .unwrap_or_else(|| self.request_counter.fetch_add(1, Ordering::Relaxed) + 1);
        let mut state = ScatterGate::new(&self.options, &options, n, self.config.num_layers, tag);
        let mut latency = LatencyRecorder::new();

        // ---- Chunk geometry (§4.3) ----
        let chunk_cands = if self.options.chunking {
            match self.options.chunk_candidates {
                Some(c) => c.max(1),
                None => {
                    let avg_len = (batch.total_tokens() / n).max(1);
                    (self.options.chunk_target_tokens / avg_len).clamp(1, n)
                }
            }
        } else {
            n
        };

        // ---- Embedding phase (§4.4) ----
        let hidden_all = latency.time("embed", || self.embed_batch(batch))?;
        let mut chunks = build_chunks(batch, &hidden_all, chunk_cands)?;

        // Post-embedding probe, while every chunk is still resident: the
        // probe scores are computed from the exact embedded hidden states
        // (bit-identical to the pre-pipeline fetch-back path in f32 mode,
        // quantization-free in int8 mode) and the offload regime saves
        // one full read of every spilled chunk.
        let probe_scores = latency.time("score", || self.probe_scores(&chunks))?;

        // Spill setup: only when offloading is on and there is something to
        // offload. The spill file name is unique per request within the
        // process (several engines may share one spill directory), so
        // concurrent selections never share a slot file.
        let mut spill: Option<SpillPipeline> = None;
        if self.options.hidden_offload && chunks.len() > 3 {
            let throttle = stream_throttle(&self.options);
            let max_rows = chunks.iter().map(Chunk::rows).max().unwrap_or(0);
            let file = SpillFile::create(
                temp_file(&self.spill_dir, "hidden-spill"),
                chunks.len(),
                max_rows,
                self.config.hidden_dim,
                options.spill_precision,
                throttle,
            )?;
            let mut pipe = SpillPipeline::overlapped(file)?;
            // Offload all but the first window of chunks (encoded here,
            // then queued on the writer lane, so the initial offload's I/O
            // hides behind planning's remaining work). A failed write (disk
            // full — the regime spilling targets) must remove the temp
            // file: the per-request unique names would otherwise
            // accumulate one orphan per failure for the process
            // lifetime; `SpillPipeline::cleanup` (also run by the
            // `ActiveRequest` drop guard for deferred lane errors)
            // guarantees that.
            let mut setup: Result<()> = Ok(());
            for (i, chunk) in chunks.iter_mut().enumerate().skip(3) {
                if let Some(t) = chunk.hidden.take() {
                    match latency.time("spill-wait", || pipe.write_back(i, t)) {
                        Ok(()) => chunk.spill_slot = Some(i),
                        Err(e) => {
                            setup = Err(e.into());
                            break;
                        }
                    }
                }
            }
            if let Err(e) = setup {
                let _ = pipe.cleanup();
                return Err(e);
            }
            spill = Some(pipe);
        }

        // Int8-spill value uniformity: chunks that stay resident get the
        // same rowq round-trip the offloaded chunks get from the file,
        // applied after the (exact) probe. See `ActiveRequest::int8_spill`.
        let int8_spill =
            self.options.hidden_offload && options.spill_precision == SpillPrecision::Int8;
        if int8_spill {
            for chunk in chunks.iter_mut() {
                if let Some(hidden) = chunk.hidden.as_mut() {
                    latency.time("quantize", || rowq_round_trip(hidden))?;
                }
            }
        }

        state.seed_probe(probe_scores);
        let mut req = ActiveRequest {
            state,
            int8_spill,
            chunks,
            meter: self.meter.clone(),
            spill,
            metered_hidden: 0,
            latency,
            cancel: CancelToken::new(),
            deadline: None,
            progress: None,
            abort: None,
        };
        req.meter_hidden(&self.meter);
        Ok(req)
    }

    /// Runs the layer-boundary phase for `layer_idx`: cancellation and
    /// deadline checks (aborting releases spill and meter bytes
    /// immediately), then the pruning gate (§4.1) over the scores from
    /// the previous boundary, physical retention of whatever the gate
    /// kept, and progress reporting. May terminate the request.
    ///
    /// [`PrismEngine::run_planned`] calls this once per request per layer.
    /// With [`PrismEngine::forward_planned_layer`] it lets a profiler step
    /// one request through the same phases one layer at a time and time
    /// each; the request's own gate is the only pruning authority either
    /// way.
    pub fn gate_planned(&self, req: &mut ActiveRequest, layer_idx: usize) -> Result<()> {
        if req.is_done() {
            return Ok(());
        }
        // ---- Cancellation / deadline points between phases ----
        if req.cancel.is_cancelled() {
            req.abort(AbortReason::Cancelled, &self.meter);
            return Ok(());
        }
        if req.deadline.is_some_and(|d| Instant::now() >= d) {
            req.abort(AbortReason::DeadlineExceeded, &self.meter);
            return Ok(());
        }
        let keep = {
            let ActiveRequest { state, latency, .. } = req;
            latency.time("gate", || state.gate(layer_idx))
        };
        if let Some(keep) = &keep {
            self.apply_keep_mask(req, keep)?;
        }
        req.emit_progress(layer_idx);
        Ok(())
    }

    /// Forwards one request's chunks through `layer_idx` and re-scores at
    /// the layer boundary (fused: spilled chunks are scored while still
    /// resident, so the boundary score costs no extra spill read).
    fn forward_and_score(
        &self,
        req: &mut ActiveRequest,
        layer_idx: usize,
        weights: &LayerWeights,
        pool: &mut Vec<ForwardScratch>,
    ) -> Result<()> {
        let int8_spill = req.int8_spill;
        // A spilled chunk whose slot fails its checksum is rebuilt from
        // the weights instead of failing the request. `layer_idx` layers
        // have run, and a healthy fetch would have returned the file's
        // *decode* of the stored codes, so an int8 file's replay passes
        // one more rowq round-trip.
        let recover = |chunk: &Chunk| -> Result<Tensor> {
            let mut t = self.recompute_chunk_hidden(chunk, layer_idx, int8_spill)?;
            if int8_spill {
                rowq_round_trip(&mut t)?;
            }
            Ok(t)
        };
        let scores = {
            let ActiveRequest {
                chunks,
                spill,
                latency,
                ..
            } = req;
            self.forward_and_score_chunks(
                chunks, spill, weights, &recover, int8_spill, layer_idx, pool, latency,
            )?
        };
        req.meter_hidden(&self.meter);
        req.state.observe_layer(scores);
        req.emit_progress(layer_idx);
        Ok(())
    }

    /// Ranks survivors, closes the spill file, and assembles the
    /// [`Selection`].
    ///
    /// A request aborted mid-flight comes back as
    /// [`PrismError::Cancelled`] / [`PrismError::DeadlineExceeded`]; its
    /// resources were already released at the aborting layer boundary.
    pub fn finalize_request(&self, mut req: ActiveRequest) -> Result<Selection> {
        match req.abort {
            Some(AbortReason::Cancelled) => return Err(PrismError::Cancelled),
            Some(AbortReason::DeadlineExceeded) => return Err(PrismError::DeadlineExceeded),
            None => {}
        }
        let mut selection = req.state.finalize();

        if let EmbedSource::Cache(c) = &mut *self.embed.lock().expect("embed lock") {
            selection.trace.cache_stats = c.stats();
        }
        if let Some(mut pipe) = req.spill.take() {
            // Drain first so deferred background-write errors surface as
            // this request's error (cleanup still removes the file).
            let drained = pipe.drain();
            let stats = pipe.stats();
            selection.trace.spill_stats = stats;
            selection.trace.spill_bytes = stats.bytes();
            let cleaned = pipe.cleanup();
            drained.and(cleaned)?;
        }
        req.chunks.clear();
        req.meter_hidden(&self.meter);
        // Spill and meter state are cleared above, so the request's
        // cleanup `Drop` is a no-op from here.
        selection.trace.latency = std::mem::take(&mut req.latency);
        Ok(selection)
    }

    /// Forwards one planned request through layer `layer_idx` and
    /// re-scores at the boundary — one iteration of `run_planned`'s inner
    /// loop for a single request. Requires resident layer weights
    /// (`EngineOptions::streaming = false`): the streaming prefetcher is
    /// strictly sequential and cannot serve out-of-loop stepping.
    pub fn forward_planned_layer(
        &self,
        req: &mut ActiveRequest,
        layer_idx: usize,
        pool: &mut Vec<ForwardScratch>,
    ) -> Result<()> {
        if req.is_done() {
            return Ok(());
        }
        if matches!(self.layers, Layers::Streamed(_)) {
            return Err(PrismError::InvalidRequest(
                "layer stepping requires resident weights (streaming off)".into(),
            ));
        }
        let layer = self.acquire_layer(layer_idx, None)?;
        self.forward_and_score(req, layer_idx, &layer.weights, pool)
    }

    /// Applies a keep-mask (indexed by this request's candidate ids):
    /// physically retains the surviving hidden states (fetching and
    /// re-offloading spilled chunks as needed), re-syncs the memory
    /// meter, drops the pruned candidates' scores, and terminates the
    /// request when nothing is left. The one retention path: every keep
    /// mask the request's gate produces goes through it.
    fn apply_keep_mask(&self, req: &mut ActiveRequest, keep: &[bool]) -> Result<()> {
        {
            let executed = req.state.trace.executed_layers;
            let int8_file = req.int8_spill;
            let recompute = |chunk: &Chunk| self.recompute_chunk_hidden(chunk, executed, int8_file);
            let ActiveRequest {
                chunks,
                spill,
                latency,
                ..
            } = req;
            latency.time("prune", || {
                retain_candidates(chunks, spill, keep, &recompute)
            })?;
        }
        req.meter_hidden(&self.meter);
        req.state.retain(keep);
        Ok(())
    }

    /// Embeds a batch: one `[total_tokens, hidden_dim]` tensor with
    /// positional encoding applied: the embedding phase of
    /// [`PrismEngine::plan_request`]. Pure in the token content.
    pub fn embed_batch(&self, batch: &SequenceBatch) -> Result<Tensor> {
        let d = self.config.hidden_dim;
        let mut hidden = Tensor::zeros(batch.total_tokens(), d);
        // Match on the source once; the resident path copies straight from
        // the table row into the hidden row (no per-token heap traffic).
        match &mut *self.embed.lock().expect("embed lock") {
            // One batched resolve for the whole request: every distinct
            // missing row is read once, by one vectored, once-paced read,
            // straight into `hidden` — no row is staged anywhere else.
            EmbedSource::Cache(cache) => {
                cache.embed_into(batch.tokens(), hidden.data_mut())?;
                for &(start, end) in batch.ranges() {
                    for (pos, t) in (start..end).enumerate() {
                        add_position(hidden.row_mut(t)?, pos, d);
                    }
                }
            }
            EmbedSource::Resident(table) => {
                for &(start, end) in batch.ranges() {
                    for (pos, t) in (start..end).enumerate() {
                        let token = batch.tokens()[t] as usize;
                        if token >= table.rows() {
                            return Err(PrismError::InvalidRequest(format!(
                                "token {token} outside vocabulary"
                            )));
                        }
                        let row = hidden.row_mut(t)?;
                        row.copy_from_slice(table.row(token)?);
                        add_position(row, pos, d);
                    }
                }
            }
        }
        Ok(hidden)
    }

    /// Forwards every chunk through one layer and scores it at the
    /// boundary, returning `(original_id, score)` pairs in chunk order.
    ///
    /// Resident (non-spilled) chunks run on [`PrismEngine::chunk_workers`]
    /// workers — each owns one [`ForwardScratch`] — while the
    /// spill window runs the paper's three-stage overlap: while chunk *i*
    /// computes, chunk *i+1* prefetches on the pipeline's reader lane and
    /// chunk *i-1*'s write-back drains on the writer lane, keeping at
    /// most three spilled chunks in flight exactly as the §4.3 memory
    /// bound assumes. Each spilled chunk is scored while still resident,
    /// which saves the separate per-layer scoring read the synchronous
    /// path paid. Chunks are data-independent and each is computed with a
    /// deterministic per-row accumulation order, so neither the parallel
    /// schedule nor the overlap can change results.
    #[allow(clippy::too_many_arguments)] // spill regime + scratch pools
    fn forward_and_score_chunks(
        &self,
        chunks: &mut [Chunk],
        spill: &mut Option<SpillPipeline>,
        weights: &LayerWeights,
        recover: &dyn Fn(&Chunk) -> Result<Tensor>,
        int8_spill: bool,
        layer_idx: usize,
        pool: &mut Vec<ForwardScratch>,
        latency: &mut LatencyRecorder,
    ) -> Result<Vec<(usize, f32)>> {
        let max_seq = chunks
            .iter()
            .flat_map(|c| c.seq_lens.iter().copied())
            .max()
            .unwrap_or(0)
            .max(1);
        let max_rows = chunks.iter().map(Chunk::rows).max().unwrap_or(0);
        let workers = self.chunk_workers(chunks, max_rows);
        while pool.len() < workers {
            pool.push(ForwardScratch::new(&self.config, max_rows));
        }
        let mut chunk_scores: Vec<Option<Vec<f32>>> = (0..chunks.len()).map(|_| None).collect();

        // ---- Overlapped spill window ----
        let spilled: Vec<usize> = (0..chunks.len())
            .filter(|&i| chunks[i].spill_slot.is_some())
            .collect();
        if let (Some(pipe), Some(&first)) = (spill.as_mut(), spilled.first()) {
            if chunks[first].hidden.is_none() {
                pipe.prefetch(chunks[first].spill_slot.expect("spilled chunk"))?;
            }
        }
        for (pos, &ci) in spilled.iter().enumerate() {
            let slot = chunks[ci].spill_slot.expect("spilled chunk");
            let pipe = spill.as_mut().ok_or_else(|| {
                PrismError::InvalidRequest("chunk spilled without a spill file".into())
            })?;
            // The fetched chunk's bytes are metered for exactly the
            // fetch→write-back window (alloc/free deltas, so concurrent
            // requests' ledgers stay untouched).
            let mut fetched_bytes = 0_u64;
            if chunks[ci].hidden.is_none() {
                // The fetch decodes the slot on this thread. On a
                // checksum mismatch the slot is already quarantined and
                // `recover` rebuilds it.
                let t = match latency.time("spill-wait", || pipe.fetch(slot)) {
                    Ok(t) => t,
                    Err(StorageError::ChecksumMismatch { .. }) => {
                        latency.time("recompute", || recover(&chunks[ci]))?
                    }
                    Err(e) => return Err(e.into()),
                };
                fetched_bytes = t.size_bytes() as u64;
                self.meter.alloc(MemCategory::HiddenStates, fetched_bytes);
                chunks[ci].hidden = Some(t);
            }
            // Kick off the next chunk's read before computing this one.
            if let Some(&next) = spilled.get(pos + 1) {
                if chunks[next].hidden.is_none() {
                    let pipe = spill.as_mut().expect("spill file present");
                    pipe.prefetch(chunks[next].spill_slot.expect("spilled chunk"))?;
                }
            }
            let chunk = &mut chunks[ci];
            let Chunk { hidden, ranges, .. } = chunk;
            let Some(hidden) = hidden.as_mut() else {
                continue;
            };
            // Meter alloc/free pairs stay balanced on the error path
            // (`?` only after the frees): a failed request on a
            // long-running server must not inflate the shared ledger.
            let inter = self.workspace_bytes(hidden.rows(), max_seq);
            self.meter.alloc(MemCategory::Intermediate, inter);
            let step = latency
                .time("forward", || {
                    forward_layer_with(
                        &self.config,
                        weights,
                        layer_idx,
                        hidden,
                        ranges,
                        &mut pool[0],
                    )
                })
                .map_err(PrismError::from)
                .and_then(|()| {
                    // Score while resident: no extra spill read.
                    latency
                        .time("score", || {
                            prism_model::classifier::score_sequences(
                                &self.config,
                                &self.head,
                                hidden,
                                ranges,
                            )
                        })
                        .map_err(PrismError::from)
                });
            self.meter.free(MemCategory::Intermediate, inter);
            match step {
                Ok(scores) => {
                    chunk_scores[ci] = Some(scores);
                    let t = chunk.hidden.take().expect("hidden present");
                    let pipe = spill.as_mut().expect("spill file present");
                    // The write-back encodes on this thread, then waits
                    // only if the writer lane is still full.
                    let wb = latency.time("spill-wait", || pipe.write_back(slot, t));
                    self.meter.free(MemCategory::HiddenStates, fetched_bytes);
                    wb?;
                }
                Err(e) => {
                    self.meter.free(MemCategory::HiddenStates, fetched_bytes);
                    return Err(e);
                }
            }
        }

        // ---- Parallel resident chunks ----
        self.forward_resident_chunks(chunks, weights, layer_idx, pool, workers, max_seq, latency)?;

        // ---- Score resident chunks at the boundary ----
        latency.time("score", || -> Result<()> {
            for (ci, chunk) in chunks.iter().enumerate() {
                if chunk.spill_slot.is_some() || chunk.ids.is_empty() {
                    continue;
                }
                let Some(hidden) = chunk.hidden.as_ref() else {
                    continue;
                };
                chunk_scores[ci] = Some(prism_model::classifier::score_sequences(
                    &self.config,
                    &self.head,
                    hidden,
                    &chunk.ranges,
                )?);
            }
            Ok(())
        })?;

        // ---- Int8-spill value uniformity for resident chunks ----
        // Spilled chunks were scored on exact forward output, then
        // encoded on write-back; resident chunks must see the same
        // score-then-quantize order, so the in-memory round-trip comes
        // after the boundary scoring above.
        if int8_spill {
            latency.time("quantize", || -> Result<()> {
                for chunk in chunks.iter_mut() {
                    if chunk.spill_slot.is_some() || chunk.ids.is_empty() {
                        continue;
                    }
                    if let Some(hidden) = chunk.hidden.as_mut() {
                        rowq_round_trip(hidden)?;
                    }
                }
                Ok(())
            })?;
        }

        let mut out = Vec::new();
        for (ci, chunk) in chunks.iter().enumerate() {
            if let Some(scores) = chunk_scores[ci].take() {
                for (id, s) in chunk.ids.iter().zip(scores) {
                    out.push((*id, s));
                }
            }
        }
        Ok(out)
    }

    /// Runs the resident (non-spilled) chunks of one layer on `workers`
    /// workers: inline on the calling thread for one, scoped threads for
    /// more.
    #[allow(clippy::too_many_arguments)] // internal driver: shapes + pools
    fn forward_resident_chunks(
        &self,
        chunks: &mut [Chunk],
        weights: &LayerWeights,
        layer_idx: usize,
        pool: &mut [ForwardScratch],
        workers: usize,
        max_seq: usize,
        latency: &mut LatencyRecorder,
    ) -> Result<()> {
        let max_rows = chunks.iter().map(Chunk::rows).max().unwrap_or(0);
        let mut resident: Vec<&mut Chunk> = chunks
            .iter_mut()
            .filter(|c| c.spill_slot.is_none() && c.hidden.is_some())
            .collect();
        if resident.is_empty() {
            return Ok(());
        }
        let forward_start = Instant::now();
        // Each live worker holds one scratch sized for the largest chunk;
        // that product is the true concurrent intermediate footprint.
        let inter = workers as u64 * self.workspace_bytes(max_rows, max_seq);
        self.meter.alloc(MemCategory::Intermediate, inter);
        let forward_one = |hidden: &mut Tensor,
                           ranges: &[(usize, usize)],
                           scratch: &mut ForwardScratch|
         -> Result<()> {
            forward_layer_with(&self.config, weights, layer_idx, hidden, ranges, scratch)?;
            Ok(())
        };
        let result: Result<()> = if workers <= 1 {
            let scratch = &mut pool[0];
            resident.iter_mut().try_for_each(|chunk| -> Result<()> {
                let hidden = chunk.hidden.as_mut().expect("resident chunk");
                forward_one(hidden, &chunk.ranges, scratch)
            })
        } else {
            let group = resident.len().div_ceil(workers);
            // The workers share the cores: each one's matrix products get
            // its share of them, not all of them again.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let gemm_threads = cores / workers;
            let results: Vec<Result<()>> = std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for (chunk_group, scratch) in resident.chunks_mut(group).zip(pool.iter_mut()) {
                    let forward_one = &forward_one;
                    handles.push(scope.spawn(move || -> Result<()> {
                        prism_tensor::ops::limit_gemm_threads(gemm_threads);
                        for chunk in chunk_group.iter_mut() {
                            let hidden = chunk.hidden.as_mut().expect("resident chunk");
                            forward_one(hidden, &chunk.ranges, scratch)?;
                        }
                        Ok(())
                    }));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("chunk worker panicked"))
                    .collect()
            });
            results.into_iter().collect()
        };
        self.meter.free(MemCategory::Intermediate, inter);
        latency.record("forward", forward_start.elapsed().as_micros() as u64);
        result
    }

    /// Bytes one forward workspace holds while it runs `rows` packed
    /// tokens: the f32 working set, plus the rowq lane an int8 layer
    /// encodes its activations into.
    fn workspace_bytes(&self, rows: usize, max_seq: usize) -> u64 {
        let lane = match self.options.weights {
            WeightFormat::Int8 => rowq_lane_bytes(&self.config, rows),
            WeightFormat::F32 => 0,
        };
        intermediate_bytes(&self.config, rows, max_seq) + lane
    }

    /// How many workers the resident chunks of one layer fan out to: the
    /// fan-out rule every matrix product obeys
    /// ([`prism_tensor::ops::num_threads_for`]), asked with the largest
    /// chunk's per-layer multiply-accumulates, and never more workers
    /// than resident chunks. Below [`prism_tensor::ops::PAR_FLOP_THRESHOLD`]
    /// the chunks forward inline on the calling thread with one
    /// workspace. A mini chunk's forward (2-3 M MACs) takes 250-400 us on
    /// two vCPUs; a second worker costs a two-thread scope (54-95 us) and
    /// a second [`ForwardScratch`], and wins back a few per cent of
    /// latency only on passes that are compute-bound. The calling
    /// thread's `limit_gemm_threads` cap bounds the workers as it bounds
    /// a GEMM.
    fn chunk_workers(&self, chunks: &[Chunk], max_rows: usize) -> usize {
        let resident = chunks
            .iter()
            .filter(|c| c.spill_slot.is_none() && c.hidden.is_some())
            .count();
        let d = self.config.hidden_dim;
        let f = self.config.ffn_dim;
        let macs = max_rows * d * (4 * d + 3 * f);
        prism_tensor::ops::num_threads_for(macs)
            .min(resident)
            .max(1)
    }

    /// Gets layer `layer_idx` for the span of one forward — the one
    /// place the engine acquires weights, always in the engine's weight
    /// format. The layer is borrowed from the resident set, decoded from a
    /// streamed `section`, or, for the recovery replay on a streamed
    /// engine, read straight from the layer store. What is decoded here,
    /// and the streamed section, stays on the meter's layer weights until
    /// the guard drops.
    fn acquire_layer(
        &self,
        layer_idx: usize,
        section: Option<&LoadedSection>,
    ) -> Result<LayerGuard<'_>> {
        let mut metered = MeteredWeights {
            meter: &self.meter,
            bytes: 0,
        };
        let weights = match (&self.layers, section) {
            (Layers::Resident(layers), _) => Cow::Borrowed(&layers[layer_idx]),
            (Layers::Streamed(_), Some(section)) => {
                metered.alloc(section.meta.len);
                Cow::Owned(metered.decode(&self.config, &section.bytes)?)
            }
            (Layers::Streamed(store), None) => {
                let mut blob = Vec::new();
                store.read_section_into(&layer_section(layer_idx), &mut blob)?;
                Cow::Owned(metered.decode(&self.config, &blob)?)
            }
        };
        Ok(LayerGuard {
            weights,
            _metered: metered,
        })
    }

    /// The post-embedding score probe: every chunk is still resident at
    /// this point (spilling happens after the probe), so this is a pure
    /// read over the embedded hidden states. Returns
    /// `(original_id, score)` pairs in chunk order; layer-boundary
    /// scoring is fused into
    /// [`PrismEngine::forward_and_score_chunks`].
    fn probe_scores(&self, chunks: &[Chunk]) -> Result<Vec<(usize, f32)>> {
        let mut out = Vec::new();
        for chunk in chunks {
            if chunk.ids.is_empty() {
                continue;
            }
            let hidden = chunk.hidden.as_ref().ok_or_else(|| {
                PrismError::InvalidRequest("chunk hidden state unavailable".into())
            })?;
            let scores = prism_model::classifier::score_sequences(
                &self.config,
                &self.head,
                hidden,
                &chunk.ranges,
            )?;
            for (id, s) in chunk.ids.iter().zip(scores) {
                out.push((*id, s));
            }
        }
        Ok(out)
    }

    /// Rebuilds a chunk's hidden state from the weights after its spill
    /// slot was quarantined (checksum mismatch): re-embeds the chunk's
    /// surviving token sequences and replays the `layers_executed`
    /// transformer layers the request has run so far.
    ///
    /// Returns the **pre-encode** hidden state `h_L` — the exact forward
    /// output the quarantined slot was written from. The caller applies
    /// whatever transform the lost read would have: the per-layer fetch
    /// site applies the rowq round-trip when the file is int8 (a fetch
    /// decodes stored codes), the retain path writes the kept rows back
    /// through the file's own encode, and an f32 file needs nothing (its
    /// round trip is bit-exact).
    ///
    /// Bit-identity to the lost slot holds because (a) embedding is pure
    /// in token content with per-sequence-local positions, (b) forward
    /// layers use per-candidate attention ranges, so a chunk's rows never
    /// depend on other chunks or pruned candidates, and (c) under the
    /// int8-spill regime every layer input passed through the same rowq
    /// round-trip this replay applies.
    fn recompute_chunk_hidden(
        &self,
        chunk: &Chunk,
        layers_executed: usize,
        int8_file: bool,
    ) -> Result<Tensor> {
        let batch = SequenceBatch::new(&chunk.tokens)?;
        let mut hidden = self.embed_batch(&batch)?;
        if layers_executed == 0 {
            return Ok(hidden);
        }
        let mut scratch = ForwardScratch::new(&self.config, hidden.rows());
        for l in 0..layers_executed {
            // Every layer input — including the embedding — passed the
            // spill round-trip before being forwarded (offload encodes,
            // fetch decodes; resident chunks mirror it in memory).
            if int8_file {
                rowq_round_trip(&mut hidden)?;
            }
            let layer = self.acquire_layer(l, None)?;
            forward_layer_with(
                &self.config,
                &layer.weights,
                l,
                &mut hidden,
                &chunk.ranges,
                &mut scratch,
            )?;
        }
        Ok(hidden)
    }
}

/// One layer's weights for the span of a forward, as
/// [`PrismEngine::acquire_layer`] got them.
struct LayerGuard<'a> {
    weights: Cow<'a, LayerWeights>,
    _metered: MeteredWeights<'a>,
}

/// Layer-weight bytes on the shared meter, freed on drop.
struct MeteredWeights<'a> {
    meter: &'a MemoryMeter,
    bytes: u64,
}

impl MeteredWeights<'_> {
    fn alloc(&mut self, bytes: u64) {
        self.meter.alloc(MemCategory::LayerWeights, bytes);
        self.bytes += bytes;
    }

    /// Decodes a layer blob, metering the decoded layer.
    fn decode(&mut self, config: &ModelConfig, blob: &[u8]) -> Result<LayerWeights> {
        let w = LayerWeights::from_bytes(config, blob)?;
        self.alloc(w.size_bytes() as u64);
        Ok(w)
    }
}

impl Drop for MeteredWeights<'_> {
    fn drop(&mut self) {
        self.meter.free(MemCategory::LayerWeights, self.bytes);
    }
}

/// The bandwidth cap every storage read of an engine is paced by:
/// weight streaming, embedding misses and hidden-state spill.
fn stream_throttle(options: &EngineOptions) -> Throttle {
    options
        .stream_throttle
        .map_or(Throttle::unlimited(), Throttle::bandwidth)
}

fn build_chunks(
    batch: &SequenceBatch,
    hidden_all: &Tensor,
    chunk_cands: usize,
) -> Result<Vec<Chunk>> {
    let n = batch.num_sequences();
    let mut chunks = Vec::with_capacity(n.div_ceil(chunk_cands));
    let mut i = 0;
    while i < n {
        let end = (i + chunk_cands).min(n);
        let ids: Vec<usize> = (i..end).collect();
        let seq_lens: Vec<usize> = ids
            .iter()
            .map(|&c| {
                let (s, e) = batch.ranges()[c];
                e - s
            })
            .collect();
        let row_start = batch.ranges()[i].0;
        let row_end = batch.ranges()[end - 1].1;
        let hidden = hidden_all.slice_rows(row_start, row_end)?;
        let ranges = Chunk::ranges_from(&seq_lens);
        let tokens = ids
            .iter()
            .map(|&c| {
                let (s, e) = batch.ranges()[c];
                batch.tokens()[s..e].to_vec()
            })
            .collect();
        chunks.push(Chunk {
            ids,
            seq_lens,
            ranges,
            tokens,
            hidden: Some(hidden),
            spill_slot: None,
        });
        i = end;
    }
    Ok(chunks)
}

/// Removes all candidates whose id is unset in the `keep` mask (indexed
/// by original candidate id): resident chunks gather their kept rows in
/// memory, spilled chunks are compacted in the spill file's own encoding
/// by [`SpillPipeline::retain_rows`].
///
/// Two fast paths avoid spill I/O entirely: a chunk whose keep-mask is
/// all-true is untouched (no read-back + rewrite when nothing is
/// pruned), and a chunk whose keep-mask is all-false releases its slot
/// without ever fetching the doomed rows.
fn retain_candidates(
    chunks: &mut Vec<Chunk>,
    spill: &mut Option<SpillPipeline>,
    keep: &[bool],
    recompute: &dyn Fn(&Chunk) -> Result<Tensor>,
) -> Result<()> {
    for chunk in chunks.iter_mut() {
        let keep_local: Vec<usize> = chunk
            .ids
            .iter()
            .enumerate()
            .filter_map(|(li, id)| keep[*id].then_some(li))
            .collect();
        if keep_local.len() == chunk.ids.len() {
            continue;
        }
        let rows: Vec<usize> = keep_local
            .iter()
            .flat_map(|&li| {
                let (s, e) = chunk.ranges[li];
                s..e
            })
            .collect();
        match (chunk.hidden.take(), chunk.spill_slot, spill.as_mut()) {
            (Some(hidden), ..) if !keep_local.is_empty() => {
                chunk.hidden = Some(hidden.gather_rows(&rows)?);
            }
            (None, Some(slot), Some(file)) if !keep_local.is_empty() => {
                // A quarantined slot is rebuilt from the weights. rowq is
                // per row, so writing back the recomputed kept rows
                // stores exactly the bytes a healthy compaction would.
                match file.retain_rows(slot, &rows) {
                    Ok(()) => {}
                    Err(StorageError::ChecksumMismatch { .. }) => {
                        file.write_back(slot, recompute(chunk)?.gather_rows(&rows)?)?;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            (_, slot, file) => {
                // Everything in this chunk was pruned (or nothing of it
                // is left anywhere): drop the data where it lives, no
                // fetch required.
                if let (Some(slot), Some(file)) = (slot, file) {
                    file.release(slot)?;
                }
                chunk.spill_slot = None;
                chunk.ids.clear();
                chunk.seq_lens.clear();
                chunk.ranges.clear();
                chunk.tokens.clear();
                continue;
            }
        }
        chunk.ids = keep_local.iter().map(|&li| chunk.ids[li]).collect();
        chunk.seq_lens = keep_local.iter().map(|&li| chunk.seq_lens[li]).collect();
        chunk.tokens = keep_local
            .iter()
            .map(|&li| std::mem::take(&mut chunk.tokens[li]))
            .collect();
        chunk.ranges = Chunk::ranges_from(&chunk.seq_lens);
    }
    chunks.retain(|c| !c.ids.is_empty());
    Ok(())
}

#[cfg(test)]
mod sync_tests {
    use super::*;

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<PrismEngine>();
    }

    #[test]
    fn request_options_defaults() {
        let o = RequestOptions::top_k(5);
        assert_eq!(o.k, 5);
        assert!(o.tag.is_none() && o.dispersion_threshold.is_none());
        assert!(o.deadline_us.is_none());
        assert_eq!(o.spill_precision, SpillPrecision::Int8);
        let t = RequestOptions::tagged(3, 42);
        assert_eq!(t.tag, Some(42));
        let p = RequestOptions::top_k(2)
            .with_deadline_us(5_000)
            .with_dispersion_threshold(0.4)
            .with_spill_precision(SpillPrecision::F32);
        assert_eq!(p.deadline_us, Some(5_000));
        assert_eq!(p.dispersion_threshold, Some(0.4));
        assert_eq!(p.spill_precision, SpillPrecision::F32);
    }
}
