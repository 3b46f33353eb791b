//! Latency helpers for surrounding pipeline stages (LLM generation, VLM
//! inference) used by the real-world application experiments (§6.3), plus
//! the spill-byte terms of the §4.3 offload regime.

use prism_model::ModelConfig;
use prism_storage::SpillPrecision;

use crate::DeviceSpec;

/// Seconds to prefill `prompt_tokens` of context through `cfg` on `device`
/// (compute-bound, full-batch utilization).
pub fn prefill_time_s(cfg: &ModelConfig, device: &DeviceSpec, prompt_tokens: u64) -> f64 {
    if prompt_tokens == 0 {
        return 0.0;
    }
    let per_layer = cfg.layer_macs(prompt_tokens, prompt_tokens.min(cfg.max_seq as u64));
    (0..cfg.num_layers)
        .map(|_| device.compute_time_s(per_layer, prompt_tokens, false))
        .sum()
}

/// Seconds to autoregressively decode `gen_tokens` tokens (memory-bound:
/// every step streams the full weight set through the memory hierarchy).
pub fn decode_time_s(cfg: &ModelConfig, device: &DeviceSpec, gen_tokens: u64) -> f64 {
    let bytes_per_step = cfg.total_weight_bytes() as f64;
    gen_tokens as f64 * bytes_per_step / device.mem_bandwidth
}

/// First-token latency of a generation call: prefill plus one decode step.
pub fn first_token_time_s(cfg: &ModelConfig, device: &DeviceSpec, prompt_tokens: u64) -> f64 {
    prefill_time_s(cfg, device, prompt_tokens) + decode_time_s(cfg, device, 1)
}

/// Bytes one spilled chunk of `rows` hidden-state rows moves per
/// transformer layer under the §4.3 offload window: one fetch of the
/// previous layer's state plus one write-back of the new one, at
/// `precision`'s exact slot encoding (header and per-row quantization
/// metadata included).
pub fn spill_bytes_per_layer(cfg: &ModelConfig, precision: SpillPrecision, rows: usize) -> u64 {
    2 * precision.encoded_bytes(rows, cfg.hidden_dim) as u64
}

/// Seconds an offload-regime selection spends on spill traffic that is
/// *not* hidden behind computation.
///
/// `spilled_chunks` chunks of `rows_per_chunk` rows each cross the SSD
/// twice per executed layer; `overlap_efficiency` is the fraction of
/// that I/O the three-stage pipeline hides behind the compute window
/// (`0.0` = fully synchronous — the pre-pipeline engine; measured values
/// come from the engine trace's spill stats). Compression and overlap
/// compose: int8 quarters the byte term before the overlap discount.
pub fn offload_spill_time_s(
    cfg: &ModelConfig,
    device: &DeviceSpec,
    precision: SpillPrecision,
    spilled_chunks: usize,
    rows_per_chunk: usize,
    executed_layers: usize,
    overlap_efficiency: f64,
) -> f64 {
    if spilled_chunks == 0 {
        return 0.0;
    }
    let per_layer_bytes =
        spilled_chunks as u64 * spill_bytes_per_layer(cfg, precision, rows_per_chunk);
    // Each chunk pays two positioned I/O requests per layer (fetch +
    // write-back), i.e. `2 * spilled_chunks` fixed latencies in total:
    // `ssd_read_time_s` already charges one, the term below adds the
    // remaining `2n - 1`. Both directions are modeled at the SSD read
    // service time.
    let per_layer_s = device.ssd_read_time_s(per_layer_bytes)
        + (2 * spilled_chunks - 1) as f64 * device.ssd_latency;
    let raw = executed_layers as f64 * per_layer_s;
    raw * (1.0 - overlap_efficiency.clamp(0.0, 1.0))
}

/// Spill-regime parameters of a serving worker running batches through
/// the §4.3 offload window (used by [`ServeBatchCost`]).
#[derive(Debug, Clone, Copy)]
pub struct SpillCostParams {
    /// Slot encoding of spilled hidden-state rows.
    pub precision: SpillPrecision,
    /// Rows per execution chunk (the §4.3 chunk height).
    pub rows_per_chunk: usize,
    /// Fraction of spill I/O hidden behind compute by the three-stage
    /// pipeline (`0.0` = fully synchronous).
    pub overlap_efficiency: f64,
}

/// Semantic-cache regime of a serving worker: the fraction of packed
/// tokens whose scores replay from the cross-request cache instead of
/// running the forward pass, plus the per-request probe cost (pooling,
/// index lookup, replay bookkeeping). Used by [`ServeBatchCost`].
#[derive(Debug, Clone, Copy)]
pub struct SemCacheCostParams {
    /// Fraction of packed tokens served by replay in `[0, 1]`; only the
    /// remaining miss fraction pays the layer and spill terms.
    pub hit_fraction: f64,
    /// Seconds per request spent probing the cache (paid by hits and
    /// misses alike).
    pub probe_overhead_s: f64,
}

/// Analytic service-time model for one coalesced serving batch — the
/// worker model of the serving metasim (`prism-metasim`).
///
/// A batch of `tokens` packed tokens advances through every layer
/// monolithically; per layer the engine overlaps weight streaming with
/// compute (§4.2), so the layer takes the *maximum* of the two, and a
/// batch taller than the chunk height pays the unhidden spill traffic of
/// the §4.3 offload window ([`offload_spill_time_s`], including the
/// PR 5 spill-byte terms). Fixed per-batch and per-request overheads
/// absorb dispatch, planning, and reply costs; the `repro sim-validate`
/// harness *calibrates* them against the real engine, while
/// `prsm simulate-serve` uses device-spec defaults.
#[derive(Debug, Clone)]
pub struct ServeBatchCost {
    /// The served model.
    pub config: ModelConfig,
    /// The device executing batches.
    pub device: DeviceSpec,
    /// Container weight-streaming bandwidth in bytes/s (`None` =
    /// weights resident in accelerator memory; the serving benches
    /// throttle this to model cold-cache disks).
    pub stream_bandwidth: Option<f64>,
    /// Whether matmuls run on quantized kernels.
    pub quant: bool,
    /// Whether the forward pass runs the u8×i8 integer GEMM kernels
    /// (`RequestOptions::compute_precision = Int8`). Overrides `quant`
    /// for the compute term; off by default so the analytic model keeps
    /// matching the shipped `ServeConfig` defaults it was swept for.
    pub int8_compute: bool,
    /// Hidden-state spill regime, when the batch exceeds the in-memory
    /// chunk height.
    pub spill: Option<SpillCostParams>,
    /// Semantic result-cache regime (`RequestOptions::semcache != Off`):
    /// replayed tokens skip the layer and spill terms, every request
    /// pays the probe. `None` = cache disabled.
    pub semcache: Option<SemCacheCostParams>,
    /// Fixed per-batch overhead in seconds (dispatch, coalescing,
    /// scratch setup).
    pub batch_overhead_s: f64,
    /// Fixed per-request overhead in seconds (planning, scoring, reply).
    pub request_overhead_s: f64,
}

impl ServeBatchCost {
    /// A model with device-derived defaults: resident weights, dense
    /// kernels, no spill, and overheads at the device's SSD latency
    /// scale (one positioned I/O per batch, a tenth per request).
    pub fn new(config: ModelConfig, device: DeviceSpec) -> Self {
        let latency = device.ssd_latency;
        ServeBatchCost {
            config,
            device,
            stream_bandwidth: None,
            quant: false,
            int8_compute: false,
            spill: None,
            semcache: None,
            batch_overhead_s: latency,
            request_overhead_s: latency / 10.0,
        }
    }

    /// Seconds one transformer layer takes for `tokens` packed tokens at
    /// sequence length `seq`: the slower of compute and the pipelined
    /// weight stream (§4.2 overlap). The building block shared by the
    /// flat batch model and the scatter-gather model, which prices each
    /// shard's forward-map partition through it.
    pub fn per_layer_time_s(&self, tokens: u64, seq: u64) -> f64 {
        if tokens == 0 {
            return 0.0;
        }
        let layer_macs = self.config.layer_macs(tokens, seq);
        let per_layer_compute = if self.int8_compute {
            self.device.int8_compute_time_s(layer_macs, tokens)
        } else {
            self.device.compute_time_s(layer_macs, tokens, self.quant)
        };
        let per_layer_stream = self
            .stream_bandwidth
            .map(|bw| self.config.layer_bytes() as f64 / bw.max(1.0))
            .unwrap_or(0.0);
        per_layer_compute.max(per_layer_stream)
    }

    /// Seconds of unhidden spill traffic `tokens` packed tokens generate
    /// under this worker's spill regime (zero when nothing spills).
    pub fn spill_time_s(&self, tokens: u64) -> f64 {
        self.spill
            .map(|s| {
                let chunks = (tokens as usize).div_ceil(s.rows_per_chunk.max(1));
                // One chunk stays resident; the rest round-trip the SSD.
                offload_spill_time_s(
                    &self.config,
                    &self.device,
                    s.precision,
                    chunks.saturating_sub(1),
                    s.rows_per_chunk,
                    self.config.num_layers,
                    s.overlap_efficiency,
                )
            })
            .unwrap_or(0.0)
    }

    /// Tokens that still need the forward pass and the per-batch probe
    /// seconds under this worker's semantic-cache regime (identity when
    /// the cache is off). Shared by the flat and scatter-gather models.
    fn semcache_terms(&self, requests: usize, tokens: u64) -> (u64, f64) {
        match self.semcache {
            Some(s) => {
                let miss = 1.0 - s.hit_fraction.clamp(0.0, 1.0);
                let forward = (tokens as f64 * miss).round() as u64;
                (forward, requests as f64 * s.probe_overhead_s.max(0.0))
            }
            None => (tokens, 0.0),
        }
    }

    /// Seconds one coalesced batch of `requests` requests totalling
    /// `tokens` packed tokens occupies a worker.
    pub fn batch_time_s(&self, requests: usize, tokens: u64) -> f64 {
        if requests == 0 || tokens == 0 {
            return 0.0;
        }
        let seq = (tokens / requests as u64).max(1);
        let (forward_tokens, probe_s) = self.semcache_terms(requests, tokens);
        let layers_s = self.config.num_layers as f64 * self.per_layer_time_s(forward_tokens, seq);
        self.batch_overhead_s
            + requests as f64 * self.request_overhead_s
            + probe_s
            + layers_s
            + self.spill_time_s(forward_tokens)
    }

    /// [`Self::batch_time_s`] in whole microseconds (at least 1 for a
    /// non-empty batch — virtual time must advance).
    pub fn batch_micros(&self, requests: usize, tokens: u64) -> u64 {
        if requests == 0 {
            return 0;
        }
        ((self.batch_time_s(requests, tokens) * 1e6).round() as u64).max(1)
    }
}

/// Analytic cost of scatter-gather serving: a coordinator splits each
/// batch's candidates across `shards` engine shards by the flat
/// consistent-hash forward map (near-even partitions), the shards
/// forward their partition layer-by-layer in lockstep, and the
/// coordinator runs the global pruning gate and merge at every boundary.
///
/// Two deployments are priced:
///
/// * **`parallel_shards = true`** — one device per shard: a layer costs
///   as much as the *slowest* partition, so sharding shortens the
///   forward term toward `1/shards` (minus the coordinator's serial
///   gate).
/// * **`parallel_shards = false`** — shards colocated on one device
///   (the loopback deployment the conformance and bench suites run):
///   partitions serialize, so sharding is pure overhead and the honest
///   metric is [`ScatterGatherCost::overhead_ratio`], which the
///   `sharded` bench section gates.
#[derive(Debug, Clone)]
pub struct ScatterGatherCost {
    /// The per-shard worker model (compute, streaming, spill regime).
    pub worker: ServeBatchCost,
    /// Number of engine shards behind the forward map.
    pub shards: usize,
    /// `true` = one device per shard; `false` = colocated lockstep.
    pub parallel_shards: bool,
    /// Coordinator time per layer boundary (global gate: route, book,
    /// merge the shard score slices).
    pub gate_overhead_s: f64,
    /// Coordinator dispatch time per shard per layer (scatter control).
    pub dispatch_overhead_s: f64,
}

impl ScatterGatherCost {
    /// A colocated (loopback) scatter-gather model over `worker` with
    /// coordinator overheads at the device's positioned-I/O latency
    /// scale — a tenth per gate, a hundredth per shard dispatch.
    pub fn new(worker: ServeBatchCost, shards: usize) -> Self {
        let latency = worker.device.ssd_latency;
        ScatterGatherCost {
            worker,
            shards: shards.max(1),
            parallel_shards: false,
            gate_overhead_s: latency / 10.0,
            dispatch_overhead_s: latency / 100.0,
        }
    }

    /// The forward-map partition sizes for `tokens` packed tokens:
    /// `rem` shards carry one extra token-row.
    fn partitions(&self, tokens: u64) -> impl Iterator<Item = u64> {
        let shards = self.shards as u64;
        let base = tokens / shards;
        let rem = tokens % shards;
        (0..shards).map(move |i| if i < rem { base + 1 } else { base })
    }

    /// Seconds one coalesced batch of `requests` requests totalling
    /// `tokens` packed tokens occupies the sharded worker pool.
    pub fn batch_time_s(&self, requests: usize, tokens: u64) -> f64 {
        if requests == 0 || tokens == 0 {
            return 0.0;
        }
        let seq = (tokens / requests as u64).max(1);
        // The coordinator probes the semantic cache before scattering
        // (the server's all-or-nothing sharded path): replayed tokens
        // never reach the shards, so only the miss fraction partitions.
        let (forward_tokens, probe_s) = self.worker.semcache_terms(requests, tokens);
        let forward_per_layer = if self.parallel_shards {
            self.partitions(forward_tokens)
                .map(|t| self.worker.per_layer_time_s(t, seq))
                .fold(0.0, f64::max)
        } else {
            self.partitions(forward_tokens)
                .map(|t| self.worker.per_layer_time_s(t, seq))
                .sum()
        };
        let coord_per_layer = self.gate_overhead_s + self.shards as f64 * self.dispatch_overhead_s;
        let layers_s = self.worker.config.num_layers as f64 * (forward_per_layer + coord_per_layer);
        let spill_s = if self.parallel_shards {
            self.partitions(forward_tokens)
                .map(|t| self.worker.spill_time_s(t))
                .fold(0.0, f64::max)
        } else {
            self.partitions(forward_tokens)
                .map(|t| self.worker.spill_time_s(t))
                .sum()
        };
        self.worker.batch_overhead_s
            + requests as f64 * self.worker.request_overhead_s
            + probe_s
            + layers_s
            + spill_s
    }

    /// [`Self::batch_time_s`] in whole microseconds (at least 1 for a
    /// non-empty batch — virtual time must advance).
    pub fn batch_micros(&self, requests: usize, tokens: u64) -> u64 {
        if requests == 0 {
            return 0;
        }
        ((self.batch_time_s(requests, tokens) * 1e6).round() as u64).max(1)
    }

    /// Sharded time over unsharded time on the same worker model. The
    /// colocated deployment's honest figure of merit: `>= 1`, and the
    /// bench gate bounds how far above 1 the coordinator's per-layer
    /// serial work pushes it.
    pub fn overhead_ratio(&self, requests: usize, tokens: u64) -> f64 {
        let single = self.worker.batch_time_s(requests, tokens);
        if single == 0.0 {
            return 1.0;
        }
        self.batch_time_s(requests, tokens) / single
    }

    /// Unsharded time over sharded time — the figure of merit for the
    /// one-device-per-shard deployment.
    pub fn speedup(&self, requests: usize, tokens: u64) -> f64 {
        let sharded = self.batch_time_s(requests, tokens);
        if sharded == 0.0 {
            return 1.0;
        }
        self.worker.batch_time_s(requests, tokens) / sharded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_grows_with_prompt() {
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::rtx5070_laptop();
        // Below the utilization knee, longer prompts gain efficiency, so
        // growth is sublinear; above it, growth is at least linear.
        let short = prefill_time_s(&cfg, &d, 256);
        let long = prefill_time_s(&cfg, &d, 1024);
        assert!(long > short * 1.2, "short {short} long {long}");
        let saturated_a = prefill_time_s(&cfg, &d, 16_384);
        let saturated_b = prefill_time_s(&cfg, &d, 32_768);
        assert!(saturated_b > saturated_a * 1.9);
        assert_eq!(prefill_time_s(&cfg, &d, 0), 0.0);
    }

    #[test]
    fn decode_is_linear_in_tokens() {
        let cfg = ModelConfig::qwen3_4b();
        let d = DeviceSpec::a800();
        let ten = decode_time_s(&cfg, &d, 10);
        let hundred = decode_time_s(&cfg, &d, 100);
        assert!((hundred / ten - 10.0).abs() < 1e-9);
    }

    #[test]
    fn decode_slower_on_weaker_memory() {
        let cfg = ModelConfig::qwen3_0_6b();
        let m2 = decode_time_s(&cfg, &DeviceSpec::apple_m2(), 32);
        let a800 = decode_time_s(&cfg, &DeviceSpec::a800(), 32);
        assert!(m2 > a800 * 5.0);
    }

    #[test]
    fn spill_bytes_track_precision_and_shape() {
        let cfg = ModelConfig::qwen3_0_6b();
        let f32_bytes = spill_bytes_per_layer(&cfg, SpillPrecision::F32, 256);
        let int8_bytes = spill_bytes_per_layer(&cfg, SpillPrecision::Int8, 256);
        // ~4x compression at real hidden widths (per-row metadata is
        // amortized over >= 1024 columns).
        assert!(
            int8_bytes * 7 <= f32_bytes * 2,
            "{int8_bytes} vs {f32_bytes}"
        );
        assert!(
            spill_bytes_per_layer(&cfg, SpillPrecision::Int8, 512) > int8_bytes,
            "more rows must cost more bytes"
        );
    }

    #[test]
    fn offload_time_rewards_compression_and_overlap() {
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::apple_m2();
        let sync_f32 = offload_spill_time_s(&cfg, &d, SpillPrecision::F32, 8, 256, 28, 0.0);
        let sync_int8 = offload_spill_time_s(&cfg, &d, SpillPrecision::Int8, 8, 256, 28, 0.0);
        let overlapped = offload_spill_time_s(&cfg, &d, SpillPrecision::Int8, 8, 256, 28, 0.9);
        assert!(sync_int8 < sync_f32 / 2.0, "{sync_int8} vs {sync_f32}");
        assert!(overlapped < sync_int8 / 5.0, "{overlapped} vs {sync_int8}");
        // Perfect overlap hides everything; no spilled chunks cost nothing.
        assert_eq!(
            offload_spill_time_s(&cfg, &d, SpillPrecision::Int8, 8, 256, 28, 1.0),
            0.0
        );
        assert_eq!(
            offload_spill_time_s(&cfg, &d, SpillPrecision::F32, 0, 256, 28, 0.0),
            0.0
        );
    }

    #[test]
    fn serve_batch_cost_tracks_shape_and_regime() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let base = ServeBatchCost::new(cfg.clone(), d.clone());
        // Empty batches are free; more tokens cost more.
        assert_eq!(base.batch_time_s(0, 0), 0.0);
        assert_eq!(base.batch_micros(0, 0), 0);
        let small = base.batch_time_s(1, 64);
        let large = base.batch_time_s(8, 2048);
        assert!(large > small, "{large} vs {small}");
        assert!(base.batch_micros(1, 64) >= 1);

        // A throttled weight stream dominates tiny-model compute.
        let streamed = ServeBatchCost {
            stream_bandwidth: Some(16.0 * 1024.0 * 1024.0),
            ..base.clone()
        };
        let floor = cfg.num_layers as f64 * cfg.layer_bytes() as f64 / (16.0 * 1024.0 * 1024.0);
        assert!(streamed.batch_time_s(1, 64) >= floor);
        assert!(streamed.batch_time_s(1, 64) > base.batch_time_s(1, 64));

        // Spilling a tall batch adds unhidden I/O; overlap hides it.
        let spilled = ServeBatchCost {
            spill: Some(SpillCostParams {
                precision: SpillPrecision::Int8,
                rows_per_chunk: 256,
                overlap_efficiency: 0.0,
            }),
            ..base.clone()
        };
        assert!(spilled.batch_time_s(8, 2048) > base.batch_time_s(8, 2048));
        let overlapped = ServeBatchCost {
            spill: Some(SpillCostParams {
                precision: SpillPrecision::Int8,
                rows_per_chunk: 256,
                overlap_efficiency: 1.0,
            }),
            ..base.clone()
        };
        assert_eq!(overlapped.batch_time_s(8, 2048), base.batch_time_s(8, 2048));
        // A batch within one chunk never spills.
        assert_eq!(spilled.batch_time_s(1, 128), base.batch_time_s(1, 128));
    }

    #[test]
    fn int8_compute_shrinks_batch_time_unless_streaming_bound() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let base = ServeBatchCost::new(cfg.clone(), d.clone());
        let int8 = ServeBatchCost {
            int8_compute: true,
            ..base.clone()
        };
        // Compute-bound: the int8 kernels shave the per-layer term. The
        // fixed overheads dilute the full kernel factor, so just require
        // a strict improvement plus the exact layers-term ratio.
        let dense_s = base.batch_time_s(8, 2048);
        let int8_s = int8.batch_time_s(8, 2048);
        assert!(int8_s < dense_s, "int8 {int8_s} vs dense {dense_s}");
        let overhead = base.batch_overhead_s + 8.0 * base.request_overhead_s;
        let ratio = (dense_s - overhead) / (int8_s - overhead);
        assert!(
            (ratio - d.int8_kernel_factor).abs() < 1e-6,
            "layers-term ratio {ratio}"
        );
        // Streaming-bound: per-layer time is the stream term either way,
        // so int8 compute cannot help (the max() pipelining survives).
        let bw = Some(16.0 * 1024.0 * 1024.0);
        let streamed = ServeBatchCost {
            stream_bandwidth: bw,
            ..base.clone()
        };
        let streamed_int8 = ServeBatchCost {
            stream_bandwidth: bw,
            int8_compute: true,
            ..base
        };
        assert_eq!(
            streamed.batch_time_s(1, 64),
            streamed_int8.batch_time_s(1, 64)
        );
    }

    #[test]
    fn semcache_regime_discounts_replayed_tokens() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let base = ServeBatchCost::new(cfg, d);
        let probe = base.device.ssd_latency / 20.0;
        let cached = |hit: f64| ServeBatchCost {
            semcache: Some(SemCacheCostParams {
                hit_fraction: hit,
                probe_overhead_s: probe,
            }),
            ..base.clone()
        };
        let plain = base.batch_time_s(8, 2048);
        // Probing with no hits is pure overhead; hits claw it back and
        // higher hit fractions monotonically shorten the batch.
        let cold = cached(0.0).batch_time_s(8, 2048);
        let half = cached(0.5).batch_time_s(8, 2048);
        let hot = cached(0.9).batch_time_s(8, 2048);
        assert!(cold > plain, "cold {cold} vs plain {plain}");
        assert!((cold - plain - 8.0 * probe).abs() < 1e-12);
        assert!(hot < half && half < cold, "{hot} {half} {cold}");
        assert!(half < plain, "half-hit batch must beat no cache");
        // A full-hit batch pays only overheads and probes: the layer
        // term vanishes.
        let full = cached(1.0).batch_time_s(8, 2048);
        let overheads = base.batch_overhead_s + 8.0 * base.request_overhead_s + 8.0 * probe;
        assert!((full - overheads).abs() < 1e-12, "full-hit {full}");
        // The sharded coordinator probes before scattering, so the same
        // discount reaches the scatter-gather model.
        let sg_plain = ScatterGatherCost::new(base.clone(), 3).batch_time_s(8, 2048);
        let sg_hot = ScatterGatherCost::new(cached(0.9), 3).batch_time_s(8, 2048);
        assert!(sg_hot < sg_plain, "{sg_hot} vs {sg_plain}");
    }

    #[test]
    fn scatter_gather_parallel_shards_cut_the_forward_term() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let worker = ServeBatchCost::new(cfg, d);
        let single = worker.batch_time_s(8, 4096);
        let sharded = ScatterGatherCost {
            parallel_shards: true,
            ..ScatterGatherCost::new(worker, 4)
        };
        let t = sharded.batch_time_s(8, 4096);
        assert!(
            t < single,
            "parallel shards must shorten the batch: {t} vs {single}"
        );
        let speedup = sharded.speedup(8, 4096);
        // Bounded by the shard count (the coordinator's serial gate and
        // the utilization loss of smaller partitions eat into it).
        assert!(speedup > 1.0 && speedup <= 4.0 + 1e-9, "speedup {speedup}");
    }

    #[test]
    fn scatter_gather_colocated_is_bounded_overhead() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let worker = ServeBatchCost::new(cfg, d);
        let two = ScatterGatherCost::new(worker.clone(), 2);
        let five = ScatterGatherCost::new(worker.clone(), 5);
        let r2 = two.overhead_ratio(8, 2048);
        let r5 = five.overhead_ratio(8, 2048);
        // Colocated sharding never speeds anything up...
        assert!(r2 >= 1.0 && r5 >= 1.0, "ratios {r2} {r5}");
        // ...more shards cost more coordination...
        assert!(r5 >= r2, "{r5} vs {r2}");
        // ...but the default coordinator overheads stay a bounded tax.
        assert!(r5 < 3.0, "colocated overhead blew up: {r5}");
        // One shard is the degenerate case: only the gate term remains.
        let one = ScatterGatherCost::new(worker.clone(), 1);
        let r1 = one.overhead_ratio(8, 2048);
        assert!(r1 >= 1.0 && r1 < r2, "{r1} vs {r2}");
        // Empty batches stay free and micros still advance when real.
        assert_eq!(two.batch_time_s(0, 0), 0.0);
        assert_eq!(two.batch_micros(0, 0), 0);
        assert!(two.batch_micros(1, 64) >= 1);
    }

    #[test]
    fn scatter_gather_spill_term_follows_the_deployment() {
        let cfg = ModelConfig::test_config(prism_model::ModelArch::DecoderOnly, 12);
        let d = DeviceSpec::apple_m2();
        let worker = ServeBatchCost {
            spill: Some(SpillCostParams {
                precision: SpillPrecision::Int8,
                rows_per_chunk: 64,
                overlap_efficiency: 0.0,
            }),
            ..ServeBatchCost::new(cfg, d)
        };
        // Splitting a tall batch across parallel shards shrinks each
        // shard's spilled overhang, so the spill term drops too.
        let parallel = ScatterGatherCost {
            parallel_shards: true,
            ..ScatterGatherCost::new(worker.clone(), 4)
        };
        let colocated = ScatterGatherCost::new(worker.clone(), 4);
        assert!(parallel.batch_time_s(8, 2048) < colocated.batch_time_s(8, 2048));
        // Colocated shards each spill their own partition; the summed
        // term stays within the single worker's spill cost plus the
        // per-shard chunk that each shard keeps resident.
        assert!(colocated.batch_time_s(8, 2048) > worker.batch_time_s(8, 2048) * 0.5);
    }

    #[test]
    fn first_token_dominated_by_prefill_for_long_prompts() {
        let cfg = ModelConfig::qwen3_0_6b();
        let d = DeviceSpec::apple_m2();
        let ftl = first_token_time_s(&cfg, &d, 4096);
        let prefill = prefill_time_s(&cfg, &d, 4096);
        assert!(ftl > prefill);
        assert!(ftl < prefill * 1.2);
    }
}
