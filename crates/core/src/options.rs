//! Engine configuration: the dispersion threshold, routing mode, the
//! per-technique switches behind the Fig. 16 ablation, and the number
//! format of the layer weights ([`WeightFormat`]), fixed when the engine
//! opens.

use serde::Serialize;

/// What the application needs from the top-K (Discussion §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PruneMode {
    /// Only set membership matters: accept winners early *and* drop losers
    /// (maximum latency reduction — the default for RAG-style consumers).
    TopKOnly,
    /// Exact rank order / final scores matter: drop hopeless candidates
    /// but let top contenders run the full depth.
    ExactOrder,
}

/// The number format an engine holds its transformer layers in: the
/// engine's one precision knob.
///
/// [`WeightFormat::Int8`] (default) converts every layer once, when the
/// engine opens (`LayerWeights::to_int8`: per-row symmetric i8 codes,
/// calibrated to whatever the container holds, f32 or q4). Each of the
/// seven per-layer projections then runs as a u8×i8 integer GEMM: its
/// activation block is row-quantized once for the projections that read
/// it, and the exact i32 accumulator is rescaled to f32 in one fused
/// step. Attention, normalization, residuals and scoring stay f32.
/// Scores shift within the quantization error bound; top-K membership is
/// measured in precision@K against the f32 model. A resident engine keeps
/// only the int8 layers; a streamed engine writes them to an unlinked
/// sidecar container at open and streams those sections, about 3.4x
/// fewer bytes than f32 on the mini twin.
///
/// [`WeightFormat::F32`] keeps the container's layers as stored (f32, or
/// q4 for a quantized container): the exact path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum WeightFormat {
    /// The container's own layers, computed by the f32 kernels.
    F32,
    /// Per-row i8 layers derived at open, computed by the integer GEMMs.
    #[default]
    Int8,
}

/// Whether a request uses the semantic result cache (`prism-semcache`),
/// the serving layer's cross-request cache of exact candidate scores.
///
/// The cache only ever engages on *full-depth* requests (effective
/// pruning off): a candidate's full-depth score is a pure function of
/// its token sequence and precision knobs — the batch-independence
/// contract the conformance suites pin — so replaying the score of a
/// token-identical candidate is bit-identical to recomputing it. Pruned
/// requests bypass the cache entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum SemCacheMode {
    /// Never probe or populate the cache.
    #[default]
    Off,
    /// Replay cached scores of token-identical candidates and store the
    /// scores the request computes.
    On,
}

#[allow(non_upper_case_globals)]
impl SemCacheMode {
    /// The former exact-with-verification mode, now [`SemCacheMode::On`].
    /// Frozen for `benchmark/src/{spec,inputs}.rs` until ROADMAP item
    /// 14's `[benchmark]` half.
    pub const VerifyAndFallback: SemCacheMode = SemCacheMode::On;
    /// The former near-duplicate mode, now [`SemCacheMode::On`]. Frozen
    /// for `benchmark/src/{spec,inputs}.rs` until ROADMAP item 14's
    /// `[benchmark]` half.
    pub const Aggressive: SemCacheMode = SemCacheMode::On;
}

/// Full engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineOptions {
    /// CV threshold that gates clustering (§4.1). Lower = more aggressive
    /// pruning; higher = more conservative.
    pub dispersion_threshold: f32,
    /// Routing semantics.
    pub mode: PruneMode,
    /// Master switch for progressive cluster pruning.
    pub pruning: bool,
    /// Stream layer weights from disk with double buffering (§4.2);
    /// `false` keeps all layers resident.
    pub streaming: bool,
    /// Number of in-flight stream buffers (the paper uses 2).
    pub stream_depth: usize,
    /// Execute the monolithic batch in chunks (§4.3).
    pub chunking: bool,
    /// Candidates per chunk; `None` derives it from a target token count.
    pub chunk_candidates: Option<usize>,
    /// Tokens per chunk targeted when `chunk_candidates` is `None`.
    pub chunk_target_tokens: usize,
    /// Serve embeddings from a disk-backed LRU cache (§4.4); `false`
    /// keeps the full table resident.
    pub embed_cache: bool,
    /// Cache capacity as a fraction of the vocabulary (paper: 10%).
    pub embed_cache_fraction: f64,
    /// Offload non-active chunk hidden states to a spill file (§4.3),
    /// through the overlapped background I/O pipeline: chunk *i*
    /// computes while *i+1* prefetches and *i-1* writes back.
    pub hidden_offload: bool,
    /// Maximum clusters the auto K-Means may produce.
    pub max_clusters: usize,
    /// Record per-layer score vectors in the trace (Fig. 2 probes; adds
    /// memory proportional to layers × candidates).
    pub record_score_trace: bool,
    /// Optional bandwidth cap (bytes/s) on weight streaming and spill
    /// I/O, emulating a specific SSD (tests, benches). `None` = native.
    pub stream_throttle: Option<u64>,
    /// Seed for K-Means initialization.
    pub seed: u64,
    /// The number format of the layer weights (see [`WeightFormat`]).
    pub weights: WeightFormat,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            dispersion_threshold: 0.25,
            mode: PruneMode::TopKOnly,
            pruning: true,
            streaming: true,
            stream_depth: 2,
            chunking: true,
            chunk_candidates: None,
            chunk_target_tokens: 256,
            embed_cache: true,
            embed_cache_fraction: 0.10,
            hidden_offload: false,
            max_clusters: 5,
            record_score_trace: false,
            stream_throttle: None,
            seed: 0x5EED,
            weights: WeightFormat::Int8,
        }
    }
}

impl EngineOptions {
    /// The paper's "Low" threshold setting (aggressive pruning).
    pub fn low_threshold() -> Self {
        EngineOptions {
            dispersion_threshold: 0.12,
            ..Default::default()
        }
    }

    /// The paper's "High" threshold setting (conservative pruning).
    pub fn high_threshold() -> Self {
        EngineOptions {
            dispersion_threshold: 0.45,
            ..Default::default()
        }
    }

    /// Vanilla monolithic forwarding: every optimization off (the HF-like
    /// starting point of the Fig. 16 ablation, but single-process). The
    /// weight format is not one of the paper's techniques and keeps its
    /// default.
    pub fn all_off() -> Self {
        EngineOptions {
            pruning: false,
            streaming: false,
            chunking: false,
            embed_cache: false,
            hidden_offload: false,
            ..Default::default()
        }
    }

    /// Returns a copy with one named technique enabled — used by the
    /// incremental ablation. Valid names: `"pruning"`, `"chunking"`,
    /// `"streaming"`, `"embed_cache"`, `"hidden_offload"`.
    pub fn with_technique(mut self, name: &str) -> Self {
        match name {
            "pruning" => self.pruning = true,
            "chunking" => self.chunking = true,
            "streaming" => self.streaming = true,
            "embed_cache" => self.embed_cache = true,
            "hidden_offload" => self.hidden_offload = true,
            _ => {}
        }
        self
    }

    /// Validates option consistency.
    pub fn validate(&self) -> crate::Result<()> {
        if !(0.0..=10.0).contains(&self.dispersion_threshold) {
            return Err(crate::PrismError::InvalidRequest(format!(
                "dispersion threshold {} out of range",
                self.dispersion_threshold
            )));
        }
        if self.embed_cache && !(0.0..=1.0).contains(&self.embed_cache_fraction) {
            return Err(crate::PrismError::InvalidRequest(
                "embed cache fraction must be in [0,1]".into(),
            ));
        }
        if self.stream_depth == 0 {
            return Err(crate::PrismError::InvalidRequest(
                "stream depth must be >= 1".into(),
            ));
        }
        if self.max_clusters < 2 {
            return Err(crate::PrismError::InvalidRequest(
                "max_clusters must be >= 2".into(),
            ));
        }
        if let Some(c) = self.chunk_candidates {
            if c == 0 {
                return Err(crate::PrismError::InvalidRequest(
                    "chunk size must be >= 1".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_everything_on() {
        let o = EngineOptions::default();
        o.validate().unwrap();
        assert!(o.pruning && o.streaming && o.chunking && o.embed_cache);
        assert!(!o.hidden_offload, "hidden offload is opt-in");
        assert_eq!(o.stream_depth, 2, "paper uses dual buffers");
        assert_eq!(o.weights, WeightFormat::Int8, "int8 is the weight format");
    }

    #[test]
    fn thresholds_ordered() {
        assert!(
            EngineOptions::low_threshold().dispersion_threshold
                < EngineOptions::high_threshold().dispersion_threshold
        );
    }

    #[test]
    fn ablation_composition() {
        let base = EngineOptions::all_off();
        assert!(!base.pruning && !base.streaming && !base.chunking && !base.embed_cache);
        let plus = base
            .clone()
            .with_technique("pruning")
            .with_technique("chunking");
        assert!(plus.pruning && plus.chunking && !plus.streaming);
        // Unknown technique is ignored.
        let same = base.clone().with_technique("nonsense");
        assert_eq!(same, base);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            EngineOptions {
                dispersion_threshold: -1.0,
                ..Default::default()
            },
            EngineOptions {
                embed_cache_fraction: 2.0,
                ..Default::default()
            },
            EngineOptions {
                stream_depth: 0,
                ..Default::default()
            },
            EngineOptions {
                max_clusters: 1,
                ..Default::default()
            },
            EngineOptions {
                chunk_candidates: Some(0),
                ..Default::default()
            },
        ];
        for o in bad {
            assert!(o.validate().is_err(), "{o:?} must be rejected");
        }
    }
}
