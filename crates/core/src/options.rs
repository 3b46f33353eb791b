//! Engine configuration: the dispersion threshold, routing mode and the
//! per-technique switches behind the Fig. 16 ablation.

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

/// Numeric precision of the per-layer forward computation.
///
/// [`ComputePrecision::F32`] (default) runs the f32 GEMM kernels.
/// [`ComputePrecision::Int8`] routes the seven per-layer projections
/// through the u8×i8 integer GEMM micro-kernels: each activation block is
/// row-quantized once for the projections that read it, weights are held
/// as per-row symmetric i8 (`LayerWeights::to_int8`), and the exact i32
/// accumulator is rescaled back to f32 in one fused step. Attention,
/// normalization, residuals and scoring stay f32. Scores shift within the
/// quantization error bound but top-K membership is preserved on the
/// golden corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum ComputePrecision {
    /// Full-precision forward pass (bit-identical to the historical path).
    #[default]
    F32,
    /// Integer GEMMs with per-row affine activation scales.
    Int8,
}

/// Exactness policy of the semantic result cache (`prism-semcache`),
/// the similarity-keyed cross-request cache the serving layer places
/// between its per-session memo cache and the engine.
///
/// The cache only ever engages on *full-depth* requests (effective
/// pruning off): a candidate's full-depth score is a pure function of
/// its token sequence and precision knobs — the batch-independence
/// contract the conformance suites pin — so replaying a cached score is
/// sound. Pruned requests bypass the cache entirely.
///
/// Like [`ComputePrecision`], this knob changes *what may be reused*,
/// so it participates in result-cache keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum SemCacheMode {
    /// Never probe or populate the cache (the exact path).
    #[default]
    Off,
    /// Replay only exact token-identical candidates (bit-identical to
    /// [`SemCacheMode::Off`] by construction); a sampled fraction of
    /// hits is re-scored against the exact path and a mismatch poisons
    /// the entry's LSH bucket, falling back to full compute.
    VerifyAndFallback,
    /// Additionally replay *near-duplicate* candidates whose mean-pooled
    /// embedding cosine clears the similarity threshold — approximate by
    /// design, maximum reuse.
    Aggressive,
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
    /// starting point of the Fig. 16 ablation, but single-process).
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
