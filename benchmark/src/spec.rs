//! The four workloads: which model, which engine configuration, which
//! traffic. Everything here is fixed; only the corpora, the arrival
//! schedule and the duplicate pattern vary, and they vary with `--seed`.

use prism_core::{EngineOptions, RequestOptions, SemCacheMode};
use prism_model::ModelConfig;

/// Weights are the same on every run so that a seed changes the traffic
/// and nothing else.
pub const MODEL_SEED: u64 = 0xC0DE;

/// The throttled-storage regime the paper targets (bytes per second).
const THROTTLE: u64 = 16_000_000;

/// Untimed requests sent through the stack at the end of every set-up.
pub const WARMUP_REQUESTS: usize = 8;

/// Distinct corpora the duplicate workload draws its exact copies from.
pub const DUP_POOL: usize = 8;

/// How requests reach the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Independent users: a seeded Poisson schedule of this many
    /// requests every second, sent whether or not earlier requests have
    /// completed.
    Open { per_second: usize },
    /// Callers that each wait for their reply before sending the next.
    Closed,
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why the workload exists: the layers it isolates.
    pub why: &'static str,
    pub model: ModelConfig,
    pub engine: EngineOptions,
    pub candidates: usize,
    pub k: usize,
    /// Connections, and load threads: never more than two on two cores.
    pub clients: usize,
    pub arrival: Arrival,
    /// Three requests in four are exact copies from a pool of
    /// [`DUP_POOL`] corpora, served through the semantic cache.
    pub duplicates: bool,
}

impl WorkloadSpec {
    /// The options request `index` is sent with: the shipped defaults and
    /// a unique tag, so the per-session selection memo never answers.
    pub fn request_options(&self, index: usize) -> RequestOptions {
        let options = RequestOptions::tagged(self.k, index as u64 + 1);
        if self.duplicates {
            RequestOptions {
                pruning: Some(false),
                ..options.with_semcache(SemCacheMode::Aggressive)
            }
        } else {
            options
        }
    }
}

fn mini() -> ModelConfig {
    ModelConfig::qwen3_0_6b().mini_twin()
}

/// The mini twin widened until the integer kernels have something to
/// chew on (`perf.rs` uses the same width for the same reason).
fn wide() -> ModelConfig {
    ModelConfig {
        name: "Qwen3-Reranker-0.6B-wide".into(),
        hidden_dim: 256,
        num_heads: 8,
        ffn_dim: 512,
        num_layers: 8,
        ..mini()
    }
}

pub fn all() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "stream_open",
            why: "the paper's regime as a service: throttled weight streaming and batch coalescing own the latency, compute hides behind I/O",
            model: mini(),
            engine: EngineOptions {
                embed_cache: false,
                stream_throttle: Some(THROTTLE),
                ..Default::default()
            },
            candidates: 20,
            k: 5,
            clients: 2,
            arrival: Arrival::Open { per_second: 30 },
            duplicates: false,
        },
        WorkloadSpec {
            name: "wide_closed",
            why: "resident weights, no throttle: nothing but tensor, model and gate compute, so kernel work shows here and storage work shows nothing",
            model: wide(),
            engine: EngineOptions {
                streaming: false,
                embed_cache: false,
                ..Default::default()
            },
            candidates: 16,
            k: 4,
            clients: 1,
            arrival: Arrival::Closed,
            duplicates: false,
        },
        WorkloadSpec {
            name: "lowmem_closed",
            why: "the memory headline: streaming, embedding cache, chunking and hidden-state spill under the throttle, spill writes beside weight reads",
            model: mini(),
            engine: EngineOptions {
                hidden_offload: true,
                chunk_candidates: Some(4),
                stream_throttle: Some(THROTTLE),
                ..Default::default()
            },
            candidates: 32,
            k: 5,
            clients: 1,
            arrival: Arrival::Closed,
            duplicates: false,
        },
        WorkloadSpec {
            name: "dup_closed",
            why: "three in four requests are semantic-cache hits: wire codec, serve queue and cache probe are the median, full-depth misses plus harvest the tail",
            model: mini(),
            engine: EngineOptions {
                embed_cache: false,
                stream_throttle: Some(THROTTLE),
                ..Default::default()
            },
            candidates: 20,
            k: 5,
            clients: 2,
            arrival: Arrival::Closed,
            duplicates: true,
        },
    ]
}

pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all().into_iter().find(|w| w.name == name)
}
