//! `repro perf`: the kernel / forward-path performance trajectory.
//!
//! Times the hot compute spine — dense GEMM, quantized GEMM, one
//! transformer layer, and an end-to-end `select_top_k` on the resident
//! pruning engine — and writes the numbers to `BENCH_kernels.json` at the
//! workspace root. The first ever run becomes the frozen `baseline`
//! section; later runs refresh `current` and the per-bench `speedup`
//! ratios, so kernel regressions show up as a diff of one committed file.
//! CI runs `repro perf --fast` to refresh the artifact cheaply.

use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_api::SelectionService;
use prism_core::{
    ComputePrecision, EngineOptions, PrismEngine, RequestOptions, SemCacheMode, SpillPrecision,
};
use prism_metrics::MemoryMeter;
use prism_model::layer::{forward_layer, ForwardScratch};
use prism_model::{Model, ModelArch, ModelConfig, SequenceBatch};
use prism_serve::{
    run_closed_loop, ClassReport, LoadReport, LoadSpec, PrismServer, ServeConfig, ServeStats,
    ShardFault, ShardSet,
};
use prism_storage::Container;
use prism_tensor::{igemm, ops, rowq, QuantMatrix, Tensor};
use prism_workload::WorkloadGenerator;
use serde::Serialize;

use crate::report::Report;

/// Committed trajectory file at the workspace root.
pub const KERNELS_FILE: &str = "BENCH_kernels.json";

/// One timed benchmark.
#[derive(Debug, Clone, Serialize)]
pub struct PerfEntry {
    /// Stable benchmark name (`group/case`).
    pub name: String,
    /// Median wall time per iteration in nanoseconds.
    pub median_ns: f64,
}

/// One full measurement pass.
#[derive(Debug, Serialize)]
pub struct PerfSnapshot {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// All benchmark results of this pass.
    pub entries: Vec<PerfEntry>,
}

#[derive(Debug, Serialize)]
struct SpeedupEntry {
    name: String,
    baseline_ns: f64,
    current_ns: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct KernelsFile {
    schema: String,
    baseline: PerfSnapshot,
    current: PerfSnapshot,
    speedup: Vec<SpeedupEntry>,
    simd: SimdSection,
    offload: OffloadSection,
    serving: ServingSection,
    scheduling: SchedulingSection,
    sharded: ShardedSection,
    int8: Int8Section,
    semcache: SemCacheSection,
    resilience: ResilienceSection,
}

/// One kernel measured at the pinned AVX2 tier versus full runtime
/// dispatch (AVX-512 where the host supports it).
#[derive(Debug, Serialize)]
pub struct SimdRow {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median at the forced AVX2 tier, nanoseconds.
    pub avx2_ns: f64,
    /// Median with runtime dispatch (widest tier), nanoseconds.
    pub dispatched_ns: f64,
    /// `avx2_ns / dispatched_ns` — the dispatch tier's gain.
    pub speedup: f64,
}

/// The SIMD-tier comparison: what the AVX-512 microkernels buy over the
/// AVX2 tier on this host.
#[derive(Debug, Serialize)]
pub struct SimdSection {
    /// Widest tier the CPU supports (`"scalar"` / `"avx2"` / `"avx512"`
    /// / `"avx512vnni"`).
    pub detected_tier: String,
    /// Per-kernel tier comparison rows.
    pub rows: Vec<SimdRow>,
}

/// One offload-regime configuration's measurement.
#[derive(Debug, Serialize)]
pub struct OffloadConfigResult {
    /// `"sync_f32"` (frozen baseline) or `"pipelined_int8"`.
    pub label: String,
    /// Median `select_top_k` wall time, nanoseconds.
    pub median_ns: f64,
    /// Bytes moved through the spill file per selection.
    pub spill_bytes: u64,
    /// Fraction of spill I/O hidden behind compute.
    pub overlap_efficiency: f64,
}

/// One model scale's offload-regime comparison.
#[derive(Debug, Serialize)]
pub struct OffloadScaleResult {
    /// `"test12"` or `"paper_mini"`.
    pub scale: String,
    /// Synchronous raw-f32 spilling (the pre-pipeline engine).
    pub baseline: OffloadConfigResult,
    /// Overlapped pipeline + int8 spill format (the default engine).
    pub current: OffloadConfigResult,
    /// `baseline.median_ns / current.median_ns` — the acceptance gate
    /// (>= 3x on the emulated 16 MB/s SSD).
    pub speedup: f64,
}

/// The spill/offload acceptance measurement: `select_top_k` under
/// extreme memory pressure (hidden offload, 2-candidate chunks) on the
/// emulated 16 MB/s SSD, quantized + pipelined versus synchronous f32.
#[derive(Debug, Serialize)]
pub struct OffloadSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Emulated SSD bandwidth for spill I/O, bytes/s.
    pub throttle_bytes_per_sec: u64,
    /// Candidates per selection.
    pub candidates: usize,
    /// Candidates per chunk (fixed small so most chunks spill).
    pub chunk_candidates: usize,
    /// Top-K per selection.
    pub k: usize,
    /// Per-scale comparisons.
    pub scales: Vec<OffloadScaleResult>,
}

/// One serving configuration's closed-loop measurement.
#[derive(Debug, Serialize)]
pub struct ServingConfigResult {
    /// Configuration label.
    pub label: String,
    /// Worker threads.
    pub workers: usize,
    /// Coalescing cap (requests per batch).
    pub max_batch_requests: usize,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Mean end-to-end latency, microseconds.
    pub mean_us: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
}

/// The `prsm bench-serve` acceptance measurement: closed-loop serving
/// throughput/latency of the batched scheduler (and session-cache
/// replay) against the 1-worker/no-batching reference, on a streamed
/// engine with an emulated-SSD throttle.
#[derive(Debug, Serialize)]
pub struct ServingSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Emulated SSD bandwidth for weight streaming, bytes/s.
    pub throttle_bytes_per_sec: u64,
    /// Requests per configuration run.
    pub requests: usize,
    /// Candidates per request.
    pub candidates: usize,
    /// Top-K per request.
    pub k: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// 1 worker, 1 request per batch, no cache.
    pub serial: ServingConfigResult,
    /// 1 worker, coalescing up to 8 requests, no cache.
    pub batched: ServingConfigResult,
    /// Batched plus session cache, repeat-heavy corpus stream.
    pub cached: ServingConfigResult,
    /// `batched.throughput / serial.throughput` — the acceptance gate
    /// (>= 2x from batching amortization alone).
    pub batching_throughput_gain: f64,
    /// `cached.throughput / serial.throughput`.
    pub cached_throughput_gain: f64,
}

/// One scheduler's closed-loop result on the mixed-priority workload.
#[derive(Debug, Serialize)]
pub struct SchedulingConfigResult {
    /// `"fifo"` or `"priority_edf"`.
    pub label: String,
    /// Completed requests per second (whole mixed stream).
    pub throughput_rps: f64,
    /// Overall p99 latency, microseconds.
    pub p99_us: u64,
    /// High-priority class summary.
    pub high: Option<ClassReport>,
    /// Bulk class summary.
    pub bulk: Option<ClassReport>,
}

/// The scheduler-policy acceptance measurement: a mixed workload (10%
/// High-priority with deadlines, 90% bulk) on the emulated streaming
/// SSD, served by the pure-FIFO baseline and by priority-then-EDF under
/// identical budgets. The gate: high-priority p99 improves >= 3x at
/// equal total throughput (within 10%).
#[derive(Debug, Serialize)]
pub struct SchedulingSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Emulated SSD bandwidth for weight streaming, bytes/s.
    pub throttle_bytes_per_sec: u64,
    /// Requests per scheduler run.
    pub requests: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Fraction of the stream submitted as High priority.
    pub high_fraction: f64,
    /// Relative deadline on High requests, microseconds.
    pub high_deadline_us: u64,
    /// Coalescing cap both schedulers run under.
    pub max_batch_requests: usize,
    /// Pure-FIFO baseline.
    pub fifo: SchedulingConfigResult,
    /// Priority-then-EDF scheduler.
    pub priority: SchedulingConfigResult,
    /// `fifo.high.p99 / priority.high.p99` — the acceptance gate (>= 3x).
    pub high_p99_improvement: f64,
    /// `priority.throughput / fifo.throughput` — must stay within 10%
    /// of 1.0 (priority reorders work, it must not shed throughput).
    pub throughput_ratio: f64,
}

/// One serving configuration of the `sharded` section.
#[derive(Debug, Serialize)]
pub struct ShardedConfigResult {
    /// Configuration label.
    pub label: String,
    /// Engine shards behind the forward map (1 = unsharded).
    pub shards: usize,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// `single.throughput / this.throughput` — what colocated
    /// scatter-gather costs relative to the single resident engine.
    pub overhead_ratio: f64,
}

/// The scatter-gather acceptance measurement: closed-loop serving
/// through `PrismServer::start_sharded` (candidates partitioned across
/// resident engine shards behind the consistent-hash forward map)
/// against the single resident engine. On a one-host runner the shards
/// *serialize*, so the honest gates are exact parity (every sharded
/// selection bit-identical to the single engine) and bounded
/// coordination overhead ([`SHARDED_GUARD_MAX`]) — not speedup.
#[derive(Debug, Serialize)]
pub struct ShardedSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Requests per configuration run.
    pub requests: usize,
    /// Candidates per request.
    pub candidates: usize,
    /// Top-K per request.
    pub k: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Whether every sharded selection matched the single-engine
    /// reference bit for bit (ids, score bits, decision layers).
    pub parity: bool,
    /// Worst `overhead_ratio` across the sharded configurations (the
    /// guarded number).
    pub worst_overhead_ratio: f64,
    /// The single resident engine reference.
    pub single: ShardedConfigResult,
    /// Colocated scatter-gather runs at each measured shard count.
    pub sharded: Vec<ShardedConfigResult>,
}

/// One int8-vs-f32 compute comparison of the `int8` section.
#[derive(Debug, Serialize)]
pub struct Int8Row {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Median with f32 compute, nanoseconds.
    pub f32_ns: f64,
    /// Median with int8 compute, nanoseconds.
    pub int8_ns: f64,
    /// `f32_ns / int8_ns` — the integer kernels' gain.
    pub speedup: f64,
}

/// The int8-compute acceptance measurement: the u8×i8 GEMM and the
/// integer layer forward against their f32 twins, plus `select_top_k`
/// in the offload regime under both compute precisions. The `gemm/` and
/// `model/` rows carry the >= 2x acceptance gate (guarded at
/// [`INT8_GUARD_MIN`]); the `engine/` rows are informational — the
/// spilled window is I/O-bound on the emulated SSD, so the end-to-end
/// gain there is smaller — but both precisions must select the same
/// candidate ids ([`Int8Section::topk_parity`]).
#[derive(Debug, Serialize)]
pub struct Int8Section {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Emulated SSD bandwidth for spill I/O, bytes/s.
    pub throttle_bytes_per_sec: u64,
    /// Whether every offload-regime selection returned the same id set
    /// under both compute precisions (the golden parity gate).
    pub topk_parity: bool,
    /// Per-benchmark comparison rows.
    pub rows: Vec<Int8Row>,
}

/// The semantic result-cache acceptance measurement: a closed-loop
/// duplicate-heavy stream (cross-session repeats only the semantic tier
/// can serve — the session cache is disabled) with the cache off versus
/// `Aggressive` replay, plus the `VerifyAndFallback` parity witness: a
/// fixed tagged request set replayed through the verifying mode must
/// match the cache-off reference bit for bit (ids, score bits, decision
/// layers, last-layer scores). The throughput gain is guarded at
/// [`SEMCACHE_GUARD_MIN`].
#[derive(Debug, Serialize)]
pub struct SemCacheSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Emulated SSD bandwidth for weight streaming, bytes/s.
    pub throttle_bytes_per_sec: u64,
    /// Requests per configuration run.
    pub requests: usize,
    /// Candidates per request.
    pub candidates: usize,
    /// Top-K per request.
    pub k: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Fraction of the stream drawn from the cross-session duplicate
    /// pool.
    pub dup_fraction: f64,
    /// Whether every `VerifyAndFallback` and `Aggressive` replay of the
    /// parity set matched the cache-off reference bit for bit.
    pub verify_parity: bool,
    /// `aggressive.throughput_rps / off.throughput_rps` — the guarded
    /// number (acceptance >= 1.5x on the duplicate-heavy stream).
    pub aggressive_gain: f64,
    /// Candidate replays served by the cache during the aggressive run.
    pub semcache_hits: u64,
    /// Candidates that went through the forward pass.
    pub semcache_misses: u64,
    /// The cache-off reference run.
    pub off: ServingConfigResult,
    /// The `Aggressive` replay run.
    pub aggressive: ServingConfigResult,
}

/// Replication's fault-absorption economics, measured by driving a
/// three-shard [`ShardSet`] directly (no queueing noise): the same
/// request schedule at R=1 and R=2 while healthy (fault-free overhead),
/// with one of the three shards dead for the whole run (degraded
/// throughput, zero failures, bit parity), and with a periodic 5 ms
/// stall hedged versus waited out (tail gain at bounded extra compute).
/// Gated by [`RESILIENCE_OVERHEAD_MAX`], [`RESILIENCE_KILLED_MIN`],
/// [`RESILIENCE_HEDGE_GAIN_MIN`] and [`RESILIENCE_HEDGE_COST_MAX`].
#[derive(Debug, Serialize)]
pub struct ResilienceSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Requests per run.
    pub requests: usize,
    /// Candidates per request.
    pub candidates: usize,
    /// Top-K per request.
    pub k: usize,
    /// Engine shards behind the forward map.
    pub shards: usize,
    /// Replication factor of the resilient runs.
    pub replicas: usize,
    /// Every faulted run stayed bit-identical to the healthy R=1
    /// reference (ids, score bits, decision layers, last-layer scores).
    pub parity: bool,
    /// Healthy throughput with replication off (R=1).
    pub unreplicated_rps: f64,
    /// Healthy throughput at R=2 with the hedge armed.
    pub healthy_rps: f64,
    /// Healthy R=2 fastest-request latency over healthy R=1 —
    /// replication's fault-free code-path cost (documented <= 5%
    /// acceptance gate). The minimum isolates the path cost from
    /// scheduler noise: both runs execute identical work, so any real
    /// overhead shows up in the floor, not just the median.
    pub faultfree_overhead_ratio: f64,
    /// Throughput with one of the three shards dead the whole run.
    pub killed_rps: f64,
    /// `killed_rps / healthy_rps` (documented >= 70% acceptance gate).
    pub killed_throughput_ratio: f64,
    /// Requests that failed during the killed run (must be zero: R=2
    /// absorbs any single-shard death).
    pub killed_errors: usize,
    /// p99 with a 5 ms stall on one shard every 4th request, hedging
    /// off (the stall is waited out at every layer boundary).
    pub unhedged_p99_us: u64,
    /// p99 of the same stall schedule with a 2 ms hedge.
    pub hedged_p99_us: u64,
    /// `unhedged_p99_us / hedged_p99_us` (documented >= 2x gate).
    pub hedge_p99_gain: f64,
    /// Hedged re-sends fired during the hedged stall run.
    pub hedges_fired: u64,
    /// Extra compute the hedges cost: re-sent shard shares per request,
    /// `hedges_fired * (1/shards) / requests` (documented <= 10% gate).
    pub hedge_extra_compute: f64,
}

/// Times `f`, returning the median of `reps` samples in nanoseconds.
fn time_median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One untimed warmup iteration.
    f();
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn mat(rows: usize, cols: usize, seed: f32) -> Tensor {
    Tensor::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 7) as f32 * seed).sin() * 0.5
    })
}

fn gemm_benches(fast: bool, entries: &mut Vec<PerfEntry>) {
    let reps = if fast { 5 } else { 25 };
    // Square GEMM above the cache-blocking scale.
    let a = mat(256, 256, 0.013);
    let b = mat(256, 256, 0.017);
    entries.push(PerfEntry {
        name: "gemm/matmul_256x256x256".into(),
        median_ns: time_median_ns(reps, || {
            std::hint::black_box(ops::matmul(&a, &b).unwrap());
        }),
    });
    // Mini-scale FFN projection: 640 packed tokens, d=32 -> f=64.
    let x = mat(640, 32, 0.007);
    let w = mat(64, 32, 0.011);
    entries.push(PerfEntry {
        name: "gemm/matmul_transb_640x32x64".into(),
        median_ns: time_median_ns(reps * 4, || {
            std::hint::black_box(ops::matmul_transb(&x, &w).unwrap());
        }),
    });
    // Paper-mini projection: 1024 tokens, d=256 -> 256.
    let xl = mat(1024, 256, 0.009);
    let wl = mat(256, 256, 0.003);
    entries.push(PerfEntry {
        name: "gemm/matmul_transb_1024x256x256".into(),
        median_ns: time_median_ns(reps, || {
            std::hint::black_box(ops::matmul_transb(&xl, &wl).unwrap());
        }),
    });
    // Quantized (W4A16) variants of both transb shapes.
    let q = QuantMatrix::quantize(&w).unwrap();
    entries.push(PerfEntry {
        name: "quant/matmul_transb_640x32x64".into(),
        median_ns: time_median_ns(reps * 4, || {
            std::hint::black_box(q.matmul_transb(&x).unwrap());
        }),
    });
    let ql = QuantMatrix::quantize(&wl).unwrap();
    let xq = mat(512, 256, 0.005);
    entries.push(PerfEntry {
        name: "quant/matmul_transb_512x256x256".into(),
        median_ns: time_median_ns(reps, || {
            std::hint::black_box(ql.matmul_transb(&xq).unwrap());
        }),
    });
}

fn rowq_benches(fast: bool, entries: &mut Vec<PerfEntry>) {
    let reps = if fast { 8 } else { 40 };
    // One paper-mini spilled chunk: 128 rows (2 candidates x 64 tokens)
    // of hidden width 256.
    let rows = 128;
    let cols = 256;
    let src = mat(rows, cols, 0.019);
    let mut codes = vec![0_u8; rows * cols];
    let mut mins = vec![0.0_f32; rows];
    let mut scales = vec![0.0_f32; rows];
    entries.push(PerfEntry {
        name: format!("rowq/encode_{rows}x{cols}"),
        median_ns: time_median_ns(reps, || {
            for r in 0..rows {
                let (min, scale) = rowq::encode_row(
                    &src.data()[r * cols..(r + 1) * cols],
                    &mut codes[r * cols..(r + 1) * cols],
                )
                .unwrap();
                mins[r] = min;
                scales[r] = scale;
            }
            std::hint::black_box(&codes);
        }),
    });
    let mut back = vec![0.0_f32; rows * cols];
    entries.push(PerfEntry {
        name: format!("rowq/decode_{rows}x{cols}"),
        median_ns: time_median_ns(reps, || {
            for r in 0..rows {
                rowq::decode_row(
                    &codes[r * cols..(r + 1) * cols],
                    mins[r],
                    scales[r],
                    &mut back[r * cols..(r + 1) * cols],
                )
                .unwrap();
            }
            std::hint::black_box(&back);
        }),
    });
}

/// Measures the SIMD-tier comparison rows (AVX2-pinned vs dispatched).
fn simd_bench(fast: bool) -> SimdSection {
    let reps = if fast { 7 } else { 25 };
    let detected = ops::detected_simd_tier();
    let detected_tier = match detected {
        ops::SimdTier::Scalar => "scalar",
        ops::SimdTier::Avx2 => "avx2",
        ops::SimdTier::Avx512 => "avx512",
        ops::SimdTier::Avx512Vnni => "avx512vnni",
    }
    .to_string();
    let mut rows = Vec::new();
    let cases: [(&str, usize, usize, usize); 2] = [
        ("gemm/matmul_256x256x256", 256, 256, 256),
        ("gemm/matmul_transb_1024x256x256", 1024, 256, 256),
    ];
    for (name, m, k, n) in cases {
        let a = mat(m, k, 0.013);
        let b = mat(n, k, 0.017);
        let measure = |tier: Option<ops::SimdTier>| {
            ops::force_simd_tier(tier);
            let ns = time_median_ns(reps, || {
                std::hint::black_box(ops::matmul_transb(&a, &b).unwrap());
            });
            ops::force_simd_tier(None);
            ns
        };
        let avx2_ns = measure(Some(ops::SimdTier::Avx2));
        let dispatched_ns = measure(None);
        rows.push(SimdRow {
            name: name.to_string(),
            avx2_ns,
            dispatched_ns,
            speedup: avx2_ns / dispatched_ns,
        });
    }
    SimdSection {
        detected_tier,
        rows,
    }
}

/// Engine options for the §4.3 offload regime: weights resident (so the
/// measurement isolates spill traffic), hidden offload on with
/// 2-candidate chunks, spill I/O throttled to the emulated SSD.
fn offload_options(throttle: u64, pipelined: bool) -> EngineOptions {
    EngineOptions {
        streaming: false,
        embed_cache: false,
        hidden_offload: true,
        chunk_candidates: Some(2),
        spill_pipeline: pipelined,
        stream_throttle: Some(throttle),
        ..Default::default()
    }
}

/// Measures the offload-regime comparison for the `offload` section.
fn offload_bench(fast: bool) -> OffloadSection {
    const THROTTLE: u64 = 16_000_000; // Emulated 16 MB/s SSD.
    const CANDIDATES: usize = 16; // 8 chunks of 2 -> 5 spill slots.
    const K: usize = 5;
    let reps = if fast { 3 } else { 9 };
    let mut scales = Vec::new();
    let cases: [(&str, ModelConfig); 2] = [
        (
            "test12",
            ModelConfig::test_config(ModelArch::DecoderOnly, 12),
        ),
        ("paper_mini", ModelConfig::bge_m3().mini_twin()),
    ];
    for (tag, config) in cases {
        let model = Model::generate(config.clone(), 7).expect("model");
        let mut path = std::env::temp_dir();
        path.push(format!(
            "prism-perf-offload-{tag}-{}.prsm",
            std::process::id()
        ));
        model.write_container(&path).expect("container");
        let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
        let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
        let batch = SequenceBatch::new(&gen.request(0, CANDIDATES).sequences()).expect("batch");

        let run = |label: &str, pipelined: bool, precision: SpillPrecision| {
            let engine = PrismEngine::new(
                Container::open(&path).expect("open"),
                config.clone(),
                offload_options(THROTTLE, pipelined),
                MemoryMeter::new(),
            )
            .expect("engine");
            // A pinned tag keeps the routing stream identical across
            // reps and configurations, so both sides prune identically.
            let options = RequestOptions::tagged(K, 1).with_spill_precision(precision);
            let mut spill_bytes = 0_u64;
            let mut overlap = 0.0_f64;
            let median_ns = time_median_ns(reps, || {
                let sel = engine
                    .select_with(&batch, options.clone())
                    .expect("selection");
                spill_bytes = sel.trace.spill_bytes;
                overlap = sel.trace.spill_stats.overlap_efficiency();
            });
            OffloadConfigResult {
                label: label.to_string(),
                median_ns,
                spill_bytes,
                overlap_efficiency: overlap,
            }
        };
        let baseline = run("sync_f32", false, SpillPrecision::F32);
        let current = run("pipelined_int8", true, SpillPrecision::Int8);
        std::fs::remove_file(&path).ok();
        let speedup = baseline.median_ns / current.median_ns;
        scales.push(OffloadScaleResult {
            scale: tag.to_string(),
            baseline,
            current,
            speedup,
        });
    }
    OffloadSection {
        mode: if fast { "fast" } else { "full" }.into(),
        throttle_bytes_per_sec: THROTTLE,
        candidates: CANDIDATES,
        chunk_candidates: 2,
        k: K,
        scales,
    }
}

/// Measures the int8-compute comparison for the `int8` section: kernel
/// and layer-forward twins, then the offload-regime end-to-end run with
/// the top-k parity check.
fn int8_bench(fast: bool) -> Int8Section {
    const THROTTLE: u64 = 16_000_000; // Emulated 16 MB/s SSD.
    const CANDIDATES: usize = 16;
    const K: usize = 5;
    let mut rows = Vec::new();
    let row = |name: &str, f32_ns: f64, int8_ns: f64| Int8Row {
        name: name.to_string(),
        f32_ns,
        int8_ns,
        speedup: f32_ns / int8_ns,
    };

    // Paper-mini projection GEMM: dispatched f32 against rowq-encode +
    // u8×i8. The encode cost is charged to the int8 side — it is part
    // of the monolithic-forward path the spilled window runs.
    let reps = if fast { 5 } else { 25 };
    let xl = mat(1024, 256, 0.009);
    let wl = mat(256, 256, 0.003);
    let qw = igemm::Int8Matrix::quantize(&wl).expect("int8 weights");
    let f32_ns = time_median_ns(reps, || {
        std::hint::black_box(ops::matmul_transb(&xl, &wl).unwrap());
    });
    let mut out = Tensor::zeros(1024, 256);
    let mut block = igemm::RowQuantBlock::new();
    let int8_ns = time_median_ns(reps, || {
        block.encode_into(&xl).unwrap();
        qw.matmul_rowq_into(&block, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    rows.push(row("gemm/transb_1024x256x256", f32_ns, int8_ns));

    // One paper-shaped layer (hidden 256, ffn 512) over 20 candidates x
    // 32 tokens: the f32 scratch path against `forward_layer_int8`
    // (same scratch, same ranges) — the layer-level acceptance gate.
    // The mini twin's hidden_dim of 32 sits below the integer kernels'
    // useful width; the end-to-end `engine/` rows below cover that
    // scale.
    let config = ModelConfig {
        hidden_dim: 256,
        num_heads: 8,
        ffn_dim: 512,
        ..ModelConfig::bge_m3().mini_twin()
    };
    let weights = prism_model::LayerWeights::generate(&config, 0, 11);
    let qweights = prism_model::Int8LayerWeights::from_layer(&weights).expect("int8 layer");
    let tokens = 20 * 32;
    let base = Tensor::from_fn(tokens, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges: Vec<(usize, usize)> = (0..20).map(|i| (i * 32, (i + 1) * 32)).collect();
    let mut scratch = ForwardScratch::new(&config, tokens);
    let mut hidden = base.clone();
    let f32_ns = time_median_ns(reps, || {
        hidden.data_mut().copy_from_slice(base.data());
        prism_model::layer::forward_layer_with(
            &config,
            &weights,
            0,
            &mut hidden,
            &ranges,
            &mut scratch,
        )
        .unwrap();
    });
    let int8_ns = time_median_ns(reps, || {
        hidden.data_mut().copy_from_slice(base.data());
        prism_model::layer::forward_layer_int8(
            &config,
            &qweights,
            0,
            &mut hidden,
            &ranges,
            &mut scratch,
        )
        .unwrap();
    });
    rows.push(row("model/forward_layer_h256_640tok", f32_ns, int8_ns));

    // End-to-end `select_top_k` in the offload regime: both sides run
    // the pipelined int8 spill format; only the compute precision
    // differs. The int8 side feeds fetched blocks straight into the
    // integer GEMMs (no f32 decode round-trip).
    let mut topk_parity = true;
    let sel_reps = if fast { 3 } else { 9 };
    let cases: [(&str, ModelConfig); 2] = [
        (
            "test12",
            ModelConfig::test_config(ModelArch::DecoderOnly, 12),
        ),
        ("paper_mini", ModelConfig::bge_m3().mini_twin()),
    ];
    for (tag, config) in cases {
        let model = Model::generate(config.clone(), 7).expect("model");
        let mut path = std::env::temp_dir();
        path.push(format!("prism-perf-int8-{tag}-{}.prsm", std::process::id()));
        model.write_container(&path).expect("container");
        let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
        let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
        let batch = SequenceBatch::new(&gen.request(0, CANDIDATES).sequences()).expect("batch");
        let run = |precision: ComputePrecision| {
            let engine = PrismEngine::new(
                Container::open(&path).expect("open"),
                config.clone(),
                offload_options(THROTTLE, true),
                MemoryMeter::new(),
            )
            .expect("engine");
            let options = RequestOptions::tagged(K, 1)
                .with_spill_precision(SpillPrecision::Int8)
                .with_compute_precision(precision);
            let mut ids = Vec::new();
            let median_ns = time_median_ns(sel_reps, || {
                let sel = engine
                    .select_with(&batch, options.clone())
                    .expect("selection");
                ids = sel.top_ids();
            });
            ids.sort_unstable();
            (median_ns, ids)
        };
        let (f32_ns, f32_ids) = run(ComputePrecision::F32);
        let (int8_ns, int8_ids) = run(ComputePrecision::Int8);
        std::fs::remove_file(&path).ok();
        topk_parity &= f32_ids == int8_ids;
        rows.push(row(
            &format!("engine/select_offload_{tag}"),
            f32_ns,
            int8_ns,
        ));
    }

    Int8Section {
        mode: if fast { "fast" } else { "full" }.into(),
        throttle_bytes_per_sec: THROTTLE,
        topk_parity,
        rows,
    }
}

fn forward_layer_bench(fast: bool, entries: &mut Vec<PerfEntry>) {
    let reps = if fast { 5 } else { 25 };
    // One layer of the paper-mini twin over 20 candidates x 32 tokens.
    let config = ModelConfig::bge_m3().mini_twin();
    let weights = prism_model::LayerWeights::generate(&config, 0, 11);
    let tokens = 20 * 32;
    let base = Tensor::from_fn(tokens, config.hidden_dim, |r, c| {
        ((r * 7 + c * 3) as f32 * 0.13).sin() * 0.5
    });
    let ranges: Vec<(usize, usize)> = (0..20).map(|i| (i * 32, (i + 1) * 32)).collect();
    let mut hidden = base.clone();
    entries.push(PerfEntry {
        name: "model/forward_layer_mini_640tok".into(),
        median_ns: time_median_ns(reps, || {
            hidden.data_mut().copy_from_slice(base.data());
            forward_layer(&config, &weights, 0, &mut hidden, &ranges).unwrap();
        }),
    });
    // Same layer through a reused scratch workspace (the engine's path).
    let mut scratch = ForwardScratch::new(&config, tokens);
    entries.push(PerfEntry {
        name: "model/forward_layer_scratch_mini_640tok".into(),
        median_ns: time_median_ns(reps, || {
            hidden.data_mut().copy_from_slice(base.data());
            prism_model::layer::forward_layer_with(
                &config,
                &weights,
                0,
                &mut hidden,
                &ranges,
                &mut scratch,
            )
            .unwrap();
        }),
    });
}

/// The acceptance-gate engine configuration: all weights resident,
/// pruning on (the criterion `engine` bench's geometry).
fn resident_pruned_options() -> EngineOptions {
    EngineOptions {
        streaming: false,
        embed_cache: false,
        ..Default::default()
    }
}

fn engine_bench(config: ModelConfig, tag: &str, fast: bool, entries: &mut Vec<PerfEntry>) {
    let reps = if fast { 5 } else { 20 };
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-{tag}-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let gen = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let batch = SequenceBatch::new(&gen.request(0, 20).sequences()).expect("batch");
    let container = Container::open(&path).expect("open");
    let engine = PrismEngine::new(
        container,
        config,
        resident_pruned_options(),
        MemoryMeter::new(),
    )
    .expect("engine");
    entries.push(PerfEntry {
        name: format!("engine/select_top_k_resident_pruned_{tag}"),
        median_ns: time_median_ns(reps, || {
            std::hint::black_box(engine.select_top_k(&batch, 5).unwrap());
        }),
    });
    std::fs::remove_file(&path).ok();
}

fn serving_result(label: &str, config: &ServeConfig, report: &LoadReport) -> ServingConfigResult {
    ServingConfigResult {
        label: label.to_string(),
        workers: config.workers,
        max_batch_requests: config.max_batch_requests,
        throughput_rps: report.throughput_rps,
        mean_us: report.mean_us,
        p50_us: report.p50_us,
        p95_us: report.p95_us,
        p99_us: report.p99_us,
    }
}

/// A serving measurement pass plus the raw per-configuration reports
/// (whose stats snapshots `repro sim-validate` calibrates from).
pub(crate) struct MeasuredServing {
    pub section: ServingSection,
    pub serial: LoadReport,
    pub batched: LoadReport,
    pub cached: LoadReport,
}

fn serving_bench(fast: bool) -> ServingSection {
    serving_bench_measured(fast).section
}

/// Measures the serving configurations for the `serving` section (also
/// the measured side of `repro sim-validate`).
pub(crate) fn serving_bench_measured(fast: bool) -> MeasuredServing {
    const THROTTLE: u64 = 16_000_000; // Emulated 16 MB/s streaming SSD.
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-serve-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let engine = || {
        PrismEngine::new(
            Container::open(&path).expect("open"),
            config.clone(),
            EngineOptions {
                stream_throttle: Some(THROTTLE),
                // Serving pins the embedding table; layers still stream.
                embed_cache: false,
                ..Default::default()
            },
            MemoryMeter::new(),
        )
        .expect("engine")
    };
    let spec = LoadSpec {
        requests: if fast { 16 } else { 48 },
        clients: 8,
        candidates: 12,
        k: 4,
        ..Default::default()
    };

    let serial_config = ServeConfig::serial();
    let server = PrismServer::start(engine(), serial_config.clone()).expect("server");
    let serial_report = run_closed_loop(&server, &spec);
    server.shutdown();

    let batched_config = ServeConfig {
        workers: 1,
        max_batch_requests: 8,
        session_cache_capacity: 0,
        ..Default::default()
    };
    let server = PrismServer::start(engine(), batched_config.clone()).expect("server");
    let batched_report = run_closed_loop(&server, &spec);
    server.shutdown();

    let cached_config = ServeConfig {
        workers: 1,
        max_batch_requests: 8,
        ..Default::default()
    };
    let cached_spec = LoadSpec {
        corpus_repeat: 4,
        ..spec.clone()
    };
    let server = PrismServer::start(engine(), cached_config.clone()).expect("server");
    let cached_report = run_closed_loop(&server, &cached_spec);
    server.shutdown();
    std::fs::remove_file(&path).ok();

    let gain = |r: &LoadReport| {
        if serial_report.throughput_rps > 0.0 {
            r.throughput_rps / serial_report.throughput_rps
        } else {
            0.0
        }
    };
    let section = ServingSection {
        mode: if fast { "fast" } else { "full" }.into(),
        throttle_bytes_per_sec: THROTTLE,
        requests: spec.requests,
        candidates: spec.candidates,
        k: spec.k,
        clients: spec.clients,
        batching_throughput_gain: gain(&batched_report),
        cached_throughput_gain: gain(&cached_report),
        serial: serving_result("serial_1w_nobatch", &serial_config, &serial_report),
        batched: serving_result("batched_1w_8req", &batched_config, &batched_report),
        cached: serving_result("cached_1w_8req_repeat4", &cached_config, &cached_report),
    };
    MeasuredServing {
        section,
        serial: serial_report,
        batched: batched_report,
        cached: cached_report,
    }
}

/// A scheduling measurement pass plus the raw per-scheduler reports
/// (whose stats snapshots `repro sim-validate` calibrates from).
pub(crate) struct MeasuredScheduling {
    pub section: SchedulingSection,
    pub fifo: LoadReport,
    pub priority: LoadReport,
}

fn scheduling_bench(fast: bool) -> SchedulingSection {
    scheduling_bench_measured(fast).section
}

/// Measures the mixed-priority scheduling comparison (also the measured
/// side of `repro sim-validate`).
pub(crate) fn scheduling_bench_measured(fast: bool) -> MeasuredScheduling {
    const THROTTLE: u64 = 16_000_000; // Emulated 16 MB/s streaming SSD.
    const HIGH_DEADLINE_US: u64 = 30_000_000; // Generous: no shedding.
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-sched-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let engine = || {
        PrismEngine::new(
            Container::open(&path).expect("open"),
            config.clone(),
            EngineOptions {
                stream_throttle: Some(THROTTLE),
                embed_cache: false,
                ..Default::default()
            },
            MemoryMeter::new(),
        )
        .expect("engine")
    };
    // A small batch cap under many closed-loop clients keeps the queue
    // deep, so admission *order* (not coalescing) dominates waiting
    // time — the regime the priority scheduler targets: FIFO makes a
    // High request wait out half the queue, priority-then-EDF only the
    // in-flight batch.
    let max_batch_requests = 2;
    let spec = LoadSpec {
        requests: if fast { 42 } else { 84 },
        clients: 14,
        candidates: 12,
        k: 4,
        high_fraction: 0.1,
        high_deadline_us: Some(HIGH_DEADLINE_US),
        ..Default::default()
    };

    let mut results = Vec::new();
    let mut reports = Vec::new();
    for (label, priority_scheduling) in [("fifo", false), ("priority_edf", true)] {
        let server = PrismServer::start(
            engine(),
            ServeConfig {
                workers: 1,
                max_batch_requests,
                session_cache_capacity: 0,
                priority_scheduling,
                // On the emulated SSD a full queue takes ~100 ms to
                // drain; the starvation guard must sit above that or
                // every aged bulk request outranks High and the policy
                // degrades back to FIFO.
                starvation_age: std::time::Duration::from_secs(2),
                ..Default::default()
            },
        )
        .expect("server");
        let report = run_closed_loop(&server, &spec);
        server.shutdown();
        results.push(SchedulingConfigResult {
            label: label.into(),
            throughput_rps: report.throughput_rps,
            p99_us: report.p99_us,
            high: report.class("high").cloned(),
            bulk: report.class("bulk").cloned(),
        });
        reports.push(report);
    }
    std::fs::remove_file(&path).ok();
    let priority = results.pop().expect("priority result");
    let fifo = results.pop().expect("fifo result");
    let priority_report = reports.pop().expect("priority report");
    let fifo_report = reports.pop().expect("fifo report");

    let p99 = |r: &SchedulingConfigResult| r.high.as_ref().map_or(0, |c| c.p99_us);
    let high_p99_improvement = if p99(&priority) > 0 {
        p99(&fifo) as f64 / p99(&priority) as f64
    } else {
        0.0
    };
    let throughput_ratio = if fifo.throughput_rps > 0.0 {
        priority.throughput_rps / fifo.throughput_rps
    } else {
        0.0
    };
    let section = SchedulingSection {
        mode: if fast { "fast" } else { "full" }.into(),
        throttle_bytes_per_sec: THROTTLE,
        requests: spec.requests,
        clients: spec.clients,
        high_fraction: spec.high_fraction,
        high_deadline_us: HIGH_DEADLINE_US,
        max_batch_requests,
        fifo,
        priority,
        high_p99_improvement,
        throughput_ratio,
    };
    MeasuredScheduling {
        section,
        fifo: fifo_report,
        priority: priority_report,
    }
}

/// Measures the scatter-gather comparison for the `sharded` section:
/// the same closed-loop workload through the single resident engine and
/// through colocated 2- and 3-shard servers, with a bit-exact parity
/// probe before each throughput run.
fn sharded_bench(fast: bool) -> ShardedSection {
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-shard-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let engine = || {
        PrismEngine::new(
            Container::open(&path).expect("open"),
            config.clone(),
            resident_pruned_options(),
            MemoryMeter::new(),
        )
        .expect("engine")
    };
    let spec = LoadSpec {
        requests: if fast { 16 } else { 48 },
        clients: 4,
        candidates: 12,
        k: 4,
        ..Default::default()
    };
    let serve_config = ServeConfig {
        workers: 1,
        max_batch_requests: 8,
        session_cache_capacity: 0,
        ..Default::default()
    };
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    // Exact bit pattern of a fixed tagged request set: ids, score bits
    // and decision layers (plus the last-layer score bits), the same
    // witness the conformance suite compares.
    let parity_bits = |server: &PrismServer| -> Vec<(usize, u32, usize)> {
        let mut out = Vec::new();
        for i in 0..6_u64 {
            let request = generator.request(i, spec.candidates);
            let batch = SequenceBatch::new(&request.sequences()).expect("parity batch");
            let outcome = server
                .service(format!("parity-{i}"))
                .select(batch, RequestOptions::tagged(spec.k, i + 1))
                .expect("parity select");
            for r in &outcome.selection.ranked {
                out.push((r.id, r.score.to_bits(), r.decided_at_layer));
            }
            for &s in &outcome.selection.last_scores {
                out.push((usize::MAX, s.to_bits(), 0));
            }
        }
        out
    };

    let server = PrismServer::start(engine(), serve_config.clone()).expect("server");
    let reference = parity_bits(&server);
    let single_report = run_closed_loop(&server, &spec);
    server.shutdown();

    let mut parity = true;
    let mut sharded = Vec::new();
    for shards in [2_usize, 3] {
        let engines = (0..shards).map(|_| engine()).collect();
        let server =
            PrismServer::start_sharded(engines, serve_config.clone()).expect("sharded server");
        parity &= parity_bits(&server) == reference;
        let report = run_closed_loop(&server, &spec);
        server.shutdown();
        let overhead_ratio = if report.throughput_rps > 0.0 {
            single_report.throughput_rps / report.throughput_rps
        } else {
            // A stalled run must fail the guard, but stay serializable.
            1e9
        };
        sharded.push(ShardedConfigResult {
            label: format!("colocated_{shards}shard"),
            shards,
            throughput_rps: report.throughput_rps,
            p50_us: report.p50_us,
            p95_us: report.p95_us,
            p99_us: report.p99_us,
            overhead_ratio,
        });
    }
    std::fs::remove_file(&path).ok();

    let worst_overhead_ratio = sharded.iter().map(|r| r.overhead_ratio).fold(0.0, f64::max);
    ShardedSection {
        mode: if fast { "fast" } else { "full" }.into(),
        requests: spec.requests,
        candidates: spec.candidates,
        k: spec.k,
        clients: spec.clients,
        parity,
        worst_overhead_ratio,
        single: ShardedConfigResult {
            label: "single_engine".into(),
            shards: 1,
            throughput_rps: single_report.throughput_rps,
            p50_us: single_report.p50_us,
            p95_us: single_report.p95_us,
            p99_us: single_report.p99_us,
            overhead_ratio: 1.0,
        },
        sharded,
    }
}

fn semcache_bench(fast: bool) -> SemCacheSection {
    const THROTTLE: u64 = 16_000_000; // Emulated 16 MB/s streaming SSD.
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-semcache-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    // Replay soundness requires full depth (the cache stores full-depth
    // score vectors), so pruning is off at the engine for *both* arms —
    // the comparison isolates the cache, not the pruning gate.
    let engine = || {
        PrismEngine::new(
            Container::open(&path).expect("open"),
            config.clone(),
            EngineOptions {
                stream_throttle: Some(THROTTLE),
                embed_cache: false,
                pruning: false,
                ..Default::default()
            },
            MemoryMeter::new(),
        )
        .expect("engine")
    };
    // The session cache is disabled so every repeat the cache-off arm
    // pays full price for is served by the semantic tier alone.
    let serve_config = ServeConfig {
        workers: 1,
        max_batch_requests: 8,
        session_cache_capacity: 0,
        ..Default::default()
    };
    let spec = LoadSpec {
        requests: if fast { 32 } else { 64 },
        clients: 8,
        candidates: 12,
        k: 4,
        dup_fraction: 0.75,
        ..Default::default()
    };

    // Parity witness: the verifying mode's replays must be bit-identical
    // to the cache-off reference on the same server (first pass seeds
    // the cache, second pass replays; `Aggressive` then replays the same
    // entries through the similarity tier).
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let parity_bits = |server: &PrismServer, mode: SemCacheMode| -> Vec<(usize, u32, usize)> {
        let mut out = Vec::new();
        for i in 0..6_u64 {
            let request = generator.request(i, spec.candidates);
            let batch = SequenceBatch::new(&request.sequences()).expect("parity batch");
            let mut options = RequestOptions::tagged(spec.k, i + 1).with_semcache(mode);
            options.pruning = Some(false);
            let outcome = server
                .service(format!("parity-{mode:?}-{i}"))
                .select(batch, options)
                .expect("parity select");
            for r in &outcome.selection.ranked {
                out.push((r.id, r.score.to_bits(), r.decided_at_layer));
            }
            for &s in &outcome.selection.last_scores {
                out.push((usize::MAX, s.to_bits(), 0));
            }
        }
        out
    };
    let server = PrismServer::start(engine(), serve_config.clone()).expect("server");
    let reference = parity_bits(&server, SemCacheMode::Off);
    let mut verify_parity = parity_bits(&server, SemCacheMode::VerifyAndFallback) == reference;
    verify_parity &= parity_bits(&server, SemCacheMode::VerifyAndFallback) == reference;
    verify_parity &= parity_bits(&server, SemCacheMode::Aggressive) == reference;
    server.shutdown();

    let server = PrismServer::start(engine(), serve_config.clone()).expect("server");
    let off_report = run_closed_loop(&server, &spec);
    server.shutdown();

    let aggressive_spec = LoadSpec {
        semcache: SemCacheMode::Aggressive,
        ..spec.clone()
    };
    let server = PrismServer::start(engine(), serve_config.clone()).expect("server");
    let aggressive_report = run_closed_loop(&server, &aggressive_spec);
    server.shutdown();
    std::fs::remove_file(&path).ok();

    let aggressive_gain = if off_report.throughput_rps > 0.0 {
        aggressive_report.throughput_rps / off_report.throughput_rps
    } else {
        0.0
    };
    SemCacheSection {
        mode: if fast { "fast" } else { "full" }.into(),
        throttle_bytes_per_sec: THROTTLE,
        requests: spec.requests,
        candidates: spec.candidates,
        k: spec.k,
        clients: spec.clients,
        dup_fraction: spec.dup_fraction,
        verify_parity,
        aggressive_gain,
        semcache_hits: aggressive_report.stats.semcache_hits,
        semcache_misses: aggressive_report.stats.semcache_misses,
        off: serving_result("semcache_off", &serve_config, &off_report),
        aggressive: serving_result("semcache_aggressive", &serve_config, &aggressive_report),
    }
}

/// One direct-drive run of the resilience bench: throughput, sorted
/// latencies, failed requests, and the selection bit pattern.
struct ResilienceRun {
    rps: f64,
    lat_us: Vec<u64>,
    errors: usize,
    bits: Vec<(usize, u32, usize)>,
}

/// Measures the `resilience` section (see [`ResilienceSection`]).
fn resilience_bench(fast: bool) -> ResilienceSection {
    const SHARDS: usize = 3;
    const REPLICAS: usize = 2;
    let config = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let model = Model::generate(config.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-perf-resilience-{}.prsm", std::process::id()));
    model.write_container(&path).expect("container");
    let engines = || -> Vec<Arc<PrismEngine>> {
        (0..SHARDS)
            .map(|_| {
                Arc::new(
                    PrismEngine::new(
                        Container::open(&path).expect("open"),
                        config.clone(),
                        resident_pruned_options(),
                        MemoryMeter::new(),
                    )
                    .expect("engine"),
                )
            })
            .collect()
    };
    let requests = if fast { 24 } else { 64 };
    let candidates = 12;
    let k = 4;
    let profile = prism_workload::dataset::dataset_by_name("wikipedia").expect("profile");
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 3);
    let batches: Vec<SequenceBatch> = (0..requests as u64)
        .map(|i| {
            SequenceBatch::new(&generator.request(i % 8, candidates).sequences()).expect("batch")
        })
        .collect();

    // Drives the whole schedule through `set` with a per-request fault
    // on `victim` (injected before the request, healed after), so every
    // run sees an identical fault envelope. Identical tags across runs
    // make the bit patterns directly comparable.
    let drive = |set: &ShardSet,
                 victim: usize,
                 fault: &dyn Fn(usize) -> Option<ShardFault>|
     -> ResilienceRun {
        let mut lat_us = Vec::with_capacity(batches.len());
        let mut errors = 0;
        let mut bits = Vec::new();
        let start = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let injected = fault(i);
            if let Some(f) = injected {
                set.inject_fault(victim, f);
            }
            let t = Instant::now();
            match set.select_with(batch, RequestOptions::tagged(k, i as u64 + 1)) {
                Ok(selection) => {
                    lat_us.push(t.elapsed().as_micros() as u64);
                    for r in &selection.ranked {
                        bits.push((r.id, r.score.to_bits(), r.decided_at_layer));
                    }
                    for &s in &selection.last_scores {
                        bits.push((usize::MAX, s.to_bits(), 0));
                    }
                }
                Err(_) => errors += 1,
            }
            if injected.is_some() {
                set.inject_fault(victim, ShardFault::Healthy);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        lat_us.sort_unstable();
        ResilienceRun {
            rps: if elapsed > 0.0 {
                batches.len() as f64 / elapsed
            } else {
                0.0
            },
            lat_us,
            errors,
            bits,
        }
    };
    let quantile = |lat: &[u64], q: usize| -> u64 {
        if lat.is_empty() {
            // A run with no completions must fail the tail gates, but
            // the section has to stay serializable.
            return u64::MAX;
        }
        lat[(lat.len() - 1).min(lat.len() * q / 100)]
    };
    let healthy = &|_: usize| None;
    let stall = &|i: usize| (i % 4 == 2).then(|| ShardFault::Slow(Duration::from_millis(5)));

    // Healthy reference with replication off.
    let set_r1 = ShardSet::new(engines()).expect("r1 set");
    let r1 = drive(&set_r1, 0, healthy);
    drop(set_r1);

    // The resilient set: R=2 with a 2 ms hedge, telemetry attached.
    let stats = ServeStats::new();
    let mut set_r2 = ShardSet::new(engines())
        .expect("r2 set")
        .with_replicas(REPLICAS)
        .with_hedge(Some(Duration::from_millis(2)));
    set_r2.attach_stats(stats.clone());
    let healthy_r2 = drive(&set_r2, 0, healthy);

    // One of three shards dead for the whole run: every request re-homes
    // the dead shard's sub-batch onto its replicas at planning time.
    let killed = drive(&set_r2, 1, &|_| Some(ShardFault::Dead));

    // Periodic 5 ms stall, hedged: the stalling shard's sub-batch is
    // re-sent to the next replica as soon as the probe sees the stall.
    let before_hedges = stats.snapshot().hedges_fired;
    let hedged = drive(&set_r2, 2, stall);
    let hedges_fired = stats.snapshot().hedges_fired - before_hedges;
    drop(set_r2);

    // The same stall schedule with hedging disarmed: stalls are waited
    // out at every layer boundary the victim touches.
    let set_unhedged = ShardSet::new(engines())
        .expect("unhedged set")
        .with_replicas(REPLICAS);
    let unhedged = drive(&set_unhedged, 2, stall);
    drop(set_unhedged);
    std::fs::remove_file(&path).ok();

    let parity = healthy_r2.bits == r1.bits
        && killed.bits == r1.bits
        && hedged.bits == r1.bits
        && unhedged.bits == r1.bits;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1e9 };
    let unhedged_p99_us = quantile(&unhedged.lat_us, 99);
    let hedged_p99_us = quantile(&hedged.lat_us, 99);
    ResilienceSection {
        mode: if fast { "fast" } else { "full" }.into(),
        requests,
        candidates,
        k,
        shards: SHARDS,
        replicas: REPLICAS,
        parity,
        unreplicated_rps: r1.rps,
        healthy_rps: healthy_r2.rps,
        faultfree_overhead_ratio: ratio(
            quantile(&healthy_r2.lat_us, 0) as f64,
            quantile(&r1.lat_us, 0) as f64,
        ),
        killed_rps: killed.rps,
        killed_throughput_ratio: if healthy_r2.rps > 0.0 {
            killed.rps / healthy_r2.rps
        } else {
            0.0
        },
        killed_errors: killed.errors,
        unhedged_p99_us,
        hedged_p99_us,
        hedge_p99_gain: ratio(unhedged_p99_us as f64, hedged_p99_us as f64),
        hedges_fired,
        hedge_extra_compute: hedges_fired as f64 / (SHARDS * requests) as f64,
    }
}

/// Extracts `(name, median_ns)` pairs from one named section of a
/// previously written `BENCH_kernels.json` (the serde shim has no
/// deserializer, so this is a purpose-built scanner for our own output).
pub fn parse_section_entries(text: &str, section: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    // The section's entry list ends where the next top-level section
    // begins ("current" / "speedup" follow "baseline" in our layout).
    let tail = &text[start..];
    let end = ["\"current\"", "\"speedup\""]
        .iter()
        .filter_map(|marker| {
            let pos = tail[1..].find(marker)?;
            Some(pos + 1)
        })
        .min()
        .unwrap_or(tail.len());
    let body = &tail[..end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(npos) = rest.find("\"name\":") {
        let after = &rest[npos + 7..];
        let Some(q0) = after.find('"') else { break };
        let Some(q1) = after[q0 + 1..].find('"') else {
            break;
        };
        let name = after[q0 + 1..q0 + 1 + q1].to_string();
        let Some(mpos) = after.find("\"median_ns\":") else {
            break;
        };
        let num = after[mpos + 12..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect::<String>();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[mpos + 12..];
    }
    out
}

/// Extracts `(name, speedup)` pairs from the top-level `speedup` array
/// of a previously written `BENCH_kernels.json`.
pub fn parse_speedup_entries(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"speedup\": [") else {
        return Vec::new();
    };
    let tail = &text[start..];
    let end = tail.find(']').unwrap_or(tail.len());
    let body = &tail[..end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(npos) = rest.find("\"name\":") {
        let after = &rest[npos + 7..];
        let Some(q0) = after.find('"') else { break };
        let Some(q1) = after[q0 + 1..].find('"') else {
            break;
        };
        let name = after[q0 + 1..q0 + 1 + q1].to_string();
        let Some(spos) = after.find("\"speedup\":") else {
            break;
        };
        let num = after[spos + 10..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect::<String>();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[spos + 10..];
    }
    out
}

/// Extracts every per-scale `"speedup"` value inside the `offload`
/// section (`(scale, speedup)` pairs).
pub fn parse_offload_speedups(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"offload\":") else {
        return Vec::new();
    };
    let tail = &text[start..];
    let end = tail[1..]
        .find("\"serving\":")
        .map(|p| p + 1)
        .unwrap_or(tail.len());
    let body = &tail[..end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(spos) = rest.find("\"scale\":") {
        let after = &rest[spos + 8..];
        let Some(q0) = after.find('"') else { break };
        let Some(q1) = after[q0 + 1..].find('"') else {
            break;
        };
        let scale = after[q0 + 1..q0 + 1 + q1].to_string();
        let Some(vpos) = after.find("\"speedup\":") else {
            break;
        };
        let num = after[vpos + 10..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect::<String>();
        if let Ok(v) = num.parse::<f64>() {
            out.push((scale, v));
        }
        rest = &after[vpos + 10..];
    }
    out
}

/// Extracts `(name, speedup)` pairs from the rows of the `int8`
/// section of a previously written `BENCH_kernels.json`.
pub fn parse_int8_rows(text: &str) -> Vec<(String, f64)> {
    let Some(start) = text.find("\"int8\": {") else {
        return Vec::new();
    };
    let tail = &text[start..];
    // `int8` is the last perf-written section; only the spliced
    // `metasim` section can follow it.
    let end = tail[1..]
        .find("\"metasim\"")
        .map(|p| p + 1)
        .unwrap_or(tail.len());
    let body = &tail[..end];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(npos) = rest.find("\"name\":") {
        let after = &rest[npos + 7..];
        let Some(q0) = after.find('"') else { break };
        let Some(q1) = after[q0 + 1..].find('"') else {
            break;
        };
        let name = after[q0 + 1..q0 + 1 + q1].to_string();
        let Some(spos) = after.find("\"speedup\":") else {
            break;
        };
        let num = after[spos + 10..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect::<String>();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name, v));
        }
        rest = &after[spos + 10..];
    }
    out
}

/// Reads the `topk_parity` flag of the `int8` section, if one exists.
pub fn parse_int8_parity(text: &str) -> Option<bool> {
    let start = text.find("\"int8\": {")?;
    let pos = start + text[start..].find("\"topk_parity\":")?;
    Some(text[pos + 14..].trim_start().starts_with("true"))
}

/// Reads the `parity` flag of the `sharded` section, if one exists.
pub fn parse_sharded_parity(text: &str) -> Option<bool> {
    let start = text.find("\"sharded\": {")?;
    let pos = start + text[start..].find("\"parity\":")?;
    Some(text[pos + 9..].trim_start().starts_with("true"))
}

/// Reads the worst colocated overhead ratio of the `sharded` section.
pub fn parse_sharded_overhead(text: &str) -> Option<f64> {
    let start = text.find("\"sharded\": {")?;
    let pos = start + text[start..].find("\"worst_overhead_ratio\":")?;
    text[pos + 23..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect::<String>()
        .parse()
        .ok()
}

/// Reads the `verify_parity` flag of the `semcache` section.
pub fn parse_semcache_parity(text: &str) -> Option<bool> {
    let start = text.find("\"semcache\": {")?;
    let pos = start + text[start..].find("\"verify_parity\":")?;
    Some(text[pos + 16..].trim_start().starts_with("true"))
}

/// Reads the aggressive-replay throughput gain of the `semcache`
/// section.
pub fn parse_semcache_gain(text: &str) -> Option<f64> {
    let start = text.find("\"semcache\": {")?;
    let pos = start + text[start..].find("\"aggressive_gain\":")?;
    text[pos + 18..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect::<String>()
        .parse()
        .ok()
}

/// Reads the `parity` flag of the `resilience` section, if one exists.
pub fn parse_resilience_parity(text: &str) -> Option<bool> {
    let start = text.find("\"resilience\": {")?;
    let pos = start + text[start..].find("\"parity\":")?;
    Some(text[pos + 9..].trim_start().starts_with("true"))
}

/// Reads one numeric field of the `resilience` section by key.
pub fn parse_resilience_number(text: &str, key: &str) -> Option<f64> {
    let start = text.find("\"resilience\": {")?;
    let marker = format!("\"{key}\":");
    let pos = start + text[start..].find(&marker)?;
    text[pos + marker.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect::<String>()
        .parse()
        .ok()
}

/// Floor the offload-regime scales are held to: the documented >= 3x
/// acceptance gate minus the same 10% bench-noise allowance the kernel
/// entries get.
pub const OFFLOAD_GUARD_MIN: f64 = 2.7;

/// Floor the int8 kernel and layer-forward rows are held to: the
/// documented >= 2x acceptance gate minus the 10% noise allowance.
pub const INT8_GUARD_MIN: f64 = 1.8;

/// Ceiling the colocated scatter-gather overhead is held to: shards on
/// a one-host runner serialize, so sharding must cost bounded
/// coordination overhead, not multiples of the single-engine run.
pub const SHARDED_GUARD_MAX: f64 = 5.0;

/// Floor the semantic-cache aggressive-replay gain is held to: the
/// documented >= 1.5x acceptance gate on the duplicate-heavy stream
/// minus the 10% bench-noise allowance.
pub const SEMCACHE_GUARD_MIN: f64 = 1.35;

/// Ceiling on replication's fault-free cost: healthy R=2 fastest-request
/// latency over healthy R=1 (the documented <= 5% acceptance gate — the
/// resilient configuration must be effectively free when nothing fails).
pub const RESILIENCE_OVERHEAD_MAX: f64 = 1.05;

/// Floor on degraded throughput with one of three shards dead: the
/// documented >= 70% of healthy throughput, with zero failed requests.
pub const RESILIENCE_KILLED_MIN: f64 = 0.70;

/// Floor on the hedging tail gain: unhedged p99 over hedged p99 under
/// the periodic-stall schedule (the documented >= 2x acceptance gate).
pub const RESILIENCE_HEDGE_GAIN_MIN: f64 = 2.0;

/// Ceiling on the hedge compute premium: re-sent shard shares per
/// request (the documented <= 10% extra compute acceptance gate).
pub const RESILIENCE_HEDGE_COST_MAX: f64 = 0.10;

/// The CI bench-regression guard: reads `BENCH_kernels.json` and fails
/// when any top-level `speedup` entry sits below `min` (1.0 minus a
/// noise allowance — CI passes `0.9`), any offload-regime scale sits
/// below [`OFFLOAD_GUARD_MIN`], any int8 kernel/layer row sits below
/// [`INT8_GUARD_MIN`], or the int8 top-k parity check failed.
///
/// Returns a human-readable summary on success and the offending
/// entries on failure.
pub fn perf_guard(min: f64) -> Result<String, String> {
    let text = std::fs::read_to_string(KERNELS_FILE)
        .map_err(|e| format!("cannot read {KERNELS_FILE}: {e} (run `repro perf` first)"))?;
    let speedups = parse_speedup_entries(&text);
    let offload = parse_offload_speedups(&text);
    if speedups.is_empty() {
        return Err(format!("{KERNELS_FILE} has no speedup entries"));
    }
    if offload.is_empty() {
        return Err(format!("{KERNELS_FILE} has no offload section"));
    }
    let mut bad = Vec::new();
    for (name, v) in &speedups {
        if *v < min {
            bad.push(format!("{name}: {v:.3}x < {min:.2}x"));
        }
    }
    for (scale, v) in &offload {
        if *v < OFFLOAD_GUARD_MIN {
            bad.push(format!(
                "offload/{scale}: {v:.3}x < {OFFLOAD_GUARD_MIN:.2}x (3x acceptance gate)"
            ));
        }
    }
    let int8 = parse_int8_rows(&text);
    if int8.is_empty() {
        return Err(format!("{KERNELS_FILE} has no int8 section"));
    }
    for (name, v) in &int8 {
        // Only the kernel and layer rows carry the 2x gate; the
        // `engine/` rows are I/O-bound on the emulated SSD.
        if !name.starts_with("engine/") && *v < INT8_GUARD_MIN {
            bad.push(format!(
                "int8/{name}: {v:.3}x < {INT8_GUARD_MIN:.2}x (2x acceptance gate)"
            ));
        }
    }
    if parse_int8_parity(&text) == Some(false) {
        bad.push("int8: top-k ids diverge between f32 and int8 compute".into());
    }
    // The scatter-gather gates: sharded selections must stay
    // bit-identical to the single engine, and colocated coordination
    // overhead must stay bounded.
    match parse_sharded_parity(&text) {
        None => return Err(format!("{KERNELS_FILE} has no sharded section")),
        Some(false) => {
            bad.push("sharded: scatter-gather selections diverge from the single engine".into());
        }
        Some(true) => {}
    }
    if let Some(w) = parse_sharded_overhead(&text) {
        if w > SHARDED_GUARD_MAX {
            bad.push(format!(
                "sharded: colocated overhead {w:.3}x > {SHARDED_GUARD_MAX:.2}x ceiling"
            ));
        }
    }
    // The semantic-cache gates: verifying replays must stay
    // bit-identical to the cache-off reference, and the aggressive
    // replay gain on the duplicate-heavy stream must hold.
    match parse_semcache_parity(&text) {
        None => return Err(format!("{KERNELS_FILE} has no semcache section")),
        Some(false) => {
            bad.push("semcache: verified replays diverge from the cache-off reference".into());
        }
        Some(true) => {}
    }
    match parse_semcache_gain(&text) {
        None => return Err(format!("{KERNELS_FILE} has no semcache gain")),
        Some(g) if g < SEMCACHE_GUARD_MIN => {
            bad.push(format!(
                "semcache: aggressive gain {g:.3}x < {SEMCACHE_GUARD_MIN:.2}x \
                 (1.5x acceptance gate)"
            ));
        }
        Some(_) => {}
    }
    // The resilience gates: replication must be effectively free while
    // healthy, absorb a dead shard at bounded throughput cost with zero
    // failed requests and bit parity, and hedging must buy back the
    // stall tail at bounded extra compute.
    match parse_resilience_parity(&text) {
        None => return Err(format!("{KERNELS_FILE} has no resilience section")),
        Some(false) => {
            bad.push("resilience: faulted selections diverge from the healthy reference".into());
        }
        Some(true) => {}
    }
    match parse_resilience_number(&text, "faultfree_overhead_ratio") {
        None => return Err(format!("{KERNELS_FILE} has no resilience overhead ratio")),
        Some(v) if v > RESILIENCE_OVERHEAD_MAX => {
            bad.push(format!(
                "resilience: fault-free overhead {v:.3}x > {RESILIENCE_OVERHEAD_MAX:.2}x \
                 (5% acceptance gate)"
            ));
        }
        Some(_) => {}
    }
    match parse_resilience_number(&text, "killed_throughput_ratio") {
        None => return Err(format!("{KERNELS_FILE} has no resilience killed ratio")),
        Some(v) if v < RESILIENCE_KILLED_MIN => {
            bad.push(format!(
                "resilience: kill-one-of-three throughput {v:.3} < {RESILIENCE_KILLED_MIN:.2} \
                 of healthy (70% acceptance gate)"
            ));
        }
        Some(_) => {}
    }
    if let Some(v) = parse_resilience_number(&text, "killed_errors") {
        if v > 0.0 {
            bad.push(format!(
                "resilience: {v:.0} request(s) failed with one shard dead (must be zero)"
            ));
        }
    }
    match parse_resilience_number(&text, "hedge_p99_gain") {
        None => return Err(format!("{KERNELS_FILE} has no resilience hedge gain")),
        Some(v) if v < RESILIENCE_HEDGE_GAIN_MIN => {
            bad.push(format!(
                "resilience: hedge p99 gain {v:.3}x < {RESILIENCE_HEDGE_GAIN_MIN:.2}x \
                 (2x acceptance gate)"
            ));
        }
        Some(_) => {}
    }
    if let Some(v) = parse_resilience_number(&text, "hedge_extra_compute") {
        if v > RESILIENCE_HEDGE_COST_MAX {
            bad.push(format!(
                "resilience: hedge extra compute {v:.3} > {RESILIENCE_HEDGE_COST_MAX:.2} \
                 (10% acceptance gate)"
            ));
        }
    }
    // The metasim validation gate: when `repro sim-validate` has written
    // its section, an out-of-tolerance prediction fails the guard too.
    let metasim = super::simval::parse_metasim_validated(&text);
    if metasim == Some(false) {
        bad.push(format!(
            "metasim: sim-validate predictions out of the {:.0}% tolerance \
             (see the metasim section of {KERNELS_FILE})",
            super::simval::SIM_TOLERANCE * 100.0
        ));
    }
    if bad.is_empty() {
        Ok(format!(
            "perf guard ok: {} speedup entries >= {min:.2}x, {} offload scales >= \
             {OFFLOAD_GUARD_MIN:.2}x, {} int8 rows gated >= {INT8_GUARD_MIN:.2}x with \
             top-k parity, sharded parity with overhead <= {SHARDED_GUARD_MAX:.2}x, \
             semcache parity with gain >= {SEMCACHE_GUARD_MIN:.2}x, resilience parity with \
             failover >= {RESILIENCE_KILLED_MIN:.2} / hedge >= {RESILIENCE_HEDGE_GAIN_MIN:.2}x \
             at <= {RESILIENCE_HEDGE_COST_MAX:.2} / overhead <= {RESILIENCE_OVERHEAD_MAX:.2}x, \
             metasim {}",
            speedups.len(),
            offload.len(),
            int8.iter()
                .filter(|(n, _)| !n.starts_with("engine/"))
                .count(),
            match metasim {
                Some(true) => "validated",
                Some(false) => unreachable!("handled above"),
                None => "not yet validated (run `repro sim-validate`)",
            }
        ))
    } else {
        Err(format!(
            "perf regressions detected:\n  {}",
            bad.join("\n  ")
        ))
    }
}

/// Runs every perf bench and writes `BENCH_kernels.json` + the report.
pub fn perf(fast: bool) {
    let mut report = Report::new("perf");
    let mode = if fast { "fast" } else { "full" };
    report.line(&format!("kernel & engine perf trajectory ({mode} mode)"));
    let mut entries = Vec::new();
    gemm_benches(fast, &mut entries);
    rowq_benches(fast, &mut entries);
    forward_layer_bench(fast, &mut entries);
    engine_bench(
        ModelConfig::test_config(ModelArch::DecoderOnly, 12),
        "test12",
        fast,
        &mut entries,
    );
    engine_bench(
        ModelConfig::bge_m3().mini_twin(),
        "mini_m3",
        fast,
        &mut entries,
    );

    for e in &entries {
        report.line(&format!("{:<45} {:>12.1} us", e.name, e.median_ns / 1e3));
    }

    let simd = simd_bench(fast);
    report.blank();
    report.line(&format!("simd tiers (detected: {}):", simd.detected_tier));
    for r in &simd.rows {
        report.line(&format!(
            "{:<45} avx2 {:>9.1} us  dispatched {:>9.1} us  {:>5.2}x",
            r.name,
            r.avx2_ns / 1e3,
            r.dispatched_ns / 1e3,
            r.speedup
        ));
    }

    let offload = offload_bench(fast);
    report.blank();
    report.line("offload regime (hidden spill, emulated 16 MB/s SSD):");
    for s in &offload.scales {
        for r in [&s.baseline, &s.current] {
            report.line(&format!(
                "{:<12} {:<16} {:>10.1} ms  spill {:>9} B  overlap {:>5.2}",
                s.scale,
                r.label,
                r.median_ns / 1e6,
                r.spill_bytes,
                r.overlap_efficiency
            ));
        }
        report.line(&format!(
            "{:<12} speedup {:.2}x (acceptance >= 3x)",
            s.scale, s.speedup
        ));
    }

    let serving = serving_bench(fast);
    report.blank();
    report.line("serving (closed loop, emulated 16 MB/s streaming SSD):");
    for r in [&serving.serial, &serving.batched, &serving.cached] {
        report.line(&format!(
            "{:<28} {:>8.1} req/s  p50 {:>7} us  p95 {:>7} us  p99 {:>7} us",
            r.label, r.throughput_rps, r.p50_us, r.p95_us, r.p99_us
        ));
    }
    report.line(&format!(
        "batching gain {:.2}x, cached gain {:.2}x over serial",
        serving.batching_throughput_gain, serving.cached_throughput_gain
    ));

    let int8 = int8_bench(fast);
    report.blank();
    report.line(&format!(
        "int8 compute (offload regime, top-k parity: {}):",
        if int8.topk_parity { "yes" } else { "NO" }
    ));
    for r in &int8.rows {
        report.line(&format!(
            "{:<38} f32 {:>10.1} us  int8 {:>10.1} us  {:>5.2}x",
            r.name,
            r.f32_ns / 1e3,
            r.int8_ns / 1e3,
            r.speedup
        ));
    }

    let sharded = sharded_bench(fast);
    report.blank();
    report.line(&format!(
        "sharded scatter-gather (colocated resident shards, parity: {}):",
        if sharded.parity { "exact" } else { "DIVERGED" }
    ));
    for r in std::iter::once(&sharded.single).chain(&sharded.sharded) {
        report.line(&format!(
            "{:<22} {} shard(s) {:>8.1} req/s  p50 {:>7} us  p99 {:>7} us  overhead {:>5.2}x",
            r.label, r.shards, r.throughput_rps, r.p50_us, r.p99_us, r.overhead_ratio
        ));
    }

    let semcache = semcache_bench(fast);
    report.blank();
    report.line(&format!(
        "semantic cache ({:.0}% duplicate stream, verify parity: {}):",
        semcache.dup_fraction * 100.0,
        if semcache.verify_parity {
            "exact"
        } else {
            "DIVERGED"
        }
    ));
    for r in [&semcache.off, &semcache.aggressive] {
        report.line(&format!(
            "{:<28} {:>8.1} req/s  p50 {:>7} us  p95 {:>7} us  p99 {:>7} us",
            r.label, r.throughput_rps, r.p50_us, r.p95_us, r.p99_us
        ));
    }
    report.line(&format!(
        "aggressive replay gain {:.2}x over cache-off ({} hits / {} misses, acceptance >= 1.5x)",
        semcache.aggressive_gain, semcache.semcache_hits, semcache.semcache_misses
    ));

    let resilience = resilience_bench(fast);
    report.blank();
    report.line(&format!(
        "resilience ({} shards, R={}, parity vs healthy R=1: {}):",
        resilience.shards,
        resilience.replicas,
        if resilience.parity {
            "exact"
        } else {
            "DIVERGED"
        }
    ));
    report.line(&format!(
        "{:<22} R=1 {:>8.1} req/s  R={} {:>8.1} req/s  overhead {:>5.3}x (gate <= {:.2}x)",
        "fault-free",
        resilience.unreplicated_rps,
        resilience.replicas,
        resilience.healthy_rps,
        resilience.faultfree_overhead_ratio,
        RESILIENCE_OVERHEAD_MAX
    ));
    report.line(&format!(
        "{:<22} {:>8.1} req/s  {:.0}% of healthy, {} failed (gates >= {:.0}%, zero failed)",
        "kill one of three",
        resilience.killed_rps,
        resilience.killed_throughput_ratio * 100.0,
        resilience.killed_errors,
        RESILIENCE_KILLED_MIN * 100.0
    ));
    report.line(&format!(
        "{:<22} p99 {:>7} us hedged vs {:>7} us unhedged: {:.2}x at {:.1}% extra compute",
        "periodic 5 ms stall",
        resilience.hedged_p99_us,
        resilience.unhedged_p99_us,
        resilience.hedge_p99_gain,
        resilience.hedge_extra_compute * 100.0
    ));

    let scheduling = scheduling_bench(fast);
    report.blank();
    report.line(&format!(
        "scheduling (mixed {:.0}% high-priority, {} requests, batch cap {}):",
        scheduling.high_fraction * 100.0,
        scheduling.requests,
        scheduling.max_batch_requests
    ));
    for r in [&scheduling.fifo, &scheduling.priority] {
        let class = |c: &Option<ClassReport>| c.as_ref().map_or((0, 0), |c| (c.p50_us, c.p99_us));
        let (hp50, hp99) = class(&r.high);
        let (bp50, bp99) = class(&r.bulk);
        report.line(&format!(
            "{:<14} {:>7.1} req/s  high p50 {:>7} p99 {:>7} us  bulk p50 {:>7} p99 {:>7} us",
            r.label, r.throughput_rps, hp50, hp99, bp50, bp99
        ));
    }
    report.line(&format!(
        "high-priority p99 improvement {:.2}x at throughput ratio {:.2}",
        scheduling.high_p99_improvement, scheduling.throughput_ratio
    ));

    // Preserve the frozen baseline if one exists; otherwise this run
    // becomes the baseline (the pre-optimization seed numbers).
    let previous = std::fs::read_to_string(KERNELS_FILE).unwrap_or_default();
    let mut baseline = parse_section_entries(&previous, "baseline");
    if baseline.is_empty() {
        baseline = entries
            .iter()
            .map(|e| (e.name.clone(), e.median_ns))
            .collect();
        report.line("no existing baseline: freezing this run as baseline");
    } else {
        // Benches added after the freeze join the baseline at their
        // first measured value, so later regressions are tracked too.
        for e in &entries {
            if !baseline.iter().any(|(n, _)| *n == e.name) {
                report.line(&format!(
                    "new bench {}: freezing current as baseline",
                    e.name
                ));
                baseline.push((e.name.clone(), e.median_ns));
            }
        }
    }
    let speedup: Vec<SpeedupEntry> = entries
        .iter()
        .filter_map(|e| {
            let (_, base_ns) = baseline.iter().find(|(n, _)| *n == e.name)?;
            Some(SpeedupEntry {
                name: e.name.clone(),
                baseline_ns: *base_ns,
                current_ns: e.median_ns,
                speedup: base_ns / e.median_ns,
            })
        })
        .collect();
    report.blank();
    for s in &speedup {
        report.line(&format!("{:<45} {:>8.2}x vs baseline", s.name, s.speedup));
    }
    let file = KernelsFile {
        schema: "prism-kernel-perf-v5".into(),
        simd,
        offload,
        serving,
        scheduling,
        sharded,
        int8,
        semcache,
        resilience,
        baseline: PerfSnapshot {
            mode: "frozen".into(),
            entries: baseline
                .into_iter()
                .map(|(name, median_ns)| PerfEntry { name, median_ns })
                .collect(),
        },
        current: PerfSnapshot {
            mode: mode.into(),
            entries,
        },
        speedup,
    };
    let mut json = serde_json::to_string_pretty(&file).expect("serialize kernels file");
    // Preserve the `metasim` section written by `repro sim-validate`
    // across perf rewrites (it is refreshed by its own command).
    if let Some(metasim) = super::simval::extract_metasim(&previous) {
        json = super::simval::splice_metasim(&json, &metasim);
        report.line("preserved metasim section from previous run");
    }
    std::fs::write(KERNELS_FILE, json).expect("write BENCH_kernels.json");
    report.line(&format!("wrote {KERNELS_FILE}"));
    report.finish(&file);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_result(label: &str) -> ServingConfigResult {
        ServingConfigResult {
            label: label.into(),
            workers: 1,
            max_batch_requests: 1,
            throughput_rps: 1.0,
            mean_us: 1.0,
            p50_us: 1,
            p95_us: 1,
            p99_us: 1,
        }
    }

    fn dummy_sched(label: &str) -> SchedulingConfigResult {
        SchedulingConfigResult {
            label: label.into(),
            throughput_rps: 1.0,
            p99_us: 1,
            high: None,
            bulk: None,
        }
    }

    fn dummy_int8(parity: bool) -> Int8Section {
        let row = |name: &str, speedup: f64| Int8Row {
            name: name.into(),
            f32_ns: 1000.0 * speedup,
            int8_ns: 1000.0,
            speedup,
        };
        Int8Section {
            mode: "fast".into(),
            throttle_bytes_per_sec: 16_000_000,
            topk_parity: parity,
            rows: vec![
                row("gemm/transb_1024x256x256", 2.5),
                row("model/forward_layer_h256_640tok", 2.1),
                row("engine/select_offload_test12", 1.1),
            ],
        }
    }

    fn dummy_sharded(parity: bool, worst: f64) -> ShardedSection {
        let cfg = |label: &str, shards: usize, overhead: f64| ShardedConfigResult {
            label: label.into(),
            shards,
            throughput_rps: 10.0 / overhead,
            p50_us: 1,
            p95_us: 1,
            p99_us: 1,
            overhead_ratio: overhead,
        };
        ShardedSection {
            mode: "fast".into(),
            requests: 16,
            candidates: 12,
            k: 4,
            clients: 4,
            parity,
            worst_overhead_ratio: worst,
            single: cfg("single_engine", 1, 1.0),
            sharded: vec![
                cfg("colocated_2shard", 2, worst * 0.8),
                cfg("colocated_3shard", 3, worst),
            ],
        }
    }

    fn dummy_semcache(parity: bool, gain: f64) -> SemCacheSection {
        SemCacheSection {
            mode: "fast".into(),
            throttle_bytes_per_sec: 16_000_000,
            requests: 32,
            candidates: 12,
            k: 4,
            clients: 8,
            dup_fraction: 0.75,
            verify_parity: parity,
            aggressive_gain: gain,
            semcache_hits: 100,
            semcache_misses: 50,
            off: dummy_result("semcache_off"),
            aggressive: dummy_result("semcache_aggressive"),
        }
    }

    fn dummy_resilience(parity: bool, overhead: f64, killed: f64, gain: f64) -> ResilienceSection {
        ResilienceSection {
            mode: "fast".into(),
            requests: 24,
            candidates: 12,
            k: 4,
            shards: 3,
            replicas: 2,
            parity,
            unreplicated_rps: 10.0,
            healthy_rps: 10.0 / overhead,
            faultfree_overhead_ratio: overhead,
            killed_rps: 10.0 * killed / overhead,
            killed_throughput_ratio: killed,
            killed_errors: 0,
            unhedged_p99_us: 120_000,
            hedged_p99_us: (120_000.0 / gain) as u64,
            hedge_p99_gain: gain,
            hedges_fired: 6,
            hedge_extra_compute: 0.083,
        }
    }

    fn dummy_offload(speedup: f64) -> OffloadSection {
        let cfg = |label: &str, ns: f64| OffloadConfigResult {
            label: label.into(),
            median_ns: ns,
            spill_bytes: 100,
            overlap_efficiency: 0.5,
        };
        OffloadSection {
            mode: "fast".into(),
            throttle_bytes_per_sec: 16_000_000,
            candidates: 16,
            chunk_candidates: 2,
            k: 5,
            scales: vec![OffloadScaleResult {
                scale: "test12".into(),
                baseline: cfg("sync_f32", 9.0e6),
                current: cfg("pipelined_int8", 9.0e6 / speedup),
                speedup,
            }],
        }
    }

    #[test]
    fn speedup_and_offload_parsers_round_trip() {
        let file = KernelsFile {
            schema: "s".into(),
            baseline: PerfSnapshot {
                mode: "frozen".into(),
                entries: Vec::new(),
            },
            current: PerfSnapshot {
                mode: "fast".into(),
                entries: Vec::new(),
            },
            speedup: vec![
                SpeedupEntry {
                    name: "gemm/a".into(),
                    baseline_ns: 100.0,
                    current_ns: 25.0,
                    speedup: 4.0,
                },
                SpeedupEntry {
                    name: "rowq/b".into(),
                    baseline_ns: 100.0,
                    current_ns: 125.0,
                    speedup: 0.8,
                },
            ],
            simd: SimdSection {
                detected_tier: "avx512".into(),
                rows: vec![SimdRow {
                    name: "gemm/a".into(),
                    avx2_ns: 10.0,
                    dispatched_ns: 8.0,
                    speedup: 1.25,
                }],
            },
            offload: dummy_offload(4.5),
            serving: ServingSection {
                mode: "fast".into(),
                throttle_bytes_per_sec: 1,
                requests: 1,
                candidates: 1,
                k: 1,
                clients: 1,
                serial: dummy_result("serial"),
                batched: dummy_result("batched"),
                cached: dummy_result("cached"),
                batching_throughput_gain: 1.0,
                cached_throughput_gain: 1.0,
            },
            scheduling: SchedulingSection {
                mode: "fast".into(),
                throttle_bytes_per_sec: 1,
                requests: 1,
                clients: 1,
                high_fraction: 0.1,
                high_deadline_us: 1,
                max_batch_requests: 1,
                fifo: dummy_sched("fifo"),
                priority: dummy_sched("priority_edf"),
                high_p99_improvement: 1.0,
                throughput_ratio: 1.0,
            },
            sharded: dummy_sharded(true, 1.4),
            int8: dummy_int8(true),
            semcache: dummy_semcache(true, 1.8),
            resilience: dummy_resilience(true, 1.02, 0.91, 8.5),
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let speedups = parse_speedup_entries(&text);
        assert_eq!(
            speedups,
            vec![("gemm/a".to_string(), 4.0), ("rowq/b".to_string(), 0.8)]
        );
        let offload = parse_offload_speedups(&text);
        assert_eq!(offload, vec![("test12".to_string(), 4.5)]);
        let int8 = parse_int8_rows(&text);
        assert_eq!(
            int8,
            vec![
                ("gemm/transb_1024x256x256".to_string(), 2.5),
                ("model/forward_layer_h256_640tok".to_string(), 2.1),
                ("engine/select_offload_test12".to_string(), 1.1),
            ]
        );
        assert_eq!(parse_int8_parity(&text), Some(true));
        assert_eq!(parse_sharded_parity(&text), Some(true));
        let worst = parse_sharded_overhead(&text).unwrap();
        assert!((worst - 1.4).abs() < 1e-9, "{worst}");
        assert_eq!(parse_semcache_parity(&text), Some(true));
        let gain = parse_semcache_gain(&text).unwrap();
        assert!((gain - 1.8).abs() < 1e-9, "{gain}");
        assert_eq!(parse_resilience_parity(&text), Some(true));
        let overhead = parse_resilience_number(&text, "faultfree_overhead_ratio").unwrap();
        assert!((overhead - 1.02).abs() < 1e-9, "{overhead}");
        let killed = parse_resilience_number(&text, "killed_throughput_ratio").unwrap();
        assert!((killed - 0.91).abs() < 1e-9, "{killed}");
        assert_eq!(parse_resilience_number(&text, "killed_errors"), Some(0.0));
        let hedge = parse_resilience_number(&text, "hedge_p99_gain").unwrap();
        assert!((hedge - 8.5).abs() < 1e-9, "{hedge}");
        let cost = parse_resilience_number(&text, "hedge_extra_compute").unwrap();
        assert!((cost - 0.083).abs() < 1e-9, "{cost}");
        assert!(parse_speedup_entries("").is_empty());
        assert!(parse_offload_speedups("{}").is_empty());
        assert!(parse_int8_rows("{}").is_empty());
        assert_eq!(parse_int8_parity(""), None);
        assert_eq!(parse_sharded_parity("{}"), None);
        assert_eq!(parse_sharded_overhead(""), None);
        assert_eq!(parse_semcache_parity("{}"), None);
        assert_eq!(parse_semcache_gain(""), None);
        assert_eq!(parse_resilience_parity("{}"), None);
        assert_eq!(parse_resilience_number("", "hedge_p99_gain"), None);
    }

    #[test]
    fn resilience_parsers_round_trip_failing_values() {
        let text = serde_json::to_string_pretty(&dummy_resilience(false, 1.31, 0.42, 1.1)).unwrap();
        let wrapped = format!("{{\n  \"resilience\": {text}\n}}");
        assert_eq!(parse_resilience_parity(&wrapped), Some(false));
        let overhead = parse_resilience_number(&wrapped, "faultfree_overhead_ratio").unwrap();
        assert!(overhead > RESILIENCE_OVERHEAD_MAX, "{overhead}");
        let killed = parse_resilience_number(&wrapped, "killed_throughput_ratio").unwrap();
        assert!(killed < RESILIENCE_KILLED_MIN, "{killed}");
        let hedge = parse_resilience_number(&wrapped, "hedge_p99_gain").unwrap();
        assert!(hedge < RESILIENCE_HEDGE_GAIN_MIN, "{hedge}");
    }

    #[test]
    fn semcache_parity_flag_round_trips_false() {
        let text = serde_json::to_string_pretty(&dummy_semcache(false, 1.1)).unwrap();
        let wrapped = format!("{{\n  \"semcache\": {text}\n}}");
        assert_eq!(parse_semcache_parity(&wrapped), Some(false));
        let gain = parse_semcache_gain(&wrapped).unwrap();
        assert!(gain < SEMCACHE_GUARD_MIN, "{gain}");
    }

    #[test]
    fn sharded_parity_flag_round_trips_false() {
        let text = serde_json::to_string_pretty(&dummy_sharded(false, 7.5)).unwrap();
        let wrapped = format!("{{\n  \"sharded\": {text}\n}}");
        assert_eq!(parse_sharded_parity(&wrapped), Some(false));
        let worst = parse_sharded_overhead(&wrapped).unwrap();
        assert!(worst > SHARDED_GUARD_MAX, "{worst}");
    }

    #[test]
    fn int8_parity_flag_round_trips_false() {
        let text = serde_json::to_string_pretty(&dummy_int8(false)).unwrap();
        // The serialized section lacks the surrounding `"int8": {` key,
        // so wrap it the way the kernels file does.
        let wrapped = format!("{{\n  \"int8\": {text}\n}}");
        assert_eq!(parse_int8_parity(&wrapped), Some(false));
        assert_eq!(parse_int8_rows(&wrapped).len(), 3);
    }

    #[test]
    fn section_parser_round_trips_serializer_output() {
        let file = KernelsFile {
            schema: "s".into(),
            baseline: PerfSnapshot {
                mode: "frozen".into(),
                entries: vec![
                    PerfEntry {
                        name: "gemm/a".into(),
                        median_ns: 1500.0,
                    },
                    PerfEntry {
                        name: "engine/b".into(),
                        median_ns: 2.5e6,
                    },
                ],
            },
            current: PerfSnapshot {
                mode: "full".into(),
                entries: vec![PerfEntry {
                    name: "gemm/a".into(),
                    median_ns: 700.0,
                }],
            },
            speedup: Vec::new(),
            simd: SimdSection {
                detected_tier: "avx2".into(),
                rows: Vec::new(),
            },
            offload: dummy_offload(3.0),
            serving: ServingSection {
                mode: "fast".into(),
                throttle_bytes_per_sec: 1,
                requests: 1,
                candidates: 1,
                k: 1,
                clients: 1,
                serial: dummy_result("serial"),
                batched: dummy_result("batched"),
                cached: dummy_result("cached"),
                batching_throughput_gain: 1.0,
                cached_throughput_gain: 1.0,
            },
            scheduling: SchedulingSection {
                mode: "fast".into(),
                throttle_bytes_per_sec: 1,
                requests: 1,
                clients: 1,
                high_fraction: 0.1,
                high_deadline_us: 1,
                max_batch_requests: 1,
                fifo: dummy_sched("fifo"),
                priority: dummy_sched("priority_edf"),
                high_p99_improvement: 1.0,
                throughput_ratio: 1.0,
            },
            sharded: dummy_sharded(true, 1.4),
            int8: dummy_int8(true),
            semcache: dummy_semcache(true, 1.8),
            resilience: dummy_resilience(true, 1.02, 0.91, 8.5),
        };
        let text = serde_json::to_string_pretty(&file).unwrap();
        let base = parse_section_entries(&text, "baseline");
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].0, "gemm/a");
        assert!((base[0].1 - 1500.0).abs() < 1e-9);
        assert!((base[1].1 - 2.5e6).abs() < 1.0);
        let cur = parse_section_entries(&text, "current");
        assert_eq!(cur, vec![("gemm/a".to_string(), 700.0)]);
        assert!(parse_section_entries("", "baseline").is_empty());
    }

    #[test]
    fn median_timer_returns_positive() {
        let ns = time_median_ns(3, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ns > 0.0);
    }
}
