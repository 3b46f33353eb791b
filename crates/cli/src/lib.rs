//! `prsm`: operational tooling for PRISM deployments.
//!
//! ```text
//! prsm inspect <container.prsm>
//!     Section table of a weight container (names, kinds, sizes).
//!
//! prsm gen <out.prsm> --model <name> [--scale mini|test] [--seed N]
//!     Generate a planted-semantics model container. Model names:
//!     qwen3-0.6b qwen3-4b qwen3-8b bge-minicpm bge-m3.
//!
//! prsm quantize <in.prsm> <out.prsm> --model <name> [--scale mini|test]
//!     4-bit quantize every transformer layer of a container.
//!
//! prsm simulate --model <name> [--device rtx5070|m2|a800]
//!              [--candidates N] [--seq N] [--system hf|offload|quant|prism]
//!     Paper-scale latency/memory of one rerank request.
//!
//! prsm rerank <container.prsm> --model <name> [--scale mini|test]
//!            [--dataset wikipedia] [--candidates N] [--k N] [--threshold T]
//!     Run the PRISM engine on a synthetic request and print the top-K.
//!
//! prsm serve <container.prsm> --model <name> [--scale mini|test]
//!           [--workers N] [--batch N] [--batch-tokens N] [--wait-us N]
//!           [--cache-sessions N] [--throttle BYTES_PER_S]
//!           [--offload on|off] [--spill int8|f32] [--compute f32|int8]
//!           [--semcache off|verify|aggressive] [--dup-frac F]
//!           [--shards N] [--replicas R] [--hedge-ms N]
//!           [--on-partial fail|partial] [--tenant-quota N] [--listen ADDR]
//!           [--requests N] [--clients N] [--candidates N] [--k N]
//!           [--sessions N] [--repeat N] [--dataset wikipedia]
//!           [--starvation-ms N] [--priority high|normal|bulk] [--deadline-ms N]
//!           [--high-frac F]
//!     Start the serving front-end over a container, drive a closed-loop
//!     synthetic workload through it, and print latency percentiles plus
//!     queue/batch/cache telemetry. `--throttle` caps weight-streaming
//!     bandwidth to emulate a device SSD (default 0 = native);
//!     `--priority` sets the scheduling class of the generated load,
//!     `--deadline-ms` attaches a per-request deadline, and
//!     `--high-frac` promotes that fraction of the stream to High
//!     priority (per-class percentiles are reported). `--shards N`
//!     partitions each request's candidates across N engine shards
//!     behind the consistent-hash forward map (weights pinned resident,
//!     so `--throttle` does not apply); `--tenant-quota N` caps in-flight
//!     requests per tenant session; `--listen ADDR` additionally binds
//!     the length-prefixed TCP wire front-end on ADDR (port 0 picks a
//!     free port) and drives the same closed loop through out-of-process
//!     wire clients instead of in-process submission. `--semcache`
//!     stamps the semantic-cache mode on every generated request (any
//!     mode but `off` also pins requests to full depth, the replay
//!     soundness requirement) and `--dup-frac F` draws that fraction of
//!     the stream from a cross-session duplicate corpus pool, the
//!     overlap the semantic cache exists to exploit. `--replicas R`
//!     places every candidate on R shards (rendezvous rank order) so a
//!     dead or stalled shard fails over bit-identically; `--hedge-ms N`
//!     hedges a shard stalled longer than N ms onto its next replica
//!     (0 = off); `--on-partial partial` serves a degraded best-effort
//!     selection (coverage < 1) when every replica of a candidate is
//!     down instead of failing the request. Summaries always include
//!     the resilience counters (failovers, hedges, retries, quarantined
//!     spill slots, partial results).
//!
//! prsm connect <addr> --model <name> [--scale mini|test]
//!             [--requests N] [--clients N] [--candidates N] [--k N]
//!             [--dataset wikipedia] [--seed N]
//!             [--spill int8|f32] [--compute f32|int8]
//!             [--semcache off|verify|aggressive]
//!     Out-of-process client: connect to a running `prsm serve --listen`
//!     endpoint, ping it, drive the synthetic workload through wire
//!     clients, and print latency percentiles. `--model`/`--scale` must
//!     match the served container (they shape the generated workload).
//!
//! prsm bench-serve <container.prsm> --model <name> [--scale mini|test]
//!                 [--requests N] [--clients N] [--candidates N] [--k N]
//!                 [--batch N] [--workers N] [--repeat N]
//!                 [--throttle BYTES_PER_S] [--high-frac F]
//!                 [--deadline-ms N] [--mixed-batch N]
//!     Closed-loop load comparison: the 1-worker/no-batching reference vs
//!     the batched scheduler, reporting p50/p95/p99 and the throughput
//!     gain from cross-request coalescing, plus a mixed-priority scenario
//!     (`--high-frac`, default 10% High with deadlines) comparing the
//!     FIFO and priority-then-EDF schedulers on high-priority p99.
//!     Streaming runs against an emulated 16 MB/s SSD by default
//!     (`--throttle 0` = native disk).
//!
//! prsm simulate-serve --model <name> [--scale mini|test]
//!                    [--device rtx5070|m2|a800]
//!                    [--profile steady|diurnal|burst] [--rps F] [--events N]
//!                    [--mode trace|closed] [--seed N]
//!                    [--workers N] [--batch N] [--batch-tokens N] [--wait-us N]
//!                    [--cache-sessions N] [--starvation-ms N]
//!                    [--fixed-us F] [--per-request-us F] [--per-token-us F]
//!                    [--shards N] [--parallel-shards on|off]
//!                    [--replicas R] [--fault-per-mille N]
//!                    [--tune on]
//!     Deterministic discrete-event simulation of the serving stack: the
//!     real batch planner and session-cache model driven at virtual time,
//!     so a simulated day of traffic costs seconds. `--mode trace`
//!     (default) replays an open-loop arrival trace (`--profile`,
//!     `--rps`, `--events`); `--mode closed` drives the same closed-loop
//!     workload flags as `serve`. Service times come from the analytic
//!     `--device` cost model unless `--fixed-us`/`--per-token-us` pin a
//!     calibrated affine model (e.g. fitted by `repro sim-validate`).
//!     `--tune on` sweeps the scheduling knobs through the simulator and
//!     prints the best configuration for the device instead. `--shards N`
//!     prices batches through the analytic scatter-gather model instead
//!     (`--parallel-shards on` = one device per shard, off = colocated
//!     loopback shards on one device). `--fault-per-mille N` draws a
//!     shard fault on N of every 1000 simulated batches; with
//!     `--replicas 2+` faults cost latency (failover replays), with the
//!     default R=1 they cost requests (typed shard errors).
//! ```
//!
//! All commands return their output as a string (tested directly); the
//! binary prints it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prism_api::SelectionService;
use prism_core::{
    ComputePrecision, EngineOptions, PartialMode, Priority, PrismEngine, RequestOptions,
    SemCacheMode, SpillPrecision,
};
use prism_device::{
    simulate_hf, simulate_hf_offload, simulate_hf_quant, simulate_prism, BatchShape, DeviceSpec,
    PrismSimOptions, PruneSchedule, ScatterGatherCost, ServeBatchCost,
};
use prism_metasim::{
    simulate_closed_loop_with, tune_for_device, Calibration, ServiceModel, SimFaults, SimReport,
    Simulation,
};
use prism_metrics::{exact_quantile, MemoryMeter};
use prism_model::{Model, ModelConfig, SequenceBatch};
use prism_serve::{run_closed_loop, LoadReport, LoadSpec, PrismServer, ServeConfig};
use prism_storage::Container;
use prism_wire::{WireClient, WireServer};
use prism_workload::{dataset_by_name, trace_profile_by_name, TraceGenerator, WorkloadGenerator};

/// Runs one CLI invocation and returns its stdout payload.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("inspect") => inspect(&collect(it)),
        Some("gen") => gen(&collect(it)),
        Some("quantize") => quantize(&collect(it)),
        Some("simulate") => simulate(&collect(it)),
        Some("rerank") => rerank(&collect(it)),
        Some("serve") => serve(&collect(it)),
        Some("connect") => connect(&collect(it)),
        Some("bench-serve") => bench_serve(&collect(it)),
        Some("simulate-serve") => simulate_serve(&collect(it)),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command `{other}`; try `prsm help`")),
    }
}

fn usage() -> String {
    "usage: prsm <inspect|gen|quantize|simulate|rerank|serve|connect|bench-serve|simulate-serve|help> [args]\n\
     see `cargo doc -p prism-cli` or the crate docs for details\n"
        .to_string()
}

fn collect<'a>(it: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    it.collect()
}

/// Positional arguments and `--flag value` pairs.
struct Parsed<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

fn parse<'a>(args: &[&'a str]) -> Result<Parsed<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.push((name, *value));
            i += 2;
        } else {
            positional.push(args[i]);
            i += 1;
        }
    }
    Ok(Parsed { positional, flags })
}

impl<'a> Parsed<'a> {
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{name}")),
        }
    }
}

/// Resolves a model name plus scale into a config.
pub fn resolve_config(name: &str, scale: &str) -> Result<ModelConfig, String> {
    let paper = match name.to_ascii_lowercase().as_str() {
        "qwen3-0.6b" | "qwen3-reranker-0.6b" => ModelConfig::qwen3_0_6b(),
        "qwen3-4b" | "qwen3-reranker-4b" => ModelConfig::qwen3_4b(),
        "qwen3-8b" | "qwen3-reranker-8b" => ModelConfig::qwen3_8b(),
        "bge-minicpm" | "bge-reranker-v2-minicpm" => ModelConfig::bge_minicpm(),
        "bge-m3" | "bge-reranker-v2-m3" => ModelConfig::bge_m3(),
        other => return Err(format!("unknown model `{other}`")),
    };
    match scale {
        "paper" => Ok(paper),
        "mini" => Ok(paper.mini_twin()),
        "test" => Ok(ModelConfig::test_config(paper.arch, 6)),
        other => Err(format!("unknown scale `{other}` (paper|mini|test)")),
    }
}

fn resolve_device(name: &str) -> Result<DeviceSpec, String> {
    match name.to_ascii_lowercase().as_str() {
        "rtx5070" | "nvidia" => Ok(DeviceSpec::rtx5070_laptop()),
        "m2" | "apple" => Ok(DeviceSpec::apple_m2()),
        "a800" | "server" => Ok(DeviceSpec::a800()),
        other => Err(format!("unknown device `{other}` (rtx5070|m2|a800)")),
    }
}

fn inspect(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let path = p
        .positional
        .first()
        .ok_or("inspect needs a container path")?;
    let container = Container::open(path).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>8} {:>8} {:>12}",
        "section", "kind", "rows", "cols", "bytes"
    );
    let mut total = 0_u64;
    for s in container.sections() {
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>8} {:>8} {:>12}",
            s.name,
            format!("{:?}", s.kind),
            s.rows,
            s.cols,
            s.len
        );
        total += s.len;
    }
    let _ = writeln!(
        out,
        "total payload: {total} bytes in {} sections",
        container.sections().len()
    );
    Ok(out)
}

fn gen(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let path = p.positional.first().ok_or("gen needs an output path")?;
    let name = p.flag("model").ok_or("gen needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let seed: u64 = p.flag_parse("seed", 42)?;
    let config = resolve_config(name, scale)?;
    let model = Model::generate(config.clone(), seed).map_err(|e| e.to_string())?;
    model.write_container(path).map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote {} ({} layers, hidden {}, vocab {}) to {path}\n",
        config.name, config.num_layers, config.hidden_dim, config.vocab_size
    ))
}

fn quantize(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let [input, output] = p.positional[..] else {
        return Err("quantize needs <in.prsm> <out.prsm>".into());
    };
    let name = p.flag("model").ok_or("quantize needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let container = Container::open(input).map_err(|e| e.to_string())?;
    let model = Model::load_container(config, &container).map_err(|e| e.to_string())?;
    let quant = model.quantized().map_err(|e| e.to_string())?;
    quant.write_container(output).map_err(|e| e.to_string())?;
    let before = std::fs::metadata(input).map_err(|e| e.to_string())?.len();
    let after = std::fs::metadata(output).map_err(|e| e.to_string())?.len();
    Ok(format!(
        "quantized {input} -> {output}: {before} -> {after} bytes ({:.2}x)\n",
        before as f64 / after as f64
    ))
}

fn simulate(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let name = p.flag("model").ok_or("simulate needs --model <name>")?;
    let config = resolve_config(name, "paper")?;
    let device = resolve_device(p.flag("device").unwrap_or("rtx5070"))?;
    let candidates: usize = p.flag_parse("candidates", 20)?;
    let seq_len: usize = p.flag_parse("seq", 500)?;
    let system = p.flag("system").unwrap_or("prism");
    let shape = BatchShape {
        candidates,
        seq_len,
    };
    let outcome = match system {
        "hf" => simulate_hf(&config, &device, shape),
        "offload" => simulate_hf_offload(&config, &device, shape),
        "quant" => simulate_hf_quant(&config, &device, shape),
        "prism" => {
            // A representative mid-depth schedule (prune to 40% at 1/3
            // depth, terminate at 2/3) when no trace is supplied.
            let l = config.num_layers;
            let schedule = PruneSchedule {
                active_per_layer: (0..l)
                    .map(|i| {
                        let f = i as f64 / l as f64;
                        if f < 0.33 {
                            candidates
                        } else if f < 0.66 {
                            (candidates as f64 * 0.4).ceil() as usize
                        } else {
                            0
                        }
                    })
                    .collect(),
            };
            simulate_prism(
                &config,
                &device,
                shape,
                &schedule,
                PrismSimOptions::default(),
            )
        }
        other => return Err(format!("unknown system `{other}` (hf|offload|quant|prism)")),
    };
    Ok(format!(
        "{} | {} | {} candidates x {} tokens\nlatency: {:.3} s\npeak memory: {:.1} MiB\navg memory: {:.1} MiB\noom: {}\n",
        config.name,
        device.name,
        candidates,
        seq_len,
        outcome.latency_s,
        outcome.peak_bytes as f64 / (1 << 20) as f64,
        outcome.avg_bytes as f64 / (1 << 20) as f64,
        outcome.oom
    ))
}

fn rerank(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let path = p
        .positional
        .first()
        .ok_or("rerank needs a container path")?;
    let name = p.flag("model").ok_or("rerank needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let dataset = p.flag("dataset").unwrap_or("wikipedia");
    let candidates: usize = p.flag_parse("candidates", 20)?;
    let k: usize = p.flag_parse("k", 5)?;
    let threshold: f32 = p.flag_parse("threshold", 0.25)?;

    let profile = dataset_by_name(dataset).ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, 0xC11);
    let request = generator.request(0, candidates);
    let batch = SequenceBatch::new(&request.sequences()).map_err(|e| e.to_string())?;

    let container = Container::open(path).map_err(|e| e.to_string())?;
    let options = EngineOptions {
        dispersion_threshold: threshold,
        ..Default::default()
    };
    let engine = PrismEngine::new(container, config.clone(), options, MemoryMeter::new())
        .map_err(|e| e.to_string())?;
    let selection = engine.select_top_k(&batch, k).map_err(|e| e.to_string())?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "top-{k} of {candidates} ({dataset}, threshold {threshold}):"
    );
    for r in &selection.ranked {
        let gold = if request.relevant.contains(&r.id) {
            " [gold]"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  #{:<3} score {:.3} decided@L{}{gold}",
            r.id, r.score, r.decided_at_layer
        );
    }
    let t = &selection.trace;
    let _ = writeln!(
        out,
        "executed {}/{} layers; active per layer {:?}",
        t.executed_layers, config.num_layers, t.active_per_layer
    );
    Ok(out)
}

/// Opens a serving engine over a container path (shared by `serve` and
/// `bench-serve`). `throttle` caps streaming bandwidth in bytes/s to
/// emulate a device SSD (`0` = native speed); `offload` additionally
/// spills non-active chunk hidden states to disk (the §4.3 extreme
/// memory-pressure regime, where the per-request `--spill` precision
/// becomes observable).
fn serving_engine(
    path: &str,
    config: &ModelConfig,
    throttle: u64,
    offload: bool,
) -> Result<PrismEngine, String> {
    let container = Container::open(path).map_err(|e| e.to_string())?;
    let options = EngineOptions {
        stream_throttle: (throttle > 0).then_some(throttle),
        // A serving deployment pins the embedding table in memory (the
        // §4.4 disk-backed cache targets one-shot on-device flows);
        // layer weights still stream per batch.
        embed_cache: false,
        hidden_offload: offload,
        ..Default::default()
    };
    PrismEngine::new(container, config.clone(), options, MemoryMeter::new())
        .map_err(|e| e.to_string())
}

fn resolve_priority(name: &str) -> Result<Priority, String> {
    match name.to_ascii_lowercase().as_str() {
        "high" => Ok(Priority::High),
        "normal" => Ok(Priority::Normal),
        "bulk" | "low" => Ok(Priority::Bulk),
        other => Err(format!("unknown priority `{other}` (high|normal|bulk)")),
    }
}

fn resolve_spill(name: &str) -> Result<SpillPrecision, String> {
    match name.to_ascii_lowercase().as_str() {
        "int8" => Ok(SpillPrecision::Int8),
        "f32" => Ok(SpillPrecision::F32),
        other => Err(format!("unknown spill precision `{other}` (int8|f32)")),
    }
}

fn resolve_compute(name: &str) -> Result<ComputePrecision, String> {
    match name.to_ascii_lowercase().as_str() {
        "int8" => Ok(ComputePrecision::Int8),
        "f32" => Ok(ComputePrecision::F32),
        other => Err(format!("unknown compute precision `{other}` (f32|int8)")),
    }
}

fn resolve_semcache(name: &str) -> Result<SemCacheMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "off" => Ok(SemCacheMode::Off),
        "verify" => Ok(SemCacheMode::VerifyAndFallback),
        "aggressive" => Ok(SemCacheMode::Aggressive),
        other => Err(format!(
            "unknown semcache mode `{other}` (off|verify|aggressive)"
        )),
    }
}

fn resolve_partial(name: &str) -> Result<PartialMode, String> {
    match name.to_ascii_lowercase().as_str() {
        "fail" => Ok(PartialMode::Fail),
        "partial" => Ok(PartialMode::Partial),
        other => Err(format!("unknown partial mode `{other}` (fail|partial)")),
    }
}

/// Parses an `--NAME on|off` switch (absent = off).
fn resolve_switch(p: &Parsed<'_>, name: &str) -> Result<bool, String> {
    match p.flag(name) {
        None => Ok(false),
        Some(v) => match v.to_ascii_lowercase().as_str() {
            "on" | "true" | "1" => Ok(true),
            "off" | "false" | "0" => Ok(false),
            other => Err(format!("--{name} takes on|off, got `{other}`")),
        },
    }
}

fn load_spec_from(p: &Parsed<'_>) -> Result<LoadSpec, String> {
    let defaults = LoadSpec::default();
    let dataset = p.flag("dataset").unwrap_or("wikipedia");
    dataset_by_name(dataset).ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
    let priority = resolve_priority(p.flag("priority").unwrap_or("normal"))?;
    // `--deadline-ms` puts a deadline on every generated request;
    // `--high-frac` additionally promotes that fraction of the stream to
    // High priority (spread evenly).
    let deadline_ms: u64 = p.flag_parse("deadline-ms", 0)?;
    let deadline_us = (deadline_ms > 0).then_some(deadline_ms * 1_000);
    Ok(LoadSpec {
        requests: p.flag_parse("requests", defaults.requests)?,
        clients: p.flag_parse("clients", defaults.clients)?,
        candidates: p.flag_parse("candidates", defaults.candidates)?,
        k: p.flag_parse("k", defaults.k)?,
        dataset: dataset.to_string(),
        seed: p.flag_parse("seed", defaults.seed)?,
        sessions: p.flag_parse("sessions", defaults.sessions)?,
        corpus_repeat: p.flag_parse("repeat", defaults.corpus_repeat)?,
        priority,
        high_fraction: p.flag_parse("high-frac", 0.0_f64)?,
        high_deadline_us: deadline_us,
        deadline_us,
        spill_precision: resolve_spill(p.flag("spill").unwrap_or("int8"))?,
        compute_precision: resolve_compute(p.flag("compute").unwrap_or("f32"))?,
        semcache: resolve_semcache(p.flag("semcache").unwrap_or("off"))?,
        dup_fraction: p.flag_parse("dup-frac", 0.0_f64)?,
        on_partial: resolve_partial(p.flag("on-partial").unwrap_or("fail"))?,
    })
}

fn write_load_report(out: &mut String, report: &LoadReport) {
    let _ = writeln!(
        out,
        "completed {} requests in {:.3} s -> {:.1} req/s ({} errors, {} backpressure retries)",
        report.completed,
        report.elapsed_s,
        report.throughput_rps,
        report.errors,
        report.backpressure_retries
    );
    let _ = writeln!(
        out,
        "latency us: p50 {}  p95 {}  p99 {}  max {}  mean {:.0}",
        report.p50_us, report.p95_us, report.p99_us, report.max_us, report.mean_us
    );
    let s = &report.stats;
    let _ = writeln!(
        out,
        "queue depth peak {}; {} batches (mean {:.2} requests / {:.0} tokens)",
        s.queue_depth_peak, s.batches, s.batch_size.mean, s.batch_tokens.mean
    );
    let _ = writeln!(
        out,
        "session cache: {} selection hits, {} embed hits, {} misses (hit rate {:.1}%)",
        s.cache_selection_hits,
        s.cache_embed_hits,
        s.cache_misses,
        s.cache_hit_rate * 100.0
    );
    if s.semcache_hits + s.semcache_misses + s.semcache_fallbacks > 0 {
        let probed = s.semcache_hits + s.semcache_misses;
        let _ = writeln!(
            out,
            "semantic cache: {} hits, {} misses, {} fallbacks, {} bytes (hit rate {:.1}%)",
            s.semcache_hits,
            s.semcache_misses,
            s.semcache_fallbacks,
            s.semcache_bytes,
            if probed > 0 {
                s.semcache_hits as f64 / probed as f64 * 100.0
            } else {
                0.0
            }
        );
    }
    if s.cancelled + s.deadline_rejected + s.deadline_missed + s.priority_inversions > 0 {
        let _ = writeln!(
            out,
            "lifecycle: {} cancelled, {} deadline-rejected, {} deadline-missed, {} priority inversions",
            s.cancelled, s.deadline_rejected, s.deadline_missed, s.priority_inversions
        );
    }
    write_resilience_summary(out, s);
    for c in &report.classes {
        let _ = writeln!(
            out,
            "  class {:<6} {:>4} ok / {:>3} err  p50 {:>7} us  p95 {:>7} us  p99 {:>7} us",
            c.label, c.completed, c.errors, c.p50_us, c.p95_us, c.p99_us
        );
    }
}

/// The resilience-layer counters every serve summary surfaces:
/// failovers and hedges from the replicated scatter path, client-side
/// backpressure retries, quarantined spill slots, and degraded partial
/// results.
fn write_resilience_summary(out: &mut String, s: &prism_serve::ServeStatsSnapshot) {
    let _ = writeln!(
        out,
        "resilience: {} failovers, {} hedges fired / {} won, {} retried, \
         {} slots quarantined, {} partial results",
        s.failovers,
        s.hedges_fired,
        s.hedges_won,
        s.retried,
        s.slots_quarantined,
        s.partial_results
    );
}

/// Builds a `ServeConfig` from the shared scheduling flags (`serve` and
/// `simulate-serve` accept the same knobs).
fn serve_config_from(p: &Parsed<'_>) -> Result<ServeConfig, String> {
    let serve_defaults = ServeConfig::default();
    let max_batch_wait = std::time::Duration::from_micros(
        p.flag_parse("wait-us", serve_defaults.max_batch_wait.as_micros() as u64)?,
    );
    // The starvation bound must sit at or above the batch wait
    // (`ServeConfig::validate`); follow a raised `--wait-us` unless
    // `--starvation-ms` pins it explicitly.
    let starvation_age = match p.flag("starvation-ms") {
        Some(_) => std::time::Duration::from_millis(p.flag_parse("starvation-ms", 0_u64)?),
        None => serve_defaults.starvation_age.max(max_batch_wait),
    };
    Ok(ServeConfig {
        workers: p.flag_parse("workers", serve_defaults.workers)?,
        max_batch_requests: p.flag_parse("batch", serve_defaults.max_batch_requests)?,
        max_batch_tokens: p.flag_parse("batch-tokens", serve_defaults.max_batch_tokens)?,
        max_batch_wait,
        session_cache_capacity: p
            .flag_parse("cache-sessions", serve_defaults.session_cache_capacity)?,
        starvation_age,
        tenant_max_inflight: p.flag_parse("tenant-quota", serve_defaults.tenant_max_inflight)?,
        replicas: p.flag_parse("replicas", serve_defaults.replicas)?,
        // `--hedge-ms 0` (or absent) disables hedging rather than
        // configuring a zero delay, which `validate` rejects.
        hedge: match p.flag_parse("hedge-ms", 0_u64)? {
            0 => serve_defaults.hedge,
            ms => Some(std::time::Duration::from_millis(ms)),
        },
        ..serve_defaults
    })
}

/// Opens one *resident* engine per shard over the same container.
/// Sharded serving pins layer weights in memory (`ShardSet` rejects
/// streaming engines), so the `--throttle` SSD emulation does not apply.
fn sharded_engines(
    path: &str,
    config: &ModelConfig,
    shards: usize,
    offload: bool,
) -> Result<Vec<PrismEngine>, String> {
    (0..shards)
        .map(|_| {
            let container = Container::open(path).map_err(|e| e.to_string())?;
            let options = EngineOptions {
                streaming: false,
                embed_cache: false,
                hidden_offload: offload,
                ..Default::default()
            };
            PrismEngine::new(container, config.clone(), options, MemoryMeter::new())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Drives the closed-loop workload through out-of-process [`WireClient`]
/// connections, so measured latencies include frame encode/decode and
/// the socket hop. Returns `(sorted latencies us, errors, ping RTT)`.
fn run_wire_loop(
    addr: &str,
    config: &ModelConfig,
    spec: &LoadSpec,
) -> Result<(Vec<u64>, usize, Duration), String> {
    let profile = dataset_by_name(&spec.dataset)
        .ok_or_else(|| format!("unknown dataset `{}`", spec.dataset))?;
    let generator = WorkloadGenerator::new(profile, config.vocab_size, config.max_seq, spec.seed);
    let clients = spec.clients.max(1).min(spec.requests.max(1));

    // Probe connection first: a typed handshake/ping failure beats N
    // client threads all reporting the same refused connect.
    let probe =
        WireClient::connect(addr, "wire-probe").map_err(|e| format!("connect {addr}: {e}"))?;
    let rtt = probe
        .ping(Duration::from_secs(10))
        .map_err(|e| format!("ping {addr}: {e}"))?;
    drop(probe);

    let mut latencies: Vec<u64> = Vec::with_capacity(spec.requests);
    let mut errors = 0_usize;
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(clients);
        for c in 0..clients {
            let generator = &generator;
            handles.push(scope.spawn(move || -> Result<(Vec<u64>, usize), String> {
                let client = WireClient::connect(addr, format!("wire-{c}"))
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                let mut lat = Vec::new();
                let mut errs = 0_usize;
                let mut i = c;
                while i < spec.requests {
                    let request = generator.request(i as u64, spec.candidates);
                    let batch =
                        SequenceBatch::new(&request.sequences()).map_err(|e| e.to_string())?;
                    // Tag by request index so results are independent of
                    // arrival interleaving (same rule as the in-process
                    // loop).
                    let mut options = RequestOptions::tagged(spec.k, i as u64 + 1)
                        .with_spill_precision(spec.spill_precision)
                        .with_compute_precision(spec.compute_precision)
                        .with_semcache(spec.semcache)
                        .with_on_partial(spec.on_partial);
                    if spec.semcache != SemCacheMode::Off {
                        // Same rule as the in-process loop: semantic
                        // replay is only sound at full depth.
                        options.pruning = Some(false);
                    }
                    let t0 = Instant::now();
                    match client.submit(batch, options).map(|h| h.wait()) {
                        Ok(Ok(_)) => lat.push(t0.elapsed().as_micros() as u64),
                        _ => errs += 1,
                    }
                    i += clients;
                }
                Ok((lat, errs))
            }));
        }
        for h in handles {
            let (lat, errs) = h.join().expect("wire client thread panicked")?;
            latencies.extend(lat);
            errors += errs;
        }
        Ok(())
    })?;
    latencies.sort_unstable();
    Ok((latencies, errors, rtt))
}

fn write_wire_summary(
    out: &mut String,
    latencies: &[u64],
    errors: usize,
    rtt: Duration,
    elapsed_s: f64,
) {
    let completed = latencies.len();
    let mean_us = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    let _ = writeln!(out, "ping RTT {} us", rtt.as_micros());
    let _ = writeln!(
        out,
        "completed {completed} requests in {elapsed_s:.3} s -> {:.1} req/s ({errors} errors)",
        if elapsed_s > 0.0 {
            completed as f64 / elapsed_s
        } else {
            0.0
        }
    );
    let _ = writeln!(
        out,
        "latency us: p50 {}  p95 {}  p99 {}  max {}  mean {mean_us:.0}",
        exact_quantile(latencies, 0.50),
        exact_quantile(latencies, 0.95),
        exact_quantile(latencies, 0.99),
        latencies.last().copied().unwrap_or(0),
    );
}

fn serve(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let path = p.positional.first().ok_or("serve needs a container path")?;
    let name = p.flag("model").ok_or("serve needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let serve_config = serve_config_from(&p)?;
    let spec = load_spec_from(&p)?;
    let throttle: u64 = p.flag_parse("throttle", 0)?;
    let offload = resolve_switch(&p, "offload")?;
    let shards: usize = p.flag_parse("shards", 1)?;
    if shards == 0 {
        return Err("--shards needs at least 1".into());
    }
    if shards > 1 && throttle > 0 {
        return Err("--throttle streams weights; --shards pins them resident (pick one)".into());
    }

    let server = if shards > 1 {
        let engines = sharded_engines(path, &config, shards, offload)?;
        PrismServer::start_sharded(engines, serve_config.clone()).map_err(|e| e.to_string())?
    } else {
        let engine = serving_engine(path, &config, throttle, offload)?;
        PrismServer::start(engine, serve_config.clone()).map_err(|e| e.to_string())?
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serving {} from {path}: {} workers, batches <= {} requests / {} tokens, wait {} us",
        config.name,
        serve_config.workers,
        serve_config.max_batch_requests,
        serve_config.max_batch_tokens,
        serve_config.max_batch_wait.as_micros()
    );
    if shards > 1 {
        let _ = writeln!(
            out,
            "sharded: candidates scatter-gathered across {shards} resident engine shards"
        );
        let _ = writeln!(
            out,
            "resilience: {} replica(s) per candidate, hedge {}, on-partial {:?}",
            serve_config.replicas,
            match serve_config.hedge {
                Some(h) => format!("{} us", h.as_micros()),
                None => "off".into(),
            },
            spec.on_partial
        );
    }
    if serve_config.tenant_max_inflight > 0 {
        let _ = writeln!(
            out,
            "tenant quota: <= {} in-flight requests per session",
            serve_config.tenant_max_inflight
        );
    }
    let _ = writeln!(
        out,
        "load: {} requests x {} candidates (top-{}), {} clients, {} sessions, corpus repeat {}",
        spec.requests, spec.candidates, spec.k, spec.clients, spec.sessions, spec.corpus_repeat
    );
    if spec.semcache != SemCacheMode::Off {
        let _ = writeln!(
            out,
            "semantic cache: mode {:?}, {} KiB budget, {:.0}% cross-session duplicate stream",
            spec.semcache,
            serve_config.semcache_capacity_bytes >> 10,
            spec.dup_fraction * 100.0
        );
    }

    match p.flag("listen") {
        // Wire mode: bind the TCP front-end and drive the closed loop
        // through out-of-process wire clients on the loopback address.
        Some(listen) => {
            let server = Arc::new(server);
            let wire = WireServer::start(Arc::clone(&server), listen).map_err(|e| e.to_string())?;
            let addr = wire.local_addr().to_string();
            let _ = writeln!(
                out,
                "wire: listening on {addr}, driving load through {} wire clients",
                spec.clients.max(1).min(spec.requests.max(1))
            );
            let started = Instant::now();
            let result = run_wire_loop(&addr, &config, &spec);
            let elapsed_s = started.elapsed().as_secs_f64();
            let snapshot = server.stats().snapshot();
            wire.shutdown();
            let (latencies, errors, rtt) = result?;
            write_wire_summary(&mut out, &latencies, errors, rtt, elapsed_s);
            let _ = writeln!(
                out,
                "server: {} batches (mean {:.2} requests), {} backpressure, {} quota rejections",
                snapshot.batches,
                snapshot.batch_size.mean,
                snapshot.rejected,
                snapshot.quota_rejected
            );
            write_resilience_summary(&mut out, &snapshot);
        }
        None => {
            let report = run_closed_loop(&server, &spec);
            server.shutdown();
            write_load_report(&mut out, &report);
        }
    }
    Ok(out)
}

fn connect(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let addr = p
        .positional
        .first()
        .ok_or("connect needs a server address (host:port)")?;
    let name = p.flag("model").ok_or("connect needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let spec = load_spec_from(&p)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "connect {addr}: {} requests x {} candidates (top-{}), {} clients",
        spec.requests, spec.candidates, spec.k, spec.clients
    );
    let started = Instant::now();
    let (latencies, errors, rtt) = run_wire_loop(addr, &config, &spec)?;
    write_wire_summary(
        &mut out,
        &latencies,
        errors,
        rtt,
        started.elapsed().as_secs_f64(),
    );
    Ok(out)
}

fn bench_serve(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let path = p
        .positional
        .first()
        .ok_or("bench-serve needs a container path")?;
    let name = p.flag("model").ok_or("bench-serve needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    // Default to 8 closed-loop clients (enough concurrency to fill
    // batches) while still honouring an explicit --clients.
    let mut spec = load_spec_from(&p)?;
    if p.flag("clients").is_none() {
        spec.clients = 8;
    }
    // `--high-frac` / `--deadline-ms` parameterize only the mixed-
    // priority scenario below; the serial-vs-batched headline must stay
    // a uniform, deadline-free load or a tight deadline would shed most
    // of the slow serial reference and inflate the batching gain.
    spec.high_fraction = 0.0;
    spec.deadline_us = None;
    spec.high_deadline_us = None;
    let batch: usize = p.flag_parse("batch", 8)?;
    let workers: usize = p.flag_parse("workers", 1)?;
    // Weight streaming runs against an emulated device SSD by default —
    // that is the regime cross-request batching amortizes; `--throttle 0`
    // measures native disk speed instead.
    let throttle: u64 = p.flag_parse("throttle", 16_000_000)?;
    let offload = resolve_switch(&p, "offload")?;

    // Reference: one worker, no coalescing, no cache.
    let serial_server = PrismServer::start(
        serving_engine(path, &config, throttle, offload)?,
        ServeConfig::serial(),
    )
    .map_err(|e| e.to_string())?;
    let serial = run_closed_loop(&serial_server, &spec);
    serial_server.shutdown();

    // Batched: same worker count budget, coalescing + session cache on.
    let batched_config = ServeConfig {
        workers,
        max_batch_requests: batch,
        ..Default::default()
    };
    let batched_server = PrismServer::start(
        serving_engine(path, &config, throttle, offload)?,
        batched_config.clone(),
    )
    .map_err(|e| e.to_string())?;
    let batched = run_closed_loop(&batched_server, &spec);
    batched_server.shutdown();

    let gain = if serial.throughput_rps > 0.0 {
        batched.throughput_rps / serial.throughput_rps
    } else {
        0.0
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-serve {} ({} requests x {} candidates, top-{}, {} clients, throttle {})",
        config.name,
        spec.requests,
        spec.candidates,
        spec.k,
        spec.clients,
        if throttle > 0 {
            format!("{:.0} MB/s", throttle as f64 / 1e6)
        } else {
            "native".into()
        }
    );
    let _ = writeln!(out, "--- serial reference (1 worker, no batching) ---");
    write_load_report(&mut out, &serial);
    let _ = writeln!(
        out,
        "--- batched ({} workers, <= {} requests/batch) ---",
        batched_config.workers, batched_config.max_batch_requests
    );
    write_load_report(&mut out, &batched);
    let _ = writeln!(out, "batching throughput gain: {gain:.2}x");

    // ---- Mixed-priority scenario: FIFO vs priority-then-EDF ----
    // `--high-frac 0` skips it; by default 10% of the stream runs High
    // with a generous deadline, and the same workload is measured under
    // both schedulers at a small batch cap (so the queue stays deep
    // enough for admission order to matter).
    let high_frac: f64 = p.flag_parse("high-frac", 0.1)?;
    if high_frac > 0.0 {
        let mixed_spec = LoadSpec {
            high_fraction: high_frac,
            high_deadline_us: Some(p.flag_parse("deadline-ms", 2_000_u64)? * 1_000),
            ..spec.clone()
        };
        let mixed_batch: usize = p.flag_parse("mixed-batch", 2)?;
        let mut results = Vec::new();
        for (label, priority_scheduling) in [("fifo", false), ("priority", true)] {
            let serve_cfg = ServeConfig {
                workers,
                max_batch_requests: mixed_batch,
                session_cache_capacity: 0,
                priority_scheduling,
                // Throttled queues drain slowly; a starvation bound above
                // the drain time keeps the comparison about priority, not
                // the anti-starvation fallback.
                starvation_age: std::time::Duration::from_millis(
                    p.flag_parse("starvation-ms", 2_000_u64)?,
                ),
                ..Default::default()
            };
            let server =
                PrismServer::start(serving_engine(path, &config, throttle, offload)?, serve_cfg)
                    .map_err(|e| e.to_string())?;
            let report = run_closed_loop(&server, &mixed_spec);
            server.shutdown();
            let _ = writeln!(
                out,
                "--- mixed priority, {label} scheduler ({} workers, <= {mixed_batch} requests/batch) ---",
                workers
            );
            write_load_report(&mut out, &report);
            results.push(report);
        }
        let (fifo, priority) = (&results[0], &results[1]);
        if let (Some(f), Some(p)) = (fifo.class("high"), priority.class("high")) {
            let improvement = if p.p99_us > 0 {
                f.p99_us as f64 / p.p99_us as f64
            } else {
                0.0
            };
            let throughput_ratio = if fifo.throughput_rps > 0.0 {
                priority.throughput_rps / fifo.throughput_rps
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "high-priority p99 improvement: {improvement:.2}x (throughput ratio {throughput_ratio:.2})"
            );
        }
    }
    Ok(out)
}

fn write_sim_report(out: &mut String, report: &SimReport) {
    let _ = writeln!(
        out,
        "completed {} of {} requests in {:.3} virtual s -> {:.1} req/s ({} errors, {} backpressure retries)",
        report.completed,
        report.requests,
        report.virtual_elapsed_s,
        report.throughput_rps,
        report.errors,
        report.backpressure_retries
    );
    let _ = writeln!(
        out,
        "latency us: p50 {}  p95 {}  p99 {}  max {}  mean {:.0}",
        report.p50_us, report.p95_us, report.p99_us, report.max_us, report.mean_us
    );
    let s = &report.stats;
    let _ = writeln!(
        out,
        "queue depth peak {}; {} batches (mean {:.2} requests / {:.0} tokens)",
        s.queue_depth_peak, s.batches, s.batch_size.mean, s.batch_tokens.mean
    );
    let _ = writeln!(
        out,
        "session cache: {} selection hits, {} misses (hit rate {:.1}%)",
        s.cache_selection_hits,
        s.cache_misses,
        s.cache_hit_rate * 100.0
    );
    if s.failovers > 0 {
        let _ = writeln!(
            out,
            "resilience: {} failovers absorbed by replication",
            s.failovers
        );
    }
    if s.cancelled + s.deadline_rejected + s.deadline_missed + s.priority_inversions + s.rejected
        > 0
    {
        let _ = writeln!(
            out,
            "lifecycle: {} rejected, {} cancelled, {} deadline-rejected, {} deadline-missed, {} priority inversions",
            s.rejected, s.cancelled, s.deadline_rejected, s.deadline_missed, s.priority_inversions
        );
    }
    for c in &report.classes {
        let _ = writeln!(
            out,
            "  class {:<6} {:>4} ok / {:>3} err  p50 {:>7} us  p95 {:>7} us  p99 {:>7} us",
            c.label, c.completed, c.errors, c.p50_us, c.p95_us, c.p99_us
        );
    }
    let _ = writeln!(
        out,
        "{} events, digest {:016x}",
        report.events, report.digest
    );
}

fn simulate_serve(args: &[&str]) -> Result<String, String> {
    let p = parse(args)?;
    let name = p
        .flag("model")
        .ok_or("simulate-serve needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let device = resolve_device(p.flag("device").unwrap_or("m2"))?;
    let serve_config = serve_config_from(&p)?;

    // Service times: the device's analytic batch-cost model unless a
    // calibrated affine model is pinned on the command line (the shape
    // `repro sim-validate` fits from measured runs).
    let calibrated = ["fixed-us", "per-request-us", "per-token-us"]
        .iter()
        .any(|f| p.flag(f).is_some());
    let sim_shards: usize = p.flag_parse("shards", 1)?;
    let service = if calibrated {
        if sim_shards > 1 {
            return Err(
                "--shards prices through the analytic model; drop the calibrated flags".into(),
            );
        }
        ServiceModel::calibrated(Calibration {
            batch_fixed_us: p.flag_parse("fixed-us", 0.0_f64)?,
            per_request_us: p.flag_parse("per-request-us", 0.0_f64)?,
            per_token_us: p.flag_parse("per-token-us", 0.0_f64)?,
        })
    } else if sim_shards > 1 {
        let worker = ServeBatchCost::new(config.clone(), device.clone());
        ServiceModel::sharded(ScatterGatherCost {
            parallel_shards: resolve_switch(&p, "parallel-shards")?,
            ..ScatterGatherCost::new(worker, sim_shards)
        })
    } else {
        ServiceModel::analytic(ServeBatchCost::new(config.clone(), device.clone()))
    };

    // Optional shard-fault model: each simulated batch draws a fault
    // with this probability; the configured replication level decides
    // whether it costs latency (failover replay) or requests (errors).
    let fault_per_mille: u32 = p.flag_parse("fault-per-mille", 0_u32)?;
    let faults = (fault_per_mille > 0).then(|| SimFaults {
        seed: 0xFA17 ^ fault_per_mille as u64,
        per_mille: fault_per_mille,
        shards: sim_shards.max(1),
        replicas: serve_config.replicas,
    });

    let mut out = String::new();
    if sim_shards > 1 {
        let _ = writeln!(
            out,
            "service model: scatter-gather over {sim_shards} shards ({})",
            if resolve_switch(&p, "parallel-shards")? {
                "one device per shard"
            } else {
                "colocated"
            }
        );
    }
    if let Some(f) = faults {
        let _ = writeln!(
            out,
            "fault model: {}/1000 batches hit a shard fault, {} replica(s) to absorb them",
            f.per_mille, f.replicas
        );
    }
    if resolve_switch(&p, "tune")? {
        let outcome = tune_for_device(&config, &device, &serve_config);
        let winner = &outcome.points[outcome.best];
        let tuned = outcome.best_config(&serve_config);
        let _ = writeln!(
            out,
            "tuned {} on {} over {} grid points:",
            config.name,
            device.name,
            outcome.points.len()
        );
        let _ = writeln!(
            out,
            "best: batch <= {} requests, wait {} us, starvation {} us, cache {} sessions",
            winner.max_batch_requests,
            winner.max_batch_wait_us,
            winner.starvation_age_us,
            winner.session_cache_capacity
        );
        let _ = writeln!(
            out,
            "simulated: {:.1} req/s, p99 {} us (base point: {:.1} req/s, p99 {} us)",
            winner.throughput_rps,
            winner.p99_us,
            outcome.points[0].throughput_rps,
            outcome.points[0].p99_us
        );
        tuned.validate().map_err(|e| e.to_string())?;
        write_sim_report(&mut out, &outcome.report);
        return Ok(out);
    }

    let mode = p.flag("mode").unwrap_or("trace");
    let report = match mode {
        "trace" => {
            let rps: f64 = p.flag_parse("rps", 100.0)?;
            let events: u64 = p.flag_parse("events", 100_000)?;
            let seed: u64 = p.flag_parse("seed", 42)?;
            let profile_name = p.flag("profile").unwrap_or("diurnal");
            let profile = trace_profile_by_name(profile_name, rps).ok_or_else(|| {
                format!("unknown profile `{profile_name}` (steady|diurnal|burst)")
            })?;
            let generator = TraceGenerator::new(profile, seed);
            let _ = writeln!(
                out,
                "simulate-serve {}: {} trace, {} events at ~{} req/s, {} workers, batches <= {} requests",
                config.name,
                profile_name,
                events,
                rps,
                serve_config.workers,
                serve_config.max_batch_requests
            );
            Simulation::run_trace_with(
                &serve_config,
                service,
                &generator,
                events,
                profile_name,
                faults,
            )
        }
        "closed" => {
            let spec = load_spec_from(&p)?;
            let _ = writeln!(
                out,
                "simulate-serve {}: closed loop, {} requests x {} candidates (top-{}), {} clients",
                config.name, spec.requests, spec.candidates, spec.k, spec.clients
            );
            simulate_closed_loop_with(&config, &spec, &serve_config, service, "closed", faults)
        }
        other => return Err(format!("unknown mode `{other}` (trace|closed)")),
    };
    write_sim_report(&mut out, &report);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("prsm-cli-{tag}-{}.prsm", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn run_strs(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_strs(&[]).unwrap().contains("usage"));
        assert!(run_strs(&["help"]).unwrap().contains("usage"));
        assert!(run_strs(&["frobnicate"]).is_err());
    }

    #[test]
    fn gen_inspect_quantize_rerank_round_trip() {
        let dense = tmp("dense");
        let out = run_strs(&[
            "gen",
            &dense,
            "--model",
            "qwen3-0.6b",
            "--scale",
            "test",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");

        let out = run_strs(&["inspect", &dense]).unwrap();
        assert!(out.contains("embedding"));
        assert!(out.contains("layer.0"));
        assert!(out.contains("total payload"));

        let quant = tmp("quant");
        let out = run_strs(&[
            "quantize",
            &dense,
            &quant,
            "--model",
            "qwen3-0.6b",
            "--scale",
            "test",
        ])
        .unwrap();
        assert!(out.contains("quantized"), "{out}");
        let shrink: f64 = out
            .split('(')
            .nth(1)
            .and_then(|s| s.strip_suffix("x)\n"))
            .and_then(|s| s.parse().ok())
            .expect("shrink factor in output");
        assert!(
            shrink > 1.5,
            "quantized container should be much smaller: {shrink}"
        );

        let out = run_strs(&[
            "rerank",
            &dense,
            "--model",
            "qwen3-0.6b",
            "--scale",
            "test",
            "--k",
            "3",
            "--candidates",
            "10",
        ])
        .unwrap();
        assert!(out.contains("top-3 of 10"), "{out}");
        assert!(out.contains("executed"));

        std::fs::remove_file(&dense).unwrap();
        std::fs::remove_file(&quant).unwrap();
    }

    #[test]
    fn simulate_all_systems() {
        for system in ["hf", "offload", "quant", "prism"] {
            let out = run_strs(&[
                "simulate", "--model", "bge-m3", "--device", "m2", "--system", system,
            ])
            .unwrap();
            assert!(out.contains("latency"), "{system}: {out}");
            assert!(out.contains("peak memory"));
        }
        // OOM flagged for 8B on the laptop.
        let out = run_strs(&["simulate", "--model", "qwen3-8b", "--system", "hf"]).unwrap();
        assert!(out.contains("oom: true"));
    }

    #[test]
    fn flag_errors_are_reported() {
        assert!(
            run_strs(&["gen", "/tmp/x.prsm"]).is_err(),
            "missing --model"
        );
        assert!(run_strs(&["simulate", "--model", "nope"]).is_err());
        assert!(run_strs(&["simulate", "--model", "bge-m3", "--device", "np"]).is_err());
        assert!(run_strs(&["simulate", "--model", "bge-m3", "--candidates", "abc"]).is_err());
        assert!(run_strs(&["gen"]).is_err(), "missing path");
        assert!(run_strs(&["inspect", "/nonexistent/file.prsm"]).is_err());
        assert!(
            run_strs(&["gen", "/tmp/x.prsm", "--model"]).is_err(),
            "flag without value"
        );
    }

    #[test]
    fn serve_and_bench_serve_round_trip() {
        let dense = tmp("serve");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "11",
        ])
        .unwrap();

        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "12",
            "--clients",
            "3",
            "--candidates",
            "8",
            "--k",
            "3",
            "--repeat",
            "2",
        ])
        .unwrap();
        assert!(out.contains("completed 12 requests"), "{out}");
        assert!(out.contains("latency us: p50"), "{out}");
        assert!(out.contains("session cache:"), "{out}");

        let out = run_strs(&[
            "bench-serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "16",
            "--candidates",
            "8",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.contains("serial reference"), "{out}");
        assert!(out.contains("batching throughput gain:"), "{out}");
        // The default mixed-priority scenario compares both schedulers.
        assert!(out.contains("mixed priority, fifo scheduler"), "{out}");
        assert!(out.contains("mixed priority, priority scheduler"), "{out}");
        assert!(out.contains("high-priority p99 improvement:"), "{out}");
        assert!(out.contains("class high"), "{out}");

        assert!(
            run_strs(&["serve", "--model", "bge-m3"]).is_err(),
            "missing path"
        );
        assert!(run_strs(&["bench-serve", &dense]).is_err(), "missing model");
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_with_priority_and_deadline_flags() {
        let dense = tmp("serve-prio");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "5",
        ])
        .unwrap();
        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "10",
            "--clients",
            "2",
            "--candidates",
            "6",
            "--k",
            "2",
            "--priority",
            "bulk",
            "--deadline-ms",
            "30000",
            "--high-frac",
            "0.2",
        ])
        .unwrap();
        assert!(out.contains("completed 10 requests"), "{out}");
        assert!(out.contains("class high"), "{out}");
        assert!(out.contains("class bulk"), "{out}");
        assert!(
            run_strs(&[
                "serve",
                &dense,
                "--model",
                "bge-m3",
                "--scale",
                "test",
                "--priority",
                "urgent",
            ])
            .is_err(),
            "unknown priority must be rejected"
        );
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_with_semcache_flags() {
        let dense = tmp("serve-semcache");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "17",
        ])
        .unwrap();
        // High-overlap aggressive run with the session cache off: every
        // duplicate must be answered by the semantic tier, so the
        // telemetry line has to report hits.
        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "16",
            "--clients",
            "2",
            "--candidates",
            "6",
            "--k",
            "2",
            "--cache-sessions",
            "0",
            "--semcache",
            "aggressive",
            "--dup-frac",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("semantic cache: mode Aggressive"), "{out}");
        assert!(out.contains("50% cross-session duplicate stream"), "{out}");
        assert!(out.contains("hits,"), "{out}");
        assert!(out.contains("fallbacks,"), "{out}");

        assert!(
            run_strs(&[
                "serve",
                &dense,
                "--model",
                "bge-m3",
                "--scale",
                "test",
                "--semcache",
                "maybe",
            ])
            .is_err(),
            "unknown semcache mode must be rejected"
        );
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_sharded_in_process_and_over_the_wire() {
        let dense = tmp("serve-shard");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "13",
        ])
        .unwrap();

        // In-process sharded closed loop.
        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--shards",
            "2",
            "--requests",
            "8",
            "--clients",
            "2",
            "--candidates",
            "8",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.contains("across 2 resident engine shards"), "{out}");
        assert!(out.contains("completed 8 requests"), "{out}");

        // Wire mode: bind the TCP front-end and drive out-of-process
        // clients through it, with a per-tenant quota configured.
        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--shards",
            "2",
            "--tenant-quota",
            "4",
            "--listen",
            "127.0.0.1:0",
            "--requests",
            "8",
            "--clients",
            "2",
            "--candidates",
            "8",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.contains("wire: listening on 127.0.0.1:"), "{out}");
        assert!(out.contains("ping RTT"), "{out}");
        assert!(out.contains("tenant quota: <= 4"), "{out}");
        assert!(out.contains("completed 8 requests"), "{out}");
        assert!(out.contains("quota rejections"), "{out}");

        // Flag conflicts are typed errors, not silent misconfiguration.
        assert!(
            run_strs(&["serve", &dense, "--model", "bge-m3", "--scale", "test", "--shards", "0",])
                .is_err(),
            "zero shards must be rejected"
        );
        assert!(
            run_strs(&[
                "serve",
                &dense,
                "--model",
                "bge-m3",
                "--scale",
                "test",
                "--shards",
                "2",
                "--throttle",
                "1000",
            ])
            .is_err(),
            "sharded engines are resident; throttle must be rejected"
        );
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_with_resilience_flags() {
        let dense = tmp("serve-resil");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "19",
        ])
        .unwrap();

        // Replicated, hedged, degradable sharded serving: the config
        // echoes the knobs and the summary surfaces the resilience
        // counters (zero under a fault-free run).
        let out = run_strs(&[
            "serve",
            &dense,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--shards",
            "3",
            "--replicas",
            "2",
            "--hedge-ms",
            "5",
            "--on-partial",
            "partial",
            "--requests",
            "8",
            "--clients",
            "2",
            "--candidates",
            "8",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(
            out.contains(
                "resilience: 2 replica(s) per candidate, hedge 5000 us, on-partial Partial"
            ),
            "{out}"
        );
        assert!(out.contains("failovers"), "{out}");
        assert!(out.contains("completed 8 requests"), "{out}");

        // Bad knob values are typed errors.
        for bad in [
            vec![
                "serve",
                &dense,
                "--model",
                "bge-m3",
                "--scale",
                "test",
                "--replicas",
                "0",
            ],
            vec![
                "serve",
                &dense,
                "--model",
                "bge-m3",
                "--scale",
                "test",
                "--on-partial",
                "maybe",
            ],
        ] {
            assert!(run_strs(&bad).is_err(), "{bad:?} must be rejected");
        }
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn connect_drives_a_listening_server() {
        let dense = tmp("connect");
        run_strs(&[
            "gen", &dense, "--model", "bge-m3", "--scale", "test", "--seed", "17",
        ])
        .unwrap();
        let config = resolve_config("bge-m3", "test").unwrap();
        let engine = serving_engine(&dense, &config, 0, false).unwrap();
        let server =
            std::sync::Arc::new(PrismServer::start(engine, ServeConfig::default()).unwrap());
        let wire =
            prism_wire::WireServer::start(std::sync::Arc::clone(&server), "127.0.0.1:0").unwrap();
        let addr = wire.local_addr().to_string();

        let out = run_strs(&[
            "connect",
            &addr,
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "6",
            "--clients",
            "2",
            "--candidates",
            "6",
            "--k",
            "2",
        ])
        .unwrap();
        assert!(out.contains(&format!("connect {addr}")), "{out}");
        assert!(out.contains("ping RTT"), "{out}");
        assert!(out.contains("completed 6 requests"), "{out}");
        wire.shutdown();

        // Nothing listening: the connect error is surfaced, not a hang.
        assert!(run_strs(&[
            "connect",
            "127.0.0.1:1",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--requests",
            "1",
        ])
        .is_err());
        assert!(run_strs(&["connect"]).is_err(), "missing address");
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn simulate_serve_sharded_service_model() {
        let base = [
            "simulate-serve",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--profile",
            "steady",
            "--rps",
            "200",
            "--events",
            "500",
        ];
        let colocated = run_strs(
            &base
                .iter()
                .copied()
                .chain(["--shards", "3"])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(
            colocated.contains("scatter-gather over 3 shards (colocated)"),
            "{colocated}"
        );
        let parallel = run_strs(
            &base
                .iter()
                .copied()
                .chain(["--shards", "3", "--parallel-shards", "on"])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(parallel.contains("(one device per shard)"), "{parallel}");
        // Calibrated coefficients and the analytic sharded model are
        // mutually exclusive.
        assert!(run_strs(
            &base
                .iter()
                .copied()
                .chain(["--shards", "3", "--fixed-us", "1000"])
                .collect::<Vec<_>>(),
        )
        .is_err());
    }

    #[test]
    fn simulate_serve_fault_model_prices_replication() {
        let base = [
            "simulate-serve",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--profile",
            "steady",
            "--rps",
            "200",
            "--events",
            "500",
            "--shards",
            "3",
            "--fault-per-mille",
            "300",
        ];
        // R=2: faults are absorbed as failover replays, zero of them
        // become request errors.
        let covered = run_strs(
            &base
                .iter()
                .copied()
                .chain(["--replicas", "2"])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(
            covered.contains("fault model: 300/1000 batches hit a shard fault, 2 replica(s)"),
            "{covered}"
        );
        assert!(
            covered.contains("failovers absorbed by replication"),
            "{covered}"
        );
        assert!(covered.contains("(0 errors"), "{covered}");

        // Default R=1: the same schedule surfaces as request errors.
        let exposed = run_strs(&base).unwrap();
        assert!(!exposed.contains("(0 errors"), "{exposed}");
        assert!(
            !exposed.contains("failovers absorbed"),
            "R=1 has nothing to fail over to: {exposed}"
        );
    }

    #[test]
    fn simulate_serve_trace_mode_is_deterministic() {
        let args = [
            "simulate-serve",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--profile",
            "steady",
            "--rps",
            "300",
            "--events",
            "2000",
            "--device",
            "m2",
        ];
        let a = run_strs(&args).unwrap();
        assert!(a.contains("steady trace, 2000 events"), "{a}");
        assert!(a.contains("virtual s"), "{a}");
        assert!(a.contains("digest"), "{a}");
        // Bit-identical rerun: the whole report is a pure function of
        // the inputs (no wall clock anywhere).
        let b = run_strs(&args).unwrap();
        assert_eq!(a, b);
        // A different seed changes the event log.
        let c = run_strs(
            &args
                .iter()
                .copied()
                .chain(["--seed", "7"])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn simulate_serve_closed_mode_and_calibrated_model() {
        let out = run_strs(&[
            "simulate-serve",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--mode",
            "closed",
            "--requests",
            "24",
            "--clients",
            "4",
            "--candidates",
            "8",
            "--k",
            "3",
            "--fixed-us",
            "4000",
            "--per-token-us",
            "2",
        ])
        .unwrap();
        assert!(out.contains("closed loop, 24 requests"), "{out}");
        assert!(out.contains("completed 24 of 24"), "{out}");
        assert!(out.contains("latency us: p50"), "{out}");

        assert!(
            run_strs(&["simulate-serve", "--model", "bge-m3", "--mode", "open"]).is_err(),
            "unknown mode must be rejected"
        );
        assert!(
            run_strs(&["simulate-serve", "--model", "bge-m3", "--profile", "weekly"]).is_err(),
            "unknown profile must be rejected"
        );
        assert!(run_strs(&["simulate-serve"]).is_err(), "missing model");
    }

    #[test]
    fn simulate_serve_tune_reports_winner() {
        let out = run_strs(&[
            "simulate-serve",
            "--model",
            "bge-m3",
            "--scale",
            "test",
            "--device",
            "m2",
            "--tune",
            "on",
        ])
        .unwrap();
        assert!(out.contains("grid points"), "{out}");
        assert!(out.contains("best: batch <="), "{out}");
        assert!(out.contains("base point:"), "{out}");
    }

    #[test]
    fn resolve_config_names_and_scales() {
        for name in [
            "qwen3-0.6b",
            "qwen3-4b",
            "qwen3-8b",
            "bge-minicpm",
            "bge-m3",
        ] {
            let paper = resolve_config(name, "paper").unwrap();
            let mini = resolve_config(name, "mini").unwrap();
            assert_eq!(paper.num_layers, mini.num_layers);
            assert!(mini.hidden_dim < paper.hidden_dim);
        }
        assert!(resolve_config("gpt-5", "paper").is_err());
        assert!(resolve_config("bge-m3", "huge").is_err());
    }
}
