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
//!     [--candidates N] [--seq N] [--system hf|offload|quant|prism]
//!     Paper-scale latency/memory of one rerank request.
//!
//! prsm rerank <container.prsm> --model <name> [--scale mini|test]
//!     [--dataset wikipedia] [--candidates N] [--k N] [--threshold T]
//!     [--weights int8|f32]
//!     Run the PRISM engine on a synthetic request and print the top-K.
//!     `--weights` is the engine's layer-weight format (`WeightFormat`):
//!     int8 (default) derives per-row i8 layers once at open and runs
//!     every projection as an integer GEMM; f32 keeps the container's
//!     layers, the exact path.
//!
//! scheduling flags:
//!     [--workers N] [--batch N] [--batch-tokens N] [--wait-us N]
//!     The `ServeConfig` of the server. `--wait-us N`
//!     (default 2000) is how long a request that needs a weight pass
//!     waits for company, counted from its submission; a cache answer
//!     leaves at pickup and never waits.
//!
//! load flags:
//!     [--requests N] [--clients N] [--candidates N] [--k N]
//!     [--dataset wikipedia] [--seed N] [--sessions N] [--repeat N]
//!     [--deadline-ms N]
//!     [--spill int8|f32]
//!     [--semcache off|on] [--dup-frac F]
//!     One closed-loop synthetic workload (`prism_serve::LoadSpec`), the
//!     same traffic whichever verb drives it: `--clients` threads send
//!     `--requests` requests cycling `--sessions` sessions, each session
//!     moving to a fresh corpus every `--repeat` requests.
//!     `--deadline-ms` attaches a per-request deadline (a request that
//!     misses it counts as an error). `--semcache on` lets every request
//!     replay and store exact candidate scores (it also pins requests to
//!     full depth, the replay soundness requirement) and `--dup-frac F`
//!     draws one request in every `round(1/F)` from a cross-session
//!     duplicate corpus pool, the overlap the semantic cache exists to
//!     exploit. The fraction
//!     spaces evenly, so any F above 0.5 means every request.
//!     `--requests`, `--clients`, `--candidates` and `--k` need at least 1.
//!
//! prsm serve <container.prsm> --model <name> [--scale mini|test]
//!     [scheduling flags] [load flags] [--throttle BYTES_PER_S]
//!     [--offload on|off] [--weights int8|f32] [--listen ADDR]
//!     Start the serving front-end over a container, drive the load
//!     through it, and print latency percentiles plus queue/batch/cache
//!     telemetry and quarantined spill slots. `--throttle`
//!     caps weight-streaming bandwidth to emulate a device SSD (default
//!     0 = native); `--offload on` spills hidden states, where `--spill`
//!     becomes observable; `--weights` is the engine's layer-weight
//!     format, as for `rerank`. `--listen ADDR` additionally binds the
//!     length-prefixed TCP wire front-end on ADDR (port 0 picks a free
//!     port) and drives the same load through wire clients instead of
//!     in-process submission.
//!
//! prsm connect <addr> --model <name> [--scale mini|test] [load flags]
//!     Out-of-process client: connect to a running `prsm serve` wire
//!     endpoint, ping it, drive the load through wire clients, and print
//!     latency percentiles. `--model`/`--scale` must match the served
//!     container (they shape the generated workload).
//!
//! ```
//!
//! A flag the verb does not read is an error. All commands return their
//! output as a string (tested directly); the binary prints it.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use prism_core::{
    EngineOptions, PrismEngine, RequestOptions, SemCacheMode, SpillPrecision, WeightFormat,
};
use prism_device::{
    simulate_hf, simulate_hf_offload, simulate_hf_quant, simulate_prism, BatchShape, DeviceSpec,
    PrismSimOptions, PruneSchedule,
};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelConfig, SequenceBatch};
use prism_serve::{
    drive_closed_loop, run_closed_loop, LoadReport, LoadSpec, PrismServer, ServeConfig,
};
use prism_storage::Container;
use prism_wire::{WireClient, WireServer};
use prism_workload::{dataset_by_name, WorkloadGenerator};

const MODEL_FLAGS: &[&str] = &["model", "scale"];

/// The flags [`serve_config_from`] reads.
const SCHEDULING_FLAGS: &[&str] = &["workers", "batch", "batch-tokens", "wait-us"];

/// The flags [`load_spec_from`] reads.
const LOAD_FLAGS: &[&str] = &[
    "requests",
    "clients",
    "candidates",
    "k",
    "dataset",
    "seed",
    "sessions",
    "repeat",
    "deadline-ms",
    "spill",
    "semcache",
    "dup-frac",
];

type Verb = (
    &'static str,
    fn(&Parsed<'_>) -> Result<String, String>,
    &'static [&'static [&'static str]],
);

/// Every verb, its handler and the flags it reads (the crate docs'
/// synopses are checked against these lists).
const VERBS: &[Verb] = &[
    ("inspect", inspect, &[]),
    ("gen", gen, &[MODEL_FLAGS, &["seed"]]),
    ("quantize", quantize, &[MODEL_FLAGS]),
    (
        "simulate",
        simulate,
        &[&["model", "device", "candidates", "seq", "system"]],
    ),
    (
        "rerank",
        rerank,
        &[
            MODEL_FLAGS,
            &["dataset", "candidates", "k", "threshold", "weights"],
        ],
    ),
    (
        "serve",
        serve,
        &[
            MODEL_FLAGS,
            SCHEDULING_FLAGS,
            LOAD_FLAGS,
            &["throttle", "offload", "weights", "listen"],
        ],
    ),
    ("connect", connect, &[MODEL_FLAGS, LOAD_FLAGS]),
];

/// Runs one CLI invocation and returns its stdout payload.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter().map(String::as_str);
    let verb = match it.next() {
        Some("help") | None => return Ok(usage()),
        Some(verb) => verb,
    };
    let (_, handler, flags) = VERBS
        .iter()
        .find(|(name, ..)| *name == verb)
        .ok_or_else(|| format!("unknown command `{verb}`; try `prsm help`"))?;
    handler(&parse(verb, &it.collect::<Vec<_>>(), flags)?)
}

fn usage() -> String {
    let verbs: Vec<&str> = VERBS.iter().map(|(name, ..)| *name).collect();
    format!(
        "usage: prsm <{}|help> [args]\n\
         see `cargo doc -p prism-cli` or the crate docs for details\n",
        verbs.join("|")
    )
}

/// Positional arguments and `--flag value` pairs.
struct Parsed<'a> {
    positional: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

/// Splits `args` into positionals and `--flag value` pairs; a flag not
/// in `allowed` (the lists `verb` reads) is an error naming both.
fn parse<'a>(verb: &str, args: &[&'a str], allowed: &[&[&str]]) -> Result<Parsed<'a>, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            if !allowed.iter().any(|group| group.contains(&name)) {
                return Err(format!("prsm {verb}: unknown flag --{name}"));
            }
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

    /// Reads `--name` as one of `choices` by label, case-insensitively;
    /// absent, it is the first.
    fn choice<T: Copy>(&self, name: &str, choices: &[(&str, T)]) -> Result<T, String> {
        let Some(value) = self.flag(name) else {
            return Ok(choices[0].1);
        };
        let found = choices.iter().find(|(l, _)| l.eq_ignore_ascii_case(value));
        found.map(|&(_, v)| v).ok_or_else(|| {
            let labels: Vec<&str> = choices.iter().map(|&(l, _)| l).collect();
            format!("--{name} takes {}, got `{value}`", labels.join("|"))
        })
    }

    /// Parses an `--name on|off` switch (absent = off).
    fn switch(&self, name: &str) -> Result<bool, String> {
        self.choice(name, &[("off", false), ("on", true)])
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

fn inspect(p: &Parsed<'_>) -> Result<String, String> {
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

fn gen(p: &Parsed<'_>) -> Result<String, String> {
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

fn quantize(p: &Parsed<'_>) -> Result<String, String> {
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

fn simulate(p: &Parsed<'_>) -> Result<String, String> {
    let name = p.flag("model").ok_or("simulate needs --model <name>")?;
    let config = resolve_config(name, "paper")?;
    let device = resolve_device(p.flag("device").unwrap_or("rtx5070"))?;
    let candidates: usize = p.flag_parse("candidates", 20)?;
    let seq_len: usize = p.flag_parse("seq", 500)?;
    if candidates == 0 || seq_len == 0 {
        return Err("--candidates and --seq need at least 1".into());
    }
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

fn rerank(p: &Parsed<'_>) -> Result<String, String> {
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
        weights: weight_format(p)?,
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

/// Reads the engine's `--weights int8|f32` (absent = int8).
fn weight_format(p: &Parsed<'_>) -> Result<WeightFormat, String> {
    p.choice(
        "weights",
        &[("int8", WeightFormat::Int8), ("f32", WeightFormat::F32)],
    )
}

/// Opens a serving engine over a container path, its layers in
/// `weights`' format. Layer weights stream, and `throttle` caps that
/// bandwidth in bytes/s to emulate a device SSD (`0` = native speed).
/// `offload` additionally spills non-active chunk hidden states to disk
/// (the §4.3 extreme memory-pressure regime, where the per-request
/// `--spill` precision becomes observable).
fn serving_engine(
    path: &str,
    config: &ModelConfig,
    weights: WeightFormat,
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
        weights,
        ..Default::default()
    };
    PrismEngine::new(container, config.clone(), options, MemoryMeter::new())
        .map_err(|e| e.to_string())
}

/// Builds the `LoadSpec` from the load flags (`serve` and `connect`
/// accept the same ones). A load that sends nothing, runs no client or
/// asks for an empty selection is a usage error, not a silent clamp.
fn load_spec_from(p: &Parsed<'_>) -> Result<LoadSpec, String> {
    let defaults = LoadSpec::default();
    let at_least_one = |name: &str, default: usize| -> Result<usize, String> {
        match p.flag_parse(name, default)? {
            0 => Err(format!("--{name} needs at least 1")),
            n => Ok(n),
        }
    };
    let dataset = p.flag("dataset").unwrap_or("wikipedia");
    dataset_by_name(dataset).ok_or_else(|| format!("unknown dataset `{dataset}`"))?;
    let deadline_ms: u64 = p.flag_parse("deadline-ms", 0)?;
    Ok(LoadSpec {
        requests: at_least_one("requests", defaults.requests)?,
        clients: at_least_one("clients", defaults.clients)?,
        candidates: at_least_one("candidates", defaults.candidates)?,
        dataset: dataset.to_string(),
        seed: p.flag_parse("seed", defaults.seed)?,
        sessions: p.flag_parse("sessions", defaults.sessions)?,
        corpus_repeat: p.flag_parse("repeat", defaults.corpus_repeat)?,
        dup_fraction: p.flag_parse("dup-frac", 0.0_f64)?,
        options: RequestOptions {
            deadline_us: (deadline_ms > 0).then_some(deadline_ms * 1_000),
            spill_precision: p.choice(
                "spill",
                &[("int8", SpillPrecision::Int8), ("f32", SpillPrecision::F32)],
            )?,
            semcache: p.choice(
                "semcache",
                &[("off", SemCacheMode::Off), ("on", SemCacheMode::On)],
            )?,
            ..RequestOptions::top_k(at_least_one("k", defaults.options.k)?)
        },
    })
}

/// Prints a run. The server-side lines need the server's telemetry,
/// which `prsm connect` does not have.
fn write_load_report(out: &mut String, report: &LoadReport) {
    let _ = writeln!(
        out,
        "completed {} requests in {:.3} s -> {:.1} req/s ({} errors)",
        report.completed, report.elapsed_s, report.throughput_rps, report.errors
    );
    let _ = writeln!(
        out,
        "latency us: p50 {}  p95 {}  p99 {}  max {}  mean {:.0}",
        report.p50_us, report.p95_us, report.p99_us, report.max_us, report.mean_us
    );
    if let Some(s) = &report.stats {
        let _ = writeln!(
            out,
            "queue depth peak {}; {} batches (mean {:.2} requests / {:.0} tokens); {} backpressure rejections",
            s.queue_depth_peak,
            s.batches,
            s.batch_size.mean,
            s.batch_tokens.mean,
            s.rejected
        );
        let probed = s.semcache_hits + s.semcache_misses;
        if probed > 0 {
            let _ = writeln!(
                out,
                "semantic cache: {} hits, {} misses, {} bytes (hit rate {:.1}%)",
                s.semcache_hits,
                s.semcache_misses,
                s.semcache_bytes,
                s.semcache_hits as f64 / probed as f64 * 100.0
            );
        }
        if s.cancelled + s.deadline_rejected + s.deadline_missed > 0 {
            let _ = writeln!(
                out,
                "lifecycle: {} cancelled, {} deadline-rejected, {} deadline-missed",
                s.cancelled, s.deadline_rejected, s.deadline_missed
            );
        }
        let _ = writeln!(
            out,
            "recovery: {} spill slots quarantined",
            s.slots_quarantined
        );
    }
}

/// Builds a `ServeConfig` from the scheduling flags.
fn serve_config_from(p: &Parsed<'_>) -> Result<ServeConfig, String> {
    let serve_defaults = ServeConfig::default();
    let max_batch_wait = std::time::Duration::from_micros(
        p.flag_parse("wait-us", serve_defaults.max_batch_wait.as_micros() as u64)?,
    );
    Ok(ServeConfig {
        workers: p.flag_parse("workers", serve_defaults.workers)?,
        max_batch_requests: p.flag_parse("batch", serve_defaults.max_batch_requests)?,
        max_batch_tokens: p.flag_parse("batch-tokens", serve_defaults.max_batch_tokens)?,
        max_batch_wait,
        ..serve_defaults
    })
}

/// Pings `addr` (a typed handshake/ping failure beats N client threads
/// all reporting the same refused connect), then drives `spec` through
/// [`WireClient`] connections, one per client thread and session, so
/// measured latencies include frame encode/decode and the socket hop.
fn drive_wire_clients(
    out: &mut String,
    addr: &str,
    config: &ModelConfig,
    spec: &LoadSpec,
) -> Result<LoadReport, String> {
    let connect = |session: &str| {
        WireClient::connect(addr, session).map_err(|e| format!("connect {addr}: {e}"))
    };
    let rtt = connect("wire-probe")?
        .ping(Duration::from_secs(10))
        .map_err(|e| format!("ping {addr}: {e}"))?;
    let _ = writeln!(out, "ping RTT {} us", rtt.as_micros());
    drive_closed_loop(config, spec, connect)
}

fn serve(p: &Parsed<'_>) -> Result<String, String> {
    let path = p.positional.first().ok_or("serve needs a container path")?;
    let name = p.flag("model").ok_or("serve needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let serve_config = serve_config_from(p)?;
    let spec = load_spec_from(p)?;
    let throttle: u64 = p.flag_parse("throttle", 0)?;
    let offload = p.switch("offload")?;
    let engine = serving_engine(path, &config, weight_format(p)?, throttle, offload)?;
    let server = PrismServer::start(engine, serve_config.clone()).map_err(|e| e.to_string())?;

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
    let _ = writeln!(
        out,
        "load: {} requests x {} candidates (top-{}), {} clients, {} sessions, corpus repeat {}",
        spec.requests,
        spec.candidates,
        spec.options.k,
        spec.clients,
        spec.sessions,
        spec.corpus_repeat
    );
    if spec.options.semcache != SemCacheMode::Off {
        let dups = (0..spec.requests).filter(|&i| spec.is_dup(i)).count();
        let _ = writeln!(
            out,
            "semantic cache: mode {:?}, {} KiB budget, {:.0}% cross-session duplicate stream",
            spec.options.semcache,
            serve_config.semcache_capacity_bytes >> 10,
            dups as f64 / spec.requests.max(1) as f64 * 100.0
        );
    }

    let report = match p.flag("listen") {
        // Wire mode: bind the TCP front-end and drive the same closed
        // loop through wire clients on the bound address.
        Some(listen) => {
            let server = Arc::new(server);
            let wire = WireServer::start(Arc::clone(&server), listen).map_err(|e| e.to_string())?;
            let addr = wire.local_addr().to_string();
            let _ = writeln!(
                out,
                "wire: listening on {addr}, driving load through {} wire clients",
                spec.client_count()
            );
            let report = drive_wire_clients(&mut out, &addr, &config, &spec)
                .map(|report| report.with_server_stats(server.stats()));
            wire.shutdown();
            report?
        }
        None => {
            let report = run_closed_loop(&server, &spec);
            server.shutdown();
            report
        }
    };
    write_load_report(&mut out, &report);
    Ok(out)
}

fn connect(p: &Parsed<'_>) -> Result<String, String> {
    let addr = p
        .positional
        .first()
        .ok_or("connect needs a server address (host:port)")?;
    let name = p.flag("model").ok_or("connect needs --model <name>")?;
    let scale = p.flag("scale").unwrap_or("mini");
    let config = resolve_config(name, scale)?;
    let spec = load_spec_from(p)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "connect {addr}: {} requests x {} candidates (top-{}), {} clients",
        spec.requests, spec.candidates, spec.options.k, spec.clients
    );
    let report = drive_wire_clients(&mut out, addr, &config, &spec)?;
    write_load_report(&mut out, &report);
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

    /// `prsm <head> --model bge-m3 --scale test <rest>`.
    fn bge(head: &[&str], rest: &[&str]) -> Result<String, String> {
        run_strs(&[head, &["--model", "bge-m3", "--scale", "test"], rest].concat())
    }

    /// Generates the container the serving tests run over.
    fn container(tag: &str, seed: &str) -> String {
        let dense = tmp(tag);
        bge(&["gen", &dense], &["--seed", seed]).unwrap();
        dense
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_strs(&[]).unwrap().contains("usage"));
        assert!(run_strs(&["help"]).unwrap().contains("usage"));
        assert!(run_strs(&["frobnicate"]).is_err());
    }

    /// The crate docs' synopses and the flag lists `parse` enforces are
    /// one list: every verb documents exactly the flags it reads.
    #[test]
    fn doc_header_lists_exactly_the_flags_each_verb_reads() {
        let header: Vec<&str> = include_str!("lib.rs")
            .lines()
            .map_while(|l| l.strip_prefix("//!"))
            .map(str::trim)
            .collect();
        // A synopsis is its head line plus the `[`-led lines under it.
        let documented = |head: &str| -> Vec<String> {
            let at = header
                .iter()
                .position(|l| l.starts_with(head))
                .unwrap_or_else(|| panic!("no `{head}` synopsis in the crate docs"));
            let mut flags = Vec::new();
            for (n, line) in header[at..].iter().enumerate() {
                if n > 0 && !line.starts_with('[') {
                    break;
                }
                for (shared, list) in [
                    ("[scheduling flags]", SCHEDULING_FLAGS),
                    ("[load flags]", LOAD_FLAGS),
                ] {
                    if line.contains(shared) {
                        flags.extend(list.iter().map(|f| f.to_string()));
                    }
                }
                flags.extend(line.split("--").skip(1).map(|rest| {
                    let end = rest.find(|c: char| c != '-' && !c.is_ascii_lowercase());
                    rest[..end.unwrap_or(rest.len())].to_string()
                }));
            }
            flags.sort();
            flags
        };
        let sorted = |groups: &[&[&str]]| {
            let mut flags: Vec<String> = groups.concat().iter().map(|f| f.to_string()).collect();
            flags.sort();
            flags
        };
        assert_eq!(documented("scheduling flags:"), sorted(&[SCHEDULING_FLAGS]));
        assert_eq!(documented("load flags:"), sorted(&[LOAD_FLAGS]));
        for (verb, _, flags) in VERBS {
            assert_eq!(
                documented(&format!("prsm {verb} ")),
                sorted(flags),
                "{verb}"
            );
        }
        let verbs = header.iter().filter(|l| l.starts_with("prsm ")).count();
        assert_eq!(verbs, VERBS.len(), "a documented verb has no handler");
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
            // An empty request is a typed error, not a panic or a
            // latency for zero tokens.
            for empty in ["--candidates", "--seq"] {
                assert!(
                    run_strs(&["simulate", "--model", "bge-m3", "--system", system, empty, "0"])
                        .is_err(),
                    "{system}: {empty} 0"
                );
            }
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
    fn serve_round_trip() {
        let dense = container("serve", "11");

        let out = bge(
            &["serve", &dense],
            &[
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
            ],
        )
        .unwrap();
        assert!(out.contains("completed 12 requests"), "{out}");
        assert!(out.contains("latency us: p50"), "{out}");
        assert!(out.contains("recovery: 0 spill slots quarantined"), "{out}");
        assert!(!out.contains("semantic cache"), "the cache is off: {out}");

        assert!(
            run_strs(&["serve", "--model", "bge-m3"]).is_err(),
            "missing path"
        );
        assert!(run_strs(&["serve", &dense]).is_err(), "missing model");
        let err = run_strs(&["serve", &dense, "--model", "bge-m3", "--bach", "1"]).unwrap_err();
        assert_eq!(err, "prsm serve: unknown flag --bach");
        assert!(
            run_strs(&["bench-serve", &dense, "--model", "bge-m3"]).is_err(),
            "there is no bench-serve verb; serving is measured by benchmark/run.sh"
        );
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_with_a_deadline_flag() {
        let dense = container("serve-deadline", "5");
        let out = bge(
            &["serve", &dense],
            &[
                "--requests",
                "10",
                "--clients",
                "2",
                "--candidates",
                "6",
                "--k",
                "2",
                "--deadline-ms",
                "30000",
            ],
        )
        .unwrap();
        assert!(out.contains("completed 10 requests"), "{out}");
        assert!(out.contains("(0 errors)"), "{out}");
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_with_semcache_flags() {
        let dense = container("serve-semcache", "17");
        // High-overlap run: every repeat of a duplicate corpus must be
        // answered by the semantic cache, so the telemetry line has to
        // report hits.
        let out = bge(
            &["serve", &dense],
            &[
                "--requests",
                "16",
                "--clients",
                "2",
                "--candidates",
                "6",
                "--k",
                "2",
                "--semcache",
                "on",
                "--dup-frac",
                "0.5",
            ],
        )
        .unwrap();
        assert!(out.contains("semantic cache: mode On"), "{out}");
        assert!(out.contains("50% cross-session duplicate stream"), "{out}");
        assert!(out.contains("hits,"), "{out}");
        assert!(!out.contains("fallbacks"), "nothing is verified: {out}");
        assert!(
            !out.contains("session cache"),
            "there is no session memo: {out}"
        );

        // `verify` and `aggressive` are unknown modes like any other.
        for mode in ["maybe", "verify", "aggressive"] {
            assert!(
                bge(&["serve", &dense], &["--semcache", mode]).is_err(),
                "semcache mode {mode} must be rejected"
            );
        }
        let err = bge(&["serve", &dense], &["--cache-sessions", "4"]).unwrap_err();
        assert_eq!(err, "prsm serve: unknown flag --cache-sessions");
        std::fs::remove_file(&dense).unwrap();
    }

    #[test]
    fn serve_over_the_wire() {
        let dense = container("serve-wire", "13");
        // Wire mode: bind the TCP front-end and drive out-of-process
        // clients through it.
        let out = bge(
            &["serve", &dense],
            &[
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
            ],
        )
        .unwrap();
        assert!(out.contains("wire: listening on 127.0.0.1:"), "{out}");
        assert!(out.contains("ping RTT"), "{out}");
        assert!(out.contains("completed 8 requests"), "{out}");
        assert!(out.contains("backpressure rejections"), "{out}");
        assert!(out.contains("recovery: 0 spill slots quarantined"), "{out}");
        std::fs::remove_file(&dense).unwrap();
    }

    /// A load that cannot run is a usage error naming its flag, before
    /// any container is opened: no silent clamp to one client, and no
    /// batch of errors from empty requests.
    #[test]
    fn serve_rejects_an_empty_load() {
        for flag in ["--candidates", "--k", "--clients", "--requests"] {
            let err = bge(&["serve", "/nonexistent/m.prsm"], &[flag, "0"]).unwrap_err();
            assert_eq!(err, format!("{flag} needs at least 1"));
        }
    }

    #[test]
    fn connect_drives_a_listening_server() {
        let dense = container("connect", "17");
        let config = resolve_config("bge-m3", "test").unwrap();
        let engine = serving_engine(&dense, &config, WeightFormat::Int8, 0, false).unwrap();
        let server =
            std::sync::Arc::new(PrismServer::start(engine, ServeConfig::default()).unwrap());
        let wire =
            prism_wire::WireServer::start(std::sync::Arc::clone(&server), "127.0.0.1:0").unwrap();
        let addr = wire.local_addr().to_string();

        let out = bge(
            &["connect", &addr],
            &[
                "--requests",
                "6",
                "--clients",
                "2",
                "--candidates",
                "6",
                "--k",
                "2",
            ],
        )
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
