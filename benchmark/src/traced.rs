//! The traced run: where the time of a request goes, layer by layer.
//!
//! Three passes over the same seeded requests. Over the wire, each
//! request becomes a span tree from the client's timestamps and the
//! server-reported queue and service times. In process, on an engine
//! configured like the served one, `plan_request -> run_planned ->
//! finalize_request` are timed as spans and must reproduce the wire
//! responses bit for bit. On a resident twin the same requests are
//! stepped layer by layer. Spans stay in memory until the run ends.

use std::path::Path;
use std::time::{Duration, Instant};

use prism_core::{EngineOptions, PrismEngine, Selection};
use prism_metrics::MemCategory;
use prism_serve::ServeStats;
use serde_json::{json, Value};

use crate::check::ranked_bits;
use crate::e2e::{drive, latencies_ms};
use crate::inputs::RequestSource;
use crate::json::object;
use crate::layers;
use crate::loadgen::Pass;
use crate::report::{Measured, RunResult, PER_LAYER};
use crate::spec::{Arrival, WorkloadSpec};
use crate::stack::{open_engine, Stack};
use crate::stats::{mean, median, percentile, sorted, supports};
use crate::trace::{Span, SpanLog};
use crate::BenchError;

/// Shares of `--seconds` each pass may take.
const BASELINE_SHARE: f64 = 0.2;
const WIRE_SHARE: f64 = 0.4;
const REPLAY_SHARE: f64 = 0.3;
const STEPPING_SHARE: f64 = 0.1;

/// Requests replayed in process, at most.
const REPLAY_REQUESTS: usize = 96;

const PINGS: usize = 64;

/// The engine's own latency spans that get a metric each.
const ENGINE_SPANS: [(&str, &str); 8] = [
    ("embed", "core.span.embed_us"),
    ("stream-wait", "core.span.stream_wait_us"),
    ("forward", "core.span.forward_us"),
    ("score", "core.span.score_us"),
    ("gate", "core.span.gate_us"),
    ("prune", "core.span.prune_us"),
    ("spill-wait", "core.span.spill_wait_us"),
    ("quantize", "core.span.quantize_us"),
];

/// The server counters the wire pass is charged with, as differences
/// across the pass (set-up traffic went through the same counters).
struct Counters {
    completed: u64,
    batches: u64,
    rejected: u64,
    embed_hits: u64,
    selection_hits: u64,
    sem_hits: u64,
    sem_misses: u64,
    sem_fallbacks: u64,
}

impl Counters {
    fn read(stats: &ServeStats) -> Self {
        Counters {
            completed: stats.completed.get(),
            batches: stats.batches.get(),
            rejected: stats.rejected.get(),
            embed_hits: stats.cache_embed_hits.get(),
            selection_hits: stats.cache_selection_hits.get(),
            sem_hits: stats.semcache_hits.get(),
            sem_misses: stats.semcache_misses.get(),
            sem_fallbacks: stats.semcache_fallbacks.get(),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            batches: self.batches - before.batches,
            rejected: self.rejected - before.rejected,
            embed_hits: self.embed_hits - before.embed_hits,
            selection_hits: self.selection_hits - before.selection_hits,
            sem_hits: self.sem_hits - before.sem_hits,
            sem_misses: self.sem_misses - before.sem_misses,
            sem_fallbacks: self.sem_fallbacks - before.sem_fallbacks,
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn p50(values: Vec<f64>) -> (f64, usize) {
    let n = values.len();
    (median(values), n)
}

/// One span tree per wire request. The client's four timestamps are
/// measured; the server-side children of `api.wait` are laid out from the
/// durations the server reported, starting when `submit` returned, so
/// what `api.wait` keeps as self time is the wire residual.
fn wire_spans(log: &mut SpanLog, pass: &Pass) {
    for (sample, outcome) in pass.ok() {
        let span = |name, start_us, end_us, parent| Span {
            request: sample.index,
            name,
            layer: None,
            start_us,
            end_us,
            parent,
        };
        let root = log.push(span("wire.request", sample.due_us, sample.done_us, None));
        if sample.sent_us > sample.due_us {
            log.push(span(
                "loadgen.lag",
                sample.due_us,
                sample.sent_us,
                Some(root),
            ));
        }
        log.push(span(
            "api.submit",
            sample.sent_us,
            sample.submitted_us,
            Some(root),
        ));
        let wait = log.push(span(
            "api.wait",
            sample.submitted_us,
            sample.done_us,
            Some(root),
        ));
        let picked_us = sample.submitted_us + outcome.queued_us;
        log.push(span(
            "serve.queued",
            sample.submitted_us,
            picked_us,
            Some(wait),
        ));
        log.push(span(
            "serve.service",
            picked_us,
            picked_us + outcome.service_us,
            Some(wait),
        ));
    }
}

/// Everything read off the wire pass: the load generator's own validity
/// numbers, client-side latencies, what the server reported per request
/// and in its counters, and the served engine's memory meter.
fn wire_metrics(
    m: &mut Measured,
    spec: &WorkloadSpec,
    pass: &Pass,
    counters: &Counters,
    stack: &Stack,
    baseline_p50_ms: f64,
) {
    let ok: Vec<_> = pass.ok().collect();
    let n = ok.len();
    let us = |f: &dyn Fn(&crate::loadgen::Sample, &prism_api::SelectionOutcome) -> u64| {
        ok.iter().map(|(s, o)| f(s, o) as f64).collect::<Vec<f64>>()
    };

    let lag = sorted(
        pass.samples
            .iter()
            .map(|s| (s.sent_us - s.due_us) as f64)
            .collect(),
    );
    m.set("loadgen.lag_p95_us", percentile(&lag, 95.0), lag.len());
    m.set("loadgen.sent", pass.samples.len() as f64, 1);
    m.set("loadgen.succeeded", n as f64, 1);
    m.set("loadgen.failed", pass.failed() as f64, 1);

    let latencies = latencies_ms(pass);
    for (name, p) in [
        ("client.latency_p95_ms", 95.0),
        ("client.latency_p99_ms", 99.0),
    ] {
        // A percentile without ten samples beyond it reads zero rather
        // than a number that is really the maximum.
        if supports(n, p) {
            m.set(name, percentile(&latencies, p), n);
        }
    }
    let by_cache = |hit: bool| {
        p50(ok
            .iter()
            .filter(|(_, o)| o.served_from_cache == hit)
            .map(|(s, _)| s.latency_us() as f64 / 1e3)
            .collect())
    };
    let (hit, hits) = by_cache(true);
    m.set("client.hit_latency_p50_ms", hit, hits);
    let (miss, misses) = by_cache(false);
    m.set("client.miss_latency_p50_ms", miss, misses);

    let (residual, _) = p50(us(&|s, o| {
        (s.done_us - s.sent_us).saturating_sub(o.queued_us + o.service_us)
    }));
    m.set("wire.residual_us", residual, n);
    m.set(
        "api.submit_us",
        median(us(&|s, _| s.submitted_us - s.sent_us)),
        n,
    );
    m.set(
        "api.wait_us",
        median(us(&|s, _| s.done_us - s.submitted_us)),
        n,
    );

    let queued = sorted(us(&|_, o| o.queued_us));
    m.set("serve.queued_us_p50", percentile(&queued, 50.0), n);
    m.set("serve.queued_us_p95", percentile(&queued, 95.0), n);
    m.set("serve.service_us_p50", median(us(&|_, o| o.service_us)), n);
    m.set(
        "serve.batch_size_mean",
        mean(&us(&|_, o| o.batch_size as u64)),
        n,
    );
    m.set(
        "serve.passes_per_request",
        ratio(counters.batches as f64, counters.completed as f64),
        counters.completed as usize,
    );
    let stats = stack.server().stats();
    m.set("serve.queue_depth_peak", stats.queue_depth.peak() as f64, 1);
    m.set("serve.rejected", counters.rejected as f64, 1);
    m.set("serve.session_embed_hits", counters.embed_hits as f64, 1);
    m.set(
        "serve.session_selection_hits",
        counters.selection_hits as f64,
        1,
    );

    let probes = counters.sem_hits + counters.sem_misses;
    m.set(
        "semcache.hit_ratio",
        ratio(counters.sem_hits as f64, probes as f64),
        probes as usize,
    );
    m.set("semcache.fallbacks", counters.sem_fallbacks as f64, 1);
    m.set("semcache.bytes", stats.semcache_bytes.get() as f64, 1);

    let layers = spec.model.num_layers;
    m.set(
        "core.executed_layers_mean",
        mean(&us(&|_, o| o.selection.trace.executed_layers as u64)),
        n,
    );
    let forwarded: f64 =
        us(&|_, o| o.selection.trace.active_per_layer.iter().sum::<usize>() as u64)
            .iter()
            .sum();
    m.set(
        "core.candidate_layers_share",
        ratio(forwarded, (n * spec.candidates * layers) as f64),
        n,
    );

    let meter = stack.meter();
    for (name, category) in [
        ("mem.peak_layer_weights_bytes", MemCategory::LayerWeights),
        ("mem.peak_embedding_bytes", MemCategory::Embedding),
        ("mem.peak_intermediate_bytes", MemCategory::Intermediate),
        ("mem.peak_hidden_bytes", MemCategory::HiddenStates),
    ] {
        m.set(name, meter.peak(category) as f64, 1);
    }

    let traced_p50_ms = percentile(&latencies, 50.0);
    m.set(
        "trace.overhead_share",
        ratio(traced_p50_ms, baseline_p50_ms) - 1.0,
        n,
    );
}

fn ping(m: &mut Measured, stack: &Stack) -> Result<(), BenchError> {
    let rtts = (0..PINGS)
        .map(|_| {
            stack.clients[0]
                .ping(Duration::from_secs(5))
                .map(|d| d.as_nanos() as f64 / 1e3)
        })
        .collect::<Result<Vec<_>, _>>()?;
    m.set("wire.ping_rtt_us", median(rtts), PINGS);
    Ok(())
}

/// What one in-process selection adds to the engine-side sums.
#[derive(Default)]
struct EngineSums {
    requests: usize,
    covered_us: u64,
    plan_run_us: u64,
    routes: usize,
    routes_fired: usize,
    stream_bytes: u64,
    stream_io_us: u64,
    stream_wait_us: u64,
    spill_bytes: u64,
    spill_io_us: u64,
    spill_wait_us: u64,
    spill_quarantined: u64,
    embed_hit_ratio: f64,
}

impl EngineSums {
    fn add(&mut self, selection: &Selection, plan_run_us: u64) {
        let trace = &selection.trace;
        self.requests += 1;
        self.covered_us += trace.latency.total_micros();
        self.plan_run_us += plan_run_us;
        self.routes += trace.routes.len();
        self.routes_fired += trace.routes.iter().filter(|r| r.clustered).count();
        self.stream_bytes += trace.stream_stats.bytes;
        self.stream_io_us += trace.stream_stats.io_micros;
        self.stream_wait_us += trace.stream_stats.wait_micros;
        self.spill_bytes += trace.spill_stats.bytes();
        self.spill_io_us += trace.spill_stats.io_micros;
        self.spill_wait_us += trace.spill_stats.wait_micros;
        self.spill_quarantined += trace.spill_stats.quarantined;
        // The cache's counters are cumulative: the last reading stands.
        self.embed_hit_ratio = trace.cache_stats.hit_rate();
    }

    fn report(&self, m: &mut Measured, spec: &WorkloadSpec) {
        let n = self.requests;
        let per_request = |total: u64| ratio(total as f64, n as f64);
        // Time inside plan + run that none of the engine's spans claims.
        m.set(
            "core.unattributed_share",
            1.0 - ratio(self.covered_us as f64, self.plan_run_us as f64),
            n,
        );
        m.set(
            "core.gate_fired_share",
            ratio(self.routes_fired as f64, self.routes as f64),
            self.routes,
        );
        if spec.engine.streaming {
            m.set(
                "storage.stream_bytes_per_req",
                per_request(self.stream_bytes),
                n,
            );
            m.set(
                "storage.stream_io_us_per_req",
                per_request(self.stream_io_us),
                n,
            );
            m.set(
                "storage.stream_wait_us_per_req",
                per_request(self.stream_wait_us),
                n,
            );
            let hidden = self.stream_io_us.saturating_sub(self.stream_wait_us);
            m.set(
                "storage.stream_overlap",
                ratio(hidden as f64, self.stream_io_us as f64),
                n,
            );
        }
        if spec.engine.hidden_offload {
            m.set(
                "storage.spill_bytes_per_req",
                per_request(self.spill_bytes),
                n,
            );
            m.set(
                "storage.spill_wait_us_per_req",
                per_request(self.spill_wait_us),
                n,
            );
            let hidden = self.spill_io_us.saturating_sub(self.spill_wait_us);
            m.set(
                "storage.spill_overlap",
                ratio(hidden as f64, self.spill_io_us as f64),
                n,
            );
            m.set(
                "storage.spill_quarantined",
                self.spill_quarantined as f64,
                1,
            );
        }
        if spec.engine.embed_cache {
            m.set("storage.embed_hit_ratio", self.embed_hit_ratio, n);
        }
    }
}

/// The wire pass's requests, for the passes that run them again.
struct Replayed<'a> {
    spec: &'a WorkloadSpec,
    source: &'a RequestSource,
    pass: &'a Pass,
}

/// The in-process pass: the served engine's configuration, no server in
/// between. Returns the engine's own span totals per request for the
/// trace file.
fn replay(
    m: &mut Measured,
    log: &mut SpanLog,
    complaints: &mut Vec<String>,
    replayed: &Replayed<'_>,
    engine: &PrismEngine,
    budget: Duration,
) -> Result<Vec<Value>, BenchError> {
    let Replayed { spec, source, pass } = *replayed;
    let started = Instant::now();
    let mut sums = EngineSums::default();
    let mut span_totals = vec![Vec::new(); ENGINE_SPANS.len()];
    let mut engine_spans = Vec::new();
    let mut pool = Vec::new();
    for (sample, outcome) in pass.ok().take(REPLAY_REQUESTS) {
        if started.elapsed() > budget {
            break;
        }
        let request = source.request(sample.index);
        let root = log.open(sample.index, "inproc.request", None, None);
        let planned = log.time(sample.index, "core.plan", Some(root), || {
            engine.plan_request(&request.batch, request.options.clone())
        });
        let mut planned = [planned?];
        log.time(sample.index, "core.run", Some(root), || {
            engine.run_planned(&mut planned, &mut pool)
        })?;
        let [planned] = planned;
        let selection = log.time(sample.index, "core.finalize", Some(root), || {
            engine.finalize_request(planned)
        })?;
        log.close(root);

        // A novel request of the duplicate workload may have been served
        // a near-duplicate's score; everything else must match exactly.
        if (!spec.duplicates || sample.copy)
            && ranked_bits(&selection) != ranked_bits(&outcome.selection)
        {
            complaints.push(format!(
                "request {}: the in-process selection differs from the wire response",
                sample.index
            ));
        }

        // `core.plan` and `core.run` were pushed right after the root.
        let plan_run_us = log.spans[root + 1].duration_us() + log.spans[root + 2].duration_us();
        sums.add(&selection, plan_run_us);
        for (totals, (engine_name, _)) in span_totals.iter_mut().zip(ENGINE_SPANS) {
            let total = selection
                .trace
                .latency
                .span(engine_name)
                .map_or(0, |s| s.total_micros);
            totals.push(total as f64);
        }
        for span in selection.trace.latency.spans() {
            engine_spans.push(object(vec![
                ("request", json!(sample.index)),
                ("name", json!(span.name.as_str())),
                ("count", json!(span.count)),
                ("total_us", json!(span.total_micros)),
            ]));
        }
    }

    for (name, metric) in [
        ("core.plan", "core.plan_us"),
        ("core.run", "core.run_us"),
        ("core.finalize", "core.finalize_us"),
    ] {
        let (value, n) = p50(log.durations(name));
        m.set(metric, value, n);
    }
    for (totals, (_, metric)) in span_totals.iter().zip(ENGINE_SPANS) {
        m.set(metric, mean(totals), totals.len());
    }
    sums.report(m, spec);
    Ok(engine_spans)
}

/// The stepping pass on a resident twin: `gate_planned` and
/// `forward_planned_layer` timed per transformer layer. Returns the
/// per-layer means for the trace file.
fn stepping(
    m: &mut Measured,
    log: &mut SpanLog,
    replayed: &Replayed<'_>,
    engine: &PrismEngine,
    budget: Duration,
) -> Result<Vec<Value>, BenchError> {
    let Replayed { spec, source, pass } = *replayed;
    let started = Instant::now();
    let layers = spec.model.num_layers;
    let mut gate_us = vec![Vec::new(); layers];
    let mut forward_us = vec![Vec::new(); layers];
    let mut pool = Vec::new();
    for (sample, _) in pass.ok().take(REPLAY_REQUESTS) {
        if started.elapsed() > budget {
            break;
        }
        let request = source.request(sample.index);
        let root = log.open(sample.index, "step.request", None, None);
        let mut planned = engine.plan_request(&request.batch, request.options.clone())?;
        for layer in 0..layers {
            let id = log.open(sample.index, "core.gate", Some(layer), Some(root));
            engine.gate_planned(&mut planned, layer)?;
            log.close(id);
            gate_us[layer].push(log.spans[id].duration_us() as f64);
            if planned.is_done() {
                break;
            }
            let id = log.open(sample.index, "core.forward", Some(layer), Some(root));
            engine.forward_planned_layer(&mut planned, layer, &mut pool)?;
            log.close(id);
            forward_us[layer].push(log.spans[id].duration_us() as f64);
        }
        engine.finalize_request(planned)?;
        log.close(root);
    }
    let all = |per_layer: &[Vec<f64>]| per_layer.iter().flatten().copied().collect::<Vec<f64>>();
    let (gates, forwards) = (all(&gate_us), all(&forward_us));
    m.set("core.gate_us_per_layer", mean(&gates), gates.len());
    m.set("core.forward_us_per_layer", mean(&forwards), forwards.len());
    Ok((0..layers)
        .map(|layer| {
            object(vec![
                ("layer", json!(layer)),
                ("gate_us_mean", json!(mean(&gate_us[layer]))),
                ("forward_us_mean", json!(mean(&forward_us[layer]))),
                ("requests_reaching", json!(forward_us[layer].len())),
            ])
        })
        .collect())
}

pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
    out: &Path,
) -> Result<RunResult, BenchError> {
    let source = RequestSource::new(spec, seed);
    let mut m = Measured::default();
    let mut complaints = Vec::new();
    let mut log = SpanLog::new();

    // The untraced baseline runs on a stack of its own: both passes send
    // the same requests, and the second must not find the semantic cache
    // already holding the first one's corpora.
    let baseline_p50_ms = {
        let (stack, _) = Stack::start(spec, &source, dir)?;
        let pass = drive(&stack, spec, &source, seed, seconds * BASELINE_SHARE);
        percentile(&latencies_ms(&pass), 50.0)
    };

    let (stack, _) = Stack::start(spec, &source, dir)?;
    let before = Counters::read(stack.server().stats());
    let pass = drive(&stack, spec, &source, seed, seconds * WIRE_SHARE);
    let counters = Counters::read(stack.server().stats()).since(&before);
    wire_spans(&mut log, &pass);
    wire_metrics(&mut m, spec, &pass, &counters, &stack, baseline_p50_ms);
    ping(&mut m, &stack)?;
    let container = stack.container.clone();
    // The in-process passes get both cores.
    drop(stack);

    let failed = pass.failed();
    if failed > 0 {
        complaints.push(format!("{failed} requests failed on a healthy loopback"));
    }
    let Some((first, first_outcome)) = pass.ok().next() else {
        return Err(BenchError("the wire pass completed no request".into()));
    };
    let first_request = source.request(first.index);
    layers::wire(&mut m, &first_request, first_outcome);
    layers::serve(&mut m, &first_request.batch);
    layers::cluster(&mut m, spec, &first_outcome.selection.last_scores);
    layers::model_and_tensor(&mut m, spec, &container, &first_request.batch)?;
    layers::storage(&mut m, spec, &container, &first_request.batch, dir)?;

    let engine = open_engine(spec, &container, spec.engine.clone(), dir)?;
    if spec.duplicates {
        layers::semcache(&mut m, spec, &source, &engine)?;
    }
    let replayed = Replayed {
        spec,
        source: &source,
        pass: &pass,
    };
    let engine_spans = replay(
        &mut m,
        &mut log,
        &mut complaints,
        &replayed,
        &engine,
        Duration::from_secs_f64(seconds * REPLAY_SHARE),
    )?;
    drop(engine);

    let resident = EngineOptions {
        streaming: false,
        ..spec.engine.clone()
    };
    let twin = open_engine(spec, &container, resident, dir)?;
    let per_layer = stepping(
        &mut m,
        &mut log,
        &replayed,
        &twin,
        Duration::from_secs_f64(seconds * STEPPING_SHARE),
    )?;

    let document = object(vec![
        ("workload", json!(spec.name)),
        ("seed", json!(seed)),
        (
            "arrival",
            json!(match spec.arrival {
                Arrival::Open { .. } => "open",
                Arrival::Closed => "closed",
            }),
        ),
        ("spans", log.to_json()),
        ("engine_spans", Value::Array(engine_spans)),
        ("layers", Value::Array(per_layer)),
    ]);
    std::fs::write(
        out.join(format!("trace-{}.json", spec.name)),
        crate::json::to_line(&document),
    )?;

    Ok(RunResult {
        workload: spec.name,
        seed,
        traced: true,
        correct: complaints.is_empty(),
        attempted: pass.samples.len(),
        failed,
        metrics: m.resolve(PER_LAYER),
        complaints,
    })
}
