//! The metric registry — every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound — and the printing.
//! `BENCHMARK.json` at the repository root mirrors this table; a unit
//! test holds the two together.

use std::collections::BTreeMap;

use serde_json::{json, Value};

use crate::json::object;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric's fixed description.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a caller of the service sees, the same six on every workload.
///
/// A bound holds on all four workloads, so the noisiest one sets it. The
/// three timings carry the widest bound a benchmark may state because
/// `wide_closed` is compute-bound on a shared two-core VM whose speed
/// drifts by tens of percent for minutes at a time; memory and precision
/// repeat to within 2 % across seeds (README, "How steady").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p90_ms", "ms", Better::Lower, 0.25),
    e2e("peak_mem_bytes", "B", Better::Lower, 0.05),
    e2e("precision_at_k", "share", Better::Higher, 0.06),
];

/// One block per crate on the request path, in request order.
pub const PER_LAYER: &[MetricDef] = &[
    // The load generator itself: is the open loop valid, how did it go.
    lower("loadgen.lag_p95_us", "us"),
    higher("loadgen.sent", "count"),
    higher("loadgen.succeeded", "count"),
    lower("loadgen.failed", "count"),
    lower("client.latency_p95_ms", "ms"),
    lower("client.latency_p99_ms", "ms"),
    lower("client.hit_latency_p50_ms", "ms"),
    lower("client.miss_latency_p50_ms", "ms"),
    // prism-wire
    lower("wire.submit_encode_us", "us"),
    lower("wire.submit_decode_us", "us"),
    lower("wire.result_encode_us", "us"),
    lower("wire.result_decode_us", "us"),
    lower("wire.submit_frame_bytes", "B"),
    lower("wire.result_frame_bytes", "B"),
    lower("wire.ping_rtt_us", "us"),
    lower("wire.residual_us", "us"),
    // prism-api
    lower("api.submit_us", "us"),
    lower("api.wait_us", "us"),
    // prism-serve
    lower("serve.queued_us_p50", "us"),
    lower("serve.queued_us_p95", "us"),
    lower("serve.service_us_p50", "us"),
    higher("serve.batch_size_mean", "count"),
    lower("serve.passes_per_request", "count"),
    lower("serve.queue_depth_peak", "count"),
    lower("serve.rejected", "count"),
    higher("serve.session_embed_hits", "count"),
    higher("serve.session_selection_hits", "count"),
    lower("serve.plan_decide_ns", "ns"),
    lower("serve.fingerprint_us", "us"),
    // prism-semcache
    higher("semcache.hit_ratio", "share"),
    lower("semcache.fallbacks", "count"),
    lower("semcache.bytes", "B"),
    lower("semcache.pool_us", "us"),
    lower("semcache.probe_us", "us"),
    lower("semcache.harvest_us", "us"),
    // prism-core
    lower("core.plan_us", "us"),
    lower("core.run_us", "us"),
    lower("core.finalize_us", "us"),
    lower("core.gate_us_per_layer", "us"),
    lower("core.forward_us_per_layer", "us"),
    lower("core.executed_layers_mean", "count"),
    lower("core.candidate_layers_share", "share"),
    higher("core.gate_fired_share", "share"),
    lower("core.span.embed_us", "us"),
    lower("core.span.stream_wait_us", "us"),
    lower("core.span.forward_us", "us"),
    lower("core.span.score_us", "us"),
    lower("core.span.gate_us", "us"),
    lower("core.span.prune_us", "us"),
    lower("core.span.spill_wait_us", "us"),
    lower("core.span.quantize_us", "us"),
    lower("core.unattributed_share", "share"),
    // prism-cluster
    lower("cluster.cv_ns", "ns"),
    lower("cluster.kmeans_auto_us", "us"),
    // prism-model
    lower("model.forward_layer_f32_us", "us"),
    lower("model.forward_layer_int8_us", "us"),
    lower("model.score_us", "us"),
    lower("model.layer_macs", "count"),
    // prism-tensor
    lower("tensor.matmul_transb_ns", "ns"),
    lower("tensor.igemm_ns", "ns"),
    lower("tensor.rowq_encode_ns", "ns"),
    lower("tensor.rowq_decode_ns", "ns"),
    lower("tensor.gemm_bytes", "B"),
    // prism-storage
    lower("storage.stream_bytes_per_req", "B"),
    lower("storage.stream_io_us_per_req", "us"),
    lower("storage.stream_wait_us_per_req", "us"),
    higher("storage.stream_overlap", "share"),
    lower("storage.stream_next_us", "us"),
    lower("storage.spill_bytes_per_req", "B"),
    lower("storage.spill_wait_us_per_req", "us"),
    higher("storage.spill_overlap", "share"),
    lower("storage.spill_quarantined", "count"),
    lower("storage.spill_roundtrip_us", "us"),
    higher("storage.embed_hit_ratio", "share"),
    // prism-metrics: the meter decomposes peak_mem_bytes.
    lower("mem.peak_layer_weights_bytes", "B"),
    lower("mem.peak_embedding_bytes", "B"),
    lower("mem.peak_intermediate_bytes", "B"),
    lower("mem.peak_hidden_bytes", "B"),
    // The tracing itself.
    lower("trace.overhead_share", "share"),
];

/// Values measured in one run, keyed by registry name.
#[derive(Debug, Default)]
pub struct Measured(BTreeMap<&'static str, (f64, usize)>);

impl Measured {
    /// Records `value`, computed over `samples` samples (1 for a count
    /// or a computed quantity).
    ///
    /// # Panics
    /// On a name the registry does not know: that is a typo in this
    /// program, and the metric would otherwise silently go missing.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the registry"
        );
        self.0.insert(name, (value, samples));
    }

    /// The value of every metric of `defs`, zero where the layer was idle.
    pub fn resolve(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64, usize)> {
        defs.iter()
            .map(|def| {
                let (value, samples) = self.0.get(def.name).copied().unwrap_or((0.0, 0));
                (*def, value, samples)
            })
            .collect()
    }
}

/// The outcome of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(MetricDef, f64, usize)>,
    /// Why `correct` is false, one line per failed check.
    pub complaints: Vec<String>,
}

impl RunResult {
    /// Every metric by name, with unit and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} (seed {}, {}) attempted {} failed {} correct {}",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.correct,
        );
        for (def, value, samples) in &self.metrics {
            println!(
                "{:<14} {:<34} {:>16.4} {:<6} n={}",
                self.workload, def.name, value, def.unit, samples
            );
        }
        for complaint in &self.complaints {
            println!("CHECK FAILED [{}]: {complaint}", self.workload);
        }
    }

    /// `correct`, `attempted`, `failed` and `metrics`, in that order.
    fn result_fields(&self) -> Vec<(&str, Value)> {
        let metrics = self
            .metrics
            .iter()
            .map(|(def, value, _)| {
                let entry = object(vec![("value", json!(*value)), ("unit", json!(def.unit))]);
                (def.name, entry)
            })
            .collect();
        vec![
            ("correct", json!(self.correct)),
            ("attempted", json!(self.attempted)),
            ("failed", json!(self.failed)),
            ("metrics", object(metrics)),
        ]
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn driver_line(&self) -> Value {
        object(self.result_fields())
    }

    /// The line appended to `<out>/results.jsonl`: what `--compare` needs
    /// to group runs, then the driver line's fields.
    pub fn record_line(&self) -> Value {
        let mut fields = vec![
            ("workload", json!(self.workload)),
            ("seed", json!(self.seed)),
            ("traced", json!(self.traced)),
        ];
        fields.extend(self.result_fields());
        object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec;

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        match json::get(doc, key) {
            Some(Value::Array(items)) => items,
            _ => panic!("BENCHMARK.json has no array `{key}`"),
        }
    }

    fn names_in(doc: &Value, key: &str) -> Vec<String> {
        entries(doc, key)
            .iter()
            .map(|m| json::string(json::get(m, "name").unwrap()).to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_names_are_the_names_the_binary_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let printed =
            |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in(&doc, "end_to_end"), printed(END_TO_END));
        assert_eq!(names_in(&doc, "per_layer"), printed(PER_LAYER));
        let workloads: Vec<String> = spec::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names_in(&doc, "workloads"), workloads);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for (entry, def) in entries(&doc, key).iter().zip(defs) {
                assert_eq!(json::string(json::get(entry, "unit").unwrap()), def.unit);
                assert_eq!(
                    json::string(json::get(entry, "better").unwrap()),
                    match def.better {
                        Better::Lower => "lower",
                        Better::Higher => "higher",
                    }
                );
                if let Some(bound) = def.bound {
                    assert_eq!(json::number(json::get(entry, "bound").unwrap()), bound);
                }
            }
        }
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_alphabet() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} is used twice", def.name);
            assert!(
                def.name.len() <= 64 && def.name.starts_with(|c: char| c.is_ascii_alphanumeric())
            );
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
