//! `repro sim-validate`: calibrate the serving metasim against the real
//! engine and validate its predictions against measured serving runs.
//!
//! The harness measures five closed-loop scenarios on a streamed engine
//! behind the emulated 16 MB/s SSD (serial / batched / cached serving,
//! FIFO / priority-then-EDF scheduling), fits an affine service-time
//! model from the runs' own server-side stats, replays every scenario
//! through [`prism_metasim::simulate_closed_loop`] with that calibration
//! and the *same* `LoadSpec` and `ServeConfig` values, and checks
//! predicted throughput and tail latency within [`SIM_TOLERANCE`] of
//! measured. The result lands in `target/repro/sim-validate.json`; an
//! out-of-tolerance row is the command's non-zero exit. Nightly CI runs
//! it in full mode — the fast request counts are too few to gate a PR on.

use prism_core::{EngineOptions, PrismEngine};
use prism_metasim::{simulate_closed_loop, Calibration, ServiceModel};
use prism_metrics::MemoryMeter;
use prism_model::{Model, ModelArch, ModelConfig};
use prism_serve::{run_closed_loop, LoadReport, LoadSpec, PrismServer, ServeConfig};
use prism_storage::Container;
use serde::Serialize;

use crate::report::Report;

/// Relative tolerance of the validation gate: predicted throughput and
/// p99 must land within 15% of measured.
pub const SIM_TOLERANCE: f64 = 0.15;

/// One scenario's predicted-versus-measured comparison.
#[derive(Debug, Clone, Serialize)]
pub struct MetasimRow {
    /// Scenario label (`serving/serial`, `scheduling/fifo`, ...).
    pub scenario: String,
    /// Simulated throughput, requests per virtual second.
    pub predicted_rps: f64,
    /// Measured throughput, requests per wall second.
    pub measured_rps: f64,
    /// `predicted_rps / measured_rps`.
    pub rps_ratio: f64,
    /// Simulated overall p99 latency, microseconds.
    pub predicted_p99_us: u64,
    /// Measured overall p99 latency, microseconds.
    pub measured_p99_us: u64,
    /// `predicted_p99_us / measured_p99_us`.
    pub p99_ratio: f64,
    /// Service-time jitter allowance added to the p99 band: the measured
    /// run's own batch-service p99 minus mean, microseconds.
    pub p99_jitter_allowance_us: u64,
    /// Throughput ratio within [`SIM_TOLERANCE`] of 1.0 and p99 within
    /// the jitter-widened band.
    pub within_tolerance: bool,
}

/// The payload of `target/repro/sim-validate.json`.
#[derive(Debug, Serialize)]
pub struct MetasimSection {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Relative tolerance both ratios are held to.
    pub tolerance: f64,
    /// Affine service model fitted on the real engine for this run.
    pub calibration: Calibration,
    /// Per-scenario comparisons.
    pub rows: Vec<MetasimRow>,
    /// Every row within tolerance (the exit code).
    pub validated: bool,
}

/// Fits the affine service model from the measured serving runs' own
/// server-side stats snapshots: the serial run provides the
/// single-request batch shape, the batched run the coalesced shape.
/// Calibrating from the *same* runs the predictions are compared against
/// keeps the gate about the scheduling model — service times on a busy
/// host drift 25-100% between separate measurement passes, which would
/// otherwise dominate the error budget.
fn serving_calibration(serial: &LoadReport, batched: &LoadReport) -> Calibration {
    let (serial, batched) = (serial.server_stats(), batched.server_stats());
    let a = (
        1_usize,
        serial.batch_tokens.mean.round() as u64,
        serial.service_us.mean.round() as u64,
    );
    let b = (
        (batched.batch_size.mean.round() as usize).max(2),
        batched.batch_tokens.mean.round() as u64,
        batched.service_us.mean.round() as u64,
    );
    Calibration::fit_two_points(a, b)
}

/// Derives the scheduling scenarios' calibration from the FIFO run's
/// snapshot, reusing the serving token slope (the scheduling scenarios
/// run a tighter coalescing cap, so their mean batch cost differs from
/// the serving fit's operating points).
fn scheduling_calibration(per_token_us: f64, fifo: &LoadReport) -> Calibration {
    let fifo = fifo.server_stats();
    let fixed = (fifo.service_us.mean - per_token_us * fifo.batch_tokens.mean).max(0.0);
    Calibration {
        batch_fixed_us: fixed,
        per_request_us: 0.0,
        per_token_us,
    }
}

fn ratio(predicted: f64, measured: f64) -> f64 {
    if measured > 0.0 {
        predicted / measured
    } else {
        0.0
    }
}

fn row(
    scenario: &str,
    predicted_rps: f64,
    measured_rps: f64,
    predicted_p99_us: u64,
    measured_p99_us: u64,
    p99_jitter_allowance_us: u64,
) -> MetasimRow {
    let rps_ratio = ratio(predicted_rps, measured_rps);
    let p99_ratio = ratio(predicted_p99_us as f64, measured_p99_us as f64);
    let p99_band = SIM_TOLERANCE * measured_p99_us as f64 + p99_jitter_allowance_us as f64;
    let p99_within =
        measured_p99_us > 0 && (predicted_p99_us as f64 - measured_p99_us as f64).abs() <= p99_band;
    let within_tolerance = (rps_ratio - 1.0).abs() <= SIM_TOLERANCE && p99_within;
    MetasimRow {
        scenario: scenario.to_string(),
        predicted_rps,
        measured_rps,
        rps_ratio,
        predicted_p99_us,
        measured_p99_us,
        p99_ratio,
        p99_jitter_allowance_us,
        within_tolerance,
    }
}

/// Simulates one scenario and compares overall throughput and p99
/// against its measured [`LoadReport`]. Returns the row plus the
/// predicted-vs-measured high-class p99 (informational: in mixed runs
/// the high class holds only a handful of samples, so its p99 is a max
/// over ~5 observations — far too noisy to gate on).
///
/// The calibrated service model is deterministic (mean cost per batch
/// shape), so the simulated end-to-end p99 captures queueing structure
/// but not per-batch service jitter. The p99 acceptance band is
/// therefore widened by the measured run's own service-time tail excess
/// (batch-service p99 minus mean — a platform input, not a scheduling
/// phenomenon the simulator could predict).
fn scenario_row(
    model: &ModelConfig,
    calibration: Calibration,
    scenario: &Scenario,
    measured: &LoadReport,
) -> (MetasimRow, Option<(u64, u64)>) {
    let predicted = simulate_closed_loop(
        model,
        &scenario.spec,
        &scenario.serve,
        ServiceModel::calibrated(calibration),
        scenario.name,
        None,
    );
    let high = match (predicted.class("high"), measured.class("high")) {
        (Some(p), Some(m)) => Some((p.p99_us, m.p99_us)),
        _ => None,
    };
    let service_us = &measured.server_stats().service_us;
    let tail_excess = service_us
        .p99
        .saturating_sub(service_us.mean.round() as u64);
    (
        row(
            scenario.name,
            predicted.run.throughput_rps,
            measured.throughput_rps,
            predicted.run.p99_us,
            measured.p99_us,
            tail_excess,
        ),
        high,
    )
}

/// One closed-loop scenario: what is offered and how it is served. The
/// measured run and the simulated replay both read these values.
struct Scenario {
    name: &'static str,
    spec: LoadSpec,
    serve: ServeConfig,
}

/// The serving scenarios: 1 worker without batching, coalescing up to 8
/// requests, and coalescing plus the session cache on a repeat-heavy
/// corpus stream.
fn serving_scenarios(fast: bool) -> Vec<Scenario> {
    let spec = LoadSpec {
        requests: if fast { 16 } else { 48 },
        clients: 8,
        candidates: 12,
        ..Default::default()
    };
    let coalescing = ServeConfig {
        workers: 1,
        max_batch_requests: 8,
        ..Default::default()
    };
    vec![
        Scenario {
            name: "serving/serial",
            spec: spec.clone(),
            serve: ServeConfig::serial(),
        },
        Scenario {
            name: "serving/batched",
            spec: spec.clone(),
            serve: ServeConfig {
                session_cache_capacity: 0,
                ..coalescing.clone()
            },
        },
        Scenario {
            name: "serving/cached",
            spec: LoadSpec {
                corpus_repeat: 4,
                ..spec
            },
            serve: coalescing,
        },
    ]
}

/// The scheduling scenarios: a mixed workload (10% High-priority with
/// deadlines, 90% bulk) served by the pure-FIFO baseline and by
/// priority-then-EDF under identical budgets.
fn scheduling_scenarios(fast: bool) -> Vec<Scenario> {
    let spec = LoadSpec {
        requests: if fast { 42 } else { 84 },
        clients: 14,
        candidates: 12,
        high_fraction: 0.1,
        // Generous: no shedding.
        high_deadline_us: Some(30_000_000),
        ..Default::default()
    };
    let serve = |priority_scheduling| ServeConfig {
        workers: 1,
        // A small batch cap under many closed-loop clients keeps the
        // queue deep, so admission *order* (not coalescing) dominates
        // waiting time — the regime the priority scheduler targets.
        max_batch_requests: 2,
        session_cache_capacity: 0,
        priority_scheduling,
        // On the emulated SSD a full queue takes ~100 ms to drain; the
        // starvation guard must sit above that or every aged bulk
        // request outranks High and the policy degrades back to FIFO.
        starvation_age: std::time::Duration::from_secs(2),
        ..Default::default()
    };
    vec![
        Scenario {
            name: "scheduling/fifo",
            spec: spec.clone(),
            serve: serve(false),
        },
        Scenario {
            name: "scheduling/priority_edf",
            spec,
            serve: serve(true),
        },
    ]
}

/// Runs each scenario closed-loop against a fresh streamed engine on the
/// emulated 16 MB/s SSD and returns the reports in scenario order.
fn measure(model: &ModelConfig, scenarios: &[Scenario]) -> Vec<LoadReport> {
    let weights = Model::generate(model.clone(), 7).expect("model");
    let mut path = std::env::temp_dir();
    path.push(format!("prism-sim-validate-{}.prsm", std::process::id()));
    weights.write_container(&path).expect("container");
    let reports = scenarios
        .iter()
        .map(|s| {
            let engine = PrismEngine::new(
                Container::open(&path).expect("open"),
                model.clone(),
                EngineOptions {
                    stream_throttle: Some(16_000_000),
                    // Serving pins the embedding table; layers still stream.
                    embed_cache: false,
                    ..Default::default()
                },
                MemoryMeter::new(),
            )
            .expect("engine");
            let server = PrismServer::start(engine, s.serve.clone()).expect("server");
            let report = run_closed_loop(&server, &s.spec);
            server.shutdown();
            report
        })
        .collect();
    std::fs::remove_file(&path).ok();
    reports
}

/// Runs the calibration + validation harness, writes
/// `target/repro/sim-validate.{txt,json}`, and returns `Err` when any
/// scenario is out of tolerance.
pub fn sim_validate(fast: bool) -> Result<(), String> {
    let mut report = Report::new("sim-validate");
    let mode = if fast { "fast" } else { "full" };
    report.line(&format!("serving metasim validation ({mode} mode)"));

    let model = ModelConfig::test_config(ModelArch::DecoderOnly, 12);
    let mut rows = Vec::new();

    // --- Serving scenarios (serial, batched, cached).
    let serving = serving_scenarios(fast);
    let measured = measure(&model, &serving);
    let calibration = serving_calibration(&measured[0], &measured[1]);
    report.line(&format!(
        "calibrated from measured serving runs: fixed {:.0} us/batch + {:.2} us/token",
        calibration.batch_fixed_us, calibration.per_token_us
    ));
    for (s, m) in serving.iter().zip(&measured) {
        rows.push(scenario_row(&model, calibration, s, m).0);
    }

    // --- Scheduling scenarios (FIFO vs priority-then-EDF, overall p99).
    let scheduling = scheduling_scenarios(fast);
    let measured = measure(&model, &scheduling);
    let sched_cal = scheduling_calibration(calibration.per_token_us, &measured[0]);
    report.line(&format!(
        "scheduling calibration (FIFO snapshot): fixed {:.0} us/batch + {:.2} us/token",
        sched_cal.batch_fixed_us, sched_cal.per_token_us
    ));
    for (s, m) in scheduling.iter().zip(&measured) {
        let (r, high) = scenario_row(&model, sched_cal, s, m);
        if let Some((pred, meas)) = high {
            report.line(&format!(
                "{:<25} high-class p99 {pred} vs {meas} us (informational: ~{} samples)",
                s.name,
                m.class("high").map_or(0, |c| c.completed)
            ));
        }
        rows.push(r);
    }

    for r in &rows {
        report.line(&format!(
            "{:<25} rps {:>8.1} vs {:>8.1} ({:>5.2}x)  p99 {:>8} vs {:>8} us ({:>5.2}x)  {}",
            r.scenario,
            r.predicted_rps,
            r.measured_rps,
            r.rps_ratio,
            r.predicted_p99_us,
            r.measured_p99_us,
            r.p99_ratio,
            if r.within_tolerance { "ok" } else { "OUT" }
        ));
    }
    let validated = rows.iter().all(|r| r.within_tolerance);
    let section = MetasimSection {
        mode: mode.into(),
        tolerance: SIM_TOLERANCE,
        calibration,
        rows,
        validated,
    };
    report.line(&format!(
        "validated: {validated} (tolerance {:.0}%)",
        SIM_TOLERANCE * 100.0
    ));
    report.finish(&section);
    if validated {
        Ok(())
    } else {
        Err(format!(
            "sim-validate: predictions out of the {:.0}% tolerance",
            SIM_TOLERANCE * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_rows_classify() {
        let good = row("s", 100.0, 95.0, 1_000, 1_050, 0);
        assert!(good.within_tolerance);
        let bad_rps = row("s", 100.0, 70.0, 1_000, 1_000, 0);
        assert!(!bad_rps.within_tolerance);
        let bad_p99 = row("s", 100.0, 100.0, 2_000, 1_000, 0);
        assert!(!bad_p99.within_tolerance);
        // The same p99 miss passes when the measured run's own service
        // jitter accounts for the gap.
        let jitter_rescued = row("s", 100.0, 100.0, 2_000, 1_000, 900);
        assert!(jitter_rescued.within_tolerance);
        let zero_measured = row("s", 100.0, 0.0, 1_000, 0, 0);
        assert!(!zero_measured.within_tolerance);
    }
}
