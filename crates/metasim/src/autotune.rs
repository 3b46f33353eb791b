//! `ServeConfig` auto-tuning: sweep the scheduling knobs through the
//! simulator and pick the configuration with the best simulated
//! throughput (ties broken by tail latency).
//!
//! Because a simulated run costs microseconds instead of minutes, the
//! sweep can afford a full grid over batch budget, coalescing wait,
//! starvation age and cache size per device — the tuned defaults that
//! `prsm simulate-serve --tune` reports and that seeded
//! `ServeConfig::default`'s scheduling knobs. The current default
//! configuration is always part of the grid, so the winner is never
//! worse than the shipping default *under the model*.

use std::time::Duration;

use prism_device::{DeviceSpec, ServeBatchCost};
use prism_model::ModelConfig;
use prism_serve::{LoadSpec, ServeConfig};
use serde::Serialize;

use crate::closed_loop::simulate_closed_loop;
use crate::report::SimReport;
use crate::service::ServiceModel;

/// One evaluated grid point.
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// Knobs of this point.
    pub max_batch_requests: usize,
    /// Coalescing wait bound, microseconds.
    pub max_batch_wait_us: u64,
    /// Starvation promotion age, microseconds.
    pub starvation_age_us: u64,
    /// Session-cache capacity (sessions).
    pub session_cache_capacity: usize,
    /// Simulated throughput, requests per virtual second.
    pub throughput_rps: f64,
    /// Simulated 99th percentile latency, microseconds.
    pub p99_us: u64,
}

/// Outcome of one tuning sweep.
#[derive(Debug, Clone, Serialize)]
pub struct TuneOutcome {
    /// Every evaluated point, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Index into `points` of the winner.
    pub best: usize,
    /// The winner's simulated report.
    pub report: SimReport,
}

impl TuneOutcome {
    /// The winning configuration materialized over `base`.
    pub fn best_config(&self, base: &ServeConfig) -> ServeConfig {
        let p = &self.points[self.best];
        ServeConfig {
            max_batch_requests: p.max_batch_requests,
            max_batch_wait: Duration::from_micros(p.max_batch_wait_us),
            starvation_age: Duration::from_micros(p.starvation_age_us),
            session_cache_capacity: p.session_cache_capacity,
            ..base.clone()
        }
    }
}

/// The canonical tuning workload: enough concurrency to expose
/// coalescing and cache behaviour, mixed priorities to exercise the
/// scheduler, moderate corpus reuse.
pub fn tuning_workload() -> LoadSpec {
    LoadSpec {
        requests: 384,
        clients: 16,
        sessions: 8,
        corpus_repeat: 2,
        high_fraction: 0.1,
        high_deadline_us: Some(30_000_000),
        ..Default::default()
    }
}

/// Sweeps the scheduling knobs of `base` over a fixed grid (the base
/// point included) and returns every evaluated point plus the winner:
/// highest simulated throughput, ties broken by lower p99, then by grid
/// order. Deterministic: same inputs, same winner.
pub fn tune(
    model: &ModelConfig,
    base: &ServeConfig,
    service: &ServiceModel,
    workload: &LoadSpec,
) -> TuneOutcome {
    let mut grid: Vec<ServeConfig> = vec![base.clone()];
    for &requests in &[1_usize, 2, 4, 8, 16] {
        for &wait_us in &[500_u64, 1_000, 2_000, 5_000] {
            for &starve_us in &[10_000_u64, 50_000, 200_000] {
                for &cache in &[0_usize, 64, 256] {
                    let candidate = ServeConfig {
                        max_batch_requests: requests,
                        max_batch_wait: Duration::from_micros(wait_us),
                        // The validator requires starvation age >= wait.
                        starvation_age: Duration::from_micros(starve_us.max(wait_us)),
                        session_cache_capacity: cache,
                        ..base.clone()
                    };
                    grid.push(candidate);
                }
            }
        }
    }

    let mut points = Vec::with_capacity(grid.len());
    let mut best = 0_usize;
    let mut best_report: Option<SimReport> = None;
    for (i, candidate) in grid.iter().enumerate() {
        let report =
            simulate_closed_loop(model, workload, candidate, service.clone(), "tune", None);
        let run = &report.run;
        let point = SweepPoint {
            max_batch_requests: candidate.max_batch_requests,
            max_batch_wait_us: candidate.max_batch_wait.as_micros() as u64,
            starvation_age_us: candidate.starvation_age.as_micros() as u64,
            session_cache_capacity: candidate.session_cache_capacity,
            throughput_rps: run.throughput_rps,
            p99_us: run.p99_us,
        };
        let better = match best_report.as_ref().map(|b| &b.run) {
            None => true,
            Some(b) => {
                run.throughput_rps > b.throughput_rps
                    || (run.throughput_rps == b.throughput_rps && run.p99_us < b.p99_us)
            }
        };
        if better {
            best = i;
            best_report = Some(report);
        }
        points.push(point);
    }
    TuneOutcome {
        points,
        best,
        report: best_report.expect("non-empty grid"),
    }
}

/// Tunes for a device using the analytic cost model and the canonical
/// tuning workload — the entry point behind `prsm simulate-serve --tune`.
pub fn tune_for_device(
    model: &ModelConfig,
    device: &DeviceSpec,
    base: &ServeConfig,
) -> TuneOutcome {
    let service = ServiceModel::analytic(ServeBatchCost::new(model.clone(), device.clone()));
    tune(model, base, &service, &tuning_workload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Calibration;
    use prism_model::ModelArch;

    #[test]
    fn tuned_config_is_never_worse_than_base_under_the_model() {
        let model = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
        let base = ServeConfig::default();
        let service = ServiceModel::calibrated(Calibration {
            batch_fixed_us: 4_000.0,
            per_request_us: 200.0,
            per_token_us: 2.0,
        });
        let workload = LoadSpec {
            requests: 96,
            clients: 8,
            sessions: 4,
            corpus_repeat: 2,
            ..Default::default()
        };
        let outcome = tune(&model, &base, &service, &workload);
        // Grid point 0 *is* the base config: the winner can only match
        // or beat it.
        let base_point = &outcome.points[0];
        let winner = &outcome.points[outcome.best];
        assert!(
            winner.throughput_rps >= base_point.throughput_rps,
            "winner {} rps vs base {} rps",
            winner.throughput_rps,
            base_point.throughput_rps
        );
        let tuned = outcome.best_config(&base);
        tuned.validate().expect("tuned config must validate");
        assert_eq!(tuned.workers, base.workers, "only scheduling knobs move");
    }

    #[test]
    fn sweep_is_deterministic() {
        let model = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
        let base = ServeConfig::default();
        let service = ServiceModel::calibrated(Calibration {
            batch_fixed_us: 2_000.0,
            per_request_us: 100.0,
            per_token_us: 1.0,
        });
        let workload = LoadSpec {
            requests: 48,
            clients: 6,
            ..Default::default()
        };
        let a = tune(&model, &base, &service, &workload);
        let b = tune(&model, &base, &service, &workload);
        assert_eq!(a.best, b.best);
        assert_eq!(a.report.digest, b.report.digest);
        assert_eq!(a.points.len(), b.points.len());
    }

    /// Full-fidelity sweep (3 presets x 181 points x 384 requests):
    /// ~2 s in release, minutes in debug — nightly CI runs it with
    /// `--release -- --ignored` next to the million-request soak.
    #[test]
    #[ignore]
    fn shipped_tuned_defaults_match_a_fresh_sweep() {
        use prism_metrics::MemoryMeter;
        // `ServeConfig`'s defaults ship the paper-scale sweep winners as
        // constants (it cannot depend on this crate), and `for_device`
        // keeps them; a fresh sweep per device preset must reproduce
        // them or the constants are stale.
        let model = ModelConfig::bge_m3();
        for device in [
            prism_device::DeviceSpec::rtx5070_laptop(),
            prism_device::DeviceSpec::apple_m2(),
            prism_device::DeviceSpec::a800(),
        ] {
            let outcome = tune_for_device(&model, &device, &ServeConfig::default());
            let winner = &outcome.points[outcome.best];
            let shipped = ServeConfig::for_device(&model, &device, &MemoryMeter::new());
            assert_eq!(
                shipped.max_batch_requests, winner.max_batch_requests,
                "{}: stale batch budget",
                device.name
            );
            assert_eq!(
                shipped.max_batch_wait.as_micros() as u64,
                winner.max_batch_wait_us,
                "{}: stale coalescing wait",
                device.name
            );
            assert_eq!(
                shipped.starvation_age.as_micros() as u64,
                winner.starvation_age_us,
                "{}: stale starvation bound",
                device.name
            );
            assert_eq!(
                shipped.session_cache_capacity, winner.session_cache_capacity,
                "{}: stale cache size",
                device.name
            );
            shipped.validate().expect("tuned config must validate");
            // The tuned point can never be worse than the shipping
            // default under the model: the default is grid point 0.
            assert!(winner.throughput_rps >= outcome.points[0].throughput_rps);
        }
    }

    #[test]
    fn device_entry_point_runs_on_presets() {
        let model = ModelConfig::test_config(ModelArch::DecoderOnly, 4);
        let base = ServeConfig::default();
        let workload = LoadSpec {
            requests: 32,
            clients: 4,
            ..Default::default()
        };
        // Exercise the analytic path on a real device preset with a
        // reduced grid via `tune` (full presets sweep lives behind the
        // CLI); here just prove the analytic service model composes.
        let service = ServiceModel::analytic(ServeBatchCost::new(
            model.clone(),
            prism_device::DeviceSpec::apple_m2(),
        ));
        let outcome = tune(&model, &base, &service, &workload);
        assert!(outcome.report.run.completed > 0);
        assert!(!outcome.points.is_empty());
    }
}
