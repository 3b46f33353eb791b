//! Service-time models for the simulated worker pool.
//!
//! The simulator charges one coalesced batch a deterministic number of
//! virtual microseconds. Two models exist:
//!
//! * [`ServiceModel::Analytic`] — the `prism-device` cost model
//!   ([`ServeBatchCost`]): per-layer compute at batch-level utilization,
//!   weight streaming overlapped behind compute, and the §4.3 spill-byte
//!   terms. Used by `prsm simulate-serve`, where no measurement exists.
//! * [`ServiceModel::Calibrated`] — an affine fit
//!   `fixed + per_request·n + per_token·T` whose coefficients come from
//!   timing the *real* engine on known batch shapes. Used by
//!   `repro sim-validate` so predicted throughput/p99 can be compared
//!   against measured numbers on the same host.

use prism_device::{ScatterGatherCost, ServeBatchCost};
use serde::Serialize;

/// Maps a batch shape to virtual service time.
#[derive(Debug, Clone)]
pub enum ServiceModel {
    /// Analytic device cost model (no measurement needed).
    Analytic(Box<ServeBatchCost>),
    /// Analytic scatter-gather model: the batch's candidates split
    /// across engine shards behind the forward map, with the
    /// coordinator's per-layer gate priced in (parallel or colocated
    /// deployment per [`ScatterGatherCost::parallel_shards`]).
    Sharded(Box<ScatterGatherCost>),
    /// Affine model fitted to measured engine timings.
    Calibrated(Calibration),
}

/// Coefficients of the calibrated affine service-time model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Calibration {
    /// Fixed cost per batch in microseconds (weight streaming, dispatch).
    pub batch_fixed_us: f64,
    /// Marginal cost per request in microseconds (planning, scoring,
    /// reply).
    pub per_request_us: f64,
    /// Marginal cost per packed token in microseconds.
    pub per_token_us: f64,
}

impl Calibration {
    /// Fits the fixed and per-token terms from two measured points
    /// `(requests, tokens, micros)` — typically a single-request batch
    /// and a full coalesced batch timed on the real engine. The
    /// per-request term is folded into the two fitted coefficients
    /// (identifiable only with a third independent shape, which the
    /// validation harness does not need).
    pub fn fit_two_points(a: (usize, u64, u64), b: (usize, u64, u64)) -> Calibration {
        let (small, large) = if a.1 <= b.1 { (a, b) } else { (b, a) };
        let dt = large.2 as f64 - small.2 as f64;
        let dtok = (large.1 as f64 - small.1 as f64).max(1.0);
        let per_token_us = (dt / dtok).max(0.0);
        let batch_fixed_us = (small.2 as f64 - per_token_us * small.1 as f64).max(0.0);
        Calibration {
            batch_fixed_us,
            per_request_us: 0.0,
            per_token_us,
        }
    }
}

impl ServiceModel {
    /// An analytic model from the device cost hooks.
    pub fn analytic(cost: ServeBatchCost) -> Self {
        ServiceModel::Analytic(Box::new(cost))
    }

    /// A calibrated affine model.
    pub fn calibrated(c: Calibration) -> Self {
        ServiceModel::Calibrated(c)
    }

    /// An analytic scatter-gather model over `shards` engine shards.
    pub fn sharded(cost: ScatterGatherCost) -> Self {
        ServiceModel::Sharded(Box::new(cost))
    }

    /// Virtual microseconds one batch of `requests` requests totalling
    /// `tokens` packed tokens occupies a worker. Always at least 1 for a
    /// non-empty batch so virtual time advances.
    pub fn batch_micros(&self, requests: usize, tokens: u64) -> u64 {
        if requests == 0 {
            return 0;
        }
        match self {
            ServiceModel::Analytic(cost) => cost.batch_micros(requests, tokens),
            ServiceModel::Sharded(cost) => cost.batch_micros(requests, tokens),
            ServiceModel::Calibrated(c) => {
                let us = c.batch_fixed_us
                    + c.per_request_us * requests as f64
                    + c.per_token_us * tokens as f64;
                (us.round() as u64).max(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_device::DeviceSpec;
    use prism_model::{ModelArch, ModelConfig};

    #[test]
    fn calibration_recovers_affine_points() {
        // t(1, 100) = 5_000, t(8, 800) = 12_000: slope 10 us/token,
        // fixed 4_000 us.
        let c = Calibration::fit_two_points((1, 100, 5_000), (8, 800, 12_000));
        assert!((c.per_token_us - 10.0).abs() < 1e-9);
        assert!((c.batch_fixed_us - 4_000.0).abs() < 1e-9);
        let m = ServiceModel::calibrated(c);
        assert_eq!(m.batch_micros(1, 100), 5_000);
        assert_eq!(m.batch_micros(8, 800), 12_000);
        assert_eq!(m.batch_micros(0, 0), 0);
        // Argument order must not matter.
        let swapped = Calibration::fit_two_points((8, 800, 12_000), (1, 100, 5_000));
        assert!((swapped.per_token_us - c.per_token_us).abs() < 1e-12);
    }

    #[test]
    fn degenerate_fit_stays_non_negative() {
        // A noisy pair where the big batch measured *faster* must not
        // produce negative coefficients.
        let c = Calibration::fit_two_points((1, 100, 5_000), (8, 800, 3_000));
        assert!(c.per_token_us >= 0.0 && c.batch_fixed_us >= 0.0);
    }

    #[test]
    fn analytic_model_delegates_to_device_cost() {
        let cost = ServeBatchCost::new(
            ModelConfig::test_config(ModelArch::DecoderOnly, 6),
            DeviceSpec::apple_m2(),
        );
        let m = ServiceModel::analytic(cost.clone());
        assert_eq!(m.batch_micros(2, 256), cost.batch_micros(2, 256));
        assert!(m.batch_micros(1, 64) >= 1);
    }

    #[test]
    fn sharded_model_prices_both_deployments() {
        let worker = ServeBatchCost::new(
            ModelConfig::test_config(ModelArch::DecoderOnly, 6),
            DeviceSpec::apple_m2(),
        );
        let single = ServiceModel::analytic(worker.clone()).batch_micros(8, 2048);
        // Colocated shards (the loopback deployment): pure overhead, so
        // the simulated batch is never cheaper than unsharded.
        let colocated = ServiceModel::sharded(ScatterGatherCost::new(worker.clone(), 3));
        assert!(colocated.batch_micros(8, 2048) >= single);
        // One device per shard: the forward term parallelizes.
        let parallel = ServiceModel::sharded(ScatterGatherCost {
            parallel_shards: true,
            ..ScatterGatherCost::new(worker, 3)
        });
        assert!(parallel.batch_micros(8, 2048) < single);
        assert_eq!(colocated.batch_micros(0, 0), 0);
    }

    #[test]
    fn analytic_model_sees_the_int8_compute_regime() {
        // The serving metasim prices int8-compute workers through
        // `ServeBatchCost`, so flipping the knob must shorten
        // compute-bound batches.
        let dense = ServeBatchCost::new(
            ModelConfig::test_config(ModelArch::DecoderOnly, 6),
            DeviceSpec::apple_m2(),
        );
        let int8 = ServeBatchCost {
            int8_compute: true,
            ..dense.clone()
        };
        let dense_us = ServiceModel::analytic(dense).batch_micros(8, 4096);
        let int8_us = ServiceModel::analytic(int8).batch_micros(8, 4096);
        assert!(int8_us < dense_us, "int8 {int8_us} vs dense {dense_us}");
    }

    #[test]
    fn analytic_model_sees_the_semcache_regime() {
        // High-overlap traces replay most candidates from the semantic
        // result cache; the metasim prices that through the same
        // `ServeBatchCost` knob the serving stack exposes.
        let plain = ServeBatchCost::new(
            ModelConfig::test_config(ModelArch::DecoderOnly, 6),
            DeviceSpec::apple_m2(),
        );
        let probe = plain.device.ssd_latency / 20.0;
        let cached = ServeBatchCost {
            semcache: Some(prism_device::SemCacheCostParams {
                hit_fraction: 0.6,
                probe_overhead_s: probe,
            }),
            ..plain.clone()
        };
        let plain_us = ServiceModel::analytic(plain).batch_micros(8, 4096);
        let cached_us = ServiceModel::analytic(cached).batch_micros(8, 4096);
        assert!(
            cached_us < plain_us,
            "semcache {cached_us} vs plain {plain_us}"
        );
    }
}
