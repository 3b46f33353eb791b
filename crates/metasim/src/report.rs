//! The simulator's run report: `ServeStats`-shaped telemetry plus exact
//! latency percentiles, mirroring `prism_serve::LoadReport` so measured
//! and simulated runs compare field for field.

use prism_metrics::exact_quantile;
use prism_serve::{ClassReport, ServeStatsSnapshot};
use serde::Serialize;

/// FNV-1a fold of one `u64` into a running digest — the simulator's
/// event-log hash (bit-identical runs produce identical digests).
pub fn fnv1a_mix(hash: &mut u64, value: u64) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for b in value.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(PRIME);
    }
}

/// Outcome of one simulated serving run. Latency percentiles are exact
/// (per-request samples, sorted), and `stats` is a real
/// [`ServeStatsSnapshot`] driven by the simulator — the same shape the
/// live server emits. Every field is a pure function of the simulation
/// inputs; wall-clock timing is deliberately excluded so reports can be
/// compared bit for bit.
#[derive(Debug, Clone, Serialize)]
pub struct SimReport {
    /// Scenario label.
    pub label: String,
    /// Requests offered to the simulated server.
    pub requests: u64,
    /// Requests answered with a selection.
    pub completed: u64,
    /// Requests answered with an error (cancelled, deadline-shed, or
    /// dropped on open-loop backpressure).
    pub errors: u64,
    /// Backpressure rejections absorbed by closed-loop retry.
    pub backpressure_retries: u64,
    /// Virtual seconds from first arrival to last delivery.
    pub virtual_elapsed_s: f64,
    /// Completed requests per virtual second.
    pub throughput_rps: f64,
    /// Mean end-to-end latency, microseconds.
    pub mean_us: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: u64,
    /// 95th percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst request, microseconds.
    pub max_us: u64,
    /// Per-class latency breakdown for mixed-priority runs (empty when
    /// the workload is uniform).
    pub classes: Vec<ClassReport>,
    /// Server-side telemetry, `ServeStats`-shaped.
    pub stats: ServeStatsSnapshot,
    /// Discrete events processed.
    pub events: u64,
    /// FNV-1a digest of the processed event log — the determinism
    /// witness.
    pub digest: u64,
}

impl SimReport {
    /// The class summary with this label, if the run was mixed.
    pub fn class(&self, label: &str) -> Option<&ClassReport> {
        self.classes.iter().find(|c| c.label == label)
    }

    /// Assembles a report from raw simulation outputs (same aggregation
    /// as `run_closed_loop`: exact sorted quantiles, high/bulk split
    /// only for mixed runs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        label: &str,
        requests: u64,
        samples: Vec<(bool, u64)>,
        errors: u64,
        high_errors: u64,
        retries: u64,
        virtual_end_us: u64,
        stats: ServeStatsSnapshot,
        events: u64,
        digest: u64,
        split_classes: bool,
    ) -> SimReport {
        let classes = if split_classes {
            let high: Vec<u64> = samples
                .iter()
                .filter(|(h, _)| *h)
                .map(|&(_, l)| l)
                .collect();
            let bulk: Vec<u64> = samples
                .iter()
                .filter(|(h, _)| !*h)
                .map(|&(_, l)| l)
                .collect();
            vec![
                class_report("high", high, high_errors as usize),
                class_report("bulk", bulk, (errors - high_errors) as usize),
            ]
        } else {
            Vec::new()
        };
        let mut latencies: Vec<u64> = samples.into_iter().map(|(_, l)| l).collect();
        latencies.sort_unstable();
        let completed = latencies.len() as u64;
        let mean_us = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
        };
        let virtual_elapsed_s = virtual_end_us as f64 / 1e6;
        SimReport {
            label: label.to_string(),
            requests,
            completed,
            errors,
            backpressure_retries: retries,
            virtual_elapsed_s,
            throughput_rps: if virtual_elapsed_s > 0.0 {
                completed as f64 / virtual_elapsed_s
            } else {
                0.0
            },
            mean_us,
            p50_us: exact_quantile(&latencies, 0.50),
            p95_us: exact_quantile(&latencies, 0.95),
            p99_us: exact_quantile(&latencies, 0.99),
            max_us: latencies.last().copied().unwrap_or(0),
            classes,
            stats,
            events,
            digest,
        }
    }
}

fn class_report(label: &str, mut latencies: Vec<u64>, errors: usize) -> ClassReport {
    latencies.sort_unstable();
    let completed = latencies.len();
    let mean_us = if completed == 0 {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / completed as f64
    };
    ClassReport {
        label: label.to_string(),
        completed,
        errors,
        mean_us,
        p50_us: exact_quantile(&latencies, 0.50),
        p95_us: exact_quantile(&latencies, 0.95),
        p99_us: exact_quantile(&latencies, 0.99),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mix_is_order_sensitive() {
        let (mut a, mut b) = (0xcbf2_9ce4_8422_2325_u64, 0xcbf2_9ce4_8422_2325_u64);
        fnv1a_mix(&mut a, 1);
        fnv1a_mix(&mut a, 2);
        fnv1a_mix(&mut b, 2);
        fnv1a_mix(&mut b, 1);
        assert_ne!(a, b);
    }

    #[test]
    fn build_splits_classes_only_when_asked() {
        let samples = vec![(true, 100), (false, 200), (false, 300)];
        let stats = prism_serve::ServeStats::new().snapshot();
        let mixed = SimReport::build(
            "m",
            3,
            samples.clone(),
            1,
            1,
            0,
            1_000,
            stats.clone(),
            9,
            7,
            true,
        );
        assert_eq!(mixed.class("high").unwrap().completed, 1);
        assert_eq!(mixed.class("bulk").unwrap().errors, 0);
        assert_eq!(mixed.completed, 3);
        assert!((mixed.mean_us - 200.0).abs() < 1e-9);
        let uniform = SimReport::build("u", 3, samples, 0, 0, 0, 0, stats, 9, 7, false);
        assert!(uniform.classes.is_empty());
        assert_eq!(uniform.throughput_rps, 0.0, "zero elapsed guards division");
    }
}
