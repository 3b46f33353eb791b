//! Determinism guarantees of the serving metasim.
//!
//! The simulator's contract is bit-identical replay: the same
//! `(workload seed, ServeConfig, service model)` must produce the same
//! event log (witnessed by the FNV digest) and the same
//! `ServeStats`-shaped report on every run — including runs executed
//! concurrently on different threads, since nothing in the simulator
//! may depend on wall clock, thread identity or hash iteration order.
//! Property tests sweep the configuration space; a scale test proves a
//! simulated day of million-user traffic stays cheap.

use std::time::Duration;

use prism_metasim::{simulate_closed_loop, Calibration, ServiceModel, SimReport, Simulation};
use prism_model::{ModelArch, ModelConfig};
use prism_serve::{LoadSpec, ServeConfig};
use prism_workload::{trace_profile_by_name, TraceGenerator};
use proptest::prelude::*;

fn service(fixed_us: u64, per_token_tenth_us: u64) -> ServiceModel {
    ServiceModel::calibrated(Calibration {
        batch_fixed_us: fixed_us as f64,
        per_request_us: 50.0,
        per_token_us: per_token_tenth_us as f64 / 10.0,
    })
}

fn config(
    workers: usize,
    queue: usize,
    batch: usize,
    wait_us: u64,
    cache: usize,
    priority_mode: bool,
) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity: queue,
        max_batch_requests: batch,
        max_batch_tokens: 4096,
        max_batch_wait: Duration::from_micros(wait_us),
        session_cache_capacity: cache,
        starvation_age: Duration::from_micros(wait_us.max(1) * 20),
        priority_scheduling: priority_mode,
        tenant_max_inflight: 0,
        ..ServeConfig::default()
    }
}

fn report_bits(r: &SimReport) -> String {
    serde_json::to_string(r).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Identical (seed, profile, ServeConfig, service model) must yield
    /// a bit-identical event digest and stats report across independent
    /// runs — including runs on different threads.
    #[test]
    fn trace_simulation_is_bit_identical(
        seed in 0_u64..1_000_000,
        profile_idx in 0_usize..3,
        base_rps in 50_u64..5_000,
        workers in 1_usize..5,
        queue in 4_usize..128,
        batch in 1_usize..12,
        wait_us in 100_u64..5_000,
        cache in 0_usize..64,
        priority_mode in 0_u8..2,
        fixed_us in 200_u64..5_000,
        per_token in 1_u64..40,
    ) {
        let name = ["steady", "diurnal", "burst"][profile_idx];
        let profile = trace_profile_by_name(name, base_rps as f64).unwrap();
        let cfg = config(workers, queue, batch, wait_us, cache, priority_mode == 1);
        let svc = service(fixed_us, per_token);
        let n = 600_u64;

        let run = {
            let profile = profile.clone();
            let cfg = cfg.clone();
            let svc = svc.clone();
            move || {
                let generator = TraceGenerator::new(profile.clone(), seed);
                Simulation::run_trace(&cfg, svc.clone(), &generator, n, "prop", None)
            }
        };
        let baseline = run();
        // Sequential re-run.
        let again = run();
        prop_assert_eq!(baseline.digest, again.digest);
        prop_assert_eq!(report_bits(&baseline), report_bits(&again));
        // Concurrent runs on worker threads: determinism must not
        // depend on which thread executes the simulation.
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let run = run.clone();
                std::thread::spawn(run)
            })
            .collect();
        for t in threads {
            let theirs = t.join().expect("sim thread");
            prop_assert_eq!(baseline.digest, theirs.digest);
            prop_assert_eq!(report_bits(&baseline), report_bits(&theirs));
        }
        // Conservation: every offered request is accounted for exactly
        // once across completions and errors.
        prop_assert_eq!((baseline.run.completed + baseline.run.errors) as u64, n);
    }

    /// Closed-loop replays are equally deterministic, and a different
    /// seed actually changes the event log (the digest is not a
    /// constant).
    #[test]
    fn closed_loop_simulation_is_bit_identical(
        seed in 0_u64..1_000_000,
        requests in 8_usize..96,
        clients in 1_usize..12,
        sessions in 1_usize..8,
        repeat in 1_usize..5,
        high_tenths in 0_u32..4,
        fixed_us in 200_u64..5_000,
    ) {
        let model = ModelConfig::test_config(ModelArch::DecoderOnly, 6);
        let spec = LoadSpec {
            requests,
            clients,
            sessions,
            corpus_repeat: repeat,
            seed,
            high_fraction: high_tenths as f64 / 10.0,
            high_deadline_us: (high_tenths > 0).then_some(30_000_000),
            ..Default::default()
        };
        let cfg = ServeConfig::default();
        let svc = service(fixed_us, 10);
        let a = simulate_closed_loop(&model, &spec, &cfg, svc.clone(), "prop", None);
        let b = simulate_closed_loop(&model, &spec, &cfg, svc.clone(), "prop", None);
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(report_bits(&a), report_bits(&b));
        prop_assert_eq!(a.run.completed + a.run.errors, requests);
        // The closed loop retries backpressure, so nothing is dropped.
        prop_assert_eq!(a.stats().rejected, a.run.backpressure_retries);

        let other = LoadSpec { seed: seed ^ 0x9E37_79B9, ..spec };
        let c = simulate_closed_loop(&model, &other, &cfg, svc, "prop", None);
        // Different corpora change token counts, hence the event log.
        // (Identity could coincide only if every token count matched.)
        if report_bits(&a) != report_bits(&c) {
            prop_assert!(a.digest != c.digest, "reports differ but digests collide");
        }
    }
}

/// A simulated day of ~100k requests completes quickly even unoptimized
/// and is bit-stable — the tier-1-sized cousin of the nightly
/// million-request soak below.
#[test]
fn simulated_burst_day_is_deterministic_at_scale() {
    let profile = trace_profile_by_name("burst", 2.0).unwrap();
    let generator = TraceGenerator::new(profile, 0xDEC0DE);
    let cfg = ServeConfig::default();
    let svc = service(2_000, 20);
    let n = 100_000_u64;
    let a = Simulation::run_trace(&cfg, svc.clone(), &generator, n, "day", None);
    let b = Simulation::run_trace(&cfg, svc, &generator, n, "day", None);
    assert_eq!(a.digest, b.digest);
    assert_eq!(report_bits(&a), report_bits(&b));
    assert_eq!((a.run.completed + a.run.errors) as u64, n);
    // 2 rps nominal over 100k arrivals is most of a simulated day.
    assert!(
        a.run.elapsed_s > 3_600.0,
        "virtual span too short: {}s",
        a.run.elapsed_s
    );
}

/// The acceptance bar from the issue: one simulated day of
/// million-user traffic runs in seconds (< 30s wall) and emits the
/// full `ServeStats`-shaped report. Nightly CI runs this with
/// `--ignored` in release mode alongside the long-stress soak.
#[test]
#[ignore = "million-request soak: run explicitly (nightly CI, release)"]
fn million_request_simulated_day_under_30s() {
    let profile = trace_profile_by_name("diurnal", 12.0).unwrap();
    let generator = TraceGenerator::new(profile, 0x1_000_000_u64);
    let cfg = ServeConfig::default();
    let svc = service(1_500, 15);
    let started = std::time::Instant::now();
    let report = Simulation::run_trace(&cfg, svc, &generator, 1_000_000, "soak", None);
    let wall = started.elapsed();
    assert_eq!(report.run.completed + report.run.errors, 1_000_000);
    assert!(
        report.run.elapsed_s > 20_000.0,
        "virtual span {}s is not day-scale",
        report.run.elapsed_s
    );
    assert!(
        wall < Duration::from_secs(30),
        "simulated day took {wall:?} (budget 30s)"
    );
    // Re-run and compare: scale must not cost determinism.
    let generator = TraceGenerator::new(
        trace_profile_by_name("diurnal", 12.0).unwrap(),
        0x1_000_000_u64,
    );
    let again = Simulation::run_trace(
        &ServeConfig::default(),
        service(1_500, 15),
        &generator,
        1_000_000,
        "soak",
        None,
    );
    assert_eq!(report.digest, again.digest);
}
