//! The untraced run: what a caller of the service sees.

use std::path::Path;
use std::time::Duration;

use crate::check;
use crate::inputs::{arrival_schedule, RequestSource};
use crate::loadgen::{closed_loop, open_loop, Pass, Stop};
use crate::report::{Measured, RunResult, END_TO_END};
use crate::spec::{Arrival, WorkloadSpec};
use crate::stack::Stack;
use crate::stats::{median, percentile, sorted, supports};
use crate::BenchError;

/// Set-ups per run; `setup_s` is their median and the last one serves.
const SETUPS: usize = 3;

/// The tail every workload reports: the highest percentile that the
/// slowest workload's sample count (about 130 in 20 s) still supports.
const TAIL_PERCENTILE: f64 = 90.0;

/// Drives the workload's traffic for `seconds` through `stack`.
pub fn drive(
    stack: &Stack,
    spec: &WorkloadSpec,
    source: &RequestSource,
    seed: u64,
    seconds: f64,
) -> Pass {
    match spec.arrival {
        Arrival::Open { per_second } => {
            let schedule = arrival_schedule(seed, per_second, seconds.ceil() as usize);
            let requests: Vec<_> = (0..schedule.len()).map(|i| source.request(i)).collect();
            open_loop(&stack.clients, &requests, &schedule)
        }
        Arrival::Closed => closed_loop(
            &stack.clients,
            |i| source.request(i),
            Stop::After(Duration::from_secs_f64(seconds)),
        ),
    }
}

/// Client-side latencies of the successful requests, ascending, in ms.
pub fn latencies_ms(pass: &Pass) -> Vec<f64> {
    sorted(
        pass.ok()
            .map(|(s, _)| s.latency_us() as f64 / 1e3)
            .collect(),
    )
}

pub fn run(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<RunResult, BenchError> {
    let source = RequestSource::new(spec, seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut running = None;
    for _ in 0..SETUPS {
        // Stop the previous stack before the next starts: two servers
        // would share the two cores.
        drop(running.take());
        let (stack, setup_s) = Stack::start(spec, &source, dir)?;
        setups.push(setup_s);
        running = Some(stack);
    }
    let stack = running.expect("at least one set-up");

    let idle_bytes = stack.meter().current_total();
    let pass = drive(&stack, spec, &source, seed, seconds);
    let settled_bytes = stack.meter().current_total();

    let verdict = check::verify(spec, &source, &pass, &stack.container, dir)?;
    let mut complaints = verdict.complaints;
    if settled_bytes != idle_bytes {
        complaints.push(format!(
            "memory meter reads {settled_bytes} B after the run, {idle_bytes} B before it"
        ));
    }
    let failed = pass.failed();
    if failed > 0 {
        complaints.push(format!("{failed} requests failed on a healthy loopback"));
    }

    let latencies = latencies_ms(&pass);
    let n = latencies.len();
    if !supports(n, TAIL_PERCENTILE) {
        println!("note: {n} samples leave fewer than ten beyond p{TAIL_PERCENTILE}; run longer");
    }
    let mut measured = Measured::default();
    measured.set("setup_s", median(setups), SETUPS);
    measured.set("throughput_rps", n as f64 / pass.wall_s, n);
    measured.set("latency_p50_ms", percentile(&latencies, 50.0), n);
    measured.set("latency_p90_ms", percentile(&latencies, TAIL_PERCENTILE), n);
    measured.set("peak_mem_bytes", stack.meter().peak_total() as f64, 1);
    measured.set("precision_at_k", verdict.precision, verdict.sampled);

    Ok(RunResult {
        workload: spec.name,
        seed,
        traced: false,
        correct: complaints.is_empty(),
        attempted: pass.samples.len(),
        failed,
        metrics: measured.resolve(END_TO_END),
        complaints,
    })
}
