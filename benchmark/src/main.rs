//! `wire_e2e`: the repository's benchmark. One selection as a caller
//! sees it — bytes in on a `prism-wire` socket to ranked ids out — on
//! four workloads, measured end to end (untraced) and attributed layer
//! by layer (traced). See `benchmark/README.md`.

mod check;
mod compare;
mod e2e;
mod inputs;
mod json;
mod layers;
mod loadgen;
mod report;
mod spec;
mod stack;
mod stats;
mod trace;
mod traced;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;
use spec::WorkloadSpec;
use stack::ScratchDir;

/// Any failure of the benchmark itself (as opposed to a failed check,
/// which is reported in the result).
#[derive(Debug)]
pub struct BenchError(String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

macro_rules! bench_error_from {
    ($($source:ty),* $(,)?) => {$(
        impl From<$source> for BenchError {
            fn from(e: $source) -> Self {
                BenchError(format!("{}: {e}", stringify!($source)))
            }
        }
    )*};
}

bench_error_from!(
    std::io::Error,
    prism_core::PrismError,
    prism_model::Error,
    prism_storage::StorageError,
    prism_tensor::TensorError,
    prism_api::ServiceError,
    prism_wire::WireError,
);

const USAGE: &str = "usage:
  wire_e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out DIR]
      Without --workload: every workload, untraced then traced, --runs times
      (seeds N, N+1, ...). With it: one run, and the last line of stdout is the
      result object. Results are appended to DIR/results.jsonl, traces written
      to DIR/trace-<workload>.json (default DIR: benchmark/out).
  wire_e2e --compare A B
      Compares the result sets in directories A (the base) and B.";

struct Args {
    workload: Option<WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
        compare: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(spec::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run of one workload; its record goes to `<out>/results.jsonl`.
fn run_once(
    spec: &WorkloadSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<RunResult, BenchError> {
    std::fs::create_dir_all(out)?;
    // Containers and spill files live here and go when the guard drops.
    let scratch = ScratchDir::create(out.join(format!("tmp-{}", std::process::id())))?;
    println!("-- {}: {}", spec.name, spec.why);
    let result = if trace {
        traced::run(spec, seed, seconds, scratch.path(), out)?
    } else {
        e2e::run(spec, seed, seconds, scratch.path())?
    };
    result.print_table();
    let mut log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("results.jsonl"))?;
    writeln!(log, "{}", json::to_line(&result.record_line()))?;
    Ok(result)
}

fn run(args: &Args) -> Result<bool, BenchError> {
    if let Some((base, change)) = &args.compare {
        return compare::compare(base, change);
    }
    if let Some(spec) = &args.workload {
        let result = run_once(spec, args.seed, args.seconds, args.trace, &args.out)?;
        println!("{}", json::to_line(&result.driver_line()));
        return Ok(result.correct);
    }
    let mut all_correct = true;
    for run in 0..args.runs {
        for spec in spec::all() {
            for trace in [false, true] {
                let result = run_once(&spec, args.seed + run, args.seconds, trace, &args.out)?;
                all_correct &= result.correct;
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wire_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
