//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p prism-bench --bin repro -- <experiment> [--fast]
//!
//! experiments:
//!   table1 fig1 fig2          overview & motivation
//!   table3 fig8 fig9 fig10    microbenchmarks (§6.2)
//!   fig11 fig12 fig13 fig14 fig15   real-world applications (§6.3)
//!   fig16 ablation-extra      ablations (§6.4 + DESIGN.md §5)
//!   perf                      kernel perf trajectory (BENCH_kernels.json: GEMM,
//!                             quantized GEMM, rowq, one layer, resident
//!                             select_top_k, simd tiers, int8 vs f32); exits 1
//!                             if a speedup entry sits below 0.9 (1.0 minus a
//!                             10% bench-noise allowance), an int8 kernel/layer
//!                             row below 1.8, or int8 top-k ids diverge.
//!                             Serving numbers: `bash benchmark/run.sh`
//!   all                       every table and figure above
//! ```
//!
//! `--fast` trims dataset counts and sweep grids for quick smoke runs.
//! Outputs are printed and written to `target/repro/<id>.{txt,json}`.

use prism_bench::experiments::{ablation, apps, micro, overview, perf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let chosen: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let what = chosen.first().copied().unwrap_or("all");

    // A failed gate is the exit code.
    let gated = |outcome: Result<(), String>| {
        if let Err(e) = outcome {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let run = |name: &str| match name {
        "table1" => overview::table1(),
        "fig1" => overview::fig1(),
        "fig2" => overview::fig2(fast),
        "table3" => micro::table3(fast),
        "fig8" => micro::fig8(),
        "fig9" => micro::fig9(),
        "fig10" => micro::fig10(fast),
        "fig11" => apps::fig11(),
        "fig12" | "fig13" => apps::fig12_13(),
        "fig14" | "fig15" => apps::fig14_15(),
        "fig16" => ablation::fig16(),
        "ablation-extra" => ablation::ablation_extra(),
        "perf" => gated(perf::perf(fast)),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };

    if what == "all" {
        for name in [
            "table1",
            "fig1",
            "fig2",
            "table3",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig14",
            "fig16",
            "ablation-extra",
        ] {
            run(name);
            println!();
        }
    } else {
        run(what);
    }
}
