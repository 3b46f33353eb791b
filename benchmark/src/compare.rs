//! `--compare A B`: two result sets side by side, judged by the bounds
//! the registry fixes. A result set is a directory whose `results.jsonl`
//! holds one line per run; only untraced runs carry end-to-end metrics.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json;
use crate::report::{Better, MetricDef, END_TO_END};
use crate::spec;
use crate::stats::{median, quartiles};
use crate::BenchError;

/// `workload -> metric -> one value per run`.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<ResultSet, BenchError> {
    let path = dir.join("results.jsonl");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
    let mut set = ResultSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| BenchError(format!("{}: {e}", path.display())))?;
        if json::get(&run, "traced") != Some(&serde_json::Value::Bool(false)) {
            continue;
        }
        let workload = json::string(json::get(&run, "workload").unwrap_or(&run)).to_string();
        let serde_json::Value::Object(metrics) = json::get(&run, "metrics").unwrap_or(&run) else {
            continue;
        };
        for (name, entry) in metrics {
            let value = json::number(json::get(entry, "value").unwrap_or(entry));
            set.entry(workload.clone())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Distance between the quartiles as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(values.to_vec());
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric of one workload: `base` and `change` hold one value
/// per run.
fn judge(def: &MetricDef, base: &[f64], change: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (a, b) = (median(base.to_vec()), median(change.to_vec()));
    let worse_by = match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let change_wins_every_pair = change.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    if spread(base).max(spread(change)) > bound && !change_wins_every_pair {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

/// Prints the comparison; `Ok(false)` when any metric regressed.
pub fn compare(base_dir: &Path, change_dir: &Path) -> Result<bool, BenchError> {
    let (base, change) = (load(base_dir)?, load(change_dir)?);
    println!(
        "base {} | change {} | ratio = change / base | spread = (Q3 - Q1) / median over a set's runs",
        base_dir.display(),
        change_dir.display()
    );
    println!(
        "{:<14} {:<16} {:>5} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "base median",
        "change median",
        "ratio",
        "spr A",
        "spr B",
        "bound"
    );
    let mut no_regression = true;
    for workload in spec::all() {
        for def in END_TO_END {
            let values = |set: &ResultSet| {
                set.get(workload.name)
                    .and_then(|metrics| metrics.get(def.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a, b) = (values(&base), values(&change));
            if a.is_empty() || b.is_empty() {
                println!(
                    "{:<14} {:<16} missing from one of the sets",
                    workload.name, def.name
                );
                continue;
            }
            let verdict = judge(def, &a, &b);
            no_regression &= verdict != Verdict::Regressed;
            let (base_median, change_median) = (median(a.clone()), median(b.clone()));
            println!(
                "{:<14} {:<16} {:>2}/{:<2} {:>14.4} {:>14.4} {:>8.4} {:>7.4} {:>7.4} {:>6.3}  {}",
                workload.name,
                def.name,
                a.len(),
                b.len(),
                base_median,
                change_median,
                change_median / base_median,
                spread(&a),
                spread(&b),
                def.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(no_regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> &'static MetricDef {
        END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_ms")
            .unwrap()
    }

    fn throughput() -> &'static MetricDef {
        END_TO_END
            .iter()
            .find(|m| m.name == "throughput_rps")
            .unwrap()
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let bound = latency().bound.unwrap();
        let base = [100.0, 100.5, 99.5];
        let worse = base.map(|v| v * (1.0 + bound + 0.02));
        let within = base.map(|v| v * (1.0 + bound - 0.02));
        assert_eq!(judge(latency(), &base, &worse), Verdict::Regressed);
        assert_eq!(judge(latency(), &base, &within), Verdict::Ok);
        // Direction follows the metric: less throughput is what is worse.
        let slower = base.map(|v| v * 0.5);
        assert_eq!(judge(throughput(), &base, &slower), Verdict::Regressed);
        assert_eq!(judge(latency(), &base, &slower), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(latency(), &noisy, &noisy), Verdict::Unresolved);
        let clear_win = noisy.map(|v| v * 0.5);
        assert_eq!(judge(latency(), &noisy, &clear_win), Verdict::Ok);
    }
}
