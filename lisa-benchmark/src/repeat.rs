//! `--repeat N`: runs the workloads alternately N times, each run a fresh
//! process with its own seed (`--seed`, `--seed + 1`, ...), and prints
//! each metric's median, quartiles and spread: the measurements the
//! bounds in `BENCHMARK.json` are set from.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::report::{Metric, END_TO_END, PER_LAYER};
use crate::stats;

/// The value of `name` in a summary line, if present.
fn metric_value(summary: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &summary[summary.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// Runs the repetitions and prints the spread table; fails if any run
/// failed.
pub fn run(workloads: &[String], seed: u64, seconds: f64, traced: bool, n: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("lisa-benchmark: locating this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalog: &[Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut all_passed = true;
    for round in 0..n {
        let mut order: Vec<&String> = workloads.iter().collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let run_seed = seed + round as u64;
        for workload in order {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let output = match output {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("lisa-benchmark: starting a run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let summary = stdout.lines().last().unwrap_or("");
            let passed = output.status.success();
            all_passed &= passed;
            println!("run {workload} seed {run_seed} passed {passed}: {summary}");
            for metric in catalog {
                if let Some(v) = metric_value(summary, metric.name) {
                    values.entry((workload, metric.name)).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<12} {:<40} {:>14} {:>14} {:>14} {:>9} {:>3}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "n"
    );
    for ((workload, metric), v) in &values {
        let median = stats::median(v);
        let (q1, q3) = if v.len() >= 2 {
            stats::quartiles(v)
        } else {
            (median, median)
        };
        let spread = if median != 0.0 {
            (q3 - q1) / median.abs()
        } else {
            0.0
        };
        println!(
            "{workload:<12} {metric:<40} {median:>14.6} {q1:>14.6} {q3:>14.6} {spread:>9.4} {:>3}",
            v.len()
        );
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_from_a_summary_line() {
        let line = "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": \
                    {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
                    \"mapper.lane_win_share.sa\": {\"value\": 1.0, \"unit\": \"fraction\"}}}";
        assert_eq!(metric_value(line, "op_p50_ms"), Some(1.25));
        assert_eq!(metric_value(line, "mapper.lane_win_share.sa"), Some(1.0));
        assert_eq!(metric_value(line, "sa"), None);
        assert_eq!(metric_value(line, "setup_s"), None);
    }
}
