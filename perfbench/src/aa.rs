//! `--aa N`: the same code measured against itself. Every workload runs `N`
//! times in fresh processes, interleaved, each repeat with its own seed; the
//! report gives, per end-to-end metric and workload, the minimum, median and
//! maximum and the quartile spread against the metric's bound.

use crate::metrics::END_TO_END;
use crate::stats::{median, quartile_spread};
use crate::{workloads, Args};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Parses the `name value unit` lines of a child's output.
fn parse_metrics(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter(|line| !line.starts_with(['#', '{']))
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (name, value, _unit) = (parts.next()?, parts.next()?, parts.next()?);
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

pub fn run(repeats: usize, args: &Args) -> ExitCode {
    if repeats < 2 {
        eprintln!("perfbench: --aa needs at least 2 repeats to have a spread");
        return ExitCode::from(2);
    }
    let exe = std::env::current_exe().expect("own executable path");
    let specs = workloads::all();
    // metric -> workload -> one value per repeat
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut failed_runs = 0;
    for repeat in 0..repeats {
        for spec in &specs {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", spec.name, "--trace", "0"])
                .args(["--seed", &(args.seed + repeat as u64).to_string()]);
            if let Some(seconds) = args.seconds {
                command.args(["--seconds", &seconds.to_string()]);
            }
            if args.smoke {
                command.arg("--smoke");
            }
            let output = command.output().expect("spawn a workload process");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let correct = stdout
                .lines()
                .last()
                .is_some_and(|l| l.contains("\"correct\": true"));
            if !output.status.success() || !correct {
                failed_runs += 1;
                eprintln!(
                    "perfbench: {} repeat {repeat} failed or answered wrongly",
                    spec.name
                );
            }
            let metrics = parse_metrics(&stdout);
            for (name, ..) in END_TO_END {
                if let Some(&value) = metrics.get(name) {
                    values.entry((name, spec.name)).or_default().push(value);
                }
            }
            eprintln!("# {} repeat {} done", spec.name, repeat + 1);
        }
    }
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "metric", "workload", "min", "median", "max", "spread", "bound"
    );
    let mut over = 0;
    for (name, _, _, bound) in END_TO_END {
        for spec in &specs {
            let Some(runs) = values.get(&(name, spec.name)).filter(|v| v.len() >= 2) else {
                continue;
            };
            let spread = quartile_spread(runs);
            // Set-up time is gated on its median only, not on its spread.
            let verdict = match spread {
                s if s <= bound / 3.0 => "steady",
                s if s <= bound || name == "setup_s" => "within bound",
                _ => {
                    over += 1;
                    "OVER BOUND"
                }
            };
            println!(
                "{name:<16} {:<14} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>5.0}%  {verdict}",
                spec.name,
                runs.iter().copied().fold(f64::INFINITY, f64::min),
                median(runs),
                runs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "# {repeats} repeats per workload; {over} spreads over bound; {failed_runs} failed runs"
    );
    if over == 0 && failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_told_from_notes_and_the_json_line() {
        let parsed = parse_metrics(
            "# workload=x seed=1\ncold_p50_ms 12.5 ms\nthroughput_rps 1e4 1/s\n{\"correct\": true}\n",
        );
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed["cold_p50_ms"], 12.5);
        assert_eq!(parsed["throughput_rps"], 10_000.0);
    }
}
