//! `perfbench`: one wire-to-leaf benchmark of the qjoin stack.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! perfbench --aa N [--seed N] [--seconds S] [--smoke]
//! perfbench --list
//! ```
//!
//! One process runs one workload: it generates the input from the seed, sets the
//! engine and server up, drives them over TCP, checks every answer, prints every
//! metric as `name value unit`, and ends with one JSON line. `--trace 0` (the
//! default) reports the end-to-end metrics; `--trace 1` the per-layer metrics of
//! the traced run. See `README.md` beside this crate.

mod aa;
mod check;
mod e2e;
mod host;
mod layers;
mod metrics;
mod serve;
mod spans;
mod stats;
mod workloads;

use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};

/// The seed used when none is given (the paper's year).
const DEFAULT_SEED: u64 = 2023;
/// Measured seconds when none are given (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;
/// `--smoke` divides every input by this and measures for a fraction of a second.
const SMOKE_DIVISOR: usize = 8;
const SMOKE_SECONDS: f64 = 0.5;

/// glibc gives every thread its own malloc arena by default (up to eight per
/// core), and which threads end up sharing one varies from run to run: the peak
/// resident set of the same small workload then reads anywhere from 22 to 31 MiB.
/// With the arena count pinned it repeats within a few percent.
const ARENAS_VAR: &str = "MALLOC_ARENA_MAX";
const ARENAS: &str = "2";

/// Re-executes this process with the arena count pinned, unless the caller
/// already chose one. The variable is read when the allocator starts, so it has
/// to be in the environment before `main`.
fn pin_allocator_arenas() {
    if std::env::var_os(ARENAS_VAR).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let error = Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env(ARENAS_VAR, ARENAS)
        .exec();
    eprintln!("perfbench: running with default malloc arenas ({error})");
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    aa: Option<usize>,
    list: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        aa: None,
        list: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let invalid = |what: &str| format!("invalid value for {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| invalid("--seed"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| invalid("--seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(invalid("--seconds"));
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(invalid("--trace")),
                }
            }
            "--aa" => parsed.aa = Some(value()?.parse().map_err(|_| invalid("--aa"))?),
            "--smoke" => parsed.smoke = true,
            "--list" => parsed.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Prints the metrics as `name value unit` lines and the closing JSON object.
fn report(metrics: &[(&'static str, f64)], tally: check::Tally, notes: &[String]) -> ExitCode {
    for note in notes {
        println!("# {note}");
    }
    println!(
        "# answers attempted={} failed={} failed_share={}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a number ({value})");
        return ExitCode::from(2);
    }
    let mut fields = Vec::new();
    for &(name, value) in metrics {
        let unit = metrics::unit_of(name);
        println!("{name} {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    pin_allocator_arenas();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for spec in workloads::all() {
            println!("{}\t{}", spec.name, spec.why);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(repeats) = args.aa {
        return aa::run(repeats, &args);
    }
    let Some(mut spec) = args.workload.as_deref().and_then(workloads::by_name) else {
        eprintln!("perfbench: --workload must be one of the names --list prints");
        return ExitCode::from(2);
    };
    let mut seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    if args.smoke {
        spec.source = spec.source.shrunk(SMOKE_DIVISOR);
        seconds = args.seconds.unwrap_or(SMOKE_SECONDS);
    }
    println!(
        "# workload={} seed={} seconds={seconds} trace={} smoke={}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        args.smoke
    );
    let run = if args.trace { layers::run } else { e2e::run };
    let observed = run(&spec, args.seed, seconds);
    report(&observed.metrics, observed.tally, &observed.notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = args(&[
            "--workload",
            "star_leaf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("star_leaf"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (7, Some(10.0), true)
        );
        assert_eq!(args(&[]).unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
