//! `--smoke`: every workload at 1/8 size for half a second, both runs, through
//! the built binary — the command line, the answer checks and the output
//! contract end to end.

use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "social_sum",
    "path3_lex",
    "path3_approx",
    "star_leaf",
    "serve_hot",
    "replace_churn",
];

fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

/// The metric names on the `name value unit` lines of a run's output.
fn metric_names(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|line| !line.starts_with(['#', '{']))
        .filter_map(|line| line.split_whitespace().next())
        .collect()
}

/// One workload, both runs; the workloads smoke side by side (timings do not
/// matter here, and each writes its own trace file).
fn smoke(workload: &str) {
    for (trace, first, count) in [("0", "setup_s", 8), ("1", "workload.generate_s", 48)] {
        let (ok, stdout) = run(&["--workload", workload, "--smoke", "--trace", trace]);
        assert!(
            ok,
            "{workload} --trace {trace} exited with an error:\n{stdout}"
        );
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": ")
                && last.contains("\"failed\": 0, "),
            "{workload} --trace {trace}: {last}"
        );
        let names = metric_names(&stdout);
        assert_eq!(
            (names[0], names.len()),
            (first, count),
            "{workload} --trace {trace}"
        );
        for name in names {
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing in {last}"
            );
        }
    }
    let trace_file = concat!(env!("CARGO_MANIFEST_DIR"), "/target/perf");
    let written = std::fs::read_to_string(format!("{trace_file}/{workload}.trace.json"))
        .expect("the traced run wrote its trace");
    assert!(written.starts_with("[{\"name\":") && written.ends_with("}]"));
}

#[test]
fn every_workload_smokes_end_to_end_and_traced() {
    std::thread::scope(|scope| {
        for workload in WORKLOADS {
            scope.spawn(move || smoke(workload));
        }
    });
}

#[test]
fn the_same_seed_gives_the_same_counts() {
    let counts = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| {
                [
                    "core.rounds ",
                    "core.candidates_scanned ",
                    "core.materialized ",
                    "workload.",
                ]
                .iter()
                .any(|prefix| l.starts_with(prefix))
                    && !l.starts_with("workload.generate_s")
            })
            .map(str::to_string)
            .collect()
    };
    let args = [
        "--workload",
        "path3_lex",
        "--smoke",
        "--trace",
        "1",
        "--seed",
        "5",
    ];
    let (first, second) = (run(&args).1, run(&args).1);
    assert_eq!(counts(&first).len(), 5);
    assert_eq!(counts(&first), counts(&second));
}

#[test]
fn a_bad_command_line_exits_non_zero_without_a_result() {
    let (ok, stdout) = run(&["--workload", "no_such_workload"]);
    assert!(!ok);
    assert!(!stdout.contains("\"correct\""));
}
