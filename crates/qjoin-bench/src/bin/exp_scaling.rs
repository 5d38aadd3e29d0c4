//! Experiment E-SCALE: exact and approximate quantiles at million-tuple scale on
//! the orders/lineitem/part star schema, recording the near-linearity curve the
//! paper's asymptotic claims predict.
//!
//! For every size `n` (the `Lineitem` fact-table row count) the sweep generates
//! the star-schema instance — dimension keys cover the fact table's foreign-key
//! domains, so `|Q(D)| = n` and the output cannot mask the solve's own growth —
//! and times three cold solves:
//!
//! * **exact** — `exact_quantile` of SUM(`wl`) (single-atom SUM, the tractable
//!   side of the Theorem 5.6 dichotomy);
//! * **approx/encoded** — `approximate_sum_quantile` of SUM(`wo+wl+wp`) (weights
//!   in non-adjacent atoms: exactly intractable), served by the encoded
//!   ε-sketch path;
//! * **approx/row** — the same request forced onto the materialized-row
//!   reference path (`approximate_sum_quantile_via_rows`); its answer is
//!   asserted pointwise identical to the encoded one (the star schema's join
//!   groups are far too small for a sketch to compress), and the encoded/row ratio
//!   is the PR's cold approximate-solve speedup.
//!
//! A sampling column (`quantile_by_sampling`, Hoeffding budget at ε=0.05,
//! δ=0.01) rides along for reference. Each row also reports time per input
//! tuple (`ns/tuple`) and the growth exponent vs the previous row
//! (`log(t_i/t_{i-1}) / log(n_i/n_{i-1})` — near 1.0 means near-linear); the
//! same numbers land in machine-readable form in `BENCH_scaling.json` at the
//! workspace root.
//!
//! Run with `cargo run --release -p qjoin-bench --bin exp_scaling
//! [--sizes 10000,100000,1000000] [--out path.json]`. `QJOIN_BENCH_SMOKE=1` (as
//! CI sets) shrinks the sweep to one small size, skips the JSON file, and
//! additionally asserts the approximate answer lands within ε of the exact one
//! (measured rank error on the tractable ranking, where exact ground truth is
//! computable).

use qjoin_bench::{fmt_ms, relative_rank_error, timed};
use qjoin_core::sampling::{quantile_by_sampling, SamplingOptions};
use qjoin_core::solver::{
    approximate_sum_quantile, approximate_sum_quantile_via_rows, exact_quantile, ErrorBudget,
};
use qjoin_core::QuantileResult;
use qjoin_exec::count::count_answers;
use qjoin_workload::star_schema::StarSchemaConfig;
use std::time::Duration;

const PHI: f64 = 0.5;
const EPSILON: f64 = 0.05;

/// One size's measurements.
struct SizeRow {
    lineitems: usize,
    db_tuples: usize,
    answers: u128,
    exact: Duration,
    approx_encoded: Duration,
    approx_row: Duration,
    sampling: Duration,
}

fn main() {
    let smoke = std::env::var("QJOIN_BENCH_SMOKE").is_ok();
    let (sizes, out_path) = parse_args(smoke);

    println!("# E-SCALE: star schema Orders(o,wo), Lineitem(o,p,wl), Part(p,wp), φ = {PHI}");
    println!("# exact = SUM(wl) (tractable); approx = SUM(wo+wl+wp) (intractable), ε = {EPSILON}");
    println!(
        "{:>10} {:>12} {:>11} {:>8} {:>13} {:>11} {:>9} {:>12} {:>8}",
        "lineitems",
        "exact (ms)",
        "ns/tuple",
        "exp",
        "apx-enc (ms)",
        "ns/tuple",
        "exp",
        "apx-row (ms)",
        "speedup"
    );

    let mut rows: Vec<SizeRow> = Vec::new();
    for &lineitems in &sizes {
        let config = StarSchemaConfig::with_scale(lineitems);
        let instance = config.generate();
        let answers = count_answers(&instance).unwrap();
        assert_eq!(
            answers, lineitems as u128,
            "star-schema output must stay linear in the fact table"
        );

        let exact_ranking = config.revenue_ranking();
        let approx_ranking = config.total_weight_ranking();

        let (exact, exact_time) = timed(|| exact_quantile(&instance, &exact_ranking, PHI).unwrap());
        let (enc, enc_time) = timed(|| {
            approximate_sum_quantile(
                &instance,
                &approx_ranking,
                PHI,
                EPSILON,
                ErrorBudget::Direct,
            )
            .unwrap()
        });
        let (row_result, row_time) = timed(|| {
            approximate_sum_quantile_via_rows(
                &instance,
                &approx_ranking,
                PHI,
                EPSILON,
                ErrorBudget::Direct,
            )
            .unwrap()
        });
        assert_pointwise(&enc, &row_result, &format!("lineitems={lineitems}"));
        let options = SamplingOptions {
            epsilon: EPSILON,
            delta: 0.01,
            seed: 0x5eed,
        };
        let (_, sampling_time) =
            timed(|| quantile_by_sampling(&instance, &approx_ranking, PHI, &options).unwrap());

        // The within-ε acceptance check runs where exact ground truth exists: the
        // approximate solver on the *tractable* ranking vs the exact answer.
        let (approx_of_exact, _) = timed(|| {
            approximate_sum_quantile(&instance, &exact_ranking, PHI, EPSILON, ErrorBudget::Direct)
                .unwrap()
        });
        let err = relative_rank_error(&instance, &exact_ranking, &approx_of_exact);
        assert!(
            err <= EPSILON,
            "approximate answer missed the ε band: rank error {err} > {EPSILON}"
        );
        assert_eq!(exact.total_answers, answers);

        let row = SizeRow {
            lineitems,
            db_tuples: instance.database_size(),
            answers,
            exact: exact_time,
            approx_encoded: enc_time,
            approx_row: row_time,
            sampling: sampling_time,
        };
        print_row(&row, rows.last());
        rows.push(row);
    }

    let largest = rows.last().expect("at least one size");
    let speedup = largest.approx_row.as_secs_f64() / largest.approx_encoded.as_secs_f64();
    println!(
        "# largest size {}: approx encoded {} ms vs row {} ms -> {:.2}x cold speedup",
        largest.lineitems,
        fmt_ms(largest.approx_encoded),
        fmt_ms(largest.approx_row),
        speedup
    );
    if smoke {
        println!(
            "# smoke mode: exact≈approx within ε and encoded==row both asserted; JSON skipped"
        );
        return;
    }
    let json = render_json(&rows, speedup);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("# wrote {out_path}"),
        Err(e) => {
            println!("# could not write {out_path} ({e}); JSON follows:");
            println!("{json}");
        }
    }
}

/// `--sizes a,b,c` and `--out path` with smoke-aware defaults.
fn parse_args(smoke: bool) -> (Vec<usize>, String) {
    let default_out = format!("{}/../../BENCH_scaling.json", env!("CARGO_MANIFEST_DIR"));
    let mut sizes: Vec<usize> = if smoke {
        vec![5_000]
    } else {
        vec![10_000, 30_000, 100_000, 300_000, 1_000_000]
    };
    let mut out = default_out;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sizes" => {
                let list = args
                    .get(i + 1)
                    .expect("--sizes needs a comma-separated list");
                sizes = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes entries must be integers"))
                    .collect();
                assert!(!sizes.is_empty(), "--sizes list must be non-empty");
                i += 2;
            }
            "--out" => {
                out = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            other => panic!("unknown argument {other:?} (expected --sizes or --out)"),
        }
    }
    sizes.sort_unstable();
    (sizes, out)
}

fn assert_pointwise(a: &QuantileResult, b: &QuantileResult, context: &str) {
    assert_eq!(a.answer, b.answer, "{context}: answers diverge");
    assert_eq!(a.weight, b.weight, "{context}: weights diverge");
    assert_eq!(a.target_index, b.target_index, "{context}: targets diverge");
}

/// Nanoseconds of solve time per input tuple — flat across sizes means linear.
fn ns_per_tuple(time: Duration, tuples: usize) -> f64 {
    time.as_nanos() as f64 / tuples.max(1) as f64
}

/// The growth exponent between two rows: `log(t_b/t_a) / log(n_b/n_a)`.
/// 1.0 is exactly linear; the paper predicts O(n polylog n), so slightly above.
fn growth_exponent(a: (usize, Duration), b: (usize, Duration)) -> Option<f64> {
    let dn = (b.0 as f64 / a.0 as f64).ln();
    if dn <= 0.0 {
        return None;
    }
    Some((b.1.as_secs_f64() / a.1.as_secs_f64()).ln() / dn)
}

fn fmt_exponent(e: Option<f64>) -> String {
    e.map_or_else(|| "-".to_string(), |e| format!("{e:.2}"))
}

/// The same exponent as a JSON value (`null` for the first row).
fn json_exponent(e: Option<f64>) -> String {
    e.map_or_else(|| "null".to_string(), |e| format!("{e:.2}"))
}

fn print_row(row: &SizeRow, prev: Option<&SizeRow>) {
    let exact_exp =
        prev.and_then(|p| growth_exponent((p.db_tuples, p.exact), (row.db_tuples, row.exact)));
    let enc_exp = prev.and_then(|p| {
        growth_exponent(
            (p.db_tuples, p.approx_encoded),
            (row.db_tuples, row.approx_encoded),
        )
    });
    println!(
        "{:>10} {:>12} {:>11.1} {:>8} {:>13} {:>11.1} {:>9} {:>12} {:>8.2}",
        row.lineitems,
        fmt_ms(row.exact),
        ns_per_tuple(row.exact, row.db_tuples),
        fmt_exponent(exact_exp),
        fmt_ms(row.approx_encoded),
        ns_per_tuple(row.approx_encoded, row.db_tuples),
        fmt_exponent(enc_exp),
        fmt_ms(row.approx_row),
        row.approx_row.as_secs_f64() / row.approx_encoded.as_secs_f64()
    );
}

/// The machine-readable curve, schema-aligned with the other BENCH_*.json files.
fn render_json(rows: &[SizeRow], largest_speedup: f64) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"bench-scaling-v1\",\n");
    out.push_str(
        "  \"description\": \"Exact and approximate cold quantile solves on the \
         orders/lineitem/part star schema as the fact table grows to 10^6 tuples. \
         Dimension keys cover the fact table's foreign keys, so |Q(D)| equals the \
         lineitem count and the output stays linear in the input. exact = SUM(wl) \
         (single-atom, tractable side of Theorem 5.6) via exact_quantile; \
         approx_encoded = SUM(wo+wl+wp) (non-adjacent atoms, exactly intractable) \
         via the encoded epsilon-sketch path (approximate_sum_quantile, eps=0.05, \
         ErrorBudget::Direct); approx_row = the same request on the \
         materialized-row reference path, asserted pointwise identical; sampling = \
         quantile_by_sampling at eps=0.05 delta=0.01. ns_per_tuple flat across \
         sizes (equivalently growth_exponent near 1.0) is the near-linearity the \
         paper's O(n polylog n) bounds predict. Regenerate with: cargo run \
         --release -p qjoin-bench --bin exp_scaling (accepts --sizes \
         10000,...,1000000; QJOIN_BENCH_SMOKE=1 for the 1-size CI assertion \
         mode).\",\n",
    );
    out.push_str("  \"recorded\": \"2026-08-08\",\n");
    out.push_str("  \"bench\": \"exp_scaling\",\n");
    out.push_str(&format!(
        "  \"host\": {{\n    \"available_parallelism\": {host_cores},\n    \
         \"note\": \"RECORDING-HOST CAVEAT: single-shot cold-solve wall times on a \
         {host_cores}-core CI container; absolute ms are host-bound, the per-size \
         ratios and growth exponents are the signal.\"\n  }},\n"
    ));
    out.push_str(&format!(
        "  \"acceptance\": {{\n    \"workload\": \"starschema lineitems={} (largest \
         swept size)\",\n    \"required_cold_approx_speedup\": 2.0,\n    \
         \"measured_cold_approx_speedup\": {:.2}\n  }},\n",
        rows.last().map_or(0, |r| r.lineitems),
        largest_speedup
    ));
    out.push_str("  \"phi\": 0.5,\n  \"epsilon\": 0.05,\n");
    out.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| &rows[j]);
        let exact_exp =
            prev.and_then(|p| growth_exponent((p.db_tuples, p.exact), (row.db_tuples, row.exact)));
        let enc_exp = prev.and_then(|p| {
            growth_exponent(
                (p.db_tuples, p.approx_encoded),
                (row.db_tuples, row.approx_encoded),
            )
        });
        out.push_str(&format!(
            "    {{\"lineitems\": {}, \"db_tuples\": {}, \"answers\": {}, \
             \"exact_ms\": {}, \"exact_ns_per_tuple\": {:.1}, \
             \"exact_growth_exponent\": {}, \"approx_encoded_ms\": {}, \
             \"approx_encoded_ns_per_tuple\": {:.1}, \
             \"approx_encoded_growth_exponent\": {}, \"approx_row_ms\": {}, \
             \"approx_speedup_vs_row\": {:.2}, \"sampling_ms\": {}}}{}\n",
            row.lineitems,
            row.db_tuples,
            row.answers,
            fmt_ms(row.exact),
            ns_per_tuple(row.exact, row.db_tuples),
            json_exponent(exact_exp),
            fmt_ms(row.approx_encoded),
            ns_per_tuple(row.approx_encoded, row.db_tuples),
            json_exponent(enc_exp),
            fmt_ms(row.approx_row),
            row.approx_row.as_secs_f64() / row.approx_encoded.as_secs_f64(),
            fmt_ms(row.sampling),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
