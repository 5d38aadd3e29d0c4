//! Deterministic vs randomized approximation on an exactly-intractable query.
//!
//! The 3-path join ranked by the **full** SUM of its variables is on the negative side
//! of the dichotomy (Theorem 5.6): no quasilinear exact algorithm exists under 3SUM.
//! The paper's answer is an ε-approximate quantile. This example runs
//!
//! * the deterministic pivoting algorithm with ε-lossy trimmings (Theorem 6.2),
//! * the randomized sampling algorithm (Section 3.1), and
//! * the exact brute-force baseline (for the ground truth),
//!
//! and reports each answer's true rank error.
//!
//! Run with `cargo run --release --example approximate_median`.

use quantile_joins::core::quantile::rank_of_weight;
use quantile_joins::prelude::*;

fn main() {
    let config = PathConfig {
        atoms: 3,
        tuples_per_relation: 600,
        join_domain: 40,
        weight_range: 1_000,
        skew: 0.3,
        seed: 99,
    };
    let instance = config.generate();
    let ranking = Ranking::sum(instance.query().variables());
    let phi = 0.5;
    let total = count_answers(&instance).unwrap();
    println!("query        : {}", instance.query());
    println!("database     : {} tuples", instance.database_size());
    println!("join answers : {total}");
    println!("ranking      : {ranking} (intractable exactly — Theorem 5.6)\n");

    let truth =
        quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::Selection).unwrap();
    println!("exact median (brute force): weight {}", truth.weight);

    println!(
        "\n{:>22} {:>14} {:>16} {:>14}",
        "algorithm", "weight", "rank error", "rel. error"
    );
    report(&instance, &ranking, phi, "baseline", &truth);

    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let plan = Plan::prepare(encoded, ranking.clone()).unwrap();
    let solve = |accuracy| plan.solve(&[phi], accuracy, &NoopTracer).unwrap().remove(0);
    for epsilon in [0.25, 0.1, 0.05] {
        let approx = solve(Accuracy::Approximate { epsilon });
        report(
            &instance,
            &ranking,
            phi,
            &format!("deterministic ε={epsilon}"),
            &approx,
        );
    }
    for epsilon in [0.1, 0.05] {
        let sampled = solve(Accuracy::Bounded {
            epsilon,
            delta: 0.05,
            seed: 7,
        });
        report(
            &instance,
            &ranking,
            phi,
            &format!("sampling ε={epsilon}"),
            &sampled,
        );
    }
}

fn report(instance: &Instance, ranking: &Ranking, phi: f64, label: &str, result: &QuantileResult) {
    let (below, equal) = rank_of_weight(instance, ranking, &result.weight).unwrap();
    let total = result.total_answers;
    let target = (phi * total as f64).floor() as u128;
    // The rank error is the distance from the target to the answer's rank window.
    let error = if target < below {
        below - target
    } else if target >= below + equal.max(1) {
        target - (below + equal.max(1) - 1)
    } else {
        0
    };
    println!(
        "{:>22} {:>14} {:>16} {:>13.3}%",
        label,
        result.weight.to_string(),
        error,
        100.0 * error as f64 / total as f64
    );
}
