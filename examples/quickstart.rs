//! Quickstart: quantiles over a join without materializing it.
//!
//! Builds a small database by hand, asks for quantiles under three different ranking
//! functions, and cross-checks each against the brute-force baseline.
//!
//! Run with `cargo run --example quickstart`.

use quantile_joins::prelude::*;

fn main() {
    // A 3-path join: R1(x1, x2) ⋈ R2(x2, x3) ⋈ R3(x3, x4).
    let r1 = Relation::from_rows(
        "R1",
        &[&[3, 0], &[14, 0], &[7, 1], &[25, 1], &[1, 2], &[9, 2]],
    )
    .unwrap();
    let r2 =
        Relation::from_rows("R2", &[&[0, 10], &[0, 11], &[1, 10], &[2, 12], &[2, 13]]).unwrap();
    let r3 = Relation::from_rows(
        "R3",
        &[
            &[10, 4],
            &[10, 40],
            &[11, 8],
            &[12, 2],
            &[13, 17],
            &[13, 30],
        ],
    )
    .unwrap();
    let instance = Instance::new(
        path_query(3),
        Database::from_relations([r1, r2, r3]).unwrap(),
    )
    .unwrap();

    println!("query       : {}", instance.query());
    println!("database    : {} tuples", instance.database_size());
    println!("join answers: {}\n", count_answers(&instance).unwrap());

    // 1. Median by MAX over the endpoints (Theorem 5.3: tractable for every acyclic JQ).
    let by_max = Ranking::max(vars(&["x1", "x4"]));
    report(&instance, &by_max, 0.5);

    // 2. Lower quartile by the partial SUM x1 + x2 + x3 (tractable side of Theorem 5.6).
    let by_partial_sum = Ranking::sum(vars(&["x1", "x2", "x3"]));
    report(&instance, &by_partial_sum, 0.25);

    // 3. Upper quartile by a lexicographic order on (x2, x4).
    let by_lex = Ranking::lex(vars(&["x2", "x4"]));
    report(&instance, &by_lex, 0.75);

    // 4. Full SUM over a 3-path is intractable exactly — the solver says so and the
    //    deterministic ε-approximation takes over (Theorem 6.2).
    let full_sum = prepare(&instance, Ranking::sum(instance.query().variables()));
    match full_sum.solve(&[0.5], Accuracy::Exact, &NoopTracer) {
        Err(err) => println!("full SUM      : exact solver refused: {err}"),
        Ok(_) => unreachable!("the 3-path with full SUM is intractable"),
    }
    let eps = Accuracy::Approximate { epsilon: 0.1 };
    let approx = full_sum.solve(&[0.5], eps, &NoopTracer).unwrap().remove(0);
    println!(
        "full SUM      : ε=0.1 approximate median has weight {} (answer {:?})",
        approx.weight, approx.answer
    );
}

/// Prepares the one plan every request for `ranking` over `instance` goes through.
fn prepare(instance: &Instance, ranking: Ranking) -> Plan {
    Plan::prepare(EncodedInstance::from_instance(instance).unwrap(), ranking).unwrap()
}

fn report(instance: &Instance, ranking: &Ranking, phi: f64) {
    let plan = prepare(instance, ranking.clone());
    let fast = plan
        .solve(&[phi], Accuracy::Exact, &NoopTracer)
        .unwrap()
        .remove(0);
    let slow =
        quantile_by_materialization(instance, ranking, phi, BaselineStrategy::FullSort).unwrap();
    println!(
        "{ranking:<14}: φ={phi:<4} → weight {} in {} pivoting iterations (baseline agrees: {})",
        fast.weight,
        fast.iterations,
        fast.weight == slow.weight
    );
    println!("                answer {:?}\n", fast.answer);
}
