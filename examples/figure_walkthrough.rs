//! Reproduces the worked figures of the paper on their exact hand-made instances:
//!
//! * Figure 1 — message-passing counts over `R(x1,x2), S(x1,x3), T(x2,x4), U(x4,x5)`;
//! * Figure 2 — the ε route's rounds under full SUM, round 0 pivoted by Algorithm 2;
//! * Example 5.1 / Figure 3 — the partition `MAX(x1,x2,x3) > 10`, and the rounds of
//!   the MAX search that takes its place;
//! * Figure 4 / Example 6.4 — the rounds of an ε-lossy solve of `x + y + z`.
//!
//! Each solve is forced to pivot down to a single candidate, and prints its round
//! events as the driver reports them. Run with `cargo run --example figure_walkthrough`.

use quantile_joins::core::encoded::{
    approximate_sum_quantile_batch_encoded_traced, exact_quantile_batch_encoded_traced,
};
use quantile_joins::core::pivot::pivot_quality;
use quantile_joins::core::quantile::rank_of_weight;
use quantile_joins::core::{PhaseContext, SolvePhase, SolveTracer};
use quantile_joins::exec::count::subtree_counts;
use quantile_joins::exec::JoinTreeContext;
use quantile_joins::prelude::*;
use quantile_joins::workload::figures;
use std::time::Duration;

fn main() {
    figure1();
    figure2();
    figure3();
    figure4();
}

/// Prints every trim round and the leaf of a solve as they finish.
struct PrintRounds;

impl SolveTracer for PrintRounds {
    fn phase_event(&self, phase: SolvePhase, _: Duration, ctx: &PhaseContext) {
        let n = |field: Option<u64>| field.unwrap_or(0);
        match phase {
            SolvePhase::TrimRound => println!(
                "  round {}: {} candidates → {} below, {} tied with, {} above the pivot",
                n(ctx.round),
                n(ctx.candidates),
                n(ctx.n_lt),
                n(ctx.n_eq),
                n(ctx.n_gt)
            ),
            SolvePhase::Materialize => println!(
                "  leaf after {} rounds: {} answers walked, {} keyed",
                n(ctx.round),
                n(ctx.materialized),
                n(ctx.keyed)
            ),
            _ => {}
        }
    }
}

/// Pivot until one candidate is left.
fn one_candidate() -> PivotingOptions {
    PivotingOptions {
        materialize_threshold: Some(1),
        ..PivotingOptions::default()
    }
}

/// Prints a returned quantile with its rank window among all answers.
fn print_result(instance: &Instance, ranking: &Ranking, result: &QuantileResult) {
    let (below, equal) = rank_of_weight(instance, ranking, &result.weight).unwrap();
    println!("  answer       : {:?}", result.answer);
    println!(
        "  weight {} at ranks [{below}, {}) of {}, target {}\n",
        result.weight,
        below + equal,
        result.total_answers,
        result.target_index
    );
}

fn figure1() {
    println!("== Figure 1: counting by message passing ==");
    let instance = figures::figure1_instance();
    let tree = figures::figure1_join_tree();
    let ctx = JoinTreeContext::build_with_tree(&instance, tree).unwrap();
    let counts = subtree_counts(&ctx);
    for node in ctx.nodes() {
        let atom = ctx.query().atom(node.atom_index);
        for (i, tuple) in node.tuples.iter().enumerate() {
            println!(
                "  {}{:?}  cnt = {}",
                atom.relation(),
                tuple,
                counts.per_tuple[node.node_id][i]
            );
        }
    }
    println!("  total |Q(D)| = {}\n", count_answers(&instance).unwrap());
}

fn figure2() {
    println!("== Figure 2: Algorithm 2's pivot under full SUM (the ε route, ε = 0.1) ==");
    let instance = figures::figure1_instance();
    let ranking = Ranking::sum(instance.query().variables());
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let plan = Plan::prepare(encoded.clone(), ranking.clone()).unwrap();
    println!("  guaranteed c : {}", pivot_quality(plan.join_tree()));
    let options = one_candidate();
    let median = approximate_sum_quantile_batch_encoded_traced(
        &encoded,
        &ranking,
        &[0.5],
        0.1,
        &options,
        &PrintRounds,
    )
    .unwrap();
    print_result(&instance, &ranking, &median[0]);
}

fn figure3() {
    println!("== Figure 3 / Example 5.1: MAX(x1,x2,x3) > 10, and the MAX search ==");
    let instance = figures::example_5_1_instance();
    let ranking = Ranking::max(vars(&["x1", "x2", "x3"]));
    let total = count_answers(&instance).unwrap();
    let (below, equal) = rank_of_weight(&instance, &ranking, &Weight::num(10.0)).unwrap();
    println!("  original answers        : {total}");
    println!("  answers with max > 10   : {}", total - below - equal);
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let options = one_candidate();
    let median =
        exact_quantile_batch_encoded_traced(&encoded, &ranking, &[0.5], &options, &PrintRounds)
            .unwrap();
    print_result(&instance, &ranking, &median[0]);
}

fn figure4() {
    println!("== Figure 4 / Example 6.4: an ε-lossy solve of x + y + z (ε = 0.5) ==");
    let instance = figures::figure4_instance();
    let ranking = Ranking::sum(vars(&["x", "y", "z"]));
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let options = one_candidate();
    let median = approximate_sum_quantile_batch_encoded_traced(
        &encoded,
        &ranking,
        &[0.5],
        0.5,
        &options,
        &PrintRounds,
    )
    .unwrap();
    print_result(&instance, &ranking, &median[0]);
}
