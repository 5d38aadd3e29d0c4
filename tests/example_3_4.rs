//! Example 3.4 of the paper, end to end: the median by full SUM of a binary join with
//! 1001 answers, computed by pivoting and partitioning.

mod common;

use common::{exact, traced, Oracle};
use quantile_joins::core::quantile::rank_of_weight;
use quantile_joins::prelude::*;
use quantile_joins::workload::figures::example_3_4_instance;

#[test]
fn the_instance_has_1001_answers_and_the_median_index_is_500() {
    let instance = example_3_4_instance();
    assert_eq!(count_answers(&instance).unwrap(), 1001);
    let ranking = Ranking::sum(instance.query().variables());
    let result = exact(&instance, &ranking, 0.5).unwrap();
    assert_eq!(result.target_index, 500);
    let (below, equal) = rank_of_weight(&instance, &ranking, &result.weight).unwrap();
    assert!(result.target_index >= below && result.target_index < below + equal);
}

/// The example partitions the 1001 answers around a pivot weight into less-than,
/// equal-to and greater-than. Round 0 of the exact route (the adjacent pair's X+Y
/// pivot) must split the brute force's sorted answers exactly there, the counts
/// adding up to 1001, and leave at least a quarter of them on each side of its
/// pivot, the pair pivot's guarantee (fails if a pair cut is searched with `≤` for
/// `<`: the pivot's ties move into the less-than side).
#[test]
fn partitions_around_a_pivot_weight_cover_all_answers() {
    let instance = example_3_4_instance();
    let ranking = Ranking::sum(instance.query().variables());
    let oracle = Oracle::new(&instance, &ranking);
    let (result, rounds) = traced(&instance, &ranking, 0.5, Accuracy::Exact, Some(1)).unwrap();
    oracle.assert_exact(0.5, &result, "median");
    oracle.assert_rounds(result.target_index, &rounds, "median");
    let round = rounds[0];
    assert_eq!(round.n_lt + round.n_eq + round.n_gt, 1001);
    assert!(round.n_eq >= 1, "the pivot's own weight class is non-empty");
    let quarter = 1001 / 4;
    assert!(round.n_lt + round.n_eq >= quarter, "{round:?}");
    assert!(round.n_gt + round.n_eq >= quarter, "{round:?}");
}

/// Run the exact route with a materialization threshold of eight, so it must
/// iterate, as in the example's narrative: it still lands on the brute force's
/// median, every round on the way partitions exactly, and every round's tie band
/// holds the pivot, an answer (fails if a pair cut is searched with `≤` for `<`).
#[test]
fn forcing_iteration_reproduces_the_example_walkthrough() {
    let instance = example_3_4_instance();
    let ranking = Ranking::sum(instance.query().variables());
    let (result, rounds) = traced(&instance, &ranking, 0.5, Accuracy::Exact, Some(8)).unwrap();
    assert!(result.iterations >= 1);
    assert_eq!(result.iterations, rounds.len());
    let oracle = Oracle::new(&instance, &ranking);
    oracle.assert_exact(0.5, &result, "median");
    oracle.assert_rounds(result.target_index, &rounds, "median");
    assert!(rounds.iter().all(|r| r.n_eq >= 1), "{rounds:?}");
}
