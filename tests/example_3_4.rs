//! Example 3.4 of the paper, end to end: the median by full SUM of a binary join with
//! 1001 answers, computed by pivoting and partitioning.

mod common;

use common::exact;
use quantile_joins::core::quantile::{quantile_by_pivoting, rank_of_weight, PivotingOptions};
use quantile_joins::core::trim::{AdjacentSumTrimmer, Trimmer};
use quantile_joins::prelude::*;
use quantile_joins::ranking::RankPredicate;
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

#[test]
fn partitions_around_a_pivot_weight_cover_all_answers() {
    // The example partitions the 1001 answers around a pivot weight into less-than,
    // equal-to, and greater-than; the counts must add up exactly, whatever the pivot.
    let instance = example_3_4_instance();
    let ranking = Ranking::sum(instance.query().variables());
    let pivot = quantile_joins::core::pivot::select_pivot(&instance, &ranking).unwrap();

    let lt = AdjacentSumTrimmer
        .trim(
            &instance,
            &ranking,
            &RankPredicate::less_than(pivot.weight.clone()),
        )
        .unwrap();
    let gt = AdjacentSumTrimmer
        .trim(
            &instance,
            &ranking,
            &RankPredicate::greater_than(pivot.weight.clone()),
        )
        .unwrap();
    let n_lt = count_answers(&lt).unwrap();
    let n_gt = count_answers(&gt).unwrap();
    assert!(
        n_lt + n_gt < 1001,
        "the pivot's own weight class is non-empty"
    );
    let (below, equal) = rank_of_weight(&instance, &ranking, &pivot.weight).unwrap();
    assert_eq!(n_lt, below);
    assert_eq!(n_gt, 1001 - below - equal);
    // The pivot guarantee: both sides hold at least c · |Q(D)| answers.
    let c_bound = (pivot.c * 1001.0).floor() as u128;
    assert!(n_lt + equal >= c_bound);
    assert!(n_gt + equal >= c_bound);
}

#[test]
fn forcing_iteration_reproduces_the_example_walkthrough() {
    // Run the driver with a tiny materialization threshold so it must iterate, as in
    // the example's narrative, and check it still lands on a true median.
    let instance = example_3_4_instance();
    let ranking = Ranking::sum(instance.query().variables());
    let options = PivotingOptions {
        materialize_threshold: Some(8),
        max_iterations: 128,
    };
    let result =
        quantile_by_pivoting(&instance, &ranking, 0.5, &AdjacentSumTrimmer, &options).unwrap();
    assert!(result.iterations >= 1);
    let (below, equal) = rank_of_weight(&instance, &ranking, &result.weight).unwrap();
    assert!(result.target_index >= below && result.target_index < below + equal);
}
