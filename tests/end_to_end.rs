//! Cross-crate integration tests: the full quantile pipeline against the brute-force
//! baseline on generated workloads, for every ranking function family.

mod common;

use common::Oracle;
use quantile_joins::core::sampling::{quantile_by_sampling, SamplingOptions};
use quantile_joins::prelude::*;
use quantile_joins::CoreError;

/// Asserts that `result` is a valid φ-quantile of the oracle's instance under its
/// ranking: the targeted index falls inside the returned weight's rank window.
fn assert_valid_quantile(oracle: &Oracle, result: &QuantileResult) {
    let (below, equal) = oracle.rank_of(&result.weight);
    assert!(equal >= 1, "returned weight belongs to no answer");
    assert!(
        result.target_index >= below && result.target_index < below + equal,
        "target {} outside [{}, {})",
        result.target_index,
        below,
        below + equal
    );
}

#[test]
fn social_network_partial_sum_quantiles_match_baseline() {
    let config = SocialConfig {
        rows_per_relation: 400,
        users: 300,
        events: 40,
        max_likes: 500,
        event_skew: 0.7,
        seed: 11,
    };
    let instance = config.generate();
    let ranking = config.likes_ranking();
    let oracle = Oracle::new(&instance, &ranking);
    for phi in [0.1, 0.5, 0.9] {
        let fast = exact_quantile(&instance, &ranking, phi).unwrap();
        let slow =
            quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::Selection)
                .unwrap();
        assert_eq!(fast.weight, slow.weight, "phi {phi}");
        assert_valid_quantile(&oracle, &fast);
    }
}

#[test]
fn min_max_quantiles_on_generated_paths() {
    let instance = PathConfig {
        atoms: 3,
        tuples_per_relation: 250,
        join_domain: 12,
        weight_range: 500,
        skew: 0.4,
        seed: 3,
    }
    .generate();
    for ranking in [
        Ranking::min(instance.query().variables()),
        Ranking::max(instance.query().variables()),
        Ranking::min(vars(&["x1", "x4"])),
        Ranking::max(vars(&["x2", "x3"])),
    ] {
        let oracle = Oracle::new(&instance, &ranking);
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let fast = exact_quantile(&instance, &ranking, phi).unwrap();
            assert_valid_quantile(&oracle, &fast);
        }
    }
}

#[test]
fn lex_quantiles_on_generated_paths() {
    let instance = PathConfig {
        atoms: 2,
        tuples_per_relation: 300,
        join_domain: 15,
        weight_range: 50,
        skew: 0.0,
        seed: 9,
    }
    .generate();
    for ranking in [
        Ranking::lex(vars(&["x1", "x3"])),
        Ranking::lex(vars(&["x3", "x2", "x1"])),
    ] {
        let oracle = Oracle::new(&instance, &ranking);
        for phi in [0.2, 0.5, 0.8] {
            let fast = exact_quantile(&instance, &ranking, phi).unwrap();
            assert_valid_quantile(&oracle, &fast);
        }
    }
}

#[test]
fn full_sum_on_binary_join_matches_baseline() {
    let instance = PathConfig {
        atoms: 2,
        tuples_per_relation: 400,
        join_domain: 20,
        weight_range: 1_000,
        skew: 0.5,
        seed: 17,
    }
    .generate();
    let ranking = Ranking::sum(instance.query().variables());
    let oracle = Oracle::new(&instance, &ranking);
    for phi in [0.05, 0.5, 0.95] {
        let fast = exact_quantile(&instance, &ranking, phi).unwrap();
        assert_valid_quantile(&oracle, &fast);
    }
}

#[test]
fn intractable_full_sum_is_refused_and_approximated() {
    let instance = PathConfig {
        atoms: 3,
        tuples_per_relation: 150,
        join_domain: 10,
        weight_range: 300,
        skew: 0.0,
        seed: 23,
    }
    .generate();
    let ranking = Ranking::sum(instance.query().variables());
    assert!(matches!(
        exact_quantile(&instance, &ranking, 0.5).unwrap_err(),
        CoreError::IntractableSum(_)
    ));

    let total = count_answers(&instance).unwrap();
    let epsilon = 0.1;
    let approx =
        approximate_sum_quantile(&instance, &ranking, 0.5, epsilon, ErrorBudget::Direct).unwrap();
    let (below, equal) = Oracle::new(&instance, &ranking).rank_of(&approx.weight);
    // Allow the accumulated error of the iterated lossy trimmings.
    let slack = (2.0 * epsilon * approx.iterations.max(1) as f64 * total as f64).max(1.0);
    let target = approx.target_index as f64;
    assert!(
        (below as f64) <= target + slack && (below + equal) as f64 >= target - slack,
        "approximate answer too far from the target: window [{below}, {}) target {target} slack {slack}",
        below + equal
    );
}

#[test]
fn sampling_approximation_tracks_the_target() {
    let instance = PathConfig {
        atoms: 3,
        tuples_per_relation: 200,
        join_domain: 8,
        weight_range: 100,
        skew: 0.0,
        seed: 31,
    }
    .generate();
    let ranking = Ranking::sum(instance.query().variables());
    let options = SamplingOptions {
        epsilon: 0.05,
        delta: 0.01,
        seed: 5,
    };
    let result = quantile_by_sampling(&instance, &ranking, 0.5, &options).unwrap();
    let (below, equal) = Oracle::new(&instance, &ranking).rank_of(&result.weight);
    let total = result.total_answers as f64;
    assert!(
        (below as f64) <= 0.65 * total && (below + equal) as f64 >= 0.35 * total,
        "sampled median too far from the middle: [{below}, {})",
        below + equal
    );
}

#[test]
fn dichotomy_classifier_matches_solver_behaviour() {
    let social = SocialConfig::default();
    assert!(classify_partial_sum(
        social.generate().query(),
        social.likes_ranking().weighted_vars()
    )
    .is_tractable());

    let three_path = path_query(3);
    assert!(!classify_partial_sum(&three_path, &three_path.variables()).is_tractable());

    let star = star_query(3);
    assert!(!classify_partial_sum(&star, &vars(&["x1", "x2", "x3"])).is_tractable());
    assert!(classify_partial_sum(&star, &vars(&["x0", "x2"])).is_tractable());
}

#[test]
fn quantiles_are_monotone_in_phi() {
    let instance = PathConfig {
        atoms: 2,
        tuples_per_relation: 350,
        join_domain: 25,
        weight_range: 700,
        skew: 0.2,
        seed: 41,
    }
    .generate();
    let ranking = Ranking::sum(instance.query().variables());
    let mut previous: Option<Weight> = None;
    for phi in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let result = exact_quantile(&instance, &ranking, phi).unwrap();
        if let Some(prev) = &previous {
            assert!(
                prev <= &result.weight,
                "quantile weights must be monotone in φ"
            );
        }
        previous = Some(result.weight);
    }
}
