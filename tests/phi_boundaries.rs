//! φ boundary hardening: explicit coverage for φ = 0, φ = 1, and fractions within
//! `1/N` of a rank boundary, across the SUM / MIN / MAX / LEX solvers.
//!
//! The sharp edge is floating point: the target rank is `⌊φ·N⌋`, and a fraction
//! computed as `r / N` in `f64` can land a few ULPs below the real quotient (e.g.
//! `(1.0 / 49.0) * 49.0 < 1.0`), which a naive floor sends to rank `r − 1`. The
//! `target_rank` helper snaps near-integer products before flooring; these tests pin
//! that behavior end to end.

mod common;

use common::{exact, solve};
use quantile_joins::prelude::*;
use quantile_joins::workload::path::PathConfig;

fn three_path(seed: u64) -> Instance {
    PathConfig {
        atoms: 3,
        tuples_per_relation: 40,
        join_domain: 6,
        weight_range: 500,
        skew: 0.3,
        seed,
    }
    .generate()
}

fn rankings_under_test(instance: &Instance) -> Vec<Ranking> {
    vec![
        Ranking::min(instance.query().variables()),
        Ranking::max(instance.query().variables()),
        Ranking::lex(vars(&["x2", "x4", "x1"])),
        // Adjacent partial SUM (tractable side of Theorem 5.6).
        Ranking::sum(vars(&["x1", "x2", "x3"])),
    ]
}

fn assert_valid(instance: &Instance, ranking: &Ranking, result: &QuantileResult, label: &str) {
    let (below, equal) =
        quantile_joins::core::quantile::rank_of_weight(instance, ranking, &result.weight).unwrap();
    assert!(
        result.target_index >= below && result.target_index < below + equal,
        "{label}: target {} outside window [{}, {})",
        result.target_index,
        below,
        below + equal
    );
}

#[test]
fn target_rank_is_exact_at_every_boundary_fraction() {
    // r/N computed in f64 must map back to rank r for every r, including the values
    // where the product rounds below the integer (N = 49 exhibits this for r = 1).
    for total in [1u128, 2, 3, 7, 49, 50, 1000, 12_345] {
        for r in 0..total.min(200) {
            let phi = r as f64 / total as f64;
            assert_eq!(
                target_rank(phi, total),
                r,
                "phi = {r}/{total} must target rank {r}"
            );
        }
    }
}

#[test]
fn target_rank_respects_offsets_between_boundaries() {
    for total in [10u128, 49, 100] {
        for r in 1..total.min(30) {
            let below = (r as f64 - 0.5) / total as f64;
            let above = (r as f64 + 0.5) / total as f64;
            assert_eq!(target_rank(below, total), r - 1, "({r}-0.5)/{total}");
            assert_eq!(
                target_rank(above, total),
                (r).min(total - 1),
                "({r}+0.5)/{total}"
            );
        }
        assert_eq!(target_rank(0.0, total), 0);
        assert_eq!(target_rank(1.0, total), total - 1);
    }
}

#[test]
fn phi_zero_and_one_hit_the_extremes_for_every_solver() {
    let instance = three_path(11);
    for ranking in rankings_under_test(&instance) {
        let min = exact(&instance, &ranking, 0.0).unwrap();
        let max = exact(&instance, &ranking, 1.0).unwrap();
        assert_eq!(min.target_index, 0, "ranking {ranking}");
        assert_eq!(max.target_index, max.total_answers - 1, "ranking {ranking}");
        assert!(min.weight <= max.weight, "ranking {ranking}");
        assert_valid(&instance, &ranking, &min, "phi=0");
        assert_valid(&instance, &ranking, &max, "phi=1");
    }
}

#[test]
fn fractions_within_one_over_n_of_a_boundary_are_exact() {
    let instance = three_path(23);
    for ranking in rankings_under_test(&instance) {
        let total = exact(&instance, &ranking, 0.0).unwrap().total_answers;
        assert!(total > 4, "workload too small to probe boundaries");
        // Probe the first, middle, and last boundary ranks, each from the boundary
        // itself and from half a rank on either side.
        for r in [1u128, total / 2, total - 1] {
            let at = r as f64 / total as f64;
            let below = (r as f64 - 0.5) / total as f64;
            let above = ((r as f64 + 0.5) / total as f64).min(1.0);
            let result_at = exact(&instance, &ranking, at).unwrap();
            assert_eq!(
                result_at.target_index, r,
                "ranking {ranking}: phi={r}/{total} must target rank {r}"
            );
            let result_below = exact(&instance, &ranking, below).unwrap();
            assert_eq!(result_below.target_index, r - 1, "ranking {ranking}");
            let result_above = exact(&instance, &ranking, above).unwrap();
            assert!(result_above.target_index >= r, "ranking {ranking}");
            assert!(result_below.weight <= result_at.weight, "ranking {ranking}");
            assert!(result_at.weight <= result_above.weight, "ranking {ranking}");
            for (label, result) in [
                ("at", &result_at),
                ("below", &result_below),
                ("above", &result_above),
            ] {
                assert_valid(&instance, &ranking, result, label);
            }
        }
    }
}

#[test]
fn baseline_agrees_with_exact_at_boundary_fractions() {
    // The "direct way" baseline and the pivoting solver must target the same rank for
    // the same φ, including fractions computed as r/N (where naive flooring drifts).
    let instance = three_path(17);
    let ranking = Ranking::sum(vars(&["x1", "x2", "x3"]));
    let total = exact(&instance, &ranking, 0.0).unwrap().total_answers;
    for r in [1u128, total / 3, total / 2, total - 1] {
        let phi = r as f64 / total as f64;
        let exact = exact(&instance, &ranking, phi).unwrap();
        let baseline =
            quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::Selection)
                .unwrap();
        assert_eq!(exact.target_index, baseline.target_index, "phi={r}/{total}");
        assert_eq!(exact.weight, baseline.weight, "phi={r}/{total}");
    }
}

#[test]
fn batched_boundaries_agree_with_single_solves() {
    let instance = three_path(5);
    for ranking in rankings_under_test(&instance) {
        let total = exact(&instance, &ranking, 0.0).unwrap().total_answers;
        let phis = [
            0.0,
            1.0 / total as f64,
            0.5 - 1.0 / total as f64,
            0.5,
            (total - 1) as f64 / total as f64,
            1.0,
        ];
        let batched = solve(&instance, &ranking, &phis, Accuracy::Exact).unwrap();
        for (phi, b) in phis.iter().zip(&batched) {
            let single = exact(&instance, &ranking, *phi).unwrap();
            assert_eq!(b.target_index, single.target_index, "phi {phi}");
            assert_eq!(b.weight, single.weight, "phi {phi}");
            assert_eq!(b.answer, single.answer, "phi {phi}");
        }
    }
}
