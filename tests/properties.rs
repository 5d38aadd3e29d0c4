//! Property-based tests: the algorithms against brute force on random acyclic
//! instances, and structural invariants of the core data structures.

mod common;

use common::{exact, Oracle};
use proptest::prelude::*;
use quantile_joins::core::pivot::select_pivot;
use quantile_joins::core::quantile::rank_of_weight;
use quantile_joins::core::trim::{AdjacentSumTrimmer, LexTrimmer, MinMaxTrimmer, Trimmer};
use quantile_joins::exec::yannakakis::materialize;
use quantile_joins::exec::DirectAccess;
use quantile_joins::prelude::*;
use quantile_joins::ranking::RankPredicate;
use quantile_joins::workload::random_acyclic::RandomAcyclicConfig;

fn random_instance(seed: u64, atoms: usize) -> Instance {
    RandomAcyclicConfig {
        atoms,
        max_arity: 3,
        tuples_per_relation: 12,
        domain: 5,
        seed,
    }
    .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Counting by message passing agrees with materialization on random instances.
    #[test]
    fn counting_matches_materialization(seed in 0u64..5000, atoms in 1usize..5) {
        let instance = random_instance(seed, atoms);
        let counted = count_answers(&instance).unwrap();
        let materialized = materialize(&instance).unwrap().len() as u128;
        prop_assert_eq!(counted, materialized);
    }

    /// Direct access enumerates exactly the materialized answers, each exactly once.
    #[test]
    fn direct_access_is_a_bijection(seed in 0u64..5000, atoms in 1usize..4) {
        let instance = random_instance(seed, atoms);
        let access = DirectAccess::new(&instance).unwrap();
        let materialized = materialize(&instance).unwrap();
        prop_assert_eq!(access.total(), materialized.len() as u128);
        if access.total() > 0 && access.total() < 3000 {
            let mut seen = std::collections::HashSet::new();
            for i in 0..access.total() {
                let answer = access.answer_at(i).unwrap();
                let key = format!("{answer:?}");
                prop_assert!(seen.insert(key));
            }
        }
    }

    /// The pivot returned by Algorithm 2 really is a c-pivot, for several rankings.
    #[test]
    fn pivots_respect_their_guarantee(seed in 0u64..5000, atoms in 1usize..4, kind in 0usize..4) {
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let all_vars = instance.query().variables();
        let ranking = match kind {
            0 => Ranking::sum(all_vars),
            1 => Ranking::min(all_vars),
            2 => Ranking::max(all_vars),
            _ => Ranking::lex(all_vars),
        };
        let pivot = select_pivot(&instance, &ranking).unwrap();
        let oracle = Oracle::new(&instance, &ranking);
        let (below, equal) = oracle.rank_of(&pivot.weight);
        let total = oracle.total() as f64;
        let (le, ge) = ((below + equal) as f64 / total, (oracle.total() - below) as f64 / total);
        prop_assert!(le >= pivot.c - 1e-12, "{le} < {}", pivot.c);
        prop_assert!(ge >= pivot.c - 1e-12, "{ge} < {}", pivot.c);
    }

    /// MIN/MAX trimming partitions the answers exactly around any bound.
    #[test]
    fn minmax_trimming_partitions_exactly(seed in 0u64..5000, atoms in 1usize..4, bound in -1.0f64..10.0, use_max in any::<bool>()) {
        let instance = random_instance(seed, atoms);
        let total = count_answers(&instance).unwrap();
        let vars = instance.query().variables();
        let ranking = if use_max { Ranking::max(vars) } else { Ranking::min(vars) };
        let lt = MinMaxTrimmer.trim(&instance, &ranking, &RankPredicate::less_than(Weight::num(bound))).unwrap();
        let gt = MinMaxTrimmer.trim(&instance, &ranking, &RankPredicate::greater_than(Weight::num(bound))).unwrap();
        let n_lt = count_answers(&lt).unwrap();
        let n_gt = count_answers(&gt).unwrap();
        let (below, equal) = rank_of_weight(&instance, &ranking, &Weight::num(bound)).unwrap();
        prop_assert_eq!(n_lt, below);
        prop_assert_eq!(n_gt, total - below - equal);
    }

    /// Exact quantiles agree with the brute-force baseline whenever the ranking is on
    /// the tractable side of the dichotomy.
    #[test]
    fn exact_quantiles_match_brute_force(seed in 0u64..5000, atoms in 1usize..4, phi in 0.0f64..1.0, kind in 0usize..4) {
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let all_vars = instance.query().variables();
        let ranking = match kind {
            0 => Ranking::max(all_vars),
            1 => Ranking::min(all_vars),
            2 => Ranking::lex(all_vars),
            _ => {
                let sum = Ranking::sum(all_vars);
                if !classify_partial_sum(instance.query(), sum.weighted_vars()).is_tractable() {
                    return Ok(());
                }
                sum
            }
        };
        let result = exact(&instance, &ranking, phi).unwrap();
        let (below, equal) = Oracle::new(&instance, &ranking).rank_of(&result.weight);
        prop_assert!(equal >= 1);
        prop_assert!(result.target_index >= below && result.target_index < below + equal);
    }

    /// LEX trimming is exact on random instances and random bounds.
    #[test]
    fn lex_trimming_partitions_exactly(seed in 0u64..5000, b1 in 0.0f64..5.0, b2 in 0.0f64..5.0) {
        let instance = random_instance(seed, 3);
        let total = count_answers(&instance).unwrap();
        let all_vars = instance.query().variables();
        let lex_vars: Vec<Variable> = all_vars.into_iter().take(2).collect();
        if lex_vars.len() < 2 {
            return Ok(());
        }
        let ranking = Ranking::lex(lex_vars);
        let bound = Weight::Vec(vec![b1.floor(), b2.floor()]);
        let lt = LexTrimmer.trim(&instance, &ranking, &RankPredicate::less_than(bound.clone())).unwrap();
        let gt = LexTrimmer.trim(&instance, &ranking, &RankPredicate::greater_than(bound.clone())).unwrap();
        let n_lt = count_answers(&lt).unwrap();
        let n_gt = count_answers(&gt).unwrap();
        let (below, equal) = rank_of_weight(&instance, &ranking, &bound).unwrap();
        prop_assert_eq!(n_lt, below);
        prop_assert_eq!(n_gt, total - below - equal);
    }

    /// The adjacent-pair SUM trimming is exact whenever the dichotomy admits a cover.
    #[test]
    fn adjacent_sum_trimming_is_exact_when_applicable(seed in 0u64..5000, bound in 0.0f64..15.0) {
        let instance = random_instance(seed, 3);
        let total = count_answers(&instance).unwrap();
        let all_vars = instance.query().variables();
        let candidate: Vec<Variable> = all_vars.into_iter().take(3).collect();
        let ranking = Ranking::sum(candidate);
        if !classify_partial_sum(instance.query(), ranking.weighted_vars()).is_tractable() {
            return Ok(());
        }
        let lt = AdjacentSumTrimmer.trim(&instance, &ranking, &RankPredicate::less_than(Weight::num(bound))).unwrap();
        let gt = AdjacentSumTrimmer.trim(&instance, &ranking, &RankPredicate::greater_than(Weight::num(bound))).unwrap();
        let n_lt = count_answers(&lt).unwrap();
        let n_gt = count_answers(&gt).unwrap();
        let (below, equal) = rank_of_weight(&instance, &ranking, &Weight::num(bound)).unwrap();
        prop_assert_eq!(n_lt, below);
        prop_assert_eq!(n_gt, total - below - equal);
    }
}
