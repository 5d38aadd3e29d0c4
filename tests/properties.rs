//! Property-based tests: the algorithms against brute force on random acyclic
//! instances, and structural invariants of the core data structures.

mod common;

use common::{exact, traced, Oracle, Round};
use proptest::prelude::*;
use quantile_joins::core::pivot::pivot_quality;
use quantile_joins::exec::yannakakis::materialize;
use quantile_joins::exec::EncodedDirectAccess;
use quantile_joins::prelude::*;
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

/// Solves φ exactly with a threshold of one, so the route pivots until a tie band
/// or a one-answer leaf holds the target, and holds the answer and every round's
/// partition to the brute force.
fn assert_rounds_partition_exactly(instance: &Instance, ranking: &Ranking, phi: f64) -> Vec<Round> {
    let oracle = Oracle::new(instance, ranking);
    if oracle.total() == 0 {
        return Vec::new();
    }
    let what = format!("{ranking} at φ={phi}");
    let (result, rounds) = traced(instance, ranking, phi, Accuracy::Exact, Some(1)).unwrap();
    oracle.assert_exact(phi, &result, &what);
    oracle.assert_rounds(result.target_index, &rounds, &what);
    assert!(
        oracle.total() == 1 || !rounds.is_empty(),
        "{what}: no round ran"
    );
    rounds
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

    /// The encoded direct access is a bijection from `0..|Q(D)|` onto the brute
    /// force's answers (fails if `answer_at` locates a member past its prefix block:
    /// one answer twice, another never).
    #[test]
    fn direct_access_is_a_bijection(seed in 0u64..5000, atoms in 1usize..4) {
        let instance = random_instance(seed, atoms);
        let encoded = EncodedInstance::from_instance(&instance).unwrap();
        let access = EncodedDirectAccess::new(&encoded).unwrap();
        let mut expected = common::join(&instance);
        prop_assert_eq!(access.total(), expected.len() as u128);
        let variables = instance.query().variables();
        let mut accessed: Vec<Vec<Value>> = (0..access.total())
            .map(|i| {
                let answer = access.answer_at(i).unwrap();
                variables.iter().map(|v| answer.get(v).unwrap().clone()).collect()
            })
            .collect();
        accessed.sort();
        expected.sort();
        prop_assert_eq!(accessed, expected);
    }

    /// Algorithm 2's pivot, which the ε route takes at round 0, is a c-pivot of the
    /// brute force's answers (c = `pivot_quality` of the join tree) for several SUM
    /// rankings, and every round partitions exactly: at these sizes no sketch
    /// compresses (fails if a group's weighted median takes the wrong element).
    #[test]
    fn pivots_respect_their_guarantee(seed in 0u64..5000, atoms in 1usize..4, kind in 0usize..4) {
        let instance = random_instance(seed, atoms);
        let oracle_total = count_answers(&instance).unwrap();
        if oracle_total < 2 {
            return Ok(());
        }
        let all_vars = instance.query().variables();
        let ranking = match kind {
            0 => Ranking::sum(all_vars),
            1 => Ranking::sum(instance.query().atom(0).variables().to_vec()),
            2 => Ranking::sum(all_vars.into_iter().take(2).collect()),
            _ => Ranking::sum(all_vars.into_iter().rev().take(2).collect()),
        };
        let oracle = Oracle::new(&instance, &ranking);
        let accuracy = Accuracy::Approximate { epsilon: 0.1 };
        let (result, rounds) = traced(&instance, &ranking, 0.5, accuracy, Some(1)).unwrap();
        let what = format!("{ranking}");
        oracle.assert_exact(0.5, &result, &what);
        oracle.assert_rounds(result.target_index, &rounds, &what);
        let c = pivot_quality(common::prepare(&instance, &ranking).unwrap().join_tree());
        let round = rounds[0];
        let total = oracle.total() as f64;
        let (le, ge) = ((round.n_lt + round.n_eq) as f64 / total, (round.n_gt + round.n_eq) as f64 / total);
        prop_assert!(le >= c - 1e-12, "{le} < {c}");
        prop_assert!(ge >= c - 1e-12, "{ge} < {c}");
    }

    /// The MIN/MAX search partitions exactly at every round: each round's counts
    /// split the brute force's sorted answers on weight-class boundaries (fails if
    /// a window bound is off by one candidate).
    #[test]
    fn minmax_trimming_partitions_exactly(seed in 0u64..5000, atoms in 1usize..4, phi in 0.0f64..1.0, use_max in any::<bool>()) {
        let instance = random_instance(seed, atoms);
        let vars = instance.query().variables();
        let ranking = if use_max { Ranking::max(vars) } else { Ranking::min(vars) };
        assert_rounds_partition_exactly(&instance, &ranking, phi);
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

    /// The LEX search partitions exactly at every round, component by component
    /// (fails if a tie on one component is decided on the wrong variable).
    #[test]
    fn lex_trimming_partitions_exactly(seed in 0u64..5000, phi in 0.0f64..1.0, reversed in any::<bool>()) {
        let instance = random_instance(seed, 3);
        let mut lex_vars: Vec<Variable> = instance.query().variables().into_iter().take(2).collect();
        if lex_vars.len() < 2 {
            return Ok(());
        }
        if reversed {
            lex_vars.reverse();
        }
        assert_rounds_partition_exactly(&instance, &Ranking::lex(lex_vars), phi);
    }

    /// The SUM routes partition exactly at every round whenever the dichotomy admits
    /// a cover: one atom's search, or an adjacent pair's counted windows, whose pivot
    /// is an answer, so its tie band is never empty (fails if a pair cut is searched
    /// with `≤` for `<`: the pivot's ties move into the less-than side).
    #[test]
    fn adjacent_sum_trimming_is_exact_when_applicable(seed in 0u64..5000, phi in 0.0f64..1.0) {
        let instance = random_instance(seed, 3);
        let candidate: Vec<Variable> = instance.query().variables().into_iter().take(3).collect();
        let ranking = Ranking::sum(candidate);
        if !classify_partial_sum(instance.query(), ranking.weighted_vars()).is_tractable() {
            return Ok(());
        }
        let rounds = assert_rounds_partition_exactly(&instance, &ranking, phi);
        let plan = common::prepare(&instance, &ranking).unwrap();
        if matches!(plan.strategy(), PlanStrategy::SumAdjacentPair { .. }) {
            prop_assert!(rounds.iter().all(|r| r.n_eq >= 1), "{ranking}: {rounds:?}");
        }
    }
}

/// The sampled route against the per-draw reference it stands for: `m` calls of
/// `EncodedDirectAccess::sample` on `StdRng::seed_from_u64(seed)`, each answer
/// weighed by `Ranking::weight_of`, stably sorted by weight; fraction φ takes rank
/// `target_rank(φ, m)`. Random acyclic instances (self-joins, repeated variables)
/// under tie-heavy rankings of every kind, LEX included, at 1 and 4 threads: the
/// weight bits, the answer and `target_index` must agree. Fails if a LEX weight
/// is written to the wrong component, or if the draws are sorted unstably
/// (`sort_unstable_by`: tied draws swap). A walk that peels a child's digit with
/// `/` and `%` swapped panics here and breaks `direct_access_is_a_bijection`.
#[test]
fn sampled_solves_match_the_per_draw_reference() {
    use quantile_joins::par::{with_pool, Pool};
    use quantile_joins::workload::random_acyclic::{random_acyclic_instance, tie_heavy_ranking};
    use rand::{rngs::StdRng, SeedableRng};

    // m = ⌈ln(20) / 0.08⌉ = 38 draws.
    let options = SamplingOptions {
        epsilon: 0.2,
        delta: 0.1,
        seed: 0x5a3b,
    };
    let m = options.sample_count();
    let phis = [0.0, 0.1, 0.25, 0.5, 0.9, 1.0];
    let bits = |w: &Weight| match w {
        Weight::Num(x) => vec![x.to_bits()],
        Weight::Vec(v) => v.iter().map(|x| x.to_bits()).collect(),
    };
    for threads in [1, 4] {
        let mut rng = StdRng::seed_from_u64(0x7e57);
        let mut answered = [0usize; 4];
        with_pool(&Pool::new(threads), || {
            for case in 0..150 {
                let instance = random_acyclic_instance(&mut rng);
                let encoded = EncodedInstance::from_instance(&instance).unwrap();
                let access = EncodedDirectAccess::new(&encoded).unwrap();
                if access.total() <= m as u128 {
                    continue;
                }
                let kinds = [
                    AggregateKind::Min,
                    AggregateKind::Max,
                    AggregateKind::Lex,
                    AggregateKind::Sum,
                ];
                for (k, kind) in kinds.into_iter().enumerate() {
                    for domain in [0, 1, 2, 3, 9] {
                        let ranking = tie_heavy_ranking(&instance, kind, domain);
                        let what = format!("case {case} {ranking} domain {domain} T={threads}");
                        let mut draws = StdRng::seed_from_u64(options.seed);
                        let mut reference: Vec<(Weight, quantile_joins::query::Assignment)> = (0
                            ..m)
                            .map(|_| {
                                let answer = access.sample(&mut draws).unwrap();
                                (ranking.weight_of(&answer), answer)
                            })
                            .collect();
                        reference.sort_by(|a, b| a.0.cmp(&b.0));
                        let accuracy = Accuracy::Bounded {
                            epsilon: options.epsilon,
                            delta: options.delta,
                            seed: options.seed,
                        };
                        let plan = Plan::prepare(encoded.clone(), ranking.clone()).unwrap();
                        let sampled = plan.solve(&phis, accuracy, &NoopTracer).unwrap();
                        for (phi, result) in phis.iter().zip(&sampled) {
                            let pick = (target_rank(*phi, m as u128) as usize).min(m - 1);
                            let (weight, answer) = &reference[pick];
                            assert_eq!(bits(&result.weight), bits(weight), "{what} φ={phi}");
                            assert_eq!(&result.answer, answer, "{what} φ={phi}");
                            let target = target_rank(*phi, access.total());
                            assert_eq!(result.target_index, target, "{what} φ={phi}");
                        }
                        answered[k] += 1;
                    }
                }
            }
        });
        assert!(
            answered.iter().all(|&n| n >= 50),
            "T={threads}: {answered:?}"
        );
    }
}
