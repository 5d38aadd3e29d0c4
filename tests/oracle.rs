//! Whole solves against the brute-force oracle of `tests/common`, at 1 and 4
//! threads: every route (exact single and batch, the engine, the ε-lossy and the
//! sampled approximations) over tie-heavy rankings of every aggregate, and the
//! partial-SUM dichotomy (Theorem 5.6) as an executable theorem over random acyclic
//! queries and random SUM variable sets.
//!
//! Each suite counts the cases of every arm it has and fails if one never ran.
//! Weights are small integers or 2.5, so every SUM is exact in `f64` and the fold
//! order cannot move a tie.
//!
//! Mutations that fail here: reading a weight function's `-0.0` as a weight of its
//! own (MIN/MAX over `tie_heavy_ranking` domain 1), LEX components written in
//! reverse order by the encoded weight fold, and a GYO ear test that ignores a
//! variable an atom repeats (`shaped_instance` shape 4).

mod common;

use common::Oracle;
use quantile_joins::par::{with_pool, Pool};
use quantile_joins::prelude::*;
use quantile_joins::workload::random_acyclic::{
    shaped_instance, tie_heavy_ranking, RandomAcyclicConfig,
};
use quantile_joins::CoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// The fractions every solve is asked for: both ends, and 0.9, where a MIN over
/// weights of both zero signs once went wrong.
const PHIS: [f64; 5] = [0.0, 0.25, 0.5, 0.9, 1.0];

/// ε of the deterministic approximation, spent with `ErrorBudget::Guaranteed`.
const EPSILON: f64 = 0.1;

/// The sampler's budget is m = ⌈ln(2/δ) / 2ε²⌉ = 81 answers, so the instances
/// below fall on both sides of it.
const SAMPLING: SamplingOptions = SamplingOptions {
    epsilon: 0.3,
    delta: 1e-6,
    seed: 7,
};

/// How many cases each arm checked.
#[derive(Default)]
struct Arms(BTreeMap<&'static str, usize>);

impl Arms {
    fn hit(&mut self, arm: &'static str) {
        *self.0.entry(arm).or_default() += 1;
    }
}

/// Runs a suite at 1 and at 4 threads and fails when any of `arms` never ran.
fn at_both_thread_counts(suite: impl Fn(usize) -> Arms, arms: &[&str]) {
    for threads in [1, 4] {
        let Arms(counted) = with_pool(&Pool::new(threads), || suite(threads));
        for arm in arms {
            let ran = counted.get(arm).copied().unwrap_or(0);
            assert!(ran > 0, "arm `{arm}` never ran at T={threads}: {counted:?}");
        }
    }
}

/// An intractable SUM: the exact route refuses with a witness.
fn assert_refused(instance: &Instance, ranking: &Ranking, what: &str, arms: &mut Arms) {
    let refused = exact_quantile(instance, ranking, 0.5).unwrap_err();
    assert!(
        matches!(refused, CoreError::IntractableSum(_)),
        "{what}: {refused:?}"
    );
    arms.hit("intractable refused");
}

/// The ε route: every target within ε·N under the guaranteed budget.
fn assert_eps_route(
    instance: &Instance,
    ranking: &Ranking,
    oracle: &Oracle,
    what: &str,
    arms: &mut Arms,
) {
    for phi in PHIS {
        let budget = ErrorBudget::Guaranteed;
        let result = approximate_sum_quantile(instance, ranking, phi, EPSILON, budget).unwrap();
        oracle.assert_within(phi, EPSILON, &result, &format!("{what} ε φ={phi}"));
    }
    arms.hit("ε");
}

/// Every route one ranking admits, against the oracle. `database` names the
/// instance's database in `engine`.
fn assert_every_route(
    engine: &Engine,
    database: &str,
    instance: &Instance,
    ranking: &Ranking,
    what: &str,
    arms: &mut Arms,
) {
    let oracle = Oracle::new(instance, ranking);
    if oracle.total() == 0 {
        return;
    }
    let sum = ranking.kind() == AggregateKind::Sum;
    if sum && !classify_partial_sum(instance.query(), ranking.weighted_vars()).is_tractable() {
        assert_refused(instance, ranking, what, arms);
    } else {
        for phi in PHIS {
            let result = exact_quantile(instance, ranking, phi).unwrap();
            oracle.assert_exact(phi, &result, &format!("{what} single φ={phi}"));
        }
        arms.hit("exact single");
        let batch = exact_quantile_batch(instance, ranking, &PHIS).unwrap();
        for (phi, result) in PHIS.iter().zip(&batch) {
            oracle.assert_exact(*phi, result, &format!("{what} batch φ={phi}"));
        }
        arms.hit("exact batch");
        let plan = format!("plan{}", engine.plans().len());
        let query = instance.query().clone();
        engine
            .register(&plan, database, query, ranking.clone())
            .unwrap();
        let served = engine.quantile_batch_with(&plan, &PHIS, Accuracy::Exact);
        for (phi, answer) in PHIS.iter().zip(served.unwrap()) {
            oracle.assert_exact(*phi, &answer.result, &format!("{what} engine φ={phi}"));
        }
        arms.hit("engine");
    }
    if sum {
        assert_eps_route(instance, ranking, &oracle, what, arms);
    }
    let refuses = SAMPLING.sample_count() as u128 >= oracle.total();
    match quantile_by_sampling_batch(instance, ranking, &PHIS, &SAMPLING) {
        Ok(sampled) => {
            assert!(!refuses, "{what}: sampled although m ≥ N");
            for (phi, result) in PHIS.iter().zip(&sampled) {
                let what = format!("{what} sampled φ={phi}");
                oracle.assert_within(*phi, SAMPLING.epsilon, result, &what);
            }
            arms.hit("sampled answered");
        }
        Err(CoreError::ApproxRefused(_)) if refuses => arms.hit("sampled refused"),
        Err(other) => panic!("{what}: sampling failed with {other:?}"),
    }
}

/// `shaped_instance` shapes 0–6 and larger random acyclic instances (the sampled
/// route answers only past 81 answers), under `tie_heavy_ranking` of every
/// aggregate over the weight domains {0, 1, 2, 3, 9}, and under full SUM.
fn whole_solves(threads: usize) -> Arms {
    let engine = Engine::with_config(EngineConfig {
        threads: Some(threads),
        flight_recorder_capacity: 0,
        ..EngineConfig::default()
    });
    let shaped = (0..=6).flat_map(|shape| (0..6).map(move |seed| shaped_instance(shape, seed)));
    let larger = (0..6).map(|seed| {
        RandomAcyclicConfig {
            atoms: 2 + seed as usize % 2,
            max_arity: 2,
            tuples_per_relation: 24,
            domain: 4,
            seed,
        }
        .generate()
    });
    let mut arms = Arms::default();
    for (i, instance) in shaped.chain(larger).enumerate() {
        let database = format!("db{i}");
        let data = instance.shared_database().clone();
        engine.create_database(&database, data).unwrap();
        let kinds = [
            AggregateKind::Min,
            AggregateKind::Max,
            AggregateKind::Lex,
            AggregateKind::Sum,
        ];
        let tie_heavy = kinds.into_iter().flat_map(|kind| {
            [0, 1, 2, 3, 9].map(|domain| (tie_heavy_ranking(&instance, kind, domain), domain))
        });
        // Full SUM on every variable: the intractable arm, whenever the query has one.
        let full_sum = (Ranking::sum(instance.query().variables()), 9);
        for (ranking, domain) in tie_heavy.chain([full_sum]) {
            let what = format!("instance {i} {ranking} domain {domain} T={threads}");
            assert_every_route(&engine, &database, &instance, &ranking, &what, &mut arms);
        }
    }
    arms
}

#[test]
fn every_route_matches_the_brute_force() {
    let arms = [
        "exact single",
        "exact batch",
        "engine",
        "ε",
        "sampled answered",
        "sampled refused",
        "intractable refused",
    ];
    at_both_thread_counts(whole_solves, &arms);
}

/// Random acyclic queries of 1–4 atoms and 3- and 4-paths, each under random
/// non-empty SUM variable sets: a tractable set solves exactly, an intractable one
/// is refused and answered within ε by the deterministic approximation.
fn dichotomy(threads: usize) -> Arms {
    let random = (0..40).map(|seed| {
        RandomAcyclicConfig {
            atoms: 1 + seed as usize % 4,
            max_arity: 3,
            tuples_per_relation: 6,
            domain: 3,
            seed,
        }
        .generate()
    });
    let paths = (0..8).map(|seed| {
        PathConfig {
            atoms: 3 + seed as usize % 2,
            tuples_per_relation: 6,
            join_domain: 3,
            weight_range: 4,
            skew: 0.0,
            seed,
        }
        .generate()
    });
    let mut rng = StdRng::seed_from_u64(56);
    let mut arms = Arms::default();
    for (i, instance) in random.chain(paths).enumerate() {
        let variables = instance.query().variables();
        for _ in 0..4 {
            let weighted: Vec<Variable> = loop {
                let drawn = variables.iter().filter(|_| rng.random_bool(0.5));
                let drawn: Vec<Variable> = drawn.cloned().collect();
                if !drawn.is_empty() {
                    break drawn;
                }
            };
            let ranking = Ranking::sum(weighted);
            let oracle = Oracle::new(&instance, &ranking);
            if oracle.total() == 0 {
                continue;
            }
            let what = format!("instance {i} {ranking} T={threads}");
            let classification = classify_partial_sum(instance.query(), ranking.weighted_vars());
            arms.hit(match classification {
                SumClassification::TractableSingleAtom { .. } => "SingleAtom",
                SumClassification::TractableAdjacentPair { .. } => "AdjacentPair",
                SumClassification::IntractableIndependentSet(_) => "IndependentSet",
                SumClassification::IntractableChordlessPath(_) => "ChordlessPath",
                _ => panic!("{what}: {classification:?} on an acyclic query of ≤ 4 atoms"),
            });
            if classification.is_tractable() {
                let batch = exact_quantile_batch(&instance, &ranking, &PHIS).unwrap();
                for (phi, result) in PHIS.iter().zip(&batch) {
                    oracle.assert_exact(*phi, result, &format!("{what} φ={phi}"));
                }
            } else {
                assert_refused(&instance, &ranking, &what, &mut arms);
                assert_eps_route(&instance, &ranking, &oracle, &what, &mut arms);
            }
        }
    }
    arms
}

#[test]
fn the_dichotomy_decides_which_sums_solve_exactly() {
    let arms = [
        "SingleAtom",
        "AdjacentPair",
        "IndependentSet",
        "ChordlessPath",
        "intractable refused",
        "ε",
    ];
    at_both_thread_counts(dichotomy, &arms);
}
