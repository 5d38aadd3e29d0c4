//! Sharing invariants of the copy-on-write data layer.
//!
//! The exact routes never trim: every round of a MIN/MAX/LEX or single-atom SUM
//! search is a weight window counted over the plan instance's one context, so no
//! round copies a relation or takes a view of one. The self-join rewrite and the
//! engine's prepared plans must *share* relation storage they do not modify —
//! observable as pointer equality on the underlying `Arc`s — and the sharing must
//! never change what the solver computes. These tests pin both halves: storage
//! identity, and solver results identical to the brute force across every
//! ranking kind.

mod common;

use common::{exact, Oracle, Rounds};
use proptest::prelude::*;
use quantile_joins::core::encoded::exact_quantile_batch_encoded_traced;
use quantile_joins::core::{PhaseContext, SolvePhase, SolveTracer};
use quantile_joins::data::EncodedRelation;
use quantile_joins::exec::encoded::shared_context;
use quantile_joins::prelude::*;
use quantile_joins::workload::figures::figure1_instance;
use quantile_joins::workload::random_acyclic::RandomAcyclicConfig;
use quantile_joins::workload::social::SocialConfig;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

fn social_instance(rows: usize, seed: u64) -> Instance {
    SocialConfig {
        rows_per_relation: rows,
        seed,
        ..Default::default()
    }
    .generate()
}

/// Records, at every trim round, how many handles hold each relation's encoded
/// columns, and passes the round on to a [`Rounds`].
struct Holders<'a> {
    instance: &'a EncodedInstance,
    seen: Mutex<Vec<Vec<usize>>>,
    rounds: Rounds,
}

impl Holders<'_> {
    fn now(&self) -> Vec<usize> {
        let holders = |(_, view): (&str, &EncodedRelation)| Arc::strong_count(view.base());
        self.instance.relations().map(holders).collect()
    }
}

impl SolveTracer for Holders<'_> {
    fn phase_event(&self, phase: SolvePhase, elapsed: Duration, ctx: &PhaseContext) {
        if phase == SolvePhase::TrimRound {
            self.seen.lock().unwrap().push(self.now());
        }
        self.rounds.phase_event(phase, elapsed, ctx);
    }
}

/// Solves φ on the exact route with a threshold of one and checks what its rounds
/// share: the plan instance's context is the one its memo held before the solve,
/// and at every round each relation's columns have the holders they had at round
/// 0, at most the solve's own handle on the instance more than before it: no
/// round copied a relation or kept a view of one. The answer and every round's
/// partition are held to the brute force. Returns the number of rounds.
fn assert_rounds_share_everything(instance: &Instance, ranking: &Ranking, phi: f64) -> usize {
    let encoded = EncodedInstance::from_instance(instance).unwrap();
    let context = shared_context(&encoded).unwrap();
    let holders = Holders {
        instance: &encoded,
        seen: Mutex::default(),
        rounds: Rounds::default(),
    };
    let before = holders.now();
    let options = PivotingOptions {
        materialize_threshold: Some(1),
        ..PivotingOptions::default()
    };
    let mut results =
        exact_quantile_batch_encoded_traced(&encoded, ranking, &[phi], &options, &holders).unwrap();
    let result = results.remove(0);
    let what = format!("{ranking} at φ={phi}");
    let seen = holders.seen.lock().unwrap();
    let solve_handle: Vec<usize> = before.iter().map(|held| held + 1).collect();
    for (round, holders) in seen.iter().enumerate() {
        assert_eq!(
            holders, &seen[0],
            "{what}: round {round} holds a relation copy"
        );
        assert!(
            holders == &before || holders == &solve_handle,
            "{what}: {holders:?}"
        );
    }
    drop(seen);
    let after = shared_context(&encoded).unwrap();
    assert!(Arc::ptr_eq(&context, &after), "{what}: a second context");
    let rounds = holders.rounds.take();
    let oracle = Oracle::new(instance, ranking);
    oracle.assert_exact(phi, &result, &what);
    oracle.assert_rounds(result.target_index, &rounds, &what);
    rounds.len()
}

/// A MAX over `l2`, which only Share binds, searches windows of the plan instance:
/// every round shares every relation, Admin and Attend included, and the rounds
/// partition exactly.
#[test]
fn trim_shares_relations_the_predicate_never_touches() {
    let instance = social_instance(120, 11);
    let ranking = Ranking::max(vars(&["l2"]));
    for phi in [0.1, 0.5, 0.9] {
        assert!(assert_rounds_share_everything(&instance, &ranking, phi) >= 2);
    }
}

/// A SUM one atom covers is the same search over that atom's row sums: every round
/// shares every relation, the covering Share included.
#[test]
fn sum_single_atom_trim_shares_the_other_relations() {
    let instance = social_instance(120, 13);
    let ranking = Ranking::sum(vars(&["l2"]));
    for phi in [0.1, 0.5, 0.9] {
        assert!(assert_rounds_share_everything(&instance, &ranking, phi) >= 2);
    }
}

/// Self-join elimination materializes fresh relation *names*, never fresh codes:
/// every introduced relation is a view over the original's base columns.
#[test]
fn self_join_elimination_shares_all_storage() {
    let r = Relation::from_rows("R", &[&[1, 2], &[2, 3], &[3, 4]]).unwrap();
    let q = JoinQuery::new(vec![
        quantile_joins::query::Atom::from_names("R", &["a", "b"]),
        quantile_joins::query::Atom::from_names("R", &["b", "c"]),
        quantile_joins::query::Atom::from_names("R", &["c", "d"]),
    ]);
    let instance = Instance::new(q, Database::from_relations([r]).unwrap()).unwrap();
    let encoded = EncodedInstance::from_instance(&instance).unwrap();
    let original = encoded.relation("R").unwrap().base();
    let rewritten = encoded.eliminate_self_joins().unwrap();
    assert!(!rewritten.query().has_self_joins());
    assert_eq!(rewritten.relations().count(), 3);
    for (name, rel) in rewritten.relations() {
        assert!(
            Arc::ptr_eq(rel.base(), original),
            "{name} must share the original R's columns"
        );
    }
}

/// Registering N plans against one catalog database must encode the data exactly
/// once: every relation view of every plan reads the catalog generation's own
/// `Arc<EncodedColumns>`, so the columns are pointer-identical across plans.
#[test]
fn n_plans_share_one_database_allocation() {
    let (_, database) = social_instance(100, 17).into_parts();
    let engine = Engine::new();
    engine.create_database("social", database).unwrap();
    let rankings = [
        Ranking::sum(vars(&["l2", "l3"])),
        Ranking::max(social_network_query().variables()),
        Ranking::min(vars(&["l3"])),
        Ranking::lex(vars(&["l2", "l3"])),
    ];
    for (i, ranking) in rankings.iter().enumerate() {
        engine
            .register(
                &format!("p{i}"),
                "social",
                social_network_query(),
                ranking.clone(),
            )
            .unwrap();
    }
    let catalog_db = Arc::clone(&engine.catalog().get("social").unwrap().encoded);
    for plan in engine.plans() {
        let instance = plan.encoded_instance.as_ref().unwrap();
        assert_eq!(instance.relations().count(), 3);
        for (name, view) in instance.relations() {
            assert!(
                Arc::ptr_eq(view.base(), catalog_db.relation(name).unwrap()),
                "plan {} holds a copy of {name} instead of the catalog's columns",
                plan.name
            );
        }
    }
    for stats in engine.plan_storage_stats() {
        assert_eq!(
            (
                stats.shared_relations,
                stats.owned_relations,
                stats.owned_bytes
            ),
            (3, 0, 0),
            "plan {} owns storage it should share",
            stats.plan
        );
    }
}

/// The figure-1 walkthrough instance: solver results agree with the materialization
/// baseline for every ranking kind (a fixed-point guard for the refactor).
#[test]
fn figure1_results_match_baseline_for_every_ranking() {
    let instance = figure1_instance();
    let all = instance.query().variables();
    let rankings = [
        Ranking::sum(vars(&["x2", "x4"])),
        Ranking::min(all.clone()),
        Ranking::max(all.clone()),
        Ranking::lex(vars(&["x2", "x1"])),
    ];
    for ranking in &rankings {
        for phi in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let pivoted = exact(&instance, ranking, phi).unwrap();
            let baseline =
                quantile_by_materialization(&instance, ranking, phi, BaselineStrategy::FullSort)
                    .unwrap();
            assert_eq!(pivoted.weight, baseline.weight, "{ranking} at φ={phi}");
            assert_eq!(pivoted.target_index, baseline.target_index);
            assert_eq!(pivoted.total_answers, baseline.total_answers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A MAX on one variable of a random instance: every round of its search shares
    /// every relation, whether its atom binds the variable or not.
    #[test]
    fn trims_share_every_unconstrained_relation(seed in 0u64..5000, atoms in 2usize..5) {
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let var = instance.query().variables()[0].clone();
        let ranking = Ranking::max(vec![var]);
        assert_rounds_share_everything(&instance, &ranking, 0.5);
    }

    /// Solver results stay identical to the materialization baseline across ranking
    /// kinds on random workload instances (SUM over a single atom's variables keeps
    /// the instance on the tractable side of the dichotomy).
    #[test]
    fn solver_matches_baseline_across_rankings(
        seed in 0u64..5000,
        atoms in 1usize..4,
        kind in 0usize..4,
        phi_idx in 0usize..5,
    ) {
        let phi = [0.0, 0.25, 0.5, 0.75, 1.0][phi_idx];
        let instance = random_instance(seed, atoms);
        if count_answers(&instance).unwrap() == 0 {
            return Ok(());
        }
        let all = instance.query().variables();
        let ranking = match kind {
            0 => Ranking::sum(instance.query().atom(0).variables().to_vec()),
            1 => Ranking::min(all.clone()),
            2 => Ranking::max(all.clone()),
            _ => Ranking::lex(all.clone()),
        };
        let pivoted = exact(&instance, &ranking, phi).unwrap();
        let baseline =
            quantile_by_materialization(&instance, &ranking, phi, BaselineStrategy::FullSort)
                .unwrap();
        prop_assert_eq!(&pivoted.weight, &baseline.weight);
        prop_assert_eq!(pivoted.target_index, baseline.target_index);
        prop_assert_eq!(pivoted.total_answers, baseline.total_answers);
    }
}
